//! Re-iterable trace sources for checkers.

use crate::{
    AsciiReader, BlockDecoder, EventRef, MemorySink, SliceDecoder, TraceEvent, TraceMap,
    BINARY_MAGIC,
};
use rescheck_cnf::READ_BUFFER_BYTES;
use std::fs::File;
use std::io::{self, BufRead, BufReader, Read};
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};

/// Convenience alias: trace reading reports [`io::Error`]s, with parse
/// problems wrapped as [`io::ErrorKind::InvalidData`].
pub type ReadTraceError = io::Error;

/// A source of trace events that can be streamed **more than once**.
///
/// The breadth-first checker makes two passes over the trace — a counting
/// pass and the resolution pass (paper §3.3) — so a source must be able to
/// restart. In-memory traces restart trivially; file traces reopen the
/// file.
///
/// # Examples
///
/// ```
/// use rescheck_trace::{MemorySink, TraceSink, TraceSource};
///
/// let mut sink = MemorySink::new();
/// sink.final_conflict(3)?;
/// let pass1 = sink.events_iter()?.count();
/// let pass2 = sink.events_iter()?.count();
/// assert_eq!(pass1, pass2);
/// # Ok::<(), std::io::Error>(())
/// ```
pub trait TraceSource {
    /// Starts a fresh pass over the events, in emission order.
    ///
    /// # Errors
    ///
    /// Returns an error if the underlying storage cannot be (re)opened.
    /// Individual items are `Err` when a record is malformed.
    fn events_iter(&self) -> io::Result<Box<dyn Iterator<Item = io::Result<TraceEvent>> + '_>>;

    /// Size of the encoded trace in bytes, when known.
    ///
    /// In-memory traces have no encoding, so they report `None`.
    fn encoded_size(&self) -> Option<u64> {
        None
    }

    /// Streams every event through `visit` as a borrowed [`EventRef`], in
    /// emission order.
    ///
    /// This is the zero-copy counterpart of [`TraceSource::events_iter`]:
    /// sources that can avoid it (in-memory slices, binary files through
    /// [`BlockDecoder`]) hand out views into existing or reused storage
    /// instead of allocating an owned [`TraceEvent`] per record. The
    /// default implementation adapts `events_iter`, so implementing it is
    /// optional.
    ///
    /// # Errors
    ///
    /// Propagates read/parse errors, and whatever error `visit` returns —
    /// the traversal stops at the first `Err`.
    fn visit_events(
        &self,
        visit: &mut dyn FnMut(EventRef<'_>) -> io::Result<()>,
    ) -> io::Result<()> {
        for event in self.events_iter()? {
            let event = event?;
            visit(event.as_ref())?;
        }
        Ok(())
    }

    /// The in-memory byte map of this source, established on first call
    /// and shared by every subsequent pass.
    ///
    /// Only binary file traces have one; everything else (in-memory
    /// sinks, ASCII files) returns `None` and keeps streaming. `None`
    /// is also the graceful degradation for maps that cannot be
    /// established (unreadable file, malformed header): the streaming
    /// paths then surface the precise error.
    fn trace_map(&self) -> Option<&TraceMap> {
        None
    }
}

/// Shared zero-copy visit for sources backed by an event slice.
fn visit_slice(
    events: &[TraceEvent],
    visit: &mut dyn FnMut(EventRef<'_>) -> io::Result<()>,
) -> io::Result<()> {
    for event in events {
        visit(event.as_ref())?;
    }
    Ok(())
}

impl TraceSource for MemorySink {
    fn events_iter(&self) -> io::Result<Box<dyn Iterator<Item = io::Result<TraceEvent>> + '_>> {
        Ok(Box::new(self.events().iter().cloned().map(Ok)))
    }

    fn visit_events(
        &self,
        visit: &mut dyn FnMut(EventRef<'_>) -> io::Result<()>,
    ) -> io::Result<()> {
        visit_slice(self.events(), visit)
    }
}

impl TraceSource for [TraceEvent] {
    fn events_iter(&self) -> io::Result<Box<dyn Iterator<Item = io::Result<TraceEvent>> + '_>> {
        Ok(Box::new(self.iter().cloned().map(Ok)))
    }

    fn visit_events(
        &self,
        visit: &mut dyn FnMut(EventRef<'_>) -> io::Result<()>,
    ) -> io::Result<()> {
        visit_slice(self, visit)
    }
}

impl TraceSource for Vec<TraceEvent> {
    fn events_iter(&self) -> io::Result<Box<dyn Iterator<Item = io::Result<TraceEvent>> + '_>> {
        Ok(Box::new(self.iter().cloned().map(Ok)))
    }

    fn visit_events(
        &self,
        visit: &mut dyn FnMut(EventRef<'_>) -> io::Result<()>,
    ) -> io::Result<()> {
        visit_slice(self, visit)
    }
}

impl<T: TraceSource + ?Sized> TraceSource for &T {
    fn events_iter(&self) -> io::Result<Box<dyn Iterator<Item = io::Result<TraceEvent>> + '_>> {
        (**self).events_iter()
    }

    fn encoded_size(&self) -> Option<u64> {
        (**self).encoded_size()
    }

    fn visit_events(
        &self,
        visit: &mut dyn FnMut(EventRef<'_>) -> io::Result<()>,
    ) -> io::Result<()> {
        (**self).visit_events(visit)
    }

    fn trace_map(&self) -> Option<&TraceMap> {
        (**self).trace_map()
    }
}

/// On-disk encodings of a trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TraceFormat {
    /// The human-readable line format of [`crate::AsciiWriter`].
    Ascii,
    /// The compact varint format of [`crate::BinaryWriter`].
    Binary,
}

/// A trace stored in a regular file, in either format.
///
/// Without a map, each pass reopens the file, so the breadth-first
/// checker's two passes never require the whole trace in memory — the
/// property the paper's breadth-first approach depends on. Once a
/// checker establishes a [`TraceMap`] via
/// [`TraceSource::trace_map`], every subsequent pass (streaming,
/// offset iteration, cursor fetches) reads the map's bytes instead;
/// clones of the `FileTrace` share the same established map, which is
/// what lets a daemon's trace cache read a trace once for many jobs.
#[derive(Clone, Debug)]
pub struct FileTrace {
    path: PathBuf,
    format: TraceFormat,
    map: OnceLock<Option<Arc<TraceMap>>>,
}

impl FileTrace {
    /// Opens a trace file, detecting the format from its first bytes.
    ///
    /// # Errors
    ///
    /// Fails if the file cannot be opened, and with
    /// [`io::ErrorKind::InvalidInput`] if it is not a regular file (see
    /// [`require_regular_file`]).
    pub fn open(path: impl AsRef<Path>) -> io::Result<Self> {
        let path = path.as_ref().to_path_buf();
        require_regular_file(&path)?;
        let mut head = [0u8; 4];
        let mut file = File::open(&path)?;
        let n = file.read(&mut head)?;
        let format = if n == 4 && head == BINARY_MAGIC {
            TraceFormat::Binary
        } else {
            TraceFormat::Ascii
        };
        Ok(FileTrace {
            path,
            format,
            map: OnceLock::new(),
        })
    }

    /// Opens a trace file with an explicit format (no sniffing).
    pub fn with_format(path: impl AsRef<Path>, format: TraceFormat) -> Self {
        FileTrace {
            path: path.as_ref().to_path_buf(),
            format,
            map: OnceLock::new(),
        }
    }

    /// The detected or declared format.
    pub fn format(&self) -> TraceFormat {
        self.format
    }

    /// The underlying path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The already-established map, if any — never establishes one.
    pub(crate) fn established_map(&self) -> Option<&TraceMap> {
        self.map.get().and_then(|m| m.as_deref())
    }
}

impl TraceSource for FileTrace {
    fn events_iter(&self) -> io::Result<Box<dyn Iterator<Item = io::Result<TraceEvent>> + '_>> {
        if let Some(map) = self.established_map() {
            let mut decoder = SliceDecoder::new(map.bytes())?;
            return Ok(Box::new(std::iter::from_fn(move || {
                match decoder.next_event() {
                    Ok(Some(event)) => Some(Ok(event.to_owned())),
                    Ok(None) => None,
                    Err(e) => Some(Err(e)),
                }
            })));
        }
        let file = File::open(&self.path)?;
        match self.format {
            TraceFormat::Ascii => Ok(Box::new(AsciiReader::new(BufReader::with_capacity(
                READ_BUFFER_BYTES,
                file,
            )))),
            // The block decoder buffers internally, so the file handle is
            // passed through unwrapped.
            TraceFormat::Binary => Ok(Box::new(BlockDecoder::new(file)?.into_events())),
        }
    }

    fn encoded_size(&self) -> Option<u64> {
        std::fs::metadata(&self.path).ok().map(|m| m.len())
    }

    fn visit_events(
        &self,
        visit: &mut dyn FnMut(EventRef<'_>) -> io::Result<()>,
    ) -> io::Result<()> {
        match self.format {
            // ASCII parsing allocates per line anyway; reuse the iterator.
            TraceFormat::Ascii => {
                for event in self.events_iter()? {
                    let event = event?;
                    visit(event.as_ref())?;
                }
                Ok(())
            }
            TraceFormat::Binary => {
                if let Some(map) = self.established_map() {
                    let mut decoder = SliceDecoder::new(map.bytes())?;
                    while let Some(event) = decoder.next_event()? {
                        visit(event)?;
                    }
                    return Ok(());
                }
                let mut decoder = BlockDecoder::new(File::open(&self.path)?)?;
                while let Some(event) = decoder.next_event()? {
                    visit(event)?;
                }
                Ok(())
            }
        }
    }

    fn trace_map(&self) -> Option<&TraceMap> {
        if self.format != TraceFormat::Binary {
            return None;
        }
        // Failure caches None: callers fall back to the streaming
        // paths, which report the precise error.
        self.map
            .get_or_init(|| TraceMap::open(&self.path).ok().map(Arc::new))
            .as_deref()
    }
}

/// Fails with [`io::ErrorKind::InvalidInput`] unless `path` names a
/// regular file (symlinks followed).
///
/// A checker reads its inputs more than once, and a pipe or FIFO can be
/// read only once — or, with no writer, blocks `open(2)` forever — so a
/// trace or formula path is stat'ed before it is opened.
///
/// # Errors
///
/// Also propagates the `stat` error for a missing or unreadable path.
pub fn require_regular_file(path: &Path) -> io::Result<()> {
    if std::fs::metadata(path)?.is_file() {
        Ok(())
    } else {
        Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "not a regular file",
        ))
    }
}

/// Collects every event of a source into memory.
///
/// # Errors
///
/// Propagates the first read or parse error.
pub fn collect_events<S: TraceSource + ?Sized>(source: &S) -> io::Result<Vec<TraceEvent>> {
    source.events_iter()?.collect()
}

/// Reads a whole trace from any [`BufRead`] in the given format.
///
/// # Errors
///
/// Propagates read and parse errors.
pub fn read_all<R: BufRead>(reader: R, format: TraceFormat) -> io::Result<Vec<TraceEvent>> {
    match format {
        TraceFormat::Ascii => AsciiReader::new(reader).collect(),
        TraceFormat::Binary => BlockDecoder::new(reader)?.into_events().collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AsciiWriter, BinaryWriter, TraceSink};
    use rescheck_cnf::Lit;

    fn sample() -> Vec<TraceEvent> {
        vec![
            TraceEvent::Learned {
                id: 4,
                sources: vec![0, 1, 2],
            },
            TraceEvent::LevelZero {
                lit: Lit::from_dimacs(-1),
                antecedent: 4,
            },
            TraceEvent::FinalConflict { id: 3 },
        ]
    }

    fn tmp_path(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("rescheck-trace-test");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn memory_sources_restart() {
        let events = sample();
        let sink: MemorySink = events.clone().into();
        assert_eq!(collect_events(&sink).unwrap(), events);
        assert_eq!(collect_events(&sink).unwrap(), events);
        assert_eq!(collect_events(&events).unwrap(), events);
        assert_eq!(collect_events(&events[..]).unwrap(), events);
        assert_eq!(sink.encoded_size(), None);
    }

    #[test]
    fn file_trace_detects_ascii() {
        let path = tmp_path("detect.txt");
        {
            let file = File::create(&path).unwrap();
            let mut w = AsciiWriter::new(file);
            for e in &sample() {
                w.event(e).unwrap();
            }
            w.flush().unwrap();
        }
        let trace = FileTrace::open(&path).unwrap();
        assert_eq!(trace.format(), TraceFormat::Ascii);
        assert_eq!(collect_events(&trace).unwrap(), sample());
        assert!(trace.encoded_size().unwrap() > 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn file_trace_detects_binary_and_restarts() {
        let path = tmp_path("detect.bin");
        {
            let file = File::create(&path).unwrap();
            let mut w = BinaryWriter::new(file).unwrap();
            for e in &sample() {
                w.event(e).unwrap();
            }
            w.flush().unwrap();
        }
        let trace = FileTrace::open(&path).unwrap();
        assert_eq!(trace.format(), TraceFormat::Binary);
        // Two passes, as the breadth-first checker requires.
        assert_eq!(collect_events(&trace).unwrap(), sample());
        assert_eq!(collect_events(&trace).unwrap(), sample());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn with_format_overrides_sniffing() {
        let path = tmp_path("override.txt");
        std::fs::write(&path, "f 1\n").unwrap();
        let trace = FileTrace::with_format(&path, TraceFormat::Ascii);
        assert_eq!(trace.path(), path.as_path());
        assert_eq!(
            collect_events(&trace).unwrap(),
            vec![TraceEvent::FinalConflict { id: 1 }]
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn read_all_both_formats() {
        let events = sample();
        let mut ascii = Vec::new();
        let mut aw = AsciiWriter::new(&mut ascii);
        for e in &events {
            aw.event(e).unwrap();
        }
        assert_eq!(
            read_all(io::Cursor::new(ascii), TraceFormat::Ascii).unwrap(),
            events
        );

        let mut bin = Vec::new();
        let mut bw = BinaryWriter::new(&mut bin).unwrap();
        for e in &events {
            bw.event(e).unwrap();
        }
        assert_eq!(
            read_all(io::Cursor::new(bin), TraceFormat::Binary).unwrap(),
            events
        );
    }

    #[test]
    fn missing_file_is_an_error() {
        assert!(FileTrace::open("/definitely/not/here.trace").is_err());
    }

    #[test]
    fn non_regular_files_are_rejected_before_opening() {
        let dir = tmp_path("");
        let err = FileTrace::open(&dir).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert_eq!(
            require_regular_file(&dir).unwrap_err().kind(),
            io::ErrorKind::InvalidInput
        );
        #[cfg(unix)]
        {
            let err = FileTrace::open("/dev/null").unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        }
    }

    fn visit_all<S: TraceSource + ?Sized>(source: &S) -> Vec<TraceEvent> {
        let mut events = Vec::new();
        source
            .visit_events(&mut |event| {
                events.push(event.to_owned());
                Ok(())
            })
            .unwrap();
        events
    }

    #[test]
    fn visit_events_matches_owned_iterator_on_all_sources() {
        let events = sample();
        let sink: MemorySink = events.clone().into();
        assert_eq!(visit_all(&sink), events);
        assert_eq!(visit_all(&events), events);
        assert_eq!(visit_all(&events[..]), events);
        assert_eq!(visit_all(&&events), events);

        for (name, format) in [
            ("visit.txt", TraceFormat::Ascii),
            ("visit.rtb", TraceFormat::Binary),
        ] {
            let path = tmp_path(name);
            let file = File::create(&path).unwrap();
            match format {
                TraceFormat::Ascii => {
                    let mut w = AsciiWriter::new(file);
                    for e in &events {
                        w.event(e).unwrap();
                    }
                    w.flush().unwrap();
                }
                TraceFormat::Binary => {
                    let mut w = BinaryWriter::new(file).unwrap();
                    for e in &events {
                        w.event(e).unwrap();
                    }
                    w.flush().unwrap();
                }
            }
            let trace = FileTrace::open(&path).unwrap();
            assert_eq!(trace.format(), format);
            assert_eq!(visit_all(&trace), events, "{format:?}");
            assert_eq!(collect_events(&trace).unwrap(), events, "{format:?}");
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn established_map_matches_streaming_decode() {
        let path = tmp_path("mapped.rtb");
        {
            let file = File::create(&path).unwrap();
            let mut w = BinaryWriter::new(file).unwrap();
            for e in &sample() {
                w.event(e).unwrap();
            }
            w.flush().unwrap();
        }
        let trace = FileTrace::open(&path).unwrap();
        assert!(trace.established_map().is_none());
        // ASCII traces and repeated calls behave.
        let map = trace.trace_map().expect("binary file trace maps");
        assert_eq!(map.bytes(), std::fs::read(&path).unwrap().as_slice());
        assert_eq!(map.accounted_bytes(), trace.encoded_size().unwrap());
        assert!(!map.is_mmap());
        assert!(trace.trace_map().is_some());
        assert_eq!(collect_events(&trace).unwrap(), sample());
        assert_eq!(visit_all(&trace), sample());

        // The map holds its own copy: truncating the file afterwards
        // changes nothing a pass over the trace sees.
        std::fs::write(&path, BINARY_MAGIC).unwrap();
        assert_eq!(collect_events(&trace).unwrap(), sample());
        assert_eq!(visit_all(&trace), sample());
        std::fs::remove_file(&path).ok();

        let ascii = tmp_path("mapped.txt");
        std::fs::write(&ascii, "f 1\n").unwrap();
        let trace = FileTrace::open(&ascii).unwrap();
        assert!(trace.trace_map().is_none());
        std::fs::remove_file(&ascii).ok();
    }

    #[test]
    fn visit_events_stops_at_visitor_error() {
        let events = sample();
        let mut seen = 0usize;
        let err = events
            .visit_events(&mut |_| {
                seen += 1;
                if seen == 2 {
                    Err(io::Error::other("stop here"))
                } else {
                    Ok(())
                }
            })
            .unwrap_err();
        assert_eq!(seen, 2);
        assert_eq!(err.to_string(), "stop here");
    }
}
