//! The one trace-reading trait, and the sources that stream from memory
//! and from files.

use crate::random::{AsciiCursor, SliceCursor, WindowCursor};
use crate::{
    AsciiReader, BlockDecoder, EventRef, MemorySink, TraceCursor, TraceEvent, BINARY_MAGIC,
};
use rescheck_cnf::READ_BUFFER_BYTES;
use std::fs::File;
use std::io::{self, BufRead, BufReader, Read};
use std::path::{Path, PathBuf};

/// Convenience alias: trace reading reports [`io::Error`]s, with parse
/// problems wrapped as [`io::ErrorKind::InvalidData`].
pub type ReadTraceError = io::Error;

/// A source of trace events that can be streamed **more than once** and
/// read record by record.
///
/// The breadth-first checker makes two passes over the trace — a counting
/// pass and the resolution pass (paper §3.3) — so a source must be able to
/// restart. In-memory traces restart trivially; file traces reopen the
/// file. Every pass is one borrowed stream, [`TraceSource::visit_offsets`]:
/// each event is lent as an [`EventRef`] together with its *offset* (a
/// byte position for encoded traces, an index for in-memory ones), which
/// a [`TraceCursor`] from [`TraceSource::open_cursor`] dereferences — the
/// random access the paper's "depth-first algorithm for the graph on
/// disk" needs.
///
/// # Examples
///
/// ```
/// use rescheck_trace::{MemorySink, TraceSink, TraceSource};
///
/// let mut sink = MemorySink::new();
/// sink.final_conflict(3)?;
/// let mut pass1 = 0;
/// sink.visit_events(&mut |_| {
///     pass1 += 1;
///     Ok(())
/// })?;
/// let mut pass2 = 0;
/// sink.visit_events(&mut |_| {
///     pass2 += 1;
///     Ok(())
/// })?;
/// assert_eq!(pass1, pass2);
/// # Ok::<(), std::io::Error>(())
/// ```
pub trait TraceSource {
    /// Streams every event through `visit` with its offset, in emission
    /// order. The [`EventRef`] borrows storage the source reuses, valid
    /// for the one call.
    ///
    /// # Errors
    ///
    /// Propagates open, read and parse errors, and whatever error `visit`
    /// returns — the traversal stops at the first `Err`.
    fn visit_offsets(
        &self,
        visit: &mut dyn FnMut(u64, EventRef<'_>) -> io::Result<()>,
    ) -> io::Result<()>;

    /// [`TraceSource::visit_offsets`] without the offsets.
    ///
    /// # Errors
    ///
    /// As for [`TraceSource::visit_offsets`].
    fn visit_events(
        &self,
        visit: &mut dyn FnMut(EventRef<'_>) -> io::Result<()>,
    ) -> io::Result<()> {
        self.visit_offsets(&mut |_, event| visit(event))
    }

    /// Opens a cursor for reads of single events by offset.
    ///
    /// # Errors
    ///
    /// Fails if the underlying storage cannot be opened.
    fn open_cursor(&self) -> io::Result<Box<dyn TraceCursor + '_>>;

    /// Size of the encoded trace in bytes, when known.
    ///
    /// In-memory traces have no encoding, so they report `None`.
    fn encoded_size(&self) -> Option<u64> {
        None
    }
}

/// An event slice: the offset is the event's index.
impl TraceSource for [TraceEvent] {
    fn visit_offsets(
        &self,
        visit: &mut dyn FnMut(u64, EventRef<'_>) -> io::Result<()>,
    ) -> io::Result<()> {
        for (index, event) in self.iter().enumerate() {
            visit(index as u64, event.as_ref())?;
        }
        Ok(())
    }

    fn open_cursor(&self) -> io::Result<Box<dyn TraceCursor + '_>> {
        Ok(Box::new(SliceCursor(self)))
    }
}

impl TraceSource for Vec<TraceEvent> {
    fn visit_offsets(
        &self,
        visit: &mut dyn FnMut(u64, EventRef<'_>) -> io::Result<()>,
    ) -> io::Result<()> {
        self.as_slice().visit_offsets(visit)
    }

    fn open_cursor(&self) -> io::Result<Box<dyn TraceCursor + '_>> {
        self.as_slice().open_cursor()
    }
}

impl TraceSource for MemorySink {
    fn visit_offsets(
        &self,
        visit: &mut dyn FnMut(u64, EventRef<'_>) -> io::Result<()>,
    ) -> io::Result<()> {
        self.events().visit_offsets(visit)
    }

    fn open_cursor(&self) -> io::Result<Box<dyn TraceCursor + '_>> {
        self.events().open_cursor()
    }
}

impl<T: TraceSource + ?Sized> TraceSource for &T {
    fn visit_offsets(
        &self,
        visit: &mut dyn FnMut(u64, EventRef<'_>) -> io::Result<()>,
    ) -> io::Result<()> {
        (**self).visit_offsets(visit)
    }

    fn open_cursor(&self) -> io::Result<Box<dyn TraceCursor + '_>> {
        (**self).open_cursor()
    }

    fn encoded_size(&self) -> Option<u64> {
        (**self).encoded_size()
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

/// A trace stored in a regular file, in either format, read from disk.
///
/// Each pass reopens the file, so the breadth-first checker's two passes
/// never require the whole trace in memory — the property the paper's
/// breadth-first approach depends on. Offsets are byte positions: of the
/// record in a binary trace, of the record's line in an ASCII one. A
/// [`crate::TraceMap`] is the same binary trace read into memory once.
#[derive(Clone, Debug)]
pub struct FileTrace {
    path: PathBuf,
    format: TraceFormat,
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
        Ok(FileTrace { path, format })
    }

    /// Opens a trace file with an explicit format (no sniffing).
    pub fn with_format(path: impl AsRef<Path>, format: TraceFormat) -> Self {
        FileTrace {
            path: path.as_ref().to_path_buf(),
            format,
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
}

impl TraceSource for FileTrace {
    fn visit_offsets(
        &self,
        visit: &mut dyn FnMut(u64, EventRef<'_>) -> io::Result<()>,
    ) -> io::Result<()> {
        let file = File::open(&self.path)?;
        match self.format {
            TraceFormat::Ascii => visit_ascii(
                AsciiReader::new(BufReader::with_capacity(READ_BUFFER_BYTES, file)),
                visit,
            ),
            // The block decoder buffers internally, so the file handle is
            // passed through unwrapped.
            TraceFormat::Binary => visit_binary(BlockDecoder::new(file)?, visit),
        }
    }

    fn open_cursor(&self) -> io::Result<Box<dyn TraceCursor + '_>> {
        let file = File::open(&self.path)?;
        match self.format {
            TraceFormat::Binary => Ok(Box::new(WindowCursor::new(file))),
            // Deliberately the small default capacity: every `event_at`
            // seek discards the buffer, so a large one would re-read far
            // more than the single record being fetched.
            TraceFormat::Ascii => Ok(Box::new(AsciiCursor(BufReader::new(file)))),
        }
    }

    fn encoded_size(&self) -> Option<u64> {
        std::fs::metadata(&self.path).ok().map(|m| m.len())
    }
}

/// Streams an ASCII trace through `visit`, each event with the byte
/// offset of its line.
fn visit_ascii<R: BufRead>(
    mut reader: AsciiReader<R>,
    visit: &mut dyn FnMut(u64, EventRef<'_>) -> io::Result<()>,
) -> io::Result<()> {
    while let Some((offset, event)) = reader.next_event()? {
        visit(offset, event)?;
    }
    Ok(())
}

/// Streams a binary trace through `visit`, each event with the byte
/// offset of its record.
pub(crate) fn visit_binary<R: Read>(
    mut decoder: BlockDecoder<R>,
    visit: &mut dyn FnMut(u64, EventRef<'_>) -> io::Result<()>,
) -> io::Result<()> {
    loop {
        let offset = decoder.offset();
        let Some(event) = decoder.next_event()? else {
            return Ok(());
        };
        visit(offset, event)?;
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
    let mut events = Vec::new();
    source.visit_events(&mut |event| {
        events.push(event.to_owned());
        Ok(())
    })?;
    Ok(events)
}

/// Reads a whole trace from any [`BufRead`] in the given format.
///
/// # Errors
///
/// Propagates read and parse errors.
pub fn read_all<R: BufRead>(reader: R, format: TraceFormat) -> io::Result<Vec<TraceEvent>> {
    let mut events = Vec::new();
    let mut push = |_, event: EventRef<'_>| {
        events.push(event.to_owned());
        Ok(())
    };
    match format {
        TraceFormat::Ascii => visit_ascii(AsciiReader::new(reader), &mut push)?,
        TraceFormat::Binary => visit_binary(BlockDecoder::new(reader)?, &mut push)?,
    }
    Ok(events)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AsciiWriter, BinaryWriter, TraceMap, TraceSink};
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

    fn write_file(name: &str, format: TraceFormat, events: &[TraceEvent]) -> PathBuf {
        let path = tmp_path(name);
        let mut bytes = Vec::new();
        match format {
            TraceFormat::Ascii => {
                let mut w = AsciiWriter::new(&mut bytes);
                for e in events {
                    w.event(e).unwrap();
                }
            }
            TraceFormat::Binary => {
                let mut w = BinaryWriter::new(&mut bytes).unwrap();
                for e in events {
                    w.event(e).unwrap();
                }
            }
        }
        std::fs::write(&path, bytes).unwrap();
        path
    }

    #[test]
    fn visit_events_matches_owned_iterator_on_all_sources() {
        // Every source's borrowed stream yields what the owned readers
        // decode from the same encoding.
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
            let path = write_file(name, format, &events);
            let owned = read_all(BufReader::new(File::open(&path).unwrap()), format).unwrap();
            assert_eq!(owned, events, "{format:?}");
            let trace = FileTrace::open(&path).unwrap();
            assert_eq!(trace.format(), format);
            assert_eq!(visit_all(&trace), owned, "{format:?}");
            assert_eq!(collect_events(&trace).unwrap(), owned, "{format:?}");
            if format == TraceFormat::Binary {
                assert_eq!(visit_all(&TraceMap::open(&path).unwrap()), owned);
            }
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn established_map_matches_streaming_decode() {
        let path = write_file("mapped.rtb", TraceFormat::Binary, &sample());
        let trace = FileTrace::open(&path).unwrap();
        let map = TraceMap::open(&path).unwrap();
        assert_eq!(map.bytes(), std::fs::read(&path).unwrap().as_slice());
        assert_eq!(map.encoded_size(), trace.encoded_size());
        assert!(!map.is_mmap());
        let offsets = |source: &dyn TraceSource| {
            let mut pairs = Vec::new();
            source
                .visit_offsets(&mut |offset, event| {
                    pairs.push((offset, event.to_owned()));
                    Ok(())
                })
                .unwrap();
            pairs
        };
        assert_eq!(offsets(&map), offsets(&trace));
        assert_eq!(visit_all(&map), sample());

        // The map holds its own copy: truncating the file afterwards
        // changes nothing a pass over the map sees, while the file
        // trace reads the cut file.
        std::fs::write(&path, BINARY_MAGIC).unwrap();
        assert_eq!(visit_all(&map), sample());
        assert_eq!(visit_all(&trace), Vec::new());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn ascii_offsets_are_line_starts_and_errors_name_the_line() {
        let path = tmp_path("lines.txt");
        std::fs::write(&path, "c header\nr 4 2 0 1\n\nf 4\nf 4 9\n").unwrap();
        let trace = FileTrace::open(&path).unwrap();
        let mut offsets = Vec::new();
        let err = trace
            .visit_offsets(&mut |offset, _| {
                offsets.push(offset);
                Ok(())
            })
            .unwrap_err();
        assert_eq!(offsets, vec![9, 20]);
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert_eq!(err.to_string(), "trace line 5: trailing tokens in f record");
        std::fs::remove_file(&path).ok();
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
