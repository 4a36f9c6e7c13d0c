//! Random access into encoded traces.
//!
//! The paper's conclusion asks for a checker "that has the advantage of
//! both the depth-first and breadth-first approaches … potentially a
//! depth-first algorithm for the graph on disk". That algorithm needs to
//! jump to an individual trace record by position instead of streaming,
//! which is what [`RandomAccessTrace`] provides: every event has a stable
//! *offset* (a byte position for file traces, an index for in-memory
//! traces), learnable from [`RandomAccessTrace::offset_events`] and
//! dereferenceable through a [`TraceCursor`].
//!
//! There are two random-access paths for file traces. The original one
//! issues a positioned read (seek + `read_exact`) per fetch. When a
//! [`crate::TraceMap`] has been established on the [`FileTrace`], the
//! cursor instead indexes the mapped bytes directly — a fetch is
//! pointer arithmetic plus a record decode, no syscall. Offsets are
//! identical across both paths (the byte position of the record), so
//! the id → offset indexes the checkers build are valid against either.
//! The mapped path inherits the map's safety invariants (see
//! [`crate::map`](crate::TraceMap)): the file must not be truncated
//! while mapped, the length is captured at map time, and the magic is
//! re-verified on the mapped bytes before any decode.

use crate::{
    varint, FileTrace, MemorySink, SliceDecoder, TraceEvent, TraceFormat, TraceSource, BINARY_MAGIC,
};
use rescheck_cnf::{Lit, READ_BUFFER_BYTES};
use std::fs::File;
use std::io::{self, BufRead, BufReader, Read, Seek, SeekFrom};

/// Positioned reads of single events.
pub trait TraceCursor {
    /// Reads the event at `offset` (a value previously yielded by
    /// [`RandomAccessTrace::offset_events`]).
    ///
    /// # Errors
    ///
    /// Fails if the offset does not address a valid record.
    fn event_at(&mut self, offset: u64) -> io::Result<TraceEvent>;
}

/// Boxed iterator over `(offset, event)` pairs, as yielded by
/// [`RandomAccessTrace::offset_events`].
pub type OffsetEventsIter<'a> = Box<dyn Iterator<Item = io::Result<(u64, TraceEvent)>> + 'a>;

/// A trace whose events can be addressed individually.
///
/// # Examples
///
/// ```
/// use rescheck_trace::{MemorySink, RandomAccessTrace, TraceSink};
///
/// let mut sink = MemorySink::new();
/// sink.learned(5, &[0, 1])?;
/// sink.final_conflict(5)?;
///
/// let offsets: Vec<u64> = sink
///     .offset_events()?
///     .map(|r| r.map(|(o, _)| o))
///     .collect::<Result<_, _>>()?;
/// let mut cursor = sink.open_cursor()?;
/// assert_eq!(cursor.event_at(offsets[1])?.primary_id(), Some(5));
/// # Ok::<(), std::io::Error>(())
/// ```
pub trait RandomAccessTrace: TraceSource {
    /// Streams `(offset, event)` pairs, in emission order.
    ///
    /// # Errors
    ///
    /// Like [`TraceSource::events_iter`].
    fn offset_events(&self) -> io::Result<OffsetEventsIter<'_>>;

    /// Opens a cursor for positioned reads.
    ///
    /// # Errors
    ///
    /// Fails if the underlying storage cannot be opened.
    fn open_cursor(&self) -> io::Result<Box<dyn TraceCursor + '_>>;
}

// ---------------------------------------------------------------------
// In-memory traces: the offset is the event index.
// ---------------------------------------------------------------------

struct SliceCursor<'a>(&'a [TraceEvent]);

impl TraceCursor for SliceCursor<'_> {
    fn event_at(&mut self, offset: u64) -> io::Result<TraceEvent> {
        self.0
            .get(offset as usize)
            .cloned()
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "event index out of range"))
    }
}

fn slice_offsets(events: &[TraceEvent]) -> OffsetEventsIter<'_> {
    Box::new(
        events
            .iter()
            .enumerate()
            .map(|(i, e)| Ok((i as u64, e.clone()))),
    )
}

impl RandomAccessTrace for MemorySink {
    fn offset_events(&self) -> io::Result<OffsetEventsIter<'_>> {
        Ok(slice_offsets(self.events()))
    }

    fn open_cursor(&self) -> io::Result<Box<dyn TraceCursor + '_>> {
        Ok(Box::new(SliceCursor(self.events())))
    }
}

impl RandomAccessTrace for [TraceEvent] {
    fn offset_events(&self) -> io::Result<OffsetEventsIter<'_>> {
        Ok(slice_offsets(self))
    }

    fn open_cursor(&self) -> io::Result<Box<dyn TraceCursor + '_>> {
        Ok(Box::new(SliceCursor(self)))
    }
}

impl RandomAccessTrace for Vec<TraceEvent> {
    fn offset_events(&self) -> io::Result<OffsetEventsIter<'_>> {
        Ok(slice_offsets(self))
    }

    fn open_cursor(&self) -> io::Result<Box<dyn TraceCursor + '_>> {
        Ok(Box::new(SliceCursor(self)))
    }
}

impl<T: RandomAccessTrace + ?Sized> RandomAccessTrace for &T {
    fn offset_events(&self) -> io::Result<OffsetEventsIter<'_>> {
        (**self).offset_events()
    }

    fn open_cursor(&self) -> io::Result<Box<dyn TraceCursor + '_>> {
        (**self).open_cursor()
    }
}

// ---------------------------------------------------------------------
// File traces: the offset is a byte position.
// ---------------------------------------------------------------------

/// Reads one binary event from the current position of `reader`.
pub(crate) fn read_binary_event_here<R: BufRead>(reader: &mut R) -> io::Result<TraceEvent> {
    let mut tag = [0u8];
    reader.read_exact(&mut tag)?;
    parse_binary_body(reader, tag[0])
}

pub(crate) fn parse_binary_body<R: BufRead>(reader: &mut R, tag: u8) -> io::Result<TraceEvent> {
    match tag {
        0x01 => {
            let id = varint::read_u64(&mut *reader)?;
            let count = varint::read_u64(&mut *reader)?;
            if count < 2 {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "learned clause needs at least two resolve sources",
                ));
            }
            if count > (1 << 32) {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "implausible resolve-source count",
                ));
            }
            // `count` is attacker-controlled until the sources decode.
            let mut sources = Vec::with_capacity(count.min(65_536) as usize);
            for _ in 0..count {
                sources.push(varint::read_u64(&mut *reader)?);
            }
            Ok(TraceEvent::Learned { id, sources })
        }
        0x02 => {
            let code = varint::read_u64(&mut *reader)?;
            if code > u32::MAX as u64 {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "literal code out of range",
                ));
            }
            let antecedent = varint::read_u64(&mut *reader)?;
            Ok(TraceEvent::LevelZero {
                lit: Lit::from_code(code as usize),
                antecedent,
            })
        }
        0x03 => {
            let id = varint::read_u64(&mut *reader)?;
            Ok(TraceEvent::FinalConflict { id })
        }
        other => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("unknown binary trace tag 0x{other:02x}"),
        )),
    }
}

/// Number of bytes an event occupies in the binary encoding.
fn binary_event_len(event: &TraceEvent) -> u64 {
    1 + match event {
        TraceEvent::Learned { id, sources } => {
            varint::encoded_len(*id) as u64
                + varint::encoded_len(sources.len() as u64) as u64
                + sources
                    .iter()
                    .map(|&s| varint::encoded_len(s) as u64)
                    .sum::<u64>()
        }
        TraceEvent::LevelZero { lit, antecedent } => {
            varint::encoded_len(lit.code() as u64) as u64 + varint::encoded_len(*antecedent) as u64
        }
        TraceEvent::FinalConflict { id } => varint::encoded_len(*id) as u64,
    }
}

struct FileCursor {
    reader: BufReader<File>,
    format: TraceFormat,
}

impl TraceCursor for FileCursor {
    fn event_at(&mut self, offset: u64) -> io::Result<TraceEvent> {
        self.reader.seek(SeekFrom::Start(offset))?;
        match self.format {
            TraceFormat::Binary => read_binary_event_here(&mut self.reader),
            TraceFormat::Ascii => {
                let mut line = String::new();
                self.reader.read_line(&mut line)?;
                let mut reader = crate::AsciiReader::new(io::Cursor::new(line));
                reader.next().unwrap_or_else(|| {
                    Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        "offset does not address an event record",
                    ))
                })
            }
        }
    }
}

/// Offset iteration over mapped bytes, decoded by the same
/// [`SliceDecoder`] as every other mapped pass, so diagnostics on
/// malformed records match them byte for byte.
struct MapOffsetIter<'a> {
    decoder: SliceDecoder<'a>,
    done: bool,
}

impl Iterator for MapOffsetIter<'_> {
    type Item = io::Result<(u64, TraceEvent)>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        let start = self.decoder.offset() as u64;
        match self.decoder.next_event() {
            Ok(event) => event.map(|event| Ok((start, event.to_owned()))),
            Err(e) => {
                self.done = true;
                Some(Err(e))
            }
        }
    }
}

/// Positioned reads as a [`SliceDecoder`] resumed at the offset.
struct MapCursor<'a> {
    data: &'a [u8],
}

impl TraceCursor for MapCursor<'_> {
    fn event_at(&mut self, offset: u64) -> io::Result<TraceEvent> {
        // An offset past the end decodes as the end of the slice.
        let pos = usize::try_from(offset).unwrap_or(usize::MAX);
        let mut decoder = SliceDecoder::resume_at(self.data, pos);
        decoder
            .next_event()?
            .map(|event| event.to_owned())
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "trace offset out of range"))
    }
}

impl RandomAccessTrace for FileTrace {
    fn offset_events(&self) -> io::Result<OffsetEventsIter<'_>> {
        if self.format() == TraceFormat::Binary {
            if let Some(map) = self.established_map() {
                return Ok(Box::new(MapOffsetIter {
                    decoder: SliceDecoder::resume_at(map.bytes(), BINARY_MAGIC.len()),
                    done: false,
                }));
            }
        }
        let reader = BufReader::with_capacity(READ_BUFFER_BYTES, File::open(self.path())?);
        match self.format() {
            TraceFormat::Ascii => Ok(Box::new(AsciiOffsetIter {
                reader,
                pos: 0,
                done: false,
            })),
            TraceFormat::Binary => {
                let mut iter = BinaryOffsetIter {
                    reader,
                    pos: BINARY_MAGIC.len() as u64,
                    done: false,
                };
                // Consume and validate the magic.
                let mut magic = [0u8; 4];
                iter.reader.read_exact(&mut magic)?;
                if magic != BINARY_MAGIC {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        "not a rescheck binary trace (bad magic)",
                    ));
                }
                Ok(Box::new(iter))
            }
        }
    }

    fn open_cursor(&self) -> io::Result<Box<dyn TraceCursor + '_>> {
        if self.format() == TraceFormat::Binary {
            if let Some(map) = self.established_map() {
                return Ok(Box::new(MapCursor { data: map.bytes() }));
            }
        }
        // Deliberately the small default capacity: every `event_at` seek
        // discards the buffer, so a large one would re-read far more than
        // the single record being fetched.
        Ok(Box::new(FileCursor {
            reader: BufReader::new(File::open(self.path())?),
            format: self.format(),
        }))
    }
}

struct AsciiOffsetIter {
    reader: BufReader<File>,
    pos: u64,
    done: bool,
}

impl Iterator for AsciiOffsetIter {
    type Item = io::Result<(u64, TraceEvent)>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        loop {
            let start = self.pos;
            let mut line = String::new();
            match self.reader.read_line(&mut line) {
                Ok(0) => return None,
                Ok(n) => self.pos += n as u64,
                Err(e) => {
                    self.done = true;
                    return Some(Err(e));
                }
            }
            let mut parser = crate::AsciiReader::new(io::Cursor::new(&line));
            match parser.next() {
                Some(Ok(event)) => return Some(Ok((start, event))),
                Some(Err(e)) => {
                    self.done = true;
                    return Some(Err(e));
                }
                None => continue, // comment or blank line
            }
        }
    }
}

struct BinaryOffsetIter {
    reader: BufReader<File>,
    pos: u64,
    done: bool,
}

impl Iterator for BinaryOffsetIter {
    type Item = io::Result<(u64, TraceEvent)>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        let start = self.pos;
        let mut tag = [0u8];
        match self.reader.read_exact(&mut tag) {
            Ok(()) => {}
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return None,
            Err(e) => {
                self.done = true;
                return Some(Err(e));
            }
        }
        match parse_binary_body(&mut self.reader, tag[0]) {
            Ok(event) => {
                self.pos += binary_event_len(&event);
                Some(Ok((start, event)))
            }
            Err(e) => {
                self.done = true;
                Some(Err(e))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AsciiWriter, BinaryWriter, TraceSink};
    use std::path::PathBuf;

    fn sample() -> Vec<TraceEvent> {
        vec![
            TraceEvent::Learned {
                id: 1000,
                sources: vec![0, 3, 700],
            },
            TraceEvent::LevelZero {
                lit: Lit::from_dimacs(-52),
                antecedent: 1000,
            },
            TraceEvent::Learned {
                id: 1001,
                sources: vec![1000, 5],
            },
            TraceEvent::FinalConflict { id: 1001 },
        ]
    }

    fn tmp_path(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("rescheck-random-test");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn check_random_access(trace: &dyn RandomAccessTrace, expected: &[TraceEvent]) {
        let pairs: Vec<(u64, TraceEvent)> = trace
            .offset_events()
            .unwrap()
            .collect::<io::Result<_>>()
            .unwrap();
        assert_eq!(pairs.len(), expected.len());
        for ((_, e), want) in pairs.iter().zip(expected) {
            assert_eq!(e, want);
        }
        // Random access in shuffled order.
        let mut cursor = trace.open_cursor().unwrap();
        for &(offset, ref want) in pairs.iter().rev() {
            assert_eq!(&cursor.event_at(offset).unwrap(), want);
        }
        // Repeated reads of the same offset work.
        let (o0, ref e0) = pairs[0];
        assert_eq!(&cursor.event_at(o0).unwrap(), e0);
        assert_eq!(&cursor.event_at(o0).unwrap(), e0);
    }

    #[test]
    fn memory_traces_are_random_access() {
        let events = sample();
        let sink: MemorySink = events.clone().into();
        check_random_access(&sink, &events);
        check_random_access(&events, &events);
    }

    #[test]
    fn ascii_files_are_random_access() {
        let path = tmp_path("ra.rt");
        {
            let mut w = AsciiWriter::new(std::fs::File::create(&path).unwrap());
            // Interleave comments to prove offsets skip them.
            w.event(&sample()[0]).unwrap();
            w.flush().unwrap();
        }
        // Re-write completely with comments via raw text.
        let mut text = String::from("c header comment\n");
        for e in sample() {
            text.push_str(&e.to_string());
            text.push('\n');
            text.push_str("c interleaved\n");
        }
        std::fs::write(&path, text).unwrap();
        let trace = FileTrace::open(&path).unwrap();
        check_random_access(&trace, &sample());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn binary_files_are_random_access() {
        let path = tmp_path("ra.rtb");
        {
            let mut w = BinaryWriter::new(std::fs::File::create(&path).unwrap()).unwrap();
            for e in sample() {
                w.event(&e).unwrap();
            }
            w.flush().unwrap();
        }
        let trace = FileTrace::open(&path).unwrap();
        check_random_access(&trace, &sample());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn mapped_random_access_matches_positioned_reads() {
        let path = tmp_path("ra-map.rtb");
        {
            let mut w = BinaryWriter::new(std::fs::File::create(&path).unwrap()).unwrap();
            for e in sample() {
                w.event(&e).unwrap();
            }
            w.flush().unwrap();
        }
        let plain = FileTrace::open(&path).unwrap();
        let mapped = FileTrace::open(&path).unwrap();
        assert!(mapped.trace_map(true).is_some());

        let positioned: Vec<(u64, TraceEvent)> = plain
            .offset_events()
            .unwrap()
            .collect::<io::Result<_>>()
            .unwrap();
        let via_map: Vec<(u64, TraceEvent)> = mapped
            .offset_events()
            .unwrap()
            .collect::<io::Result<_>>()
            .unwrap();
        assert_eq!(positioned, via_map);

        let mut cursor = mapped.open_cursor().unwrap();
        for &(offset, ref want) in positioned.iter().rev() {
            assert_eq!(&cursor.event_at(offset).unwrap(), want);
        }
        assert!(cursor.event_at(1 << 40).is_err());
        check_random_access(&mapped, &sample());

        // A clone shares the established map.
        let clone = mapped.clone();
        assert!(clone.established_map().is_some());
        check_random_access(&clone, &sample());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bad_offsets_error() {
        let events = sample();
        let mut cursor = events.open_cursor().unwrap();
        assert!(cursor.event_at(99).is_err());

        let path = tmp_path("bad.rtb");
        let mut w = BinaryWriter::new(std::fs::File::create(&path).unwrap()).unwrap();
        w.event(&events[0]).unwrap();
        w.flush().unwrap();
        let trace = FileTrace::open(&path).unwrap();
        let mut cursor = trace.open_cursor().unwrap();
        // Offset 1 points into the middle of the magic/record: either an
        // error or a wrong-tag failure, never a panic.
        assert!(cursor.event_at(1).is_err());
        std::fs::remove_file(&path).ok();
    }
}
