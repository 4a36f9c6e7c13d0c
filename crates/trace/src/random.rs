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
//! A binary file trace has two random-access paths, both decoding
//! through the crate's one record decoder. Once a [`crate::TraceMap`]
//! is established on the [`FileTrace`], offset iteration and cursor
//! fetches decode the map's bytes in place. Without one, offset
//! iteration streams the file through a [`BlockDecoder`], and a cursor
//! fetch reads a small window at the offset into a reused buffer.
//! Offsets (the byte position of the record) and diagnostics are the
//! same on both paths, so the id → offset indexes the checkers build
//! are valid against either.

use crate::block::{decode_record, read_full};
use crate::{
    BlockDecoder, FileTrace, MemorySink, SliceDecoder, TraceEvent, TraceFormat, TraceSource,
};
use rescheck_cnf::READ_BUFFER_BYTES;
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

/// Bytes a windowed cursor reads per fetch before it grows: above every
/// learned record of the Table 2 traces (at most 2.3 KB), small enough
/// that a fetch copies little beyond its record.
const CURSOR_WINDOW_BYTES: usize = 4096;

/// Offset iteration over a record reader: `step` yields the next record
/// with its start offset. Iteration ends after the first error.
fn offset_iter<'a, D: 'a>(
    mut reader: D,
    mut step: impl FnMut(&mut D) -> io::Result<Option<(u64, TraceEvent)>> + 'a,
) -> OffsetEventsIter<'a> {
    let mut done = false;
    Box::new(std::iter::from_fn(move || {
        if done {
            return None;
        }
        let item = step(&mut reader).transpose();
        done = !matches!(item, Some(Ok(_)));
        item
    }))
}

/// Unmapped binary offset iteration: the block decoder, plus each
/// record's start offset.
pub(crate) fn block_offsets<'a, R: Read + 'a>(decoder: BlockDecoder<R>) -> OffsetEventsIter<'a> {
    offset_iter(decoder, |decoder| {
        let offset = decoder.offset();
        Ok(decoder
            .next_event()?
            .map(|event| (offset, event.to_owned())))
    })
}

/// Decodes the record at byte `pos` of `data` into an owned event; an
/// offset at or past the end is out of range.
fn owned_record_at(data: &[u8], mut pos: usize, sources: &mut Vec<u64>) -> io::Result<TraceEvent> {
    match decode_record(data, &mut pos, sources)? {
        Some(record) => Ok(record.event(sources).to_owned()),
        None => Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "trace offset out of range",
        )),
    }
}

/// Positioned reads of an established map: the record decoded in place.
struct MapCursor<'a> {
    data: &'a [u8],
    sources: Vec<u64>,
}

impl TraceCursor for MapCursor<'_> {
    fn event_at(&mut self, offset: u64) -> io::Result<TraceEvent> {
        let pos = usize::try_from(offset).unwrap_or(usize::MAX);
        owned_record_at(self.data, pos, &mut self.sources)
    }
}

/// Positioned reads of an unmapped binary trace: a window read at the
/// offset into a reused buffer, the record decoded from it, and the
/// window doubled for a record that outruns it.
pub(crate) struct WindowCursor<R> {
    reader: R,
    window: Vec<u8>,
    sources: Vec<u64>,
}

impl<R> WindowCursor<R> {
    pub(crate) fn new(reader: R) -> Self {
        WindowCursor {
            reader,
            window: vec![0; CURSOR_WINDOW_BYTES],
            sources: Vec::new(),
        }
    }
}

impl<R: Read + Seek> TraceCursor for WindowCursor<R> {
    fn event_at(&mut self, offset: u64) -> io::Result<TraceEvent> {
        loop {
            self.reader.seek(SeekFrom::Start(offset))?;
            let filled = read_full(&mut self.reader, &mut self.window)?;
            match owned_record_at(&self.window[..filled], 0, &mut self.sources) {
                Err(e)
                    if e.kind() == io::ErrorKind::UnexpectedEof && filled == self.window.len() =>
                {
                    self.window.resize(2 * filled, 0);
                }
                result => return result,
            }
        }
    }
}

/// Positioned reads of an ASCII trace: the line at the offset, parsed.
struct AsciiCursor(BufReader<File>);

impl TraceCursor for AsciiCursor {
    fn event_at(&mut self, offset: u64) -> io::Result<TraceEvent> {
        self.0.seek(SeekFrom::Start(offset))?;
        let mut line = String::new();
        self.0.read_line(&mut line)?;
        crate::AsciiReader::new(io::Cursor::new(line))
            .next()
            .unwrap_or_else(|| {
                Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "offset does not address an event record",
                ))
            })
    }
}

impl RandomAccessTrace for FileTrace {
    fn offset_events(&self) -> io::Result<OffsetEventsIter<'_>> {
        if let Some(map) = self.established_map() {
            return Ok(offset_iter(SliceDecoder::new(map.bytes())?, |decoder| {
                let offset = decoder.offset() as u64;
                Ok(decoder
                    .next_event()?
                    .map(|event| (offset, event.to_owned())))
            }));
        }
        let file = File::open(self.path())?;
        match self.format() {
            TraceFormat::Binary => Ok(block_offsets(BlockDecoder::new(file)?)),
            TraceFormat::Ascii => {
                let reader = BufReader::with_capacity(READ_BUFFER_BYTES, file);
                Ok(offset_iter((reader, 0u64), |(reader, pos)| loop {
                    let start = *pos;
                    let mut line = String::new();
                    match reader.read_line(&mut line)? {
                        0 => return Ok(None),
                        n => *pos += n as u64,
                    }
                    // A comment or blank line parses to no event.
                    if let Some(event) = crate::AsciiReader::new(io::Cursor::new(&line)).next() {
                        return Ok(Some((start, event?)));
                    }
                }))
            }
        }
    }

    fn open_cursor(&self) -> io::Result<Box<dyn TraceCursor + '_>> {
        if let Some(map) = self.established_map() {
            return Ok(Box::new(MapCursor {
                data: map.bytes(),
                sources: Vec::new(),
            }));
        }
        let file = File::open(self.path())?;
        match self.format() {
            TraceFormat::Binary => Ok(Box::new(WindowCursor::new(file))),
            // Deliberately the small default capacity: every `event_at`
            // seek discards the buffer, so a large one would re-read far
            // more than the single record being fetched.
            TraceFormat::Ascii => Ok(Box::new(AsciiCursor(BufReader::new(file)))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AsciiWriter, BinaryWriter, TraceSink};
    use rescheck_cnf::Lit;
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
        assert!(mapped.trace_map().is_some());

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

        // The map cursor and the windowed cursor fetch the same records,
        // and both reject an offset past the end.
        let mut windowed = plain.open_cursor().unwrap();
        let mut cursor = mapped.open_cursor().unwrap();
        for &(offset, ref want) in positioned.iter().rev() {
            assert_eq!(&cursor.event_at(offset).unwrap(), want);
            assert_eq!(&windowed.event_at(offset).unwrap(), want);
        }
        for cursor in [&mut cursor, &mut windowed] {
            let err = cursor.event_at(1 << 40).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        }
        check_random_access(&mapped, &sample());

        // A clone shares the established map.
        let clone = mapped.clone();
        assert!(clone.established_map().is_some());
        check_random_access(&clone, &sample());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn windowed_cursor_grows_for_records_longer_than_its_window() {
        // Sources of six varint bytes each: the long record spans several
        // windows, and the short one after it still fits the first.
        let long: Vec<u64> = (0..2_000).map(|i| (1 << 40) + i).collect();
        let events = vec![
            TraceEvent::Learned {
                id: 1 << 41,
                sources: long,
            },
            TraceEvent::Learned {
                id: 7,
                sources: vec![1, 2],
            },
        ];
        let mut bytes = Vec::new();
        let mut w = BinaryWriter::new(&mut bytes).unwrap();
        for e in &events {
            w.event(e).unwrap();
        }
        assert!(bytes.len() > 2 * CURSOR_WINDOW_BYTES);
        let mut cursor = WindowCursor::new(io::Cursor::new(&bytes));
        let pairs: Vec<(u64, TraceEvent)> =
            block_offsets(BlockDecoder::with_block_size(io::Cursor::new(&bytes), 64).unwrap())
                .collect::<io::Result<_>>()
                .unwrap();
        assert_eq!(pairs.len(), 2);
        for (offset, want) in pairs.iter().rev().chain(&pairs) {
            assert_eq!(&cursor.event_at(*offset).unwrap(), want);
        }
        // A long record cut short by the end of the file is still
        // truncation, however far the window grows.
        bytes.truncate(bytes.len() - 100);
        let mut cursor = WindowCursor::new(io::Cursor::new(&bytes));
        let err = cursor.event_at(pairs[0].0).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
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
