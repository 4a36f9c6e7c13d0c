//! Random access into traces: reads of single events by offset.
//!
//! The paper's conclusion asks for a checker "that has the advantage of
//! both the depth-first and breadth-first approaches … potentially a
//! depth-first algorithm for the graph on disk". That algorithm needs to
//! jump to an individual trace record by position instead of streaming:
//! every pass of [`crate::TraceSource::visit_offsets`] reports each
//! event's *offset*, and a [`TraceCursor`] from
//! [`crate::TraceSource::open_cursor`] reads the event back from it.
//!
//! A binary trace file's cursor reads a small window at the offset into
//! a reused buffer and decodes the record with the crate's one record
//! decoder; an in-memory [`crate::TraceMap`] decodes the record in place.
//! Offsets and diagnostics are the same on both, so the id → offset
//! indexes the checkers build are valid against either.

use crate::block::{decode_record, read_full};
use crate::TraceEvent;
use std::fs::File;
use std::io::{self, BufRead, BufReader, Read, Seek, SeekFrom};

/// Positioned reads of single events.
///
/// # Examples
///
/// ```
/// use rescheck_trace::{MemorySink, TraceSink, TraceSource};
///
/// let mut sink = MemorySink::new();
/// sink.learned(5, &[0, 1])?;
/// sink.final_conflict(5)?;
///
/// let mut offsets = Vec::new();
/// sink.visit_offsets(&mut |offset, _| {
///     offsets.push(offset);
///     Ok(())
/// })?;
/// let mut cursor = sink.open_cursor()?;
/// assert_eq!(cursor.event_at(offsets[1])?.primary_id(), Some(5));
/// # Ok::<(), std::io::Error>(())
/// ```
pub trait TraceCursor {
    /// Reads the event at `offset` (a value previously reported by
    /// [`crate::TraceSource::visit_offsets`]).
    ///
    /// # Errors
    ///
    /// Fails if the offset does not address a valid record.
    fn event_at(&mut self, offset: u64) -> io::Result<TraceEvent>;
}

/// Positioned reads of an event slice: the offset is the event index.
pub(crate) struct SliceCursor<'a>(pub(crate) &'a [TraceEvent]);

impl TraceCursor for SliceCursor<'_> {
    fn event_at(&mut self, offset: u64) -> io::Result<TraceEvent> {
        self.0
            .get(offset as usize)
            .cloned()
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "event index out of range"))
    }
}

/// Bytes a windowed cursor reads per fetch before it grows: above every
/// learned record of the Table 2 traces (at most 2.3 KB), small enough
/// that a fetch copies little beyond its record.
const CURSOR_WINDOW_BYTES: usize = 4096;

/// Decodes the record at byte `pos` of `data` into an owned event; an
/// offset at or past the end is out of range.
pub(crate) fn owned_record_at(
    data: &[u8],
    mut pos: usize,
    sources: &mut Vec<u64>,
) -> io::Result<TraceEvent> {
    match decode_record(data, &mut pos, sources)? {
        Some(record) => Ok(record.event(sources).to_owned()),
        None => Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "trace offset out of range",
        )),
    }
}

/// Positioned reads of a binary trace file: a window read at the offset
/// into a reused buffer, the record decoded from it, and the window
/// doubled for a record that outruns it.
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

/// Positioned reads of an ASCII trace file: the line at the offset,
/// parsed.
pub(crate) struct AsciiCursor(pub(crate) BufReader<File>);

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BinaryWriter, FileTrace, MemorySink, SliceDecoder, TraceMap, TraceSink};
    use crate::{TraceSource, BINARY_MAGIC};
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

    fn write_binary(name: &str) -> PathBuf {
        let path = tmp_path(name);
        let mut w = BinaryWriter::new(std::fs::File::create(&path).unwrap()).unwrap();
        for e in sample() {
            w.event(&e).unwrap();
        }
        w.flush().unwrap();
        path
    }

    fn offset_pairs(trace: &dyn TraceSource) -> Vec<(u64, TraceEvent)> {
        let mut pairs = Vec::new();
        trace
            .visit_offsets(&mut |offset, event| {
                pairs.push((offset, event.to_owned()));
                Ok(())
            })
            .unwrap();
        pairs
    }

    fn check_random_access(trace: &dyn TraceSource, expected: &[TraceEvent]) {
        let pairs = offset_pairs(trace);
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
        check_random_access(&events.as_slice(), &events);
    }

    #[test]
    fn ascii_files_are_random_access() {
        // Comments interleaved with the records: offsets skip them.
        let path = tmp_path("ra.rt");
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
        let path = write_binary("ra.rtb");
        let trace = FileTrace::open(&path).unwrap();
        check_random_access(&trace, &sample());
        check_random_access(&TraceMap::open(&path).unwrap(), &sample());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn mapped_random_access_matches_positioned_reads() {
        let path = write_binary("ra-map.rtb");
        let file = FileTrace::open(&path).unwrap();
        let map = TraceMap::open(&path).unwrap();

        // The same offsets from the file's block decoder and from the
        // map's slice decoder.
        let positioned = offset_pairs(&file);
        assert_eq!(positioned, offset_pairs(&map));

        // The map cursor and the windowed cursor fetch the same records,
        // and both reject an offset past the end.
        let mut windowed = file.open_cursor().unwrap();
        let mut cursor = map.open_cursor().unwrap();
        for &(offset, ref want) in positioned.iter().rev() {
            assert_eq!(&cursor.event_at(offset).unwrap(), want);
            assert_eq!(&windowed.event_at(offset).unwrap(), want);
        }
        for cursor in [&mut cursor, &mut windowed] {
            let err = cursor.event_at(1 << 40).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        }
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
        let mut pairs = Vec::new();
        let mut decoder = SliceDecoder::new(&bytes).unwrap();
        loop {
            let offset = decoder.offset() as u64;
            let Some(event) = decoder.next_event().unwrap() else {
                break;
            };
            pairs.push((offset, event.to_owned()));
        }
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
        // Offset 1 points into the middle of the magic: an error or a
        // wrong-tag failure, never a panic, from the file and the map.
        let trace = FileTrace::open(&path).unwrap();
        assert!(trace.open_cursor().unwrap().event_at(1).is_err());
        let map = TraceMap::open(&path).unwrap();
        assert!(map.open_cursor().unwrap().event_at(1).is_err());
        assert!(map
            .open_cursor()
            .unwrap()
            .event_at(BINARY_MAGIC.len() as u64)
            .is_ok());
        std::fs::remove_file(&path).ok();
    }
}
