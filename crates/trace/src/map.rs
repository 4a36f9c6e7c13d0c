//! A binary trace held in memory as one byte slice.
//!
//! A [`TraceMap`] reads the whole trace file into a buffer once. Every
//! pass over it — slice decoding, offset iteration, cursor fetches by
//! offset and the sharded parallel scans — then decodes the same bytes
//! in place, with no read syscall and no copy. Its length is fixed when
//! it is read, so a file truncated or rewritten afterwards changes
//! nothing the check sees.
//!
//! # Accounting
//!
//! A map is *resident state* the checker chose to hold, so strategies
//! that keep one alive charge [`TraceMap::accounted_bytes`] — the full
//! file length — to their `MemoryMeter`. That keeps the paper's
//! Table-2-style peak-memory comparison honest: the map really does
//! hold the bytes.

use crate::block::check_magic;
use crate::{EventRef, SliceDecoder};
use std::io;
use std::path::Path;
use std::sync::OnceLock;

/// Events per [`BlockIndex`] mark: the granularity at which a trace map
/// can be sharded across decode workers.
pub(crate) const MARK_STRIDE: u64 = 1024;

/// A binary resolve trace held in memory as one contiguous byte slice.
///
/// The header magic is validated before `open` returns, with the same
/// diagnostics as the streaming [`crate::BlockDecoder`]
/// (`UnexpectedEof` for files shorter than the magic — including
/// zero-length files — and `InvalidData` for a magic mismatch).
///
/// # Examples
///
/// ```no_run
/// use rescheck_trace::{SliceDecoder, TraceMap};
///
/// let map = TraceMap::open("proof.rtb".as_ref())?;
/// let mut decoder = SliceDecoder::new(map.bytes())?;
/// while let Some(event) = decoder.next_event()? {
///     let _ = event;
/// }
/// # Ok::<(), std::io::Error>(())
/// ```
pub struct TraceMap {
    bytes: Vec<u8>,
    index: OnceLock<Option<BlockIndex>>,
}

impl std::fmt::Debug for TraceMap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceMap")
            .field("len", &self.bytes.len())
            .finish()
    }
}

impl TraceMap {
    /// Reads the whole of `path` into memory.
    ///
    /// # Errors
    ///
    /// Any I/O error opening or reading the file, plus the magic/length
    /// validation errors described on [`TraceMap`].
    pub fn open(path: &Path) -> io::Result<TraceMap> {
        let bytes = std::fs::read(path)?;
        check_magic(&bytes)?;
        Ok(TraceMap {
            bytes,
            index: OnceLock::new(),
        })
    }

    /// The trace bytes, magic included.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Bytes to charge against a `MemoryMeter` while the map is held:
    /// the full file length.
    pub fn accounted_bytes(&self) -> u64 {
        self.bytes.len() as u64
    }

    /// Always `false`: the map is a buffered copy of the file, never a
    /// memory mapping. Kept for callers that still record the backing.
    pub fn is_mmap(&self) -> bool {
        false
    }

    /// The structural block index of this trace, built on first use.
    ///
    /// `None` means the scan hit a malformed record (truncated record,
    /// bad tag, varint overflow, implausible counts): callers must then
    /// fall back to the sequential decode path, which reproduces the
    /// exact sequential error semantics. A `Some` index certifies the
    /// byte stream decodes cleanly end to end, which is what makes
    /// sharded parallel decoding safe.
    pub fn block_index(&self) -> Option<&BlockIndex> {
        self.index
            .get_or_init(|| BlockIndex::scan(&self.bytes))
            .as_ref()
    }
}

/// A mark every [`MARK_STRIDE`] events: a byte offset at which a record
/// provably starts, with the index of that record.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct BlockMark {
    offset: usize,
    event_idx: u64,
}

/// One worker's contiguous slice of a trace map: a byte range that
/// starts and ends on record boundaries, plus the global index of its
/// first event (for the deterministic trace-order merge).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardRange {
    /// Byte offset of the range's first record.
    pub start: usize,
    /// Byte offset one past the range's last record.
    pub end: usize,
    /// Global (trace-order) index of the range's first event.
    pub first_event: u64,
}

/// A structural index over a binary trace map.
///
/// Built by one sequential decode through the crate's record decoder,
/// which validates every record — tag, varint well-formedness,
/// source-count plausibility, literal-code range, no mid-record
/// truncation — and marks a record boundary every 1024 events.
/// The marks let [`BlockIndex::shard_ranges`] cut the byte stream into
/// disjoint ranges that each start on a record boundary, so any number
/// of workers can decode in parallel and a trace-order merge of their
/// outputs is bit-identical to a sequential decode.
#[derive(Clone, Debug)]
pub struct BlockIndex {
    marks: Vec<BlockMark>,
    events: u64,
    learned: u64,
    total_len: usize,
}

impl BlockIndex {
    /// Decodes all of `data` (which must start with the magic), marking
    /// a record boundary every [`MARK_STRIDE`] events; `None` on any
    /// malformed record.
    fn scan(data: &[u8]) -> Option<BlockIndex> {
        let mut decoder = SliceDecoder::new(data).ok()?;
        let mut events: u64 = 0;
        let mut learned: u64 = 0;
        let mut marks = Vec::new();
        loop {
            let offset = decoder.offset();
            let Some(event) = decoder.next_event().ok()? else {
                break;
            };
            if events.is_multiple_of(MARK_STRIDE) {
                marks.push(BlockMark {
                    offset,
                    event_idx: events,
                });
            }
            learned += u64::from(matches!(event, EventRef::Learned { .. }));
            events += 1;
        }
        Some(BlockIndex {
            marks,
            events,
            learned,
            total_len: data.len(),
        })
    }

    /// Total number of events in the trace.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Number of learned-clause events in the trace (the exact value the
    /// small-trace parallel fallback wants, replacing the encoded-size
    /// estimate).
    pub fn learned(&self) -> u64 {
        self.learned
    }

    /// Cuts the trace into at most `shards` disjoint, contiguous,
    /// record-aligned byte ranges of near-equal event counts, in trace
    /// order. Fewer ranges come back when the trace has too few marks
    /// to split further; at least one range is returned for a non-empty
    /// trace, and an empty ranges list for an event-free trace.
    pub fn shard_ranges(&self, shards: usize) -> Vec<ShardRange> {
        if self.events == 0 {
            return Vec::new();
        }
        let shards = shards.max(1) as u64;
        let mut ranges = Vec::new();
        let mark_at = |event_target: u64| -> BlockMark {
            // Largest mark at or below the target; marks are sorted by
            // event index so a binary search would also do, but the
            // mark list is tiny relative to the trace.
            let i = self
                .marks
                .partition_point(|m| m.event_idx <= event_target)
                .saturating_sub(1);
            self.marks[i]
        };
        let mut prev = mark_at(0);
        for s in 1..=shards {
            let boundary = if s == shards {
                BlockMark {
                    offset: self.total_len,
                    event_idx: self.events,
                }
            } else {
                mark_at(self.events * s / shards)
            };
            if boundary.offset > prev.offset {
                ranges.push(ShardRange {
                    start: prev.offset,
                    end: boundary.offset,
                    first_event: prev.event_idx,
                });
                prev = boundary;
            }
        }
        ranges
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BinaryWriter, TraceSink, BINARY_MAGIC};
    use rescheck_cnf::SplitMix64;
    use std::fs::File;
    use std::io::Write;

    fn temp_path(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("rescheck-map-{}-{name}", std::process::id()));
        p
    }

    fn write_temp(name: &str, bytes: &[u8]) -> std::path::PathBuf {
        let path = temp_path(name);
        let mut f = File::create(&path).unwrap();
        f.write_all(bytes).unwrap();
        path
    }

    fn seeded_trace(seed: u64, count: usize) -> Vec<u8> {
        let mut rng = SplitMix64::new(seed);
        let mut buf = Vec::new();
        let mut w = BinaryWriter::new(&mut buf).unwrap();
        for i in 0..count {
            match rng.next_u64() % 4 {
                0 => {
                    let var = (rng.next_u64() % 500 + 1) as i64;
                    w.level_zero(
                        rescheck_cnf::Lit::from_dimacs(var),
                        rng.next_u64() % (1 << 40),
                    )
                    .unwrap();
                }
                1 => w.final_conflict(rng.next_u64() % (1 << 50)).unwrap(),
                _ => {
                    let len = 2 + (rng.next_u64() % 20) as usize;
                    let sources: Vec<u64> = (0..len).map(|_| rng.next_u64() % (1 << 45)).collect();
                    w.learned(1_000 + i as u64, &sources).unwrap();
                }
            }
        }
        buf
    }

    #[test]
    fn zero_length_and_truncated_headers_are_rejected_without_panic() {
        for (name, contents) in [("empty", &b""[..]), ("shorty", &b"RT"[..])] {
            let path = write_temp(name, contents);
            let err = TraceMap::open(&path).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "{name}");
            assert_eq!(err.to_string(), "failed to fill whole buffer", "{name}");
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn bad_magic_is_rejected_on_the_mapped_bytes() {
        let path = write_temp("magic", b"NOPE-this-is-not-a-trace");
        let err = TraceMap::open(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert_eq!(err.to_string(), "not a rescheck binary trace (bad magic)");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn block_index_counts_events_and_learned() {
        let bytes = seeded_trace(2, 2_500);
        let path = write_temp("index", &bytes);
        let map = TraceMap::open(&path).unwrap();
        assert_eq!(map.bytes(), bytes.as_slice());
        assert_eq!(map.accounted_bytes(), bytes.len() as u64);
        assert!(!map.is_mmap());
        let index = map.block_index().expect("clean trace must index");
        assert_eq!(index.events(), 2_500);
        let mut decoder = SliceDecoder::new(map.bytes()).unwrap();
        let mut learned = 0;
        while let Some(event) = decoder.next_event().unwrap() {
            if matches!(event, EventRef::Learned { .. }) {
                learned += 1;
            }
        }
        assert_eq!(index.learned(), learned);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_traces_yield_no_index() {
        let mut bytes = seeded_trace(3, 100);
        bytes.push(0x7f); // unknown tag tail
        let path = write_temp("corrupt", &bytes);
        let map = TraceMap::open(&path).unwrap();
        assert!(map.block_index().is_none());
        std::fs::remove_file(&path).ok();

        let mut truncated = seeded_trace(3, 100);
        truncated.truncate(truncated.len() - 1);
        let path = write_temp("truncated", &truncated);
        let map = TraceMap::open(&path).unwrap();
        assert!(map.block_index().is_none());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn shard_ranges_cover_the_trace_without_overlap() {
        let bytes = seeded_trace(4, 5_000);
        let path = write_temp("shards", &bytes);
        let map = TraceMap::open(&path).unwrap();
        let index = map.block_index().unwrap();
        for shards in [1, 2, 3, 4, 8, 100] {
            let ranges = index.shard_ranges(shards);
            assert!(!ranges.is_empty());
            assert!(ranges.len() <= shards.max(1));
            assert_eq!(ranges[0].start, BINARY_MAGIC.len());
            assert_eq!(ranges[0].first_event, 0);
            assert_eq!(ranges.last().unwrap().end, bytes.len());
            for pair in ranges.windows(2) {
                assert_eq!(pair[0].end, pair[1].start, "{shards} shards");
                assert!(pair[0].first_event < pair[1].first_event);
            }
            // Decoding every range and concatenating reproduces the
            // sequential decode (the merge rule the checkers rely on).
            let sequential: Vec<_> = {
                let mut d = SliceDecoder::new(map.bytes()).unwrap();
                let mut all = Vec::new();
                while let Some(e) = d.next_event().unwrap() {
                    all.push(e.to_owned());
                }
                all
            };
            let mut sharded = Vec::new();
            for range in &ranges {
                let mut d = SliceDecoder::resume_at(map.bytes(), range.start);
                assert_eq!(sharded.len() as u64, range.first_event);
                while d.offset() < range.end {
                    let e = d.next_event().unwrap().expect("range ends on boundary");
                    sharded.push(e.to_owned());
                }
                assert_eq!(d.offset(), range.end);
            }
            assert_eq!(sharded, sequential);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn shard_ranges_of_tiny_traces_collapse() {
        let bytes = seeded_trace(5, 3);
        let path = write_temp("tiny", &bytes);
        let map = TraceMap::open(&path).unwrap();
        let index = map.block_index().unwrap();
        let ranges = index.shard_ranges(8);
        // Only one mark exists below MARK_STRIDE events.
        assert_eq!(ranges.len(), 1);
        assert_eq!(ranges[0].start, BINARY_MAGIC.len());
        assert_eq!(ranges[0].end, bytes.len());
        std::fs::remove_file(&path).ok();
    }
}
