//! Memory-mapped trace backing.
//!
//! Every strategy used to funnel the binary trace through a streaming
//! decoder (one thread, one read buffer), and the disk-backed
//! depth-first checker paid a positioned read per cursor fetch. A
//! [`TraceMap`] instead exposes the whole trace file as one `&[u8]`:
//! on unix via `mmap(2)` (with an `MADV_WILLNEED` hint), elsewhere —
//! or under the `RESCHECK_NO_MMAP` escape hatch — via a
//! read-whole-file buffer. Both backings present the identical
//! slice, so everything layered on top (slice decoding, offset
//! iteration, sharded parallel scans) behaves bit-identically across
//! backings; only the page-cache behaviour differs.
//!
//! # Safety invariants of the mapped backing
//!
//! The kernel keeps the mapping coherent with the file, which cuts both
//! ways:
//!
//! - **The file must not be truncated while mapped.** Reading a mapped
//!   page past a shrunken file raises `SIGBUS`, which no panic boundary
//!   can catch. rescheck only maps traces a one-shot check was handed as
//!   finished evidence; nothing in the workspace writes to a trace after
//!   opening it for checking. The `rescheck serve` daemon, whose trace
//!   files outlive any one job, never maps: its trace cache establishes
//!   the buffered backing.
//! - **Length is captured once, at map time.** [`TraceMap::open`] reads
//!   the file length via `fstat` and maps exactly that many bytes; a
//!   file that grows afterwards is ignored beyond the mapped prefix, so
//!   a check sees a consistent snapshot.
//! - **The magic is re-verified on the mapped bytes** (not on a prior
//!   buffered read), so decode always starts from a header the checker
//!   itself observed through the mapping.
//!
//! The map itself is shared read-only (`PROT_READ`, `MAP_PRIVATE`), so
//! handing `&[u8]` slices to decoder threads is safe: no writer exists.
//!
//! # Accounting
//!
//! A map is *resident state* the checker chose to hold, so strategies
//! that keep one alive charge [`TraceMap::accounted_bytes`] — the full
//! file length, identical for both backings — to their `MemoryMeter`.
//! That keeps the paper's Table-2-style peak-memory comparison honest:
//! the buffered fallback really does hold the bytes, and the mapped
//! backing may fault them all in.

#![allow(unsafe_code)]

use crate::binary::{TAG_FINAL, TAG_LEARNED, TAG_LEVEL_ZERO};
use crate::BINARY_MAGIC;
use std::fs::File;
use std::io::{self, Read};
use std::path::Path;
use std::sync::OnceLock;

/// Environment variable that disables the `mmap` backing (the buffered
/// read-whole-file backing is used instead). Any non-empty value other
/// than `0` disables mapping. Decode results are identical either way.
pub const NO_MMAP_ENV: &str = "RESCHECK_NO_MMAP";

/// Events per [`BlockIndex`] mark: the granularity at which a mapped
/// trace can be sharded across decode workers.
pub(crate) const MARK_STRIDE: u64 = 1024;

#[cfg(unix)]
mod sys {
    //! Hand-rolled `libc`-free bindings for the three calls the mapped
    //! backing needs. The constant values below are shared by Linux and
    //! the BSDs (including macOS) for these specific flags.
    pub use std::ffi::c_void;

    pub const PROT_READ: i32 = 1;
    pub const MAP_PRIVATE: i32 = 2;
    pub const MADV_WILLNEED: i32 = 3;

    pub fn map_failed() -> *mut c_void {
        usize::MAX as *mut c_void
    }

    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, len: usize) -> i32;
        pub fn madvise(addr: *mut c_void, len: usize, advice: i32) -> i32;
    }
}

enum Backing {
    /// A `PROT_READ`/`MAP_PRIVATE` mapping of the whole file.
    #[cfg(unix)]
    Mapped { ptr: *mut sys::c_void, len: usize },
    /// The whole file read into an owned buffer.
    Buffered(Vec<u8>),
}

// SAFETY: the mapped backing is read-only shared memory with no writer
// (PROT_READ | MAP_PRIVATE); the pointer is owned exclusively by this
// struct and only ever reborrowed as `&[u8]`.
unsafe impl Send for Backing {}
unsafe impl Sync for Backing {}

/// A binary resolve trace exposed as one contiguous byte slice.
///
/// See the [module docs](self) for the backing strategy and its safety
/// invariants. The header magic is validated against the mapped bytes
/// before `open` returns, with the same diagnostics as the streaming
/// [`crate::BlockDecoder`] (`UnexpectedEof` for files shorter than the
/// magic — including zero-length files — and `InvalidData` for a magic
/// mismatch).
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
    backing: Backing,
    index: OnceLock<Option<BlockIndex>>,
}

impl std::fmt::Debug for TraceMap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceMap")
            .field("len", &self.bytes().len())
            .field("mmap", &self.is_mmap())
            .finish()
    }
}

impl TraceMap {
    /// Maps `path`, falling back to the buffered backing off unix, when
    /// [`NO_MMAP_ENV`] is set, or when the `mmap` syscall fails.
    ///
    /// # Errors
    ///
    /// Any I/O error opening or reading the file, plus the magic/length
    /// validation errors described on [`TraceMap`].
    pub fn open(path: &Path) -> io::Result<TraceMap> {
        Self::open_with(path, !no_mmap_requested())
    }

    /// Opens `path` with the buffered backing unconditionally.
    ///
    /// # Errors
    ///
    /// As for [`TraceMap::open`].
    pub fn open_buffered(path: &Path) -> io::Result<TraceMap> {
        Self::open_with(path, false)
    }

    fn open_with(path: &Path, want_mmap: bool) -> io::Result<TraceMap> {
        let mut file = File::open(path)?;
        let len = file.metadata()?.len();
        if len < BINARY_MAGIC.len() as u64 {
            // Zero-length and shorter-than-magic files fail exactly like
            // the streaming decoder, before any mapping is attempted.
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "failed to fill whole buffer",
            ));
        }
        let Ok(len) = usize::try_from(len) else {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "trace file too large to map on this platform",
            ));
        };
        let backing = Self::establish_backing(&mut file, len, want_mmap)?;
        let map = TraceMap {
            backing,
            index: OnceLock::new(),
        };
        if map.bytes()[..BINARY_MAGIC.len()] != BINARY_MAGIC {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "not a rescheck binary trace (bad magic)",
            ));
        }
        Ok(map)
    }

    #[cfg(unix)]
    fn establish_backing(file: &mut File, len: usize, want_mmap: bool) -> io::Result<Backing> {
        use std::os::unix::io::AsRawFd;
        if want_mmap {
            // SAFETY: fd is open for reading, len is the fstat'd file
            // length (> 0), and a PROT_READ | MAP_PRIVATE mapping has no
            // aliasing writer. The pointer is owned by the returned
            // Backing and unmapped exactly once, in Drop.
            let ptr = unsafe {
                sys::mmap(
                    std::ptr::null_mut(),
                    len,
                    sys::PROT_READ,
                    sys::MAP_PRIVATE,
                    file.as_raw_fd(),
                    0,
                )
            };
            if ptr != sys::map_failed() {
                // Advice is best-effort; failure changes nothing. Only
                // WILLNEED: checkers read the map at least twice (count
                // pass, then rebuild pass) and the disk-depth-first
                // cursor jumps around in it, so SEQUENTIAL's drop-behind
                // would re-fault pages the next pass needs.
                // SAFETY: ptr/len delimit the live mapping created above.
                unsafe {
                    sys::madvise(ptr, len, sys::MADV_WILLNEED);
                }
                return Ok(Backing::Mapped { ptr, len });
            }
            // Fall through: an mmap failure (e.g. a pseudo-file that
            // does not support mapping) degrades to the buffered path.
        }
        Self::read_backing(file, len)
    }

    #[cfg(not(unix))]
    fn establish_backing(file: &mut File, len: usize, _want_mmap: bool) -> io::Result<Backing> {
        Self::read_backing(file, len)
    }

    fn read_backing(file: &mut File, len: usize) -> io::Result<Backing> {
        let mut buf = Vec::with_capacity(len);
        file.read_to_end(&mut buf)?;
        // A file that shrank between fstat and read would desynchronize
        // the accounted length from the decoded bytes; treat it as the
        // truncation it is.
        if buf.len() < BINARY_MAGIC.len() {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "failed to fill whole buffer",
            ));
        }
        Ok(Backing::Buffered(buf))
    }

    /// The mapped (or buffered) trace bytes, magic included.
    pub fn bytes(&self) -> &[u8] {
        match &self.backing {
            #[cfg(unix)]
            Backing::Mapped { ptr, len } => {
                // SAFETY: the mapping is live for the lifetime of self
                // (unmapped only in Drop), read-only, and `len` bytes
                // long.
                unsafe { std::slice::from_raw_parts(*ptr as *const u8, *len) }
            }
            Backing::Buffered(buf) => buf,
        }
    }

    /// Bytes to charge against a `MemoryMeter` while the map is held:
    /// the full file length, identical for both backings.
    pub fn accounted_bytes(&self) -> u64 {
        self.bytes().len() as u64
    }

    /// Whether the map is backed by `mmap` (false: buffered fallback).
    pub fn is_mmap(&self) -> bool {
        match &self.backing {
            #[cfg(unix)]
            Backing::Mapped { .. } => true,
            Backing::Buffered(_) => false,
        }
    }

    /// The structural block index of this trace, built on first use.
    ///
    /// `None` means the skip-scan found a structural problem (truncated
    /// record, bad tag, varint overflow, implausible counts): callers
    /// must then fall back to the streaming sequential decode path,
    /// which reproduces the exact sequential error semantics. A `Some`
    /// index certifies the byte stream is structurally clean end to
    /// end, which is what makes sharded parallel decoding safe.
    pub fn block_index(&self) -> Option<&BlockIndex> {
        self.index
            .get_or_init(|| BlockIndex::scan(self.bytes()))
            .as_ref()
    }
}

impl Drop for TraceMap {
    fn drop(&mut self) {
        #[cfg(unix)]
        if let Backing::Mapped { ptr, len } = self.backing {
            // SAFETY: ptr/len delimit the mapping created in open_with;
            // no slice borrowed from it can outlive self.
            unsafe {
                sys::munmap(ptr, len);
            }
        }
    }
}

/// Returns whether [`NO_MMAP_ENV`] currently disables mapping.
pub fn no_mmap_requested() -> bool {
    std::env::var_os(NO_MMAP_ENV).is_some_and(|v| !v.is_empty() && v != *"0")
}

/// A mark every [`MARK_STRIDE`] events: a byte offset at which a record
/// provably starts, with the index of that record.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct BlockMark {
    offset: usize,
    event_idx: u64,
}

/// One worker's contiguous slice of a mapped trace: a byte range that
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

/// A structural index over a mapped binary trace.
///
/// Built by one sequential *skip-scan* that validates every record's
/// framing — tag, varint well-formedness, source-count plausibility,
/// literal-code range, no mid-record truncation — without materializing
/// any event, and drops a [`BlockMark`] every [`MARK_STRIDE`] events.
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
    /// Skip-scans `data` (which must start with the magic); `None` on
    /// any structural fault.
    fn scan(data: &[u8]) -> Option<BlockIndex> {
        if data.len() < BINARY_MAGIC.len() || data[..BINARY_MAGIC.len()] != BINARY_MAGIC {
            return None;
        }
        let mut pos = BINARY_MAGIC.len();
        let mut events: u64 = 0;
        let mut learned: u64 = 0;
        let mut marks = Vec::new();
        while pos < data.len() {
            if events.is_multiple_of(MARK_STRIDE) {
                marks.push(BlockMark {
                    offset: pos,
                    event_idx: events,
                });
            }
            let tag = data[pos];
            pos += 1;
            match tag {
                TAG_LEARNED => {
                    let _id = scan_varint(data, &mut pos)?;
                    let count = scan_varint(data, &mut pos)?;
                    if !(2..=1 << 32).contains(&count) {
                        return None;
                    }
                    for _ in 0..count {
                        scan_varint(data, &mut pos)?;
                    }
                    learned += 1;
                }
                TAG_LEVEL_ZERO => {
                    let code = scan_varint(data, &mut pos)?;
                    if code > u32::MAX as u64 {
                        return None;
                    }
                    scan_varint(data, &mut pos)?;
                }
                TAG_FINAL => {
                    scan_varint(data, &mut pos)?;
                }
                _ => return None,
            }
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

/// Scans one LEB128 varint at `*pos`, advancing it; `None` on overflow
/// or truncation (same conditions `crate::varint::read_u64` rejects).
fn scan_varint(data: &[u8], pos: &mut usize) -> Option<u64> {
    let mut value: u64 = 0;
    let mut shift: u32 = 0;
    loop {
        let byte = *data.get(*pos)?;
        *pos += 1;
        if shift == 63 && byte > 1 {
            return None;
        }
        value |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Some(value);
        }
        shift += 7;
        if shift > 63 {
            return None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BinaryWriter, SliceDecoder, TraceSink};
    use rescheck_cnf::SplitMix64;
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
    fn mapped_and_buffered_backings_expose_identical_bytes() {
        let bytes = seeded_trace(1, 300);
        let path = write_temp("parity", &bytes);
        let mapped = TraceMap::open(&path).unwrap();
        let buffered = TraceMap::open_buffered(&path).unwrap();
        assert_eq!(mapped.bytes(), bytes.as_slice());
        assert_eq!(buffered.bytes(), bytes.as_slice());
        assert!(!buffered.is_mmap());
        assert_eq!(mapped.accounted_bytes(), bytes.len() as u64);
        assert_eq!(buffered.accounted_bytes(), bytes.len() as u64);
        #[cfg(unix)]
        assert!(mapped.is_mmap() || no_mmap_requested());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn zero_length_and_truncated_headers_are_rejected_without_panic() {
        for (name, contents) in [("empty", &b""[..]), ("shorty", &b"RT"[..])] {
            let path = write_temp(name, contents);
            for map in [TraceMap::open(&path), TraceMap::open_buffered(&path)] {
                let err = map.unwrap_err();
                assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "{name}");
                assert_eq!(err.to_string(), "failed to fill whole buffer", "{name}");
            }
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn bad_magic_is_rejected_on_the_mapped_bytes() {
        let path = write_temp("magic", b"NOPE-this-is-not-a-trace");
        for map in [TraceMap::open(&path), TraceMap::open_buffered(&path)] {
            let err = map.unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            assert_eq!(err.to_string(), "not a rescheck binary trace (bad magic)");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn block_index_counts_events_and_learned() {
        let bytes = seeded_trace(2, 2_500);
        let path = write_temp("index", &bytes);
        let map = TraceMap::open(&path).unwrap();
        let index = map.block_index().expect("clean trace must index");
        assert_eq!(index.events(), 2_500);
        let mut decoder = SliceDecoder::new(map.bytes()).unwrap();
        let mut learned = 0;
        while let Some(event) = decoder.next_event().unwrap() {
            if matches!(event, crate::EventRef::Learned { .. }) {
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
