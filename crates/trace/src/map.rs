//! A binary trace held in memory as one byte slice.
//!
//! A [`TraceMap`] reads the whole trace file into a buffer once. Every
//! pass over it — slice decoding, offset iteration and cursor fetches by
//! offset — then decodes the same bytes in place, with no read syscall
//! and no copy. Its length is fixed when
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
use std::io;
use std::path::Path;

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
        Ok(TraceMap { bytes })
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
}

#[cfg(test)]
mod tests {
    use super::*;
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
}
