//! A binary trace held in memory as one byte slice.
//!
//! A [`TraceMap`] reads the whole trace file into a buffer once and is a
//! [`TraceSource`] in its own right: every pass decodes the same bytes in
//! place through a [`SliceDecoder`], and its cursor decodes a record at
//! its offset, with no read syscall and no copy. Its length is fixed when
//! it is read, so a file truncated or rewritten afterwards changes
//! nothing a check on it sees.
//!
//! It is the `rescheck serve` daemon's source for binary trace paths:
//! the daemon's trace cache reads a file once and shares the copy among
//! every job that checks it. One-shot checks read trace files from disk
//! through a [`crate::FileTrace`].

use crate::block::check_magic;
use crate::random::owned_record_at;
use crate::{EventRef, SliceDecoder, TraceCursor, TraceEvent, TraceSource};
use std::io;
use std::path::Path;

/// A binary resolve trace held in memory as one contiguous byte slice.
///
/// The header magic is validated before `open` returns, with the same
/// diagnostics as the streaming [`crate::BlockDecoder`]
/// (`UnexpectedEof` for files shorter than the magic — including
/// zero-length files — and `InvalidData` for a magic mismatch). Offsets
/// are byte positions in the file, as for a binary [`crate::FileTrace`].
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

    /// Always `false`: the map is a buffered copy of the file, never a
    /// memory mapping. Kept for callers that still record the backing.
    pub fn is_mmap(&self) -> bool {
        false
    }
}

impl TraceSource for TraceMap {
    fn visit_offsets(
        &self,
        visit: &mut dyn FnMut(u64, EventRef<'_>) -> io::Result<()>,
    ) -> io::Result<()> {
        let mut decoder = SliceDecoder::new(&self.bytes)?;
        loop {
            let offset = decoder.offset() as u64;
            let Some(event) = decoder.next_event()? else {
                return Ok(());
            };
            visit(offset, event)?;
        }
    }

    fn open_cursor(&self) -> io::Result<Box<dyn TraceCursor + '_>> {
        Ok(Box::new(MapCursor {
            data: &self.bytes,
            sources: Vec::new(),
        }))
    }

    fn encoded_size(&self) -> Option<u64> {
        Some(self.bytes.len() as u64)
    }
}

/// Positioned reads of a map: the record decoded in place.
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
