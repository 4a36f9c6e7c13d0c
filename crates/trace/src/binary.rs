//! Compact binary trace encoding.
//!
//! The paper notes (§4) that the ASCII trace format trades space for
//! readability and that a binary encoding would compact traces 2–3x and
//! speed up checking, since "a significant amount of run time for the
//! checker is spent on parsing and translating the trace files". This
//! module is that encoding: a 4-byte magic followed by tagged records
//! whose integers are LEB128 varints (see [`crate::varint`]).
//!
//! ```text
//! magic  "RTB1"
//! 0x01   learned:   id, source-count, sources...
//! 0x02   level-0:   literal code, antecedent id
//! 0x03   final:     id
//! ```

use crate::{varint, TraceEvent, TraceSink};
use rescheck_cnf::Lit;
use std::io::{self, BufRead, Write};

/// The 4-byte magic that starts every binary trace.
pub const BINARY_MAGIC: [u8; 4] = *b"RTB1";

pub(crate) const TAG_LEARNED: u8 = 0x01;
pub(crate) const TAG_LEVEL_ZERO: u8 = 0x02;
pub(crate) const TAG_FINAL: u8 = 0x03;

/// Writes trace events in the binary format.
///
/// # Examples
///
/// ```
/// use rescheck_trace::{read_all, BinaryWriter, TraceFormat, TraceSink};
///
/// let mut buf = Vec::new();
/// let mut w = BinaryWriter::new(&mut buf)?;
/// w.learned(2, &[0, 1])?;
/// w.final_conflict(2)?;
/// w.flush()?;
///
/// let events = read_all(&buf[..], TraceFormat::Binary)?;
/// assert_eq!(events.len(), 2);
/// # Ok::<(), std::io::Error>(())
/// ```
#[derive(Debug)]
pub struct BinaryWriter<W> {
    writer: W,
    bytes: u64,
    events: u64,
}

impl<W: Write> BinaryWriter<W> {
    /// Creates a writer and emits the magic header.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from writing the header.
    pub fn new(mut writer: W) -> io::Result<Self> {
        writer.write_all(&BINARY_MAGIC)?;
        Ok(BinaryWriter {
            writer,
            bytes: BINARY_MAGIC.len() as u64,
            events: 0,
        })
    }

    /// Number of bytes emitted so far (including the magic).
    pub fn bytes_written(&self) -> u64 {
        self.bytes
    }

    /// Number of events encoded so far.
    pub fn events_written(&self) -> u64 {
        self.events
    }

    /// Returns the underlying writer.
    pub fn into_inner(self) -> W {
        self.writer
    }

    fn put_u64(&mut self, v: u64) -> io::Result<()> {
        varint::write_u64(&mut self.writer, v)?;
        self.bytes += varint::encoded_len(v) as u64;
        Ok(())
    }

    fn put_tag(&mut self, tag: u8) -> io::Result<()> {
        self.writer.write_all(&[tag])?;
        self.bytes += 1;
        self.events += 1;
        Ok(())
    }
}

impl<W: Write> TraceSink for BinaryWriter<W> {
    fn learned(&mut self, id: u64, sources: &[u64]) -> io::Result<()> {
        self.put_tag(TAG_LEARNED)?;
        self.put_u64(id)?;
        self.put_u64(sources.len() as u64)?;
        for &s in sources {
            self.put_u64(s)?;
        }
        Ok(())
    }

    fn level_zero(&mut self, lit: Lit, antecedent: u64) -> io::Result<()> {
        self.put_tag(TAG_LEVEL_ZERO)?;
        self.put_u64(lit.code() as u64)?;
        self.put_u64(antecedent)
    }

    fn final_conflict(&mut self, id: u64) -> io::Result<()> {
        self.put_tag(TAG_FINAL)?;
        self.put_u64(id)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.writer.flush()
    }
}

/// Streams trace events from binary input, one `read_exact` per tag
/// and varint byte.
///
/// This is the reference decoder: written independently of the
/// crate's record decoder, it is what the differential tests and
/// `benches/io.rs` hold [`crate::SliceDecoder`], [`crate::BlockDecoder`]
/// and the random-access paths to. No shipped path reads through it.
#[derive(Debug)]
pub struct BinaryReader<R> {
    reader: R,
}

impl<R: BufRead> BinaryReader<R> {
    /// Creates a reader, consuming and validating the magic header.
    ///
    /// # Errors
    ///
    /// Returns [`io::ErrorKind::InvalidData`] if the magic does not match.
    pub fn new(mut reader: R) -> io::Result<Self> {
        let mut magic = [0u8; 4];
        reader.read_exact(&mut magic)?;
        if magic != BINARY_MAGIC {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "not a rescheck binary trace (bad magic)",
            ));
        }
        Ok(BinaryReader { reader })
    }

    fn read_event(&mut self) -> io::Result<Option<TraceEvent>> {
        let mut tag = [0u8];
        match self.reader.read_exact(&mut tag) {
            Ok(()) => {}
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
            Err(e) => return Err(e),
        }
        match tag[0] {
            TAG_LEARNED => {
                let id = varint::read_u64(&mut self.reader)?;
                let count = varint::read_u64(&mut self.reader)?;
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
                let mut sources = Vec::with_capacity(count as usize);
                for _ in 0..count {
                    sources.push(varint::read_u64(&mut self.reader)?);
                }
                Ok(Some(TraceEvent::Learned { id, sources }))
            }
            TAG_LEVEL_ZERO => {
                let code = varint::read_u64(&mut self.reader)?;
                if code > u32::MAX as u64 {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        "literal code out of range",
                    ));
                }
                let antecedent = varint::read_u64(&mut self.reader)?;
                Ok(Some(TraceEvent::LevelZero {
                    lit: Lit::from_code(code as usize),
                    antecedent,
                }))
            }
            TAG_FINAL => {
                let id = varint::read_u64(&mut self.reader)?;
                Ok(Some(TraceEvent::FinalConflict { id }))
            }
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unknown binary trace tag 0x{other:02x}"),
            )),
        }
    }
}

impl<R: BufRead> Iterator for BinaryReader<R> {
    type Item = io::Result<TraceEvent>;

    fn next(&mut self) -> Option<Self::Item> {
        self.read_event().transpose()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AsciiWriter;

    fn sample_events() -> Vec<TraceEvent> {
        vec![
            TraceEvent::Learned {
                id: 1000,
                sources: vec![0, 3, 700, 0],
            },
            TraceEvent::LevelZero {
                lit: Lit::from_dimacs(-52),
                antecedent: 1000,
            },
            TraceEvent::LevelZero {
                lit: Lit::from_dimacs(9),
                antecedent: 0,
            },
            TraceEvent::FinalConflict { id: 42 },
        ]
    }

    #[test]
    fn roundtrip_all_event_kinds() {
        let events = sample_events();
        let mut buf = Vec::new();
        let mut w = BinaryWriter::new(&mut buf).unwrap();
        for e in &events {
            w.event(e).unwrap();
        }
        assert_eq!(w.bytes_written(), buf.len() as u64);
        let got: Vec<_> = BinaryReader::new(io::Cursor::new(buf))
            .unwrap()
            .collect::<io::Result<Vec<_>>>()
            .unwrap();
        assert_eq!(got, events);
    }

    #[test]
    fn binary_is_smaller_than_ascii() {
        // The compaction claim from the paper's §4 should hold on a
        // realistic-looking stream of events.
        let mut events = Vec::new();
        for i in 0..1000u64 {
            events.push(TraceEvent::Learned {
                id: 10_000 + i,
                sources: vec![i, i + 1, 10_000 + i / 2, i * 3 % 9999],
            });
        }
        let mut ascii = Vec::new();
        let mut aw = AsciiWriter::new(&mut ascii);
        for e in &events {
            aw.event(e).unwrap();
        }
        let mut bin = Vec::new();
        let mut bw = BinaryWriter::new(&mut bin).unwrap();
        for e in &events {
            bw.event(e).unwrap();
        }
        assert!(
            (bin.len() as f64) < ascii.len() as f64 / 2.0,
            "binary {} vs ascii {}",
            bin.len(),
            ascii.len()
        );
    }

    #[test]
    fn bad_magic_is_rejected() {
        let err = BinaryReader::new(io::Cursor::new(b"NOPE".to_vec())).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn truncated_stream_is_an_error() {
        let mut buf = Vec::new();
        let mut w = BinaryWriter::new(&mut buf).unwrap();
        w.learned(7, &[1, 2, 3]).unwrap();
        buf.truncate(buf.len() - 1);
        let result: io::Result<Vec<_>> = BinaryReader::new(io::Cursor::new(buf)).unwrap().collect();
        assert!(result.is_err());
    }

    #[test]
    fn unknown_tag_is_rejected() {
        let mut buf = BINARY_MAGIC.to_vec();
        buf.push(0x7f);
        let result: io::Result<Vec<_>> = BinaryReader::new(io::Cursor::new(buf)).unwrap().collect();
        assert!(result.is_err());
    }

    #[test]
    fn undersized_source_count_is_rejected() {
        let mut buf = BINARY_MAGIC.to_vec();
        buf.push(TAG_LEARNED);
        varint::write_u64(&mut buf, 9).unwrap(); // id
        varint::write_u64(&mut buf, 1).unwrap(); // count < 2
        varint::write_u64(&mut buf, 0).unwrap();
        let result: io::Result<Vec<_>> = BinaryReader::new(io::Cursor::new(buf)).unwrap().collect();
        assert!(result.is_err());
    }

    #[test]
    fn empty_trace_roundtrips() {
        let mut buf = Vec::new();
        let _w = BinaryWriter::new(&mut buf).unwrap();
        let got: Vec<_> = BinaryReader::new(io::Cursor::new(buf))
            .unwrap()
            .collect::<io::Result<Vec<_>>>()
            .unwrap();
        assert!(got.is_empty());
    }
}
