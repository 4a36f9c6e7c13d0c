//! Human-readable ASCII trace encoding.
//!
//! One event per line:
//!
//! ```text
//! r <id> <n> <src1> ... <srcn>   learned clause with n resolve sources
//! v <±var> <antecedent>          level-0 assignment (sign = value)
//! f <id>                         final conflicting clause
//! c ...                          comment (ignored)
//! ```
//!
//! The source list is count-prefixed rather than 0-terminated because
//! clause ID 0 (the first original clause) is a perfectly legal resolve
//! source.
//!
//! This is the human-readable format the paper used in its experiments
//! ("not very space-efficient in order to make the trace human readable",
//! §4); the binary sibling in [`crate::BinaryWriter`] provides the
//! predicted 2–3x compaction.

use crate::block::Record;
use crate::{EventRef, TraceEvent, TraceSink};
use rescheck_cnf::Lit;
use std::io::{self, BufRead, Write};

/// Writes trace events as ASCII lines.
///
/// Tracks the number of bytes written so harnesses can report trace sizes.
///
/// # Examples
///
/// ```
/// use rescheck_trace::{AsciiWriter, TraceSink};
///
/// let mut buf = Vec::new();
/// let mut w = AsciiWriter::new(&mut buf);
/// w.learned(2, &[0, 1])?;
/// w.final_conflict(2)?;
/// w.flush()?;
/// assert_eq!(String::from_utf8_lossy(&buf), "r 2 2 0 1\nf 2\n");
/// # Ok::<(), std::io::Error>(())
/// ```
#[derive(Debug)]
pub struct AsciiWriter<W> {
    writer: W,
    bytes: u64,
    events: u64,
    /// Reused line buffer: trace generation sits on the solver's hot
    /// path, so per-event allocations would inflate the Table 1 overhead.
    line: Vec<u8>,
}

impl<W: Write> AsciiWriter<W> {
    /// Creates a writer over any [`Write`] destination.
    ///
    /// Pass `&mut writer` if you need the destination back without
    /// consuming the `AsciiWriter`.
    pub fn new(writer: W) -> Self {
        AsciiWriter {
            writer,
            bytes: 0,
            events: 0,
            line: Vec::with_capacity(128),
        }
    }

    /// Number of bytes emitted so far.
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

    fn push_u64(&mut self, mut v: u64) {
        let mut digits = [0u8; 20];
        let mut i = digits.len();
        loop {
            i -= 1;
            digits[i] = b'0' + (v % 10) as u8;
            v /= 10;
            if v == 0 {
                break;
            }
        }
        self.line.extend_from_slice(&digits[i..]);
    }

    fn push_i64(&mut self, v: i64) {
        if v < 0 {
            self.line.push(b'-');
        }
        self.push_u64(v.unsigned_abs());
    }

    fn finish_line(&mut self) -> io::Result<()> {
        self.line.push(b'\n');
        self.writer.write_all(&self.line)?;
        self.bytes += self.line.len() as u64;
        self.events += 1;
        self.line.clear();
        Ok(())
    }
}

impl<W: Write> TraceSink for AsciiWriter<W> {
    fn learned(&mut self, id: u64, sources: &[u64]) -> io::Result<()> {
        self.line.extend_from_slice(b"r ");
        self.push_u64(id);
        self.line.push(b' ');
        self.push_u64(sources.len() as u64);
        for &s in sources {
            self.line.push(b' ');
            self.push_u64(s);
        }
        self.finish_line()
    }

    fn level_zero(&mut self, lit: Lit, antecedent: u64) -> io::Result<()> {
        self.line.extend_from_slice(b"v ");
        self.push_i64(lit.to_dimacs());
        self.line.push(b' ');
        self.push_u64(antecedent);
        self.finish_line()
    }

    fn final_conflict(&mut self, id: u64) -> io::Result<()> {
        self.line.extend_from_slice(b"f ");
        self.push_u64(id);
        self.finish_line()
    }

    fn flush(&mut self) -> io::Result<()> {
        self.writer.flush()
    }
}

/// Streams trace events from ASCII text.
///
/// [`AsciiReader::next_event`] lends each record as a borrowed
/// [`EventRef`] together with the byte offset its line starts at,
/// parsing into buffers the reader reuses; the `Iterator` impl yields
/// owned events. Diagnostics name the line of the malformed record.
///
/// # Examples
///
/// ```
/// use rescheck_trace::{AsciiReader, EventRef, TraceEvent};
///
/// let text = "c comment\nr 2 2 0 1\nf 2\n";
/// let mut reader = AsciiReader::new(std::io::Cursor::new(text));
/// assert_eq!(
///     reader.next_event()?,
///     Some((10, EventRef::Learned { id: 2, sources: &[0, 1] }))
/// );
/// let rest: Result<Vec<_>, _> = reader.collect();
/// assert_eq!(rest?, vec![TraceEvent::FinalConflict { id: 2 }]);
/// # Ok::<(), std::io::Error>(())
/// ```
#[derive(Debug)]
pub struct AsciiReader<R> {
    reader: R,
    line_no: usize,
    /// Bytes consumed so far: the offset of the next line.
    pos: u64,
    line: String,
    sources: Vec<u64>,
}

impl<R: BufRead> AsciiReader<R> {
    /// Creates a reader over buffered ASCII input.
    pub fn new(reader: R) -> Self {
        AsciiReader {
            reader,
            line_no: 0,
            pos: 0,
            line: String::new(),
            sources: Vec::new(),
        }
    }

    /// Parses the next record, skipping comments and blank lines, and
    /// returns it with the byte offset of its line, or `None` at the end
    /// of the input.
    ///
    /// The returned [`EventRef`] borrows the reader's buffers and is
    /// invalidated by the next call.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::InvalidData`] naming the line of a malformed
    /// record, and any error from the underlying reader.
    pub fn next_event(&mut self) -> io::Result<Option<(u64, EventRef<'_>)>> {
        loop {
            self.line.clear();
            self.line_no += 1;
            let start = self.pos;
            match self.reader.read_line(&mut self.line)? {
                0 => return Ok(None),
                n => self.pos += n as u64,
            }
            if let Some(record) = parse_line(&self.line, self.line_no, &mut self.sources)? {
                return Ok(Some((start, record.event(&self.sources))));
            }
        }
    }
}

/// Parses one line into a record, with a learned clause's sources left
/// in `sources`; comments and blank lines are `None`.
fn parse_line(line: &str, line_no: usize, sources: &mut Vec<u64>) -> io::Result<Option<Record>> {
    let bad = |msg: String| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("trace line {line_no}: {msg}"),
        )
    };
    let number = |token: Option<&str>, what: &str| -> io::Result<u64> {
        let t = token.ok_or_else(|| bad(format!("missing {what}")))?;
        t.parse().map_err(|_| bad(format!("invalid {what} {t:?}")))
    };
    let mut tokens = line.split_whitespace();
    let Some(tag) = tokens.next() else {
        return Ok(None);
    };
    let record = match tag {
        "c" => return Ok(None),
        "r" => {
            let id = number(tokens.next(), "clause id")?;
            let count = number(tokens.next(), "source count")? as usize;
            if count < 2 {
                return Err(bad(
                    "learned clause needs at least two resolve sources".into()
                ));
            }
            sources.clear();
            for _ in 0..count {
                sources.push(number(tokens.next(), "source id")?);
            }
            Record::Learned { id }
        }
        "v" => {
            let lit_tok = tokens
                .next()
                .ok_or_else(|| bad("missing literal in v record".into()))?;
            let d: i64 = lit_tok
                .parse()
                .map_err(|_| bad(format!("invalid literal {lit_tok:?}")))?;
            if d == 0 {
                return Err(bad("literal in v record must be non-zero".into()));
            }
            Record::LevelZero {
                lit: Lit::from_dimacs(d),
                antecedent: number(tokens.next(), "antecedent id")?,
            }
        }
        "f" => Record::Final {
            id: number(tokens.next(), "clause id")?,
        },
        other => return Err(bad(format!("unknown record tag {other:?}"))),
    };
    if tokens.next().is_some() {
        return Err(bad(format!("trailing tokens in {tag} record")));
    }
    Ok(Some(record))
}

impl<R: BufRead> Iterator for AsciiReader<R> {
    type Item = io::Result<TraceEvent>;

    fn next(&mut self) -> Option<Self::Item> {
        self.next_event()
            .map(|event| event.map(|(_, event)| event.to_owned()))
            .transpose()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(events: &[TraceEvent]) -> Vec<TraceEvent> {
        let mut buf = Vec::new();
        let mut w = AsciiWriter::new(&mut buf);
        for e in events {
            w.event(e).unwrap();
        }
        w.flush().unwrap();
        AsciiReader::new(io::Cursor::new(buf))
            .collect::<io::Result<Vec<_>>>()
            .unwrap()
    }

    #[test]
    fn roundtrip_all_event_kinds() {
        let events = vec![
            TraceEvent::Learned {
                id: 10,
                sources: vec![0, 3, 7],
            },
            TraceEvent::Learned {
                id: 11,
                sources: vec![10, 0],
            },
            TraceEvent::LevelZero {
                lit: Lit::from_dimacs(-5),
                antecedent: 11,
            },
            TraceEvent::LevelZero {
                lit: Lit::from_dimacs(2),
                antecedent: 0,
            },
            TraceEvent::FinalConflict { id: 3 },
        ];
        assert_eq!(roundtrip(&events), events);
    }

    #[test]
    fn clause_zero_as_source_roundtrips_anywhere() {
        let events = vec![TraceEvent::Learned {
            id: 5,
            sources: vec![0, 1, 0, 2],
        }];
        assert_eq!(roundtrip(&events), events);
    }

    #[test]
    fn comments_and_blank_lines_are_skipped() {
        let text = "c hello\n\nf 4\n";
        let events: Vec<_> = AsciiReader::new(io::Cursor::new(text))
            .collect::<io::Result<Vec<_>>>()
            .unwrap();
        assert_eq!(events, vec![TraceEvent::FinalConflict { id: 4 }]);
    }

    #[test]
    fn bytes_written_is_accurate() {
        let mut buf = Vec::new();
        let mut w = AsciiWriter::new(&mut buf);
        w.learned(2, &[0, 1]).unwrap();
        w.final_conflict(2).unwrap();
        assert_eq!(w.bytes_written(), buf.len() as u64);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let text = "f 1\nz 2\n";
        let mut r = AsciiReader::new(io::Cursor::new(text));
        assert!(r.next().unwrap().is_ok());
        let err = r.next().unwrap().unwrap_err();
        assert!(err.to_string().contains("line 2"));
    }

    #[test]
    fn malformed_records_are_rejected() {
        for bad in [
            "r 1 3 2 3\n",   // fewer sources than declared
            "r 1 1 0\n",     // too few sources
            "r x 2 0 1\n",   // bad id
            "r 1 2 0 1 9\n", // trailing token
            "v 0 3\n",       // zero literal
            "v 1\n",         // missing antecedent
            "v 1 2 3\n",     // trailing token
            "f\n",           // missing id
            "f 1 2\n",       // trailing token
            "q 1\n",         // unknown tag
            "r 1 2 y 0\n",   // bad source
            // A count far beyond the tokens present: sources grow per
            // token, so the count sizes no allocation.
            "r 1 99999999999999 0 1\n",
        ] {
            let result: io::Result<Vec<_>> = AsciiReader::new(io::Cursor::new(bad)).collect();
            assert!(result.is_err(), "should reject {bad:?}");
        }
    }
}
