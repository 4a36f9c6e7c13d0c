//! The binary trace decoder: one record decode over a byte slice, and
//! the two readers built on it.
//!
//! [`decode_record`] is the only code in the crate's shipped paths that
//! turns binary trace bytes into events. [`SliceDecoder`] runs it over a
//! trace held in memory (a [`crate::TraceMap`], a record fetched by
//! offset). [`BlockDecoder`] runs it over one reused
//! [`READ_BUFFER_BYTES`]-sized block refilled from a reader: when the
//! block ends mid-record it refills (growing the block for a record
//! longer than it) and decodes that record again. Source lists land in
//! a reused scratch vector handed out as a borrowed [`EventRef`], so
//! steady-state decoding performs no heap allocation at all.
//!
//! [`crate::BinaryReader`] is the independent reference: the
//! differential tests below hold every reader to its events and its
//! `InvalidData` / `UnexpectedEof` diagnostics.
//!
//! [`READ_BUFFER_BYTES`]: rescheck_cnf::READ_BUFFER_BYTES

use crate::binary::{TAG_FINAL, TAG_LEARNED, TAG_LEVEL_ZERO};
use crate::{EventRef, BINARY_MAGIC};
use rescheck_cnf::{Lit, READ_BUFFER_BYTES};
use std::io::{self, Read};

/// One decoded record, minus a learned clause's source list, which
/// [`decode_record`] leaves in the caller's scratch vector. It borrows
/// nothing, so a reader can decide to refill before lending the event.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Record {
    Learned { id: u64 },
    LevelZero { lit: Lit, antecedent: u64 },
    Final { id: u64 },
}

impl Record {
    /// The record as an event, with `sources` as a learned clause's list.
    pub(crate) fn event(self, sources: &[u64]) -> EventRef<'_> {
        match self {
            Record::Learned { id } => EventRef::Learned { id, sources },
            Record::LevelZero { lit, antecedent } => EventRef::LevelZero { lit, antecedent },
            Record::Final { id } => EventRef::FinalConflict { id },
        }
    }
}

/// Decodes the record starting at `data[*pos]`, advancing `*pos` past
/// it; a learned clause's sources replace the contents of `sources`.
///
/// `Ok(None)` means `*pos` is at (or past) the end of `data`. On an
/// error `*pos` stays at the record's start, and a record cut short by
/// the end of `data` is [`io::ErrorKind::UnexpectedEof`] — so a reader
/// holding only a prefix of the trace can fetch more bytes and decode
/// the same record again.
pub(crate) fn decode_record(
    data: &[u8],
    pos: &mut usize,
    sources: &mut Vec<u64>,
) -> io::Result<Option<Record>> {
    let Some(&tag) = data.get(*pos) else {
        return Ok(None);
    };
    let mut at = *pos + 1;
    let record = match tag {
        TAG_LEARNED => {
            let id = read_varint(data, &mut at)?;
            let count = read_varint(data, &mut at)?;
            if count < 2 {
                return Err(invalid("learned clause needs at least two resolve sources"));
            }
            if count > 1 << 32 {
                return Err(invalid("implausible resolve-source count"));
            }
            sources.clear();
            // `count` is attacker-controlled until the sources decode.
            sources.reserve(count.min(65_536) as usize);
            if (data.len() - at) as u64 / 10 >= count {
                // The whole list provably fits (10 bytes is the longest
                // varint): one window check for the list instead of one
                // per varint.
                for _ in 0..count {
                    let chunk = data[at..at + 10].try_into().expect("ten bytes");
                    let (value, len) = decode_varint_chunk(chunk)?;
                    at += len;
                    sources.push(value);
                }
            } else {
                for _ in 0..count {
                    sources.push(read_varint(data, &mut at)?);
                }
            }
            Record::Learned { id }
        }
        TAG_LEVEL_ZERO => {
            let code = read_varint(data, &mut at)?;
            if code > u64::from(u32::MAX) {
                return Err(invalid("literal code out of range"));
            }
            let antecedent = read_varint(data, &mut at)?;
            Record::LevelZero {
                lit: Lit::from_code(code as usize),
                antecedent,
            }
        }
        TAG_FINAL => Record::Final {
            id: read_varint(data, &mut at)?,
        },
        other => return Err(invalid(&format!("unknown binary trace tag 0x{other:02x}"))),
    };
    *pos = at;
    Ok(Some(record))
}

/// Checks the 4-byte magic at the start of `head`.
pub(crate) fn check_magic(head: &[u8]) -> io::Result<()> {
    match head.get(..BINARY_MAGIC.len()) {
        None => Err(truncated()),
        Some(magic) if magic != BINARY_MAGIC => {
            Err(invalid("not a rescheck binary trace (bad magic)"))
        }
        Some(_) => Ok(()),
    }
}

/// Reads until `buf` is full or the input ends; returns the bytes read.
pub(crate) fn read_full<R: Read + ?Sized>(reader: &mut R, buf: &mut [u8]) -> io::Result<usize> {
    let mut filled = 0;
    while filled < buf.len() {
        match reader.read(&mut buf[filled..]) {
            Ok(0) => break,
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(filled)
}

fn invalid(message: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message)
}

/// The diagnostic `read_exact` gives a record cut short.
fn truncated() -> io::Error {
    io::Error::new(io::ErrorKind::UnexpectedEof, "failed to fill whole buffer")
}

/// Decodes one LEB128 varint at `data[*at]`, advancing `*at`. With ten
/// bytes in hand the value decodes from a fixed-size chunk; only the
/// last few bytes of `data` take the byte-at-a-time loop. Overflow
/// semantics match [`crate::varint::read_u64`] exactly.
#[inline]
fn read_varint(data: &[u8], at: &mut usize) -> io::Result<u64> {
    if let Some(chunk) = data.get(*at..*at + 10) {
        let (value, len) = decode_varint_chunk(chunk.try_into().expect("ten bytes"))?;
        *at += len;
        return Ok(value);
    }
    let mut value: u64 = 0;
    let mut shift: u32 = 0;
    while let Some(&byte) = data.get(*at) {
        *at += 1;
        if shift == 63 && byte > 1 {
            return Err(varint_overflow());
        }
        value |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(value);
        }
        shift += 7;
        if shift > 63 {
            return Err(varint_overflow());
        }
    }
    Err(truncated())
}

fn varint_overflow() -> io::Error {
    invalid("LEB128 value overflows u64")
}

/// Decodes one LEB128 varint known to lie entirely within `chunk`,
/// returning the value and the number of bytes consumed. Overflow
/// semantics match [`crate::varint::read_u64`]: a 10th byte above 1 or
/// an 11th continuation byte is an overflow.
///
/// Ids and deltas in real traces take one to three bytes, so those are
/// decoded inline; longer varints take the out-of-line loop.
#[inline(always)]
fn decode_varint_chunk(chunk: &[u8; 10]) -> io::Result<(u64, usize)> {
    let [b0, b1, b2, ..] = *chunk;
    if b0 < 0x80 {
        return Ok((u64::from(b0), 1));
    }
    let low = u64::from(b0 & 0x7f);
    if b1 < 0x80 {
        return Ok((low | u64::from(b1) << 7, 2));
    }
    if b2 < 0x80 {
        return Ok((low | u64::from(b1 & 0x7f) << 7 | u64::from(b2) << 14, 3));
    }
    decode_long_varint(chunk)
}

#[cold]
#[inline(never)]
fn decode_long_varint(chunk: &[u8; 10]) -> io::Result<(u64, usize)> {
    let mut value: u64 = 0;
    let mut shift: u32 = 0;
    for (i, &byte) in chunk.iter().enumerate() {
        if shift == 63 && byte > 1 {
            return Err(varint_overflow());
        }
        value |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok((value, i + 1));
        }
        shift += 7;
    }
    // All ten bytes had continuation bits: an 11th byte would be
    // required, which read_u64 rejects as overflow.
    Err(varint_overflow())
}

/// Decodes a trace held in memory, with no read buffer and no copy.
///
/// This is the decoder a [`crate::TraceMap`] source runs: the daemon's
/// jobs on a cached binary trace decode straight off its bytes.
///
/// # Examples
///
/// ```
/// use rescheck_trace::{BinaryWriter, EventRef, SliceDecoder, TraceSink};
///
/// let mut buf = Vec::new();
/// let mut w = BinaryWriter::new(&mut buf)?;
/// w.learned(2, &[0, 1])?;
///
/// let mut decoder = SliceDecoder::new(&buf)?;
/// assert_eq!(
///     decoder.next_event()?,
///     Some(EventRef::Learned { id: 2, sources: &[0, 1] })
/// );
/// assert_eq!(decoder.next_event()?, None);
/// # Ok::<(), std::io::Error>(())
/// ```
#[derive(Debug)]
pub struct SliceDecoder<'a> {
    data: &'a [u8],
    pos: usize,
    scratch: Vec<u64>,
    events: u64,
}

impl<'a> SliceDecoder<'a> {
    /// Creates a decoder over a whole trace, validating the magic.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::InvalidData`] if the magic does not match and
    /// [`io::ErrorKind::UnexpectedEof`] if `data` is shorter than it.
    pub fn new(data: &'a [u8]) -> io::Result<Self> {
        check_magic(data)?;
        Ok(SliceDecoder {
            data,
            pos: BINARY_MAGIC.len(),
            scratch: Vec::new(),
            events: 0,
        })
    }

    /// Current byte offset into the slice (a record boundary between
    /// calls to [`SliceDecoder::next_event`]).
    pub fn offset(&self) -> usize {
        self.pos
    }

    /// Number of events decoded so far.
    pub fn events_decoded(&self) -> u64 {
        self.events
    }

    /// Decodes the next record, or `None` at the end of the slice.
    ///
    /// The returned [`EventRef`] borrows the decoder's scratch buffer and
    /// is invalidated by the next call.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::InvalidData`] on a malformed record and
    /// [`io::ErrorKind::UnexpectedEof`] on one cut short by the end of
    /// the slice.
    pub fn next_event(&mut self) -> io::Result<Option<EventRef<'_>>> {
        let Some(record) = decode_record(self.data, &mut self.pos, &mut self.scratch)? else {
            return Ok(None);
        };
        self.events += 1;
        Ok(Some(record.event(&self.scratch)))
    }
}

/// Streams borrowed trace events from binary input through one reused
/// block buffer.
///
/// This is a lending reader: each [`BlockDecoder::next_event`] call
/// returns an [`EventRef`] borrowing the decoder's scratch space, valid
/// until the next call; [`EventRef::to_owned`] detaches one worth
/// keeping.
///
/// # Examples
///
/// ```
/// use rescheck_trace::{BlockDecoder, BinaryWriter, EventRef, TraceSink};
///
/// let mut buf = Vec::new();
/// let mut w = BinaryWriter::new(&mut buf)?;
/// w.learned(2, &[0, 1])?;
///
/// let mut decoder = BlockDecoder::new(std::io::Cursor::new(buf))?;
/// assert_eq!(
///     decoder.next_event()?,
///     Some(EventRef::Learned { id: 2, sources: &[0, 1] })
/// );
/// assert_eq!(decoder.next_event()?, None);
/// # Ok::<(), std::io::Error>(())
/// ```
#[derive(Debug)]
pub struct BlockDecoder<R> {
    reader: R,
    buf: Vec<u8>,
    start: usize,
    end: usize,
    eof: bool,
    scratch: Vec<u64>,
    events: u64,
    bytes_read: u64,
    refills: u64,
}

impl<R: Read> BlockDecoder<R> {
    /// Creates a decoder with the default block size, consuming and
    /// validating the magic header.
    ///
    /// # Errors
    ///
    /// Returns [`io::ErrorKind::InvalidData`] if the magic does not match
    /// and [`io::ErrorKind::UnexpectedEof`] if the input is shorter than
    /// the magic.
    pub fn new(reader: R) -> io::Result<Self> {
        Self::with_block_size(reader, READ_BUFFER_BYTES)
    }

    /// Creates a decoder refilling `block_size` bytes at a time (clamped
    /// to a small minimum). Exposed so tests can force records to
    /// straddle refill boundaries.
    ///
    /// # Errors
    ///
    /// As for [`BlockDecoder::new`].
    pub fn with_block_size(reader: R, block_size: usize) -> io::Result<Self> {
        let mut decoder = BlockDecoder {
            reader,
            buf: vec![0; block_size.max(16)],
            start: 0,
            end: 0,
            eof: false,
            scratch: Vec::new(),
            events: 0,
            bytes_read: 0,
            refills: 0,
        };
        decoder.fill()?;
        check_magic(&decoder.buf[..decoder.end])?;
        decoder.start = BINARY_MAGIC.len();
        Ok(decoder)
    }

    /// Number of events decoded so far.
    pub fn events_decoded(&self) -> u64 {
        self.events
    }

    /// Number of bytes pulled from the underlying reader so far.
    pub fn bytes_read(&self) -> u64 {
        self.bytes_read
    }

    /// Number of buffer refills so far.
    pub fn refills(&self) -> u64 {
        self.refills
    }

    /// Byte offset in the input of the record the next
    /// [`BlockDecoder::next_event`] call decodes.
    pub fn offset(&self) -> u64 {
        self.bytes_read - (self.end - self.start) as u64
    }

    /// Decodes the next record, or `None` at a clean end of input.
    ///
    /// The returned [`EventRef`] borrows the decoder's scratch buffer and
    /// is invalidated by the next call.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::InvalidData`] on malformed records,
    /// [`io::ErrorKind::UnexpectedEof`] on truncation mid-record, and any
    /// error from the underlying reader.
    pub fn next_event(&mut self) -> io::Result<Option<EventRef<'_>>> {
        let record = loop {
            let mut pos = self.start;
            match decode_record(&self.buf[..self.end], &mut pos, &mut self.scratch) {
                Ok(Some(record)) => {
                    self.start = pos;
                    break record;
                }
                Ok(None) if self.eof => return Ok(None),
                Err(e) if self.eof || e.kind() != io::ErrorKind::UnexpectedEof => return Err(e),
                // The block is used up or ends mid-record: refill, then
                // decode the record again.
                _ => self.fill()?,
            }
        };
        self.events += 1;
        Ok(Some(record.event(&self.scratch)))
    }

    /// Moves the undecoded tail to the front of the buffer, doubles a
    /// buffer that tail fills, then reads until the buffer is full or
    /// the input ends.
    fn fill(&mut self) -> io::Result<()> {
        self.buf.copy_within(self.start..self.end, 0);
        self.end -= self.start;
        self.start = 0;
        if self.end == self.buf.len() {
            self.buf.resize(2 * self.end, 0);
        }
        let n = read_full(&mut self.reader, &mut self.buf[self.end..])?;
        self.end += n;
        self.eof = self.end < self.buf.len();
        self.bytes_read += n as u64;
        self.refills += 1;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random::WindowCursor;
    use crate::source::visit_binary;
    use crate::{
        read_all, varint, BinaryReader, BinaryWriter, TraceCursor, TraceEvent, TraceFormat,
        TraceSink,
    };
    use rescheck_cnf::SplitMix64;
    use std::cell::Cell;
    use std::rc::Rc;

    /// Deterministic pseudo-random event stream exercising multi-byte
    /// varints and long source lists.
    fn seeded_events(seed: u64, count: usize) -> Vec<TraceEvent> {
        let mut rng = SplitMix64::new(seed);
        let mut events = Vec::with_capacity(count);
        for i in 0..count {
            match rng.next_u64() % 4 {
                0 => {
                    let sign: i64 = if rng.next_u64().is_multiple_of(2) {
                        1
                    } else {
                        -1
                    };
                    let var = (rng.next_u64() % 5000 + 1) as i64;
                    events.push(TraceEvent::LevelZero {
                        lit: Lit::from_dimacs(sign * var),
                        antecedent: rng.next_u64() % (1 << 40),
                    });
                }
                1 => events.push(TraceEvent::FinalConflict {
                    id: rng.next_u64() % (1 << 50),
                }),
                _ => {
                    let len = 2 + (rng.next_u64() % 30) as usize;
                    let sources = (0..len).map(|_| rng.next_u64() % (1 << 45)).collect();
                    events.push(TraceEvent::Learned {
                        id: 1_000_000 + i as u64,
                        sources,
                    });
                }
            }
        }
        events
    }

    fn encode(events: &[TraceEvent]) -> Vec<u8> {
        let mut buf = Vec::new();
        let mut w = BinaryWriter::new(&mut buf).unwrap();
        for e in events {
            w.event(e).unwrap();
        }
        buf
    }

    fn decode_all(bytes: &[u8], block_size: usize) -> io::Result<Vec<TraceEvent>> {
        let mut decoder = BlockDecoder::with_block_size(io::Cursor::new(bytes), block_size)?;
        let mut events = Vec::new();
        while let Some(event) = decoder.next_event()? {
            events.push(event.to_owned());
        }
        Ok(events)
    }

    fn decode_all_slice(bytes: &[u8]) -> io::Result<Vec<TraceEvent>> {
        let mut decoder = SliceDecoder::new(bytes)?;
        let mut events = Vec::new();
        while let Some(event) = decoder.next_event()? {
            events.push(event.to_owned());
        }
        Ok(events)
    }

    /// A byte-slice reader that counts the bytes it hands out.
    struct Tally<'a> {
        rest: &'a [u8],
        taken: Rc<Cell<u64>>,
    }

    impl Read for Tally<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = self.rest.read(buf)?;
            self.taken.set(self.taken.get() + n as u64);
            Ok(n)
        }
    }

    impl io::BufRead for Tally<'_> {
        fn fill_buf(&mut self) -> io::Result<&[u8]> {
            Ok(self.rest)
        }

        fn consume(&mut self, n: usize) {
            self.rest = &self.rest[n..];
            self.taken.set(self.taken.get() + n as u64);
        }
    }

    type Decoded = (Vec<(u64, TraceEvent)>, Option<(u64, io::Error)>);

    /// The reference decode: [`BinaryReader`]'s events, each with the
    /// offset it starts at, and its error with the offset of the record
    /// that failed (0 when the magic did).
    fn reference(bytes: &[u8]) -> Decoded {
        let taken = Rc::new(Cell::new(0));
        let tally = Tally {
            rest: bytes,
            taken: Rc::clone(&taken),
        };
        let mut reader = match BinaryReader::new(tally) {
            Ok(reader) => reader,
            Err(e) => return (Vec::new(), Some((0, e))),
        };
        let mut pairs = Vec::new();
        loop {
            let offset = taken.get();
            match reader.next() {
                None => return (pairs, None),
                Some(Ok(event)) => pairs.push((offset, event)),
                Some(Err(e)) => return (pairs, Some((offset, e))),
            }
        }
    }

    fn assert_same_error(want: &io::Error, got: &io::Error, what: &str) {
        assert_eq!(want.kind(), got.kind(), "{what}");
        assert_eq!(want.to_string(), got.to_string(), "{what}");
    }

    /// Holds every shipped reader — the slice decoder, the block decoder
    /// at 16-byte blocks, the offset visit and the windowed cursor —
    /// to the reference on `bytes`: same events, same error kind and
    /// message.
    fn assert_readers_match_reference(bytes: &[u8], what: &str) {
        let (pairs, error) = reference(bytes);
        let events: Vec<TraceEvent> = pairs.iter().map(|(_, e)| e.clone()).collect();
        for (label, got) in [
            ("block", decode_all(bytes, 16)),
            ("slice", decode_all_slice(bytes)),
        ] {
            match (&error, got) {
                (None, Ok(got)) => assert_eq!(got, events, "{what} ({label})"),
                (Some((_, want)), Err(got)) => {
                    assert_same_error(want, &got, &format!("{what} ({label})"))
                }
                (want, got) => panic!("{what} ({label}): reference {want:?} vs {got:?}"),
            }
        }

        let offsets = BlockDecoder::new(io::Cursor::new(bytes)).and_then(|decoder| {
            let mut got = Vec::new();
            visit_binary(decoder, &mut |offset, event| {
                got.push((offset, event.to_owned()));
                Ok(())
            })?;
            Ok(got)
        });
        match (&error, offsets) {
            (None, Ok(got)) => assert_eq!(got, pairs, "{what} (offsets)"),
            (Some((_, want)), Err(got)) => {
                assert_same_error(want, &got, &format!("{what} (offsets)"))
            }
            (want, got) => panic!("{what} (offsets): reference {want:?} vs {got:?}"),
        }

        let mut cursor = WindowCursor::new(io::Cursor::new(bytes));
        for (offset, event) in &pairs {
            assert_eq!(&cursor.event_at(*offset).unwrap(), event, "{what} (cursor)");
        }
        if let Some((offset, want)) = &error {
            if *offset >= BINARY_MAGIC.len() as u64 {
                let got = cursor.event_at(*offset).unwrap_err();
                assert_same_error(want, &got, &format!("{what} (cursor)"));
            }
        }
    }

    #[test]
    fn seeded_roundtrip_across_block_boundaries() {
        for seed in [1, 0xdead_beef, 42] {
            let events = seeded_events(seed, 500);
            let bytes = encode(&events);
            // A 16-byte block guarantees most records straddle refills,
            // and many outgrow the block.
            for block_size in [16, 17, 64, 4096] {
                let got = decode_all(&bytes, block_size).unwrap();
                assert_eq!(got, events, "seed {seed}, block size {block_size}");
            }
            let got = decode_all_slice(&bytes).unwrap();
            assert_eq!(got, events, "seed {seed}, slice decoder");
        }
    }

    #[test]
    fn matches_per_record_reader_on_truncated_traces() {
        let bytes = encode(&seeded_events(7, 50));
        // Chop the stream at every byte boundary: every reader must
        // agree with BinaryReader on both the decoded prefix and the
        // error (kind and message) where one occurs.
        for cut in 0..bytes.len() {
            assert_readers_match_reference(&bytes[..cut], &format!("cut {cut}"));
        }
    }

    #[test]
    fn garbage_tail_diagnostics_match_per_record_reader() {
        let mut tails: Vec<Vec<u8>> = Vec::new();
        // Unknown tag.
        tails.push(vec![0x7f]);
        // Learned with count < 2.
        let mut t = vec![TAG_LEARNED];
        varint::write_u64(&mut t, 9).unwrap();
        varint::write_u64(&mut t, 1).unwrap();
        tails.push(t);
        // Learned with implausible count.
        let mut t = vec![TAG_LEARNED];
        varint::write_u64(&mut t, 9).unwrap();
        varint::write_u64(&mut t, (1 << 32) + 1).unwrap();
        tails.push(t);
        // Level-zero literal code out of range.
        let mut t = vec![TAG_LEVEL_ZERO];
        varint::write_u64(&mut t, u64::from(u32::MAX) + 1).unwrap();
        varint::write_u64(&mut t, 0).unwrap();
        tails.push(t);
        // Varint that overflows u64 (11 continuation bytes).
        let mut t = vec![TAG_FINAL];
        t.extend_from_slice(&[0xff; 10]);
        t.push(0x01);
        tails.push(t);
        // Varint whose 10th byte has excess high bits.
        let mut t = vec![TAG_FINAL];
        t.extend_from_slice(&[0x80; 9]);
        t.push(0x02);
        tails.push(t);

        for tail in tails {
            let mut bytes = encode(&seeded_events(3, 5));
            bytes.extend_from_slice(&tail);
            assert!(reference(&bytes).1.is_some(), "tail {tail:?} must fail");
            assert_readers_match_reference(&bytes, &format!("tail {tail:?}"));
        }
    }

    #[test]
    fn bad_magic_and_short_magic_are_rejected() {
        let err = BlockDecoder::new(io::Cursor::new(b"NOPE".to_vec())).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let err = BlockDecoder::new(io::Cursor::new(b"RT".to_vec())).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        let err = SliceDecoder::new(b"NOPE").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let err = SliceDecoder::new(b"RT").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn owned_iterator_matches_lending_api() {
        // `read_all` is the owned-event form of the block decoder's
        // lending loop.
        let events = seeded_events(11, 200);
        let bytes = encode(&events);
        let owned = read_all(io::Cursor::new(bytes.clone()), TraceFormat::Binary).unwrap();
        assert_eq!(owned, events);
        assert_eq!(owned, decode_all(&bytes, 32).unwrap());
    }

    #[test]
    fn counters_track_progress() {
        let events = seeded_events(5, 100);
        let bytes = encode(&events);
        let mut decoder = BlockDecoder::new(io::Cursor::new(bytes.clone())).unwrap();
        while decoder.next_event().unwrap().is_some() {}
        assert_eq!(decoder.events_decoded(), events.len() as u64);
        assert_eq!(decoder.bytes_read(), bytes.len() as u64);
        assert_eq!(decoder.offset(), bytes.len() as u64);
        assert!(decoder.refills() >= 1);
    }
}
