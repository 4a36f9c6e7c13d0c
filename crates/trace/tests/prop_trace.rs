//! Randomized tests of the trace encodings: arbitrary event streams
//! survive both encodings byte-exactly, and random access agrees with
//! streaming. Driven by the in-house [`SplitMix64`] generator (seeded
//! loops, reproducible from the printed seed); `heavy-tests` raises the
//! case count.

use rescheck_cnf::{Lit, SplitMix64};
use rescheck_trace::{
    mutate, read_all, AsciiWriter, BinaryReader, BinaryWriter, BlockDecoder, FileTrace, MemorySink,
    SliceDecoder, TraceEvent, TraceFormat, TraceMap, TraceSink, TraceSource, BINARY_MAGIC,
};
use std::cell::Cell;
use std::io::{self, Read};
use std::rc::Rc;

const CASES: u64 = if cfg!(feature = "heavy-tests") {
    1024
} else {
    128
};

fn random_event(rng: &mut SplitMix64) -> TraceEvent {
    match rng.below(3) {
        0 => {
            let len = rng.range_usize(2..12);
            TraceEvent::Learned {
                id: rng.next_u64(),
                sources: (0..len).map(|_| rng.next_u64()).collect(),
            }
        }
        1 => {
            let v = rng.range_u32(1..100_000) as i64;
            TraceEvent::LevelZero {
                lit: Lit::from_dimacs(if rng.gen_bool(0.5) { -v } else { v }),
                antecedent: rng.next_u64(),
            }
        }
        _ => TraceEvent::FinalConflict { id: rng.next_u64() },
    }
}

fn random_events(rng: &mut SplitMix64, min: u64, max: u64) -> Vec<TraceEvent> {
    let len = min + rng.below(max - min);
    (0..len).map(|_| random_event(rng)).collect()
}

fn encode_ascii(events: &[TraceEvent]) -> Vec<u8> {
    let mut buf = Vec::new();
    let mut w = AsciiWriter::new(&mut buf);
    for e in events {
        w.event(e).unwrap();
    }
    assert_eq!(w.bytes_written(), buf.len() as u64);
    buf
}

fn encode_binary(events: &[TraceEvent]) -> Vec<u8> {
    let mut buf = Vec::new();
    let mut w = BinaryWriter::new(&mut buf).unwrap();
    for e in events {
        w.event(e).unwrap();
    }
    assert_eq!(w.bytes_written(), buf.len() as u64);
    buf
}

#[test]
fn ascii_roundtrip() {
    for seed in 0..CASES {
        let mut rng = SplitMix64::new(seed);
        let events = random_events(&mut rng, 0, 40);
        let buf = encode_ascii(&events);
        let decoded = read_all(std::io::Cursor::new(buf), TraceFormat::Ascii).unwrap();
        assert_eq!(decoded, events, "seed {seed}");
    }
}

#[test]
fn binary_roundtrip() {
    for seed in 0..CASES {
        let mut rng = SplitMix64::new(seed);
        let events = random_events(&mut rng, 0, 40);
        let buf = encode_binary(&events);
        let decoded = read_all(std::io::Cursor::new(buf), TraceFormat::Binary).unwrap();
        assert_eq!(decoded, events, "seed {seed}");
    }
}

#[test]
fn memory_random_access_matches_streaming() {
    for seed in 0..CASES {
        let mut rng = SplitMix64::new(seed);
        let events = random_events(&mut rng, 1, 30);
        let sink: MemorySink = events.clone().into();
        let pairs = offset_pairs(&sink).unwrap();
        assert_eq!(
            pairs.iter().map(|(_, e)| e.clone()).collect::<Vec<_>>(),
            events,
            "seed {seed}"
        );
        let mut cursor = sink.open_cursor().unwrap();
        for (offset, event) in pairs {
            assert_eq!(cursor.event_at(offset).unwrap(), event, "seed {seed}");
        }
    }
}

/// Every `(offset, event)` pair of one pass over `source`.
fn offset_pairs(source: &dyn TraceSource) -> io::Result<Vec<(u64, TraceEvent)>> {
    let mut pairs = Vec::new();
    source.visit_offsets(&mut |offset, event| {
        pairs.push((offset, event.to_owned()));
        Ok(())
    })?;
    Ok(pairs)
}

/// Decoding truncated binary never panics; it errors or yields a
/// prefix of the events.
#[test]
fn truncated_binary_never_panics() {
    for seed in 0..CASES {
        let mut rng = SplitMix64::new(seed);
        let events = random_events(&mut rng, 1, 20);
        let cut_back = rng.range_usize(1..32);
        let buf = encode_binary(&events);
        let cut = buf.len().saturating_sub(cut_back).max(4);
        let truncated = buf[..cut].to_vec();
        if let Ok(prefix) = read_all(std::io::Cursor::new(truncated), TraceFormat::Binary) {
            assert!(prefix.len() <= events.len(), "seed {seed}")
        }
    }
}

/// Random byte corruption of ASCII traces never panics the decoder.
#[test]
fn corrupted_ascii_never_panics() {
    for seed in 0..CASES {
        let mut rng = SplitMix64::new(seed);
        let events = random_events(&mut rng, 1, 20);
        let mut buf = encode_ascii(&events);
        let i = rng.range_usize(0..buf.len());
        buf[i] = rng.next_u64() as u8;
        let _ = read_all(std::io::Cursor::new(buf), TraceFormat::Ascii);
    }
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

fn slice_decode(bytes: &[u8]) -> io::Result<Vec<TraceEvent>> {
    let mut decoder = SliceDecoder::new(bytes)?;
    let mut out = Vec::new();
    while let Some(event) = decoder.next_event()? {
        out.push(event.to_owned());
    }
    Ok(out)
}

fn block_decode(bytes: &[u8]) -> io::Result<Vec<TraceEvent>> {
    let mut decoder = BlockDecoder::with_block_size(bytes, 16)?;
    let mut out = Vec::new();
    while let Some(event) = decoder.next_event()? {
        out.push(event.to_owned());
    }
    Ok(out)
}

/// Compares one reader's result with the reference's events and error
/// (kind and message).
fn assert_matches<T: PartialEq + std::fmt::Debug>(
    want: (&T, &Option<(u64, io::Error)>),
    got: io::Result<T>,
    what: &str,
) {
    match (want, got) {
        ((want, None), Ok(got)) => assert_eq!(&got, want, "{what}"),
        ((_, Some((_, want))), Err(got)) => {
            assert_eq!(want.kind(), got.kind(), "{what}");
            assert_eq!(want.to_string(), got.to_string(), "{what}");
        }
        ((_, want), got) => panic!("{what}: reference {want:?} vs {got:?}"),
    }
}

/// Differential fuzz of every shipped binary reader: each [`mutate`]
/// operator applied to each seeded trace must draw from the slice
/// decoder, the block decoder (16-byte blocks), the offset visits of a
/// file trace and of its in-memory [`TraceMap`], and the windowed and
/// map cursors the same events and the same error kind and message as
/// from the independent [`BinaryReader`] — and none may panic.
#[test]
fn mutants_decode_identically_mapped_and_buffered() {
    let path =
        std::env::temp_dir().join(format!("rescheck-prop-mutant-{}.rtb", std::process::id()));
    for seed in 0..CASES {
        let mut rng = SplitMix64::new(seed);
        let events = random_events(&mut rng, 1, 20);
        let pristine = encode_binary(&events);
        let mut cases = vec![pristine.clone()];
        for mutation in mutate::ALL_MUTATIONS {
            if let Some(mutated) = mutate::apply(&pristine, mutation, &mut rng) {
                cases.push(mutated);
            }
        }
        for (i, bytes) in cases.iter().enumerate() {
            let what = |path: &str| format!("seed {seed} case {i} ({path})");
            let (pairs, error) = reference(bytes);
            let events: Vec<TraceEvent> = pairs.iter().map(|(_, e)| e.clone()).collect();
            assert_matches((&events, &error), slice_decode(bytes), &what("slice"));
            assert_matches((&events, &error), block_decode(bytes), &what("block"));

            // Mutants keep the magic, so the file always opens as binary.
            std::fs::write(&path, bytes).unwrap();
            let trace = FileTrace::open(&path).unwrap();
            assert_eq!(trace.format(), TraceFormat::Binary);
            let map = TraceMap::open(&path).unwrap();
            let sources: [(&str, &dyn TraceSource); 2] = [("file", &trace), ("map", &map)];
            for (name, source) in sources {
                let offsets = offset_pairs(source);
                assert_matches((&pairs, &error), offsets, &what(&format!("{name} offsets")));
                let mut cursor = source.open_cursor().unwrap();
                for (offset, event) in &pairs {
                    let got = cursor.event_at(*offset).unwrap();
                    assert_eq!(&got, event, "{}", what(&format!("{name} cursor")));
                }
                if let Some((offset, want)) = &error {
                    assert!(*offset >= BINARY_MAGIC.len() as u64);
                    let got = cursor.event_at(*offset).unwrap_err();
                    let what = what(&format!("{name} cursor"));
                    assert_eq!(want.kind(), got.kind(), "{what}");
                    assert_eq!(want.to_string(), got.to_string(), "{what}");
                }
            }
        }
    }
    std::fs::remove_file(&path).ok();
}

/// Random byte corruption of binary traces never panics the decoder.
#[test]
fn corrupted_binary_never_panics() {
    for seed in 0..CASES {
        let mut rng = SplitMix64::new(seed);
        let events = random_events(&mut rng, 1, 20);
        let mut buf = encode_binary(&events);
        let i = 4 + rng.range_usize(0..buf.len() - 4); // keep the magic intact
        buf[i] = rng.next_u64() as u8;
        let _ = read_all(std::io::Cursor::new(buf), TraceFormat::Binary);
    }
}
