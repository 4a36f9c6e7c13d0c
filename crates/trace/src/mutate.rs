//! Deterministic mutators over the binary trace encoding.
//!
//! Differential fuzzing needs corrupted-but-plausible traces: streams
//! that exercise the decoder's and checker's rejection paths without ever
//! being allowed to panic. This module provides four mutation operators
//! over an encoded binary trace (the `RTB1` format of [`crate::binary`]),
//! each deterministic for a given [`SplitMix64`] state:
//!
//! - [`Mutation::BitFlip`] — flip one bit anywhere after the magic;
//! - [`Mutation::TruncateTail`] — cut the stream short, possibly mid-record;
//! - [`Mutation::SwapSourceLists`] — structurally swap the resolve-source
//!   lists of two learned-clause records (the stream stays decodable, the
//!   *semantics* are corrupted);
//! - [`Mutation::CorruptVarint`] — replace one encoded integer with an
//!   over-long LEB128 encoding the strict reader must reject.
//!
//! A mutator returns `None` when the stream is too small to apply it
//! (e.g. swapping source lists needs two learned records); it never
//! returns bytes equal to its input.

use crate::binary::BinaryWriter;
use crate::{read_all, TraceEvent, TraceFormat, TraceSink};
use rescheck_cnf::SplitMix64;

/// One mutation operator over encoded binary trace bytes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Mutation {
    /// Flip a single random bit after the 4-byte magic.
    BitFlip,
    /// Truncate the stream at a random point after the magic.
    TruncateTail,
    /// Swap the source lists of two distinct learned-clause records.
    SwapSourceLists,
    /// Re-encode one integer as an invalid over-long varint.
    CorruptVarint,
}

/// Every mutation operator, in the order campaigns cycle through them.
pub const ALL_MUTATIONS: [Mutation; 4] = [
    Mutation::BitFlip,
    Mutation::TruncateTail,
    Mutation::SwapSourceLists,
    Mutation::CorruptVarint,
];

impl std::fmt::Display for Mutation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Mutation::BitFlip => f.write_str("bit-flip"),
            Mutation::TruncateTail => f.write_str("truncate-tail"),
            Mutation::SwapSourceLists => f.write_str("swap-source-lists"),
            Mutation::CorruptVarint => f.write_str("corrupt-varint"),
        }
    }
}

const MAGIC_LEN: usize = 4;

/// Applies `mutation` to an encoded binary trace, drawing randomness from
/// `rng`.
///
/// Returns `None` when the stream is too small for the operator (fewer
/// than two learned records for [`Mutation::SwapSourceLists`], nothing
/// after the magic for the byte-level operators, or an undecodable input
/// for the structural operators). The returned bytes always differ from
/// the input.
///
/// # Examples
///
/// ```
/// use rescheck_cnf::SplitMix64;
/// use rescheck_trace::{mutate, BinaryWriter, Mutation, TraceSink};
///
/// let mut bytes = Vec::new();
/// let mut w = BinaryWriter::new(&mut bytes)?;
/// w.learned(2, &[0, 1])?;
/// w.final_conflict(2)?;
/// drop(w);
///
/// let mut rng = SplitMix64::new(7);
/// let mutated = mutate::apply(&bytes, Mutation::BitFlip, &mut rng).unwrap();
/// assert_ne!(mutated, bytes);
/// # Ok::<(), std::io::Error>(())
/// ```
pub fn apply(bytes: &[u8], mutation: Mutation, rng: &mut SplitMix64) -> Option<Vec<u8>> {
    match mutation {
        Mutation::BitFlip => bit_flip(bytes, rng),
        Mutation::TruncateTail => truncate_tail(bytes, rng),
        Mutation::SwapSourceLists => swap_source_lists(bytes, rng),
        Mutation::CorruptVarint => corrupt_varint(bytes, rng),
    }
}

fn bit_flip(bytes: &[u8], rng: &mut SplitMix64) -> Option<Vec<u8>> {
    if bytes.len() <= MAGIC_LEN {
        return None;
    }
    let mut out = bytes.to_vec();
    let pos = rng.range_usize(MAGIC_LEN..out.len());
    let bit = rng.below(8) as u8;
    out[pos] ^= 1 << bit;
    Some(out)
}

fn truncate_tail(bytes: &[u8], rng: &mut SplitMix64) -> Option<Vec<u8>> {
    if bytes.len() <= MAGIC_LEN + 1 {
        return None;
    }
    // Keep at least the magic, cut at least one byte.
    let keep = rng.range_usize(MAGIC_LEN..bytes.len());
    Some(bytes[..keep].to_vec())
}

/// Decodes the stream; `None` if it is not a well-formed binary trace
/// (structural mutators need record boundaries).
fn decode(bytes: &[u8]) -> Option<Vec<TraceEvent>> {
    read_all(bytes, TraceFormat::Binary).ok()
}

fn encode(events: &[TraceEvent]) -> Vec<u8> {
    let mut w = BinaryWriter::new(Vec::new()).expect("writing to a Vec cannot fail");
    for e in events {
        w.event(e).expect("writing to a Vec cannot fail");
    }
    w.into_inner()
}

fn swap_source_lists(bytes: &[u8], rng: &mut SplitMix64) -> Option<Vec<u8>> {
    let mut events = decode(bytes)?;
    let learned: Vec<usize> = events
        .iter()
        .enumerate()
        .filter_map(|(i, e)| matches!(e, TraceEvent::Learned { .. }).then_some(i))
        .collect();
    if learned.len() < 2 {
        return None;
    }
    // Draw two distinct learned records with different source lists, so
    // the swap is guaranteed to change the stream.
    let mut candidates: Vec<(usize, usize)> = Vec::new();
    for (n, &i) in learned.iter().enumerate() {
        for &j in &learned[n + 1..] {
            let (TraceEvent::Learned { sources: a, .. }, TraceEvent::Learned { sources: b, .. }) =
                (&events[i], &events[j])
            else {
                unreachable!("filtered to learned records above");
            };
            if a != b {
                candidates.push((i, j));
            }
        }
    }
    if candidates.is_empty() {
        return None;
    }
    let (i, j) = candidates[rng.range_usize(0..candidates.len())];
    // Swap the source lists, keeping the ids in place.
    let (head, tail) = events.split_at_mut(j);
    let (TraceEvent::Learned { sources: a, .. }, TraceEvent::Learned { sources: b, .. }) =
        (&mut head[i], &mut tail[0])
    else {
        unreachable!("candidate indices point at learned records");
    };
    std::mem::swap(a, b);
    Some(encode(&events))
}

fn corrupt_varint(bytes: &[u8], rng: &mut SplitMix64) -> Option<Vec<u8>> {
    let events = decode(bytes)?;
    if events.is_empty() {
        return None;
    }
    // Re-encode the stream, replacing one integer of one record with an
    // 11-byte all-continuation varint the strict reader rejects.
    let victim = rng.range_usize(0..events.len());
    let mut out = encode(&events[..victim]);
    // Tag byte of the victim record, then the poisoned integer where its
    // first varint (id / literal code) belongs.
    let tag = match events[victim] {
        TraceEvent::Learned { .. } => crate::binary::TAG_LEARNED,
        TraceEvent::LevelZero { .. } => crate::binary::TAG_LEVEL_ZERO,
        TraceEvent::FinalConflict { .. } => crate::binary::TAG_FINAL,
    };
    out.push(tag);
    out.extend_from_slice(&[0x80; 11]);
    // The reader aborts on the poisoned varint, so nothing after it needs
    // to stay well-formed; keep the remaining records anyway to preserve
    // the stream's length profile.
    out.extend_from_slice(&encode(&events[victim + 1..])[MAGIC_LEN..]);
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BinaryReader;
    use rescheck_cnf::Lit;
    use std::io::Cursor;

    fn sample_trace() -> Vec<u8> {
        let mut bytes = Vec::new();
        let mut w = BinaryWriter::new(&mut bytes).unwrap();
        w.learned(4, &[0, 1, 2]).unwrap();
        w.learned(5, &[4, 3]).unwrap();
        w.level_zero(Lit::from_dimacs(-2), 5).unwrap();
        w.final_conflict(5).unwrap();
        let _ = w.into_inner();
        bytes
    }

    /// Decoding a mutant must either succeed or fail cleanly — an
    /// `Err`, never a panic.
    fn decodes_or_cleanly_rejects(bytes: &[u8]) -> bool {
        match BinaryReader::new(Cursor::new(bytes)) {
            Ok(reader) => reader.collect::<std::io::Result<Vec<_>>>().is_ok(),
            Err(_) => false,
        }
    }

    #[test]
    fn every_mutation_changes_the_bytes() {
        let original = sample_trace();
        for mutation in ALL_MUTATIONS {
            for seed in 0..50 {
                let mut rng = SplitMix64::new(seed);
                let mutated = apply(&original, mutation, &mut rng)
                    .unwrap_or_else(|| panic!("{mutation} inapplicable to the sample"));
                assert_ne!(mutated, original, "{mutation} seed {seed} was a no-op");
                // Never a panic: decoding returns a verdict either way.
                let _ = decodes_or_cleanly_rejects(&mutated);
            }
        }
    }

    #[test]
    fn mutations_are_deterministic() {
        let original = sample_trace();
        for mutation in ALL_MUTATIONS {
            let a = apply(&original, mutation, &mut SplitMix64::new(99));
            let b = apply(&original, mutation, &mut SplitMix64::new(99));
            assert_eq!(a, b, "{mutation}");
        }
    }

    #[test]
    fn truncation_always_rejects_or_loses_events() {
        let original = sample_trace();
        let full = decode(&original).unwrap();
        for seed in 0..50 {
            let mut rng = SplitMix64::new(seed);
            let mutated = apply(&original, Mutation::TruncateTail, &mut rng).unwrap();
            assert!(mutated.len() < original.len());
            // A failed `new` means the magic itself was truncated: also
            // a clean reject.
            if let Ok(reader) = BinaryReader::new(Cursor::new(mutated.as_slice())) {
                if let Ok(events) = reader.collect::<std::io::Result<Vec<_>>>() {
                    // A clean decode must have lost at least the
                    // trailing final-conflict record.
                    assert!(events.len() < full.len());
                }
            }
        }
    }

    #[test]
    fn corrupt_varint_always_fails_decode() {
        let original = sample_trace();
        for seed in 0..50 {
            let mut rng = SplitMix64::new(seed);
            let mutated = apply(&original, Mutation::CorruptVarint, &mut rng).unwrap();
            assert!(
                !decodes_or_cleanly_rejects(&mutated),
                "over-long varint must be rejected (seed {seed})"
            );
        }
    }

    #[test]
    fn swap_keeps_stream_decodable_but_changes_semantics() {
        let original = sample_trace();
        let before = decode(&original).unwrap();
        for seed in 0..50 {
            let mut rng = SplitMix64::new(seed);
            let mutated = apply(&original, Mutation::SwapSourceLists, &mut rng).unwrap();
            let after = decode(&mutated).expect("swap preserves well-formedness");
            assert_eq!(after.len(), before.len());
            assert_ne!(after, before);
            // Same multiset of ids: only the source lists moved.
            let ids = |evs: &[TraceEvent]| -> Vec<Option<u64>> {
                evs.iter().map(|e| e.primary_id()).collect()
            };
            assert_eq!(ids(&after), ids(&before));
        }
    }

    #[test]
    fn inapplicable_mutations_return_none() {
        // Empty trace: nothing to flip or swap.
        let mut empty = Vec::new();
        let _w = BinaryWriter::new(&mut empty).unwrap();
        let mut rng = SplitMix64::new(1);
        assert!(apply(&empty, Mutation::BitFlip, &mut rng).is_none());
        assert!(apply(&empty, Mutation::TruncateTail, &mut rng).is_none());
        assert!(apply(&empty, Mutation::SwapSourceLists, &mut rng).is_none());
        assert!(apply(&empty, Mutation::CorruptVarint, &mut rng).is_none());

        // One learned record: swapping needs two distinct lists.
        let mut one = Vec::new();
        let mut w = BinaryWriter::new(&mut one).unwrap();
        w.learned(3, &[0, 1]).unwrap();
        let _ = w.into_inner();
        assert!(apply(&one, Mutation::SwapSourceLists, &mut rng).is_none());

        // Two learned records with identical source lists: still no swap.
        let mut same = Vec::new();
        let mut w = BinaryWriter::new(&mut same).unwrap();
        w.learned(3, &[0, 1]).unwrap();
        w.learned(4, &[0, 1]).unwrap();
        let _ = w.into_inner();
        assert!(apply(&same, Mutation::SwapSourceLists, &mut rng).is_none());

        // Garbage input: structural mutators need a decodable stream.
        assert!(apply(b"GARBAGE-NOT-A-TRACE", Mutation::SwapSourceLists, &mut rng).is_none());
        assert!(apply(b"GARBAGE-NOT-A-TRACE", Mutation::CorruptVarint, &mut rng).is_none());
    }
}
