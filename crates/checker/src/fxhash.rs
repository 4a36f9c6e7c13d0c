//! A hand-rolled FxHash-style hasher for the checker's hot tables.
//!
//! The standard library's default `SipHash` is DoS-resistant but costs
//! tens of cycles per `u64` key; the checker's id → clause and id →
//! use-count maps are keyed by trace-internal integers that an adversary
//! cannot choose independently of the trace contents the checker fully
//! validates anyway, so the collision-flooding defence buys nothing
//! here. This is the classic Firefox/rustc "Fx" multiply-rotate hash:
//! one rotate, one xor, one multiply per word.
//!
//! Determinism is a feature, not just a speed-up: `HashMap`'s per-process
//! random seed made iteration order differ between runs, and every place
//! the checker iterates a hot map (e.g. the hybrid strategy's root set)
//! now behaves identically across runs.

use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher};

/// The multiplier from the FxHash family (a 64-bit odd constant with a
/// good avalanche profile under multiply).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// One-word-at-a-time multiply-rotate hasher.
#[derive(Clone, Copy, Default)]
pub(crate) struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add_to_hash(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            self.add_to_hash(u64::from_le_bytes(tail));
        }
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add_to_hash(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add_to_hash(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add_to_hash(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// Builds [`FxHasher`]s from a fixed (deterministic) state.
#[derive(Clone, Copy, Default)]
pub(crate) struct FxBuildHasher;

impl BuildHasher for FxBuildHasher {
    type Hasher = FxHasher;

    #[inline]
    fn build_hasher(&self) -> FxHasher {
        FxHasher::default()
    }
}

/// A `HashMap` keyed through [`FxHasher`].
pub(crate) type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maps_behave_like_std_maps() {
        let mut map: FxHashMap<u64, &str> = FxHashMap::default();
        map.insert(7, "seven");
        map.insert(7, "seven again");
        map.insert(1 << 40, "big");
        assert_eq!(map.len(), 2);
        assert_eq!(map.get(&7), Some(&"seven again"));
        assert_eq!(map.remove(&(1 << 40)), Some("big"));
        assert!(!map.contains_key(&(1 << 40)));
    }

    #[test]
    fn hashing_is_deterministic_across_builders() {
        let a = FxBuildHasher.hash_one(0xdead_beef_u64);
        let b = FxBuildHasher.hash_one(0xdead_beef_u64);
        assert_eq!(a, b);
        assert_ne!(a, FxBuildHasher.hash_one(0xdead_bee0_u64));
    }

    #[test]
    fn byte_stream_tail_is_hashed() {
        let mut h1 = FxHasher::default();
        h1.write(b"0123456789ab");
        let mut h2 = FxHasher::default();
        h2.write(b"0123456789ac");
        assert_ne!(h1.finish(), h2.finish());
    }
}
