//! The arena clause store: flat literal storage with slot recycling.
//!
//! The strategies previously kept every resident clause as its own
//! `Rc<[Lit]>` behind a SipHash `HashMap` — one heap allocation, one
//! refcount, and pointer-chasing cache misses per clause. The arena
//! replaces that with one flat `Vec<Lit>` holding all resident clauses
//! back to back, plus a dense id → (offset, len) index, so fetching a
//! clause is a hash probe and a contiguous slice.
//!
//! The breadth-first strategy's defining trick — freeing a clause the
//! moment its use count hits zero — maps onto a **free list of extents**:
//! removed slots are recycled best-fit (with the remainder split back
//! onto the list) before the tail grows, so a BF run's literal tail stays
//! proportional to its *live* clause set, not its total clause count.
//!
//! Accounting: the [`MemoryMeter`] is charged in whole
//! [`ARENA_PAGE_BYTES`] pages as the literal tail grows (never refunded —
//! an arena retains its capacity) plus [`ARENA_SLOT_BYTES`] per resident
//! slot (refunded on removal). Both charges are pure functions of the
//! insert/remove sequence, preserving the bit-identical-stats guarantee
//! across `--jobs` values.

use crate::fxhash::FxHashMap;
use crate::memory::{MemoryMeter, ARENA_PAGE_BYTES, ARENA_SLOT_BYTES};
use crate::CheckError;
use rescheck_cnf::Lit;
use std::collections::BTreeMap;

/// Location of one resident clause inside the literal arena.
#[derive(Clone, Copy, Debug)]
struct Slot {
    offset: u32,
    len: u32,
}

/// A flat clause store indexed by trace clause id.
///
/// Offsets are `u32`, capping the arena at 4 Gi literals — far beyond
/// the accounting budgets any strategy runs with.
#[derive(Debug, Default)]
pub(crate) struct ClauseArena {
    /// All resident clauses' literals, back to back.
    lits: Vec<Lit>,
    /// id → slot index for resident clauses.
    slots: FxHashMap<u64, Slot>,
    /// Free extents, keyed by length → start offsets (LIFO per length).
    free: BTreeMap<u32, Vec<u32>>,
    /// Literal-page bytes already charged to the meter.
    charged_pages: u64,
    /// Number of inserts satisfied from the free list.
    reuse_hits: u64,
}

/// Bytes of whole pages needed to hold `lit_count` literals.
fn page_bytes(lit_count: usize) -> u64 {
    let bytes = (lit_count * std::mem::size_of::<Lit>()) as u64;
    bytes.div_ceil(ARENA_PAGE_BYTES) * ARENA_PAGE_BYTES
}

impl ClauseArena {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Stores `clause` under `id`, charging the meter for any new pages
    /// plus one slot. A failed charge leaves the arena unchanged, so the
    /// caller may free budget and retry.
    ///
    /// Freed extents are reused best-fit before the tail grows; a longer
    /// extent is split and its remainder returned to the free list.
    pub(crate) fn insert(
        &mut self,
        id: u64,
        clause: &[Lit],
        meter: &mut MemoryMeter,
    ) -> Result<(), CheckError> {
        debug_assert!(!self.slots.contains_key(&id), "duplicate arena id {id}");
        let len = clause.len() as u32;
        let reuse = len > 0 && self.free.range(len..).next().is_some();
        let pages = if reuse {
            0
        } else {
            page_bytes(self.lits.len() + clause.len()).saturating_sub(self.charged_pages)
        };
        if pages > 0 {
            meter.alloc(pages)?;
        }
        if let Err(err) = meter.alloc(ARENA_SLOT_BYTES) {
            meter.free(pages);
            return Err(err);
        }
        let offset = match self.take_free(len) {
            Some(offset) => {
                self.reuse_hits += 1;
                self.lits[offset as usize..(offset as usize + clause.len())]
                    .copy_from_slice(clause);
                offset
            }
            None => {
                self.charged_pages += pages;
                self.lits.extend_from_slice(clause);
                self.lits.len() as u32 - len
            }
        };
        self.slots.insert(id, Slot { offset, len });
        Ok(())
    }

    /// Returns the clause stored under `id`, if resident.
    pub(crate) fn get(&self, id: u64) -> Option<&[Lit]> {
        self.slots.get(&id).map(|s| {
            let start = s.offset as usize;
            &self.lits[start..start + s.len as usize]
        })
    }

    /// Returns `true` if `id` is resident.
    pub(crate) fn contains(&self, id: u64) -> bool {
        self.slots.contains_key(&id)
    }

    /// Frees the clause stored under `id` (a no-op for absent ids):
    /// refunds its slot bytes and recycles its extent.
    pub(crate) fn remove(&mut self, id: u64, meter: &mut MemoryMeter) {
        if let Some(slot) = self.slots.remove(&id) {
            meter.free(ARENA_SLOT_BYTES);
            if slot.len > 0 {
                self.free.entry(slot.len).or_default().push(slot.offset);
            }
        }
    }

    /// Number of resident clauses.
    pub(crate) fn len(&self) -> usize {
        self.slots.len()
    }

    /// Bytes of literal pages charged to the meter (the arena footprint
    /// gauge).
    pub(crate) fn charged_bytes(&self) -> u64 {
        self.charged_pages
    }

    /// Number of inserts that reused a freed extent instead of growing
    /// the tail.
    pub(crate) fn reuse_hits(&self) -> u64 {
        self.reuse_hits
    }

    /// Empties the arena for reuse by a new job, keeping the literal
    /// tail's allocated capacity but zeroing every accounting field.
    ///
    /// Because `charged_pages` restarts at 0, the next job re-charges
    /// pages to *its* meter exactly as a cold arena would — accounting
    /// stays a pure function of the insert/remove sequence, so per-job
    /// peaks are bit-identical whether the arena came from a warm scratch
    /// pool or was freshly built.
    pub(crate) fn reset(&mut self) {
        self.lits.clear();
        self.slots.clear();
        self.free.clear();
        self.charged_pages = 0;
        self.reuse_hits = 0;
    }

    /// Pops the smallest free extent that fits `len` literals, splitting
    /// off and re-listing any remainder.
    fn take_free(&mut self, len: u32) -> Option<u32> {
        if len == 0 {
            return None;
        }
        let (&extent_len, _) = self.free.range(len..).next()?;
        let offsets = self
            .free
            .get_mut(&extent_len)
            .expect("free-list entry for ranged key");
        let offset = offsets.pop().expect("free-list entries are non-empty");
        if offsets.is_empty() {
            self.free.remove(&extent_len);
        }
        if extent_len > len {
            self.free
                .entry(extent_len - len)
                .or_default()
                .push(offset + len);
        }
        Some(offset)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rescheck_cnf::Lit;

    fn lits(ds: &[i64]) -> Vec<Lit> {
        ds.iter().map(|&d| Lit::from_dimacs(d)).collect()
    }

    #[test]
    fn stores_and_fetches_clauses() {
        let mut arena = ClauseArena::new();
        let mut meter = MemoryMeter::unlimited();
        arena.insert(1, &lits(&[1, 2, 3]), &mut meter).unwrap();
        arena.insert(2, &lits(&[-4]), &mut meter).unwrap();
        assert_eq!(arena.get(1).unwrap(), lits(&[1, 2, 3]).as_slice());
        assert_eq!(arena.get(2).unwrap(), lits(&[-4]).as_slice());
        assert!(arena.get(3).is_none());
        assert!(arena.contains(1));
        assert_eq!(arena.len(), 2);
    }

    #[test]
    fn charges_one_page_plus_slots() {
        let mut arena = ClauseArena::new();
        let mut meter = MemoryMeter::unlimited();
        arena.insert(1, &lits(&[1, 2]), &mut meter).unwrap();
        // 8 literal bytes round up to one 1024-byte page, plus one slot.
        assert_eq!(meter.current(), ARENA_PAGE_BYTES + ARENA_SLOT_BYTES);
        arena.insert(2, &lits(&[3, 4]), &mut meter).unwrap();
        // Second clause fits in the already-charged page.
        assert_eq!(meter.current(), ARENA_PAGE_BYTES + 2 * ARENA_SLOT_BYTES);
        assert_eq!(arena.charged_bytes(), ARENA_PAGE_BYTES);
    }

    #[test]
    fn remove_refunds_slots_but_not_pages() {
        let mut arena = ClauseArena::new();
        let mut meter = MemoryMeter::unlimited();
        arena.insert(1, &lits(&[1, 2]), &mut meter).unwrap();
        arena.remove(1, &mut meter);
        assert!(!arena.contains(1));
        assert_eq!(meter.current(), ARENA_PAGE_BYTES);
        // Removing an absent id is a no-op.
        arena.remove(99, &mut meter);
        assert_eq!(meter.current(), ARENA_PAGE_BYTES);
    }

    #[test]
    fn freed_extents_are_reused_before_the_tail_grows() {
        let mut arena = ClauseArena::new();
        let mut meter = MemoryMeter::unlimited();
        arena.insert(1, &lits(&[1, 2, 3]), &mut meter).unwrap();
        arena.remove(1, &mut meter);
        arena.insert(2, &lits(&[4, 5]), &mut meter).unwrap();
        assert_eq!(arena.reuse_hits(), 1);
        assert_eq!(arena.get(2).unwrap(), lits(&[4, 5]).as_slice());
        // The split remainder (1 literal) serves the next short insert.
        arena.insert(3, &lits(&[6]), &mut meter).unwrap();
        assert_eq!(arena.reuse_hits(), 2);
        assert_eq!(arena.get(3).unwrap(), lits(&[6]).as_slice());
        assert_eq!(arena.charged_bytes(), ARENA_PAGE_BYTES);
    }

    #[test]
    fn best_fit_prefers_the_smallest_sufficient_extent() {
        let mut arena = ClauseArena::new();
        let mut meter = MemoryMeter::unlimited();
        arena
            .insert(1, &lits(&[1, 2, 3, 4, 5]), &mut meter)
            .unwrap();
        arena.insert(2, &lits(&[6, 7]), &mut meter).unwrap();
        arena.insert(3, &lits(&[8]), &mut meter).unwrap(); // guards the tail
        arena.remove(1, &mut meter); // free extent of 5
        arena.remove(2, &mut meter); // free extent of 2
        arena.insert(4, &lits(&[9, 10]), &mut meter).unwrap();
        // The 2-extent was chosen, leaving the 5-extent whole.
        assert_eq!(arena.get(4).unwrap(), lits(&[9, 10]).as_slice());
        arena
            .insert(5, &lits(&[11, 12, 13, 14, 15]), &mut meter)
            .unwrap();
        assert_eq!(arena.reuse_hits(), 2);
        assert_eq!(arena.charged_bytes(), ARENA_PAGE_BYTES);
    }

    #[test]
    fn page_boundary_growth_charges_incrementally() {
        let mut arena = ClauseArena::new();
        let mut meter = MemoryMeter::unlimited();
        // 200 literals = 800 bytes: one page.
        let wide: Vec<Lit> = (1..=200).map(Lit::from_dimacs).collect();
        arena.insert(1, &wide, &mut meter).unwrap();
        assert_eq!(arena.charged_bytes(), ARENA_PAGE_BYTES);
        // 200 more push the tail to 1600 bytes: a second page.
        arena.insert(2, &wide, &mut meter).unwrap();
        assert_eq!(arena.charged_bytes(), 2 * ARENA_PAGE_BYTES);
        assert_eq!(meter.current(), 2 * ARENA_PAGE_BYTES + 2 * ARENA_SLOT_BYTES);
    }

    #[test]
    fn empty_clauses_are_representable() {
        let mut arena = ClauseArena::new();
        let mut meter = MemoryMeter::unlimited();
        arena.insert(1, &[], &mut meter).unwrap();
        assert_eq!(arena.get(1).unwrap(), &[] as &[Lit]);
        assert_eq!(meter.current(), ARENA_SLOT_BYTES);
        arena.remove(1, &mut meter);
        assert_eq!(meter.current(), 0);
    }

    #[test]
    fn reset_recharges_like_a_cold_arena() {
        let mut arena = ClauseArena::new();
        let mut meter = MemoryMeter::unlimited();
        arena.insert(1, &lits(&[1, 2, 3]), &mut meter).unwrap();
        arena.remove(1, &mut meter);
        let cold_peak = meter.peak();

        arena.reset();
        assert_eq!(arena.len(), 0);
        assert_eq!(arena.charged_bytes(), 0);
        assert_eq!(arena.reuse_hits(), 0);
        assert!(arena.get(1).is_none());

        // The same insert sequence against a fresh meter charges the
        // identical bytes — reuse is invisible to the accounting.
        let mut meter2 = MemoryMeter::unlimited();
        arena.insert(1, &lits(&[1, 2, 3]), &mut meter2).unwrap();
        arena.remove(1, &mut meter2);
        assert_eq!(meter2.peak(), cold_peak);
    }

    #[test]
    fn memory_limit_stops_page_growth() {
        let mut arena = ClauseArena::new();
        let mut meter = MemoryMeter::with_limit(ARENA_PAGE_BYTES / 2);
        let err = arena.insert(1, &lits(&[1]), &mut meter).unwrap_err();
        assert!(matches!(err, CheckError::MemoryLimitExceeded { .. }));
        // A page that fits without its slot is refunded too: a failed
        // insert leaves the arena and the meter as they were, so the
        // caller can free budget and retry.
        let mut meter = MemoryMeter::with_limit(ARENA_PAGE_BYTES);
        assert!(arena.insert(1, &lits(&[1]), &mut meter).is_err());
        assert_eq!(
            (meter.current(), arena.charged_bytes(), arena.len()),
            (0, 0, 0)
        );
        let mut meter = MemoryMeter::with_limit(ARENA_PAGE_BYTES + ARENA_SLOT_BYTES);
        arena.insert(1, &lits(&[1]), &mut meter).unwrap();
        assert_eq!(arena.get(1).unwrap(), lits(&[1]).as_slice());
    }
}
