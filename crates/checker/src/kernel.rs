//! The mark-array resolution kernel: allocation-free chain resolution.
//!
//! The checker's hot loop — "resolve the distance clause with each
//! antecedent in order" (§3.2 of the paper) — previously called
//! [`resolve_sorted`](crate::resolve_sorted) once per antecedent. Each
//! call allocated a fresh resolvent `Vec` and re-merged the whole
//! accumulator, so a chain of `k` antecedents cost O(k·|acc|) literal
//! visits and `k` heap allocations. This kernel resolves the *entire*
//! chain against a variable-indexed stamp store instead: the seed clause
//! is marked into the store, every antecedent is folded in
//! O(|antecedent|), and the sorted resolvent is materialized exactly once
//! at the end. Total work for a chain with literal mass `L` is O(L + |r|
//! log |r|) for a resolvent `r`, and all scratch buffers are reused
//! across chains, so steady-state resolution performs **zero heap
//! allocations** (tracked by [`KernelStats::scratch_grows`]).
//!
//! The fold replicates `resolve_sorted`'s two-pointer merge semantics
//! bit-for-bit — including its behaviour on tautological inputs, where a
//! clause may contain both phases of a variable. `resolve_sorted` pairs
//! each antecedent literal with the *smallest-code unpaired* literal of
//! the same variable in the accumulator: equal literals merge, opposite
//! literals clash (both are consumed), and unpaired literals pass
//! through. The kernel reproduces this with two stamps per literal:
//! `present` (is this literal in the accumulator, stamped with the chain
//! generation) and `paired` (was this literal already paired during the
//! current fold, stamped with a fold sequence number). Bumping the
//! generation or the sequence number invalidates every stamp in O(1), so
//! nothing is ever cleared eagerly.
//!
//! # The SWAR stamp layout
//!
//! The kernel packs all four stamps of a variable — present/paired for
//! each phase, 16 bits each — into **one `u64` lane word** per variable.
//! Probing a variable is then a single load and a couple of XOR/mask
//! operations on the packed lanes (SIMD-within-a-register) instead of up
//! to four spread-out loads across two code-indexed arrays, and the lane
//! store takes 8 bytes per variable. The price is 16-bit stamps: when a
//! counter wraps, the kernel re-establishes the invariant explicitly — a
//! full lane-store flush at a chain boundary for the generation, a
//! targeted un-pairing sweep over the accumulator for a mid-chain fold
//! sequence wrap — both amortized over 65 534 chains/folds.
//!
//! `resolve_sorted` is the oracle: `tests/kernel_diff.rs` and the unit
//! tests below drive random and crafted chains through both and assert
//! identical resolvents and identical failures.

use crate::resolve::ResolveFailure;
use rescheck_cnf::{Lit, Var};

/// Counters describing the kernel's work and scratch-memory behaviour.
///
/// `scratch_grows` is the allocation-freedom witness: it increments only
/// when the kernel's scratch footprint (mark arrays plus literal
/// buffers) grows. Once the kernel has seen the widest chain of a run it
/// stops incrementing, proving the steady state allocates nothing.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KernelStats {
    /// Number of chains resolved (one per [`ResolutionKernel::begin`]).
    pub chains: u64,
    /// Total antecedent literals folded into accumulators.
    pub literals_folded: u64,
    /// Number of times the scratch footprint grew (reallocations).
    pub scratch_grows: u64,
    /// Peak scratch footprint in bytes across the kernel's lifetime.
    pub scratch_high_water: u64,
}

/// Lane offsets inside a packed SWAR word. Phase `pos` is the
/// smaller-code literal, so it is probed first to preserve
/// `resolve_sorted`'s smallest-code pairing order.
const PRESENT_POS: u32 = 0;
const PRESENT_NEG: u32 = 16;
const PAIRED_POS: u32 = 32;
const PAIRED_NEG: u32 = 48;
const LANE: u64 = 0xFFFF;

/// Resolves chains of clauses against a variable-indexed mark store.
///
/// Usage: [`begin`](Self::begin) with the seed clause, then
/// [`fold`](Self::fold) each antecedent in order (each fold enforces the
/// exactly-one-clash invariant and reports the pivot variable), then
/// [`finish`](Self::finish) to materialize the sorted resolvent.
///
/// All clauses handed to the kernel must be normalized (sorted,
/// duplicate-free), as produced by
/// [`normalize_literals`](crate::normalize_literals).
///
/// # Examples
///
/// ```
/// use rescheck_checker::kernel::ResolutionKernel;
/// use rescheck_checker::normalize_literals;
/// use rescheck_cnf::Lit;
///
/// let mut k = ResolutionKernel::new();
/// // (x + y) resolved with (¬y + z) gives (x + z).
/// k.begin(&normalize_literals([Lit::from_dimacs(1), Lit::from_dimacs(2)]));
/// let pivot = k
///     .fold(&normalize_literals([Lit::from_dimacs(-2), Lit::from_dimacs(3)]))
///     .unwrap();
/// assert_eq!(pivot.to_dimacs(), 2);
/// assert_eq!(
///     k.finish(),
///     normalize_literals([Lit::from_dimacs(1), Lit::from_dimacs(3)])
/// );
/// ```
#[derive(Debug, Default)]
pub struct ResolutionKernel {
    /// Lane store: `marks[var]` packs present/paired for both phases, 16
    /// bits each (see the module docs for the layout).
    marks: Vec<u64>,
    /// Chain stamp; bumping it empties the accumulator. 0 is never valid
    /// (flushed lanes hold 0).
    generation: u16,
    /// Fold stamp; bumping it "unpairs" everything. 0 is never valid.
    fold_seq: u16,
    /// Insertion-ordered accumulator literals; may contain entries whose
    /// `present` lane has since been cleared (lazy deletion).
    lits: Vec<Lit>,
    /// Resolvent buffer returned by [`finish`](Self::finish).
    out: Vec<Lit>,
    /// Clashing variables found by the current fold.
    clash: Vec<Var>,
    stats: KernelStats,
    /// Last observed scratch footprint in bytes, for growth tracking.
    footprint: u64,
}

impl ResolutionKernel {
    /// Creates a kernel with empty scratch buffers.
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts a new chain seeded with `seed`'s literals.
    ///
    /// Any in-progress chain is discarded (its stamps are invalidated in
    /// O(1) by bumping the generation).
    pub fn begin(&mut self, seed: &[Lit]) {
        debug_assert!(
            seed.windows(2).all(|w| w[0] < w[1]),
            "seed clause not normalized"
        );
        self.lits.clear();
        // Both 16-bit stamps advance at the chain boundary; a wrap of
        // either re-establishes "no lane holds the current stamp" the
        // explicit way — by flushing the lane store.
        let (gen, fseq) = (
            self.generation.wrapping_add(1),
            self.fold_seq.wrapping_add(1),
        );
        if gen == 0 || fseq == 0 {
            self.marks.fill(0);
            self.generation = 1;
            self.fold_seq = 1;
        } else {
            self.generation = gen;
            self.fold_seq = fseq;
        }
        if let Some(max) = seed.iter().map(|l| l.var().index()).max() {
            if max >= self.marks.len() {
                self.marks.resize(max + 1, 0);
            }
        }
        let gen = self.generation as u64;
        for &l in seed {
            let v = l.var().index();
            let (pshift, dshift) = lane_shifts(l);
            // Mark present with the fresh generation and clear the paired
            // lane: a stale 16-bit pairing stamp could otherwise collide
            // with a future fold sequence number (0 never matches).
            self.marks[v] =
                (self.marks[v] & !((LANE << pshift) | (LANE << dshift))) | (gen << pshift);
            self.lits.push(l);
        }
        self.stats.chains += 1;
        self.note_footprint();
    }

    /// Folds one antecedent into the accumulator.
    ///
    /// Performs exactly the per-variable pairing `resolve_sorted` does:
    /// each antecedent literal pairs with the smallest-code unpaired
    /// accumulator literal of its variable — merging if equal, clashing
    /// (both consumed) if opposite — or joins the accumulator if no
    /// partner is available.
    ///
    /// Returns the pivot variable eliminated by this step.
    ///
    /// # Errors
    ///
    /// Returns [`ResolveFailure`] when the step has zero clashing
    /// variables or more than one, with `clashing_vars` identical to what
    /// [`resolve_sorted`](crate::resolve_sorted) would report for the
    /// same pair of clauses.
    pub fn fold(&mut self, antecedent: &[Lit]) -> Result<Var, ResolveFailure> {
        debug_assert!(
            antecedent.windows(2).all(|w| w[0] < w[1]),
            "antecedent clause not normalized"
        );
        self.clash.clear();
        self.fold_lanes(antecedent);
        self.stats.literals_folded += antecedent.len() as u64;
        self.note_footprint();
        if self.clash.len() == 1 {
            Ok(self.clash[0])
        } else {
            Err(ResolveFailure {
                clashing_vars: self.clash.clone(),
            })
        }
    }

    fn fold_lanes(&mut self, antecedent: &[Lit]) {
        let fseq = self.fold_seq.wrapping_add(1);
        self.fold_seq = if fseq == 0 {
            // Mid-chain wrap: the accumulator must survive, so instead of
            // flushing we un-pair exactly the lanes a stale stamp could
            // live in — every variable ever touched by this chain is in
            // `lits` (lazily-deleted entries included).
            const PAIRED_LANES: u64 = (LANE << PAIRED_POS) | (LANE << PAIRED_NEG);
            for i in 0..self.lits.len() {
                let v = self.lits[i].var().index();
                self.marks[v] &= !PAIRED_LANES;
            }
            1
        } else {
            fseq
        };
        if let Some(max) = antecedent.iter().map(|l| l.var().index()).max() {
            if max >= self.marks.len() {
                self.marks.resize(max + 1, 0);
            }
        }
        let gen = self.generation as u64;
        let fseq = self.fold_seq as u64;
        // Broadcast word: XOR-ing it against a lane word zeroes the
        // present lanes that match the generation and the paired lanes
        // that match the fold stamp — one load + one XOR probes all four
        // stamps of the variable.
        let broadcast = (gen << PRESENT_POS)
            | (gen << PRESENT_NEG)
            | (fseq << PAIRED_POS)
            | (fseq << PAIRED_NEG);
        for &l in antecedent {
            let v = l.var().index();
            let probe = self.marks[v] ^ broadcast;
            let pos_head = probe & (LANE << PRESENT_POS) == 0 && probe & (LANE << PAIRED_POS) != 0;
            let neg_head = probe & (LANE << PRESENT_NEG) == 0 && probe & (LANE << PAIRED_NEG) != 0;
            let own_neg = l.is_negative();
            // Positive is the smaller code, so it is the head when both
            // phases are live and unpaired.
            match (pos_head, neg_head) {
                (false, false) => {
                    // No partner: the antecedent literal passes through.
                    let (pshift, dshift) = lane_shifts(l);
                    self.marks[v] = (self.marks[v] & !((LANE << pshift) | (LANE << dshift)))
                        | (gen << pshift)
                        | (fseq << dshift);
                    self.lits.push(l);
                }
                (true, _) if !own_neg => {
                    // Head is the positive literal and so is ours: merge.
                    self.marks[v] = (self.marks[v] & !(LANE << PAIRED_POS)) | (fseq << PAIRED_POS);
                }
                (_, true) if own_neg && !pos_head => {
                    // Head is the negative literal and so is ours: merge.
                    self.marks[v] = (self.marks[v] & !(LANE << PAIRED_NEG)) | (fseq << PAIRED_NEG);
                }
                _ => {
                    // Head is the opposite phase: a clash, consumed.
                    let head_shift = if pos_head { PRESENT_POS } else { PRESENT_NEG };
                    self.marks[v] &= !(LANE << head_shift);
                    self.clash.push(l.var());
                }
            }
        }
    }

    /// Materializes the chain's resolvent as a sorted, duplicate-free
    /// literal slice.
    ///
    /// Consumes the chain: the returned slice stays valid until the next
    /// call on the kernel, and a fresh [`begin`](Self::begin) is needed
    /// to start the next chain.
    pub fn finish(&mut self) -> &[Lit] {
        self.out.clear();
        let gen = self.generation as u64;
        for i in 0..self.lits.len() {
            let l = self.lits[i];
            let v = l.var().index();
            let (pshift, _) = lane_shifts(l);
            if (self.marks[v] >> pshift) & LANE == gen {
                // Unmark on emit so lazily-deleted duplicates are skipped.
                self.marks[v] &= !(LANE << pshift);
                self.out.push(l);
            }
        }
        self.out.sort_unstable();
        self.note_footprint();
        &self.out
    }

    /// Returns the kernel's lifetime counters.
    pub fn stats(&self) -> KernelStats {
        self.stats
    }

    /// Updates `scratch_grows`/`scratch_high_water` from current buffer
    /// capacities.
    fn note_footprint(&mut self) {
        use std::mem::size_of;
        let bytes = (self.marks.capacity() * size_of::<u64>()
            + self.lits.capacity() * size_of::<Lit>()
            + self.out.capacity() * size_of::<Lit>()
            + self.clash.capacity() * size_of::<Var>()) as u64;
        if bytes > self.footprint {
            self.footprint = bytes;
            self.stats.scratch_grows += 1;
            self.stats.scratch_high_water = bytes;
        }
    }
}

/// (present, paired) lane shifts for a literal's phase.
#[inline]
fn lane_shifts(l: Lit) -> (u32, u32) {
    if l.is_negative() {
        (PRESENT_NEG, PAIRED_NEG)
    } else {
        (PRESENT_POS, PAIRED_POS)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resolve::{normalize_literals, resolve_sorted};

    fn lits(ds: &[i64]) -> Vec<Lit> {
        normalize_literals(ds.iter().map(|&d| Lit::from_dimacs(d)))
    }

    /// Resolves a two-clause chain through the kernel.
    fn kernel_pair(a: &[i64], b: &[i64]) -> Result<Vec<Lit>, ResolveFailure> {
        let mut k = ResolutionKernel::new();
        k.begin(&lits(a));
        k.fold(&lits(b))?;
        Ok(k.finish().to_vec())
    }

    #[test]
    fn paper_example() {
        assert_eq!(kernel_pair(&[1, 2], &[-2, 3]).unwrap(), lits(&[1, 3]));
    }

    #[test]
    fn unit_resolution_to_empty_clause() {
        assert!(kernel_pair(&[5], &[-5]).unwrap().is_empty());
    }

    #[test]
    fn shared_literals_are_merged_once() {
        assert_eq!(
            kernel_pair(&[1, 2, 3], &[-3, 1, 4]).unwrap(),
            lits(&[1, 2, 4])
        );
    }

    #[test]
    fn no_clash_is_an_error() {
        let err = kernel_pair(&[1, 2], &[3, 4]).unwrap_err();
        assert!(err.clashing_vars.is_empty());
    }

    #[test]
    fn double_clash_is_an_error() {
        let err = kernel_pair(&[1, 2], &[-1, -2]).unwrap_err();
        assert_eq!(
            err.clashing_vars,
            vec![Var::from_dimacs(1), Var::from_dimacs(2)]
        );
    }

    #[test]
    fn fold_reports_the_pivot() {
        let mut k = ResolutionKernel::new();
        k.begin(&lits(&[1, -2, 4]));
        assert_eq!(k.fold(&lits(&[2, 5])).unwrap(), Var::from_dimacs(2));
        assert_eq!(k.finish(), lits(&[1, 4, 5]));
    }

    #[test]
    fn long_chain_matches_iterated_oracle() {
        // Seed (p1 + x1), antecedents (¬p_i + p_{i+1} + x_{i+1}).
        let mut acc = lits(&[100, 1]);
        let mut k = ResolutionKernel::new();
        k.begin(&acc);
        for i in 1..40i64 {
            let ant = lits(&[-(100 + i - 1), 100 + i, i + 1]);
            acc = resolve_sorted(&acc, &ant).unwrap();
            assert_eq!(
                k.fold(&ant).unwrap(),
                Var::from_dimacs((100 + i - 1) as u32)
            );
        }
        assert_eq!(k.finish(), acc);
    }

    /// The per-variable pairing case table that distinguishes the kernel
    /// from a naive "negation present → clash" mark scheme. Each case is
    /// checked against the oracle.
    #[test]
    fn tautological_inputs_match_the_oracle() {
        let cases: &[(&[i64], &[i64])] = &[
            (&[7, -7], &[-7]),    // clash on x7, ¬x7 survives
            (&[7, -7], &[7]),     // no clash, both survive
            (&[-7], &[7, -7]),    // clash on x7, ¬x7 re-emitted
            (&[9], &[7, -7]),     // no clash, tautology passes through
            (&[7], &[7, -7]),     // no clash, both phases in output
            (&[7, -7], &[7, -7]), // both merge, no clash
        ];
        for (a, b) in cases {
            let oracle = resolve_sorted(&lits(a), &lits(b));
            let ours = kernel_pair(a, b);
            assert_eq!(ours, oracle, "diverged on a={a:?} b={b:?}");
        }
    }

    #[test]
    fn scratch_growth_stops_in_steady_state() {
        let mut k = ResolutionKernel::new();
        let seed = lits(&[1, 2, 3]);
        let ant = lits(&[-3, 4]);
        for _ in 0..3 {
            k.begin(&seed);
            k.fold(&ant).unwrap();
            k.finish();
        }
        let warm = k.stats();
        for _ in 0..100 {
            k.begin(&seed);
            k.fold(&ant).unwrap();
            k.finish();
        }
        let steady = k.stats();
        assert_eq!(steady.scratch_grows, warm.scratch_grows);
        assert_eq!(steady.scratch_high_water, warm.scratch_high_water);
        assert_eq!(steady.chains, warm.chains + 100);
        assert_eq!(steady.literals_folded, warm.literals_folded + 200);
    }

    #[test]
    fn kernel_is_reusable_after_a_failed_fold() {
        let mut k = ResolutionKernel::new();
        k.begin(&lits(&[1, 2]));
        assert!(k.fold(&lits(&[3, 4])).is_err());
        // The failed chain leaves no residue in the next one.
        k.begin(&lits(&[5]));
        k.fold(&lits(&[-5, 6])).unwrap();
        assert_eq!(k.finish(), lits(&[6]));
    }

    #[test]
    fn finish_without_folds_returns_the_seed() {
        let mut k = ResolutionKernel::new();
        k.begin(&lits(&[3, -1, 2]));
        assert_eq!(k.finish(), lits(&[-1, 2, 3]));
    }

    #[test]
    fn generation_wrap_flushes_stale_stamps() {
        // Drive the 16-bit generation around its full range; a literal
        // marked 65 535 chains ago must not look present afterwards.
        let mut k = ResolutionKernel::new();
        k.begin(&lits(&[42]));
        assert_eq!(k.finish(), lits(&[42]));
        for _ in 0..=u16::MAX as usize {
            k.begin(&lits(&[1]));
            // No finish: x42's stamp from the first chain goes stale
            // rather than being cleared on emit.
        }
        // If the wrap left x42's old stamp matching the recycled
        // generation, this chain would wrongly see x42 present and merge
        // instead of passing it through.
        k.begin(&lits(&[7]));
        k.fold(&lits(&[-7, 42])).unwrap();
        assert_eq!(k.finish(), lits(&[42]));
    }

    #[test]
    fn mid_chain_fold_seq_wrap_preserves_the_accumulator() {
        // One chain with more folds than the 16-bit fold stamp can count:
        // the wrap must un-pair without flushing the accumulator.
        let n = u16::MAX as i64 + 40;
        let mut k = ResolutionKernel::new();
        k.begin(&lits(&[1]));
        for i in 1..=n {
            // (¬p_i ∨ p_{i+1}): clash on p_i, deposit p_{i+1}.
            k.fold(&lits(&[-i, i + 1])).unwrap();
        }
        assert_eq!(k.finish(), lits(&[n + 1]));
    }

    #[test]
    fn fold_seq_wrap_does_not_resurrect_stale_pairings() {
        // Exercise the targeted un-pair sweep with a tautological
        // accumulator, where pairing order is what distinguishes the
        // kernel from a naive mark scheme.
        let mut k = ResolutionKernel::new();
        k.begin(&lits(&[1]));
        for i in 1..=u16::MAX as i64 {
            k.fold(&lits(&[-i, i + 1])).unwrap();
        }
        // Right after the wrap, fold a tautological antecedent and check
        // against the oracle on the same pair.
        let acc = k.finish().to_vec();
        let taut = lits(&[-(u16::MAX as i64 + 1), u16::MAX as i64 + 1]);
        let oracle = resolve_sorted(&acc, &taut);
        let mut k2 = ResolutionKernel::new();
        k2.begin(&acc);
        let ours = k2.fold(&taut).map(|_| k2.finish().to_vec());
        assert_eq!(ours.ok(), oracle.ok());
    }
}
