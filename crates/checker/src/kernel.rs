//! The literal-stamp resolution kernel: allocation-free chain resolution.
//!
//! The checker's hot loop — "resolve the distance clause with each
//! antecedent in order" (§3.2 of the paper) — previously called
//! [`resolve_sorted`](crate::resolve_sorted) once per antecedent. Each
//! call allocated a fresh resolvent `Vec` and re-merged the whole
//! accumulator, so a chain of `k` antecedents cost O(k·|acc|) literal
//! visits and `k` heap allocations. This kernel resolves the *entire*
//! chain against a literal-indexed stamp store instead: the seed clause
//! is stamped into the store, every antecedent is folded in
//! O(|antecedent|), and the sorted resolvent is materialized exactly once
//! at the end. Total work for a chain with literal mass `L` is O(L + |r|
//! log |r|) for a resolvent `r`, and all scratch buffers are reused
//! across chains, so steady-state resolution performs **zero heap
//! allocations** (tracked by [`KernelStats::scratch_grows`]).
//!
//! # Literal stamps
//!
//! `present[code]` holds a `u32` chain stamp: a literal is in the
//! accumulator exactly when its stamp equals the current generation, so
//! bumping the generation at [`ResolutionKernel::begin`] empties the
//! accumulator in O(1). A variable's two phases sit side by side (codes
//! `2v` and `2v + 1`), so one fold step reads both stamps of its
//! variable with one bounds check and picks its case by
//! compare-and-select, not by a branch per case:
//!
//! - the opposite phase is present: a **clash** — both stamps drop to 0
//!   and the variable is recorded as this step's pivot candidate;
//! - otherwise the literal's own stamp becomes the generation: a
//!   **merge** if it was already present, a **pass-through** (appended to
//!   the accumulator list) if not.
//!
//! # The tautological loop, and why it stays
//!
//! That rule is [`resolve_sorted`](crate::resolve_sorted)'s two-pointer
//! merge only while no clause of the chain holds both phases of a
//! variable. On a tautological input the merge pairs each antecedent
//! literal with the *smallest-code unpaired* accumulator literal of its
//! variable, which a single present/absent stamp cannot express. Solver
//! traces never contain such clauses, but the checker must reject or
//! accept a hostile trace exactly as the oracle would, so at the chain's
//! first tautological input (an adjacent same-variable pair in a sorted
//! clause — the seed or any antecedent) the kernel switches, for the rest
//! of the chain, to an exact pairing loop over a second stamp array:
//! `paired[code]` holds the number of the fold that last paired the
//! literal. Both loops are linear, and their resolvents and failures are
//! bit-identical to the oracle's. Switching between two antecedent
//! literals is exact because the literals a fold has already visited
//! belong to smaller variables than the ones it has yet to visit.
//!
//! Stamps are `u32`: the generation wraps after 2^32 − 1 chains and the
//! fold number after 2^32 − 1 tautological folds, and each wrap zeroes
//! its array once — no lane packing, no sweeps.
//!
//! `resolve_sorted` is the oracle: `tests/kernel_diff.rs` and the unit
//! tests below drive random and crafted chains through both and assert
//! identical resolvents and identical failures.

use crate::resolve::ResolveFailure;
use rescheck_cnf::{Lit, Var};

/// Counters describing the kernel's work and scratch-memory behaviour.
///
/// `scratch_grows` is the allocation-freedom witness: it increments only
/// when the kernel's scratch footprint (stamp arrays plus literal
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

/// A variable's two stamps, indexed by phase (`code & 1`).
type Stamps = [u32; 2];

/// Resolves chains of clauses against a literal-indexed stamp store.
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
    /// `present[var][phase]`: the chain stamp of each literal.
    present: Vec<Stamps>,
    /// `paired[var][phase]`: the fold that last paired each literal;
    /// sized and read only once a chain has turned tautological.
    paired: Vec<Stamps>,
    /// Chain stamp; bumping it empties the accumulator. 0 is never valid.
    generation: u32,
    /// Number of the current tautological fold. 0 is never valid.
    fold_seq: u32,
    /// Whether the current chain has met a tautological clause.
    exact: bool,
    /// Accumulator literals in insertion order, `lits[..len]`; entries
    /// whose stamp has since dropped are skipped at the end (lazy
    /// deletion). The buffer is kept at least one antecedent longer than
    /// `len`, so a fold appends without a capacity branch.
    lits: Vec<Lit>,
    len: usize,
    /// Clashing variables of the current fold, `clash[..clashes]`.
    clash: Vec<Var>,
    clashes: usize,
    /// Resolvent buffer returned by [`finish`](Self::finish).
    out: Vec<Lit>,
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
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            // A recycled generation must find no stale stamp.
            self.present.fill([0; 2]);
            self.generation = 1;
        }
        self.exact = false;
        self.len = 0;
        self.reserve(seed);
        let gen = self.generation;
        for (slot, &l) in self.lits.iter_mut().zip(seed) {
            self.present[l.var().index()][phase(l)] = gen;
            *slot = l;
        }
        self.len = seed.len();
        if seed.windows(2).any(|w| w[0].code() ^ w[1].code() == 1) {
            self.enter_exact();
        }
        self.stats.chains += 1;
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
        self.reserve(antecedent);
        if self.exact {
            self.fold_exact(antecedent);
        } else {
            self.fold_stamps(antecedent);
        }
        self.stats.literals_folded += antecedent.len() as u64;
        if self.clashes == 1 {
            Ok(self.clash[0])
        } else {
            Err(ResolveFailure {
                clashing_vars: self.clash[..self.clashes].to_vec(),
            })
        }
    }

    /// The fold while no clause of the chain is tautological: one
    /// stamp pair per literal, no branch on the case.
    fn fold_stamps(&mut self, antecedent: &[Lit]) {
        let gen = self.generation;
        let (mut len, mut clashes) = (self.len, 0);
        for (i, &l) in antecedent.iter().enumerate() {
            if antecedent
                .get(i + 1)
                .is_some_and(|next| next.code() ^ l.code() == 1)
            {
                // `l` and the next literal are both phases of one
                // variable: this literal and the rest take the exact
                // loop, for the rest of the chain.
                (self.len, self.clashes) = (len, clashes);
                self.enter_exact();
                self.pair_literals(&antecedent[i..]);
                return;
            }
            let stamps = &mut self.present[l.var().index()];
            let p = phase(l);
            let own = stamps[p] == gen;
            let opposite = stamps[p ^ 1] == gen;
            // A clash clears both phases; anything else stamps `l`.
            let keep = u32::from(opposite).wrapping_sub(1);
            stamps[p ^ 1] &= keep;
            stamps[p] = gen & keep;
            self.lits[len] = l;
            len += usize::from(!own & !opposite);
            self.clash[clashes] = l.var();
            clashes += usize::from(opposite);
        }
        (self.len, self.clashes) = (len, clashes);
    }

    /// Switches the current chain to the exact pairing loop.
    fn enter_exact(&mut self) {
        self.exact = true;
        if self.paired.len() < self.present.len() {
            self.paired.resize(self.present.len(), [0; 2]);
            self.note_footprint();
        }
        self.fold_seq = self.fold_seq.wrapping_add(1);
        if self.fold_seq == 0 {
            // A recycled fold number must find no stale pairing.
            self.paired.fill([0; 2]);
            self.fold_seq = 1;
        }
    }

    /// A whole fold in the exact loop.
    fn fold_exact(&mut self, antecedent: &[Lit]) {
        self.clashes = 0;
        self.enter_exact();
        self.pair_literals(antecedent);
    }

    /// `resolve_sorted`'s pairing, literal by literal: the variable's
    /// head is its smallest-code accumulator literal not yet paired in
    /// this fold.
    fn pair_literals(&mut self, literals: &[Lit]) {
        let (gen, fold) = (self.generation, self.fold_seq);
        for &l in literals {
            let v = l.var().index();
            let (present, paired) = (&mut self.present[v], &mut self.paired[v]);
            let live = |p: usize| present[p] == gen && paired[p] != fold;
            let head = if live(0) {
                Some(0)
            } else if live(1) {
                Some(1)
            } else {
                None
            };
            let p = phase(l);
            match head {
                None => {
                    present[p] = gen;
                    paired[p] = fold;
                    self.lits[self.len] = l;
                    self.len += 1;
                }
                Some(h) if h == p => paired[p] = fold,
                Some(h) => {
                    present[h] = 0;
                    self.clash[self.clashes] = l.var();
                    self.clashes += 1;
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
        let capacity = self.out.capacity();
        let gen = self.generation;
        for &l in &self.lits[..self.len] {
            let stamp = &mut self.present[l.var().index()][phase(l)];
            if *stamp == gen {
                // Unstamp on emit so lazily deleted duplicates are skipped.
                *stamp = 0;
                self.out.push(l);
            }
        }
        self.out.sort_unstable();
        if self.out.capacity() != capacity {
            self.note_footprint();
        }
        &self.out
    }

    /// Returns the kernel's lifetime counters.
    pub fn stats(&self) -> KernelStats {
        self.stats
    }

    /// Makes room for `clause`: stamps for its largest variable (its
    /// last literal, as it is sorted), and one clause's worth of spare
    /// accumulator and clash slots.
    #[inline]
    fn reserve(&mut self, clause: &[Lit]) {
        let vars = clause.last().map_or(0, |last| last.var().index() + 1);
        let len = clause.len();
        if self.present.len() < vars || self.lits.len() < self.len + len || self.clash.len() < len {
            self.grow(vars, len);
        }
    }

    /// [`reserve`](Self::reserve)'s growth path, off the fold's hot path.
    #[cold]
    #[inline(never)]
    fn grow(&mut self, vars: usize, len: usize) {
        if self.present.len() < vars {
            self.present.resize(vars, [0; 2]);
            if self.exact {
                self.paired.resize(vars, [0; 2]);
            }
        }
        let filler = Lit::from_code(0);
        if self.lits.len() < self.len + len {
            self.lits.resize(self.len + len, filler);
        }
        if self.clash.len() < len {
            self.clash.resize(len, Var::new(0));
        }
        self.note_footprint();
    }

    /// Updates `scratch_grows`/`scratch_high_water` from current buffer
    /// capacities.
    fn note_footprint(&mut self) {
        use std::mem::size_of;
        let bytes = ((self.present.capacity() + self.paired.capacity()) * size_of::<Stamps>()
            + (self.lits.capacity() + self.out.capacity()) * size_of::<Lit>()
            + self.clash.capacity() * size_of::<Var>()) as u64;
        if bytes > self.footprint {
            self.footprint = bytes;
            self.stats.scratch_grows += 1;
            self.stats.scratch_high_water = bytes;
        }
    }
}

/// A literal's phase, its index within its variable's stamps.
#[inline]
fn phase(l: Lit) -> usize {
    l.code() & 1
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

    #[test]
    fn u32_generation_wrap_flushes_stale_stamps() {
        // x42 keeps the stamp of generation 1: its chain never finished.
        let mut k = ResolutionKernel::new();
        k.begin(&lits(&[42]));
        // Skip ahead to the last generation; the next chain wraps to 1.
        k.generation = u32::MAX - 1;
        k.begin(&lits(&[1]));
        k.begin(&lits(&[7]));
        assert_eq!(k.generation, 1);
        // Unflushed, x42 would look present and merge instead of passing
        // through into the resolvent.
        k.fold(&lits(&[-7, 42])).unwrap();
        assert_eq!(k.finish(), lits(&[42]));
    }

    #[test]
    fn u32_fold_number_wrap_flushes_stale_pairings() {
        // A tautological seed puts the chain in the exact loop.
        let mut k = ResolutionKernel::new();
        k.begin(&lits(&[1, -1, 5]));
        // Fold number 1 pairs x1 (a merge) and clashes on x5.
        k.fold_seq = 0;
        assert_eq!(k.fold(&lits(&[1, -5])).unwrap(), Var::from_dimacs(5));
        // The next fold wraps back to number 1. Unflushed, x1 would look
        // paired already, so ¬x1 would merge with ¬x1 instead of
        // clashing with x1, the oracle's pairing.
        k.fold_seq = u32::MAX;
        let ant = lits(&[-1, 6]);
        assert_eq!(k.fold(&ant).unwrap(), Var::from_dimacs(1));
        assert_eq!(k.fold_seq, 1);
        assert_eq!(k.finish(), resolve_sorted(&lits(&[1, -1]), &ant).unwrap());
    }

    #[test]
    fn a_tautological_pair_mid_antecedent_switches_loops_exactly() {
        // The stamp loop has folded x1 when it meets the x3/¬x3 pair.
        let cases: &[(&[i64], &[i64])] = &[
            (&[-1, 2], &[1, 3, -3]),
            (&[-1, 3], &[1, 3, -3, 4]),
            (&[-1, -3], &[1, 3, -3]),
            (&[-1, 2, 3, -3], &[1, 3]),
        ];
        for (a, b) in cases {
            let oracle = resolve_sorted(&lits(a), &lits(b));
            assert_eq!(kernel_pair(a, b), oracle, "a={a:?} b={b:?}");
        }
    }
}
