//! Job-scoped checker scratch: reusable kernels, arenas and charges.
//!
//! A one-shot `rescheck check` builds a [`ResolutionKernel`], a
//! [`ClauseArena`] and an original-clause ledger, uses them once, and
//! throws them away with the process. A long-lived validation service
//! (`rescheck serve`) runs thousands of jobs per process, so those
//! buffers are worth keeping: the kernel's stamp arrays stay sized for the
//! largest formula seen, and the arena's literal tail keeps its capacity.
//! Normalized original clauses are not scratch: they live in the
//! formula's [`NormalizedClauses`](crate::NormalizedClauses), which every
//! job on the formula shares.
//!
//! The ownership rules are strict because the accounting must stay
//! deterministic:
//!
//! - A [`CheckScratch`] is owned by exactly one job at a time. The
//!   [`ScratchPool`] hands them out ([`checkout`]) and takes them back
//!   ([`checkin`]); a scratch poisoned by a panicking job is simply
//!   dropped instead of returned.
//! - Every run begins with [`CheckScratch::start_run`] (called when an
//!   engine starts its chain step): the arena is reset, every original
//!   is uncharged, and the kernel's stat counters are snapshotted so
//!   per-job metrics report deltas, not lifetime totals.
//! - Accounting is unchanged by reuse: originals are charged to the
//!   current job's [`MemoryMeter`](crate::MemoryMeter) at first touch,
//!   and the arena re-charges its pages from zero. Per-job
//!   `peak_memory_bytes` is bit-identical to a one-shot check's, whatever
//!   formulas the scratch checked before.
//!
//! [`checkout`]: ScratchPool::checkout
//! [`checkin`]: ScratchPool::checkin

use crate::arena::ClauseArena;
use crate::cache::OriginalCache;
use crate::kernel::{KernelStats, ResolutionKernel};
use std::sync::Mutex;

/// Reusable per-job checker state: kernel, arena and original charges.
///
/// See the [module docs](self) for the ownership and accounting rules.
///
/// # Examples
///
/// ```
/// use rescheck_checker::{CheckScratch, ScratchPool};
///
/// let pool = ScratchPool::new();
/// let scratch = pool.checkout();
/// // … run check_unsat_claim_scoped with it …
/// pool.checkin(scratch);
/// assert_eq!(pool.len(), 1);
/// ```
#[derive(Default)]
pub struct CheckScratch {
    kernel: ResolutionKernel,
    arena: ClauseArena,
    originals: OriginalCache,
}

impl CheckScratch {
    /// A cold scratch, equivalent to what a one-shot check builds.
    pub fn new() -> Self {
        CheckScratch::default()
    }

    /// Prepares the scratch for one run on a formula of `num_clauses`
    /// clauses with `learned` learned clauses and returns the
    /// kernel-stats baseline (for per-job delta reporting).
    pub(crate) fn start_run(&mut self, num_clauses: usize, learned: usize) -> KernelStats {
        self.arena.reset(learned);
        self.originals.reset(num_clauses);
        self.kernel.stats()
    }

    /// Splits the scratch into its independently borrowed parts.
    pub(crate) fn parts(
        &mut self,
    ) -> (&mut ResolutionKernel, &mut ClauseArena, &mut OriginalCache) {
        (&mut self.kernel, &mut self.arena, &mut self.originals)
    }
}

/// Reports `now` relative to `base`: monotone counters as deltas, the
/// high-water mark as-is (it is a lifetime peak, not a rate).
pub(crate) fn kernel_stats_since(now: &KernelStats, base: &KernelStats) -> KernelStats {
    KernelStats {
        chains: now.chains - base.chains,
        literals_folded: now.literals_folded - base.literals_folded,
        scratch_grows: now.scratch_grows - base.scratch_grows,
        scratch_high_water: now.scratch_high_water,
    }
}

/// A shared pool of [`CheckScratch`]es for a worker fleet.
///
/// Checkout order is LIFO (most recently returned first), so the
/// scratch handed out is the one whose buffers were touched last.
#[derive(Default)]
pub struct ScratchPool {
    inner: Mutex<Vec<CheckScratch>>,
}

impl ScratchPool {
    /// An empty pool; scratches are created on demand.
    pub fn new() -> Self {
        ScratchPool::default()
    }

    /// Takes a scratch out of the pool, building a cold one if empty.
    pub fn checkout(&self) -> CheckScratch {
        self.inner
            .lock()
            .expect("scratch pool lock")
            .pop()
            .unwrap_or_default()
    }

    /// Returns a scratch for reuse. Never return a scratch whose job
    /// panicked — drop it instead; its buffers may be mid-mutation.
    pub fn checkin(&self, scratch: CheckScratch) {
        self.inner.lock().expect("scratch pool lock").push(scratch);
    }

    /// Number of idle scratches currently pooled.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("scratch pool lock").len()
    }

    /// Whether the pool currently holds no idle scratch.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agreement::ALL_STRATEGIES;
    use crate::api::{check_unsat_claim_scoped, CheckConfig};
    use crate::cache::NormalizedClauses;
    use crate::outcome::{check_stats_json, CheckOutcome};
    use rescheck_cnf::{Cnf, Lit};
    use rescheck_obs::NullObserver;
    use rescheck_trace::{MemorySink, TraceSink};
    use std::time::Duration;

    /// A proof touching several distinct original clauses.
    fn fixture() -> (Cnf, MemorySink) {
        let mut cnf = Cnf::new();
        cnf.add_dimacs_clause(&[1, 2]);
        cnf.add_dimacs_clause(&[1, -2]);
        cnf.add_dimacs_clause(&[-1, 2]);
        cnf.add_dimacs_clause(&[-1, -2]);
        let mut sink = MemorySink::new();
        sink.learned(4, &[0, 1]).unwrap(); // (1)
        sink.learned(5, &[2, 3]).unwrap(); // (-1)
        sink.level_zero(Lit::from_dimacs(1), 4).unwrap();
        sink.final_conflict(5).unwrap();
        (cnf, sink)
    }

    /// Formula B: clause ids that overlap A's but mean other literals.
    fn fixture_b() -> (Cnf, MemorySink) {
        let mut cnf = Cnf::new();
        cnf.add_dimacs_clause(&[3]);
        cnf.add_dimacs_clause(&[-3, 4]);
        cnf.add_dimacs_clause(&[-4]);
        let mut sink = MemorySink::new();
        sink.learned(3, &[0, 1]).unwrap(); // (4)
        sink.level_zero(Lit::from_dimacs(4), 3).unwrap();
        sink.final_conflict(2).unwrap();
        (cnf, sink)
    }

    /// One scratch checking formulas A, B, A in turn reports each
    /// formula's one-shot stats: its charges never leak from one job to
    /// the next, and ids from one formula never read another's clauses.
    #[test]
    fn one_scratch_across_formulas_reports_one_shot_stats() {
        let formulas = [fixture(), fixture_b(), fixture()];
        let config = CheckConfig::default();
        for strategy in ALL_STRATEGIES {
            let mut scratch = CheckScratch::new();
            for (cnf, sink) in &formulas {
                let one_shot = crate::api::check_unsat_claim(cnf, sink, strategy, &config).unwrap();
                let scoped = check_unsat_claim_scoped(
                    cnf,
                    &NormalizedClauses::new(cnf),
                    sink,
                    strategy,
                    &config,
                    &mut scratch,
                    &mut NullObserver,
                )
                .unwrap();
                assert_eq!(stat_line(one_shot), stat_line(scoped), "{strategy}");
            }
        }
    }

    /// Scoped runs match unscoped one-shot runs exactly — the parity the
    /// serve campaign acceptance test relies on.
    #[test]
    fn scoped_runs_match_one_shot_runs() {
        let (cnf, sink) = fixture();
        let config = CheckConfig::default();
        for strategy in ALL_STRATEGIES {
            let one_shot = crate::api::check_unsat_claim(&cnf, &sink, strategy, &config).unwrap();
            let scoped = check_unsat_claim_scoped(
                &cnf,
                &NormalizedClauses::new(&cnf),
                &sink,
                strategy,
                &config,
                &mut CheckScratch::new(),
                &mut NullObserver,
            )
            .unwrap();
            assert_eq!(stat_line(one_shot), stat_line(scoped), "{strategy}");
        }
    }

    /// The stat line (run time aside) and the core.
    fn stat_line(mut outcome: CheckOutcome) -> (String, Option<Vec<usize>>) {
        outcome.stats.runtime = Duration::ZERO;
        let line = check_stats_json(&outcome.stats).to_string();
        (line, outcome.core.map(|core| core.clause_ids))
    }

    #[test]
    fn pool_is_lifo_and_grows_on_demand() {
        let pool = ScratchPool::new();
        assert!(pool.is_empty());
        let a = pool.checkout(); // built on demand
        let b = pool.checkout();
        assert_eq!(pool.len(), 0);
        pool.checkin(a);
        pool.checkin(b);
        assert_eq!(pool.len(), 2);
        let _again = pool.checkout();
        assert_eq!(pool.len(), 1);
    }

    #[test]
    fn kernel_stats_delta_subtracts_counters() {
        let base = KernelStats {
            chains: 10,
            literals_folded: 100,
            scratch_grows: 3,
            scratch_high_water: 512,
        };
        let now = KernelStats {
            chains: 15,
            literals_folded: 180,
            scratch_grows: 3,
            scratch_high_water: 512,
        };
        let d = kernel_stats_since(&now, &base);
        assert_eq!(d.chains, 5);
        assert_eq!(d.literals_folded, 80);
        assert_eq!(d.scratch_grows, 0);
        assert_eq!(d.scratch_high_water, 512);
    }
}
