//! Job-scoped checker scratch: reusable kernels, arenas and caches.
//!
//! A one-shot `rescheck check` builds a [`ResolutionKernel`], a
//! [`ClauseArena`] and an original-clause cache, uses them once, and
//! throws them away with the process. A long-lived validation service
//! (`rescheck serve`) runs thousands of jobs per process, so those
//! buffers are worth keeping: the kernel's mark arrays stay sized for the
//! largest formula seen, the arena's literal tail keeps its capacity, and
//! — when two consecutive jobs check the *same* formula — the normalized
//! original clauses survive as a warm tier.
//!
//! The ownership rules are strict because the accounting must stay
//! deterministic:
//!
//! - A [`CheckScratch`] is owned by exactly one job at a time. The
//!   [`ScratchPool`] hands them out ([`checkout`]) and takes them back
//!   ([`checkin`]); a scratch poisoned by a panicking job is simply
//!   dropped instead of returned.
//! - Every run begins with [`CheckScratch::start_run`] (called when a
//!   sequential engine starts its chain step): the arena is reset, the
//!   cache is demoted to its warm tier, and the kernel's stat counters
//!   are snapshotted so per-job metrics report deltas, not lifetime
//!   totals.
//! - Warm reuse of cached original clauses requires the caller to
//!   *declare* formula identity via [`CheckScratch::begin_job`] with a
//!   stable token. Two consecutive runs declaring the same token keep the
//!   warm tier; anything else clears it — clause ids from one formula
//!   must never resolve against another.
//! - Accounting is unchanged by reuse: warm promotions are charged to the
//!   current job's [`MemoryMeter`](crate::MemoryMeter) at the same
//!   first-touch point a cold run pays, and the arena re-charges its
//!   pages from zero. Per-job `peak_memory_bytes` is bit-identical warm
//!   vs cold — the invariant the double-charge regression test pins down.
//!
//! [`checkout`]: ScratchPool::checkout
//! [`checkin`]: ScratchPool::checkin

use crate::arena::ClauseArena;
use crate::cache::OriginalCache;
use crate::kernel::{KernelStats, ResolutionKernel};
use std::sync::Mutex;

/// Reusable per-job checker state: kernel, arena and original cache.
///
/// See the [module docs](self) for the ownership and accounting rules.
///
/// # Examples
///
/// ```
/// use rescheck_checker::{CheckScratch, ScratchPool};
///
/// let pool = ScratchPool::new();
/// let mut scratch = pool.checkout();
/// scratch.begin_job(0x1234); // declare which formula the job is for
/// // … run check_unsat_claim_scoped with it …
/// pool.checkin(scratch);
/// assert_eq!(pool.len(), 1);
/// ```
#[derive(Default)]
pub struct CheckScratch {
    kernel: ResolutionKernel,
    arena: ClauseArena,
    originals: OriginalCache,
    /// Formula identity of the current warm-tier contents.
    token: Option<u64>,
    /// Identity declared (via [`CheckScratch::begin_job`]) for the next
    /// run; consumed by [`CheckScratch::start_run`].
    next_token: Option<u64>,
}

impl CheckScratch {
    /// A cold scratch, equivalent to what a one-shot check builds.
    pub fn new() -> Self {
        CheckScratch {
            kernel: ResolutionKernel::new(),
            arena: ClauseArena::new(),
            originals: OriginalCache::default(),
            token: None,
            next_token: None,
        }
    }

    /// Declares the formula the next run will check, enabling warm reuse
    /// of cached original clauses when `formula_token` matches the
    /// previous run's declaration. The token must be a stable identity of
    /// the formula *content* (the serve daemon hashes the CNF bytes);
    /// runs without a declaration always start cold.
    pub fn begin_job(&mut self, formula_token: u64) {
        self.next_token = Some(formula_token);
    }

    /// Number of original-clause normalizations the warm tier has saved
    /// over this scratch's lifetime.
    pub fn warm_hits(&self) -> u64 {
        self.originals.warm_hits()
    }

    /// Prepares the scratch for one run and returns the kernel-stats
    /// baseline (for per-job delta reporting). Called by every chain
    /// step — defensively, so a caller that forgets
    /// [`CheckScratch::begin_job`] gets a correct cold run, never stale
    /// clauses from another formula.
    pub(crate) fn start_run(&mut self) -> KernelStats {
        self.arena.reset();
        let declared = self.next_token.take();
        if declared.is_some() && declared == self.token {
            // Same formula back to back: keep normalized originals warm.
            self.originals.begin_job();
        } else {
            self.originals.reset();
        }
        self.token = declared;
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
/// Checkout order is LIFO (most recently returned first), which maximizes
/// the chance that a job on the same formula gets the scratch still warm
/// with its normalized clauses.
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
    use crate::api::{check_unsat_claim_scoped, CheckConfig};
    use crate::outcome::Strategy;
    use rescheck_cnf::{Cnf, Lit};
    use rescheck_obs::NullObserver;
    use rescheck_trace::{MemorySink, TraceSink};

    /// Every strategy that runs on the caller's scratch.
    const SEQUENTIAL: [Strategy; 5] = [
        Strategy::DepthFirst,
        Strategy::BreadthFirst,
        Strategy::Hybrid,
        Strategy::DiskDepthFirst,
        Strategy::Portfolio,
    ];

    /// A proof touching several distinct original clauses, so the
    /// original cache actually holds entries worth keeping warm.
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

    /// The satellite regression: two jobs on the same formula from the
    /// same warm scratch must report bit-identical peak bytes — the
    /// shared original-clause cache is never double-charged and never
    /// under-charged.
    #[test]
    fn warm_and_cold_jobs_account_identical_peaks() {
        let (cnf, sink) = fixture();
        let config = CheckConfig::default();
        for strategy in SEQUENTIAL {
            let mut scratch = CheckScratch::new();
            scratch.begin_job(42);
            let cold = check_unsat_claim_scoped(
                &cnf,
                &sink,
                strategy,
                &config,
                &mut scratch,
                &mut NullObserver,
            )
            .unwrap();
            scratch.begin_job(42);
            let warm = check_unsat_claim_scoped(
                &cnf,
                &sink,
                strategy,
                &config,
                &mut scratch,
                &mut NullObserver,
            )
            .unwrap();
            assert_eq!(
                cold.stats.peak_memory_bytes, warm.stats.peak_memory_bytes,
                "{strategy}: warm scratch must not change accounted peak"
            );
            assert_eq!(cold.stats.clauses_built, warm.stats.clauses_built);
            assert_eq!(cold.stats.resolutions, warm.stats.resolutions);
            assert!(
                scratch.warm_hits() > 0,
                "{strategy}: warm run must actually reuse normalized originals"
            );
        }
    }

    /// Scoped runs match unscoped one-shot runs exactly — the parity the
    /// serve campaign acceptance test relies on.
    #[test]
    fn scoped_runs_match_one_shot_runs() {
        let (cnf, sink) = fixture();
        let config = CheckConfig::default();
        for strategy in SEQUENTIAL {
            let one_shot = crate::api::check_unsat_claim(&cnf, &sink, strategy, &config).unwrap();
            let mut scratch = CheckScratch::new();
            scratch.begin_job(7);
            let scoped = check_unsat_claim_scoped(
                &cnf,
                &sink,
                strategy,
                &config,
                &mut scratch,
                &mut NullObserver,
            )
            .unwrap();
            assert_eq!(
                one_shot.stats.peak_memory_bytes,
                scoped.stats.peak_memory_bytes
            );
            assert_eq!(one_shot.stats.clauses_built, scoped.stats.clauses_built);
            assert_eq!(one_shot.stats.resolutions, scoped.stats.resolutions);
            assert_eq!(
                one_shot.stats.learned_in_trace,
                scoped.stats.learned_in_trace
            );
        }
    }

    /// A different token (or none) must clear the warm tier: ids from one
    /// formula never resolve against another's clauses.
    #[test]
    fn token_change_clears_warm_tier() {
        let (cnf, sink) = fixture();
        // A different formula whose clause ids overlap but mean different
        // literals; its proof must not see formula A's cached clauses.
        let mut cnf_b = Cnf::new();
        cnf_b.add_dimacs_clause(&[3]);
        cnf_b.add_dimacs_clause(&[-3]);
        let mut sink_b = MemorySink::new();
        sink_b.level_zero(Lit::from_dimacs(3), 0).unwrap();
        sink_b.final_conflict(1).unwrap();

        let config = CheckConfig::default();
        let mut scratch = CheckScratch::new();
        scratch.begin_job(1);
        check_unsat_claim_scoped(
            &cnf,
            &sink,
            Strategy::DepthFirst,
            &config,
            &mut scratch,
            &mut NullObserver,
        )
        .unwrap();
        let hits_before = scratch.warm_hits();
        scratch.begin_job(2); // different formula
        check_unsat_claim_scoped(
            &cnf_b,
            &sink_b,
            Strategy::DepthFirst,
            &config,
            &mut scratch,
            &mut NullObserver,
        )
        .unwrap();
        assert_eq!(
            scratch.warm_hits(),
            hits_before,
            "token change must prevent cross-formula reuse"
        );

        // An undeclared run is always cold, even on the same formula.
        let mut undeclared = CheckScratch::new();
        undeclared.begin_job(9);
        check_unsat_claim_scoped(
            &cnf,
            &sink,
            Strategy::DepthFirst,
            &config,
            &mut undeclared,
            &mut NullObserver,
        )
        .unwrap();
        check_unsat_claim_scoped(
            &cnf,
            &sink,
            Strategy::DepthFirst,
            &config,
            &mut undeclared,
            &mut NullObserver,
        )
        .unwrap();
        assert_eq!(undeclared.warm_hits(), 0);
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
