//! Top-level checking entry points.

use crate::cancel::CancelFlag;
use crate::error::CheckError;
use crate::outcome::CheckOutcome;
pub use crate::outcome::Strategy;
use crate::scratch::CheckScratch;
use rescheck_cnf::{Assignment, Cnf};
use rescheck_obs::{Event, Level, NullObserver, Observer, Span};
use rescheck_trace::{RandomAccessTrace, TraceSource};
use std::error::Error;
use std::fmt;
use std::time::Instant;

/// Options shared by every checking strategy.
///
/// # Examples
///
/// ```
/// use rescheck_checker::CheckConfig;
///
/// let cfg = CheckConfig {
///     memory_limit: Some(800 << 20), // the paper's 800 MB cap
///     jobs: 4,
///     ..CheckConfig::default()
/// };
/// assert!(cfg.memory_limit.is_some());
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CheckConfig {
    /// Accounted-memory budget in bytes; `None` = unlimited.
    ///
    /// The paper ran both checkers with an 800 MB limit, under which the
    /// depth-first strategy fails on the largest instances (Table 2).
    pub memory_limit: Option<u64>,
    /// Worker threads for [`Strategy::ParallelDag`]'s sharded pass 1 and
    /// executor; `0` picks the available parallelism (capped at 8). The
    /// value is a cap: pdag never runs more workers than the machine has
    /// cores, since extra threads cannot raise throughput and its stats
    /// are identical for any worker count. Every other strategy runs on
    /// the calling thread and ignores it.
    pub jobs: usize,
    /// Learned-clause estimate below which [`Strategy::ParallelDag`] falls
    /// back to plain sequential breadth-first: thread spin-up and
    /// cross-shard merging cost more than they save on small traces
    /// (the reported strategy then says so). Set to `0` to always run
    /// parallel. The estimate comes from the encoded trace size; an
    /// unsized trace source never falls back.
    pub parallel_min_learned: usize,
    /// Request the buffered read-whole-file backing instead of `mmap`
    /// for file traces (the `--no-mmap` CLI flag; the
    /// `RESCHECK_NO_MMAP` environment variable has the same effect).
    /// This controls only how the bytes are *backed* — every map-based
    /// code path (slice decoding, sharded parallel pass 1, cursor
    /// fetches by pointer arithmetic) stays on, so verdicts and stats
    /// are bit-identical across the two settings. The map is charged to
    /// the memory meter identically in both modes.
    pub no_mmap: bool,
    /// Cooperative cancellation handle, polled at progress strides. The
    /// default flag is inert; arm one ([`CancelFlag::armed`]) to be able
    /// to stop a check from another thread.
    pub cancel: CancelFlag,
}

impl Default for CheckConfig {
    /// Unlimited memory, automatic job count, an inert cancel flag, and
    /// the tuned small-trace fallback threshold.
    fn default() -> Self {
        CheckConfig {
            memory_limit: None,
            jobs: 0,
            parallel_min_learned: 4096,
            no_mmap: false,
            cancel: CancelFlag::default(),
        }
    }
}

/// Validates an UNSAT claim with the chosen strategy.
///
/// # Errors
///
/// Returns a [`CheckError`] describing the first invalid proof step — the
/// claim is *not validated* in that case and the solver (or its trace
/// generation) should be considered buggy.
///
/// # Examples
///
/// ```
/// use rescheck_checker::{check_unsat_claim, CheckConfig, Strategy};
/// use rescheck_cnf::Cnf;
/// use rescheck_solver::{Solver, SolverConfig};
/// use rescheck_trace::MemorySink;
///
/// let mut cnf = Cnf::new();
/// cnf.add_dimacs_clause(&[1]);
/// cnf.add_dimacs_clause(&[-1]);
/// let mut solver = Solver::from_cnf(&cnf, SolverConfig::default());
/// let mut trace = MemorySink::new();
/// assert!(solver.solve_traced(&mut trace)?.is_unsat());
///
/// for strategy in [
///     Strategy::DepthFirst,
///     Strategy::BreadthFirst,
///     Strategy::Hybrid,
///     Strategy::Portfolio,
///     Strategy::DiskDepthFirst,
///     Strategy::ParallelDag,
/// ] {
///     check_unsat_claim(&cnf, &trace, strategy, &CheckConfig::default())?;
/// }
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn check_unsat_claim<S: RandomAccessTrace + Sync + ?Sized>(
    cnf: &Cnf,
    trace: &S,
    strategy: Strategy,
    config: &CheckConfig,
) -> Result<CheckOutcome, CheckError> {
    check_unsat_claim_observed(cnf, trace, strategy, config, &mut NullObserver)
}

/// [`check_unsat_claim`] with an [`Observer`] receiving phase timers
/// (`check:pass1`, `check:resolve`, `final-phase`) nested under a
/// per-strategy span (`check:df`, `check:bf`, `check:hybrid`,
/// `check:portfolio`, `check:dfd`, `check:pdag`), resolution-shape
/// histograms (`check.resolve.chain_len` — resolve sources per learned
/// clause — and `check.resolve.clause_len` — literals in each stored
/// resolvent), progress heartbeats
/// and end-of-run gauges (`check.clauses_built`, `check.resolutions`,
/// `check.use_count_entries`, `check.peak_memory_bytes`), plus the
/// resolution hot path's own accounting: `check.kernel.chains`,
/// `check.kernel.literals_folded`, `check.kernel.scratch_grows`,
/// `check.kernel.scratch_high_water` from the mark-array
/// [`ResolutionKernel`](crate::kernel::ResolutionKernel), and
/// `check.arena.bytes`, `check.arena.reuse_hits` from the arena clause
/// store (`scratch_grows` stalling at a constant while `chains` keeps
/// rising is the observable form of the allocation-free steady state).
/// [`Strategy::DiskDepthFirst`] additionally reports its disk-access
/// accounting: `check.dfd.index_entries` (flat offset-index size),
/// `check.dfd.cursor_reads` (positioned trace reads performed),
/// `check.dfd.cache_hits` and `check.dfd.cache_bytes` (source-list cache
/// effectiveness and residency). Strategies that establish a
/// memory-mapped trace backing ([`Strategy::DiskDepthFirst`] and
/// [`Strategy::ParallelDag`] on binary file traces) run it inside a
/// `trace-map` phase and emit `check.map.bytes` (accounted map length)
/// and `check.map.mmap` (1 for the `mmap` backing, 0 for the buffered
/// fallback); the sharded mapped pass 1 additionally reports
/// `check.pass1.shards`.
///
/// It is [`check_unsat_claim_scoped`] on a fresh [`CheckScratch`].
///
/// # Errors
///
/// See [`check_unsat_claim`].
///
/// # Examples
///
/// ```
/// use rescheck_checker::{check_unsat_claim_observed, CheckConfig, Strategy};
/// use rescheck_cnf::Cnf;
/// use rescheck_obs::MetricsSink;
/// use rescheck_solver::{Solver, SolverConfig};
/// use rescheck_trace::MemorySink;
///
/// let mut cnf = Cnf::new();
/// cnf.add_dimacs_clause(&[1]);
/// cnf.add_dimacs_clause(&[-1]);
/// let mut solver = Solver::from_cnf(&cnf, SolverConfig::default());
/// let mut trace = MemorySink::new();
/// assert!(solver.solve_traced(&mut trace)?.is_unsat());
///
/// let mut sink = MetricsSink::new();
/// check_unsat_claim_observed(
///     &cnf, &trace, Strategy::Hybrid, &CheckConfig::default(), &mut sink,
/// )?;
/// assert!(sink.registry().phase_seconds("check:pass1").is_some());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn check_unsat_claim_observed<S: RandomAccessTrace + Sync + ?Sized>(
    cnf: &Cnf,
    trace: &S,
    strategy: Strategy,
    config: &CheckConfig,
    obs: &mut dyn Observer,
) -> Result<CheckOutcome, CheckError> {
    check_unsat_claim_scoped(cnf, trace, strategy, config, &mut CheckScratch::new(), obs)
}

/// The per-strategy span every check runs inside.
fn span_name(strategy: Strategy) -> &'static str {
    match strategy {
        Strategy::DepthFirst => "check:df",
        Strategy::BreadthFirst => "check:bf",
        Strategy::Hybrid => "check:hybrid",
        Strategy::Portfolio => "check:portfolio",
        Strategy::DiskDepthFirst => "check:dfd",
        Strategy::ParallelDag => "check:pdag",
    }
}

/// The portfolio policy: disk-backed depth-first, and breadth-first only
/// when that runs out of memory. Every other verdict of the first stage
/// is final, so a proof defect is reported as found and the portfolio
/// runs out of memory only when both strategies do.
fn run_portfolio<S: RandomAccessTrace + ?Sized>(
    cnf: &Cnf,
    trace: &S,
    config: &CheckConfig,
    scratch: &mut CheckScratch,
    obs: &mut dyn Observer,
) -> Result<CheckOutcome, CheckError> {
    let started = Instant::now();
    config.cancel.check()?;
    let mut outcome = match crate::depth_first::run_disk(cnf, trace, config, scratch, obs) {
        Err(err @ CheckError::MemoryLimitExceeded { .. }) => {
            obs.observe(&Event::Message {
                level: Level::Info,
                text: &format!("portfolio: disk-depth-first {err}; falling back to breadth-first"),
            });
            config.cancel.check()?;
            crate::breadth_first::run(cnf, trace, config, scratch, obs)
        }
        decided => decided,
    }?;
    outcome.stats.strategy = Strategy::Portfolio;
    outcome.stats.runtime = started.elapsed();
    Ok(outcome)
}

/// [`check_unsat_claim_observed`] against caller-owned scratch buffers,
/// for long-lived processes (the `rescheck serve` daemon) that run many
/// checks and want to reuse the kernel, arena and original-clause cache
/// across jobs instead of rebuilding them per job.
///
/// Every sequential strategy ([`Strategy::DepthFirst`],
/// [`Strategy::BreadthFirst`], [`Strategy::Hybrid`],
/// [`Strategy::DiskDepthFirst`] and [`Strategy::Portfolio`]) runs on the
/// provided [`CheckScratch`]; [`Strategy::ParallelDag`] keeps per-worker
/// state of its own and ignores it.
///
/// Reported stats and accounted memory are bit-identical to the
/// unscoped entry point: reuse trades allocator work, never accounting.
/// See the [`crate::CheckScratch`] docs for the warm-tier rules
/// ([`CheckScratch::begin_job`]).
///
/// # Errors
///
/// See [`check_unsat_claim`].
pub fn check_unsat_claim_scoped<S: RandomAccessTrace + Sync + ?Sized>(
    cnf: &Cnf,
    trace: &S,
    strategy: Strategy,
    config: &CheckConfig,
    scratch: &mut CheckScratch,
    obs: &mut dyn Observer,
) -> Result<CheckOutcome, CheckError> {
    // Every strategy runs inside a named span, so the metrics span tree
    // reads `<caller> > check:<strategy> > check:pass1/…`. The span is
    // stopped on the error path too — flight dumps see it close.
    let mut span = Span::start(span_name(strategy), obs);
    let result = match strategy {
        Strategy::DepthFirst => crate::depth_first::run(cnf, trace, config, scratch, obs),
        Strategy::BreadthFirst => crate::breadth_first::run(cnf, trace, config, scratch, obs),
        Strategy::Hybrid => crate::hybrid::run(cnf, trace, config, scratch, obs),
        Strategy::Portfolio => run_portfolio(cnf, trace, config, scratch, obs),
        Strategy::DiskDepthFirst => crate::depth_first::run_disk(cnf, trace, config, scratch, obs),
        Strategy::ParallelDag => crate::dag::run(cnf, trace, config, obs),
    };
    span.stop(obs);
    result
}

/// Validates an UNSAT claim with the depth-first strategy (§3.2).
///
/// On success the outcome carries the unsatisfiable core.
///
/// # Errors
///
/// See [`check_unsat_claim`].
pub fn check_depth_first<S: TraceSource + ?Sized>(
    cnf: &Cnf,
    trace: &S,
    config: &CheckConfig,
) -> Result<CheckOutcome, CheckError> {
    crate::depth_first::run(
        cnf,
        trace,
        config,
        &mut CheckScratch::new(),
        &mut NullObserver,
    )
}

/// Validates an UNSAT claim with the breadth-first strategy (§3.3).
///
/// # Errors
///
/// See [`check_unsat_claim`].
pub fn check_breadth_first<S: TraceSource + ?Sized>(
    cnf: &Cnf,
    trace: &S,
    config: &CheckConfig,
) -> Result<CheckOutcome, CheckError> {
    crate::breadth_first::run(
        cnf,
        trace,
        config,
        &mut CheckScratch::new(),
        &mut NullObserver,
    )
}

/// Validates an UNSAT claim with the hybrid (on-disk depth-first)
/// strategy — the paper's future-work design: needed-clauses-only like
/// depth-first, bounded clause memory like breadth-first, with the trace
/// left on disk and consulted by random access.
///
/// On success the outcome carries the unsatisfiable core.
///
/// # Errors
///
/// See [`check_unsat_claim`].
pub fn check_hybrid<S: RandomAccessTrace + ?Sized>(
    cnf: &Cnf,
    trace: &S,
    config: &CheckConfig,
) -> Result<CheckOutcome, CheckError> {
    crate::hybrid::run(
        cnf,
        trace,
        config,
        &mut CheckScratch::new(),
        &mut NullObserver,
    )
}

/// Validates an UNSAT claim with the disk-backed depth-first strategy:
/// depth-first's on-demand traversal (needed clauses only, unsat core as
/// a by-product) with the trace left on disk — one streaming pass builds
/// a flat id → byte-offset index, and resolve-source lists are fetched
/// through a trace cursor when the walk reaches them, with hot lists kept
/// in a memory-accounted cache.
///
/// Produces bit-identical `clauses_built` / `resolutions` and the same
/// unsat core as [`check_depth_first`], while the peak accounted memory
/// replaces the resident-trace term with 16 bytes per learned clause —
/// the strategy to reach for when depth-first memory-outs.
///
/// # Errors
///
/// See [`check_unsat_claim`].
pub fn check_disk_depth_first<S: RandomAccessTrace + ?Sized>(
    cnf: &Cnf,
    trace: &S,
    config: &CheckConfig,
) -> Result<CheckOutcome, CheckError> {
    crate::depth_first::run_disk(
        cnf,
        trace,
        config,
        &mut CheckScratch::new(),
        &mut NullObserver,
    )
}

/// A SAT claim that does not hold.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ModelError {
    /// IDs of the clauses the claimed model fails to satisfy.
    pub falsified_or_undetermined: Vec<usize>,
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "claimed model leaves {} clause(s) unsatisfied (first ids: {:?})",
            self.falsified_or_undetermined.len(),
            &self.falsified_or_undetermined[..self.falsified_or_undetermined.len().min(8)]
        )
    }
}

impl Error for ModelError {}

/// Validates a SAT claim: every clause must be satisfied by the model.
///
/// This is the easy direction the paper notes takes linear time for CNF.
/// Clauses that are undetermined (because the model leaves one of their
/// variables unassigned) count as unsatisfied — a valid SAT certificate
/// must determine every clause.
///
/// # Errors
///
/// Returns the IDs of unsatisfied clauses.
///
/// # Examples
///
/// ```
/// use rescheck_checker::check_sat_claim;
/// use rescheck_cnf::{Assignment, Cnf};
///
/// let mut cnf = Cnf::new();
/// cnf.add_dimacs_clause(&[1, -2]);
/// let good = Assignment::from_bools(&[true, true]);
/// assert!(check_sat_claim(&cnf, &good).is_ok());
///
/// let bad = Assignment::from_bools(&[false, true]);
/// let err = check_sat_claim(&cnf, &bad).unwrap_err();
/// assert_eq!(err.falsified_or_undetermined, vec![0]);
/// ```
pub fn check_sat_claim(cnf: &Cnf, model: &Assignment) -> Result<(), ModelError> {
    let bad: Vec<usize> = cnf
        .iter()
        .filter(|(_, c)| rescheck_cnf::evaluate_lits(c, model) != rescheck_cnf::LBool::True)
        .map(|(id, _)| id)
        .collect();
    if bad.is_empty() {
        Ok(())
    } else {
        Err(ModelError {
            falsified_or_undetermined: bad,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rescheck_cnf::Lit;
    use rescheck_obs::Event;
    use rescheck_trace::{MemorySink, TraceSink};

    /// An implication-chain instance whose proof uses each learned
    /// clause exactly once — depth-first holds everything, breadth-first
    /// holds O(1) clauses.
    fn chain(n: i64) -> (Cnf, MemorySink) {
        let mut cnf = Cnf::new();
        cnf.add_dimacs_clause(&[1]);
        for i in 1..n {
            cnf.add_dimacs_clause(&[-i, i + 1]);
        }
        cnf.add_dimacs_clause(&[-n]);
        let mut sink = MemorySink::new();
        let mut prev = 0u64;
        for i in 1..n {
            let next_id = (n + i) as u64;
            sink.learned(next_id, &[prev, i as u64]).unwrap();
            prev = next_id;
        }
        sink.level_zero(Lit::from_dimacs(n), prev).unwrap();
        sink.final_conflict(n as u64).unwrap();
        (cnf, sink)
    }

    /// One byte short of the tightest budget disk-backed depth-first
    /// passes under: its caches have given everything back there, so
    /// what does not fit is its index and clauses.
    fn just_below_dfd(cnf: &Cnf, sink: &MemorySink) -> CheckConfig {
        let limited = |memory_limit| CheckConfig {
            memory_limit,
            ..CheckConfig::default()
        };
        let dfd = |limit| check_unsat_claim(cnf, sink, Strategy::DiskDepthFirst, &limited(limit));
        limited(Some(crate::memory::tightest_limit(dfd) - 1))
    }

    /// Collects the text of every message a check logs.
    #[derive(Default)]
    struct Messages(Vec<String>);

    impl Observer for Messages {
        fn observe(&mut self, event: &Event<'_>) {
            if let Event::Message { text, .. } = event {
                self.0.push(text.to_string());
            }
        }
    }

    #[test]
    fn portfolio_without_memory_pressure_is_disk_depth_first() {
        let (cnf, sink) = chain(16);
        let config = CheckConfig::default();
        let dfd = check_unsat_claim(&cnf, &sink, Strategy::DiskDepthFirst, &config).unwrap();
        let mut messages = Messages::default();
        let pf =
            check_unsat_claim_observed(&cnf, &sink, Strategy::Portfolio, &config, &mut messages)
                .unwrap();
        assert_eq!(pf.stats.strategy, Strategy::Portfolio);
        assert_eq!(pf.stats.clauses_built, dfd.stats.clauses_built);
        assert_eq!(pf.stats.resolutions, dfd.stats.resolutions);
        assert_eq!(pf.stats.peak_memory_bytes, dfd.stats.peak_memory_bytes);
        assert!(pf.core.is_some());
        assert_eq!(pf.core, dfd.core);
        assert!(messages.0.iter().all(|m| !m.contains("falling back")));
    }

    #[test]
    fn portfolio_falls_back_to_breadth_first_when_depth_first_memory_outs() {
        let (cnf, sink) = chain(64);
        // A budget breadth-first fits in but disk-backed depth-first
        // does not: breadth-first frees each chain clause after its one
        // use, disk-backed depth-first keeps all of them.
        let config = just_below_dfd(&cnf, &sink);
        let bf = check_unsat_claim(&cnf, &sink, Strategy::BreadthFirst, &config).unwrap();
        assert!(matches!(
            check_unsat_claim(&cnf, &sink, Strategy::DiskDepthFirst, &config).unwrap_err(),
            CheckError::MemoryLimitExceeded { .. }
        ));
        let mut messages = Messages::default();
        let pf =
            check_unsat_claim_observed(&cnf, &sink, Strategy::Portfolio, &config, &mut messages)
                .unwrap();
        assert_eq!(pf.stats.strategy, Strategy::Portfolio);
        // Breadth-first decided, so there is no core.
        assert!(pf.core.is_none());
        assert_eq!(pf.stats.clauses_built, bf.stats.clauses_built);
        assert_eq!(pf.stats.resolutions, bf.stats.resolutions);
        assert_eq!(pf.stats.peak_memory_bytes, bf.stats.peak_memory_bytes);
        assert!(messages.0.iter().any(|m| m.contains("falling back")));

        // Under a budget neither fits, the memory-out stands.
        let config = CheckConfig {
            memory_limit: Some(64),
            ..CheckConfig::default()
        };
        assert!(matches!(
            check_unsat_claim(&cnf, &sink, Strategy::Portfolio, &config).unwrap_err(),
            CheckError::MemoryLimitExceeded { .. }
        ));
    }

    #[test]
    fn portfolio_reports_a_proof_defect_without_falling_back() {
        let mut cnf = Cnf::new();
        cnf.add_dimacs_clause(&[1, 2]);
        cnf.add_dimacs_clause(&[3, 4]);
        let mut sink = MemorySink::new();
        sink.learned(2, &[0, 1]).unwrap(); // no clashing variable
        sink.final_conflict(2).unwrap();
        let mut messages = Messages::default();
        let err = check_unsat_claim_observed(
            &cnf,
            &sink,
            Strategy::Portfolio,
            &CheckConfig::default(),
            &mut messages,
        )
        .unwrap_err();
        assert!(matches!(err, CheckError::NotResolvable { .. }), "{err:?}");
        assert!(messages.0.iter().all(|m| !m.contains("falling back")));
    }

    #[test]
    fn portfolio_cancellation_stops_both_stages() {
        let (cnf, sink) = chain(64);
        let tight = just_below_dfd(&cnf, &sink).memory_limit;
        for memory_limit in [None, tight] {
            let config = CheckConfig {
                memory_limit,
                cancel: CancelFlag::armed(),
                ..CheckConfig::default()
            };
            config.cancel.cancel();
            let err = check_unsat_claim(&cnf, &sink, Strategy::Portfolio, &config).unwrap_err();
            assert!(matches!(err, CheckError::Cancelled), "{err:?}");
        }

        // Cancelled while the dfd stage runs out of memory: the fallback
        // never starts. (The chain is shorter than a progress stride, so
        // dfd itself never polls the flag.)
        struct CancelInPass1(CancelFlag);
        impl Observer for CancelInPass1 {
            fn observe(&mut self, event: &Event<'_>) {
                if let Event::SpanStarted {
                    name: "check:pass1",
                    ..
                } = event
                {
                    self.0.cancel();
                }
            }
        }
        let config = CheckConfig {
            memory_limit: tight,
            cancel: CancelFlag::armed(),
            ..CheckConfig::default()
        };
        let mut obs = CancelInPass1(config.cancel.clone());
        let err = check_unsat_claim_observed(&cnf, &sink, Strategy::Portfolio, &config, &mut obs)
            .unwrap_err();
        assert!(matches!(err, CheckError::Cancelled), "{err:?}");
    }

    #[test]
    fn both_strategies_accept_a_valid_proof() {
        let mut cnf = Cnf::new();
        cnf.add_dimacs_clause(&[1]);
        cnf.add_dimacs_clause(&[-1]);
        let mut sink = MemorySink::new();
        sink.level_zero(Lit::from_dimacs(1), 0).unwrap();
        sink.final_conflict(1).unwrap();
        for strategy in [Strategy::DepthFirst, Strategy::BreadthFirst] {
            let outcome =
                check_unsat_claim(&cnf, &sink, strategy, &CheckConfig::default()).unwrap();
            assert_eq!(outcome.stats.strategy, strategy);
        }
    }

    #[test]
    fn sat_claim_with_partial_model_is_rejected() {
        let mut cnf = Cnf::new();
        cnf.add_dimacs_clause(&[1, 2]);
        let partial = Assignment::new(2); // nothing assigned
        let err = check_sat_claim(&cnf, &partial).unwrap_err();
        assert_eq!(err.falsified_or_undetermined, vec![0]);
        assert!(err.to_string().contains("1 clause"));
    }

    #[test]
    fn sat_claim_on_empty_formula_holds() {
        let cnf = Cnf::with_vars(3);
        assert!(check_sat_claim(&cnf, &Assignment::new(3)).is_ok());
    }

    #[test]
    fn config_default_is_unlimited() {
        let cfg = CheckConfig::default();
        assert_eq!(cfg.memory_limit, None);
        assert_eq!(cfg.jobs, 0);
        assert_eq!(cfg.parallel_min_learned, 4096);
        assert!(!cfg.no_mmap);
        assert!(!cfg.cancel.is_cancelled());
    }
}
