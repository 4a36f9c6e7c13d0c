//! Shared measurement harness for the table-regeneration binaries.
//!
//! Each binary (`table1`, `table2`, `table3`) reproduces one table of the
//! paper's evaluation; this library holds the per-instance measurement
//! pipeline they share: solve with tracing off and on, encode the trace
//! in both formats, run both checkers, and collect the numbers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod micro;
pub mod report;

use rescheck_checker::{check_unsat_claim, CheckConfig, CheckError, CheckOutcome, Strategy};
use rescheck_cnf::Cnf;
use rescheck_solver::{SolveResult, Solver, SolverConfig, SolverStats};
use rescheck_trace::{AsciiWriter, BinaryWriter, MemorySink, TraceSink};
use rescheck_workloads::Instance;
use std::time::{Duration, Instant};

/// Everything measured about one benchmark instance.
#[derive(Clone, Debug)]
pub struct InstanceReport {
    /// The instance name (paper row name).
    pub name: String,
    /// Declared variables.
    pub num_vars: usize,
    /// Original clauses.
    pub num_clauses: usize,
    /// Learned clauses produced by the traced solve.
    pub learned_clauses: u64,
    /// Solve time with trace generation off ([`rescheck_trace::NullSink`]).
    pub time_trace_off: Duration,
    /// Solve time with the trace encoded to ASCII (kept in memory).
    pub time_trace_on: Duration,
    /// Size of the ASCII-encoded trace in bytes.
    pub trace_ascii_bytes: u64,
    /// Size of the binary-encoded trace in bytes.
    pub trace_binary_bytes: u64,
    /// Full solver statistics of the traced run.
    pub solver_stats: SolverStats,
    /// The recorded trace (event form), for the checking phase.
    pub trace: MemorySink,
    /// The formula, for the checking phase.
    pub cnf: Cnf,
}

impl InstanceReport {
    /// Trace-generation overhead as a percentage (Table 1's last column).
    pub fn overhead_percent(&self) -> f64 {
        if self.time_trace_off.is_zero() {
            0.0
        } else {
            100.0 * (self.time_trace_on.as_secs_f64() - self.time_trace_off.as_secs_f64())
                / self.time_trace_off.as_secs_f64()
        }
    }
}

/// Solves one UNSAT instance with tracing off and on and returns the
/// measurements.
///
/// Each timed configuration runs three times and the minimum is
/// reported, which suppresses scheduler noise on the small rows without
/// biasing the comparison (the solver is deterministic). The untraced
/// and traced solves alternate, so drift of the host between solves
/// spreads over both sides instead of reading as trace overhead.
///
/// # Panics
///
/// Panics if the solver does not report UNSAT (suite instances are
/// unsatisfiable by construction).
pub fn measure_solve(instance: &Instance, cfg: &SolverConfig) -> InstanceReport {
    measure_solve_repeats(instance, cfg, 3)
}

/// [`measure_solve`] with an explicit repetition count.
///
/// # Panics
///
/// Panics if `repeats` is zero or the solver does not report UNSAT.
pub fn measure_solve_repeats(
    instance: &Instance,
    cfg: &SolverConfig,
    repeats: usize,
) -> InstanceReport {
    assert!(repeats > 0, "at least one timing run");

    // Alternating solves, each side keeping its minimum. Trace off is
    // the pristine solver (Table 1's baseline); trace on encodes to
    // ASCII while solving, exactly what the paper measured (zchaff
    // writing its trace file).
    let mut time_trace_off = Duration::MAX;
    let mut time_trace_on = Duration::MAX;
    let mut trace_ascii_bytes = 0;
    for _ in 0..repeats {
        let t0 = Instant::now();
        let mut solver = Solver::from_cnf(&instance.cnf, cfg.clone());
        let off_result = solver.solve();
        time_trace_off = time_trace_off.min(t0.elapsed());
        assert!(
            matches!(off_result, SolveResult::Unsatisfiable),
            "{} must be UNSAT",
            instance.name
        );

        let mut ascii_buf: Vec<u8> = Vec::new();
        let t1 = Instant::now();
        let mut solver = Solver::from_cnf(&instance.cnf, cfg.clone());
        let mut ascii = AsciiWriter::new(&mut ascii_buf);
        let on_result = solver.solve_traced(&mut ascii).expect("in-memory sink");
        time_trace_on = time_trace_on.min(t1.elapsed());
        trace_ascii_bytes = ascii.bytes_written();
        assert!(matches!(on_result, SolveResult::Unsatisfiable));
    }

    // An untimed run (the solver is deterministic) collects the
    // events in memory for the checking phase.
    let mut events = MemorySink::new();
    let mut solver = Solver::from_cnf(&instance.cnf, cfg.clone());
    solver.solve_traced(&mut events).expect("in-memory sink");

    // Binary re-encoding for the compaction comparison.
    let mut bin_buf: Vec<u8> = Vec::new();
    let mut bw = BinaryWriter::new(&mut bin_buf).expect("vec writer");
    for e in events.events() {
        bw.event(e).expect("vec writer");
    }
    let trace_binary_bytes = bw.bytes_written();

    InstanceReport {
        name: instance.name.clone(),
        num_vars: instance.num_vars(),
        num_clauses: instance.num_clauses(),
        learned_clauses: solver.stats().learned_clauses,
        time_trace_off,
        time_trace_on,
        trace_ascii_bytes,
        trace_binary_bytes,
        solver_stats: *solver.stats(),
        trace: events,
        cnf: instance.cnf.clone(),
    }
}

/// One checker run's measurements (a half-row of Table 2).
#[derive(Clone, Debug)]
pub struct CheckReport {
    /// The validated outcome, or the failure (e.g. memory-out, shown as
    /// `*` in the paper's table).
    pub outcome: Result<CheckOutcome, String>,
    /// Wall-clock time of the check (also inside `outcome` on success).
    pub runtime: Duration,
}

/// Runs one checking strategy against a measured instance.
pub fn measure_check(
    report: &InstanceReport,
    strategy: Strategy,
    memory_limit: Option<u64>,
) -> CheckReport {
    let config = CheckConfig {
        memory_limit,
        ..CheckConfig::default()
    };
    let t = Instant::now();
    let outcome = check_unsat_claim(&report.cnf, &report.trace, strategy, &config);
    let runtime = t.elapsed();
    let outcome = match outcome {
        Ok(o) => Ok(o),
        Err(e @ CheckError::MemoryLimitExceeded { .. }) => Err(format!("memory out: {e}")),
        Err(e) => panic!("{}: genuine proof rejected: {e}", report.name),
    };
    CheckReport { outcome, runtime }
}

/// Formats a duration in seconds with millisecond resolution.
pub fn fmt_secs(d: Duration) -> String {
    format!("{:.3}", d.as_secs_f64())
}

/// Formats a byte count as KB with one decimal, like the paper's tables.
pub fn fmt_kb(bytes: u64) -> String {
    format!("{:.1}", bytes as f64 / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rescheck_workloads::pigeonhole;

    #[test]
    fn measure_solve_and_check_pipeline() {
        let inst = pigeonhole::instance(4);
        let report = measure_solve(&inst, &SolverConfig::default());
        assert_eq!(report.name, "php_5_4");
        assert!(report.learned_clauses > 0);
        assert!(report.trace_ascii_bytes > report.trace_binary_bytes);
        assert!(!report.trace.is_empty());

        let df = measure_check(&report, Strategy::DepthFirst, None);
        let bf = measure_check(&report, Strategy::BreadthFirst, None);
        let df_outcome = df.outcome.unwrap();
        let bf_outcome = bf.outcome.unwrap();
        assert!(df_outcome.core.is_some());
        assert!(bf_outcome.core.is_none());
        assert_eq!(
            df_outcome.stats.learned_in_trace,
            bf_outcome.stats.learned_in_trace
        );
    }

    #[test]
    fn memory_out_is_reported_not_panicked() {
        let inst = pigeonhole::instance(4);
        let report = measure_solve(&inst, &SolverConfig::default());
        let df = measure_check(&report, Strategy::DepthFirst, Some(1));
        assert!(df.outcome.is_err());
        assert!(df.outcome.unwrap_err().contains("memory out"));
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_secs(Duration::from_millis(1500)), "1.500");
        assert_eq!(fmt_kb(2048), "2.0");
    }

    #[test]
    fn overhead_percent_handles_zero_baseline() {
        let inst = pigeonhole::instance(3);
        let mut report = measure_solve(&inst, &SolverConfig::default());
        report.time_trace_off = Duration::ZERO;
        assert_eq!(report.overhead_percent(), 0.0);
    }
}
