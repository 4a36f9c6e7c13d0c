//! Strategy-agreement oracle: run every checking strategy on the same
//! claim and verify they tell a consistent story.
//!
//! The paper's trust argument rests on the checker being simpler than the
//! solver — but this repo ships *six* strategies sharing a hot path, and
//! a bug in any one of them would silently weaken that argument. This
//! module turns the strategies against each other: on a valid trace all
//! six must accept with class-identical statistics
//! ([`verify_valid_agreement`]); on an arbitrary — possibly corrupted —
//! trace the cross-strategy implications that hold by construction must
//! still hold ([`verify_cross_consistency`]):
//!
//! - depth-first and disk-backed depth-first are the *same traversal* and
//!   must agree bit-for-bit, down to the failure diagnostic;
//! - without a memory budget the portfolio never falls back, so it is
//!   disk-backed depth-first and must agree with it bit-for-bit;
//! - the parallel-dag executor verifies the same full set of learned
//!   clauses as breadth-first and must agree with it on the verdict and
//!   the work counters, for any worker count;
//! - hybrid verifies the same needed subset as depth-first;
//! - breadth-first validates a superset of what depth-first validates, so
//!   a breadth-first accept implies a depth-first accept.
//!
//! Each strategy runs under [`std::panic::catch_unwind`], so a panicking
//! strategy is reported as a [`StrategyRun::Panicked`] disagreement
//! instead of tearing down the differential-fuzzing campaign driving it.

use crate::api::{check_unsat_claim, CheckConfig, Strategy};
use crate::error::{CheckError, FailureKind};
use crate::outcome::CheckOutcome;
use rescheck_cnf::Cnf;
use rescheck_trace::RandomAccessTrace;
use std::error::Error;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Every checking strategy, in the fixed order the oracle runs them.
pub const ALL_STRATEGIES: [Strategy; 6] = [
    Strategy::DepthFirst,
    Strategy::BreadthFirst,
    Strategy::Hybrid,
    Strategy::Portfolio,
    Strategy::DiskDepthFirst,
    Strategy::ParallelDag,
];

/// What one strategy did with the claim.
#[derive(Debug)]
pub enum StrategyRun {
    /// The strategy returned a verdict (accept or a structured error).
    Completed(Result<CheckOutcome, CheckError>),
    /// The strategy panicked; the payload's text is kept for diagnosis.
    Panicked(String),
}

impl StrategyRun {
    /// `true` when the strategy accepted the proof.
    pub fn accepted(&self) -> bool {
        matches!(self, StrategyRun::Completed(Ok(_)))
    }

    /// The successful outcome, if any.
    pub fn outcome(&self) -> Option<&CheckOutcome> {
        match self {
            StrategyRun::Completed(Ok(o)) => Some(o),
            _ => None,
        }
    }

    /// The failure classification, if the run failed.
    pub fn failure_kind(&self) -> Option<FailureKind> {
        match self {
            StrategyRun::Completed(Err(e)) => Some(e.kind()),
            _ => None,
        }
    }

    /// A one-line description of the verdict, stable for a given input —
    /// the unit the differential oracle compares and logs.
    pub fn verdict(&self) -> String {
        match self {
            StrategyRun::Completed(Ok(_)) => "valid".to_string(),
            StrategyRun::Completed(Err(e)) => format!("{}: {e}", e.kind()),
            StrategyRun::Panicked(msg) => format!("panic: {msg}"),
        }
    }
}

/// The verdict of one strategy, labelled with which strategy produced it.
#[derive(Debug)]
pub struct StrategyReport {
    /// The strategy that ran.
    pub strategy: Strategy,
    /// What it did.
    pub run: StrategyRun,
}

/// Runs all six strategies on the same claim, capturing panics.
///
/// The strategies run sequentially in [`ALL_STRATEGIES`] order, each with
/// a fresh clone of `config`, so a cancellation or memory accounting
/// artifact of one run cannot leak into the next.
pub fn run_all_strategies<S: RandomAccessTrace + Sync + ?Sized>(
    cnf: &Cnf,
    trace: &S,
    config: &CheckConfig,
) -> Vec<StrategyReport> {
    ALL_STRATEGIES
        .iter()
        .map(|&strategy| {
            let result = catch_unwind(AssertUnwindSafe(|| {
                check_unsat_claim(cnf, trace, strategy, &config.clone())
            }));
            let run = match result {
                Ok(outcome) => StrategyRun::Completed(outcome),
                Err(payload) => StrategyRun::Panicked(panic_text(payload.as_ref())),
            };
            StrategyReport { strategy, run }
        })
        .collect()
}

fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Two strategies told different stories about the same claim.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Disagreement {
    /// Short machine-stable label (`verdict-mismatch`, `stats-mismatch`,
    /// `panic`, `implication-violated`, `unexpected-failure-kind`).
    pub kind: &'static str,
    /// Human-readable description naming the strategies involved.
    pub detail: String,
}

impl fmt::Display for Disagreement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.kind, self.detail)
    }
}

impl Error for Disagreement {}

fn disagree(kind: &'static str, detail: String) -> Disagreement {
    Disagreement { kind, detail }
}

/// The numbers a fully-agreeing run settles on, for campaign logging.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AgreementSummary {
    /// Learned clauses every strategy saw in the trace.
    pub learned_in_trace: u64,
    /// Clauses the needed-subset strategies (df/hybrid/dfd) built.
    pub needed_built: u64,
    /// Resolution steps of the depth-first traversal.
    pub df_resolutions: u64,
    /// Resolution steps of the breadth-first traversal.
    pub bf_resolutions: u64,
}

fn find(reports: &[StrategyReport], strategy: Strategy) -> Option<&StrategyRun> {
    reports
        .iter()
        .find(|r| r.strategy == strategy)
        .map(|r| &r.run)
}

fn require(reports: &[StrategyReport], strategy: Strategy) -> Result<&StrategyRun, Disagreement> {
    find(reports, strategy).ok_or_else(|| {
        disagree(
            "missing-strategy",
            format!("no report for {strategy} in the oracle matrix"),
        )
    })
}

fn no_panics(reports: &[StrategyReport]) -> Result<(), Disagreement> {
    for r in reports {
        if let StrategyRun::Panicked(msg) = &r.run {
            return Err(disagree("panic", format!("{} panicked: {msg}", r.strategy)));
        }
    }
    Ok(())
}

/// One-call agreement check for a synthesized trace — the entry point
/// proof-format interop uses after ingesting a DRAT/LRAT proof: run the
/// full strategy matrix over the in-memory events and require unanimous,
/// class-consistent acceptance.
///
/// # Errors
///
/// The first [`Disagreement`] found, naming the strategies involved.
pub fn verify_synthesized_trace(
    cnf: &Cnf,
    events: &[rescheck_trace::TraceEvent],
    config: &CheckConfig,
) -> Result<AgreementSummary, Disagreement> {
    verify_valid_agreement(&run_all_strategies(cnf, events, config))
}

/// Verifies the oracle matrix of a trace that *should* be valid: every
/// strategy accepts, and the statistics agree within each equivalence
/// class (df = dfd = portfolio on the needed subset, with hybrid between
/// df and bf; bf = pdag on the full trace).
///
/// # Errors
///
/// The first [`Disagreement`] found, naming the strategies involved.
pub fn verify_valid_agreement(
    reports: &[StrategyReport],
) -> Result<AgreementSummary, Disagreement> {
    no_panics(reports)?;
    for r in reports {
        if let StrategyRun::Completed(Err(e)) = &r.run {
            return Err(disagree(
                "verdict-mismatch",
                format!(
                    "{} rejected a trace the oracle expected to be valid: {}: {e}",
                    r.strategy,
                    e.kind()
                ),
            ));
        }
    }
    let outcome = |s: Strategy| -> Result<&CheckOutcome, Disagreement> {
        Ok(require(reports, s)?.outcome().expect("checked above"))
    };
    let df = outcome(Strategy::DepthFirst)?;
    let bf = outcome(Strategy::BreadthFirst)?;
    let hybrid = outcome(Strategy::Hybrid)?;
    let portfolio = outcome(Strategy::Portfolio)?;
    let dfd = outcome(Strategy::DiskDepthFirst)?;
    let pdag = outcome(Strategy::ParallelDag)?;

    // Everyone parsed the same trace.
    for (name, o) in [
        ("breadth-first", bf),
        ("hybrid", hybrid),
        ("portfolio", portfolio),
        ("disk-depth-first", dfd),
        ("parallel-dag", pdag),
    ] {
        if o.stats.learned_in_trace != df.stats.learned_in_trace {
            return Err(disagree(
                "stats-mismatch",
                format!(
                    "{name} saw {} learned clauses, depth-first saw {}",
                    o.stats.learned_in_trace, df.stats.learned_in_trace
                ),
            ));
        }
    }
    // Disk-backed depth-first is the same traversal as depth-first, and
    // an unlimited portfolio is disk-backed depth-first: all three must
    // match bit-for-bit, down to the unsat core.
    for (name, o, base_name, base) in [
        ("disk-depth-first", dfd, "depth-first", df),
        ("portfolio", portfolio, "disk-depth-first", dfd),
    ] {
        if o.stats.clauses_built != base.stats.clauses_built
            || o.stats.resolutions != base.stats.resolutions
        {
            return Err(disagree(
                "stats-mismatch",
                format!(
                    "{name} built {}/{} resolutions vs {base_name} {}/{}",
                    o.stats.clauses_built,
                    o.stats.resolutions,
                    base.stats.clauses_built,
                    base.stats.resolutions
                ),
            ));
        }
        if o.core != base.core {
            return Err(disagree(
                "stats-mismatch",
                format!("{name} derived a different unsat core than {base_name}"),
            ));
        }
    }
    if portfolio.stats.peak_memory_bytes != dfd.stats.peak_memory_bytes {
        return Err(disagree(
            "stats-mismatch",
            format!(
                "portfolio peaked at {} bytes, disk-depth-first at {}",
                portfolio.stats.peak_memory_bytes, dfd.stats.peak_memory_bytes
            ),
        ));
    }
    // Hybrid pins every learned level-0 antecedent up front, while
    // depth-first materialises only the ones the final derivation
    // consumes — so hybrid verifies a (possibly strict) superset of
    // df's needed clauses, and at most what breadth-first builds.
    if hybrid.stats.clauses_built < df.stats.clauses_built
        || hybrid.stats.clauses_built > bf.stats.clauses_built
        || hybrid.stats.resolutions < df.stats.resolutions
        || hybrid.stats.resolutions > bf.stats.resolutions
    {
        return Err(disagree(
            "stats-mismatch",
            format!(
                "hybrid built {}/{} resolutions outside the df..bf envelope ({}/{} .. {}/{})",
                hybrid.stats.clauses_built,
                hybrid.stats.resolutions,
                df.stats.clauses_built,
                df.stats.resolutions,
                bf.stats.clauses_built,
                bf.stats.resolutions
            ),
        ));
    }
    // Breadth-first builds every learned clause.
    if bf.stats.clauses_built != bf.stats.learned_in_trace {
        return Err(disagree(
            "stats-mismatch",
            format!(
                "breadth-first built {} of {} learned clauses (must build all)",
                bf.stats.clauses_built, bf.stats.learned_in_trace
            ),
        ));
    }
    // The parallel-dag executor verifies the same full set of learned
    // clauses as breadth-first (its accounting model differs, so peak
    // memory is compared across its own worker counts, not against bf).
    if pdag.stats.clauses_built != bf.stats.clauses_built
        || pdag.stats.resolutions != bf.stats.resolutions
    {
        return Err(disagree(
            "stats-mismatch",
            format!(
                "parallel-dag ({}/{}) diverges from breadth-first ({}/{})",
                pdag.stats.clauses_built,
                pdag.stats.resolutions,
                bf.stats.clauses_built,
                bf.stats.resolutions
            ),
        ));
    }
    Ok(AgreementSummary {
        learned_in_trace: df.stats.learned_in_trace,
        needed_built: df.stats.clauses_built,
        df_resolutions: df.stats.resolutions,
        bf_resolutions: bf.stats.resolutions,
    })
}

/// Verifies the cross-strategy implications on an *arbitrary* trace —
/// the invariants that must hold whether the trace is a pristine solver
/// artifact or a deliberately corrupted mutant:
///
/// - nobody panics;
/// - under an unlimited in-memory configuration nobody fails with a
///   resource or environmental-I/O classification (callers must pass a
///   config without a memory limit, or limit breaches will be reported
///   as disagreements);
/// - depth-first, disk-backed depth-first and the portfolio agree
///   bit-for-bit, down to the failure diagnostic text;
/// - breadth-first and parallel-dag agree the same way;
/// - acceptance respects what each strategy verifies: a breadth-first
///   accept and a hybrid accept each imply a depth-first accept (both
///   verify a superset of depth-first's needed clauses; bf and hybrid
///   themselves are incomparable — bf alone sees defects in unneeded
///   learned clauses, hybrid alone sees dangling level-0 antecedents
///   the final derivation never consumes).
///
/// # Errors
///
/// The first [`Disagreement`] found.
pub fn verify_cross_consistency(reports: &[StrategyReport]) -> Result<(), Disagreement> {
    no_panics(reports)?;
    for r in reports {
        if let Some(
            kind @ (FailureKind::ResourceLimit | FailureKind::Io | FailureKind::Cancelled),
        ) = r.run.failure_kind()
        {
            return Err(disagree(
                "unexpected-failure-kind",
                format!(
                    "{} failed with {kind} under an unlimited in-memory run: {}",
                    r.strategy,
                    r.run.verdict()
                ),
            ));
        }
    }
    let df = require(reports, Strategy::DepthFirst)?;
    let bf = require(reports, Strategy::BreadthFirst)?;
    let hybrid = require(reports, Strategy::Hybrid)?;
    let portfolio = require(reports, Strategy::Portfolio)?;
    let dfd = require(reports, Strategy::DiskDepthFirst)?;
    let pdag = require(reports, Strategy::ParallelDag)?;

    // Bit-identical pairs: same traversal ⇒ same verdict text, and on
    // accept, same work counters.
    for (a_name, a, b_name, b) in [
        ("depth-first", df, "disk-depth-first", dfd),
        ("disk-depth-first", dfd, "portfolio", portfolio),
        ("breadth-first", bf, "parallel-dag", pdag),
    ] {
        if a.verdict() != b.verdict() {
            return Err(disagree(
                "verdict-mismatch",
                format!(
                    "{a_name} said {:?} but {b_name} said {:?}",
                    a.verdict(),
                    b.verdict()
                ),
            ));
        }
        if let (Some(oa), Some(ob)) = (a.outcome(), b.outcome()) {
            if oa.stats.clauses_built != ob.stats.clauses_built
                || oa.stats.resolutions != ob.stats.resolutions
            {
                return Err(disagree(
                    "stats-mismatch",
                    format!(
                        "{a_name} and {b_name} accept with different work: {}/{} vs {}/{}",
                        oa.stats.clauses_built,
                        oa.stats.resolutions,
                        ob.stats.clauses_built,
                        ob.stats.resolutions
                    ),
                ));
            }
        }
    }
    // Depth-first verifies the least: the clauses reachable from the
    // final conflict plus the level-0 antecedents the final derivation
    // actually consumes. Breadth-first additionally verifies every
    // learned clause; hybrid additionally verifies every pinned level-0
    // antecedent (eagerly, including its existence). So bf-accept and
    // hybrid-accept each imply df-accept — but bf and hybrid are
    // *incomparable*: a defect in an unneeded learned clause is visible
    // only to bf, while a dangling level-0 antecedent the derivation
    // never consumes is visible only to hybrid.
    for (strong_name, strong, weak_name, weak) in [
        ("breadth-first", bf, "depth-first", df),
        ("hybrid", hybrid, "depth-first", df),
    ] {
        if strong.accepted() && !weak.accepted() {
            return Err(disagree(
                "implication-violated",
                format!(
                    "{strong_name} accepted but {weak_name} rejected: {:?}",
                    weak.verdict()
                ),
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rescheck_cnf::Lit;
    use rescheck_solver::{Solver, SolverConfig};
    use rescheck_trace::{varint, BinaryWriter, FileTrace, MemorySink, TraceEvent, TraceSink};

    fn unsat_fixture() -> (Cnf, MemorySink) {
        let mut cnf = Cnf::new();
        cnf.add_dimacs_clause(&[1, 2]);
        cnf.add_dimacs_clause(&[1, -2]);
        cnf.add_dimacs_clause(&[-1, 2]);
        cnf.add_dimacs_clause(&[-1, -2]);
        let mut solver = Solver::from_cnf(&cnf, SolverConfig::default());
        let mut sink = MemorySink::new();
        assert!(solver.solve_traced(&mut sink).unwrap().is_unsat());
        (cnf, sink)
    }

    #[test]
    fn valid_trace_agrees_six_ways() {
        let (cnf, trace) = unsat_fixture();
        let reports = run_all_strategies(&cnf, &trace, &CheckConfig::default());
        assert_eq!(reports.len(), 6);
        let summary = verify_valid_agreement(&reports).unwrap();
        assert!(summary.learned_in_trace >= summary.needed_built);
        verify_cross_consistency(&reports).unwrap();
    }

    #[test]
    fn corrupt_trace_is_consistently_rejected() {
        let (cnf, _) = unsat_fixture();
        // A dangling final-conflict reference: every strategy must
        // reject, and the pairs must reject identically.
        let mut sink = MemorySink::new();
        sink.learned(10, &[0, 1]).unwrap();
        sink.final_conflict(999).unwrap();
        let reports = run_all_strategies(&cnf, &sink, &CheckConfig::default());
        verify_cross_consistency(&reports).unwrap();
        for r in &reports {
            assert_eq!(
                r.run.failure_kind(),
                Some(FailureKind::ProofDefect),
                "{}: {}",
                r.strategy,
                r.run.verdict()
            );
        }
        let err = verify_valid_agreement(&reports).unwrap_err();
        assert_eq!(err.kind, "verdict-mismatch");
        assert!(err.to_string().contains("rejected"));
    }

    #[test]
    fn missing_level_zero_rejections_stay_consistent() {
        // A trace whose final phase needs a level-0 record that is
        // absent: the needed-subset and full-trace strategies may differ
        // in *what* they report, but the pairs must stay bit-identical
        // and the implications must hold.
        let mut cnf = Cnf::new();
        cnf.add_dimacs_clause(&[1]);
        cnf.add_dimacs_clause(&[-1]);
        let mut sink = MemorySink::new();
        sink.final_conflict(1).unwrap(); // no LevelZero for x1
        let reports = run_all_strategies(&cnf, &sink, &CheckConfig::default());
        verify_cross_consistency(&reports).unwrap();
        assert!(reports.iter().all(|r| !r.run.accepted()));
    }

    #[test]
    fn verdict_strings_are_stable() {
        let run = StrategyRun::Completed(Err(CheckError::NoFinalConflict));
        assert_eq!(
            run.verdict(),
            "proof-defect: trace has no final conflicting clause record"
        );
        let ok = StrategyRun::Panicked("boom".to_string());
        assert_eq!(ok.verdict(), "panic: boom");
    }

    #[test]
    fn level_zero_helper_traces_still_agree() {
        // Trivial trace with only level-0 propagation into a conflict.
        let mut cnf = Cnf::new();
        cnf.add_dimacs_clause(&[1]);
        cnf.add_dimacs_clause(&[-1]);
        let mut sink = MemorySink::new();
        sink.level_zero(Lit::from_dimacs(1), 0).unwrap();
        sink.final_conflict(1).unwrap();
        let reports = run_all_strategies(&cnf, &sink, &CheckConfig::default());
        verify_valid_agreement(&reports).unwrap();
        verify_cross_consistency(&reports).unwrap();
    }

    /// Runs every strategy, checks the oracle's pairs, and returns the
    /// one verdict all six must share.
    fn unanimous<S: RandomAccessTrace + Sync + ?Sized>(
        cnf: &Cnf,
        trace: &S,
        config: &CheckConfig,
    ) -> String {
        let reports = run_all_strategies(cnf, trace, config);
        verify_cross_consistency(&reports).unwrap();
        let verdict = reports[0].run.verdict();
        for r in &reports {
            assert_eq!(r.run.verdict(), verdict, "{}", r.strategy);
        }
        verdict
    }

    /// The verdict all six strategies share on a binary trace file, the
    /// same with the mapping on and off.
    fn unanimous_on_file(cnf: &Cnf, name: &str, bytes: &[u8]) -> String {
        let dir = std::env::temp_dir().join("rescheck-agreement");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("{name}-{}.rtb", std::process::id()));
        std::fs::write(&path, bytes).unwrap();
        let verdicts = [false, true].map(|no_mmap| {
            let config = CheckConfig {
                no_mmap,
                ..CheckConfig::default()
            };
            unanimous(cnf, &FileTrace::open(&path).unwrap(), &config)
        });
        std::fs::remove_file(&path).ok();
        assert_eq!(verdicts[0], verdicts[1], "mmap vs buffered");
        verdicts[0].clone()
    }

    fn binary(events: &[TraceEvent]) -> Vec<u8> {
        let mut writer = BinaryWriter::new(Vec::new()).unwrap();
        for event in events {
            writer.event(event).unwrap();
        }
        writer.into_inner()
    }

    #[test]
    fn duplicate_ids_report_the_first_error_in_trace_order() {
        let (cnf, _) = unsat_fixture();
        let learned = |id, sources: &[u64]| TraceEvent::Learned {
            id,
            sources: sources.to_vec(),
        };
        let x1 = TraceEvent::LevelZero {
            lit: Lit::from_dimacs(1),
            antecedent: 0,
        };
        let first_duplicate = "proof-defect: learned clause #7 is defined twice";
        let cases = [
            // #7 is redefined before #5 is.
            vec![
                learned(7, &[0, 1]),
                learned(5, &[2, 3]),
                learned(7, &[0, 1]),
                learned(5, &[2, 3]),
            ],
            // The duplicate precedes a second level-0 record for x1.
            vec![learned(7, &[0, 1]), learned(7, &[0, 1]), x1.clone(), x1],
            // One record both redefines #7 and is short of sources.
            vec![learned(7, &[0, 1]), learned(7, &[2])],
        ];
        for (i, events) in cases.iter().enumerate() {
            assert_eq!(
                unanimous(&cnf, events.as_slice(), &CheckConfig::default()),
                first_duplicate
            );
            let on_file = unanimous_on_file(&cnf, &format!("duplicate-{i}"), &binary(events));
            if i < 2 {
                assert_eq!(on_file, first_duplicate);
            } else {
                // The binary decoders reject the short record before
                // any strategy sees it.
                assert!(
                    on_file.ends_with("at least two resolve sources"),
                    "{on_file}"
                );
            }
        }
    }

    #[test]
    fn bad_source_counts_get_one_diagnostic_on_every_path() {
        let (cnf, _) = unsat_fixture();
        // Learned #65535 with one source (0).
        let one_source = b"RTB1\x01\xff\xff\x03\x01\x00";
        assert_eq!(
            unanimous_on_file(&cnf, "one-source", one_source),
            "proof-defect: cannot read trace: learned clause needs at least two resolve sources"
        );
        let mut huge = b"RTB1\x01\x07".to_vec();
        varint::write_u64(&mut huge, (1 << 32) + 1).unwrap();
        assert_eq!(
            unanimous_on_file(&cnf, "huge-count", &huge),
            "proof-defect: cannot read trace: implausible resolve-source count"
        );
    }
}
