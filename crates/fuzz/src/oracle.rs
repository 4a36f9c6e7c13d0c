//! The differential oracle: what one fuzz iteration runs and checks.
//!
//! Each iteration generates an instance from a seeded [`Recipe`], solves
//! it, and cross-validates the answer three ways:
//!
//! 1. **SAT answers** must satisfy every clause
//!    ([`rescheck_checker::check_sat_claim`]), and — on small instances —
//!    agree with brute-force ground truth and any status known by
//!    construction.
//! 2. **UNSAT answers** must be accepted by *every* checking
//!    strategies with class-identical statistics
//!    ([`rescheck_checker::agreement::verify_valid_agreement`]), again
//!    cross-checked against ground truth where available.
//! 3. **Corrupted traces** (the mutation corpus of
//!    [`rescheck_trace::mutate`]) must never panic any strategy, never be
//!    misclassified as an I/O or resource failure, and never break the
//!    cross-strategy implications
//!    ([`rescheck_checker::agreement::verify_cross_consistency`]).
//! 4. **Proof round-trips**: the trace exported to LRAT and re-ingested
//!    must re-derive the same resolvents and convince the matrix again;
//!    corrupted LRAT bytes must produce a clean verdict, and whatever
//!    still ingests must keep the cross-strategy implications intact.
//!
//! Any violation becomes a [`Finding`], which the campaign shrinks with
//! the delta debugger and writes out as a repro artifact.

use crate::recipe::{Recipe, SolverChoices};
use rescheck_checker::agreement::{
    run_all_strategies, verify_cross_consistency, verify_synthesized_trace, verify_valid_agreement,
};
use rescheck_checker::{check_sat_claim, CheckConfig};
use rescheck_cnf::{Cnf, SatStatus};
use rescheck_interop::{
    apply_proof, export_lrat, ingest_bytes, lrat, ProofFormat, ProofMutation, ALL_PROOF_MUTATIONS,
};
use rescheck_solver::{SolveResult, Solver};
use rescheck_trace::{mutate, read_all, BinaryWriter, Mutation, TraceEvent, TraceFormat};
use rescheck_trace::{MemorySink, TraceSink, ALL_MUTATIONS};
use std::fmt;

/// Deliberate oracle sabotage, for validating the shrinker and the
/// artifact pipeline end to end (a fuzzer whose failure path is never
/// exercised is itself untested code).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InjectedBug {
    /// Treat every fully-agreeing valid trace as a disagreement. The
    /// delta debugger then shrinks the instance to a minimal formula
    /// whose proof still checks — exercising the whole failure path on
    /// a healthy checker.
    RejectValid,
    /// Treat every cleanly-rejected mutant as if the checker had
    /// wrongly accepted it, forcing a trace-level shrink.
    AcceptMutants,
}

impl InjectedBug {
    /// Parses the CLI spelling (`reject-valid` / `accept-mutants`).
    pub fn parse(s: &str) -> Option<InjectedBug> {
        match s {
            "reject-valid" => Some(InjectedBug::RejectValid),
            "accept-mutants" => Some(InjectedBug::AcceptMutants),
            _ => None,
        }
    }
}

impl fmt::Display for InjectedBug {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InjectedBug::RejectValid => f.write_str("reject-valid"),
            InjectedBug::AcceptMutants => f.write_str("accept-mutants"),
        }
    }
}

/// Which oracle a finding violated.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FindingKind {
    /// The solver claimed SAT with a model that does not satisfy the
    /// formula.
    SatModelInvalid,
    /// The solver's verdict contradicts ground truth (brute force on
    /// small instances, or a status known by construction).
    GroundTruthMismatch,
    /// The checking strategies disagreed on a pristine solver
    /// trace.
    StrategyDisagreement,
    /// A mutated trace broke a checker invariant (panic, misclassified
    /// failure, or cross-strategy inconsistency).
    MutantOracle(Mutation),
    /// The trace → LRAT → trace round trip lost the refutation: export
    /// failed, re-ingestion failed, the resolvents diverged, or the
    /// synthesized trace no longer convinced the matrix.
    RoundTrip,
    /// A corrupted LRAT proof that still ingested broke the
    /// cross-strategy implications on its synthesized trace.
    ProofMutantOracle(ProofMutation),
}

impl FindingKind {
    /// Short kebab-case label used in case-directory names and logs.
    pub fn label(&self) -> String {
        match self {
            FindingKind::SatModelInvalid => "sat-model-invalid".to_string(),
            FindingKind::GroundTruthMismatch => "ground-truth-mismatch".to_string(),
            FindingKind::StrategyDisagreement => "strategy-disagreement".to_string(),
            FindingKind::MutantOracle(m) => format!("mutant-{m}"),
            FindingKind::RoundTrip => "lrat-roundtrip".to_string(),
            FindingKind::ProofMutantOracle(m) => format!("proof-mutant-{m}"),
        }
    }
}

impl fmt::Display for FindingKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

/// A reproducible oracle violation, carrying everything the shrinker
/// and artifact writer need.
#[derive(Debug)]
pub struct Finding {
    /// Which oracle failed.
    pub kind: FindingKind,
    /// Human-readable description of the violation.
    pub detail: String,
    /// Campaign iteration that found it.
    pub iteration: u64,
    /// The derived per-iteration seed (replays the iteration alone).
    pub iter_seed: u64,
    /// The generating recipe.
    pub recipe: Recipe,
    /// The solver knobs in effect.
    pub choices: SolverChoices,
    /// The formula (pre-shrink).
    pub cnf: Cnf,
    /// Trace-level evidence for [`FindingKind::MutantOracle`] and
    /// [`FindingKind::StrategyDisagreement`] findings.
    pub events: Option<Vec<TraceEvent>>,
}

/// Knobs of the per-iteration oracle.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OracleConfig {
    /// Conflict budget per solve; exhausted budgets count as `unknown`.
    pub conflict_limit: u64,
    /// Brute-force ground truth is consulted up to this variable count.
    pub brute_force_max_vars: usize,
    /// Mutants generated per UNSAT trace (cycling through
    /// [`ALL_MUTATIONS`]).
    pub mutants_per_trace: u32,
    /// Upper bound on generated variable counts.
    pub max_vars: usize,
    /// Optional deliberate oracle sabotage.
    pub inject: Option<InjectedBug>,
}

impl Default for OracleConfig {
    fn default() -> Self {
        OracleConfig {
            conflict_limit: 20_000,
            brute_force_max_vars: 11,
            mutants_per_trace: 4,
            max_vars: 20,
            inject: None,
        }
    }
}

/// Counter deltas from one iteration.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IterationCounters {
    /// SAT verdicts.
    pub sat: u64,
    /// UNSAT verdicts.
    pub unsat: u64,
    /// Conflict budget exhausted.
    pub unknown: u64,
    /// Strategy matrices run on pristine traces.
    pub matrices: u64,
    /// LRAT round trips (export → re-ingest → re-check) completed.
    pub roundtrips: u64,
    /// Corrupted LRAT proofs fed to the ingestion engine.
    pub proof_mutants_tested: u64,
    /// Corrupted LRAT proofs rejected with a clean verdict.
    pub proof_mutants_rejected: u64,
    /// Mutants generated and fed to the checker.
    pub mutants_tested: u64,
    /// Mutants rejected while decoding the binary stream.
    pub mutants_rejected_decode: u64,
    /// Mutants rejected by the checker with a proof defect.
    pub mutants_rejected_check: u64,
    /// Mutants the checker accepted (the mutation landed outside the
    /// needed proof, leaving a still-valid trace) — tracked, not a bug.
    pub mutants_accepted: u64,
    /// Mutations inapplicable to the trace (too small / no-op).
    pub mutants_inapplicable: u64,
}

impl IterationCounters {
    /// Accumulates another iteration's deltas.
    pub fn add(&mut self, other: &IterationCounters) {
        self.sat += other.sat;
        self.unsat += other.unsat;
        self.unknown += other.unknown;
        self.matrices += other.matrices;
        self.roundtrips += other.roundtrips;
        self.proof_mutants_tested += other.proof_mutants_tested;
        self.proof_mutants_rejected += other.proof_mutants_rejected;
        self.mutants_tested += other.mutants_tested;
        self.mutants_rejected_decode += other.mutants_rejected_decode;
        self.mutants_rejected_check += other.mutants_rejected_check;
        self.mutants_accepted += other.mutants_accepted;
        self.mutants_inapplicable += other.mutants_inapplicable;
    }
}

/// What one iteration did, in a deterministic, loggable form.
#[derive(Debug)]
pub struct IterationReport {
    /// The deterministic log line (no wall-clock anywhere).
    pub line: String,
    /// Counter deltas.
    pub counters: IterationCounters,
    /// The first oracle violation, if any.
    pub finding: Option<Finding>,
}

/// SplitMix64-style finalizer deriving independent per-iteration seeds
/// from the campaign seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Encodes events in the binary trace format (the mutation substrate
/// and the artifact format).
pub fn encode_binary(events: &[TraceEvent]) -> Vec<u8> {
    let mut w = BinaryWriter::new(Vec::new()).expect("writing to a Vec cannot fail");
    for e in events {
        w.event(e).expect("writing to a Vec cannot fail");
    }
    w.into_inner()
}

/// Decodes a binary trace, `Err` on any malformation.
pub fn decode_binary(bytes: &[u8]) -> std::io::Result<Vec<TraceEvent>> {
    read_all(bytes, TraceFormat::Binary)
}

/// Ground truth for `cnf` where we can know it: brute force on small
/// instances, otherwise the status the generator guarantees.
fn ground_truth(cnf: &Cnf, expected: Option<SatStatus>, cfg: &OracleConfig) -> Option<SatStatus> {
    if cnf.num_vars() <= cfg.brute_force_max_vars {
        Some(cnf.brute_force_status())
    } else {
        expected
    }
}

/// Runs one fuzz iteration: sample, solve, cross-validate, mutate.
pub fn run_iteration(iteration: u64, iter_seed: u64, cfg: &OracleConfig) -> IterationReport {
    let mut rng = rescheck_cnf::SplitMix64::new(iter_seed);
    let recipe = Recipe::sample(&mut rng, cfg.max_vars);
    let choices = SolverChoices::sample(&mut rng);
    let (cnf, expected) = recipe.build();

    let mut counters = IterationCounters::default();
    let mut solver = Solver::from_cnf(&cnf, choices.to_config(cfg.conflict_limit));
    let mut sink = MemorySink::new();
    let result = solver
        .solve_traced(&mut sink)
        .expect("in-memory trace sink cannot fail");

    let finding = |kind: FindingKind, detail: String, events: Option<Vec<TraceEvent>>| Finding {
        kind,
        detail,
        iteration,
        iter_seed,
        recipe: recipe.clone(),
        choices,
        cnf: cnf.clone(),
        events,
    };
    let prefix = format!("iter {iteration:04} [{recipe} cfg={}]", choices.tag());

    match result {
        SolveResult::Unknown => {
            counters.unknown = 1;
            IterationReport {
                line: format!("{prefix} unknown (conflict budget)"),
                counters,
                finding: None,
            }
        }
        SolveResult::Satisfiable(model) => {
            counters.sat = 1;
            let mut found = None;
            if let Err(e) = check_sat_claim(&cnf, &model) {
                found = Some(finding(
                    FindingKind::SatModelInvalid,
                    format!("solver claimed SAT but {e}"),
                    None,
                ));
            } else if let Some(truth) = ground_truth(&cnf, expected, cfg) {
                if truth != SatStatus::Satisfiable {
                    found = Some(finding(
                        FindingKind::GroundTruthMismatch,
                        format!("solver claimed SAT but ground truth is {truth}"),
                        None,
                    ));
                }
            }
            IterationReport {
                line: format!(
                    "{prefix} sat{}",
                    if found.is_some() { " FINDING" } else { "" }
                ),
                counters,
                finding: found,
            }
        }
        SolveResult::Unsatisfiable => {
            counters.unsat = 1;
            let events = sink.into_events();
            let mut found = None;

            if let Some(truth) = ground_truth(&cnf, expected, cfg) {
                if truth != SatStatus::Unsatisfiable {
                    found = Some(finding(
                        FindingKind::GroundTruthMismatch,
                        format!("solver claimed UNSAT but ground truth is {truth}"),
                        Some(events.clone()),
                    ));
                }
            }

            // The full strategy matrix on the pristine trace.
            let mut matrix_note = String::new();
            if found.is_none() {
                counters.matrices = 1;
                let reports = run_all_strategies(&cnf, &events, &CheckConfig::default());
                match verify_valid_agreement(&reports) {
                    Ok(summary) => {
                        matrix_note = format!(
                            " learned={} built={}",
                            summary.learned_in_trace, summary.needed_built
                        );
                        if cfg.inject == Some(InjectedBug::RejectValid) {
                            found = Some(finding(
                                FindingKind::StrategyDisagreement,
                                "injected bug: valid agreement reported as disagreement"
                                    .to_string(),
                                Some(events.clone()),
                            ));
                        }
                    }
                    Err(d) => {
                        found = Some(finding(
                            FindingKind::StrategyDisagreement,
                            d.to_string(),
                            Some(events.clone()),
                        ));
                    }
                }
            }

            // Mutation corpus over the binary encoding.
            let mut mutant_note = String::new();
            if found.is_none() {
                let bytes = encode_binary(&events);
                let (note, mutant_finding) =
                    run_mutants(&cnf, &events, &bytes, iter_seed, cfg, &mut counters);
                mutant_note = note;
                if let Some((kind, detail, mutant_events)) = mutant_finding {
                    found = Some(finding(kind, detail, mutant_events));
                }
            }

            // LRAT round trip plus the proof-corruption corpus.
            let mut roundtrip_note = String::new();
            if found.is_none() {
                let (note, rt_finding) = run_roundtrip(&cnf, &events, iter_seed, &mut counters);
                roundtrip_note = note;
                if let Some((kind, detail)) = rt_finding {
                    found = Some(finding(kind, detail, Some(events.clone())));
                }
            }

            IterationReport {
                line: format!(
                    "{prefix} unsat{matrix_note}{mutant_note}{roundtrip_note}{}",
                    if found.is_some() { " FINDING" } else { "" }
                ),
                counters,
                finding: found,
            }
        }
    }
}

type MutantFinding = (FindingKind, String, Option<Vec<TraceEvent>>);

/// Feeds `cfg.mutants_per_trace` corrupted variants of `bytes` to the
/// checker and enforces the mutation-corpus invariants.
fn run_mutants(
    cnf: &Cnf,
    original_events: &[TraceEvent],
    bytes: &[u8],
    iter_seed: u64,
    cfg: &OracleConfig,
    counters: &mut IterationCounters,
) -> (String, Option<MutantFinding>) {
    let mut rejected = 0u64;
    for m in 0..cfg.mutants_per_trace {
        let mutation = ALL_MUTATIONS[m as usize % ALL_MUTATIONS.len()];
        let mut rng = rescheck_cnf::SplitMix64::new(mix(iter_seed, 0x6d75_7400 + m as u64));
        let Some(mutated) = mutate::apply(bytes, mutation, &mut rng) else {
            counters.mutants_inapplicable += 1;
            continue;
        };
        counters.mutants_tested += 1;
        let mutant_events = match decode_binary(&mutated) {
            Err(_) => {
                // The decoder rejected the stream outright — the clean
                // rejection the corpus expects from truncations and
                // varint corruption.
                counters.mutants_rejected_decode += 1;
                rejected += 1;
                continue;
            }
            Ok(events) => events,
        };
        if mutant_events == original_events {
            // The mutation round-tripped to the same semantics (cannot
            // happen with the current operators, but guard anyway).
            counters.mutants_tested -= 1;
            counters.mutants_inapplicable += 1;
            continue;
        }
        let reports = run_all_strategies(cnf, &mutant_events, &CheckConfig::default());
        if let Err(d) = verify_cross_consistency(&reports) {
            return (
                format!(" mutants={rejected}-then-FINDING"),
                Some((
                    FindingKind::MutantOracle(mutation),
                    d.to_string(),
                    Some(mutant_events),
                )),
            );
        }
        if reports.iter().any(|r| r.run.accepted()) {
            // Every accept passed cross-consistency, so the mutated
            // trace is genuinely still a valid proof (the corruption
            // landed outside the needed derivation). Track it — a
            // rising rate means the mutators lost their teeth.
            counters.mutants_accepted += 1;
        } else {
            counters.mutants_rejected_check += 1;
            rejected += 1;
            if cfg.inject == Some(InjectedBug::AcceptMutants) {
                return (
                    format!(" mutants={rejected}-then-FINDING"),
                    Some((
                        FindingKind::MutantOracle(mutation),
                        "injected bug: cleanly-rejected mutant treated as wrongly accepted"
                            .to_string(),
                        Some(mutant_events),
                    )),
                );
            }
        }
    }
    (
        format!(" mutants={rejected}/{} rejected", counters.mutants_tested),
        None,
    )
}

type RoundTripFinding = (FindingKind, String);

/// Exports the trace to LRAT, re-ingests it, re-checks the synthesized
/// trace, then feeds corrupted proof bytes through the ingestion engine.
///
/// The pristine trace already passed the full matrix, so export *must*
/// succeed, the round trip *must* preserve the resolvents, and the
/// re-checked matrix *must* agree — any deviation is a finding, not a
/// shrug.
fn run_roundtrip(
    cnf: &Cnf,
    events: &[TraceEvent],
    iter_seed: u64,
    counters: &mut IterationCounters,
) -> (String, Option<RoundTripFinding>) {
    let fail = |detail: String| {
        (
            " roundtrip=FINDING".to_string(),
            Some((FindingKind::RoundTrip, detail)),
        )
    };
    let exported = match export_lrat(cnf, events) {
        Ok(e) => e,
        Err(e) => return fail(format!("export of a matrix-valid trace failed: {e}")),
    };
    let mut text = Vec::new();
    lrat::write_text(&mut text, &exported.steps).expect("writing to a Vec cannot fail");
    let reingested = match ingest_bytes(cnf, &text, ProofFormat::Lrat) {
        Ok(r) => r,
        Err(e) => return fail(format!("re-ingesting the exported proof failed: {e}")),
    };
    if !reingested.resolution_checkable() {
        return fail("exported proof re-ingested with RAT steps".to_string());
    }
    let mut ours: Vec<&Vec<_>> = exported.resolvents.iter().map(|(_, l)| l).collect();
    let mut theirs: Vec<&Vec<_>> = reingested.resolvents.iter().map(|(_, l)| l).collect();
    ours.sort();
    theirs.sort();
    if ours != theirs {
        return fail(format!(
            "round trip changed the resolvent set ({} exported, {} re-derived)",
            ours.len(),
            theirs.len()
        ));
    }
    if let Err(d) = verify_synthesized_trace(cnf, &reingested.events, &CheckConfig::default()) {
        return fail(format!("matrix rejected the round-tripped trace: {d}"));
    }
    counters.roundtrips += 1;

    // Corrupted proof bytes: every operator once per iteration. Any
    // verdict is acceptable; a mutant that still ingests resolution-
    // checkable must keep the cross-strategy implications intact.
    for (i, mutation) in ALL_PROOF_MUTATIONS.iter().enumerate() {
        let mut rng = rescheck_cnf::SplitMix64::new(mix(iter_seed, 0x7072_6600 + i as u64));
        let Some(mutated) = apply_proof(&text, *mutation, &mut rng) else {
            continue;
        };
        counters.proof_mutants_tested += 1;
        match ingest_bytes(cnf, &mutated, ProofFormat::Lrat) {
            Err(_) => counters.proof_mutants_rejected += 1,
            Ok(report) => {
                if report.resolution_checkable() {
                    let reports = run_all_strategies(cnf, &report.events, &CheckConfig::default());
                    if let Err(d) = verify_cross_consistency(&reports) {
                        return (
                            " proof-mutants=FINDING".to_string(),
                            Some((FindingKind::ProofMutantOracle(*mutation), d.to_string())),
                        );
                    }
                }
            }
        }
    }
    (
        format!(
            " roundtrip=ok proof-mutants={}/{} rejected",
            counters.proof_mutants_rejected, counters.proof_mutants_tested
        ),
        None,
    )
}

/// Does an instance-level failure of `kind` still reproduce on `cnf`?
///
/// This is the delta debugger's test function: it re-runs the exact
/// oracle that flagged the original finding (fresh solve, fresh trace,
/// fresh strategy matrix), so a reduction is kept only if the *same
/// class* of violation survives.
pub fn instance_failure_reproduces(
    kind: &FindingKind,
    cnf: &Cnf,
    choices: SolverChoices,
    cfg: &OracleConfig,
) -> bool {
    if cnf.num_clauses() == 0 {
        return false;
    }
    let mut solver = Solver::from_cnf(cnf, choices.to_config(cfg.conflict_limit));
    let mut sink = MemorySink::new();
    let Ok(result) = solver.solve_traced(&mut sink) else {
        return false;
    };
    match kind {
        FindingKind::SatModelInvalid => match result {
            SolveResult::Satisfiable(model) => check_sat_claim(cnf, &model).is_err(),
            _ => false,
        },
        FindingKind::GroundTruthMismatch => {
            // Generator labels do not transfer to subformulas, so the
            // reduced predicate insists on brute-forceable sizes.
            if cnf.num_vars() > cfg.brute_force_max_vars {
                return false;
            }
            let truth = cnf.brute_force_status();
            match result {
                SolveResult::Satisfiable(_) => truth == SatStatus::Unsatisfiable,
                SolveResult::Unsatisfiable => truth == SatStatus::Satisfiable,
                SolveResult::Unknown => false,
            }
        }
        FindingKind::StrategyDisagreement => {
            if !matches!(result, SolveResult::Unsatisfiable) {
                return false;
            }
            let events = sink.into_events();
            let reports = run_all_strategies(cnf, &events, &CheckConfig::default());
            match cfg.inject {
                Some(InjectedBug::RejectValid) => verify_valid_agreement(&reports).is_ok(),
                _ => verify_valid_agreement(&reports).is_err(),
            }
        }
        FindingKind::MutantOracle(_) => false, // trace-level kind
        FindingKind::RoundTrip | FindingKind::ProofMutantOracle(_) => {
            if !matches!(result, SolveResult::Unsatisfiable) {
                return false;
            }
            let events = sink.into_events();
            let mut counters = IterationCounters::default();
            // The proof-mutant RNG seed is not part of the finding; a
            // fixed replay seed keeps the predicate deterministic.
            match run_roundtrip(cnf, &events, 0, &mut counters).1 {
                Some((k, _)) => std::mem::discriminant(&k) == std::mem::discriminant(kind),
                None => false,
            }
        }
    }
}

/// Does a trace-level failure still reproduce on `events`?
pub fn trace_failure_reproduces(cnf: &Cnf, events: &[TraceEvent], cfg: &OracleConfig) -> bool {
    let reports = run_all_strategies(cnf, events, &CheckConfig::default());
    match cfg.inject {
        Some(InjectedBug::AcceptMutants) => {
            verify_cross_consistency(&reports).is_ok() && reports.iter().all(|r| !r.run.accepted())
        }
        _ => verify_cross_consistency(&reports).is_err(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_is_deterministic_and_spreads() {
        assert_eq!(mix(42, 7), mix(42, 7));
        assert_ne!(mix(42, 7), mix(42, 8));
        assert_ne!(mix(42, 7), mix(43, 7));
    }

    #[test]
    fn iterations_are_deterministic() {
        let a = run_iteration(3, mix(1234, 3), &OracleConfig::default());
        let b = run_iteration(3, mix(1234, 3), &OracleConfig::default());
        assert_eq!(a.line, b.line);
        assert_eq!(a.counters, b.counters);
        assert_eq!(a.finding.is_some(), b.finding.is_some());
    }

    #[test]
    fn clean_checker_survives_a_small_sweep() {
        let mut counters = IterationCounters::default();
        for i in 0..30 {
            let report = run_iteration(i, mix(0xF00D, i), &OracleConfig::default());
            assert!(
                report.finding.is_none(),
                "unexpected finding: {}",
                report.finding.unwrap().detail
            );
            counters.add(&report.counters);
        }
        assert_eq!(counters.sat + counters.unsat + counters.unknown, 30);
        assert!(counters.unsat > 0, "sweep never reached the UNSAT oracle");
        assert!(counters.mutants_tested > 0, "sweep never mutated a trace");
        assert!(counters.roundtrips > 0, "sweep never round-tripped a proof");
        assert!(
            counters.proof_mutants_tested > 0,
            "sweep never corrupted a proof"
        );
        assert_eq!(
            counters.mutants_tested,
            counters.mutants_rejected_decode
                + counters.mutants_rejected_check
                + counters.mutants_accepted
        );
    }

    #[test]
    fn injected_reject_valid_yields_a_finding() {
        let cfg = OracleConfig {
            inject: Some(InjectedBug::RejectValid),
            ..OracleConfig::default()
        };
        let finding = (0..50)
            .find_map(|i| run_iteration(i, mix(0xBEEF, i), &cfg).finding)
            .expect("50 iterations never hit UNSAT");
        assert_eq!(finding.kind, FindingKind::StrategyDisagreement);
        assert!(finding.detail.contains("injected"));
        // The predicate sees the injected failure too, so ddmin has a
        // valid starting point.
        assert!(instance_failure_reproduces(
            &finding.kind,
            &finding.cnf,
            finding.choices,
            &cfg
        ));
    }

    #[test]
    fn injected_accept_mutants_yields_a_trace_finding() {
        let cfg = OracleConfig {
            inject: Some(InjectedBug::AcceptMutants),
            ..OracleConfig::default()
        };
        let finding = (0..50)
            .find_map(|i| run_iteration(i, mix(0xCAFE, i), &cfg).finding)
            .expect("50 iterations never rejected a mutant");
        assert!(matches!(finding.kind, FindingKind::MutantOracle(_)));
        let events = finding.events.as_ref().unwrap();
        assert!(trace_failure_reproduces(&finding.cnf, events, &cfg));
    }

    #[test]
    fn binary_roundtrip_helpers() {
        let events = vec![
            TraceEvent::Learned {
                id: 9,
                sources: vec![0, 1],
            },
            TraceEvent::FinalConflict { id: 9 },
        ];
        let bytes = encode_binary(&events);
        assert_eq!(decode_binary(&bytes).unwrap(), events);
        assert!(decode_binary(&bytes[..bytes.len() - 1]).is_err());
    }

    #[test]
    fn injected_bug_parses() {
        assert_eq!(
            InjectedBug::parse("reject-valid"),
            Some(InjectedBug::RejectValid)
        );
        assert_eq!(
            InjectedBug::parse("accept-mutants"),
            Some(InjectedBug::AcceptMutants)
        );
        assert_eq!(InjectedBug::parse("nope"), None);
        assert_eq!(InjectedBug::RejectValid.to_string(), "reject-valid");
    }
}
