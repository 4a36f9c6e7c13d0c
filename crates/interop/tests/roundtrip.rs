//! Round-trip property tests: solver trace → LRAT → re-ingested trace.
//!
//! The invariant under test is the paper's independence argument turned
//! into a pipeline: a resolve trace exported to LRAT and re-ingested
//! must describe the *same refutation* — the re-derived resolvents
//! match the exported ones clause for clause — and the synthesized
//! trace must satisfy all six native checking strategies, unanimously.

use rescheck_checker::agreement::verify_synthesized_trace;
use rescheck_checker::CheckConfig;
use rescheck_cnf::{Cnf, Lit, SatStatus};
use rescheck_interop::{drat, export_lrat, ingest_drat, ingest_lrat, lrat, DratStep, LratStep};
use rescheck_solver::{SolveResult, Solver, SolverConfig};
use rescheck_trace::{MemorySink, TraceEvent};
use rescheck_workloads::{graph_color, parity, pigeonhole, Instance};

/// The oracle configuration the fuzz harness uses: a small thread count.
fn oracle_config() -> CheckConfig {
    CheckConfig {
        jobs: 3,
        ..CheckConfig::default()
    }
}

/// Solves a known-UNSAT instance with a seeded solver and returns the
/// formula plus the recorded resolve trace.
fn solve_unsat(instance: &Instance, seed: u64) -> (Cnf, Vec<TraceEvent>) {
    assert_eq!(instance.expected, Some(SatStatus::Unsatisfiable));
    let cfg = SolverConfig {
        seed,
        ..SolverConfig::default()
    };
    let mut solver = Solver::from_cnf(&instance.cnf, cfg);
    let mut sink = MemorySink::new();
    let result = solver.solve_traced(&mut sink).expect("memory sink");
    assert_eq!(result, SolveResult::Unsatisfiable, "{instance}");
    (instance.cnf.clone(), sink.into_events())
}

/// Sorted resolvent literal sets, the order-insensitive comparison key.
fn resolvent_key(resolvents: &[(u64, Vec<Lit>)]) -> Vec<Vec<Lit>> {
    let mut key: Vec<Vec<Lit>> = resolvents.iter().map(|(_, l)| l.clone()).collect();
    key.sort();
    key
}

fn unsat_corpus() -> Vec<Instance> {
    vec![
        pigeonhole::instance(2),
        pigeonhole::instance(3),
        pigeonhole::instance(4),
        parity::chained_parity(5),
        graph_color::clique_instance(3),
    ]
}

#[test]
fn lrat_roundtrip_preserves_the_refutation() {
    for instance in unsat_corpus() {
        for seed in [1u64, 7, 42] {
            let (cnf, events) = solve_unsat(&instance, seed);

            let exported = export_lrat(&cnf, &events)
                .unwrap_or_else(|e| panic!("{instance} seed {seed}: export failed: {e}"));

            // Wire-format round-trips: text and binary encodings are
            // lossless over the exported steps.
            let mut text = Vec::new();
            lrat::write_text(&mut text, &exported.steps).unwrap();
            assert_eq!(lrat::parse(&text).unwrap(), exported.steps, "{instance}");
            let binary = lrat::write_binary(&exported.steps);
            assert_eq!(lrat::parse(&binary).unwrap(), exported.steps, "{instance}");

            // Semantic round-trip: re-ingesting derives the same
            // resolvents, with no RAT escape hatch needed.
            let reingested = ingest_lrat(&cnf, &exported.steps)
                .unwrap_or_else(|e| panic!("{instance} seed {seed}: re-ingest failed: {e}"));
            assert!(reingested.resolution_checkable(), "{instance} seed {seed}");
            assert_eq!(
                resolvent_key(&exported.resolvents),
                resolvent_key(&reingested.resolvents),
                "{instance} seed {seed}: resolvent sets diverged"
            );

            // The synthesized trace convinces every native strategy.
            verify_synthesized_trace(&cnf, &reingested.events, &oracle_config()).unwrap_or_else(
                |d| panic!("{instance} seed {seed}: strategies disagreed on the round-trip: {d}"),
            );
        }
    }
}

#[test]
fn drat_projection_of_exported_proof_ingests_cleanly() {
    // Strip the hints off an exported LRAT proof: what remains is a
    // valid DRAT proof (additions in derivation order plus deletions),
    // and DRAT ingestion must re-derive a checkable trace from it.
    for instance in unsat_corpus() {
        let (cnf, events) = solve_unsat(&instance, 3);
        let exported = export_lrat(&cnf, &events).unwrap();
        let mut id_lits: std::collections::HashMap<u64, Vec<i64>> = (0..cnf.num_clauses())
            .map(|i| {
                (
                    i as u64 + 1,
                    cnf.iter()
                        .nth(i)
                        .unwrap()
                        .1
                        .iter()
                        .map(|l| l.to_dimacs())
                        .collect(),
                )
            })
            .collect();
        let mut steps: Vec<DratStep> = Vec::new();
        for step in &exported.steps {
            match step {
                LratStep::Add { id, lits, .. } => {
                    id_lits.insert(*id, lits.clone());
                    steps.push(DratStep::Add(lits.clone()));
                }
                LratStep::Delete { ids } => {
                    for id in ids {
                        steps.push(DratStep::Delete(id_lits[id].clone()));
                    }
                }
            }
        }

        let report = ingest_drat(&cnf, &steps)
            .unwrap_or_else(|e| panic!("{instance}: DRAT ingest failed: {e}"));
        assert!(report.resolution_checkable(), "{instance}");

        verify_synthesized_trace(&cnf, &report.events, &oracle_config()).unwrap_or_else(|d| {
            panic!("{instance}: strategies disagreed on the DRAT-synthesized trace: {d}")
        });

        // The DRAT binary encoding round-trips the projected proof too.
        let binary = drat::write_binary(&steps);
        assert_eq!(drat::parse(&binary).unwrap(), steps, "{instance}");
    }
}
