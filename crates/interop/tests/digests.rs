//! Pins the traces ingestion synthesizes for a fixed corpus.
//!
//! Each instance is solved with the default solver configuration, its
//! trace exported to LRAT, and the proof re-ingested twice: as LRAT and
//! as its hint-free DRAT twin. An FNV-1a digest over the synthesized
//! events must match the recorded one. LRAT replay depends only on the
//! proof, so its digests are fixed for good; a DRAT digest moves only
//! when BCP's visiting order does, which picks different — equally
//! valid — conflicts, so a change that moves one must say so.

use rescheck_checker::agreement::verify_synthesized_trace;
use rescheck_checker::CheckConfig;
use rescheck_cnf::Cnf;
use rescheck_interop::{export_lrat, ingest_drat, ingest_lrat, DratStep, LratStep};
use rescheck_solver::{Solver, SolverConfig};
use rescheck_trace::{MemorySink, TraceEvent};
use rescheck_workloads::{bmc, parity, pigeonhole};
use std::collections::HashMap;

/// 64-bit FNV-1a over each event's fields as little-endian words.
fn digest(events: &[TraceEvent]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut feed = |word: u64| {
        for byte in word.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for event in events {
        match event {
            TraceEvent::Learned { id, sources } => {
                feed(0);
                feed(*id);
                feed(sources.len() as u64);
                sources.iter().for_each(|&s| feed(s));
            }
            TraceEvent::LevelZero { lit, antecedent } => {
                feed(1);
                feed(lit.code() as u64);
                feed(*antecedent);
            }
            TraceEvent::FinalConflict { id } => {
                feed(2);
                feed(*id);
            }
        }
    }
    hash
}

/// The DRAT twin of an LRAT proof: the same additions without hints,
/// and every deletion kept as the deletion of the clause's literals.
fn drat_twin(cnf: &Cnf, steps: &[LratStep]) -> Vec<DratStep> {
    let mut lits_of: HashMap<u64, Vec<i64>> = cnf
        .iter()
        .map(|(i, clause)| (i as u64 + 1, clause.iter().map(|l| l.to_dimacs()).collect()))
        .collect();
    let mut twin = Vec::new();
    for step in steps {
        match step {
            LratStep::Add { id, lits, .. } => {
                lits_of.insert(*id, lits.clone());
                twin.push(DratStep::Add(lits.clone()));
            }
            LratStep::Delete { ids } => {
                for id in ids {
                    if let Some(lits) = lits_of.remove(id) {
                        twin.push(DratStep::Delete(lits));
                    }
                }
            }
        }
    }
    twin
}

#[test]
fn synthesized_traces_match_their_recorded_digests() {
    // (instance, LRAT digest, DRAT digest)
    let corpus = [
        (
            pigeonhole::instance(5),
            0x5d86_6bd6_75a2_791b,
            0xf6e6_acd9_68fc_80fa,
        ),
        (
            parity::chained_parity(9),
            0xa4e3_4ee1_27e5_38bf,
            0x1260_bdc9_4852_627e,
        ),
        (
            bmc::longmult(4),
            0x07f7_f181_6ebc_ce1c,
            0x5cac_3652_edd1_10d4,
        ),
    ];
    let mut drift = Vec::new();
    for (instance, lrat_digest, drat_digest) in corpus {
        let mut solver = Solver::from_cnf(&instance.cnf, SolverConfig::default());
        let mut sink = MemorySink::new();
        assert!(solver
            .solve_traced(&mut sink)
            .expect("memory sink")
            .is_unsat());
        let exported = export_lrat(&instance.cnf, sink.events()).expect("export");
        let lrat = ingest_lrat(&instance.cnf, &exported.steps).expect("LRAT ingests");
        let drat = ingest_drat(&instance.cnf, &drat_twin(&instance.cnf, &exported.steps))
            .expect("DRAT ingests");
        for (format, report, expected) in
            [("lrat", &lrat, lrat_digest), ("drat", &drat, drat_digest)]
        {
            verify_synthesized_trace(&instance.cnf, &report.events, &CheckConfig::default())
                .unwrap_or_else(|d| panic!("{instance} {format}: {d}"));
            let actual = digest(&report.events);
            if actual != expected {
                drift.push(format!(
                    "{instance} {format}: {actual:#018x} (recorded {expected:#018x})"
                ));
            }
        }
    }
    assert!(
        drift.is_empty(),
        "synthesized traces moved:\n{}",
        drift.join("\n")
    );
}
