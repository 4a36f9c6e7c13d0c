//! `hybrid`'s unit tests: the depth-first engine's checks run on its
//! freeing configuration, plus the test of what only it does — free a
//! clause after its last needed consumer.

use crate::api::CheckConfig;
use crate::depth_first::table::{self, store_tests};
use crate::outcome::Strategy;
use rescheck_cnf::{Cnf, Lit};
use rescheck_trace::{MemorySink, TraceSink};

store_tests! {
    Strategy::Hybrid;
    accepts_handwritten_level_zero_proof: accepts_level_zero_proof,
    accepts_learned_clause_proof_with_core: accepts_learned_proof_with_core,
    skips_unneeded_clauses_like_depth_first: builds_only_needed_clauses,
    missing_final_conflict_is_rejected: rejects_missing_final_conflict,
    unknown_source_is_rejected: rejects_unknown_source,
    cycles_are_detected: rejects_cycle,
    invalid_resolution_is_attributed: rejects_invalid_resolution_with_target,
    duplicate_learned_id_is_rejected: rejects_duplicate_learned_id,
    memory_limit_applies: memory_limit_applies,
    diamond_dependencies_are_not_a_cycle: builds_each_diamond_node_once,
}

#[test]
fn frees_mid_chain_clauses() {
    // A long chain where every learned clause is used exactly once:
    // hybrid must not hold them all simultaneously.
    let mut cnf = Cnf::new();
    let n = 64i64;
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

    let config = CheckConfig::default();
    let [hybrid, df] = [Strategy::Hybrid, Strategy::DepthFirst]
        .map(|strategy| table::check(strategy, &cnf, &sink, &config).unwrap());
    assert!(
        hybrid.stats.peak_memory_bytes < df.stats.peak_memory_bytes,
        "hybrid {} vs df {}",
        hybrid.stats.peak_memory_bytes,
        df.stats.peak_memory_bytes
    );
    assert_eq!(hybrid.stats.clauses_built, df.stats.clauses_built);
}
