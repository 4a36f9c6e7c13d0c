//! `dfd`'s unit tests: the depth-first engine's checks run on its disk
//! source store, plus the tests of what only that store has — its
//! agreement with `df`, its cursor reads and its tightest budget.

use crate::api::CheckConfig;
use crate::depth_first::run_disk;
use crate::depth_first::table::{self, store_tests};
use crate::outcome::Strategy;
use crate::scratch::CheckScratch;
use rescheck_obs::{MetricsSink, NullObserver};

store_tests! {
    Strategy::DiskDepthFirst;
    accepts_handwritten_level_zero_proof: accepts_level_zero_proof,
    accepts_learned_clause_proof_with_core: accepts_learned_proof_with_core,
    builds_only_needed_clauses: builds_only_needed_clauses,
    missing_final_conflict_is_rejected: rejects_missing_final_conflict,
    unknown_source_is_rejected: rejects_unknown_source,
    cycles_are_detected: rejects_cycle,
    invalid_resolution_is_rejected_with_target: rejects_invalid_resolution_with_target,
    duplicate_learned_id_is_rejected: rejects_duplicate_learned_id,
    memory_limit_applies: memory_limit_applies,
    diamond_dependencies_are_not_a_cycle: builds_each_diamond_node_once,
}

#[test]
fn stats_match_in_memory_depth_first() {
    let config = CheckConfig::default();
    for (cnf, sink) in [
        table::chain_trace(),
        table::learned_proof(),
        table::diamond(),
    ] {
        let [df, dfd] = [Strategy::DepthFirst, Strategy::DiskDepthFirst]
            .map(|store| table::check(store, &cnf, &sink, &config).unwrap());
        assert_eq!(dfd.stats.clauses_built, df.stats.clauses_built);
        assert_eq!(dfd.stats.resolutions, df.stats.resolutions);
        assert_eq!(dfd.stats.learned_in_trace, df.stats.learned_in_trace);
        assert_eq!(dfd.core, df.core);
    }
}

#[test]
fn reads_each_needed_clause_once_under_any_budget() {
    // The walk reads a clause's sources when it opens the clause and
    // keeps them until the clause is built, so no budget, however
    // tight, makes it read a record twice.
    for (cnf, sink) in [table::learned_proof(), table::diamond()] {
        let dfd = |limit| {
            let config = CheckConfig {
                memory_limit: limit,
                ..CheckConfig::default()
            };
            let mut metrics = MetricsSink::new();
            run_disk(&cnf, &sink, &config, &mut CheckScratch::new(), &mut metrics)
                .map(|outcome| (outcome, metrics.registry().gauge("check.dfd.cursor_reads")))
        };
        let tight = crate::memory::tightest_limit(|limit| dfd(limit).map(|(outcome, _)| outcome));
        for limit in [None, Some(tight)] {
            let (outcome, reads) = dfd(limit).unwrap();
            assert!(outcome.stats.clauses_built > 0);
            assert_eq!(
                reads,
                Some(outcome.stats.clauses_built as f64),
                "limit {limit:?}"
            );
        }
    }
}

#[test]
fn caches_yield_to_a_tight_memory_limit() {
    // The tightest limit dfd passes under is below its unlimited
    // peak: the original-clause cache gave its bytes back instead of
    // failing the check, and the proof is unchanged.
    let (cnf, sink) = table::diamond();
    let dfd = |limit| {
        let config = CheckConfig {
            memory_limit: limit,
            ..CheckConfig::default()
        };
        run_disk(
            &cnf,
            &sink,
            &config,
            &mut CheckScratch::new(),
            &mut NullObserver,
        )
    };
    let free = dfd(None).unwrap();
    let limit = crate::memory::tightest_limit(dfd);
    assert!(limit < free.stats.peak_memory_bytes);
    let tight = dfd(Some(limit)).unwrap();
    assert!(tight.stats.peak_memory_bytes <= limit);
    assert_eq!(tight.stats.resolutions, free.stats.resolutions);
    assert_eq!(tight.core, free.core);
}
