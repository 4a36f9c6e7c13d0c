//! `dfd`'s unit tests: the depth-first engine's checks run on its disk
//! source store, plus the tests of what only that store has — its
//! agreement with `df` and its source cache.

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
fn cache_serves_repeated_fetches() {
    // Each DFS node needs its list twice (expand + build): one read
    // per needed clause, the rest hit the cache.
    let (cnf, sink) = table::diamond();
    let mut metrics = MetricsSink::new();
    let config = CheckConfig::default();
    run_disk(&cnf, &sink, &config, &mut CheckScratch::new(), &mut metrics).unwrap();
    let gauge = |name| metrics.registry().gauge(name).unwrap();
    assert_eq!(gauge("check.dfd.cursor_reads"), 4.0);
    assert!(gauge("check.dfd.cache_hits") >= 4.0);
    assert!(gauge("check.dfd.cache_bytes") > 0.0);
}

#[test]
fn caches_yield_to_a_tight_memory_limit() {
    // The tightest limit dfd passes under is below its unlimited
    // peak: the caches gave their bytes back instead of failing the
    // check, and the proof is unchanged.
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
