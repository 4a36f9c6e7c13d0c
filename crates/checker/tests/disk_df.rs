//! Acceptance tests for the disk-backed depth-first strategy: on a trace
//! whose residency dominates the in-memory depth-first peak, `dfd` must
//! finish under a memory limit that makes `df` fail, while reproducing
//! `df`'s resolution statistics and unsat core bit for bit.

use rescheck_checker::{
    check_depth_first, check_disk_depth_first, CheckConfig, CheckError, CheckOutcome,
};
use rescheck_cnf::{Cnf, Lit};
use rescheck_trace::{BinaryWriter, FileTrace, MemorySink, TraceSink};

/// A long implication chain: `n` original clauses and `n - 1` learned
/// clauses, every one of them on the proof path, each with exactly two
/// resolve sources. In-memory depth-first keeps all `n - 1` source lists
/// resident (40 accounted bytes each); the disk-backed walk keeps a
/// 16-byte index entry instead.
fn chain(n: i64) -> (Cnf, MemorySink) {
    let mut cnf = Cnf::new();
    cnf.add_dimacs_clause(&[1]); // 0: (x1)
    for i in 1..n {
        cnf.add_dimacs_clause(&[-i, i + 1]); // i: xi → xi+1
    }
    cnf.add_dimacs_clause(&[-n]); // n: (¬xn)
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

/// Writes the trace to a binary file so the disk-backed strategy
/// exercises the real seek-and-decode cursor path.
fn write_binary(sink: &MemorySink, name: &str) -> FileTrace {
    let dir = std::env::temp_dir().join("rescheck-disk-df");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{name}-{}.rt", std::process::id()));
    let file = std::fs::File::create(&path).unwrap();
    let mut writer = BinaryWriter::new(std::io::BufWriter::new(file)).unwrap();
    for event in sink.events() {
        writer.event(event).unwrap();
    }
    writer.flush().unwrap();
    FileTrace::open(&path).unwrap()
}

fn assert_same_proof(dfd: &CheckOutcome, df: &CheckOutcome) {
    assert_eq!(dfd.stats.clauses_built, df.stats.clauses_built);
    assert_eq!(dfd.stats.resolutions, df.stats.resolutions);
    assert_eq!(dfd.stats.learned_in_trace, df.stats.learned_in_trace);
    assert_eq!(
        dfd.core.as_ref().map(|c| &c.clause_ids),
        df.core.as_ref().map(|c| &c.clause_ids),
        "unsat cores differ"
    );
}

/// The tightest memory limit `dfd` passes under, found by bisection. The
/// run at the unlimited peak replays the unlimited run, so the upper end
/// always passes.
fn tightest_dfd_limit(cnf: &Cnf, trace: &FileTrace) -> u64 {
    let passes = |limit| {
        let config = CheckConfig {
            memory_limit: Some(limit),
            ..CheckConfig::default()
        };
        check_disk_depth_first(cnf, trace, &config).is_ok()
    };
    let unlimited = check_disk_depth_first(cnf, trace, &CheckConfig::default()).unwrap();
    let (mut lo, mut hi) = (0, unlimited.stats.peak_memory_bytes);
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if passes(mid) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    hi
}

#[test]
fn completes_under_a_limit_that_memory_outs_depth_first() {
    let (cnf, sink) = chain(512);
    let trace = write_binary(&sink, "chain512");
    let df = check_depth_first(&cnf, &trace, &CheckConfig::default()).unwrap();
    let dfd = check_disk_depth_first(&cnf, &trace, &CheckConfig::default()).unwrap();
    assert_same_proof(&dfd, &df);

    // Under the tightest budget the disk-backed walk passes, its
    // charged original clauses must give way to the mandatory structures
    // (index + arena + level-0), and in-memory depth-first memory-outs.
    let limit = tightest_dfd_limit(&cnf, &trace);
    assert!(
        limit < dfd.stats.peak_memory_bytes && limit < df.stats.peak_memory_bytes,
        "disk-backed limit {limit} must undercut both unlimited peaks"
    );
    let limited = CheckConfig {
        memory_limit: Some(limit),
        ..CheckConfig::default()
    };
    let df_err = check_depth_first(&cnf, &trace, &limited).unwrap_err();
    assert!(
        matches!(df_err, CheckError::MemoryLimitExceeded { .. }),
        "expected a memory-out, got {df_err:?}"
    );
    let dfd_limited = check_disk_depth_first(&cnf, &trace, &limited).unwrap();
    assert_same_proof(&dfd_limited, &df);
    assert!(dfd_limited.stats.peak_memory_bytes <= limit);
}

/// The budget decides only how many original clauses stay charged,
/// never the proof.
#[test]
fn source_cache_does_not_change_the_proof() {
    let (cnf, sink) = chain(128);
    let trace = write_binary(&sink, "chain128");
    let df = check_depth_first(&cnf, &trace, &CheckConfig::default()).unwrap();
    let tight = tightest_dfd_limit(&cnf, &trace);
    for memory_limit in [Some(tight), Some(tight + (1 << 10)), None] {
        let config = CheckConfig {
            memory_limit,
            ..CheckConfig::default()
        };
        let dfd = check_disk_depth_first(&cnf, &trace, &config).unwrap();
        assert_same_proof(&dfd, &df);
    }
}

#[test]
fn works_on_in_memory_random_access_traces_too() {
    let (cnf, sink) = chain(64);
    let df = check_depth_first(&cnf, &sink, &CheckConfig::default()).unwrap();
    let dfd = check_disk_depth_first(&cnf, &sink, &CheckConfig::default()).unwrap();
    assert_same_proof(&dfd, &df);
}
