//! Check-throughput benchmark: end-to-end validation time on a
//! Table-2-class instance (`pipe(18, 6)`, Table 2's `6pipe`, about 24k
//! learned clauses), sequential breadth-first against the work-stealing
//! parallel-dag executor at increasing worker counts, plus the
//! observability overhead of running the same check under a recording
//! [`MetricsSink`] instead of the [`NullObserver`] (the hot path is
//! allocation-free, so the gap should be noise).
//!
//! The trace goes through the daemon's source — solved once into a
//! binary temp file and read into a [`TraceMap`] (the `rescheck serve`
//! reuse pattern), which every row then decodes in place.
//!
//! pdag runs at most one worker per core, so each requested worker count
//! is timed once per *effective* count (the `check.jobs` gauge), and its
//! row is named `pdag-jobs<effective>`: on a 2-core host, requests for 2,
//! 4 and 8 workers are one row.
//!
//! With `--json <path>` a `rescheck-metrics-v2` document is written with
//! one row per (instance, configuration) pair carrying the median check
//! time and the learned-clauses-per-second throughput, for the CI
//! bench-smoke job (which checks shape, never timing). The document
//! records the host's available parallelism: on a single-core runner
//! the multi-worker rows measure overhead, not scaling.

use rescheck_bench::micro::bench;
use rescheck_bench::report::{take_json_flag, write_json, SCHEMA};
use rescheck_checker::{
    check_unsat_claim, check_unsat_claim_observed, CheckConfig, CheckStats, Strategy,
};
use rescheck_obs::{Json, MetricsSink};
use rescheck_solver::{Solver, SolverConfig};
use rescheck_trace::{BinaryWriter, TraceMap, TraceSink};
use rescheck_workloads::{pipeline, Instance};
use std::path::Path;

/// Solves `inst` into a binary trace file and reads it into memory, as
/// the daemon's trace cache would hand it out.
fn trace_of(inst: &Instance) -> TraceMap {
    let dir = std::env::temp_dir().join("rescheck-bench-check");
    std::fs::create_dir_all(&dir).expect("create fixture dir");
    let path = dir.join(format!("{}-{}.rtb", inst.name, std::process::id()));
    let file = std::fs::File::create(&path).expect("create trace fixture");
    let mut writer = BinaryWriter::new(std::io::BufWriter::new(file)).expect("write magic");
    let mut solver = Solver::from_cnf(&inst.cnf, SolverConfig::default());
    assert!(solver.solve_traced(&mut writer).unwrap().is_unsat());
    writer.flush().expect("flush trace fixture");
    let map = TraceMap::open(&path).expect("read trace fixture");
    std::fs::remove_file(&path).ok();
    map
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let json_path = take_json_flag(&mut args);

    let mut rows: Vec<Json> = Vec::new();
    let inst = pipeline::pipe(18, 6);
    let trace = trace_of(&inst);
    let learned = check_unsat_claim(
        &inst.cnf,
        &trace,
        Strategy::BreadthFirst,
        &CheckConfig::default(),
    )
    .expect("genuine trace")
    .stats
    .learned_in_trace;

    let mut push_row = |config: &str, median_seconds: f64, stats: Option<&CheckStats>| {
        let mut row = Json::object();
        row.set("name", inst.name.as_str())
            .set("config", config)
            .set("learned_in_trace", learned)
            .set("median_seconds", median_seconds)
            .set(
                "learned_per_second",
                learned as f64 / median_seconds.max(1e-12),
            );
        // Work counters, for the determinism-across-jobs criterion
        // (compared bit-for-bit between pdag rows in CI).
        if let Some(stats) = stats {
            row.set("clauses_built", stats.clauses_built)
                .set("resolutions", stats.resolutions)
                .set("peak_memory_bytes", stats.peak_memory_bytes);
        }
        rows.push(row);
    };

    let seq = bench(&format!("check/bf/{}", inst.name), || {
        check_unsat_claim(
            &inst.cnf,
            &trace,
            Strategy::BreadthFirst,
            &CheckConfig::default(),
        )
        .expect("genuine trace");
    });
    push_row("bf", seq.median.as_secs_f64(), None);

    let mut pdag_key = None;
    let mut timed_workers: Vec<u64> = Vec::new();
    for jobs in [1usize, 2, 4, 8] {
        let config = CheckConfig {
            jobs,
            ..CheckConfig::default()
        };
        let mut probe = MetricsSink::new();
        let stats = check_unsat_claim_observed(
            &inst.cnf,
            &trace,
            Strategy::ParallelDag,
            &config,
            &mut probe,
        )
        .expect("genuine trace")
        .stats;
        let key = (
            stats.clauses_built,
            stats.resolutions,
            stats.peak_memory_bytes,
        );
        if let Some(prev) = pdag_key {
            assert_eq!(prev, key, "pdag stats drift across worker counts");
        }
        pdag_key = Some(key);
        let workers = probe
            .registry()
            .gauge("check.jobs")
            .expect("pdag reports its worker count") as u64;
        if timed_workers.contains(&workers) {
            println!(
                "check/pdag-jobs{jobs}/{}: runs as jobs{workers}, already timed",
                inst.name
            );
            continue;
        }
        timed_workers.push(workers);
        let summary = bench(&format!("check/pdag-jobs{workers}/{}", inst.name), || {
            check_unsat_claim(&inst.cnf, &trace, Strategy::ParallelDag, &config)
                .expect("genuine trace");
        });
        push_row(
            &format!("pdag-jobs{workers}"),
            summary.median.as_secs_f64(),
            Some(&stats),
        );
    }

    // Observability overhead: the same breadth-first check with a
    // recording metrics sink (spans, counters, histograms) against
    // the NullObserver baseline measured above.
    let mut sink = MetricsSink::new();
    let observed = bench(&format!("check/bf-metrics/{}", inst.name), || {
        check_unsat_claim_observed(
            &inst.cnf,
            &trace,
            Strategy::BreadthFirst,
            &CheckConfig::default(),
            &mut sink,
        )
        .expect("genuine trace");
    });
    push_row("bf-metrics", observed.median.as_secs_f64(), None);
    let overhead =
        (observed.median.as_secs_f64() / seq.median.as_secs_f64().max(1e-12) - 1.0) * 100.0;
    println!("check/observer-overhead/{}: {overhead:+.2}%", inst.name);

    if let Some(path) = json_path {
        let mut doc = Json::object();
        doc.set("schema", SCHEMA)
            .set("command", "bench:check")
            .set(
                "available_parallelism",
                std::thread::available_parallelism()
                    .map(|n| n.get() as u64)
                    .unwrap_or(1),
            )
            .set("rows", Json::Array(rows));
        write_json(Path::new(&path), &doc).expect("write json");
        println!("wrote {path}");
    }
}
