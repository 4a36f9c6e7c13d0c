//! Check-throughput benchmark: end-to-end breadth-first validation time
//! on a Table-2-class instance (`pipe(18, 6)`, Table 2's `6pipe`, about
//! 24k learned clauses), plus the observability overhead of running the
//! same check under a recording [`MetricsSink`] instead of the
//! [`NullObserver`] (the hot path is allocation-free, so the gap should
//! be noise).
//!
//! The trace goes through the daemon's source — solved once into a
//! binary temp file and read into a [`TraceMap`] (the `rescheck serve`
//! reuse pattern), which every row then decodes in place.
//!
//! The two configurations run alternately, one iteration of each per
//! pair, and the overhead is the median over the pairs of their ratio.
//!
//! With `--json <path>` a `rescheck-metrics-v2` document is written with
//! one row per (instance, configuration) pair carrying the median check
//! time and the learned-clauses-per-second throughput, plus
//! `observer_overhead_ratio` (that median ratio), for the CI bench-smoke
//! job (which checks shape, never timing). The document records the
//! host's available parallelism, the context for comparing timings
//! across hosts.

use rescheck_bench::micro::bench_pair;
use rescheck_bench::report::{take_json_flag, write_json};
use rescheck_checker::{check_unsat_claim, check_unsat_claim_observed, CheckConfig, Strategy};
use rescheck_obs::{Json, MetricsSink, NullObserver, Observer, SCHEMA};
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

    let mut push_row = |config: &str, median_seconds: f64| {
        let mut row = Json::object();
        row.set("name", inst.name.as_str())
            .set("config", config)
            .set("learned_in_trace", learned)
            .set("median_seconds", median_seconds)
            .set(
                "learned_per_second",
                learned as f64 / median_seconds.max(1e-12),
            );
        rows.push(row);
    };

    // Observability overhead: the same breadth-first check with a
    // recording metrics sink (spans, counters, histograms) against the
    // NullObserver baseline, the two alternating, with a fresh sink per
    // iteration so no run records into an earlier run's registry.
    let run = |obs: &mut dyn Observer| {
        let config = CheckConfig::default();
        check_unsat_claim_observed(&inst.cnf, &trace, Strategy::BreadthFirst, &config, obs)
            .expect("genuine trace");
    };
    let (seq, observed, ratio) = bench_pair(
        [
            &format!("check/bf/{}", inst.name),
            &format!("check/bf-metrics/{}", inst.name),
        ],
        || run(&mut NullObserver),
        || run(&mut MetricsSink::new()),
    );
    push_row("bf", seq.median.as_secs_f64());
    push_row("bf-metrics", observed.median.as_secs_f64());
    let overhead = (ratio - 1.0) * 100.0;
    println!(
        "check/observer-overhead/{}: {overhead:+.2}% (median of {} pairs)",
        inst.name, seq.iters
    );

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
            .set("observer_overhead_ratio", ratio)
            .set("rows", Json::Array(rows));
        write_json(Path::new(&path), &doc).expect("write json");
        println!("wrote {path}");
    }
}
