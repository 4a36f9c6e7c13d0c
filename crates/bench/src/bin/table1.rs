//! Regenerates **Table 1** of the paper: statistics of the solver with
//! trace generation turned on and off.
//!
//! ```text
//! cargo run --release -p rescheck-bench --bin table1 [--json <out.json>]
//! ```
//!
//! Columns mirror the paper: instance, variables, original clauses,
//! learned clauses, runtime with trace off / on, and the trace-generation
//! overhead percentage. The expected *shape* (paper §4): overhead is a
//! small single-digit percentage, shrinking on harder instances.
//!
//! `--json <path>` additionally writes every row as a
//! `rescheck-metrics-v2` document.

use rescheck_bench::{fmt_secs, measure_solve, report};
use rescheck_obs::{metrics_document, Json, Registry};
use rescheck_solver::SolverConfig;
use rescheck_workloads::paper_suite;

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let json_path = report::take_json_flag(&mut args);
    let cfg = SolverConfig::default();
    println!(
        "{:<34} {:>8} {:>10} {:>12} {:>13} {:>12} {:>10}",
        "Instance",
        "Num.Vars",
        "Orig.Cls",
        "Learned Cls",
        "TraceOff (s)",
        "TraceOn (s)",
        "Overhead"
    );
    println!("{}", "-".repeat(106));

    let mut total_off = 0.0;
    let mut total_on = 0.0;
    let mut rows: Vec<Json> = Vec::new();
    for instance in paper_suite() {
        let row = measure_solve(&instance, &cfg);
        total_off += row.time_trace_off.as_secs_f64();
        total_on += row.time_trace_on.as_secs_f64();
        println!(
            "{:<34} {:>8} {:>10} {:>12} {:>13} {:>12} {:>9.1}%",
            row.name,
            row.num_vars,
            row.num_clauses,
            row.learned_clauses,
            fmt_secs(row.time_trace_off),
            fmt_secs(row.time_trace_on),
            row.overhead_percent()
        );
        rows.push(report::instance_json(&row));
    }
    println!("{}", "-".repeat(106));
    println!(
        "{:<34} {:>8} {:>10} {:>12} {:>13} {:>12} {:>9.1}%",
        "TOTAL",
        "",
        "",
        "",
        format!("{total_off:.3}"),
        format!("{total_on:.3}"),
        100.0 * (total_on - total_off) / total_off.max(1e-12)
    );
    println!();
    println!("Paper shape: trace generation costs 1.7%-12%, smaller on harder instances.");

    if let Some(path) = json_path {
        let mut doc = metrics_document("table1", &Registry::new());
        doc.set("rows", Json::Array(rows))
            .set("total_trace_off_seconds", total_off)
            .set("total_trace_on_seconds", total_on);
        report::write_json(std::path::Path::new(&path), &doc).expect("write --json output");
        eprintln!("metrics written to {path}");
    }
}
