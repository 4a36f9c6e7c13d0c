//! Regenerates **Table 2** of the paper: the checking strategies compared
//! on the same traces.
//!
//! ```text
//! cargo run --release -p rescheck-bench --bin table2 [mem_limit_bytes] [--json <out.json>]
//! ```
//!
//! Columns mirror the paper: trace size, depth-first clauses built /
//! built% / runtime / peak memory, breadth-first runtime / peak memory —
//! plus a third block for the *hybrid* strategy (the on-disk depth-first
//! design the paper's conclusion proposes, implemented here) and a
//! fourth for the *portfolio* (disk-backed DF, falling back to BF only
//! on a memory-out — it survives any budget either stage survives).
//!
//! A `*` marks a memory-out under the budget (the paper used 800 MB on
//! gigabyte-era traces; pass a byte budget to reproduce the effect at
//! today's instance sizes — the default budget is chosen so the hardest
//! rows exceed it with the depth-first strategy only, as in the paper).
//!
//! Expected shape (paper §4): depth-first is faster and builds only part
//! of the learned clauses, but dies first under a budget; breadth-first
//! finishes everything; the hybrid matches depth-first's built count at
//! breadth-first-like memory; checking is always much cheaper than
//! solving; binary traces are 2-3x smaller than ASCII.

use rescheck_bench::{fmt_kb, fmt_secs, measure_check, measure_solve, report};
use rescheck_checker::Strategy;
use rescheck_obs::{metrics_document, Json, Registry};
use rescheck_solver::SolverConfig;
use rescheck_workloads::paper_suite;

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let json_path = report::take_json_flag(&mut args);
    let mem_limit: Option<u64> = args
        .first()
        .map(|s| s.parse().expect("memory limit in bytes"));
    // Default budget: generous for breadth-first, fatal for depth-first
    // on exactly the two largest rows (mirrors the paper's 800 MB cap,
    // under which only `6pipe` and `7pipe` memory-out).
    let mem_limit = mem_limit.or(Some(16 << 20));

    println!(
        "{:<34} {:>9} {:>9} | {:>8} {:>6} {:>8} {:>9} | {:>8} {:>9} | {:>8} {:>9} | {:>8} {:>9}",
        "Instance",
        "Ascii(KB)",
        "Bin(KB)",
        "DF built",
        "Built%",
        "DF t(s)",
        "DF m(KB)",
        "BF t(s)",
        "BF m(KB)",
        "Hy t(s)",
        "Hy m(KB)",
        "Pf t(s)",
        "Pf m(KB)"
    );
    println!("{}", "-".repeat(155));

    let cfg = SolverConfig::default();
    let mut totals = [0.0f64; 5]; // solve, df, bf, hybrid, portfolio
    let mut rows: Vec<Json> = Vec::new();
    for instance in paper_suite() {
        let solve = measure_solve(&instance, &cfg);
        totals[0] += solve.time_trace_on.as_secs_f64();
        let df = measure_check(&solve, Strategy::DepthFirst, mem_limit);
        let bf = measure_check(&solve, Strategy::BreadthFirst, mem_limit);
        let hy = measure_check(&solve, Strategy::Hybrid, mem_limit);
        // The portfolio never memory-outs where dfd or breadth-first
        // survives: its column shows dfd's numbers, or bf's after a
        // fallback (whose time includes the failed dfd attempt).
        let pf = measure_check(&solve, Strategy::Portfolio, mem_limit);

        let mut row = Json::object();
        row.set("instance", report::instance_json(&solve))
            .set("depth_first", report::check_report_json(&df))
            .set("breadth_first", report::check_report_json(&bf))
            .set("hybrid", report::check_report_json(&hy))
            .set("portfolio", report::check_report_json(&pf));
        rows.push(row);

        let (df_built, df_pct, df_time, df_mem) = match &df.outcome {
            Ok(o) => {
                totals[1] += o.stats.runtime.as_secs_f64();
                (
                    o.stats.clauses_built.to_string(),
                    format!("{:.0}%", o.stats.built_percent()),
                    fmt_secs(o.stats.runtime),
                    fmt_kb(o.stats.peak_memory_bytes),
                )
            }
            Err(_) => ("*".into(), "*".into(), "*".into(), "*".into()),
        };
        let mut time_mem = |which: usize, outcome: &Result<_, _>| match outcome {
            Ok(o) => {
                let o: &rescheck_checker::CheckOutcome = o;
                totals[which] += o.stats.runtime.as_secs_f64();
                (fmt_secs(o.stats.runtime), fmt_kb(o.stats.peak_memory_bytes))
            }
            Err(_) => ("*".to_string(), "*".to_string()),
        };
        let (bf_time, bf_mem) = time_mem(2, &bf.outcome);
        let (hy_time, hy_mem) = time_mem(3, &hy.outcome);
        let (pf_time, pf_mem) = time_mem(4, &pf.outcome);

        println!(
            "{:<34} {:>9} {:>9} | {:>8} {:>6} {:>8} {:>9} | {:>8} {:>9} | {:>8} {:>9} | {:>8} {:>9}",
            solve.name,
            fmt_kb(solve.trace_ascii_bytes),
            fmt_kb(solve.trace_binary_bytes),
            df_built,
            df_pct,
            df_time,
            df_mem,
            bf_time,
            bf_mem,
            hy_time,
            hy_mem,
            pf_time,
            pf_mem
        );
    }
    println!("{}", "-".repeat(155));
    println!(
        "totals: solve {:.3}s | depth-first {:.3}s | breadth-first {:.3}s | hybrid {:.3}s | \
         portfolio {:.3}s   (memory budget: {} bytes; * = memory out)",
        totals[0],
        totals[1],
        totals[2],
        totals[3],
        totals[4],
        mem_limit.map_or("none".into(), |m| m.to_string()),
    );
    println!();
    println!(
        "Paper shape: DF faster than BF but memory-hungry (and * on the biggest rows); \
         hybrid = DF's built count at BF-like memory (the paper's proposed future work); \
         portfolio never stars where dfd or bf survives; \
         checking ≪ solving; binary trace 2-3x smaller than ASCII."
    );

    if let Some(path) = json_path {
        let mut doc = metrics_document("table2", &Registry::new());
        let mut limit = Json::object();
        if let Some(m) = mem_limit {
            limit.set("bytes", m);
        }
        doc.set("rows", Json::Array(rows))
            .set("memory_limit", limit)
            .set("total_solve_seconds", totals[0])
            .set("total_depth_first_seconds", totals[1])
            .set("total_breadth_first_seconds", totals[2])
            .set("total_hybrid_seconds", totals[3])
            .set("total_portfolio_seconds", totals[4]);
        report::write_json(std::path::Path::new(&path), &doc).expect("write --json output");
        eprintln!("metrics written to {path}");
    }
}
