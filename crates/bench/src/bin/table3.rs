//! Regenerates **Table 3** of the paper: original clauses/variables
//! involved in the proof, after one core-extraction iteration and after
//! up to 30 iterations (or a fixed point).
//!
//! ```text
//! cargo run --release -p rescheck-bench --bin table3 [max_iterations] [--json <out.json>]
//! ```
//!
//! Expected shape (paper §4): every core is no larger than the input;
//! the routing and planning rows shrink dramatically (their conflict is
//! local), while tightly-constructed instances keep most clauses.

use rescheck_bench::report;
use rescheck_checker::minimize_core;
use rescheck_obs::{metrics_document, Json, Registry};
use rescheck_solver::SolverConfig;
use rescheck_workloads::table3_suite;

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let json_path = report::take_json_flag(&mut args);
    let max_iterations: usize = args
        .first()
        .map(|s| s.parse().expect("iteration count"))
        .unwrap_or(30);

    println!(
        "{:<34} {:>9} {:>9} | {:>9} {:>9} | {:>9} {:>9} {:>10}",
        "Instance",
        "Orig.Cls",
        "Orig.Vars",
        "It1 Cls",
        "It1 Vars",
        "Final Cls",
        "Final Vars",
        "Iterations"
    );
    println!("{}", "-".repeat(112));

    let cfg = SolverConfig::default();
    let mut rows: Vec<Json> = Vec::new();
    for instance in table3_suite() {
        let result = minimize_core(&instance.cnf, &cfg, max_iterations)
            .unwrap_or_else(|e| panic!("{}: {e}", instance.name));
        let first = result.iterations.first().expect("at least one iteration");
        let last = result.iterations.last().expect("at least one iteration");
        println!(
            "{:<34} {:>9} {:>9} | {:>9} {:>9} | {:>9} {:>9} {:>9}{}",
            instance.name,
            instance.num_clauses(),
            instance.cnf.num_used_vars(),
            first.num_clauses,
            first.num_vars,
            last.num_clauses,
            last.num_vars,
            result.iterations.len(),
            if result.reached_fixed_point { "*" } else { "" },
        );
        let mut row = Json::object();
        row.set("name", instance.name.as_str())
            .set("orig_clauses", instance.num_clauses())
            .set("orig_vars", instance.cnf.num_used_vars())
            .set("it1_clauses", first.num_clauses)
            .set("it1_vars", first.num_vars)
            .set("final_clauses", last.num_clauses)
            .set("final_vars", last.num_vars)
            .set("iterations", result.iterations.len())
            .set("reached_fixed_point", result.reached_fixed_point);
        rows.push(row);
    }
    println!("{}", "-".repeat(112));
    println!("(* = reached a fixed point: every remaining clause is needed for the proof)");
    println!();
    println!(
        "Paper shape: planning (bw_large.d) and FPGA routing (too_large…) have small \
         unsatisfiable cores; structured miters keep most of their clauses."
    );

    if let Some(path) = json_path {
        let mut doc = metrics_document("table3", &Registry::new());
        doc.set("rows", Json::Array(rows))
            .set("max_iterations", max_iterations);
        report::write_json(std::path::Path::new(&path), &doc).expect("write --json output");
        eprintln!("metrics written to {path}");
    }
}
