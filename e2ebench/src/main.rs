//! Seeded end-to-end and per-layer benchmark for rescheck.
//!
//! Run from the repository root:
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload oneshot-heavy --seed 1 --seconds 18 --trace 0
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- --quick
//! ```
//!
//! Workloads: `oneshot-heavy`, `proof-ingest` and `serve-campaign` (see
//! `README.md` beside this crate). `--trace 0` reports the end-to-end
//! metrics of an untraced timed phase; `--trace 1` runs the same phase,
//! then a traced pass, and reports the per-layer metrics. A record line
//! (host, sample counts, failures) precedes the result, which is always
//! the last line of stdout:
//! `{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}`.
//! The exit code is 0 only when every verdict matched its known answer.
//!
//! `--quick` is the self-test: every workload on small inputs, traced,
//! checking that each metric `BENCHMARK.json` names is reported and finite.

mod campaign;
mod common;
mod host;
mod ingest;
mod oneshot;
mod spans;

use common::{Outcome, Params, Scale};
use rescheck_obs::{json, Json};
use std::fs;
use std::io;
use std::path::PathBuf;
use std::process::ExitCode;

/// Strategy names as users type them; resolved by the serve protocol's
/// parser, so a strategy retired behind an alias keeps its name here.
pub const STRATEGIES: [&str; 7] = ["df", "bf", "hybrid", "dfd", "pbf", "pdag", "portfolio"];

const WORKLOADS: [&str; 3] = ["oneshot-heavy", "proof-ingest", "serve-campaign"];

/// End-to-end metrics, reported by every workload from its untraced run.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("claims_per_s", "1/s"),
    ("learned_per_s", "learned/s"),
    ("verdict_ms.p50", "ms"),
];

/// Per-layer metrics, reported by every workload from its traced run; a
/// layer the workload does not exercise reads 0.
fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = Vec::new();
    let mut add = |name: String, unit: &'static str| out.push((name, unit));
    for (name, unit) in [
        ("cnf.parse_s", "s"),
        ("solver.solve_s", "s"),
        ("solver.conflicts", "count"),
        ("solver.learned", "count"),
        ("solver.trace_overhead_pct", "%"),
        ("trace.encode_s", "s"),
        ("trace.bytes", "bytes"),
        ("trace.open_s", "s"),
        ("trace.decode_s", "s"),
    ] {
        add(name.into(), unit);
    }
    for s in STRATEGIES.iter().chain(&["drat", "lrat"]) {
        add(format!("learned_per_s.{s}"), "learned/s");
    }
    for s in STRATEGIES {
        for (key, unit) in [
            ("wall_s", "s"),
            ("map_s", "s"),
            ("pass1_s", "s"),
            ("resolve_s", "s"),
            ("final_s", "s"),
            ("rss_mb", "MiB"),
            ("accounted_mb", "MiB"),
            ("clauses_built", "count"),
        ] {
            add(format!("checker.{s}.{key}"), unit);
        }
    }
    for (name, unit) in [
        ("checker.pdag.dag_build_s", "s"),
        ("checker.rss_over_accounted", "ratio"),
        ("checker.resolutions", "count"),
        ("checker.kernel.literals_folded", "count"),
        ("checker.kernel.mlits_per_s", "Mlit/s"),
        ("checker.arena.reuse_frac", "ratio"),
        ("checker.dfd.cache_hit_frac", "ratio"),
        ("checker.pbf.scaling", "ratio"),
        ("checker.pdag.scaling", "ratio"),
        ("checker.portfolio.df_win_frac", "ratio"),
        ("interop.export_s", "s"),
        ("interop.parse_s.drat", "s"),
        ("interop.parse_s.lrat", "s"),
        ("interop.ingest_s.drat", "s"),
        ("interop.ingest_s.lrat", "s"),
        ("interop.check_s", "s"),
        ("interop.additions", "count"),
        ("interop.rup_steps", "count"),
        ("serve.handle_line_s", "s"),
        ("serve.verdict_ms.p99", "ms"),
        ("serve.job_ms.p50", "ms"),
        ("serve.overhead_ms.p50", "ms"),
        ("serve.overhead_ms.p99", "ms"),
        ("serve.check_frac", "ratio"),
        ("serve.formula_cache.hit_frac", "ratio"),
        ("serve.trace_cache.hit_frac", "ratio"),
        ("serve.worker_busy_frac", "ratio"),
        ("serve.jobs_shed", "count"),
        ("serve.worker_panics", "count"),
        ("serve.verdict_kb", "KiB"),
        ("obs.overhead_pct", "%"),
    ] {
        add(name.into(), unit);
    }
    out
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    traced: bool,
    quick: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 1,
        seconds: 18.0,
        traced: false,
        quick: false,
    };
    while let Some(flag) = args.next() {
        if flag == "--quick" {
            parsed.quick = true;
            continue;
        }
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value),
            "--seed" => parsed.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => parsed.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => parsed.traced = value != "0",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(parsed)
}

/// Generated inputs live under `.e2ebench_work/` in the working
/// directory and are removed when the run ends.
struct Workdir(PathBuf);

impl Workdir {
    fn create(workload: &str) -> io::Result<Workdir> {
        let dir =
            PathBuf::from(".e2ebench_work").join(format!("{workload}-{}", std::process::id()));
        fs::create_dir_all(&dir)?;
        Ok(Workdir(fs::canonicalize(&dir)?))
    }
}

impl Drop for Workdir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            // Only succeeds once no other run is using it.
            let _ = fs::remove_dir(parent);
        }
    }
}

fn execute(
    workload: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
    scale: Scale,
) -> io::Result<Outcome> {
    let workdir = Workdir::create(workload)?;
    let params = Params {
        seed,
        seconds,
        traced,
        scale,
        jobs: host::cores().min(2),
        workdir: workdir.0.clone(),
    };
    match workload {
        "oneshot-heavy" => oneshot::run(&params),
        "proof-ingest" => ingest::run(&params),
        "serve-campaign" => campaign::run(&params),
        other => Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!(
                "unknown workload {other:?} (one of {})",
                WORKLOADS.join(", ")
            ),
        )),
    }
}

/// The metrics this mode reports, as `(name, value, unit)`.
fn reported(outcome: &Outcome, traced: bool) -> Vec<(String, Option<f64>, &'static str)> {
    if traced {
        per_layer()
            .into_iter()
            .map(|(name, unit)| {
                let value = outcome.layers.0.get(&name).copied().unwrap_or(0.0);
                (name, value.is_finite().then_some(value), unit)
            })
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|&(name, unit)| {
                (
                    name.to_string(),
                    outcome.e2e.get(name).copied().flatten(),
                    unit,
                )
            })
            .collect()
    }
}

fn result_line(outcome: &Outcome, traced: bool) -> Json {
    let mut metrics = Json::object();
    for (name, value, unit) in reported(outcome, traced) {
        let mut m = Json::object();
        m.set("value", value.map_or(Json::Null, Json::Float))
            .set("unit", unit);
        metrics.set(&name, m);
    }
    let mut line = Json::object();
    line.set("correct", outcome.gate.failures() == 0)
        .set("attempted", outcome.gate.attempted)
        .set("failed", outcome.gate.failures())
        .set("metrics", metrics);
    line
}

fn record_line(workload: &str, args: &Args, outcome: &Outcome) -> Json {
    let gate = &outcome.gate;
    let mut host = Json::object();
    host.set("cores", host::cores())
        .set("jobs", host::cores().min(2));
    let mut line = Json::object();
    line.set("record", "rescheck-e2ebench-v1")
        .set("workload", workload)
        .set("seed", args.seed)
        .set("seconds", args.seconds)
        .set("trace", args.traced)
        .set("host", host)
        .set(
            "failed_frac",
            gate.failures() as f64 / gate.attempted.max(1) as f64,
        )
        .set(
            "failures",
            Json::Array(gate.notes.iter().map(|n| Json::Str(n.clone())).collect()),
        )
        .set("detail", outcome.record.clone());
    line
}

/// Names and units a `BENCHMARK.json` section lists.
fn spec_metrics(spec: &Json, section: &str) -> Vec<(String, String)> {
    let Some(Json::Array(items)) = spec.get(section) else {
        return Vec::new();
    };
    items
        .iter()
        .filter_map(|m| {
            Some((
                m.get("name")?.as_str()?.to_string(),
                m.get("unit")?.as_str()?.to_string(),
            ))
        })
        .collect()
}

fn self_test() -> ExitCode {
    let spec = match fs::read_to_string("BENCHMARK.json").map(|text| json::parse(&text)) {
        Ok(Ok(spec)) => spec,
        other => {
            eprintln!(
                "self-test: cannot read BENCHMARK.json from the working directory: {other:?}"
            );
            return ExitCode::from(2);
        }
    };
    let mut problems = Vec::new();
    for workload in WORKLOADS {
        let outcome = match execute(workload, 1, 0.5, true, Scale::Quick) {
            Ok(outcome) => outcome,
            Err(e) => {
                problems.push(format!("{workload}: {e}"));
                continue;
            }
        };
        if outcome.gate.failures() > 0 {
            problems.push(format!(
                "{workload}: failed claims: {:?}",
                outcome.gate.notes
            ));
        }
        for (traced, section) in [(false, "end_to_end"), (true, "per_layer")] {
            let got = reported(&outcome, traced);
            let names: Vec<(String, String)> = got
                .iter()
                .map(|(n, _, u)| (n.clone(), u.to_string()))
                .collect();
            if names != spec_metrics(&spec, section) {
                problems.push(format!(
                    "{workload}: {section} metrics differ from BENCHMARK.json"
                ));
            }
            for (name, value, _) in &got {
                if !value.is_some_and(f64::is_finite) {
                    problems.push(format!("{workload}: {name} is not a finite number"));
                }
            }
        }
        println!(
            "self-test: {workload}: {} claims checked",
            outcome.gate.attempted
        );
    }
    if problems.is_empty() {
        println!("self-test: ok");
        ExitCode::SUCCESS
    } else {
        for p in &problems {
            eprintln!("self-test: {p}");
        }
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    if args.quick {
        return self_test();
    }
    let Some(workload) = args.workload.clone() else {
        eprintln!("error: --workload is required ({})", WORKLOADS.join(", "));
        return ExitCode::from(2);
    };
    match execute(&workload, args.seed, args.seconds, args.traced, Scale::Full) {
        Ok(outcome) => {
            println!("{}", record_line(&workload, &args, &outcome));
            println!("{}", result_line(&outcome, args.traced));
            if outcome.gate.failures() == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("error: {workload}: {e}");
            ExitCode::from(2)
        }
    }
}
