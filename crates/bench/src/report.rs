//! JSON sections of the table binaries' `--json` documents and the
//! CLI's metrics documents: solver, proof, instance and check-report
//! objects. The document envelope itself,
//! [`metrics_document`](rescheck_obs::metrics_document), lives in
//! `rescheck-obs`.

use crate::{CheckReport, InstanceReport};
use rescheck_checker::{check_stats_json, ProofStats};
use rescheck_obs::{Json, Registry};
use rescheck_solver::SolverStats;
use std::io::Write;
use std::path::Path;

/// Solver statistics as a JSON object (every counter plus the derived
/// average learned-clause length).
pub fn solver_stats_json(stats: &SolverStats) -> Json {
    let mut json = Json::object();
    json.set("decisions", stats.decisions)
        .set("propagations", stats.propagations)
        .set("conflicts", stats.conflicts)
        .set("learned_clauses", stats.learned_clauses)
        .set("learned_literals", stats.learned_literals)
        .set("avg_learned_len", stats.avg_learned_len())
        .set("deleted_clauses", stats.deleted_clauses)
        .set("restarts", stats.restarts)
        .set("db_reductions", stats.db_reductions)
        .set("reused_conflicts", stats.reused_conflicts)
        .set("minimized_literals", stats.minimized_literals);
    json
}

/// Flushes the authoritative end-of-run solver totals into a registry as
/// `solver.*` counters. The solver's per-event stream is too hot to
/// total in the sink, so the final [`SolverStats`] is the source of
/// truth.
pub fn flush_solver_stats(registry: &mut Registry, stats: &SolverStats) {
    registry.inc("solver.decisions", stats.decisions);
    registry.inc("solver.propagations", stats.propagations);
    registry.inc("solver.conflicts", stats.conflicts);
    registry.inc("solver.learned_clauses", stats.learned_clauses);
    registry.inc("solver.learned_literals", stats.learned_literals);
    registry.inc("solver.deleted_clauses", stats.deleted_clauses);
    registry.inc("solver.restarts", stats.restarts);
    registry.inc("solver.db_reductions", stats.db_reductions);
    registry.inc("solver.reused_conflicts", stats.reused_conflicts);
    registry.inc("solver.minimized_literals", stats.minimized_literals);
}

/// Trace-level proof statistics ([`ProofStats`]) as a JSON object.
pub fn proof_stats_json(stats: &ProofStats) -> Json {
    let mut json = Json::object();
    json.set("learned_total", stats.learned_total)
        .set("needed", stats.needed)
        .set("needed_percent", stats.needed_percent())
        .set("derivation_resolutions", stats.derivation_resolutions)
        .set("final_phase_bound", stats.final_phase_bound)
        .set("depth", stats.depth)
        .set("span", stats.span)
        .set("parallelism", stats.parallelism())
        .set("max_sources", stats.max_sources)
        .set("avg_sources", stats.avg_sources)
        .set("core_clauses", stats.core_clauses);
    json
}

/// An [`InstanceReport`] as a JSON object (a row of Table 1).
pub fn instance_json(report: &InstanceReport) -> Json {
    let mut json = Json::object();
    json.set("name", report.name.as_str())
        .set("num_vars", report.num_vars)
        .set("num_clauses", report.num_clauses)
        .set("learned_clauses", report.learned_clauses)
        .set(
            "time_trace_off_seconds",
            report.time_trace_off.as_secs_f64(),
        )
        .set("time_trace_on_seconds", report.time_trace_on.as_secs_f64())
        .set("overhead_percent", report.overhead_percent())
        .set("trace_ascii_bytes", report.trace_ascii_bytes)
        .set("trace_binary_bytes", report.trace_binary_bytes)
        .set("solver", solver_stats_json(&report.solver_stats));
    json
}

/// A [`CheckReport`] as a JSON object; failed checks (memory-out) carry
/// an `error` field instead of the stats.
pub fn check_report_json(report: &CheckReport) -> Json {
    let mut json = Json::object();
    json.set("runtime_seconds", report.runtime.as_secs_f64());
    match &report.outcome {
        Ok(outcome) => {
            json.set("stats", check_stats_json(&outcome.stats));
            if let Some(core) = &outcome.core {
                let mut core_json = Json::object();
                core_json
                    .set("num_clauses", core.num_clauses())
                    .set("num_vars", core.num_vars());
                json.set("core", core_json);
            }
        }
        Err(message) => {
            json.set("error", message.as_str());
        }
    }
    json
}

/// Writes a document to `path` in pretty form.
pub fn write_json(path: &Path, json: &Json) -> std::io::Result<()> {
    let mut file = std::fs::File::create(path)?;
    file.write_all(json.to_pretty_string().as_bytes())
}

/// Extracts a `--json <path>` flag from an argument list, if present.
pub fn take_json_flag(args: &mut Vec<String>) -> Option<String> {
    let pos = args.iter().position(|a| a == "--json")?;
    if pos + 1 < args.len() {
        args.remove(pos);
        Some(args.remove(pos))
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solver_stats_json_has_all_counters() {
        let json = solver_stats_json(&SolverStats::default());
        for key in [
            "decisions",
            "propagations",
            "conflicts",
            "learned_clauses",
            "reused_conflicts",
            "minimized_literals",
        ] {
            assert!(json.get(key).is_some(), "missing {key}");
        }
    }

    #[test]
    fn flush_solver_stats_populates_counters() {
        let mut reg = Registry::new();
        let stats = SolverStats {
            decisions: 9,
            conflicts: 7,
            ..SolverStats::default()
        };
        flush_solver_stats(&mut reg, &stats);
        assert_eq!(reg.counter("solver.decisions"), Some(9));
        assert_eq!(reg.counter("solver.conflicts"), Some(7));
        assert_eq!(reg.counter("solver.restarts"), Some(0));
    }

    #[test]
    fn take_json_flag_extracts_path() {
        let mut args = vec![
            "16".to_string(),
            "--json".to_string(),
            "out.json".to_string(),
        ];
        assert_eq!(take_json_flag(&mut args), Some("out.json".to_string()));
        assert_eq!(args, vec!["16".to_string()]);
        assert_eq!(take_json_flag(&mut args), None);
    }
}
