//! The acceptance campaign: a 100-job mixed workload through
//! `rescheck serve` must match one-shot checking bit-for-bit (same
//! statuses, same stats), and must do so identically whether the daemon
//! runs one worker or four.

mod common;

use common::*;
use rescheck_checker::{
    check_sat_claim, check_stats_json, check_unsat_claim, CheckConfig, FailureKind, Strategy,
};
use rescheck_cnf::{Assignment, Cnf, Lit};
use rescheck_obs::json::Json;
use rescheck_serve::{LineOutcome, ServeConfig, Server};
use rescheck_trace::{read_all, MemorySink, TraceFormat};
use std::collections::BTreeMap;
use std::io::Cursor;

/// Every strategy: each one's verdict and stats are a pure function of
/// the claim and its budget.
const STRATEGIES: [(&str, Strategy); 5] = [
    ("df", Strategy::DepthFirst),
    ("bf", Strategy::BreadthFirst),
    ("hybrid", Strategy::Hybrid),
    ("portfolio", Strategy::Portfolio),
    ("dfd", Strategy::DiskDepthFirst),
];

struct Case {
    id: String,
    line: String,
    /// `(status, comparable-stats)` the daemon must reproduce.
    expected: (String, Option<Json>),
}

/// The stats fields compared bit-for-bit between serve and one-shot
/// (floats and wall-clock excluded).
const COMPARED_STATS: [&str; 5] = [
    "learned_in_trace",
    "clauses_built",
    "resolutions",
    "peak_memory_bytes",
    "trace_bytes",
];

fn comparable_stats(stats: &Json) -> Json {
    let mut out = Json::object();
    for key in COMPARED_STATS {
        out.set(key, stats.get(key).cloned().unwrap_or(Json::Null));
    }
    out.set(
        "strategy",
        stats.get("strategy").cloned().unwrap_or(Json::Null),
    );
    out
}

fn failure_status(kind: FailureKind) -> &'static str {
    match kind {
        FailureKind::ProofDefect => "proof-defect",
        FailureKind::ResourceLimit => "resource-limit",
        FailureKind::Io => "io-error",
        FailureKind::Cancelled => "cancelled",
    }
}

/// Runs the one-shot checker the way `rescheck check` would, producing
/// the `(status, stats)` the daemon must match.
fn one_shot_unsat(
    cnf: &Cnf,
    trace_text: &str,
    strategy: Strategy,
    memory: Option<u64>,
) -> (String, Option<Json>) {
    let events =
        read_all(Cursor::new(trace_text.as_bytes()), TraceFormat::Ascii).expect("trace parses");
    let trace = MemorySink::from(events);
    let config = CheckConfig {
        memory_limit: memory,
        ..CheckConfig::default()
    };
    match check_unsat_claim(cnf, &trace, strategy, &config) {
        Ok(outcome) => (
            "valid".to_string(),
            Some(comparable_stats(&check_stats_json(&outcome.stats))),
        ),
        Err(e) => (failure_status(e.kind()).to_string(), None),
    }
}

fn unsat_case(
    id: String,
    cnf: &Cnf,
    cnf_str: &str,
    trace_text: &str,
    strategy_name: &str,
    strategy: Strategy,
    memory: Option<u64>,
) -> Case {
    let mut fields = vec![
        ("cnf", Json::Str(cnf_str.to_string())),
        ("trace", Json::Str(trace_text.to_string())),
        ("strategy", Json::Str(strategy_name.to_string())),
    ];
    if let Some(bytes) = memory {
        fields.push(("memory_bytes", Json::UInt(bytes)));
    }
    Case {
        line: job_frame(&id, &fields),
        expected: one_shot_unsat(cnf, trace_text, strategy, memory),
        id,
    }
}

fn sat_case(id: String, cnf: &Cnf, cnf_str: &str, model: &[i64]) -> Case {
    let mut assignment = Assignment::new(cnf.num_vars());
    for &l in model {
        assignment.assign(Lit::from_dimacs(l));
    }
    let expected = match check_sat_claim(cnf, &assignment) {
        Ok(()) => ("valid".to_string(), None),
        Err(_) => ("model-defect".to_string(), None),
    };
    let lits = model.iter().map(|&l| Json::Int(l)).collect();
    Case {
        line: job_frame(
            &id,
            &[
                ("cnf", Json::Str(cnf_str.to_string())),
                ("model", Json::Array(lits)),
            ],
        ),
        expected,
        id,
    }
}

/// Builds the 100-job mixed campaign: valid UNSAT proofs across every
/// strategy, defective proofs (formula/trace mismatches), valid and
/// defective SAT models, and memory-starved jobs.
fn build_campaign() -> Vec<Case> {
    let formulas: Vec<(String, Cnf)> = vec![
        ("php2".into(), pigeonhole(2)),
        ("php3".into(), pigeonhole(3)),
        ("php4".into(), pigeonhole(4)),
        ("chain20".into(), unsat_chain(20)),
    ];
    let prepared: Vec<(String, Cnf, String, String)> = formulas
        .into_iter()
        .map(|(name, cnf)| {
            let text = cnf_text(&cnf);
            let trace = unsat_trace_text(&cnf);
            (name, cnf, text, trace)
        })
        .collect();

    let mut cases = Vec::new();

    // 40 valid UNSAT: 4 formulas × 5 strategies × 2 rounds (the repeat
    // round exercises warm formula-cache + scratch reuse paths).
    for round in 0..2 {
        for (name, cnf, text, trace) in &prepared {
            for (sname, strategy) in STRATEGIES {
                cases.push(unsat_case(
                    format!("ok-{name}-{sname}-r{round}"),
                    cnf,
                    text,
                    trace,
                    sname,
                    strategy,
                    None,
                ));
            }
        }
    }

    // 20 proof defects: each formula checked against the next formula's
    // trace — ids resolve, resolutions do not.
    for (i, (name, cnf, text, _)) in prepared.iter().enumerate() {
        let wrong_trace = &prepared[(i + 1) % prepared.len()].3;
        for (sname, strategy) in STRATEGIES {
            cases.push(unsat_case(
                format!("defect-{name}-{sname}"),
                cnf,
                text,
                wrong_trace,
                sname,
                strategy,
                None,
            ));
        }
    }

    // 15 memory-starved: 64 bytes is below any real clause budget.
    for (name, cnf, text, trace) in prepared.iter().take(3) {
        for (sname, strategy) in STRATEGIES {
            cases.push(unsat_case(
                format!("oom-{name}-{sname}"),
                cnf,
                text,
                trace,
                sname,
                strategy,
                Some(64),
            ));
        }
    }

    // 15 valid SAT + 10 model defects.
    for k in 0..15 {
        let mut cnf = Cnf::new();
        for c in 0..(k % 4) + 1 {
            cnf.add_dimacs_clause(&[(c as i64) + 1, -1 - (c as i64)]);
        }
        let text = cnf_text(&cnf);
        let model: Vec<i64> = (1..=cnf.num_vars() as i64).collect();
        cases.push(sat_case(format!("sat-{k}"), &cnf, &text, &model));
    }
    for k in 0..10 {
        let mut cnf = Cnf::new();
        cnf.add_dimacs_clause(&[1, 2]);
        cnf.add_dimacs_clause(&[(k as i64) + 1]);
        let text = cnf_text(&cnf);
        let model: Vec<i64> = (1..=cnf.num_vars() as i64).map(|v| -v).collect();
        cases.push(sat_case(format!("badmodel-{k}"), &cnf, &text, &model));
    }

    assert_eq!(cases.len(), 100);
    cases
}

/// Runs the whole campaign through a daemon with `workers` workers and
/// returns each job's `(status, comparable-stats)` by id.
fn run_campaign(cases: &[Case], workers: usize) -> BTreeMap<String, (String, Option<Json>)> {
    let server = Server::start(ServeConfig {
        workers,
        queue_depth: 256, // the whole campaign must be admitted, not shed
        ..ServeConfig::default()
    });
    let buf = SharedBuf::new();
    let reply = buf.reply();
    for case in cases {
        assert_eq!(
            server.handle_line(&case.line, &reply),
            LineOutcome::Submitted,
            "{}",
            case.line
        );
    }
    let frames = buf.wait_frames(cases.len());
    server.shutdown();

    let mut results = BTreeMap::new();
    for frame in &frames {
        let id = frame.get("id").unwrap().as_str().unwrap().to_string();
        let status = status_of(frame).to_string();
        let stats = frame.get("stats").map(comparable_stats);
        assert!(
            results.insert(id.clone(), (status, stats)).is_none(),
            "duplicate verdict for {id}"
        );
    }
    results
}

#[test]
fn hundred_job_campaign_matches_one_shot_checking_for_any_worker_count() {
    let cases = build_campaign();

    let solo = run_campaign(&cases, 1);
    let fleet = run_campaign(&cases, 4);

    // Determinism: worker count must not change a single verdict.
    assert_eq!(solo, fleet);

    // Parity: every verdict matches the one-shot checker bit-for-bit.
    for case in &cases {
        let id = &case.id;
        let (status, stats) = solo
            .get(id)
            .unwrap_or_else(|| panic!("no verdict for {id}"));
        assert_eq!(status, &case.expected.0, "status mismatch for {id}");
        assert_eq!(stats, &case.expected.1, "stats mismatch for {id}");
    }

    // The campaign genuinely exercised distinct verdict classes.
    let statuses: std::collections::BTreeSet<&str> =
        solo.values().map(|(s, _)| s.as_str()).collect();
    for expected in ["valid", "proof-defect", "resource-limit", "model-defect"] {
        assert!(
            statuses.contains(expected),
            "campaign never produced {expected}: {statuses:?}"
        );
    }
}

/// `pdag`, `pbf` and their long forms name retired parallel engines: a
/// frame naming one, with the `jobs` key they used to read, gets
/// breadth-first's verdict and stats, valid or defective.
#[test]
fn retired_parallel_names_get_breadth_first_verdicts_and_stats() {
    let (php, chain) = (pigeonhole(3), unsat_chain(20));
    let (php_text, chain_text) = (cnf_text(&php), cnf_text(&chain));
    let (php_trace, chain_trace) = (unsat_trace_text(&php), unsat_trace_text(&chain));
    let claim = |id: String, cnf: &Cnf, text: &str, trace: &str, name: &str| Case {
        line: job_frame(
            &id,
            &[
                ("cnf", Json::Str(text.to_string())),
                ("trace", Json::Str(trace.to_string())),
                ("strategy", Json::Str(name.to_string())),
                ("jobs", Json::UInt(4)),
            ],
        ),
        expected: one_shot_unsat(cnf, trace, Strategy::BreadthFirst, None),
        id,
    };
    let mut cases = Vec::new();
    for name in ["pdag", "parallel-dag", "pbf", "parallel-bf"] {
        cases.push(claim(
            format!("ok-{name}"),
            &php,
            &php_text,
            &php_trace,
            name,
        ));
        cases.push(claim(
            format!("chain-{name}"),
            &chain,
            &chain_text,
            &chain_trace,
            name,
        ));
        cases.push(claim(
            format!("defect-{name}"),
            &php,
            &php_text,
            &chain_trace,
            name,
        ));
    }
    let results = run_campaign(&cases, 2);
    for case in &cases {
        let (status, stats) = &results[&case.id];
        assert_eq!(status, &case.expected.0, "{}", case.id);
        assert_eq!(stats, &case.expected.1, "{}", case.id);
        if case.id.starts_with("defect") {
            assert_eq!(status, "proof-defect", "{}", case.id);
        } else {
            assert_eq!(status, "valid", "{}", case.id);
            let strategy = stats.as_ref().and_then(|s| s.get("strategy"));
            assert_eq!(strategy.and_then(Json::as_str), Some("breadth-first"));
        }
    }
}
