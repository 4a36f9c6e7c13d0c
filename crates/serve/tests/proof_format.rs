//! `proof_format` jobs through a live daemon: clausal proofs (DRAT and
//! LRAT) must reach the same verdicts the native trace path reaches, and
//! defective or unreadable proofs must map onto the existing verdict
//! statuses — never a new failure mode, never a dead worker.

mod common;

use common::*;
use rescheck_interop::export_lrat;
use rescheck_obs::json::Json;
use rescheck_serve::{LineOutcome, ServeConfig, Server};
use rescheck_solver::{Solver, SolverConfig};
use rescheck_trace::MemorySink;

fn submit_all(lines: &[String]) -> Vec<Json> {
    let server = Server::start(ServeConfig {
        workers: 2,
        queue_depth: 64,
        ..ServeConfig::default()
    });
    let buf = SharedBuf::new();
    let reply = buf.reply();
    for line in lines {
        assert_eq!(server.handle_line(line, &reply), LineOutcome::Submitted);
    }
    let frames = buf.wait_frames(lines.len());
    server.shutdown();
    frames
}

fn status_by_id(frames: &[Json]) -> std::collections::BTreeMap<String, String> {
    frames
        .iter()
        .map(|f| {
            (
                f.get("id").unwrap().as_str().unwrap().to_string(),
                f.get("status").unwrap().as_str().unwrap().to_string(),
            )
        })
        .collect()
}

#[test]
fn clausal_proof_jobs_reach_native_verdicts() {
    let cnf = pigeonhole(2);
    let cnf_json = Json::from(cnf_text(&cnf).as_str());

    // A real LRAT proof, produced by the exporter from a solver trace.
    let mut solver = Solver::from_cnf(&cnf, SolverConfig::default());
    let mut sink = MemorySink::new();
    assert!(solver.solve_traced(&mut sink).expect("solve").is_unsat());
    let exported = export_lrat(&cnf, sink.events()).expect("export");
    let mut lrat_text = Vec::new();
    rescheck_interop::lrat::write_text(&mut lrat_text, &exported.steps).unwrap();
    let lrat_text = String::from_utf8(lrat_text).unwrap();

    let lines = vec![
        job_frame(
            "lrat-good",
            &[
                ("cnf", cnf_json.clone()),
                ("trace", Json::from(lrat_text.as_str())),
                ("proof_format", Json::from("lrat")),
                ("strategy", Json::from("bf")),
            ],
        ),
        // The same claim as a hint-free DRAT proof. Unit propagation on
        // PHP(2) refutes it after the two unit lemmas below.
        job_frame(
            "drat-good",
            &[
                ("cnf", cnf_json.clone()),
                ("trace", Json::from("-1 0\n-4 0\n0\n")),
                ("proof_format", Json::from("drat")),
            ],
        ),
        // Parses, proves nothing: a non-unit RUP addition then silence.
        job_frame(
            "drat-stall",
            &[
                ("cnf", cnf_json.clone()),
                ("trace", Json::from("-1 -4 0\n")),
                ("proof_format", Json::from("drat")),
            ],
        ),
        // Not a proof at all.
        job_frame(
            "drat-garbage",
            &[
                ("cnf", cnf_json.clone()),
                ("trace", Json::from("one two 0\n")),
                ("proof_format", Json::from("drat")),
            ],
        ),
        // Missing proof file.
        job_frame(
            "lrat-missing",
            &[
                ("cnf", cnf_json.clone()),
                ("trace_path", Json::from("/nonexistent/proof.lrat")),
                ("proof_format", Json::from("lrat")),
            ],
        ),
    ];
    let frames = submit_all(&lines);
    let statuses = status_by_id(&frames);
    assert_eq!(statuses["lrat-good"], "valid");
    assert_eq!(statuses["drat-good"], "valid");
    assert_eq!(statuses["drat-stall"], "proof-defect");
    assert_eq!(statuses["drat-garbage"], "io-error");
    assert_eq!(statuses["lrat-missing"], "io-error");

    // The valid verdicts ran the real checker on the synthesized trace:
    // they carry checker stats like any native-trace job, plus the
    // ingestion counters as `ingest.*` gauges.
    for frame in &frames {
        let id = frame.get("id").unwrap().as_str().unwrap();
        let gauge = |name: &str| {
            frame
                .path("metrics.gauges")
                .and_then(|g| g.get(name))
                .and_then(|j| j.as_f64())
        };
        if statuses[id] == "valid" {
            assert!(frame.get("stats").is_some(), "{id}: no checker stats");
            assert!(gauge("ingest.additions") >= Some(1.0), "{id}: {frame:?}");
            assert!(gauge("ingest.propagations") >= Some(1.0), "{id}: {frame:?}");
            assert_eq!(gauge("ingest.rat_steps"), Some(0.0), "{id}");
        } else {
            assert_eq!(gauge("ingest.additions"), None, "{id}: ingestion failed");
        }
    }
    let drat = frames
        .iter()
        .find(|f| f.get("id").and_then(|j| j.as_str()) == Some("drat-good"))
        .unwrap();
    // The first unit lemma already propagates to the final conflict;
    // the rest of the proof is counted, not replayed.
    assert_eq!(
        drat.path("metrics.gauges")
            .and_then(|g| g.get("ingest.additions"))
            .and_then(|j| j.as_f64()),
        Some(1.0)
    );
}
