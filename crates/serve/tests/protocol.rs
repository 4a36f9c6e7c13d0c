//! Wire-protocol robustness: malformed frames, backpressure, timeouts,
//! panic isolation. The invariant under test throughout: the daemon
//! answers *every* line with a frame and never dies or disconnects.

mod common;

use common::*;
use rescheck_obs::json::Json;
use rescheck_serve::{serve_io, LineOutcome, ServeConfig, Server};
use rescheck_solver::{Solver, SolverConfig};
use rescheck_trace::BinaryWriter;
use std::io::Cursor;
use std::time::{Duration, Instant};

fn one_worker() -> ServeConfig {
    ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    }
}

/// A trivially satisfiable job used where the claim's content is
/// irrelevant to the scenario.
fn sat_job(id: &str, extra: &[(&str, Json)]) -> String {
    let mut fields = vec![
        ("cnf", Json::Str("p cnf 1 1\n1 0\n".to_string())),
        ("model", Json::Array(vec![Json::Int(1)])),
    ];
    fields.extend(extra.iter().cloned());
    job_frame(id, &fields)
}

#[test]
fn malformed_frames_each_get_a_verdict_and_the_session_survives() {
    let server = Server::start(one_worker());
    let buf = SharedBuf::new();
    let reply = buf.reply();

    let bad_lines = [
        r#"{"id":"trunc","#,                                     // truncated JSON
        r#"[1,2,3]"#,                                            // not an object
        r#"{"op":"selfdestruct"}"#,                              // unknown op
        r#"{"cnf":"x","trace":"t"}"#,                            // missing id
        r#"{"id":"s","cnf":"x","trace":"t","strategy":"warp"}"#, // unknown strategy
        r#"{"id":"k","cnf":"x","trace":"t","zebra":1}"#,         // unknown key
        r#"{"id":"noclaim","cnf":"x"}"#,                         // no evidence
    ];
    for line in bad_lines {
        assert_eq!(
            server.handle_line(line, &reply),
            LineOutcome::Replied,
            "{line}"
        );
    }
    let frames = buf.wait_frames(bad_lines.len());
    for frame in &frames {
        assert_eq!(status_of(frame), "malformed");
        assert!(frame.get("error").is_some(), "{frame}");
    }
    // Recoverable ids are echoed so drivers can correlate.
    assert_eq!(
        verdict_for(&frames, "s")
            .get("error")
            .unwrap()
            .as_str()
            .unwrap(),
        "unknown strategy \"warp\""
    );

    // The session is still fully usable: a real job round-trips.
    let cnf = pigeonhole(3);
    let line = job_frame(
        "after-the-garbage",
        &[
            ("cnf", Json::Str(cnf_text(&cnf))),
            ("trace", Json::Str(unsat_trace_text(&cnf))),
        ],
    );
    assert_eq!(server.handle_line(&line, &reply), LineOutcome::Submitted);
    let frames = buf.wait_frames(bad_lines.len() + 1);
    assert_eq!(
        status_of(verdict_for(&frames, "after-the-garbage")),
        "valid"
    );

    let snapshot = server.metrics_snapshot();
    assert_eq!(
        snapshot.counter("serve.frames_malformed"),
        Some(bad_lines.len() as u64)
    );
    server.shutdown();
}

#[test]
fn oversized_frames_are_rejected_without_parsing() {
    let server = Server::start(ServeConfig {
        workers: 1,
        max_frame_bytes: 256,
        ..ServeConfig::default()
    });
    let buf = SharedBuf::new();
    let reply = buf.reply();
    let huge = format!(r#"{{"id":"big","cnf":"{}","trace":"t"}}"#, "x".repeat(1000));
    assert_eq!(server.handle_line(&huge, &reply), LineOutcome::Replied);
    let frames = buf.wait_frames(1);
    assert_eq!(status_of(&frames[0]), "malformed");
    assert!(frames[0]
        .get("error")
        .unwrap()
        .as_str()
        .unwrap()
        .contains("256-byte limit"));
    // Still alive.
    assert_eq!(
        server.handle_line(r#"{"op":"ping"}"#, &reply),
        LineOutcome::Replied
    );
    server.shutdown();
}

#[test]
fn full_queue_sheds_with_busy_and_recovers() {
    let server = Server::start(ServeConfig {
        workers: 1,
        queue_depth: 1,
        ..ServeConfig::default()
    });
    let buf = SharedBuf::new();
    let reply = buf.reply();

    // One worker + one queue slot: of five instant submissions of
    // 250 ms jobs, at most two are admitted; the rest shed as `busy`.
    let mut admitted = 0;
    let mut shed = 0;
    for i in 0..5 {
        let line = sat_job(
            &format!("burst-{i}"),
            &[("inject", Json::Str("sleep:250".into()))],
        );
        match server.handle_line(&line, &reply) {
            LineOutcome::Submitted => admitted += 1,
            LineOutcome::Replied => shed += 1,
            other => panic!("unexpected outcome {other:?}"),
        }
    }
    assert!(admitted <= 2, "admitted {admitted}");
    assert_eq!(shed, 5 - admitted);
    assert!(shed >= 3);

    let frames = buf.wait_frames(5);
    let busy = frames.iter().filter(|f| status_of(f) == "busy").count();
    let valid = frames.iter().filter(|f| status_of(f) == "valid").count();
    assert_eq!(busy, shed);
    assert_eq!(valid, admitted);

    // Burst over: the daemon accepts work again.
    let line = sat_job("after-the-burst", &[]);
    assert_eq!(server.handle_line(&line, &reply), LineOutcome::Submitted);
    let frames = buf.wait_frames(6);
    assert_eq!(status_of(verdict_for(&frames, "after-the-burst")), "valid");

    let snapshot = server.metrics_snapshot();
    assert_eq!(snapshot.counter("serve.jobs_shed"), Some(shed as u64));
    assert_eq!(snapshot.counter("serve.jobs_submitted"), Some(6));
    assert!(snapshot.histogram("serve.queue_depth").is_some());
    assert!(snapshot.histogram("serve.job_wall_us").is_some());
    server.shutdown();
}

#[test]
fn zero_timeout_yields_a_deterministic_timeout_verdict() {
    let cnf = pigeonhole(3);
    let job = job_frame(
        "deadline",
        &[
            ("cnf", Json::Str(cnf_text(&cnf))),
            ("trace", Json::Str(unsat_trace_text(&cnf))),
            ("timeout_ms", Json::UInt(0)),
        ],
    );
    let input = format!("{job}\n{{\"op\":\"shutdown\"}}\n");
    let buf = SharedBuf::new();
    serve_io(one_worker(), Cursor::new(input), Box::new(buf.clone())).unwrap();
    let frames = buf.frames();
    let verdict = verdict_for(&frames, "deadline");
    assert_eq!(status_of(verdict), "timeout");
    assert!(verdict
        .get("error")
        .unwrap()
        .as_str()
        .unwrap()
        .contains("deadline"));
}

#[test]
fn a_panicking_job_costs_one_verdict_not_the_daemon() {
    let server = Server::start(ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    });
    let buf = SharedBuf::new();
    let reply = buf.reply();

    let boom = sat_job("boom", &[("inject", Json::Str("panic".into()))]);
    assert_eq!(server.handle_line(&boom, &reply), LineOutcome::Submitted);
    let quiet = sat_job("quiet", &[]);
    assert_eq!(server.handle_line(&quiet, &reply), LineOutcome::Submitted);

    let frames = buf.wait_frames(2);
    let verdict = verdict_for(&frames, "boom");
    assert_eq!(status_of(verdict), "internal-error");
    assert!(verdict
        .get("error")
        .unwrap()
        .as_str()
        .unwrap()
        .contains("injected job panic"));
    assert_eq!(status_of(verdict_for(&frames, "quiet")), "valid");

    // The worker was respawned (counter moves just after the verdict is
    // written, so poll briefly).
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let snapshot = server.metrics_snapshot();
        if snapshot.counter("serve.worker_respawns") == Some(1) {
            assert_eq!(snapshot.counter("serve.worker_panics"), Some(1));
            assert_eq!(snapshot.counter("serve.status.internal-error"), Some(1));
            break;
        }
        assert!(Instant::now() < deadline, "respawn counter never moved");
        std::thread::sleep(Duration::from_millis(5));
    }

    // And the pool still works — including the respawned worker's slot:
    // two concurrent jobs need both workers live.
    for i in 0..2 {
        let line = sat_job(
            &format!("post-{i}"),
            &[("inject", Json::Str("sleep:50".into()))],
        );
        assert_eq!(server.handle_line(&line, &reply), LineOutcome::Submitted);
    }
    let frames = buf.wait_frames(4);
    for i in 0..2 {
        assert_eq!(
            status_of(verdict_for(&frames, &format!("post-{i}"))),
            "valid"
        );
    }
    server.shutdown();
}

#[test]
fn control_frames_answer_inline_and_eof_emits_a_summary() {
    let input = concat!(
        r#"{"op":"ping"}"#,
        "\n",
        r#"{"op":"metrics"}"#,
        "\n",
        // no shutdown frame: EOF must wind down cleanly
    );
    let buf = SharedBuf::new();
    let summary = serve_io(one_worker(), Cursor::new(input), Box::new(buf.clone())).unwrap();
    assert_eq!(
        summary.get("rescheck").unwrap().as_str(),
        Some("rescheck-serve-summary-v1")
    );
    assert_eq!(summary.get("jobs_submitted").unwrap().as_u64(), Some(0));

    let frames = buf.frames();
    assert_eq!(frames.len(), 3);
    assert_eq!(
        frames[0].get("rescheck").unwrap().as_str(),
        Some("rescheck-serve-pong-v1")
    );
    assert_eq!(
        frames[1].get("schema").unwrap().as_str(),
        Some("rescheck-metrics-v2")
    );
    assert_eq!(
        frames[2].get("rescheck").unwrap().as_str(),
        Some("rescheck-serve-summary-v1")
    );
}

#[test]
fn verdicts_embed_a_metrics_v2_document() {
    let cnf = unsat_chain(12);
    let job = job_frame(
        "observed",
        &[
            ("cnf", Json::Str(cnf_text(&cnf))),
            ("trace", Json::Str(unsat_trace_text(&cnf))),
            ("strategy", Json::Str("bf".into())),
        ],
    );
    let input = format!("{job}\n{{\"op\":\"shutdown\"}}\n");
    let buf = SharedBuf::new();
    serve_io(one_worker(), Cursor::new(input), Box::new(buf.clone())).unwrap();
    let frames = buf.frames();
    let verdict = verdict_for(&frames, "observed");
    assert_eq!(status_of(verdict), "valid");
    let metrics = verdict.get("metrics").expect("embedded metrics");
    assert_eq!(
        metrics.get("schema").unwrap().as_str(),
        Some("rescheck-metrics-v2")
    );
    assert_eq!(metrics.get("command").unwrap().as_str(), Some("serve-job"));
    assert!(metrics.path("phases.check:resolve").is_some(), "{metrics}");
    assert!(verdict.path("stats.clauses_built").is_some());
}

#[test]
fn daemon_metrics_stay_bounded_across_many_jobs() {
    // Per-job verdict frames carry each job's span tree; the daemon-wide
    // registry keeps only what is bounded by names (counters, gauges,
    // phase totals, histograms), so its metrics frame stops growing.
    let cnf = unsat_chain(6);
    let (cnf_text, trace_text) = (cnf_text(&cnf), unsat_trace_text(&cnf));
    let server = Server::start(one_worker());
    let buf = SharedBuf::new();
    let reply = buf.reply();
    let run_jobs = |from: usize, to: usize| {
        for batch in (from..to).collect::<Vec<_>>().chunks(8) {
            for i in batch {
                let job = job_frame(
                    &format!("j{i}"),
                    &[
                        ("cnf", Json::Str(cnf_text.clone())),
                        ("trace", Json::Str(trace_text.clone())),
                        ("strategy", Json::from("bf")),
                    ],
                );
                assert_eq!(server.handle_line(&job, &reply), LineOutcome::Submitted);
            }
            buf.wait_frames(batch[batch.len() - 1] + 1);
        }
    };
    let metrics_frame_len = || {
        let out = SharedBuf::new();
        let reply = out.reply();
        assert_eq!(
            server.handle_line(r#"{"op":"metrics"}"#, &reply),
            LineOutcome::Replied
        );
        out.text().len()
    };
    run_jobs(0, 150);
    let halfway = metrics_frame_len();
    run_jobs(150, 300);
    let end = metrics_frame_len();
    let frames = buf.frames();
    assert!(frames.iter().all(|f| status_of(f) == "valid"));
    let job_spans = verdict_for(&frames, "j299").path("metrics.spans");
    assert!(
        matches!(job_spans, Some(Json::Array(spans)) if !spans.is_empty()),
        "a verdict keeps its job's span tree"
    );
    assert!(server.metrics_snapshot().spans().is_empty());
    assert!(
        end < halfway + 1024,
        "metrics frame grew from {halfway} to {end} bytes over 150 jobs"
    );
    server.shutdown();
}

#[test]
fn truncating_a_cached_trace_between_jobs_still_gets_a_verdict() {
    // Path-supplied traces are cached as buffered copies, so cutting the
    // file under the cache cannot fault the daemon: the next job sees the
    // cut trace and rejects it.
    let cnf = pigeonhole(4);
    let mut writer = BinaryWriter::new(Vec::new()).unwrap();
    let mut solver = Solver::from_cnf(&cnf, SolverConfig::default());
    assert!(solver.solve_traced(&mut writer).unwrap().is_unsat());
    let bytes = writer.into_inner();
    let path = std::env::temp_dir().join(format!(
        "rescheck-serve-truncate-{}.rtb",
        std::process::id()
    ));
    std::fs::write(&path, &bytes).unwrap();
    let job = |id: &str| {
        job_frame(
            id,
            &[
                ("cnf", Json::Str(cnf_text(&cnf))),
                ("trace_path", Json::Str(path.display().to_string())),
                ("strategy", Json::from("dfd")),
            ],
        )
    };
    let server = Server::start(one_worker());
    let buf = SharedBuf::new();
    let reply = buf.reply();
    server.handle_line(&job("whole"), &reply);
    buf.wait_frames(1);
    let file = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
    file.set_len(bytes.len() as u64 / 2).unwrap();
    server.handle_line(&job("cut"), &reply);
    let frames = buf.wait_frames(2);
    assert_eq!(status_of(verdict_for(&frames, "whole")), "valid");
    assert_eq!(status_of(verdict_for(&frames, "cut")), "proof-defect");
    server.shutdown();
    std::fs::remove_file(&path).ok();
}

#[cfg(unix)]
#[test]
fn fifo_paths_get_io_errors_and_shutdown_completes() {
    // Opening a FIFO that has no writer blocks in open(2); a daemon that
    // opened one would wedge a worker past any deadline and never finish
    // its shutdown. Every path field is refused before it is opened.
    let dir = std::env::temp_dir().join(format!("rescheck-serve-fifo-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let fifo = dir.join("no-writer");
    std::fs::remove_file(&fifo).ok();
    match std::process::Command::new("mkfifo").arg(&fifo).status() {
        Ok(status) if status.success() => {}
        _ => {
            eprintln!("mkfifo unavailable; skipping");
            return;
        }
    }
    let cnf = pigeonhole(2);
    let fifo_path = Json::Str(fifo.display().to_string());
    let deadline = ("timeout_ms", Json::Int(500));
    let jobs = [
        job_frame(
            "cnf_path",
            &[
                ("cnf_path", fifo_path.clone()),
                ("trace", Json::Str(unsat_trace_text(&cnf))),
                deadline.clone(),
            ],
        ),
        job_frame(
            "trace_path",
            &[
                ("cnf", Json::Str(cnf_text(&cnf))),
                ("trace_path", fifo_path.clone()),
                deadline.clone(),
            ],
        ),
        job_frame(
            "proof_path",
            &[
                ("cnf", Json::Str(cnf_text(&cnf))),
                ("trace_path", fifo_path),
                ("proof_format", Json::from("drat")),
                deadline,
            ],
        ),
    ];
    let input = format!("{}\n{{\"op\":\"shutdown\"}}\n", jobs.join("\n"));

    // The daemon runs on its own thread and every frame has a bounded
    // wait, so a wedged worker fails this test instead of hanging it.
    let buf = SharedBuf::new();
    let out = buf.clone();
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    let daemon = std::thread::spawn(move || {
        let config = ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        };
        let summary = serve_io(config, Cursor::new(input), Box::new(out));
        done_tx.send(summary.is_ok()).ok();
    });
    for n in 1..=3 {
        let deadline = Instant::now() + Duration::from_secs(10);
        while buf.frames().len() < n {
            assert!(
                Instant::now() < deadline,
                "no verdict {n} within 10 s:\n{}",
                buf.text()
            );
            std::thread::sleep(Duration::from_millis(5));
        }
    }
    assert_eq!(
        done_rx.recv_timeout(Duration::from_secs(10)),
        Ok(true),
        "shutdown did not complete"
    );
    daemon.join().expect("daemon thread");
    let frames = buf.frames();
    for id in ["cnf_path", "trace_path", "proof_path"] {
        let verdict = verdict_for(&frames, id);
        assert_eq!(status_of(verdict), "io-error", "{verdict}");
        let error = verdict.get("error").and_then(Json::as_str).unwrap();
        assert!(error.contains("not a regular file"), "{error}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// `(hits, misses)` of the daemon's formula cache.
fn formula_cache(server: &Server) -> (u64, u64) {
    let snapshot = server.metrics_snapshot();
    let count = |name: &str| snapshot.counter(name).unwrap_or(0);
    (
        count("serve.formula_cache.hits"),
        count("serve.formula_cache.misses"),
    )
}

#[test]
fn a_formula_file_rewritten_between_jobs_is_parsed_afresh() {
    // The model satisfies the first and third formulas, not the second.
    // The second has a new length; the third has the second's length
    // and a later mtime.
    let path =
        std::env::temp_dir().join(format!("rescheck-serve-rewrite-{}.cnf", std::process::id()));
    let versions = [
        ("p cnf 2 1\n-1 -2 0\n", "valid"),
        ("p cnf 2 1\n-1 2 0\n", "model-defect"),
        ("p cnf 2 1\n1 -2 0\n", "valid"),
    ];
    let server = Server::start(one_worker());
    let buf = SharedBuf::new();
    let reply = buf.reply();
    for (n, (text, _)) in versions.iter().enumerate() {
        std::fs::write(&path, text).unwrap();
        if n == 2 {
            let file = std::fs::File::options().write(true).open(&path).unwrap();
            let later = std::time::SystemTime::now() + Duration::from_secs(60);
            file.set_modified(later).unwrap();
        }
        let job = job_frame(
            &format!("v{n}"),
            &[
                ("cnf_path", Json::Str(path.display().to_string())),
                ("model", Json::Array(vec![Json::Int(1), Json::Int(-2)])),
            ],
        );
        server.handle_line(&job, &reply);
        buf.wait_frames(n + 1);
    }
    let frames = buf.frames();
    for (n, (_, expected)) in versions.iter().enumerate() {
        assert_eq!(status_of(verdict_for(&frames, &format!("v{n}"))), *expected);
    }
    assert_eq!(formula_cache(&server), (0, 3));
    server.shutdown();
    std::fs::remove_file(&path).ok();
}

#[test]
fn jobs_on_two_workers_share_one_formula_and_report_one_shot_stats() {
    use rescheck_checker::{check_stats_json, check_unsat_claim, CheckConfig, Strategy};
    use rescheck_trace::{read_all, MemorySink, TraceFormat};
    let cnf = pigeonhole(3);
    let trace_text = unsat_trace_text(&cnf);
    let path =
        std::env::temp_dir().join(format!("rescheck-serve-shared-{}.cnf", std::process::id()));
    std::fs::write(&path, cnf_text(&cnf)).unwrap();
    let events = read_all(Cursor::new(trace_text.as_bytes()), TraceFormat::Ascii).unwrap();
    let one_shot = check_unsat_claim(
        &cnf,
        &MemorySink::from(events),
        Strategy::DepthFirst,
        &CheckConfig::default(),
    )
    .unwrap();
    let stat_line = |stats: &Json| {
        let mut stats = stats.clone();
        stats.set("runtime_seconds", 0.0);
        stats.to_string()
    };
    let expected = stat_line(&check_stats_json(&one_shot.stats));

    // Job `a` sleeps on one worker while job `b` runs on the other, so
    // `b` parses the formula and `a` reads `b`'s table.
    let server = Server::start(ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    });
    let buf = SharedBuf::new();
    let reply = buf.reply();
    for (id, inject) in [("a", Some("sleep:1000")), ("b", None)] {
        let mut fields = vec![
            ("cnf_path", Json::Str(path.display().to_string())),
            ("trace", Json::Str(trace_text.clone())),
            ("strategy", Json::from("df")),
        ];
        if let Some(inject) = inject {
            fields.push(("inject", Json::from(inject)));
        }
        server.handle_line(&job_frame(id, &fields), &reply);
    }
    let frames = buf.wait_frames(2);
    for id in ["a", "b"] {
        let verdict = verdict_for(&frames, id);
        assert_eq!(status_of(verdict), "valid", "{verdict}");
        assert_eq!(stat_line(verdict.get("stats").unwrap()), expected, "{id}");
    }
    assert_eq!(formula_cache(&server), (1, 1));
    server.shutdown();
    std::fs::remove_file(&path).ok();
}
