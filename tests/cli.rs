//! End-to-end tests of the `rescheck` command-line binary.

use std::path::PathBuf;
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_rescheck"))
}

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("rescheck-cli-test").join(name);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn gen_solve_check_roundtrip() {
    let dir = tmp_dir("roundtrip");
    let cnf_path = dir.join("php.cnf");
    let trace_path = dir.join("php.rt");

    // gen
    let out = bin().args(["gen", "pigeonhole", "4"]).output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("p cnf 20 45"));
    std::fs::write(&cnf_path, text).unwrap();

    // solve (exit 20 = UNSAT, competition convention)
    let out = bin()
        .args(["solve"])
        .arg(&cnf_path)
        .arg("--trace")
        .arg(&trace_path)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(20));
    assert!(String::from_utf8_lossy(&out.stdout).contains("s UNSATISFIABLE"));
    assert!(trace_path.exists());

    // check, both strategies
    for strategy in ["df", "bf"] {
        let out = bin()
            .args(["check"])
            .arg(&cnf_path)
            .arg(&trace_path)
            .args(["--strategy", strategy])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(0), "{strategy}");
        assert!(String::from_utf8_lossy(&out.stdout).contains("VALID UNSAT proof"));
    }
}

#[test]
fn binary_traces_are_smaller_and_check() {
    let dir = tmp_dir("binary");
    let cnf_path = dir.join("p.cnf");
    let ascii = dir.join("p.rt");
    let binary = dir.join("p.rtb");

    let out = bin().args(["gen", "parity", "11"]).output().unwrap();
    std::fs::write(&cnf_path, out.stdout).unwrap();

    let st = bin()
        .arg("solve")
        .arg(&cnf_path)
        .arg("--trace")
        .arg(&ascii)
        .status()
        .unwrap();
    assert_eq!(st.code(), Some(20));
    let st = bin()
        .arg("solve")
        .arg(&cnf_path)
        .arg("--trace")
        .arg(&binary)
        .arg("--binary")
        .status()
        .unwrap();
    assert_eq!(st.code(), Some(20));

    let a = std::fs::metadata(&ascii).unwrap().len();
    let b = std::fs::metadata(&binary).unwrap().len();
    assert!(b < a, "binary {b} < ascii {a}");

    let out = bin()
        .arg("check")
        .arg(&cnf_path)
        .arg(&binary)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0));
}

/// A strategy name that is an alias or a policy prints the stat line of
/// the engine it runs, identical apart from the wall time: `pdag`, `pbf`
/// and their long forms name retired parallel engines and run `bf`, and
/// without a budget the portfolio is disk-backed depth-first. `check`
/// no longer takes `--jobs`.
#[test]
fn strategy_aliases_print_their_engines_stat_line() {
    let dir = tmp_dir("aliases");
    let cnf_path = dir.join("php.cnf");
    let trace_path = dir.join("php.rt");
    let out = bin().args(["gen", "pigeonhole", "5"]).output().unwrap();
    std::fs::write(&cnf_path, out.stdout).unwrap();
    let st = bin()
        .arg("solve")
        .arg(&cnf_path)
        .arg("--trace")
        .arg(&trace_path)
        .status()
        .unwrap();
    assert_eq!(st.code(), Some(20));

    // The stats line without its trailing wall-clock figure.
    let stats_line = |strategy: &str| -> String {
        let out = bin()
            .arg("check")
            .arg(&cnf_path)
            .arg(&trace_path)
            .args(["--strategy", strategy])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(0), "{strategy}");
        let text = String::from_utf8_lossy(&out.stdout).to_string();
        assert!(text.contains("VALID UNSAT proof"), "{text}");
        let line = text
            .lines()
            .find(|l| l.contains(": built "))
            .unwrap_or_else(|| panic!("no stats line in {text}"))
            .to_string();
        line.rsplit_once(',').unwrap().0.to_string()
    };

    assert_eq!(
        stats_line("portfolio").replacen("portfolio:", "disk-depth-first:", 1),
        stats_line("dfd")
    );
    let bf = stats_line("bf");
    assert!(bf.starts_with("breadth-first:"), "{bf}");
    for strategy in ["pdag", "parallel-dag", "pbf", "parallel-bf"] {
        assert_eq!(stats_line(strategy), bf, "{strategy}");
    }

    let out = bin()
        .arg("check")
        .arg(&cnf_path)
        .arg(&trace_path)
        .args(["--strategy", "pdag", "--jobs", "2"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "{out:?}");
}

#[test]
fn sat_instances_print_a_model() {
    let dir = tmp_dir("sat");
    let cnf_path = dir.join("sat.cnf");
    std::fs::write(&cnf_path, "p cnf 2 2\n1 2 0\n-1 0\n").unwrap();
    let out = bin().arg("solve").arg(&cnf_path).output().unwrap();
    assert_eq!(out.status.code(), Some(10));
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(text.contains("s SATISFIABLE"));
    assert!(text.contains("v -1 2 0"));
}

#[test]
fn corrupted_trace_is_reported_invalid() {
    let dir = tmp_dir("invalid");
    let cnf_path = dir.join("u.cnf");
    let trace_path = dir.join("u.rt");
    std::fs::write(&cnf_path, "p cnf 1 2\n1 0\n-1 0\n").unwrap();
    bin()
        .arg("solve")
        .arg(&cnf_path)
        .arg("--trace")
        .arg(&trace_path)
        .status()
        .unwrap();
    // Point the final conflict at a satisfied clause.
    let trace = std::fs::read_to_string(&trace_path).unwrap();
    std::fs::write(&trace_path, trace.replace("f 1", "f 0")).unwrap();
    let out = bin()
        .arg("check")
        .arg(&cnf_path)
        .arg(&trace_path)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stdout).contains("INVALID proof"));
}

#[test]
fn core_command_writes_a_core() {
    let dir = tmp_dir("core");
    let cnf_path = dir.join("r.cnf");
    let core_path = dir.join("core.cnf");
    let out = bin()
        .args(["gen", "routing", "3", "10", "1"])
        .output()
        .unwrap();
    std::fs::write(&cnf_path, out.stdout).unwrap();
    let out = bin()
        .arg("core")
        .arg(&cnf_path)
        .args(["--iterations", "10", "--out"])
        .arg(&core_path)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0));
    assert!(core_path.exists());
    // The extracted core is smaller than the input and still UNSAT.
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(text.contains("final core:"), "{text}");
    let st = bin().arg("solve").arg(&core_path).status().unwrap();
    assert_eq!(st.code(), Some(20));
}

#[test]
fn trim_produces_a_smaller_trace_that_still_checks() {
    let dir = tmp_dir("trim");
    let cnf_path = dir.join("t.cnf");
    let trace_path = dir.join("t.rt");
    let trimmed_path = dir.join("t.trimmed.rt");
    let out = bin().args(["gen", "pigeonhole", "6"]).output().unwrap();
    std::fs::write(&cnf_path, out.stdout).unwrap();
    bin()
        .arg("solve")
        .arg(&cnf_path)
        .arg("--trace")
        .arg(&trace_path)
        .status()
        .unwrap();
    let out = bin()
        .arg("trim")
        .arg(&cnf_path)
        .arg(&trace_path)
        .arg("--out")
        .arg(&trimmed_path)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let before = std::fs::metadata(&trace_path).unwrap().len();
    let after = std::fs::metadata(&trimmed_path).unwrap().len();
    assert!(after <= before);
    for strategy in ["df", "bf", "hybrid"] {
        let out = bin()
            .arg("check")
            .arg(&cnf_path)
            .arg(&trimmed_path)
            .args(["--strategy", strategy])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(0), "{strategy}");
    }
}

#[test]
fn stats_prints_proof_metrics() {
    let dir = tmp_dir("stats");
    let cnf_path = dir.join("s.cnf");
    let trace_path = dir.join("s.rt");
    let out = bin().args(["gen", "pigeonhole", "4"]).output().unwrap();
    std::fs::write(&cnf_path, out.stdout).unwrap();
    bin()
        .arg("solve")
        .arg(&cnf_path)
        .arg("--trace")
        .arg(&trace_path)
        .status()
        .unwrap();
    let out = bin()
        .arg("stats")
        .arg(&cnf_path)
        .arg(&trace_path)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0));
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(text.contains("learned clauses needed"), "{text}");
    assert!(text.contains("depth"), "{text}");
}

#[test]
fn check_metrics_writes_schema_conformant_json() {
    let dir = tmp_dir("metrics");
    let cnf_path = dir.join("m.cnf");
    let trace_path = dir.join("m.rt");
    let metrics_path = dir.join("m.json");
    let out = bin().args(["gen", "pigeonhole", "6"]).output().unwrap();
    std::fs::write(&cnf_path, out.stdout).unwrap();
    bin()
        .arg("solve")
        .arg(&cnf_path)
        .arg("--trace")
        .arg(&trace_path)
        .status()
        .unwrap();
    let out = bin()
        .arg("check")
        .arg(&cnf_path)
        .arg(&trace_path)
        .arg("--metrics-out")
        .arg(&metrics_path)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0), "{out:?}");

    let text = std::fs::read_to_string(&metrics_path).unwrap();
    let doc = rescheck_obs::json::parse(&text).expect("metrics file parses as JSON");
    assert_eq!(
        doc.path("schema").and_then(|j| j.as_str()),
        Some("rescheck-metrics-v2")
    );
    assert_eq!(doc.path("command").and_then(|j| j.as_str()), Some("check"));
    // The span tree nests at least three levels deep:
    // check > check:df > check:pass1.
    let spans = doc.path("spans").expect("spans array");
    let Some(rescheck_obs::Json::Array(roots)) = Some(spans) else {
        panic!("spans is not an array: {text}");
    };
    let root = roots
        .iter()
        .find(|s| s.get("name").and_then(|j| j.as_str()) == Some("check"))
        .expect("root check span");
    let Some(rescheck_obs::Json::Array(level2)) = root.get("children") else {
        panic!("root span has no children: {text}");
    };
    let strategy_span = level2
        .iter()
        .find(|s| s.get("name").and_then(|j| j.as_str()) == Some("check:df"))
        .expect("check:df span under the root");
    let Some(rescheck_obs::Json::Array(level3)) = strategy_span.get("children") else {
        panic!("strategy span has no children: {text}");
    };
    assert!(
        level3
            .iter()
            .any(|s| s.get("name").and_then(|j| j.as_str()) == Some("check:pass1")),
        "check:pass1 span under check:df: {text}"
    );
    // Resolution-shape histograms with at least one sample.
    for hist in ["check.resolve.chain_len", "check.resolve.clause_len"] {
        let count = doc
            .path("histograms")
            .and_then(|h| h.get(hist))
            .and_then(|h| h.get("count"))
            .and_then(|j| j.as_u64())
            .unwrap_or_else(|| panic!("missing histogram {hist}: {text}"));
        assert!(count > 0, "{hist} is empty");
    }
    // Phase timers for every checker phase, all positive.
    for phase in ["parse", "check:pass1", "check:resolve", "final-phase"] {
        let secs = doc
            .path("phases")
            .and_then(|p| p.get(phase))
            .and_then(|j| j.as_f64())
            .unwrap_or_else(|| panic!("missing phase timer {phase}: {text}"));
        assert!(secs >= 0.0, "{phase}: {secs}");
    }
    // Checker gauges.
    for gauge in [
        "check.clauses_built",
        "check.resolutions",
        "check.use_count_entries",
        "check.peak_memory_bytes",
    ] {
        let value = doc
            .path("gauges")
            .and_then(|g| g.get(gauge))
            .and_then(|j| j.as_f64())
            .unwrap_or_else(|| panic!("missing gauge {gauge}: {text}"));
        assert!(value > 0.0, "{gauge}: {value}");
    }
    // The check section mirrors CheckStats.
    let check = doc.path("check").expect("check section");
    let built = check.get("clauses_built").and_then(|j| j.as_u64()).unwrap();
    assert!(built > 0);
    let pct = check.get("built_percent").and_then(|j| j.as_f64()).unwrap();
    assert!(pct > 0.0 && pct <= 100.0, "built_percent: {pct}");
    let peak = check
        .get("peak_memory_bytes")
        .and_then(|j| j.as_u64())
        .unwrap();
    assert!(peak > 0);
}

#[test]
fn solve_metrics_and_progress_report_trace_encoding() {
    let dir = tmp_dir("solve-metrics");
    let cnf_path = dir.join("s.cnf");
    let trace_path = dir.join("s.rt");
    let metrics_path = dir.join("s.json");
    let out = bin().args(["gen", "pigeonhole", "5"]).output().unwrap();
    std::fs::write(&cnf_path, out.stdout).unwrap();
    let out = bin()
        .arg("solve")
        .arg(&cnf_path)
        .arg("--trace")
        .arg(&trace_path)
        .arg("--metrics-out")
        .arg(&metrics_path)
        .arg("--progress")
        .env("RESCHECK_LOG", "info")
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(20));

    let text = std::fs::read_to_string(&metrics_path).unwrap();
    let doc = rescheck_obs::json::parse(&text).unwrap();
    for phase in ["parse", "solve", "trace-encode"] {
        assert!(
            doc.path("phases").and_then(|p| p.get(phase)).is_some(),
            "missing phase {phase}: {text}"
        );
    }
    let conflicts = doc
        .path("counters")
        .and_then(|c| c.get("solver.conflicts"))
        .and_then(|j| j.as_u64())
        .unwrap();
    assert!(conflicts > 0);
    let bytes = doc
        .path("gauges")
        .and_then(|g| g.get("trace.bytes_written"))
        .and_then(|j| j.as_f64())
        .unwrap();
    assert_eq!(bytes as u64, std::fs::metadata(&trace_path).unwrap().len());
}

#[test]
fn metrics_go_to_stderr_and_stdout_carries_only_the_verdict() {
    let dir = tmp_dir("metrics-stderr");
    let cnf_path = dir.join("v.cnf");
    let trace_path = dir.join("v.rt");
    let out = bin().args(["gen", "pigeonhole", "4"]).output().unwrap();
    std::fs::write(&cnf_path, out.stdout).unwrap();
    bin()
        .arg("solve")
        .arg(&cnf_path)
        .arg("--trace")
        .arg(&trace_path)
        .status()
        .unwrap();
    let out = bin()
        .arg("check")
        .arg(&cnf_path)
        .arg(&trace_path)
        .arg("--metrics")
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("VALID UNSAT proof"), "{stdout}");
    assert!(
        !stdout.contains('{') && !stdout.contains("schema"),
        "stdout must carry only the verdict, got: {stdout}"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("rescheck-metrics-v2"),
        "metrics document on stderr: {stderr}"
    );
}

#[test]
fn prom_format_renders_text_exposition() {
    let dir = tmp_dir("prom");
    let cnf_path = dir.join("p.cnf");
    let trace_path = dir.join("p.rt");
    let prom_path = dir.join("m.prom");
    let out = bin().args(["gen", "pigeonhole", "4"]).output().unwrap();
    std::fs::write(&cnf_path, out.stdout).unwrap();
    bin()
        .arg("solve")
        .arg(&cnf_path)
        .arg("--trace")
        .arg(&trace_path)
        .status()
        .unwrap();
    let st = bin()
        .arg("check")
        .arg(&cnf_path)
        .arg(&trace_path)
        .arg("--metrics-out")
        .arg(&prom_path)
        .args(["--metrics-format", "prom"])
        .status()
        .unwrap();
    assert_eq!(st.code(), Some(0));
    let text = std::fs::read_to_string(&prom_path).unwrap();
    assert!(text.contains("# TYPE"), "{text}");
    assert!(
        text.contains("rescheck_check_resolve_chain_len_bucket"),
        "{text}"
    );
    // Every non-empty line is a comment or a `name{labels} value` sample.
    for line in text.lines().filter(|l| !l.is_empty()) {
        assert!(
            line.starts_with('#')
                || line
                    .rsplit_once(' ')
                    .is_some_and(|(_, v)| v.parse::<f64>().is_ok()),
            "malformed exposition line: {line}"
        );
    }

    // An unknown format is a usage error.
    let st = bin()
        .arg("check")
        .arg(&cnf_path)
        .arg(&trace_path)
        .args(["--metrics-format", "yaml"])
        .status()
        .unwrap();
    assert_eq!(st.code(), Some(2));
}

#[test]
fn failed_check_dumps_a_flight_recording() {
    let dir = tmp_dir("flight");
    let cnf_path = dir.join("f.cnf");
    let trace_path = dir.join("f.rt");
    std::fs::write(&cnf_path, "p cnf 1 2\n1 0\n-1 0\n").unwrap();
    bin()
        .arg("solve")
        .arg(&cnf_path)
        .arg("--trace")
        .arg(&trace_path)
        .status()
        .unwrap();
    let trace = std::fs::read_to_string(&trace_path).unwrap();
    std::fs::write(&trace_path, trace.replace("f 1", "f 0")).unwrap();

    let out = bin()
        .arg("check")
        .arg(&cnf_path)
        .arg(&trace_path)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let flight_path = dir.join("f.rt.flight.json");
    assert!(
        flight_path.is_file(),
        "default flight dump next to the trace"
    );
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("flight recorder dump written to"),
        "stderr announces the dump"
    );
    let doc = rescheck_obs::json::parse(&std::fs::read_to_string(&flight_path).unwrap()).unwrap();
    assert_eq!(
        doc.path("schema").and_then(|j| j.as_str()),
        Some("rescheck-flight-v1")
    );
    let Some(rescheck_obs::Json::Array(events)) = doc.get("events") else {
        panic!("flight dump has no events array");
    };
    assert!(!events.is_empty(), "flight ring captured the failing check");

    // --flight-out overrides the destination; a valid check dumps nothing.
    let custom = dir.join("custom-flight.json");
    let st = bin()
        .arg("check")
        .arg(&cnf_path)
        .arg(&trace_path)
        .arg("--flight-out")
        .arg(&custom)
        .status()
        .unwrap();
    assert_eq!(st.code(), Some(1));
    assert!(custom.is_file());
}

/// `stats` reports the parallelism the needed proof offers: its
/// derivation resolutions over its span, the most resolutions on one
/// dependency path, on stdout and in the metrics document.
#[test]
fn stats_reports_the_proofs_parallelism() {
    let dir = tmp_dir("stats-parallelism");
    let cnf_path = dir.join("w.cnf");
    let trace_path = dir.join("w.rtb");
    let metrics_path = dir.join("w.json");
    let out = bin().args(["gen", "pigeonhole", "7"]).output().unwrap();
    std::fs::write(&cnf_path, out.stdout).unwrap();
    bin()
        .arg("solve")
        .arg(&cnf_path)
        .arg("--trace")
        .arg(&trace_path)
        .arg("--binary")
        .status()
        .unwrap();
    let out = bin()
        .arg("stats")
        .arg(&cnf_path)
        .arg(&trace_path)
        .arg("--metrics-out")
        .arg(&metrics_path)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout).to_string();
    let text = std::fs::read_to_string(&metrics_path).unwrap();
    let doc = rescheck_obs::json::parse(&text).unwrap();
    let proof = |key: &str| -> f64 {
        doc.path("proof")
            .and_then(|p| p.get(key))
            .and_then(|j| j.as_f64())
            .unwrap_or_else(|| panic!("missing proof.{key}: {text}"))
    };
    let (work, span) = (proof("derivation_resolutions"), proof("span"));
    assert!(0.0 < span && span < work, "span {span}, work {work}");
    assert!((proof("parallelism") - work / span).abs() < 1e-9);
    assert!(
        stdout.contains(&format!("span {span} (parallelism {:.1})", work / span)),
        "{stdout}"
    );
}

#[test]
fn usage_errors_exit_2() {
    let out = bin().arg("frobnicate").output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    let out = bin().args(["check", "only-one-arg"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    let out = bin().args(["gen", "nonsense"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn help_prints_usage() {
    let out = bin().arg("--help").output().unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("USAGE"));
}

#[test]
fn mem_limit_reproduces_memory_out() {
    let dir = tmp_dir("memlimit");
    let cnf_path = dir.join("m.cnf");
    let trace_path = dir.join("m.rt");
    let out = bin().args(["gen", "pigeonhole", "5"]).output().unwrap();
    std::fs::write(&cnf_path, out.stdout).unwrap();
    bin()
        .arg("solve")
        .arg(&cnf_path)
        .arg("--trace")
        .arg(&trace_path)
        .status()
        .unwrap();
    let out = bin()
        .arg("check")
        .arg(&cnf_path)
        .arg(&trace_path)
        .args(["--mem-limit", "64"])
        .output()
        .unwrap();
    // Resource exhaustion exits 3, distinct from a proof defect (1),
    // and the verdict line says the proof was not checked, not that it
    // is invalid.
    assert_eq!(out.status.code(), Some(3));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("memory limit"), "{stdout}");
    assert!(
        stdout.contains("NOT CHECKED (resource-limit): memory limit exceeded"),
        "{stdout}"
    );
    assert!(!stdout.contains("INVALID"), "{stdout}");
}

#[test]
fn check_exit_codes_distinguish_failure_classes() {
    let dir = tmp_dir("exitcodes");
    let cnf_path = dir.join("e.cnf");
    let trace_path = dir.join("e.rt");
    let out = bin().args(["gen", "pigeonhole", "4"]).output().unwrap();
    std::fs::write(&cnf_path, out.stdout).unwrap();
    bin()
        .arg("solve")
        .arg(&cnf_path)
        .arg("--trace")
        .arg(&trace_path)
        .arg("--binary")
        .status()
        .unwrap();

    // 0: valid proof.
    let st = bin()
        .arg("check")
        .arg(&cnf_path)
        .arg(&trace_path)
        .status()
        .unwrap();
    assert_eq!(st.code(), Some(0));

    // 1: proof defect (truncated trace).
    let bytes = std::fs::read(&trace_path).unwrap();
    let cut = dir.join("cut.rt");
    std::fs::write(&cut, &bytes[..bytes.len() / 2]).unwrap();
    let st = bin()
        .arg("check")
        .arg(&cnf_path)
        .arg(&cut)
        .status()
        .unwrap();
    assert_eq!(st.code(), Some(1));

    // 4: missing input file (environmental, not a proof problem).
    let out = bin()
        .arg("check")
        .arg(dir.join("nonexistent.cnf"))
        .arg(&trace_path)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(4));
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot read"));

    // 2: usage error.
    let st = bin().arg("check").arg(&cnf_path).status().unwrap();
    assert_eq!(st.code(), Some(2));
}

#[test]
fn gen_seed_flag_matches_positional_seed() {
    let positional = bin()
        .args(["gen", "random", "8", "30", "7"])
        .output()
        .unwrap();
    assert!(positional.status.success());
    let flagged = bin()
        .args(["gen", "random", "8", "30", "--seed", "7"])
        .output()
        .unwrap();
    assert!(flagged.status.success());
    assert_eq!(positional.stdout, flagged.stdout);

    // The flag wins over a contradictory positional seed.
    let override_out = bin()
        .args(["gen", "random", "8", "30", "999", "--seed", "7"])
        .output()
        .unwrap();
    assert_eq!(override_out.stdout, flagged.stdout);

    // Routing accepts it too; deterministic families reject it.
    let routed = bin()
        .args(["gen", "routing", "3", "2", "--seed", "5"])
        .output()
        .unwrap();
    assert!(routed.status.success());
    let rejected = bin()
        .args(["gen", "parity", "5", "--seed", "5"])
        .output()
        .unwrap();
    assert_eq!(rejected.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&rejected.stderr).contains("--seed only applies"));
}

#[test]
fn fuzz_is_deterministic_and_clean_on_smoke_seed() {
    let run = || {
        bin()
            .args(["fuzz", "--seed", "20030310", "--iters", "15"])
            .output()
            .unwrap()
    };
    let a = run();
    assert_eq!(
        a.status.code(),
        Some(0),
        "smoke campaign found a disagreement:\n{}",
        String::from_utf8_lossy(&a.stdout)
    );
    let b = run();
    assert_eq!(a.stdout, b.stdout, "same seed must replay byte-for-byte");
    let text = String::from_utf8_lossy(&a.stdout);
    assert!(text.contains("findings: 0"));
    assert!(text.contains("digest"));
}

#[test]
fn fuzz_injected_bug_writes_shrunk_repro_and_exits_one() {
    let dir = tmp_dir("fuzz-inject");
    let artifacts = dir.join("artifacts");
    let _ = std::fs::remove_dir_all(&artifacts);
    let out = bin()
        .args(["fuzz", "--seed", "7", "--iters", "50", "--quiet"])
        .args(["--inject", "reject-valid"])
        .arg("--artifacts")
        .arg(&artifacts)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("strategy-disagreement"), "{text}");
    assert!(text.contains("repro written to"), "{text}");
    let case: Vec<_> = std::fs::read_dir(&artifacts)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    assert_eq!(case.len(), 1);
    assert!(case[0].join("input.cnf").is_file());
    assert!(case[0].join("repro.json").is_file());
    let json = std::fs::read_to_string(case[0].join("repro.json")).unwrap();
    assert!(json.contains("rescheck-repro-v1"));
}

/// Runs the binary with `input` piped to stdin and the working
/// directory set to `dir`, returning `(exit-code, stdout, stderr)`.
fn run_with_stdin(dir: &PathBuf, args: &[&str], input: &[u8]) -> (Option<i32>, String, String) {
    use std::io::Write;
    use std::process::Stdio;
    let mut child = bin()
        .args(args)
        .current_dir(dir)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    if let Err(e) = child.stdin.take().unwrap().write_all(input) {
        // A child that refuses its input unread may close the pipe first.
        assert_eq!(e.kind(), std::io::ErrorKind::BrokenPipe, "{e}");
    }
    let out = child.wait_with_output().unwrap();
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).to_string(),
        String::from_utf8_lossy(&out.stderr).to_string(),
    )
}

#[test]
fn check_reads_trace_from_stdin_and_flight_dump_lands_in_cwd() {
    let dir = tmp_dir("stdin-trace");
    let cnf_path = dir.join("u.cnf");
    let trace_path = dir.join("u.rt");
    std::fs::write(&cnf_path, "p cnf 1 2\n1 0\n-1 0\n").unwrap();
    bin()
        .arg("solve")
        .arg(&cnf_path)
        .arg("--trace")
        .arg(&trace_path)
        .status()
        .unwrap();
    let trace = std::fs::read(&trace_path).unwrap();

    // A valid proof piped through `-` checks like the file would.
    let (code, stdout, _) = run_with_stdin(&dir, &["check", "u.cnf", "-"], &trace);
    assert_eq!(code, Some(0), "{stdout}");
    assert!(stdout.contains("VALID UNSAT proof"), "{stdout}");

    // A defective proof on stdin still dumps a flight recording — and
    // the default path falls back to the working directory instead of
    // the nonsensical `-.flight.json`.
    let bad = String::from_utf8(trace).unwrap().replace("f 1", "f 0");
    let (code, stdout, stderr) = run_with_stdin(&dir, &["check", "u.cnf", "-"], bad.as_bytes());
    assert_eq!(code, Some(1), "{stdout}");
    assert!(stdout.contains("INVALID proof"), "{stdout}");
    let flight = dir.join("rescheck.flight.json");
    assert!(flight.is_file(), "flight dump in cwd; stderr: {stderr}");
    assert!(!dir.join("-.flight.json").exists());
    let doc = rescheck_obs::json::parse(&std::fs::read_to_string(&flight).unwrap()).unwrap();
    assert_eq!(
        doc.path("schema").and_then(|j| j.as_str()),
        Some("rescheck-flight-v1")
    );
}

/// A trace path that is a pipe (`/dev/stdin` fed by one) is an input
/// error naming `-`, not a bogus "INVALID proof": the trace is read
/// more than once, and a pipe can be read only once.
#[cfg(unix)]
#[test]
fn piped_trace_paths_are_input_errors_that_point_to_stdin() {
    let dir = tmp_dir("pipe-path");
    let out = bin().args(["gen", "pigeonhole", "3"]).output().unwrap();
    std::fs::write(dir.join("php.cnf"), out.stdout).unwrap();
    for (name, binary) in [("php.rt", false), ("php.rtb", true)] {
        let mut solve = bin();
        solve
            .current_dir(&dir)
            .args(["solve", "php.cnf", "--trace", name]);
        if binary {
            solve.arg("--binary");
        }
        assert_eq!(solve.output().unwrap().status.code(), Some(20));
        let trace = std::fs::read(dir.join(name)).unwrap();
        for strategy in ["df", "bf", "dfd", "hybrid", "portfolio"] {
            let args = ["check", "php.cnf", "/dev/stdin", "--strategy", strategy];
            let (code, stdout, stderr) = run_with_stdin(&dir, &args, &trace);
            assert_eq!(code, Some(4), "{name} {strategy}: {stdout}{stderr}");
            assert!(stderr.contains("not a regular file"), "{stderr}");
            assert!(stderr.contains("pass `-`"), "{stderr}");
        }
        // The same bytes through `-` check fine.
        let (code, stdout, _) = run_with_stdin(&dir, &["check", "php.cnf", "-"], &trace);
        assert_eq!(code, Some(0), "{name}: {stdout}");
    }
}

#[test]
fn serve_stdin_answers_every_frame_and_winds_down_on_shutdown() {
    let dir = tmp_dir("serve-smoke");
    // SAT, UNSAT, proof defect (trace for a different formula), and
    // garbage — four frames, four verdicts, then a summary.
    let sat = r#"{"id":"sat","cnf":"p cnf 1 1\n1 0\n","model":[1]}"#;
    let out = bin().args(["gen", "pigeonhole", "2"]).output().unwrap();
    let cnf = String::from_utf8(out.stdout).unwrap();
    let cnf_path = dir.join("php.cnf");
    let trace_path = dir.join("php.rt");
    std::fs::write(&cnf_path, &cnf).unwrap();
    bin()
        .arg("solve")
        .arg(&cnf_path)
        .arg("--trace")
        .arg(&trace_path)
        .status()
        .unwrap();
    let trace = std::fs::read_to_string(&trace_path).unwrap();
    let escape = |s: &str| {
        s.replace('\\', "\\\\")
            .replace('\n', "\\n")
            .replace('"', "\\\"")
    };
    let unsat = format!(
        r#"{{"id":"unsat","cnf":"{}","trace":"{}"}}"#,
        escape(&cnf),
        escape(&trace)
    );
    // Raw string: `\n` below reaches the daemon as a JSON newline escape.
    let defect = format!(
        r#"{{"id":"defect","cnf":"p cnf 1 2\n1 0\n-1 0\n","trace":"{}"}}"#,
        escape(&trace)
    );
    // Parseable JSON but an invalid job (no claim evidence), so the
    // malformed verdict can echo the id back.
    let garbage = r#"{"id":"oops","cnf":"p cnf 1 1\n1 0\n"}"#;
    let input = format!("{sat}\n{unsat}\n{defect}\n{garbage}\n{{\"op\":\"shutdown\"}}\n");

    let (code, stdout, stderr) =
        run_with_stdin(&dir, &["serve", "--stdin", "--jobs", "2"], input.as_bytes());
    assert_eq!(code, Some(0), "stdout: {stdout}\nstderr: {stderr}");

    let frames: Vec<rescheck_obs::Json> = stdout
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| rescheck_obs::json::parse(l).unwrap_or_else(|e| panic!("{e}: {l}")))
        .collect();
    let status_for = |id: &str| -> String {
        frames
            .iter()
            .find(|f| f.get("id").and_then(|j| j.as_str()) == Some(id))
            .unwrap_or_else(|| panic!("no verdict for {id}: {stdout}"))
            .get("status")
            .and_then(|j| j.as_str())
            .unwrap()
            .to_string()
    };
    assert_eq!(status_for("sat"), "valid");
    assert_eq!(status_for("unsat"), "valid");
    assert_eq!(status_for("defect"), "proof-defect");
    assert_eq!(status_for("oops"), "malformed");

    let summary = frames
        .iter()
        .find(|f| f.get("rescheck").and_then(|j| j.as_str()) == Some("rescheck-serve-summary-v1"))
        .unwrap_or_else(|| panic!("no summary frame: {stdout}"));
    assert_eq!(
        summary.get("jobs_submitted").and_then(|j| j.as_u64()),
        Some(3)
    );
    assert_eq!(
        summary.get("jobs_completed").and_then(|j| j.as_u64()),
        Some(3)
    );
    assert_eq!(
        summary.get("frames_malformed").and_then(|j| j.as_u64()),
        Some(1)
    );
    assert!(stderr.contains("wound down cleanly"), "{stderr}");
}

/// A DIMACS header's variable count is a claim, not a size: a
/// two-clause formula declaring 99,999,999,999 variables checks under
/// every strategy (the core counts the variables its clauses use) and
/// as a DRAT or LRAT claim (the ingester sizes its tables by the
/// variables read), `solve` decides it and its satisfiable twin (the
/// solver's variables are those the clauses mention), and the daemon
/// answers both claims, a model naming a variable no clause mentions
/// included, and the jobs around them.
#[test]
fn a_huge_declared_variable_count_is_checked_not_allocated() {
    let dir = tmp_dir("huge-header");
    std::fs::write(dir.join("big.cnf"), "p cnf 99999999999 2\n1 0\n-1 0\n").unwrap();
    std::fs::write(dir.join("bigsat.cnf"), "p cnf 99999999999 1\n1 0\n").unwrap();
    std::fs::write(dir.join("big.rt"), "v 1 0\nf 1\n").unwrap();
    std::fs::write(dir.join("big.drat"), "0\n").unwrap();
    std::fs::write(dir.join("big.lrat"), "3 0 1 2 0\n").unwrap();
    for format in ["drat", "lrat"] {
        let out = bin()
            .current_dir(&dir)
            .args(["check", "big.cnf", &format!("big.{format}")])
            .args(["--proof-format", format])
            .output()
            .unwrap();
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(out.status.code(), Some(0), "{format}: {stdout}");
        assert!(
            stdout.starts_with("VALID UNSAT proof"),
            "{format}: {stdout}"
        );
    }
    for strategy in ["df", "bf", "dfd", "hybrid", "portfolio"] {
        let out = bin()
            .current_dir(&dir)
            .args(["check", "big.cnf", "big.rt", "--strategy", strategy])
            .output()
            .unwrap();
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(out.status.code(), Some(0), "{strategy}: {stdout}");
        assert!(
            stdout.starts_with("VALID UNSAT proof"),
            "{strategy}: {stdout}"
        );
        if strategy != "bf" {
            assert!(
                stdout.contains("unsat core: 2 of 2 clauses, 1 variables"),
                "{strategy}: {stdout}"
            );
        }
    }

    for (cnf, code, answer) in [
        ("big.cnf", 20, "s UNSATISFIABLE"),
        ("bigsat.cnf", 10, "s SATISFIABLE\nv 1 0"),
    ] {
        let out = bin()
            .current_dir(&dir)
            .args(["solve", cnf])
            .output()
            .unwrap();
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(out.status.code(), Some(code), "{cnf}: {out:?}");
        assert!(stdout.contains(answer), "{cnf}: {stdout}");
    }

    let input = [
        r#"{"id":"before","cnf":"p cnf 1 1\n1 0\n","model":[1]}"#,
        r#"{"id":"big-sat","cnf_path":"bigsat.cnf","model":[1]}"#,
        r#"{"id":"big-sat-far","cnf_path":"bigsat.cnf","model":[1,-99999999999]}"#,
        r#"{"id":"big","cnf_path":"big.cnf","trace_path":"big.rt","strategy":"df"}"#,
        r#"{"id":"big-drat","cnf_path":"big.cnf","trace_path":"big.drat","proof_format":"drat"}"#,
        r#"{"id":"big-lrat","cnf_path":"big.cnf","trace_path":"big.lrat","proof_format":"lrat"}"#,
        r#"{"id":"after","cnf":"p cnf 1 2\n1 0\n-1 0\n","trace":"v 1 0\nf 1\n"}"#,
        r#"{"op":"shutdown"}"#,
    ]
    .join("\n");
    let (code, stdout, stderr) =
        run_with_stdin(&dir, &["serve", "--stdin", "--jobs", "1"], input.as_bytes());
    assert_eq!(code, Some(0), "stdout: {stdout}\nstderr: {stderr}");
    let frames: Vec<rescheck_obs::Json> = stdout
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| rescheck_obs::json::parse(l).unwrap())
        .collect();
    for id in [
        "before",
        "big-sat",
        "big-sat-far",
        "big",
        "big-drat",
        "big-lrat",
        "after",
    ] {
        let frame = frames
            .iter()
            .find(|f| f.get("id").and_then(|j| j.as_str()) == Some(id))
            .unwrap_or_else(|| panic!("no verdict for {id}: {stdout}"));
        assert_eq!(frame.get("status").and_then(|j| j.as_str()), Some("valid"));
    }
    let big = frames
        .iter()
        .find(|f| f.get("id").and_then(|j| j.as_str()) == Some("big"))
        .unwrap();
    assert_eq!(big.get("core_clauses").and_then(|j| j.as_u64()), Some(2));
}

#[test]
fn fuzz_metrics_document_counts_iterations() {
    let dir = tmp_dir("fuzz-metrics");
    let metrics = dir.join("fuzz.json");
    let st = bin()
        .args(["fuzz", "--seed", "3", "--iters", "8", "--quiet"])
        .arg("--metrics-out")
        .arg(&metrics)
        .status()
        .unwrap();
    assert_eq!(st.code(), Some(0));
    let doc = std::fs::read_to_string(&metrics).unwrap();
    assert!(doc.contains("rescheck-metrics-v2"));
    assert!(doc.contains("fuzz.iterations"));
    assert!(doc.contains("fuzz.mutants_tested"));
}

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

#[test]
fn export_lrat_and_recheck_agrees_with_native() {
    let dir = tmp_dir("export-lrat");
    let cnf_path = dir.join("php.cnf");
    let trace_path = dir.join("php.rt");
    let lrat_text = dir.join("php.lrat");
    let lrat_binary = dir.join("php.lratb");

    let out = bin().args(["gen", "pigeonhole", "4"]).output().unwrap();
    std::fs::write(&cnf_path, out.stdout).unwrap();
    let st = bin()
        .arg("solve")
        .arg(&cnf_path)
        .arg("--trace")
        .arg(&trace_path)
        .status()
        .unwrap();
    assert_eq!(st.code(), Some(20));

    // Text and binary export both succeed; binary is smaller.
    for (path, extra) in [(&lrat_text, None), (&lrat_binary, Some("--binary"))] {
        let mut cmd = bin();
        cmd.arg("export")
            .arg(&cnf_path)
            .arg(&trace_path)
            .arg("--out")
            .arg(path);
        if let Some(flag) = extra {
            cmd.arg(flag);
        }
        let out = cmd.output().unwrap();
        assert_eq!(out.status.code(), Some(0), "{out:?}");
        assert!(String::from_utf8_lossy(&out.stdout).contains("export:"));
    }
    let text_len = std::fs::metadata(&lrat_text).unwrap().len();
    let binary_len = std::fs::metadata(&lrat_binary).unwrap().len();
    assert!(
        binary_len < text_len,
        "binary {binary_len} < text {text_len}"
    );

    // Both encodings re-ingest and validate under every strategy the
    // native trace validates under.
    for proof in [&lrat_text, &lrat_binary] {
        for strategy in ["df", "bf"] {
            let out = bin()
                .arg("check")
                .arg(&cnf_path)
                .arg(proof)
                .args(["--proof-format", "lrat", "--strategy", strategy])
                .output()
                .unwrap();
            assert_eq!(out.status.code(), Some(0), "{strategy}: {out:?}");
            let text = String::from_utf8_lossy(&out.stdout).to_string();
            assert!(text.contains("VALID UNSAT proof"), "{text}");
            assert!(text.contains("ingest:"), "{text}");
        }
    }
}

#[test]
fn drat_fixture_checks_and_missing_deletion_is_a_warning() {
    let out = bin()
        .arg("check")
        .arg(fixture("interop.cnf"))
        .arg(fixture("interop.drat"))
        .args(["--proof-format", "drat"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(text.contains("VALID UNSAT proof"), "{text}");
    // The deletion of a never-added clause is warned in the stats, not
    // treated as a defect.
    assert!(text.contains("(1 missing"), "{text}");
}

/// The numbers of an `ingest:` stat line, in order.
fn stat_line_numbers(line: &str) -> Vec<u64> {
    line.split(|c: char| !c.is_ascii_digit())
        .filter(|t| !t.is_empty())
        .map(|t| t.parse().unwrap())
        .collect()
}

#[test]
fn proof_format_metrics_report_the_ingest_layer() {
    let dir = tmp_dir("proof-metrics");
    let cnf_path = dir.join("php.cnf");
    let trace_path = dir.join("php.rt");
    let out = bin().args(["gen", "pigeonhole", "5"]).output().unwrap();
    std::fs::write(&cnf_path, out.stdout).unwrap();
    let st = bin()
        .arg("solve")
        .arg(&cnf_path)
        .arg("--trace")
        .arg(&trace_path)
        .status()
        .unwrap();
    assert_eq!(st.code(), Some(20));
    let out = bin()
        .arg("export")
        .arg(&cnf_path)
        .arg(&trace_path)
        .arg("--out")
        .arg(dir.join("php.lrat"))
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    // The DRAT twin: the additions without ids or hints.
    let lrat = std::fs::read_to_string(dir.join("php.lrat")).unwrap();
    let drat: String = lrat
        .lines()
        .filter(|l| l.split_whitespace().nth(1) != Some("d"))
        .map(|l| {
            let lits: Vec<&str> = l
                .split_whitespace()
                .skip(1)
                .take_while(|&t| t != "0")
                .collect();
            format!("{} 0\n", lits.join(" "))
        })
        .collect();
    std::fs::write(dir.join("php.drat"), drat).unwrap();

    for format in ["drat", "lrat"] {
        let metrics = dir.join(format!("{format}.json"));
        let out = bin()
            .arg("check")
            .arg(&cnf_path)
            .arg(dir.join(format!("php.{format}")))
            .args(["--proof-format", format, "--metrics-out"])
            .arg(&metrics)
            .output()
            .unwrap();
        let stdout = String::from_utf8_lossy(&out.stdout).to_string();
        assert_eq!(out.status.code(), Some(0), "{format}: {stdout}");
        let text = std::fs::read_to_string(&metrics).unwrap();
        let doc = rescheck_obs::json::parse(&text).unwrap();

        // check > parse > ingest.
        let Some(rescheck_obs::Json::Array(roots)) = doc.path("spans") else {
            panic!("no spans: {text}");
        };
        let child = |span: &rescheck_obs::Json, name: &str| {
            let Some(rescheck_obs::Json::Array(children)) = span.get("children") else {
                panic!("{name}: no children: {text}");
            };
            children
                .iter()
                .find(|s| s.get("name").and_then(|j| j.as_str()) == Some(name))
                .cloned()
                .unwrap_or_else(|| panic!("no {name} span: {text}"))
        };
        let root = roots
            .iter()
            .find(|s| s.get("name").and_then(|j| j.as_str()) == Some("check"))
            .expect("root check span");
        child(&child(root, "parse"), "ingest");

        // Every stat-line number is its gauge, in field order, and the
        // propagation count is there too.
        let line = stdout
            .lines()
            .find(|l| l.starts_with("ingest:"))
            .expect("ingest stat line");
        let gauge = |name: &str| {
            doc.path("gauges")
                .and_then(|g| g.get(name))
                .and_then(|j| j.as_f64())
                .unwrap_or_else(|| panic!("no gauge {name}: {text}")) as u64
        };
        let fields = [
            "additions",
            "rup_steps",
            "rat_steps",
            "aliased",
            "tautologies",
            "deletions",
            "missing_deletions",
            "locked_deletions",
            "level_zero",
        ];
        let gauges: Vec<u64> = fields
            .iter()
            .map(|f| gauge(&format!("ingest.{f}")))
            .collect();
        assert_eq!(gauges, stat_line_numbers(line), "{format}: {line}");
        assert!(gauge("ingest.propagations") > 0, "{format}");
        gauge("ingest.steps_after_empty");
    }
}

#[test]
fn proof_format_exit_codes_distinguish_defect_from_input_error() {
    let dir = tmp_dir("proof-exit-codes");

    // A well-formed proof that never derives the empty clause is a
    // proof defect: exit 1.
    let out = bin()
        .arg("check")
        .arg(fixture("interop.cnf"))
        .arg(fixture("interop-stall.drat"))
        .args(["--proof-format", "drat"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("INVALID proof"));

    // Unparseable bytes are an input error: exit 4, message on stderr.
    let garbage = dir.join("garbage.drat");
    std::fs::write(&garbage, "this is not a proof\n").unwrap();
    for format in ["drat", "lrat"] {
        let out = bin()
            .arg("check")
            .arg(fixture("interop.cnf"))
            .arg(&garbage)
            .args(["--proof-format", format])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(4), "{format}: {out:?}");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("error:"),
            "{format}"
        );
    }

    // A missing proof file is also an input error: exit 4.
    let out = bin()
        .arg("check")
        .arg(fixture("interop.cnf"))
        .arg(dir.join("does-not-exist.drat"))
        .args(["--proof-format", "drat"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(4), "{out:?}");
}

#[test]
fn exported_proof_pipes_through_stdin_check() {
    let dir = tmp_dir("proof-stdin");
    let cnf_path = dir.join("par.cnf");
    let trace_path = dir.join("par.rt");
    let out = bin().args(["gen", "parity", "5"]).output().unwrap();
    std::fs::write(&cnf_path, out.stdout).unwrap();
    let st = bin()
        .arg("solve")
        .arg(&cnf_path)
        .arg("--trace")
        .arg(&trace_path)
        .status()
        .unwrap();
    assert_eq!(st.code(), Some(20));

    // Export binary LRAT to stdout, feed it back through `check -`.
    let out = bin()
        .arg("export")
        .arg(&cnf_path)
        .arg(&trace_path)
        .arg("--binary")
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0));
    let proof = out.stdout;
    assert!(!proof.is_empty());
    let cnf_str = cnf_path.to_str().unwrap().to_string();
    let (code, stdout, _) = run_with_stdin(
        &dir,
        &["check", &cnf_str, "-", "--proof-format", "lrat"],
        &proof,
    );
    assert_eq!(code, Some(0), "{stdout}");
    assert!(stdout.contains("VALID UNSAT proof"), "{stdout}");
}
