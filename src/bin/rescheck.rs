//! `rescheck` — command-line front end for solving, checking and core
//! extraction on DIMACS CNF files.
//!
//! ```text
//! rescheck solve <file.cnf> [--trace <out>] [--binary] [--no-learning]
//!                [--no-deletion] [--no-restarts]
//! rescheck check <file.cnf> <trace> [--strategy df|bf|dfd|hybrid|portfolio]
//!                [--mem-limit <bytes>] [--proof-format native|drat|drup|lrat]
//! rescheck export <file.cnf> <trace> [--out <proof.lrat>] [--binary]
//! rescheck core  <file.cnf> [--iterations <n>] [--out <core.cnf>]
//! rescheck gen   <family> [args…]        # writes DIMACS to stdout
//! rescheck serve [--stdin | --listen <addr>] [--jobs <n>]  # daemon mode
//! ```
//!
//! Every command (except `gen`) accepts `--metrics` (print a
//! `rescheck-metrics-v2` document to stderr), `--metrics-out <path>`
//! (write it to a file instead), `--metrics-format json|prom`, and
//! `--progress` to stream heartbeat lines to stderr (filtered by the
//! `RESCHECK_LOG` environment variable). `check` additionally keeps a
//! flight recorder of recent events and dumps it next to the trace
//! whenever the proof is rejected. Stdout carries only the verdict.

use rescheck::prelude::*;
use rescheck::workloads;
use rescheck_bench::report;
use rescheck_obs::{
    metrics_document, Event, FlightRecorder, Json, LogConfig, MetricsSink, Observer, Phase,
    ProgressReporter, Span,
};
use std::io::Write;
use std::path::Path;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("solve") => cmd_solve(&args[1..]),
        Some("check") => cmd_check(&args[1..]),
        Some("export") => cmd_export(&args[1..]),
        Some("core") => cmd_core(&args[1..]),
        Some("trim") => cmd_trim(&args[1..]),
        Some("stats") => cmd_stats(&args[1..]),
        Some("gen") => cmd_gen(&args[1..]),
        Some("fuzz") => cmd_fuzz(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("--help" | "-h" | "help") | None => {
            eprint!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Some(other) => Err(format!("unknown command {other:?}\n{USAGE}").into()),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            // A closed stdout (e.g. piping into `head`) is not an error.
            if let Some(io) = e.downcast_ref::<std::io::Error>() {
                if io.kind() == std::io::ErrorKind::BrokenPipe {
                    return ExitCode::SUCCESS;
                }
            }
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

const USAGE: &str = "\
rescheck — validate SAT solver results with a resolution-based checker

USAGE:
  rescheck solve <file.cnf> [--trace <out>] [--binary]
                 [--no-learning] [--no-deletion] [--no-restarts]
  rescheck check <file.cnf> <trace> [--strategy df|bf|dfd|hybrid|portfolio]
                 [--mem-limit <bytes>]
                 (a native <trace> must be a regular file: it is read
                 more than once; pass `-` to read the trace from stdin
                 instead, ASCII or binary, sniffed by magic)
                 (dfd is depth-first with the trace left on disk — same
                 verdict, core and resolution stats as df under a far
                 smaller memory budget, reading each needed clause's
                 record once; hybrid is the same walk, freeing each
                 clause after its last needed use; portfolio runs dfd
                 and, only if it runs out of memory, bf; pdag, pbf and
                 their long forms name retired parallel engines and run
                 bf)
                 (no strategy copies a trace file into memory: each
                 reads it from disk, so its stat line is the same for
                 an ASCII file, a binary file and stdin)
                 [--proof-format native|drat|drup|lrat]
                 (native is the resolve-trace format above; drat/drup and
                 lrat ingest a clausal proof instead, re-deriving a
                 resolution trace by unit propagation / hint replay and
                 then checking it with the chosen strategy. A proof whose
                 RAT steps have no resolution derivation is verified by
                 the ingestion itself and reported as such. Deleting a
                 clause that is not in the database is a warning, not an
                 error — the drat-trim convention.)
  rescheck export <file.cnf> <trace> [--out <proof.lrat>] [--binary]
                 (converts a resolve trace to LRAT: antecedent chains
                 become RUP hint lines, spent clauses get deletion lines;
                 --binary emits the binary LRAT encoding; without --out
                 the proof goes to stdout and the summary to stderr)
  rescheck core  <file.cnf> [--iterations <n>] [--out <core.cnf>]
  rescheck trim  <file.cnf> <trace> --out <trimmed> [--binary]
  rescheck stats <file.cnf> <trace>
                 (the needed proof's shape: depth, derivation resolutions
                 and their span — the most on one dependency path — whose
                 ratio is the parallelism the proof offers)
  rescheck gen   <family> [args…] [--seed <s>]
                 (families: pigeonhole <holes>,
                 parity <n>, adder <width>, longmult <width>,
                 barrel <positions> <bound>, routing <tracks> <easy> [seed],
                 planning <path> <horizon>, pipe <width> <depth>,
                 atpg <width> <redundancy>, random <vars> <clauses> [seed];
                 --seed overrides the positional seed of the randomized
                 families and is rejected by the deterministic ones)
  rescheck fuzz  --seed <s> --iters <n> [--max-vars <v>] [--mutants <m>]
                 [--conflict-limit <c>] [--shrink-budget <b>]
                 [--max-findings <k>] [--artifacts <dir>] [--quiet]
                 [--inject reject-valid|accept-mutants]
                 (deterministic differential fuzzing: every iteration
                 solves a seeded random instance, cross-validates all five
                 check strategies, verifies SAT models, and feeds
                 corrupted traces to the checker; disagreements are
                 delta-debugged to a minimal repro under --artifacts.
                 Same seed ⇒ byte-identical campaign, log and repros.)
  rescheck serve [--stdin | --listen <addr>] [--jobs <n>]
                 [--queue-depth <d>] [--mem-total <bytes>]
                 [--timeout-ms <t>] [--max-frame-bytes <b>]
                 (persistent validation daemon: newline-delimited JSON job
                 frames in — {\"id\":…,\"cnf\":…,\"trace\":…,\"strategy\":…} —
                 one verdict frame per job out, each embedding a
                 rescheck-metrics-v2 document. A full queue sheds new jobs
                 with status \"busy\"; a worker panic costs that job an
                 \"internal-error\" verdict and the worker is respawned —
                 the daemon never dies. --mem-total is leased out across
                 concurrent jobs; per-job deadlines verdict as \"timeout\".
                 {\"op\":\"shutdown\"} or stdin EOF winds down with a
                 summary frame. Default front end is --stdin.)

Observability (solve, check, core, trim, stats, fuzz):
  --metrics              print the metrics document to stderr (stdout
                         stays reserved for the verdict)
  --metrics-out <path>   write the metrics document to a file instead
  --metrics-format <f>   json (default): rescheck-metrics-v2 with phase
                         timers, counters, gauges, log-bucketed
                         histograms (check.resolve.*) and the
                         hierarchical span tree;
                         prom: Prometheus text exposition of the
                         counters, gauges, phases and histograms
  --flight-out <path>    (check only) where to dump the flight recorder
                         on failure; default <trace>.flight.json. The
                         dump is a rescheck-flight-v1 ring of the most
                         recent events leading up to the rejection.
  --progress             stream heartbeat lines to stderr; tune with
                         RESCHECK_LOG=level[,heartbeat-conflicts=N]
                         [,heartbeat-events=M][,interval-ms=T]

Exit codes: solve → 10 SAT / 20 UNSAT (competition convention);
check → 0 valid proof, 1 proof defect, 3 resource limit exceeded,
4 input I/O error;
export → 0 success, 1 defective trace, 4 input I/O error;
fuzz → 0 clean campaign, 1 disagreements found;
core → 0 on success, 1 on an invalid proof; all → 2 on usage errors.
";

type CliResult = Result<ExitCode, Box<dyn std::error::Error>>;

fn take_flag(args: &mut Vec<String>, flag: &str) -> bool {
    if let Some(pos) = args.iter().position(|a| a == flag) {
        args.remove(pos);
        true
    } else {
        false
    }
}

fn take_opt(args: &mut Vec<String>, flag: &str) -> Result<Option<String>, String> {
    if let Some(pos) = args.iter().position(|a| a == flag) {
        if pos + 1 >= args.len() {
            return Err(format!("{flag} needs a value"));
        }
        args.remove(pos);
        Ok(Some(args.remove(pos)))
    } else {
        Ok(None)
    }
}

/// How the metrics document is rendered.
enum MetricsFormat {
    Json,
    Prom,
}

/// Per-command observability: a metrics registry that always accumulates
/// (it is cheap), an optional stderr progress reporter, and — for
/// `check` — a flight recorder ring of the most recent events.
struct CliObserver {
    metrics: MetricsSink,
    progress: Option<ProgressReporter<std::io::Stderr>>,
    metrics_out: Option<String>,
    metrics_stderr: bool,
    format: MetricsFormat,
    flight: Option<FlightRecorder>,
}

impl CliObserver {
    /// Extracts `--metrics`, `--metrics-out <path>`,
    /// `--metrics-format json|prom` and `--progress` from the argument
    /// list and builds the corresponding observer.
    fn from_args(args: &mut Vec<String>) -> Result<Self, String> {
        let metrics_out = take_opt(args, "--metrics-out")?;
        let metrics_stderr = take_flag(args, "--metrics");
        let format = match take_opt(args, "--metrics-format")?.as_deref() {
            None | Some("json") => MetricsFormat::Json,
            Some("prom") => MetricsFormat::Prom,
            Some(other) => return Err(format!("unknown --metrics-format {other:?} (json|prom)")),
        };
        let progress =
            take_flag(args, "--progress").then(|| ProgressReporter::stderr(LogConfig::from_env()));
        Ok(CliObserver {
            metrics: MetricsSink::new(),
            progress,
            metrics_out,
            metrics_stderr,
            format,
            flight: None,
        })
    }

    /// Writes the metrics document if `--metrics` or `--metrics-out` was
    /// given — to the file, or to stderr so stdout stays reserved for
    /// the verdict. `extend` adds command-specific sections to the JSON
    /// skeleton (the Prometheus rendition carries the registry only).
    fn write_metrics(
        &self,
        command: &str,
        extend: impl FnOnce(&mut Json),
    ) -> Result<(), Box<dyn std::error::Error>> {
        if self.metrics_out.is_none() && !self.metrics_stderr {
            return Ok(());
        }
        let rendered = match self.format {
            MetricsFormat::Prom => rescheck_obs::prom::render(self.metrics.registry()),
            MetricsFormat::Json => {
                let mut doc = metrics_document(command, self.metrics.registry());
                extend(&mut doc);
                let mut text = doc.to_pretty_string();
                text.push('\n');
                text
            }
        };
        if let Some(path) = &self.metrics_out {
            std::fs::write(Path::new(path), rendered.as_bytes())?;
            eprintln!("c metrics written to {path}");
        } else {
            eprint!("{rendered}");
        }
        Ok(())
    }

    /// Dumps the flight recorder (if one is attached) to `path`,
    /// best-effort. The default path derives from the trace argument,
    /// which may live in a read-only directory; in that case the dump
    /// falls back to the current directory instead of erroring — a lost
    /// dump must never mask the verdict's exit code.
    fn dump_flight(&self, path: &str) {
        let Some(flight) = &self.flight else {
            return;
        };
        let mut text = flight.to_json().to_pretty_string();
        text.push('\n');
        let first = match std::fs::write(Path::new(path), text.as_bytes()) {
            Ok(()) => {
                eprintln!("c flight recorder dump written to {path}");
                return;
            }
            Err(e) => e,
        };
        let fallback = Path::new(path)
            .file_name()
            .map(|name| name.to_string_lossy().into_owned())
            .unwrap_or_else(|| "rescheck.flight.json".to_string());
        if fallback == path {
            eprintln!("c flight recorder dump lost: {path}: {first}");
            return;
        }
        match std::fs::write(Path::new(&fallback), text.as_bytes()) {
            Ok(()) => eprintln!(
                "c flight recorder dump written to ./{fallback} ({path} unwritable: {first})"
            ),
            Err(second) => {
                eprintln!("c flight recorder dump lost: {path}: {first}; ./{fallback}: {second}")
            }
        }
    }
}

impl Observer for CliObserver {
    fn observe(&mut self, event: &Event<'_>) {
        self.metrics.observe(event);
        if let Some(flight) = &mut self.flight {
            flight.observe(event);
        }
        if let Some(progress) = &mut self.progress {
            progress.observe(event);
        }
    }
}

/// Writes `events` to `path`, returning `(bytes, events)` written.
fn encode_trace_file(
    path: &str,
    binary: bool,
    events: &[rescheck::trace::TraceEvent],
) -> std::io::Result<(u64, u64)> {
    let file = std::io::BufWriter::new(std::fs::File::create(path)?);
    if binary {
        let mut sink = BinaryWriter::new(file)?;
        for e in events {
            sink.event(e)?;
        }
        sink.flush()?;
        Ok((sink.bytes_written(), sink.events_written()))
    } else {
        let mut sink = AsciiWriter::new(file);
        for e in events {
            sink.event(e)?;
        }
        sink.flush()?;
        Ok((sink.bytes_written(), sink.events_written()))
    }
}

fn cmd_solve(rest: &[String]) -> CliResult {
    let mut args = rest.to_vec();
    let mut obs = CliObserver::from_args(&mut args)?;
    let trace_path = take_opt(&mut args, "--trace")?;
    let binary = take_flag(&mut args, "--binary");
    let mut cfg = SolverConfig::default();
    if take_flag(&mut args, "--no-learning") {
        cfg.learning = false;
    }
    if take_flag(&mut args, "--no-deletion") {
        cfg.clause_deletion = false;
    }
    if take_flag(&mut args, "--no-restarts") {
        cfg.restarts = false;
    }
    let [path] = args.as_slice() else {
        return Err("solve needs exactly one CNF file".into());
    };
    let mut root = Span::start("solve", &mut obs);
    let parse = Phase::start("parse", &mut obs);
    let cnf = dimacs::read_file(path)?;
    parse.finish(&mut obs);
    let mut solver = Solver::from_cnf(&cnf, cfg);

    // With `--trace` the events are collected in memory and encoded in a
    // separate phase, so the solve and trace-encode timers stay distinct
    // (mirroring the paper's Table 1 methodology).
    let solve_phase = Phase::start("solve", &mut obs);
    let (result, events) = match &trace_path {
        Some(_) => {
            let mut sink = MemorySink::new();
            let result = solver.solve_observed(&mut sink, &mut obs)?;
            (result, Some(sink.into_events()))
        }
        None => {
            let mut sink = rescheck::trace::NullSink::new();
            (solver.solve_observed(&mut sink, &mut obs)?, None)
        }
    };
    solve_phase.finish(&mut obs);
    report::flush_solver_stats(obs.metrics.registry_mut(), solver.stats());

    if let (Some(out), Some(events)) = (&trace_path, &events) {
        let encode = Phase::start("trace-encode", &mut obs);
        let (bytes, count) = encode_trace_file(out, binary, events)?;
        encode.finish(&mut obs);
        obs.observe(&Event::GaugeSet {
            name: "trace.bytes_written",
            value: bytes as f64,
        });
        obs.observe(&Event::GaugeSet {
            name: "trace.events_written",
            value: count as f64,
        });
    }

    eprintln!("c {}", solver.stats());
    let (answer, code) = match &result {
        SolveResult::Satisfiable(_) => ("SATISFIABLE", ExitCode::from(10)),
        SolveResult::Unsatisfiable => ("UNSATISFIABLE", ExitCode::from(20)),
        SolveResult::Unknown => ("UNKNOWN", ExitCode::SUCCESS),
    };
    root.stop(&mut obs);
    obs.write_metrics("solve", |doc| {
        doc.set("result", answer)
            .set("solver", report::solver_stats_json(solver.stats()));
    })?;
    match result {
        SolveResult::Satisfiable(model) => {
            println!("s SATISFIABLE");
            let mut line = String::from("v");
            for (var, value) in model.iter() {
                if let Some(b) = value.to_bool() {
                    let d = var.to_dimacs() as i64;
                    line.push_str(&format!(" {}", if b { d } else { -d }));
                }
            }
            println!("{line} 0");
        }
        SolveResult::Unsatisfiable => {
            println!("s UNSATISFIABLE");
            if let Some(out) = trace_path {
                eprintln!("c resolve trace written to {out}");
            }
        }
        SolveResult::Unknown => println!("s UNKNOWN"),
    }
    Ok(code)
}

fn cmd_check(rest: &[String]) -> CliResult {
    use rescheck::checker::{check_stats_json, check_unsat_claim_observed};
    let mut args = rest.to_vec();
    let mut obs = CliObserver::from_args(&mut args)?;
    let strategy = match take_opt(&mut args, "--strategy")? {
        None => Strategy::DepthFirst,
        Some(name) => rescheck_serve::protocol::parse_strategy(&name)
            .ok_or_else(|| format!("unknown strategy {name:?} (df|bf|dfd|hybrid|portfolio)"))?,
    };
    let memory_limit = take_opt(&mut args, "--mem-limit")?
        .map(|s| s.parse::<u64>())
        .transpose()?;
    let flight_out = take_opt(&mut args, "--flight-out")?;
    let proof_format = match take_opt(&mut args, "--proof-format")?.as_deref() {
        None | Some("native") => None,
        Some(name) => match rescheck::interop::ProofFormat::from_name(name) {
            Some(format) => Some(format),
            None => {
                return Err(format!("unknown proof format {name:?} (native|drat|drup|lrat)").into())
            }
        },
    };
    let [cnf_path, trace_path] = args.as_slice() else {
        return Err("check needs a CNF file and a trace file".into());
    };
    // Checker events are low-rate, so the flight recorder is always on:
    // a rejected proof dumps the events leading up to the defect.
    obs.flight = Some(FlightRecorder::new());
    // Environmental failures (missing/unreadable inputs) exit with 4 so
    // scripts can tell "the proof is bad" from "the file never arrived".
    let open_failed = |what: &str, e: &dyn std::fmt::Display| -> ExitCode {
        eprintln!("error: cannot read {what}: {e}");
        ExitCode::from(4)
    };
    let mut root = Span::start("check", &mut obs);
    let parse = Phase::start("parse", &mut obs);
    let cnf = match dimacs::read_file(cnf_path) {
        Ok(cnf) => cnf,
        Err(e) => return Ok(open_failed(cnf_path, &e)),
    };
    // `-` reads the trace from stdin (format sniffed by magic); anything
    // else is a file consulted in place, by random access where the
    // strategy wants it.
    enum TraceInput {
        File(FileTrace),
        Stdin(MemorySink),
    }
    let mut ingest_stats = None;
    let trace = if let Some(format) = proof_format {
        use rescheck::interop::InteropErrorKind;
        // Clausal proofs (DRAT/LRAT) have no random-access story: read
        // the whole proof, synthesize a resolve trace, check that.
        let bytes = if trace_path == "-" {
            use std::io::Read;
            let mut bytes = Vec::new();
            if let Err(e) = std::io::stdin().lock().read_to_end(&mut bytes) {
                return Ok(open_failed("stdin", &e));
            }
            bytes
        } else {
            match std::fs::read(trace_path) {
                Ok(bytes) => bytes,
                Err(e) => return Ok(open_failed(trace_path, &e)),
            }
        };
        obs.observe(&Event::GaugeSet {
            name: "io.trace.bytes",
            value: bytes.len() as f64,
        });
        // The proof's parse plus its BCP or hint replay: its own span,
        // so a slow proof check shows which layer took the time.
        let mut ingest = Span::start("ingest", &mut obs);
        let ingested = rescheck::interop::ingest_bytes(&cnf, &bytes, format);
        ingest.stop(&mut obs);
        match ingested {
            Ok(report) => {
                for (name, value) in report.stats.gauges() {
                    obs.observe(&Event::GaugeSet {
                        name,
                        value: value as f64,
                    });
                }
                if !report.resolution_checkable() {
                    // RAT steps have no resolution derivation, so there
                    // is no trace to hand the strategies: the ingestion
                    // engine's own forward verification is the verdict.
                    parse.finish(&mut obs);
                    root.stop(&mut obs);
                    println!("VALID UNSAT proof (verified by {format} ingestion)");
                    println!(
                        "note: {} RAT step(s) have no resolution derivation; \
                         the synthesized trace was not re-checked",
                        report.stats.rat_steps
                    );
                    println!("{}", report.stats);
                    obs.write_metrics("check", |doc| {
                        doc.set("proof_format", format.to_string().as_str())
                            .set("rat_steps", report.stats.rat_steps);
                    })?;
                    return Ok(ExitCode::SUCCESS);
                }
                ingest_stats = Some(report.stats);
                TraceInput::Stdin(MemorySink::from(report.events))
            }
            Err(e) => {
                return Ok(match e.kind {
                    InteropErrorKind::Input => {
                        eprintln!("error: invalid {format} proof in {trace_path}: {e}");
                        ExitCode::from(4)
                    }
                    InteropErrorKind::ProofDefect => {
                        println!("INVALID proof: {e}");
                        ExitCode::from(1)
                    }
                });
            }
        }
    } else if trace_path == "-" {
        use rescheck::trace::{read_all, TraceFormat, BINARY_MAGIC};
        use std::io::Read;
        let mut bytes = Vec::new();
        if let Err(e) = std::io::stdin().lock().read_to_end(&mut bytes) {
            return Ok(open_failed("stdin", &e));
        }
        obs.observe(&Event::GaugeSet {
            name: "io.trace.bytes",
            value: bytes.len() as f64,
        });
        let format = if bytes.starts_with(&BINARY_MAGIC) {
            TraceFormat::Binary
        } else {
            TraceFormat::Ascii
        };
        match read_all(&bytes[..], format) {
            Ok(events) => TraceInput::Stdin(MemorySink::from(events)),
            Err(e) => return Ok(open_failed("stdin trace", &e)),
        }
    } else {
        match FileTrace::open(trace_path) {
            Ok(trace) => TraceInput::File(trace),
            Err(e) if e.kind() == std::io::ErrorKind::InvalidInput => {
                let hint = format!("{e}; pass `-` as the trace to stream it from stdin");
                return Ok(open_failed(trace_path, &hint));
            }
            Err(e) => return Ok(open_failed(trace_path, &e)),
        }
    };
    parse.finish(&mut obs);
    if let Ok(meta) = std::fs::metadata(cnf_path) {
        obs.observe(&Event::GaugeSet {
            name: "io.cnf.bytes",
            value: meta.len() as f64,
        });
    }
    if let TraceInput::File(_) = &trace {
        if let Ok(meta) = std::fs::metadata(trace_path) {
            obs.observe(&Event::GaugeSet {
                name: "io.trace.bytes",
                value: meta.len() as f64,
            });
        }
    }
    let config = CheckConfig {
        memory_limit,
        ..CheckConfig::default()
    };
    let result = match &trace {
        TraceInput::File(file) => {
            check_unsat_claim_observed(&cnf, file, strategy, &config, &mut obs)
        }
        TraceInput::Stdin(mem) => {
            check_unsat_claim_observed(&cnf, mem, strategy, &config, &mut obs)
        }
    };
    root.stop(&mut obs);
    match result {
        Ok(outcome) => {
            println!("VALID UNSAT proof");
            if let Some(stats) = &ingest_stats {
                println!("{stats}");
            }
            println!("{}", outcome.stats);
            if let Some(core) = &outcome.core {
                println!(
                    "unsat core: {} of {} clauses, {} variables",
                    core.num_clauses(),
                    cnf.num_clauses(),
                    core.num_vars()
                );
            }
            obs.write_metrics("check", |doc| {
                doc.set("check", check_stats_json(&outcome.stats));
                if let Some(core) = &outcome.core {
                    let mut core_json = Json::object();
                    core_json
                        .set("num_clauses", core.num_clauses())
                        .set("num_vars", core.num_vars());
                    doc.set("core", core_json);
                }
            })?;
            Ok(ExitCode::SUCCESS)
        }
        Err(e) => {
            use rescheck::checker::FailureKind;
            let kind = e.kind();
            // Only a proof defect refutes the proof; every other class
            // ended the check before a verdict.
            if kind == FailureKind::ProofDefect {
                println!("INVALID proof: {e}");
            } else {
                println!("NOT CHECKED ({kind}): {e}");
            }
            // A stdin trace has no adjacent file to name the dump after;
            // use the current directory instead of `-.flight.json`.
            let flight_path = flight_out.unwrap_or_else(|| {
                if trace_path == "-" {
                    "rescheck.flight.json".to_string()
                } else {
                    format!("{trace_path}.flight.json")
                }
            });
            obs.dump_flight(&flight_path);
            obs.write_metrics("check", |doc| {
                doc.set("error", e.to_string().as_str())
                    .set("failure_kind", kind.to_string().as_str());
            })?;
            // Distinct exit codes per failure class: a defective proof
            // (1) is a solver/trace bug, a breached memory budget (3) a
            // retry-with-more-resources, an I/O failure (4) an
            // environment problem. Cancellation shares 3: the run was
            // stopped by a resource policy, not by the proof.
            Ok(ExitCode::from(match kind {
                FailureKind::ProofDefect => 1,
                FailureKind::ResourceLimit | FailureKind::Cancelled => 3,
                FailureKind::Io => 4,
            }))
        }
    }
}

fn cmd_export(rest: &[String]) -> CliResult {
    use rescheck::interop::{export_lrat, lrat};
    use rescheck::trace::{read_all, TraceFormat, BINARY_MAGIC};
    let mut args = rest.to_vec();
    let mut obs = CliObserver::from_args(&mut args)?;
    let out = take_opt(&mut args, "--out")?;
    let binary = take_flag(&mut args, "--binary");
    match take_opt(&mut args, "--format")?.as_deref() {
        None | Some("lrat") => {}
        Some(other) => return Err(format!("unknown export format {other:?} (lrat)").into()),
    }
    let [cnf_path, trace_path] = args.as_slice() else {
        return Err("export needs a CNF file and a trace file".into());
    };
    let open_failed = |what: &str, e: &dyn std::fmt::Display| -> ExitCode {
        eprintln!("error: cannot read {what}: {e}");
        ExitCode::from(4)
    };
    let mut root = Span::start("export", &mut obs);
    let parse = Phase::start("parse", &mut obs);
    let cnf = match dimacs::read_file(cnf_path) {
        Ok(cnf) => cnf,
        Err(e) => return Ok(open_failed(cnf_path, &e)),
    };
    let bytes = if trace_path == "-" {
        use std::io::Read;
        let mut bytes = Vec::new();
        if let Err(e) = std::io::stdin().lock().read_to_end(&mut bytes) {
            return Ok(open_failed("stdin", &e));
        }
        bytes
    } else {
        match std::fs::read(trace_path) {
            Ok(bytes) => bytes,
            Err(e) => return Ok(open_failed(trace_path, &e)),
        }
    };
    let format = if bytes.starts_with(&BINARY_MAGIC) {
        TraceFormat::Binary
    } else {
        TraceFormat::Ascii
    };
    let events = match read_all(&bytes[..], format) {
        Ok(events) => events,
        Err(e) => return Ok(open_failed("trace", &e)),
    };
    parse.finish(&mut obs);
    let convert = Phase::start("export:convert", &mut obs);
    let report = match export_lrat(&cnf, &events) {
        Ok(report) => report,
        Err(e) => {
            // The trace cannot be folded into a proof — same exit code
            // as a rejected proof in `check`: the trace is defective.
            println!("INVALID trace: {e}");
            return Ok(ExitCode::from(1));
        }
    };
    convert.finish(&mut obs);
    let proof = if binary {
        lrat::write_binary(&report.steps)
    } else {
        let mut text = Vec::new();
        lrat::write_text(&mut text, &report.steps)?;
        text
    };
    obs.observe(&Event::GaugeSet {
        name: "io.proof.bytes",
        value: proof.len() as f64,
    });
    root.stop(&mut obs);
    // Without --out the proof itself occupies stdout, so the summary
    // moves to stderr.
    match &out {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &proof) {
                eprintln!("error: cannot write {path}: {e}");
                return Ok(ExitCode::from(4));
            }
            println!("exported LRAT proof to {path} ({} bytes)", proof.len());
            println!("{}", report.stats);
        }
        None => {
            std::io::stdout().lock().write_all(&proof)?;
            eprintln!("{}", report.stats);
        }
    }
    obs.write_metrics("export", |doc| {
        doc.set("steps", report.steps.len())
            .set("proof_bytes", proof.len())
            .set("learned", report.stats.learned)
            .set("deletions", report.stats.deletions);
    })?;
    Ok(ExitCode::SUCCESS)
}

fn cmd_core(rest: &[String]) -> CliResult {
    let mut args = rest.to_vec();
    let mut obs = CliObserver::from_args(&mut args)?;
    let iterations: usize = take_opt(&mut args, "--iterations")?
        .map(|s| s.parse())
        .transpose()?
        .unwrap_or(30);
    let out = take_opt(&mut args, "--out")?;
    let [path] = args.as_slice() else {
        return Err("core needs exactly one CNF file".into());
    };
    let mut root = Span::start("core", &mut obs);
    let parse = Phase::start("parse", &mut obs);
    let cnf = dimacs::read_file(path)?;
    parse.finish(&mut obs);
    let minimize = Phase::start("core:minimize", &mut obs);
    let result = minimize_core(&cnf, &SolverConfig::default(), iterations)?;
    minimize.finish(&mut obs);
    for (i, it) in result.iterations.iter().enumerate() {
        println!(
            "iteration {:>2}: {} clauses, {} variables",
            i + 1,
            it.num_clauses,
            it.num_vars
        );
    }
    let core = result.final_core(&cnf);
    println!(
        "final core: {} of {} clauses (fixed point: {})",
        core.num_clauses(),
        cnf.num_clauses(),
        result.reached_fixed_point
    );
    obs.observe(&Event::GaugeSet {
        name: "core.final_clauses",
        value: core.num_clauses() as f64,
    });
    root.stop(&mut obs);
    obs.write_metrics("core", |doc| {
        let rows: Vec<Json> = result
            .iterations
            .iter()
            .map(|it| {
                let mut row = Json::object();
                row.set("num_clauses", it.num_clauses)
                    .set("num_vars", it.num_vars);
                row
            })
            .collect();
        let mut section = Json::object();
        section
            .set("iterations", Json::Array(rows))
            .set("final_clauses", core.num_clauses())
            .set("final_vars", core.num_vars())
            .set("reached_fixed_point", result.reached_fixed_point);
        doc.set("core", section);
    })?;
    if let Some(out) = out {
        dimacs::write_file(&out, &core.to_subformula(&cnf))?;
        println!("core written to {out}");
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_trim(rest: &[String]) -> CliResult {
    use rescheck::checker::trim_trace_observed;
    let mut args = rest.to_vec();
    let mut obs = CliObserver::from_args(&mut args)?;
    let out = take_opt(&mut args, "--out")?.ok_or("trim needs --out <file>")?;
    let binary = take_flag(&mut args, "--binary");
    let [cnf_path, trace_path] = args.as_slice() else {
        return Err("trim needs a CNF file and a trace file".into());
    };
    let mut root = Span::start("trim", &mut obs);
    let parse = Phase::start("parse", &mut obs);
    let cnf = dimacs::read_file(cnf_path)?;
    let trace = FileTrace::open(trace_path)?;
    parse.finish(&mut obs);
    let trimmed = trim_trace_observed(&cnf, &trace, &mut obs)?;
    let encode = Phase::start("trace-encode", &mut obs);
    let (bytes, count) = encode_trace_file(&out, binary, &trimmed.events)?;
    encode.finish(&mut obs);
    obs.observe(&Event::GaugeSet {
        name: "trace.bytes_written",
        value: bytes as f64,
    });
    obs.observe(&Event::GaugeSet {
        name: "trace.events_written",
        value: count as f64,
    });
    println!(
        "kept {} of {} learned clauses ({:.1}%); core: {} of {} original clauses",
        trimmed.kept_learned,
        trimmed.kept_learned + trimmed.dropped_learned,
        trimmed.kept_percent(),
        trimmed.core.num_clauses(),
        cnf.num_clauses()
    );
    println!("trimmed trace written to {out}");
    root.stop(&mut obs);
    obs.write_metrics("trim", |doc| {
        let mut section = Json::object();
        section
            .set("kept_learned", trimmed.kept_learned)
            .set("dropped_learned", trimmed.dropped_learned)
            .set("kept_percent", trimmed.kept_percent())
            .set("core_clauses", trimmed.core.num_clauses());
        doc.set("trim", section);
    })?;
    Ok(ExitCode::SUCCESS)
}

fn cmd_stats(rest: &[String]) -> CliResult {
    use rescheck::checker::proof_stats;
    let mut args = rest.to_vec();
    let mut obs = CliObserver::from_args(&mut args)?;
    let [cnf_path, trace_path] = args.as_slice() else {
        return Err("stats needs a CNF file and a trace file".into());
    };
    let mut root = Span::start("stats", &mut obs);
    let parse = Phase::start("parse", &mut obs);
    let cnf = dimacs::read_file(cnf_path)?;
    let trace = FileTrace::open(trace_path)?;
    parse.finish(&mut obs);
    let scan = Phase::start("check:pass1", &mut obs);
    let stats = proof_stats(&cnf, &trace)?;
    scan.finish(&mut obs);
    println!("{stats}");
    root.stop(&mut obs);
    obs.write_metrics("stats", |doc| {
        doc.set("proof", report::proof_stats_json(&stats));
    })?;
    Ok(ExitCode::SUCCESS)
}

fn cmd_gen(rest: &[String]) -> CliResult {
    let mut args = rest.to_vec();
    let seed_flag = take_opt(&mut args, "--seed")?
        .map(|s| s.parse::<u64>())
        .transpose()?;
    let usize_arg = |i: usize| -> Result<usize, Box<dyn std::error::Error>> {
        Ok(args
            .get(i)
            .ok_or_else(|| format!("missing argument {i} for gen"))?
            .parse()?)
    };
    // Randomized families take their seed positionally or via --seed
    // (the flag wins); deterministic families reject the flag outright
    // rather than silently ignoring it.
    let seed_arg = |i: usize| -> Result<u64, Box<dyn std::error::Error>> {
        match seed_flag {
            Some(seed) => Ok(seed),
            None => Ok(args
                .get(i)
                .ok_or_else(|| format!("missing seed: pass it as argument {i} or via --seed"))?
                .parse()?),
        }
    };
    let family = args.first().map(String::as_str);
    if seed_flag.is_some() && !matches!(family, Some("random" | "routing")) {
        return Err(format!(
            "--seed only applies to the randomized families (random, routing), not {:?}",
            family.unwrap_or("<none>")
        )
        .into());
    }
    let instance = match family {
        Some("pigeonhole") => workloads::pigeonhole::instance(usize_arg(1)?),
        Some("parity") => workloads::parity::chained_parity(usize_arg(1)?),
        Some("adder") => workloads::equiv::adder_miter(usize_arg(1)?),
        Some("longmult") => workloads::bmc::longmult(usize_arg(1)?),
        Some("barrel") => workloads::bmc::barrel(usize_arg(1)?, usize_arg(2)?),
        Some("routing") => {
            workloads::routing::congested_channel(usize_arg(1)?, usize_arg(2)?, seed_arg(3)?)
        }
        Some("planning") => workloads::planning::agent_swap(usize_arg(1)?, usize_arg(2)?),
        Some("pipe") => workloads::pipeline::pipe(usize_arg(1)?, usize_arg(2)?),
        Some("atpg") => workloads::atpg::redundant_fault(usize_arg(1)?, usize_arg(2)?),
        Some("random") => {
            workloads::random_ksat::instance(usize_arg(1)?, usize_arg(2)?, 3, seed_arg(3)?)
        }
        other => return Err(format!("unknown family {other:?}\n{USAGE}").into()),
    };
    let stdout = std::io::stdout();
    let mut lock = stdout.lock();
    writeln!(lock, "c {instance}")?;
    if let Some(expected) = instance.expected {
        writeln!(lock, "c expected: {expected}")?;
    }
    dimacs::write(&mut lock, &instance.cnf)?;
    Ok(ExitCode::SUCCESS)
}

fn cmd_fuzz(rest: &[String]) -> CliResult {
    use rescheck_fuzz::{run_campaign, CampaignConfig, InjectedBug};
    let mut args = rest.to_vec();
    let mut obs = CliObserver::from_args(&mut args)?;
    let defaults = CampaignConfig::default();
    let seed = take_opt(&mut args, "--seed")?
        .ok_or("fuzz needs --seed <s>")?
        .parse::<u64>()?;
    let iterations = take_opt(&mut args, "--iters")?
        .ok_or("fuzz needs --iters <n>")?
        .parse::<u64>()?;
    let max_vars = match take_opt(&mut args, "--max-vars")? {
        Some(v) => v.parse()?,
        None => defaults.oracle.max_vars,
    };
    let mutants_per_trace = match take_opt(&mut args, "--mutants")? {
        Some(v) => v.parse()?,
        None => defaults.oracle.mutants_per_trace,
    };
    let conflict_limit = match take_opt(&mut args, "--conflict-limit")? {
        Some(v) => v.parse()?,
        None => defaults.oracle.conflict_limit,
    };
    let shrink_budget = match take_opt(&mut args, "--shrink-budget")? {
        Some(v) => v.parse()?,
        None => defaults.shrink_budget,
    };
    let max_findings = match take_opt(&mut args, "--max-findings")? {
        Some(v) => v.parse()?,
        None => defaults.max_findings,
    };
    let artifact_dir = take_opt(&mut args, "--artifacts")?.map(std::path::PathBuf::from);
    let inject = match take_opt(&mut args, "--inject")? {
        Some(v) => Some(
            InjectedBug::parse(&v)
                .ok_or_else(|| format!("unknown --inject {v:?} (reject-valid|accept-mutants)"))?,
        ),
        None => None,
    };
    let quiet = take_flag(&mut args, "--quiet");
    if !args.is_empty() {
        return Err(format!("fuzz does not take positional arguments: {args:?}").into());
    }
    let cfg = CampaignConfig {
        seed,
        iterations,
        oracle: rescheck_fuzz::OracleConfig {
            conflict_limit,
            mutants_per_trace,
            max_vars,
            inject,
            ..defaults.oracle
        },
        shrink_budget,
        artifact_dir,
        max_findings,
    };

    let mut root = Span::start("fuzz", &mut obs);
    let fuzz_phase = Phase::start("fuzz:campaign", &mut obs);
    let outcome = run_campaign(&cfg, &mut obs)?;
    fuzz_phase.finish(&mut obs);
    root.stop(&mut obs);

    let stdout = std::io::stdout();
    let mut lock = stdout.lock();
    if !quiet {
        for line in &outcome.log {
            writeln!(lock, "{line}")?;
        }
    }
    write!(lock, "{}", outcome.summary())?;
    for f in &outcome.findings {
        if let Some(dir) = &f.case_dir {
            writeln!(lock, "repro written to {}", dir.display())?;
        }
    }
    drop(lock);

    obs.write_metrics("fuzz", |doc| {
        let mut section = Json::object();
        section
            .set("seed", format!("{:#018x}", outcome.seed))
            .set("iterations", outcome.iterations_run)
            .set("findings", outcome.findings.len())
            .set("digest", format!("{:#018x}", outcome.digest()));
        doc.set("fuzz", section);
    })?;
    Ok(if outcome.clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

fn cmd_serve(rest: &[String]) -> CliResult {
    use rescheck_serve::{serve_stdin, serve_tcp, ServeConfig};
    let mut args = rest.to_vec();
    let listen = take_opt(&mut args, "--listen")?;
    let use_stdin = take_flag(&mut args, "--stdin");
    if use_stdin && listen.is_some() {
        return Err("--stdin and --listen are mutually exclusive".into());
    }
    let defaults = ServeConfig::default();
    let workers = take_opt(&mut args, "--jobs")?
        .map(|s| s.parse::<usize>())
        .transpose()?
        .unwrap_or(defaults.workers);
    let queue_depth = take_opt(&mut args, "--queue-depth")?
        .map(|s| s.parse::<usize>())
        .transpose()?
        .unwrap_or(defaults.queue_depth);
    let mem_total = take_opt(&mut args, "--mem-total")?
        .map(|s| s.parse::<u64>())
        .transpose()?;
    let default_timeout_ms = take_opt(&mut args, "--timeout-ms")?
        .map(|s| s.parse::<u64>())
        .transpose()?;
    let max_frame_bytes = take_opt(&mut args, "--max-frame-bytes")?
        .map(|s| s.parse::<usize>())
        .transpose()?
        .unwrap_or(defaults.max_frame_bytes);
    if !args.is_empty() {
        return Err(format!("serve does not take positional arguments: {args:?}").into());
    }
    let config = ServeConfig {
        workers,
        queue_depth,
        mem_total,
        default_timeout_ms,
        max_frame_bytes,
    };
    let summary = match listen {
        // Default front end is stdin: frames in on stdin, verdicts (and
        // the final summary frame) out on stdout.
        None => serve_stdin(config)?,
        Some(addr) => {
            let summary = serve_tcp(config, &addr, |local| {
                eprintln!("c rescheck serve listening on {local}");
            })?;
            // TCP clients are gone by wind-down; the summary goes to the
            // operator's stdout instead.
            println!("{summary}");
            summary
        }
    };
    let completed = summary.get("jobs_completed").and_then(Json::as_u64);
    eprintln!(
        "c serve wound down cleanly ({} jobs completed)",
        completed.unwrap_or(0)
    );
    Ok(ExitCode::SUCCESS)
}
