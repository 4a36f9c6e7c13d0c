//! Executing one admitted job on a worker thread.
//!
//! [`run_job`] is the panic-*prone* part of the daemon — it runs solver
//! evidence of unknown quality through the checker — so the worker wraps
//! it in `catch_unwind` and this module stays free of any state that
//! could leak across jobs: everything it touches is either per-job
//! (lease, cancel flag, metrics sink) or owned by the caller and
//! discarded on panic (the scratch).

use crate::budget::BudgetLedger;
use crate::cache::{CachedTrace, FormulaCache, TraceCache};
use crate::protocol::{status, verdict, Claim, Inject, JobSpec, Payload};
use crate::watchdog::Watchdog;
use rescheck_checker::{
    check_sat_claim, check_stats_json, check_unsat_claim_scoped, CancelFlag, CheckConfig,
    CheckScratch, FailureKind,
};
use rescheck_cnf::{Assignment, Lit};
use rescheck_obs::{metrics_document, Event, Json, MetricsSink, Observer, Registry};
use rescheck_trace::{read_all, require_regular_file, MemorySink, TraceFormat, TraceSource};
use std::io::Cursor;
use std::path::Path;
use std::thread;
use std::time::{Duration, Instant};

/// The shared daemon services a job executes against.
pub struct JobEnv<'a> {
    /// Global memory budget to lease from.
    pub ledger: &'a BudgetLedger,
    /// Deadline service.
    pub watchdog: &'a Watchdog,
    /// Shared parsed-formula cache.
    pub cache: &'a FormulaCache,
    /// Shared trace cache (one in-memory copy per binary trace file).
    pub traces: &'a TraceCache,
    /// Daemon-wide default deadline for jobs that set none.
    pub default_timeout_ms: Option<u64>,
}

/// Runs one job to a verdict frame plus the job's metrics registry
/// (callers merge the registry into the daemon-wide one).
///
/// Never returns an error: every failure mode is a verdict. It *can*
/// panic — by injection or by checker bug — and the worker loop treats
/// that as one more failure mode (`internal-error`), not a daemon death.
pub fn run_job(spec: &JobSpec, env: &JobEnv<'_>, scratch: &mut CheckScratch) -> (Json, Registry) {
    let started = Instant::now();
    match spec.inject {
        Some(Inject::Panic) => panic!("injected job panic (inject=panic)"),
        Some(Inject::Sleep(ms)) => thread::sleep(Duration::from_millis(ms)),
        None => {}
    }

    let lease = env.ledger.lease(spec.memory_bytes);
    let cancel = CancelFlag::armed();
    let timeout_ms = spec.timeout_ms.or(env.default_timeout_ms);
    let deadline_armed = timeout_ms.is_some();
    let _deadline = timeout_ms.map(|ms| {
        env.watchdog
            .arm(started + Duration::from_millis(ms), cancel.clone())
    });

    // Every path is stat'ed before it is opened: opening a FIFO with no
    // writer would block the worker past any deadline. The trace cache
    // gets the same check from `FileTrace::open`.
    let formula = match &spec.formula {
        Payload::Inline(text) => env.cache.load_text(text),
        Payload::Path(path) => match require_regular_file(Path::new(path))
            .and_then(|()| std::fs::read_to_string(path))
        {
            Ok(text) => env.cache.load_text(&text),
            Err(e) => {
                return finish(
                    error_verdict(spec, status::IO_ERROR, &format!("reading {path}: {e}")),
                    started,
                    Registry::new(),
                )
            }
        },
    };
    let formula = match formula {
        Ok(f) => f,
        Err(e) => {
            return finish(
                error_verdict(spec, status::IO_ERROR, &format!("parsing formula: {e}")),
                started,
                Registry::new(),
            )
        }
    };

    // `timeout_ms: 0` (and any deadline that expired during load) is
    // caught here, before the checker spends cycles — deterministically,
    // because past deadlines fire synchronously in `Watchdog::arm`.
    if cancel.is_cancelled() {
        return finish(
            error_verdict(
                spec,
                status::TIMEOUT,
                "deadline expired before the check ran",
            ),
            started,
            Registry::new(),
        );
    }

    match &spec.claim {
        Claim::Sat(lits) => {
            // Only variables some clause mentions can decide the claim,
            // so the model is sized by those: neither the header's count
            // nor a literal the model names beyond them sizes it.
            let bound = formula.cnf.used_var_bound();
            let mut model = Assignment::new(bound);
            for &l in lits {
                if l.unsigned_abs() <= bound as u64 {
                    model.assign(Lit::from_dimacs(l));
                }
            }
            let frame = match check_sat_claim(&formula.cnf, &model) {
                Ok(()) => {
                    let mut frame = verdict(&spec.id, status::VALID);
                    frame.set("claim", "sat");
                    frame
                }
                Err(e) => {
                    let mut frame = verdict(&spec.id, status::MODEL_DEFECT);
                    frame.set("claim", "sat").set("error", e.to_string());
                    frame
                }
            };
            finish(frame, started, Registry::new())
        }
        Claim::Unsat(evidence) => {
            let mut sink = MetricsSink::new();
            let trace = if let Some(format) = spec.proof_format {
                // Clausal proof: ingest it into a synthetic resolve
                // trace first, then check that trace like any other.
                let bytes = match evidence {
                    Payload::Inline(text) => text.as_bytes().to_vec(),
                    Payload::Path(path) => match require_regular_file(Path::new(path))
                        .and_then(|()| std::fs::read(path))
                    {
                        Ok(bytes) => bytes,
                        Err(e) => {
                            return finish(
                                error_verdict(
                                    spec,
                                    status::IO_ERROR,
                                    &format!("reading proof {path}: {e}"),
                                ),
                                started,
                                Registry::new(),
                            )
                        }
                    },
                };
                let report = rescheck_interop::ingest_bytes(&formula.cnf, &bytes, format);
                if let Ok(report) = &report {
                    for (name, value) in report.stats.gauges() {
                        sink.observe(&Event::GaugeSet {
                            name,
                            value: value as f64,
                        });
                    }
                }
                match report {
                    Ok(report) if !report.resolution_checkable() => {
                        // RAT steps have no resolution derivation; the
                        // ingestion engine's forward check is the verdict.
                        let mut frame = verdict(&spec.id, status::VALID);
                        frame
                            .set("claim", "unsat")
                            .set("proof_format", format.to_string())
                            .set("verified_by", "ingest")
                            .set("rat_steps", report.stats.rat_steps);
                        return finish(frame, started, sink.into_registry());
                    }
                    Ok(report) => LoadedTrace::Memory(MemorySink::from(report.events)),
                    Err(e) => {
                        let status = match e.kind {
                            rescheck_interop::InteropErrorKind::Input => status::IO_ERROR,
                            rescheck_interop::InteropErrorKind::ProofDefect => status::PROOF_DEFECT,
                        };
                        return finish(
                            error_verdict(spec, status, &e.to_string()),
                            started,
                            Registry::new(),
                        );
                    }
                }
            } else {
                match load_trace(evidence, env.traces) {
                    Ok(trace) => trace,
                    Err(message) => {
                        return finish(
                            error_verdict(spec, status::IO_ERROR, &message),
                            started,
                            Registry::new(),
                        )
                    }
                }
            };
            scratch.begin_job(formula.token);
            let config = CheckConfig {
                memory_limit: lease.bytes(),
                cancel: cancel.clone(),
                ..CheckConfig::default()
            };
            let source: &dyn TraceSource = match &trace {
                LoadedTrace::Memory(events) => events,
                LoadedTrace::Path(cached) => cached.source(),
            };
            let result = check_unsat_claim_scoped(
                &formula.cnf,
                source,
                spec.strategy,
                &config,
                scratch,
                &mut sink,
            );
            let registry = sink.into_registry();
            let frame = match result {
                Ok(outcome) => {
                    let mut frame = verdict(&spec.id, status::VALID);
                    frame
                        .set("claim", "unsat")
                        .set("stats", check_stats_json(&outcome.stats));
                    if let Some(core) = &outcome.core {
                        frame.set("core_clauses", core.num_clauses());
                    }
                    frame
                }
                Err(e) => {
                    let mut frame = verdict(&spec.id, failure_status(e.kind(), deadline_armed));
                    frame.set("claim", "unsat").set("error", e.to_string());
                    frame
                }
            };
            finish(frame, started, registry)
        }
    }
}

enum LoadedTrace {
    Memory(MemorySink),
    Path(CachedTrace),
}

fn load_trace(evidence: &Payload, traces: &TraceCache) -> Result<LoadedTrace, String> {
    match evidence {
        Payload::Inline(text) => {
            let events = read_all(Cursor::new(text.as_bytes()), TraceFormat::Ascii)
                .map_err(|e| format!("parsing inline trace: {e}"))?;
            Ok(LoadedTrace::Memory(MemorySink::from(events)))
        }
        // Path evidence goes through the daemon's trace cache: repeated
        // jobs against one binary file share a single in-memory copy.
        Payload::Path(path) => traces
            .open(path)
            .map(LoadedTrace::Path)
            .map_err(|e| format!("opening trace {path}: {e}")),
    }
}

fn failure_status(kind: FailureKind, deadline_armed: bool) -> &'static str {
    match kind {
        FailureKind::ProofDefect => status::PROOF_DEFECT,
        FailureKind::ResourceLimit => status::RESOURCE_LIMIT,
        FailureKind::Io => status::IO_ERROR,
        FailureKind::Cancelled if deadline_armed => status::TIMEOUT,
        FailureKind::Cancelled => status::CANCELLED,
    }
}

fn error_verdict(spec: &JobSpec, status: &str, message: &str) -> Json {
    let mut frame = verdict(&spec.id, status);
    frame.set("error", message);
    frame
}

/// Stamps the wall time and embeds the job's metrics document.
fn finish(mut frame: Json, started: Instant, registry: Registry) -> (Json, Registry) {
    frame.set("wall_seconds", started.elapsed().as_secs_f64());
    frame.set("metrics", metrics_document("serve-job", &registry));
    (frame, registry)
}
