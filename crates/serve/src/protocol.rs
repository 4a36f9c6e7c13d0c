//! The newline-delimited JSON wire protocol of `rescheck serve`.
//!
//! One request frame per line, one reply frame per line. A request is
//! either a **job** (a claim to validate) or a **control** frame
//! (`{"op": "ping" | "metrics" | "shutdown"}`). Every job produces
//! exactly one verdict frame carrying a `status`, the checker's stats and
//! an embedded `rescheck-metrics-v2` document; malformed input produces a
//! `malformed` verdict on the same connection — the daemon never answers
//! bad bytes by disconnecting or dying.
//!
//! Job frame fields:
//!
//! | key            | meaning                                                  |
//! |----------------|----------------------------------------------------------|
//! | `id`           | required; echoed verbatim in the verdict                 |
//! | `cnf`          | inline DIMACS text (exactly one of `cnf` / `cnf_path`)   |
//! | `cnf_path`     | path to a DIMACS file                                    |
//! | `trace`        | inline ASCII resolve trace (UNSAT claim)                 |
//! | `trace_path`   | path to a trace file (ASCII or binary, sniffed)          |
//! | `model`        | array of DIMACS literals (SAT claim)                     |
//! | `strategy`     | `df` `bf` `hybrid` `portfolio` `dfd` (default `df`); `pdag` `pbf` run `bf` |
//! | `proof_format` | `native` (default) `drat` `drup` `lrat` — how to read the trace payload |
//! | `memory_bytes` | per-job accounted-memory cap                             |
//! | `timeout_ms`   | per-job wall-clock deadline                              |
//! | `jobs`         | accepted and ignored: every check runs on its worker     |
//! | `inject`       | chaos hook: `panic` or `sleep:<ms>` (tests, drills)      |
//!
//! Exactly one of `trace` / `trace_path` / `model` selects the claim.

use rescheck_checker::Strategy;
use rescheck_interop::ProofFormat;
use rescheck_obs::json::{self, Json};

/// Schema tag on every per-job reply frame.
pub const VERDICT_SCHEMA: &str = "rescheck-serve-verdict-v1";
/// Schema tag on the end-of-session summary frame.
pub const SUMMARY_SCHEMA: &str = "rescheck-serve-summary-v1";

/// Verdict `status` values (one module so tests and the CLI share the
/// exact strings).
pub mod status {
    /// The claim was validated.
    pub const VALID: &str = "valid";
    /// The resolution proof is defective — the UNSAT claim is unproven.
    pub const PROOF_DEFECT: &str = "proof-defect";
    /// The claimed model leaves clauses unsatisfied — SAT claim unproven.
    pub const MODEL_DEFECT: &str = "model-defect";
    /// The job exceeded its memory lease.
    pub const RESOURCE_LIMIT: &str = "resource-limit";
    /// The job exceeded its deadline and was cancelled by the watchdog.
    pub const TIMEOUT: &str = "timeout";
    /// The job was cancelled without a deadline being involved.
    pub const CANCELLED: &str = "cancelled";
    /// Reading the formula or trace failed.
    pub const IO_ERROR: &str = "io-error";
    /// The queue was full; the job was shed without running.
    pub const BUSY: &str = "busy";
    /// The worker panicked mid-job; the daemon survived, the job did not.
    pub const INTERNAL_ERROR: &str = "internal-error";
    /// The request frame could not be understood.
    pub const MALFORMED: &str = "malformed";
}

/// Where a payload lives.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Payload {
    /// The bytes travelled inline in the frame.
    Inline(String),
    /// The daemon reads the file itself (shared-filesystem deployments).
    Path(String),
}

/// What the solver claimed, and the evidence offered.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Claim {
    /// UNSAT, backed by a resolve trace.
    Unsat(Payload),
    /// SAT, backed by a model given as DIMACS literals.
    Sat(Vec<i64>),
}

/// Fault-injection hooks, honoured only so tests and operational drills
/// can exercise the failure paths of a *live* daemon.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Inject {
    /// Panic inside the worker before the check starts.
    Panic,
    /// Sleep this many milliseconds before the check starts.
    Sleep(u64),
}

/// A fully validated job request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JobSpec {
    /// Caller-chosen id, echoed in the verdict.
    pub id: String,
    /// The formula the claim is about.
    pub formula: Payload,
    /// The claim and its evidence.
    pub claim: Claim,
    /// Checking strategy.
    pub strategy: Strategy,
    /// Per-job accounted-memory cap; `None` = the daemon's fair share.
    pub memory_bytes: Option<u64>,
    /// Per-job wall-clock deadline; `None` = the daemon default.
    pub timeout_ms: Option<u64>,
    /// How to read UNSAT evidence: `None` = native resolve trace,
    /// `Some` = a clausal proof ingested into a synthetic trace first.
    pub proof_format: Option<ProofFormat>,
    /// Optional chaos hook.
    pub inject: Option<Inject>,
}

/// One parsed request frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Frame {
    /// A validation job.
    Job(Box<JobSpec>),
    /// Liveness probe; answered with a `pong` frame.
    Ping,
    /// Snapshot request; answered with a `rescheck-metrics-v2` document.
    Metrics,
    /// Orderly shutdown of the whole daemon.
    Shutdown,
}

/// Why a frame was rejected, with the job id when one was recoverable —
/// the verdict echoes it so campaign drivers can correlate.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FrameError {
    /// The `id` field, if the frame was parseable enough to have one.
    pub id: Option<String>,
    /// Human-readable reason.
    pub message: String,
}

impl FrameError {
    fn new(id: Option<String>, message: impl Into<String>) -> FrameError {
        FrameError {
            id,
            message: message.into(),
        }
    }
}

/// Maps the CLI's strategy names (the serve protocol reuses them
/// verbatim) to [`Strategy`]. `pdag` / `parallel-dag` and `pbf` /
/// `parallel-bf` name retired parallel engines; they run breadth-first,
/// which verifies the same clauses with the same work counters.
pub fn parse_strategy(name: &str) -> Option<Strategy> {
    match name {
        "df" | "depth-first" => Some(Strategy::DepthFirst),
        "bf" | "breadth-first" | "pdag" | "parallel-dag" | "pbf" | "parallel-bf" => {
            Some(Strategy::BreadthFirst)
        }
        "hybrid" => Some(Strategy::Hybrid),
        "portfolio" => Some(Strategy::Portfolio),
        "dfd" | "disk-df" => Some(Strategy::DiskDepthFirst),
        _ => None,
    }
}

const JOB_KEYS: &[&str] = &[
    "id",
    "cnf",
    "cnf_path",
    "trace",
    "trace_path",
    "model",
    "strategy",
    "memory_bytes",
    "timeout_ms",
    "jobs",
    "proof_format",
    "inject",
];

/// Parses one request line into a [`Frame`].
///
/// # Errors
///
/// Returns a [`FrameError`] (with the job id when recoverable) for
/// anything that is not a well-formed frame: broken JSON, non-objects,
/// missing/duplicate payload fields, unknown strategies, unknown keys.
pub fn parse_frame(line: &str) -> Result<Frame, FrameError> {
    let value =
        json::parse(line).map_err(|e| FrameError::new(None, format!("unparseable JSON: {e}")))?;
    if !matches!(value, Json::Object(_)) {
        return Err(FrameError::new(None, "frame must be a JSON object"));
    }
    if let Some(op) = value.get("op") {
        return match op.as_str() {
            Some("ping") => Ok(Frame::Ping),
            Some("metrics") => Ok(Frame::Metrics),
            Some("shutdown") => Ok(Frame::Shutdown),
            Some(other) => Err(FrameError::new(None, format!("unknown op {other:?}"))),
            None => Err(FrameError::new(None, "op must be a string")),
        };
    }

    // From here on the id (when present and a string) is recoverable, so
    // errors echo it.
    let id = value.get("id").and_then(Json::as_str).map(str::to_string);
    let fail = |message: String| FrameError::new(id.clone(), message);

    let Some(id_value) = value.get("id") else {
        return Err(fail("job frame missing required key \"id\"".to_string()));
    };
    let Some(job_id) = id_value.as_str() else {
        return Err(fail("\"id\" must be a string".to_string()));
    };
    for key in value.keys() {
        if !JOB_KEYS.contains(&key) {
            return Err(fail(format!("unknown key {key:?} in job frame")));
        }
    }

    let cnf_inline = str_field(&value, "cnf").map_err(|e| fail(e.message))?;
    let cnf_path = str_field(&value, "cnf_path").map_err(|e| fail(e.message))?;
    let formula = match (cnf_inline, cnf_path) {
        (Some(text), None) => Payload::Inline(text),
        (None, Some(path)) => Payload::Path(path),
        (None, None) => return Err(fail("exactly one of \"cnf\"/\"cnf_path\" required".into())),
        (Some(_), Some(_)) => {
            return Err(fail(
                "\"cnf\" and \"cnf_path\" are mutually exclusive".into(),
            ))
        }
    };

    let trace = str_field(&value, "trace").map_err(|e| fail(e.message))?;
    let trace_path = str_field(&value, "trace_path").map_err(|e| fail(e.message))?;
    let model = value.get("model");
    let claim = match (trace, trace_path, model) {
        (Some(text), None, None) => Claim::Unsat(Payload::Inline(text)),
        (None, Some(path), None) => Claim::Unsat(Payload::Path(path)),
        (None, None, Some(lits)) => Claim::Sat(parse_model(lits).map_err(&fail)?),
        (None, None, None) => {
            return Err(fail(
                "exactly one of \"trace\"/\"trace_path\"/\"model\" required".into(),
            ))
        }
        _ => {
            return Err(fail(
                "\"trace\", \"trace_path\" and \"model\" are mutually exclusive".into(),
            ))
        }
    };

    let strategy = match value.get("strategy") {
        None => Strategy::DepthFirst,
        Some(s) => {
            let name = s
                .as_str()
                .ok_or_else(|| fail("\"strategy\" must be a string".into()))?;
            parse_strategy(name).ok_or_else(|| fail(format!("unknown strategy {name:?}")))?
        }
    };
    let proof_format = match value.get("proof_format") {
        None => None,
        Some(v) => {
            let name = v
                .as_str()
                .ok_or_else(|| fail("\"proof_format\" must be a string".into()))?;
            match name {
                "native" => None,
                other => Some(ProofFormat::from_name(other).ok_or_else(|| {
                    fail(format!(
                        "unknown proof format {other:?} (native|drat|drup|lrat)"
                    ))
                })?),
            }
        }
    };
    if proof_format.is_some() && matches!(claim, Claim::Sat(_)) {
        return Err(fail(
            "\"proof_format\" requires a \"trace\"/\"trace_path\" claim".into(),
        ));
    }
    let memory_bytes = u64_field(&value, "memory_bytes").map_err(|e| fail(e.message))?;
    let timeout_ms = u64_field(&value, "timeout_ms").map_err(|e| fail(e.message))?;
    // `jobs` is still validated, though no strategy reads it.
    u64_field(&value, "jobs").map_err(|e| fail(e.message))?;
    let inject = match value.get("inject").map(|v| (v, v.as_str())) {
        None => None,
        Some((_, Some("panic"))) => Some(Inject::Panic),
        Some((_, Some(s))) if s.starts_with("sleep:") => {
            let ms = s["sleep:".len()..]
                .parse::<u64>()
                .map_err(|_| fail(format!("bad inject sleep duration in {s:?}")))?;
            Some(Inject::Sleep(ms))
        }
        Some((_, Some(other))) => return Err(fail(format!("unknown inject hook {other:?}"))),
        Some((_, None)) => return Err(fail("\"inject\" must be a string".into())),
    };

    Ok(Frame::Job(Box::new(JobSpec {
        id: job_id.to_string(),
        formula,
        claim,
        strategy,
        memory_bytes,
        timeout_ms,
        proof_format,
        inject,
    })))
}

fn str_field(value: &Json, key: &str) -> Result<Option<String>, FrameError> {
    match value.get(key) {
        None => Ok(None),
        Some(v) => v
            .as_str()
            .map(|s| Some(s.to_string()))
            .ok_or_else(|| FrameError::new(None, format!("{key:?} must be a string"))),
    }
}

fn u64_field(value: &Json, key: &str) -> Result<Option<u64>, FrameError> {
    match value.get(key) {
        None => Ok(None),
        Some(v) => v.as_u64().map(Some).ok_or_else(|| {
            FrameError::new(None, format!("{key:?} must be a non-negative integer"))
        }),
    }
}

fn parse_model(lits: &Json) -> Result<Vec<i64>, String> {
    let Json::Array(items) = lits else {
        return Err("\"model\" must be an array of DIMACS literals".to_string());
    };
    items
        .iter()
        .map(|item| match *item {
            Json::Int(i) if i != 0 => Ok(i),
            Json::UInt(u) if u != 0 => {
                i64::try_from(u).map_err(|_| "model literal out of range".to_string())
            }
            _ => Err("model literals must be non-zero integers".to_string()),
        })
        .collect()
}

/// Starts a verdict frame: `{"rescheck": ..., "id": ..., "status": ...}`.
pub fn verdict(id: &str, status: &str) -> Json {
    let mut frame = Json::object();
    frame
        .set("rescheck", VERDICT_SCHEMA)
        .set("id", id)
        .set("status", status);
    frame
}

/// The reply to an unparseable or invalid frame.
pub fn malformed_verdict(error: &FrameError) -> Json {
    let mut frame = verdict(error.id.as_deref().unwrap_or(""), status::MALFORMED);
    frame.set("error", error.message.as_str());
    frame
}

/// The reply to a job shed because the queue was full.
pub fn busy_verdict(id: &str, queue_depth: usize) -> Json {
    let mut frame = verdict(id, status::BUSY);
    frame.set(
        "error",
        format!("queue full ({queue_depth} jobs waiting); resubmit later"),
    );
    frame
}

/// The reply to a job whose worker panicked.
pub fn internal_verdict(id: &str, what: &str) -> Json {
    let mut frame = verdict(id, status::INTERNAL_ERROR);
    frame.set("error", what);
    frame
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job_line(extra: &str) -> String {
        format!(r#"{{"id":"j1","cnf":"p cnf 1 2\n1 0\n-1 0\n","trace":"t"{extra}}}"#)
    }

    #[test]
    fn minimal_job_frame_parses_with_defaults() {
        let Frame::Job(spec) = parse_frame(&job_line("")).unwrap() else {
            panic!("expected a job frame");
        };
        assert_eq!(spec.id, "j1");
        assert_eq!(spec.strategy, Strategy::DepthFirst);
        assert_eq!(spec.memory_bytes, None);
        assert_eq!(spec.timeout_ms, None);
        assert_eq!(spec.inject, None);
        assert!(matches!(spec.claim, Claim::Unsat(Payload::Inline(_))));
    }

    #[test]
    fn every_documented_strategy_name_parses() {
        for (name, expect) in [
            ("df", Strategy::DepthFirst),
            ("bf", Strategy::BreadthFirst),
            ("hybrid", Strategy::Hybrid),
            ("portfolio", Strategy::Portfolio),
            ("pbf", Strategy::BreadthFirst),
            ("parallel-bf", Strategy::BreadthFirst),
            ("pdag", Strategy::BreadthFirst),
            ("parallel-dag", Strategy::BreadthFirst),
            ("dfd", Strategy::DiskDepthFirst),
            ("disk-df", Strategy::DiskDepthFirst),
        ] {
            let line = job_line(&format!(r#","strategy":"{name}""#));
            let Frame::Job(spec) = parse_frame(&line).unwrap() else {
                panic!("expected a job frame for {name}");
            };
            assert_eq!(spec.strategy, expect, "{name}");
        }
    }

    #[test]
    fn control_frames_parse() {
        assert_eq!(parse_frame(r#"{"op":"ping"}"#).unwrap(), Frame::Ping);
        assert_eq!(parse_frame(r#"{"op":"metrics"}"#).unwrap(), Frame::Metrics);
        assert_eq!(
            parse_frame(r#"{"op":"shutdown"}"#).unwrap(),
            Frame::Shutdown
        );
        assert!(parse_frame(r#"{"op":"dance"}"#).is_err());
    }

    #[test]
    fn model_claims_parse_as_sat() {
        let line = r#"{"id":"m","cnf":"p cnf 2 1\n1 2 0\n","model":[1,-2]}"#;
        let Frame::Job(spec) = parse_frame(line).unwrap() else {
            panic!("expected a job frame");
        };
        assert_eq!(spec.claim, Claim::Sat(vec![1, -2]));
    }

    #[test]
    fn errors_recover_the_job_id_when_possible() {
        let err =
            parse_frame(r#"{"id":"j9","cnf":"x","trace":"t","strategy":"warp"}"#).unwrap_err();
        assert_eq!(err.id.as_deref(), Some("j9"));
        assert!(err.message.contains("warp"));
        // Broken JSON has no recoverable id.
        let err = parse_frame(r#"{"id":"j9","#).unwrap_err();
        assert_eq!(err.id, None);
    }

    #[test]
    fn payload_exclusivity_is_enforced() {
        for line in [
            r#"{"id":"x","trace":"t"}"#,
            r#"{"id":"x","cnf":"c","cnf_path":"p","trace":"t"}"#,
            r#"{"id":"x","cnf":"c"}"#,
            r#"{"id":"x","cnf":"c","trace":"t","model":[1]}"#,
            r#"{"id":"x","cnf":"c","trace":"t","trace_path":"p"}"#,
        ] {
            assert!(parse_frame(line).is_err(), "{line}");
        }
    }

    #[test]
    fn unknown_keys_and_bad_hooks_are_rejected() {
        assert!(parse_frame(&job_line(r#","tracepath":"typo""#)).is_err());
        assert!(parse_frame(&job_line(r#","inject":"explode""#)).is_err());
        assert!(parse_frame(&job_line(r#","inject":"sleep:soon""#)).is_err());
        let Frame::Job(spec) = parse_frame(&job_line(r#","inject":"sleep:25""#)).unwrap() else {
            panic!("expected a job frame");
        };
        assert_eq!(spec.inject, Some(Inject::Sleep(25)));
    }

    #[test]
    fn proof_format_parses_and_guards() {
        for (name, expect) in [
            ("native", None),
            ("drat", Some(ProofFormat::Drat)),
            ("drup", Some(ProofFormat::Drat)),
            ("lrat", Some(ProofFormat::Lrat)),
        ] {
            let line = job_line(&format!(r#","proof_format":"{name}""#));
            let Frame::Job(spec) = parse_frame(&line).unwrap() else {
                panic!("expected a job frame for {name}");
            };
            assert_eq!(spec.proof_format, expect, "{name}");
        }
        assert!(parse_frame(&job_line(r#","proof_format":"tracecheck""#)).is_err());
        assert!(parse_frame(&job_line(r#","proof_format":7"#)).is_err());
        // A SAT claim carries no proof to reinterpret.
        let line = r#"{"id":"m","cnf":"p cnf 2 1\n1 2 0\n","model":[1],"proof_format":"drat"}"#;
        assert!(parse_frame(line).is_err());
    }

    #[test]
    fn verdict_builders_tag_the_schema() {
        let v = busy_verdict("j1", 7);
        assert_eq!(v.get("rescheck").unwrap().as_str(), Some(VERDICT_SCHEMA));
        assert_eq!(v.get("status").unwrap().as_str(), Some(status::BUSY));
        assert!(v.get("error").unwrap().as_str().unwrap().contains("7 jobs"));
    }
}
