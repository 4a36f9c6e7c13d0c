//! The daemon: admission control, the worker pool, and the front doors.
//!
//! ```text
//! stdin/TCP line ──▶ handle_line ──▶ parse ──▶ try_send ──▶ bounded queue
//!                        │              │          │
//!                        │              │          └─ Full ⇒ `busy` verdict (shed)
//!                        │              └─ bad frame ⇒ `malformed` verdict
//!                        └─ control ops answered inline (ping/metrics/shutdown)
//!
//! worker (×N): recv ─▶ scratch checkout ─▶ catch_unwind(run_job) ─▶ verdict
//!                          │ panic ⇒ scratch discarded, `internal-error`
//!                          │         verdict written, worker respawned
//!                          └ ok    ⇒ scratch returned to the pool
//! ```
//!
//! The invariant the whole module is built around: **the daemon never
//! dies and never goes silent.** Every admitted job produces exactly one
//! verdict frame, no matter how it fails; every rejected line produces a
//! `malformed` or `busy` frame; worker panics cost one job and one warm
//! scratch, never the process.

use crate::budget::BudgetLedger;
use crate::cache::InputCache;
use crate::job::{run_job, JobEnv};
use crate::protocol::{self, status, Frame, FrameError, JobSpec, SUMMARY_SCHEMA};
use crate::watchdog::Watchdog;
use rescheck_checker::ScratchPool;
use rescheck_obs::{metrics_document, Json, Registry};
use std::any::Any;
use std::io::Write;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::Instant;

/// Daemon-level tunables (the CLI flags of `rescheck serve`).
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Worker threads; `0` picks the available parallelism (capped at 8).
    pub workers: usize,
    /// Jobs allowed to wait in the queue before submissions shed as
    /// `busy` (workers already executing do not count).
    pub queue_depth: usize,
    /// Daemon-wide accounted-memory budget, leased out per job; `None` =
    /// unlimited.
    pub mem_total: Option<u64>,
    /// Default per-job deadline for jobs that set none; `None` = no
    /// deadline.
    pub default_timeout_ms: Option<u64>,
    /// Request frames longer than this many bytes are rejected as
    /// `malformed` without being parsed.
    pub max_frame_bytes: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 0,
            queue_depth: 16,
            mem_total: None,
            default_timeout_ms: None,
            max_frame_bytes: 8 << 20,
        }
    }
}

/// Where verdict frames for a connection are written. Shared between the
/// submitting connection and the workers executing its jobs.
pub type Reply = Arc<Mutex<Box<dyn Write + Send>>>;

/// What [`Server::handle_line`] did with a request line.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LineOutcome {
    /// A job was queued; its verdict arrives later from a worker.
    Submitted,
    /// The line was answered inline (control op, malformed, shed).
    Replied,
    /// Blank line; nothing written.
    Ignored,
    /// A shutdown frame: the caller should stop reading and call
    /// [`Server::shutdown`].
    Shutdown,
}

struct QueuedJob {
    spec: Box<JobSpec>,
    reply: Reply,
}

/// State shared by the front end and every worker.
struct Shared {
    ledger: BudgetLedger,
    watchdog: Watchdog,
    inputs: InputCache,
    pool: ScratchPool,
    registry: Mutex<Registry>,
    queued: AtomicUsize,
    default_timeout_ms: Option<u64>,
}

impl Shared {
    fn with_registry<R>(&self, f: impl FnOnce(&mut Registry) -> R) -> R {
        // A worker that panics while holding the registry would poison
        // it; the daemon must keep serving, so poisoning is shrugged off.
        f(&mut self.registry.lock().unwrap_or_else(PoisonError::into_inner))
    }
}

enum LoopExit {
    /// The queue closed: orderly drain, the worker retires.
    Drained,
    /// A job panicked. The verdict is already written; the wrapper
    /// discards all worker state and starts a fresh loop.
    JobPanicked,
}

/// A running validation service.
///
/// Frames come in through [`Server::handle_line`] (the stdin and TCP
/// front ends are thin loops over it), verdicts go out through each
/// line's [`Reply`] handle.
pub struct Server {
    shared: Arc<Shared>,
    tx: Mutex<Option<SyncSender<QueuedJob>>>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    worker_count: usize,
    queue_depth: usize,
    max_frame_bytes: usize,
    started: Instant,
}

impl Server {
    /// Starts the worker pool and deadline service.
    pub fn start(config: ServeConfig) -> Server {
        let worker_count = if config.workers == 0 {
            thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
                .min(8)
        } else {
            config.workers
        };
        let queue_depth = config.queue_depth.max(1);
        let shared = Arc::new(Shared {
            ledger: BudgetLedger::new(config.mem_total, worker_count),
            watchdog: Watchdog::start(),
            inputs: InputCache::new(),
            pool: ScratchPool::new(),
            registry: Mutex::new(Registry::new()),
            queued: AtomicUsize::new(0),
            default_timeout_ms: config.default_timeout_ms,
        });
        shared.with_registry(|reg| reg.set_gauge("serve.workers", worker_count as f64));
        let (tx, rx) = sync_channel::<QueuedJob>(queue_depth);
        let rx = Arc::new(Mutex::new(rx));
        let workers = (0..worker_count)
            .map(|w| {
                let shared = Arc::clone(&shared);
                let rx = Arc::clone(&rx);
                thread::Builder::new()
                    .name(format!("rescheck-serve-worker-{w}"))
                    .spawn(move || worker_entry(&shared, &rx))
                    .expect("spawn serve worker")
            })
            .collect();
        Server {
            shared,
            tx: Mutex::new(Some(tx)),
            workers: Mutex::new(workers),
            worker_count,
            queue_depth,
            max_frame_bytes: config.max_frame_bytes,
            started: Instant::now(),
        }
    }

    /// Handles one request line: control ops are answered inline, jobs
    /// are queued (or shed as `busy`), garbage gets a `malformed` frame.
    /// Never panics, never drops a line silently.
    pub fn handle_line(&self, line: &str, reply: &Reply) -> LineOutcome {
        let line = line.trim();
        if line.is_empty() {
            return LineOutcome::Ignored;
        }
        if line.len() > self.max_frame_bytes {
            return self.reject(
                reply,
                &FrameError {
                    id: None,
                    message: format!(
                        "frame of {} bytes exceeds the {}-byte limit",
                        line.len(),
                        self.max_frame_bytes
                    ),
                },
            );
        }
        match protocol::parse_frame(line) {
            Err(e) => self.reject(reply, &e),
            Ok(Frame::Ping) => {
                let mut pong = Json::object();
                pong.set("rescheck", "rescheck-serve-pong-v1")
                    .set("workers", self.worker_count)
                    .set("queued", self.shared.queued.load(Ordering::SeqCst))
                    .set("uptime_seconds", self.started.elapsed().as_secs_f64());
                write_frame(reply, &pong);
                LineOutcome::Replied
            }
            Ok(Frame::Metrics) => {
                let snapshot = self.metrics_snapshot();
                write_frame(reply, &metrics_document("serve", &snapshot));
                LineOutcome::Replied
            }
            Ok(Frame::Shutdown) => LineOutcome::Shutdown,
            Ok(Frame::Job(spec)) => self.submit(spec, reply),
        }
    }

    fn reject(&self, reply: &Reply, error: &FrameError) -> LineOutcome {
        self.shared
            .with_registry(|reg| reg.inc("serve.frames_malformed", 1));
        write_frame(reply, &protocol::malformed_verdict(error));
        LineOutcome::Replied
    }

    fn submit(&self, spec: Box<JobSpec>, reply: &Reply) -> LineOutcome {
        let depth = self.shared.queued.load(Ordering::SeqCst);
        self.shared.with_registry(|reg| {
            reg.inc("serve.jobs_submitted", 1);
            reg.record_hist("serve.queue_depth", depth as u64);
        });
        let tx = self.tx.lock().unwrap_or_else(PoisonError::into_inner);
        let Some(tx) = tx.as_ref() else {
            // Shutting down: shed rather than hang the client.
            let id = spec.id.clone();
            drop(spec);
            self.shed(&id, reply);
            return LineOutcome::Replied;
        };
        // Counted *before* the send: the receiving worker decrements, and
        // it can win the race to its decrement before a post-send
        // increment would land, underflowing the counter.
        let depth = self.shared.queued.fetch_add(1, Ordering::SeqCst) + 1;
        match tx.try_send(QueuedJob {
            spec,
            reply: Arc::clone(reply),
        }) {
            Ok(()) => {
                self.shared
                    .with_registry(|reg| reg.set_gauge("serve.queue_depth", depth as f64));
                LineOutcome::Submitted
            }
            Err(TrySendError::Full(job)) | Err(TrySendError::Disconnected(job)) => {
                self.shared.queued.fetch_sub(1, Ordering::SeqCst);
                self.shed(&job.spec.id, reply);
                LineOutcome::Replied
            }
        }
    }

    fn shed(&self, id: &str, reply: &Reply) {
        self.shared.with_registry(|reg| {
            reg.inc("serve.jobs_shed", 1);
            reg.inc(&format!("serve.status.{}", status::BUSY), 1);
        });
        write_frame(reply, &protocol::busy_verdict(id, self.queue_depth));
    }

    /// Closes the queue, drains it, and joins every worker. Idempotent.
    pub fn shutdown(&self) {
        let tx = self
            .tx
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take();
        drop(tx);
        let workers =
            std::mem::take(&mut *self.workers.lock().unwrap_or_else(PoisonError::into_inner));
        for worker in workers {
            let _ = worker.join();
        }
    }

    /// A copy of the daemon-wide metrics registry (cache gauges
    /// refreshed).
    pub fn metrics_snapshot(&self) -> Registry {
        let (hits, misses) = self.shared.inputs.formula_stats();
        let (trace_hits, trace_misses) = self.shared.inputs.trace_stats();
        self.shared.with_registry(|reg| {
            reg.inc(
                "serve.formula_cache.hits",
                hits - reg.counter("serve.formula_cache.hits").unwrap_or(0),
            );
            reg.inc(
                "serve.formula_cache.misses",
                misses - reg.counter("serve.formula_cache.misses").unwrap_or(0),
            );
            reg.inc(
                "serve.trace_cache.hits",
                trace_hits - reg.counter("serve.trace_cache.hits").unwrap_or(0),
            );
            reg.inc(
                "serve.trace_cache.misses",
                trace_misses - reg.counter("serve.trace_cache.misses").unwrap_or(0),
            );
            let mut out = Registry::new();
            out.merge(reg);
            out
        })
    }

    /// The end-of-session summary frame.
    pub fn summary(&self) -> Json {
        let snapshot = self.metrics_snapshot();
        let count = |name: &str| snapshot.counter(name).unwrap_or(0);
        let mut frame = Json::object();
        frame
            .set("rescheck", SUMMARY_SCHEMA)
            .set("jobs_submitted", count("serve.jobs_submitted"))
            .set("jobs_completed", count("serve.jobs_completed"))
            .set("jobs_shed", count("serve.jobs_shed"))
            .set("frames_malformed", count("serve.frames_malformed"))
            .set("worker_panics", count("serve.worker_panics"))
            .set("worker_respawns", count("serve.worker_respawns"))
            .set("uptime_seconds", self.started.elapsed().as_secs_f64());
        frame
    }

    /// The effective worker-pool size.
    pub fn workers(&self) -> usize {
        self.worker_count
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn worker_entry(shared: &Arc<Shared>, rx: &Arc<Mutex<Receiver<QueuedJob>>>) {
    loop {
        match catch_unwind(AssertUnwindSafe(|| worker_loop(shared, rx))) {
            Ok(LoopExit::Drained) => return,
            Ok(LoopExit::JobPanicked) | Err(_) => {
                // The respawn: all worker state (scratch, locals) is gone;
                // the next iteration starts the loop from nothing. An
                // Err here means the loop machinery itself panicked —
                // handled identically.
                shared.with_registry(|reg| reg.inc("serve.worker_respawns", 1));
            }
        }
    }
}

fn worker_loop(shared: &Arc<Shared>, rx: &Arc<Mutex<Receiver<QueuedJob>>>) -> LoopExit {
    loop {
        // Holding the lock across the blocking recv is fine: it only
        // serializes *dequeueing*, and the holder is asleep until a job
        // arrives for it anyway.
        let job = {
            let rx = rx.lock().unwrap_or_else(PoisonError::into_inner);
            rx.recv()
        };
        let Ok(job) = job else {
            return LoopExit::Drained;
        };
        let depth = self_sub(&shared.queued);
        shared.with_registry(|reg| reg.set_gauge("serve.queue_depth", depth as f64));

        let mut scratch = shared.pool.checkout();
        let env = JobEnv {
            ledger: &shared.ledger,
            watchdog: &shared.watchdog,
            inputs: &shared.inputs,
            default_timeout_ms: shared.default_timeout_ms,
        };
        let started = Instant::now();
        let run = catch_unwind(AssertUnwindSafe(|| run_job(&job.spec, &env, &mut scratch)));
        let wall_us = started.elapsed().as_micros() as u64;
        match run {
            Ok((frame, job_registry)) => {
                shared.pool.checkin(scratch);
                let job_status = frame
                    .get("status")
                    .and_then(Json::as_str)
                    .unwrap_or(status::INTERNAL_ERROR)
                    .to_string();
                shared.with_registry(|reg| {
                    reg.merge(&job_registry);
                    reg.inc("serve.jobs_completed", 1);
                    reg.inc(&format!("serve.status.{job_status}"), 1);
                    reg.record_hist("serve.job_wall_us", wall_us);
                });
                write_frame(&job.reply, &frame);
            }
            Err(payload) => {
                // The scratch was mid-mutation when the panic unwound:
                // poisoned, never returns to the pool.
                drop(scratch);
                let what = panic_message(payload.as_ref());
                shared.with_registry(|reg| {
                    reg.inc("serve.worker_panics", 1);
                    reg.inc("serve.jobs_completed", 1);
                    reg.inc(&format!("serve.status.{}", status::INTERNAL_ERROR), 1);
                    reg.record_hist("serve.job_wall_us", wall_us);
                });
                write_frame(&job.reply, &protocol::internal_verdict(&job.spec.id, &what));
                return LoopExit::JobPanicked;
            }
        }
    }
}

fn self_sub(queued: &AtomicUsize) -> usize {
    queued.fetch_sub(1, Ordering::SeqCst).saturating_sub(1)
}

fn panic_message(payload: &(dyn Any + Send)) -> String {
    let what = payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string());
    format!("worker panicked: {what}")
}

/// Writes one frame as a compact JSON line. Write errors are swallowed:
/// a client that hung up forfeits its verdicts, nothing more.
pub fn write_frame(reply: &Reply, frame: &Json) {
    let mut writer = reply.lock().unwrap_or_else(PoisonError::into_inner);
    let _ = writeln!(writer, "{frame}");
    let _ = writer.flush();
}
