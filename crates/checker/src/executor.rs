//! The work-stealing executor behind [`Strategy::ParallelDag`]
//! (`Strategy` = [`crate::Strategy`]): schedules the dense dependency
//! graph of [`crate::dag`] across `jobs` workers and commits results
//! through a single monotone watermark.
//!
//! ## Scheduling
//!
//! Each worker owns a deque (a `Mutex`-guarded ring with an atomic
//! length for the lock-free emptiness fast path — the std-only stand-in
//! for a Chase-Lev deque, since the checker crate forbids `unsafe`).
//! The owner pushes and pops at the back (LIFO, cache-warm); thieves
//! steal from the front (FIFO, oldest first). A node becomes ready when
//! its last learned source publishes, and is pushed by whichever worker
//! performed that final in-degree decrement. Idle workers park on a
//! condvar; the run terminates when every worker is parked and every
//! deque is empty.
//!
//! ## Determinism: the commit watermark
//!
//! Workers resolve nodes in whatever order the steals happen to produce,
//! but *observable effects* — memory charges and frees, the resolution
//! and clauses-built counters, memory-limit and cancellation errors —
//! happen only at **commit time**, and nodes commit strictly in trace
//! order: after publishing, a worker drains the watermark while the next
//! uncommitted node is resolved. Every commit replays the exact
//! free-sources-then-store accounting of the breadth-first pass, so
//! `peak_memory_bytes`, `resolutions` and `clauses_built` are a pure
//! function of the trace, bit-identical for every `--jobs` value.
//!
//! ## Errors
//!
//! Failures land on a shared error board keyed by node index, and the
//! reported error is the one with the smallest index — the same "first
//! failure in trace order" the sequential pass reports (a node can only
//! fail if all its ancestors succeeded, so the minimum is exactly the
//! sequential first error). Workers prune any popped node above the
//! current minimum errored index, and a panic inside a worker is caught
//! and boarded as [`CheckError::WorkerPanic`] instead of aborting.

use crate::api::CheckConfig;
use crate::dag::{Dag, ORIGINAL_TAG};
use crate::error::CheckError;
use crate::kernel::{KernelStats, ResolutionKernel};
use crate::memory::{clause_bytes, MemoryMeter};
use rescheck_cnf::Lit;
use rescheck_obs::{Event, EventBuffer, Observer};
use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, PoisonError, RwLock};
use std::thread;

/// Renders a caught panic payload into a printable message. Panics carry
/// `&str` or `String` payloads from `panic!`; anything else (a custom
/// `panic_any`) is reported opaquely rather than dropped.
pub(crate) fn panic_message(who: &str, payload: &(dyn Any + Send)) -> String {
    let what = payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string());
    format!("{who} panicked: {what}")
}

/// Converts a thread join result into a structured [`CheckError`]: a
/// panicked worker becomes [`CheckError::WorkerPanic`] (kind
/// [`FailureKind::Internal`](crate::FailureKind::Internal)) instead of
/// aborting the whole process, so callers that manage many checks — the
/// serve daemon above all — can fail one job and keep running.
pub(crate) fn join_or_internal<T>(who: &str, joined: thread::Result<T>) -> Result<T, CheckError> {
    joined.map_err(|payload| CheckError::WorkerPanic {
        what: panic_message(who, payload.as_ref()),
    })
}

/// Resolves `config.jobs` to an actual worker count.
pub(crate) fn effective_jobs(jobs: usize) -> usize {
    if jobs == 0 {
        thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(8)
    } else {
        jobs
    }
}

/// The most workers that can possibly help on this machine. `--jobs` is
/// a cap, not a demand: threads beyond the available cores only add
/// scheduling overhead, never throughput, and the parallel-dag stats
/// are a pure function of the trace anyway, so clamping is observable
/// only as speed.
pub(crate) fn max_useful_workers() -> usize {
    thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Everything the executor hands back on success.
pub(crate) struct ExecResult {
    /// The meter after every commit (its peak is the reported stat).
    pub meter: MemoryMeter,
    /// Resolution steps performed across all committed nodes.
    pub resolutions: u64,
    /// Nodes committed (every learned clause, on success).
    pub clauses_built: u64,
    /// Completion slots; pinned nodes still hold their clause for the
    /// final phase, free-at-last-use already emptied the rest.
    pub slots: Vec<Option<Box<[Lit]>>>,
}

/// One worker's deque: owner pushes/pops the back, thieves pop the
/// front. `len` mirrors the ring length so scans skip empty queues
/// without touching the lock.
struct WorkerQueue {
    ring: Mutex<VecDeque<u32>>,
    len: AtomicUsize,
}

/// Commit-side state, advanced only under the watermark lock.
struct CommitState {
    /// Next node index to commit (the watermark).
    next: u32,
    meter: MemoryMeter,
    resolutions: u64,
    clauses_built: u64,
    /// Remaining uses per node before its clause can be freed.
    use_remaining: Vec<u32>,
    /// Commit-side metric samples (stored-clause lengths), replayed
    /// after the join.
    buffer: EventBuffer,
}

/// Parked-worker bookkeeping under the idle lock.
struct Idle {
    sleeping: usize,
    done: bool,
}

/// State shared by all workers through the scope.
struct Shared<'d> {
    dag: &'d Dag,
    jobs: usize,
    /// Published resolvents, write-once then read-shared; emptied by the
    /// committer at last use.
    slots: Vec<RwLock<Option<Box<[Lit]>>>>,
    /// Outstanding learned sources per node; the final decrement
    /// schedules the node.
    indeg: Vec<AtomicU32>,
    /// Set (release) after a node's resolvent is published.
    resolved: Vec<AtomicBool>,
    queues: Vec<WorkerQueue>,
    commit: Mutex<CommitState>,
    /// Smallest errored node index, `u32::MAX` when none.
    min_error: AtomicU32,
    errors: Mutex<Vec<(u32, CheckError)>>,
    idle: Mutex<Idle>,
    parked: Condvar,
}

/// Every lock here guards state that stays consistent across a panicking
/// holder (workers never panic mid-update on purpose; a poisoned run is
/// already failing through the error board), so poison is stripped
/// rather than cascaded.
fn unpoison<G>(r: Result<G, PoisonError<G>>) -> G {
    r.unwrap_or_else(PoisonError::into_inner)
}

impl<'d> Shared<'d> {
    fn record_error(&self, node: u32, err: CheckError) {
        self.min_error.fetch_min(node, Ordering::AcqRel);
        unpoison(self.errors.lock()).push((node, err));
    }

    /// Pushes a ready node onto worker `w`'s deque and wakes a sleeper.
    fn push_ready(&self, w: usize, node: u32, high_water: &mut usize) {
        let q = &self.queues[w];
        {
            let mut ring = unpoison(q.ring.lock());
            ring.push_back(node);
            let l = ring.len();
            q.len.store(l, Ordering::Release);
            *high_water = (*high_water).max(l);
        }
        if self.jobs > 1 {
            let idle = unpoison(self.idle.lock());
            if idle.sleeping > 0 {
                self.parked.notify_one();
            }
        }
    }

    /// Pops the back of the worker's own deque.
    fn pop_own(&self, w: usize) -> Option<u32> {
        let q = &self.queues[w];
        if q.len.load(Ordering::Acquire) == 0 {
            return None;
        }
        let mut ring = unpoison(q.ring.lock());
        let node = ring.pop_back();
        q.len.store(ring.len(), Ordering::Release);
        node
    }

    /// Steals the front of another worker's deque.
    fn steal_from(&self, victim: usize) -> Option<u32> {
        let q = &self.queues[victim];
        if q.len.load(Ordering::Acquire) == 0 {
            return None;
        }
        let mut ring = unpoison(q.ring.lock());
        let node = ring.pop_front();
        q.len.store(ring.len(), Ordering::Release);
        node
    }

    fn any_queue_nonempty(&self) -> bool {
        self.queues
            .iter()
            .any(|q| q.len.load(Ordering::Acquire) != 0)
    }

    /// Commits every consecutively-resolved node at the watermark,
    /// replaying breadth-first's free-then-store accounting in trace
    /// order. Called with the watermark lock held; errors (memory limit,
    /// cancellation) are boarded at the exact node index where the
    /// sequential pass would raise them.
    fn drain_watermark(&self, g: &mut CommitState, cancel: &crate::cancel::CancelFlag) {
        let total = self.dag.nodes.len() as u32;
        while g.next < total {
            let i = g.next as usize;
            if !self.resolved[i].load(Ordering::Acquire) {
                break;
            }
            let node = &self.dag.nodes[i];
            // Free sources whose last use this was — before storing the
            // resolvent, exactly like the breadth-first pass.
            for &s in self.dag.sources(g.next) {
                if s & ORIGINAL_TAG != 0 {
                    continue;
                }
                let j = s as usize;
                g.use_remaining[j] -= 1;
                if g.use_remaining[j] == 0 && !self.dag.nodes[j].pinned {
                    if let Some(freed) = unpoison(self.slots[j].write()).take() {
                        g.meter.free(clause_bytes(freed.len()));
                    }
                }
            }
            if node.stored {
                let len = unpoison(self.slots[i].read())
                    .as_ref()
                    .map(|b| b.len())
                    .expect("resolved node has a published clause");
                if let Err(e) = g.meter.alloc(clause_bytes(len)) {
                    self.record_error(g.next, e);
                    break;
                }
                g.buffer.observe(&Event::HistRecord {
                    name: "check.resolve.clause_len",
                    value: len as u64,
                });
            } else {
                // Dead on arrival: verified, never stored.
                unpoison(self.slots[i].write()).take();
            }
            g.resolutions += node.resolutions();
            g.clauses_built += 1;
            g.next += 1;
            if g.clauses_built
                .is_multiple_of(crate::chain::PROGRESS_STRIDE)
            {
                if let Err(e) = cancel.check() {
                    self.record_error(g.next, e);
                    break;
                }
            }
        }
    }
}

/// Per-worker counters returned through the join.
struct WorkerReport {
    resolved: u64,
    steals: u64,
    queue_high_water: usize,
    kernel: KernelStats,
    buffer: EventBuffer,
}

/// One worker's main loop.
fn worker_loop(shared: &Shared<'_>, w: usize, cancel: &crate::cancel::CancelFlag) -> WorkerReport {
    let mut kernel = ResolutionKernel::new();
    let mut report = WorkerReport {
        resolved: 0,
        steals: 0,
        queue_high_water: 0,
        kernel: KernelStats::default(),
        buffer: EventBuffer::new(),
    };
    'run: loop {
        // Find work: own deque first, then steal round-robin.
        let mut node = shared.pop_own(w);
        if node.is_none() && shared.jobs > 1 {
            for k in 1..shared.jobs {
                if let Some(stolen) = shared.steal_from((w + k) % shared.jobs) {
                    report.steals += 1;
                    node = Some(stolen);
                    break;
                }
            }
        }
        let Some(node) = node else {
            // Park until new work arrives; the last sleeper with every
            // deque empty declares the run finished.
            let mut idle = unpoison(shared.idle.lock());
            loop {
                if idle.done {
                    break 'run;
                }
                if shared.any_queue_nonempty() {
                    continue 'run;
                }
                idle.sleeping += 1;
                if idle.sleeping == shared.jobs {
                    idle.done = true;
                    shared.parked.notify_all();
                    break 'run;
                }
                idle = unpoison(shared.parked.wait(idle));
                idle.sleeping -= 1;
            }
        };
        process_node(shared, w, node, &mut kernel, &mut report, cancel);
    }
    report.kernel = kernel.stats();
    report
}

/// Resolves one node, publishes or boards the result, schedules newly
/// ready dependents and advances the watermark.
fn process_node(
    shared: &Shared<'_>,
    w: usize,
    node: u32,
    kernel: &mut ResolutionKernel,
    report: &mut WorkerReport,
    cancel: &crate::cancel::CancelFlag,
) {
    // A smaller-index error already decides the run; this node's
    // outcome cannot be observed, so skip its work entirely.
    if shared.min_error.load(Ordering::Acquire) < node {
        return;
    }
    let meta = &shared.dag.nodes[node as usize];
    let srcs = shared.dag.sources(node);
    let outcome = catch_unwind(AssertUnwindSafe(|| -> Result<Box<[Lit]>, CheckError> {
        for (step, &s) in srcs.iter().enumerate() {
            let fold = if s & ORIGINAL_TAG != 0 {
                let clause = &shared.dag.originals[(s & !ORIGINAL_TAG) as usize];
                if step == 0 {
                    kernel.begin(clause);
                    continue;
                }
                kernel.fold(clause)
            } else {
                let guard = unpoison(shared.slots[s as usize].read());
                let clause = guard
                    .as_ref()
                    .expect("scheduled only after every learned source published");
                if step == 0 {
                    kernel.begin(clause);
                    continue;
                }
                kernel.fold(clause)
            };
            fold.map_err(|failure| CheckError::NotResolvable {
                target: Some(meta.id),
                step,
                with: shared.dag.source_id(s),
                failure,
            })?;
        }
        if let Some(stop) = shared.dag.structural {
            if stop.node == node {
                // The truncated prefix folded cleanly; the missing
                // source is the step the sequential pass fails at.
                return Err(stop.to_error(meta.id));
            }
        }
        Ok(kernel.finish().into())
    }));
    let lits = match outcome {
        Ok(Ok(lits)) => lits,
        Ok(Err(e)) => {
            shared.record_error(node, e);
            return;
        }
        Err(payload) => {
            shared.record_error(
                node,
                CheckError::WorkerPanic {
                    what: panic_message(&format!("parallel-dag worker {w}"), payload.as_ref()),
                },
            );
            return;
        }
    };
    report.buffer.observe(&Event::HistRecord {
        name: "check.resolve.chain_len",
        value: srcs.len() as u64,
    });
    report.resolved += 1;

    // Publish, then release dependents whose last source this was.
    *unpoison(shared.slots[node as usize].write()) = Some(lits);
    shared.resolved[node as usize].store(true, Ordering::Release);
    for &d in shared.dag.dependents(node) {
        if shared.indeg[d as usize].fetch_sub(1, Ordering::AcqRel) == 1 {
            shared.push_ready(w, d, &mut report.queue_high_water);
        }
    }

    // Advance the watermark past everything now consecutively resolved.
    let mut g = unpoison(shared.commit.lock());
    shared.drain_watermark(&mut g, cancel);
}

/// The single-worker fast path: trace order is already a topological
/// order (edges only point backward), so one thread walks the nodes in
/// order with plain vectors — no spawns, no locks, no atomics. Each
/// node commits immediately after it resolves, which is exactly the
/// watermark's trace-order commit with the watermark always at the
/// cursor, so every counter and the meter's peak are bit-identical to
/// the threaded path. Panics in the resolution closure are still
/// caught and surfaced as [`CheckError::WorkerPanic`], matching the
/// threaded path's behavior for any worker count.
fn execute_inline(
    dag: &Dag,
    meter: MemoryMeter,
    config: &CheckConfig,
    obs: &mut dyn Observer,
) -> Result<ExecResult, CheckError> {
    let total = dag.nodes.len();
    let mut slots: Vec<Option<Box<[Lit]>>> = (0..total).map(|_| None).collect();
    let mut use_remaining: Vec<u32> = dag.nodes.iter().map(|n| n.use_count).collect();
    let mut meter = meter;
    let mut resolutions = 0u64;
    let mut clauses_built = 0u64;
    let mut kernel = ResolutionKernel::new();
    let cancel = &config.cancel;
    for i in 0..total {
        let node = i as u32;
        let meta = &dag.nodes[i];
        let srcs = dag.sources(node);
        let outcome = catch_unwind(AssertUnwindSafe(|| -> Result<Box<[Lit]>, CheckError> {
            for (step, &s) in srcs.iter().enumerate() {
                let clause: &[Lit] = if s & ORIGINAL_TAG != 0 {
                    &dag.originals[(s & !ORIGINAL_TAG) as usize]
                } else {
                    slots[s as usize]
                        .as_deref()
                        .expect("trace-order walk resolves sources before dependents")
                };
                if step == 0 {
                    kernel.begin(clause);
                    continue;
                }
                kernel
                    .fold(clause)
                    .map_err(|failure| CheckError::NotResolvable {
                        target: Some(meta.id),
                        step,
                        with: dag.source_id(s),
                        failure,
                    })?;
            }
            if let Some(stop) = dag.structural {
                if stop.node == node {
                    return Err(stop.to_error(meta.id));
                }
            }
            Ok(kernel.finish().into())
        }));
        let lits = match outcome {
            Ok(Ok(lits)) => lits,
            Ok(Err(e)) => return Err(e),
            Err(payload) => {
                return Err(CheckError::WorkerPanic {
                    what: panic_message("parallel-dag worker 0", payload.as_ref()),
                })
            }
        };
        obs.observe(&Event::HistRecord {
            name: "check.resolve.chain_len",
            value: srcs.len() as u64,
        });

        // Commit: free last-use sources, then store — the same order as
        // `drain_watermark`, hence the same meter peak.
        for &s in srcs {
            if s & ORIGINAL_TAG != 0 {
                continue;
            }
            let j = s as usize;
            use_remaining[j] -= 1;
            if use_remaining[j] == 0 && !dag.nodes[j].pinned {
                if let Some(freed) = slots[j].take() {
                    meter.free(clause_bytes(freed.len()));
                }
            }
        }
        if meta.stored {
            meter.alloc(clause_bytes(lits.len()))?;
            obs.observe(&Event::HistRecord {
                name: "check.resolve.clause_len",
                value: lits.len() as u64,
            });
            slots[i] = Some(lits);
        }
        resolutions += meta.resolutions();
        clauses_built += 1;
        if clauses_built.is_multiple_of(crate::chain::PROGRESS_STRIDE) {
            cancel.check()?;
        }
    }

    obs.observe(&Event::HistRecord {
        name: "check.executor.resolved_per_worker",
        value: total as u64,
    });
    obs.observe(&Event::HistRecord {
        name: "check.executor.steals_per_worker",
        value: 0,
    });
    obs.observe(&Event::HistRecord {
        name: "check.executor.queue_high_water",
        value: 0,
    });
    obs.observe(&Event::GaugeSet {
        name: "check.executor.workers",
        value: 1.0,
    });
    obs.observe(&Event::GaugeSet {
        name: "check.executor.steals",
        value: 0.0,
    });
    crate::chain::emit_kernel_gauges(obs, &kernel.stats(), 0, 0);

    Ok(ExecResult {
        meter,
        resolutions,
        clauses_built,
        slots,
    })
}

/// Runs the executor over a built DAG and returns the committed totals.
///
/// On a trace defect (or an injected worker panic) the minimum-index
/// board entry is returned — the identical error the sequential
/// breadth-first pass reports for the same trace.
pub(crate) fn execute(
    dag: &Dag,
    jobs: usize,
    meter: MemoryMeter,
    config: &CheckConfig,
    obs: &mut dyn Observer,
) -> Result<ExecResult, CheckError> {
    let total = dag.nodes.len();
    let jobs = jobs.max(1);
    if jobs == 1 {
        return execute_inline(dag, meter, config, obs);
    }
    let shared = Shared {
        dag,
        jobs,
        slots: (0..total).map(|_| RwLock::new(None)).collect(),
        indeg: dag.nodes.iter().map(|n| AtomicU32::new(n.indeg)).collect(),
        resolved: (0..total).map(|_| AtomicBool::new(false)).collect(),
        queues: (0..jobs)
            .map(|_| WorkerQueue {
                ring: Mutex::new(VecDeque::new()),
                len: AtomicUsize::new(0),
            })
            .collect(),
        commit: Mutex::new(CommitState {
            next: 0,
            meter,
            resolutions: 0,
            clauses_built: 0,
            use_remaining: dag.nodes.iter().map(|n| n.use_count).collect(),
            buffer: EventBuffer::new(),
        }),
        min_error: AtomicU32::new(u32::MAX),
        errors: Mutex::new(Vec::new()),
        idle: Mutex::new(Idle {
            sleeping: 0,
            done: false,
        }),
        parked: Condvar::new(),
    };
    // Seed the deques with every source-free node, round-robin so all
    // workers start busy.
    for (i, n) in dag.nodes.iter().enumerate() {
        if n.indeg == 0 {
            let q = &shared.queues[i % jobs];
            let mut ring = unpoison(q.ring.lock());
            ring.push_back(i as u32);
            q.len.store(ring.len(), Ordering::Release);
        }
    }

    let cancel = &config.cancel;
    let reports = thread::scope(|scope| {
        let handles: Vec<_> = (0..jobs)
            .map(|w| {
                let shared = &shared;
                scope.spawn(move || worker_loop(shared, w, cancel))
            })
            .collect();
        handles
            .into_iter()
            .enumerate()
            .map(|(w, h)| join_or_internal(&format!("parallel-dag worker {w}"), h.join()))
            .collect::<Result<Vec<_>, _>>()
    })?;

    // The minimum-index board entry is the sequential first error.
    let mut errors = unpoison(shared.errors.lock());
    if !errors.is_empty() {
        let min = errors
            .iter()
            .enumerate()
            .min_by_key(|(_, (node, _))| *node)
            .map(|(pos, _)| pos)
            .expect("non-empty");
        return Err(errors.swap_remove(min).1);
    }
    drop(errors);

    let commit = unpoison(shared.commit.lock()).next;
    if (commit as usize) != total {
        // Unreachable for a well-formed build (edges always point
        // backward), kept as a structured failure rather than a hang.
        return Err(CheckError::WorkerPanic {
            what: "parallel-dag executor stalled before completing the graph".to_string(),
        });
    }

    // Per-worker attribution and aggregate executor gauges.
    let mut kernel_total = KernelStats::default();
    let mut steals_total = 0u64;
    for report in &reports {
        report.buffer.replay(obs);
        obs.observe(&Event::HistRecord {
            name: "check.executor.resolved_per_worker",
            value: report.resolved,
        });
        obs.observe(&Event::HistRecord {
            name: "check.executor.steals_per_worker",
            value: report.steals,
        });
        obs.observe(&Event::HistRecord {
            name: "check.executor.queue_high_water",
            value: report.queue_high_water as u64,
        });
        steals_total += report.steals;
        kernel_total.chains += report.kernel.chains;
        kernel_total.literals_folded += report.kernel.literals_folded;
        kernel_total.scratch_grows += report.kernel.scratch_grows;
        kernel_total.scratch_high_water = kernel_total
            .scratch_high_water
            .max(report.kernel.scratch_high_water);
    }
    obs.observe(&Event::GaugeSet {
        name: "check.executor.workers",
        value: jobs as f64,
    });
    obs.observe(&Event::GaugeSet {
        name: "check.executor.steals",
        value: steals_total as f64,
    });
    let state = shared
        .commit
        .into_inner()
        .unwrap_or_else(|e| e.into_inner());
    state.buffer.replay(obs);
    crate::chain::emit_kernel_gauges(obs, &kernel_total, 0, 0);

    Ok(ExecResult {
        meter: state.meter,
        resolutions: state.resolutions,
        clauses_built: state.clauses_built,
        slots: shared
            .slots
            .into_iter()
            .map(|s| s.into_inner().unwrap_or_else(|e| e.into_inner()))
            .collect(),
    })
}
