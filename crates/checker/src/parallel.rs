//! Threading plumbing for the parallel-dag strategy
//! ([`Strategy::ParallelDag`](crate::Strategy::ParallelDag)), built on
//! scoped threads only (the workspace stays free of external
//! dependencies): worker-count resolution, the small-trace fallback, the
//! shared trace map, panic-to-error conversion, and the two decoders that
//! fan a mapped binary trace out over the workers.
//!
//! For binary *file* traces whose [`TraceMap`] carries a block index,
//! pass 1 runs on every worker: each decodes its own disjoint byte shard
//! of the shared map (see [`rescheck_trace::BlockIndex::shard_ranges`])
//! straight into compact merge records, and the shards meet in a
//! trace-order replay through the same [`Pass1Tables`] methods the
//! sequential pass calls, so a malformed trace produces the identical
//! first error. Unmapped sources run [`sequential_pass1`] on the calling
//! thread instead.
//!
//! [`sequential_pass1`]: crate::breadth_first::sequential_pass1

use crate::api::CheckConfig;
use crate::breadth_first::Pass1Tables;
use crate::cancel::CancelFlag;
use crate::error::CheckError;
use crate::fxhash::FxHashMap;
use rescheck_cnf::Lit;
use rescheck_obs::{Event, EventBuffer, Level, Observer, Phase};
use rescheck_trace::{
    BlockIndex, EventRef, ShardRange, SliceDecoder, TraceEvent, TraceMap, TraceSource,
};
use std::any::Any;
use std::io;
use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

/// Events per `pass1.batch_events` histogram sample of a shard decoder.
const BATCH_EVENTS: usize = 256;

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

/// Whether parallel-dag should step aside for plain sequential
/// breadth-first: the trace's learned-clause count is below
/// [`CheckConfig::parallel_min_learned`]. With an established
/// [`TraceMap`] whose block index scanned cleanly the count is *exact*;
/// otherwise it is estimated from the encoded size, and unsized trace
/// sources never fall back — there is no estimate to compare.
pub(crate) fn small_trace_fallback<S: TraceSource + ?Sized>(
    trace: &S,
    map: Option<&TraceMap>,
    config: &CheckConfig,
    obs: &mut dyn Observer,
) -> bool {
    if config.parallel_min_learned == 0 {
        return false;
    }
    let (hint, how) = match map.and_then(TraceMap::block_index) {
        Some(index) => (index.learned() as usize, "has "),
        None => match trace.encoded_size().map(crate::model::table_capacity_hint) {
            Some(hint) => (hint, "estimates ~"),
            None => return false,
        },
    };
    if hint >= config.parallel_min_learned {
        return false;
    }
    obs.observe(&Event::Message {
        level: Level::Info,
        text: &format!(
            "trace {how}{hint} learned clauses (below parallel_min_learned = {}); \
             running sequential breadth-first",
            config.parallel_min_learned
        ),
    });
    true
}

/// Establishes the trace's shared byte map (when the source supports
/// one) inside a `trace-map` phase and reports its size.
pub(crate) fn establish_map<'a, S: TraceSource + ?Sized>(
    trace: &'a S,
    obs: &mut dyn Observer,
) -> Option<&'a TraceMap> {
    let phase = Phase::start("trace-map", obs);
    let map = trace.trace_map();
    if let Some(map) = map {
        obs.observe(&Event::GaugeSet {
            name: "check.map.bytes",
            value: map.accounted_bytes() as f64,
        });
    }
    phase.finish(obs);
    map
}

/// A compact record of one pass-1-relevant event, tagged with its global
/// position in the trace so shards can be merged back into trace order.
/// Learned records keep only the source *count* — the counting itself
/// happened in the shard — so a merge moves O(1) data per event.
enum Meta {
    Learned {
        idx: u64,
        id: u64,
        num_sources: usize,
    },
    LevelZero {
        idx: u64,
        lit: Lit,
        antecedent: u64,
    },
    Final {
        idx: u64,
        id: u64,
    },
}

impl Meta {
    fn idx(&self) -> u64 {
        match *self {
            Meta::Learned { idx, .. } | Meta::LevelZero { idx, .. } | Meta::Final { idx, .. } => {
                idx
            }
        }
    }
}

/// One mapped-decode worker: decodes the disjoint byte range
/// `[range.start, range.end)` of the shared map straight into [`Meta`]
/// records and local use counts — no owned events and no channel, just
/// a [`SliceDecoder`] walking borrowed bytes. Event indices are global
/// (`range.first_event` plus the local position), so the coordinator
/// can merge every shard back into trace order. A decode error is
/// returned with the global index it occurred at; everything decoded
/// before it is still valid prefix.
#[allow(clippy::type_complexity)]
fn decode_shard(
    bytes: &[u8],
    range: ShardRange,
    num_original: usize,
) -> (
    Vec<Meta>,
    FxHashMap<u64, u32>,
    EventBuffer,
    Duration,
    Option<(u64, io::Error)>,
) {
    let started = Instant::now();
    let mut buffer = EventBuffer::new();
    let mut metas: Vec<Meta> = Vec::new();
    let mut counts: FxHashMap<u64, u32> = FxHashMap::default();
    let mut decoder = SliceDecoder::resume_at(&bytes[..range.end], range.start);
    let mut io_err: Option<(u64, io::Error)> = None;
    let mut local: u64 = 0;
    let mut batch_events: u64 = 0;
    loop {
        let idx = range.first_event + local;
        match decoder.next_event() {
            Ok(Some(event)) => {
                match event {
                    EventRef::Learned { id, sources } => {
                        for &s in sources {
                            if s >= num_original as u64 {
                                *counts.entry(s).or_insert(0) += 1;
                            }
                        }
                        metas.push(Meta::Learned {
                            idx,
                            id,
                            num_sources: sources.len(),
                        });
                    }
                    EventRef::LevelZero { lit, antecedent } => metas.push(Meta::LevelZero {
                        idx,
                        lit,
                        antecedent,
                    }),
                    EventRef::FinalConflict { id } => metas.push(Meta::Final { idx, id }),
                }
                local += 1;
                batch_events += 1;
                if batch_events == BATCH_EVENTS as u64 {
                    buffer.observe(&Event::HistRecord {
                        name: "pass1.batch_events",
                        value: batch_events,
                    });
                    batch_events = 0;
                }
            }
            Ok(None) => break,
            Err(e) => {
                io_err = Some((idx, e));
                break;
            }
        }
    }
    if batch_events > 0 {
        buffer.observe(&Event::HistRecord {
            name: "pass1.batch_events",
            value: batch_events,
        });
    }
    buffer.observe(&Event::GaugeSet {
        name: "pass1.events",
        value: metas.len() as f64,
    });
    (metas, counts, buffer, started.elapsed(), io_err)
}

/// Pass 1 decoded in place from a shared [`TraceMap`]: the block index
/// splits the encoded bytes into per-worker shards at event-aligned
/// boundaries, every worker runs [`decode_shard`] over its own range,
/// and the compact records replay in trace order through the same
/// [`Pass1Tables`] methods the sequential pass calls. No event ever
/// crosses a channel.
///
/// Error semantics match the sequential scan: should a shard hit a
/// decode error (unreachable on a cleanly indexed trace, but handled),
/// only records *before* the earliest error position are validated
/// before the error surfaces.
pub(crate) fn mapped_sharded_pass1(
    map: &TraceMap,
    index: &BlockIndex,
    num_original: usize,
    jobs: usize,
    cancel: &CancelFlag,
    obs: &mut dyn Observer,
) -> Result<(Pass1Tables, u64), CheckError> {
    let ranges = index.shard_ranges(jobs);
    obs.observe(&Event::GaugeSet {
        name: "check.pass1.shards",
        value: ranges.len() as f64,
    });
    let bytes = map.bytes();
    let joins: Vec<_> = thread::scope(|scope| {
        let handles: Vec<_> = ranges
            .into_iter()
            .map(|range| scope.spawn(move || decode_shard(bytes, range, num_original)))
            .collect();
        // Join everything before acting on any one failure, as above.
        handles.into_iter().map(|h| h.join()).collect()
    });

    let mut metas: Vec<Meta> = Vec::new();
    let mut merged_counts: FxHashMap<u64, u32> = FxHashMap::default();
    let mut io_err: Option<(u64, io::Error)> = None;
    for (w, joined) in joins.into_iter().enumerate() {
        let (shard_metas, shard_counts, worker_buffer, wall, shard_err) =
            join_or_internal(&format!("pass-1 shard decoder {w}"), joined)?;
        obs.observe(&Event::GaugeSet {
            name: &format!("check.pass1.shard{w}.events"),
            value: shard_metas.len() as f64,
        });
        worker_buffer.replay_prefixed(&format!("check.worker.{w}."), obs);
        obs.observe(&Event::HistRecord {
            name: "check.pass1.worker_wall_us",
            value: wall.as_micros() as u64,
        });
        // A mapped worker decodes and counts in one motion, so its wall
        // time *is* its decode time.
        obs.observe(&Event::HistRecord {
            name: "check.pass1.decode_us",
            value: wall.as_micros() as u64,
        });
        metas.extend(shard_metas);
        for (id, c) in shard_counts {
            *merged_counts.entry(id).or_insert(0) += c;
        }
        if let Some((at, e)) = shard_err {
            if io_err.as_ref().is_none_or(|(prev, _)| at < *prev) {
                io_err = Some((at, e));
            }
        }
    }
    cancel.check()?;

    if let Some((at, _)) = &io_err {
        metas.retain(|m| m.idx() < *at);
    }
    metas.sort_unstable_by_key(Meta::idx);
    let mut tables = Pass1Tables::default();
    let mut seen: u64 = 0;
    for meta in &metas {
        seen += 1;
        if seen.is_multiple_of(crate::chain::PROGRESS_STRIDE) {
            cancel.check()?;
        }
        match *meta {
            Meta::Learned {
                id, num_sources, ..
            } => tables.absorb_learned(id, num_sources, num_original)?,
            Meta::LevelZero {
                lit, antecedent, ..
            } => tables.absorb_level_zero(lit, antecedent, num_original)?,
            Meta::Final { id, .. } => tables.absorb_final(id),
        }
    }
    if let Some((_, e)) = io_err {
        return Err(CheckError::Trace(e));
    }
    for (id, c) in merged_counts {
        *tables.use_counts.entry(id).or_insert(0) += c;
    }
    let start_id = tables.finish(num_original)?;
    Ok((tables, start_id))
}

/// Decodes a mapped trace on `jobs` workers and replays every event to
/// `visit` in exact trace order.
///
/// The block index splits the bytes into `4 × jobs` chunks; workers
/// pull chunk numbers from a shared counter, decode each chunk into an
/// owned event vector, and ship it back tagged with its number. The
/// calling thread holds out-of-order arrivals in a small reorder buffer
/// and visits chunks strictly in sequence — so a visitor that builds
/// order-dependent state (the DAG build pass) sees the byte-exact
/// sequential stream while the decode work, the dominant cost of the
/// pass, runs on every worker. Dropping the receiver on a visitor error
/// unblocks the workers, and the scope joins them before returning.
pub(crate) fn mapped_visit_ordered(
    bytes: &[u8],
    index: &BlockIndex,
    jobs: usize,
    visit: &mut dyn FnMut(EventRef<'_>) -> io::Result<()>,
) -> io::Result<()> {
    let chunks = index.shard_ranges(jobs * 4);
    let total = chunks.len();
    let next = std::sync::atomic::AtomicUsize::new(0);
    thread::scope(|scope| -> io::Result<()> {
        type ChunkReport = (usize, Vec<TraceEvent>, Option<io::Error>);
        let (tx, rx) = mpsc::sync_channel::<ChunkReport>(jobs.max(1));
        for _ in 0..jobs.max(1).min(total.max(1)) {
            let tx = tx.clone();
            let next = &next;
            let chunks = &chunks;
            scope.spawn(move || loop {
                let c = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                let Some(range) = chunks.get(c) else {
                    return;
                };
                let mut events: Vec<TraceEvent> = Vec::new();
                let mut decoder = SliceDecoder::resume_at(&bytes[..range.end], range.start);
                let err = loop {
                    match decoder.next_event() {
                        Ok(Some(event)) => events.push(event.to_owned()),
                        Ok(None) => break None,
                        Err(e) => break Some(e),
                    }
                };
                let failed = err.is_some();
                if tx.send((c, events, err)).is_err() || failed {
                    return;
                }
            });
        }
        drop(tx);

        let mut pending: std::collections::BTreeMap<usize, (Vec<TraceEvent>, Option<io::Error>)> =
            std::collections::BTreeMap::new();
        let mut next_visit = 0usize;
        for (c, events, err) in rx {
            pending.insert(c, (events, err));
            while let Some((events, err)) = pending.remove(&next_visit) {
                for event in &events {
                    visit(event.as_ref())?;
                }
                if let Some(e) = err {
                    return Err(e);
                }
                next_visit += 1;
            }
            if next_visit == total {
                break;
            }
        }
        if next_visit < total {
            // Unreachable unless a decode worker died without reporting.
            return Err(io::Error::other("parallel trace decode lost a chunk"));
        }
        Ok(())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::outcome::Strategy;
    use crate::FailureKind;
    use rescheck_cnf::Cnf;
    use rescheck_obs::NullObserver;
    use rescheck_trace::{BinaryWriter, FileTrace, MemorySink, RandomAccessTrace, TraceSink};

    /// An implication-chain instance whose proof uses each learned
    /// clause exactly once.
    fn chain(n: i64) -> (Cnf, MemorySink) {
        let mut cnf = Cnf::new();
        cnf.add_dimacs_clause(&[1]);
        for i in 1..n {
            cnf.add_dimacs_clause(&[-i, i + 1]);
        }
        cnf.add_dimacs_clause(&[-n]);
        let mut sink = MemorySink::new();
        let mut prev = 0u64;
        for i in 1..n {
            let next_id = (n + i) as u64;
            sink.learned(next_id, &[prev, i as u64]).unwrap();
            prev = next_id;
        }
        sink.level_zero(Lit::from_dimacs(n), prev).unwrap();
        sink.final_conflict(n as u64).unwrap();
        (cnf, sink)
    }

    #[test]
    fn parallel_dag_rejects_malformed_traces_like_breadth_first() {
        // Malformed traces must fail with breadth-first's first error,
        // both through the sequential pass 1 of an in-memory trace and
        // through the mapped sharded pass 1 of a binary file trace, whose
        // merge replays every shard in trace order. The chain is long
        // enough for the block index to split it into several shards.
        type Mutation = Box<dyn Fn(&mut Vec<TraceEvent>)>;
        let cases: Vec<Mutation> = vec![
            // Duplicate learned id mid-trace.
            Box::new(|events| {
                let dup = events[100].clone();
                events.insert(4000, dup);
            }),
            // Forward reference.
            Box::new(|events| {
                if let TraceEvent::Learned { sources, .. } = &mut events[10] {
                    sources[0] = 1_000_000;
                }
            }),
            // Self-referencing clause.
            Box::new(|events| {
                if let TraceEvent::Learned { id, sources } = &mut events[3000] {
                    sources[0] = *id;
                }
            }),
            // Empty source list (case 3).
            Box::new(|events| {
                if let TraceEvent::Learned { sources, .. } = &mut events[4500] {
                    sources.clear();
                }
            }),
        ];
        let config = CheckConfig {
            jobs: 4,
            parallel_min_learned: 0,
            ..CheckConfig::default()
        };
        let path = std::env::temp_dir().join(format!(
            "rescheck-parallel-malformed-{}.rtb",
            std::process::id()
        ));
        for (i, mutate) in cases.iter().enumerate() {
            let (cnf, sink) = chain(6000);
            let mut events = sink.into_events();
            mutate(&mut events);
            let sink = MemorySink::from(events.clone());
            let first_error = |trace: &(dyn RandomAccessTrace + Sync)| {
                let bf = crate::api::check_breadth_first(&cnf, trace, &config);
                let pdag = crate::dag::run(&cnf, trace, &config, &mut NullObserver);
                (bf.unwrap_err().to_string(), pdag.unwrap_err().to_string())
            };
            let (bf, pdag) = first_error(&sink);
            assert_eq!(pdag, bf, "case {i}, in memory");

            {
                let file = std::fs::File::create(&path).unwrap();
                let mut writer = BinaryWriter::new(std::io::BufWriter::new(file)).unwrap();
                for e in &events {
                    writer.event(e).unwrap();
                }
                writer.flush().unwrap();
            }
            let trace = FileTrace::open(&path).unwrap();
            // An empty source list does not even decode, so its map has
            // no block index and pdag streams it; every other case takes
            // the sharded merge.
            let indexed = trace.trace_map().is_some_and(|m| m.block_index().is_some());
            assert_eq!(indexed, i != 3, "case {i}");
            let (bf, pdag) = first_error(&trace);
            assert_eq!(pdag, bf, "case {i}, mapped");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn effective_jobs_resolution() {
        assert_eq!(effective_jobs(3), 3);
        assert!(effective_jobs(0) >= 1);
        assert!(effective_jobs(0) <= 8);
    }

    #[test]
    fn join_or_internal_converts_panics() {
        let joined = thread::spawn(|| panic!("boom {}", 42)).join();
        match join_or_internal::<()>("test worker", joined).unwrap_err() {
            CheckError::WorkerPanic { what } => {
                assert!(what.contains("test worker"), "{what}");
                assert!(what.contains("boom 42"), "{what}");
            }
            other => panic!("unexpected error {other:?}"),
        }
        let ok = join_or_internal("test worker", thread::spawn(|| 7).join());
        assert_eq!(ok.unwrap(), 7);
    }

    #[test]
    fn parallel_dag_reports_worker_panics_as_internal_errors() {
        // Corrupt a built DAG so one node lists *itself* as a learned
        // source: its slot cannot have published when the node resolves,
        // so the slot read panics inside the resolution closure — on the
        // inline single-worker path and inside a spawned worker alike.
        // The executor must catch the unwind and surface a structured
        // internal error (exit 5 at the CLI) instead of aborting.
        for workers in [1usize, 2, 4] {
            let (cnf, sink) = chain(64);
            let (tables, start_id) = crate::breadth_first::sequential_pass1(
                &sink,
                cnf.num_clauses(),
                &CancelFlag::default(),
            )
            .unwrap();
            let mut meter = crate::memory::MemoryMeter::unlimited();
            let mut dag = crate::dag::build(
                &cnf,
                &sink,
                &tables,
                start_id,
                &mut meter,
                &CancelFlag::default(),
            )
            .unwrap();
            let (victim, slot) = dag
                .nodes
                .iter()
                .enumerate()
                .find_map(|(i, n)| {
                    (n.src_start..n.src_end)
                        .find(|&s| dag.srcs[s as usize] & crate::dag::ORIGINAL_TAG == 0)
                        .map(|s| (i as u32, s as usize))
                })
                .expect("chain nodes have learned sources");
            dag.srcs[slot] = victim;
            let err = match crate::executor::execute(
                &dag,
                workers,
                crate::memory::MemoryMeter::unlimited(),
                &CheckConfig::default(),
                &mut NullObserver,
            ) {
                Err(e) => e,
                Ok(_) => panic!("corrupted dag must fail ({workers} workers)"),
            };
            assert!(matches!(err, CheckError::WorkerPanic { .. }), "{err:?}");
            assert_eq!(err.kind(), FailureKind::Internal);
        }
    }

    /// A memory trace that claims a (tiny) encoded size, since
    /// [`MemorySink`] itself reports `None` and thus never falls back.
    struct SizedTrace(MemorySink);

    impl TraceSource for SizedTrace {
        fn events_iter(&self) -> io::Result<Box<dyn Iterator<Item = io::Result<TraceEvent>> + '_>> {
            self.0.events_iter()
        }

        fn encoded_size(&self) -> Option<u64> {
            Some(64)
        }
    }

    impl RandomAccessTrace for SizedTrace {
        fn offset_events(&self) -> io::Result<rescheck_trace::OffsetEventsIter<'_>> {
            self.0.offset_events()
        }

        fn open_cursor(&self) -> io::Result<Box<dyn rescheck_trace::TraceCursor + '_>> {
            self.0.open_cursor()
        }
    }

    #[test]
    fn parallel_dag_falls_back_to_sequential_bf_on_tiny_traces() {
        // Below the learned-clause estimate threshold pdag runs the
        // sequential breadth-first code (identical verdict and counters,
        // including the accounting model) while still reporting the
        // strategy the caller asked for.
        let (cnf, sink) = chain(32);
        let config = CheckConfig {
            jobs: 4,
            ..CheckConfig::default()
        };
        let trace = SizedTrace(sink);
        let bf = crate::api::check_breadth_first(&cnf, &trace, &config).unwrap();
        let pdag = crate::dag::run(&cnf, &trace, &config, &mut NullObserver).unwrap();
        assert_eq!(pdag.stats.strategy, Strategy::ParallelDag);
        assert_eq!(pdag.stats.clauses_built, bf.stats.clauses_built);
        assert_eq!(pdag.stats.resolutions, bf.stats.resolutions);
        assert_eq!(pdag.stats.peak_memory_bytes, bf.stats.peak_memory_bytes);

        // With the threshold disabled the real parallel-dag path runs;
        // its accounting model is its own, but the verdict and work
        // counters still match.
        let config = CheckConfig {
            jobs: 4,
            parallel_min_learned: 0,
            ..CheckConfig::default()
        };
        let pdag = crate::dag::run(&cnf, &trace, &config, &mut NullObserver).unwrap();
        assert_eq!(pdag.stats.clauses_built, bf.stats.clauses_built);
        assert_eq!(pdag.stats.resolutions, bf.stats.resolutions);
    }
}
