//! The depth-first checking strategy (paper §3.2, Fig. 3), with the
//! trace resident (`df`) or left on disk (`dfd`).
//!
//! Starting from the final conflicting clause, learned clauses are built
//! by resolution *on demand*, recursively following resolve sources. Only
//! the clauses involved in the empty-clause derivation are ever
//! constructed — between 19% and 90% of the learned clauses in the
//! paper's experiments — and the original clauses touched along the way
//! form an unsatisfiable core.
//!
//! One builder serves both strategies. They differ only in where a
//! learned clause's resolve sources come from, its [`SourceStore`]:
//!
//! - **`df`** reads the whole trace into a resident table first
//!   ([`load_full`]), charged per record. That residency is why the
//!   paper's depth-first checker memory-outs on the two hardest
//!   instances, reproducible here via
//!   [`CheckConfig::memory_limit`](crate::CheckConfig::memory_limit).
//! - **`dfd`** leaves the trace on disk. Its pass 1 records each learned
//!   clause's byte offset in a flat sorted index (16 accounted bytes per
//!   learned clause instead of its source list), and the walk fetches
//!   source lists through a [`TraceCursor`], keeping hot ones in a
//!   memory-accounted [`SourceCache`]. Binary file traces run through
//!   the established [`TraceMap`], whose encoded bytes are charged up
//!   front.
//!
//! Built clauses are never freed, so the two report bit-identical
//! `clauses_built`, `resolutions` and unsat cores; only the peak differs.

use crate::api::CheckConfig;
use crate::cancel::CancelFlag;
use crate::chain::{ChainStep, PROGRESS_STRIDE};
use crate::error::CheckError;
use crate::fxhash::{FxHashMap, FxHashSet};
use crate::memory::{trace_record_bytes, MemoryMeter, INDEX_ENTRY_BYTES, LEVEL_ZERO_RECORD_BYTES};
use crate::model::{load_full, table_capacity_hint, validate_learned, FullTrace, LevelZeroMap};
use crate::outcome::{CheckOutcome, Strategy};
use crate::scratch::CheckScratch;
use rescheck_cnf::Cnf;
use rescheck_obs::{Event, Observer, Phase};
use rescheck_trace::{RandomAccessTrace, TraceCursor, TraceEvent, TraceMap, TraceSource};
use std::collections::VecDeque;
use std::io;
use std::ops::Deref;
use std::rc::Rc;
use std::time::Instant;

/// `df`: depth-first over the trace loaded into memory.
pub(crate) fn run<S: TraceSource + ?Sized>(
    cnf: &Cnf,
    trace: &S,
    config: &CheckConfig,
    scratch: &mut CheckScratch,
    obs: &mut dyn Observer,
) -> Result<CheckOutcome, CheckError> {
    let started = Instant::now();
    let mut meter = MemoryMeter::new(config.memory_limit);

    // The depth-first approach reads the entire trace into main memory.
    let pass1 = Phase::start("check:pass1", obs);
    let full = load_full(trace, cnf.num_clauses(), &config.cancel)?;
    meter.alloc(full.trace_bytes)?;
    pass1.finish(obs);

    let start_id = *full.final_ids.first().ok_or(CheckError::NoFinalConflict)?;
    let mut chain = ChainStep::new(cnf, meter, config, scratch, true, obs);
    walk(&mut &full, &mut chain, start_id, &full.level_zero)?;
    let entries = chain.resident_clauses();
    Ok(chain.finish(
        Strategy::DepthFirst,
        full.sources.len() as u64,
        entries,
        started,
        trace.encoded_size(),
    ))
}

/// `dfd`: depth-first over the trace left on disk.
pub(crate) fn run_disk<S: RandomAccessTrace + ?Sized>(
    cnf: &Cnf,
    trace: &S,
    config: &CheckConfig,
    scratch: &mut CheckScratch,
    obs: &mut dyn Observer,
) -> Result<CheckOutcome, CheckError> {
    let started = Instant::now();
    let mut meter = MemoryMeter::new(config.memory_limit);
    let map = crate::parallel::establish_map(trace, obs);
    if let Some(map) = map {
        // The encoded trace stays resident behind the cursor for the
        // whole check.
        meter.alloc(map.accounted_bytes())?;
    }

    let pass1 = Phase::start("check:pass1", obs);
    let (index, level_zero, final_ids) =
        indexed_pass1(trace, map, cnf.num_clauses(), &mut meter, &config.cancel)?;
    pass1.finish(obs);

    let start_id = *final_ids.first().ok_or(CheckError::NoFinalConflict)?;
    let mut store = DiskSources {
        index,
        cursor: trace.open_cursor()?,
        cache: SourceCache::default(),
        reads: 0,
    };
    let mut chain = ChainStep::new(cnf, meter, config, scratch, true, &mut *obs);
    walk(&mut store, &mut chain, start_id, &level_zero)?;
    let entries = chain.resident_clauses();
    let learned = store.index.entries.len() as u64;
    let outcome = chain.finish(
        Strategy::DiskDepthFirst,
        learned,
        entries,
        started,
        trace.encoded_size(),
    );
    for (name, value) in [
        ("check.dfd.index_entries", learned),
        ("check.dfd.cursor_reads", store.reads),
        ("check.dfd.cache_hits", store.cache.hits),
        ("check.dfd.cache_bytes", store.cache.bytes),
    ] {
        obs.observe(&Event::GaugeSet {
            name,
            value: value as f64,
        });
    }
    Ok(outcome)
}

/// Builds the final conflict's dependency cone, then derives the empty
/// clause, building the level-0 antecedents it consumes on demand.
fn walk<S: SourceStore>(
    store: &mut S,
    chain: &mut ChainStep<'_>,
    start_id: u64,
    level_zero: &LevelZeroMap,
) -> Result<(), CheckError> {
    // The cone is the bulk of the resolution work; the remaining level-0
    // antecedents are built lazily inside the final phase.
    let resolve_phase = Phase::start("check:resolve", &mut *chain.obs);
    build(store, chain, start_id)?;
    resolve_phase.finish(&mut *chain.obs);
    chain.final_phase(start_id, level_zero, |chain, id| build(store, chain, id))
}

/// Ensures clause `id` (and transitively its sources) is built: the
/// iterative equivalent of Fig. 3's `recursive_build`, with explicit
/// gray marking, so deep proofs cannot overflow the native stack and
/// cycles are detected rather than looping.
fn build<S: SourceStore>(
    store: &mut S,
    chain: &mut ChainStep<'_>,
    id: u64,
) -> Result<(), CheckError> {
    if chain.is_resident(id) {
        return Ok(());
    }
    let mut gray: FxHashSet<u64> = FxHashSet::default();
    let mut stack: Vec<(u64, Option<u64>)> = vec![(id, None)];
    while let Some(&(cur, parent)) = stack.last() {
        if chain.is_resident(cur) {
            stack.pop();
            continue;
        }
        let sources = store.sources(cur, parent, &mut chain.meter)?;
        if gray.contains(&cur) {
            // All dependencies were pushed; if one is still gray the
            // graph has a cycle, otherwise build now.
            for &s in sources.iter() {
                if !chain.is_resident(s) && gray.contains(&s) {
                    return Err(CheckError::CyclicProof { id: s });
                }
            }
            chain.resolve(cur, &sources)?;
            chain.store(cur, |meter| store.evict_one(meter))?;
            chain.count_built(sources.len())?;
            stack.pop();
        } else {
            gray.insert(cur);
            for &s in sources.iter() {
                if !chain.is_resident(s) {
                    if gray.contains(&s) {
                        return Err(CheckError::CyclicProof { id: s });
                    }
                    stack.push((s, Some(cur)));
                }
            }
        }
    }
    Ok(())
}

/// Where the depth-first builder finds a learned clause's resolve
/// sources.
trait SourceStore {
    type Sources: Deref<Target = [u64]>;

    /// Gives one cached entry's budget back; `false` when nothing is
    /// cached.
    fn evict_one(&mut self, _meter: &mut MemoryMeter) -> bool {
        false
    }

    /// The resolve sources of learned clause `id`; `meter` pays for any
    /// caching.
    fn sources(
        &mut self,
        id: u64,
        referenced_by: Option<u64>,
        meter: &mut MemoryMeter,
    ) -> Result<Self::Sources, CheckError>;
}

/// `df`'s store: the resident table.
impl<'t> SourceStore for &'t FullTrace {
    type Sources = &'t [u64];

    fn sources(
        &mut self,
        id: u64,
        referenced_by: Option<u64>,
        _meter: &mut MemoryMeter,
    ) -> Result<&'t [u64], CheckError> {
        let full: &'t FullTrace = self;
        full.sources
            .get(&id)
            .map(Vec::as_slice)
            .ok_or(CheckError::UnknownClause { id, referenced_by })
    }
}

/// `dfd`'s store: a cursor fetch through the offset index, from the hot
/// cache when possible.
struct DiskSources<'t> {
    index: FlatIndex,
    cursor: Box<dyn TraceCursor + 't>,
    cache: SourceCache,
    /// Positioned trace reads performed.
    reads: u64,
}

impl SourceStore for DiskSources<'_> {
    type Sources = Rc<[u64]>;

    fn evict_one(&mut self, meter: &mut MemoryMeter) -> bool {
        self.cache.evict_one(meter)
    }

    fn sources(
        &mut self,
        id: u64,
        referenced_by: Option<u64>,
        meter: &mut MemoryMeter,
    ) -> Result<Rc<[u64]>, CheckError> {
        if let Some(sources) = self.cache.get(id) {
            return Ok(sources);
        }
        let offset = self
            .index
            .get(id)
            .ok_or(CheckError::UnknownClause { id, referenced_by })?;
        let sources: Rc<[u64]> = fetch_learned(&mut *self.cursor, id, offset)?.into();
        self.reads += 1;
        self.cache.insert(id, &sources, meter);
        Ok(sources)
    }
}

/// Reads the resolve sources of learned clause `id` from its indexed
/// trace `offset`.
pub(crate) fn fetch_learned(
    cursor: &mut dyn TraceCursor,
    id: u64,
    offset: u64,
) -> Result<Vec<u64>, CheckError> {
    match cursor.event_at(offset).map_err(CheckError::Trace)? {
        TraceEvent::Learned { id: got, sources } if got == id => Ok(sources),
        _ => Err(CheckError::Trace(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("trace offset for clause #{id} no longer addresses its record"),
        ))),
    }
}

/// `dfd`'s pass 1: the flat offset index, the level-0 records and the
/// final-conflict list.
///
/// It reports the same first error, in trace order, as the resident
/// table's pass 1 without keeping a per-id set: duplicate ids are found
/// by sorting the index, on the error path and at the end, and the
/// duplicate whose second definition comes first wins over any later
/// error.
fn indexed_pass1<S: RandomAccessTrace + ?Sized>(
    trace: &S,
    map: Option<&TraceMap>,
    num_original: usize,
    meter: &mut MemoryMeter,
    cancel: &CancelFlag,
) -> Result<(FlatIndex, LevelZeroMap, Vec<u64>), CheckError> {
    let mut entries: Vec<(u64, u64)> = Vec::new();
    if let Some(index) = map.and_then(TraceMap::block_index) {
        entries.reserve(index.learned() as usize);
    } else if let Some(encoded) = trace.encoded_size() {
        entries.reserve(table_capacity_hint(encoded));
    }
    let mut level_zero = LevelZeroMap::default();
    let mut final_ids: Vec<u64> = Vec::new();
    let scan = (|| -> Result<(), CheckError> {
        let mut seen: u64 = 0;
        for item in trace.offset_events()? {
            seen += 1;
            if seen.is_multiple_of(PROGRESS_STRIDE) {
                cancel.check()?;
            }
            match item? {
                (offset, TraceEvent::Learned { id, sources }) => {
                    // Indexed before validation, so a record that is
                    // both a duplicate and short of sources reports
                    // the duplicate, as the resident table does.
                    entries.push((id, offset));
                    validate_learned(id, sources.len(), num_original, |_| false)?;
                    meter.alloc(INDEX_ENTRY_BYTES)?;
                }
                (_, TraceEvent::LevelZero { lit, antecedent }) => {
                    level_zero.insert(lit, antecedent)?;
                    meter.alloc(LEVEL_ZERO_RECORD_BYTES)?;
                }
                (_, TraceEvent::FinalConflict { id }) => final_ids.push(id),
            }
        }
        Ok(())
    })();
    let index = FlatIndex::from_entries(entries)?;
    scan?;
    Ok((index, level_zero, final_ids))
}

/// Learned-clause id → byte offset, stored flat and sorted: half the
/// resident footprint of a hash map at the same entry count, and the
/// 16-byte [`INDEX_ENTRY_BYTES`] accounting matches the layout exactly.
struct FlatIndex {
    entries: Vec<(u64, u64)>,
}

impl FlatIndex {
    /// Sorts the pass-1 entries by (id, offset) and rejects the duplicate
    /// definition that comes first in trace order.
    fn from_entries(mut entries: Vec<(u64, u64)>) -> Result<Self, CheckError> {
        entries.sort_unstable();
        let first_duplicate = entries
            .windows(2)
            .filter(|pair| pair[0].0 == pair[1].0)
            .min_by_key(|pair| pair[1].1);
        if let Some(pair) = first_duplicate {
            return Err(CheckError::DuplicateLearnedId { id: pair[0].0 });
        }
        Ok(FlatIndex { entries })
    }

    fn get(&self, id: u64) -> Option<u64> {
        self.entries
            .binary_search_by_key(&id, |&(entry_id, _)| entry_id)
            .ok()
            .map(|pos| self.entries[pos].1)
    }
}

/// A memory-accounted FIFO cache of fetched source lists (each DFS node
/// needs its list twice: once to push children, once to build). Like
/// [`OriginalCache`](crate::cache::OriginalCache) it only uses spare
/// budget: each list is charged [`trace_record_bytes`], and under
/// pressure the cache evicts oldest-first or skips.
#[derive(Default)]
struct SourceCache {
    map: FxHashMap<u64, Rc<[u64]>>,
    order: VecDeque<u64>,
    bytes: u64,
    hits: u64,
}

impl SourceCache {
    fn get(&mut self, id: u64) -> Option<Rc<[u64]>> {
        let found = self.map.get(&id).cloned();
        if found.is_some() {
            self.hits += 1;
        }
        found
    }

    fn insert(&mut self, id: u64, sources: &Rc<[u64]>, meter: &mut MemoryMeter) {
        if self.map.contains_key(&id) {
            return;
        }
        let cost = trace_record_bytes(sources.len());
        while meter.alloc(cost).is_err() {
            if !self.evict_one(meter) {
                return;
            }
        }
        self.bytes += cost;
        self.order.push_back(id);
        self.map.insert(id, Rc::clone(sources));
    }

    fn evict_one(&mut self, meter: &mut MemoryMeter) -> bool {
        let Some(id) = self.order.pop_front() else {
            return false;
        };
        let evicted = self.map.remove(&id).expect("order and map agree");
        let refund = trace_record_bytes(evicted.len());
        self.bytes -= refund;
        meter.free(refund);
        true
    }
}

/// The checks both source stores must pass. Each takes the store to run,
/// named by its strategy, and [`store_tests`] turns them into tests:
/// `depth_first::tests` runs them on `df`, `disk_df::tests` on `dfd`.
#[cfg(test)]
pub(crate) mod table {
    use super::{run, run_disk};
    use crate::api::CheckConfig;
    use crate::error::CheckError;
    use crate::outcome::{CheckOutcome, Strategy};
    use crate::scratch::CheckScratch;
    use rescheck_cnf::{Cnf, Lit};
    use rescheck_obs::NullObserver;
    use rescheck_trace::{MemorySink, TraceEvent, TraceSink};

    /// Declares one test per `name: check` pair, running
    /// `table::check` on the given store.
    macro_rules! store_tests {
        ($store:expr; $($name:ident: $check:ident),* $(,)?) => {$(
            #[test]
            fn $name() {
                $crate::depth_first::table::$check($store);
            }
        )*};
    }
    pub(crate) use store_tests;

    /// Runs one store on a claim: the resident table for
    /// `Strategy::DepthFirst`, the offset index for
    /// `Strategy::DiskDepthFirst`.
    pub(crate) fn check(
        store: Strategy,
        cnf: &Cnf,
        sink: &MemorySink,
        config: &CheckConfig,
    ) -> Result<CheckOutcome, CheckError> {
        let (scratch, obs) = (&mut CheckScratch::new(), &mut NullObserver);
        match store {
            Strategy::DepthFirst => run(cnf, sink, config, scratch, obs),
            Strategy::DiskDepthFirst => run_disk(cnf, sink, config, scratch, obs),
            other => unreachable!("{other:?} is not a depth-first store"),
        }
    }

    fn ok(store: Strategy, cnf: &Cnf, sink: &MemorySink) -> CheckOutcome {
        check(store, cnf, sink, &CheckConfig::default()).unwrap()
    }

    fn err(store: Strategy, cnf: &Cnf, sink: &MemorySink) -> CheckError {
        check(store, cnf, sink, &CheckConfig::default()).unwrap_err()
    }

    /// (x1)(¬x1∨x2)(¬x2): level-0 chain, conflict on clause 2 directly.
    pub(crate) fn chain_trace() -> (Cnf, MemorySink) {
        let mut cnf = Cnf::new();
        cnf.add_dimacs_clause(&[1]);
        cnf.add_dimacs_clause(&[-1, 2]);
        cnf.add_dimacs_clause(&[-2]);
        let mut sink = MemorySink::new();
        sink.level_zero(Lit::from_dimacs(1), 0).unwrap();
        sink.level_zero(Lit::from_dimacs(2), 1).unwrap();
        sink.final_conflict(2).unwrap();
        (cnf, sink)
    }

    /// (1 2)(1 -2)(-1 2)(-1 -2): learned #4 = (1), #5 = (-1); x1 by #4,
    /// conflict on #5.
    pub(crate) fn learned_proof() -> (Cnf, MemorySink) {
        let mut cnf = Cnf::new();
        cnf.add_dimacs_clause(&[1, 2]);
        cnf.add_dimacs_clause(&[1, -2]);
        cnf.add_dimacs_clause(&[-1, 2]);
        cnf.add_dimacs_clause(&[-1, -2]);
        let mut sink = MemorySink::new();
        sink.learned(4, &[0, 1]).unwrap();
        sink.learned(5, &[2, 3]).unwrap();
        sink.level_zero(Lit::from_dimacs(1), 4).unwrap();
        sink.final_conflict(5).unwrap();
        (cnf, sink)
    }

    /// #5 is a resolve source of both #6 and #7, which merge in #8 — a
    /// diamond in the proof DAG; x1 by #8, conflict on original #4.
    pub(crate) fn diamond() -> (Cnf, MemorySink) {
        let mut cnf = Cnf::new();
        cnf.add_dimacs_clause(&[1, 2]); // 0
        cnf.add_dimacs_clause(&[-2, 3]); // 1
        cnf.add_dimacs_clause(&[-3, 4]); // 2
        cnf.add_dimacs_clause(&[-3, -4]); // 3
        cnf.add_dimacs_clause(&[-1]); // 4
        let mut sink = MemorySink::new();
        sink.learned(5, &[0, 1]).unwrap(); // (1 3)
        sink.learned(6, &[5, 2]).unwrap(); // (1 4)
        sink.learned(7, &[5, 3]).unwrap(); // (1 -4)
        sink.learned(8, &[6, 7]).unwrap(); // (1)
        sink.level_zero(Lit::from_dimacs(1), 8).unwrap();
        sink.final_conflict(4).unwrap();
        (cnf, sink)
    }

    pub(crate) fn accepts_level_zero_proof(store: Strategy) {
        let (cnf, sink) = chain_trace();
        let outcome = ok(store, &cnf, &sink);
        assert_eq!(outcome.core.unwrap().clause_ids, vec![0, 1, 2]);
        assert_eq!(outcome.stats.clauses_built, 0); // no learned clauses
        assert_eq!(outcome.stats.resolutions, 2);
    }

    pub(crate) fn accepts_learned_proof_with_core(store: Strategy) {
        let (cnf, sink) = learned_proof();
        let outcome = ok(store, &cnf, &sink);
        assert_eq!(outcome.stats.strategy, store);
        assert_eq!(outcome.stats.clauses_built, 2);
        assert_eq!(outcome.stats.learned_in_trace, 2);
        let core = outcome.core.unwrap();
        assert_eq!(core.clause_ids, vec![0, 1, 2, 3]);
        assert_eq!(core.num_vars(), 2);
    }

    pub(crate) fn builds_only_needed_clauses(store: Strategy) {
        let (mut cnf, sink) = chain_trace();
        cnf.add_dimacs_clause(&[3, 4]);
        cnf.add_dimacs_clause(&[3, -4]);
        let mut events = sink.into_events();
        // An irrelevant learned clause that the proof never touches.
        events.insert(
            0,
            TraceEvent::Learned {
                id: 5,
                sources: vec![3, 4],
            },
        );
        let outcome = ok(store, &cnf, &events.into());
        assert_eq!(outcome.stats.clauses_built, 0);
        assert!((outcome.stats.built_percent() - 0.0).abs() < 1e-9);
        // The unused original clauses are not in the core.
        assert_eq!(outcome.core.unwrap().clause_ids, vec![0, 1, 2]);
    }

    pub(crate) fn rejects_missing_final_conflict(store: Strategy) {
        let (cnf, sink) = chain_trace();
        let mut events = sink.into_events();
        events.retain(|e| !matches!(e, TraceEvent::FinalConflict { .. }));
        let err = err(store, &cnf, &events.into());
        assert!(matches!(err, CheckError::NoFinalConflict));
    }

    pub(crate) fn rejects_unknown_source(store: Strategy) {
        // The final conflict names a learned clause with an undefined
        // source.
        let (cnf, sink) = chain_trace();
        let mut events = sink.into_events();
        events.retain(|e| !matches!(e, TraceEvent::FinalConflict { .. }));
        events.push(TraceEvent::Learned {
            id: 10,
            sources: vec![0, 99],
        });
        events.push(TraceEvent::FinalConflict { id: 10 });
        let err = err(store, &cnf, &events.into());
        assert!(matches!(err, CheckError::UnknownClause { id: 99, .. }));
    }

    pub(crate) fn rejects_cycle(store: Strategy) {
        let mut cnf = Cnf::new();
        cnf.add_dimacs_clause(&[1]);
        let mut sink = MemorySink::new();
        sink.learned(1, &[2, 0]).unwrap();
        sink.learned(2, &[1, 0]).unwrap();
        sink.final_conflict(1).unwrap();
        assert!(matches!(
            err(store, &cnf, &sink),
            CheckError::CyclicProof { .. }
        ));
    }

    pub(crate) fn rejects_invalid_resolution_with_target(store: Strategy) {
        let mut cnf = Cnf::new();
        cnf.add_dimacs_clause(&[1, 2]);
        cnf.add_dimacs_clause(&[3, 4]); // shares nothing with clause 0
        let mut sink = MemorySink::new();
        sink.learned(2, &[0, 1]).unwrap();
        sink.final_conflict(2).unwrap();
        match err(store, &cnf, &sink) {
            CheckError::NotResolvable {
                target: Some(2),
                step: 1,
                with: 1,
                failure,
            } => assert!(failure.clashing_vars.is_empty()),
            other => panic!("unexpected {other}"),
        }
    }

    pub(crate) fn rejects_duplicate_learned_id(store: Strategy) {
        let mut cnf = Cnf::new();
        cnf.add_dimacs_clause(&[1]);
        let mut sink = MemorySink::new();
        sink.learned(5, &[0, 1]).unwrap();
        sink.learned(5, &[1, 2]).unwrap();
        sink.final_conflict(0).unwrap();
        assert!(matches!(
            err(store, &cnf, &sink),
            CheckError::DuplicateLearnedId { id: 5 }
        ));
    }

    pub(crate) fn memory_limit_applies(store: Strategy) {
        let (cnf, sink) = learned_proof();
        let config = CheckConfig {
            memory_limit: Some(8),
            ..CheckConfig::default()
        };
        assert!(matches!(
            check(store, &cnf, &sink, &config).unwrap_err(),
            CheckError::MemoryLimitExceeded { .. }
        ));
    }

    pub(crate) fn builds_each_diamond_node_once(store: Strategy) {
        let (cnf, sink) = diamond();
        assert_eq!(ok(store, &cnf, &sink).stats.clauses_built, 4);
    }
}

#[cfg(test)]
mod tests {
    use super::table::store_tests;
    use crate::outcome::Strategy;

    store_tests! {
        Strategy::DepthFirst;
        accepts_handwritten_level_zero_proof: accepts_level_zero_proof,
        accepts_proof_with_learned_clause: accepts_learned_proof_with_core,
        builds_only_needed_clauses: builds_only_needed_clauses,
        missing_final_conflict_is_rejected: rejects_missing_final_conflict,
        unknown_source_is_rejected: rejects_unknown_source,
        cyclic_proof_is_rejected: rejects_cycle,
        invalid_resolution_is_rejected_with_target: rejects_invalid_resolution_with_target,
        duplicate_learned_id_is_rejected: rejects_duplicate_learned_id,
        memory_limit_reproduces_df_memory_out: memory_limit_applies,
        diamond_dependencies_are_not_a_cycle: builds_each_diamond_node_once,
    }
}
