//! The depth-first engine (paper §3.2, Fig. 3): `df` with the trace
//! resident, `dfd` with it left on disk, and `hybrid`, the paper's
//! future work, on `dfd`'s disk store.
//!
//! Starting from the final conflicting clause, learned clauses are built
//! by resolution *on demand*, recursively following resolve sources. Only
//! the clauses involved in the empty-clause derivation are ever
//! constructed — between 19% and 90% of the learned clauses in the
//! paper's experiments — and the original clauses touched along the way
//! form an unsatisfiable core.
//!
//! One post-order [`Walker::walk`] serves all three. Where it finds a
//! learned clause's resolve sources is its [`SourceStore`]:
//!
//! - **`df`** reads the whole trace into a resident table first
//!   ([`load_full`]: one flat source list with a start per clause),
//!   charged per record. That residency is why the paper's depth-first
//!   checker memory-outs on the two hardest instances, reproducible here
//!   via [`CheckConfig::memory_limit`](crate::CheckConfig::memory_limit).
//! - **`dfd`** and **`hybrid`** leave the trace on disk. Their pass 1
//!   records each learned clause's byte offset in a table indexed by its
//!   dense id (16 accounted bytes per learned clause instead of its
//!   source list), and the walk fetches source lists through a
//!   [`TraceCursor`]: a window read at the offset for a binary trace
//!   file, the line at the offset for an ASCII one, the record in place
//!   for a trace held in memory.
//!
//! What finishing a clause means is the walk's [`Visitor`]. `df` and
//! `dfd` resolve and store it and never free a built clause, so the two
//! report bit-identical `clauses_built`, `resolutions` and unsat cores;
//! only the peak differs. `hybrid`'s walk only records the order in which
//! clauses finish and how many needed clauses consume each; its build
//! pass then rebuilds them in that order and frees each after its last
//! needed consumer (breadth-first's discipline on depth-first's subset).

use crate::api::CheckConfig;
use crate::breadth_first::{rebuild, PINNED};
use crate::cache::NormalizedClauses;
use crate::cancel::CancelFlag;
use crate::chain::{ChainStep, PROGRESS_STRIDE};
use crate::error::CheckError;
use crate::ids::IdSpace;
use crate::memory::{MemoryMeter, INDEX_ENTRY_BYTES, LEVEL_ZERO_RECORD_BYTES, USE_COUNT_BYTES};
use crate::model::{load_full, pass1, FullTrace, LevelZeroMap, Pass1, Record};
use crate::outcome::{CheckOutcome, Strategy};
use crate::scratch::CheckScratch;
use rescheck_cnf::Cnf;
use rescheck_obs::{Event, Observer, Phase};
use rescheck_trace::{TraceCursor, TraceEvent, TraceSource};
use std::io;
use std::ops::Deref;
use std::time::Instant;

/// `df`: depth-first over the trace loaded into memory.
pub(crate) fn run<S: TraceSource + ?Sized>(
    cnf: &Cnf,
    table: &NormalizedClauses,
    trace: &S,
    config: &CheckConfig,
    scratch: &mut CheckScratch,
    obs: &mut dyn Observer,
) -> Result<CheckOutcome, CheckError> {
    let started = Instant::now();
    let mut meter = MemoryMeter::new(config.memory_limit);

    // The depth-first approach reads the entire trace into main memory.
    let pass1_phase = Phase::start("check:pass1", obs);
    let full = load_full(trace, cnf.num_clauses(), &config.cancel)?;
    meter.alloc(full.trace_bytes + full.pass1.ids.map_bytes())?;
    pass1_phase.finish(obs);

    let start_id = full.pass1.start_id()?;
    let ids = &full.pass1.ids;
    let mut chain = ChainStep::new(cnf, table, ids, meter, config, scratch, true, obs);
    build_and_derive(&mut &full, &full.pass1, &mut chain, start_id)?;
    let entries = chain.resident_clauses();
    Ok(chain.finish(
        Strategy::DepthFirst,
        ids.len() as u64,
        entries,
        started,
        trace.encoded_size(),
    ))
}

/// `dfd`: depth-first over the trace left on disk.
pub(crate) fn run_disk<S: TraceSource + ?Sized>(
    cnf: &Cnf,
    table: &NormalizedClauses,
    trace: &S,
    config: &CheckConfig,
    scratch: &mut CheckScratch,
    obs: &mut dyn Observer,
) -> Result<CheckOutcome, CheckError> {
    let started = Instant::now();
    let mut meter = MemoryMeter::new(config.memory_limit);

    let pass1_phase = Phase::start("check:pass1", obs);
    let (pass, offsets) = indexed_pass1(trace, cnf.num_clauses(), &mut meter, &config.cancel)?;
    pass1_phase.finish(obs);

    let start_id = pass.start_id()?;
    let mut store = DiskSources {
        ids: &pass.ids,
        offsets,
        cursor: trace.open_cursor()?,
        reads: 0,
    };
    let mut chain = ChainStep::new(
        cnf, table, &pass.ids, meter, config, scratch, true, &mut *obs,
    );
    build_and_derive(&mut store, &pass, &mut chain, start_id)?;
    let entries = chain.resident_clauses();
    let learned = pass.ids.len() as u64;
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
    ] {
        obs.observe(&Event::GaugeSet {
            name,
            value: value as f64,
        });
    }
    Ok(outcome)
}

/// `hybrid`: depth-first's needed clauses under breadth-first's freeing
/// rule, on `dfd`'s disk store. The walk runs from every clause the
/// final phase reads, in [`final_phase_roots`] order, and records the
/// build order and the needed use counts; the build pass rebuilds the
/// needed clauses in that order, freeing each after its last needed
/// consumer, and the final phase reads the pinned roots.
pub(crate) fn run_hybrid<S: TraceSource + ?Sized>(
    cnf: &Cnf,
    table: &NormalizedClauses,
    trace: &S,
    config: &CheckConfig,
    scratch: &mut CheckScratch,
    obs: &mut dyn Observer,
) -> Result<CheckOutcome, CheckError> {
    let started = Instant::now();
    let mut meter = MemoryMeter::new(config.memory_limit);

    let pass1_phase = Phase::start("check:pass1", obs);
    let (pass, offsets) = indexed_pass1(trace, cnf.num_clauses(), &mut meter, &config.cancel)?;
    pass1_phase.finish(obs);

    let start_id = pass.start_id()?;
    let ids = &pass.ids;
    let mut store = DiskSources {
        ids,
        offsets,
        cursor: trace.open_cursor()?,
        reads: 0,
    };
    let walk_phase = Phase::start("check:walk", obs);
    let mut needed = Needed {
        ids,
        finished: vec![false; ids.len()],
        order: Vec::new(),
        use_counts: vec![0; ids.len()],
    };
    let mut walker = Walker::new(ids);
    let roots: Vec<u64> = final_phase_roots(&pass.level_zero, start_id)
        .filter(|&id| !ids.is_original(id))
        .collect();
    for &root in &roots {
        walker.walk(&mut store, &mut needed, root, &config.cancel)?;
    }
    for &root in &roots {
        let index = ids.index(root).expect("a walked root is defined");
        needed.use_counts[index] = PINNED;
    }
    meter.alloc(needed.order.len() as u64 * USE_COUNT_BYTES)?;
    walk_phase.finish(obs);

    let resolve_phase = Phase::start("check:resolve", obs);
    let mut chain = ChainStep::new(cnf, table, ids, meter, config, scratch, true, obs);
    for &id in &needed.order {
        let sources = store.sources(id, None)?;
        rebuild(&mut chain, id, &sources, &mut needed.use_counts)?;
    }
    resolve_phase.finish(&mut *chain.obs);

    chain.final_phase(start_id, &pass.level_zero, |_, _| Ok(()))?;
    Ok(chain.finish(
        Strategy::Hybrid,
        ids.len() as u64,
        needed.order.len() as u64,
        started,
        trace.encoded_size(),
    ))
}

/// The clauses the final phase reads: the level-0 antecedents in trace
/// order, then the start clause. They are the pins of `bf` and `hybrid`
/// and the roots of the walks of `hybrid`, `trim` and `stats`.
pub(crate) fn final_phase_roots(
    level_zero: &LevelZeroMap,
    start_id: u64,
) -> impl Iterator<Item = u64> + '_ {
    let mut records: Vec<_> = level_zero.records().collect();
    records.sort_unstable_by_key(|record| record.order);
    records
        .into_iter()
        .map(|record| record.antecedent)
        .chain([start_id])
}

/// `df`/`dfd`: builds the final conflict's dependency cone, then derives
/// the empty clause, building the level-0 antecedents it consumes on
/// demand.
fn build_and_derive<S: SourceStore>(
    store: &mut S,
    pass: &Pass1,
    chain: &mut ChainStep<'_>,
    start_id: u64,
) -> Result<(), CheckError> {
    let cancel = chain.cancel.clone();
    let mut walker = Walker::new(&pass.ids);
    // The cone is the bulk of the resolution work; the remaining level-0
    // antecedents are built lazily inside the final phase.
    let resolve_phase = Phase::start("check:resolve", &mut *chain.obs);
    walker.walk(store, chain, start_id, &cancel)?;
    resolve_phase.finish(&mut *chain.obs);
    chain.final_phase(start_id, &pass.level_zero, |chain, id| {
        walker.walk(store, chain, id, &cancel)
    })
}

/// The depth-first walk and its open (gray) set, indexed by dense id and
/// reused across the walks of one check.
pub(crate) struct Walker<'i> {
    ids: &'i IdSpace,
    gray: Vec<bool>,
}

impl<'i> Walker<'i> {
    pub(crate) fn new(ids: &'i IdSpace) -> Self {
        Walker {
            ids,
            gray: vec![false; ids.len()],
        }
    }

    /// Visits clause `root` and every clause it depends on that is not
    /// done yet, finishing each after all its sources: the iterative form
    /// of Fig. 3's `recursive_build`, so deep proofs cannot overflow the
    /// native stack. A clause's sources are fetched once, when it is
    /// opened, and stay in its open frame until it finishes; the open
    /// frames lie on one path of the proof and are uncharged, like the
    /// work stack. A source that is still open is a cycle, rejected
    /// instead of looping.
    pub(crate) fn walk<S: SourceStore, V: Visitor>(
        &mut self,
        store: &mut S,
        visitor: &mut V,
        root: u64,
        cancel: &CancelFlag,
    ) -> Result<(), CheckError> {
        if visitor.is_done(root) {
            return Ok(());
        }
        // Clauses still to open, each with the clause that referenced it.
        let mut pending: Vec<(u64, Option<u64>)> = vec![(root, None)];
        // Open clauses: id, dense id, sources, and the `pending` length
        // their children were pushed above.
        let mut open: Vec<(u64, usize, S::Sources, usize)> = Vec::new();
        let mut steps: u64 = 0;
        loop {
            steps += 1;
            if steps.is_multiple_of(PROGRESS_STRIDE) {
                cancel.check()?;
            }
            if open.last().map(|frame| frame.3) == Some(pending.len()) {
                let (id, index, sources, _) = open.pop().expect("an open frame");
                visitor.finish(id, &sources)?;
                self.gray[index] = false;
                continue;
            }
            let Some((id, referenced_by)) = pending.pop() else {
                return Ok(());
            };
            if visitor.is_done(id) {
                continue;
            }
            let sources = store.sources(id, referenced_by)?;
            let index = self
                .ids
                .index(id)
                .expect("a clause with sources is defined");
            self.gray[index] = true;
            let base = pending.len();
            for &source in sources.iter() {
                if !visitor.is_done(source) {
                    if self.ids.index(source).is_some_and(|j| self.gray[j]) {
                        return Err(CheckError::CyclicProof { id: source });
                    }
                    pending.push((source, Some(id)));
                }
            }
            open.push((id, index, sources, base));
        }
    }
}

/// What finishing a clause means to one configuration of the walk.
pub(crate) trait Visitor {
    /// Whether clause `id` needs no visit: an original, or finished.
    fn is_done(&self, id: u64) -> bool;

    /// Finishes learned clause `id`, all of whose `sources` are done.
    fn finish(&mut self, id: u64, sources: &[u64]) -> Result<(), CheckError>;
}

/// `df` and `dfd` finish a clause by building it, and never free it.
impl Visitor for ChainStep<'_> {
    fn is_done(&self, id: u64) -> bool {
        self.is_resident(id)
    }

    fn finish(&mut self, id: u64, sources: &[u64]) -> Result<(), CheckError> {
        self.resolve(id, sources)?;
        self.store(id)?;
        self.count_built(sources.len())
    }
}

/// `hybrid`'s walk: the needed clauses in the order they finish (sources
/// before consumers, so the build order), and how many needed clauses
/// consume each, by dense id.
struct Needed<'i> {
    ids: &'i IdSpace,
    finished: Vec<bool>,
    order: Vec<u64>,
    use_counts: Vec<u32>,
}

impl Visitor for Needed<'_> {
    fn is_done(&self, id: u64) -> bool {
        self.ids.is_original(id) || self.ids.index(id).is_some_and(|j| self.finished[j])
    }

    fn finish(&mut self, id: u64, sources: &[u64]) -> Result<(), CheckError> {
        let index = self.ids.index(id).expect("a finished clause is defined");
        self.finished[index] = true;
        self.order.push(id);
        for &source in sources {
            if let Some(j) = self.ids.index(source) {
                self.use_counts[j] += 1;
            }
        }
        Ok(())
    }
}

/// Where the walk finds a learned clause's resolve sources.
pub(crate) trait SourceStore {
    type Sources: Deref<Target = [u64]>;

    /// The resolve sources of learned clause `id`.
    fn sources(&mut self, id: u64, referenced_by: Option<u64>)
        -> Result<Self::Sources, CheckError>;
}

/// `df`'s store: the resident table.
impl<'t> SourceStore for &'t FullTrace {
    type Sources = &'t [u64];

    fn sources(&mut self, id: u64, referenced_by: Option<u64>) -> Result<&'t [u64], CheckError> {
        let full: &'t FullTrace = self;
        full.pass1
            .ids
            .index(id)
            .map(|index| full.sources(index))
            .ok_or(CheckError::UnknownClause { id, referenced_by })
    }
}

/// `dfd`'s and `hybrid`'s store: a cursor read at the offset pass 1
/// recorded for the clause.
struct DiskSources<'t> {
    ids: &'t IdSpace,
    /// Byte offset of each learned clause's record, by dense id.
    offsets: Vec<u64>,
    cursor: Box<dyn TraceCursor + 't>,
    /// Positioned trace reads performed.
    reads: u64,
}

impl SourceStore for DiskSources<'_> {
    type Sources = Vec<u64>;

    fn sources(&mut self, id: u64, referenced_by: Option<u64>) -> Result<Vec<u64>, CheckError> {
        let index = self
            .ids
            .index(id)
            .ok_or(CheckError::UnknownClause { id, referenced_by })?;
        let event = self
            .cursor
            .event_at(self.offsets[index])
            .map_err(CheckError::Trace)?;
        self.reads += 1;
        match event {
            TraceEvent::Learned { id: got, sources } if got == id => Ok(sources),
            _ => Err(CheckError::Trace(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("trace offset for clause #{id} no longer addresses its record"),
            ))),
        }
    }
}

/// The disk store's pass 1: the shared [`pass1`] plus each learned
/// clause's byte offset, charged per record as it is read.
fn indexed_pass1<S: TraceSource + ?Sized>(
    trace: &S,
    num_original: usize,
    meter: &mut MemoryMeter,
    cancel: &CancelFlag,
) -> Result<(Pass1, Vec<u64>), CheckError> {
    let mut offsets: Vec<u64> = Vec::new();
    let pass = pass1(trace, num_original, cancel, |record| match record {
        Record::Learned { offset, .. } => {
            offsets.push(offset);
            meter.alloc(INDEX_ENTRY_BYTES)
        }
        Record::LevelZero => meter.alloc(LEVEL_ZERO_RECORD_BYTES),
    })?;
    meter.alloc(pass.ids.map_bytes())?;
    Ok((pass, offsets))
}

/// The checks every configuration of the walk must pass. Each takes the
/// configuration to run, named by its strategy, and [`store_tests`] turns
/// them into tests: `depth_first::tests` runs them on `df`,
/// `disk_df::tests` on `dfd` and `hybrid::tests` on `hybrid`.
#[cfg(test)]
pub(crate) mod table {
    use super::{run, run_disk, run_hybrid, NormalizedClauses};
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

    /// Runs one configuration on a claim: the resident table for
    /// `Strategy::DepthFirst`, the offset index for
    /// `Strategy::DiskDepthFirst` and `Strategy::Hybrid`.
    pub(crate) fn check(
        store: Strategy,
        cnf: &Cnf,
        sink: &MemorySink,
        config: &CheckConfig,
    ) -> Result<CheckOutcome, CheckError> {
        let (scratch, obs) = (&mut CheckScratch::new(), &mut NullObserver);
        let table = &NormalizedClauses::new(cnf);
        match store {
            Strategy::DepthFirst => run(cnf, table, sink, config, scratch, obs),
            Strategy::DiskDepthFirst => run_disk(cnf, table, sink, config, scratch, obs),
            Strategy::Hybrid => run_hybrid(cnf, table, sink, config, scratch, obs),
            other => unreachable!("{other:?} is not a depth-first walk"),
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
    use super::table::{self, store_tests};
    use crate::api::{check_unsat_claim_observed, CheckConfig};
    use crate::outcome::Strategy;
    use rescheck_obs::MetricsSink;
    use std::time::Duration;

    /// On the diamond the start clause is an original and every learned
    /// clause is under the level-0 antecedent, so all four are built on
    /// demand inside the final phase. Their time is resolution work: one
    /// `check:resolve` span under `final-phase` carries it, however many
    /// builds ran. Engines that build nothing there get no such span.
    #[test]
    fn lazy_builds_are_timed_as_resolve_work() {
        let (cnf, sink) = table::diamond();
        let config = CheckConfig::default();
        for strategy in [
            Strategy::DepthFirst,
            Strategy::DiskDepthFirst,
            Strategy::Portfolio,
            Strategy::BreadthFirst,
            Strategy::Hybrid,
        ] {
            let mut metrics = MetricsSink::new();
            let outcome =
                check_unsat_claim_observed(&cnf, &sink, strategy, &config, &mut metrics).unwrap();
            assert_eq!(outcome.stats.clauses_built, 4, "{strategy}");
            let spans = metrics.registry().spans();
            let final_phase = spans.iter().find(|s| s.name == "final-phase").unwrap();
            let lazy: Vec<_> = spans
                .iter()
                .filter(|s| s.parent == Some(final_phase.id))
                .collect();
            if matches!(strategy, Strategy::BreadthFirst | Strategy::Hybrid) {
                assert!(lazy.is_empty(), "{strategy}");
                continue;
            }
            assert_eq!(lazy.len(), 1, "{strategy}: one span for every build");
            assert_eq!(lazy[0].name, "check:resolve");
            let wall = lazy[0].wall.unwrap();
            assert!(wall > Duration::ZERO && wall <= final_phase.wall.unwrap());
            let resolve = metrics.registry().phase_seconds("check:resolve").unwrap();
            assert!(resolve >= wall.as_secs_f64(), "{strategy}");
        }
    }

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
