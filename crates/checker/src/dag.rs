//! The parallel-dag checking strategy's dependency graph (pass B) and
//! its top-level driver.
//!
//! The antecedent lists of a resolve trace form a DAG, not a chain: a
//! learned clause depends only on the learned clauses it actually
//! resolves with, so independent clauses can be rebuilt concurrently.
//! This module turns the trace into a dense, index-addressed form of
//! that DAG — one node per learned clause in trace order, a flat tagged
//! source list, and CSR reverse edges — which the work-stealing executor
//! in [`crate::executor`] then schedules by in-degree.
//!
//! Everything id-shaped is resolved to a dense index *here*, once, on
//! the build pass: original antecedents become indices into a
//! pre-normalized clause table, learned antecedents become node indices.
//! The executor's hot loop therefore performs **zero hash lookups** —
//! the decisive difference from the breadth-first pass 2, which pays
//! three to four hash operations per resolve source.
//!
//! ## Error parity with breadth-first
//!
//! Pass 1 is shared verbatim ([`sequential_pass1`] / the mapped sharded
//! variant in [`crate::parallel`]), so malformed-trace errors are
//! identical by construction. The build pass stops at the first
//! *structurally* missing source (a forward reference or an unknown
//! clause — exactly the condition under which breadth-first's pass 2
//! would fail), records which node and step stopped it, and builds no
//! nodes beyond. The executor still resolves the stopped node's prefix
//! first: a fold failure at an earlier step of the same node outranks
//! the structural error, just as the sequential per-step loop would
//! report it.

use crate::api::CheckConfig;
use crate::breadth_first::{sequential_pass1, Pass1Tables};
use crate::cancel::CancelFlag;
use crate::error::CheckError;
use crate::executor::ExecResult;
use crate::final_phase::{derive_empty_clause, ClauseProvider};
use crate::fxhash::FxHashMap;
use crate::memory::{clause_bytes, MemoryMeter, DAG_NODE_BYTES, DAG_SOURCE_BYTES};
use crate::model::{finish_visit, park_check_error, table_capacity_hint};
use crate::outcome::{CheckOutcome, CheckStats, Strategy};
use crate::parallel::{effective_jobs, mapped_sharded_pass1};
use crate::resolve::normalize_literals;
use crate::scratch::CheckScratch;
use rescheck_cnf::{Cnf, Lit};
use rescheck_obs::{Event, Observer, Phase};
use rescheck_trace::{BlockIndex, EventRef, RandomAccessTrace, TraceMap, TraceSource};
use std::time::Instant;

/// Tag bit marking a source entry as an index into [`Dag::originals`]
/// rather than a node index. Node counts are validated against this
/// bound during the build.
pub(crate) const ORIGINAL_TAG: u32 = 1 << 31;

/// One learned clause of the trace, in trace order.
#[derive(Clone, Copy, Debug)]
pub(crate) struct DagNode {
    /// The clause id the trace assigned.
    pub id: u64,
    /// Range into [`Dag::srcs`] holding this node's resolve sources.
    pub src_start: u32,
    /// End of the source range (exclusive).
    pub src_end: u32,
    /// Number of learned-source occurrences — the scheduling in-degree.
    pub indeg: u32,
    /// Times this clause is used as a resolve source later in the trace.
    pub use_count: u32,
    /// Whether the final derivation needs this clause kept resident.
    pub pinned: bool,
    /// Whether the resolvent is stored at all (`use_count > 0 || pinned`);
    /// a `false` here is a dead-on-arrival clause, verified then dropped.
    pub stored: bool,
}

impl DagNode {
    /// Resolution steps this node performs (chain length minus the seed).
    pub fn resolutions(&self) -> u64 {
        u64::from(self.src_end - self.src_start).saturating_sub(1)
    }
}

/// Where and why the build pass stopped early: `node`'s source at `step`
/// named a clause that can never be available. Plain data so the
/// executor can reconstruct the precise [`CheckError`] if the node's
/// prefix folds cleanly.
#[derive(Clone, Copy, Debug)]
pub(crate) struct StructuralStop {
    /// Index of the truncated node.
    pub node: u32,
    /// The missing clause id.
    pub missing: u64,
    /// `true` when `missing` is defined later in the trace (a forward
    /// reference); `false` when it is defined nowhere.
    pub forward: bool,
}

impl StructuralStop {
    /// The error breadth-first's pass 2 would report at this point.
    pub fn to_error(self, node_id: u64) -> CheckError {
        if self.forward {
            CheckError::ForwardReference {
                id: node_id,
                source: self.missing,
            }
        } else {
            CheckError::UnknownClause {
                id: self.missing,
                referenced_by: Some(node_id),
            }
        }
    }
}

/// The dense dependency graph the executor schedules.
#[derive(Default)]
pub(crate) struct Dag {
    /// Learned clauses in trace order.
    pub nodes: Vec<DagNode>,
    /// Flat tagged source lists ([`ORIGINAL_TAG`] ⇒ original index,
    /// otherwise node index), sliced per node by `src_start..src_end`.
    pub srcs: Vec<u32>,
    /// CSR offsets into [`Dag::rev_dst`], length `nodes.len() + 1`.
    pub rev_off: Vec<u32>,
    /// Reverse edges: for node `j`, the nodes whose in-degree its
    /// completion decrements (one entry per source occurrence).
    pub rev_dst: Vec<u32>,
    /// Pre-normalized original clauses, in first-reference order.
    pub originals: Vec<Box<[Lit]>>,
    /// Dense original index → trace clause id (for diagnostics).
    pub orig_ids: Vec<u64>,
    /// Original clause id → dense index into [`Dag::originals`].
    pub orig_index: FxHashMap<u64, u32>,
    /// Learned clause id → node index (final-phase lookups only; the
    /// resolution pass never consults it).
    pub id_to_node: FxHashMap<u64, u32>,
    /// Set when the build stopped at a structurally missing source.
    pub structural: Option<StructuralStop>,
}

impl Dag {
    /// The tagged source slice of `node`.
    pub fn sources(&self, node: u32) -> &[u32] {
        let n = &self.nodes[node as usize];
        &self.srcs[n.src_start as usize..n.src_end as usize]
    }

    /// The reverse-edge slice of `node`: dependents to notify when it
    /// completes.
    pub fn dependents(&self, node: u32) -> &[u32] {
        let lo = self.rev_off[node as usize] as usize;
        let hi = self.rev_off[node as usize + 1] as usize;
        &self.rev_dst[lo..hi]
    }

    /// The trace id a tagged source entry refers to.
    pub fn source_id(&self, src: u32) -> u64 {
        if src & ORIGINAL_TAG != 0 {
            self.orig_ids[(src & !ORIGINAL_TAG) as usize]
        } else {
            self.nodes[src as usize].id
        }
    }
}

/// Normalizes and interns one original clause, charging the meter once.
fn intern_original(
    dag: &mut Dag,
    cnf: &Cnf,
    id: u64,
    meter: &mut MemoryMeter,
) -> Result<u32, CheckError> {
    if let Some(&ix) = dag.orig_index.get(&id) {
        return Ok(ix);
    }
    let lits: Box<[Lit]> = normalize_literals(
        cnf.clause(id as usize)
            .expect("id < num_original")
            .iter()
            .copied(),
    )
    .into();
    meter.alloc(clause_bytes(lits.len()))?;
    let ix = dag.originals.len() as u32;
    dag.originals.push(lits);
    dag.orig_ids.push(id);
    dag.orig_index.insert(id, ix);
    Ok(ix)
}

/// Builds the dense DAG from a second streaming pass over the trace.
///
/// Original antecedents are normalized once and charged to the meter
/// up front (first-reference order, then the level-0 antecedents and
/// the start clause for the final phase); the graph metadata is charged
/// per node and per source entry. All charges depend only on the trace,
/// never on the worker count — the first half of the bit-identical
/// `peak_memory_bytes` guarantee.
#[cfg(test)]
pub(crate) fn build<S: TraceSource + ?Sized>(
    cnf: &Cnf,
    trace: &S,
    tables: &Pass1Tables,
    start_id: u64,
    meter: &mut MemoryMeter,
    cancel: &CancelFlag,
) -> Result<Dag, CheckError> {
    build_from(cnf, trace, tables, start_id, meter, cancel, None)
}

/// [`build`], with the trace decode optionally fanned out over the
/// mapped bytes: when `mapped` carries the established map, its block
/// index and a worker count above one, the event stream is produced by
/// [`crate::parallel::mapped_visit_ordered`] — `jobs` workers decode
/// disjoint chunks while this thread replays them in exact trace order
/// through the identical per-event handler. The built graph, every
/// meter charge and every error are byte-for-byte the same as the
/// streaming build's.
pub(crate) fn build_from<S: TraceSource + ?Sized>(
    cnf: &Cnf,
    trace: &S,
    tables: &Pass1Tables,
    start_id: u64,
    meter: &mut MemoryMeter,
    cancel: &CancelFlag,
    mapped: Option<(&TraceMap, &BlockIndex, usize)>,
) -> Result<Dag, CheckError> {
    let num_original = cnf.num_clauses();
    let mut dag = Dag::default();
    // A clean block index knows the exact learned-clause count; the
    // encoded size only estimates it.
    let hint = match mapped {
        Some((_, index, _)) => Some(index.learned() as usize),
        None => trace.encoded_size().map(table_capacity_hint),
    };
    if let Some(hint) = hint {
        dag.nodes.reserve(hint);
        dag.id_to_node.reserve(hint);
    }

    let mut rev_pairs: Vec<(u32, u32)> = Vec::new();
    let mut seen: u64 = 0;
    let mut parked = None;
    let mut handler = |event: EventRef<'_>| {
        let step = (|| -> Result<(), CheckError> {
            let EventRef::Learned { id, sources } = event else {
                return Ok(());
            };
            if dag.structural.is_some() {
                // Nothing past the stop can run; skip the rest cheaply.
                return Ok(());
            }
            seen += 1;
            if seen.is_multiple_of(crate::chain::PROGRESS_STRIDE) {
                cancel.check()?;
            }
            if dag.nodes.len() as u32 >= ORIGINAL_TAG {
                return Err(CheckError::Trace(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    "trace exceeds the parallel-dag node limit (2^31 learned clauses)",
                )));
            }
            let node = dag.nodes.len() as u32;
            let src_start = dag.srcs.len() as u32;
            let mut indeg = 0u32;
            for &s in sources {
                if s < num_original as u64 {
                    let ix = intern_original(&mut dag, cnf, s, meter)?;
                    dag.srcs.push(ix | ORIGINAL_TAG);
                } else if let Some(&j) = dag.id_to_node.get(&s) {
                    dag.srcs.push(j);
                    rev_pairs.push((j, node));
                    indeg += 1;
                } else {
                    // Truncate at the first structurally missing source;
                    // the executor folds the prefix, then reports this.
                    dag.structural = Some(StructuralStop {
                        node,
                        missing: s,
                        forward: tables.defined.contains(&s),
                    });
                    break;
                }
            }
            let use_count = tables.use_counts.get(&id).copied().unwrap_or(0);
            let pinned = tables.pinned.contains(&id);
            dag.nodes.push(DagNode {
                id,
                src_start,
                src_end: dag.srcs.len() as u32,
                indeg,
                use_count,
                pinned,
                stored: dag.structural.is_none() && (use_count > 0 || pinned),
            });
            if dag.structural.is_none() {
                dag.id_to_node.insert(id, node);
            }
            Ok(())
        })();
        step.map_err(|e| park_check_error(&mut parked, e))
    };
    let result = match mapped {
        Some((map, index, jobs)) if jobs > 1 => {
            crate::parallel::mapped_visit_ordered(map.bytes(), index, jobs, &mut handler)
        }
        _ => trace.visit_events(&mut handler),
    };
    finish_visit(parked, result)?;

    // The final phase fetches the level-0 antecedents and the start
    // clause; intern the original ones now so its lookups are dense too.
    for rec in tables.level_zero.records() {
        if rec.antecedent < num_original as u64 {
            intern_original(&mut dag, cnf, rec.antecedent, meter)?;
        }
    }
    if start_id < num_original as u64 {
        intern_original(&mut dag, cnf, start_id, meter)?;
    }

    // Reverse adjacency as CSR: counting sort over the collected pairs.
    let mut counts = vec![0u32; dag.nodes.len() + 1];
    for &(j, _) in &rev_pairs {
        counts[j as usize + 1] += 1;
    }
    for i in 1..counts.len() {
        counts[i] += counts[i - 1];
    }
    dag.rev_off = counts.clone();
    dag.rev_dst = vec![0u32; rev_pairs.len()];
    let mut fill = counts;
    for &(j, dst) in &rev_pairs {
        dag.rev_dst[fill[j as usize] as usize] = dst;
        fill[j as usize] += 1;
    }

    meter.alloc(
        dag.nodes.len() as u64 * DAG_NODE_BYTES + dag.srcs.len() as u64 * DAG_SOURCE_BYTES,
    )?;
    Ok(dag)
}

/// A [`ClauseProvider`] over the built DAG and the executor's surviving
/// completion slots: originals through the dense pre-normalized table,
/// pinned learned clauses through their node slots.
struct DagProvider<'a> {
    dag: &'a Dag,
    num_original: usize,
    slots: Vec<Option<Box<[Lit]>>>,
}

impl ClauseProvider for DagProvider<'_> {
    fn clause_into(&mut self, id: u64, out: &mut Vec<Lit>) -> Result<(), CheckError> {
        let missing = |id| CheckError::UnknownClause {
            id,
            referenced_by: None,
        };
        let lits: &[Lit] = if id < self.num_original as u64 {
            match self.dag.orig_index.get(&id) {
                Some(&ix) => &self.dag.originals[ix as usize],
                None => return Err(missing(id)),
            }
        } else {
            match self
                .dag
                .id_to_node
                .get(&id)
                .and_then(|&n| self.slots[n as usize].as_deref())
            {
                Some(clause) => clause,
                None => return Err(missing(id)),
            }
        };
        out.clear();
        out.extend_from_slice(lits);
        Ok(())
    }
}

/// The parallel-dag checker: shared pass 1 (sharded over a mapped trace
/// when `jobs > 1`, sequential otherwise), a dense dependency-graph
/// build, the work-stealing resolution pass, and the final empty-clause
/// derivation over the surviving slots.
pub(crate) fn run<S: RandomAccessTrace + Sync + ?Sized>(
    cnf: &Cnf,
    trace: &S,
    config: &CheckConfig,
    obs: &mut dyn Observer,
) -> Result<CheckOutcome, CheckError> {
    let started = Instant::now();
    let num_original = cnf.num_clauses();
    // `--jobs` is a cap: workers beyond the machine's available cores
    // cannot raise throughput (the stats are identical either way), so
    // oversubscribed requests silently run with fewer workers.
    let jobs = effective_jobs(config.jobs).min(crate::parallel::max_useful_workers());
    let map = crate::parallel::establish_map(trace, config, obs);
    if crate::parallel::small_trace_fallback(trace, map, config, obs) {
        let mut outcome =
            crate::breadth_first::run(cnf, trace, config, &mut CheckScratch::new(), obs)?;
        outcome.stats.strategy = Strategy::ParallelDag;
        return Ok(outcome);
    }
    let mut meter = MemoryMeter::new(config.memory_limit);
    if let Some(map) = map {
        // The encoded trace stays resident (mapped or buffered) for the
        // whole check; charging it under both backings keeps the peak
        // independent of `--no-mmap` and of the worker count.
        meter.alloc(map.accounted_bytes())?;
    }

    let pass1 = Phase::start("check:pass1", obs);
    obs.observe(&Event::GaugeSet {
        name: "check.jobs",
        value: jobs as f64,
    });
    let index = map.and_then(TraceMap::block_index);
    let (tables, start_id) = match (map, index) {
        (Some(map), Some(index)) if jobs > 1 => {
            mapped_sharded_pass1(map, index, num_original, jobs, &config.cancel, obs)?
        }
        _ => sequential_pass1(trace, num_original, &config.cancel)?,
    };
    meter.alloc(tables.resident_bytes())?;
    pass1.finish(obs);

    let build_phase = Phase::start("check:dag-build", obs);
    let mapped = map.zip(index).map(|(m, i)| (m, i, jobs));
    let dag = build_from(
        cnf,
        trace,
        &tables,
        start_id,
        &mut meter,
        &config.cancel,
        mapped,
    )?;
    build_phase.finish(obs);

    let resolve_phase = Phase::start("check:resolve", obs);
    let ExecResult {
        meter,
        resolutions,
        clauses_built,
        slots,
    } = crate::executor::execute(&dag, jobs, meter, config, obs)?;
    resolve_phase.finish(obs);

    let final_phase = Phase::start("final-phase", obs);
    let mut provider = DagProvider {
        dag: &dag,
        num_original,
        slots,
    };
    let final_stats = derive_empty_clause(start_id, &tables.level_zero, &mut provider)?;
    final_phase.finish(obs);

    let stats = CheckStats {
        strategy: Strategy::ParallelDag,
        learned_in_trace: tables.defined.len() as u64,
        clauses_built,
        resolutions: resolutions + final_stats.resolutions,
        peak_memory_bytes: meter.peak(),
        runtime: started.elapsed(),
        trace_bytes: trace.encoded_size(),
    };
    crate::chain::emit_check_gauges(obs, &stats, tables.use_counts.len() as u64);
    Ok(CheckOutcome { core: None, stats })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::breadth_first::sequential_pass1;
    use rescheck_trace::{MemorySink, TraceSink};

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

    fn build_chain(n: i64) -> (Dag, Pass1Tables) {
        let (cnf, sink) = chain(n);
        let (tables, start_id) =
            sequential_pass1(&sink, cnf.num_clauses(), &CancelFlag::default()).unwrap();
        let mut meter = MemoryMeter::unlimited();
        let dag = build(
            &cnf,
            &sink,
            &tables,
            start_id,
            &mut meter,
            &CancelFlag::default(),
        )
        .unwrap();
        (dag, tables)
    }

    #[test]
    fn chain_trace_builds_a_path_graph() {
        let (dag, _) = build_chain(16);
        assert_eq!(dag.nodes.len(), 15);
        // First node resolves two originals: in-degree 0.
        assert_eq!(dag.nodes[0].indeg, 0);
        // Every later node depends on exactly the previous one.
        for i in 1..dag.nodes.len() {
            assert_eq!(dag.nodes[i].indeg, 1, "node {i}");
            assert_eq!(dag.dependents(i as u32 - 1), &[i as u32]);
        }
        assert!(dag.dependents(dag.nodes.len() as u32 - 1).is_empty());
        // The last node is pinned by the level-0 record; the rest are
        // used exactly once each.
        let last = dag.nodes.last().unwrap();
        assert!(last.pinned && last.stored);
        for n in &dag.nodes[..dag.nodes.len() - 1] {
            assert_eq!(n.use_count, 1);
            assert!(n.stored && !n.pinned);
        }
        assert!(dag.structural.is_none());
    }

    #[test]
    fn source_ids_round_trip_through_the_tags() {
        let (dag, _) = build_chain(8);
        // Node 0's sources are originals 0 and 1.
        let srcs = dag.sources(0);
        assert!(srcs.iter().all(|&s| s & ORIGINAL_TAG != 0));
        assert_eq!(dag.source_id(srcs[0]), 0);
        assert_eq!(dag.source_id(srcs[1]), 1);
        // Node 1's first source is node 0 (learned id 9 for n=8).
        let srcs = dag.sources(1);
        assert_eq!(srcs[0] & ORIGINAL_TAG, 0);
        assert_eq!(dag.source_id(srcs[0]), dag.nodes[0].id);
    }

    #[test]
    fn forward_reference_truncates_the_build() {
        let mut cnf = Cnf::new();
        cnf.add_dimacs_clause(&[1, 2]);
        cnf.add_dimacs_clause(&[1, -2]);
        cnf.add_dimacs_clause(&[-1, 2]);
        cnf.add_dimacs_clause(&[-1, -2]);
        let mut sink = MemorySink::new();
        sink.learned(4, &[0, 5]).unwrap(); // #5 not yet defined
        sink.learned(5, &[2, 3]).unwrap();
        sink.final_conflict(4).unwrap();
        let (tables, start_id) = sequential_pass1(&sink, 4, &CancelFlag::default()).unwrap();
        let mut meter = MemoryMeter::unlimited();
        let dag = build(
            &cnf,
            &sink,
            &tables,
            start_id,
            &mut meter,
            &CancelFlag::default(),
        )
        .unwrap();
        let stop = dag.structural.expect("structural stop");
        assert_eq!(stop.node, 0);
        assert_eq!(stop.missing, 5);
        assert!(stop.forward);
        // Only the truncated node exists, with its prefix of one source.
        assert_eq!(dag.nodes.len(), 1);
        assert_eq!(dag.sources(0).len(), 1);
        assert!(matches!(
            stop.to_error(dag.nodes[0].id),
            CheckError::ForwardReference { id: 4, source: 5 }
        ));
    }

    #[test]
    fn unknown_source_is_classified_as_unknown() {
        let mut cnf = Cnf::new();
        cnf.add_dimacs_clause(&[1]);
        let mut sink = MemorySink::new();
        sink.learned(1, &[0, 42]).unwrap();
        sink.final_conflict(1).unwrap();
        let (tables, start_id) = sequential_pass1(&sink, 1, &CancelFlag::default()).unwrap();
        let mut meter = MemoryMeter::unlimited();
        let dag = build(
            &cnf,
            &sink,
            &tables,
            start_id,
            &mut meter,
            &CancelFlag::default(),
        )
        .unwrap();
        let stop = dag.structural.expect("structural stop");
        assert!(!stop.forward);
        assert!(matches!(
            stop.to_error(1),
            CheckError::UnknownClause {
                id: 42,
                referenced_by: Some(1),
            }
        ));
    }

    #[test]
    fn originals_are_interned_once_and_charged() {
        let (cnf, sink) = chain(8);
        let (tables, start_id) =
            sequential_pass1(&sink, cnf.num_clauses(), &CancelFlag::default()).unwrap();
        let mut meter = MemoryMeter::unlimited();
        let dag = build(
            &cnf,
            &sink,
            &tables,
            start_id,
            &mut meter,
            &CancelFlag::default(),
        )
        .unwrap();
        // Chain antecedents 0..8 plus the final conflict (-n) = 9
        // distinct originals; the level-0 antecedent is learned.
        assert_eq!(dag.originals.len(), 9);
        let clause_cost: u64 = dag.originals.iter().map(|c| clause_bytes(c.len())).sum();
        let meta_cost =
            dag.nodes.len() as u64 * DAG_NODE_BYTES + dag.srcs.len() as u64 * DAG_SOURCE_BYTES;
        assert_eq!(meter.current(), clause_cost + meta_cost);
    }
}
