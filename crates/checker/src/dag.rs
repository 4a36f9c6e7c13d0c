//! The parallel-dag checking strategy's dependency graph and its
//! top-level driver.
//!
//! The antecedent lists of a resolve trace form a DAG, not a chain: a
//! learned clause depends only on the learned clauses it actually
//! resolves with, so independent clauses can be rebuilt concurrently.
//! This module turns the trace into a dense, index-addressed form of
//! that DAG — one node per learned clause in trace order, a flat tagged
//! source list, and CSR reverse edges — which the work-stealing executor
//! in [`crate::executor`] then schedules by in-degree.
//!
//! A node's index is its clause's dense id ([`crate::ids`]), so the
//! graph needs no id map: a learned antecedent is a node index and an
//! original antecedent an index into a pre-normalized clause table, both
//! resolved once, here. The executor's hot loop performs **zero hash
//! lookups** and reads each resolve source with one indexed load.
//!
//! The graph is built during the shared [`pass1`] itself — one streaming
//! pass, like breadth-first's pass 1 — so pdag never holds the encoded
//! trace and its stats do not depend on how the trace is encoded. Each
//! node's use count is its number of uses anywhere in the trace, as
//! breadth-first counts them, and its pin is set from the final phase's
//! roots once the pass is done.
//!
//! ## Error parity with breadth-first
//!
//! Pass 1's validation runs over the whole trace before anything is
//! resolved, so malformed-trace errors are identical by construction.
//! The build stops adding nodes at the first *structurally* missing
//! source (a source not defined earlier in the trace — exactly the
//! condition under which breadth-first's pass 2 would fail), records
//! which node stopped it, and classifies the stop as a forward reference
//! or an unknown clause once the pass has seen every id. The executor
//! still resolves the stopped node's prefix first: a fold failure at an
//! earlier step of the same node outranks the structural error, just as
//! the sequential per-step loop would report it.

use crate::api::CheckConfig;
use crate::cancel::CancelFlag;
use crate::depth_first::final_phase_roots;
use crate::error::CheckError;
use crate::executor::{effective_jobs, max_useful_workers, ExecResult};
use crate::final_phase::{derive_empty_clause, ClauseProvider};
use crate::ids::IdSpace;
use crate::memory::{
    clause_bytes, MemoryMeter, DAG_NODE_BYTES, DAG_SOURCE_BYTES, LEVEL_ZERO_RECORD_BYTES,
};
use crate::model::{pass1, Pass1, Record};
use crate::outcome::{CheckOutcome, CheckStats, Strategy};
use crate::resolve::normalize_literals;
use rescheck_cnf::{Cnf, Lit};
use rescheck_obs::{Event, Observer, Phase};
use rescheck_trace::TraceSource;
use std::time::Instant;

/// Tag bit marking a source entry as an index into [`Dag::originals`]
/// rather than a node index. Node counts are validated against this
/// bound during the build.
pub(crate) const ORIGINAL_TAG: u32 = 1 << 31;

/// [`Dag::orig_index`] of an original clause no node references.
const NOT_INTERNED: u32 = u32::MAX;

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
    /// Times this clause is used as a resolve source in the trace.
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

/// Where and why the build stopped early: `node`'s source at `step`
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
    /// Learned clauses in trace order; node `k` is dense id `k`.
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
    /// Original clause id → dense index into [`Dag::originals`], or
    /// [`NOT_INTERNED`].
    pub orig_index: Vec<u32>,
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

    /// The graph's parallelism bound: its work (resolutions over all
    /// nodes) and its span (the most resolutions on any one dependency
    /// path). Sources always precede their node, so one pass in trace
    /// order sees every source's path before the node's own.
    pub fn work_and_span(&self) -> (u64, u64) {
        let mut path: Vec<u64> = Vec::with_capacity(self.nodes.len());
        let (mut work, mut span) = (0u64, 0u64);
        for (i, node) in self.nodes.iter().enumerate() {
            let longest_source = self
                .sources(i as u32)
                .iter()
                .filter(|&&s| s & ORIGINAL_TAG == 0)
                .map(|&s| path[s as usize])
                .max()
                .unwrap_or(0);
            path.push(longest_source + node.resolutions());
            work += node.resolutions();
            span = span.max(path[i]);
        }
        (work, span)
    }

    /// Normalizes and interns original clause `id` on first reference.
    fn intern_original(&mut self, cnf: &Cnf, id: u64) -> u32 {
        let slot = &mut self.orig_index[id as usize];
        if *slot == NOT_INTERNED {
            *slot = self.originals.len() as u32;
            let clause = cnf.clause(id as usize).expect("id < num_original");
            self.originals
                .push(normalize_literals(clause.iter().copied()).into());
            self.orig_ids.push(id);
        }
        *slot
    }
}

/// Builds the dense DAG during the shared pass 1.
///
/// Original antecedents are normalized once, in first-reference order,
/// then the original level-0 antecedents and start clause the final
/// phase reads. Nothing is charged while the trace streams, so every
/// validation error of the pass wins over a memory-out; afterwards the
/// pass's tables, each interned original (in interning order) and the
/// graph metadata are charged. All charges depend only on the trace,
/// never on the worker count — the first half of the bit-identical
/// `peak_memory_bytes` guarantee.
pub(crate) fn build<S: TraceSource + ?Sized>(
    cnf: &Cnf,
    trace: &S,
    meter: &mut MemoryMeter,
    cancel: &CancelFlag,
) -> Result<(Pass1, Dag), CheckError> {
    let num_original = cnf.num_clauses();
    let mut dag = Dag {
        orig_index: vec![NOT_INTERNED; num_original],
        ..Dag::default()
    };
    let mut rev_pairs: Vec<(u32, u32)> = Vec::new();
    let pass = pass1(trace, num_original, cancel, |record| {
        let Record::Learned {
            ids,
            id,
            index,
            sources,
            ..
        } = record
        else {
            return Ok(());
        };
        if dag.structural.is_none() {
            add_node(&mut dag, &mut rev_pairs, cnf, ids, id, index, sources)?;
        }
        // Uses count over the whole trace, as breadth-first's pass 1
        // counts them, stop or no stop.
        for &s in sources {
            if let Some(node) = ids.index(s).and_then(|j| dag.nodes.get_mut(j)) {
                node.use_count = node.use_count.saturating_add(1);
            }
        }
        Ok(())
    })?;
    let start_id = pass.start_id()?;
    if let Some(stop) = &mut dag.structural {
        stop.forward = pass.ids.index(stop.missing).is_some();
    }

    // The final phase reads the level-0 antecedents and the start
    // clause: pin the learned ones, intern the original ones.
    for root in final_phase_roots(&pass.level_zero, start_id) {
        if pass.ids.is_original(root) {
            dag.intern_original(cnf, root);
        } else if let Some(node) = pass.ids.index(root).and_then(|j| dag.nodes.get_mut(j)) {
            node.pinned = true;
        }
    }
    let built = dag
        .structural
        .map_or(dag.nodes.len(), |stop| stop.node as usize);
    for (j, node) in dag.nodes.iter_mut().enumerate() {
        node.stored = j < built && (node.use_count > 0 || node.pinned);
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

    meter.alloc(pass.level_zero.len() as u64 * LEVEL_ZERO_RECORD_BYTES + pass.ids.map_bytes())?;
    for clause in &dag.originals {
        meter.alloc(clause_bytes(clause.len()))?;
    }
    meter.alloc(
        dag.nodes.len() as u64 * DAG_NODE_BYTES + dag.srcs.len() as u64 * DAG_SOURCE_BYTES,
    )?;
    Ok((pass, dag))
}

/// Adds learned clause `id` as node `index`, or records the structural
/// stop at its first source not defined earlier in the trace.
fn add_node(
    dag: &mut Dag,
    rev_pairs: &mut Vec<(u32, u32)>,
    cnf: &Cnf,
    ids: &IdSpace,
    id: u64,
    index: usize,
    sources: &[u64],
) -> Result<(), CheckError> {
    if index >= ORIGINAL_TAG as usize {
        return Err(CheckError::Trace(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "trace exceeds the parallel-dag node limit (2^31 learned clauses)",
        )));
    }
    let node = index as u32;
    let src_start = dag.srcs.len() as u32;
    let mut indeg = 0u32;
    for &s in sources {
        if ids.is_original(s) {
            let ix = dag.intern_original(cnf, s);
            dag.srcs.push(ix | ORIGINAL_TAG);
        } else if let Some(j) = ids.index(s).filter(|&j| j < index) {
            dag.srcs.push(j as u32);
            rev_pairs.push((j as u32, node));
            indeg += 1;
        } else {
            // Truncate at the first structurally missing source; the
            // executor folds the prefix, then reports this.
            dag.structural = Some(StructuralStop {
                node,
                missing: s,
                forward: false,
            });
            break;
        }
    }
    dag.nodes.push(DagNode {
        id,
        src_start,
        src_end: dag.srcs.len() as u32,
        indeg,
        use_count: 0,
        pinned: false,
        stored: false,
    });
    Ok(())
}

/// A [`ClauseProvider`] over the built DAG and the executor's surviving
/// completion slots: originals through the dense pre-normalized table,
/// pinned learned clauses through their node slots.
struct DagProvider<'a> {
    dag: &'a Dag,
    ids: &'a IdSpace,
    slots: Vec<Option<Box<[Lit]>>>,
}

impl ClauseProvider for DagProvider<'_> {
    fn clause_into(&mut self, id: u64, out: &mut Vec<Lit>) -> Result<(), CheckError> {
        let lits: Option<&[Lit]> = if self.ids.is_original(id) {
            let ix = self.dag.orig_index[id as usize];
            (ix != NOT_INTERNED).then(|| &*self.dag.originals[ix as usize])
        } else {
            self.ids
                .index(id)
                .and_then(|j| self.slots.get(j)?.as_deref())
        };
        let lits = lits.ok_or(CheckError::UnknownClause {
            id,
            referenced_by: None,
        })?;
        out.clear();
        out.extend_from_slice(lits);
        Ok(())
    }
}

/// The parallel-dag checker: the streaming build of the dense
/// dependency graph during pass 1, the work-stealing resolution pass,
/// and the final empty-clause derivation over the surviving slots.
pub(crate) fn run<S: TraceSource + ?Sized>(
    cnf: &Cnf,
    trace: &S,
    config: &CheckConfig,
    obs: &mut dyn Observer,
) -> Result<CheckOutcome, CheckError> {
    let started = Instant::now();
    // `--jobs` is a cap: workers beyond the machine's available cores
    // cannot raise throughput (the stats are identical either way), so
    // oversubscribed requests silently run with fewer workers.
    let jobs = effective_jobs(config.jobs).min(max_useful_workers());
    let mut meter = MemoryMeter::new(config.memory_limit);

    let build_phase = Phase::start("check:dag-build", obs);
    obs.observe(&Event::GaugeSet {
        name: "check.jobs",
        value: jobs as f64,
    });
    let (pass, dag) = build(cnf, trace, &mut meter, &config.cancel)?;
    let start_id = pass.start_id()?;
    let (work, span) = dag.work_and_span();
    for (name, value) in [("check.dag.work", work), ("check.dag.span", span)] {
        obs.observe(&Event::GaugeSet {
            name,
            value: value as f64,
        });
    }
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
        ids: &pass.ids,
        slots,
    };
    let final_stats = derive_empty_clause(start_id, &pass.level_zero, &mut provider)?;
    final_phase.finish(obs);

    let stats = CheckStats {
        strategy: Strategy::ParallelDag,
        learned_in_trace: pass.ids.len() as u64,
        clauses_built,
        resolutions: resolutions + final_stats.resolutions,
        peak_memory_bytes: meter.peak(),
        runtime: started.elapsed(),
        trace_bytes: trace.encoded_size(),
    };
    crate::chain::emit_check_gauges(obs, &stats, pass.ids.len() as u64);
    Ok(CheckOutcome { core: None, stats })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rescheck_obs::NullObserver;
    use rescheck_trace::{BinaryWriter, FileTrace, MemorySink, TraceEvent, TraceSink};

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

    /// The build on an unlimited meter, which is returned.
    fn built(cnf: &Cnf, sink: &MemorySink) -> (Dag, MemoryMeter) {
        let mut meter = MemoryMeter::unlimited();
        let (_, dag) = build(cnf, sink, &mut meter, &CancelFlag::default()).unwrap();
        (dag, meter)
    }

    fn build_chain(n: i64) -> Dag {
        let (cnf, sink) = chain(n);
        built(&cnf, &sink).0
    }

    #[test]
    fn chain_trace_builds_a_path_graph() {
        let dag = build_chain(16);
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
    fn a_chain_has_no_parallelism() {
        let dag = build_chain(16);
        assert_eq!(dag.work_and_span(), (15, 15));
    }

    #[test]
    fn a_diamond_runs_its_two_arms_side_by_side() {
        let (cnf, sink) = crate::depth_first::table::diamond();
        let (dag, _) = built(&cnf, &sink);
        // #5, then #6 and #7 side by side, then #8: four resolutions,
        // three of them on the longest path.
        assert_eq!(dag.work_and_span(), (4, 3));
    }

    #[test]
    fn parallel_dag_rejects_malformed_traces_like_breadth_first() {
        // Malformed traces must fail with breadth-first's first error,
        // both from an in-memory trace and from a binary file: pdag's
        // pass 1 is breadth-first's, and it reads a file the same way.
        fn duplicate(events: &mut Vec<TraceEvent>) {
            let dup = events[100].clone();
            events.insert(4000, dup);
        }
        fn forward(events: &mut [TraceEvent]) {
            if let TraceEvent::Learned { sources, .. } = &mut events[10] {
                sources[0] = 1_000_000;
            }
        }
        fn forward_then_duplicate(events: &mut Vec<TraceEvent>) {
            forward(events);
            duplicate(events);
        }
        type Mutation = fn(&mut Vec<TraceEvent>);
        let cases: [(Mutation, Option<u64>); 6] = [
            (duplicate, None),
            (|events| forward(events), None),
            // Self-referencing clause.
            (
                |events| {
                    if let TraceEvent::Learned { id, sources } = &mut events[3000] {
                        sources[0] = *id;
                    }
                },
                None,
            ),
            // Empty source list.
            (
                |events| {
                    if let TraceEvent::Learned { sources, .. } = &mut events[4500] {
                        sources.clear();
                    }
                },
                None,
            ),
            // Pass 1 finds the duplicate before pass 2 could reach the
            // forward reference, under any memory limit.
            (forward_then_duplicate, None),
            (forward_then_duplicate, Some(1)),
        ];
        let path =
            std::env::temp_dir().join(format!("rescheck-dag-malformed-{}.rtb", std::process::id()));
        for (i, (mutate, memory_limit)) in cases.into_iter().enumerate() {
            let config = CheckConfig {
                memory_limit,
                jobs: 4,
                ..CheckConfig::default()
            };
            let (cnf, sink) = chain(6000);
            let mut events = sink.into_events();
            mutate(&mut events);
            let first_error = |trace: &dyn TraceSource| {
                let bf = crate::api::check_breadth_first(&cnf, trace, &config).unwrap_err();
                let pdag = run(&cnf, trace, &config, &mut NullObserver).unwrap_err();
                if i >= 4 {
                    assert!(matches!(bf, CheckError::DuplicateLearnedId { .. }), "{bf}");
                }
                (bf.to_string(), pdag.to_string())
            };
            let (bf, pdag) = first_error(&events);
            assert_eq!(pdag, bf, "case {i}, in memory");

            {
                let file = std::fs::File::create(&path).unwrap();
                let mut writer = BinaryWriter::new(std::io::BufWriter::new(file)).unwrap();
                for e in &events {
                    writer.event(e).unwrap();
                }
                writer.flush().unwrap();
            }
            let (bf, pdag) = first_error(&FileTrace::open(&path).unwrap());
            assert_eq!(pdag, bf, "case {i}, binary file");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn source_ids_round_trip_through_the_tags() {
        let dag = build_chain(8);
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
        let (dag, _) = built(&cnf, &sink);
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
        let (dag, _) = built(&cnf, &sink);
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
        let (dag, meter) = built(&cnf, &sink);
        // Chain antecedents 0..8 plus the final conflict (-n) = 9
        // distinct originals; the one level-0 antecedent is learned.
        assert_eq!(dag.originals.len(), 9);
        let clause_cost: u64 = dag.originals.iter().map(|c| clause_bytes(c.len())).sum();
        let meta_cost =
            dag.nodes.len() as u64 * DAG_NODE_BYTES + dag.srcs.len() as u64 * DAG_SOURCE_BYTES;
        assert_eq!(
            meter.current(),
            LEVEL_ZERO_RECORD_BYTES + clause_cost + meta_cost
        );
    }
}
