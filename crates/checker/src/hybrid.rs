//! The hybrid checking strategy — the paper's future work, realized.
//!
//! The conclusion of the paper asks for "a checker that has the advantage
//! of both the depth-first and breadth-first approaches without suffering
//! from their respective shortcomings", suggesting "a depth-first
//! algorithm for the graph on disk". This module is that algorithm:
//!
//! 1. **Index pass** (streaming): record each learned clause's *offset*
//!    in the encoded trace — 16 bytes per learned clause instead of its
//!    whole source list.
//! 2. **Reachability pass** (random access): walk the resolve-source DAG
//!    backwards from the final conflicting clause and the level-0
//!    antecedents, counting, for every *needed* clause, how many needed
//!    clauses consume it. Source lists are re-read from the trace on
//!    demand and never kept.
//! 3. **Build pass** (random access): construct only the needed clauses,
//!    depth-first; a clause is freed the moment its last needed consumer
//!    has been built (breadth-first's memory discipline applied to
//!    depth-first's clause subset).
//! 4. The final empty-clause derivation runs over the pinned clauses.
//!
//! Like depth-first, it builds only the clauses the proof touches (and
//! therefore also yields an unsat core); like breadth-first, its resident
//! memory excludes the trace and is bounded by live clauses plus small
//! per-clause bookkeeping.

use crate::api::CheckConfig;
use crate::breadth_first::rebuild;
use crate::chain::{ChainStep, PROGRESS_STRIDE};
use crate::depth_first::fetch_learned;
use crate::error::CheckError;
use crate::fxhash::{FxHashMap, FxHashSet};
use crate::memory::{MemoryMeter, INDEX_ENTRY_BYTES, LEVEL_ZERO_RECORD_BYTES, USE_COUNT_BYTES};
use crate::model::{validate_learned, LevelZeroMap};
use crate::outcome::{CheckOutcome, Strategy};
use crate::scratch::CheckScratch;
use rescheck_cnf::Cnf;
use rescheck_obs::{Observer, Phase};
use rescheck_trace::{RandomAccessTrace, TraceCursor, TraceEvent};
use std::time::Instant;

pub(crate) fn run<S: RandomAccessTrace + ?Sized>(
    cnf: &Cnf,
    trace: &S,
    config: &CheckConfig,
    scratch: &mut CheckScratch,
    obs: &mut dyn Observer,
) -> Result<CheckOutcome, CheckError> {
    let start = Instant::now();
    let num_original = cnf.num_clauses();
    let mut meter = MemoryMeter::new(config.memory_limit);

    let pass1 = Phase::start("check:pass1", obs);
    // ---- Pass 1: offset index + level-0 records + pins.
    let mut index: FxHashMap<u64, u64> = FxHashMap::default();
    let mut level_zero = LevelZeroMap::default();
    let mut pinned: Vec<u64> = Vec::new();
    let mut final_ids: Vec<u64> = Vec::new();
    let mut seen: u64 = 0;
    for item in trace.offset_events()? {
        seen += 1;
        if seen.is_multiple_of(PROGRESS_STRIDE) {
            config.cancel.check()?;
        }
        let (offset, event) = item?;
        match event {
            TraceEvent::Learned { id, sources } => {
                validate_learned(id, sources.len(), num_original, |c| index.contains_key(&c))?;
                index.insert(id, offset);
            }
            TraceEvent::LevelZero { lit, antecedent } => {
                level_zero.insert(lit, antecedent)?;
                if antecedent >= num_original as u64 {
                    pinned.push(antecedent);
                }
            }
            // The final derivation starts from the *first* final conflict
            // only; pinning every recorded one would keep clauses the
            // proof never revisits resident for the whole run.
            TraceEvent::FinalConflict { id } => final_ids.push(id),
        }
    }
    let start_id = *final_ids.first().ok_or(CheckError::NoFinalConflict)?;
    if start_id >= num_original as u64 {
        pinned.push(start_id);
    }
    meter.alloc(
        index.len() as u64 * INDEX_ENTRY_BYTES + level_zero.len() as u64 * LEVEL_ZERO_RECORD_BYTES,
    )?;
    pass1.finish(obs);

    let mut cursor = trace.open_cursor()?;
    let sources_of = |cursor: &mut dyn TraceCursor,
                      index: &FxHashMap<u64, u64>,
                      id: u64,
                      parent: Option<u64>|
     -> Result<Vec<u64>, CheckError> {
        let offset = *index.get(&id).ok_or(CheckError::UnknownClause {
            id,
            referenced_by: parent,
        })?;
        fetch_learned(cursor, id, offset)
    };

    // ---- Pass 2: reachability + use counts over the needed subgraph.
    let resolve_phase = Phase::start("check:resolve", obs);
    let pinned_set: FxHashSet<u64> = pinned
        .iter()
        .copied()
        .filter(|&id| id >= num_original as u64)
        .collect();
    let mut use_counts: FxHashMap<u64, u32> = FxHashMap::default();
    let mut visited: FxHashSet<u64> = FxHashSet::default();
    let mut gray: FxHashSet<u64> = FxHashSet::default();
    let mut steps: u64 = 0;
    for &root in &pinned_set {
        if visited.contains(&root) {
            continue;
        }
        // Iterative DFS with gray marking for cycle detection.
        let mut stack: Vec<(u64, Option<u64>)> = vec![(root, None)];
        while let Some(&(cur, parent)) = stack.last() {
            steps += 1;
            if steps.is_multiple_of(PROGRESS_STRIDE) {
                config.cancel.check()?;
            }
            if cur < num_original as u64 || visited.contains(&cur) {
                stack.pop();
                continue;
            }
            if gray.contains(&cur) {
                // Children expanded: mark done.
                gray.remove(&cur);
                visited.insert(cur);
                stack.pop();
                continue;
            }
            gray.insert(cur);
            let sources = sources_of(&mut *cursor, &index, cur, parent)?;
            for &s in &sources {
                if s >= num_original as u64 {
                    *use_counts.entry(s).or_insert(0) += 1;
                    if gray.contains(&s) {
                        return Err(CheckError::CyclicProof { id: s });
                    }
                    if !visited.contains(&s) {
                        stack.push((s, Some(cur)));
                    }
                }
            }
        }
    }
    let needed = visited.len();
    meter.alloc(needed as u64 * USE_COUNT_BYTES)?;

    // ---- Pass 3: depth-first build over the needed subgraph, freeing
    // clauses as their last use completes.
    // Build in reverse topological order discovered by a second DFS (the
    // graph is now known to be acyclic).
    let mut build_order: Vec<u64> = Vec::with_capacity(needed);
    {
        let mut expanded: FxHashSet<u64> = FxHashSet::default();
        let mut placed: FxHashSet<u64> = FxHashSet::default();
        for &root in &pinned_set {
            let mut stack: Vec<u64> = vec![root];
            while let Some(&cur) = stack.last() {
                if cur < num_original as u64 || placed.contains(&cur) {
                    stack.pop();
                    continue;
                }
                if expanded.contains(&cur) {
                    placed.insert(cur);
                    build_order.push(cur);
                    stack.pop();
                    continue;
                }
                expanded.insert(cur);
                for &s in &sources_of(&mut *cursor, &index, cur, Some(cur))? {
                    if s >= num_original as u64 && !placed.contains(&s) {
                        stack.push(s);
                    }
                }
            }
        }
    }

    let mut chain = ChainStep::new(cnf, meter, config, scratch, true, obs);
    for id in build_order {
        let sources = sources_of(&mut *cursor, &index, id, None)?;
        rebuild(&mut chain, id, &sources, &mut use_counts, &pinned_set)?;
    }
    resolve_phase.finish(&mut *chain.obs);

    // ---- Final phase over the pinned clauses.
    chain.final_phase(start_id, &level_zero, |_, _| Ok(()))?;
    Ok(chain.finish(
        Strategy::Hybrid,
        index.len() as u64,
        use_counts.len() as u64,
        start,
        trace.encoded_size(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rescheck_cnf::Lit;
    use rescheck_obs::NullObserver;
    use rescheck_trace::{MemorySink, TraceSink};

    fn run(
        cnf: &Cnf,
        trace: &MemorySink,
        config: &CheckConfig,
        obs: &mut dyn Observer,
    ) -> Result<CheckOutcome, CheckError> {
        super::run(cnf, trace, config, &mut CheckScratch::new(), obs)
    }

    fn learned_proof() -> (Cnf, MemorySink) {
        let mut cnf = Cnf::new();
        cnf.add_dimacs_clause(&[1, 2]);
        cnf.add_dimacs_clause(&[1, -2]);
        cnf.add_dimacs_clause(&[-1, 2]);
        cnf.add_dimacs_clause(&[-1, -2]);
        let mut sink = MemorySink::new();
        sink.learned(4, &[0, 1]).unwrap(); // (1)
        sink.learned(5, &[2, 3]).unwrap(); // (-1)
        sink.level_zero(Lit::from_dimacs(1), 4).unwrap();
        sink.final_conflict(5).unwrap();
        (cnf, sink)
    }

    #[test]
    fn accepts_learned_clause_proof_with_core() {
        let (cnf, sink) = learned_proof();
        let outcome = run(&cnf, &sink, &CheckConfig::default(), &mut NullObserver).unwrap();
        assert_eq!(outcome.stats.strategy, Strategy::Hybrid);
        assert_eq!(outcome.stats.clauses_built, 2);
        let core = outcome.core.unwrap();
        assert_eq!(core.clause_ids, vec![0, 1, 2, 3]);
    }

    #[test]
    fn skips_unneeded_clauses_like_depth_first() {
        let mut cnf = Cnf::new();
        cnf.add_dimacs_clause(&[1]);
        cnf.add_dimacs_clause(&[-1, 2]);
        cnf.add_dimacs_clause(&[-2]);
        cnf.add_dimacs_clause(&[3, 4]);
        cnf.add_dimacs_clause(&[-4, 5]);
        let mut sink = MemorySink::new();
        sink.learned(5, &[3, 4]).unwrap(); // irrelevant to the proof
        sink.level_zero(Lit::from_dimacs(1), 0).unwrap();
        sink.level_zero(Lit::from_dimacs(2), 1).unwrap();
        sink.final_conflict(2).unwrap();
        let outcome = run(&cnf, &sink, &CheckConfig::default(), &mut NullObserver).unwrap();
        assert_eq!(outcome.stats.clauses_built, 0);
        assert_eq!(outcome.core.unwrap().clause_ids, vec![0, 1, 2]);
    }

    #[test]
    fn missing_final_conflict_is_rejected() {
        let mut cnf = Cnf::new();
        cnf.add_dimacs_clause(&[1]);
        let sink = MemorySink::new();
        assert!(matches!(
            run(&cnf, &sink, &CheckConfig::default(), &mut NullObserver).unwrap_err(),
            CheckError::NoFinalConflict
        ));
    }

    #[test]
    fn cycles_are_detected() {
        let mut cnf = Cnf::new();
        cnf.add_dimacs_clause(&[1]);
        let mut sink = MemorySink::new();
        sink.learned(1, &[2, 0]).unwrap();
        sink.learned(2, &[1, 0]).unwrap();
        sink.final_conflict(1).unwrap();
        assert!(matches!(
            run(&cnf, &sink, &CheckConfig::default(), &mut NullObserver).unwrap_err(),
            CheckError::CyclicProof { .. }
        ));
    }

    #[test]
    fn invalid_resolution_is_attributed() {
        let mut cnf = Cnf::new();
        cnf.add_dimacs_clause(&[1, 2]);
        cnf.add_dimacs_clause(&[3, 4]);
        let mut sink = MemorySink::new();
        sink.learned(2, &[0, 1]).unwrap();
        sink.final_conflict(2).unwrap();
        let err = run(&cnf, &sink, &CheckConfig::default(), &mut NullObserver).unwrap_err();
        assert!(matches!(
            err,
            CheckError::NotResolvable {
                target: Some(2),
                ..
            }
        ));
    }

    #[test]
    fn memory_limit_applies() {
        let (cnf, sink) = learned_proof();
        let config = CheckConfig {
            memory_limit: Some(8),
            ..CheckConfig::default()
        };
        assert!(matches!(
            run(&cnf, &sink, &config, &mut NullObserver).unwrap_err(),
            CheckError::MemoryLimitExceeded { .. }
        ));
    }

    #[test]
    fn frees_mid_chain_clauses() {
        // A long chain where every learned clause is used exactly once:
        // hybrid must not hold them all simultaneously.
        let mut cnf = Cnf::new();
        let n = 64i64;
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

        let hybrid = run(&cnf, &sink, &CheckConfig::default(), &mut NullObserver).unwrap();
        let df = crate::api::check_depth_first(&cnf, &sink, &CheckConfig::default()).unwrap();
        assert!(
            hybrid.stats.peak_memory_bytes < df.stats.peak_memory_bytes,
            "hybrid {} vs df {}",
            hybrid.stats.peak_memory_bytes,
            df.stats.peak_memory_bytes
        );
        assert_eq!(hybrid.stats.clauses_built, df.stats.clauses_built);
    }
}
