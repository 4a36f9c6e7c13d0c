//! Proof trimming: shrink a trace to the clauses the proof needs.
//!
//! The depth-first checker "can tell what clauses are needed for this
//! proof of unsatisfiability" (paper §3.2). This module turns that
//! observation into an artifact: given a formula and a trace, it emits a
//! **trimmed trace** containing only the learned clauses reachable from
//! the empty-clause derivation (plus the level-0 records and the final
//! conflict), preserving generation order so the result still checks
//! under every strategy. Trimmed traces are what you archive: the same
//! proof, minus the learned clauses the search produced but never used.

use crate::cancel::CancelFlag;
use crate::error::CheckError;
use crate::model::load_full;
use crate::outcome::UnsatCore;
use crate::proof::{needed_cone, NeededCone};
use rescheck_cnf::Cnf;
use rescheck_obs::{Event, NullObserver, Observer, Phase};
use rescheck_trace::{EventRef, TraceEvent, TraceSource};

/// The result of trimming a trace.
#[derive(Clone, Debug)]
pub struct TrimmedTrace {
    /// The surviving events, in their original order.
    pub events: Vec<TraceEvent>,
    /// Original clauses referenced by the surviving proof.
    pub core: UnsatCore,
    /// Learned clauses kept.
    pub kept_learned: u64,
    /// Learned clauses dropped as unreachable from the proof.
    pub dropped_learned: u64,
}

impl TrimmedTrace {
    /// Fraction of learned clauses kept, in percent.
    pub fn kept_percent(&self) -> f64 {
        let total = self.kept_learned + self.dropped_learned;
        if total == 0 {
            100.0
        } else {
            100.0 * self.kept_learned as f64 / total as f64
        }
    }
}

/// Trims `trace` to the learned clauses reachable from the final
/// conflicting clause and the level-0 antecedents.
///
/// Trimming performs the *structural* half of checking (ID validation and
/// reachability over the resolve-source DAG, including cycle detection)
/// but does not re-derive clauses; run any checking strategy on the
/// result to validate the resolutions themselves. A trimmed trace checks
/// if and only if the original does.
///
/// # Errors
///
/// Fails on unreadable traces, malformed or duplicate records, missing
/// final conflicts, unknown clause references and cyclic proofs.
///
/// # Examples
///
/// ```
/// use rescheck_checker::{check_unsat_claim, trim_trace, CheckConfig, Strategy};
/// use rescheck_cnf::Cnf;
/// use rescheck_solver::{Solver, SolverConfig};
/// use rescheck_trace::MemorySink;
///
/// let mut cnf = Cnf::new();
/// cnf.add_dimacs_clause(&[1]);
/// cnf.add_dimacs_clause(&[-1]);
/// let mut solver = Solver::from_cnf(&cnf, SolverConfig::default());
/// let mut trace = MemorySink::new();
/// assert!(solver.solve_traced(&mut trace)?.is_unsat());
///
/// let trimmed = trim_trace(&cnf, &trace)?;
/// // The trimmed trace still checks.
/// check_unsat_claim(&cnf, &trimmed.events, Strategy::BreadthFirst, &CheckConfig::default())?;
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn trim_trace<S: TraceSource + ?Sized>(
    cnf: &Cnf,
    trace: &S,
) -> Result<TrimmedTrace, CheckError> {
    trim_trace_observed(cnf, trace, &mut NullObserver)
}

/// [`trim_trace`] with an [`Observer`] receiving the `check:pass1` phase
/// timer and the `trim.kept_learned` / `trim.dropped_learned` gauges.
///
/// # Errors
///
/// See [`trim_trace`].
pub fn trim_trace_observed<S: TraceSource + ?Sized>(
    cnf: &Cnf,
    trace: &S,
    obs: &mut dyn Observer,
) -> Result<TrimmedTrace, CheckError> {
    let pass1 = Phase::start("check:pass1", obs);
    let full = load_full(trace, cnf.num_clauses(), &CancelFlag::default())?;
    let final_id = full.pass1.start_id()?;
    pass1.finish(obs);

    // Reachability, with cycle detection, from what the final phase reads.
    let NeededCone {
        height,
        used_originals,
        ..
    } = needed_cone(&full, final_id)?;
    // The second pass needs only the cone, not the loaded source lists.
    let ids = full.into_pass1().ids;
    let needed = |id| ids.index(id).is_some_and(|j| height[j] > 0);

    // Second pass: re-stream, keeping what survives.
    let mut events: Vec<TraceEvent> = Vec::new();
    let mut kept = 0u64;
    let mut dropped = 0u64;
    let mut emitted_final = false;
    trace.visit_events(&mut |event| {
        match event {
            EventRef::Learned { id, .. } if needed(id) => {
                kept += 1;
                events.push(event.to_owned());
            }
            EventRef::Learned { .. } => dropped += 1,
            EventRef::LevelZero { .. } => events.push(event.to_owned()),
            EventRef::FinalConflict { id } if id == final_id && !emitted_final => {
                emitted_final = true;
                events.push(event.to_owned());
            }
            EventRef::FinalConflict { .. } => {}
        }
        Ok(())
    })?;

    let core_ids: Vec<usize> = used_originals
        .iter()
        .enumerate()
        .filter(|(_, &u)| u)
        .map(|(i, _)| i)
        .collect();

    obs.observe(&Event::GaugeSet {
        name: "trim.kept_learned",
        value: kept as f64,
    });
    obs.observe(&Event::GaugeSet {
        name: "trim.dropped_learned",
        value: dropped as f64,
    });

    Ok(TrimmedTrace {
        events,
        core: UnsatCore::new(core_ids, cnf),
        kept_learned: kept,
        dropped_learned: dropped,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{check_unsat_claim, CheckConfig};
    use crate::outcome::Strategy;
    use rescheck_cnf::Lit;
    use rescheck_solver::{Solver, SolverConfig};
    use rescheck_trace::{MemorySink, TraceSink};

    fn pigeonhole(holes: usize) -> Cnf {
        let pigeons = holes + 1;
        let mut cnf = Cnf::new();
        let lit =
            |p: usize, h: usize| rescheck_cnf::Lit::positive(rescheck_cnf::Var::new(p * holes + h));
        for p in 0..pigeons {
            cnf.add_clause((0..holes).map(|h| lit(p, h)));
        }
        for h in 0..holes {
            for p1 in 0..pigeons {
                for p2 in p1 + 1..pigeons {
                    cnf.add_clause([!lit(p1, h), !lit(p2, h)]);
                }
            }
        }
        cnf
    }

    #[test]
    fn trimmed_real_traces_still_check_under_all_strategies() {
        let cnf = pigeonhole(5);
        let mut solver = Solver::from_cnf(&cnf, SolverConfig::default());
        let mut trace = MemorySink::new();
        assert!(solver.solve_traced(&mut trace).unwrap().is_unsat());
        let trimmed = trim_trace(&cnf, &trace).unwrap();
        assert_eq!(
            trimmed.kept_learned + trimmed.dropped_learned,
            solver.stats().learned_clauses
        );
        for strategy in [
            Strategy::DepthFirst,
            Strategy::BreadthFirst,
            Strategy::Hybrid,
        ] {
            check_unsat_claim(&cnf, &trimmed.events, strategy, &CheckConfig::default())
                .unwrap_or_else(|e| panic!("{strategy}: {e}"));
        }
    }

    #[test]
    fn unreachable_learned_clauses_are_dropped() {
        let mut cnf = Cnf::new();
        cnf.add_dimacs_clause(&[1]);
        cnf.add_dimacs_clause(&[-1, 2]);
        cnf.add_dimacs_clause(&[-2]);
        cnf.add_dimacs_clause(&[3, 4]);
        cnf.add_dimacs_clause(&[-3, 4]);
        let mut sink = MemorySink::new();
        sink.learned(5, &[3, 4]).unwrap(); // never used by the proof
        sink.level_zero(Lit::from_dimacs(1), 0).unwrap();
        sink.level_zero(Lit::from_dimacs(2), 1).unwrap();
        sink.final_conflict(2).unwrap();

        let trimmed = trim_trace(&cnf, &sink).unwrap();
        assert_eq!(trimmed.kept_learned, 0);
        assert_eq!(trimmed.dropped_learned, 1);
        assert_eq!(trimmed.kept_percent(), 0.0);
        assert_eq!(trimmed.core.clause_ids, vec![0, 1, 2]);
        assert!(trimmed
            .events
            .iter()
            .all(|e| !matches!(e, TraceEvent::Learned { .. })));
    }

    #[test]
    fn trimming_preserves_event_order() {
        let cnf = pigeonhole(4);
        let mut solver = Solver::from_cnf(&cnf, SolverConfig::default());
        let mut trace = MemorySink::new();
        assert!(solver.solve_traced(&mut trace).unwrap().is_unsat());
        let trimmed = trim_trace(&cnf, &trace).unwrap();
        // Surviving learned events appear in the same relative order as
        // in the original trace.
        let original_ids: Vec<u64> = trace
            .events()
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Learned { id, .. } => Some(*id),
                _ => None,
            })
            .collect();
        let trimmed_ids: Vec<u64> = trimmed
            .events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Learned { id, .. } => Some(*id),
                _ => None,
            })
            .collect();
        let mut cursor = 0;
        for id in trimmed_ids {
            cursor = original_ids[cursor..]
                .iter()
                .position(|&o| o == id)
                .expect("order preserved")
                + cursor
                + 1;
        }
    }

    #[test]
    fn trimming_is_idempotent() {
        let cnf = pigeonhole(4);
        let mut solver = Solver::from_cnf(&cnf, SolverConfig::default());
        let mut trace = MemorySink::new();
        assert!(solver.solve_traced(&mut trace).unwrap().is_unsat());
        let once = trim_trace(&cnf, &trace).unwrap();
        let twice = trim_trace(&cnf, &once.events).unwrap();
        assert_eq!(once.events, twice.events);
        assert_eq!(twice.dropped_learned, 0);
        assert_eq!(once.core, twice.core);
    }

    #[test]
    fn missing_final_conflict_is_rejected() {
        let cnf = pigeonhole(3);
        let sink = MemorySink::new();
        assert!(matches!(
            trim_trace(&cnf, &sink).unwrap_err(),
            CheckError::NoFinalConflict
        ));
    }

    #[test]
    fn cyclic_proofs_are_rejected() {
        let mut cnf = Cnf::new();
        cnf.add_dimacs_clause(&[1]);
        let mut sink = MemorySink::new();
        sink.learned(1, &[2, 0]).unwrap();
        sink.learned(2, &[1, 0]).unwrap();
        sink.final_conflict(1).unwrap();
        assert!(matches!(
            trim_trace(&cnf, &sink).unwrap_err(),
            CheckError::CyclicProof { .. }
        ));
    }

    #[test]
    fn trim_core_matches_depth_first_core() {
        let cnf = pigeonhole(5);
        let mut solver = Solver::from_cnf(&cnf, SolverConfig::default());
        let mut trace = MemorySink::new();
        assert!(solver.solve_traced(&mut trace).unwrap().is_unsat());
        let trimmed = trim_trace(&cnf, &trace).unwrap();
        let df =
            check_unsat_claim(&cnf, &trace, Strategy::DepthFirst, &CheckConfig::default()).unwrap();
        // The DF core only contains originals the *derivation* touched;
        // the trim core additionally pins level-0 antecedents, so it is a
        // superset.
        let df_core: std::collections::HashSet<_> =
            df.core.unwrap().clause_ids.into_iter().collect();
        let trim_core: std::collections::HashSet<_> =
            trimmed.core.clause_ids.iter().copied().collect();
        assert!(df_core.is_subset(&trim_core));
    }
}
