//! Converting resolve traces to LRAT.
//!
//! The conversion leans on one structural fact: a learned clause's
//! antecedent chain `s0 ⊗ s1 ⊗ … ⊗ sk` (conflicting clause first, one
//! clashing variable per step) is exactly a reverse unit propagation
//! refutation read backwards. Assuming the negation of the resolvent
//! and replaying `sk, …, s1` makes each antecedent unit in turn, and
//! `s0` ends up falsified — so the LRAT hint list for the clause is the
//! source chain *reversed*. No propagation or search happens here: the
//! exporter folds each chain once (validating it, like the checkers do)
//! to learn the clause's literals, and emits the hints by reversal.
//!
//! The trace's level-0 records and final conflict become the LRAT empty
//! clause: its hints are the level-0 antecedents that the final clause's
//! falsification actually depends on (the backward-reachable cone, in
//! recorded order — the order the trace validated, so each is unit when
//! replayed), followed by the final clause itself.
//!
//! Deletion lines come from a last-use scan: once no later hint list
//! references a clause, it is deleted. Original clauses the proof never
//! uses are left alone (deleting them is legal but noise), and learned
//! clauses nothing ever uses are deleted right after their definition.

use crate::error::InteropError;
use crate::lrat::LratStep;
use rescheck_checker::{normalize_literals, ResolutionKernel};
use rescheck_cnf::{Cnf, Lit};
use rescheck_trace::TraceEvent;
use std::collections::HashMap;

/// Counters from one export run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExportStats {
    /// Learned clauses converted to LRAT additions.
    pub learned: u64,
    /// Level-0 assignment records in the trace.
    pub level_zero: u64,
    /// Level-0 records the empty clause actually depends on (the cone).
    pub level_zero_used: u64,
    /// Clause ids covered by emitted deletion lines.
    pub deletions: u64,
}

impl std::fmt::Display for ExportStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "export: {} learned, {} level-0 ({} in cone), {} deletions",
            self.learned, self.level_zero, self.level_zero_used, self.deletions
        )
    }
}

/// The converted proof plus the data round-trip tests compare against.
#[derive(Debug)]
pub struct ExportReport {
    /// The LRAT proof, additions interleaved with deletions.
    pub steps: Vec<LratStep>,
    /// Export counters.
    pub stats: ExportStats,
    /// `(lrat_id, literals)` of every learned clause emitted (sorted,
    /// deduplicated literals — the same normal form ingestion reports).
    pub resolvents: Vec<(u64, Vec<Lit>)>,
}

/// Everything known about a clause id while walking the trace.
struct ClauseInfo {
    lrat_id: u64,
    lits: Vec<Lit>,
}

/// A validated level-0 assignment record.
struct LevelZeroRec {
    lit: Lit,
    antecedent: u64,
}

/// Converts a resolve trace to an LRAT proof of unsatisfiability.
///
/// # Errors
///
/// [`InteropError`] of kind `ProofDefect` whenever the trace itself is
/// not a valid refutation — a chain that does not fold with one clash
/// per step, an undefined or duplicate id, a level-0 antecedent that is
/// not unit under the earlier records, a final clause the records do
/// not falsify, or a trace with no final conflict at all. (A defective
/// trace has no LRAT counterpart; the caller should run a native check
/// to get the precise diagnosis.)
pub fn export_lrat(cnf: &Cnf, events: &[TraceEvent]) -> Result<ExportReport, InteropError> {
    let num_original = cnf.num_clauses() as u64;
    let mut clauses: HashMap<u64, ClauseInfo> = HashMap::with_capacity(cnf.num_clauses());
    for (id, clause) in cnf.iter() {
        clauses.insert(
            id as u64,
            ClauseInfo {
                lrat_id: id as u64 + 1,
                lits: normalize_literals(clause.iter().copied()),
            },
        );
    }
    let mut next_lrat = num_original + 1;
    let mut additions: Vec<(u64, Vec<Lit>, Vec<u64>)> = Vec::new();
    let mut resolvents: Vec<(u64, Vec<Lit>)> = Vec::new();
    let mut level_zero: Vec<LevelZeroRec> = Vec::new();
    // Variable index → position in `level_zero`.
    let mut var_record: HashMap<usize, usize> = HashMap::new();
    let mut final_id: Option<u64> = None;
    let mut stats = ExportStats::default();
    let mut kernel = ResolutionKernel::new();

    for (evno, event) in events.iter().enumerate() {
        let at = Some(evno as u64 + 1);
        if final_id.is_some() {
            // The checkers take the first final conflict and ignore the
            // rest of the trace; the exporter matches them.
            break;
        }
        match event {
            TraceEvent::Learned { id, sources } => {
                if clauses.contains_key(id) {
                    return Err(InteropError::defect(
                        at,
                        format!("learned clause id {id} is already defined"),
                    ));
                }
                if sources.len() < 2 {
                    return Err(InteropError::defect(
                        at,
                        format!("learned clause {id} has fewer than two sources"),
                    ));
                }
                let mut hints = Vec::with_capacity(sources.len());
                for (step, &src) in sources.iter().enumerate() {
                    let info = clauses.get(&src).ok_or_else(|| {
                        InteropError::defect(
                            at,
                            format!("learned clause {id} references undefined clause {src}"),
                        )
                    })?;
                    hints.push(info.lrat_id);
                    if step == 0 {
                        kernel.begin(&info.lits);
                    } else {
                        kernel.fold(&info.lits).map_err(|e| {
                            InteropError::defect(
                                at,
                                format!("learned clause {id} does not fold: {e}"),
                            )
                        })?;
                    }
                }
                // Chain order is conflict-first; RUP replays it backwards.
                hints.reverse();
                let lits = kernel.finish().to_vec();
                let lrat_id = next_lrat;
                next_lrat += 1;
                stats.learned += 1;
                resolvents.push((lrat_id, lits.clone()));
                additions.push((lrat_id, lits.clone(), hints));
                clauses.insert(*id, ClauseInfo { lrat_id, lits });
            }
            TraceEvent::LevelZero { lit, antecedent } => {
                let info = clauses.get(antecedent).ok_or_else(|| {
                    InteropError::defect(
                        at,
                        format!("level-0 record references undefined clause {antecedent}"),
                    )
                })?;
                if var_record.contains_key(&lit.var().index()) {
                    return Err(InteropError::defect(
                        at,
                        format!("variable {} has two level-0 records", lit.var().to_dimacs()),
                    ));
                }
                // The antecedent must be unit (= `lit`) under the
                // records so far — the discipline the final-phase
                // checker enforces, revalidated so a bad trace cannot
                // become a "valid" LRAT file.
                let mut saw_lit = false;
                for &l in &info.lits {
                    if l == *lit {
                        saw_lit = true;
                    } else if var_record
                        .get(&l.var().index())
                        .is_none_or(|&r| level_zero[r].lit != !l)
                    {
                        return Err(InteropError::defect(
                            at,
                            format!("level-0 antecedent {antecedent} is not unit"),
                        ));
                    }
                }
                if !saw_lit {
                    return Err(InteropError::defect(
                        at,
                        format!("level-0 antecedent {antecedent} does not contain the literal"),
                    ));
                }
                stats.level_zero += 1;
                var_record.insert(lit.var().index(), level_zero.len());
                level_zero.push(LevelZeroRec {
                    lit: *lit,
                    antecedent: *antecedent,
                });
            }
            TraceEvent::FinalConflict { id } => {
                final_id = Some(*id);
            }
        }
    }

    let Some(final_id) = final_id else {
        return Err(InteropError::defect(
            None,
            "trace has no final conflict event",
        ));
    };
    let final_info = clauses.get(&final_id).ok_or_else(|| {
        InteropError::defect(
            None,
            format!("final conflict references undefined clause {final_id}"),
        )
    })?;

    // Backward-reachable cone of level-0 records the final clause needs.
    let mut needed = vec![false; level_zero.len()];
    let mut stack: Vec<usize> = Vec::new();
    for &l in &final_info.lits {
        match var_record.get(&l.var().index()) {
            Some(&r) if level_zero[r].lit == !l => stack.push(r),
            _ => {
                return Err(InteropError::defect(
                    None,
                    format!(
                        "final clause {final_id} is not falsified by the level-0 records \
                         (literal {} is unassigned)",
                        l.to_dimacs()
                    ),
                ))
            }
        }
    }
    while let Some(r) = stack.pop() {
        if needed[r] {
            continue;
        }
        needed[r] = true;
        let ante = &clauses[&level_zero[r].antecedent];
        for &l in &ante.lits {
            if l != level_zero[r].lit {
                // Validated above: every non-unit literal has a record.
                stack.push(var_record[&l.var().index()]);
            }
        }
    }
    let mut final_hints: Vec<u64> = Vec::new();
    for (r, rec) in level_zero.iter().enumerate() {
        if needed[r] {
            stats.level_zero_used += 1;
            final_hints.push(clauses[&rec.antecedent].lrat_id);
        }
    }
    final_hints.push(final_info.lrat_id);
    let empty_id = next_lrat;
    additions.push((empty_id, Vec::new(), final_hints));

    // Last-use scan for deletion lines: a clause's life ends at the
    // last addition whose hints reference it (a learned clause no one
    // references dies at its own definition).
    let mut last_use: HashMap<u64, usize> = HashMap::new();
    for (step, (lrat_id, _, hints)) in additions.iter().enumerate() {
        if *lrat_id > num_original {
            last_use.entry(*lrat_id).or_insert(step);
        }
        for &h in hints {
            last_use.insert(h, step);
        }
    }
    last_use.remove(&empty_id);
    let mut deletions_at: Vec<Vec<u64>> = vec![Vec::new(); additions.len()];
    for (&lrat_id, &step) in &last_use {
        if step + 1 < additions.len() {
            deletions_at[step].push(lrat_id);
        }
    }

    let mut steps = Vec::with_capacity(additions.len() * 2);
    for (step, (lrat_id, lits, hints)) in additions.into_iter().enumerate() {
        steps.push(LratStep::Add {
            id: lrat_id,
            lits: lits.iter().map(|l| l.to_dimacs()).collect(),
            hints: hints.into_iter().map(|h| h as i64).collect(),
        });
        let mut dead = std::mem::take(&mut deletions_at[step]);
        if !dead.is_empty() {
            dead.sort_unstable();
            stats.deletions += dead.len() as u64;
            steps.push(LratStep::Delete { ids: dead });
        }
    }

    Ok(ExportReport {
        steps,
        stats,
        resolvents,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::InteropErrorKind;
    use crate::ingest::ingest_lrat;
    use rescheck_cnf::Lit;

    fn cnf(clauses: &[&[i64]]) -> Cnf {
        let mut cnf = Cnf::new();
        for c in clauses {
            cnf.add_dimacs_clause(c);
        }
        cnf
    }

    fn lit(d: i64) -> Lit {
        Lit::from_dimacs(d)
    }

    /// (1 2)(1 -2)(-1 3)(-1 -3): learn (1) from clauses 0,1; then 1 is
    /// asserted by the learned clause, 3 by clause 2, and clause 3 is
    /// the final conflict.
    fn tiny_trace() -> (Cnf, Vec<TraceEvent>) {
        let cnf = cnf(&[&[1, 2], &[1, -2], &[-1, 3], &[-1, -3]]);
        let events = vec![
            TraceEvent::Learned {
                id: 4,
                sources: vec![0, 1],
            },
            TraceEvent::LevelZero {
                lit: lit(1),
                antecedent: 4,
            },
            TraceEvent::LevelZero {
                lit: lit(3),
                antecedent: 2,
            },
            TraceEvent::FinalConflict { id: 3 },
        ];
        (cnf, events)
    }

    #[test]
    fn exports_hints_in_reverse_chain_order() {
        let (cnf, events) = tiny_trace();
        let report = export_lrat(&cnf, &events).unwrap();
        let adds: Vec<&LratStep> = report
            .steps
            .iter()
            .filter(|s| matches!(s, LratStep::Add { .. }))
            .collect();
        assert_eq!(adds.len(), 2);
        let LratStep::Add { id, lits, hints } = adds[0] else {
            unreachable!()
        };
        assert_eq!(
            (*id, lits.as_slice(), hints.as_slice()),
            (5, &[1][..], &[2, 1][..])
        );
        let LratStep::Add { id, lits, hints } = adds[1] else {
            unreachable!()
        };
        assert_eq!((*id, lits.len()), (6, 0));
        // Level-0 antecedents in recorded order, then the final clause.
        assert_eq!(hints.as_slice(), &[5, 3, 4]);
    }

    #[test]
    fn exported_proof_reingests_cleanly() {
        let (cnf, events) = tiny_trace();
        let report = export_lrat(&cnf, &events).unwrap();
        let reingested = ingest_lrat(&cnf, &report.steps).unwrap();
        assert!(reingested.resolution_checkable());
        let exported: Vec<&Vec<Lit>> = report.resolvents.iter().map(|(_, l)| l).collect();
        let ingested: Vec<&Vec<Lit>> = reingested.resolvents.iter().map(|(_, l)| l).collect();
        assert_eq!(exported, ingested);
    }

    #[test]
    fn deletion_lines_cover_spent_clauses() {
        let (cnf, events) = tiny_trace();
        let report = export_lrat(&cnf, &events).unwrap();
        // Clauses 1 and 2 (lrat ids) are last used by the first lemma,
        // which is not the last addition — they must be deleted.
        let deleted: Vec<u64> = report
            .steps
            .iter()
            .filter_map(|s| match s {
                LratStep::Delete { ids } => Some(ids.clone()),
                _ => None,
            })
            .flatten()
            .collect();
        assert_eq!(deleted, vec![1, 2]);
        assert_eq!(report.stats.deletions, 2);
    }

    #[test]
    fn unfoldable_chain_is_a_defect() {
        let cnf = cnf(&[&[1, 2], &[-1, -2]]);
        // Two clashing variables: not a resolution step.
        let events = vec![TraceEvent::Learned {
            id: 2,
            sources: vec![0, 1],
        }];
        let err = export_lrat(&cnf, &events).unwrap_err();
        assert_eq!(err.kind, InteropErrorKind::ProofDefect);
    }

    #[test]
    fn missing_final_conflict_is_a_defect() {
        let (cnf, mut events) = tiny_trace();
        events.pop();
        let err = export_lrat(&cnf, &events).unwrap_err();
        assert_eq!(err.kind, InteropErrorKind::ProofDefect);
    }

    #[test]
    fn non_unit_level_zero_antecedent_is_a_defect() {
        let cnf = cnf(&[&[1, 2], &[-1, -2]]);
        let events = vec![TraceEvent::LevelZero {
            lit: lit(1),
            antecedent: 0,
        }];
        let err = export_lrat(&cnf, &events).unwrap_err();
        assert_eq!(err.kind, InteropErrorKind::ProofDefect);
    }

    #[test]
    fn original_empty_clause_exports_directly() {
        let mut cnf = Cnf::new();
        cnf.add_dimacs_clause(&[1, 2]);
        cnf.add_dimacs_clause(&[]);
        let events = vec![TraceEvent::FinalConflict { id: 1 }];
        let report = export_lrat(&cnf, &events).unwrap();
        let LratStep::Add { lits, hints, .. } = &report.steps[0] else {
            panic!("expected an addition")
        };
        assert!(lits.is_empty());
        assert_eq!(hints.as_slice(), &[2]);
    }
}
