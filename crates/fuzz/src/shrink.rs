//! DDMIN delta debugging: shrinking a finding to a minimal repro.
//!
//! The reducer is Zeller's classic `ddmin` specialised to the
//! complement-removal phase (the variant used by practical reducers):
//! partition the input into `n` chunks, try dropping each chunk, and on
//! success restart with the reduced input; otherwise double the
//! granularity. The result is 1-minimal with respect to chunk removal
//! under the given test function.
//!
//! Two instantiations matter here:
//!
//! * **instance-level** — the items are the formula's clauses, the test
//!   function re-runs the full oracle (solve → trace → strategy
//!   matrix) on the reduced formula;
//! * **trace-level** — the items are trace events, the test function
//!   re-runs the strategy matrix on the reduced event list.
//!
//! Both test functions are deterministic, so the shrink itself is
//! deterministic — the same finding always reduces to the same repro.

use crate::oracle::{instance_failure_reproduces, trace_failure_reproduces, FindingKind};
use crate::oracle::{Finding, OracleConfig};
use rescheck_cnf::Cnf;
use rescheck_trace::TraceEvent;

/// What a shrink run did, for logs and `repro.json`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShrinkStats {
    /// Item count before reduction.
    pub from: usize,
    /// Item count after reduction.
    pub to: usize,
    /// Test-function evaluations spent.
    pub tests: usize,
    /// What the items were ("clauses" or "events").
    pub unit: &'static str,
}

/// Complement-only ddmin over `items`.
///
/// `reproduces` must hold for the full input; the reduction keeps only
/// subsets for which it still holds, spending at most `budget`
/// evaluations. Deterministic for deterministic test functions.
pub fn ddmin<T: Clone>(
    items: &[T],
    budget: usize,
    mut reproduces: impl FnMut(&[T]) -> bool,
) -> (Vec<T>, usize) {
    let mut current: Vec<T> = items.to_vec();
    let mut tests = 0usize;
    let mut n = 2usize;
    while current.len() >= 2 && tests < budget {
        let chunk = current.len().div_ceil(n);
        let mut reduced = false;
        for i in 0..n {
            let lo = (i * chunk).min(current.len());
            let hi = ((i + 1) * chunk).min(current.len());
            if lo >= hi {
                continue;
            }
            let mut complement = Vec::with_capacity(current.len() - (hi - lo));
            complement.extend_from_slice(&current[..lo]);
            complement.extend_from_slice(&current[hi..]);
            if complement.is_empty() {
                continue;
            }
            tests += 1;
            if reproduces(&complement) {
                current = complement;
                reduced = true;
                break;
            }
            if tests >= budget {
                break;
            }
        }
        if reduced {
            n = (n - 1).max(2);
        } else {
            if n >= current.len() {
                break;
            }
            n = (n * 2).min(current.len());
        }
    }
    (current, tests)
}

/// Rebuilds a CNF over the original variable space from a clause subset
/// (DIMACS literals), so subset formulas stay well-formed during ddmin.
fn cnf_from_clauses(num_vars: usize, clauses: &[Vec<i64>]) -> Cnf {
    let mut cnf = Cnf::with_vars(num_vars);
    for c in clauses {
        cnf.add_dimacs_clause(c);
    }
    cnf
}

/// Renames variables densely (0..k) so a shrunk formula doesn't carry
/// unused variable indices. Purely an isomorphic renaming.
pub fn compact_vars(cnf: &Cnf) -> Cnf {
    let mut used: Vec<usize> = cnf
        .clauses()
        .flat_map(|c| c.iter().map(|l| l.var().index()))
        .collect();
    used.sort_unstable();
    used.dedup();
    let mut map = vec![usize::MAX; cnf.num_vars()];
    for (new, &old) in used.iter().enumerate() {
        map[old] = new;
    }
    let mut out = Cnf::with_vars(used.len());
    for clause in cnf.clauses() {
        let lits: Vec<i64> = clause
            .iter()
            .map(|l| {
                let d = (map[l.var().index()] + 1) as i64;
                if l.is_positive() {
                    d
                } else {
                    -d
                }
            })
            .collect();
        out.add_dimacs_clause(&lits);
    }
    out
}

/// The shrunk form of a finding.
#[derive(Debug)]
pub struct ShrunkFinding {
    /// Reduced formula (instance-level kinds) or the original formula
    /// (trace-level kinds, where the trace shrinks instead).
    pub cnf: Cnf,
    /// Reduced trace events for trace-level kinds.
    pub events: Option<Vec<TraceEvent>>,
    /// Reduction statistics.
    pub stats: ShrinkStats,
}

/// Shrinks `finding` with at most `budget` oracle evaluations.
///
/// Instance-level findings ([`FindingKind::SatModelInvalid`],
/// [`FindingKind::GroundTruthMismatch`],
/// [`FindingKind::StrategyDisagreement`]) ddmin the clause list, then
/// compact variables (kept only if the failure survives the renaming,
/// since heuristics are index-sensitive). Trace-level findings
/// ([`FindingKind::MutantOracle`]) ddmin the event list against the
/// original formula.
pub fn shrink_finding(finding: &Finding, cfg: &OracleConfig, budget: usize) -> ShrunkFinding {
    match &finding.kind {
        FindingKind::MutantOracle(_) => {
            let events = finding
                .events
                .as_deref()
                .expect("mutant findings carry trace evidence");
            let cnf = &finding.cnf;
            if !trace_failure_reproduces(cnf, events, cfg) {
                // Defensive: if the failure somehow doesn't replay, ship
                // the unshrunk evidence rather than a bogus reduction.
                return ShrunkFinding {
                    cnf: cnf.clone(),
                    events: Some(events.to_vec()),
                    stats: ShrinkStats {
                        from: events.len(),
                        to: events.len(),
                        tests: 0,
                        unit: "events",
                    },
                };
            }
            let (reduced, tests) = ddmin(events, budget, |sub| {
                trace_failure_reproduces(cnf, sub, cfg)
            });
            ShrunkFinding {
                cnf: cnf.clone(),
                events: Some(reduced.clone()),
                stats: ShrinkStats {
                    from: events.len(),
                    to: reduced.len(),
                    tests,
                    unit: "events",
                },
            }
        }
        kind => {
            let num_vars = finding.cnf.num_vars();
            let clauses: Vec<Vec<i64>> = finding
                .cnf
                .clauses()
                .map(|c| c.iter().map(|l| l.to_dimacs()).collect())
                .collect();
            let choices = finding.choices;
            if !instance_failure_reproduces(kind, &finding.cnf, choices, cfg) {
                return ShrunkFinding {
                    cnf: finding.cnf.clone(),
                    events: None,
                    stats: ShrinkStats {
                        from: clauses.len(),
                        to: clauses.len(),
                        tests: 0,
                        unit: "clauses",
                    },
                };
            }
            let (reduced, mut tests) = ddmin(&clauses, budget, |sub| {
                instance_failure_reproduces(kind, &cnf_from_clauses(num_vars, sub), choices, cfg)
            });
            let mut cnf = cnf_from_clauses(num_vars, &reduced);
            let compacted = compact_vars(&cnf);
            if compacted.num_vars() < cnf.num_vars() {
                tests += 1;
                if instance_failure_reproduces(kind, &compacted, choices, cfg) {
                    cnf = compacted;
                }
            }
            ShrunkFinding {
                cnf,
                events: None,
                stats: ShrinkStats {
                    from: clauses.len(),
                    to: reduced.len(),
                    tests,
                    unit: "clauses",
                },
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ddmin_finds_single_culprit() {
        // Failure: the set contains 13.
        let items: Vec<u32> = (0..40).collect();
        let (reduced, _tests) = ddmin(&items, 1000, |sub| sub.contains(&13));
        assert_eq!(reduced, vec![13]);
    }

    #[test]
    fn ddmin_finds_a_pair() {
        let items: Vec<u32> = (0..32).collect();
        let (reduced, _) = ddmin(&items, 1000, |sub| sub.contains(&3) && sub.contains(&29));
        assert_eq!(reduced, vec![3, 29]);
    }

    #[test]
    fn ddmin_respects_budget() {
        let items: Vec<u32> = (0..64).collect();
        let mut calls = 0usize;
        let (_, tests) = ddmin(&items, 5, |sub| {
            calls += 1;
            sub.contains(&63)
        });
        assert!(tests <= 5);
        assert_eq!(calls, tests);
    }

    #[test]
    fn ddmin_is_deterministic() {
        let items: Vec<u32> = (0..50).collect();
        let run = || {
            ddmin(&items, 1000, |sub| {
                sub.iter().filter(|&&x| x % 7 == 0).count() >= 3
            })
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn compact_vars_renames_densely() {
        let mut cnf = Cnf::with_vars(10);
        cnf.add_dimacs_clause(&[3, -7]);
        cnf.add_dimacs_clause(&[7, 10]);
        let compact = compact_vars(&cnf);
        assert_eq!(compact.num_vars(), 3);
        assert_eq!(compact.num_clauses(), 2);
        let rendered: Vec<Vec<i64>> = compact
            .clauses()
            .map(|c| c.iter().map(|l| l.to_dimacs()).collect())
            .collect();
        assert_eq!(rendered, vec![vec![1, -2], vec![2, 3]]);
    }
}
