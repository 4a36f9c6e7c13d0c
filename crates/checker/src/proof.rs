//! Resolution-proof analytics.
//!
//! Beyond validating a proof, the resolution DAG itself carries
//! information: how deep the derivation is, how many resolutions it
//! performs, how much of the solver's learning it actually uses, and how
//! much of that work could run side by side. These metrics quantify the
//! paper's observations (e.g. that xor-heavy `longmult` proofs are long,
//! §4) and are cheap to compute — a structural pass, no clause
//! construction.

use crate::cancel::CancelFlag;
use crate::depth_first::{final_phase_roots, Visitor, Walker};
use crate::error::CheckError;
use crate::ids::IdSpace;
use crate::model::{load_full, FullTrace};
use rescheck_cnf::Cnf;
use rescheck_trace::TraceSource;
use std::fmt;

/// Structural measurements of a resolution proof.
///
/// # Examples
///
/// ```
/// use rescheck_checker::proof_stats;
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
/// let stats = proof_stats(&cnf, &trace)?;
/// assert_eq!(stats.learned_total, 0); // unit conflict needs no learning
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct ProofStats {
    /// Learned clauses recorded in the trace.
    pub learned_total: u64,
    /// Learned clauses reachable from the empty-clause derivation.
    pub needed: u64,
    /// Resolution steps in the needed derivations (excluding the final
    /// phase): `Σ (sources − 1)` over needed clauses.
    pub derivation_resolutions: u64,
    /// Upper bound on final-phase resolutions (one per level-0 record).
    pub final_phase_bound: u64,
    /// Longest source chain: the height of the needed DAG, counting
    /// original clauses as height 0.
    pub depth: u64,
    /// The most derivation resolutions on one dependency path of the
    /// needed DAG: a clause's resolutions plus the most along any of its
    /// learned sources' paths. No schedule of the needed clauses, however
    /// many workers run it, takes fewer sequential resolutions.
    pub span: u64,
    /// Largest resolve-source list among needed clauses.
    pub max_sources: usize,
    /// Mean resolve-source list length among needed clauses.
    pub avg_sources: f64,
    /// Original clauses referenced by the needed subgraph.
    pub core_clauses: usize,
}

impl ProofStats {
    /// Fraction of recorded learned clauses the proof needs, in percent.
    pub fn needed_percent(&self) -> f64 {
        if self.learned_total == 0 {
            100.0
        } else {
            100.0 * self.needed as f64 / self.learned_total as f64
        }
    }

    /// The parallelism the proof offers: derivation resolutions over the
    /// span, the speed-up bound for rebuilding the needed clauses on any
    /// number of workers (1.0 when nothing needs rebuilding).
    pub fn parallelism(&self) -> f64 {
        if self.span == 0 {
            1.0
        } else {
            self.derivation_resolutions as f64 / self.span as f64
        }
    }
}

impl fmt::Display for ProofStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "proof: {}/{} learned clauses needed ({:.1}%), depth {}, \
             {} derivation resolutions (≤{} final), span {} (parallelism {:.1}), \
             sources avg {:.1} max {}, core {} clauses",
            self.needed,
            self.learned_total,
            self.needed_percent(),
            self.depth,
            self.derivation_resolutions,
            self.final_phase_bound,
            self.span,
            self.parallelism(),
            self.avg_sources,
            self.max_sources,
            self.core_clauses,
        )
    }
}

/// Computes [`ProofStats`] for a trace without rebuilding any clause.
///
/// # Errors
///
/// Fails on unreadable/malformed traces, missing final conflicts,
/// unknown clause references and cyclic proofs — the same structural
/// checks the checkers perform.
pub fn proof_stats<S: TraceSource + ?Sized>(
    cnf: &Cnf,
    trace: &S,
) -> Result<ProofStats, CheckError> {
    let num_original = cnf.num_clauses();
    let full = load_full(trace, num_original, &CancelFlag::default())?;
    let start = full.pass1.start_id()?;
    let cone = needed_cone(&full, start)?;

    Ok(ProofStats {
        learned_total: full.pass1.ids.len() as u64,
        needed: cone.needed,
        derivation_resolutions: cone.derivation_resolutions,
        final_phase_bound: full.pass1.level_zero.len() as u64,
        depth: cone.height.iter().copied().max().unwrap_or(0),
        span: cone.span,
        max_sources: cone.max_sources,
        avg_sources: if cone.needed == 0 {
            0.0
        } else {
            cone.source_sum as f64 / cone.needed as f64
        },
        core_clauses: cone.used_originals.iter().filter(|&&u| u).count(),
    })
}

/// The learned clauses the empty-clause derivation needs, as the walk
/// from what the final phase reads finds them: each one's height
/// (originals are height 0) and longest path in resolutions, the
/// originals they and the final phase resolve with, and tallies of their
/// source lists.
pub(crate) struct NeededCone<'i> {
    ids: &'i IdSpace,
    /// Each learned clause's height by dense id; 0 for one the
    /// derivation does not need.
    pub height: Vec<u64>,
    /// Each needed clause's most resolutions on one path down to the
    /// originals, by dense id.
    path: Vec<u64>,
    /// Which original clauses the needed cone uses.
    pub used_originals: Vec<bool>,
    needed: u64,
    derivation_resolutions: u64,
    span: u64,
    max_sources: usize,
    source_sum: u64,
}

/// Walks `full` from the level-0 antecedents and the start clause,
/// rejecting unknown clauses and cycles as the depth-first checker does.
pub(crate) fn needed_cone(full: &FullTrace, start_id: u64) -> Result<NeededCone<'_>, CheckError> {
    let ids = &full.pass1.ids;
    let mut cone = NeededCone {
        ids,
        height: vec![0; ids.len()],
        path: vec![0; ids.len()],
        used_originals: vec![false; ids.num_original()],
        needed: 0,
        derivation_resolutions: 0,
        span: 0,
        max_sources: 0,
        source_sum: 0,
    };
    let mut walker = Walker::new(ids);
    for root in final_phase_roots(&full.pass1.level_zero, start_id) {
        if ids.is_original(root) {
            cone.used_originals[root as usize] = true;
        } else {
            walker.walk(&mut &*full, &mut cone, root, &CancelFlag::default())?;
        }
    }
    Ok(cone)
}

impl Visitor for NeededCone<'_> {
    fn is_done(&self, id: u64) -> bool {
        self.ids.is_original(id) || self.ids.index(id).is_some_and(|j| self.height[j] > 0)
    }

    fn finish(&mut self, id: u64, sources: &[u64]) -> Result<(), CheckError> {
        // The walk finishes every source before its consumer, so each
        // learned source's height and path are final here.
        let (mut h, mut p) = (0u64, 0u64);
        for &s in sources {
            if self.ids.is_original(s) {
                self.used_originals[s as usize] = true;
            } else if let Some(j) = self.ids.index(s) {
                h = h.max(self.height[j]);
                p = p.max(self.path[j]);
            }
        }
        let resolutions = sources.len() as u64 - 1;
        let index = self.ids.index(id).expect("a finished clause is defined");
        self.height[index] = h + 1;
        self.path[index] = p + resolutions;
        self.span = self.span.max(self.path[index]);
        self.needed += 1;
        self.derivation_resolutions += resolutions;
        self.max_sources = self.max_sources.max(sources.len());
        self.source_sum += sources.len() as u64;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rescheck_cnf::Lit;
    use rescheck_solver::{Solver, SolverConfig};
    use rescheck_trace::{MemorySink, TraceSink};

    #[test]
    fn handwritten_proof_metrics() {
        // One learned clause #3 = r(#0,#1), used as the level-0
        // antecedent of x1; the final conflict sits on original #2.
        let mut cnf = Cnf::new();
        cnf.add_dimacs_clause(&[1, 2]); // 0
        cnf.add_dimacs_clause(&[-2, 3]); // 1
        cnf.add_dimacs_clause(&[-3, -1]); // 2
        let mut sink = MemorySink::new();
        sink.learned(3, &[0, 1]).unwrap(); // (1 3), height 1
        sink.level_zero(Lit::from_dimacs(1), 3).unwrap();
        sink.final_conflict(2).unwrap();

        let stats = proof_stats(&cnf, &sink).unwrap();
        assert_eq!(stats.learned_total, 1);
        assert_eq!(stats.needed, 1);
        assert_eq!(stats.depth, 1);
        assert_eq!(stats.derivation_resolutions, 1);
        assert_eq!(stats.final_phase_bound, 1);
        assert_eq!(stats.max_sources, 2);
        assert_eq!(stats.core_clauses, 3);
        assert!((stats.needed_percent() - 100.0).abs() < 1e-9);
        assert!(stats.to_string().contains("depth 1"));
    }

    #[test]
    fn chained_heights_accumulate() {
        let mut cnf = Cnf::new();
        cnf.add_dimacs_clause(&[1]); // 0
        cnf.add_dimacs_clause(&[-1, 2]); // 1
        cnf.add_dimacs_clause(&[-2, 3]); // 2
        cnf.add_dimacs_clause(&[-3]); // 3
        let mut sink = MemorySink::new();
        sink.learned(4, &[0, 1]).unwrap(); // (2), height 1
        sink.learned(5, &[4, 2]).unwrap(); // (3), height 2
        sink.learned(6, &[5, 3]).unwrap(); // (), height 3 — as a clause id
        sink.final_conflict(6).unwrap();
        let stats = proof_stats(&cnf, &sink).unwrap();
        assert_eq!(stats.depth, 3);
        assert_eq!(stats.needed, 3);
        assert_eq!(stats.derivation_resolutions, 3);
    }

    #[test]
    fn unused_learned_clauses_are_not_needed() {
        let mut cnf = Cnf::new();
        cnf.add_dimacs_clause(&[1]);
        cnf.add_dimacs_clause(&[-1]);
        cnf.add_dimacs_clause(&[2, 3]);
        cnf.add_dimacs_clause(&[2, -3]);
        let mut sink = MemorySink::new();
        sink.learned(4, &[2, 3]).unwrap(); // unused
        sink.level_zero(Lit::from_dimacs(1), 0).unwrap();
        sink.final_conflict(1).unwrap();
        let stats = proof_stats(&cnf, &sink).unwrap();
        assert_eq!(stats.learned_total, 1);
        assert_eq!(stats.needed, 0);
        assert_eq!(stats.needed_percent(), 0.0);
        assert_eq!(stats.core_clauses, 2);
        assert_eq!(stats.avg_sources, 0.0);
        assert_eq!((stats.span, stats.parallelism()), (0, 1.0));
    }

    #[test]
    fn real_traces_have_consistent_metrics() {
        let mut cnf = Cnf::new();
        // PHP(5,4) inline.
        let lit =
            |p: usize, h: usize| rescheck_cnf::Lit::positive(rescheck_cnf::Var::new(p * 4 + h));
        for p in 0..5 {
            cnf.add_clause((0..4).map(|h| lit(p, h)));
        }
        for h in 0..4 {
            for p1 in 0..5 {
                for p2 in p1 + 1..5 {
                    cnf.add_clause([!lit(p1, h), !lit(p2, h)]);
                }
            }
        }
        let mut solver = Solver::from_cnf(&cnf, SolverConfig::default());
        let mut trace = MemorySink::new();
        assert!(solver.solve_traced(&mut trace).unwrap().is_unsat());
        let stats = proof_stats(&cnf, &trace).unwrap();
        assert_eq!(stats.learned_total, solver.stats().learned_clauses);
        assert!(stats.needed <= stats.learned_total);
        assert!(stats.depth >= 1);
        assert!(stats.core_clauses <= cnf.num_clauses());
        // Consistent with the depth-first checker's count.
        let outcome =
            crate::api::check_depth_first(&cnf, &trace, &crate::api::CheckConfig::default())
                .unwrap();
        assert!(stats.needed >= outcome.stats.clauses_built);
    }

    /// A chain of 15 learned clauses, each resolving the previous one
    /// with an original: every resolution sits on the one path.
    #[test]
    fn a_chain_has_no_parallelism() {
        let n = 16i64;
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
        let stats = proof_stats(&cnf, &sink).unwrap();
        assert_eq!((stats.derivation_resolutions, stats.span), (15, 15));
        assert_eq!(stats.parallelism(), 1.0);
    }

    #[test]
    fn a_diamond_runs_its_two_arms_side_by_side() {
        let (cnf, sink) = crate::depth_first::table::diamond();
        let stats = proof_stats(&cnf, &sink).unwrap();
        // #5, then #6 and #7 side by side, then #8: four resolutions,
        // three of them on the longest path.
        assert_eq!((stats.derivation_resolutions, stats.span), (4, 3));
        assert!((stats.parallelism() - 4.0 / 3.0).abs() < 1e-9);
        assert!(stats.to_string().contains("span 3 (parallelism 1.3)"));
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
            proof_stats(&cnf, &sink).unwrap_err(),
            CheckError::CyclicProof { .. }
        ));
    }

    #[test]
    fn missing_final_conflict_is_rejected() {
        let cnf = Cnf::new();
        let sink = MemorySink::new();
        assert!(matches!(
            proof_stats(&cnf, &sink).unwrap_err(),
            CheckError::NoFinalConflict
        ));
    }
}
