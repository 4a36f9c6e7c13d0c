//! Results of a successful check.

use rescheck_cnf::{Cnf, Var};
use rescheck_obs::Json;
use std::fmt;
use std::time::Duration;

/// Which traversal of the resolution graph a check used.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// Build only the clauses needed for the proof, on demand (§3.2).
    DepthFirst,
    /// Build every learned clause in generation order, freeing each after
    /// its last use (§3.3).
    BreadthFirst,
    /// Depth-first over the trace left on disk, freeing clauses after
    /// their last needed use — the combination the paper's conclusion
    /// calls for, reading records by their offsets.
    Hybrid,
    /// A fallback policy, not an engine: run
    /// [`Strategy::DiskDepthFirst`], and only if it exceeds the memory
    /// budget run [`Strategy::BreadthFirst`] — depth-first speed and its
    /// unsat core when memory allows, breadth-first robustness when it
    /// does not. Runs out of memory only when both do.
    Portfolio,
    /// Depth-first with the trace left on disk: only a flat id → offset
    /// index stays resident and resolve-source lists are fetched on
    /// demand through a trace cursor. Bit-identical statistics and core
    /// to [`Strategy::DepthFirst`], without the `O(trace)` memory term.
    DiskDepthFirst,
}

impl fmt::Display for Strategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Strategy::DepthFirst => f.write_str("depth-first"),
            Strategy::BreadthFirst => f.write_str("breadth-first"),
            Strategy::Hybrid => f.write_str("hybrid"),
            Strategy::Portfolio => f.write_str("portfolio"),
            Strategy::DiskDepthFirst => f.write_str("disk-depth-first"),
        }
    }
}

/// An unsatisfiable core: the original clauses a proof actually used.
///
/// A by-product of the depth-first check (paper §3.2): the original
/// clauses touched while deriving the empty clause form a sub-formula
/// that is itself unsatisfiable. Useful for AI planning, FPGA routing and
/// model debugging (paper §4, Table 3).
///
/// # Examples
///
/// ```
/// use rescheck_checker::UnsatCore;
/// use rescheck_cnf::Cnf;
///
/// let mut cnf = Cnf::new();
/// cnf.add_dimacs_clause(&[1]);
/// cnf.add_dimacs_clause(&[-1]);
/// cnf.add_dimacs_clause(&[2, 3]); // irrelevant
/// let core = UnsatCore::new(vec![0, 1], &cnf);
/// assert_eq!(core.num_clauses(), 2);
/// assert_eq!(core.num_vars(), 1);
/// assert_eq!(core.to_subformula(&cnf).num_clauses(), 2);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UnsatCore {
    /// IDs (positions) of the original clauses used by the proof, sorted.
    pub clause_ids: Vec<usize>,
    num_vars: usize,
}

impl UnsatCore {
    /// Builds a core from the used clause IDs, computing the number of
    /// distinct variables those clauses mention.
    ///
    /// The count comes from the clauses themselves: the variable count a
    /// DIMACS header declares is a claim, not a size to allocate.
    pub fn new(mut clause_ids: Vec<usize>, cnf: &Cnf) -> Self {
        clause_ids.sort_unstable();
        clause_ids.dedup();
        let mut vars: Vec<Var> = clause_ids
            .iter()
            .filter_map(|&id| cnf.clause(id))
            .flatten()
            .map(|lit| lit.var())
            .collect();
        vars.sort_unstable();
        vars.dedup();
        let num_vars = vars.len();
        UnsatCore {
            clause_ids,
            num_vars,
        }
    }

    /// Number of original clauses in the core.
    pub fn num_clauses(&self) -> usize {
        self.clause_ids.len()
    }

    /// Number of distinct variables the core clauses mention.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Extracts the core as a standalone formula over the same variable
    /// space, ready to be solved again (Table 3's iteration).
    pub fn to_subformula(&self, cnf: &Cnf) -> Cnf {
        cnf.subformula(self.clause_ids.iter().copied())
    }
}

/// Measurements of a check run (the per-instance data of Table 2).
#[derive(Clone, Debug)]
pub struct CheckStats {
    /// The strategy that produced these numbers.
    pub strategy: Strategy,
    /// Learned clauses defined by the trace.
    pub learned_in_trace: u64,
    /// Learned clauses actually (re)built by resolution.
    ///
    /// Depth-first builds a subset (Table 2's "Num. Cls Built");
    /// breadth-first builds all of them.
    pub clauses_built: u64,
    /// Total resolution steps performed, including the final derivation.
    pub resolutions: u64,
    /// Peak accounted memory in bytes (see [`crate::MemoryMeter`]).
    pub peak_memory_bytes: u64,
    /// Wall-clock time of the check.
    pub runtime: Duration,
    /// Size of the encoded trace in bytes, when the source knows it.
    pub trace_bytes: Option<u64>,
}

impl CheckStats {
    /// Percentage of learned clauses built (Table 2's "Built%").
    pub fn built_percent(&self) -> f64 {
        if self.learned_in_trace == 0 {
            0.0
        } else {
            100.0 * self.clauses_built as f64 / self.learned_in_trace as f64
        }
    }
}

impl fmt::Display for CheckStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: built {}/{} learned clauses ({:.1}%), {} resolutions, peak {} bytes, {:?}",
            self.strategy,
            self.clauses_built,
            self.learned_in_trace,
            self.built_percent(),
            self.resolutions,
            self.peak_memory_bytes,
            self.runtime,
        )
    }
}

/// Check statistics as a JSON object (the per-run half-row of Table 2),
/// as metrics documents and verdict frames embed them.
pub fn check_stats_json(stats: &CheckStats) -> Json {
    let mut json = Json::object();
    json.set("strategy", stats.strategy.to_string())
        .set("learned_in_trace", stats.learned_in_trace)
        .set("clauses_built", stats.clauses_built)
        .set("built_percent", stats.built_percent())
        .set("resolutions", stats.resolutions)
        .set("peak_memory_bytes", stats.peak_memory_bytes)
        .set("runtime_seconds", stats.runtime.as_secs_f64());
    if let Some(bytes) = stats.trace_bytes {
        json.set("trace_bytes", bytes);
    }
    json
}

/// The result of a successful UNSAT-claim validation.
#[derive(Clone, Debug)]
pub struct CheckOutcome {
    /// The unsat core, when the strategy produces one (the depth-first
    /// family; a portfolio that fell back to breadth-first has none).
    pub core: Option<UnsatCore>,
    /// Measurements of the run.
    pub stats: CheckStats,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn core_dedups_and_counts_vars() {
        let mut cnf = Cnf::new();
        cnf.add_dimacs_clause(&[1, 2]);
        cnf.add_dimacs_clause(&[-2, 3]);
        cnf.add_dimacs_clause(&[4]);
        let core = UnsatCore::new(vec![1, 0, 1], &cnf);
        assert_eq!(core.clause_ids, vec![0, 1]);
        assert_eq!(core.num_clauses(), 2);
        assert_eq!(core.num_vars(), 3); // x1, x2, x3
        let sub = core.to_subformula(&cnf);
        assert_eq!(sub.num_clauses(), 2);
        assert_eq!(sub.num_vars(), cnf.num_vars());
    }

    #[test]
    fn built_percent() {
        let stats = CheckStats {
            strategy: Strategy::DepthFirst,
            learned_in_trace: 200,
            clauses_built: 50,
            resolutions: 0,
            peak_memory_bytes: 0,
            runtime: Duration::ZERO,
            trace_bytes: None,
        };
        assert!((stats.built_percent() - 25.0).abs() < 1e-9);
        assert!(stats.to_string().contains("25.0%"));

        let empty = CheckStats {
            learned_in_trace: 0,
            ..stats
        };
        assert_eq!(empty.built_percent(), 0.0);
    }

    #[test]
    fn check_stats_json_roundtrips_through_parser() {
        let stats = CheckStats {
            strategy: Strategy::DepthFirst,
            learned_in_trace: 200,
            clauses_built: 50,
            resolutions: 420,
            peak_memory_bytes: 65536,
            runtime: Duration::from_millis(12),
            trace_bytes: Some(1024),
        };
        let json = check_stats_json(&stats);
        let reparsed = rescheck_obs::json::parse(&json.to_pretty_string()).unwrap();
        assert_eq!(reparsed.get("clauses_built").unwrap().as_u64(), Some(50));
        assert_eq!(reparsed.get("built_percent").unwrap().as_f64(), Some(25.0));
        assert_eq!(reparsed.get("trace_bytes").unwrap().as_u64(), Some(1024));
    }

    #[test]
    fn strategy_display() {
        assert_eq!(Strategy::DepthFirst.to_string(), "depth-first");
        assert_eq!(Strategy::BreadthFirst.to_string(), "breadth-first");
    }
}
