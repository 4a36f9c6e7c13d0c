//! An independent resolution-based checker for SAT solver results.
//!
//! This crate is the core contribution of Zhang & Malik, *"Validating SAT
//! Solvers Using an Independent Resolution-Based Checker: Practical
//! Implementations and Other Applications"* (DATE 2003): given the
//! original CNF formula and the *resolve trace* a CDCL solver emitted
//! while claiming UNSAT, the checker independently re-derives the **empty
//! clause** by resolution. If it succeeds, the UNSAT claim is proved; if
//! it fails, the solver (or its trace generation) is buggy, and the
//! checker reports a precise diagnostic of what went wrong.
//!
//! Two traversal strategies over the resolution DAG are provided, exactly
//! as in the paper:
//!
//! - [`check_depth_first`]: builds only the learned clauses on the path to
//!   the empty clause, starting from the final conflicting clause. Faster
//!   (and it discovers an **unsatisfiable core** as a by-product), but it
//!   keeps the whole trace and every built clause in memory, so it can
//!   exceed a memory budget on hard instances.
//! - [`check_breadth_first`]: streams the trace twice — a counting pass,
//!   then a resolution pass that frees each clause as soon as its last use
//!   is done. Slower (it verifies *every* learned clause), but its clause
//!   memory never exceeds what the solver itself used.
//!
//! Beyond the paper, [`check_disk_depth_first`] is the same depth-first
//! engine with the trace left on disk behind a 16-byte-per-clause offset
//! index, [`check_hybrid`] builds depth-first's clauses under
//! breadth-first's freeing discipline (the paper's proposed future work),
//! and [`Strategy::ParallelDag`] schedules breadth-first's work over
//! threads. Every sequential engine rebuilds clauses through one shared
//! chain step on a reusable [`CheckScratch`]; an engine contributes only
//! its first pass, its rebuild order and when it frees a clause.
//!
//! SAT claims are checked by [`check_sat_claim`] in linear time.
//!
//! The unsat core from the depth-first strategy can be shrunk further by
//! iterating solve → check → extract ([`minimize_core`]), reproducing the
//! paper's Table 3.
//!
//! # Examples
//!
//! ```
//! use rescheck_cnf::Cnf;
//! use rescheck_checker::{check_depth_first, CheckConfig};
//! use rescheck_solver::{Solver, SolverConfig};
//! use rescheck_trace::MemorySink;
//!
//! // (x1 ∨ x2)(x1 ∨ ¬x2)(¬x1 ∨ x2)(¬x1 ∨ ¬x2) is unsatisfiable.
//! let mut cnf = Cnf::new();
//! cnf.add_dimacs_clause(&[1, 2]);
//! cnf.add_dimacs_clause(&[1, -2]);
//! cnf.add_dimacs_clause(&[-1, 2]);
//! cnf.add_dimacs_clause(&[-1, -2]);
//!
//! let mut solver = Solver::from_cnf(&cnf, SolverConfig::default());
//! let mut trace = MemorySink::new();
//! let result = solver.solve_traced(&mut trace)?;
//! assert!(result.is_unsat());
//!
//! let outcome = check_depth_first(&cnf, &trace, &CheckConfig::default())?;
//! let core = outcome.core.expect("depth-first always yields a core");
//! assert!(!core.clause_ids.is_empty());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod agreement;
mod api;
mod arena;
mod breadth_first;
mod cache;
mod cancel;
mod chain;
mod core_min;
mod dag;
mod depth_first;
#[cfg(test)]
mod disk_df {
    //! `dfd`, the depth-first engine over its disk source store, lives in
    //! `depth_first`; only its tests are kept apart, in `disk_df/tests.rs`.
    mod tests;
}
mod error;
mod executor;
mod final_phase;
mod fxhash;
mod hybrid;
pub mod kernel;
mod memory;
mod model;
mod outcome;
mod parallel;
mod proof;
pub mod resolve;
mod scratch;
mod trim;

pub use api::{
    check_breadth_first, check_depth_first, check_disk_depth_first, check_hybrid, check_sat_claim,
    check_unsat_claim, check_unsat_claim_observed, check_unsat_claim_scoped, CheckConfig,
    ModelError, Strategy,
};
pub use cancel::CancelFlag;
pub use core_min::{minimize_core, CoreIteration, CoreMinimization, MinimizeError};
pub use error::{BadAntecedentReason, CheckError, FailureKind};
pub use kernel::{KernelStats, ResolutionKernel};
pub use memory::MemoryMeter;
pub use outcome::{CheckOutcome, CheckStats, UnsatCore};
pub use proof::{proof_stats, ProofStats};
pub use resolve::{
    normalize_literals, resolve_on, resolve_sorted, resolve_sorted_pivot, ResolveFailure,
};
pub use scratch::{CheckScratch, ScratchPool};
pub use trim::{trim_trace, trim_trace_observed, TrimmedTrace};
