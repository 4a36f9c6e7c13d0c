//! `rescheck serve` — a persistent validation service over the checker.
//!
//! Batch checking (`rescheck check`) pays process startup, formula
//! parsing and allocator warm-up per claim. A solver regression farm
//! validating thousands of claims wants a **daemon**: parse the formula
//! once, keep kernel/arena scratch warm, and stream claims through a
//! worker pool. This crate is that daemon, built exclusively on `std`
//! (`std::net` + `std::thread`), in keeping with the workspace's
//! zero-dependency policy.
//!
//! The moving parts:
//!
//! - [`protocol`] — newline-delimited JSON frames in, verdict frames out.
//! - [`Server`] — admission control over a bounded queue (`busy` shedding
//!   past [`ServeConfig::queue_depth`]) and a pool of panic-isolated
//!   workers: a poisoned job yields an `internal-error` verdict and a
//!   respawned worker, never a dead daemon.
//! - [`BudgetLedger`] — one daemon-wide memory budget leased out per job,
//!   so concurrent checks can never jointly exceed `--mem-total`.
//! - [`Watchdog`] — per-job deadlines driving the checker's cooperative
//!   [`CancelFlag`](rescheck_checker::CancelFlag); expired jobs verdict
//!   as `timeout`.
//! - [`FormulaCache`] — content-addressed `Arc<Cnf>` sharing across jobs,
//!   whose identity tokens gate
//!   [`CheckScratch`](rescheck_checker::CheckScratch) warm-tier reuse.
//! - [`TraceCache`] — path-keyed sharing of opened trace handles, so a
//!   campaign re-checking one trace file reads its bytes once instead of
//!   per job (into a buffer, never a mapping a truncation could fault).
//!
//! Verdicts embed a full `rescheck-metrics-v2` document, and the daemon
//! itself exports `serve.*` counters, queue-depth and job-wall-time
//! histograms via the `{"op": "metrics"}` control frame.
//!
//! # Examples
//!
//! ```
//! use rescheck_serve::{serve_io, ServeConfig};
//! use std::io::Cursor;
//!
//! let frames = concat!(
//!     r#"{"id":"pigeon","cnf":"p cnf 1 2\n1 0\n-1 0\n","model":[1]}"#,
//!     "\n",
//!     r#"{"op":"shutdown"}"#,
//!     "\n",
//! );
//! let summary = serve_io(
//!     ServeConfig { workers: 1, ..ServeConfig::default() },
//!     Cursor::new(frames),
//!     Box::new(Vec::new()),
//! )?;
//! assert_eq!(summary.get("jobs_submitted").unwrap().as_u64(), Some(1));
//! # Ok::<(), std::io::Error>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod budget;
mod cache;
mod front;
mod job;
pub mod protocol;
mod server;
mod watchdog;

pub use budget::{BudgetLedger, Lease};
pub use cache::{CachedFormula, FormulaCache, TraceCache};
pub use front::{serve_io, serve_stdin, serve_tcp};
pub use server::{write_frame, LineOutcome, Reply, ServeConfig, Server};
pub use watchdog::{Watchdog, WatchdogGuard};
