//! Deterministic differential fuzzing for the rescheck pipeline.
//!
//! The paper's thesis is that a resolution-based checker is an
//! *independent* validator for a SAT solver: the two share no code, so a
//! bug in either shows up as a disagreement. This crate industrialises
//! that idea into a fuzzer whose oracles are the pipeline's own
//! redundancies:
//!
//! * the **five checking strategies** (depth-first, breadth-first,
//!   hybrid, portfolio, disk-df) must agree on every verdict and on
//!   class-level statistics;
//! * **SAT answers** must satisfy the formula, and both answers must
//!   match brute-force ground truth on small instances and
//!   by-construction labels on structured families;
//! * **corrupted traces** (bit flips, truncations, source-list swaps,
//!   varint corruption) must be rejected cleanly — never a panic, never
//!   a misclassified resource/I/O failure, never a cross-strategy
//!   inconsistency;
//! * **proof round-trips** (trace → LRAT → trace) must preserve the
//!   refutation, and corrupted LRAT bytes must ingest to a clean
//!   verdict or a still-consistent synthesized trace.
//!
//! A campaign ([`run_campaign`]) is a pure function of its seed: same
//! seed, same instances, same log, same [`CampaignOutcome::digest`] —
//! which is what lets CI treat "replay the smoke seed" as a regression
//! test. When an oracle trips, the [`ddmin`] delta debugger shrinks the
//! failing formula (or trace) to a minimal repro and
//! [`artifact::write_repro`] emits a `case-*/` bundle with the DIMACS
//! instance, the binary trace, and a `repro.json` replay recipe.
//!
//! [`ddmin`]: shrink::ddmin
//! [`run_campaign`]: campaign::run_campaign
//! [`CampaignOutcome::digest`]: campaign::CampaignOutcome::digest

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod artifact;
pub mod campaign;
pub mod oracle;
pub mod recipe;
pub mod shrink;

pub use artifact::{write_repro, ArtifactPaths};
pub use campaign::{run_campaign, CampaignConfig, CampaignOutcome, FindingReport};
pub use oracle::{Finding, FindingKind, InjectedBug, OracleConfig};
pub use recipe::{Recipe, SolverChoices};
pub use shrink::{ddmin, shrink_finding, ShrinkStats, ShrunkFinding};
