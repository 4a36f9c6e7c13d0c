//! Proof-format interop for rescheck.
//!
//! The native evidence format is the *resolve trace* — an explicit
//! resolution derivation the six checking strategies replay clause by
//! clause (Zhang & Malik, DATE 2003). The wider proof-checking
//! ecosystem standardised on clausal formats instead: DRAT (clause
//! additions and deletions, no justification) and LRAT (DRAT plus unit
//! propagation hints). This crate is the bridge, in both directions:
//!
//! - **emit** ([`export_lrat`]) — convert a resolve trace to LRAT. A
//!   learned clause's antecedent chain, reversed, *is* a valid RUP hint
//!   list, so the conversion is a fold-and-renumber with no search.
//! - **ingest** ([`ingest_drat`], [`ingest_lrat`]) — reconstruct a
//!   resolve trace from a clausal proof, re-deriving the missing
//!   justification by two-watched-literal unit propagation (DRAT) or
//!   hint replay (LRAT). The synthesized trace is then checkable by any
//!   native strategy — two independent codebases agreeing on a proof
//!   neither produced.
//!
//! RAT steps (clause additions that are only *resolution asymmetric*
//! tautologies, not reverse-unit-propagation consequences) have no
//! resolution derivation; ingestion verifies them via resolvent-RUP and
//! flags the result as not resolution-checkable
//! ([`IngestReport::resolution_checkable`]).
//!
//! Everything rejects in one of two ways, and the split drives the CLI
//! exit codes: [`InteropErrorKind::Input`] (the bytes are not a proof,
//! exit 4) versus [`InteropErrorKind::ProofDefect`] (the proof is
//! wrong, exit 1). Neither path may panic, no matter the bytes — the
//! conformance suite and the fuzz corpus (via [`corrupt`]) enforce it.

#![forbid(unsafe_code)]

pub mod corrupt;
pub mod drat;
pub mod error;
pub mod export;
pub mod ingest;
pub mod lrat;
mod tokens;

pub use corrupt::{apply_proof, ProofMutation, ALL_PROOF_MUTATIONS};
pub use drat::DratStep;
pub use error::{InteropError, InteropErrorKind};
pub use export::{export_lrat, ExportReport, ExportStats};
pub use ingest::{ingest_drat, ingest_lrat, IngestReport, IngestStats};
pub use lrat::LratStep;

use rescheck_cnf::Cnf;

/// A clausal proof format the ingestion front end understands.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ProofFormat {
    /// DRAT/DRUP: additions and deletions, no hints (text or binary).
    Drat,
    /// LRAT: additions with unit-propagation hints (text or binary).
    Lrat,
}

impl ProofFormat {
    /// Parses the CLI/protocol spelling of a format name.
    pub fn from_name(name: &str) -> Option<ProofFormat> {
        match name {
            "drat" | "drup" => Some(ProofFormat::Drat),
            "lrat" => Some(ProofFormat::Lrat),
            _ => None,
        }
    }
}

impl std::fmt::Display for ProofFormat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProofFormat::Drat => f.write_str("drat"),
            ProofFormat::Lrat => f.write_str("lrat"),
        }
    }
}

/// Parses and ingests proof bytes in one call, sniffing text vs binary.
///
/// # Errors
///
/// `Input` errors from the parser, `Input`/`ProofDefect` errors from
/// the ingestion engine — see [`ingest_drat`] and [`ingest_lrat`].
pub fn ingest_bytes(
    cnf: &Cnf,
    bytes: &[u8],
    format: ProofFormat,
) -> Result<IngestReport, InteropError> {
    match format {
        ProofFormat::Drat => {
            let steps = drat::parse(bytes)?;
            ingest_drat(cnf, &steps)
        }
        ProofFormat::Lrat => {
            let steps = lrat::parse(bytes)?;
            ingest_lrat(cnf, &steps)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn format_names_parse() {
        assert_eq!(ProofFormat::from_name("drat"), Some(ProofFormat::Drat));
        assert_eq!(ProofFormat::from_name("drup"), Some(ProofFormat::Drat));
        assert_eq!(ProofFormat::from_name("lrat"), Some(ProofFormat::Lrat));
        assert_eq!(ProofFormat::from_name("native"), None);
        assert_eq!(ProofFormat::Drat.to_string(), "drat");
        assert_eq!(ProofFormat::Lrat.to_string(), "lrat");
    }
}
