//! Checker failure diagnostics.
//!
//! A failed check means the solver — or its trace generation — is buggy.
//! The paper stresses that "the checker can also provide as much
//! information as possible about the failure to help debug the solver"
//! (§3.2); [`CheckError`] is that information.

use crate::resolve::ResolveFailure;
use rescheck_cnf::Var;
use std::error::Error;
use std::fmt;
use std::io;

/// Coarse classification of a [`CheckError`], for callers that need to
/// know *why* a check failed without matching every variant — the CLI
/// maps each kind to a distinct process exit code, and the fuzz harness
/// asserts that corrupted traces always land in
/// [`FailureKind::ProofDefect`], never a panic and never a
/// misclassified I/O or resource error.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FailureKind {
    /// The claimed proof is wrong: a resolution step failed, a clause
    /// reference dangles, the trace is malformed or truncated, etc.
    /// The solver (or its trace generation) should be considered buggy.
    ProofDefect,
    /// A configured resource budget was exhausted before a verdict; the
    /// proof itself was neither validated nor refuted.
    ResourceLimit,
    /// The trace could not be read for environmental reasons (missing
    /// file, permission, device error) — says nothing about the proof.
    Io,
    /// The check was cancelled cooperatively before reaching a verdict.
    Cancelled,
}

impl fmt::Display for FailureKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FailureKind::ProofDefect => f.write_str("proof-defect"),
            FailureKind::ResourceLimit => f.write_str("resource-limit"),
            FailureKind::Io => f.write_str("io-error"),
            FailureKind::Cancelled => f.write_str("cancelled"),
        }
    }
}

/// Why a clause failed the antecedent validity check.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BadAntecedentReason {
    /// The clause does not contain the literal it supposedly implied.
    MissingImpliedLiteral,
    /// Some other literal of the clause is not falsified by the recorded
    /// level-0 assignment (so the clause was never unit).
    LiteralNotFalsified {
        /// The variable of the offending literal.
        var: Var,
    },
    /// Some other literal's variable was assigned *after* the implied
    /// variable, so the clause could not have been the antecedent at the
    /// time of the implication.
    OrderViolation {
        /// The variable assigned too late.
        var: Var,
    },
}

impl fmt::Display for BadAntecedentReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BadAntecedentReason::MissingImpliedLiteral => {
                f.write_str("clause does not contain the implied literal")
            }
            BadAntecedentReason::LiteralNotFalsified { var } => write!(
                f,
                "literal of {var} is not falsified by the level-0 assignment"
            ),
            BadAntecedentReason::OrderViolation { var } => write!(
                f,
                "{var} was assigned after the implied variable, so the clause was not yet unit"
            ),
        }
    }
}

/// Everything that can go wrong while validating an UNSAT claim.
///
/// Every variant identifies the clause IDs involved, so a failing check
/// pinpoints the first bad step of the claimed proof.
#[derive(Debug)]
pub enum CheckError {
    /// The trace could not be read or parsed.
    Trace(io::Error),
    /// The trace contains no final-conflict record, so there is nothing to
    /// start the empty-clause derivation from.
    NoFinalConflict,
    /// A referenced clause ID is neither an original clause nor a learned
    /// clause defined by the trace.
    UnknownClause {
        /// The unresolvable ID.
        id: u64,
        /// What referenced it (a learned clause ID, or `None` for the
        /// final phase).
        referenced_by: Option<u64>,
    },
    /// The trace defines the same learned clause ID twice.
    DuplicateLearnedId {
        /// The colliding ID.
        id: u64,
    },
    /// A learned-clause ID collides with an original clause ID.
    LearnedIdCollidesWithOriginal {
        /// The colliding ID.
        id: u64,
    },
    /// Two level-0 records assign the same variable.
    DuplicateLevelZero {
        /// The doubly-assigned variable.
        var: Var,
    },
    /// A learned clause references a clause that is defined only later in
    /// the trace (rejected by the breadth-first strategy, which relies on
    /// generation order).
    ForwardReference {
        /// The clause being built.
        id: u64,
        /// The not-yet-defined source.
        source: u64,
    },
    /// The learned-clause dependency graph contains a cycle, so it is not
    /// a proof DAG.
    CyclicProof {
        /// A clause on the cycle.
        id: u64,
    },
    /// A resolution step failed: zero or several clashing variables.
    NotResolvable {
        /// The clause being derived (`None` during the final empty-clause
        /// phase).
        target: Option<u64>,
        /// Index of the failing source within the target's source list.
        step: usize,
        /// The right-hand clause of the failing resolution.
        with: u64,
        /// The underlying resolution failure.
        failure: ResolveFailure,
    },
    /// The final conflicting clause has a literal that is not falsified by
    /// the recorded level-0 assignment, so it is not conflicting at all.
    FinalClauseNotConflicting {
        /// The claimed final conflicting clause.
        id: u64,
        /// A variable whose literal is not falsified.
        var: Var,
    },
    /// A variable needed during the final phase has no level-0 record.
    MissingLevelZero {
        /// The unrecorded variable.
        var: Var,
    },
    /// A recorded antecedent fails the unit-clause check.
    BadAntecedent {
        /// The implied variable.
        var: Var,
        /// The claimed antecedent clause.
        antecedent: u64,
        /// What exactly is wrong with it.
        reason: BadAntecedentReason,
    },
    /// The final empty-clause derivation did not terminate within the
    /// bound guaranteed by reverse-chronological literal selection.
    NonterminatingProof,
    /// The configured memory budget was exceeded (the paper's depth-first
    /// strategy memory-outs on the hardest instances, Table 2).
    MemoryLimitExceeded {
        /// The configured limit in bytes.
        limit: u64,
        /// The accounted requirement that broke it.
        required: u64,
    },
    /// The check was cancelled cooperatively before reaching a verdict —
    /// e.g. because the `serve` watchdog's deadline fired. Not a
    /// statement about the trace's validity.
    Cancelled,
}

impl CheckError {
    /// Classifies this error into a [`FailureKind`].
    ///
    /// Malformed trace *content* (decode failures surfacing as
    /// [`io::ErrorKind::InvalidData`] or [`io::ErrorKind::UnexpectedEof`])
    /// counts as a proof defect: the bytes exist but do not encode a
    /// checkable proof. Every other I/O failure is environmental.
    pub fn kind(&self) -> FailureKind {
        match self {
            CheckError::Trace(e) => match e.kind() {
                io::ErrorKind::InvalidData | io::ErrorKind::UnexpectedEof => {
                    FailureKind::ProofDefect
                }
                _ => FailureKind::Io,
            },
            CheckError::MemoryLimitExceeded { .. } => FailureKind::ResourceLimit,
            CheckError::Cancelled => FailureKind::Cancelled,
            _ => FailureKind::ProofDefect,
        }
    }
}

impl fmt::Display for CheckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckError::Trace(e) => write!(f, "cannot read trace: {e}"),
            CheckError::NoFinalConflict => {
                f.write_str("trace has no final conflicting clause record")
            }
            CheckError::UnknownClause { id, referenced_by } => match referenced_by {
                Some(parent) => write!(
                    f,
                    "clause #{id}, referenced by learned clause #{parent}, is not defined"
                ),
                None => write!(f, "clause #{id} is not defined"),
            },
            CheckError::DuplicateLearnedId { id } => {
                write!(f, "learned clause #{id} is defined twice")
            }
            CheckError::LearnedIdCollidesWithOriginal { id } => {
                write!(
                    f,
                    "learned clause #{id} collides with an original clause id"
                )
            }
            CheckError::DuplicateLevelZero { var } => {
                write!(f, "variable {var} has two level-0 assignment records")
            }
            CheckError::ForwardReference { id, source } => write!(
                f,
                "learned clause #{id} uses #{source} before it is defined"
            ),
            CheckError::CyclicProof { id } => {
                write!(f, "learned clause #{id} participates in a resolution cycle")
            }
            CheckError::NotResolvable {
                target,
                step,
                with,
                failure,
            } => {
                match target {
                    Some(t) => write!(f, "building learned clause #{t}: ")?,
                    None => f.write_str("deriving the empty clause: ")?,
                }
                write!(
                    f,
                    "resolution step {step} with clause #{with} failed: {failure}"
                )
            }
            CheckError::FinalClauseNotConflicting { id, var } => write!(
                f,
                "final clause #{id} is not conflicting: its literal of {var} is not \
                 falsified at decision level 0"
            ),
            CheckError::MissingLevelZero { var } => write!(
                f,
                "variable {var} is needed for the final derivation but has no level-0 record"
            ),
            CheckError::BadAntecedent {
                var,
                antecedent,
                reason,
            } => write!(
                f,
                "clause #{antecedent} is not a valid antecedent of {var}: {reason}"
            ),
            CheckError::NonterminatingProof => f.write_str(
                "final derivation exceeded its resolution bound without reaching the empty clause",
            ),
            CheckError::MemoryLimitExceeded { limit, required } => write!(
                f,
                "memory limit exceeded: {required} bytes required, limit is {limit}"
            ),
            CheckError::Cancelled => f.write_str("check cancelled before reaching a verdict"),
        }
    }
}

impl Error for CheckError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CheckError::Trace(e) => Some(e),
            CheckError::NotResolvable { failure, .. } => Some(failure),
            _ => None,
        }
    }
}

impl From<io::Error> for CheckError {
    fn from(e: io::Error) -> Self {
        CheckError::Trace(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_ids() {
        let e = CheckError::UnknownClause {
            id: 7,
            referenced_by: Some(9),
        };
        let s = e.to_string();
        assert!(s.contains("#7") && s.contains("#9"));

        let e = CheckError::UnknownClause {
            id: 7,
            referenced_by: None,
        };
        assert!(e.to_string().contains("#7"));
    }

    #[test]
    fn not_resolvable_includes_cause() {
        let e = CheckError::NotResolvable {
            target: Some(12),
            step: 3,
            with: 4,
            failure: ResolveFailure {
                clashing_vars: vec![],
            },
        };
        assert!(e.to_string().contains("step 3"));
        assert!(e.source().is_some());
    }

    #[test]
    fn bad_antecedent_reasons_format() {
        let v = Var::new(0);
        for reason in [
            BadAntecedentReason::MissingImpliedLiteral,
            BadAntecedentReason::LiteralNotFalsified { var: v },
            BadAntecedentReason::OrderViolation { var: v },
        ] {
            let e = CheckError::BadAntecedent {
                var: v,
                antecedent: 5,
                reason,
            };
            assert!(e.to_string().contains("#5"));
        }
    }

    #[test]
    fn failure_kinds_classify() {
        assert_eq!(CheckError::NoFinalConflict.kind(), FailureKind::ProofDefect);
        assert_eq!(
            CheckError::UnknownClause {
                id: 1,
                referenced_by: None
            }
            .kind(),
            FailureKind::ProofDefect
        );
        assert_eq!(
            CheckError::MemoryLimitExceeded {
                limit: 10,
                required: 20
            }
            .kind(),
            FailureKind::ResourceLimit
        );
        assert_eq!(CheckError::Cancelled.kind(), FailureKind::Cancelled);
        // Malformed trace bytes are a proof defect…
        let bad = CheckError::Trace(io::Error::new(io::ErrorKind::InvalidData, "bad varint"));
        assert_eq!(bad.kind(), FailureKind::ProofDefect);
        let trunc = CheckError::Trace(io::Error::new(io::ErrorKind::UnexpectedEof, "cut"));
        assert_eq!(trunc.kind(), FailureKind::ProofDefect);
        // …but an unreadable file is environmental.
        let env = CheckError::Trace(io::Error::new(io::ErrorKind::NotFound, "gone"));
        assert_eq!(env.kind(), FailureKind::Io);
        assert_eq!(FailureKind::Io.to_string(), "io-error");
        assert_eq!(FailureKind::ProofDefect.to_string(), "proof-defect");
    }

    #[test]
    fn io_error_converts() {
        let e: CheckError = io::Error::new(io::ErrorKind::InvalidData, "boom").into();
        assert!(matches!(e, CheckError::Trace(_)));
        assert!(e.to_string().contains("boom"));
    }
}
