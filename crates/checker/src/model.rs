//! In-memory model of a resolve trace, with validation.

use crate::cancel::CancelFlag;
use crate::error::CheckError;
use crate::fxhash::FxHashMap;
use crate::memory::{trace_record_bytes, LEVEL_ZERO_RECORD_BYTES};
use rescheck_cnf::{Lit, Var};
use rescheck_trace::{EventRef, TraceSource};
use std::io;

/// Parks a `CheckError` raised inside a `TraceSource::visit_events`
/// closure and returns the sentinel `io::Error` that aborts the
/// traversal. Pair with [`finish_visit`], which recovers the parked error
/// in preference to the sentinel.
pub(crate) fn park_check_error(slot: &mut Option<CheckError>, err: CheckError) -> io::Error {
    *slot = Some(err);
    io::Error::other("trace visit aborted by check failure")
}

/// Resolves the outcome of a `visit_events` traversal: a parked check
/// failure wins over the traversal result (whose error would be the
/// sentinel in that case); otherwise a genuine I/O error is wrapped as
/// [`CheckError::Trace`].
pub(crate) fn finish_visit(
    parked: Option<CheckError>,
    result: io::Result<()>,
) -> Result<(), CheckError> {
    if let Some(err) = parked {
        return Err(err);
    }
    result.map_err(CheckError::Trace)
}

/// The recorded level-0 assignment of one variable.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct VarRecord {
    /// Chronological position in the level-0 trail (0 = first assigned).
    pub order: usize,
    /// The literal that became true.
    pub lit: Lit,
    /// The antecedent clause that implied it.
    pub antecedent: u64,
}

/// The level-0 assignment, keyed by variable.
#[derive(Clone, Debug, Default)]
pub(crate) struct LevelZeroMap {
    records: FxHashMap<u32, VarRecord>,
}

impl LevelZeroMap {
    pub(crate) fn insert(&mut self, lit: Lit, antecedent: u64) -> Result<(), CheckError> {
        let order = self.records.len();
        let key = lit.var().index() as u32;
        if self.records.contains_key(&key) {
            return Err(CheckError::DuplicateLevelZero { var: lit.var() });
        }
        self.records.insert(
            key,
            VarRecord {
                order,
                lit,
                antecedent,
            },
        );
        Ok(())
    }

    pub(crate) fn get(&self, var: Var) -> Option<&VarRecord> {
        self.records.get(&(var.index() as u32))
    }

    pub(crate) fn len(&self) -> usize {
        self.records.len()
    }

    /// Iterates over all records (no particular order).
    pub(crate) fn records(&self) -> impl Iterator<Item = &VarRecord> {
        self.records.values()
    }
}

/// A fully loaded trace: what the depth-first checker keeps in memory.
#[derive(Clone, Debug, Default)]
pub(crate) struct FullTrace {
    /// Learned clause ID → its resolve sources, in order.
    pub sources: FxHashMap<u64, Vec<u64>>,
    /// The recorded level-0 assignment.
    pub level_zero: LevelZeroMap,
    /// Final conflicting clause IDs (the paper records one; we accept
    /// several and use the first).
    pub final_ids: Vec<u64>,
    /// Accounted bytes for holding this structure resident.
    pub trace_bytes: u64,
}

/// Loads and validates a whole trace.
///
/// Checks performed here (shared by both strategies on their first pass):
/// learned IDs must not collide with original clause IDs or with each
/// other, each learned clause needs at least two resolve sources, and no
/// variable may have two level-0 records.
pub(crate) fn load_full<S: TraceSource + ?Sized>(
    source: &S,
    num_original: usize,
    cancel: &CancelFlag,
) -> Result<FullTrace, CheckError> {
    let mut full = FullTrace::default();
    let mut seen: u64 = 0;
    let mut parked: Option<CheckError> = None;
    let result = source.visit_events(&mut |event| {
        seen += 1;
        let step = (|| -> Result<(), CheckError> {
            if seen.is_multiple_of(crate::chain::PROGRESS_STRIDE) {
                cancel.check()?;
            }
            match event {
                EventRef::Learned { id, sources } => {
                    validate_learned(id, sources.len(), num_original, |candidate| {
                        full.sources.contains_key(&candidate)
                    })?;
                    full.trace_bytes += trace_record_bytes(sources.len());
                    full.sources.insert(id, sources.to_vec());
                }
                EventRef::LevelZero { lit, antecedent } => {
                    full.level_zero.insert(lit, antecedent)?;
                    full.trace_bytes += LEVEL_ZERO_RECORD_BYTES;
                }
                EventRef::FinalConflict { id } => full.final_ids.push(id),
            }
            Ok(())
        })();
        step.map_err(|e| park_check_error(&mut parked, e))
    });
    finish_visit(parked, result)?;
    Ok(full)
}

/// Validates one learned-clause record against the shared rules.
pub(crate) fn validate_learned(
    id: u64,
    num_sources: usize,
    num_original: usize,
    already_defined: impl Fn(u64) -> bool,
) -> Result<(), CheckError> {
    if id < num_original as u64 {
        return Err(CheckError::LearnedIdCollidesWithOriginal { id });
    }
    if already_defined(id) {
        return Err(CheckError::DuplicateLearnedId { id });
    }
    if num_sources < 2 {
        return Err(CheckError::Trace(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("learned clause #{id} has fewer than two resolve sources"),
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rescheck_trace::{MemorySink, TraceEvent};

    fn lit(d: i64) -> Lit {
        Lit::from_dimacs(d)
    }

    #[test]
    fn loads_all_event_kinds() {
        let events = vec![
            TraceEvent::Learned {
                id: 3,
                sources: vec![0, 1],
            },
            TraceEvent::LevelZero {
                lit: lit(-2),
                antecedent: 3,
            },
            TraceEvent::FinalConflict { id: 2 },
        ];
        let sink: MemorySink = events.into();
        let full = load_full(&sink, 3, &CancelFlag::default()).unwrap();
        assert_eq!(full.sources.get(&3), Some(&vec![0, 1]));
        assert_eq!(full.final_ids, vec![2]);
        let rec = full.level_zero.get(Var::from_dimacs(2)).unwrap();
        assert_eq!(rec.lit, lit(-2));
        assert_eq!(rec.antecedent, 3);
        assert_eq!(rec.order, 0);
        assert_eq!(full.level_zero.len(), 1);
        assert!(full.trace_bytes > 0);
    }

    #[test]
    fn level_zero_order_is_chronological() {
        let mut map = LevelZeroMap::default();
        map.insert(lit(1), 0).unwrap();
        map.insert(lit(-3), 1).unwrap();
        assert_eq!(map.get(Var::from_dimacs(1)).unwrap().order, 0);
        assert_eq!(map.get(Var::from_dimacs(3)).unwrap().order, 1);
        assert!(map.get(Var::from_dimacs(2)).is_none());
    }

    #[test]
    fn duplicate_level_zero_is_rejected() {
        let mut map = LevelZeroMap::default();
        map.insert(lit(1), 0).unwrap();
        let err = map.insert(lit(-1), 2).unwrap_err();
        assert!(matches!(err, CheckError::DuplicateLevelZero { .. }));
    }

    #[test]
    fn duplicate_learned_id_is_rejected() {
        let events = vec![
            TraceEvent::Learned {
                id: 5,
                sources: vec![0, 1],
            },
            TraceEvent::Learned {
                id: 5,
                sources: vec![1, 2],
            },
        ];
        let sink: MemorySink = events.into();
        let err = load_full(&sink, 3, &CancelFlag::default()).unwrap_err();
        assert!(matches!(err, CheckError::DuplicateLearnedId { id: 5 }));
    }

    #[test]
    fn collision_with_original_is_rejected() {
        let events = vec![TraceEvent::Learned {
            id: 2,
            sources: vec![0, 1],
        }];
        let sink: MemorySink = events.into();
        let err = load_full(&sink, 3, &CancelFlag::default()).unwrap_err();
        assert!(matches!(
            err,
            CheckError::LearnedIdCollidesWithOriginal { id: 2 }
        ));
    }

    #[test]
    fn too_few_sources_is_rejected() {
        let events = vec![TraceEvent::Learned {
            id: 9,
            sources: vec![0],
        }];
        let sink: MemorySink = events.into();
        assert!(matches!(
            load_full(&sink, 3, &CancelFlag::default()).unwrap_err(),
            CheckError::Trace(_)
        ));
    }

    #[test]
    fn empty_trace_loads_empty() {
        let sink = MemorySink::new();
        let full = load_full(&sink, 0, &CancelFlag::default()).unwrap();
        assert!(full.sources.is_empty());
        assert!(full.final_ids.is_empty());
        assert_eq!(full.trace_bytes, 0);
    }
}
