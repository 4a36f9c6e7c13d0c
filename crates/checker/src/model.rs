//! In-memory model of a resolve trace, with validation.

use crate::cancel::CancelFlag;
use crate::error::CheckError;
use crate::fxhash::FxHashMap;
use crate::ids::IdSpace;
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

/// What every engine's pass 1 learns: the learned-id space, the
/// level-0 assignment and the final-conflict list.
#[derive(Clone, Debug)]
pub(crate) struct Pass1 {
    pub ids: IdSpace,
    pub level_zero: LevelZeroMap,
    /// Final conflicting clause IDs (the paper records one; we accept
    /// several and use the first).
    pub final_ids: Vec<u64>,
}

impl Pass1 {
    /// The clause the empty-clause derivation starts from.
    pub(crate) fn start_id(&self) -> Result<u64, CheckError> {
        self.final_ids
            .first()
            .copied()
            .ok_or(CheckError::NoFinalConflict)
    }
}

/// A valid record, as [`pass1`] hands it to its engine.
pub(crate) enum Record<'a> {
    /// A learned record: the id space that now defines it, its byte
    /// offset and its resolve sources.
    Learned {
        ids: &'a IdSpace,
        offset: u64,
        sources: &'a [u64],
    },
    /// A level-0 record.
    LevelZero,
}

/// Streams `trace` once and validates each record in trace order, so
/// every engine reports the same first error: learned ids must not
/// collide with an original or with each other, each learned clause needs
/// at least two resolve sources, and no variable may have two level-0
/// records. `engine` sees each valid learned and level-0 record.
pub(crate) fn pass1<S: TraceSource + ?Sized>(
    trace: &S,
    num_original: usize,
    cancel: &CancelFlag,
    mut engine: impl FnMut(Record<'_>) -> Result<(), CheckError>,
) -> Result<Pass1, CheckError> {
    let mut pass = Pass1 {
        ids: IdSpace::new(num_original),
        level_zero: LevelZeroMap::default(),
        final_ids: Vec::new(),
    };
    let mut seen: u64 = 0;
    let mut parked: Option<CheckError> = None;
    let result = trace.visit_offsets(&mut |offset, event| {
        seen += 1;
        let step = (|| -> Result<(), CheckError> {
            if seen.is_multiple_of(crate::chain::PROGRESS_STRIDE) {
                cancel.check()?;
            }
            match event {
                EventRef::Learned { id, sources } => {
                    pass.ids.define(id)?;
                    if sources.len() < 2 {
                        return Err(CheckError::Trace(io::Error::new(
                            io::ErrorKind::InvalidData,
                            format!("learned clause #{id} has fewer than two resolve sources"),
                        )));
                    }
                    engine(Record::Learned {
                        ids: &pass.ids,
                        offset,
                        sources,
                    })
                }
                EventRef::LevelZero { lit, antecedent } => {
                    pass.level_zero.insert(lit, antecedent)?;
                    engine(Record::LevelZero)
                }
                EventRef::FinalConflict { id } => {
                    pass.final_ids.push(id);
                    Ok(())
                }
            }
        })();
        step.map_err(|e| park_check_error(&mut parked, e))
    });
    finish_visit(parked, result)?;
    Ok(pass)
}

/// A fully loaded trace: what the depth-first checker keeps in memory.
#[derive(Clone, Debug)]
pub(crate) struct FullTrace {
    pub pass1: Pass1,
    /// Learned clause `k`'s resolve sources are
    /// `sources[starts[k]..starts[k + 1]]`, in order.
    starts: Vec<usize>,
    sources: Vec<u64>,
    /// Accounted bytes for holding this structure resident.
    pub trace_bytes: u64,
}

impl FullTrace {
    /// The resolve sources of the learned clause at table index `index`.
    pub(crate) fn sources(&self, index: usize) -> &[u64] {
        &self.sources[self.starts[index]..self.starts[index + 1]]
    }

    /// Drops the source lists, keeping what pass 1 learned.
    pub(crate) fn into_pass1(self) -> Pass1 {
        self.pass1
    }
}

/// Loads and validates a whole trace (see [`pass1`] for the checks).
pub(crate) fn load_full<S: TraceSource + ?Sized>(
    source: &S,
    num_original: usize,
    cancel: &CancelFlag,
) -> Result<FullTrace, CheckError> {
    let (mut starts, mut sources, mut trace_bytes) = (vec![0], Vec::new(), 0);
    let pass1 = pass1(source, num_original, cancel, |record| {
        match record {
            Record::Learned { sources: own, .. } => {
                trace_bytes += trace_record_bytes(own.len());
                sources.extend_from_slice(own);
                starts.push(sources.len());
            }
            Record::LevelZero => trace_bytes += LEVEL_ZERO_RECORD_BYTES,
        }
        Ok(())
    })?;
    Ok(FullTrace {
        pass1,
        starts,
        sources,
        trace_bytes,
    })
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
        assert_eq!(full.sources(full.pass1.ids.index(3).unwrap()), &[0, 1]);
        assert_eq!(full.pass1.final_ids, vec![2]);
        let rec = full.pass1.level_zero.get(Var::from_dimacs(2)).unwrap();
        assert_eq!(rec.lit, lit(-2));
        assert_eq!(rec.antecedent, 3);
        assert_eq!(rec.order, 0);
        assert_eq!(full.pass1.level_zero.len(), 1);
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
        assert_eq!(full.pass1.ids.len(), 0);
        assert!(full.pass1.final_ids.is_empty());
        assert_eq!(full.trace_bytes, 0);
    }
}
