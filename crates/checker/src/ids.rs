//! The learned-clause id space: a dense index, or one renumbering map.
//!
//! Every trace this repo writes numbers its clauses densely: the
//! originals are `0..n` and the k-th learned record is `n + k`. Pass 1
//! checks that at O(1) per record, and while it holds, a learned id's
//! table index is `id − n`: every per-clause table an engine keeps (arena
//! slots, use counts, pins, the walk's open set, source lists, offsets,
//! heights) is a `Vec` read with one indexed load.
//!
//! A trace that breaks the sequence — a `rescheck trim` output keeps its
//! surviving ids, a third-party tool may number sparsely, a hostile one
//! may use any `u64` — is renumbered once, at the first record out of
//! sequence, through the one map left: id → index in definition order.
//! It is charged [`RENUMBER_ENTRY_BYTES`] per learned record, so a
//! renumbered twin of a dense trace reports the same stat line with its
//! peak higher by at most that charge per record.
//!
//! Either way, tables are sized by the number of records read, never by
//! an id's value.

use crate::error::CheckError;
use crate::memory::RENUMBER_ENTRY_BYTES;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::io;

/// The learned ids pass 1 has defined, in trace order.
#[derive(Clone, Debug, Default)]
pub(crate) struct IdSpace {
    num_original: u64,
    /// Learned records defined so far.
    learned: u32,
    /// Set at the first record out of sequence: id → index. The ids are
    /// the trace's, so the map keeps the standard library's seeded hash:
    /// a hostile trace cannot choose ids that collide.
    renumbered: Option<HashMap<u64, u32>>,
}

impl IdSpace {
    pub(crate) fn new(num_original: usize) -> Self {
        IdSpace {
            num_original: num_original as u64,
            ..IdSpace::default()
        }
    }

    /// Defines learned clause `id` as the next record and returns its
    /// index, rejecting an original's id and an id defined before.
    pub(crate) fn define(&mut self, id: u64) -> Result<usize, CheckError> {
        if id < self.num_original {
            return Err(CheckError::LearnedIdCollidesWithOriginal { id });
        }
        let next = self.learned;
        let dense = self.num_original + u64::from(next);
        match &mut self.renumbered {
            None if id == dense => {}
            None if id < dense => return Err(CheckError::DuplicateLearnedId { id }),
            None => {
                let mut map: HashMap<u64, u32> = (0..next)
                    .map(|k| (self.num_original + u64::from(k), k))
                    .collect();
                map.insert(id, next);
                self.renumbered = Some(map);
            }
            Some(map) => match map.entry(id) {
                Entry::Occupied(_) => return Err(CheckError::DuplicateLearnedId { id }),
                Entry::Vacant(slot) => {
                    slot.insert(next);
                }
            },
        }
        self.learned = next.checked_add(1).ok_or_else(|| {
            CheckError::Trace(io::Error::new(
                io::ErrorKind::InvalidData,
                "trace exceeds 2^32 - 1 learned clauses",
            ))
        })?;
        Ok(next as usize)
    }

    /// The table index of learned clause `id`, if it is defined.
    #[inline]
    pub(crate) fn index(&self, id: u64) -> Option<usize> {
        let k = id.checked_sub(self.num_original)?;
        match &self.renumbered {
            None => (k < u64::from(self.learned)).then_some(k as usize),
            Some(map) => map.get(&id).map(|&k| k as usize),
        }
    }

    pub(crate) fn is_original(&self, id: u64) -> bool {
        id < self.num_original
    }

    /// Original clauses of the formula.
    pub(crate) fn num_original(&self) -> usize {
        self.num_original as usize
    }

    /// Learned records defined.
    pub(crate) fn len(&self) -> usize {
        self.learned as usize
    }

    /// Accounted bytes of the renumbering map; 0 for a dense trace.
    pub(crate) fn map_bytes(&self) -> u64 {
        self.renumbered
            .as_ref()
            .map_or(0, |map| map.len() as u64 * RENUMBER_ENTRY_BYTES)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_dense_trace_is_indexed_by_offset() {
        let mut ids = IdSpace::new(3);
        assert_eq!(ids.define(3).unwrap(), 0);
        assert_eq!(ids.define(4).unwrap(), 1);
        assert_eq!(ids.index(4), Some(1));
        assert_eq!(ids.index(5), None); // not defined yet
        assert_eq!(ids.index(2), None); // an original
        assert_eq!(ids.map_bytes(), 0);
        assert!(matches!(
            ids.define(3),
            Err(CheckError::DuplicateLearnedId { id: 3 })
        ));
        assert!(matches!(
            ids.define(1),
            Err(CheckError::LearnedIdCollidesWithOriginal { id: 1 })
        ));
    }

    #[test]
    fn the_first_gap_renumbers_every_record_once() {
        let mut ids = IdSpace::new(3);
        ids.define(3).unwrap();
        ids.define(4).unwrap();
        assert_eq!(ids.define(1 << 62).unwrap(), 2);
        assert_eq!(ids.define(7).unwrap(), 3);
        assert_eq!(
            (ids.index(3), ids.index(4), ids.index(1 << 62), ids.index(7)),
            (Some(0), Some(1), Some(2), Some(3))
        );
        assert_eq!(ids.index(5), None);
        assert_eq!(ids.len(), 4);
        assert_eq!(ids.map_bytes(), 4 * RENUMBER_ENTRY_BYTES);
        assert!(matches!(
            ids.define(4),
            Err(CheckError::DuplicateLearnedId { id: 4 })
        ));
    }
}
