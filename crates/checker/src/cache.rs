//! Original clauses: normalized once per formula, charged per job.
//!
//! Every strategy resolves with original clauses normalized (literals
//! sorted, duplicates dropped). [`NormalizedClauses`] normalizes all of a
//! formula's clauses once and stores them flat, so a resolve source that
//! is an original clause is one indexed load and a borrowed slice — no
//! hash probe, no reference count, no allocation per clause. The table is
//! immutable: a one-shot check builds it once per check, and the
//! `rescheck serve` daemon builds it once per cached formula, so every
//! worker's jobs read the same table in place.
//!
//! Sharing the table does not change the accounting model. A job's
//! [`OriginalCache`] charges each original [`clause_bytes`] to the job's
//! [`MemoryMeter`] at first touch, as if the job held a normalized copy
//! of its own, and refunds charges in FIFO order (first charged, first
//! refunded), so the accounted peak is a pure function of the access
//! sequence.
//!
//! The charges treat the meter's budget as *spare* capacity: if charging
//! a clause would exceed the memory limit, the oldest charges are
//! refunded to make room, and if that is not enough the clause is read
//! uncharged for the one fold that needs it. When a rebuilt clause does
//! not fit, the chain step refunds charged originals before it gives up.
//! The originals can therefore never cause a [`MemoryLimitExceeded`]
//! failure; they only ever occupy budget headroom.
//!
//! [`MemoryLimitExceeded`]: crate::CheckError::MemoryLimitExceeded

use crate::memory::{clause_bytes, MemoryMeter};
use rescheck_cnf::{Cnf, Lit};
use std::collections::VecDeque;

/// A formula's original clauses, each normalized (sorted, deduplicated)
/// once and stored flat.
#[derive(Debug)]
pub struct NormalizedClauses {
    lits: Vec<Lit>,
    /// Clause `i` spans `lits[bounds[i]..bounds[i + 1]]`.
    bounds: Vec<usize>,
}

impl NormalizedClauses {
    /// Normalizes every clause of `cnf`.
    pub fn new(cnf: &Cnf) -> Self {
        let mut lits = Vec::with_capacity(cnf.num_literals());
        let mut bounds = Vec::with_capacity(cnf.num_clauses() + 1);
        bounds.push(0);
        let mut clause = Vec::new();
        for original in cnf.clauses() {
            clause.clear();
            clause.extend_from_slice(original);
            clause.sort_unstable();
            clause.dedup();
            lits.extend_from_slice(&clause);
            bounds.push(lits.len());
        }
        NormalizedClauses { lits, bounds }
    }

    /// Number of clauses.
    pub fn num_clauses(&self) -> usize {
        self.bounds.len() - 1
    }

    /// Clause `id`, normalized.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not below [`num_clauses`](Self::num_clauses).
    #[inline]
    pub fn clause(&self, id: usize) -> &[Lit] {
        &self.lits[self.bounds[id]..self.bounds[id + 1]]
    }
}

/// One job's charges for the original clauses it reads.
#[derive(Debug, Default)]
pub(crate) struct OriginalCache {
    /// Whether original `id` is charged to the job's meter.
    charged: Vec<bool>,
    /// Charged ids in charge order, for FIFO refunds.
    order: VecDeque<u32>,
}

impl OriginalCache {
    /// Starts a job on a formula of `num_clauses` clauses, with nothing
    /// charged. The finished job's meter went with that job, so nothing
    /// is refunded.
    pub(crate) fn reset(&mut self, num_clauses: usize) {
        for id in self.order.drain(..) {
            self.charged[id as usize] = false;
        }
        if self.charged.len() < num_clauses {
            self.charged.resize(num_clauses, false);
        }
    }

    /// Original clause `id` of `table`, charged to the meter at first
    /// touch; under pressure the oldest charges are refunded first, and a
    /// clause that cannot fit at all is read uncharged.
    #[inline]
    pub(crate) fn get<'t>(
        &mut self,
        table: &'t NormalizedClauses,
        id: usize,
        meter: &mut MemoryMeter,
    ) -> &'t [Lit] {
        let clause = table.clause(id);
        if !self.charged[id] {
            self.charge(table, id, clause.len(), meter);
        }
        clause
    }

    fn charge(
        &mut self,
        table: &NormalizedClauses,
        id: usize,
        len: usize,
        meter: &mut MemoryMeter,
    ) {
        while meter.alloc(clause_bytes(len)).is_err() {
            if !self.evict_one(table, meter) {
                return;
            }
        }
        self.charged[id] = true;
        self.order.push_back(id as u32);
    }

    /// Refunds the oldest charge. Returns `false` when nothing is
    /// charged.
    pub(crate) fn evict_one(&mut self, table: &NormalizedClauses, meter: &mut MemoryMeter) -> bool {
        let Some(id) = self.order.pop_front() else {
            return false;
        };
        self.charged[id as usize] = false;
        meter.free(clause_bytes(table.clause(id as usize).len()));
        true
    }

    #[cfg(test)]
    fn held(&self) -> usize {
        self.order.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Clause `i` is the unit clause (x_{i+1}); clause 3 is (x1 ∨ x2).
    fn formula() -> Cnf {
        let mut cnf = Cnf::new();
        for i in 1..=3 {
            cnf.add_dimacs_clause(&[i]);
        }
        cnf.add_dimacs_clause(&[2, 1]);
        cnf
    }

    fn charges(table: &NormalizedClauses) -> OriginalCache {
        let mut cache = OriginalCache::default();
        cache.reset(table.num_clauses());
        cache
    }

    #[test]
    fn the_table_normalizes_every_clause() {
        let mut cnf = formula();
        cnf.add_dimacs_clause(&[3, -1, 3, 2]);
        let table = NormalizedClauses::new(&cnf);
        assert_eq!(table.num_clauses(), 5);
        for (id, clause) in cnf.iter() {
            let expect = crate::resolve::normalize_literals(clause.iter().copied());
            assert_eq!(table.clause(id), expect.as_slice(), "clause {id}");
        }
    }

    #[test]
    fn charges_the_meter() {
        let table = NormalizedClauses::new(&formula());
        let mut meter = MemoryMeter::unlimited();
        let mut cache = charges(&table);
        let expect = [Lit::from_dimacs(1), Lit::from_dimacs(2)];
        assert_eq!(cache.get(&table, 3, &mut meter), expect.as_slice());
        assert_eq!(meter.current(), clause_bytes(2));
        // A second read is already charged.
        assert_eq!(cache.get(&table, 3, &mut meter), expect.as_slice());
        assert_eq!(meter.current(), clause_bytes(2));
    }

    #[test]
    fn fifo_eviction_under_cap() {
        // A memory limit that fits exactly two 1-literal clauses caps
        // the charges.
        let cnf = formula();
        let table = NormalizedClauses::new(&cnf);
        let cap = 2 * clause_bytes(1);
        let mut meter = MemoryMeter::with_limit(cap);
        let mut cache = charges(&table);
        for id in 0..3 {
            assert_eq!(cache.get(&table, id, &mut meter), cnf.clause(id).unwrap());
        }
        // The oldest (id 0) was refunded; 1 and 2 remain charged.
        assert_eq!(cache.charged[..3], [false, true, true]);
        assert_eq!(cache.held(), 2);
        assert_eq!(meter.current(), cap);
    }

    #[test]
    fn never_exceeds_the_meter_budget() {
        // Budget fits one clause; the charges must give way rather than
        // fail, and a clause is read uncharged when nothing is left to
        // refund.
        let table = NormalizedClauses::new(&formula());
        let mut meter = MemoryMeter::with_limit(clause_bytes(1));
        let mut cache = charges(&table);
        cache.get(&table, 0, &mut meter);
        cache.get(&table, 1, &mut meter);
        assert_eq!(cache.charged[..2], [false, true], "oldest refunded");
        // A clause that can never fit is still served, but not charged.
        assert_eq!(cache.get(&table, 3, &mut meter).len(), 2);
        assert!(!cache.charged[3]);
        assert!(meter.current() <= clause_bytes(1));
    }

    #[test]
    fn oversized_clause_is_not_cached() {
        let table = NormalizedClauses::new(&formula());
        let mut meter = MemoryMeter::with_limit(clause_bytes(1));
        let mut cache = charges(&table);
        cache.get(&table, 3, &mut meter);
        assert_eq!((cache.held(), meter.current()), (0, 0));
    }

    #[test]
    fn reset_uncharges_every_clause() {
        // A new job's first touch pays the same charge at the same point
        // as the first job's did.
        let table = NormalizedClauses::new(&formula());
        let mut meter = MemoryMeter::unlimited();
        let mut cache = charges(&table);
        cache.get(&table, 3, &mut meter);
        cache.get(&table, 1, &mut meter);
        cache.reset(table.num_clauses());
        assert_eq!(cache.held(), 0);
        assert!(cache.charged.iter().all(|&c| !c));
        let mut next_job = MemoryMeter::unlimited();
        cache.get(&table, 3, &mut next_job);
        assert_eq!(next_job.current(), clause_bytes(2));
    }
}
