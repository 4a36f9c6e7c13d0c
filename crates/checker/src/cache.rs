//! A memory-accounted table of normalized original clauses.
//!
//! Every strategy normalizes original clauses (sort + dedup literals)
//! before resolving with them. [`OriginalCache`] holds each normalized
//! clause at its original id, so a resolve source that is an original
//! clause is one indexed load and a borrowed slice — no hash probe, no
//! reference count. Every held clause is charged [`clause_bytes`] to the
//! [`MemoryMeter`] at first touch, and eviction is FIFO (insertion
//! order), so the accounted peak is a pure function of the access
//! sequence.
//!
//! The table treats the meter's budget as *spare* capacity: if charging a
//! clause would exceed the memory limit, held clauses are evicted to make
//! room, and if that is not enough the clause is normalized into a spill
//! buffer for the one fold that needs it and not held. When a rebuilt
//! clause does not fit, the chain step evicts held originals before it
//! gives up. The table can therefore never cause a
//! [`MemoryLimitExceeded`] failure — it only ever trades budget headroom
//! for speed.
//!
//! # The warm tier
//!
//! When a table outlives one job inside a reused
//! [`CheckScratch`](crate::CheckScratch), its held clauses are *demoted*
//! to a warm tier at job start ([`begin_job`]): they keep their
//! normalized literals but are **uncharged** — the finished job's meter is
//! gone and the next job's meter has charged nothing. On first touch the
//! next job promotes the clause through the ordinary charged path, paying
//! the identical [`clause_bytes`] at the identical first-touch point a
//! cold run would. Per-job accounting is therefore a pure function of
//! the access sequence: peak bytes are bit-identical warm vs cold, and
//! the shared table is never double-charged across back-to-back jobs on
//! the same formula.
//!
//! [`MemoryLimitExceeded`]: crate::CheckError::MemoryLimitExceeded
//! [`begin_job`]: OriginalCache::begin_job

use crate::memory::{clause_bytes, MemoryMeter};
use crate::resolve::normalize_literals;
use rescheck_cnf::{Cnf, Lit};
use std::collections::VecDeque;

/// One original clause's place in the table.
#[derive(Debug, Default)]
enum Entry {
    /// Not normalized, or evicted.
    #[default]
    Absent,
    /// Normalized by an earlier job on the same formula; uncharged.
    Warm(Box<[Lit]>),
    /// Normalized and charged to this job's meter.
    Held(Box<[Lit]>),
}

#[derive(Debug, Default)]
pub(crate) struct OriginalCache {
    /// Indexed by original clause id.
    entries: Vec<Entry>,
    /// Held ids in insertion order, for FIFO eviction.
    order: VecDeque<u32>,
    /// Accounted bytes currently held.
    bytes: u64,
    /// Lifetime count of normalizations saved by the warm tier.
    warm_hits: u64,
    /// The last clause that could not be held within the budget.
    spill: Vec<Lit>,
}

impl OriginalCache {
    /// Sizes the table for `cnf`; a no-op when the table already holds
    /// this formula's clauses (a warm job).
    pub(crate) fn size_for(&mut self, cnf: &Cnf) {
        if self.entries.len() != cnf.num_clauses() {
            self.reset();
            self.entries.resize_with(cnf.num_clauses(), Entry::default);
        }
    }

    /// Original clause `id` of `cnf`, normalized. Held clauses are a
    /// borrowed slice; anything else is normalized (or promoted from the
    /// warm tier) and offered to the table first.
    #[inline]
    pub(crate) fn get(&mut self, cnf: &Cnf, id: usize, meter: &mut MemoryMeter) -> &[Lit] {
        if !matches!(self.entries[id], Entry::Held(_)) {
            self.admit(cnf, id, meter);
        }
        match &self.entries[id] {
            Entry::Held(clause) => clause,
            _ => &self.spill,
        }
    }

    /// Holds clause `id`, charging the meter; under pressure it evicts
    /// the oldest held clauses first, and spills the clause when it
    /// cannot fit at all.
    fn admit(&mut self, cnf: &Cnf, id: usize, meter: &mut MemoryMeter) {
        let clause = match std::mem::take(&mut self.entries[id]) {
            Entry::Warm(clause) => {
                self.warm_hits += 1;
                clause
            }
            _ => {
                let lits = cnf.clause(id).expect("id < num_original");
                normalize_literals(lits.iter().copied()).into_boxed_slice()
            }
        };
        let cost = clause_bytes(clause.len());
        while meter.alloc(cost).is_err() {
            if !self.evict_one(meter) {
                self.spill.clear();
                self.spill.extend_from_slice(&clause);
                return;
            }
        }
        self.bytes += cost;
        self.order.push_back(id as u32);
        self.entries[id] = Entry::Held(clause);
    }

    /// Evicts the oldest held clause, refunding its bytes. Returns
    /// `false` when nothing is held.
    pub(crate) fn evict_one(&mut self, meter: &mut MemoryMeter) -> bool {
        let Some(id) = self.order.pop_front() else {
            return false;
        };
        let Entry::Held(clause) = std::mem::take(&mut self.entries[id as usize]) else {
            unreachable!("the eviction order lists held clauses only");
        };
        let cost = clause_bytes(clause.len());
        self.bytes -= cost;
        meter.free(cost);
        true
    }

    /// Starts a new job on the **same formula**: demotes every held
    /// clause to the warm tier and zeroes the per-job byte accounting.
    /// The outgoing job's meter is dropped with the job, so nothing is
    /// refunded; the incoming job's meter has charged nothing yet.
    pub(crate) fn begin_job(&mut self) {
        for id in self.order.drain(..) {
            let entry = &mut self.entries[id as usize];
            if let Entry::Held(clause) = std::mem::take(entry) {
                *entry = Entry::Warm(clause);
            }
        }
        self.bytes = 0;
    }

    /// Drops every clause, warm and held — the scratch is about to be
    /// used on a *different* formula, whose clause ids mean other things.
    pub(crate) fn reset(&mut self) {
        self.entries.clear();
        self.order.clear();
        self.bytes = 0;
    }

    /// Lifetime count of normalizations the warm tier saved.
    pub(crate) fn warm_hits(&self) -> u64 {
        self.warm_hits
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

    fn table(cnf: &Cnf) -> OriginalCache {
        let mut cache = OriginalCache::default();
        cache.size_for(cnf);
        cache
    }

    #[test]
    fn charges_the_meter() {
        let cnf = formula();
        let mut meter = MemoryMeter::unlimited();
        let mut cache = table(&cnf);
        let expect = normalize_literals([Lit::from_dimacs(1), Lit::from_dimacs(2)]);
        assert_eq!(cache.get(&cnf, 3, &mut meter), expect.as_slice());
        assert_eq!(meter.current(), clause_bytes(2));
        // A second fetch borrows the held clause: no second charge.
        assert_eq!(cache.get(&cnf, 3, &mut meter), expect.as_slice());
        assert_eq!(meter.current(), clause_bytes(2));
    }

    #[test]
    fn fifo_eviction_under_cap() {
        // A memory limit that fits exactly two 1-literal clauses caps
        // the table.
        let cnf = formula();
        let cap = 2 * clause_bytes(1);
        let mut meter = MemoryMeter::with_limit(cap);
        let mut cache = table(&cnf);
        for id in 0..3 {
            assert_eq!(cache.get(&cnf, id, &mut meter), cnf.clause(id).unwrap());
        }
        // The oldest (id 0) was evicted; 1 and 2 remain.
        assert!(matches!(cache.entries[0], Entry::Absent));
        assert!(matches!(cache.entries[1], Entry::Held(_)));
        assert!(matches!(cache.entries[2], Entry::Held(_)));
        assert_eq!(cache.held(), 2);
        assert_eq!(cache.bytes, cap);
        assert_eq!(meter.current(), cap);
    }

    #[test]
    fn never_exceeds_the_meter_budget() {
        // Budget fits one clause; the table must evict rather than fail,
        // and spill a clause when nothing is left to evict.
        let cnf = formula();
        let mut meter = MemoryMeter::with_limit(clause_bytes(1));
        let mut cache = table(&cnf);
        cache.get(&cnf, 0, &mut meter);
        cache.get(&cnf, 1, &mut meter);
        assert!(matches!(cache.entries[0], Entry::Absent), "oldest evicted");
        assert!(matches!(cache.entries[1], Entry::Held(_)));
        // A clause that can never fit is still served, but not held.
        assert_eq!(cache.get(&cnf, 3, &mut meter).len(), 2);
        assert!(matches!(cache.entries[3], Entry::Absent));
        assert!(meter.current() <= clause_bytes(1));
    }

    #[test]
    fn oversized_clause_is_not_cached() {
        let cnf = formula();
        let mut meter = MemoryMeter::with_limit(clause_bytes(1));
        let mut cache = table(&cnf);
        cache.get(&cnf, 3, &mut meter);
        assert_eq!((cache.held(), meter.current()), (0, 0));
    }

    #[test]
    fn begin_job_demotes_without_charging() {
        let cnf = formula();
        let mut meter = MemoryMeter::unlimited();
        let mut cache = table(&cnf);
        cache.get(&cnf, 3, &mut meter);
        cache.get(&cnf, 1, &mut meter);

        // New job, fresh meter: nothing charged, clauses demoted.
        let mut meter2 = MemoryMeter::unlimited();
        cache.begin_job();
        cache.size_for(&cnf);
        assert_eq!((cache.held(), cache.bytes), (0, 0));
        assert!(matches!(cache.entries[3], Entry::Warm(_)));

        // First touch promotes through the charged path — the same cost
        // at the same point a cold run would pay it.
        cache.get(&cnf, 3, &mut meter2);
        assert_eq!(meter2.current(), clause_bytes(2));
        assert_eq!(cache.warm_hits(), 1);
        assert!(matches!(cache.entries[3], Entry::Held(_)));
    }

    #[test]
    fn reset_clears_the_warm_tier_too() {
        let cnf = formula();
        let mut meter = MemoryMeter::unlimited();
        let mut cache = table(&cnf);
        cache.get(&cnf, 0, &mut meter);
        cache.begin_job();
        cache.reset();
        cache.size_for(&cnf);
        cache.get(&cnf, 0, &mut meter);
        assert_eq!(cache.warm_hits(), 0);
    }
}
