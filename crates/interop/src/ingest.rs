//! Ingesting clausal proofs (DRAT/LRAT) into resolution traces.
//!
//! This is the Cruz-Filipe pipeline run in one pass: a clausal proof
//! names *what* was derived but not *how*, so the engine re-derives the
//! "how" — for DRAT by two-watched-literal unit propagation (the
//! forward BCP pass), for LRAT by replaying the hint lists — and records
//! every derivation as a [`TraceEvent::Learned`] antecedent chain the
//! existing resolution checkers can fold.
//!
//! The synthesis rules, matching the checker's validation contract:
//!
//! - a RUP addition's conflict analysis walks the trail top-down,
//!   resolving the conflicting clause with the reason of every falsified
//!   literal it accumulates (level-0 reasons included), so the derived
//!   resolvent `R ⊆ C` contains only negated assumptions and the chain
//!   folds with exactly one clashing variable per step; the walk stops
//!   once no marked literal with a reason is left, which changes neither
//!   the chain nor the resolvent;
//! - a chain of length one means the conflicting clause subsumes the
//!   addition — the checker requires at least two sources, so the new
//!   clause *aliases* the subsumer instead of emitting an event;
//! - persistent (decision-level-0) propagations become
//!   [`TraceEvent::LevelZero`] records in propagation order, which is
//!   exactly the order discipline the final-phase checker enforces;
//! - the first root-level conflict becomes [`TraceEvent::FinalConflict`]
//!   and ends the proof (later steps are counted, not replayed);
//! - RAT additions are verified via resolvent-RUP (every resolvent on
//!   the pivot must itself be RUP), but a RAT step has no resolution
//!   derivation, so `rat_steps > 0` marks the synthesized trace as not
//!   checkable by the resolution strategies — the ingest verification
//!   itself is then the verdict.
//!
//! Deletions follow the drat-trim conventions: deleting a clause that
//! is not in the database is a *warning*, not an error, and deleting a
//! clause that is currently the reason of a level-0 assignment is
//! skipped (the clause stays).
//!
//! # Layout
//!
//! Both formats share one engine. Every clause lives in one flat `u32`
//! arena: a four-word header (length; the active and locked bits; the
//! trace id, low and high half) followed by its literal codes, and a
//! clause is named by its header's offset. Assignments are kept per
//! literal code, so a value is one load. The per-variable tables are
//! sized by the largest variable the formula's clauses and the proof's
//! additions use, never by the DIMACS header, and grow on demand.
//!
//! - *DRAT* uses the MiniSat/drat-trim watch layout: the watched
//!   literals sit at positions 0 and 1 of the clause, and each watch
//!   entry carries a *blocker*, another literal of the clause. A true
//!   blocker ends the visit without loading the clause; a binary clause
//!   is answered from the entry alone (its blocker is its other
//!   literal); the replacement search starts at position 2; and a
//!   deleted clause's entries are dropped when a visit reaches them.
//!   Which conflict BCP reaches first depends on this order, so a DRAT
//!   derivation may differ from another engine's, equally valid one.
//! - *LRAT* never reorders a clause: a hint is replayed over the
//!   clause's sorted literals, so the synthesized trace depends only on
//!   the proof. File ids map to clauses through a dense table sized by
//!   the steps read; an id beyond it (a proof numbering sparsely) goes
//!   through a map, so no table is sized by an id's value.

use crate::drat::DratStep;
use crate::error::InteropError;
use crate::lrat::LratStep;
use rescheck_cnf::{Cnf, Lit};
use rescheck_trace::TraceEvent;
use std::collections::HashMap;
use std::fmt;

/// Counters from one ingestion run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IngestStats {
    /// Addition steps processed (before the empty clause).
    pub additions: u64,
    /// Additions derived by RUP conflict analysis (chain emitted).
    pub rup_steps: u64,
    /// Additions verified by resolvent-RUP (no chain possible).
    pub rat_steps: u64,
    /// Additions subsumed by an existing clause (no event emitted).
    pub aliased: u64,
    /// Tautological additions, skipped per drat-trim convention.
    pub tautologies: u64,
    /// Deletions applied.
    pub deletions: u64,
    /// Deletions of clauses not in the database (warned, ignored).
    pub missing_deletions: u64,
    /// Deletions skipped because the clause is a level-0 reason.
    pub locked_deletions: u64,
    /// Level-0 assignment records synthesized.
    pub level_zero: u64,
    /// Proof steps after the empty clause was derived (ignored).
    pub steps_after_empty: u64,
    /// Literals assigned as units: by BCP (DRAT) or by unit hints
    /// (LRAT). A work count, so it stays out of the stat line.
    pub propagations: u64,
}

impl IngestStats {
    /// Every counter under its metrics name, `ingest.<field>`.
    pub fn gauges(&self) -> [(&'static str, u64); 11] {
        [
            ("ingest.additions", self.additions),
            ("ingest.rup_steps", self.rup_steps),
            ("ingest.rat_steps", self.rat_steps),
            ("ingest.aliased", self.aliased),
            ("ingest.tautologies", self.tautologies),
            ("ingest.deletions", self.deletions),
            ("ingest.missing_deletions", self.missing_deletions),
            ("ingest.locked_deletions", self.locked_deletions),
            ("ingest.level_zero", self.level_zero),
            ("ingest.steps_after_empty", self.steps_after_empty),
            ("ingest.propagations", self.propagations),
        ]
    }
}

impl fmt::Display for IngestStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ingest: {} additions ({} rup, {} rat, {} aliased, {} tautological), \
             {} deletions ({} missing, {} locked), {} level-zero records",
            self.additions,
            self.rup_steps,
            self.rat_steps,
            self.aliased,
            self.tautologies,
            self.deletions,
            self.missing_deletions,
            self.locked_deletions,
            self.level_zero
        )
    }
}

/// The synthesized trace plus everything a caller needs to judge it.
#[derive(Debug)]
pub struct IngestReport {
    /// The synthesized resolution trace, in derivation order.
    pub events: Vec<TraceEvent>,
    /// Ingestion counters.
    pub stats: IngestStats,
    /// `(trace_id, literals)` of every derived clause that got a
    /// `Learned` event — the round-trip tests compare these sets.
    pub resolvents: Vec<(u64, Vec<Lit>)>,
}

impl IngestReport {
    /// `true` when the synthesized trace is a complete resolution
    /// derivation the native strategies can check. RAT steps have no
    /// resolution counterpart, so any RAT step forfeits this.
    pub fn resolution_checkable(&self) -> bool {
        self.stats.rat_steps == 0
    }
}

/// A variable index cap low enough that every literal code fits a `u32`
/// (`Var::new` panics above `u32::MAX / 2`; a panic in a parser-facing
/// path would break the conformance guarantee).
const MAX_DIMACS_VAR: u64 = (u32::MAX / 2) as u64;

/// Bounds the variables a proof may mention: the formula's own, plus at
/// most one fresh variable per literal occurrence in the proof. A
/// legitimate proof numbers its extension variables densely after the
/// formula's; a "variable two billion" literal is hostile input that
/// would otherwise force a multi-gigabyte dense allocation in
/// [`Engine::ensure`], so it is rejected as an input error instead.
fn proof_var_cap(cnf: &Cnf, proof_lits: u64) -> u64 {
    (cnf.num_vars() as u64)
        .saturating_add(proof_lits)
        .min(MAX_DIMACS_VAR)
}

/// A clause: the offset of its header in the arena.
type CRef = u32;

/// No clause: an unset reason, a deletion-index entry that deactivates
/// nothing (a tautology), an unmapped LRAT id.
const NONE: CRef = CRef::MAX;
/// Arena words before a clause's literals: length, flags, trace id low
/// half, trace id high half.
const HEADER: usize = 4;
const ACTIVE: u32 = 1;
const LOCKED: u32 = 2;
/// Tags a binary clause's watch entries. Arena offsets stay below it.
const BINARY: u32 = 1 << 31;

const TRUE: i8 = 1;
const FALSE: i8 = -1;

/// A watch-list entry: the clause, and a literal of it whose truth
/// means the visit can skip the clause.
#[derive(Clone, Copy)]
struct Watch {
    /// The clause, tagged with [`BINARY`] when it has two literals.
    cref: u32,
    blocker: u32,
}

/// Shared ingestion state for both proof formats.
#[derive(Default)]
struct Engine {
    /// The clause arena (see the module docs for the layout).
    arena: Vec<u32>,
    /// DRAT mode: clauses are watched and propagated. LRAT mode replays
    /// hints and leaves every clause in sorted order.
    watched: bool,
    next_trace_id: u64,
    /// Per literal code: `TRUE`, `FALSE` or 0 (unassigned).
    val: Vec<i8>,
    /// Per variable: the reason clause of its assignment, or `NONE` for
    /// an assumption. Read only while the variable is assigned.
    reason: Vec<CRef>,
    /// Assigned literal codes in assignment order.
    trail: Vec<u32>,
    /// Length of the persistent (level-0) prefix of the trail.
    fixed: usize,
    prop_head: usize,
    /// Per literal code: the watches on it (DRAT mode only).
    watches: Vec<Vec<Watch>>,
    /// Deletion index (DRAT mode): normalized claimed literals → clauses,
    /// in addition order (deletions pop the most recent match).
    del_index: HashMap<Vec<u32>, Vec<CRef>>,
    /// Analysis scratch: per literal code, membership in the resolvent,
    /// and the literals marked so far.
    mark: Vec<bool>,
    marked: Vec<u32>,
    events: Vec<TraceEvent>,
    resolvents: Vec<(u64, Vec<Lit>)>,
    stats: IngestStats,
    done: bool,
}

impl Engine {
    fn new(watched: bool) -> Engine {
        Engine {
            watched,
            ..Engine::default()
        }
    }

    /// Grows the per-variable tables to cover every literal in `lits`.
    fn ensure(&mut self, lits: &[u32]) {
        let Some(&max) = lits.iter().max() else {
            return;
        };
        let codes = (max as usize | 1) + 1;
        if codes > self.val.len() {
            self.val.resize(codes, 0);
            self.mark.resize(codes, false);
            self.reason.resize(codes / 2, NONE);
            if self.watched {
                self.watches.resize_with(codes, Vec::new);
            }
        }
    }

    fn len(&self, c: CRef) -> usize {
        self.arena[c as usize] as usize
    }

    /// The arena range holding `c`'s literals.
    fn span(&self, c: CRef) -> std::ops::Range<usize> {
        let start = c as usize + HEADER;
        start..start + self.len(c)
    }

    fn lits(&self, c: CRef) -> &[u32] {
        &self.arena[self.span(c)]
    }

    /// The clause after `c` in the arena, i.e. in addition order.
    fn next_clause(&self, c: CRef) -> CRef {
        self.span(c).end as CRef
    }

    fn trace_id(&self, c: CRef) -> u64 {
        let c = c as usize;
        u64::from(self.arena[c + 2]) | u64::from(self.arena[c + 3]) << 32
    }

    fn is_active(&self, c: CRef) -> bool {
        self.arena[c as usize + 1] & ACTIVE != 0
    }

    fn is_locked(&self, c: CRef) -> bool {
        self.arena[c as usize + 1] & LOCKED != 0
    }

    fn next_id(&mut self) -> u64 {
        let id = self.next_trace_id;
        self.next_trace_id += 1;
        id
    }

    fn assign(&mut self, lit: u32, reason: CRef) {
        self.val[lit as usize] = TRUE;
        self.val[(lit ^ 1) as usize] = FALSE;
        self.reason[(lit >> 1) as usize] = reason;
        self.trail.push(lit);
    }

    /// Pops the trail back to `mark`, unassigning everything above it.
    fn pop_to(&mut self, mark: usize) {
        for &lit in &self.trail[mark..] {
            self.val[lit as usize] = 0;
            self.val[(lit ^ 1) as usize] = 0;
        }
        self.trail.truncate(mark);
        self.prop_head = self.prop_head.min(mark);
    }

    /// Appends a clause to the arena; in DRAT mode a clause of two or
    /// more literals is watched unless `watch` is false (a tautology).
    fn push_clause(
        &mut self,
        lits: &[u32],
        trace_id: u64,
        watch: bool,
    ) -> Result<CRef, InteropError> {
        let c = self.arena.len();
        if c + HEADER + lits.len() > BINARY as usize {
            return Err(InteropError::input(
                None,
                "proof exceeds the ingestion arena's 2^31 words",
            ));
        }
        self.arena.extend_from_slice(&[
            lits.len() as u32,
            ACTIVE,
            trace_id as u32,
            (trace_id >> 32) as u32,
        ]);
        self.arena.extend_from_slice(lits);
        let c = c as CRef;
        if self.watched && watch && lits.len() >= 2 {
            self.watch(c);
        }
        Ok(c)
    }

    /// Watches `c` on two literals that are not false, if it has them (a
    /// clause joining at level 0 may hold level-0-false literals; one with
    /// fewer than two others is unit or falsified, which
    /// [`Engine::complete`] settles).
    fn watch(&mut self, c: CRef) {
        let span = self.span(c);
        let lits = &mut self.arena[span];
        let mut front = 0;
        for k in 0..lits.len() {
            if front == 2 {
                break;
            }
            if self.val[lits[k] as usize] != FALSE {
                lits.swap(front, k);
                front += 1;
            }
        }
        let (a, b) = (lits[0], lits[1]);
        let cref = if lits.len() == 2 { c | BINARY } else { c };
        self.watches[a as usize].push(Watch { cref, blocker: b });
        self.watches[b as usize].push(Watch { cref, blocker: a });
    }

    /// [`Engine::propagate`] at decision level 0: every literal the
    /// propagation assigns is a persistent fact, so each one gets a
    /// [`TraceEvent::LevelZero`] record (in propagation order — the
    /// order discipline the final-phase checker enforces) and its
    /// reason clause is locked against deletion.
    fn propagate_persistent(&mut self) -> Option<CRef> {
        let start = self.trail.len();
        let conflict = self.propagate();
        for i in start..self.trail.len() {
            let lit = self.trail[i];
            let r = self.reason[(lit >> 1) as usize];
            debug_assert_ne!(r, NONE, "level-0 propagation without a reason");
            self.record_level_zero(lit, r);
        }
        self.fixed = self.trail.len();
        conflict
    }

    /// Two-watched-literal unit propagation from `prop_head` to the
    /// fixpoint. Returns the clause the propagation falsified, if any.
    fn propagate(&mut self) -> Option<CRef> {
        let start = self.trail.len();
        let mut conflict = None;
        while conflict.is_none() && self.prop_head < self.trail.len() {
            let false_lit = self.trail[self.prop_head] ^ 1;
            self.prop_head += 1;
            let mut list = std::mem::take(&mut self.watches[false_lit as usize]);
            conflict = self.visit(&mut list, false_lit);
            self.watches[false_lit as usize] = list;
        }
        self.stats.propagations += (self.trail.len() - start) as u64;
        conflict
    }

    /// Visits the watches of `false_lit`, which just became false,
    /// keeping in `list` the entries that still watch it. Stops at the
    /// first falsified clause and returns it.
    fn visit(&mut self, list: &mut Vec<Watch>, false_lit: u32) -> Option<CRef> {
        let mut conflict = None;
        let mut kept = 0;
        let mut i = 0;
        while i < list.len() {
            let w = list[i];
            i += 1;
            if self.val[w.blocker as usize] == TRUE {
                list[kept] = w;
                kept += 1;
                continue;
            }
            let c = w.cref & !BINARY;
            if !self.is_active(c) {
                continue; // a deleted clause: drop the entry
            }
            // The unit literal, if the clause has no other to watch.
            let unit = if w.cref & BINARY != 0 {
                list[kept] = w;
                w.blocker
            } else {
                // Keep the false literal at position 1.
                let start = c as usize + HEADER;
                if self.arena[start] == false_lit {
                    self.arena.swap(start, start + 1);
                }
                let first = self.arena[start];
                let entry = Watch {
                    cref: c,
                    blocker: first,
                };
                if first != w.blocker && self.val[first as usize] == TRUE {
                    list[kept] = entry;
                    kept += 1;
                    continue;
                }
                let end = start + self.len(c);
                if let Some(k) =
                    (start + 2..end).find(|&k| self.val[self.arena[k] as usize] != FALSE)
                {
                    let lit = self.arena[k];
                    self.arena[start + 1] = lit;
                    self.arena[k] = false_lit;
                    self.watches[lit as usize].push(entry);
                    continue;
                }
                list[kept] = entry;
                first
            };
            kept += 1;
            if self.val[unit as usize] == FALSE {
                conflict = Some(c);
                break;
            }
            self.assign(unit, c);
        }
        // Keep the entries a conflict left unvisited.
        list.copy_within(i.., kept);
        list.truncate(kept + list.len() - i);
        conflict
    }

    /// Conflict analysis: walks the trail top-down from the falsified
    /// clause, resolving away every marked literal that has a reason,
    /// and stops once none is left. Returns the antecedent chain
    /// (conflicting clause first) and the derived resolvent, sorted.
    fn analyze(&mut self, conflict: CRef) -> (Vec<u64>, Vec<u32>) {
        let mut chain = vec![self.trace_id(conflict)];
        let mut pending = self.mark_lits(conflict, None);
        let mut i = self.trail.len();
        // Every pending literal's negation sits below `i` on the trail.
        while pending > 0 && i > 0 {
            i -= 1;
            let lit = self.trail[i];
            let neg = (lit ^ 1) as usize;
            let r = self.reason[(lit >> 1) as usize];
            if !self.mark[neg] || r == NONE {
                continue; // unmarked, or an assumption whose negation stays
            }
            self.mark[neg] = false;
            pending -= 1;
            chain.push(self.trace_id(r));
            pending += self.mark_lits(r, Some(lit));
        }
        // Whatever is still marked survives the fold: negated
        // assumptions, plus the satisfied literal in the
        // satisfied-at-level-0 case.
        let mut resolvent = Vec::new();
        for &l in &self.marked {
            if std::mem::take(&mut self.mark[l as usize]) {
                resolvent.push(l);
            }
        }
        self.marked.clear();
        resolvent.sort_unstable();
        (chain, resolvent)
    }

    /// Marks the literals of `c` except `skip`, and returns how many of
    /// the newly marked are false with a reason: those the analysis walk
    /// must still reach.
    fn mark_lits(&mut self, c: CRef, skip: Option<u32>) -> usize {
        let mut pending = 0;
        for k in self.span(c) {
            let l = self.arena[k];
            if Some(l) == skip || self.mark[l as usize] {
                continue;
            }
            self.mark[l as usize] = true;
            self.marked.push(l);
            if self.val[l as usize] == FALSE && self.reason[(l >> 1) as usize] != NONE {
                pending += 1;
            }
        }
        pending
    }

    /// Installs a clause derived by [`Engine::analyze`] from `conflict`
    /// and returns it, with `true` when it got a `Learned` event. A
    /// chain with a single source means the conflicting clause subsumes
    /// the addition: the checker demands >= 2 sources, so there is no
    /// event, and the database gets a *copy* of the subsumer under the
    /// same trace id — a later deletion of this addition must not
    /// deactivate the subsumer itself, and later derivations that
    /// resolve with this clause must see the literals the trace id
    /// stands for.
    fn derive(
        &mut self,
        chain: Vec<u64>,
        resolvent: Vec<u32>,
        conflict: CRef,
    ) -> Result<(CRef, bool), InteropError> {
        if chain.len() == 1 {
            self.stats.aliased += 1;
            debug_assert_eq!(resolvent, sorted(self.lits(conflict)));
            let tid = self.trace_id(conflict);
            return Ok((self.push_clause(&resolvent, tid, true)?, false));
        }
        self.stats.rup_steps += 1;
        let id = self.next_id();
        self.events.push(TraceEvent::Learned { id, sources: chain });
        self.resolvents.push((id, to_lits(&resolvent)));
        Ok((self.push_clause(&resolvent, id, true)?, true))
    }

    /// Root-level completion after a clause lands in the database (DRAT
    /// mode): fully falsified (or empty) → final conflict; unit →
    /// persistent assignment, then persistent propagation.
    fn complete(&mut self, c: CRef) {
        debug_assert_eq!(self.trail.len(), self.fixed, "completion above level 0");
        let mut unassigned = None;
        for &l in self.lits(c) {
            match self.val[l as usize] {
                TRUE => return, // satisfied at level 0: nothing to do
                FALSE => {}
                _ => {
                    if unassigned.replace(l).is_some() {
                        return; // two unassigned literals: not unit
                    }
                }
            }
        }
        match unassigned {
            None => self.final_conflict(c),
            Some(lit) => {
                self.assign_persistent(lit, c);
                if let Some(conflict) = self.propagate_persistent() {
                    self.final_conflict(conflict);
                }
            }
        }
    }

    fn final_conflict(&mut self, c: CRef) {
        self.events.push(TraceEvent::FinalConflict {
            id: self.trace_id(c),
        });
        self.done = true;
    }

    /// Asserts `lit` at level 0 with `reason`, emitting the trace
    /// record and locking the reason against deletion.
    fn assign_persistent(&mut self, lit: u32, reason: CRef) {
        self.assign(lit, reason);
        self.fixed = self.trail.len();
        self.record_level_zero(lit, reason);
    }

    fn record_level_zero(&mut self, lit: u32, reason: CRef) {
        self.arena[reason as usize + 1] |= LOCKED;
        self.stats.level_zero += 1;
        self.events.push(TraceEvent::LevelZero {
            lit: Lit::from_code(lit as usize),
            antecedent: self.trace_id(reason),
        });
    }

    /// Loads the original formula: every clause joins the arena (and,
    /// in DRAT mode, the deletion index). Returns the clauses in
    /// formula order.
    fn load_cnf(&mut self, cnf: &Cnf) -> Result<Vec<CRef>, InteropError> {
        self.next_trace_id = cnf.num_clauses() as u64;
        let mut originals = Vec::with_capacity(cnf.num_clauses());
        let mut lits = Vec::new();
        for (id, clause) in cnf.iter() {
            lits.clear();
            lits.extend(clause.iter().map(|l| l.code() as u32));
            normalize(&mut lits);
            self.ensure(&lits);
            let c = self.push_clause(&lits, id as u64, !is_tautology(&lits))?;
            if self.watched {
                self.index(&lits, c);
            }
            originals.push(c);
        }
        Ok(originals)
    }

    /// Records `c` under the claimed literals `key` for DRAT deletions.
    fn index(&mut self, key: &[u32], c: CRef) {
        self.del_index.entry(key.to_vec()).or_default().push(c);
    }

    /// Applies a deletion matched by normalized literals (DRAT).
    fn delete_by_lits(&mut self, key: &[u32]) {
        let Some(entries) = self.del_index.get_mut(key) else {
            self.stats.missing_deletions += 1;
            return;
        };
        let c = entries.pop().expect("index entries are never empty");
        if entries.is_empty() {
            self.del_index.remove(key);
        }
        if c == NONE {
            // A tautology never entered the database, so the deletion
            // is a semantic no-op.
            self.stats.deletions += 1;
        } else {
            self.deactivate(c);
        }
    }

    /// Deletes an active clause, unless it is a level-0 reason.
    fn deactivate(&mut self, c: CRef) {
        if self.is_locked(c) {
            self.stats.locked_deletions += 1;
        } else {
            self.arena[c as usize + 1] &= !ACTIVE;
            self.stats.deletions += 1;
        }
    }

    /// Assumes the negation of every literal of `c` but `skip` that is
    /// not yet assigned. Returns `true` when one of them is already true
    /// (the clause is satisfied, so nothing is left to refute).
    fn assume_negation(&mut self, c: CRef, skip: u32) -> bool {
        for k in self.span(c) {
            let m = self.arena[k];
            if m == skip {
                continue;
            }
            match self.val[m as usize] {
                TRUE => return true,
                FALSE => {}
                _ => self.assign(m ^ 1, NONE),
            }
        }
        false
    }

    fn into_report(self) -> Result<IngestReport, InteropError> {
        if !self.done {
            return Err(InteropError::defect(
                None,
                "proof ends without deriving the empty clause",
            ));
        }
        Ok(IngestReport {
            events: self.events,
            stats: self.stats,
            resolvents: self.resolvents,
        })
    }
}

/// Sorts and deduplicates literal codes (the order of [`Lit`]).
fn normalize(lits: &mut Vec<u32>) {
    lits.sort_unstable();
    lits.dedup();
}

fn sorted(lits: &[u32]) -> Vec<u32> {
    let mut lits = lits.to_vec();
    lits.sort_unstable();
    lits
}

fn to_lits(codes: &[u32]) -> Vec<Lit> {
    codes.iter().map(|&c| Lit::from_code(c as usize)).collect()
}

fn is_tautology(sorted: &[u32]) -> bool {
    sorted.windows(2).any(|w| w[0] >> 1 == w[1] >> 1)
}

/// Whether the resolvent of the clause `lits` with the addition `key` on
/// `neg_pivot` is a tautology: `lits` has the negation of another
/// literal of `key` (sorted).
fn tautological_resolvent(lits: &[u32], neg_pivot: u32, key: &[u32]) -> bool {
    lits.iter()
        .any(|&m| m != neg_pivot && key.binary_search(&(m ^ 1)).is_ok())
}

/// Converts DIMACS literals into literal codes, with a range check
/// instead of the `Var` panic (a hostile proof must fail cleanly, never
/// abort).
fn convert_lits(
    raw: &[i64],
    max_var: u64,
    at: u64,
    out: &mut Vec<u32>,
) -> Result<(), InteropError> {
    out.clear();
    for &d in raw {
        let var = d.unsigned_abs();
        if d == 0 || var > max_var {
            return Err(InteropError::input(
                Some(at),
                format!("literal {d} out of the supported variable range"),
            ));
        }
        out.push(((var - 1) << 1 | u64::from(d < 0)) as u32);
    }
    Ok(())
}

/// The literal `code` in DIMACS numbering.
fn dimacs(code: u32) -> i64 {
    Lit::from_code(code as usize).to_dimacs()
}

/// Ingests a parsed DRAT/DRUP proof against `cnf`.
///
/// # Errors
///
/// `Input` on out-of-range literals; `ProofDefect` when an addition is
/// neither RUP nor RAT, or the proof never derives the empty clause.
pub fn ingest_drat(cnf: &Cnf, steps: &[DratStep]) -> Result<IngestReport, InteropError> {
    let max_var = proof_var_cap(cnf, steps.iter().map(|s| s.lits().len() as u64).sum());
    let mut eng = Engine::new(true);
    // An empty original clause ends the proof before it starts; units
    // assert persistently, with propagation.
    for c in eng.load_cnf(cnf)? {
        if eng.done {
            break;
        }
        if eng.len(c) <= 1 {
            eng.complete(c);
        }
    }
    let mut lits = Vec::new();
    for (stepno, step) in steps.iter().enumerate() {
        let at = stepno as u64 + 1;
        if eng.done {
            eng.stats.steps_after_empty += 1;
            continue;
        }
        match step {
            DratStep::Delete(raw) => {
                convert_lits(raw, max_var, at, &mut lits)?;
                normalize(&mut lits);
                eng.delete_by_lits(&lits);
            }
            DratStep::Add(raw) => {
                eng.stats.additions += 1;
                convert_lits(raw, max_var, at, &mut lits)?;
                eng.ensure(&lits);
                let pivot = lits.first().copied();
                normalize(&mut lits);
                if is_tautology(&lits) {
                    eng.stats.tautologies += 1;
                    eng.index(&lits, NONE);
                    continue;
                }
                add_drat_clause(&mut eng, pivot, &lits, at)?;
            }
        }
    }
    eng.into_report()
}

/// One DRAT addition of the normalized clause `key`: RUP check by
/// propagation, RAT fallback on `pivot` (the first literal as written),
/// then installation with the completion rule.
fn add_drat_clause(
    eng: &mut Engine,
    pivot: Option<u32>,
    key: &[u32],
    at: u64,
) -> Result<(), InteropError> {
    let temp_mark = eng.trail.len();
    debug_assert_eq!(temp_mark, eng.fixed);

    // Assume the negation; a literal already satisfied at level 0 means
    // its reason clause is falsified under the assumption — analysis
    // can start there without touching the assignment.
    let mut conflict = None;
    for &c in key {
        match eng.val[c as usize] {
            TRUE => {
                conflict = Some(eng.reason[(c >> 1) as usize]);
                debug_assert_ne!(conflict, Some(NONE));
                break;
            }
            FALSE => {}
            _ => eng.assign(c ^ 1, NONE),
        }
    }
    if conflict.is_none() {
        conflict = eng.propagate();
    }

    if let Some(conflict) = conflict {
        let (chain, resolvent) = eng.analyze(conflict);
        eng.pop_to(temp_mark);
        let (c, learned) = eng.derive(chain, resolvent, conflict)?;
        eng.index(key, c);
        if learned {
            eng.complete(c);
        }
        return Ok(());
    }

    // Not RUP: try RAT on the first literal, per the DRAT convention.
    let Some(pivot) = pivot else {
        return Err(InteropError::defect(
            Some(at),
            "empty clause addition is not RUP",
        ));
    };
    let rup_mark = eng.trail.len();
    let neg_pivot = pivot ^ 1;
    let mut c = 0;
    while (c as usize) < eng.arena.len() {
        let next = eng.next_clause(c);
        // A tautological resolvent (the clause has ¬m for another m of
        // the addition) is vacuously redundant: skip it.
        if eng.is_active(c)
            && eng.lits(c).contains(&neg_pivot)
            && !tautological_resolvent(eng.lits(c), neg_pivot, key)
        {
            // The resolvent contains a literal the ¬C propagation
            // already made true: RUP trivially.
            let ok = eng.assume_negation(c, neg_pivot) || eng.propagate().is_some();
            eng.pop_to(rup_mark);
            if !ok {
                let lits: Vec<i64> = sorted(eng.lits(c)).into_iter().map(dimacs).collect();
                return Err(InteropError::defect(
                    Some(at),
                    format!(
                        "clause is neither RUP nor RAT on {}: resolvent with {lits:?} is not RUP",
                        dimacs(pivot)
                    ),
                ));
            }
        }
        c = next;
    }
    eng.pop_to(temp_mark);
    // RAT verified. There is no resolution derivation to emit; the
    // clause joins the database under a fresh id with no event, and the
    // report is flagged via `rat_steps`.
    eng.stats.rat_steps += 1;
    let id = eng.next_id();
    let c = eng.push_clause(key, id, true)?;
    eng.index(key, c);
    eng.complete(c);
    Ok(())
}

/// LRAT clause ids → clauses. Ids up to the number of clauses the
/// formula and the proof's steps can define go through a dense table;
/// a larger id goes through a map.
struct IdTable {
    dense: Vec<CRef>,
    sparse: HashMap<u64, CRef>,
}

impl IdTable {
    /// Originals are 1-based by position; `steps` more slots follow.
    fn new(mut originals: Vec<CRef>, steps: usize) -> IdTable {
        originals.resize(originals.len().saturating_add(steps), NONE);
        IdTable {
            dense: originals,
            sparse: HashMap::new(),
        }
    }

    fn slot(&self, id: u64) -> Option<usize> {
        usize::try_from(id)
            .ok()
            .and_then(|id| id.checked_sub(1))
            .filter(|&i| i < self.dense.len())
    }

    fn get(&self, id: u64) -> Option<CRef> {
        match self.slot(id) {
            Some(i) => Some(self.dense[i]).filter(|&c| c != NONE),
            None => self.sparse.get(&id).copied(),
        }
    }

    fn insert(&mut self, id: u64, c: CRef) {
        match self.slot(id) {
            Some(i) => self.dense[i] = c,
            None => {
                self.sparse.insert(id, c);
            }
        }
    }

    /// Resolves an LRAT hint id to an active clause.
    fn hint(&self, eng: &Engine, id: u64, at: u64) -> Result<CRef, InteropError> {
        match self.get(id) {
            Some(c) if eng.is_active(c) => Ok(c),
            Some(_) => Err(InteropError::defect(
                Some(at),
                format!("hint {id} references a deleted clause"),
            )),
            None => Err(InteropError::defect(
                Some(at),
                format!("hint {id} references an unknown clause"),
            )),
        }
    }
}

/// Ingests a parsed LRAT proof against `cnf` by hint replay.
///
/// # Errors
///
/// `Input` on out-of-range literals; `ProofDefect` on unknown or
/// deleted hint ids, hints that are neither unit nor conflicting,
/// uncovered RAT resolvents, duplicate clause ids, or a proof without
/// an empty clause.
pub fn ingest_lrat(cnf: &Cnf, steps: &[LratStep]) -> Result<IngestReport, InteropError> {
    let max_var = proof_var_cap(
        cnf,
        steps
            .iter()
            .map(|s| match s {
                LratStep::Add { lits, .. } => lits.len() as u64,
                LratStep::Delete { .. } => 0,
            })
            .sum(),
    );
    let mut eng = Engine::new(false);
    let originals = eng.load_cnf(cnf)?;
    // LRAT mode replays hints; only an outright empty original clause
    // short-circuits.
    if let Some(&c) = originals.iter().find(|&&c| eng.len(c) == 0) {
        eng.final_conflict(c);
    }
    let mut ids = IdTable::new(originals, steps.len());
    let mut lits = Vec::new();
    for (stepno, step) in steps.iter().enumerate() {
        let at = stepno as u64 + 1;
        if eng.done {
            eng.stats.steps_after_empty += 1;
            continue;
        }
        match step {
            LratStep::Delete { ids: deleted } => {
                for &id in deleted {
                    match ids.get(id) {
                        Some(c) if eng.is_active(c) => eng.deactivate(c),
                        _ => eng.stats.missing_deletions += 1,
                    }
                }
            }
            LratStep::Add {
                id,
                lits: raw,
                hints,
            } => {
                eng.stats.additions += 1;
                if ids.get(*id).is_some_and(|c| eng.is_active(c)) {
                    return Err(InteropError::defect(
                        Some(at),
                        format!("clause id {id} is already in use"),
                    ));
                }
                convert_lits(raw, max_var, at, &mut lits)?;
                eng.ensure(&lits);
                let pivot = lits.first().copied();
                normalize(&mut lits);
                if is_tautology(&lits) {
                    // Never referenced soundly; ids of skipped
                    // tautologies simply stay unmapped.
                    eng.stats.tautologies += 1;
                    continue;
                }
                let c = add_lrat_clause(&mut eng, &ids, pivot, &lits, hints, at)?;
                ids.insert(*id, c);
            }
        }
    }
    eng.into_report()
}

/// What replaying one positive hint did to the trail.
enum HintReplay {
    /// The hint clause was unit; its literal is now assigned.
    Unit,
    /// The hint clause is fully falsified — the conflict.
    Conflict,
    /// The hint clause is already satisfied at this point in the
    /// replay. Exported reverse chains pick up such hints from clause-
    /// minimization resolutions, where a minimization antecedent's unit
    /// literal was already implied by an earlier hint. Skipping is
    /// sound: a skipped hint adds no assignments, so a later hint must
    /// still genuinely conflict for the step to verify.
    Satisfied,
}

/// Replays one positive hint: assigns the unit it implies, or reports
/// the conflict when the hint clause is falsified.
fn replay_hint(eng: &mut Engine, c: CRef, at: u64) -> Result<HintReplay, InteropError> {
    let mut unassigned = None;
    for &l in eng.lits(c) {
        match eng.val[l as usize] {
            TRUE => return Ok(HintReplay::Satisfied),
            FALSE => {}
            _ => {
                if unassigned.replace(l).is_some() {
                    return Err(InteropError::defect(
                        Some(at),
                        "hint clause has two unassigned literals",
                    ));
                }
            }
        }
    }
    match unassigned {
        Some(l) => {
            eng.assign(l, c);
            eng.stats.propagations += 1;
            Ok(HintReplay::Unit)
        }
        None => Ok(HintReplay::Conflict),
    }
}

/// One LRAT addition of the normalized clause `key`: replay the RUP
/// prefix; on conflict, synthesize the chain; otherwise verify the RAT
/// groups on `pivot` (the first literal as written). The empty clause
/// is the special case whose hint replay *is* the level-0 derivation.
fn add_lrat_clause(
    eng: &mut Engine,
    ids: &IdTable,
    pivot: Option<u32>,
    key: &[u32],
    hints: &[i64],
    at: u64,
) -> Result<CRef, InteropError> {
    debug_assert!(
        eng.trail.is_empty(),
        "LRAT replay keeps no persistent trail"
    );
    let Some(pivot) = pivot else {
        // The final line: no assumptions, so every unit the hints imply
        // is a genuine level-0 propagation, and the conflicting hint is
        // the final conflict of the synthesized trace.
        for &h in hints {
            if h < 0 {
                return Err(InteropError::defect(
                    Some(at),
                    "the empty clause cannot have RAT hints",
                ));
            }
            let c = ids.hint(eng, h as u64, at)?;
            match replay_hint(eng, c, at)? {
                HintReplay::Unit => {
                    // Promote the unit to a persistent record.
                    let lit = eng.trail.pop().expect("unit just assigned");
                    eng.assign_persistent(lit, c);
                }
                HintReplay::Conflict => {
                    eng.final_conflict(c);
                    return Ok(c);
                }
                HintReplay::Satisfied => {}
            }
        }
        return Err(InteropError::defect(
            Some(at),
            "empty-clause hints end without a conflict",
        ));
    };

    for &l in key {
        debug_assert_ne!(
            eng.val[l as usize], TRUE,
            "no persistent state in LRAT mode"
        );
        if eng.val[l as usize] == 0 {
            eng.assign(l ^ 1, NONE);
        }
    }

    let groups = hints.iter().position(|&h| h < 0).unwrap_or(hints.len());
    for &h in &hints[..groups] {
        let c = ids.hint(eng, h as u64, at)?;
        if let HintReplay::Conflict = replay_hint(eng, c, at)? {
            let (chain, resolvent) = eng.analyze(c);
            eng.pop_to(0);
            return Ok(eng.derive(chain, resolvent, c)?.0);
        }
    }
    if groups == hints.len() {
        return Err(InteropError::defect(
            Some(at),
            "hints end without a conflict",
        ));
    }
    add_lrat_rat(eng, ids, pivot, key, &hints[groups..], at)
}

/// Verifies an LRAT RAT step: every active clause containing the
/// negated pivot must be covered by a resolvent group (or have a
/// tautological resolvent), and each group's hints must refute the
/// resolvent. Called with the ¬C assumptions and the RUP-prefix units
/// already on the trail; `groups` starts at the first group.
fn add_lrat_rat(
    eng: &mut Engine,
    ids: &IdTable,
    pivot: u32,
    key: &[u32],
    groups: &[i64],
    at: u64,
) -> Result<CRef, InteropError> {
    let neg_pivot = pivot ^ 1;
    let prefix_mark = eng.trail.len();
    let mut covered: Vec<CRef> = Vec::new();

    // Walk the groups: each opens with -d and carries its unit hints.
    let mut i = 0;
    while i < groups.len() {
        let d = groups[i].unsigned_abs();
        let d_clause = ids.hint(eng, d, at)?;
        i += 1;
        let group_end = groups[i..]
            .iter()
            .position(|&h| h < 0)
            .map_or(groups.len(), |p| i + p);
        if !eng.lits(d_clause).contains(&neg_pivot) {
            return Err(InteropError::defect(
                Some(at),
                format!("RAT group clause {d} does not contain the negated pivot"),
            ));
        }
        covered.push(d_clause);

        // Assume the negation of the resolvent's D-side; a literal the
        // prefix already satisfied ends the group immediately.
        if !eng.assume_negation(d_clause, neg_pivot) {
            let mut conflicted = false;
            for &h in &groups[i..group_end] {
                let c = ids.hint(eng, h as u64, at)?;
                if let HintReplay::Conflict = replay_hint(eng, c, at)? {
                    conflicted = true;
                    break;
                }
            }
            if !conflicted {
                return Err(InteropError::defect(
                    Some(at),
                    format!("RAT resolvent group for clause {d} ends without a conflict"),
                ));
            }
        }
        eng.pop_to(prefix_mark);
        i = group_end;
    }

    // Soundness: no active ¬pivot clause may be left unexamined.
    let mut c = 0;
    while (c as usize) < eng.arena.len() {
        if eng.is_active(c)
            && !covered.contains(&c)
            && eng.lits(c).contains(&neg_pivot)
            && !tautological_resolvent(eng.lits(c), neg_pivot, key)
        {
            return Err(InteropError::defect(
                Some(at),
                format!(
                    "RAT step leaves the resolvent with clause id {} unverified",
                    eng.trace_id(c)
                ),
            ));
        }
        c = eng.next_clause(c);
    }
    eng.pop_to(0);
    eng.stats.rat_steps += 1;
    let id = eng.next_id();
    eng.push_clause(key, id, false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drat;
    use crate::error::InteropErrorKind;
    use rescheck_checker::agreement::verify_synthesized_trace;
    use rescheck_checker::CheckConfig;

    fn cnf(clauses: &[&[i64]]) -> Cnf {
        let mut cnf = Cnf::new();
        for c in clauses {
            cnf.add_dimacs_clause(c);
        }
        cnf
    }

    /// Every strategy accepts the synthesized trace.
    fn assert_checks(cnf: &Cnf, report: &IngestReport) {
        assert!(report.resolution_checkable());
        verify_synthesized_trace(cnf, &report.events, &CheckConfig::default())
            .unwrap_or_else(|d| panic!("strategies disagree on the synthesized trace: {d}"));
    }

    fn drat_text(cnf: &Cnf, proof: &str) -> Result<IngestReport, InteropError> {
        ingest_drat(cnf, &drat::parse_text(proof).unwrap())
    }

    fn lrat_text(cnf: &Cnf, proof: &str) -> Result<IngestReport, InteropError> {
        ingest_lrat(cnf, &crate::lrat::parse_text(proof).unwrap())
    }

    fn code(dimacs: i64) -> u32 {
        Lit::from_dimacs(dimacs).code() as u32
    }

    #[test]
    fn drup_proof_synthesizes_checkable_trace() {
        // (1 2)(1 -2)(-1 3)(-1 -3) with the classic two-lemma proof.
        let cnf = cnf(&[&[1, 2], &[1, -2], &[-1, 3], &[-1, -3]]);
        let report = drat_text(&cnf, "1 0\n0\n").unwrap();
        assert!(report.resolution_checkable());
        assert_eq!(report.stats.rup_steps, 1);
        // Asserting the lemma (1) also propagates 3 via (−1 3): both
        // facts get level-0 records.
        assert_eq!(report.stats.level_zero, 2);
        assert!(matches!(
            report.events.last(),
            Some(TraceEvent::FinalConflict { .. })
        ));
        // BCP assigned 2 under the assumption ¬1, then 3 at level 0.
        assert_eq!(report.stats.propagations, 2);
    }

    #[test]
    fn non_rup_addition_is_a_proof_defect() {
        // Adding (1) to (1 2)(−1 −2): assuming −1 propagates only 2 (no
        // conflict), and the RAT resolvent (−2) with (−1 −2) is not RUP
        // either — the step is simply not derivable.
        let cnf = cnf(&[&[1, 2], &[-1, -2]]);
        let err = drat_text(&cnf, "1 0\n").unwrap_err();
        assert_eq!(err.kind, InteropErrorKind::ProofDefect);
    }

    #[test]
    fn incomplete_proof_is_a_proof_defect() {
        // Re-adding an original clause is RUP (it aliases), but the
        // proof then stops without ever deriving the empty clause.
        let cnf = cnf(&[&[1, 2], &[1, -2], &[-1, 2], &[-1, -2]]);
        let err = drat_text(&cnf, "1 2 0\n").unwrap_err();
        assert_eq!(err.kind, InteropErrorKind::ProofDefect);
    }

    #[test]
    fn missing_deletion_is_a_warning_not_an_error() {
        let cnf = cnf(&[&[1, 2], &[1, -2], &[-1, 3], &[-1, -3]]);
        let report = drat_text(&cnf, "d 5 6 0\n1 0\n0\n").unwrap();
        assert_eq!(report.stats.missing_deletions, 1);
    }

    #[test]
    fn deletion_of_level_zero_reason_is_skipped() {
        // Loading asserts 1 (reason: clause 1) and propagates 2
        // (reason: clause 2) with variables 3/4 untouched; both reasons
        // are locked, so the deletions are skipped and the rest of the
        // proof still relies on them.
        let cnf = cnf(&[&[1], &[-1, 2], &[3, 4], &[3, -4], &[-3, 4], &[-3, -4]]);
        let report = drat_text(&cnf, "d 1 0\nd -1 2 0\n3 0\n0\n").unwrap();
        assert_eq!(report.stats.locked_deletions, 2);
        assert!(report.resolution_checkable());
    }

    #[test]
    fn rat_addition_is_verified_but_not_checkable() {
        // (5) over a fresh variable is not RUP (assuming −5 propagates
        // nothing) but is vacuously RAT on 5: no clause contains −5.
        let cnf = cnf(&[&[1, 2], &[1, -2], &[-1, 3], &[-1, -3]]);
        let report = drat_text(&cnf, "5 0\n1 0\n").unwrap();
        assert_eq!(report.stats.rat_steps, 1);
        assert_eq!(report.stats.rup_steps, 1);
        assert!(!report.resolution_checkable());
    }

    #[test]
    fn out_of_range_literal_is_input_error() {
        let cnf = cnf(&[&[1, 2], &[-1, -2]]);
        let steps = vec![DratStep::Add(vec![i64::MAX])];
        let err = ingest_drat(&cnf, &steps).unwrap_err();
        assert_eq!(err.kind, InteropErrorKind::Input);
    }

    #[test]
    fn tables_are_sized_by_the_variables_used_not_the_header() {
        // A header claiming 99,999,999,999 variables over two unit
        // clauses: both formats ingest without a header-sized table.
        let mut cnf = Cnf::with_vars(99_999_999_999);
        cnf.add_dimacs_clause(&[1]);
        cnf.add_dimacs_clause(&[-1]);
        let drat = ingest_drat(&cnf, &[DratStep::Add(vec![])]).unwrap();
        assert_eq!(drat.stats.steps_after_empty, 1);
        let lrat = lrat_text(&cnf, "3 0 1 2 0\n").unwrap();
        assert_eq!(lrat.stats.level_zero, 1);
        assert_eq!(lrat.stats.propagations, 1);
    }

    #[test]
    fn drat_clause_deleted_then_re_added_gets_a_fresh_entry() {
        // (1 2) is derived, deleted and derived again; the second copy
        // must propagate in the refutation that follows, and a deletion
        // after it must reach the second copy, not the first.
        let cnf = cnf(&[
            &[1, 2, 3],
            &[1, 2, -3],
            &[1, -2, 3],
            &[1, -2, -3],
            &[-1, 4],
            &[-1, -4],
        ]);
        let report = drat_text(&cnf, "1 2 0\nd 1 2 0\n1 2 0\n1 0\n").unwrap();
        assert_eq!(report.stats.rup_steps, 3);
        assert_eq!(report.stats.deletions, 1);
        assert_checks(&cnf, &report);
        let err = drat_text(&cnf, "1 2 0\nd 1 2 0\n1 2 0\nd 2 1 0\n1 0\n").unwrap_err();
        assert_eq!(err.kind, InteropErrorKind::ProofDefect);
        // With both copies gone, a third deletion is a warning.
        let proof = "1 2 0\nd 1 2 0\n1 2 0\nd 2 1 0\nd 1 2 0\n1 2 0\n1 0\n";
        let report = drat_text(&cnf, proof).unwrap();
        assert_eq!(report.stats.deletions, 2);
        assert_eq!(report.stats.missing_deletions, 1);
    }

    #[test]
    fn deleted_clause_watches_stay_listed_but_never_propagate() {
        // Deleting (1 2) — binary — or (1 2 3) leaves their watch entries
        // in the lists until a visit drops them; the RUP check of the
        // next lemma must not use them, so the lemma fails.
        for (clauses, proof, rejected) in [
            (
                &[&[1i64, 2][..], &[1, -2], &[-1, 3], &[-1, -3]][..],
                "d 1 2 0\n1 0\n",
                "clause is neither RUP nor RAT on 1: resolvent with [-1, 3] is not RUP",
            ),
            (
                &[
                    &[1, 2, 3],
                    &[1, 2, -3],
                    &[-1, 4],
                    &[-1, -4],
                    &[-2, 4],
                    &[-2, -4],
                ],
                "d 1 2 3 0\n1 2 0\n",
                "clause is neither RUP nor RAT on 1: resolvent with [-1, 4] is not RUP",
            ),
        ] {
            let cnf = cnf(clauses);
            let mut eng = Engine::new(true);
            let originals = eng.load_cnf(&cnf).unwrap();
            let deleted = originals[0];
            let key = sorted(eng.lits(deleted));
            eng.delete_by_lits(&key);
            assert!(!eng.is_active(deleted));
            let listed = |eng: &Engine| {
                eng.watches
                    .iter()
                    .flatten()
                    .filter(|w| w.cref & !BINARY == deleted)
                    .count()
            };
            assert_eq!(listed(&eng), 2, "deletion is lazy");
            // Visiting the watches of literal 1 drops the entry there.
            eng.assign(code(-1), NONE);
            assert_eq!(eng.propagate(), None);
            assert!(eng.watches[code(1) as usize]
                .iter()
                .all(|w| w.cref & !BINARY != deleted));

            let err = drat_text(&cnf, proof).unwrap_err();
            assert_eq!(err.kind, InteropErrorKind::ProofDefect);
            assert_eq!(err.message, rejected);
        }
    }

    #[test]
    fn unit_lemma_with_level_zero_false_literals_asserts_its_unit() {
        // 3 is false at level 0, so the lemma (1 3) is unit: its
        // resolvent is (1), which asserts 1 persistently and propagates
        // to the final conflict through (−1 4)(−1 −4).
        let cnf = cnf(&[&[-3], &[1, 2], &[1, -2], &[-1, 4], &[-1, -4]]);
        let report = drat_text(&cnf, "1 3 0\n").unwrap();
        assert_eq!(report.stats.rup_steps, 1);
        assert_eq!(report.resolvents, vec![(5, vec![Lit::from_dimacs(1)])]);
        // ¬3 at load, then 1 and 4 after the lemma.
        assert_eq!(report.stats.level_zero, 3);
        assert_checks(&cnf, &report);

        // The same with a RAT lemma over a fresh variable: (5 3) is
        // installed as written, its non-false literal 5 watched first,
        // and is unit at level 0.
        let report = drat_text(&cnf, "5 3 0\n1 0\n").unwrap();
        assert_eq!(report.stats.rat_steps, 1);
        assert!(report
            .events
            .iter()
            .any(|e| matches!(e, TraceEvent::LevelZero { lit, .. } if lit.to_dimacs() == 5)));
    }

    #[test]
    fn rat_fallback_scans_clauses_whose_watches_moved() {
        // The first lemma assumes ¬1 and ¬4, so BCP moves the watch of
        // (1 2 −5) from 1 to −5 and reorders its literals. The RAT check
        // of (5) must still resolve on that clause: with (1 2 ±8) its
        // resolvent (1 2) is RUP; without, it is not, and the rejection
        // names the clause's literals in sorted order.
        let base: &[&[i64]] = &[
            &[1, 2, -5],
            &[1, 4, 7],
            &[1, 4, -7],
            &[9, 10],
            &[9, -10],
            &[-9, 10],
            &[-9, -10],
        ];
        let mut clauses = base.to_vec();
        clauses.push(&[1, 2, 8]);
        clauses.push(&[1, 2, -8]);
        let report = drat_text(&cnf(&clauses), "1 4 0\n5 0\n9 0\n").unwrap();
        assert_eq!(report.stats.rat_steps, 1);
        assert!(!report.resolution_checkable());

        let err = drat_text(&cnf(base), "1 4 0\n5 0\n9 0\n").unwrap_err();
        assert_eq!(err.at, Some(2));
        assert_eq!(
            err.message,
            "clause is neither RUP nor RAT on 5: resolvent with [1, 2, -5] is not RUP"
        );
    }

    #[test]
    fn lrat_unknown_hint_is_a_proof_defect() {
        let cnf = cnf(&[&[1, 2], &[1, -2], &[-1, 3], &[-1, -3]]);
        let err = lrat_text(&cnf, "5 1 0 99 0\n").unwrap_err();
        assert_eq!(err.kind, InteropErrorKind::ProofDefect);
    }

    #[test]
    fn lrat_proof_with_hints_synthesizes_trace() {
        let cnf = cnf(&[&[1, 2], &[1, -2], &[-1, 3], &[-1, -3]]);
        // Lemma (1): assume −1; (1 2) forces 2; (1 −2) conflicts.
        // Final: (1)=id 5 forces 1; (−1 3) forces 3; (−1 −3) conflicts.
        let report = lrat_text(&cnf, "5 1 0 1 2 0\n6 0 5 3 4 0\n").unwrap();
        assert!(report.resolution_checkable());
        assert_eq!(report.stats.rup_steps, 1);
        assert_eq!(report.stats.level_zero, 2);
        assert_eq!(report.stats.propagations, 3);
        assert!(matches!(
            report.events.last(),
            Some(TraceEvent::FinalConflict { .. })
        ));
    }

    #[test]
    fn lrat_satisfied_hint_is_skipped_not_fatal() {
        let cnf = cnf(&[&[1, 2], &[1, -2], &[-1, 3], &[-1, -3]]);
        // Hint 3 = (−1 3) is satisfied under the assumption −1 —
        // redundant, so the replay skips it; hints 1 and 2 then derive
        // the claimed unit the normal way. (Exported reverse chains
        // produce such hints from clause-minimization resolutions.)
        let report = lrat_text(&cnf, "5 1 0 3 1 2 0\n6 0 5 3 4 0\n").unwrap();
        assert_eq!(report.stats.rup_steps, 1);
        // A proof that is *only* satisfied hints still proves nothing.
        let err = lrat_text(&cnf, "5 1 0 3 0\n").unwrap_err();
        assert_eq!(err.kind, InteropErrorKind::ProofDefect);
    }

    /// The four-clause formula and its refutation through lemma (1),
    /// with the lemma under `id` and any `extra` lines before the final
    /// step, which has id `last`.
    fn lrat_with_ids(id: u64, extra: &str, last: u64) -> String {
        format!("{id} 1 0 1 2 0\n{extra}{last} 0 {id} 3 4 0\n")
    }

    #[test]
    fn lrat_ids_with_a_gap_map_inside_the_dense_table() {
        let cnf = cnf(&[&[1, 2], &[1, -2], &[-1, 3], &[-1, -3]]);
        // Four steps size the dense table to 8 ids: 6 and 8 land in it,
        // with 5 and 7 never defined.
        let ids = IdTable::new(vec![0; 4], 4);
        assert_eq!(ids.slot(8), Some(7));
        let proof = lrat_with_ids(6, "6 d 1 0\n6 d 2 0\n", 8);
        let report = lrat_text(&cnf, &proof).unwrap();
        assert_eq!(report.stats.deletions, 2);
        assert_checks(&cnf, &report);
        let err = lrat_text(&cnf, "6 1 0 1 2 0\n6 d 1 0\n6 d 2 0\n8 0 7 3 4 0\n").unwrap_err();
        assert_eq!(err.message, "hint 7 references an unknown clause");
        assert_eq!(err.at, Some(4));
    }

    #[test]
    fn lrat_ids_past_the_dense_table_go_through_the_map() {
        let cnf = cnf(&[&[1, 2], &[1, -2], &[-1, 3], &[-1, -3]]);
        let ids = IdTable::new(vec![0; 4], 2);
        assert_eq!(ids.slot(7), None);
        assert_eq!(ids.slot(0), None);
        let report = lrat_text(&cnf, &lrat_with_ids(1_000_000, "", 1_000_001)).unwrap();
        assert_checks(&cnf, &report);
        // Deleting a mapped id works too, and a hint to it then fails.
        let err = lrat_text(
            &cnf,
            &lrat_with_ids(1_000_000, "9 d 1000000 0\n", 1_000_001),
        )
        .unwrap_err();
        assert_eq!(err.message, "hint 1000000 references a deleted clause");
    }

    #[test]
    fn lrat_id_near_u64_max_is_accepted_and_deletable() {
        let cnf = cnf(&[&[1, 2], &[1, -2], &[-1, 3], &[-1, -3]]);
        // Hints are signed, so nothing can cite this id; it can still
        // be defined, deleted and defined again.
        let max = u64::MAX;
        let proof = format!(
            "{max} 1 0 1 2 0\n{max} d {max} 0\n{max} 1 0 1 2 0\n6 1 0 1 2 0\n7 0 6 3 4 0\n"
        );
        let report = lrat_text(&cnf, &proof).unwrap();
        assert_eq!(report.stats.deletions, 1);
        assert_eq!(report.stats.rup_steps, 3);
        assert_checks(&cnf, &report);
        let err = lrat_text(&cnf, &format!("{max} 1 0 1 2 0\n{max} 1 0 1 2 0\n")).unwrap_err();
        assert_eq!(err.message, format!("clause id {max} is already in use"));
    }

    #[test]
    fn lrat_id_reused_after_deletion_names_the_new_clause() {
        let cnf = cnf(&[&[1, 2], &[1, -2], &[-1, 3], &[-1, -3]]);
        // Id 5 first names the lemma (1 3); after its deletion it names
        // (1), which the final step cites.
        let proof = "5 1 3 0 1 2 0\n5 d 5 0\n5 1 0 1 2 0\n6 0 5 3 4 0\n";
        let report = lrat_text(&cnf, proof).unwrap();
        assert_eq!(report.stats.deletions, 1);
        assert_eq!(report.stats.rup_steps, 2);
        assert_checks(&cnf, &report);
        // Without the deletion, the id is still in use.
        let err = lrat_text(&cnf, "5 1 3 0 1 2 0\n5 1 0 1 2 0\n").unwrap_err();
        assert_eq!(err.message, "clause id 5 is already in use");
        assert_eq!(err.at, Some(2));
    }

    #[test]
    fn lrat_hints_to_unknown_and_deleted_ids_name_the_hint() {
        let cnf = cnf(&[&[1, 2], &[1, -2], &[-1, 3], &[-1, -3]]);
        for (proof, message, at) in [
            ("5 1 0 1 99 0\n", "hint 99 references an unknown clause", 1),
            (
                "5 d 2 0\n5 1 0 1 2 0\n",
                "hint 2 references a deleted clause",
                2,
            ),
            (
                "5 1 0 1 2 0\n6 0 7 0\n",
                "hint 7 references an unknown clause",
                2,
            ),
            (
                "5 d 4 0\n6 0 4 0\n",
                "hint 4 references a deleted clause",
                2,
            ),
            ("5 1 0 -99 0\n", "hint 99 references an unknown clause", 1),
        ] {
            let err = lrat_text(&cnf, proof).unwrap_err();
            assert_eq!(err.kind, InteropErrorKind::ProofDefect, "{proof:?}");
            assert_eq!(err.message, message, "{proof:?}");
            assert_eq!(err.at, Some(at), "{proof:?}");
        }
    }
}
