//! The CDCL search engine.

use crate::heap::VarOrderHeap;
use crate::{ClauseDb, ClauseId, SolveResult, SolverConfig, SolverStats};
use rescheck_cnf::{Assignment, Clause, Cnf, LBool, Lit, Var};
use rescheck_obs::{Event, NullObserver, Observer};
use rescheck_trace::{NullSink, TraceSink};
use std::io;

/// An entry in a watch list: the watching clause plus a *blocker* literal
/// whose truth lets propagation skip the clause without touching it.
#[derive(Clone, Copy, Debug)]
struct Watcher {
    clause: ClauseId,
    blocker: Lit,
}

/// A Chaff-style CDCL SAT solver.
///
/// The search follows Fig. 1 of the paper: decide, deduce (BCP over
/// watched literals), analyze conflicts by resolution (Fig. 2, 1UIP stop
/// criterion), backtrack by assertion. Learned clauses are recorded with
/// their resolve sources so an independent checker can replay the proof.
///
/// Clauses must all be added before the first [`solve`](Solver::solve)
/// call; clause IDs match the order of addition (and thus the input CNF).
///
/// # Examples
///
/// ```
/// use rescheck_cnf::Cnf;
/// use rescheck_solver::{Solver, SolverConfig};
///
/// let mut cnf = Cnf::new();
/// cnf.add_dimacs_clause(&[1, 2]);
/// cnf.add_dimacs_clause(&[-1]);
/// let mut solver = Solver::new(SolverConfig::default());
/// solver.add_formula(&cnf);
/// let result = solver.solve();
/// assert!(result.is_sat());
/// assert!(cnf.is_satisfied_by(result.model().unwrap()));
/// ```
#[derive(Debug)]
pub struct Solver {
    cfg: SolverConfig,
    db: ClauseDb,
    num_vars: usize,

    watches: Vec<Vec<Watcher>>,
    assigns: Vec<LBool>,
    level: Vec<u32>,
    reason: Vec<Option<ClauseId>>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,

    activity: Vec<f64>,
    var_inc: f64,
    order: VarOrderHeap,
    phase: Vec<bool>,
    seen: Vec<bool>,

    stats: SolverStats,
    rng: u64,

    started: bool,
    initialized: bool,
    finished: Option<SolveResult>,
    /// An input clause found unsatisfiable at level 0 during setup
    /// (an empty clause, or a unit contradicting an earlier unit).
    pending_conflict: Option<ClauseId>,
    pending_units: Vec<ClauseId>,

    /// For every variable assigned at decision level 0, the ID of a
    /// **unit clause** asserting its value (the original clause if it was
    /// unit, otherwise a unit derived by resolution and recorded in the
    /// trace). Conflict analysis resolves with these to keep level-0
    /// literals out of learned clauses.
    unit_id: Vec<Option<ClauseId>>,
    /// Level-0 variables whose unit clause has not been derived yet,
    /// in chronological order.
    pending_unit_vars: Vec<Var>,

    conflicts_since_restart: u64,
    next_reduce: u64,
}

impl Solver {
    /// Creates an empty solver with the given configuration.
    pub fn new(cfg: SolverConfig) -> Self {
        let seed = cfg.seed | 1; // xorshift state must be non-zero
        let next_reduce = cfg.reduce_db_interval;
        Solver {
            cfg,
            db: ClauseDb::new(),
            num_vars: 0,
            watches: Vec::new(),
            assigns: Vec::new(),
            level: Vec::new(),
            reason: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            activity: Vec::new(),
            var_inc: 1.0,
            order: VarOrderHeap::new(),
            phase: Vec::new(),
            seen: Vec::new(),
            stats: SolverStats::default(),
            rng: seed,
            started: false,
            initialized: false,
            finished: None,
            pending_conflict: None,
            pending_units: Vec::new(),
            unit_id: Vec::new(),
            pending_unit_vars: Vec::new(),
            conflicts_since_restart: 0,
            next_reduce,
        }
    }

    /// Creates a solver preloaded with a formula.
    pub fn from_cnf(cnf: &Cnf, cfg: SolverConfig) -> Self {
        let mut solver = Solver::new(cfg);
        solver.add_formula(cnf);
        solver
    }

    /// The configuration in use.
    pub fn config(&self) -> &SolverConfig {
        &self.cfg
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> &SolverStats {
        &self.stats
    }

    /// The clause database (originals + live learned clauses).
    pub fn clause_db(&self) -> &ClauseDb {
        &self.db
    }

    /// Number of variables the solver knows about.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Declares variables up to `n` (0-based indices `0..n`).
    pub fn ensure_vars(&mut self, n: usize) {
        assert!(!self.started, "cannot add variables after solving started");
        self.num_vars = self.num_vars.max(n);
    }

    /// Adds every clause of `cnf`, in order. The solver's variables are
    /// those the clauses mention, not the count a DIMACS header declares:
    /// a variable no clause mentions cannot affect satisfiability, and
    /// sizing by the header would let one line allocate without bound.
    ///
    /// # Panics
    ///
    /// Panics if solving has already started.
    pub fn add_formula(&mut self, cnf: &Cnf) {
        for clause in cnf.clauses() {
            self.add_clause_internal(Clause::new(clause.iter().copied()));
        }
    }

    /// Adds a single clause; its ID is the number of clauses added before.
    ///
    /// # Panics
    ///
    /// Panics if solving has already started.
    pub fn add_clause(&mut self, lits: impl IntoIterator<Item = Lit>) -> ClauseId {
        self.add_clause_internal(Clause::new(lits))
    }

    fn add_clause_internal(&mut self, clause: Clause) -> ClauseId {
        assert!(!self.started, "cannot add clauses after solving started");
        if let Some(max) = clause.max_var() {
            self.num_vars = self.num_vars.max(max.index() + 1);
        }
        self.db.add_original(clause)
    }

    /// Solves without emitting a trace (Table 1's "trace off" mode).
    ///
    /// Calling `solve` again returns the cached answer; after an
    /// inconclusive budget-limited run it resumes the search.
    pub fn solve(&mut self) -> SolveResult {
        self.solve_traced(&mut NullSink::new())
            .expect("NullSink cannot fail")
    }

    /// Solves while streaming a resolve trace into `sink`.
    ///
    /// Pass `&mut sink` to keep ownership of the sink.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors raised by the sink (e.g. a full disk while
    /// writing a trace file). The solver state is unusable for tracing
    /// after such an error; `solve` may still be called.
    pub fn solve_traced(&mut self, sink: &mut dyn TraceSink) -> io::Result<SolveResult> {
        self.solve_observed(sink, &mut NullObserver)
    }

    /// [`solve_traced`](Solver::solve_traced) with instrumentation: the
    /// observer receives a [`Event::Decision`] per branching decision, a
    /// [`Event::Conflict`] per conflict, plus restart, clause-learning
    /// and database-reduction events as they happen.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors raised by the sink, exactly like
    /// [`solve_traced`](Solver::solve_traced).
    pub fn solve_observed(
        &mut self,
        sink: &mut dyn TraceSink,
        obs: &mut dyn Observer,
    ) -> io::Result<SolveResult> {
        if let Some(result) = &self.finished {
            return Ok(result.clone());
        }
        self.started = true;
        if !self.initialized {
            self.initialize();
        }

        // Setup-time contradictions (empty clause, contradicting units).
        if let Some(confl) = self.pending_conflict {
            return self.conclude_unsat(confl, sink);
        }

        let mut budget = self.cfg.conflict_limit;
        loop {
            let conflict = self.propagate();
            self.derive_level_zero_units(sink)?;
            if let Some(confl) = conflict {
                self.stats.conflicts += 1;
                self.conflicts_since_restart += 1;
                obs.observe(&Event::Conflict {
                    number: self.stats.conflicts,
                    decision_level: self.decision_level() as u32,
                });
                if self.decision_level() == 0 {
                    return self.conclude_unsat(confl, sink);
                }
                let learned_before = self.stats.learned_clauses;
                let literals_before = self.stats.learned_literals;
                self.handle_conflict(confl, sink)?;
                if self.stats.learned_clauses > learned_before {
                    obs.observe(&Event::ClauseLearned {
                        id: self.stats.learned_clauses,
                        literals: self.stats.learned_literals - literals_before,
                    });
                }
                if self.cfg.clause_deletion && self.stats.conflicts >= self.next_reduce {
                    let deleted_before = self.stats.deleted_clauses;
                    self.reduce_db();
                    self.next_reduce += self.cfg.reduce_db_interval + self.cfg.reduce_db_increment;
                    obs.observe(&Event::DbReduced {
                        kept: self.stats.learned_clauses - self.stats.deleted_clauses,
                        deleted: self.stats.deleted_clauses - deleted_before,
                    });
                }
                if let Some(limit) = &mut budget {
                    if *limit == 0 {
                        return Ok(SolveResult::Unknown);
                    }
                    *limit -= 1;
                }
            } else if self.should_restart() {
                let conflicts_since = self.conflicts_since_restart;
                self.restart();
                obs.observe(&Event::Restart {
                    number: self.stats.restarts,
                    conflicts_since,
                });
            } else if self.decide() {
                obs.observe(&Event::Decision {
                    number: self.stats.decisions,
                });
            } else {
                // No free variables and no conflict: satisfiable.
                let model = self.extract_model();
                let result = SolveResult::Satisfiable(model);
                self.finished = Some(result.clone());
                return Ok(result);
            }
        }
    }

    // ------------------------------------------------------------------
    // Setup
    // ------------------------------------------------------------------

    fn initialize(&mut self) {
        self.initialized = true;
        let n = self.num_vars;
        self.watches = vec![Vec::new(); 2 * n];
        self.assigns = vec![LBool::Undef; n];
        self.level = vec![0; n];
        self.reason = vec![None; n];
        self.phase = vec![self.cfg.default_phase; n];
        self.seen = vec![false; n];
        self.activity = vec![0.0; n];
        self.unit_id = vec![None; n];
        for i in 0..n {
            self.order.insert(Var::new(i), &self.activity);
        }

        for index in 0..self.db.num_original() {
            let id = ClauseId::new(index);
            let lits = self.db.literals(id).expect("original clauses are live");
            match lits.len() {
                0 => {
                    if self.pending_conflict.is_none() {
                        self.pending_conflict = Some(id);
                    }
                }
                1 => self.pending_units.push(id),
                _ => {
                    if !is_tautology(lits) {
                        let (a, b) = (lits[0], lits[1]);
                        self.watches[a.code()].push(Watcher {
                            clause: id,
                            blocker: b,
                        });
                        self.watches[b.code()].push(Watcher {
                            clause: id,
                            blocker: a,
                        });
                    }
                }
            }
        }

        // Enqueue input units at level 0; a contradicting pair is a
        // setup-time conflict with the later clause as the conflicting one.
        let units = std::mem::take(&mut self.pending_units);
        for id in units {
            let lit = self.db.literals(id).expect("live")[0];
            match value_of(&self.assigns, lit) {
                LBool::Undef => self.enqueue(lit, Some(id)),
                LBool::True => {}
                LBool::False => {
                    if self.pending_conflict.is_none() {
                        self.pending_conflict = Some(id);
                    }
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Assignment plumbing
    // ------------------------------------------------------------------

    /// Current decision level (0 before any branching).
    pub fn decision_level(&self) -> usize {
        self.trail_lim.len()
    }

    /// The value a literal currently has.
    pub fn lit_value(&self, lit: Lit) -> LBool {
        value_of(&self.assigns, lit)
    }

    fn enqueue(&mut self, lit: Lit, reason: Option<ClauseId>) {
        let v = lit.var().index();
        debug_assert!(self.assigns[v].is_undef(), "enqueue of assigned var");
        self.assigns[v] = LBool::from(lit.is_positive());
        self.level[v] = self.decision_level() as u32;
        self.reason[v] = reason;
        self.trail.push(lit);
        self.stats.propagations += 1;
        if self.trail_lim.is_empty() {
            debug_assert!(reason.is_some(), "level-0 assignments are implied");
            self.pending_unit_vars.push(lit.var());
        }
    }

    /// Derives (and traces) a unit clause for every freshly implied
    /// level-0 variable: the variable's antecedent resolved against the
    /// unit clauses of its other (earlier) level-0 variables. Called
    /// after every propagation round so [`Solver::analyze`] can strip
    /// level-0 literals from learned clauses with exact resolve sources.
    fn derive_level_zero_units(&mut self, sink: &mut dyn TraceSink) -> io::Result<()> {
        if self.pending_unit_vars.is_empty() {
            return Ok(());
        }
        let vars = std::mem::take(&mut self.pending_unit_vars);
        for v in vars {
            let reason = self.reason[v.index()].expect("level-0 assignment has an antecedent");
            let lits = self.db.literals(reason).expect("reason clauses are live");
            if lits.len() == 1 {
                self.unit_id[v.index()] = Some(reason);
                continue;
            }
            let the_lit = Lit::new(v, self.assigns[v.index()] == LBool::True);
            let mut sources: Vec<u64> = Vec::with_capacity(lits.len());
            sources.push(reason.as_u64());
            for &l in lits {
                if l.var() == v {
                    continue;
                }
                let u = self.unit_id[l.var().index()]
                    .expect("earlier level-0 vars already have unit clauses");
                sources.push(u.as_u64());
            }
            let id = self.db.add_learned(vec![the_lit]);
            self.stats.learned_clauses += 1;
            self.stats.learned_literals += 1;
            sink.learned(id.as_u64(), &sources)?;
            self.unit_id[v.index()] = Some(id);
            self.reason[v.index()] = Some(id);
        }
        Ok(())
    }

    fn cancel_until(&mut self, target: usize) {
        if self.decision_level() <= target {
            return;
        }
        let lim = self.trail_lim[target];
        for i in (lim..self.trail.len()).rev() {
            let lit = self.trail[i];
            let v = lit.var();
            self.assigns[v.index()] = LBool::Undef;
            if self.cfg.phase_saving {
                self.phase[v.index()] = lit.is_positive();
            }
            self.reason[v.index()] = None;
            self.level[v.index()] = 0;
            self.order.insert(v, &self.activity);
        }
        self.trail.truncate(lim);
        self.trail_lim.truncate(target);
        self.qhead = lim;
    }

    // ------------------------------------------------------------------
    // BCP (deduce)
    // ------------------------------------------------------------------

    fn propagate(&mut self) -> Option<ClauseId> {
        let mut conflict = None;
        while conflict.is_none() && self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            let false_lit = !p;
            let mut ws = std::mem::take(&mut self.watches[false_lit.code()]);
            let mut i = 0;
            let mut j = 0;
            'watchers: while i < ws.len() {
                let w = ws[i];
                i += 1;
                if value_of(&self.assigns, w.blocker) == LBool::True {
                    ws[j] = w;
                    j += 1;
                    continue;
                }
                let cid = w.clause;
                let Some(lits) = self.db.literals_mut(cid) else {
                    // Tombstone of a deleted learned clause: drop watcher.
                    continue;
                };
                if lits[0] == false_lit {
                    lits.swap(0, 1);
                }
                debug_assert_eq!(lits[1], false_lit);
                let first = lits[0];
                let keep = Watcher {
                    clause: cid,
                    blocker: first,
                };
                if first != w.blocker && value_of(&self.assigns, first) == LBool::True {
                    ws[j] = keep;
                    j += 1;
                    continue;
                }
                // Find a replacement watch among the remaining literals.
                for k in 2..lits.len() {
                    if value_of(&self.assigns, lits[k]) != LBool::False {
                        lits.swap(1, k);
                        let moved = lits[1];
                        self.watches[moved.code()].push(keep);
                        continue 'watchers;
                    }
                }
                // Clause is unit or conflicting; the watcher stays.
                ws[j] = keep;
                j += 1;
                if value_of(&self.assigns, first) == LBool::False {
                    conflict = Some(cid);
                    // Keep the remaining watchers and stop propagating.
                    while i < ws.len() {
                        ws[j] = ws[i];
                        j += 1;
                        i += 1;
                    }
                    self.qhead = self.trail.len();
                } else {
                    self.enqueue(first, Some(cid));
                }
            }
            ws.truncate(j);
            debug_assert!(self.watches[false_lit.code()].is_empty());
            self.watches[false_lit.code()] = ws;
        }
        conflict
    }

    // ------------------------------------------------------------------
    // Branching
    // ------------------------------------------------------------------

    fn decide(&mut self) -> bool {
        // Optional random decisions (disabled by default).
        if self.cfg.random_decision_freq > 0.0
            && self.next_f64() < self.cfg.random_decision_freq
            && self.num_vars > 0
        {
            let v = Var::new((self.next_u64() % self.num_vars as u64) as usize);
            if self.assigns[v.index()].is_undef() {
                self.branch_on(v);
                return true;
            }
        }
        while let Some(v) = self.order.pop_max(&self.activity) {
            if self.assigns[v.index()].is_undef() {
                self.branch_on(v);
                return true;
            }
        }
        false
    }

    fn branch_on(&mut self, v: Var) {
        self.trail_lim.push(self.trail.len());
        let phase = if self.cfg.phase_saving {
            self.phase[v.index()]
        } else {
            self.cfg.default_phase
        };
        self.stats.decisions += 1;
        self.enqueue(Lit::new(v, phase), None);
    }

    fn should_restart(&self) -> bool {
        if !self.cfg.restarts || self.decision_level() == 0 {
            return false;
        }
        let threshold = crate::luby(self.stats.restarts + 1) * self.cfg.restart_interval;
        self.conflicts_since_restart >= threshold
    }

    fn restart(&mut self) {
        self.stats.restarts += 1;
        self.conflicts_since_restart = 0;
        self.cancel_until(0);
    }

    // ------------------------------------------------------------------
    // Conflict analysis (learning by resolution, Fig. 2)
    // ------------------------------------------------------------------

    /// Analyzes a conflict at decision level > 0.
    ///
    /// Returns the asserting clause (first literal = asserting literal,
    /// second = a literal at the asserting level when present), the
    /// resolve-source IDs in resolution order, and the asserting level.
    ///
    /// Literals falsified at decision level 0 are **not** kept in the
    /// learned clause; instead the unit clause recorded for their
    /// variable (see [`Solver::derive_level_zero_units`]) is appended to
    /// the resolve sources, so the learned clause remains the *exact*
    /// resolvent of its recorded sources — which is what the checker
    /// verifies.
    fn analyze(&mut self, conflict: ClauseId) -> (Vec<Lit>, Vec<u64>, usize) {
        let current = self.decision_level() as u32;
        let mut learnt: Vec<Lit> = vec![Lit::from_code(0)]; // placeholder slot 0
        let mut sources: Vec<u64> = vec![conflict.as_u64()];
        let mut zero_sources: Vec<u64> = Vec::new();
        let mut zero_vars: Vec<Var> = Vec::new();
        let mut path = 0usize;
        let mut idx = self.trail.len();
        let mut p: Option<Lit> = None;
        let mut confl = conflict;

        loop {
            if self.db.is_learned(confl) {
                self.db.bump_activity(confl);
            }
            let lits = self.db.literals(confl).expect("conflict clause is live");
            let skip = p.map(Lit::var);
            for &q in lits {
                let qv = q.var();
                if Some(qv) == skip || self.seen[qv.index()] {
                    continue;
                }
                debug_assert_eq!(
                    value_of(&self.assigns, q),
                    LBool::False,
                    "all literals of a resolvent are false"
                );
                self.seen[qv.index()] = true;
                bump_var(&mut self.activity, &mut self.var_inc, &mut self.order, qv);
                if self.level[qv.index()] == current {
                    path += 1;
                } else if self.level[qv.index()] == 0 {
                    let u = self.unit_id[qv.index()].expect("level-0 vars have unit clauses");
                    zero_sources.push(u.as_u64());
                    zero_vars.push(qv);
                } else {
                    learnt.push(q);
                }
            }

            // Walk the trail backwards to the next marked literal.
            loop {
                idx -= 1;
                if self.seen[self.trail[idx].var().index()] {
                    break;
                }
            }
            let pl = self.trail[idx];
            p = Some(pl);
            self.seen[pl.var().index()] = false;
            path -= 1;
            if path == 0 {
                break; // pl is the first UIP
            }
            confl = self.reason[pl.var().index()]
                .expect("non-decision variable at the current level has an antecedent");
            sources.push(confl.as_u64());
        }

        learnt[0] = !p.expect("at least one current-level literal");

        // Resolving with the level-0 unit clauses happens after the main
        // chain; each such step removes exactly one false literal.
        sources.extend(zero_sources);

        let cleanup: Vec<Var> = learnt[1..].iter().map(|l| l.var()).collect();
        if self.cfg.minimize_learned {
            self.minimize(&mut learnt, &mut sources);
        }

        // Find the asserting level and move one of its literals to slot 1
        // so the watched literals are positioned correctly after attach.
        let mut assert_level = 0usize;
        let mut at = 1usize;
        for (i, l) in learnt.iter().enumerate().skip(1) {
            let lv = self.level[l.var().index()] as usize;
            if lv > assert_level {
                assert_level = lv;
                at = i;
            }
        }
        if learnt.len() > 1 {
            learnt.swap(1, at);
        }
        for v in cleanup {
            self.seen[v.index()] = false;
        }
        for v in zero_vars {
            self.seen[v.index()] = false;
        }
        (learnt, sources, assert_level)
    }

    /// Self-subsuming minimization: a literal can be dropped from the
    /// learned clause when its antecedent's other literals are all either
    /// kept in the clause or falsified at level 0. Each removal is one
    /// resolution with that antecedent (plus unit resolutions for any
    /// level-0 literals it drags in), and those sources are appended so
    /// the clause stays the exact resolvent of its source list.
    fn minimize(&mut self, learnt: &mut Vec<Lit>, sources: &mut Vec<u64>) {
        debug_assert!(learnt[1..].iter().all(|l| self.seen[l.var().index()]));
        let mut removed = vec![]; // vars removed so far (unusable as support)
        let mut kept = Vec::with_capacity(learnt.len());
        kept.push(learnt[0]);
        'literals: for &q in &learnt[1..] {
            let v = q.var();
            let Some(reason) = self.reason[v.index()] else {
                kept.push(q);
                continue;
            };
            let lits = self.db.literals(reason).expect("reason clauses are live");
            // Check removability against the *kept* literals only; a
            // removed literal would be re-introduced by this resolution.
            for &l in lits {
                let lv = l.var();
                if lv == v {
                    continue;
                }
                // Level-0 vars may still be marked `seen` from the main
                // loop but are *not* in the clause; they are supported by
                // their unit clause instead.
                let supported = if self.level[lv.index()] == 0 {
                    self.unit_id[lv.index()].is_some()
                } else {
                    self.seen[lv.index()] && !removed.contains(&lv)
                };
                if !supported {
                    kept.push(q);
                    continue 'literals;
                }
            }
            // Commit: resolve with the antecedent, then clean up any
            // level-0 literals it introduced.
            removed.push(v);
            sources.push(reason.as_u64());
            for &l in self.db.literals(reason).expect("live") {
                let lv = l.var();
                if lv != v && self.level[lv.index()] == 0 {
                    let u = self.unit_id[lv.index()].expect("checked above");
                    sources.push(u.as_u64());
                }
            }
            self.stats.minimized_literals += 1;
        }
        *learnt = kept;
    }

    fn handle_conflict(&mut self, conflict: ClauseId, sink: &mut dyn TraceSink) -> io::Result<()> {
        let (learnt, sources, assert_level) = self.analyze(conflict);
        let asserting = learnt[0];

        let reason_id = if sources.len() >= 2 {
            let len = learnt.len();
            let id = self.db.add_learned(learnt.clone());
            self.stats.learned_clauses += 1;
            self.stats.learned_literals += len as u64;
            sink.learned(id.as_u64(), &sources)?;
            if len >= 2 {
                let (a, b) = (learnt[0], learnt[1]);
                self.watches[a.code()].push(Watcher {
                    clause: id,
                    blocker: b,
                });
                self.watches[b.code()].push(Watcher {
                    clause: id,
                    blocker: a,
                });
            }
            id
        } else {
            // The conflicting clause was already asserting: no resolution
            // happened, so no clause is learned (Fig. 2's stop criterion
            // is met immediately) and the conflicting clause itself
            // becomes the antecedent of the flipped variable.
            self.stats.reused_conflicts += 1;
            conflict
        };

        self.cancel_until(assert_level);
        self.enqueue(asserting, Some(reason_id));

        self.var_inc /= self.cfg.var_decay;
        self.db.decay_activity(self.cfg.clause_decay);
        Ok(())
    }

    fn conclude_unsat(
        &mut self,
        conflict: ClauseId,
        sink: &mut dyn TraceSink,
    ) -> io::Result<SolveResult> {
        debug_assert_eq!(self.decision_level(), 0);
        for i in 0..self.trail.len() {
            let lit = self.trail[i];
            let reason =
                self.reason[lit.var().index()].expect("every level-0 assignment has an antecedent");
            sink.level_zero(lit, reason.as_u64())?;
        }
        sink.final_conflict(conflict.as_u64())?;
        sink.flush()?;
        self.finished = Some(SolveResult::Unsatisfiable);
        Ok(SolveResult::Unsatisfiable)
    }

    // ------------------------------------------------------------------
    // Learned-clause database reduction
    // ------------------------------------------------------------------

    fn is_locked(&self, id: ClauseId) -> bool {
        let Some(lits) = self.db.literals(id) else {
            return false;
        };
        let Some(&first) = lits.first() else {
            return false;
        };
        value_of(&self.assigns, first) == LBool::True
            && self.reason[first.var().index()] == Some(id)
    }

    fn reduce_db(&mut self) {
        self.stats.db_reductions += 1;
        let mut candidates: Vec<(f64, ClauseId)> = self
            .db
            .learned_ids()
            .filter(|&id| !self.is_locked(id))
            .filter(|&id| {
                // Binary clauses are cheap and strong; keep them (unless
                // learning is off entirely).
                !self.cfg.learning || self.db.literals(id).map_or(0, <[Lit]>::len) > 2
            })
            .map(|id| (self.db.activity(id), id))
            .collect();
        candidates.sort_by(|a, b| a.0.total_cmp(&b.0));
        let to_delete = if self.cfg.learning {
            candidates.len() / 2
        } else {
            candidates.len()
        };
        for &(_, id) in candidates.iter().take(to_delete) {
            self.db.remove_learned(id);
            self.stats.deleted_clauses += 1;
        }
        // Watch lists self-clean lazily during propagation.
    }

    // ------------------------------------------------------------------
    // Misc
    // ------------------------------------------------------------------

    fn extract_model(&self) -> Assignment {
        let mut model = Assignment::new(self.num_vars);
        for (i, &v) in self.assigns.iter().enumerate() {
            model.set(Var::new(i), v);
        }
        model
    }

    fn next_u64(&mut self) -> u64 {
        let mut x = self.rng;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng = x;
        x
    }

    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Deep consistency check of the solver's internal invariants, used
    /// by tests after (partial) solving:
    ///
    /// - the trail holds distinct, currently-true literals, partitioned
    ///   by decision level;
    /// - every non-decision assigned variable has a live reason clause
    ///   that contains its literal;
    /// - every level-0 variable has a unit clause recorded;
    /// - under a complete propagation fixpoint, no live attached clause
    ///   is unit or conflicting.
    ///
    /// # Panics
    ///
    /// Panics (with a description) on the first violated invariant.
    #[cfg(test)]
    pub(crate) fn assert_invariants(&self) {
        use std::collections::HashSet;
        let mut seen_vars: HashSet<Var> = HashSet::new();
        for (pos, &lit) in self.trail.iter().enumerate() {
            assert!(seen_vars.insert(lit.var()), "duplicate trail var {lit}");
            assert_eq!(
                value_of(&self.assigns, lit),
                LBool::True,
                "trail literal {lit} is not true"
            );
            // Level partitioning: position vs trail_lim.
            let level = self.trail_lim.iter().take_while(|&&lim| lim <= pos).count();
            assert_eq!(
                self.level[lit.var().index()] as usize,
                level,
                "trail literal {lit} has the wrong level"
            );
            let is_decision = self.trail_lim.contains(&pos);
            match self.reason[lit.var().index()] {
                Some(r) => {
                    let lits = self
                        .db
                        .literals(r)
                        .expect("reason clauses are never deleted");
                    assert!(
                        lits.contains(&lit),
                        "reason {r} of {lit} lacks the implied literal"
                    );
                }
                None => assert!(is_decision, "non-decision {lit} lacks a reason"),
            }
            if level == 0 && self.pending_unit_vars.is_empty() {
                assert!(
                    self.unit_id[lit.var().index()].is_some(),
                    "level-0 var {lit} lacks a unit clause"
                );
            }
        }
        // With propagation complete, no clause may be unit/conflicting.
        if self.qhead == self.trail.len() {
            for index in 0..self.db.num_ids() {
                let id = ClauseId::new(index);
                let Some(lits) = self.db.literals(id) else {
                    continue;
                };
                if lits.len() < 2 || is_tautology(lits) {
                    continue;
                }
                let any_true = lits
                    .iter()
                    .any(|&l| value_of(&self.assigns, l) == LBool::True);
                let unassigned = lits
                    .iter()
                    .filter(|&&l| value_of(&self.assigns, l) == LBool::Undef)
                    .count();
                assert!(
                    any_true || unassigned >= 2 || self.finished_unsat(),
                    "clause {id} is unit/conflicting after a propagation fixpoint"
                );
            }
        }
    }

    /// After an UNSAT conclusion the assignment is a conflicting
    /// snapshot by design; the fixpoint invariant only applies while the
    /// search is live or ended SAT.
    #[cfg(test)]
    fn finished_unsat(&self) -> bool {
        matches!(self.finished, Some(SolveResult::Unsatisfiable))
    }
}

fn value_of(assigns: &[LBool], lit: Lit) -> LBool {
    let v = assigns[lit.var().index()];
    if lit.is_positive() {
        v
    } else {
        !v
    }
}

fn bump_var(activity: &mut [f64], var_inc: &mut f64, order: &mut VarOrderHeap, v: Var) {
    activity[v.index()] += *var_inc;
    if activity[v.index()] > 1e100 {
        for a in activity.iter_mut() {
            *a *= 1e-100;
        }
        *var_inc *= 1e-100;
    }
    order.bumped(v, activity);
}

fn is_tautology(lits: &[Lit]) -> bool {
    // Clauses are short on average; the quadratic check avoids allocation.
    if lits.len() > 32 {
        let mut sorted: Vec<Lit> = lits.to_vec();
        sorted.sort_unstable();
        return sorted.windows(2).any(|w| w[0] == !w[1]);
    }
    lits.iter()
        .enumerate()
        .any(|(i, &a)| lits[i + 1..].contains(&!a))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rescheck_trace::{MemorySink, TraceEvent};

    fn solve_dimacs(clauses: &[&[i64]]) -> (SolveResult, Cnf) {
        let mut cnf = Cnf::new();
        for c in clauses {
            cnf.add_dimacs_clause(c);
        }
        let mut solver = Solver::from_cnf(&cnf, SolverConfig::default());
        (solver.solve(), cnf)
    }

    #[test]
    fn empty_formula_is_sat() {
        let (result, _) = solve_dimacs(&[]);
        assert!(result.is_sat());
    }

    #[test]
    fn single_unit_is_sat_with_correct_model() {
        let (result, cnf) = solve_dimacs(&[&[-3]]);
        let model = result.model().unwrap();
        assert!(cnf.is_satisfied_by(model));
        assert_eq!(model.value(Var::new(2)), LBool::False);
    }

    #[test]
    fn contradicting_units_are_unsat() {
        let (result, _) = solve_dimacs(&[&[1], &[-1]]);
        assert!(result.is_unsat());
    }

    #[test]
    fn empty_clause_is_unsat() {
        let mut cnf = Cnf::new();
        cnf.push_clause(Clause::empty());
        let mut solver = Solver::from_cnf(&cnf, SolverConfig::default());
        assert!(solver.solve().is_unsat());
    }

    #[test]
    fn chain_of_implications_is_sat() {
        // 1 → 2 → 3 → 4, with unit 1.
        let (result, cnf) = solve_dimacs(&[&[1], &[-1, 2], &[-2, 3], &[-3, 4]]);
        let model = result.model().unwrap();
        assert!(cnf.is_satisfied_by(model));
        for i in 0..4 {
            assert_eq!(model.value(Var::new(i)), LBool::True);
        }
    }

    #[test]
    fn unit_conflict_through_propagation_is_unsat() {
        let (result, _) = solve_dimacs(&[&[1], &[-1, 2], &[-2]]);
        assert!(result.is_unsat());
    }

    #[test]
    fn two_var_complete_conflict_is_unsat() {
        let (result, _) = solve_dimacs(&[&[1, 2], &[1, -2], &[-1, 2], &[-1, -2]]);
        assert!(result.is_unsat());
    }

    #[test]
    fn tautological_clause_is_ignored() {
        let (result, cnf) = solve_dimacs(&[&[1, -1], &[2]]);
        assert!(cnf.is_satisfied_by(result.model().unwrap()));
    }

    #[test]
    fn duplicate_literals_are_handled() {
        let (result, cnf) = solve_dimacs(&[&[1, 1, 1], &[-1, -1, 2]]);
        assert!(cnf.is_satisfied_by(result.model().unwrap()));
    }

    #[test]
    fn repeated_solve_returns_cached_answer() {
        let mut cnf = Cnf::new();
        cnf.add_dimacs_clause(&[1]);
        cnf.add_dimacs_clause(&[-1]);
        let mut solver = Solver::from_cnf(&cnf, SolverConfig::default());
        assert!(solver.solve().is_unsat());
        assert!(solver.solve().is_unsat());
    }

    #[test]
    #[should_panic(expected = "after solving started")]
    fn adding_clauses_after_solve_panics() {
        let mut solver = Solver::new(SolverConfig::default());
        solver.ensure_vars(1);
        solver.solve();
        solver.add_clause([Lit::from_dimacs(1)]);
    }

    #[test]
    fn trace_events_are_emitted_for_unsat() {
        let mut cnf = Cnf::new();
        for c in [&[1i64, 2][..], &[1, -2], &[-1, 2], &[-1, -2]] {
            cnf.add_dimacs_clause(c);
        }
        let mut solver = Solver::from_cnf(&cnf, SolverConfig::default());
        let mut sink = MemorySink::new();
        let result = solver.solve_traced(&mut sink).unwrap();
        assert!(result.is_unsat());
        let events = sink.events();
        // Must end with a final conflict.
        assert!(matches!(
            events.last().unwrap(),
            TraceEvent::FinalConflict { .. }
        ));
        // Learned clause IDs start after the originals.
        for e in events {
            if let TraceEvent::Learned { id, sources } = e {
                assert!(*id >= cnf.num_clauses() as u64);
                assert!(sources.len() >= 2);
                // Sources must be already-defined IDs.
                for s in sources {
                    assert!(*s < *id);
                }
            }
        }
    }

    #[test]
    fn sat_instances_produce_no_final_conflict() {
        let mut cnf = Cnf::new();
        cnf.add_dimacs_clause(&[1, 2]);
        let mut solver = Solver::from_cnf(&cnf, SolverConfig::default());
        let mut sink = MemorySink::new();
        let result = solver.solve_traced(&mut sink).unwrap();
        assert!(result.is_sat());
        assert!(sink
            .events()
            .iter()
            .all(|e| !matches!(e, TraceEvent::FinalConflict { .. })));
    }

    /// Pigeonhole formula PHP(n+1, n): n+1 pigeons, n holes — UNSAT.
    fn pigeonhole(holes: usize) -> Cnf {
        let pigeons = holes + 1;
        let mut cnf = Cnf::new();
        let var = |p: usize, h: usize| Lit::positive(Var::new(p * holes + h));
        for p in 0..pigeons {
            cnf.add_clause((0..holes).map(|h| var(p, h)));
        }
        for h in 0..holes {
            for p1 in 0..pigeons {
                for p2 in p1 + 1..pigeons {
                    cnf.add_clause([!var(p1, h), !var(p2, h)]);
                }
            }
        }
        cnf
    }

    #[test]
    fn pigeonhole_instances_are_unsat() {
        for holes in 1..=5 {
            let cnf = pigeonhole(holes);
            let mut solver = Solver::from_cnf(&cnf, SolverConfig::default());
            assert!(solver.solve().is_unsat(), "php({holes}) must be UNSAT");
        }
    }

    #[test]
    fn solver_agrees_with_brute_force_on_random_small_instances() {
        // Deterministic pseudo-random 3-SAT instances, cross-checked
        // against exhaustive enumeration.
        let mut state = 0xdead_beefu64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for round in 0..60 {
            let num_vars = 3 + (next() % 6) as usize; // 3..8
            let num_clauses = 2 + (next() % 24) as usize;
            let mut cnf = Cnf::with_vars(num_vars);
            for _ in 0..num_clauses {
                let len = 1 + (next() % 3) as usize;
                let lits: Vec<i64> = (0..len)
                    .map(|_| {
                        let v = (next() % num_vars as u64) as i64 + 1;
                        if next() % 2 == 0 {
                            v
                        } else {
                            -v
                        }
                    })
                    .collect();
                cnf.add_dimacs_clause(&lits);
            }
            let expected = cnf.brute_force_status();
            let mut solver = Solver::from_cnf(&cnf, SolverConfig::default());
            let result = solver.solve();
            assert_eq!(result.status(), expected, "round {round}: {cnf}");
            if let Some(model) = result.model() {
                assert!(cnf.is_satisfied_by(model), "round {round}");
            }
        }
    }

    #[test]
    fn minimization_shortens_learned_clauses() {
        let cnf = pigeonhole(6);
        let mut with = Solver::from_cnf(&cnf, SolverConfig::default());
        assert!(with.solve().is_unsat());
        let mut without = Solver::from_cnf(&cnf, SolverConfig::without_minimization());
        assert!(without.solve().is_unsat());
        assert!(with.stats().minimized_literals > 0);
        assert_eq!(without.stats().minimized_literals, 0);
    }

    #[test]
    fn ablation_configs_reach_the_same_answers() {
        let cnf = pigeonhole(4);
        for cfg in [
            SolverConfig::without_learning(),
            SolverConfig::without_deletion(),
            SolverConfig::without_restarts(),
            SolverConfig::without_minimization(),
            SolverConfig {
                phase_saving: false,
                default_phase: true,
                ..SolverConfig::default()
            },
            SolverConfig {
                random_decision_freq: 0.1,
                ..SolverConfig::default()
            },
        ] {
            let mut solver = Solver::from_cnf(&cnf, cfg.clone());
            assert!(solver.solve().is_unsat(), "cfg {cfg:?}");
        }
    }

    #[test]
    fn conflict_limit_returns_unknown_and_can_resume() {
        let cnf = pigeonhole(6);
        let cfg = SolverConfig {
            conflict_limit: Some(1),
            ..SolverConfig::default()
        };
        let mut solver = Solver::from_cnf(&cnf, cfg);
        let first = solver.solve();
        assert!(matches!(first, SolveResult::Unknown));
        // Budget renews on each call; eventually the search completes.
        let mut answer = solver.solve();
        let mut guard = 0;
        while matches!(answer, SolveResult::Unknown) {
            answer = solver.solve();
            guard += 1;
            assert!(guard < 200_000, "search must terminate");
        }
        assert!(answer.is_unsat());
    }

    #[test]
    fn invariants_hold_after_solving() {
        // SAT outcome: complete assignment, all clauses satisfied.
        let mut sat = Cnf::new();
        sat.add_dimacs_clause(&[1, 2]);
        sat.add_dimacs_clause(&[-1, 3]);
        sat.add_dimacs_clause(&[-3, -2, 1]);
        let mut solver = Solver::from_cnf(&sat, SolverConfig::default());
        assert!(solver.solve().is_sat());
        solver.assert_invariants();

        // UNSAT outcome (trail is a level-0 conflicting snapshot).
        let mut solver = Solver::from_cnf(&pigeonhole(4), SolverConfig::default());
        assert!(solver.solve().is_unsat());
        solver.assert_invariants();

        // Mid-search snapshot via a conflict budget.
        let cfg = SolverConfig {
            conflict_limit: Some(5),
            ..SolverConfig::default()
        };
        let mut solver = Solver::from_cnf(&pigeonhole(6), cfg);
        let _ = solver.solve();
        solver.assert_invariants();
    }

    #[test]
    fn invariants_hold_across_many_random_instances() {
        let mut state = 0x77aa_11bbu64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..40 {
            let num_vars = 4 + (next() % 8) as usize;
            let num_clauses = 6 + (next() % 30) as usize;
            let mut cnf = Cnf::with_vars(num_vars);
            for _ in 0..num_clauses {
                let len = 2 + (next() % 3) as usize;
                let lits: Vec<i64> = (0..len)
                    .map(|_| {
                        let v = (next() % num_vars as u64) as i64 + 1;
                        if next() % 2 == 0 {
                            v
                        } else {
                            -v
                        }
                    })
                    .collect();
                cnf.add_dimacs_clause(&lits);
            }
            let mut solver = Solver::from_cnf(&cnf, SolverConfig::default());
            solver.solve();
            solver.assert_invariants();
        }
    }

    #[test]
    fn stats_are_populated() {
        let cnf = pigeonhole(4);
        let mut solver = Solver::from_cnf(&cnf, SolverConfig::default());
        solver.solve();
        let stats = solver.stats();
        assert!(stats.decisions > 0);
        assert!(stats.conflicts > 0);
        assert!(stats.propagations > 0);
        assert!(stats.learned_clauses > 0);
        assert!(stats.avg_learned_len() > 0.0);
    }

    #[test]
    fn learned_ids_and_trace_ids_stay_aligned_under_deletion() {
        // Aggressive deletion must not shift IDs: every learned event's ID
        // equals num_original + (number of learned events before it).
        let cnf = pigeonhole(5);
        let cfg = SolverConfig {
            reduce_db_interval: 10,
            reduce_db_increment: 0,
            ..SolverConfig::default()
        };
        let mut solver = Solver::from_cnf(&cnf, cfg);
        let mut sink = MemorySink::new();
        assert!(solver.solve_traced(&mut sink).unwrap().is_unsat());
        let mut expected = cnf.num_clauses() as u64;
        for e in sink.events() {
            if let TraceEvent::Learned { id, .. } = e {
                assert_eq!(*id, expected);
                expected += 1;
            }
        }
        assert!(solver.stats().deleted_clauses > 0 || solver.stats().db_reductions == 0);
    }
}
