//! CNF formulas.

use crate::{Assignment, Clause, LBool, Lit, Var};
use std::fmt;

/// The answer a complete SAT procedure gives for a formula.
///
/// # Examples
///
/// ```
/// use rescheck_cnf::SatStatus;
///
/// assert!(SatStatus::Satisfiable.is_sat());
/// assert!(SatStatus::Unsatisfiable.is_unsat());
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SatStatus {
    /// Some assignment satisfies the formula.
    Satisfiable,
    /// No assignment satisfies the formula.
    Unsatisfiable,
}

impl SatStatus {
    /// Returns `true` for [`SatStatus::Satisfiable`].
    pub fn is_sat(self) -> bool {
        self == SatStatus::Satisfiable
    }

    /// Returns `true` for [`SatStatus::Unsatisfiable`].
    pub fn is_unsat(self) -> bool {
        self == SatStatus::Unsatisfiable
    }
}

impl fmt::Display for SatStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SatStatus::Satisfiable => f.write_str("SATISFIABLE"),
            SatStatus::Unsatisfiable => f.write_str("UNSATISFIABLE"),
        }
    }
}

/// A propositional formula in conjunctive normal form.
///
/// Clause indices double as the *clause IDs* "agreed to by both the solver
/// and the checker" (paper §3.1): clause `i` is the `i`-th clause added.
///
/// # Examples
///
/// ```
/// use rescheck_cnf::{Cnf, Lit};
///
/// let mut cnf = Cnf::new();
/// let x = cnf.fresh_var();
/// let y = cnf.fresh_var();
/// cnf.add_clause([x.positive(), y.positive()]);
/// cnf.add_clause([x.negative()]);
/// assert_eq!(cnf.num_vars(), 2);
/// assert_eq!(cnf.num_clauses(), 2);
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Cnf {
    num_vars: usize,
    /// Every clause's literals, concatenated in clause-ID order.
    ///
    /// Flat storage: one growable buffer instead of a heap allocation
    /// per clause, so building a formula (e.g. in the DIMACS parser) is
    /// allocation-free per clause and iteration is cache-friendly.
    lits: Vec<Lit>,
    /// End offset of clause `i` in `lits`; clause `i` spans
    /// `ends[i - 1]..ends[i]`, with the start of clause 0 read as 0.
    ends: Vec<usize>,
}

impl Cnf {
    /// Creates an empty formula with no variables.
    pub fn new() -> Self {
        Cnf::default()
    }

    /// Creates an empty formula that already declares `num_vars` variables.
    pub fn with_vars(num_vars: usize) -> Self {
        Cnf {
            num_vars,
            lits: Vec::new(),
            ends: Vec::new(),
        }
    }

    /// Number of declared variables.
    ///
    /// This can exceed the number of variables actually mentioned by
    /// clauses, matching the DIMACS header convention the paper notes under
    /// Table 3.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Number of clauses.
    pub fn num_clauses(&self) -> usize {
        self.ends.len()
    }

    /// Returns `true` if the formula has no clauses.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Total number of literal occurrences across all clauses.
    pub fn num_literals(&self) -> usize {
        self.lits.len()
    }

    /// Allocates and returns a fresh variable.
    pub fn fresh_var(&mut self) -> Var {
        let v = Var::new(self.num_vars);
        self.num_vars += 1;
        v
    }

    /// Allocates `n` fresh variables and returns them.
    pub fn fresh_vars(&mut self, n: usize) -> Vec<Var> {
        (0..n).map(|_| self.fresh_var()).collect()
    }

    /// Declares that variables up to `num_vars` exist.
    ///
    /// Never shrinks the variable count.
    pub fn ensure_vars(&mut self, num_vars: usize) {
        self.num_vars = self.num_vars.max(num_vars);
    }

    /// Reserves capacity for at least `additional` more clauses.
    ///
    /// Lets callers that know the clause count up front (e.g. the DIMACS
    /// parser, from the `p cnf` header) avoid repeated table growth.
    pub fn reserve_clauses(&mut self, additional: usize) {
        self.ends.reserve(additional);
    }

    /// Reserves capacity for at least `additional` more literals across
    /// all future clauses.
    pub fn reserve_literals(&mut self, additional: usize) {
        self.lits.reserve(additional);
    }

    /// Appends a clause and returns its ID (index).
    ///
    /// The variable count is extended to cover every literal in the clause.
    pub fn add_clause(&mut self, lits: impl IntoIterator<Item = Lit>) -> usize {
        let start = self.lits.len();
        self.lits.extend(lits);
        let mut max_var = self.num_vars;
        for lit in &self.lits[start..] {
            max_var = max_var.max(lit.var().index() + 1);
        }
        self.num_vars = max_var;
        self.ends.push(self.lits.len());
        self.ends.len() - 1
    }

    /// Appends an already-built clause and returns its ID (index).
    pub fn push_clause(&mut self, clause: Clause) -> usize {
        self.add_clause(clause.literals().iter().copied())
    }

    /// Appends one literal to the clause currently being built directly
    /// in the flat storage. The caller guarantees the variable is already
    /// covered by [`Cnf::num_vars`] (the DIMACS parser range-checks every
    /// literal against the declared count while lexing), so the per-literal
    /// `max_var` scan of [`Cnf::add_clause`] is skipped. The clause does
    /// not exist until [`Cnf::close_covered_clause`] seals it; a caller
    /// that aborts mid-clause must not hand out the `Cnf`.
    #[inline]
    pub fn push_covered_lit(&mut self, lit: Lit) {
        debug_assert!(
            lit.var().index() < self.num_vars,
            "push_covered_lit requires a literal within num_vars"
        );
        self.lits.push(lit);
    }

    /// Returns `true` if literals have been pushed with
    /// [`Cnf::push_covered_lit`] since the last
    /// [`Cnf::close_covered_clause`].
    pub fn has_open_clause(&self) -> bool {
        self.lits.len() > self.ends.last().copied().unwrap_or(0)
    }

    /// Seals the clause built up by [`Cnf::push_covered_lit`] calls and
    /// returns its ID. Together with the flat storage this makes appending
    /// a parsed clause allocation- and scan-free.
    #[inline]
    pub fn close_covered_clause(&mut self) -> usize {
        self.ends.push(self.lits.len());
        self.ends.len() - 1
    }

    /// Appends a clause given as signed DIMACS literals, returning its ID.
    ///
    /// # Panics
    ///
    /// Panics if any literal is zero.
    pub fn add_dimacs_clause(&mut self, lits: &[i64]) -> usize {
        self.add_clause(lits.iter().map(|&l| Lit::from_dimacs(l)))
    }

    /// Iterates over the clauses as literal slices, in ID order.
    pub fn clauses(&self) -> impl ExactSizeIterator<Item = &[Lit]> {
        let mut start = 0usize;
        self.ends.iter().map(move |&end| {
            let clause = &self.lits[start..end];
            start = end;
            clause
        })
    }

    /// Returns the literals of the clause with the given ID, if it exists.
    pub fn clause(&self, id: usize) -> Option<&[Lit]> {
        let end = *self.ends.get(id)?;
        let start = if id == 0 { 0 } else { self.ends[id - 1] };
        Some(&self.lits[start..end])
    }

    /// Iterates over `(id, clause)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &[Lit])> {
        self.clauses().enumerate()
    }

    /// Returns `true` if some clause is empty (the formula is trivially
    /// unsatisfiable).
    pub fn has_empty_clause(&self) -> bool {
        self.clauses().any(|c| c.is_empty())
    }

    /// Evaluates the formula under a (possibly partial) assignment.
    ///
    /// Returns [`LBool::True`] if every clause is satisfied,
    /// [`LBool::False`] if some clause is falsified, and [`LBool::Undef`]
    /// otherwise.
    pub fn evaluate(&self, assignment: &Assignment) -> LBool {
        let mut undef = false;
        for clause in self.clauses() {
            match crate::clause::evaluate_lits(clause, assignment) {
                LBool::False => return LBool::False,
                LBool::Undef => undef = true,
                LBool::True => {}
            }
        }
        if undef {
            LBool::Undef
        } else {
            LBool::True
        }
    }

    /// Returns `true` if the assignment satisfies every clause.
    ///
    /// This is the paper's "independent check" for SAT claims: linear in
    /// the size of the formula.
    pub fn is_satisfied_by(&self, assignment: &Assignment) -> bool {
        self.evaluate(assignment) == LBool::True
    }

    /// Returns the IDs of all clauses falsified by `assignment`.
    ///
    /// Useful for diagnosing an invalid model claimed by a buggy solver.
    pub fn falsified_clauses(&self, assignment: &Assignment) -> Vec<usize> {
        self.iter()
            .filter(|(_, c)| crate::clause::evaluate_lits(c, assignment) == LBool::False)
            .map(|(id, _)| id)
            .collect()
    }

    /// One past the largest variable index some clause mentions (0 when
    /// no clause has a literal): the variable space the clauses use. A
    /// DIMACS header's [`num_vars`](Cnf::num_vars) is a claim that can be
    /// far larger, so per-variable tables are sized by this instead.
    pub fn used_var_bound(&self) -> usize {
        self.lits
            .iter()
            .map(|lit| lit.var().index() + 1)
            .max()
            .unwrap_or(0)
    }

    /// Number of *distinct* variables actually mentioned by some clause.
    ///
    /// Table 3 of the paper distinguishes declared variables (DIMACS
    /// header) from used variables; this returns the latter.
    pub fn num_used_vars(&self) -> usize {
        let mut used = vec![false; self.used_var_bound()];
        for lit in &self.lits {
            used[lit.var().index()] = true;
        }
        used.iter().filter(|&&u| u).count()
    }

    /// Builds the sub-formula consisting of the clauses whose IDs are in
    /// `ids`, preserving the variable space.
    ///
    /// Unknown IDs are ignored. This is how an extracted unsat core is
    /// turned back into a solvable instance (paper §4, Table 3).
    pub fn subformula(&self, ids: impl IntoIterator<Item = usize>) -> Cnf {
        let mut sub = Cnf::with_vars(self.num_vars);
        for id in ids {
            if let Some(c) = self.clause(id) {
                sub.lits.extend_from_slice(c);
                sub.ends.push(sub.lits.len());
            }
        }
        sub
    }

    /// Exhaustively decides satisfiability by trying all assignments.
    ///
    /// Only usable for tiny formulas (tests and cross-checking); cost is
    /// `O(2^num_vars · |F|)`.
    ///
    /// # Panics
    ///
    /// Panics if the formula has more than 24 variables.
    pub fn brute_force_status(&self) -> SatStatus {
        assert!(
            self.num_vars <= 24,
            "brute force is limited to 24 variables"
        );
        let n = self.num_vars;
        for bits in 0u64..(1u64 << n) {
            let mut a = Assignment::new(n);
            for i in 0..n {
                a.set(Var::new(i), LBool::from(bits >> i & 1 == 1));
            }
            if self.is_satisfied_by(&a) {
                return SatStatus::Satisfiable;
            }
        }
        SatStatus::Unsatisfiable
    }
}

impl FromIterator<Clause> for Cnf {
    fn from_iter<I: IntoIterator<Item = Clause>>(iter: I) -> Self {
        let mut cnf = Cnf::new();
        for clause in iter {
            cnf.push_clause(clause);
        }
        cnf
    }
}

impl Extend<Clause> for Cnf {
    fn extend<I: IntoIterator<Item = Clause>>(&mut self, iter: I) {
        for clause in iter {
            self.push_clause(clause);
        }
    }
}

impl fmt::Display for Cnf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "p cnf {} {}", self.num_vars, self.ends.len())?;
        for clause in self.clauses() {
            for lit in clause {
                write!(f, "{} ", lit.to_dimacs())?;
            }
            writeln!(f, "0")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_unsat() -> Cnf {
        // (x) (¬x ∨ y) (¬y)
        let mut cnf = Cnf::new();
        cnf.add_dimacs_clause(&[1]);
        cnf.add_dimacs_clause(&[-1, 2]);
        cnf.add_dimacs_clause(&[-2]);
        cnf
    }

    #[test]
    fn fresh_vars_are_sequential() {
        let mut cnf = Cnf::new();
        let a = cnf.fresh_var();
        let b = cnf.fresh_var();
        assert_eq!(a.index(), 0);
        assert_eq!(b.index(), 1);
        assert_eq!(cnf.fresh_vars(3).len(), 3);
        assert_eq!(cnf.num_vars(), 5);
    }

    #[test]
    fn add_clause_extends_vars_and_assigns_ids() {
        let mut cnf = Cnf::new();
        let id0 = cnf.add_dimacs_clause(&[1, -3]);
        let id1 = cnf.add_dimacs_clause(&[2]);
        assert_eq!(id0, 0);
        assert_eq!(id1, 1);
        assert_eq!(cnf.num_vars(), 3);
        assert_eq!(cnf.num_clauses(), 2);
        assert_eq!(cnf.num_literals(), 3);
        assert_eq!(cnf.clause(0).unwrap().len(), 2);
        assert!(cnf.clause(5).is_none());
    }

    #[test]
    fn evaluate_and_satisfaction() {
        let cnf = tiny_unsat();
        let mut a = Assignment::new(2);
        assert_eq!(cnf.evaluate(&a), LBool::Undef);
        a.assign(Lit::from_dimacs(1));
        a.assign(Lit::from_dimacs(2));
        assert_eq!(cnf.evaluate(&a), LBool::False);
        assert!(!cnf.is_satisfied_by(&a));
        assert_eq!(cnf.falsified_clauses(&a), vec![2]);
    }

    #[test]
    fn satisfied_formula() {
        let mut cnf = Cnf::new();
        cnf.add_dimacs_clause(&[1, 2]);
        cnf.add_dimacs_clause(&[-1, 2]);
        let a = Assignment::from_bools(&[false, true]);
        assert!(cnf.is_satisfied_by(&a));
        assert!(cnf.falsified_clauses(&a).is_empty());
    }

    #[test]
    fn empty_formula_is_satisfied_by_anything() {
        let cnf = Cnf::with_vars(3);
        assert!(cnf.is_satisfied_by(&Assignment::new(3)));
        assert!(cnf.is_empty());
    }

    #[test]
    fn has_empty_clause() {
        let mut cnf = Cnf::new();
        assert!(!cnf.has_empty_clause());
        cnf.push_clause(Clause::empty());
        assert!(cnf.has_empty_clause());
    }

    #[test]
    fn used_vars_vs_declared_vars() {
        let mut cnf = Cnf::with_vars(10);
        cnf.add_dimacs_clause(&[1, -3]);
        assert_eq!(cnf.num_vars(), 10);
        assert_eq!(cnf.num_used_vars(), 2);
    }

    #[test]
    fn subformula_selects_by_id() {
        let cnf = tiny_unsat();
        let sub = cnf.subformula([0, 2, 99]);
        assert_eq!(sub.num_clauses(), 2);
        assert_eq!(sub.num_vars(), cnf.num_vars());
        assert!(sub.clause(0).unwrap().contains(&Lit::from_dimacs(1)));
        assert!(sub.clause(1).unwrap().contains(&Lit::from_dimacs(-2)));
    }

    #[test]
    fn brute_force_agrees_on_tiny_instances() {
        assert_eq!(tiny_unsat().brute_force_status(), SatStatus::Unsatisfiable);
        let mut sat = Cnf::new();
        sat.add_dimacs_clause(&[1, 2]);
        sat.add_dimacs_clause(&[-1, -2]);
        assert_eq!(sat.brute_force_status(), SatStatus::Satisfiable);
    }

    #[test]
    fn collect_from_clauses() {
        let cnf: Cnf = vec![Clause::from_dimacs(&[1]), Clause::from_dimacs(&[-1, 2])]
            .into_iter()
            .collect();
        assert_eq!(cnf.num_clauses(), 2);
        assert_eq!(cnf.num_vars(), 2);
    }

    #[test]
    fn display_emits_dimacs() {
        let cnf = tiny_unsat();
        let text = cnf.to_string();
        assert!(text.starts_with("p cnf 2 3\n"));
        assert!(text.contains("-1 2 0\n"));
    }

    #[test]
    fn status_helpers() {
        assert!(SatStatus::Satisfiable.is_sat());
        assert!(!SatStatus::Satisfiable.is_unsat());
        assert_eq!(SatStatus::Unsatisfiable.to_string(), "UNSATISFIABLE");
    }
}
