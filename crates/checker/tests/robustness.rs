//! Robustness: no input — however mangled — may panic the checker.
//! A validation tool that crashes on malformed evidence is useless, so
//! every strategy must return `Ok` or a structured `Err` on arbitrary
//! corruption of real traces and formulas. Mutations are drawn from the
//! in-house [`SplitMix64`] generator (seeded loops, reproducible from
//! the printed seed); `heavy-tests` raises the case count.

use rescheck_checker::agreement::ALL_STRATEGIES;
use rescheck_checker::{check_unsat_claim, proof_stats, trim_trace, CheckConfig, FailureKind};
use rescheck_cnf::{Cnf, Lit, SplitMix64, Var};
use rescheck_solver::{Solver, SolverConfig};
use rescheck_trace::{BinaryWriter, FileTrace, MemorySink, TraceEvent, TraceMap, TraceSink};

const CASES: u64 = if cfg!(feature = "heavy-tests") {
    512
} else {
    64
};

fn pigeonhole(holes: usize) -> Cnf {
    let pigeons = holes + 1;
    let mut cnf = Cnf::new();
    let lit = |p: usize, h: usize| Lit::positive(Var::new(p * holes + h));
    for p in 0..pigeons {
        cnf.add_clause((0..holes).map(|h| lit(p, h)));
    }
    for h in 0..holes {
        for p1 in 0..pigeons {
            for p2 in p1 + 1..pigeons {
                cnf.add_clause([!lit(p1, h), !lit(p2, h)]);
            }
        }
    }
    cnf
}

fn genuine() -> (Cnf, Vec<TraceEvent>) {
    let cnf = pigeonhole(4);
    let mut solver = Solver::from_cnf(&cnf, SolverConfig::default());
    let mut sink = MemorySink::new();
    assert!(solver.solve_traced(&mut sink).unwrap().is_unsat());
    (cnf, sink.into_events())
}

/// Applies one randomly chosen structured mutation to an event stream.
fn mutate(events: &mut Vec<TraceEvent>, rng: &mut SplitMix64) {
    if events.is_empty() {
        return;
    }
    let i = rng.range_usize(0..events.len());
    match rng.below(7) {
        // Drop an event.
        0 => {
            events.remove(i);
        }
        // Duplicate an event.
        1 => {
            let e = events[i].clone();
            events.insert(i, e);
        }
        // Swap two events.
        2 => {
            let j = rng.range_usize(0..events.len());
            events.swap(i, j);
        }
        // Perturb a clause / antecedent ID.
        3 => {
            let delta = rng.below(1_000_000);
            match &mut events[i] {
                TraceEvent::Learned { id, .. } | TraceEvent::FinalConflict { id } => {
                    *id = id.wrapping_add(delta);
                }
                TraceEvent::LevelZero { antecedent, .. } => {
                    *antecedent = antecedent.wrapping_add(delta);
                }
            }
        }
        // Perturb one source of a learned clause.
        4 => {
            let delta = rng.below(1_000_000);
            if let TraceEvent::Learned { sources, .. } = &mut events[i] {
                let j = rng.range_usize(0..sources.len());
                sources[j] = sources[j].wrapping_add(delta);
            }
        }
        // Flip a level-zero literal.
        5 => {
            if let TraceEvent::LevelZero { lit, .. } = &mut events[i] {
                *lit = !*lit;
            }
        }
        // Truncate a learned clause's source list.
        _ => {
            if let TraceEvent::Learned { sources, .. } = &mut events[i] {
                sources.truncate(2.max(sources.len() / 2));
            }
        }
    }
}

/// Apply a burst of structured mutations to a genuine trace: every
/// strategy, the trimmer and the analyzer must return without
/// panicking, and — crucially — if a checker still says `Ok`, the
/// formula really is unsatisfiable (it is PHP, so that is given; the
/// point is the no-panic and no-hang guarantee).
#[test]
fn mutated_traces_never_panic() {
    let (cnf, pristine) = genuine();
    for seed in 0..CASES {
        let mut rng = SplitMix64::new(seed);
        let mut events = pristine.clone();
        for _ in 0..rng.range_usize(1..6) {
            mutate(&mut events, &mut rng);
        }
        for strategy in ALL_STRATEGIES {
            let _ = check_unsat_claim(&cnf, &events, strategy, &CheckConfig::default());
        }
        let _ = trim_trace(&cnf, &events);
        let _ = proof_stats(&cnf, &events);
    }
}

/// Checking a genuine trace against mutated *formulas* (clauses
/// shuffled out, literals flipped) must never panic either.
#[test]
fn mutated_formulas_never_panic() {
    let (cnf, events) = genuine();
    for seed in 0..CASES {
        let mut rng = SplitMix64::new(seed);
        // Drop one clause.
        let mut ids: Vec<usize> = (0..cnf.num_clauses()).collect();
        ids.remove(rng.range_usize(0..ids.len()));
        let smaller = cnf.subformula(ids);
        for strategy in ALL_STRATEGIES {
            let _ = check_unsat_claim(&smaller, &events, strategy, &CheckConfig::default());
        }
        // Flip one literal of one clause.
        let mut mutated = Cnf::with_vars(cnf.num_vars());
        let target = rng.range_usize(0..cnf.num_clauses());
        for (i, clause) in cnf.iter() {
            let mut lits: Vec<Lit> = clause.to_vec();
            if i == target {
                lits[0] = !lits[0];
            }
            mutated.add_clause(lits);
        }
        for strategy in ALL_STRATEGIES {
            let _ = check_unsat_claim(&mutated, &events, strategy, &CheckConfig::default());
        }
        let _ = trim_trace(&mutated, &events);
    }
}

/// Crafted corruptions that must produce a structured `CheckError` from
/// *every* strategy — not an `Ok`, not a panic: bogus duplicated final
/// conflicts, self-referencing source lists and empty source lists.
#[test]
fn crafted_corruptions_are_rejected_by_every_strategy() {
    let (cnf, pristine) = genuine();
    let learned_positions: Vec<usize> = pristine
        .iter()
        .enumerate()
        .filter(|(_, e)| matches!(e, TraceEvent::Learned { .. }))
        .map(|(i, _)| i)
        .collect();
    assert!(!learned_positions.is_empty());

    for seed in 0..CASES {
        let mut rng = SplitMix64::new(0x5eed_0000 + seed);
        let mut events = pristine.clone();
        let case = rng.below(3);
        match case {
            // Duplicated final conflicts naming a clause that does not
            // exist, placed ahead of the genuine one.
            0 => {
                let bogus = 1_000_000 + rng.below(1_000_000);
                let copies = 2 + rng.range_usize(0..3);
                for _ in 0..copies {
                    let at = rng.range_usize(0..events.len());
                    events.insert(at, TraceEvent::FinalConflict { id: bogus });
                }
                events.insert(0, TraceEvent::FinalConflict { id: bogus });
            }
            // A learned clause listing itself as a resolve source, made
            // the derivation root so even the needed-clauses-only
            // strategies must walk into the cycle.
            1 => {
                let at = learned_positions[rng.range_usize(0..learned_positions.len())];
                let mut self_ref = 0;
                if let TraceEvent::Learned { id, sources } = &mut events[at] {
                    let k = rng.range_usize(0..sources.len());
                    sources[k] = *id;
                    self_ref = *id;
                }
                events.insert(0, TraceEvent::FinalConflict { id: self_ref });
            }
            // A learned clause with no sources at all.
            _ => {
                let at = learned_positions[rng.range_usize(0..learned_positions.len())];
                if let TraceEvent::Learned { sources, .. } = &mut events[at] {
                    sources.clear();
                }
            }
        }
        for strategy in ALL_STRATEGIES {
            let result = check_unsat_claim(&cnf, &events, strategy, &CheckConfig::default());
            assert!(
                result.is_err(),
                "seed {seed} case {case}: {strategy} accepted a corrupted trace"
            );
        }
    }
}

/// Binary traces cut off mid-varint (or mid-event) must surface as a
/// `CheckError` from every strategy.
#[test]
fn truncated_binary_traces_are_rejected_by_every_strategy() {
    let (cnf, events) = genuine();
    let mut encoded: Vec<u8> = Vec::new();
    {
        let mut writer = BinaryWriter::new(&mut encoded).unwrap();
        for e in &events {
            writer.event(e).unwrap();
        }
    }
    let cases: u64 = if cfg!(feature = "heavy-tests") {
        64
    } else {
        12
    };
    let dir = std::env::temp_dir();
    for seed in 0..cases {
        let mut rng = SplitMix64::new(0x7a11_0000 + seed);
        // Keep the magic header; drop at least one trailing byte.
        let cut = rng.range_usize(5..encoded.len());
        let path = dir.join(format!(
            "rescheck-robustness-{}-{seed}.rt",
            std::process::id()
        ));
        std::fs::write(&path, &encoded[..cut]).unwrap();
        let trace = FileTrace::open(&path).unwrap();
        for strategy in ALL_STRATEGIES {
            let result = check_unsat_claim(&cnf, &trace, strategy, &CheckConfig::default());
            assert!(
                result.is_err(),
                "seed {seed} cut {cut}: {strategy} accepted a truncated binary trace"
            );
        }
        std::fs::remove_file(&path).ok();
    }
}

/// A trace file cut short *after* it was opened must not end the
/// process: every strategy reading it from disk through a [`FileTrace`]
/// returns a verdict or a classified error. A [`TraceMap`] read before
/// the cut (the daemon's trace cache holds one) is a copy that outlives
/// it, so every strategy validates the whole proof from it.
#[test]
fn truncating_the_file_after_its_map_is_established_never_kills_a_check() {
    let cnf = pigeonhole(7);
    let mut solver = Solver::from_cnf(&cnf, SolverConfig::default());
    let mut encoded: Vec<u8> = Vec::new();
    {
        let mut writer = BinaryWriter::new(&mut encoded).unwrap();
        assert!(solver.solve_traced(&mut writer).unwrap().is_unsat());
    }
    assert!(encoded.len() > 4 * 4096, "the trace spans many pages");
    let dir = std::env::temp_dir();
    for strategy in ALL_STRATEGIES {
        let path = dir.join(format!(
            "rescheck-robustness-{}-cut-{strategy}.rtb",
            std::process::id()
        ));
        std::fs::write(&path, &encoded).unwrap();
        let trace = FileTrace::open(&path).unwrap();
        let map = TraceMap::open(&path).unwrap();
        std::fs::OpenOptions::new()
            .write(true)
            .open(&path)
            .unwrap()
            .set_len(4096)
            .unwrap();
        match check_unsat_claim(&cnf, &trace, strategy, &CheckConfig::default()) {
            Ok(_) => {}
            Err(e) => assert!(
                matches!(e.kind(), FailureKind::ProofDefect | FailureKind::Io),
                "{strategy}: unclassified failure {e}"
            ),
        }
        if let Err(e) = check_unsat_claim(&cnf, &map, strategy, &CheckConfig::default()) {
            panic!("{strategy}: the in-memory copy must outlive the cut: {e}");
        }
        std::fs::remove_file(&path).ok();
    }
}
