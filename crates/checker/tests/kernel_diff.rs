//! Differential tests for the literal-stamp resolution kernel against
//! the sorted-merge oracle ([`resolve_sorted`]), plus end-to-end
//! agreement of every checking strategy on the shared hot path.
//!
//! The kernel replaced the oracle inside every strategy; the oracle is
//! deliberately kept (unchanged two-pointer merge) precisely so these
//! tests can hold the fast path to the slow path's semantics — the
//! paper's own validation idea applied to the checker itself.

use rescheck_checker::{
    check_unsat_claim, normalize_literals, resolve_sorted, resolve_sorted_pivot, CheckConfig,
    CheckOutcome, ResolutionKernel, Strategy,
};
use rescheck_cnf::{Cnf, Lit, SplitMix64};
use rescheck_solver::{Solver, SolverConfig};
use rescheck_trace::{MemorySink, TraceSink};

const CASES: u64 = if cfg!(feature = "heavy-tests") {
    2048
} else {
    256
};

/// A random sorted, duplicate-free clause that may be empty and may be
/// tautological (contain both polarities of a variable).
fn random_clause(rng: &mut SplitMix64, max_vars: u32) -> Vec<Lit> {
    let len = rng.range_usize(0..6);
    normalize_literals((0..len).map(|_| {
        let v = rng.range_u32(1..max_vars + 1) as i64;
        Lit::from_dimacs(if rng.gen_bool(0.5) { v } else { -v })
    }))
}

/// Drives one random chain through both implementations and asserts
/// they agree on every observable: which step fails (if any), the exact
/// clashing-variable list of the failure, and the final resolvent.
///
/// Small variable ranges make zero-clash, multi-clash, tautological and
/// empty-clause steps all common rather than corner cases.
#[test]
fn kernel_matches_oracle_on_random_chains() {
    let mut kernel = ResolutionKernel::new();
    for seed in 0..CASES {
        let mut rng = SplitMix64::new(seed);
        let max_vars = rng.range_u32(2..7);
        let steps = rng.range_usize(1..10);
        let seed_clause = random_clause(&mut rng, max_vars);
        let antecedents: Vec<Vec<Lit>> = (0..steps)
            .map(|_| random_clause(&mut rng, max_vars))
            .collect();

        let mut acc = seed_clause.clone();
        kernel.begin(&seed_clause);
        let mut oracle_failed = false;
        for (step, ant) in antecedents.iter().enumerate() {
            let oracle = resolve_sorted(&acc, ant);
            let fast = kernel.fold(ant);
            match (oracle, fast) {
                (Ok(resolvent), Ok(pivot)) => {
                    // The oracle accepted, so exactly one variable
                    // clashed; the kernel must name that same variable.
                    assert!(
                        acc.contains(&Lit::from_code(pivot.index() << 1))
                            || acc.contains(&Lit::from_code(pivot.index() << 1 | 1)),
                        "seed {seed} step {step}: pivot {pivot:?} not in accumulator"
                    );
                    acc = resolvent;
                }
                (Err(slow_failure), Err(fast_failure)) => {
                    assert_eq!(
                        slow_failure.clashing_vars, fast_failure.clashing_vars,
                        "seed {seed} step {step}: failure diagnostics diverge"
                    );
                    oracle_failed = true;
                    break;
                }
                (oracle, fast) => panic!(
                    "seed {seed} step {step}: oracle {oracle:?} vs kernel {fast:?} disagree on validity"
                ),
            }
        }
        if !oracle_failed {
            assert_eq!(
                kernel.finish(),
                acc.as_slice(),
                "seed {seed}: final resolvents diverge"
            );
        }
    }
}

/// Crafted failure diagnostics: zero clashing variables, several
/// clashing variables, an empty antecedent, and the tautology cases
/// where a naive "negation present means clash" kernel would diverge
/// from the merge-pairing semantics of the oracle.
#[test]
fn kernel_failure_diagnostics_match_the_oracle_exactly() {
    let clause = |ds: &[i64]| normalize_literals(ds.iter().map(|&d| Lit::from_dimacs(d)));
    // (accumulator, antecedent) pairs covering each diagnostic shape.
    let cases: &[(&[i64], &[i64])] = &[
        (&[1, 2], &[3, 4]),          // zero clash, disjoint
        (&[1, 2], &[]),              // zero clash, empty antecedent
        (&[], &[1, 2]),              // zero clash, empty accumulator
        (&[1, 2], &[-1, -2]),        // double clash
        (&[1, 2, 3], &[-1, -2, -3]), // triple clash
        (&[1, -1], &[-1]),           // tautological accumulator: single clash
        (&[1, -1], &[1]),            // tautological accumulator: merge, no clash
        (&[1], &[1, -1]),            // tautological antecedent: single clash
        (&[-1], &[1, -1]),           // tautological antecedent, other polarity
        (&[1, -1], &[1, -1]),        // both tautological: both pair, no clash
        (&[1, -1, 2], &[-1, -2]),    // tautology plus a genuine second clash
    ];
    let mut kernel = ResolutionKernel::new();
    for (i, (acc, ant)) in cases.iter().enumerate() {
        let acc = clause(acc);
        let ant = clause(ant);
        let oracle = resolve_sorted(&acc, &ant);
        kernel.begin(&acc);
        match (oracle, kernel.fold(&ant)) {
            (Ok(resolvent), Ok(_)) => {
                assert_eq!(kernel.finish(), resolvent.as_slice(), "case {i}");
            }
            (Err(slow), Err(fast)) => {
                assert_eq!(slow.clashing_vars, fast.clashing_vars, "case {i}");
            }
            (oracle, fast) => panic!("case {i}: oracle {oracle:?} vs kernel {fast:?}"),
        }
    }
}

fn is_tautological(clause: &[Lit]) -> bool {
    clause.windows(2).any(|w| w[0].var() == w[1].var())
}

/// Steps a chain through the kernel and the oracle side by side: every
/// step's pivot, or its failure's `clashing_vars`, must agree, and so
/// must the resolvent of every prefix of the chain.
fn assert_stepwise(seed: &[Lit], ants: &[Vec<Lit>], label: &str) {
    let (mut kernel, mut prefix) = (ResolutionKernel::new(), ResolutionKernel::new());
    let mut acc = seed.to_vec();
    kernel.begin(seed);
    for (step, ant) in ants.iter().enumerate() {
        match (resolve_sorted_pivot(&acc, ant), kernel.fold(ant)) {
            (Ok((resolvent, pivot)), Ok(ours)) => {
                assert_eq!(ours, pivot, "{label}: pivot at step {step}");
                acc = resolvent;
            }
            (Err(slow), Err(fast)) => {
                assert_eq!(
                    slow.clashing_vars, fast.clashing_vars,
                    "{label}: failure at step {step}"
                );
                return;
            }
            (slow, fast) => panic!("{label}: step {step}: oracle {slow:?} vs kernel {fast:?}"),
        }
        prefix.begin(seed);
        for earlier in &ants[..=step] {
            prefix.fold(earlier).unwrap();
        }
        assert_eq!(
            prefix.finish(),
            acc.as_slice(),
            "{label}: resolvent after step {step}"
        );
    }
    assert_eq!(kernel.finish(), acc.as_slice(), "{label}: final resolvent");
}

/// A chain of up to `steps` antecedents that the oracle resolves step by
/// step, over variables 1..=10. Its first tautological clause is the seed
/// (`first_taut == 0`) or antecedent `first_taut` (1-based); later
/// antecedents are tautological at random.
fn chain_with_tautology(
    rng: &mut SplitMix64,
    steps: usize,
    first_taut: usize,
) -> (Vec<Lit>, Vec<Vec<Lit>>) {
    let lit = |rng: &mut SplitMix64| {
        let v = rng.range_u32(1..11) as i64;
        Lit::from_dimacs(if rng.gen_bool(0.5) { v } else { -v })
    };
    let pair = |rng: &mut SplitMix64| {
        let v = rng.range_u32(1..11) as i64;
        [Lit::from_dimacs(v), Lit::from_dimacs(-v)]
    };
    let seed = loop {
        let mut lits: Vec<Lit> = (0..rng.range_usize(2..5)).map(|_| lit(rng)).collect();
        if first_taut == 0 {
            lits.extend(pair(rng));
        }
        let seed = normalize_literals(lits);
        if is_tautological(&seed) == (first_taut == 0) {
            break seed;
        }
    };
    let mut acc = seed.clone();
    let mut ants = Vec::new();
    for i in 1..=steps {
        let found = (0..1000).find_map(|_| {
            let pivot = *acc.get(rng.range_usize(0..acc.len().max(1)))?;
            let mut lits = vec![!pivot];
            lits.extend((0..rng.range_usize(0..4)).map(|_| lit(rng)));
            if i == first_taut || (i > first_taut && rng.gen_bool(0.3)) {
                lits.extend(pair(rng));
            }
            let ant = normalize_literals(lits);
            let wanted = i < first_taut && is_tautological(&ant)
                || i == first_taut && !is_tautological(&ant);
            let resolvent = resolve_sorted(&acc, &ant).ok().filter(|_| !wanted)?;
            Some((ant, resolvent))
        });
        let Some((ant, resolvent)) = found else { break };
        ants.push(ant);
        acc = resolvent;
    }
    (seed, ants)
}

/// The kernel's two loops — literal stamps until a chain's first
/// tautological clause, exact pairing from there on — agree with the
/// oracle step by step, whether that clause is the seed, the first, a
/// middle or the last antecedent.
#[test]
fn tautological_clauses_anywhere_in_a_chain_match_the_oracle() {
    let mut reached = [0u64; 4];
    for case in 0..CASES {
        let mut rng = SplitMix64::new(0x7a07 + case);
        let steps = rng.range_usize(2..12);
        for (slot, first_taut) in [0, 1, steps / 2 + 1, steps].into_iter().enumerate() {
            let (seed, ants) = chain_with_tautology(&mut rng, steps, first_taut);
            let taut = |k: usize| {
                k.checked_sub(1)
                    .map_or(Some(&seed), |i| ants.get(i))
                    .is_some_and(|c| is_tautological(c))
            };
            reached[slot] += u64::from(taut(first_taut));
            assert_stepwise(
                &seed,
                &ants,
                &format!("case {case}, first tautology at {first_taut}"),
            );
        }
    }
    // The generator must actually place the tautology, not cut the
    // chain short before it.
    assert!(reached.iter().all(|&n| n > CASES / 2), "{reached:?}");
}

/// A chain that turns tautological at its seed and stays so for
/// dozens of folds: the exact loop carries the accumulator's
/// complementary pair through every step.
#[test]
fn chains_that_stay_tautological_match_the_oracle() {
    let d = Lit::from_dimacs;
    for case in 0..CASES / 4 {
        let mut rng = SplitMix64::new(0x5eed + case);
        // x20 ∨ ¬x20 rides along; each step resolves away the previous
        // pivot x(99 + i), deposits the next, and sometimes merges x20
        // again.
        let mut seed = vec![d(20), d(-20), d(100)];
        seed.extend((0..rng.range_usize(0..3)).map(|_| d(rng.range_u32(30..40) as i64)));
        let seed = normalize_literals(seed);
        let steps = 40 + rng.range_usize(0..20);
        let ants: Vec<Vec<Lit>> = (1..=steps as i64)
            .map(|i| {
                let mut lits = vec![d(-(99 + i)), d(100 + i)];
                if rng.gen_bool(0.3) {
                    lits.push(d(20));
                }
                if rng.gen_bool(0.3) {
                    lits.push(d(rng.range_u32(30..40) as i64));
                }
                normalize_literals(lits)
            })
            .collect();
        let mut acc = seed.clone();
        for ant in &ants {
            acc = resolve_sorted(&acc, ant).unwrap();
            assert!(
                is_tautological(&acc),
                "case {case}: the chain must stay tautological"
            );
        }
        assert_stepwise(&seed, &ants, &format!("case {case}"));
    }
}

/// An implication-chain instance whose trace every strategy accepts.
fn chain(n: i64) -> (Cnf, MemorySink) {
    let mut cnf = Cnf::new();
    cnf.add_dimacs_clause(&[1]);
    for i in 1..n {
        cnf.add_dimacs_clause(&[-i, i + 1]);
    }
    cnf.add_dimacs_clause(&[-n]);
    let mut sink = MemorySink::new();
    let mut prev = 0u64;
    for i in 1..n {
        let next_id = (n + i) as u64;
        sink.learned(next_id, &[prev, i as u64]).unwrap();
        prev = next_id;
    }
    sink.level_zero(Lit::from_dimacs(n), prev).unwrap();
    sink.final_conflict(n as u64).unwrap();
    (cnf, sink)
}

/// A solver-produced trace on a small hard formula.
fn solved(seed: u64) -> Option<(Cnf, MemorySink)> {
    let mut rng = SplitMix64::new(seed);
    let mut cnf = Cnf::with_vars(7);
    for _ in 0..40 {
        let len = rng.range_usize(1..4);
        let clause: Vec<i64> = (0..len)
            .map(|_| {
                let v = rng.range_u32(1..8) as i64;
                if rng.gen_bool(0.5) {
                    v
                } else {
                    -v
                }
            })
            .collect();
        cnf.add_dimacs_clause(&clause);
    }
    let mut solver = Solver::from_cnf(&cnf, SolverConfig::default());
    let mut sink = MemorySink::new();
    solver
        .solve_traced(&mut sink)
        .unwrap()
        .is_unsat()
        .then_some((cnf, sink))
}

/// Every strategy accepts the same traces with consistent counters on
/// the shared kernel/arena hot path: depth-first, its disk-backed
/// variant, the portfolio and hybrid verify the same needed subset, and
/// breadth-first builds every learned clause.
#[test]
fn every_strategy_agrees_end_to_end() {
    let mut fixtures: Vec<(Cnf, MemorySink)> = vec![chain(64), chain(300)];
    fixtures.extend((0..32).filter_map(solved).take(6));
    assert!(fixtures.len() > 2, "no solver fixture went UNSAT");

    for (f, (cnf, trace)) in fixtures.iter().enumerate() {
        let run = |strategy: Strategy| -> CheckOutcome {
            check_unsat_claim(cnf, trace, strategy, &CheckConfig::default())
                .unwrap_or_else(|e| panic!("fixture {f} {strategy}: {e:?}"))
        };
        let df = run(Strategy::DepthFirst);
        let bf = run(Strategy::BreadthFirst);
        let hybrid = run(Strategy::Hybrid);
        let portfolio = run(Strategy::Portfolio);
        let dfd = run(Strategy::DiskDepthFirst);

        // The disk-backed depth-first walk is the same traversal as the
        // in-memory one, and without a budget the portfolio never leaves
        // it: bit-identical work counters and the same core.
        for outcome in [&dfd, &portfolio] {
            assert_eq!(
                outcome.stats.clauses_built, df.stats.clauses_built,
                "fixture {f}"
            );
            assert_eq!(
                outcome.stats.resolutions, df.stats.resolutions,
                "fixture {f}"
            );
            assert_eq!(
                outcome.core.as_ref().map(|c| &c.clause_ids),
                df.core.as_ref().map(|c| &c.clause_ids),
                "fixture {f}"
            );
        }
        assert_eq!(
            portfolio.stats.peak_memory_bytes, dfd.stats.peak_memory_bytes,
            "fixture {f}"
        );

        // Everyone sees the same trace.
        for outcome in [&bf, &hybrid, &portfolio, &dfd] {
            assert_eq!(
                outcome.stats.learned_in_trace, df.stats.learned_in_trace,
                "fixture {f}"
            );
        }
        // DF and hybrid build exactly the needed subset.
        assert_eq!(
            df.stats.clauses_built, hybrid.stats.clauses_built,
            "fixture {f}"
        );
        assert_eq!(
            df.stats.resolutions, hybrid.stats.resolutions,
            "fixture {f}"
        );
        // BF builds every learned clause.
        assert_eq!(
            bf.stats.clauses_built, bf.stats.learned_in_trace,
            "fixture {f}"
        );
    }
}

/// The allocation-free claim, observed through the kernel's own scratch
/// accounting: once warmed up on the largest chain shape, further
/// chains trigger zero scratch growth — every begin/fold/finish cycle
/// runs entirely in reused buffers.
#[test]
fn kernel_scratch_stops_growing_in_steady_state() {
    let mut kernel = ResolutionKernel::new();
    let mut rng = SplitMix64::new(7);
    let mut chains = |kernel: &mut ResolutionKernel| {
        for _ in 0..50 {
            let seed_clause = random_clause(&mut rng, 30);
            kernel.begin(&seed_clause);
            for _ in 0..rng.range_usize(1..12) {
                let _ = kernel.fold(&random_clause(&mut rng, 30));
            }
            let _ = kernel.finish();
        }
    };
    chains(&mut kernel); // warm-up: scratch grows to the working-set size
    let warmed = kernel.stats();
    chains(&mut kernel); // steady state: identical shapes, zero growth
    let after = kernel.stats();
    assert_eq!(after.scratch_grows, warmed.scratch_grows, "scratch grew");
    assert_eq!(
        after.scratch_high_water, warmed.scratch_high_water,
        "high-water moved"
    );
    assert_eq!(after.chains, warmed.chains + 50);
    assert!(after.literals_folded > warmed.literals_folded);
}
