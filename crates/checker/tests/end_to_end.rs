//! End-to-end validation: solve → trace → check, both strategies, over a
//! spread of instance families and solver configurations.

use rescheck_checker::agreement::ALL_STRATEGIES;
use rescheck_checker::{check_sat_claim, check_unsat_claim, minimize_core, CheckConfig, Strategy};
use rescheck_cnf::{Cnf, Lit, Var};
use rescheck_solver::{SolveResult, Solver, SolverConfig};
use rescheck_trace::{
    AsciiWriter, BinaryWriter, FileTrace, MemorySink, TraceMap, TraceSink, TraceSource,
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

/// XOR chain x1 ⊕ x2, x2 ⊕ x3, …, plus x1 = xn forced unequal — UNSAT for
/// odd-length cycles. Encoded directly in CNF.
fn xor_cycle(n: usize) -> Cnf {
    assert!(n >= 3 && n % 2 == 1);
    let mut cnf = Cnf::new();
    let v: Vec<Var> = (0..n).map(Var::new).collect();
    for i in 0..n {
        let a = v[i];
        let b = v[(i + 1) % n];
        // a XOR b = 1:  (a ∨ b)(¬a ∨ ¬b)
        cnf.add_clause([a.positive(), b.positive()]);
        cnf.add_clause([a.negative(), b.negative()]);
    }
    cnf
}

fn solve_and_check_both(cnf: &Cnf, cfg: SolverConfig) {
    let mut solver = Solver::from_cnf(cnf, cfg);
    let mut trace = MemorySink::new();
    let result = solver.solve_traced(&mut trace).expect("memory sink");
    match result {
        SolveResult::Satisfiable(model) => {
            check_sat_claim(cnf, &model).expect("claimed model must satisfy");
        }
        SolveResult::Unsatisfiable => {
            for strategy in [
                Strategy::DepthFirst,
                Strategy::BreadthFirst,
                Strategy::Hybrid,
            ] {
                let outcome = check_unsat_claim(cnf, &trace, strategy, &CheckConfig::default())
                    .unwrap_or_else(|e| panic!("{strategy} check failed: {e}"));
                assert_eq!(
                    outcome.stats.learned_in_trace,
                    solver.stats().learned_clauses
                );
                if strategy == Strategy::BreadthFirst {
                    assert_eq!(outcome.stats.clauses_built, outcome.stats.learned_in_trace);
                } else {
                    assert!(outcome.stats.clauses_built <= outcome.stats.learned_in_trace);
                    assert!(outcome.core.is_some(), "{strategy} yields a core");
                }
            }
        }
        SolveResult::Unknown => panic!("no budget was configured"),
    }
}

#[test]
fn pigeonhole_family_checks() {
    for holes in 1..=6 {
        solve_and_check_both(&pigeonhole(holes), SolverConfig::default());
    }
}

#[test]
fn xor_cycles_check() {
    for n in [3, 5, 7, 9, 11] {
        solve_and_check_both(&xor_cycle(n), SolverConfig::default());
    }
}

#[test]
fn ablation_configs_produce_checkable_traces() {
    let cnf = pigeonhole(5);
    for cfg in [
        SolverConfig::without_learning(),
        SolverConfig::without_deletion(),
        SolverConfig::without_restarts(),
        SolverConfig {
            reduce_db_interval: 5,
            reduce_db_increment: 0,
            ..SolverConfig::default()
        },
        SolverConfig {
            random_decision_freq: 0.2,
            seed: 7,
            ..SolverConfig::default()
        },
        SolverConfig {
            phase_saving: false,
            default_phase: true,
            ..SolverConfig::default()
        },
        SolverConfig::without_minimization(),
    ] {
        solve_and_check_both(&cnf, cfg);
    }
}

#[test]
fn minimized_traces_check_and_shrink_clauses() {
    // Minimization adds resolve sources; the checker must accept the
    // richer chains, and the learned clauses must actually get shorter.
    let cnf = pigeonhole(6);
    let run = |cfg: SolverConfig| {
        let mut solver = Solver::from_cnf(&cnf, cfg);
        let mut trace = MemorySink::new();
        assert!(solver.solve_traced(&mut trace).unwrap().is_unsat());
        for strategy in [Strategy::DepthFirst, Strategy::BreadthFirst] {
            check_unsat_claim(&cnf, &trace, strategy, &CheckConfig::default())
                .unwrap_or_else(|e| panic!("{strategy}: {e}"));
        }
        solver.stats().avg_learned_len()
    };
    let with = run(SolverConfig::default());
    let without = run(SolverConfig::without_minimization());
    assert!(
        with < without,
        "minimization should shorten clauses: {with:.2} vs {without:.2}"
    );
}

#[test]
fn random_unsat_instances_check_under_both_strategies() {
    // Deterministic generator; keep instances small but non-trivial and
    // verify UNSAT instances check (SAT ones verify their model).
    let mut state = 0x0bad_5eedu64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut unsat_seen = 0;
    for _ in 0..120 {
        let num_vars = 4 + (next() % 8) as usize;
        let num_clauses = (4.3 * num_vars as f64) as usize + (next() % 10) as usize;
        let mut cnf = Cnf::with_vars(num_vars);
        for _ in 0..num_clauses {
            let len = 2 + (next() % 2) as usize;
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
        let mut probe = Solver::from_cnf(&cnf, SolverConfig::default());
        if probe.solve().is_unsat() {
            unsat_seen += 1;
        }
        solve_and_check_both(&cnf, SolverConfig::default());
    }
    assert!(unsat_seen > 10, "generator should produce UNSAT instances");
}

#[test]
fn traces_check_through_ascii_and_binary_files() {
    let cnf = pigeonhole(5);
    let dir = std::env::temp_dir().join("rescheck-e2e");
    std::fs::create_dir_all(&dir).unwrap();

    // ASCII file trace.
    let ascii_path = dir.join("php5.trace");
    {
        let file = std::fs::File::create(&ascii_path).unwrap();
        let mut writer = AsciiWriter::new(std::io::BufWriter::new(file));
        let mut solver = Solver::from_cnf(&cnf, SolverConfig::default());
        assert!(solver.solve_traced(&mut writer).unwrap().is_unsat());
        writer.flush().unwrap();
    }
    // Binary file trace (same solve, deterministic).
    let bin_path = dir.join("php5.rtb");
    {
        let file = std::fs::File::create(&bin_path).unwrap();
        let mut writer = BinaryWriter::new(std::io::BufWriter::new(file)).unwrap();
        let mut solver = Solver::from_cnf(&cnf, SolverConfig::default());
        assert!(solver.solve_traced(&mut writer).unwrap().is_unsat());
        writer.flush().unwrap();
    }

    let ascii_trace = FileTrace::open(&ascii_path).unwrap();
    let bin_trace = FileTrace::open(&bin_path).unwrap();

    // Both encodings decode to the identical event stream…
    let a = rescheck_trace::collect_events(&ascii_trace).unwrap();
    let b = rescheck_trace::collect_events(&bin_trace).unwrap();
    assert_eq!(a, b);
    // …the binary one is smaller (paper §4 predicts 2–3x)…
    assert!(bin_trace.encoded_size().unwrap() * 2 < ascii_trace.encoded_size().unwrap() * 3);

    // …and both check under both strategies.
    for strategy in [Strategy::DepthFirst, Strategy::BreadthFirst] {
        check_unsat_claim(&cnf, &ascii_trace, strategy, &CheckConfig::default()).unwrap();
        check_unsat_claim(&cnf, &bin_trace, strategy, &CheckConfig::default()).unwrap();
    }

    std::fs::remove_file(&ascii_path).ok();
    std::fs::remove_file(&bin_path).ok();
}

#[test]
fn core_extraction_shrinks_padded_instances() {
    // PHP(4,3) buried in irrelevant clauses: the core finds the real
    // contradiction (the paper's planning/routing observation, Table 3).
    let mut cnf = pigeonhole(3);
    let base = cnf.num_vars();
    for i in 0..40 {
        let a = Var::new(base + 2 * i);
        let b = Var::new(base + 2 * i + 1);
        cnf.add_clause([a.positive(), b.positive()]);
        cnf.add_clause([a.negative(), b.positive()]);
    }
    let total = cnf.num_clauses();
    let result = minimize_core(&cnf, &SolverConfig::default(), 30).unwrap();
    assert!(result.core_ids.len() < total);
    // Core is still UNSAT.
    let sub = cnf.subformula(result.core_ids.iter().copied());
    let mut solver = Solver::from_cnf(&sub, SolverConfig::default());
    assert!(solver.solve().is_unsat());
}

#[test]
fn depth_first_memory_out_vs_breadth_first_survival() {
    // Reproduce Table 2's qualitative behaviour: under a tight memory
    // budget the depth-first checker can fail while breadth-first
    // finishes the same trace.
    let cnf = pigeonhole(6);
    let mut solver = Solver::from_cnf(&cnf, SolverConfig::default());
    let mut trace = MemorySink::new();
    assert!(solver.solve_traced(&mut trace).unwrap().is_unsat());

    // Find the BF peak, then set the budget between BF and DF peaks.
    let bf = check_unsat_claim(
        &cnf,
        &trace,
        Strategy::BreadthFirst,
        &CheckConfig::default(),
    )
    .unwrap();
    let df =
        check_unsat_claim(&cnf, &trace, Strategy::DepthFirst, &CheckConfig::default()).unwrap();
    assert!(
        bf.stats.peak_memory_bytes < df.stats.peak_memory_bytes,
        "bf {} < df {}",
        bf.stats.peak_memory_bytes,
        df.stats.peak_memory_bytes
    );

    let budget = (bf.stats.peak_memory_bytes + df.stats.peak_memory_bytes) / 2;
    let config = CheckConfig {
        memory_limit: Some(budget),
        ..CheckConfig::default()
    };
    assert!(check_unsat_claim(&cnf, &trace, Strategy::DepthFirst, &config).is_err());
    assert!(check_unsat_claim(&cnf, &trace, Strategy::BreadthFirst, &config).is_ok());
}

#[test]
fn df_core_checks_out_as_unsat_on_xor_cycles() {
    let cnf = xor_cycle(9);
    let mut solver = Solver::from_cnf(&cnf, SolverConfig::default());
    let mut trace = MemorySink::new();
    assert!(solver.solve_traced(&mut trace).unwrap().is_unsat());
    let outcome =
        check_unsat_claim(&cnf, &trace, Strategy::DepthFirst, &CheckConfig::default()).unwrap();
    let core = outcome.core.unwrap();
    // XOR cycles need every clause: the core should be (nearly) everything.
    let sub = core.to_subformula(&cnf);
    let mut sub_solver = Solver::from_cnf(&sub, SolverConfig::default());
    assert!(sub_solver.solve().is_unsat());
}

/// Checks of a binary trace file report bit-identical stats, peak
/// included, under every strategy, for any `jobs` value (which no
/// strategy reads) and whether the file is read from disk or from its
/// in-memory [`TraceMap`] copy: no strategy charges a copy of the trace.
#[test]
fn map_checks_are_bit_identical_across_jobs() {
    let cnf = pigeonhole(5);
    let dir = std::env::temp_dir().join("rescheck-e2e");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("php5-map-{}.rtb", std::process::id()));
    {
        let file = std::fs::File::create(&path).unwrap();
        let mut writer = BinaryWriter::new(std::io::BufWriter::new(file)).unwrap();
        let mut solver = Solver::from_cnf(&cnf, SolverConfig::default());
        assert!(solver.solve_traced(&mut writer).unwrap().is_unsat());
        writer.flush().unwrap();
    }

    for strategy in ALL_STRATEGIES {
        let mut across_jobs: Option<(u64, u64, u64, u64)> = None;
        let file = FileTrace::open(&path).unwrap();
        let map = TraceMap::open(&path).unwrap();
        for jobs in [1, 2, 4] {
            let config = CheckConfig {
                jobs,
                ..CheckConfig::default()
            };
            let sources: [(&str, &dyn TraceSource); 2] = [("file", &file), ("map", &map)];
            for (source, trace) in sources {
                let outcome = check_unsat_claim(&cnf, trace, strategy, &config)
                    .unwrap_or_else(|e| panic!("{strategy} jobs={jobs} {source}: {e}"));
                let key = (
                    outcome.stats.learned_in_trace,
                    outcome.stats.clauses_built,
                    outcome.stats.resolutions,
                    outcome.stats.peak_memory_bytes,
                );
                if let Some(prev) = across_jobs {
                    assert_eq!(prev, key, "{strategy} jobs={jobs} {source}: stats differ");
                }
                across_jobs = Some(key);
            }
        }
    }
    std::fs::remove_file(&path).ok();
}
