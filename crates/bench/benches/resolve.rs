//! Micro-benchmark for the resolution hot path: the mark-array
//! [`ResolutionKernel`] against the sorted-merge oracle
//! ([`resolve_sorted`]) on synthetic resolution chains.
//!
//! Four rows stress what separates the two: each antecedent resolves
//! away one pivot and deposits `width` fresh literals, so the
//! accumulator grows linearly with chain length. The sorted-merge fold
//! re-materializes the whole accumulator every step — O(k·|acc|) total
//! work — while the kernel touches each antecedent literal once and
//! materializes the resolvent once, O(L) total.
//!
//! The fifth row is shaped like a real trace instead, and so measures
//! the kernel's per-literal cost: a `7pipe` chain averages 85 sources of
//! about 4 literals, most of them clashing or merging, into a resolvent
//! of about 60 literals over a large variable space.
//!
//! With `--json <path>` a `rescheck-metrics-v2` document is written with
//! one row per scenario (its medians time all of the scenario's chains)
//! plus the kernel/oracle speedup and the core count, for the CI
//! bench-smoke job (which checks shape, never timing).

use rescheck_bench::micro::bench;
use rescheck_bench::report::{take_json_flag, write_json};
use rescheck_checker::{normalize_literals, resolve_sorted, ResolutionKernel};
use rescheck_cnf::{Lit, SplitMix64, Var};
use rescheck_obs::{Json, SCHEMA};
use std::path::Path;

/// One synthetic chain: a seed clause and `antecedents` sorted clauses,
/// each clashing with the accumulator on exactly one pivot variable.
struct Chain {
    name: String,
    antecedents: usize,
    width: usize,
    seed: Vec<Lit>,
    ants: Vec<Vec<Lit>>,
}

/// Builds a chain of `k` antecedents of `width + 2` literals each.
///
/// Pivot variables are 1..=k; antecedent `i` is
/// `(¬p_i ∨ p_{i+1} ∨ f_1 … f_width)` with globally fresh `f_j`, so the
/// accumulator keeps every deposited literal and ends `k·width + 1`
/// literals wide. `stride` spaces the fresh variables apart: at 1 the
/// mark store stays cache-resident; large strides model big-instance
/// variable spaces where every probe is a potential miss.
fn make_chain(k: usize, width: usize, stride: i64) -> Chain {
    let pivot = |i: usize| Lit::from_dimacs(i as i64);
    let mut next_fresh = k as i64 + 1;
    let seed = normalize_literals(vec![pivot(1)]);
    let mut ants = Vec::with_capacity(k);
    for i in 1..=k {
        let mut lits = vec![!pivot(i)];
        if i < k {
            lits.push(pivot(i + 1));
        }
        for _ in 0..width {
            lits.push(Lit::from_dimacs(next_fresh));
            next_fresh += stride;
        }
        ants.push(normalize_literals(lits));
    }
    Chain {
        name: if stride == 1 {
            format!("chain{k}x{width}")
        } else {
            format!("chain{k}x{width}s{stride}")
        },
        antecedents: k,
        width,
        seed,
        ants,
    }
}

/// A chain shaped like a real trace's: a 60-literal seed, then `k`
/// antecedents of 4 literals — one clash, two merges and one fresh
/// literal each — so the accumulator stays 60 literals wide, over
/// variables scattered across 20,000. `seed` picks the chain; the row
/// cycles through many, as a check does, so no branch pattern repeats
/// from one chain to the next.
fn make_trace_shaped(k: usize, seed: u64) -> Chain {
    let mut rng = SplitMix64::new(seed);
    let mut used = vec![false; 20_000];
    let mut fresh = |rng: &mut SplitMix64| loop {
        let v = rng.range_usize(1..used.len());
        if !used[v] {
            used[v] = true;
            return Var::new(v).lit(rng.gen_bool(0.5));
        }
    };
    let seed: Vec<Lit> = (0..60).map(|_| fresh(&mut rng)).collect();
    let mut acc = seed.clone();
    let mut ants = Vec::with_capacity(k);
    for _ in 0..k {
        let pivot = acc.swap_remove(rng.range_usize(0..acc.len()));
        let deposit = fresh(&mut rng);
        let mut lits = vec![!pivot, deposit];
        while lits.len() < 4 {
            let merge = acc[rng.range_usize(0..acc.len())];
            if !lits.contains(&merge) {
                lits.push(merge);
            }
        }
        acc.push(deposit);
        ants.push(normalize_literals(lits));
    }
    Chain {
        name: format!("trace{k}x4"),
        antecedents: k,
        width: 4,
        seed: normalize_literals(seed),
        ants,
    }
}

fn run_oracle(chain: &Chain) -> Vec<Lit> {
    let mut acc = chain.seed.clone();
    for ant in &chain.ants {
        acc = resolve_sorted(&acc, ant).expect("chain resolves");
    }
    acc
}

fn run_kernel(kernel: &mut ResolutionKernel, chain: &Chain) -> usize {
    kernel.begin(&chain.seed);
    for ant in &chain.ants {
        kernel.fold(ant).expect("chain resolves");
    }
    kernel.finish().len()
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let json_path = take_json_flag(&mut args);

    // Long chains with narrow and wide clauses: the acceptance scenario
    // (≥ 64 antecedents) plus a longer and a wider variant, a
    // scattered-variable variant whose stamp store exceeds the fast
    // caches, and 256 distinct trace-shaped chains timed together.
    let scenarios: [Vec<Chain>; 5] = [
        vec![make_chain(64, 8, 1)],
        vec![make_chain(256, 8, 1)],
        vec![make_chain(64, 32, 1)],
        vec![make_chain(256, 8, 512)],
        (0..256).map(|seed| make_trace_shaped(85, seed)).collect(),
    ];
    let mut rows: Vec<Json> = Vec::new();
    let mut kernel = ResolutionKernel::new();

    for chains in &scenarios {
        // Sanity: both paths agree before anything is timed.
        let expected: Vec<Vec<Lit>> = chains.iter().map(run_oracle).collect();
        for (chain, want) in chains.iter().zip(&expected) {
            kernel.begin(&chain.seed);
            for ant in &chain.ants {
                kernel.fold(ant).expect("chain resolves");
            }
            assert_eq!(kernel.finish(), want.as_slice(), "{}", chain.name);
        }

        let name = &chains[0].name;
        let oracle = bench(&format!("resolve/oracle/{name}"), || {
            for chain in chains {
                std::hint::black_box(run_oracle(chain));
            }
        });
        let kernel_summary = bench(&format!("resolve/kernel/{name}"), || {
            for chain in chains {
                std::hint::black_box(run_kernel(&mut kernel, chain));
            }
        });
        let speedup = oracle.median.as_secs_f64() / kernel_summary.median.as_secs_f64().max(1e-12);
        println!("resolve/speedup/{name}: {speedup:.2}x");

        let mut row = Json::object();
        row.set("name", name.as_str())
            .set("chains", chains.len())
            .set("antecedents", chains[0].antecedents)
            .set("width", chains[0].width)
            .set("resolvent_len", expected[0].len())
            .set("oracle_median_seconds", oracle.median.as_secs_f64())
            .set("kernel_median_seconds", kernel_summary.median.as_secs_f64())
            .set("speedup", speedup);
        rows.push(row);
    }

    if let Some(path) = json_path {
        let mut doc = Json::object();
        doc.set("schema", SCHEMA)
            .set("command", "bench:resolve")
            .set(
                "available_parallelism",
                std::thread::available_parallelism()
                    .map(|n| n.get() as u64)
                    .unwrap_or(1),
            )
            .set("rows", Json::Array(rows));
        write_json(Path::new(&path), &doc).expect("write json");
        println!("wrote {path}");
    }
}
