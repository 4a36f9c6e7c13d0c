//! Micro-benchmark for the resolution hot path: the mark-array
//! [`ResolutionKernel`] against the sorted-merge oracle
//! ([`resolve_sorted`]) on synthetic resolution chains.
//!
//! The chain shape stresses exactly what separates the two: each
//! antecedent resolves away one pivot and deposits `width` fresh
//! literals, so the accumulator grows linearly with chain length. The
//! sorted-merge fold re-materializes the whole accumulator every step —
//! O(k·|acc|) total work — while the kernel touches each antecedent
//! literal once and materializes the resolvent once, O(L) total.
//!
//! With `--json <path>` a `rescheck-metrics-v2` document is written with
//! one row per scenario plus the kernel/oracle speedup, for the CI
//! bench-smoke job (which checks shape, never timing).

use rescheck_bench::micro::bench;
use rescheck_bench::report::{take_json_flag, write_json, SCHEMA};
use rescheck_checker::{normalize_literals, resolve_sorted, ResolutionKernel};
use rescheck_cnf::Lit;
use rescheck_obs::Json;
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
    // (≥ 64 antecedents) plus a longer and a wider variant, and a
    // scattered-variable variant whose mark store exceeds the fast
    // caches.
    let scenarios = [
        (64usize, 8usize, 1i64),
        (256, 8, 1),
        (64, 32, 1),
        (256, 8, 512),
    ];
    let mut rows: Vec<Json> = Vec::new();
    let mut kernel = ResolutionKernel::new();

    for (k, width, stride) in scenarios {
        let chain = make_chain(k, width, stride);
        // Sanity: both paths agree before anything is timed.
        let expected = run_oracle(&chain);
        kernel.begin(&chain.seed);
        for ant in &chain.ants {
            kernel.fold(ant).expect("chain resolves");
        }
        assert_eq!(kernel.finish(), expected.as_slice(), "{}", chain.name);

        let oracle = bench(&format!("resolve/oracle/{}", chain.name), || {
            std::hint::black_box(run_oracle(&chain));
        });
        let kernel_summary = bench(&format!("resolve/kernel/{}", chain.name), || {
            std::hint::black_box(run_kernel(&mut kernel, &chain));
        });
        let speedup = oracle.median.as_secs_f64() / kernel_summary.median.as_secs_f64().max(1e-12);
        println!("resolve/speedup/{}: {speedup:.2}x", chain.name);

        let mut row = Json::object();
        row.set("name", chain.name.as_str())
            .set("antecedents", chain.antecedents)
            .set("width", chain.width)
            .set("resolvent_len", expected.len())
            .set("oracle_median_seconds", oracle.median.as_secs_f64())
            .set("kernel_median_seconds", kernel_summary.median.as_secs_f64())
            .set("speedup", speedup);
        rows.push(row);
    }

    if let Some(path) = json_path {
        let mut doc = Json::object();
        doc.set("schema", SCHEMA)
            .set("command", "bench:resolve")
            .set("rows", Json::Array(rows));
        write_json(Path::new(&path), &doc).expect("write json");
        println!("wrote {path}");
    }
}
