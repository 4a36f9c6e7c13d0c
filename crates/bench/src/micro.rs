//! A minimal micro-benchmark harness.
//!
//! The workspace builds offline, so the `criterion` dependency is gone;
//! the `cargo bench` targets use this instead. It calibrates an
//! iteration count to a small wall-clock budget, reports min / median /
//! mean, and makes no statistical claims beyond that — good enough to
//! compare the ablations DESIGN.md cares about (ASCII vs binary, DF vs
//! BF, learning on/off) on one machine.

use std::time::{Duration, Instant};

/// Per-iteration budget, overridable via `RESCHECK_BENCH_MS`.
fn budget() -> Duration {
    let ms = std::env::var("RESCHECK_BENCH_MS")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(300);
    Duration::from_millis(ms.max(1))
}

/// Timing summary of one benchmark.
#[derive(Clone, Copy, Debug)]
pub struct Summary {
    /// Iterations measured.
    pub iters: u32,
    /// Fastest iteration.
    pub min: Duration,
    /// Median iteration.
    pub median: Duration,
    /// Mean iteration.
    pub mean: Duration,
}

/// Runs `f` repeatedly within the time budget and prints a summary line
/// (`name: median …  min …  mean …  (N iters)`).
pub fn bench(name: &str, mut f: impl FnMut()) -> Summary {
    let iters = calibrate(&mut f, 5);
    let samples = (0..iters).map(|_| time(&mut f)).collect();
    summarize(name, samples)
}

/// Runs `a` and `b` alternately, one iteration of each per pair, within
/// the time budget (at least 11 pairs), and prints both summary lines.
/// Returns both summaries and the median over the pairs of the ratio
/// `b / a`: alternating keeps a drifting host from landing on one side,
/// and the per-pair ratio compares iterations that ran side by side.
pub fn bench_pair(
    names: [&str; 2],
    mut a: impl FnMut(),
    mut b: impl FnMut(),
) -> (Summary, Summary, f64) {
    let pairs = calibrate(
        &mut || {
            a();
            b();
        },
        11,
    );
    let (mut times_a, mut times_b, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..pairs {
        let (ta, tb) = (time(&mut a), time(&mut b));
        ratios.push(tb.as_secs_f64() / ta.as_secs_f64().max(1e-12));
        times_a.push(ta);
        times_b.push(tb);
    }
    ratios.sort_unstable_by(f64::total_cmp);
    let ratio = ratios[ratios.len() / 2];
    (
        summarize(names[0], times_a),
        summarize(names[1], times_b),
        ratio,
    )
}

/// Warms up with one run of `f` and returns how many iterations fit the
/// time budget, at least `min`.
fn calibrate(f: &mut impl FnMut(), min: u32) -> u32 {
    let once = time(f).max(Duration::from_nanos(1));
    (budget().as_nanos() / once.as_nanos()).clamp(u128::from(min), 10_000) as u32
}

fn time(f: &mut impl FnMut()) -> Duration {
    let t = Instant::now();
    f();
    t.elapsed()
}

fn summarize(name: &str, mut samples: Vec<Duration>) -> Summary {
    samples.sort_unstable();
    let iters = samples.len() as u32;
    let min = samples[0];
    let median = samples[samples.len() / 2];
    let total: Duration = samples.iter().sum();
    let mean = total / iters;
    println!(
        "{name}: median {}s  min {}s  mean {}s  ({iters} iters)",
        crate::fmt_secs(median),
        crate::fmt_secs(min),
        crate::fmt_secs(mean),
    );
    Summary {
        iters,
        min,
        median,
        mean,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_reports_sane_numbers() {
        std::env::set_var("RESCHECK_BENCH_MS", "5");
        let mut n = 0u64;
        let s = bench("noop", || n = n.wrapping_add(1));
        assert!(s.iters >= 5);
        assert!(s.min <= s.median && s.median <= s.mean * 2);
    }

    #[test]
    fn bench_pair_alternates_and_reports_the_median_ratio() {
        std::env::set_var("RESCHECK_BENCH_MS", "5");
        let order = std::cell::RefCell::new(Vec::new());
        let (a, b, ratio) = bench_pair(
            ["a", "b"],
            || order.borrow_mut().push('a'),
            || {
                order.borrow_mut().push('b');
                std::thread::sleep(Duration::from_micros(200));
            },
        );
        assert_eq!((a.iters, b.iters), (b.iters, a.iters));
        assert!(a.iters >= 11);
        let order = order.into_inner();
        assert!(order.chunks(2).all(|pair| pair == ['a', 'b']), "{order:?}");
        assert!(ratio > 1.0, "{ratio}");
    }
}
