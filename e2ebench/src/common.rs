//! Pieces every workload shares: run parameters, the verdict gate,
//! layer accumulators, the timed loop and input preparation.

use crate::host::median;
use rescheck_checker::CheckStats;
use rescheck_cnf::{dimacs, SplitMix64};
use rescheck_obs::Json;
use rescheck_solver::{SolveResult, Solver, SolverConfig};
use rescheck_trace::{BinaryWriter, MemorySink, NullSink, TraceEvent, TraceSink};
use rescheck_workloads::Instance;
use std::collections::BTreeMap;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Input sizes: the real workloads, or `quick_suite`-sized stand-ins
/// for the self-test.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Scale {
    Full,
    Quick,
}

pub struct Params {
    pub seed: u64,
    /// Length of the untraced timed phase.
    pub seconds: f64,
    /// Also run the traced pass and report per-layer metrics.
    pub traced: bool,
    pub scale: Scale,
    /// `jobs` for the strategies that take it: 2, capped at the cores.
    pub jobs: usize,
    /// Where generated inputs are written; removed afterwards.
    pub workdir: PathBuf,
}

impl Params {
    /// Solver settings for every solve. At `random_decision_freq` 0 the
    /// solver never draws from its seed, so traces depend only on the
    /// instance: heavy claims stay the same size across workload seeds.
    pub fn solver_config(&self) -> SolverConfig {
        SolverConfig {
            seed: self.seed,
            ..SolverConfig::default()
        }
    }

    pub fn path(&self, name: &str) -> PathBuf {
        self.workdir.join(name)
    }
}

/// Table 2 rows with 6k–77k learned clauses: the `oneshot-heavy` rows,
/// and too heavy for a regression farm's per-commit traffic.
pub const HEAVY_ROWS: [&str; 4] = ["longmult", "6pipe_6_ooo", "6pipe", "7pipe"];

/// End-to-end metrics by name (`None` = unmeasured).
pub type EndToEnd = BTreeMap<&'static str, Option<f64>>;

pub fn end_to_end(
    setup_s: f64,
    peak_rss_mb: Option<f64>,
    claims_per_s: f64,
    learned_per_s: f64,
    p50_ms: Option<f64>,
) -> EndToEnd {
    BTreeMap::from([
        ("setup_s", Some(setup_s)),
        ("peak_rss_mb", peak_rss_mb),
        ("claims_per_s", Some(claims_per_s)),
        ("learned_per_s", Some(learned_per_s)),
        ("verdict_ms.p50", p50_ms),
    ])
}

/// What a workload run produced.
pub struct Outcome {
    pub gate: Gate,
    /// End-to-end metrics of the untraced phase.
    pub e2e: EndToEnd,
    /// Per-layer metrics of the traced pass (empty when untraced).
    pub layers: Layers,
    /// Workload detail for the record line.
    pub record: Json,
}

/// Compares every verdict and work counter with what is known without
/// the checker.
#[derive(Default)]
pub struct Gate {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Gate {
    /// One claim, judged against its known answer.
    pub fn claim(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    /// A work-counter invariant; a break counts as one more failure.
    pub fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.fail(what());
        }
    }

    fn fail(&mut self, note: String) {
        self.failed += 1;
        if self.notes.len() < 16 {
            self.notes.push(note);
        }
    }

    /// Failures, never more than the claims attempted.
    pub fn failures(&self) -> u64 {
        self.failed.min(self.attempted)
    }
}

/// Accumulated per-layer values, by metric name.
#[derive(Default)]
pub struct Layers(pub BTreeMap<String, f64>);

impl Layers {
    pub fn add(&mut self, name: &str, value: f64) {
        *self.0.entry(name.to_string()).or_default() += value;
    }

    pub fn max(&mut self, name: &str, value: f64) {
        let slot = self.0.entry(name.to_string()).or_default();
        *slot = slot.max(value);
    }

    pub fn set(&mut self, name: &str, value: f64) {
        self.0.insert(name.to_string(), value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// `num / den`, or 0 when nothing was counted.
    pub fn ratio(&mut self, name: &str, num: f64, den: f64) {
        self.set(name, if den > 0.0 { num / den } else { 0.0 });
    }
}

/// Exact work counters of one check.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Work {
    pub built: u64,
    pub resolutions: u64,
    pub peak: u64,
}

impl From<&CheckStats> for Work {
    fn from(stats: &CheckStats) -> Work {
        Work {
            built: stats.clauses_built,
            resolutions: stats.resolutions,
            peak: stats.peak_memory_bytes,
        }
    }
}

/// First-seen work counters per claim key; every later check of the
/// same key (another repetition, the traced pass, another job count)
/// must match them exactly.
#[derive(Default)]
pub struct WorkLedger(pub BTreeMap<String, Work>);

impl WorkLedger {
    pub fn record(&mut self, gate: &mut Gate, key: &str, work: Work) {
        match self.0.get(key) {
            Some(first) => gate.expect(*first == work, || {
                format!("{key}: work counters {work:?} differ from {first:?}")
            }),
            None => {
                self.0.insert(key.to_string(), work);
            }
        }
    }
}

/// Wall times of a fixed set of claims, each timed one or more times.
pub struct Sampled {
    pub walls: Vec<Vec<f64>>,
    pub learned: Vec<u64>,
}

impl Sampled {
    pub fn new(claims: usize) -> Sampled {
        Sampled {
            walls: vec![Vec::new(); claims],
            learned: vec![0; claims],
        }
    }

    /// Each claim's best wall time over its repetitions. The work of a
    /// repetition is identical, and interference from the host only ever
    /// adds time, so the minimum is the steadiest estimate of the claim.
    /// `timed_rounds` runs only complete rounds, so every claim has the
    /// same number of repetitions.
    pub fn best(&self) -> Vec<f64> {
        self.walls
            .iter()
            .map(|w| w.iter().copied().reduce(f64::min).unwrap_or(0.0))
            .collect()
    }

    /// Σ learned ÷ Σ best wall over the claims selected by `keep`.
    pub fn learned_per_s(&self, keep: impl Fn(usize) -> bool) -> f64 {
        let best = self.best();
        let (learned, wall) = (0..best.len())
            .filter(|&i| keep(i))
            .fold((0.0, 0.0), |(l, w), i| {
                (l + self.learned[i] as f64, w + best[i])
            });
        if wall > 0.0 {
            learned / wall
        } else {
            0.0
        }
    }

    /// The end-to-end metrics of one pass over every claim at its best
    /// wall time. With one claim at a time, `learned_per_s` is a fixed
    /// multiple of `claims_per_s`, and the median latency is taken over
    /// one value per claim. These workloads report no tail: over a few
    /// dozen fixed claims a p99 is the slowest claim alone.
    pub fn end_to_end(&self, setup_s: f64, peak_rss_mb: Option<f64>) -> EndToEnd {
        let best = self.best();
        let claims_per_s = best.len() as f64 / best.iter().sum::<f64>();
        let ms: Vec<f64> = best.iter().map(|s| s * 1e3).collect();
        let learned_per_s = self.learned_per_s(|_| true);
        end_to_end(
            setup_s,
            peak_rss_mb,
            claims_per_s,
            learned_per_s,
            median(&ms),
        )
    }
}

/// Runs complete rounds over claims `0..n` until `seconds` have passed,
/// at least one. The clock is read only between rounds, so every claim
/// runs equally often. Each round takes a new seeded order, so no claim
/// always follows the same neighbour (one that leaves memory to be
/// faulted back in, say). Returns the number of rounds.
pub fn timed_rounds(n: usize, seed: u64, seconds: f64, mut claim: impl FnMut(usize)) -> usize {
    let start = Instant::now();
    let mut rng = SplitMix64::new(seed);
    let mut order: Vec<usize> = (0..n).collect();
    let mut rounds = 0;
    while rounds == 0 || start.elapsed().as_secs_f64() < seconds {
        rng.shuffle(&mut order);
        for &i in &order {
            claim(i);
        }
        rounds += 1;
    }
    rounds
}

/// A seeded permutation of `0..n`.
pub fn seeded_order(n: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    SplitMix64::new(seed).shuffle(&mut order);
    order
}

/// Median of repeated set-ups: runs `setup` `times` times, keeps the
/// last result.
pub fn repeated_setup<T>(
    times: usize,
    mut setup: impl FnMut() -> io::Result<T>,
) -> io::Result<(T, f64)> {
    let mut walls = Vec::with_capacity(times);
    let mut last = None;
    for _ in 0..times.max(1) {
        drop(last.take());
        let start = Instant::now();
        last = Some(setup()?);
        walls.push(start.elapsed().as_secs_f64());
    }
    Ok((
        last.expect("at least one set-up"),
        median(&walls).unwrap_or(0.0),
    ))
}

/// Solver-side set-up accounting (Table 1's overhead in traced runs).
#[derive(Default)]
pub struct SolveLedger {
    traced_s: f64,
    untraced_s: f64,
}

impl SolveLedger {
    /// Solves `instance` recording its trace in memory. In traced runs
    /// the instance is also solved with a `NullSink`, for Table 1's
    /// trace-generation overhead.
    pub fn solve(
        &mut self,
        instance: &Instance,
        params: &Params,
        layers: &mut Layers,
    ) -> (SolveResult, MemorySink) {
        if params.traced {
            let start = Instant::now();
            let mut solver = Solver::from_cnf(&instance.cnf, params.solver_config());
            solver
                .solve_traced(&mut NullSink)
                .expect("a null sink never fails");
            self.untraced_s += start.elapsed().as_secs_f64();
        }
        let start = Instant::now();
        let mut solver = Solver::from_cnf(&instance.cnf, params.solver_config());
        let mut events = MemorySink::new();
        let result = solver
            .solve_traced(&mut events)
            .expect("an in-memory sink never fails");
        let wall = start.elapsed().as_secs_f64();
        self.traced_s += wall;
        layers.add("solver.solve_s", wall);
        layers.add("solver.conflicts", solver.stats().conflicts as f64);
        layers.add("solver.learned", solver.stats().learned_clauses as f64);
        (result, events)
    }

    pub fn finish(&self, layers: &mut Layers) {
        if self.untraced_s > 0.0 {
            layers.set(
                "solver.trace_overhead_pct",
                100.0 * (self.traced_s - self.untraced_s) / self.untraced_s,
            );
        }
    }
}

/// Writes a formula as DIMACS.
pub fn write_cnf(instance: &Instance, path: &Path) -> io::Result<()> {
    dimacs::write_file(path, &instance.cnf)
}

/// Encodes events as a binary trace file, timing into `trace.encode_s`.
pub fn write_trace(events: &[TraceEvent], path: &Path, layers: &mut Layers) -> io::Result<u64> {
    let start = Instant::now();
    let mut writer = BinaryWriter::new(BufWriter::new(File::create(path)?))?;
    for event in events {
        writer.event(event)?;
    }
    let bytes = writer.bytes_written();
    writer.into_inner().flush()?;
    layers.add("trace.encode_s", start.elapsed().as_secs_f64());
    layers.add("trace.bytes", bytes as f64);
    Ok(bytes)
}

/// Learned-clause records in a trace.
pub fn learned_in(events: &[TraceEvent]) -> u64 {
    events
        .iter()
        .filter(|e| matches!(e, TraceEvent::Learned { .. }))
        .count() as u64
}

/// A file-name-safe form of an instance name (`7pipe[pipe_20_7]` → `7pipe`).
pub fn short_name(instance: &Instance) -> String {
    instance
        .name
        .split('[')
        .next()
        .unwrap_or(&instance.name)
        .replace(
            |c: char| !c.is_ascii_alphanumeric() && c != '_' && c != '.',
            "_",
        )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timed_rounds_runs_whole_rounds() {
        let mut seen = Vec::new();
        let rounds = timed_rounds(3, 1, 0.0, |i| seen.push(i));
        seen.sort_unstable();
        assert_eq!((rounds, seen), (1, vec![0, 1, 2]));
        let mut count = vec![0; 3];
        let rounds = timed_rounds(3, 1, 0.01, |i| {
            count[i] += 1;
            std::thread::sleep(std::time::Duration::from_millis(2));
        });
        assert_eq!(count, vec![rounds; 3]);
    }

    #[test]
    fn seeded_order_is_a_permutation() {
        let a = seeded_order(10, 3);
        assert_eq!(a, seeded_order(10, 3));
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn gate_caps_failures_at_attempts() {
        let mut gate = Gate::default();
        gate.claim(false, || "bad verdict".into());
        gate.expect(false, || "counter drift".into());
        assert_eq!(gate.failures(), 1);
        assert_eq!(gate.notes.len(), 2);
    }
}
