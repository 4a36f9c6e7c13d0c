//! `serve-campaign`: regression-farm traffic into an in-process daemon
//! (`Server::start` with two workers). One client thread keeps two claims
//! in flight through `Server::handle_line` (a closed loop); verdict
//! frames come back through a `Reply` sink that stamps their arrival.
//!
//! The claims are UNSAT claims by path over the small Table 2 rows, the
//! `quick_suite` members and seeded routing channels, under `df` and
//! `bf` with one inner job; SAT claims on instances satisfiable by
//! construction; and traces defective by construction (no final
//! conflict record, or a final conflict naming a clause that does not
//! exist), which must come back as `proof-defect`.

use crate::common::{
    end_to_end, learned_in, repeated_setup, seeded_order, short_name, write_cnf, write_trace, Gate,
    Layers, Outcome, Params, Scale, SolveLedger, Work, WorkLedger, HEAVY_ROWS,
};
use crate::host::{mmap_backing, quantile, RssWindow};
use crate::spans;
use rescheck_cnf::{LBool, SatStatus, SplitMix64};
use rescheck_obs::{json, Json, MetricsSink, Registry};
use rescheck_serve::protocol::status;
use rescheck_serve::{LineOutcome, Reply, ServeConfig, Server};
use rescheck_solver::SolveResult;
use rescheck_trace::TraceEvent;
use rescheck_workloads::{paper_suite, pigeonhole, quick_suite, routing, Instance};
use std::collections::HashMap;
use std::io::{self, Write};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const WORKERS: usize = 2;
const IN_FLIGHT: usize = 2;
/// How long a verdict may take before the claim counts as lost.
const VERDICT_WAIT: Duration = Duration::from_secs(60);
/// Verdicts after which `peak_rss_mb` is read. The daemon keeps every
/// finished job's span tree, so its RSS grows with the claims it has
/// served; read at a fixed count, a faster daemon is not charged for
/// the extra claims it fits into the run, and a change that keeps more
/// per claim still shows.
const RSS_AFTER: usize = 10_000;

/// One claim of the deck: the frame body (everything but the id) and the
/// verdict known without the checker.
struct Claim {
    body: String,
    expected: &'static str,
    strategy: &'static str,
    learned: u64,
}

struct Inputs {
    unsat: Vec<Instance>,
    sat: Vec<Instance>,
    defective: usize,
    /// The last `defect_pool` UNSAT traces are the ones corrupted.
    defect_pool: usize,
}

fn inputs(params: &Params) -> Inputs {
    let seed = params.seed;
    match params.scale {
        Scale::Full => {
            let mut unsat: Vec<Instance> = paper_suite()
                .into_iter()
                .filter(|i| !HEAVY_ROWS.contains(&short_name(i).as_str()))
                .collect();
            unsat.extend(quick_suite());
            unsat.extend((0..4).map(|k| {
                routing::congested_channel(3 + k % 2, 12, seed.wrapping_mul(4) + k as u64)
            }));
            Inputs {
                unsat,
                sat: vec![
                    routing::routable_channel(4, 12, seed),
                    routing::routable_channel(5, 16, seed.wrapping_add(1)),
                    pigeonhole::satisfiable_instance(5),
                ],
                defective: 2,
                // The routing channels: they change with the seed, but
                // are alike in size, so which ones are corrupted does not
                // change how much work the deck holds.
                defect_pool: 4,
            }
        }
        Scale::Quick => Inputs {
            unsat: quick_suite().into_iter().take(4).collect(),
            sat: vec![routing::routable_channel(3, 6, seed)],
            defective: 1,
            defect_pool: 4,
        },
    }
}

fn quoted(path: &std::path::Path) -> String {
    Json::Str(path.display().to_string()).to_string()
}

fn invalid(what: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what)
}

/// Writes every input and builds the deck of claims.
fn setup(params: &Params, layers: &mut Layers) -> io::Result<Vec<Claim>> {
    let Inputs {
        unsat,
        sat,
        defective,
        defect_pool,
    } = inputs(params);
    let mut solves = SolveLedger::default();
    let mut deck = Vec::new();
    let mut traces: Vec<(String, Vec<TraceEvent>)> = Vec::new();
    for (i, instance) in unsat.iter().enumerate() {
        let cnf = params.path(&format!("u{i}.cnf"));
        let trace = params.path(&format!("u{i}.rt"));
        write_cnf(instance, &cnf)?;
        let (_, events) = solves.solve(instance, params, layers);
        write_trace(events.events(), &trace, layers)?;
        let expected = match instance.expected {
            Some(SatStatus::Unsatisfiable) => status::VALID,
            _ => {
                return Err(invalid(format!(
                    "{} is not UNSAT by construction",
                    instance.name
                )))
            }
        };
        for strategy in ["df", "bf"] {
            deck.push(Claim {
                body: format!(
                    "\"cnf_path\":{},\"trace_path\":{},\"strategy\":\"{strategy}\",\"jobs\":1",
                    quoted(&cnf),
                    quoted(&trace)
                ),
                expected,
                strategy,
                learned: learned_in(events.events()),
            });
        }
        traces.push((quoted(&cnf), events.events().to_vec()));
    }
    for (i, instance) in sat.iter().enumerate() {
        let cnf = params.path(&format!("s{i}.cnf"));
        write_cnf(instance, &cnf)?;
        let (result, _) = solves.solve(instance, params, layers);
        let (Some(SatStatus::Satisfiable), SolveResult::Satisfiable(model)) =
            (instance.expected, result)
        else {
            return Err(invalid(format!(
                "{} is not SAT by construction",
                instance.name
            )));
        };
        let lits: Vec<String> = model
            .iter()
            .filter_map(|(var, value)| match value {
                LBool::True => Some(var.positive().to_dimacs().to_string()),
                LBool::False => Some(var.negative().to_dimacs().to_string()),
                LBool::Undef => None,
            })
            .collect();
        for _ in 0..2 {
            deck.push(Claim {
                body: format!(
                    "\"cnf_path\":{},\"model\":[{}]",
                    quoted(&cnf),
                    lits.join(",")
                ),
                expected: status::VALID,
                strategy: "sat",
                learned: 0,
            });
        }
    }
    // Defects by construction, on seeded picks among the last traces.
    let mut rng = SplitMix64::new(params.seed ^ 0xdefec7);
    for d in 0..defective {
        let group = traces.len() - 1 - rng.below(defect_pool as u64) as usize;
        let (cnf, events) = &traces[group];
        let beyond = events
            .iter()
            .filter_map(TraceEvent::primary_id)
            .max()
            .unwrap_or(0)
            + 1_000_000;
        let no_final: Vec<TraceEvent> = events
            .iter()
            .filter(|e| !matches!(e, TraceEvent::FinalConflict { .. }))
            .cloned()
            .collect();
        let dangling: Vec<TraceEvent> = events
            .iter()
            .map(|e| match e {
                TraceEvent::FinalConflict { .. } => TraceEvent::FinalConflict { id: beyond },
                other => other.clone(),
            })
            .collect();
        for (kind, bad) in [("nofinal", no_final), ("dangling", dangling)] {
            let trace = params.path(&format!("d{d}_{kind}.rt"));
            write_trace(&bad, &trace, &mut Layers::default())?;
            for strategy in ["df", "bf"] {
                deck.push(Claim {
                    body: format!(
                        "\"cnf_path\":{cnf},\"trace_path\":{},\"strategy\":\"{strategy}\",\"jobs\":1",
                        quoted(&trace)
                    ),
                    expected: status::PROOF_DEFECT,
                    strategy,
                    learned: 0,
                });
            }
        }
    }
    solves.finish(layers);
    Ok(deck)
}

/// The `Reply` sink: splits the daemon's output into frames and stamps
/// each with the moment it was written.
struct FrameSink {
    pending: Vec<u8>,
    tx: Sender<(Instant, String)>,
}

impl Write for FrameSink {
    fn write(&mut self, data: &[u8]) -> io::Result<usize> {
        self.pending.extend_from_slice(data);
        while let Some(end) = self.pending.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = self.pending.drain(..=end).collect();
            let text = String::from_utf8_lossy(&line[..end]).into_owned();
            // The client outlives every frame it waits for.
            let _ = self.tx.send((Instant::now(), text));
        }
        Ok(data.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// One verdict as the client saw it.
struct Sample {
    /// The deck entry.
    claim: usize,
    latency_ms: f64,
    job_ms: f64,
    strategy: &'static str,
    learned: u64,
    bytes: usize,
}

/// Feeds the deck to a daemon, cycling through one seeded order of the
/// claims, so formulas and traces repeat at the spacing chance gives them.
struct Client<'a> {
    deck: &'a [Claim],
    order: Vec<usize>,
    reply: Reply,
    rx: Receiver<(Instant, String)>,
    submitted: usize,
    /// Work counters per deck entry: every valid check of a claim, in
    /// either pass, must repeat them exactly.
    work: WorkLedger,
}

struct CampaignResult {
    samples: Vec<Sample>,
    elapsed: f64,
    /// Peak RSS after `RSS_AFTER` verdicts, or after the last one if the
    /// run served fewer, with the verdict count it covers.
    peak_rss: Option<(f64, usize)>,
}

impl Client<'_> {
    fn submit(
        &mut self,
        server: &Server,
        inflight: &mut HashMap<String, (Instant, usize)>,
        sink: Option<&mut MetricsSink>,
        gate: &mut Gate,
    ) {
        let k = self.order[self.submitted % self.order.len()];
        let id = format!("c{}", self.submitted);
        self.submitted += 1;
        let line = format!("{{\"id\":\"{id}\",{}}}", self.deck[k].body);
        inflight.insert(id, (Instant::now(), k));
        let outcome = spans::within(sink, "bench:serve.handle_line", || {
            server.handle_line(&line, &self.reply)
        });
        gate.expect(
            matches!(outcome, LineOutcome::Submitted | LineOutcome::Replied),
            || format!("claim frame not taken: {outcome:?}"),
        );
    }

    /// Runs the closed loop against `server` for `seconds`, then drains
    /// what is in flight. With a window, it reads the peak RSS.
    fn campaign(
        &mut self,
        server: &Server,
        seconds: f64,
        mut sink: Option<&mut MetricsSink>,
        window: Option<&RssWindow>,
        gate: &mut Gate,
        layers: &mut Layers,
    ) -> CampaignResult {
        let start = Instant::now();
        let mut inflight = HashMap::new();
        let mut samples = Vec::new();
        let mut peak_rss = None;
        for _ in 0..IN_FLIGHT {
            self.submit(server, &mut inflight, sink.as_deref_mut(), gate);
        }
        while !inflight.is_empty() {
            let Ok((at, line)) = self.rx.recv_timeout(VERDICT_WAIT) else {
                for _ in inflight.drain() {
                    gate.claim(false, || "verdict never arrived".into());
                }
                break;
            };
            let frame = json::parse(&line).unwrap_or(Json::Null);
            let id = frame.get("id").and_then(Json::as_str).unwrap_or("");
            let Some((sent, k)) = inflight.remove(id) else {
                gate.expect(false, || format!("unexpected frame: {line}"));
                continue;
            };
            let claim = &self.deck[k];
            let got = frame.get("status").and_then(Json::as_str).unwrap_or("");
            gate.claim(got == claim.expected, || {
                format!("{}: expected {}, got {line}", claim.body, claim.expected)
            });
            let work = work_of(&frame);
            if let Some(work) = work {
                self.work.record(gate, &format!("deck{k}"), work);
            }
            let job_ms = frame
                .get("wall_seconds")
                .and_then(Json::as_f64)
                .unwrap_or(0.0)
                * 1e3;
            if sink.is_some() {
                record_job(&frame, claim.strategy, work, layers);
            }
            samples.push(Sample {
                claim: k,
                latency_ms: at.duration_since(sent).as_secs_f64() * 1e3,
                job_ms,
                strategy: claim.strategy,
                learned: if got == status::VALID {
                    claim.learned
                } else {
                    0
                },
                bytes: line.len() + 1,
            });
            if samples.len() == RSS_AFTER {
                peak_rss = window
                    .and_then(RssWindow::peak_mib)
                    .map(|mb| (mb, RSS_AFTER));
            }
            if start.elapsed().as_secs_f64() < seconds {
                self.submit(server, &mut inflight, sink.as_deref_mut(), gate);
            }
        }
        if peak_rss.is_none() {
            peak_rss = window
                .and_then(RssWindow::peak_mib)
                .map(|mb| (mb, samples.len()));
        }
        CampaignResult {
            samples,
            elapsed: start.elapsed().as_secs_f64(),
            peak_rss,
        }
    }
}

fn start_server() -> Server {
    Server::start(ServeConfig {
        workers: WORKERS,
        ..ServeConfig::default()
    })
}

/// Stops a daemon that must have survived every claim; returns its
/// registry.
fn stop(server: Server, gate: &mut Gate) -> Registry {
    let reg = server.metrics_snapshot();
    gate.expect(reg.counter("serve.worker_panics").unwrap_or(0) == 0, || {
        "a serve worker panicked".into()
    });
    server.shutdown();
    reg
}

/// The work counters a valid UNSAT verdict reports.
fn work_of(frame: &Json) -> Option<Work> {
    let stats = frame.get("stats")?;
    let stat = |key: &str| stats.get(key).and_then(Json::as_f64).unwrap_or(0.0) as u64;
    Some(Work {
        built: stat("clauses_built"),
        resolutions: stat("resolutions"),
        peak: stat("peak_memory_bytes"),
    })
}

/// Folds one verdict's own metrics document (the job's span tree) and
/// its work counters into the checker layers.
fn record_job(frame: &Json, strategy: &str, work: Option<Work>, layers: &mut Layers) {
    if strategy == "sat" {
        return;
    }
    if let Some(reg) = frame.get("metrics").and_then(Registry::from_json) {
        spans::add_check_spans(layers, strategy, &reg);
        layers.add(
            "serve.check_s",
            spans::wall_of(&reg, &format!("check:{strategy}")),
        );
    }
    if let Some(work) = work {
        layers.add(
            &format!("checker.{strategy}.clauses_built"),
            work.built as f64,
        );
        layers.add("checker.resolutions", work.resolutions as f64);
        let peak_mb = work.peak as f64 / (1024.0 * 1024.0);
        layers.max(&format!("checker.{strategy}.accounted_mb"), peak_mb);
    }
}

fn rate(samples: &[Sample], elapsed: f64) -> (f64, f64) {
    let learned: u64 = samples.iter().map(|s| s.learned).sum();
    (samples.len() as f64 / elapsed, learned as f64 / elapsed)
}

pub fn run(params: &Params) -> io::Result<Outcome> {
    let repeats = if params.scale == Scale::Full { 3 } else { 1 };
    let ((deck, server, mut layers), setup_s) = repeated_setup(repeats, || {
        let mut layers = Layers::default();
        let deck = setup(params, &mut layers)?;
        Ok((deck, start_server(), layers))
    })?;
    let (tx, rx) = mpsc::channel();
    let reply: Reply = Arc::new(Mutex::new(Box::new(FrameSink {
        pending: Vec::new(),
        tx,
    })));
    let mut client = Client {
        deck: &deck,
        order: seeded_order(deck.len(), params.seed),
        reply,
        rx,
        submitted: 0,
        work: WorkLedger::default(),
    };

    let mut gate = Gate::default();
    let window = RssWindow::open();
    let plain = client.campaign(
        &server,
        params.seconds,
        None,
        Some(&window),
        &mut gate,
        &mut layers,
    );
    let workers = server.workers();
    stop(server, &mut gate);
    let (claims_per_s, learned_per_s) = rate(&plain.samples, plain.elapsed);
    let latency: Vec<f64> = plain.samples.iter().map(|s| s.latency_ms).collect();
    // p50 is the median over deck entries of each entry's best latency,
    // as on the one-at-a-time workloads; the median of all verdicts
    // followed the host's thread wake-ups more than the daemon.
    let mut best = vec![f64::INFINITY; deck.len()];
    for s in &plain.samples {
        best[s.claim] = best[s.claim].min(s.latency_ms);
    }
    best.retain(|b| b.is_finite());
    let p50 = quantile(&best, 0.5);
    let peak_rss = plain.peak_rss.map(|(mb, _)| mb);
    let e2e = end_to_end(setup_s, peak_rss, claims_per_s, learned_per_s, p50);

    let mut record = Json::object();
    record
        .set("deck", deck.len())
        .set(
            "sat_claims",
            deck.iter().filter(|c| c.strategy == "sat").count(),
        )
        .set(
            "defective_claims",
            deck.iter()
                .filter(|c| c.expected == status::PROOF_DEFECT)
                .count(),
        )
        .set("workers", workers)
        .set("in_flight", IN_FLIGHT)
        .set("verdict_samples", latency.len())
        .set(
            "rss_after_verdicts",
            plain.peak_rss.map_or(Json::Null, |(_, n)| Json::from(n)),
        )
        .set("rss_probe", window.measured())
        .set("mmap", mmap_backing(&params.path("u0.rt")));

    if params.traced {
        // The tail over every verdict of the untraced phase.
        layers.set(
            "serve.verdict_ms.p99",
            quantile(&latency, 0.99).unwrap_or(f64::NAN),
        );
        for strategy in ["df", "bf"] {
            let (learned, wall) = plain
                .samples
                .iter()
                .filter(|s| s.strategy == strategy)
                .fold((0.0, 0.0), |(l, w), s| {
                    (l + s.learned as f64, w + s.latency_ms / 1e3)
                });
            layers.ratio(&format!("learned_per_s.{strategy}"), learned, wall);
        }
        // A fresh daemon, so the traced pass starts as cold as the
        // untraced one and its counters cover the traced pass alone.
        let server = start_server();
        let mut sink = MetricsSink::new();
        let traced = client.campaign(
            &server,
            params.seconds,
            Some(&mut sink),
            None,
            &mut gate,
            &mut layers,
        );
        // Cache, shedding and panic counters. The `{"op":"metrics"}`
        // frame would carry the same counters, but it also serializes
        // every finished job's span tree, which after thousands of
        // claims costs more than the campaign itself.
        let reg = stop(server, &mut gate);
        let count = |name: &str| reg.counter(name).unwrap_or(0) as f64;
        for cache in ["formula_cache", "trace_cache"] {
            let hits = count(&format!("serve.{cache}.hits"));
            let misses = count(&format!("serve.{cache}.misses"));
            layers.ratio(&format!("serve.{cache}.hit_frac"), hits, hits + misses);
        }
        layers.set("serve.jobs_shed", count("serve.jobs_shed"));
        layers.set("serve.worker_panics", count("serve.worker_panics"));
        let (traced_cps, _) = rate(&traced.samples, traced.elapsed);
        layers.set(
            "obs.overhead_pct",
            100.0 * (claims_per_s / traced_cps - 1.0),
        );
        layers.set(
            "serve.handle_line_s",
            spans::wall_of(sink.registry(), "bench:serve.handle_line"),
        );
        let job_ms: Vec<f64> = traced.samples.iter().map(|s| s.job_ms).collect();
        let overhead: Vec<f64> = traced
            .samples
            .iter()
            .map(|s| s.latency_ms - s.job_ms)
            .collect();
        let job_total: f64 = job_ms.iter().sum::<f64>() / 1e3;
        layers.set("serve.job_ms.p50", quantile(&job_ms, 0.5).unwrap_or(0.0));
        layers.set(
            "serve.overhead_ms.p50",
            quantile(&overhead, 0.5).unwrap_or(0.0),
        );
        layers.set(
            "serve.overhead_ms.p99",
            quantile(&overhead, 0.99).unwrap_or(0.0),
        );
        let check_s = layers.get("serve.check_s");
        layers.ratio("serve.check_frac", check_s, job_total);
        layers.ratio(
            "serve.worker_busy_frac",
            job_total,
            WORKERS as f64 * traced.elapsed,
        );
        let bytes: usize = traced.samples.iter().map(|s| s.bytes).sum();
        layers.ratio(
            "serve.verdict_kb",
            bytes as f64 / 1024.0,
            traced.samples.len() as f64,
        );
        record.set("traced_verdict_samples", traced.samples.len());
    }

    Ok(Outcome {
        gate,
        e2e,
        layers,
        record,
    })
}
