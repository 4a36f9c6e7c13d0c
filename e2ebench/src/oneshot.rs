//! `oneshot-heavy`: the four heaviest Table 2 rows, each checked the way
//! `rescheck check` does it (`dimacs::read_file` → `FileTrace::open` →
//! `check_unsat_claim`) under every strategy, one claim at a time.

use crate::common::{
    learned_in, short_name, timed_rounds, write_cnf, write_trace, Gate, Layers, Outcome, Params,
    Sampled, Scale, SolveLedger, Work, WorkLedger, HEAVY_ROWS,
};
use crate::host::{mmap_backing, RssWindow};
use crate::{spans, STRATEGIES};
use rescheck_checker::{
    check_unsat_claim, check_unsat_claim_observed, CheckConfig, CheckOutcome, Strategy,
};
use rescheck_cnf::{dimacs, SatStatus};
use rescheck_obs::{Json, MetricsSink};
use rescheck_serve::protocol::parse_strategy;
use rescheck_trace::{FileTrace, SliceDecoder, TraceMap};
use rescheck_workloads::{bmc, paper_suite, pigeonhole, pipeline, Instance};
use std::io;
use std::path::PathBuf;
use std::time::Instant;

const MIB: f64 = 1024.0 * 1024.0;

struct Row {
    name: String,
    cnf: PathBuf,
    trace: PathBuf,
    learned: u64,
    trace_bytes: u64,
    expected: Option<SatStatus>,
}

fn instances(scale: Scale) -> Vec<Instance> {
    match scale {
        Scale::Full => paper_suite()
            .into_iter()
            .filter(|i| HEAVY_ROWS.contains(&short_name(i).as_str()))
            .collect(),
        Scale::Quick => vec![
            pigeonhole::instance(4),
            bmc::longmult(3),
            bmc::barrel(4, 6),
            pipeline::pipe(5, 1),
        ],
    }
}

fn setup(params: &Params, layers: &mut Layers) -> io::Result<Vec<Row>> {
    let mut solves = SolveLedger::default();
    let mut rows = Vec::new();
    for instance in instances(params.scale) {
        let name = short_name(&instance);
        let cnf = params.path(&format!("{name}.cnf"));
        let trace = params.path(&format!("{name}.rt"));
        write_cnf(&instance, &cnf)?;
        let (_, events) = solves.solve(&instance, params, layers);
        let trace_bytes = write_trace(events.events(), &trace, layers)?;
        rows.push(Row {
            name,
            cnf,
            trace,
            learned: learned_in(events.events()),
            trace_bytes,
            expected: instance.expected,
        });
    }
    solves.finish(layers);
    Ok(rows)
}

type Verdict = Result<CheckOutcome, String>;

/// One claim. With a sink, the benchmark's spans wrap each call and the
/// checker's own spans nest underneath.
fn claim(
    row: &Row,
    strategy: Strategy,
    config: &CheckConfig,
    mut sink: Option<&mut MetricsSink>,
) -> (f64, Verdict) {
    let start = Instant::now();
    let verdict = (|| {
        let cnf = spans::within(sink.as_deref_mut(), "bench:cnf.read_file", || {
            dimacs::read_file(&row.cnf)
        })
        .map_err(|e| e.to_string())?;
        let trace = spans::within(sink.as_deref_mut(), "bench:trace.open", || {
            FileTrace::open(&row.trace)
        })
        .map_err(|e| e.to_string())?;
        match sink {
            Some(sink) => check_unsat_claim_observed(&cnf, &trace, strategy, config, sink),
            None => check_unsat_claim(&cnf, &trace, strategy, config),
        }
        .map_err(|e| e.to_string())
    })();
    (start.elapsed().as_secs_f64(), verdict)
}

/// Every claim here is an UNSAT claim with a genuine trace: it must
/// validate exactly when the instance is unsatisfiable by construction.
fn judge(gate: &mut Gate, work: &mut WorkLedger, row: &Row, strategy: &str, verdict: &Verdict) {
    let expect_valid = row.expected == Some(SatStatus::Unsatisfiable);
    gate.claim(verdict.is_ok() == expect_valid, || {
        format!("{} under {strategy}: {verdict:?}", row.name)
    });
    // The portfolio reports whichever racer won; it is checked against
    // the racers' own counters instead.
    if let (Ok(outcome), false) = (verdict, strategy == "portfolio") {
        work.record(
            gate,
            &format!("{}/{strategy}", row.name),
            Work::from(&outcome.stats),
        );
    }
}

/// Strategies that build the same clauses must agree on the counts:
/// bf, pbf and pdag build every learned clause; dfd is df on disk.
fn cross_check(
    gate: &mut Gate,
    work: &WorkLedger,
    rows: &[Row],
    portfolio: &[(usize, Work, bool)],
) {
    let get = |row: &Row, s: &str| work.0.get(&format!("{}/{s}", row.name)).copied();
    let same = |a: Option<Work>, b: Option<Work>| match (a, b) {
        (Some(a), Some(b)) => a.built == b.built && a.resolutions == b.resolutions,
        _ => true,
    };
    for row in rows {
        for (a, b) in [("bf", "pbf"), ("bf", "pdag"), ("df", "dfd")] {
            gate.expect(same(get(row, a), get(row, b)), || {
                format!("{}: {a} and {b} built different work", row.name)
            });
        }
    }
    for &(r, won, df_won) in portfolio {
        let racer = if df_won { "df" } else { "bf" };
        gate.expect(same(Some(won), get(&rows[r], racer)), || {
            format!(
                "{}: portfolio counters differ from its {racer} racer",
                rows[r].name
            )
        });
    }
}

pub fn run(params: &Params) -> io::Result<Outcome> {
    let mut layers = Layers::default();
    let start = Instant::now();
    let rows = setup(params, &mut layers)?;
    let setup_s = start.elapsed().as_secs_f64();

    let strategies: Vec<(&str, Strategy)> = STRATEGIES
        .iter()
        .map(|&name| {
            (
                name,
                parse_strategy(name).expect("benchmark strategy names parse"),
            )
        })
        .collect();
    let config = CheckConfig {
        jobs: params.jobs,
        ..CheckConfig::default()
    };
    let claims: Vec<(usize, usize)> = (0..rows.len())
        .flat_map(|r| (0..strategies.len()).map(move |s| (r, s)))
        .collect();

    let mut gate = Gate::default();
    let mut work = WorkLedger::default();
    let mut sampled = Sampled::new(claims.len());
    let mut portfolio = Vec::new();
    let window = RssWindow::open();
    let rounds = timed_rounds(claims.len(), params.seed, params.seconds, |i| {
        let (r, s) = claims[i];
        let (name, strategy) = strategies[s];
        let (wall, verdict) = claim(&rows[r], strategy, &config, None);
        sampled.walls[i].push(wall);
        sampled.learned[i] = rows[r].learned;
        judge(&mut gate, &mut work, &rows[r], name, &verdict);
        if let (Ok(outcome), "portfolio") = (&verdict, name) {
            portfolio.push((r, Work::from(&outcome.stats), outcome.core.is_some()));
        }
    });
    let e2e = sampled.end_to_end(setup_s, window.peak_mib());

    let mut record = Json::object();
    record
        .set("claims", claims.len())
        .set("rounds", rounds)
        .set("jobs", params.jobs)
        .set("rss_probe", window.measured())
        .set("mmap", mmap_backing(&rows[0].trace));
    let mut row_json = Vec::new();
    for row in &rows {
        let mut j = Json::object();
        j.set("row", row.name.as_str())
            .set("learned", row.learned)
            .set("trace_bytes", row.trace_bytes);
        row_json.push(j);
    }
    record.set("rows", Json::Array(row_json));
    let mut walls_json = Vec::new();
    for (i, &(r, s)) in claims.iter().enumerate() {
        let mut j = Json::object();
        j.set("row", rows[r].name.as_str())
            .set("strategy", strategies[s].0)
            .set(
                "wall_ms",
                Json::Array(
                    sampled.walls[i]
                        .iter()
                        .map(|w| Json::Float(w * 1e3))
                        .collect(),
                ),
            );
        walls_json.push(j);
    }
    record.set("walls", Json::Array(walls_json));

    if params.traced {
        for (s, &(name, _)) in strategies.iter().enumerate() {
            let rate = sampled.learned_per_s(|i| claims[i].1 == s);
            layers.set(&format!("learned_per_s.{name}"), rate);
        }
        let traced = TracedPass {
            rows: &rows,
            strategies: &strategies,
            claims: &claims,
            config: &config,
        };
        let detail = traced.run(&mut gate, &mut work, &mut layers, &mut portfolio);
        let untraced: f64 = sampled.best().iter().sum();
        layers.set("obs.overhead_pct", 100.0 * (detail.wall / untraced - 1.0));
        record.set("checks", Json::Array(detail.checks));
    }
    cross_check(&mut gate, &work, &rows, &portfolio);
    let wins = portfolio.iter().filter(|p| p.2).count();
    layers.ratio(
        "checker.portfolio.df_win_frac",
        wins as f64,
        portfolio.len() as f64,
    );

    Ok(Outcome {
        gate,
        e2e,
        layers,
        record,
    })
}

struct TracedPass<'a> {
    rows: &'a [Row],
    strategies: &'a [(&'static str, Strategy)],
    claims: &'a [(usize, usize)],
    config: &'a CheckConfig,
}

struct TracedDetail {
    wall: f64,
    checks: Vec<Json>,
}

impl TracedPass<'_> {
    /// One traced round over every claim, then pbf and pdag again at one
    /// job, then one bare decode of every trace.
    fn run(
        &self,
        gate: &mut Gate,
        work: &mut WorkLedger,
        layers: &mut Layers,
        portfolio: &mut Vec<(usize, Work, bool)>,
    ) -> TracedDetail {
        let mut wall = 0.0;
        let mut checks = Vec::new();
        let (mut folded, mut folded_s) = (0.0, 0.0);
        let (mut reused, mut arena_built) = (0.0, 0.0);
        let (mut hits, mut reads) = (0.0, 0.0);
        let (mut rss, mut accounted) = (0.0, 0.0);
        let mut jobs2 = [0.0; 2];
        for &(r, s) in self.claims {
            let row = &self.rows[r];
            let (name, strategy) = self.strategies[s];
            let window = RssWindow::open();
            let mut sink = MetricsSink::new();
            let (claim_wall, verdict) = claim(row, strategy, self.config, Some(&mut sink));
            let growth = window.growth_mib();
            wall += claim_wall;
            judge(gate, work, row, name, &verdict);
            let reg = sink.registry();
            let resolve_s = spans::add_check_spans(layers, name, reg);
            layers.add("cnf.parse_s", spans::wall_of(reg, "bench:cnf.read_file"));
            layers.add("trace.open_s", spans::wall_of(reg, "bench:trace.open"));
            if let Some(pos) = ["pbf", "pdag"].iter().position(|p| *p == name) {
                jobs2[pos] += claim_wall;
            }
            let Ok(outcome) = &verdict else { continue };
            let stats = &outcome.stats;
            if name == "portfolio" {
                portfolio.push((r, Work::from(stats), outcome.core.is_some()));
            }
            let accounted_mb = stats.peak_memory_bytes as f64 / MIB;
            layers.add(
                &format!("checker.{name}.clauses_built"),
                stats.clauses_built as f64,
            );
            layers.add("checker.resolutions", stats.resolutions as f64);
            layers.max(&format!("checker.{name}.accounted_mb"), accounted_mb);
            let rss_key = format!("checker.{name}.rss_mb");
            match growth {
                Some(mb) => {
                    layers.max(&rss_key, mb);
                    rss += mb;
                    accounted += accounted_mb;
                }
                None => layers.set(&rss_key, f64::NAN),
            }
            if let Some(g) = reg.gauge("check.kernel.literals_folded") {
                folded += g;
                folded_s += resolve_s;
            }
            if let Some(g) = reg.gauge("check.arena.reuse_hits") {
                reused += g;
                arena_built += stats.clauses_built as f64;
            }
            if let (Some(h), Some(c)) = (
                reg.gauge("check.dfd.cache_hits"),
                reg.gauge("check.dfd.cursor_reads"),
            ) {
                hits += h;
                reads += c;
            }
            let mut check = Json::object();
            check
                .set("row", row.name.as_str())
                .set("strategy", name)
                .set("wall_s", claim_wall)
                .set("clauses_built", stats.clauses_built)
                .set("resolutions", stats.resolutions)
                .set("accounted_mb", accounted_mb)
                .set("rss_mb", growth.map_or(Json::Null, Json::Float));
            checks.push(check);
        }
        layers.ratio("checker.kernel.mlits_per_s", folded / 1e6, folded_s);
        layers.set("checker.kernel.literals_folded", folded);
        layers.ratio("checker.arena.reuse_frac", reused, arena_built);
        layers.ratio("checker.dfd.cache_hit_frac", hits, hits + reads);
        layers.ratio("checker.rss_over_accounted", rss, accounted);

        // Scaling: the same pbf and pdag claims at one job. Work
        // counters must not move with the job count.
        let one_job = CheckConfig {
            jobs: 1,
            ..self.config.clone()
        };
        for (pos, name) in ["pbf", "pdag"].into_iter().enumerate() {
            let strategy = parse_strategy(name).expect("benchmark strategy names parse");
            let mut jobs1 = 0.0;
            for row in self.rows {
                let mut sink = MetricsSink::new();
                let (claim_wall, verdict) = claim(row, strategy, &one_job, Some(&mut sink));
                jobs1 += claim_wall;
                judge(gate, work, row, name, &verdict);
            }
            layers.ratio(&format!("checker.{name}.scaling"), jobs1, jobs2[pos]);
        }

        for row in self.rows {
            let Ok(map) = TraceMap::open(&row.trace) else {
                gate.expect(false, || format!("{}: trace does not map", row.name));
                continue;
            };
            let start = Instant::now();
            let decoded = SliceDecoder::new(map.bytes()).and_then(|mut decoder| {
                while decoder.next_event()?.is_some() {}
                Ok(())
            });
            layers.add("trace.decode_s", start.elapsed().as_secs_f64());
            gate.expect(decoded.is_ok(), || {
                format!("{}: trace does not decode", row.name)
            });
        }
        TracedDetail { wall, checks }
    }
}
