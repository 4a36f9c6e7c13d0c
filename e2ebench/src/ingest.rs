//! `proof-ingest`: third-party clausal proofs. Set-up exports LRAT for
//! three Table 2 rows and builds each one's DRAT twin; each claim reads
//! the proof bytes, ingests them (`interop::ingest_bytes`) and checks the
//! synthesized in-memory trace with `bf`.

use crate::common::{
    repeated_setup, short_name, timed_rounds, write_cnf, Gate, Layers, Outcome, Params, Sampled,
    Scale, SolveLedger, Work, WorkLedger,
};
use crate::spans;
use rescheck_checker::{
    check_unsat_claim, check_unsat_claim_observed, CheckConfig, CheckOutcome, Strategy,
};
use rescheck_cnf::{dimacs, Cnf, SatStatus};
use rescheck_interop::{
    drat, export_lrat, ingest_bytes, ingest_drat, ingest_lrat, lrat, DratStep, IngestStats,
    LratStep, ProofFormat,
};
use rescheck_obs::{Json, MetricsSink};
use rescheck_serve::protocol::parse_strategy;
use rescheck_trace::MemorySink;
use rescheck_workloads::{bmc, paper_suite, pipeline, Instance};
use std::collections::HashMap;
use std::fs::{self, File};
use std::io::{self, BufWriter, Write};
use std::path::PathBuf;
use std::time::Instant;

const PROOF_ROWS: [&str; 3] = ["6pipe_6_ooo", "longmult", "6pipe"];
const FORMATS: [&str; 2] = ["drat", "lrat"];

struct Proof {
    row: String,
    format_name: &'static str,
    format: ProofFormat,
    cnf: PathBuf,
    path: PathBuf,
    expected: Option<SatStatus>,
}

fn instances(scale: Scale) -> Vec<Instance> {
    match scale {
        Scale::Full => paper_suite()
            .into_iter()
            .filter(|i| PROOF_ROWS.contains(&short_name(i).as_str()))
            .collect(),
        Scale::Quick => vec![bmc::longmult(3), pipeline::pipe(5, 1)],
    }
}

fn invalid(e: impl std::fmt::Display) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, e.to_string())
}

/// The DRAT twin of an LRAT proof: the same additions without hints,
/// and every deletion kept as the deletion of the clause's literals.
fn drat_twin(cnf: &Cnf, steps: &[LratStep]) -> Vec<DratStep> {
    let mut lits_of: HashMap<u64, Vec<i64>> = cnf
        .iter()
        .map(|(i, clause)| (i as u64 + 1, clause.iter().map(|l| l.to_dimacs()).collect()))
        .collect();
    let mut twin = Vec::with_capacity(steps.len());
    for step in steps {
        match step {
            LratStep::Add { id, lits, .. } => {
                lits_of.insert(*id, lits.clone());
                twin.push(DratStep::Add(lits.clone()));
            }
            LratStep::Delete { ids } => {
                for id in ids {
                    if let Some(lits) = lits_of.remove(id) {
                        twin.push(DratStep::Delete(lits));
                    }
                }
            }
        }
    }
    twin
}

fn setup(params: &Params, layers: &mut Layers) -> io::Result<Vec<Proof>> {
    let mut solves = SolveLedger::default();
    let mut proofs = Vec::new();
    for instance in instances(params.scale) {
        let row = short_name(&instance);
        let cnf = params.path(&format!("{row}.cnf"));
        write_cnf(&instance, &cnf)?;
        let (_, events) = solves.solve(&instance, params, layers);
        let start = Instant::now();
        let exported = export_lrat(&instance.cnf, events.events()).map_err(invalid)?;
        layers.add("interop.export_s", start.elapsed().as_secs_f64());
        for format_name in FORMATS {
            let format = ProofFormat::from_name(format_name).expect("benchmark format names parse");
            let path = params.path(&format!("{row}.{format_name}"));
            let mut out = BufWriter::new(File::create(&path)?);
            match format_name {
                "drat" => drat::write_text(&mut out, &drat_twin(&instance.cnf, &exported.steps))?,
                _ => lrat::write_text(&mut out, &exported.steps)?,
            }
            out.flush()?;
            proofs.push(Proof {
                row: row.clone(),
                format_name,
                format,
                cnf: cnf.clone(),
                path,
                expected: instance.expected,
            });
        }
    }
    solves.finish(layers);
    Ok(proofs)
}

type Verdict = Result<CheckOutcome, String>;

fn checkable(report: rescheck_interop::IngestReport) -> Result<MemorySink, String> {
    if report.resolution_checkable() {
        Ok(MemorySink::from(report.events))
    } else {
        Err(format!(
            "{} RAT steps have no resolution derivation",
            report.stats.rat_steps
        ))
    }
}

/// One claim, with the ingestion counters when ingestion succeeded.
/// Untraced, it ingests with `ingest_bytes`. With a sink it calls the
/// parse and ingest halves separately, so each gets its own span.
fn claim(
    proof: &Proof,
    strategy: Strategy,
    config: &CheckConfig,
    mut sink: Option<&mut MetricsSink>,
) -> (f64, Verdict, Option<IngestStats>) {
    let start = Instant::now();
    let mut ingested = None;
    let verdict = (|| {
        let cnf = spans::within(sink.as_deref_mut(), "bench:cnf.read_file", || {
            dimacs::read_file(&proof.cnf)
        })
        .map_err(|e| e.to_string())?;
        let bytes = fs::read(&proof.path).map_err(|e| e.to_string())?;
        let report = match sink.as_deref_mut() {
            None => ingest_bytes(&cnf, &bytes, proof.format),
            Some(sink) => match proof.format {
                ProofFormat::Drat => {
                    let steps = spans::within(Some(&mut *sink), "bench:interop.parse", || {
                        drat::parse(&bytes)
                    })
                    .map_err(|e| e.to_string())?;
                    spans::within(Some(sink), "bench:interop.ingest", || {
                        ingest_drat(&cnf, &steps)
                    })
                }
                ProofFormat::Lrat => {
                    let steps = spans::within(Some(&mut *sink), "bench:interop.parse", || {
                        lrat::parse(&bytes)
                    })
                    .map_err(|e| e.to_string())?;
                    spans::within(Some(sink), "bench:interop.ingest", || {
                        ingest_lrat(&cnf, &steps)
                    })
                }
            },
        }
        .map_err(|e| e.to_string())?;
        ingested = Some(report.stats);
        let trace = checkable(report)?;
        match sink {
            Some(sink) => check_unsat_claim_observed(&cnf, &trace, strategy, config, sink),
            None => check_unsat_claim(&cnf, &trace, strategy, config),
        }
        .map_err(|e| e.to_string())
    })();
    (start.elapsed().as_secs_f64(), verdict, ingested)
}

fn judge(gate: &mut Gate, work: &mut WorkLedger, proof: &Proof, verdict: &Verdict) {
    let expect_valid = proof.expected == Some(SatStatus::Unsatisfiable);
    gate.claim(verdict.is_ok() == expect_valid, || {
        format!("{} as {}: {verdict:?}", proof.row, proof.format_name)
    });
    if let Ok(outcome) = verdict {
        work.record(
            gate,
            &format!("{}/{}", proof.row, proof.format_name),
            Work::from(&outcome.stats),
        );
    }
}

pub fn run(params: &Params) -> io::Result<Outcome> {
    let repeats = if params.scale == Scale::Full { 3 } else { 1 };
    let ((proofs, mut layers), setup_s) = repeated_setup(repeats, || {
        let mut layers = Layers::default();
        Ok((setup(params, &mut layers)?, layers))
    })?;
    let strategy = parse_strategy("bf").expect("benchmark strategy names parse");
    let config = CheckConfig {
        jobs: params.jobs,
        ..CheckConfig::default()
    };

    let mut gate = Gate::default();
    let mut work = WorkLedger::default();
    let mut sampled = Sampled::new(proofs.len());
    let window = crate::host::RssWindow::open();
    let rounds = timed_rounds(proofs.len(), params.seed, params.seconds, |i| {
        let (wall, verdict, _) = claim(&proofs[i], strategy, &config, None);
        sampled.walls[i].push(wall);
        if let Ok(outcome) = &verdict {
            sampled.learned[i] = outcome.stats.learned_in_trace;
        }
        judge(&mut gate, &mut work, &proofs[i], &verdict);
    });
    let e2e = sampled.end_to_end(setup_s, window.peak_mib());

    let mut record = Json::object();
    record
        .set("claims", proofs.len())
        .set("rounds", rounds)
        .set("setup_repeats", repeats)
        .set("rss_probe", window.measured())
        .set("mmap", Json::Null);

    if params.traced {
        for format_name in FORMATS {
            let rate = sampled.learned_per_s(|i| proofs[i].format_name == format_name);
            layers.set(&format!("learned_per_s.{format_name}"), rate);
        }
        let mut traced_wall = 0.0;
        for proof in &proofs {
            let mut sink = MetricsSink::new();
            let (wall, verdict, ingested) = claim(proof, strategy, &config, Some(&mut sink));
            traced_wall += wall;
            if let Some(stats) = ingested {
                layers.add("interop.additions", stats.additions as f64);
                layers.add("interop.rup_steps", stats.rup_steps as f64);
            }
            judge(&mut gate, &mut work, proof, &verdict);
            let reg = sink.registry();
            let fmt = proof.format_name;
            layers.add(
                &format!("interop.parse_s.{fmt}"),
                spans::wall_of(reg, "bench:interop.parse"),
            );
            layers.add(
                &format!("interop.ingest_s.{fmt}"),
                spans::wall_of(reg, "bench:interop.ingest"),
            );
            layers.add("interop.check_s", spans::wall_of(reg, "check:bf"));
            layers.add("cnf.parse_s", spans::wall_of(reg, "bench:cnf.read_file"));
            spans::add_check_spans(&mut layers, "bf", reg);
            if let Ok(outcome) = &verdict {
                let stats = &outcome.stats;
                layers.add("checker.bf.clauses_built", stats.clauses_built as f64);
                layers.add("checker.resolutions", stats.resolutions as f64);
                layers.max(
                    "checker.bf.accounted_mb",
                    stats.peak_memory_bytes as f64 / (1024.0 * 1024.0),
                );
            }
        }
        let untraced: f64 = sampled.best().iter().sum();
        layers.set("obs.overhead_pct", 100.0 * (traced_wall / untraced - 1.0));
    }

    Ok(Outcome {
        gate,
        e2e,
        layers,
        record,
    })
}
