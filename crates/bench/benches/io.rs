//! Micro-benchmark for the zero-copy trace I/O layer, old vs new on the
//! production file paths:
//!
//! * DIMACS parsing — the retained per-line reference path (whole file
//!   into a `String`, then [`dimacs::parse_str_lines`], which allocates
//!   an owned `String` per line and tokenizes with `split_whitespace`)
//!   against [`dimacs::read_file`], the block-buffered byte scanner.
//! * Binary trace decoding — the per-record reference [`BinaryReader`]
//!   behind the pre-change default 8 KiB `BufReader` (a `read_exact`
//!   per tag/varint byte, an owned `sources` vector per event) against
//!   [`BlockDecoder`] refilling one 256 KiB block buffer and lending
//!   borrowed [`EventRef`]s.
//! * Trace-map ingestion — the per-record reader against a [`TraceMap`]
//!   (the daemon's in-memory copy of a trace file) decoded in place on
//!   one thread through a [`SliceDecoder`], with no read syscall and no
//!   copy.
//! * Random-access fetch — the disk-depth-first access pattern
//!   (`event_at` over shuffled offsets) through a [`FileTrace`]'s
//!   positioned-read cursor (a window read at each offset) against a
//!   [`TraceMap`]'s cursor (the record decoded in place).
//! * Proof emission — the same exported LRAT refutation encoded as text
//!   against the binary LRAT encoding (smaller and cheaper to write).
//! * Proof ingestion — hint-free DRAT reconstruction (two-watched-literal
//!   propagation plus conflict analysis per addition) against LRAT hint
//!   replay of the identical refutation; the hints are the speedup.
//!
//! Both fixtures are seeded, written to a temp directory once, and
//! sanity-checked for old/new agreement before anything is timed.
//!
//! Speedups are computed from per-iteration minima — the low-noise
//! estimator for a microbenchmark, since only scheduler jitter ever makes
//! an iteration slower — with medians reported alongside.
//!
//! With `--json <path>` a `rescheck-metrics-v2` document is written with
//! one row per scenario plus the new/old speedup, for the CI bench-smoke
//! job (which checks shape, never timing).

use rescheck_bench::micro::bench;
use rescheck_bench::report::{take_json_flag, write_json};
use rescheck_cnf::{dimacs, Cnf, SplitMix64};
use rescheck_obs::{Json, SCHEMA};
use rescheck_trace::{
    BinaryReader, BinaryWriter, BlockDecoder, EventRef, FileTrace, SliceDecoder, TraceEvent,
    TraceMap, TraceSink, TraceSource,
};
use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::path::{Path, PathBuf};

/// The `BufReader` capacity the per-record reader shipped with before
/// the block buffer landed (`std`'s default).
const OLD_BUF_BYTES: usize = 8 * 1024;

fn fixture_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("rescheck-bench-io");
    std::fs::create_dir_all(&dir).expect("create fixture dir");
    dir.join(format!("{name}-{}", std::process::id()))
}

/// Writes a seeded random 3-SAT-ish DIMACS file of `clauses` clauses
/// over `vars` variables, with comment lines sprinkled in like real
/// files. Returns the path and the file size.
fn dimacs_fixture(vars: usize, clauses: usize, seed: u64) -> (PathBuf, u64) {
    let mut rng = SplitMix64::new(seed);
    let mut text = String::with_capacity(clauses * 16);
    text.push_str(&format!("c generated io bench input seed {seed}\n"));
    text.push_str(&format!("p cnf {vars} {clauses}\n"));
    for i in 0..clauses {
        if i.is_multiple_of(64) {
            text.push_str("c progress comment\n");
        }
        let len = 3 + (rng.next_u64() % 2) as usize;
        for _ in 0..len {
            let var = 1 + (rng.next_u64() as usize % vars) as i64;
            let lit = if rng.next_u64().is_multiple_of(2) {
                var
            } else {
                -var
            };
            text.push_str(&format!("{lit} "));
        }
        text.push_str("0\n");
    }
    let path = fixture_path("bench.cnf");
    std::fs::write(&path, &text).expect("write cnf fixture");
    (path, text.len() as u64)
}

/// Writes a seeded binary trace of `count` events with realistic id
/// magnitudes (multi-byte varints) and mixed source-list lengths.
fn trace_fixture(count: usize, seed: u64) -> (PathBuf, u64) {
    let mut rng = SplitMix64::new(seed);
    let path = fixture_path("bench.rt");
    let file = File::create(&path).expect("create trace fixture");
    let mut writer = BinaryWriter::new(BufWriter::new(file)).expect("write magic");
    for i in 0..count {
        match rng.next_u64() % 8 {
            0 => writer
                .level_zero(
                    rescheck_cnf::Lit::from_dimacs(1 + (i as i64 % 512)),
                    rng.next_u64() % 100_000,
                )
                .expect("write event"),
            1 => writer
                .final_conflict(rng.next_u64() % 100_000)
                .expect("write event"),
            _ => {
                let len = 2 + (rng.next_u64() % 14) as usize;
                let sources: Vec<u64> = (0..len).map(|_| rng.next_u64() % 1_000_000).collect();
                writer
                    .learned(1_000_000 + i as u64, &sources)
                    .expect("write event");
            }
        }
    }
    writer.flush().expect("flush trace fixture");
    let bytes = std::fs::metadata(&path).expect("stat trace fixture").len();
    (path, bytes)
}

/// The retained per-line production path, exactly as `read_file`
/// shipped before the scanner: `BufRead::lines` behind the old
/// default-capacity `BufReader` — a `String` allocation and UTF-8
/// validation per line, `split_whitespace` + `str::parse` per token.
fn parse_lines_path(path: &Path) -> Cnf {
    let reader = BufReader::with_capacity(OLD_BUF_BYTES, File::open(path).expect("open cnf"));
    dimacs::parse_reader_lines(reader).expect("valid dimacs")
}

/// The per-record reference reader: `BinaryReader` behind the old
/// default-capacity `BufReader`, one owned `TraceEvent` per record.
/// Returns an event/source tally used for the equality check.
fn decode_record_path(path: &Path) -> (u64, u64) {
    let reader = BufReader::with_capacity(OLD_BUF_BYTES, File::open(path).expect("open trace"));
    let reader = BinaryReader::new(reader).expect("magic");
    let mut events = 0u64;
    let mut source_sum = 0u64;
    for event in reader {
        match event.expect("valid trace") {
            TraceEvent::Learned { sources, .. } => {
                events += 1;
                source_sum += sources.iter().sum::<u64>();
            }
            TraceEvent::LevelZero { antecedent, .. } => {
                events += 1;
                source_sum += antecedent;
            }
            TraceEvent::FinalConflict { id } => {
                events += 1;
                source_sum += id;
            }
        }
    }
    (events, source_sum)
}

/// Folds one borrowed event into the (events, source checksum) tally
/// the decode rows compare against the fixture.
fn tally((events, source_sum): &mut (u64, u64), event: EventRef<'_>) {
    *events += 1;
    *source_sum += match event {
        EventRef::Learned { sources, .. } => sources.iter().sum::<u64>(),
        EventRef::LevelZero { antecedent, .. } => antecedent,
        EventRef::FinalConflict { id } => id,
    };
}

/// The block decoder over the raw file through the borrowed lending
/// API — no per-event heap allocation.
fn decode_block_path(path: &Path) -> (u64, u64) {
    let mut decoder = BlockDecoder::new(File::open(path).expect("open trace")).expect("magic");
    let mut totals = (0, 0);
    while let Some(event) = decoder.next_event().expect("valid trace") {
        tally(&mut totals, event);
    }
    totals
}

/// The map ingestion path: the whole slice of a map decoded in place
/// on one thread, where the win over the buffered reader is the absence
/// of read syscalls and per-event allocation.
fn decode_map(map: &TraceMap) -> (u64, u64) {
    let mut decoder = SliceDecoder::new(map.bytes()).expect("magic");
    let mut totals = (0, 0);
    while let Some(event) = decoder.next_event().expect("valid trace") {
        tally(&mut totals, event);
    }
    totals
}

/// Fetches every offset through the trace's random-access cursor —
/// window reads on a [`FileTrace`], the bytes in place on a
/// [`TraceMap`] — and returns a content checksum.
fn fetch_all(trace: &dyn TraceSource, offsets: &[u64]) -> u64 {
    let mut cursor = trace.open_cursor().expect("cursor");
    let mut sum = 0u64;
    for &off in offsets {
        match cursor.event_at(off).expect("valid trace") {
            TraceEvent::Learned { sources, .. } => sum += sources.iter().sum::<u64>(),
            TraceEvent::LevelZero { antecedent, .. } => sum += antecedent,
            TraceEvent::FinalConflict { id } => sum += id,
        }
    }
    sum
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let json_path = take_json_flag(&mut args);
    let mut rows: Vec<Json> = Vec::new();

    // ---- DIMACS parsing: per-line reference vs block scanner.
    let (cnf_path, cnf_bytes) = dimacs_fixture(4_000, 150_000, 0x10b37c);
    let reference = parse_lines_path(&cnf_path);
    let scanned = dimacs::read_file(&cnf_path).expect("valid dimacs");
    assert_eq!(reference, scanned, "parsers disagree on the fixture");

    let old_parse = bench("io/parse/lines", || {
        std::hint::black_box(parse_lines_path(&cnf_path));
    });
    let new_parse = bench("io/parse/scanner", || {
        std::hint::black_box(dimacs::read_file(&cnf_path).expect("valid dimacs"));
    });
    let parse_speedup = old_parse.min.as_secs_f64() / new_parse.min.as_secs_f64().max(1e-12);
    println!("io/speedup/parse: {parse_speedup:.2}x");
    let mut row = Json::object();
    row.set("name", "parse")
        .set("input_bytes", cnf_bytes)
        .set("clauses", scanned.num_clauses())
        .set("old_min_seconds", old_parse.min.as_secs_f64())
        .set("new_min_seconds", new_parse.min.as_secs_f64())
        .set("old_median_seconds", old_parse.median.as_secs_f64())
        .set("new_median_seconds", new_parse.median.as_secs_f64())
        .set("speedup", parse_speedup);
    rows.push(row);

    // ---- Binary trace decoding: per-record reader vs block decoder.
    let (trace_path, trace_bytes) = trace_fixture(120_000, 0xdec0de);
    let expected = decode_record_path(&trace_path);
    assert_eq!(
        decode_block_path(&trace_path),
        expected,
        "decoders disagree on the fixture"
    );

    let old_decode = bench("io/decode/record", || {
        std::hint::black_box(decode_record_path(&trace_path));
    });
    let new_decode = bench("io/decode/block", || {
        std::hint::black_box(decode_block_path(&trace_path));
    });
    let decode_speedup = old_decode.min.as_secs_f64() / new_decode.min.as_secs_f64().max(1e-12);
    println!("io/speedup/decode: {decode_speedup:.2}x");
    let mut row = Json::object();
    row.set("name", "decode")
        .set("input_bytes", trace_bytes)
        .set("events", expected.0)
        .set("old_min_seconds", old_decode.min.as_secs_f64())
        .set("new_min_seconds", new_decode.min.as_secs_f64())
        .set("old_median_seconds", old_decode.median.as_secs_f64())
        .set("new_median_seconds", new_decode.median.as_secs_f64())
        .set("speedup", decode_speedup);
    rows.push(row);

    // ---- Map ingestion: the buffered per-record reader (the same
    // baseline as the decode row) vs the in-place decode of a map.
    let map = TraceMap::open(&trace_path).expect("map fixture");
    assert_eq!(
        decode_map(&map),
        expected,
        "map decode disagrees with the fixture"
    );
    let map_decode = bench("io/decode/map", || {
        std::hint::black_box(decode_map(&map));
    });
    let map_speedup = old_decode.min.as_secs_f64() / map_decode.min.as_secs_f64().max(1e-12);
    println!("io/speedup/decode-map: {map_speedup:.2}x");
    let mut row = Json::object();
    row.set("name", "decode-map")
        .set("input_bytes", trace_bytes)
        .set("events", expected.0)
        .set("old_min_seconds", old_decode.min.as_secs_f64())
        .set("new_min_seconds", map_decode.min.as_secs_f64())
        .set("old_median_seconds", old_decode.median.as_secs_f64())
        .set("new_median_seconds", map_decode.median.as_secs_f64())
        .set("speedup", map_speedup);
    rows.push(row);
    drop(map);

    // ---- Random-access fetch: windowed file cursor vs map cursor over
    // the same shuffled offsets (the disk-depth-first access pattern).
    let unmapped = FileTrace::open(&trace_path).expect("open trace");
    let mut offsets: Vec<u64> = Vec::new();
    unmapped
        .visit_offsets(&mut |offset, _| {
            offsets.push(offset);
            Ok(())
        })
        .expect("valid trace");
    let mut rng = SplitMix64::new(0xfe7c4);
    for i in (1..offsets.len()).rev() {
        offsets.swap(i, rng.range_usize(0..i + 1));
    }
    offsets.truncate(30_000);
    let mapped = TraceMap::open(&trace_path).expect("map fixture");
    let checksum = fetch_all(&unmapped, &offsets);
    assert_eq!(
        fetch_all(&mapped, &offsets),
        checksum,
        "cursors disagree on the fixture"
    );
    let old_fetch = bench("io/fetch/window", || {
        std::hint::black_box(fetch_all(&unmapped, &offsets));
    });
    let new_fetch = bench("io/fetch/map", || {
        std::hint::black_box(fetch_all(&mapped, &offsets));
    });
    let fetch_speedup = old_fetch.min.as_secs_f64() / new_fetch.min.as_secs_f64().max(1e-12);
    println!("io/speedup/fetch: {fetch_speedup:.2}x");
    let mut row = Json::object();
    row.set("name", "dfd-fetch")
        .set("input_bytes", trace_bytes)
        .set("fetches", offsets.len())
        .set("old_min_seconds", old_fetch.min.as_secs_f64())
        .set("new_min_seconds", new_fetch.min.as_secs_f64())
        .set("old_median_seconds", old_fetch.median.as_secs_f64())
        .set("new_median_seconds", new_fetch.median.as_secs_f64())
        .set("speedup", fetch_speedup);
    rows.push(row);

    // ---- Proof emission and ingestion over a real refutation: solve a
    // pigeonhole instance, export its trace to LRAT, and project the
    // hint-free DRAT variant of the same proof.
    let instance = rescheck_workloads::pigeonhole::instance(7);
    let mut solver = rescheck_solver::Solver::from_cnf(
        &instance.cnf,
        rescheck_solver::SolverConfig {
            seed: 0x1a7,
            ..rescheck_solver::SolverConfig::default()
        },
    );
    let mut sink = rescheck_trace::MemorySink::new();
    assert!(
        solver
            .solve_traced(&mut sink)
            .expect("memory sink")
            .is_unsat(),
        "pigeonhole fixture must be UNSAT"
    );
    let exported =
        rescheck_interop::export_lrat(&instance.cnf, sink.events()).expect("export fixture");
    let drat_steps: Vec<rescheck_interop::DratStep> = exported
        .steps
        .iter()
        .filter_map(|step| match step {
            rescheck_interop::LratStep::Add { lits, .. } => {
                Some(rescheck_interop::DratStep::Add(lits.clone()))
            }
            // Deletions are dropped from the projection: DRAT deletes by
            // literals and the ingester would just warn on stale ids; the
            // ingestion row measures derivation work, not bookkeeping.
            rescheck_interop::LratStep::Delete { .. } => None,
        })
        .collect();
    let mut lrat_text = Vec::new();
    rescheck_interop::lrat::write_text(&mut lrat_text, &exported.steps).expect("encode text");
    let lrat_binary = rescheck_interop::lrat::write_binary(&exported.steps);
    assert_eq!(
        rescheck_interop::lrat::parse(&lrat_binary).expect("binary round-trip"),
        exported.steps,
        "LRAT encodings disagree on the fixture"
    );

    let old_emit = bench("io/proof-emit/text", || {
        let mut text = Vec::new();
        rescheck_interop::lrat::write_text(&mut text, &exported.steps).expect("encode text");
        std::hint::black_box(text);
    });
    let new_emit = bench("io/proof-emit/binary", || {
        std::hint::black_box(rescheck_interop::lrat::write_binary(&exported.steps));
    });
    let emit_speedup = old_emit.min.as_secs_f64() / new_emit.min.as_secs_f64().max(1e-12);
    println!("io/speedup/proof-emit: {emit_speedup:.2}x");
    let mut row = Json::object();
    row.set("name", "proof-emit")
        .set("steps", exported.steps.len())
        .set("text_bytes", lrat_text.len())
        .set("binary_bytes", lrat_binary.len())
        .set("old_min_seconds", old_emit.min.as_secs_f64())
        .set("new_min_seconds", new_emit.min.as_secs_f64())
        .set("old_median_seconds", old_emit.median.as_secs_f64())
        .set("new_median_seconds", new_emit.median.as_secs_f64())
        .set("speedup", emit_speedup);
    rows.push(row);

    let drat_report =
        rescheck_interop::ingest_drat(&instance.cnf, &drat_steps).expect("DRAT fixture ingests");
    let lrat_report = rescheck_interop::ingest_lrat(&instance.cnf, &exported.steps)
        .expect("LRAT fixture ingests");
    // DRAT's eager forward checking can complete the refutation a few
    // additions early (a unit lemma propagates straight to the empty
    // clause), so the tallies need not be identical — but both front
    // ends must fully verify the proof.
    assert!(
        drat_report.resolution_checkable() && lrat_report.resolution_checkable(),
        "the ingestion fixtures must verify"
    );
    assert!(
        drat_report.stats.additions <= lrat_report.stats.additions,
        "DRAT ingested more additions than the proof contains"
    );
    let old_ingest = bench("io/proof-ingest/drat", || {
        std::hint::black_box(
            rescheck_interop::ingest_drat(&instance.cnf, &drat_steps).expect("ingest"),
        );
    });
    let new_ingest = bench("io/proof-ingest/lrat", || {
        std::hint::black_box(
            rescheck_interop::ingest_lrat(&instance.cnf, &exported.steps).expect("ingest"),
        );
    });
    let ingest_speedup = old_ingest.min.as_secs_f64() / new_ingest.min.as_secs_f64().max(1e-12);
    println!("io/speedup/proof-ingest: {ingest_speedup:.2}x");
    let mut row = Json::object();
    row.set("name", "proof-ingest")
        .set("additions", lrat_report.stats.additions)
        .set("old_min_seconds", old_ingest.min.as_secs_f64())
        .set("new_min_seconds", new_ingest.min.as_secs_f64())
        .set("old_median_seconds", old_ingest.median.as_secs_f64())
        .set("new_median_seconds", new_ingest.median.as_secs_f64())
        .set("speedup", ingest_speedup);
    rows.push(row);

    std::fs::remove_file(&cnf_path).ok();
    std::fs::remove_file(&trace_path).ok();

    if let Some(path) = json_path {
        let mut doc = Json::object();
        doc.set("schema", SCHEMA)
            .set("command", "bench:io")
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
