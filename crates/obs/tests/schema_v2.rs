//! End-to-end schema tests for the v2 metrics documents and flight
//! dumps: everything `obs::json` emits must re-parse to the same value,
//! and the v1 (PR 1–era) document shape must still be readable.

use rescheck_obs::{json, Event, FlightRecorder, MetricsSink, Observer, Phase, Registry, Span};

/// Drives a realistic event stream — spans, phases, histograms,
/// counters — through a `MetricsSink` and returns the registry.
fn populated_registry() -> Registry {
    let mut sink = MetricsSink::new();
    let mut root = Span::start("check", &mut sink);
    {
        let pass1 = Phase::start("check:pass1", &mut sink);
        sink.observe(&Event::CounterAdd {
            name: "check.clauses_built",
            delta: 12,
        });
        pass1.finish(&mut sink);
        let resolve = Phase::start("check:resolve", &mut sink);
        for len in [2u64, 5, 9, 40] {
            sink.observe(&Event::HistRecord {
                name: "check.resolve.chain_len",
                value: len,
            });
        }
        resolve.finish(&mut sink);
    }
    sink.observe(&Event::GaugeSet {
        name: "check.peak_memory_bytes",
        value: 8192.0,
    });
    root.stop(&mut sink);
    sink.into_registry()
}

#[test]
fn v2_document_round_trips_through_text() {
    let reg = populated_registry();
    let doc = reg.to_json();
    assert_eq!(
        doc.keys(),
        vec!["phases", "counters", "gauges", "histograms", "spans"]
    );

    // Emit → parse → compare values.
    let text = doc.to_pretty_string();
    let parsed = json::parse(&text).expect("v2 emits valid JSON");
    assert_eq!(parsed, doc);

    // Parse → Registry → emit again: same document.
    let back = Registry::from_json(&parsed).expect("v2 re-reads");
    assert_eq!(back.to_json(), doc);
    assert_eq!(back.counter("check.clauses_built"), Some(12));
    assert_eq!(
        back.histogram("check.resolve.chain_len").map(|h| h.count()),
        Some(4)
    );
}

#[test]
fn v2_span_tree_nests_phases_under_the_root() {
    let reg = populated_registry();
    let doc = reg.to_json();
    let rescheck_obs::Json::Array(roots) = doc.get("spans").unwrap() else {
        panic!("spans must be an array");
    };
    assert_eq!(roots.len(), 1);
    let root = &roots[0];
    assert_eq!(root.get("name").unwrap().as_str(), Some("check"));
    let rescheck_obs::Json::Array(children) = root.get("children").unwrap() else {
        panic!("children must be an array");
    };
    let names: Vec<&str> = children
        .iter()
        .map(|c| c.get("name").unwrap().as_str().unwrap())
        .collect();
    assert_eq!(names, vec!["check:pass1", "check:resolve"]);
    // Span finishes also feed the flat phase map (v1 compatibility).
    assert!(reg.phase_seconds("check:pass1").is_some());
    assert!(reg.phase_seconds("check").is_some());
}

#[test]
fn v1_documents_still_parse() {
    // The exact shape PR 1's `--metrics` wrote: no histograms, no spans.
    let v1_text = r#"{
  "schema": "rescheck-metrics-v1",
  "command": "check",
  "phases": {
    "parse": 0.004,
    "check:pass1": 0.125,
    "check:resolve": 1.5,
    "final-phase": 0.01
  },
  "counters": {
    "check.clauses_built": 480
  },
  "gauges": {
    "check.peak_memory_bytes": 1048576.0
  }
}
"#;
    let doc = json::parse(v1_text).expect("v1 text parses");
    assert_eq!(
        doc.get("schema").unwrap().as_str(),
        Some("rescheck-metrics-v1")
    );
    let reg = Registry::from_json(&doc).expect("v1 shape re-reads");
    assert_eq!(reg.counter("check.clauses_built"), Some(480));
    assert_eq!(reg.phase_seconds("check:resolve"), Some(1.5));
    assert_eq!(reg.gauge("check.peak_memory_bytes"), Some(1048576.0));
    assert!(reg.spans().is_empty());
    assert!(reg.histograms().next().is_none());
}

#[test]
fn flight_dump_round_trips_through_text() {
    let mut flight = FlightRecorder::with_capacity(64);
    let mut span = Span::start("check", &mut flight);
    flight.observe(&Event::Conflict {
        number: 1,
        decision_level: 2,
    });
    flight.observe(&Event::Progress {
        phase: "check:resolve",
        done: 1024,
        unit: "clauses",
        detail: Some("4 MB peak"),
    });
    flight.observe(&Event::Message {
        level: rescheck_obs::Level::Error,
        text: "INVALID proof: clause #9 unresolvable",
    });
    span.stop(&mut flight);
    let dump = flight.to_json();
    let parsed = json::parse(&dump.to_pretty_string()).expect("dump is valid JSON");
    assert_eq!(parsed, dump);
    assert_eq!(
        parsed.get("schema").unwrap().as_str(),
        Some(rescheck_obs::FLIGHT_SCHEMA)
    );
    let rescheck_obs::Json::Array(events) = parsed.get("events").unwrap() else {
        panic!("events must be an array");
    };
    assert_eq!(events.len(), 5);
    let kinds: Vec<&str> = events
        .iter()
        .map(|e| e.get("kind").unwrap().as_str().unwrap())
        .collect();
    assert_eq!(
        kinds,
        vec![
            "span-started",
            "conflict",
            "progress",
            "message",
            "span-finished"
        ]
    );
    // Ids renumber densely regardless of the live process counter.
    assert_eq!(events[0].get("id").unwrap().as_u64(), Some(1));
}
