//! The crash flight recorder: a bounded ring of recent events.
//!
//! A [`FlightRecorder`] keeps the last `capacity` events (default 4096)
//! it observed, each stamped with a sequence number and the time since
//! the recorder started. When a check fails, a fuzz oracle disagrees or
//! a resource limit trips, the ring is dumped as a `*.flight.json`
//! document — a "last 4k events before death" black box that rides
//! along with the repro bundle.
//!
//! The recorder captures *everything*, including per-decision solver
//! events, via [`OwnedEvent::from_event_full`]; it is meant for the
//! check/fuzz paths, not the solver's uninstrumented hot loop.
//!
//! Span ids are process-global and therefore differ between runs; the
//! dump renumbers them densely in order of first appearance so that two
//! identical runs produce byte-identical dumps. `deterministic()` mode
//! additionally drops timestamps and zeroes durations, which is what
//! the fuzzer's reproducible repro bundles use.

use crate::buffer::OwnedEvent;
use crate::json::Json;
use crate::observer::{Event, Observer};
use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// Default ring capacity: the "last 4k events" of the post-mortem.
pub const DEFAULT_FLIGHT_CAPACITY: usize = 4096;

/// Schema tag of the dump document.
pub const FLIGHT_SCHEMA: &str = "rescheck-flight-v1";

/// A fixed-capacity ring buffer of recent events, dumpable as JSON.
///
/// # Examples
///
/// ```
/// use rescheck_obs::{Event, FlightRecorder, Observer};
///
/// let mut flight = FlightRecorder::with_capacity(2);
/// flight.observe(&Event::Decision { number: 1 });
/// flight.observe(&Event::Decision { number: 2 });
/// flight.observe(&Event::Decision { number: 3 }); // evicts #1
/// assert_eq!(flight.len(), 2);
/// assert_eq!(flight.dropped(), 1);
/// let dump = flight.to_json();
/// assert_eq!(dump.get("schema").unwrap().as_str(), Some("rescheck-flight-v1"));
/// ```
#[derive(Debug)]
pub struct FlightRecorder {
    capacity: usize,
    next_seq: u64,
    dropped: u64,
    started: Instant,
    deterministic: bool,
    events: VecDeque<(u64, Duration, OwnedEvent)>,
}

impl Default for FlightRecorder {
    fn default() -> Self {
        FlightRecorder::new()
    }
}

impl FlightRecorder {
    /// A recorder with the default capacity.
    pub fn new() -> Self {
        FlightRecorder::with_capacity(DEFAULT_FLIGHT_CAPACITY)
    }

    /// A recorder keeping at most `capacity` events (minimum 1).
    pub fn with_capacity(capacity: usize) -> Self {
        FlightRecorder {
            capacity: capacity.max(1),
            next_seq: 0,
            dropped: 0,
            started: Instant::now(),
            deterministic: false,
            events: VecDeque::new(),
        }
    }

    /// Switches the dump to deterministic form: no timestamps, zeroed
    /// durations. Two identical event streams then produce
    /// byte-identical dumps, which the fuzzer's reproducible repro
    /// bundles require.
    pub fn deterministic(mut self) -> Self {
        self.deterministic = true;
        self
    }

    /// Events currently held.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` if nothing was recorded (or everything was evicted).
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events evicted from the ring so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The dump document: schema, capacity, drop count and the retained
    /// events oldest-first.
    pub fn to_json(&self) -> Json {
        // Renumber span ids densely by first appearance so dumps are
        // stable across runs (live ids come from a process counter).
        let mut span_ids: BTreeMap<u64, u64> = BTreeMap::new();
        for (_, _, event) in &self.events {
            if let OwnedEvent::SpanStarted { id, .. } | OwnedEvent::SpanFinished { id, .. } = event
            {
                let next = span_ids.len() as u64 + 1;
                span_ids.entry(*id).or_insert(next);
            }
        }
        let mut items = Vec::with_capacity(self.events.len());
        for (seq, t, event) in &self.events {
            items.push(self.event_json(*seq, *t, event, &span_ids));
        }
        let mut root = Json::object();
        root.set("schema", FLIGHT_SCHEMA)
            .set("capacity", self.capacity)
            .set("dropped", self.dropped)
            .set("events", Json::Array(items));
        root
    }

    fn event_json(
        &self,
        seq: u64,
        t: Duration,
        event: &OwnedEvent,
        span_ids: &BTreeMap<u64, u64>,
    ) -> Json {
        let mut node = Json::object();
        node.set("seq", seq);
        if !self.deterministic {
            node.set("t_us", t.as_micros() as u64);
        }
        let wall_of = |wall: &Duration| {
            if self.deterministic {
                0.0
            } else {
                wall.as_secs_f64()
            }
        };
        let span_of = |id: &u64| span_ids.get(id).copied().unwrap_or(0);
        match event {
            OwnedEvent::PhaseStarted { phase } => {
                node.set("kind", "phase-started")
                    .set("phase", phase.as_str());
            }
            OwnedEvent::PhaseFinished { phase, wall } => {
                node.set("kind", "phase-finished")
                    .set("phase", phase.as_str())
                    .set("wall_seconds", wall_of(wall));
            }
            OwnedEvent::SpanStarted { id, parent, name } => {
                node.set("kind", "span-started")
                    .set("id", span_of(id))
                    .set(
                        "parent",
                        match parent.map(|p| span_ids.get(&p).copied()) {
                            Some(Some(p)) => Json::UInt(p),
                            // A parent whose start fell off the ring (or
                            // was never seen) is reported as a root.
                            _ => Json::Null,
                        },
                    )
                    .set("name", name.as_str());
            }
            OwnedEvent::SpanFinished { id, name, wall } => {
                node.set("kind", "span-finished")
                    .set("id", span_of(id))
                    .set("name", name.as_str())
                    .set("wall_seconds", wall_of(wall));
            }
            OwnedEvent::CounterAdd { name, delta } => {
                node.set("kind", "counter-add")
                    .set("name", name.as_str())
                    .set("delta", *delta);
            }
            OwnedEvent::GaugeSet { name, value } => {
                node.set("kind", "gauge-set")
                    .set("name", name.as_str())
                    .set("value", *value);
            }
            OwnedEvent::HistRecord { name, value } => {
                node.set("kind", "hist-record")
                    .set("name", name.as_str())
                    .set("value", *value);
            }
            OwnedEvent::Progress {
                phase,
                done,
                unit,
                detail,
            } => {
                node.set("kind", "progress")
                    .set("phase", phase.as_str())
                    .set("done", *done)
                    .set("unit", unit.as_str());
                if let Some(detail) = detail {
                    node.set("detail", detail.as_str());
                }
            }
            OwnedEvent::Decision { number } => {
                node.set("kind", "decision").set("number", *number);
            }
            OwnedEvent::Conflict {
                number,
                decision_level,
            } => {
                node.set("kind", "conflict")
                    .set("number", *number)
                    .set("decision_level", u64::from(*decision_level));
            }
            OwnedEvent::Restart {
                number,
                conflicts_since,
            } => {
                node.set("kind", "restart")
                    .set("number", *number)
                    .set("conflicts_since", *conflicts_since);
            }
            OwnedEvent::ClauseLearned { id, literals } => {
                node.set("kind", "clause-learned")
                    .set("id", *id)
                    .set("literals", *literals);
            }
            OwnedEvent::DbReduced { kept, deleted } => {
                node.set("kind", "db-reduced")
                    .set("kept", *kept)
                    .set("deleted", *deleted);
            }
            OwnedEvent::Message { level, text } => {
                node.set("kind", "message")
                    .set("level", level.as_str())
                    .set("text", text.as_str());
            }
        }
        node
    }
}

impl Observer for FlightRecorder {
    fn observe(&mut self, event: &Event<'_>) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let t = if self.deterministic {
            Duration::ZERO
        } else {
            self.started.elapsed()
        };
        self.events
            .push_back((seq, t, OwnedEvent::from_event_full(event)));
        if self.events.len() > self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_keeps_the_newest_events() {
        let mut flight = FlightRecorder::with_capacity(3);
        for i in 0..5 {
            flight.observe(&Event::Decision { number: i });
        }
        assert_eq!(flight.len(), 3);
        assert_eq!(flight.dropped(), 2);
        let dump = flight.to_json();
        let Some(Json::Array(events)) = dump.get("events") else {
            panic!("events must be an array");
        };
        let seqs: Vec<u64> = events
            .iter()
            .map(|e| e.get("seq").unwrap().as_u64().unwrap())
            .collect();
        assert_eq!(seqs, vec![2, 3, 4]);
        assert_eq!(
            events[0].get("number").unwrap().as_u64(),
            Some(2),
            "oldest retained decision"
        );
    }

    #[test]
    fn captures_every_event_kind() {
        let mut flight = FlightRecorder::new();
        flight.observe(&Event::SpanStarted {
            id: 900,
            parent: None,
            name: "check",
        });
        flight.observe(&Event::Conflict {
            number: 1,
            decision_level: 4,
        });
        flight.observe(&Event::ClauseLearned {
            id: 10,
            literals: 3,
        });
        flight.observe(&Event::SpanFinished {
            id: 900,
            name: "check",
            wall: Duration::from_millis(7),
        });
        assert_eq!(flight.len(), 4);
        let dump = flight.to_json();
        let Some(Json::Array(events)) = dump.get("events") else {
            panic!("events must be an array");
        };
        assert_eq!(events[1].get("kind").unwrap().as_str(), Some("conflict"));
        assert_eq!(
            events[2].get("kind").unwrap().as_str(),
            Some("clause-learned")
        );
    }

    #[test]
    fn span_ids_renumber_densely() {
        let mut flight = FlightRecorder::new();
        flight.observe(&Event::SpanStarted {
            id: 7001,
            parent: None,
            name: "a",
        });
        flight.observe(&Event::SpanStarted {
            id: 9003,
            parent: Some(7001),
            name: "b",
        });
        flight.observe(&Event::SpanFinished {
            id: 9003,
            name: "b",
            wall: Duration::ZERO,
        });
        let dump = flight.to_json();
        let Some(Json::Array(events)) = dump.get("events") else {
            panic!("events must be an array");
        };
        assert_eq!(events[0].get("id").unwrap().as_u64(), Some(1));
        assert_eq!(events[1].get("id").unwrap().as_u64(), Some(2));
        assert_eq!(events[1].get("parent").unwrap().as_u64(), Some(1));
        assert_eq!(events[2].get("id").unwrap().as_u64(), Some(2));
        // A parent outside the ring window reports as a root.
        let mut tail = FlightRecorder::with_capacity(1);
        tail.observe(&Event::SpanStarted {
            id: 50,
            parent: Some(49),
            name: "child",
        });
        let dump = tail.to_json();
        let Some(Json::Array(events)) = dump.get("events") else {
            panic!("events must be an array");
        };
        assert_eq!(events[0].get("parent"), Some(&Json::Null));
    }

    #[test]
    fn deterministic_dumps_are_reproducible() {
        let run = || {
            let mut flight = FlightRecorder::with_capacity(8).deterministic();
            flight.observe(&Event::SpanStarted {
                id: crate::span::alloc_span_id(),
                parent: None,
                name: "check",
            });
            flight.observe(&Event::PhaseFinished {
                phase: "p",
                wall: Duration::from_millis(3),
            });
            flight.to_json().to_pretty_string()
        };
        let a = run();
        let b = run(); // different live span ids, same dump
        assert_eq!(a, b);
        assert!(!a.contains("t_us"));
        assert!(a.contains("\"wall_seconds\": 0.0"));
    }

    #[test]
    fn dump_has_schema_and_capacity() {
        let flight = FlightRecorder::with_capacity(16);
        let dump = flight.to_json();
        assert_eq!(dump.get("schema").unwrap().as_str(), Some(FLIGHT_SCHEMA));
        assert_eq!(dump.get("capacity").unwrap().as_u64(), Some(16));
        assert_eq!(dump.get("dropped").unwrap().as_u64(), Some(0));
        assert!(flight.is_empty());
    }
}
