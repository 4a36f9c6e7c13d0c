//! The [`Observer`] trait and the structured events flowing through it.

use crate::metrics::Registry;
use std::time::Duration;

/// Severity of a [`Event::Message`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Something failed.
    Error,
    /// Something looks wrong but the run continues.
    Warn,
    /// High-level progress (the `--progress` default).
    Info,
    /// Per-phase and per-restart detail.
    Debug,
    /// Everything, including per-clause events.
    Trace,
}

impl Level {
    /// The lowercase label (`"error"`, `"warn"`, …).
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
            Level::Trace => "trace",
        }
    }
}

/// A structured event emitted by an instrumented component.
///
/// Events borrow their string fields, so emitting one is allocation-free;
/// observers that need to keep data copy it out.
#[derive(Clone, Debug, PartialEq)]
pub enum Event<'a> {
    /// A named phase began (`parse`, `solve`, `trace-encode`,
    /// `check:pass1`, `check:resolve`, `final-phase`, …).
    ///
    /// [`Phase`](crate::Phase) no longer emits this (it emits span
    /// events); the variant remains for manual constructions.
    PhaseStarted {
        /// The phase name.
        phase: &'a str,
    },
    /// A named phase finished.
    PhaseFinished {
        /// The phase name.
        phase: &'a str,
        /// Wall-clock duration of the phase.
        wall: Duration,
    },
    /// A hierarchical span opened (see [`Span`](crate::Span)).
    SpanStarted {
        /// Process-unique span id.
        id: u64,
        /// The enclosing span on the same thread, if any.
        parent: Option<u64>,
        /// The span name.
        name: &'a str,
    },
    /// A hierarchical span closed.
    SpanFinished {
        /// The span's id.
        id: u64,
        /// The span name (repeated so sinks need no id→name map).
        name: &'a str,
        /// Wall-clock duration of the span.
        wall: Duration,
    },
    /// A monotonic counter increased.
    CounterAdd {
        /// Dotted counter name.
        name: &'a str,
        /// Amount added.
        delta: u64,
    },
    /// A gauge took an absolute value.
    GaugeSet {
        /// Dotted gauge name.
        name: &'a str,
        /// The new value.
        value: f64,
    },
    /// One sample for a log-bucketed histogram.
    HistRecord {
        /// Dotted histogram name.
        name: &'a str,
        /// The sample.
        value: u64,
    },
    /// A periodic heartbeat from a long-running phase.
    Progress {
        /// The phase reporting progress.
        phase: &'a str,
        /// Work completed so far, in `unit`s.
        done: u64,
        /// What `done` counts (`"conflicts"`, `"clauses"`, `"events"`).
        unit: &'a str,
        /// Optional preformatted detail for humans.
        detail: Option<&'a str>,
    },
    /// The solver made a branching decision.
    Decision {
        /// 1-based decision number.
        number: u64,
    },
    /// The solver hit a conflict.
    Conflict {
        /// 1-based conflict number.
        number: u64,
        /// Decision level at which the conflict occurred.
        decision_level: u32,
    },
    /// The solver restarted.
    Restart {
        /// 1-based restart number.
        number: u64,
        /// Conflicts since the previous restart.
        conflicts_since: u64,
    },
    /// The solver learned a clause.
    ClauseLearned {
        /// The clause's trace ID.
        id: u64,
        /// Number of literals in the learned clause.
        literals: u64,
    },
    /// The solver reduced its learned-clause database.
    DbReduced {
        /// Learned clauses kept.
        kept: u64,
        /// Learned clauses deleted.
        deleted: u64,
    },
    /// A freeform message.
    Message {
        /// Severity.
        level: Level,
        /// The text.
        text: &'a str,
    },
}

/// A consumer of structured events.
///
/// Implementations must be cheap for events they ignore: the solver emits
/// one event per decision and per conflict on instrumented runs.
pub trait Observer {
    /// Receives one event.
    fn observe(&mut self, event: &Event<'_>);
}

/// An observer that discards everything (the uninstrumented default).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NullObserver;

impl Observer for NullObserver {
    fn observe(&mut self, _event: &Event<'_>) {}
}

/// Fans every event out to two observers.
///
/// # Examples
///
/// ```
/// use rescheck_obs::{Event, MetricsSink, NullObserver, Observer, Tee};
///
/// let mut metrics = MetricsSink::new();
/// let mut null = NullObserver;
/// let mut tee = Tee::new(&mut metrics, &mut null);
/// tee.observe(&Event::CounterAdd { name: "x", delta: 2 });
/// assert_eq!(metrics.registry().counter("x"), Some(2));
/// ```
pub struct Tee<'a> {
    first: &'a mut dyn Observer,
    second: &'a mut dyn Observer,
}

impl<'a> Tee<'a> {
    /// Combines two observers.
    pub fn new(first: &'a mut dyn Observer, second: &'a mut dyn Observer) -> Self {
        Tee { first, second }
    }
}

impl Observer for Tee<'_> {
    fn observe(&mut self, event: &Event<'_>) {
        self.first.observe(event);
        self.second.observe(event);
    }
}

/// An observer that accumulates phases, counters, gauges, histograms and
/// span trees into a [`Registry`] for JSON emission.
///
/// Discrete solver events ([`Event::Decision`], [`Event::Conflict`], …)
/// are intentionally *not* counted here: the authoritative totals arrive
/// as [`Event::CounterAdd`] flushes from the component's own statistics,
/// and counting both would double-report. [`Event::ClauseLearned`] *is*
/// sampled into the `solver.learned_len` histogram — a distribution the
/// flushed totals cannot reconstruct, and histograms have no
/// double-reporting hazard.
///
/// Span finishes record both the span tree node and a phase timing under
/// the span's name, which keeps the v1 `phases` keys populated now that
/// [`Phase`](crate::Phase) is span-backed.
#[derive(Clone, Debug, Default)]
pub struct MetricsSink {
    registry: Registry,
}

impl MetricsSink {
    /// An empty sink.
    pub fn new() -> Self {
        MetricsSink::default()
    }

    /// The accumulated registry.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Mutable access, for callers that record directly.
    pub fn registry_mut(&mut self) -> &mut Registry {
        &mut self.registry
    }

    /// Consumes the sink and returns the registry.
    pub fn into_registry(self) -> Registry {
        self.registry
    }
}

impl Observer for MetricsSink {
    fn observe(&mut self, event: &Event<'_>) {
        match event {
            Event::PhaseFinished { phase, wall } => self.registry.record_phase(phase, *wall),
            Event::SpanStarted { id, parent, name } => {
                self.registry.record_span_start(*id, *parent, name);
            }
            Event::SpanFinished { id, name, wall } => {
                self.registry.record_span_finish(*id, name, *wall);
                self.registry.record_phase(name, *wall);
            }
            Event::CounterAdd { name, delta } => self.registry.inc(name, *delta),
            Event::GaugeSet { name, value } => self.registry.set_gauge(name, *value),
            Event::HistRecord { name, value } => self.registry.record_hist(name, *value),
            Event::ClauseLearned { literals, .. } => {
                self.registry.record_hist("solver.learned_len", *literals);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_sink_accumulates_the_right_events() {
        let mut sink = MetricsSink::new();
        sink.observe(&Event::CounterAdd {
            name: "c",
            delta: 2,
        });
        sink.observe(&Event::CounterAdd {
            name: "c",
            delta: 3,
        });
        sink.observe(&Event::GaugeSet {
            name: "g",
            value: 1.5,
        });
        sink.observe(&Event::PhaseFinished {
            phase: "solve",
            wall: Duration::from_millis(20),
        });
        sink.observe(&Event::HistRecord {
            name: "h",
            value: 9,
        });
        // Ignored kinds:
        sink.observe(&Event::Decision { number: 1 });
        sink.observe(&Event::Conflict {
            number: 1,
            decision_level: 3,
        });
        sink.observe(&Event::Progress {
            phase: "solve",
            done: 10,
            unit: "conflicts",
            detail: None,
        });
        let reg = sink.registry();
        assert_eq!(reg.counter("c"), Some(5));
        assert_eq!(reg.gauge("g"), Some(1.5));
        assert_eq!(reg.phase_names(), vec!["solve"]);
        assert_eq!(reg.histogram("h").map(|h| h.count()), Some(1));
        assert_eq!(reg.counter("events.decisions"), None);
    }

    #[test]
    fn span_finish_records_both_tree_node_and_phase() {
        let mut sink = MetricsSink::new();
        sink.observe(&Event::SpanStarted {
            id: 7,
            parent: None,
            name: "check",
        });
        sink.observe(&Event::SpanStarted {
            id: 8,
            parent: Some(7),
            name: "check:pass1",
        });
        sink.observe(&Event::SpanFinished {
            id: 8,
            name: "check:pass1",
            wall: Duration::from_millis(5),
        });
        sink.observe(&Event::SpanFinished {
            id: 7,
            name: "check",
            wall: Duration::from_millis(9),
        });
        let reg = sink.registry();
        assert_eq!(reg.phase_names(), vec!["check:pass1", "check"]);
        let spans = reg.to_json();
        let roots = spans.get("spans").unwrap();
        let crate::json::Json::Array(roots) = roots else {
            panic!("spans must be an array");
        };
        assert_eq!(roots.len(), 1);
        assert_eq!(roots[0].get("name").unwrap().as_str(), Some("check"));
    }

    #[test]
    fn clause_learned_feeds_the_length_histogram() {
        let mut sink = MetricsSink::new();
        sink.observe(&Event::ClauseLearned { id: 5, literals: 3 });
        sink.observe(&Event::ClauseLearned { id: 6, literals: 7 });
        let h = sink.registry().histogram("solver.learned_len").unwrap();
        assert_eq!(h.count(), 2);
        assert_eq!(h.max(), Some(7));
    }

    #[test]
    fn tee_duplicates() {
        let mut a = MetricsSink::new();
        let mut b = MetricsSink::new();
        let mut tee = Tee::new(&mut a, &mut b);
        tee.observe(&Event::CounterAdd {
            name: "n",
            delta: 1,
        });
        assert_eq!(a.registry().counter("n"), Some(1));
        assert_eq!(b.registry().counter("n"), Some(1));
    }

    #[test]
    fn levels_order() {
        assert!(Level::Error < Level::Warn);
        assert!(Level::Info < Level::Debug);
        assert!(Level::Debug < Level::Trace);
        assert_eq!(Level::Warn.as_str(), "warn");
    }

    #[test]
    fn null_observer_is_a_no_op() {
        let mut null = NullObserver;
        null.observe(&Event::Restart {
            number: 1,
            conflicts_since: 128,
        });
    }
}
