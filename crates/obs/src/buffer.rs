//! Cross-thread event buffering for parallel components.
//!
//! [`Event`] borrows its string fields, so it cannot be sent between
//! threads or stored beyond the `observe` call. Parallel code (the
//! parallel-dag executor's workers) instead gives each worker its own
//! [`EventBuffer`] — an owned, `Send` recording of everything the worker
//! emitted — and replays the buffers into the real observer on the
//! coordinating thread once the workers are joined.

use crate::observer::{Event, Level, Observer};
use std::time::Duration;

/// An owned counterpart of [`Event`], safe to move across threads.
#[derive(Clone, Debug, PartialEq)]
pub enum OwnedEvent {
    /// See [`Event::PhaseStarted`].
    PhaseStarted {
        /// The phase name.
        phase: String,
    },
    /// See [`Event::PhaseFinished`].
    PhaseFinished {
        /// The phase name.
        phase: String,
        /// Wall-clock duration of the phase.
        wall: Duration,
    },
    /// See [`Event::SpanStarted`].
    SpanStarted {
        /// Process-unique span id.
        id: u64,
        /// Parent span id, if nested.
        parent: Option<u64>,
        /// The span name.
        name: String,
    },
    /// See [`Event::SpanFinished`].
    SpanFinished {
        /// The span's id.
        id: u64,
        /// The span name.
        name: String,
        /// Wall-clock duration of the span.
        wall: Duration,
    },
    /// See [`Event::CounterAdd`].
    CounterAdd {
        /// Dotted counter name.
        name: String,
        /// Amount added.
        delta: u64,
    },
    /// See [`Event::GaugeSet`].
    GaugeSet {
        /// Dotted gauge name.
        name: String,
        /// The new value.
        value: f64,
    },
    /// See [`Event::HistRecord`].
    HistRecord {
        /// Dotted histogram name.
        name: String,
        /// The sample.
        value: u64,
    },
    /// See [`Event::Progress`].
    Progress {
        /// The phase reporting progress.
        phase: String,
        /// Work completed so far, in `unit`s.
        done: u64,
        /// What `done` counts.
        unit: String,
        /// Optional preformatted detail.
        detail: Option<String>,
    },
    /// See [`Event::Decision`]. Captured only by
    /// [`from_event_full`](OwnedEvent::from_event_full).
    Decision {
        /// 1-based decision number.
        number: u64,
    },
    /// See [`Event::Conflict`]. Captured only by `from_event_full`.
    Conflict {
        /// 1-based conflict number.
        number: u64,
        /// Decision level at which the conflict occurred.
        decision_level: u32,
    },
    /// See [`Event::Restart`]. Captured only by `from_event_full`.
    Restart {
        /// 1-based restart number.
        number: u64,
        /// Conflicts since the previous restart.
        conflicts_since: u64,
    },
    /// See [`Event::ClauseLearned`]. Captured only by `from_event_full`.
    ClauseLearned {
        /// The clause's trace ID.
        id: u64,
        /// Number of literals in the learned clause.
        literals: u64,
    },
    /// See [`Event::DbReduced`]. Captured only by `from_event_full`.
    DbReduced {
        /// Learned clauses kept.
        kept: u64,
        /// Learned clauses deleted.
        deleted: u64,
    },
    /// See [`Event::Message`].
    Message {
        /// Severity.
        level: Level,
        /// The text.
        text: String,
    },
}

impl OwnedEvent {
    /// Copies a borrowed event into its owned form.
    ///
    /// Discrete solver events ([`Event::Decision`], [`Event::Conflict`],
    /// …) are not buffered: workers in the checking subsystem never emit
    /// them, and buffering one per conflict would defeat the
    /// allocation-free design of the hot path. Returns `None` for those.
    /// The flight recorder, which *wants* per-decision granularity, uses
    /// [`from_event_full`](Self::from_event_full) instead.
    pub fn from_event(event: &Event<'_>) -> Option<OwnedEvent> {
        Some(match event {
            Event::PhaseStarted { phase } => OwnedEvent::PhaseStarted {
                phase: (*phase).to_string(),
            },
            Event::PhaseFinished { phase, wall } => OwnedEvent::PhaseFinished {
                phase: (*phase).to_string(),
                wall: *wall,
            },
            Event::SpanStarted { id, parent, name } => OwnedEvent::SpanStarted {
                id: *id,
                parent: *parent,
                name: (*name).to_string(),
            },
            Event::SpanFinished { id, name, wall } => OwnedEvent::SpanFinished {
                id: *id,
                name: (*name).to_string(),
                wall: *wall,
            },
            Event::CounterAdd { name, delta } => OwnedEvent::CounterAdd {
                name: (*name).to_string(),
                delta: *delta,
            },
            Event::GaugeSet { name, value } => OwnedEvent::GaugeSet {
                name: (*name).to_string(),
                value: *value,
            },
            Event::HistRecord { name, value } => OwnedEvent::HistRecord {
                name: (*name).to_string(),
                value: *value,
            },
            Event::Progress {
                phase,
                done,
                unit,
                detail,
            } => OwnedEvent::Progress {
                phase: (*phase).to_string(),
                done: *done,
                unit: (*unit).to_string(),
                detail: detail.map(str::to_string),
            },
            Event::Message { level, text } => OwnedEvent::Message {
                level: *level,
                text: (*text).to_string(),
            },
            _ => return None,
        })
    }

    /// Copies *any* borrowed event into its owned form, including the
    /// discrete solver events [`from_event`](Self::from_event) drops.
    /// This is the flight recorder's capture path.
    pub fn from_event_full(event: &Event<'_>) -> OwnedEvent {
        if let Some(owned) = Self::from_event(event) {
            return owned;
        }
        match event {
            Event::Decision { number } => OwnedEvent::Decision { number: *number },
            Event::Conflict {
                number,
                decision_level,
            } => OwnedEvent::Conflict {
                number: *number,
                decision_level: *decision_level,
            },
            Event::Restart {
                number,
                conflicts_since,
            } => OwnedEvent::Restart {
                number: *number,
                conflicts_since: *conflicts_since,
            },
            Event::ClauseLearned { id, literals } => OwnedEvent::ClauseLearned {
                id: *id,
                literals: *literals,
            },
            Event::DbReduced { kept, deleted } => OwnedEvent::DbReduced {
                kept: *kept,
                deleted: *deleted,
            },
            _ => unreachable!("from_event covers every replayable variant"),
        }
    }
}

/// A `Send` observer that records owned copies of the events it sees,
/// for later replay on another thread.
///
/// # Examples
///
/// ```
/// use rescheck_obs::{Event, EventBuffer, MetricsSink, Observer};
///
/// // A worker thread records into its own buffer…
/// let mut buffer = EventBuffer::new();
/// buffer.observe(&Event::GaugeSet { name: "check.resolutions", value: 42.0 });
///
/// // …and the coordinator replays it into its own observer.
/// let mut sink = MetricsSink::new();
/// buffer.replay(&mut sink);
/// assert_eq!(sink.registry().gauge("check.resolutions"), Some(42.0));
/// ```
#[derive(Clone, Debug, Default)]
pub struct EventBuffer {
    events: Vec<OwnedEvent>,
}

impl EventBuffer {
    /// An empty buffer.
    pub fn new() -> Self {
        EventBuffer::default()
    }

    /// The recorded events, in emission order.
    pub fn events(&self) -> &[OwnedEvent] {
        &self.events
    }

    /// Returns `true` if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Replays every buffered event into `obs` unchanged.
    pub fn replay(&self, obs: &mut dyn Observer) {
        for event in &self.events {
            match event {
                OwnedEvent::PhaseStarted { phase } => {
                    obs.observe(&Event::PhaseStarted { phase });
                }
                OwnedEvent::PhaseFinished { phase, wall } => {
                    obs.observe(&Event::PhaseFinished { phase, wall: *wall });
                }
                OwnedEvent::SpanStarted { id, parent, name } => {
                    obs.observe(&Event::SpanStarted {
                        id: *id,
                        parent: *parent,
                        name,
                    });
                }
                OwnedEvent::SpanFinished { id, name, wall } => {
                    obs.observe(&Event::SpanFinished {
                        id: *id,
                        name,
                        wall: *wall,
                    });
                }
                OwnedEvent::CounterAdd { name, delta } => {
                    obs.observe(&Event::CounterAdd {
                        name,
                        delta: *delta,
                    });
                }
                OwnedEvent::GaugeSet { name, value } => {
                    obs.observe(&Event::GaugeSet {
                        name,
                        value: *value,
                    });
                }
                OwnedEvent::HistRecord { name, value } => {
                    obs.observe(&Event::HistRecord {
                        name,
                        value: *value,
                    });
                }
                OwnedEvent::Progress {
                    phase,
                    done,
                    unit,
                    detail,
                } => {
                    obs.observe(&Event::Progress {
                        phase,
                        done: *done,
                        unit,
                        detail: detail.as_deref(),
                    });
                }
                OwnedEvent::Decision { number } => {
                    obs.observe(&Event::Decision { number: *number });
                }
                OwnedEvent::Conflict {
                    number,
                    decision_level,
                } => {
                    obs.observe(&Event::Conflict {
                        number: *number,
                        decision_level: *decision_level,
                    });
                }
                OwnedEvent::Restart {
                    number,
                    conflicts_since,
                } => {
                    obs.observe(&Event::Restart {
                        number: *number,
                        conflicts_since: *conflicts_since,
                    });
                }
                OwnedEvent::ClauseLearned { id, literals } => {
                    obs.observe(&Event::ClauseLearned {
                        id: *id,
                        literals: *literals,
                    });
                }
                OwnedEvent::DbReduced { kept, deleted } => {
                    obs.observe(&Event::DbReduced {
                        kept: *kept,
                        deleted: *deleted,
                    });
                }
                OwnedEvent::Message { level, text } => {
                    obs.observe(&Event::Message {
                        level: *level,
                        text,
                    });
                }
            }
        }
    }
}

impl Observer for EventBuffer {
    fn observe(&mut self, event: &Event<'_>) {
        if let Some(owned) = OwnedEvent::from_event(event) {
            self.events.push(owned);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MetricsSink;

    #[test]
    fn buffers_and_replays_everything_replayable() {
        let mut buf = EventBuffer::new();
        buf.observe(&Event::PhaseStarted { phase: "p" });
        buf.observe(&Event::PhaseFinished {
            phase: "p",
            wall: Duration::from_millis(5),
        });
        buf.observe(&Event::CounterAdd {
            name: "c",
            delta: 3,
        });
        buf.observe(&Event::GaugeSet {
            name: "g",
            value: 2.0,
        });
        buf.observe(&Event::HistRecord {
            name: "h",
            value: 12,
        });
        buf.observe(&Event::SpanStarted {
            id: 91,
            parent: None,
            name: "s",
        });
        buf.observe(&Event::SpanFinished {
            id: 91,
            name: "s",
            wall: Duration::from_millis(1),
        });
        buf.observe(&Event::Progress {
            phase: "p",
            done: 10,
            unit: "clauses",
            detail: Some("d"),
        });
        buf.observe(&Event::Message {
            level: Level::Info,
            text: "hi",
        });
        // Discrete solver events are intentionally dropped.
        buf.observe(&Event::Decision { number: 1 });
        assert_eq!(buf.events().len(), 9);
        assert!(!buf.is_empty());

        let mut sink = MetricsSink::new();
        buf.replay(&mut sink);
        assert_eq!(sink.registry().counter("c"), Some(3));
        assert_eq!(sink.registry().gauge("g"), Some(2.0));
        assert_eq!(sink.registry().histogram("h").map(|h| h.count()), Some(1));
        assert_eq!(sink.registry().spans().len(), 1);
        assert!(sink.registry().phase_seconds("p").is_some());
    }

    #[test]
    fn from_event_full_captures_discrete_solver_events() {
        let owned = OwnedEvent::from_event_full(&Event::Conflict {
            number: 3,
            decision_level: 2,
        });
        assert_eq!(
            owned,
            OwnedEvent::Conflict {
                number: 3,
                decision_level: 2
            }
        );
        assert_eq!(
            OwnedEvent::from_event_full(&Event::Decision { number: 1 }),
            OwnedEvent::Decision { number: 1 }
        );
        // …and still agrees with from_event on replayable kinds.
        assert_eq!(
            OwnedEvent::from_event_full(&Event::CounterAdd {
                name: "c",
                delta: 1
            }),
            OwnedEvent::CounterAdd {
                name: "c".to_string(),
                delta: 1
            }
        );
    }

    #[test]
    fn buffer_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<EventBuffer>();
        assert_send::<OwnedEvent>();
    }
}
