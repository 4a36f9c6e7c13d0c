//! Owned copies of events, for buffers that outlive one `observe` call.
//!
//! [`Event`] borrows its string fields, so it cannot be stored beyond the
//! `observe` call or sent between threads. [`OwnedEvent`] is its owned,
//! `Send` counterpart: the [`FlightRecorder`](crate::FlightRecorder)'s
//! ring holds these.

use crate::observer::{Event, Level};
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
    /// See [`Event::Decision`].
    Decision {
        /// 1-based decision number.
        number: u64,
    },
    /// See [`Event::Conflict`].
    Conflict {
        /// 1-based conflict number.
        number: u64,
        /// Decision level at which the conflict occurred.
        decision_level: u32,
    },
    /// See [`Event::Restart`].
    Restart {
        /// 1-based restart number.
        number: u64,
        /// Conflicts since the previous restart.
        conflicts_since: u64,
    },
    /// See [`Event::ClauseLearned`].
    ClauseLearned {
        /// The clause's trace ID.
        id: u64,
        /// Number of literals in the learned clause.
        literals: u64,
    },
    /// See [`Event::DbReduced`].
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
    /// Copies any borrowed event into its owned form.
    pub fn from_event_full(event: &Event<'_>) -> OwnedEvent {
        match event {
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
            Event::Message { level, text } => OwnedEvent::Message {
                level: *level,
                text: (*text).to_string(),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        // …as well as the metric and span events.
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

    /// A recorder's ring of owned events can move to another thread.
    #[test]
    fn buffer_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<OwnedEvent>();
        assert_send::<crate::FlightRecorder>();
    }
}
