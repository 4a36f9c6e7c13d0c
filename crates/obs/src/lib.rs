//! Dependency-free observability for the rescheck workspace.
//!
//! The paper's evaluation is all measurement — trace-generation overhead,
//! checker runtime, peak memory, fraction of learned clauses rebuilt — so
//! this crate gives every layer a shared instrumentation vocabulary
//! without pulling in `tracing` or `serde` (the build environment is
//! offline):
//!
//! - [`Observer`] / [`Event`]: a structured event stream with borrowed,
//!   allocation-free payloads; [`NullObserver`] is the zero-cost default
//!   and [`Tee`] fans out to two observers.
//! - [`Span`] / [`Phase`]: hierarchical wall-clock timers — spans nest
//!   (`check > check:df > check:pass1`) via a thread-local parent stack,
//!   and the classic phase timer is a span under the hood.
//! - [`Registry`] / [`MetricsSink`]: monotonic counters, gauges,
//!   accumulated phase timings, log-bucketed [`Histogram`]s and span
//!   trees, serialisable as JSON (and re-readable via
//!   [`Registry::from_json`]).
//! - [`FlightRecorder`]: a bounded ring of recent events dumped as a
//!   `*.flight.json` post-mortem when a check fails.
//! - [`metrics_document`]: the `rescheck-metrics-v2` document every
//!   command and verdict frame reports.
//! - [`prom`]: Prometheus text-exposition rendering for `--metrics-format
//!   prom`.
//! - [`Json`]: a hand-rolled JSON value with a stable emitter and a
//!   parser used by the schema tests.
//! - [`ProgressReporter`] / [`LogConfig`]: a rate-limited stderr
//!   heartbeat controlled by the `RESCHECK_LOG` env filter.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod buffer;
pub mod flight;
pub mod histogram;
pub mod json;
pub mod metrics;
pub mod observer;
pub mod progress;
pub mod prom;
pub mod report;
pub mod span;

pub use buffer::OwnedEvent;
pub use flight::{FlightRecorder, DEFAULT_FLIGHT_CAPACITY, FLIGHT_SCHEMA};
pub use histogram::Histogram;
pub use json::{Json, ParseError};
pub use metrics::{Registry, SpanRec};
pub use observer::{Event, Level, MetricsSink, NullObserver, Observer, Tee};
pub use progress::{LogConfig, ProgressReporter};
pub use report::{metrics_document, SCHEMA, SCHEMA_V1};
pub use span::{Phase, Span};
