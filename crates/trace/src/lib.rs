//! The *resolve trace* format of the rescheck toolkit.
//!
//! A resolve trace is what a [CDCL solver] emits so that an independent
//! checker can re-derive the empty clause by resolution (Zhang & Malik,
//! DATE 2003, §3.1). It records three kinds of events:
//!
//! 1. [`TraceEvent::Learned`] — a learned clause's ID together with the
//!    IDs of its *resolve sources* (the conflicting clause followed by the
//!    antecedent clauses it was resolved with, in order);
//! 2. [`TraceEvent::LevelZero`] — a variable assigned at decision level 0,
//!    with its value (encoded as the satisfied literal) and the ID of its
//!    antecedent clause, emitted in chronological (trail) order;
//! 3. [`TraceEvent::FinalConflict`] — the ID of a clause that was
//!    conflicting when the solver concluded UNSAT at decision level 0.
//!
//! Clause IDs are `u64`; IDs below the number of original clauses refer to
//! the input CNF by position, higher IDs are learned clauses.
//!
//! The crate provides a [`TraceSink`] trait for writers, with
//! [`MemorySink`], [`AsciiWriter`] and [`BinaryWriter`] implementations
//! (the paper notes that a binary encoding compacts traces 2–3x and speeds
//! up parsing), and a [`TraceSource`] trait for readers: one borrowed
//! stream of events with their offsets, restartable for the breadth-first
//! checker's two passes, plus a [`TraceCursor`] that reads one event back
//! by offset. Its sources are event slices and [`MemorySink`]s, a
//! [`FileTrace`] read from disk in either format, and a [`TraceMap`], a
//! binary trace file read into memory once.
//!
//! Every shipped reader decodes binary records through one decoder over
//! a byte slice: [`SliceDecoder`] over a trace held in memory,
//! [`BlockDecoder`] over a stream refilled block by block, and the
//! cursors on top of those two. ASCII traces are read by
//! [`AsciiReader`], which reports each record's line and its offset.
//! [`BinaryReader`] is kept only as the independent reference the
//! differential tests and benches compare against.
//!
//! [CDCL solver]: https://en.wikipedia.org/wiki/Conflict-driven_clause_learning
//!
//! # Examples
//!
//! ```
//! use rescheck_cnf::Lit;
//! use rescheck_trace::{AsciiWriter, MemorySink, TraceEvent, TraceSink, TraceSource};
//!
//! let mut sink = MemorySink::new();
//! sink.learned(5, &[0, 1, 3])?;
//! sink.level_zero(Lit::from_dimacs(-2), 5)?;
//! sink.final_conflict(4)?;
//!
//! let events: Vec<_> = sink.events().to_vec();
//! assert_eq!(events.len(), 3);
//! assert_eq!(events[2], TraceEvent::FinalConflict { id: 4 });
//!
//! // Same trace as ASCII text.
//! let mut buf = Vec::new();
//! let mut w = AsciiWriter::new(&mut buf);
//! for e in &events {
//!     w.event(e)?;
//! }
//! w.flush()?;
//! assert_eq!(String::from_utf8_lossy(&buf), "r 5 3 0 1 3\nv -2 5\nf 4\n");
//! # Ok::<(), std::io::Error>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ascii;
mod binary;
mod block;
mod event;
mod map;
pub mod mutate;
mod random;
mod sink;
mod source;
pub mod varint;

pub use ascii::{AsciiReader, AsciiWriter};
pub use binary::{BinaryReader, BinaryWriter, BINARY_MAGIC};
pub use block::{BlockDecoder, SliceDecoder};
pub use event::{EventRef, TraceEvent};
pub use map::TraceMap;
pub use mutate::{Mutation, ALL_MUTATIONS};
pub use random::TraceCursor;
pub use sink::{CountingSink, MemorySink, NullSink, TeeSink, TraceSink};
pub use source::{
    collect_events, read_all, require_regular_file, FileTrace, ReadTraceError, TraceFormat,
    TraceSource,
};
