//! Hierarchical spans and the phase timer built on them.
//!
//! A [`Span`] is a named, monotonic start/stop interval with a parent:
//! starting a span while another is open on the same thread makes the
//! open one its parent, so a check decomposes into a tree like
//! `check > check:df > check:pass1` with self/child time attribution.
//! Parentage is tracked in a thread-local stack of span ids; ids come
//! from a process-global counter so spans from the daemon's worker
//! threads merge into one registry without collisions (ids are therefore *not*
//! stable across runs — consumers that need determinism, like the
//! flight recorder, renumber at dump time).
//!
//! Dropping a span without stopping it (the error-`?` path) unwinds the
//! stack entry without emitting a finish event, so later spans don't
//! get parented under a dead interval.

use crate::observer::{Event, Observer};
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);

/// Allocates a fresh process-unique span id (also used when registries
/// are reconstructed from JSON, so restored spans cannot collide with
/// live ones).
pub(crate) fn alloc_span_id() -> u64 {
    NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed)
}

thread_local! {
    static SPAN_STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// A hierarchical timer: emits [`Event::SpanStarted`] on start and
/// [`Event::SpanFinished`] on stop, with the enclosing span (same
/// thread) as parent.
///
/// # Examples
///
/// ```
/// use rescheck_obs::{NullObserver, Span};
///
/// let mut obs = NullObserver;
/// let mut outer = Span::start("check", &mut obs);
/// let inner = Span::start("check:pass1", &mut obs); // child of "check"
/// inner.finish(&mut obs);
/// outer.stop(&mut obs);
/// ```
#[must_use = "a Span only records when stopped"]
#[derive(Debug)]
pub struct Span {
    id: u64,
    name: &'static str,
    started: Instant,
    finished: bool,
}

impl Span {
    /// Starts a span as a child of the innermost open span on this
    /// thread (or as a root if none is open).
    pub fn start(name: &'static str, obs: &mut dyn Observer) -> Span {
        let id = alloc_span_id();
        let parent = SPAN_STACK
            .try_with(|stack| {
                let mut stack = stack.borrow_mut();
                let parent = stack.last().copied();
                stack.push(id);
                parent
            })
            .unwrap_or(None);
        obs.observe(&Event::SpanStarted { id, parent, name });
        Span {
            id,
            name,
            started: Instant::now(),
            finished: false,
        }
    }

    /// This span's process-unique id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The span's name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Stops the span, emitting [`Event::SpanFinished`] with the
    /// elapsed wall-clock. Idempotent: a second stop is a debug
    /// assertion failure and, in release builds, a no-op returning
    /// [`Duration::ZERO`] without emitting anything.
    pub fn stop(&mut self, obs: &mut dyn Observer) -> Duration {
        if self.finished {
            debug_assert!(false, "span {:?} stopped twice", self.name);
            return Duration::ZERO;
        }
        self.finished = true;
        let wall = self.started.elapsed();
        Self::unwind(self.id);
        obs.observe(&Event::SpanFinished {
            id: self.id,
            name: self.name,
            wall,
        });
        wall
    }

    /// Consuming form of [`stop`](Self::stop).
    pub fn finish(mut self, obs: &mut dyn Observer) -> Duration {
        self.stop(obs)
    }

    fn unwind(id: u64) {
        let _ = SPAN_STACK.try_with(|stack| {
            let mut stack = stack.borrow_mut();
            if let Some(pos) = stack.iter().rposition(|&open| open == id) {
                stack.remove(pos);
            }
        });
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        // Error paths (`?`) drop spans unstopped; unwind the stack so
        // later spans aren't parented under the abandoned interval,
        // but emit nothing — the registry shows it as unfinished.
        if !self.finished {
            Self::unwind(self.id);
        }
    }
}

/// A scoped phase timer — a [`Span`] with the original flat-timer API.
///
/// Historically `Phase` emitted flat `PhaseStarted`/`PhaseFinished`
/// events; it is now a thin wrapper over [`Span`], so phases slot into
/// the span tree for free. [`MetricsSink`](crate::MetricsSink) records
/// a phase timing from every span finish, which keeps the v1 `phases`
/// metric keys populated.
///
/// # Examples
///
/// ```
/// use rescheck_obs::{NullObserver, Phase};
///
/// let mut obs = NullObserver;
/// let phase = Phase::start("solve", &mut obs);
/// // … work …
/// let wall = phase.finish(&mut obs);
/// assert!(wall.as_nanos() > 0 || wall.is_zero());
/// ```
#[must_use = "a Phase only records when finished"]
#[derive(Debug)]
pub struct Phase {
    span: Span,
}

impl Phase {
    /// Starts a phase timer (a span under the hood).
    pub fn start(name: &'static str, obs: &mut dyn Observer) -> Phase {
        Phase {
            span: Span::start(name, obs),
        }
    }

    /// Stops the phase in place. Stopping twice is a debug assertion
    /// failure and a release no-op — never a double accumulation.
    pub fn stop(&mut self, obs: &mut dyn Observer) -> Duration {
        self.span.stop(obs)
    }

    /// Consuming form of [`stop`](Self::stop).
    pub fn finish(mut self, obs: &mut dyn Observer) -> Duration {
        self.span.stop(obs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Default)]
    struct Collector {
        started: Vec<(u64, Option<u64>, String)>,
        finished: Vec<(u64, String)>,
    }

    impl Observer for Collector {
        fn observe(&mut self, event: &Event<'_>) {
            match *event {
                Event::SpanStarted { id, parent, name } => {
                    self.started.push((id, parent, name.to_string()));
                }
                Event::SpanFinished { id, name, .. } => {
                    self.finished.push((id, name.to_string()));
                }
                _ => {}
            }
        }
    }

    #[test]
    fn nesting_tracks_parent_ids() {
        let mut obs = Collector::default();
        let mut root = Span::start("root", &mut obs);
        let mut child = Span::start("child", &mut obs);
        let grandchild = Span::start("grandchild", &mut obs);
        grandchild.finish(&mut obs);
        child.stop(&mut obs);
        let sibling = Span::start("sibling", &mut obs);
        sibling.finish(&mut obs);
        root.stop(&mut obs);

        let root_id = obs.started[0].0;
        let child_id = obs.started[1].0;
        assert_eq!(obs.started[0].1, None);
        assert_eq!(obs.started[1].1, Some(root_id));
        assert_eq!(obs.started[2].1, Some(child_id));
        assert_eq!(obs.started[3].1, Some(root_id)); // sibling, after child closed
        assert_eq!(
            obs.finished
                .iter()
                .map(|(_, n)| n.as_str())
                .collect::<Vec<_>>(),
            vec!["grandchild", "child", "sibling", "root"]
        );
    }

    #[test]
    fn dropped_span_unwinds_without_emitting() {
        let mut obs = Collector::default();
        let mut root = Span::start("root", &mut obs);
        let abandoned = Span::start("abandoned", &mut obs);
        drop(abandoned); // the `?` path: no finish event…
        let next = Span::start("next", &mut obs);
        next.finish(&mut obs);
        root.stop(&mut obs);
        // …and "next" is parented under root, not the dead span.
        let root_id = obs.started[0].0;
        assert_eq!(obs.started[2].1, Some(root_id));
        assert!(!obs.finished.iter().any(|(_, n)| n == "abandoned"));
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "stopped twice"))]
    fn double_stop_asserts_in_debug_and_is_idempotent_in_release() {
        let mut obs = Collector::default();
        let mut phase = Phase::start("p", &mut obs);
        let first = phase.stop(&mut obs);
        // Debug builds panic here; release builds must not re-accumulate.
        let second = phase.stop(&mut obs);
        assert_eq!(second, Duration::ZERO);
        assert!(first >= second);
        assert_eq!(obs.finished.len(), 1);
    }

    #[test]
    fn threads_have_independent_stacks() {
        let mut obs = Collector::default();
        let mut root = Span::start("main-root", &mut obs);
        let worker_parent = std::thread::spawn(|| {
            let mut obs = Collector::default();
            let s = Span::start("worker", &mut obs);
            s.finish(&mut obs);
            obs.started[0].1
        })
        .join()
        .unwrap();
        root.stop(&mut obs);
        assert_eq!(worker_parent, None);
    }
}
