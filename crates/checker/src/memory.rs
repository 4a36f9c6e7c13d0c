//! Deterministic memory accounting for the checkers.
//!
//! Table 2 of the paper compares the **peak memory** of the depth-first
//! and breadth-first strategies (and shows the depth-first one memory-out
//! on the two hardest instances). Reproducing that with OS-level RSS would
//! be noisy and platform-dependent, so the checkers instead *account* the
//! bytes of every clause and trace structure they hold, against an
//! optional budget. The accounting model is simple and documented:
//! [`clause_bytes`] per stored clause, plus per-record costs for the
//! in-memory trace (depth-first only) and the use-count table
//! (breadth-first only).

use crate::CheckError;

/// Accounted bytes for a stored clause of `len` literals.
///
/// 4 bytes per literal plus a fixed overhead for the allocation and the
/// id → clause map entry.
pub(crate) fn clause_bytes(len: usize) -> u64 {
    24 + 4 * len as u64
}

/// Accounted bytes for holding one learned-clause trace record in memory
/// (depth-first strategy: the whole trace is resident).
pub(crate) fn trace_record_bytes(num_sources: usize) -> u64 {
    24 + 8 * num_sources as u64
}

/// Accounted bytes per level-0 variable record.
pub(crate) const LEVEL_ZERO_RECORD_BYTES: u64 = 16;

/// Accounted bytes per entry of the breadth-first use-count table.
pub(crate) const USE_COUNT_BYTES: u64 = 12;

/// Accounted bytes per id → byte-offset index entry (hybrid and
/// disk-backed depth-first strategies: two `u64`s per learned clause).
pub(crate) const INDEX_ENTRY_BYTES: u64 = 16;

/// Accounted bytes per node of the parallel-dag executor's dependency
/// graph: the node record itself plus its completion slot, in-degree
/// counter and id-map entry.
pub(crate) const DAG_NODE_BYTES: u64 = 64;

/// Accounted bytes per resolve-source entry of the parallel-dag
/// dependency graph (the tagged forward edge plus its reverse edge).
pub(crate) const DAG_SOURCE_BYTES: u64 = 8;

/// Page granularity for charging the clause arena's flat literal store.
///
/// The arena grows its literal tail in whole pages and charges the meter
/// for each page once; freed clause slots are recycled through the
/// arena's free list, so pages are never refunded (matching the real
/// allocator behaviour of an arena, which retains capacity).
pub(crate) const ARENA_PAGE_BYTES: u64 = 1024;

/// Accounted bytes per resident arena slot (the id → offset/len index
/// entry), refunded when the clause is freed.
pub(crate) const ARENA_SLOT_BYTES: u64 = 16;

/// A byte meter with an optional hard budget.
///
/// # Examples
///
/// ```
/// use rescheck_checker::MemoryMeter;
///
/// let mut meter = MemoryMeter::with_limit(100);
/// meter.alloc(60)?;
/// meter.free(20);
/// meter.alloc(40)?;
/// assert_eq!(meter.current(), 80);
/// assert_eq!(meter.peak(), 80);
/// assert!(meter.alloc(100).is_err());
/// # Ok::<(), rescheck_checker::CheckError>(())
/// ```
#[derive(Clone, Debug, Default)]
pub struct MemoryMeter {
    current: u64,
    peak: u64,
    limit: Option<u64>,
}

impl MemoryMeter {
    /// A meter without a budget (it only records the peak).
    pub fn unlimited() -> Self {
        MemoryMeter::default()
    }

    /// A meter that fails allocations beyond `limit` bytes.
    pub fn with_limit(limit: u64) -> Self {
        MemoryMeter {
            limit: Some(limit),
            ..MemoryMeter::default()
        }
    }

    /// A meter with an optional limit.
    pub fn new(limit: Option<u64>) -> Self {
        MemoryMeter {
            limit,
            ..MemoryMeter::default()
        }
    }

    /// Records an allocation.
    ///
    /// # Errors
    ///
    /// Returns [`CheckError::MemoryLimitExceeded`] if the budget would be
    /// exceeded — including when the running total would overflow `u64`,
    /// which an adversarial trace can otherwise use to wrap the counter
    /// and silently bypass the budget in release builds. The accounted
    /// usage is left unchanged on error.
    pub fn alloc(&mut self, bytes: u64) -> Result<(), CheckError> {
        let Some(next) = self.current.checked_add(bytes) else {
            return Err(CheckError::MemoryLimitExceeded {
                limit: self.limit.unwrap_or(u64::MAX),
                required: u64::MAX,
            });
        };
        if let Some(limit) = self.limit {
            if next > limit {
                return Err(CheckError::MemoryLimitExceeded {
                    limit,
                    required: next,
                });
            }
        }
        self.current = next;
        self.peak = self.peak.max(next);
        Ok(())
    }

    /// Records a release.
    pub fn free(&mut self, bytes: u64) {
        debug_assert!(bytes <= self.current, "freeing more than allocated");
        self.current = self.current.saturating_sub(bytes);
    }

    /// Currently accounted bytes.
    pub fn current(&self) -> u64 {
        self.current
    }

    /// High-water mark of accounted bytes.
    pub fn peak(&self) -> u64 {
        self.peak
    }

    /// The configured limit, if any.
    pub fn limit(&self) -> Option<u64> {
        self.limit
    }
}

/// The tightest memory limit `run` passes under, found by bisection. The
/// run at the unlimited peak replays the unlimited run, so that upper
/// end always passes.
#[cfg(test)]
pub(crate) fn tightest_limit(
    run: impl Fn(Option<u64>) -> Result<crate::CheckOutcome, CheckError>,
) -> u64 {
    let (mut lo, mut hi) = (0, run(None).unwrap().stats.peak_memory_bytes);
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if run(Some(mid)).is_ok() {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    hi
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracks_peak_across_frees() {
        let mut m = MemoryMeter::unlimited();
        m.alloc(100).unwrap();
        m.alloc(50).unwrap();
        m.free(120);
        m.alloc(10).unwrap();
        assert_eq!(m.current(), 40);
        assert_eq!(m.peak(), 150);
        assert_eq!(m.limit(), None);
    }

    #[test]
    fn limit_is_enforced_and_state_preserved() {
        let mut m = MemoryMeter::with_limit(100);
        m.alloc(90).unwrap();
        let err = m.alloc(20).unwrap_err();
        match err {
            CheckError::MemoryLimitExceeded { limit, required } => {
                assert_eq!(limit, 100);
                assert_eq!(required, 110);
            }
            other => panic!("unexpected error {other}"),
        }
        // The failed allocation did not change the accounting.
        assert_eq!(m.current(), 90);
        m.free(50);
        m.alloc(20).unwrap();
    }

    #[test]
    fn overflowing_alloc_is_rejected_not_wrapped() {
        // Regression: `current + bytes` used an unchecked add, so an
        // adversarial trace could wrap the counter past the limit.
        let mut m = MemoryMeter::with_limit(1 << 20);
        m.alloc(100).unwrap();
        let err = m.alloc(u64::MAX).unwrap_err();
        assert!(matches!(err, CheckError::MemoryLimitExceeded { .. }));
        assert_eq!(m.current(), 100);
        assert_eq!(m.peak(), 100);

        // Even an unlimited meter must not wrap its accounting.
        let mut m = MemoryMeter::unlimited();
        m.alloc(100).unwrap();
        assert!(m.alloc(u64::MAX).is_err());
        assert_eq!(m.current(), 100);
    }

    #[test]
    fn new_with_optional_limit() {
        assert_eq!(MemoryMeter::new(Some(5)).limit(), Some(5));
        assert_eq!(MemoryMeter::new(None).limit(), None);
    }

    #[test]
    fn byte_model_is_monotonic_in_length() {
        assert!(clause_bytes(0) < clause_bytes(1));
        assert!(trace_record_bytes(2) < trace_record_bytes(3));
    }
}
