//! Log-bucketed histograms with a zero-alloc record path.
//!
//! Each histogram is a fixed `[u64; 64]` bucket array plus count / sum /
//! min / max. Bucket `0` holds the value `0`; bucket `i` (for `i ≥ 1`)
//! holds values in `[2^(i-1), 2^i)`, with the last bucket absorbing
//! everything from `2^62` up. Recording is an index computation and a
//! handful of integer updates — no allocation, no branching on size —
//! so histograms are safe to feed from checker and solver hot loops.
//!
//! Snapshots merge bucket-wise, which is how the daemon's per-job
//! histograms aggregate into one distribution.

use crate::json::Json;

/// Number of buckets; enough for the full `u64` range at log2 spacing.
pub const BUCKETS: usize = 64;

/// A log2-bucketed histogram of `u64` samples.
///
/// # Examples
///
/// ```
/// use rescheck_obs::Histogram;
///
/// let mut h = Histogram::new();
/// h.record(0);
/// h.record(3);
/// h.record(100);
/// assert_eq!(h.count(), 3);
/// assert_eq!(h.min(), Some(0));
/// assert_eq!(h.max(), Some(100));
/// assert_eq!(h.sum(), 103);
/// ```
#[derive(Clone, Debug)]
pub struct Histogram {
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
    buckets: [u64; BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

/// The bucket a value lands in: `0 → 0`, otherwise `⌊log2(v)⌋ + 1`,
/// clamped to the last bucket.
pub fn bucket_index(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        (64 - value.leading_zeros() as usize).min(BUCKETS - 1)
    }
}

/// Inclusive upper bound of bucket `i`, or `None` for the unbounded
/// last bucket.
pub fn bucket_upper_bound(i: usize) -> Option<u64> {
    if i + 1 >= BUCKETS {
        None
    } else {
        Some((1u64 << i) - 1)
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            buckets: [0; BUCKETS],
        }
    }

    /// Records one sample. Never allocates.
    pub fn record(&mut self, value: u64) {
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        self.buckets[bucket_index(value)] += 1;
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded sample, if any.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest recorded sample, if any.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Mean of the samples, if any.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// The raw bucket counts.
    pub fn buckets(&self) -> &[u64; BUCKETS] {
        &self.buckets
    }

    /// Merges another histogram into this one, bucket-wise.
    pub fn merge(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for (mine, theirs) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *mine += theirs;
        }
    }

    /// The histogram as a JSON object. The bucket array is truncated
    /// after the last non-zero bucket so empty tails don't bloat files.
    pub fn to_json(&self) -> Json {
        let last = self
            .buckets
            .iter()
            .rposition(|&c| c > 0)
            .map_or(0, |i| i + 1);
        let mut root = Json::object();
        root.set("count", self.count)
            .set("sum", self.sum)
            .set("min", self.min().unwrap_or(0))
            .set("max", self.max().unwrap_or(0))
            .set(
                "buckets",
                Json::Array(
                    self.buckets[..last]
                        .iter()
                        .map(|&c| Json::UInt(c))
                        .collect(),
                ),
            );
        root
    }

    /// Reads a histogram back from its [`to_json`](Self::to_json) form.
    /// Returns `None` on a malformed document.
    pub fn from_json(json: &Json) -> Option<Histogram> {
        let count = json.get("count")?.as_u64()?;
        let sum = json.get("sum")?.as_u64()?;
        let min = json.get("min")?.as_u64()?;
        let max = json.get("max")?.as_u64()?;
        let Some(Json::Array(items)) = json.get("buckets") else {
            return None;
        };
        if items.len() > BUCKETS {
            return None;
        }
        let mut buckets = [0u64; BUCKETS];
        for (slot, item) in buckets.iter_mut().zip(items.iter()) {
            *slot = item.as_u64()?;
        }
        Some(Histogram {
            count,
            sum,
            min: if count == 0 { u64::MAX } else { min },
            max,
            buckets,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_powers_of_two() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(7), 3);
        assert_eq!(bucket_index(8), 4);
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
        // Bucket i (i >= 1) covers [2^(i-1), 2^i).
        for i in 1..20usize {
            let lo = 1u64 << (i - 1);
            assert_eq!(bucket_index(lo), i);
            assert_eq!(bucket_index(2 * lo - 1), i);
        }
    }

    #[test]
    fn upper_bounds_match_bucket_index() {
        assert_eq!(bucket_upper_bound(0), Some(0));
        assert_eq!(bucket_upper_bound(1), Some(1));
        assert_eq!(bucket_upper_bound(2), Some(3));
        assert_eq!(bucket_upper_bound(3), Some(7));
        assert_eq!(bucket_upper_bound(BUCKETS - 1), None);
        for i in 0..BUCKETS - 1 {
            let ub = bucket_upper_bound(i).unwrap();
            assert_eq!(bucket_index(ub), i);
            assert_eq!(bucket_index(ub + 1), i + 1);
        }
    }

    #[test]
    fn records_track_count_sum_min_max() {
        let mut h = Histogram::new();
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.mean(), None);
        h.record(5);
        h.record(10);
        h.record(0);
        assert_eq!(h.count(), 3);
        assert_eq!(h.sum(), 15);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(10));
        assert_eq!(h.mean(), Some(5.0));
    }

    #[test]
    fn merge_is_bucket_wise() {
        let mut a = Histogram::new();
        a.record(1);
        a.record(100);
        let mut b = Histogram::new();
        b.record(1);
        b.record(3);
        a.merge(&b);
        assert_eq!(a.count(), 4);
        assert_eq!(a.buckets()[bucket_index(1)], 2);
        assert_eq!(a.buckets()[bucket_index(3)], 1);
        assert_eq!(a.min(), Some(1));
        assert_eq!(a.max(), Some(100));

        // Merging an empty histogram is a no-op.
        let before = a.clone();
        a.merge(&Histogram::new());
        assert_eq!(a.count(), before.count());
        assert_eq!(a.min(), before.min());
    }

    #[test]
    fn json_round_trips_and_truncates_tail() {
        let mut h = Histogram::new();
        h.record(3);
        h.record(9);
        let json = h.to_json();
        let Some(Json::Array(items)) = json.get("buckets") else {
            panic!("buckets must be an array");
        };
        assert_eq!(items.len(), bucket_index(9) + 1);
        let back = Histogram::from_json(&json).expect("round trip");
        assert_eq!(back.count(), 2);
        assert_eq!(back.sum(), 12);
        assert_eq!(back.min(), Some(3));
        assert_eq!(back.max(), Some(9));
        assert_eq!(back.buckets(), h.buckets());
    }

    #[test]
    fn empty_histogram_round_trips() {
        let h = Histogram::new();
        let back = Histogram::from_json(&h.to_json()).expect("round trip");
        assert_eq!(back.count(), 0);
        assert_eq!(back.min(), None);
        let mut merged = back;
        merged.record(2);
        assert_eq!(merged.min(), Some(2));
    }

    #[test]
    fn from_json_rejects_malformed() {
        assert!(Histogram::from_json(&Json::Null).is_none());
        assert!(Histogram::from_json(&Json::object()).is_none());
        let mut bad = Histogram::new().to_json();
        bad.set("buckets", Json::Str("nope".to_string()));
        assert!(Histogram::from_json(&bad).is_none());
    }
}
