//! Host facts and the peak-RSS probe, from the standard library only.

use rescheck_obs::Json;
use rescheck_trace::TraceMap;
use std::fs;
use std::path::Path;

/// Reads a `kB` field of `/proc/self/status` (`VmHWM`, `VmRSS`) in MiB.
fn status_mib(field: &str) -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    status.lines().find_map(|line| {
        let rest = line.strip_prefix(field)?.strip_prefix(':')?;
        let kb: f64 = rest.trim().strip_suffix("kB")?.trim().parse().ok()?;
        Some(kb / 1024.0)
    })
}

/// A window over which the process's peak RSS is measured: opening it
/// resets the kernel's high-water mark (`5` into `/proc/self/clear_refs`),
/// reading it takes `VmHWM`. Where the reset is refused the window reads
/// as unmeasured (`None`), never as 0.
pub struct RssWindow {
    base_mib: Option<f64>,
}

impl RssWindow {
    pub fn open() -> RssWindow {
        let reset = fs::write("/proc/self/clear_refs", "5").is_ok();
        RssWindow {
            base_mib: if reset { status_mib("VmRSS") } else { None },
        }
    }

    /// Whether the high-water mark could be reset.
    pub fn measured(&self) -> bool {
        self.base_mib.is_some()
    }

    /// Process peak RSS since the window opened.
    pub fn peak_mib(&self) -> Option<f64> {
        self.base_mib?;
        status_mib("VmHWM")
    }

    /// Peak RSS since the window opened, above the RSS it opened at.
    pub fn growth_mib(&self) -> Option<f64> {
        Some((status_mib("VmHWM")? - self.base_mib?).max(0.0))
    }
}

/// Whether a trace file gets the `mmap` backing (the checker's
/// `check.map.mmap`) or the buffered fallback; `null` if it cannot be
/// mapped at all.
pub fn mmap_backing(trace: &Path) -> Json {
    TraceMap::open(trace).map_or(Json::Null, |map| Json::Bool(map.is_mmap()))
}

/// Cores this process may run on.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The `q` quantile of `values` (0 ≤ q ≤ 1), interpolating linearly
/// between closest ranks; `None` for no values.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64))
}

pub fn median(values: &[f64]) -> Option<f64> {
    quantile(values, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), Some(2.5));
        assert_eq!(quantile(&[1.0, 2.0], 1.0), Some(2.0));
    }

    #[test]
    fn rss_window_reads_growth_or_nothing() {
        let window = RssWindow::open();
        let held = vec![1u8; 32 << 20];
        std::hint::black_box(&held);
        match window.growth_mib() {
            Some(growth) => assert!(growth >= 16.0, "{growth}"),
            None => assert!(!window.measured()),
        }
    }
}
