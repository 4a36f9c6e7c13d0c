//! Prometheus text-exposition rendering of a [`Registry`].
//!
//! `rescheck … --metrics-format prom` emits this format so CI and
//! future `rescheck serve` clients scrape metrics instead of parsing
//! stdout. The output follows the text exposition conventions: one
//! `# TYPE` comment per family, `_bucket{le="…"}` cumulative buckets
//! with a closing `+Inf` for histograms, and dotted rescheck names
//! mapped into the `rescheck_` namespace with invalid characters
//! replaced by underscores.

use crate::histogram::{bucket_upper_bound, Histogram, BUCKETS};
use crate::metrics::Registry;
use std::fmt::Write;

/// Renders the registry in Prometheus text exposition format.
///
/// Counters and gauges become `rescheck_<name>` families; phase
/// timings become `rescheck_phase_seconds{phase="…"}`; histograms
/// become cumulative `_bucket`/`_sum`/`_count` families.
///
/// # Examples
///
/// ```
/// use rescheck_obs::{prom, Registry};
///
/// let mut reg = Registry::new();
/// reg.inc("check.resolutions", 42);
/// let text = prom::render(&reg);
/// assert!(text.contains("rescheck_check_resolutions 42"));
/// ```
pub fn render(reg: &Registry) -> String {
    let mut out = String::new();
    for (name, value) in reg.to_json().get("counters").map_or(vec![], object_entries) {
        let metric = metric_name(&name);
        let _ = writeln!(out, "# TYPE {metric} counter");
        let _ = writeln!(out, "{metric} {value}");
    }
    for (name, value) in reg.to_json().get("gauges").map_or(vec![], object_entries) {
        let metric = metric_name(&name);
        let _ = writeln!(out, "# TYPE {metric} gauge");
        let _ = writeln!(out, "{metric} {value}");
    }
    if !reg.phase_names().is_empty() {
        let _ = writeln!(out, "# TYPE rescheck_phase_seconds gauge");
        for phase in reg.phase_names() {
            let seconds = reg.phase_seconds(phase).unwrap_or(0.0);
            let _ = writeln!(
                out,
                "rescheck_phase_seconds{{phase=\"{}\"}} {seconds}",
                escape_label(phase)
            );
        }
    }
    for (name, hist) in reg.histograms() {
        render_histogram(&mut out, &metric_name(name), hist);
    }
    out
}

fn render_histogram(out: &mut String, metric: &str, hist: &Histogram) {
    let _ = writeln!(out, "# TYPE {metric} histogram");
    let buckets = hist.buckets();
    let last = buckets.iter().rposition(|&c| c > 0).map_or(0, |i| i + 1);
    let mut cumulative = 0u64;
    for (i, &count) in buckets.iter().enumerate().take(last) {
        cumulative += count;
        match bucket_upper_bound(i) {
            Some(le) => {
                let _ = writeln!(out, "{metric}_bucket{{le=\"{le}\"}} {cumulative}");
            }
            None => break, // the unbounded bucket is the +Inf line below
        }
    }
    let _ = writeln!(
        out,
        "{metric}_bucket{{le=\"+Inf\"}} {count}",
        count = hist.count()
    );
    let _ = writeln!(out, "{metric}_sum {}", hist.sum());
    let _ = writeln!(out, "{metric}_count {}", hist.count());
    debug_assert!(last <= BUCKETS);
}

/// Maps a dotted rescheck name into the Prometheus namespace:
/// `check.dfd.cursor_reads` → `rescheck_check_dfd_cursor_reads`.
fn metric_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 9);
    out.push_str("rescheck_");
    for c in name.chars() {
        if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

fn escape_label(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

fn object_entries(json: &crate::json::Json) -> Vec<(String, String)> {
    match json {
        crate::json::Json::Object(fields) => fields
            .iter()
            .map(|(k, v)| (k.clone(), v.to_string()))
            .collect(),
        _ => Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn counters_gauges_and_phases_render() {
        let mut reg = Registry::new();
        reg.inc("check.resolutions", 7);
        reg.set_gauge("check.peak_memory_bytes", 1024.0);
        reg.record_phase("check:pass1", Duration::from_millis(250));
        let text = render(&reg);
        assert!(text.contains("# TYPE rescheck_check_resolutions counter"));
        assert!(text.contains("rescheck_check_resolutions 7"));
        assert!(text.contains("# TYPE rescheck_check_peak_memory_bytes gauge"));
        assert!(text.contains("rescheck_check_peak_memory_bytes 1024"));
        assert!(text.contains("rescheck_phase_seconds{phase=\"check:pass1\"} 0.25"));
    }

    #[test]
    fn histograms_render_cumulative_buckets() {
        let mut reg = Registry::new();
        reg.record_hist("check.resolve.chain_len", 1);
        reg.record_hist("check.resolve.chain_len", 3);
        reg.record_hist("check.resolve.chain_len", 3);
        let text = render(&reg);
        assert!(text.contains("# TYPE rescheck_check_resolve_chain_len histogram"));
        // value 1 → bucket 1 (le=1), values 3 → bucket 2 (le=3).
        assert!(text.contains("rescheck_check_resolve_chain_len_bucket{le=\"1\"} 1"));
        assert!(text.contains("rescheck_check_resolve_chain_len_bucket{le=\"3\"} 3"));
        assert!(text.contains("rescheck_check_resolve_chain_len_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("rescheck_check_resolve_chain_len_sum 7"));
        assert!(text.contains("rescheck_check_resolve_chain_len_count 3"));
    }

    #[test]
    fn every_line_is_comment_or_sample() {
        let mut reg = Registry::new();
        reg.inc("a.b", 1);
        reg.set_gauge("g", 0.5);
        reg.record_hist("h", 9);
        reg.record_phase("p", Duration::from_secs(1));
        for line in render(&reg).lines() {
            if line.starts_with('#') {
                assert!(line.starts_with("# TYPE ") || line.starts_with("# HELP "));
                continue;
            }
            let (name, value) = line.rsplit_once(' ').expect("sample has a value");
            assert!(!name.is_empty());
            assert!(value.parse::<f64>().is_ok(), "unparsable value in {line:?}");
            let bare = name.split('{').next().unwrap();
            assert!(
                bare.chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
                "bad metric name in {line:?}"
            );
        }
    }

    #[test]
    fn label_values_escape() {
        let mut reg = Registry::new();
        reg.record_phase("odd\"phase", Duration::from_secs(1));
        let text = render(&reg);
        assert!(text.contains("phase=\"odd\\\"phase\""));
    }
}
