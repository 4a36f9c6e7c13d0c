//! Labeled counters, gauges, phase timers, histograms and span trees.

use crate::histogram::Histogram;
use crate::json::Json;
use std::collections::BTreeMap;
use std::time::Duration;

/// One recorded span: identity, parentage, and wall-clock once finished.
///
/// Spans whose finish never arrived (error paths) keep `wall: None` and
/// serialize with a zero wall-clock.
#[derive(Clone, Debug)]
pub struct SpanRec {
    /// Process-unique span id.
    pub id: u64,
    /// Parent span id, if the span was nested.
    pub parent: Option<u64>,
    /// The span name.
    pub name: String,
    /// Wall-clock duration, once finished.
    pub wall: Option<Duration>,
}

/// A registry of monotonic counters, gauges, phase timings, log-bucketed
/// histograms and hierarchical span records.
///
/// Names are dotted paths (`"solver.conflicts"`, `"check.resolutions"`);
/// the JSON form groups them under `counters`, `gauges`, `phases`,
/// `histograms` and `spans`. Phase durations accumulate: timing the same
/// phase twice sums the wall-clock, which is what iterated flows (core
/// minimization) want.
///
/// # Examples
///
/// ```
/// use rescheck_obs::Registry;
/// use std::time::Duration;
///
/// let mut reg = Registry::new();
/// reg.inc("solver.conflicts", 10);
/// reg.inc("solver.conflicts", 5);
/// reg.set_gauge("check.peak_memory_bytes", 4096.0);
/// reg.record_phase("solve", Duration::from_millis(250));
/// reg.record_hist("check.resolve.chain_len", 12);
/// assert_eq!(reg.counter("solver.conflicts"), Some(15));
/// assert!(reg.to_json().path("phases.solve").is_some());
/// assert_eq!(reg.histogram("check.resolve.chain_len").unwrap().count(), 1);
/// ```
#[derive(Clone, Debug, Default)]
pub struct Registry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    phases: Vec<(String, Duration)>,
    hists: BTreeMap<String, Histogram>,
    spans: Vec<SpanRec>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Adds to a monotonic counter, creating it at zero first.
    pub fn inc(&mut self, name: &str, delta: u64) {
        if let Some(slot) = self.counters.get_mut(name) {
            *slot = slot.saturating_add(delta);
        } else {
            self.counters.insert(name.to_string(), delta);
        }
    }

    /// Sets a gauge to an absolute value. The name is allocated only
    /// when the gauge is new.
    pub fn set_gauge(&mut self, name: &str, value: f64) {
        if let Some(slot) = self.gauges.get_mut(name) {
            *slot = value;
        } else {
            self.gauges.insert(name.to_string(), value);
        }
    }

    /// Records one timing of a phase; repeats accumulate.
    pub fn record_phase(&mut self, name: &str, wall: Duration) {
        if let Some((_, total)) = self.phases.iter_mut().find(|(n, _)| n == name) {
            *total += wall;
        } else {
            self.phases.push((name.to_string(), wall));
        }
    }

    /// Records one sample into a named histogram, creating it on first
    /// use. The sample path allocates only on that first use.
    pub fn record_hist(&mut self, name: &str, value: u64) {
        if let Some(h) = self.hists.get_mut(name) {
            h.record(value);
        } else {
            let mut h = Histogram::new();
            h.record(value);
            self.hists.insert(name.to_string(), h);
        }
    }

    /// Registers the opening of a span.
    pub fn record_span_start(&mut self, id: u64, parent: Option<u64>, name: &str) {
        self.spans.push(SpanRec {
            id,
            parent,
            name: name.to_string(),
            wall: None,
        });
    }

    /// Registers the close of a span. A finish with no matching start
    /// (a filtered replay) registers the span as a root.
    pub fn record_span_finish(&mut self, id: u64, name: &str, wall: Duration) {
        match self
            .spans
            .iter_mut()
            .rev()
            .find(|r| r.id == id && r.wall.is_none())
        {
            Some(rec) => rec.wall = Some(wall),
            None => self.spans.push(SpanRec {
                id,
                parent: None,
                name: name.to_string(),
                wall: Some(wall),
            }),
        }
    }

    /// Reads a counter.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.get(name).copied()
    }

    /// Reads a gauge.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// Reads a histogram.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.hists.get(name)
    }

    /// Histogram names and contents, in name order.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.hists.iter().map(|(n, h)| (n.as_str(), h))
    }

    /// All recorded spans, in start order.
    pub fn spans(&self) -> &[SpanRec] {
        &self.spans
    }

    /// Total recorded wall-clock of a phase, in seconds.
    pub fn phase_seconds(&self, name: &str) -> Option<f64> {
        self.phases
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, d)| d.as_secs_f64())
    }

    /// Phase names in first-recorded order.
    pub fn phase_names(&self) -> Vec<&str> {
        self.phases.iter().map(|(n, _)| n.as_str()).collect()
    }

    /// `true` if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.gauges.is_empty()
            && self.phases.is_empty()
            && self.hists.is_empty()
            && self.spans.is_empty()
    }

    /// Merges another registry into this one: counters add, gauges take
    /// the other's value, phases accumulate and histograms merge
    /// bucket-wise. Spans are not merged: a span tree describes one run,
    /// and the merged phases already total every run's wall time per
    /// span name, so a long-lived registry that merges many runs (the
    /// daemon's) stays bounded by the names it has seen.
    pub fn merge(&mut self, other: &Registry) {
        for (name, value) in &other.counters {
            self.inc(name, *value);
        }
        for (name, value) in &other.gauges {
            self.set_gauge(name, *value);
        }
        for (name, wall) in &other.phases {
            self.record_phase(name, *wall);
        }
        for (name, hist) in &other.hists {
            if let Some(mine) = self.hists.get_mut(name) {
                mine.merge(hist);
            } else {
                self.hists.insert(name.clone(), hist.clone());
            }
        }
    }

    /// The registry as a JSON object:
    /// `{"phases": {name: seconds…}, "counters": {…}, "gauges": {…},
    /// "histograms": {…}, "spans": [tree…]}`.
    ///
    /// `spans` nests children under their parents; each node carries
    /// `wall_seconds` and `self_seconds` (wall minus finished children,
    /// clamped at zero). Unfinished spans serialize with a zero wall.
    pub fn to_json(&self) -> Json {
        let mut phases = Json::object();
        for (name, wall) in &self.phases {
            phases.set(name, wall.as_secs_f64());
        }
        let mut counters = Json::object();
        for (name, value) in &self.counters {
            counters.set(name, *value);
        }
        let mut gauges = Json::object();
        for (name, value) in &self.gauges {
            gauges.set(name, *value);
        }
        let mut hists = Json::object();
        for (name, hist) in &self.hists {
            hists.set(name, hist.to_json());
        }
        let mut root = Json::object();
        root.set("phases", phases)
            .set("counters", counters)
            .set("gauges", gauges)
            .set("histograms", hists)
            .set("spans", self.spans_json());
        root
    }

    fn spans_json(&self) -> Json {
        let index_of: BTreeMap<u64, usize> = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, r)| (r.id, i))
            .collect();
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        let mut roots: Vec<usize> = Vec::new();
        for (i, rec) in self.spans.iter().enumerate() {
            match rec.parent.and_then(|p| index_of.get(&p)) {
                Some(&pi) if pi != i => children[pi].push(i),
                _ => roots.push(i),
            }
        }
        Json::Array(
            roots
                .iter()
                .map(|&i| self.span_node(i, &children))
                .collect(),
        )
    }

    fn span_node(&self, i: usize, children: &[Vec<usize>]) -> Json {
        let rec = &self.spans[i];
        let wall = rec.wall.map_or(0.0, |d| d.as_secs_f64());
        let mut kids = Vec::with_capacity(children[i].len());
        let mut child_total = 0.0;
        for &c in &children[i] {
            child_total += self.spans[c].wall.map_or(0.0, |d| d.as_secs_f64());
            kids.push(self.span_node(c, children));
        }
        let mut node = Json::object();
        node.set("name", rec.name.as_str())
            .set("wall_seconds", wall)
            .set("self_seconds", (wall - child_total).max(0.0))
            .set("children", Json::Array(kids));
        node
    }

    /// Reads a registry back from its [`to_json`](Self::to_json) form.
    ///
    /// Accepts both the v1 shape (`phases`/`counters`/`gauges` only) and
    /// the v2 shape with `histograms` and `spans`. Span ids are
    /// reallocated on read (they are process-local), and spans that were
    /// serialized unfinished come back as finished with a zero wall.
    /// Returns `None` on a malformed document.
    pub fn from_json(json: &Json) -> Option<Registry> {
        let mut reg = Registry::new();
        let Json::Object(phases) = json.get("phases")? else {
            return None;
        };
        for (name, value) in phases {
            let secs = value.as_f64()?;
            if !secs.is_finite() || secs < 0.0 {
                return None;
            }
            reg.record_phase(name, Duration::from_secs_f64(secs));
        }
        let Json::Object(counters) = json.get("counters")? else {
            return None;
        };
        for (name, value) in counters {
            reg.inc(name, value.as_u64()?);
        }
        let Json::Object(gauges) = json.get("gauges")? else {
            return None;
        };
        for (name, value) in gauges {
            reg.set_gauge(name, value.as_f64()?);
        }
        if let Some(hists) = json.get("histograms") {
            let Json::Object(hists) = hists else {
                return None;
            };
            for (name, value) in hists {
                reg.hists.insert(name.clone(), Histogram::from_json(value)?);
            }
        }
        if let Some(spans) = json.get("spans") {
            let Json::Array(roots) = spans else {
                return None;
            };
            for node in roots {
                restore_span(&mut reg, node, None)?;
            }
        }
        Some(reg)
    }
}

fn restore_span(reg: &mut Registry, node: &Json, parent: Option<u64>) -> Option<()> {
    let name = node.get("name")?.as_str()?;
    let wall = node.get("wall_seconds")?.as_f64()?;
    if !wall.is_finite() || wall < 0.0 {
        return None;
    }
    let id = crate::span::alloc_span_id();
    reg.record_span_start(id, parent, name);
    reg.record_span_finish(id, name, Duration::from_secs_f64(wall));
    if let Some(Json::Array(kids)) = node.get("children") {
        for kid in kids {
            restore_span(reg, kid, Some(id))?;
        }
    }
    Some(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_saturate() {
        let mut reg = Registry::new();
        reg.inc("a", u64::MAX - 1);
        reg.inc("a", 10);
        assert_eq!(reg.counter("a"), Some(u64::MAX));
        assert_eq!(reg.counter("missing"), None);
    }

    #[test]
    fn gauges_overwrite() {
        let mut reg = Registry::new();
        reg.set_gauge("g", 1.0);
        reg.set_gauge("g", 2.5);
        assert_eq!(reg.gauge("g"), Some(2.5));
    }

    #[test]
    fn phases_accumulate_in_order() {
        let mut reg = Registry::new();
        reg.record_phase("parse", Duration::from_millis(10));
        reg.record_phase("solve", Duration::from_millis(100));
        reg.record_phase("parse", Duration::from_millis(5));
        assert_eq!(reg.phase_names(), vec!["parse", "solve"]);
        assert!((reg.phase_seconds("parse").unwrap() - 0.015).abs() < 1e-9);
    }

    #[test]
    fn histograms_record_and_merge() {
        let mut a = Registry::new();
        a.record_hist("h", 2);
        a.record_hist("h", 1000);
        let mut b = Registry::new();
        b.record_hist("h", 3);
        b.record_hist("other", 1);
        a.merge(&b);
        let h = a.histogram("h").unwrap();
        assert_eq!(h.count(), 3);
        assert_eq!(h.max(), Some(1000));
        assert_eq!(a.histogram("other").unwrap().count(), 1);
        assert_eq!(a.histograms().count(), 2);
    }

    #[test]
    fn merge_combines_everything() {
        let mut a = Registry::new();
        a.inc("c", 1);
        a.record_phase("p", Duration::from_secs(1));
        a.record_span_start(1, None, "left");
        a.record_span_finish(1, "left", Duration::from_secs(1));
        let mut b = Registry::new();
        b.inc("c", 2);
        b.set_gauge("g", 7.0);
        b.record_phase("p", Duration::from_secs(2));
        b.record_span_start(2, None, "right");
        b.record_span_finish(2, "right", Duration::from_secs(2));
        a.merge(&b);
        assert_eq!(a.counter("c"), Some(3));
        assert_eq!(a.gauge("g"), Some(7.0));
        assert_eq!(a.phase_seconds("p"), Some(3.0));
        // Each registry keeps only its own span tree.
        assert_eq!(a.spans().len(), 1);
        assert_eq!(b.spans().len(), 1);
        let mut empty = Registry::new();
        empty.merge(&b);
        assert!(empty.spans().is_empty());
        assert_eq!(empty.phase_seconds("p"), Some(2.0));
    }

    #[test]
    fn span_tree_nests_and_computes_self_time() {
        let mut reg = Registry::new();
        reg.record_span_start(10, None, "check");
        reg.record_span_start(11, Some(10), "check:pass1");
        reg.record_span_start(12, Some(10), "check:resolve");
        reg.record_span_finish(11, "check:pass1", Duration::from_secs(1));
        reg.record_span_finish(12, "check:resolve", Duration::from_secs(2));
        reg.record_span_finish(10, "check", Duration::from_secs(4));
        let json = reg.to_json();
        let Json::Array(roots) = json.get("spans").unwrap() else {
            panic!("spans must be an array");
        };
        assert_eq!(roots.len(), 1);
        let root = &roots[0];
        assert_eq!(root.get("name").unwrap().as_str(), Some("check"));
        assert_eq!(root.get("wall_seconds").unwrap().as_f64(), Some(4.0));
        assert_eq!(root.get("self_seconds").unwrap().as_f64(), Some(1.0));
        let Json::Array(kids) = root.get("children").unwrap() else {
            panic!("children must be an array");
        };
        assert_eq!(kids.len(), 2);
        assert_eq!(kids[0].get("name").unwrap().as_str(), Some("check:pass1"));
    }

    #[test]
    fn unfinished_spans_serialize_with_zero_wall() {
        let mut reg = Registry::new();
        reg.record_span_start(1, None, "abandoned");
        let json = reg.to_json();
        let Json::Array(roots) = json.get("spans").unwrap() else {
            panic!("spans must be an array");
        };
        assert_eq!(roots[0].get("wall_seconds").unwrap().as_f64(), Some(0.0));
    }

    #[test]
    fn json_shape_is_stable() {
        let mut reg = Registry::new();
        reg.inc("solver.conflicts", 3);
        reg.set_gauge("check.peak_memory_bytes", 64.0);
        reg.record_phase("solve", Duration::from_millis(1));
        let json = reg.to_json();
        assert_eq!(
            json.keys(),
            vec!["phases", "counters", "gauges", "histograms", "spans"]
        );
        assert_eq!(
            json.path("counters.solver.conflicts"),
            None, // dotted names are single keys, not nesting
        );
        assert_eq!(
            json.get("counters")
                .unwrap()
                .get("solver.conflicts")
                .unwrap()
                .as_u64(),
            Some(3)
        );
        assert!(reg
            .to_json()
            .to_pretty_string()
            .contains("peak_memory_bytes"));
    }

    #[test]
    fn empty_registry_reports_empty() {
        let reg = Registry::new();
        assert!(reg.is_empty());
        assert_eq!(
            reg.to_json().to_string(),
            r#"{"phases":{},"counters":{},"gauges":{},"histograms":{},"spans":[]}"#
        );
    }

    #[test]
    fn from_json_round_trips_v2() {
        let mut reg = Registry::new();
        reg.inc("c", 9);
        reg.set_gauge("g", 0.5);
        reg.record_phase("p", Duration::from_millis(30));
        reg.record_hist("h", 17);
        reg.record_span_start(1, None, "root");
        reg.record_span_start(2, Some(1), "child");
        reg.record_span_finish(2, "child", Duration::from_secs(1));
        reg.record_span_finish(1, "root", Duration::from_secs(2));
        let back = Registry::from_json(&reg.to_json()).expect("round trip");
        assert_eq!(back.counter("c"), Some(9));
        assert_eq!(back.gauge("g"), Some(0.5));
        assert_eq!(back.phase_seconds("p"), reg.phase_seconds("p"));
        assert_eq!(back.histogram("h").unwrap().count(), 1);
        assert_eq!(back.spans().len(), 2);
        // Shape (not ids) survives the trip.
        assert_eq!(back.to_json().get("spans"), reg.to_json().get("spans"));
    }

    #[test]
    fn from_json_accepts_v1_documents() {
        let v1 = crate::json::parse(
            r#"{"phases":{"solve":0.25},"counters":{"solver.conflicts":7},"gauges":{"g":1.5}}"#,
        )
        .unwrap();
        let reg = Registry::from_json(&v1).expect("v1 parses");
        assert_eq!(reg.counter("solver.conflicts"), Some(7));
        assert_eq!(reg.phase_seconds("solve"), Some(0.25));
        assert!(reg.histograms().next().is_none());
        assert!(reg.spans().is_empty());
    }

    #[test]
    fn from_json_rejects_malformed() {
        assert!(Registry::from_json(&Json::Null).is_none());
        let bad = crate::json::parse(r#"{"phases":{"p":"oops"},"counters":{},"gauges":{}}"#);
        assert!(Registry::from_json(&bad.unwrap()).is_none());
    }
}
