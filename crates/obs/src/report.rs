//! The metrics document — the `rescheck-metrics-v2` schema shared by the
//! CLI's metrics flags, the table binaries' `--json` flag and the
//! `serve` daemon's verdict and metrics frames.
//!
//! The document shape is:
//!
//! ```json
//! {
//!   "schema": "rescheck-metrics-v2",
//!   "command": "check",
//!   "phases": {"parse": 0.01, "solve": 1.2, ...},
//!   "counters": {"solver.conflicts": 1234, ...},
//!   "gauges": {"check.peak_memory_bytes": 65536.0, ...},
//!   "histograms": {"check.resolve.chain_len": {"count": …, "buckets": […]}, ...},
//!   "spans": [{"name": "check", "wall_seconds": …, "children": […]}, ...],
//!   ...command-specific sections ("solver", "check", "rows")...
//! }
//! ```
//!
//! v2 is a strict superset of v1: the two new top-level keys
//! (`histograms`, `spans`) are additive, so v1 consumers that only read
//! `phases`/`counters`/`gauges` keep working, and
//! [`Registry::from_json`] reads both shapes.

use crate::json::Json;
use crate::metrics::Registry;

/// The schema tag stamped on every metrics document.
pub const SCHEMA: &str = "rescheck-metrics-v2";

/// The previous schema tag, still accepted by readers (checked-in
/// baselines from earlier versions carry it).
pub const SCHEMA_V1: &str = "rescheck-metrics-v1";

/// The skeleton of a metrics document: schema tag, the producing
/// command, and the registry's phases / counters / gauges / histograms
/// / span tree at top level.
pub fn metrics_document(command: &str, registry: &Registry) -> Json {
    let mut root = Json::object();
    root.set("schema", SCHEMA).set("command", command);
    if let Json::Object(sections) = registry.to_json() {
        for (key, value) in sections {
            root.set(&key, value);
        }
    }
    root
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn document_skeleton_has_stable_keys() {
        let mut reg = Registry::new();
        reg.inc("solver.conflicts", 1);
        reg.record_phase("solve", Duration::from_millis(5));
        let doc = metrics_document("solve", &reg);
        assert_eq!(
            doc.keys(),
            vec![
                "schema",
                "command",
                "phases",
                "counters",
                "gauges",
                "histograms",
                "spans"
            ]
        );
        assert_eq!(doc.path("schema").unwrap().as_str(), Some(SCHEMA));
        assert_eq!(SCHEMA, "rescheck-metrics-v2");
        assert_eq!(SCHEMA_V1, "rescheck-metrics-v1");
        assert!(doc.get("phases").unwrap().get("solve").is_some());
        // An empty registry still yields every section.
        assert_eq!(metrics_document("x", &Registry::new()).keys(), doc.keys());
    }
}
