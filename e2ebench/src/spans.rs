//! Per-layer times read off an `obs` span tree.
//!
//! The checker already nests its phases under a per-strategy span
//! (`check:<s>` › `trace-map` / `check:pass1` / `check:dag-build` /
//! `check:resolve` / `final-phase`); the benchmark wraps its own calls
//! into the other crates in `bench:*` spans on the same observer. A
//! span's self time is its wall time minus its children's.

use crate::common::Layers;
use rescheck_obs::{MetricsSink, Registry, Span};
use std::collections::HashMap;

/// One finished span: name, wall seconds, self seconds.
pub struct SpanTime {
    pub name: String,
    pub wall: f64,
    pub self_s: f64,
}

pub fn span_times(reg: &Registry) -> Vec<SpanTime> {
    let wall = |s: &rescheck_obs::SpanRec| s.wall.map_or(0.0, |d| d.as_secs_f64());
    let mut children: HashMap<u64, f64> = HashMap::new();
    for span in reg.spans() {
        if let Some(parent) = span.parent {
            *children.entry(parent).or_default() += wall(span);
        }
    }
    reg.spans()
        .iter()
        .map(|span| SpanTime {
            name: span.name.clone(),
            wall: wall(span),
            self_s: (wall(span) - children.get(&span.id).copied().unwrap_or(0.0)).max(0.0),
        })
        .collect()
}

/// Runs `f`, inside a span named `name` when there is a sink.
pub fn within<T>(sink: Option<&mut MetricsSink>, name: &'static str, f: impl FnOnce() -> T) -> T {
    let Some(sink) = sink else { return f() };
    let mut span = Span::start(name, sink);
    let out = f();
    span.stop(sink);
    out
}

/// Total wall seconds of the spans called `name`.
pub fn wall_of(reg: &Registry, name: &str) -> f64 {
    span_times(reg)
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.wall)
        .sum()
}

/// Checker phase span → the per-strategy metric its self time feeds.
const PHASES: [(&str, &str); 5] = [
    ("trace-map", "map_s"),
    ("check:pass1", "pass1_s"),
    ("check:dag-build", "dag_build_s"),
    ("check:resolve", "resolve_s"),
    ("final-phase", "final_s"),
];

/// Adds one check's span times to `checker.<strategy>.*` and returns the
/// self time of its resolve phase. Portfolio replays the winning racer's
/// spans tagged `df:` / `bf:`, which count for the portfolio.
pub fn add_check_spans(layers: &mut Layers, strategy: &str, reg: &Registry) -> f64 {
    let own = format!("check:{strategy}");
    let mut resolve = 0.0;
    for span in span_times(reg) {
        let base = span
            .name
            .strip_prefix("df:")
            .or_else(|| span.name.strip_prefix("bf:"))
            .unwrap_or(&span.name);
        if base == own {
            layers.add(&format!("checker.{strategy}.wall_s"), span.wall);
        } else if let Some((_, key)) = PHASES.iter().find(|(phase, _)| *phase == base) {
            layers.add(&format!("checker.{strategy}.{key}"), span.self_s);
            match *key {
                "map_s" => layers.add("trace.open_s", span.self_s),
                "resolve_s" => resolve += span.self_s,
                _ => {}
            }
        }
    }
    resolve
}
