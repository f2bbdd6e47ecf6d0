//! The benchmark's own span recorder, used only by traced runs.
//!
//! Spans are recorded from the benchmark's side of each layer call and
//! kept in memory; [`Tracer::write_jsonl`] writes them when the run
//! ends. Each span names the layer it measures. A layer's self time is
//! its spans' durations minus the part their child spans cover, so the
//! self times of one trace add up to its root span's duration.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

/// Layer names, as they appear in `self_ms.*` / `share.*` metrics.
pub const LAYERS: [&str; 11] = [
    "bench",
    "workload",
    "core",
    "simcore",
    "driver",
    "sched.queue",
    "sched.passes",
    "metrics",
    "service",
    "coord",
    "experiments",
];

/// One recorded span. `parent == 0` marks a root.
#[derive(Debug, Clone)]
pub struct SpanRec {
    pub trace: u64,
    pub id: u64,
    pub parent: u64,
    pub layer: &'static str,
    pub name: String,
    pub start_ns: u64,
    pub dur_ns: u64,
}

pub struct Tracer {
    epoch: Instant,
    next: u64,
    spans: Vec<SpanRec>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            next: 1,
            spans: Vec::new(),
        }
    }

    /// Record a span that started at `start` and lasted `dur`; returns
    /// its id for use as a parent.
    pub fn record(
        &mut self,
        trace: u64,
        parent: u64,
        layer: &'static str,
        name: &str,
        start: Instant,
        dur: Duration,
    ) -> u64 {
        let start_ns = start.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.add(trace, parent, layer, name, start_ns, dur.as_nanos() as u64)
    }

    /// Record a span with explicit start and duration — used for
    /// durations the program measured itself (phase sums, daemon spans).
    pub fn add(
        &mut self,
        trace: u64,
        parent: u64,
        layer: &'static str,
        name: &str,
        start_ns: u64,
        dur_ns: u64,
    ) -> u64 {
        let id = self.next;
        self.next += 1;
        self.spans.push(SpanRec {
            trace,
            id,
            parent,
            layer,
            name: name.to_string(),
            start_ns,
            dur_ns,
        });
        id
    }

    /// Self time per layer in nanoseconds, and the total duration of all
    /// root spans (the denominator of each layer's share).
    pub fn self_times(&self) -> (BTreeMap<&'static str, u64>, u64) {
        let mut covered: BTreeMap<u64, u64> = BTreeMap::new();
        for s in &self.spans {
            if s.parent != 0 {
                *covered.entry(s.parent).or_default() += s.dur_ns;
            }
        }
        let mut by_layer: BTreeMap<&'static str, u64> = BTreeMap::new();
        let mut total = 0;
        for s in &self.spans {
            let own = s
                .dur_ns
                .saturating_sub(covered.get(&s.id).copied().unwrap_or(0));
            *by_layer.entry(s.layer).or_default() += own;
            if s.parent == 0 {
                total += s.dur_ns;
            }
        }
        (by_layer, total)
    }

    /// Set `self_ms.<layer>` (self time per unit of work: the recorded
    /// total divided by `units`) and `share.<layer>` for every layer.
    pub fn report_into(&self, report: &mut crate::Report, units: f64) {
        let (by_layer, total) = self.self_times();
        for layer in LAYERS {
            let ns = by_layer.get(layer).copied().unwrap_or(0);
            report.set(&format!("self_ms.{layer}"), ns as f64 / 1e6 / units);
            let share = if total == 0 {
                0.0
            } else {
                ns as f64 / total as f64
            };
            report.set(&format!("share.{layer}"), share);
        }
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"trace\":{},\"id\":{},\"parent\":{},\"layer\":\"{}\",\"name\":\"{}\",\"start_ns\":{},\"dur_ns\":{}}}",
                s.trace, s.id, s.parent, s.layer, s.name, s.start_ns, s.dur_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new();
        let root = t.add(1, 0, "bench", "cell", 0, 100);
        let run = t.add(1, root, "core", "run_on", 10, 70);
        t.add(1, run, "simcore", "event_pop", 10, 20);
        t.add(1, root, "metrics", "report", 80, 15);
        let (by_layer, total) = t.self_times();
        assert_eq!(total, 100);
        assert_eq!(by_layer["bench"], 15);
        assert_eq!(by_layer["core"], 50);
        assert_eq!(by_layer["simcore"], 20);
        assert_eq!(by_layer["metrics"], 15);
        assert_eq!(by_layer.values().sum::<u64>(), total);
    }
}
