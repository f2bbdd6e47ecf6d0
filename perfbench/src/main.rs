//! `perfbench` — the layered end-to-end benchmark of the backfilling
//! simulator.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1 \
//!           --bin-dir DIR --out-dir DIR
//! ```
//!
//! Runs one workload (`deep-queue`, `shallow-grid`, `sharded-sweep`,
//! `paper-repro`) from outside the program, calling each layer's public
//! functions, and prints one JSON result object as its last stdout line.
//! `--trace 0` reports the end-to-end metrics of an untraced run;
//! `--trace 1` reports the per-layer metrics of a traced run (the
//! benchmark's own spans around each layer call, plus the program's
//! existing counters and phase histograms). `--bin-dir` holds the
//! `bfsimd` daemon binary; `--out-dir` receives the traced run's spans.
//! `run.py` builds everything and supplies both directories; README.md
//! documents the workloads and metrics.

mod cells;
mod inproc;
mod repro;
mod spans;
mod stats;
mod sweep;

use std::collections::BTreeMap;
use std::path::PathBuf;

/// Passes per second of `--seconds`. A shallow-grid pass takes ~0.9 s on
/// the 2-core reference host and a deep-queue pass ~2.6 s; deep-queue
/// gets more passes than its pass time allows because its long cells
/// need more tries to meet a quiet moment of the host (see README.md).
const SHALLOW_PASSES_PER_S: f64 = 1.0;
const DEEP_PASSES_PER_S: f64 = 0.55;

/// The end-to-end metrics every workload reports with `--trace 0`.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("events_per_s", "1/s"),
    ("cells_per_s", "1/s"),
    ("cell_ms_p50", "ms"),
    ("cell_ms_tail", "ms"),
    ("peak_rss_mb", "MB"),
];

/// The traced run's per-layer metrics, in report order. Every workload
/// prints all of them; a layer the workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("workload.materialize_ms", "ms"),
    ("workload.traces", "count"),
    ("core.run_ms", "ms"),
    ("sim.events", "count"),
    ("driver.pop_ns_per_event", "ns"),
    ("driver.arrival_ns_per_event", "ns"),
    ("driver.completion_ns_per_event", "ns"),
    ("driver.wake_ns_per_event", "ns"),
    ("sched.queue.inserts", "count"),
    ("sched.queue.sorts", "count"),
    ("sched.queue.sorts_avoided", "count"),
    ("sched.phase.queue_ops_ms", "ms"),
    ("sched.profile.find_anchor_calls", "count"),
    ("sched.profile.segments_visited", "count"),
    ("sched.profile.tree.nodes_visited", "count"),
    ("sched.profile.tree.rebuilds", "count"),
    ("sched.profile.tree.incremental_updates", "count"),
    ("sched.profile.order_bytes_shifted", "count"),
    ("sched.profile.reserves", "count"),
    ("sched.profile.releases", "count"),
    ("sched.profile.peak_segments", "count"),
    ("sched.profile.fits_cache.hit_ratio", "ratio"),
    ("sched.profile.fits_cache.lookups", "count"),
    ("sched.compress.passes", "count"),
    ("sched.phase.compress_ms", "ms"),
    ("sched.phase.backfill_ms", "ms"),
    ("metrics.report_ms", "ms"),
    ("service.rtt_ms", "ms"),
    ("service.daemon_ms", "ms"),
    ("service.wait_ms", "ms"),
    ("service.cache.hit_ratio", "ratio"),
    ("service.trace_cache.hit_ratio", "ratio"),
    ("service.shed", "count"),
    ("service.failed", "count"),
    ("coord.dispatch_overhead_s", "s"),
    ("coord.shard_imbalance", "ratio"),
    ("coord.steals", "count"),
    ("coord.requeues", "count"),
    ("coord.warm_wall_s", "s"),
    ("repro.table1_s", "s"),
    ("repro.table2_s", "s"),
    ("repro.table3_s", "s"),
    ("repro.fig1_s", "s"),
    ("repro.fig2_s", "s"),
    ("repro.table4_s", "s"),
    ("repro.equiv_s", "s"),
    ("repro.table5_s", "s"),
    ("repro.table6_s", "s"),
    ("repro.fig3_s", "s"),
    ("repro.fig4_s", "s"),
    ("repro.table7_s", "s"),
    ("repro.normal-load_s", "s"),
    ("repro.load-sweep_s", "s"),
    ("repro.selective_s", "s"),
    ("repro.slack_s", "s"),
    ("repro.depth_s", "s"),
    ("repro.compression_s", "s"),
    ("repro.policies_s", "s"),
    ("repro.fairness_s", "s"),
    ("repro.shaking_s", "s"),
    ("repro.flurry_s", "s"),
    ("repro.preemption_s", "s"),
    ("runner.cpu_util", "ratio"),
    ("self_ms.bench", "ms"),
    ("self_ms.workload", "ms"),
    ("self_ms.core", "ms"),
    ("self_ms.simcore", "ms"),
    ("self_ms.driver", "ms"),
    ("self_ms.sched.queue", "ms"),
    ("self_ms.sched.passes", "ms"),
    ("self_ms.metrics", "ms"),
    ("self_ms.service", "ms"),
    ("self_ms.coord", "ms"),
    ("self_ms.experiments", "ms"),
    ("share.bench", "ratio"),
    ("share.workload", "ratio"),
    ("share.core", "ratio"),
    ("share.simcore", "ratio"),
    ("share.driver", "ratio"),
    ("share.sched.queue", "ratio"),
    ("share.sched.passes", "ratio"),
    ("share.metrics", "ratio"),
    ("share.service", "ratio"),
    ("share.coord", "ratio"),
    ("share.experiments", "ratio"),
    ("split.passes_of_driver", "ratio"),
    ("split.pop_handlers_of_driver", "ratio"),
    ("split.service_coord_of_cell", "ratio"),
    ("trace.overhead", "ratio"),
];

/// What one workload run measured.
#[derive(Default)]
pub struct Report {
    /// Outputs checked (cells, CSVs, daemon lifecycles).
    pub attempted: u64,
    /// Checked outputs that were wrong or missing.
    pub failed: u64,
    /// Metric values by name (units come from the tables above).
    pub metrics: BTreeMap<String, f64>,
    /// Human-readable lines printed before the result object.
    pub notes: Vec<String>,
}

impl Report {
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Count one checked output, failing it (with a note) unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            let line = format!("FAILED: {}", what());
            self.notes.push(line);
        }
    }
}

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub bin_dir: PathBuf,
    pub out_dir: PathBuf,
}

impl Args {
    /// Passes (or repetitions) a run makes at `per_second` passes per
    /// second of `--seconds`: a fixed count, so a run does the same work
    /// on any host and its percentiles rank the same number of samples.
    /// A traced run makes half as many, each a plain and a traced pass.
    pub fn passes(&self, per_second: f64) -> usize {
        let n = (self.seconds * per_second).round() as usize;
        (if self.trace { n / 2 } else { n }).max(3)
    }
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        flags.insert(flag.as_str(), value.as_str());
    }
    let get = |name: &str| {
        flags
            .get(name)
            .copied()
            .ok_or_else(|| format!("missing {name}"))
    };
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: get("--workload")?.to_string(),
        seed: get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds,
        trace: match get("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
        },
        bin_dir: PathBuf::from(get("--bin-dir")?),
        out_dir: PathBuf::from(get("--out-dir")?),
    })
}

/// Render the result object: `correct`, `attempted`, `failed` and the
/// metrics of `table`, each with its unit.
fn result_json(report: &Report, table: &[(&str, &str)]) -> String {
    let metrics: Vec<String> = table
        .iter()
        .map(|(name, unit)| {
            let v = report.metrics.get(*name).copied().unwrap_or(0.0);
            let v = if v.is_finite() { v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.failed == 0 && report.attempted > 0,
        report.attempted,
        report.failed,
        metrics.join(", ")
    )
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    });
    let report = match args.workload.as_str() {
        "deep-queue" => inproc::run(cells::deep_queue(args.seed), DEEP_PASSES_PER_S, &args),
        "shallow-grid" => inproc::run(cells::shallow_grid(args.seed), SHALLOW_PASSES_PER_S, &args),
        "sharded-sweep" => sweep::run(&args),
        "paper-repro" => repro::run(&args),
        other => {
            eprintln!("perfbench: unknown workload {other:?}");
            std::process::exit(2);
        }
    };
    let report = report.unwrap_or_else(|e| {
        eprintln!("perfbench: {}: {e}", args.workload);
        std::process::exit(1);
    });
    for line in &report.notes {
        println!("{line}");
    }
    let attempted = report.attempted.max(1);
    println!(
        "failed_frac = {} ({} of {} checked outputs failed)",
        report.failed as f64 / attempted as f64,
        report.failed,
        report.attempted
    );
    let table: &[(&str, &str)] = if args.trace { PER_LAYER } else { &END_TO_END };
    for (name, unit) in table {
        let v = report.metrics.get(*name).copied().unwrap_or(0.0);
        println!("{name:<42} {v:>16.6} {unit}");
    }
    println!("{}", result_json(&report, table));
}
