//! `paper-repro`: every experiment of the `repro` binary at the paper
//! configuration, called in-process through `bench::experiments` and
//! checked byte for byte against the committed `results/*.csv`.
//!
//! The experiments run once per run, in an order drawn from the seed
//! (paper order at the default seed); their outputs do not depend on the
//! order. This is the only workload that runs `core::runner`'s parallel
//! `run_all`, multi-seed trace generation and the experiments' table
//! building. A full pass is ~30 s of fixed work whose wall time moved
//! 25.9-32.5 s between identical runs on the 2-core reference host, so
//! it is not one of the workloads BENCHMARK.json gates on; run it by
//! hand (see README.md).

use crate::spans::Tracer;
use crate::{cells, stats, Args, Report};
use backfill_sim::TraceSource;
use bench::experiments::{ablations, accurate, estimates, robustness, workload_tables, Opts};
use metrics::Table;
use std::path::Path;
use std::time::Instant;

/// The experiments, in paper order (as `repro` runs them).
const EXPERIMENTS: [&str; 23] = [
    "table1",
    "table2",
    "table3",
    "fig1",
    "fig2",
    "table4",
    "equiv",
    "table5",
    "table6",
    "fig3",
    "fig4",
    "table7",
    "normal-load",
    "load-sweep",
    "selective",
    "slack",
    "depth",
    "compression",
    "policies",
    "fairness",
    "shaking",
    "flurry",
    "preemption",
];

/// The tables one experiment produces, exactly as `repro` builds them.
fn experiment(name: &str, opts: &Opts) -> Vec<Table> {
    match name {
        "table1" => vec![workload_tables::table1()],
        "table2" => vec![workload_tables::table2(opts)],
        "table3" => vec![workload_tables::table3(opts)],
        "fig1" => accurate::fig1(opts),
        "fig2" => accurate::fig2(opts),
        "table4" => vec![accurate::table4(opts)],
        "equiv" => vec![accurate::equivalence(opts)],
        "table5" => vec![estimates::tables5_6(opts).remove(0)],
        "table6" => vec![estimates::tables5_6(opts).remove(1)],
        "fig3" => estimates::fig3(opts),
        "fig4" => vec![estimates::fig4(opts)],
        "table7" => vec![estimates::table7(opts)],
        "normal-load" => vec![accurate::normal_vs_high_load(opts)],
        "load-sweep" => vec![ablations::load_sweep(opts, &[0.5, 0.6, 0.7, 0.8, 0.9, 1.0])],
        "selective" => vec![ablations::selective_sweep(
            opts,
            &[1.5, 2.0, 3.0, 5.0, 10.0],
        )],
        "slack" => vec![ablations::slack_sweep(
            opts,
            &[0.0, 0.5, 1.0, 2.0, 5.0, 10.0],
        )],
        "depth" => vec![ablations::depth_sweep(opts, &[1, 2, 4, 8, 16, 64])],
        "preemption" => vec![ablations::preemption_sweep(opts, &[1.5, 2.0, 5.0, 20.0])],
        "compression" => vec![ablations::compression_ablation(opts)],
        "policies" => vec![ablations::policy_ablation(opts)],
        "fairness" => vec![ablations::fairness_ablation(opts)],
        "shaking" => vec![robustness::shaking(
            opts,
            10,
            simcore::SimSpan::from_mins(3),
        )],
        "flurry" => vec![robustness::flurry(opts, 500)],
        other => unreachable!("unknown experiment {other}"),
    }
}

pub fn run(args: &Args) -> Result<Report, String> {
    let mut report = Report::default();
    let opts = Opts::default();
    let results = Path::new("results");
    if !results.is_dir() {
        return Err("results/ not found: run from the repository root".into());
    }

    // Set-up: generating the paper's base traces (CTC and SDSC at every
    // paper seed), the inputs the experiments start from.
    let sources: Vec<TraceSource> = opts
        .ctc_sources()
        .into_iter()
        .chain(opts.sdsc_sources())
        .collect();
    let setup: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            for s in &sources {
                std::hint::black_box(s.generate());
            }
            t.elapsed().as_secs_f64()
        })
        .collect();

    let registry = obs::metrics::global();
    let (events0, runs0) = (
        registry.counter("sim.events").get(),
        registry.counter("sim.runs").get(),
    );
    let cpu0 = stats::cpu_seconds();
    let mut tracer = Tracer::new();
    let mut per_experiment = Vec::new();
    let t_all = Instant::now();
    let mut order = EXPERIMENTS;
    cells::shuffle(args.seed, &mut order);
    for (trace, name) in order.into_iter().enumerate() {
        let t = Instant::now();
        let tables = experiment(name, &opts);
        let dur = t.elapsed();
        tracer.record(trace as u64 + 1, 0, "experiments", name, t, dur);
        per_experiment.push((name, dur.as_secs_f64()));
        for (i, table) in tables.iter().enumerate() {
            let suffix = if tables.len() > 1 {
                format!("-{}", i + 1)
            } else {
                String::new()
            };
            let path = results.join(format!("{name}{suffix}.csv"));
            let want = std::fs::read_to_string(&path).unwrap_or_default();
            report.check(table.to_csv() == want, || {
                format!("{name}: CSV differs from {}", path.display())
            });
        }
    }
    let wall = t_all.elapsed().as_secs_f64();
    let cpu = stats::cpu_seconds() - cpu0;
    let events = registry.counter("sim.events").get() - events0;
    let runs = registry.counter("sim.runs").get() - runs0;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());

    if args.trace {
        for (name, s) in &per_experiment {
            report.set(&format!("repro.{name}_s"), *s);
        }
        report.set("runner.cpu_util", cpu / (wall * nproc as f64));
        report.set("sim.events", events as f64);
        tracer.report_into(&mut report, 1.0);
        report.note(
            "trace.overhead is not measured here: the traced run adds one span per experiment"
                .into(),
        );
        let path = args
            .out_dir
            .join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
        tracer
            .write_jsonl(&path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        report.note(format!("spans written to {}", path.display()));
    } else {
        let ms: Vec<f64> = per_experiment.iter().map(|(_, s)| s * 1e3).collect();
        let (tail, pct, n) = stats::tail(&ms);
        report.set("setup_s", stats::median(&setup));
        report.set("wall_s", wall);
        report.set("events_per_s", events as f64 / wall);
        report.set("cells_per_s", runs as f64 / wall);
        report.set("cell_ms_p50", stats::median(&ms));
        report.set("cell_ms_tail", tail);
        report.note(format!(
            "{} experiments, {runs} simulations on {nproc} threads, CPU utilization {:.2}; \
             cell_ms_* are per experiment, tail is p{pct:.1} of {n}",
            EXPERIMENTS.len(),
            cpu / (wall * nproc as f64)
        ));
    }
    report.set("peak_rss_mb", stats::peak_rss_mb("self").unwrap_or(0.0));
    Ok(report)
}
