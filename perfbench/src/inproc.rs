//! `deep-queue` and `shallow-grid`: fixed cell lists simulated
//! single-threaded in this process.
//!
//! One pass materializes every distinct scenario's trace (`setup`), then
//! runs every cell on its trace with `RunConfig::run_on`. A run makes a
//! fixed number of passes (see [`Args::passes`]). Traced runs alternate
//! a plain pass with a traced one (the program's phase histograms on,
//! spans around every layer call, report construction timed) and
//! compare the two.

use crate::spans::Tracer;
use crate::{cells, stats, Args, Report};
use backfill_sim::{simulate_observed, RunConfig, Scenario, Schedule, SimOptions};
use obs::span::NESTED_SAMPLE;
use obs::{Phase, PhaseAcc};
use sched::ProfileStats;
use service::RunReport;
use std::cell::RefCell;
use std::rc::Rc;
use std::time::{Duration, Instant};
use workload::Trace;

/// Counters and timings of traced cell runs that feed per-layer metrics
/// (the sweep's in-process reference runs use it too).
#[derive(Default)]
pub struct Layers {
    events: u64,
    phase_ns: [u64; obs::span::PHASE_COUNT],
    profile: ProfileStats,
    pub materialize_ms: Vec<f64>,
    run_ms: Vec<f64>,
    report_ms: Vec<f64>,
}

/// One cell run with the program's phase histograms on, and its report.
pub struct Observed {
    pub schedule: Schedule,
    pub report: RunReport,
    pub phases: PhaseAcc,
    pub run: (Instant, Duration),
    pub build_report: (Instant, Duration),
}

impl Layers {
    /// Simulate `cell` on `trace` with phase timing on, build its report,
    /// and record the layer counters and timings.
    pub fn observe(&mut self, cell: &RunConfig, trace: &Trace) -> Observed {
        let acc = Rc::new(RefCell::new(PhaseAcc::new()));
        let t_run = Instant::now();
        let (schedule, _) = simulate_observed(
            trace,
            cell.kind,
            cell.policy,
            SimOptions::with_phases(acc.clone()),
        );
        let run_dur = t_run.elapsed();
        let t_report = Instant::now();
        let report = RunReport::from_schedule(cell, &schedule);
        let report_dur = t_report.elapsed();
        let phases = Rc::try_unwrap(acc)
            .expect("the simulation released its phase accumulator")
            .into_inner();
        for p in obs::span::ALL_PHASES {
            self.phase_ns[p as usize] += phases.histogram(p).sum();
        }
        self.run_ms.push(run_dur.as_secs_f64() * 1e3);
        self.report_ms.push(report_dur.as_secs_f64() * 1e3);
        self.events += schedule.events;
        if let Some(p) = &schedule.profile_stats {
            self.profile.absorb(p);
        }
        Observed {
            schedule,
            report,
            phases,
            run: (t_run, run_dur),
            build_report: (t_report, report_dur),
        }
    }
}

/// A workload's cells with their distinct scenarios: cells that share a
/// scenario share one materialized trace.
struct Grid<'a> {
    cells: &'a [RunConfig],
    scenarios: Vec<Scenario>,
    scenario_of: Vec<usize>,
}

impl<'a> Grid<'a> {
    fn new(cells: &'a [RunConfig]) -> Self {
        let mut scenarios: Vec<Scenario> = Vec::new();
        let scenario_of = cells
            .iter()
            .map(|c| match scenarios.iter().position(|s| *s == c.scenario) {
                Some(i) => i,
                None => {
                    scenarios.push(c.scenario);
                    scenarios.len() - 1
                }
            })
            .collect();
        Grid {
            cells,
            scenarios,
            scenario_of,
        }
    }
}

/// Run `workload` at `passes_per_s` passes per second of `--seconds`
/// (see [`Args::passes`]).
pub fn run(workload: Vec<cells::Cell>, passes_per_s: f64, args: &Args) -> Result<Report, String> {
    let mut report = Report::default();
    let configs: Vec<RunConfig> = workload.iter().map(|c| c.0).collect();
    let grid = Grid::new(&configs);
    let cells = &configs;
    let passes = args.passes(passes_per_s);

    let mut setup_s = Vec::new();
    // Per cell, its run time in every plain pass.
    let mut samples: Vec<Vec<f64>> = vec![Vec::with_capacity(passes); cells.len()];
    let mut events = 0;
    let mut first: Vec<u64> = Vec::new();
    let mut tracer = Tracer::new();
    let mut layers = Layers::default();
    // Per cell, its run time in every traced pass.
    let mut traced: Vec<Vec<f64>> = vec![Vec::with_capacity(passes); cells.len()];

    for pass in 0..passes {
        let t0 = Instant::now();
        let traces: Vec<Trace> = grid.scenarios.iter().map(Scenario::materialize).collect();
        setup_s.push(t0.elapsed().as_secs_f64());
        let mut fingerprints = Vec::with_capacity(cells.len());
        events = 0;
        for (i, cell) in cells.iter().enumerate() {
            let t = Instant::now();
            let schedule = cell.run_on(&traces[grid.scenario_of[i]]);
            samples[i].push(t.elapsed().as_secs_f64());
            events += schedule.events;
            let fp = schedule.fingerprint();
            if pass == 0 {
                check_first(&mut report, cell, &schedule, workload[i].1);
                first.push(fp);
            } else {
                report.check(fp == first[i], || {
                    format!("{}: fingerprint {fp} changed between passes", cell.label())
                });
            }
            fingerprints.push(fp);
        }
        if args.trace {
            let t = traced_pass(
                pass,
                &grid,
                &fingerprints,
                &mut tracer,
                &mut layers,
                &mut report,
            );
            for (samples, s) in traced.iter_mut().zip(t) {
                samples.push(s);
            }
        }
    }

    // Other tenants of the host only ever add time, in episodes that
    // last seconds; each cell's fastest pass is its least disturbed
    // measurement, and a pass is costed as the sum of those.
    let best: Vec<f64> = samples.iter().map(|v| stats::min(v)).collect();
    let pass_s: f64 = best.iter().sum();
    if args.trace {
        let traced: f64 = traced.iter().map(|v| stats::min(v)).sum();
        report.set("trace.overhead", traced / pass_s - 1.0);
        layers.report_into(&mut report, passes, grid.scenarios.len());
        tracer.report_into(&mut report, passes as f64);
        let path = args
            .out_dir
            .join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
        tracer
            .write_jsonl(&path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        report.note(format!("spans written to {}", path.display()));
    } else {
        let cell_ms: Vec<f64> = best.iter().map(|s| s * 1e3).collect();
        let (tail, pct, n) = stats::tail(&cell_ms);
        report.set("setup_s", stats::median(&setup_s));
        report.set("wall_s", pass_s);
        report.set("events_per_s", events as f64 / pass_s);
        report.set("cells_per_s", cells.len() as f64 / pass_s);
        report.set("cell_ms_p50", stats::median(&cell_ms));
        report.set("cell_ms_tail", tail);
        report.note(format!(
            "{} cells x {passes} passes, each cell timed at its fastest pass; \
             cell_ms_tail is p{pct:.1} of {n} cells",
            cells.len()
        ));
    }
    report.set("peak_rss_mb", stats::peak_rss_mb("self").unwrap_or(0.0));
    Ok(report)
}

/// First-pass checks: a valid schedule, and at the default seed the
/// pinned reference fingerprint.
fn check_first(report: &mut Report, cell: &RunConfig, schedule: &Schedule, pinned: Option<u64>) {
    let valid = schedule.validate();
    report.check(valid.is_ok(), || {
        format!("{}: invalid schedule: {valid:?}", cell.label())
    });
    if let Some(want) = pinned {
        let got = schedule.fingerprint();
        report.check(got == want, || {
            format!(
                "{}: fingerprint {got}, pinned reference {want}",
                cell.label()
            )
        });
    }
}

/// One traced pass: every layer call wrapped in a span, the program's
/// phase histograms on, and each fingerprint checked against the plain
/// pass's (tracing must not change a decision). Returns each cell's
/// `run_on` seconds.
fn traced_pass(
    pass: usize,
    grid: &Grid,
    plain: &[u64],
    tracer: &mut Tracer,
    layers: &mut Layers,
    report: &mut Report,
) -> Vec<f64> {
    let base = (pass as u64 + 1) << 32;
    let traces: Vec<Trace> = grid
        .scenarios
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let t = Instant::now();
            let trace = s.materialize();
            let dur = t.elapsed();
            layers.materialize_ms.push(dur.as_secs_f64() * 1e3);
            tracer.record(
                base | 0xFFFF_0000 | i as u64,
                0,
                "workload",
                "materialize",
                t,
                dur,
            );
            trace
        })
        .collect();
    let mut run_s = Vec::with_capacity(grid.cells.len());
    for (i, cell) in grid.cells.iter().enumerate() {
        let trace_id = base | i as u64;
        let label = cell.label();
        let t_cell = Instant::now();
        let o = layers.observe(cell, &traces[grid.scenario_of[i]]);
        let root = tracer.record(trace_id, 0, "bench", &label, t_cell, t_cell.elapsed());
        let run_id = tracer.record(trace_id, root, "core", "run_on", o.run.0, o.run.1);
        let (t_report, report_dur) = o.build_report;
        tracer.record(trace_id, root, "metrics", "report", t_report, report_dur);
        phase_spans(tracer, trace_id, run_id, &o.phases);
        run_s.push(o.run.1.as_secs_f64());
        let fp = o.report.fingerprint;
        report.check(fp == plain[i], || {
            format!(
                "{label}: traced fingerprint {fp} differs from plain {}",
                plain[i]
            )
        });
    }
    run_s
}

/// Attach the run's phase sums as derived child spans of its `run_on`
/// span: event pop (simcore) and the driver's handlers, with the
/// schedulers' nested queue-ops and compress/backfill phases (sampled
/// 1-in-`NESTED_SAMPLE`, so scaled up) as children of the handlers.
fn phase_spans(tracer: &mut Tracer, trace: u64, run_id: u64, acc: &PhaseAcc) {
    let sum = |p: Phase| acc.histogram(p).sum();
    let handlers = sum(Phase::Arrival) + sum(Phase::Completion) + sum(Phase::Wake);
    tracer.add(
        trace,
        run_id,
        "simcore",
        "event_pop",
        0,
        sum(Phase::EventPop),
    );
    let driver = tracer.add(trace, run_id, "driver", "handlers", 0, handlers);
    tracer.add(
        trace,
        driver,
        "sched.queue",
        "queue_ops",
        0,
        sum(Phase::QueueOps) * NESTED_SAMPLE,
    );
    let passes = (sum(Phase::Compress) + sum(Phase::Backfill)) * NESTED_SAMPLE;
    tracer.add(
        trace,
        driver,
        "sched.passes",
        "compress+backfill",
        0,
        passes,
    );
}

impl Layers {
    /// Set the per-layer metrics these runs feed; counts are per pass.
    pub fn report_into(&self, report: &mut Report, passes: usize, traces: usize) {
        let l = self;
        let per_pass = passes as f64;
        let events = l.events.max(1) as f64;
        let ns = |p: Phase| l.phase_ns[p as usize] as f64;
        let nested_ms = |p: Phase| ns(p) * NESTED_SAMPLE as f64 / 1e6 / per_pass;
        let p = &l.profile;
        let div = |x: u64| x as f64 / per_pass;
        report.set("workload.materialize_ms", stats::median(&l.materialize_ms));
        report.set("workload.traces", traces as f64);
        report.set("core.run_ms", stats::median(&l.run_ms));
        report.set("sim.events", l.events as f64 / per_pass);
        report.set("driver.pop_ns_per_event", ns(Phase::EventPop) / events);
        report.set("driver.arrival_ns_per_event", ns(Phase::Arrival) / events);
        report.set(
            "driver.completion_ns_per_event",
            ns(Phase::Completion) / events,
        );
        report.set("driver.wake_ns_per_event", ns(Phase::Wake) / events);
        report.set("sched.queue.inserts", div(p.queue_inserts));
        report.set("sched.queue.sorts", div(p.queue_sorts));
        report.set("sched.queue.sorts_avoided", div(p.queue_sorts_avoided));
        report.set("sched.phase.queue_ops_ms", nested_ms(Phase::QueueOps));
        report.set("sched.profile.find_anchor_calls", div(p.find_anchor_calls));
        report.set("sched.profile.segments_visited", div(p.segments_visited));
        report.set(
            "sched.profile.tree.nodes_visited",
            div(p.tree_nodes_visited),
        );
        report.set("sched.profile.tree.rebuilds", div(p.tree_rebuilds));
        report.set(
            "sched.profile.tree.incremental_updates",
            div(p.tree_incremental_updates),
        );
        report.set(
            "sched.profile.order_bytes_shifted",
            div(p.order_bytes_shifted),
        );
        report.set("sched.profile.reserves", div(p.reserves));
        report.set("sched.profile.releases", div(p.releases));
        report.set("sched.profile.peak_segments", p.peak_segments as f64);
        let lookups = p.fits_cache_hits + p.fits_cache_misses;
        report.set(
            "sched.profile.fits_cache.hit_ratio",
            p.fits_cache_hits as f64 / lookups.max(1) as f64,
        );
        report.set("sched.profile.fits_cache.lookups", div(lookups));
        report.set("sched.compress.passes", div(p.compress_passes));
        report.set("sched.phase.compress_ms", nested_ms(Phase::Compress));
        report.set("sched.phase.backfill_ms", nested_ms(Phase::Backfill));
        report.set("metrics.report_ms", stats::median(&l.report_ms));

        let top: f64 = [
            Phase::EventPop,
            Phase::Arrival,
            Phase::Completion,
            Phase::Wake,
        ]
        .iter()
        .map(|&p| ns(p))
        .sum();
        let sched_passes = (ns(Phase::Compress) + ns(Phase::Backfill)) * NESTED_SAMPLE as f64;
        let queue = ns(Phase::QueueOps) * NESTED_SAMPLE as f64;
        let handlers_self =
            ns(Phase::Arrival) + ns(Phase::Completion) + ns(Phase::Wake) - sched_passes - queue;
        report.set("split.passes_of_driver", sched_passes / top.max(1.0));
        report.set(
            "split.pop_handlers_of_driver",
            (ns(Phase::EventPop) + handlers_self.max(0.0)) / top.max(1.0),
        );
        report.note(format!(
        "nested phases (queue_ops, compress, backfill) are timed 1-in-{NESTED_SAMPLE} and scaled up; \
         fits-cache hit ratio base: {lookups} lookups over {passes} traced passes"
    ));
    }
}
