//! `sharded-sweep`: one coordinator (`coord::run_sweep`, this process)
//! against freshly spawned `bfsimd` shards.
//!
//! The loop is closed: each shard's in-flight window equals its worker
//! count (1), so the coordinator sends a shard its next cell only after
//! the previous reply. Every repetition spawns new daemons on free ports
//! (set-up), sweeps the cells cold, sweeps them again warm — every cell
//! a result-cache hit — and stops the daemons with the `shutdown` verb.
//! Fresh daemons matter: a repeat sweep against a live daemon is served
//! from its cache and measures nothing but the cache. Work stealing is
//! off: a stolen cell is cached on the shard that stole it, not on its
//! home shard, and the warm pass then misses there (with stealing on,
//! warm passes saw 248-251 of 252 hits).
//!
//! Plain runs sweep with the coordinator's span tracing on: the root
//! span it records per cell, from first submit to recorded reply, is the
//! only per-cell submit-to-reply clock the coordinator exposes. Traced
//! runs turn it off on every other repetition to measure its cost, turn
//! the spans of the others into per-layer self times, and make the
//! in-process reference runs with the program's phase histograms on.

use crate::inproc::Layers;
use crate::spans::Tracer;
use crate::{cells, stats, Args, Report};
use backfill_sim::{RunConfig, Scenario};
use coord::{run_sweep, SweepOptions, SweepOutcome};
use service::Client;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// Shards per sweep, one simulation worker each.
const SHARDS: usize = 2;
/// Repetitions per second of `--seconds` (see [`Args::passes`]); one
/// takes ~0.6 s on the 2-core reference host.
const REPS_PER_S: f64 = 1.7;
/// Deadline for the benchmark's own handshake and shutdown requests.
const DEADLINE: Duration = Duration::from_secs(10);

/// One `bfsimd` child process.
struct Daemon {
    child: Child,
    stdout: BufReader<ChildStdout>,
    addr: String,
}

impl Daemon {
    /// Spawn on a free port and read the bound address from the
    /// daemon's `listening on` line.
    fn spawn(bin: &Path) -> Result<Daemon, String> {
        let mut child = Command::new(bin)
            .args(["--addr", "127.0.0.1:0", "--workers", "1", "--queue", "4"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", bin.display()))?;
        let stdout = child.stdout.take().expect("stdout was piped");
        let mut daemon = Daemon {
            child,
            stdout: BufReader::new(stdout),
            addr: String::new(),
        };
        let mut line = String::new();
        daemon
            .stdout
            .read_line(&mut line)
            .map_err(|e| format!("reading bfsimd banner: {e}"))?;
        daemon.addr = line
            .strip_prefix("bfsimd listening on ")
            .and_then(|rest| rest.split_whitespace().next())
            .ok_or_else(|| format!("unexpected bfsimd banner {line:?}"))?
            .to_string();
        Ok(daemon)
    }

    /// Ask the daemon to drain and stop, and wait for it to exit. True
    /// when it acknowledged, said it stopped, and exited cleanly.
    fn shutdown(mut self) -> bool {
        let acked = Client::connect_with(self.addr.as_str(), Some(DEADLINE))
            .and_then(|mut c| c.shutdown())
            .is_ok();
        let mut rest = String::new();
        let _ = self.stdout.read_to_string(&mut rest);
        let exited = self.child.wait().is_ok_and(|s| s.success());
        acked && exited && rest.contains("drained and stopped")
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // A daemon that was not shut down cleanly (an error path) is
        // killed; either way the process is reaped before we return.
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// One repetition's measurements.
struct Rep {
    setup_s: f64,
    cold_s: f64,
    warm_s: f64,
    rss_mb: f64,
    cold: SweepOutcome,
    warm: SweepOutcome,
}

fn sweep_once(
    addrs: &[String],
    cells: &[RunConfig],
    spans: bool,
) -> Result<(f64, SweepOutcome), String> {
    let opts = SweepOptions {
        spans,
        steal: false,
        ..SweepOptions::default()
    };
    let t = Instant::now();
    let outcome = run_sweep(addrs, cells, &opts).map_err(|e| e.to_string())?;
    Ok((t.elapsed().as_secs_f64(), outcome))
}

/// Spawn a fresh fleet, sweep cold then warm (with the coordinator's
/// span tracing on or off), and stop the fleet.
fn repetition(
    bin: &Path,
    cells: &[RunConfig],
    spans: bool,
    report: &mut Report,
) -> Result<Rep, String> {
    let t = Instant::now();
    let mut fleet = Vec::with_capacity(SHARDS);
    for _ in 0..SHARDS {
        fleet.push(Daemon::spawn(bin)?);
    }
    for d in &fleet {
        Client::connect_with(d.addr.as_str(), Some(DEADLINE))
            .and_then(|mut c| c.capabilities())
            .map_err(|e| format!("handshake with {}: {e}", d.addr))?;
    }
    let setup_s = t.elapsed().as_secs_f64();
    let addrs: Vec<String> = fleet.iter().map(|d| d.addr.clone()).collect();
    let (cold_s, cold) = sweep_once(&addrs, cells, spans)?;
    let (warm_s, warm) = sweep_once(&addrs, cells, spans)?;
    let rss_mb = fleet
        .iter()
        .map(|d| stats::peak_rss_mb(&d.child.id().to_string()).unwrap_or(0.0))
        .sum();
    for d in fleet {
        let addr = d.addr.clone();
        let clean = d.shutdown();
        report.check(clean, || format!("daemon {addr} did not stop cleanly"));
    }
    Ok(Rep {
        setup_s,
        cold_s,
        warm_s,
        rss_mb,
        cold,
        warm,
    })
}

/// Check one pass: no failed cell, no dead shard, every cell's cache
/// provenance as expected and its fingerprint equal to the in-process
/// reference.
fn check_pass(
    report: &mut Report,
    pass: &str,
    out: &SweepOutcome,
    cells: &[RunConfig],
    reference: &[u64],
    cached: bool,
) {
    for f in &out.failed {
        report.check(false, || {
            format!("{pass} sweep: cell {} failed: {}", f.index, f.error)
        });
    }
    report.check(!out.degraded, || format!("{pass} sweep ended degraded"));
    for c in &out.cells {
        let label = cells[c.index].label();
        report.check(c.report.fingerprint == reference[c.index], || {
            format!(
                "{pass} sweep: {label}: fingerprint {} but in-process run_on gives {}",
                c.report.fingerprint, reference[c.index]
            )
        });
        report.check(c.cached == cached, || {
            format!(
                "{pass} sweep: {label}: cached = {}, expected {cached}",
                c.cached
            )
        });
    }
}

/// Coordinator-observed submit-to-reply time of every cell, in ms,
/// keyed by config hash.
fn cell_ms(out: &SweepOutcome) -> HashMap<u64, f64> {
    out.spans
        .iter()
        .filter(|src| src.name == "coordinator")
        .flat_map(|src| &src.spans)
        .filter(|s| s.name == "cell")
        .map(|s| (s.trace_id, s.dur_us as f64 / 1e3))
        .collect()
}

pub fn run(args: &Args) -> Result<Report, String> {
    let mut report = Report::default();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    if SHARDS > nproc {
        return Err(format!(
            "{SHARDS} single-worker shards need {SHARDS} cores, host has {nproc}"
        ));
    }
    let cells = cells::sharded_sweep(args.seed);
    let bin = args.bin_dir.join("bfsimd");
    let reps = args.passes(REPS_PER_S);
    // A traced run turns the coordinator's span tracing off on every
    // other repetition, to measure what it costs.
    let mut done = Vec::with_capacity(reps);
    for i in 0..reps {
        let spans = !args.trace || i % 2 == 0;
        done.push(repetition(&bin, &cells, spans, &mut report)?);
    }

    // In-process reference: every cell's `run_on` fingerprint. The
    // traced run makes these runs with the phase histograms on and times
    // each layer call, for the per-layer metrics the daemons cannot show.
    let mut layers = Layers::default();
    let mut traces: HashMap<String, workload::Trace> = HashMap::new();
    let mut reference = Vec::with_capacity(cells.len());
    for cell in &cells {
        let key = cell.scenario.canonical_json();
        if !traces.contains_key(&key) {
            let t = Instant::now();
            let trace = Scenario::materialize(&cell.scenario);
            layers.materialize_ms.push(t.elapsed().as_secs_f64() * 1e3);
            traces.insert(key.clone(), trace);
        }
        let schedule = if args.trace {
            layers.observe(cell, &traces[&key]).schedule
        } else {
            cell.run_on(&traces[&key])
        };
        let valid = schedule.validate();
        report.check(valid.is_ok(), || {
            format!("{}: invalid schedule: {valid:?}", cell.label())
        });
        reference.push(schedule.fingerprint());
    }

    for rep in &done {
        check_pass(&mut report, "cold", &rep.cold, &cells, &reference, false);
        check_pass(&mut report, "warm", &rep.warm, &cells, &reference, true);
        let n = cells.len() as u64;
        let cold_hits = rep.cold.stats.map_or(u64::MAX, |s| s.cache_hits);
        let warm_hits = rep.warm.stats.map_or(0, |s| s.cache_hits);
        report.check(cold_hits == 0, || {
            format!("cold sweep saw {cold_hits} cache hits")
        });
        report.check(warm_hits == n, || {
            format!("after the warm sweep the shards count {warm_hits} cache hits, expected {n}")
        });
    }

    if args.trace {
        layers.report_into(&mut report, 1, traces.len());
        trace_layers(args, &mut report, &done)?;
    } else {
        // As in the in-process workloads, each cell is timed at its
        // fastest repetition, and the sweep at its fastest cold pass.
        let mut fastest: HashMap<u64, f64> = HashMap::new();
        for (hash, ms) in done.iter().flat_map(|r| cell_ms(&r.cold)) {
            let best = fastest.entry(hash).or_insert(ms);
            *best = best.min(ms);
        }
        let cold_ms: Vec<f64> = fastest.into_values().collect();
        let (tail, pct, n) = stats::tail(&cold_ms);
        let cold_s = stats::min(&done.iter().map(|r| r.cold_s).collect::<Vec<_>>());
        let events: u64 = done[0].cold.cells.iter().map(|c| c.report.events).sum();
        let setup: Vec<f64> = done.iter().map(|r| r.setup_s).collect();
        report.set("setup_s", stats::median(&setup));
        report.set("wall_s", cold_s);
        report.set("events_per_s", events as f64 / cold_s);
        report.set("cells_per_s", cells.len() as f64 / cold_s);
        report.set("cell_ms_p50", stats::median(&cold_ms));
        report.set("cell_ms_tail", tail);
        let rss: Vec<f64> = done.iter().map(|r| r.rss_mb).collect();
        report.set("peak_rss_mb", stats::median(&rss));
        report.note(format!(
            "{} cells x {reps} repetitions on {SHARDS} fresh single-worker shards; \
             warm re-sweep {:.4} s; cell_ms_tail is p{pct:.1} of {n} cold cells",
            cells.len(),
            stats::min(&done.iter().map(|r| r.warm_s).collect::<Vec<_>>()),
        ));
    }
    Ok(report)
}

/// `f` of every repetition.
fn each(reps: &[&Rep], f: impl Fn(&Rep) -> f64) -> Vec<f64> {
    reps.iter().map(|r| f(r)).collect()
}

/// Per-layer metrics of the traced run: the cold sweeps' spans turned
/// into layer self times (coordinator, service wire/pool/cache, daemon
/// simulation), the shards' counters, and the in-process layer timings.
fn trace_layers(args: &Args, report: &mut Report, reps: &[Rep]) -> Result<(), String> {
    let mut tracer = Tracer::new();
    let mut rtt = Vec::new();
    let mut daemon = Vec::new();
    let mut wait = Vec::new();
    let mut overhead = Vec::new();
    let mut imbalance = Vec::new();
    // Even repetitions ran with span tracing on; their spans become the
    // per-layer self times.
    let (traced, plain): (Vec<&Rep>, Vec<&Rep>) =
        reps.iter().partition(|r| !r.cold.spans.is_empty());
    for rep in &traced {
        let out = &rep.cold;
        let mut by_trace: HashMap<u64, Vec<&obs::SpanRecord>> = HashMap::new();
        for span in out.spans.iter().flat_map(|s| &s.spans) {
            by_trace.entry(span.trace_id).or_default().push(span);
        }
        for (&trace, spans) in &by_trace {
            let ns = |name: &str| -> u64 {
                spans
                    .iter()
                    .filter(|s| s.name == name)
                    .map(|s| s.dur_us * 1000)
                    .sum()
            };
            if ns("cell") == 0 {
                continue;
            }
            // Daemon spans parent onto the coordinator's attempt span
            // across processes whose clocks are not comparable, so the
            // nesting is rebuilt from what each span is known to contain.
            let cell = tracer.add(trace, 0, "coord", "cell", 0, ns("cell"));
            let attempt = tracer.add(trace, cell, "coord", "attempt", 0, ns("attempt"));
            let wire = tracer.add(
                trace,
                attempt,
                "service",
                "client.attempt",
                0,
                ns("client.attempt"),
            );
            let served = ns("cache.miss") + ns("cache.hit");
            let handler = tracer.add(trace, wire, "service", "cache", 0, served);
            tracer.add(trace, handler, "service", "pool.wait", 0, ns("pool.wait"));
            tracer.add(trace, handler, "core", "pool.run", 0, ns("pool.run"));
        }
        let latency = cell_ms(out);
        let mut busy = [0.0; SHARDS];
        for c in &out.cells {
            let r = by_trace.get(&c.config_hash).map_or(0.0, |spans| {
                spans
                    .iter()
                    .filter(|s| s.name == "client.attempt")
                    .map(|s| s.dur_us as f64 / 1e3)
                    .sum()
            });
            rtt.push(r);
            daemon.push(c.wall_ms as f64);
            wait.push(r - c.wall_ms as f64);
            busy[c.shard] += latency.get(&c.config_hash).copied().unwrap_or(0.0) / 1e3;
        }
        let busiest = busy.iter().copied().fold(0.0, f64::max);
        overhead.push(rep.cold_s - busiest);
        imbalance.push(busiest / (busy.iter().sum::<f64>() / SHARDS as f64));
    }
    let cold = |reps: &[&Rep]| stats::min(&each(reps, |r| r.cold_s));
    report.set("trace.overhead", cold(&traced) / cold(&plain) - 1.0);
    let first = &reps[0].cold;
    let stats_of = |out: &SweepOutcome| out.stats.unwrap_or_default();
    let last = stats_of(&reps[reps.len() - 1].warm);
    let counter = |name: &str| {
        first
            .metrics_json
            .as_deref()
            .and_then(|doc| coord::parse_metrics_doc(doc).ok())
            .and_then(|snap| {
                snap.into_iter().find_map(|(n, v)| match v {
                    obs::SnapshotValue::Counter(c) if n == name => Some(c),
                    _ => None,
                })
            })
            .unwrap_or(0)
    };
    let (tc_hits, tc_misses) = (
        counter("service.trace_cache.hits"),
        counter("service.trace_cache.misses"),
    );
    report.set("service.rtt_ms", stats::median(&rtt));
    report.set("service.daemon_ms", stats::median(&daemon));
    report.set("service.wait_ms", stats::median(&wait));
    report.set(
        "service.cache.hit_ratio",
        last.cache_hits as f64 / (last.cache_hits + last.cache_misses).max(1) as f64,
    );
    report.set(
        "service.trace_cache.hit_ratio",
        tc_hits as f64 / (tc_hits + tc_misses).max(1) as f64,
    );
    report.set("service.shed", stats_of(first).shed as f64);
    report.set("service.failed", stats_of(first).failed as f64);
    report.set("coord.dispatch_overhead_s", stats::median(&overhead));
    report.set("coord.shard_imbalance", stats::median(&imbalance));
    let all: Vec<&Rep> = reps.iter().collect();
    report.set(
        "coord.steals",
        stats::median(&each(&all, |r| r.cold.steals as f64)),
    );
    report.set(
        "coord.requeues",
        stats::median(&each(&all, |r| r.cold.requeues as f64)),
    );
    report.set("coord.warm_wall_s", stats::min(&each(&all, |r| r.warm_s)));
    let (by_layer, total) = tracer.self_times();
    let own = |l: &str| by_layer.get(l).copied().unwrap_or(0) as f64;
    report.set(
        "split.service_coord_of_cell",
        (own("service") + own("coord")) / total.max(1) as f64,
    );
    tracer.report_into(report, traced.len() as f64);
    report.note(format!(
        "service.cache.hit_ratio base: {} lookups over one cold and one warm sweep; \
         trace-cache base: {} lookups in the first cold sweep; \
         service.daemon_ms is RunReply.wall_ms (whole ms)",
        last.cache_hits + last.cache_misses,
        tc_hits + tc_misses
    ));
    let path = args
        .out_dir
        .join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
    tracer
        .write_jsonl(&path)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    report.note(format!("spans written to {}", path.display()));
    Ok(())
}
