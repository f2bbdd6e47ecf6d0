//! Bounded simulation pool: a permit gate with backpressure, load
//! shedding, and per-run fault isolation.
//!
//! The pool owns no threads. The connection handler that parsed a
//! submit runs the simulation itself through [`Pool::run`], holding one
//! of `workers` permits while it does. Up to `queue_cap` callers may
//! wait for a permit, admitted in arrival order; the next one is handed
//! back [`RunError::Full`] at once, and the server answers `Busy`
//! instead of stalling its connection.
//!
//! Two fault boundaries protect the daemon:
//!
//! * `backfill_sim::run_cell` catches panics **inside** a simulation, so
//!   a poisoned scenario produces an error result for its requester;
//! * [`Pool::run`] wraps each run in its own `catch_unwind`, so a panic
//!   **outside** the simulation (an injected worker fault, or a real bug
//!   in the pool path) kills neither the handler thread nor the daemon.
//!   The caller gets [`RunError::Crashed`] — exactly what a dead worker
//!   used to look like — and `worker_panics` counts the event.

use crate::fault::FaultActions;
use crate::tracecache::TraceCache;
use backfill_sim::{run_cell_observed_on, run_cell_on, CellError, RunConfig, Schedule, SimOptions};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// What one run produced.
pub struct Ran {
    /// The schedule, or the isolated panic.
    pub outcome: Result<Schedule, CellError>,
    /// Time spent simulating (excludes the permit wait).
    pub run_wall: Duration,
    /// Per-phase simulator timings, collected only for traced runs; the
    /// handler flushes them into the daemon's registry histograms.
    pub phases: Option<obs::PhaseAcc>,
}

/// Why [`Pool::run`] produced no result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunError {
    /// `queue_cap` callers already wait for a permit: shed the request.
    Full,
    /// The pool has shut down.
    Closed,
    /// The run panicked outside the simulation boundary (an injected
    /// fault or a pool-path bug); [`Pool::worker_panics`] counted it.
    Crashed,
}

/// Permit bookkeeping, guarded by [`Pool::gate`].
#[derive(Default)]
struct Gate {
    /// Permits held.
    running: usize,
    /// Callers waiting for a permit.
    waiting: usize,
    /// Next waiter ticket to hand out, and the ticket admitted next:
    /// waiters are admitted in arrival order.
    next_ticket: u64,
    serving: u64,
    closed: bool,
}

/// A held permit; dropping it frees the permit.
struct Permit<'a>(&'a Pool);

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        self.0.lock().running -= 1;
        self.0.changed.notify_all();
    }
}

/// At most `workers` concurrent simulations, at most `queue_cap`
/// callers waiting for one.
pub struct Pool {
    workers: usize,
    queue_cap: usize,
    gate: Mutex<Gate>,
    /// Signalled whenever a permit frees or a waiter is admitted.
    changed: Condvar,
    panics: AtomicUsize,
    traces: Arc<TraceCache>,
}

impl Pool {
    /// A pool of `workers` permits behind at most `queue_cap` waiters,
    /// sharing a default-capacity [`TraceCache`]. Both sizes must be at
    /// least 1.
    pub fn new(workers: usize, queue_cap: usize) -> Self {
        Self::with_trace_cache(workers, queue_cap, Arc::new(TraceCache::new()))
    }

    /// Like [`Self::new`], sharing the caller's trace cache — the daemon
    /// hands in the cache whose counters it has bound to its registry.
    pub fn with_trace_cache(workers: usize, queue_cap: usize, traces: Arc<TraceCache>) -> Self {
        assert!(workers >= 1, "pool needs at least one worker");
        Pool {
            workers,
            queue_cap,
            gate: Mutex::new(Gate::default()),
            changed: Condvar::new(),
            panics: AtomicUsize::new(0),
            traces,
        }
    }

    fn lock(&self) -> MutexGuard<'_, Gate> {
        // No user code runs under the lock, so a poisoned guard still
        // holds consistent counts.
        self.gate.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Take a permit, waiting in line behind earlier callers; refuse
    /// with `Full` when `queue_cap` callers already wait.
    fn admit(&self) -> Result<Permit<'_>, RunError> {
        let mut gate = self.lock();
        if gate.closed {
            return Err(RunError::Closed);
        }
        if gate.waiting == 0 && gate.running < self.workers {
            gate.running += 1;
            return Ok(Permit(self));
        }
        if gate.waiting >= self.queue_cap {
            return Err(RunError::Full);
        }
        let ticket = gate.next_ticket;
        gate.next_ticket += 1;
        gate.waiting += 1;
        while gate.serving != ticket || gate.running >= self.workers {
            gate = self
                .changed
                .wait(gate)
                .unwrap_or_else(PoisonError::into_inner);
        }
        gate.serving += 1;
        gate.waiting -= 1;
        gate.running += 1;
        drop(gate);
        // The next ticket may be admissible too (several permits free).
        self.changed.notify_all();
        Ok(Permit(self))
    }

    /// Simulate `config` on the calling thread under a permit.
    ///
    /// Injected faults apply once the permit is held: `delay` sleeps,
    /// then `panic` panics, both ahead of the simulation (the wire-level
    /// kinds belong to the connection handler). With a `trace` parent
    /// the run records a `pool.wait` span (the permit wait) and a
    /// `pool.run` span (the simulation), and simulates with per-phase
    /// profiling.
    pub fn run(
        &self,
        config: RunConfig,
        fault: FaultActions,
        trace: Option<obs::SpanContext>,
    ) -> Result<Ran, RunError> {
        let accepted = Instant::now();
        let permit = self.admit()?;
        // The outer catch_unwind is the pool's own crash boundary:
        // injected panics (and any real bug outside the simulation
        // boundary) land here, not on the handler thread.
        let ran = catch_unwind(AssertUnwindSafe(|| {
            // The wait span closes at admission, before any injected
            // fault stretches the timeline.
            if let Some(ctx) = trace {
                let wait_us = accepted.elapsed().as_micros() as u64;
                obs::span::record_raw(obs::SpanRecord {
                    trace_id: ctx.trace_id,
                    span_id: obs::span::next_span_id(),
                    parent_id: ctx.span_id,
                    name: "pool.wait".into(),
                    start_us: obs::span::now_micros().saturating_sub(wait_us),
                    dur_us: wait_us,
                });
            }
            if let Some(delay) = fault.delay {
                std::thread::sleep(delay);
            }
            if fault.panic {
                panic!("injected worker panic (fault plan)");
            }
            let started = Instant::now();
            let run_span = trace.map(|ctx| obs::Span::child(ctx, "pool.run"));
            // Traced runs profile per phase; the sampled phase spans
            // parent under the pool.run span. Untraced runs keep the
            // plain (zero-overhead) path.
            let phase_acc = trace.map(|_| {
                let acc = std::rc::Rc::new(std::cell::RefCell::new(obs::PhaseAcc::new()));
                if let Some(ctx) = run_span.as_ref().and_then(|s| s.ctx()) {
                    acc.borrow_mut().set_ctx(ctx);
                }
                acc
            });
            // Trace sharing: runs over the same scenario reuse one
            // materialized trace. Both halves — materialization and
            // simulation — keep run_cell's per-run fault isolation.
            let outcome = match self.traces.get_or_materialize(&config.scenario) {
                Ok(trace) => match &phase_acc {
                    Some(acc) => {
                        run_cell_observed_on(&config, &trace, SimOptions::with_phases(acc.clone()))
                    }
                    None => run_cell_on(&config, &trace),
                },
                Err(panic) => Err(CellError { config, panic }),
            };
            drop(run_span); // records the span's end
            Ran {
                outcome,
                run_wall: started.elapsed(),
                phases: phase_acc
                    .and_then(|acc| std::rc::Rc::try_unwrap(acc).ok())
                    .map(std::cell::RefCell::into_inner),
            }
        }));
        // Free the permit before the caller can observe the result: the
        // handler bumps `completed` next, and a run counted both
        // completed and in flight would read as `submitted ≥ completed
        // + in_flight` violated.
        drop(permit);
        ran.map_err(|_| {
            self.panics.fetch_add(1, Ordering::SeqCst);
            RunError::Crashed
        })
    }

    /// The scenario-keyed trace cache shared by every run.
    pub fn trace_cache(&self) -> &TraceCache {
        &self.traces
    }

    /// Callers waiting for a permit.
    pub fn queue_depth(&self) -> usize {
        self.lock().waiting
    }

    /// Runs holding a permit (simulating right now).
    pub fn in_flight(&self) -> usize {
        self.lock().running
    }

    /// Runs that panicked outside the simulation boundary (injected
    /// faults and pool-path bugs).
    pub fn worker_panics(&self) -> usize {
        self.panics.load(Ordering::SeqCst)
    }

    /// Refuse new runs, then wait until every caller already admitted
    /// or waiting has finished. After this, [`Self::run`] fails with
    /// [`RunError::Closed`]; callers that were waiting before the close
    /// still run.
    pub fn shutdown(&self) {
        let mut gate = self.lock();
        gate.closed = true;
        while gate.running > 0 || gate.waiting > 0 {
            gate = self
                .changed
                .wait(gate)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use backfill_sim::{Scenario, SchedulerKind, TraceSource};
    use sched::Policy;

    fn config(seed: u64, load: f64) -> RunConfig {
        RunConfig {
            scenario: Scenario {
                source: TraceSource::Ctc { jobs: 80, seed },
                estimate: workload::EstimateModel::Exact,
                estimate_seed: 1,
                load: Some(load),
            },
            kind: SchedulerKind::Easy,
            policy: Policy::Fcfs,
        }
    }

    fn delayed(ms: u64) -> FaultActions {
        FaultActions {
            delay: Some(Duration::from_millis(ms)),
            ..FaultActions::default()
        }
    }

    /// Run `configs` on one thread each (with `fault`), collecting every
    /// result.
    fn run_all(
        pool: &Pool,
        configs: &[RunConfig],
        fault: FaultActions,
    ) -> Vec<Result<Ran, RunError>> {
        std::thread::scope(|scope| {
            let runs: Vec<_> = configs
                .iter()
                .map(|&config| scope.spawn(move || pool.run(config, fault, None)))
                .collect();
            runs.into_iter().map(|r| r.join().unwrap()).collect()
        })
    }

    #[test]
    fn executes_and_replies() {
        let pool = Pool::new(2, 4);
        let configs: Vec<RunConfig> = (0..6u64).map(|seed| config(seed, 0.9)).collect();
        let results = run_all(&pool, &configs, FaultActions::default());
        let mut seen = 0;
        for result in results {
            assert!(result.expect("admitted").outcome.is_ok());
            seen += 1;
        }
        assert_eq!(seen, 6);
        pool.shutdown();
        assert_eq!(pool.queue_depth(), 0);
        assert_eq!(pool.in_flight(), 0);
        assert_eq!(pool.worker_panics(), 0);
    }

    #[test]
    fn tasks_over_one_scenario_share_a_trace() {
        let pool = Pool::new(2, 8);
        // Six runs, two distinct scenarios: the cache must materialize
        // exactly two traces, everything else hits.
        let configs: Vec<RunConfig> = (0..6u64).map(|i| config(i % 2, 0.9)).collect();
        for result in run_all(&pool, &configs, FaultActions::default()) {
            assert!(result.is_ok());
        }
        let (hits, misses, entries, evictions) = pool.trace_cache().stats();
        assert_eq!(hits + misses, 6);
        assert_eq!(entries, 2);
        assert_eq!(evictions, 0);
        // Concurrent runs may race the first materialization of each
        // scenario, so misses can exceed 2 — but never the run count.
        assert!(misses >= 2, "two scenarios need two materializations");
    }

    #[test]
    fn poisoned_task_is_isolated() {
        let pool = Pool::new(1, 2);
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {})); // expected panic below
                                                // Negative load panics in scale_to_load.
        let first = pool.run(config(1, -1.0), FaultActions::default(), None);
        let second = pool.run(config(2, 0.9), FaultActions::default(), None);
        std::panic::set_hook(hook);
        let err = first.unwrap().outcome.expect_err("poisoned run must fail");
        assert!(err.panic.contains("target load must be positive"));
        assert!(
            second.unwrap().outcome.is_ok(),
            "healthy run after a poisoned one"
        );
        // The panic was inside run_cell's boundary, not the pool's.
        assert_eq!(pool.worker_panics(), 0);
    }

    #[test]
    fn injected_worker_panic_drops_reply_but_pool_survives() {
        let pool = Pool::new(1, 2);
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {})); // expected panic below
        let crashed = pool.run(
            config(1, 0.9),
            FaultActions {
                panic: true,
                ..FaultActions::default()
            },
            None,
        );
        // The crashed run yields no result.
        assert_eq!(
            crashed.err(),
            Some(RunError::Crashed),
            "crashed run must not reply"
        );
        // The sole permit was freed: the next run is served.
        let healthy = pool.run(config(2, 0.9), FaultActions::default(), None);
        std::panic::set_hook(hook);
        assert!(healthy.unwrap().outcome.is_ok());
        assert_eq!(pool.worker_panics(), 1);
        assert_eq!(pool.in_flight(), 0);
    }

    #[test]
    fn injected_delay_slows_the_task() {
        let pool = Pool::new(1, 1);
        let started = Instant::now();
        let ran = pool.run(config(1, 0.9), delayed(80), None);
        assert!(ran.unwrap().outcome.is_ok());
        assert!(
            started.elapsed() >= Duration::from_millis(80),
            "delay fault must slow the run"
        );
    }

    #[test]
    fn submit_fails_after_shutdown() {
        let pool = Pool::new(1, 1);
        pool.shutdown();
        let refused = pool.run(config(1, 0.9), FaultActions::default(), None);
        assert_eq!(refused.err(), Some(RunError::Closed));
    }

    #[test]
    fn try_submit_sheds_when_queue_is_full() {
        // One permit held by a delayed run, one waiting slot: the first
        // waiter fills the queue, the next caller must shed.
        let pool = Pool::new(1, 1);
        std::thread::scope(|scope| {
            let pool = &pool;
            let holder = scope.spawn(move || pool.run(config(0, 0.9), delayed(150), None));
            while pool.in_flight() == 0 {
                std::thread::yield_now();
            }
            let waiter =
                scope.spawn(move || pool.run(config(1, 0.9), FaultActions::default(), None));
            while pool.queue_depth() == 0 {
                std::thread::yield_now();
            }
            let shed = pool.run(config(2, 0.9), FaultActions::default(), None);
            assert_eq!(shed.err(), Some(RunError::Full));
            // Admitted runs still complete.
            assert!(holder.join().unwrap().is_ok());
            assert!(waiter.join().unwrap().is_ok());
        });
        assert_eq!((pool.in_flight(), pool.queue_depth()), (0, 0));
    }

    #[test]
    fn queue_is_bounded() {
        // One permit pinned by a delayed run, three waiting slots: three
        // waiters queue up one after another, a fourth caller sheds, and
        // the waiters are admitted in arrival order (FIFO, as the old
        // channel-fed pool was).
        let pool = Pool::new(1, 3);
        let order = Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            let (pool, order) = (&pool, &order);
            scope.spawn(move || pool.run(config(0, 0.9), delayed(100), None));
            while pool.in_flight() == 0 {
                std::thread::yield_now();
            }
            for seed in 1..4u64 {
                scope.spawn(move || {
                    pool.run(config(seed, 0.9), FaultActions::default(), None)
                        .ok()
                        .unwrap();
                    order.lock().unwrap().push(seed);
                });
                while pool.queue_depth() < seed as usize {
                    std::thread::yield_now();
                }
            }
            let shed = pool.run(config(4, 0.9), FaultActions::default(), None);
            assert_eq!(shed.err(), Some(RunError::Full));
        });
        // Completion order equals admission order with one permit.
        assert_eq!(*order.lock().unwrap(), vec![1, 2, 3]);
    }
}
