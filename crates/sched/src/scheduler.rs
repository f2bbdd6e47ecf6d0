//! The scheduler interface the simulation driver programs against.
//!
//! A scheduler is an event-driven state machine. The driver feeds it three
//! kinds of events — a job arrived, a running job completed, a requested
//! timer fired — and after each event the scheduler answers with a
//! [`Decisions`]: the set of jobs to start *right now*, plus an optional
//! wake-up time for schedulers whose next action is not triggered by an
//! arrival or completion (e.g. a reservation coming due, or a selective-
//! backfilling threshold crossing).
//!
//! Information hiding is enforced structurally: schedulers receive a
//! [`JobMeta`] carrying only what a real scheduler would know (arrival,
//! *estimated* runtime, width) — never the actual runtime. The driver alone
//! knows when jobs will really complete.

use crate::profile::ProfileStats;
use obs::trace::SharedRecorder;
use simcore::{JobId, SimSpan, SimTime};

/// What the scheduler is allowed to know about a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobMeta {
    /// Job identifier.
    pub id: JobId,
    /// Submission instant.
    pub arrival: SimTime,
    /// User-estimated runtime (the wall-clock limit).
    pub estimate: SimSpan,
    /// Processors requested.
    pub width: u32,
}

/// The scheduler's response to an event.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Decisions {
    /// Running jobs to suspend *before* the starts are applied. Their
    /// processors become free immediately; the driver re-announces each
    /// preempted job to the scheduler via [`Scheduler::on_preempted`] with
    /// its remaining estimate. Only preemption-aware schedulers emit these.
    pub preempts: Vec<JobId>,
    /// Jobs to start immediately (at the event's timestamp). Order is the
    /// order in which they claim processors. A previously preempted job
    /// may appear here to resume.
    pub starts: Vec<JobId>,
    /// If set, the driver fires [`Scheduler::on_wake`] at this time (unless
    /// another event arrives first; stale wake-ups are harmless no-ops).
    pub wakeup: Option<SimTime>,
}

impl Decisions {
    /// No preempts, no starts, no wake-up.
    pub fn none() -> Self {
        Decisions::default()
    }

    /// Starts only.
    pub fn start(starts: Vec<JobId>) -> Self {
        Decisions {
            preempts: Vec::new(),
            starts,
            wakeup: None,
        }
    }
}

/// An online parallel-job scheduler.
///
/// Contract (checked by the driver and the test suite):
/// * every job passed to `on_arrival` is eventually returned in some
///   `starts` exactly once;
/// * a started job's processors are in use until the driver calls
///   `on_completion` for it;
/// * the scheduler never starts jobs beyond machine capacity.
pub trait Scheduler {
    /// Human-readable name, e.g. `"EASY/SJF"`.
    fn name(&self) -> String;

    /// A job entered the queue at `now`.
    fn on_arrival(&mut self, job: JobMeta, now: SimTime) -> Decisions;

    /// A previously started job released its processors at `now` (this may
    /// be earlier than its estimate — the interesting case).
    fn on_completion(&mut self, id: JobId, now: SimTime) -> Decisions;

    /// A timer requested via [`Decisions::wakeup`] fired.
    fn on_wake(&mut self, now: SimTime) -> Decisions;

    /// A job this scheduler asked to preempt has been suspended; `ran` is
    /// how long it executed in total so far. The scheduler should requeue
    /// it (its remaining estimate is `original − ran`, floored at 1 s).
    /// Default: panic — non-preemptive schedulers never emit preempts, so
    /// receiving this is a driver/scheduler contract violation.
    fn on_preempted(&mut self, id: JobId, ran: SimSpan, now: SimTime) {
        let _ = (ran, now);
        unreachable!("scheduler never asked to preempt {id}");
    }

    /// Number of jobs currently waiting (diagnostics).
    fn queue_len(&self) -> usize;

    /// Cumulative availability-profile operation counters, if this
    /// scheduler maintains a profile: the persistent profile's own
    /// counters, plus any scheduler-level ones (passes, queue work).
    /// Default: `None` (profile-free schedulers, e.g. plain FCFS).
    fn profile_stats(&self) -> Option<ProfileStats> {
        None
    }

    /// Hand the scheduler a shared decision-trace recorder. Schedulers
    /// that make profile-level decisions (reservations, backfills,
    /// compression) emit `Reserve`/`Backfill`/`Compress` events into it;
    /// the driver emits the job lifecycle (`Arrive`/`Start`/`Complete`/
    /// `Preempt`) itself. Recording must be strictly observational —
    /// decisions may never depend on the recorder — so the default is to
    /// ignore it.
    fn set_recorder(&mut self, recorder: SharedRecorder) {
        let _ = recorder;
    }

    /// Hand the scheduler a shared per-phase profiling accumulator (see
    /// `obs::span::PhaseAcc`). Schedulers with distinguishable internal
    /// phases (queue maintenance, backfill scans, profile compression)
    /// time them into it; like the recorder, profiling must be strictly
    /// observational, so the default is to ignore it.
    fn set_phases(&mut self, phases: obs::SharedPhases) {
        let _ = phases;
    }

    /// Return a consumed [`Decisions`] so its buffers can serve the next
    /// event. The driver calls this after applying every decision set;
    /// schedulers that keep scratch buffers clear and stash the vectors
    /// (their *capacity* is the asset — the contents are already applied),
    /// making the per-event `starts` allocation disappear once the buffers
    /// reach steady-state size. Purely an allocation optimization: the
    /// contents handed back must never influence a decision. Default: drop.
    fn recycle(&mut self, spent: Decisions) {
        let _ = spent;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_constructors() {
        assert_eq!(
            Decisions::none(),
            Decisions {
                preempts: vec![],
                starts: vec![],
                wakeup: None
            }
        );
        let d = Decisions::start(vec![JobId(3)]);
        assert_eq!(d.starts, vec![JobId(3)]);
        assert!(d.preempts.is_empty());
        assert_eq!(d.wakeup, None);
    }
}
