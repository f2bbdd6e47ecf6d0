//! Slack-based backfilling (Talby & Feitelson, IPPS 1999 — the paper's
//! reference \[13\]).
//!
//! Conservative backfilling promises every job the *earliest* feasible
//! start; EASY promises nothing except to the queue head. Slack-based
//! backfilling promises every job a start time **with built-in slack**: on
//! arrival a job is told "you will start no later than your earliest
//! feasible anchor plus σ". The reservation rectangle is parked at that
//! later promise, leaving the span between the earliest anchor and the
//! promise open for backfilling — so later jobs may effectively delay a
//! queued job, but never beyond its promise.
//!
//! σ = 0 degenerates to conservative backfilling exactly (verified by a
//! fingerprint test); growing σ trades guarantee tightness for backfill
//! freedom, approaching EASY-like schedules while keeping a hard bound on
//! every job's delay — the knob Talby & Feitelson tune by job priority.
//!
//! Like the conservative scheduler, holes from early completions are
//! offered to queued jobs in priority order (a job moves only to start
//! immediately, and its promise never moves later).

use crate::policy::Policy;
use crate::profile::{Profile, ProfileStats};
use crate::scheduler::{Decisions, JobMeta, Scheduler};
use serde::{Deserialize, Serialize};
use simcore::{JobId, JobTable, SimSpan, SimTime};

/// How much slack each job's promise carries.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum SlackPolicy {
    /// A fixed allowance for every job.
    Constant(SimSpan),
    /// `σ = factor × estimated runtime` — short jobs get tight promises,
    /// long jobs proportionally looser ones.
    ProportionalToEstimate(f64),
}

impl SlackPolicy {
    fn slack_for(&self, job: &JobMeta) -> SimSpan {
        match *self {
            SlackPolicy::Constant(s) => s,
            SlackPolicy::ProportionalToEstimate(f) => {
                assert!(f >= 0.0, "slack factor must be non-negative");
                job.estimate.scale(f)
            }
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Promise {
    meta: JobMeta,
    /// Where the reservation rectangle sits (the latest promised start).
    start: SimTime,
}

#[derive(Debug, Clone, Copy)]
struct Running {
    width: u32,
    est_end: SimTime,
}

/// Slack-based backfilling scheduler.
#[derive(Debug, Clone)]
pub struct SlackScheduler {
    policy: Policy,
    slack: SlackPolicy,
    profile: Profile,
    queue: Vec<Promise>,
    running: JobTable<Running>,
    free: u32,
    /// Opt-in per-phase profiling accumulator (strictly observational).
    phases: Option<obs::SharedPhases>,
}

impl SlackScheduler {
    /// Create for a machine with `capacity` processors.
    pub fn new(capacity: u32, policy: Policy, slack: SlackPolicy) -> Self {
        SlackScheduler {
            policy,
            slack,
            profile: Profile::new(capacity),
            queue: Vec::new(),
            running: JobTable::new(),
            free: capacity,
            phases: None,
        }
    }

    /// The promised (latest) start of a queued job, for tests and metrics.
    pub fn promise(&self, id: JobId) -> Option<SimTime> {
        self.queue.iter().find(|p| p.meta.id == id).map(|p| p.start)
    }

    fn start_job(&mut self, p: Promise, now: SimTime) {
        debug_assert!(
            p.start >= now,
            "promise {} already passed at {now}",
            p.start
        );
        self.free -= p.meta.width;
        self.running.insert(
            p.meta.id,
            Running {
                width: p.meta.width,
                est_end: now + p.meta.estimate,
            },
        );
        if p.start > now {
            // Starting ahead of the promise: move the rectangle to now.
            self.profile.release(p.start, p.meta.estimate, p.meta.width);
            self.profile.reserve(now, p.meta.estimate, p.meta.width);
        }
    }

    /// Start queued jobs that fit immediately (in priority order) and any
    /// whose promise is due; report the next wake-up.
    ///
    /// See the conservative scheduler for the `retry_same_instant`
    /// contract: a deferral observed during `on_wake` cannot resolve at
    /// `now` (wakes are the last event class at an instant), so asking for
    /// a same-instant wake-up again would spin forever.
    fn collect(&mut self, now: SimTime, retry_same_instant: bool) -> Decisions {
        let mut starts = Vec::new();
        self.queue
            .sort_by(|a, b| self.policy.compare(&a.meta, &b.meta, now));
        let mut deferred = false;
        let scan_t0 = obs::span::start_nested(&self.phases, obs::Phase::Backfill);
        let mut i = 0;
        while i < self.queue.len() {
            let p = self.queue[i];
            let due = p.start <= now;
            if p.meta.width <= self.free {
                // Can it start now without breaking any other promise? A
                // due job starts regardless. Otherwise its own rectangle
                // sits at `p.start > now`, and lifting it would free
                // `width` over `[p.start, p.start + estimate)`, which
                // covers the candidate window from `p.start` on: only
                // `[now, p.start)` can block it. So one read-only `fits`
                // over that prefix answers what lifting the rectangle,
                // probing and putting it back would.
                let fits_now = due
                    || self.profile.fits(
                        now,
                        p.meta.estimate.min(p.start.since(now)),
                        p.meta.width,
                    );
                if fits_now {
                    let p = self.queue.remove(i);
                    // Starting ahead of the promise relocates the job's
                    // rectangle to `now`, which frees capacity at its old
                    // position — that can unblock a higher-priority job
                    // already skipped this pass, so only then rescan.
                    // A start at the promise itself only consumes
                    // processors and can unblock nothing.
                    let moved = p.start > now;
                    self.start_job(p, now);
                    starts.push(p.meta.id);
                    if moved {
                        i = 0;
                    }
                    continue;
                }
            } else if due {
                deferred = true;
            }
            i += 1;
        }
        obs::span::finish_nested(&self.phases, obs::Phase::Backfill, scan_t0);
        let wakeup = if deferred && retry_same_instant {
            Some(now)
        } else if deferred {
            // Deferred at a wake-up: wait for the next strictly-future
            // promise; completions re-trigger collection on their own.
            self.queue
                .iter()
                .map(|p| p.start)
                .filter(|&s| s > now)
                .min()
        } else {
            self.queue.iter().map(|p| p.start).min()
        };
        self.profile.trim_before(now);
        Decisions {
            preempts: Vec::new(),
            starts,
            wakeup,
        }
    }
}

impl Scheduler for SlackScheduler {
    fn name(&self) -> String {
        match self.slack {
            SlackPolicy::Constant(s) => format!("Slack({s})/{}", self.policy),
            SlackPolicy::ProportionalToEstimate(f) => format!("Slack({f}×est)/{}", self.policy),
        }
    }

    fn on_arrival(&mut self, job: JobMeta, now: SimTime) -> Decisions {
        assert!(
            job.width <= self.profile.capacity(),
            "{} wider than machine",
            job.id
        );
        // Earliest feasible anchor, then park the rectangle σ later (at the
        // first feasible position at or after anchor + σ).
        let earliest = self.profile.find_anchor(now, job.estimate, job.width);
        let sigma = self.slack.slack_for(&job);
        let promise = if sigma.is_zero() {
            earliest
        } else {
            self.profile
                .find_anchor(earliest + sigma, job.estimate, job.width)
        };
        self.profile.reserve(promise, job.estimate, job.width);
        self.queue.push(Promise {
            meta: job,
            start: promise,
        });
        self.collect(now, true)
    }

    fn on_completion(&mut self, id: JobId, now: SimTime) -> Decisions {
        let run = self.running.remove(id).expect("completion for unknown job");
        self.free += run.width;
        if now < run.est_end {
            self.profile.release(now, run.est_end.since(now), run.width);
        }
        self.collect(now, true)
    }

    fn on_wake(&mut self, now: SimTime) -> Decisions {
        self.collect(now, false)
    }

    fn queue_len(&self) -> usize {
        self.queue.len()
    }

    fn profile_stats(&self) -> Option<ProfileStats> {
        Some(self.profile.stats())
    }

    fn set_phases(&mut self, phases: obs::SharedPhases) {
        self.phases = Some(phases);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta(id: u32, arrival: u64, estimate: u64, width: u32) -> JobMeta {
        JobMeta {
            id: JobId(id),
            arrival: SimTime::new(arrival),
            estimate: SimSpan::new(estimate),
            width,
        }
    }

    fn sched(slack: SlackPolicy) -> SlackScheduler {
        SlackScheduler::new(8, Policy::Fcfs, slack)
    }

    #[test]
    fn idle_machine_starts_immediately_regardless_of_slack() {
        let mut s = sched(SlackPolicy::Constant(SimSpan::new(1_000)));
        let d = s.on_arrival(meta(0, 0, 100, 8), SimTime::ZERO);
        assert_eq!(d.starts, vec![JobId(0)]);
    }

    #[test]
    fn promise_is_anchor_plus_slack() {
        let mut s = sched(SlackPolicy::Constant(SimSpan::new(500)));
        s.on_arrival(meta(0, 0, 100, 8), SimTime::ZERO); // runs [0,100)
        let d = s.on_arrival(meta(1, 1, 50, 8), SimTime::new(1));
        assert!(d.starts.is_empty());
        // Earliest anchor 100, slack 500 -> promise at 600.
        assert_eq!(s.promise(JobId(1)), Some(SimTime::new(600)));
    }

    #[test]
    fn job_starts_at_earliest_opportunity_not_at_promise() {
        let mut s = sched(SlackPolicy::Constant(SimSpan::new(500)));
        s.on_arrival(meta(0, 0, 100, 8), SimTime::ZERO);
        s.on_arrival(meta(1, 1, 50, 8), SimTime::new(1)); // promised 600
                                                          // Machine frees at 100: job 1 starts right away, well before 600.
        let d = s.on_completion(JobId(0), SimTime::new(100));
        assert_eq!(d.starts, vec![JobId(1)]);
    }

    #[test]
    fn slack_window_admits_backfill_that_conservative_refuses() {
        // Conservative: job 1 reserved at 100 blocks a 200-second 2-wide
        // job (it would overlap the reservation). With slack 500, job 1's
        // rectangle sits at 600, so the long narrow job backfills at once.
        let mut s = sched(SlackPolicy::Constant(SimSpan::new(500)));
        s.on_arrival(meta(0, 0, 100, 6), SimTime::ZERO);
        s.on_arrival(meta(1, 1, 50, 8), SimTime::new(1));
        let d = s.on_arrival(meta(2, 2, 200, 2), SimTime::new(2));
        assert_eq!(
            d.starts,
            vec![JobId(2)],
            "slack window should admit the backfill"
        );
    }

    #[test]
    fn promise_is_never_exceeded() {
        // Even when backfills consume the slack window, the job starts by
        // its promise: the rectangle at the promise was never given away.
        let mut s = sched(SlackPolicy::Constant(SimSpan::new(100)));
        s.on_arrival(meta(0, 0, 1_000, 8), SimTime::ZERO);
        s.on_arrival(meta(1, 1, 100, 8), SimTime::new(1)); // promise 1100
        assert_eq!(s.promise(JobId(1)), Some(SimTime::new(1_100)));
        // Exact completion at 1000; job 1 starts at 1000 (early) or by its
        // promise at the latest.
        let d = s.on_completion(JobId(0), SimTime::new(1_000));
        assert_eq!(d.starts, vec![JobId(1)]);
    }

    #[test]
    fn zero_slack_promise_equals_conservative_anchor() {
        let mut s = sched(SlackPolicy::Constant(SimSpan::ZERO));
        s.on_arrival(meta(0, 0, 100, 8), SimTime::ZERO);
        s.on_arrival(meta(1, 1, 50, 8), SimTime::new(1));
        assert_eq!(s.promise(JobId(1)), Some(SimTime::new(100)));
    }

    #[test]
    fn proportional_slack_scales_with_estimate() {
        let mut s = sched(SlackPolicy::ProportionalToEstimate(2.0));
        s.on_arrival(meta(0, 0, 100, 8), SimTime::ZERO);
        s.on_arrival(meta(1, 1, 50, 8), SimTime::new(1));
        // anchor 100 + 2*50 = 200.
        assert_eq!(s.promise(JobId(1)), Some(SimTime::new(200)));
    }

    #[test]
    fn name_reports_slack_policy() {
        assert_eq!(
            sched(SlackPolicy::ProportionalToEstimate(2.0)).name(),
            "Slack(2×est)/FCFS"
        );
    }

    #[test]
    fn due_promise_does_not_spin_same_instant_wakeups() {
        let mut s = sched(SlackPolicy::Constant(SimSpan::ZERO));
        s.on_arrival(meta(0, 0, 100, 8), SimTime::ZERO); // starts; est_end 100
        let d = s.on_arrival(meta(1, 1, 50, 8), SimTime::new(1)); // promised 100
        assert_eq!(d.wakeup, Some(SimTime::new(100)));
        // Job 0 overruns; the wake at 150 finds the machine still busy.
        let d = s.on_wake(SimTime::new(150));
        assert!(d.starts.is_empty());
        assert_ne!(
            d.wakeup,
            Some(SimTime::new(150)),
            "would spin the event loop"
        );
    }

    #[test]
    fn exposes_profile_stats() {
        let mut s = sched(SlackPolicy::Constant(SimSpan::new(500)));
        s.on_arrival(meta(0, 0, 100, 8), SimTime::ZERO);
        s.on_arrival(meta(1, 1, 50, 8), SimTime::new(1));
        let stats = s.profile_stats().expect("slack keeps a profile");
        assert!(stats.find_anchor_calls >= 2);
        assert!(stats.reserves >= 2);
    }
}
