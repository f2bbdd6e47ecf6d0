//! Selective preemption — the authors' companion strategy (their reference
//! \[6\], "Selective preemption strategies for parallel job scheduling",
//! ICPP 2002).
//!
//! Backfilling alone cannot help a starving wide job: nothing running can
//! be displaced. Selective preemption adds the missing lever — when a
//! waiting job's expansion factor crosses a threshold, the scheduler may
//! **suspend** running jobs to make room, re-queueing them with their
//! remaining work. Safeguards keep it "selective" rather than thrashing:
//!
//! * only the *highest-priority* starving job triggers preemption;
//! * victims are chosen lowest-priority-first among jobs that have run at
//!   least `min_run` (no sniping of fresh starts);
//! * a job is suspended at most `max_preemptions` times, guaranteeing
//!   global progress.
//!
//! Between preemption episodes the scheduler behaves exactly like EASY
//! (pivot reservation + backfilling), so with an infinite threshold it
//! degenerates to EASY — tested below.

use crate::policy::Policy;
use crate::profile::{Profile, ProfileStats};
use crate::queue::SchedQueue;
use crate::scheduler::{Decisions, JobMeta, Scheduler};
use simcore::{JobId, JobTable, SimSpan, SimTime};

#[derive(Debug, Clone, Copy)]
struct Running {
    meta: JobMeta,
    /// Estimated end of the current run segment.
    est_end: SimTime,
    /// Start of the current run segment.
    started_at: SimTime,
    preemptions: u32,
}

/// EASY backfilling with selective preemption of running jobs.
#[derive(Debug, Clone)]
pub struct PreemptiveScheduler {
    policy: Policy,
    capacity: u32,
    free: u32,
    /// Waiting jobs; `estimate` fields hold *remaining* estimates for
    /// previously preempted jobs.
    queue: SchedQueue,
    running: JobTable<Running>,
    /// Mirror of the running set's remaining estimated occupancy, updated
    /// on starts, completions and preemptions instead of rebuilt per event.
    /// During a pass it also holds the pivot's reservation.
    cached: Profile,
    /// Times a job has been suspended so far (sticky across resumes).
    suspended_count: JobTable<u32>,
    /// Every job's original meta, as first submitted — needed to rebuild
    /// the remaining estimate when a preempted job re-enters the queue.
    original: JobTable<JobMeta>,
    /// Expansion-factor threshold that triggers preemption.
    threshold: f64,
    /// Minimum uninterrupted runtime before a job may be victimized.
    min_run: SimSpan,
    /// Per-job suspension cap.
    max_preemptions: u32,
    /// Scheduler-level counters (passes, rebuilds avoided) that
    /// `profile_stats` merges with the cached profile's own.
    stats: ProfileStats,
    /// Opt-in per-phase profiling accumulator (strictly observational).
    phases: Option<obs::SharedPhases>,
}

impl PreemptiveScheduler {
    /// Create for a machine with `capacity` processors. `threshold` is the
    /// starving job's expansion factor that triggers preemption (≥ 1;
    /// infinity disables preemption entirely, yielding EASY).
    pub fn new(capacity: u32, policy: Policy, threshold: f64) -> Self {
        assert!(
            threshold >= 1.0,
            "preemption threshold must be >= 1, got {threshold}"
        );
        PreemptiveScheduler {
            policy,
            capacity,
            free: capacity,
            queue: SchedQueue::new(policy),
            running: JobTable::new(),
            cached: Profile::new(capacity),
            suspended_count: JobTable::new(),
            original: JobTable::new(),
            threshold,
            min_run: SimSpan::from_mins(10),
            max_preemptions: 2,
            stats: ProfileStats::default(),
            phases: None,
        }
    }

    /// Override the anti-thrashing safeguards.
    pub fn with_safeguards(mut self, min_run: SimSpan, max_preemptions: u32) -> Self {
        self.min_run = min_run;
        self.max_preemptions = max_preemptions;
        self
    }

    fn start(&mut self, job: JobMeta, now: SimTime, starts: &mut Vec<JobId>) {
        debug_assert!(job.width <= self.free);
        self.free -= job.width;
        self.cached.reserve(now, job.estimate, job.width);
        let preemptions = self.suspended_count.get(job.id).copied().unwrap_or(0);
        self.running.insert(
            job.id,
            Running {
                meta: job,
                est_end: now + job.estimate,
                started_at: now,
                preemptions,
            },
        );
        starts.push(job.id);
    }

    /// From-scratch rebuild: the differential reference for `cached`.
    #[cfg(debug_assertions)]
    fn rebuilt_running_profile(&self, now: SimTime) -> Profile {
        let mut p = Profile::new(self.capacity);
        for run in self.running.values() {
            if run.est_end > now {
                p.reserve(now, run.est_end.since(now), run.meta.width);
            }
        }
        p
    }

    /// Remove `run`'s not-yet-elapsed estimated occupancy from the cached
    /// profile (completion or suspension).
    fn release_cached(&mut self, run: &Running, now: SimTime) {
        if run.est_end > now {
            self.cached
                .release(now, run.est_end.since(now), run.meta.width);
        }
    }

    /// Pick victims (lowest priority first) freeing enough processors for
    /// `needed`, honouring the safeguards. Returns `None` if impossible.
    fn pick_victims(&self, needed: u32, now: SimTime) -> Option<Vec<JobId>> {
        let eligible = |r: &&Running| {
            now.since(r.started_at) >= self.min_run && r.preemptions < self.max_preemptions
        };
        // Suspending every eligible runner is the most any victim set can
        // free; if even that falls short, skip the collect and the sort.
        let most: u32 = self
            .running
            .values()
            .filter(eligible)
            .map(|r| r.meta.width)
            .sum();
        if self.free + most < needed {
            return None;
        }
        let mut candidates: Vec<&Running> = self.running.values().filter(eligible).collect();
        // Lowest priority last in `compare` order; victimize from the back.
        candidates.sort_by(|a, b| self.policy.compare(&a.meta, &b.meta, now));
        let mut victims = Vec::new();
        let mut freed = self.free;
        for r in candidates.iter().rev() {
            if freed >= needed {
                break;
            }
            victims.push(r.meta.id);
            freed += r.meta.width;
        }
        debug_assert!(freed >= needed);
        Some(victims)
    }

    fn reschedule(&mut self, now: SimTime) -> Decisions {
        let mut starts = Vec::new();
        let mut preempts = Vec::new();
        self.cached.trim_before(now);
        self.queue.prepare(now);

        // EASY phase 1: start from the head while it fits.
        while let Some(head) = self.queue.front() {
            if head.width > self.free {
                break;
            }
            let head = self.queue.pop_front().expect("front() was Some");
            self.start(head, now, &mut starts);
        }

        // Preemption episode: if the blocked head is starving, displace the
        // least deserving runners and start it right away.
        if let Some(&head) = self.queue.front() {
            if self.threshold.is_finite() && Policy::xfactor(&head, now) >= self.threshold {
                if let Some(victims) = self.pick_victims(head.width, now) {
                    for id in victims {
                        let run = self.running.remove(id).expect("victim runs");
                        self.free += run.meta.width;
                        self.release_cached(&run, now);
                        let times = self.suspended_count.get(id).copied().unwrap_or(0);
                        self.suspended_count.insert(id, times + 1);
                        preempts.push(id);
                        // The driver answers with on_preempted, where the
                        // job re-enters the queue with remaining estimate.
                    }
                    let head = self.queue.pop_front().expect("front() was Some");
                    self.start(head, now, &mut starts);
                }
            }
        }

        if self.queue.is_empty() {
            return Decisions {
                preempts,
                starts,
                wakeup: None,
            };
        }

        // EASY phases 2–3: pivot reservation and backfilling, run against
        // the cached running profile exactly as `EasyScheduler` does.
        self.stats.compress_passes += 1; // one replanning pass per event
        #[cfg(debug_assertions)]
        {
            self.stats.profile_rebuilds += 1;
            debug_assert!(
                self.cached
                    .same_future(&self.rebuilt_running_profile(now), now),
                "cached running profile diverged from rebuild at {now}"
            );
        }
        self.stats.profile_rebuilds_avoided += 1;
        // Phase 3 only starts jobs behind the pivot that fit in the free
        // processors, and `free` only shrinks during the pass: if there is
        // none, the pivot's reservation could change no decision.
        if self.queue.iter().skip(1).any(|j| j.width <= self.free) {
            let pivot = self.queue[0];
            let anchor = self.cached.find_anchor(now, pivot.estimate, pivot.width);
            self.cached.reserve(anchor, pivot.estimate, pivot.width);
            let scan_t0 = obs::span::start_nested(&self.phases, obs::Phase::Backfill);
            let mut i = 1;
            while i < self.queue.len() {
                let cand = self.queue[i];
                if cand.width <= self.free && self.cached.fits(now, cand.estimate, cand.width) {
                    self.queue.remove(i);
                    self.start(cand, now, &mut starts);
                } else {
                    i += 1;
                }
            }
            // The pivot is not running: its rectangle leaves again.
            self.cached.release(anchor, pivot.estimate, pivot.width);
            obs::span::finish_nested(&self.phases, obs::Phase::Backfill, scan_t0);
        }

        // Wake when the head crosses the starvation threshold (so a quiet
        // machine still triggers the episode).
        let wakeup = if self.threshold.is_finite() {
            let head = self.queue[0];
            let est = head.estimate.as_secs().max(1) as f64;
            let cross = head.arrival + SimSpan::new(((self.threshold - 1.0) * est).ceil() as u64);
            (cross > now).then_some(cross)
        } else {
            None
        };
        Decisions {
            preempts,
            starts,
            wakeup,
        }
    }
}

impl Scheduler for PreemptiveScheduler {
    fn name(&self) -> String {
        if self.threshold.is_finite() {
            format!("Preempt({})/{}", self.threshold, self.policy)
        } else {
            format!("Preempt(∞)/{}", self.policy)
        }
    }

    fn on_arrival(&mut self, job: JobMeta, now: SimTime) -> Decisions {
        assert!(job.width <= self.capacity, "{} wider than machine", job.id);
        self.original.insert(job.id, job);
        self.queue.push(job);
        self.reschedule(now)
    }

    fn on_completion(&mut self, id: JobId, now: SimTime) -> Decisions {
        let run = self.running.remove(id).expect("completion for unknown job");
        self.free += run.meta.width;
        self.release_cached(&run, now);
        self.reschedule(now)
    }

    fn on_wake(&mut self, now: SimTime) -> Decisions {
        self.reschedule(now)
    }

    fn on_preempted(&mut self, id: JobId, ran: SimSpan, now: SimTime) {
        let _ = now;
        // Re-queue with the remaining estimate. The original arrival is
        // kept, so the job's priority keeps aging while suspended.
        let mut meta = *self
            .original
            .get(id)
            .expect("preempted job must have been seen before");
        meta.estimate = (meta.estimate - ran).max(SimSpan::SECOND);
        self.queue.push(meta);
    }

    fn queue_len(&self) -> usize {
        self.queue.len()
    }

    fn profile_stats(&self) -> Option<ProfileStats> {
        let mut stats = self.stats;
        stats.absorb(&self.cached.stats());
        self.queue.counters().merge_into(&mut stats);
        Some(stats)
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

    fn sched(threshold: f64) -> PreemptiveScheduler {
        PreemptiveScheduler::new(8, Policy::Fcfs, threshold).with_safeguards(SimSpan::new(60), 2)
    }

    #[test]
    fn behaves_like_easy_until_threshold() {
        let mut s = sched(10.0);
        s.on_arrival(meta(0, 0, 1_000, 6), SimTime::ZERO);
        let d = s.on_arrival(meta(1, 1, 500, 8), SimTime::new(1));
        assert!(d.starts.is_empty());
        assert!(d.preempts.is_empty());
        // Backfill still works.
        let d = s.on_arrival(meta(2, 2, 90, 2), SimTime::new(2));
        assert_eq!(d.starts, vec![JobId(2)]);
    }

    #[test]
    fn starving_head_triggers_preemption() {
        let mut s = sched(2.0);
        s.on_arrival(meta(0, 0, 10_000, 8), SimTime::ZERO);
        // Head: 8-wide, estimate 100 -> crosses xf 2 at wait 100.
        let d = s.on_arrival(meta(1, 1, 100, 8), SimTime::new(1));
        assert_eq!(d.wakeup, Some(SimTime::new(101)), "wake at the crossing");
        let d = s.on_wake(SimTime::new(101));
        assert_eq!(d.preempts, vec![JobId(0)], "the hog is suspended");
        assert_eq!(d.starts, vec![JobId(1)], "the starving job runs at once");
        // Driver callback: hog re-queued with remaining estimate.
        s.on_preempted(JobId(0), SimSpan::new(101), SimTime::new(101));
        assert_eq!(s.queue_len(), 1);
    }

    #[test]
    fn min_run_protects_fresh_jobs() {
        let mut s = sched(2.0).with_safeguards(SimSpan::new(1_000), 2);
        s.on_arrival(meta(0, 0, 10_000, 8), SimTime::ZERO);
        s.on_arrival(meta(1, 1, 100, 8), SimTime::new(1));
        // At the crossing the hog has only run 101 s < 1000: no preemption.
        let d = s.on_wake(SimTime::new(101));
        assert!(d.preempts.is_empty());
        assert!(d.starts.is_empty());
    }

    #[test]
    fn max_preemptions_is_honoured() {
        let mut s = sched(1.5).with_safeguards(SimSpan::ZERO, 1);
        s.on_arrival(meta(0, 0, 10_000, 8), SimTime::ZERO);
        s.on_arrival(meta(1, 1, 100, 8), SimTime::new(1));
        let d = s.on_wake(SimTime::new(51));
        assert_eq!(d.preempts, vec![JobId(0)]);
        s.on_preempted(JobId(0), SimSpan::new(51), SimTime::new(51));
        // Job 1 completes; the hog resumes.
        let d = s.on_completion(JobId(1), SimTime::new(151));
        assert_eq!(d.starts, vec![JobId(0)]);
        // A new starving job cannot displace it again (cap = 1).
        s.on_arrival(meta(2, 152, 100, 8), SimTime::new(152));
        let d = s.on_wake(SimTime::new(252));
        assert!(d.preempts.is_empty(), "second suspension must be refused");
    }

    #[test]
    fn infinite_threshold_never_preempts_and_never_wakes() {
        let mut s = sched(f64::INFINITY);
        s.on_arrival(meta(0, 0, 10_000, 8), SimTime::ZERO);
        let d = s.on_arrival(meta(1, 1, 100, 8), SimTime::new(1));
        assert!(d.preempts.is_empty());
        assert_eq!(d.wakeup, None);
        assert_eq!(s.name(), "Preempt(∞)/FCFS");
    }

    #[test]
    #[should_panic(expected = "must be >= 1")]
    fn rejects_sub_one_threshold() {
        PreemptiveScheduler::new(8, Policy::Fcfs, 0.5);
    }
}
