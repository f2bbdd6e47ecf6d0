//! Aggressive (EASY) backfilling.
//!
//! Only **one** job holds a reservation at any time: the job at the head of
//! the priority queue (the *pivot*). Everything else may leap ahead, as
//! long as starting it now does not delay the pivot's reservation — the
//! classic EASY rule from the ANL/IBM SP scheduler (Lifka 1995), evaluated
//! by Mu'alem & Feitelson and by this paper under FCFS, SJF and XFactor
//! queue priorities.
//!
//! Mechanically, at every arrival and completion the scheduler:
//! 1. establishes priority order via the incrementally maintained
//!    [`SchedQueue`] (static-key policies stay permanently sorted; XFactor
//!    re-keys once per distinct event instant);
//! 2. starts jobs from the head while they fit in the free processors;
//! 3. gives the first job that does not fit (the pivot) a reservation at
//!    the earliest anchor in the profile of running jobs;
//! 4. scans the rest of the queue in priority order and starts any job
//!    that fits *now* without overlapping the pivot's rectangle.
//!
//! Step 4's check is exact, not the two-condition shortcut: a candidate
//! backfills iff its own rectangle fits at `now` in the profile that
//! already contains the running jobs, the pivot's reservation, and the
//! backfills accepted earlier in this pass.

use crate::policy::Policy;
use crate::profile::{Profile, ProfileStats};
use crate::queue::SchedQueue;
use crate::scheduler::{Decisions, JobMeta, Scheduler};
use obs::trace::{SharedRecorder, TraceKind};
use simcore::{JobId, JobTable, SimTime};

#[derive(Debug, Clone, Copy)]
struct Running {
    width: u32,
    est_end: SimTime,
}

/// EASY / aggressive backfilling scheduler.
#[derive(Debug, Clone)]
pub struct EasyScheduler {
    policy: Policy,
    capacity: u32,
    free: u32,
    queue: SchedQueue,
    running: JobTable<Running>,
    /// Mirror of the running set's remaining estimated occupancy, updated
    /// on every start and completion instead of rebuilt per event. The
    /// rebuild stays as a debug-mode differential reference.
    cached: Profile,
    /// Scheduler-level counters (passes, rebuilds avoided, scratch reuses)
    /// that `profile_stats` merges with the cached profile's own.
    stats: ProfileStats,
    /// Opt-in decision-trace recorder (strictly observational).
    recorder: Option<SharedRecorder>,
    /// Opt-in per-phase profiling accumulator (strictly observational).
    phases: Option<obs::SharedPhases>,
    /// The last `(pivot, anchor)` pair recorded, so the trace carries one
    /// `Reserve` per distinct pivot reservation instead of one per event.
    last_pivot: Option<(JobId, SimTime)>,
    /// Recycled `starts` buffer from the previous event's [`Decisions`]
    /// (handed back by the driver via [`Scheduler::recycle`]).
    starts_scratch: Vec<JobId>,
}

impl EasyScheduler {
    /// Create for a machine with `capacity` processors.
    pub fn new(capacity: u32, policy: Policy) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        EasyScheduler {
            policy,
            capacity,
            free: capacity,
            queue: SchedQueue::new(policy),
            running: JobTable::new(),
            cached: Profile::new(capacity),
            stats: ProfileStats::default(),
            recorder: None,
            phases: None,
            last_pivot: None,
            starts_scratch: Vec::new(),
        }
    }

    fn start(&mut self, job: JobMeta, now: SimTime, starts: &mut Vec<JobId>) {
        debug_assert!(job.width <= self.free);
        self.free -= job.width;
        self.cached.reserve(now, job.estimate, job.width);
        self.running.insert(
            job.id,
            Running {
                width: job.width,
                est_end: now + job.estimate,
            },
        );
        starts.push(job.id);
    }

    /// Profile of the *running* jobs' remaining estimated occupancy,
    /// rebuilt from scratch: the differential reference for `cached`.
    #[cfg(debug_assertions)]
    fn rebuilt_running_profile(&self, now: SimTime) -> Profile {
        let mut p = Profile::new(self.capacity);
        for run in self.running.values() {
            if run.est_end > now {
                p.reserve(now, run.est_end.since(now), run.width);
            }
            // A job past its estimate (impossible here, since estimates
            // bound runtimes) would simply not constrain the future.
        }
        p
    }

    fn reschedule(&mut self, now: SimTime) -> Decisions {
        let mut starts = std::mem::take(&mut self.starts_scratch);
        debug_assert!(starts.is_empty());
        if starts.capacity() > 0 {
            self.stats.scratch_reuses += 1;
        }
        self.cached.trim_before(now);
        self.queue.prepare(now);

        // Phase 1: start from the head while it fits.
        while let Some(head) = self.queue.front() {
            if head.width > self.free {
                break;
            }
            let head = self.queue.pop_front().expect("front() was Some");
            self.start(head, now, &mut starts);
        }
        if self.queue.is_empty() {
            return Decisions::start(starts);
        }
        self.stats.compress_passes += 1; // one backfill pass per event

        // Phase 2: the blocked head becomes the pivot and gets the unique
        // reservation.
        let pivot = self.queue[0];
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
        let anchor = self.cached.find_anchor(now, pivot.estimate, pivot.width);
        // `anchor == now` is possible even though the pivot did not start
        // in phase 1: the profile (built from *estimated* ends) may already
        // count a job done whose completion event, at this same instant, is
        // still queued behind this one. The pivot starts when that sibling
        // completion is delivered; meanwhile its reservation blocks unsafe
        // backfills exactly as it should.
        //
        // The pivot's rectangle goes into the *cached* running profile for
        // the duration of the pass (and comes back out at the end), instead
        // of into a throwaway clone: the probed silhouette is identical, so
        // every backfill decision is too, but the clone's allocations and
        // the doubled reserve bookkeeping disappear from the hot path.
        self.cached.reserve(anchor, pivot.estimate, pivot.width);
        if let Some(rec) = &self.recorder {
            // One Reserve per distinct pivot reservation, not per pass.
            if self.last_pivot != Some((pivot.id, anchor)) {
                self.last_pivot = Some((pivot.id, anchor));
                rec.borrow_mut().record(
                    now.as_secs(),
                    pivot.id.0 as u64,
                    TraceKind::Reserve {
                        anchor: anchor.as_secs(),
                    },
                );
            }
        }

        // Phase 3: backfill the rest in priority order. Accepted backfills
        // are added to the profile so later candidates see them.
        let scan_t0 = obs::span::start_nested(&self.phases, obs::Phase::Backfill);
        let mut i = 1;
        while i < self.queue.len() {
            let cand = self.queue[i];
            if cand.width <= self.free && self.cached.fits(now, cand.estimate, cand.width) {
                self.queue.remove(i);
                if let Some(rec) = &self.recorder {
                    // The hole this candidate slotted into runs from `now`
                    // to the pivot's protected anchor.
                    rec.borrow_mut().record(
                        now.as_secs(),
                        cand.id.0 as u64,
                        TraceKind::Backfill {
                            filled_hole: anchor.since(now).as_secs(),
                        },
                    );
                }
                self.start(cand, now, &mut starts);
            } else {
                i += 1;
            }
        }
        // The pass is over: the pivot is not running, so its rectangle
        // leaves the running profile again.
        self.cached.release(anchor, pivot.estimate, pivot.width);
        obs::span::finish_nested(&self.phases, obs::Phase::Backfill, scan_t0);
        Decisions::start(starts)
    }
}

impl Scheduler for EasyScheduler {
    fn name(&self) -> String {
        format!("EASY/{}", self.policy)
    }

    fn on_arrival(&mut self, job: JobMeta, now: SimTime) -> Decisions {
        assert!(job.width <= self.capacity, "{} wider than machine", job.id);
        let t0 = obs::span::start_nested(&self.phases, obs::Phase::QueueOps);
        self.queue.push(job);
        obs::span::finish_nested(&self.phases, obs::Phase::QueueOps, t0);
        self.reschedule(now)
    }

    fn on_completion(&mut self, id: JobId, now: SimTime) -> Decisions {
        let run = self.running.remove(id).expect("completion for unknown job");
        self.free += run.width;
        // Return the job's not-yet-elapsed estimated occupancy; an overrun
        // job (est_end <= now) holds nothing in the profile's future.
        if run.est_end > now {
            self.cached.release(now, run.est_end.since(now), run.width);
        }
        self.reschedule(now)
    }

    fn on_wake(&mut self, now: SimTime) -> Decisions {
        self.reschedule(now)
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

    fn set_recorder(&mut self, recorder: SharedRecorder) {
        self.recorder = Some(recorder);
    }

    fn set_phases(&mut self, phases: obs::SharedPhases) {
        self.phases = Some(phases);
    }

    fn recycle(&mut self, spent: Decisions) {
        let mut starts = spent.starts;
        starts.clear();
        self.starts_scratch = starts;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::SimSpan;

    fn meta(id: u32, arrival: u64, estimate: u64, width: u32) -> JobMeta {
        JobMeta {
            id: JobId(id),
            arrival: SimTime::new(arrival),
            estimate: SimSpan::new(estimate),
            width,
        }
    }

    #[test]
    fn short_job_backfills_without_delaying_pivot() {
        let mut s = EasyScheduler::new(8, Policy::Fcfs);
        s.on_arrival(meta(0, 0, 100, 6), SimTime::ZERO); // running [0,100)
        s.on_arrival(meta(1, 1, 500, 8), SimTime::new(1)); // pivot, anchor 100
                                                           // 2 procs free until 100. Job 2: 2 procs, 90 s -> ends at 92 < 100.
        let d = s.on_arrival(meta(2, 2, 90, 2), SimTime::new(2));
        assert_eq!(d.starts, vec![JobId(2)]);
    }

    #[test]
    fn backfill_that_would_delay_pivot_is_refused_then_sidestepped() {
        let mut s = EasyScheduler::new(8, Policy::Fcfs);
        s.on_arrival(meta(0, 0, 100, 6), SimTime::ZERO);
        s.on_arrival(meta(1, 1, 500, 8), SimTime::new(1)); // pivot at 100
                                                           // Job 2 wants 2 procs for 200 s: would run past 100 using procs the
                                                           // pivot needs (pivot needs all 8). Refused.
        let d = s.on_arrival(meta(2, 2, 200, 2), SimTime::new(2));
        assert!(d.starts.is_empty());
    }

    #[test]
    fn long_backfill_on_pivot_spare_processors_is_allowed() {
        let mut s = EasyScheduler::new(8, Policy::Fcfs);
        s.on_arrival(meta(0, 0, 100, 6), SimTime::ZERO);
        s.on_arrival(meta(1, 1, 500, 6), SimTime::new(1)); // pivot: 6 procs at 100
                                                           // Job 2: 2 procs for 1000 s. Pivot leaves 2 spare procs, so running
                                                           // past the pivot's start is fine — the EASY "extra processors" rule.
        let d = s.on_arrival(meta(2, 2, 1000, 2), SimTime::new(2));
        assert_eq!(d.starts, vec![JobId(2)]);
    }

    #[test]
    fn only_head_is_protected_under_fcfs() {
        let mut s = EasyScheduler::new(8, Policy::Fcfs);
        s.on_arrival(meta(0, 0, 100, 8), SimTime::ZERO);
        s.on_arrival(meta(1, 1, 100, 8), SimTime::new(1)); // pivot at 100
        s.on_arrival(meta(2, 2, 100, 8), SimTime::new(2)); // second in queue: no guarantee
                                                           // Job 3 (1 proc, 95 s) fits before the pivot's anchor: backfills,
                                                           // even though it may delay job 2.
        let d = s.on_arrival(meta(3, 3, 95, 1), SimTime::new(3));
        assert!(
            d.starts.is_empty(),
            "8-wide pivot needs the whole machine; nothing is free"
        );
        // Free the machine at 100; pivot starts; job 2 becomes pivot.
        let d = s.on_completion(JobId(0), SimTime::new(100));
        assert_eq!(d.starts, vec![JobId(1)]);
        assert_eq!(s.queue_len(), 2);
    }

    #[test]
    fn sjf_picks_new_head_dynamically() {
        let mut s = EasyScheduler::new(8, Policy::Sjf);
        s.on_arrival(meta(0, 0, 100, 8), SimTime::ZERO);
        s.on_arrival(meta(1, 1, 900, 8), SimTime::new(1));
        s.on_arrival(meta(2, 2, 50, 8), SimTime::new(2));
        // At completion, SJF queue is [2 (50 s), 1 (900 s)]: job 2 starts.
        let d = s.on_completion(JobId(0), SimTime::new(100));
        assert_eq!(d.starts, vec![JobId(2)]);
    }

    #[test]
    fn xfactor_ages_long_waiters_to_the_front() {
        let mut s = EasyScheduler::new(8, Policy::XFactor);
        s.on_arrival(meta(0, 0, 10_000, 8), SimTime::ZERO);
        // Long job waits from t=0; short job arrives much later.
        s.on_arrival(meta(1, 0, 10_000, 8), SimTime::ZERO);
        s.on_arrival(meta(2, 9_999, 100, 8), SimTime::new(9_999));
        // At t=10000: xf(1) = (10000+10000)/10000 = 2;
        // xf(2) = (1+100)/100 = 1.01. Job 1 leads despite being long.
        let d = s.on_completion(JobId(0), SimTime::new(10_000));
        assert_eq!(d.starts, vec![JobId(1)]);
    }

    #[test]
    fn multiple_backfills_stack_correctly() {
        let mut s = EasyScheduler::new(8, Policy::Fcfs);
        s.on_arrival(meta(0, 0, 100, 6), SimTime::ZERO);
        s.on_arrival(meta(1, 1, 500, 8), SimTime::new(1)); // pivot at 100
                                                           // Two 1-proc 50 s jobs both fit before 100.
        let d = s.on_arrival(meta(2, 2, 50, 1), SimTime::new(2));
        assert_eq!(d.starts, vec![JobId(2)]);
        let d = s.on_arrival(meta(3, 3, 50, 1), SimTime::new(3));
        assert_eq!(d.starts, vec![JobId(3)]);
        // A third would exceed the 2 free procs.
        let d = s.on_arrival(meta(4, 4, 50, 1), SimTime::new(4));
        assert!(d.starts.is_empty());
    }

    #[test]
    fn recorder_sees_pivot_reserve_and_backfill() {
        use obs::trace::TraceKind;
        let mut s = EasyScheduler::new(8, Policy::Fcfs);
        let rec = obs::trace::shared(64);
        s.set_recorder(rec.clone());
        s.on_arrival(meta(0, 0, 100, 6), SimTime::ZERO); // starts immediately
        s.on_arrival(meta(1, 1, 500, 8), SimTime::new(1)); // pivot, anchor 100
        s.on_arrival(meta(2, 2, 90, 2), SimTime::new(2)); // backfills before 100
        let events = rec.borrow().events();
        let kinds: Vec<(u64, &TraceKind)> = events.iter().map(|e| (e.job, &e.kind)).collect();
        assert_eq!(
            kinds,
            vec![
                // One Reserve for the pivot (deduped across the second
                // pass, where its anchor is unchanged)...
                (1, &TraceKind::Reserve { anchor: 100 }),
                // ...then the backfill into the 98 s hole before it.
                (2, &TraceKind::Backfill { filled_hole: 98 }),
            ]
        );
    }

    #[test]
    fn completion_for_unknown_job_panics() {
        let mut s = EasyScheduler::new(8, Policy::Fcfs);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            s.on_completion(JobId(9), SimTime::ZERO)
        }));
        assert!(r.is_err());
    }

    #[test]
    fn name_includes_policy() {
        assert_eq!(EasyScheduler::new(4, Policy::XFactor).name(), "EASY/XF");
    }
}
