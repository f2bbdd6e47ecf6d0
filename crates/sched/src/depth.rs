//! Reservation-depth backfilling — the continuum between EASY and
//! conservative.
//!
//! EASY protects exactly one queued job (the pivot); conservative protects
//! all of them. Chiang, Arpaci-Dusseau & Vernon's re-evaluation of
//! reservation policies studies the natural generalization: protect the
//! **top `k` jobs of the priority queue** with reservations and let
//! everything else backfill around them. `k = 1` reproduces EASY's
//! semantics; large `k` approaches conservative's (without its
//! arrival-order guarantee handout).
//!
//! Reservations here are *recomputed from scratch at every event* in
//! priority order — the "dynamic reservations" style — so this scheduler
//! also serves as the re-planning counterpart to the conservative
//! scheduler's persistent-guarantee bookkeeping.

use crate::policy::Policy;
use crate::profile::{Profile, ProfileStats};
use crate::queue::SchedQueue;
use crate::scheduler::{Decisions, JobMeta, Scheduler};
use simcore::{JobId, JobTable, SimSpan, SimTime};

#[derive(Debug, Clone, Copy)]
struct Running {
    width: u32,
    est_end: SimTime,
}

/// Depth-`k` reservation backfilling scheduler.
#[derive(Debug, Clone)]
pub struct DepthScheduler {
    policy: Policy,
    depth: usize,
    capacity: u32,
    free: u32,
    queue: SchedQueue,
    running: JobTable<Running>,
    /// Mirror of the running set's remaining estimated occupancy, updated
    /// on every start and completion instead of rebuilt per event. During
    /// a pass it also holds the pass's reservations.
    cached: Profile,
    /// Scheduler-level counters (passes, rebuilds avoided) that
    /// `profile_stats` merges with the cached profile's own.
    stats: ProfileStats,
    /// Opt-in per-phase profiling accumulator (strictly observational).
    phases: Option<obs::SharedPhases>,
    /// The reservations placed by the current pass, `(anchor, estimate,
    /// width)`, released again when it ends; kept to reuse its buffer.
    planned: Vec<(SimTime, SimSpan, u32)>,
}

impl DepthScheduler {
    /// Create for a machine with `capacity` processors, protecting the top
    /// `depth` queued jobs (`depth >= 1`).
    pub fn new(capacity: u32, policy: Policy, depth: usize) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        assert!(depth >= 1, "reservation depth must be at least 1");
        DepthScheduler {
            policy,
            depth,
            capacity,
            free: capacity,
            queue: SchedQueue::new(policy),
            running: JobTable::new(),
            cached: Profile::new(capacity),
            stats: ProfileStats::default(),
            phases: None,
            planned: Vec::new(),
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

    /// From-scratch rebuild: the differential reference for `cached`.
    #[cfg(debug_assertions)]
    fn rebuilt_running_profile(&self, now: SimTime) -> Profile {
        let mut p = Profile::new(self.capacity);
        for run in self.running.values() {
            if run.est_end > now {
                p.reserve(now, run.est_end.since(now), run.width);
            }
        }
        p
    }

    fn reschedule(&mut self, now: SimTime) -> Decisions {
        let mut starts = Vec::new();
        self.cached.trim_before(now);
        self.queue.prepare(now);

        // Phase 1: start from the head while it fits (identical to EASY).
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

        // Phase 3 only starts jobs past the protected prefix that fit in
        // the free processors, and `free` only shrinks during the pass: if
        // there is none, the reservations could change no decision.
        let protected = self.depth.min(self.queue.len());
        if !self
            .queue
            .iter()
            .skip(protected)
            .any(|j| j.width <= self.free)
        {
            return Decisions::start(starts);
        }

        // Phase 2: the top `depth` blocked jobs receive reservations, in
        // priority order, each at its earliest anchor given the running
        // jobs and the reservations placed before it. They go straight
        // into the cached running profile for the duration of the pass.
        let mut planned = std::mem::take(&mut self.planned);
        for job in self.queue.iter().take(protected) {
            let anchor = self.cached.find_anchor(now, job.estimate, job.width);
            self.cached.reserve(anchor, job.estimate, job.width);
            planned.push((anchor, job.estimate, job.width));
        }

        // Phase 3: the rest may backfill iff their rectangle fits *now*
        // without touching any reservation. `start` adds each accepted
        // backfill to the profile, so later candidates see it.
        let scan_t0 = obs::span::start_nested(&self.phases, obs::Phase::Backfill);
        let mut i = protected;
        while i < self.queue.len() {
            let cand = self.queue[i];
            if cand.width <= self.free && self.cached.fits(now, cand.estimate, cand.width) {
                self.queue.remove(i);
                self.start(cand, now, &mut starts);
            } else {
                i += 1;
            }
        }
        // The pass is over: the protected jobs are not running, so their
        // rectangles leave the running profile again.
        for (anchor, estimate, width) in planned.drain(..) {
            self.cached.release(anchor, estimate, width);
        }
        self.planned = planned;
        obs::span::finish_nested(&self.phases, obs::Phase::Backfill, scan_t0);
        Decisions::start(starts)
    }
}

impl Scheduler for DepthScheduler {
    fn name(&self) -> String {
        format!("Depth({})/{}", self.depth, self.policy)
    }

    fn on_arrival(&mut self, job: JobMeta, now: SimTime) -> Decisions {
        assert!(job.width <= self.capacity, "{} wider than machine", job.id);
        self.queue.push(job);
        self.reschedule(now)
    }

    fn on_completion(&mut self, id: JobId, now: SimTime) -> Decisions {
        let run = self.running.remove(id).expect("completion for unknown job");
        self.free += run.width;
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

    fn set_phases(&mut self, phases: obs::SharedPhases) {
        self.phases = Some(phases);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::easy::EasyScheduler;
    use simcore::SimSpan;

    fn meta(id: u32, arrival: u64, estimate: u64, width: u32) -> JobMeta {
        JobMeta {
            id: JobId(id),
            arrival: SimTime::new(arrival),
            estimate: SimSpan::new(estimate),
            width,
        }
    }

    /// Feed the same event sequence to two schedulers; assert identical
    /// decisions throughout.
    fn lockstep(mut a: impl Scheduler, mut b: impl Scheduler) {
        let script: Vec<(u64, JobMeta)> = vec![
            (0, meta(0, 0, 100, 6)),
            (1, meta(1, 1, 500, 8)),
            (2, meta(2, 2, 90, 2)),
            (3, meta(3, 3, 200, 2)),
            (5, meta(4, 5, 50, 1)),
        ];
        let mut running: Vec<(u64, JobId)> = Vec::new(); // (end, id) by estimate
        for (t, job) in script {
            let now = SimTime::new(t);
            let da = a.on_arrival(job, now);
            let db = b.on_arrival(job, now);
            assert_eq!(da.starts, db.starts, "diverged at arrival t={t}");
            for &id in &da.starts {
                running.push((t + job.estimate.as_secs(), id));
            }
        }
        running.sort();
        while let Some((t, id)) = running.first().copied() {
            running.remove(0);
            let now = SimTime::new(t);
            let da = a.on_completion(id, now);
            let db = b.on_completion(id, now);
            assert_eq!(da.starts, db.starts, "diverged at completion t={t}");
            for &sid in &da.starts {
                // Estimates equal runtimes in this script; look the job up
                // by replaying is overkill — starts always happen at `now`
                // and the script's estimates are known by id.
                let est = [100, 500, 90, 200, 50][sid.0 as usize];
                running.push((t + est, sid));
            }
            running.sort();
        }
    }

    #[test]
    fn depth_one_matches_easy_decision_for_decision() {
        lockstep(
            DepthScheduler::new(8, Policy::Fcfs, 1),
            EasyScheduler::new(8, Policy::Fcfs),
        );
    }

    #[test]
    fn deeper_reservations_block_more_backfill() {
        // Running: 6-wide until 100. Queue: 6-wide pivot (anchor 100,
        // 2 spare procs) then 8-wide second (anchor 200). A 2-wide 250 s
        // candidate runs [3, 253): it rides the pivot's spare processors
        // (harmless at depth 1) but overlaps the 8-wide reservation at
        // [200, 253) — exactly what depth 2 must refuse.
        let setup = |depth| {
            let mut s = DepthScheduler::new(8, Policy::Fcfs, depth);
            s.on_arrival(meta(0, 0, 100, 6), SimTime::ZERO); // running [0,100)
            s.on_arrival(meta(1, 1, 100, 6), SimTime::new(1)); // anchor 100, spare 2
            s.on_arrival(meta(2, 2, 100, 8), SimTime::new(2)); // anchor 200
            s
        };
        let mut d1 = setup(1);
        let got = d1.on_arrival(meta(3, 3, 250, 2), SimTime::new(3));
        assert_eq!(
            got.starts,
            vec![JobId(3)],
            "depth 1 should admit (only pivot protected)"
        );

        let mut d2 = setup(2);
        let got = d2.on_arrival(meta(3, 3, 250, 2), SimTime::new(3));
        assert!(
            got.starts.is_empty(),
            "depth 2 must protect the second reservation"
        );
    }

    #[test]
    fn pass_leaves_only_running_jobs_in_cached_profile() {
        let mut s = DepthScheduler::new(8, Policy::Fcfs, 2);
        s.on_arrival(meta(0, 0, 100, 6), SimTime::ZERO); // running [0,100)
        s.on_arrival(meta(1, 1, 100, 6), SimTime::new(1)); // reserved at 100
        s.on_arrival(meta(2, 2, 100, 8), SimTime::new(2)); // reserved at 200
        let d = s.on_arrival(meta(3, 3, 50, 2), SimTime::new(3)); // backfills
        assert_eq!(d.starts, vec![JobId(3)]);
        let mut running = Profile::new(8);
        running.reserve(SimTime::ZERO, SimSpan::new(100), 6);
        running.reserve(SimTime::new(3), SimSpan::new(50), 2);
        assert!(s.cached.same_future(&running, SimTime::new(3)));
        let stats = s.profile_stats().unwrap();
        assert_eq!(
            stats.reserves - stats.releases,
            2,
            "every planned rectangle is released at the end of its pass"
        );
    }

    #[test]
    fn large_depth_protects_everyone() {
        let mut s = DepthScheduler::new(8, Policy::Fcfs, usize::MAX);
        s.on_arrival(meta(0, 0, 100, 6), SimTime::ZERO);
        s.on_arrival(meta(1, 1, 50, 8), SimTime::new(1));
        // Like conservative: a 200 s 2-wide job would delay job 1 -> refused.
        let d = s.on_arrival(meta(2, 2, 200, 2), SimTime::new(2));
        assert!(d.starts.is_empty());
    }

    #[test]
    fn name_reports_depth() {
        assert_eq!(
            DepthScheduler::new(4, Policy::Sjf, 3).name(),
            "Depth(3)/SJF"
        );
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn rejects_zero_depth() {
        DepthScheduler::new(4, Policy::Fcfs, 0);
    }
}
