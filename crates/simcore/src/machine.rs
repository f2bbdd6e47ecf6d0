//! The machine model: a homogeneous pool of processors under space sharing.
//!
//! This mirrors the systems the paper simulates (IBM SP2s at CTC and SDSC):
//! a job requests `width` processors, holds exactly that many for its whole
//! runtime, and releases them on completion. The machine keeps an allocation
//! ledger so that double-release and over-subscription are hard errors, and
//! integrates busy processor-seconds over time so utilization can be reported
//! without replaying the schedule.

use crate::error::SimError;
use crate::job_table::JobTable;
use crate::time::SimTime;
use serde::{Deserialize, Serialize};

/// Identifies a job throughout the simulator. Dense indices into the trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct JobId(pub u32);

impl std::fmt::Display for JobId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job#{}", self.0)
    }
}

/// A space-shared machine with `total` identical processors.
#[derive(Debug, Clone)]
pub struct Machine {
    total: u32,
    in_use: u32,
    allocations: JobTable<u32>,
    /// Busy processor-seconds accumulated up to `last_update`.
    busy_integral: u128,
    last_update: SimTime,
    peak_in_use: u32,
}

impl Machine {
    /// Create a machine with `total` processors. Panics if `total == 0`.
    pub fn new(total: u32) -> Self {
        assert!(total > 0, "a machine needs at least one processor");
        Machine {
            total,
            in_use: 0,
            allocations: JobTable::new(),
            busy_integral: 0,
            last_update: SimTime::ZERO,
            peak_in_use: 0,
        }
    }

    /// Total processor count.
    pub fn total(&self) -> u32 {
        self.total
    }

    /// Processors currently allocated.
    pub fn in_use(&self) -> u32 {
        self.in_use
    }

    /// Processors currently free.
    pub fn free(&self) -> u32 {
        self.total - self.in_use
    }

    /// Highest instantaneous allocation seen so far.
    pub fn peak_in_use(&self) -> u32 {
        self.peak_in_use
    }

    /// Number of currently running jobs.
    pub fn running_jobs(&self) -> usize {
        self.allocations.len()
    }

    /// True if `width` processors could be allocated right now.
    pub fn fits(&self, width: u32) -> bool {
        width <= self.free()
    }

    fn advance_to(&mut self, now: SimTime) {
        debug_assert!(now >= self.last_update, "machine clock moved backwards");
        let dt = now.since(self.last_update);
        self.busy_integral += self.in_use as u128 * dt.as_secs() as u128;
        self.last_update = now;
    }

    /// Allocate `width` processors to `job` at time `now`.
    pub fn allocate(&mut self, job: JobId, width: u32, now: SimTime) -> Result<(), SimError> {
        if width == 0 {
            return Err(SimError::ZeroWidthAllocation { job: job.0 });
        }
        if width > self.free() {
            return Err(SimError::OverSubscribed {
                job: job.0,
                requested: width,
                free: self.free(),
            });
        }
        if self.allocations.get(job).is_some() {
            return Err(SimError::DoubleAllocation { job: job.0 });
        }
        self.advance_to(now);
        self.in_use += width;
        self.peak_in_use = self.peak_in_use.max(self.in_use);
        self.allocations.insert(job, width);
        Ok(())
    }

    /// Release the processors held by `job` at time `now`.
    pub fn release(&mut self, job: JobId, now: SimTime) -> Result<u32, SimError> {
        let width = self
            .allocations
            .remove(job)
            .ok_or(SimError::ReleaseWithoutAllocation { job: job.0 })?;
        self.advance_to(now);
        self.in_use -= width;
        Ok(width)
    }

    /// Busy processor-seconds accumulated over `[SimTime::ZERO, now]`.
    pub fn busy_proc_seconds(&self, now: SimTime) -> u128 {
        debug_assert!(now >= self.last_update);
        self.busy_integral + self.in_use as u128 * now.since(self.last_update).as_secs() as u128
    }

    /// Mean utilization over the window `[from, to]`, in `[0, 1]`.
    ///
    /// Only meaningful when `from` is `SimTime::ZERO` or no allocations
    /// changed before `from`; the driver measures from first arrival with a
    /// machine that was idle before it, which satisfies this.
    pub fn utilization(&self, from: SimTime, to: SimTime) -> f64 {
        let span = to.since(from);
        if span.is_zero() {
            return 0.0;
        }
        let busy = self.busy_proc_seconds(to);
        busy as f64 / (self.total as f64 * span.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocate_and_release_roundtrip() {
        let mut m = Machine::new(16);
        m.allocate(JobId(1), 4, SimTime::new(0)).unwrap();
        assert_eq!(m.free(), 12);
        assert_eq!(m.in_use(), 4);
        assert_eq!(m.running_jobs(), 1);
        let w = m.release(JobId(1), SimTime::new(10)).unwrap();
        assert_eq!(w, 4);
        assert_eq!(m.free(), 16);
        assert_eq!(m.running_jobs(), 0);
    }

    #[test]
    fn oversubscription_is_rejected() {
        let mut m = Machine::new(8);
        m.allocate(JobId(1), 6, SimTime::ZERO).unwrap();
        let err = m.allocate(JobId(2), 3, SimTime::ZERO).unwrap_err();
        assert!(matches!(
            err,
            SimError::OverSubscribed {
                requested: 3,
                free: 2,
                ..
            }
        ));
    }

    #[test]
    fn zero_width_is_rejected() {
        let mut m = Machine::new(8);
        assert!(matches!(
            m.allocate(JobId(1), 0, SimTime::ZERO),
            Err(SimError::ZeroWidthAllocation { .. })
        ));
    }

    #[test]
    fn double_allocation_is_rejected() {
        let mut m = Machine::new(8);
        m.allocate(JobId(1), 2, SimTime::ZERO).unwrap();
        assert!(matches!(
            m.allocate(JobId(1), 2, SimTime::ZERO),
            Err(SimError::DoubleAllocation { .. })
        ));
    }

    #[test]
    fn release_without_allocation_is_rejected() {
        let mut m = Machine::new(8);
        assert!(matches!(
            m.release(JobId(9), SimTime::ZERO),
            Err(SimError::ReleaseWithoutAllocation { .. })
        ));
    }

    #[test]
    fn fits_checks_free_capacity() {
        let mut m = Machine::new(8);
        assert!(m.fits(8));
        m.allocate(JobId(1), 5, SimTime::ZERO).unwrap();
        assert!(m.fits(3));
        assert!(!m.fits(4));
        // Width 0 trivially "fits" capacity-wise but allocate() rejects it.
        assert!(m.fits(0));
    }

    #[test]
    fn busy_integral_accumulates() {
        let mut m = Machine::new(10);
        m.allocate(JobId(1), 10, SimTime::new(0)).unwrap(); // 10 procs for 10 s
        m.release(JobId(1), SimTime::new(10)).unwrap();
        m.allocate(JobId(2), 5, SimTime::new(10)).unwrap(); // 5 procs for 10 s
        m.release(JobId(2), SimTime::new(20)).unwrap();
        assert_eq!(m.busy_proc_seconds(SimTime::new(20)), 150);
        // Idle tail contributes nothing.
        assert_eq!(m.busy_proc_seconds(SimTime::new(30)), 150);
    }

    #[test]
    fn busy_integral_counts_still_running_jobs() {
        let mut m = Machine::new(4);
        m.allocate(JobId(1), 2, SimTime::new(0)).unwrap();
        assert_eq!(m.busy_proc_seconds(SimTime::new(7)), 14);
    }

    #[test]
    fn utilization_over_window() {
        let mut m = Machine::new(10);
        m.allocate(JobId(1), 10, SimTime::new(0)).unwrap();
        m.release(JobId(1), SimTime::new(10)).unwrap();
        // 100 busy proc-s over 10 procs * 20 s window = 0.5.
        let u = m.utilization(SimTime::new(0), SimTime::new(20));
        assert!((u - 0.5).abs() < 1e-12, "utilization {u}");
        assert_eq!(m.utilization(SimTime::new(5), SimTime::new(5)), 0.0);
    }

    #[test]
    fn peak_tracks_high_water_mark() {
        let mut m = Machine::new(10);
        m.allocate(JobId(1), 4, SimTime::new(0)).unwrap();
        m.allocate(JobId(2), 5, SimTime::new(1)).unwrap();
        m.release(JobId(1), SimTime::new(2)).unwrap();
        assert_eq!(m.peak_in_use(), 9);
    }
}
