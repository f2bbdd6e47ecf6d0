//! Fairness metrics for schedules.
//!
//! The paper's worst-case turnaround rows (Tables 4, 7) are a fairness
//! signal: EASY's averages improve while individual jobs starve. This
//! module quantifies that trade-off properly — the same research group's
//! follow-up line of work ("Unfairness in parallel job scheduling") made
//! these first-class metrics:
//!
//! * **Gini coefficient** of per-job bounded slowdowns — 0 is perfectly
//!   even service, 1 is maximally concentrated pain;
//! * **max-stretch** — the worst bounded slowdown (the classic theory
//!   metric);
//! * **overtake count** — how many job pairs ran in the opposite order to
//!   their arrival (a direct measure of how much a policy deviates from
//!   FCFS service order).

use crate::outcome::JobOutcome;
use serde::{Deserialize, Serialize};

/// Gini coefficient of a set of non-negative values.
///
/// Uses the sorted-rank formula `G = (2·Σᵢ i·xᵢ)/(n·Σ xᵢ) − (n+1)/n` with
/// 1-based ranks over ascending values. Returns 0 for empty input or an
/// all-zero sum.
pub fn gini(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    assert!(
        values.iter().all(|v| v.is_finite() && *v >= 0.0),
        "gini requires finite non-negative values"
    );
    let mut sorted = values.to_vec();
    // Values equal under `total_cmp` are bit-identical, so an unstable
    // sort yields the same sequence as a stable one.
    sorted.sort_unstable_by(f64::total_cmp);
    let n = sorted.len() as f64;
    let total: f64 = sorted.iter().sum();
    if total == 0.0 {
        return 0.0;
    }
    let weighted: f64 = sorted
        .iter()
        .enumerate()
        .map(|(i, &x)| (i as f64 + 1.0) * x)
        .sum();
    (2.0 * weighted) / (n * total) - (n + 1.0) / n
}

/// A schedule's fairness summary.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FairnessReport {
    /// Gini coefficient of bounded slowdowns.
    pub slowdown_gini: f64,
    /// Worst bounded slowdown (max-stretch).
    pub max_stretch: f64,
    /// Fraction of job pairs served out of arrival order
    /// (0 = pure FCFS service, 0.5 ≈ arrival order ignored).
    pub overtake_rate: f64,
}

/// Compute the fairness summary of a schedule's outcomes.
///
/// The overtake rate is exact (O(n log n) via merge-sort inversion
/// counting over start times in arrival order).
pub fn fairness(outcomes: &[JobOutcome]) -> FairnessReport {
    let slowdowns: Vec<f64> = outcomes.iter().map(JobOutcome::bounded_slowdown).collect();
    let max_stretch = slowdowns.iter().cloned().fold(0.0, f64::max);

    // Outcomes are in job-id order; sort keys by arrival (stable: ties keep
    // id order), then count inversions of start times.
    let mut by_arrival: Vec<(u64, u64)> = outcomes
        .iter()
        .map(|o| (o.job.arrival.as_secs(), o.start.as_secs()))
        .collect();
    by_arrival.sort_by_key(|&(arrival, _)| arrival);
    let starts: Vec<u64> = by_arrival.into_iter().map(|(_, s)| s).collect();
    let inversions = count_inversions(starts);
    let n = outcomes.len() as u64;
    let pairs = n.saturating_mul(n.saturating_sub(1)) / 2;
    let overtake_rate = if pairs == 0 {
        0.0
    } else {
        inversions as f64 / pairs as f64
    };

    FairnessReport {
        slowdown_gini: gini(&slowdowns),
        max_stretch,
        overtake_rate,
    }
}

/// Count pairs `(i, j)` with `i < j` but `v[i] > v[j]` (strict inversions).
///
/// A bottom-up merge sort over `v` and one scratch buffer of the same
/// length. Runs of [`RUN`] elements are first insertion-sorted in place
/// (each shift past a strictly greater element is one inversion); then
/// each pass merges adjacent runs from one buffer into the other,
/// counting the cross inversions. Start times in arrival order are
/// nearly sorted, so most insertions shift little and many merges find
/// their two runs already in order.
fn count_inversions(mut v: Vec<u64>) -> u64 {
    const RUN: usize = 32;
    let n = v.len();
    let mut inv = 0u64;
    for run in v.chunks_mut(RUN) {
        for i in 1..run.len() {
            let x = run[i];
            let mut j = i;
            while j > 0 && run[j - 1] > x {
                run[j] = run[j - 1];
                j -= 1;
            }
            run[j] = x;
            inv += (i - j) as u64;
        }
    }
    let mut scratch = vec![0u64; n];
    let mut width = RUN;
    while width < n {
        for lo in (0..n).step_by(2 * width) {
            let mid = (lo + width).min(n);
            let hi = (lo + 2 * width).min(n);
            let (mut i, mut j, mut k) = (lo, mid, lo);
            if mid < hi && v[mid - 1] > v[mid] {
                while i < mid && j < hi {
                    // Cross inversions: the left element is strictly greater.
                    if v[i] <= v[j] {
                        scratch[k] = v[i];
                        i += 1;
                    } else {
                        inv += (mid - i) as u64;
                        scratch[k] = v[j];
                        j += 1;
                    }
                    k += 1;
                }
            }
            scratch[k..k + mid - i].copy_from_slice(&v[i..mid]);
            scratch[k + mid - i..hi].copy_from_slice(&v[j..hi]);
        }
        std::mem::swap(&mut v, &mut scratch);
        width *= 2;
    }
    inv
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::{JobId, SimSpan, SimTime};
    use workload::Job;

    fn outcome(arrival: u64, runtime: u64, start: u64) -> JobOutcome {
        JobOutcome::new(
            Job {
                id: JobId(0),
                arrival: SimTime::new(arrival),
                runtime: SimSpan::new(runtime),
                estimate: SimSpan::new(runtime),
                width: 1,
            },
            SimTime::new(start),
        )
    }

    #[test]
    fn gini_of_equal_values_is_zero() {
        assert!(gini(&[5.0, 5.0, 5.0, 5.0]).abs() < 1e-12);
        assert_eq!(gini(&[]), 0.0);
        assert_eq!(gini(&[0.0, 0.0]), 0.0);
    }

    #[test]
    fn gini_of_concentrated_values_approaches_one() {
        let mut v = vec![0.0; 99];
        v.push(100.0);
        let g = gini(&v);
        assert!(g > 0.95, "gini {g}");
    }

    #[test]
    fn gini_known_value() {
        // For [1, 3]: G = (2*(1*1 + 2*3))/(2*4) - 3/2 = 14/8 - 1.5 = 0.25.
        assert!((gini(&[1.0, 3.0]) - 0.25).abs() < 1e-12);
        // Order independence.
        assert!((gini(&[3.0, 1.0]) - 0.25).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn gini_rejects_negative() {
        gini(&[1.0, -2.0]);
    }

    #[test]
    fn inversion_counting() {
        assert_eq!(count_inversions(vec![1, 2, 3, 4]), 0);
        assert_eq!(count_inversions(vec![4, 3, 2, 1]), 6);
        assert_eq!(count_inversions(vec![2, 1, 3]), 1);
        assert_eq!(count_inversions(vec![]), 0);
        assert_eq!(count_inversions(vec![7]), 0);
        // Equal elements are not inversions.
        assert_eq!(count_inversions(vec![5, 5, 5]), 0);
    }

    #[test]
    fn report_round_trips_through_json() {
        let outcomes = vec![outcome(0, 10, 0), outcome(5, 10, 40), outcome(8, 10, 20)];
        let r = fairness(&outcomes);
        let text = serde_json::to_string(&r).unwrap();
        let back: FairnessReport = serde_json::from_str(&text).unwrap();
        assert_eq!(r, back);
    }

    #[test]
    fn fcfs_service_has_zero_overtakes() {
        let outcomes = vec![outcome(0, 10, 0), outcome(5, 10, 10), outcome(8, 10, 20)];
        let r = fairness(&outcomes);
        assert_eq!(r.overtake_rate, 0.0);
    }

    #[test]
    fn reversed_service_has_full_overtake_rate() {
        let outcomes = vec![outcome(0, 10, 40), outcome(5, 10, 20), outcome(8, 10, 8)];
        let r = fairness(&outcomes);
        assert!((r.overtake_rate - 1.0).abs() < 1e-12);
    }

    #[test]
    fn max_stretch_is_worst_slowdown() {
        let outcomes = vec![outcome(0, 100, 0), outcome(0, 100, 300)];
        let r = fairness(&outcomes);
        assert!((r.max_stretch - 4.0).abs() < 1e-12);
    }

    #[test]
    fn empty_schedule() {
        let r = fairness(&[]);
        assert_eq!(r.overtake_rate, 0.0);
        assert_eq!(r.max_stretch, 0.0);
        assert_eq!(r.slowdown_gini, 0.0);
    }
}
