//! Property tests: the report builders agree bit for bit with naive
//! references.
//!
//! `capacity_report` merges three sorted event streams, `fairness`
//! counts inversions with a bottom-up merge and `gini` sorts unstably.
//! The references below are the straightforward versions: one
//! stable-sorted sweep over all 3n events, an O(n²) pair count and a
//! stable-sorted Gini. Times are drawn from small ranges so arrivals,
//! starts and completions tie often; outcomes come in arbitrary order,
//! with zero waits and preempted jobs (end > start + runtime) mixed in.

use metrics::{capacity_report, fairness, gini, CapacityReport, FairnessReport, JobOutcome};
use proptest::prelude::*;
use simcore::{JobId, SimSpan, SimTime};
use workload::Job;

/// The capacity sweep as a stable sort of `(time, procs delta, queue
/// delta)` over every event: releases before arrivals before claims at
/// equal times.
fn capacity_reference(outcomes: &[JobOutcome], nodes: u32) -> CapacityReport {
    let zero = CapacityReport {
        utilized: 0.0,
        idle_no_demand: 0.0,
        lost: 0.0,
    };
    if outcomes.is_empty() {
        return zero;
    }
    let mut events: Vec<(SimTime, i64, i64)> = Vec::new();
    for o in outcomes {
        events.push((o.job.arrival, 0, 1));
        events.push((o.start, o.job.width as i64, -1));
        events.push((o.end(), -(o.job.width as i64), 0));
    }
    events.sort_by_key(|&(t, dp, _)| (t, dp));
    let start = outcomes.iter().map(|o| o.job.arrival).min().unwrap();
    let end = outcomes.iter().map(|o| o.end()).max().unwrap();
    let total = end.since(start).as_secs() as u128 * nodes as u128;
    if total == 0 {
        return zero;
    }
    let (mut busy, mut lost, mut running, mut waiting) = (0u128, 0u128, 0i64, 0i64);
    let mut prev = start;
    for (t, dp, dw) in events {
        let dt = t.since(prev).as_secs() as u128;
        if dt > 0 {
            busy += running as u128 * dt;
            if waiting > 0 {
                lost += (nodes as i64 - running).max(0) as u128 * dt;
            }
            prev = t;
        }
        running += dp;
        waiting += dw;
    }
    let utilized = busy as f64 / total as f64;
    let lost = lost as f64 / total as f64;
    CapacityReport {
        utilized,
        lost,
        idle_no_demand: (1.0 - utilized - lost).max(0.0),
    }
}

/// Gini over a stable sort.
fn gini_reference(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
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

/// Fairness with an O(n²) overtake count over the outcomes in stable
/// arrival order.
fn fairness_reference(outcomes: &[JobOutcome]) -> FairnessReport {
    let slowdowns: Vec<f64> = outcomes.iter().map(JobOutcome::bounded_slowdown).collect();
    let mut by_arrival: Vec<&JobOutcome> = outcomes.iter().collect();
    by_arrival.sort_by_key(|o| o.job.arrival);
    let mut inversions = 0u64;
    for (i, a) in by_arrival.iter().enumerate() {
        for b in &by_arrival[i + 1..] {
            if a.start > b.start {
                inversions += 1;
            }
        }
    }
    let n = outcomes.len() as u64;
    let pairs = n * n.saturating_sub(1) / 2;
    FairnessReport {
        slowdown_gini: gini_reference(&slowdowns),
        max_stretch: slowdowns.iter().cloned().fold(0.0, f64::max),
        overtake_rate: if pairs == 0 {
            0.0
        } else {
            inversions as f64 / pairs as f64
        },
    }
}

/// One outcome from `(arrival, wait, runtime, suspended, width)`; a
/// nonzero `suspended` makes it a preempted job.
fn outcome(
    i: usize,
    (arrival, wait, runtime, suspended, width): (u64, u64, u64, u64, u32),
) -> JobOutcome {
    let job = Job {
        id: JobId(i as u32),
        arrival: SimTime::new(arrival),
        runtime: SimSpan::new(runtime),
        estimate: SimSpan::new(runtime),
        width,
    };
    let start = SimTime::new(arrival + wait);
    JobOutcome::with_end(job, start, start + job.runtime + SimSpan::new(suspended))
}

/// Outcomes in arbitrary order with frequent ties and zero waits;
/// `sorted` puts them in arrival order, the order a trace yields.
fn outcomes() -> impl Strategy<Value = Vec<JobOutcome>> {
    let one = (
        0u64..40,
        (0u64..12).prop_map(|w| w.saturating_sub(4)),
        1u64..30,
        (0u64..20).prop_map(|s| s.saturating_sub(14)),
        1u32..9,
    );
    (proptest::collection::vec(one, 0..300), 0u32..2).prop_map(|(raw, sorted)| {
        let mut outcomes: Vec<JobOutcome> = raw
            .into_iter()
            .enumerate()
            .map(|(i, r)| outcome(i, r))
            .collect();
        if sorted == 1 {
            outcomes.sort_by_key(|o| o.job.arrival);
        }
        outcomes
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn capacity_report_matches_the_stable_sort_sweep(outcomes in outcomes(), nodes in 1u32..17) {
        let fast = capacity_report(&outcomes, nodes);
        let naive = capacity_reference(&outcomes, nodes);
        prop_assert_eq!(fast.utilized.to_bits(), naive.utilized.to_bits());
        prop_assert_eq!(fast.lost.to_bits(), naive.lost.to_bits());
        prop_assert_eq!(fast.idle_no_demand.to_bits(), naive.idle_no_demand.to_bits());
    }

    #[test]
    fn fairness_matches_the_quadratic_reference(outcomes in outcomes()) {
        let fast = fairness(&outcomes);
        let naive = fairness_reference(&outcomes);
        prop_assert_eq!(fast.slowdown_gini.to_bits(), naive.slowdown_gini.to_bits());
        prop_assert_eq!(fast.max_stretch.to_bits(), naive.max_stretch.to_bits());
        prop_assert_eq!(fast.overtake_rate.to_bits(), naive.overtake_rate.to_bits());
    }

    #[test]
    fn gini_matches_the_stable_sort(raw in proptest::collection::vec(0u32..50, 0..200)) {
        // Coarse values so many are equal; a few zeros included.
        let values: Vec<f64> = raw.iter().map(|&v| v as f64 / 4.0).collect();
        prop_assert_eq!(gini(&values).to_bits(), gini_reference(&values).to_bits());
    }
}
