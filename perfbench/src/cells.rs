//! The simulation cells behind each workload, each paired with its
//! pinned reference fingerprint where one exists.
//!
//! Every workload runs the same cells at every seed; the seed only draws
//! the order they run in (the default seed keeps the pinned order). The
//! slowest cells of a grid depend on its job streams and estimate draws,
//! so letting the seed pick the traces moved the tail metrics by more
//! than the benchmark's bounds allow (README.md has the measurements).
//! Fixed cells also let every run check every pinned fingerprint.
//!
//! The pinned cells are the bench cells of `bench::sweep::full_specs`,
//! whose fingerprints BENCH_5.json records.

use backfill_sim::{RunConfig, SchedulerKind};
use bench::sweep::{full_specs, SweepSpec, TraceModel};
use sched::Policy;
use simcore::SimSpan;
use workload::{EstimateModel, UserModelParams};

/// The seed that keeps every workload's cells in their pinned order, and
/// the trace seed of the pinned cells.
pub const DEFAULT_SEED: u64 = 7;

/// A cell and, when it is one of the pinned cells, its fingerprint.
pub type Cell = (RunConfig, Option<u64>);

/// Trace seeds of the `shallow-grid` grids, from [`DEFAULT_SEED`] on.
const SHALLOW_SEEDS: u64 = 4;

/// `shallow-grid`: the 42-cell ρ = 0.9 exact-estimate paper grid
/// (7 kinds × 3 policies × CTC/SDSC, 3k jobs) at [`SHALLOW_SEEDS`]
/// consecutive trace seeds, the first of them the pinned grid, in an
/// order drawn from `seed`. Queues stay shallow and exact estimates leave
/// Conservative's compression idle, so the per-event cost — event pop,
/// driver handlers, queue ops — dominates.
pub fn shallow_grid(seed: u64) -> Vec<Cell> {
    let paper = full_specs().swap_remove(0);
    let mut cells: Vec<Cell> = (0..SHALLOW_SEEDS)
        .flat_map(|k| {
            let pinned = k == 0;
            SweepSpec {
                seeds: vec![DEFAULT_SEED + k],
                ..paper.clone()
            }
            .expand()
            .into_iter()
            .zip(SHALLOW_REF)
            .map(move |(cell, &fp)| (cell, pinned.then_some(fp)))
        })
        .collect();
    shuffle(seed, &mut cells);
    cells
}

/// `deep-queue`: the four pinned CTC ρ = 2.2 user-estimate 20k-job cells
/// (Cons FCFS/SJF/XF, EASY/XF), plus one deep XF cell each for the
/// kinds the pinned grid has no deep cell of, in an order drawn from
/// `seed` (the pinned order at the default seed).
///
/// The extra cells use 5k jobs so no one cell dwarfs Cons/XF: Sel(2)/XF
/// took 1.0 / 4.9 / 33.7 s at 5k / 10k / 20k jobs on the 2-core
/// reference host, against 1.2 s for Cons/XF at 20k. At 5k jobs
/// (`bfsim simulate --scheduler selective:2 --jobs 5000 --load 2.2
/// --estimate user --seed 7 --policy xf`) it makes 2.07M `find_anchor`
/// calls and 906k reserves but only 4,438 compress passes, so it loads
/// the availability profile rather than compression.
pub fn deep_queue(seed: u64) -> Vec<Cell> {
    let specs = full_specs();
    let extra = SweepSpec {
        jobs: 5_000,
        kinds: vec![
            SchedulerKind::Selective { threshold: 2.0 },
            SchedulerKind::Slack { slack_factor: 0.5 },
            SchedulerKind::Depth { depth: 4 },
            SchedulerKind::Preemptive { threshold: 5.0 },
            SchedulerKind::NoBackfill,
        ],
        policies: vec![Policy::XFactor],
        ..specs[1].clone()
    };
    let mut cells: Vec<Cell> = [&specs[1], &specs[2], &extra]
        .into_iter()
        .flat_map(SweepSpec::expand)
        .zip(DEEP_REF)
        .map(|(cell, &fp)| (cell, Some(fp)))
        .collect();
    shuffle(seed, &mut cells);
    cells
}

/// `sharded-sweep`: 252 small cells — CTC and SDSC at three trace
/// seeds, exact and (capped) user estimates, every kind and policy of
/// the paper grid, 1k jobs at ρ = 0.9 — in an order drawn from `seed`.
/// Each simulates in milliseconds, so the protocol, pool, trace/result
/// cache, report construction and dispatch weigh in.
pub fn sharded_sweep(seed: u64) -> Vec<RunConfig> {
    let paper = full_specs().swap_remove(0);
    let mut cells = SweepSpec {
        models: vec![TraceModel::Ctc, TraceModel::Sdsc],
        jobs: 1_000,
        seeds: vec![DEFAULT_SEED, DEFAULT_SEED + 1, DEFAULT_SEED + 2],
        estimates: vec![
            EstimateModel::Exact,
            EstimateModel::User(UserModelParams::capped(SimSpan::from_hours(18))),
        ],
        estimate_seeds: vec![DEFAULT_SEED],
        loads: vec![Some(0.9)],
        ..paper
    }
    .expand();
    shuffle(seed, &mut cells);
    cells
}

/// Reorder `items` by a Fisher-Yates shuffle drawn from `seed`; the
/// default seed keeps the given order.
pub fn shuffle<T>(seed: u64, items: &mut [T]) {
    if seed == DEFAULT_SEED {
        return;
    }
    let mut state = seed;
    for i in (1..items.len()).rev() {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        items.swap(i, (state >> 33) as usize % (i + 1));
    }
}

/// Fingerprints of the paper grid at trace seed [`DEFAULT_SEED`], in
/// cell order (the first 42 cells of BENCH_5.json).
const SHALLOW_REF: &[u64] = &[
    12278829548848185783, // CTC NoBF/FCFS
    9914647139924128936,  // CTC NoBF/SJF
    7142758790286315190,  // CTC NoBF/XF
    14052240885932789395, // CTC Cons/FCFS
    14052240885932789395, // CTC Cons/SJF
    14052240885932789395, // CTC Cons/XF
    15867597751461677735, // CTC EASY/FCFS
    130867352634302711,   // CTC EASY/SJF
    363973432273884593,   // CTC EASY/XF
    4197224367418126681,  // CTC Depth(4)/FCFS
    11350680233271496960, // CTC Depth(4)/SJF
    15426140127363646717, // CTC Depth(4)/XF
    4215999689922104291,  // CTC Sel(2)/FCFS
    2090594771341681751,  // CTC Sel(2)/SJF
    11357882254144727138, // CTC Sel(2)/XF
    14084626517564281773, // CTC Slack(0.5)/FCFS
    4768650206796713936,  // CTC Slack(0.5)/SJF
    7443300700751729979,  // CTC Slack(0.5)/XF
    13628720695676075275, // CTC Preempt(5)/FCFS
    2772036513700962817,  // CTC Preempt(5)/SJF
    7391855500956269501,  // CTC Preempt(5)/XF
    1961140912459129084,  // SDSC NoBF/FCFS
    6581816270163240279,  // SDSC NoBF/SJF
    3088257594086318876,  // SDSC NoBF/XF
    6670229593355158503,  // SDSC Cons/FCFS
    6670229593355158503,  // SDSC Cons/SJF
    6670229593355158503,  // SDSC Cons/XF
    13032693538048135571, // SDSC EASY/FCFS
    180355623347332372,   // SDSC EASY/SJF
    4556381431071789078,  // SDSC EASY/XF
    7098858969723782236,  // SDSC Depth(4)/FCFS
    7818361385741188160,  // SDSC Depth(4)/SJF
    2327395347212454336,  // SDSC Depth(4)/XF
    17102026726229406371, // SDSC Sel(2)/FCFS
    3776465052495676874,  // SDSC Sel(2)/SJF
    11467055984826913698, // SDSC Sel(2)/XF
    14677561523342867427, // SDSC Slack(0.5)/FCFS
    15701727561581373415, // SDSC Slack(0.5)/SJF
    1712347303400755094,  // SDSC Slack(0.5)/XF
    15976219143642613977, // SDSC Preempt(5)/FCFS
    15875631372973736642, // SDSC Preempt(5)/SJF
    9511439969183406892,  // SDSC Preempt(5)/XF
];

/// Fingerprints of the [`deep_queue`] cells in their pinned order: the
/// four deep cells of BENCH_5.json, then the five extra 5k-job cells as
/// recorded by this benchmark at the commit that introduced it.
const DEEP_REF: &[u64] = &[
    2023957090913221116,  // CTC Cons/FCFS 20k
    16967418352749526337, // CTC Cons/SJF 20k
    10677399149188182293, // CTC Cons/XF 20k
    6717793141158073298,  // CTC EASY/XF 20k
    5898153681845484026,  // CTC Sel(2)/XF 5k
    3399558277102677888,  // CTC Slack(0.5)/XF 5k
    1323679508044835406,  // CTC Depth(4)/XF 5k
    13797247917713114850, // CTC Preempt(5)/XF 5k
    17175938114209711410, // CTC NoBF/XF 5k
];
