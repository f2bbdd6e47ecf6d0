//! Differential tests of the tree-accelerated anchor search.
//!
//! `Profile::find_anchor` descends an incrementally maintained min/max
//! segment tree (plain-scanning small profiles);
//! `Profile::find_anchor_linear` is the plain scan it replaced. These
//! properties drive both — plus a third, deliberately naive reference
//! implemented here over `Profile::segments()` — through random
//! reserve/partial-release/trim histories and assert all three agree on
//! every query: the tree must be a pure accelerator, never a decision
//! change.

use proptest::prelude::*;
use sched::{Profile, Segment};
use simcore::{SimSpan, SimTime};

/// Naive reference anchor: try `earliest` and every later segment start in
/// order, checking feasibility point-by-point against the raw segments.
/// (Any blocked anchor re-starts at a segment boundary, so these are the
/// only candidates.) Quadratic and proud of it.
fn reference_anchor(
    segs: &[Segment],
    cap: u32,
    earliest: SimTime,
    dur: SimSpan,
    width: u32,
) -> SimTime {
    assert!(
        width > 0 && !dur.is_zero(),
        "reference expects real rectangles"
    );
    let free_at = |t: SimTime| -> u32 {
        let mut free = cap; // before the first boundary the profile is free
        for s in segs {
            if s.start <= t {
                free = s.free;
            } else {
                break;
            }
        }
        free
    };
    let fits_at = |t: SimTime| -> bool {
        if free_at(t) < width {
            return false;
        }
        let end = t + dur;
        segs.iter()
            .all(|s| !(s.start > t && s.start < end && s.free < width))
    };
    if fits_at(earliest) {
        return earliest;
    }
    for s in segs {
        if s.start > earliest && fits_at(s.start) {
            return s.start;
        }
    }
    unreachable!("final segment is asserted wide enough");
}

/// A scripted history of profile mutations that can never panic:
/// reservations are placed at anchors, releases give back tails of
/// still-live reservations, trims move the origin forward.
#[derive(Debug, Clone, Copy)]
struct Op {
    kind: u8,
    a: u64,
    b: u64,
    w: u32,
}

fn op() -> impl Strategy<Value = Op> {
    (0u8..8, 0u64..20_000, 1u64..3_000, 1u32..=24).prop_map(|(kind, a, b, w)| Op { kind, a, b, w })
}

fn apply_ops(cap: u32, ops: &[Op]) -> Profile {
    let mut p = Profile::new(cap);
    let mut live: Vec<(SimTime, SimSpan, u32)> = Vec::new();
    for op in ops {
        let width = op.w.min(cap);
        match op.kind {
            // Mostly reservations: they are what grows the segment list.
            0..=4 => {
                let dur = SimSpan::new(op.b);
                let anchor = p.find_anchor(SimTime::new(op.a), dur, width);
                p.reserve(anchor, dur, width);
                live.push((anchor, dur, width));
            }
            // Release the tail of a live reservation (early completion).
            5 | 6 => {
                if live.is_empty() {
                    continue;
                }
                let (start, dur, w) = live.remove((op.a as usize) % live.len());
                let keep = SimSpan::new(op.b % dur.as_secs().max(1));
                p.release(start + keep, dur - keep, w);
                if !keep.is_zero() {
                    live.push((start, keep, w));
                }
            }
            // Trim the past away (creates the implicit free region). Never
            // trim beyond a live reservation's start: its tail may still be
            // released, and releasing into the trimmed-away (implicitly
            // fully free) region would overflow capacity.
            _ => {
                let horizon = live
                    .iter()
                    .map(|&(start, _, _)| start)
                    .min()
                    .unwrap_or(SimTime::new(u64::MAX));
                p.trim_before(SimTime::new(op.a % 10_000).min(horizon));
            }
        }
    }
    p
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// The indexed search, the linear scan, and the naive reference agree
    /// on every anchor over arbitrary mutation histories — the indexed
    /// profile is decision-for-decision identical to the old one.
    #[test]
    fn indexed_linear_and_reference_anchors_agree(
        cap in 1u32..=24,
        ops in proptest::collection::vec(op(), 0..140),
        queries in proptest::collection::vec((0u64..25_000, 1u64..4_000, 1u32..=24), 1..25),
    ) {
        let p = apply_ops(cap, &ops);
        prop_assert!(p.invariants_ok(), "bad profile: {:?}", p.segments());
        for (earliest, dur, width) in queries {
            let width = width.min(cap);
            let earliest = SimTime::new(earliest);
            let dur = SimSpan::new(dur);
            let indexed = p.find_anchor(earliest, dur, width);
            let linear = p.find_anchor_linear(earliest, dur, width);
            prop_assert_eq!(
                indexed,
                linear,
                "indexed vs linear diverged at ({}, {}, {}) over {:?}",
                earliest, dur, width, p.segments()
            );
            let reference = reference_anchor(p.segments(), cap, earliest, dur, width);
            prop_assert_eq!(
                indexed,
                reference,
                "indexed vs reference diverged at ({}, {}, {}) over {:?}",
                earliest, dur, width, p.segments()
            );
        }
    }

    /// Probing never mutates: any sequence of find_anchor calls (either
    /// implementation) leaves the profile silhouette untouched.
    #[test]
    fn anchor_searches_are_pure(
        ops in proptest::collection::vec(op(), 0..100),
        queries in proptest::collection::vec((0u64..25_000, 1u64..4_000, 1u32..=16), 1..15),
    ) {
        let cap = 16;
        let p = apply_ops(cap, &ops);
        let snapshot = p.clone();
        for (earliest, dur, width) in queries {
            p.find_anchor(SimTime::new(earliest), SimSpan::new(dur), width.min(cap));
            p.find_anchor_linear(SimTime::new(earliest), SimSpan::new(dur), width.min(cap));
        }
        prop_assert_eq!(p, snapshot);
    }
}

proptest! {
    // Few cases: each one builds a ~1000-reservation profile.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The same agreement on profiles large enough to leave the indexed
    /// search's small-profile cutoff behind, so the run-index walk and the
    /// block-accelerated in-run scan are the code under test. (The naive
    /// reference is quadratic, so these big cases check indexed against
    /// linear, which the cases above tie to the reference.)
    #[test]
    fn indexed_agrees_with_linear_past_the_small_cutoff(
        seed_ops in proptest::collection::vec(op(), 900..1_000),
        queries in proptest::collection::vec((0u64..40_000, 1u64..6_000, 1u32..=24), 1..40),
    ) {
        // Reserves only: every op grows the segment list, pushing the
        // profile well past the 512-segment cutoff.
        let cap = 24;
        let mut p = Profile::new(cap);
        for op in &seed_ops {
            let dur = SimSpan::new(op.b);
            let anchor = p.find_anchor(SimTime::new(op.a * 3), dur, op.w);
            p.reserve(anchor, dur, op.w);
        }
        prop_assert!(p.invariants_ok(), "bad profile");
        prop_assert!(p.segments().len() > 512, "profile too small to exercise the index");
        for (earliest, dur, width) in queries {
            let earliest = SimTime::new(earliest);
            let dur = SimSpan::new(dur);
            prop_assert_eq!(
                p.find_anchor(earliest, dur, width),
                p.find_anchor_linear(earliest, dur, width),
                "indexed vs linear diverged at ({}, {}, {})",
                earliest, dur, width
            );
        }
    }
}

/// The profile's plain-scan cutoff: at or below this many segments it
/// keeps no segment tree, past it the tree is live.
const SMALL: usize = 64;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Mutation histories that hover around the cutoff, so the tree is
    /// built, synchronized and dropped again and again: the segment count
    /// decides whether an op grows the profile (at or below `SMALL`) or
    /// shrinks it (past `SMALL`). After every op the `fits` answer (memo
    /// miss, then memoized repeat) must equal the anchor definition, the
    /// anchor search must equal the linear scan, and the invariants —
    /// including "tree live exactly past `SMALL`" — must hold.
    #[test]
    fn answers_and_invariants_hold_across_the_small_cutoff(
        ops in proptest::collection::vec(
            (
                (0u8..8, 0u64..40_000, 1u64..1_500, 1u32..=12),
                (0u64..45_000, 1u64..5_000, 1u32..=12),
            ),
            250..400,
        ),
    ) {
        let cap = 12;
        let mut p = Profile::new(cap);
        let mut live: Vec<(SimTime, SimSpan, u32)> = Vec::new();
        let mut crossings = 0;
        for ((kind, a, b, w), (qs, qd, qw)) in ops {
            let below = p.segments().len() <= SMALL;
            let grow = if below { kind < 7 } else { kind < 2 };
            if grow || live.is_empty() {
                let dur = SimSpan::new(b);
                let anchor = p.find_anchor(SimTime::new(a), dur, w);
                p.reserve(anchor, dur, w);
                live.push((anchor, dur, w));
            } else if kind < 6 {
                // Release a whole live reservation, or the tail of one.
                let (start, dur, width) = live.swap_remove(a as usize % live.len());
                let keep = SimSpan::new(if kind % 2 == 0 { 0 } else { b % dur.as_secs() });
                p.release(start + keep, dur - keep, width);
                if !keep.is_zero() {
                    live.push((start, keep, width));
                }
            } else {
                // Trim, never past a live reservation's start (its tail
                // may still be released).
                let horizon = live.iter().map(|&(s, _, _)| s).min().unwrap();
                p.trim_before(SimTime::new(a).min(horizon));
            }
            crossings += (below && p.segments().len() > SMALL) as usize;
            prop_assert!(p.invariants_ok(), "bad profile: {:?}", p.segments());
            let (start, dur) = (SimTime::new(qs), SimSpan::new(qd));
            let anchor = p.find_anchor(start, dur, qw);
            prop_assert_eq!(
                anchor,
                p.find_anchor_linear(start, dur, qw),
                "indexed vs linear diverged at ({}, {}, {}) over {} segments",
                start, dur, qw, p.segments().len()
            );
            for _ in 0..2 {
                prop_assert_eq!(
                    p.fits(start, dur, qw),
                    anchor == start,
                    "fits vs anchor diverged at ({}, {}, {}) over {} segments",
                    start, dur, qw, p.segments().len()
                );
            }
        }
        prop_assert!(crossings > 0, "the history never crossed the cutoff");
    }
}
