//! Property-based tests of the availability profile — the data structure
//! every backfilling decision rests on.

use proptest::prelude::*;
use sched::Profile;
use simcore::{SimSpan, SimTime};

/// A random rectangle that always fits an empty machine of `cap`.
fn rect(cap: u32) -> impl Strategy<Value = (u64, u64, u32)> {
    (0u64..5_000, 1u64..2_000, 1u32..=cap.max(1))
        .prop_map(move |(start, dur, width)| (start, dur, width.min(cap)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Reserving rectangles found by find_anchor never panics and keeps
    /// the structural invariants.
    #[test]
    fn anchored_reservations_always_fit(
        cap in 1u32..64,
        rects in proptest::collection::vec(rect(64), 0..40),
    ) {
        let mut p = Profile::new(cap);
        for (earliest, dur, width) in rects {
            let width = width.min(cap);
            let dur = SimSpan::new(dur);
            let anchor = p.find_anchor(SimTime::new(earliest), dur, width);
            prop_assert!(anchor >= SimTime::new(earliest));
            p.reserve(anchor, dur, width);
            prop_assert!(p.invariants_ok(), "invariants broken: {:?}", p.segments());
        }
    }

    /// find_anchor returns the *earliest* feasible anchor: the rectangle
    /// does not fit at any profile breakpoint in [earliest, anchor).
    #[test]
    fn anchor_is_earliest_breakpoint(
        pre in proptest::collection::vec(rect(16), 0..12),
        earliest in 0u64..4_000,
        dur in 1u64..1_500,
        width in 1u32..=16,
    ) {
        let cap = 16;
        let mut p = Profile::new(cap);
        for (e, d, w) in pre {
            let a = p.find_anchor(SimTime::new(e), SimSpan::new(d), w);
            p.reserve(a, SimSpan::new(d), w);
        }
        let dur = SimSpan::new(dur);
        let anchor = p.find_anchor(SimTime::new(earliest), dur, width);
        // The anchor itself must fit.
        prop_assert!(p.fits(anchor, dur, width));
        // No earlier candidate fits: checking `earliest` and every segment
        // start in (earliest, anchor) covers all distinct profile shapes.
        if anchor > SimTime::new(earliest) {
            prop_assert!(!p.fits(SimTime::new(earliest), dur, width));
            for seg in p.segments() {
                if seg.start > SimTime::new(earliest) && seg.start < anchor {
                    prop_assert!(
                        !p.fits(seg.start, dur, width),
                        "anchor {anchor} not earliest: fits at {}",
                        seg.start
                    );
                }
            }
        }
    }

    /// reserve followed by the exact inverse release restores the profile.
    #[test]
    fn reserve_release_roundtrip(
        pre in proptest::collection::vec(rect(32), 0..10),
        extra in rect(32),
    ) {
        let cap = 32;
        let mut p = Profile::new(cap);
        for (e, d, w) in pre {
            let a = p.find_anchor(SimTime::new(e), SimSpan::new(d), w);
            p.reserve(a, SimSpan::new(d), w);
        }
        let snapshot = p.clone();
        let (e, d, w) = extra;
        let a = p.find_anchor(SimTime::new(e), SimSpan::new(d), w);
        p.reserve(a, SimSpan::new(d), w);
        p.release(a, SimSpan::new(d), w);
        prop_assert_eq!(p, snapshot);
    }

    /// The read-only probe slack-based backfilling uses to ask whether a
    /// queued job could start now: with the job's own `w × est` rectangle
    /// reserved at `s >= now`, lifting it, probing at `now` and putting it
    /// back answers exactly what `fits(now, min(est, s - now), w)` does on
    /// the untouched profile — and neither leaves the profile changed.
    #[test]
    fn own_rectangle_probe_is_a_prefix_fits(
        pre in proptest::collection::vec(rect(16), 0..20),
        now in 0u64..4_000,
        delay in 0u64..3_000,
        est in 1u64..2_000,
        w in 1u32..=16,
    ) {
        let cap = 16;
        let mut p = Profile::new(cap);
        for (e, d, rw) in pre {
            let a = p.find_anchor(SimTime::new(e), SimSpan::new(d), rw);
            p.reserve(a, SimSpan::new(d), rw);
        }
        let (now, est) = (SimTime::new(now), SimSpan::new(est));
        let s = p.find_anchor(now + SimSpan::new(delay), est, w);
        p.reserve(s, est, w);
        let snapshot = p.clone();

        let read_only = p.fits(now, est.min(s.since(now)), w);
        prop_assert_eq!(&p, &snapshot);

        p.release(s, est, w);
        let probed = p.fits(now, est, w);
        p.reserve(s, est, w);
        prop_assert_eq!(&p, &snapshot);
        prop_assert_eq!(read_only, probed, "own rectangle at {}, probe at {}", s, now);
    }

    /// free_at is consistent with the segment representation and never
    /// exceeds capacity.
    #[test]
    fn free_levels_bounded(
        rects in proptest::collection::vec(rect(16), 0..20),
        probes in proptest::collection::vec(0u64..10_000, 0..30),
    ) {
        let cap = 16;
        let mut p = Profile::new(cap);
        for (e, d, w) in rects {
            let a = p.find_anchor(SimTime::new(e), SimSpan::new(d), w);
            p.reserve(a, SimSpan::new(d), w);
        }
        for t in probes {
            let f = p.free_at(SimTime::new(t));
            prop_assert!(f <= cap);
        }
        // Far future: everything released (all rectangles are finite).
        prop_assert_eq!(p.free_at(SimTime::new(u64::MAX / 4)), cap);
    }

    /// trim_before never changes the future of the profile.
    #[test]
    fn trim_preserves_future(
        rects in proptest::collection::vec(rect(16), 0..15),
        cut in 0u64..8_000,
        probes in proptest::collection::vec(0u64..10_000, 1..20),
    ) {
        let cap = 16;
        let mut p = Profile::new(cap);
        for (e, d, w) in rects {
            let a = p.find_anchor(SimTime::new(e), SimSpan::new(d), w);
            p.reserve(a, SimSpan::new(d), w);
        }
        let before = p.clone();
        p.trim_before(SimTime::new(cut));
        prop_assert!(p.invariants_ok());
        for t in probes {
            let t = t.max(cut);
            prop_assert_eq!(p.free_at(SimTime::new(t)), before.free_at(SimTime::new(t)));
        }
    }

    /// Two disjoint-in-time reservations never interact.
    #[test]
    fn disjoint_reservations_commute(
        d1 in 1u64..500, w1 in 1u32..=8,
        d2 in 1u64..500, w2 in 1u32..=8,
        gap in 0u64..100,
    ) {
        let cap = 8;
        let s1 = 0u64;
        let s2 = s1 + d1 + gap;
        let mut a = Profile::new(cap);
        a.reserve(SimTime::new(s1), SimSpan::new(d1), w1);
        a.reserve(SimTime::new(s2), SimSpan::new(d2), w2);
        let mut b = Profile::new(cap);
        b.reserve(SimTime::new(s2), SimSpan::new(d2), w2);
        b.reserve(SimTime::new(s1), SimSpan::new(d1), w1);
        prop_assert_eq!(a, b);
    }
}
