//! The availability profile — the scheduler's "2D chart".
//!
//! The paper describes scheduling as a chart with time on one axis and
//! processors on the other; each job or reservation is a rectangle.
//! [`Profile`] is that chart's free-capacity silhouette: a stepwise
//! function from time to the number of free processors, represented as a
//! sorted list of segments. The final segment extends to infinity.
//!
//! Everything the backfilling schedulers do reduces to three operations:
//!
//! * [`Profile::find_anchor`] — the earliest instant at or after a given
//!   time where a `width × duration` rectangle fits ("where can this job's
//!   reservation go?");
//! * [`Profile::reserve`] — carve the rectangle out;
//! * [`Profile::release`] — put capacity back (cancelled reservation, or
//!   the unused tail of an over-estimated job that finished early).
//!
//! # The segment-tree index
//!
//! `find_anchor` and `fits` dominate every backfilling decision, and a
//! naive scan walks the profile one segment at a time — on a congested
//! profile with a thousand live segments, most queries walk most of it.
//! The profile therefore maintains an augmented segment tree (`SegTree`)
//! over the segment vector: an implicit binary tree whose leaves are the
//! segments and whose every node stores the **minimum and maximum free
//! level** of its span. Three O(log n) descents answer everything the
//! anchor search needs:
//!
//! * *first feasible* — the first segment at or after an index with
//!   `free >= width` (descend where `max >= width`), used to establish
//!   anchor candidates and to leap whole infeasible runs at once;
//! * *first infeasible* — the first segment at or after an index with
//!   `free < width` (descend where `min < width`), used to verify a
//!   candidate window in one probe instead of a segment-by-segment walk;
//! * *range minimum* — the minimum free level over a window, which is the
//!   entire `fits` question.
//!
//! The tree is live only while the profile has more than `SMALL`
//! segments. At or below that size `find_anchor` and the `fits` memo
//! miss path plain-scan the segments (fewer instructions than descents
//! for a handful of segments), so mutations there do no tree work at all
//! and merely leave the tree stale. The first mutation that takes the
//! profile past `SMALL` builds it once (`SegTree::rebuild`); from then on
//! mutations keep it synchronized incrementally: a reserve/release that
//! moves no segment boundary refreshes only the touched leaves and their
//! O(log n) ancestor path (`SegTree::update_range`); one that inserts or
//! removes a boundary re-derives the shifted suffix
//! (`SegTree::resync_from`) — bounded by the O(n) memmove the segment
//! vector itself already paid for.
//!
//! # Contiguous segments
//!
//! The segments live in one time-ordered `Vec<Segment>`, so every lookup
//! (`upper_bound`/`lower_bound` are a `partition_point` over it) and
//! every scan reads consecutive memory with a single load per segment.
//! A structural mutation — `split_at` inserting a boundary, coalescing
//! removing one, `trim_before` dropping the past — is a plain
//! `Vec::insert`/`remove`/`drain` that memmoves the 16-byte segments
//! after it; `order_bytes_shifted` in [`ProfileStats`] records that
//! traffic. The vector's capacity is retained across churn, so a
//! steady-state simulation does not allocate for segments. The segment
//! tree is positional over the vector: leaf `i` aggregates `segs[i]`.
//!
//! [`Profile::find_anchor_linear`] preserves the pre-index plain scan;
//! differential property tests (`tests/profile_differential.rs`) assert
//! the two agree decision-for-decision (against a naive quadratic
//! reference as well), and the `profile_ops` bench compares their cost.
//!
//! # Instrumentation
//!
//! Every profile keeps cheap operation counters ([`ProfileStats`]): anchor
//! probes, segments visited by plain scans, tree descents and nodes
//! touched, incremental-vs-rebuild tree updates, reserve/release counts,
//! compression passes, and the peak segment count. Schedulers expose them
//! via [`crate::Scheduler::profile_stats`] and the driver threads them into
//! the final [`Schedule`](../core) for reports and benches.
//!
//! Invariants (checked by `debug_assert` internally and by property tests):
//! segments are strictly ordered in time, free counts stay within
//! `[0, capacity]`, adjacent segments always differ (coalesced), the tree
//! is live exactly when the profile has more than `SMALL` segments, and a
//! live tree's per-node aggregates equal a from-scratch rebuild.

use serde::{Deserialize, Serialize};
use simcore::{SimSpan, SimTime};
use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU64, Ordering};

/// One step of the free-capacity silhouette: `free` processors are
/// available from `start` until the next segment's start.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Segment {
    /// When this level of availability begins.
    pub start: SimTime,
    /// Free processors over the segment.
    pub free: u32,
}

/// At or below this many segments the profile keeps no segment tree:
/// `find_anchor` and the `fits` memo miss path plain-scan, because a
/// typical query resolves in a handful of segment visits, fewer
/// instructions than two tree descents, and mutations skip the tree
/// upkeep that nothing would read.
const SMALL: usize = 64;

/// Process-wide generation counter for silhouette tokens. Every profile
/// mutation — on any profile, including clones — draws a fresh value, so
/// two distinct silhouettes can never share a generation and a stale
/// `FitsCache` can never be accepted (the old scheme's per-profile
/// `version: u64` could collide across clones in principle).
static GENERATION: AtomicU64 = AtomicU64::new(1);

fn next_generation() -> u64 {
    GENERATION.fetch_add(1, Ordering::Relaxed)
}

/// One segment-tree node: the minimum and maximum free level over the
/// leaves of its span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Node {
    min: u32,
    max: u32,
}

/// Padding value for leaves beyond the real segment count: matches no
/// feasibility predicate (`max >= width` needs `width >= 1`; `min < width`
/// needs `width <= capacity < u32::MAX`), so queries never step off the
/// real profile.
const PAD: Node = Node {
    min: u32::MAX,
    max: 0,
};

/// The augmented segment tree behind [`Profile::find_anchor`] and
/// [`Profile::fits`].
///
/// Implicit array layout: the root is node 1, node `v`'s children are
/// `2v` and `2v + 1`, and leaf `i` (segment `i`) lives at `size + i`
/// where `size` is the smallest power of two ≥ the segment count. Each
/// node aggregates the min/max free level of its leaves; unoccupied
/// leaves hold [`PAD`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct SegTree {
    /// Number of leaves backed by real segments.
    len: usize,
    /// Leaf capacity: smallest power of two ≥ `len` (0 only when empty).
    size: usize,
    /// `2 * size` nodes; index 0 is unused.
    nodes: Vec<Node>,
}

impl SegTree {
    fn leaf(seg: &Segment) -> Node {
        Node {
            min: seg.free,
            max: seg.free,
        }
    }

    fn merge(a: Node, b: Node) -> Node {
        Node {
            min: a.min.min(b.min),
            max: a.max.max(b.max),
        }
    }

    /// Rebuild from scratch: O(size). Leaf `i` aggregates `segs[i]`.
    fn rebuild(&mut self, segs: &[Segment]) {
        self.len = segs.len();
        self.size = segs.len().next_power_of_two();
        self.nodes.clear();
        self.nodes.resize(2 * self.size, PAD);
        for (i, seg) in segs.iter().enumerate() {
            self.nodes[self.size + i] = Self::leaf(seg);
        }
        for v in (1..self.size).rev() {
            self.nodes[v] = Self::merge(self.nodes[2 * v], self.nodes[2 * v + 1]);
        }
    }

    /// Refresh leaves `[first, last)` after a value-only mutation (no
    /// boundary moved), then re-derive their O(log n) ancestor paths.
    fn update_range(&mut self, segs: &[Segment], first: usize, last: usize) {
        debug_assert!(first < last && last <= self.len);
        for (i, seg) in segs[first..last].iter().enumerate() {
            self.nodes[self.size + first + i] = Self::leaf(seg);
        }
        let mut l = self.size + first;
        let mut r = self.size + last - 1;
        while l > 1 {
            l >>= 1;
            r >>= 1;
            for v in l..=r {
                self.nodes[v] = Self::merge(self.nodes[2 * v], self.nodes[2 * v + 1]);
            }
        }
    }

    /// Re-derive leaves `from..` and every ancestor above them, after an
    /// insertion or removal shifted the suffix of the segment vector.
    /// Falls back to a full rebuild when the leaf capacity changed.
    fn resync_from(&mut self, segs: &[Segment], from: usize) {
        let size = segs.len().next_power_of_two();
        if size != self.size {
            self.rebuild(segs);
            return;
        }
        self.len = segs.len();
        for i in from..self.size {
            self.nodes[self.size + i] = segs.get(i).map_or(PAD, Self::leaf);
        }
        let mut l = self.size + from;
        let mut r = 2 * self.size - 1;
        while l > 1 {
            l >>= 1;
            r >>= 1;
            for v in l..=r {
                self.nodes[v] = Self::merge(self.nodes[2 * v], self.nodes[2 * v + 1]);
            }
        }
    }

    /// First leaf `>= from` with `free >= width` — the next segment a
    /// `width`-wide rectangle could anchor in.
    fn first_at_least(&self, from: usize, width: u32, nodes: &mut u64) -> Option<usize> {
        self.first_leaf(from, |n| n.max >= width, nodes)
    }

    /// First leaf `>= from` with `free < width` — the next segment that
    /// blocks a `width`-wide rectangle.
    fn first_below(&self, from: usize, width: u32, nodes: &mut u64) -> Option<usize> {
        self.first_leaf(from, |n| n.min < width, nodes)
    }

    /// One O(log n) descent: the first leaf at or after `from` whose
    /// aggregate satisfies `pred`. Climbs right from the starting leaf,
    /// probing each next-subtree-to-the-right until one can contain a
    /// match, then descends to its leftmost matching leaf.
    fn first_leaf(
        &self,
        from: usize,
        pred: impl Fn(&Node) -> bool,
        count: &mut u64,
    ) -> Option<usize> {
        if from >= self.len {
            return None;
        }
        let mut v = self.size + from;
        *count += 1;
        if pred(&self.nodes[v]) {
            return Some(from);
        }
        loop {
            // Climb while `v` is a right child; from a left child the next
            // unexplored span is exactly the right sibling's subtree.
            while v & 1 == 1 {
                v >>= 1;
            }
            if v == 0 {
                return None; // climbed past the root: nothing matches
            }
            v += 1;
            *count += 1;
            if !pred(&self.nodes[v]) {
                continue;
            }
            // An aggregate match guarantees a matching leaf below; PAD
            // leaves never match, so the leaf found is always real.
            while v < self.size {
                v <<= 1;
                *count += 1;
                if !pred(&self.nodes[v]) {
                    v += 1;
                }
            }
            return Some(v - self.size);
        }
    }

    /// Minimum free level over leaves `[l, r)` (MAX when empty).
    fn range_min(&self, l: usize, r: usize, count: &mut u64) -> u32 {
        let mut min = u32::MAX;
        let mut l = self.size + l;
        let mut r = self.size + r.min(self.len);
        while l < r {
            if l & 1 == 1 {
                *count += 1;
                min = min.min(self.nodes[l].min);
                l += 1;
            }
            if r & 1 == 1 {
                r -= 1;
                *count += 1;
                min = min.min(self.nodes[r].min);
            }
            l >>= 1;
            r >>= 1;
        }
        min
    }
}

/// Memoized prefix minima for left-edge-pinned fit queries.
///
/// Backfill and compression passes ask [`Profile::fits`] the same-shaped
/// question hundreds of times per event — "does a rectangle starting at
/// `now` fit?". Two regimes matter:
///
/// * between mutations (a backfill scan rejecting candidate after
///   candidate) the profile is frozen, so for one `(silhouette, from)`
///   pair the answer is a pure lookup: `min_free[j]` is the minimum free
///   capacity over `[from, ends[j])`, and a rectangle fits iff the prefix
///   minimum covering `from + duration` is at least `width`;
/// * across mutations (a compression pass that moves a job and re-probes)
///   every memoized answer is dead on arrival, so rebuilding the O(n)
///   prefix table per probe is pure waste — those probes are answered by
///   one O(log n) tree descent instead (a plain window scan at or below
///   `SMALL` segments), and the table is rebuilt only
///   once a second probe arrives against the *same* generation and left
///   edge (proof the profile has gone quiet).
///
/// Validity is keyed on the profile's process-globally-unique generation
/// token, so a cache carried along by [`Profile::clone`] can never be
/// mistaken for current after either copy mutates; debug builds
/// additionally pin a silhouette checksum and assert it on every hit.
#[derive(Debug, Clone, Default)]
struct FitsCache {
    /// Generation the entries were computed against.
    generation: u64,
    /// Query left edge the prefix minima are anchored at.
    from: SimTime,
    /// Silhouette checksum at rebuild (debug builds only; 0 in release),
    /// asserted on every hit: a stale cache must be impossible, not just
    /// unlikely.
    checksum: u64,
    /// Generation/left-edge of the last tree-answered miss; a repeat
    /// triggers the memoizing rebuild.
    miss_generation: u64,
    miss_from: SimTime,
    /// Exclusive end of each prefix window, strictly increasing; the last
    /// entry is `SimTime::FAR_FUTURE` (the final segment never ends).
    ends: Vec<SimTime>,
    /// `min_free[j]` = minimum free capacity over `[from, ends[j])`.
    min_free: Vec<u32>,
}

impl FitsCache {
    /// Recompute the prefix minima for `profile` anchored at `from`.
    fn rebuild(&mut self, profile: &Profile, from: SimTime) {
        self.generation = profile.generation;
        self.from = from;
        self.checksum = if cfg!(debug_assertions) {
            profile.silhouette_checksum()
        } else {
            0
        };
        self.ends.clear();
        self.min_free.clear();
        // First segment starting strictly after `from`; the region before
        // it (a real segment or the implicit fully-free prefix) is where
        // the query window opens.
        let i0 = profile.upper_bound(from);
        let mut min = if i0 == 0 {
            profile.capacity
        } else {
            profile.segs[i0 - 1].free
        };
        for seg in &profile.segs[i0..] {
            self.ends.push(seg.start);
            self.min_free.push(min);
            min = min.min(seg.free);
        }
        self.ends.push(SimTime::FAR_FUTURE);
        self.min_free.push(min);
    }

    /// Minimum free capacity over `[from, end)`.
    fn min_free_until(&self, end: SimTime) -> u32 {
        let j = self.ends.partition_point(|&e| e < end);
        self.min_free[j.min(self.min_free.len() - 1)]
    }

    /// Whether a `width`-wide rectangle over `[from, end)` fits. The
    /// prefix minima are non-increasing, so the extreme entries bound
    /// every answer: a probe wider than the first window's minimum fails
    /// for *any* end, one no wider than the full-horizon minimum fits for
    /// any end. Both are O(1), and in a saturated system (free capacity
    /// at `from` near zero) almost every compression probe dies on the
    /// first compare — the binary search runs only for the sliver of
    /// probes whose answer actually depends on `end`.
    fn admits(&self, end: SimTime, width: u32) -> bool {
        if self.min_free[0] < width {
            return false;
        }
        if self.min_free[self.min_free.len() - 1] >= width {
            return true;
        }
        self.min_free_until(end) >= width
    }
}

/// Operation counters of one [`Profile`] (or aggregated over several — see
/// [`ProfileStats::absorb`]). All counts are cumulative since creation.
///
/// `serde(default)` keeps old serialized reports (e.g. `--baseline`
/// files written before a counter existed) readable: missing counters
/// deserialize as zero.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
#[serde(default)]
pub struct ProfileStats {
    /// Calls to [`Profile::find_anchor`] (including via `fits`).
    pub find_anchor_calls: u64,
    /// Segments examined one-by-one by plain (small-profile) scans: the
    /// `find_anchor` scan and the `fits` memo-miss window scan.
    pub segments_visited: u64,
    /// O(log n) segment-tree descents (anchor establishment, window
    /// verification, `fits` range probes).
    pub tree_descents: u64,
    /// Tree nodes touched across all descents; divided by
    /// `tree_descents` this is the realized descent depth.
    pub tree_nodes_visited: u64,
    /// Mutations absorbed by leaf + ancestor-path updates (no segment
    /// boundary moved).
    pub tree_incremental_updates: u64,
    /// Mutations that re-derived a suffix of the live tree (or all of
    /// it): boundary inserted/removed, or the past trimmed away — plus the
    /// single build each time the profile grows past `SMALL` segments.
    /// Mutations at or below `SMALL` segments do no tree work and count
    /// in neither this nor `tree_incremental_updates`.
    pub tree_rebuilds: u64,
    /// Calls to [`Profile::reserve`] that changed the profile.
    pub reserves: u64,
    /// Calls to [`Profile::release`] that changed the profile.
    pub releases: u64,
    /// Compression passes noted by the owning scheduler
    /// (see [`Profile::note_compress_pass`]).
    pub compress_passes: u64,
    /// Largest segment count the profile ever reached.
    pub peak_segments: u64,
    /// Queued jobs placed by incremental binary-search insertion instead
    /// of being re-sorted into place (static-key policies).
    pub queue_inserts: u64,
    /// Full queue sorts actually performed (time-dependent policies such
    /// as XFactor re-key and sort once per event).
    pub queue_sorts: u64,
    /// Per-event queue sorts skipped because the incremental order was
    /// already correct (static-key policies never re-sort).
    pub queue_sorts_avoided: u64,
    /// Running-set profile rebuilds performed from scratch.
    pub profile_rebuilds: u64,
    /// Running-set profile rebuilds served from the incrementally
    /// maintained cache instead of being rebuilt.
    pub profile_rebuilds_avoided: u64,
    /// `fits` queries answered from the memoized prefix minima.
    pub fits_cache_hits: u64,
    /// `fits` queries the memo could not answer (profile mutated or the
    /// query's left edge moved); answered by a tree descent (a window
    /// scan at or below `SMALL` segments), or by the memoizing rebuild on
    /// a repeat.
    pub fits_cache_misses: u64,
    /// Bytes of `Segment` memmoved by structural mutations (boundary
    /// inserts/removes, trims): 16 bytes per segment shifted.
    pub order_bytes_shifted: u64,
    /// Scheduler scratch buffers reused across events instead of being
    /// freshly allocated (see [`Profile::note_scratch_reuse`]).
    pub scratch_reuses: u64,
}

impl ProfileStats {
    /// Merge another profile's counters into this one: counts add, the
    /// peak takes the maximum.
    pub fn absorb(&mut self, other: &ProfileStats) {
        self.find_anchor_calls += other.find_anchor_calls;
        self.segments_visited += other.segments_visited;
        self.tree_descents += other.tree_descents;
        self.tree_nodes_visited += other.tree_nodes_visited;
        self.tree_incremental_updates += other.tree_incremental_updates;
        self.tree_rebuilds += other.tree_rebuilds;
        self.reserves += other.reserves;
        self.releases += other.releases;
        self.compress_passes += other.compress_passes;
        self.peak_segments = self.peak_segments.max(other.peak_segments);
        self.queue_inserts += other.queue_inserts;
        self.queue_sorts += other.queue_sorts;
        self.queue_sorts_avoided += other.queue_sorts_avoided;
        self.profile_rebuilds += other.profile_rebuilds;
        self.profile_rebuilds_avoided += other.profile_rebuilds_avoided;
        self.fits_cache_hits += other.fits_cache_hits;
        self.fits_cache_misses += other.fits_cache_misses;
        self.order_bytes_shifted += other.order_bytes_shifted;
        self.scratch_reuses += other.scratch_reuses;
    }

    /// Mean segments examined per anchor search or `fits` query (0 if
    /// none ran). Counts only plain-scan visits — `find_anchor` scans and
    /// `fits` memo-miss window scans at or below `SMALL` segments: past
    /// the cutoff the tree answers in node touches, tracked by
    /// [`ProfileStats::nodes_per_descent`].
    pub fn segments_per_anchor(&self) -> f64 {
        if self.find_anchor_calls == 0 {
            0.0
        } else {
            self.segments_visited as f64 / self.find_anchor_calls as f64
        }
    }

    /// Mean tree nodes touched per descent (0 if none ran) — the
    /// realized O(log n).
    pub fn nodes_per_descent(&self) -> f64 {
        if self.tree_descents == 0 {
            0.0
        } else {
            self.tree_nodes_visited as f64 / self.tree_descents as f64
        }
    }
}

/// Interior-mutable counters: `find_anchor` takes `&self`, so the probe
/// counters live in `Cell`s. Excluded from `PartialEq` — two profiles with
/// the same silhouette are equal regardless of how they were probed.
#[derive(Debug, Clone, Default)]
struct Counters {
    find_anchor_calls: Cell<u64>,
    segments_visited: Cell<u64>,
    tree_descents: Cell<u64>,
    tree_nodes_visited: Cell<u64>,
    tree_incremental_updates: Cell<u64>,
    tree_rebuilds: Cell<u64>,
    reserves: Cell<u64>,
    releases: Cell<u64>,
    compress_passes: Cell<u64>,
    peak_segments: Cell<u64>,
    queue_inserts: Cell<u64>,
    queue_sorts: Cell<u64>,
    queue_sorts_avoided: Cell<u64>,
    fits_cache_hits: Cell<u64>,
    fits_cache_misses: Cell<u64>,
    order_bytes_shifted: Cell<u64>,
    scratch_reuses: Cell<u64>,
}

fn bump(cell: &Cell<u64>, by: u64) {
    cell.set(cell.get() + by);
}

/// The free-capacity timeline of a machine, including running jobs and any
/// future reservations the scheduler maintains.
///
/// ```
/// use sched::Profile;
/// use simcore::{SimSpan, SimTime};
///
/// let mut p = Profile::new(8);
/// // A 6-wide job runs for 100 s starting now.
/// p.reserve(SimTime::ZERO, SimSpan::new(100), 6);
/// // Earliest slot for an 8-wide, 50 s job: after the running job.
/// assert_eq!(p.find_anchor(SimTime::ZERO, SimSpan::new(50), 8), SimTime::new(100));
/// // A 2-wide job backfills immediately alongside it.
/// assert_eq!(p.find_anchor(SimTime::ZERO, SimSpan::new(50), 2), SimTime::ZERO);
/// ```
#[derive(Debug, Clone)]
pub struct Profile {
    capacity: u32,
    /// The silhouette: segments sorted by start, strictly increasing,
    /// values coalesced. Non-empty: the last segment extends to infinity.
    segs: Vec<Segment>,
    /// Min/max-augmented segment tree, positional over `segs`. Read and
    /// kept synchronized only while `tree_live`; stale otherwise.
    tree: SegTree,
    /// Whether `tree` is in sync with `segs` — true exactly while the
    /// profile has more than `SMALL` segments (between mutations).
    tree_live: bool,
    /// Process-globally-unique silhouette token, refreshed from
    /// [`GENERATION`] on every mutation; validates `fits_cache`.
    generation: u64,
    fits_cache: RefCell<FitsCache>,
    stats: Counters,
}

impl PartialEq for Profile {
    fn eq(&self, other: &Self) -> bool {
        // The tree (live or stale) and the counters are representation:
        // the silhouette alone defines identity.
        self.capacity == other.capacity && self.segs == other.segs
    }
}

impl Eq for Profile {}

impl Profile {
    /// A fully free machine with `capacity` processors. Panics if zero.
    pub fn new(capacity: u32) -> Self {
        assert!(capacity > 0, "profile needs positive capacity");
        let p = Profile {
            capacity,
            segs: vec![Segment {
                start: SimTime::ZERO,
                free: capacity,
            }],
            tree: SegTree::default(),
            tree_live: false,
            generation: next_generation(),
            fits_cache: RefCell::new(FitsCache::default()),
            stats: Counters::default(),
        };
        p.stats.peak_segments.set(1);
        p
    }

    /// The machine's total processor count.
    pub fn capacity(&self) -> u32 {
        self.capacity
    }

    /// The segments in time order.
    pub fn segments(&self) -> &[Segment] {
        &self.segs
    }

    /// Position of the first segment with `start > t`.
    #[inline]
    fn upper_bound(&self, t: SimTime) -> usize {
        self.segs.partition_point(|s| s.start <= t)
    }

    /// Position of the first segment with `start >= t`.
    #[inline]
    fn lower_bound(&self, t: SimTime) -> usize {
        self.segs.partition_point(|s| s.start < t)
    }

    /// Snapshot of the operation counters.
    pub fn stats(&self) -> ProfileStats {
        ProfileStats {
            find_anchor_calls: self.stats.find_anchor_calls.get(),
            segments_visited: self.stats.segments_visited.get(),
            tree_descents: self.stats.tree_descents.get(),
            tree_nodes_visited: self.stats.tree_nodes_visited.get(),
            tree_incremental_updates: self.stats.tree_incremental_updates.get(),
            tree_rebuilds: self.stats.tree_rebuilds.get(),
            reserves: self.stats.reserves.get(),
            releases: self.stats.releases.get(),
            compress_passes: self.stats.compress_passes.get(),
            peak_segments: self.stats.peak_segments.get(),
            queue_inserts: self.stats.queue_inserts.get(),
            queue_sorts: self.stats.queue_sorts.get(),
            queue_sorts_avoided: self.stats.queue_sorts_avoided.get(),
            profile_rebuilds: 0,
            profile_rebuilds_avoided: 0,
            fits_cache_hits: self.stats.fits_cache_hits.get(),
            fits_cache_misses: self.stats.fits_cache_misses.get(),
            order_bytes_shifted: self.stats.order_bytes_shifted.get(),
            scratch_reuses: self.stats.scratch_reuses.get(),
        }
    }

    /// Record one compression pass by the owning scheduler. The pass itself
    /// happens at the scheduler level; the counter lives here so a single
    /// [`ProfileStats`] carries the whole hot-path story.
    pub fn note_compress_pass(&self) {
        bump(&self.stats.compress_passes, 1);
    }

    /// Record queue-order maintenance work by the owning scheduler: jobs
    /// placed by incremental insertion, full sorts performed, and sorts
    /// skipped because the maintained order was already correct. Like
    /// [`Profile::note_compress_pass`], the events happen at the scheduler
    /// level; the counters live here so one [`ProfileStats`] carries the
    /// whole hot-path story.
    pub fn note_queue_ops(&self, inserts: u64, sorts: u64, sorts_avoided: u64) {
        bump(&self.stats.queue_inserts, inserts);
        bump(&self.stats.queue_sorts, sorts);
        bump(&self.stats.queue_sorts_avoided, sorts_avoided);
    }

    /// Record one scheduler scratch-buffer reuse: a hot-loop pass (a
    /// compression sweep, the EASY backfill scan) that filled a retained
    /// buffer instead of allocating a fresh one. Like
    /// [`Profile::note_compress_pass`], the event happens at the
    /// scheduler level; the counter lives here so one [`ProfileStats`]
    /// carries the whole hot-path story.
    pub fn note_scratch_reuse(&self) {
        bump(&self.stats.scratch_reuses, 1);
    }

    /// FNV-1a over the silhouette (capacity + every boundary/level pair).
    /// Debug builds pin this into the `FitsCache` and assert it on every
    /// hit, so an incorrectly accepted stale cache fails loudly instead of
    /// silently corrupting decisions.
    fn silhouette_checksum(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |x: u64| {
            h ^= x;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        };
        mix(self.capacity as u64);
        for s in &self.segs {
            mix(s.start.as_secs());
            mix(s.free as u64);
        }
        h
    }

    /// Free processors at instant `t`.
    pub fn free_at(&self, t: SimTime) -> u32 {
        // Position of the last segment with start <= t.
        let idx = self.upper_bound(t);
        if idx == 0 {
            // Before all segments: the profile began fully free.
            self.capacity
        } else {
            self.segs[idx - 1].free
        }
    }

    /// True if a `width × duration` rectangle fits with its left edge
    /// exactly at `start` — equivalently, whether the minimum free
    /// capacity over `[start, start + duration)` is at least `width`.
    ///
    /// Between mutations, answers come from the `FitsCache` prefix
    /// minima: one binary search per query. Immediately after a mutation
    /// the memo is dead, and the first probe is answered by one O(log n)
    /// tree descent (a plain scan of the query window at or below `SMALL`
    /// segments) instead of an O(n) rebuild — a compression pass that
    /// mutates between probes never rebuilds the memo at all, while a
    /// stable backfill scan re-memoizes on its second probe.
    pub fn fits(&self, start: SimTime, duration: SimSpan, width: u32) -> bool {
        self.assert_possible(width);
        if duration.is_zero() || width == 0 {
            return true;
        }
        bump(&self.stats.find_anchor_calls, 1);
        let end = start + duration;
        let mut cache = self.fits_cache.borrow_mut();
        if cache.generation == self.generation && cache.from == start {
            debug_assert_eq!(
                cache.checksum,
                self.silhouette_checksum(),
                "stale fits cache accepted: generation token collision"
            );
            bump(&self.stats.fits_cache_hits, 1);
            return cache.admits(end, width);
        }
        bump(&self.stats.fits_cache_misses, 1);
        if cache.miss_generation == self.generation && cache.miss_from == start {
            // Second probe against an unchanged (silhouette, left edge):
            // the profile has gone quiet, so memoizing pays off now.
            cache.rebuild(self, start);
            return cache.admits(end, width);
        }
        cache.miss_generation = self.generation;
        cache.miss_from = start;
        self.fits_uncached(start, end, width)
    }

    /// The `fits` question answered without the memo: the segment hosting
    /// `start` (or the implicit free prefix) must be feasible, and so must
    /// every segment opening inside `(start, end)`. Past `SMALL` segments
    /// their minimum comes from two binary searches plus one range-min
    /// descent; at or below it, from a plain scan of the window.
    fn fits_uncached(&self, start: SimTime, end: SimTime, width: u32) -> bool {
        let i0 = self.upper_bound(start);
        let host_free = if i0 == 0 {
            self.capacity
        } else {
            self.segs[i0 - 1].free
        };
        if self.tree_live {
            let mut nodes = 0u64;
            let ok = host_free >= width && {
                let j = self.lower_bound(end);
                i0 >= j || self.tree.range_min(i0, j, &mut nodes) >= width
            };
            bump(&self.stats.tree_descents, 1);
            bump(&self.stats.tree_nodes_visited, nodes);
            ok
        } else {
            let mut visited = 0u64;
            let ok = host_free >= width
                && self.segs[i0..]
                    .iter()
                    .take_while(|seg| seg.start < end)
                    .all(|seg| {
                        visited += 1;
                        seg.free >= width
                    });
            bump(&self.stats.segments_visited, visited);
            ok
        }
    }

    fn assert_possible(&self, width: u32) {
        assert!(
            width <= self.capacity,
            "width {width} exceeds capacity {}",
            self.capacity
        );
        let last_free = self.segs[self.segs.len() - 1].free;
        assert!(
            width <= last_free,
            "width {width} never fits: final free level is {last_free}"
        );
    }

    /// The earliest instant `t >= earliest` where a `width × duration`
    /// rectangle fits. Always terminates because the profile eventually
    /// returns to an (infinitely long) final segment.
    ///
    /// Past the `SMALL` cutoff the search runs on the segment tree:
    /// one descent finds the next feasible anchor host, one descent
    /// verifies the whole candidate window (or names the segment that
    /// blocks it), so each candidate costs O(log n) instead of a walk.
    ///
    /// Panics if `width > capacity` or the final segment has fewer than
    /// `width` free processors (a rectangle that could never fit).
    pub fn find_anchor(&self, earliest: SimTime, duration: SimSpan, width: u32) -> SimTime {
        self.assert_possible(width);
        if duration.is_zero() || width == 0 {
            return earliest;
        }

        // Probe counts accumulate in locals and hit the `Cell`s once per
        // call: the interior-mutability bookkeeping must stay off the scan
        // itself, which is the hottest loop in the simulator.
        let anchor = if !self.tree_live {
            let mut visited = 0u64;
            let anchor = self.scan_plain(earliest, duration, width, &mut visited);
            bump(&self.stats.segments_visited, visited);
            anchor
        } else {
            let mut descents = 0u64;
            let mut nodes = 0u64;
            let anchor =
                self.find_anchor_tree(earliest, duration, width, &mut descents, &mut nodes);
            bump(&self.stats.tree_descents, descents);
            bump(&self.stats.tree_nodes_visited, nodes);
            anchor
        };
        bump(&self.stats.find_anchor_calls, 1);
        anchor
    }

    /// The tree-indexed search behind [`find_anchor`](Profile::find_anchor).
    ///
    /// Invariant maintained throughout: `anchor` is feasible up to (not
    /// including) segment `check` — the host segment holding `anchor` has
    /// `free >= width`, as does everything between it and `check`. Each
    /// loop iteration answers "which segment blocks the window first?"
    /// with a single descent; a blockage moves the anchor to the start of
    /// the first feasible segment past the whole infeasible run (a second
    /// descent), which is exactly where the linear scan would next settle.
    fn find_anchor_tree(
        &self,
        earliest: SimTime,
        duration: SimSpan,
        width: u32,
        descents: &mut u64,
        nodes: &mut u64,
    ) -> SimTime {
        let first_start = self.segs[0].start;
        let mut anchor = earliest;
        // The region before the first boundary is implicitly fully free
        // (it only exists after trim_before); a rectangle fitting entirely
        // inside it anchors immediately. One that spills into the first
        // segment starts its verification at segment 0: the implicit
        // region itself never blocks.
        if anchor < first_start && anchor + duration <= first_start {
            return anchor;
        }
        let mut check = if anchor < first_start {
            0
        } else {
            let host = self.upper_bound(anchor) - 1;
            if self.segs[host].free >= width {
                host + 1
            } else {
                // The requested instant is blocked: the earliest possible
                // anchor is the next feasible segment's start.
                *descents += 1;
                let idx = self
                    .tree
                    .first_at_least(host + 1, width, nodes)
                    .expect("final segment narrower than asserted");
                anchor = self.segs[idx].start;
                idx + 1
            }
        };
        loop {
            *descents += 1;
            match self.tree.first_below(check, width, nodes) {
                // The first blocking segment opens inside the candidate
                // window: every instant in [anchor, end-of-blockage) dies
                // on it, so restart at the first feasible segment past
                // the infeasible run.
                Some(k) if self.segs[k].start < anchor + duration => {
                    *descents += 1;
                    let idx = self
                        .tree
                        .first_at_least(k + 1, width, nodes)
                        .expect("final segment narrower than asserted");
                    anchor = self.segs[idx].start;
                    check = idx + 1;
                }
                // No blockage before the window closes: the rectangle fits.
                _ => return anchor,
            }
        }
    }

    /// The small-profile scan: the plain linear algorithm plus visit
    /// counting, with no tree arithmetic on the hot path.
    fn scan_plain(
        &self,
        earliest: SimTime,
        duration: SimSpan,
        width: u32,
        visited: &mut u64,
    ) -> SimTime {
        let mut anchor = earliest;
        let first_start = self.segs[0].start;
        if anchor < first_start && anchor + duration <= first_start {
            return anchor;
        }
        let mut idx = self.upper_bound(anchor).saturating_sub(1);
        loop {
            *visited += 1;
            let seg = self.segs[idx];
            let seg_end = if idx + 1 < self.segs.len() {
                self.segs[idx + 1].start
            } else {
                // The final segment is infinite; asserted wide enough.
                if seg.free >= width {
                    return anchor;
                }
                unreachable!("final segment narrower than asserted");
            };
            if seg.free >= width {
                if seg_end >= anchor + duration {
                    return anchor;
                }
            } else {
                anchor = seg_end;
            }
            idx += 1;
        }
    }

    /// The pre-index linear anchor scan, kept verbatim as a reference:
    /// the differential property test asserts it agrees with
    /// [`find_anchor`](Profile::find_anchor) decision-for-decision, and the
    /// `profile_ops` bench measures what the tree buys. Maintains the same
    /// panics; does not update the probe counters.
    pub fn find_anchor_linear(&self, earliest: SimTime, duration: SimSpan, width: u32) -> SimTime {
        self.assert_possible(width);
        if duration.is_zero() || width == 0 {
            return earliest;
        }

        let mut anchor = earliest;
        let first_start = self.segs[0].start;
        if anchor < first_start && anchor + duration <= first_start {
            return anchor;
        }

        // Scan from the segment containing (or first after) the anchor.
        // Invariant on entry to each iteration: free >= width over
        // [anchor, seg.start) — either empty, the implicit free region, or
        // previously verified segments.
        let mut idx = self.upper_bound(anchor).saturating_sub(1);
        loop {
            let seg = self.segs[idx];
            let seg_end = if idx + 1 < self.segs.len() {
                self.segs[idx + 1].start
            } else {
                // The final segment is infinite; asserted wide enough above.
                if seg.free >= width {
                    return anchor;
                }
                unreachable!("final segment narrower than asserted");
            };
            if seg.free >= width {
                if seg_end >= anchor + duration {
                    return anchor;
                }
            } else {
                // Blocked: restart the anchor at the end of this segment.
                anchor = seg_end;
            }
            idx += 1;
        }
    }

    /// Charge a memmove of `segments` whole segments to the bytes-shifted
    /// gauge.
    fn note_shift(&self, segments: usize) {
        let bytes = segments * std::mem::size_of::<Segment>();
        bump(&self.stats.order_bytes_shifted, bytes as u64);
    }

    /// Insert `seg` at position `pos`, shifting the suffix.
    fn insert_seg(&mut self, pos: usize, seg: Segment) {
        self.note_shift(self.segs.len() - pos);
        self.segs.insert(pos, seg);
    }

    /// Remove the segment at position `pos`, shifting the suffix.
    fn remove_seg(&mut self, pos: usize) {
        self.note_shift(self.segs.len() - pos - 1);
        self.segs.remove(pos);
    }

    /// Position of the segment containing `t`, splitting a segment
    /// at `t` if needed so a boundary exists exactly at `t`. The flag
    /// reports whether a boundary was inserted (a structural change the
    /// tree cannot absorb with a value-only update).
    fn split_at(&mut self, t: SimTime) -> (usize, bool) {
        let pos = self.upper_bound(t);
        if pos == 0 {
            // t precedes the whole profile (possible after trim_before):
            // the region before the first segment is implicitly fully free.
            if self.segs[0].free == self.capacity {
                // A fully-free segment already opens the profile: moving
                // its boundary left to `t` is the same silhouette, and
                // inserting instead would create an adjacent-equal pair
                // in the middle of the mutation range, where boundary
                // coalescing would never look.
                self.segs[0].start = t;
                return (0, false);
            }
            self.insert_seg(
                0,
                Segment {
                    start: t,
                    free: self.capacity,
                },
            );
            return (0, true);
        }
        let prev = self.segs[pos - 1];
        if prev.start == t {
            (pos - 1, false)
        } else {
            self.insert_seg(
                pos,
                Segment {
                    start: t,
                    free: prev.free,
                },
            );
            (pos, true)
        }
    }

    /// Re-coalesce after a range update. Segments inside the range all
    /// moved by the same delta, so previously distinct neighbours stay
    /// distinct: only the two boundary pairs — `(first - 1, first)` and
    /// `(last - 1, last)` — can newly coincide. Checks exactly those,
    /// removing the later segment of an equal pair (keeping the earlier
    /// start, as a full `dedup` would). Returns true when anything was
    /// removed (a structural change for the tree).
    fn coalesce_boundaries(&mut self, first: usize, last: usize) -> bool {
        let mut removed = false;
        if last < self.segs.len() && self.segs[last - 1].free == self.segs[last].free {
            self.remove_seg(last);
            removed = true;
        }
        if first > 0 && self.segs[first - 1].free == self.segs[first].free {
            self.remove_seg(first);
            removed = true;
        }
        removed
    }

    /// Post-mutation bookkeeping: fresh generation token (invalidating
    /// the fits memo), tree upkeep and the peak gauge. At or below `SMALL`
    /// segments the tree goes stale; crossing above it builds the tree
    /// once; above it the live tree is synchronized — incrementally when
    /// no segment boundary moved, by suffix re-derivation otherwise.
    fn after_mutation(&mut self, first: usize, last: usize, structural: bool) {
        self.generation = next_generation();
        if self.segs.len() <= SMALL {
            self.tree_live = false;
        } else if !self.tree_live {
            self.rebuild_tree();
        } else if structural {
            self.tree.resync_from(&self.segs, first);
            bump(&self.stats.tree_rebuilds, 1);
        } else {
            self.tree.update_range(&self.segs, first, last);
            bump(&self.stats.tree_incremental_updates, 1);
        }
        let peak = self.stats.peak_segments.get().max(self.segs.len() as u64);
        self.stats.peak_segments.set(peak);
        debug_assert!(self.invariants_ok());
    }

    /// Subtract `width` processors over `[start, start + duration)`.
    ///
    /// Panics if that would drive any segment negative — callers must place
    /// rectangles with [`find_anchor`]/[`fits`] first (a violation is a
    /// scheduler bug, not an operational condition).
    ///
    /// [`find_anchor`]: Profile::find_anchor
    /// [`fits`]: Profile::fits
    pub fn reserve(&mut self, start: SimTime, duration: SimSpan, width: u32) {
        if duration.is_zero() || width == 0 {
            return;
        }
        bump(&self.stats.reserves, 1);
        let end = start + duration;
        let (first, ins_a) = self.split_at(start);
        let (last, ins_b) = self.split_at(end); // affected segs are first..last
        for seg in &mut self.segs[first..last] {
            assert!(
                seg.free >= width,
                "reservation of {width} at {} underflows segment at {} (free {})",
                start,
                seg.start,
                seg.free
            );
            seg.free -= width;
        }
        let removed = self.coalesce_boundaries(first, last);
        self.after_mutation(first, last, ins_a || ins_b || removed);
    }

    /// Add `width` processors back over `[start, start + duration)` —
    /// the inverse of [`reserve`](Profile::reserve).
    ///
    /// Panics if that would push any segment above capacity (releasing
    /// something that was never reserved).
    pub fn release(&mut self, start: SimTime, duration: SimSpan, width: u32) {
        if duration.is_zero() || width == 0 {
            return;
        }
        bump(&self.stats.releases, 1);
        let end = start + duration;
        let (first, ins_a) = self.split_at(start);
        let (last, ins_b) = self.split_at(end);
        for seg in &mut self.segs[first..last] {
            assert!(
                seg.free + width <= self.capacity,
                "release of {width} at {} overflows segment at {} (free {}, capacity {})",
                start,
                seg.start,
                seg.free,
                self.capacity
            );
            seg.free += width;
        }
        let removed = self.coalesce_boundaries(first, last);
        self.after_mutation(first, last, ins_a || ins_b || removed);
    }

    /// True iff `self` and `other` describe the same free-capacity step
    /// function over `[from, ∞)`. Segment *boundaries* may differ (a
    /// differently trimmed past, a redundant boundary below `from`); only
    /// the silhouette the anchor search actually sees matters. This is the
    /// equivalence the cached-running-profile schedulers rely on: their
    /// incrementally maintained profile is `same_future` with a scratch
    /// rebuild at every event (asserted in debug builds), which makes every
    /// `find_anchor`/`fits` answer — and hence every scheduling decision —
    /// identical.
    pub fn same_future(&self, other: &Profile, from: SimTime) -> bool {
        if self.capacity != other.capacity {
            return false;
        }
        // Two step functions are equal over [from, ∞) iff they agree at
        // `from` and at every boundary of either that lies beyond it.
        let boundaries = self
            .segs
            .iter()
            .chain(&other.segs)
            .map(|s| s.start)
            .filter(|&s| s > from);
        std::iter::once(from)
            .chain(boundaries)
            .all(|t| self.free_at(t) == other.free_at(t))
    }

    /// Drop segment boundaries strictly before `now` (they can never matter
    /// again), keeping the level at `now` intact. Bounds memory on long runs.
    pub fn trim_before(&mut self, now: SimTime) {
        let idx = self.upper_bound(now);
        if idx > 1 {
            self.note_shift(self.segs.len() - (idx - 1));
            self.segs.drain(..idx - 1);
            self.generation = next_generation();
            if self.segs.len() <= SMALL {
                self.tree_live = false;
            } else {
                self.rebuild_tree();
            }
        }
        debug_assert!(self.invariants_ok());
    }

    /// Build the tree from scratch over the current segments and mark it
    /// live.
    fn rebuild_tree(&mut self) {
        self.tree.rebuild(&self.segs);
        self.tree_live = true;
        bump(&self.stats.tree_rebuilds, 1);
    }

    /// Check structural invariants (used by tests; internal operations
    /// `debug_assert` it): segment ordering/coalescing/bounds, the tree
    /// being live exactly past `SMALL` segments, and a live tree's
    /// per-node aggregates against a from-scratch rebuild.
    pub fn invariants_ok(&self) -> bool {
        if self.segs.is_empty() {
            return false;
        }
        if self
            .segs
            .windows(2)
            .any(|w| w[0].start >= w[1].start || w[0].free == w[1].free)
        {
            return false;
        }
        if self.segs.iter().any(|s| s.free > self.capacity) {
            return false;
        }
        // The tree is live exactly when the queries read it, and then
        // every node aggregate must equal what a rebuild would compute —
        // the incremental update paths may take no shortcuts.
        if self.tree_live != (self.segs.len() > SMALL) {
            return false;
        }
        if !self.tree_live {
            return true;
        }
        let mut expect = SegTree::default();
        expect.rebuild(&self.segs);
        self.tree == expect
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::new(s)
    }
    fn d(s: u64) -> SimSpan {
        SimSpan::new(s)
    }

    #[test]
    fn fresh_profile_is_fully_free() {
        let p = Profile::new(16);
        assert_eq!(p.free_at(t(0)), 16);
        assert_eq!(p.free_at(t(1_000_000)), 16);
        assert!(p.invariants_ok());
        assert_eq!(p.segments().len(), 1);
    }

    #[test]
    fn reserve_carves_a_rectangle() {
        let mut p = Profile::new(10);
        p.reserve(t(100), d(50), 4);
        assert_eq!(p.free_at(t(99)), 10);
        assert_eq!(p.free_at(t(100)), 6);
        assert_eq!(p.free_at(t(149)), 6);
        assert_eq!(p.free_at(t(150)), 10);
        assert!(p.invariants_ok());
    }

    #[test]
    fn overlapping_reservations_stack() {
        let mut p = Profile::new(10);
        p.reserve(t(0), d(100), 4);
        p.reserve(t(50), d(100), 4);
        assert_eq!(p.free_at(t(25)), 6);
        assert_eq!(p.free_at(t(75)), 2);
        assert_eq!(p.free_at(t(125)), 6);
        assert_eq!(p.free_at(t(150)), 10);
    }

    #[test]
    fn release_undoes_reserve() {
        let mut p = Profile::new(8);
        let snapshot = p.clone();
        p.reserve(t(10), d(30), 5);
        p.release(t(10), d(30), 5);
        assert_eq!(p, snapshot);
    }

    #[test]
    fn partial_release_models_early_completion() {
        let mut p = Profile::new(8);
        // Job estimated to run [0, 100) with 4 procs...
        p.reserve(t(0), d(100), 4);
        // ...actually completes at 60: give back [60, 100).
        p.release(t(60), d(40), 4);
        assert_eq!(p.free_at(t(59)), 4);
        assert_eq!(p.free_at(t(60)), 8);
    }

    #[test]
    fn partial_release_coalesces_adjacent_equal_segments() {
        // Regression: releasing the elapsed-tail of a rectangle must merge
        // the restored span with its equal neighbours and never push any
        // segment above capacity.
        let mut p = Profile::new(8);
        p.reserve(t(0), d(100), 4); // [0,100) at 4 free
        p.reserve(t(0), d(60), 4); // [0,60) at 0 free
                                   // The [0,60) job "ends" at 60 having consumed its whole rectangle;
                                   // the [0,100) job completes early at 60: give back [60,100).
        p.release(t(60), d(40), 4);
        // [60,100) returns to 8 free — the same level as [100,∞), so the
        // boundary at 100 must vanish.
        assert_eq!(
            p.segments(),
            &[
                Segment {
                    start: t(0),
                    free: 0
                },
                Segment {
                    start: t(60),
                    free: 8
                }
            ],
            "adjacent equal segments must coalesce across the released span"
        );
        assert!(p.segments().iter().all(|s| s.free <= p.capacity()));
        assert!(p.invariants_ok());
    }

    #[test]
    #[should_panic(expected = "underflows")]
    fn reserve_panics_on_overcommit() {
        let mut p = Profile::new(4);
        p.reserve(t(0), d(10), 3);
        p.reserve(t(5), d(10), 2);
    }

    #[test]
    #[should_panic(expected = "overflows")]
    fn release_panics_on_phantom_capacity() {
        let mut p = Profile::new(4);
        p.release(t(0), d(10), 1);
    }

    #[test]
    fn zero_duration_or_width_are_noops() {
        let mut p = Profile::new(4);
        let snapshot = p.clone();
        p.reserve(t(5), d(0), 4);
        p.reserve(t(5), d(10), 0);
        p.release(t(5), d(0), 4);
        assert_eq!(p, snapshot);
    }

    #[test]
    fn find_anchor_on_empty_profile_is_immediate() {
        let p = Profile::new(8);
        assert_eq!(p.find_anchor(t(42), d(1000), 8), t(42));
    }

    #[test]
    fn find_anchor_skips_blocked_interval() {
        let mut p = Profile::new(8);
        p.reserve(t(0), d(100), 6); // only 2 free until 100
        assert_eq!(p.find_anchor(t(0), d(10), 2), t(0));
        assert_eq!(p.find_anchor(t(0), d(10), 3), t(100));
    }

    #[test]
    fn find_anchor_needs_contiguous_fit() {
        let mut p = Profile::new(8);
        // Free window [0, 50) of 8, then blocked [50, 100), then free.
        p.reserve(t(50), d(50), 8);
        // A 60-second job cannot use the [0, 50) hole.
        assert_eq!(p.find_anchor(t(0), d(60), 1), t(100));
        // A 50-second job fits exactly in the hole.
        assert_eq!(p.find_anchor(t(0), d(50), 1), t(0));
    }

    #[test]
    fn find_anchor_spans_multiple_segments() {
        let mut p = Profile::new(8);
        p.reserve(t(0), d(100), 2); // 6 free on [0, 100)
        p.reserve(t(100), d(100), 4); // 4 free on [100, 200)
                                      // Width 4 for 150 s fits at 0: covered by both segments.
        assert_eq!(p.find_anchor(t(0), d(150), 4), t(0));
        // Width 5 for 150 s: blocked on [100, 200), so anchor is 200.
        assert_eq!(p.find_anchor(t(0), d(150), 5), t(200));
    }

    #[test]
    fn find_anchor_respects_earliest_bound() {
        let p = Profile::new(8);
        assert_eq!(p.find_anchor(t(500), d(10), 1), t(500));
    }

    #[test]
    fn find_anchor_mid_segment_start() {
        let mut p = Profile::new(8);
        p.reserve(t(0), d(100), 6);
        // Asking from t=30 for width 2 (fits alongside): anchor 30.
        assert_eq!(p.find_anchor(t(30), d(10), 2), t(30));
        // Width 3 must wait for the reservation to end.
        assert_eq!(p.find_anchor(t(30), d(10), 3), t(100));
    }

    #[test]
    #[should_panic(expected = "exceeds capacity")]
    fn find_anchor_rejects_impossible_width() {
        Profile::new(4).find_anchor(t(0), d(1), 5);
    }

    #[test]
    fn fits_matches_find_anchor() {
        let mut p = Profile::new(8);
        p.reserve(t(10), d(80), 5);
        for &(start, dur, width) in &[
            (0u64, 10u64, 8u32),
            (0, 11, 4),
            (0, 11, 3),
            (10, 80, 3),
            (90, 5, 8),
            (5, 100, 3),
        ] {
            let fits = p.fits(t(start), d(dur), width);
            let anchor = p.find_anchor(t(start), d(dur), width);
            assert_eq!(
                fits,
                anchor == t(start),
                "fits({start},{dur},{width}) = {fits} but anchor = {anchor}"
            );
        }
    }

    #[test]
    fn indexed_and_linear_anchors_agree_on_dense_profile() {
        // A profile long enough to bypass the small-profile cutoff and
        // exercise the tree descents: mixed widths force both the
        // first-feasible establishment and the first-infeasible window
        // verification over many candidates.
        let mut p = Profile::new(64);
        for i in 0..(8 * SMALL as u64) {
            let width = 1 + ((i * 7 + 3) % 60) as u32;
            p.reserve(
                t(i * 10),
                d(10 + (i % 13) * 5),
                width.min(p.free_at(t(i * 10))),
            );
        }
        assert!(
            p.segments().len() > SMALL,
            "want a profile past the tree cutoff"
        );
        for earliest in (0..8 * SMALL as u64 * 10).step_by(53) {
            for &width in &[1u32, 7, 23, 40, 64] {
                for &dur in &[1u64, 50, 400, 5_000] {
                    assert_eq!(
                        p.find_anchor(t(earliest), d(dur), width),
                        p.find_anchor_linear(t(earliest), d(dur), width),
                        "diverged at earliest={earliest} dur={dur} width={width}"
                    );
                }
            }
        }
    }

    #[test]
    fn fits_cache_matches_anchor_scan_on_large_profiles() {
        // Past the SMALL cutoff `fits` answers come from tree descents and
        // the prefix-minima memo; every answer must equal the anchor-scan
        // definition, for shifting left edges and across mutations.
        let mut p = Profile::new(64);
        for i in 0..(8 * SMALL as u64) {
            let width = 1 + ((i * 7 + 3) % 60) as u32;
            p.reserve(
                t(i * 10),
                d(10 + (i % 13) * 5),
                width.min(p.free_at(t(i * 10))),
            );
        }
        assert!(p.segments().len() > SMALL);
        let check = |p: &Profile| {
            for start in (0..8 * SMALL as u64 * 10).step_by(97) {
                for &width in &[1u32, 7, 23, 40, 64] {
                    for &dur in &[1u64, 50, 400, 5_000, 200_000] {
                        let expect = p.find_anchor(t(start), d(dur), width) == t(start);
                        assert_eq!(
                            p.fits(t(start), d(dur), width),
                            expect,
                            "diverged at start={start} dur={dur} width={width}"
                        );
                        // The memoized repeat must agree with the rebuild.
                        assert_eq!(p.fits(t(start), d(dur), width), expect);
                    }
                }
            }
        };
        check(&p);
        // Mutations must invalidate the cache, not leave stale answers.
        let anchor = p.find_anchor(t(35), d(400), 1);
        p.reserve(anchor, d(400), 1);
        p.release(t(1_000), d(200), 1);
        check(&p);
    }

    #[test]
    fn cloned_profiles_never_share_stale_fits_answers() {
        // The memo travels with `clone`; a mutation of either copy draws a
        // process-globally fresh generation, so neither can ever accept
        // the other's (or its own pre-mutation) cached minima.
        let mut p = Profile::new(8);
        p.reserve(t(0), d(100), 4);
        assert!(p.fits(t(0), d(50), 4)); // warm the memo (4 free on [0,100))
        assert!(p.fits(t(0), d(50), 4)); // second probe memoizes
        let mut q = p.clone();
        q.reserve(t(0), d(50), 4); // q: 0 free on [0,50)
        assert!(!q.fits(t(0), d(50), 1), "stale clone cache accepted");
        assert!(!q.fits(t(0), d(50), 1));
        assert!(p.fits(t(0), d(50), 4), "p's own memo must stay valid");
        p.reserve(t(0), d(50), 4);
        assert!(!p.fits(t(0), d(50), 1), "post-mutation memo accepted");
    }

    /// A profile grown past `SMALL` by anchored reservations, as a
    /// scheduler grows one: disjoint rectangles with gaps between them,
    /// two boundaries each. The anchor scans run while the profile is
    /// still small. Returns the profile and an instant past which it is
    /// fully free.
    fn past_small(cap: u32) -> (Profile, SimTime) {
        let mut p = Profile::new(cap);
        for i in 0..SMALL as u64 {
            let width = 1 + (i % 3) as u32;
            let start = p.find_anchor(t(i * 100), d(50), width);
            p.reserve(start, d(50), width);
        }
        assert!(p.segs.len() > SMALL + 8, "want a profile past the cutoff");
        assert!(p.tree_live);
        (p, t(SMALL as u64 * 100))
    }

    #[test]
    fn incremental_updates_and_rebuilds_are_both_exercised() {
        // Past SMALL, where the tree is live and every mutation syncs it.
        let (mut p, far) = past_small(16);
        let base = p.stats();
        let segs = p.segs.len();
        let delta = |p: &Profile| {
            let s = p.stats();
            (
                s.tree_rebuilds - base.tree_rebuilds,
                s.tree_incremental_updates - base.tree_incremental_updates,
            )
        };
        // Fresh boundaries: structural (suffix resync).
        p.reserve(far + d(100), d(50), 4);
        assert_eq!(delta(&p).0, 1);
        assert_eq!(delta(&p).1, 0);
        // Same rectangle again: both boundaries exist, no coalescing
        // (levels on each side differ) — value-only incremental update.
        p.reserve(far + d(100), d(50), 4);
        assert_eq!(delta(&p).0, 1);
        assert_eq!(delta(&p).1, 1);
        assert!(p.invariants_ok());
        // Releasing one layer back: still value-only.
        p.release(far + d(100), d(50), 4);
        assert_eq!(delta(&p).1, 2);
        // Releasing the last layer coalesces both boundaries away:
        // structural again.
        p.release(far + d(100), d(50), 4);
        assert_eq!(delta(&p).0, 2);
        assert_eq!(p.segs.len(), segs);
        assert!(p.invariants_ok());
    }

    #[test]
    fn stats_count_operations() {
        let (mut p, far) = past_small(8);
        let base = p.stats();
        p.reserve(far, d(100), 4);
        p.reserve(far + d(200), d(100), 4);
        p.release(far + d(50), d(50), 4);
        p.find_anchor(far, d(10), 8);
        p.find_anchor(far, d(10), 2);
        p.note_compress_pass();
        let s = p.stats();
        assert_eq!(s.reserves - base.reserves, 2);
        assert_eq!(s.releases - base.releases, 1);
        assert_eq!(s.find_anchor_calls - base.find_anchor_calls, 2);
        assert_eq!(s.compress_passes - base.compress_passes, 1);
        // The growth phase anchored while the profile was small.
        assert!(s.segments_visited >= 2, "anchor scans examine segments");
        assert!(s.peak_segments >= 3);
        assert!(s.segments_per_anchor() > 0.0);
        assert!(
            (s.tree_incremental_updates + s.tree_rebuilds)
                - (base.tree_incremental_updates + base.tree_rebuilds)
                >= 3,
            "every mutation past SMALL synchronizes the tree"
        );
    }

    #[test]
    fn tree_is_built_once_per_upward_crossing() {
        // Runs one mutation and checks the tree work it did against the
        // regime it leaves the profile in. Returns whether it crossed
        // upward past SMALL.
        fn step(p: &mut Profile, op: impl FnOnce(&mut Profile)) -> bool {
            let (below, s0) = (p.segs.len() <= SMALL, p.stats());
            op(p);
            let s1 = p.stats();
            let work = (
                s1.tree_rebuilds - s0.tree_rebuilds,
                s1.tree_incremental_updates - s0.tree_incremental_updates,
            );
            assert!(p.invariants_ok(), "at {} segments", p.segs.len());
            assert_eq!(p.tree_live, p.segs.len() > SMALL);
            if p.segs.len() <= SMALL {
                assert_eq!(work, (0, 0), "tree work at {} segments", p.segs.len());
            } else if below {
                assert_eq!(work, (1, 0), "one build per upward crossing");
            }
            below && p.tree_live
        }
        let mut p = Profile::new(8);
        let mut crossings = 0;
        for round in 0..3u64 {
            let origin = round * 1_000_000;
            // Grow with disjoint 1-wide rectangles, two boundaries each.
            let mut last = t(origin);
            while p.segs.len() <= SMALL {
                last = t(origin + 100 * p.segs.len() as u64);
                crossings += step(&mut p, |p| p.reserve(last, d(50), 1)) as usize;
            }
            // Dip back to SMALL and up again: a build each time.
            for _ in 0..3 {
                step(&mut p, |p| p.release(last, d(50), 1));
                assert!(!p.tree_live);
                crossings += step(&mut p, |p| p.reserve(last, d(50), 1)) as usize;
            }
            // A fresh rectangle past the cutoff only syncs the live tree.
            step(&mut p, |p| p.reserve(last + d(100), d(50), 1));
            assert!(p.tree_live);
            // Trim the whole round away: back to one segment, tree stale.
            step(&mut p, |p| p.trim_before(t(origin + 999_999)));
            assert_eq!(p.segs.len(), 1);
        }
        assert_eq!(crossings, 3 * 4);
    }

    #[test]
    fn tree_descents_are_counted_past_the_cutoff() {
        let mut p = Profile::new(8);
        for i in 0..(4 * SMALL as u64) {
            p.reserve(t(i * 100), d(50), 1 + (i % 7) as u32);
        }
        assert!(p.segments().len() > SMALL);
        let before = p.stats();
        p.find_anchor(t(0), d(10_000), 8);
        let after = p.stats();
        let s = ProfileStats {
            tree_descents: after.tree_descents - before.tree_descents,
            tree_nodes_visited: after.tree_nodes_visited - before.tree_nodes_visited,
            segments_visited: after.segments_visited - before.segments_visited,
            ..ProfileStats::default()
        };
        assert!(s.tree_descents > 0, "tree path must count descents");
        // Every descent touches at least its starting leaf, except a
        // probe past the final segment (which answers from bounds alone).
        assert!(s.tree_nodes_visited + 1 >= s.tree_descents);
        assert!(s.tree_nodes_visited > 0);
        assert!(s.nodes_per_descent() > 0.0);
        assert_eq!(s.segments_visited, 0, "no plain scan past the cutoff");
    }

    #[test]
    fn stats_ignore_noop_calls_and_equality_ignores_stats() {
        let mut p = Profile::new(8);
        p.reserve(t(0), d(0), 4); // no-op
        p.release(t(0), d(10), 0); // no-op
        assert_eq!(p.stats().reserves, 0);
        assert_eq!(p.stats().releases, 0);
        let q = Profile::new(8);
        q.find_anchor(t(0), d(5), 1); // probe only q
        assert_eq!(p, q, "probe counters must not affect equality");
    }

    #[test]
    fn stats_absorb_sums_counts_and_maxes_peak() {
        let mut a = ProfileStats {
            find_anchor_calls: 2,
            peak_segments: 5,
            tree_descents: 1,
            ..Default::default()
        };
        let b = ProfileStats {
            find_anchor_calls: 3,
            reserves: 1,
            peak_segments: 9,
            tree_descents: 4,
            tree_nodes_visited: 12,
            ..Default::default()
        };
        a.absorb(&b);
        assert_eq!(a.find_anchor_calls, 5);
        assert_eq!(a.reserves, 1);
        assert_eq!(a.peak_segments, 9);
        assert_eq!(a.tree_descents, 5);
        assert_eq!(a.tree_nodes_visited, 12);
    }

    #[test]
    fn coalescing_keeps_profile_minimal() {
        let mut p = Profile::new(8);
        p.reserve(t(0), d(100), 4);
        p.reserve(t(100), d(100), 4);
        // Same level on both sides of t=100: must be one segment.
        assert_eq!(p.free_at(t(50)), 4);
        assert_eq!(p.free_at(t(150)), 4);
        assert_eq!(
            p.segments().iter().filter(|s| s.free == 4).count(),
            1,
            "adjacent equal segments not coalesced: {:?}",
            p.segments()
        );
    }

    #[test]
    fn trim_before_preserves_future_shape() {
        let mut p = Profile::new(8);
        p.reserve(t(0), d(10), 1);
        p.reserve(t(20), d(10), 2);
        p.reserve(t(40), d(10), 3);
        let f50 = p.free_at(t(50));
        let f45 = p.free_at(t(45));
        p.trim_before(t(45));
        assert_eq!(p.free_at(t(45)), f45);
        assert_eq!(p.free_at(t(50)), f50);
        assert!(p.invariants_ok());
        assert!(p.segments().len() <= 3);
    }

    #[test]
    fn same_future_ignores_past_and_segmentation() {
        let mut a = Profile::new(8);
        a.reserve(t(0), d(10), 3); // past noise
        a.reserve(t(100), d(50), 4);
        let mut b = Profile::new(8);
        b.reserve(t(100), d(50), 4);
        assert!(!a.same_future(&b, t(5)), "pasts differ at t=5");
        assert!(a.same_future(&b, t(10)), "futures agree from t=10");
        b.trim_before(t(120)); // drops the boundary at 100, keeps the level
        assert!(
            a.same_future(&b, t(120)),
            "trimming must not break equality"
        );
        b.reserve(t(130), d(5), 1);
        assert!(!a.same_future(&b, t(120)));
        assert!(!a.same_future(&Profile::new(16), t(0)), "capacity differs");
    }

    #[test]
    fn reserve_before_profile_origin_works() {
        // Anchoring earlier than any existing boundary (possible after
        // trim) must still work.
        let mut p = Profile::new(8);
        p.reserve(t(100), d(10), 2);
        p.trim_before(t(100));
        p.reserve(t(50), d(10), 3);
        assert_eq!(p.free_at(t(55)), 5);
        assert!(p.invariants_ok());
    }
}
