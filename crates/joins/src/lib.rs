//! # cbb-joins — spatial joins over (clipped) R-trees and sorted columns
//!
//! The two classic index strategies evaluated in §V (after Brinkhoff et
//! al. \[8\]), plus an index-free scan kernel:
//!
//! * **INLJ** (Index Nested Loop Join) — one input indexed, the other
//!   streamed: one range query per outer object. Clipping accelerates
//!   every probe.
//! * **STT** (Synchronised Tree Traversal) — both inputs indexed: the
//!   trees are descended in lock-step over intersecting node pairs.
//!   Clipping restricts each recursion to the intersection of the pair's
//!   CBBs via dominance tests, exactly as §V describes.
//! * **Sweep** — neither input indexed: both sides live in a columnar
//!   [`TileColumns`] layout sorted by x-min, and a forward-scan plane
//!   sweep enumerates candidates whose x-intervals overlap, testing the
//!   remaining axes with a branch-light loop over contiguous `f64`
//!   slices. Clipping still composes: a tile-level CBB pre-check
//!   ([`sweep_precheck`]) can discard the whole sweep before it starts.
//!
//! The engine (`cbb-engine`) joins every tile with the sweep; STT and
//! INLJ are the paper's reference, which the `join_experiment` and
//! `fig*` bins reproduce.
//!
//! All kernels report per-side leaf accesses (raw, unbuffered — the
//! paper's join I/O metric), the machine-independent `overlap_tests`
//! work counter, and the number of result pairs, which is invariant
//! under clipping and across kernels (verified by tests).

#![forbid(unsafe_code)]

use std::iter::Sum;
use std::ops::AddAssign;

use cbb_core::{query_intersects_cbb, ClipPoint};
use cbb_geom::{Point, Rect};
use cbb_rtree::{AccessStats, Child, ClippedRTree, DataId, NodeId};

/// Join outcome and cost counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct JoinResult {
    /// Number of intersecting object pairs found.
    pub pairs: u64,
    /// Leaf accesses on the left / outer side (0 for INLJ: the outer input
    /// is a sequential scan, not index I/O; 0 for Sweep: no index at all).
    pub leaf_accesses_left: u64,
    /// Leaf accesses on the right / indexed side.
    pub leaf_accesses_right: u64,
    /// Directory-node accesses (both sides).
    pub internal_accesses: u64,
    /// Recursions avoided by clip-point dominance tests.
    pub clip_prunes: u64,
    /// Rectangle–rectangle intersection tests performed — the
    /// machine-independent work unit that makes the three kernels
    /// directly comparable: STT counts every candidate node/object pair
    /// tested, INLJ counts every entry MBB tested during its probes, and
    /// the sweep counts every candidate its scans advance over.
    pub overlap_tests: u64,
    /// Tiles joined by STT. The engine never sets it (it sweeps every
    /// tile); the field stays only because `benchmark/src/layers.rs`
    /// reads it, and ROADMAP item F retires it.
    pub tiles_stt: u64,
    /// Tiles joined by INLJ (see [`JoinResult::tiles_stt`]).
    pub tiles_inlj: u64,
    /// Tiles a partitioned executor swept (0 for the bare kernels in
    /// this crate; the engine ticks it once per swept tile).
    pub tiles_sweep: u64,
}

impl JoinResult {
    /// Total leaf accesses over both sides.
    pub fn leaf_accesses(&self) -> u64 {
        self.leaf_accesses_left + self.leaf_accesses_right
    }

    /// Merge many partial results (e.g. per-partition counters).
    pub fn sum<'a>(parts: impl IntoIterator<Item = &'a JoinResult>) -> JoinResult {
        parts.into_iter().copied().sum()
    }
}

impl AddAssign for JoinResult {
    fn add_assign(&mut self, other: JoinResult) {
        self.pairs += other.pairs;
        self.leaf_accesses_left += other.leaf_accesses_left;
        self.leaf_accesses_right += other.leaf_accesses_right;
        self.internal_accesses += other.internal_accesses;
        self.clip_prunes += other.clip_prunes;
        self.overlap_tests += other.overlap_tests;
        self.tiles_stt += other.tiles_stt;
        self.tiles_inlj += other.tiles_inlj;
        self.tiles_sweep += other.tiles_sweep;
    }
}

impl AddAssign<&JoinResult> for JoinResult {
    fn add_assign(&mut self, other: &JoinResult) {
        *self += *other;
    }
}

impl Sum for JoinResult {
    fn sum<I: Iterator<Item = JoinResult>>(iter: I) -> JoinResult {
        iter.fold(JoinResult::default(), |mut acc, r| {
            acc += r;
            acc
        })
    }
}

/// The PBSM reference point of an intersecting pair: the lower corner of
/// `a ∩ b` (component-wise max of the lower corners). Partitioned joins
/// count a pair only in the tile that *owns* this point, which makes
/// global pair counts exact despite multi-assignment of spanning objects.
pub fn reference_point<const D: usize>(a: &Rect<D>, b: &Rect<D>) -> Point<D> {
    a.lo.max(&b.lo)
}

/// Index Nested Loop Join: probe `inner` with every rectangle of `outer`.
/// With `use_clips = false` the probes run on the base tree (the
/// unclipped baseline on the *same* tree).
pub fn inlj<const D: usize>(
    outer: &[Rect<D>],
    inner: &ClippedRTree<D>,
    use_clips: bool,
) -> JoinResult {
    let mut result = JoinResult::default();
    let mut stats = AccessStats::new();
    for o in outer {
        let found = if use_clips {
            inner.range_query_stats(o, &mut stats)
        } else {
            inner.tree.range_query_stats(o, &mut stats)
        };
        result.pairs += found.len() as u64;
    }
    result.leaf_accesses_right = stats.leaf_accesses;
    result.internal_accesses = stats.internal_accesses;
    result.clip_prunes = stats.clip_prunes;
    result.overlap_tests = stats.overlap_tests;
    result
}

/// Synchronised Tree Traversal join of two (clipped) R-trees.
pub fn stt<const D: usize>(
    left: &ClippedRTree<D>,
    right: &ClippedRTree<D>,
    use_clips: bool,
) -> JoinResult {
    let mut result = JoinResult::default();
    if left.tree.is_empty() || right.tree.is_empty() {
        return result;
    }
    let lroot = left.tree.root_id();
    let rroot = right.tree.root_id();
    let lmbb = left.tree.node(lroot).mbb;
    let rmbb = right.tree.node(rroot).mbb;
    result.overlap_tests += 1;
    let Some(w) = lmbb.intersection(&rmbb) else {
        return result;
    };
    if use_clips && !pair_survives_clips(left, lroot, &lmbb, right, rroot, &rmbb, &w, &mut result) {
        return result;
    }
    stt_rec(left, lroot, right, rroot, use_clips, &mut result);
    result
}

/// The §V clip test for a candidate node pair: the pair's search window
/// `w` (the intersection of their MBBs) must escape the dead space of both
/// CBBs.
#[allow(clippy::too_many_arguments)]
fn pair_survives_clips<const D: usize>(
    left: &ClippedRTree<D>,
    lid: NodeId,
    lmbb: &Rect<D>,
    right: &ClippedRTree<D>,
    rid: NodeId,
    rmbb: &Rect<D>,
    w: &Rect<D>,
    result: &mut JoinResult,
) -> bool {
    if !query_intersects_cbb(lmbb, left.clips_of(lid), w)
        || !query_intersects_cbb(rmbb, right.clips_of(rid), w)
    {
        result.clip_prunes += 1;
        return false;
    }
    true
}

fn stt_rec<const D: usize>(
    left: &ClippedRTree<D>,
    lid: NodeId,
    right: &ClippedRTree<D>,
    rid: NodeId,
    use_clips: bool,
    result: &mut JoinResult,
) {
    let lnode = left.tree.node(lid);
    let rnode = right.tree.node(rid);

    match (lnode.is_leaf(), rnode.is_leaf()) {
        (true, true) => {
            result.leaf_accesses_left += 1;
            result.leaf_accesses_right += 1;
            result.overlap_tests += (lnode.entries.len() * rnode.entries.len()) as u64;
            for e1 in &lnode.entries {
                for e2 in &rnode.entries {
                    if e1.mbb.intersects(&e2.mbb) {
                        result.pairs += 1;
                    }
                }
            }
        }
        (false, true) => {
            // Descend the left (deeper) side only.
            result.internal_accesses += 1;
            result.overlap_tests += lnode.entries.len() as u64;
            for e1 in &lnode.entries {
                let Some(w) = e1.mbb.intersection(&rnode.mbb) else {
                    continue;
                };
                let c1 = match e1.child {
                    Child::Node(c) => c,
                    Child::Data(_) => unreachable!("non-leaf with data entry"),
                };
                if use_clips {
                    // One-sided window restriction: the right node is a
                    // leaf already; test the left child's CBB against w.
                    if !query_intersects_cbb(&e1.mbb, left.clips_of(c1), &w) {
                        result.clip_prunes += 1;
                        continue;
                    }
                }
                stt_rec(left, c1, right, rid, use_clips, result);
            }
        }
        (true, false) => {
            result.internal_accesses += 1;
            result.overlap_tests += rnode.entries.len() as u64;
            for e2 in &rnode.entries {
                let Some(w) = e2.mbb.intersection(&lnode.mbb) else {
                    continue;
                };
                let c2 = match e2.child {
                    Child::Node(c) => c,
                    Child::Data(_) => unreachable!("non-leaf with data entry"),
                };
                if use_clips && !query_intersects_cbb(&e2.mbb, right.clips_of(c2), &w) {
                    result.clip_prunes += 1;
                    continue;
                }
                stt_rec(left, lid, right, c2, use_clips, result);
            }
        }
        (false, false) => {
            result.internal_accesses += 2;
            result.overlap_tests += (lnode.entries.len() * rnode.entries.len()) as u64;
            for e1 in &lnode.entries {
                for e2 in &rnode.entries {
                    let Some(w) = e1.mbb.intersection(&e2.mbb) else {
                        continue;
                    };
                    let c1 = match e1.child {
                        Child::Node(c) => c,
                        Child::Data(_) => unreachable!(),
                    };
                    let c2 = match e2.child {
                        Child::Node(c) => c,
                        Child::Data(_) => unreachable!(),
                    };
                    if use_clips
                        && !pair_survives_clips(left, c1, &e1.mbb, right, c2, &e2.mbb, &w, result)
                    {
                        continue;
                    }
                    stt_rec(left, c1, right, c2, use_clips, result);
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Plane-sweep join over a columnar SoA tile layout
// ---------------------------------------------------------------------

/// A tile's objects in structure-of-arrays form, sorted by x-min.
///
/// Each axis stores its lower and upper coordinates in separate
/// contiguous `f64` vectors (`min_x/max_x/min_y/max_y/…`), with object
/// ids in a parallel vector. The sort key is `(lo[0], id)` with
/// [`f64::total_cmp`], so the layout — and therefore every counter the
/// sweep produces — is a pure function of the object set.
///
/// `TileColumns` is the input format of the [`sweep`] kernel: the
/// x-sorted order turns candidate generation into two binary searches
/// per object, and the columnar layout turns the remaining-axes overlap
/// test into a branch-light loop over contiguous slices that the
/// compiler can auto-vectorize. Extraction costs one sort; executors
/// that join the same tile repeatedly should cache the result (the
/// engine's `TileForest` keeps columns alongside each tile tree and
/// reuses them version-exactly, rebuilding only when the tile mutates).
#[derive(Clone, Debug, PartialEq)]
pub struct TileColumns<const D: usize> {
    /// Lower coordinates per axis, each sorted order (axis 0 ascending).
    lo: [Vec<f64>; D],
    /// Upper coordinates per axis, parallel to `lo`.
    hi: [Vec<f64>; D],
    /// Object ids, parallel to the coordinate columns.
    ids: Vec<DataId>,
    /// MBB of all objects (`None` when empty), precomputed for the
    /// tile-level pre-checks.
    bounds: Option<Rect<D>>,
}

impl<const D: usize> TileColumns<D> {
    /// Extract columns from `(rect, id)` items, sorting by `(x-min, id)`.
    pub fn from_items(items: &[(Rect<D>, DataId)]) -> Self {
        let mut order: Vec<usize> = (0..items.len()).collect();
        order.sort_by(|&a, &b| {
            items[a].0.lo[0]
                .total_cmp(&items[b].0.lo[0])
                .then_with(|| items[a].1.cmp(&items[b].1))
        });
        let mut lo: [Vec<f64>; D] = std::array::from_fn(|_| Vec::with_capacity(items.len()));
        let mut hi: [Vec<f64>; D] = std::array::from_fn(|_| Vec::with_capacity(items.len()));
        let mut ids = Vec::with_capacity(items.len());
        for &i in &order {
            let (r, id) = items[i];
            for d in 0..D {
                lo[d].push(r.lo[d]);
                hi[d].push(r.hi[d]);
            }
            ids.push(id);
        }
        let bounds = Rect::mbb_of(&items.iter().map(|(r, _)| *r).collect::<Vec<_>>());
        TileColumns {
            lo,
            hi,
            ids,
            bounds,
        }
    }

    /// Number of objects.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the tile is empty.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The id of the `i`-th object in sweep order.
    pub fn id(&self, i: usize) -> DataId {
        self.ids[i]
    }

    /// The rectangle of the `i`-th object in sweep order.
    pub fn rect(&self, i: usize) -> Rect<D> {
        Rect::new(
            Point(std::array::from_fn(|d| self.lo[d][i])),
            Point(std::array::from_fn(|d| self.hi[d][i])),
        )
    }

    /// MBB of all objects (`None` when empty).
    pub fn bounds(&self) -> Option<Rect<D>> {
        self.bounds
    }

    /// All rectangles in sweep order (the x-sorted probe list an INLJ
    /// executor can stream without re-partitioning).
    pub fn rects(&self) -> Vec<Rect<D>> {
        (0..self.len()).map(|i| self.rect(i)).collect()
    }
}

/// Which side's elements a [`sweep_scan`] chunk iterates over.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SweepSide {
    /// Scan left elements against the right columns.
    Left,
    /// Scan right elements against the left columns.
    Right,
}

/// Plane-sweep join of two column sets: every intersecting `(left id,
/// right id)` pair, counted once.
pub fn sweep<const D: usize>(left: &TileColumns<D>, right: &TileColumns<D>) -> JoinResult {
    sweep_filtered(left, right, |_, _| true)
}

/// As [`sweep`], but a found pair is counted only when `keep` accepts its
/// two object rectangles. The engine sweeps a whole tile through this
/// with its reference-point ownership test as `keep`, so a pair found in
/// several tiles counts once; a hot tile runs the same scans in
/// [`sweep_scan`] chunks.
pub fn sweep_filtered<const D: usize, F>(
    left: &TileColumns<D>,
    right: &TileColumns<D>,
    keep: F,
) -> JoinResult
where
    F: Fn(&Rect<D>, &Rect<D>) -> bool,
{
    let mut result = sweep_scan(left, right, SweepSide::Left, 0, left.len(), &keep);
    result += sweep_scan(left, right, SweepSide::Right, 0, right.len(), &keep);
    result
}

/// One chunk of the sweep: the forward scans of elements `lo..hi` on one
/// side. Each element's scan is independent, so summing chunks over any
/// partition of `0..len` on both sides reproduces [`sweep_filtered`]
/// **exactly** (all counters, in any order) — the property the engine
/// relies on to split a hot tile's sweep by x-range.
///
/// The tie-break makes every intersecting pair the responsibility of
/// exactly one scan: a left element tests the right elements whose x-min
/// is `>=` its own (ties included), a right element tests the left
/// elements whose x-min is *strictly greater* than its own.
pub fn sweep_scan<const D: usize, F>(
    left: &TileColumns<D>,
    right: &TileColumns<D>,
    side: SweepSide,
    lo: usize,
    hi: usize,
    keep: F,
) -> JoinResult
where
    F: Fn(&Rect<D>, &Rect<D>) -> bool,
{
    match side {
        SweepSide::Left => scan_forward(left, right, lo, hi, false, |o, i| keep(o, i)),
        SweepSide::Right => scan_forward(right, left, lo, hi, true, |o, i| keep(i, o)),
    }
}

/// Forward scans of `outer` elements `lo..hi` against `inner`. With
/// `strict` the scan starts past x-min ties instead of at them. `keep`
/// receives `(outer rect, inner rect)`.
fn scan_forward<const D: usize, F>(
    outer: &TileColumns<D>,
    inner: &TileColumns<D>,
    lo: usize,
    hi: usize,
    strict: bool,
    keep: F,
) -> JoinResult
where
    F: Fn(&Rect<D>, &Rect<D>) -> bool,
{
    let mut result = JoinResult::default();
    let inner_lo0 = inner.lo[0].as_slice();
    for i in lo..hi {
        let o_lo0 = outer.lo[0][i];
        let o_hi0 = outer.hi[0][i];
        // Candidates: inner elements whose x-min lies in [o_lo0, o_hi0]
        // (or (o_lo0, o_hi0] under the strict tie-break). Their x-hi is
        // >= their x-min >= o_lo0, so x-overlap needs no further test.
        let start = if strict {
            inner_lo0.partition_point(|&x| x <= o_lo0)
        } else {
            inner_lo0.partition_point(|&x| x < o_lo0)
        };
        let end = start + inner_lo0[start..].partition_point(|&x| x <= o_hi0);
        result.overlap_tests += (end - start) as u64;
        let o_rect = outer.rect(i);
        for j in start..end {
            // Branch-light remaining-axes test over contiguous slices.
            let mut ok = true;
            for d in 1..D {
                ok &= inner.lo[d][j] <= o_rect.hi[d] && o_rect.lo[d] <= inner.hi[d][j];
            }
            if ok && keep(&o_rect, &inner.rect(j)) {
                result.pairs += 1;
            }
        }
    }
    result
}

/// The tile-level pre-check a partitioned executor runs once before
/// sweeping (or before handing out [`sweep_scan`] chunks): compute the
/// joint window `w = bounds(left) ∩ bounds(right)` and, when clip points
/// are supplied, test `w` against both sides' CBBs exactly as the STT
/// root check does. Returns the counters the check itself produced and
/// whether the sweep should proceed. Pass empty clip slices for the
/// unclipped baseline.
pub fn sweep_precheck<const D: usize>(
    left: &TileColumns<D>,
    lclips: &[ClipPoint<D>],
    right: &TileColumns<D>,
    rclips: &[ClipPoint<D>],
) -> (JoinResult, bool) {
    let mut result = JoinResult::default();
    let (Some(lmbb), Some(rmbb)) = (left.bounds(), right.bounds()) else {
        return (result, false);
    };
    result.overlap_tests += 1;
    let Some(w) = lmbb.intersection(&rmbb) else {
        return (result, false);
    };
    if !query_intersects_cbb(&lmbb, lclips, &w) || !query_intersects_cbb(&rmbb, rclips, &w) {
        result.clip_prunes += 1;
        return (result, false);
    }
    (result, true)
}

// ---------------------------------------------------------------------
// Shared-scan batched range execution (query fusion)
// ---------------------------------------------------------------------

/// Answer a whole micro-batch of range queries against one tile's
/// objects with a single plane sweep.
///
/// A batch of query rectangles against a tile **is** a spatial join
/// between the query set and the object set, so this is [`sweep`] with
/// per-pair attribution instead of aggregate counters: `emit` receives
/// every intersecting `(query, object)` pair exactly once as `(query
/// sweep position, object id)`, and `tests[p]` accumulates the overlap
/// tests charged to the query at sweep position `p` (`tests.len()` must
/// equal `queries.len()`). Summing `tests` reproduces
/// `sweep(queries, objects).overlap_tests` exactly — the fused path
/// stays counter-exact against the join kernel it reuses.
///
/// Both [`TileColumns`] sides use the canonical `(x-min, id)` order, so
/// every counter is a pure function of the two sets — independent of
/// the order queries arrived in the batch.
pub fn sweep_queries<const D: usize, E>(
    queries: &TileColumns<D>,
    objects: &TileColumns<D>,
    tests: &mut [u64],
    mut emit: E,
) where
    E: FnMut(usize, DataId),
{
    sweep_queries_scan(
        queries,
        objects,
        SweepSide::Left,
        0,
        queries.len(),
        tests,
        &mut emit,
    );
    sweep_queries_scan(
        queries,
        objects,
        SweepSide::Right,
        0,
        objects.len(),
        tests,
        &mut emit,
    );
}

/// One chunk of [`sweep_queries`]: the forward scans of elements
/// `lo..hi` on one side ([`SweepSide::Left`] = query rects outer,
/// [`SweepSide::Right`] = objects outer). Mirrors [`sweep_scan`]'s
/// tie-break exactly — a query scans the objects whose x-min is `>=`
/// its own (ties included), an object scans the queries whose x-min is
/// *strictly greater* — so each intersecting pair is emitted once, and
/// summing chunks over any partition of `0..len` on both sides
/// reproduces the whole sweep's pairs and per-query `tests` exactly
/// (parallel executors split a hot tile's fused batch by x-range).
pub fn sweep_queries_scan<const D: usize, E>(
    queries: &TileColumns<D>,
    objects: &TileColumns<D>,
    side: SweepSide,
    lo: usize,
    hi: usize,
    tests: &mut [u64],
    emit: &mut E,
) where
    E: FnMut(usize, DataId),
{
    debug_assert_eq!(tests.len(), queries.len(), "one test counter per query");
    match side {
        SweepSide::Left => {
            // Queries outer, non-strict: a query owns the objects whose
            // x-min ties its own.
            let obj_lo0 = objects.lo[0].as_slice();
            for (off, t) in tests[lo..hi].iter_mut().enumerate() {
                let qi = lo + off;
                let q_lo0 = queries.lo[0][qi];
                let q_hi0 = queries.hi[0][qi];
                let start = obj_lo0.partition_point(|&x| x < q_lo0);
                let end = start + obj_lo0[start..].partition_point(|&x| x <= q_hi0);
                *t += (end - start) as u64;
                let q_rect = queries.rect(qi);
                for j in start..end {
                    let mut ok = true;
                    for d in 1..D {
                        ok &= objects.lo[d][j] <= q_rect.hi[d] && q_rect.lo[d] <= objects.hi[d][j];
                    }
                    if ok {
                        emit(qi, objects.ids[j]);
                    }
                }
            }
        }
        SweepSide::Right => {
            // Objects outer, strict: past x-min ties — the Left scan
            // already owned them. The inner index IS the query sweep
            // position, so per-query attribution stays exact.
            let qry_lo0 = queries.lo[0].as_slice();
            for oi in lo..hi {
                let o_lo0 = objects.lo[0][oi];
                let o_hi0 = objects.hi[0][oi];
                let start = qry_lo0.partition_point(|&x| x <= o_lo0);
                let end = start + qry_lo0[start..].partition_point(|&x| x <= o_hi0);
                let o_rect = objects.rect(oi);
                for (off, t) in tests[start..end].iter_mut().enumerate() {
                    let qj = start + off;
                    *t += 1;
                    let mut ok = true;
                    for d in 1..D {
                        ok &=
                            queries.lo[d][qj] <= o_rect.hi[d] && o_rect.lo[d] <= queries.hi[d][qj];
                    }
                    if ok {
                        emit(qj, objects.ids[oi]);
                    }
                }
            }
        }
    }
}

/// Brute-force pair count (test oracle).
pub fn brute_force_pairs<const D: usize>(a: &[Rect<D>], b: &[Rect<D>]) -> u64 {
    let mut pairs = 0u64;
    for x in a {
        for y in b {
            if x.intersects(y) {
                pairs += 1;
            }
        }
    }
    pairs
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbb_core::{ClipConfig, ClipMethod};
    use cbb_geom::{Point, SplitMix64};
    use cbb_rtree::{DataId, RTree, TreeConfig, Variant};

    fn r2(lx: f64, ly: f64, hx: f64, hy: f64) -> Rect<2> {
        Rect::new(Point([lx, ly]), Point([hx, hy]))
    }

    fn boxes(n: usize, seed: u64) -> Vec<Rect<2>> {
        let mut rng = SplitMix64::new(seed);
        (0..n)
            .map(|_| {
                let x = rng.gen_range(0.0, 480.0);
                let y = rng.gen_range(0.0, 480.0);
                let w = rng.gen_range(0.5, 20.0);
                let h = rng.gen_range(0.5, 20.0);
                r2(x, y, x + w, y + h)
            })
            .collect()
    }

    fn clipped(data: &[Rect<2>], variant: Variant) -> ClippedRTree<2> {
        let items: Vec<(Rect<2>, DataId)> = data
            .iter()
            .enumerate()
            .map(|(i, b)| (*b, DataId(i as u32)))
            .collect();
        let tree = RTree::bulk_load(
            TreeConfig::tiny(variant).with_world(r2(0.0, 0.0, 500.0, 500.0)),
            &items,
        );
        ClippedRTree::from_tree(tree, ClipConfig::paper_default::<2>(ClipMethod::Stairline))
    }

    #[test]
    fn inlj_counts_match_brute_force() {
        let a = boxes(150, 1);
        let b = boxes(200, 2);
        let inner = clipped(&b, Variant::RStar);
        let expected = brute_force_pairs(&a, &b);
        let plain = inlj(&a, &inner, false);
        let with_clips = inlj(&a, &inner, true);
        assert_eq!(plain.pairs, expected);
        assert_eq!(with_clips.pairs, expected);
        assert!(with_clips.leaf_accesses_right <= plain.leaf_accesses_right);
    }

    #[test]
    fn stt_counts_match_brute_force() {
        for variant in Variant::ALL {
            let a = boxes(150, 3);
            let b = boxes(180, 4);
            let left = clipped(&a, variant);
            let right = clipped(&b, variant);
            let expected = brute_force_pairs(&a, &b);
            let plain = stt(&left, &right, false);
            let with_clips = stt(&left, &right, true);
            assert_eq!(plain.pairs, expected, "{variant:?}");
            assert_eq!(with_clips.pairs, expected, "{variant:?}");
            assert!(
                with_clips.leaf_accesses_left + with_clips.leaf_accesses_right
                    <= plain.leaf_accesses_left + plain.leaf_accesses_right,
                "{variant:?}: clipping increased STT I/O"
            );
        }
    }

    #[test]
    fn stt_handles_different_heights() {
        let a = boxes(30, 5); // short tree
        let b = boxes(900, 6); // taller tree
        let left = clipped(&a, Variant::Quadratic);
        let right = clipped(&b, Variant::Quadratic);
        assert!(left.tree.height() < right.tree.height());
        let expected = brute_force_pairs(&a, &b);
        assert_eq!(stt(&left, &right, true).pairs, expected);
        // Symmetric order.
        assert_eq!(stt(&right, &left, true).pairs, expected);
    }

    #[test]
    fn disjoint_inputs_join_empty() {
        let a = vec![r2(0.0, 0.0, 10.0, 10.0)];
        let b = vec![r2(400.0, 400.0, 410.0, 410.0)];
        let left = clipped(&a, Variant::RRStar);
        let right = clipped(&b, Variant::RRStar);
        let res = stt(&left, &right, true);
        assert_eq!(res.pairs, 0);
        assert_eq!(res.leaf_accesses_left + res.leaf_accesses_right, 0);
        assert_eq!(inlj(&a, &right, true).pairs, 0);
    }

    #[test]
    fn empty_tree_joins() {
        let a = boxes(50, 7);
        let left = clipped(&a, Variant::Hilbert);
        let empty = ClippedRTree::from_tree(
            RTree::new(TreeConfig::tiny(Variant::Hilbert)),
            ClipConfig::paper_default::<2>(ClipMethod::Skyline),
        );
        assert_eq!(stt(&left, &empty, true).pairs, 0);
        assert_eq!(stt(&empty, &left, true).pairs, 0);
        assert_eq!(inlj(&a, &empty, true).pairs, 0);
    }

    #[test]
    fn self_join_counts_all_pairs_including_self() {
        let a = boxes(100, 8);
        let t = clipped(&a, Variant::RStar);
        let res = stt(&t, &t, true);
        // Self-join includes (i, i) pairs and both (i, j), (j, i).
        assert_eq!(res.pairs, brute_force_pairs(&a, &a));
        assert!(res.pairs >= a.len() as u64);
    }

    fn columns(data: &[Rect<2>]) -> TileColumns<2> {
        let items: Vec<(Rect<2>, DataId)> = data
            .iter()
            .enumerate()
            .map(|(i, b)| (*b, DataId(i as u32)))
            .collect();
        TileColumns::from_items(&items)
    }

    #[test]
    fn sweep_counts_match_brute_force() {
        let a = boxes(150, 12);
        let b = boxes(200, 13);
        let res = sweep(&columns(&a), &columns(&b));
        assert_eq!(res.pairs, brute_force_pairs(&a, &b));
        assert_eq!(res.leaf_accesses(), 0, "the sweep touches no index");
        assert!(res.overlap_tests > 0);
        assert!(
            res.overlap_tests < (a.len() * b.len()) as u64,
            "the sort must beat the nested loop"
        );
    }

    /// The claim the sweep kernel exists to make, machine-independently:
    /// on the same pair of inputs, at the paper's node capacity, the
    /// forward scans do strictly fewer overlap tests than probing one
    /// side's clipped tree with every rectangle of the other, and find
    /// exactly the same pairs.
    #[test]
    fn sweep_does_fewer_overlap_tests_than_inlj_with_equal_pairs() {
        let a = boxes(2_000, 26);
        let b = boxes(2_000, 27);
        let items: Vec<(Rect<2>, DataId)> = b
            .iter()
            .enumerate()
            .map(|(i, r)| (*r, DataId(i as u32)))
            .collect();
        let tree = ClippedRTree::from_tree(
            RTree::bulk_load(
                TreeConfig::paper_default(Variant::RStar).with_world(r2(0.0, 0.0, 500.0, 500.0)),
                &items,
            ),
            ClipConfig::paper_default::<2>(ClipMethod::Stairline),
        );
        let swept = sweep(&columns(&a), &columns(&b));
        let probed = inlj(&a, &tree, true);
        assert_eq!(swept.pairs, brute_force_pairs(&a, &b));
        assert_eq!(swept.pairs, probed.pairs);
        assert!(
            swept.overlap_tests < probed.overlap_tests,
            "sweep {} overlap tests, INLJ {}",
            swept.overlap_tests,
            probed.overlap_tests
        );
    }

    #[test]
    fn sweep_self_join_and_degenerate_inputs() {
        // Self-join: (i, i) and both orders of (i, j), like STT.
        let a = boxes(80, 14);
        let c = columns(&a);
        assert_eq!(sweep(&c, &c).pairs, brute_force_pairs(&a, &a));
        // Zero-extent rects (points) and exact duplicates, including
        // x-min ties across both sides.
        let weird = vec![
            r2(5.0, 5.0, 5.0, 5.0),
            r2(5.0, 5.0, 5.0, 5.0),
            r2(5.0, 1.0, 9.0, 9.0),
            r2(5.0, 6.0, 6.0, 7.0),
            r2(0.0, 0.0, 20.0, 20.0),
        ];
        let w = columns(&weird);
        assert_eq!(sweep(&w, &w).pairs, brute_force_pairs(&weird, &weird));
        assert_eq!(sweep(&w, &c).pairs, brute_force_pairs(&weird, &a));
        // Empty sides.
        let empty = columns(&[]);
        assert_eq!(sweep(&empty, &c), JoinResult::default());
        assert_eq!(sweep(&c, &empty), JoinResult::default());
    }

    #[test]
    fn sweep_filter_drops_pairs_but_not_work() {
        let a = boxes(60, 15);
        let b = boxes(60, 16);
        let (ca, cb) = (columns(&a), columns(&b));
        let all = sweep_filtered(&ca, &cb, |_, _| true);
        let none = sweep_filtered(&ca, &cb, |_, _| false);
        assert_eq!(none.pairs, 0);
        assert_eq!(all.overlap_tests, none.overlap_tests);
    }

    #[test]
    fn sweep_scan_chunks_sum_to_whole_exactly() {
        // The decomposition contract the engine's hot-tile chunks rely
        // on: any chunking of both sides' scan ranges sums to the
        // monolithic sweep, counter for counter.
        let a = boxes(300, 17);
        let b = boxes(250, 18);
        let (ca, cb) = (columns(&a), columns(&b));
        let keep = |x: &Rect<2>, y: &Rect<2>| (x.lo[0] + y.lo[0]) as u64 % 3 != 0;
        let whole = sweep_filtered(&ca, &cb, keep);
        for chunk in [1usize, 7, 64, 1000] {
            let mut sum = JoinResult::default();
            for side in [SweepSide::Left, SweepSide::Right] {
                let n = match side {
                    SweepSide::Left => ca.len(),
                    SweepSide::Right => cb.len(),
                };
                let mut lo = 0;
                while lo < n {
                    let hi = (lo + chunk).min(n);
                    sum += sweep_scan(&ca, &cb, side, lo, hi, keep);
                    lo = hi;
                }
            }
            assert_eq!(sum, whole, "chunk={chunk}");
        }
    }

    #[test]
    fn sweep_precheck_window_and_clips() {
        // Disjoint bounds: pruned by the window alone, one test counted.
        let far = columns(&[r2(400.0, 400.0, 410.0, 410.0)]);
        let near = columns(&[r2(0.0, 0.0, 10.0, 10.0)]);
        let (base, go) = sweep_precheck(&near, &[], &far, &[]);
        assert!(!go);
        assert_eq!(base.overlap_tests, 1);
        assert_eq!(base.clip_prunes, 0);
        // Empty side: nothing to do, nothing counted.
        let (base, go) = sweep_precheck(&near, &[], &columns(&[]), &[]);
        assert!(!go);
        assert_eq!(base, JoinResult::default());
        // Clip pre-check: diagonal data leaves the off-diagonal corners
        // as dead space; a probe set living only there must be pruned by
        // the CBB test even though the plain windows intersect.
        let diag = vec![r2(0.0, 0.0, 10.0, 10.0), r2(90.0, 90.0, 100.0, 100.0)];
        let corner = vec![r2(15.0, 70.0, 25.0, 80.0)];
        let (cd, cc) = (columns(&diag), columns(&corner));
        let tree = clipped(&diag, Variant::RStar);
        let root_clips = tree.clips_of(tree.tree.root_id());
        assert!(!root_clips.is_empty(), "diagonal layout must clip");
        let (_, go) = sweep_precheck(&cd, &[], &cc, &[]);
        assert!(go, "plain windows intersect");
        let (base, go) = sweep_precheck(&cd, root_clips, &cc, &[]);
        assert!(!go, "the corner window must die on the CBB");
        assert_eq!(base.clip_prunes, 1);
        // Clips never change the answer when the sweep does run.
        let a = boxes(120, 19);
        let b = boxes(120, 20);
        let (ca, cb) = (columns(&a), columns(&b));
        let ta = clipped(&a, Variant::RStar);
        let (_, go) = sweep_precheck(&ca, ta.clips_of(ta.tree.root_id()), &cb, &[]);
        assert!(go);
        assert_eq!(sweep(&ca, &cb).pairs, brute_force_pairs(&a, &b));
    }

    #[test]
    fn columns_are_sorted_and_roundtrip() {
        let a = boxes(50, 21);
        let c = columns(&a);
        assert_eq!(c.len(), a.len());
        for i in 1..c.len() {
            assert!(c.rect(i - 1).lo[0] <= c.rect(i).lo[0]);
        }
        let mut got: Vec<(u32, Rect<2>)> = (0..c.len()).map(|i| (c.id(i).0, c.rect(i))).collect();
        got.sort_by_key(|(id, _)| *id);
        for (i, (id, r)) in got.iter().enumerate() {
            assert_eq!(*id as usize, i);
            assert_eq!(*r, a[i]);
        }
        assert_eq!(c.rects().len(), a.len());
        assert_eq!(c.bounds(), Rect::mbb_of(&a));
    }

    /// Fused hits gathered per query id, sorted, plus the tests total.
    fn run_sweep_queries(queries: &[Rect<2>], objects: &[Rect<2>]) -> (Vec<Vec<DataId>>, Vec<u64>) {
        let qc = columns(queries);
        let oc = columns(objects);
        let mut tests = vec![0u64; qc.len()];
        let mut hits: Vec<Vec<DataId>> = vec![Vec::new(); queries.len()];
        sweep_queries(&qc, &oc, &mut tests, |pos, id| {
            hits[qc.id(pos).0 as usize].push(id);
        });
        for list in &mut hits {
            list.sort_unstable();
        }
        // Re-attribute tests from sweep position to query id.
        let mut by_query = vec![0u64; queries.len()];
        for (pos, n) in tests.iter().enumerate() {
            by_query[qc.id(pos).0 as usize] += n;
        }
        (hits, by_query)
    }

    #[test]
    fn sweep_queries_matches_brute_force_per_query() {
        let objects = boxes(200, 26);
        let queries = boxes(40, 27);
        let (hits, tests) = run_sweep_queries(&queries, &objects);
        for (qi, q) in queries.iter().enumerate() {
            let expected: Vec<DataId> = objects
                .iter()
                .enumerate()
                .filter(|(_, o)| q.intersects(o))
                .map(|(i, _)| DataId(i as u32))
                .collect();
            assert_eq!(hits[qi], expected, "query {qi}");
        }
        // Counter-exact against the join kernel it reuses: the summed
        // per-query tests ARE the sweep's overlap tests.
        let aggregate = sweep(&columns(&queries), &columns(&objects));
        assert_eq!(tests.iter().sum::<u64>(), aggregate.overlap_tests);
        let pairs: u64 = hits.iter().map(|h| h.len() as u64).sum();
        assert_eq!(pairs, aggregate.pairs);
    }

    #[test]
    fn sweep_queries_degenerate_inputs() {
        // Point queries, duplicate rects, x-min ties straddling both
        // sides, empty sides — each pair still found exactly once.
        let objects = vec![
            r2(5.0, 5.0, 5.0, 5.0),
            r2(5.0, 5.0, 5.0, 5.0),
            r2(5.0, 1.0, 9.0, 9.0),
            r2(0.0, 0.0, 20.0, 20.0),
        ];
        let queries = vec![
            r2(5.0, 5.0, 5.0, 5.0), // point query tying the point objects
            r2(5.0, 0.0, 5.0, 50.0),
            r2(30.0, 30.0, 40.0, 40.0), // no hits
        ];
        let (hits, _) = run_sweep_queries(&queries, &objects);
        for (qi, q) in queries.iter().enumerate() {
            let expected: Vec<DataId> = objects
                .iter()
                .enumerate()
                .filter(|(_, o)| q.intersects(o))
                .map(|(i, _)| DataId(i as u32))
                .collect();
            assert_eq!(hits[qi], expected, "query {qi}");
        }
        let empty = columns(&[]);
        let mut tests: Vec<u64> = Vec::new();
        sweep_queries(&empty, &columns(&objects), &mut tests, |_, _| {
            panic!("no queries, no pairs")
        });
        let mut tests = vec![0u64; queries.len()];
        sweep_queries(&columns(&queries), &empty, &mut tests, |_, _| {
            panic!("no objects, no pairs")
        });
        assert_eq!(tests, vec![0; queries.len()]);
    }

    #[test]
    fn sweep_queries_chunks_sum_to_whole_exactly() {
        // The decomposition contract mirrors sweep_scan: any chunking of
        // both sides' outer ranges reproduces the whole fused batch —
        // same pairs, same per-query tests.
        let objects = boxes(300, 28);
        let queries = boxes(64, 29);
        let qc = columns(&queries);
        let oc = columns(&objects);
        let mut whole_tests = vec![0u64; qc.len()];
        let mut whole_pairs: Vec<(usize, DataId)> = Vec::new();
        sweep_queries(&qc, &oc, &mut whole_tests, |pos, id| {
            whole_pairs.push((pos, id));
        });
        whole_pairs.sort_unstable();
        for chunk in [1usize, 9, 50, 1000] {
            let mut tests = vec![0u64; qc.len()];
            let mut pairs: Vec<(usize, DataId)> = Vec::new();
            for side in [SweepSide::Left, SweepSide::Right] {
                let n = match side {
                    SweepSide::Left => qc.len(),
                    SweepSide::Right => oc.len(),
                };
                let mut lo = 0;
                while lo < n {
                    let hi = (lo + chunk).min(n);
                    sweep_queries_scan(&qc, &oc, side, lo, hi, &mut tests, &mut |pos, id| {
                        pairs.push((pos, id))
                    });
                    lo = hi;
                }
            }
            pairs.sort_unstable();
            assert_eq!(tests, whole_tests, "chunk={chunk}");
            assert_eq!(pairs, whole_pairs, "chunk={chunk}");
        }
    }

    #[test]
    fn sweep_pairs_equal_stt_pairs() {
        for (na, nb, sa, sb) in [(150, 180, 22, 23), (40, 400, 24, 25)] {
            let a = boxes(na, sa);
            let b = boxes(nb, sb);
            let by_sweep = sweep(&columns(&a), &columns(&b));
            let by_stt = stt(
                &clipped(&a, Variant::RStar),
                &clipped(&b, Variant::RStar),
                true,
            );
            assert_eq!(by_sweep.pairs, by_stt.pairs);
        }
    }
}
