//! Instrumented range and k-nearest-neighbour queries over the base
//! tree, plus the clip-aware kNN of [`ClippedRTree`].
//!
//! kNN is the classic best-first (MINDIST-ordered) search of Hjaltason &
//! Samet: a priority queue holds nodes and objects keyed by their squared
//! minimum distance to the query point, and the search stops once the
//! next queue entry is farther than the current k-th best.
//!
//! Clip points tighten that search: the clip regions are dead space, so
//! a node's MINDIST can be raised from the distance to its MBB to the
//! distance to its *live* remainder
//! ([`cbb_core::clipped_min_dist_sq`]). This matters exactly in corner
//! regions — a probe outside a clipped corner sees the node pushed away
//! and skips it once k candidates are closer. Answers are identical to
//! the base-tree search (the bound is a true lower bound); only the
//! visit order and the access counters improve.
//!
//! A partitioned store answers one probe from several trees — one per
//! tile — and the k nearest objects of the union are what it wants, not
//! k per tree. [`ClippedRTree::knn_merge_stats`] therefore runs the same
//! best-first search *into* a running k-nearest set: it prunes from the
//! k-th distance the earlier trees already reached, so a later tree
//! opens only the nodes that can still improve the answer, and it skips
//! an object already in the set (one assigned to several tiles).
//! [`ClippedRTree::knn_stats`] is that search on an empty set.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use cbb_core::clipped_min_dist_sq;
use cbb_geom::{Point, Rect};

use crate::clipped::ClippedRTree;
use crate::node::{Child, DataId, NodeId};
use crate::stats::AccessStats;
use crate::tree::RTree;

/// A kNN answer entry: the object and its squared minimum distance to
/// the query point (squared to stay exact — no square root is taken
/// anywhere in the search).
pub type Neighbor = (DataId, f64);

/// What a best-first queue entry points at.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Target {
    Node(NodeId),
    Object(DataId),
}

/// Best-first queue entry ordered by (distance, target) — the target
/// tie-break makes the pop order (and therefore the access counters)
/// deterministic even among equidistant entries.
#[derive(Clone, Copy, Debug)]
struct QueueEntry {
    dist: f64,
    target: Target,
}

impl QueueEntry {
    /// Sort key: distance first, then objects before nodes, then id —
    /// a total order (distances come from finite MBBs).
    fn key(&self) -> (f64, u8, u32) {
        match self.target {
            Target::Object(id) => (self.dist, 0, id.0),
            Target::Node(id) => (self.dist, 1, id.0),
        }
    }
}

impl PartialEq for QueueEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for QueueEntry {}

impl PartialOrd for QueueEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for QueueEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, the search wants min-first.
        let (a, b) = (self.key(), other.key());
        b.0.total_cmp(&a.0)
            .then_with(|| b.1.cmp(&a.1))
            .then_with(|| b.2.cmp(&a.2))
    }
}

/// Insert `(id, dist)` into `best`, kept sorted by `(dist, id)` and
/// truncated to `k` entries — the running k-nearest set. Shared by the
/// tree-level search here and by merging layers above it (the engine's
/// shard merge), so the tie-break order cannot diverge between them.
///
/// An entry equal to one already in the set is not added twice: an
/// object indexed in several trees (or shards) is reached once per
/// tree, always at the same distance, so a repeat lands exactly on its
/// first copy's `(dist, id)` position.
pub fn push_neighbor(best: &mut Vec<Neighbor>, k: usize, id: DataId, dist: f64) {
    let pos =
        best.partition_point(|&(bid, bd)| bd.total_cmp(&dist).then_with(|| bid.cmp(&id)).is_lt());
    if pos < k
        && best
            .get(pos)
            .is_none_or(|&(bid, bd)| bid != id || bd.total_cmp(&dist).is_ne())
    {
        best.insert(pos, (id, dist));
        best.truncate(k);
    }
}

/// The current pruning radius: the k-th best distance once `best` is
/// full, +∞ before that.
fn prune_radius(best: &[Neighbor], k: usize) -> f64 {
    if best.len() == k {
        best[k - 1].1
    } else {
        f64::INFINITY
    }
}

impl<const D: usize> RTree<D> {
    /// All objects whose MBBs intersect `q` (closed-interval semantics).
    pub fn range_query(&self, q: &Rect<D>) -> Vec<DataId> {
        let mut stats = AccessStats::new();
        self.range_query_stats(q, &mut stats)
    }

    /// Range query collecting access statistics (leaf accesses are the
    /// paper's I/O metric; internal nodes are assumed buffered).
    pub fn range_query_stats(&self, q: &Rect<D>, stats: &mut AccessStats) -> Vec<DataId> {
        let mut out = Vec::new();
        self.range_query_visit(q, stats, &mut |_, id| out.push(id));
        out
    }

    /// The range descent itself: calls `visit(rect, id)` for every
    /// object whose MBB intersects `q`, in leaf-scan order, with the
    /// leaf entry's own rect — so a caller that needs the object's
    /// geometry (a duplicate-elimination rule, a refinement step) reads
    /// it from the leaf it is already in. Counts exactly as
    /// [`Self::range_query_stats`], which collects the ids of this
    /// descent; `results` counts every visited object.
    pub fn range_query_visit(
        &self,
        q: &Rect<D>,
        stats: &mut AccessStats,
        visit: &mut impl FnMut(&Rect<D>, DataId),
    ) {
        if !self.is_empty() {
            self.query_node(self.root_id(), q, stats, visit);
        }
    }

    fn query_node(
        &self,
        id: NodeId,
        q: &Rect<D>,
        stats: &mut AccessStats,
        visit: &mut impl FnMut(&Rect<D>, DataId),
    ) {
        let node = self.node(id);
        stats.overlap_tests += node.entries.len() as u64;
        if node.is_leaf() {
            stats.leaf_accesses += 1;
            let mut found = 0u64;
            for e in &node.entries {
                if e.mbb.intersects(q) {
                    visit(&e.mbb, e.child.data_id());
                    found += 1;
                }
            }
            stats.results += found;
            if found > 0 {
                stats.contributing_leaf_accesses += 1;
            }
        } else {
            stats.internal_accesses += 1;
            for e in &node.entries {
                if e.mbb.intersects(q) {
                    if let Child::Node(child) = e.child {
                        self.query_node(child, q, stats, visit);
                    }
                }
            }
        }
    }

    /// The `k` objects nearest to `p` (by minimum distance between `p`
    /// and the object MBB), sorted by `(squared distance, id)`. Ties at
    /// the k-th place resolve to the smaller id, so the answer set is
    /// uniquely defined.
    pub fn knn(&self, p: &Point<D>, k: usize) -> Vec<Neighbor> {
        let mut stats = AccessStats::new();
        self.knn_stats(p, k, &mut stats)
    }

    /// [`Self::knn`] collecting access statistics. Best-first search:
    /// only nodes whose MINDIST beats the current k-th best are opened,
    /// so leaf accesses stay near the optimum for the tree layout.
    pub fn knn_stats(&self, p: &Point<D>, k: usize, stats: &mut AccessStats) -> Vec<Neighbor> {
        let mut best: Vec<Neighbor> = Vec::new();
        if k == 0 || self.is_empty() {
            return best;
        }
        let mut queue = BinaryHeap::new();
        queue.push(QueueEntry {
            dist: 0.0,
            target: Target::Node(self.root_id()),
        });
        while let Some(entry) = queue.pop() {
            // Strict: equidistant entries are still explored so the
            // (dist, id) tie-break stays exact at the k-th place.
            if entry.dist > prune_radius(&best, k) {
                break;
            }
            match entry.target {
                Target::Object(id) => push_neighbor(&mut best, k, id, entry.dist),
                Target::Node(id) => {
                    let node = self.node(id);
                    if node.is_leaf() {
                        stats.leaf_accesses += 1;
                    } else {
                        stats.internal_accesses += 1;
                    }
                    for e in &node.entries {
                        let dist = e.mbb.min_dist_sq(p);
                        // The radius only shrinks, so pruning against
                        // the current one is safe at push time too.
                        if dist > prune_radius(&best, k) {
                            continue;
                        }
                        let target = match e.child {
                            Child::Node(n) => Target::Node(n),
                            Child::Data(d) => Target::Object(d),
                        };
                        queue.push(QueueEntry { dist, target });
                    }
                }
            }
        }
        stats.results += best.len() as u64;
        best
    }
}

impl<const D: usize> ClippedRTree<D> {
    /// Clip-aware exact kNN: identical answers to [`RTree::knn`], with
    /// clip points tightening node MINDISTs (see the module docs).
    pub fn knn(&self, p: &Point<D>, k: usize) -> Vec<Neighbor> {
        let mut stats = AccessStats::new();
        self.knn_stats(p, k, &mut stats)
    }

    /// [`Self::knn`] collecting access statistics: [`Self::knn_merge_stats`]
    /// into an empty set.
    pub fn knn_stats(&self, p: &Point<D>, k: usize, stats: &mut AccessStats) -> Vec<Neighbor> {
        let mut best = Vec::new();
        self.knn_merge_stats(p, k, stats, &mut best);
        best
    }

    /// Merge this tree's objects into `best`, a running k-nearest set
    /// sorted by `(squared distance, id)` (empty, or left by earlier
    /// calls on other trees): afterwards `best` is the `(dist, id)`
    /// top-`k` of its old entries plus this tree's objects.
    ///
    /// The best-first search starts from `best`'s current k-th distance
    /// rather than from +∞, so the root and every node farther than the
    /// answer so far are never opened. An object already in `best` — the
    /// same id at the same distance, i.e. one indexed in several trees —
    /// is not added twice ([`push_neighbor`]). Pruning is strict (`>`):
    /// equidistant entries are still explored, so the `(dist, id)`
    /// tie-break at the k-th place stays exact.
    ///
    /// Counters: `clip_tests` counts bound evaluations; `clip_prunes`
    /// counts nodes whose plain MINDIST was within the pruning radius
    /// but whose clip-tightened bound was not; `results` counts the
    /// entries by which `best` grew — from an empty set the answer's
    /// length, and summed over the trees a probe visits, the probe's
    /// answer length.
    pub fn knn_merge_stats(
        &self,
        p: &Point<D>,
        k: usize,
        stats: &mut AccessStats,
        best: &mut Vec<Neighbor>,
    ) {
        if k == 0 || self.tree.is_empty() {
            return;
        }
        let seeded = best.len();
        let root = self.tree.root_id();
        let root_clips = self.clips_of(root);
        stats.clip_tests += root_clips.len() as u64;
        let mut queue = BinaryHeap::new();
        queue.push(QueueEntry {
            dist: clipped_min_dist_sq(&self.tree.node(root).mbb, root_clips, p),
            target: Target::Node(root),
        });
        while let Some(entry) = queue.pop() {
            if entry.dist > prune_radius(best, k) {
                // The search is over: everything still queued is at
                // least this far. Attribute the nodes the *plain*
                // MINDIST would have opened — skipped only thanks to
                // their clip-tightened keys — to `clip_prunes`.
                let radius = prune_radius(best, k);
                for e in std::iter::once(entry).chain(queue.drain()) {
                    if let Target::Node(id) = e.target {
                        if self.tree.node(id).mbb.min_dist_sq(p) <= radius {
                            stats.clip_prunes += 1;
                        }
                    }
                }
                break;
            }
            match entry.target {
                Target::Object(id) => push_neighbor(best, k, id, entry.dist),
                Target::Node(id) => {
                    let node = self.tree.node(id);
                    if node.is_leaf() {
                        stats.leaf_accesses += 1;
                    } else {
                        stats.internal_accesses += 1;
                    }
                    for e in &node.entries {
                        let plain = e.mbb.min_dist_sq(p);
                        if plain > prune_radius(best, k) {
                            continue;
                        }
                        match e.child {
                            Child::Data(d) => queue.push(QueueEntry {
                                dist: plain,
                                target: Target::Object(d),
                            }),
                            Child::Node(n) => {
                                let clips = self.clips_of(n);
                                stats.clip_tests += clips.len() as u64;
                                let dist = clipped_min_dist_sq(&e.mbb, clips, p);
                                if dist > prune_radius(best, k) {
                                    // The plain bound admitted this child;
                                    // only the clip points excluded it.
                                    stats.clip_prunes += 1;
                                    continue;
                                }
                                queue.push(QueueEntry {
                                    dist,
                                    target: Target::Node(n),
                                });
                            }
                        }
                    }
                }
            }
        }
        stats.results += (best.len() - seeded) as u64;
    }
}

impl<const D: usize> RTree<D> {
    /// Collect every `(mbb, id)` stored in the tree (test/debug helper).
    pub fn all_objects(&self) -> Vec<(Rect<D>, DataId)> {
        let mut out = Vec::with_capacity(self.len());
        for (_, node) in self.iter_nodes() {
            if node.is_leaf() {
                for e in &node.entries {
                    out.push((e.mbb, e.child.data_id()));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{TreeConfig, Variant};
    use cbb_geom::Point;

    fn grid_tree(variant: Variant) -> RTree<2> {
        // 10×10 grid of unit boxes.
        let mut tree = RTree::new(TreeConfig::tiny(variant));
        let mut id = 0;
        for x in 0..10 {
            for y in 0..10 {
                let lo = Point([x as f64 * 2.0, y as f64 * 2.0]);
                let r = Rect::new(lo, Point([lo[0] + 1.0, lo[1] + 1.0]));
                tree.insert(r, DataId(id));
                id += 1;
            }
        }
        tree
    }

    #[test]
    fn query_returns_exactly_intersecting_objects() {
        for variant in Variant::ALL {
            let tree = grid_tree(variant);
            // A query covering the 2×2 block of cells at origin.
            let q = Rect::new(Point([0.0, 0.0]), Point([3.0, 3.0]));
            let mut res = tree.range_query(&q);
            res.sort();
            // Cells (0,0), (0,1), (1,0), (1,1) → ids 0, 1, 10, 11.
            assert_eq!(
                res,
                vec![DataId(0), DataId(1), DataId(10), DataId(11)],
                "{variant:?}"
            );
        }
    }

    #[test]
    fn empty_query_region() {
        let tree = grid_tree(Variant::RStar);
        let q = Rect::new(Point([100.0, 100.0]), Point([110.0, 110.0]));
        assert!(tree.range_query(&q).is_empty());
    }

    #[test]
    fn stats_count_accesses() {
        let tree = grid_tree(Variant::Quadratic);
        let mut stats = AccessStats::new();
        let q = Rect::new(Point([0.0, 0.0]), Point([3.0, 3.0]));
        let res = tree.range_query_stats(&q, &mut stats);
        assert_eq!(res.len() as u64, stats.results);
        assert!(stats.leaf_accesses >= 1);
        assert!(stats.contributing_leaf_accesses <= stats.leaf_accesses);
    }

    #[test]
    fn boundary_touch_counts_as_intersection() {
        let tree = grid_tree(Variant::RRStar);
        // Query touching cell (0,0) exactly at its right edge x = 1.
        let q = Rect::new(Point([1.0, 0.0]), Point([1.5, 0.5]));
        let res = tree.range_query(&q);
        assert!(res.contains(&DataId(0)));
    }

    /// Brute-force kNN oracle: sort all objects by (dist², id), take k.
    fn brute_knn(tree: &RTree<2>, p: &Point<2>, k: usize) -> Vec<Neighbor> {
        let mut all: Vec<Neighbor> = tree
            .all_objects()
            .into_iter()
            .map(|(mbb, id)| (id, mbb.min_dist_sq(p)))
            .collect();
        all.sort_by(|a, b| a.1.total_cmp(&b.1).then_with(|| a.0.cmp(&b.0)));
        all.truncate(k);
        all
    }

    #[test]
    fn knn_matches_brute_force_all_variants() {
        for variant in Variant::ALL {
            let tree = grid_tree(variant);
            for (px, py) in [(0.0, 0.0), (9.7, 9.7), (25.0, 3.0), (-4.0, 40.0)] {
                let p = Point([px, py]);
                for k in [1, 3, 10, 100, 150] {
                    let got = tree.knn(&p, k);
                    assert_eq!(got, brute_knn(&tree, &p, k), "{variant:?} k={k} p={p:?}");
                }
            }
        }
    }

    #[test]
    fn knn_ties_resolve_by_id() {
        // The query point is equidistant from the four cells around it;
        // the k-th place must go to the smaller ids.
        let tree = grid_tree(Variant::RStar);
        let p = Point([1.5, 1.5]); // between cells (0,0), (0,1), (1,0), (1,1)
        let got = tree.knn(&p, 2);
        assert_eq!(got, brute_knn(&tree, &p, 2));
        assert_eq!(got[0].0, DataId(0));
        assert_eq!(got[1].0, DataId(1));
        assert_eq!(got[0].1, got[1].1, "all four cells are equidistant");
    }

    #[test]
    fn knn_edge_cases_and_stats() {
        let tree = grid_tree(Variant::Quadratic);
        let p = Point([5.0, 5.0]);
        assert!(tree.knn(&p, 0).is_empty());
        let empty = RTree::<2>::new(TreeConfig::tiny(Variant::RStar));
        assert!(empty.knn(&p, 3).is_empty());
        // Inside an object: distance zero comes first.
        let inside = Point([0.5, 0.5]);
        assert_eq!(tree.knn(&inside, 1), vec![(DataId(0), 0.0)]);
        // Best-first reads fewer leaves than exhausting the tree.
        let mut stats = AccessStats::new();
        let got = tree.knn_stats(&p, 3, &mut stats);
        assert_eq!(got.len(), 3);
        assert_eq!(stats.results, 3);
        assert!(stats.leaf_accesses >= 1);
        assert!(
            stats.leaf_accesses < tree.leaf_count() as u64,
            "best-first search must not scan every leaf"
        );
    }

    /// Diagonal data: every node's MBB is a square around a stretch of
    /// the diagonal, so both off-diagonal corners are dead space — the
    /// layout clip-aware kNN exists for.
    fn diagonal_clipped(variant: Variant) -> crate::ClippedRTree<2> {
        use cbb_core::{ClipConfig, ClipMethod};
        let mut tree = RTree::new(TreeConfig::tiny(variant));
        for i in 0..150 {
            let t = i as f64 * 15.0;
            let r = Rect::new(Point([t, t]), Point([t + 10.0, t + 10.0]));
            tree.insert(r, DataId(i));
        }
        crate::ClippedRTree::from_tree(tree, ClipConfig::paper_default::<2>(ClipMethod::Stairline))
    }

    #[test]
    fn clipped_knn_matches_base_tree_exactly() {
        for variant in Variant::ALL {
            let clipped = diagonal_clipped(variant);
            // Dense probe sweep: on the diagonal, off in both corner
            // directions, and far outside the data.
            for t in [-150.0, 0.0, 400.0, 1_100.0, 2_400.0] {
                for off in [0.0, 35.0, 220.0, 900.0] {
                    for p in [Point([t + off, t - off]), Point([t - off, t + off])] {
                        for k in [1, 4, 17, 80, 200] {
                            assert_eq!(
                                clipped.knn(&p, k),
                                clipped.tree.knn(&p, k),
                                "{variant:?} p={p:?} k={k}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn clipped_knn_prunes_corner_probes() {
        // Aggregate over off-diagonal probes: the clip-tightened bound
        // must cut node accesses, never add any, and actually fire.
        let clipped = diagonal_clipped(Variant::RStar);
        let mut base_stats = AccessStats::new();
        let mut clip_stats = AccessStats::new();
        for i in 0..60 {
            // Probes sitting in the dead corners beside the diagonal.
            let t = 30.0 * i as f64;
            let off = 80.0 + 9.0 * (i % 7) as f64;
            let p = Point([t + off, t - off]);
            for k in [1, 3, 8] {
                let base = clipped.tree.knn_stats(&p, k, &mut base_stats);
                let clip = clipped.knn_stats(&p, k, &mut clip_stats);
                assert_eq!(base, clip);
            }
        }
        let base_accesses = base_stats.leaf_accesses + base_stats.internal_accesses;
        let clip_accesses = clip_stats.leaf_accesses + clip_stats.internal_accesses;
        assert!(
            clip_accesses <= base_accesses,
            "clip-aware kNN added accesses ({clip_accesses} vs {base_accesses})"
        );
        assert!(
            clip_accesses < base_accesses,
            "corner probes must save accesses ({clip_accesses} vs {base_accesses})"
        );
        assert!(clip_stats.clip_prunes > 0, "the bound never fired");
        assert!(clip_stats.clip_tests > 0);
        assert_eq!(base_stats.results, clip_stats.results);
    }

    #[test]
    fn knn_merge_into_a_seeded_set_is_the_top_k_of_the_union() {
        let mut rng = cbb_geom::SplitMix64::new(31);
        for variant in [Variant::RStar, Variant::Quadratic] {
            let clipped = diagonal_clipped(variant);
            let unclipped = crate::ClippedRTree::unclipped(clipped.tree.clone());
            let objects = clipped.tree.all_objects();
            for round in 0..40 {
                let t = rng.gen_range(-100.0, 2_400.0);
                let off = rng.gen_range(-300.0, 300.0);
                let p = Point([t + off, t - off]);
                let k = [1, 2, 5, 13, 200][round % 5];
                // The seed: some of the tree's own objects at their true
                // distances (what an earlier tile of a spanning object
                // reports) and some foreign ids at made-up distances,
                // trimmed to a valid running set.
                let mut seed: Vec<Neighbor> = Vec::new();
                for _ in 0..(round % 7) {
                    let (mbb, id) = objects[rng.gen_range(0.0, objects.len() as f64) as usize];
                    push_neighbor(&mut seed, k, id, mbb.min_dist_sq(&p));
                    let foreign = DataId(10_000 + rng.gen_range(0.0, 50.0) as u32);
                    push_neighbor(&mut seed, k, foreign, rng.gen_range(0.0, 400_000.0));
                }
                let mut union: Vec<Neighbor> = objects
                    .iter()
                    .map(|(mbb, id)| (*id, mbb.min_dist_sq(&p)))
                    .chain(seed.iter().copied().filter(|(id, _)| id.0 >= 10_000))
                    .collect();
                union.sort_by(|a, b| a.1.total_cmp(&b.1).then_with(|| a.0.cmp(&b.0)));
                union.dedup();
                union.truncate(k);
                for tree in [&clipped, &unclipped] {
                    let mut best = seed.clone();
                    let mut stats = AccessStats::new();
                    tree.knn_merge_stats(&p, k, &mut stats, &mut best);
                    assert_eq!(best, union, "{variant:?} p={p:?} k={k} seed={seed:?}");
                    assert_eq!(stats.results, (best.len() - seed.len()) as u64);
                }
            }
        }
    }

    #[test]
    fn unclipped_wrapper_knn_equals_base_with_same_stats() {
        let tree = grid_tree(Variant::Quadratic);
        let wrapped = crate::ClippedRTree::unclipped(tree);
        let p = Point([7.3, 11.9]);
        let mut s1 = AccessStats::new();
        let mut s2 = AccessStats::new();
        let a = wrapped.tree.knn_stats(&p, 6, &mut s1);
        let b = wrapped.knn_stats(&p, 6, &mut s2);
        assert_eq!(a, b);
        assert_eq!(s1, s2, "an empty clip table changes nothing");
        assert_eq!(s2.clip_prunes, 0);
    }

    #[test]
    fn clipped_knn_edge_cases() {
        let clipped = diagonal_clipped(Variant::RRStar);
        let p = Point([200.0, 200.0]);
        assert!(clipped.knn(&p, 0).is_empty());
        let empty =
            crate::ClippedRTree::unclipped(RTree::<2>::new(TreeConfig::tiny(Variant::RStar)));
        assert!(empty.knn(&p, 5).is_empty());
        // k beyond the population returns everything, base-identical.
        assert_eq!(clipped.knn(&p, 10_000), clipped.tree.knn(&p, 10_000));
    }

    #[test]
    fn all_objects_roundtrip() {
        let tree = grid_tree(Variant::Hilbert);
        let mut objs = tree.all_objects();
        objs.sort_by_key(|(_, d)| *d);
        assert_eq!(objs.len(), 100);
        assert_eq!(objs[0].1, DataId(0));
    }
}
