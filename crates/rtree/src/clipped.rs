//! The CBB plug-in (§IV): an auxiliary clip-point table attached to an
//! unmodified R-tree, clipping-enabled queries (Algorithm 2), and the
//! eager/lazy update maintenance of §IV-D with re-clip cause accounting
//! (the Figure 12 measurement).
//!
//! The base tree's layout is untouched, exactly as the paper prescribes:
//! clip points live in a side table indexed by node id (Figure 4b), so any
//! variant can be clipped after the fact.

use cbb_core::{
    clip_node, insertion_keeps_clips_valid, query_intersects_cbb, ClipConfig, ClipPoint,
};
use cbb_geom::Rect;

use crate::node::{Child, DataId, NodeId};
use crate::stats::AccessStats;
use crate::tree::{ChangeKind, ChangeLog, RTree};

/// Why a node's CBB was recomputed (the Figure 12 stacked-bar causes).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MaintenanceStats {
    /// Re-clips forced by node splits (splits always rewrite the node).
    pub reclips_split: u64,
    /// Re-clips forced by an MBB change without a split.
    pub reclips_mbb: u64,
    /// Re-clips triggered by the eager validity test alone (MBB unchanged;
    /// Algorithm 2 with `selector = 0` returned FALSE).
    pub reclips_cbb: u64,
    /// Validity tests executed.
    pub validity_tests: u64,
    /// Top-level insert operations observed.
    pub inserts: u64,
    /// Top-level delete operations observed.
    pub deletes: u64,
}

impl MaintenanceStats {
    /// Total re-clips from any cause.
    pub fn total_reclips(&self) -> u64 {
        self.reclips_split + self.reclips_mbb + self.reclips_cbb
    }
}

/// An R-tree with the CBB auxiliary structure attached.
#[derive(Clone, Debug)]
pub struct ClippedRTree<const D: usize> {
    /// The unmodified base tree.
    pub tree: RTree<D>,
    /// Clip points per node id (dense side table, Figure 4b).
    clips: Vec<Vec<ClipPoint<D>>>,
    /// Clipping parameters (k, τ, CSKY/CSTA).
    pub clip_config: ClipConfig,
    /// Update-maintenance counters.
    pub maintenance: MaintenanceStats,
}

impl<const D: usize> ClippedRTree<D> {
    /// Clip every node of an existing tree (construction-time clipping:
    /// "clip each node prior to flushing it to disk", §V-A).
    pub fn from_tree(tree: RTree<D>, clip_config: ClipConfig) -> Self {
        let mut clipped = ClippedRTree {
            tree,
            clips: Vec::new(),
            clip_config,
            maintenance: MaintenanceStats::default(),
        };
        clipped.reclip_all();
        clipped
    }

    /// Attach an *empty* clip table: queries behave exactly like the base
    /// tree. This is the cheap baseline wrapper for executors that want
    /// the [`ClippedRTree`] API without paying Algorithm 1 construction
    /// (e.g. per-partition trees in a no-clipping comparison run).
    pub fn unclipped(tree: RTree<D>) -> Self {
        ClippedRTree {
            tree,
            clips: Vec::new(),
            clip_config: ClipConfig::paper_default::<D>(cbb_core::ClipMethod::Stairline).with_k(0),
            maintenance: MaintenanceStats::default(),
        }
    }

    /// Recompute the clip points of every live node.
    pub fn reclip_all(&mut self) {
        let ids: Vec<NodeId> = self.tree.iter_nodes().map(|(id, _)| id).collect();
        for id in ids {
            self.reclip(id);
        }
    }

    /// Clip points stored for a node (empty slice when none).
    pub fn clips_of(&self, id: NodeId) -> &[ClipPoint<D>] {
        self.clips
            .get(id.0 as usize)
            .map(|v| v.as_slice())
            .unwrap_or(&[])
    }

    /// Recompute one node's clip points from its current entries.
    fn reclip(&mut self, id: NodeId) {
        let node = self.tree.node(id);
        let points = if node.entries.is_empty() {
            Vec::new()
        } else {
            clip_node(&node.mbb, &node.entry_rects(), &self.clip_config)
        };
        let slot = id.0 as usize;
        if self.clips.len() <= slot {
            self.clips.resize_with(slot + 1, Vec::new);
        }
        self.clips[slot] = points;
    }

    fn drop_clips(&mut self, id: NodeId) {
        if let Some(v) = self.clips.get_mut(id.0 as usize) {
            v.clear();
        }
    }

    // ------------------------------------------------------------------
    // Updates (§IV-D)
    // ------------------------------------------------------------------

    /// Insert an object, maintaining clip points eagerly.
    pub fn insert(&mut self, rect: Rect<D>, data: DataId) {
        let log = self.tree.insert(rect, data);
        self.maintenance.inserts += 1;
        self.apply_log(&log);
    }

    /// Delete an object. Deletions are lazy (§IV-D): clips change only when
    /// an MBB changes or a node is dissolved/split; pure entry removals
    /// keep the old (still valid) clip points.
    pub fn delete(&mut self, rect: &Rect<D>, data: DataId) -> bool {
        match self.tree.delete(rect, data) {
            Some(log) => {
                self.maintenance.deletes += 1;
                self.apply_log(&log);
                true
            }
            None => false,
        }
    }

    /// Process a base-tree change log: re-clip split and MBB-changed
    /// nodes; run the eager Algorithm 2 validity test on nodes that only
    /// gained entries.
    fn apply_log(&mut self, log: &ChangeLog<D>) {
        for id in &log.freed {
            self.drop_clips(*id);
        }
        for &(id, kind) in log.changes() {
            if log.freed.contains(&id) {
                continue;
            }
            match kind {
                ChangeKind::Split => {
                    self.reclip(id);
                    self.maintenance.reclips_split += 1;
                }
                ChangeKind::MbbChanged => {
                    self.reclip(id);
                    self.maintenance.reclips_mbb += 1;
                }
                ChangeKind::EntryAdded => {
                    self.maintenance.validity_tests += 1;
                    let mbb = self.tree.node(id).mbb;
                    let clips = self.clips_of(id);
                    let invalid = log
                        .added
                        .iter()
                        .filter(|(nid, _)| *nid == id)
                        .any(|(_, r)| !insertion_keeps_clips_valid(&mbb, clips, r));
                    if invalid {
                        self.reclip(id);
                        self.maintenance.reclips_cbb += 1;
                    }
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Queries (§IV-C)
    // ------------------------------------------------------------------

    /// Clipping-enabled range query.
    pub fn range_query(&self, q: &Rect<D>) -> Vec<DataId> {
        let mut stats = AccessStats::new();
        self.range_query_stats(q, &mut stats)
    }

    /// Clipping-enabled range query with access accounting. Identical
    /// traversal to the base tree, plus one Algorithm 2 test per otherwise
    /// descended child.
    pub fn range_query_stats(&self, q: &Rect<D>, stats: &mut AccessStats) -> Vec<DataId> {
        let mut out = Vec::new();
        self.range_query_visit(q, stats, &mut |_, id| out.push(id));
        out
    }

    /// The clipping-enabled descent itself: calls `visit(rect, id)` for
    /// every object whose MBB intersects `q`, in leaf-scan order, with
    /// the leaf entry's own rect (see [`RTree::range_query_visit`]).
    /// The root's own CBB can prune the whole query. Counts exactly as
    /// [`Self::range_query_stats`], which collects the ids of this
    /// descent.
    pub fn range_query_visit(
        &self,
        q: &Rect<D>,
        stats: &mut AccessStats,
        visit: &mut impl FnMut(&Rect<D>, DataId),
    ) {
        if self.tree.is_empty() {
            return;
        }
        let root = self.tree.root_id();
        let root_mbb = self.tree.node(root).mbb;
        stats.clip_tests += self.clips_of(root).len() as u64;
        if !query_intersects_cbb(&root_mbb, self.clips_of(root), q) {
            stats.clip_prunes += 1;
            return;
        }
        self.query_rec(root, q, stats, visit);
    }

    fn query_rec(
        &self,
        id: NodeId,
        q: &Rect<D>,
        stats: &mut AccessStats,
        visit: &mut impl FnMut(&Rect<D>, DataId),
    ) {
        let node = self.tree.node(id);
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
            return;
        }
        stats.internal_accesses += 1;
        for e in &node.entries {
            if !e.mbb.intersects(q) {
                continue;
            }
            let child = match e.child {
                Child::Node(c) => c,
                Child::Data(_) => unreachable!("directory node with data entry"),
            };
            let clips = self.clips_of(child);
            stats.clip_tests += clips.len() as u64;
            if !query_intersects_cbb(&e.mbb, clips, q) {
                stats.clip_prunes += 1;
                continue;
            }
            self.query_rec(child, q, stats, visit);
        }
    }

    // ------------------------------------------------------------------
    // Introspection
    // ------------------------------------------------------------------

    /// Total stored clip points.
    pub fn total_clip_points(&self) -> usize {
        self.tree
            .iter_nodes()
            .map(|(id, _)| self.clips_of(id).len())
            .sum()
    }

    /// Average stored clip points per node (Figure 13's bar annotations).
    pub fn avg_clips_per_node(&self) -> f64 {
        let nodes = self.tree.node_count();
        if nodes == 0 {
            0.0
        } else {
            self.total_clip_points() as f64 / nodes as f64
        }
    }

    /// Per-scope average of the clipped fraction of node volume (the
    /// upper stacked segment of the Figure 10 bars). Cheap: clip-region
    /// unions are exact over ≤ k boxes. `None` when no node matches.
    pub fn avg_clipped_fraction(&self, scope: crate::metrics::NodeScope) -> Option<f64> {
        let mut clip_sum = 0.0;
        let mut count = 0usize;
        for (id, node) in self.tree.iter_nodes() {
            let keep = match scope {
                crate::metrics::NodeScope::All => true,
                crate::metrics::NodeScope::Leaves => node.is_leaf(),
                crate::metrics::NodeScope::Internal => !node.is_leaf(),
            };
            if !keep || node.entries.is_empty() || node.mbb.volume() <= 0.0 {
                continue;
            }
            let regions: Vec<Rect<D>> = self
                .clips_of(id)
                .iter()
                .map(|c| c.region(&node.mbb))
                .collect();
            clip_sum += cbb_geom::union_volume_exact(&node.mbb, &regions) / node.mbb.volume();
            count += 1;
        }
        if count == 0 {
            None
        } else {
            Some(clip_sum / count as f64)
        }
    }

    /// Audit helper: every stored clip point must be valid for its node's
    /// current entries (zero positive-measure overlap).
    pub fn verify_clips(&self) -> Result<(), String> {
        for (id, node) in self.tree.iter_nodes() {
            let rects = node.entry_rects();
            for c in self.clips_of(id) {
                if !c.is_valid_for(&node.mbb, &rects) {
                    return Err(format!("invalid clip {c:?} on {id:?}"));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{TreeConfig, Variant};
    use cbb_core::ClipMethod;
    use cbb_geom::Point;

    fn r2(lx: f64, ly: f64, hx: f64, hy: f64) -> Rect<2> {
        Rect::new(Point([lx, ly]), Point([hx, hy]))
    }

    /// Deterministic pseudo-random boxes.
    fn boxes(n: usize, seed: u64) -> Vec<Rect<2>> {
        let mut rng = cbb_geom::SplitMix64::new(seed);
        (0..n)
            .map(|_| {
                let x = rng.gen_range(0.0, 950.0);
                let y = rng.gen_range(0.0, 950.0);
                let w = rng.gen_range(0.5, 20.0);
                let h = rng.gen_range(0.5, 20.0);
                r2(x, y, x + w, y + h)
            })
            .collect()
    }

    fn build(variant: Variant, method: ClipMethod, n: usize) -> ClippedRTree<2> {
        let mut tree =
            RTree::new(TreeConfig::tiny(variant).with_world(r2(0.0, 0.0, 1000.0, 1000.0)));
        for (i, b) in boxes(n, 42).into_iter().enumerate() {
            tree.insert(b, DataId(i as u32));
        }
        tree.validate().unwrap();
        ClippedRTree::from_tree(tree, ClipConfig::paper_default::<2>(method))
    }

    #[test]
    fn clipped_queries_match_unclipped_exactly() {
        for variant in Variant::ALL {
            for method in [ClipMethod::Skyline, ClipMethod::Stairline] {
                let clipped = build(variant, method, 300);
                let mut rng = cbb_geom::SplitMix64::new(7);
                for _ in 0..120 {
                    let x = rng.gen_range(0.0, 980.0);
                    let y = rng.gen_range(0.0, 980.0);
                    let s = rng.gen_range(1.0, 60.0);
                    let q = r2(x, y, x + s, y + s);
                    let mut base = clipped.tree.range_query(&q);
                    let mut with_clips = clipped.range_query(&q);
                    base.sort();
                    with_clips.sort();
                    assert_eq!(base, with_clips, "{variant:?}/{method:?} q={q:?}");
                }
            }
        }
    }

    /// A diagonal band of boxes plus degenerate point and segment rects:
    /// the root's off-diagonal corners are dead space, so its clips
    /// prune queries there.
    fn diagonal_with_degenerates() -> Vec<Rect<2>> {
        let mut rng = cbb_geom::SplitMix64::new(17);
        (0..400)
            .map(|i| {
                let t = rng.gen_range(0.0, 980.0);
                let d = rng.gen_range(-15.0, 15.0);
                let (x, y) = (t, (t + d).clamp(0.0, 980.0));
                match i % 4 {
                    0 => r2(x, y, x, y),
                    1 => r2(x, y, x + rng.gen_range(1.0, 20.0), y),
                    2 => r2(x, y, x, y + rng.gen_range(1.0, 20.0)),
                    _ => r2(
                        x,
                        y,
                        x + rng.gen_range(0.5, 12.0),
                        y + rng.gen_range(0.5, 12.0),
                    ),
                }
            })
            .collect()
    }

    /// `range_query_visit` is what `range_query_stats` collects: the
    /// same ids in the same order, the same counters, and each visited
    /// rect is the object's own rect, on the clipped and the base path.
    fn assert_visit_is_collect(tree: &ClippedRTree<2>, rects: &[Rect<2>], q: &Rect<2>) {
        for use_clips in [true, false] {
            let (mut collect_stats, mut visit_stats) = (AccessStats::new(), AccessStats::new());
            let mut visited: Vec<(Rect<2>, DataId)> = Vec::new();
            let mut visit = |r: &Rect<2>, id: DataId| visited.push((*r, id));
            let ids = if use_clips {
                tree.range_query_visit(q, &mut visit_stats, &mut visit);
                tree.range_query_stats(q, &mut collect_stats)
            } else {
                tree.tree.range_query_visit(q, &mut visit_stats, &mut visit);
                tree.tree.range_query_stats(q, &mut collect_stats)
            };
            let visited_ids: Vec<DataId> = visited.iter().map(|&(_, id)| id).collect();
            assert_eq!(visited_ids, ids, "clips {use_clips} q={q:?}");
            assert_eq!(visit_stats, collect_stats, "clips {use_clips} q={q:?}");
            assert_eq!(visit_stats.results, ids.len() as u64);
            for (r, id) in visited {
                assert_eq!(r, rects[id.0 as usize], "{id:?} visited under another rect");
                assert!(r.intersects(q));
            }
        }
    }

    #[test]
    fn range_visitor_is_the_collector() {
        let rects = diagonal_with_degenerates();
        let mut base = RTree::new(TreeConfig::tiny(Variant::RStar));
        for (i, r) in rects.iter().enumerate() {
            base.insert(*r, DataId(i as u32));
        }
        let clipped = ClippedRTree::from_tree(
            base.clone(),
            ClipConfig::paper_default::<2>(ClipMethod::Stairline),
        );
        let unclipped = ClippedRTree::unclipped(base);
        let empty = ClippedRTree::unclipped(RTree::new(TreeConfig::tiny(Variant::RStar)));

        // A point deep in the root's dead lower-right corner: the root's
        // own clips prune it before any node is read.
        let root = clipped.tree.root_id();
        let root_mbb = clipped.tree.node(root).mbb;
        let corner = clipped
            .clips_of(root)
            .iter()
            .map(|c| c.region(&root_mbb))
            .max_by(|a, b| a.volume().total_cmp(&b.volume()))
            .expect("the diagonal's root is clipped");
        let pruned = Rect::point(corner.center());
        let mut stats = AccessStats::new();
        assert!(clipped.range_query_stats(&pruned, &mut stats).is_empty());
        assert_eq!(stats.clip_prunes, 1, "the root's clips prune the query");
        assert_eq!(stats.leaf_accesses + stats.internal_accesses, 0);

        let mut rng = cbb_geom::SplitMix64::new(5);
        let mut queries = vec![pruned, rects[0], rects[1], rects[2], root_mbb];
        for _ in 0..150 {
            let (x, y) = (rng.gen_range(0.0, 990.0), rng.gen_range(0.0, 990.0));
            let s = rng.gen_range(0.0, 80.0);
            queries.push(r2(x, y, x + s, y + s));
            // Degenerate queries: a point and a horizontal segment.
            queries.push(r2(x, y, x, y));
            queries.push(r2(x, y, x + s, y));
        }
        for q in &queries {
            for tree in [&clipped, &unclipped, &empty] {
                assert_visit_is_collect(tree, &rects, q);
            }
        }
    }

    #[test]
    fn clipping_reduces_leaf_accesses_on_selective_queries() {
        // Aggregate over many small queries: the clipped tree must do no
        // more I/O than the base tree, and strictly less overall.
        let clipped = build(Variant::Quadratic, ClipMethod::Stairline, 500);
        let mut rng = cbb_geom::SplitMix64::new(11);
        let mut base_total = 0u64;
        let mut clip_total = 0u64;
        for _ in 0..300 {
            let x = rng.gen_range(0.0, 990.0);
            let y = rng.gen_range(0.0, 990.0);
            let q = r2(x, y, x + 4.0, y + 4.0);
            let mut s1 = AccessStats::new();
            clipped.tree.range_query_stats(&q, &mut s1);
            let mut s2 = AccessStats::new();
            clipped.range_query_stats(&q, &mut s2);
            assert!(s2.leaf_accesses <= s1.leaf_accesses, "clipping added I/O");
            base_total += s1.leaf_accesses;
            clip_total += s2.leaf_accesses;
        }
        assert!(
            clip_total < base_total,
            "expected savings: clipped {clip_total} vs base {base_total}"
        );
    }

    #[test]
    fn maintenance_keeps_clips_valid_under_inserts() {
        let mut clipped = build(Variant::RStar, ClipMethod::Stairline, 200);
        for (i, b) in boxes(150, 99).into_iter().enumerate() {
            clipped.insert(b, DataId(1000 + i as u32));
        }
        clipped.tree.validate().unwrap();
        clipped.verify_clips().unwrap();
        assert_eq!(clipped.maintenance.inserts, 150);
        assert!(clipped.maintenance.validity_tests > 0);
    }

    #[test]
    fn maintenance_keeps_clips_valid_under_deletes() {
        let mut clipped = build(Variant::Quadratic, ClipMethod::Skyline, 300);
        let objects = boxes(300, 42);
        for (i, b) in objects.iter().enumerate().take(150) {
            assert!(clipped.delete(b, DataId(i as u32)), "object {i} present");
        }
        clipped.tree.validate().unwrap();
        clipped.verify_clips().unwrap();
        assert_eq!(clipped.tree.len(), 150);
        // Deleted objects are gone; survivors still found.
        let q = objects[200];
        assert!(clipped.range_query(&q).contains(&DataId(200)));
    }

    #[test]
    fn mixed_workload_stays_consistent() {
        let mut clipped = build(Variant::Hilbert, ClipMethod::Stairline, 250);
        let objects = boxes(250, 42);
        let extra = boxes(100, 5);
        for (i, b) in extra.iter().enumerate() {
            clipped.insert(*b, DataId(5000 + i as u32));
            if i % 2 == 0 {
                clipped.delete(&objects[i], DataId(i as u32));
            }
        }
        clipped.tree.validate().unwrap();
        clipped.verify_clips().unwrap();
        // Query results still agree with brute force over live objects.
        let mut live: Vec<(Rect<2>, DataId)> = clipped.tree.all_objects();
        live.sort_by_key(|(_, d)| *d);
        let q = r2(100.0, 100.0, 400.0, 400.0);
        let mut expected: Vec<DataId> = live
            .iter()
            .filter(|(r, _)| r.intersects(&q))
            .map(|(_, d)| *d)
            .collect();
        let mut got = clipped.range_query(&q);
        expected.sort();
        got.sort();
        assert_eq!(got, expected);
    }

    #[test]
    fn stats_expose_clip_pruning() {
        let clipped = build(Variant::RRStar, ClipMethod::Stairline, 500);
        let mut rng = cbb_geom::SplitMix64::new(3);
        let mut stats = AccessStats::new();
        for _ in 0..200 {
            let x = rng.gen_range(0.0, 990.0);
            let y = rng.gen_range(0.0, 990.0);
            let q = r2(x, y, x + 3.0, y + 3.0);
            clipped.range_query_stats(&q, &mut stats);
        }
        assert!(stats.clip_tests > 0);
        assert!(stats.clip_prunes > 0, "no pruning ever happened");
        assert!(clipped.total_clip_points() > 0);
        assert!(clipped.avg_clips_per_node() > 0.0);
    }

    #[test]
    fn dead_space_and_clipped_fractions_are_sane() {
        let clipped = build(Variant::Quadratic, ClipMethod::Stairline, 400);
        let scope = crate::metrics::NodeScope::Leaves;
        let dead = crate::metrics::avg_dead_space(&clipped.tree, scope).unwrap();
        let cl = clipped.avg_clipped_fraction(scope).unwrap();
        assert!((0.0..=1.0).contains(&dead));
        assert!((0.0..=1.0).contains(&cl));
        assert!(cl <= dead + 1e-9, "clipped {cl} exceeds dead space {dead}");
        assert!(cl > 0.0);
    }
}
