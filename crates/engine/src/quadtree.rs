//! Region-split partitioner: a quadtree (octree in 3-d) that recursively
//! splits any tile whose assigned load exceeds a budget.
//!
//! Where the [`crate::AdaptiveGrid`] equalises *marginal* distributions
//! per axis, the region split follows the joint distribution: a dense
//! cluster is subdivided in place until every leaf holds at most
//! `budget` objects (or the depth cap is hit), while empty space stays a
//! handful of coarse tiles. Leaves are the tiles; ownership descends the
//! tree with the same "boundary belongs to the upper side" rule the
//! grids use, so the engine's reference-point duplicate elimination
//! applies unchanged.

use cbb_geom::{Point, Rect};

use crate::partition::Partitioner;

/// Hard recursion cap: identical or near-identical objects could
/// otherwise split forever without ever meeting the budget.
const MAX_DEPTH: u32 = 16;

#[derive(Clone, Debug, PartialEq)]
struct QtNode<const D: usize> {
    rect: Rect<D>,
    /// `Some((split center, first child))` for internal nodes — the
    /// `2^D` children are stored consecutively from `first child`, the
    /// child index of a point being the bitmask of `p[i] >= center[i]`.
    split: Option<(Point<D>, u32)>,
    /// Leaf tile id (dense, creation order); unused for internal nodes.
    tile: u32,
}

/// A budget-driven recursive space partitioning (PR quadtree flavour).
#[derive(Clone, Debug, PartialEq)]
pub struct QuadtreePartitioner<const D: usize> {
    domain: Rect<D>,
    nodes: Vec<QtNode<D>>,
    /// Node index per tile id.
    leaves: Vec<u32>,
}

impl<const D: usize> QuadtreePartitioner<D> {
    /// Build over `rects`: starting from `domain` as a single tile, any
    /// region overlapped by more than `budget` rectangles is split into
    /// `2^D` equal children, recursively (capped at a fixed depth, and
    /// axes of zero extent are never split). `budget ≥ 1`.
    pub fn build(domain: Rect<D>, rects: &[Rect<D>], budget: usize) -> Self {
        assert!(budget >= 1, "load budget must be at least 1");
        assert!(domain.is_finite(), "partitioner domain must be finite");
        assert!(D <= 8, "2^D children per split: D above 8 is impractical");
        let mut qt = QuadtreePartitioner {
            domain,
            nodes: vec![QtNode {
                rect: domain,
                split: None,
                tile: 0,
            }],
            leaves: Vec::new(),
        };
        // Depth-first subdivision; each frame carries the indices of the
        // rectangles overlapping its region (multi-assignment).
        let all: Vec<u32> = (0..rects.len() as u32).collect();
        let mut stack = vec![(0u32, 0u32, all)];
        while let Some((node, depth, items)) = stack.pop() {
            let rect = qt.nodes[node as usize].rect;
            let splittable = (0..D).any(|i| rect.extent(i) > 0.0);
            if items.len() <= budget || depth >= MAX_DEPTH || !splittable {
                qt.nodes[node as usize].tile = qt.leaves.len() as u32;
                qt.leaves.push(node);
                continue;
            }
            let center = rect.center();
            let first = qt.nodes.len() as u32;
            for k in 0..1usize << D {
                let mut lo = [0.0; D];
                let mut hi = [0.0; D];
                for i in 0..D {
                    if k >> i & 1 == 1 {
                        lo[i] = center[i];
                        hi[i] = rect.hi[i];
                    } else {
                        lo[i] = rect.lo[i];
                        hi[i] = center[i];
                    }
                }
                qt.nodes.push(QtNode {
                    rect: Rect::new(Point(lo), Point(hi)),
                    split: None,
                    tile: 0,
                });
            }
            qt.nodes[node as usize].split = Some((center, first));
            for k in 0..1usize << D {
                let child = first + k as u32;
                let crect = qt.nodes[child as usize].rect;
                let sub: Vec<u32> = items
                    .iter()
                    .copied()
                    .filter(|&i| Self::clamp_rect(&domain, &rects[i as usize]).intersects(&crect))
                    .collect();
                stack.push((child, depth + 1, sub));
            }
        }
        qt
    }

    /// The partitioned domain.
    pub fn domain(&self) -> &Rect<D> {
        &self.domain
    }

    /// Depth of the deepest leaf (0 = the domain never split).
    pub fn depth(&self) -> u32 {
        fn rec<const D: usize>(qt: &QuadtreePartitioner<D>, node: u32) -> u32 {
            match qt.nodes[node as usize].split {
                None => 0,
                Some((_, first)) => {
                    (0..1u32 << D)
                        .map(|k| rec(qt, first + k))
                        .max()
                        .expect("2^D children")
                        + 1
                }
            }
        }
        rec(self, 0)
    }

    /// Clamp a point into `domain` component-wise (out-of-domain points
    /// belong to border tiles, like the grids).
    fn clamp_point(domain: &Rect<D>, p: &Point<D>) -> Point<D> {
        Point(std::array::from_fn(|i| {
            p[i].clamp(domain.lo[i], domain.hi[i])
        }))
    }

    /// Clamp a rectangle into `domain` corner-wise; a fully outside
    /// rectangle collapses onto the nearest border face.
    fn clamp_rect(domain: &Rect<D>, r: &Rect<D>) -> Rect<D> {
        Rect::new(
            Self::clamp_point(domain, &r.lo),
            Self::clamp_point(domain, &r.hi),
        )
    }
}

impl<const D: usize> Partitioner<D> for QuadtreePartitioner<D> {
    fn tile_count(&self) -> usize {
        self.leaves.len()
    }

    fn tile_of(&self, p: &Point<D>) -> usize {
        let p = Self::clamp_point(&self.domain, p);
        let mut node = 0u32;
        while let Some((center, first)) = self.nodes[node as usize].split {
            let mut k = 0usize;
            for i in 0..D {
                if p[i] >= center[i] {
                    k |= 1 << i;
                }
            }
            node = first + k as u32;
        }
        self.nodes[node as usize].tile as usize
    }

    fn covering_tiles(&self, r: &Rect<D>) -> Vec<usize> {
        let r = Self::clamp_rect(&self.domain, r);
        let mut tiles = Vec::new();
        let mut stack = vec![0u32];
        while let Some(node) = stack.pop() {
            let n = &self.nodes[node as usize];
            if !n.rect.intersects(&r) {
                continue;
            }
            match n.split {
                None => tiles.push(n.tile as usize),
                Some((_, first)) => stack.extend((0..1u32 << D).map(|k| first + k)),
            }
        }
        tiles
    }

    fn tile_rect(&self, tile: usize) -> Rect<D> {
        self.nodes[self.leaves[tile] as usize].rect
    }
}

// Lives here rather than in `persist` because the node array is
// module-private. The fitted tree structure is encoded verbatim —
// node rects, split centers/child bases, leaf tile ids — so the
// decoded partitioner is bit-identical to the one the data was
// assigned under (re-fitting from data would not be: the budget
// heuristic is not a pure function of the surviving objects).
impl<const D: usize> crate::persist::PersistPartitioner for QuadtreePartitioner<D> {
    fn encode_blob(&self, out: &mut Vec<u8>) {
        crate::persist::put_rect(out, &self.domain);
        crate::persist::put_u32(out, self.nodes.len() as u32);
        for n in &self.nodes {
            crate::persist::put_rect(out, &n.rect);
            match n.split {
                None => out.push(0),
                Some((center, first)) => {
                    out.push(1);
                    crate::persist::put_point(out, &center);
                    crate::persist::put_u32(out, first);
                }
            }
            crate::persist::put_u32(out, n.tile);
        }
        crate::persist::put_u32(out, self.leaves.len() as u32);
        for &leaf in &self.leaves {
            crate::persist::put_u32(out, leaf);
        }
    }

    fn decode_blob(
        r: &mut crate::persist::ByteReader<'_>,
    ) -> Result<Self, crate::persist::PersistError> {
        let corrupt =
            |why: &str| crate::persist::PersistError::Corrupt(format!("quadtree blob: {why}"));
        let domain = r.rect::<D>()?;
        let node_count = r.u32()? as usize;
        if node_count == 0 {
            return Err(corrupt("no nodes"));
        }
        let mut nodes = Vec::with_capacity(node_count);
        for _ in 0..node_count {
            let rect = r.rect::<D>()?;
            let split = match r.u8()? {
                0 => None,
                1 => {
                    let center = r.point::<D>()?;
                    let first = r.u32()?;
                    if (first as usize) + (1 << D) > node_count {
                        return Err(corrupt("child range out of bounds"));
                    }
                    Some((center, first))
                }
                _ => return Err(corrupt("bad split tag")),
            };
            let tile = r.u32()?;
            nodes.push(QtNode { rect, split, tile });
        }
        let leaf_count = r.u32()? as usize;
        let mut leaves = Vec::with_capacity(leaf_count);
        for _ in 0..leaf_count {
            let leaf = r.u32()?;
            if leaf as usize >= node_count {
                return Err(corrupt("leaf index out of bounds"));
            }
            leaves.push(leaf);
        }
        for (tile, &leaf) in leaves.iter().enumerate() {
            let n = &nodes[leaf as usize];
            if n.split.is_some() || n.tile as usize != tile {
                return Err(corrupt("leaf table disagrees with nodes"));
            }
        }
        Ok(QuadtreePartitioner {
            domain,
            nodes,
            leaves,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::load_imbalance;
    use crate::AdaptiveGrid;
    use cbb_geom::SplitMix64;

    fn r2(lx: f64, ly: f64, hx: f64, hy: f64) -> Rect<2> {
        Rect::new(Point([lx, ly]), Point([hx, hy]))
    }

    fn domain() -> Rect<2> {
        r2(0.0, 0.0, 100.0, 100.0)
    }

    fn clustered(n: usize, seed: u64) -> Vec<Rect<2>> {
        let mut rng = SplitMix64::new(seed);
        (0..n)
            .map(|_| {
                let tight = rng.gen_range(0.0, 1.0) < 0.8;
                let (cx, cy, s) = if tight {
                    (20.0, 20.0, 5.0)
                } else {
                    (rng.gen_range(0.0, 95.0), rng.gen_range(0.0, 95.0), 0.0)
                };
                let x = (cx + rng.gen_range(-s, s + 1e-9)).clamp(0.0, 95.0);
                let y = (cy + rng.gen_range(-s, s + 1e-9)).clamp(0.0, 95.0);
                r2(
                    x,
                    y,
                    x + rng.gen_range(0.1, 3.0),
                    y + rng.gen_range(0.1, 3.0),
                )
            })
            .collect()
    }

    #[test]
    fn splits_only_where_the_data_is() {
        let data = clustered(2_000, 1);
        let qt = QuadtreePartitioner::build(domain(), &data, 200);
        assert!(qt.tile_count() > 4, "cluster never split");
        assert!(qt.depth() >= 2);
        // The cluster corner is covered by smaller tiles than empty space.
        let hot = qt.tile_rect(qt.tile_of(&Point([20.0, 20.0])));
        let cold = qt.tile_rect(qt.tile_of(&Point([80.0, 20.0])));
        assert!(hot.volume() < cold.volume());
    }

    #[test]
    fn every_point_owned_by_exactly_one_tile() {
        let data = clustered(1_500, 2);
        let qt = QuadtreePartitioner::build(domain(), &data, 100);
        let mut rng = SplitMix64::new(3);
        for _ in 0..2_000 {
            let p = Point([rng.gen_range(-30.0, 130.0), rng.gen_range(-30.0, 130.0)]);
            let owners = (0..qt.tile_count()).filter(|&t| qt.owns(t, &p)).count();
            assert_eq!(owners, 1, "point {p:?}");
        }
    }

    #[test]
    fn leaves_tile_the_domain() {
        let data = clustered(1_000, 4);
        let qt = QuadtreePartitioner::build(domain(), &data, 64);
        let total: f64 = (0..qt.tile_count()).map(|t| qt.tile_rect(t).volume()).sum();
        assert!((total - 10_000.0).abs() < 1e-6, "total {total}");
    }

    #[test]
    fn covering_contains_every_owned_tile() {
        let data = clustered(1_500, 5);
        let qt = QuadtreePartitioner::build(domain(), &data, 100);
        let mut rng = SplitMix64::new(6);
        for _ in 0..400 {
            let x = rng.gen_range(-10.0, 100.0);
            let y = rng.gen_range(-10.0, 100.0);
            let r = r2(
                x,
                y,
                x + rng.gen_range(0.0, 40.0),
                y + rng.gen_range(0.0, 40.0),
            );
            let covered = qt.covering_tiles(&r);
            for _ in 0..20 {
                let px = rng.gen_range(r.lo[0], r.hi[0] + 1e-9).min(r.hi[0]);
                let py = rng.gen_range(r.lo[1], r.hi[1] + 1e-9).min(r.hi[1]);
                let p = Point([px, py]);
                assert!(covered.contains(&qt.tile_of(&p)), "{p:?} of {r:?}");
            }
        }
    }

    #[test]
    fn respects_budget_where_splittable() {
        let data = clustered(3_000, 7);
        let budget = 150;
        let qt = QuadtreePartitioner::build(domain(), &data, budget);
        let assigned = qt.assign(&data);
        for (t, ids) in assigned.iter().enumerate() {
            // Leaves at the depth cap may exceed the budget; none exist
            // for this workload.
            assert!(
                ids.len() <= budget || qt.depth() >= 16,
                "tile {t} holds {} > budget {budget}",
                ids.len()
            );
        }
    }

    #[test]
    fn beats_uniform_on_clustered_imbalance() {
        let a = clustered(3_000, 8);
        let b = clustered(3_000, 9);
        let uniform = AdaptiveGrid::from_sample(domain(), [6, 6], &[]);
        let qt = QuadtreePartitioner::build(domain(), &a, 150);
        let ui = load_imbalance(&uniform, &a, &b);
        let qi = load_imbalance(&qt, &a, &b);
        assert!(qi < ui, "quadtree {qi} not below uniform {ui}");
    }

    #[test]
    fn uniform_data_stays_coarse() {
        let mut rng = SplitMix64::new(10);
        let data: Vec<Rect<2>> = (0..500)
            .map(|_| {
                let x = rng.gen_range(0.0, 95.0);
                let y = rng.gen_range(0.0, 95.0);
                r2(x, y, x + 1.0, y + 1.0)
            })
            .collect();
        let qt = QuadtreePartitioner::build(domain(), &data, 1_000);
        assert_eq!(qt.tile_count(), 1, "under-budget domain must stay whole");
        assert_eq!(qt.tile_of(&Point([500.0, -3.0])), 0);
    }

    #[test]
    fn degenerate_domain_and_identical_objects_terminate() {
        // A point domain cannot split: one tile, regardless of budget.
        let point_domain = r2(5.0, 5.0, 5.0, 5.0);
        let data: Vec<Rect<2>> = (0..100).map(|_| point_domain).collect();
        let qt = QuadtreePartitioner::build(point_domain, &data, 3);
        assert_eq!(qt.tile_count(), 1);
        // Identical objects inside a real domain: the depth cap stops
        // the recursion even though the budget is never met.
        let stacked: Vec<Rect<2>> = (0..50).map(|_| r2(10.0, 10.0, 10.0, 10.0)).collect();
        let qt = QuadtreePartitioner::build(domain(), &stacked, 3);
        assert!(qt.depth() <= 16);
        let owners = (0..qt.tile_count())
            .filter(|&t| qt.owns(t, &Point([10.0, 10.0])))
            .count();
        assert_eq!(owners, 1);
    }
}
