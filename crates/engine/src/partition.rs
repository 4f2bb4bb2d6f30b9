//! Spatial partitioning: the [`Partitioner`] contract and the PBSM-style
//! [`UniformGrid`].
//!
//! Rectangles are assigned to every tile they overlap
//! (*multi-assignment*), so each tile can be processed independently.
//! Exactness of global pair counts is restored by *reference-point
//! duplicate elimination*: every point of space is **owned** by exactly
//! one tile ([`Partitioner::owns`]), a candidate pair is attributed to the
//! tile owning the lower corner of its intersection
//! ([`cbb_joins::reference_point`]), and that tile is guaranteed to have
//! both rectangles assigned — so each pair is counted exactly once.
//!
//! Points outside a partitioner's domain are clamped to the border tiles;
//! objects sticking out of the domain therefore still land in (border)
//! tiles and joins stay exact even for out-of-domain data.
//!
//! Three implementations ship with the engine:
//!
//! | partitioner | boundaries | best for |
//! |---|---|---|
//! | [`UniformGrid`] | equal-width | uniform data, zero build cost |
//! | [`crate::AdaptiveGrid`] | per-axis data quantiles | skewed data, grid-shaped tiles |
//! | [`crate::QuadtreePartitioner`] | recursive region splits | heavily clustered data |

use cbb_geom::{Point, Rect};

/// Monotone version counter of a dataset: it advances exactly when the
/// data changes, so anything derived from the data (WAL records,
/// snapshots, answers reported to clients) can name the state it saw.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DataVersion(pub u64);

impl DataVersion {
    /// The initial version of a freshly loaded dataset.
    pub fn initial() -> Self {
        DataVersion(0)
    }

    /// Advance to the next version (call on every data mutation).
    pub fn bump(&mut self) {
        self.0 += 1;
    }

    /// The version after this one.
    pub fn next(self) -> Self {
        DataVersion(self.0 + 1)
    }
}

/// The contract a spatial partitioner must honour for the engine's
/// reference-point duplicate elimination to stay exact:
///
/// 1. **Total ownership** — [`Self::tile_of`] maps *every* point (even
///    out-of-domain ones) to exactly one tile in `0..tile_count()`.
/// 2. **Covering consistency** — for any rectangle `r`,
///    [`Self::covering_tiles`] contains `tile_of(p)` for every point
///    `p ∈ r`. Since the reference point of an intersecting pair lies in
///    both rectangles, the owning tile then sees both sides.
///
/// Both properties are exercised by the engine's property tests for every
/// implementation (`crates/engine/tests/partition_props.rs`).
pub trait Partitioner<const D: usize>: Sync {
    /// Total number of tiles.
    fn tile_count(&self) -> usize;

    /// The unique tile owning point `p` (reference-point semantics).
    fn tile_of(&self, p: &Point<D>) -> usize;

    /// All tiles `r` overlaps (multi-assignment set). Must be a superset
    /// of the tiles owning any point of `r`.
    fn covering_tiles(&self, r: &Rect<D>) -> Vec<usize>;

    /// Geometric bounds of a tile (closed rectangle; adjacent tiles share
    /// faces — ownership of the shared face is resolved by [`Self::owns`]).
    fn tile_rect(&self, tile: usize) -> Rect<D>;

    /// Whether tile `tile` owns point `p`. Exactly one tile owns any
    /// point, which is what makes reference-point dedup exact.
    fn owns(&self, tile: usize, p: &Point<D>) -> bool {
        self.tile_of(p) == tile
    }

    /// Multi-assign every rectangle to the tiles it overlaps. Returns one
    /// index list per tile, preserving input order within a tile; indices
    /// are `u32` (the same id space as `cbb_rtree::DataId`).
    fn assign(&self, rects: &[Rect<D>]) -> Vec<Vec<u32>> {
        assert!(
            rects.len() <= u32::MAX as usize,
            "object count exceeds the u32 id space"
        );
        let mut per_tile = vec![Vec::new(); self.tile_count()];
        for (i, r) in rects.iter().enumerate() {
            for t in self.covering_tiles(r) {
                per_tile[t].push(i as u32);
            }
        }
        per_tile
    }
}

/// Row-major tile index of a cell coordinate under per-axis cell counts.
pub(crate) fn row_major_index<const D: usize>(cell: [usize; D], dims: [usize; D]) -> usize {
    let mut idx = 0;
    for (c, n) in cell.into_iter().zip(dims) {
        debug_assert!(c < n);
        idx = idx * n + c;
    }
    idx
}

/// Decompose a row-major tile index back into cell coordinates.
pub(crate) fn row_major_cell<const D: usize>(tile: usize, dims: [usize; D]) -> [usize; D] {
    let mut cell = [0usize; D];
    let mut rest = tile;
    for i in (0..D).rev() {
        cell[i] = rest % dims[i];
        rest /= dims[i];
    }
    cell
}

/// Row-major indices of every cell in the box `lo_cell..=hi_cell`
/// (odometer enumeration, the multi-assignment set of a rectangle).
pub(crate) fn cell_box_tiles<const D: usize>(
    lo_cell: [usize; D],
    hi_cell: [usize; D],
    dims: [usize; D],
) -> Vec<usize> {
    let mut tiles = Vec::with_capacity(
        (0..D)
            .map(|i| hi_cell[i] - lo_cell[i] + 1)
            .product::<usize>(),
    );
    let mut cell = lo_cell;
    loop {
        tiles.push(row_major_index(cell, dims));
        // Odometer increment over the cell box.
        let mut axis = D;
        loop {
            if axis == 0 {
                return tiles;
            }
            axis -= 1;
            if cell[axis] < hi_cell[axis] {
                cell[axis] += 1;
                break;
            }
            cell[axis] = lo_cell[axis];
        }
    }
}

/// Load-imbalance metric of a partitioning for a join workload: estimated
/// per-tile work is `|left assigned| × |right assigned|` (the size of the
/// candidate cross product), and the imbalance is **max / mean** over the
/// tiles that can produce pairs. `1.0` is a perfect balance; a single hot
/// tile holding half the work of a 64-tile grid scores ≈ 32.
///
/// This is the metric `BENCH_skew.json` reports for uniform vs adaptive
/// partitioning.
pub fn load_imbalance<const D: usize, P: Partitioner<D>>(
    partitioner: &P,
    left: &[Rect<D>],
    right: &[Rect<D>],
) -> f64 {
    let la = partitioner.assign(left);
    let ra = partitioner.assign(right);
    let weights: Vec<f64> = la
        .iter()
        .zip(&ra)
        .map(|(l, r)| l.len() as f64 * r.len() as f64)
        .filter(|&w| w > 0.0)
        .collect();
    if weights.is_empty() {
        return 1.0;
    }
    let max = weights.iter().cloned().fold(0.0f64, f64::max);
    let mean = weights.iter().sum::<f64>() / weights.len() as f64;
    max / mean
}

/// Any of the engine's three partitioners behind one concrete type —
/// what lets a single catalog serve datasets with **different
/// partitioner kinds** side by side (a uniform grid for a uniform
/// layer, a quadtree for a heavily clustered one) while everything
/// downstream stays generic over one `P`.
///
/// Dispatch is a `match` per call; the partitioner contract (total
/// ownership, covering consistency) is inherited unchanged from the
/// wrapped implementation, so joins and reference-point dedup stay
/// exact. Equality (used by the serve layer to decide whether a
/// cross-dataset join can borrow the probe side's cached forest)
/// compares kind *and* fitted boundaries.
#[derive(Clone, Debug, PartialEq)]
pub enum AnyPartitioner<const D: usize> {
    /// An equal-width [`UniformGrid`].
    Uniform(UniformGrid<D>),
    /// A sample-quantile [`crate::AdaptiveGrid`].
    Adaptive(crate::AdaptiveGrid<D>),
    /// A budget-driven [`crate::QuadtreePartitioner`].
    Quadtree(crate::QuadtreePartitioner<D>),
}

impl<const D: usize> From<UniformGrid<D>> for AnyPartitioner<D> {
    fn from(p: UniformGrid<D>) -> Self {
        AnyPartitioner::Uniform(p)
    }
}

impl<const D: usize> From<crate::AdaptiveGrid<D>> for AnyPartitioner<D> {
    fn from(p: crate::AdaptiveGrid<D>) -> Self {
        AnyPartitioner::Adaptive(p)
    }
}

impl<const D: usize> From<crate::QuadtreePartitioner<D>> for AnyPartitioner<D> {
    fn from(p: crate::QuadtreePartitioner<D>) -> Self {
        AnyPartitioner::Quadtree(p)
    }
}

impl<const D: usize> Partitioner<D> for AnyPartitioner<D> {
    fn tile_count(&self) -> usize {
        match self {
            AnyPartitioner::Uniform(p) => Partitioner::tile_count(p),
            AnyPartitioner::Adaptive(p) => Partitioner::tile_count(p),
            AnyPartitioner::Quadtree(p) => Partitioner::tile_count(p),
        }
    }

    fn tile_of(&self, p: &Point<D>) -> usize {
        match self {
            AnyPartitioner::Uniform(g) => Partitioner::tile_of(g, p),
            AnyPartitioner::Adaptive(g) => Partitioner::tile_of(g, p),
            AnyPartitioner::Quadtree(g) => Partitioner::tile_of(g, p),
        }
    }

    fn covering_tiles(&self, r: &Rect<D>) -> Vec<usize> {
        match self {
            AnyPartitioner::Uniform(p) => Partitioner::covering_tiles(p, r),
            AnyPartitioner::Adaptive(p) => Partitioner::covering_tiles(p, r),
            AnyPartitioner::Quadtree(p) => Partitioner::covering_tiles(p, r),
        }
    }

    fn tile_rect(&self, tile: usize) -> Rect<D> {
        match self {
            AnyPartitioner::Uniform(p) => Partitioner::tile_rect(p, tile),
            AnyPartitioner::Adaptive(p) => Partitioner::tile_rect(p, tile),
            AnyPartitioner::Quadtree(p) => Partitioner::tile_rect(p, tile),
        }
    }
}

/// A uniform grid over a rectangular domain with `dims[i]` tiles along
/// axis `i`, tiles indexed row-major in `0..tile_count()`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct UniformGrid<const D: usize> {
    domain: Rect<D>,
    dims: [usize; D],
}

impl<const D: usize> UniformGrid<D> {
    /// Grid with `per_dim` tiles along every axis (`per_dim ≥ 1`).
    pub fn new(domain: Rect<D>, per_dim: usize) -> Self {
        Self::with_dims(domain, [per_dim; D])
    }

    /// Grid with an explicit tile count per axis (each `≥ 1`).
    pub fn with_dims(domain: Rect<D>, dims: [usize; D]) -> Self {
        assert!(
            dims.iter().all(|&n| n >= 1),
            "every axis needs at least one tile"
        );
        assert!(domain.is_finite(), "grid domain must be finite");
        UniformGrid { domain, dims }
    }

    /// The partitioned domain.
    pub fn domain(&self) -> &Rect<D> {
        &self.domain
    }

    /// Tiles per axis.
    pub fn dims(&self) -> [usize; D] {
        self.dims
    }

    /// Total number of tiles.
    pub fn tile_count(&self) -> usize {
        self.dims.iter().product()
    }

    /// The cell coordinate containing `p` along each axis, clamped into
    /// the grid (so out-of-domain points map to border cells and the
    /// domain's upper face belongs to the last cell).
    ///
    /// A zero-extent axis has zero cell width; dividing by it would poison
    /// the index with NaN/∞, so such an axis clamps to cell 0 — the whole
    /// (degenerate) axis is one cell regardless of `dims`.
    pub fn cell_of(&self, p: &Point<D>) -> [usize; D] {
        let mut cell = [0usize; D];
        for i in 0..D {
            let extent = self.domain.extent(i);
            if extent.is_nan() || extent <= 0.0 {
                // Zero-extent (or, defensively, NaN-extent) axis: clamp
                // instead of dividing by the zero cell width.
                continue;
            }
            let frac = (p[i] - self.domain.lo[i]) / extent;
            let scaled = (frac * self.dims[i] as f64).floor();
            // `f64::max` returns the non-NaN operand, so a NaN `scaled`
            // (e.g. NaN input coordinate) becomes 0.0 here — in range.
            cell[i] = (scaled.max(0.0) as usize).min(self.dims[i] - 1);
        }
        cell
    }

    /// Row-major tile index of a cell coordinate.
    pub fn tile_index(&self, cell: [usize; D]) -> usize {
        row_major_index(cell, self.dims)
    }

    /// The unique tile owning point `p` (reference-point semantics).
    pub fn tile_of(&self, p: &Point<D>) -> usize {
        self.tile_index(self.cell_of(p))
    }

    /// Whether tile `tile` owns point `p`.
    pub fn owns(&self, tile: usize, p: &Point<D>) -> bool {
        self.tile_of(p) == tile
    }

    /// Geometric bounds of a tile.
    pub fn tile_rect(&self, tile: usize) -> Rect<D> {
        assert!(tile < self.tile_count(), "tile out of range");
        let cell = row_major_cell(tile, self.dims);
        let mut lo = [0.0; D];
        let mut hi = [0.0; D];
        for i in 0..D {
            let width = self.domain.extent(i) / self.dims[i] as f64;
            lo[i] = self.domain.lo[i] + cell[i] as f64 * width;
            hi[i] = if cell[i] + 1 == self.dims[i] {
                self.domain.hi[i]
            } else {
                self.domain.lo[i] + (cell[i] + 1) as f64 * width
            };
        }
        Rect::new(Point(lo), Point(hi))
    }

    /// All tiles `r` overlaps (multi-assignment set): the row-major
    /// indices of the cell box spanned by `r`'s corners.
    pub fn covering_tiles(&self, r: &Rect<D>) -> Vec<usize> {
        cell_box_tiles(self.cell_of(&r.lo), self.cell_of(&r.hi), self.dims)
    }

    /// Multi-assign every rectangle to the tiles it overlaps.
    pub fn assign(&self, rects: &[Rect<D>]) -> Vec<Vec<u32>> {
        Partitioner::assign(self, rects)
    }
}

impl<const D: usize> Partitioner<D> for UniformGrid<D> {
    fn tile_count(&self) -> usize {
        UniformGrid::tile_count(self)
    }

    fn tile_of(&self, p: &Point<D>) -> usize {
        UniformGrid::tile_of(self, p)
    }

    fn covering_tiles(&self, r: &Rect<D>) -> Vec<usize> {
        UniformGrid::covering_tiles(self, r)
    }

    fn tile_rect(&self, tile: usize) -> Rect<D> {
        UniformGrid::tile_rect(self, tile)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbb_geom::SplitMix64;

    fn r2(lx: f64, ly: f64, hx: f64, hy: f64) -> Rect<2> {
        Rect::new(Point([lx, ly]), Point([hx, hy]))
    }

    fn grid4() -> UniformGrid<2> {
        UniformGrid::new(r2(0.0, 0.0, 100.0, 100.0), 4)
    }

    #[test]
    fn tile_rects_tile_the_domain() {
        let g = grid4();
        assert_eq!(g.tile_count(), 16);
        let total: f64 = (0..16).map(|t| g.tile_rect(t).volume()).sum();
        assert!((total - 10_000.0).abs() < 1e-9);
        // Round-trip: the center of every tile maps back to that tile.
        for t in 0..16 {
            assert_eq!(g.tile_of(&g.tile_rect(t).center()), t);
            assert!(g.owns(t, &g.tile_rect(t).center()));
        }
    }

    #[test]
    fn every_point_owned_by_exactly_one_tile() {
        let g = grid4();
        let mut rng = SplitMix64::new(9);
        for _ in 0..2_000 {
            // Include out-of-domain points: clamping must still pick one.
            let p = Point([rng.gen_range(-20.0, 120.0), rng.gen_range(-20.0, 120.0)]);
            let owners = (0..g.tile_count()).filter(|&t| g.owns(t, &p)).count();
            assert_eq!(owners, 1, "point {p:?}");
        }
    }

    #[test]
    fn boundary_points_resolve_to_one_side() {
        let g = grid4();
        // x = 25 is the face between columns 0 and 1: owned by column 1.
        assert_eq!(g.cell_of(&Point([25.0, 10.0])), [1, 0]);
        // The domain's upper corner belongs to the last tile.
        assert_eq!(g.cell_of(&Point([100.0, 100.0])), [3, 3]);
        // Outside points clamp to border cells.
        assert_eq!(g.cell_of(&Point([-5.0, 105.0])), [0, 3]);
    }

    #[test]
    fn covering_tiles_matches_geometry() {
        let g = grid4();
        let mut rng = SplitMix64::new(10);
        for _ in 0..500 {
            let x = rng.gen_range(-10.0, 100.0);
            let y = rng.gen_range(-10.0, 100.0);
            let r = r2(
                x,
                y,
                x + rng.gen_range(0.1, 60.0),
                y + rng.gen_range(0.1, 60.0),
            );
            let covered = g.covering_tiles(&r);
            // Every covered tile geometrically intersects r once r is
            // clamped to the domain (fully outside rects clamp to border
            // tiles they do not touch — that is the intended semantics).
            if let Some(clamped) = r.intersection(g.domain()) {
                for &t in &covered {
                    let tile = g.tile_rect(t);
                    assert!(
                        tile.intersects(&clamped),
                        "tile {t} {tile:?} does not meet {clamped:?}"
                    );
                }
            }
            // And no tile strictly containing a piece of r is missed.
            for t in 0..g.tile_count() {
                if g.tile_rect(t)
                    .intersection(&r)
                    .is_some_and(|i| i.volume() > 1e-12)
                {
                    assert!(covered.contains(&t), "missed tile {t} for {r:?}");
                }
            }
        }
    }

    #[test]
    fn spanning_object_lands_in_all_its_tiles() {
        let g = grid4();
        let r = r2(20.0, 20.0, 55.0, 30.0); // columns 0..=2 × rows 0..=1
        let assigned = g.assign(&[r]);
        let tiles: Vec<usize> = (0..16).filter(|&t| !assigned[t].is_empty()).collect();
        assert_eq!(tiles.len(), 6);
        for &t in &tiles {
            assert_eq!(assigned[t], vec![0]);
        }
    }

    #[test]
    fn degenerate_1x1_grid_owns_everything() {
        let g = UniformGrid::new(r2(0.0, 0.0, 10.0, 10.0), 1);
        assert_eq!(g.tile_count(), 1);
        assert!(g.owns(0, &Point([3.0, 3.0])));
        assert!(g.owns(0, &Point([-100.0, 100.0])));
        assert_eq!(g.covering_tiles(&r2(2.0, 2.0, 8.0, 8.0)), vec![0]);
    }

    #[test]
    fn zero_extent_domain_axis_clamps_instead_of_dividing() {
        // Regression: all data on the line y = 5 → the domain MBB has
        // zero extent in y. cell_of must not divide by the zero cell
        // width; the y axis collapses to a single cell and the x axis
        // still partitions normally.
        let g = UniformGrid::with_dims(r2(0.0, 5.0, 100.0, 5.0), [4, 4]);
        for (p, want) in [
            (Point([10.0, 5.0]), [0usize, 0usize]),
            (Point([99.0, 5.0]), [3, 0]),
            // Off-line and out-of-domain points still clamp to a cell.
            (Point([50.0, 7.0]), [2, 0]),
            (Point([-3.0, -9.0]), [0, 0]),
        ] {
            let cell = g.cell_of(&p);
            assert!(cell.iter().zip(g.dims()).all(|(&c, n)| c < n));
            assert_eq!(cell, want, "point {p:?}");
        }
        // Exactly-one-owner still holds on and off the degenerate axis.
        let mut rng = SplitMix64::new(77);
        for _ in 0..500 {
            let p = Point([rng.gen_range(-10.0, 110.0), rng.gen_range(0.0, 10.0)]);
            let owners = (0..g.tile_count()).filter(|&t| g.owns(t, &p)).count();
            assert_eq!(owners, 1, "point {p:?}");
        }
        // covering_tiles stays consistent with ownership for rects that
        // cross (and stick out of) the degenerate axis.
        let r = r2(20.0, 4.0, 80.0, 6.0);
        let covered = g.covering_tiles(&r);
        for &p in &[Point([20.0, 5.0]), Point([50.0, 5.0]), Point([80.0, 5.0])] {
            assert!(covered.contains(&g.tile_of(&p)), "missing owner of {p:?}");
        }
        // Fully degenerate domain (a single point) still works.
        let point_grid = UniformGrid::with_dims(r2(3.0, 3.0, 3.0, 3.0), [8, 8]);
        assert_eq!(point_grid.tile_of(&Point([3.0, 3.0])), 0);
        assert_eq!(point_grid.tile_of(&Point([100.0, -100.0])), 0);
        assert_eq!(point_grid.covering_tiles(&r2(0.0, 0.0, 9.0, 9.0)), vec![0]);
    }

    #[test]
    fn reference_point_ownership_is_covered_by_both_sides() {
        // The invariant the join's exactness rests on: for any
        // intersecting pair, the tile owning the reference point is in
        // the covering set of both rectangles.
        let g = grid4();
        let mut rng = SplitMix64::new(11);
        for _ in 0..1_000 {
            let ax = rng.gen_range(-10.0, 100.0);
            let ay = rng.gen_range(-10.0, 100.0);
            let a = r2(
                ax,
                ay,
                ax + rng.gen_range(0.1, 50.0),
                ay + rng.gen_range(0.1, 50.0),
            );
            let bx = rng.gen_range(-10.0, 100.0);
            let by = rng.gen_range(-10.0, 100.0);
            let b = r2(
                bx,
                by,
                bx + rng.gen_range(0.1, 50.0),
                by + rng.gen_range(0.1, 50.0),
            );
            if !a.intersects(&b) {
                continue;
            }
            let owner = g.tile_of(&cbb_joins::reference_point(&a, &b));
            assert!(g.covering_tiles(&a).contains(&owner));
            assert!(g.covering_tiles(&b).contains(&owner));
        }
    }

    #[test]
    fn rectangular_grids_work() {
        let g = UniformGrid::with_dims(r2(0.0, 0.0, 100.0, 50.0), [5, 2]);
        assert_eq!(g.tile_count(), 10);
        assert_eq!(g.dims(), [5, 2]);
        let total: f64 = (0..10).map(|t| g.tile_rect(t).volume()).sum();
        assert!((total - 5_000.0).abs() < 1e-9);
    }

    #[test]
    fn assign_is_exhaustive() {
        let g = grid4();
        let mut rng = SplitMix64::new(12);
        let rects: Vec<Rect<2>> = (0..300)
            .map(|_| {
                let x = rng.gen_range(0.0, 95.0);
                let y = rng.gen_range(0.0, 95.0);
                r2(
                    x,
                    y,
                    x + rng.gen_range(0.1, 30.0),
                    y + rng.gen_range(0.1, 30.0),
                )
            })
            .collect();
        let assigned = g.assign(&rects);
        assert_eq!(assigned.len(), 16);
        // Every object appears at least once; ids stay in range.
        let mut seen = vec![false; rects.len()];
        for list in &assigned {
            for &i in list {
                seen[i as usize] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn data_version_is_monotone() {
        let mut v = DataVersion::initial();
        assert_eq!(v, DataVersion(0));
        assert_eq!(v.next(), DataVersion(1));
        v.bump();
        v.bump();
        assert_eq!(v, DataVersion(2));
        assert!(DataVersion(1) < DataVersion(2));
    }

    #[test]
    fn load_imbalance_flags_hot_tiles() {
        let g = UniformGrid::new(r2(0.0, 0.0, 100.0, 100.0), 2);
        // Perfectly spread: one object per tile on each side.
        let spread: Vec<Rect<2>> = (0..4)
            .map(|t| {
                let c = g.tile_rect(t).center();
                Rect::new(c, c)
            })
            .collect();
        assert!((load_imbalance(&g, &spread, &spread) - 1.0).abs() < 1e-9);
        // Eight objects clumped into tile 0 plus the spread baseline:
        // tile 0 outweighs the rest 9:1.
        let mut clumped = spread.clone();
        clumped.extend((0..8).map(|_| r2(1.0, 1.0, 2.0, 2.0)));
        let imb = load_imbalance(&g, &clumped, &spread);
        assert!((imb - 3.0).abs() < 1e-9, "imbalance {imb}");
        // Empty side: defined as balanced.
        assert_eq!(load_imbalance(&g, &[], &spread), 1.0);
    }
}
