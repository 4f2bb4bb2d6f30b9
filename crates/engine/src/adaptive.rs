//! The engine's grid partitioner: per-axis tile boundaries from data
//! quantiles, or equal widths when fitted to no data.
//!
//! An equal-width grid over skewed data concentrates most objects in a
//! few tiles, so one dense tile straggles the whole partitioned join
//! (Aji et al., *Effective Spatial Data Partitioning for Scalable Query
//! Processing*). The [`AdaptiveGrid`] keeps the grid's cheap row-major
//! indexing but places the cut positions along each axis at the
//! **quantiles of a data sample**: every column/row then holds roughly
//! the same number of object centers, which flattens per-tile load for
//! clustered and Zipfian placements. The fixed PBSM-style grid is the
//! degenerate case of the same fit:
//!
//! | sample passed to [`AdaptiveGrid::from_sample`] | cuts along each axis |
//! |---|---|
//! | the data (or any subset of it) | per-axis quantiles of the sample's centers |
//! | empty (`&[]`), or no finite center | equal widths over the domain |
//!
//! Cells are addressed by binary search over the cut arrays, so lookups
//! are `O(log tiles_per_axis)` per axis, ownership is total (any point —
//! in-domain or not — maps to exactly one tile), and the engine's
//! reference-point duplicate elimination applies unchanged.

use cbb_geom::{Coord, Point, Rect};

use crate::partition::Partitioner;

/// Cap on per-axis sample size: quantile estimates stabilise long before
/// this, and it keeps construction `O(SAMPLE_CAP log SAMPLE_CAP)` per
/// axis independent of dataset size.
const SAMPLE_CAP: usize = 4_096;

/// A grid with per-axis boundaries at data quantiles (equal widths for
/// an empty sample). Tiles are indexed row-major in `0..tile_count()`.
#[derive(Clone, Debug, PartialEq)]
pub struct AdaptiveGrid<const D: usize> {
    domain: Rect<D>,
    /// Interior cut positions per axis, sorted ascending, inside the
    /// domain. Axis `i` has `cuts[i].len() + 1` cells: values `< cuts[0]`
    /// fall in cell 0, values `≥ cuts.last()` in the last cell (cut
    /// positions belong to the upper cell).
    cuts: [Vec<Coord>; D],
}

impl<const D: usize> AdaptiveGrid<D> {
    /// Build a grid with `dims[i]` tiles along axis `i`, boundaries at the
    /// per-axis quantiles of the centers of `sample`. The sample is
    /// typically the join input itself (or any subset — construction
    /// subsamples to a cap internally). Centers that are not finite (a
    /// NaN coordinate, or `lo = −∞, hi = +∞`) are skipped; an empty
    /// sample, or one with no finite center on an axis, gives that axis
    /// equal-width cuts — the fixed PBSM-style grid.
    pub fn from_sample(domain: Rect<D>, dims: [usize; D], sample: &[Rect<D>]) -> Self {
        assert!(
            dims.iter().all(|&n| n >= 1),
            "every axis needs at least one tile"
        );
        assert!(domain.is_finite(), "grid domain must be finite");
        let stride = (sample.len() / SAMPLE_CAP).max(1);
        let cuts = std::array::from_fn(|i| {
            if dims[i] == 1 {
                return Vec::new();
            }
            let mut values: Vec<Coord> = sample
                .iter()
                .step_by(stride)
                .map(|r| (r.lo[i] + r.hi[i]) / 2.0)
                .filter(|c| c.is_finite())
                .map(|c| c.clamp(domain.lo[i], domain.hi[i]))
                .collect();
            if values.is_empty() {
                // No finite centre on this axis: equal-width cuts.
                return (1..dims[i])
                    .map(|k| domain.lo[i] + domain.extent(i) * k as Coord / dims[i] as Coord)
                    .collect();
            }
            values.sort_by(Coord::total_cmp);
            (1..dims[i])
                .map(|k| values[k * values.len() / dims[i]])
                .collect()
        });
        AdaptiveGrid { domain, cuts }
    }

    /// The partitioned domain.
    pub fn domain(&self) -> &Rect<D> {
        &self.domain
    }

    /// Tiles per axis.
    pub fn dims(&self) -> [usize; D] {
        std::array::from_fn(|i| self.cuts[i].len() + 1)
    }

    /// The interior cut positions along `axis` (sorted; may contain
    /// duplicates when the sample has heavy ties — the cells between
    /// duplicate cuts are empty and simply never receive work).
    pub fn cuts(&self, axis: usize) -> &[Coord] {
        &self.cuts[axis]
    }

    /// The cell coordinate containing `p` along each axis. Total by
    /// construction: binary search clamps out-of-domain points to the
    /// border cells with no division anywhere.
    pub fn cell_of(&self, p: &Point<D>) -> [usize; D] {
        std::array::from_fn(|i| self.cuts[i].partition_point(|&c| c <= p[i]))
    }

    /// The unique tile owning point `p`.
    pub fn tile_of(&self, p: &Point<D>) -> usize {
        row_major_index(self.cell_of(p), self.dims())
    }
}

impl<const D: usize> Partitioner<D> for AdaptiveGrid<D> {
    fn tile_count(&self) -> usize {
        self.dims().iter().product()
    }

    fn tile_of(&self, p: &Point<D>) -> usize {
        AdaptiveGrid::tile_of(self, p)
    }

    fn covering_tiles(&self, r: &Rect<D>) -> Vec<usize> {
        cell_box_tiles(self.cell_of(&r.lo), self.cell_of(&r.hi), self.dims())
    }

    fn tile_rect(&self, tile: usize) -> Rect<D> {
        let dims = self.dims();
        assert!(tile < dims.iter().product::<usize>(), "tile out of range");
        let cell = row_major_cell(tile, dims);
        let mut lo = [0.0; D];
        let mut hi = [0.0; D];
        for i in 0..D {
            lo[i] = if cell[i] == 0 {
                self.domain.lo[i]
            } else {
                self.cuts[i][cell[i] - 1]
            };
            hi[i] = if cell[i] + 1 == dims[i] {
                self.domain.hi[i]
            } else {
                self.cuts[i][cell[i]]
            };
            // Duplicate cuts make degenerate (empty) interior cells;
            // out-of-order never happens because cuts are sorted.
            if hi[i] < lo[i] {
                hi[i] = lo[i];
            }
        }
        Rect::new(Point(lo), Point(hi))
    }
}

/// Row-major tile index of a cell coordinate under per-axis cell counts.
fn row_major_index<const D: usize>(cell: [usize; D], dims: [usize; D]) -> usize {
    let mut idx = 0;
    for (c, n) in cell.into_iter().zip(dims) {
        debug_assert!(c < n);
        idx = idx * n + c;
    }
    idx
}

/// Decompose a row-major tile index back into cell coordinates.
fn row_major_cell<const D: usize>(tile: usize, dims: [usize; D]) -> [usize; D] {
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
fn cell_box_tiles<const D: usize>(
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

// Lives here rather than in `persist` because the cut arrays are
// module-private: the codec is the only way to rebuild a fitted grid
// from parts, and keeping it next to the invariants it must respect
// (sorted, in-domain cuts) keeps them honest.
impl<const D: usize> crate::persist::PersistPartitioner for AdaptiveGrid<D> {
    fn encode_blob(&self, out: &mut Vec<u8>) {
        crate::persist::put_rect(out, &self.domain);
        for axis in 0..D {
            crate::persist::put_u32(out, self.cuts[axis].len() as u32);
            for &c in &self.cuts[axis] {
                crate::persist::put_f64(out, c);
            }
        }
    }

    fn decode_blob(
        r: &mut crate::persist::ByteReader<'_>,
    ) -> Result<Self, crate::persist::PersistError> {
        let domain = r.rect::<D>()?;
        let mut cuts: [Vec<Coord>; D] = std::array::from_fn(|_| Vec::new());
        for axis in cuts.iter_mut() {
            let n = r.u32()? as usize;
            axis.reserve_exact(n);
            for _ in 0..n {
                axis.push(r.f64()?);
            }
            if axis.windows(2).any(|w| w[0] > w[1]) {
                return Err(crate::persist::PersistError::Corrupt(
                    "adaptive grid cuts out of order".into(),
                ));
            }
        }
        Ok(AdaptiveGrid { domain, cuts })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbb_geom::SplitMix64;

    fn r2(lx: f64, ly: f64, hx: f64, hy: f64) -> Rect<2> {
        Rect::new(Point([lx, ly]), Point([hx, hy]))
    }

    fn domain() -> Rect<2> {
        r2(0.0, 0.0, 100.0, 100.0)
    }

    /// Two dense blobs plus sparse background — enough skew that equal
    /// width and equal count differ sharply.
    fn skewed_boxes(n: usize, seed: u64) -> Vec<Rect<2>> {
        let mut rng = SplitMix64::new(seed);
        (0..n)
            .map(|_| {
                let (cx, cy) = match rng.gen_range(0.0, 1.0) {
                    f if f < 0.45 => (10.0, 10.0),
                    f if f < 0.9 => (85.0, 85.0),
                    _ => (rng.gen_range(0.0, 95.0), rng.gen_range(0.0, 95.0)),
                };
                let x = (cx + rng.gen_range(-6.0, 6.0)).clamp(0.0, 95.0);
                let y = (cy + rng.gen_range(-6.0, 6.0)).clamp(0.0, 95.0);
                r2(
                    x,
                    y,
                    x + rng.gen_range(0.1, 4.0),
                    y + rng.gen_range(0.1, 4.0),
                )
            })
            .collect()
    }

    #[test]
    fn quantile_cuts_are_sorted_and_inside_domain() {
        let data = skewed_boxes(3_000, 1);
        let g = AdaptiveGrid::from_sample(domain(), [8, 8], &data);
        assert_eq!(g.dims(), [8, 8]);
        assert_eq!(g.tile_count(), 64);
        for axis in 0..2 {
            let cuts = g.cuts(axis);
            assert_eq!(cuts.len(), 7);
            assert!(cuts.windows(2).all(|w| w[0] <= w[1]));
            assert!(cuts.iter().all(|&c| (0.0..=100.0).contains(&c)));
        }
    }

    #[test]
    fn every_point_owned_by_exactly_one_tile() {
        let data = skewed_boxes(2_000, 2);
        let g = AdaptiveGrid::from_sample(domain(), [5, 3], &data);
        let mut rng = SplitMix64::new(3);
        for _ in 0..2_000 {
            let p = Point([rng.gen_range(-30.0, 130.0), rng.gen_range(-30.0, 130.0)]);
            let owners = (0..g.tile_count()).filter(|&t| g.owns(t, &p)).count();
            assert_eq!(owners, 1, "point {p:?}");
        }
    }

    #[test]
    fn tile_rects_tile_the_domain_and_round_trip() {
        let data = skewed_boxes(2_000, 4);
        let g = AdaptiveGrid::from_sample(domain(), [6, 4], &data);
        let total: f64 = (0..g.tile_count()).map(|t| g.tile_rect(t).volume()).sum();
        assert!((total - 10_000.0).abs() < 1e-6, "total {total}");
        for t in 0..g.tile_count() {
            let r = g.tile_rect(t);
            if r.volume() > 0.0 {
                // Strictly interior point to dodge the boundary rule.
                let p = Point([r.lo[0] + r.extent(0) * 0.5, r.lo[1] + r.extent(1) * 0.5]);
                assert_eq!(g.tile_of(&p), t);
            }
        }
    }

    #[test]
    fn covering_contains_every_owned_tile() {
        let data = skewed_boxes(2_000, 5);
        let g = AdaptiveGrid::from_sample(domain(), [7, 7], &data);
        let mut rng = SplitMix64::new(6);
        for _ in 0..500 {
            let x = rng.gen_range(-10.0, 100.0);
            let y = rng.gen_range(-10.0, 100.0);
            let r = r2(
                x,
                y,
                x + rng.gen_range(0.0, 50.0),
                y + rng.gen_range(0.0, 50.0),
            );
            let covered = g.covering_tiles(&r);
            for _ in 0..20 {
                let p = Point([
                    rng.gen_range(r.lo[0], r.hi[0] + 1e-9),
                    rng.gen_range(r.lo[1], r.hi[1] + 1e-9),
                ]);
                let p = Point([p[0].min(r.hi[0]), p[1].min(r.hi[1])]);
                assert!(covered.contains(&g.tile_of(&p)), "{p:?} of {r:?}");
            }
        }
    }

    #[test]
    fn balances_clustered_data_better_than_uniform() {
        use crate::partition::load_imbalance;
        let a = skewed_boxes(4_000, 7);
        let b = skewed_boxes(4_000, 8);
        let uniform = AdaptiveGrid::from_sample(domain(), [6, 6], &[]);
        let adaptive = AdaptiveGrid::from_sample(domain(), [6, 6], &a);
        let ui = load_imbalance(&uniform, &a, &b);
        let ai = load_imbalance(&adaptive, &a, &b);
        assert!(ai < ui, "adaptive imbalance {ai} not below uniform {ui}");
    }

    #[test]
    fn empty_sample_degrades_to_uniform_cuts() {
        let g = AdaptiveGrid::from_sample(domain(), [4, 4], &[]);
        assert_eq!(g.cuts(0), &[25.0, 50.0, 75.0]);
        assert_eq!(
            g.tile_of(&Point([60.0, 10.0])),
            row_major_index([2, 0], [4, 4])
        );
    }

    #[test]
    fn degenerate_identical_sample_collapses_gracefully() {
        // All centers identical → all cuts identical → every interior
        // cell between duplicates is empty, but ownership stays total.
        let data: Vec<Rect<2>> = (0..100).map(|_| r2(50.0, 50.0, 50.0, 50.0)).collect();
        let g = AdaptiveGrid::from_sample(domain(), [4, 4], &data);
        let mut rng = SplitMix64::new(9);
        for _ in 0..300 {
            let p = Point([rng.gen_range(-10.0, 110.0), rng.gen_range(-10.0, 110.0)]);
            let owners = (0..g.tile_count()).filter(|&t| g.owns(t, &p)).count();
            assert_eq!(owners, 1);
        }
        let total: f64 = (0..g.tile_count()).map(|t| g.tile_rect(t).volume()).sum();
        assert!((total - 10_000.0).abs() < 1e-6);
    }

    #[test]
    fn non_finite_sample_centres_are_skipped() {
        // An unbounded rect has a NaN centre (−∞ + ∞), and so does a NaN
        // coordinate; neither may reach the sort. Built as literals
        // because `Rect::new` rejects NaN corners in debug builds.
        let unbounded = Rect {
            lo: Point([f64::NEG_INFINITY, f64::NEG_INFINITY]),
            hi: Point([f64::INFINITY, f64::INFINITY]),
        };
        let nan = Rect {
            lo: Point([f64::NAN, 10.0]),
            hi: Point([f64::NAN, 10.0]),
        };
        // Only NaN centres along x: equal cuts, like an empty sample. Along
        // y the NaN box still has a finite centre, 10, which sets every cut.
        let g = AdaptiveGrid::from_sample(domain(), [4, 4], &[unbounded, nan]);
        assert_eq!(g.cuts(0), &[25.0, 50.0, 75.0]);
        assert_eq!(g.cuts(1), &[10.0, 10.0, 10.0]);
        let g = AdaptiveGrid::from_sample(domain(), [4, 4], &[unbounded]);
        assert_eq!(g, AdaptiveGrid::from_sample(domain(), [4, 4], &[]));
        // Mixed with finite data, the bad centres are ignored per axis:
        // x sees only the finite boxes, y also sees the NaN box's 10.
        let mut data = skewed_boxes(500, 10);
        let finite = AdaptiveGrid::from_sample(domain(), [4, 4], &data);
        data.extend([unbounded, nan]);
        let g = AdaptiveGrid::from_sample(domain(), [4, 4], &data);
        assert_eq!(g.cuts(0), finite.cuts(0));
        assert!(g.cuts(1).windows(2).all(|w| w[0] <= w[1]));
        assert!(g.cuts(1).iter().all(|&c| (0.0..=100.0).contains(&c)));
    }
}
