//! Shard boundaries over a [`Partitioner`]'s tiling.
//!
//! A *shard* owns a contiguous range of global tile ids. Everything the
//! engine already guarantees per tile — multi-assignment, reference-point
//! ownership, counter-exact join decomposition — survives the split
//! unchanged, because a shard boundary is just a grouping of tiles:
//!
//! * [`ShardMap`] cuts `0..tile_count` into near-equal contiguous
//!   ranges, one per shard ([`ShardMap::balanced`]).
//! * [`ShardTiling`] wraps a partitioner into one shard's *view* of it:
//!   the global tile-id space is kept (so reference-point ownership
//!   still names global tiles), but [`Partitioner::covering_tiles`] is
//!   filtered to the shard's range — a store built under a
//!   [`ShardTiling`] indexes only its shard's tiles, and produces
//!   exactly the results/pairs whose owning tile lies in that range.
//!   Summing (or concatenating, for tile-ordered results) over all
//!   shards of a [`ShardMap`] therefore reproduces the unsharded answer
//!   *exactly* — the property the serve layer's scatter-gather router
//!   and its oracle tests rest on.
//! * [`merge_knn`] folds per-shard k-nearest candidate lists into the
//!   global top-k with the same id-dedup + `(distance, id)` ordering
//!   the single-store search uses, so the merged answer is byte-equal
//!   to an unsharded [`crate::DatasetStore`] kNN.

use cbb_geom::{Point, Rect};
use cbb_rtree::{push_neighbor, Neighbor};

use crate::partition::Partitioner;

/// A contiguous cut of a tiling's `0..tile_count` global tile ids into
/// `shard_count` ranges, shard `s` owning `range(s)`.
///
/// Every map is [`Self::balanced`]: it depends on the tile count
/// alone, never on the data, so datasets over one partitioner get
/// identical ranges and their cross-joins stay shard-local.
///
/// Contiguity is deliberate: a shard's tiles are an ascending run, so
/// concatenating per-shard tile-ordered results in shard order yields
/// the global tile-ascending order an unsharded store produces — no
/// re-sort on merge. Shards may be empty when there are fewer tiles
/// than shards (the router must tolerate that; the tests pin it).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardMap {
    /// `shard_count + 1` non-decreasing cut points; shard `s` owns
    /// tiles `bounds[s]..bounds[s + 1]`.
    bounds: Vec<usize>,
}

impl ShardMap {
    /// Cut `tile_count` tiles into `shards` near-equal contiguous
    /// ranges: shard `s` gets `⌊s·T/N⌋ .. ⌊(s+1)·T/N⌋`.
    pub fn balanced(tile_count: usize, shards: usize) -> Self {
        assert!(shards >= 1, "need at least one shard");
        let bounds = (0..=shards).map(|s| s * tile_count / shards).collect();
        ShardMap { bounds }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.bounds.len() - 1
    }

    /// Number of global tiles the map covers.
    pub fn tile_count(&self) -> usize {
        *self.bounds.last().expect("bounds are never empty")
    }

    /// The contiguous global tile range shard `s` owns (possibly
    /// empty).
    pub fn range(&self, shard: usize) -> std::ops::Range<usize> {
        self.bounds[shard]..self.bounds[shard + 1]
    }

    /// The shard owning global tile `tile`.
    pub fn shard_of(&self, tile: usize) -> usize {
        debug_assert!(tile < self.tile_count(), "tile out of range");
        // partition_point finds the first bound > tile; its predecessor
        // starts the owning range. Empty shards share a bound with
        // their successor and can never win (their range excludes
        // everything).
        self.bounds.partition_point(|&b| b <= tile) - 1
    }

    /// Ascending, deduplicated shard ids owning any of `tiles` — the
    /// scatter set of a query covering those tiles.
    pub fn covering_shards(&self, tiles: &[usize]) -> Vec<usize> {
        let mut shards: Vec<usize> = tiles.iter().map(|&t| self.shard_of(t)).collect();
        shards.sort_unstable();
        shards.dedup();
        shards
    }
}

/// One shard's view of a partitioner: global tile ids, range-filtered
/// coverage.
///
/// [`Partitioner::tile_count`], [`Partitioner::tile_of`], and
/// [`Partitioner::tile_rect`] delegate to the wrapped partitioner
/// unchanged — tile ids stay **global**, so reference-point ownership
/// ([`Partitioner::owns`]) names the same unique tile it names
/// unsharded. Only [`Partitioner::covering_tiles`] is filtered to the
/// shard's range: a store built under this view assigns (and indexes,
/// and answers for) exactly the tiles the shard owns. An object or
/// query whose coverage misses the range entirely simply lands in zero
/// tiles here — some other shard of the same [`ShardMap`] covers it.
///
/// The two partitioner laws survive *jointly* across a full shard set:
/// every point is owned by one global tile (law 1, inherited), and the
/// shard whose range holds that tile sees every rectangle containing
/// the point (law 2, because the unfiltered coverage did) — which is
/// why per-shard results merge exactly.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardTiling<P> {
    inner: P,
    lo: usize,
    hi: usize,
}

impl<P> ShardTiling<P> {
    /// View `tiles` (a range out of a [`ShardMap`] over `inner`'s
    /// tiling) of `inner`.
    pub fn new(inner: P, tiles: std::ops::Range<usize>) -> Self {
        ShardTiling {
            inner,
            lo: tiles.start,
            hi: tiles.end,
        }
    }

    /// The wrapped (global) partitioner.
    pub fn inner(&self) -> &P {
        &self.inner
    }

    /// The global tile range this view covers.
    pub fn tiles(&self) -> std::ops::Range<usize> {
        self.lo..self.hi
    }
}

impl<const D: usize, P: Partitioner<D>> Partitioner<D> for ShardTiling<P> {
    fn tile_count(&self) -> usize {
        self.inner.tile_count()
    }

    fn tile_of(&self, p: &Point<D>) -> usize {
        self.inner.tile_of(p)
    }

    fn covering_tiles(&self, r: &Rect<D>) -> Vec<usize> {
        let mut tiles = self.inner.covering_tiles(r);
        tiles.retain(|&t| self.lo <= t && t < self.hi);
        tiles
    }

    fn tile_rect(&self, tile: usize) -> Rect<D> {
        self.inner.tile_rect(tile)
    }
}

/// Merge per-shard k-nearest candidate lists into the global top-k
/// with the same `(distance, id)`-ordered insertion ([`push_neighbor`])
/// the single-store search uses, which also drops the repeats of an
/// object spanning a shard boundary (every shard indexing it reports
/// it, at the same distance) — so the merged list is byte-equal to an
/// unsharded kNN over the union of the shards' objects.
pub fn merge_knn(parts: impl IntoIterator<Item = Vec<Neighbor>>, k: usize) -> Vec<Neighbor> {
    let mut best: Vec<Neighbor> = Vec::new();
    for (id, dist) in parts.into_iter().flatten() {
        push_neighbor(&mut best, k, id, dist);
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AdaptiveGrid;
    use cbb_geom::SplitMix64;
    use cbb_rtree::DataId;

    fn r2(lx: f64, ly: f64, hx: f64, hy: f64) -> Rect<2> {
        Rect::new(Point([lx, ly]), Point([hx, hy]))
    }

    #[test]
    fn balanced_map_partitions_every_tile_once() {
        for (tiles, shards) in [(16, 4), (16, 3), (5, 2), (4, 7), (0, 3), (1, 1)] {
            let map = ShardMap::balanced(tiles, shards);
            assert_eq!(map.shard_count(), shards);
            assert_eq!(map.tile_count(), tiles);
            let mut seen = 0usize;
            for s in 0..shards {
                let range = map.range(s);
                seen += range.len();
                for t in range {
                    assert_eq!(map.shard_of(t), s, "tile {t}");
                }
            }
            assert_eq!(seen, tiles, "ranges partition the tile space");
        }
    }

    #[test]
    fn more_shards_than_tiles_leaves_empty_shards() {
        let map = ShardMap::balanced(4, 7);
        let empty = (0..7).filter(|&s| map.range(s).is_empty()).count();
        assert_eq!(empty, 3, "7 shards over 4 tiles: 3 empty");
        // Every tile still has exactly one owner.
        for t in 0..4 {
            let s = map.shard_of(t);
            assert!(map.range(s).contains(&t));
        }
    }

    #[test]
    fn covering_shards_dedups_and_sorts() {
        let map = ShardMap::balanced(16, 4);
        assert_eq!(map.covering_shards(&[0, 1, 2, 3]), vec![0]);
        assert_eq!(map.covering_shards(&[3, 4, 15, 5]), vec![0, 1, 3]);
        assert_eq!(map.covering_shards(&[]), Vec::<usize>::new());
    }

    #[test]
    fn shard_views_jointly_reproduce_the_global_assignment() {
        let grid = AdaptiveGrid::from_sample(r2(0.0, 0.0, 100.0, 100.0), [4, 4], &[]);
        let mut rng = SplitMix64::new(21);
        let rects: Vec<Rect<2>> = (0..300)
            .map(|_| {
                let x = rng.gen_range(-5.0, 95.0);
                let y = rng.gen_range(-5.0, 95.0);
                r2(
                    x,
                    y,
                    x + rng.gen_range(0.1, 30.0),
                    y + rng.gen_range(0.1, 30.0),
                )
            })
            .collect();
        for shards in [2usize, 3, 5] {
            let map = ShardMap::balanced(grid.tile_count(), shards);
            let global = Partitioner::assign(&grid, &rects);
            let mut merged = vec![Vec::new(); grid.tile_count()];
            for s in 0..shards {
                let view = ShardTiling::new(grid.clone(), map.range(s));
                assert_eq!(Partitioner::tile_count(&view), grid.tile_count());
                let assigned = view.assign(&rects);
                for (t, list) in assigned.into_iter().enumerate() {
                    if !list.is_empty() {
                        assert!(map.range(s).contains(&t), "shard {s} leaked tile {t}");
                        merged[t] = list;
                    }
                }
            }
            assert_eq!(
                merged, global,
                "{shards}-shard views must tile the assignment"
            );
        }
    }

    #[test]
    fn shard_view_ownership_is_global() {
        let grid = AdaptiveGrid::from_sample(r2(0.0, 0.0, 100.0, 100.0), [4, 4], &[]);
        let view = ShardTiling::new(grid.clone(), 4..8);
        let mut rng = SplitMix64::new(22);
        for _ in 0..500 {
            let p = Point([rng.gen_range(-10.0, 110.0), rng.gen_range(-10.0, 110.0)]);
            // tile_of and owns answer globally — identical to the
            // unsharded partitioner for every point.
            assert_eq!(Partitioner::tile_of(&view, &p), grid.tile_of(&p));
            for t in 0..16 {
                assert_eq!(view.owns(t, &p), grid.owns(t, &p));
            }
        }
    }

    #[test]
    fn merge_knn_matches_single_list_semantics() {
        let n = |id: u32, d: f64| (DataId(id), d);
        // Three shards, a boundary object (id 7) reported twice, a tie
        // at the k-th distance broken by id.
        let a = vec![n(7, 1.0), n(2, 4.0)];
        let b = vec![n(5, 2.0), n(7, 1.0), n(9, 4.0)];
        let c = vec![n(1, 4.0)];
        let merged = merge_knn([a, b, c], 4);
        assert_eq!(merged, vec![n(7, 1.0), n(5, 2.0), n(1, 4.0), n(2, 4.0)]);
        assert!(merge_knn([vec![n(3, 0.5)]], 0).is_empty());
        // Order of shard lists does not change the answer.
        let x = vec![n(1, 4.0)];
        let y = vec![n(5, 2.0), n(7, 1.0), n(9, 4.0)];
        let z = vec![n(7, 1.0), n(2, 4.0)];
        assert_eq!(merged, merge_knn([x, y, z], 4));
    }
}
