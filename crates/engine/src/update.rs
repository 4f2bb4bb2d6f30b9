//! The write side of the engine: typed per-object updates and the
//! outcome of applying a batch of them to a [`crate::TileForest`].
//!
//! The read path treats a dataset as an immutable snapshot; this module
//! is what turns it into a *mutable versioned store*. A batch of
//! [`Update`]s is applied through
//! [`crate::DatasetStore::apply_updates`]: each object is routed to
//! the tiles it overlaps (the same multi-assignment the bulk build
//! uses), the affected per-tile clipped trees are maintained through
//! `ClippedRTree::insert`/`delete` (§IV-D clip maintenance) in place,
//! so an update batch costs what changed instead of a wholesale
//! rebuild. When a reader still holds the previous forest, only the
//! touched tiles are copied and the untouched ones stay shared with it.
//!
//! Aji et al. (*Effective Spatial Data Partitioning for Scalable Query
//! Processing*) and Tsitsigkos et al. (*Parallel In-Memory Evaluation
//! of Spatial Joins*) both observe that partition-local maintenance is
//! what lets a partitioned spatial system run as a long-lived service;
//! this module is that maintenance path for the clipped-MBB engine.

use cbb_geom::Rect;
use cbb_rtree::DataId;

/// One mutation of the served dataset.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Update<const D: usize> {
    /// Add an object; the store assigns the next free [`DataId`].
    Insert(Rect<D>),
    /// Remove the object with this id (a no-op on dead or unknown ids).
    Delete(DataId),
}

/// What happened to one [`Update`], aligned with the input batch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UpdateResult {
    /// The insert was applied under this freshly assigned id.
    Inserted(DataId),
    /// The delete was applied (`true`) or the id was dead/unknown
    /// (`false`).
    Deleted(bool),
    /// The insert was refused (non-finite or inverted rectangle) —
    /// nothing changed.
    Rejected,
}

/// Merged outcome of applying one update batch.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct UpdateOutcome {
    /// Per-update results, in batch order.
    pub results: Vec<UpdateResult>,
    /// Distinct tiles whose trees were touched by the batch (mutated in
    /// place, or copied first when an older forest still shared them).
    /// Tiles outside every updated object's covering set are untouched.
    pub tiles_touched: usize,
    /// Tile trees created for previously empty tiles.
    pub trees_created: usize,
    /// Tile trees dropped because the last object left them.
    pub trees_dropped: usize,
    /// R-tree nodes constructed while applying the batch (splits, new
    /// roots, fresh tile roots). Machine-independent: the delta-apply
    /// vs rebuild-per-batch comparison the update property tests pin,
    /// and the benchmark's `engine.apply_nodes_allocated_per_update`.
    pub nodes_allocated: u64,
    /// Tombstoned arena slots swept into the free list by the
    /// compaction pass that ran after this batch (0 when tombstones did
    /// not exceed [`crate::COMPACT_DEAD_FRACTION`] of the arena). Reclaimed
    /// slots are reused by later inserts; live ids never move.
    pub slots_reclaimed: usize,
}

impl UpdateOutcome {
    /// Ids assigned to the batch's applied inserts, in batch order.
    pub fn inserted_ids(&self) -> Vec<DataId> {
        self.results
            .iter()
            .filter_map(|r| match r {
                UpdateResult::Inserted(id) => Some(*id),
                _ => None,
            })
            .collect()
    }

    /// Number of applied deletes (`Deleted(true)` results).
    pub fn deletes_applied(&self) -> usize {
        self.results
            .iter()
            .filter(|r| matches!(r, UpdateResult::Deleted(true)))
            .count()
    }

    /// Updates that changed the store (applied inserts + applied
    /// deletes). A batch with `applied() == 0` bumps no version and
    /// must invalidate no cache.
    pub fn applied(&self) -> u64 {
        self.results
            .iter()
            .filter(|r| matches!(r, UpdateResult::Inserted(_) | UpdateResult::Deleted(true)))
            .count() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbb_geom::Point;

    #[test]
    fn outcome_accessors() {
        let outcome = UpdateOutcome {
            results: vec![
                UpdateResult::Inserted(DataId(7)),
                UpdateResult::Deleted(true),
                UpdateResult::Rejected,
                UpdateResult::Inserted(DataId(9)),
                UpdateResult::Deleted(false),
            ],
            ..UpdateOutcome::default()
        };
        assert_eq!(outcome.inserted_ids(), vec![DataId(7), DataId(9)]);
        assert_eq!(outcome.deletes_applied(), 1);
    }

    #[test]
    fn update_is_plain_data() {
        let r: Rect<2> = Rect::new(Point([0.0, 0.0]), Point([1.0, 1.0]));
        let a = Update::Insert(r);
        let b = a;
        assert_eq!(a, b);
        assert_ne!(Update::<2>::Delete(DataId(3)), b);
    }
}
