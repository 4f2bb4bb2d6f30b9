//! The service's wire types: requests (reads, writes, *and* catalog
//! administration), responses, and per-request timing.

use std::time::Duration;

use cbb_engine::{DataVersion, DatasetId, JoinAlgo, Update, UpdateResult};
use cbb_geom::{Point, Rect};
use cbb_joins::JoinResult;
use cbb_rtree::{DataId, Neighbor};

/// One request against the service's **catalog** — a query or mutation
/// of one named dataset, a join across two, or an admin operation.
///
/// Every data request names its target [`DatasetId`]; the batcher
/// coalesces *per dataset*, so writes draining into dataset A never
/// serialize reads of dataset B. Writes sharing a micro-batch against
/// the same dataset are coalesced into **one** atomic engine apply with
/// a **single** [`DataVersion`] bump of that dataset (none at all when
/// every write turns out to be a no-op), then the batch's reads run
/// against the updated stores. A request admitted after a write's
/// completion handle resolves is guaranteed to observe that write
/// (read-your-writes). Admin operations ride the same queue — a
/// graceful shutdown drains them like any other request.
///
/// The `P` parameter is the service's partitioner type (it only
/// appears in [`Request::CreateDataset`]; use
/// [`cbb_engine::AnyPartitioner`] to mix partitioner kinds in one
/// catalog).
#[derive(Clone, Debug)]
pub enum Request<const D: usize, P> {
    /// All objects of `dataset` intersecting `query`. `use_clips`
    /// selects clipped (paper Algorithm 2) or baseline probing of the
    /// same trees. A non-finite or inverted `query` fails with
    /// [`RequestError::InvalidQuery`].
    Range {
        /// Target dataset.
        dataset: DatasetId,
        /// The query window.
        query: Rect<D>,
        /// Clipped or baseline probing.
        use_clips: bool,
    },
    /// The `k` objects of `dataset` nearest to `center` (MINDIST order,
    /// ties by id). A `center` with a non-finite coordinate fails with
    /// [`RequestError::InvalidQuery`].
    Knn {
        /// Target dataset.
        dataset: DatasetId,
        /// Probe point.
        center: Point<D>,
        /// Neighbours wanted.
        k: usize,
    },
    /// Join `probes ⋈ dataset`: every intersecting (probe, object)
    /// pair, counted via the partitioned join, each tile swept with the
    /// dataset side's columns borrowed from its store's forest. A probe
    /// set holding a non-finite or inverted rectangle fails with
    /// [`RequestError::InvalidQuery`].
    Join {
        /// The indexed (right) dataset.
        dataset: DatasetId,
        /// Client-streamed probe rectangles.
        probes: Vec<Rect<D>>,
        /// Ignored: every tile is swept. Kept only because
        /// `benchmark/src/layers.rs` names it; ROADMAP item F retires
        /// it.
        algo: JoinAlgo,
        /// Root clip-point pre-check of each tile's sweep.
        use_clips: bool,
    },
    /// Join two **served datasets**: every intersecting pair between
    /// the live objects of `left` and `right`, swept per tile. The
    /// right side's forest is always reused; when both datasets share a
    /// tiling the left side's forest is borrowed too
    /// ([`cbb_engine::partitioned_join_forests`]) — otherwise the left
    /// side's live objects are re-partitioned onto the right side's
    /// tiling. `left == right` is the self-join.
    CrossJoin {
        /// The probe-side dataset.
        left: DatasetId,
        /// The indexed-side dataset (its partitioner tiles the join).
        right: DatasetId,
        /// Ignored, as [`Request::Join`]'s `algo` is.
        algo: JoinAlgo,
        /// Root clip-point pre-check of each tile's sweep.
        use_clips: bool,
    },
    /// Insert one object into `dataset`; the store assigns and returns
    /// its [`DataId`] (the smallest compaction-reclaimed slot when one
    /// is free, else a fresh arena slot). Slots are reclaimed by one
    /// fixed rule: after a write batch leaves more than
    /// [`cbb_engine::COMPACT_DEAD_FRACTION`] of the arena tombstoned,
    /// every dead slot becomes reusable. A non-finite or inverted
    /// `rect` is rejected (answers `Inserted(None)`).
    Insert {
        /// Target dataset.
        dataset: DatasetId,
        /// The object to insert.
        rect: Rect<D>,
    },
    /// Delete one object of `dataset` by id (answers `false` for
    /// dead/unknown ids). Note that after a compaction sweep reclaims
    /// a dead slot, its id can be reassigned to a later insert —
    /// *retrying* an already-applied delete may then hit the new
    /// occupant, and no setting turns sweeps off. Await each write's
    /// handle instead: a delete whose handle resolved was applied
    /// exactly once and needs no retry. At-least-once clients must
    /// dedup their delete retries.
    Delete {
        /// Target dataset.
        dataset: DatasetId,
        /// The object to delete.
        id: DataId,
    },
    /// A pre-grouped write batch against `dataset`, applied atomically
    /// in order under the same single version bump as the rest of its
    /// micro-batch's writes to that dataset.
    UpdateBatch {
        /// Target dataset.
        dataset: DatasetId,
        /// The updates, applied in order.
        updates: Vec<Update<D>>,
    },
    /// Register a new named dataset: partition `objects` under
    /// `partitioner`, bulk-load its tile forest (one counted build),
    /// and answer the assigned [`DatasetId`]. Fails with
    /// [`RequestError::NameTaken`] when the name exists, and with
    /// [`RequestError::InvalidObject`] when an object is non-finite or
    /// inverted.
    CreateDataset {
        /// Catalog-unique dataset name.
        name: String,
        /// The dataset's own partitioner (fitted to its data).
        partitioner: P,
        /// Initial objects.
        objects: Vec<Rect<D>>,
    },
    /// Remove a dataset and its forest. Answers whether
    /// the dataset existed; its id is never reused.
    DropDataset {
        /// The dataset to drop.
        dataset: DatasetId,
    },
    /// Replace `dataset`'s objects wholesale: fresh id space, a counted
    /// forest rebuild, one version bump. With a
    /// `partitioner`, the tiling is re-fitted at the same time (the
    /// churn-drift answer). Fails with [`RequestError::InvalidObject`],
    /// leaving the dataset as it was, when an object is non-finite or
    /// inverted.
    SwapData {
        /// Target dataset.
        dataset: DatasetId,
        /// The replacement objects.
        objects: Vec<Rect<D>>,
        /// Optional replacement partitioner (re-fit path).
        partitioner: Option<P>,
    },
}

/// The kind of a [`Request`], one variant per request shape — the
/// stable `request_kind` telemetry label (per-kind completion counters
/// and latency histograms key on it).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RequestKind {
    /// [`Request::Range`].
    Range,
    /// [`Request::Knn`].
    Knn,
    /// [`Request::Join`].
    Join,
    /// [`Request::CrossJoin`].
    CrossJoin,
    /// [`Request::Insert`].
    Insert,
    /// [`Request::Delete`].
    Delete,
    /// [`Request::UpdateBatch`].
    UpdateBatch,
    /// [`Request::CreateDataset`].
    CreateDataset,
    /// [`Request::DropDataset`].
    DropDataset,
    /// [`Request::SwapData`].
    SwapData,
}

impl RequestKind {
    /// Every kind, in [`Request`] declaration order.
    pub const ALL: [RequestKind; 10] = [
        RequestKind::Range,
        RequestKind::Knn,
        RequestKind::Join,
        RequestKind::CrossJoin,
        RequestKind::Insert,
        RequestKind::Delete,
        RequestKind::UpdateBatch,
        RequestKind::CreateDataset,
        RequestKind::DropDataset,
        RequestKind::SwapData,
    ];

    /// Stable snake_case name (the `request_kind` label value).
    pub fn name(self) -> &'static str {
        match self {
            RequestKind::Range => "range",
            RequestKind::Knn => "knn",
            RequestKind::Join => "join",
            RequestKind::CrossJoin => "cross_join",
            RequestKind::Insert => "insert",
            RequestKind::Delete => "delete",
            RequestKind::UpdateBatch => "update_batch",
            RequestKind::CreateDataset => "create_dataset",
            RequestKind::DropDataset => "drop_dataset",
            RequestKind::SwapData => "swap_data",
        }
    }

    /// Index into [`Self::ALL`] (pre-resolved handle arrays key on it).
    pub(crate) fn index(self) -> usize {
        self as usize
    }
}

impl<const D: usize, P> Request<D, P> {
    /// This request's [`RequestKind`].
    pub fn kind(&self) -> RequestKind {
        match self {
            Request::Range { .. } => RequestKind::Range,
            Request::Knn { .. } => RequestKind::Knn,
            Request::Join { .. } => RequestKind::Join,
            Request::CrossJoin { .. } => RequestKind::CrossJoin,
            Request::Insert { .. } => RequestKind::Insert,
            Request::Delete { .. } => RequestKind::Delete,
            Request::UpdateBatch { .. } => RequestKind::UpdateBatch,
            Request::CreateDataset { .. } => RequestKind::CreateDataset,
            Request::DropDataset { .. } => RequestKind::DropDataset,
            Request::SwapData { .. } => RequestKind::SwapData,
        }
    }

    /// The dataset a data request targets (`None` for admin requests
    /// and cross-dataset joins, which have their own routing).
    pub fn dataset(&self) -> Option<DatasetId> {
        match self {
            Request::Range { dataset, .. }
            | Request::Knn { dataset, .. }
            | Request::Join { dataset, .. }
            | Request::Insert { dataset, .. }
            | Request::Delete { dataset, .. }
            | Request::UpdateBatch { dataset, .. }
            | Request::SwapData { dataset, .. }
            | Request::DropDataset { dataset } => Some(*dataset),
            Request::CrossJoin { .. } | Request::CreateDataset { .. } => None,
        }
    }
}

/// Why a request could not be served. Carried inside
/// [`Response::Failed`] — a refused request is still *answered* (its
/// completion handle resolves), it just resolves to this.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RequestError {
    /// The named dataset does not exist (never created, or dropped —
    /// possibly by an admin request earlier in the same micro-batch).
    UnknownDataset(DatasetId),
    /// `CreateDataset` named an existing dataset.
    NameTaken(String),
    /// A `CreateDataset` or `SwapData` payload holds a non-finite or
    /// inverted rectangle (`lo > hi` on some axis) at this index into
    /// its objects; nothing was built or replaced.
    InvalidObject(usize),
    /// A read whose geometry has no answer: a `Range` window or a
    /// `Join` probe that is non-finite or inverted, or a `Knn` centre
    /// with a non-finite coordinate. Nothing was searched.
    InvalidQuery,
}

impl std::fmt::Display for RequestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RequestError::UnknownDataset(id) => write!(f, "unknown dataset {id:?}"),
            RequestError::NameTaken(name) => write!(f, "dataset name {name:?} is taken"),
            RequestError::InvalidObject(index) => {
                write!(f, "object {index} is non-finite or inverted")
            }
            RequestError::InvalidQuery => {
                write!(f, "query window or centre is non-finite or inverted")
            }
        }
    }
}

impl std::error::Error for RequestError {}

/// The answer to an [`Request::UpdateBatch`]: per-update results plus
/// the version the batch's bump produced.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UpdateSummary {
    /// The data version of the target dataset installed by the
    /// micro-batch that carried this request (shared by every write to
    /// that dataset in the batch).
    pub version: DataVersion,
    /// One result per submitted update, in order.
    pub results: Vec<UpdateResult>,
}

/// The answer to one [`Request`].
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// Ids of matching objects, **sorted ascending by id** — the
    /// canonical order, independent of the tile visit order and the
    /// shard layout.
    Range(Vec<DataId>),
    /// Neighbours sorted by `(squared distance, id)`.
    Knn(Vec<Neighbor>),
    /// Join counters (pair count and I/O metrics) — for both
    /// [`Request::Join`] and [`Request::CrossJoin`].
    Join(JoinResult),
    /// The id assigned to an applied [`Request::Insert`], or `None`
    /// when the rectangle was rejected (non-finite or inverted).
    Inserted(Option<DataId>),
    /// Whether the [`Request::Delete`]'s object was live and removed.
    Deleted(bool),
    /// Per-update results of an [`Request::UpdateBatch`].
    Updated(UpdateSummary),
    /// The id assigned by a [`Request::CreateDataset`].
    Created(DatasetId),
    /// Whether a [`Request::DropDataset`]'s target existed.
    Dropped(bool),
    /// The version a [`Request::SwapData`] installed.
    Swapped(DataVersion),
    /// The request could not be served (unknown dataset, name taken,
    /// invalid object).
    Failed(RequestError),
}

impl Response {
    /// The range ids, panicking on other variants (test/demo helper).
    pub fn into_range(self) -> Vec<DataId> {
        match self {
            Response::Range(ids) => ids,
            other => panic!("expected a range response, got {other:?}"),
        }
    }

    /// The neighbour list, panicking on other variants.
    pub fn into_knn(self) -> Vec<Neighbor> {
        match self {
            Response::Knn(nn) => nn,
            other => panic!("expected a kNN response, got {other:?}"),
        }
    }

    /// The join counters, panicking on other variants.
    pub fn into_join(self) -> JoinResult {
        match self {
            Response::Join(r) => r,
            other => panic!("expected a join response, got {other:?}"),
        }
    }

    /// The assigned insert id, panicking on other variants.
    pub fn into_inserted(self) -> Option<DataId> {
        match self {
            Response::Inserted(id) => id,
            other => panic!("expected an insert response, got {other:?}"),
        }
    }

    /// The delete flag, panicking on other variants.
    pub fn into_deleted(self) -> bool {
        match self {
            Response::Deleted(ok) => ok,
            other => panic!("expected a delete response, got {other:?}"),
        }
    }

    /// The update summary, panicking on other variants.
    pub fn into_updated(self) -> UpdateSummary {
        match self {
            Response::Updated(summary) => summary,
            other => panic!("expected an update response, got {other:?}"),
        }
    }

    /// The created dataset id, panicking on other variants (including
    /// a [`Response::Failed`] name clash).
    pub fn into_created(self) -> DatasetId {
        match self {
            Response::Created(id) => id,
            other => panic!("expected a create response, got {other:?}"),
        }
    }

    /// The drop flag, panicking on other variants.
    pub fn into_dropped(self) -> bool {
        match self {
            Response::Dropped(ok) => ok,
            other => panic!("expected a drop response, got {other:?}"),
        }
    }

    /// The swapped-in version, panicking on other variants.
    pub fn into_swapped(self) -> DataVersion {
        match self {
            Response::Swapped(v) => v,
            other => panic!("expected a swap response, got {other:?}"),
        }
    }

    /// The failure, if this is one.
    pub fn error(&self) -> Option<&RequestError> {
        match self {
            Response::Failed(err) => Some(err),
            _ => None,
        }
    }
}

/// A fulfilled request: the response plus its per-request timing.
#[derive(Clone, Debug)]
pub struct Completion {
    /// The answer.
    pub response: Response,
    /// Time spent queued before a dispatcher picked the request up.
    pub queued: Duration,
    /// Wall-clock of the batch execution that served the request.
    pub serviced: Duration,
    /// How many requests shared that batch (≥ 1).
    pub batch_size: usize,
}

impl Completion {
    /// Queue wait + execution: the latency the client observed from
    /// admission to completion.
    pub fn latency(&self) -> Duration {
        self.queued + self.serviced
    }
}
