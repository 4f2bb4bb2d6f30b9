//! The typed client surface: `service.dataset("roads")?.range(rect)`.
//!
//! Building a [`Request`] enum by hand spells out every field at every
//! call site; [`DatasetClient`] binds a dataset once and offers one
//! method per request shape. Every typed method funnels into
//! [`ShardedService::submit`], so a typed call and its enum spelling
//! are *the same request* — same queueing, same batching, same
//! [`CompletionHandle`] — and the two styles mix freely:
//!
//! ```no_run
//! # use cbb_serve::ServiceBuilder;
//! # use cbb_core::{ClipConfig, ClipMethod};
//! # use cbb_engine::UniformGrid;
//! # use cbb_geom::{Point, Rect};
//! # use cbb_rtree::{TreeConfig, Variant};
//! # let service = ServiceBuilder::new().build_catalog::<2, UniformGrid<2>>(
//! #     TreeConfig::tiny(Variant::RStar),
//! #     ClipConfig::paper_default::<2>(ClipMethod::Stairline),
//! # );
//! # let rect = Rect::new(Point([0.0, 0.0]), Point([1.0, 1.0]));
//! let roads = service.dataset("roads").expect("created earlier");
//! let hits = roads.range(rect).unwrap().wait().unwrap();
//! let near = roads.knn(Point([3.0, 4.0]), 5).unwrap().wait().unwrap();
//! ```

use cbb_engine::{DatasetId, JoinAlgo, Partitioner, PersistPartitioner, Update};
use cbb_geom::{Point, Rect};
use cbb_rtree::DataId;

use crate::handle::CompletionHandle;
use crate::queue::Closed;
use crate::request::{Completion, Request};
use crate::router::ShardedService;

impl<const D: usize, P> ShardedService<D, P>
where
    P: Partitioner<D>
        + PersistPartitioner
        + Clone
        + PartialEq
        + std::fmt::Debug
        + Send
        + Sync
        + 'static,
{
    /// A typed client bound to the named dataset (`None` for unknown
    /// names).
    pub fn dataset(&self, name: &str) -> Option<DatasetClient<'_, D, P>> {
        self.dataset_id(name).map(|id| self.client(id))
    }

    /// A typed client bound to a dataset id (not validated until a
    /// request is answered — an unknown id fails per request with
    /// [`crate::RequestError::UnknownDataset`]).
    pub fn client(&self, id: DatasetId) -> DatasetClient<'_, D, P> {
        DatasetClient {
            service: self,
            dataset: id,
        }
    }
}

/// A dataset-bound view of a service: one method per request shape,
/// each returning the same [`CompletionHandle`] the enum path does.
/// Cheap to copy; hold one per dataset you talk to.
pub struct DatasetClient<'a, const D: usize, P> {
    service: &'a ShardedService<D, P>,
    dataset: DatasetId,
}

impl<const D: usize, P> Clone for DatasetClient<'_, D, P> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<const D: usize, P> Copy for DatasetClient<'_, D, P> {}

/// The submit result every client method returns.
pub type ClientResult<const D: usize, P> =
    Result<CompletionHandle<Completion>, Closed<Request<D, P>>>;

impl<const D: usize, P> DatasetClient<'_, D, P>
where
    P: Partitioner<D>
        + PersistPartitioner
        + Clone
        + PartialEq
        + std::fmt::Debug
        + Send
        + Sync
        + 'static,
{
    /// The bound dataset's id.
    pub fn id(&self) -> DatasetId {
        self.dataset
    }

    /// All objects intersecting `query`, probed with clip points
    /// (paper Algorithm 2). Resolves to [`crate::Response::Range`].
    pub fn range(&self, query: Rect<D>) -> ClientResult<D, P> {
        self.service.submit(Request::Range {
            dataset: self.dataset,
            query,
            use_clips: true,
        })
    }

    /// [`Self::range`] without clip-point pruning (the baseline the
    /// paper compares against).
    pub fn range_unclipped(&self, query: Rect<D>) -> ClientResult<D, P> {
        self.service.submit(Request::Range {
            dataset: self.dataset,
            query,
            use_clips: false,
        })
    }

    /// The `k` objects nearest to `center` (MINDIST order, ties by
    /// id). Resolves to [`crate::Response::Knn`].
    pub fn knn(&self, center: Point<D>, k: usize) -> ClientResult<D, P> {
        self.service.submit(Request::Knn {
            dataset: self.dataset,
            center,
            k,
        })
    }

    /// Join client-streamed `probes` against this dataset with clip
    /// pruning. Resolves to [`crate::Response::Join`].
    pub fn probe_join(&self, probes: Vec<Rect<D>>, algo: JoinAlgo) -> ClientResult<D, P> {
        self.probe_join_with(probes, algo, true)
    }

    /// [`Self::probe_join`] with explicit clip-pruning selection.
    pub fn probe_join_with(
        &self,
        probes: Vec<Rect<D>>,
        algo: JoinAlgo,
        use_clips: bool,
    ) -> ClientResult<D, P> {
        self.service.submit(Request::Join {
            dataset: self.dataset,
            probes,
            algo,
            use_clips,
        })
    }

    /// Join this dataset (probe side) against another **served**
    /// dataset by name — `roads.join("parcels", algo)`. `None` when
    /// the name is unknown; resolves to [`crate::Response::Join`].
    pub fn join(&self, other: &str, algo: JoinAlgo) -> Option<ClientResult<D, P>> {
        let right = self.service.dataset_id(other)?;
        Some(self.join_id(right, algo, true))
    }

    /// [`Self::join`] by id, with explicit clip-pruning selection.
    pub fn join_id(&self, right: DatasetId, algo: JoinAlgo, use_clips: bool) -> ClientResult<D, P> {
        self.service.submit(Request::CrossJoin {
            left: self.dataset,
            right,
            algo,
            use_clips,
        })
    }

    /// Insert one object; resolves to [`crate::Response::Inserted`]
    /// with the assigned id.
    pub fn insert(&self, rect: Rect<D>) -> ClientResult<D, P> {
        self.service.submit(Request::Insert {
            dataset: self.dataset,
            rect,
        })
    }

    /// Delete one object by id; resolves to
    /// [`crate::Response::Deleted`].
    pub fn delete(&self, id: DataId) -> ClientResult<D, P> {
        self.service.submit(Request::Delete {
            dataset: self.dataset,
            id,
        })
    }

    /// Apply a pre-grouped write batch atomically; resolves to
    /// [`crate::Response::Updated`].
    pub fn update(&self, updates: Vec<Update<D>>) -> ClientResult<D, P> {
        self.service.submit(Request::UpdateBatch {
            dataset: self.dataset,
            updates,
        })
    }
}
