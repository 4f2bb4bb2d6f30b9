//! The shard boundary: one self-contained slice of a sharded
//! deployment.
//!
//! A [`Shard`] is a full query service — its own catalog, admission
//! queue, dispatcher pool, and telemetry registry — that
//! happens to index only the tiles a
//! [`cbb_engine::ShardMap`] assigned to it (its stores are built under
//! a [`cbb_engine::ShardTiling`] view of each dataset's partitioner).
//! The router ([`crate::ShardedService`]) talks to shards **only**
//! through this trait, so the in-process implementation here can later
//! be swapped for a network transport (a connection pool speaking the
//! same request/response types) without touching the scatter-gather
//! logic.
//!
//! The contract a `Shard` implementation must keep:
//!
//! * `submit` admits one request and returns a handle that resolves
//!   exactly once (or is canceled if the shard dies) — the router's
//!   gather step waits on these.
//! * Requests admitted in one submission order are *applied* in that
//!   order relative to each other (the queue is FIFO); the router
//!   relies on this to keep write replicas in lock-step.
//! * `close` stops admission without discarding accepted work;
//!   `shutdown` drains and reports. The router closes **all** shards
//!   before draining any, so no shard keeps answering while its
//!   siblings are torn down.

use cbb_telemetry::SlowQuery;

use crate::handle::CompletionHandle;
use crate::queue::Closed;
use crate::request::{Completion, Request};
use crate::service::{QueryService, Scrape};
use crate::stats::ServiceReport;

/// One shard of a sharded service: the transport-agnostic boundary the
/// router scatters over. `Q` is the shard's partitioner type — for a
/// router over global partitioner `P` this is
/// [`cbb_engine::ShardTiling<P>`], the shard's range-filtered view of
/// the global tiling.
pub trait Shard<const D: usize, Q>: Send + Sync {
    /// Admit one request; the handle resolves when the shard has
    /// answered it. Fails only once the shard no longer admits work.
    fn submit(
        &self,
        request: Request<D, Q>,
    ) -> Result<CompletionHandle<Completion>, Closed<Request<D, Q>>>;

    /// This shard's counter snapshot (its own registry; the router
    /// sums these across shards).
    fn report(&self) -> ServiceReport;

    /// This shard's telemetry exposition.
    fn scrape(&self) -> Scrape;

    /// This shard's slowest answered requests.
    fn slow_queries(&self) -> Vec<SlowQuery>;

    /// Stop admission; accepted requests still complete.
    fn close(&self);

    /// Drain everything accepted, stop the shard, and return its final
    /// report.
    fn shutdown(self: Box<Self>) -> ServiceReport;
}

/// The in-process [`Shard`]: a [`QueryService`] owned by the router in
/// the same process. N in-process shards = N catalogs, N dispatcher
/// pools, N registries — the deployment the oracle tests pin
/// byte-equal to a single-store service.
pub struct InProcessShard<const D: usize, Q> {
    service: QueryService<D, Q>,
}

impl<const D: usize, Q> InProcessShard<D, Q>
where
    Q: cbb_engine::Partitioner<D>
        + cbb_engine::PersistPartitioner
        + Clone
        + PartialEq
        + std::fmt::Debug
        + Send
        + Sync
        + 'static,
{
    /// Wrap a running service as a shard.
    pub fn new(service: QueryService<D, Q>) -> Self {
        InProcessShard { service }
    }

    /// The wrapped service (direct access for tests/tools).
    pub fn service(&self) -> &QueryService<D, Q> {
        &self.service
    }
}

impl<const D: usize, Q> Shard<D, Q> for InProcessShard<D, Q>
where
    Q: cbb_engine::Partitioner<D>
        + cbb_engine::PersistPartitioner
        + Clone
        + PartialEq
        + std::fmt::Debug
        + Send
        + Sync
        + 'static,
{
    fn submit(
        &self,
        request: Request<D, Q>,
    ) -> Result<CompletionHandle<Completion>, Closed<Request<D, Q>>> {
        self.service.submit(request)
    }

    fn report(&self) -> ServiceReport {
        self.service.report()
    }

    fn scrape(&self) -> Scrape {
        self.service.scrape()
    }

    fn slow_queries(&self) -> Vec<SlowQuery> {
        self.service.slow_queries()
    }

    fn close(&self) {
        self.service.close();
    }

    fn shutdown(self: Box<Self>) -> ServiceReport {
        self.service.shutdown()
    }
}
