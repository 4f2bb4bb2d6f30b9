//! Per-request phase tracing.
//!
//! A [`Span`] is a fixed array of nanosecond accumulators, one per
//! [`Phase`] — no allocation, no clock reads of its own. The serve
//! layer stamps phases as a request moves queue-wait → batch-coalesce →
//! lock-acquire → execute → respond; engine sub-phases (forest build
//! vs. cache hit, join probing) land in the same span. Finished spans
//! feed the per-phase histograms and the slow-query ring.

/// A lifecycle phase of a served request. The first five are the
/// serve-layer pipeline in order; `ForestBuild`/`Probe` are engine
/// sub-phases that overlap `Execute`; `Scatter`/`Gather` are router
/// sub-phases of a sharded service that overlap the whole per-shard
/// pipeline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Enqueued until its batch opened (first request popped).
    QueueWait,
    /// Batch open until this request was picked up by the dispatcher.
    Coalesce,
    /// Waiting on the dataset's read/write lock.
    LockAcquire,
    /// Running the query / applying the write.
    Execute,
    /// Delay from end of batch execution until this request's
    /// completion handle is fulfilled (recorded just before the
    /// fulfilment, so counters are exact the moment a waiter wakes).
    Respond,
    /// Engine sub-phase: building a missing [`TileForest`] on a cache
    /// miss (zero on a cache hit).
    ///
    /// [`TileForest`]: https://docs.rs/cbb-engine
    ForestBuild,
    /// Engine sub-phase: probing tile trees (range / kNN / join work).
    Probe,
    /// Router sub-phase: splitting a request across shards and pushing
    /// the per-shard copies (zero on an unsharded service). Overlaps
    /// the per-shard pipeline phases, so excluded from
    /// [`Span::total_ns`].
    Scatter,
    /// Router sub-phase: waiting on per-shard completions and merging
    /// their responses (zero on an unsharded service). Excluded from
    /// [`Span::total_ns`] like `Scatter`.
    Gather,
}

impl Phase {
    /// Every phase, in pipeline order. Order matches declaration order
    /// — `phase as usize` indexes per-phase arrays built from `ALL`.
    pub const ALL: [Phase; 9] = [
        Phase::QueueWait,
        Phase::Coalesce,
        Phase::LockAcquire,
        Phase::Execute,
        Phase::Respond,
        Phase::ForestBuild,
        Phase::Probe,
        Phase::Scatter,
        Phase::Gather,
    ];

    /// Stable snake_case name (used as the `phase` label value).
    pub fn name(self) -> &'static str {
        match self {
            Phase::QueueWait => "queue_wait",
            Phase::Coalesce => "coalesce",
            Phase::LockAcquire => "lock_acquire",
            Phase::Execute => "execute",
            Phase::Respond => "respond",
            Phase::ForestBuild => "forest_build",
            Phase::Probe => "probe",
            Phase::Scatter => "scatter",
            Phase::Gather => "gather",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// Accumulated nanoseconds per phase for one request. Phases may be
/// recorded multiple times (e.g. a join probing several tiles);
/// durations add.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Span {
    ns: [u64; Phase::ALL.len()],
}

impl Span {
    /// An empty span.
    pub fn new() -> Self {
        Span::default()
    }

    /// Add `ns` nanoseconds to `phase`.
    #[inline]
    pub fn record(&mut self, phase: Phase, ns: u64) {
        self.ns[phase.index()] = self.ns[phase.index()].saturating_add(ns);
    }

    /// Add a duration to `phase`.
    #[inline]
    pub fn record_duration(&mut self, phase: Phase, d: std::time::Duration) {
        self.record(phase, u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Nanoseconds accumulated in `phase`.
    pub fn get(&self, phase: Phase) -> u64 {
        self.ns[phase.index()]
    }

    /// Total nanoseconds across the *pipeline* phases (queue-wait
    /// through respond). Engine sub-phases overlap `Execute` and are
    /// excluded to avoid double counting.
    pub fn total_ns(&self) -> u64 {
        [
            Phase::QueueWait,
            Phase::Coalesce,
            Phase::LockAcquire,
            Phase::Execute,
            Phase::Respond,
        ]
        .iter()
        .map(|p| self.get(*p))
        .fold(0u64, u64::saturating_add)
    }

    /// `(phase name, ns)` for every non-zero phase, in pipeline order.
    pub fn breakdown(&self) -> Vec<(&'static str, u64)> {
        Phase::ALL
            .iter()
            .filter(|p| self.get(**p) > 0)
            .map(|p| (p.name(), self.get(*p)))
            .collect()
    }

    /// Fold another span into this one (used when one request spans
    /// several execution units).
    pub fn absorb(&mut self, other: &Span) {
        for p in Phase::ALL {
            self.record(p, other.get(p));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phases_accumulate_and_break_down() {
        let mut span = Span::new();
        span.record(Phase::QueueWait, 100);
        span.record(Phase::Execute, 40);
        span.record(Phase::Execute, 2);
        span.record(Phase::Probe, 30);
        assert_eq!(span.get(Phase::Execute), 42);
        assert_eq!(span.total_ns(), 142, "sub-phases excluded from total");
        assert_eq!(
            span.breakdown(),
            vec![("queue_wait", 100), ("execute", 42), ("probe", 30)]
        );
    }

    #[test]
    fn absorb_adds_phasewise() {
        let mut a = Span::new();
        a.record(Phase::LockAcquire, 5);
        let mut b = Span::new();
        b.record(Phase::LockAcquire, 7);
        b.record(Phase::Respond, 1);
        a.absorb(&b);
        assert_eq!(a.get(Phase::LockAcquire), 12);
        assert_eq!(a.get(Phase::Respond), 1);
    }

    #[test]
    fn saturation_not_overflow() {
        let mut span = Span::new();
        span.record(Phase::Execute, u64::MAX);
        span.record(Phase::Execute, 10);
        assert_eq!(span.get(Phase::Execute), u64::MAX);
        span.record(Phase::QueueWait, u64::MAX);
        assert_eq!(span.total_ns(), u64::MAX);
    }
}
