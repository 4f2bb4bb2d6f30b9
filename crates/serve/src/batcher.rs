//! Micro-batch formation and execution: the bridge between the request
//! queue and the catalog's per-dataset stores.
//!
//! **Natural batching** (the default, `batch_deadline` zero): a
//! dispatcher blocks for the first request, takes whatever backlog is
//! already queued — up to `batch_max`, under one queue lock — and goes.
//! A batch is as large as the load makes it: while the dispatcher
//! executes one batch the next one queues up behind it, so a saturated
//! service fills every batch to `batch_max` and an idle one answers a
//! lone request at once, with no tuning and no added latency.
//!
//! A non-zero `batch_deadline` additionally keeps a non-full batch open
//! that long for stragglers — the classic group-commit trade of a
//! bounded dash of latency for wider batches. It is worth setting only
//! when a batch's fixed cost is large next to the wait (durable writes
//! paying one `fsync` per batch) and arrivals are too sparse to queue
//! up on their own.
//!
//! Execution order inside one micro-batch:
//!
//! 1. **Mutations in queue order, writes coalesced per dataset**:
//!    every `Insert`/`Delete`/`UpdateBatch` targeting dataset X is
//!    coalesced into one ordered engine apply under X's write lock
//!    with a *single* version bump of X (group commit for index
//!    maintenance); the store's forest is maintained in place, with no
//!    rebuild. An admin op (`CreateDataset` / `DropDataset` /
//!    `SwapData`) is a **barrier**: pending write groups flush before
//!    it runs, so the final state is exactly what strict queue-order
//!    execution would produce (an insert enqueued before a swap is
//!    swapped away; one enqueued after it survives). Locks are taken
//!    one dataset at a time and released before the next — a write
//!    burst into A never holds B.
//! 2. **Reads, grouped per dataset** under that dataset's read lock
//!    (kind-grouped: clipped ranges, baseline ranges and kNN probes
//!    ride one executor call each, joins run per request), observing
//!    the batch's own writes. Every range group is answered by clipped
//!    tree descents per (query, covering tile) — the same calls
//!    [`cbb_engine::DatasetStore::run`] makes, so served access
//!    counters equal a direct `run` on the same queries whatever the
//!    grouping and whatever the forest has cached — and every join
//!    sweeps each tile. Cross-dataset joins acquire their two read
//!    locks in ascending id order — the global lock-ordering rule that
//!    keeps the dispatcher pool deadlock-free.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use cbb_engine::{
    partitioned_join_forests, partitioned_join_with, Dataset, DatasetId, JoinPlan, Partitioner,
    Update, UpdateResult,
};
use cbb_geom::{Point, Rect};
use cbb_joins::JoinResult;
use cbb_telemetry::{Phase, Span};

use crate::queue::{Bounded, Popped};
use crate::request::{Completion, Request, RequestError, Response, UpdateSummary};
use crate::service::{Envelope, SharedState};

/// Pull one micro-batch off the queue: block for the first request,
/// take the backlog queued behind it (up to `batch_max`, one lock), then
/// keep a non-full batch open for stragglers until `deadline_after` the
/// batch opened — not at all when that is zero. `None` means the queue
/// is closed and drained — the dispatcher's exit signal. A batch is
/// never empty. The returned [`Instant`] is when the batch **opened**
/// (the first requests were popped) — the boundary between a request's
/// queue-wait and coalesce phases.
pub(crate) fn collect_batch<T>(
    queue: &Bounded<T>,
    batch_max: usize,
    deadline_after: Duration,
) -> Option<(Vec<T>, Instant)> {
    let mut batch = queue.pop_many(batch_max)?;
    let opened = Instant::now();
    if !deadline_after.is_zero() {
        let deadline = opened + deadline_after;
        while batch.len() < batch_max {
            match queue.pop_until(deadline) {
                Popped::Item(item) => batch.push(item),
                Popped::TimedOut | Popped::Closed => break,
            }
        }
    }
    Some((batch, opened))
}

/// Per-slot telemetry gathered while a batch executes: the phase span,
/// the dataset a request resolved to, and the work counters attributed
/// to it (feeds the histograms and the slow-query ring once handles are
/// fulfilled).
struct BatchTrace {
    spans: Vec<Span>,
    /// One shared name per read or write group, not a copy per slot.
    datasets: Vec<Option<Arc<str>>>,
    counters: Vec<Vec<(&'static str, u64)>>,
}

impl BatchTrace {
    /// Attribute `d` in `phase` to every listed slot. Group-level wall
    /// time (one lock acquisition, one executor call) is attributed in
    /// full to each request that rode the group — per-request *work* is
    /// in the counters; the span answers "where did this request's
    /// service time go".
    fn record_group(&mut self, slots: impl IntoIterator<Item = usize>, phase: Phase, d: Duration) {
        for slot in slots {
            self.spans[slot].record_duration(phase, d);
        }
    }
}

/// Reads of one dataset, grouped by kind so each group rides one
/// executor call; `slot` indexes the micro-batch.
#[derive(Default)]
struct ReadGroup<const D: usize> {
    clipped: Vec<(usize, Rect<D>)>,
    baseline: Vec<(usize, Rect<D>)>,
    knns: Vec<(usize, (Point<D>, usize))>,
    joins: Vec<(usize, Vec<Rect<D>>, bool)>,
}

/// Which write request a coalesced slot came from (decides its
/// response shape once the group's results are back).
#[derive(Clone, Copy)]
enum WriteKind {
    Insert,
    Delete,
    UpdateBatch,
}

/// Pending coalesced writes: per dataset, the ordered ops plus each
/// contributing request's `(slot, lo, hi, kind)` range into them.
type WriteGroups<const D: usize> = BTreeMap<DatasetId, (Vec<Update<D>>, Vec<WriteSlot>)>;
type WriteSlot = (usize, usize, usize, WriteKind);

/// Apply (and answer) every pending write group: per dataset, one
/// write lock, one ordered engine apply (the forest is maintained in
/// place, no rebuild), one version bump. Locks are taken one dataset
/// at a time and released before the next — a write burst into A
/// never holds B. Called between admin-op barriers and once at the end
/// of the mutation pass.
fn flush_writes<const D: usize, P>(
    shared: &SharedState<D, P>,
    groups: &mut WriteGroups<D>,
    responses: &mut [Option<Response>],
    trace: &mut BatchTrace,
) where
    P: Partitioner<D> + cbb_engine::PersistPartitioner + Clone,
{
    for (dataset, (ops, write_slots)) in std::mem::take(groups) {
        let Some(entry) = shared.catalog.get(dataset) else {
            for (slot, ..) in write_slots {
                responses[slot] = Some(Response::Failed(RequestError::UnknownDataset(dataset)));
            }
            continue;
        };
        let slots = || write_slots.iter().map(|s| s.0);
        let name: Arc<str> = entry.name().into();
        for slot in slots() {
            trace.datasets[slot] = Some(name.clone());
        }
        let (version, results) = if ops.is_empty() {
            // Only empty UpdateBatch requests: nothing to apply, no bump.
            let lock_t = Instant::now();
            let store = entry.store().read().expect("dataset store poisoned");
            trace.record_group(slots(), Phase::LockAcquire, lock_t.elapsed());
            (store.version(), Vec::new())
        } else {
            let lock_t = Instant::now();
            let mut store = entry.store().write().expect("dataset store poisoned");
            let lock_d = lock_t.elapsed();
            let exec_t = Instant::now();
            let outcome = store.apply_updates(&ops, shared.tree, shared.clip);
            // A batch whose writes all turned out to be no-ops (dead-id
            // deletes, rejected inserts) changed nothing: the store
            // bumped no version, so log nothing and account nothing —
            // retry storms must not churn versions.
            let applied = outcome.applied();
            if applied > 0 {
                // Durable group commit: the whole coalesced micro-batch
                // is one WAL record, appended and fsynced *while the
                // write lock still pins the version it produced* (WAL
                // order = version order) and before any waiter is
                // fulfilled at the end of `run_batch`.
                if let Some(durability) = &shared.durability {
                    durability.commit_batch(dataset, &store, &ops, &shared.stats);
                }
            }
            let exec_d = exec_t.elapsed();
            let version = store.version();
            drop(store);
            trace.record_group(slots(), Phase::LockAcquire, lock_d);
            trace.record_group(slots(), Phase::Execute, exec_d);
            if applied > 0 {
                shared
                    .stats
                    .record_write_batch(applied, outcome.nodes_allocated);
            }
            (version, outcome.results)
        };
        for (slot, lo, hi, _) in &write_slots {
            trace.counters[*slot].push(("updates_submitted", (hi - lo) as u64));
        }
        for (slot, lo, hi, kind) in write_slots {
            responses[slot] = Some(match kind {
                WriteKind::Insert => Response::Inserted(match results[lo] {
                    UpdateResult::Inserted(id) => Some(id),
                    UpdateResult::Rejected => None,
                    UpdateResult::Deleted(_) => unreachable!("insert answered as delete"),
                }),
                WriteKind::Delete => Response::Deleted(match results[lo] {
                    UpdateResult::Deleted(ok) => ok,
                    _ => unreachable!("delete answered as insert"),
                }),
                WriteKind::UpdateBatch => Response::Updated(UpdateSummary {
                    version,
                    results: results[lo..hi].to_vec(),
                }),
            });
        }
    }
}

/// Execute one micro-batch against the catalog and fulfil every
/// completion handle. Answers are identical to issuing each request
/// alone: per-query results never depend on what else shares the batch
/// (the oracle tests pin this).
pub(crate) fn run_batch<const D: usize, P>(
    shared: &SharedState<D, P>,
    mut batch: Vec<Envelope<D, P>>,
    opened: Instant,
) where
    P: Partitioner<D> + cbb_engine::PersistPartitioner + Clone + PartialEq,
{
    let picked_up = Instant::now();
    let size = batch.len();
    let workers = shared.config.exec_workers;
    shared.stats.queue_depth.add(-(size as i64));
    let mut responses: Vec<Option<Response>> = std::iter::repeat_with(|| None).take(size).collect();
    let kinds: Vec<_> = batch.iter().map(|env| env.request.kind()).collect();
    // Seed each span with the two admission phases. Queue-wait runs
    // enqueue → batch open; coalesce runs batch open → pickup (for a
    // request that arrived after the batch opened, the wait is zero and
    // the whole interval is coalesce). The two sum to exactly
    // `Completion::queued`.
    let mut trace = BatchTrace {
        spans: batch
            .iter()
            .map(|env| {
                let mut span = Span::new();
                span.record_duration(
                    Phase::QueueWait,
                    opened.saturating_duration_since(env.enqueued),
                );
                span.record_duration(
                    Phase::Coalesce,
                    picked_up.duration_since(env.enqueued.max(opened)),
                );
                span
            })
            .collect(),
        datasets: vec![None; size],
        counters: vec![Vec::new(); size],
    };

    // ── 1. Mutations (writes + admin ops), in queue order with
    // per-dataset group commit: consecutive writes are coalesced per
    // dataset, and an admin op is a **barrier** — every pending write
    // group flushes before it runs. An Insert enqueued before a
    // SwapData of its dataset is therefore really applied before the
    // swap (and discarded by it), and a write enqueued after a
    // DropDataset fails — exactly the final state queue-order
    // execution would produce. Payloads are taken out of the envelope
    // (the request is never revisited).
    let mut write_groups: WriteGroups<D> = BTreeMap::new();
    for (slot, env) in batch.iter_mut().enumerate() {
        match &mut env.request {
            Request::CreateDataset {
                name,
                partitioner,
                objects,
            } => {
                flush_writes(shared, &mut write_groups, &mut responses, &mut trace);
                trace.datasets[slot] = Some(name.as_str().into());
                let t = Instant::now();
                let response = match shared.create_dataset_now(
                    name,
                    partitioner.clone(),
                    std::mem::take(objects),
                ) {
                    Ok(id) => Response::Created(id),
                    Err(err) => Response::Failed(err),
                };
                // Creating a dataset IS a forest build: the whole
                // execution is bulk-load, so the sub-phase mirrors it.
                let d = t.elapsed();
                trace.spans[slot].record_duration(Phase::Execute, d);
                trace.spans[slot].record_duration(Phase::ForestBuild, d);
                responses[slot] = Some(response);
            }
            Request::DropDataset { dataset } => {
                flush_writes(shared, &mut write_groups, &mut responses, &mut trace);
                trace.datasets[slot] = shared
                    .catalog
                    .get(*dataset)
                    .map(|entry| entry.name().into());
                let t = Instant::now();
                responses[slot] = Some(Response::Dropped(shared.drop_dataset_now(*dataset)));
                trace.spans[slot].record_duration(Phase::Execute, t.elapsed());
            }
            Request::SwapData {
                dataset,
                objects,
                partitioner,
            } => {
                flush_writes(shared, &mut write_groups, &mut responses, &mut trace);
                trace.datasets[slot] = shared
                    .catalog
                    .get(*dataset)
                    .map(|entry| entry.name().into());
                let t = Instant::now();
                let response =
                    match shared.swap_now(*dataset, std::mem::take(objects), partitioner.take()) {
                        Ok(version) => Response::Swapped(version),
                        Err(err) => Response::Failed(err),
                    };
                let d = t.elapsed();
                trace.spans[slot].record_duration(Phase::Execute, d);
                trace.spans[slot].record_duration(Phase::ForestBuild, d);
                responses[slot] = Some(response);
            }
            Request::Insert { dataset, rect } => {
                let (ops, slots) = write_groups.entry(*dataset).or_default();
                slots.push((slot, ops.len(), ops.len() + 1, WriteKind::Insert));
                ops.push(Update::Insert(*rect));
            }
            Request::Delete { dataset, id } => {
                let (ops, slots) = write_groups.entry(*dataset).or_default();
                slots.push((slot, ops.len(), ops.len() + 1, WriteKind::Delete));
                ops.push(Update::Delete(*id));
            }
            Request::UpdateBatch { dataset, updates } => {
                let (ops, slots) = write_groups.entry(*dataset).or_default();
                let lo = ops.len();
                ops.extend(updates.iter().copied());
                slots.push((slot, lo, ops.len(), WriteKind::UpdateBatch));
            }
            _ => {}
        }
    }
    flush_writes(shared, &mut write_groups, &mut responses, &mut trace);

    // ── 3. Reads, grouped per dataset; each group runs under that
    // dataset's read lock, acquired after its writes: the batch's reads
    // observe the batch's writes.
    let mut read_groups: BTreeMap<DatasetId, ReadGroup<D>> = BTreeMap::new();
    let mut cross_joins: Vec<(usize, DatasetId, DatasetId, bool)> = Vec::new();
    for (slot, env) in batch.iter_mut().enumerate() {
        match &mut env.request {
            // Geometry with no answer is refused here, where the read
            // groups are formed: it never reaches a store.
            Request::Range { query, .. } if !query.is_valid() => {
                responses[slot] = Some(Response::Failed(RequestError::InvalidQuery));
            }
            Request::Knn { center, .. } if !center.is_finite() => {
                responses[slot] = Some(Response::Failed(RequestError::InvalidQuery));
            }
            Request::Range {
                dataset,
                query,
                use_clips,
            } => {
                let group = read_groups.entry(*dataset).or_default();
                if *use_clips {
                    group.clipped.push((slot, *query));
                } else {
                    group.baseline.push((slot, *query));
                }
            }
            Request::Knn { dataset, center, k } => {
                read_groups
                    .entry(*dataset)
                    .or_default()
                    .knns
                    .push((slot, (*center, *k)));
            }
            Request::Join {
                dataset,
                probes,
                use_clips,
                ..
            } => {
                read_groups.entry(*dataset).or_default().joins.push((
                    slot,
                    std::mem::take(probes),
                    *use_clips,
                ));
            }
            Request::CrossJoin {
                left,
                right,
                use_clips,
                ..
            } => cross_joins.push((slot, *left, *right, *use_clips)),
            // Writes and admin ops were already applied and answered.
            _ => {}
        }
    }
    for (dataset, group) in read_groups {
        let Some(entry) = shared.catalog.get(dataset) else {
            let fail = || Some(Response::Failed(RequestError::UnknownDataset(dataset)));
            for (slot, _) in group.clipped.iter().chain(&group.baseline) {
                responses[*slot] = fail();
            }
            for (slot, _) in &group.knns {
                responses[*slot] = fail();
            }
            for (slot, ..) in &group.joins {
                responses[*slot] = fail();
            }
            continue;
        };
        let name: Arc<str> = entry.name().into();
        let access = shared.stats.access_counters(&name);
        let member_slots: Vec<usize> = group
            .clipped
            .iter()
            .chain(&group.baseline)
            .map(|(slot, _)| *slot)
            .chain(group.knns.iter().map(|(slot, _)| *slot))
            .chain(group.joins.iter().map(|(slot, ..)| *slot))
            .collect();
        for slot in &member_slots {
            trace.datasets[*slot] = Some(name.clone());
        }
        let lock_t = Instant::now();
        let store = entry.store().read().expect("dataset store poisoned");
        trace.record_group(member_slots, Phase::LockAcquire, lock_t.elapsed());
        for (group, use_clips) in [(&group.clipped, true), (&group.baseline, false)] {
            if group.is_empty() {
                continue;
            }
            let queries: Vec<Rect<D>> = group.iter().map(|(_, q)| *q).collect();
            let t = Instant::now();
            let outcome = store.run(&queries, workers, use_clips);
            let d = t.elapsed();
            for (counter, (_, n)) in access.iter().zip(outcome.stats.fields()) {
                counter.add(n);
            }
            for (((slot, _), ids), stats) in
                group.iter().zip(outcome.results).zip(&outcome.per_query)
            {
                responses[*slot] = Some(Response::Range(ids));
                trace.spans[*slot].record_duration(Phase::Execute, d);
                trace.spans[*slot].record_duration(Phase::Probe, d);
                trace.counters[*slot].extend(stats.fields());
            }
        }
        if !group.knns.is_empty() {
            let probes: Vec<(Point<D>, usize)> = group.knns.iter().map(|(_, p)| *p).collect();
            let t = Instant::now();
            let outcome = store.run_knn(&probes, workers);
            let d = t.elapsed();
            for (counter, (_, n)) in access.iter().zip(outcome.stats.fields()) {
                counter.add(n);
            }
            for (((slot, _), nn), stats) in group
                .knns
                .iter()
                .zip(outcome.results)
                .zip(&outcome.per_query)
            {
                responses[*slot] = Some(Response::Knn(nn));
                trace.spans[*slot].record_duration(Phase::Execute, d);
                trace.spans[*slot].record_duration(Phase::Probe, d);
                trace.counters[*slot].extend(stats.fields());
            }
        }
        for (slot, probes, use_clips) in group.joins {
            // Joins run per request against the store's forest — built
            // once per create or swap and maintained in place by writes,
            // its columns cached per tile version — so repeat joins sort
            // only the probe side and touch no lock beyond the read lock
            // already held.
            let plan = JoinPlan::new(
                store.partitioner().clone(),
                shared.tree,
                shared.clip,
                workers,
            )
            .with_clips(use_clips);
            let t = Instant::now();
            let result = partitioned_join_with(&plan, &probes, store.objects(), store.forest());
            let d = t.elapsed();
            shared.stats.join_pairs.add(result.pairs);
            trace.spans[slot].record_duration(Phase::Execute, d);
            trace.spans[slot].record_duration(Phase::Probe, d);
            trace.counters[slot].extend(join_counters(&result));
            responses[slot] = Some(Response::Join(result));
        }
    }
    for (slot, left, right, use_clips) in cross_joins {
        let t = Instant::now();
        let response = run_cross_join(shared, left, right, use_clips);
        let d = t.elapsed();
        // The cross join resolves, locks and probes inside one call;
        // its span carries the whole thing as Execute + Probe.
        trace.spans[slot].record_duration(Phase::Execute, d);
        trace.spans[slot].record_duration(Phase::Probe, d);
        if let Response::Join(result) = &response {
            shared.stats.join_pairs.add(result.pairs);
            trace.counters[slot].extend(join_counters(result));
        }
        responses[slot] = Some(response);
    }

    let serviced = picked_up.elapsed();
    let exec_end = Instant::now();
    // Everything about a request is recorded BEFORE its handle is
    // fulfilled: the moment a waiter wakes, every total already counts
    // it (the concurrency test pins this exactness). Respond is the
    // delay from end-of-execution to this slot's fulfilment — requests
    // late in the loop absorb the fulfilment cost of earlier ones.
    shared.stats.record_batch(size);
    for (slot, (env, response)) in batch.into_iter().zip(responses).enumerate() {
        let queued = picked_up.duration_since(env.enqueued);
        trace.spans[slot].record_duration(Phase::Respond, exec_end.elapsed());
        let dataset = trace.datasets[slot].take();
        let counters = std::mem::take(&mut trace.counters[slot]);
        shared.stats.record_completion(
            kinds[slot],
            u64::try_from((queued + serviced).as_nanos()).unwrap_or(u64::MAX),
            &trace.spans[slot],
            dataset,
            counters,
        );
        env.promise.fulfill(Completion {
            response: response.expect("every slot answered"),
            queued,
            serviced,
            batch_size: size,
        });
    }
}

/// The work counters a join request contributes to its slow-ring entry.
fn join_counters(result: &JoinResult) -> [(&'static str, u64); 6] {
    [
        ("pairs", result.pairs),
        ("leaf_accesses_left", result.leaf_accesses_left),
        ("leaf_accesses_right", result.leaf_accesses_right),
        ("internal_accesses", result.internal_accesses),
        ("clip_prunes", result.clip_prunes),
        ("overlap_tests", result.overlap_tests),
    ]
}

/// Join the live objects of two served datasets: `left ⋈ right`, tiled
/// by the **right** (indexed) side's partitioner and swept per tile.
/// The right side's columns always come from its store's forest; when
/// the tilings are equal the left side's are borrowed too
/// ([`partitioned_join_forests`] — nothing is assigned or sorted beyond
/// each forest's once-per-tile-version column cache). Only a
/// partitioner mismatch re-partitions the probe side's live rectangles
/// onto the right tiling ([`partitioned_join_with`]) — the
/// `cbb_probe_repartitions_total` counter tracks exactly those.
fn run_cross_join<const D: usize, P>(
    shared: &SharedState<D, P>,
    left: DatasetId,
    right: DatasetId,
    use_clips: bool,
) -> Response
where
    P: Partitioner<D> + cbb_engine::PersistPartitioner + Clone + PartialEq,
{
    let resolve = |id: DatasetId| -> Result<Arc<Dataset<D, P>>, Response> {
        shared
            .catalog
            .get(id)
            .ok_or(Response::Failed(RequestError::UnknownDataset(id)))
    };
    let lentry = match resolve(left) {
        Ok(e) => e,
        Err(fail) => return fail,
    };
    let rentry = match resolve(right) {
        Ok(e) => e,
        Err(fail) => return fail,
    };
    shared.stats.cross_joins.inc();

    let plan_for = |partitioner: P| {
        JoinPlan::new(
            partitioner,
            shared.tree,
            shared.clip,
            shared.config.exec_workers,
        )
        .with_clips(use_clips)
    };

    // Self-join: one read lock, the store's forest joined against
    // itself — no live-rect extraction, no probe re-partitioning.
    if left == right {
        let store = rentry.store().read().expect("dataset store poisoned");
        let plan = plan_for(store.partitioner().clone());
        return Response::Join(partitioned_join_forests(
            &plan,
            store.forest(),
            store.objects(),
            store.forest(),
        ));
    }

    // Two datasets: read locks in ascending id order (writers hold one
    // lock at a time, every multi-lock reader orders by id — no cycle).
    let (first, second) = if left < right {
        (&lentry, &rentry)
    } else {
        (&rentry, &lentry)
    };
    let first_guard = first.store().read().expect("dataset store poisoned");
    let second_guard = second.store().read().expect("dataset store poisoned");
    let (lstore, rstore) = if left < right {
        (&first_guard, &second_guard)
    } else {
        (&second_guard, &first_guard)
    };

    let plan = plan_for(rstore.partitioner().clone());
    let result = if lstore.partitioner() == rstore.partitioner() {
        // Shared tiling: the probe side's forest IS the per-tile left
        // side a fresh partitioned join would sort — borrow both.
        partitioned_join_forests(&plan, lstore.forest(), rstore.objects(), rstore.forest())
    } else {
        // Different tilings: re-partition the probe side's live objects
        // onto the indexed side's tiles.
        shared.stats.probe_repartitions.inc();
        let probes = lstore.live_rects();
        partitioned_join_with(&plan, &probes, rstore.objects(), rstore.forest())
    };
    Response::Join(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn collect_respects_batch_max() {
        let q = Bounded::new(16);
        for i in 0..10 {
            q.push(i).unwrap();
        }
        let (batch, _) = collect_batch(&q, 4, Duration::from_millis(50)).unwrap();
        assert_eq!(batch, vec![0, 1, 2, 3]);
        assert_eq!(q.pop_many(64), Some(vec![4, 5, 6, 7, 8, 9]));
    }

    #[test]
    fn collect_flushes_on_deadline() {
        let q: Bounded<u32> = Bounded::new(16);
        q.push(9).unwrap();
        let t = Instant::now();
        let (batch, opened) = collect_batch(&q, 64, Duration::from_millis(10)).unwrap();
        assert_eq!(batch, vec![9]);
        assert!(t.elapsed() >= Duration::from_millis(10));
        // The open stamp is the *first pop*, not the deadline flush.
        assert!(opened.duration_since(t) < Duration::from_millis(10));
    }

    #[test]
    fn default_config_takes_the_backlog_and_goes() {
        let config = crate::service::ServiceConfig::default();
        let collect = |q: &Bounded<u32>| {
            collect_batch(q, config.batch_max, config.batch_deadline).map(|(batch, _)| batch)
        };
        // A lone request is not held back for company. Timed as the
        // fastest of several tries so a descheduled test thread cannot
        // fail it, while any real wait would slow every try.
        let q: Bounded<u32> = Bounded::new(1024);
        let fastest = (0..20)
            .map(|i| {
                q.push(i).unwrap();
                let t = Instant::now();
                assert_eq!(collect(&q), Some(vec![i]));
                t.elapsed()
            })
            .min()
            .expect("twenty tries");
        assert!(
            fastest < Duration::from_millis(1),
            "waited {fastest:?} on a lone request"
        );
        // A backlog fills batches to the cap, FIFO, then the remainder.
        for i in 0..200 {
            q.push(i).unwrap();
        }
        assert_eq!(collect(&q), Some((0..64).collect()));
        assert_eq!(collect(&q), Some((64..128).collect()));
        assert_eq!(collect(&q), Some((128..192).collect()));
        assert_eq!(collect(&q), Some((192..200).collect()));
    }

    #[test]
    fn collect_is_immediate_when_unbatched() {
        let q: Bounded<u32> = Bounded::new(16);
        q.push(1).unwrap();
        q.push(2).unwrap();
        // batch_max = 1 never waits on the deadline.
        let t = Instant::now();
        let (batch, _) = collect_batch(&q, 1, Duration::from_secs(60)).unwrap();
        assert_eq!(batch, vec![1]);
        assert!(t.elapsed() < Duration::from_secs(1));
    }

    #[test]
    fn collect_drains_then_signals_closed() {
        let q: Bounded<u32> = Bounded::new(16);
        q.push(5).unwrap();
        q.close();
        assert_eq!(
            collect_batch(&q, 8, Duration::from_millis(5)).map(|(batch, _)| batch),
            Some(vec![5])
        );
        assert!(collect_batch(&q, 8, Duration::from_millis(5)).is_none());
    }
}
