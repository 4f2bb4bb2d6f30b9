//! The service half of the seeded model (the engine half is
//! `cbb-engine`'s `tests/model/`, included by path as `crate::model`).
//!
//! [`run`] draws a case from a seed — the datasets, tilings, tree
//! variant and engine execution of [`model::Case`], plus a service
//! [`Shape`] — and streams rounds of requests through three parties:
//! the brute-force model (M), the engine reference (R, mirroring the
//! service's catalog, refusals and write coalescing) and one service of
//! the drawn shape (S). A round is a pipelined burst of reads, all
//! awaited, then a pipelined burst of writes and admin ops, all
//! awaited; reads see the state at the start of their round.
//!
//! Checks: R equals M and the drawn engine execution equals R (in the
//! engine half); every `Response` of S equals R's byte for byte,
//! `JoinResult` counters included; after every write group R's tile
//! trees pass the clip audit and validation; the catalog listing,
//! versions and live counts agree after every round; at the end,
//! answers equal a `SwapData` of the model's survivors, and forest
//! builds, write batches, applied updates and allocated nodes add up
//! over the shards. Every wait is bounded.
//!
//! The service coalesces a burst's writes into micro-batches. With one
//! shard and one dispatcher the batches are observable (each completion
//! reports its batch size) and R replays exactly those batches, so a
//! burst may hold any mix of writes. Otherwise the burst touches each
//! dataset at most once and creates at most one dataset, so its outcome
//! does not depend on how the service batches or orders it.
#![allow(dead_code)]

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::Duration;

use cbb_engine::{AnyPartitioner, DatasetId, JoinAlgo, TileForest, Update, UpdateResult};
use cbb_geom::{Point, Rect};
use cbb_rtree::{DataId, Variant};
use cbb_serve::{Completion, CompletionHandle, Request, RequestError, RequestKind, Response};
use cbb_serve::{ServiceBuilder, ShardedService, UpdateSummary};

use crate::model::{self, pick, Case, Exec, Model, Store, Tiling};

pub type Service = ShardedService<2, AnyPartitioner<2>>;
pub type Req = Request<2, AnyPartitioner<2>>;
/// Axis values a run exercised, for the coverage assertion.
pub type Seen = BTreeSet<String>;

/// How long any one request may take before the test fails.
pub const WAIT: Duration = Duration::from_secs(20);

/// Wait with a bound: a dead dispatcher fails the test instead of
/// hanging it.
pub fn wait(handle: CompletionHandle<Completion>) -> Completion {
    match handle.wait_timeout(WAIT) {
        Ok(done) => done.expect("request canceled: a dispatcher died"),
        Err(_) => panic!("request not answered within {WAIT:?}"),
    }
}

/// Submit and wait.
pub fn answer(svc: &Service, request: Req) -> Response {
    wait(svc.submit(request).expect("service open")).response
}

pub fn range(dataset: DatasetId, query: Rect<2>, use_clips: bool) -> Req {
    Request::Range {
        dataset,
        query,
        use_clips,
    }
}

pub fn knn(dataset: DatasetId, center: Point<2>, k: usize) -> Req {
    Request::Knn { dataset, center, k }
}

pub fn join(dataset: DatasetId, probes: Vec<Rect<2>>, use_clips: bool) -> Req {
    let algo = JoinAlgo::Auto;
    Request::Join {
        dataset,
        probes,
        algo,
        use_clips,
    }
}

pub fn cross_join(left: DatasetId, right: DatasetId, use_clips: bool) -> Req {
    let algo = JoinAlgo::Auto;
    Request::CrossJoin {
        left,
        right,
        algo,
        use_clips,
    }
}

/// A rect with a NaN, an infinite or an inverted bound.
pub fn hostile_rect(case: &mut Case) -> Rect<2> {
    let r = case.window();
    let (lo, hi) = (r.lo.0, r.hi.0);
    let (lo, hi) = match case.rng.gen_index(4) {
        0 => ([f64::NAN, lo[1]], hi),
        1 => ([f64::NEG_INFINITY, lo[1]], [f64::INFINITY, hi[1]]),
        2 => (lo, [hi[0], f64::INFINITY]),
        _ => ([hi[0] + 1.0, lo[1]], [lo[0], hi[1]]),
    };
    Rect {
        lo: Point(lo),
        hi: Point(hi),
    }
}

/// The service axes a case draws.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Shape {
    pub shards: usize,
    pub dispatchers: usize,
    /// `None` is `unbatched()`.
    pub batch_max: Option<usize>,
    /// How long a non-full batch stays open (batched only). A few
    /// milliseconds keep a pipelined burst in as few batches as
    /// `batch_max` allows, so cases that assert batching do not depend
    /// on when the dispatcher wakes.
    pub deadline: Duration,
    pub exec_workers: usize,
    /// Durability is one-shard only.
    pub durable: bool,
}

impl Shape {
    /// One queue, one consumer: micro-batches are contiguous runs of
    /// the queue and each completion reports its batch's size.
    fn ordered(&self) -> bool {
        self.shards == 1 && self.dispatchers == 1
    }
}

/// A drawn case: the engine half's draw plus the service shape.
pub struct ServeCase {
    pub data: Case,
    pub shape: Shape,
    /// Chance that a request carries hostile geometry.
    pub hostile: f64,
    pub rounds: usize,
}

/// One dataset of R: its store, its model, its name.
struct Entry {
    name: String,
    store: Store,
    model: Model,
}

/// R: the engine reference over a mirrored catalog.
struct Reference {
    variant: Variant,
    exec: Exec,
    datasets: Vec<Option<Entry>>,
    dropped_names: Vec<String>,
    builds: u64,
    /// Applied write groups, updates they applied, nodes they allocated.
    writes: [u64; 3],
    compacted: bool,
}

type Pending = BTreeMap<DatasetId, (Vec<Update<2>>, Vec<(usize, usize, usize)>)>;
/// Values tagged with their slot in a burst.
type Slots<T> = Vec<(usize, T)>;

impl Reference {
    fn entry(&self, id: DatasetId) -> Result<&Entry, Response> {
        match self.datasets.get(id.0 as usize) {
            Some(Some(entry)) => Ok(entry),
            _ => Err(Response::Failed(RequestError::UnknownDataset(id))),
        }
    }

    fn ids(&self, live: bool) -> Vec<DatasetId> {
        let ids = (0..self.datasets.len() as u32).map(DatasetId);
        ids.filter(|id| self.entry(*id).is_ok() == live).collect()
    }

    /// The answers of S to a burst of reads. Per dataset, ranges (one
    /// group per clip setting) and kNN probes run as the groups the
    /// batcher forms; joins run one by one. The engine half checks
    /// each against M and the drawn execution against R.
    fn reads(&self, burst: &[Req]) -> Vec<Response> {
        let exec = self.exec;
        let mut out: Vec<Option<Response>> = vec![None; burst.len()];
        let mut ranges: BTreeMap<(DatasetId, bool), Slots<Rect<2>>> = BTreeMap::new();
        let mut knns: BTreeMap<DatasetId, Slots<(Point<2>, usize)>> = BTreeMap::new();
        for (slot, request) in burst.iter().enumerate() {
            let answer = match request {
                Request::Range { query, .. } if !query.is_valid() => Err(invalid_query()),
                Request::Knn { center, .. } if !center.is_finite() => Err(invalid_query()),
                Request::Join { probes, .. } if !probes.iter().all(Rect::is_valid) => {
                    Err(invalid_query())
                }
                Request::Range {
                    dataset: d,
                    query,
                    use_clips: clips,
                } => self.entry(*d).map(|_| {
                    ranges.entry((*d, *clips)).or_default().push((slot, *query));
                    None
                }),
                Request::Knn {
                    dataset: d,
                    center,
                    k,
                } => self.entry(*d).map(|_| {
                    knns.entry(*d).or_default().push((slot, (*center, *k)));
                    None
                }),
                Request::Join {
                    dataset: d,
                    probes,
                    use_clips: clips,
                    ..
                } => self.entry(*d).map(|e| {
                    let result = model::probe_join(&e.store, &e.model, probes, *clips, exec);
                    Some(Response::Join(result))
                }),
                Request::CrossJoin {
                    left,
                    right,
                    use_clips: clips,
                    ..
                } => self.entry(*left).and_then(|l| {
                    let r = self.entry(*right)?;
                    let sides = ((&l.store, &l.model), (&r.store, &r.model));
                    Ok(Some(Response::Join(model::cross_join(
                        sides.0, sides.1, *clips, exec,
                    ))))
                }),
                other => unreachable!("not a read: {other:?}"),
            };
            out[slot] = answer.unwrap_or_else(Some);
        }
        for ((dataset, use_clips), group) in ranges {
            let e = self
                .entry(dataset)
                .expect("grouped reads target live datasets");
            let queries: Vec<Rect<2>> = group.iter().map(|(_, q)| *q).collect();
            let ids = model::ranges(&e.store, &e.model, &queries, use_clips, exec);
            for ((slot, _), ids) in group.into_iter().zip(ids) {
                out[slot] = Some(Response::Range(ids));
            }
        }
        for (dataset, group) in knns {
            let e = self
                .entry(dataset)
                .expect("grouped reads target live datasets");
            let probes: Vec<(Point<2>, usize)> = group.iter().map(|(_, p)| *p).collect();
            let lists = model::knns(&e.store, &e.model, &probes, exec);
            for ((slot, _), nn) in group.into_iter().zip(lists) {
                out[slot] = Some(Response::Knn(nn));
            }
        }
        out.into_iter()
            .map(|r| r.expect("every read answered"))
            .collect()
    }

    /// The answers of S to one micro-batch of mutations: admin ops in
    /// queue order, each a barrier that flushes the writes pending
    /// before it; writes coalesced per dataset into one apply each.
    fn mutations(&mut self, batch: &[Req]) -> Vec<Response> {
        let mut out: Vec<Option<Response>> = vec![None; batch.len()];
        let mut pending = Pending::new();
        for (slot, request) in batch.iter().enumerate() {
            let mut push = |dataset: DatasetId, ops: &[Update<2>]| {
                let (all, slots) = pending.entry(dataset).or_default();
                slots.push((slot, all.len(), all.len() + ops.len()));
                all.extend_from_slice(ops);
            };
            match request {
                Request::Insert { dataset, rect } => push(*dataset, &[Update::Insert(*rect)]),
                Request::Delete { dataset, id } => push(*dataset, &[Update::Delete(*id)]),
                Request::UpdateBatch { dataset, updates } => push(*dataset, updates),
                admin => {
                    self.flush(batch, &mut pending, &mut out);
                    out[slot] = Some(self.admin(admin).unwrap_or_else(|refused| refused));
                }
            }
        }
        self.flush(batch, &mut pending, &mut out);
        out.into_iter()
            .map(|r| r.expect("every mutation answered"))
            .collect()
    }

    fn flush(&mut self, batch: &[Req], pending: &mut Pending, out: &mut [Option<Response>]) {
        let (tree, clip) = (model::tree(self.variant), model::clip());
        for (dataset, (ops, slots)) in std::mem::take(pending) {
            let Some(Some(e)) = self.datasets.get_mut(dataset.0 as usize) else {
                for (slot, ..) in slots {
                    out[slot] = Some(Response::Failed(RequestError::UnknownDataset(dataset)));
                }
                continue;
            };
            let mut results = Vec::new();
            if !ops.is_empty() {
                let outcome = e.store.apply_updates(&ops, tree, clip);
                assert_eq!(outcome.results, e.model.apply(&ops), "R ≠ M: write results");
                let [groups, applied, nodes] = &mut self.writes;
                if outcome.applied() > 0 {
                    (*groups, *applied, *nodes) = (
                        *groups + 1,
                        *applied + outcome.applied(),
                        *nodes + outcome.nodes_allocated,
                    );
                }
                self.compacted |= outcome.slots_reclaimed > 0;
                let what = format!("dataset {dataset:?} after a write group");
                e.model.assert_mirrors(&e.store, &what);
                model::audit(&e.store, &what);
                results = outcome.results;
            }
            for (slot, lo, hi) in slots {
                out[slot] = Some(match (&batch[slot], results.get(lo)) {
                    (Request::Insert { .. }, Some(UpdateResult::Inserted(id))) => {
                        Response::Inserted(Some(*id))
                    }
                    (Request::Insert { .. }, _) => Response::Inserted(None),
                    (Request::Delete { .. }, Some(UpdateResult::Deleted(done))) => {
                        Response::Deleted(*done)
                    }
                    _ => Response::Updated(UpdateSummary {
                        version: e.store.version(),
                        results: results[lo..hi].to_vec(),
                    }),
                });
            }
        }
    }

    /// An admin op, refused in the service's order: an unknown
    /// dataset, then a taken name, then the first invalid object.
    fn admin(&mut self, request: &Req) -> Result<Response, Response> {
        let (variant, tree, clip) = (self.variant, model::tree(self.variant), model::clip());
        let check = |objects: &[Rect<2>]| match objects.iter().position(|r| !r.is_valid()) {
            Some(i) => Err(Response::Failed(RequestError::InvalidObject(i))),
            None => Ok(()),
        };
        match request {
            Request::CreateDataset {
                name,
                partitioner,
                objects,
            } => {
                if self
                    .ids(true)
                    .iter()
                    .any(|id| self.entry(*id).unwrap().name == *name)
                {
                    return Err(Response::Failed(RequestError::NameTaken(name.clone())));
                }
                check(objects)?;
                let store = model::store(partitioner.clone(), objects, variant);
                let model = Model::new(objects.clone());
                self.datasets.push(Some(Entry {
                    name: name.clone(),
                    store,
                    model,
                }));
                self.builds += 1;
                Ok(Response::Created(DatasetId(self.datasets.len() as u32 - 1)))
            }
            Request::DropDataset { dataset } => {
                let dropped = self
                    .datasets
                    .get_mut(dataset.0 as usize)
                    .and_then(Option::take);
                self.dropped_names
                    .extend(dropped.as_ref().map(|e| e.name.clone()));
                Ok(Response::Dropped(dropped.is_some()))
            }
            Request::SwapData {
                dataset,
                objects,
                partitioner,
            } => {
                self.entry(*dataset)?;
                check(objects)?;
                let e = self.datasets[dataset.0 as usize]
                    .as_mut()
                    .expect("checked live");
                let fit = partitioner
                    .clone()
                    .unwrap_or_else(|| e.store.partitioner().clone());
                let forest = TileForest::build(&fit, objects, tree, clip, 1);
                e.store.swap(fit, objects.clone(), Arc::new(forest));
                e.model.swap(objects.clone());
                self.builds += 1;
                Ok(Response::Swapped(e.store.version()))
            }
            other => unreachable!("not an admin op: {other:?}"),
        }
    }
}

fn invalid_query() -> Response {
    Response::Failed(RequestError::InvalidQuery)
}

/// The stream generator: draws each burst against R's current state.
struct Stream {
    case: ServeCase,
    next_name: usize,
}

impl Stream {
    /// Hostile geometry with the case's chance; creates and swaps are
    /// rare, so their payloads spoil six times as often.
    fn hostile(&mut self, payload: bool) -> bool {
        let chance = if payload { 6.0 } else { 1.0 } * self.case.hostile;
        self.case.data.rng.next_f64() < chance
    }

    /// A live dataset, or now and then a dropped or never-created one
    /// (one past the next id: a create in the same burst cannot make
    /// it exist).
    fn target(&mut self, r: &Reference) -> DatasetId {
        let (live, rng) = (r.ids(true), &mut self.case.data.rng);
        if live.is_empty() || rng.gen_index(25) == 0 {
            let mut dead = r.ids(false);
            dead.push(DatasetId(r.datasets.len() as u32 + 1));
            pick(rng, &dead)
        } else {
            pick(rng, &live)
        }
    }

    fn read(&mut self, r: &Reference) -> Req {
        let (dataset, other) = (self.target(r), self.target(r));
        let hostile = self.hostile(false);
        let c = &mut self.case.data;
        let use_clips = c.rng.gen_index(2) == 0;
        let bad = hostile_rect(c);
        match c.rng.gen_index(8) {
            0..=2 => range(dataset, if hostile { bad } else { c.window() }, use_clips),
            3 | 4 => {
                let live = r.entry(dataset).map_or(0, |e| e.model.live_count());
                let mut center = c.centre();
                if hostile {
                    center.0[c.rng.gen_index(2)] =
                        pick(&mut c.rng, &[f64::NAN, f64::INFINITY, f64::NEG_INFINITY]);
                }
                knn(dataset, center, c.k(live))
            }
            5 => {
                let mut probes = c.probes();
                if hostile {
                    probes.insert(c.rng.gen_index(probes.len() + 1), bad);
                }
                join(dataset, probes, use_clips)
            }
            _ => {
                let left = if c.rng.gen_index(4) == 0 {
                    dataset
                } else {
                    other
                };
                cross_join(left, dataset, use_clips)
            }
        }
    }

    /// A burst of writes and admin ops. Unless the shape is ordered,
    /// each dataset is touched at most once and at most one dataset is
    /// created.
    fn writes(&mut self, r: &Reference) -> Vec<Req> {
        let ordered = self.case.shape.ordered();
        let n = 1 + self.case.data.rng.gen_index(if ordered { 8 } else { 4 });
        let (mut touched, mut created) = (BTreeSet::new(), false);
        let mut burst = Vec::new();
        for _ in 0..n {
            let dataset = self.target(r);
            let kind = self.case.data.rng.gen_index(10);
            let create = kind == 9 || (kind == 8 && r.ids(true).len() < 3);
            let again = touched.contains(&dataset) || (create && created);
            if !ordered && again {
                continue;
            }
            burst.push(if create {
                created = true;
                self.create(r, &mut touched)
            } else {
                touched.insert(dataset);
                self.write(r, dataset, kind)
            });
        }
        burst
    }

    fn write(&mut self, r: &Reference, dataset: DatasetId, kind: usize) -> Req {
        let hostile = self.hostile(kind == 7);
        let c = &mut self.case.data;
        let empty = Model::new(Vec::new());
        let model = r.entry(dataset).map_or(&empty, |e| &e.model);
        match kind {
            0..=2 => {
                let rect = c.objects(1)[0];
                let rect = if hostile { hostile_rect(c) } else { rect };
                Request::Insert { dataset, rect }
            }
            3 | 4 => {
                let live: Vec<DataId> = model.live_ids().collect();
                let id = match live.is_empty() || c.rng.gen_index(6) == 0 {
                    true => DataId((model.arena_len() + c.rng.gen_index(3)) as u32),
                    false => pick(&mut c.rng, &live),
                };
                Request::Delete { dataset, id }
            }
            5 | 6 => {
                let n = pick(&mut c.rng, &[0, 5, 40, 120]);
                let mut updates = c.updates(model, n);
                if hostile {
                    updates.push(Update::Insert(hostile_rect(c)));
                }
                Request::UpdateBatch { dataset, updates }
            }
            7 => {
                let n = 50 + c.rng.gen_index(150);
                let mut objects = c.objects(n);
                let refit = c.rng.gen_index(3) == 0;
                let partitioner =
                    refit.then(|| pick(&mut c.rng, &Tiling::ALL).partitioner(&objects));
                spoil(c, &mut objects, hostile);
                Request::SwapData {
                    dataset,
                    objects,
                    partitioner,
                }
            }
            _ => Request::DropDataset { dataset },
        }
    }

    /// A create: a fresh name, a dropped one, or (refused) a live one;
    /// its tiling drawn or shared with a live dataset. A live dataset
    /// it names or shares a tiling with counts as touched.
    fn create(&mut self, r: &Reference, touched: &mut BTreeSet<DatasetId>) -> Req {
        let hostile = self.hostile(true);
        let c = &mut self.case.data;
        self.next_name += 1;
        let mut name = format!("d{}", self.next_name);
        if c.rng.gen_index(3) == 0 && !r.dropped_names.is_empty() {
            let reused = r.dropped_names[c.rng.gen_index(r.dropped_names.len())].clone();
            let holder = r
                .ids(true)
                .into_iter()
                .find(|id| r.entry(*id).unwrap().name == reused);
            if holder.is_none_or(|id| touched.insert(id)) {
                name = reused;
            }
        }
        let n = 50 + c.rng.gen_index(250);
        let mut objects = c.objects(n);
        let mut partitioner = pick(&mut c.rng, &Tiling::ALL).partitioner(&objects);
        let untouched: Vec<DatasetId> = r
            .ids(true)
            .into_iter()
            .filter(|id| !touched.contains(id))
            .collect();
        let roll = c.rng.gen_index(3);
        if !untouched.is_empty() && roll < 2 {
            let other = pick(&mut c.rng, &untouched);
            touched.insert(other);
            let e = r.entry(other).unwrap();
            match roll {
                0 => name = e.name.clone(),
                _ => partitioner = e.store.partitioner().clone(),
            }
        }
        spoil(c, &mut objects, hostile);
        Request::CreateDataset {
            name,
            partitioner,
            objects,
        }
    }
}

/// Replace one object of a payload with a hostile rect.
fn spoil(c: &mut Case, objects: &mut [Rect<2>], hostile: bool) {
    if hostile {
        let at = c.rng.gen_index(objects.len());
        objects[at] = hostile_rect(c);
    }
}

/// What a request exercised, for the coverage assertion.
fn note(seen: &mut Seen, request: &Req, response: &Response, r: &Reference) {
    seen.insert(format!("kind={:?}", request.kind()));
    let what = match (request, response) {
        (_, Response::Failed(err)) => match err {
            RequestError::UnknownDataset(_) => {
                format!("refused=unknown dataset {:?}", request.kind())
            }
            RequestError::NameTaken(_) => "refused=name taken".into(),
            RequestError::InvalidObject(_) => format!("refused=hostile {:?}", request.kind()),
            RequestError::InvalidQuery => format!("refused=hostile {:?}", request.kind()),
        },
        (Request::Insert { rect, .. }, _) if !rect.is_valid() => "refused=hostile Insert".into(),
        (Request::Range { use_clips, .. }, _) => format!("range clips={use_clips}"),
        (Request::Join { probes, .. }, _) if probes.is_empty() => "join probes=0".into(),
        (Request::Knn { dataset, k, .. }, _) => {
            let live = r.entry(*dataset).map_or(0, |e| e.model.live_count());
            if *k > live {
                "k>live".into()
            } else {
                format!("k={k}")
            }
        }
        (Request::CrossJoin { left, right, .. }, _) => {
            let tiling = |id| r.entry(id).map(|e| e.store.partitioner().clone()).ok();
            match (left == right, tiling(*left) == tiling(*right)) {
                (true, _) => "cross join=self",
                (false, true) => "cross join=same tiling",
                (false, false) => "cross join=cross tiling",
            }
            .into()
        }
        _ => return,
    };
    seen.insert(what);
}

/// Submit a burst pipelined, then wait for all of it.
fn submit_all(svc: &Service, burst: &[Req]) -> Vec<Completion> {
    let submit = |r: &Req| svc.submit(r.clone()).expect("service open");
    let handles: Vec<_> = burst.iter().map(submit).collect();
    handles.into_iter().map(wait).collect()
}

/// Run one seeded case; `pin` overrides drawn axes first. Returns what
/// the case exercised.
pub fn run(seed: u64, pin: impl FnOnce(&mut ServeCase)) -> Seen {
    let mut data = Case::draw(seed, 3);
    let rng = &mut data.rng;
    let shards = pick(rng, &[1, 2]);
    let batch_max = pick(rng, &[None, Some(4), Some(64)]);
    let shape = Shape {
        shards,
        dispatchers: pick(rng, &[1, 2]),
        batch_max,
        deadline: match batch_max {
            Some(_) => pick(rng, &[Duration::ZERO, Duration::from_millis(5)]),
            None => Duration::ZERO,
        },
        exec_workers: pick(rng, &[1, 3]),
        durable: shards == 1 && rng.gen_index(3) == 0,
    };
    data.tilings.truncate(2 + rng.gen_index(2));
    let mut case = ServeCase {
        data,
        shape,
        hostile: 0.04,
        rounds: 6,
    };
    pin(&mut case);
    let (shape, exec, variant) = (case.shape, case.data.exec, case.data.variant);
    assert!(
        !shape.durable || shape.shards == 1,
        "durability is one-shard"
    );
    assert!(
        shape.batch_max.is_some() || shape.deadline.is_zero(),
        "unbatched has no deadline"
    );
    let mut seen: Seen = [
        format!("variant={variant:?}"),
        format!("shards={}", shape.shards),
        format!("dispatchers={}", shape.dispatchers),
        format!("batch_max={:?}", shape.batch_max),
        format!("deadline={:?}", shape.deadline),
        format!("exec_workers={}", shape.exec_workers),
        format!("durable={}", shape.durable),
        format!("algo={:?}", exec.algo),
        format!("split={:?}", exec.split),
        format!("workers={}", exec.workers),
    ]
    .into();

    let root = std::env::temp_dir().join(format!("cbb-model-{seed}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let mut builder = ServiceBuilder::new()
        .shards(shape.shards)
        .dispatchers(shape.dispatchers)
        .exec_workers(shape.exec_workers);
    builder = match shape.batch_max {
        Some(max) => builder.batch_max(max).batch_deadline(shape.deadline),
        None => builder.unbatched(),
    };
    if shape.durable {
        builder = builder.durability(&root);
    }
    let svc: Service = builder.build_catalog(model::tree(variant), model::clip());
    let mut r = Reference {
        variant,
        exec,
        datasets: Vec::new(),
        dropped_names: Vec::new(),
        builds: 0,
        writes: [0; 3],
        compacted: false,
    };
    let mut stream = Stream { case, next_name: 0 };

    // The initial datasets, created one by one; the second may share
    // the first's tiling.
    for (i, tiling) in stream.case.data.tilings.clone().into_iter().enumerate() {
        let c = &mut stream.case.data;
        let objects = c.objects(c.size);
        let partitioner = match r.entry(DatasetId(0)) {
            Ok(first) if i == 1 && c.share => first.store.partitioner().clone(),
            _ => tiling.partitioner(&objects),
        };
        seen.insert(format!("tiling={tiling:?}"));
        let name = format!("initial{i}");
        let request = Request::CreateDataset {
            name,
            partitioner,
            objects,
        };
        let want = r.mutations(std::slice::from_ref(&request));
        assert_eq!(
            answer(&svc, request),
            want[0],
            "seed {seed}: initial create"
        );
    }

    for round in 0..stream.case.rounds {
        let what = |request: &Req| format!("seed {seed} round {round}: S ≠ R for {request:?}");
        let n = 8 + stream.case.data.rng.gen_index(24);
        let reads: Vec<Req> = (0..n).map(|_| stream.read(&r)).collect();
        let got = submit_all(&svc, &reads);
        for ((request, got), want) in reads.iter().zip(got).zip(r.reads(&reads)) {
            assert_eq!(got.response, want, "{}", what(request));
            note(&mut seen, request, &want, &r);
        }

        let writes = stream.writes(&r);
        let got = submit_all(&svc, &writes);
        let mut at = 0;
        while at < writes.len() {
            // Ordered: replay the service's own batches. Otherwise the
            // burst's outcome does not depend on its batching.
            let size = if shape.ordered() {
                got[at].batch_size
            } else {
                1
            };
            let batch = got.get(at..at + size).expect("batches partition the burst");
            assert!(
                size == 1 || batch.iter().all(|c| c.batch_size == size),
                "seed {seed}"
            );
            let slice = &writes[at..at + size];
            if barrier_in(slice) {
                seen.insert("batch=writes around an admin op".into());
            }
            let want = r.mutations(slice);
            for ((request, got), want) in writes[at..].iter().zip(batch).zip(want) {
                assert_eq!(got.response, want, "{}", what(request));
                note(&mut seen, request, &want, &r);
            }
            at += size;
        }
        if got.iter().any(|c| c.batch_size > 1) {
            seen.insert("batch>1".into());
        }
        assert_catalog(seed, &svc, &r);
    }

    survivors_equal_a_swap(seed, &svc, &mut r, &mut stream.case.data);
    assert_catalog(seed, &svc, &r);
    let report = svc.shutdown();
    let _ = std::fs::remove_dir_all(&root);
    assert_eq!(report.completed, report.submitted, "seed {seed}: drained");
    // Every shard builds a forest per create and swap and applies every
    // write group, allocating nodes only in the tiles it owns.
    let n = shape.shards as u64;
    let [groups, applied, nodes] = r.writes;
    let served = [
        report.forest_builds,
        report.write_batches,
        report.updates_applied,
    ];
    assert_eq!(
        served,
        [r.builds * n, groups * n, applied * n],
        "seed {seed}: counts"
    );
    assert_eq!(
        report.delta_nodes_allocated, nodes,
        "seed {seed}: nodes allocated"
    );
    if r.compacted {
        seen.insert("compaction".into());
    }
    seen
}

/// A batch holding a swap or drop of a dataset and a write to it.
fn barrier_in(batch: &[Req]) -> bool {
    let admin = |q: &&Req| matches!(q, Request::SwapData { .. } | Request::DropDataset { .. });
    let barred: BTreeSet<DatasetId> = batch
        .iter()
        .filter(admin)
        .filter_map(Req::dataset)
        .collect();
    let write = |q: &&Req| {
        matches!(
            q.kind(),
            RequestKind::Insert | RequestKind::Delete | RequestKind::UpdateBatch
        )
    };
    batch
        .iter()
        .filter(write)
        .any(|q| q.dataset().is_some_and(|d| barred.contains(&d)))
}

/// S's catalog listing, versions and live counts equal R's.
fn assert_catalog(seed: u64, svc: &Service, r: &Reference) {
    let ids = r.ids(true);
    let listed: Vec<(DatasetId, String)> = ids
        .iter()
        .map(|id| (*id, r.entry(*id).unwrap().name.clone()))
        .collect();
    assert_eq!(svc.datasets(), listed, "seed {seed}: catalog");
    for id in ids {
        let e = r.entry(id).unwrap();
        let served = (svc.dataset_version(id), svc.dataset_live_count(id));
        let want = (Some(e.store.version()), Some(e.model.live_count()));
        assert_eq!(served, want, "seed {seed}: {id:?} version and live count");
    }
}

/// Every live dataset answers the same before and after a `SwapData`
/// of its model's survivors (ids differ, so compare ranges by
/// rectangle, kNN by distance and joins by pair count). Each side's
/// reads go out as one pipelined burst.
fn survivors_equal_a_swap(seed: u64, svc: &Service, r: &mut Reference, c: &mut Case) {
    let windows: Vec<Rect<2>> = (0..12).map(|_| c.window()).collect();
    let centres: Vec<Point<2>> = (0..6).map(|_| c.centre()).collect();
    let probes = c.probes();
    for dataset in r.ids(true) {
        let mut burst: Vec<Req> = windows.iter().map(|q| range(dataset, *q, true)).collect();
        burst.extend(centres.iter().map(|c| knn(dataset, *c, 9)));
        burst.push(join(dataset, probes.clone(), true));
        let answers = |r: &Reference| {
            let model = &r.entry(dataset).unwrap().model;
            let key = |id: &DataId| {
                let b = model.rect(*id);
                [b.lo[0], b.lo[1], b.hi[0], b.hi[1]].map(f64::to_bits)
            };
            let summary = |done: Completion| match done.response {
                Response::Range(ids) => {
                    let mut keys: Vec<[u64; 4]> = ids.iter().map(key).collect();
                    keys.sort_unstable();
                    keys.concat()
                }
                Response::Knn(nn) => nn.iter().map(|(_, d)| d.to_bits()).collect(),
                Response::Join(result) => vec![result.pairs],
                other => panic!("seed {seed}: {other:?}"),
            };
            let got = submit_all(svc, &burst);
            got.into_iter().map(summary).collect::<Vec<Vec<u64>>>()
        };
        let before = answers(r);
        let objects = r.entry(dataset).unwrap().model.live_rects();
        let swap = Request::SwapData {
            dataset,
            objects,
            partitioner: None,
        };
        let want = r.mutations(std::slice::from_ref(&swap));
        assert_eq!(answer(svc, swap), want[0], "seed {seed}: swap to survivors");
        assert_eq!(
            answers(r),
            before,
            "seed {seed}: {dataset:?} updated ≠ swapped"
        );
    }
}

/// Every value of every axis, as [`run`] notes them.
pub fn every_axis() -> Vec<String> {
    let variants = Variant::ALL.map(|v| format!("{v:?}"));
    let kinds = RequestKind::ALL.map(|k| format!("{k:?}"));
    let tilings = Tiling::ALL.map(|t| format!("{t:?}"));
    let algos = Exec::ALGOS.map(|a| format!("{a:?}"));
    let splits = Exec::SPLITS.map(|s| format!("{s:?}"));
    let axes: [(&str, Vec<&str>); 16] = [
        ("tiling", tilings.iter().map(String::as_str).collect()),
        ("variant", variants.iter().map(String::as_str).collect()),
        ("kind", kinds.iter().map(String::as_str).collect()),
        ("algo", algos.iter().map(String::as_str).collect()),
        ("split", splits.iter().map(String::as_str).collect()),
        ("workers", vec!["1", "3"]),
        ("shards", vec!["1", "2"]),
        ("dispatchers", vec!["1", "2"]),
        ("batch_max", vec!["None", "Some(4)", "Some(64)"]),
        ("deadline", vec!["0ns", "5ms"]),
        ("exec_workers", vec!["1", "3"]),
        ("durable", vec!["true", "false"]),
        ("k", vec!["0", "1", "7"]),
        ("range clips", vec!["true", "false"]),
        ("cross join", vec!["self", "same tiling", "cross tiling"]),
        (
            "refused",
            vec!["name taken", "unknown dataset Range", "hostile Range"],
        ),
    ];
    let mut all: Vec<String> = axes
        .iter()
        .flat_map(|(axis, values)| values.iter().map(move |v| format!("{axis}={v}")))
        .collect();
    let hostile = ["Knn", "Join", "Insert", "CreateDataset", "SwapData"];
    all.extend(hostile.map(|kind| format!("refused=hostile {kind}")));
    all.extend(["k>live", "join probes=0", "compaction", "batch>1"].map(String::from));
    all
}

/// Every value of [`every_axis`] was drawn by some seed.
pub fn assert_covers_every_axis(seen: &Seen) {
    let missing: Vec<String> = every_axis()
        .into_iter()
        .filter(|v| !seen.contains(v))
        .collect();
    assert!(missing.is_empty(), "no seed drew: {missing:?}");
}
