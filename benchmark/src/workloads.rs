//! The four served workloads: their inputs, set-up, clients and checks.
//!
//! | name               | loop                         | stresses                          |
//! |--------------------|------------------------------|-----------------------------------|
//! | `read_saturated`   | closed, window 256           | dispatcher, engine, joins, rtree  |
//! | `read_interactive` | open, Poisson 2 000 req/s    | serve queueing and coalescing     |
//! | `mixed_rw`         | closed, window 256, 10 % writes | COW forest, §IV-D, write lock  |
//! | `join_batch`       | closed, one client           | join kernels, per-tile dispatch   |

use std::path::PathBuf;
use std::time::{Duration, Instant};

use crate::drive::{self, Client, Recorder, Stop};
use crate::gen::{self, stream, Box2, ObjectGen, Op, ReadGen, DOMAIN};
use crate::layers::{Answer, Svc, SvcOpts, SvcStats, Tiling};
use crate::model::{self, Model};
use crate::rng::Rng;
use crate::trace::Tracer;

pub const NAMES: [&str; 4] = [
    "read_saturated",
    "read_interactive",
    "mixed_rw",
    "join_batch",
];

/// Objects per dataset (÷ 20 under `--quick`).
const OBJECTS: usize = 200_000;
/// Objects per dataset of `join_batch`, sized so that a round of two
/// cross-joins and eight probe joins takes well under a tenth of a
/// second and a run completes over a thousand requests.
const JOIN_OBJECTS: usize = 40_000;
/// Range-window side as a share of the domain.
const SATURATED_SIDE: f64 = 0.005;
const INTERACTIVE_SIDE: f64 = 0.001;
/// Requests kept in flight by the closed-loop clients.
const WINDOW: usize = 256;
/// Open-loop arrival rate, requests per second.
pub const INTERACTIVE_RATE: f64 = 2_000.0;
/// Client rectangles per probe join.
const PROBES_PER_JOIN: usize = 2_000;
/// One in this many read answers is kept and checked after the run.
const CHECK_EVERY: u64 = 1_000;
/// One in this many probe joins is kept and checked after the run.
const CHECK_PROBE_EVERY: u64 = 20;
/// Reads replayed against a quiesced service (and again after restart).
const QUIESCED_CHECKS: usize = 200;
/// Times the set-up is repeated; `setup_s` is the median.
const SETUP_REPS: usize = 5;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    ReadSaturated,
    ReadInteractive,
    MixedRw,
    JoinBatch,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        Some(match name {
            "read_saturated" => Workload::ReadSaturated,
            "read_interactive" => Workload::ReadInteractive,
            "mixed_rw" => Workload::MixedRw,
            "join_batch" => Workload::JoinBatch,
            _ => return None,
        })
    }

    pub fn name(self) -> &'static str {
        NAMES[self as usize]
    }
}

/// What a run was asked to do.
#[derive(Clone, Debug)]
pub struct Cfg {
    pub seed: u64,
    pub seconds: f64,
    pub quick: bool,
    /// Scratch directory inside the checkout (`benchmark/out`): the
    /// trace file and the ladder's durable rungs go there.
    pub out: PathBuf,
}

impl Cfg {
    pub fn scaled(&self, count: usize) -> usize {
        if self.quick {
            (count / 20).max(1)
        } else {
            count
        }
    }
}

// ── Inputs and set-up ────────────────────────────────────────────────

/// The datasets of one workload, generated from the seed.
pub struct Inputs {
    pub datasets: Vec<Vec<Box2>>,
}

const DATASET_NAMES: [&str; 3] = ["streets_a", "streets_b", "streets_c"];

impl Inputs {
    pub fn generate(workload: Workload, cfg: &Cfg) -> Inputs {
        let datasets = match workload {
            Workload::JoinBatch => (0..3)
                .map(|i| gen::objects(cfg.seed, i, cfg.scaled(JOIN_OBJECTS)))
                .collect(),
            _ => vec![gen::objects(cfg.seed, 0, cfg.scaled(OBJECTS))],
        };
        Inputs { datasets }
    }

    /// Fit the tilings and start the service: the program's set-up.
    /// Datasets 0 and 1 share one adaptive grid (fitted to dataset 0);
    /// dataset 2 gets a quadtree, so `0 ⋈ 2` crosses tilings.
    pub fn start(&self, opts: &SvcOpts) -> Svc {
        let grid = Tiling::adaptive(&self.datasets[0]);
        let tilings: Vec<Tiling> = self
            .datasets
            .iter()
            .enumerate()
            .map(|(i, objects)| {
                if i == 2 {
                    Tiling::quadtree(objects)
                } else {
                    grid.clone()
                }
            })
            .collect();
        let spec: Vec<(&str, &Tiling, &[Box2])> = self
            .datasets
            .iter()
            .enumerate()
            .map(|(i, objects)| (DATASET_NAMES[i], &tilings[i], objects.as_slice()))
            .collect();
        Svc::start(opts, &spec)
    }
}

/// One timed set-up: fit the tilings, start the service.
fn timed_start(inputs: &Inputs) -> (Svc, f64) {
    let t = Instant::now();
    let svc = inputs.start(&SvcOpts::default());
    (svc, t.elapsed().as_secs_f64())
}

// ── Clients ──────────────────────────────────────────────────────────

fn side_of(workload: Workload) -> f64 {
    DOMAIN
        * match workload {
            Workload::ReadInteractive => INTERACTIVE_SIDE,
            _ => SATURATED_SIDE,
        }
}

/// The read stream of `read_saturated` (and the ladder's replays).
pub fn saturated_reads(seed: u64, objects: &[Box2]) -> ReadGen<'_> {
    ReadGen::new(seed, stream::QUERIES, objects, DOMAIN * SATURATED_SIDE)
}

/// Whether `answer` is the kind of answer `op` asks for.
pub fn shape_ok(op: &Op, answer: &Answer) -> bool {
    matches!(
        (op, answer),
        (Op::Range(_), Answer::Range(_))
            | (Op::Knn(..), Answer::Knn(_))
            | (Op::Insert(_), Answer::Inserted(Some(_)))
            | (Op::Delete(_), Answer::Deleted(true))
            | (Op::ProbeJoin(_), Answer::Join(_))
            | (Op::CrossJoin(..), Answer::Join(_))
    )
}

/// Reads only; every `CHECK_EVERY`-th answer is kept for the oracle.
struct ReadClient<'a> {
    reads: ReadGen<'a>,
    seen: u64,
    kept: Vec<(Op, Answer)>,
}

impl Client for ReadClient<'_> {
    fn next(&mut self) -> (usize, Op) {
        (0, self.reads.next())
    }

    fn done(&mut self, op: Op, answer: Answer) -> bool {
        let ok = shape_ok(&op, &answer);
        self.seen += 1;
        if self.seen % CHECK_EVERY == 0 {
            self.kept.push((op, answer));
        }
        ok
    }
}

/// 90 % reads, 5 % inserts, 5 % deletes of ids the model holds live and
/// no delete in flight targets. The model follows the ids the write
/// completions return.
pub struct MixedClient<'a> {
    reads: ReadGen<'a>,
    inserts: ObjectGen,
    mix: Rng,
    pub model: Model,
    deletable: Vec<u32>,
    pub writes: u64,
}

impl<'a> MixedClient<'a> {
    pub fn new(seed: u64, objects: &'a [Box2]) -> Self {
        MixedClient {
            reads: saturated_reads(seed, objects),
            inserts: ObjectGen::new(seed, stream::UPDATES),
            mix: Rng::new(seed, stream::MIX),
            model: Model::new(objects),
            deletable: (0..objects.len() as u32).collect(),
            writes: 0,
        }
    }
}

impl Client for MixedClient<'_> {
    fn next(&mut self) -> (usize, Op) {
        let r = self.mix.unit();
        let op = if r < 0.90 || (r >= 0.95 && self.deletable.is_empty()) {
            self.reads.next()
        } else if r < 0.95 {
            Op::Insert(self.inserts.next())
        } else {
            let at = self.mix.below(self.deletable.len());
            Op::Delete(self.deletable.swap_remove(at))
        };
        (0, op)
    }

    fn done(&mut self, op: Op, answer: Answer) -> bool {
        self.writes += u64::from(drive::class_of(&op) == drive::Class::Write);
        match (&op, &answer) {
            (Op::Insert(rect), Answer::Inserted(Some(id))) => {
                self.deletable.push(*id);
                self.model.insert(*id, *rect)
            }
            (Op::Delete(id), Answer::Deleted(true)) => self.model.delete(*id),
            _ => shape_ok(&op, &answer),
        }
    }
}

/// Rounds of one same-tiling cross-join, one cross-tiling cross-join
/// and eight probe joins of 2 000 client rectangles.
struct JoinClient {
    step: u64,
    probes: ObjectGen,
    per_join: usize,
    cross_pairs: [Vec<u64>; 2],
    probe_joins: u64,
    kept_probes: Vec<(Vec<Box2>, u64)>,
}

const ROUND: u64 = 10;

impl Client for JoinClient {
    fn next(&mut self) -> (usize, Op) {
        let op = match self.step % ROUND {
            0 => Op::CrossJoin(0, 1),
            1 => Op::CrossJoin(0, 2),
            _ => Op::ProbeJoin(gen::probe_set(&mut self.probes, self.per_join)),
        };
        self.step += 1;
        (0, op)
    }

    fn done(&mut self, op: Op, answer: Answer) -> bool {
        let Answer::Join(out) = answer else {
            return false;
        };
        match op {
            Op::CrossJoin(_, right) => self.cross_pairs[right - 1].push(out.pairs),
            Op::ProbeJoin(probes) => {
                self.probe_joins += 1;
                if self.probe_joins % CHECK_PROBE_EVERY == 0 {
                    self.kept_probes.push((probes, out.pairs));
                }
            }
            _ => return false,
        }
        true
    }
}

/// Replays reads against a quiet service and checks each at once.
struct CheckClient<'a> {
    reads: ReadGen<'a>,
    model: &'a Model,
    wrong: u64,
}

impl Client for CheckClient<'_> {
    fn next(&mut self) -> (usize, Op) {
        (0, self.reads.next())
    }

    fn done(&mut self, op: Op, answer: Answer) -> bool {
        let ok = read_matches(self.model, &op, &answer);
        self.wrong += u64::from(!ok);
        ok
    }
}

fn read_matches(model: &Model, op: &Op, answer: &Answer) -> bool {
    match op {
        Op::Range(q) => answer.range_ids().is_some_and(|ids| ids == model.range(q)),
        Op::Knn(p, k) => answer.knn().is_some_and(|nn| model.knn_ok(p, *k, &nn)),
        _ => false,
    }
}

// ── One workload, start to finish ────────────────────────────────────

/// What a finished workload hands back to `main`.
pub struct Outcome {
    /// Everything measured with span recording off, and with it on
    /// (empty on the untraced run).
    pub untraced: Recorder,
    pub traced: Recorder,
    pub setup_s: Vec<f64>,
    pub peak_rss_mb: f64,
    /// Answers compared with the oracle, and how many differed.
    pub checked: u64,
    pub wrong: u64,
    /// Service counters over the measured segments.
    pub stats: SvcStats,
}

impl Outcome {
    /// Untraced and traced segments together.
    pub fn combined(&self) -> Recorder {
        let mut all = self.untraced.clone();
        all.merge(self.traced.clone());
        all
    }
}

/// The measured part of a run: warm-up, then the segments.
struct Measure<'a> {
    svc: &'a Svc,
    /// `(seconds, spans recorded?)` per segment.
    segments: Vec<(f64, bool)>,
    passes: [Recorder; 2],
    next_request: u64,
    /// Keep the per-request breakdown (traced run only).
    detail: bool,
    stats: SvcStats,
    /// `VmHWM` right after the last segment, before any checking.
    peak_rss_mb: f64,
}

impl<'a> Measure<'a> {
    /// One untraced pass of `seconds`; with `trace`, alternating
    /// untraced and traced segments of a tenth of `seconds` each.
    fn new(svc: &'a Svc, cfg: &Cfg, trace: bool) -> Self {
        let segments = if trace {
            let s = cfg.seconds / 10.0;
            vec![(s, false), (s, true), (s, false), (s, true)]
        } else {
            vec![(cfg.seconds, false)]
        };
        Measure {
            svc,
            segments,
            passes: [Recorder::default(), Recorder::default()],
            next_request: 1,
            detail: trace,
            stats: SvcStats::default(),
            peak_rss_mb: 0.0,
        }
    }

    /// Warm up (caches fill, lazy columns get extracted), then run each
    /// segment through `pass`.
    fn run<C: Client>(
        &mut self,
        client: &mut C,
        warm_window: usize,
        warm_requests: u64,
        tracer: &mut Tracer,
        mut pass: impl FnMut(&Svc, &mut C, f64, usize, u64, bool, &mut Tracer) -> Recorder,
    ) {
        tracer.set_on(false);
        drive::closed_loop(
            self.svc,
            client,
            warm_window,
            Stop::Requests(warm_requests),
            0,
            false,
            tracer,
        );
        let before = self.svc.stats();
        for (i, &(seconds, traced)) in self.segments.iter().enumerate() {
            tracer.set_on(traced);
            let rec = pass(
                self.svc,
                client,
                seconds,
                i,
                self.next_request,
                self.detail,
                tracer,
            );
            self.next_request += rec.attempted;
            self.passes[usize::from(traced)].merge(rec);
        }
        tracer.set_on(false);
        self.stats = self.svc.stats().since(&before);
        self.peak_rss_mb = peak_rss_mb();
    }

    fn closed<C: Client>(
        &mut self,
        client: &mut C,
        window: usize,
        warm_requests: u64,
        tracer: &mut Tracer,
    ) {
        self.run(
            client,
            window,
            warm_requests,
            tracer,
            |svc, client, seconds, _, base, detail, tracer| {
                drive::closed_loop(
                    svc,
                    client,
                    window,
                    Stop::After(Duration::from_secs_f64(seconds)),
                    base,
                    detail,
                    tracer,
                )
            },
        );
    }
}

/// Run `workload` once, untraced or traced.
pub fn run(workload: Workload, cfg: &Cfg, trace: bool, tracer: &mut Tracer) -> Outcome {
    let inputs = Inputs::generate(workload, cfg);
    let (svc, first_setup_s) = timed_start(&inputs);
    let objects = &inputs.datasets[0];
    let warm = cfg.scaled(20_000) as u64;
    let mut measure = Measure::new(&svc, cfg, trace);
    let (mut checked, mut wrong) = (0u64, 0u64);
    let read_client = || ReadClient {
        reads: ReadGen::new(cfg.seed, stream::QUERIES, objects, side_of(workload)),
        seen: 0,
        kept: Vec::new(),
    };

    match workload {
        Workload::ReadSaturated => {
            let mut client = read_client();
            measure.closed(&mut client, WINDOW, warm, tracer);
            (checked, wrong) = check_reads(&Model::new(objects), &client.kept);
        }
        Workload::ReadInteractive => {
            let mut client = read_client();
            measure.run(
                &mut client,
                64,
                warm,
                tracer,
                |svc, client, seconds, segment, base, detail, tracer| {
                    let schedule = gen::arrivals(
                        cfg.seed.wrapping_add(segment as u64),
                        INTERACTIVE_RATE,
                        seconds,
                    )
                    .into_iter()
                    .map(|due| {
                        let (ds, op) = client.next();
                        (due, ds, op)
                    })
                    .collect();
                    drive::open_loop(
                        svc,
                        client,
                        schedule,
                        Duration::from_secs_f64(seconds),
                        base,
                        detail,
                        tracer,
                    )
                },
            );
            (checked, wrong) = check_reads(&Model::new(objects), &client.kept);
        }
        Workload::MixedRw => {
            let mut client = MixedClient::new(cfg.seed, objects);
            measure.closed(&mut client, WINDOW, warm, tracer);
            // The service is quiet now: its live count and sampled
            // answers must equal the model the completions built.
            (checked, wrong) = check_quiesced(&svc, &client.model, cfg, objects, tracer);
        }
        Workload::JoinBatch => {
            let mut client = JoinClient {
                step: 0,
                probes: ObjectGen::new(cfg.seed, stream::PROBES),
                per_join: cfg.scaled(PROBES_PER_JOIN),
                cross_pairs: [Vec::new(), Vec::new()],
                probe_joins: 0,
                kept_probes: Vec::new(),
            };
            measure.closed(&mut client, 1, ROUND, tracer);
            for (right, pairs) in client.cross_pairs.iter().enumerate() {
                let want = model::sweep_pairs(&inputs.datasets[0], &inputs.datasets[right + 1]);
                checked += pairs.len() as u64;
                wrong += pairs.iter().filter(|&&p| p != want).count() as u64;
            }
            for (probes, pairs) in &client.kept_probes {
                checked += 1;
                wrong += u64::from(model::sweep_pairs(probes, &inputs.datasets[0]) != *pairs);
            }
        }
    }
    let Measure {
        passes: [untraced, traced],
        stats,
        peak_rss_mb,
        ..
    } = measure;
    svc.shutdown();
    // The other set-ups come after the measured pass: the peak resident
    // set above is then that of one service, not of five built over each
    // other's freed memory.
    let mut setup_s = vec![first_setup_s];
    if !trace {
        for _ in 1..SETUP_REPS {
            let (svc, seconds) = timed_start(&inputs);
            setup_s.push(seconds);
            svc.shutdown();
        }
    }
    Outcome {
        untraced,
        traced,
        setup_s,
        peak_rss_mb,
        checked,
        wrong,
        stats,
    }
}

fn check_reads(model: &Model, kept: &[(Op, Answer)]) -> (u64, u64) {
    let wrong = kept
        .iter()
        .filter(|(op, answer)| !read_matches(model, op, answer))
        .count();
    (kept.len() as u64, wrong as u64)
}

/// Live count plus `QUIESCED_CHECKS` sampled reads against the model.
pub fn check_quiesced(
    svc: &Svc,
    model: &Model,
    cfg: &Cfg,
    objects: &[Box2],
    tracer: &mut Tracer,
) -> (u64, u64) {
    let mut client = CheckClient {
        reads: ReadGen::new(cfg.seed, stream::CHECKS, objects, DOMAIN * SATURATED_SIDE),
        model,
        wrong: 0,
    };
    let n = cfg.scaled(QUIESCED_CHECKS) as u64;
    let rec = drive::closed_loop(svc, &mut client, 64, Stop::Requests(n), 0, false, tracer);
    let count_wrong = u64::from(svc.live_count(0) != Some(model.live()));
    (
        n + 1,
        client.wrong + count_wrong + (rec.attempted - rec.completed),
    )
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
