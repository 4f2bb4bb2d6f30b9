//! Workload inputs, all derived from `--seed`: objects, read queries,
//! the open-loop arrival schedule, updates and join probe sets.
//!
//! The shape of the data is fixed so that two seeds give statistically
//! equal workloads (the driver compares runs across seeds): always 12
//! Gaussian clusters on a jittered 4 × 3 lattice with the same multiset
//! of spreads, plus 10 % uniform background. Only the jitter, the
//! spread-to-cluster assignment and the individual draws vary.

use crate::rng::Rng;

/// Side of the square 2-D domain.
pub const DOMAIN: f64 = 100_000.0;

const CLUSTERS: usize = 12;
const BACKGROUND_SHARE: f64 = 0.10;

/// RNG stream ids: one per generator, so they never shift each other.
pub mod stream {
    pub const LAYOUT: u64 = 1;
    pub const OBJECTS: u64 = 2; // + dataset index
    pub const QUERIES: u64 = 10;
    /// The reads replayed against a quiesced service.
    pub const CHECKS: u64 = 15;
    pub const ARRIVALS: u64 = 11;
    pub const UPDATES: u64 = 12;
    pub const MIX: u64 = 13;
    pub const PROBES: u64 = 14;
}

/// The harness's own axis-aligned rectangle (closed on every side, like
/// the product's).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Box2 {
    pub lo: [f64; 2],
    pub hi: [f64; 2],
}

impl Box2 {
    pub fn center(&self) -> [f64; 2] {
        [
            (self.lo[0] + self.hi[0]) / 2.0,
            (self.lo[1] + self.hi[1]) / 2.0,
        ]
    }

    pub fn intersects(&self, o: &Box2) -> bool {
        self.lo[0] <= o.hi[0]
            && o.lo[0] <= self.hi[0]
            && self.lo[1] <= o.hi[1]
            && o.lo[1] <= self.hi[1]
    }

    /// Squared distance from `p` to the nearest point of the box.
    pub fn min_dist_sq(&self, p: &[f64; 2]) -> f64 {
        let mut acc = 0.0;
        for ((&x, &lo), &hi) in p.iter().zip(&self.lo).zip(&self.hi) {
            let d = if x < lo {
                lo - x
            } else if x > hi {
                x - hi
            } else {
                0.0
            };
            acc += d * d;
        }
        acc
    }

    /// A `w × h` box centred on `c`, shifted back inside the domain.
    fn around(c: [f64; 2], w: f64, h: f64) -> Box2 {
        let half = [w / 2.0, h / 2.0];
        let mut lo = [0.0; 2];
        let mut hi = [0.0; 2];
        for i in 0..2 {
            let centre = c[i].clamp(half[i], DOMAIN - half[i]);
            lo[i] = centre - half[i];
            hi[i] = centre + half[i];
        }
        Box2 { lo, hi }
    }
}

/// Where the clusters sit for one seed; shared by every dataset of the
/// run so that datasets overlap and cross-joins find pairs.
#[derive(Clone, Debug)]
pub struct Layout {
    centres: [[f64; 2]; CLUSTERS],
    sigmas: [f64; CLUSTERS],
}

impl Layout {
    pub fn new(seed: u64) -> Self {
        let mut rng = Rng::new(seed, stream::LAYOUT);
        let (cols, rows) = (4usize, 3usize);
        let (cw, ch) = (DOMAIN / cols as f64, DOMAIN / rows as f64);
        let mut centres = [[0.0; 2]; CLUSTERS];
        for (k, c) in centres.iter_mut().enumerate() {
            let (i, j) = (k % cols, k / cols);
            *c = [
                (i as f64 + 0.5 + rng.range(-0.05, 0.05)) * cw,
                (j as f64 + 0.5 + rng.range(-0.05, 0.05)) * ch,
            ];
        }
        // The same four spreads three times over, dealt to clusters by a
        // seeded shuffle: density statistics match across seeds.
        let mut sigmas = [0.0; CLUSTERS];
        for (k, s) in sigmas.iter_mut().enumerate() {
            *s = DOMAIN * (0.020 + 0.006 * (k % 4) as f64);
        }
        for k in (1..CLUSTERS).rev() {
            sigmas.swap(k, rng.below(k + 1));
        }
        Layout { centres, sigmas }
    }
}

/// Thin, street-like rectangles: long on one axis (20–400), narrow on
/// the other (2–10), orientation a coin flip; 90 % drawn around the
/// clusters round-robin, 10 % uniform over the domain.
pub struct ObjectGen {
    layout: Layout,
    rng: Rng,
    drawn: usize,
}

impl ObjectGen {
    pub fn new(seed: u64, stream: u64) -> Self {
        ObjectGen {
            layout: Layout::new(seed),
            rng: Rng::new(seed, stream),
            drawn: 0,
        }
    }

    pub fn next(&mut self) -> Box2 {
        let rng = &mut self.rng;
        let centre = if rng.unit() < BACKGROUND_SHARE {
            [rng.range(0.0, DOMAIN), rng.range(0.0, DOMAIN)]
        } else {
            let k = self.drawn % CLUSTERS;
            self.drawn += 1;
            let (c, s) = (self.layout.centres[k], self.layout.sigmas[k]);
            [c[0] + s * rng.gauss(), c[1] + s * rng.gauss()]
        };
        let long = rng.range(20.0, 400.0);
        let narrow = rng.range(2.0, 10.0);
        if rng.next_u64() & 1 == 0 {
            Box2::around(centre, long, narrow)
        } else {
            Box2::around(centre, narrow, long)
        }
    }
}

/// `n` objects of dataset `index` under `seed`.
pub fn objects(seed: u64, index: u64, n: usize) -> Vec<Box2> {
    let mut gen = ObjectGen::new(seed, stream::OBJECTS + index);
    (0..n).map(|_| gen.next()).collect()
}

/// One request of a workload, in the harness's own vocabulary
/// (`layers.rs` translates it into the product's request type).
#[derive(Clone, Debug)]
pub enum Op {
    Range(Box2),
    Knn([f64; 2], usize),
    Insert(Box2),
    Delete(u32),
    /// Probe join of client rectangles against one dataset.
    ProbeJoin(Vec<Box2>),
    /// Join of two served datasets, by their index in the workload.
    CrossJoin(usize, usize),
}

/// Neighbours asked for by every kNN request.
pub const KNN_K: usize = 10;

/// The read stream: 80 % square range windows of side `side`, 20 % kNN
/// with `k = 10`, each centred near a random object so the query
/// distribution follows the data.
pub struct ReadGen<'a> {
    objects: &'a [Box2],
    rng: Rng,
    side: f64,
}

impl<'a> ReadGen<'a> {
    pub fn new(seed: u64, stream: u64, objects: &'a [Box2], side: f64) -> Self {
        ReadGen {
            objects,
            rng: Rng::new(seed, stream),
            side,
        }
    }

    pub fn next(&mut self) -> Op {
        let rng = &mut self.rng;
        let anchor = self.objects[rng.below(self.objects.len())].center();
        let c = [
            anchor[0] + rng.range(-self.side, self.side),
            anchor[1] + rng.range(-self.side, self.side),
        ];
        if rng.unit() < 0.8 {
            Op::Range(Box2::around(c, self.side, self.side))
        } else {
            Op::Knn([c[0].clamp(0.0, DOMAIN), c[1].clamp(0.0, DOMAIN)], KNN_K)
        }
    }
}

/// Seeded Poisson arrivals: due times in nanoseconds from the start of
/// the run, at `rate` requests per second for `seconds`.
pub fn arrivals(seed: u64, rate: f64, seconds: f64) -> Vec<u64> {
    let mut rng = Rng::new(seed, stream::ARRIVALS);
    let mean_gap_ns = 1e9 / rate;
    let mut due = Vec::with_capacity((rate * seconds) as usize + 16);
    let mut t = 0.0;
    loop {
        t += rng.exp(mean_gap_ns);
        if t >= seconds * 1e9 {
            return due;
        }
        due.push(t as u64);
    }
}

/// `n` client rectangles for one probe join, from the data distribution.
pub fn probe_set(gen: &mut ObjectGen, n: usize) -> Vec<Box2> {
    (0..n).map(|_| gen.next()).collect()
}
