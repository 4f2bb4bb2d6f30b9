//! The harness's own model of what the service should hold, and the
//! brute-force oracles answers are checked against. Nothing here calls
//! a workspace crate: the join counter in particular is a second
//! implementation, independent of `cbb-joins`.

use crate::gen::Box2;

/// Live objects by id, as the write completions reported them.
#[derive(Clone, Debug)]
pub struct Model {
    slots: Vec<Option<Box2>>,
    live: usize,
}

impl Model {
    /// Initial objects take ids `0..n` in order.
    pub fn new(objects: &[Box2]) -> Self {
        Model {
            slots: objects.iter().copied().map(Some).collect(),
            live: objects.len(),
        }
    }

    pub fn live(&self) -> usize {
        self.live
    }

    /// Record a completed insert under the id the service assigned.
    /// `false` when the service handed out an id the model holds live.
    pub fn insert(&mut self, id: u32, rect: Box2) -> bool {
        let slot = id as usize;
        if self.slots.len() <= slot {
            self.slots.resize(slot + 1, None);
        }
        if self.slots[slot].is_some() {
            return false;
        }
        self.slots[slot] = Some(rect);
        self.live += 1;
        true
    }

    /// Record a completed delete; `false` when the id was not live.
    pub fn delete(&mut self, id: u32) -> bool {
        match self.slots.get_mut(id as usize) {
            Some(slot) if slot.is_some() => {
                *slot = None;
                self.live -= 1;
                true
            }
            _ => false,
        }
    }

    /// Ids of every live object intersecting `q`, ascending.
    pub fn range(&self, q: &Box2) -> Vec<u32> {
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, s)| s.is_some_and(|r| r.intersects(q)))
            .map(|(i, _)| i as u32)
            .collect()
    }

    /// Whether `got` is a correct k-nearest answer for `p`: the right
    /// length, every id live at the reported distance, and the distance
    /// list equal to the brute-force one. Ties may resolve to any id.
    pub fn knn_ok(&self, p: &[f64; 2], k: usize, got: &[(u32, f64)]) -> bool {
        let mut dists: Vec<f64> = self
            .slots
            .iter()
            .flatten()
            .map(|r| r.min_dist_sq(p))
            .collect();
        dists.sort_by(f64::total_cmp);
        dists.truncate(k);
        got.len() == dists.len()
            && got.iter().zip(&dists).all(|(&(id, d), &want)| {
                close(d, want)
                    && self
                        .slots
                        .get(id as usize)
                        .and_then(|s| s.as_ref())
                        .is_some_and(|r| close(r.min_dist_sq(p), d))
            })
    }
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
}

/// Count intersecting `(a, b)` pairs by sort-and-sweep on the x axis:
/// both sides sorted by x-min, each box scanned forward against the
/// other side's boxes that start inside its x-extent.
pub fn sweep_pairs(a: &[Box2], b: &[Box2]) -> u64 {
    let sorted = |v: &[Box2]| {
        let mut s = v.to_vec();
        s.sort_by(|p, q| p.lo[0].total_cmp(&q.lo[0]));
        s
    };
    let (a, b) = (sorted(a), sorted(b));
    // Pairs where the b-box starts at or after the a-box, then pairs
    // where the a-box starts strictly after the b-box: each once.
    forward(&a, &b, false) + forward(&b, &a, true)
}

fn forward(outer: &[Box2], inner: &[Box2], strict: bool) -> u64 {
    let mut pairs = 0;
    let mut start = 0;
    for o in outer {
        while start < inner.len()
            && (inner[start].lo[0] < o.lo[0] || (strict && inner[start].lo[0] == o.lo[0]))
        {
            start += 1;
        }
        for i in &inner[start..] {
            if i.lo[0] > o.hi[0] {
                break;
            }
            if i.lo[1] <= o.hi[1] && o.lo[1] <= i.hi[1] {
                pairs += 1;
            }
        }
    }
    pairs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn sweep_counter_matches_nested_loops() {
        let a = gen::objects(7, 0, 600);
        let b = gen::objects(7, 1, 500);
        let brute = a
            .iter()
            .map(|x| b.iter().filter(|y| x.intersects(y)).count() as u64)
            .sum::<u64>();
        assert_eq!(sweep_pairs(&a, &b), brute);
        assert_eq!(
            sweep_pairs(&a, &a),
            a.iter()
                .map(|x| a.iter().filter(|y| x.intersects(y)).count() as u64)
                .sum::<u64>()
        );
    }

    #[test]
    fn model_tracks_writes() {
        let objs = gen::objects(3, 0, 10);
        let mut m = Model::new(&objs);
        assert!(m.delete(4) && !m.delete(4));
        assert!(m.insert(4, objs[0]) && !m.insert(4, objs[0]));
        assert!(m.insert(12, objs[1]));
        assert_eq!(m.live(), 11);
        assert!(m.knn_ok(&[0.0, 0.0], 3, &{
            let mut d: Vec<(u32, f64)> = (0..13u32)
                .filter_map(|i| Some((i, m.slots[i as usize]?.min_dist_sq(&[0.0, 0.0]))))
                .collect();
            d.sort_by(|x, y| x.1.total_cmp(&y.1));
            d.truncate(3);
            d
        }));
    }
}
