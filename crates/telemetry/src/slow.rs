//! Bounded slow-query ring: keeps the top-K completed requests by
//! service time, each with its phase breakdown and work counters.
//!
//! The hot path pays one relaxed atomic load when a request is *not*
//! slow enough to enter (the common case): `min_ns` caches the
//! current admission threshold, so the mutex is only taken when the
//! ring is not yet full or the candidate actually beats the slowest
//! retained entry.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::span::Span;

/// One retained slow request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SlowQuery {
    /// Request kind (e.g. `"range"`, `"join"`).
    pub kind: &'static str,
    /// Dataset name, when the request targeted one (shared by every
    /// request of one batch group).
    pub dataset: Option<Arc<str>>,
    /// End-to-end service time in nanoseconds.
    pub total_ns: u64,
    /// Per-phase nanoseconds.
    pub span: Span,
    /// Work counters attributed to the request (e.g. the six
    /// `AccessStats` fields, result counts).
    pub counters: Vec<(&'static str, u64)>,
}

/// Top-K by [`SlowQuery::total_ns`], capacity fixed at construction.
/// Capacity `0` disables the ring entirely (no lock, no atomics).
pub struct SlowQueryRing {
    capacity: usize,
    /// Admission threshold: the smallest `total_ns` currently retained
    /// once the ring is full, else `0`. Advisory (relaxed) — the mutex
    /// re-checks.
    min_ns: AtomicU64,
    entries: Mutex<Vec<SlowQuery>>,
}

impl SlowQueryRing {
    /// A ring retaining at most `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        SlowQueryRing {
            capacity,
            min_ns: AtomicU64::new(0),
            entries: Mutex::new(Vec::new()),
        }
    }

    /// Maximum number of retained entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Offer a completed request. Returns `true` if it was retained.
    pub fn offer(&self, entry: SlowQuery) -> bool {
        if self.capacity == 0 {
            return false;
        }
        // Fast path: ring full and this request is no slower than the
        // slowest retained one.
        if entry.total_ns < self.min_ns.load(Ordering::Relaxed) {
            return false;
        }
        let mut entries = self.entries.lock().expect("slow ring poisoned");
        if entries.len() == self.capacity {
            // Re-check under the lock; evict the current minimum.
            let (min_idx, min_ns) = entries
                .iter()
                .enumerate()
                .map(|(i, e)| (i, e.total_ns))
                .min_by_key(|&(_, ns)| ns)
                .expect("ring full implies non-empty");
            if entry.total_ns <= min_ns {
                return false;
            }
            entries[min_idx] = entry;
        } else {
            entries.push(entry);
        }
        if entries.len() == self.capacity {
            let new_min = entries
                .iter()
                .map(|e| e.total_ns)
                .min()
                .expect("ring full implies non-empty");
            self.min_ns.store(new_min, Ordering::Relaxed);
        }
        true
    }

    /// Retained entries, slowest first.
    pub fn entries(&self) -> Vec<SlowQuery> {
        let mut out = self.entries.lock().expect("slow ring poisoned").clone();
        out.sort_by_key(|e| std::cmp::Reverse(e.total_ns));
        out
    }

    /// Drop every retained entry and reset the admission threshold.
    pub fn clear(&self) {
        self.entries.lock().expect("slow ring poisoned").clear();
        self.min_ns.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::Phase;

    fn q(total_ns: u64) -> SlowQuery {
        let mut span = Span::new();
        span.record(Phase::Execute, total_ns);
        SlowQuery {
            kind: "range",
            dataset: Some("d".into()),
            total_ns,
            span,
            counters: vec![("results", 1)],
        }
    }

    #[test]
    fn keeps_top_k_slowest() {
        let ring = SlowQueryRing::new(3);
        for ns in [5, 1, 9, 3, 7, 2] {
            ring.offer(q(ns));
        }
        let kept: Vec<u64> = ring.entries().iter().map(|e| e.total_ns).collect();
        assert_eq!(kept, vec![9, 7, 5]);
    }

    #[test]
    fn fast_path_rejects_below_threshold() {
        let ring = SlowQueryRing::new(2);
        assert!(ring.offer(q(10)));
        assert!(ring.offer(q(20)));
        assert!(!ring.offer(q(5)), "slower than every retained entry");
        assert!(ring.offer(q(15)), "beats the current minimum");
        let kept: Vec<u64> = ring.entries().iter().map(|e| e.total_ns).collect();
        assert_eq!(kept, vec![20, 15]);
    }

    #[test]
    fn zero_capacity_is_inert() {
        let ring = SlowQueryRing::new(0);
        assert!(!ring.offer(q(1_000_000)));
        assert!(ring.entries().is_empty());
    }

    #[test]
    fn entries_carry_breakdown_and_counters() {
        let ring = SlowQueryRing::new(1);
        ring.offer(q(42));
        let entries = ring.entries();
        assert_eq!(entries[0].span.breakdown(), vec![("execute", 42)]);
        assert_eq!(entries[0].counters, vec![("results", 1)]);
    }

    #[test]
    fn concurrent_offers_respect_capacity() {
        let ring = SlowQueryRing::new(8);
        std::thread::scope(|scope| {
            for t in 0..4 {
                let ring = &ring;
                scope.spawn(move || {
                    for i in 0..500u64 {
                        ring.offer(q(t * 10_000 + i));
                    }
                });
            }
        });
        let entries = ring.entries();
        assert_eq!(entries.len(), 8);
        // The 8 slowest overall are the tail of thread 3's range.
        assert!(entries.iter().all(|e| e.total_ns >= 30_492));
    }

    #[test]
    fn clear_resets() {
        let ring = SlowQueryRing::new(1);
        ring.offer(q(100));
        ring.clear();
        assert!(ring.entries().is_empty());
        assert!(ring.offer(q(1)), "threshold reset after clear");
    }
}
