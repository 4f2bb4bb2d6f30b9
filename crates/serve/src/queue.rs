//! A bounded MPMC queue on `Mutex` + `Condvar` — the service's admission
//! point.
//!
//! Any number of producers block when the queue is full — that is the service's backpressure — and any
//! number of consumers block when it is empty. [`Bounded::close`] stops
//! admission while letting consumers drain what was already accepted:
//! the pop side keeps returning items until the queue is empty and only
//! then reports closure, which is what makes the service's graceful
//! shutdown lose no request.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};
use std::time::Instant;

/// Push failure: the queue no longer admits items. The rejected item is
/// handed back.
#[derive(Debug, PartialEq, Eq)]
pub struct Closed<T>(pub T);

/// Outcome of a deadline-bounded pop.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum Popped<T> {
    /// An item was available (possibly after waiting).
    Item(T),
    /// The deadline passed with the queue still empty.
    TimedOut,
    /// The queue is closed and fully drained.
    Closed,
}

struct State<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// The bounded MPMC queue. All methods take `&self`; share it behind an
/// `Arc`.
pub(crate) struct Bounded<T> {
    capacity: usize,
    state: Mutex<State<T>>,
    not_empty: Condvar,
    not_full: Condvar,
}

impl<T> Bounded<T> {
    /// A queue admitting at most `capacity` items (≥ 1).
    pub(crate) fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "a queue needs capacity for one item");
        Bounded {
            capacity,
            state: Mutex::new(State {
                items: VecDeque::new(),
                closed: false,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        }
    }

    /// Push, blocking while the queue is full (backpressure). Fails only
    /// once the queue is closed.
    pub(crate) fn push(&self, item: T) -> Result<(), Closed<T>> {
        let mut state = self.state.lock().expect("queue poisoned");
        loop {
            if state.closed {
                return Err(Closed(item));
            }
            if state.items.len() < self.capacity {
                state.items.push_back(item);
                drop(state);
                self.not_empty.notify_one();
                return Ok(());
            }
            state = self.not_full.wait(state).expect("queue poisoned");
        }
    }

    /// Pop, blocking while the queue is empty and open. `None` means the
    /// queue is closed **and** drained — the consumer's exit signal.
    pub(crate) fn pop(&self) -> Option<T> {
        let mut state = self.state.lock().expect("queue poisoned");
        loop {
            if let Some(item) = state.items.pop_front() {
                drop(state);
                self.not_full.notify_one();
                return Some(item);
            }
            if state.closed {
                return None;
            }
            state = self.not_empty.wait(state).expect("queue poisoned");
        }
    }

    /// Pop up to `max` (≥ 1) items at once, blocking while the queue is
    /// empty and open: whatever backlog is queued when the first item
    /// is available comes back in FIFO order under **one** lock
    /// acquisition, and blocked producers are woken once for all the
    /// room made. Never waits for more than one item. `None` means the
    /// queue is closed **and** drained.
    pub(crate) fn pop_many(&self, max: usize) -> Option<Vec<T>> {
        assert!(max >= 1, "pop_many takes at least one item");
        let mut state = self.state.lock().expect("queue poisoned");
        while state.items.is_empty() {
            if state.closed {
                return None;
            }
            state = self.not_empty.wait(state).expect("queue poisoned");
        }
        let take = max.min(state.items.len());
        let items: Vec<T> = state.items.drain(..take).collect();
        drop(state);
        // Several slots may have opened: every blocked producer gets to
        // re-check, in one notification.
        self.not_full.notify_all();
        Some(items)
    }

    /// Pop, waiting at most until `deadline` when empty. An item already
    /// queued is returned even past the deadline (draining available
    /// backlog costs no extra waiting — the deadline bounds *added*
    /// latency, which is what micro-batch flushing needs).
    pub(crate) fn pop_until(&self, deadline: Instant) -> Popped<T> {
        let mut state = self.state.lock().expect("queue poisoned");
        loop {
            if let Some(item) = state.items.pop_front() {
                drop(state);
                self.not_full.notify_one();
                return Popped::Item(item);
            }
            if state.closed {
                return Popped::Closed;
            }
            let now = Instant::now();
            if now >= deadline {
                return Popped::TimedOut;
            }
            let (next, timeout) = self
                .not_empty
                .wait_timeout(state, deadline - now)
                .expect("queue poisoned");
            state = next;
            if timeout.timed_out() && state.items.is_empty() {
                return if state.closed {
                    Popped::Closed
                } else {
                    Popped::TimedOut
                };
            }
        }
    }

    /// Stop admitting items. Idempotent. Consumers drain the backlog and
    /// then see `None` / [`Popped::Closed`]; blocked producers fail.
    pub(crate) fn close(&self) {
        let mut state = self.state.lock().expect("queue poisoned");
        state.closed = true;
        drop(state);
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    /// Items currently queued.
    fn queued<T>(q: &Bounded<T>) -> usize {
        q.state.lock().unwrap().items.len()
    }

    #[test]
    fn fifo_order() {
        let q = Bounded::new(8);
        for i in 0..5 {
            q.push(i).unwrap();
        }
        assert_eq!(queued(&q), 5);
        for i in 0..5 {
            assert_eq!(q.pop(), Some(i));
        }
        assert_eq!(queued(&q), 0);
    }

    #[test]
    fn close_rejects_producers_but_drains_consumers() {
        let q = Bounded::new(4);
        q.push("a").unwrap();
        q.push("b").unwrap();
        q.close();
        assert_eq!(q.push("c"), Err(Closed("c")));
        assert_eq!(q.pop(), Some("a"));
        assert_eq!(q.pop(), Some("b"));
        assert_eq!(q.pop(), None);
        // close is idempotent.
        q.close();
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn pop_until_times_out_and_returns_backlog_past_deadline() {
        let q: Bounded<u32> = Bounded::new(4);
        let past = Instant::now() - Duration::from_millis(1);
        assert_eq!(q.pop_until(past), Popped::TimedOut);
        q.push(7).unwrap();
        // Deadline already passed, but the item is available: take it.
        assert_eq!(q.pop_until(past), Popped::Item(7));
        q.close();
        assert_eq!(q.pop_until(past), Popped::Closed);
    }

    #[test]
    fn pop_many_takes_the_backlog_in_fifo_order() {
        let q = Bounded::new(16);
        for i in 0..10 {
            q.push(i).unwrap();
        }
        // A backlog above `max` yields `max`, then the rest.
        assert_eq!(q.pop_many(4), Some(vec![0, 1, 2, 3]));
        assert_eq!(q.pop_many(64), Some(vec![4, 5, 6, 7, 8, 9]));
        q.push(10).unwrap();
        q.close();
        // Closed: the backlog still drains, then `None`.
        assert_eq!(q.pop_many(64), Some(vec![10]));
        assert_eq!(q.pop_many(64), None);
    }

    #[test]
    fn pop_many_blocks_for_the_first_item_and_wakes_every_producer() {
        let q = Arc::new(Bounded::new(2));
        let consumer = {
            let q = q.clone();
            std::thread::spawn(move || q.pop_many(8))
        };
        q.push(1u32).unwrap();
        let got = consumer.join().unwrap().expect("open queue");
        assert_eq!(got[0], 1);
        // Fill the queue, block two producers, free both slots at once.
        while queued(&q) < 2 {
            q.push(0).unwrap();
        }
        let producers: Vec<_> = (0..2)
            .map(|i| {
                let q = q.clone();
                std::thread::spawn(move || q.push(10 + i).is_ok())
            })
            .collect();
        // Passes under any interleaving; the sleep makes the case it is
        // for (both producers already blocked) the likely one.
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(q.pop_many(2).map(|items| items.len()), Some(2));
        for p in producers {
            assert!(p.join().unwrap());
        }
        assert_eq!(queued(&q), 2);
    }

    #[test]
    fn blocked_producer_wakes_on_pop() {
        let q = Arc::new(Bounded::new(1));
        q.push(0u32).unwrap();
        let q2 = q.clone();
        let producer = std::thread::spawn(move || q2.push(1).is_ok());
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(q.pop(), Some(0));
        assert!(producer.join().unwrap());
        assert_eq!(q.pop(), Some(1));
    }

    #[test]
    fn blocked_producer_fails_on_close() {
        let q = Arc::new(Bounded::new(1));
        q.push(0u32).unwrap();
        let q2 = q.clone();
        let producer = std::thread::spawn(move || q2.push(1));
        std::thread::sleep(Duration::from_millis(20));
        q.close();
        assert_eq!(producer.join().unwrap(), Err(Closed(1)));
    }

    #[test]
    fn mpmc_every_item_consumed_exactly_once() {
        const PRODUCERS: usize = 4;
        const CONSUMERS: usize = 3;
        const PER_PRODUCER: usize = 200;
        let q = Arc::new(Bounded::new(8));
        let mut handles = Vec::new();
        for p in 0..PRODUCERS {
            let q = q.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..PER_PRODUCER {
                    q.push(p * PER_PRODUCER + i).unwrap();
                }
            }));
        }
        let consumers: Vec<_> = (0..CONSUMERS)
            .map(|_| {
                let q = q.clone();
                std::thread::spawn(move || {
                    let mut got = Vec::new();
                    while let Some(item) = q.pop() {
                        got.push(item);
                    }
                    got
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        q.close();
        let mut all: Vec<usize> = consumers
            .into_iter()
            .flat_map(|c| c.join().unwrap())
            .collect();
        all.sort_unstable();
        let expected: Vec<usize> = (0..PRODUCERS * PER_PRODUCER).collect();
        assert_eq!(all, expected);
    }
}
