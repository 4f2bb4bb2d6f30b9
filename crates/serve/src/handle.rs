//! Per-request completion handles: a one-shot slot the executor fulfils
//! and the submitter waits on (`Mutex` + `Condvar`, no runtime).

use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// The request was dropped unfulfilled (its executor died or the
/// service was torn down mid-request). Graceful shutdown never produces
/// this — the queue drains first.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Canceled;

struct Slot<T> {
    state: Mutex<SlotState<T>>,
    ready: Condvar,
}

enum SlotState<T> {
    Pending,
    Ready(T),
    Taken,
    Canceled,
}

/// Fulfilment side of a one-shot pair. Dropping it without calling
/// [`Promise::fulfill`] cancels the matching [`CompletionHandle`] — so a
/// panicking executor fails requests instead of hanging their waiters.
pub(crate) struct Promise<T>(Option<Arc<Slot<T>>>);

/// Waiting side of a one-shot pair.
pub struct CompletionHandle<T>(Arc<Slot<T>>);

/// A connected promise/handle pair.
pub(crate) fn completion_pair<T>() -> (Promise<T>, CompletionHandle<T>) {
    let slot = Arc::new(Slot {
        state: Mutex::new(SlotState::Pending),
        ready: Condvar::new(),
    });
    (Promise(Some(slot.clone())), CompletionHandle(slot))
}

impl<T> Promise<T> {
    /// Deliver the value and wake the waiter. Consumes the promise —
    /// a one-shot can only fire once.
    pub(crate) fn fulfill(mut self, value: T) {
        let slot = self.0.take().expect("promise already consumed");
        let mut state = slot.state.lock().expect("completion slot poisoned");
        if matches!(*state, SlotState::Pending) {
            *state = SlotState::Ready(value);
        }
        drop(state);
        slot.ready.notify_all();
    }
}

impl<T> Drop for Promise<T> {
    fn drop(&mut self) {
        if let Some(slot) = self.0.take() {
            let mut state = slot.state.lock().expect("completion slot poisoned");
            if matches!(*state, SlotState::Pending) {
                *state = SlotState::Canceled;
            }
            drop(state);
            slot.ready.notify_all();
        }
    }
}

impl<T> CompletionHandle<T> {
    /// Block until the response arrives (or the request is canceled).
    pub fn wait(self) -> Result<T, Canceled> {
        let mut state = self.0.state.lock().expect("completion slot poisoned");
        loop {
            match std::mem::replace(&mut *state, SlotState::Taken) {
                SlotState::Ready(value) => return Ok(value),
                SlotState::Canceled => return Err(Canceled),
                SlotState::Taken => unreachable!("one-shot value taken twice"),
                SlotState::Pending => {
                    *state = SlotState::Pending;
                    state = self.0.ready.wait(state).expect("completion slot poisoned");
                }
            }
        }
    }

    /// Non-blocking check; `None` while the request is still in flight.
    pub fn try_wait(&self) -> Option<Result<T, Canceled>> {
        let mut state = self.0.state.lock().expect("completion slot poisoned");
        match std::mem::replace(&mut *state, SlotState::Taken) {
            SlotState::Ready(value) => Some(Ok(value)),
            SlotState::Canceled => Some(Err(Canceled)),
            SlotState::Taken => unreachable!("one-shot value taken twice"),
            SlotState::Pending => {
                *state = SlotState::Pending;
                None
            }
        }
    }

    /// [`Self::wait`] bounded by a timeout; `Err(self)` hands the handle
    /// back so the caller can keep waiting.
    pub fn wait_timeout(self, timeout: Duration) -> Result<Result<T, Canceled>, Self> {
        let deadline = std::time::Instant::now() + timeout;
        let mut state = self.0.state.lock().expect("completion slot poisoned");
        loop {
            match std::mem::replace(&mut *state, SlotState::Taken) {
                SlotState::Ready(value) => return Ok(Ok(value)),
                SlotState::Canceled => return Ok(Err(Canceled)),
                SlotState::Taken => unreachable!("one-shot value taken twice"),
                SlotState::Pending => {
                    *state = SlotState::Pending;
                    let now = std::time::Instant::now();
                    if now >= deadline {
                        drop(state);
                        return Err(self);
                    }
                    let (next, _) = self
                        .0
                        .ready
                        .wait_timeout(state, deadline - now)
                        .expect("completion slot poisoned");
                    state = next;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fulfill_then_wait() {
        let (tx, rx) = completion_pair();
        tx.fulfill(42u32);
        assert_eq!(rx.wait(), Ok(42));
    }

    #[test]
    fn wait_blocks_until_fulfilled() {
        let (tx, rx) = completion_pair();
        let waiter = std::thread::spawn(move || rx.wait());
        std::thread::sleep(Duration::from_millis(20));
        tx.fulfill("done");
        assert_eq!(waiter.join().unwrap(), Ok("done"));
    }

    #[test]
    fn dropped_promise_cancels() {
        let (tx, rx) = completion_pair::<u8>();
        drop(tx);
        assert_eq!(rx.wait(), Err(Canceled));
    }

    #[test]
    fn try_wait_sees_pending_then_ready() {
        let (tx, rx) = completion_pair();
        assert!(rx.try_wait().is_none());
        tx.fulfill(7u8);
        assert_eq!(rx.try_wait(), Some(Ok(7)));
    }

    #[test]
    fn wait_timeout_returns_handle_then_succeeds() {
        let (tx, rx) = completion_pair();
        let rx = match rx.wait_timeout(Duration::from_millis(5)) {
            Err(handle) => handle,
            Ok(_) => panic!("nothing was fulfilled yet"),
        };
        tx.fulfill(1u8);
        match rx.wait_timeout(Duration::from_secs(5)) {
            Ok(got) => assert_eq!(got, Ok(1)),
            Err(_) => panic!("value was fulfilled, wait must succeed"),
        }
    }
}
