//! The engine's persistent worker pool.
//!
//! One process-wide set of parked threads, started on the first call
//! and sized `available_parallelism() − 1`: the calling thread always
//! works on its own call, so a call never waits for a thread to be
//! spawned, woken or freed, and on a one-core machine the pool holds no
//! thread at all. A call is submitted as a *job* of `n` slots. Whoever
//! gets there first — the caller or a pool thread — claims the next slot
//! by atomic index and runs it; the caller returns once every slot has
//! finished. A call of a few microseconds of work is usually finished by
//! the caller alone before a pool thread has woken, which is the point:
//! a served micro-batch of clipped descents is tens of microseconds of
//! work, less than spawning (or even waking) four threads costs.
//!
//! `workers` is the number of **logical** slots (chunks or
//! accumulators), not of threads: chunk boundaries, output order and
//! every counter are the same whatever the machine's core count.
//!
//! Three disciplines on that one mechanism:
//!
//! * [`fold_dynamic`] — slots pull item indices from a shared atomic
//!   counter and fold them into per-slot accumulators. Best when item
//!   costs are skewed (join tiles over clustered data), since a fast
//!   slot takes the remaining items. Which slot sees which item is not
//!   deterministic, so use it for *commutative* accumulation (counter
//!   merging).
//! * [`fold_dynamic_tasks`] — the same discipline over a materialised
//!   task slice. This is the shared queue of the join's *two-level*
//!   scheduler: whole cold tiles and the node-pair / probe-chunk
//!   subtasks of decomposed hot tiles interleave on one queue, ordered
//!   heaviest-first (LPT) by the caller, so a fast slot takes a hot
//!   tile's remaining subtasks instead of idling behind it.
//! * [`map_chunked`] — items are split into one contiguous chunk per
//!   slot and the per-chunk outputs come back in input order. Use it
//!   when the result must be deterministic and position-addressed
//!   (batched query answers).
//!
//! # Contract
//!
//! * **Panics.** A panicking slot is caught where it ran; the remaining
//!   slots still run, and the *caller* then panics with `engine worker
//!   panicked`. Pool threads survive and serve the next job.
//! * **Nesting and concurrent callers.** A slot may itself call into the
//!   pool, and any number of threads may call at once. Neither can
//!   deadlock: a caller drains its own job before it waits, so it only
//!   ever waits for slots that some thread is already running, and a
//!   running slot waits only for jobs submitted after its own.
//! * **Blocking.** A slot that blocks on something other than the pool
//!   holds a pool thread for that long; the engine's slots never do.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, Once, PoisonError};
use std::thread::{self, Thread};

/// Clamp a requested worker count to something sane for `items` items:
/// at least one, at most one per item.
pub fn effective_workers(requested: usize, items: usize) -> usize {
    requested.max(1).min(items.max(1))
}

/// What a job runs for each of its slots.
type SlotBody<'a> = &'a (dyn Fn(usize) + Sync + 'a);

/// One submitted call. Lives in an `Arc` shared by the submitter, the
/// pool's queue and whichever pool threads picked it up.
struct Job {
    /// The submitter's closure with its borrow lifetime erased (see
    /// [`submit`]): only ever called for a claimed slot `< slots`.
    body: SlotBody<'static>,
    slots: usize,
    /// Next unclaimed slot. `Relaxed`: it hands out indices and
    /// publishes nothing — a pool thread learns of the job (and `body`)
    /// through the queue mutex.
    next: AtomicUsize,
    /// Finished slots. Incremented with `Release` after a slot's body
    /// returned, read with `Acquire` by the submitter: `done == slots`
    /// makes every slot's writes (and `panicked`) visible to it.
    done: AtomicUsize,
    panicked: AtomicBool,
    submitter: Thread,
}

impl Job {
    fn has_unclaimed(&self) -> bool {
        self.next.load(Ordering::Relaxed) < self.slots
    }

    /// Claim and run slots until none is left. A pool thread
    /// (`wake_submitter`) unparks the submitter when it finishes the
    /// job's last slot; the submitter checks `done` itself.
    fn drain(&self, wake_submitter: bool) {
        loop {
            let slot = self.next.fetch_add(1, Ordering::Relaxed);
            if slot >= self.slots {
                return;
            }
            if catch_unwind(AssertUnwindSafe(|| (self.body)(slot))).is_err() {
                self.panicked.store(true, Ordering::Relaxed);
            }
            let done = self.done.fetch_add(1, Ordering::Release) + 1;
            if wake_submitter && done == self.slots {
                self.submitter.unpark();
            }
        }
    }
}

/// Jobs with slots still to claim, oldest first, and how many pool
/// threads are parked waiting for one.
struct Queue {
    jobs: VecDeque<Arc<Job>>,
    sleeping: usize,
}

struct Pool {
    queue: Mutex<Queue>,
    work: Condvar,
}

static POOL: Pool = Pool {
    queue: Mutex::new(Queue {
        jobs: VecDeque::new(),
        sleeping: 0,
    }),
    work: Condvar::new(),
};

impl Pool {
    /// The process-wide pool; the first call starts its threads.
    fn global() -> &'static Pool {
        static START: Once = Once::new();
        START.call_once(|| {
            let threads = thread::available_parallelism().map_or(1, |n| n.get()) - 1;
            for i in 0..threads {
                thread::Builder::new()
                    .name(format!("cbb-engine-pool-{i}"))
                    .spawn(|| POOL.serve())
                    .expect("spawn engine pool thread");
            }
        });
        &POOL
    }

    /// No slot body ever runs under this lock, and every update leaves
    /// the queue valid, so a poisoned lock is recovered rather than
    /// turned into a panic between a job's submission and its end.
    fn lock(&self) -> MutexGuard<'_, Queue> {
        self.queue.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// A pool thread's life: run the oldest job that has an unclaimed
    /// slot, park when there is none.
    fn serve(&self) {
        let mut queue = self.lock();
        loop {
            match queue.jobs.iter().find(|job| job.has_unclaimed()) {
                Some(job) => {
                    let job = Arc::clone(job);
                    drop(queue);
                    job.drain(true);
                    drop(job);
                    queue = self.lock();
                }
                None => {
                    queue.sleeping += 1;
                    queue = self
                        .work
                        .wait(queue)
                        .unwrap_or_else(PoisonError::into_inner);
                    queue.sleeping -= 1;
                }
            }
        }
    }

    /// Queue `job` and wake at most one parked thread per slot the
    /// submitter will not run itself — never all of them, and none (no
    /// syscall) when nobody is parked.
    fn push(&self, job: &Arc<Job>) {
        let mut queue = self.lock();
        queue.jobs.push_back(Arc::clone(job));
        let wake = queue.sleeping.min(job.slots - 1);
        drop(queue);
        for _ in 0..wake {
            self.work.notify_one();
        }
    }
}

/// Ends a submitted job: takes it off the queue and blocks until every
/// claimed slot has finished. As a drop guard it runs on every way out
/// of [`submit`], unwinding included.
struct Finish<'a> {
    pool: &'a Pool,
    job: &'a Arc<Job>,
}

impl Drop for Finish<'_> {
    fn drop(&mut self) {
        self.pool
            .lock()
            .jobs
            .retain(|queued| !Arc::ptr_eq(queued, self.job));
        while self.job.done.load(Ordering::Acquire) < self.job.slots {
            thread::park();
        }
    }
}

/// Run `body(slot)` once for every slot in `0..slots` (≥ 1), on the
/// calling thread and whichever pool threads get to a slot first, and
/// return when all have finished. Panics if any slot panicked.
#[allow(unsafe_code)]
fn submit(slots: usize, body: SlotBody<'_>) {
    let pool = Pool::global();
    // SAFETY: the transmute only erases the lifetime of `body`'s borrow
    // so that pool threads, which are `'static`, can hold it. Two facts
    // keep every call of it inside that borrow. (1) `Job::drain` is the
    // only code that calls `body`, and only for a claimed slot index
    // `< slots`, before it counts that slot in `done`; a thread that
    // claims an index `>= slots` touches nothing but the job's own
    // fields, which the `Arc` keeps alive. (2) This function does not
    // return, normally or by unwinding, before `Finish::drop` has seen
    // `done == slots`, i.e. before every claimed slot's call has
    // returned — and once all `slots` indices are claimed no further
    // call can start. The job's fields are private to this module.
    let body = unsafe { std::mem::transmute::<SlotBody<'_>, SlotBody<'static>>(body) };
    let job = Arc::new(Job {
        body,
        slots,
        next: AtomicUsize::new(0),
        done: AtomicUsize::new(0),
        panicked: AtomicBool::new(false),
        submitter: thread::current(),
    });
    pool.push(&job);
    let finish = Finish { pool, job: &job };
    job.drain(false);
    drop(finish);
    if job.panicked.load(Ordering::Relaxed) {
        panic!("engine worker panicked");
    }
}

/// [`submit`] with one output per slot, returned in slot order. One
/// slot runs inline: no job, no synchronisation.
fn run_slots<R, F>(slots: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    if slots == 1 {
        return vec![f(0)];
    }
    let outs: Vec<Mutex<Option<R>>> = (0..slots).map(|_| Mutex::new(None)).collect();
    submit(slots, &|slot| {
        let out = f(slot);
        *outs[slot].lock().unwrap_or_else(PoisonError::into_inner) = Some(out);
    });
    outs.into_iter()
        .map(|out| {
            out.into_inner()
                .unwrap_or_else(PoisonError::into_inner)
                .expect("every slot ran")
        })
        .collect()
}

/// Process `items` indices `0..items` on `workers` slots pulling work
/// from a shared queue; each slot folds its items into an accumulator
/// seeded by `init`, and all accumulators are returned (in slot order).
///
/// `step` must be safe to call concurrently for distinct indices; every
/// index is processed exactly once.
pub fn fold_dynamic<A, I, F>(workers: usize, items: usize, init: I, step: F) -> Vec<A>
where
    A: Send,
    I: Fn() -> A + Sync,
    F: Fn(usize, &mut A) + Sync,
{
    let next = AtomicUsize::new(0);
    run_slots(effective_workers(workers, items), |_| {
        let mut acc = init();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= items {
                break acc;
            }
            step(i, &mut acc);
        }
    })
}

/// [`fold_dynamic`] over an explicit task slice: slots pull tasks from
/// the shared queue front-to-back, so callers control priority by order
/// (put the heaviest tasks first for LPT scheduling).
pub fn fold_dynamic_tasks<T, A, I, F>(workers: usize, tasks: &[T], init: I, step: F) -> Vec<A>
where
    T: Sync,
    A: Send,
    I: Fn() -> A + Sync,
    F: Fn(&T, &mut A) + Sync,
{
    fold_dynamic(workers, tasks.len(), init, |i, acc| step(&tasks[i], acc))
}

/// Split `items` into one contiguous chunk per worker, apply `f` to each
/// chunk concurrently, and return the outputs **in input order**. `f`
/// receives the chunk's starting offset within `items`.
pub fn map_chunked<T, R, F>(workers: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &[T]) -> R + Sync,
{
    let workers = effective_workers(workers, items.len());
    // Spread the remainder over the first chunks so sizes differ by ≤ 1.
    let base = items.len() / workers;
    let extra = items.len() % workers;
    run_slots(workers, |w| {
        let start = w * base + w.min(extra);
        let len = base + usize::from(w < extra);
        f(start, &items[start..start + len])
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::Mutex;

    #[test]
    fn effective_workers_clamps() {
        assert_eq!(effective_workers(0, 10), 1);
        assert_eq!(effective_workers(8, 3), 3);
        assert_eq!(effective_workers(4, 0), 1);
        assert_eq!(effective_workers(2, 100), 2);
    }

    #[test]
    fn fold_dynamic_visits_every_index_once() {
        for workers in [1, 2, 5, 16] {
            let seen = Mutex::new(Vec::new());
            let accs = fold_dynamic(
                workers,
                100,
                || 0u64,
                |i, acc| {
                    seen.lock().unwrap().push(i);
                    *acc += i as u64;
                },
            );
            assert!(accs.len() <= workers.max(1));
            assert_eq!(accs.iter().sum::<u64>(), (0..100).sum::<u64>());
            let seen = seen.into_inner().unwrap();
            assert_eq!(seen.len(), 100);
            assert_eq!(seen.iter().copied().collect::<HashSet<_>>().len(), 100);
        }
    }

    #[test]
    fn fold_dynamic_zero_items() {
        let accs = fold_dynamic(4, 0, || 7u32, |_, _| unreachable!("no items"));
        assert_eq!(accs, vec![7]);
    }

    #[test]
    fn fold_dynamic_tasks_folds_every_task() {
        let tasks: Vec<u64> = (0..57).map(|i| i * 3).collect();
        for workers in [1, 3, 8] {
            let accs = fold_dynamic_tasks(workers, &tasks, || 0u64, |t, acc| *acc += *t);
            assert_eq!(
                accs.iter().sum::<u64>(),
                tasks.iter().sum::<u64>(),
                "workers = {workers}"
            );
        }
        let none = fold_dynamic_tasks(4, &[] as &[u64], || 1u32, |_, _| unreachable!());
        assert_eq!(none, vec![1]);
    }

    #[test]
    fn map_chunked_preserves_order_and_offsets() {
        let items: Vec<u32> = (0..37).collect();
        for workers in [1, 2, 3, 8, 64] {
            let outs = map_chunked(workers, &items, |offset, chunk| {
                assert_eq!(chunk[0] as usize, offset);
                chunk.to_vec()
            });
            let flat: Vec<u32> = outs.into_iter().flatten().collect();
            assert_eq!(flat, items, "workers = {workers}");
        }
    }

    #[test]
    fn map_chunked_empty_input() {
        let outs = map_chunked(3, &[] as &[u8], |_, chunk| chunk.len());
        assert_eq!(outs, vec![0]);
    }

    #[test]
    fn slots_write_and_return_borrowed_stack_data() {
        let items: [u32; 37] = std::array::from_fn(|i| i as u32);
        let cells: [AtomicUsize; 37] = std::array::from_fn(|_| AtomicUsize::new(0));
        let chunks: Vec<&[u32]> = map_chunked(5, &items, |offset, chunk| {
            for (i, v) in chunk.iter().enumerate() {
                cells[offset + i].store(*v as usize + 1, Ordering::Relaxed);
            }
            &items[offset..offset + chunk.len()]
        });
        assert_eq!(chunks.concat(), items);
        for (cell, v) in cells.iter().zip(items) {
            assert_eq!(cell.load(Ordering::Relaxed), v as usize + 1);
        }
    }

    #[test]
    fn nested_call_from_inside_a_slot() {
        let items: Vec<u64> = (0..64).collect();
        let outs = map_chunked(4, &items, |_, chunk| {
            fold_dynamic(4, chunk.len(), || 0u64, |i, acc| *acc += chunk[i])
                .into_iter()
                .sum::<u64>()
        });
        assert_eq!(outs.len(), 4);
        assert_eq!(outs.iter().sum::<u64>(), items.iter().sum::<u64>());
    }

    #[test]
    fn panicking_slot_surfaces_on_the_caller_and_the_pool_survives() {
        let ran = AtomicUsize::new(0);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            map_chunked(4, &[0u32, 1, 2, 3], |offset, _| {
                ran.fetch_add(1, Ordering::Relaxed);
                assert_ne!(offset, 2, "slot 2 fails");
                offset
            })
        }));
        let payload = caught.expect_err("the caller must panic");
        assert_eq!(
            payload.downcast_ref::<&str>(),
            Some(&"engine worker panicked")
        );
        assert_eq!(ran.load(Ordering::Relaxed), 4, "the other slots still ran");
        // The next jobs on the same pool complete.
        for _ in 0..100 {
            let outs = map_chunked(4, &[1u32, 2, 3, 4], |_, chunk| chunk[0] * 2);
            assert_eq!(outs, vec![2, 4, 6, 8]);
        }
    }
}
