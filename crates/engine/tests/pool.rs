//! Stress tests of the persistent worker pool through its public
//! entry points: many threads submitting at once, nesting under
//! contention, and panics while other callers are mid-job. A hang here
//! is the failure the serial deadlock-canary CI job loops for.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Barrier;

use cbb_engine::pool::{fold_dynamic, fold_dynamic_tasks, map_chunked};

const CALLERS: usize = 8;
const ROUNDS: usize = 1_000;

/// Run `round(caller, round)` `ROUNDS` times on each of `CALLERS`
/// threads released together.
fn on_concurrent_callers(round: impl Fn(usize, usize) + Sync) {
    let barrier = Barrier::new(CALLERS);
    std::thread::scope(|scope| {
        for caller in 0..CALLERS {
            let (barrier, round) = (&barrier, &round);
            scope.spawn(move || {
                barrier.wait();
                for r in 0..ROUNDS {
                    round(caller, r);
                }
            });
        }
    });
}

#[test]
fn pool_concurrent_callers_get_their_own_answers() {
    on_concurrent_callers(|caller, r| {
        // Sizes sweep 0..40: empty input, fewer items than workers, and
        // several items per chunk all occur.
        let items: Vec<u64> = (0..((r + caller) % 40) as u64)
            .map(|i| i * 7 + caller as u64)
            .collect();
        let workers = 1 + r % 6;
        let chunks = map_chunked(workers, &items, |offset, chunk| (offset, chunk.to_vec()));
        let mut flat = Vec::new();
        for (offset, chunk) in chunks {
            assert_eq!(offset, flat.len(), "chunks come back in input order");
            flat.extend(chunk);
        }
        assert_eq!(flat, items);

        let total: u64 = fold_dynamic(workers, items.len(), || 0u64, |i, acc| *acc += items[i])
            .into_iter()
            .sum();
        assert_eq!(total, items.iter().sum::<u64>());
    });
}

#[test]
fn pool_nested_calls_under_contention() {
    on_concurrent_callers(|caller, r| {
        let tasks: Vec<Vec<u64>> = (0..5)
            .map(|t| (0..(r % 9 + t) as u64).map(|i| i + caller as u64).collect())
            .collect();
        let total: u64 = fold_dynamic_tasks(
            4,
            &tasks,
            || 0u64,
            |task, acc| {
                *acc += map_chunked(3, task, |_, chunk| chunk.iter().sum::<u64>())
                    .into_iter()
                    .sum::<u64>();
            },
        )
        .into_iter()
        .sum();
        assert_eq!(total, tasks.iter().flatten().sum::<u64>());
    });
}

#[test]
fn pool_panics_stay_with_their_caller() {
    on_concurrent_callers(|caller, r| {
        let items: Vec<usize> = (0..16).collect();
        // Caller 0 submits a job with a panicking slot every 100th
        // round; everyone else, and caller 0's other rounds, must be
        // answered as if nothing happened.
        let poisoned = caller == 0 && r % 100 == 0;
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            map_chunked(4, &items, |offset, chunk| {
                assert!(!(poisoned && offset == 8), "injected slot failure");
                chunk.iter().sum::<usize>()
            })
        }));
        match outcome {
            Ok(sums) => {
                assert!(!poisoned);
                assert_eq!(sums, vec![6, 22, 38, 54]);
            }
            Err(_) => assert!(poisoned, "a panic leaked into another caller's job"),
        }
    });
}
