//! Service transparency: every answer produced through the queue →
//! batch pipeline is byte-identical to calling the engine directly with
//! the same request. Batching changes scheduling, never results.
//!
//! Each test is a named case of the seeded harness (`harness/`): it
//! pins the service shape or engine execution its name gives, and the
//! harness checks every response against the engine reference and the
//! brute-force model.

mod harness;
#[path = "../../engine/tests/model/mod.rs"]
mod model;

use std::time::Duration;

use cbb_engine::QueryAlgo;
use harness::{run, Shape};

/// Real micro-batches over three exec workers answer like the engine,
/// and replaying the service's own batches reproduces its coalesced
/// writes.
#[test]
fn batched_answers_equal_direct_executor_answers() {
    let seen = run(101, |c| {
        c.shape = Shape {
            shards: 1,
            dispatchers: 1,
            batch_max: Some(16),
            deadline: Duration::from_millis(5),
            exec_workers: 3,
            durable: false,
        }
    });
    assert!(seen.contains("batch>1"), "the shape must form real batches");
}

/// The same stream under unbatched, narrow and wide batching, with and
/// without a deadline, on one and two dispatchers.
#[test]
fn batching_configuration_does_not_change_answers() {
    let held = Duration::from_millis(5);
    for (dispatchers, batch_max, deadline) in [
        (1, None, Duration::ZERO),
        (1, Some(4), held),
        (2, Some(64), Duration::ZERO),
    ] {
        run(102, |c| {
            c.shape.dispatchers = dispatchers;
            c.shape.batch_max = batch_max;
            c.shape.deadline = deadline;
        });
    }
}

/// k = 0, empty probe sets and windows that match nothing round-trip.
#[test]
fn degenerate_requests_are_served() {
    let seen = run(103, |c| c.rounds = 8);
    for degenerate in ["k=0", "join probes=0"] {
        assert!(seen.contains(degenerate), "{degenerate} not drawn");
    }
}

/// The engine's range paths move work counters, never answers, under
/// a batched and an unbatched service on one shard and on three.
#[test]
fn query_algo_never_changes_answers_in_any_service_shape() {
    for (i, algo) in [QueryAlgo::Descend, QueryAlgo::SharedSweep, QueryAlgo::Auto]
        .into_iter()
        .enumerate()
    {
        run(104, |c| {
            c.data.exec.algo = algo;
            c.shape.shards = [1, 3][i % 2];
            c.shape.batch_max = [Some(16), None][i % 2];
            c.shape.deadline = Duration::ZERO;
            c.shape.durable = false;
        });
    }
}
