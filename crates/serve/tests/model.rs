//! The seeded, model-based differential harness of the served system.
//!
//! Each seed draws datasets (tile-spanning, point, segment, duplicate
//! and out-of-domain objects), a tiling per dataset, a tree variant, an
//! engine execution and a service shape, then streams rounds of reads,
//! writes and admin ops — with a small share of hostile geometry —
//! through a brute-force model, the engine reference and the service
//! (see `harness/` and the engine's `tests/model/`). The coverage
//! assertion fails if the seed list stops drawing some axis value.

mod harness;
#[path = "../../engine/tests/model/mod.rs"]
mod model;

const SEEDS: [u64; 16] = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16];

/// The seeds run on two threads; every value of every axis must be
/// drawn by one of them.
#[test]
fn seeded_streams_answer_like_the_model_and_the_engine() {
    let mut seen = harness::Seen::new();
    std::thread::scope(|scope| {
        let halves = SEEDS.chunks(SEEDS.len() / 2).map(|seeds| {
            scope.spawn(|| {
                seeds
                    .iter()
                    .flat_map(|&seed| harness::run(seed, |_| {}))
                    .collect()
            })
        });
        for half in halves.collect::<Vec<_>>() {
            let drawn: harness::Seen = half.join().expect("a seed failed");
            seen.extend(drawn);
        }
    });
    harness::assert_covers_every_axis(&seen);
}
