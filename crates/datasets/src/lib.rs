//! # cbb-datasets — benchmark dataset and query-workload generators
//!
//! The paper evaluates on seven datasets: four from the multidimensional
//! index benchmark of Beckmann & Seeger \[33\] (`rea02`, `rea03`, `par02`,
//! `par03`) and three Human-Brain-Project neuroscience extracts (`axo03`,
//! `den03`, `neu03`). None are redistributable, so this crate generates
//! synthetic stand-ins that reproduce the *load-bearing properties* each
//! experiment depends on (see DESIGN.md §4 for the substitution table):
//!
//! * `par0d` — boxes with heavy-tailed (Pareto) size/shape variance;
//! * `rea02` — street segments: thin, often axis-aligned, grid-clustered;
//! * `rea03` — pure points (3 correlated float attributes, skewed);
//! * `axo03` / `den03` / `neu03` — long skinny boxes from segmented 3-d
//!   random-walk tubules (axons/dendrites/neurites).
//!
//! Beyond the paper's seven, [`skew`] adds adversarially skewed
//! workloads (clustered blobs, Zipfian cells) used to evaluate the
//! engine's adaptive partitioners.
//!
//! All generators are deterministic given a seed. [`queries`] implements
//! the benchmark's query generator: density-following dithered object
//! centers with extents calibrated to the three selectivity profiles
//! (≈1 / ≈10 / ≈100 results).

#![forbid(unsafe_code)]

pub mod dataset;
pub mod multi;
pub mod neuro;
pub mod par;
pub mod queries;
pub mod rea;
pub mod registry;
pub mod skew;

pub use dataset::Dataset;
pub use multi::{layers, LayerKind, LayerSpec, NamedLayer};
pub use queries::{generate_queries, QueryProfile};
pub use registry::{dataset2, dataset3, Scale, DATASETS_2D, DATASETS_3D};
pub use skew::{clustered, clustered_with_layout, zipfian};
