//! # cbb-geom — d-dimensional rectilinear geometry
//!
//! Substrate for the clipped-bounding-box (CBB) reproduction: points,
//! axis-aligned hyper-rectangles, corner masks, the oriented dominance
//! relation of the paper (Definition 4), and exact / Monte-Carlo union
//! volumes of box sets (used to measure *dead space*, Definition 1).
//!
//! Everything is generic over the compile-time dimensionality `D`; the
//! experiments use `D = 2` and `D = 3` but nothing here is specific to
//! low dimensions (masks support `D ≤ 8`).
//!
//! The crate is dependency-free; deterministic sampling uses an internal
//! SplitMix64 generator so that measured dead-space numbers are exactly
//! reproducible across runs and platforms.

#![forbid(unsafe_code)]

pub mod dominance;
pub mod mask;
pub mod point;
pub mod rect;
pub mod sampling;
pub mod union;

pub use dominance::{dominates, dominates_eq, dominates_strict_all};
pub use mask::CornerMask;
pub use point::Point;
pub use rect::Rect;
pub use sampling::SplitMix64;
pub use union::{dead_space_fraction, union_volume, union_volume_exact, union_volume_mc};

/// Coordinate scalar used throughout the workspace.
pub type Coord = f64;
