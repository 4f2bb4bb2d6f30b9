//! # cbb-bounding — alternative bounding geometries (2-d)
//!
//! The comparison set of Figures 8 and 9: minimum bounding circle (MBC,
//! Welzl), minimum bounding box (MBB), rotated MBB (RMBB, rotating
//! calipers), minimum m-corner polygons (4-C, 5-C, greedy edge-removal
//! heuristic after Aggarwal et al. \[35\]), and the convex hull (CH, Andrew
//! monotone chain). Following the paper (and \[6\], \[20\]), these are 2-d
//! only — no efficient minimum m-corner polytope constructions are known
//! in higher dimensions, which is precisely the paper's argument for CBBs.

#![forbid(unsafe_code)]

pub mod circle;
pub mod hull;
pub mod kcorner;
pub mod rmbb;
pub mod shape;

pub use circle::min_enclosing_circle;
pub use hull::convex_hull;
pub use kcorner::k_corner_polygon;
pub use rmbb::rotated_mbb;
pub use shape::{corner_points, dead_space_of_shape, Shape2};
