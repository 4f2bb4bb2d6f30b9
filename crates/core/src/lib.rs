//! # cbb-core — clipped bounding boxes
//!
//! The paper's primary contribution (Šidlauskas et al., ICDE 2018, §III–IV):
//!
//! * [`ClipPoint`] — a point + corner mask declaring a rectangular region of
//!   an MBB to be dead space (Definition 2);
//! * [`skyline`] — oriented skylines of object corners (Definition 5), the
//!   object-situated clip-point candidates of CBB_SKY (§III-B);
//! * [`mod@stairline`] — splice points between skyline points (Definitions 6–7),
//!   the more aggressive CBB_STA candidates (§III-C);
//! * [`clipper`] — Algorithm 1: scoring (Fig. 5 union approximation),
//!   τ-thresholding and top-k selection of clip points per node;
//! * [`intersect`] — Algorithm 2: the clipping-enabled intersection test and
//!   the insertion-validity variant (§IV-C, §IV-D);
//! * [`Cbb`] — an MBB paired with its selected clip points (Definition 3).
//!
//! The crate is index-agnostic: it operates on plain rectangles so that any
//! R-tree variant (or other MBB-based structure) can plug it in, exactly as
//! the paper advertises.

#![forbid(unsafe_code)]

pub mod cbb;
pub mod clip;
pub mod clipper;
pub mod config;
pub mod intersect;
pub mod score;
pub mod skyline;
pub mod stairline;

pub use cbb::Cbb;
pub use clip::{clipped_min_dist_sq, ClipPoint};
pub use clipper::clip_node;
pub use config::{ClipConfig, ClipMethod};
pub use intersect::{cbb_intersection_test, insertion_keeps_clips_valid, query_intersects_cbb};
pub use skyline::oriented_skyline;
pub use stairline::{splice, stairline};
