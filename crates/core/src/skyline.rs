//! Oriented skylines (paper §III-B, Definitions 4–5).
//!
//! For corner `b` of an MBB over objects `O`, the valid object-situated clip
//! points are exactly the oriented skyline `S_b({o_i^b})` of the objects'
//! nearest corners: a corner is a clip point iff no other object corner is
//! at least as close to `R^b` in every dimension.

use cbb_geom::{dominates, CornerMask, Point, Rect};

/// The oriented skyline `S_b(P)`: the subset of `points` not dominated by
/// any other point with respect to `b` (Definition 5).
///
/// Duplicates are collapsed to a single representative (two objects sharing
/// a corner produce one candidate clip point). Output order follows the
/// first occurrence in the input; cost is `O(n²)` — inputs are node fanouts
/// (≲ 130), for which this beats sort-based schemes and generalises to any
/// dimensionality.
pub fn oriented_skyline<const D: usize>(points: &[Point<D>], b: CornerMask) -> Vec<Point<D>> {
    let mut out: Vec<Point<D>> = Vec::new();
    'cand: for p in points {
        for q in points {
            if dominates(q, p, b) {
                continue 'cand;
            }
        }
        // Dedupe against the survivors only: a duplicate of a dominated
        // point is dominated too, and a duplicate of a survivor finds
        // its first occurrence already in `out`.
        if !out.contains(p) {
            out.push(*p);
        }
    }
    out
}

/// Convenience: extract corner `b` of every child rectangle and return the
/// oriented skyline of those corners — the CBB_SKY candidate set for one
/// corner of a node (Algorithm 1, line 3).
pub fn skyline_of_children<const D: usize>(children: &[Rect<D>], b: CornerMask) -> Vec<Point<D>> {
    let corners: Vec<Point<D>> = children.iter().map(|r| r.corner(b)).collect();
    oriented_skyline(&corners, b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The previous implementation, kept as the oracle: it skipped exact
    /// duplicates of earlier input points *before* the dominance scan.
    fn oriented_skyline_prescan<const D: usize>(
        points: &[Point<D>],
        b: CornerMask,
    ) -> Vec<Point<D>> {
        let mut out: Vec<Point<D>> = Vec::new();
        'cand: for (i, p) in points.iter().enumerate() {
            if points[..i].contains(p) {
                continue;
            }
            for q in points {
                if dominates(q, p, b) {
                    continue 'cand;
                }
            }
            out.push(*p);
        }
        out
    }

    /// Points on a coarse 6-per-axis grid, so exact duplicates and
    /// per-axis ties are common.
    fn gridded2(n: std::ops::Range<usize>) -> impl Strategy<Value = Vec<Point<2>>> {
        prop::collection::vec(
            (0u8..6, 0u8..6).prop_map(|(x, y)| Point([x, y].map(f64::from))),
            n,
        )
    }

    fn gridded3(n: std::ops::Range<usize>) -> impl Strategy<Value = Vec<Point<3>>> {
        prop::collection::vec(
            (0u8..6, 0u8..6, 0u8..6).prop_map(|(x, y, z)| Point([x, y, z].map(f64::from))),
            n,
        )
    }

    proptest! {
        /// Same set, same first-occurrence order as the pre-scan
        /// version, for every corner.
        #[test]
        fn dedupe_against_output_matches_prescan_2d(points in gridded2(0..40)) {
            for b in CornerMask::all::<2>() {
                prop_assert_eq!(
                    oriented_skyline(&points, b),
                    oriented_skyline_prescan(&points, b)
                );
            }
        }

        #[test]
        fn dedupe_against_output_matches_prescan_3d(points in gridded3(0..40)) {
            for b in CornerMask::all::<3>() {
                prop_assert_eq!(
                    oriented_skyline(&points, b),
                    oriented_skyline_prescan(&points, b)
                );
            }
        }
    }

    const B00: CornerMask = CornerMask::new(0b00);
    const B11: CornerMask = CornerMask::new(0b11);

    /// The five objects of the paper's running example (Figure 2),
    /// hand-placed to reproduce its qualitative geometry inside
    /// MBB ⟨(0,0), (100,100)⟩:
    ///   o1 top-left tall, o2 left-middle, o3 bottom-middle wide,
    ///   o4 bottom-right (lowest), o5 right of o4 and slightly higher.
    /// This placement reproduces the paper's stated facts: the skyline for
    /// corner 00 is {o1, o2, o3, o4} (o5 dominated by o3 and o4); o3^11 is
    /// not a clip point; the splice c = 00(o1^11, o4^11) = (18, 40) is the
    /// best clip point toward corner 11.
    pub(crate) fn figure2_objects() -> Vec<Rect<2>> {
        vec![
            Rect::new(Point([0.0, 55.0]), Point([18.0, 100.0])), // o1
            Rect::new(Point([8.0, 30.0]), Point([28.0, 38.0])),  // o2
            Rect::new(Point([25.0, 8.0]), Point([60.0, 22.0])),  // o3
            Rect::new(Point([62.0, 0.0]), Point([88.0, 40.0])),  // o4
            Rect::new(Point([80.0, 12.0]), Point([100.0, 35.0])), // o5
        ]
    }

    #[test]
    fn paper_figure2_skyline_for_corner_00() {
        // Paper: "Considering corner b = 00 … we obtain a skyline of
        // {o1^00, o2^00, o3^00, o4^00}. Point o5^00 is dominated by both
        // o3^00 and o4^00."
        let objects = figure2_objects();
        let sky = skyline_of_children(&objects, B00);
        let corners: Vec<Point<2>> = objects.iter().map(|o| o.corner(B00)).collect();
        assert!(sky.contains(&corners[0]), "o1^00 on skyline");
        assert!(sky.contains(&corners[1]), "o2^00 on skyline");
        assert!(sky.contains(&corners[2]), "o3^00 on skyline");
        assert!(sky.contains(&corners[3]), "o4^00 on skyline");
        assert!(!sky.contains(&corners[4]), "o5^00 dominated");
        assert_eq!(sky.len(), 4);
    }

    #[test]
    fn paper_figure2_o3_not_clip_point_for_corner_11() {
        // Paper: "⟨o3^11, R^11⟩ is not a clip point (it would clip away part
        // of o4 and o5)".
        let objects = figure2_objects();
        let sky = skyline_of_children(&objects, B11);
        let o3_corner = objects[2].corner(B11);
        assert!(!sky.contains(&o3_corner));
    }

    #[test]
    fn empty_and_singleton() {
        assert!(oriented_skyline::<2>(&[], B00).is_empty());
        let p = Point([1.0, 2.0]);
        assert_eq!(oriented_skyline(&[p], B00), vec![p]);
    }

    #[test]
    fn duplicates_collapse() {
        let p = Point([1.0, 2.0]);
        let q = Point([0.5, 3.0]);
        let sky = oriented_skyline(&[p, p, q, q], B00);
        assert_eq!(sky.len(), 2);
    }

    #[test]
    fn total_order_keeps_single_point() {
        // Points on a diagonal: toward corner 00 the closest one wins.
        let pts = [Point([3.0, 3.0]), Point([1.0, 1.0]), Point([2.0, 2.0])];
        let sky = oriented_skyline(&pts, B00);
        assert_eq!(sky, vec![Point([1.0, 1.0])]);
        // Toward corner 11 the farthest one wins.
        let sky11 = oriented_skyline(&pts, B11);
        assert_eq!(sky11, vec![Point([3.0, 3.0])]);
    }

    #[test]
    fn anti_chain_is_fully_kept() {
        // A descending diagonal is an anti-chain toward corners 00 and 11,
        // but toward 01/10 it is a chain with a single extreme point.
        let pts = [
            Point([1.0, 4.0]),
            Point([2.0, 3.0]),
            Point([3.0, 2.0]),
            Point([4.0, 1.0]),
        ];
        assert_eq!(oriented_skyline(&pts, B00).len(), 4);
        assert_eq!(oriented_skyline(&pts, B11).len(), 4);
        assert_eq!(
            oriented_skyline(&pts, CornerMask::new(0b01)),
            vec![Point([4.0, 1.0])]
        );
        assert_eq!(
            oriented_skyline(&pts, CornerMask::new(0b10)),
            vec![Point([1.0, 4.0])]
        );
    }

    #[test]
    fn skyline_members_are_mutually_non_dominating() {
        let pts: Vec<Point<2>> = (0..30)
            .map(|i| {
                let x = (i * 7 % 13) as f64;
                let y = (i * 11 % 17) as f64;
                Point([x, y])
            })
            .collect();
        for mask in CornerMask::all::<2>() {
            let sky = oriented_skyline(&pts, mask);
            for a in &sky {
                for b in &sky {
                    assert!(!dominates(a, b, mask), "{a:?} ≺ {b:?} wrt {mask:?}");
                }
            }
            // Every input point is dominated-or-equal by some skyline point.
            for p in &pts {
                assert!(
                    sky.iter().any(|s| s == p || dominates(s, p, mask)),
                    "{p:?} not covered"
                );
            }
        }
    }

    #[test]
    fn three_d_skyline() {
        let b = CornerMask::new(0b000);
        let pts = [
            Point([1.0, 1.0, 1.0]),
            Point([2.0, 2.0, 2.0]), // dominated by the first
            Point([0.0, 3.0, 3.0]), // incomparable
        ];
        let sky = oriented_skyline(&pts, b);
        assert_eq!(sky.len(), 2);
        assert!(sky.contains(&pts[0]));
        assert!(sky.contains(&pts[2]));
    }
}
