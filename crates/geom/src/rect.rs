//! Axis-aligned hyper-rectangles (`MBB`s in the paper's terminology).

use std::fmt;

use crate::{Coord, CornerMask, Point};

/// A hyper-rectangle `R = ⟨l, u⟩` with `l ≤ u` component-wise.
///
/// `Rect` doubles as the *minimum bounding box* of a set of objects: the
/// smallest rectilinear box containing them (paper §III-A). Degenerate
/// rectangles (zero extent in some or all dimensions, e.g. points) are valid.
#[derive(Clone, Copy, PartialEq)]
pub struct Rect<const D: usize> {
    /// Minimum corner `l`.
    pub lo: Point<D>,
    /// Maximum corner `u`.
    pub hi: Point<D>,
}

impl<const D: usize> Rect<D> {
    /// Build from two corners; debug-asserts `lo ≤ hi`.
    pub fn new(lo: Point<D>, hi: Point<D>) -> Self {
        debug_assert!(
            (0..D).all(|i| lo[i] <= hi[i]),
            "Rect requires lo <= hi: {lo:?} vs {hi:?}"
        );
        Rect { lo, hi }
    }

    /// Build from two arbitrary corner points (order normalised).
    pub fn from_corners(a: Point<D>, b: Point<D>) -> Self {
        Rect {
            lo: a.min(&b),
            hi: a.max(&b),
        }
    }

    /// A degenerate rectangle covering a single point.
    pub fn point(p: Point<D>) -> Self {
        Rect { lo: p, hi: p }
    }

    /// The MBB of a non-empty slice of rectangles; `None` on empty input.
    pub fn mbb_of(rects: &[Rect<D>]) -> Option<Self> {
        let mut it = rects.iter();
        let first = *it.next()?;
        Some(it.fold(first, |acc, r| acc.union(r)))
    }

    /// The corner selected by `mask`: `R^b[i] = u[i]` if `b[i]` else `l[i]`.
    pub fn corner(&self, mask: CornerMask) -> Point<D> {
        Point(std::array::from_fn(|i| {
            if mask.bit(i) {
                self.hi[i]
            } else {
                self.lo[i]
            }
        }))
    }

    /// Extent (side length) along dimension `i`.
    pub fn extent(&self, i: usize) -> Coord {
        self.hi[i] - self.lo[i]
    }

    /// Volume (area in 2-d). Degenerate rectangles have volume 0.
    pub fn volume(&self) -> Coord {
        let mut v = 1.0;
        for i in 0..D {
            v *= self.extent(i);
        }
        v
    }

    /// Margin: the sum of extents over all dimensions (the R*-tree's
    /// split-axis criterion; half the perimeter in 2-d).
    pub fn margin(&self) -> Coord {
        (0..D).map(|i| self.extent(i)).sum()
    }

    /// Center point.
    pub fn center(&self) -> Point<D> {
        self.lo.midpoint(&self.hi)
    }

    /// Closed-interval intersection test (shared boundaries intersect).
    pub fn intersects(&self, other: &Rect<D>) -> bool {
        for i in 0..D {
            if self.lo[i] > other.hi[i] || other.lo[i] > self.hi[i] {
                return false;
            }
        }
        true
    }

    /// The intersection rectangle, or `None` when disjoint.
    pub fn intersection(&self, other: &Rect<D>) -> Option<Rect<D>> {
        let mut lo = [0.0; D];
        let mut hi = [0.0; D];
        for i in 0..D {
            lo[i] = self.lo[i].max(other.lo[i]);
            hi[i] = self.hi[i].min(other.hi[i]);
            if lo[i] > hi[i] {
                return None;
            }
        }
        Some(Rect {
            lo: Point(lo),
            hi: Point(hi),
        })
    }

    /// Volume of the overlap with `other` (0 when disjoint or touching).
    pub fn overlap_volume(&self, other: &Rect<D>) -> Coord {
        let mut v = 1.0;
        for i in 0..D {
            let lo = self.lo[i].max(other.lo[i]);
            let hi = self.hi[i].min(other.hi[i]);
            if lo >= hi {
                return 0.0;
            }
            v *= hi - lo;
        }
        v
    }

    /// The smallest rectangle covering both `self` and `other`.
    pub fn union(&self, other: &Rect<D>) -> Rect<D> {
        Rect {
            lo: self.lo.min(&other.lo),
            hi: self.hi.max(&other.hi),
        }
    }

    /// Volume increase needed to include `other`
    /// (`vol(self ∪ other) − vol(self)`, the Guttman insertion criterion).
    pub fn enlargement(&self, other: &Rect<D>) -> Coord {
        self.union(other).volume() - self.volume()
    }

    /// Margin increase needed to include `other` (RR*-tree criterion).
    pub fn margin_enlargement(&self, other: &Rect<D>) -> Coord {
        self.union(other).margin() - self.margin()
    }

    /// Whether `p` lies inside (closed) this rectangle.
    pub fn contains_point(&self, p: &Point<D>) -> bool {
        for i in 0..D {
            if p[i] < self.lo[i] || p[i] > self.hi[i] {
                return false;
            }
        }
        true
    }

    /// Whether `other` lies entirely inside (closed) this rectangle.
    pub fn contains_rect(&self, other: &Rect<D>) -> bool {
        for i in 0..D {
            if other.lo[i] < self.lo[i] || other.hi[i] > self.hi[i] {
                return false;
            }
        }
        true
    }

    /// Squared minimum Euclidean distance from `p` to this rectangle
    /// (`0` when `p` lies inside) — the MINDIST bound of the kNN
    /// literature: no point of the rectangle is closer to `p` than this.
    pub fn min_dist_sq(&self, p: &Point<D>) -> Coord {
        let mut acc = 0.0;
        for i in 0..D {
            let d = if p[i] < self.lo[i] {
                self.lo[i] - p[i]
            } else if p[i] > self.hi[i] {
                p[i] - self.hi[i]
            } else {
                0.0
            };
            acc += d * d;
        }
        acc
    }

    /// True when all coordinates are finite.
    pub fn is_finite(&self) -> bool {
        self.lo.is_finite() && self.hi.is_finite()
    }

    /// True when the rectangle can be indexed: every coordinate finite
    /// and `lo ≤ hi` on every axis. A non-finite or inverted rectangle
    /// has no meaningful MBB (its center may be NaN, its extent
    /// negative), so indexes refuse it instead of placing it somewhere.
    pub fn is_valid(&self) -> bool {
        self.is_finite() && (0..D).all(|i| self.lo[i] <= self.hi[i])
    }
}

impl<const D: usize> fmt::Debug for Rect<D> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "⟨{:?}, {:?}⟩", self.lo, self.hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r2(lx: f64, ly: f64, hx: f64, hy: f64) -> Rect<2> {
        Rect::new(Point([lx, ly]), Point([hx, hy]))
    }

    #[test]
    fn validity_needs_finite_ordered_corners() {
        assert!(r2(1.0, 2.0, 3.0, 4.0).is_valid());
        assert!(
            Rect::point(Point([5.0, 5.0])).is_valid(),
            "degenerate is valid"
        );
        let raw = |lo: [f64; 2], hi: [f64; 2]| Rect {
            lo: Point(lo),
            hi: Point(hi),
        };
        assert!(!raw([f64::NAN, 0.0], [1.0, 1.0]).is_valid());
        assert!(!raw([f64::NEG_INFINITY, 0.0], [f64::INFINITY, 1.0]).is_valid());
        assert!(!raw([2.0, 0.0], [1.0, 1.0]).is_valid(), "inverted");
    }

    #[test]
    fn corners_follow_masks() {
        let r = r2(1.0, 2.0, 3.0, 4.0);
        assert_eq!(r.corner(CornerMask::new(0b00)), Point([1.0, 2.0]));
        assert_eq!(r.corner(CornerMask::new(0b01)), Point([3.0, 2.0]));
        assert_eq!(r.corner(CornerMask::new(0b10)), Point([1.0, 4.0]));
        assert_eq!(r.corner(CornerMask::new(0b11)), Point([3.0, 4.0]));
    }

    #[test]
    fn from_corners_normalises() {
        let r = Rect::from_corners(Point([3.0, 1.0]), Point([0.0, 5.0]));
        assert_eq!(r.lo, Point([0.0, 1.0]));
        assert_eq!(r.hi, Point([3.0, 5.0]));
    }

    #[test]
    fn volume_margin_center() {
        let r = r2(0.0, 0.0, 2.0, 3.0);
        assert_eq!(r.volume(), 6.0);
        assert_eq!(r.margin(), 5.0);
        assert_eq!(r.center(), Point([1.0, 1.5]));
        // Degenerate point rect.
        let p = Rect::point(Point([1.0, 1.0]));
        assert_eq!(p.volume(), 0.0);
        assert_eq!(p.margin(), 0.0);
    }

    #[test]
    fn intersection_cases() {
        let a = r2(0.0, 0.0, 2.0, 2.0);
        let b = r2(1.0, 1.0, 3.0, 3.0);
        let c = r2(5.0, 5.0, 6.0, 6.0);
        assert!(a.intersects(&b));
        assert_eq!(a.intersection(&b), Some(r2(1.0, 1.0, 2.0, 2.0)));
        assert!(!a.intersects(&c));
        assert_eq!(a.intersection(&c), None);
        // Shared boundary counts as intersecting but zero overlap volume.
        let d = r2(2.0, 0.0, 4.0, 2.0);
        assert!(a.intersects(&d));
        assert_eq!(a.overlap_volume(&d), 0.0);
        assert_eq!(a.overlap_volume(&b), 1.0);
    }

    #[test]
    fn union_and_enlargement() {
        let a = r2(0.0, 0.0, 1.0, 1.0);
        let b = r2(2.0, 2.0, 3.0, 3.0);
        let u = a.union(&b);
        assert_eq!(u, r2(0.0, 0.0, 3.0, 3.0));
        assert_eq!(a.enlargement(&b), 9.0 - 1.0);
        assert_eq!(a.margin_enlargement(&b), 6.0 - 2.0);
        // Enlargement of a contained rect is 0.
        let inner = r2(0.2, 0.2, 0.8, 0.8);
        assert_eq!(a.enlargement(&inner), 0.0);
    }

    #[test]
    fn containment() {
        let a = r2(0.0, 0.0, 4.0, 4.0);
        assert!(a.contains_point(&Point([0.0, 4.0])));
        assert!(!a.contains_point(&Point([-0.1, 2.0])));
        assert!(a.contains_rect(&r2(1.0, 1.0, 2.0, 2.0)));
        assert!(a.contains_rect(&a));
        assert!(!a.contains_rect(&r2(1.0, 1.0, 5.0, 2.0)));
    }

    #[test]
    fn mbb_of_slice() {
        assert_eq!(Rect::<2>::mbb_of(&[]), None);
        let rects = [r2(0.0, 0.0, 1.0, 1.0), r2(3.0, -1.0, 4.0, 0.5)];
        assert_eq!(Rect::mbb_of(&rects), Some(r2(0.0, -1.0, 4.0, 1.0)));
    }

    #[test]
    fn three_d_volume() {
        let r: Rect<3> = Rect::new(Point([0.0; 3]), Point([2.0, 3.0, 4.0]));
        assert_eq!(r.volume(), 24.0);
        assert_eq!(r.margin(), 9.0);
        assert_eq!(r.corner(CornerMask::new(0b101)), Point([2.0, 0.0, 4.0]));
    }

    #[test]
    fn min_dist_sq_cases() {
        let r = r2(1.0, 1.0, 3.0, 3.0);
        // Inside and on the border: zero.
        assert_eq!(r.min_dist_sq(&Point([2.0, 2.0])), 0.0);
        assert_eq!(r.min_dist_sq(&Point([1.0, 3.0])), 0.0);
        // Face-adjacent: one axis contributes.
        assert_eq!(r.min_dist_sq(&Point([0.0, 2.0])), 1.0);
        assert_eq!(r.min_dist_sq(&Point([2.0, 5.0])), 4.0);
        // Corner-adjacent: both axes contribute.
        assert_eq!(r.min_dist_sq(&Point([0.0, 0.0])), 2.0);
        assert_eq!(r.min_dist_sq(&Point([5.0, 6.0])), 13.0);
        // Degenerate (point) rectangle: plain squared distance.
        let p = Rect::point(Point([1.0, 2.0]));
        assert_eq!(p.min_dist_sq(&Point([4.0, 6.0])), 25.0);
    }
}
