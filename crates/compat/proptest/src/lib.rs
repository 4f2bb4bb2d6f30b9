//! Offline stand-in for `proptest` covering the surface this workspace
//! uses: the `proptest!` / `prop_assert!` / `prop_assert_eq!` /
//! `prop_oneof!` macros, `Strategy` with `prop_map`, range and tuple
//! strategies, `Just`, `any::<bool>()`, `prop::collection::vec`, and
//! `ProptestConfig::with_cases`.
//!
//! Semantics: each test samples `cases` random inputs (deterministically
//! seeded per test name) and fails on the first counterexample, reporting
//! the case number. Unlike real proptest there is **no shrinking** — the
//! failing inputs are printed as drawn.

#![forbid(unsafe_code)]

pub mod test_runner {
    use std::fmt;

    /// Per-test configuration (only `cases` is honoured).
    #[derive(Clone, Copy, Debug)]
    pub struct ProptestConfig {
        /// Number of random cases each property runs.
        pub cases: u32,
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig { cases: 64 }
        }
    }

    impl ProptestConfig {
        /// Config running `cases` cases per property.
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    /// A failed property case.
    #[derive(Clone, Debug)]
    pub struct TestCaseError(String);

    impl TestCaseError {
        /// Build a failure with a rendered message.
        pub fn fail(message: String) -> Self {
            TestCaseError(message)
        }
    }

    impl fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str(&self.0)
        }
    }

    /// Deterministic per-test random source. Like the real crate, this
    /// stand-in draws its entropy from `rand` (the sibling stand-in)
    /// rather than duplicating a generator.
    #[derive(Clone, Debug)]
    pub struct TestRng {
        inner: rand::rngs::StdRng,
    }

    impl TestRng {
        /// Seeded from the test name so every property gets an
        /// independent, reproducible stream.
        pub fn default_for_test(name: &str) -> Self {
            use rand::SeedableRng;
            // FNV-1a over the name, mixed into a fixed session seed.
            let mut h: u64 = 0xCBF2_9CE4_8422_2325;
            for b in name.bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
            TestRng {
                inner: rand::rngs::StdRng::seed_from_u64(h ^ 0x5EED_CBB0_0000_0001),
            }
        }

        /// Next 64 random bits.
        pub fn next_u64(&mut self) -> u64 {
            rand::RngCore::next_u64(&mut self.inner)
        }

        /// Uniform draw in `[0, 1)`.
        pub fn next_f64(&mut self) -> f64 {
            rand::Rng::gen_range(&mut self.inner, 0.0..1.0)
        }

        /// Unbiased uniform draw in `[0, bound)`.
        pub fn below(&mut self, bound: u64) -> u64 {
            rand::Rng::gen_range(&mut self.inner, 0..bound)
        }
    }
}

pub mod strategy {
    use crate::test_runner::TestRng;
    use std::ops::{Range, RangeInclusive};

    /// A recipe for generating random values of one type.
    pub trait Strategy {
        /// The generated type.
        type Value;

        /// Draw one value.
        fn sample(&self, rng: &mut TestRng) -> Self::Value;

        /// Transform generated values with `f`.
        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> O,
        {
            Map { inner: self, f }
        }
    }

    /// Always yields a clone of one value.
    #[derive(Clone, Copy, Debug)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn sample(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// The result of [`Strategy::prop_map`].
    #[derive(Clone, Copy, Debug)]
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
        type Value = O;
        fn sample(&self, rng: &mut TestRng) -> O {
            (self.f)(self.inner.sample(rng))
        }
    }

    impl Strategy for Range<f64> {
        type Value = f64;
        fn sample(&self, rng: &mut TestRng) -> f64 {
            assert!(self.start < self.end, "empty f64 range strategy");
            let v = self.start + rng.next_f64() * (self.end - self.start);
            if v >= self.end {
                self.start
            } else {
                v
            }
        }
    }

    impl Strategy for RangeInclusive<f64> {
        type Value = f64;
        fn sample(&self, rng: &mut TestRng) -> f64 {
            let (lo, hi) = (*self.start(), *self.end());
            assert!(lo <= hi, "empty inclusive f64 range strategy");
            lo + rng.next_f64() * (hi - lo)
        }
    }

    macro_rules! int_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty integer range strategy");
                    let span = (self.end as i128 - self.start as i128) as u64;
                    (self.start as i128 + rng.below(span) as i128) as $t
                }
            }
            impl Strategy for RangeInclusive<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut TestRng) -> $t {
                    let (lo, hi) = (*self.start(), *self.end());
                    assert!(lo <= hi, "empty inclusive integer range strategy");
                    let span = (hi as i128 - lo as i128) as u64;
                    if span == u64::MAX {
                        return rng.next_u64() as $t;
                    }
                    (lo as i128 + rng.below(span + 1) as i128) as $t
                }
            }
        )*};
    }

    int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    macro_rules! tuple_strategy {
        ($($S:ident . $idx:tt),+) => {
            impl<$($S: Strategy),+> Strategy for ($($S,)+) {
                type Value = ($($S::Value,)+);
                fn sample(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$idx.sample(rng),)+)
                }
            }
        };
    }

    tuple_strategy!(A.0);
    tuple_strategy!(A.0, B.1);
    tuple_strategy!(A.0, B.1, C.2);
    tuple_strategy!(A.0, B.1, C.2, D.3);
    tuple_strategy!(A.0, B.1, C.2, D.3, E.4);
    tuple_strategy!(A.0, B.1, C.2, D.3, E.4, F.5);

    /// A type-erased strategy (the arms of `prop_oneof!`).
    pub struct BoxedStrategy<T>(Box<dyn Fn(&mut TestRng) -> T>);

    impl<T> Strategy for BoxedStrategy<T> {
        type Value = T;
        fn sample(&self, rng: &mut TestRng) -> T {
            (self.0)(rng)
        }
    }

    /// Erase a strategy's type (used by `prop_oneof!`).
    pub fn boxed<S: Strategy + 'static>(s: S) -> BoxedStrategy<S::Value> {
        BoxedStrategy(Box::new(move |rng| s.sample(rng)))
    }

    /// Uniform choice among erased strategies.
    pub struct OneOf<T>(Vec<BoxedStrategy<T>>);

    impl<T> OneOf<T> {
        /// Build from a non-empty arm list.
        pub fn new(arms: Vec<BoxedStrategy<T>>) -> Self {
            assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
            OneOf(arms)
        }
    }

    impl<T> Strategy for OneOf<T> {
        type Value = T;
        fn sample(&self, rng: &mut TestRng) -> T {
            let arm = rng.below(self.0.len() as u64) as usize;
            self.0[arm].sample(rng)
        }
    }
}

pub mod arbitrary {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Types with a canonical strategy.
    pub trait Arbitrary: Sized {
        /// The canonical strategy type.
        type Strategy: Strategy<Value = Self>;
        /// Its canonical strategy.
        fn arbitrary() -> Self::Strategy;
    }

    /// The canonical strategy of `A` (e.g. `any::<bool>()`).
    pub fn any<A: Arbitrary>() -> A::Strategy {
        A::arbitrary()
    }

    /// Fair coin flips.
    #[derive(Clone, Copy, Debug)]
    pub struct BoolStrategy;

    impl Strategy for BoolStrategy {
        type Value = bool;
        fn sample(&self, rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    impl Arbitrary for bool {
        type Strategy = BoolStrategy;
        fn arbitrary() -> BoolStrategy {
            BoolStrategy
        }
    }
}

pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::ops::{Range, RangeInclusive};

    /// Admissible lengths for a generated collection. Mirroring the real
    /// crate, `vec` takes `impl Into<SizeRange>` rather than a generic
    /// strategy so that bare literal ranges (`1..6`) infer as `usize`.
    #[derive(Clone, Copy, Debug)]
    pub struct SizeRange {
        lo: usize,
        /// Inclusive upper bound.
        hi: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty collection size range");
            SizeRange {
                lo: r.start,
                hi: r.end - 1,
            }
        }
    }

    impl From<RangeInclusive<usize>> for SizeRange {
        fn from(r: RangeInclusive<usize>) -> Self {
            assert!(r.start() <= r.end(), "empty collection size range");
            SizeRange {
                lo: *r.start(),
                hi: *r.end(),
            }
        }
    }

    /// Vectors of `element` values with a sampled length.
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// `prop::collection::vec(element, size)`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.hi - self.size.lo) as u64;
            let n = self.size.lo
                + if span == 0 {
                    0
                } else {
                    rng.below(span + 1) as usize
                };
            (0..n).map(|_| self.element.sample(rng)).collect()
        }
    }
}

/// Run each property `cases` times over freshly sampled inputs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_tests!($cfg; $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::__proptest_tests!(
            $crate::test_runner::ProptestConfig::default(); $($rest)*
        );
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_tests {
    ($cfg:expr; $(
        $(#[$meta:meta])*
        fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let __config: $crate::test_runner::ProptestConfig = $cfg;
            let mut __rng =
                $crate::test_runner::TestRng::default_for_test(stringify!($name));
            for __case in 0..__config.cases {
                $(
                    let $arg =
                        $crate::strategy::Strategy::sample(&($strat), &mut __rng);
                )+
                let __result: ::std::result::Result<
                    (),
                    $crate::test_runner::TestCaseError,
                > = (|| {
                    $body
                    ::std::result::Result::Ok(())
                })();
                if let ::std::result::Result::Err(e) = __result {
                    panic!(
                        "proptest '{}' failed at case {}/{}: {}",
                        stringify!($name),
                        __case + 1,
                        __config.cases,
                        e
                    );
                }
            }
        }
    )*};
}

/// Fail the current case unless `cond` holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::std::result::Result::Err(
                $crate::test_runner::TestCaseError::fail(format!($($fmt)+)),
            );
        }
    };
}

/// Fail the current case unless the operands compare equal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (__l, __r) = (&$left, &$right);
        $crate::prop_assert!(
            *__l == *__r,
            "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}",
            stringify!($left),
            stringify!($right),
            __l,
            __r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (__l, __r) = (&$left, &$right);
        $crate::prop_assert!(
            *__l == *__r,
            "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}\n  {}",
            stringify!($left),
            stringify!($right),
            __l,
            __r,
            format!($($fmt)+)
        );
    }};
}

/// Uniform choice among strategies producing the same type.
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::strategy::OneOf::new(vec![$($crate::strategy::boxed($arm)),+])
    };
}

pub mod prelude {
    pub use crate::arbitrary::any;
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::{ProptestConfig, TestCaseError};
    pub use crate::{prop_assert, prop_assert_eq, prop_oneof, proptest};

    /// The `prop::` namespace of the real crate's prelude.
    pub mod prop {
        pub use crate::collection;
    }
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #[test]
        fn ranges_and_maps(x in 0.0f64..10.0, n in 1usize..5, b in any::<bool>()) {
            prop_assert!((0.0..10.0).contains(&x));
            prop_assert!((1..5).contains(&n));
            let _coin: bool = b;
        }

        #[test]
        fn vec_lengths(v in prop::collection::vec(0u8..4, 2..7)) {
            prop_assert!(v.len() >= 2 && v.len() < 7);
            for e in &v {
                prop_assert!(*e < 4, "element {} out of range", e);
            }
        }

        #[test]
        fn oneof_and_just(c in prop_oneof![Just(1u8), Just(2u8)]) {
            prop_assert!(c == 1 || c == 2);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(3))]
        #[test]
        fn config_is_honoured(tup in ((0i32..5), (0i32..5)).prop_map(|(a, b)| a + b)) {
            prop_assert!((0..9).contains(&tup));
        }
    }

    #[test]
    fn prop_assert_reports_counterexample() {
        // Exercise the failure path without registering a failing #[test]:
        // run the assertion macros inside a closure the way the generated
        // harness does.
        let result: Result<(), TestCaseError> = (|| {
            let x = 3u8;
            prop_assert!(x > 200, "x was {}", x);
            Ok(())
        })();
        let message = format!("{}", result.unwrap_err());
        assert!(message.contains("x was 3"), "got: {message}");

        let result: Result<(), TestCaseError> = (|| {
            prop_assert_eq!(vec![1, 2], vec![1, 3]);
            Ok(())
        })();
        let message = format!("{}", result.unwrap_err());
        assert!(message.contains("left"), "got: {message}");
    }
}
