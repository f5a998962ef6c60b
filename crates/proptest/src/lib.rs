//! Vendored stand-in for the `proptest` crate.
//!
//! The build environment has no crates.io access, so this crate implements
//! the subset of proptest's API the workspace's property tests use: the
//! [`proptest!`]/[`prop_oneof!`]/[`prop_assert!`]/[`prop_assert_eq!`]
//! macros, range/tuple/collection/[`any`](arbitrary::any) strategies with
//! `prop_map`, and [`ProptestConfig::with_cases`]. Case generation is fully
//! deterministic: each test's RNG is seeded from the test's module path and
//! the case index, so failures reproduce exactly across runs. Shrinking is
//! not implemented — failing cases report the case index instead.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

/// Per-test configuration (subset: the number of generated cases).
#[derive(Clone, Debug)]
pub struct ProptestConfig {
    /// Number of random cases each test runs.
    pub cases: u32,
}

impl ProptestConfig {
    /// A configuration running `cases` cases per test.
    pub fn with_cases(cases: u32) -> ProptestConfig {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> ProptestConfig {
        ProptestConfig { cases: 64 }
    }
}

/// Test-runner plumbing used by the [`proptest!`] macro expansion.
pub mod test_runner {
    use rand::rngs::SmallRng;
    use rand::{RngCore, SeedableRng};

    /// Deterministic per-case RNG handed to strategies.
    #[derive(Clone, Debug)]
    pub struct TestRng(SmallRng);

    impl TestRng {
        /// RNG for case `case` of the test identified by `name`
        /// (conventionally its module path).
        pub fn for_case(name: &str, case: u32) -> TestRng {
            let mut h = 0xcbf2_9ce4_8422_2325u64; // FNV-1a
            for b in name.bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x1000_0000_01b3);
            }
            TestRng(SmallRng::seed_from_u64(h ^ ((case as u64) << 32 | case as u64)))
        }

        /// Draws 64 random bits.
        pub fn next_u64(&mut self) -> u64 {
            self.0.next_u64()
        }

        /// Draws a uniform value in `[0, n)`.
        pub fn below(&mut self, n: u64) -> u64 {
            assert!(n > 0);
            ((self.next_u64() as u128 * n as u128) >> 64) as u64
        }
    }

    /// A failed property assertion (carried out of the test body).
    #[derive(Clone, Debug)]
    pub struct TestCaseError(pub String);

    impl TestCaseError {
        /// Creates a failure with the given message.
        pub fn fail(msg: impl Into<String>) -> TestCaseError {
            TestCaseError(msg.into())
        }
    }

    impl std::fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            write!(f, "{}", self.0)
        }
    }
}

/// Value-generation strategies.
pub mod strategy {
    use crate::test_runner::TestRng;
    use std::ops::{Range, RangeInclusive};

    /// A recipe for generating values of one type.
    pub trait Strategy {
        /// The generated type.
        type Value;

        /// Generates one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<U, F: Fn(Self::Value) -> U>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
        {
            Map { inner: self, f }
        }
    }

    /// Strategy returned by [`Strategy::prop_map`].
    #[derive(Clone, Debug)]
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
        type Value = U;
        fn generate(&self, rng: &mut TestRng) -> U {
            (self.f)(self.inner.generate(rng))
        }
    }

    /// Always generates a clone of one value.
    #[derive(Clone, Debug)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    macro_rules! impl_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty strategy range");
                    self.start + rng.below((self.end - self.start) as u64) as $t
                }
            }
            impl Strategy for RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    let (lo, hi) = (*self.start(), *self.end());
                    assert!(lo <= hi, "empty strategy range");
                    lo + rng.below((hi - lo) as u64 + 1) as $t
                }
            }
        )*};
    }

    impl_range_strategy!(u8, u16, u32, u64, usize);

    impl Strategy for Range<f64> {
        type Value = f64;
        fn generate(&self, rng: &mut TestRng) -> f64 {
            assert!(self.start < self.end, "empty strategy range");
            let unit = (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
            self.start + (self.end - self.start) * unit
        }
    }

    macro_rules! impl_tuple_strategy {
        ($(($($s:ident),+))*) => {$(
            #[allow(non_snake_case)]
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    let ($($s,)+) = self;
                    ($($s.generate(rng),)+)
                }
            }
        )*};
    }

    impl_tuple_strategy!((A, B)(A, B, C)(A, B, C, D));

    /// Uniform choice among boxed alternative strategies
    /// (the [`prop_oneof!`](crate::prop_oneof) macro).
    pub struct Union<V> {
        options: Vec<Box<dyn Strategy<Value = V>>>,
    }

    impl<V> Union<V> {
        /// Builds a union over `options` (must be non-empty).
        pub fn new(options: Vec<Box<dyn Strategy<Value = V>>>) -> Union<V> {
            assert!(!options.is_empty(), "prop_oneof! needs at least one alternative");
            Union { options }
        }
    }

    impl<V> Strategy for Union<V> {
        type Value = V;
        fn generate(&self, rng: &mut TestRng) -> V {
            let i = rng.below(self.options.len() as u64) as usize;
            self.options[i].generate(rng)
        }
    }

    /// Boxes a strategy for use in a [`Union`].
    pub fn boxed<S: Strategy + 'static>(s: S) -> Box<dyn Strategy<Value = S::Value>> {
        Box::new(s)
    }
}

/// `any::<T>()` — whole-domain strategies per type.
pub mod arbitrary {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Types with a canonical whole-domain strategy.
    pub trait Arbitrary: Sized {
        /// Generates one arbitrary value.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    macro_rules! impl_arbitrary_uint {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> $t {
                    rng.next_u64() as $t
                }
            }
        )*};
    }

    impl_arbitrary_uint!(u8, u16, u32, u64, usize);

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    impl Arbitrary for f64 {
        fn arbitrary(rng: &mut TestRng) -> f64 {
            // Finite values only: arbitrary bit patterns would mostly be
            // astronomically large or NaN, which no test here wants.
            (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        }
    }

    /// Strategy generating arbitrary values of `T`.
    #[derive(Clone, Copy, Debug, Default)]
    pub struct Any<T>(std::marker::PhantomData<T>);

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }

    /// The canonical strategy for `T` (`any::<u64>()` etc.).
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(std::marker::PhantomData)
    }
}

/// Collection strategies (`prop::collection::vec`).
pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::ops::Range;

    /// Strategy for variable-length vectors.
    pub struct VecStrategy<S> {
        element: S,
        size: Range<usize>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            assert!(self.size.start < self.size.end, "empty vec size range");
            let span = (self.size.end - self.size.start) as u64;
            let len = self.size.start + rng.below(span) as usize;
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// Vectors of `element` values with length drawn from `size`.
    pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, size }
    }
}

/// Everything tests conventionally glob-import.
pub mod prelude {
    pub use crate::arbitrary::any;
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::TestCaseError;
    pub use crate::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};

    /// Module-style access (`prop::collection::vec`).
    pub mod prop {
        pub use crate::collection;
        pub use crate::strategy;
    }
}

/// Defines property tests. Supports an optional leading
/// `#![proptest_config(...)]` and any number of `#[test] fn name(pat in
/// strategy, ...) { body }` items.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl!{ ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl!{ ($crate::ProptestConfig::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    ( ($cfg:expr)
      $( $(#[$meta:meta])* fn $name:ident( $($arg:pat in $strat:expr),* $(,)? ) $body:block )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let __cfg: $crate::ProptestConfig = $cfg;
                for __case in 0..__cfg.cases {
                    let mut __rng = $crate::test_runner::TestRng::for_case(
                        concat!(module_path!(), "::", stringify!($name)),
                        __case,
                    );
                    $( let $arg = $crate::strategy::Strategy::generate(&($strat), &mut __rng); )*
                    let __body = || -> ::std::result::Result<(), $crate::test_runner::TestCaseError> {
                        $body
                        ::std::result::Result::Ok(())
                    };
                    let __result = __body();
                    if let ::std::result::Result::Err(__e) = __result {
                        panic!(
                            "proptest '{}' failed at case {}: {}",
                            stringify!($name),
                            __case,
                            __e
                        );
                    }
                }
            }
        )*
    };
}

/// Uniform choice among several strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![$($crate::strategy::boxed($strat)),+])
    };
}

/// Property assertion: fails the current case (with location info) when the
/// condition is false.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!("{} at {}:{}", format!($($fmt)*), file!(), line!()),
            ));
        }
    };
}

/// Property assertion of equality (operands shown on failure).
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(*l == *r, "assertion failed: {:?} == {:?}", l, r);
    }};
}

/// Property assertion of inequality.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(*l != *r, "assertion failed: {:?} != {:?}", l, r);
    }};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn rng_is_deterministic_per_case() {
        let mut a = crate::test_runner::TestRng::for_case("x", 3);
        let mut b = crate::test_runner::TestRng::for_case("x", 3);
        assert_eq!(a.next_u64(), b.next_u64());
        let mut c = crate::test_runner::TestRng::for_case("x", 4);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_in_bounds(v in 10u64..20, w in 0u16..512, f in -1.0..1.0) {
            prop_assert!((10..20).contains(&v));
            prop_assert!(w < 512);
            prop_assert!((-1.0..1.0).contains(&f));
        }

        #[test]
        fn vec_lengths_respect_range(xs in prop::collection::vec(0u32..100, 1..40)) {
            prop_assert!(!xs.is_empty() && xs.len() < 40);
            prop_assert!(xs.iter().all(|&x| x < 100));
        }

        #[test]
        fn oneof_and_map_compose(
            ops in prop::collection::vec(
                prop_oneof![
                    (0u64..8, any::<u64>()).prop_map(|(k, v)| (k, v, true)),
                    (0u64..8).prop_map(|k| (k, 0, false)),
                ],
                1..30,
            )
        ) {
            for (k, _, _) in &ops {
                prop_assert!(*k < 8);
            }
        }

        #[test]
        fn bools_take_both_values_eventually(b in any::<bool>()) {
            // Not a distribution test; just exercises the strategy.
            let _ = b;
        }
    }
}
