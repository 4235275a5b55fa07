//! Offline stand-in for the [`proptest`](https://crates.io/crates/proptest)
//! crate: the strategy combinators and macros this workspace's property
//! tests use, with deterministic ChaCha-seeded sampling.
//!
//! Differences from real proptest, deliberately accepted for a vendored
//! test-only shim:
//!
//! * **no shrinking** — a failing case reports its seed and case number
//!   instead of a minimised input;
//! * **fixed case count** (`PROPTEST_CASES` env var, default 64);
//! * strategies sample directly (no intermediate `ValueTree`).

#![forbid(unsafe_code)]

pub mod strategy {
    //! The [`Strategy`] trait and adapters.

    use crate::test_runner::TestRng;

    /// A recipe for generating values of `Self::Value`.
    pub trait Strategy {
        /// The generated type.
        type Value;

        /// Draws one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<T, F: Fn(Self::Value) -> T>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
        {
            Map { inner: self, f }
        }
    }

    /// Strategy returning a clone of a fixed value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;

        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// The [`Strategy::prop_map`] adapter.
    #[derive(Debug, Clone)]
    pub struct Map<S, F> {
        pub(crate) inner: S,
        pub(crate) f: F,
    }

    impl<S: Strategy, T, F: Fn(S::Value) -> T> Strategy for Map<S, F> {
        type Value = T;

        fn generate(&self, rng: &mut TestRng) -> T {
            (self.f)(self.inner.generate(rng))
        }
    }

    macro_rules! impl_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for ::std::ops::Range<$t> {
                type Value = $t;

                fn generate(&self, rng: &mut TestRng) -> $t {
                    use rand::Rng;
                    rng.gen_range(self.clone())
                }
            }

            impl Strategy for ::std::ops::RangeInclusive<$t> {
                type Value = $t;

                fn generate(&self, rng: &mut TestRng) -> $t {
                    use rand::Rng;
                    rng.gen_range(self.clone())
                }
            }
        )*};
    }

    impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    macro_rules! impl_tuple_strategy {
        ($(($($name:ident . $idx:tt),+);)*) => {$(
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);

                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$idx.generate(rng),)+)
                }
            }
        )*};
    }

    impl_tuple_strategy! {
        (A.0);
        (A.0, B.1);
        (A.0, B.1, C.2);
        (A.0, B.1, C.2, D.3);
        (A.0, B.1, C.2, D.3, E.4);
        (A.0, B.1, C.2, D.3, E.4, F.5);
    }

    impl<S: Strategy + ?Sized> Strategy for &S {
        type Value = S::Value;

        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            (**self).generate(rng)
        }
    }
}

pub mod arbitrary {
    //! `any::<T>()` support.

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use rand::Rng;
    use std::marker::PhantomData;

    /// Types with a canonical full-range strategy.
    pub trait Arbitrary: Sized {
        /// Draws one arbitrary value.
        fn arbitrary_value(rng: &mut TestRng) -> Self;
    }

    macro_rules! impl_arbitrary_int {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary_value(rng: &mut TestRng) -> Self {
                    rng.gen()
                }
            }
        )*};
    }

    impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, bool);

    /// The strategy returned by [`any`].
    #[derive(Debug, Clone, Copy)]
    pub struct Any<T>(PhantomData<T>);

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;

        fn generate(&self, rng: &mut TestRng) -> T {
            T::arbitrary_value(rng)
        }
    }

    /// The full-range strategy for `T`.
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(PhantomData)
    }
}

pub mod collection {
    //! Collection strategies (`prop::collection::vec`).

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use rand::Rng;
    use std::ops::{Range, RangeInclusive};

    /// Sizes accepted by [`vec()`].
    pub trait SizeRange {
        /// Draws a concrete length.
        fn pick(&self, rng: &mut TestRng) -> usize;
    }

    impl SizeRange for usize {
        fn pick(&self, _rng: &mut TestRng) -> usize {
            *self
        }
    }

    impl SizeRange for Range<usize> {
        fn pick(&self, rng: &mut TestRng) -> usize {
            rng.gen_range(self.clone())
        }
    }

    impl SizeRange for RangeInclusive<usize> {
        fn pick(&self, rng: &mut TestRng) -> usize {
            rng.gen_range(self.clone())
        }
    }

    /// The strategy returned by [`vec()`].
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S, R> {
        element: S,
        size: R,
    }

    impl<S: Strategy, R: SizeRange> Strategy for VecStrategy<S, R> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = self.size.pick(rng);
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// A strategy for vectors whose elements come from `element` and whose
    /// length comes from `size`.
    pub fn vec<S: Strategy, R: SizeRange>(element: S, size: R) -> VecStrategy<S, R> {
        VecStrategy { element, size }
    }
}

pub mod option {
    //! Option strategies (`prop::option::of`).

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use rand::Rng;

    /// The strategy returned by [`of`].
    #[derive(Debug, Clone)]
    pub struct OptionStrategy<S> {
        inner: S,
    }

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Option<S::Value> {
            // Match real proptest's default: None about a quarter of the
            // time.
            if rng.gen_range(0u32..4) == 0 {
                None
            } else {
                Some(self.inner.generate(rng))
            }
        }
    }

    /// `Some` values from `inner` (75%) or `None` (25%).
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy { inner }
    }
}

pub mod test_runner {
    //! Deterministic case execution for [`crate::proptest!`].

    use rand::SeedableRng;

    /// The RNG handed to strategies.
    pub type TestRng = rand_chacha::ChaCha8Rng;

    /// Why a single case did not pass.
    #[derive(Debug, Clone)]
    pub enum TestCaseError {
        /// `prop_assume!` rejected the inputs: skip, don't fail.
        Reject(String),
        /// `prop_assert!` (or friends) failed.
        Fail(String),
    }

    /// Runs the numbered cases of one property.
    #[derive(Debug, Clone)]
    pub struct TestRunner {
        /// Number of cases to run.
        pub cases: u32,
        /// Base seed; each case derives its own stream.
        pub seed: u64,
    }

    impl Default for TestRunner {
        fn default() -> Self {
            let cases = std::env::var("PROPTEST_CASES")
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(64);
            TestRunner {
                cases,
                seed: 0x0071_u64 ^ 0x9E37_79B9_7F4A_7C15,
            }
        }
    }

    impl TestRunner {
        /// The RNG for one case: deterministic in `(seed, case)`.
        pub fn rng_for(&self, case: u32) -> TestRng {
            TestRng::seed_from_u64(
                self.seed
                    .wrapping_add(u64::from(case).wrapping_mul(0x5851_F42D_4C95_7F2D)),
            )
        }
    }
}

pub mod prelude {
    //! The glob-import surface (`use proptest::prelude::*`).

    pub use crate::arbitrary::any;
    pub use crate::strategy::{Just, Strategy};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest};

    /// The `prop::` module alias used by `prop::collection::vec` etc.
    pub mod prop {
        pub use crate::collection;
        pub use crate::option;
    }
}

/// Defines `#[test]` functions whose arguments are drawn from strategies.
///
/// Shrinking is not implemented: failures report the case number.
#[macro_export]
macro_rules! proptest {
    ($( $(#[$meta:meta])* fn $name:ident ( $($arg:pat in $strat:expr),+ $(,)? ) $body:block )*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let __runner = $crate::test_runner::TestRunner::default();
                for __case in 0..__runner.cases {
                    let mut __rng = __runner.rng_for(__case);
                    $(let $arg = $crate::strategy::Strategy::generate(&($strat), &mut __rng);)+
                    let __result: ::std::result::Result<(), $crate::test_runner::TestCaseError> =
                        (|| { $body ::std::result::Result::Ok(()) })();
                    match __result {
                        ::std::result::Result::Ok(()) => {}
                        ::std::result::Result::Err($crate::test_runner::TestCaseError::Reject(_)) => {}
                        ::std::result::Result::Err($crate::test_runner::TestCaseError::Fail(__msg)) => {
                            panic!(
                                "proptest case {}/{} failed: {}",
                                __case + 1,
                                __runner.cases,
                                __msg
                            );
                        }
                    }
                }
            }
        )*
    };
}

/// Asserts a condition inside a [`proptest!`] body.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err(
                $crate::test_runner::TestCaseError::Fail(format!($($fmt)+)),
            );
        }
    };
}

/// Asserts equality inside a [`proptest!`] body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {{
        let __l = $left;
        let __r = $right;
        $crate::prop_assert!(
            __l == __r,
            "assertion failed: `{:?}` != `{:?}`",
            __l,
            __r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let __l = $left;
        let __r = $right;
        if !(__l == __r) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::Fail(
                format!(concat!("{:?} != {:?}: ", ""), __l, __r) + &format!($($fmt)+),
            ));
        }
    }};
}

/// Asserts inequality inside a [`proptest!`] body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr) => {{
        let __l = $left;
        let __r = $right;
        $crate::prop_assert!(
            __l != __r,
            "assertion failed: both sides equal `{:?}`",
            __l
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let __l = $left;
        let __r = $right;
        if !(__l != __r) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::Fail(
                format!("both sides equal {:?}: ", __l) + &format!($($fmt)+),
            ));
        }
    }};
}

/// Skips the current case unless `cond` holds.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::Reject(
                stringify!($cond).to_string(),
            ));
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #[test]
        fn ranges_stay_in_bounds(x in 3u64..17, v in prop::collection::vec(0u8..5, 1..9)) {
            prop_assert!((3..17).contains(&x));
            prop_assert!(!v.is_empty() && v.len() < 9);
            prop_assert!(v.iter().all(|&b| b < 5));
        }

        #[test]
        fn tuples_and_map(pair in (0u32..10, 0u32..10).prop_map(|(a, b)| a + b)) {
            prop_assert!(pair < 19);
        }

        #[test]
        fn option_of_produces_both(o in prop::option::of(any::<u64>())) {
            // Either branch is fine; just exercise the strategy.
            let _ = o;
            prop_assert!(true);
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let runner = crate::test_runner::TestRunner::default();
        let mut a = runner.rng_for(5);
        let mut b = runner.rng_for(5);
        use rand::Rng;
        assert_eq!(a.gen::<u64>(), b.gen::<u64>());
    }
}
