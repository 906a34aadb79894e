//! Offline stand-in for the `proptest` property-testing crate.
//!
//! Implements the API subset the workspace's property tests use, with the
//! same surface syntax so the test files compile unchanged against either
//! this stand-in or the real crate:
//!
//! * the [`Strategy`] trait with `prop_map`, `prop_flat_map` and
//!   `prop_filter`;
//! * strategies for half-open / inclusive integer ranges, tuples (arity
//!   2–4), booleans ([`bool::ANY`]) and vectors
//!   ([`collection::vec`]);
//! * the [`proptest!`] macro (including the inner
//!   `#![proptest_config(...)]` attribute), [`prop_assert!`] and
//!   [`prop_assert_eq!`];
//! * [`ProptestConfig::with_cases`].
//!
//! Differences from the real crate: cases are generated from a
//! deterministic per-test seed (derived from the test's module path and
//! name), and there is **no shrinking** — on failure the harness prints
//! the generated inputs verbatim and re-raises the panic. That keeps
//! failures reproducible and debuggable without proptest's machinery or
//! any network access at build time.

#![forbid(unsafe_code)]

use std::ops::{Range, RangeInclusive};

/// Deterministic SplitMix64 generator used to produce test cases.
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// A generator seeded directly.
    pub fn new(seed: u64) -> Self {
        TestRng { state: seed }
    }

    /// A generator for one case of one named test: the seed mixes an FNV
    /// hash of the test name with the case number, so every test gets an
    /// independent, stable stream.
    pub fn for_case(test_name: &str, case: u32) -> Self {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for byte in test_name.bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        TestRng::new(hash ^ (u64::from(case) << 32) ^ u64::from(case))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A uniform draw from `[0, bound)` (`bound` > 0).
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }
}

/// Stand-in for `proptest::test_runner::Config`.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of cases generated per property.
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

impl ProptestConfig {
    /// A config running `cases` cases per property.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

/// A generator of values of type `Self::Value`.
pub trait Strategy {
    /// The generated value type.
    type Value;

    /// Generate one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Map generated values through `f`.
    fn prop_map<T, F: Fn(Self::Value) -> T>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { base: self, f }
    }

    /// Generate an intermediate value, build a second strategy from it, and
    /// generate from that.
    fn prop_flat_map<S: Strategy, F: Fn(Self::Value) -> S>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
    {
        FlatMap { base: self, f }
    }

    /// Reject generated values for which `f` returns false (bounded retry).
    fn prop_filter<F: Fn(&Self::Value) -> bool>(
        self,
        reason: impl Into<String>,
        f: F,
    ) -> Filter<Self, F>
    where
        Self: Sized,
    {
        Filter {
            base: self,
            reason: reason.into(),
            f,
        }
    }
}

/// Strategy produced by [`Strategy::prop_map`].
pub struct Map<S, F> {
    base: S,
    f: F,
}

impl<S: Strategy, T, F: Fn(S::Value) -> T> Strategy for Map<S, F> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        (self.f)(self.base.generate(rng))
    }
}

/// Strategy produced by [`Strategy::prop_flat_map`].
pub struct FlatMap<S, F> {
    base: S,
    f: F,
}

impl<S: Strategy, S2: Strategy, F: Fn(S::Value) -> S2> Strategy for FlatMap<S, F> {
    type Value = S2::Value;
    fn generate(&self, rng: &mut TestRng) -> S2::Value {
        (self.f)(self.base.generate(rng)).generate(rng)
    }
}

/// Strategy produced by [`Strategy::prop_filter`].
pub struct Filter<S, F> {
    base: S,
    reason: String,
    f: F,
}

impl<S: Strategy, F: Fn(&S::Value) -> bool> Strategy for Filter<S, F> {
    type Value = S::Value;
    fn generate(&self, rng: &mut TestRng) -> S::Value {
        for _ in 0..10_000 {
            let candidate = self.base.generate(rng);
            if (self.f)(&candidate) {
                return candidate;
            }
        }
        panic!(
            "prop_filter {:?} rejected 10000 candidates in a row",
            self.reason
        );
    }
}

macro_rules! int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = self.end.abs_diff(self.start) as u64;
                self.start.wrapping_add(rng.below(span) as $t)
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start() <= self.end(), "empty range strategy");
                let span = self.end().abs_diff(*self.start()) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                self.start().wrapping_add(rng.below(span + 1) as $t)
            }
        }
    )*};
}

int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! tuple_strategy {
    ($(($($name:ident),+))*) => {$(
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            #[allow(non_snake_case)]
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.generate(rng),)+)
            }
        }
    )*};
}

tuple_strategy! {
    (A, B)
    (A, B, C)
    (A, B, C, D)
    (A, B, C, D, E)
}

pub mod bool {
    //! Boolean strategies.

    /// Strategy generating uniform booleans.
    #[derive(Debug, Clone, Copy)]
    pub struct Any;

    /// Stand-in for `proptest::bool::ANY`.
    pub const ANY: Any = Any;

    impl super::Strategy for Any {
        type Value = core::primitive::bool;
        fn generate(&self, rng: &mut super::TestRng) -> core::primitive::bool {
            rng.next_u64() & 1 == 1
        }
    }
}

pub mod collection {
    //! Collection strategies.

    use super::{Strategy, TestRng};
    use std::ops::{Range, RangeInclusive};

    /// Inclusive bounds on a generated collection's length.
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        min: usize,
        max: usize,
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange {
                min: r.start,
                max: r.end - 1,
            }
        }
    }

    impl From<RangeInclusive<usize>> for SizeRange {
        fn from(r: RangeInclusive<usize>) -> Self {
            assert!(r.start() <= r.end(), "empty size range");
            SizeRange {
                min: *r.start(),
                max: *r.end(),
            }
        }
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { min: n, max: n }
        }
    }

    /// Strategy generating vectors of values drawn from an element strategy.
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// Stand-in for `proptest::collection::vec`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.max - self.size.min) as u64;
            let len = self.size.min
                + if span == 0 {
                    0
                } else {
                    rng.below(span + 1) as usize
                };
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Assert inside a property (delegates to `assert!`).
#[macro_export]
macro_rules! prop_assert {
    ($($args:tt)*) => { assert!($($args)*) };
}

/// Assert equality inside a property (delegates to `assert_eq!`).
#[macro_export]
macro_rules! prop_assert_eq {
    ($($args:tt)*) => { assert_eq!($($args)*) };
}

/// Assert inequality inside a property (delegates to `assert_ne!`).
#[macro_export]
macro_rules! prop_assert_ne {
    ($($args:tt)*) => { assert_ne!($($args)*) };
}

/// Define property tests. Supports the real crate's common form:
///
/// ```ignore
/// proptest! {
///     #![proptest_config(ProptestConfig::with_cases(24))]
///     #[test]
///     fn my_property(x in 0u32..10, v in prop::collection::vec(0i64..5, 1..4)) {
///         prop_assert!(x < 10);
///     }
/// }
/// ```
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@impl ($cfg); $($rest)*);
    };
    (@impl ($cfg:expr); $(
        $(#[$attr:meta])*
        fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
    )*) => {$(
        $(#[$attr])*
        fn $name() {
            let config: $crate::ProptestConfig = $cfg;
            let test_name = concat!(module_path!(), "::", stringify!($name));
            for case in 0..config.cases {
                let mut rng = $crate::TestRng::for_case(test_name, case);
                $(let $arg = $crate::Strategy::generate(&($strat), &mut rng);)+
                let inputs = {
                    let mut s = String::new();
                    $(
                        s.push_str(stringify!($arg));
                        s.push_str(" = ");
                        s.push_str(&format!("{:?}", &$arg));
                        s.push_str("; ");
                    )+
                    s
                };
                let outcome = ::std::panic::catch_unwind(::std::panic::AssertUnwindSafe(
                    || { $body }
                ));
                if let Err(panic) = outcome {
                    eprintln!(
                        "[proptest stand-in] {test_name} failed at case {case} with inputs: {inputs}"
                    );
                    ::std::panic::resume_unwind(panic);
                }
            }
        }
    )*};
    ($($rest:tt)*) => {
        $crate::proptest!(@impl ($crate::ProptestConfig::default()); $($rest)*);
    };
}

pub mod prelude {
    //! One-stop imports mirroring `proptest::prelude`.

    pub use crate as prop;
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, proptest, ProptestConfig, Strategy,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn ranges_and_vecs_generate_in_bounds() {
        let mut rng = crate::TestRng::new(1);
        for _ in 0..200 {
            let x = (3u32..9).generate(&mut rng);
            assert!((3..9).contains(&x));
            let y = (2u32..=5).generate(&mut rng);
            assert!((2..=5).contains(&y));
            let v = prop::collection::vec(0i64..4, 1..=6).generate(&mut rng);
            assert!((1..=6).contains(&v.len()));
            assert!(v.iter().all(|&e| (0..4).contains(&e)));
        }
    }

    #[test]
    fn filter_and_flat_map_compose() {
        let strat = (2u32..=6).prop_flat_map(|n| {
            prop::collection::vec((0..n, 0..n).prop_filter("distinct", |(a, b)| a != b), 1..=4)
        });
        let mut rng = crate::TestRng::new(9);
        for _ in 0..100 {
            let pairs = strat.generate(&mut rng);
            assert!(!pairs.is_empty() && pairs.len() <= 4);
            assert!(pairs.iter().all(|(a, b)| a != b));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn macro_generates_and_runs(x in 0u32..10, flag in prop::bool::ANY) {
            prop_assert!(x < 10);
            let _ = flag;
        }
    }
}
