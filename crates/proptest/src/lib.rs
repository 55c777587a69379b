//! A minimal, dependency-free stand-in for the `proptest` property-testing
//! crate, providing the API subset used by `tests/properties.rs`.
//!
//! The build container has no network access, so the real crates.io
//! `proptest` cannot be fetched. This shim keeps the property tests
//! untouched and executing: strategies generate values from a deterministic
//! xorshift PRNG seeded per test name, the `proptest!` macro expands each
//! property into a plain `#[test]` that runs `cases` generated inputs, and
//! `prop_assert*` failures report the offending case. Cases are not shrunk
//! behind the property's back; a property whose failing inputs are too big
//! to read minimises them itself with [`shrink::minimize`].

pub mod strategy {
    use crate::test_runner::TestRng;
    use std::ops::Range;

    /// Generates values of type `Self::Value` from a PRNG.
    pub trait Strategy {
        type Value;

        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Map generated values through `f` (proptest's `prop_map`).
        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> O,
        {
            Map { inner: self, f }
        }
    }

    /// Always produces a clone of the wrapped value.
    #[derive(Clone, Debug)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// The result of [`Strategy::prop_map`].
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S, O, F> Strategy for Map<S, F>
    where
        S: Strategy,
        F: Fn(S::Value) -> O,
    {
        type Value = O;
        fn generate(&self, rng: &mut TestRng) -> O {
            (self.f)(self.inner.generate(rng))
        }
    }

    macro_rules! int_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end as i128 - self.start as i128) as u128;
                    let offset = (rng.next_u64() as u128 % span) as i128;
                    (self.start as i128 + offset) as $t
                }
            }
        )*};
    }

    int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    macro_rules! tuple_strategy {
        ($(($($name:ident),+))+) => {$(
            #[allow(non_snake_case)]
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    let ($($name,)+) = self;
                    ($($name.generate(rng),)+)
                }
            }
        )+};
    }

    tuple_strategy! { (A, B) (A, B, C) (A, B, C, D) (A, B, C, D, E) (A, B, C, D, E, F) (A, B, C, D, E, F, G) }

    /// Uniform choice between boxed strategies (the `prop_oneof!` backend).
    pub struct Union<T> {
        variants: Vec<Box<dyn Strategy<Value = T>>>,
    }

    impl<T> Union<T> {
        pub fn empty() -> Union<T> {
            Union {
                variants: Vec::new(),
            }
        }

        pub fn push(&mut self, strategy: Box<dyn Strategy<Value = T>>) {
            self.variants.push(strategy);
        }
    }

    impl<T> Strategy for Union<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            assert!(!self.variants.is_empty(), "prop_oneof! of zero strategies");
            let i = (rng.next_u64() % self.variants.len() as u64) as usize;
            self.variants[i].generate(rng)
        }
    }
}

pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::ops::Range;

    /// Vectors with a length drawn from `len` (proptest's `collection::vec`).
    pub struct VecStrategy<S> {
        element: S,
        len: Range<usize>,
    }

    pub fn vec<S: Strategy>(element: S, len: Range<usize>) -> VecStrategy<S> {
        assert!(len.start < len.end, "empty length range");
        VecStrategy { element, len }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.len.end - self.len.start) as u64;
            let n = self.len.start + (rng.next_u64() % span) as usize;
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }
}

pub mod shrink {
    /// Greedy minimisation of a failing case: replace `failing` by the first
    /// of `candidates(&failing)` that `still_fails`, until none does.
    /// `candidates` must only offer strictly smaller cases (drop an element,
    /// shorten a range), or this does not terminate. The result fails, and
    /// no single step offered makes it smaller and still failing.
    pub fn minimize<T>(
        mut failing: T,
        candidates: impl Fn(&T) -> Vec<T>,
        still_fails: impl Fn(&T) -> bool,
    ) -> T {
        while let Some(smaller) = candidates(&failing).into_iter().find(&still_fails) {
            failing = smaller;
        }
        failing
    }
}

pub mod test_runner {
    use std::fmt;

    /// Deterministic xorshift64* PRNG — the same inputs on every run.
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// Seed from a test name so distinct properties explore distinct
        /// sequences, deterministically.
        pub fn deterministic(name: &str) -> TestRng {
            let mut seed: u64 = 0xcbf2_9ce4_8422_2325;
            for b in name.bytes() {
                seed ^= u64::from(b);
                seed = seed.wrapping_mul(0x0000_0100_0000_01b3);
            }
            TestRng { state: seed | 1 }
        }

        pub fn next_u64(&mut self) -> u64 {
            let mut x = self.state;
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            self.state = x;
            x.wrapping_mul(0x2545_f491_4f6c_dd1d)
        }
    }

    /// Subset of proptest's run configuration.
    #[derive(Clone, Debug)]
    pub struct ProptestConfig {
        /// Number of generated cases per property.
        pub cases: u32,
        /// Accepted for source compatibility; the shim never shrinks.
        pub max_shrink_iters: u32,
        /// Accepted for source compatibility; the shim never forks.
        pub fork: bool,
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig {
                cases: 64,
                max_shrink_iters: 0,
                fork: false,
            }
        }
    }

    /// A failed (or rejected) test case.
    #[derive(Clone, Debug)]
    pub enum TestCaseError {
        Fail(String),
        Reject(String),
    }

    impl TestCaseError {
        pub fn fail(reason: impl Into<String>) -> TestCaseError {
            TestCaseError::Fail(reason.into())
        }

        pub fn reject(reason: impl Into<String>) -> TestCaseError {
            TestCaseError::Reject(reason.into())
        }
    }

    impl fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                TestCaseError::Fail(msg) => write!(f, "{msg}"),
                TestCaseError::Reject(msg) => write!(f, "rejected: {msg}"),
            }
        }
    }

    impl std::error::Error for TestCaseError {}
}

/// Everything a property test file needs, mirroring `proptest::prelude::*`.
pub mod prelude {
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::{ProptestConfig, TestCaseError, TestRng};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
}

/// Uniform choice among strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strategy:expr),+ $(,)?) => {{
        let mut union = $crate::strategy::Union::empty();
        $( union.push(::std::boxed::Box::new($strategy)); )+
        union
    }};
}

#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err(
                $crate::test_runner::TestCaseError::fail(format!($($fmt)+)),
            );
        }
    };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l == *r,
            "assertion failed: `{:?} == {:?}`", l, r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!("assertion failed: `{:?} == {:?}`: {}", l, r, format!($($fmt)+)),
            ));
        }
    }};
}

#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(*l != *r, "assertion failed: `{:?} != {:?}`", l, r);
    }};
}

/// Expand property definitions into plain `#[test]` functions.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { ($config) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! { ($crate::test_runner::ProptestConfig::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    (($config:expr)) => {};
    (($config:expr)
     $(#[$meta:meta])*
     fn $name:ident($($arg:ident in $strategy:expr),+ $(,)?) $body:block
     $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::test_runner::ProptestConfig = $config;
            let mut rng = $crate::test_runner::TestRng::deterministic(stringify!($name));
            for case in 0..config.cases {
                $(let $arg = $crate::strategy::Strategy::generate(&($strategy), &mut rng);)+
                let outcome = (|| -> ::std::result::Result<(), $crate::test_runner::TestCaseError> {
                    $body
                    #[allow(unreachable_code)]
                    ::std::result::Result::Ok(())
                })();
                match outcome {
                    ::std::result::Result::Ok(()) => {}
                    ::std::result::Result::Err($crate::test_runner::TestCaseError::Reject(_)) => {}
                    ::std::result::Result::Err($crate::test_runner::TestCaseError::Fail(msg)) => {
                        panic!(
                            "property `{}` failed at case {}/{}:\n{}",
                            stringify!($name), case + 1, config.cases, msg
                        );
                    }
                }
            }
        }
        $crate::__proptest_items! { ($config) $($rest)* }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

        #[test]
        fn ranges_stay_in_bounds(x in 3u8..9, y in -5i64..5) {
            prop_assert!((3..9).contains(&x));
            prop_assert!((-5..5).contains(&y));
        }

        #[test]
        fn oneof_map_and_vec_compose(
            v in crate::collection::vec(
                prop_oneof![(0u8..3).prop_map(|n| n * 2), Just(9u8)],
                1..5,
            )
        ) {
            prop_assert!(!v.is_empty() && v.len() < 5);
            prop_assert!(v.iter().all(|&n| n == 9 || n % 2 == 0));
        }
    }

    #[test]
    fn minimize_reaches_a_case_no_offered_step_can_shrink() {
        // Fails while it holds a 7 and a 9; candidates drop one element.
        let fails = |v: &Vec<u8>| v.contains(&7) && v.contains(&9);
        let drop_one = |v: &Vec<u8>| -> Vec<Vec<u8>> {
            let without = |at: usize| v.iter().copied().enumerate().filter(move |(i, _)| *i != at);
            (0..v.len())
                .map(|at| without(at).map(|(_, x)| x).collect())
                .collect()
        };
        let minimal = crate::shrink::minimize(vec![1, 9, 3, 7, 7, 5], drop_one, fails);
        assert_eq!(minimal, [9, 7]);
    }

    #[test]
    fn rng_is_deterministic_per_name() {
        let mut a = TestRng::deterministic("seed");
        let mut b = TestRng::deterministic("seed");
        assert_eq!(a.next_u64(), b.next_u64());
        let mut c = TestRng::deterministic("other");
        assert_ne!(a.next_u64(), c.next_u64());
    }
}
