//! Minimal stand-in for the subset of the proptest API used by this
//! workspace, with no dependencies at all (see `compat/README.md` for the
//! rationale), so testing a crate never builds the crates above it.
//!
//! Differences from real proptest, deliberately accepted:
//!
//! * **No shrinking.** A failing case panics with the deterministic seed
//!   and case index so it can be re-run, but the input is not minimised.
//! * **Deterministic generation.** Each test's random stream is seeded
//!   from a hash of the test name (override with `PROPTEST_COMPAT_SEED`),
//!   so runs are reproducible byte-for-byte.
//! * Only the strategy combinators this repository uses are provided:
//!   integer ranges, tuples, `prop_map`, `prop_oneof!`, `Just`,
//!   `any::<T>()`, and `proptest::collection::vec`.

pub mod test_runner {
    use std::fmt;
    use std::sync::atomic::{AtomicBool, Ordering};

    /// Mirrors `proptest::test_runner::Config` (aliased to
    /// `ProptestConfig` in the prelude).
    #[derive(Debug, Clone)]
    pub struct Config {
        pub cases: u32,
    }

    impl Config {
        pub fn with_cases(cases: u32) -> Self {
            Config { cases }
        }
    }

    impl Default for Config {
        fn default() -> Self {
            Config { cases: 256 }
        }
    }

    /// Why a test case failed; carried by `prop_assert!` and friends.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct TestCaseError(String);

    impl TestCaseError {
        pub fn fail(message: impl Into<String>) -> Self {
            TestCaseError(message.into())
        }

        /// Real proptest distinguishes rejection from failure; the
        /// stand-in treats both as failure.
        pub fn reject(message: impl Into<String>) -> Self {
            TestCaseError(message.into())
        }
    }

    impl fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str(&self.0)
        }
    }

    impl std::error::Error for TestCaseError {}

    /// SplitMix64: tiny, fast, and good enough for test-input generation.
    #[derive(Debug, Clone)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        pub fn new(seed: u64) -> Self {
            TestRng { state: seed }
        }

        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        /// Uniform value in `[0, bound)`; `bound` must be non-zero.
        pub fn below(&mut self, bound: u64) -> u64 {
            debug_assert!(bound > 0);
            // Modulo bias is irrelevant at test-generation quality.
            self.next_u64() % bound
        }
    }

    /// Executes a property closure over `config.cases` deterministic
    /// random streams.
    pub struct TestRunner {
        config: Config,
    }

    impl TestRunner {
        pub fn new(config: Config) -> Self {
            TestRunner { config }
        }

        /// The case count actually executed: the configured count, unless
        /// `HALO_PROPTEST_CASES` overrides it (CI lowers the counts to
        /// trim the suite's long pole; set it higher locally for soak
        /// runs). An invalid value warns once per process on stderr and
        /// falls back to the configured count — the workspace's one
        /// env-override rule, which `HALO_THREADS` follows too.
        pub fn effective_cases(&self) -> u32 {
            static WARNED: AtomicBool = AtomicBool::new(false);
            let value = std::env::var("HALO_PROPTEST_CASES").ok();
            Self::override_cases(value.as_deref(), self.config.cases, &WARNED)
        }

        /// [`TestRunner::effective_cases`] for the variable's `value`
        /// (`None` when unset): the override if it parses, else
        /// `configured`, warning the first time `warned` sees a bad value.
        pub(crate) fn override_cases(
            value: Option<&str>,
            configured: u32,
            warned: &AtomicBool,
        ) -> u32 {
            match value.map(Self::parse_cases) {
                None => configured,
                Some(Ok(cases)) => cases,
                Some(Err(reason)) => {
                    if !warned.swap(true, Ordering::Relaxed) {
                        eprintln!("warning: {reason}; using the configured case count");
                    }
                    configured
                }
            }
        }

        /// [`TestRunner::effective_cases`]'s pure core, split out so the
        /// override logic is testable without mutating process-global
        /// environment from concurrently running tests.
        pub fn parse_cases(value: &str) -> Result<u32, String> {
            value.trim().parse::<u32>().ok().filter(|&n| n > 0).ok_or_else(|| {
                format!(
                    "HALO_PROPTEST_CASES={value} is invalid: \
                     expected a positive integer case count"
                )
            })
        }

        pub fn run<F>(&mut self, name: &str, mut f: F)
        where
            F: FnMut(&mut TestRng) -> Result<(), TestCaseError>,
        {
            let base = match std::env::var("PROPTEST_COMPAT_SEED") {
                Ok(s) => s
                    .parse::<u64>()
                    .unwrap_or_else(|_| panic!("PROPTEST_COMPAT_SEED must be a u64, got {s:?}")),
                Err(_) => fnv1a(name.as_bytes()),
            };
            let cases = self.effective_cases();
            for case in 0..cases {
                let seed = fnv1a(&base.wrapping_add(case as u64).to_le_bytes());
                let mut rng = TestRng::new(seed);
                if let Err(e) = f(&mut rng) {
                    panic!(
                        "proptest-compat: {name} failed at case {case}/{cases} \
                         (re-run with PROPTEST_COMPAT_SEED={base}): {e}"
                    );
                }
            }
        }
    }

    fn fnv1a(bytes: &[u8]) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }
}

pub mod strategy {
    use crate::test_runner::TestRng;
    use std::marker::PhantomData;
    use std::ops::Range;

    /// Mirrors `proptest::strategy::Strategy`: a recipe for generating a
    /// value. (Real proptest generates *value trees* for shrinking; the
    /// stand-in generates plain values.)
    pub trait Strategy {
        type Value;

        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> O,
        {
            Map { source: self, f }
        }

        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            Box::new(self)
        }
    }

    pub type BoxedStrategy<V> = Box<dyn Strategy<Value = V>>;

    impl<V> Strategy for BoxedStrategy<V> {
        type Value = V;
        fn generate(&self, rng: &mut TestRng) -> V {
            (**self).generate(rng)
        }
    }

    /// Always produces a clone of the given value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    pub struct Map<S, F> {
        source: S,
        f: F,
    }

    impl<S, O, F> Strategy for Map<S, F>
    where
        S: Strategy,
        F: Fn(S::Value) -> O,
    {
        type Value = O;
        fn generate(&self, rng: &mut TestRng) -> O {
            (self.f)(self.source.generate(rng))
        }
    }

    /// Uniform choice between boxed alternatives; built by `prop_oneof!`.
    pub struct OneOf<V>(pub Vec<BoxedStrategy<V>>);

    impl<V> Strategy for OneOf<V> {
        type Value = V;
        fn generate(&self, rng: &mut TestRng) -> V {
            assert!(!self.0.is_empty(), "prop_oneof! needs at least one alternative");
            let idx = rng.below(self.0.len() as u64) as usize;
            self.0[idx].generate(rng)
        }
    }

    macro_rules! impl_range_strategy {
        ($($t:ty => $u:ty),* $(,)?) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    // Span computed in the unsigned counterpart so signed
                    // ranges (e.g. -100i64..100) stay correct.
                    let span = self.end.wrapping_sub(self.start) as $u;
                    assert!(span > 0, "empty or inverted range strategy");
                    let off = rng.below(span as u64) as $u;
                    self.start.wrapping_add(off as $t)
                }
            }
        )*};
    }

    impl_range_strategy! {
        u8 => u8, u16 => u16, u32 => u32, u64 => u64, usize => usize,
        i8 => u8, i16 => u16, i32 => u32, i64 => u64, isize => usize,
    }

    macro_rules! impl_tuple_strategy {
        ($($name:ident),+) => {
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);
                #[allow(non_snake_case)]
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    let ($($name,)+) = self;
                    ($($name.generate(rng),)+)
                }
            }
        };
    }

    impl_tuple_strategy!(A);
    impl_tuple_strategy!(A, B);
    impl_tuple_strategy!(A, B, C);
    impl_tuple_strategy!(A, B, C, D);
    impl_tuple_strategy!(A, B, C, D, E);
    impl_tuple_strategy!(A, B, C, D, E, F);

    /// Types with a canonical "any value" strategy (`any::<T>()`).
    pub trait Arbitrary: Sized {
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    macro_rules! impl_arbitrary_int {
        ($($t:ty),* $(,)?) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> $t {
                    rng.next_u64() as $t
                }
            }
        )*};
    }

    impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    pub struct Any<T>(PhantomData<T>);

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }

    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(PhantomData)
    }
}

pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::ops::Range;

    /// Mirrors `proptest::collection::SizeRange`: `vec(s, 3)` means
    /// exactly 3 elements, `vec(s, 1..800)` means 1..=799.
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        start: usize,
        end: usize, // exclusive
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { start: n, end: n + 1 }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty vec size range");
            SizeRange { start: r.start, end: r.end }
        }
    }

    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.end - self.size.start) as u64;
            let len = self.size.start + rng.below(span) as usize;
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }

    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy { element, size: size.into() }
    }
}

pub mod prelude {
    pub use crate::strategy::{any, Arbitrary, BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::{Config as ProptestConfig, TestCaseError, TestRng, TestRunner};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
}

#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::core::result::Result::Err(
                $crate::test_runner::TestCaseError::fail(format!($($fmt)+)),
            );
        }
    };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {
        match (&$left, &$right) {
            (l, r) => {
                $crate::prop_assert!(l == r, "assertion failed: {:?} == {:?}", l, r);
            }
        }
    };
    ($left:expr, $right:expr, $($fmt:tt)+) => {
        match (&$left, &$right) {
            (l, r) => {
                $crate::prop_assert!(
                    l == r,
                    "assertion failed: {:?} == {:?}: {}", l, r, format!($($fmt)+)
                );
            }
        }
    };
}

#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {
        match (&$left, &$right) {
            (l, r) => {
                $crate::prop_assert!(l != r, "assertion failed: {:?} != {:?}", l, r);
            }
        }
    };
    ($left:expr, $right:expr, $($fmt:tt)+) => {
        match (&$left, &$right) {
            (l, r) => {
                $crate::prop_assert!(
                    l != r,
                    "assertion failed: {:?} != {:?}: {}", l, r, format!($($fmt)+)
                );
            }
        }
    };
}

#[macro_export]
macro_rules! prop_oneof {
    ($($strategy:expr),+ $(,)?) => {
        $crate::strategy::OneOf(vec![
            $($crate::strategy::Strategy::boxed($strategy)),+
        ])
    };
}

#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { config = $config; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! {
            config = $crate::test_runner::Config::default();
            $($rest)*
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (config = $config:expr; $(
        $(#[$meta:meta])+
        fn $name:ident($($pat:pat in $strategy:expr),+ $(,)?) $body:block
    )*) => {$(
        $(#[$meta])+
        fn $name() {
            let config: $crate::test_runner::Config = $config;
            let mut runner = $crate::test_runner::TestRunner::new(config);
            runner.run(stringify!($name), |rng| {
                $(let $pat = $crate::strategy::Strategy::generate(&($strategy), rng);)+
                $body
                ::core::result::Result::Ok(())
            });
        }
    )*};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use crate::test_runner::TestRng;

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = TestRng::new(42);
        for _ in 0..1000 {
            let v = (10u64..20).generate(&mut rng);
            assert!((10..20).contains(&v));
            let s = (-100i64..100).generate(&mut rng);
            assert!((-100..100).contains(&s));
        }
    }

    #[test]
    fn vec_respects_size_and_exact_len() {
        let mut rng = TestRng::new(7);
        for _ in 0..200 {
            let v = crate::collection::vec(0u32..5, 1..4).generate(&mut rng);
            assert!((1..4).contains(&v.len()));
            let exact = crate::collection::vec(any::<bool>(), 64).generate(&mut rng);
            assert_eq!(exact.len(), 64);
        }
    }

    #[test]
    fn oneof_and_map_compose() {
        let strat = prop_oneof![(0u8..10).prop_map(|x| x as u32), (100u32..110).prop_map(|x| x),];
        let mut rng = TestRng::new(3);
        let mut low = false;
        let mut high = false;
        for _ in 0..200 {
            let v = strat.generate(&mut rng);
            assert!(v < 10 || (100..110).contains(&v));
            low |= v < 10;
            high |= v >= 100;
        }
        assert!(low && high, "both alternatives must be exercised");
    }

    #[test]
    fn case_count_override_parses_or_warns() {
        use crate::test_runner::TestRunner;
        assert_eq!(TestRunner::parse_cases("16"), Ok(16));
        assert_eq!(TestRunner::parse_cases(" 8 "), Ok(8), "whitespace tolerated");
        for bad in ["0", "", "lots", "-4"] {
            let reason = TestRunner::parse_cases(bad)
                .expect_err("HALO_PROPTEST_CASES={bad:?} must be rejected");
            assert_eq!(
                reason,
                format!(
                    "HALO_PROPTEST_CASES={bad} is invalid: expected a positive integer case count"
                ),
                "the warning must name the variable and the offending value"
            );
        }
    }

    #[test]
    fn a_bad_case_count_warns_once_and_falls_back() {
        use crate::test_runner::TestRunner;
        use std::sync::atomic::{AtomicBool, Ordering};
        let warned = AtomicBool::new(false);
        assert_eq!(TestRunner::override_cases(None, 7, &warned), 7, "unset: the configured count");
        assert_eq!(TestRunner::override_cases(Some("16"), 7, &warned), 16, "valid: the override");
        assert!(!warned.load(Ordering::Relaxed), "neither case warns");
        assert_eq!(TestRunner::override_cases(Some("lots"), 7, &warned), 7, "invalid: fall back");
        assert!(warned.load(Ordering::Relaxed), "and say so");
        // Later bad values still fall back; the latch keeps them quiet.
        assert_eq!(TestRunner::override_cases(Some("0"), 7, &warned), 7);
        assert!(warned.load(Ordering::Relaxed));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn the_macro_itself_works(
            xs in crate::collection::vec((any::<u8>(), 1u64..5), 1..20),
            flag in any::<bool>(),
        ) {
            prop_assert!(!xs.is_empty());
            for &(_, b) in &xs {
                prop_assert!((1..5).contains(&b), "b out of range: {}", b);
            }
            prop_assert_ne!(flag, !flag);
        }
    }
}
