//! A minimal, dependency-free stand-in for the `proptest`
//! property-testing framework, so the workspace's property tests run in
//! offline build environments.
//!
//! It covers the API slice this workspace uses: the [`proptest!`] macro
//! (with optional `#![proptest_config(..)]`), [`Strategy`] with
//! `prop_map` / `prop_recursive` / `boxed`, [`BoxedStrategy`], [`Just`],
//! [`any`], integer-range and tuple strategies,
//! [`collection::vec()`], [`prop_oneof!`],
//! [`prop_assert!`] and [`prop_assert_eq!`].
//!
//! Generation is a deterministic splitmix64 stream seeded per test case,
//! so failures are reproducible run-to-run. There is no shrinking: a
//! failing case reports its case index and seed.

use std::fmt;
use std::ops::Range;
use std::rc::Rc;

// ---------------------------------------------------------------------
// RNG
// ---------------------------------------------------------------------

/// Deterministic test RNG (splitmix64).
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Creates an RNG from a seed.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        TestRng {
            state: seed.wrapping_add(0x9E37_79B9_7F4A_7C15),
        }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, bound)`; `bound` must be nonzero.
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }
}

// ---------------------------------------------------------------------
// Errors and config
// ---------------------------------------------------------------------

/// Why a test case failed.
#[derive(Debug, Clone)]
pub struct TestCaseError(pub String);

impl TestCaseError {
    /// A failure with a message.
    #[must_use]
    pub fn fail(msg: impl Into<String>) -> Self {
        TestCaseError(msg.into())
    }
}

impl fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Runner configuration.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of cases to generate per property.
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 256 }
    }
}

impl ProptestConfig {
    /// A config running `cases` cases.
    #[must_use]
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

/// Runs a property body over generated cases, panicking on the first
/// failure with its case index and seed.
pub struct TestRunner {
    config: ProptestConfig,
}

impl TestRunner {
    /// Creates a runner.
    #[must_use]
    pub fn new(config: ProptestConfig) -> Self {
        TestRunner { config }
    }

    /// Runs `body` once per case with a per-case deterministic RNG.
    ///
    /// # Panics
    ///
    /// Panics on the first failing case.
    pub fn run(&mut self, mut body: impl FnMut(&mut TestRng) -> Result<(), TestCaseError>) {
        for case in 0..self.config.cases {
            let seed = 0xC05F_A000 ^ u64::from(case).wrapping_mul(0x2545_F491_4F6C_DD1D);
            let mut rng = TestRng::new(seed);
            if let Err(e) = body(&mut rng) {
                panic!("property failed at case {case} (seed {seed:#x}): {e}");
            }
        }
    }
}

// ---------------------------------------------------------------------
// Strategy
// ---------------------------------------------------------------------

/// A generator of values of one type.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Produces one value.
    fn gen(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }

    /// Builds a recursive strategy: up to `depth` levels of `expand`
    /// applied over this leaf strategy. The extra parameters mirror
    /// proptest's signature (target size, expected branch factor) and
    /// are accepted for compatibility.
    fn prop_recursive<F>(
        self,
        depth: u32,
        _desired_size: u32,
        _expected_branch_size: u32,
        expand: F,
    ) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
        Self::Value: 'static,
        F: Fn(BoxedStrategy<Self::Value>) -> BoxedStrategy<Self::Value>,
    {
        let leaf = self.boxed();
        let mut current = leaf.clone();
        for _ in 0..depth {
            let expanded = expand(current);
            current = Union::new(vec![leaf.clone(), expanded]).boxed();
        }
        current
    }

    /// Type-erases the strategy.
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        BoxedStrategy {
            inner: Rc::new(self),
        }
    }
}

/// A type-erased, cheaply clonable strategy.
pub struct BoxedStrategy<T> {
    inner: Rc<dyn Strategy<Value = T>>,
}

impl<T> Clone for BoxedStrategy<T> {
    fn clone(&self) -> Self {
        BoxedStrategy {
            inner: Rc::clone(&self.inner),
        }
    }
}

impl<T> Strategy for BoxedStrategy<T> {
    type Value = T;
    fn gen(&self, rng: &mut TestRng) -> T {
        self.inner.gen(rng)
    }
}

/// [`Strategy::prop_map`] adapter.
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;
    fn gen(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.gen(rng))
    }
}

/// Always produces a clone of one value.
#[derive(Debug, Clone)]
pub struct Just<T>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn gen(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Uniform choice between boxed alternatives (the engine behind
/// [`prop_oneof!`]).
pub struct Union<T> {
    options: Vec<BoxedStrategy<T>>,
}

impl<T> Union<T> {
    /// Creates a union; `options` must be nonempty.
    #[must_use]
    pub fn new(options: Vec<BoxedStrategy<T>>) -> Self {
        assert!(
            !options.is_empty(),
            "prop_oneof! needs at least one alternative"
        );
        Union { options }
    }
}

impl<T> Strategy for Union<T> {
    type Value = T;
    fn gen(&self, rng: &mut TestRng) -> T {
        let i = rng.below(self.options.len() as u64) as usize;
        self.options[i].gen(rng)
    }
}

// ---------------------------------------------------------------------
// Primitive strategies
// ---------------------------------------------------------------------

/// Types with a canonical full-range strategy ([`any`]).
pub trait Arbitrary: Sized {
    /// Generates an unconstrained value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.next_u64() & 1 == 1
    }
}

macro_rules! arb_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            #[allow(clippy::cast_possible_truncation, clippy::cast_possible_wrap)]
            fn arbitrary(rng: &mut TestRng) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
arb_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// The canonical strategy for `T` (full range for integers/bool).
pub struct Any<T>(std::marker::PhantomData<T>);

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn gen(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// Returns the canonical strategy for `T`.
#[must_use]
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(std::marker::PhantomData)
}

macro_rules! range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            #[allow(clippy::cast_possible_truncation, clippy::cast_possible_wrap, clippy::cast_sign_loss)]
            fn gen(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as i128 - self.start as i128) as u64;
                let off = rng.below(span);
                (self.start as i128 + off as i128) as $t
            }
        }
    )*};
}
range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! tuple_strategy {
    ($($name:ident : $idx:tt),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            fn gen(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.gen(rng),)+)
            }
        }
    };
}
tuple_strategy!(A: 0, B: 1);
tuple_strategy!(A: 0, B: 1, C: 2);
tuple_strategy!(A: 0, B: 1, C: 2, D: 3);
tuple_strategy!(A: 0, B: 1, C: 2, D: 3, E: 4);
tuple_strategy!(A: 0, B: 1, C: 2, D: 3, E: 4, F: 5);
tuple_strategy!(A: 0, B: 1, C: 2, D: 3, E: 4, F: 5, G: 6);
tuple_strategy!(A: 0, B: 1, C: 2, D: 3, E: 4, F: 5, G: 6, H: 7);

/// Collection strategies.
pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::Range;

    /// A length specification for [`vec()`].
    #[derive(Debug, Clone)]
    pub struct SizeRange {
        lo: usize,
        hi: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n + 1 }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange {
                lo: r.start,
                hi: r.end,
            }
        }
    }

    /// Vectors of `element` with length drawn from `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    /// The strategy behind [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn gen(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.hi - self.size.lo) as u64;
            let len = self.size.lo + rng.below(span.max(1)) as usize;
            (0..len).map(|_| self.element.gen(rng)).collect()
        }
    }
}

// ---------------------------------------------------------------------
// Macros
// ---------------------------------------------------------------------

/// Declares property tests: each `fn name(arg in strategy, ..) { body }`
/// becomes a `#[test]` running the body over generated cases.
#[macro_export]
macro_rules! proptest {
    (@impl ($config:expr) $(
        #[test]
        fn $name:ident($($arg:pat in $strategy:expr),+ $(,)?) $body:block
    )*) => {$(
        #[test]
        fn $name() {
            let config: $crate::ProptestConfig = $config;
            let mut runner = $crate::TestRunner::new(config);
            runner.run(|rng| {
                $(
                    let strategy = $strategy;
                    let $arg = $crate::Strategy::gen(&strategy, rng);
                )+
                (|| -> ::std::result::Result<(), $crate::TestCaseError> {
                    $body
                    Ok(())
                })()
            });
        }
    )*};
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::proptest!(@impl ($config) $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::proptest!(@impl ($crate::ProptestConfig::default()) $($rest)*);
    };
}

/// Fails the current case unless `cond` holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return Err($crate::TestCaseError::fail(format!(
                "assertion failed: {}", stringify!($cond)
            )));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return Err($crate::TestCaseError::fail(format!(
                "assertion failed: {}: {}", stringify!($cond), format!($($fmt)+)
            )));
        }
    };
}

/// Fails the current case unless `left == right`.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {{
        let l = $left;
        let r = $right;
        if l != r {
            return Err($crate::TestCaseError::fail(format!(
                "assertion failed: {} == {} (left: {:?}, right: {:?})",
                stringify!($left), stringify!($right), l, r
            )));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let l = $left;
        let r = $right;
        if l != r {
            return Err($crate::TestCaseError::fail(format!(
                "assertion failed: {} == {} (left: {:?}, right: {:?}): {}",
                stringify!($left), stringify!($right), l, r, format!($($fmt)+)
            )));
        }
    }};
}

/// Fails the current case if `left == right`.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr) => {{
        let l = $left;
        let r = $right;
        if l == r {
            return Err($crate::TestCaseError::fail(format!(
                "assertion failed: {} != {} (both: {:?})",
                stringify!($left),
                stringify!($right),
                l
            )));
        }
    }};
}

/// Uniform choice among strategies producing the same type.
#[macro_export]
macro_rules! prop_oneof {
    ($($alt:expr),+ $(,)?) => {
        $crate::Union::new(vec![$($crate::Strategy::boxed($alt)),+])
    };
}

/// The usual glob import: strategies, macros, config.
pub mod prelude {
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest, Arbitrary,
        BoxedStrategy, Just, ProptestConfig, Strategy, TestCaseError, TestRng, Union,
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = TestRng::new(7);
        for _ in 0..1000 {
            let v = Strategy::gen(&(-50i64..50), &mut rng);
            assert!((-50..50).contains(&v));
            let u = Strategy::gen(&(1usize..16), &mut rng);
            assert!((1..16).contains(&u));
        }
    }

    #[test]
    fn vec_lengths_respect_size_range() {
        let mut rng = TestRng::new(11);
        for _ in 0..200 {
            let v = Strategy::gen(&crate::collection::vec(0u8..3, 1..5), &mut rng);
            assert!((1..5).contains(&v.len()));
        }
    }

    #[test]
    fn determinism_per_seed() {
        let s = crate::collection::vec(-100i64..100, 3..10);
        let a = Strategy::gen(&s, &mut TestRng::new(99));
        let b = Strategy::gen(&s, &mut TestRng::new(99));
        assert_eq!(a, b);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn macro_roundtrip(xs in crate::collection::vec(any::<u16>(), 1..20), k in 1u64..5) {
            let doubled: Vec<u64> = xs.iter().map(|&x| u64::from(x) * k).collect();
            prop_assert_eq!(doubled.len(), xs.len());
            prop_assert!(k >= 1, "k was {}", k);
        }
    }

    proptest! {
        #[test]
        fn oneof_and_map(v in prop_oneof![Just(1i64), 10i64..20, (0i64..3).prop_map(|x| x * 100)]) {
            prop_assert!(v == 1 || (10..20).contains(&v) || v % 100 == 0);
        }
    }
}
