//! A vendored stand-in (no crates.io dependencies) for the [proptest]
//! property-testing crate, API-compatible with the subset this workspace's
//! tests use.
//!
//! The build environment has no network access to crates.io, so the real
//! proptest cannot be resolved. This shim keeps the property tests compiling
//! and genuinely *random-testing* (deterministic seeded generation, a fixed
//! number of cases per property), minus shrinking: a failing case panics with
//! the generated values ungeneralized.
//!
//! [proptest]: https://docs.rs/proptest

pub mod collection;
pub mod sample;
pub mod strategy;

/// Deterministic generator state ([`cxfault::splitmix64`]).
pub struct TestRng(u64);

impl TestRng {
    /// Seed from an arbitrary string (the test name), so every property gets
    /// a distinct but reproducible stream.
    pub fn from_name(name: &str) -> TestRng {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        TestRng(h)
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        cxfault::splitmix64(&mut self.0)
    }

    /// Uniform value in `[0, n)`; `n` must be nonzero.
    pub fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        self.next_u64() % n
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Per-property configuration.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of generated cases per property.
    pub cases: u32,
}

impl ProptestConfig {
    /// Config with an explicit case count.
    pub fn with_cases(cases: u32) -> ProptestConfig {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> ProptestConfig {
        ProptestConfig { cases: 256 }
    }
}

/// Everything a property test file needs.
pub mod prelude {
    pub use crate::strategy::{BoxedStrategy, Just, Strategy, Union};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
    pub use crate::{ProptestConfig, TestRng};
}

/// Assert inside a property (panics with the message on failure; no
/// shrinking in this shim).
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => { assert!($cond) };
    ($cond:expr, $($fmt:tt)*) => { assert!($cond, $($fmt)*) };
}

/// Equality assertion inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => { assert_eq!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)*) => { assert_eq!($a, $b, $($fmt)*) };
}

/// Inequality assertion inside a property.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => { assert_ne!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)*) => { assert_ne!($a, $b, $($fmt)*) };
}

/// Uniform choice between strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::Strategy::boxed($strat)),+
        ])
    };
}

/// Define property tests: each `fn name(arg in strategy, ...) { body }`
/// becomes a `#[test]` running `body` against `cases` generated inputs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { ($cfg); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { ($crate::ProptestConfig::default()); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (($cfg:expr); ) => {};
    (($cfg:expr);
     $(#[$meta:meta])*
     fn $name:ident( $($arg:ident in $strat:expr),+ $(,)? ) $body:block
     $($rest:tt)*) => {
        $(#[$meta])*
        fn $name() {
            let cfg = $cfg;
            let mut rng = $crate::TestRng::from_name(stringify!($name));
            for _case in 0..cfg.cases {
                $(let $arg = $crate::strategy::Strategy::new_value(&($strat), &mut rng);)+
                $body
            }
        }
        $crate::__proptest_impl! { ($cfg); $($rest)* }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn rng_is_deterministic_per_name() {
        let mut a = TestRng::from_name("x");
        let mut b = TestRng::from_name("x");
        let mut c = TestRng::from_name("y");
        let (va, vb, vc) = (a.next_u64(), b.next_u64(), c.next_u64());
        assert_eq!(va, vb);
        assert_ne!(va, vc);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_stay_in_bounds(x in 3usize..17, y in 0u32..5, z in 0usize..=4) {
            prop_assert!((3..17).contains(&x));
            prop_assert!(y < 5);
            prop_assert!(z <= 4);
        }

        #[test]
        fn vec_and_tuple_strategies(
            v in crate::collection::vec((0usize..10, 0usize..10), 0..6),
            w in crate::collection::vec(0usize..3, 4),
        ) {
            prop_assert!(v.len() < 6);
            prop_assert_eq!(w.len(), 4);
            for (a, b) in v {
                prop_assert!(a < 10 && b < 10);
            }
        }

        #[test]
        fn select_and_map(s in crate::sample::select(vec!["a", "b"]).prop_map(str::to_string)) {
            prop_assert!(s == "a" || s == "b");
        }

        #[test]
        fn oneof_unions(n in prop_oneof![0usize..3, 10usize..13,]) {
            prop_assert!(n < 3 || (10..13).contains(&n));
        }
    }

    #[derive(Debug, Clone)]
    enum T {
        Leaf(#[allow(dead_code)] usize),
        Node(Vec<T>),
    }

    fn depth(t: &T) -> usize {
        match t {
            T::Leaf(_) => 1,
            T::Node(cs) => 1 + cs.iter().map(depth).max().unwrap_or(0),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn recursive_strategies_terminate(
            t in (0usize..10).prop_map(T::Leaf).prop_recursive(3, 16, 4, |inner| {
                crate::collection::vec(inner, 0..4).prop_map(T::Node)
            })
        ) {
            prop_assert!(depth(&t) <= 5, "depth {}", depth(&t));
        }
    }
}
