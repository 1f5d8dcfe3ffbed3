//! Offline stand-in for the `proptest` crate.
//!
//! The container building this workspace has no crates.io access, so this
//! crate implements the subset of the proptest API the workspace's property
//! tests use: the [`Strategy`] trait with `prop_map`/`prop_recursive`,
//! range/tuple/collection/regex strategies, `any::<T>()`, and the
//! `proptest!` / `prop_assert*` / `prop_oneof!` macros.
//!
//! Differences from real proptest, by design:
//! * no shrinking — failures report the case number; runs are fully
//!   deterministic (the RNG is seeded from the test name), so a failing
//!   case reproduces exactly;
//! * regex support covers the operators the tests use (classes, groups,
//!   alternation, `* + ? {m,n}`, `\PC`), not the full syntax;
//! * case count defaults to 64, overridable via `PROPTEST_CASES`.

use std::rc::Rc;

pub mod test_runner {
    /// Why a single generated case did not pass.
    #[derive(Debug, Clone)]
    pub enum TestCaseError {
        /// An assertion failed.
        Fail(String),
        /// The case was rejected by `prop_assume!`.
        Reject,
    }

    impl TestCaseError {
        /// Build a failure from a message.
        pub fn fail(msg: impl Into<String>) -> TestCaseError {
            TestCaseError::Fail(msg.into())
        }
    }

    /// Result of one generated test case.
    pub type TestCaseResult = Result<(), TestCaseError>;
}

/// Deterministic RNG for test-case generation (xorshift64*).
pub struct TestRng(u64);

impl TestRng {
    /// Seed from an arbitrary string (the test name).
    pub fn from_name(name: &str) -> TestRng {
        let mut h = 0xcbf29ce484222325u64;
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
        TestRng(h | 1)
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }

    /// Uniform in `[0, n)`; `n` must be non-zero.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Depth budget handed to top-level `gen` calls by the `proptest!` macro.
pub const DEFAULT_DEPTH: u32 = 8;

/// A value generator. The `depth` parameter bounds recursive strategies.
pub trait Strategy {
    /// The type of generated values.
    type Value;

    /// Generate one value.
    fn gen(&self, rng: &mut TestRng, depth: u32) -> Self::Value;

    /// Transform generated values.
    fn prop_map<U, F: Fn(Self::Value) -> U>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }

    /// Type-erase into a clonable boxed strategy.
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        BoxedStrategy(Rc::new(self))
    }

    /// Build a recursive strategy: `self` is the leaf, `f` builds the
    /// recursive case from a handle to the whole strategy. `depth` bounds
    /// recursion; the other two parameters (target size hints in real
    /// proptest) are accepted and ignored.
    fn prop_recursive<F, S>(
        self,
        depth: u32,
        _desired_size: u32,
        _expected_branch_size: u32,
        f: F,
    ) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
        F: Fn(BoxedStrategy<Self::Value>) -> S,
        S: Strategy<Value = Self::Value> + 'static,
    {
        let node = Rc::new(RecursiveNode {
            leaf: self.boxed(),
            branch: std::cell::OnceCell::new(),
            budget: depth,
        });
        let handle = BoxedStrategy(node.clone() as Rc<dyn StrategyObj<Value = Self::Value>>);
        let branch = f(handle.clone()).boxed();
        let _ = node.branch.set(branch);
        handle
    }
}

/// Object-safe mirror of [`Strategy`] used by [`BoxedStrategy`].
trait StrategyObj {
    type Value;
    fn gen_obj(&self, rng: &mut TestRng, depth: u32) -> Self::Value;
}

impl<S: Strategy> StrategyObj for S {
    type Value = S::Value;
    fn gen_obj(&self, rng: &mut TestRng, depth: u32) -> S::Value {
        self.gen(rng, depth)
    }
}

/// A clonable, type-erased strategy.
pub struct BoxedStrategy<T>(Rc<dyn StrategyObj<Value = T>>);

impl<T> Clone for BoxedStrategy<T> {
    fn clone(&self) -> Self {
        BoxedStrategy(self.0.clone())
    }
}

impl<T> Strategy for BoxedStrategy<T> {
    type Value = T;
    fn gen(&self, rng: &mut TestRng, depth: u32) -> T {
        self.0.gen_obj(rng, depth)
    }
}

struct RecursiveNode<T> {
    leaf: BoxedStrategy<T>,
    branch: std::cell::OnceCell<BoxedStrategy<T>>,
    budget: u32,
}

impl<T> StrategyObj for RecursiveNode<T> {
    type Value = T;
    fn gen_obj(&self, rng: &mut TestRng, depth: u32) -> T {
        let depth = depth.min(self.budget);
        match self.branch.get() {
            Some(branch) if depth > 0 && rng.below(3) != 0 => branch.gen(rng, depth - 1),
            _ => self.leaf.gen(rng, depth),
        }
    }
}

/// Always yields a clone of the given value.
#[derive(Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn gen(&self, _rng: &mut TestRng, _depth: u32) -> T {
        self.0.clone()
    }
}

/// Strategy produced by [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
    type Value = U;
    fn gen(&self, rng: &mut TestRng, depth: u32) -> U {
        (self.f)(self.inner.gen(rng, depth))
    }
}

/// Uniform choice between boxed strategies (backs `prop_oneof!`).
pub struct OneOf<T>(pub Vec<BoxedStrategy<T>>);

impl<T> Strategy for OneOf<T> {
    type Value = T;
    fn gen(&self, rng: &mut TestRng, depth: u32) -> T {
        let idx = rng.below(self.0.len() as u64) as usize;
        self.0[idx].gen(rng, depth)
    }
}

/// Types with a canonical "any value" strategy.
pub trait Arbitrary: Sized {
    /// The canonical strategy.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

/// `any::<T>()` — the canonical whole-domain strategy for `T`.
pub fn any<T: Arbitrary>() -> AnyStrategy<T> {
    AnyStrategy(std::marker::PhantomData)
}

/// Strategy returned by [`any`].
pub struct AnyStrategy<T>(std::marker::PhantomData<T>);

impl<T: Arbitrary> Strategy for AnyStrategy<T> {
    type Value = T;
    fn gen(&self, rng: &mut TestRng, _depth: u32) -> T {
        T::arbitrary(rng)
    }
}

macro_rules! arb_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}
arb_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl Arbitrary for f64 {
    fn arbitrary(rng: &mut TestRng) -> f64 {
        // Finite, roundtrip-friendly values spanning many magnitudes.
        let mag = rng.below(600) as i32 - 300;
        let mantissa = rng.unit_f64() * 2.0 - 1.0;
        mantissa * (mag as f64 / 10.0).exp()
    }
}

macro_rules! range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;
            fn gen(&self, rng: &mut TestRng, _depth: u32) -> $t {
                let lo = self.start as u64;
                let hi = self.end as u64;
                assert!(hi > lo, "empty range strategy");
                (lo + rng.below(hi - lo)) as $t
            }
        }
        impl Strategy for std::ops::RangeInclusive<$t> {
            type Value = $t;
            fn gen(&self, rng: &mut TestRng, _depth: u32) -> $t {
                let lo = *self.start() as u64;
                let hi = *self.end() as u64;
                let span = (hi - lo).wrapping_add(1);
                if span == 0 {
                    rng.next_u64() as $t
                } else {
                    (lo + rng.below(span)) as $t
                }
            }
        }
    )*};
}
range_strategy!(u8, u16, u32, u64, usize);

macro_rules! range_strategy_signed {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;
            fn gen(&self, rng: &mut TestRng, _depth: u32) -> $t {
                let span = (self.end as i64).wrapping_sub(self.start as i64) as u64;
                assert!(span > 0, "empty range strategy");
                ((self.start as i64).wrapping_add(rng.below(span) as i64)) as $t
            }
        }
    )*};
}
range_strategy_signed!(i8, i16, i32, i64);

impl Strategy for std::ops::Range<f64> {
    type Value = f64;
    fn gen(&self, rng: &mut TestRng, _depth: u32) -> f64 {
        self.start + (self.end - self.start) * rng.unit_f64()
    }
}

impl Strategy for std::ops::RangeInclusive<f64> {
    type Value = f64;
    fn gen(&self, rng: &mut TestRng, _depth: u32) -> f64 {
        self.start() + (self.end() - self.start()) * rng.unit_f64()
    }
}

macro_rules! tuple_strategy {
    ($(($($s:ident $idx:tt),+);)*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn gen(&self, rng: &mut TestRng, depth: u32) -> Self::Value {
                ($(self.$idx.gen(rng, depth),)+)
            }
        }
    )*};
}
tuple_strategy! {
    (A 0);
    (A 0, B 1);
    (A 0, B 1, C 2);
    (A 0, B 1, C 2, D 3);
    (A 0, B 1, C 2, D 3, E 4);
    (A 0, B 1, C 2, D 3, E 4, F 5);
}

/// A `&str` used as a strategy is treated as a regex (proptest behavior).
impl Strategy for &str {
    type Value = String;
    fn gen(&self, rng: &mut TestRng, _depth: u32) -> String {
        let node = regex::parse(self).expect("invalid regex strategy literal");
        let mut out = String::new();
        node.gen_into(rng, &mut out);
        out
    }
}

pub mod string {
    //! Regex-driven string strategies.

    use super::{regex, Strategy, TestRng};

    /// A strategy generating strings matching a regex.
    #[derive(Clone)]
    pub struct RegexGeneratorStrategy {
        node: regex::Node,
    }

    impl Strategy for RegexGeneratorStrategy {
        type Value = String;
        fn gen(&self, rng: &mut TestRng, _depth: u32) -> String {
            let mut out = String::new();
            self.node.gen_into(rng, &mut out);
            out
        }
    }

    /// Compile `pattern` into a string strategy.
    pub fn string_regex(pattern: &str) -> Result<RegexGeneratorStrategy, String> {
        regex::parse(pattern).map(|node| RegexGeneratorStrategy { node })
    }
}

pub mod collection {
    //! Collection strategies.

    use super::{Strategy, TestRng};
    use std::collections::BTreeMap;
    use std::ops::Range;

    /// Size bounds accepted by [`vec`] and [`btree_map`].
    pub trait SizeRange {
        /// Pick a concrete size.
        fn pick(&self, rng: &mut TestRng) -> usize;
    }

    impl SizeRange for usize {
        fn pick(&self, _rng: &mut TestRng) -> usize {
            *self
        }
    }

    impl SizeRange for Range<usize> {
        fn pick(&self, rng: &mut TestRng) -> usize {
            assert!(self.end > self.start, "empty size range");
            self.start + rng.below((self.end - self.start) as u64) as usize
        }
    }

    /// Vec of values from `element`, sized by `size`.
    pub fn vec<S: Strategy, R: SizeRange>(element: S, size: R) -> VecStrategy<S, R> {
        VecStrategy { element, size }
    }

    /// Strategy returned by [`vec`].
    pub struct VecStrategy<S, R> {
        element: S,
        size: R,
    }

    impl<S: Strategy, R: SizeRange> Strategy for VecStrategy<S, R> {
        type Value = Vec<S::Value>;
        fn gen(&self, rng: &mut TestRng, depth: u32) -> Vec<S::Value> {
            let n = self.size.pick(rng);
            (0..n).map(|_| self.element.gen(rng, depth)).collect()
        }
    }

    /// BTreeMap with keys from `key`, values from `value`, sized by `size`
    /// (duplicate keys collapse, matching real proptest).
    pub fn btree_map<K: Strategy, V: Strategy, R: SizeRange>(
        key: K,
        value: V,
        size: R,
    ) -> BTreeMapStrategy<K, V, R> {
        BTreeMapStrategy { key, value, size }
    }

    /// Strategy returned by [`btree_map`].
    pub struct BTreeMapStrategy<K, V, R> {
        key: K,
        value: V,
        size: R,
    }

    impl<K, V, R> Strategy for BTreeMapStrategy<K, V, R>
    where
        K: Strategy,
        K::Value: Ord,
        V: Strategy,
        R: SizeRange,
    {
        type Value = BTreeMap<K::Value, V::Value>;
        fn gen(&self, rng: &mut TestRng, depth: u32) -> Self::Value {
            let n = self.size.pick(rng);
            (0..n)
                .map(|_| (self.key.gen(rng, depth), self.value.gen(rng, depth)))
                .collect()
        }
    }
}

pub(crate) mod regex {
    //! A tiny regex *generator* (not matcher): parses the subset of regex
    //! syntax the workspace's tests use and produces matching strings.

    use super::TestRng;

    /// Max repetitions for unbounded quantifiers (`*`, `+`).
    const UNBOUNDED_CAP: u32 = 8;

    #[derive(Clone, Debug)]
    pub enum Node {
        Literal(char),
        /// Inclusive char ranges, e.g. `[a-z0-9._-]`.
        Class(Vec<(char, char)>),
        /// `\PC` — any printable char (ASCII printable + a few multibyte).
        AnyPrintable,
        Seq(Vec<Node>),
        Alt(Vec<Node>),
        Repeat(Box<Node>, u32, u32),
    }

    impl Node {
        pub fn gen_into(&self, rng: &mut TestRng, out: &mut String) {
            match self {
                Node::Literal(c) => out.push(*c),
                Node::Class(ranges) => {
                    let total: u32 = ranges.iter().map(|(a, b)| *b as u32 - *a as u32 + 1).sum();
                    let mut pick = rng.below(total as u64) as u32;
                    for (a, b) in ranges {
                        let span = *b as u32 - *a as u32 + 1;
                        if pick < span {
                            out.push(char::from_u32(*a as u32 + pick).unwrap_or(*a));
                            break;
                        }
                        pick -= span;
                    }
                }
                Node::AnyPrintable => {
                    const EXTRA: [char; 4] = ['\u{e9}', '\u{3b1}', '\u{4e2d}', '\u{1F600}'];
                    if rng.below(8) == 0 {
                        out.push(EXTRA[rng.below(EXTRA.len() as u64) as usize]);
                    } else {
                        out.push((0x20u8 + rng.below(95) as u8) as char);
                    }
                }
                Node::Seq(parts) => {
                    for p in parts {
                        p.gen_into(rng, out);
                    }
                }
                Node::Alt(arms) => {
                    arms[rng.below(arms.len() as u64) as usize].gen_into(rng, out);
                }
                Node::Repeat(inner, lo, hi) => {
                    let n = lo + rng.below((*hi - *lo + 1) as u64) as u32;
                    for _ in 0..n {
                        inner.gen_into(rng, out);
                    }
                }
            }
        }
    }

    pub fn parse(pattern: &str) -> Result<Node, String> {
        let chars: Vec<char> = pattern.chars().collect();
        let mut pos = 0usize;
        let node = parse_alt(&chars, &mut pos)?;
        if pos != chars.len() {
            return Err(format!(
                "unexpected {:?} at {pos} in {pattern:?}",
                chars[pos]
            ));
        }
        Ok(node)
    }

    fn parse_alt(chars: &[char], pos: &mut usize) -> Result<Node, String> {
        let mut arms = vec![parse_seq(chars, pos)?];
        while *pos < chars.len() && chars[*pos] == '|' {
            *pos += 1;
            arms.push(parse_seq(chars, pos)?);
        }
        Ok(if arms.len() == 1 {
            arms.pop().unwrap()
        } else {
            Node::Alt(arms)
        })
    }

    fn parse_seq(chars: &[char], pos: &mut usize) -> Result<Node, String> {
        let mut parts = Vec::new();
        while *pos < chars.len() && chars[*pos] != '|' && chars[*pos] != ')' {
            let atom = parse_atom(chars, pos)?;
            parts.push(parse_quant(chars, pos, atom)?);
        }
        Ok(Node::Seq(parts))
    }

    fn parse_atom(chars: &[char], pos: &mut usize) -> Result<Node, String> {
        match chars[*pos] {
            '(' => {
                *pos += 1;
                let inner = parse_alt(chars, pos)?;
                if *pos >= chars.len() || chars[*pos] != ')' {
                    return Err("unclosed group".into());
                }
                *pos += 1;
                Ok(inner)
            }
            '[' => {
                *pos += 1;
                let mut ranges = Vec::new();
                while *pos < chars.len() && chars[*pos] != ']' {
                    let mut c = chars[*pos];
                    if c == '\\' && *pos + 1 < chars.len() {
                        *pos += 1;
                        c = chars[*pos];
                    }
                    *pos += 1;
                    if *pos + 1 < chars.len() && chars[*pos] == '-' && chars[*pos + 1] != ']' {
                        let hi = chars[*pos + 1];
                        *pos += 2;
                        ranges.push((c, hi));
                    } else {
                        ranges.push((c, c));
                    }
                }
                if *pos >= chars.len() {
                    return Err("unclosed class".into());
                }
                *pos += 1;
                Ok(Node::Class(ranges))
            }
            '\\' => {
                *pos += 1;
                if *pos >= chars.len() {
                    return Err("dangling escape".into());
                }
                let c = chars[*pos];
                *pos += 1;
                match c {
                    'P' | 'p' => {
                        // Unicode category escape: consume the category
                        // name (`C`, or `{..}`) and generate printables.
                        if *pos < chars.len() && chars[*pos] == '{' {
                            while *pos < chars.len() && chars[*pos] != '}' {
                                *pos += 1;
                            }
                            *pos += 1;
                        } else if *pos < chars.len() {
                            *pos += 1;
                        }
                        Ok(Node::AnyPrintable)
                    }
                    'd' => Ok(Node::Class(vec![('0', '9')])),
                    'w' => Ok(Node::Class(vec![
                        ('a', 'z'),
                        ('A', 'Z'),
                        ('0', '9'),
                        ('_', '_'),
                    ])),
                    'n' => Ok(Node::Literal('\n')),
                    't' => Ok(Node::Literal('\t')),
                    other => Ok(Node::Literal(other)),
                }
            }
            '.' => {
                *pos += 1;
                Ok(Node::Class(vec![(' ', '~')]))
            }
            c => {
                *pos += 1;
                Ok(Node::Literal(c))
            }
        }
    }

    fn parse_quant(chars: &[char], pos: &mut usize, atom: Node) -> Result<Node, String> {
        if *pos >= chars.len() {
            return Ok(atom);
        }
        let node = match chars[*pos] {
            '*' => {
                *pos += 1;
                Node::Repeat(Box::new(atom), 0, UNBOUNDED_CAP)
            }
            '+' => {
                *pos += 1;
                Node::Repeat(Box::new(atom), 1, UNBOUNDED_CAP)
            }
            '?' => {
                *pos += 1;
                Node::Repeat(Box::new(atom), 0, 1)
            }
            '{' => {
                *pos += 1;
                let mut lo = String::new();
                while *pos < chars.len() && chars[*pos].is_ascii_digit() {
                    lo.push(chars[*pos]);
                    *pos += 1;
                }
                let lo: u32 = lo.parse().map_err(|_| "bad repetition".to_string())?;
                let hi = if *pos < chars.len() && chars[*pos] == ',' {
                    *pos += 1;
                    let mut hi = String::new();
                    while *pos < chars.len() && chars[*pos].is_ascii_digit() {
                        hi.push(chars[*pos]);
                        *pos += 1;
                    }
                    if hi.is_empty() {
                        lo + UNBOUNDED_CAP
                    } else {
                        hi.parse().map_err(|_| "bad repetition".to_string())?
                    }
                } else {
                    lo
                };
                if *pos >= chars.len() || chars[*pos] != '}' {
                    return Err("unclosed repetition".into());
                }
                *pos += 1;
                Node::Repeat(Box::new(atom), lo, hi)
            }
            _ => return Ok(atom),
        };
        Ok(node)
    }
}

/// Number of cases per property (env `PROPTEST_CASES` overrides).
pub fn cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(64)
}

pub mod prelude {
    //! The glob-import surface, mirroring `proptest::prelude`.
    pub use crate::test_runner::{TestCaseError, TestCaseResult};
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
        Arbitrary, BoxedStrategy, Just, Strategy,
    };
}

/// Assert a condition inside a property; failure reports the case.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return Err($crate::test_runner::TestCaseError::fail(concat!(
                "assertion failed: ",
                stringify!($cond)
            )));
        }
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return Err($crate::test_runner::TestCaseError::fail(format!($($fmt)*)));
        }
    };
}

/// Assert equality inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr $(,)?) => {{
        let (a, b) = (&$a, &$b);
        if !(*a == *b) {
            return Err($crate::test_runner::TestCaseError::fail(format!(
                "assertion failed: `{:?}` != `{:?}`",
                a, b
            )));
        }
    }};
    ($a:expr, $b:expr, $($fmt:tt)*) => {{
        let (a, b) = (&$a, &$b);
        if !(*a == *b) {
            return Err($crate::test_runner::TestCaseError::fail(format!($($fmt)*)));
        }
    }};
}

/// Assert inequality inside a property.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr $(,)?) => {{
        let (a, b) = (&$a, &$b);
        if *a == *b {
            return Err($crate::test_runner::TestCaseError::fail(format!(
                "assertion failed: `{:?}` == `{:?}`",
                a, b
            )));
        }
    }};
}

/// Reject the current case (it does not count toward the case total).
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return Err($crate::test_runner::TestCaseError::Reject);
        }
    };
}

/// Uniform choice among strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strategy:expr),+ $(,)?) => {
        $crate::OneOf(vec![$($crate::Strategy::boxed($strategy)),+])
    };
}

/// Define property tests. Each `fn name(pat in strategy, ...) { body }`
/// becomes a `#[test]` running `cases()` generated cases.
#[macro_export]
macro_rules! proptest {
    ($(#![proptest_config($cfg:expr)])? $($(#[$meta:meta])* fn $name:ident($($pat:pat in $strategy:expr),+ $(,)?) $body:block)*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let strategies = ($($strategy,)+);
                let mut rng = $crate::TestRng::from_name(concat!(module_path!(), "::", stringify!($name)));
                let cases = $crate::cases();
                let mut accepted = 0u32;
                let mut attempts = 0u32;
                while accepted < cases {
                    attempts += 1;
                    if attempts > cases * 20 {
                        panic!("too many rejected cases in {}", stringify!($name));
                    }
                    // A tuple of strategies is itself a strategy for a
                    // tuple of values; destructure into the parameters.
                    let ($($pat,)+) =
                        $crate::Strategy::gen(&strategies, &mut rng, $crate::DEFAULT_DEPTH);
                    let outcome: $crate::test_runner::TestCaseResult = (|| {
                        $body
                        #[allow(unreachable_code)]
                        Ok(())
                    })();
                    match outcome {
                        Ok(()) => accepted += 1,
                        Err($crate::test_runner::TestCaseError::Reject) => continue,
                        Err($crate::test_runner::TestCaseError::Fail(msg)) => {
                            panic!(
                                "property {} failed at case {accepted} (attempt {attempts}): {msg}",
                                stringify!($name)
                            );
                        }
                    }
                }
            }
        )*
    };
}
