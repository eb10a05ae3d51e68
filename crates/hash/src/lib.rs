//! Fast, dependency-free hashing and pseudo-randomness for the ctxform
//! workspace.
//!
//! The solver's inner loops are dominated by hash-map probes keyed on
//! small `Copy` values (interned context-string handles, entity ids, and
//! tuples thereof). The standard library's default SipHash is a keyed,
//! DoS-resistant hash — robustness the solver does not need and pays for
//! on every probe. [`FxHasher`] implements the multiply-rotate scheme used
//! by the Rust compiler's own interning tables: one `wrapping_mul` and one
//! `rotate_left` per word of input, no key material, no finalization.
//!
//! The crate also provides [`SplitMix64`], a tiny deterministic PRNG
//! (splitmix64 state advance + xorshift-style output mixing) used by the
//! synthetic-workload generator and the randomized property tests, so the
//! workspace needs no external `rand` dependency and builds with no
//! network access.
//!
//! Finally, [`hash_words`], [`hash_str`] and [`MultisetDigest`] build
//! stable, platform-independent content digests: each element is
//! finalized with murmur3's `fmix64`, and a multiset of element
//! hashes is combined by wrapping addition, so the digest of a set does
//! not depend on the order it is visited in.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// The multiplicative constant of the Fx scheme (a large prime close to
/// the golden ratio scaled to 64 bits, as used by rustc and Firefox).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// A fast, non-cryptographic, non-keyed hasher for small keys.
///
/// Each input word is folded into the state with
/// `state = (state.rotate_left(5) ^ word) * SEED`. This is *not*
/// HashDoS-resistant; use it only on trusted, internally generated keys
/// (interner handles, entity ids) — exactly what the solver hashes.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        // Fold 8 bytes at a time; the tail is zero-padded. Keys in this
        // workspace are fixed-width tuples, so this path is rarely taken
        // with a non-multiple-of-8 length.
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let mut buf = [0u8; 8];
            buf.copy_from_slice(chunk);
            self.add_to_hash(u64::from_le_bytes(buf));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rest.len()].copy_from_slice(rest);
            self.add_to_hash(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_u128(&mut self, i: u128) {
        self.add_to_hash(i as u64);
        self.add_to_hash((i >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }
}

/// `BuildHasher` producing [`FxHasher`]s.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` keyed with [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// A `HashSet` keyed with [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, FxBuildHasher>;

/// Creates an empty [`FxHashMap`] with at least `capacity` slots.
pub fn fx_map_with_capacity<K, V>(capacity: usize) -> FxHashMap<K, V> {
    FxHashMap::with_capacity_and_hasher(capacity, FxBuildHasher::default())
}

/// Creates an empty [`FxHashSet`] with at least `capacity` slots.
pub fn fx_set_with_capacity<T>(capacity: usize) -> FxHashSet<T> {
    FxHashSet::with_capacity_and_hasher(capacity, FxBuildHasher::default())
}

/// Hashes one `Hash` value to a `u64` with [`FxHasher`] (used for the
/// deterministic result digests of the bench-regression harness).
pub fn fx_hash_one<T: std::hash::Hash>(value: &T) -> u64 {
    let mut h = FxHasher::default();
    value.hash(&mut h);
    h.finish()
}

/// murmur3's 64-bit finalizer: a bijective avalanche mix, so that
/// sums of finalized words behave like sums of independent random
/// values (bare Fx output does not: it is linear in its last word).
#[inline]
const fn fmix64(mut k: u64) -> u64 {
    k ^= k >> 33;
    k = k.wrapping_mul(0xff51_afd7_ed55_8ccd);
    k ^= k >> 33;
    k = k.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    k ^ (k >> 33)
}

/// The start state of [`hash_words`] and [`hash_str`]. Not zero: zero
/// is a fixed point of both the Fx fold of zero words and `fmix64`,
/// so a zero start would hash `[]`, `[0]` and `[0, 0]` alike.
const DIGEST_START: FxHasher = FxHasher {
    hash: 0x9e37_79b9_7f4a_7c15,
};

/// A finalized hash of a fixed sequence of words: Fx-folds `words`,
/// then applies murmur3's `fmix64`. Deterministic on every platform.
#[inline]
pub fn hash_words(words: &[u64]) -> u64 {
    let mut h = DIGEST_START;
    for &w in words {
        h.add_to_hash(w);
    }
    fmix64(h.finish())
}

/// A finalized hash of a string's bytes and length. Deterministic on
/// every platform.
pub fn hash_str(s: &str) -> u64 {
    let mut h = DIGEST_START;
    h.write(s.as_bytes());
    h.add_to_hash(s.len() as u64);
    fmix64(h.finish())
}

/// An order-independent digest of a multiset of element hashes: the
/// wrapping sum of the hashes, with the element count folded in at
/// [`finish`](Self::finish). Feed it finalized hashes (e.g. from
/// [`hash_words`]); the result does not depend on insertion order.
///
/// ```
/// use ctxform_hash::{hash_words, MultisetDigest};
/// let (a, b) = (hash_words(&[1]), hash_words(&[2]));
/// let mut x = MultisetDigest::default();
/// x.add(a);
/// x.add(b);
/// let mut y = MultisetDigest::default();
/// y.add(b);
/// y.add(a);
/// assert_eq!(x.finish(), y.finish());
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct MultisetDigest {
    sum: u64,
    count: u64,
}

impl MultisetDigest {
    /// Adds one element hash.
    #[inline]
    pub fn add(&mut self, hash: u64) {
        self.sum = self.sum.wrapping_add(hash);
        self.count += 1;
    }

    /// The digest of every hash added so far.
    pub fn finish(self) -> u64 {
        hash_words(&[self.sum, self.count])
    }
}

/// A small deterministic PRNG: splitmix64 state advance with
/// xorshift-multiply output mixing (Vigna's reference finalizer).
///
/// Streams are fully determined by the seed, which is what the synthetic
/// workload generator needs: identical programs on every machine and
/// every run, with no external dependency.
///
/// ```
/// use ctxform_hash::SplitMix64;
/// let mut a = SplitMix64::new(42);
/// let mut b = SplitMix64::new(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// assert!(SplitMix64::new(1).next_u64() != SplitMix64::new(2).next_u64());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// The next 64 uniformly distributed bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform value in `0..n`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[inline]
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "SplitMix64::below(0)");
        // Lemire-style multiply-shift range reduction; the bias for the
        // small `n` used here (program-shape choices) is ≤ 2⁻⁵⁰.
        let x = self.next_u64() as u128;
        ((x * n as u128) >> 64) as usize
    }

    /// A uniform value in the inclusive range `lo..=hi` (requires
    /// `lo <= hi`).
    #[inline]
    pub fn range_inclusive(&mut self, lo: usize, hi: usize) -> usize {
        assert!(lo <= hi, "range_inclusive({lo}, {hi})");
        lo + self.below(hi - lo + 1)
    }

    /// `true` with probability `percent / 100`.
    #[inline]
    pub fn percent(&mut self, percent: usize) -> bool {
        self.below(100) < percent
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fx_hash_is_deterministic_and_spreads() {
        let a = fx_hash_one(&(1u32, 2u32));
        let b = fx_hash_one(&(1u32, 2u32));
        let c = fx_hash_one(&(2u32, 1u32));
        assert_eq!(a, b);
        assert_ne!(a, c);
        // Nearby keys should not collide in the low bits (bucket index).
        let mut low_bits = HashSet::new();
        for i in 0u32..1024 {
            low_bits.insert(fx_hash_one(&i) & 0xFFF);
        }
        assert!(
            low_bits.len() > 900,
            "only {} distinct low-bit patterns",
            low_bits.len()
        );
    }

    #[test]
    fn fx_map_and_set_work_as_containers() {
        let mut m: FxHashMap<(u32, u32), u32> = fx_map_with_capacity(16);
        m.insert((1, 2), 3);
        assert_eq!(m.get(&(1, 2)), Some(&3));
        let mut s: FxHashSet<u64> = fx_set_with_capacity(16);
        assert!(s.insert(7));
        assert!(!s.insert(7));
    }

    #[test]
    fn hasher_handles_unaligned_byte_writes() {
        let mut h1 = FxHasher::default();
        h1.write(b"hello world, context transformations");
        let mut h2 = FxHasher::default();
        h2.write(b"hello world, context transformationz");
        assert_ne!(h1.finish(), h2.finish());
    }

    #[test]
    fn multiset_digest_counts_multiplicity_and_ignores_order() {
        let (a, b) = (hash_str("a"), hash_str("b"));
        let digest = |hashes: &[u64]| {
            let mut d = MultisetDigest::default();
            hashes.iter().for_each(|&h| d.add(h));
            d.finish()
        };
        assert_eq!(digest(&[a, b]), digest(&[b, a]));
        assert_ne!(digest(&[a]), digest(&[a, a]));
        assert_ne!(digest(&[]), digest(&[0]));
        assert_ne!(hash_words(&[1, 2]), hash_words(&[2, 1]));
        assert_ne!(hash_words(&[]), hash_words(&[0]));
        assert_ne!(hash_words(&[0]), hash_words(&[0, 0]));
        assert_ne!(hash_str(""), 0);
        assert_ne!(hash_str("ab"), hash_str("ab\0"));
        assert_eq!(fmix64(0), 0);
    }

    #[test]
    fn splitmix_streams_are_deterministic() {
        let mut a = SplitMix64::new(0xDEAD_BEEF);
        let first: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let mut b = SplitMix64::new(0xDEAD_BEEF);
        let second: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_eq!(first, second);
    }

    #[test]
    fn below_is_in_range_and_roughly_uniform() {
        let mut rng = SplitMix64::new(7);
        let mut counts = [0usize; 10];
        for _ in 0..10_000 {
            let v = rng.below(10);
            assert!(v < 10);
            counts[v] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            assert!(c > 700 && c < 1300, "bucket {i} has {c} hits");
        }
        assert_eq!(rng.range_inclusive(3, 3), 3);
        let v = rng.range_inclusive(2, 5);
        assert!((2..=5).contains(&v));
    }
}
