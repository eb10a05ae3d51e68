//! Boundary-indexed fact containers — the §7 join-specialization analogue.
//!
//! The paper recovers efficient Datalog joins for transformer strings by
//! splitting each relation into one specialized relation per transformer
//! configuration, so the shared boundary letters become ordinary indexed
//! attributes. A [`Bucket`] realizes the same access pattern directly:
//!
//! * [`ctxform_algebra::BoundaryMode::Exact`] (context strings): a hash
//!   index keyed by the full boundary string — compositions require
//!   *equality* of the shared middle context.
//! * [`ctxform_algebra::BoundaryMode::Prefix`] (transformer strings): a
//!   two-map prefix index. `compose(B, C) ≠ ⊥` iff one of `B.entries`,
//!   `C.exits` is a prefix of the other, so a fact with boundary `b` is
//!   stored under `exact[b]` and under `proper[p]` for every proper prefix
//!   `p` of `b`; a query with boundary `q` reads `exact[p]` for every
//!   prefix `p` of `q` plus `proper[q]`. This retrieves *exactly* the
//!   compatible facts, with no scan.
//! * [`Bucket::Naive`]: a flat vector — every candidate is probed and the
//!   composition itself filters. This is the strawman implementation §7
//!   warns about, kept for the ablation benchmarks.
//!
//! A join index maps each key to a [`Slot`]: its bucket either owned
//! inline or frozen behind an `Arc`, so that versions of one database
//! share the buckets none of them has written to since.

use std::mem;
use std::ops::AddAssign;
use std::sync::Arc;

use ctxform_algebra::{BoundaryMode, CtxtInterner, CtxtStr};
use ctxform_hash::FxHashMap;

use crate::compact::CompactVec;

/// How a solver relation indexes its facts for composition joins.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum JoinStrategy {
    /// Index on the boundary string (per [`BoundaryMode`]); the paper's
    /// specialized scheme.
    #[default]
    Specialized,
    /// No boundary index; probe every candidate (the naive scheme whose
    /// "drastically increased cost" §7 reports).
    Naive,
}

/// Distinct boundary keys across a bucket's maps and stored value slots
/// (a `Prefix` bucket stores one slot per proper prefix, so `stored` can
/// exceed the fact count): what one [`Bucket::insert`] added, or a
/// running total over a join index. Feeds the
/// [`crate::MemoryFootprint`] byte estimates.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Occupancy {
    /// Distinct boundary keys.
    pub keys: usize,
    /// Stored value slots.
    pub stored: usize,
}

impl AddAssign for Occupancy {
    fn add_assign(&mut self, other: Occupancy) {
        self.keys += other.keys;
        self.stored += other.stored;
    }
}

/// Appends `value` under `key`; 1 if that created the key, else 0 (a
/// key's list is never empty once created).
fn push<V: Copy>(map: &mut FxHashMap<CtxtStr, CompactVec<V>>, key: CtxtStr, value: V) -> usize {
    let list = map.entry(key).or_default();
    list.push(value);
    usize::from(list.len() == 1)
}

/// A container of facts indexed by a boundary context string.
#[derive(Debug, Clone)]
pub enum Bucket<V: Copy> {
    /// Flat candidate list.
    Naive(Vec<V>),
    /// Equality index (context strings).
    Exact(FxHashMap<CtxtStr, CompactVec<V>>),
    /// Prefix-compatibility index (transformer strings).
    Prefix {
        /// Facts keyed by their full boundary string.
        exact: FxHashMap<CtxtStr, CompactVec<V>>,
        /// Facts keyed by every *proper* prefix of their boundary string.
        proper: FxHashMap<CtxtStr, CompactVec<V>>,
    },
}

impl<V: Copy> Bucket<V> {
    /// Creates an empty bucket for the given strategy and mode.
    pub fn new(strategy: JoinStrategy, mode: BoundaryMode) -> Self {
        match (strategy, mode) {
            (JoinStrategy::Naive, _) => Bucket::Naive(Vec::new()),
            (JoinStrategy::Specialized, BoundaryMode::Exact) => Bucket::Exact(FxHashMap::default()),
            (JoinStrategy::Specialized, BoundaryMode::Prefix) => Bucket::Prefix {
                exact: FxHashMap::default(),
                proper: FxHashMap::default(),
            },
        }
    }

    /// Inserts a fact with the given boundary string and reports what
    /// that added: the boundary keys it created and the value slots it
    /// stored (one, plus one per proper prefix under `Prefix`).
    pub fn insert(&mut self, boundary: CtxtStr, value: V, interner: &CtxtInterner) -> Occupancy {
        match self {
            Bucket::Naive(all) => {
                all.push(value);
                Occupancy { keys: 0, stored: 1 }
            }
            Bucket::Exact(map) => Occupancy {
                keys: push(map, boundary, value),
                stored: 1,
            },
            Bucket::Prefix { exact, proper } => {
                let mut added = Occupancy {
                    keys: push(exact, boundary, value),
                    stored: 1,
                };
                let mut p = boundary;
                while !interner.is_empty(p) {
                    p = interner.parent(p);
                    added.keys += push(proper, p, value);
                    added.stored += 1;
                }
                added
            }
        }
    }

    /// Visits every fact whose boundary is compatible with `query`
    /// (equal under `Exact`, mutually prefix-related under `Prefix`, all
    /// under `Naive`). Returns the number of candidates visited.
    pub fn for_compatible<F>(&self, query: CtxtStr, interner: &CtxtInterner, mut f: F) -> u64
    where
        F: FnMut(V),
    {
        let mut probes = 0;
        match self {
            Bucket::Naive(all) => {
                for &v in all {
                    probes += 1;
                    f(v);
                }
            }
            Bucket::Exact(map) => {
                if let Some(vs) = map.get(&query) {
                    for &v in vs.as_slice() {
                        probes += 1;
                        f(v);
                    }
                }
            }
            Bucket::Prefix { exact, proper } => {
                // Boundaries that are a (possibly equal) prefix of `query`.
                let mut p = query;
                loop {
                    if let Some(vs) = exact.get(&p) {
                        for &v in vs.as_slice() {
                            probes += 1;
                            f(v);
                        }
                    }
                    if interner.is_empty(p) {
                        break;
                    }
                    p = interner.parent(p);
                }
                // Boundaries strictly longer than `query` that extend it.
                if let Some(vs) = proper.get(&query) {
                    for &v in vs.as_slice() {
                        probes += 1;
                        f(v);
                    }
                }
            }
        }
        probes
    }

    /// The bucket's occupancy recounted from its maps: the oracle for
    /// the running totals [`insert`](Self::insert) reports.
    #[cfg(test)]
    pub(crate) fn occupancy(&self) -> Occupancy {
        match self {
            Bucket::Naive(all) => Occupancy {
                keys: 0,
                stored: all.len(),
            },
            Bucket::Exact(map) => Occupancy {
                keys: map.len(),
                stored: map.values().map(CompactVec::len).sum(),
            },
            Bucket::Prefix { exact, proper } => Occupancy {
                keys: exact.len() + proper.len(),
                stored: exact
                    .values()
                    .chain(proper.values())
                    .map(CompactVec::len)
                    .sum(),
            },
        }
    }

    /// Visits every fact in the bucket.
    pub fn for_each<F>(&self, mut f: F)
    where
        F: FnMut(V),
    {
        match self {
            Bucket::Naive(all) => all.iter().copied().for_each(f),
            Bucket::Exact(map) => {
                for vs in map.values() {
                    vs.iter().for_each(&mut f);
                }
            }
            Bucket::Prefix { exact, .. } => {
                for vs in exact.values() {
                    vs.iter().for_each(&mut f);
                }
            }
        }
    }
}

/// One key's bucket in a join index: owned inline while a run writes to
/// it, frozen behind an `Arc` once the run that wrote it has ended.
///
/// Cloning a frozen slot bumps a reference count, so a clone of a frozen
/// index shares every bucket with its original. The first write to a
/// frozen slot ([`owned_mut`](Self::owned_mut)) replaces it with an
/// owned copy of that one bucket, so no version ever sees another's
/// writes. A fresh solve never freezes, and its inserts pay one
/// predictable branch; there is no per-insert atomic.
#[derive(Debug, Clone)]
pub(crate) enum Slot<V: Copy> {
    /// Written by the current run, or never frozen.
    Owned(Bucket<V>),
    /// Possibly shared with other versions of the database; read-only.
    Frozen(Arc<Bucket<V>>),
}

impl<V: Copy> Slot<V> {
    /// The bucket, whichever way it is held.
    #[inline]
    pub(crate) fn bucket(&self) -> &Bucket<V> {
        match self {
            Slot::Owned(bucket) => bucket,
            Slot::Frozen(shared) => shared,
        }
    }

    /// The bucket for writing. A frozen slot becomes owned first: it
    /// takes the bucket out of the `Arc` when no other version holds it,
    /// else copies that one bucket.
    #[inline]
    pub(crate) fn owned_mut(&mut self) -> &mut Bucket<V> {
        if let Slot::Frozen(shared) = self {
            let bucket = match Arc::get_mut(shared) {
                Some(unique) => mem::replace(unique, Bucket::Naive(Vec::new())),
                None => Bucket::clone(shared),
            };
            *self = Slot::Owned(bucket);
        }
        match self {
            Slot::Owned(bucket) => bucket,
            Slot::Frozen(_) => unreachable!("thawed above"),
        }
    }

    /// Freezes an owned slot, so clones share its bucket from now on.
    pub(crate) fn freeze(&mut self) {
        if let Slot::Owned(bucket) = self {
            let bucket = mem::replace(bucket, Bucket::Naive(Vec::new()));
            *self = Slot::Frozen(Arc::new(bucket));
        }
    }

    /// How many database versions hold this slot's bucket: 0 while it
    /// is owned, else the `Arc`'s strong count.
    #[cfg(test)]
    pub(crate) fn holders(&self) -> usize {
        match self {
            Slot::Owned(_) => 0,
            Slot::Frozen(shared) => Arc::strong_count(shared),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctxform_algebra::CtxtElem;
    use ctxform_ir::Inv;

    fn strings(it: &mut CtxtInterner) -> (CtxtStr, CtxtStr, CtxtStr, CtxtStr) {
        let a = CtxtElem::of_inv(Inv(1));
        let b = CtxtElem::of_inv(Inv(2));
        (
            CtxtStr::EMPTY,
            it.from_slice(&[a]),
            it.from_slice(&[a, b]),
            it.from_slice(&[b]),
        )
    }

    fn collect(bucket: &Bucket<u32>, q: CtxtStr, it: &CtxtInterner) -> Vec<u32> {
        let mut out = Vec::new();
        bucket.for_compatible(q, it, |v| out.push(v));
        out.sort_unstable();
        out
    }

    #[test]
    fn prefix_bucket_retrieves_exactly_compatible() {
        let mut it = CtxtInterner::new();
        let (eps, a, ab, b) = strings(&mut it);
        let mut bucket: Bucket<u32> = Bucket::new(JoinStrategy::Specialized, BoundaryMode::Prefix);
        bucket.insert(eps, 0, &it);
        bucket.insert(a, 1, &it);
        bucket.insert(ab, 2, &it);
        bucket.insert(b, 3, &it);
        // Query ε: compatible with everything (ε is a prefix of all).
        assert_eq!(collect(&bucket, eps, &it), vec![0, 1, 2, 3]);
        // Query [a]: ε, [a] (prefixes), [a,b] (extension); not [b].
        assert_eq!(collect(&bucket, a, &it), vec![0, 1, 2]);
        // Query [a,b]: ε, [a], [a,b]; not [b].
        assert_eq!(collect(&bucket, ab, &it), vec![0, 1, 2]);
        // Query [b]: ε and [b].
        assert_eq!(collect(&bucket, b, &it), vec![0, 3]);
    }

    #[test]
    fn exact_bucket_is_an_equality_join() {
        let mut it = CtxtInterner::new();
        let (eps, a, ab, _) = strings(&mut it);
        let mut bucket: Bucket<u32> = Bucket::new(JoinStrategy::Specialized, BoundaryMode::Exact);
        bucket.insert(a, 1, &it);
        bucket.insert(ab, 2, &it);
        assert_eq!(collect(&bucket, a, &it), vec![1]);
        assert_eq!(collect(&bucket, ab, &it), vec![2]);
        assert_eq!(collect(&bucket, eps, &it), Vec::<u32>::new());
    }

    #[test]
    fn naive_bucket_probes_everything() {
        let mut it = CtxtInterner::new();
        let (eps, a, _, b) = strings(&mut it);
        let mut bucket: Bucket<u32> = Bucket::new(JoinStrategy::Naive, BoundaryMode::Prefix);
        bucket.insert(a, 1, &it);
        bucket.insert(b, 2, &it);
        let probes = bucket.for_compatible(eps, &it, |_| {});
        assert_eq!(probes, 2);
        assert_eq!(collect(&bucket, a, &it), vec![1, 2]);
    }

    #[test]
    fn occupancy_accounts_for_prefix_slots() {
        let mut it = CtxtInterner::new();
        let (eps, a, ab, _) = strings(&mut it);
        let mut bucket: Bucket<u32> = Bucket::new(JoinStrategy::Specialized, BoundaryMode::Prefix);
        let mut total = Occupancy::default();
        // exact[ε]
        total += bucket.insert(eps, 0, &it);
        // exact[a], proper[ε]
        let added = bucket.insert(a, 1, &it);
        assert_eq!(added, Occupancy { keys: 2, stored: 2 });
        total += added;
        // exact[ab], proper[a], proper[ε] (proper[ε] already exists)
        let added = bucket.insert(ab, 2, &it);
        assert_eq!(added, Occupancy { keys: 2, stored: 3 });
        total += added;
        let recount = bucket.occupancy();
        assert_eq!(recount.keys, 3 + 2, "3 exact keys, proper keys ε and a");
        assert_eq!(
            recount.stored,
            3 + 3,
            "3 exact slots + 3 proper-prefix slots"
        );
        assert_eq!(total, recount, "the reported additions sum to the recount");
        let naive: Bucket<u32> = Bucket::Naive(vec![1, 2, 3]);
        assert_eq!(naive.occupancy(), Occupancy { keys: 0, stored: 3 });
    }

    #[test]
    fn a_write_to_a_shared_slot_copies_only_that_bucket() {
        let mut it = CtxtInterner::new();
        let (eps, a, ab, _) = strings(&mut it);
        let mut slot = Slot::Owned(Bucket::new(JoinStrategy::Specialized, BoundaryMode::Prefix));
        slot.owned_mut().insert(a, 1, &it);
        slot.freeze();
        let mut copy = slot.clone();
        assert_eq!((slot.holders(), copy.holders()), (2, 2), "a clone shares");
        copy.owned_mut().insert(ab, 2, &it);
        assert_eq!((slot.holders(), copy.holders()), (1, 0));
        assert_eq!(collect(slot.bucket(), eps, &it), vec![1]);
        assert_eq!(collect(copy.bucket(), eps, &it), vec![1, 2]);
        // A frozen bucket no other version holds is taken back as it is.
        slot.owned_mut().insert(eps, 0, &it);
        assert_eq!(collect(slot.bucket(), eps, &it), vec![0, 1]);
    }

    #[test]
    fn for_each_visits_all_once() {
        let mut it = CtxtInterner::new();
        let (eps, a, ab, _) = strings(&mut it);
        for strategy in [JoinStrategy::Specialized, JoinStrategy::Naive] {
            let mut bucket: Bucket<u32> = Bucket::new(strategy, BoundaryMode::Prefix);
            bucket.insert(eps, 0, &it);
            bucket.insert(a, 1, &it);
            bucket.insert(ab, 2, &it);
            let mut seen = Vec::new();
            bucket.for_each(|v| seen.push(v));
            seen.sort_unstable();
            assert_eq!(seen, vec![0, 1, 2]);
        }
    }
}
