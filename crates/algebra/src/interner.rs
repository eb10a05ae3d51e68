//! Hash-consed context strings.
//!
//! A *method context* is a string over elemental contexts ([`CtxtElem`]),
//! top-most element first, k-limited by the analysis levels. Contexts are
//! interned in a trie that extends at the *end* of the string, so:
//!
//! * every prefix of an interned string is itself interned,
//! * `prefix` and `is_prefix` are parent-pointer walks that need no
//!   mutable access and no allocation, and
//! * a [`CtxtStr`] is a 4-byte copyable handle with O(1) equality.
//!
//! The prefix-walk operations are exactly what the solver's specialized
//! transformer-string join indices (paper §7) need.

use std::fmt;

use ctxform_hash::FxHashMap;

use crate::elem::CtxtElem;

/// An interned context string (a handle into a [`CtxtInterner`]).
///
/// `CtxtStr::EMPTY` is the empty string in every interner.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CtxtStr(u32);

impl CtxtStr {
    /// The empty context string, valid in every interner.
    pub const EMPTY: CtxtStr = CtxtStr(0);

    /// Raw handle value (for compact serialization).
    pub fn raw(self) -> u32 {
        self.0
    }
}

#[derive(Debug, Clone, Copy)]
struct Node {
    parent: CtxtStr,
    last: CtxtElem,
    len: u32,
}

/// Interner for context strings.
///
/// ```
/// use ctxform_algebra::{CtxtInterner, CtxtElem, CtxtStr};
///
/// let mut it = CtxtInterner::new();
/// let a = CtxtElem::entry();
/// let b = CtxtElem::of_inv(ctxform_ir::Inv(0));
/// let s = it.from_slice(&[b, a]); // the context [b, a]
/// assert_eq!(it.len(s), 2);
/// assert_eq!(it.prefix(s, 1), it.from_slice(&[b]));
/// assert!(it.is_prefix(CtxtStr::EMPTY, s));
/// ```
#[derive(Debug, Clone)]
pub struct CtxtInterner {
    nodes: Vec<Node>,
    snoc_map: FxHashMap<(CtxtStr, CtxtElem), CtxtStr>,
}

impl Default for CtxtInterner {
    fn default() -> Self {
        Self::new()
    }
}

impl CtxtInterner {
    /// Creates an interner containing only the empty string.
    pub fn new() -> Self {
        CtxtInterner {
            // Slot 0 is the empty string; its node fields are never read.
            nodes: vec![Node {
                parent: CtxtStr(0),
                last: CtxtElem::entry(),
                len: 0,
            }],
            snoc_map: FxHashMap::default(),
        }
    }

    /// Number of distinct strings interned so far (including ε).
    pub fn interned_count(&self) -> usize {
        self.nodes.len()
    }

    /// Appends `elem` at the end of `s`.
    pub fn snoc(&mut self, s: CtxtStr, elem: CtxtElem) -> CtxtStr {
        if let Some(&id) = self.snoc_map.get(&(s, elem)) {
            return id;
        }
        let id = CtxtStr(u32::try_from(self.nodes.len()).expect("too many context strings"));
        let len = self.nodes[s.0 as usize].len + 1;
        self.nodes.push(Node {
            parent: s,
            last: elem,
            len,
        });
        self.snoc_map.insert((s, elem), id);
        id
    }

    /// Interns a full string given front-to-back (top-most element first).
    pub fn from_slice(&mut self, elems: &[CtxtElem]) -> CtxtStr {
        let mut s = CtxtStr::EMPTY;
        for &e in elems {
            s = self.snoc(s, e);
        }
        s
    }

    /// Length of `s`.
    pub fn len(&self, s: CtxtStr) -> usize {
        self.nodes[s.0 as usize].len as usize
    }

    /// `true` iff `s` is the empty string.
    pub fn is_empty(&self, s: CtxtStr) -> bool {
        self.len(s) == 0
    }

    /// The string without its final element.
    ///
    /// # Panics
    ///
    /// Panics if `s` is empty.
    pub fn parent(&self, s: CtxtStr) -> CtxtStr {
        assert!(!self.is_empty(s), "parent of empty context string");
        self.nodes[s.0 as usize].parent
    }

    /// The final element of `s`.
    ///
    /// # Panics
    ///
    /// Panics if `s` is empty.
    pub fn last(&self, s: CtxtStr) -> CtxtElem {
        assert!(!self.is_empty(s), "last of empty context string");
        self.nodes[s.0 as usize].last
    }

    /// `prefix_k(s)`: the first `min(k, len)` elements (paper §2.3).
    ///
    /// Requires no mutation: every prefix is already interned.
    pub fn prefix(&self, s: CtxtStr, k: usize) -> CtxtStr {
        let mut cur = s;
        let mut len = self.len(s);
        while len > k {
            cur = self.nodes[cur.0 as usize].parent;
            len -= 1;
        }
        cur
    }

    /// `true` iff `a` is a (possibly equal) prefix of `b`.
    pub fn is_prefix(&self, a: CtxtStr, b: CtxtStr) -> bool {
        let la = self.len(a);
        let lb = self.len(b);
        la <= lb && self.prefix(b, la) == a
    }

    /// `drop_k(s)`: the suffix after removing the first `min(k, len)`
    /// elements (paper §2.3). May intern new strings, hence `&mut`;
    /// allocation-free (recursion depth is `len(s)`, bounded by the
    /// k-limits of the analysis).
    pub fn drop_front(&mut self, s: CtxtStr, k: usize) -> CtxtStr {
        if k == 0 {
            return s;
        }
        if self.len(s) <= k {
            return CtxtStr::EMPTY;
        }
        let (p, l) = {
            let node = self.nodes[s.0 as usize];
            (node.parent, node.last)
        };
        let head = self.drop_front(p, k);
        self.snoc(head, l)
    }

    /// Pushes `elem` onto the *front* of `s` (most-recent position).
    /// Allocation-free; recursion depth is `len(s)`.
    pub fn push_front(&mut self, elem: CtxtElem, s: CtxtStr) -> CtxtStr {
        if self.is_empty(s) {
            return self.snoc(CtxtStr::EMPTY, elem);
        }
        let (p, l) = {
            let node = self.nodes[s.0 as usize];
            (node.parent, node.last)
        };
        let head = self.push_front(elem, p);
        self.snoc(head, l)
    }

    /// Concatenation `a · b`. Allocation-free; recursion depth is `len(b)`.
    pub fn concat(&mut self, a: CtxtStr, b: CtxtStr) -> CtxtStr {
        if self.is_empty(b) {
            return a;
        }
        let (p, l) = {
            let node = self.nodes[b.0 as usize];
            (node.parent, node.last)
        };
        let head = self.concat(a, p);
        self.snoc(head, l)
    }

    /// The elements of `s`, back-to-front (last element first): the order
    /// the parent-pointer trie stores them in, yielded with no allocation.
    pub fn rev_elems(&self, s: CtxtStr) -> RevElems<'_> {
        RevElems {
            interner: self,
            cur: s,
        }
    }

    /// The elements of `s`, front-to-back.
    pub fn elems(&self, s: CtxtStr) -> Vec<CtxtElem> {
        let mut out: Vec<CtxtElem> = self.rev_elems(s).collect();
        out.reverse();
        out
    }

    /// `true` iff the *last* `n` elements of `a` and `b` (counted from each
    /// string's end) are equal, where `n = len(a) - ka = len(b) - kb`.
    ///
    /// Used by transformer-string subsumption: `(E, N)` is subsumed by a
    /// shorter wildcard-free transformer exactly when the two suffixes
    /// beyond the shorter transformer agree.
    ///
    /// # Precondition
    ///
    /// `ka <= len(a)` and `kb <= len(b)`: the caller asks about the suffix
    /// *beyond* a genuine prefix. Violations are a caller bug, checked with
    /// `debug_assert!`; release builds saturate (treating the suffix as
    /// empty) instead of wrapping the subtraction around.
    pub fn suffix_eq(&self, a: CtxtStr, ka: usize, b: CtxtStr, kb: usize) -> bool {
        debug_assert!(
            ka <= self.len(a),
            "suffix_eq: ka={ka} > len(a)={}",
            self.len(a)
        );
        debug_assert!(
            kb <= self.len(b),
            "suffix_eq: kb={kb} > len(b)={}",
            self.len(b)
        );
        let na = self.len(a).saturating_sub(ka);
        let nb = self.len(b).saturating_sub(kb);
        if na != nb {
            return false;
        }
        let mut x = a;
        let mut y = b;
        for _ in 0..na {
            if self.last(x) != self.last(y) {
                return false;
            }
            x = self.parent(x);
            y = self.parent(y);
        }
        true
    }

    /// Formats `s` with a custom element renderer.
    pub fn display_with<F>(&self, s: CtxtStr, render: F) -> String
    where
        F: FnMut(CtxtElem) -> String,
    {
        let parts: Vec<String> = self.elems(s).into_iter().map(render).collect();
        parts.join("·")
    }

    /// Formats `s` with the default element renderer.
    pub fn display(&self, s: CtxtStr) -> String {
        self.display_with(s, |e| e.to_string())
    }
}

/// Iterator over the elements of a context string, back-to-front
/// (see [`CtxtInterner::rev_elems`]).
#[derive(Debug, Clone)]
pub struct RevElems<'a> {
    interner: &'a CtxtInterner,
    cur: CtxtStr,
}

impl Iterator for RevElems<'_> {
    type Item = CtxtElem;

    fn next(&mut self) -> Option<CtxtElem> {
        if self.interner.is_empty(self.cur) {
            return None;
        }
        let node = self.interner.nodes[self.cur.0 as usize];
        self.cur = node.parent;
        Some(node.last)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.interner.len(self.cur);
        (n, Some(n))
    }
}

impl ExactSizeIterator for RevElems<'_> {}

impl fmt::Display for CtxtStr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ctx#{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctxform_ir::{Heap, Inv};

    fn elems3() -> [CtxtElem; 3] {
        [
            CtxtElem::of_inv(Inv(1)),
            CtxtElem::of_heap(Heap(2)),
            CtxtElem::entry(),
        ]
    }

    #[test]
    fn interning_is_canonical() {
        let mut it = CtxtInterner::new();
        let [a, b, c] = elems3();
        let s1 = it.from_slice(&[a, b, c]);
        let s2 = it.from_slice(&[a, b, c]);
        assert_eq!(s1, s2);
        let s3 = it.from_slice(&[a, c, b]);
        assert_ne!(s1, s3);
    }

    #[test]
    fn prefix_walks_to_front() {
        let mut it = CtxtInterner::new();
        let [a, b, c] = elems3();
        let s = it.from_slice(&[a, b, c]);
        assert_eq!(it.prefix(s, 0), CtxtStr::EMPTY);
        assert_eq!(it.prefix(s, 2), it.from_slice(&[a, b]));
        assert_eq!(it.prefix(s, 3), s);
        assert_eq!(it.prefix(s, 99), s);
    }

    #[test]
    fn is_prefix_relation() {
        let mut it = CtxtInterner::new();
        let [a, b, c] = elems3();
        let ab = it.from_slice(&[a, b]);
        let abc = it.from_slice(&[a, b, c]);
        let ac = it.from_slice(&[a, c]);
        assert!(it.is_prefix(ab, abc));
        assert!(it.is_prefix(abc, abc));
        assert!(it.is_prefix(CtxtStr::EMPTY, abc));
        assert!(!it.is_prefix(abc, ab));
        assert!(!it.is_prefix(ac, abc));
    }

    #[test]
    fn drop_front_and_push_front() {
        let mut it = CtxtInterner::new();
        let [a, b, c] = elems3();
        let abc = it.from_slice(&[a, b, c]);
        assert_eq!(it.drop_front(abc, 1), it.from_slice(&[b, c]));
        assert_eq!(it.drop_front(abc, 3), CtxtStr::EMPTY);
        assert_eq!(it.drop_front(abc, 9), CtxtStr::EMPTY);
        let bc = it.from_slice(&[b, c]);
        assert_eq!(it.push_front(a, bc), abc);
    }

    #[test]
    fn concat_and_elems_round_trip() {
        let mut it = CtxtInterner::new();
        let [a, b, c] = elems3();
        let ab = it.from_slice(&[a, b]);
        let c1 = it.from_slice(&[c]);
        let abc = it.concat(ab, c1);
        assert_eq!(it.elems(abc), vec![a, b, c]);
        assert_eq!(it.concat(CtxtStr::EMPTY, ab), ab);
        assert_eq!(it.concat(ab, CtxtStr::EMPTY), ab);
    }

    #[test]
    fn rev_elems_yields_back_to_front_without_alloc() {
        let mut it = CtxtInterner::new();
        let [a, b, c] = elems3();
        let abc = it.from_slice(&[a, b, c]);
        let rev: Vec<CtxtElem> = it.rev_elems(abc).collect();
        assert_eq!(rev, vec![c, b, a]);
        assert_eq!(it.rev_elems(abc).len(), 3);
        assert_eq!(it.rev_elems(CtxtStr::EMPTY).count(), 0);
    }

    #[test]
    fn suffix_eq_compares_tails() {
        let mut it = CtxtInterner::new();
        let [a, b, c] = elems3();
        let xbc = it.from_slice(&[a, b, c]);
        let ybc = it.from_slice(&[c, b, c]);
        // suffixes after dropping 1 element: [b, c] vs [b, c]
        assert!(it.suffix_eq(xbc, 1, ybc, 1));
        // suffixes [a, b, c] vs [c, b, c] differ
        assert!(!it.suffix_eq(xbc, 0, ybc, 0));
        // length mismatch
        assert!(!it.suffix_eq(xbc, 0, ybc, 1));
        // empty suffixes agree
        assert!(it.suffix_eq(xbc, 3, ybc, 3));
    }

    #[test]
    fn display_joins_with_dots() {
        let mut it = CtxtInterner::new();
        let [a, b, _] = elems3();
        let s = it.from_slice(&[a, b]);
        assert_eq!(it.display(s), format!("{a}·{b}"));
        assert_eq!(it.display(CtxtStr::EMPTY), "");
    }
}
