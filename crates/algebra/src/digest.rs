//! Canonical, interning-independent hashes of context strings.
//!
//! A [`CtxtStr`] handle, and the entity ids packed into a
//! [`CtxtElem`](crate::CtxtElem), depend on the order in which one solve
//! happened to intern them: a from-scratch solve, an incremental
//! extension and a parallel solve of the same program number the same
//! context differently. A digest that must agree across all of them
//! therefore hashes what a handle *denotes* — the sequence of its
//! elements' names ([`CtxtElem::name`](crate::CtxtElem::name)) — and
//! never the handle itself.

use ctxform_hash::{hash_str, hash_words};
use ctxform_ir::Program;

use crate::interner::{CtxtInterner, CtxtStr};

/// Memoized name-based hashes of the strings of one [`CtxtInterner`].
///
/// A string's hash folds its parent's hash with the hash of its last
/// element's name, so each interned string is hashed once per digest, in
/// O(1), however many facts mention it. Two strings of one program get
/// equal hashes exactly when their element names are equal (up to 64-bit
/// hash collisions), whichever interner and handle they come from.
///
/// ```
/// use ctxform_algebra::{CtxtDigest, CtxtElem, CtxtInterner};
/// use ctxform_ir::{Inv, Program};
///
/// let program = Program {
///     inv_names: vec!["Main.main/0".into(), "Main.main/1".into()],
///     ..Program::default()
/// };
/// let (i0, i1) = (CtxtElem::of_inv(Inv(0)), CtxtElem::of_inv(Inv(1)));
/// // Two interners that number the same string differently.
/// let mut a = CtxtInterner::new();
/// let sa = a.from_slice(&[i0, i1]);
/// let mut b = CtxtInterner::new();
/// b.from_slice(&[i1]);
/// let sb = b.from_slice(&[i0, i1]);
/// assert_ne!(sa, sb);
/// assert_eq!(
///     CtxtDigest::new(&a, &program).ctxt(sa),
///     CtxtDigest::new(&b, &program).ctxt(sb)
/// );
/// ```
#[derive(Debug)]
pub struct CtxtDigest<'a> {
    interner: &'a CtxtInterner,
    program: &'a Program,
    /// The hash of each string computed so far, indexed by handle.
    memo: Vec<Option<u64>>,
}

impl<'a> CtxtDigest<'a> {
    /// An empty memo over `interner`, naming elements from `program`.
    pub fn new(interner: &'a CtxtInterner, program: &'a Program) -> Self {
        let mut memo = vec![None; interner.interned_count()];
        memo[CtxtStr::EMPTY.raw() as usize] = Some(hash_words(&[]));
        CtxtDigest {
            interner,
            program,
            memo,
        }
    }

    /// The hash of `s`, a string of this digest's interner. Recurses
    /// once per uncached prefix, so at most the k-limited length of `s`.
    pub fn ctxt(&mut self, s: CtxtStr) -> u64 {
        if let Some(hash) = self.memo[s.raw() as usize] {
            return hash;
        }
        let parent = self.ctxt(self.interner.parent(s));
        let last = hash_str(self.interner.last(s).name(self.program));
        let hash = hash_words(&[parent, last]);
        self.memo[s.raw() as usize] = Some(hash);
        hash
    }
}
