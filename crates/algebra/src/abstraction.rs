//! The abstraction interface the parameterized rules are instantiated with.
//!
//! Figure 3's deduction rules are parameterized by a context-transformation
//! domain and by the non-logical symbols `comp`, `inv`, `target`, `record`,
//! `merge`, and `merge_s`. [`Abstraction`] captures exactly that interface;
//! the three implementations are:
//!
//! * [`CStrings`] — the traditional context-string pairs (Fig. 4 left),
//! * [`TStrings`] — the paper's transformer strings (Fig. 4 right),
//! * [`Insensitive`] — the degenerate context-insensitive instantiation
//!   (every transformation abstracted to "don't know"), used as a baseline
//!   and for cross-checking against the generic Datalog engine.

use std::fmt::Debug;
use std::hash::Hash;

use ctxform_hash::hash_words;
use ctxform_ir::Program;

use crate::cstring::CPair;
use crate::digest::CtxtDigest;
use crate::elem::CtxtElem;
use crate::flavour::{Flavour, MergeSite, Sensitivity};
use crate::interner::{CtxtInterner, CtxtStr};
use crate::tstring::TStr;

/// How the solver may index facts for composition joins.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BoundaryMode {
    /// Two transformations compose iff their boundary strings are *equal*
    /// (context strings: the shared middle context).
    Exact,
    /// Two transformations compose iff one boundary string is a *prefix*
    /// of the other (transformer strings: the entries/exits cancellation).
    Prefix,
}

/// Truncation limits for one composition, i.e. the output domain
/// `CtxtT_{i,j}` of a `comp` occurrence in Fig. 3.
///
/// `Hash` lets the solver key its composition memo table on
/// `(a, b, Limits)` triples of copyable handles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Limits {
    /// Maximum source-side length (exits / source string).
    pub src: usize,
    /// Maximum destination-side length (entries / destination string).
    pub dst: usize,
}

/// A context-transformation abstraction: the non-logical symbols of
/// Figures 3 and 4.
///
/// All methods that may intern new context strings take `&mut self`; the
/// interner is owned by the abstraction.
pub trait Abstraction {
    /// The abstract transformation attached to each derived fact.
    type X: Copy + Eq + Ord + Hash + Debug;

    /// Human-readable name of the abstraction ("context strings", …).
    fn name(&self) -> &'static str;

    /// The sensitivity this abstraction is instantiated at, if any.
    fn sensitivity(&self) -> Option<Sensitivity>;

    /// Shared context-string interner.
    fn interner(&self) -> &CtxtInterner;

    /// Mutable access to the interner (used by the solver for entry
    /// contexts).
    fn interner_mut(&mut self) -> &mut CtxtInterner;

    /// `record(M)`: the transformation attached by the New rule when the
    /// allocating method is reachable in context `M`.
    fn record(&mut self, m: CtxtStr) -> Self::X;

    /// `comp(A, B, ·)`: composition `A ; B`, truncated into the output
    /// domain `limits`; `None` encodes ⊥ (the fact is not derived).
    fn compose(&mut self, a: Self::X, b: Self::X, limits: Limits) -> Option<Self::X>;

    /// `inv(A)`: the semigroup inverse.
    fn invert(&self, a: Self::X) -> Self::X;

    /// `target(A)`: the reachable-context prefix at the callee of a
    /// call-graph edge carrying `A`.
    fn target(&self, a: Self::X) -> CtxtStr;

    /// `merge(H, I, B)`: the call-edge transformation of a virtual
    /// invocation at `I` whose receiver points-to fact carries `B`.
    fn merge(&mut self, site: MergeSite, b: Self::X) -> Self::X;

    /// `merge_s(I, M)`: the call-edge transformation of a static invocation
    /// at `I` in a method reachable under (prefix) context `M`.
    fn merge_s(&mut self, inv: CtxtElem, m: CtxtStr) -> Self::X;

    /// Which join-index discipline is sound for this abstraction.
    fn boundary_mode(&self) -> BoundaryMode;

    /// The source-side boundary string of `x` (what `x` consumes when it
    /// appears as the *right* operand of a composition).
    fn src_boundary(&self, x: Self::X) -> CtxtStr;

    /// The destination-side boundary string of `x` (what `x` produces when
    /// it appears as the *left* operand of a composition).
    fn dst_boundary(&self, x: Self::X) -> CtxtStr;

    /// `true` iff the concretization of `a` includes that of `b`.
    /// Equality by default; transformer strings refine this (§8).
    fn subsumes(&self, a: Self::X, b: Self::X) -> bool {
        a == b
    }

    /// The "no information" transformation used when a relation is
    /// declared context-insensitive (e.g. `hpts` at `h = 0`).
    fn uninformative(&self) -> Self::X;

    /// `globalize(B)`: abstracts a `pts` transformation into the domain of
    /// static-field facts (`spts ⊆ Field × Heap × CtxtT_{h,·}`): the
    /// destination context becomes irrelevant because a static field is a
    /// global. Used by the SStore rule.
    fn globalize(&mut self, b: Self::X) -> Self::X;

    /// `load_global(B, M)`: the `pts` transformation of a static-field
    /// load observed in a method reachable under (prefix) context `M`.
    /// Context strings enumerate one fact per reachable `M`; transformer
    /// strings represent all of them with one wildcard fact. Used by the
    /// SLoad rule.
    fn load_global(&mut self, b: Self::X, m: CtxtStr) -> Self::X;

    /// Configuration tag of `x` in the `x*w?e*` sense of §7 (empty for
    /// abstractions without configurations).
    fn configuration(&self, _x: Self::X) -> String {
        String::new()
    }

    /// Renders `x` with entity names from `program`.
    fn display(&self, x: Self::X, program: &Program) -> String;

    /// A hash of `x` built from the names its context strings denote,
    /// never from handles: equal for equal [`display`](Self::display)
    /// renderings, whatever the interning order. `ctxt` must be a
    /// digest over this abstraction's [`interner`](Self::interner).
    fn digest(&self, x: Self::X, ctxt: &mut CtxtDigest<'_>) -> u64;
}

/// The context-string abstraction (Fig. 4, left column).
#[derive(Debug, Clone)]
pub struct CStrings {
    /// Flavour and levels this instance implements.
    pub sensitivity: Sensitivity,
    /// Owned context-string interner.
    pub interner: CtxtInterner,
}

impl CStrings {
    /// Creates a context-string abstraction for `sensitivity`.
    pub fn new(sensitivity: Sensitivity) -> Self {
        CStrings {
            sensitivity,
            interner: CtxtInterner::new(),
        }
    }
}

impl Abstraction for CStrings {
    type X = CPair;

    fn name(&self) -> &'static str {
        "context strings"
    }

    fn sensitivity(&self) -> Option<Sensitivity> {
        Some(self.sensitivity)
    }

    fn interner(&self) -> &CtxtInterner {
        &self.interner
    }

    fn interner_mut(&mut self) -> &mut CtxtInterner {
        &mut self.interner
    }

    fn record(&mut self, m: CtxtStr) -> CPair {
        let h = self.sensitivity.levels.heap;
        CPair {
            src: self.interner.prefix(m, h),
            dst: m,
        }
    }

    fn compose(&mut self, a: CPair, b: CPair, _limits: Limits) -> Option<CPair> {
        // Lengths are maintained by construction; composition is the
        // equality join of §4.1, no re-truncation needed.
        a.compose(b)
    }

    fn invert(&self, a: CPair) -> CPair {
        a.inverse()
    }

    fn target(&self, a: CPair) -> CtxtStr {
        a.dst
    }

    fn merge(&mut self, site: MergeSite, b: CPair) -> CPair {
        let m = self.sensitivity.levels.method;
        match self.sensitivity.flavour {
            Flavour::CallSite => {
                let kept = self.interner.prefix(b.dst, m - 1);
                let dst = self.interner.push_front(site.inv, kept);
                CPair { src: b.dst, dst }
            }
            Flavour::Object | Flavour::HybridObject => {
                let dst = self.interner.push_front(site.heap, b.src);
                CPair { src: b.dst, dst }
            }
            Flavour::Type => {
                let dst = self.interner.push_front(site.class, b.src);
                CPair { src: b.dst, dst }
            }
        }
    }

    fn merge_s(&mut self, inv: CtxtElem, m: CtxtStr) -> CPair {
        match self.sensitivity.flavour {
            Flavour::CallSite | Flavour::HybridObject => {
                let kept = self.interner.prefix(m, self.sensitivity.levels.method - 1);
                let dst = self.interner.push_front(inv, kept);
                CPair { src: m, dst }
            }
            Flavour::Object | Flavour::Type => CPair { src: m, dst: m },
        }
    }

    fn uninformative(&self) -> CPair {
        CPair::EMPTY
    }

    fn globalize(&mut self, b: CPair) -> CPair {
        CPair {
            src: b.src,
            dst: CtxtStr::EMPTY,
        }
    }

    fn load_global(&mut self, b: CPair, m: CtxtStr) -> CPair {
        CPair { src: b.src, dst: m }
    }

    fn boundary_mode(&self) -> BoundaryMode {
        BoundaryMode::Exact
    }

    fn src_boundary(&self, x: CPair) -> CtxtStr {
        x.src
    }

    fn dst_boundary(&self, x: CPair) -> CtxtStr {
        x.dst
    }

    fn display(&self, x: CPair, program: &Program) -> String {
        x.display_with(&self.interner, |e| e.describe(program))
    }

    fn digest(&self, x: CPair, ctxt: &mut CtxtDigest<'_>) -> u64 {
        hash_words(&[ctxt.ctxt(x.src), ctxt.ctxt(x.dst)])
    }
}

/// The transformer-string abstraction (Fig. 4, right column).
#[derive(Debug, Clone)]
pub struct TStrings {
    /// Flavour and levels this instance implements.
    pub sensitivity: Sensitivity,
    /// Owned context-string interner.
    pub interner: CtxtInterner,
}

impl TStrings {
    /// Creates a transformer-string abstraction for `sensitivity`.
    pub fn new(sensitivity: Sensitivity) -> Self {
        TStrings {
            sensitivity,
            interner: CtxtInterner::new(),
        }
    }
}

impl Abstraction for TStrings {
    type X = TStr;

    fn name(&self) -> &'static str {
        "transformer strings"
    }

    fn sensitivity(&self) -> Option<Sensitivity> {
        Some(self.sensitivity)
    }

    fn interner(&self) -> &CtxtInterner {
        &self.interner
    }

    fn interner_mut(&mut self) -> &mut CtxtInterner {
        &mut self.interner
    }

    fn record(&mut self, _m: CtxtStr) -> TStr {
        TStr::IDENTITY
    }

    fn compose(&mut self, a: TStr, b: TStr, limits: Limits) -> Option<TStr> {
        a.compose_in(&mut self.interner, b, limits.src, limits.dst)
    }

    fn invert(&self, a: TStr) -> TStr {
        a.inverse()
    }

    fn target(&self, a: TStr) -> CtxtStr {
        a.entries
    }

    fn merge(&mut self, site: MergeSite, b: TStr) -> TStr {
        let m = self.sensitivity.levels.method;
        let raw = match self.sensitivity.flavour {
            // B⁻¹ ; B ; Î  =  B̄·w·B̂·Î (project onto the image of B, then
            // enter the call site).
            Flavour::CallSite => TStr {
                exits: b.entries,
                wild: b.wild,
                entries: self.interner.push_front(site.inv, b.entries),
            },
            // B⁻¹ ; Ĥ  =  B̄·w·Â·Ĥ (walk back to the receiver's allocation
            // context, then enter the receiver object's context).
            Flavour::Object | Flavour::HybridObject => TStr {
                exits: b.entries,
                wild: b.wild,
                entries: self.interner.push_front(site.heap, b.exits),
            },
            Flavour::Type => TStr {
                exits: b.entries,
                wild: b.wild,
                entries: self.interner.push_front(site.class, b.exits),
            },
        };
        raw.truncate(&self.interner, m, m)
    }

    fn merge_s(&mut self, inv: CtxtElem, m: CtxtStr) -> TStr {
        match self.sensitivity.flavour {
            Flavour::CallSite | Flavour::HybridObject => TStr::entry_of(&mut self.interner, inv),
            // M·M̂: the identity on contexts extending M, ⊥ elsewhere.
            Flavour::Object | Flavour::Type => TStr::projection(m),
        }
    }

    fn uninformative(&self) -> TStr {
        TStr::WILD
    }

    fn globalize(&mut self, b: TStr) -> TStr {
        // Keep the absolute constraint on the allocation context (the
        // exits), forget the destination side: B ; ∗.
        TStr {
            exits: b.exits,
            wild: true,
            entries: CtxtStr::EMPTY,
        }
    }

    fn load_global(&mut self, b: TStr, _m: CtxtStr) -> TStr {
        // Already destination-free: one fact covers every reachable
        // context of the loading method.
        b
    }

    fn boundary_mode(&self) -> BoundaryMode {
        BoundaryMode::Prefix
    }

    fn src_boundary(&self, x: TStr) -> CtxtStr {
        x.exits
    }

    fn dst_boundary(&self, x: TStr) -> CtxtStr {
        x.entries
    }

    fn subsumes(&self, a: TStr, b: TStr) -> bool {
        a.subsumes(&self.interner, b)
    }

    fn configuration(&self, x: TStr) -> String {
        x.configuration(&self.interner)
    }

    fn display(&self, x: TStr, program: &Program) -> String {
        x.display_with(&self.interner, |e| e.describe(program))
    }

    fn digest(&self, x: TStr, ctxt: &mut CtxtDigest<'_>) -> u64 {
        // Exits, the wildcard and entries keep their positions, so
        // `a·^b`, `^a·b` and `a·*·^b` hash apart.
        hash_words(&[ctxt.ctxt(x.exits), u64::from(x.wild), ctxt.ctxt(x.entries)])
    }
}

/// The context-insensitive instantiation: a single abstract transformation.
///
/// Running the parameterized rules with this abstraction yields exactly the
/// classic context-insensitive Andersen-style analysis, which doubles as a
/// baseline and as the cross-check target for the generic Datalog engine.
#[derive(Debug, Clone)]
pub struct Insensitive {
    interner: CtxtInterner,
}

impl Insensitive {
    /// Creates the context-insensitive abstraction.
    pub fn new() -> Self {
        Insensitive {
            interner: CtxtInterner::new(),
        }
    }
}

impl Default for Insensitive {
    fn default() -> Self {
        Self::new()
    }
}

impl Abstraction for Insensitive {
    type X = ();

    fn name(&self) -> &'static str {
        "context-insensitive"
    }

    fn sensitivity(&self) -> Option<Sensitivity> {
        None
    }

    fn interner(&self) -> &CtxtInterner {
        &self.interner
    }

    fn interner_mut(&mut self) -> &mut CtxtInterner {
        &mut self.interner
    }

    fn record(&mut self, _m: CtxtStr) {}

    fn compose(&mut self, _a: (), _b: (), _limits: Limits) -> Option<()> {
        Some(())
    }

    fn invert(&self, _a: ()) {}

    fn target(&self, _a: ()) -> CtxtStr {
        CtxtStr::EMPTY
    }

    fn merge(&mut self, _site: MergeSite, _b: ()) {}

    fn merge_s(&mut self, _inv: CtxtElem, _m: CtxtStr) {}

    fn uninformative(&self) {}

    fn globalize(&mut self, _b: ()) {}

    fn load_global(&mut self, _b: (), _m: CtxtStr) {}

    fn boundary_mode(&self) -> BoundaryMode {
        BoundaryMode::Exact
    }

    fn src_boundary(&self, _x: ()) -> CtxtStr {
        CtxtStr::EMPTY
    }

    fn dst_boundary(&self, _x: ()) -> CtxtStr {
        CtxtStr::EMPTY
    }

    fn display(&self, _x: (), _program: &Program) -> String {
        "·".to_owned()
    }

    fn digest(&self, _x: (), _ctxt: &mut CtxtDigest<'_>) -> u64 {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctxform_ir::{Heap, Inv, Type as IrType};

    fn site() -> MergeSite {
        MergeSite {
            inv: CtxtElem::of_inv(Inv(9)),
            heap: CtxtElem::of_heap(Heap(4)),
            class: CtxtElem::of_type(IrType(2)),
        }
    }

    #[test]
    fn cstring_record_truncates_heap_side() {
        let mut a = CStrings::new(Sensitivity::new(Flavour::CallSite, 2, 1).unwrap());
        let c1 = CtxtElem::of_inv(Inv(1));
        let c2 = CtxtElem::of_inv(Inv(2));
        let m = a.interner.from_slice(&[c1, c2]);
        let r = a.record(m);
        assert_eq!(r.dst, m);
        assert_eq!(r.src, a.interner.from_slice(&[c1]));
    }

    #[test]
    fn cstring_merge_call_site_pushes_invocation() {
        // merge_c(H, I, (_, M)) = (M, I·prefix_{m-1}(M))
        let mut a = CStrings::new(Sensitivity::new(Flavour::CallSite, 2, 1).unwrap());
        let c1 = CtxtElem::of_inv(Inv(1));
        let c2 = CtxtElem::of_inv(Inv(2));
        let m = a.interner.from_slice(&[c1, c2]);
        let b = CPair {
            src: a.interner.from_slice(&[c1]),
            dst: m,
        };
        let c = a.merge(site(), b);
        assert_eq!(c.src, m);
        assert_eq!(c.dst, a.interner.from_slice(&[site().inv, c1]));
    }

    #[test]
    fn cstring_merge_object_uses_receiver_heap_context() {
        // merge_c(H, I, (H', M)) = (M, H·H')
        let mut a = CStrings::new(Sensitivity::new(Flavour::Object, 2, 1).unwrap());
        let h7 = CtxtElem::of_heap(Heap(7));
        let hsrc = a.interner.from_slice(&[h7]);
        let mdst = a.interner.from_slice(&[h7, CtxtElem::entry()]);
        let b = CPair {
            src: hsrc,
            dst: mdst,
        };
        let c = a.merge(site(), b);
        assert_eq!(c.src, mdst);
        assert_eq!(c.dst, a.interner.from_slice(&[site().heap, h7]));
    }

    #[test]
    fn cstring_merge_type_uses_class_of_heap() {
        let mut a = CStrings::new(Sensitivity::new(Flavour::Type, 2, 1).unwrap());
        let t1 = CtxtElem::of_type(IrType(1));
        let hsrc = a.interner.from_slice(&[t1]);
        let mdst = a.interner.from_slice(&[t1, CtxtElem::entry()]);
        let b = CPair {
            src: hsrc,
            dst: mdst,
        };
        let c = a.merge(site(), b);
        assert_eq!(c.dst, a.interner.from_slice(&[site().class, t1]));
    }

    #[test]
    fn cstring_merge_s_matches_figure4() {
        let mut cs = CStrings::new(Sensitivity::new(Flavour::CallSite, 1, 0).unwrap());
        let entry = cs.interner.from_slice(&[CtxtElem::entry()]);
        let c = cs.merge_s(site().inv, entry);
        assert_eq!(c.src, entry);
        assert_eq!(c.dst, cs.interner.from_slice(&[site().inv]));

        let mut ob = CStrings::new(Sensitivity::new(Flavour::Object, 1, 0).unwrap());
        let entry = ob.interner.from_slice(&[CtxtElem::entry()]);
        let c = ob.merge_s(site().inv, entry);
        assert_eq!(
            c,
            CPair {
                src: entry,
                dst: entry
            }
        );
    }

    #[test]
    fn tstring_merge_call_site_projects_then_enters() {
        // merge_t(H, I, A·w·B̂) = trunc_{m,m}(B̄·w·B̂·Î)
        let mut a = TStrings::new(Sensitivity::new(Flavour::CallSite, 1, 1).unwrap());
        let c1 = CtxtElem::of_inv(Inv(1));
        let b = TStr {
            exits: CtxtStr::EMPTY,
            wild: false,
            entries: a.interner.from_slice(&[c1]),
        };
        let c = a.merge(site(), b);
        // entries I·c1 truncated to length 1 ⇒ wildcard inserted.
        assert_eq!(c.exits, a.interner.from_slice(&[c1]));
        assert!(c.wild);
        assert_eq!(c.entries, a.interner.from_slice(&[site().inv]));
    }

    #[test]
    fn tstring_merge_call_site_identity_receiver() {
        let mut a = TStrings::new(Sensitivity::new(Flavour::CallSite, 1, 1).unwrap());
        let c = a.merge(site(), TStr::IDENTITY);
        // B = ε ⇒ merge = Î.
        assert_eq!(c, TStr::entry_of(&mut a.interner, site().inv));
    }

    #[test]
    fn tstring_merge_object_matches_figure4() {
        // merge_t(H, I, A·w·B̂) = B̄·w·Â·Ĥ
        let mut a = TStrings::new(Sensitivity::new(Flavour::Object, 2, 1).unwrap());
        let h1 = CtxtElem::of_heap(Heap(1));
        let b = TStr {
            exits: a.interner.from_slice(&[h1]),
            wild: false,
            entries: CtxtStr::EMPTY,
        };
        let c = a.merge(site(), b);
        assert_eq!(c.exits, CtxtStr::EMPTY);
        assert!(!c.wild);
        assert_eq!(c.entries, a.interner.from_slice(&[site().heap, h1]));
    }

    #[test]
    fn tstring_merge_s_matches_figure4() {
        let mut cs = TStrings::new(Sensitivity::new(Flavour::CallSite, 1, 0).unwrap());
        let entry = cs.interner.from_slice(&[CtxtElem::entry()]);
        assert_eq!(
            cs.merge_s(site().inv, entry),
            TStr::entry_of(&mut cs.interner, site().inv)
        );

        let mut ob = TStrings::new(Sensitivity::new(Flavour::Object, 1, 0).unwrap());
        let entry = ob.interner.from_slice(&[CtxtElem::entry()]);
        assert_eq!(ob.merge_s(site().inv, entry), TStr::projection(entry));
    }

    #[test]
    fn insensitive_is_trivial() {
        let mut a = Insensitive::new();
        assert_eq!(a.compose((), (), Limits { src: 0, dst: 0 }), Some(()));
        assert_eq!(a.target(()), CtxtStr::EMPTY);
        assert!(a.subsumes((), ()));
        assert_eq!(a.record(CtxtStr::EMPTY), ());
    }

    #[test]
    fn globalize_forgets_the_destination_side() {
        let s = Sensitivity::new(Flavour::CallSite, 2, 1).unwrap();
        let mut cs = CStrings::new(s);
        let c1 = CtxtElem::of_inv(Inv(1));
        let u = cs.interner.from_slice(&[c1]);
        let m = cs.interner.from_slice(&[c1, CtxtElem::entry()]);
        let g = cs.globalize(CPair { src: u, dst: m });
        assert_eq!(
            g,
            CPair {
                src: u,
                dst: CtxtStr::EMPTY
            }
        );
        assert_eq!(cs.load_global(g, m), CPair { src: u, dst: m });

        let mut ts = TStrings::new(s);
        let u = ts.interner.from_slice(&[c1]);
        let b = TStr {
            exits: u,
            wild: false,
            entries: u,
        };
        let g = ts.globalize(b);
        assert_eq!(
            g,
            TStr {
                exits: u,
                wild: true,
                entries: CtxtStr::EMPTY
            }
        );
        // Loading ignores the reach context entirely.
        assert_eq!(ts.load_global(g, m), g);
    }

    #[test]
    fn boundaries_expose_composition_sides() {
        let s = Sensitivity::new(Flavour::CallSite, 1, 1).unwrap();
        let mut ts = TStrings::new(s);
        let c1 = CtxtElem::of_inv(Inv(1));
        let t = TStr {
            exits: ts.interner.from_slice(&[c1]),
            wild: false,
            entries: CtxtStr::EMPTY,
        };
        assert_eq!(ts.src_boundary(t), t.exits);
        assert_eq!(ts.dst_boundary(t), t.entries);
        assert_eq!(ts.boundary_mode(), BoundaryMode::Prefix);

        let cs = CStrings::new(s);
        let p = CPair {
            src: CtxtStr::EMPTY,
            dst: CtxtStr::EMPTY,
        };
        assert_eq!(cs.src_boundary(p), p.src);
        assert_eq!(cs.boundary_mode(), BoundaryMode::Exact);
    }
}
