//! Transformer strings (paper §4.2).
//!
//! A transformer string is a canonical word `A · w · B̂` over the primitive
//! context transformations: first a sequence of *exits* `A` (each exit `a`
//! pops `a` off the front of the context, mapping everything else to the
//! error context), then an optional *wildcard* `∗` (which maps any
//! non-empty set of contexts to the set of all contexts), then a sequence
//! of *entries* `B̂` (each entry `â` pushes `a` onto the front).
//!
//! [`TStr`] stores the canonical form directly:
//!
//! * `exits` is the context string `A` that the transformer pops,
//! * `entries` is the context string `B` that it pushes, stored in *output
//!   order* — `entries[0]` is the top-most element of the output context —
//!   so inversion is just a field swap, and
//! * `wild` records the wildcard.
//!
//! Composition ([`TStr::compose_in`]) implements `trunc_{i,j}(match(X·Y))`:
//! the boundary between `X`'s entries and `Y`'s exits cancels (or proves
//! the composition is ⊥), wildcards absorb whatever crosses them, and the
//! result is re-truncated into the `CtxtT_{i,j}` domain. The key invariant
//! exploited by the specialized join indices of §7:
//!
//! > `X ; Y ≠ ⊥`  iff  one of `X.entries`, `Y.exits` is a prefix of the
//! > other.

use crate::elem::CtxtElem;
use crate::interner::{CtxtInterner, CtxtStr};

/// A canonical transformer string `exits · wild? · entries`.
///
/// The identity transformation is [`TStr::IDENTITY`]; ⊥ is represented by
/// `None` at composition sites (facts carrying ⊥ are never created, per
/// §5's `comp` predicate).
///
/// ```
/// use ctxform_algebra::{CtxtElem, CtxtInterner, TStr};
/// use ctxform_ir::Inv;
///
/// let mut it = CtxtInterner::new();
/// let c1 = CtxtElem::of_inv(Inv(1));
/// let enter = TStr::entry_of(&mut it, c1); // ĉ1
/// let leave = enter.inverse();             // c1
/// let round_trip = enter.compose_in(&mut it, leave, usize::MAX, usize::MAX);
/// assert_eq!(round_trip, Some(TStr::IDENTITY));
/// # let clash = leave.compose_in(&mut it, leave, usize::MAX, usize::MAX);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TStr {
    /// The context string this transformer pops off the front of its input.
    pub exits: CtxtStr,
    /// Whether a wildcard separates exits from entries.
    pub wild: bool,
    /// The context string this transformer pushes, in output order.
    pub entries: CtxtStr,
}

impl TStr {
    /// The identity transformation `ε`.
    pub const IDENTITY: TStr = TStr {
        exits: CtxtStr::EMPTY,
        wild: false,
        entries: CtxtStr::EMPTY,
    };

    /// The all-contexts transformer `∗` (pops nothing, forgets everything).
    pub const WILD: TStr = TStr {
        exits: CtxtStr::EMPTY,
        wild: true,
        entries: CtxtStr::EMPTY,
    };

    /// A single-entry transformer `â`.
    pub fn entry_of(interner: &mut CtxtInterner, a: CtxtElem) -> TStr {
        let s = interner.snoc(CtxtStr::EMPTY, a);
        TStr {
            exits: CtxtStr::EMPTY,
            wild: false,
            entries: s,
        }
    }

    /// A single-exit transformer `a`.
    pub fn exit_of(interner: &mut CtxtInterner, a: CtxtElem) -> TStr {
        let s = interner.snoc(CtxtStr::EMPTY, a);
        TStr {
            exits: s,
            wild: false,
            entries: CtxtStr::EMPTY,
        }
    }

    /// The projection transformer `M · M̂` for a context string `M`: maps a
    /// context to itself if `M` is a prefix of it, and to ⊥ otherwise
    /// (used by the Static rule under object/type sensitivity, §3.1).
    pub fn projection(m: CtxtStr) -> TStr {
        TStr {
            exits: m,
            wild: false,
            entries: m,
        }
    }

    /// The semigroup inverse: `inv(A·w·B̂) = B·w·Â`.
    ///
    /// Because `entries` is stored in output order, this is a field swap.
    pub fn inverse(self) -> TStr {
        TStr {
            exits: self.entries,
            wild: self.wild,
            entries: self.exits,
        }
    }

    /// `true` iff this is the identity transformer.
    pub fn is_identity(self) -> bool {
        self == TStr::IDENTITY
    }

    /// Composition `self ; other` (apply `self` first), truncated into the
    /// domain with at most `max_exits` exits and `max_entries` entries.
    ///
    /// Returns `None` when the composition is ⊥ (`match(X·Y) = ⊥`), i.e.
    /// when the boundary letters clash. Pass `usize::MAX` limits for
    /// untruncated composition.
    pub fn compose_in(
        self,
        interner: &mut CtxtInterner,
        other: TStr,
        max_exits: usize,
        max_entries: usize,
    ) -> Option<TStr> {
        let be = self.entries; // output of self, front first
        let ce = other.exits; // what other pops, front first
        let lb = interner.len(be);
        let lc = interner.len(ce);
        let k = lb.min(lc);
        // Boundary check: the common prefix must agree.
        if interner.prefix(be, k) != interner.prefix(ce, k) {
            return None;
        }
        let result = if lc > lb {
            // `other` pops more than `self` pushed; the excess exits either
            // vanish into self's wildcard (∗·a = ∗) or extend self's exits.
            let excess = interner.drop_front(ce, lb);
            if self.wild {
                TStr {
                    exits: self.exits,
                    wild: true,
                    entries: other.entries,
                }
            } else {
                let exits = interner.concat(self.exits, excess);
                TStr {
                    exits,
                    wild: other.wild,
                    entries: other.entries,
                }
            }
        } else {
            // `self` pushed at least as much as `other` pops; the leftover
            // entries survive below other's entries, unless other's
            // wildcard forgets them (â·∗ = ∗).
            if other.wild {
                TStr {
                    exits: self.exits,
                    wild: true,
                    entries: other.entries,
                }
            } else {
                let leftover = interner.drop_front(be, k);
                let entries = interner.concat(other.entries, leftover);
                TStr {
                    exits: self.exits,
                    wild: self.wild,
                    entries,
                }
            }
        };
        Some(result.truncate(interner, max_exits, max_entries))
    }

    /// `trunc_{i,j}` (paper §4.2): keeps the first `max_exits` exits and
    /// the top-most `max_entries` entries, inserting a wildcard when
    /// anything is cut. Conservative per Lemma 4.2.
    pub fn truncate(self, interner: &CtxtInterner, max_exits: usize, max_entries: usize) -> TStr {
        if interner.len(self.exits) <= max_exits && interner.len(self.entries) <= max_entries {
            return self;
        }
        TStr {
            exits: interner.prefix(self.exits, max_exits),
            wild: true,
            entries: interner.prefix(self.entries, max_entries),
        }
    }

    /// `true` iff `self` subsumes `other`: every (input, output) context
    /// pair admitted by `other` is admitted by `self` (paper §8).
    ///
    /// A wildcard transformer subsumes anything that extends its exits and
    /// entries; a wildcard-free transformer subsumes exactly the
    /// wildcard-free transformers that extend its exits and entries *by the
    /// same suffix*.
    pub fn subsumes(self, interner: &CtxtInterner, other: TStr) -> bool {
        if !interner.is_prefix(self.exits, other.exits)
            || !interner.is_prefix(self.entries, other.entries)
        {
            return false;
        }
        if self.wild {
            return true;
        }
        if other.wild {
            return false;
        }
        interner.suffix_eq(
            other.exits,
            interner.len(self.exits),
            other.entries,
            interner.len(self.entries),
        )
    }

    /// Configuration tag in the paper's `x*w?e*` notation (§7), e.g. `xe`
    /// for one exit and one entry, `xxwe` for two exits, a wildcard, and
    /// one entry. The identity is the empty tag.
    pub fn configuration(self, interner: &CtxtInterner) -> String {
        let mut s = String::new();
        for _ in 0..interner.len(self.exits) {
            s.push('x');
        }
        if self.wild {
            s.push('w');
        }
        for _ in 0..interner.len(self.entries) {
            s.push('e');
        }
        s
    }

    /// Formats the transformer with a custom element renderer; exits are
    /// plain, entries are prefixed with `^`, the wildcard is `*`, and the
    /// identity is `ε`.
    pub fn display_with<F>(self, interner: &CtxtInterner, mut render: F) -> String
    where
        F: FnMut(CtxtElem) -> String,
    {
        let mut parts: Vec<String> = Vec::new();
        for e in interner.elems(self.exits) {
            parts.push(render(e));
        }
        if self.wild {
            parts.push("*".to_owned());
        }
        // Entries are stored in output order; the *application* order (the
        // word notation of the paper) pushes the bottom-most first, i.e.
        // reversed. We print output order, which matches the paper's
        // `B̂`-as-a-string notation.
        for e in interner.elems(self.entries) {
            parts.push(format!("^{}", render(e)));
        }
        if parts.is_empty() {
            "ε".to_owned()
        } else {
            parts.join("·")
        }
    }

    /// Formats with the default element renderer.
    pub fn display(self, interner: &CtxtInterner) -> String {
        self.display_with(interner, |e| e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctxform_ir::Inv;

    fn setup() -> (CtxtInterner, CtxtElem, CtxtElem, CtxtElem) {
        let it = CtxtInterner::new();
        (
            it,
            CtxtElem::of_inv(Inv(1)),
            CtxtElem::of_inv(Inv(2)),
            CtxtElem::of_inv(Inv(3)),
        )
    }

    fn compose(it: &mut CtxtInterner, a: TStr, b: TStr) -> Option<TStr> {
        a.compose_in(it, b, usize::MAX, usize::MAX)
    }

    #[test]
    fn entry_then_matching_exit_cancels() {
        let (mut it, a, _, _) = setup();
        let up = TStr::entry_of(&mut it, a);
        let down = TStr::exit_of(&mut it, a);
        assert_eq!(compose(&mut it, up, down), Some(TStr::IDENTITY));
    }

    #[test]
    fn entry_then_different_exit_is_bottom() {
        let (mut it, a, b, _) = setup();
        let up = TStr::entry_of(&mut it, a);
        let down = TStr::exit_of(&mut it, b);
        assert_eq!(compose(&mut it, up, down), None);
    }

    #[test]
    fn exit_then_entry_does_not_cancel() {
        // a · â is already canonical: it maps a·M to a·M and all else to ⊥.
        let (mut it, a, _, _) = setup();
        let down = TStr::exit_of(&mut it, a);
        let up = TStr::entry_of(&mut it, a);
        let got = compose(&mut it, down, up).unwrap();
        assert_eq!(
            got,
            TStr {
                exits: down.exits,
                wild: false,
                entries: up.entries
            }
        );
        assert_eq!(got, TStr::projection(down.exits));
    }

    #[test]
    fn wildcard_absorbs_excess_exits() {
        let (mut it, a, b, _) = setup();
        // self = ∗·â ; other = a·b : the a cancels, b hits the wildcard.
        let lhs = TStr {
            exits: CtxtStr::EMPTY,
            wild: true,
            entries: it.from_slice(&[a]),
        };
        let rhs = TStr {
            exits: it.from_slice(&[a, b]),
            wild: false,
            entries: CtxtStr::EMPTY,
        };
        let got = compose(&mut it, lhs, rhs).unwrap();
        assert_eq!(got, TStr::WILD);
    }

    #[test]
    fn wildcard_absorbs_leftover_entries() {
        let (mut it, a, b, _) = setup();
        // self = â·b̂ (entries [b, a] in output order); other = ∗·ĉ? use b exits none.
        let lhs = TStr {
            exits: CtxtStr::EMPTY,
            wild: false,
            entries: it.from_slice(&[b, a]),
        };
        let rhs = TStr {
            exits: CtxtStr::EMPTY,
            wild: true,
            entries: it.from_slice(&[a]),
        };
        let got = compose(&mut it, lhs, rhs).unwrap();
        assert_eq!(
            got,
            TStr {
                exits: CtxtStr::EMPTY,
                wild: true,
                entries: it.from_slice(&[a])
            }
        );
    }

    #[test]
    fn excess_exits_extend_lhs_exits() {
        let (mut it, a, b, c) = setup();
        // self = â (pushes a); other pops a then b then pushes c.
        let lhs = TStr::entry_of(&mut it, a);
        let rhs = TStr {
            exits: it.from_slice(&[a, b]),
            wild: false,
            entries: it.from_slice(&[c]),
        };
        let got = compose(&mut it, lhs, rhs).unwrap();
        assert_eq!(
            got,
            TStr {
                exits: it.from_slice(&[b]),
                wild: false,
                entries: it.from_slice(&[c])
            }
        );
    }

    #[test]
    fn leftover_entries_sit_below_rhs_entries() {
        let (mut it, a, b, c) = setup();
        // self pushes [b, a] (output order), other pops a and pushes c:
        // output = c · b · input.
        let lhs = TStr {
            exits: CtxtStr::EMPTY,
            wild: false,
            entries: it.from_slice(&[a, b]),
        };
        let rhs = TStr {
            exits: it.from_slice(&[a]),
            wild: false,
            entries: it.from_slice(&[c]),
        };
        let got = compose(&mut it, lhs, rhs).unwrap();
        assert_eq!(
            got,
            TStr {
                exits: CtxtStr::EMPTY,
                wild: false,
                entries: it.from_slice(&[c, b])
            }
        );
    }

    #[test]
    fn truncation_inserts_wildcard() {
        let (mut it, a, b, c) = setup();
        let t = TStr {
            exits: it.from_slice(&[a, b, c]),
            wild: false,
            entries: it.from_slice(&[c, b]),
        };
        let cut = t.truncate(&it, 1, 1);
        assert_eq!(
            cut,
            TStr {
                exits: it.from_slice(&[a]),
                wild: true,
                entries: it.from_slice(&[c])
            }
        );
        // Within limits: unchanged, wildcard not inserted.
        assert_eq!(t.truncate(&it, 3, 2), t);
    }

    #[test]
    fn inverse_laws_hold() {
        let (mut it, a, b, c) = setup();
        let f = TStr {
            exits: it.from_slice(&[a, b]),
            wild: true,
            entries: it.from_slice(&[c]),
        };
        let finv = f.inverse();
        let f_finv = compose(&mut it, f, finv).unwrap();
        let fif = compose(&mut it, f_finv, f).unwrap();
        assert_eq!(fif, f, "f ; f⁻¹ ; f = f");
        let finv_f = compose(&mut it, finv, f).unwrap();
        let ifi = compose(&mut it, finv_f, finv).unwrap();
        assert_eq!(ifi, finv, "f⁻¹ ; f ; f⁻¹ = f⁻¹");
        assert_eq!(finv.inverse(), f);
    }

    #[test]
    fn identity_is_neutral() {
        let (mut it, a, _, c) = setup();
        let f = TStr {
            exits: it.from_slice(&[a]),
            wild: false,
            entries: it.from_slice(&[c]),
        };
        assert_eq!(compose(&mut it, TStr::IDENTITY, f), Some(f));
        assert_eq!(compose(&mut it, f, TStr::IDENTITY), Some(f));
        assert!(TStr::IDENTITY.is_identity());
    }

    #[test]
    fn subsumption_matches_paper_examples() {
        let (mut it, m1, m2, _) = setup();
        // ∗ subsumes everything.
        let star = TStr::WILD;
        let m1_star = TStr {
            exits: it.from_slice(&[m1]),
            wild: true,
            entries: CtxtStr::EMPTY,
        };
        let star_m2 = TStr {
            exits: CtxtStr::EMPTY,
            wild: true,
            entries: it.from_slice(&[m2]),
        };
        let m1_star_m2 = TStr {
            exits: it.from_slice(&[m1]),
            wild: true,
            entries: it.from_slice(&[m2]),
        };
        assert!(star.subsumes(&it, m1_star));
        assert!(star.subsumes(&it, star_m2));
        assert!(star.subsumes(&it, m1_star_m2));
        // pts(X,H,m1·∗) and pts(X,H,∗·m̂2) both subsume pts(X,H,m1·∗·m̂2).
        assert!(m1_star.subsumes(&it, m1_star_m2));
        assert!(star_m2.subsumes(&it, m1_star_m2));
        assert!(!m1_star_m2.subsumes(&it, m1_star));
    }

    #[test]
    fn wildcard_free_subsumption_requires_equal_suffixes() {
        let (mut it, c1, c2, _) = setup();
        // ε subsumes c1·ĉ1 (the Fig. 7 pair) but not c1·ĉ2.
        let c1c1 = TStr {
            exits: it.from_slice(&[c1]),
            wild: false,
            entries: it.from_slice(&[c1]),
        };
        let c1c2 = TStr {
            exits: it.from_slice(&[c1]),
            wild: false,
            entries: it.from_slice(&[c2]),
        };
        assert!(TStr::IDENTITY.subsumes(&it, c1c1));
        assert!(!TStr::IDENTITY.subsumes(&it, c1c2));
        // A wildcard-free transformer never subsumes a wildcard one.
        let star = TStr::WILD;
        assert!(!TStr::IDENTITY.subsumes(&it, star));
        assert!(TStr::IDENTITY.subsumes(&it, TStr::IDENTITY));
    }

    #[test]
    fn configuration_tags_follow_section7() {
        let (mut it, a, b, _) = setup();
        assert_eq!(TStr::IDENTITY.configuration(&it), "");
        assert_eq!(TStr::WILD.configuration(&it), "w");
        let t = TStr {
            exits: it.from_slice(&[a, b]),
            wild: true,
            entries: it.from_slice(&[a]),
        };
        assert_eq!(t.configuration(&it), "xxwe");
    }

    #[test]
    fn display_matches_paper_notation() {
        let (mut it, a, _, _) = setup();
        assert_eq!(TStr::IDENTITY.display(&it), "ε");
        assert_eq!(TStr::WILD.display(&it), "*");
        let t = TStr {
            exits: it.from_slice(&[a]),
            wild: true,
            entries: it.from_slice(&[a]),
        };
        assert_eq!(t.display(&it), "i1·*·^i1");
    }
}
