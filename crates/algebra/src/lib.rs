//! The context-transformation algebra of "Context Transformations for
//! Pointer Analysis" (Thiessen & Lhoták, PLDI 2017), sections 3 and 4.
//!
//! A *context transformation* is a partial function over calling contexts;
//! the set of context transformations is an inverse semigroup closed under
//! composition. This crate provides:
//!
//! * [`CtxtElem`] — elemental contexts (`entry`, invocation sites, heap
//!   sites, class types) and [`CtxtInterner`]/[`CtxtStr`] — hash-consed
//!   context strings with O(1) prefix queries, and [`CtxtDigest`] —
//!   their interning-independent, name-based hashes;
//! * [`TStr`] — canonical **transformer strings** `A·w·B̂` with the
//!   paper's `match`-based composition, `trunc`, inversion, and the
//!   subsumption order of §8;
//! * [`CPair`] — the traditional **context-string pair** representation;
//! * [`Word`]/[`Sem`] — raw transformer words, the §4.2 `match`
//!   normalization, and a small denotational semantics used to
//!   property-check everything;
//! * [`Flavour`]/[`Sensitivity`] — call-site, object, and type sensitivity
//!   with validated `(m, h)` levels, and
//! * [`Abstraction`] — the interface (`record`, `comp`, `inv`, `target`,
//!   `merge`, `merge_s`) that Figure 3's parameterized rules consume, with
//!   [`CStrings`], [`TStrings`], and [`Insensitive`] instantiations per
//!   Figure 4.
//!
//! ```
//! use ctxform_algebra::{CtxtElem, CtxtInterner, TStr};
//! use ctxform_ir::Inv;
//!
//! // The Fig. 5 composition: ε ; îd1 ; inv(îd1) = ε.
//! let mut it = CtxtInterner::new();
//! let id1 = CtxtElem::of_inv(Inv(0));
//! let enter = TStr::entry_of(&mut it, id1);
//! let a = TStr::IDENTITY.compose_in(&mut it, enter, 1, 1).unwrap();
//! let b = a.compose_in(&mut it, enter.inverse(), 1, 1).unwrap();
//! assert!(b.is_identity());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod abstraction;
mod cstring;
mod digest;
mod elem;
mod flavour;
mod interner;
mod tstring;
mod word;

pub use abstraction::{Abstraction, BoundaryMode, CStrings, Insensitive, Limits, TStrings};
pub use cstring::CPair;
pub use digest::CtxtDigest;
pub use elem::CtxtElem;
pub use flavour::{Flavour, Levels, MergeSite, Sensitivity, SensitivityError};
pub use interner::{CtxtInterner, CtxtStr, RevElems};
pub use tstring::TStr;
pub use word::{Letter, Sem, Word};
