//! Elemental contexts (`Ctxt` in the paper, §2.2).
//!
//! Depending on the flavour of context sensitivity, the elemental contexts
//! of a program are its invocation sites (call-site sensitivity), heap
//! allocation sites (object sensitivity), or class types (type
//! sensitivity), plus the distinguished `entry` element that terminates the
//! context of program entry points. A [`CtxtElem`] packs the element kind
//! and the underlying entity id into one `u32`.

use std::fmt;

use ctxform_ir::{Heap, Inv, Program, Type};

const TAG_SHIFT: u32 = 30;
const ID_MASK: u32 = (1 << TAG_SHIFT) - 1;
const TAG_ENTRY: u32 = 0;
const TAG_INV: u32 = 1;
const TAG_HEAP: u32 = 2;
const TAG_TYPE: u32 = 3;

/// One elemental context: `entry`, an invocation site, an allocation site,
/// or a class type.
///
/// ```
/// use ctxform_algebra::CtxtElem;
/// use ctxform_ir::{Heap, Inv};
///
/// let e = CtxtElem::of_heap(Heap(7));
/// assert_eq!(e.as_heap(), Some(Heap(7)));
/// assert_eq!(e.as_inv(), None);
/// assert!(CtxtElem::entry().is_entry());
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CtxtElem(u32);

impl CtxtElem {
    /// The distinguished `entry` element for program entry points.
    pub const fn entry() -> CtxtElem {
        CtxtElem(TAG_ENTRY << TAG_SHIFT)
    }

    /// An invocation-site element (call-site sensitivity).
    ///
    /// # Panics
    ///
    /// Panics if the id exceeds 2³⁰ − 1.
    pub fn of_inv(i: Inv) -> CtxtElem {
        CtxtElem::pack(TAG_INV, i.0)
    }

    /// A heap-allocation-site element (object sensitivity).
    ///
    /// # Panics
    ///
    /// Panics if the id exceeds 2³⁰ − 1.
    pub fn of_heap(h: Heap) -> CtxtElem {
        CtxtElem::pack(TAG_HEAP, h.0)
    }

    /// A class-type element (type sensitivity).
    ///
    /// # Panics
    ///
    /// Panics if the id exceeds 2³⁰ − 1.
    pub fn of_type(t: Type) -> CtxtElem {
        CtxtElem::pack(TAG_TYPE, t.0)
    }

    fn pack(tag: u32, id: u32) -> CtxtElem {
        assert!(
            id <= ID_MASK,
            "entity id {id} exceeds context-element capacity"
        );
        CtxtElem((tag << TAG_SHIFT) | id)
    }

    /// `true` for the `entry` element.
    pub fn is_entry(self) -> bool {
        self.0 >> TAG_SHIFT == TAG_ENTRY
    }

    /// The invocation site, if this element is one.
    pub fn as_inv(self) -> Option<Inv> {
        (self.0 >> TAG_SHIFT == TAG_INV).then_some(Inv(self.0 & ID_MASK))
    }

    /// The allocation site, if this element is one.
    pub fn as_heap(self) -> Option<Heap> {
        (self.0 >> TAG_SHIFT == TAG_HEAP).then_some(Heap(self.0 & ID_MASK))
    }

    /// The class type, if this element is one.
    pub fn as_type(self) -> Option<Type> {
        (self.0 >> TAG_SHIFT == TAG_TYPE).then_some(Type(self.0 & ID_MASK))
    }

    /// The element's entity name in `program` (`entry` for the entry
    /// element).
    pub fn name(self, program: &Program) -> &str {
        if self.is_entry() {
            return "entry";
        }
        if let Some(i) = self.as_inv() {
            return &program.inv_names[i.index()];
        }
        if let Some(h) = self.as_heap() {
            return &program.heap_names[h.index()];
        }
        if let Some(t) = self.as_type() {
            return &program.type_names[t.index()];
        }
        unreachable!("exhaustive tags")
    }

    /// Renders the element with the entity names of `program`.
    pub fn describe(self, program: &Program) -> String {
        self.name(program).to_owned()
    }
}

impl fmt::Debug for CtxtElem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_entry() {
            write!(f, "entry")
        } else if let Some(i) = self.as_inv() {
            write!(f, "{i}")
        } else if let Some(h) = self.as_heap() {
            write!(f, "{h}")
        } else if let Some(t) = self.as_type() {
            write!(f, "{t}")
        } else {
            unreachable!("exhaustive tags")
        }
    }
}

impl fmt::Display for CtxtElem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_entry() {
            write!(f, "entry")
        } else if let Some(i) = self.as_inv() {
            write!(f, "{i}")
        } else if let Some(h) = self.as_heap() {
            write!(f, "{h}")
        } else if let Some(t) = self.as_type() {
            write!(f, "{t}")
        } else {
            unreachable!("exhaustive tags")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tags_do_not_collide() {
        let e = CtxtElem::entry();
        let i = CtxtElem::of_inv(Inv(0));
        let h = CtxtElem::of_heap(Heap(0));
        let t = CtxtElem::of_type(Type(0));
        let all = [e, i, h, t];
        for (a, x) in all.iter().enumerate() {
            for (b, y) in all.iter().enumerate() {
                assert_eq!(a == b, x == y);
            }
        }
    }

    #[test]
    fn projections_are_partial() {
        let i = CtxtElem::of_inv(Inv(42));
        assert_eq!(i.as_inv(), Some(Inv(42)));
        assert_eq!(i.as_heap(), None);
        assert_eq!(i.as_type(), None);
        assert!(!i.is_entry());
    }

    #[test]
    fn display_uses_entity_prefixes() {
        assert_eq!(CtxtElem::entry().to_string(), "entry");
        assert_eq!(CtxtElem::of_inv(Inv(3)).to_string(), "i3");
        assert_eq!(CtxtElem::of_heap(Heap(4)).to_string(), "h4");
        assert_eq!(CtxtElem::of_type(Type(5)).to_string(), "t5");
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn oversized_ids_panic() {
        let _ = CtxtElem::of_inv(Inv(u32::MAX));
    }
}
