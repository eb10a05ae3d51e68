//! Program representation for the `ctxform` pointer analysis.
//!
//! This crate defines the *input side* of the analysis described in
//! "Context Transformations for Pointer Analysis" (Thiessen & Lhoták,
//! PLDI 2017): densely-numbered entity identifiers ([`Var`], [`Heap`],
//! [`Inv`], [`Method`], [`Field`], [`Type`], [`MSig`]), the thirteen input
//! relations of the paper's Figure 3 ([`Facts`]), a [`Program`] container
//! that couples the relations with entity metadata and validates their
//! integrity, a fluent [`ProgramBuilder`], the precomputed join indices the
//! solver needs ([`ProgramIndex`]), and a line-oriented text format for fact
//! files ([`text`]).
//!
//! The paper extracts these relations from Java bytecode with Soot; here any
//! producer works — the bundled MiniJava frontend (`ctxform-minijava`), the
//! synthetic workload generator (`ctxform-synth`), the text reader, or the
//! builder directly:
//!
//! ```
//! use ctxform_ir::ProgramBuilder;
//!
//! let mut b = ProgramBuilder::new();
//! let object = b.class("Object", None);
//! let main = b.method_in("Main.main", object, &[]);
//! b.entry_point(main);
//! let x = b.var("x", main);
//! let h = b.alloc("new Object", object, x, main);
//! let program = b.finish()?;
//! assert_eq!(program.facts.assign_new, vec![(h, x, main)]);
//! # Ok::<(), ctxform_ir::IrError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod builder;
mod delta;
mod error;
mod facts;
mod ids;
mod index;
mod program;
pub mod text;

pub use builder::ProgramBuilder;
pub use delta::{ProgramDelta, ProgramDiff, ProgramRetraction};
pub use error::IrError;
pub use facts::Facts;
pub use ids::{EntityKind, Field, Heap, Inv, MSig, Method, Type, Var};
pub use index::ProgramIndex;
pub use program::{Program, ProgramStats};
