//! A MiniJava frontend for the `ctxform` pointer analysis.
//!
//! The paper extracts its input relations from Java bytecode with the Soot
//! framework; this crate plays that role for a small but representative
//! Java subset. It covers every construct the analysis models — classes
//! with single inheritance, instance fields, static and instance methods,
//! allocation, assignment, field loads and stores, static and virtual
//! invocations, `this`, `null`, returns — plus structured control flow
//! (`if`/`while`), which the flow-insensitive analysis flattens but the
//! `ctxform-vm` interpreter executes faithfully.
//!
//! The pipeline is [`compile`] = lex → parse ([`parse`]) → resolve + lower
//! ([`lower`]); the result couples the validated [`ctxform_ir::Program`]
//! (the thirteen Figure 3 relations) with an ordered three-address
//! instruction stream per method ([`Body`]) so that dynamic and static
//! semantics are derived from the same lowering.
//!
//! The frontend runs on every `update` a server receives, so it allocates
//! per construct, not per token: tokens are `Copy` and borrow their
//! lexemes from the source, the AST ([`AstModule`]) borrows every name
//! from it too, and lowering resolves names through tables keyed by
//! those borrowed `&str`s, writing generated names (qualified method
//! names, temps, site labels) into one reused buffer. Apart from
//! diagnostics and the `String[]` of a `main` signature, the only strings
//! a compile allocates are the names the [`ctxform_ir::Program`] keeps,
//! plus the builder's one lookup key per distinct field and signature.
//!
//! ```
//! let source = r#"
//!     class A {
//!         Object id(Object p) { return p; }
//!     }
//!     class Main {
//!         public static void main(String[] args) {
//!             A a = new A();
//!             Object x = new Object();
//!             Object y = a.id(x);
//!         }
//!     }
//! "#;
//! let module = ctxform_minijava::compile(source)?;
//! assert_eq!(module.program.entry_points.len(), 1);
//! assert!(module.program.facts.virtual_invoke.len() == 1);
//! # Ok::<(), ctxform_minijava::MjError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod ast;
pub mod corpus;
mod error;
mod lexer;
mod lower;
mod parser;

pub use ast::{Block, ClassDecl, Cond, Expr, MethodDecl, Module as AstModule, Param, Stmt, Target};
pub use error::MjError;
pub use lower::{compile, lower, Body, Instr, Module, Operand};
pub use parser::parse;
