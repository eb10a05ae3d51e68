//! Abstract syntax for the MiniJava subset. Every name borrows from the
//! source text, so a parse allocates only the vectors and boxes of the
//! tree.

use std::borrow::Cow;

/// A whole compilation unit: a list of classes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Module<'a> {
    /// Declared classes, in source order.
    pub classes: Vec<ClassDecl<'a>>,
}

/// `class Name extends Super { fields methods }`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClassDecl<'a> {
    /// Class name.
    pub name: &'a str,
    /// Superclass name, if an `extends` clause is present.
    pub superclass: Option<&'a str>,
    /// Declared instance field names with their declared types.
    pub fields: Vec<(&'a str, &'a str)>,
    /// Declared static field names with their declared types.
    pub static_fields: Vec<(&'a str, &'a str)>,
    /// Declared methods.
    pub methods: Vec<MethodDecl<'a>>,
    /// Source line of the declaration.
    pub line: usize,
}

/// A formal parameter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Param<'a> {
    /// Declared type name (`String[]` for an array parameter, the one
    /// name that is not a slice of the source).
    pub ty: Cow<'a, str>,
    /// Parameter name.
    pub name: &'a str,
}

/// A method declaration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MethodDecl<'a> {
    /// `true` for `static` methods.
    pub is_static: bool,
    /// Return type name, or `None` for `void`.
    pub ret_ty: Option<&'a str>,
    /// Method name.
    pub name: &'a str,
    /// Formal parameters.
    pub params: Vec<Param<'a>>,
    /// Method body.
    pub body: Block<'a>,
    /// `true` when declared `public static void main(String[] args)`.
    pub is_main: bool,
    /// Source line of the declaration.
    pub line: usize,
}

/// A `{ … }` statement block.
pub type Block<'a> = Vec<Stmt<'a>>;

/// A statement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Stmt<'a> {
    /// `T x;` or `T x = expr;`
    VarDecl {
        /// Declared type name.
        ty: &'a str,
        /// Variable name.
        name: &'a str,
        /// Optional initializer.
        init: Option<Expr<'a>>,
        /// Source line.
        line: usize,
    },
    /// `target = expr;`
    Assign {
        /// Assignment target.
        target: Target<'a>,
        /// Right-hand side.
        value: Expr<'a>,
        /// Source line.
        line: usize,
    },
    /// `if (cond) { … } else { … }`
    If {
        /// Branch condition.
        cond: Cond<'a>,
        /// Then-block.
        then_block: Block<'a>,
        /// Else-block (empty if absent).
        else_block: Block<'a>,
        /// Source line.
        line: usize,
    },
    /// `while (cond) { … }`
    While {
        /// Loop condition.
        cond: Cond<'a>,
        /// Loop body.
        body: Block<'a>,
        /// Source line.
        line: usize,
    },
    /// `return;` or `return expr;`
    Return {
        /// Returned expression, if any.
        value: Option<Expr<'a>>,
        /// Source line.
        line: usize,
    },
    /// An expression statement (a call whose result is discarded).
    Expr {
        /// The evaluated expression.
        expr: Expr<'a>,
        /// Source line.
        line: usize,
    },
}

/// An assignment target.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Target<'a> {
    /// A local variable or parameter.
    Var(&'a str),
    /// `base.field` where `base` is any expression.
    Field(Box<Expr<'a>>, &'a str),
}

/// A condition (restricted to reference comparisons and boolean literals so
/// the interpreter and the flow-insensitive lowering agree trivially).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Cond<'a> {
    /// Reference equality of two operands.
    Eq(CondOperand<'a>, CondOperand<'a>),
    /// Reference inequality of two operands.
    Ne(CondOperand<'a>, CondOperand<'a>),
    /// Literal `true`.
    True,
    /// Literal `false`.
    False,
}

/// A condition operand: a plain variable, `this`, or `null`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CondOperand<'a> {
    /// A local variable or parameter.
    Var(&'a str),
    /// The receiver.
    This,
    /// The null literal.
    Null,
}

/// An expression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expr<'a> {
    /// `null`.
    Null,
    /// `this`.
    This {
        /// Source line.
        line: usize,
    },
    /// A name: a local variable, parameter, or (in call position) a class.
    Name {
        /// The identifier.
        name: &'a str,
        /// Source line.
        line: usize,
    },
    /// `new T()`.
    New {
        /// Class name.
        class: &'a str,
        /// Source line.
        line: usize,
    },
    /// `base.field`.
    FieldAccess {
        /// Base expression.
        base: Box<Expr<'a>>,
        /// Field name.
        field: &'a str,
        /// Source line.
        line: usize,
    },
    /// `base.method(args)`: a virtual call when `base` is a value, a static
    /// call when `base` is a class name (resolved during lowering).
    Call {
        /// Receiver expression (or class name as [`Expr::Name`]).
        base: Box<Expr<'a>>,
        /// Invoked method name.
        method: &'a str,
        /// Actual arguments.
        args: Vec<Expr<'a>>,
        /// Source line.
        line: usize,
    },
}

impl Expr<'_> {
    /// The source line of this expression (0 for `null`).
    pub fn line(&self) -> usize {
        match self {
            Expr::Null => 0,
            Expr::This { line }
            | Expr::Name { line, .. }
            | Expr::New { line, .. }
            | Expr::FieldAccess { line, .. }
            | Expr::Call { line, .. } => *line,
        }
    }
}
