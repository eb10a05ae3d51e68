//! Name resolution and lowering to the `ctxform-ir` relations.
//!
//! Lowering produces two coupled views of each method:
//!
//! * the unordered Figure 3 input relations, consumed by the analysis, and
//! * an ordered three-address instruction stream ([`Body`]), consumed by
//!   the `ctxform-vm` interpreter.
//!
//! Both views are emitted by the same traversal, so the dynamic semantics
//! the VM executes and the static semantics the analysis abstracts can
//! never drift apart.
//!
//! Design notes (documented deviations from full Java, all
//! precision-neutral for the analysis):
//!
//! * Field signatures are global names (`FSig` = field name); same-named
//!   fields in unrelated classes share one signature, which is sound and
//!   mirrors a field-*name*-based signature choice.
//! * Method signatures are `name/arity` (no overloading on parameter
//!   types; all MiniJava values are references).
//! * Field access and same-class calls must name their receiver explicitly
//!   (`this.f`, `this.m(x)`, `Cls.s(x)`).
//! * An implicit empty `class Object {}` root exists unless declared.

use std::fmt::{self, Write as _};

use ctxform_hash::FxHashMap;
use ctxform_ir::{Field, Heap, Inv, MSig, Method, Program, ProgramBuilder, Var};

use crate::ast::{self, Cond, CondOperand, Expr, Stmt, Target};
use crate::error::MjError;
use crate::parser::parse;

/// A value operand: a variable or the null literal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Operand {
    /// A local variable (including formals, `this`, and temps).
    Var(Var),
    /// `null`.
    Null,
}

/// One lowered three-address instruction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Instr {
    /// `dst = new C(); // heap`
    New {
        /// Destination variable.
        dst: Var,
        /// Allocation site.
        heap: Heap,
    },
    /// `dst = null;`
    AssignNull {
        /// Destination variable.
        dst: Var,
    },
    /// `dst = src;`
    Assign {
        /// Destination variable.
        dst: Var,
        /// Source variable.
        src: Var,
    },
    /// `dst = base.field;`
    Load {
        /// Destination variable.
        dst: Var,
        /// Base variable.
        base: Var,
        /// Loaded field.
        field: Field,
    },
    /// `base.field = value;`
    Store {
        /// Stored value (a variable or null).
        value: Operand,
        /// Base variable.
        base: Var,
        /// Stored-into field.
        field: Field,
    },
    /// `C.field = value;` for a static field.
    StaticStore {
        /// Stored value (a variable or null).
        value: Operand,
        /// The static field.
        field: Field,
    },
    /// `dst = C.field;` for a static field.
    StaticLoad {
        /// Destination variable.
        dst: Var,
        /// The static field.
        field: Field,
    },
    /// `dst = Target.m(args);`
    CallStatic {
        /// The invocation site.
        inv: Inv,
        /// Statically resolved target method.
        target: Method,
        /// Actual arguments.
        args: Vec<Operand>,
        /// Result destination, if the value is used.
        dst: Option<Var>,
    },
    /// `dst = recv.m(args);`
    CallVirtual {
        /// The invocation site.
        inv: Inv,
        /// Receiver variable.
        recv: Var,
        /// Invoked signature (dispatched at run time / analysis time).
        msig: MSig,
        /// Actual arguments.
        args: Vec<Operand>,
        /// Result destination, if the value is used.
        dst: Option<Var>,
    },
    /// `return;` or `return value;`
    Return {
        /// Returned operand (`None` for void).
        value: Option<Operand>,
    },
    /// `if (a ==/!= b) { … } else { … }`
    If {
        /// Left operand.
        a: Operand,
        /// Right operand.
        b: Operand,
        /// `true` for `==`, `false` for `!=`.
        eq: bool,
        /// Then-branch instructions.
        then_block: Vec<Instr>,
        /// Else-branch instructions.
        else_block: Vec<Instr>,
    },
    /// `while (a ==/!= b) { … }`
    While {
        /// Left operand.
        a: Operand,
        /// Right operand.
        b: Operand,
        /// `true` for `==`, `false` for `!=`.
        eq: bool,
        /// Loop body instructions.
        body: Vec<Instr>,
    },
}

/// The ordered instruction stream of one method.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Body {
    /// Instructions in execution order.
    pub instrs: Vec<Instr>,
}

/// A compiled MiniJava module: the validated fact program plus per-method
/// instruction streams.
#[derive(Debug, Clone)]
pub struct Module {
    /// The Figure 3 relations and entity tables.
    pub program: Program,
    /// Instruction stream per method (indexed by [`Method`]).
    pub bodies: Vec<Body>,
}

impl Module {
    /// Finds a method by its qualified name, e.g. `"Main.main"`.
    pub fn method_by_name(&self, name: &str) -> Option<Method> {
        self.program
            .method_names
            .iter()
            .position(|n| n == name)
            .map(Method::from_index)
    }

    /// Finds a variable of `method` by source name.
    pub fn var_by_name(&self, method: Method, name: &str) -> Option<Var> {
        self.program
            .var_names
            .iter()
            .enumerate()
            .position(|(i, n)| n == name && self.program.var_method[i] == method)
            .map(Var::from_index)
    }

    /// The allocation site whose address is assigned (directly) to `var`,
    /// if exactly one `assign_new` tuple targets it — convenient for tests
    /// that name sites after the paper's `// h1` comments.
    pub fn heap_assigned_to(&self, var: Var) -> Option<Heap> {
        let mut found = None;
        for &(h, y, _) in &self.program.facts.assign_new {
            if y == var {
                if found.is_some() {
                    return None;
                }
                found = Some(h);
            }
        }
        found
    }

    /// The `k`-th invocation site contained in `method`, in source order.
    pub fn inv_in_method(&self, method: Method, k: usize) -> Option<Inv> {
        self.program
            .inv_method
            .iter()
            .enumerate()
            .filter(|&(_, &m)| m == method)
            .map(|(i, _)| Inv::from_index(i))
            .nth(k)
    }
}

/// Parses and lowers MiniJava source in one step.
///
/// # Errors
///
/// Lexical, syntax, resolution, or validation errors.
pub fn compile(source: &str) -> Result<Module, MjError> {
    lower(&parse(source)?)
}

struct MethodSig {
    id: Method,
    is_static: bool,
    has_ret: bool,
    arity: usize,
}

/// Resolution tables are keyed by names borrowed from the source (`'a`),
/// so a lookup never builds an owned key.
struct ClassInfo<'a> {
    ty: ctxform_ir::Type,
    super_idx: Option<usize>,
    /// Own (declared) methods: (name, arity) → signature.
    methods: FxHashMap<(&'a str, usize), MethodSig>,
    /// Own (declared) static fields, by unqualified name.
    static_fields: FxHashMap<&'a str, Field>,
}

struct Lowerer<'a> {
    builder: ProgramBuilder,
    classes: Vec<ClassInfo<'a>>,
    class_idx: FxHashMap<&'a str, usize>,
    field_names: FxHashMap<&'a str, Field>,
    /// All instance-method signatures seen anywhere (for virtual-call
    /// arity/existence checks).
    virtual_sigs: FxHashMap<(&'a str, usize), (MSig, bool)>,
    bodies: Vec<Body>,
    /// Block scopes no method is using, kept empty with their capacity.
    spare_scopes: Vec<Scope<'a>>,
    /// One buffer every generated name (qualified names, temps, site
    /// labels) is written into; the program stores an exact-size copy.
    name: String,
}

type Scope<'a> = FxHashMap<&'a str, Var>;

/// Lowers a parsed module.
///
/// # Errors
///
/// Resolution errors (unknown names, duplicate declarations, static/
/// instance confusion, void-as-value, …) and IR validation errors.
pub fn lower(module: &ast::Module<'_>) -> Result<Module, MjError> {
    let mut lw = Lowerer {
        builder: ProgramBuilder::new(),
        classes: Vec::new(),
        class_idx: FxHashMap::default(),
        field_names: FxHashMap::default(),
        virtual_sigs: FxHashMap::default(),
        bodies: Vec::new(),
        spare_scopes: Vec::new(),
        name: String::new(),
    };
    lw.declare_classes(module)?;
    lw.declare_members(module)?;
    lw.build_dispatch();
    lw.lower_bodies(module)?;
    let program = lw
        .builder
        .finish()
        .map_err(|e| MjError::new(0, 0, format!("validation: {e}")))?;
    let mut bodies = lw.bodies;
    bodies.resize(program.method_count(), Body::default());
    Ok(Module { program, bodies })
}

impl<'a> Lowerer<'a> {
    fn err(line: usize, message: impl Into<String>) -> MjError {
        MjError::new(line, 1, message)
    }

    /// Clears the name buffer and writes `args` into it.
    fn name(&mut self, args: fmt::Arguments<'_>) {
        self.name.clear();
        self.name
            .write_fmt(args)
            .expect("writing to a String cannot fail");
    }

    fn declare_classes(&mut self, module: &ast::Module<'a>) -> Result<(), MjError> {
        let mut decls: Vec<(&'a str, Option<&'a str>, usize)> = module
            .classes
            .iter()
            .map(|c| (c.name, c.superclass, c.line))
            .collect();
        if !module.classes.iter().any(|c| c.name == "Object") {
            decls.insert(0, ("Object", None, 0));
        }
        for &(name, _, line) in &decls {
            if self.class_idx.contains_key(name) {
                return Err(Self::err(line, format!("duplicate class `{name}`")));
            }
            let idx = self.classes.len();
            self.class_idx.insert(name, idx);
            self.classes.push(ClassInfo {
                ty: ctxform_ir::Type(0), // placeholder, assigned below
                super_idx: None,
                methods: FxHashMap::default(),
                static_fields: FxHashMap::default(),
            });
        }
        // Resolve supers, then create ir types in an order where every
        // superclass precedes its subclasses (ProgramBuilder takes the
        // super's Type at creation).
        for &(name, superclass, line) in &decls {
            let idx = self.class_idx[name];
            match superclass {
                None => {
                    self.classes[idx].super_idx = if name == "Object" {
                        None
                    } else {
                        Some(self.class_idx["Object"])
                    };
                }
                Some(s) => {
                    let sup = *self
                        .class_idx
                        .get(s)
                        .ok_or_else(|| Self::err(line, format!("unknown superclass `{s}`")))?;
                    self.classes[idx].super_idx = Some(sup);
                }
            }
        }
        // Cycle check + topological creation.
        let n = self.classes.len();
        let mut created = vec![false; n];
        let mut chain = Vec::new();
        for start in 0..n {
            chain.clear();
            let mut cur = start;
            while !created[cur] {
                chain.push(cur);
                if chain.len() > n {
                    return Err(Self::err(
                        decls[start].2,
                        format!("cyclic inheritance involving `{}`", decls[start].0),
                    ));
                }
                match self.classes[cur].super_idx {
                    Some(s) if !created[s] => cur = s,
                    _ => break,
                }
            }
            for &idx in chain.iter().rev() {
                let sup_ty = self.classes[idx].super_idx.map(|s| self.classes[s].ty);
                if self.classes[idx]
                    .super_idx
                    .map(|s| created[s])
                    .unwrap_or(true)
                {
                    self.classes[idx].ty = self.builder.class(decls[idx].0, sup_ty);
                    created[idx] = true;
                } else {
                    return Err(Self::err(
                        decls[idx].2,
                        format!("cyclic inheritance involving `{}`", decls[idx].0),
                    ));
                }
            }
        }
        Ok(())
    }

    fn declare_members(&mut self, module: &ast::Module<'a>) -> Result<(), MjError> {
        for class in &module.classes {
            let idx = self.class_idx[class.name];
            for &(field_name, _ty) in &class.fields {
                let f = self.builder.field(field_name);
                self.field_names.insert(field_name, f);
            }
            for &(field_name, _ty) in &class.static_fields {
                // Static fields are per-declaring-class signatures,
                // qualified to avoid colliding with instance fields.
                self.name(format_args!("{}.{}", class.name, field_name));
                let f = self.builder.field(&self.name);
                self.classes[idx].static_fields.insert(field_name, f);
            }
            for method in &class.methods {
                let key = (method.name, method.params.len());
                if self.classes[idx].methods.contains_key(&key) {
                    return Err(Self::err(
                        method.line,
                        format!("duplicate method `{}/{}` in `{}`", key.0, key.1, class.name),
                    ));
                }
                // Declare without formals: formal variables are created at
                // body-lowering time so the variable table stays in class
                // declaration order (appending a class then extends the
                // table instead of interleaving ids, which incremental
                // re-analysis depends on).
                self.name(format_args!("{}.{}", class.name, method.name));
                let id = self.builder.method_decl(&self.name, self.classes[idx].ty);
                if !method.is_static {
                    self.name(format_args!("{}/{}", method.name, method.params.len()));
                    let s = self.builder.msig(&self.name);
                    let entry = self.virtual_sigs.entry(key).or_insert((s, false));
                    entry.1 |= method.ret_ty.is_some();
                }
                if method.is_main {
                    self.builder.entry_point(id);
                }
                self.classes[idx].methods.insert(
                    key,
                    MethodSig {
                        id,
                        is_static: method.is_static,
                        has_ret: method.ret_ty.is_some(),
                        arity: method.params.len(),
                    },
                );
            }
        }
        Ok(())
    }

    /// For every class `C` and visible instance signature, record
    /// `implements(Q, C, S)` with `Q` the nearest definition up the chain.
    /// The map's visiting order does not matter: `finish` sorts the
    /// relation.
    fn build_dispatch(&mut self) {
        for idx in 0..self.classes.len() {
            let ty = self.classes[idx].ty;
            for (key, &(msig, _)) in &self.virtual_sigs {
                let mut cur = Some(idx);
                while let Some(c) = cur {
                    if let Some(sig) = self.classes[c].methods.get(key) {
                        if !sig.is_static {
                            self.builder.implement(sig.id, ty, msig);
                        }
                        break;
                    }
                    cur = self.classes[c].super_idx;
                }
            }
        }
    }

    /// Resolves `Class.f`-style static fields up the chain.
    fn resolve_static_field(&self, class_idx: usize, name: &str) -> Option<Field> {
        let mut cur = Some(class_idx);
        while let Some(c) = cur {
            if let Some(&f) = self.classes[c].static_fields.get(name) {
                return Some(f);
            }
            cur = self.classes[c].super_idx;
        }
        None
    }

    /// Resolves `Class.m(args)`-style static targets up the chain.
    fn resolve_static(&self, class_idx: usize, name: &'a str, arity: usize) -> Option<&MethodSig> {
        let mut cur = Some(class_idx);
        while let Some(c) = cur {
            if let Some(sig) = self.classes[c].methods.get(&(name, arity)) {
                return Some(sig);
            }
            cur = self.classes[c].super_idx;
        }
        None
    }

    fn lower_bodies(&mut self, module: &ast::Module<'a>) -> Result<(), MjError> {
        for class in &module.classes {
            let class_idx = self.class_idx[class.name];
            for method in &class.methods {
                let sig_id =
                    self.classes[class_idx].methods[&(method.name, method.params.len())].id;
                let mut ctx = BodyCtx::new(self, sig_id, method)?;
                let mut instrs = Vec::new();
                ctx.block(&method.body, &mut instrs)?;
                let formals = ctx.scopes.pop().expect("the formals' scope");
                self.close_scope(formals);
                let body_slot = sig_id.index();
                if self.bodies.len() <= body_slot {
                    self.bodies.resize(body_slot + 1, Body::default());
                }
                self.bodies[body_slot] = Body { instrs };
            }
        }
        Ok(())
    }

    /// An empty scope, reusing a finished block's table when one is
    /// spare.
    fn open_scope(&mut self) -> Scope<'a> {
        self.spare_scopes.pop().unwrap_or_default()
    }

    fn close_scope(&mut self, mut scope: Scope<'a>) {
        scope.clear();
        self.spare_scopes.push(scope);
    }
}

/// Per-method lowering state: scopes, temps, the `this` variable.
struct BodyCtx<'l, 'a> {
    lw: &'l mut Lowerer<'a>,
    method: Method,
    scopes: Vec<Scope<'a>>,
    this_var: Option<Var>,
    has_ret: bool,
    temp_count: usize,
    site_count: usize,
}

impl<'l, 'a> BodyCtx<'l, 'a> {
    fn new(
        lw: &'l mut Lowerer<'a>,
        method: Method,
        decl: &ast::MethodDecl<'a>,
    ) -> Result<Self, MjError> {
        let mut scope = lw.open_scope();
        let formals = lw
            .builder
            .bind_formals(method, decl.params.iter().map(|p| p.name));
        for (param, &var) in decl.params.iter().zip(formals) {
            if scope.insert(param.name, var).is_some() {
                return Err(Lowerer::err(
                    decl.line,
                    format!("duplicate parameter `{}`", param.name),
                ));
            }
        }
        let this_var = if decl.is_static {
            None
        } else {
            Some(lw.builder.this("this", method))
        };
        Ok(BodyCtx {
            lw,
            method,
            scopes: vec![scope],
            this_var,
            has_ret: decl.ret_ty.is_some(),
            temp_count: 0,
            site_count: 0,
        })
    }

    fn err(line: usize, message: impl Into<String>) -> MjError {
        Lowerer::err(line, message)
    }

    fn lookup(&self, name: &str) -> Option<Var> {
        self.scopes.iter().rev().find_map(|s| s.get(name).copied())
    }

    fn declare(&mut self, name: &'a str, line: usize) -> Result<Var, MjError> {
        if self.scopes.last().unwrap().contains_key(name) {
            return Err(Self::err(line, format!("duplicate variable `{name}`")));
        }
        let v = self.lw.builder.var(name, self.method);
        self.scopes.last_mut().unwrap().insert(name, v);
        Ok(v)
    }

    fn temp(&mut self) -> Var {
        self.lw.name(format_args!("#t{}", self.temp_count));
        self.temp_count += 1;
        self.lw.builder.var(&self.lw.name, self.method)
    }

    /// Writes the next site label of this method, `<method>/<what>#<n>`,
    /// into the name buffer.
    fn site_label(&mut self, what: fmt::Arguments<'_>) {
        let Lowerer { builder, name, .. } = &mut *self.lw;
        name.clear();
        let method = builder.method_name(self.method);
        write!(name, "{method}/{what}#{}", self.site_count)
            .expect("writing to a String cannot fail");
        self.site_count += 1;
    }

    /// If `base` names a class (and is not shadowed by a local), returns
    /// its class-table index.
    fn class_base(&self, base: &Expr<'a>) -> Option<usize> {
        if let Expr::Name { name, .. } = base {
            if self.lookup(name).is_none() {
                return self.lw.class_idx.get(name).copied();
            }
        }
        None
    }

    fn static_field(&self, class_idx: usize, name: &str, line: usize) -> Result<Field, MjError> {
        self.lw
            .resolve_static_field(class_idx, name)
            .ok_or_else(|| Self::err(line, format!("unknown static field `{name}`")))
    }

    fn field(&self, name: &str, line: usize) -> Result<Field, MjError> {
        self.lw
            .field_names
            .get(name)
            .copied()
            .ok_or_else(|| Self::err(line, format!("unknown field `{name}`")))
    }

    fn block(&mut self, stmts: &[Stmt<'a>], out: &mut Vec<Instr>) -> Result<(), MjError> {
        let scope = self.lw.open_scope();
        self.scopes.push(scope);
        for stmt in stmts {
            self.stmt(stmt, out)?;
        }
        let scope = self.scopes.pop().expect("pushed above");
        self.lw.close_scope(scope);
        Ok(())
    }

    fn stmt(&mut self, stmt: &Stmt<'a>, out: &mut Vec<Instr>) -> Result<(), MjError> {
        match stmt {
            Stmt::VarDecl {
                name, init, line, ..
            } => {
                let v = self.declare(name, *line)?;
                match init {
                    Some(e) => self.assign_into(v, e, out)?,
                    None => out.push(Instr::AssignNull { dst: v }),
                }
                Ok(())
            }
            Stmt::Assign {
                target,
                value,
                line,
            } => match target {
                Target::Var(name) => {
                    let v = self
                        .lookup(name)
                        .ok_or_else(|| Self::err(*line, format!("unknown variable `{name}`")))?;
                    self.assign_into(v, value, out)
                }
                Target::Field(base, field_name) => {
                    if let Some(class_idx) = self.class_base(base) {
                        // `C.f = value;` — static store.
                        let field = self.static_field(class_idx, field_name, *line)?;
                        let value_op = self.operand(value, out)?;
                        if let Operand::Var(v) = value_op {
                            self.lw.builder.static_store(v, field);
                        }
                        out.push(Instr::StaticStore {
                            value: value_op,
                            field,
                        });
                        return Ok(());
                    }
                    let field = self.field(field_name, *line)?;
                    let base_var = self.operand_var(base, out)?;
                    let value_op = self.operand(value, out)?;
                    if let Operand::Var(v) = value_op {
                        self.lw.builder.store(v, field, base_var);
                    }
                    out.push(Instr::Store {
                        value: value_op,
                        base: base_var,
                        field,
                    });
                    Ok(())
                }
            },
            Stmt::If {
                cond,
                then_block,
                else_block,
                ..
            } => {
                let (a, b, eq) = self.cond(cond, out)?;
                let mut t = Vec::new();
                let mut e = Vec::new();
                self.block(then_block, &mut t)?;
                self.block(else_block, &mut e)?;
                out.push(Instr::If {
                    a,
                    b,
                    eq,
                    then_block: t,
                    else_block: e,
                });
                Ok(())
            }
            Stmt::While { cond, body, .. } => {
                let (a, b, eq) = self.cond(cond, out)?;
                let mut instrs = Vec::new();
                self.block(body, &mut instrs)?;
                out.push(Instr::While {
                    a,
                    b,
                    eq,
                    body: instrs,
                });
                Ok(())
            }
            Stmt::Return { value, line } => {
                let op = match value {
                    None => None,
                    Some(e) => Some(self.operand(e, out)?),
                };
                if op.is_some() && !self.has_ret {
                    return Err(Self::err(*line, "void method returns a value"));
                }
                if let Some(Operand::Var(v)) = op {
                    self.lw.builder.ret(v, self.method);
                }
                out.push(Instr::Return { value: op });
                Ok(())
            }
            Stmt::Expr { expr, line } => {
                let Expr::Call { .. } = expr else {
                    return Err(Self::err(*line, "expression statements must be calls"));
                };
                self.call(expr, None, out)?;
                Ok(())
            }
        }
    }

    /// Lowers a condition, hoisting operands into variables.
    fn cond(
        &mut self,
        cond: &Cond<'a>,
        _out: &mut [Instr],
    ) -> Result<(Operand, Operand, bool), MjError> {
        let op = |this: &Self, o: &CondOperand<'a>| -> Result<Operand, MjError> {
            match o {
                CondOperand::Null => Ok(Operand::Null),
                CondOperand::This => this
                    .this_var
                    .map(Operand::Var)
                    .ok_or_else(|| Self::err(0, "`this` in a static method")),
                CondOperand::Var(name) => this
                    .lookup(name)
                    .map(Operand::Var)
                    .ok_or_else(|| Self::err(0, format!("unknown variable `{name}`"))),
            }
        };
        match cond {
            // `true` ⇢ null == null; `false` ⇢ null != null.
            Cond::True => Ok((Operand::Null, Operand::Null, true)),
            Cond::False => Ok((Operand::Null, Operand::Null, false)),
            Cond::Eq(a, b) => Ok((op(self, a)?, op(self, b)?, true)),
            Cond::Ne(a, b) => Ok((op(self, a)?, op(self, b)?, false)),
        }
    }

    /// Lowers `dst = expr`, emitting exactly one fact/instruction for
    /// simple right-hand sides (no spurious temps).
    fn assign_into(
        &mut self,
        dst: Var,
        expr: &Expr<'a>,
        out: &mut Vec<Instr>,
    ) -> Result<(), MjError> {
        match expr {
            Expr::Null => {
                out.push(Instr::AssignNull { dst });
                Ok(())
            }
            Expr::This { line } => {
                let t = self
                    .this_var
                    .ok_or_else(|| Self::err(*line, "`this` in a static method"))?;
                self.lw.builder.assign(t, dst);
                out.push(Instr::Assign { dst, src: t });
                Ok(())
            }
            Expr::Name { name, line } => {
                let src = self
                    .lookup(name)
                    .ok_or_else(|| Self::err(*line, format!("unknown variable `{name}`")))?;
                self.lw.builder.assign(src, dst);
                out.push(Instr::Assign { dst, src });
                Ok(())
            }
            Expr::New { class, line } => {
                let &idx = self
                    .lw
                    .class_idx
                    .get(class)
                    .ok_or_else(|| Self::err(*line, format!("unknown class `{class}`")))?;
                let ty = self.lw.classes[idx].ty;
                self.site_label(format_args!("new {class}"));
                let heap = self.lw.builder.alloc(&self.lw.name, ty, dst, self.method);
                out.push(Instr::New { dst, heap });
                Ok(())
            }
            Expr::FieldAccess { base, field, line } => {
                if let Some(class_idx) = self.class_base(base) {
                    // `dst = C.f;` — static load.
                    let f = self.static_field(class_idx, field, *line)?;
                    self.lw.builder.static_load(f, dst);
                    out.push(Instr::StaticLoad { dst, field: f });
                    return Ok(());
                }
                let f = self.field(field, *line)?;
                let base_var = self.operand_var(base, out)?;
                self.lw.builder.load(base_var, f, dst);
                out.push(Instr::Load {
                    dst,
                    base: base_var,
                    field: f,
                });
                Ok(())
            }
            Expr::Call { .. } => {
                self.call(expr, Some(dst), out)?;
                Ok(())
            }
        }
    }

    /// Lowers an expression to an operand, introducing a temp when needed.
    fn operand(&mut self, expr: &Expr<'a>, out: &mut Vec<Instr>) -> Result<Operand, MjError> {
        match expr {
            Expr::Null => Ok(Operand::Null),
            Expr::This { line } => self
                .this_var
                .map(Operand::Var)
                .ok_or_else(|| Self::err(*line, "`this` in a static method")),
            Expr::Name { name, line } => self
                .lookup(name)
                .map(Operand::Var)
                .ok_or_else(|| Self::err(*line, format!("unknown variable `{name}`"))),
            _ => {
                let t = self.temp();
                self.assign_into(t, expr, out)?;
                Ok(Operand::Var(t))
            }
        }
    }

    /// Like [`BodyCtx::operand`] but requires a variable (field-access and
    /// call receivers cannot be the null literal).
    fn operand_var(&mut self, expr: &Expr<'a>, out: &mut Vec<Instr>) -> Result<Var, MjError> {
        match self.operand(expr, out)? {
            Operand::Var(v) => Ok(v),
            Operand::Null => Err(Self::err(expr.line(), "explicit null has no members")),
        }
    }

    /// Lowers a call expression. `Class.m(…)` with `Class` not shadowed by
    /// a local is a static call; everything else is a virtual call.
    fn call(
        &mut self,
        expr: &Expr<'a>,
        dst: Option<Var>,
        out: &mut Vec<Instr>,
    ) -> Result<(), MjError> {
        let Expr::Call {
            base,
            method,
            args,
            line,
        } = expr
        else {
            unreachable!("caller checked");
        };
        // Static-call detection.
        let static_target = match base.as_ref() {
            Expr::Name { name, .. } if self.lookup(name).is_none() => {
                match self.lw.class_idx.get(name) {
                    Some(&class_idx) => Some((*name, class_idx)),
                    None => {
                        return Err(Self::err(
                            *line,
                            format!("unknown variable or class `{name}`"),
                        ))
                    }
                }
            }
            _ => None,
        };
        let mut arg_ops = Vec::with_capacity(args.len());
        for a in args {
            arg_ops.push(self.operand(a, out)?);
        }
        let caller = self.method;
        if let Some((class_name, class_idx)) = static_target {
            let sig = self
                .lw
                .resolve_static(class_idx, method, args.len())
                .ok_or_else(|| {
                    Self::err(
                        *line,
                        format!("unknown method `{class_name}.{method}/{}`", args.len()),
                    )
                })?;
            if !sig.is_static {
                return Err(Self::err(
                    *line,
                    format!("`{class_name}.{method}` is an instance method; call it on a value"),
                ));
            }
            if dst.is_some() && !sig.has_ret {
                return Err(Self::err(
                    *line,
                    format!("void method `{method}` used as a value"),
                ));
            }
            let target = sig.id;
            debug_assert_eq!(sig.arity, args.len());
            self.site_label(format_args!("call {class_name}.{method}"));
            let inv = self
                .lw
                .builder
                .static_call(&self.lw.name, caller, target, &[], dst);
            // Null actuals produce no tuple.
            self.push_actuals(inv, &arg_ops);
            out.push(Instr::CallStatic {
                inv,
                target,
                args: arg_ops,
                dst,
            });
        } else {
            let recv = self.operand_var(base, out)?;
            let key = (*method, args.len());
            let &(msig, has_ret) = self.lw.virtual_sigs.get(&key).ok_or_else(|| {
                Self::err(
                    *line,
                    format!("no instance method `{method}/{}` declared", args.len()),
                )
            })?;
            if dst.is_some() && !has_ret {
                return Err(Self::err(
                    *line,
                    format!("void method `{method}` used as a value"),
                ));
            }
            self.site_label(format_args!("call {method}"));
            let inv = self
                .lw
                .builder
                .virtual_call(&self.lw.name, caller, recv, msig, &[], dst);
            self.push_actuals(inv, &arg_ops);
            out.push(Instr::CallVirtual {
                inv,
                recv,
                msig,
                args: arg_ops,
                dst,
            });
        }
        Ok(())
    }

    /// Records `actual` tuples for variable operands, keeping slot numbers
    /// aligned with formal positions (null actuals get no tuple).
    fn push_actuals(&mut self, inv: Inv, args: &[Operand]) {
        for (o, arg) in args.iter().enumerate() {
            if let Operand::Var(v) = arg {
                self.lw.builder.push_actual(*v, inv, o as u32);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn compile_ok(src: &str) -> Module {
        compile(src).expect("compiles")
    }

    const BOX_SRC: &str = "
        class Box {
            Object value;
            void set(Object v) { this.value = v; }
            Object get() { return this.value; }
        }
        class Main {
            public static void main(String[] args) {
                Box b = new Box();
                Object o = new Object();
                b.set(o);
                Object r = b.get();
            }
        }
    ";

    #[test]
    fn lowers_the_box_program() {
        let m = compile_ok(BOX_SRC);
        let p = &m.program;
        assert_eq!(p.facts.assign_new.len(), 2);
        assert_eq!(p.facts.virtual_invoke.len(), 2);
        assert_eq!(p.facts.store.len(), 1);
        assert_eq!(p.facts.load.len(), 1);
        assert_eq!(p.facts.this_var.len(), 2);
        assert_eq!(p.facts.actual.len(), 1);
        assert_eq!(p.facts.assign_return.len(), 1);
        assert_eq!(p.entry_points.len(), 1);
        // Dispatch: Box and Object both see set/1 and get/0? Only Box
        // declares them, Object does not inherit downward.
        assert_eq!(
            p.facts
                .implements
                .iter()
                .filter(|&&(_, t, _)| t == p.facts.heap_type[0].1)
                .count(),
            2
        );
    }

    #[test]
    fn no_spurious_temps_for_simple_assignments() {
        let m = compile_ok(
            "class Main { public static void main(String[] args) {
                Object x = new Object();
                Object y = x;
            } }",
        );
        assert!(m.program.var_names.iter().all(|n| !n.starts_with("#t")));
        assert_eq!(m.program.facts.assign.len(), 1);
    }

    #[test]
    fn nested_calls_introduce_temps() {
        let m = compile_ok(
            "class A { Object id(Object p) { return p; } }
             class Main { public static void main(String[] args) {
                A a = new A();
                Object x = a.id(a.id(a));
             } }",
        );
        assert!(m.program.var_names.iter().any(|n| n.starts_with("#t")));
        assert_eq!(m.program.facts.virtual_invoke.len(), 2);
    }

    #[test]
    fn static_calls_resolve_through_superclass() {
        let m = compile_ok(
            "class A { static Object make() { return new Object(); } }
             class B extends A { }
             class Main { public static void main(String[] args) {
                Object x = B.make();
             } }",
        );
        assert_eq!(m.program.facts.static_invoke.len(), 1);
        let (_, target, _) = m.program.facts.static_invoke[0];
        assert_eq!(m.program.method_names[target.index()], "A.make");
    }

    #[test]
    fn overriding_updates_dispatch() {
        let m = compile_ok(
            "class A { Object m() { return null; } }
             class B extends A { Object m() { return null; } }
             class C extends B { }
             class Main { public static void main(String[] args) {
                A a = new C();
                Object x = a.m();
             } }",
        );
        let p = &m.program;
        let find_ty = |name: &str| {
            ctxform_ir::Type::from_index(p.type_names.iter().position(|n| n == name).unwrap())
        };
        let ix = p.index();
        let msig = ctxform_ir::MSig(0);
        let b_m = ix.resolve(find_ty("B"), msig).unwrap();
        let c_m = ix.resolve(find_ty("C"), msig).unwrap();
        let a_m = ix.resolve(find_ty("A"), msig).unwrap();
        assert_eq!(b_m, c_m, "C inherits B.m");
        assert_ne!(a_m, b_m, "B overrides A.m");
        assert_eq!(ix.resolve(find_ty("Object"), msig), None);
    }

    #[test]
    fn null_actuals_and_stores_produce_no_facts() {
        let m = compile_ok(
            "class A { Object f; void set(Object p) { this.f = null; } }
             class Main { public static void main(String[] args) {
                A a = new A();
                a.set(null);
             } }",
        );
        assert_eq!(m.program.facts.actual.len(), 0);
        assert_eq!(m.program.facts.store.len(), 0);
    }

    #[test]
    fn control_flow_lowers_to_structured_instrs() {
        let m = compile_ok(
            "class Main { public static void main(String[] args) {
                Object a = new Object();
                Object b = null;
                if (a == b) { b = a; } else { b = null; }
                while (b != null) { b = null; }
             } }",
        );
        let main = m.method_by_name("Main.main").unwrap();
        let body = &m.bodies[main.index()];
        assert!(matches!(body.instrs[2], Instr::If { eq: true, .. }));
        assert!(matches!(body.instrs[3], Instr::While { eq: false, .. }));
    }

    #[test]
    fn shadowing_in_nested_scopes() {
        let m = compile_ok(
            "class Main { public static void main(String[] args) {
                Object x = new Object();
                if (true) { Object y = x; }
                Object y = null;
             } }",
        );
        // Two distinct `y` variables.
        let main = m.method_by_name("Main.main").unwrap();
        let count = m
            .program
            .var_names
            .iter()
            .enumerate()
            .filter(|&(i, n)| n == "y" && m.program.var_method[i] == main)
            .count();
        assert_eq!(count, 2);
    }

    #[test]
    fn resolution_errors_are_reported() {
        let cases: &[(&str, &str)] = &[
            ("class A extends Missing { }", "unknown superclass"),
            ("class A extends A { } class Main { public static void main(String[] args) { } }", "cyclic"),
            ("class Main { public static void main(String[] args) { x = null; } }", "unknown variable"),
            ("class Main { public static void main(String[] args) { Object x = new Nope(); } }", "unknown class"),
            ("class Main { public static void main(String[] args) { Object x = null; Object y = x.f; } }", "unknown field"),
            ("class Main { public static void main(String[] args) { Object y = Main.nope(); } }", "unknown method"),
            ("class A { void v() { } } class Main { public static void main(String[] args) { A a = new A(); Object x = a.v(); } }", "void method"),
            ("class Main { static void s() { Object t = this; } public static void main(String[] args) { } }", "static method"),
            ("class A { Object m() { return null; } } class Main { public static void main(String[] args) { Object x = A.m(); } }", "instance method"),
        ];
        for (src, needle) in cases {
            let err = compile(src).unwrap_err();
            assert!(
                err.message.contains(needle),
                "source {src:?} gave `{}`, wanted `{needle}`",
                err.message
            );
        }
    }

    #[test]
    fn void_static_method_as_value_is_rejected() {
        let err = compile(
            "class A { static void s() { } }
             class Main { public static void main(String[] args) { Object x = A.s(); } }",
        )
        .unwrap_err();
        assert!(err.message.contains("void method"));
    }

    /// Figure 2: each statement kind produces exactly its PAG relation row.
    #[test]
    fn figure2_statement_edge_mapping() {
        let m = compile_ok(
            "class T {
                Object f;
                static Object m(Object f1) { return f1; }
             }
             class Main { public static void main(String[] args) {
                Object y = new Object();
                Object x = y;
                T base = new T();
                base.f = y;
                Object z = base.f;
                Object r = T.m(y);
             } }",
        );
        let p = &m.program;
        let main = m.method_by_name("Main.main").unwrap();
        let var = |n: &str| m.var_by_name(main, n).unwrap();
        let tm = m.method_by_name("T.m").unwrap();
        let f1 = m.var_by_name(tm, "f1").unwrap();

        // x = y;            ⇒ assign(y, x)          (y → x edge)
        assert!(p.facts.assign.contains(&(var("y"), var("x"))));
        // x = new T(); // h ⇒ assign_new(h, x, main)
        let h = m.heap_assigned_to(var("y")).unwrap();
        assert!(p.facts.assign_new.contains(&(h, var("y"), main)));
        // base.f = y;       ⇒ store(y, f, base)
        let f = ctxform_ir::Field(0);
        assert!(p.facts.store.contains(&(var("y"), f, var("base"))));
        // z = base.f;       ⇒ load(base, f, z)
        assert!(p.facts.load.contains(&(var("base"), f, var("z"))));
        // r = T.m(y); // c  ⇒ actual(y, c, 0) — the aₖ → fₖ edge at ĉ —
        //                     and assign_return(c, r) — the u → r edge at č.
        let c = m.inv_in_method(main, 0).unwrap();
        assert!(p.facts.actual.contains(&(var("y"), c, 0)));
        assert!(p.facts.assign_return.contains(&(c, var("r"))));
        assert!(p.facts.formal.contains(&(f1, tm, 0)));
        assert!(p.facts.ret.contains(&(f1, tm)));
    }

    #[test]
    fn static_fields_lower_to_sstore_sload() {
        let m = compile_ok(
            "class G { static Object cache; }
             class Main { public static void main(String[] args) {
                Object o = new Object();
                G.cache = o;
                Object r = G.cache;
             } }",
        );
        assert_eq!(m.program.facts.static_store.len(), 1);
        assert_eq!(m.program.facts.static_load.len(), 1);
        // Qualified field signature, separate from instance fields.
        assert!(m.program.field_names.iter().any(|n| n == "G.cache"));
        let main = m.method_by_name("Main.main").unwrap();
        let body = &m.bodies[main.index()];
        assert!(body
            .instrs
            .iter()
            .any(|i| matches!(i, Instr::StaticStore { .. })));
        assert!(body
            .instrs
            .iter()
            .any(|i| matches!(i, Instr::StaticLoad { .. })));
    }

    #[test]
    fn static_fields_resolve_through_superclass() {
        let m = compile_ok(
            "class Base { static Object shared; }
             class Sub extends Base { }
             class Main { public static void main(String[] args) {
                Sub.shared = new Object();
                Object r = Sub.shared;
             } }",
        );
        // Resolved to the declaring class Base.
        assert!(m.program.field_names.iter().any(|n| n == "Base.shared"));
        assert_eq!(m.program.facts.static_store.len(), 1);
    }

    #[test]
    fn locals_shadow_class_names_in_field_access() {
        // `G` is a local here, so `G.cache` is an *instance* access.
        let m = compile_ok(
            "class G { Object cache; static Object scache; }
             class Main { public static void main(String[] args) {
                G G = new G();
                Object o = new Object();
                G.cache = o;
                Object r = G.cache;
             } }",
        );
        assert_eq!(m.program.facts.store.len(), 1);
        assert_eq!(m.program.facts.static_store.len(), 0);
    }

    #[test]
    fn unknown_static_field_is_reported() {
        let err = compile(
            "class G { static Object a; }
             class Main { public static void main(String[] args) {
                Object r = G.missing;
             } }",
        )
        .unwrap_err();
        assert!(
            err.message.contains("unknown static field"),
            "{}",
            err.message
        );
    }

    #[test]
    fn null_static_store_produces_no_fact() {
        let m = compile_ok(
            "class G { static Object a; }
             class Main { public static void main(String[] args) {
                G.a = null;
                Object r = G.a;
             } }",
        );
        assert_eq!(m.program.facts.static_store.len(), 0);
        assert_eq!(m.program.facts.static_load.len(), 1);
    }

    #[test]
    fn module_lookup_helpers() {
        let m = compile_ok(BOX_SRC);
        let main = m.method_by_name("Main.main").unwrap();
        let b = m.var_by_name(main, "b").unwrap();
        let heap = m.heap_assigned_to(b).unwrap();
        assert!(m.program.heap_names[heap.index()].contains("new Box"));
        assert!(m.inv_in_method(main, 0).is_some());
        assert!(m.inv_in_method(main, 2).is_none());
    }
}
