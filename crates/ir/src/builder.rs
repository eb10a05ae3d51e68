//! Fluent construction of [`Program`]s.

use ctxform_hash::FxHashMap;

use crate::error::IrError;
use crate::ids::{Field, Heap, Inv, MSig, Method, Type, Var};
use crate::program::Program;

/// Incremental builder for a [`Program`].
///
/// Entities are created with `class`, `method_in`, `var`, … and statements
/// are recorded with `assign`, `alloc`, `load`, `store`, `static_call`,
/// `virtual_call`, `ret`. [`ProgramBuilder::finish`] canonicalizes the fact
/// relations and validates the result.
///
/// ```
/// use ctxform_ir::ProgramBuilder;
///
/// let mut b = ProgramBuilder::new();
/// let object = b.class("Object", None);
/// let main = b.method_in("main", object, &[]);
/// b.entry_point(main);
/// let x = b.var("x", main);
/// let y = b.var("y", main);
/// b.alloc("main/new#0", object, x, main);
/// b.assign(x, y); // y = x;
/// let program = b.finish()?;
/// assert_eq!(program.stats().vars, 2);
/// # Ok::<(), ctxform_ir::IrError>(())
/// ```
#[derive(Debug, Default)]
pub struct ProgramBuilder {
    program: Program,
    field_by_name: FxHashMap<String, Field>,
    msig_by_name: FxHashMap<String, MSig>,
    formals: FxHashMap<Method, Vec<Var>>,
}

impl ProgramBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Declares a class type with an optional superclass.
    pub fn class(&mut self, name: &str, supertype: Option<Type>) -> Type {
        let t = Type::from_index(self.program.type_names.len());
        self.program.type_names.push(name.to_owned());
        self.program.supertype.push(supertype);
        t
    }

    /// Interns a field signature by name.
    pub fn field(&mut self, name: &str) -> Field {
        if let Some(&f) = self.field_by_name.get(name) {
            return f;
        }
        let f = Field::from_index(self.program.field_names.len());
        self.program.field_names.push(name.to_owned());
        self.field_by_name.insert(name.to_owned(), f);
        f
    }

    /// Interns a method signature (dispatch key) by name.
    pub fn msig(&mut self, name: &str) -> MSig {
        if let Some(&s) = self.msig_by_name.get(name) {
            return s;
        }
        let s = MSig::from_index(self.program.msig_names.len());
        self.program.msig_names.push(name.to_owned());
        self.msig_by_name.insert(name.to_owned(), s);
        s
    }

    /// Declares a method implemented in `class`, creating one formal
    /// variable per name in `formal_names` (retrievable via
    /// [`ProgramBuilder::formals`]).
    pub fn method_in(&mut self, name: &str, class: Type, formal_names: &[&str]) -> Method {
        let m = Method::from_index(self.program.method_names.len());
        self.program.method_names.push(name.to_owned());
        self.program.method_class.push(class);
        let mut formals = Vec::with_capacity(formal_names.len());
        for (o, formal_name) in formal_names.iter().enumerate() {
            let v = self.var(formal_name, m);
            self.program.facts.formal.push((v, m, o as u32));
            formals.push(v);
        }
        self.formals.insert(m, formals);
        m
    }

    /// Declares a method implemented in `class` *without* creating its
    /// formal variables; bind them later with
    /// [`ProgramBuilder::bind_formals`]. Frontends that declare all
    /// methods up front but lower bodies per class use this to keep the
    /// variable table in per-method order, so appending a class to a
    /// source program extends every entity table instead of interleaving
    /// new ids among existing ones (which incremental re-analysis relies
    /// on — see `ProgramDiff`).
    pub fn method_decl(&mut self, name: &str, class: Type) -> Method {
        let m = Method::from_index(self.program.method_names.len());
        self.program.method_names.push(name.to_owned());
        self.program.method_class.push(class);
        m
    }

    /// Creates the formal-parameter variables of a method declared with
    /// [`ProgramBuilder::method_decl`], recording one `formal` tuple per
    /// name in slot order, and returns them (also retrievable via
    /// [`ProgramBuilder::formals`]).
    pub fn bind_formals<'n>(
        &mut self,
        m: Method,
        formal_names: impl ExactSizeIterator<Item = &'n str>,
    ) -> &[Var] {
        let mut formals = Vec::with_capacity(formal_names.len());
        for (o, formal_name) in formal_names.enumerate() {
            let v = self.var(formal_name, m);
            self.program.facts.formal.push((v, m, o as u32));
            formals.push(v);
        }
        self.formals.insert(m, formals);
        &self.formals[&m]
    }

    /// The formal-parameter variables of `m`, in slot order.
    pub fn formals(&self, m: Method) -> &[Var] {
        self.formals.get(&m).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Creates the `this` variable of method `m` and records the
    /// `this_var` tuple.
    pub fn this(&mut self, name: &str, m: Method) -> Var {
        let v = self.var(name, m);
        self.program.facts.this_var.push((v, m));
        v
    }

    /// Marks `m` as a program entry point.
    pub fn entry_point(&mut self, m: Method) {
        self.program.entry_points.push(m);
    }

    /// Records that invoking signature `s` on receiver type `t` dispatches
    /// to method `q` (`implements(Q, T, S)`).
    pub fn implement(&mut self, q: Method, t: Type, s: MSig) {
        self.program.facts.implements.push((q, t, s));
    }

    /// Creates a fresh local variable inside method `m`.
    pub fn var(&mut self, name: &str, m: Method) -> Var {
        let v = Var::from_index(self.program.var_names.len());
        self.program.var_names.push(name.to_owned());
        self.program.var_method.push(m);
        v
    }

    /// Records `into = new ty(); // site` inside method `m`.
    pub fn alloc(&mut self, site_name: &str, ty: Type, into: Var, m: Method) -> Heap {
        let h = Heap::from_index(self.program.heap_names.len());
        self.program.heap_names.push(site_name.to_owned());
        self.program.heap_method.push(m);
        self.program.facts.assign_new.push((h, into, m));
        self.program.facts.heap_type.push((h, ty));
        h
    }

    /// Records `to = from;`.
    pub fn assign(&mut self, from: Var, to: Var) {
        self.program.facts.assign.push((from, to));
    }

    /// Records `dst = base.field;`.
    pub fn load(&mut self, base: Var, field: Field, dst: Var) {
        self.program.facts.load.push((base, field, dst));
    }

    /// Records `base.field = value;`.
    pub fn store(&mut self, value: Var, field: Field, base: Var) {
        self.program.facts.store.push((value, field, base));
    }

    /// Records `C.field = value;` for a static field.
    pub fn static_store(&mut self, value: Var, field: Field) {
        self.program.facts.static_store.push((value, field));
    }

    /// Records `dst = C.field;` for a static field.
    pub fn static_load(&mut self, field: Field, dst: Var) {
        self.program.facts.static_load.push((field, dst));
    }

    /// Records `return z;` inside method `p`.
    pub fn ret(&mut self, z: Var, p: Method) {
        self.program.facts.ret.push((z, p));
    }

    /// Records a static invocation of `target` at a fresh site inside
    /// `caller`, passing `args` and assigning the return value to `result`.
    pub fn static_call(
        &mut self,
        site_name: &str,
        caller: Method,
        target: Method,
        args: &[Var],
        result: Option<Var>,
    ) -> Inv {
        let i = self.fresh_inv(site_name, caller);
        self.program.facts.static_invoke.push((i, target, caller));
        self.record_args(i, args, result);
        i
    }

    /// Records a virtual invocation of signature `msig` on receiver `recv`
    /// at a fresh site inside `caller`.
    pub fn virtual_call(
        &mut self,
        site_name: &str,
        caller: Method,
        recv: Var,
        msig: MSig,
        args: &[Var],
        result: Option<Var>,
    ) -> Inv {
        let i = self.fresh_inv(site_name, caller);
        self.program.facts.virtual_invoke.push((i, recv, msig));
        self.record_args(i, args, result);
        i
    }

    fn fresh_inv(&mut self, name: &str, caller: Method) -> Inv {
        let i = Inv::from_index(self.program.inv_names.len());
        self.program.inv_names.push(name.to_owned());
        self.program.inv_method.push(caller);
        i
    }

    /// Records a single `actual` tuple; useful when some argument
    /// positions carry no variable (e.g. null literals) and slot numbers
    /// must still align with formals.
    pub fn push_actual(&mut self, arg: Var, i: Inv, slot: u32) {
        self.program.facts.actual.push((arg, i, slot));
    }

    /// The display name of a previously created method.
    pub fn method_name(&self, m: Method) -> &str {
        &self.program.method_names[m.index()]
    }

    fn record_args(&mut self, i: Inv, args: &[Var], result: Option<Var>) {
        for (o, &a) in args.iter().enumerate() {
            self.program.facts.actual.push((a, i, o as u32));
        }
        if let Some(r) = result {
            self.program.facts.assign_return.push((i, r));
        }
    }

    /// Canonicalizes the relations and validates the program.
    ///
    /// # Errors
    ///
    /// Any constraint violation reported by [`Program::validate`].
    pub fn finish(mut self) -> Result<Program, IrError> {
        self.program.facts.canonicalize();
        self.program.validate()?;
        Ok(self.program)
    }

    /// Returns the program without validating (for tests that need invalid
    /// programs).
    pub fn finish_unchecked(mut self) -> Program {
        self.program.facts.canonicalize();
        self.program
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_wires_calls_and_formals() {
        let mut b = ProgramBuilder::new();
        let object = b.class("Object", None);
        let t = b.class("T", Some(object));
        let id = b.method_in("T.id", t, &["p"]);
        let p = b.formals(id)[0];
        b.ret(p, id);
        let main = b.method_in("main", t, &[]);
        b.entry_point(main);
        let x = b.var("x", main);
        let r = b.var("r", main);
        b.alloc("main/new", object, x, main);
        let i = b.static_call("main/id", main, id, &[x], Some(r));
        let prog = b.finish().expect("valid");
        assert_eq!(prog.facts.actual, vec![(x, i, 0)]);
        assert_eq!(prog.facts.assign_return, vec![(i, r)]);
        assert_eq!(prog.facts.formal, vec![(p, id, 0)]);
        assert_eq!(prog.facts.static_invoke, vec![(i, id, main)]);
    }

    #[test]
    fn fields_and_msigs_are_interned() {
        let mut b = ProgramBuilder::new();
        let f1 = b.field("f");
        let f2 = b.field("f");
        let g = b.field("g");
        assert_eq!(f1, f2);
        assert_ne!(f1, g);
        let s1 = b.msig("m/1");
        let s2 = b.msig("m/1");
        assert_eq!(s1, s2);
    }

    #[test]
    fn this_var_is_recorded() {
        let mut b = ProgramBuilder::new();
        let object = b.class("Object", None);
        let m = b.method_in("T.m", object, &[]);
        let this = b.this("this", m);
        b.entry_point(m);
        let prog = b.finish().expect("valid");
        assert_eq!(prog.facts.this_var, vec![(this, m)]);
    }

    #[test]
    fn virtual_call_records_receiver_and_sig() {
        let mut b = ProgramBuilder::new();
        let object = b.class("Object", None);
        let m = b.method_in("main", object, &[]);
        b.entry_point(m);
        let recv = b.var("recv", m);
        b.alloc("site", object, recv, m);
        let s = b.msig("run/0");
        let run = b.method_in("Object.run", object, &[]);
        b.this("this", run);
        b.implement(run, object, s);
        let i = b.virtual_call("main/run", m, recv, s, &[], None);
        let prog = b.finish().expect("valid");
        assert_eq!(prog.facts.virtual_invoke, vec![(i, recv, s)]);
        assert_eq!(prog.inv_method[i.index()], m);
    }
}
