//! The [`Program`] container: entity tables + input relations + validation.

use std::collections::HashMap;

use crate::error::IrError;
use crate::facts::Facts;
use crate::ids::{EntityKind, Field, Heap, Inv, MSig, Method, Type, Var};
use crate::index::ProgramIndex;

/// A whole program under analysis: entity metadata plus the Figure 3 input
/// relations.
///
/// A `Program` is immutable once built (use [`crate::ProgramBuilder`]); the
/// solver derives everything else from it. Entity tables are parallel
/// vectors indexed by the dense ids of this crate ([`Var`], [`Heap`], …).
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct Program {
    /// Display name of every variable.
    pub var_names: Vec<String>,
    /// Method owning each variable (`parent(Y)` in the paper).
    pub var_method: Vec<Method>,
    /// Display name of every allocation site.
    pub heap_names: Vec<String>,
    /// Method containing each allocation site (`parent(H)`).
    pub heap_method: Vec<Method>,
    /// Display name of every invocation site.
    pub inv_names: Vec<String>,
    /// Method containing each invocation site (`parent(I)`).
    pub inv_method: Vec<Method>,
    /// Display name of every method.
    pub method_names: Vec<String>,
    /// Class in which each method is *implemented* (`classOf` uses this).
    pub method_class: Vec<Type>,
    /// Display name of every field signature.
    pub field_names: Vec<String>,
    /// Display name of every class type.
    pub type_names: Vec<String>,
    /// Superclass of each type (`None` for roots).
    pub supertype: Vec<Option<Type>>,
    /// Display name of every method signature.
    pub msig_names: Vec<String>,
    /// Program entry points (`main` methods); seeds of the Entry rule.
    pub entry_points: Vec<Method>,
    /// The thirteen input relations of Figure 3.
    pub facts: Facts,
}

impl Program {
    /// Number of variables.
    pub fn var_count(&self) -> usize {
        self.var_names.len()
    }

    /// Number of allocation sites.
    pub fn heap_count(&self) -> usize {
        self.heap_names.len()
    }

    /// Number of invocation sites.
    pub fn inv_count(&self) -> usize {
        self.inv_names.len()
    }

    /// Number of methods.
    pub fn method_count(&self) -> usize {
        self.method_names.len()
    }

    /// Number of field signatures.
    pub fn field_count(&self) -> usize {
        self.field_names.len()
    }

    /// Number of class types.
    pub fn type_count(&self) -> usize {
        self.type_names.len()
    }

    /// Number of method signatures.
    pub fn msig_count(&self) -> usize {
        self.msig_names.len()
    }

    /// `classOf(H)`: the class type in which the method containing
    /// allocation site `h` is implemented (used by type sensitivity).
    pub fn class_of_heap(&self, h: Heap) -> Type {
        self.method_class[self.heap_method[h.index()].index()]
    }

    /// Builds the precomputed join indices used by the solver.
    pub fn index(&self) -> ProgramIndex {
        ProgramIndex::new(self)
    }

    /// Summary statistics for reports.
    pub fn stats(&self) -> ProgramStats {
        ProgramStats {
            vars: self.var_count(),
            heaps: self.heap_count(),
            invs: self.inv_count(),
            methods: self.method_count(),
            fields: self.field_count(),
            types: self.type_count(),
            input_facts: self.facts.len(),
        }
    }

    /// Checks referential integrity of every table and relation.
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint: dangling ids, a heap site with
    /// zero/multiple types, ambiguous dispatch, duplicate formal slots,
    /// formals/`this`/returns owned by a different method, a cyclic class
    /// hierarchy, or a missing entry point.
    pub fn validate(&self) -> Result<(), IrError> {
        self.check_tables()?;
        self.check_relations()?;
        self.check_heap_types()?;
        self.check_dispatch()?;
        self.check_bindings()?;
        self.check_hierarchy()?;
        if self.entry_points.is_empty() {
            return Err(IrError::NoEntryPoint);
        }
        for &m in &self.entry_points {
            self.check_method(m, "entry_points")?;
        }
        Ok(())
    }

    fn check_var(&self, v: Var, context: &str) -> Result<(), IrError> {
        if v.index() >= self.var_count() {
            return Err(unknown(EntityKind::Var, v.0, context));
        }
        Ok(())
    }

    fn check_heap(&self, h: Heap, context: &str) -> Result<(), IrError> {
        if h.index() >= self.heap_count() {
            return Err(unknown(EntityKind::Heap, h.0, context));
        }
        Ok(())
    }

    fn check_inv(&self, i: Inv, context: &str) -> Result<(), IrError> {
        if i.index() >= self.inv_count() {
            return Err(unknown(EntityKind::Inv, i.0, context));
        }
        Ok(())
    }

    fn check_method(&self, m: Method, context: &str) -> Result<(), IrError> {
        if m.index() >= self.method_count() {
            return Err(unknown(EntityKind::Method, m.0, context));
        }
        Ok(())
    }

    fn check_field(&self, f: Field, context: &str) -> Result<(), IrError> {
        if f.index() >= self.field_count() {
            return Err(unknown(EntityKind::Field, f.0, context));
        }
        Ok(())
    }

    fn check_type(&self, t: Type, context: &str) -> Result<(), IrError> {
        if t.index() >= self.type_count() {
            return Err(unknown(EntityKind::Type, t.0, context));
        }
        Ok(())
    }

    fn check_msig(&self, s: MSig, context: &str) -> Result<(), IrError> {
        if s.index() >= self.msig_count() {
            return Err(unknown(EntityKind::MSig, s.0, context));
        }
        Ok(())
    }

    fn check_tables(&self) -> Result<(), IrError> {
        debug_assert_eq!(self.var_names.len(), self.var_method.len());
        for &m in &self.var_method {
            self.check_method(m, "var_method")?;
        }
        for &m in &self.heap_method {
            self.check_method(m, "heap_method")?;
        }
        for &m in &self.inv_method {
            self.check_method(m, "inv_method")?;
        }
        for &t in &self.method_class {
            self.check_type(t, "method_class")?;
        }
        for &sup in self.supertype.iter().flatten() {
            self.check_type(sup, "supertype")?;
        }
        Ok(())
    }

    fn check_relations(&self) -> Result<(), IrError> {
        let f = &self.facts;
        for &(z, i, _) in &f.actual {
            self.check_var(z, "actual")?;
            self.check_inv(i, "actual")?;
        }
        for &(z, y) in &f.assign {
            self.check_var(z, "assign")?;
            self.check_var(y, "assign")?;
        }
        for &(h, y, p) in &f.assign_new {
            self.check_heap(h, "assign_new")?;
            self.check_var(y, "assign_new")?;
            self.check_method(p, "assign_new")?;
        }
        for &(i, y) in &f.assign_return {
            self.check_inv(i, "assign_return")?;
            self.check_var(y, "assign_return")?;
        }
        for &(y, p, _) in &f.formal {
            self.check_var(y, "formal")?;
            self.check_method(p, "formal")?;
        }
        for &(h, t) in &f.heap_type {
            self.check_heap(h, "heap_type")?;
            self.check_type(t, "heap_type")?;
        }
        for &(q, t, s) in &f.implements {
            self.check_method(q, "implements")?;
            self.check_type(t, "implements")?;
            self.check_msig(s, "implements")?;
        }
        for &(y, fld, z) in &f.load {
            self.check_var(y, "load")?;
            self.check_field(fld, "load")?;
            self.check_var(z, "load")?;
        }
        for &(z, p) in &f.ret {
            self.check_var(z, "return")?;
            self.check_method(p, "return")?;
        }
        for &(i, q, p) in &f.static_invoke {
            self.check_inv(i, "static_invoke")?;
            self.check_method(q, "static_invoke")?;
            self.check_method(p, "static_invoke")?;
        }
        for &(x, fld, z) in &f.store {
            self.check_var(x, "store")?;
            self.check_field(fld, "store")?;
            self.check_var(z, "store")?;
        }
        for &(x, fld) in &f.static_store {
            self.check_var(x, "static_store")?;
            self.check_field(fld, "static_store")?;
        }
        for &(fld, z) in &f.static_load {
            self.check_field(fld, "static_load")?;
            self.check_var(z, "static_load")?;
        }
        for &(y, q) in &f.this_var {
            self.check_var(y, "this_var")?;
            self.check_method(q, "this_var")?;
        }
        for &(i, z, s) in &f.virtual_invoke {
            self.check_inv(i, "virtual_invoke")?;
            self.check_var(z, "virtual_invoke")?;
            self.check_msig(s, "virtual_invoke")?;
        }
        Ok(())
    }

    fn check_heap_types(&self) -> Result<(), IrError> {
        let mut counts = vec![0usize; self.heap_count()];
        for &(h, _) in &self.facts.heap_type {
            counts[h.index()] += 1;
        }
        for (h, &count) in counts.iter().enumerate() {
            if count != 1 {
                return Err(IrError::AmbiguousHeapType {
                    heap: h as u32,
                    count,
                });
            }
        }
        Ok(())
    }

    fn check_dispatch(&self) -> Result<(), IrError> {
        let mut seen: HashMap<(Type, MSig), Method> = HashMap::new();
        for &(q, t, s) in &self.facts.implements {
            if let Some(&prev) = seen.get(&(t, s)) {
                if prev != q {
                    return Err(IrError::AmbiguousDispatch { ty: t.0, msig: s.0 });
                }
            } else {
                seen.insert((t, s), q);
            }
        }
        Ok(())
    }

    fn check_bindings(&self) -> Result<(), IrError> {
        let mut formal_slots: HashMap<(Method, u32), Var> = HashMap::new();
        for &(y, p, o) in &self.facts.formal {
            let owner = self.var_method[y.index()];
            if owner != p {
                return Err(IrError::ForeignVariable {
                    var: y.0,
                    claimed: p.0,
                    actual: owner.0,
                    context: "formal".to_owned(),
                });
            }
            if let Some(&prev) = formal_slots.get(&(p, o)) {
                if prev != y {
                    return Err(IrError::DuplicateBinding {
                        method: p.0,
                        slot: format!("formal #{o}"),
                    });
                }
            } else {
                formal_slots.insert((p, o), y);
            }
        }
        let mut this_slots: HashMap<Method, Var> = HashMap::new();
        for &(y, q) in &self.facts.this_var {
            let owner = self.var_method[y.index()];
            if owner != q {
                return Err(IrError::ForeignVariable {
                    var: y.0,
                    claimed: q.0,
                    actual: owner.0,
                    context: "this_var".to_owned(),
                });
            }
            if let Some(&prev) = this_slots.get(&q) {
                if prev != y {
                    return Err(IrError::DuplicateBinding {
                        method: q.0,
                        slot: "this".to_owned(),
                    });
                }
            } else {
                this_slots.insert(q, y);
            }
        }
        for &(z, p) in &self.facts.ret {
            let owner = self.var_method[z.index()];
            if owner != p {
                return Err(IrError::ForeignVariable {
                    var: z.0,
                    claimed: p.0,
                    actual: owner.0,
                    context: "return".to_owned(),
                });
            }
        }
        Ok(())
    }

    fn check_hierarchy(&self) -> Result<(), IrError> {
        // Walk each chain with a step bound; a chain longer than the number
        // of types must contain a cycle.
        let n = self.type_count();
        for start in 0..n {
            let mut cur = Type::from_index(start);
            for _ in 0..=n {
                match self.supertype[cur.index()] {
                    Some(sup) => {
                        if sup.index() == start {
                            return Err(IrError::CyclicHierarchy { ty: start as u32 });
                        }
                        cur = sup;
                    }
                    None => break,
                }
            }
            if self.supertype[cur.index()].is_some() {
                return Err(IrError::CyclicHierarchy { ty: start as u32 });
            }
        }
        Ok(())
    }
}

fn unknown(kind: EntityKind, index: u32, context: &str) -> IrError {
    IrError::UnknownEntity {
        kind,
        index,
        context: context.to_owned(),
    }
}

/// Size summary of a [`Program`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ProgramStats {
    /// Number of variables.
    pub vars: usize,
    /// Number of allocation sites.
    pub heaps: usize,
    /// Number of invocation sites.
    pub invs: usize,
    /// Number of methods.
    pub methods: usize,
    /// Number of field signatures.
    pub fields: usize,
    /// Number of class types.
    pub types: usize,
    /// Total input tuples.
    pub input_facts: usize,
}

impl std::fmt::Display for ProgramStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} methods, {} vars, {} heaps, {} invs, {} fields, {} types, {} input facts",
            self.methods,
            self.vars,
            self.heaps,
            self.invs,
            self.fields,
            self.types,
            self.input_facts
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;

    fn tiny() -> Program {
        let mut b = ProgramBuilder::new();
        let object = b.class("Object", None);
        let main = b.method_in("main", object, &[]);
        b.entry_point(main);
        let x = b.var("x", main);
        b.alloc("h0", object, x, main);
        b.finish().expect("tiny program is valid")
    }

    #[test]
    fn valid_program_passes_validation() {
        let p = tiny();
        assert!(p.validate().is_ok());
        assert_eq!(p.stats().heaps, 1);
    }

    #[test]
    fn dangling_var_is_rejected() {
        let mut p = tiny();
        p.facts.assign.push((Var(99), Var(0)));
        assert!(matches!(p.validate(), Err(IrError::UnknownEntity { .. })));
    }

    #[test]
    fn missing_heap_type_is_rejected() {
        let mut p = tiny();
        p.facts.heap_type.clear();
        assert!(matches!(
            p.validate(),
            Err(IrError::AmbiguousHeapType { count: 0, .. })
        ));
    }

    #[test]
    fn entry_point_is_required() {
        let mut p = tiny();
        p.entry_points.clear();
        assert_eq!(p.validate(), Err(IrError::NoEntryPoint));
    }

    #[test]
    fn cyclic_hierarchy_is_rejected() {
        let mut p = tiny();
        p.type_names.push("A".into());
        p.supertype
            .push(Some(Type::from_index(p.type_names.len() - 1)));
        assert!(matches!(p.validate(), Err(IrError::CyclicHierarchy { .. })));
    }

    #[test]
    fn class_of_heap_follows_containing_method() {
        let p = tiny();
        assert_eq!(p.class_of_heap(Heap(0)), Type(0));
    }

    #[test]
    fn stats_display_mentions_counts() {
        let s = tiny().stats().to_string();
        assert!(s.contains("1 methods"));
        assert!(s.contains("1 heaps"));
    }
}
