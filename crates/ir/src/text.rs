//! Line-oriented text format for programs and fact files.
//!
//! The paper's toolchain exchanges relations as files produced by a Soot
//! fact generator; this module plays the same role for `ctxform`. The
//! format declares entities first (declaration order defines the dense
//! ids), then lists the Figure 3 tuples:
//!
//! ```text
//! # ctxform fact file
//! type Object -
//! type T 0
//! field f
//! msig get/0
//! method 1 T.get
//! var 0 this
//! heap 0 main/new#0
//! inv 0 call#0
//! entry 0
//! fact this_var 0 0
//! ```
//!
//! Lines starting with `#` and blank lines are ignored. Entity names may
//! contain spaces (the name is always the final, greedy component).

use std::fmt::{self, Write as _};

use crate::error::IrError;
use crate::ids::{Field, Heap, Inv, MSig, Method, Type, Var};
use crate::program::Program;

/// Serializes `program` into the text format.
///
/// Every line is written straight into the one output buffer. The output
/// round-trips through [`parse`] to an equal [`Program`].
pub fn emit(program: &Program) -> String {
    let mut out = String::new();
    emit_into(&mut out, program).expect("writing to a String cannot fail");
    out
}

fn emit_into(out: &mut String, program: &Program) -> fmt::Result {
    out.push_str("# ctxform fact file\n");
    for (i, name) in program.type_names.iter().enumerate() {
        match program.supertype[i] {
            Some(s) => writeln!(out, "type {} {name}", s.index())?,
            None => writeln!(out, "type - {name}")?,
        }
    }
    for name in &program.field_names {
        writeln!(out, "field {name}")?;
    }
    for name in &program.msig_names {
        writeln!(out, "msig {name}")?;
    }
    for (i, name) in program.method_names.iter().enumerate() {
        writeln!(out, "method {} {name}", program.method_class[i].index())?;
    }
    for (i, name) in program.var_names.iter().enumerate() {
        writeln!(out, "var {} {name}", program.var_method[i].index())?;
    }
    for (i, name) in program.heap_names.iter().enumerate() {
        writeln!(out, "heap {} {name}", program.heap_method[i].index())?;
    }
    for (i, name) in program.inv_names.iter().enumerate() {
        writeln!(out, "inv {} {name}", program.inv_method[i].index())?;
    }
    for m in &program.entry_points {
        writeln!(out, "entry {}", m.index())?;
    }
    let f = &program.facts;
    for &(z, i, o) in &f.actual {
        writeln!(out, "fact actual {} {} {o}", z.0, i.0)?;
    }
    for &(z, y) in &f.assign {
        writeln!(out, "fact assign {} {}", z.0, y.0)?;
    }
    for &(h, y, p) in &f.assign_new {
        writeln!(out, "fact assign_new {} {} {}", h.0, y.0, p.0)?;
    }
    for &(i, y) in &f.assign_return {
        writeln!(out, "fact assign_return {} {}", i.0, y.0)?;
    }
    for &(y, p, o) in &f.formal {
        writeln!(out, "fact formal {} {} {o}", y.0, p.0)?;
    }
    for &(h, t) in &f.heap_type {
        writeln!(out, "fact heap_type {} {}", h.0, t.0)?;
    }
    for &(q, t, s) in &f.implements {
        writeln!(out, "fact implements {} {} {}", q.0, t.0, s.0)?;
    }
    for &(y, fld, z) in &f.load {
        writeln!(out, "fact load {} {} {}", y.0, fld.0, z.0)?;
    }
    for &(z, p) in &f.ret {
        writeln!(out, "fact return {} {}", z.0, p.0)?;
    }
    for &(i, q, p) in &f.static_invoke {
        writeln!(out, "fact static_invoke {} {} {}", i.0, q.0, p.0)?;
    }
    for &(x, fld, z) in &f.store {
        writeln!(out, "fact store {} {} {}", x.0, fld.0, z.0)?;
    }
    for &(x, fld) in &f.static_store {
        writeln!(out, "fact static_store {} {}", x.0, fld.0)?;
    }
    for &(fld, z) in &f.static_load {
        writeln!(out, "fact static_load {} {}", fld.0, z.0)?;
    }
    for &(y, q) in &f.this_var {
        writeln!(out, "fact this_var {} {}", y.0, q.0)?;
    }
    for &(i, z, s) in &f.virtual_invoke {
        writeln!(out, "fact virtual_invoke {} {} {}", i.0, z.0, s.0)?;
    }
    Ok(())
}

/// Parses the text format back into a validated [`Program`].
///
/// # Errors
///
/// Returns [`IrError::Parse`] for malformed lines and any validation error
/// for semantically broken programs.
pub fn parse(input: &str) -> Result<Program, IrError> {
    let mut program = Program::default();
    for (lineno, raw) in input.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        parse_line(&mut program, line, lineno + 1)?;
    }
    program.validate()?;
    Ok(program)
}

fn parse_line(program: &mut Program, line: &str, lineno: usize) -> Result<(), IrError> {
    let err = |message: String| IrError::Parse {
        line: lineno,
        message,
    };
    let (keyword, rest) = line
        .split_once(' ')
        .ok_or_else(|| err(format!("expected arguments after `{line}`")))?;
    match keyword {
        "type" => {
            let (sup, name) = split_head(rest, lineno)?;
            let supertype = if sup == "-" {
                None
            } else {
                Some(Type(parse_u32(sup, lineno)?))
            };
            program.type_names.push(name.to_owned());
            program.supertype.push(supertype);
        }
        "field" => program.field_names.push(rest.to_owned()),
        "msig" => program.msig_names.push(rest.to_owned()),
        "method" => {
            let (class, name) = split_head(rest, lineno)?;
            program.method_class.push(Type(parse_u32(class, lineno)?));
            program.method_names.push(name.to_owned());
        }
        "var" => {
            let (m, name) = split_head(rest, lineno)?;
            program.var_method.push(Method(parse_u32(m, lineno)?));
            program.var_names.push(name.to_owned());
        }
        "heap" => {
            let (m, name) = split_head(rest, lineno)?;
            program.heap_method.push(Method(parse_u32(m, lineno)?));
            program.heap_names.push(name.to_owned());
        }
        "inv" => {
            let (m, name) = split_head(rest, lineno)?;
            program.inv_method.push(Method(parse_u32(m, lineno)?));
            program.inv_names.push(name.to_owned());
        }
        "entry" => program.entry_points.push(Method(parse_u32(rest, lineno)?)),
        "fact" => parse_fact(program, rest, lineno)?,
        other => return Err(err(format!("unknown keyword `{other}`"))),
    }
    Ok(())
}

fn parse_fact(program: &mut Program, rest: &str, lineno: usize) -> Result<(), IrError> {
    let mut parts = rest.split_whitespace();
    let name = parts.next().ok_or_else(|| IrError::Parse {
        line: lineno,
        message: "missing relation name".into(),
    })?;
    // Every relation has two or three arguments; `n` counts them all, so
    // an extra one is still an arity error.
    let mut args = [0u32; 3];
    let mut n = 0;
    for part in parts {
        let value = parse_u32(part, lineno)?;
        if let Some(slot) = args.get_mut(n) {
            *slot = value;
        }
        n += 1;
    }
    let arity = |want: usize| {
        if n == want {
            Ok(())
        } else {
            Err(IrError::Parse {
                line: lineno,
                message: format!("relation `{name}` expects {want} arguments, got {n}"),
            })
        }
    };
    let [a, b, c] = args;
    let f = &mut program.facts;
    match name {
        "actual" => {
            arity(3)?;
            f.actual.push((Var(a), Inv(b), c));
        }
        "assign" => {
            arity(2)?;
            f.assign.push((Var(a), Var(b)));
        }
        "assign_new" => {
            arity(3)?;
            f.assign_new.push((Heap(a), Var(b), Method(c)));
        }
        "assign_return" => {
            arity(2)?;
            f.assign_return.push((Inv(a), Var(b)));
        }
        "formal" => {
            arity(3)?;
            f.formal.push((Var(a), Method(b), c));
        }
        "heap_type" => {
            arity(2)?;
            f.heap_type.push((Heap(a), Type(b)));
        }
        "implements" => {
            arity(3)?;
            f.implements.push((Method(a), Type(b), MSig(c)));
        }
        "load" => {
            arity(3)?;
            f.load.push((Var(a), Field(b), Var(c)));
        }
        "return" => {
            arity(2)?;
            f.ret.push((Var(a), Method(b)));
        }
        "static_invoke" => {
            arity(3)?;
            f.static_invoke.push((Inv(a), Method(b), Method(c)));
        }
        "store" => {
            arity(3)?;
            f.store.push((Var(a), Field(b), Var(c)));
        }
        "static_store" => {
            arity(2)?;
            f.static_store.push((Var(a), Field(b)));
        }
        "static_load" => {
            arity(2)?;
            f.static_load.push((Field(a), Var(b)));
        }
        "this_var" => {
            arity(2)?;
            f.this_var.push((Var(a), Method(b)));
        }
        "virtual_invoke" => {
            arity(3)?;
            f.virtual_invoke.push((Inv(a), Var(b), MSig(c)));
        }
        other => {
            return Err(IrError::Parse {
                line: lineno,
                message: format!("unknown relation `{other}`"),
            })
        }
    }
    Ok(())
}

fn split_head(rest: &str, lineno: usize) -> Result<(&str, &str), IrError> {
    rest.split_once(' ').ok_or_else(|| IrError::Parse {
        line: lineno,
        message: format!("expected `<head> <name>` in `{rest}`"),
    })
}

fn parse_u32(s: &str, lineno: usize) -> Result<u32, IrError> {
    s.parse::<u32>().map_err(|_| IrError::Parse {
        line: lineno,
        message: format!("expected a number, found `{s}`"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;

    fn sample() -> Program {
        let mut b = ProgramBuilder::new();
        let object = b.class("Object", None);
        let t = b.class("T", Some(object));
        let get = b.method_in("T.get", t, &[]);
        let this = b.this("this", get);
        let fld = b.field("f");
        let out = b.var("out", get);
        b.load(this, fld, out);
        b.ret(out, get);
        let s = b.msig("get/0");
        b.implement(get, t, s);
        let main = b.method_in("Main.main", t, &[]);
        b.entry_point(main);
        let x = b.var("box x", main);
        let y = b.var("y", main);
        b.alloc("main/new#0", t, x, main);
        b.alloc("main/new#1", object, y, main);
        b.store(y, fld, x);
        b.virtual_call("main/get#0", main, x, s, &[], Some(y));
        b.finish().expect("valid")
    }

    #[test]
    fn emit_parse_round_trips() {
        let p = sample();
        let text = emit(&p);
        let q = parse(&text).expect("parses");
        assert_eq!(p, q);
    }

    #[test]
    fn names_may_contain_spaces() {
        let p = sample();
        let q = parse(&emit(&p)).expect("parses");
        assert_eq!(
            q.var_names[q.var_names.iter().position(|n| n == "box x").unwrap()],
            "box x"
        );
    }

    #[test]
    fn comments_and_blanks_are_ignored() {
        let p = sample();
        let text = format!("# header\n\n{}\n# trailer\n", emit(&p));
        assert_eq!(parse(&text).expect("parses"), p);
    }

    #[test]
    fn unknown_keyword_is_a_parse_error() {
        let err = parse("frobnicate 1 2").unwrap_err();
        assert!(matches!(err, IrError::Parse { line: 1, .. }));
    }

    #[test]
    fn bad_arity_is_a_parse_error() {
        let err = parse("fact assign 1").unwrap_err();
        assert!(matches!(err, IrError::Parse { .. }));
        assert!(err.to_string().contains("expects 2 arguments"));
    }

    #[test]
    fn invalid_semantics_fail_validation() {
        // A heap with no declared type.
        let text =
            "type - Object\nmethod 0 main\nentry 0\nvar 0 x\nheap 0 site\nfact assign_new 0 0 0\n";
        assert!(matches!(
            parse(text),
            Err(IrError::AmbiguousHeapType { .. })
        ));
    }
}
