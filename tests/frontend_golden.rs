//! Golden values of the MiniJava frontend: the fact text it lowers each
//! program to, hashed, and the diagnostics it reports for broken sources.
//!
//! The fact text names every entity and lists the entities of each kind
//! in id order, so an equal hash means equal names, equal entity ids and
//! equal append order. Incremental re-analysis (`ProgramDiff`) depends on
//! that order: an appended class must extend every entity table. A change
//! to the frontend that is meant to leave its output alone must leave
//! every value here unchanged; one that means to change the output
//! updates the table and says why.

use ctxform_hash::fx_hash_one;
use ctxform_ir::text::emit;
use ctxform_minijava::{compile, corpus};
use ctxform_synth::{append_edit, generate, preset, random_program};

/// The seed of the `append_edit` steps applied to antlr at scale 20.
const EDIT_SEED: u64 = 0x5eed_2026;

/// `(case, fx_hash_one(emit(program)), fx_hash_one(format!("{bodies:?}")))`
/// of each case's `compile(source)`: the fact program and the
/// instruction streams the `ctxform-vm` interpreter runs.
const GOLDEN: &[(&str, u64, u64)] = &[
    ("corpus/fig1", 0xcbd407093fab0cee, 0x16b6089c2d8b0cfd),
    ("corpus/fig5", 0xe73153c399f87750, 0x143b17ef0f878091),
    ("corpus/fig7", 0x6b08e34c10457a92, 0x8c66e337cdf25e17),
    ("corpus/box", 0xe620338507734afd, 0xe7be4541650dfe78),
    ("corpus/dispatch", 0x289de177c1b6d7d6, 0x95fb77cb8f0ea275),
    ("corpus/list", 0x3dccb96d38fcdbe8, 0xb5dca172df2a9f35),
    ("antlr-20", 0xd5a752ba77fec242, 0xfa888ff4519d2f0e),
    ("antlr-20+edit0", 0x792090ba25b5d7de, 0xf6fd3dc098144291),
    ("antlr-20+edit1", 0x4dd405ae6f7933a7, 0xba80b93a75a82057),
    ("antlr-20+edit2", 0x2fb89c6db8dfd1fa, 0xec11f6af8ecc2900),
    ("xalan-5", 0x2a64e2036b2e36d3, 0xa438d3b3d4282504),
    ("random/3", 0x1e5da17ab4dcbdd7, 0x8947a2cee3ee2ca8),
    ("random/11", 0xcf08aedad3831789, 0x8d4acebae33ce350),
];

/// `(case, source, compile error as displayed)`.
const GOLDEN_ERRORS: &[(&str, &str, &str)] = &[
    (
        "bad-char",
        "class C { void m() { Object x = y # z; } }",
        "1:35: unexpected character `#`",
    ),
    (
        "open-comment",
        "class C { /* never closed",
        "1:11: unterminated comment",
    ),
    (
        "missing-semi",
        "class C { void m() { return } }",
        "1:29: expected an expression, found `}`",
    ),
    (
        "bad-target",
        "class C { void m() { new C() = null; } }",
        "1:1: assignment target must be a variable or a field access",
    ),
    (
        "non-call",
        "class C { void m(Object a) { a.f; } }",
        "1:1: expression statements must be calls",
    ),
    (
        "public-field",
        "class C { public Object f; }",
        "1:1: fields may not be declared public in MiniJava",
    ),
    (
        "void-field",
        "class C { void f; }",
        "1:1: fields cannot be void",
    ),
    (
        "bad-cond",
        "class C { void m(Object a) { if (a.f == null) { } } }",
        "1:35: expected `==` or `!=` in condition, found `.`",
    ),
    (
        "dup-class",
        "class C { } class C { }",
        "1:1: duplicate class `C`",
    ),
    (
        "unknown-super",
        "class C extends D { }",
        "1:1: unknown superclass `D`",
    ),
    (
        "cycle",
        "class A extends B { } class B extends A { }",
        "1:1: cyclic inheritance involving `A`",
    ),
    (
        "dup-method",
        "class C { void m() { } void m() { } }",
        "1:1: duplicate method `m/0` in `C`",
    ),
    (
        "dup-param",
        "class C { void m(Object a, Object a) { } }",
        "1:1: duplicate parameter `a`",
    ),
    (
        "dup-var",
        "class C { void m() { Object x; Object x; } }",
        "1:1: duplicate variable `x`",
    ),
    (
        "unknown-var",
        "class C { void m() { x = null; } }",
        "1:1: unknown variable `x`",
    ),
    (
        "unknown-class",
        "class C { void m() { Object x = new D(); } }",
        "1:1: unknown class `D`",
    ),
    (
        "unknown-field",
        "class C { void m() { Object x = this.f; } }",
        "1:1: unknown field `f`",
    ),
    (
        "unknown-static",
        "class C { void m() { Object x = C.s; } }",
        "1:1: unknown static field `s`",
    ),
    (
        "unknown-static-method",
        "class C { void m() { C.s(); } }",
        "1:1: unknown method `C.s/0`",
    ),
    (
        "instance-as-static",
        "class C { void m() { C.m(); } }",
        "1:1: `C.m` is an instance method; call it on a value",
    ),
    (
        "void-as-value",
        "class C { void m() { Object x = this.m(); } }",
        "1:1: void method `m` used as a value",
    ),
    (
        "no-virtual",
        "class C { void m() { this.z(); } }",
        "1:1: no instance method `z/0` declared",
    ),
    (
        "void-returns",
        "class C { void m() { return this; } }",
        "1:1: void method returns a value",
    ),
    (
        "static-this",
        "class C { static void m() { Object x = this; } }",
        "1:1: `this` in a static method",
    ),
    (
        "null-base",
        "class C { Object f; void m() { Object x = null.f; } }",
        "0:1: explicit null has no members",
    ),
    (
        "unknown-base",
        "class C { void m() { Q.m(); } }",
        "1:1: unknown variable or class `Q`",
    ),
    (
        "no-entry",
        "class C { void m() { } }",
        "0:0: validation: program declares no entry point",
    ),
];

fn cases() -> Vec<(String, String)> {
    let mut cases: Vec<(String, String)> = corpus::all()
        .into_iter()
        .map(|(name, src)| (format!("corpus/{name}"), src.to_owned()))
        .collect();
    let mut antlr = generate(&preset("antlr").expect("known preset").scale_driver(20));
    cases.push(("antlr-20".into(), antlr.clone()));
    for step in 0..3 {
        antlr = append_edit(&antlr, EDIT_SEED, step);
        cases.push((format!("antlr-20+edit{step}"), antlr.clone()));
    }
    let xalan = generate(&preset("xalan").expect("known preset").scale_driver(5));
    cases.push(("xalan-5".into(), xalan));
    for seed in [3, 11] {
        cases.push((format!("random/{seed}"), random_program(seed, 3)));
    }
    cases
}

#[test]
fn frontend_output_matches_its_golden_digests() {
    let mut got = Vec::new();
    for (name, source) in cases() {
        let module = compile(&source).unwrap_or_else(|e| panic!("{name}: {e}"));
        let bodies = fx_hash_one(&format!("{:?}", module.bodies));
        got.push((name, fx_hash_one(&emit(&module.program)), bodies));
    }
    let table: String = got
        .iter()
        .map(|(name, h, b)| format!("    (\"{name}\", {h:#018x}, {b:#018x}),\n"))
        .collect();
    let expected: Vec<(String, u64, u64)> = GOLDEN
        .iter()
        .map(|&(n, h, b)| (n.to_owned(), h, b))
        .collect();
    assert_eq!(got, expected, "frontend output changed; now:\n{table}");
}

#[test]
fn frontend_diagnostics_match_their_golden_text() {
    for &(name, source, expected) in GOLDEN_ERRORS {
        match compile(source) {
            Ok(_) => panic!("{name}: compiled"),
            Err(e) => assert_eq!(e.to_string(), expected, "{name}: {source}"),
        }
    }
}
