//! Properties of the native demand slice ([`ctxform::demand_slice`]) on
//! the corpus and on random programs, every 3rd variable: the slice holds
//! the root's full CI points-to set, lies inside the CI fixpoint and
//! inside what magic sets demand for the same root, a multi-root slice
//! is exactly the union of its per-root slices, and slices cut from one
//! shared [`DemandIndex`] equal fresh ones.

use std::collections::BTreeSet;

use ctxform::{
    analyze, demand_slice, load_facts, AnalysisConfig, DemandIndex, DemandSlice, CI_RULES,
};
use ctxform_datalog::{magic_transform, parse_rules, Atom, Engine, Term};
use ctxform_ir::{Program, Var};
use ctxform_minijava::{compile, corpus};
use ctxform_synth::random_program;

/// A derived CI tuple as `(relation, columns)`, in the rule text's order.
type Tuple = (&'static str, Vec<u32>);

const RELATIONS: [&str; 6] = ["pts", "hpts", "hload", "call", "spts", "reach"];

fn tuples(s: &DemandSlice) -> BTreeSet<Tuple> {
    let mut out = BTreeSet::new();
    out.extend(s.pts.iter().map(|&(v, h)| ("pts", vec![v.0, h.0])));
    out.extend(
        s.hpts
            .iter()
            .map(|&(g, f, h)| ("hpts", vec![g.0, f.0, h.0])),
    );
    out.extend(
        s.hload
            .iter()
            .map(|&(g, f, z)| ("hload", vec![g.0, f.0, z.0])),
    );
    out.extend(s.call.iter().map(|&(i, q)| ("call", vec![i.0, q.0])));
    out.extend(s.spts.iter().map(|&(f, h)| ("spts", vec![f.0, h.0])));
    out.extend(s.reach.iter().map(|&p| ("reach", vec![p.0])));
    out
}

/// The CI fixpoint of the specialized solver, with `hload = load ⋈ pts`.
fn fixpoint(program: &Program) -> BTreeSet<Tuple> {
    let ci = analyze(program, &AnalysisConfig::insensitive()).ci;
    let mut out = BTreeSet::new();
    out.extend(ci.pts.iter().map(|&(v, h)| ("pts", vec![v.0, h.0])));
    out.extend(
        ci.hpts
            .iter()
            .map(|&(g, f, h)| ("hpts", vec![g.0, f.0, h.0])),
    );
    out.extend(ci.call.iter().map(|&(i, q)| ("call", vec![i.0, q.0])));
    out.extend(ci.spts.iter().map(|&(f, h)| ("spts", vec![f.0, h.0])));
    out.extend(ci.reach.iter().map(|&p| ("reach", vec![p.0])));
    for &(y, f, z) in &program.facts.load {
        for &(v, g) in &ci.pts {
            if v == y {
                out.insert(("hload", vec![g.0, f.0, z.0]));
            }
        }
    }
    out
}

/// Every tuple of the six derived relations (under any adornment) that
/// the magic-sets program for `pts(var, H)` derives.
fn magic_demand(program: &Program, var: Var) -> BTreeSet<Tuple> {
    let rules = parse_rules(CI_RULES).unwrap();
    let query = Atom::new("pts", vec![Term::Const(var.0), Term::Var("H".into())]);
    let mut engine = Engine::new();
    for rule in magic_transform(&rules, &query).unwrap() {
        engine.add_rule(rule).unwrap();
    }
    load_facts(&mut engine, program);
    engine.run();
    let mut out = BTreeSet::new();
    for (id, name) in engine.relations() {
        let base = name.split("__").next().unwrap_or(name);
        if let Some(&rel) = RELATIONS.iter().find(|&&r| r == base) {
            out.extend(engine.tuples(id).map(|t| (rel, t.to_vec())));
        }
    }
    out
}

fn programs() -> Vec<(String, Program)> {
    let corpus = corpus::all()
        .into_iter()
        .map(|(name, src)| (name.to_owned(), compile(src).unwrap().program));
    let random = (0..6u64).map(|seed| {
        let src = random_program(seed, 1);
        (format!("seed {seed}"), compile(&src).unwrap().program)
    });
    corpus.chain(random).collect()
}

fn sampled(program: &Program) -> Vec<Var> {
    (0..program.var_count())
        .step_by(3)
        .map(Var::from_index)
        .collect()
}

/// Checks that the slice for `var` holds the root's CI points-to set and
/// lies inside the CI fixpoint `fix`; returns its tuples.
fn check_slice(name: &str, program: &Program, fix: &BTreeSet<Tuple>, var: Var) -> BTreeSet<Tuple> {
    let slice = demand_slice(program, &[var]).unwrap();
    let root: BTreeSet<Tuple> = fix
        .iter()
        .filter(|(rel, t)| *rel == "pts" && t[0] == var.0)
        .cloned()
        .collect();
    let got = tuples(&slice);
    assert!(root.is_subset(&got), "{name} {var}: root pts missing");
    assert!(got.is_subset(fix), "{name} {var}: outside the CI fixpoint");
    got
}

#[test]
fn slices_hold_the_root_and_lie_inside_the_fixpoint_and_the_magic_demand() {
    for (name, program) in programs() {
        let fix = fixpoint(&program);
        for var in sampled(&program) {
            let got = check_slice(&name, &program, &fix, var);
            let magic = magic_demand(&program, var);
            assert!(
                got.is_subset(&magic),
                "{name} {var}: not demanded by magic sets: {:?}",
                got.difference(&magic).next()
            );
        }
    }
}

/// Of the inputs here, only the presets have a field whose stores into
/// one base heap store different heaps, so only they show that the Store
/// rule's walk checks both premises. (Magic sets are too slow on them
/// for an unoptimized test build.)
#[test]
fn preset_slices_hold_the_root_and_lie_inside_the_fixpoint() {
    for name in ["chart", "pmd"] {
        let cfg = ctxform_synth::preset(name).unwrap().scale_driver(1);
        let program = compile(&ctxform_synth::generate(&cfg)).unwrap().program;
        let fix = fixpoint(&program);
        for var in sampled(&program) {
            check_slice(name, &program, &fix, var);
        }
    }
}

#[test]
fn multi_root_slice_is_the_union_of_per_root_slices() {
    for (name, program) in programs() {
        let vars = sampled(&program);
        let union: BTreeSet<Tuple> = vars
            .iter()
            .flat_map(|&v| tuples(&demand_slice(&program, &[v]).unwrap()))
            .collect();
        let joint = demand_slice(&program, &vars).unwrap();
        assert_eq!(tuples(&joint), union, "{name}");
    }
}

/// Asserts that `shared` cuts the same slice for `vars` as a fresh
/// [`demand_slice`]: same tuples, same work, same depth.
fn assert_same_as_fresh(name: &str, program: &Program, shared: &DemandIndex, vars: &[Var]) {
    let cut = shared.slice(program, vars);
    let fresh = demand_slice(program, vars).unwrap();
    assert_eq!(tuples(&cut), tuples(&fresh), "{name} {vars:?}");
    assert_eq!(cut.derivations, fresh.derivations, "{name} {vars:?}");
    assert_eq!(cut.rounds, fresh.rounds, "{name} {vars:?}");
    assert_eq!(cut.derived_tuples, fresh.derived_tuples, "{name} {vars:?}");
}

/// One index, many root sets: every single root, every sampled pair, the
/// whole sample, and no root at all, in an order that revisits roots.
#[test]
fn slices_from_a_shared_index_equal_fresh_slices() {
    let presets = ["chart", "pmd"].into_iter().map(|name| {
        let cfg = ctxform_synth::preset(name).unwrap().scale_driver(1);
        let src = ctxform_synth::generate(&cfg);
        (name.to_owned(), compile(&src).unwrap().program)
    });
    for (name, program) in programs().into_iter().chain(presets) {
        let shared = DemandIndex::new(&program);
        let vars = sampled(&program);
        assert_same_as_fresh(&name, &program, &shared, &[]);
        for &v in vars.iter().rev() {
            assert_same_as_fresh(&name, &program, &shared, &[v]);
        }
        for pair in vars.windows(2).step_by(4) {
            assert_same_as_fresh(&name, &program, &shared, pair);
        }
        assert_same_as_fresh(&name, &program, &shared, &vars);
        let size = shared.slice(&program, &[]).derived_tuples;
        assert_eq!(size, fixpoint(&program).len(), "{name}");
    }
}

/// Empty relations and empty rows: a program with no loads, stores,
/// statics, virtual calls or returns, and a variable that points nowhere.
#[test]
fn empty_relations_and_empty_rows_slice_to_nothing_extra() {
    let program = compile(
        "class Main {
             public static void main(String[] args) {
                 Object x = new Object();
                 Object y = x;
                 Object z = null;
             }
         }",
    )
    .unwrap()
    .program;
    let f = &program.facts;
    assert!(f.load.is_empty() && f.store.is_empty() && f.virtual_invoke.is_empty());
    assert!(f.static_load.is_empty() && f.ret.is_empty());
    let index = DemandIndex::new(&program);
    let var =
        |name: &str| Var::from_index(program.var_names.iter().position(|n| n == name).unwrap());
    let (x, y, z) = (var("x"), var("y"), var("z"));

    // `z` is assigned only `null`: its `pts` row is empty, so its slice is.
    let nothing = index.slice(&program, &[z]);
    assert_eq!(nothing.demanded(), 0);
    assert_eq!((nothing.derivations, nothing.rounds), (0, 0));
    assert!(index.slice(&program, &[]).pts.is_empty());

    // `y` demands its own `pts`, `x`'s through Assign, and `reach(main)`
    // through New.
    let slice = index.slice(&program, &[y]);
    assert_eq!(slice.points_to(y), slice.points_to(x));
    assert_eq!(slice.points_to(y).len(), 1);
    assert_eq!((slice.pts.len(), slice.reach.len()), (2, 1));
    assert!(slice.hpts.is_empty() && slice.hload.is_empty() && slice.spts.is_empty());
    assert!(slice.call.is_empty());
    assert_same_as_fresh("empty relations", &program, &index, &[x, y, z]);
}
