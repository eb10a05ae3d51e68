//! The magic-sets slice of the paper's §10: the CI rules, magic-transformed
//! for a `pts(v, H)` query, evaluated on the generic Datalog engine.
//!
//! It backs [`super::demand_points_to`], the reproduction of §10. The
//! serving path uses the native closure of [`super::demand_slice`]
//! instead, which demands a subset of these tuples at a fraction of the
//! work.

use std::sync::OnceLock;

use ctxform_datalog::{magic_transform, Atom, DatalogError, Engine, Rule, Term};
use ctxform_hash::FxHashSet;
use ctxform_ir::{Field, Heap, Inv, Method, Program, Var};

use super::DemandSlice;
use crate::baseline::{load_facts, CI_RULES};

/// The magic-transformed CI rule program, minus the per-query seed fact.
///
/// `magic_transform` specializes rules by adornment only; the queried
/// constant appears solely in the `magic_pts__bf` seed fact, which we
/// strip here and re-add per query. Parsing and transforming `CI_RULES`
/// is thus done exactly once per process.
fn magic_ci_rules() -> &'static [Rule] {
    static RULES: OnceLock<Vec<Rule>> = OnceLock::new();
    RULES.get_or_init(|| {
        let rules = ctxform_datalog::parse_rules(CI_RULES).expect("embedded CI rules parse");
        // Any constant yields the same `bf` adornment; 0 is arbitrary.
        let query = Atom::new("pts", vec![Term::Const(0), Term::Var("H".into())]);
        magic_transform(&rules, &query)
            .expect("embedded CI rules transform")
            .into_iter()
            .filter(|r| !(r.is_fact() && r.head.relation == "magic_pts__bf"))
            .collect()
    })
}

/// Collects every adorned variant of `pred` (e.g. `pts__bf`, `pts__ff`)
/// into `sink`, decoding tuples with `decode`.
fn collect_adorned<T, F>(engine: &Engine, pred: &str, sink: &mut FxHashSet<T>, decode: F)
where
    T: std::hash::Hash + Eq,
    F: Fn(&[u32]) -> T,
{
    let prefix = format!("{pred}__");
    let ids: Vec<_> = engine
        .relations()
        .filter(|(_, name)| *name == pred || name.starts_with(&prefix))
        .map(|(id, _)| id)
        .collect();
    for id in ids {
        for t in engine.tuples(id) {
            sink.insert(decode(t));
        }
    }
}

/// Evaluates the magic-sets program demanded by `pts(v, ·)` for every
/// `v` in `vars` and extracts the demanded tuples. `derived_tuples`,
/// `derivations` and `rounds` are the engine's (inputs + magic + adorned
/// relations, rule firings, semi-naive rounds).
pub(super) fn magic_slice(program: &Program, vars: &[Var]) -> Result<DemandSlice, DatalogError> {
    let mut engine = Engine::new();
    for rule in magic_ci_rules() {
        engine.add_rule(rule.clone())?;
    }
    for var in vars {
        engine.add_fact("magic_pts__bf", &[var.0])?;
    }
    load_facts(&mut engine, program);
    let stats = engine.run();
    let mut slice = DemandSlice {
        derived_tuples: stats.tuples,
        derivations: stats.derivations,
        rounds: stats.rounds,
        ..DemandSlice::default()
    };
    collect_adorned(&engine, "pts", &mut slice.pts, |t| (Var(t[0]), Heap(t[1])));
    collect_adorned(&engine, "hpts", &mut slice.hpts, |t| {
        (Heap(t[0]), Field(t[1]), Heap(t[2]))
    });
    collect_adorned(&engine, "hload", &mut slice.hload, |t| {
        (Heap(t[0]), Field(t[1]), Var(t[2]))
    });
    collect_adorned(&engine, "call", &mut slice.call, |t| {
        (Inv(t[0]), Method(t[1]))
    });
    collect_adorned(&engine, "spts", &mut slice.spts, |t| {
        (Field(t[0]), Heap(t[1]))
    });
    collect_adorned(&engine, "reach", &mut slice.reach, |t| Method(t[0]));
    Ok(slice)
}
