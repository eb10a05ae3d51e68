//! Seeded additive edit scripts for incremental re-analysis testing.
//!
//! An *edit script* is a sequence of source revisions, each produced from
//! the previous one by appending a single `Edit<k>` class. Appended
//! classes only reference entities every generated program is guaranteed
//! to contain — the hierarchy root `D0` with its method `vm0(Object)`
//! and field `g0`, plus `Edit` classes appended by earlier steps — so
//! every revision compiles whenever the base program does.
//!
//! Class *appends* are the purely-additive edit shape: MiniJava lowering
//! interns all entities of an appended class after those of existing
//! classes, so the lowered fact program of revision `k+1` is a monotone
//! extension of revision `k` (see `ProgramDiff` in `ctxform-ir`). That
//! makes these scripts the canonical test vector for
//! `AnalysisDb::extend`: the incremental chain must be bit-identical to
//! solving each revision from scratch.

use ctxform_hash::SplitMix64;
use ctxform_ir::Program;

/// Appends step `step` of the seeded edit script to `source`.
///
/// Deterministic in `(seed, step)`. The appended `Edit<step>` class has
/// its own `Object` field, its own instance method, and its own `main`
/// entry point, so the edit adds allocations, loads, stores, virtual
/// calls, and an entry method — exercising every delta relation the
/// incremental solver reseeds. Steps must be applied in order starting
/// from 0: later steps may call into `Edit` classes appended earlier.
pub fn append_edit(source: &str, seed: u64, step: usize) -> String {
    let mut rng = SplitMix64::new(seed ^ (step as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let k = step;
    let mut body = String::new();
    // Always interact with the pre-existing hierarchy root so the delta
    // joins against facts derived before the edit, not just new ones.
    body.push_str(&format!("        D0 d{k} = new D0();\n"));
    body.push_str(&format!("        Object o{k} = new Object();\n"));
    body.push_str(&format!("        Object r{k} = d{k}.vm0(o{k});\n"));
    if rng.percent(60) {
        // Field round-trip through the guaranteed root field.
        body.push_str(&format!("        d{k}.g0 = o{k};\n"));
        body.push_str(&format!("        Object z{k} = d{k}.g0;\n"));
    }
    if rng.percent(70) {
        // Route a value through this edit's own worker method.
        body.push_str(&format!("        Edit{k} e{k} = new Edit{k}();\n"));
        body.push_str(&format!("        Object w{k} = e{k}.work{k}(r{k});\n"));
    }
    if step > 0 && rng.percent(50) {
        // Call back into a class appended by an earlier edit step.
        let j = rng.below(step);
        body.push_str(&format!("        Edit{j} prev{k} = new Edit{j}();\n"));
        body.push_str(&format!("        Object pw{k} = prev{k}.work{j}(o{k});\n"));
    }
    format!(
        "{source}class Edit{k} {{\n    Object keep{k};\n    Object work{k}(Object p) {{\n        this.keep{k} = p;\n        Object t{k} = this.keep{k};\n        return t{k};\n    }}\n    public static void main(String[] args) {{\n{body}    }}\n}}\n"
    )
}

/// Applies `steps` edit-script steps, returning every revision.
///
/// The result has `steps + 1` entries: the unedited `source` first, then
/// one entry per applied step. Deterministic in `(seed, steps)`; a
/// prefix of a longer script equals the shorter script with the same
/// seed.
pub fn edit_script(source: &str, seed: u64, steps: usize) -> Vec<String> {
    let mut revisions = Vec::with_capacity(steps + 1);
    revisions.push(source.to_owned());
    for step in 0..steps {
        let next = append_edit(revisions.last().expect("non-empty"), seed, step);
        revisions.push(next);
    }
    revisions
}

/// A seeded deleting/mutating edit script over a lowered [`Program`].
///
/// Unlike [`edit_script`], which appends source classes (a purely
/// additive edit after lowering), this script edits the *fact program*
/// directly: each step removes `removal_percent`% of the tuples of every
/// retractable input relation, and occasionally restores a tuple a
/// previous step removed (the "mutation" flavor — the step both removes
/// and adds). Entity tables, entry points, `heap_type`, and `implements`
/// are never touched, so every step diffs as `ProgramDiff::Retractive`
/// and exercises the retraction path of `AnalysisDb::extend`.
///
/// The result has `steps + 1` entries, the unedited base first.
/// Deterministic in `(seed, steps, removal_percent)`; every revision
/// stays [valid](Program::validate) because validation only constrains
/// tuples that are *present*.
pub fn retract_edit_script(
    base: &Program,
    seed: u64,
    steps: usize,
    removal_percent: usize,
) -> Vec<Program> {
    let mut revisions = Vec::with_capacity(steps + 1);
    revisions.push(base.clone());
    // Tuples removed by earlier steps, available for restoration.
    let mut pool = ctxform_ir::Facts::new();
    for step in 0..steps {
        let mut rng = SplitMix64::new(
            seed ^ (step as u64 + 1).wrapping_mul(0xA076_1D64_78BD_642F) ^ removal_percent as u64,
        );
        let mut next = revisions.last().expect("non-empty").clone();
        let mut removed_any = false;
        macro_rules! edit_relation {
            ($($field:ident),*) => {
                $(
                    let mut kept = Vec::with_capacity(next.facts.$field.len());
                    for &t in &next.facts.$field {
                        if rng.percent(removal_percent) {
                            pool.$field.push(t);
                            removed_any = true;
                        } else {
                            kept.push(t);
                        }
                    }
                    next.facts.$field = kept;
                    if !pool.$field.is_empty() && rng.percent(35) {
                        let i = rng.below(pool.$field.len());
                        let t = pool.$field.swap_remove(i);
                        if !next.facts.$field.contains(&t) {
                            next.facts.$field.push(t);
                        }
                    }
                )*
            };
        }
        edit_relation!(
            actual,
            assign,
            assign_new,
            assign_return,
            formal,
            load,
            ret,
            static_invoke,
            store,
            static_store,
            static_load,
            this_var,
            virtual_invoke
        );
        // Guarantee the step is retractive even when every coin toss
        // came up "keep".
        if !removed_any {
            let f = &mut next.facts;
            let fallback = f
                .assign
                .pop()
                .map(|t| pool.assign.push(t))
                .or_else(|| f.load.pop().map(|t| pool.load.push(t)))
                .or_else(|| f.store.pop().map(|t| pool.store.push(t)))
                .or_else(|| f.assign_new.pop().map(|t| pool.assign_new.push(t)))
                .or_else(|| f.actual.pop().map(|t| pool.actual.push(t)));
            debug_assert!(fallback.is_some(), "base program has no retractable tuple");
        }
        next.facts.canonicalize();
        revisions.push(next);
    }
    revisions
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random_program;
    use ctxform_ir::ProgramDiff;
    use ctxform_minijava::compile;

    #[test]
    fn edit_scripts_are_deterministic() {
        let base = random_program(4, 1);
        assert_eq!(edit_script(&base, 9, 3), edit_script(&base, 9, 3));
        let long = edit_script(&base, 9, 4);
        assert_eq!(&long[..4], &edit_script(&base, 9, 3)[..]);
    }

    #[test]
    fn every_revision_compiles() {
        for seed in 0..8 {
            let base = random_program(seed, 1);
            for (step, src) in edit_script(&base, seed, 3).iter().enumerate() {
                compile(src).unwrap_or_else(|e| panic!("seed {seed} step {step}: {e}\n{src}"));
            }
        }
    }

    #[test]
    fn retract_scripts_are_deterministic_and_retractive() {
        for seed in 0..8 {
            let base = compile(&random_program(seed, 1)).expect("compiles").program;
            let revisions = retract_edit_script(&base, seed, 3, 10);
            assert_eq!(revisions.len(), 4);
            assert_eq!(revisions, retract_edit_script(&base, seed, 3, 10));
            for (step, pair) in revisions.windows(2).enumerate() {
                pair[1]
                    .validate()
                    .unwrap_or_else(|e| panic!("seed {seed} step {step}: invalid revision: {e}"));
                match ProgramDiff::between(&pair[0], &pair[1]) {
                    ProgramDiff::Retractive(r) => {
                        assert!(
                            r.removed_len() > 0,
                            "seed {seed} step {step}: retractive step removed nothing"
                        );
                        assert!(r.removed_entry_points.is_empty());
                    }
                    other => {
                        panic!("seed {seed} step {step}: expected a retractive edit, got {other:?}")
                    }
                }
            }
        }
    }

    #[test]
    fn retract_scripts_eventually_restore_removed_tuples() {
        // The mutation flavor: across seeds, some step must *add* a tuple
        // back (removed.len() > 0 and added.len() > 0 in the same diff).
        let mut mutated = false;
        for seed in 0..16 {
            let base = compile(&random_program(seed, 1)).expect("compiles").program;
            for pair in retract_edit_script(&base, seed, 3, 10).windows(2) {
                if let ProgramDiff::Retractive(r) = ProgramDiff::between(&pair[0], &pair[1]) {
                    if r.added_len() > 0 {
                        mutated = true;
                    }
                }
            }
        }
        assert!(mutated, "no script step ever restored a removed tuple");
    }

    #[test]
    fn every_step_is_a_purely_additive_program_edit() {
        for seed in 0..8 {
            let base = random_program(seed, 1);
            let revisions = edit_script(&base, seed, 3);
            for pair in revisions.windows(2) {
                let before = compile(&pair[0]).expect("base compiles").program;
                let after = compile(&pair[1]).expect("edit compiles").program;
                match ProgramDiff::between(&before, &after) {
                    ProgramDiff::Additive(delta) => {
                        assert!(
                            !delta.is_empty(),
                            "seed {seed}: edit appended a class but the delta is empty"
                        );
                    }
                    other => panic!("seed {seed}: class append was not additive: {other:?}"),
                }
            }
        }
    }
}
