//! Cached analysis databases with monotone incremental extension.
//!
//! An [`AnalysisDb`] couples a solved program with the full solver state
//! that produced the result — fact sets, join indices, memo tables, and
//! the context interner. Keeping the state alive is what makes
//! *incremental re-analysis* possible: Figure 3 is a monotone Datalog
//! program, so after a purely-additive edit the semi-naive fixpoint can
//! resume from the saved state, seeded only with the delta, and reach
//! exactly the least model a from-scratch solve of the edited program
//! would — bit-identically.
//!
//! Every other edit re-solves the edited program from scratch. An edit
//! that *removes* input tuples or entry points over prefix-stable entity
//! tables (classified [`ProgramDiff::Retractive`]) reports
//! [`ExtendOutcome::Retracted`]; an edit that rewrites something
//! structural reports [`ExtendOutcome::Fallback`] with the reason
//! [`ProgramDiff::between`] gave. A retraction is not resumed: a
//! delete-and-rederive pass over the saved state over-deleted most of the
//! benchmarked edit workload's database and took 1.7× as long as the
//! re-solve (EXPERIMENTS.md, "Retract by re-solving"). On every path the
//! database ends up describing the new program, and
//! [`AnalysisDb::fact_digest`] is identical across all paths.
//!
//! That digest is the parity oracle every incremental path is checked
//! against, and the server computes it on every `update`, so it costs one
//! hash per fact: an order-independent multiset hash over the fact
//! tuples, canonical because it hashes entities and contexts by program
//! *name*, never by id or interner handle (which differ between a
//! from-scratch solve and a chain of extensions of the same program).
//! [`AnalysisDb::rendered_facts`] lists the same facts as sorted strings
//! for diagnostics.
//!
//! [`AnalysisDb::extend`] updates a database in place.
//! [`AnalysisDb::extended`] leaves it untouched and returns the updated
//! copy: it clones the saved state only when the edit resumes it, so a
//! caller that shares a resident database (the server's program cache
//! holds it behind `Arc`) pays no clone for a re-solve. Both run one diff-and-dispatch.

use std::mem;

use ctxform_algebra::{CStrings, Insensitive, TStrings};
use ctxform_ir::{Program, ProgramDelta, ProgramDiff};

use crate::config::{AbstractionKind, AnalysisConfig};
use crate::result::AnalysisResult;
use crate::solver::{self, SolverState};

/// The solver state, monomorphized per abstraction.
#[derive(Clone)]
enum DbState {
    Ins(SolverState<Insensitive>),
    Cs(SolverState<CStrings>),
    Ts(SolverState<TStrings>),
}

/// How [`AnalysisDb::extend`] satisfied an edit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExtendOutcome {
    /// The edit was identical to the current program; nothing ran and
    /// the reported stats carry zero run work.
    Noop,
    /// The edit was additive; the fixpoint resumed from the saved state.
    Incremental,
    /// The edit removed input tuples (a [`ProgramDiff::Retractive`]
    /// edit); the database was re-solved from scratch.
    Retracted,
    /// The edit was not monotone; the database was re-solved from
    /// scratch. The payload says why.
    Fallback(String),
}

impl ExtendOutcome {
    /// `true` whenever the saved state was reused instead of re-solved
    /// (including the trivial no-op reuse).
    pub fn is_incremental(&self) -> bool {
        matches!(self, ExtendOutcome::Noop | ExtendOutcome::Incremental)
    }
}

/// What an edit does to the saved state (see [`AnalysisDb::plan`]).
enum Plan {
    /// Reuse the state: `None` for an identical edit, else the additive
    /// delta to resume from.
    Resume(Option<Box<ProgramDelta>>),
    /// Re-solve the edited program from scratch.
    Resolve(ExtendOutcome),
}

/// A solved program plus the saved solver state, ready to be extended.
#[derive(Clone)]
pub struct AnalysisDb {
    program: Program,
    config: AnalysisConfig,
    state: DbState,
    result: AnalysisResult,
}

impl AnalysisDb {
    /// Solves `program` from scratch under `config`, keeping the state.
    pub fn solve(program: Program, config: &AnalysisConfig) -> AnalysisDb {
        let (state, result) = solve_fresh(&program, config);
        AnalysisDb {
            program,
            config: *config,
            state,
            result,
        }
    }

    /// The program this database currently describes.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The configuration the database was solved under.
    pub fn config(&self) -> &AnalysisConfig {
        &self.config
    }

    /// The result of the most recent solve or extension. After an
    /// incremental extension, the fact-count statistics describe the
    /// *whole* database while the event/derivation counters cover only
    /// the extension's work (that asymmetry is what lets callers assert
    /// an extension re-derived strictly less than a fresh solve).
    ///
    /// The database-wide parts — the CI projection, the fact counts, the
    /// configuration histogram and the memory estimate — are carried
    /// across runs rather than recomputed: the solver keeps them up per
    /// inserted fact, and the CI projection lives here between runs (an
    /// extension moves it into the resumed solver and back out), so the
    /// database holds it once. Each of them equals a from-scratch solve's
    /// of the same program, except the compose memo's and the interner's
    /// sizes, which also cover what earlier runs memoized and interned.
    pub fn result(&self) -> &AnalysisResult {
        &self.result
    }

    /// Brings the database up to date with `next`.
    ///
    /// An additive edit resumes the saved fixpoint seeded with the delta;
    /// every other edit (retractive or non-monotone) re-solves `next`
    /// from scratch. The resulting fact sets are identical either way;
    /// only the work differs.
    pub fn extend(&mut self, next: Program) -> ExtendOutcome {
        match self.plan(&next) {
            Plan::Resume(delta) => self.resume(next, delta.as_deref()),
            Plan::Resolve(outcome) => {
                *self = AnalysisDb::solve(next, &self.config);
                outcome
            }
        }
    }

    /// [`extend`](Self::extend) into a new database, leaving this one
    /// untouched: the state is cloned only when the edit resumes it (an
    /// identical or additive edit); a re-solve clones nothing.
    pub fn extended(&self, next: Program) -> (AnalysisDb, ExtendOutcome) {
        match self.plan(&next) {
            Plan::Resume(delta) => {
                let mut db = self.clone();
                let outcome = db.resume(next, delta.as_deref());
                (db, outcome)
            }
            Plan::Resolve(outcome) => (AnalysisDb::solve(next, &self.config), outcome),
        }
    }

    /// The one diff-and-dispatch behind [`extend`](Self::extend) and
    /// [`extended`](Self::extended).
    fn plan(&self, next: &Program) -> Plan {
        match ProgramDiff::between(&self.program, next) {
            ProgramDiff::Identical => Plan::Resume(None),
            ProgramDiff::Additive(delta) => Plan::Resume(Some(delta)),
            ProgramDiff::Retractive(_) => Plan::Resolve(ExtendOutcome::Retracted),
            ProgramDiff::NonMonotone { reason } => Plan::Resolve(ExtendOutcome::Fallback(reason)),
        }
    }

    /// Resumes the saved state: with the additive `delta`, or, for an
    /// identical edit (`None`), by reporting the standing database.
    fn resume(&mut self, next: Program, delta: Option<&ProgramDelta>) -> ExtendOutcome {
        let Some(delta) = delta else {
            // The database is already up to date, and the no-op did no
            // derivation work — report the standing fact counts with
            // zeroed run counters instead of re-reporting the previous
            // run's work.
            self.result.stats.clear_run_work();
            self.result.log.clear();
            return ExtendOutcome::Noop;
        };
        self.extend_additive(next, delta);
        ExtendOutcome::Incremental
    }

    /// A canonical digest of every derived fact: an order-independent
    /// multiset hash over the fact tuples, with every entity and context
    /// hashed by its program *name*, never by id or interner handle. It is
    /// therefore independent of interning order and of
    /// whether the database was built by one solve or a chain of
    /// extensions; two databases digest equal
    /// exactly when their [`rendered_facts`](Self::rendered_facts) are
    /// equal (up to 64-bit hash collisions). Renders no string and sorts
    /// nothing: the cost is one hash per fact.
    pub fn fact_digest(&self) -> u64 {
        match &self.state {
            DbState::Ins(st) => st.fact_digest(&self.program),
            DbState::Cs(st) => st.fact_digest(&self.program),
            DbState::Ts(st) => st.fact_digest(&self.program),
        }
    }

    /// Every derived fact rendered with program names, sorted — a
    /// human-readable listing for diagnostics and tests (it allocates a
    /// string per fact; [`fact_digest`](Self::fact_digest) does not).
    pub fn rendered_facts(&self) -> Vec<String> {
        match &self.state {
            DbState::Ins(st) => st.rendered_facts(&self.program),
            DbState::Cs(st) => st.rendered_facts(&self.program),
            DbState::Ts(st) => st.rendered_facts(&self.program),
        }
    }

    /// How many `pts` facts are strictly subsumed by another fact on the
    /// same `(var, heap)` (§8, Fig. 7). Transformer strings can derive
    /// such redundant facts along distinct data-flow paths; context
    /// strings never do, since their subsumption is equality. A
    /// diagnostic: it checks every pair per key with no memo.
    pub fn subsumed_pts(&self) -> usize {
        match &self.state {
            DbState::Ins(st) => st.subsumed_pts(),
            DbState::Cs(st) => st.subsumed_pts(),
            DbState::Ts(st) => st.subsumed_pts(),
        }
    }

    /// Resumes the saved state with `delta`. The standing result's CI
    /// projection moves into the resumed solver, which extends it and
    /// hands it back in the new result: one copy, never re-projected.
    fn extend_additive(&mut self, next: Program, delta: &ProgramDelta) {
        let state = self.take_state();
        let ci = mem::take(&mut self.result.ci);
        let (state, result) = match state {
            DbState::Ins(mut st) => {
                st.resume_with(ci);
                let (st, r) = solver::extend_state(&next, st, delta);
                (DbState::Ins(st), r)
            }
            DbState::Cs(mut st) => {
                st.resume_with(ci);
                let (st, r) = solver::extend_state(&next, st, delta);
                (DbState::Cs(st), r)
            }
            DbState::Ts(mut st) => {
                st.resume_with(ci);
                let (st, r) = solver::extend_state(&next, st, delta);
                (DbState::Ts(st), r)
            }
        };
        self.state = state;
        self.result = result;
        self.program = next;
    }

    /// Moves the state out, leaving a cheap placeholder (never observed:
    /// every caller writes a real state back before returning).
    fn take_state(&mut self) -> DbState {
        let placeholder = DbState::Ins(SolverState::new(
            &Program::default(),
            Insensitive::new(),
            AnalysisConfig::insensitive(),
        ));
        mem::replace(&mut self.state, placeholder)
    }
}

fn solve_fresh(program: &Program, config: &AnalysisConfig) -> (DbState, AnalysisResult) {
    match config.abstraction {
        AbstractionKind::Insensitive => {
            let (st, r) = solver::solve_state(
                program,
                SolverState::new(program, Insensitive::new(), *config),
            );
            (DbState::Ins(st), r)
        }
        AbstractionKind::ContextStrings => {
            let sens = config
                .sensitivity
                .expect("context strings require a sensitivity");
            let (st, r) = solver::solve_state(
                program,
                SolverState::new(program, CStrings::new(sens), *config),
            );
            (DbState::Cs(st), r)
        }
        AbstractionKind::TransformerStrings => {
            let sens = config
                .sensitivity
                .expect("transformer strings require a sensitivity");
            let (st, r) = solver::solve_state(
                program,
                SolverState::new(program, TStrings::new(sens), *config),
            );
            (DbState::Ts(st), r)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{demand_slice, CiFacts, MemoryFootprint};
    use ctxform_algebra::Abstraction;
    use ctxform_minijava::{compile, corpus};
    use ctxform_synth::{edit_script, random_program};

    const BASE: &str = "
        class Box { Object item;
            void put(Object o) { this.item = o; }
            Object get() { Object r = this.item; return r; }
        }
        class Main {
            public static void main(String[] args) {
                Box b = new Box();
                Object o = new Object();
                b.put(o);
                Object r = b.get();
            }
        }
    ";

    /// The same program with an appended driver class (its own `main`).
    const EDITED: &str = "
        class Box { Object item;
            void put(Object o) { this.item = o; }
            Object get() { Object r = this.item; return r; }
        }
        class Main {
            public static void main(String[] args) {
                Box b = new Box();
                Object o = new Object();
                b.put(o);
                Object r = b.get();
            }
        }
        class Edit0 {
            public static void main(String[] args) {
                Box b2 = new Box();
                Object p = new Object();
                b2.put(p);
                Object q = b2.get();
            }
        }
    ";

    fn cfg(label: &str) -> AnalysisConfig {
        AnalysisConfig::transformer_strings(label.parse().unwrap())
    }

    #[test]
    fn additive_edit_extends_incrementally_and_matches_scratch() {
        let base = compile(BASE).unwrap().program;
        let next = compile(EDITED).unwrap().program;
        let config = cfg("2-object+H");

        let mut db = AnalysisDb::solve(base, &config);
        let outcome = db.extend(next.clone());
        assert_eq!(outcome, ExtendOutcome::Incremental);

        let scratch = AnalysisDb::solve(next, &config);
        assert_eq!(db.fact_digest(), scratch.fact_digest());
        assert_eq!(db.result().ci.pts, scratch.result().ci.pts);
        // The extension re-derives strictly fewer facts than from-scratch.
        assert!(
            db.result().stats.rule_derived.total() < scratch.result().stats.rule_derived.total(),
            "{} vs {}",
            db.result().stats.rule_derived.total(),
            scratch.result().stats.rule_derived.total()
        );
    }

    #[test]
    fn identical_edit_is_a_no_op() {
        let base = compile(BASE).unwrap().program;
        let config = cfg("1-call");
        let mut db = AnalysisDb::solve(base.clone(), &config);
        let digest = db.fact_digest();
        let pts = db.result().stats.pts;
        assert_eq!(db.extend(base), ExtendOutcome::Noop);
        assert_eq!(db.fact_digest(), digest);
        // The no-op reports the standing database, not the previous
        // run's work.
        assert_eq!(db.result().stats.rule_derived.total(), 0);
        assert_eq!(db.result().stats.events, 0);
        assert_eq!(db.result().stats.pts, pts);
    }

    #[test]
    fn retractive_edit_re_solves_and_matches_scratch() {
        let base = compile(EDITED).unwrap().program;
        let mut next = base.clone();
        // Drop an input tuple (a field store) without touching the
        // entity tables: a retraction, not a structural rewrite.
        assert!(!next.facts.store.is_empty());
        next.facts.store.remove(0);
        let config = cfg("2-object+H");

        let mut db = AnalysisDb::solve(base, &config);
        let outcome = db.extend(next.clone());
        assert_eq!(outcome, ExtendOutcome::Retracted);
        assert!(!outcome.is_incremental());

        // A re-solve does exactly a scratch solve's work.
        let scratch = AnalysisDb::solve(next, &config);
        assert_eq!(db.fact_digest(), scratch.fact_digest());
        assert_eq!(db.result().ci.pts, scratch.result().ci.pts);
        assert_eq!(db.result().stats.events, scratch.result().stats.events);
    }

    #[test]
    fn extended_leaves_the_base_untouched_on_every_path() {
        let base = compile(BASE).unwrap().program;
        let edited = compile(EDITED).unwrap().program;
        let mut retracted = edited.clone();
        retracted.facts.store.remove(0);
        let config = cfg("1-object");
        for (from, to, want) in [
            (&edited, &edited, "Noop"),
            (&base, &edited, "Incremental"),
            (&edited, &retracted, "Retracted"),
            (&edited, &base, "Fallback"),
        ] {
            let db = AnalysisDb::solve(from.clone(), &config);
            let digest = db.fact_digest();
            let (copy, outcome) = db.extended(to.clone());
            assert!(format!("{outcome:?}").starts_with(want), "{outcome:?}");
            let scratch = AnalysisDb::solve(to.clone(), &config);
            assert_eq!(copy.fact_digest(), scratch.fact_digest(), "{want}");
            assert_eq!(db.fact_digest(), digest, "{want} changed the base");
            assert_eq!(db.program(), from);
        }
    }

    #[test]
    fn non_monotone_edit_falls_back() {
        let base = compile(EDITED).unwrap().program;
        let next = compile(BASE).unwrap().program; // a *removal*
        let config = cfg("1-call");
        let mut db = AnalysisDb::solve(base, &config);
        let outcome = db.extend(next.clone());
        assert!(matches!(outcome, ExtendOutcome::Fallback(_)), "{outcome:?}");
        let scratch = AnalysisDb::solve(next, &config);
        assert_eq!(db.fact_digest(), scratch.fact_digest());
    }

    /// The solver's running bookkeeping recounted from a solved state.
    struct Recount {
        ci: CiFacts,
        pts_configurations: Vec<(String, usize)>,
        memory: MemoryFootprint,
    }

    impl Recount {
        fn of<A: Abstraction>(st: &SolverState<A>) -> Recount {
            Recount {
                ci: st.recount_ci(),
                pts_configurations: st.recount_configurations(),
                memory: st.recount_memory(),
            }
        }

        fn of_db(db: &AnalysisDb) -> Recount {
            match &db.state {
                DbState::Ins(st) => Recount::of(st),
                DbState::Cs(st) => Recount::of(st),
                DbState::Ts(st) => Recount::of(st),
            }
        }
    }

    /// Insensitive, context strings and transformer strings, each under
    /// both join strategies.
    fn bookkeeping_configs() -> Vec<AnalysisConfig> {
        let mut configs = vec![AnalysisConfig::insensitive()];
        for label in ["1-call+H", "2-object+H"] {
            let s = label.parse().unwrap();
            configs.push(AnalysisConfig::context_strings(s));
            configs.push(AnalysisConfig::transformer_strings(s));
        }
        let naive: Vec<AnalysisConfig> = configs.iter().map(|c| c.with_naive_joins()).collect();
        configs.extend(naive);
        configs
    }

    /// The result's carried CI projection, configuration histogram and
    /// footprint equal an O(database) recount of the same state.
    fn assert_matches_recount(db: &AnalysisDb, what: &str) {
        let recount = Recount::of_db(db);
        let stats = &db.result().stats;
        assert_eq!(db.result().ci, recount.ci, "{what}: ci");
        assert_eq!(
            stats.pts_configurations, recount.pts_configurations,
            "{what}: pts_configurations"
        );
        assert_eq!(stats.memory, recount.memory, "{what}: memory");
    }

    /// Everything but the compose memo, whose entries also cover what
    /// earlier runs memoized.
    fn without_memo(memory: MemoryFootprint) -> MemoryFootprint {
        MemoryFootprint {
            memo_compose: 0,
            ..memory
        }
    }

    #[test]
    fn carried_bookkeeping_matches_recounts_on_the_corpus() {
        for (name, src) in corpus::all() {
            let program = compile(src).unwrap().program;
            for config in bookkeeping_configs() {
                let db = AnalysisDb::solve(program.clone(), &config);
                assert_matches_recount(&db, &format!("{name} {config}"));
            }
        }
    }

    #[test]
    fn carried_bookkeeping_survives_additive_chains() {
        for seed in 0..8 {
            let steps = 3 + (seed % 3) as usize;
            let revisions: Vec<Program> = edit_script(&random_program(seed, 1), seed, steps)
                .iter()
                .map(|src| compile(src).unwrap().program)
                .collect();
            for config in bookkeeping_configs() {
                let mut db = AnalysisDb::solve(revisions[0].clone(), &config);
                assert_matches_recount(&db, &format!("seed {seed} {config} base"));
                for (step, next) in revisions.iter().enumerate().skip(1) {
                    let what = format!("seed {seed} {config} step {step}");
                    assert_eq!(
                        db.extend(next.clone()),
                        ExtendOutcome::Incremental,
                        "{what}"
                    );
                    assert_matches_recount(&db, &what);
                    let scratch = AnalysisDb::solve(next.clone(), &config);
                    let (got, want) = (db.result(), scratch.result());
                    assert_eq!(got.ci, want.ci, "{what}: ci");
                    assert_eq!(
                        got.stats.pts_configurations, want.stats.pts_configurations,
                        "{what}: pts_configurations"
                    );
                    assert_eq!(
                        without_memo(got.stats.memory),
                        without_memo(want.stats.memory),
                        "{what}: memory"
                    );
                    assert_eq!(db.fact_digest(), scratch.fact_digest(), "{what}: digest");
                }
            }
        }
    }

    #[test]
    fn carried_bookkeeping_matches_recounts_under_a_demand_gate() {
        let program = compile(&random_program(3, 1)).unwrap().program;
        let vars: Vec<ctxform_ir::Var> = (0..program.var_count() as u32)
            .step_by(3)
            .map(ctxform_ir::Var)
            .collect();
        let slice = std::sync::Arc::new(demand_slice(&program, &vars).unwrap());
        let config = cfg("2-object+H");
        let state = SolverState::new(&program, TStrings::new(config.sensitivity.unwrap()), config)
            .with_gate(slice.clone());
        let (st, result) = solver::solve_state(&program, state);
        let recount = Recount::of(&st);
        // The same run as the public entry point's.
        assert_eq!(
            crate::analyze_sliced(&program, &config, slice).ci,
            result.ci
        );
        assert!(result.stats.pts < AnalysisDb::solve(program, &config).result().stats.pts);
        assert_eq!(result.ci, recount.ci);
        assert_eq!(result.stats.pts_configurations, recount.pts_configurations);
        assert_eq!(result.stats.memory, recount.memory);
    }
}
