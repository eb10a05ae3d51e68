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
//! version. Both run one diff-and-dispatch.
//!
//! Versions share what they do not change. The program is held behind
//! an `Arc`. Each key of the solver state's five bucket join indices
//! holds its bucket either owned or frozen behind an `Arc`; a solve or
//! an extension that ends through an `AnalysisDb` freezes every owned
//! bucket, so cloning the state bumps one reference count per key. An
//! extension of a clone copies a frozen bucket only when it first
//! writes to it (a bucket no other version holds is taken back
//! without a copy), so the base never sees a version's facts. A clone
//! still copies the flat fact sets and the compose memo (tables of
//! `Copy` tuples), the two vector indices and the interner, and
//! [`AnalysisDb::extended`] copies the base's CI sets for the version
//! to grow. A re-solve copies nothing of the base. Fresh solves through
//! [`crate::analyze`] and the gated demand solve never freeze.

use std::mem;
use std::sync::Arc;

use ctxform_algebra::{Abstraction, CStrings, Insensitive, TStrings};
use ctxform_ir::{Program, ProgramDelta, ProgramDiff};

use crate::config::{AbstractionKind, AnalysisConfig};
use crate::result::{AnalysisResult, CiFacts};
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
///
/// The program is shared (`Arc`), and the state is frozen whenever a
/// solve or an extension ends, so a clone of a database, and a version
/// [`extended`](Self::extended) from it, share its program and its join
/// buckets rather than copying them.
#[derive(Clone)]
pub struct AnalysisDb {
    program: Arc<Program>,
    config: AnalysisConfig,
    state: DbState,
    result: AnalysisResult,
}

impl AnalysisDb {
    /// Solves `program` from scratch under `config`, keeping the state.
    pub fn solve(program: impl Into<Arc<Program>>, config: &AnalysisConfig) -> AnalysisDb {
        let program = program.into();
        let (mut state, result) = solve_fresh(&program, config);
        state.freeze();
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
    pub fn extend(&mut self, next: impl Into<Arc<Program>>) -> ExtendOutcome {
        let next = next.into();
        match self.plan(&next) {
            Plan::Resume(None) => self.noop(),
            Plan::Resume(Some(delta)) => {
                let state = self.take_state();
                let ci = mem::take(&mut self.result.ci);
                *self = AnalysisDb::resumed(next, self.config, state, ci, &delta);
                ExtendOutcome::Incremental
            }
            Plan::Resolve(outcome) => {
                *self = AnalysisDb::solve(next, &self.config);
                outcome
            }
        }
    }

    /// [`extend`](Self::extend) into a new version, leaving this one
    /// untouched. A resumed edit (identical or additive) starts from a
    /// clone of the frozen state, which shares every join bucket with
    /// this version, plus a copy of the CI projection; the extension
    /// copies only the buckets it writes to. A re-solve copies nothing.
    pub fn extended(&self, next: impl Into<Arc<Program>>) -> (AnalysisDb, ExtendOutcome) {
        let next = next.into();
        match self.plan(&next) {
            Plan::Resume(None) => {
                let mut db = self.clone();
                let outcome = db.noop();
                (db, outcome)
            }
            Plan::Resume(Some(delta)) => {
                let (state, ci) = (self.state.clone(), self.result.ci.clone());
                let db = AnalysisDb::resumed(next, self.config, state, ci, &delta);
                (db, ExtendOutcome::Incremental)
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

    /// An identical edit: the database is already up to date, and the
    /// no-op did no derivation work — report the standing fact counts
    /// with zeroed run counters instead of re-reporting the previous
    /// run's work.
    fn noop(&mut self) -> ExtendOutcome {
        self.result.stats.clear_run_work();
        self.result.log.clear();
        ExtendOutcome::Noop
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

    /// The database of `next`, resumed from `state` (the solved state of
    /// the base program, this version's own or a clone of it) with the
    /// additive `delta`. `ci`, the base's CI projection, moves into the
    /// resumed solver, which extends it and hands it back in the new
    /// result: never re-projected. The state is frozen again at the end.
    fn resumed(
        next: Arc<Program>,
        config: AnalysisConfig,
        state: DbState,
        ci: CiFacts,
        delta: &ProgramDelta,
    ) -> AnalysisDb {
        fn run<A: Abstraction>(
            next: &Program,
            mut st: SolverState<A>,
            ci: CiFacts,
            delta: &ProgramDelta,
        ) -> (SolverState<A>, AnalysisResult) {
            st.resume_with(ci);
            let (mut st, result) = solver::extend_state(next, st, delta);
            st.freeze();
            (st, result)
        }
        let (state, result) = match state {
            DbState::Ins(st) => {
                let (st, r) = run(&next, st, ci, delta);
                (DbState::Ins(st), r)
            }
            DbState::Cs(st) => {
                let (st, r) = run(&next, st, ci, delta);
                (DbState::Cs(st), r)
            }
            DbState::Ts(st) => {
                let (st, r) = run(&next, st, ci, delta);
                (DbState::Ts(st), r)
            }
        };
        AnalysisDb {
            program: next,
            config,
            state,
            result,
        }
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

impl DbState {
    /// See [`SolverState::freeze`].
    fn freeze(&mut self) {
        match self {
            DbState::Ins(st) => st.freeze(),
            DbState::Cs(st) => st.freeze(),
            DbState::Ts(st) => st.freeze(),
        }
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
    use crate::solver::SlotCounts;
    use crate::{demand_slice, CiFacts, MemoryFootprint};
    use ctxform_minijava::{compile, corpus};
    use ctxform_synth::{append_edit, edit_script, random_program};

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

    fn slot_counts(db: &AnalysisDb) -> SlotCounts {
        match &db.state {
            DbState::Ins(st) => st.slot_counts(),
            DbState::Cs(st) => st.slot_counts(),
            DbState::Ts(st) => st.slot_counts(),
        }
    }

    #[test]
    fn a_one_class_append_shares_most_buckets_with_its_base() {
        let source = random_program(4, 1);
        let base = compile(&source).unwrap().program;
        let next = compile(&append_edit(&source, 4, 0)).unwrap().program;
        for config in bookkeeping_configs() {
            let db = AnalysisDb::solve(base.clone(), &config);
            let alone = slot_counts(&db);
            let keys = alone.frozen;
            assert_eq!(
                alone,
                SlotCounts {
                    frozen: keys,
                    ..SlotCounts::default()
                },
                "{config}: a solve ends frozen"
            );
            let (version, _) = db.extended(next.clone());
            let base_counts = slot_counts(&db);
            let version_counts = slot_counts(&version);
            assert_eq!(
                version_counts.owned, 0,
                "{config}: an extension ends frozen"
            );
            assert_eq!(base_counts.owned, 0, "{config}: the base stays frozen");
            assert_eq!(
                base_counts.frozen + base_counts.shared,
                keys,
                "{config}: the base keeps its keys"
            );
            // What the version shares, the base shares with it; the
            // rest of the version's keys were copied or created.
            assert_eq!(version_counts.shared, base_counts.shared, "{config}");
            assert!(
                2 * version_counts.shared > version_counts.frozen + version_counts.shared,
                "{config}: most keys stay shared: {version_counts:?}"
            );
            assert!(
                version_counts.frozen > 0,
                "{config}: the append wrote somewhere"
            );
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
