//! Cached analysis databases with monotone incremental extension.
//!
//! An [`AnalysisDb`] couples a solved program with the full solver state
//! that produced the result — fact sets, join indices, memo tables, and
//! the context interner. Keeping the state alive is what makes
//! *incremental re-analysis* possible: Figure 3 is a monotone Datalog
//! program, so after a purely-additive edit the semi-naive fixpoint can
//! resume from the saved state, seeded only with the delta, and reach
//! exactly the least model a from-scratch solve of the edited program
//! would — bit-identically, at every thread count.
//!
//! Edits that *remove* input tuples or entry points over prefix-stable
//! entity tables (classified [`ProgramDiff::Retractive`]) also resume
//! incrementally, via DRed (delete-and-rederive): an over-delete phase
//! transitively retracts every fact whose derivations depend on a removed
//! input, then the ordinary monotone fixpoint restores what the new
//! program still supports — again bit-identical to from-scratch at every
//! thread count. Edits that rewrite something structural (classified by
//! [`ProgramDiff::between`] as non-monotone) fall back to a from-scratch
//! solve; either way the database ends up describing the new program, and
//! [`AnalysisDb::fact_digest`] is identical across both paths.
//!
//! That digest is the parity oracle every incremental path is checked
//! against, and the server computes it on every `update`, so it costs one
//! hash per fact: an order-independent multiset hash over the fact
//! tuples, canonical because it hashes entities and contexts by program
//! *name*, never by id or interner handle (which differ between a
//! from-scratch solve, an extension and a parallel solve of the same
//! program). [`AnalysisDb::rendered_facts`] lists the same facts as
//! sorted strings for diagnostics.

use ctxform_algebra::{CStrings, Insensitive, TStrings};
use ctxform_ir::{Program, ProgramDelta, ProgramDiff, ProgramRetraction};

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
    /// The edit removed input tuples; a DRed (delete-and-rederive) pass
    /// updated the saved state in place.
    Retracted,
    /// The edit was not monotone; the database was re-solved from
    /// scratch. The payload says why.
    Fallback(String),
}

impl ExtendOutcome {
    /// `true` whenever the saved state was reused instead of re-solved
    /// (including the trivial no-op reuse).
    pub fn is_incremental(&self) -> bool {
        matches!(
            self,
            ExtendOutcome::Noop | ExtendOutcome::Incremental | ExtendOutcome::Retracted
        )
    }
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
    pub fn result(&self) -> &AnalysisResult {
        &self.result
    }

    /// Brings the database up to date with `next`.
    ///
    /// Additive edits resume the saved fixpoint seeded with the delta;
    /// retractive edits run a DRed delete-and-rederive pass over the
    /// saved state; a non-monotone edit re-solves from scratch. The
    /// resulting fact sets are identical in every case; only the work
    /// differs.
    pub fn extend(&mut self, next: Program) -> ExtendOutcome {
        match ProgramDiff::between(&self.program, &next) {
            ProgramDiff::Identical => {
                // The database is already up to date, and the no-op did
                // no derivation work — report the standing fact counts
                // with zeroed run counters instead of re-reporting the
                // previous run's work.
                self.result.stats.clear_run_work();
                self.result.log.clear();
                ExtendOutcome::Noop
            }
            ProgramDiff::Additive(delta) => {
                self.extend_additive(next, &delta);
                ExtendOutcome::Incremental
            }
            ProgramDiff::Retractive(retraction) => {
                self.extend_retractive(next, &retraction);
                ExtendOutcome::Retracted
            }
            ProgramDiff::NonMonotone { reason } => {
                self.resolve_from_scratch(next);
                ExtendOutcome::Fallback(reason)
            }
        }
    }

    /// A canonical digest of every derived fact: an order-independent
    /// multiset hash over the fact tuples, with every entity and context
    /// hashed by its program *name*, never by id or interner handle. It is
    /// therefore independent of interning order, thread count, and of
    /// whether the database was built by one solve, a chain of
    /// extensions or a DRed retraction; two databases digest equal
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

    fn extend_additive(&mut self, next: Program, delta: &ProgramDelta) {
        let state = self.take_state();
        let (state, result) = match state {
            DbState::Ins(mut st) => {
                st.reset_run_counters();
                let (st, r) = solver::extend_state(&next, st, delta);
                (DbState::Ins(st), r)
            }
            DbState::Cs(mut st) => {
                st.reset_run_counters();
                let (st, r) = solver::extend_state(&next, st, delta);
                (DbState::Cs(st), r)
            }
            DbState::Ts(mut st) => {
                st.reset_run_counters();
                let (st, r) = solver::extend_state(&next, st, delta);
                (DbState::Ts(st), r)
            }
        };
        self.state = state;
        self.result = result;
        self.program = next;
    }

    fn extend_retractive(&mut self, next: Program, retraction: &ProgramRetraction) {
        let state = self.take_state();
        let base = &self.program;
        let (state, result) = match state {
            DbState::Ins(mut st) => {
                st.reset_run_counters();
                let (st, r) = solver::retract_state(&next, base, st, retraction);
                (DbState::Ins(st), r)
            }
            DbState::Cs(mut st) => {
                st.reset_run_counters();
                let (st, r) = solver::retract_state(&next, base, st, retraction);
                (DbState::Cs(st), r)
            }
            DbState::Ts(mut st) => {
                st.reset_run_counters();
                let (st, r) = solver::retract_state(&next, base, st, retraction);
                (DbState::Ts(st), r)
            }
        };
        self.state = state;
        self.result = result;
        self.program = next;
    }

    fn resolve_from_scratch(&mut self, next: Program) {
        let (state, result) = solve_fresh(&next, &self.config);
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
        std::mem::replace(&mut self.state, placeholder)
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
    use ctxform_minijava::compile;

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
        AnalysisConfig::transformer_strings(label.parse().unwrap()).with_threads(1)
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
    fn retractive_edit_extends_incrementally_and_matches_scratch() {
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
        assert!(db.result().stats.overdeleted > 0);

        let scratch = AnalysisDb::solve(next, &config);
        assert_eq!(db.fact_digest(), scratch.fact_digest());
        assert_eq!(db.result().ci.pts, scratch.result().ci.pts);
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
}
