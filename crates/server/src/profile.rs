//! Aggregated solver profiling for the serving tier.
//!
//! Every profiled solver run's [`ctxform::SolverStats`] (fresh solves and
//! updates) is folded into one process-wide [`ProfileStore`]:
//! per-Fig.-3-rule wall-time totals and counts, per-phase
//! (seed/eval) timings, and the byte accounting of the
//! most recent run's database. The `profile` server op exports
//! the store as JSON plus a folded-stack text rendering that feeds
//! straight into `inferno`/`flamegraph.pl`.

use std::sync::Mutex;

use ctxform::{MemoryFootprint, PhaseProfile, RuleTimes, SolverStats};

#[derive(Default)]
struct ProfileInner {
    /// Profiled solver runs (solves and extensions) folded in so far.
    solves: u64,
    /// Per-rule wall-time totals/counts/histograms, summed across solves.
    rule: RuleTimes,
    /// Per-phase wall time, summed across solves.
    phase: PhaseProfile,
    /// Byte accounting of the most recent profiled solve (a gauge, not a
    /// counter: footprints describe a database, and summing databases
    /// from different programs is meaningless).
    memory: MemoryFootprint,
}

/// Process-wide accumulator of profiled solver runs.
#[derive(Default)]
pub struct ProfileStore {
    inner: Mutex<ProfileInner>,
}

impl ProfileStore {
    /// Folds one solver run's stats in. A no-op unless the run was profiled
    /// (`stats.profiled`), so cache hits and unprofiled servers cost one
    /// mutex lock at most — and nothing is ever half-counted.
    pub fn record(&self, stats: &SolverStats) {
        if !stats.profiled {
            return;
        }
        let mut inner = self.inner.lock().unwrap();
        inner.solves += 1;
        inner.rule.merge(&stats.rule_time);
        inner.phase.merge(&stats.phase_profile);
        inner.memory = stats.memory;
    }

    /// Profiled solver runs folded in so far.
    pub fn solves(&self) -> u64 {
        self.inner.lock().unwrap().solves
    }

    /// A snapshot of the aggregates: `(solves, rule times, phases, last
    /// footprint)`.
    pub fn snapshot(&self) -> (u64, RuleTimes, PhaseProfile, MemoryFootprint) {
        let inner = self.inner.lock().unwrap();
        (inner.solves, inner.rule, inner.phase, inner.memory)
    }

    /// Folded-stack rendering (one `frame;frame;frame <ns>` line per
    /// stack, flamegraph-ready): seed under `solver`,
    /// each rule's eval time under `solver;eval`, and the eval remainder
    /// not attributed to any rule block under `solver;eval;other`.
    pub fn folded(&self) -> String {
        let inner = self.inner.lock().unwrap();
        let mut out = String::new();
        if inner.phase.seed_ns > 0 {
            out.push_str(&format!("solver;seed {}\n", inner.phase.seed_ns));
        }
        let mut rule_total = 0u64;
        for (rule, ns, _count) in inner.rule.nonzero() {
            rule_total += ns;
            out.push_str(&format!("solver;eval;{rule} {ns}\n"));
        }
        // The sampled rule times are estimates, so the per-rule sum can
        // exceed the wall eval time; saturate rather than emit a
        // negative remainder.
        let other = inner.phase.eval_ns.saturating_sub(rule_total);
        if other > 0 {
            out.push_str(&format!("solver;eval;other {other}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profiled_stats() -> SolverStats {
        let mut stats = SolverStats {
            profiled: true,
            ..SolverStats::default()
        };
        stats.rule_time.observe(ctxform::rule::NEW, 1_000);
        stats.rule_time.observe(ctxform::rule::VIRT, 2_000);
        stats.phase_profile.seed_ns = 500;
        stats.phase_profile.eval_ns = 10_000;
        stats.memory.rel_pts = 4096;
        stats
    }

    #[test]
    fn unprofiled_runs_are_ignored() {
        let store = ProfileStore::default();
        store.record(&SolverStats::default());
        assert_eq!(store.solves(), 0);
        assert!(store.folded().is_empty());
    }

    #[test]
    fn profiled_runs_accumulate_and_fold() {
        let store = ProfileStore::default();
        let stats = profiled_stats();
        store.record(&stats);
        store.record(&stats);
        let (solves, rule, phase, memory) = store.snapshot();
        assert_eq!(solves, 2);
        assert_eq!(rule.ns("New"), 2_000, "rule times sum across solves");
        assert_eq!(phase.eval_ns, 20_000, "phase times sum across solves");
        assert_eq!(memory.rel_pts, 4096, "footprint is last-solve, not summed");

        let folded = store.folded();
        assert!(folded.contains("solver;seed 1000\n"));
        assert!(folded.contains("solver;eval;New 2000\n"));
        assert!(folded.contains("solver;eval;Virt 4000\n"));
        // eval 20_000 minus 6_000 of attributed rule time.
        assert!(folded.contains("solver;eval;other 14000\n"));
        for line in folded.lines() {
            let (stack, ns) = line.rsplit_once(' ').expect("stack + value");
            assert!(stack.starts_with("solver"));
            assert!(ns.parse::<u64>().is_ok(), "unparseable {line:?}");
        }
    }

    #[test]
    fn rule_sum_exceeding_eval_saturates() {
        let store = ProfileStore::default();
        let mut stats = profiled_stats();
        stats.phase_profile.eval_ns = 1_000; // less than the 3_000 rule sum
        store.record(&stats);
        assert!(
            !store.folded().contains("other"),
            "no negative/garbage remainder frame"
        );
    }
}
