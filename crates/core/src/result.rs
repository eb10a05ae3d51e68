//! Analysis results: statistics, context-insensitive projections, and the
//! optional rendered fact log.

use std::collections::{HashMap, HashSet};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use ctxform_hash::fx_hash_one;
use ctxform_ir::{Field, Heap, Inv, Method, Var};

use crate::config::AnalysisConfig;

/// The Figure 3 deduction-rule names, in presentation order. Index
/// positions are the layout of [`RuleCounts`].
pub const RULE_NAMES: [&str; 13] = [
    "Entry", "New", "Assign", "Load", "Store", "SLoad", "SStore", "Param", "Ret", "Static", "Virt",
    "Ind", "Reach",
];

/// Per-Figure-3-rule counters, indexed by [`RULE_NAMES`].
///
/// Kept as a flat fixed array so bumping a counter in the solver's
/// insert path is an indexed add — no hashing, no allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RuleCounts([u64; RULE_NAMES.len()]);

impl Default for RuleCounts {
    fn default() -> Self {
        RuleCounts([0; RULE_NAMES.len()])
    }
}

impl RuleCounts {
    /// Position of `rule` in [`RULE_NAMES`], or `None` for an unknown
    /// name (unknown rules are silently not counted).
    #[inline]
    pub fn index_of(rule: &str) -> Option<usize> {
        Some(match rule {
            "Entry" => 0,
            "New" => 1,
            "Assign" => 2,
            "Load" => 3,
            "Store" => 4,
            "SLoad" => 5,
            "SStore" => 6,
            "Param" => 7,
            "Ret" => 8,
            "Static" => 9,
            "Virt" => 10,
            "Ind" => 11,
            "Reach" => 12,
            _ => return None,
        })
    }

    /// Add one to `rule`'s counter.
    #[inline]
    pub fn bump(&mut self, rule: &str) {
        if let Some(i) = Self::index_of(rule) {
            self.0[i] += 1;
        }
    }

    /// Current count for `rule` (0 for unknown names).
    pub fn get(&self, rule: &str) -> u64 {
        Self::index_of(rule).map_or(0, |i| self.0[i])
    }

    /// `(rule, count)` pairs in [`RULE_NAMES`] order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        RULE_NAMES.iter().copied().zip(self.0.iter().copied())
    }

    /// Like [`RuleCounts::iter`], skipping zero counters.
    pub fn nonzero(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.iter().filter(|&(_, n)| n > 0)
    }

    /// Sum over all rules.
    pub fn total(&self) -> u64 {
        self.0.iter().sum()
    }
}

/// Rule index constants into [`RULE_NAMES`], for code that attributes
/// time to a rule without a string lookup on the hot path.
pub mod rule {
    /// `Entry` — seed `reach(main, [entry])`.
    pub const ENTRY: usize = 0;
    /// `New` — allocation sites of reached methods.
    pub const NEW: usize = 1;
    /// `Assign` — local move.
    pub const ASSIGN: usize = 2;
    /// `Load` — instance-field load.
    pub const LOAD: usize = 3;
    /// `Store` — instance-field store.
    pub const STORE: usize = 4;
    /// `SLoad` — static-field load.
    pub const SLOAD: usize = 5;
    /// `SStore` — static-field store.
    pub const SSTORE: usize = 6;
    /// `Param` — parameter passing at calls.
    pub const PARAM: usize = 7;
    /// `Ret` — return-value flow at calls.
    pub const RET: usize = 8;
    /// `Static` — static call targets.
    pub const STATIC: usize = 9;
    /// `Virt` — virtual-call dispatch.
    pub const VIRT: usize = 10;
    /// `Ind` — indirect heap flow (`hpts ⋈ hload`).
    pub const IND: usize = 11;
    /// `Reach` — callee reachability from `call`.
    pub const REACH: usize = 12;
}

/// Upper bucket edges (nanoseconds) of the per-rule wall-time
/// histograms in [`RuleTimes`]: 1µs, 10µs, 100µs, 1ms, 10ms, 100ms, 1s,
/// plus an implicit +Inf bucket.
pub const RULE_TIME_BUCKETS_NS: [u64; 7] = [
    1_000,
    10_000,
    100_000,
    1_000_000,
    10_000_000,
    100_000_000,
    1_000_000_000,
];

/// A profiled solve reads the rule-block clocks on one popped delta in
/// `PROFILE_STRIDE`, chosen from the delta's event index (so the choice
/// is deterministic), and records each sampled block with this weight
/// (see [`RuleTimes::observe_sampled`]).
pub const PROFILE_STRIDE: u64 = 64;

/// The clock's own cost: the minimum of back-to-back
/// `Instant::now().elapsed()` readings, measured once per process.
fn clock_floor_ns() -> u64 {
    static FLOOR: OnceLock<u64> = OnceLock::new();
    *FLOOR.get_or_init(|| {
        (0..256)
            .map(|_| Instant::now().elapsed().as_nanos() as u64)
            .min()
            .unwrap_or(0)
    })
}

/// `raw` nanoseconds less the clock `floor`, saturating at 0.
#[inline]
fn net_of_floor(raw: u64, floor: u64) -> u64 {
    raw.saturating_sub(floor)
}

/// Nanoseconds elapsed since `t`, net of the clock's own cost.
#[inline]
pub(crate) fn elapsed_ns(t: Instant) -> u64 {
    net_of_floor(t.elapsed().as_nanos() as u64, clock_floor_ns())
}

/// Per-Figure-3-rule wall-time accounting, indexed like [`RuleCounts`].
///
/// Each observation is one timed rule-driver *block* (all the joins one
/// popped delta feeds into for that rule), not one derived tuple — so
/// counts here are comparable to delta-queue pops, while
/// [`SolverStats::rule_fired`] counts tuples. The solver samples: only
/// one popped delta in [`PROFILE_STRIDE`] is timed, and its blocks count
/// [`PROFILE_STRIDE`] times, so `ns`, `count` and the histogram are
/// estimates of the unsampled totals (and the histogram still sums to
/// the count).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RuleTimes {
    ns: [u64; RULE_NAMES.len()],
    count: [u64; RULE_NAMES.len()],
    hist: [[u64; RULE_TIME_BUCKETS_NS.len() + 1]; RULE_NAMES.len()],
}

impl Default for RuleTimes {
    fn default() -> Self {
        RuleTimes {
            ns: [0; RULE_NAMES.len()],
            count: [0; RULE_NAMES.len()],
            hist: [[0; RULE_TIME_BUCKETS_NS.len() + 1]; RULE_NAMES.len()],
        }
    }
}

impl RuleTimes {
    /// Record one timed block of `ns` nanoseconds against rule index
    /// `idx` (see [`rule`]).
    #[inline]
    pub fn observe(&mut self, idx: usize, ns: u64) {
        self.observe_weighted(idx, ns, 1);
    }

    /// Record one *sampled* block of `ns` nanoseconds: it stands for
    /// [`PROFILE_STRIDE`] blocks, so it adds `PROFILE_STRIDE × ns` to the
    /// total and `PROFILE_STRIDE` to the count and to its histogram
    /// bucket.
    #[inline]
    pub fn observe_sampled(&mut self, idx: usize, ns: u64) {
        self.observe_weighted(idx, ns, PROFILE_STRIDE);
    }

    #[inline]
    fn observe_weighted(&mut self, idx: usize, ns: u64, weight: u64) {
        self.ns[idx] += ns * weight;
        self.count[idx] += weight;
        let bucket = RULE_TIME_BUCKETS_NS
            .iter()
            .position(|&edge| ns <= edge)
            .unwrap_or(RULE_TIME_BUCKETS_NS.len());
        self.hist[idx][bucket] += weight;
    }

    /// Total nanoseconds attributed to `rule` (0 for unknown names).
    pub fn ns(&self, rule: &str) -> u64 {
        RuleCounts::index_of(rule).map_or(0, |i| self.ns[i])
    }

    /// Timed-block count for `rule` (0 for unknown names).
    pub fn count(&self, rule: &str) -> u64 {
        RuleCounts::index_of(rule).map_or(0, |i| self.count[i])
    }

    /// Histogram bucket counts for `rule` — one per
    /// [`RULE_TIME_BUCKETS_NS`] edge plus the +Inf bucket.
    pub fn buckets(&self, rule: &str) -> [u64; RULE_TIME_BUCKETS_NS.len() + 1] {
        RuleCounts::index_of(rule).map_or([0; RULE_TIME_BUCKETS_NS.len() + 1], |i| self.hist[i])
    }

    /// `(rule, total_ns, blocks)` for every rule with observations, in
    /// [`RULE_NAMES`] order.
    pub fn nonzero(&self) -> impl Iterator<Item = (&'static str, u64, u64)> + '_ {
        RULE_NAMES
            .iter()
            .enumerate()
            .filter(|&(i, _)| self.count[i] > 0)
            .map(|(i, &name)| (name, self.ns[i], self.count[i]))
    }

    /// Sum of attributed time over all rules.
    pub fn total_ns(&self) -> u64 {
        self.ns.iter().sum()
    }

    /// Fold another run's accounting into this one.
    pub fn merge(&mut self, other: &RuleTimes) {
        for i in 0..RULE_NAMES.len() {
            self.ns[i] += other.ns[i];
            self.count[i] += other.count[i];
            for b in 0..self.hist[i].len() {
                self.hist[i][b] += other.hist[i][b];
            }
        }
    }
}

/// Aggregate solver phase timings (nanoseconds), populated when
/// [`AnalysisConfig::profile`] is set. Each phase is timed exactly, by
/// one clock pair per phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseProfile {
    /// Seeding (`Entry` rule + initial fact loading).
    pub seed_ns: u64,
    /// Rule evaluation: the whole delta loop.
    pub eval_ns: u64,
    /// Always 0: the serial solver has no merge phase. Kept only because
    /// the `ctxbench` benchmark crate reads it for `core.merge_ms`;
    /// remove it with the next change to that crate.
    pub merge_ns: u64,
}

impl PhaseProfile {
    /// Sum over all phases.
    pub fn total_ns(&self) -> u64 {
        self.seed_ns + self.eval_ns
    }

    /// `(name, ns)` for every phase, in the order a solve runs them.
    pub fn phases(&self) -> [(&'static str, u64); 2] {
        [("seed", self.seed_ns), ("eval", self.eval_ns)]
    }

    /// Fold another run's phase timings into this one.
    pub fn merge(&mut self, other: &PhaseProfile) {
        self.seed_ns += other.seed_ns;
        self.eval_ns += other.eval_ns;
    }
}

/// Estimated resident bytes of the solver's fact relations, the seven
/// join indices, and the two memo tables, measured at the end of a run.
///
/// These are deterministic arithmetic estimates (`len × entry size`,
/// with a fixed per-slot overhead for hash containers) — not allocator
/// measurements — so they are stable across runs and platforms and safe
/// to export as gauges. Always populated, profiling or not: the counts
/// are already known at finish time and the multiplication is free.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoryFootprint {
    /// `pts` relation set.
    pub rel_pts: usize,
    /// `hpts` relation set.
    pub rel_hpts: usize,
    /// `hload` relation set.
    pub rel_hload: usize,
    /// `call` relation set.
    pub rel_call: usize,
    /// `spts` relation set.
    pub rel_spts: usize,
    /// `reach` relation set.
    pub rel_reach: usize,
    /// `pts` bucketed by variable.
    pub ix_pts_by_var: usize,
    /// `hpts` bucketed by (heap, field).
    pub ix_hpts_by_gf: usize,
    /// `hload` bucketed by (heap, field).
    pub ix_hload_by_gf: usize,
    /// `spts` bucketed by field.
    pub ix_spts_by_field: usize,
    /// `call` keyed by invocation site.
    pub ix_call_by_inv: usize,
    /// `call` keyed by target method.
    pub ix_call_by_method: usize,
    /// `reach` keyed by method.
    pub ix_reach_by_method: usize,
    /// `compose` memo table.
    pub memo_compose: usize,
}

impl MemoryFootprint {
    /// Sum over all sections.
    pub fn total(&self) -> usize {
        self.sections().map(|(_, _, bytes)| bytes).sum()
    }

    /// `(kind, name, bytes)` triples for every section, in a fixed
    /// order — `kind` is `relation`, `index`, or `memo`.
    pub fn sections(&self) -> impl Iterator<Item = (&'static str, &'static str, usize)> {
        [
            ("relation", "pts", self.rel_pts),
            ("relation", "hpts", self.rel_hpts),
            ("relation", "hload", self.rel_hload),
            ("relation", "call", self.rel_call),
            ("relation", "spts", self.rel_spts),
            ("relation", "reach", self.rel_reach),
            ("index", "pts_by_var", self.ix_pts_by_var),
            ("index", "hpts_by_gf", self.ix_hpts_by_gf),
            ("index", "hload_by_gf", self.ix_hload_by_gf),
            ("index", "spts_by_field", self.ix_spts_by_field),
            ("index", "call_by_inv", self.ix_call_by_inv),
            ("index", "call_by_method", self.ix_call_by_method),
            ("index", "reach_by_method", self.ix_reach_by_method),
            ("memo", "compose", self.memo_compose),
        ]
        .into_iter()
    }
}

/// Solver statistics, mirroring the quantities Figure 6 reports.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Context-sensitive `pts` fact count.
    pub pts: usize,
    /// Context-sensitive `hpts` fact count.
    pub hpts: usize,
    /// Context-sensitive `hload` fact count (not reported by the paper's
    /// table but useful for diagnostics).
    pub hload: usize,
    /// Context-sensitive `call` fact count.
    pub call: usize,
    /// Context-sensitive `spts` (static-field) fact count.
    pub spts: usize,
    /// `reach` fact count.
    pub reach: usize,
    /// Processed derivation events (delta-queue pops).
    pub events: usize,
    /// `comp` evaluations.
    pub compose_calls: u64,
    /// `comp` evaluations that produced ⊥.
    pub compose_bottom: u64,
    /// Join candidates visited.
    pub probes: u64,
    /// `comp` evaluations answered from the memo table.
    pub compose_memo_hits: u64,
    /// `comp` evaluations that missed the memo table (and were computed).
    pub compose_memo_misses: u64,
    /// Per-rule insert attempts (a rule driver produced a candidate
    /// fact and offered it to the fact sets).
    pub rule_fired: RuleCounts,
    /// Per-rule novel derivations (the candidate was new — not a
    /// duplicate — and was admitted).
    pub rule_derived: RuleCounts,
    /// Entries resident in the compose memo table when the run finished.
    pub compose_memo_entries: usize,
    /// Distinct context strings interned by the end of the run
    /// (including ε).
    pub interned_contexts: usize,
    /// Always 0: a retractive edit re-solves, so no fact is over-deleted.
    /// Kept only because the `ctxbench` benchmark crate reads it for
    /// `core.overdeleted`; remove it with the next change to that crate.
    pub overdeleted: u64,
    /// Always 0, like [`overdeleted`](Self::overdeleted), which it is kept
    /// for (`ctxbench`'s `core.rederive_ratio`).
    pub rederived: u64,
    /// Wall-clock solving time.
    pub duration: Duration,
    /// Transformer-configuration histogram (`x*w?e*` tags of §7) over the
    /// `pts` relation; empty for non-transformer abstractions.
    pub pts_configurations: Vec<(String, usize)>,
    /// `true` iff this run collected wall-time profiling
    /// ([`AnalysisConfig::profile`]); the timing fields below are zero
    /// otherwise.
    pub profiled: bool,
    /// Per-rule wall-time totals and histograms (profiling only).
    pub rule_time: RuleTimes,
    /// Aggregate seed/eval phase timings (profiling only).
    pub phase_profile: PhaseProfile,
    /// Estimated resident bytes of relations, join indices, and memo
    /// tables at the end of the run (always populated).
    pub memory: MemoryFootprint,
}

impl SolverStats {
    /// `pts + hpts + call`, the paper's "Total" row.
    pub fn total(&self) -> usize {
        self.pts + self.hpts + self.call
    }

    /// Zeroes every per-run *work* counter while keeping the database
    /// description (fact counts, memo/interner sizes, configuration
    /// histogram). A no-op update reports these stats: the database is
    /// unchanged and the update itself fired no rules.
    pub fn clear_run_work(&mut self) {
        self.events = 0;
        self.compose_calls = 0;
        self.compose_bottom = 0;
        self.probes = 0;
        self.compose_memo_hits = 0;
        self.compose_memo_misses = 0;
        self.rule_fired = RuleCounts::default();
        self.rule_derived = RuleCounts::default();
        self.duration = Duration::default();
        self.rule_time = RuleTimes::default();
        self.phase_profile = PhaseProfile::default();
    }

    /// A multi-line human-readable report of the solver counters (used by
    /// the `analyze` CLI and covered by the memoization unit tests).
    pub fn report(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("  pts facts:        {}\n", self.pts));
        out.push_str(&format!("  hpts facts:       {}\n", self.hpts));
        out.push_str(&format!("  hload facts:      {}\n", self.hload));
        out.push_str(&format!("  call facts:       {}\n", self.call));
        out.push_str(&format!("  spts facts:       {}\n", self.spts));
        out.push_str(&format!("  reach facts:      {}\n", self.reach));
        out.push_str(&format!("  events:           {}\n", self.events));
        out.push_str(&format!(
            "  compose calls:    {} ({} bottom)\n",
            self.compose_calls, self.compose_bottom
        ));
        out.push_str(&format!(
            "  compose memo:     {} hits / {} misses\n",
            self.compose_memo_hits, self.compose_memo_misses
        ));
        out.push_str(&format!("  join probes:      {}\n", self.probes));
        out.push_str(&format!(
            "  memo entries:     {} compose\n",
            self.compose_memo_entries
        ));
        if self.rule_derived.total() > 0 {
            let derived: Vec<String> = self
                .rule_derived
                .nonzero()
                .map(|(rule, n)| format!("{rule} {n}"))
                .collect();
            out.push_str(&format!("  rule derived:     {}\n", derived.join(", ")));
        }
        out.push_str(&format!("  interned ctxts:   {}\n", self.interned_contexts));
        if self.profiled && self.rule_time.total_ns() > 0 {
            let timed: Vec<String> = self
                .rule_time
                .nonzero()
                .map(|(rule, ns, blocks)| format!("{rule} {}µs/{blocks}", ns / 1_000))
                .collect();
            out.push_str(&format!("  rule time:        {}\n", timed.join(", ")));
            let phases: Vec<String> = self
                .phase_profile
                .phases()
                .iter()
                .map(|&(name, ns)| format!("{name} {}µs", ns / 1_000))
                .collect();
            out.push_str(&format!("  phases:           {}\n", phases.join(", ")));
        }
        if self.memory.total() > 0 {
            out.push_str(&format!(
                "  est. bytes:       {} total ({} relations, {} indices, {} memos)\n",
                self.memory.total(),
                self.memory.rel_pts
                    + self.memory.rel_hpts
                    + self.memory.rel_hload
                    + self.memory.rel_call
                    + self.memory.rel_spts
                    + self.memory.rel_reach,
                self.memory.ix_pts_by_var
                    + self.memory.ix_hpts_by_gf
                    + self.memory.ix_hload_by_gf
                    + self.memory.ix_spts_by_field
                    + self.memory.ix_call_by_inv
                    + self.memory.ix_call_by_method
                    + self.memory.ix_reach_by_method,
                self.memory.memo_compose
            ));
        }
        out.push_str(&format!("  time:             {:?}\n", self.duration));
        out
    }
}

/// Context-insensitive projections of the derived relations (the paper's
/// `ptsci` etc. in §6).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CiFacts {
    /// `∃A. pts(Y, H, A)`.
    pub pts: HashSet<(Var, Heap)>,
    /// `∃A. hpts(G, F, H, A)`.
    pub hpts: HashSet<(Heap, Field, Heap)>,
    /// `∃A. call(I, Q, A)`.
    pub call: HashSet<(Inv, Method)>,
    /// `∃A. spts(F, H, A)` (static fields).
    pub spts: HashSet<(Field, Heap)>,
    /// `∃M. reach(P, M)`.
    pub reach: HashSet<Method>,
}

impl CiFacts {
    /// The points-to set of one variable, sorted.
    pub fn points_to(&self, v: Var) -> Vec<Heap> {
        let mut heaps: Vec<Heap> = self
            .pts
            .iter()
            .filter(|&&(var, _)| var == v)
            .map(|&(_, h)| h)
            .collect();
        heaps.sort_unstable();
        heaps
    }

    /// The call targets of one invocation site, sorted.
    pub fn call_targets(&self, i: Inv) -> Vec<Method> {
        let mut methods: Vec<Method> = self
            .call
            .iter()
            .filter(|&&(inv, _)| inv == i)
            .map(|&(_, q)| q)
            .collect();
        methods.sort_unstable();
        methods
    }

    /// `true` iff `a` and `b` may alias (their points-to sets intersect).
    pub fn may_alias(&self, a: Var, b: Var) -> bool {
        let ha = self.points_to(a);
        self.points_to(b)
            .iter()
            .any(|h| ha.binary_search(h).is_ok())
    }

    /// Total size of all five projections (`pts`, `hpts`, `call`,
    /// `spts`, `reach`).
    pub fn total(&self) -> usize {
        self.pts.len() + self.hpts.len() + self.call.len() + self.reach.len() + self.spts.len()
    }

    /// An order-independent digest of the five projections: each set is
    /// sorted and the sorted sequences are hashed together. Identical CI
    /// facts give an identical digest on every platform. This is the
    /// `ci_digest` of the `BENCH_<n>.json` history and of the server's
    /// replies.
    pub fn digest(&self) -> u64 {
        fn sorted<T: Ord + Copy>(set: &HashSet<T>) -> Vec<T> {
            let mut items: Vec<T> = set.iter().copied().collect();
            items.sort_unstable();
            items
        }
        fx_hash_one(&(
            sorted(&self.pts),
            sorted(&self.hpts),
            sorted(&self.call),
            sorted(&self.spts),
            sorted(&self.reach),
        ))
    }
}

/// One recorded fact of the derivation log (rendered with program names).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoggedFact {
    /// Relation name (`pts`, `hpts`, `hload`, `call`, `reach`).
    pub relation: &'static str,
    /// The Figure 3 rule that derived it.
    pub rule: &'static str,
    /// Rendered fact, e.g. `pts(x, main/new#0, m̂1)`.
    pub text: String,
}

/// The complete result of one analysis run.
#[derive(Debug, Clone)]
pub struct AnalysisResult {
    /// The configuration that produced this result.
    pub config: AnalysisConfig,
    /// Solver statistics (fact counts, join counts, time).
    pub stats: SolverStats,
    /// Context-insensitive projections.
    pub ci: CiFacts,
    /// Rendered facts in derivation order, when
    /// [`AnalysisConfig::record_facts`] was set.
    pub log: Vec<LoggedFact>,
}

impl AnalysisResult {
    /// Counts log entries per relation (requires `record_facts`).
    pub fn log_counts(&self) -> HashMap<&'static str, usize> {
        let mut counts = HashMap::new();
        for entry in &self.log {
            *counts.entry(entry.relation).or_insert(0) += 1;
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ci_facts_helpers() {
        let mut ci = CiFacts::default();
        ci.pts.insert((Var(0), Heap(1)));
        ci.pts.insert((Var(0), Heap(0)));
        ci.pts.insert((Var(1), Heap(1)));
        ci.pts.insert((Var(2), Heap(2)));
        assert_eq!(ci.points_to(Var(0)), vec![Heap(0), Heap(1)]);
        assert!(ci.may_alias(Var(0), Var(1)));
        assert!(!ci.may_alias(Var(1), Var(2)));
        ci.call.insert((Inv(0), Method(3)));
        assert_eq!(ci.call_targets(Inv(0)), vec![Method(3)]);
        ci.spts.insert((Field(0), Heap(0)));
        assert_eq!(ci.total(), 6);
    }

    #[test]
    fn rule_times_observe_buckets_and_merge() {
        let mut a = RuleTimes::default();
        a.observe(rule::ASSIGN, 500); // ≤ 1µs bucket
        a.observe(rule::ASSIGN, 5_000_000); // ≤ 10ms bucket
        a.observe(rule::VIRT, 2_000_000_000); // +Inf bucket
        assert_eq!(a.ns("Assign"), 5_000_500);
        assert_eq!(a.count("Assign"), 2);
        let b = a.buckets("Assign");
        assert_eq!(b[0], 1);
        assert_eq!(b[4], 1);
        assert_eq!(a.buckets("Virt")[RULE_TIME_BUCKETS_NS.len()], 1);
        let mut m = RuleTimes::default();
        m.observe(rule::ASSIGN, 100);
        m.merge(&a);
        assert_eq!(m.ns("Assign"), 5_000_600);
        assert_eq!(m.count("Assign"), 3);
        assert_eq!(m.total_ns(), 2_005_000_600);
        let rules: Vec<&str> = m.nonzero().map(|(r, _, _)| r).collect();
        assert_eq!(rules, vec!["Assign", "Virt"]);
    }

    #[test]
    fn sampled_blocks_carry_the_stride_weight() {
        let mut t = RuleTimes::default();
        t.observe_sampled(rule::LOAD, 200); // ≤ 1µs bucket
        t.observe(rule::LOAD, 50_000); // ≤ 100µs bucket, weight 1
        assert_eq!(t.ns("Load"), 200 * PROFILE_STRIDE + 50_000);
        assert_eq!(t.count("Load"), PROFILE_STRIDE + 1);
        let b = t.buckets("Load");
        assert_eq!((b[0], b[2]), (PROFILE_STRIDE, 1));
        assert_eq!(b.iter().sum::<u64>(), t.count("Load"));
    }

    #[test]
    fn blocks_shorter_than_the_clock_floor_record_zero() {
        assert_eq!(net_of_floor(12, 40), 0, "saturates instead of underflowing");
        assert_eq!(net_of_floor(0, u64::MAX), 0);
        assert_eq!(net_of_floor(40, 40), 0);
        assert_eq!(net_of_floor(1_040, 40), 1_000);
        let mut t = RuleTimes::default();
        t.observe_sampled(rule::ASSIGN, net_of_floor(12, 40));
        assert_eq!(t.ns("Assign"), 0);
        assert_eq!(t.count("Assign"), PROFILE_STRIDE, "the block still counts");
        assert_eq!(t.buckets("Assign")[0], PROFILE_STRIDE);
        // The measured floor is a real clock reading, and never exceeds
        // what an (empty) timed block reads.
        assert!(elapsed_ns(Instant::now()) < 1_000_000);
        assert_eq!(clock_floor_ns(), clock_floor_ns(), "measured once");
    }

    #[test]
    fn phase_profiles_merge_and_list_in_run_order() {
        let mut p = PhaseProfile {
            seed_ns: 1,
            eval_ns: 2,
            ..Default::default()
        };
        p.merge(&p.clone());
        assert_eq!(p.total_ns(), 6);
        assert_eq!(p.phases(), [("seed", 2), ("eval", 4)]);
        assert_eq!(
            p.phases().iter().map(|&(_, ns)| ns).sum::<u64>(),
            p.total_ns()
        );
    }

    #[test]
    fn memory_footprint_sections_and_total() {
        let fp = MemoryFootprint {
            rel_pts: 100,
            ix_pts_by_var: 40,
            memo_compose: 7,
            ..Default::default()
        };
        assert_eq!(fp.total(), 147);
        assert_eq!(fp.sections().count(), 14);
        let (kind, name, bytes) = fp.sections().next().unwrap();
        assert_eq!((kind, name, bytes), ("relation", "pts", 100));
    }

    #[test]
    fn clear_run_work_resets_profiling_but_keeps_memory() {
        let mut stats = SolverStats {
            profiled: true,
            memory: MemoryFootprint {
                rel_pts: 64,
                ..Default::default()
            },
            ..Default::default()
        };
        stats.rule_time.observe(rule::NEW, 10);
        stats.phase_profile.eval_ns = 99;
        stats.clear_run_work();
        assert_eq!(stats.rule_time.total_ns(), 0);
        assert_eq!(stats.phase_profile.total_ns(), 0);
        assert_eq!(stats.memory.rel_pts, 64, "footprint describes the db");
    }

    #[test]
    fn stats_total_matches_paper_definition() {
        let stats = SolverStats {
            pts: 10,
            hpts: 3,
            call: 4,
            hload: 99,
            reach: 7,
            ..Default::default()
        };
        assert_eq!(stats.total(), 17);
    }
}
