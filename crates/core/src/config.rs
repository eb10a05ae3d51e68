//! Analysis configuration.

use std::fmt;

use ctxform_algebra::Sensitivity;

use crate::bucket::JoinStrategy;

/// Which context-transformation abstraction to instantiate the rules with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AbstractionKind {
    /// Traditional k-limited context-string pairs (Fig. 4, left).
    ContextStrings,
    /// The paper's transformer strings (Fig. 4, right).
    TransformerStrings,
    /// No context sensitivity at all (baseline).
    Insensitive,
}

impl fmt::Display for AbstractionKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AbstractionKind::ContextStrings => "context strings",
            AbstractionKind::TransformerStrings => "transformer strings",
            AbstractionKind::Insensitive => "context-insensitive",
        };
        f.write_str(s)
    }
}

/// A complete analysis configuration.
///
/// ```
/// use ctxform::AnalysisConfig;
///
/// let cfg = AnalysisConfig::transformer_strings("2-object+H".parse()?);
/// assert_eq!(cfg.to_string(), "2-object+H/transformer strings");
/// # Ok::<(), ctxform_algebra::SensitivityError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AnalysisConfig {
    /// Abstraction of context transformations.
    pub abstraction: AbstractionKind,
    /// Flavour and levels (ignored for [`AbstractionKind::Insensitive`]).
    pub sensitivity: Option<Sensitivity>,
    /// Join indexing discipline (§7): specialized or naive.
    pub join_strategy: JoinStrategy,
    /// Record every derived fact (rendered, in derivation order) into the
    /// result — used by the figure examples; expensive on big programs.
    pub record_facts: bool,
    /// Memoize `compose` over the copyable interned handles (sound
    /// because the interner is append-only, so it is a pure function of
    /// its handles). On by default; disable for the
    /// memoization-parity tests and ablation runs.
    pub memoize: bool,
    /// Solver worker threads: `0` picks `std::thread::available_parallelism`
    /// (the default), `1` runs the exact legacy single-threaded delta loop,
    /// and `n > 1` runs the round-based frontier-parallel engine with `n`
    /// workers. The derived facts and `ci_digest` are bit-identical for
    /// every thread count.
    pub threads: usize,
    /// Collect per-rule wall-time histograms and per-round phase timings
    /// into [`crate::SolverStats`]. Off by default: when disabled the rule
    /// drivers take a plain untaken branch and read no clocks, so the hot
    /// loop is unaffected. Profiling never changes *what* is derived —
    /// only timing fields in the stats — so `fact_digest` is bit-identical
    /// with it on or off (covered by the profiling-parity test).
    pub profile: bool,
}

impl AnalysisConfig {
    /// Context-string analysis at `sensitivity`.
    pub fn context_strings(sensitivity: Sensitivity) -> Self {
        AnalysisConfig {
            abstraction: AbstractionKind::ContextStrings,
            sensitivity: Some(sensitivity),
            ..AnalysisConfig::defaults()
        }
    }

    /// Transformer-string analysis at `sensitivity`.
    pub fn transformer_strings(sensitivity: Sensitivity) -> Self {
        AnalysisConfig {
            abstraction: AbstractionKind::TransformerStrings,
            sensitivity: Some(sensitivity),
            ..AnalysisConfig::defaults()
        }
    }

    /// Context-insensitive analysis.
    pub fn insensitive() -> Self {
        AnalysisConfig {
            abstraction: AbstractionKind::Insensitive,
            sensitivity: None,
            ..AnalysisConfig::defaults()
        }
    }

    fn defaults() -> Self {
        AnalysisConfig {
            abstraction: AbstractionKind::Insensitive,
            sensitivity: None,
            join_strategy: JoinStrategy::Specialized,
            record_facts: false,
            memoize: true,
            threads: 0,
            profile: false,
        }
    }

    /// Returns a copy with an explicit solver thread count (`0` = auto,
    /// `1` = legacy single-threaded path).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// The thread count this configuration resolves to on this machine:
    /// `threads` itself unless it is `0` (auto), in which case
    /// `std::thread::available_parallelism` decides.
    pub fn effective_threads(&self) -> usize {
        match self.threads {
            0 => std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            n => n,
        }
    }

    /// Returns a copy with the naive join strategy (§7 ablation).
    pub fn with_naive_joins(mut self) -> Self {
        self.join_strategy = JoinStrategy::Naive;
        self
    }

    /// Returns a copy that records rendered facts in derivation order.
    pub fn with_recorded_facts(mut self) -> Self {
        self.record_facts = true;
        self
    }

    /// Returns a copy with `compose` memoization disabled
    /// (parity testing and ablation).
    pub fn without_memoization(mut self) -> Self {
        self.memoize = false;
        self
    }

    /// Returns a copy with per-rule/per-round wall-time profiling enabled.
    pub fn with_profiling(mut self) -> Self {
        self.profile = true;
        self
    }
}

impl fmt::Display for AnalysisConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.sensitivity {
            Some(s) => write!(f, "{s}/{}", self.abstraction),
            None => write!(f, "{}", self.abstraction),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_set_kind() {
        let s: Sensitivity = "1-call".parse().unwrap();
        assert_eq!(
            AnalysisConfig::context_strings(s).abstraction,
            AbstractionKind::ContextStrings
        );
        assert_eq!(
            AnalysisConfig::transformer_strings(s).abstraction,
            AbstractionKind::TransformerStrings
        );
        assert_eq!(AnalysisConfig::insensitive().sensitivity, None);
    }

    #[test]
    fn modifiers_toggle_flags() {
        let s: Sensitivity = "1-call".parse().unwrap();
        let cfg = AnalysisConfig::transformer_strings(s)
            .with_naive_joins()
            .with_recorded_facts();
        assert_eq!(cfg.join_strategy, JoinStrategy::Naive);
        assert!(cfg.record_facts);
        assert!(cfg.memoize, "memoization is on by default");
        assert!(!cfg.without_memoization().memoize);
        assert!(!cfg.profile, "profiling is off by default");
        assert!(cfg.with_profiling().profile);
    }

    #[test]
    fn threads_knob_defaults_to_auto() {
        let s: Sensitivity = "1-call".parse().unwrap();
        let cfg = AnalysisConfig::transformer_strings(s);
        assert_eq!(cfg.threads, 0, "auto by default");
        assert!(cfg.effective_threads() >= 1);
        assert_eq!(cfg.with_threads(4).threads, 4);
        assert_eq!(cfg.with_threads(4).effective_threads(), 4);
        assert_eq!(cfg.with_threads(1).effective_threads(), 1);
    }

    #[test]
    fn display_includes_sensitivity_and_abstraction() {
        let s: Sensitivity = "2-object+H".parse().unwrap();
        assert_eq!(
            AnalysisConfig::context_strings(s).to_string(),
            "2-object+H/context strings"
        );
        assert_eq!(
            AnalysisConfig::insensitive().to_string(),
            "context-insensitive"
        );
    }
}
