//! Shared configuration matrices for the differential test suites.
//!
//! The incremental-parity, demand-parity, and fuzzing harnesses all
//! sweep the same abstraction × sensitivity grids; before
//! this crate each suite re-declared its own copy (and they drifted —
//! `crates/core/tests/incremental.rs` and
//! `crates/demand/tests/demand_parity.rs` carried two near-identical
//! helpers). One definition here keeps every differential oracle
//! sweeping the same space.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use ctxform::AnalysisConfig;
use ctxform_algebra::Sensitivity;

/// Both context abstractions (context strings and transformer strings)
/// at each of the given sensitivity labels, in label order with context
/// strings first — the order the pre-existing suites baked in.
///
/// # Panics
///
/// Panics on an unparsable sensitivity label; the labels are test
/// constants, so that is a bug in the caller.
pub fn config_matrix(labels: &[&str]) -> Vec<AnalysisConfig> {
    let mut configs = Vec::with_capacity(labels.len() * 2);
    for label in labels {
        let s: Sensitivity = label
            .parse()
            .unwrap_or_else(|e| panic!("bad sensitivity label {label:?}: {e}"));
        configs.push(AnalysisConfig::context_strings(s));
        configs.push(AnalysisConfig::transformer_strings(s));
    }
    configs
}

/// The compact grid of the incremental and fuzzing suites:
/// {cstring, tstring} × {1-call, 1-object}.
pub fn incremental_configs() -> Vec<AnalysisConfig> {
    config_matrix(&["1-call", "1-object"])
}

/// The wider context-sensitive grid of the demand-parity suite: {cstring, tstring} × {1-call, 1-call+H, 1-object, 2-object+H}.
pub fn cs_configs() -> Vec<AnalysisConfig> {
    config_matrix(&["1-call", "1-call+H", "1-object", "2-object+H"])
}

/// The retraction-parity grid: [`cs_configs`] plus 2-type+H, all five of
/// the paper's configurations under both abstractions. Three keep heap
/// contexts, which the heap-level-0 [`incremental_configs`] collapse.
pub fn retraction_configs() -> Vec<AnalysisConfig> {
    config_matrix(&["1-call", "1-call+H", "1-object", "2-object+H", "2-type+H"])
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctxform::AbstractionKind;

    #[test]
    fn matrices_cover_both_abstractions_per_label() {
        let m = incremental_configs();
        assert_eq!(m.len(), 4);
        let wide = cs_configs();
        assert_eq!(wide.len(), 8);
        let retraction = retraction_configs();
        assert_eq!(retraction.len(), 10);
        assert_eq!(retraction[..8], wide[..]);
        for pair in retraction.chunks(2) {
            assert_eq!(pair[0].abstraction, AbstractionKind::ContextStrings);
            assert_eq!(pair[1].abstraction, AbstractionKind::TransformerStrings);
            assert_eq!(pair[0].sensitivity, pair[1].sensitivity);
        }
    }

    #[test]
    #[should_panic(expected = "bad sensitivity label")]
    fn bad_labels_panic() {
        config_matrix(&["not-a-sensitivity"]);
    }
}
