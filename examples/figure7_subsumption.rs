//! Figure 7: subsuming facts from multiple data-flow paths (§8).
//!
//! On the Fig. 7 program at 1-call+H, `v` points to `h1` both directly
//! (transformer `ε`) and through the receiver's field (`c1·ĉ1`). The `ε`
//! fact subsumes the other, so every fact derivable from `c1·ĉ1` is also
//! derivable from `ε` — duplicated work the paper measures on bloat.
//! `AnalysisDb::subsumed_pts` counts such facts; context strings, whose
//! subsumption is equality, derive none.
//!
//! ```text
//! cargo run --example figure7_subsumption
//! ```

use ctxform::{analyze, AnalysisConfig, AnalysisDb};
use ctxform_minijava::{compile, corpus};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let module = compile(corpus::FIG7)?;
    let sensitivity = "1-call+H".parse()?;
    let cfg = AnalysisConfig::transformer_strings(sensitivity).with_recorded_facts();
    let plain = analyze(&module.program, &cfg);

    println!("Figure 7 transformer-string derivation at 1-call+H:\n");
    for fact in &plain.log {
        println!("  {:45} [{}]", fact.text, fact.rule);
    }

    let v_facts: Vec<&str> = plain
        .log
        .iter()
        .filter(|f| f.text.starts_with("pts(v,"))
        .map(|f| f.text.as_str())
        .collect();
    println!("\nfacts for v: {v_facts:#?}");
    assert_eq!(v_facts.len(), 2, "v is reached via two data-flow paths");

    println!("\npts configuration histogram (x*w?e* tags of section 7):");
    for (tag, count) in &plain.stats.pts_configurations {
        let tag = if tag.is_empty() { "ε" } else { tag };
        println!("  {tag:6} {count}");
    }

    let tstring = AnalysisDb::solve(module.program.clone(), &cfg);
    let cstring = AnalysisDb::solve(
        module.program,
        &AnalysisConfig::context_strings(sensitivity),
    );
    println!(
        "\nstrictly subsumed pts facts: {} of {} (transformer strings), {} of {} (context strings)",
        tstring.subsumed_pts(),
        tstring.result().stats.pts,
        cstring.subsumed_pts(),
        cstring.result().stats.pts
    );
    assert_eq!(tstring.subsumed_pts(), 1, "c1·ĉ1 is subsumed by ε");
    assert_eq!(cstring.subsumed_pts(), 0);
    Ok(())
}
