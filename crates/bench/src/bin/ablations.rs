//! One-shot ablation report: §7 join strategies and §8 subsuming facts.
//!
//! ```text
//! cargo run --release -p ctxform-bench --bin ablations -- [SCALE]
//! ```
//!
//! Asserts that both join strategies derive the same facts and that only
//! transformer strings derive subsuming facts on bloat.
use ctxform::{analyze, AnalysisConfig, AnalysisDb};
use ctxform_bench::compile_benchmark;
use std::time::Instant;

fn main() {
    let scale: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(10);
    println!("== section 7 ablation: join strategies (luindex, 2-object+H, scale {scale}) ==");
    let program = compile_benchmark("luindex", scale);
    let s = "2-object+H".parse().unwrap();
    for (name, specialized) in [
        ("tstring", AnalysisConfig::transformer_strings(s)),
        ("cstring", AnalysisConfig::context_strings(s)),
    ] {
        let mut totals = Vec::new();
        for (join, cfg) in [
            ("specialized", specialized),
            ("naive      ", specialized.with_naive_joins()),
        ] {
            let t0 = Instant::now();
            let r = analyze(&program, &cfg);
            println!(
                "  {name}/{join}: {:?} ({} probes, {} compose calls, {} facts)",
                t0.elapsed(),
                r.stats.probes,
                r.stats.compose_calls,
                r.stats.total()
            );
            totals.push(r.stats.total());
        }
        assert_eq!(totals[0], totals[1], "{name}: join strategies disagree");
    }
    println!("\n== section 8: subsuming pts facts (bloat, 1-call+H, scale {scale}) ==");
    let program = compile_benchmark("bloat", scale);
    let s = "1-call+H".parse().unwrap();
    let mut counts = Vec::new();
    for (name, cfg) in [
        ("tstring", AnalysisConfig::transformer_strings(s)),
        ("cstring", AnalysisConfig::context_strings(s)),
    ] {
        let t0 = Instant::now();
        let db = AnalysisDb::solve(program.clone(), &cfg);
        let solved = t0.elapsed();
        let subsumed = db.subsumed_pts();
        println!(
            "  {name}: {solved:?} ({} pts facts, {subsumed} strictly subsumed)",
            db.result().stats.pts
        );
        counts.push(subsumed);
    }
    assert!(
        counts[0] > 0,
        "bloat derives subsuming transformer-string facts"
    );
    assert_eq!(counts[1], 0, "context strings subsume only by equality");
    println!("\n== transformer configuration histogram (bloat pts, 1-call+H) ==");
    let r = analyze(&program, &AnalysisConfig::transformer_strings(s));
    for (tag, n) in &r.stats.pts_configurations {
        let tag = if tag.is_empty() { "ε" } else { tag.as_str() };
        println!("  {tag:6} {n}");
    }
}
