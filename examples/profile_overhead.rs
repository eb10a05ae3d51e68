//! What always-on solver profiling costs, and whether its rule times add
//! up.
//!
//! On antlr at scale 20 under transformer strings at 2-object+H (the
//! `edit-session` benchmark's program and configuration), serial:
//!
//! * plain and profiled solves run interleaved, seven of each; the
//!   minimum of each gives the profiling overhead, and every profiled
//!   run reports how its sampled per-rule sum compares with its exactly
//!   timed `eval` phase;
//! * six seeded additive edits (one appended driver class each, as
//!   `edit-session` draws its additive updates) each run as an
//!   incremental `extend` of a clone of the plain and of the profiled
//!   database, and as a from-scratch solve of the edited program. This is
//!   the one path that resumes a saved state: a retractive edit re-solves,
//!   so it costs what the scratch solve costs.
//!
//! ```text
//! cargo run --release --example profile_overhead
//! ```

use std::time::{Duration, Instant};

use ctxform::{analyze, AnalysisConfig, AnalysisDb, ExtendOutcome};
use ctxform_minijava::compile;
use ctxform_synth::{append_edit, generate, preset};

const REPS: usize = 7;
const EDIT_SEEDS: u64 = 6;

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let source = generate(&preset("antlr").ok_or("no antlr preset")?.scale_driver(20));
    let program = compile(&source)?.program;
    let plain = AnalysisConfig::transformer_strings("2-object+H".parse()?);
    let profiled = plain.with_profiling();

    let (mut plain_min, mut prof_min) = (Duration::MAX, Duration::MAX);
    let mut shares = Vec::new();
    for _ in 0..REPS {
        plain_min = plain_min.min(timed(|| analyze(&program, &plain)).1);
        let (r, d) = timed(|| analyze(&program, &profiled));
        prof_min = prof_min.min(d);
        let s = &r.stats;
        shares.push(s.rule_time.total_ns() as f64 / s.phase_profile.eval_ns as f64);
    }
    shares.sort_by(f64::total_cmp);
    println!(
        "solve, min of {REPS}: plain {:.1} ms, profiled {:.1} ms, profiled / plain {:.3}",
        ms(plain_min),
        ms(prof_min),
        prof_min.as_secs_f64() / plain_min.as_secs_f64()
    );
    println!(
        "sum of rule ns / eval_ns over the profiled solves: {:.3} .. {:.3}",
        shares[0],
        shares[REPS - 1]
    );

    let base_plain = AnalysisDb::solve(program.clone(), &plain);
    let base_prof = AnalysisDb::solve(program.clone(), &profiled);
    let st = &base_plain.result().stats;
    let facts = st.pts + st.hpts + st.hload + st.call + st.spts + st.reach;
    println!("\nadditive extend vs from-scratch solve ({facts} facts in the base):");
    let (mut ext_plain, mut ext_prof, mut scratch) = (Vec::new(), Vec::new(), Vec::new());
    for seed in 1..=EDIT_SEEDS {
        let edited = compile(&append_edit(&source, seed, 0))?.program;
        let mut runs = [0.0; 2];
        for (i, base) in [&base_plain, &base_prof].into_iter().enumerate() {
            let mut db = base.clone();
            let (outcome, d) = timed(|| db.extend(edited.clone()));
            assert_eq!(outcome, ExtendOutcome::Incremental);
            runs[i] = ms(d);
            if i == 1 {
                let p = db.result().stats.phase_profile;
                println!(
                    "  seed {seed}: events {}, profiled phases seed {:.2} / eval {:.2} ms",
                    db.result().stats.events,
                    p.seed_ns as f64 / 1e6,
                    p.eval_ns as f64 / 1e6
                );
            }
        }
        let (_, d) = timed(|| AnalysisDb::solve(edited.clone(), &plain));
        println!(
            "  seed {seed}: extend plain {:.2} ms, profiled {:.2} ms; from-scratch solve {:.1} ms",
            runs[0],
            runs[1],
            ms(d)
        );
        ext_plain.push(runs[0]);
        ext_prof.push(runs[1]);
        scratch.push(ms(d));
    }
    println!(
        "medians: extend plain {:.2} ms, profiled {:.2} ms; from-scratch solve {:.1} ms",
        median(ext_plain),
        median(ext_prof),
        median(scratch)
    );
    Ok(())
}
