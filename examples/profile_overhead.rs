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
//! * six seeded retractive edits (2% of each retractable relation, as
//!   `edit-session` draws them) each run as a DRed `extend` of a clone of
//!   the plain and of the profiled database, and as a from-scratch solve
//!   of the edited program.
//!
//! ```text
//! cargo run --release --example profile_overhead
//! ```

use std::time::{Duration, Instant};

use ctxform::{analyze, AnalysisConfig, AnalysisDb, ExtendOutcome};
use ctxform_minijava::compile;
use ctxform_synth::{generate, preset, retract_edit_script};

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
    println!("\nretractive extend vs from-scratch solve ({facts} facts in the base):");
    let (mut ext_plain, mut ext_prof, mut scratch) = (Vec::new(), Vec::new(), Vec::new());
    for seed in 1..=EDIT_SEEDS {
        let edited = retract_edit_script(&program, seed, 1, 2).swap_remove(1);
        let mut runs = [0.0; 2];
        let mut overdeleted = 0;
        for (i, base) in [&base_plain, &base_prof].into_iter().enumerate() {
            let mut db = base.clone();
            let (outcome, d) = timed(|| db.extend(edited.clone()));
            assert!(matches!(outcome, ExtendOutcome::Retracted), "{outcome:?}");
            runs[i] = ms(d);
            overdeleted = db.result().stats.overdeleted;
            if i == 1 {
                let p = db.result().stats.phase_profile;
                println!(
                    "  seed {seed}: over-deleted {overdeleted}, profiled phases retract {:.1} / seed {:.1} / eval {:.1} ms",
                    p.retract_ns as f64 / 1e6,
                    p.seed_ns as f64 / 1e6,
                    p.eval_ns as f64 / 1e6
                );
            }
        }
        let (_, d) = timed(|| AnalysisDb::solve(edited.clone(), &plain));
        println!(
            "  seed {seed}: extend plain {:.1} ms, profiled {:.1} ms; from-scratch solve {:.1} ms",
            runs[0],
            runs[1],
            ms(d)
        );
        assert!(overdeleted > 0);
        ext_plain.push(runs[0]);
        ext_prof.push(runs[1]);
        scratch.push(ms(d));
    }
    println!(
        "medians: extend plain {:.1} ms, profiled {:.1} ms; from-scratch solve {:.1} ms",
        median(ext_plain),
        median(ext_prof),
        median(scratch)
    );
    Ok(())
}
