//! Properties of `AnalysisDb::fact_digest`, the order-independent
//! multiset digest of the live derived facts.
//!
//! The digest hashes entities and contexts by *name*, so it must be a
//! function of the rendered fact listing and of nothing else: two
//! databases digest equal exactly when their sorted `rendered_facts()`
//! are equal. This suite checks that equivalence pairwise over every
//! database one program yields — from-scratch solves of the base, an
//! additive edit and a DRed (deleting) edit, the `extend` chain through
//! both edits, at 1 and 4 threads, under every abstraction — for the
//! corpus and seeded random programs. Pairs with equal listings exercise
//! the "independent of interning order, thread count and build path"
//! half; pairs with different listings (other revisions, other
//! abstractions) exercise the "different facts, different digest" half.

use ctxform::{AnalysisConfig, AnalysisDb, ExtendOutcome};
use ctxform_ir::Program;
use ctxform_minijava::{compile, corpus};
use ctxform_synth::{edit_script, random_program, retract_edit_script};
use ctxform_testutil::{config_matrix, PARITY_THREADS};

const RANDOM_SEEDS: u64 = 6;

/// A class appended to a corpus program: a purely additive edit.
const CORPUS_EDIT: &str = "
class DigestEdit {
    Object f;
    public static void main(String[] args) {
        DigestEdit e = new DigestEdit();
        Object o = new Object();
        e.f = o;
        Object p = e.f;
    }
}
";

/// Insensitive, then {cstring, tstring} × {1-call, 1-object, 2-object+H}.
fn configs() -> Vec<AnalysisConfig> {
    let mut configs = vec![AnalysisConfig::insensitive()];
    configs.extend(config_matrix(&["1-call", "1-object", "2-object+H"]));
    configs
}

fn compiled(name: &str, source: &str) -> Program {
    compile(source)
        .unwrap_or_else(|e| panic!("{name}: fails to compile: {e}"))
        .program
}

/// Base, one additive edit of it, and one deleting edit of the additive
/// revision, for every corpus program and random seed.
fn subjects() -> Vec<(String, [Program; 3])> {
    let mut sources: Vec<(String, String, String)> = corpus::all()
        .into_iter()
        .map(|(name, src)| {
            (
                name.to_owned(),
                src.to_owned(),
                format!("{src}{CORPUS_EDIT}"),
            )
        })
        .collect();
    for seed in 0..RANDOM_SEEDS {
        let mut script = edit_script(&random_program(seed, 1), seed, 1);
        let edited = script.pop().expect("one edit step");
        let base = script.pop().expect("the base revision");
        sources.push((format!("random seed {seed}"), base, edited));
    }
    sources
        .into_iter()
        .enumerate()
        .map(|(i, (name, base, edited))| {
            let base = compiled(&name, &base);
            let edited = compiled(&name, &edited);
            let retracted = retract_edit_script(&edited, i as u64, 1, 20).swap_remove(1);
            (name, [base, edited, retracted])
        })
        .collect()
}

/// Every pair of `entries`: digests are equal exactly when listings
/// are. Returns (listing-equal pairs, listing-distinct pairs).
fn assert_digest_iff_listing(entries: &[Entry]) -> (usize, usize) {
    let (mut equal, mut distinct) = (0, 0);
    for (i, a) in entries.iter().enumerate() {
        for b in &entries[i + 1..] {
            let same_facts = a.rendered == b.rendered;
            assert_eq!(
                a.digest == b.digest,
                same_facts,
                "{} ({:016x}) vs {} ({:016x}): equal listings {same_facts}",
                a.label,
                a.digest,
                b.label,
                b.digest
            );
            if same_facts {
                equal += 1;
            } else {
                distinct += 1;
            }
        }
    }
    (equal, distinct)
}

/// One database of the pool, with its digest and listing.
struct Entry {
    label: String,
    digest: u64,
    rendered: Vec<String>,
}

impl Entry {
    fn of(label: String, db: &AnalysisDb) -> Entry {
        Entry {
            label,
            digest: db.fact_digest(),
            rendered: db.rendered_facts(),
        }
    }
}

/// Every database one program yields under `config`: scratch solves of
/// each revision and the extend chain, at every parity thread count.
fn pool(name: &str, revisions: &[Program; 3], config: AnalysisConfig) -> Vec<Entry> {
    let mut entries = Vec::new();
    for threads in PARITY_THREADS {
        let cfg = config.with_threads(threads);
        let scratch: Vec<Entry> = revisions
            .iter()
            .enumerate()
            .map(|(rev, program)| {
                let db = AnalysisDb::solve(program.clone(), &cfg);
                Entry::of(format!("{name} {cfg} scratch rev{rev}"), &db)
            })
            .collect();
        let mut db = AnalysisDb::solve(revisions[0].clone(), &cfg);
        let mut chain = Vec::new();
        for (rev, expected) in [
            (1, ExtendOutcome::Incremental),
            (2, ExtendOutcome::Retracted),
        ] {
            assert_eq!(db.extend(revisions[rev].clone()), expected, "{name} {cfg}");
            let entry = Entry::of(format!("{name} {cfg} {expected:?} rev{rev}"), &db);
            // The build path never changes the facts, so the pool always
            // holds listing-equal pairs built along different paths.
            assert_eq!(entry.rendered, scratch[rev].rendered, "{}", entry.label);
            chain.push(entry);
        }
        entries.extend(scratch);
        entries.extend(chain);
    }
    entries
}

#[test]
fn digests_are_equal_exactly_when_rendered_facts_are() {
    let (mut equal_pairs, mut distinct_pairs) = (0usize, 0usize);
    for (name, revisions) in subjects() {
        let entries: Vec<Entry> = configs()
            .into_iter()
            .flat_map(|config| pool(&name, &revisions, config))
            .collect();
        let (equal, distinct) = assert_digest_iff_listing(&entries);
        equal_pairs += equal;
        distinct_pairs += distinct;
    }
    assert!(equal_pairs > 0 && distinct_pairs > 0);
}
