//! Property tests for the context-transformation algebra.
//!
//! Everything is checked against the denotational semantics in
//! `ctxform_algebra::Sem`: normalization (Lemma 4.1), composition,
//! truncation soundness (Lemma 4.2), the inverse-semigroup laws of §3, and
//! the subsumption order of §8.
//!
//! The cases are drawn from the deterministic in-tree
//! [`ctxform_hash::SplitMix64`] generator rather than `proptest`, so the
//! suite runs in the offline build environment with no third-party
//! dependencies and fails reproducibly (every failure message carries the
//! case index; re-running the test replays the identical stream).

use ctxform_algebra::{
    Abstraction, CPair, CStrings, CtxtDigest, CtxtElem, CtxtInterner, CtxtStr, Letter, Sem, TStr,
    TStrings, Word,
};
use ctxform_hash::SplitMix64;
use ctxform_ir::Inv;

/// Cases per property. The stream is deterministic, so this is a pure
/// coverage/time trade-off (256 mirrors proptest's default).
const CASES: usize = 256;

fn elem(i: usize) -> CtxtElem {
    CtxtElem::of_inv(Inv(u32::try_from(i).unwrap()))
}

fn random_letter(rng: &mut SplitMix64) -> Letter {
    match rng.below(7) {
        0..=2 => Letter::Exit(elem(rng.below(3))),
        3..=5 => Letter::Entry(elem(rng.below(3))),
        _ => Letter::Wild,
    }
}

fn random_word(rng: &mut SplitMix64) -> Word {
    let len = rng.below(8);
    Word((0..len).map(|_| random_letter(rng)).collect())
}

fn random_context(rng: &mut SplitMix64) -> Vec<CtxtElem> {
    let len = rng.below(5);
    (0..len).map(|_| elem(rng.below(3))).collect()
}

/// All (small) semantic inputs we probe transformations with.
fn random_inputs(rng: &mut SplitMix64) -> Vec<Sem> {
    let n = 1 + rng.below(5);
    (0..n)
        .map(|_| {
            if rng.below(2) == 0 {
                Sem::Exact(random_context(rng))
            } else {
                Sem::UpSet(random_context(rng))
            }
        })
        .collect()
}

/// The semantic function of a word applied to one input.
fn run(word: &Word, input: &Sem) -> Sem {
    input.clone().apply(word)
}

/// Runs `body` for [`CASES`] deterministic cases, reporting the failing
/// case index on panic.
fn for_cases(seed: u64, mut body: impl FnMut(&mut SplitMix64)) {
    let mut rng = SplitMix64::new(seed);
    for case in 0..CASES {
        let mut case_rng = SplitMix64::new(rng.next_u64());
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(&mut case_rng)));
        if let Err(payload) = result {
            eprintln!("property failed at case {case} (seed {seed})");
            std::panic::resume_unwind(payload);
        }
    }
}

/// Lemma 4.1: normalization preserves the transformation; words whose
/// normalization is ⊥ denote the empty transformation on every input.
#[test]
fn normalize_preserves_semantics() {
    for_cases(0x11, |rng| {
        let word = random_word(rng);
        let inputs = random_inputs(rng);
        let mut it = CtxtInterner::new();
        match word.normalize(&mut it) {
            Some(t) => {
                let canon = Word::from_tstr(t, &it);
                for input in &inputs {
                    assert_eq!(run(&word, input), run(&canon, input));
                }
            }
            None => {
                for input in &inputs {
                    assert_eq!(run(&word, input), Sem::Empty);
                }
            }
        }
    });
}

/// Normalization is idempotent: canonical forms are fixed points.
#[test]
fn normalize_is_idempotent() {
    for_cases(0x22, |rng| {
        let word = random_word(rng);
        let mut it = CtxtInterner::new();
        if let Some(t) = word.normalize(&mut it) {
            let again = Word::from_tstr(t, &it).normalize(&mut it);
            assert_eq!(again, Some(t));
        }
    });
}

/// Untruncated composition equals normalization of the concatenation
/// (`comp(X, Y, match(X·Y))` with no truncation).
#[test]
fn compose_equals_word_concat() {
    for_cases(0x33, |rng| {
        let wa = random_word(rng);
        let wb = random_word(rng);
        let mut it = CtxtInterner::new();
        let (Some(a), Some(b)) = (wa.normalize(&mut it), wb.normalize(&mut it)) else {
            return;
        };
        let composed = a.compose_in(&mut it, b, usize::MAX, usize::MAX);
        let concatenated = wa.concat(&wb).normalize(&mut it);
        assert_eq!(composed, concatenated);
    });
}

/// Composition is associative (on the canonical, untruncated domain).
#[test]
fn compose_is_associative() {
    for_cases(0x44, |rng| {
        let (wa, wb, wc) = (random_word(rng), random_word(rng), random_word(rng));
        let mut it = CtxtInterner::new();
        let (Some(a), Some(b), Some(c)) = (
            wa.normalize(&mut it),
            wb.normalize(&mut it),
            wc.normalize(&mut it),
        ) else {
            return;
        };
        let left = a
            .compose_in(&mut it, b, usize::MAX, usize::MAX)
            .and_then(|ab| ab.compose_in(&mut it, c, usize::MAX, usize::MAX));
        let bc = b.compose_in(&mut it, c, usize::MAX, usize::MAX);
        let right = bc.and_then(|bc| a.compose_in(&mut it, bc, usize::MAX, usize::MAX));
        assert_eq!(left, right);
    });
}

/// Summary chains fold association-independently: for a random chain of
/// canonical transformers `t₁ ; t₂ ; … ; tₙ` (a callee's body viewed as
/// one composed transformation), the left fold and the right fold agree —
/// either both ⊥ or the identical canonical transformer. This is the
/// n-ary consequence of associativity that the summary solver's
/// bottom-up mode leans on: a caller applying an already-folded callee
/// summary must get exactly what re-folding the callee's chain itself
/// would have produced. Untruncated composition only — truncation is
/// deliberately not associative (it over-approximates at each step), which
/// is why summaries are synthesized from solved facts, not by composing
/// truncated transformers.
#[test]
fn summary_chain_folds_are_association_independent() {
    for_cases(0xFF, |rng| {
        let len = 2 + rng.below(5);
        let words: Vec<Word> = (0..len).map(|_| random_word(rng)).collect();
        let mut it = CtxtInterner::new();
        let mut chain = Vec::with_capacity(len);
        for w in &words {
            match w.normalize(&mut it) {
                Some(t) => chain.push(t),
                None => return,
            }
        }
        let left = chain[1..].iter().try_fold(chain[0], |acc, &t| {
            acc.compose_in(&mut it, t, usize::MAX, usize::MAX)
        });
        let right = chain[..len - 1]
            .iter()
            .rev()
            .try_fold(chain[len - 1], |acc, &t| {
                t.compose_in(&mut it, acc, usize::MAX, usize::MAX)
            });
        assert_eq!(left, right, "chain folds disagree (len {len})");
        // When defined, the fold also matches the denotation of the
        // concatenated words — the summary really is the chain.
        if let Some(folded) = left {
            let concat = words
                .iter()
                .skip(1)
                .fold(words[0].clone(), |acc, w| acc.concat(w));
            assert_eq!(concat.normalize(&mut it), Some(folded));
        }
    });
}

/// Composition is a pure function of its operands: recomputing yields the
/// identical canonical result. This is the precondition that makes the
/// solver's compose-memoization table (keyed on interned handles) sound.
#[test]
fn compose_is_deterministic_hence_memoizable() {
    for_cases(0x55, |rng| {
        let (wa, wb) = (random_word(rng), random_word(rng));
        let mut it = CtxtInterner::new();
        let (Some(a), Some(b)) = (wa.normalize(&mut it), wb.normalize(&mut it)) else {
            return;
        };
        for limits in [(usize::MAX, usize::MAX), (2, 2), (1, 2), (0, 1)] {
            let first = a.compose_in(&mut it, b, limits.0, limits.1);
            let second = a.compose_in(&mut it, b, limits.0, limits.1);
            assert_eq!(first, second, "limits {limits:?}");
        }
    });
}

/// Inverse-semigroup laws: f ; f⁻¹ ; f = f and (f⁻¹)⁻¹ = f.
#[test]
fn inverse_semigroup_laws() {
    for_cases(0x66, |rng| {
        let word = random_word(rng);
        let mut it = CtxtInterner::new();
        let Some(f) = word.normalize(&mut it) else {
            return;
        };
        let finv = f.inverse();
        assert_eq!(finv.inverse(), f);
        let ff = f
            .compose_in(&mut it, finv, usize::MAX, usize::MAX)
            .expect("f;f⁻¹ defined");
        let fff = ff
            .compose_in(&mut it, f, usize::MAX, usize::MAX)
            .expect("f;f⁻¹;f defined");
        assert_eq!(fff, f);
    });
}

/// Lemma 4.2: truncation is conservative — `A(X) ⊆ trunc(A)(X)`.
#[test]
fn truncation_is_conservative() {
    for_cases(0x77, |rng| {
        let word = random_word(rng);
        let (i, j) = (rng.below(3), rng.below(3));
        let inputs = random_inputs(rng);
        let mut it = CtxtInterner::new();
        let Some(t) = word.normalize(&mut it) else {
            return;
        };
        let cut = t.truncate(&it, i, j);
        let w_full = Word::from_tstr(t, &it);
        let w_cut = Word::from_tstr(cut, &it);
        for input in &inputs {
            let full = run(&w_full, input);
            let loose = run(&w_cut, input);
            assert!(
                full.subset_of(&loose),
                "truncation lost behaviour: {full:?} ⊄ {loose:?}"
            );
        }
    });
}

/// Truncated composition over-approximates untruncated composition.
#[test]
fn truncated_compose_is_conservative() {
    for_cases(0x88, |rng| {
        let (wa, wb) = (random_word(rng), random_word(rng));
        let (i, j) = (rng.below(3), rng.below(3));
        let inputs = random_inputs(rng);
        let mut it = CtxtInterner::new();
        let (Some(a), Some(b)) = (wa.normalize(&mut it), wb.normalize(&mut it)) else {
            return;
        };
        let Some(full) = a.compose_in(&mut it, b, usize::MAX, usize::MAX) else {
            return;
        };
        // Truncated composition must be defined whenever the full one is.
        let cut = a
            .compose_in(&mut it, b, i, j)
            .expect("truncation never introduces ⊥");
        let w_full = Word::from_tstr(full, &it);
        let w_cut = Word::from_tstr(cut, &it);
        for input in &inputs {
            assert!(run(&w_full, input).subset_of(&run(&w_cut, input)));
        }
    });
}

/// Subsumption is sound: if `a.subsumes(b)` then on every input the
/// behaviour of `b` is included in that of `a`.
#[test]
fn subsumption_is_sound() {
    for_cases(0x99, |rng| {
        let (wa, wb) = (random_word(rng), random_word(rng));
        let inputs = random_inputs(rng);
        let mut it = CtxtInterner::new();
        let (Some(a), Some(b)) = (wa.normalize(&mut it), wb.normalize(&mut it)) else {
            return;
        };
        if a.subsumes(&it, b) {
            let w_a = Word::from_tstr(a, &it);
            let w_b = Word::from_tstr(b, &it);
            for input in &inputs {
                assert!(
                    run(&w_b, input).subset_of(&run(&w_a, input)),
                    "a={} b={}",
                    a.display(&it),
                    b.display(&it)
                );
            }
        }
    });
}

/// Subsumption is a partial order on canonical transformer strings:
/// reflexive and antisymmetric (transitivity follows from soundness +
/// completeness on this finite alphabet, checked separately below).
#[test]
fn subsumption_is_reflexive_antisymmetric() {
    for_cases(0xAA, |rng| {
        let (wa, wb) = (random_word(rng), random_word(rng));
        let mut it = CtxtInterner::new();
        let (Some(a), Some(b)) = (wa.normalize(&mut it), wb.normalize(&mut it)) else {
            return;
        };
        assert!(a.subsumes(&it, a));
        if a.subsumes(&it, b) && b.subsumes(&it, a) {
            assert_eq!(a, b);
        }
    });
}

/// `compose` is ⊥ exactly when the prefix-compatibility invariant says
/// so — the invariant the specialized §7 join indices rely on.
#[test]
fn bottom_iff_boundary_incompatible() {
    for_cases(0xBB, |rng| {
        let (wa, wb) = (random_word(rng), random_word(rng));
        let mut it = CtxtInterner::new();
        let (Some(a), Some(b)) = (wa.normalize(&mut it), wb.normalize(&mut it)) else {
            return;
        };
        let compatible = it.is_prefix(a.entries, b.exits) || it.is_prefix(b.exits, a.entries);
        let composed = a.compose_in(&mut it, b, usize::MAX, usize::MAX);
        assert_eq!(composed.is_some(), compatible);
    });
}

/// §4.1's context-string pairs: composition (the equality join) is
/// associative as a *partial* operation — both groupings are defined on
/// exactly the same operand triples and agree when defined — and the
/// inverse-semigroup law `f ; f⁻¹ ; f = f` holds for every pair.
///
/// The middle strings are drawn from a small per-case pool so the
/// equality join actually fires on a substantial fraction of cases
/// instead of almost never.
#[test]
fn cpair_compose_is_associative() {
    for_cases(0xCC, |rng| {
        let mut it = CtxtInterner::new();
        let pool: Vec<CtxtStr> = (0..3)
            .map(|_| it.from_slice(&random_context(rng)))
            .collect();
        let pick = |rng: &mut SplitMix64| pool[rng.below(pool.len())];
        let a = CPair {
            src: pick(rng),
            dst: pick(rng),
        };
        let b = CPair {
            src: pick(rng),
            dst: pick(rng),
        };
        let c = CPair {
            src: pick(rng),
            dst: pick(rng),
        };
        let left = a.compose(b).and_then(|ab| ab.compose(c));
        let right = b.compose(c).and_then(|bc| a.compose(bc));
        assert_eq!(left, right, "a={a:?} b={b:?} c={c:?}");
        // f ; f⁻¹ ; f = f — always defined because the middles match by
        // construction.
        let fif = a
            .compose(a.inverse())
            .expect("f;f⁻¹ defined")
            .compose(a)
            .expect("f;f⁻¹;f defined");
        assert_eq!(fif, a);
    });
}

/// Subsumption is monotone under composition: if `big` subsumes `small`
/// then composing both with the same third transformer, on either side,
/// preserves the order — `big∘c` subsumes `small∘c` (and symmetrically).
///
/// Two sources of ordered pairs keep the property non-vacuous: the
/// guaranteed pair `(trunc(t), t)` (Lemma 4.2 makes the truncation a
/// subsumer of the original), and random pairs on which `subsumes`
/// happens to fire. The conclusion is checked both syntactically (the
/// composite `subsumes` call) and semantically (graph inclusion on
/// probed inputs).
#[test]
fn subsumption_is_monotone_under_composition() {
    for_cases(0xDD, |rng| {
        let (wt, wc) = (random_word(rng), random_word(rng));
        let (i, j) = (rng.below(3), rng.below(3));
        let inputs = random_inputs(rng);
        let mut it = CtxtInterner::new();
        let (Some(t), Some(c)) = (wt.normalize(&mut it), wc.normalize(&mut it)) else {
            return;
        };
        let cut = t.truncate(&it, i, j);
        let mut ordered = vec![(cut, t)];
        if let (Some(a), Some(b)) = (
            random_word(rng).normalize(&mut it),
            random_word(rng).normalize(&mut it),
        ) {
            if a.subsumes(&it, b) {
                ordered.push((a, b));
            }
        }
        for (big, small) in ordered {
            assert!(big.subsumes(&it, small), "premise: big ⊒ small");
            for (x, y) in [
                (
                    big.compose_in(&mut it, c, usize::MAX, usize::MAX),
                    small.compose_in(&mut it, c, usize::MAX, usize::MAX),
                ),
                (
                    c.compose_in(&mut it, big, usize::MAX, usize::MAX),
                    c.compose_in(&mut it, small, usize::MAX, usize::MAX),
                ),
            ] {
                // small∘c = ⊥ denotes the empty transformation, which is
                // below everything; nothing to check.
                let Some(y) = y else { continue };
                // Soundness of the premise forces the subsumer's
                // composition to be defined whenever the subsumee's is.
                let x = x.expect("big∘c must be defined when small∘c is");
                assert!(
                    x.subsumes(&it, y),
                    "monotonicity: {} must subsume {}",
                    x.display(&it),
                    y.display(&it)
                );
                let wx = Word::from_tstr(x, &it);
                let wy = Word::from_tstr(y, &it);
                for input in &inputs {
                    assert!(
                        run(&wy, input).subset_of(&run(&wx, input)),
                        "semantic monotonicity: {} ⊄ {}",
                        y.display(&it),
                        x.display(&it)
                    );
                }
            }
        }
    });
}

/// The all-wild transformer `⟨ε,*,ε⟩` is the top of the subsumption
/// order: it subsumes every canonical transformer, composes with every
/// canonical transformer on either side, and every transformer truncated
/// to `(0, 0)` collapses to it (or stays the identity).
#[test]
fn wildcard_top_dominates_every_canonical_transformer() {
    let top = TStr {
        exits: CtxtStr::EMPTY,
        wild: true,
        entries: CtxtStr::EMPTY,
    };
    for_cases(0xEE, |rng| {
        let word = random_word(rng);
        let mut it = CtxtInterner::new();
        let Some(t) = word.normalize(&mut it) else {
            return;
        };
        assert!(top.subsumes(&it, t), "top must subsume {}", t.display(&it));
        assert!(
            top.compose_in(&mut it, t, usize::MAX, usize::MAX).is_some(),
            "top∘t must be defined"
        );
        assert!(
            t.compose_in(&mut it, top, usize::MAX, usize::MAX).is_some(),
            "t∘top must be defined"
        );
        let collapsed = t.truncate(&it, 0, 0);
        assert!(
            collapsed == t || collapsed == top,
            "(0,0)-truncation must yield the identity or top, got {}",
            collapsed.display(&it)
        );
        assert!(collapsed.subsumes(&it, t), "truncation is a subsumer");
    });
}

/// Deterministic wildcard boundary cases at the edges of the
/// representation: identity vs. top, prefix-gated wildcard subsumption,
/// and the two absorption laws of composition (`∗·a = ∗`, `â·∗ = ∗`).
#[test]
fn wildcard_boundary_cases() {
    let mut it = CtxtInterner::new();
    let x0 = it.from_slice(&[elem(0)]);
    let x1 = it.from_slice(&[elem(1)]);
    let x01 = it.from_slice(&[elem(0), elem(1)]);
    let top = TStr {
        exits: CtxtStr::EMPTY,
        wild: true,
        entries: CtxtStr::EMPTY,
    };
    let id = TStr {
        exits: CtxtStr::EMPTY,
        wild: false,
        entries: CtxtStr::EMPTY,
    };
    // The order has a strict top: id is below top, never above it.
    assert!(top.subsumes(&it, id));
    assert!(!id.subsumes(&it, top));
    assert!(top.subsumes(&it, top) && id.subsumes(&it, id));
    // A wildcard transformer subsumes exactly the extensions of its
    // boundary strings: prefix match required on both sides.
    let w = TStr {
        exits: x0,
        wild: true,
        entries: CtxtStr::EMPTY,
    };
    let deep = TStr {
        exits: x01,
        wild: false,
        entries: x1,
    };
    assert!(w.subsumes(&it, deep), "x0 is a prefix of x0·x1");
    let other = TStr {
        exits: x1,
        wild: false,
        entries: CtxtStr::EMPTY,
    };
    assert!(!w.subsumes(&it, other), "x1 does not extend x0");
    // A wildcard-free transformer only subsumes same-suffix extensions.
    let diag = TStr {
        exits: x0,
        wild: false,
        entries: x0,
    };
    let skew = TStr {
        exits: x0,
        wild: false,
        entries: x1,
    };
    assert!(id.subsumes(&it, diag), "equal exit/entry suffixes");
    assert!(!id.subsumes(&it, skew), "mismatched suffixes");
    assert!(
        !id.subsumes(&it, w),
        "wildcard-free never subsumes a wildcard"
    );
    // Absorption into a leading wildcard: ⟨ε,*,ε⟩ ∘ ⟨x0,–,x1⟩ swallows
    // the popped exit and keeps the entries.
    let a = TStr {
        exits: x0,
        wild: false,
        entries: x1,
    };
    let absorbed = top.compose_in(&mut it, a, usize::MAX, usize::MAX);
    assert_eq!(
        absorbed,
        Some(TStr {
            exits: CtxtStr::EMPTY,
            wild: true,
            entries: x1,
        })
    );
    // Absorption of leftover entries into a trailing wildcard:
    // ⟨ε,–,x0⟩ ∘ ⟨ε,*,ε⟩ forgets the pushed entry entirely.
    let pushes = TStr {
        exits: CtxtStr::EMPTY,
        wild: false,
        entries: x0,
    };
    assert_eq!(
        pushes.compose_in(&mut it, top, usize::MAX, usize::MAX),
        Some(top)
    );
    // Truncation boundaries: (0,0) fixes the identity and top, and
    // collapses anything longer to top.
    assert_eq!(id.truncate(&it, 0, 0), id);
    assert_eq!(top.truncate(&it, 0, 0), top);
    assert_eq!(deep.truncate(&it, 0, 0), top);
}

/// Exhaustive check on a tiny domain that subsumption is also *complete*:
/// whenever the graph of `b` is included in the graph of `a` on all probed
/// inputs of length ≤ 4 over a 2-letter alphabet, `subsumes` says so.
#[test]
fn subsumption_complete_on_tiny_domain() {
    let mut it = CtxtInterner::new();
    let a0 = elem(0);
    let a1 = elem(1);
    let strings: Vec<Vec<CtxtElem>> = vec![
        vec![],
        vec![a0],
        vec![a1],
        vec![a0, a0],
        vec![a0, a1],
        vec![a1, a0],
    ];
    let mut transformers = Vec::new();
    for exits in &strings {
        for entries in &strings {
            for wild in [false, true] {
                let e = it.from_slice(exits);
                let n = it.from_slice(entries);
                transformers.push(TStr {
                    exits: e,
                    wild,
                    entries: n,
                });
            }
        }
    }
    // Probe inputs: all Exact contexts of length ≤ 4 over {a0, a1}.
    let mut probes = vec![Sem::Exact(vec![])];
    let mut frontier = vec![vec![]];
    for _ in 0..4 {
        let mut next = Vec::new();
        for p in &frontier {
            for &e in &[a0, a1] {
                let mut q = p.clone();
                q.push(e);
                probes.push(Sem::Exact(q.clone()));
                next.push(q);
            }
        }
        frontier = next;
    }
    for &a in &transformers {
        let wa = Word::from_tstr(a, &it);
        for &b in &transformers {
            let wb = Word::from_tstr(b, &it);
            let semantically = probes.iter().all(|p| run(&wb, p).subset_of(&run(&wa, p)));
            assert_eq!(
                a.subsumes(&it, b),
                semantically,
                "a={} b={}",
                a.display(&it),
                b.display(&it)
            );
        }
    }
}

/// `Abstraction::digest` is canonical: over every transformer string and
/// context-string pair built from strings of length ≤ 2 over three
/// elements of two kinds, two values digest equal exactly when they
/// render equal — whichever of two interners, filled in opposite
/// orders, they were interned in.
#[test]
fn digest_is_equal_exactly_when_rendering_is() {
    let program = ctxform_ir::Program {
        inv_names: vec!["Main.main/0".into(), "Main.main/1".into()],
        heap_names: vec!["Main.main/new A".into()],
        ..ctxform_ir::Program::default()
    };
    let elems = [elem(0), elem(1), CtxtElem::of_heap(ctxform_ir::Heap(0))];
    let mut strings: Vec<Vec<CtxtElem>> = vec![vec![]];
    for &a in &elems {
        strings.push(vec![a]);
        for &b in &elems {
            strings.push(vec![a, b]);
        }
    }
    let sens: ctxform_algebra::Sensitivity = "2-call".parse().unwrap();
    // Both interners hold the same strings under different handles.
    let mut fwd = CtxtInterner::new();
    let fwd_handles: Vec<CtxtStr> = strings.iter().map(|s| fwd.from_slice(s)).collect();
    let mut rev = CtxtInterner::new();
    let mut rev_handles: Vec<CtxtStr> = strings.iter().rev().map(|s| rev.from_slice(s)).collect();
    rev_handles.reverse();
    assert_ne!(fwd_handles, rev_handles);

    let describe = |e: CtxtElem| e.describe(&program);
    let mut rendered: Vec<Vec<(String, u64)>> = Vec::new();
    for (it, handles) in [(fwd, &fwd_handles), (rev, &rev_handles)] {
        let ts = TStrings {
            sensitivity: sens,
            interner: it.clone(),
        };
        let cs = CStrings {
            sensitivity: sens,
            interner: it,
        };
        let mut t_digest = CtxtDigest::new(&ts.interner, &program);
        let mut c_digest = CtxtDigest::new(&cs.interner, &program);
        let mut values = Vec::new();
        for &a in handles {
            for &b in handles {
                for wild in [false, true] {
                    let t = TStr {
                        exits: a,
                        wild,
                        entries: b,
                    };
                    values.push((
                        format!("t {}", t.display_with(&ts.interner, describe)),
                        ts.digest(t, &mut t_digest),
                    ));
                }
                let c = CPair { src: a, dst: b };
                values.push((
                    format!("c {}", c.display_with(&cs.interner, describe)),
                    cs.digest(c, &mut c_digest),
                ));
            }
        }
        rendered.push(values);
    }
    for (ra, da) in &rendered[0] {
        for (rb, db) in &rendered[1] {
            assert_eq!(ra == rb, da == db, "{ra} ({da:016x}) vs {rb} ({db:016x})");
        }
    }
}
