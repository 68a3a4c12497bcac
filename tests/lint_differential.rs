//! Differential testing of the static analyzer against the evaluator.
//!
//! The analyzer promises that its verdicts match what evaluation would
//! do: a blueprint it calls error-free must evaluate, and the error
//! classes it reports must correspond to the failures evaluation
//! produces. These properties are checked over randomized m-graphs
//! drawn from a small world of object files.
//!
//! The second half checks the *cost* claim: analysis never materializes
//! a view (observed through the per-thread materialize counter) and is
//! measurably cheaper than evaluation on byte-heavy inputs.

use std::collections::{BTreeSet, HashMap};
use std::sync::{Arc, Mutex};

use proptest::prelude::*;

use omos::analysis::{analyze_blueprint, Diagnostic, LintContext, LintResolved, Severity};
use omos::blueprint::eval::{CachedEval, EvalContext, ResolvedNode};
use omos::blueprint::{eval_blueprint, Blueprint, EvalError};
use omos::isa::assemble;
use omos::module::Module;
use omos::obj::view::materialize_count;
use omos::obj::{ContentHash, ObjError, ObjectFile, Section, SectionKind, Symbol};

/// One world serving both the evaluator and the analyzer. The eval
/// side is `&self` (shared with parallel executor workers), so its
/// mutable state sits behind mutexes.
#[derive(Default)]
struct World {
    objects: HashMap<String, Arc<ObjectFile>>,
    cache: Mutex<HashMap<ContentHash, CachedEval>>,
    dynamic: Mutex<Vec<ContentHash>>,
}

impl World {
    fn add_asm(&mut self, path: &str, src: &str) {
        self.objects.insert(
            path.to_string(),
            Arc::new(assemble(path, src).expect("assembles")),
        );
    }
}

impl EvalContext for World {
    fn resolve(&self, path: &str) -> Result<ResolvedNode, EvalError> {
        match self.objects.get(path) {
            Some(o) => Ok(ResolvedNode::Object(Arc::clone(o))),
            None => Err(EvalError::Resolve(path.to_string())),
        }
    }

    fn cache_get(&self, key: ContentHash) -> Option<CachedEval> {
        self.cache.lock().unwrap().get(&key).cloned()
    }

    fn cache_put(&self, key: ContentHash, module: &Module, deps: &Arc<BTreeSet<String>>) {
        self.cache.lock().unwrap().insert(
            key,
            CachedEval {
                module: module.clone(),
                deps: Arc::clone(deps),
            },
        );
    }

    fn register_dynamic_impl(&self, key: ContentHash, _module: &Module) -> Result<u32, EvalError> {
        let mut dynamic = self.dynamic.lock().unwrap();
        if let Some(i) = dynamic.iter().position(|k| *k == key) {
            return Ok(i as u32);
        }
        dynamic.push(key);
        Ok(dynamic.len() as u32 - 1)
    }
}

impl LintContext for World {
    fn resolve(&mut self, path: &str) -> LintResolved {
        match self.objects.get(path) {
            Some(o) => LintResolved::Object(Arc::clone(o)),
            None => LintResolved::Missing,
        }
    }
}

/// `/o/a` defines `_a` (and calls `_b`), `/o/b` defines `_b`, `/o/dup`
/// *also* defines `_a` — merging it with `/o/a` is the duplicate-def
/// case. `/missing` resolves nowhere.
fn world() -> World {
    let mut w = World::default();
    w.add_asm("/o/a", ".text\n.global _a\n_a: call _b\n ret\n");
    w.add_asm("/o/b", ".text\n.global _b\n_b: ret\n");
    w.add_asm("/o/dup", ".text\n.global _a\n_a: li r1, 1\n ret\n");
    w
}

const LEAVES: [&str; 4] = ["/o/a", "/o/b", "/o/dup", "/missing"];
const PATTERNS: [&str; 3] = ["^_a$", "^_b$", "^_zz$"];

/// A random blueprint over the fixed world: a merge of 1–4 leaves,
/// optionally wrapped in one pattern operation.
fn arb_blueprint() -> impl Strategy<Value = Blueprint> {
    (
        proptest::collection::vec(0usize..LEAVES.len(), 1..5),
        0usize..4, // 0: bare, 1: rename, 2: hide, 3: restrict
        0usize..PATTERNS.len(),
    )
        .prop_map(|(leaves, wrap, pat)| {
            let inner = format!(
                "(merge {})",
                leaves
                    .iter()
                    .map(|&i| LEAVES[i])
                    .collect::<Vec<_>>()
                    .join(" ")
            );
            let src = match wrap {
                1 => format!("(rename \"{}\" \"_r\" {inner})", PATTERNS[pat]),
                2 => format!("(hide \"{}\" {inner})", PATTERNS[pat]),
                3 => format!("(restrict \"{}\" {inner})", PATTERNS[pat]),
                _ => inner,
            };
            Blueprint::parse(&src).expect("generated blueprint parses")
        })
}

fn error_codes(diags: &[Diagnostic]) -> Vec<&'static str> {
    let mut codes: Vec<&'static str> = diags
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .map(|d| d.code)
        .collect();
    codes.sort_unstable();
    codes.dedup();
    codes
}

proptest! {
    /// A blueprint the analyzer calls error-free must evaluate.
    /// (Warnings — dead patterns and the like — never block, and
    /// unresolved *references* are a link-time concern, not an
    /// evaluation failure, so OM002 is excluded alongside warnings.)
    #[test]
    fn analyzer_clean_implies_eval_succeeds(bp in arb_blueprint()) {
        let mut w = world();
        let diags = analyze_blueprint(&bp, &mut w);
        let blocking: Vec<&Diagnostic> = diags
            .iter()
            .filter(|d| d.severity == Severity::Error && d.code != "OM002")
            .collect();
        if blocking.is_empty() {
            let out = eval_blueprint(&bp, &w);
            prop_assert!(
                out.is_ok(),
                "analyzer found no errors but eval failed: {:?}",
                out.err()
            );
        }
    }

    /// When the analyzer's only error class is duplicate-definition,
    /// evaluation fails with exactly that object error.
    #[test]
    fn duplicate_def_verdict_matches_eval(bp in arb_blueprint()) {
        let mut w = world();
        let diags = analyze_blueprint(&bp, &mut w);
        if error_codes(&diags) == ["OM003"] {
            let out = eval_blueprint(&bp, &w);
            prop_assert!(
                matches!(
                    out,
                    Err(EvalError::Obj(ObjError::DuplicateSymbol(_)))
                ),
                "analyzer says duplicate definition, eval says {out:?}"
            );
        }
    }

    /// When the analyzer's only error class is an unresolved namespace
    /// path, evaluation fails with a resolve error.
    #[test]
    fn unresolved_path_verdict_matches_eval(bp in arb_blueprint()) {
        let mut w = world();
        let diags = analyze_blueprint(&bp, &mut w);
        if error_codes(&diags) == ["OM001"] {
            let out = eval_blueprint(&bp, &w);
            prop_assert!(
                matches!(out, Err(EvalError::Resolve(_))),
                "analyzer says unresolved path, eval says {out:?}"
            );
        }
    }
}

/// A random dynamic-load blueprint: a merge of 1–4 leaves where any
/// subset is wrapped in `(specialize "lib-dynamic" ...)`. Returns the
/// blueprint plus the indices of the dynamically specialized leaves.
fn arb_dynamic_blueprint() -> impl Strategy<Value = (Blueprint, Vec<usize>)> {
    proptest::collection::vec((0usize..LEAVES.len(), any::<bool>()), 1..5).prop_map(|items| {
        let dynamic: Vec<usize> = items
            .iter()
            .filter(|(_, dynamic)| *dynamic)
            .map(|(i, _)| *i)
            .collect();
        let src = format!(
            "(merge {})",
            items
                .iter()
                .map(|(i, dynamic)| if *dynamic {
                    format!("(specialize \"lib-dynamic\" {})", LEAVES[*i])
                } else {
                    LEAVES[*i].to_string()
                })
                .collect::<Vec<_>>()
                .join(" ")
        );
        (
            Blueprint::parse(&src).expect("generated blueprint parses"),
            dynamic,
        )
    })
}

/// The dynamic-load path: the analyzer's verdict on a blueprint with
/// `lib-dynamic` specializations must match what evaluation does,
/// *including* the registration outcome — a clean blueprint evaluates
/// and registers exactly one dynamic implementation per distinct
/// specialized operand (re-specializing the same leaf coalesces), and
/// the analyzer's error classes still correspond to the evaluator's
/// failures.
fn check_dynamic_verdicts(
    bp: &Blueprint,
    dynamic: &[usize],
) -> Result<(), proptest::test_runner::TestCaseError> {
    let mut w = world();
    let diags = analyze_blueprint(bp, &mut w);
    let blocking: Vec<&Diagnostic> = diags
        .iter()
        .filter(|d| d.severity == Severity::Error && d.code != "OM002")
        .collect();
    let out = eval_blueprint(bp, &w);
    if blocking.is_empty() {
        prop_assert!(
            out.is_ok(),
            "analyzer found no errors but dynamic eval failed: {:?}",
            out.err()
        );
        let expected: BTreeSet<&str> = dynamic.iter().map(|&i| LEAVES[i]).collect();
        prop_assert_eq!(
            w.dynamic.lock().unwrap().len(),
            expected.len(),
            "one registration per distinct dynamic operand"
        );
        return Ok(());
    }
    match error_codes(&diags).as_slice() {
        ["OM001"] => prop_assert!(
            matches!(out, Err(EvalError::Resolve(_))),
            "analyzer says unresolved path, eval says {out:?}"
        ),
        ["OM003"] => prop_assert!(
            matches!(out, Err(EvalError::Obj(ObjError::DuplicateSymbol(_)))),
            "analyzer says duplicate definition, eval says {out:?}"
        ),
        _ => {}
    }
    Ok(())
}

proptest! {
    /// See [`check_dynamic_verdicts`].
    #[test]
    fn dynamic_load_verdicts_match_registration_outcomes(case in arb_dynamic_blueprint()) {
        let (bp, dynamic) = case;
        check_dynamic_verdicts(&bp, &dynamic)?;
    }
}

/// The strategies above must actually exercise all three implications.
#[test]
fn differential_corpus_covers_every_class() {
    let mut w = world();
    let clean = Blueprint::parse("(merge /o/a /o/b)").unwrap();
    assert!(error_codes(&analyze_blueprint(&clean, &mut w)).is_empty());
    let dup = Blueprint::parse("(merge /o/a /o/dup /o/b)").unwrap();
    assert_eq!(error_codes(&analyze_blueprint(&dup, &mut w)), ["OM003"]);
    let missing = Blueprint::parse("(merge /o/a /missing)").unwrap();
    assert_eq!(error_codes(&analyze_blueprint(&missing, &mut w)), ["OM001"]);
}

/// A byte-heavy world: the same shape as [`world`] but with megabytes of
/// section data, where materializing is expensive and symbol analysis is
/// not.
fn heavy_world() -> (World, Blueprint) {
    let mut w = World::default();
    for (path, sym) in [("/big/a", "_a"), ("/big/b", "_b"), ("/big/c", "_c")] {
        let mut o = ObjectFile::new(path);
        let t = o.add_section(Section::with_bytes(
            ".text",
            SectionKind::Text,
            vec![0u8; 4 << 20],
            8,
        ));
        o.define(Symbol::defined(sym, t, 0)).unwrap();
        w.objects.insert(path.to_string(), Arc::new(o));
    }
    let bp = Blueprint::parse(r#"(hide "^_c$" (merge /big/a /big/b /big/c))"#).unwrap();
    (w, bp)
}

#[test]
fn lint_never_materializes_and_eval_does() {
    let (mut w, bp) = heavy_world();
    let before = materialize_count();
    let diags = analyze_blueprint(&bp, &mut w);
    assert!(diags.is_empty(), "unexpected: {diags:?}");
    assert_eq!(
        materialize_count(),
        before,
        "analysis must not materialize any view"
    );
    eval_blueprint(&bp, &w).unwrap();
    assert!(
        materialize_count() > before,
        "evaluation of the same blueprint does materialize"
    );
}

#[test]
fn lint_is_cheaper_than_eval() {
    let (mut w, bp) = heavy_world();
    let t0 = std::time::Instant::now();
    let diags = analyze_blueprint(&bp, &mut w);
    let lint_time = t0.elapsed();
    assert!(diags.is_empty());
    let t1 = std::time::Instant::now();
    eval_blueprint(&bp, &w).unwrap();
    let eval_time = t1.elapsed();
    assert!(
        lint_time < eval_time,
        "lint ({lint_time:?}) should be cheaper than eval ({eval_time:?}) on 12 MiB of sections"
    );
}
