//! Differential testing of the static analyzer against the evaluator.
//!
//! The analyzer promises that its verdicts match what evaluation would
//! do: a blueprint it calls error-free must evaluate, and the error
//! classes it reports must correspond to the failures evaluation
//! produces. These properties are checked over randomized m-graphs
//! drawn from a small world of object files.
//!
//! The interposition differential holds the two engines to one
//! `override` semantics: every graph that evaluates reports, through
//! the merge engine, exactly the replaced names the analyzer's symbolic
//! walk reports — on a cold and a warm eval cache.
//!
//! The last part checks the *cost* claim: analysis never materializes
//! a view (observed through the per-thread materialize counter) and is
//! measurably cheaper than evaluation on byte-heavy inputs.

use std::collections::{BTreeSet, HashMap};
use std::sync::{Arc, Mutex};

use proptest::prelude::*;

use omos::analysis::{
    analyze_blueprint, analyze_blueprint_report, Diagnostic, LintContext, LintResolved, Severity,
};
use omos::blueprint::eval::{CachedEval, EvalContext, ResolvedNode};
use omos::blueprint::{eval_blueprint, Blueprint, EvalError};
use omos::core::Omos;
use omos::isa::assemble;
use omos::module::Module;
use omos::obj::view::materialize_count;
use omos::obj::{ContentHash, ObjError, ObjectFile, Section, SectionKind, Symbol};
use omos::os::ipc::Transport;
use omos::os::CostModel;

/// One world serving both the evaluator and the analyzer. The eval
/// side is `&self`, so its mutable state sits behind mutexes.
#[derive(Default)]
struct World {
    objects: HashMap<String, Arc<ObjectFile>>,
    metas: HashMap<String, Blueprint>,
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

    fn add_meta(&mut self, path: &str, src: &str) {
        self.metas
            .insert(path.to_string(), Blueprint::parse(src).expect("parses"));
    }
}

impl EvalContext for World {
    fn resolve(&self, path: &str) -> Result<ResolvedNode, EvalError> {
        match (self.objects.get(path), self.metas.get(path)) {
            (Some(o), _) => Ok(ResolvedNode::Object(Arc::clone(o))),
            (None, Some(m)) => Ok(ResolvedNode::Meta(m.clone())),
            (None, None) => Err(EvalError::Resolve(path.to_string())),
        }
    }

    fn cache_get(&self, key: ContentHash) -> Option<CachedEval> {
        self.cache.lock().unwrap().get(&key).cloned()
    }

    fn cache_store(
        &self,
        key: ContentHash,
        module: &Module,
        deps: &Arc<BTreeSet<String>>,
        interpositions: &[String],
    ) {
        self.cache.lock().unwrap().insert(
            key,
            CachedEval {
                module: module.clone(),
                deps: Arc::clone(deps),
                interpositions: interpositions.to_vec(),
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
        match (self.objects.get(path), self.metas.get(path)) {
            (Some(o), _) => LintResolved::Object(Arc::clone(o)),
            (None, Some(m)) => LintResolved::Meta(m.clone()),
            (None, None) => LintResolved::Missing,
        }
    }
}

/// `/o/a` defines `_a` (and calls `_b`), `/o/b` defines `_b`, `/o/dup`
/// *also* defines `_a` — merging it with `/o/a` is the duplicate-def
/// case. `/o/loc` defines `_c` and a *local* `_b`, which neither
/// collides with nor is replaced by `/o/b`'s global. `/lib/ov` is a
/// shared library whose own graph overrides `/o/b`'s `_b` with
/// `/o/b2`'s. `/missing` resolves nowhere.
fn world() -> World {
    let mut w = World::default();
    w.add_asm("/o/a", ".text\n.global _a\n_a: call _b\n ret\n");
    w.add_asm("/o/b", ".text\n.global _b\n_b: ret\n");
    w.add_asm("/o/dup", ".text\n.global _a\n_a: li r1, 1\n ret\n");
    w.add_asm("/o/loc", ".text\n.global _c\n_c: call _b\n ret\n_b: ret\n");
    w.add_asm("/o/b2", ".text\n.global _b\n_b: li r1, 2\n ret\n");
    w.add_meta(
        "/lib/ov",
        "(constraint-list \"T\" 0x1000000)\n(override /o/b /o/b2)",
    );
    w
}

const LEAVES: [&str; 5] = ["/o/a", "/o/b", "/o/dup", "/o/loc", "/missing"];
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

/// Operands of the interposition graphs: every leaf, the library, and
/// `/o/b2` (a second `_b`).
const OPERANDS: [&str; 7] = [
    "/o/a", "/o/b", "/o/dup", "/o/loc", "/o/b2", "/lib/ov", "/missing",
];

/// A random m-graph of `merge` and `override` forms, at most three
/// levels deep, over [`OPERANDS`].
fn arb_override_graph() -> impl Strategy<Value = Blueprint> {
    fn node(rng: &mut proptest::test_runner::TestRng, depth: u32) -> String {
        match rng.below(if depth == 0 { 1 } else { 3 }) {
            0 => OPERANDS[rng.below(OPERANDS.len() as u64) as usize].to_string(),
            1 => {
                let items: Vec<String> = (0..1 + rng.below(3))
                    .map(|_| node(rng, depth - 1))
                    .collect();
                format!("(merge {})", items.join(" "))
            }
            _ => format!(
                "(override {} {})",
                node(rng, depth - 1),
                node(rng, depth - 1)
            ),
        }
    }
    proptest::strategy::from_fn(|rng| {
        let src = node(rng, 3);
        Blueprint::parse(&src).expect("generated blueprint parses")
    })
}

/// The analyzer's interposition chain in the manifest's canonical form.
fn analyzer_interpositions(bp: &Blueprint, w: &mut World) -> Vec<String> {
    let mut names = analyze_blueprint_report(bp, w).interpositions;
    names.sort();
    names.dedup();
    names
}

/// Evaluates and returns the interpositions, or `None` when the graph
/// does not evaluate.
fn eval_interpositions(bp: &Blueprint, w: &World) -> Option<Vec<String>> {
    eval_blueprint(bp, w).ok().map(|o| o.interpositions)
}

proptest! {
    /// For every graph that evaluates, the merge engine's interpositions
    /// equal the analyzer's: with a cold eval cache and again with the
    /// rows the first evaluation left.
    #[test]
    fn eval_interpositions_equal_the_analyzers(bp in arb_override_graph()) {
        let mut w = world();
        let expected = analyzer_interpositions(&bp, &mut w);
        let w = world();
        if let Some(cold) = eval_interpositions(&bp, &w) {
            prop_assert_eq!(&cold, &expected, "cold cache");
            let warm = eval_interpositions(&bp, &w).expect("evaluated cold");
            prop_assert_eq!(&warm, &expected, "warm cache");
        }
    }
}

/// The generator reaches the interesting cases: a library subtree's
/// override, a client override, and an override of a global by a name
/// an operand also holds as a local.
#[test]
fn interposition_corpus_covers_libraries_and_locals() {
    let cases = [
        ("(merge /o/b (override /o/a /o/dup))", vec!["_a"]),
        ("(merge /o/a /lib/ov)", vec!["_b"]),
        ("(override /o/loc /o/b)", vec![]),
        ("(override (merge /o/loc /o/b) /o/b2)", vec!["_b"]),
    ];
    for (src, names) in cases {
        let bp = Blueprint::parse(src).unwrap();
        let mut w = world();
        assert_eq!(analyzer_interpositions(&bp, &mut w), names, "{src}");
        let w = world();
        assert_eq!(
            eval_interpositions(&bp, &w).as_deref(),
            Some(&names.iter().map(|n| n.to_string()).collect::<Vec<_>>()[..]),
            "{src}"
        );
    }
}

/// The server's manifests for the local-shadowing repro: `a.o` has a
/// global `_start` and a *local* `helper`, `b.o` a global `helper`.
/// `explain` (derived without linking) equals the manifest `instantiate`
/// seals, with no interposition of `helper`; and preflight lint, which
/// runs the analyzer, accepts the merge the evaluator accepts.
#[test]
fn local_shadow_repro_explains_like_it_builds() {
    let server = Omos::new(CostModel::hpux(), Transport::SysVMsg);
    server.namespace.bind_object(
        "/obj/a.o",
        assemble(
            "a.o",
            ".text\n.global _start\n_start: call helper\n sys 0\nhelper: ret\n",
        )
        .unwrap(),
    );
    server.namespace.bind_object(
        "/obj/b.o",
        assemble("b.o", ".text\n.global helper\nhelper: ret\n").unwrap(),
    );
    server.set_preflight(true);
    for (path, src) in [
        ("/bin/ov", "(override /obj/a.o /obj/b.o)"),
        ("/bin/merge", "(merge /obj/a.o /obj/b.o)"),
    ] {
        server.namespace.bind_blueprint(path, src).unwrap();
        assert!(server.lint(path).unwrap().is_empty(), "{src}");
        let explained = server.explain(path).unwrap();
        assert!(explained.interpositions.is_empty(), "{src}: {explained:?}");
        let reply = server.instantiate(path).unwrap();
        assert_eq!(reply.manifest, explained.hash(), "{src}");
        assert_eq!(
            server.explain(path).unwrap(),
            explained,
            "{src} after build"
        );
    }
}

/// The strategies above must actually exercise all three implications.
#[test]
fn differential_corpus_covers_every_class() {
    let mut w = world();
    let clean = Blueprint::parse("(merge /o/a /o/b)").unwrap();
    assert!(error_codes(&analyze_blueprint(&clean, &mut w)).is_empty());
    let shadow = Blueprint::parse("(merge /o/loc /o/b)").unwrap();
    assert!(error_codes(&analyze_blueprint(&shadow, &mut w)).is_empty());
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
