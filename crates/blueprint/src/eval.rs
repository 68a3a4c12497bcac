//! M-graph evaluation.
//!
//! Executing an m-graph "may result in OMOS compiling source code,
//! performing symbol translations, and combining and relocating
//! fragments". The evaluator is deliberately *server-agnostic*: namespace
//! resolution, sub-result caching, and dynamic-library registration come
//! through the [`EvalContext`] trait, which the OMOS server implements.
//!
//! The output separates the *client module* (everything merged inline)
//! from the *shared libraries* it references ([`LibraryUse`]): a leaf that
//! resolves to a library-class meta-object (one carrying a
//! `constraint-list`, like Figure 1's libc) or an explicit
//! `lib-constrained` specialization is not merged into the client — the
//! server places it with the constraint system and binds the client to
//! its exports, which is precisely the self-contained scheme. A
//! `lib-dynamic` specialization instead *is* merged, as generated stubs.
//!
//! While it walks, the evaluator records the work-unit DAG of what it
//! did ([`EvalOutput::units`]): one unit per leaf, cache hit, view
//! operation, `source` compile, dynamic-stub generation and binary
//! merge/override step. The server lays the units out on simulated
//! worker lanes to price a request's critical path; evaluation itself
//! runs inline, once.

use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::sync::Arc;

use omos_constraint::RegionClass;
use omos_link::make_partial_stubs;
use omos_module::{MergeBuilder, Module};
use omos_obj::{ContentHash, ObjError};

use crate::ast::{Blueprint, BlueprintError, MNode, SpecKind};
use crate::sexpr::Span;
use crate::source::{compile_source, SourceError};

/// Evaluation errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EvalError {
    /// Blueprint shape problem discovered during evaluation.
    Blueprint(BlueprintError),
    /// Module/object operation failure (duplicate symbols, bad regex...).
    Obj(ObjError),
    /// `source` operator failure.
    Source(SourceError),
    /// A namespace path did not resolve.
    Resolve(String),
    /// Meta-objects reference each other in a cycle.
    Cycle(String),
    /// An operation appeared somewhere it cannot (e.g. constrained
    /// library under `hide`).
    Misplaced(String),
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::Blueprint(e) => write!(f, "{e}"),
            EvalError::Obj(e) => write!(f, "{e}"),
            EvalError::Source(e) => write!(f, "{e}"),
            EvalError::Resolve(p) => write!(f, "cannot resolve `{p}`"),
            EvalError::Cycle(p) => write!(f, "meta-object cycle through `{p}`"),
            EvalError::Misplaced(m) => write!(f, "misplaced operation: {m}"),
        }
    }
}

impl std::error::Error for EvalError {}

impl From<ObjError> for EvalError {
    fn from(e: ObjError) -> EvalError {
        EvalError::Obj(e)
    }
}

impl From<BlueprintError> for EvalError {
    fn from(e: BlueprintError) -> EvalError {
        EvalError::Blueprint(e)
    }
}

impl From<SourceError> for EvalError {
    fn from(e: SourceError) -> EvalError {
        EvalError::Source(e)
    }
}

/// What a namespace path resolves to.
#[derive(Debug, Clone)]
pub enum ResolvedNode {
    /// A relocatable object file (a leaf fragment).
    Object(std::sync::Arc<omos_obj::ObjectFile>),
    /// Another meta-object (its blueprint).
    Meta(Blueprint),
}

/// A cached evaluation result: the module plus the namespace paths its
/// derivation resolved. The evaluator folds the dependency record into
/// the enclosing scope on a hit so invalidation stays precise.
#[derive(Debug, Clone)]
pub struct CachedEval {
    /// The memoized module.
    pub module: Module,
    /// Namespace paths the cached derivation resolved.
    pub deps: Arc<BTreeSet<String>>,
    /// Names the `override`s the module was built from replaced, sorted
    /// and deduplicated. Shared libraries under the subtree are not
    /// included: a hit re-walks them and they contribute their own.
    pub interpositions: Vec<String>,
}

/// Server services the evaluator needs.
///
/// Every method takes `&self`: the server's caches are internally
/// synchronized (sharded locks, atomics), so concurrent requests share
/// them through their own contexts.
pub trait EvalContext {
    /// Resolves a namespace path.
    fn resolve(&self, path: &str) -> Result<ResolvedNode, EvalError>;

    /// Looks up a cached evaluation result by structural key.
    fn cache_get(&self, key: ContentHash) -> Option<CachedEval>;

    /// Stores an evaluation result together with the namespace paths
    /// its derivation resolved (its invalidation record). Does nothing
    /// unless overridden; a context whose [`EvalContext::cache_get`]
    /// serves rows implements [`EvalContext::cache_store`] instead.
    fn cache_put(&self, _key: ContentHash, _module: &Module, _deps: &Arc<BTreeSet<String>>) {}

    /// Stores an evaluation result as a cache row: the module, its
    /// invalidation record and the row's
    /// [`CachedEval::interpositions`]. The evaluator calls this one.
    /// The default forwards to [`EvalContext::cache_put`], dropping the
    /// names, which is right only for a context that serves no hits.
    fn cache_store(
        &self,
        key: ContentHash,
        module: &Module,
        deps: &Arc<BTreeSet<String>>,
        interpositions: &[String],
    ) {
        let _ = interpositions;
        self.cache_put(key, module, deps);
    }

    /// Registers a `lib-dynamic` implementation module, returning the
    /// library id the generated stubs will pass to `OMOS_LOOKUP`.
    fn register_dynamic_impl(&self, key: ContentHash, module: &Module) -> Result<u32, EvalError>;
}

/// Work counters for one evaluation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EvalStats {
    /// m-graph nodes visited.
    pub nodes: u64,
    /// Sub-results served from the cache.
    pub cache_hits: u64,
    /// Merge/override operations actually performed.
    pub merges: u64,
    /// `source` compilations performed.
    pub source_compiles: u64,
    /// Leaf objects loaded through the resolver.
    pub leaves: u64,
}

/// A shared library the evaluated client references.
#[derive(Debug, Clone)]
pub struct LibraryUse {
    /// Namespace name (or a synthetic name for inline specializations).
    pub name: String,
    /// Structural identity of the library's graph.
    pub key: ContentHash,
    /// The library's (un-placed) module.
    pub module: Module,
    /// Placement preferences, strongest first.
    pub constraints: Vec<(RegionClass, u64)>,
}

/// One unit of the work-unit DAG an evaluation records: what it
/// consumed and what it cost. Units are listed in completion order, so
/// a unit's dependencies always have smaller ordinals.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnitReport {
    /// Ordinals of the units this one consumed.
    pub deps: Vec<usize>,
    /// Merge/override steps this unit performs (0 or 1).
    pub merges: u64,
    /// `source` compilations this unit performs (0 or 1).
    pub source_compiles: u64,
}

/// The result of evaluating a blueprint.
#[derive(Debug)]
pub struct EvalOutput {
    /// The client module: every inline-merged fragment (including
    /// generated dynamic stubs).
    pub module: Module,
    /// Self-contained shared libraries referenced, to be placed and bound
    /// by the server.
    pub libraries: Vec<LibraryUse>,
    /// Blueprint-level default constraints (for the client itself).
    pub constraints: Vec<(RegionClass, u64)>,
    /// Work counters.
    pub stats: EvalStats,
    /// Every namespace path the evaluation resolved (the request's
    /// invalidation record).
    pub deps: BTreeSet<String>,
    /// Symbols whose definitions an `override` replaced, anywhere in the
    /// graph (shared-library subtrees included), sorted and
    /// deduplicated: the resolution manifest's interpositions, as the
    /// merge engine decided them.
    pub interpositions: Vec<String>,
    /// The work-unit DAG of this evaluation. An n-operand merge is a
    /// chain of n−1 binary steps (merge is not associative, so only
    /// sibling subtrees are independent), a subtree repeated within the
    /// request is its first unit again, and a cache hit is a zero-work
    /// unit.
    pub units: Vec<UnitReport>,
}

struct Evaluator<'a> {
    ctx: &'a dyn EvalContext,
    stats: EvalStats,
    libraries: Vec<LibraryUse>,
    visiting: Vec<String>,
    /// Dependency scopes mirroring the recursion: `scopes[0]` is the
    /// whole evaluation's record; a deeper entry collects the paths one
    /// cache-missing subtree resolves, becoming that subtree's cache
    /// entry record when it completes (and folding into its parent).
    scopes: Vec<BTreeSet<String>>,
    /// Names replaced by the overrides of the modules under evaluation,
    /// as a stack: a cache-missing node's row names are what its
    /// evaluation pushed.
    interposed: Vec<String>,
    /// Names replaced inside shared-library subtrees, which belong to no
    /// enclosing client module.
    lib_interposed: Vec<String>,
    units: Vec<UnitReport>,
    /// The first unit each node key produced in this evaluation.
    unit_of: HashMap<ContentHash, usize>,
    /// The last dynamic-stub unit: registrations chain in discovery
    /// order, since they assign library ids.
    last_dyn: Option<usize>,
}

/// Evaluates a blueprint to a client module plus its library uses.
pub fn eval_blueprint(bp: &Blueprint, ctx: &dyn EvalContext) -> Result<EvalOutput, EvalError> {
    let mut ev = Evaluator {
        ctx,
        stats: EvalStats::default(),
        libraries: Vec::new(),
        visiting: Vec::new(),
        scopes: vec![BTreeSet::new()],
        interposed: Vec::new(),
        lib_interposed: Vec::new(),
        units: Vec::new(),
        unit_of: HashMap::new(),
        last_dyn: None,
    };
    let (module, _) = ev.node(&bp.root).map_err(|e| locate_error(e, bp))?;
    let mut deps = BTreeSet::new();
    for s in ev.scopes {
        deps.extend(s);
    }
    ev.interposed.append(&mut ev.lib_interposed);
    Ok(EvalOutput {
        module,
        libraries: ev.libraries,
        constraints: bp.constraints.clone(),
        stats: ev.stats,
        deps,
        interpositions: canonical_names(ev.interposed),
        units: ev.units,
    })
}

/// Sorts and deduplicates interposition names, the form cache rows and
/// [`EvalOutput::interpositions`] carry.
fn canonical_names(mut names: Vec<String>) -> Vec<String> {
    names.sort_unstable();
    names.dedup();
    names
}

impl Evaluator<'_> {
    fn record(&mut self, path: &str) {
        self.scopes
            .last_mut()
            .expect("scope stack never empty")
            .insert(path.to_string());
    }

    fn fold_deps(&mut self, deps: &BTreeSet<String>) {
        let top = self.scopes.last_mut().expect("scope stack never empty");
        for d in deps {
            top.insert(d.clone());
        }
    }

    fn unit(&mut self, deps: Vec<usize>, merges: u64, source_compiles: u64) -> usize {
        self.units.push(UnitReport {
            deps,
            merges,
            source_compiles,
        });
        self.units.len() - 1
    }

    /// Evaluates `n`, returning its module and the unit that produced
    /// it.
    fn node(&mut self, n: &MNode) -> Result<(Module, usize), EvalError> {
        self.stats.nodes += 1;
        let key = n.hash();
        if let Some(c) = self.ctx.cache_get(key) {
            self.stats.cache_hits += 1;
            let unit = match self.unit_of.get(&key) {
                Some(&u) => u,
                None => {
                    let u = self.unit(Vec::new(), 0, 0);
                    self.unit_of.insert(key, u);
                    u
                }
            };
            // A hit stands on the entry's own dependency record: fold it
            // into the enclosing scope so the result invalidates when any
            // of those paths change.
            self.fold_deps(&c.deps);
            self.interposed.extend(c.interpositions);
            // Cached result for a subtree: library uses under it were
            // recorded when it was first evaluated and are re-declared by
            // re-walking only the library-introducing nodes.
            self.collect_library_uses(n)?;
            return Ok((c.module, unit));
        }
        self.scopes.push(BTreeSet::new());
        let mark = self.interposed.len();
        let (m, unit) = self.node_uncached(n)?;
        let deps = Arc::new(self.scopes.pop().expect("scope pushed above"));
        let names = canonical_names(self.interposed.drain(mark..).collect());
        self.ctx.cache_store(key, &m, &deps, &names);
        self.interposed.extend(names);
        self.fold_deps(&deps);
        self.unit_of.entry(key).or_insert(unit);
        Ok((m, unit))
    }

    /// A view operation on `operand`'s module: one zero-work unit.
    fn view(
        &mut self,
        operand: &MNode,
        op: impl FnOnce(&Module) -> Result<Module, ObjError>,
    ) -> Result<(Module, usize), EvalError> {
        let (m, u) = self.node(operand)?;
        let m = op(&m)?;
        Ok((m, self.unit(vec![u], 0, 0)))
    }

    fn node_uncached(&mut self, n: &MNode) -> Result<(Module, usize), EvalError> {
        match n {
            MNode::Leaf(path) => self.leaf(path),
            MNode::Merge(items) => {
                // Each operand is appended as soon as it is evaluated, so
                // a merge step fails before later operands are evaluated,
                // exactly as the binary fold would.
                let mut merged = MergeBuilder::new();
                let mut acc: Option<usize> = None;
                for it in items {
                    let (m, u) = match self.library_candidate(it)? {
                        Some(()) => continue, // recorded as a library use
                        None => self.node(it)?,
                    };
                    acc = Some(match acc {
                        None => u,
                        Some(a) => {
                            self.stats.merges += 1;
                            self.unit(vec![a, u], 1, 0)
                        }
                    });
                    merged.push(&m)?;
                }
                let Some(unit) = acc else {
                    // Every operand was a shared library: the "client" is
                    // empty, which is a blueprint bug.
                    return Err(EvalError::Misplaced(
                        "merge of only shared libraries produces an empty client".into(),
                    ));
                };
                Ok((merged.finish()?, unit))
            }
            MNode::Override(a, b) => {
                let (ma, ua) = self.node(a)?;
                let (mb, ub) = self.node(b)?;
                self.stats.merges += 1;
                let (m, replaced) = ma.override_replacing(&mb)?;
                self.interposed.extend(replaced);
                Ok((m, self.unit(vec![ua, ub], 1, 0)))
            }
            MNode::Rename {
                pattern,
                replacement,
                target,
                operand,
            } => self.view(operand, |m| m.rename(pattern, replacement, *target)),
            MNode::Hide { pattern, operand } => self.view(operand, |m| m.hide(pattern)),
            MNode::Show { pattern, operand } => self.view(operand, |m| m.show(pattern)),
            MNode::Restrict { pattern, operand } => self.view(operand, |m| m.restrict(pattern)),
            MNode::Project { pattern, operand } => self.view(operand, |m| m.project(pattern)),
            MNode::CopyAs {
                pattern,
                replacement,
                operand,
            } => self.view(operand, |m| m.copy_as(pattern, replacement)),
            MNode::Freeze { pattern, operand } => self.view(operand, |m| m.freeze(pattern)),
            MNode::Initializers(o) => self.view(o, Module::initializers),
            MNode::Source { lang, code } => {
                self.stats.source_compiles += 1;
                let obj = compile_source(lang, code, "<source>")?;
                Ok((Module::from_object(obj), self.unit(Vec::new(), 0, 1)))
            }
            MNode::Specialize { kind, operand } => match kind {
                // A constrained specialization evaluated in a position
                // where its module is demanded directly (not under a
                // merge) produces the module; the constraints apply when
                // the server instantiates it standalone.
                SpecKind::Static | SpecKind::DynamicImpl | SpecKind::Constrained(_) => {
                    self.node(operand)
                }
                SpecKind::Dynamic => {
                    let (impl_module, impl_unit) = self.node(operand)?;
                    let key = impl_module.content_hash().with_str("dynamic-impl");
                    let lib_id = self.ctx.register_dynamic_impl(key, &impl_module)?;
                    let mut exports = impl_module.exports()?;
                    exports.sort();
                    let stubs = Module::from_object(make_partial_stubs(lib_id, &exports));
                    let mut deps = vec![impl_unit];
                    deps.extend(self.last_dyn);
                    let unit = self.unit(deps, 0, 0);
                    self.last_dyn = Some(unit);
                    Ok((stubs, unit))
                }
            },
        }
    }

    /// If `n` introduces a self-contained shared library inside a merge,
    /// records the library use and returns `Some(())`.
    fn library_candidate(&mut self, n: &MNode) -> Result<Option<()>, EvalError> {
        match n {
            MNode::Specialize {
                kind: SpecKind::Constrained(cs),
                operand,
            } => {
                let module = self.library_node(operand)?;
                self.libraries.push(LibraryUse {
                    name: leaf_name(operand),
                    // Content-derived: rebuilding the library's fragments
                    // must produce a new key even under an unchanged graph.
                    key: module.content_hash(),
                    module,
                    constraints: cs.clone(),
                });
                Ok(Some(()))
            }
            MNode::Leaf(path) => {
                // A leaf naming a library-class meta-object (one with a
                // constraint-list) is a self-contained library reference.
                self.record(path);
                match self.ctx.resolve(path)? {
                    ResolvedNode::Meta(bp) if !bp.constraints.is_empty() => {
                        let mark = self.interposed.len();
                        let (module, _) = self.meta(path, &bp)?;
                        self.take_library_names(mark);
                        self.libraries.push(LibraryUse {
                            name: path.clone(),
                            key: module.content_hash(),
                            module,
                            constraints: bp.constraints.clone(),
                        });
                        Ok(Some(()))
                    }
                    _ => Ok(None),
                }
            }
            _ => Ok(None),
        }
    }

    /// Evaluates a `lib-constrained` operand: a library's module, whose
    /// interpositions belong to no enclosing client module.
    fn library_node(&mut self, operand: &MNode) -> Result<Module, EvalError> {
        let mark = self.interposed.len();
        let (module, _) = self.node(operand)?;
        self.take_library_names(mark);
        Ok(module)
    }

    fn take_library_names(&mut self, mark: usize) {
        self.lib_interposed.extend(self.interposed.drain(mark..));
    }

    /// Re-declares library uses under an already-cached subtree without
    /// re-evaluating the expensive parts (modules come from the cache).
    fn collect_library_uses(&mut self, n: &MNode) -> Result<(), EvalError> {
        match n {
            MNode::Merge(items) => {
                for it in items {
                    if self.library_candidate(it)?.is_none() {
                        self.collect_library_uses(it)?;
                    }
                }
                Ok(())
            }
            MNode::Override(a, b) => {
                self.collect_library_uses(a)?;
                self.collect_library_uses(b)
            }
            MNode::Rename { operand, .. }
            | MNode::Hide { operand, .. }
            | MNode::Show { operand, .. }
            | MNode::Restrict { operand, .. }
            | MNode::Project { operand, .. }
            | MNode::CopyAs { operand, .. }
            | MNode::Freeze { operand, .. }
            | MNode::Specialize { operand, .. } => self.collect_library_uses(operand),
            MNode::Initializers(o) => self.collect_library_uses(o),
            MNode::Leaf(_) | MNode::Source { .. } => Ok(()),
        }
    }

    fn leaf(&mut self, path: &str) -> Result<(Module, usize), EvalError> {
        self.record(path);
        match self.ctx.resolve(path)? {
            ResolvedNode::Object(obj) => {
                self.stats.leaves += 1;
                Ok((Module::from_arc(obj), self.unit(Vec::new(), 0, 0)))
            }
            ResolvedNode::Meta(bp) => self.meta(path, &bp),
        }
    }

    fn meta(&mut self, path: &str, bp: &Blueprint) -> Result<(Module, usize), EvalError> {
        if let Some(pos) = self.visiting.iter().position(|p| p == path) {
            return Err(EvalError::Cycle(cycle_chain(&self.visiting[pos..], path)));
        }
        self.visiting.push(path.to_string());
        let result = self.node(&bp.root);
        self.visiting.pop();
        result
    }
}

/// Formats the full blueprint path chain of a detected cycle: every
/// meta-object from the first re-entered node down to the repeat, e.g.
/// `/meta/a -> /meta/b -> /meta/a`.
fn cycle_chain(visiting_tail: &[String], repeat: &str) -> String {
    let mut chain: Vec<&str> = visiting_tail.iter().map(String::as_str).collect();
    chain.push(repeat);
    chain.join(" -> ")
}

fn leaf_name(n: &MNode) -> String {
    match n {
        MNode::Leaf(p) => p.clone(),
        other => format!("<inline:{}>", other.hash()),
    }
}

/// Attaches the blueprint source location of the failing leaf to
/// `Resolve`/`Cycle` errors (the variant stays a plain `String`; the
/// location is folded into the message). A cycle error carries the full
/// ` -> `-joined path chain; the located leaf is the chain's final
/// (re-entered) component. Errors raised from inside a *referenced*
/// meta-object have no span in this blueprint and pass through
/// unchanged.
fn locate_error(e: EvalError, bp: &Blueprint) -> EvalError {
    let locate = |name: &str| -> Option<Span> {
        let mut path = Vec::new();
        find_leaf_span(&bp.root, name, &mut path, bp)
    };
    match e {
        EvalError::Resolve(p) => match locate(&p) {
            Some(span) => EvalError::Resolve(format!("{p} (at {span})")),
            None => EvalError::Resolve(p),
        },
        EvalError::Cycle(p) => {
            let last = p.rsplit(" -> ").next().unwrap_or(&p);
            match locate(last) {
                Some(span) => EvalError::Cycle(format!("{p} (at {span})")),
                None => EvalError::Cycle(p),
            }
        }
        other => other,
    }
}

fn find_leaf_span(n: &MNode, target: &str, path: &mut Vec<u32>, bp: &Blueprint) -> Option<Span> {
    let mut descend = |i: u32, c: &MNode| -> Option<Span> {
        path.push(i);
        let found = find_leaf_span(c, target, path, bp);
        path.pop();
        found
    };
    match n {
        MNode::Leaf(p) if p == target => bp.spans.get(path),
        MNode::Leaf(_) | MNode::Source { .. } => None,
        MNode::Merge(items) => items
            .iter()
            .enumerate()
            .find_map(|(i, c)| descend(i as u32, c)),
        MNode::Override(a, b) => descend(0, a).or_else(|| descend(1, b)),
        MNode::Rename { operand, .. }
        | MNode::Hide { operand, .. }
        | MNode::Show { operand, .. }
        | MNode::Restrict { operand, .. }
        | MNode::Project { operand, .. }
        | MNode::CopyAs { operand, .. }
        | MNode::Freeze { operand, .. }
        | MNode::Specialize { operand, .. } => descend(0, operand),
        MNode::Initializers(o) => descend(0, o),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omos_isa::assemble;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{Arc, Mutex};

    /// A test context: a flat namespace of objects and metas plus a real
    /// cache. Mutable state sits behind locks so the context serves the
    /// `&self` trait.
    #[derive(Default)]
    struct TestCtx {
        objects: HashMap<String, Arc<omos_obj::ObjectFile>>,
        metas: HashMap<String, Blueprint>,
        cache: Mutex<HashMap<ContentHash, CachedEval>>,
        dynamic: Mutex<Vec<(ContentHash, Module)>>,
        resolve_calls: AtomicU64,
    }

    impl TestCtx {
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

        fn dynamic_count(&self) -> usize {
            self.dynamic.lock().unwrap().len()
        }
    }

    impl EvalContext for TestCtx {
        fn resolve(&self, path: &str) -> Result<ResolvedNode, EvalError> {
            self.resolve_calls.fetch_add(1, Ordering::Relaxed);
            if let Some(o) = self.objects.get(path) {
                return Ok(ResolvedNode::Object(Arc::clone(o)));
            }
            if let Some(m) = self.metas.get(path) {
                return Ok(ResolvedNode::Meta(m.clone()));
            }
            Err(EvalError::Resolve(path.to_string()))
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

        fn register_dynamic_impl(
            &self,
            key: ContentHash,
            module: &Module,
        ) -> Result<u32, EvalError> {
            let mut dynamic = self.dynamic.lock().unwrap();
            if let Some(i) = dynamic.iter().position(|(k, _)| *k == key) {
                return Ok(i as u32);
            }
            dynamic.push((key, module.clone()));
            Ok(dynamic.len() as u32 - 1)
        }
    }

    fn ls_world() -> TestCtx {
        let mut ctx = TestCtx::default();
        ctx.add_asm(
            "/obj/ls.o",
            ".text\n.global _start\n_start: call _puts\n sys 0\n",
        );
        ctx.add_asm(
            "/libc/stdio.o",
            ".text\n.global _puts\n_puts: li r1, 0\n ret\n",
        );
        ctx
    }

    /// [`ls_world`] plus `/lib/traced`, a library whose own graph
    /// overrides stdio's `_puts`, and `/obj/local.o`, which has a
    /// *local* spelled like that global.
    fn override_world() -> TestCtx {
        let mut ctx = ls_world();
        ctx.add_asm(
            "/obj/trace.o",
            ".text\n.global _puts\n_puts: li r1, 1\n ret\n",
        );
        ctx.add_asm(
            "/obj/local.o",
            ".text\n.global _main\n_main: call _puts\n ret\n_puts: ret\n",
        );
        ctx.add_meta(
            "/lib/traced",
            "(constraint-list \"T\" 0x1000000)\n(override /libc/stdio.o /obj/trace.o)",
        );
        ctx
    }

    #[test]
    fn overrides_report_what_they_replaced() {
        let ctx = override_world();
        // A local never conflicts: `/obj/local.o`'s `_puts` is renamed
        // before stdio's global is appended.
        let bp = Blueprint::parse("(override /obj/local.o /libc/stdio.o)").unwrap();
        assert!(eval_blueprint(&bp, &ctx).unwrap().interpositions.is_empty());
        // A library subtree's override counts; so does the client's, on
        // a cold and on a warm cache alike.
        let bp = Blueprint::parse(
            "(merge (override (merge /obj/ls.o /libc/stdio.o) /obj/trace.o) /lib/traced)",
        )
        .unwrap();
        let cold = eval_blueprint(&bp, &ctx).unwrap();
        assert_eq!(cold.interpositions, ["_puts"]);
        let warm = eval_blueprint(&bp, &ctx).unwrap();
        assert_eq!(warm.stats.cache_hits, 2, "root and library rows hit");
        assert_eq!(warm.interpositions, cold.interpositions);
        // The root row carries the client's name only; the library's
        // comes from its own row.
        let root = ctx.cache_get(bp.root.hash()).unwrap();
        assert_eq!(root.interpositions, ["_puts"]);
        let bp = Blueprint::parse("(merge /obj/ls.o /lib/traced)").unwrap();
        let lib_only = eval_blueprint(&bp, &ctx).unwrap();
        assert_eq!(lib_only.interpositions, ["_puts"]);
        let row = ctx.cache_get(bp.root.hash()).unwrap();
        assert!(row.interpositions.is_empty(), "library names stay out");
    }

    #[test]
    fn simple_merge_evaluates() {
        let ctx = ls_world();
        let bp = Blueprint::parse("(merge /obj/ls.o /libc/stdio.o)").unwrap();
        let out = eval_blueprint(&bp, &ctx).unwrap();
        assert!(out.module.free_references().unwrap().is_empty());
        assert!(out.libraries.is_empty());
        assert_eq!(out.stats.merges, 1);
        assert_eq!(out.stats.leaves, 2);
    }

    #[test]
    fn n_operand_merge_records_n_minus_one_merges() {
        let mut ctx = TestCtx::default();
        for i in 0..5 {
            ctx.add_asm(
                &format!("/obj/m{i}.o"),
                &format!(".text\n.global _f{i}\n_f{i}: ret\n"),
            );
        }
        ctx.add_meta(
            "/lib/libc",
            "(constraint-list \"T\" 0x1000000)\n(merge /obj/m0.o)",
        );
        // A library operand is not merged into the client, so it is not
        // a merge; the library's own one-operand merge is not one either.
        let bp =
            Blueprint::parse("(merge /obj/m0.o /obj/m1.o /lib/libc /obj/m2.o /obj/m3.o /obj/m4.o)")
                .unwrap();
        let out = eval_blueprint(&bp, &ctx).unwrap();
        assert_eq!(out.stats.merges, 4);
        assert_eq!(out.libraries.len(), 1);
        assert_eq!(
            out.module.materialize().unwrap().name,
            "/obj/m0.o+/obj/m1.o+/obj/m2.o+/obj/m3.o+/obj/m4.o"
        );
    }

    #[test]
    fn evaluation_records_the_work_unit_dag() {
        let world = || {
            let mut ctx = TestCtx::default();
            for i in 0..4 {
                ctx.add_asm(
                    &format!("/obj/m{i}.o"),
                    &format!(".text\n.global _f{i}\n_f{i}: ret\n"),
                );
            }
            ctx
        };
        let ctx = world();
        let unit = |deps: &[usize], merges, source_compiles| UnitReport {
            deps: deps.to_vec(),
            merges,
            source_compiles,
        };
        let leaf = unit(&[], 0, 0);
        // A 4-operand merge is a chain of 3 binary steps, each consuming
        // the accumulated left operand and the next operand.
        let four = "(merge /obj/m0.o /obj/m1.o /obj/m2.o /obj/m3.o)";
        let out = eval_blueprint(&Blueprint::parse(four).unwrap(), &ctx).unwrap();
        assert_eq!(
            out.units,
            [
                leaf.clone(),
                leaf.clone(),
                unit(&[0, 1], 1, 0),
                leaf.clone(),
                unit(&[2, 3], 1, 0),
                leaf.clone(),
                unit(&[4, 5], 1, 0),
            ]
        );
        // An eval-cache hit is one zero-work unit the rest builds on.
        let bp = Blueprint::parse(&format!("(hide \"^_f1$\" {four})")).unwrap();
        let out = eval_blueprint(&bp, &ctx).unwrap();
        assert_eq!(out.stats.cache_hits, 1);
        assert_eq!(out.units, [leaf.clone(), unit(&[0], 0, 0)]);
        // A `source` compile costs one compile; a subtree repeated within
        // the request is its first unit again.
        let bp = Blueprint::parse(
            r#"(merge (source "c" "int undef_var = 0;\n")
                      (hide "^_f0$" /obj/m0.o)
                      (hide "^_f0$" /obj/m0.o))"#,
        )
        .unwrap();
        let out = eval_blueprint(&bp, &world()).unwrap();
        assert_eq!(out.stats.cache_hits, 1);
        assert_eq!(
            out.units,
            [
                unit(&[], 0, 1),
                leaf,
                unit(&[1], 0, 0),
                unit(&[0, 2], 1, 0),
                unit(&[3, 2], 1, 0),
            ]
        );
    }

    #[test]
    fn wide_nested_merge_keeps_every_operands_locals() {
        let mut ctx = TestCtx::default();
        for op in ["a", "b", "c", "d", "e", "f"] {
            ctx.add_asm(
                &format!("/obj/{op}.o"),
                &format!(
                    ".text\n.global _{op}\n_{op}: li r2, _msg\n li r3, _tbl\n ret\n\
                     .rodata\n_msg: .ascii \"{op}\"\n_tbl: .word 0\n"
                ),
            );
        }
        let bp = Blueprint::parse(
            "(merge (merge /obj/a.o /obj/b.o /obj/c.o) /obj/d.o (merge /obj/e.o /obj/f.o))",
        )
        .unwrap();
        let out = eval_blueprint(&bp, &ctx).unwrap();
        assert_eq!(out.stats.merges, 5);
        let locals = out
            .module
            .materialize()
            .unwrap()
            .symbols
            .iter()
            .filter(|s| s.binding == omos_obj::SymbolBinding::Local)
            .count();
        assert_eq!(locals, 12, "every operand's locals survive, renamed");
    }

    #[test]
    fn one_operand_merge_keeps_the_operand_view() {
        let ctx = ls_world();
        let bp = Blueprint::parse(r#"(merge (hide "^_puts$" /libc/stdio.o))"#).unwrap();
        let out = eval_blueprint(&bp, &ctx).unwrap();
        let operand = Module::from_arc(Arc::clone(&ctx.objects["/libc/stdio.o"]))
            .hide("^_puts$")
            .unwrap();
        assert_eq!(out.stats.merges, 0);
        assert_eq!(out.module.view().op_count(), 1, "not materialized");
        assert_eq!(out.module.content_hash(), operand.content_hash());
    }

    #[test]
    fn second_evaluation_hits_cache() {
        let ctx = ls_world();
        let bp = Blueprint::parse("(merge /obj/ls.o /libc/stdio.o)").unwrap();
        let first = eval_blueprint(&bp, &ctx).unwrap();
        assert_eq!(first.stats.cache_hits, 0);
        let second = eval_blueprint(&bp, &ctx).unwrap();
        assert_eq!(second.stats.cache_hits, 1, "root served from cache");
        assert_eq!(second.stats.merges, 0, "no merge redone");
        assert_eq!(first.module.content_hash(), second.module.content_hash());
    }

    #[test]
    fn library_class_meta_object_becomes_library_use() {
        let mut ctx = ls_world();
        ctx.add_meta(
            "/lib/libc",
            r#"
            (constraint-list "T" 0x1000000 "D" 0x41000000)
            (merge /libc/stdio.o)
            "#,
        );
        let bp = Blueprint::parse("(merge /obj/ls.o /lib/libc)").unwrap();
        let out = eval_blueprint(&bp, &ctx).unwrap();
        // The client still references _puts (unbound) — the server binds
        // it against the placed library.
        assert!(out
            .module
            .free_references()
            .unwrap()
            .contains(&"_puts".to_string()));
        assert_eq!(out.libraries.len(), 1);
        let lib = &out.libraries[0];
        assert_eq!(lib.name, "/lib/libc");
        assert_eq!(lib.constraints[0], (RegionClass::Text, 0x100_0000));
        assert!(lib.module.exports().unwrap().contains(&"_puts".to_string()));
    }

    #[test]
    fn explicit_constrained_specialization_in_merge() {
        let ctx = ls_world();
        let bp = Blueprint::parse(
            r#"(merge /obj/ls.o
                 (specialize "lib-constrained" (list "T" 0x2000000) /libc/stdio.o))"#,
        )
        .unwrap();
        let out = eval_blueprint(&bp, &ctx).unwrap();
        assert_eq!(out.libraries.len(), 1);
        assert_eq!(
            out.libraries[0].constraints,
            vec![(RegionClass::Text, 0x200_0000)]
        );
    }

    #[test]
    fn dynamic_specialization_generates_stubs() {
        let ctx = ls_world();
        let bp = Blueprint::parse(r#"(merge /obj/ls.o (specialize "lib-dynamic" /libc/stdio.o))"#)
            .unwrap();
        let out = eval_blueprint(&bp, &ctx).unwrap();
        // Stubs define _puts, so the client is fully bound statically.
        assert!(out.module.free_references().unwrap().is_empty());
        assert!(
            out.libraries.is_empty(),
            "dynamic libs are not placement requests"
        );
        assert_eq!(ctx.dynamic_count(), 1, "implementation registered");
        // Re-evaluating registers nothing new.
        let _ = eval_blueprint(&bp, &ctx).unwrap();
        assert_eq!(ctx.dynamic_count(), 1);
    }

    #[test]
    fn figure2_blueprint_evaluates() {
        let mut ctx = TestCtx::default();
        ctx.add_asm(
            "/bin/ls.o",
            ".text\n.global _start\n_start: call _malloc\n sys 0\n",
        );
        ctx.add_asm(
            "/lib/libc.o",
            ".text\n.global _malloc\n_malloc: li r1, 0x1000\n ret\n",
        );
        ctx.add_asm(
            "/lib/test_malloc.o",
            r#"
            .text
            .global _malloc
            .extern _REAL_malloc
_malloc:    mov r8, r15
            call _REAL_malloc
            mov r15, r8
            ret
            "#,
        );
        let bp = Blueprint::parse(
            r#"
            (hide "_REAL_malloc"
              (merge
                (restrict "^_malloc$"
                  (copy_as "^_malloc$" "_REAL_malloc"
                    (merge /bin/ls.o /lib/libc.o)))
                /lib/test_malloc.o))
            "#,
        )
        .unwrap();
        let out = eval_blueprint(&bp, &ctx).unwrap();
        let exports = out.module.exports().unwrap();
        assert!(exports.contains(&"_malloc".to_string()));
        assert!(!exports.contains(&"_REAL_malloc".to_string()));
        assert!(out.module.free_references().unwrap().is_empty());
    }

    #[test]
    fn figure3_blueprint_evaluates() {
        let mut ctx = TestCtx::default();
        ctx.add_asm(
            "/lib/lib-with-problems",
            r#"
            .text
            .global _entry
_entry:     call _undefined_routine
            li r2, _undef_var
            ld r1, [r2]
            ret
            "#,
        );
        ctx.add_asm("/lib/abort.o", ".text\n.global _abort\n_abort: halt\n");
        let bp = Blueprint::parse(
            r#"
            (merge
              (source "c" "int undef_var = 0;\n")
              (rename "^_undefined_routine$" "_abort" /lib/lib-with-problems)
              /lib/abort.o)
            "#,
        )
        .unwrap();
        let out = eval_blueprint(&bp, &ctx).unwrap();
        assert!(out.module.free_references().unwrap().is_empty());
        assert_eq!(out.stats.source_compiles, 1);
    }

    #[test]
    fn meta_object_cycles_detected() {
        let mut ctx = TestCtx::default();
        ctx.add_meta("/meta/a", "(merge /meta/b /meta/b)");
        ctx.add_meta("/meta/b", "(merge /meta/a /meta/a)");
        let bp = Blueprint::parse("(merge /meta/a /meta/a)").unwrap();
        let err = eval_blueprint(&bp, &ctx).unwrap_err();
        assert!(matches!(err, EvalError::Cycle(_)));
    }

    #[test]
    fn two_meta_cycle_reports_full_path_chain() {
        let mut ctx = TestCtx::default();
        ctx.add_meta("/meta/a", "(merge /meta/b /meta/b)");
        ctx.add_meta("/meta/b", "(merge /meta/a /meta/a)");
        let bp = Blueprint::parse("(merge /meta/a /meta/a)").unwrap();
        let Err(EvalError::Cycle(chain)) = eval_blueprint(&bp, &ctx) else {
            panic!("expected cycle error");
        };
        // The whole chain, not just the innermost node: entered through
        // /meta/a, descended into /meta/b, re-entered /meta/a.
        assert!(
            chain.starts_with("/meta/a -> /meta/b -> /meta/a"),
            "got {chain}"
        );
    }

    #[test]
    fn unresolved_path_errors() {
        let ctx = TestCtx::default();
        let bp = Blueprint::parse("(merge /nope /alsono)").unwrap();
        assert!(matches!(
            eval_blueprint(&bp, &ctx),
            Err(EvalError::Resolve(_))
        ));
    }

    #[test]
    fn resolve_and_cycle_errors_name_blueprint_location() {
        let ctx = ls_world();
        let src = "(merge /obj/ls.o /nope)";
        let bp = Blueprint::parse(src).unwrap();
        let Err(EvalError::Resolve(msg)) = eval_blueprint(&bp, &ctx) else {
            panic!("expected resolve error");
        };
        let leaf = src.find("/nope").unwrap();
        assert_eq!(msg, format!("/nope (at bytes {}..{})", leaf, leaf + 5));

        let mut ctx = TestCtx::default();
        ctx.add_meta("/meta/a", "(merge /meta/a /meta/a)");
        let bp = Blueprint::parse("(merge /meta/a /meta/a)").unwrap();
        let Err(EvalError::Cycle(msg)) = eval_blueprint(&bp, &ctx) else {
            panic!("expected cycle error");
        };
        assert!(msg.contains("/meta/a (at bytes "), "got {msg}");
    }

    #[test]
    fn merge_of_only_libraries_rejected() {
        let mut ctx = ls_world();
        ctx.add_meta(
            "/lib/libc",
            "(constraint-list \"T\" 0x1000000)\n(merge /libc/stdio.o)",
        );
        let bp = Blueprint::parse("(merge /lib/libc)").unwrap();
        assert!(matches!(
            eval_blueprint(&bp, &ctx),
            Err(EvalError::Misplaced(_))
        ));
    }

    #[test]
    fn cached_subtree_still_declares_libraries() {
        let mut ctx = ls_world();
        ctx.add_meta(
            "/lib/libc",
            "(constraint-list \"T\" 0x1000000)\n(merge /libc/stdio.o)",
        );
        let bp = Blueprint::parse("(merge /obj/ls.o /lib/libc)").unwrap();
        let first = eval_blueprint(&bp, &ctx).unwrap();
        let second = eval_blueprint(&bp, &ctx).unwrap();
        assert_eq!(first.libraries.len(), 1);
        assert_eq!(second.libraries.len(), 1, "library uses survive caching");
        assert_eq!(first.libraries[0].key, second.libraries[0].key);
    }
}
