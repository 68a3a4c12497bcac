//! Dependency-scheduled parallel m-graph evaluation.
//!
//! Evaluation splits into two passes. The *planning* pass walks the
//! m-graph exactly like the sequential [`Evaluator`](crate::eval) —
//! same node order, same cache probes, same statistics — but instead of
//! computing modules it lowers the graph into a DAG of *work units*
//! (leaf modules, merge/override steps, Jigsaw view-op applications,
//! `source` compiles, dynamic-stub generation), each keyed by the node
//! content hash it will publish. The *execution* pass runs ready units
//! on a scoped worker pool with per-worker deques and work stealing.
//!
//! # Determinism
//!
//! The result is byte-identical to sequential evaluation regardless of
//! completion order:
//!
//! * merge/override operand order is frozen at plan time — a merge of n
//!   operands is a *chain* of binary steps (merge is not associative:
//!   combined object names and local-symbol uniquification depend on
//!   operand order), so only sibling subtrees run concurrently. Each
//!   step runs the same merge engine as sequential evaluation
//!   ([`omos_module::MergeBuilder`]), but a chain step re-materializes
//!   its accumulated left operand, so a chain still costs O(width²)
//!   host time where the sequential one-pass merge costs O(width). The
//!   chain's units are also the simulated schedule at `eval_jobs > 1`,
//!   so collapsing it would move simulated latency;
//! * units are emitted in sequential execution order, so a unit's
//!   dependencies always have smaller ordinals, and on failure the
//!   error with the smallest ordinal — the one sequential evaluation
//!   would have hit first — is reported;
//! * `lib-dynamic` registrations are chained in discovery (DFS) order
//!   so library ids match the sequential assignment;
//! * a worker panic is caught per-unit and surfaces as
//!   [`EvalError::Worker`] without poisoning any shared state (caches
//!   only ever receive completed, valid results).

use std::collections::{BTreeSet, HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock};
use std::time::Duration;

use omos_constraint::RegionClass;
use omos_link::make_partial_stubs;
use omos_module::Module;
use omos_obj::view::RenameTarget;
use omos_obj::ContentHash;

use crate::ast::{Blueprint, MNode, SpecKind};
use crate::eval::{
    canonical_names, cycle_chain, leaf_name, locate_error, EvalContext, EvalError, EvalOutput,
    EvalStats, LibraryUse, ResolvedNode,
};
use crate::source::compile_source;

/// Poison-tolerant lock: a worker panic is already surfaced as
/// [`EvalError::Worker`]; the data under these locks stays valid.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// One schedulable operation, lowered from an m-graph node. Operand
/// indices refer to earlier units in the plan.
#[derive(Debug, Clone)]
enum Op {
    /// A module available at plan time: a resolved leaf object or a
    /// cache hit, with the row's interpositions.
    Ready(Module, Vec<String>),
    /// One binary step of a merge chain.
    MergeStep {
        a: usize,
        b: usize,
    },
    /// `override` (conflicts resolve toward `b`).
    OverrideStep {
        a: usize,
        b: usize,
    },
    Rename {
        pattern: String,
        replacement: String,
        target: RenameTarget,
        operand: usize,
    },
    Hide {
        pattern: String,
        operand: usize,
    },
    Show {
        pattern: String,
        operand: usize,
    },
    Restrict {
        pattern: String,
        operand: usize,
    },
    Project {
        pattern: String,
        operand: usize,
    },
    CopyAs {
        pattern: String,
        replacement: String,
        operand: usize,
    },
    Freeze {
        pattern: String,
        operand: usize,
    },
    Initializers {
        operand: usize,
    },
    Source {
        lang: String,
        code: String,
    },
    /// Register the operand as a `lib-dynamic` implementation and
    /// generate its partial-image stubs.
    DynStubs {
        operand: usize,
    },
}

/// A planned work unit.
#[derive(Debug, Clone)]
struct Unit {
    op: Op,
    /// Unit ordinals this one consumes (always smaller than its own).
    deps: Vec<usize>,
    label: String,
    merges: u64,
    source_compiles: u64,
    /// Cache keys (plus their dependency records) this unit's result is
    /// published under when it completes.
    puts: Vec<(ContentHash, std::sync::Arc<BTreeSet<String>>)>,
}

/// What one work unit looked like, for scheduling and tracing above
/// the blueprint layer (the server prices merges/compiles with its
/// cost model and lays siblings out on simulated worker lanes).
#[derive(Debug, Clone)]
pub struct UnitReport {
    /// Short human label (`merge`, `leaf /obj/ls.o`, `source c`, ...).
    pub label: String,
    /// Ordinals of the units this one consumed.
    pub deps: Vec<usize>,
    /// Merge/override steps this unit performs (0 or 1).
    pub merges: u64,
    /// `source` compilations this unit performs (0 or 1).
    pub source_compiles: u64,
}

/// The result of parallel evaluation: the sequential-identical
/// [`EvalOutput`] plus the executed work-unit DAG.
#[derive(Debug)]
pub struct ParallelOutput {
    /// Exactly what [`eval_blueprint`](crate::eval_blueprint) would
    /// have produced: module, libraries, constraints, stats, deps.
    pub output: EvalOutput,
    /// The work-unit DAG, in plan (sequential-execution) order.
    pub units: Vec<UnitReport>,
}

struct PlannedNode {
    unit: usize,
    deps: std::sync::Arc<BTreeSet<String>>,
}

/// A planned library use: name, producing unit, address constraints.
type PlannedLibrary = (String, usize, Vec<(RegionClass, u64)>);

/// The planning pass: replays the sequential evaluator's control flow
/// (including its statistics and dependency-scope bookkeeping) while
/// lowering every computation into a [`Unit`].
struct Planner<'a> {
    ctx: &'a dyn EvalContext,
    stats: EvalStats,
    visiting: Vec<String>,
    scopes: Vec<BTreeSet<String>>,
    /// Keys already planned this request: a second visit is the
    /// in-request analogue of a cache hit.
    planned: HashMap<ContentHash, PlannedNode>,
    units: Vec<Unit>,
    /// Library uses in declaration order.
    libraries: Vec<PlannedLibrary>,
    /// Last `lib-dynamic` stub unit, chained so registration order (and
    /// therefore library ids) match sequential evaluation.
    last_dyn: Option<usize>,
}

impl<'a> Planner<'a> {
    fn new(ctx: &'a dyn EvalContext) -> Planner<'a> {
        Planner {
            ctx,
            stats: EvalStats::default(),
            visiting: Vec::new(),
            scopes: vec![BTreeSet::new()],
            planned: HashMap::new(),
            units: Vec::new(),
            libraries: Vec::new(),
            last_dyn: None,
        }
    }

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

    fn push_unit(
        &mut self,
        op: Op,
        deps: Vec<usize>,
        label: String,
        merges: u64,
        compiles: u64,
    ) -> usize {
        self.units.push(Unit {
            op,
            deps,
            label,
            merges,
            source_compiles: compiles,
            puts: Vec::new(),
        });
        self.units.len() - 1
    }

    fn plan_node(&mut self, n: &MNode) -> Result<usize, EvalError> {
        self.stats.nodes += 1;
        let key = n.hash();
        if let Some(p) = self.planned.get(&key) {
            // Sequential evaluation would find the first visit's
            // cache_put; count and fold exactly as that hit would.
            self.stats.cache_hits += 1;
            let (unit, deps) = (p.unit, std::sync::Arc::clone(&p.deps));
            self.fold_deps(&deps);
            self.plan_collect_library_uses(n)?;
            return Ok(unit);
        }
        if let Some(c) = self.ctx.cache_get(key) {
            self.stats.cache_hits += 1;
            let deps = std::sync::Arc::clone(&c.deps);
            let unit = self.push_unit(
                Op::Ready(c.module, c.interpositions),
                Vec::new(),
                "cached".into(),
                0,
                0,
            );
            self.planned.insert(
                key,
                PlannedNode {
                    unit,
                    deps: std::sync::Arc::clone(&deps),
                },
            );
            self.fold_deps(&deps);
            self.plan_collect_library_uses(n)?;
            return Ok(unit);
        }
        self.scopes.push(BTreeSet::new());
        let unit = self.plan_node_uncached(n)?;
        let deps = std::sync::Arc::new(self.scopes.pop().expect("scope pushed above"));
        self.units[unit]
            .puts
            .push((key, std::sync::Arc::clone(&deps)));
        self.planned.insert(
            key,
            PlannedNode {
                unit,
                deps: std::sync::Arc::clone(&deps),
            },
        );
        self.fold_deps(&deps);
        Ok(unit)
    }

    fn plan_node_uncached(&mut self, n: &MNode) -> Result<usize, EvalError> {
        match n {
            MNode::Leaf(path) => self.plan_leaf(path),
            MNode::Merge(items) => {
                let mut acc: Option<usize> = None;
                for it in items {
                    let u = match self.plan_library_candidate(it)? {
                        Some(()) => continue, // recorded as a library use
                        None => self.plan_node(it)?,
                    };
                    acc = Some(match acc {
                        None => u,
                        Some(a) => {
                            self.stats.merges += 1;
                            self.push_unit(
                                Op::MergeStep { a, b: u },
                                vec![a, u],
                                "merge".into(),
                                1,
                                0,
                            )
                        }
                    });
                }
                acc.ok_or_else(|| {
                    EvalError::Misplaced(
                        "merge of only shared libraries produces an empty client".into(),
                    )
                })
            }
            MNode::Override(a, b) => {
                let ua = self.plan_node(a)?;
                let ub = self.plan_node(b)?;
                self.stats.merges += 1;
                Ok(self.push_unit(
                    Op::OverrideStep { a: ua, b: ub },
                    vec![ua, ub],
                    "override".into(),
                    1,
                    0,
                ))
            }
            MNode::Rename {
                pattern,
                replacement,
                target,
                operand,
            } => {
                let u = self.plan_node(operand)?;
                Ok(self.push_unit(
                    Op::Rename {
                        pattern: pattern.clone(),
                        replacement: replacement.clone(),
                        target: *target,
                        operand: u,
                    },
                    vec![u],
                    "rename".into(),
                    0,
                    0,
                ))
            }
            MNode::Hide { pattern, operand } => {
                let u = self.plan_node(operand)?;
                Ok(self.push_unit(
                    Op::Hide {
                        pattern: pattern.clone(),
                        operand: u,
                    },
                    vec![u],
                    "hide".into(),
                    0,
                    0,
                ))
            }
            MNode::Show { pattern, operand } => {
                let u = self.plan_node(operand)?;
                Ok(self.push_unit(
                    Op::Show {
                        pattern: pattern.clone(),
                        operand: u,
                    },
                    vec![u],
                    "show".into(),
                    0,
                    0,
                ))
            }
            MNode::Restrict { pattern, operand } => {
                let u = self.plan_node(operand)?;
                Ok(self.push_unit(
                    Op::Restrict {
                        pattern: pattern.clone(),
                        operand: u,
                    },
                    vec![u],
                    "restrict".into(),
                    0,
                    0,
                ))
            }
            MNode::Project { pattern, operand } => {
                let u = self.plan_node(operand)?;
                Ok(self.push_unit(
                    Op::Project {
                        pattern: pattern.clone(),
                        operand: u,
                    },
                    vec![u],
                    "project".into(),
                    0,
                    0,
                ))
            }
            MNode::CopyAs {
                pattern,
                replacement,
                operand,
            } => {
                let u = self.plan_node(operand)?;
                Ok(self.push_unit(
                    Op::CopyAs {
                        pattern: pattern.clone(),
                        replacement: replacement.clone(),
                        operand: u,
                    },
                    vec![u],
                    "copy_as".into(),
                    0,
                    0,
                ))
            }
            MNode::Freeze { pattern, operand } => {
                let u = self.plan_node(operand)?;
                Ok(self.push_unit(
                    Op::Freeze {
                        pattern: pattern.clone(),
                        operand: u,
                    },
                    vec![u],
                    "freeze".into(),
                    0,
                    0,
                ))
            }
            MNode::Initializers(o) => {
                let u = self.plan_node(o)?;
                Ok(self.push_unit(
                    Op::Initializers { operand: u },
                    vec![u],
                    "initializers".into(),
                    0,
                    0,
                ))
            }
            MNode::Source { lang, code } => {
                self.stats.source_compiles += 1;
                Ok(self.push_unit(
                    Op::Source {
                        lang: lang.clone(),
                        code: code.clone(),
                    },
                    Vec::new(),
                    format!("source {lang}"),
                    0,
                    1,
                ))
            }
            MNode::Specialize { kind, operand } => match kind {
                SpecKind::Static | SpecKind::DynamicImpl | SpecKind::Constrained(_) => {
                    self.plan_node(operand)
                }
                SpecKind::Dynamic => {
                    let impl_unit = self.plan_node(operand)?;
                    let mut deps = vec![impl_unit];
                    if let Some(prev) = self.last_dyn {
                        deps.push(prev);
                    }
                    let u = self.push_unit(
                        Op::DynStubs { operand: impl_unit },
                        deps,
                        "dyn-stubs".into(),
                        0,
                        0,
                    );
                    self.last_dyn = Some(u);
                    Ok(u)
                }
            },
        }
    }

    fn plan_leaf(&mut self, path: &str) -> Result<usize, EvalError> {
        self.record(path);
        match self.ctx.resolve(path)? {
            ResolvedNode::Object(obj) => {
                self.stats.leaves += 1;
                Ok(self.push_unit(
                    Op::Ready(Module::from_arc(obj), Vec::new()),
                    Vec::new(),
                    format!("leaf {path}"),
                    0,
                    0,
                ))
            }
            ResolvedNode::Meta(bp) => self.plan_meta(path, &bp),
        }
    }

    fn plan_meta(&mut self, path: &str, bp: &Blueprint) -> Result<usize, EvalError> {
        if let Some(pos) = self.visiting.iter().position(|p| p == path) {
            return Err(EvalError::Cycle(cycle_chain(&self.visiting[pos..], path)));
        }
        self.visiting.push(path.to_string());
        let result = self.plan_node(&bp.root);
        self.visiting.pop();
        result
    }

    fn plan_library_candidate(&mut self, n: &MNode) -> Result<Option<()>, EvalError> {
        match n {
            MNode::Specialize {
                kind: SpecKind::Constrained(cs),
                operand,
            } => {
                let unit = self.plan_node(operand)?;
                self.libraries.push((leaf_name(operand), unit, cs.clone()));
                Ok(Some(()))
            }
            MNode::Leaf(path) => {
                self.record(path);
                match self.ctx.resolve(path)? {
                    ResolvedNode::Meta(bp) if !bp.constraints.is_empty() => {
                        let unit = self.plan_meta(path, &bp)?;
                        self.libraries
                            .push((path.clone(), unit, bp.constraints.clone()));
                        Ok(Some(()))
                    }
                    _ => Ok(None),
                }
            }
            _ => Ok(None),
        }
    }

    fn plan_collect_library_uses(&mut self, n: &MNode) -> Result<(), EvalError> {
        match n {
            MNode::Merge(items) => {
                for it in items {
                    if self.plan_library_candidate(it)?.is_none() {
                        self.plan_collect_library_uses(it)?;
                    }
                }
                Ok(())
            }
            MNode::Override(a, b) => {
                self.plan_collect_library_uses(a)?;
                self.plan_collect_library_uses(b)
            }
            MNode::Rename { operand, .. }
            | MNode::Hide { operand, .. }
            | MNode::Show { operand, .. }
            | MNode::Restrict { operand, .. }
            | MNode::Project { operand, .. }
            | MNode::CopyAs { operand, .. }
            | MNode::Freeze { operand, .. }
            | MNode::Specialize { operand, .. } => self.plan_collect_library_uses(operand),
            MNode::Initializers(o) => self.plan_collect_library_uses(o),
            MNode::Leaf(_) | MNode::Source { .. } => Ok(()),
        }
    }
}

/// A completed unit: its module and the interpositions it carries,
/// sorted and deduplicated.
struct Built {
    module: Module,
    interpositions: Vec<String>,
}

/// Shared state of one execution: result slots, dependency counters,
/// per-worker deques, and the first (smallest-ordinal) error.
struct Exec<'a> {
    units: &'a [Unit],
    ctx: &'a dyn EvalContext,
    results: Vec<OnceLock<Built>>,
    pending: Vec<AtomicUsize>,
    dependents: Vec<Vec<usize>>,
    queues: Vec<Mutex<VecDeque<usize>>>,
    remaining: AtomicUsize,
    /// Smallest-ordinal failure so far. Units with larger ordinals are
    /// discarded unexecuted once set (their dependents transitively
    /// follow, since dependents always have larger ordinals).
    error: Mutex<Option<(usize, EvalError)>>,
    gate: Mutex<()>,
    cv: Condvar,
    /// Injected-failure hook: the unit ordinal that must panic.
    fail_unit: Option<usize>,
    fail_armed: AtomicBool,
}

impl<'a> Exec<'a> {
    fn run_workers(&self, workers: usize) {
        std::thread::scope(|s| {
            for w in 0..workers {
                s.spawn(move || self.worker(w));
            }
        });
    }

    fn worker(&self, me: usize) {
        loop {
            if self.remaining.load(Ordering::Acquire) == 0 {
                self.cv.notify_all();
                return;
            }
            if let Some(u) = self.pop(me) {
                self.run_unit(u, me);
                continue;
            }
            // Nothing runnable: park until a completion publishes new
            // ready units (timeout bounds any lost-wakeup window).
            let g = lock(&self.gate);
            if self.remaining.load(Ordering::Acquire) == 0 {
                self.cv.notify_all();
                return;
            }
            let _ = self.cv.wait_timeout(g, Duration::from_millis(1));
        }
    }

    /// LIFO from our own deque (locality), FIFO-steal from the others.
    fn pop(&self, me: usize) -> Option<usize> {
        if let Some(u) = lock(&self.queues[me]).pop_back() {
            return Some(u);
        }
        let n = self.queues.len();
        for d in 1..n {
            if let Some(u) = lock(&self.queues[(me + d) % n]).pop_front() {
                return Some(u);
            }
        }
        None
    }

    fn run_unit(&self, u: usize, me: usize) {
        let discard = {
            let err = lock(&self.error);
            matches!(&*err, Some((o, _)) if u > *o)
        };
        if !discard {
            let outcome = catch_unwind(AssertUnwindSafe(|| self.compute(u)));
            match outcome {
                Ok(Ok(b)) => {
                    for (key, deps) in &self.units[u].puts {
                        self.ctx
                            .cache_store(*key, &b.module, deps, &b.interpositions);
                    }
                    let _ = self.results[u].set(b);
                }
                Ok(Err(e)) => self.set_error(u, e),
                Err(panic) => self.set_error(u, EvalError::Worker(panic_message(&*panic))),
            }
        }
        // Completed or discarded either way: release dependents (they
        // discard themselves if the error precedes them) and wake
        // anyone parked.
        for &d in &self.dependents[u] {
            if self.pending[d].fetch_sub(1, Ordering::AcqRel) == 1 {
                lock(&self.queues[me]).push_back(d);
            }
        }
        self.remaining.fetch_sub(1, Ordering::AcqRel);
        drop(lock(&self.gate));
        self.cv.notify_all();
    }

    fn set_error(&self, u: usize, e: EvalError) {
        let mut err = lock(&self.error);
        match &*err {
            Some((o, _)) if *o <= u => {}
            _ => *err = Some((u, e)),
        }
    }

    fn built(&self, u: usize) -> &Built {
        self.results[u].get().expect("dependency unit completed")
    }

    fn result(&self, u: usize) -> &Module {
        &self.built(u).module
    }

    /// Computes unit `u`: its module, and the interpositions of the
    /// operands it is built from plus its own override's, so a cache row
    /// carries the same names the sequential evaluator gives it.
    fn compute(&self, u: usize) -> Result<Built, EvalError> {
        if self.fail_unit == Some(u) && self.fail_armed.swap(false, Ordering::AcqRel) {
            panic!("injected work-unit panic");
        }
        let op = &self.units[u].op;
        let mut replaced = Vec::new();
        let module = match op {
            Op::Ready(m, _) => m.clone(),
            Op::MergeStep { a, b } => self.result(*a).merge_with(self.result(*b))?,
            Op::OverrideStep { a, b } => {
                let (m, r) = self.result(*a).override_replacing(self.result(*b))?;
                replaced = r;
                m
            }
            Op::Rename {
                pattern,
                replacement,
                target,
                operand,
            } => self
                .result(*operand)
                .rename(pattern, replacement, *target)?,
            Op::Hide { pattern, operand } => self.result(*operand).hide(pattern)?,
            Op::Show { pattern, operand } => self.result(*operand).show(pattern)?,
            Op::Restrict { pattern, operand } => self.result(*operand).restrict(pattern)?,
            Op::Project { pattern, operand } => self.result(*operand).project(pattern)?,
            Op::CopyAs {
                pattern,
                replacement,
                operand,
            } => self.result(*operand).copy_as(pattern, replacement)?,
            Op::Freeze { pattern, operand } => self.result(*operand).freeze(pattern)?,
            Op::Initializers { operand } => self.result(*operand).initializers()?,
            Op::Source { lang, code } => {
                let obj = compile_source(lang, code, "<source>")?;
                Module::from_object(obj)
            }
            Op::DynStubs { operand } => {
                let impl_module = self.result(*operand);
                let key = impl_module.content_hash().with_str("dynamic-impl");
                let lib_id = self.ctx.register_dynamic_impl(key, impl_module)?;
                let mut exports = impl_module.exports()?;
                exports.sort();
                Module::from_object(make_partial_stubs(lib_id, &exports))
            }
        };
        // Operands only: a stub unit's ordering edge to the previous
        // `lib-dynamic` unit carries no names.
        let operands: &[usize] = match op {
            Op::Ready(..) | Op::Source { .. } => &[],
            Op::MergeStep { a, b } | Op::OverrideStep { a, b } => &[*a, *b],
            Op::Rename { operand, .. }
            | Op::Hide { operand, .. }
            | Op::Show { operand, .. }
            | Op::Restrict { operand, .. }
            | Op::Project { operand, .. }
            | Op::CopyAs { operand, .. }
            | Op::Freeze { operand, .. }
            | Op::Initializers { operand }
            | Op::DynStubs { operand } => std::slice::from_ref(operand),
        };
        if let Op::Ready(_, names) = op {
            replaced.extend_from_slice(names);
        }
        for &o in operands {
            replaced.extend_from_slice(&self.built(o).interpositions);
        }
        Ok(Built {
            module,
            interpositions: canonical_names(replaced),
        })
    }
}

fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "worker panicked".to_string()
    }
}

/// Executes a plan on `workers` scoped threads; returns every unit's
/// result, or the smallest-ordinal error.
fn execute(
    units: &[Unit],
    ctx: &dyn EvalContext,
    workers: usize,
    fail_unit: Option<usize>,
) -> Result<Vec<Built>, EvalError> {
    let n = units.len();
    let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut pending: Vec<AtomicUsize> = Vec::with_capacity(n);
    for (i, u) in units.iter().enumerate() {
        // A unit may consume the same operand twice (e.g. override of a
        // node with itself); count distinct producers once.
        let mut deps = u.deps.clone();
        deps.sort_unstable();
        deps.dedup();
        for &d in &deps {
            dependents[d].push(i);
        }
        pending.push(AtomicUsize::new(deps.len()));
    }
    let workers = workers.clamp(1, n.max(1));
    let queues: Vec<Mutex<VecDeque<usize>>> =
        (0..workers).map(|_| Mutex::new(VecDeque::new())).collect();
    // Seed initially-ready units round-robin, in ordinal order.
    let mut seed = 0usize;
    for (i, p) in pending.iter().enumerate() {
        if p.load(Ordering::Relaxed) == 0 {
            lock(&queues[seed % workers]).push_back(i);
            seed += 1;
        }
    }
    let exec = Exec {
        units,
        ctx,
        results: (0..n).map(|_| OnceLock::new()).collect(),
        pending,
        dependents,
        queues,
        remaining: AtomicUsize::new(n),
        error: Mutex::new(None),
        gate: Mutex::new(()),
        cv: Condvar::new(),
        fail_unit,
        fail_armed: AtomicBool::new(fail_unit.is_some()),
    };
    exec.run_workers(workers);
    if let Some((_, e)) = lock(&exec.error).take() {
        return Err(e);
    }
    Ok(exec
        .results
        .into_iter()
        .map(|slot| slot.into_inner().expect("all units completed"))
        .collect())
}

/// Evaluates a blueprint by planning a work-unit DAG and executing it
/// on `jobs` worker threads. The output — module bytes, library list,
/// constraints, statistics, and dependency record — is identical to
/// [`eval_blueprint`](crate::eval_blueprint); only wall-clock (and the
/// schedulable unit DAG reported alongside) differ.
pub fn eval_blueprint_parallel(
    bp: &Blueprint,
    ctx: &dyn EvalContext,
    jobs: usize,
) -> Result<ParallelOutput, EvalError> {
    let mut planner = Planner::new(ctx);
    let plan = planner.plan_node(&bp.root);
    let fail_unit = testhooks::take_if(bp.root.hash()).then_some(planner.units.len() / 2);
    // Execute what was planned even when planning itself failed
    // partway: the planner mirrors the sequential walk, so every unit
    // emitted before the plan error is work the sequential evaluator
    // would have *completed* before reaching the error's position. If
    // one of those units fails, that failure is sequentially first and
    // must be the one reported.
    let results = execute(&planner.units, ctx, jobs, fail_unit).map_err(|e| locate_error(e, bp))?;
    let root_unit = plan.map_err(|e| locate_error(e, bp))?;

    let mut interpositions = results[root_unit].interpositions.clone();
    let libraries = planner
        .libraries
        .iter()
        .map(|(name, unit, constraints)| {
            interpositions.extend_from_slice(&results[*unit].interpositions);
            let module = results[*unit].module.clone();
            LibraryUse {
                name: name.clone(),
                key: module.content_hash(),
                module,
                constraints: constraints.clone(),
            }
        })
        .collect();
    let mut deps = BTreeSet::new();
    for s in planner.scopes {
        deps.extend(s);
    }
    let units = planner
        .units
        .iter()
        .map(|u| UnitReport {
            label: u.label.clone(),
            deps: u.deps.clone(),
            merges: u.merges,
            source_compiles: u.source_compiles,
        })
        .collect();
    Ok(ParallelOutput {
        output: EvalOutput {
            module: results[root_unit].module.clone(),
            libraries,
            constraints: bp.constraints.clone(),
            stats: planner.stats,
            deps,
            interpositions: canonical_names(interpositions),
        },
        units,
    })
}

/// Test-only failure injection, compiled in but inert unless armed.
#[doc(hidden)]
pub mod testhooks {
    use omos_obj::ContentHash;
    use std::sync::Mutex;

    static FAIL_EVAL_OF: Mutex<Option<ContentHash>> = Mutex::new(None);

    /// Arms a one-shot injected panic: the next parallel evaluation
    /// whose root node hashes to `root_key` panics inside one of its
    /// work units.
    pub fn arm_panic(root_key: ContentHash) {
        *FAIL_EVAL_OF.lock().unwrap_or_else(|e| e.into_inner()) = Some(root_key);
    }

    pub(crate) fn take_if(root_key: ContentHash) -> bool {
        let mut armed = FAIL_EVAL_OF.lock().unwrap_or_else(|e| e.into_inner());
        if *armed == Some(root_key) {
            *armed = None;
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::tests::{ls_world, TestCtx};
    use crate::eval_blueprint;

    #[test]
    fn wide_nested_merge_with_locals_matches_sequential_objects() {
        let build = || {
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
            ctx
        };
        let bp = Blueprint::parse(
            "(merge (merge /obj/a.o /obj/b.o /obj/c.o) /obj/d.o (merge /obj/e.o /obj/f.o))",
        )
        .unwrap();
        let seq = eval_blueprint(&bp, &build()).unwrap();
        let par = eval_blueprint_parallel(&bp, &build(), 4).unwrap();
        assert_eq!(seq.stats, par.output.stats);
        assert_eq!(seq.stats.merges, 5);
        let obj = seq.module.materialize().unwrap();
        assert_eq!(obj, par.output.module.materialize().unwrap());
        let locals = obj
            .symbols
            .iter()
            .filter(|s| s.binding == omos_obj::SymbolBinding::Local)
            .count();
        assert_eq!(locals, 12, "every operand's locals survive, renamed");
    }

    fn assert_matches_sequential(src: &str, build: impl Fn() -> TestCtx) {
        let seq_ctx = build();
        let bp = Blueprint::parse(src).unwrap();
        let seq = eval_blueprint(&bp, &seq_ctx).unwrap();
        for jobs in [1, 2, 8] {
            let par_ctx = build();
            let par = eval_blueprint_parallel(&bp, &par_ctx, jobs).unwrap();
            assert_eq!(
                seq.module.content_hash(),
                par.output.module.content_hash(),
                "module bytes at jobs={jobs}"
            );
            assert_eq!(seq.stats, par.output.stats, "stats at jobs={jobs}");
            assert_eq!(seq.deps, par.output.deps, "deps at jobs={jobs}");
            assert_eq!(
                seq.interpositions, par.output.interpositions,
                "interpositions at jobs={jobs}"
            );
            assert_eq!(
                seq.libraries.len(),
                par.output.libraries.len(),
                "library count at jobs={jobs}"
            );
            for (a, b) in seq.libraries.iter().zip(par.output.libraries.iter()) {
                assert_eq!(a.name, b.name);
                assert_eq!(a.key, b.key);
                assert_eq!(a.constraints, b.constraints);
            }
        }
    }

    #[test]
    fn parallel_matches_sequential_on_merges_and_views() {
        assert_matches_sequential(
            r#"(hide "^_puts$" (merge /obj/ls.o /libc/stdio.o))"#,
            ls_world,
        );
    }

    #[test]
    fn parallel_matches_sequential_with_libraries_and_source() {
        assert_matches_sequential(
            r#"(merge (source "c" "int undef_var = 0;\n") /obj/ls.o /lib/libc)"#,
            || {
                let mut ctx = ls_world();
                ctx.add_meta(
                    "/lib/libc",
                    "(constraint-list \"T\" 0x1000000)\n(merge /libc/stdio.o)",
                );
                ctx
            },
        );
    }

    #[test]
    fn parallel_matches_sequential_interpositions() {
        let src = r#"(merge (override /obj/ls.o /obj/puts2.o) /lib/traced)"#;
        let build = || {
            let mut ctx = crate::eval::tests::override_world();
            ctx.add_asm("/obj/puts2.o", ".text\n.global _start\n_start: sys 0\n");
            ctx
        };
        assert_matches_sequential(src, build);
        // Warm: the second evaluation of each side is served from rows.
        let bp = Blueprint::parse(src).unwrap();
        let (seq_ctx, par_ctx) = (build(), build());
        let cold = eval_blueprint(&bp, &seq_ctx).unwrap();
        assert_eq!(cold.interpositions, ["_puts", "_start"]);
        let warm = eval_blueprint_parallel(&bp, &seq_ctx, 4).unwrap();
        assert!(warm.output.stats.cache_hits > 0);
        assert_eq!(warm.output.interpositions, cold.interpositions);
        let _ = eval_blueprint_parallel(&bp, &par_ctx, 4).unwrap();
        let warm = eval_blueprint(&bp, &par_ctx).unwrap();
        assert!(warm.stats.cache_hits > 0);
        assert_eq!(warm.interpositions, cold.interpositions);
    }

    #[test]
    fn parallel_reports_sequentially_first_error() {
        // /nope fails at plan time; the reported error matches the
        // sequential walk's first failure, located in the source.
        let ctx = ls_world();
        let bp = Blueprint::parse("(merge /obj/ls.o /nope /alsono)").unwrap();
        let seq_err = eval_blueprint(&bp, &ctx).unwrap_err();
        let par_err = eval_blueprint_parallel(&bp, &ctx, 4).unwrap_err();
        assert_eq!(seq_err, par_err);
    }

    #[test]
    fn parallel_detects_meta_cycles_with_full_chain() {
        let mut ctx = TestCtx::default();
        ctx.add_meta("/meta/a", "(merge /meta/b /meta/b)");
        ctx.add_meta("/meta/b", "(merge /meta/a /meta/a)");
        let bp = Blueprint::parse("(merge /meta/a /meta/a)").unwrap();
        let Err(EvalError::Cycle(chain)) = eval_blueprint_parallel(&bp, &ctx, 2) else {
            panic!("expected cycle error");
        };
        assert!(
            chain.starts_with("/meta/a -> /meta/b -> /meta/a"),
            "got {chain}"
        );
    }

    #[test]
    fn injected_panic_surfaces_as_worker_error() {
        let ctx = ls_world();
        let bp = Blueprint::parse("(merge /obj/ls.o /libc/stdio.o)").unwrap();
        testhooks::arm_panic(bp.root.hash());
        let err = eval_blueprint_parallel(&bp, &ctx, 4).unwrap_err();
        assert!(
            matches!(&err, EvalError::Worker(m) if m.contains("injected")),
            "got {err:?}"
        );
        // The hook is one-shot: the next evaluation succeeds, and the
        // cache was never poisoned by the aborted run.
        let out = eval_blueprint_parallel(&bp, &ctx, 4).unwrap();
        let seq = eval_blueprint(&bp, &ls_world()).unwrap();
        assert_eq!(out.output.module.content_hash(), seq.module.content_hash());
    }

    #[test]
    fn dynamic_registration_order_matches_sequential() {
        let src = r#"(merge /obj/ls.o
            (specialize "lib-dynamic" /libc/stdio.o)
            (specialize "lib-dynamic" /obj/extra.o))"#;
        let build = || {
            let mut ctx = ls_world();
            ctx.add_asm("/obj/extra.o", ".text\n.global _extra\n_extra: ret\n");
            ctx
        };
        let bp = Blueprint::parse(src).unwrap();
        let seq_ctx = build();
        let _ = eval_blueprint(&bp, &seq_ctx).unwrap();
        let par_ctx = build();
        let _ = eval_blueprint_parallel(&bp, &par_ctx, 8).unwrap();
        let seq_order: Vec<_> = seq_ctx
            .dynamic
            .lock()
            .unwrap()
            .iter()
            .map(|(k, _)| *k)
            .collect();
        let par_order: Vec<_> = par_ctx
            .dynamic
            .lock()
            .unwrap()
            .iter()
            .map(|(k, _)| *k)
            .collect();
        assert_eq!(seq_order, par_order, "library ids assigned in DFS order");
    }
}
