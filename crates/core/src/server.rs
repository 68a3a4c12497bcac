//! The OMOS server.
//!
//! "Modern operating systems provide the primitives needed to make the
//! dynamic linker and loader a persistent server which lives across
//! program invocations. ... The speed is gained primarily through caching
//! of previous work, i.e., bound and relocated executable images and
//! libraries."
//!
//! [`Omos`] owns the namespace, the multi-level caches (evaluated
//! modules, bound images, full instantiation replies), the address
//! constraint solver, and the registry of `lib-dynamic` implementations.
//! Server-side CPU work is metered in nanoseconds and reported per
//! request; clients charge it as I/O wait (the server is another
//! process on the same machine).
//!
//! # Concurrency
//!
//! The server is shared: every request path takes `&self`, so clients
//! on many threads call one `Arc<Omos>` (or `&Omos` under a scope)
//! directly. Internally:
//!
//! * the namespace, eval cache, reply cache, and image cache are
//!   internally synchronized (sharded locks, atomics);
//! * counters are atomics, snapshotted by [`Omos::stats`];
//! * concurrent cold-starts of the same blueprint coalesce through a
//!   per-key single-flight table — one leader evaluates and links, the
//!   rest block and share the leader's reply (and its frames);
//! * invalidation is epoch/key-selective: cache entries remember which
//!   namespace paths they depended on and the generation they were
//!   derived at, so a bind only invalidates derivations that actually
//!   depended on the touched path.
//!
//! Lock order (coarse to fine): dynamic-lib build slot → placement
//! solver → image-flight → image-cache shard. Namespace, sharded cache,
//! and flight-table locks are leaves; nothing calls back into the
//! server while holding one.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, RwLock};

use omos_analysis::manifest::{
    bindings_of, client_bases, derive_manifest, derive_manifest_from_eval, place_library,
    program_candidates, program_image_key, LibraryResolution, ProgramResolution,
    ResolutionManifest,
};
use omos_analysis::relink::{plan_relink, LibAction, RelinkPlan};
use omos_analysis::{
    analyze_blueprint, apply_link_policies, Diagnostic, LintContext, LintResolved, PolicyError,
    Severity,
};
use omos_blueprint::eval::LibraryUse;
use omos_blueprint::{
    eval_blueprint, Blueprint, CachedEval, EvalContext, EvalError, EvalOutput, EvalStats, MNode,
    ResolvedNode, UnitReport,
};
use omos_constraint::PlacementSolver;
use omos_link::{link, FunctionHashTable, LinkOptions, LinkStats};
use omos_module::Module;
use omos_obj::{ContentHash, ObjectFile, SectionKind};
use omos_os::ipc::{ImageDescriptor, ReplyShape, Transport};
use omos_os::{CostModel, ImageFrames};

use crate::cache::{CachedImage, ImageCache};
use crate::error::OmosError;
use crate::namespace::{Entry, Namespace};
use crate::sync::{lock, Sharded, SingleFlight};
use crate::trace::{
    CacheKind, EvictReason, FlightRole, ProbeOutcome, SpanKind, Stage, TraceSnapshot, Tracer,
};

/// Default client text base (programs overlap freely across tasks; only
/// libraries need globally consistent placement). The value lives in
/// the analysis crate so the static manifest derivation and the server
/// cannot drift.
pub const CLIENT_TEXT_BASE: u32 = omos_analysis::manifest::CLIENT_TEXT_BASE;
/// Default client data base, kept below the library data window.
pub const CLIENT_DATA_BASE: u32 = omos_analysis::manifest::CLIENT_DATA_BASE;

/// A built shared library: the cached image, its simulated build cost
/// in ns, and the (text, data) bases the solver placed it at.
type LibraryBuild = (Arc<CachedImage>, u64, (u32, u32));

/// Shards for the eval and reply caches.
const CACHE_SHARDS: usize = 8;

/// Server-side counters (a snapshot; see [`Omos::stats`]).
///
/// For a workload of well-formed `instantiate` calls, the counters
/// satisfy `requests == reply_cache_hits + coalesced + replies_built`:
/// every request is either answered from the reply cache, coalesced
/// onto another thread's in-flight build, or built by a leader.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Instantiation requests served.
    pub requests: u64,
    /// Requests answered entirely from the reply cache.
    pub reply_cache_hits: u64,
    /// Requests that coalesced onto a concurrent identical request
    /// (single-flight followers).
    pub coalesced: u64,
    /// Reply builds led (cache-missing evaluations started).
    pub replies_built: u64,
    /// Library images built (should stay near the number of distinct
    /// libraries in "the common case").
    pub libraries_built: u64,
    /// Program images built.
    pub programs_built: u64,
    /// Total server CPU spent, ns.
    pub cpu_ns: u64,
}

#[derive(Debug, Default)]
struct Counters {
    requests: AtomicU64,
    reply_cache_hits: AtomicU64,
    coalesced: AtomicU64,
    replies_built: AtomicU64,
    libraries_built: AtomicU64,
    programs_built: AtomicU64,
    cpu_ns: AtomicU64,
}

/// What the server hands back for an instantiation request: everything
/// the client must map.
#[derive(Debug, Clone)]
pub struct InstantiateReply {
    /// The program image.
    pub program: Arc<CachedImage>,
    /// Self-contained shared libraries to map alongside it.
    pub libraries: Vec<Arc<CachedImage>>,
    /// Server CPU consumed by this request — the total *work*, billed
    /// to the client and identical at every `eval_jobs` setting.
    pub server_ns: u64,
    /// Simulated wall-clock latency of this request: for a cold build
    /// at `eval_jobs > 1`, the critical path of its work units and
    /// library links laid out on that many simulated lanes, rather than
    /// the work sum. Equals `server_ns` when `eval_jobs` is 1 (and on
    /// cache hits and relinks).
    pub latency_ns: u64,
    /// True if the reply came from cache or from another request's
    /// in-flight build (single-flight followers did no link work).
    pub cache_hit: bool,
    /// Trace request id this reply was served under (0 when tracing is
    /// disabled). Spans in [`Omos::trace_snapshot`] attribute by it.
    pub req: u64,
    /// Hash of the canonical [`ResolutionManifest`] this reply commits
    /// to: which library provides each symbol, where everything is
    /// placed, and the image keys. Zero only for replies built outside
    /// the normal cache (monitored specializations).
    pub manifest: ContentHash,
}

impl InstantiateReply {
    /// Total pages the client will map.
    #[must_use]
    pub fn total_pages(&self) -> u64 {
        self.program.frames.total_pages()
            + self
                .libraries
                .iter()
                .map(|l| l.frames.total_pages())
                .sum::<u64>()
    }

    /// The physical reply shape for transport billing: copying
    /// transports marshal a fixed header plus per-page handles; mapped
    /// transports grant one content-keyed descriptor per image instead.
    #[must_use]
    pub fn reply_shape(&self) -> ReplyShape {
        let images = std::iter::once(&self.program)
            .chain(self.libraries.iter())
            .map(|img| ImageDescriptor {
                key: img.key.0,
                epoch: img.epoch,
                pages: img.frames.total_pages(),
            })
            .collect();
        ReplyShape::with_images(256 + 32 * self.total_pages(), images)
    }
}

/// A cached evaluated module plus the namespace paths it was derived
/// from, the generation it was derived at and the names its overrides
/// replaced ([`CachedEval::interpositions`]).
#[derive(Debug)]
struct EvalEntry {
    module: Module,
    deps: Arc<BTreeSet<String>>,
    gen: u64,
    /// `None` when empty, as nearly every row is: a thin pointer keeps
    /// the row in the allocation size class it had without the names.
    interpositions: Option<Arc<Vec<String>>>,
}

/// A cached full reply plus its dependency record. `pub(crate)` so the
/// persistence layer can write reply rows into a checkpoint and seed
/// them back on restore.
#[derive(Debug)]
pub(crate) struct ReplyEntry {
    pub(crate) reply: InstantiateReply,
    pub(crate) deps: Arc<BTreeSet<String>>,
    pub(crate) gen: u64,
    /// The blueprint the reply answers — persisted so a restore can
    /// re-derive the resolution statically and verify it. Shared with
    /// the namespace entry it was instantiated from.
    pub(crate) blueprint: Arc<Blueprint>,
    /// The sealed canonical resolution-manifest frame.
    pub(crate) manifest: Arc<Vec<u8>>,
}

/// Outcome of a validated reply-cache probe. A stale entry is dropped
/// from the cache but its sealed resolution manifest survives as the
/// seed the incremental relinker diffs against.
enum ReplyProbe {
    /// Entry present and valid (revalidated, billed as a cache hit).
    Hit(InstantiateReply),
    /// Entry existed but a dependency was touched: dropped, manifest
    /// kept as the relink seed.
    Stale(Arc<Vec<u8>>),
    /// No entry.
    Miss,
}

/// One registered `lib-dynamic` implementation. The build slot doubles
/// as the per-library single-flight: the first `dyn_lookup` holds it
/// while placing and linking, concurrent lookups block and reuse.
#[derive(Debug)]
struct DynamicLib {
    key: ContentHash,
    module: Module,
    built: Mutex<Option<BuiltDyn>>,
}

#[derive(Debug)]
struct BuiltDyn {
    instance: Arc<CachedImage>,
    htab: FunctionHashTable,
}

/// Reply to a partial-image lookup.
#[derive(Debug)]
pub struct DynLookupReply {
    /// Resolved entry address.
    pub target: u32,
    /// Hash probes the lookup took.
    pub probes: u64,
    /// Frames to map if this is the process's first call into the
    /// library.
    pub frames: ImageFrames,
    /// Server CPU consumed (nonzero only when the instance had to be
    /// built).
    pub server_ns: u64,
    /// Content-addressed key of the built instance; mapped transports
    /// grant the image on it instead of copying handles.
    pub key: ContentHash,
    /// Cache-instance epoch of the built instance (mapped transports
    /// re-bill a grant whose epoch moved).
    pub epoch: u64,
}

/// The persistent linker/loader server.
///
/// # Examples
///
/// ```
/// use omos_core::Omos;
/// use omos_isa::assemble;
/// use omos_os::ipc::Transport;
/// use omos_os::CostModel;
///
/// let server = Omos::new(CostModel::hpux(), Transport::SysVMsg);
/// server.namespace.bind_object(
///     "/obj/hello.o",
///     assemble("hello.o", ".text\n.global _start\n_start: sys 0\n")?,
/// );
/// server
///     .namespace
///     .bind_blueprint("/bin/hello", "(merge /obj/hello.o)")?;
///
/// let first = server.instantiate("/bin/hello")?;
/// let second = server.instantiate("/bin/hello")?;
/// assert!(!first.cache_hit);
/// assert!(second.cache_hit, "bound images are a cache");
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct Omos {
    /// The exported hierarchical namespace.
    pub namespace: Namespace,
    /// Bound-image cache.
    pub images: ImageCache,
    /// Transport clients use to reach this server.
    pub transport: Transport,
    cost: CostModel,
    solver: Mutex<PlacementSolver>,
    counters: Counters,
    eval_cache: Sharded<ContentHash, EvalEntry>,
    pub(crate) reply_cache: Sharded<ContentHash, ReplyEntry>,
    reply_flight: SingleFlight<ContentHash, Result<InstantiateReply, OmosError>>,
    image_flight: SingleFlight<ContentHash, Result<(Arc<CachedImage>, u64), OmosError>>,
    dynamic: RwLock<Vec<Arc<DynamicLib>>>,
    dynamic_keys: Mutex<HashMap<ContentHash, u32>>,
    preflight: AtomicBool,
    eval_jobs: AtomicUsize,
    /// Diff-driven incremental relinking of stale replies (on by
    /// default; the relink oracle compares against the full path by
    /// turning it off).
    incremental: AtomicBool,
    /// Relink seeds: old resolution manifests captured for reply keys
    /// whose cached entry was dropped (checkpoint-restore rows that
    /// failed image verification). The next request for the key relinks
    /// incrementally from the seed instead of rebuilding cold.
    relink_seeds: Mutex<HashMap<ContentHash, Arc<Vec<u8>>>>,
    tracer: Arc<Tracer>,
}

impl Omos {
    /// Starts a server with the given machine cost profile and client
    /// transport and an unbounded image cache.
    #[must_use]
    pub fn new(cost: CostModel, transport: Transport) -> Omos {
        Omos::with_image_budget(cost, transport, u64::MAX)
    }

    /// Starts a server whose image cache is capped at `budget` bytes
    /// (the paper's "disk space for caching multiple versions of large
    /// libraries could be significant" knob).
    #[must_use]
    pub fn with_image_budget(cost: CostModel, transport: Transport, budget: u64) -> Omos {
        Omos::with_image_cache(cost, transport, ImageCache::new(budget))
    }

    /// Starts a server around a pre-configured image cache — the knob
    /// for eviction policy, shard count, and a tier-2 spill store (the
    /// catalog bench builds its servers through this). The cache's
    /// tracer is replaced with the server's own.
    #[must_use]
    pub fn with_image_cache(cost: CostModel, transport: Transport, images: ImageCache) -> Omos {
        let tracer = Arc::new(Tracer::new());
        Omos {
            namespace: Namespace::new(),
            images: images.with_tracer(Arc::clone(&tracer)),
            transport,
            cost,
            solver: Mutex::new(PlacementSolver::new()),
            counters: Counters::default(),
            eval_cache: Sharded::new(CACHE_SHARDS),
            reply_cache: Sharded::new(CACHE_SHARDS),
            reply_flight: SingleFlight::new(),
            image_flight: SingleFlight::new(),
            dynamic: RwLock::new(Vec::new()),
            dynamic_keys: Mutex::new(HashMap::new()),
            preflight: AtomicBool::new(false),
            incremental: AtomicBool::new(true),
            relink_seeds: Mutex::new(HashMap::new()),
            eval_jobs: AtomicUsize::new(
                std::env::var("OMOS_EVAL_JOBS")
                    .ok()
                    .and_then(|v| v.parse().ok())
                    .filter(|&j| j >= 1)
                    .unwrap_or(1),
            ),
            tracer,
        }
    }

    /// Sets the simulated intra-request parallelism: a cold build lays
    /// the work-unit DAG its evaluation recorded, and its independent
    /// library links, out on `jobs` simulated lanes with a
    /// deterministic list schedule. The build itself always runs
    /// inline, once; 1 (the default, or the `OMOS_EVAL_JOBS`
    /// environment variable at construction) bills latency = work.
    /// Replies and `server_ns` are identical at every setting; only
    /// [`InstantiateReply::latency_ns`] and the span timeline change.
    pub fn set_eval_jobs(&self, jobs: usize) {
        self.eval_jobs.store(jobs.max(1), Ordering::Relaxed);
    }

    /// Current intra-request parallelism (see [`Omos::set_eval_jobs`]).
    #[must_use]
    pub fn eval_jobs(&self) -> usize {
        self.eval_jobs.load(Ordering::Relaxed)
    }

    /// Enables (or disables) diff-driven incremental relinking of stale
    /// replies. On (the default), a rebind-invalidated reply is rebuilt
    /// by relinking only the dirtied subgraph — clean library images
    /// are reused by content key and retained placements are replayed
    /// into the solver. Off, every stale reply pays the historical full
    /// rebuild. Replies are byte-identical either way (the relink
    /// oracle pins this); only the billed work changes.
    pub fn set_incremental_relink(&self, enabled: bool) {
        self.incremental.store(enabled, Ordering::Relaxed);
    }

    /// Whether incremental relinking is enabled.
    #[must_use]
    pub fn incremental_relink(&self) -> bool {
        self.incremental.load(Ordering::Relaxed)
    }

    /// Records a relink seed: the old resolution manifest for a reply
    /// key whose cached entry could not be revived (a restore dropped
    /// it). The next request for `key` relinks incrementally from the
    /// seed instead of rebuilding cold.
    pub(crate) fn seed_relink(&self, key: ContentHash, manifest: Arc<Vec<u8>>) {
        lock(&self.relink_seeds).insert(key, manifest);
    }

    /// Number of pending relink seeds (restore rows awaiting their
    /// relink-on-demand).
    #[must_use]
    pub fn relink_seed_count(&self) -> usize {
        lock(&self.relink_seeds).len()
    }

    /// The server's tracer: clients (and benchmarks) record their IPC
    /// and mapping spans through it so they land on the same request
    /// timeline.
    #[must_use]
    pub fn tracer(&self) -> &Arc<Tracer> {
        &self.tracer
    }

    /// Turns tracing on or off (on by default). Off, every trace hook
    /// is an early-return on one relaxed atomic load.
    pub fn set_tracing(&self, on: bool) {
        self.tracer.set_enabled(on);
    }

    /// Snapshots the trace state: counter families, per-stage latency
    /// histograms, and the retained span ring.
    #[must_use]
    pub fn trace_snapshot(&self) -> TraceSnapshot {
        self.tracer.snapshot()
    }

    /// A consistent-enough snapshot of the server counters.
    #[must_use]
    pub fn stats(&self) -> ServerStats {
        ServerStats {
            requests: self.counters.requests.load(Ordering::Relaxed),
            reply_cache_hits: self.counters.reply_cache_hits.load(Ordering::Relaxed),
            coalesced: self.counters.coalesced.load(Ordering::Relaxed),
            replies_built: self.counters.replies_built.load(Ordering::Relaxed),
            libraries_built: self.counters.libraries_built.load(Ordering::Relaxed),
            programs_built: self.counters.programs_built.load(Ordering::Relaxed),
            cpu_ns: self.counters.cpu_ns.load(Ordering::Relaxed),
        }
    }

    /// The global address-space constraint solver (one lock: placement
    /// must be globally consistent, and it is a tiny fraction of a
    /// cold build).
    pub fn solver(&self) -> MutexGuard<'_, PlacementSolver> {
        lock(&self.solver)
    }

    /// Enables (or disables) opt-in pre-flight analysis: every
    /// cache-missing instantiation is linted first, and analysis
    /// *errors* reject the request as [`OmosError::Preflight`] before
    /// any evaluation or linking work is spent. Warnings never block.
    ///
    /// Pre-flight lives here in the server rather than inside the
    /// evaluator because of crate layering: the analyzer consumes the
    /// blueprint crate's m-graph types, so the evaluator (in that same
    /// crate) cannot call back into it without a dependency cycle. The
    /// server sits above both and is the natural gate.
    pub fn set_preflight(&self, enabled: bool) {
        self.preflight.store(enabled, Ordering::Relaxed);
    }

    /// Lints the meta-object (or bare fragment) at `path` without
    /// instantiating anything.
    pub fn lint(&self, path: &str) -> Result<Vec<Diagnostic>, OmosError> {
        let (bp, _) = self.root_blueprint(path)?;
        Ok(self.lint_blueprint(&bp))
    }

    /// The blueprint a request naming `path` works on: a bound
    /// meta-object is the namespace's own shared blueprint, returned
    /// with the reply key memoized when it was bound; a bare fragment
    /// is wrapped in a one-leaf blueprint and has no memoized key.
    fn root_blueprint(
        &self,
        path: &str,
    ) -> Result<(Arc<Blueprint>, Option<ContentHash>), OmosError> {
        match self.namespace.lookup_keyed(path) {
            Some((Entry::Meta(bp), key)) => Ok((bp, key)),
            Some((Entry::Object(_), _)) => Ok((
                Arc::new(Blueprint::from_root(MNode::Leaf(path.to_string()))),
                None,
            )),
            None => Err(OmosError::NoSuchName(path.to_string())),
        }
    }

    /// Statically analyzes an arbitrary blueprint against this server's
    /// namespace. Never materializes views, never touches the caches.
    #[must_use]
    pub fn lint_blueprint(&self, bp: &Blueprint) -> Vec<Diagnostic> {
        let mut ctx = NamespaceLint(&self.namespace);
        analyze_blueprint(bp, &mut ctx)
    }

    /// The server's cost model.
    #[must_use]
    pub fn cost(&self) -> &CostModel {
        &self.cost
    }

    /// Instantiates the meta-object (or bare fragment) at `path`.
    pub fn instantiate(&self, path: &str) -> Result<InstantiateReply, OmosError> {
        self.counters.requests.fetch_add(1, Ordering::Relaxed);
        let (bp, key) = self.root_blueprint(path)?;
        let key = key.unwrap_or_else(|| bp.hash());
        self.request(&bp, key, Some(path))
    }

    /// Instantiates an arbitrary blueprint (the paper's "execution of
    /// arbitrary blueprints" dynamic-loading interface).
    pub fn instantiate_blueprint(&self, bp: &Blueprint) -> Result<InstantiateReply, OmosError> {
        self.request(&Arc::new(bp.clone()), bp.hash(), None)
    }

    /// Serves one instantiation of `bp` under its reply key
    /// (`bp.hash()`): reply cache, then single-flight (the leader
    /// builds, concurrent identical requests coalesce).
    fn request(
        &self,
        bp: &Arc<Blueprint>,
        key: ContentHash,
        root: Option<&str>,
    ) -> Result<InstantiateReply, OmosError> {
        let guard = self.tracer.begin_request(SpanKind::Request);
        let req = guard.req();
        // The probe keeps a stale entry's manifest as a relink seed: the
        // old resolution is exactly the "before" side of the manifest
        // diff the incremental relinker plans from. A plain miss may
        // still find a seed captured at restore time (relink-on-demand
        // for dropped checkpoint rows).
        let (outer_seed, seeded) = match self.probe_reply(key) {
            ReplyProbe::Hit(mut hit) => {
                hit.req = req;
                return Ok(hit);
            }
            ReplyProbe::Stale(seed) => (Some(seed), false),
            ReplyProbe::Miss => {
                let seed = lock(&self.relink_seeds).remove(&key);
                let seeded = seed.is_some();
                (seed, seeded)
            }
        };
        // Double-check inside the flight: a leader elected just after a
        // previous flight completed finds the fresh entry instead of
        // rebuilding.
        let (result, led) = self.reply_flight.run(key, || {
            self.tracer.flight(FlightRole::Leader, 0);
            match self.probe_reply(key) {
                ReplyProbe::Hit(hit) => Ok(hit),
                ReplyProbe::Stale(seed) => self.rebuild_reply(bp, root, key, Some(seed), false),
                ReplyProbe::Miss => self.rebuild_reply(bp, root, key, outer_seed.clone(), seeded),
            }
        });
        if led {
            return result.map(|mut reply| {
                reply.req = req;
                reply
            });
        }
        self.counters.coalesced.fetch_add(1, Ordering::Relaxed);
        match result {
            Ok(mut reply) => {
                // Followers share the leader's frames without doing link
                // work of their own — from their side it is a cache hit,
                // and their timeline is the wait for the leader's build.
                self.tracer.flight(FlightRole::Coalesced, reply.server_ns);
                reply.cache_hit = true;
                reply.req = req;
                Ok(reply)
            }
            Err(e) => {
                self.tracer.flight(FlightRole::Coalesced, 0);
                Err(e)
            }
        }
    }

    /// Validated reply-cache probe: entries whose dependency paths were
    /// touched after their derivation generation are dropped (lazy,
    /// key-selective invalidation) — but their sealed resolution
    /// manifest is kept as the relink seed.
    fn probe_reply(&self, key: ContentHash) -> ReplyProbe {
        let entry = match self.reply_cache.get(&key) {
            Some(e) => e,
            None => {
                self.tracer.probe(CacheKind::Reply, ProbeOutcome::Miss);
                return ReplyProbe::Miss;
            }
        };
        if self
            .namespace
            .any_touched_since(entry.deps.iter(), entry.gen)
        {
            self.tracer.probe(CacheKind::Reply, ProbeOutcome::Stale);
            // Drop only the row probed: a fresh row a leader inserted
            // since the unlocked get must survive.
            if self.reply_cache.remove_if_same(&key, &entry) {
                self.tracer
                    .evict(CacheKind::Reply, EvictReason::Invalidated, 1);
            }
            return ReplyProbe::Stale(Arc::clone(&entry.manifest));
        }
        self.tracer.probe(CacheKind::Reply, ProbeOutcome::Hit);
        self.counters
            .reply_cache_hits
            .fetch_add(1, Ordering::Relaxed);
        let server_ns = self.cost.server_cached_request_ns;
        self.counters.cpu_ns.fetch_add(server_ns, Ordering::Relaxed);
        self.tracer.advance(server_ns);
        let mut reply = entry.reply.clone();
        reply.server_ns = server_ns;
        reply.latency_ns = server_ns;
        reply.cache_hit = true;
        ReplyProbe::Hit(reply)
    }

    /// Leader rebuild of a cache-missing reply. With incremental
    /// relinking on and an old manifest seed at hand, the build runs as
    /// a relink; any anomaly falls back to the full build (a failed
    /// relink never loses correctness: the full build is
    /// authoritative).
    fn rebuild_reply(
        &self,
        bp: &Arc<Blueprint>,
        root: Option<&str>,
        key: ContentHash,
        seed: Option<Arc<Vec<u8>>>,
        seeded: bool,
    ) -> Result<InstantiateReply, OmosError> {
        self.counters.replies_built.fetch_add(1, Ordering::Relaxed);
        if self.preflight.load(Ordering::Relaxed) {
            let errors: Vec<Diagnostic> = self
                .lint_blueprint(bp)
                .into_iter()
                .filter(|d| d.severity == Severity::Error)
                .collect();
            if !errors.is_empty() {
                return Err(OmosError::Preflight(errors));
            }
        }
        if let Some(seed) = seed.filter(|_| self.incremental_relink()) {
            let relinked = ResolutionManifest::decode(&seed)
                .map_err(OmosError::Obj)
                .and_then(|before| self.build_reply(bp, root, key, Some((&before, seeded))));
            if let Ok(reply) = relinked {
                return Ok(reply);
            }
            self.tracer.relink_fallback();
        }
        self.build_reply(bp, root, key, None)
    }

    /// Applies the blueprint's link policies to a fresh evaluation:
    /// deny screening over the program's references, then stub
    /// interposition (trampoline/audit) merged into the module — before
    /// any image key is computed, so a wrapped module gets a distinct
    /// key. Returns the simulated ns billed to the policy stage (one
    /// relocation-sized unit per wrapped entry point).
    fn apply_policies(&self, bp: &Blueprint, out: &mut EvalOutput) -> Result<u64, OmosError> {
        if bp.policies.is_empty() {
            return Ok(0);
        }
        let span = self.tracer.open(SpanKind::Policy);
        let (ns, result) = match apply_link_policies(bp, out) {
            Ok(o) => {
                self.tracer
                    .policy(o.trampolines.len() as u64, o.audits.len() as u64, false);
                let ns = o.wrapped() as u64 * self.cost.reloc_ns;
                (ns, Ok(ns))
            }
            Err(PolicyError::Denied(diags)) => {
                self.tracer.policy(0, 0, true);
                (0, Err(OmosError::Policy(diags)))
            }
            Err(PolicyError::Internal(e)) => (0, Err(OmosError::Client(e))),
        };
        self.tracer.close_leaf(span, Stage::Policy, ns);
        result
    }

    /// The leader build, one engine for cold builds and relinks:
    /// evaluate the blueprint once and apply its policies, bind each
    /// library in resolution order and then the program
    /// ([`Omos::bind_images`]), seal the manifest the artifacts commit
    /// to, and cache the reply with its dependency record.
    ///
    /// A relink (`relink`: the dropped reply's manifest, and whether it
    /// was a restore seed) first derives the new resolution statically
    /// from the same evaluation ([`derive_manifest_from_eval`]: a
    /// placement replay on a copy of the solver state, no link) and
    /// plans against the old one ([`plan_relink`]). A library whose
    /// resolution row is unchanged reuses its cached image: the image
    /// key covers content, placement and extern environment, so the
    /// image is byte-valid as-is. The sealed manifest must equal the
    /// derived one; a mismatch, like any error, returns `Err`, and the
    /// caller falls back to the full build.
    ///
    /// `server_ns` bills the work sum. `latency_ns` bills the simulated
    /// critical path: a cold build at `eval_jobs > 1` lays its work
    /// units and library links out on that many simulated lanes (the
    /// work itself runs inline, once); a relink bills latency = work.
    fn build_reply(
        &self,
        bp: &Arc<Blueprint>,
        root: Option<&str>,
        key: ContentHash,
        relink: Option<(&ResolutionManifest, bool)>,
    ) -> Result<InstantiateReply, OmosError> {
        // Snapshot the generation *before* resolving anything: a bind
        // racing this build lands after the snapshot and invalidates
        // the entry on its next lookup.
        let ctx = ReqCtx::new(self);
        let lanes = if relink.is_some() {
            1
        } else {
            self.eval_jobs()
        };
        let mut server_ns = self.cost.server_cached_request_ns; // baseline handling
        self.tracer.advance(server_ns);

        let span = self.tracer.open(SpanKind::Eval);
        let out = eval_blueprint(bp, &ctx);
        let (eval_ns, eval_latency) = out
            .as_ref()
            .map_or((0, 0), |o| self.eval_timeline(o, lanes));
        self.tracer.close_leaf(span, Stage::Eval, eval_latency);
        let mut out = out?;
        let policy_ns = self.apply_policies(bp, &mut out)?;
        server_ns += eval_ns + policy_ns;

        let plan = match relink {
            Some((before, _)) => {
                let state = self.solver().export_state();
                let derived =
                    derive_manifest_from_eval(bp, &out, &state).map_err(OmosError::Client)?;
                let plan = plan_relink(before, &derived);
                Some((derived, plan))
            }
            None => None,
        };
        let relink_span = plan
            .is_some()
            .then(|| self.tracer.open(SpanKind::RelinkPartial));
        let bound = self.bind_images(&out, key, plan.as_ref(), lanes);
        if let Some(span) = relink_span {
            let ns = bound.as_ref().map_or(0, |b| b.link_ns);
            self.tracer.note(Stage::RelinkPartial, ns);
            self.tracer.close(span);
        }
        let bound = bound?;
        server_ns += bound.link_ns;
        let mut latency_ns =
            self.cost.server_cached_request_ns + eval_latency + policy_ns + bound.link_latency;

        let manifest = bound.manifest(bp, key, &out);
        if let Some((derived, plan)) = &plan {
            // Patching the cached reply's bindings for the dirtied
            // symbols is real (cheap) work: one relocation-sized write
            // per changed binding.
            let patch_ns = plan.diff.changed_symbols().len() as u64 * self.cost.reloc_ns;
            server_ns += patch_ns;
            latency_ns += patch_ns;
            self.tracer.advance(patch_ns);
            if manifest != *derived {
                return Err(OmosError::Client(
                    "relink diverged from the derived manifest".into(),
                ));
            }
        }
        self.counters.cpu_ns.fetch_add(server_ns, Ordering::Relaxed);
        let reply = InstantiateReply {
            program: bound.program,
            libraries: bound.libraries,
            server_ns,
            latency_ns,
            cache_hit: false,
            req: 0, // attributed by `request`
            manifest: manifest.hash(),
        };
        // A relink lands as an in-place overwrite of the reply-cache
        // slot (same key) rather than an evict-then-miss cycle.
        self.cache_reply(key, &reply, ctx.gen, out.deps, root, bp, &manifest);
        if let Some((_, seeded)) = relink {
            let relinked = reply.libraries.len() as u64 - bound.reused;
            self.tracer
                .relink(bound.reused, relinked, !seeded, seeded, bound.avoided_ns);
        }
        Ok(reply)
    }

    /// Bills one evaluation: returns its work and its simulated latency.
    /// On one lane the latency is the work. On more, the node visits
    /// stay serial and the recorded work units are list-scheduled onto
    /// `lanes` simulated workers, each costly unit landing on the
    /// timeline as a lane-tagged span.
    fn eval_timeline(&self, out: &EvalOutput, lanes: usize) -> (u64, u64) {
        let work = eval_work_ns(&out.stats, &self.cost);
        if lanes == 1 {
            return (work, work);
        }
        let visits = out.stats.nodes * self.cost.lookup_ns;
        let (slots, makespan) = schedule_units(&out.units, &self.cost, lanes);
        for (start, lane, dur) in slots {
            if dur > 0 {
                self.tracer
                    .span_at(SpanKind::EvalUnit, visits + start, dur, lane);
            }
        }
        (work, visits + makespan)
    }

    /// Binds every library in resolution order, folding each one's
    /// exports into the extern environment ("all definitions of
    /// variables must be made in the library furthest downstream"),
    /// then the program against them. A library the relink `plan` marks
    /// for reuse takes its cached image; every other one runs the
    /// library step ([`Omos::instantiate_library`]).
    ///
    /// At `lanes > 1` the library links run off the request timeline
    /// and are laid out afterwards on simulated lanes: once placement
    /// and the extern fold have run in order, the links are mutually
    /// independent.
    fn bind_images(
        &self,
        out: &EvalOutput,
        reply_key: ContentHash,
        plan: Option<&(ResolutionManifest, RelinkPlan)>,
        lanes: usize,
    ) -> Result<Bound, OmosError> {
        let n = out.libraries.len();
        let mut externs = BTreeMap::new();
        let mut libraries = Vec::with_capacity(n);
        let mut bases = Vec::with_capacity(n);
        let mut link_ns = Vec::with_capacity(n);
        let (mut reused, mut avoided_ns) = (0, 0);
        for (i, lib) in out.libraries.iter().enumerate() {
            let reuse = plan
                .filter(|(_, plan)| plan.libraries[i].action == LibAction::Reuse)
                .and_then(|(derived, _)| self.reuse_library(lib, &derived.libraries[i]));
            let (img, ns, placed) = match reuse {
                Some(hit) => {
                    // The link work this reuse skipped; a cold full
                    // relink would re-pay exactly this (the simulation
                    // is deterministic).
                    reused += 1;
                    avoided_ns += hit.0.rebuild_ns;
                    hit
                }
                None => self.instantiate_library(lib, &externs, lanes > 1)?,
            };
            for (s, a) in &img.image.symbols {
                externs.entry(s.clone()).or_insert(*a);
            }
            libraries.push(img);
            bases.push(placed);
            link_ns.push(ns);
        }
        let mut link_latency = link_ns.iter().sum();
        if lanes > 1 {
            let (slots, makespan) = schedule_independent(&link_ns, lanes);
            for (&ns, (start, lane)) in link_ns.iter().zip(slots) {
                if ns > 0 {
                    self.tracer.span_at(SpanKind::Link, start, ns, lane);
                    self.tracer.note(Stage::Link, ns);
                }
            }
            self.tracer.advance(makespan);
            link_latency = makespan;
        }

        let client = client_bases(&out.constraints);
        let image_key = program_image_key(
            out.module.content_hash(),
            libraries.iter().map(|l| l.key),
            client,
        );
        let (program, prog_ns) = match self.images.get(image_key) {
            Some(img) => {
                avoided_ns += img.rebuild_ns;
                (img, 0)
            }
            None => self.build_program(&out.module, image_key, reply_key, client, &externs)?,
        };
        Ok(Bound {
            libraries,
            bases,
            program,
            client,
            link_ns: link_ns.iter().sum::<u64>() + prog_ns,
            link_latency: link_latency + prog_ns,
            reused,
            avoided_ns,
        })
    }

    /// Reuses a library the relink plan marked clean: replays its
    /// retained placement (re-books the manifest's exact ranges; no
    /// solving) and takes the cached image by its key. `None` demotes
    /// the library to the library step, which reproduces the identical
    /// image by construction.
    fn reuse_library(&self, lib: &LibraryUse, row: &LibraryResolution) -> Option<LibraryBuild> {
        let bases = [u64::from(row.text_base), u64::from(row.data_base)];
        self.solver()
            .replay_retained(&lib.name, lib.key.0, &bases)?;
        let img = self.images.get(row.image_key)?;
        let span = self.tracer.open(SpanKind::Reuse);
        self.tracer.close_leaf(span, Stage::Reuse, 0);
        Some((img, 0, (row.text_base, row.data_base)))
    }

    /// The canonical resolution manifest for an arbitrary blueprint,
    /// derived statically — the m-graph is evaluated (view algebra
    /// only), placement is replayed against a copy of the solver state,
    /// and export addresses come from the linker's layout pass. No link
    /// is executed and no image bytes are produced.
    pub fn explain_blueprint(&self, bp: &Blueprint) -> Result<ResolutionManifest, OmosError> {
        let ctx = ReqCtx::new(self);
        let state = self.solver().export_state();
        derive_manifest(bp, &ctx, &state).map_err(OmosError::Client)
    }

    /// [`Omos::explain_blueprint`] for the meta-object (or bare
    /// fragment) bound at `path`.
    pub fn explain(&self, path: &str) -> Result<ResolutionManifest, OmosError> {
        let (bp, _) = self.root_blueprint(path)?;
        self.explain_blueprint(&bp)
    }

    /// Caches a freshly built reply under its blueprint key. The
    /// dependency record is the evaluator's own (every path the
    /// evaluation resolved), plus the root path the request named.
    #[allow(clippy::too_many_arguments)]
    fn cache_reply(
        &self,
        key: ContentHash,
        reply: &InstantiateReply,
        gen: u64,
        mut deps: BTreeSet<String>,
        root: Option<&str>,
        bp: &Arc<Blueprint>,
        manifest: &ResolutionManifest,
    ) {
        if let Some(p) = root {
            deps.insert(p.to_string());
        }
        self.reply_cache.insert(
            key,
            ReplyEntry {
                reply: reply.clone(),
                gen,
                deps: Arc::new(deps),
                blueprint: Arc::clone(bp),
                manifest: Arc::new(manifest.encode()),
            },
        );
    }

    /// Links the client program image (single-flight per image key:
    /// different blueprints can demand the same program image).
    fn build_program(
        &self,
        module: &Module,
        image_key: ContentHash,
        reply_key: ContentHash,
        (text_base, data_base): (u32, u32),
        externs: &BTreeMap<String, u32>,
    ) -> Result<(Arc<CachedImage>, u64), OmosError> {
        let (result, _led) = self.image_flight.run(image_key, || {
            if let Some(img) = self.images.get(image_key) {
                return Ok((img, 0));
            }
            let obj = module.materialize().map_err(OmosError::Obj)?;
            let mut opts = LinkOptions::program("program");
            opts.name = format!("<program:{reply_key}>");
            opts.text_base = text_base;
            opts.data_base = data_base;
            opts.externs = link_externs(&obj, externs);
            let span = self.tracer.open(SpanKind::Link);
            let linked = link(&[obj], &opts);
            let ns = linked
                .as_ref()
                .map_or(0, |l| link_work_ns(&l.stats, &self.cost));
            self.tracer.close_leaf(span, Stage::Link, ns);
            let linked = linked?;
            self.counters.programs_built.fetch_add(1, Ordering::Relaxed);
            let img = self.images.insert(CachedImage {
                key: image_key,
                frames: self.framed(&linked.image),
                image: linked.image,
                link_stats: linked.stats,
                rebuild_ns: ns,
                epoch: 0,
            });
            Ok((img, ns))
        });
        result
    }

    /// Frames an image, recording a metered (but unbilled) Frame span:
    /// framing cost is amortized across every client that maps the
    /// image, so it appears on the trace timeline without inflating any
    /// single reply's `server_ns`.
    fn framed(&self, image: &omos_link::LinkedImage) -> ImageFrames {
        let span = self.tracer.open(SpanKind::Frame);
        let frames = ImageFrames::from_image(image);
        self.tracer.close_leaf(
            span,
            Stage::Frame,
            frames.total_pages() * self.cost.map_page_ns,
        );
        frames
    }

    /// The library step: places one self-contained shared library with
    /// the constraint solver and keys its bound image
    /// ([`place_library`]), then takes the image from the cache or
    /// links it at the placed addresses, frames and caches it.
    /// Concurrent builds of the same placed library coalesce on the
    /// image key. `detach_link` runs the link off the request timeline,
    /// for a caller that lays it out on a simulated lane itself.
    ///
    /// Returns the image, the link work it cost in ns (0 when it was
    /// cached), and the (text, data) bases it was placed at.
    fn instantiate_library(
        &self,
        lib: &LibraryUse,
        externs: &BTreeMap<String, u32>,
        detach_link: bool,
    ) -> Result<LibraryBuild, OmosError> {
        let span = self.tracer.open(SpanKind::LibraryBuild);
        let result = self.instantiate_library_inner(lib, externs, detach_link);
        self.tracer.close(span);
        result
    }

    fn instantiate_library_inner(
        &self,
        lib: &LibraryUse,
        externs: &BTreeMap<String, u32>,
        detach_link: bool,
    ) -> Result<LibraryBuild, OmosError> {
        let obj = lib.module.materialize().map_err(OmosError::Obj)?;
        let (bases, image_key) = place_library(lib, &obj, externs, |req| {
            // Placement is get-or-reuse per (name, key): concurrent
            // callers for the same library receive the same bases. The
            // span's cost is metered (one lookup per segment) but
            // unbilled: placement state is global, its cost amortized
            // across all clients.
            let span = self.tracer.open(SpanKind::Placement);
            let placement = self.solver().place(req, &[]);
            let place_ns = placement
                .as_ref()
                .map_or(0, |p| p.allocations.len() as u64 * self.cost.lookup_ns);
            self.tracer.close_leaf(span, Stage::Placement, place_ns);
            placement
        })?;
        if let Some(img) = self.images.get(image_key) {
            return Ok((img, 0, bases));
        }

        let run = || {
            self.image_flight.run(image_key, || {
                if let Some(img) = self.images.get(image_key) {
                    return Ok((img, 0));
                }
                let mut opts = LinkOptions::library(&lib.name, bases.0, bases.1);
                opts.externs = link_externs(&obj, externs);
                let span = self.tracer.open(SpanKind::Link);
                let linked = link(std::slice::from_ref(&obj), &opts);
                let server_ns = linked
                    .as_ref()
                    .map_or(0, |l| link_work_ns(&l.stats, &self.cost));
                self.tracer.close_leaf(span, Stage::Link, server_ns);
                let linked = linked?;
                self.counters
                    .libraries_built
                    .fetch_add(1, Ordering::Relaxed);
                let img = self.images.insert(CachedImage {
                    key: image_key,
                    frames: self.framed(&linked.image),
                    image: linked.image,
                    link_stats: linked.stats,
                    rebuild_ns: server_ns,
                    epoch: 0,
                });
                Ok((img, server_ns))
            })
        };
        let (result, _led) = if detach_link {
            self.tracer.detached(run)
        } else {
            run()
        };
        result.map(|(img, ns)| (img, ns, bases))
    }

    /// Registers (or finds) a `lib-dynamic` implementation.
    fn register_dynamic(&self, key: ContentHash, module: &Module) -> u32 {
        let mut keys = lock(&self.dynamic_keys);
        if let Some(&id) = keys.get(&key) {
            return id;
        }
        let mut libs = self.dynamic.write().unwrap_or_else(PoisonError::into_inner);
        let id = libs.len() as u32;
        libs.push(Arc::new(DynamicLib {
            key,
            module: module.clone(),
            built: Mutex::new(None),
        }));
        keys.insert(key, id);
        id
    }

    /// Number of registered `lib-dynamic` implementations.
    #[must_use]
    pub fn dynamic_lib_count(&self) -> usize {
        self.dynamic
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// Serves a partial-image stub's `OMOS_LOOKUP`: builds the library
    /// instance on first demand, then resolves `name` through the
    /// function hash table. The per-library build slot makes the first
    /// build single-flight: concurrent lookups block briefly and reuse.
    pub fn dyn_lookup(&self, lib_id: u32, name: &str) -> Result<DynLookupReply, OmosError> {
        let _guard = self.tracer.begin_request(SpanKind::DynLookup);
        let lib = {
            let libs = self.dynamic.read().unwrap_or_else(PoisonError::into_inner);
            libs.get(lib_id as usize)
                .cloned()
                .ok_or(OmosError::NoSuchLibrary(lib_id))?
        };
        let mut built = lock(&lib.built);
        let mut server_ns = 0;
        if built.is_none() {
            let lib_use = LibraryUse {
                name: format!("<dynamic:{lib_id}>"),
                key: lib.key,
                module: lib.module.clone(),
                constraints: Vec::new(),
            };
            let (img, ns, _) = self.instantiate_library(&lib_use, &BTreeMap::new(), false)?;
            server_ns += ns;
            let entries: Vec<(String, u32)> = img
                .image
                .symbols
                .iter()
                .map(|(s, a)| (s.clone(), *a))
                .collect();
            *built = Some(BuiltDyn {
                htab: FunctionHashTable::build(&entries),
                instance: img,
            });
            self.counters.cpu_ns.fetch_add(server_ns, Ordering::Relaxed);
        }
        let b = built.as_ref().expect("built above");
        let (target, probes) = b
            .htab
            .lookup(name)
            .ok_or_else(|| OmosError::Client(format!("`{name}` not in dynamic lib {lib_id}")))?;
        Ok(DynLookupReply {
            target,
            probes: u64::from(probes),
            frames: b.instance.frames.clone(),
            server_ns,
            key: b.instance.key,
            epoch: b.instance.epoch,
        })
    }
}

/// [`LintContext`] over the server namespace: read-only resolution, a
/// missing name is a finding rather than an abort.
struct NamespaceLint<'a>(&'a Namespace);

impl LintContext for NamespaceLint<'_> {
    fn resolve(&mut self, path: &str) -> LintResolved {
        match self.0.lookup(path) {
            Some(Entry::Object(o)) => LintResolved::Object(o),
            Some(Entry::Meta(m)) => LintResolved::Meta((*m).clone()),
            None => LintResolved::Missing,
        }
    }
}

/// Request-local [`EvalContext`]: resolves through the shared
/// namespace and reads/writes the server's dependency-tracked eval
/// cache.
///
/// Dependency *recording* lives in the evaluator itself — it owns the
/// subtree scope stack and hands `cache_put` each cached subtree's
/// precise record (a subtree shared by two programs does not drag one
/// program's private dependencies into the other's reply).
pub(crate) struct ReqCtx<'a> {
    server: &'a Omos,
    /// Namespace generation when the request started.
    gen: u64,
}

impl<'a> ReqCtx<'a> {
    pub(crate) fn new(server: &'a Omos) -> ReqCtx<'a> {
        ReqCtx {
            server,
            gen: server.namespace.generation(),
        }
    }
}

impl EvalContext for ReqCtx<'_> {
    fn resolve(&self, path: &str) -> Result<ResolvedNode, EvalError> {
        match self.server.namespace.lookup(path) {
            Some(Entry::Object(o)) => Ok(ResolvedNode::Object(o)),
            Some(Entry::Meta(m)) => Ok(ResolvedNode::Meta((*m).clone())),
            None => Err(EvalError::Resolve(path.to_string())),
        }
    }

    fn cache_get(&self, key: ContentHash) -> Option<CachedEval> {
        match self.server.eval_cache.get(&key) {
            Some(entry)
                if !self
                    .server
                    .namespace
                    .any_touched_since(entry.deps.iter(), entry.gen) =>
            {
                self.server.tracer.probe(CacheKind::Eval, ProbeOutcome::Hit);
                Some(CachedEval {
                    module: entry.module.clone(),
                    deps: Arc::clone(&entry.deps),
                    interpositions: entry.interpositions.as_deref().cloned().unwrap_or_default(),
                })
            }
            Some(stale) => {
                self.server
                    .tracer
                    .probe(CacheKind::Eval, ProbeOutcome::Stale);
                if self.server.eval_cache.remove_if_same(&key, &stale) {
                    self.server
                        .tracer
                        .evict(CacheKind::Eval, EvictReason::Invalidated, 1);
                }
                None
            }
            None => {
                self.server
                    .tracer
                    .probe(CacheKind::Eval, ProbeOutcome::Miss);
                None
            }
        }
    }

    fn cache_store(
        &self,
        key: ContentHash,
        module: &Module,
        deps: &Arc<BTreeSet<String>>,
        interpositions: &[String],
    ) {
        self.server.eval_cache.insert(
            key,
            EvalEntry {
                module: module.clone(),
                deps: Arc::clone(deps),
                gen: self.gen,
                interpositions: (!interpositions.is_empty())
                    .then(|| Arc::new(interpositions.to_vec())),
            },
        );
    }

    fn register_dynamic_impl(&self, key: ContentHash, module: &Module) -> Result<u32, EvalError> {
        Ok(self.server.register_dynamic(key, module))
    }
}

/// The images one build bound: the libraries in resolution order with
/// their placed bases, then the program at its client bases.
struct Bound {
    libraries: Vec<Arc<CachedImage>>,
    bases: Vec<(u32, u32)>,
    program: Arc<CachedImage>,
    client: (u32, u32),
    /// Link work billed: every library and program link the build ran.
    link_ns: u64,
    /// The simulated latency of that work.
    link_latency: u64,
    /// Libraries a relink reused.
    reused: u64,
    /// Link work the reused images (and a cached program) would have
    /// cost to rebuild.
    avoided_ns: u64,
}

impl Bound {
    /// The resolution manifest of what the build *actually* produced:
    /// placed bases from the solver, export addresses from the bound
    /// images, image keys from the cache entries, and the
    /// interpositions the evaluation's merge engine decided. The
    /// statically derived manifest ([`derive_manifest`]) must agree
    /// byte-for-byte; the differential tests compare the two with
    /// [`divergence`](omos_analysis::manifest::divergence).
    fn manifest(&self, bp: &Blueprint, key: ContentHash, out: &EvalOutput) -> ResolutionManifest {
        let uses = &out.libraries;
        let libraries = uses
            .iter()
            .zip(&self.libraries)
            .zip(&self.bases)
            .map(|((u, img), &(text_base, data_base))| LibraryResolution {
                name: u.name.clone(),
                key: u.key,
                text_base,
                data_base,
                image_key: img.key,
            })
            .collect();
        let mut candidates = program_candidates(&self.program.image.symbols);
        for (u, img) in uses.iter().zip(&self.libraries) {
            candidates.extend(
                img.image
                    .symbols
                    .iter()
                    .map(|(s, &a)| (s.as_str(), u.name.as_str(), a)),
            );
        }
        ResolutionManifest {
            root: key,
            libraries,
            program: ProgramResolution {
                text_base: self.client.0,
                data_base: self.client.1,
                image_key: self.program.key,
            },
            bindings: bindings_of(candidates),
            interpositions: out.interpositions.clone(),
            policies: bp.canonical_policies(),
        }
    }
}

/// The bindings of the extern environment `obj`'s relocations can
/// use, in the form [`LinkOptions::externs`] takes. The linker reads
/// externs only to resolve relocations, so the link is the one the
/// whole environment would give, without copying it for every image.
fn link_externs(obj: &ObjectFile, externs: &BTreeMap<String, u32>) -> HashMap<String, u32> {
    obj.relocs
        .iter()
        .filter_map(|r| externs.get_key_value(&r.symbol))
        .map(|(s, &a)| (s.clone(), a))
        .collect()
}

/// Deterministic greedy list schedule of the work-unit DAG onto
/// `lanes` identical simulated workers: units in ordinal order,
/// each placed on the lane that lets it start earliest, ties to the
/// lowest lane. Units are costed at their simulated work (merge steps
/// and source compiles); pure view shuffles are free. Returns per-unit
/// `(start, lane, dur)` — lanes 1-based, for span `worker` ids — and
/// the makespan: the simulated critical path of the evaluation phase.
fn schedule_units(
    units: &[UnitReport],
    cost: &CostModel,
    lanes: usize,
) -> (Vec<(u64, u16, u64)>, u64) {
    let lanes = lanes.max(1);
    let mut lane_free = vec![0u64; lanes];
    let mut finish = vec![0u64; units.len()];
    let mut placed = Vec::with_capacity(units.len());
    let mut makespan = 0;
    for (i, u) in units.iter().enumerate() {
        let dur = u.merges * cost.server_merge_ns + u.source_compiles * cost.server_compile_ns;
        let ready = u.deps.iter().map(|&d| finish[d]).max().unwrap_or(0);
        let mut best = 0;
        for l in 1..lanes {
            if lane_free[l].max(ready) < lane_free[best].max(ready) {
                best = l;
            }
        }
        let start = lane_free[best].max(ready);
        finish[i] = start + dur;
        lane_free[best] = finish[i];
        makespan = makespan.max(finish[i]);
        placed.push((start, (best + 1) as u16, dur));
    }
    (placed, makespan)
}

/// [`schedule_units`] for independent items (the library links): pack
/// each, in order, onto the least-loaded lane.
fn schedule_independent(durs: &[u64], lanes: usize) -> (Vec<(u64, u16)>, u64) {
    let lanes = lanes.max(1);
    let mut lane_free = vec![0u64; lanes];
    let mut placed = Vec::with_capacity(durs.len());
    let mut makespan = 0;
    for &dur in durs {
        let mut best = 0;
        for l in 1..lanes {
            if lane_free[l] < lane_free[best] {
                best = l;
            }
        }
        let start = lane_free[best];
        lane_free[best] = start + dur;
        makespan = makespan.max(start + dur);
        placed.push((start, (best + 1) as u16));
    }
    (placed, makespan)
}

pub(crate) fn link_work_ns(s: &LinkStats, cost: &CostModel) -> u64 {
    s.symbols_resolved * cost.lookup_ns
        + s.relocs_applied * cost.reloc_ns
        + s.bytes_copied * cost.link_byte_ns
        + s.externs_bound * cost.lookup_ns
}

fn eval_work_ns(s: &EvalStats, cost: &CostModel) -> u64 {
    s.nodes * cost.lookup_ns
        + s.merges * cost.server_merge_ns
        + s.source_compiles * cost.server_compile_ns
}

#[cfg(test)]
mod tests {
    use super::*;
    use omos_isa::assemble;

    fn server() -> Omos {
        let s = Omos::new(CostModel::hpux(), Transport::SysVMsg);
        s.namespace.bind_object(
            "/obj/hello.o",
            assemble(
                "hello.o",
                ".text\n.global _start\n_start: call _puts\n sys 0\n",
            )
            .unwrap(),
        );
        s.namespace.bind_object(
            "/libc/stdio.o",
            assemble("stdio.o", ".text\n.global _puts\n_puts: li r1, 7\n ret\n").unwrap(),
        );
        s.namespace
            .bind_blueprint(
                "/lib/libc",
                "(constraint-list \"T\" 0x1000000 \"D\" 0x41000000)\n(merge /libc/stdio.o)",
            )
            .unwrap();
        s.namespace
            .bind_blueprint("/bin/hello", "(merge /obj/hello.o /lib/libc)")
            .unwrap();
        s
    }

    #[test]
    fn instantiate_builds_program_and_library() {
        let s = server();
        let reply = s.instantiate("/bin/hello").unwrap();
        assert!(!reply.cache_hit);
        assert_eq!(reply.libraries.len(), 1);
        assert!(reply.program.image.entry.is_some());
        // The library landed at its preferred address.
        let lib_text = reply.libraries[0]
            .image
            .segments
            .iter()
            .find(|seg| seg.kind == SectionKind::Text)
            .unwrap();
        assert_eq!(lib_text.vaddr, 0x0100_0000);
        // The client's call to _puts is bound into the library.
        assert_eq!(reply.libraries[0].image.find("_puts"), Some(0x0100_0000));
        assert_eq!(s.stats().libraries_built, 1);
        assert_eq!(s.stats().programs_built, 1);
    }

    #[test]
    fn lint_walks_the_namespace_without_instantiating() {
        let s = server();
        assert!(s.lint("/bin/hello").unwrap().is_empty());
        s.namespace
            .bind_blueprint("/bin/broken", "(merge /obj/hello.o /nope)")
            .unwrap();
        let diags = s.lint("/bin/broken").unwrap();
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, "OM001");
        assert_eq!(s.stats().programs_built, 0, "lint builds nothing");
        assert!(matches!(
            s.lint("/no/such/path"),
            Err(OmosError::NoSuchName(_))
        ));
    }

    #[test]
    fn preflight_rejects_errors_before_any_work() {
        let s = server();
        s.set_preflight(true);
        s.namespace
            .bind_blueprint("/bin/broken", "(merge /obj/hello.o /nope)")
            .unwrap();
        match s.instantiate("/bin/broken") {
            Err(OmosError::Preflight(diags)) => {
                assert_eq!(diags.len(), 1);
                assert_eq!(diags[0].code, "OM001");
            }
            other => panic!("expected preflight rejection, got {other:?}"),
        }
        assert_eq!(s.stats().programs_built, 0, "rejected before eval/link");
        // Clean blueprints still instantiate, warnings don't block.
        assert!(s.instantiate("/bin/hello").is_ok());
    }

    #[test]
    fn tiny_image_budget_with_lanes_is_not_a_panic() {
        // Regression: with an image budget too small to keep anything
        // resident, a lane-scheduled build used to re-probe the cache
        // for an image it had just inserted (and the cache had already
        // evicted) and panicked on the missing entry. Linked images
        // must flow to the reply directly, not via a cache round-trip.
        let s = Omos::with_image_budget(CostModel::hpux(), Transport::SysVMsg, 1);
        s.set_eval_jobs(2);
        s.namespace.bind_object(
            "/obj/main.o",
            assemble(
                "main.o",
                ".text\n.global _start\n_start: call _a\n call _b\n sys 0\n",
            )
            .unwrap(),
        );
        s.namespace.bind_object(
            "/liba/a.o",
            assemble("a.o", ".text\n.global _a\n_a: li r1, 1\n ret\n").unwrap(),
        );
        s.namespace.bind_object(
            "/libb/b.o",
            assemble("b.o", ".text\n.global _b\n_b: li r1, 2\n ret\n").unwrap(),
        );
        s.namespace
            .bind_blueprint(
                "/lib/a",
                "(constraint-list \"T\" 0x1000000 \"D\" 0x41000000)\n(merge /liba/a.o)",
            )
            .unwrap();
        s.namespace
            .bind_blueprint(
                "/lib/b",
                "(constraint-list \"T\" 0x2000000 \"D\" 0x42000000)\n(merge /libb/b.o)",
            )
            .unwrap();
        s.namespace
            .bind_blueprint("/bin/two", "(merge /obj/main.o /lib/a /lib/b)")
            .unwrap();
        let reply = s.instantiate("/bin/two").unwrap();
        assert_eq!(reply.libraries.len(), 2);
        assert!(reply.program.image.entry.is_some());
    }

    #[test]
    fn second_instantiation_is_a_cache_hit() {
        let s = server();
        let first = s.instantiate("/bin/hello").unwrap();
        let second = s.instantiate("/bin/hello").unwrap();
        assert!(second.cache_hit);
        assert!(second.server_ns < first.server_ns);
        assert_eq!(s.stats().reply_cache_hits, 1);
        assert_eq!(s.stats().libraries_built, 1, "library built once");
        assert!(
            Arc::ptr_eq(&first.program, &second.program),
            "same physical frames"
        );
    }

    #[test]
    fn two_programs_share_one_library_instance() {
        let s = server();
        s.namespace.bind_object(
            "/obj/other.o",
            assemble(
                "other.o",
                ".text\n.global _start\n_start: call _puts\n call _puts\n sys 0\n",
            )
            .unwrap(),
        );
        s.namespace
            .bind_blueprint("/bin/other", "(merge /obj/other.o /lib/libc)")
            .unwrap();
        let a = s.instantiate("/bin/hello").unwrap();
        let b = s.instantiate("/bin/other").unwrap();
        assert!(Arc::ptr_eq(&a.libraries[0], &b.libraries[0]));
        assert_eq!(s.stats().libraries_built, 1);
    }

    #[test]
    fn rebinding_invalidates_replies() {
        let s = server();
        let first = s.instantiate("/bin/hello").unwrap();
        // Rebind the libc fragment: _puts now returns 9.
        s.namespace.bind_object(
            "/libc/stdio.o",
            assemble("stdio.o", ".text\n.global _puts\n_puts: li r1, 9\n ret\n").unwrap(),
        );
        let second = s.instantiate("/bin/hello").unwrap();
        assert!(!second.cache_hit, "stale reply must not be served");
        assert_ne!(
            first.libraries[0].image.content_hash(),
            second.libraries[0].image.content_hash()
        );
    }

    #[test]
    fn unrelated_binds_leave_replies_cached() {
        let s = server();
        let _ = s.instantiate("/bin/hello").unwrap();
        // A bind that /bin/hello never resolved must not evict it.
        s.namespace.bind_object(
            "/scratch/unrelated.o",
            assemble("u.o", ".text\nnop\n").unwrap(),
        );
        let second = s.instantiate("/bin/hello").unwrap();
        assert!(second.cache_hit, "selective invalidation keeps the reply");
        assert_eq!(s.stats().replies_built, 1);
    }

    #[test]
    fn warm_hits_share_rows_across_an_unrelated_bind() {
        let s = server();
        let _ = s.instantiate("/bin/hello").unwrap();
        let first = s.instantiate("/bin/hello").unwrap();
        s.namespace.bind_object(
            "/scratch/unrelated.o",
            assemble("u.o", ".text\nnop\n").unwrap(),
        );
        let second = s.instantiate("/bin/hello").unwrap();
        assert!(first.cache_hit && second.cache_hit);
        assert_eq!(s.stats().reply_cache_hits, 2);
        assert!(Arc::ptr_eq(&first.program, &second.program));
        assert_eq!(first.libraries.len(), second.libraries.len());
        for (a, b) in first.libraries.iter().zip(&second.libraries) {
            assert!(Arc::ptr_eq(a, b), "hits share the cached library images");
        }
        // The cached row holds the namespace's own blueprint, not a copy.
        let Some((Entry::Meta(bound), Some(key))) = s.namespace.lookup_keyed("/bin/hello") else {
            panic!("/bin/hello is a keyed meta-object");
        };
        let row = s
            .reply_cache
            .get(&key)
            .expect("row cached under the bind-time key");
        assert!(Arc::ptr_eq(&row.blueprint, &bound));
    }

    #[test]
    fn missing_name_and_bad_reference() {
        let s = server();
        assert!(matches!(
            s.instantiate("/bin/nope"),
            Err(OmosError::NoSuchName(_))
        ));
        s.namespace
            .bind_blueprint("/bin/broken", "(merge /no/such.o)")
            .unwrap();
        assert!(matches!(
            s.instantiate("/bin/broken"),
            Err(OmosError::Eval(_))
        ));
    }

    #[test]
    fn instantiate_bare_object() {
        let s = server();
        s.namespace.bind_object(
            "/obj/solo.o",
            assemble("solo.o", ".text\n.global _start\n_start: sys 0\n").unwrap(),
        );
        let reply = s.instantiate("/obj/solo.o").unwrap();
        assert!(reply.program.image.entry.is_some());
        assert!(reply.libraries.is_empty());
    }

    #[test]
    fn dyn_lookup_builds_once_then_resolves() {
        let s = server();
        s.namespace
            .bind_blueprint(
                "/bin/dyn",
                r#"(merge /obj/hello.o (specialize "lib-dynamic" /libc/stdio.o))"#,
            )
            .unwrap();
        let _ = s.instantiate("/bin/dyn").unwrap();
        assert_eq!(s.dynamic_lib_count(), 1);
        let r1 = s.dyn_lookup(0, "_puts").unwrap();
        assert!(r1.server_ns > 0, "first lookup builds the instance");
        let r2 = s.dyn_lookup(0, "_puts").unwrap();
        assert_eq!(r2.server_ns, 0, "instance cached");
        assert_eq!(r1.target, r2.target);
        assert!(s.dyn_lookup(0, "_missing").is_err());
        assert!(matches!(
            s.dyn_lookup(9, "_puts"),
            Err(OmosError::NoSuchLibrary(9))
        ));
    }

    #[test]
    fn program_with_undefined_reference_fails_to_link() {
        let s = server();
        s.namespace.bind_object(
            "/obj/bad.o",
            assemble(
                "bad.o",
                ".text\n.global _start\n_start: call _nowhere\n sys 0\n",
            )
            .unwrap(),
        );
        s.namespace
            .bind_blueprint("/bin/bad", "(merge /obj/bad.o)")
            .unwrap();
        assert!(matches!(s.instantiate("/bin/bad"), Err(OmosError::Link(_))));
    }
}

/// Reply to a dynamic-load request (§5's dld-like interface).
#[derive(Debug)]
pub struct DynamicLoadReply {
    /// The new class's mappable frames.
    pub frames: ImageFrames,
    /// "a list of symbols whose bound values are to be returned from
    /// OMOS" — resolved addresses for the names the client asked for.
    pub values: HashMap<String, u32>,
    /// Server CPU consumed.
    pub server_ns: u64,
}

impl Omos {
    /// Dynamically loads a class into a running program (§5): "a client
    /// program specifies the class to be loaded, any specializations to
    /// apply to the meta-object, and a list of symbols whose bound
    /// values are to be returned from OMOS. ... allowing the new classes
    /// to refer to procedures and data structures within the client."
    ///
    /// `client_exports` are the running program's own symbols; the new
    /// class's free references bind against them (the dld-style merge).
    /// The class is placed by the constraint solver so its segments
    /// cannot collide with any placed library.
    pub fn dynamic_load(
        &self,
        bp: &Blueprint,
        wanted: &[&str],
        client_exports: &HashMap<String, u32>,
    ) -> Result<DynamicLoadReply, OmosError> {
        self.counters.requests.fetch_add(1, Ordering::Relaxed);
        let _guard = self.tracer.begin_request(SpanKind::Request);
        let ctx = ReqCtx::new(self);
        let mut server_ns = self.cost.server_cached_request_ns;
        self.tracer.advance(self.cost.server_cached_request_ns);
        let span = self.tracer.open(SpanKind::Eval);
        let out = eval_blueprint(bp, &ctx);
        let eval_ns = out
            .as_ref()
            .map_or(0, |o| eval_work_ns(&o.stats, &self.cost));
        self.tracer.close_leaf(span, Stage::Eval, eval_ns);
        let out = out?;
        server_ns += eval_ns;

        // Resolve any referenced self-contained libraries first, then
        // bind the class against libraries + the client's own exports.
        let mut externs: BTreeMap<String, u32> = client_exports
            .iter()
            .map(|(s, &a)| (s.clone(), a))
            .collect();
        for lib in &out.libraries {
            let (img, ns, _) = self.instantiate_library(lib, &externs, false)?;
            server_ns += ns;
            for (s, a) in &img.image.symbols {
                externs.entry(s.clone()).or_insert(*a);
            }
        }
        let lib_use = LibraryUse {
            name: format!("<dynload:{}>", bp.hash()),
            key: out.module.content_hash().with_str("dynload"),
            module: out.module,
            constraints: out.constraints.clone(),
        };
        let (img, ns, _) = self.instantiate_library(&lib_use, &externs, false)?;
        server_ns += ns;

        let mut values = HashMap::new();
        for name in wanted {
            let addr = img
                .image
                .find(name)
                .ok_or_else(|| OmosError::Client(format!("`{name}` not defined by the class")))?;
            values.insert((*name).to_string(), addr);
        }
        self.counters.cpu_ns.fetch_add(server_ns, Ordering::Relaxed);
        Ok(DynamicLoadReply {
            frames: img.frames.clone(),
            values,
            server_ns,
        })
    }

    /// §7 "Implications for Other Programs": serves `nm`-style symbol
    /// listings directly from the server — "requesting only those
    /// portions of interest" instead of shipping a whole byte stream.
    pub fn query_symbols(&self, path: &str) -> Result<Vec<(String, bool)>, OmosError> {
        match self.namespace.lookup(path) {
            Some(Entry::Object(o)) => Ok(o
                .symbols
                .iter()
                .map(|s| (s.name.clone(), s.def.is_definition()))
                .collect()),
            Some(Entry::Meta(_)) => {
                let reply = self.instantiate(path)?;
                let mut v: Vec<(String, bool)> = reply
                    .program
                    .image
                    .symbols
                    .keys()
                    .map(|k| (k.clone(), true))
                    .collect();
                v.sort();
                Ok(v)
            }
            None => Err(OmosError::NoSuchName(path.to_string())),
        }
    }

    /// §7: `size`-style section totals without shipping contents.
    pub fn query_size(&self, path: &str) -> Result<(u64, u64, u64), OmosError> {
        match self.namespace.lookup(path) {
            Some(Entry::Object(o)) => Ok((
                o.size_of_kind(SectionKind::Text) + o.size_of_kind(SectionKind::RoData),
                o.size_of_kind(SectionKind::Data),
                o.size_of_kind(SectionKind::Bss),
            )),
            Some(Entry::Meta(_)) => {
                let reply = self.instantiate(path)?;
                let mut text = 0;
                let mut data = 0;
                let mut bss = 0;
                for seg in &reply.program.image.segments {
                    match seg.kind {
                        SectionKind::Text | SectionKind::RoData => text += seg.size(),
                        SectionKind::Data => data += seg.size(),
                        SectionKind::Bss => bss += seg.size(),
                    }
                }
                Ok((text, data, bss))
            }
            None => Err(OmosError::NoSuchName(path.to_string())),
        }
    }
}

impl Omos {
    /// Instantiates `path` with monitoring wrappers interposed around
    /// every routine matching `pattern` (§4.1/§6: "OMOS can
    /// transparently modify program executables to provide monitoring
    /// data"). The instrumented image is built outside the normal reply
    /// cache (it is a specialization, not the base instance) and the
    /// id→routine table is returned for decoding `MONLOG` events.
    pub fn instantiate_monitored(
        &self,
        path: &str,
        pattern: &str,
    ) -> Result<(InstantiateReply, Vec<String>), OmosError> {
        self.counters.requests.fetch_add(1, Ordering::Relaxed);
        let guard = self.tracer.begin_request(SpanKind::Request);
        let (bp, _) = self.root_blueprint(path)?;
        let ctx = ReqCtx::new(self);
        let mut server_ns = self.cost.server_cached_request_ns;
        self.tracer.advance(self.cost.server_cached_request_ns);
        let span = self.tracer.open(SpanKind::Eval);
        let out = eval_blueprint(&bp, &ctx);
        let eval_ns = out
            .as_ref()
            .map_or(0, |o| eval_work_ns(&o.stats, &self.cost));
        self.tracer.close_leaf(span, Stage::Eval, eval_ns);
        let out = out?;
        server_ns += eval_ns;

        let mut externs = BTreeMap::new();
        let mut libraries = Vec::with_capacity(out.libraries.len());
        for lib in &out.libraries {
            let (img, ns, _) = self.instantiate_library(lib, &externs, false)?;
            server_ns += ns;
            for (s, a) in &img.image.symbols {
                externs.entry(s.clone()).or_insert(*a);
            }
            libraries.push(img);
        }

        let (instrumented, id_names) =
            crate::monitor::instrument(&out.module, pattern).map_err(OmosError::Obj)?;
        let obj = instrumented.materialize().map_err(OmosError::Obj)?;
        let (text_base, data_base) = client_bases(&out.constraints);
        let mut opts = LinkOptions::program("monitored");
        opts.name = format!("<monitored:{path}>");
        opts.text_base = text_base;
        opts.data_base = data_base;
        opts.externs = link_externs(&obj, &externs);
        let span = self.tracer.open(SpanKind::Link);
        let linked = link(&[obj], &opts);
        let link_ns = linked
            .as_ref()
            .map_or(0, |l| link_work_ns(&l.stats, &self.cost));
        self.tracer.close_leaf(span, Stage::Link, link_ns);
        let linked = linked?;
        server_ns += link_ns;
        let image_key = instrumented
            .content_hash()
            .with_str("monitored")
            .with_u64(u64::from(text_base));
        let program = self.images.insert(CachedImage {
            key: image_key,
            frames: self.framed(&linked.image),
            image: linked.image,
            link_stats: linked.stats,
            rebuild_ns: link_ns,
            epoch: 0,
        });
        self.counters.cpu_ns.fetch_add(server_ns, Ordering::Relaxed);
        Ok((
            InstantiateReply {
                program,
                libraries,
                server_ns,
                latency_ns: server_ns,
                cache_hit: false,
                req: guard.req(),
                // A monitored specialization is built outside the reply
                // cache and carries no manifest.
                manifest: ContentHash(0),
            },
            id_names,
        ))
    }
}
