//! `churn`: the 1k-program catalog under a Zipf (s = 1.1) stream of
//! `exec_bootstrap` requests, one thread, with every 16th operation a
//! write: `bind_object` of a popularity-sampled library, flipping it
//! between two content versions with the same exported symbols and
//! different bytes.
//!
//! The image cache is budgeted at a quarter of the live bytes an
//! unbounded server holds after the same warm-up stream, with
//! cost-aware eviction and the tier-2 spill store behind it. Rebinds
//! invalidate reply rows, so requests split between warm hits and
//! incremental relinks with image reuse, placement replay, eviction,
//! spill and fault-in.

use std::time::Instant;

use rand::rngs::StdRng;

use omos_bench::catalog::{lib_obj_path, program_path, SPILL_BUDGET_MULTIPLE};
use omos_bench::{CachePlan, Catalog, CatalogSpec, ZipfSampler};
use omos_core::{exec_bootstrap, InstantiateReply, Omos};
use omos_obj::{ContentHash, ObjectFile};
use omos_os::ipc::IpcStats;
use omos_os::SimClock;

use crate::spans::Spans;
use crate::workload::{buffer_bytes, ns, rng, Block, Budget, Checks, Workload};
use crate::world::{bind_entries, cost, fold, Counts, TRANSPORT};

/// Zipf exponent of program requests.
const REQUEST_S: f64 = 1.1;

/// Zipf exponent of which library a write rebinds (the catalog's own
/// library-popularity skew).
const WRITE_S: f64 = 0.9;

/// Every `WRITE_EVERY`-th operation is a write.
const WRITE_EVERY: u64 = 16;

/// Untimed warm-up operations: enough for the stream's working set to
/// be built and the image cache to be at its budget.
const WARM_OPS: u64 = 3_000;

/// Programs the post-run check rebuilds on a fresh server.
const CHECK_PROGRAMS: usize = 32;

/// The request stream: seeded draws plus each library's current
/// content version.
#[derive(Debug, Clone)]
struct Stream {
    rng: StdRng,
    programs: ZipfSampler,
    libraries: ZipfSampler,
    /// `true` where library `i` is bound at its second version.
    flipped: Vec<bool>,
    /// Operations issued so far.
    pos: u64,
}

/// One stream operation.
enum Op {
    /// Rebind library `lib` to this object.
    Write(usize, ObjectFile),
    /// Request program `p`.
    Exec(usize),
}

impl Stream {
    fn next(&mut self, catalog: &Catalog, second: &[ObjectFile]) -> Op {
        self.pos += 1;
        if self.pos.is_multiple_of(WRITE_EVERY) {
            let lib = self.libraries.sample(&mut self.rng);
            self.flipped[lib] = !self.flipped[lib];
            let obj = if self.flipped[lib] {
                &second[lib]
            } else {
                &catalog.lib_objects[lib]
            };
            Op::Write(lib, obj.clone())
        } else {
            Op::Exec(self.programs.sample(&mut self.rng))
        }
    }
}

/// A library's second content version: the same exported symbols at
/// the same offsets, different text bytes.
fn second_version(obj: &ObjectFile) -> ObjectFile {
    let mut v = obj.clone();
    for sec in &mut v.sections {
        for b in sec.bytes.iter_mut().skip(8) {
            *b = b.wrapping_add(1);
        }
    }
    v
}

/// The churn workload.
#[derive(Debug)]
pub struct Churn {
    catalog: Catalog,
    second: Vec<ObjectFile>,
    server: Omos,
    stream: Stream,
    seed: u64,
    /// Operations a second the warm-up completed.
    rate: f64,
    loop_failures: Checks,
}

impl Churn {
    /// Generates the catalog, sizes the budget from an unbounded run of
    /// the warm-up stream, and warms the budgeted server on it.
    #[must_use]
    pub fn setup(seed: u64) -> Churn {
        let catalog = Catalog::generate(CatalogSpec::small());
        let second: Vec<ObjectFile> = catalog.lib_objects.iter().map(second_version).collect();
        let stream = Stream {
            rng: rng(seed, 0),
            programs: ZipfSampler::new(catalog.spec.programs, REQUEST_S),
            libraries: ZipfSampler::new(catalog.spec.libraries, WRITE_S),
            flipped: vec![false; catalog.spec.libraries],
            pos: 0,
        };
        let unbounded = Omos::new(cost(), TRANSPORT);
        catalog.bind(&unbounded);
        let mut reference = Churn {
            catalog,
            second,
            server: unbounded,
            stream: stream.clone(),
            seed,
            rate: 0.0,
            loop_failures: Checks::default(),
        };
        let quiet = &mut Spans::new(Instant::now(), false);
        let _ = reference.run(Budget::Steps(WARM_OPS), quiet);
        let budget = (reference.server.images.bytes() / 4).max(1);
        // The unbounded server goes before the budgeted one is built.
        let Churn {
            catalog, second, ..
        } = reference;
        let plan = CachePlan::CostAwareTiered {
            budget,
            spill_budget: budget * SPILL_BUDGET_MULTIPLE,
        };
        let server = Omos::with_image_cache(cost(), TRANSPORT, plan.build(cost()));
        catalog.bind(&server);
        let mut w = Churn {
            catalog,
            second,
            server,
            stream,
            seed,
            rate: 0.0,
            loop_failures: Checks::default(),
        };
        let warm = w.run(Budget::Steps(WARM_OPS), quiet);
        w.rate = WARM_OPS as f64 / warm.wall.as_secs_f64();
        w
    }
}

/// What a reply commits to: its manifest and every image's content.
fn commitments(r: &InstantiateReply) -> Vec<ContentHash> {
    let mut v = vec![r.manifest, r.program.image.content_hash()];
    v.extend(r.libraries.iter().map(|l| l.image.content_hash()));
    v
}

impl Workload for Churn {
    fn tail_q(&self) -> f64 {
        0.99
    }

    fn rate(&self) -> f64 {
        self.rate
    }

    fn block_steps(&self) -> (u64, u64) {
        (400, 4_000)
    }

    fn run(&mut self, budget: Budget, spans: &mut Spans) -> Block {
        let cost = cost();
        let mut clock = SimClock::new();
        let mut ipc = IpcStats::default();
        let latency_ns = budget.sample_buffer(self.rate);
        let mut block = Block {
            sample_bytes: buffer_bytes(&latency_ns),
            latency_ns,
            ..Block::default()
        };
        let before = Counts::of(&self.server);
        let start = Instant::now();
        let mut steps = 0u64;
        while !budget.spent(start, steps) {
            steps += 1;
            let req = self.stream.pos;
            match self.stream.next(&self.catalog, &self.second) {
                Op::Write(lib, obj) => {
                    let path = lib_obj_path(lib);
                    let ns_ = &self.server.namespace;
                    let _ = spans.time("core.Namespace::bind_object", req, || {
                        ns_.bind_object(&path, obj);
                    });
                    block.digest = fold(block.digest, lib as u64);
                }
                Op::Exec(p) => {
                    let path = program_path(p);
                    let sim0 = clock.elapsed_ns;
                    let t0 = Instant::now();
                    let r = exec_bootstrap(&self.server, &path, &mut clock, &cost, &mut ipc);
                    let t1 = Instant::now();
                    spans.leaf("core.exec_bootstrap", req, t0, t1);
                    block.execs += 1;
                    match r {
                        Ok(proc) => {
                            block.latency_ns.push(ns(t0, t1));
                            let sim = clock.elapsed_ns - sim0;
                            block.digest = fold(
                                fold(fold(block.digest, p as u64), sim),
                                proc.space.mapped_pages(),
                            );
                        }
                        Err(e) => {
                            block.failed += 1;
                            self.loop_failures.expect(false, || format!("{path}: {e}"));
                        }
                    }
                }
            }
        }
        block.wall = start.elapsed();
        block.counts = Counts::of(&self.server).since(&before);
        block.image_bytes = self.server.images.bytes();
        block
    }

    /// A fresh, unbudgeted server bound with the final namespace state
    /// cold-builds a seeded sample of programs; its manifests and image
    /// contents must equal what the churned server hands out.
    fn check(&mut self) -> Checks {
        let mut checks = std::mem::take(&mut self.loop_failures);
        let fresh = Omos::new(cost(), TRANSPORT);
        bind_entries(&self.server.namespace.entries(), &fresh);
        let mut draw = rng(self.seed, 1);
        let mut picked: Vec<usize> = Vec::with_capacity(CHECK_PROGRAMS);
        while picked.len() < CHECK_PROGRAMS {
            let p = self.stream.programs.sample(&mut draw);
            if !picked.contains(&p) {
                picked.push(p);
            }
        }
        for p in picked {
            let path = program_path(p);
            let churned = self.server.instantiate(&path).map(|r| commitments(&r));
            let cold = fresh.instantiate(&path).map(|r| commitments(&r));
            checks.expect(
                matches!((&churned, &cold), (Ok(a), Ok(b)) if a == b),
                || format!("{path}: churned reply differs from a cold build of the same state"),
            );
        }
        checks
    }

    fn set_server_tracing(&mut self, on: bool) {
        self.server.set_tracing(on);
    }

    fn replay_server(&mut self) -> &Omos {
        &self.server
    }

    /// The most popular programs of the request distribution (rank
    /// order is the catalog's index order).
    fn replay_programs(&mut self) -> Vec<String> {
        (0..8).map(program_path).collect()
    }

    /// Continues the stream with `Omos::instantiate` in place of
    /// `exec_bootstrap`, writes included, timing the requests.
    fn instantiate_pass(&mut self, spans: &mut Spans) -> Vec<u64> {
        let mut out = Vec::new();
        for _ in 0..(2 * WRITE_EVERY) {
            let req = self.stream.pos;
            match self.stream.next(&self.catalog, &self.second) {
                Op::Write(lib, obj) => self.server.namespace.bind_object(&lib_obj_path(lib), obj),
                Op::Exec(p) => {
                    let path = program_path(p);
                    let server = &self.server;
                    out.push(
                        spans
                            .time("core.Omos::instantiate", req, || server.instantiate(&path))
                            .1,
                    );
                }
            }
        }
        out
    }
}
