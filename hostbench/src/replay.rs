//! The layer replay: calls the public functions of each layer crate on
//! a workload's own inputs, one layer at a time, to time the layers the
//! server calls internally.
//!
//! The replay runs after the traced loop, so it inflates none of the
//! loop's numbers. Each layer is timed over `PASSES` passes through the
//! workload's programs; its metric is the median, over passes, of the
//! pass's mean time per call.

use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

use omos_analysis::manifest::client_bases;
use omos_analysis::relink::plan_relink;
use omos_blueprint::{
    eval_blueprint, Blueprint, CachedEval, EvalContext, EvalError, EvalOutput, ResolvedNode,
};
use omos_constraint::{PlacementRequest, PlacementSolver, RegionClass, SegmentRequest};
use omos_core::{Entry, Namespace, Omos};
use omos_link::{link, LinkOptions, LinkStats};
use omos_module::Module;
use omos_obj::{ContentHash, ObjectFile, SectionKind};
use omos_os::ipc::{charge_request, IpcStats};
use omos_os::{ImageFrames, InMemFs, Process, SimClock};

use crate::spans::Spans;
use crate::stats::median;
use crate::workload::{Checks, Workload};
use crate::world::{
    bind_entries, blueprint_at, client_objects, cost, render_blueprint, FanOut, FANOUT_APP,
    TRANSPORT,
};

/// Passes over the workload's programs per layer.
const PASSES: usize = 5;

/// Passes for the costly whole-server layers (persist, parallel build).
const SERVER_PASSES: usize = 3;

/// An [`EvalContext`] over a namespace with no caching: every
/// evaluation does its full work.
struct Uncached<'a>(&'a Namespace);

impl EvalContext for Uncached<'_> {
    fn resolve(&self, path: &str) -> Result<ResolvedNode, EvalError> {
        match self.0.lookup(path) {
            Some(Entry::Object(o)) => Ok(ResolvedNode::Object(o)),
            Some(Entry::Meta(m)) => Ok(ResolvedNode::Meta((*m).clone())),
            None => Err(EvalError::Resolve(path.to_string())),
        }
    }

    fn cache_get(&self, _key: ContentHash) -> Option<CachedEval> {
        None
    }

    fn cache_put(&self, _key: ContentHash, _module: &Module, _deps: &Arc<BTreeSet<String>>) {}

    fn register_dynamic_impl(&self, _key: ContentHash, _module: &Module) -> Result<u32, EvalError> {
        Err(EvalError::Resolve(
            "lib-dynamic is not replayed".to_string(),
        ))
    }
}

/// Per-call host ns of one layer, grouped by pass.
#[derive(Debug, Default)]
struct Layer {
    passes: Vec<Vec<u64>>,
}

impl Layer {
    fn record(&mut self, pass: usize, ns: u64) {
        if self.passes.len() <= pass {
            self.passes.resize_with(pass + 1, Vec::new);
        }
        self.passes[pass].push(ns);
    }

    /// Median over passes of the mean per call, in ns.
    fn ns(&self) -> f64 {
        let means: Vec<f64> = self
            .passes
            .iter()
            .filter(|p| !p.is_empty())
            .map(|p| p.iter().sum::<u64>() as f64 / p.len() as f64)
            .collect();
        if means.is_empty() {
            0.0
        } else {
            median(&means)
        }
    }
}

/// What the replay measured: `(metric, value, unit)` rows.
pub type Rows = Vec<(&'static str, f64, &'static str)>;

/// Placement request for a library, built the way the server builds it.
fn placement_request(
    name: &str,
    key: ContentHash,
    obj: &ObjectFile,
    cs: &[(RegionClass, u64)],
) -> PlacementRequest {
    let round = |v: u64| (v.max(1) + 4095) & !4095;
    let pref = |class| cs.iter().find(|(c, _)| *c == class).map(|(_, a)| *a);
    let text = obj.size_of_kind(SectionKind::Text) + obj.size_of_kind(SectionKind::RoData);
    let data = obj.size_of_kind(SectionKind::Data) + obj.size_of_kind(SectionKind::Bss);
    PlacementRequest {
        name: name.to_string(),
        key: key.0,
        segments: vec![
            SegmentRequest {
                class: RegionClass::Text,
                size: round(text),
                align: 4096,
                preferred: pref(RegionClass::Text),
            },
            SegmentRequest {
                class: RegionClass::Data,
                size: round(data),
                align: 4096,
                preferred: pref(RegionClass::Data),
            },
        ],
    }
}

/// Replays every layer on `w`'s inputs. Failures of the replay itself
/// (an input that no longer evaluates or links, or a replayed image
/// that differs from the server's) go into `checks`.
#[allow(clippy::too_many_lines)]
pub fn replay(w: &mut dyn Workload, spans: &mut Spans, checks: &mut Checks) -> Rows {
    let programs = w.replay_programs();
    let mut instantiate = Layer::default();
    for pass in 0..PASSES {
        let open = spans.enter("bench.replay.instantiate", pass as u64);
        for ns in w.instantiate_pass(spans) {
            instantiate.record(pass, ns);
        }
        spans.exit(open);
    }

    let server = w.replay_server();
    let cost = cost();
    let bps: Vec<Blueprint> = programs
        .iter()
        .filter_map(|p| blueprint_at(server, p))
        .collect();
    checks.expect(bps.len() == programs.len(), || {
        "a replayed program is not a meta-object".to_string()
    });
    let ctx = Uncached(&server.namespace);

    let mut layers: HashMap<&'static str, Layer> = HashMap::new();
    let mut relocations = 0u64;
    let mut sources: Vec<String> = Vec::new();
    for pass in 0..PASSES {
        let open = spans.enter("bench.replay.pass", pass as u64);
        let mut solver = PlacementSolver::new();
        for (i, (path, bp)) in programs.iter().zip(&bps).enumerate() {
            let req = i as u64;
            let mut rec =
                |name: &'static str, ns: u64| layers.entry(name).or_default().record(pass, ns);
            let (_, t) = spans.time("core.Namespace::lookup", req, || {
                server.namespace.lookup(path)
            });
            rec("lookup", t);
            let (_, t) = spans.time("blueprint.Blueprint::hash", req, || bp.hash());
            rec("hash", t);
            let (out, t) = spans.time("blueprint.eval_blueprint", req, || eval_blueprint(bp, &ctx));
            rec("eval", t);
            let out: EvalOutput = match out {
                Ok(o) => o,
                Err(e) => {
                    checks.expect(false, || format!("{path}: replayed eval failed: {e}"));
                    continue;
                }
            };
            if pass == 0 {
                sources.extend(render_blueprint(bp));
                for lib in &out.libraries {
                    if let Some(src) =
                        blueprint_at(server, &lib.name).and_then(|b| render_blueprint(&b))
                    {
                        sources.push(src);
                    }
                }
            }

            let modules: Vec<Module> = client_objects(server, bp)
                .into_iter()
                .map(|(_, obj)| Module::from_object(obj))
                .collect();
            let (merged, t) = spans.time("module.merge_all+initializers", req, || {
                Module::merge_all(&modules).and_then(|m| m.initializers())
            });
            rec("merge", t);
            checks.expect(merged.is_ok(), || format!("{path}: replayed merge failed"));

            // Libraries: place, link against the exports upstream of
            // them, frame. Then the program against all of them.
            let mut externs: HashMap<String, u32> = HashMap::new();
            let mut link_stats = LinkStats::default();
            let mut lib_hashes = Vec::new();
            let mut failed = false;
            for lib in &out.libraries {
                let Ok(obj) = lib.module.materialize() else {
                    failed = true;
                    break;
                };
                let preq = placement_request(&lib.name, lib.key, &obj, &lib.constraints);
                let (placed, t) = spans.time("constraint.PlacementSolver::place", req, || {
                    solver.place(&preq, &[])
                });
                rec("place", t);
                let Ok(placed) = placed else {
                    failed = true;
                    break;
                };
                let mut opts = LinkOptions::library(
                    &lib.name,
                    placed.allocations[0].base as u32,
                    placed.allocations[1].base as u32,
                );
                opts.externs = externs.clone();
                let (linked, t) =
                    spans.time("link.link", req, || link(std::slice::from_ref(&obj), &opts));
                rec("link", t);
                let Ok(linked) = linked else {
                    failed = true;
                    break;
                };
                let (_, t) = spans.time("os.ImageFrames::from_image", req, || {
                    ImageFrames::from_image(&linked.image)
                });
                rec("frame", t);
                link_stats.absorb(linked.stats);
                lib_hashes.push(linked.image.content_hash());
                for (s, a) in &linked.image.symbols {
                    externs.entry(s.clone()).or_insert(*a);
                }
            }
            let program = if failed {
                None
            } else {
                out.module.materialize().ok().and_then(|obj| {
                    let (text_base, data_base) = client_bases(&out.constraints);
                    let mut opts = LinkOptions::program("program");
                    opts.text_base = text_base;
                    opts.data_base = data_base;
                    opts.externs = externs;
                    let (linked, t) = spans.time("link.link", req, || link(&[obj], &opts));
                    rec("link", t);
                    let linked = linked.ok()?;
                    let (_, t) = spans.time("os.ImageFrames::from_image", req, || {
                        ImageFrames::from_image(&linked.image)
                    });
                    rec("frame", t);
                    link_stats.absorb(linked.stats);
                    Some(linked.image.content_hash())
                })
            };
            if pass == 0 {
                relocations += link_stats.relocs_applied;
            }

            // The replay must reproduce the server's own images.
            let reply = server.instantiate(path);
            if pass == 0 {
                let same = match (&reply, program) {
                    (Ok(r), Some(p)) => {
                        r.program.image.content_hash() == p
                            && r.libraries
                                .iter()
                                .map(|l| l.image.content_hash())
                                .eq(lib_hashes)
                    }
                    _ => false,
                };
                checks.expect(same, || {
                    format!("{path}: replayed link differs from the server's images")
                });
            }
            let Ok(reply) = reply else { continue };

            let (_, t) = spans.time("os.Process::spawn+map_more", req, || {
                let mut clock = SimClock::new();
                let mut proc = Process::spawn(&reply.program.frames, &mut clock, &cost)?;
                for lib in &reply.libraries {
                    proc.map_more(&lib.frames, &mut clock, &cost)?;
                }
                Ok::<_, String>(proc)
            });
            rec("map", t);
            let (_, t) = spans.time("os.ipc::charge_request", req, || {
                let mut clock = SimClock::new();
                let mut ipc = IpcStats::default();
                charge_request(
                    &mut clock,
                    &cost,
                    server.transport,
                    128,
                    &reply.reply_shape(),
                    reply.server_ns,
                    &mut ipc,
                );
                clock.elapsed_ns
            });
            rec("charge", t);
            let (_, t) = spans.time("analysis.Omos::explain", req, || server.explain(path));
            rec("explain", t);
        }
        for (i, src) in sources.iter().enumerate() {
            let (_, t) = spans.time("blueprint.Blueprint::parse", i as u64, || {
                Blueprint::parse(src)
            });
            layers.entry("parse").or_default().record(pass, t);
        }
        spans.exit(open);
    }

    // Rebind one library object of the first program on a copy of the
    // server's namespace, and plan the relink between the manifests
    // before and after. The copy also times `bind_object`.
    let copy = Omos::new(cost, TRANSPORT);
    let entries = server.namespace.entries();
    bind_entries(&entries, &copy);
    let first_lib = bps
        .first()
        .and_then(|bp| eval_blueprint(bp, &ctx).ok())
        .and_then(|out| {
            let lib = out.libraries.first()?;
            let lib_bp = blueprint_at(server, &lib.name)?;
            client_objects(server, &lib_bp)
                .into_iter()
                .next()
                .map(|(path, _)| path)
        });
    let mut plan = Layer::default();
    let mut bind = Layer::default();
    if let (Some(path), Some(obj_path)) = (programs.first(), first_lib) {
        let before = copy.explain(path);
        if let Some(Entry::Object(o)) = copy.namespace.lookup(&obj_path) {
            let mut changed = (*o).clone();
            if let Some(b) = changed.sections.iter_mut().find_map(|s| s.bytes.last_mut()) {
                *b ^= 0x5a;
            }
            copy.namespace.bind_object(&obj_path, changed);
        }
        let after = copy.explain(path);
        match (before, after) {
            (Ok(before), Ok(after)) => {
                checks.expect(before.hash() != after.hash(), || {
                    format!("{path}: rebinding {obj_path} left its manifest unchanged")
                });
                for pass in 0..PASSES {
                    for r in 0..8 {
                        let (_, t) =
                            spans.time("analysis.plan_relink", r, || plan_relink(&before, &after));
                        plan.record(pass, t);
                    }
                }
            }
            _ => checks.expect(false, || {
                format!("{path}: explain failed on the namespace copy")
            }),
        }
    }
    for pass in 0..PASSES {
        let objects = entries.iter().filter_map(|(path, e)| match e {
            Entry::Object(o) => Some((path, o)),
            Entry::Meta(_) => None,
        });
        for (i, (path, o)) in objects.enumerate().take(64) {
            let obj = (**o).clone();
            let (_, t) = spans.time("core.Namespace::bind_object", i as u64, || {
                copy.namespace.bind_object(path, obj)
            });
            bind.record(pass, t);
        }
    }

    // Persist: checkpoint the server, restore it, and serve the first
    // requests after the restore.
    let mut checkpoint = Layer::default();
    let mut restore = Layer::default();
    let mut first_reply = Layer::default();
    let (mut verified, mut dropped) = (0u64, 0u64);
    for pass in 0..SERVER_PASSES {
        let mut disk = InMemFs::new();
        let mut clock = SimClock::new();
        let (ok, t) = spans.time("core.Omos::checkpoint", pass as u64, || {
            server.checkpoint(&mut disk, &mut clock, "/ck")
        });
        checks.expect(ok.is_ok(), || "checkpoint failed".to_string());
        checkpoint.record(pass, t);
        let ((restored, report), t) = spans.time("core.Omos::restore", pass as u64, || {
            Omos::restore(cost, TRANSPORT, &mut disk, &mut clock, "/ck")
        });
        restore.record(pass, t);
        verified = report.manifest_verified as u64;
        dropped = report.dropped as u64;
        for (i, path) in programs.iter().enumerate() {
            let (_, t) = spans.time("core.Omos::instantiate", i as u64, || {
                restored.instantiate(path)
            });
            first_reply.record(pass, t);
        }
    }

    // Intra-request parallelism: the fan-out app's cold build at
    // `nproc` jobs against one job, in pairs alternating which runs
    // first.
    let fan = FanOut::build();
    let jobs = std::thread::available_parallelism().map_or(1, usize::from);
    let mut ratios = Vec::new();
    for pass in 0..SERVER_PASSES {
        let mut time_at = |j: usize| {
            let s = Omos::new(cost, TRANSPORT);
            fan.bind(&s);
            s.set_eval_jobs(j);
            spans
                .time("core.Omos::instantiate", pass as u64, || {
                    s.instantiate(FANOUT_APP)
                })
                .1 as f64
        };
        let (seq, par) = if pass % 2 == 0 {
            let s = time_at(1);
            (s, time_at(jobs))
        } else {
            let p = time_at(jobs);
            (time_at(1), p)
        };
        ratios.push(par / seq);
    }

    let us = |l: &Layer| l.ns() / 1e3;
    let get = |k: &str| layers.get(k).map_or(0.0, Layer::ns);
    vec![
        ("core.server.instantiate_us", us(&instantiate), "us"),
        ("core.server.parallel_build_ratio", median(&ratios), "ratio"),
        ("core.namespace.lookup_ns", get("lookup"), "ns"),
        ("core.namespace.bind_us", us(&bind), "us"),
        ("blueprint.parse_us", get("parse") / 1e3, "us"),
        ("blueprint.hash_ns", get("hash"), "ns"),
        ("blueprint.eval_us", get("eval") / 1e3, "us"),
        ("module.merge_us", get("merge") / 1e3, "us"),
        ("constraint.place_us", get("place") / 1e3, "us"),
        ("link.link_us", get("link") / 1e3, "us"),
        ("link.relocations", relocations as f64, "count"),
        ("os.memory.frame_us", get("frame") / 1e3, "us"),
        ("os.process.map_us", get("map") / 1e3, "us"),
        ("os.ipc.charge_ns", get("charge"), "ns"),
        ("analysis.explain_us", get("explain") / 1e3, "us"),
        ("analysis.plan_relink_us", us(&plan), "us"),
        ("core.persist.checkpoint_ms", checkpoint.ns() / 1e6, "ms"),
        ("core.persist.restore_ms", restore.ns() / 1e6, "ms"),
        ("core.persist.first_reply_us", us(&first_reply), "us"),
        ("core.persist.manifest_verified", verified as f64, "count"),
        ("core.persist.dropped", dropped as f64, "count"),
    ]
}
