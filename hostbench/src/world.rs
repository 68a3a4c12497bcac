//! The inputs the workloads bind into OMOS, and the server-side
//! counters they read back.
//!
//! * the Table 1 world (`ls`, `ls -laF`, `codegen`) comes from
//!   [`omos_bench::Scenario`] at [`WorkloadSizes::default`];
//! * the fan-out world is the incremental-relink benchmark's program:
//!   one app calling into twelve 96-function libraries. It is placed
//!   clear of the Table 1 libraries so both worlds bind into one server
//!   with every library at its preferred address, whatever the order
//!   of the requests.

use std::fmt::Write as _;

use omos_bench::{Scenario, WorkloadSizes};
use omos_blueprint::{Blueprint, MNode};
use omos_constraint::RegionClass;
use omos_core::trace::TraceCounters;
use omos_core::{Entry, Omos, ServerStats};
use omos_isa::{assemble, StopReason};
use omos_link::{build_dyn_executable, build_dyn_library, DynLibrary};
use omos_obj::ObjectFile;
use omos_os::ipc::Transport;
use omos_os::{exec_native, CostModel, ImageFrames, InMemFs, NativeWorld, SimClock};

/// The Table 1 programs' namespace paths.
pub const TABLE1: [&str; 3] = ["/bin/ls", "/bin/ls-laF", "/bin/codegen"];

/// The fan-out program's namespace path.
pub const FANOUT_APP: &str = "/bin/app";

/// Libraries the fan-out app links against.
const FANOUT_LIBS: usize = 12;

/// Exported functions per fan-out library.
const FANOUT_FUNCS: usize = 96;

/// Instruction fuel for a sampled run under the VM.
pub const FUEL: u64 = 50_000_000;

/// The server's shipped cost profile.
#[must_use]
pub fn cost() -> CostModel {
    CostModel::hpux()
}

/// The server's shipped transport.
pub const TRANSPORT: Transport = Transport::SysVMsg;

/// The Table 1 world at its default sizes: a server with every object
/// and blueprint bound (nothing built yet) plus the native baseline.
#[must_use]
pub fn table1() -> Scenario {
    Scenario::build(WorkloadSizes::default(), cost(), TRANSPORT)
}

/// Source of fan-out library `i`: each function loads a constant and
/// tail-jumps to its ring successor, so the library carries one
/// relocation per function and a call into it returns (a nested `call`
/// would clobber the link register), which lets the app run to exit
/// under the VM.
fn fanout_lib_source(i: usize) -> String {
    let mut s = String::from(".text\n.global ");
    for j in 0..FANOUT_FUNCS {
        let _ = write!(s, "{}_l{i}_f{j}", if j == 0 { "" } else { ", " });
    }
    s.push('\n');
    for j in 0..FANOUT_FUNCS {
        let _ = writeln!(s, "_l{i}_f{j}: li r1, {}", 100 + j);
        if j + 1 < FANOUT_FUNCS {
            let _ = writeln!(s, " jmp _l{i}_f{}", j + 1);
        } else {
            let _ = writeln!(s, " ret");
        }
    }
    let _ = writeln!(s, ".data");
    let _ = writeln!(s, "_l{i}_tab: .asciz \"lib{i}.v0\"");
    s
}

/// The fan-out world: objects, blueprints and its native reference.
#[derive(Debug)]
pub struct FanOut {
    app: ObjectFile,
    libs: Vec<ObjectFile>,
}

impl FanOut {
    /// Assembles the app and its libraries.
    ///
    /// # Panics
    ///
    /// Panics if the generated sources fail to assemble (a generator bug).
    #[must_use]
    pub fn build() -> FanOut {
        let mut app = String::from(".text\n.global _start\n_start:");
        for i in 0..FANOUT_LIBS {
            let _ = writeln!(app, " call _l{i}_f0");
        }
        app.push_str(" sys 0\n");
        FanOut {
            app: assemble("app.o", &app).expect("fan-out app assembles"),
            libs: (0..FANOUT_LIBS)
                .map(|i| {
                    assemble(&format!("lib{i}.o"), &fanout_lib_source(i))
                        .expect("fan-out library assembles")
                })
                .collect(),
        }
    }

    /// Binds the world into `server`.
    ///
    /// # Panics
    ///
    /// Panics if a generated blueprint fails to parse (a generator bug).
    pub fn bind(&self, server: &Omos) {
        server
            .namespace
            .bind_object("/fan/obj/app.o", self.app.clone());
        let mut uses = String::from("(merge /fan/obj/app.o");
        for (i, lib) in self.libs.iter().enumerate() {
            server
                .namespace
                .bind_object(&format!("/fan/obj/lib{i}.o"), lib.clone());
            server
                .namespace
                .bind_blueprint(
                    &format!("/fan/lib/lib{i}"),
                    &format!(
                        "(constraint-list \"T\" {:#x} \"D\" {:#x})\n(merge /fan/obj/lib{i}.o)",
                        0x0800_0000 + i * 0x0040_0000,
                        0x4800_0000 + i * 0x0040_0000,
                    ),
                )
                .expect("fan-out library blueprint parses");
            let _ = write!(uses, " /fan/lib/lib{i}");
        }
        uses.push(')');
        server
            .namespace
            .bind_blueprint(FANOUT_APP, &uses)
            .expect("fan-out program blueprint parses");
    }

    /// How the app stops and what it prints when linked by the native
    /// dynamic linker: an independent link path to compare against.
    ///
    /// # Panics
    ///
    /// Panics if the native link fails (a generator bug).
    #[must_use]
    pub fn native_output(&self) -> (StopReason, Vec<u8>) {
        let cost = cost();
        let mut libs: Vec<DynLibrary> = Vec::with_capacity(FANOUT_LIBS);
        for (i, obj) in self.libs.iter().enumerate() {
            let deps: Vec<&DynLibrary> = libs.iter().collect();
            let lib = build_dyn_library(
                std::slice::from_ref(obj),
                &format!("lib{i}"),
                0x0200_0000 + (i as u32) * 0x0040_0000,
                0x4400_0000 + (i as u32) * 0x0040_0000,
                &deps,
            )
            .expect("native fan-out library links");
            libs.push(lib);
        }
        let exe = {
            let refs: Vec<&DynLibrary> = libs.iter().collect();
            build_dyn_executable(std::slice::from_ref(&self.app), "app", &refs)
                .expect("native fan-out app links")
        };
        let frames = ImageFrames::from_image(&exe.image);
        let world = NativeWorld::new(libs);
        let mut clock = SimClock::new();
        let (mut proc, mut binder) =
            exec_native(&world, &exe, &frames, &mut clock, &cost).expect("native exec");
        let out = omos_os::run_process(
            &mut proc,
            &mut clock,
            &cost,
            &mut InMemFs::new(),
            &mut binder,
            FUEL,
        );
        (out.stop, out.console)
    }
}

/// Binds a copy of `entries` (a namespace snapshot) into `server`.
pub fn bind_entries(entries: &[(String, Entry)], server: &Omos) {
    for (path, entry) in entries {
        match entry {
            Entry::Object(o) => server.namespace.bind_object(path, (**o).clone()),
            Entry::Meta(bp) => server.namespace.bind_meta(path, (**bp).clone()),
        }
    }
}

/// Renders a blueprint back to source text, for the forms the
/// benchmark's worlds use (`constraint-list`, `merge`, `initializers`
/// and namespace paths). `None` for anything else.
#[must_use]
pub fn render_blueprint(bp: &Blueprint) -> Option<String> {
    fn node(n: &MNode, out: &mut String) -> Option<()> {
        match n {
            MNode::Leaf(p) => out.push_str(p),
            MNode::Merge(items) => {
                out.push_str("(merge");
                for it in items {
                    out.push(' ');
                    node(it, out)?;
                }
                out.push(')');
            }
            MNode::Initializers(inner) => {
                out.push_str("(initializers ");
                node(inner, out)?;
                out.push(')');
            }
            _ => return None,
        }
        Some(())
    }
    if !bp.policies.is_empty() {
        return None;
    }
    let mut out = String::new();
    if !bp.constraints.is_empty() {
        out.push_str("(constraint-list");
        for (class, addr) in &bp.constraints {
            let tag = match class {
                RegionClass::Text => "T",
                RegionClass::Data => "D",
                RegionClass::PolicyData => return None,
            };
            let _ = write!(out, " \"{tag}\" {addr:#x}");
        }
        out.push_str(")\n");
    }
    node(&bp.root, &mut out)?;
    Some(out)
}

/// The object files a blueprint merges into its own image (not its
/// libraries), with their paths: the leaves that name objects, found
/// without descending into other meta-objects.
#[must_use]
pub fn client_objects(server: &Omos, bp: &Blueprint) -> Vec<(String, ObjectFile)> {
    fn walk(server: &Omos, n: &MNode, out: &mut Vec<(String, ObjectFile)>) {
        match n {
            MNode::Leaf(p) => {
                if let Some(Entry::Object(o)) = server.namespace.lookup(p) {
                    out.push((p.clone(), (*o).clone()));
                }
            }
            MNode::Merge(items) => items.iter().for_each(|i| walk(server, i, out)),
            MNode::Initializers(inner) => walk(server, inner, out),
            _ => {}
        }
    }
    let mut out = Vec::new();
    walk(server, &bp.root, &mut out);
    out
}

/// The meta-object blueprint bound at `path`.
#[must_use]
pub fn blueprint_at(server: &Omos, path: &str) -> Option<Blueprint> {
    match server.namespace.lookup(path) {
        Some(Entry::Meta(bp)) => Some((*bp).clone()),
        _ => None,
    }
}

/// Server-side counters the benchmark reads, as one snapshot.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// Server counters (`Omos::stats`).
    pub stats: ServerStats,
    /// Tracer counter families (`Omos::trace_snapshot().counters`).
    pub trace: TraceCounters,
}

impl Counts {
    /// Reads `server`'s counters now.
    #[must_use]
    pub fn of(server: &Omos) -> Counts {
        Counts {
            stats: server.stats(),
            trace: server.trace_snapshot().counters,
        }
    }

    /// Field-wise `self - before`.
    #[must_use]
    pub fn since(&self, before: &Counts) -> Counts {
        let mut out = *self;
        out.zip_with(before, |a, b| a - b);
        out
    }

    /// Field-wise `self += other`.
    pub fn add(&mut self, other: &Counts) {
        self.zip_with(other, |a, b| a + b);
    }

    fn zip_with(&mut self, other: &Counts, f: impl Fn(u64, u64) -> u64) {
        let s = &mut self.stats;
        let o = &other.stats;
        s.requests = f(s.requests, o.requests);
        s.reply_cache_hits = f(s.reply_cache_hits, o.reply_cache_hits);
        s.coalesced = f(s.coalesced, o.coalesced);
        s.replies_built = f(s.replies_built, o.replies_built);
        s.libraries_built = f(s.libraries_built, o.libraries_built);
        s.programs_built = f(s.programs_built, o.programs_built);
        s.cpu_ns = f(s.cpu_ns, o.cpu_ns);
        let t = &mut self.trace;
        let o = &other.trace;
        macro_rules! each {
            ($($name:ident),+) => { $(t.$name = f(t.$name, o.$name);)+ };
        }
        each!(
            reply_probes,
            reply_hits,
            eval_probes,
            eval_hits,
            image_probes,
            image_hits,
            image_evict_budget,
            tier2_spills,
            tier2_fault_ins,
            tier2_verify_drops,
            relink_partials,
            relink_reused_images,
            relink_relinked_libraries,
            relink_fallbacks,
            spans_recorded,
            restore_manifest_verified,
            restore_dropped
        );
    }
}

/// FNV-1a folding of 64-bit words: the benchmark's reply digests.
#[must_use]
pub fn fold(h: u64, word: u64) -> u64 {
    let mut h = if h == 0 { 0xcbf2_9ce4_8422_2325 } else { h };
    for b in word.to_le_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rendered_blueprints_parse_back_to_the_bound_ones() {
        let server = Omos::new(cost(), TRANSPORT);
        FanOut::build().bind(&server);
        for path in [FANOUT_APP, "/fan/lib/lib3"] {
            let bp = blueprint_at(&server, path).unwrap();
            let text = render_blueprint(&bp).unwrap();
            assert_eq!(Blueprint::parse(&text).unwrap(), bp, "{path}: {text}");
        }
    }

    #[test]
    fn client_objects_skip_library_meta_objects() {
        let server = Omos::new(cost(), TRANSPORT);
        FanOut::build().bind(&server);
        let bp = blueprint_at(&server, FANOUT_APP).unwrap();
        let objs = client_objects(&server, &bp);
        assert_eq!(objs.len(), 1);
        assert_eq!(objs[0].0, "/fan/obj/app.o");
        assert_eq!(objs[0].1.name, "app.o");
    }

    #[test]
    fn fanout_runs_natively_and_under_omos_alike() {
        let fan = FanOut::build();
        let (stop, console) = fan.native_output();
        // The last function of the last library leaves its constant in r1.
        assert_eq!(stop, StopReason::Exited(100 + FANOUT_FUNCS as u32 - 1));
        let server = Omos::new(cost(), TRANSPORT);
        fan.bind(&server);
        let mut clock = SimClock::new();
        let out = omos_core::run_under_omos(
            &server,
            FANOUT_APP,
            false,
            &mut clock,
            &cost(),
            &mut InMemFs::new(),
            FUEL,
        )
        .unwrap();
        assert_eq!(out.stop, stop);
        assert_eq!(out.console, console);
    }
}
