//! `warm-exec`: the Table 1 world, warmed, under `min(2, nproc)`
//! closed-loop clients issuing `exec_bootstrap` over a seeded
//! equal-weight draw of `ls`, `ls -laF` and `codegen`.
//!
//! Every request is a reply-cache hit, so namespace lookup, blueprint
//! hash, reply-cache probe and revalidation, reply clone, IPC charge
//! and process mapping do all the work.

use std::time::Instant;

use rand::Rng;

use omos_bench::Scenario;
use omos_core::{exec_bootstrap, Omos, OmosBinder};
use omos_isa::StopReason;
use omos_obj::ContentHash;
use omos_os::ipc::IpcStats;
use omos_os::{Process, SimClock};

use crate::spans::Spans;
use crate::workload::{buffer_bytes, ns, rng, Block, Budget, Checks, Workload};
use crate::world::{cost, fold, table1, Counts, FUEL, TABLE1};

/// Untimed warm-up requests per client thread.
const WARM_REQUESTS: u64 = 3_000;

/// The warm-exec workload.
#[derive(Debug)]
pub struct WarmExec {
    scenario: Scenario,
    seed: u64,
    threads: usize,
    /// Loops run so far: each draws a fresh stream.
    loops: u64,
    /// Each program's manifest hash at its first build.
    first: Vec<ContentHash>,
    /// Pages each program's process maps.
    pages: Vec<u64>,
    /// Counters after warm-up.
    warm: Counts,
    /// Requests a second one client completed in the warm-up.
    rate: f64,
    /// Processes kept from the first loop after warm-up, run to exit
    /// by the checks.
    samples: Vec<(usize, Process)>,
    want_samples: bool,
    loop_failures: Checks,
}

impl WarmExec {
    /// Builds and warms the world.
    ///
    /// # Panics
    ///
    /// Panics if a program fails to build: the set-up itself is broken.
    #[must_use]
    pub fn setup(seed: u64) -> WarmExec {
        let scenario = table1();
        let server = &scenario.server;
        let cost = cost();
        let (mut first, mut pages) = (Vec::new(), Vec::new());
        for path in TABLE1 {
            let mut clock = SimClock::new();
            let proc = exec_bootstrap(server, path, &mut clock, &cost, &mut IpcStats::default())
                .expect("Table 1 program builds");
            pages.push(proc.space.mapped_pages());
            first.push(server.instantiate(path).expect("built program").manifest);
        }
        let threads = std::thread::available_parallelism()
            .map_or(1, usize::from)
            .min(2);
        let mut w = WarmExec {
            scenario,
            seed,
            threads,
            loops: 0,
            first,
            pages,
            warm: Counts::default(),
            rate: 0.0,
            samples: Vec::new(),
            want_samples: false,
            loop_failures: Checks::default(),
        };
        let warm = w.run(
            Budget::Steps(WARM_REQUESTS * threads as u64),
            &mut Spans::new(Instant::now(), false),
        );
        w.rate = WARM_REQUESTS as f64 / warm.wall.as_secs_f64();
        w.want_samples = true;
        w.warm = Counts::of(&w.scenario.server);
        w
    }
}

/// One client thread's share of a loop.
#[derive(Debug, Default)]
struct Client {
    latency_ns: Vec<u32>,
    failed: u64,
    digest: u64,
    samples: Vec<(usize, Process)>,
    bad_pages: u64,
}

#[allow(clippy::too_many_arguments)]
fn client(
    server: &Omos,
    pages: &[u64],
    budget: Budget,
    buffer: Vec<u32>,
    mut rng: rand::rngs::StdRng,
    thread: u64,
    keep_samples: bool,
    spans: &mut Spans,
) -> Client {
    let cost = cost();
    let mut clock = SimClock::new();
    let mut ipc = IpcStats::default();
    let mut c = Client {
        latency_ns: buffer,
        ..Client::default()
    };
    let start = Instant::now();
    let mut i = 0u64;
    while !budget.spent(start, i) {
        let p = rng.gen_range(0..TABLE1.len());
        let sim0 = clock.elapsed_ns;
        let t0 = Instant::now();
        let r = exec_bootstrap(server, TABLE1[p], &mut clock, &cost, &mut ipc);
        let t1 = Instant::now();
        spans.leaf("core.exec_bootstrap", (thread << 40) | i, t0, t1);
        match r {
            Ok(proc) => {
                c.latency_ns.push(ns(t0, t1));
                let sim = clock.elapsed_ns - sim0;
                let mapped = proc.space.mapped_pages();
                c.digest = fold(fold(fold(c.digest, p as u64), sim), mapped);
                if mapped != pages[p] {
                    c.bad_pages += 1;
                }
                if keep_samples && !c.samples.iter().any(|(q, _)| *q == p) {
                    c.samples.push((p, proc));
                }
            }
            Err(_) => c.failed += 1,
        }
        i += 1;
    }
    c
}

impl Workload for WarmExec {
    fn tail_q(&self) -> f64 {
        0.99
    }

    fn rate(&self) -> f64 {
        self.rate * self.threads as f64
    }

    fn block_steps(&self) -> (u64, u64) {
        (4_000, 20_000)
    }

    fn run(&mut self, budget: Budget, spans: &mut Spans) -> Block {
        let threads = self.threads as u64;
        // A step budget is split evenly across the clients, so the
        // per-thread streams (and their digests) repeat exactly.
        let budget = match budget {
            Budget::Steps(n) => Budget::Steps(n.div_ceil(threads)),
            time => time,
        };
        let keep_samples = std::mem::take(&mut self.want_samples);
        let seed = self.seed;
        let loop_id = self.loops;
        self.loops += 1;
        let server = &self.scenario.server;
        let pages = &self.pages;
        let rate = self.rate;
        // Client 0's sample buffer has room for every client's samples,
        // so merging them after the loop allocates nothing.
        let mut buffers: Vec<Vec<u32>> = (0..threads)
            .map(|t| {
                let share = if t == 0 { threads } else { 1 };
                match budget {
                    Budget::Steps(n) => Budget::Steps(n * share).sample_buffer(0.0),
                    time => time.sample_buffer(rate * share as f64),
                }
            })
            .collect();
        let sample_bytes = buffers.iter().map(buffer_bytes).sum();
        let before = Counts::of(server);
        let start = Instant::now();
        let clients: Vec<(Client, Spans)> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    let mut sp = spans.fork(t + 1);
                    let r = rng(seed, (loop_id << 8) | t);
                    let buffer = std::mem::take(&mut buffers[t as usize]);
                    s.spawn(move || {
                        let c = client(server, pages, budget, buffer, r, t, keep_samples, &mut sp);
                        (c, sp)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        let wall = start.elapsed();
        let mut clients = clients;
        let mut block = Block {
            latency_ns: std::mem::take(&mut clients[0].0.latency_ns),
            sample_bytes,
            wall,
            counts: Counts::of(server).since(&before),
            image_bytes: server.images.bytes(),
            ..Block::default()
        };
        for (c, sp) in clients {
            spans.absorb(sp);
            block.latency_ns.extend(c.latency_ns);
            block.failed += c.failed;
            // Clients run concurrently: combine their digests in an
            // order-independent way.
            block.digest = block.digest.wrapping_add(c.digest);
            self.loop_failures.expect(c.bad_pages == 0, || {
                format!("{} processes mapped the wrong number of pages", c.bad_pages)
            });
            self.samples.extend(c.samples);
        }
        block.execs = block.latency_ns.len() as u64 + block.failed;
        block
    }

    fn check(&mut self) -> Checks {
        let mut checks = std::mem::take(&mut self.loop_failures);
        let server = &self.scenario.server;
        // Nothing was built after warm-up, so every reply handed out
        // was the cached reply of the program's first build.
        let d = Counts::of(server).since(&self.warm).stats;
        checks.expect(
            d.replies_built == 0 && d.reply_cache_hits == d.requests,
            || format!("warm loop built replies: {d:?}"),
        );
        for (i, path) in TABLE1.iter().enumerate() {
            let r = server.instantiate(path);
            checks.expect(
                r.as_ref()
                    .is_ok_and(|r| r.cache_hit && r.manifest == self.first[i]),
                || format!("{path}: reply manifest differs from the first build"),
            );
        }
        let cost = cost();
        for (p, mut proc) in std::mem::take(&mut self.samples) {
            let name = TABLE1[p].trim_start_matches("/bin/");
            let native = self.scenario.run_native(name);
            let mut clock = SimClock::new();
            let out = omos_os::run_process(
                &mut proc,
                &mut clock,
                &cost,
                &mut self.scenario.fs,
                &mut OmosBinder::new(&self.scenario.server),
                FUEL,
            );
            checks.expect(
                out.stop == StopReason::Exited(0)
                    && native.as_ref().is_ok_and(|(_, n)| *n == out.console),
                || format!("{name}: output under OMOS differs from the native run"),
            );
        }
        checks
    }

    fn set_server_tracing(&mut self, on: bool) {
        self.scenario.server.set_tracing(on);
    }

    fn replay_server(&mut self) -> &Omos {
        &self.scenario.server
    }

    fn replay_programs(&mut self) -> Vec<String> {
        TABLE1.iter().map(|p| (*p).to_string()).collect()
    }

    fn instantiate_pass(&mut self, spans: &mut Spans) -> Vec<u64> {
        let server = &self.scenario.server;
        TABLE1
            .iter()
            .enumerate()
            .map(|(i, p)| {
                spans
                    .time("core.Omos::instantiate", i as u64, || server.instantiate(p))
                    .1
            })
            .collect()
    }
}
