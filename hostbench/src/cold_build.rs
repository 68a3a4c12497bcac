//! `cold-build`: each iteration binds the Table 1 world plus the
//! fan-out app into a fresh server (untimed), then `exec_bootstrap`s
//! every program once, in a seeded order, on one thread.
//!
//! Every request misses every cache, so eval, module merge, placement,
//! link/relocate, framing and manifest sealing do the work. The timed
//! operation is the whole cold build: from the first request on the
//! empty server until every program has been served.

use std::time::Instant;

use omos_bench::Scenario;
use omos_core::{exec_bootstrap, Entry, Omos, OmosBinder};
use omos_isa::StopReason;
use omos_obj::ContentHash;
use omos_os::ipc::IpcStats;
use omos_os::{Process, SimClock};

use crate::spans::Spans;
use crate::workload::{buffer_bytes, ns, rng, shuffled, Block, Budget, Checks, Workload};
use crate::world::{
    bind_entries, cost, fold, table1, Counts, FanOut, FANOUT_APP, FUEL, TABLE1, TRANSPORT,
};

/// The cold-build workload.
#[derive(Debug)]
pub struct ColdBuild {
    scenario: Scenario,
    fan: FanOut,
    /// The bound (never built) namespace each iteration copies.
    entries: Vec<(String, Entry)>,
    programs: Vec<&'static str>,
    seed: u64,
    /// Iterations run so far (each draws its own request order).
    iterations: u64,
    /// Iterations a second of the untimed first one.
    rate: f64,
    tracing: bool,
    /// Each program's manifest hash at its first build.
    first: Vec<ContentHash>,
    /// One iteration's server and processes, run to exit by the checks.
    sample: Option<(Omos, Vec<(usize, Process)>)>,
    want_sample: bool,
    /// A server with every program built, for the layer replay.
    built: Option<Omos>,
    loop_failures: Checks,
}

impl ColdBuild {
    /// Builds the template namespace and runs one untimed iteration,
    /// which records each program's first manifest.
    #[must_use]
    pub fn setup(seed: u64) -> ColdBuild {
        let scenario = table1();
        let fan = FanOut::build();
        fan.bind(&scenario.server);
        let entries = scenario.server.namespace.entries();
        let mut programs: Vec<&'static str> = TABLE1.to_vec();
        programs.push(FANOUT_APP);
        let mut w = ColdBuild {
            scenario,
            fan,
            entries,
            programs,
            seed,
            iterations: 0,
            rate: 0.0,
            tracing: true,
            first: Vec::new(),
            sample: None,
            want_sample: false,
            built: None,
            loop_failures: Checks::default(),
        };
        let first = w.run(Budget::Steps(1), &mut Spans::new(Instant::now(), false));
        w.rate = 1.0 / first.wall.as_secs_f64();
        w.want_sample = true;
        w
    }

    /// A fresh server with the template namespace bound.
    fn fresh(&self) -> Omos {
        let server = Omos::new(cost(), TRANSPORT);
        server.set_tracing(self.tracing);
        bind_entries(&self.entries, &server);
        server
    }
}

impl Workload for ColdBuild {
    fn tail_q(&self) -> f64 {
        0.9
    }

    fn rate(&self) -> f64 {
        self.rate
    }

    fn block_steps(&self) -> (u64, u64) {
        (2, 12)
    }

    fn run(&mut self, budget: Budget, spans: &mut Spans) -> Block {
        let cost = cost();
        let latency_ns = budget.sample_buffer(self.rate);
        let mut block = Block {
            sample_bytes: buffer_bytes(&latency_ns),
            latency_ns,
            ..Block::default()
        };
        let start = Instant::now();
        let mut steps = 0u64;
        while !budget.spent(start, steps) {
            steps += 1;
            let it = self.iterations;
            self.iterations += 1;
            let order = shuffled(self.programs.len(), &mut rng(self.seed, it));
            let server = self.fresh();
            let mut clock = SimClock::new();
            let mut ipc = IpcStats::default();
            let mut procs: Vec<(usize, Process)> = Vec::with_capacity(order.len());
            let mut sims = Vec::with_capacity(order.len());
            let mut failed = false;
            let open = spans.enter("bench.cold_build", it);
            let t0 = Instant::now();
            for &p in &order {
                let sim0 = clock.elapsed_ns;
                let (r, _) = spans.time("core.exec_bootstrap", it, || {
                    exec_bootstrap(&server, self.programs[p], &mut clock, &cost, &mut ipc)
                });
                sims.push(clock.elapsed_ns - sim0);
                match r {
                    Ok(proc) => procs.push((p, proc)),
                    Err(_) => failed = true,
                }
            }
            let t1 = Instant::now();
            spans.exit(open);
            block.execs += order.len() as u64;
            if failed {
                block.failed += 1;
            } else {
                block.latency_ns.push(ns(t0, t1));
            }
            block.counts.add(&Counts::of(&server));
            block.image_bytes = server.images.bytes();
            for ((p, proc), sim) in procs.iter().zip(&sims) {
                block.digest = fold(
                    fold(fold(block.digest, *p as u64), *sim),
                    proc.space.mapped_pages(),
                );
            }
            // Every program's reply must commit to the resolution of its
            // first build, whatever order the programs were built in.
            for (i, path) in self.programs.iter().enumerate() {
                let manifest = server.instantiate(path).map(|r| r.manifest);
                match (self.first.get(i), manifest) {
                    (_, Err(e)) => self.loop_failures.expect(false, || format!("{path}: {e}")),
                    (None, Ok(m)) => self.first.push(m),
                    (Some(f), Ok(m)) => self.loop_failures.expect(*f == m, || {
                        format!("{path}: manifest differs from the first build")
                    }),
                }
            }
            if std::mem::take(&mut self.want_sample) {
                self.sample = Some((server, procs));
            }
        }
        block.wall = start.elapsed();
        block
    }

    fn check(&mut self) -> Checks {
        let mut checks = std::mem::take(&mut self.loop_failures);
        let cost = cost();
        if let Some((server, procs)) = self.sample.take() {
            for (p, mut proc) in procs {
                let path = self.programs[p];
                let native = if path == FANOUT_APP {
                    Ok(self.fan.native_output())
                } else {
                    self.scenario
                        .run_native(path.trim_start_matches("/bin/"))
                        .map(|(_, console)| (StopReason::Exited(0), console))
                };
                let mut clock = SimClock::new();
                let out = omos_os::run_process(
                    &mut proc,
                    &mut clock,
                    &cost,
                    &mut self.scenario.fs,
                    &mut OmosBinder::new(&server),
                    FUEL,
                );
                checks.expect(
                    native.is_ok_and(|(stop, console)| {
                        matches!(stop, StopReason::Exited(_))
                            && stop == out.stop
                            && console == out.console
                    }),
                    || format!("{path}: output under OMOS differs from the native run"),
                );
            }
        }
        checks
    }

    fn set_server_tracing(&mut self, on: bool) {
        self.tracing = on;
    }

    fn replay_server(&mut self) -> &Omos {
        if self.built.is_none() {
            let server = self.fresh();
            for path in &self.programs {
                let _ = server.instantiate(path);
            }
            self.built = Some(server);
        }
        self.built.as_ref().expect("built above")
    }

    fn replay_programs(&mut self) -> Vec<String> {
        self.programs.iter().map(|p| (*p).to_string()).collect()
    }

    fn instantiate_pass(&mut self, spans: &mut Spans) -> Vec<u64> {
        let server = self.fresh();
        self.programs
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
