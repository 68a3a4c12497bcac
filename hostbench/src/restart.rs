//! `restart`: the warmed Table 1 world is checkpointed once during
//! set-up; each iteration runs `Omos::restore` into a fresh server,
//! then one `exec_bootstrap` of every checkpointed program in a seeded
//! order, on one thread.
//!
//! Persist decode and verification, and the manifest re-derivation
//! behind restore, do nearly all the work. The timed operation runs
//! from the start of the restore until every program has been served.

use std::time::Instant;

use omos_core::{exec_bootstrap, Omos};
use omos_obj::ContentHash;
use omos_os::ipc::IpcStats;
use omos_os::{InMemFs, SimClock};

use crate::spans::Spans;
use crate::workload::{buffer_bytes, ns, rng, shuffled, Block, Budget, Checks, Workload};
use crate::world::{cost, fold, table1, Counts, TABLE1, TRANSPORT};

/// Checkpoint directory in the simulated filesystem.
const DIR: &str = "/var/omos";

/// The restart workload.
#[derive(Debug)]
pub struct Restart {
    /// The simulated disk holding the checkpoint.
    disk: InMemFs,
    seed: u64,
    iterations: u64,
    /// Iterations a second of the untimed first one.
    rate: f64,
    tracing: bool,
    /// Each program's manifest hash before the checkpoint.
    before: Vec<ContentHash>,
    /// The last restored server, for the layer replay.
    last: Option<Omos>,
    loop_failures: Checks,
}

impl Restart {
    /// Builds and warms the world, checkpoints it, and runs one untimed
    /// iteration.
    ///
    /// # Panics
    ///
    /// Panics if a program fails to build or the checkpoint fails: the
    /// set-up itself is broken.
    #[must_use]
    pub fn setup(seed: u64) -> Restart {
        let scenario = table1();
        let cost = cost();
        let mut clock = SimClock::new();
        let mut before = Vec::new();
        for path in TABLE1 {
            exec_bootstrap(
                &scenario.server,
                path,
                &mut clock,
                &cost,
                &mut IpcStats::default(),
            )
            .expect("Table 1 program builds");
            before.push(scenario.server.instantiate(path).expect("built").manifest);
        }
        let mut disk = InMemFs::new();
        scenario
            .server
            .checkpoint(&mut disk, &mut clock, DIR)
            .expect("checkpoint writes");
        let mut w = Restart {
            disk,
            seed,
            iterations: 0,
            rate: 0.0,
            tracing: true,
            before,
            last: None,
            loop_failures: Checks::default(),
        };
        let first = w.run(Budget::Steps(1), &mut Spans::new(Instant::now(), false));
        w.rate = 1.0 / first.wall.as_secs_f64();
        w
    }

    fn restore(&mut self, clock: &mut SimClock) -> (Omos, omos_core::RestoreReport) {
        Omos::restore(cost(), TRANSPORT, &mut self.disk, clock, DIR)
    }
}

impl Workload for Restart {
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
            let order = shuffled(TABLE1.len(), &mut rng(self.seed, it));
            let mut clock = SimClock::new();
            let mut ipc = IpcStats::default();
            let mut sims = Vec::with_capacity(order.len());
            let mut failed = false;
            let open = spans.enter("bench.restart", it);
            let t0 = Instant::now();
            let ((server, report), _) =
                spans.time("core.Omos::restore", it, || self.restore(&mut clock));
            server.set_tracing(self.tracing);
            let served = Counts::of(&server);
            let mut procs = Vec::with_capacity(order.len());
            for &p in &order {
                let sim0 = clock.elapsed_ns;
                let (r, _) = spans.time("core.exec_bootstrap", it, || {
                    exec_bootstrap(&server, TABLE1[p], &mut clock, &cost, &mut ipc)
                });
                sims.push(clock.elapsed_ns - sim0);
                match r {
                    Ok(proc) => procs.push(proc),
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
            let d = Counts::of(&server).since(&served);
            block.counts.add(&d);
            block.image_bytes = server.images.bytes();
            for ((&p, sim), proc) in order.iter().zip(&sims).zip(&procs) {
                block.digest = fold(
                    fold(fold(block.digest, p as u64), *sim),
                    proc.space.mapped_pages(),
                );
            }
            let f = &mut self.loop_failures;
            f.expect(report.dropped == 0 && !report.cold, || {
                format!(
                    "restore dropped {} entries: {:?}",
                    report.dropped, report.drops
                )
            });
            f.expect(
                d.stats.replies_built == 0 && d.stats.reply_cache_hits == TABLE1.len() as u64,
                || {
                    format!(
                        "first requests after restore were not all reply hits: {:?}",
                        d.stats
                    )
                },
            );
            for (i, path) in TABLE1.iter().enumerate() {
                let m = server.instantiate(path).map(|r| r.manifest);
                f.expect(m.as_ref().is_ok_and(|m| *m == self.before[i]), || {
                    format!("{path}: manifest after restore differs from before the checkpoint")
                });
            }
            self.last = Some(server);
        }
        block.wall = start.elapsed();
        block
    }

    fn check(&mut self) -> Checks {
        std::mem::take(&mut self.loop_failures)
    }

    fn set_server_tracing(&mut self, on: bool) {
        self.tracing = on;
    }

    fn replay_server(&mut self) -> &Omos {
        if self.last.is_none() {
            let (server, _) = self.restore(&mut SimClock::new());
            self.last = Some(server);
        }
        self.last.as_ref().expect("restored above")
    }

    fn replay_programs(&mut self) -> Vec<String> {
        TABLE1.iter().map(|p| (*p).to_string()).collect()
    }

    /// Times the first `Omos::instantiate` of each program after a
    /// restore.
    fn instantiate_pass(&mut self, spans: &mut Spans) -> Vec<u64> {
        let (server, _) = self.restore(&mut SimClock::new());
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
