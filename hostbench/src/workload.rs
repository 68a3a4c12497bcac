//! What every workload provides: a closed loop over the server's public
//! API, output checks, and the inputs the layer replay reuses.

use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use omos_core::Omos;

use crate::spans::Spans;
use crate::world::Counts;

/// How much of the loop one call runs.
#[derive(Debug, Clone, Copy)]
pub enum Budget {
    /// Until this much host time has passed.
    Time(Duration),
    /// Exactly this many loop steps (deterministic counts).
    Steps(u64),
}

impl Budget {
    /// Whether a loop that started at `start` and has run `steps`
    /// steps is done.
    #[must_use]
    pub fn spent(&self, start: Instant, steps: u64) -> bool {
        match *self {
            Budget::Time(d) => start.elapsed() >= d,
            Budget::Steps(n) => steps >= n,
        }
    }

    /// A latency-sample buffer for a loop that completed `per_second`
    /// timed operations a second in its untimed warm-up, with room for
    /// [`HEADROOM`] times that rate. Its pages are touched up front, so
    /// recording samples does not grow the process while
    /// `peak_rss_mb` is being measured.
    #[must_use]
    pub fn sample_buffer(&self, per_second: f64) -> Vec<u32> {
        let cap = match *self {
            Budget::Time(d) => (d.as_secs_f64() * per_second * HEADROOM).ceil() as usize,
            Budget::Steps(n) => usize::try_from(n).unwrap_or(usize::MAX),
        };
        let mut v = Vec::with_capacity(cap.max(1));
        v.resize(v.capacity(), 1);
        v.clear();
        v
    }
}

/// How much faster than its warm-up a loop may run before its sample
/// buffer has to grow.
pub const HEADROOM: f64 = 2.0;

/// Bytes of a sample buffer's allocation.
#[must_use]
pub fn buffer_bytes(v: &Vec<u32>) -> u64 {
    (v.capacity() * std::mem::size_of::<u32>()) as u64
}

/// What one run of the loop measured.
#[derive(Debug, Default)]
pub struct Block {
    /// Host ns of every completed timed operation.
    pub latency_ns: Vec<u32>,
    /// Bytes of the sample buffers the loop allocated before it
    /// started, all resident while it ran.
    pub sample_bytes: u64,
    /// Timed operations that failed.
    pub failed: u64,
    /// Exec requests issued (the throughput unit).
    pub execs: u64,
    /// Host time of the whole loop, untimed per-iteration set-up
    /// included.
    pub wall: Duration,
    /// Server counters accumulated over the loop.
    pub counts: Counts,
    /// Image-cache bytes resident when the loop ended.
    pub image_bytes: u64,
    /// Digest of every reply the loop received (sim cost, pages
    /// mapped, program), in request order per thread.
    pub digest: u64,
}

/// Outcome of a workload's output checks.
#[derive(Debug, Default)]
pub struct Checks {
    /// Checks made.
    pub attempted: u64,
    /// One line per failed check.
    pub failures: Vec<String>,
}

impl Checks {
    /// Records one check.
    pub fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok && self.failures.len() < 32 {
            self.failures.push(what());
        }
    }

    /// Folds another set of checks into this one.
    pub fn absorb(&mut self, other: Checks) {
        self.attempted += other.attempted;
        for f in other.failures {
            if self.failures.len() < 32 {
                self.failures.push(f);
            }
        }
    }
}

/// One workload.
pub trait Workload {
    /// The fixed tail quantile its timings report.
    fn tail_q(&self) -> f64;

    /// Timed operations a second, all clients together, that the
    /// untimed warm-up of the set-up completed.
    fn rate(&self) -> f64;

    /// Loop steps in a block of the traced run's interleaved
    /// comparisons, and in its deterministic count pass.
    fn block_steps(&self) -> (u64, u64);

    /// Runs the closed loop for `budget`.
    fn run(&mut self, budget: Budget, spans: &mut Spans) -> Block;

    /// Output checks over everything run so far, plus the failures
    /// the loop itself recorded.
    fn check(&mut self) -> Checks;

    /// Turns the server's built-in tracer on or off for later loops.
    fn set_server_tracing(&mut self, on: bool);

    /// A server holding the workload's inputs with its programs built,
    /// for the layer replay.
    fn replay_server(&mut self) -> &Omos;

    /// The programs the layer replay walks.
    fn replay_programs(&mut self) -> Vec<String>;

    /// Host ns of `Omos::instantiate` calls made the way the workload
    /// makes its requests (warm hits, cold builds, requests among
    /// rebinds, or first requests after a restore).
    fn instantiate_pass(&mut self, spans: &mut Spans) -> Vec<u64>;
}

/// A per-purpose generator derived from the run's seed, so that
/// independent streams (loop, checks, replay) never share draws.
#[must_use]
pub fn rng(seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// A seeded permutation of `0..n`.
pub fn shuffled(n: usize, rng: &mut StdRng) -> Vec<usize> {
    let mut v: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = rng.gen_range(0..i + 1);
        v.swap(i, j);
    }
    v
}

/// Host ns between two instants, saturating at `u32::MAX` (4.3 s).
#[must_use]
pub fn ns(a: Instant, b: Instant) -> u32 {
    u32::try_from(b.duration_since(a).as_nanos()).unwrap_or(u32::MAX)
}
