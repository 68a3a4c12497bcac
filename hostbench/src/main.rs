//! `omos-hostbench`: the host-time benchmark for the OMOS server.
//!
//! ```text
//! cargo run --release --offline --manifest-path hostbench/Cargo.toml -- \
//!     --workload <warm-exec|cold-build|churn|restart> --seed <n> \
//!     --seconds <s> --trace <0|1>
//! ```
//!
//! It drives the server from outside through its public API, at its
//! shipped defaults, and measures host time. The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed` and
//! `metrics`.
//!
//! * `--trace 0` sets the workload up, runs its closed loop for
//!   `--seconds` in slices, checks the outputs, and reports the
//!   end-to-end metrics. After each slice a fresh process of this
//!   program (`--setup-only 1`) times a batch of set-ups, so the
//!   set-up time samples the host across the whole run.
//! * `--trace 1` sets up once and reports the per-layer metrics: server
//!   counters over a fixed-length pass of the loop, the benchmark's and
//!   the server tracer's own overheads from interleaved on/off blocks,
//!   and the layer replay. Its spans are written to
//!   `hostbench/out/spans-<workload>-<seed>.json`.
//!
//! `hostbench/METRICS.md` says what each metric means and which
//! end-to-end metric each layer metric should move.

mod churn;
mod cold_build;
mod replay;
mod restart;
mod spans;
mod stats;
mod warm_exec;
mod workload;
mod world;

use std::fmt::Write as _;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use spans::Spans;
use stats::{median, Timing};
use workload::{buffer_bytes, Block, Budget, Checks, Workload};

/// The workloads, by name.
const WORKLOADS: [&str; 4] = ["warm-exec", "cold-build", "churn", "restart"];

/// Slices the end-to-end loop is split into. The run times a batch of
/// set-ups before the first slice and a set-up probe times one after
/// each; `setup_s` is the median of these `SLICES + 1` batch means.
const SLICES: u32 = 6;

/// A batch of set-ups lasts at least this long. Its mean, not one
/// set-up, is a sample of `setup_s`, so that a sample does not hinge
/// on the host's speed during one short set-up.
const SETUP_BATCH: Duration = Duration::from_millis(500);

/// Bytes in a MiB.
const MIB: f64 = 1024.0 * 1024.0;

/// Command-line arguments.
#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Only time a batch of set-ups, and print the mean seconds per set-up.
    setup_only: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut setup_only = false;
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => trace = Some(flag_bool(&flag, &value)?),
            "--setup-only" => setup_only = flag_bool(&flag, &value)?,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        setup_only,
    })
}

fn flag_bool(flag: &str, value: &str) -> Result<bool, String> {
    match value {
        "0" => Ok(false),
        "1" => Ok(true),
        _ => Err(format!("{flag} takes 0 or 1")),
    }
}

/// Sets up `name` for `seed`.
fn setup(name: &str, seed: u64) -> Box<dyn Workload> {
    match name {
        "warm-exec" => Box::new(warm_exec::WarmExec::setup(seed)),
        "cold-build" => Box::new(cold_build::ColdBuild::setup(seed)),
        "churn" => Box::new(churn::Churn::setup(seed)),
        "restart" => Box::new(restart::Restart::setup(seed)),
        _ => unreachable!("workload names are checked while parsing"),
    }
}

/// Sets `args.workload` up until the set-ups have taken
/// [`SETUP_BATCH`]. Returns the last set-up and the mean seconds per
/// set-up; tearing a set-up down is not timed.
fn setup_batch(args: &Args) -> (Box<dyn Workload>, f64) {
    let (mut spent, mut n) = (Duration::ZERO, 0u32);
    loop {
        let t = Instant::now();
        let w = setup(&args.workload, args.seed);
        spent += t.elapsed();
        n += 1;
        if spent >= SETUP_BATCH {
            return (w, spent.as_secs_f64() / f64::from(n));
        }
    }
}

/// Runs [`setup_batch`] in a fresh process of this program and returns
/// the mean seconds per set-up that process measured.
fn probe_setup(args: &Args) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let seed = args.seed.to_string();
    let out = Command::new(exe)
        .args(["--workload", &args.workload, "--seed", &seed])
        .args(["--seconds", "0", "--trace", "0", "--setup-only", "1"])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    if !out.status.success() {
        return Err(format!("set-up probe {}", out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    text.trim()
        .parse()
        .map_err(|e| format!("set-up probe printed {text:?}: {e}"))
}

/// Resets this process's peak resident set to its current one.
fn reset_peak_rss() -> std::io::Result<()> {
    std::fs::write("/proc/self/clear_refs", "5")
}

/// Peak resident set of this process (`VmHWM`), in bytes.
fn peak_rss_bytes() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024.0)
}

/// The result line.
struct Report {
    checks: Checks,
    attempted: u64,
    failed: u64,
    metrics: replay::Rows,
}

impl Report {
    fn correct(&self) -> bool {
        self.checks.failures.is_empty() && self.failed == 0
    }

    fn json(&self) -> String {
        let correct = self.correct();
        let mut m = String::new();
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            // JSON has no infinity: a tail that every sample missed is
            // reported as the largest finite number.
            let v = if value.is_finite() { *value } else { f64::MAX };
            let _ = write!(
                m,
                "{sep}\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
            );
        }
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
            self.attempted.max(1),
            self.failed + self.checks.failures.len() as u64,
        )
    }
}

/// The end-to-end run.
fn end_to_end(args: &Args) -> Report {
    let (mut w, first) = setup_batch(args);
    let mut setups = vec![first];
    let mut checks = Checks::default();
    let quiet = &mut Spans::new(Instant::now(), false);
    let seconds = Duration::from_secs(args.seconds);
    let mut samples = Budget::Time(seconds).sample_buffer(w.rate());
    // The peak resident set is the loop's own: set-up peaks before
    // this point, and the probes run in other processes.
    let reset = reset_peak_rss();
    checks.expect(reset.is_ok(), || {
        format!("could not reset the peak resident set: {reset:?}")
    });
    let (mut failed, mut execs, mut wall, mut slice_bytes) = (0, 0, Duration::ZERO, 0);
    for _ in 0..SLICES {
        let block = w.run(Budget::Time(seconds / SLICES), quiet);
        samples.extend_from_slice(&block.latency_ns);
        failed += block.failed;
        execs += block.execs;
        wall += block.wall;
        slice_bytes = slice_bytes.max(block.sample_bytes);
        drop(block);
        match probe_setup(args) {
            Ok(s) => setups.push(s),
            Err(e) => checks.expect(false, || e),
        }
    }
    // The sample buffers are the benchmark's, not the server's.
    let buffers = (buffer_bytes(&samples) + slice_bytes) as f64;
    let peak = peak_rss_bytes();
    checks.expect(peak.is_some(), || "no VmHWM in /proc/self/status".into());
    let peak_mb = (peak.unwrap_or(buffers) - buffers) / MIB;
    checks.absorb(w.check());
    let t = Timing::of(&mut samples, failed, w.tail_q());
    eprintln!(
        "{}: {} timed operations (mean and p{} from {} samples), {} exec requests in {:.2} s, \
         setup_s from {} set-up batches",
        args.workload,
        samples.len(),
        t.tail_q * 100.0,
        t.n,
        execs,
        wall.as_secs_f64(),
        setups.len()
    );
    let ops = samples.len() as u64 + failed;
    Report {
        attempted: ops + checks.attempted,
        failed,
        checks,
        metrics: vec![
            ("setup_s", median(&setups), "s"),
            ("latency_mean_us", t.mean, "us"),
            ("latency_tail_us", t.tail, "us"),
            ("exec_per_s", execs as f64 / wall.as_secs_f64(), "1/s"),
            ("peak_rss_mb", peak_mb, "MiB"),
        ],
    }
}

/// Host seconds per timed operation of a block.
fn per_op(b: &Block) -> f64 {
    b.wall.as_secs_f64() / (b.latency_ns.len() as f64 + b.failed as f64).max(1.0)
}

/// Runs pairs of blocks, one with `toggle(true)` and one with
/// `toggle(false)`, alternating which goes first, until `budget` has
/// passed (at least three pairs). Returns the median, over pairs, of
/// the on/off cost ratio minus one, in percent.
fn overhead_pct(
    w: &mut dyn Workload,
    spans: &mut Spans,
    budget: Duration,
    mut toggle: impl FnMut(&mut dyn Workload, &mut Spans, bool),
) -> f64 {
    let steps = w.block_steps().0;
    let start = Instant::now();
    let mut ratios = Vec::new();
    let mut pair = 0;
    while pair < 3 || start.elapsed() < budget {
        let mut cost = [0.0; 2];
        for k in 0..2 {
            let on = (pair + k) % 2 == 0;
            toggle(w, spans, on);
            let b = w.run(Budget::Steps(steps), spans);
            cost[usize::from(on)] = per_op(&b);
        }
        ratios.push(cost[1] / cost[0]);
        pair += 1;
    }
    toggle(w, spans, true);
    (median(&ratios) - 1.0) * 100.0
}

/// The traced run.
fn traced(args: &Args) -> Report {
    let mut w = setup(&args.workload, args.seed);
    let mut spans = Spans::new(Instant::now(), true);

    // Counters over a fixed number of loop steps: they repeat exactly
    // for a given seed on the single-thread workloads.
    let pass = w.run(Budget::Steps(w.block_steps().1), &mut spans);
    let c = pass.counts;
    let t = &c.trace;
    let ratio = |hits: u64, probes: u64| {
        if probes == 0 {
            0.0
        } else {
            hits as f64 / probes as f64
        }
    };

    // Both overheads from interleaved on/off blocks. The benchmark's
    // spans stay on while the server tracer is compared, and the
    // server tracer stays on (its default) while the spans are.
    let third = Duration::from_secs(args.seconds).div_f64(3.0);
    let span_pct = overhead_pct(w.as_mut(), &mut spans, third, |_, s, on| s.set_enabled(on));
    let trace_pct = overhead_pct(w.as_mut(), &mut spans, third, |w, _, on| {
        w.set_server_tracing(on)
    });
    let mut checks = Checks::default();
    let layer_rows = replay::replay(w.as_mut(), &mut spans, &mut checks);
    checks.absorb(w.check());

    let dump = format!("hostbench/out/spans-{}-{}.json", args.workload, args.seed);
    let written = std::fs::create_dir_all("hostbench/out")
        .and_then(|()| std::fs::write(&dump, spans.to_json()));
    checks.expect(written.is_ok(), || {
        format!("could not write {dump}: {written:?}")
    });
    eprintln!(
        "{}: {} spans written to {dump}",
        args.workload,
        spans.records().len()
    );

    let ops = pass.latency_ns.len() as u64 + pass.failed;
    let mut metrics = layer_rows;
    metrics.extend([
        (
            "core.server.replies_built",
            c.stats.replies_built as f64,
            "count",
        ),
        (
            "core.server.libraries_built",
            c.stats.libraries_built as f64,
            "count",
        ),
        ("core.server.coalesced", c.stats.coalesced as f64, "count"),
        ("core.server.sim_server_ns", c.stats.cpu_ns as f64, "ns"),
        (
            "core.cache.reply_hit_ratio",
            ratio(t.reply_hits, t.reply_probes),
            "ratio",
        ),
        (
            "core.cache.eval_hit_ratio",
            ratio(t.eval_hits, t.eval_probes),
            "ratio",
        ),
        (
            "core.cache.image_hit_ratio",
            ratio(t.image_hits, t.image_probes),
            "ratio",
        ),
        (
            "core.cache.image_evictions",
            t.image_evict_budget as f64,
            "count",
        ),
        ("core.cache.image_bytes", pass.image_bytes as f64, "bytes"),
        ("core.spill.spills", t.tier2_spills as f64, "count"),
        ("core.spill.fault_ins", t.tier2_fault_ins as f64, "count"),
        (
            "core.spill.verify_drops",
            t.tier2_verify_drops as f64,
            "count",
        ),
        ("core.relink.partials", t.relink_partials as f64, "count"),
        (
            "core.relink.reused_images",
            t.relink_reused_images as f64,
            "count",
        ),
        (
            "core.relink.relinked_libraries",
            t.relink_relinked_libraries as f64,
            "count",
        ),
        ("core.relink.fallbacks", t.relink_fallbacks as f64, "count"),
        ("core.trace.overhead_pct", trace_pct, "%"),
        (
            "core.trace.spans_recorded",
            t.spans_recorded as f64,
            "count",
        ),
        ("bench.span_overhead_pct", span_pct, "%"),
        ("ops.attempted", ops as f64, "count"),
        ("ops.failed", pass.failed as f64, "count"),
    ]);
    Report {
        attempted: ops + checks.attempted,
        failed: pass.failed,
        checks,
        metrics,
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("hostbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.setup_only {
        println!("{:?}", setup_batch(&args).1);
        return ExitCode::SUCCESS;
    }
    let report = if args.trace {
        traced(&args)
    } else {
        end_to_end(&args)
    };
    for f in &report.checks.failures {
        eprintln!("hostbench: check failed: {f}");
    }
    println!("{}", report.json());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// What must repeat exactly for a seed: server counters (billed sim
    /// work included) and the digest of every reply.
    fn fingerprint(name: &str, seed: u64, steps: u64) -> (world::Counts, u64, Checks) {
        let mut w = setup(name, seed);
        let b = w.run(Budget::Steps(steps), &mut Spans::new(Instant::now(), false));
        assert_eq!(b.failed, 0, "{name}: operations failed");
        (b.counts, b.digest, w.check())
    }

    fn same_seed_repeats_and_other_seeds_pass(name: &str, steps: u64) {
        let (c1, d1, k1) = fingerprint(name, 7, steps);
        let (c2, d2, k2) = fingerprint(name, 7, steps);
        assert_eq!(c1, c2, "{name}: counters differ between identical seeds");
        assert_eq!(
            d1, d2,
            "{name}: reply digests differ between identical seeds"
        );
        let (_, d3, k3) = fingerprint(name, 8, steps);
        assert_ne!(
            d1, d3,
            "{name}: another seed left the request stream unchanged"
        );
        for k in [k1, k2, k3] {
            assert!(k.failures.is_empty(), "{name}: {:?}", k.failures);
            assert!(k.attempted > 0, "{name}: nothing was checked");
        }
    }

    #[test]
    fn cold_build_is_deterministic_per_seed() {
        same_seed_repeats_and_other_seeds_pass("cold-build", 3);
    }

    #[test]
    fn churn_is_deterministic_per_seed() {
        same_seed_repeats_and_other_seeds_pass("churn", 600);
    }

    #[test]
    fn restart_is_deterministic_per_seed() {
        same_seed_repeats_and_other_seeds_pass("restart", 3);
    }

    #[test]
    fn warm_exec_is_deterministic_per_seed() {
        // Every request is a hit, so even the concurrent clients'
        // counters and digests repeat for a fixed step budget.
        same_seed_repeats_and_other_seeds_pass("warm-exec", 600);
    }

    #[test]
    fn churn_rebuilds_under_budget_evictions() {
        let (c, _, _) = fingerprint("churn", 3, 2_000);
        assert!(
            c.trace.relink_partials > 0,
            "no incremental relinks: {:?}",
            c.trace
        );
        assert!(c.trace.image_evict_budget > 0, "no budget evictions");
        assert!(c.stats.reply_cache_hits > 0, "no warm hits");
    }

    #[test]
    fn the_result_line_is_one_json_object() {
        let r = Report {
            checks: Checks::default(),
            attempted: 3,
            failed: 0,
            metrics: vec![
                ("setup_s", 0.5, "s"),
                ("latency_tail_us", f64::INFINITY, "us"),
            ],
        };
        let line = r.json();
        let parsed = omos_core::trace::json::parse(&line).expect("valid JSON");
        assert_eq!(parsed.get("attempted").and_then(|v| v.as_num()), Some(3.0));
        let m = parsed.get("metrics").expect("metrics");
        let tail = m.get("latency_tail_us").and_then(|v| v.get("value"));
        assert!(tail.and_then(|v| v.as_num()).is_some_and(f64::is_finite));
        assert!(!line.contains('\n'));
    }
}
