//! Metrics, provenance, the calibration diagnostic and the output lines.

use crate::runner::Outcome;
use crate::speed::Slowdown;
use cosma_core::{Type, Value};
use cosma_sim::reference::RefSimulator;
use cosma_sim::{FnProcess, Wait};
use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;
use std::time::{Duration, Instant};

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Stable metric name.
    pub name: &'static str,
    /// Unit, as printed.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
}

fn m(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// `a / b`, or 0 when `b` is 0.
fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Nearest-rank quantile of sorted samples, and how many samples lie
/// strictly after it.
#[must_use]
pub fn quantile(sorted: &[Duration], q: f64) -> (Duration, usize) {
    if sorted.is_empty() {
        return (Duration::ZERO, 0);
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    (sorted[rank - 1], sorted.len() - rank)
}

/// Median of a list of durations.
#[must_use]
pub fn median(v: &[Duration]) -> Duration {
    let mut s = v.to_vec();
    s.sort_unstable();
    quantile(&s, 0.5).0
}

/// Peak resident set (`VmHWM`) of this process, in MiB; 0 when the
/// platform does not report it.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Host time of each pool job on the reference host, sorted: every
/// sample is divided by the host's slowdown around its start (see
/// [`crate::speed`]), and each pool job's time is the median of its
/// samples.
#[must_use]
pub fn job_times(o: &Outcome) -> Vec<Duration> {
    let slow = Slowdown::new(&o.kernel_runs);
    let mut by_slot: BTreeMap<usize, Vec<Duration>> = BTreeMap::new();
    for s in &o.samples {
        by_slot
            .entry(s.slot)
            .or_default()
            .push(s.run.took.div_f64(slow.at(s.run.at)));
    }
    let mut jobs: Vec<Duration> = by_slot.values().map(|v| median(v)).collect();
    jobs.sort_unstable();
    jobs
}

/// The end-to-end metrics of an untraced run, in host time on the
/// reference host of [`crate::speed`].
#[must_use]
pub fn end_to_end(o: &Outcome, rss_mb: f64) -> Vec<Metric> {
    let jobs = job_times(o);
    let total: Duration = jobs.iter().sum();
    let setup: Vec<Duration> = o.setup.iter().map(|p| p.took.div_f64(p.slowdown)).collect();
    vec![
        m(
            "jobs_per_s",
            "1/s",
            ratio(jobs.len() as f64, total.as_secs_f64()),
        ),
        m("job_p50_ms", "ms", ms(quantile(&jobs, 0.5).0)),
        m("job_p90_ms", "ms", ms(quantile(&jobs, 0.9).0)),
        m("setup_s", "s", median(&setup).as_secs_f64()),
        m("peak_rss_mb", "MiB", rss_mb),
    ]
}

/// The per-layer metrics of a traced run: per traced job unless the name
/// says otherwise; `_ms` values are span self times.
#[must_use]
pub fn per_layer(o: &Outcome) -> Vec<Metric> {
    let st = o.runner.tracer.self_times();
    let ns = |name: &str| st.get(name).copied().unwrap_or(0) as f64;
    let c = &o.runner.counters;
    let n = o.traced_jobs as f64;
    let per = |x: u64| ratio(x as f64, n);
    let per_ms = |name: &str| ratio(ns(name) / 1e6, n);
    let run_ns = ns("cosim.run");
    let overhead = o.traced_vs_plain.map_or(0.0, |(t, p)| {
        100.0 * (ratio(t.as_secs_f64(), p.as_secs_f64()) - 1.0)
    });
    vec![
        m("cosim.build_ms", "ms", per_ms("cosim.build")),
        m("cosim.run_ms", "ms", per_ms("cosim.run")),
        m("cosim.sim_cycles", "sim_cycles", per(c.sim_cycles)),
        m(
            "cosim.ns_per_cycle",
            "ns/sim_cycle",
            ratio(run_ns, c.sim_cycles as f64),
        ),
        m(
            "cosim.ns_per_activation",
            "ns",
            ratio(run_ns, (c.modules_stepped + c.units_stepped) as f64),
        ),
        m("sim.events", "count", per(c.events)),
        m("sim.process_runs", "count", per(c.process_runs)),
        m("sim.deltas", "count", per(c.deltas)),
        m("sim.instants", "count", per(c.instants)),
        m("sim.event_wakeups", "count", per(c.event_wakeups)),
        m("sim.timer_wakeups", "count", per(c.timer_wakeups)),
        m("sim.wheel_cascades", "count", per(c.wheel_cascades)),
        m("sim.bulk_inserts", "count", per(c.bulk_inserts)),
        m("sim.ns_per_event", "ns", ratio(run_ns, c.events as f64)),
        m("cosim.modules_stepped", "count", per(c.modules_stepped)),
        m("cosim.units_stepped", "count", per(c.units_stepped)),
        m("cosim.units_skipped", "count", per(c.units_skipped)),
        m("cosim.members_parked", "count", per(c.members_parked)),
        m("cosim.members_resumed", "count", per(c.members_resumed)),
        m("cosim.wire_wakeups", "count", per(c.wire_wakeups)),
        m("cosim.watch_probes", "count", per(c.watch_probes)),
        m(
            "cosim.skip_ratio",
            "ratio",
            ratio(
                c.units_skipped as f64,
                (c.units_stepped + c.units_skipped) as f64,
            ),
        ),
        m("comm.calls", "count", per(c.calls)),
        m("comm.completions", "count", per(c.completions)),
        m(
            "comm.completion_ratio",
            "ratio",
            ratio(c.completions as f64, c.calls as f64),
        ),
        m("comm.controller_steps", "count", per(c.controller_steps)),
        m("comm.controller_skips", "count", per(c.controller_skips)),
        m("comm.batches", "count", per(c.batches)),
        m("comm.batched_values", "count", per(c.batched_values)),
        m("comm.payload_beats", "count", per(c.payload_beats)),
        m("cosim.trace.entries", "count", per(c.trace_entries)),
        m(
            "cosim.trace.compare_ms",
            "ms",
            per_ms("cosim.trace.compare"),
        ),
        m(
            "cosim.tracebin.encode_ms",
            "ms",
            per_ms("cosim.tracebin.encode"),
        ),
        m(
            "cosim.tracebin.decode_ms",
            "ms",
            per_ms("cosim.tracebin.decode"),
        ),
        m("cosim.tracebin.bytes", "bytes", per(c.tracebin_bytes)),
        m(
            "cosim.tracebin.ns_per_entry",
            "ns",
            ratio(
                ns("cosim.tracebin.encode") + ns("cosim.tracebin.decode"),
                c.trace_entries as f64,
            ),
        ),
        m(
            "cosim.snapshot.capture_ms",
            "ms",
            per_ms("cosim.snapshot.capture"),
        ),
        m(
            "cosim.snapshot.restore_ms",
            "ms",
            per_ms("cosim.snapshot.restore"),
        ),
        m("synth.build_ms", "ms", per_ms("synth.build")),
        m("synth.luts", "count", per(c.luts)),
        m("synth.ffs", "count", per(c.ffs)),
        m("synth.image_words", "count", per(c.image_words)),
        m("board.run_ms", "ms", per_ms("board.run")),
        m("board.cpu_cycles", "sim_cycles", per(c.cpu_cycles)),
        m("board.fabric_ticks", "sim_cycles", per(c.fabric_ticks)),
        m("board.bus_ops", "count", per(c.bus_ops)),
        m(
            "board.ns_per_fabric_tick",
            "ns/sim_cycle",
            ratio(ns("board.run"), c.fabric_ticks as f64),
        ),
        m("bench.check_ms", "ms", per_ms("job")),
        m("bench.trace_overhead_pct", "%", overhead),
    ]
}

/// The repository root this benchmark was built from.
fn repo_root() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/.."))
}

/// HEAD revision and dirty flag of the source tree, or `unknown` when it
/// is not a git checkout.
#[must_use]
pub fn provenance() -> (String, String) {
    let root = repo_root();
    if !root.join(".git").exists() {
        return ("unknown".into(), "unknown".into());
    }
    let git = |args: &[&str]| {
        Command::new("git")
            .arg("-C")
            .arg(root)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    };
    let rev = git(&["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".into());
    let dirty = git(&["status", "--porcelain", "--untracked-files=no"])
        .map_or_else(|| "unknown".into(), |s| (!s.is_empty()).to_string());
    (rev, dirty)
}

/// Fixed calibration workload: the reference kernel's sparse-wakeup
/// case (one counter on a 100 ns clock, 1024 idle processes, 100 us
/// simulated), median of five runs in ms. It does not depend on the
/// seed or the workload, so a shift between runs is machine drift.
#[must_use]
pub fn calibration_ms() -> f64 {
    let mut times: Vec<Duration> = (0..5)
        .map(|_| {
            let mut sim = RefSimulator::new();
            let clk = sim.add_bit("CLK");
            sim.add_clock(clk, cosma_sim::Duration::from_ns(100));
            let q = sim.add_signal("Q", Type::INT16, Value::Int(0));
            sim.add_process(FnProcess::new(move |ctx| {
                if ctx.rose(clk) {
                    let v = ctx.read_int(q);
                    ctx.drive(q, Value::Int(v + 1));
                }
                Wait::Event(vec![clk])
            }));
            for i in 0..1024 {
                let quiet = sim.add_bit(format!("QUIET{i}"));
                sim.add_process(FnProcess::new(move |_ctx| Wait::Event(vec![quiet])));
            }
            let t0 = Instant::now();
            sim.run_for(cosma_sim::Duration::from_us(100))
                .expect("calibration kernel runs");
            std::hint::black_box(sim.value(q));
            t0.elapsed()
        })
        .collect();
    times.sort_unstable();
    ms(times[times.len() / 2])
}

/// The result line: one JSON object with `correct`, `attempted`,
/// `failed` and `metrics`.
#[must_use]
pub fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|x| {
            let v = if x.value.is_finite() { x.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                x.name, x.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
