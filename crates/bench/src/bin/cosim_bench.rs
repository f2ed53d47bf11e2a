//! `cosim_bench` — the machine-readable co-simulation benchmark runner.
//!
//! Runs the `cosim_step` many-unit scenarios (pipeline and starved
//! topologies, the legacy oracle vs the production sharded scheduler,
//! length-only vs payload-beat bus timing) and writes per-scenario
//! timings to `BENCH_cosim.json` as a flat array of `{scenario, n,
//! bus_timing, ns_per_run, p50_ns, p99_ns, runs}` records, so CI can
//! track the backplane's performance trajectory across PRs. The
//! `step_scaling` row runs a wide unparked pipeline, so the module
//! driver steps every module on every cycle.
//!
//! The `bus_timing` column tracks the cost of cycle-accurate payload
//! beats (`payload_beats` rows) against the length-only fast path, and
//! the `batched_heavy` row times a star of producers funneling deep
//! value streams into one hub over batched links.
//!
//! The `beat_storm` rows are the timer-wheel stress case: every unit of
//! a ring streams `PayloadBeats` bursts concurrently, so the kernel's
//! time queues absorb one pre-scheduled beat train per link per
//! transaction. Each size is measured twice — `queue = "wheel"` (the
//! shipping hierarchical timer wheel) and `queue = "heap"` (the retired
//! binary-heap backend, swapped in via the kernel's ablation hook) —
//! and the full (non-quick) run asserts the wheel beats the heap
//! baseline at the largest N.
//!
//! The `multi_rate` rows compare a uniform-clock batched ring against
//! the same ring with half its links (and their modules) in a 1:4
//! clock domain — the full run asserts the rate split is measurably
//! cheaper. The `partitioned` rows compare the collapsed
//! single-backplane elaboration of a cut scenario against the same cut
//! run as two optimistically-synchronized partitions
//! (`cosim::partition::Orchestrator`), with a `rollback_rate` column
//! (rollbacks per committed sync quantum) tracking how often
//! speculation loses; the `variant` column names each side of both
//! comparisons.
//!
//! Every row carries provenance for cross-machine trajectory
//! comparisons: a `schema` version, the `git_rev` the binary was run
//! against, the host's `cpus`, and a `timestamp` string passed in by
//! the harness via `--timestamp` (never computed ad hoc in the loop;
//! `null` when the harness does not pass one).
//!
//! Usage: `cosim_bench [--quick] [--out PATH] [--timestamp TS]`
//!
//! `--quick` shrinks the size sweep and sample count for CI smoke runs;
//! the default sweep matches the criterion bench (N = 16/64/256).

use cosma_cosim::scenario::{build_scenario, LinkKind, Scenario, ScenarioSpec, Topology};
use cosma_cosim::{BusTiming, CosimConfig, SchedulingConfig};
use cosma_sim::Duration;
use std::time::Instant;

/// Bump when row fields change meaning or shape.
const SCHEMA_VERSION: u32 = 4;

struct Record {
    scenario: &'static str,
    n: usize,
    bus_timing: &'static str,
    /// Time-queue backend under test: `Some("wheel" | "heap")` for the
    /// `beat_storm` ablation rows, `None` elsewhere (implicitly the
    /// shipping wheel).
    queue: Option<&'static str>,
    /// Within-scenario variant for the `multi_rate` (uniform vs
    /// quarter-rate domain) and `partitioned` (collapsed vs split)
    /// comparison rows; `None` elsewhere.
    variant: Option<&'static str>,
    /// Rollbacks per committed sync quantum — only meaningful for the
    /// `partitioned` orchestrator row.
    rollback_rate: Option<f64>,
    ns_per_run: u128,
    p50_ns: u128,
    p99_ns: u128,
    runs: u32,
}

/// Runs `git` with `args`, returning its trimmed stdout on success.
fn git(args: &[&str]) -> Option<String> {
    std::process::Command::new("git")
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
}

/// Short git revision of the working tree, for row provenance, with a
/// `-dirty` suffix when tracked files differ from it (the rows then
/// measure uncommitted code).
fn git_rev() -> String {
    match git(&["rev-parse", "--short", "HEAD"]).filter(|s| !s.is_empty()) {
        Some(rev) => match git(&["status", "--porcelain", "--untracked-files=no"]) {
            Some(st) if !st.is_empty() => format!("{rev}-dirty"),
            _ => rev,
        },
        None => "unknown".to_string(),
    }
}

fn timing_label(link: &LinkKind) -> &'static str {
    match link {
        LinkKind::Handshake => "handshake",
        LinkKind::Batched {
            timing: BusTiming::LengthOnly,
            ..
        } => "length_only",
        LinkKind::Batched {
            timing: BusTiming::PayloadBeats,
            ..
        } => "payload_beats",
    }
}

fn scenario(
    n: usize,
    topology: Topology,
    scheduling: SchedulingConfig,
    link: LinkKind,
) -> Scenario {
    build_scenario(&ScenarioSpec {
        units: n,
        topology,
        values_per_link: 4,
        link,
        config: CosimConfig::default(),
        scheduling,
        trace: false,
        domains: Default::default(),
    })
    .expect("scenario builds")
}

/// Times `runs` fresh builds of one scenario, excluding setup, and
/// returns the mean/p50/p99 wall-clock nanoseconds per `sim_us` µs
/// simulated run.
fn measure(
    name: &'static str,
    n: usize,
    bus_timing: &'static str,
    runs: u32,
    sim_us: u64,
    build: impl Fn() -> Scenario,
) -> Record {
    // Warm-up.
    let mut s = build();
    s.cosim.run_for(Duration::from_us(sim_us)).expect("runs");
    let mut samples: Vec<u128> = Vec::with_capacity(runs as usize);
    for _ in 0..runs {
        let mut s = build();
        let start = Instant::now();
        s.cosim.run_for(Duration::from_us(sim_us)).expect("runs");
        samples.push(start.elapsed().as_nanos());
    }
    samples.sort_unstable();
    let ns_per_run = samples.iter().sum::<u128>() / u128::from(runs.max(1));
    let p50_ns = samples[samples.len() / 2];
    let p99_ns = samples[(samples.len() * 99 / 100).min(samples.len() - 1)];
    println!(
        "{name:<24} N={n:<4} bus={bus_timing:<13} {ns_per_run:>12} ns/run  \
         p50={p50_ns} p99={p99_ns}  ({runs} runs)"
    );
    Record {
        scenario: name,
        n,
        bus_timing,
        queue: None,
        variant: None,
        rollback_rate: None,
        ns_per_run,
        p50_ns,
        p99_ns,
        runs,
    }
}

/// Mean/p50/p99 of sorted-in-place samples.
fn summarize3(mut samples: Vec<u128>) -> (u128, u128, u128) {
    samples.sort_unstable();
    let mean = samples.iter().sum::<u128>() / samples.len() as u128;
    let p50 = samples[samples.len() / 2];
    let p99 = samples[(samples.len() * 99 / 100).min(samples.len() - 1)];
    (mean, p50, p99)
}

/// One 100 µs beat-storm run: `n` generator processes each keep a
/// 63-beat drive train in flight on a private signal (8 phase groups,
/// 64 ns beat stride) and re-arm on drain — the kernel-level
/// distillation of `n` PayloadBeats links streaming concurrently.
/// Returns wall-clock nanoseconds for the run, setup excluded.
fn beat_storm(n: usize, heap: bool) -> u128 {
    use cosma_core::{Bit, Value};
    use cosma_sim::{FnProcess, SimTime, Simulator, Wait};
    const BEATS: usize = 63;
    let mut sim = Simulator::new();
    if heap {
        sim.use_heap_queues();
    }
    let stride = Duration::from_ns(64);
    for i in 0..n {
        let sig = sim.add_bit(format!("beat{i}"));
        let phase = Duration::from_ns(8 * (i as u64 % 8));
        let values: Vec<Value> = (0..BEATS)
            .map(|k| Value::Bit(if k % 2 == 0 { Bit::One } else { Bit::Zero }))
            .collect();
        sim.add_process(
            format!("gen{i}"),
            FnProcess::new(move |ctx: &mut cosma_sim::ProcCtx| {
                ctx.drive_train(sig, phase + stride, stride, &values);
                Wait::Timeout(stride.times(values.len() as u64 + 1))
            }),
        );
    }
    let start = Instant::now();
    sim.run_until(SimTime::from_ns(100_000)).expect("runs");
    start.elapsed().as_nanos()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map_or("BENCH_cosim.json", |s| s.as_str());
    // Row provenance: harness-supplied timestamp (never computed here),
    // git revision and host cpu count.
    let timestamp = args
        .iter()
        .position(|a| a == "--timestamp")
        .and_then(|i| args.get(i + 1))
        .cloned();
    let rev = git_rev();
    let cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let (sizes, runs): (&[usize], u32) = if quick {
        (&[16, 64], 2)
    } else {
        (&[16, 64, 256], 10)
    };

    let batched = LinkKind::Batched {
        max_batch: 8,
        capacity: 32,
        timing: BusTiming::LengthOnly,
    };
    let beats = LinkKind::Batched {
        max_batch: 8,
        capacity: 32,
        timing: BusTiming::PayloadBeats,
    };
    println!("host available parallelism: {cpus} (rev {rev})");
    let mut records = vec![];
    for &n in sizes {
        records.push(measure(
            "many_units_per_unit",
            n,
            timing_label(&LinkKind::Handshake),
            runs,
            200,
            || {
                scenario(
                    n,
                    Topology::Pipeline,
                    SchedulingConfig::legacy(),
                    LinkKind::Handshake,
                )
            },
        ));
        records.push(measure(
            "many_units_sharded",
            n,
            timing_label(&batched),
            runs,
            200,
            || scenario(n, Topology::Pipeline, SchedulingConfig::sharded(), batched),
        ));
        // Cycle-accurate payload beats on the same scenario: the cost
        // of timing fidelity, trackable against the length-only row.
        records.push(measure(
            "many_units_sharded",
            n,
            timing_label(&beats),
            runs,
            200,
            || scenario(n, Topology::Pipeline, SchedulingConfig::sharded(), beats),
        ));
        records.push(measure(
            "blocked_per_unit",
            n,
            timing_label(&LinkKind::Handshake),
            runs,
            200,
            || {
                scenario(
                    n,
                    Topology::Starved,
                    SchedulingConfig::legacy(),
                    LinkKind::Handshake,
                )
            },
        ));
        records.push(measure(
            "blocked_sharded",
            n,
            timing_label(&LinkKind::Handshake),
            runs,
            200,
            || {
                scenario(
                    n,
                    Topology::Starved,
                    SchedulingConfig::sharded(),
                    LinkKind::Handshake,
                )
            },
        ));
    }

    // Batched-heavy: a star of producers funneling a deep value stream
    // into one hub over batched links, so batched service calls
    // dominate the run.
    {
        let heavy = LinkKind::Batched {
            max_batch: 16,
            capacity: 64,
            timing: BusTiming::LengthOnly,
        };
        let n = if quick { 8 } else { 16 };
        records.push(measure(
            "batched_heavy",
            n,
            timing_label(&heavy),
            runs,
            200,
            move || {
                build_scenario(&ScenarioSpec {
                    units: n,
                    topology: Topology::Star,
                    values_per_link: 16,
                    link: heavy,
                    config: CosimConfig::default(),
                    scheduling: SchedulingConfig::sharded(),
                    trace: false,
                    domains: Default::default(),
                })
                .expect("scenario builds")
            },
        ));
    }

    // Beat storm: N PayloadBeats links all streaming concurrently,
    // distilled to the bus traffic the link units emit — every link
    // keeps a full pre-scheduled DATA beat train in flight (exactly the
    // timed drives `complete_stream` lands per winning batch) and
    // re-arms the moment it drains. The steady state holds N × 63 live
    // entries, the worst case for the retired binary heaps (O(log H)
    // sifts over a spilled-out-of-cache arena) and the timer wheel's
    // target regime (O(1) slot filings, whole-slot drains). Module
    // bodies are deliberately trivial so queue operations dominate the
    // wall clock and the backend ablation is signal, not noise. Each
    // size runs on both queue backends; the ablation swaps the kernel's
    // backend through the canonical-capture migration hook, so the two
    // rows simulate the identical schedule.
    for &n in sizes {
        let mut largest: Option<(u128, u128)> = None;
        let mut pair = vec![];
        for queue in ["wheel", "heap"] {
            let heap = queue == "heap";
            // Warm-up.
            beat_storm(n, heap);
            let mut samples: Vec<u128> = (0..runs).map(|_| beat_storm(n, heap)).collect();
            samples.sort_unstable();
            let ns_per_run = samples.iter().sum::<u128>() / u128::from(runs.max(1));
            let p50_ns = samples[samples.len() / 2];
            let p99_ns = samples[(samples.len() * 99 / 100).min(samples.len() - 1)];
            println!(
                "{:<24} N={n:<4} bus={:<13} {ns_per_run:>12} ns/run  \
                 p50={p50_ns} p99={p99_ns}  ({runs} runs, {queue})",
                "beat_storm", "payload_beats",
            );
            pair.push(p50_ns);
            records.push(Record {
                scenario: "beat_storm",
                n,
                bus_timing: "payload_beats",
                queue: Some(queue),
                variant: None,
                rollback_rate: None,
                ns_per_run,
                p50_ns,
                p99_ns,
                runs,
            });
        }
        if n == sizes[sizes.len() - 1] {
            largest = Some((pair[0], pair[1]));
        }
        if let Some((wheel_p50, heap_p50)) = largest {
            println!(
                "beat_storm N={n}: wheel p50 {wheel_p50} ns vs heap p50 {heap_p50} ns ({:+.1}%)",
                (wheel_p50 as f64 / heap_p50 as f64 - 1.0) * 100.0
            );
            // Quick CI smoke runs on tiny sizes where noise can
            // dominate; the full sweep gates the wheel's win at the
            // largest N.
            if !quick {
                assert!(
                    wheel_p50 < heap_p50,
                    "the timer wheel must beat the heap baseline at the largest beat_storm \
                     size: wheel p50 {wheel_p50} ns vs heap p50 {heap_p50} ns"
                );
            }
        }
    }

    // Trace-heavy ring: every module records an interned trace entry
    // per activation (so nothing ever parks) and the columnar log
    // spills full segments to a sink — the steady-state cost of the
    // trace subsystem rides this row. Mirrors the counting-allocator
    // gate's scenario (`tests/alloc.rs`), which pins the same regime
    // to zero heap allocations per warm cycle.
    {
        let n = if quick { 8 } else { 16 };
        records.push(measure(
            "trace_heavy",
            n,
            timing_label(&batched),
            runs,
            200,
            move || {
                let s = build_scenario(&ScenarioSpec {
                    units: n,
                    topology: Topology::Ring,
                    values_per_link: 1_000_000,
                    link: batched,
                    config: CosimConfig::default(),
                    scheduling: SchedulingConfig::sharded(),
                    trace: true,
                    domains: Default::default(),
                })
                .expect("scenario builds");
                s.cosim
                    .trace_handle()
                    .borrow_mut()
                    .set_spill(Box::new(std::io::sink()));
                s
            },
        ));
    }

    // Step scaling: a wide pipeline with parking off, so the module
    // driver steps the whole module set every cycle — the scheduler's
    // per-activation cost at scale.
    {
        let (sn, sruns): (usize, u32) = if quick { (256, 2) } else { (1024, 3) };
        let cfg = SchedulingConfig {
            park_blocked: false,
            ..SchedulingConfig::sharded()
        };
        records.push(measure(
            "step_scaling",
            sn,
            timing_label(&batched),
            sruns,
            50,
            move || scenario(sn, Topology::Pipeline, cfg, batched),
        ));
    }

    // Checkpoint/restore vs re-run-from-zero: branching a what-if off a
    // warm backplane must beat rebuilding it and replaying the prefix.
    // One backplane is checkpointed mid-run; the `snapshot_restore`
    // rows time restore + tail, the `snapshot_rerun` rows time the
    // equivalent prefix + tail from a cold start. Each restored run is
    // also checked trace-identical to the original continuation, so the
    // speed-up is of a *bit-identical* replay, not an approximation.
    {
        let n = if quick { 64 } else { 256 };
        let (mid_us, tail_us) = (150u64, 50u64);
        let build = move || scenario(n, Topology::Pipeline, SchedulingConfig::sharded(), batched);
        let mut warm = build();
        warm.cosim.run_for(Duration::from_us(mid_us)).expect("runs");
        let capture_start = Instant::now();
        let snap = warm.cosim.snapshot();
        let capture_ns = capture_start.elapsed().as_nanos();
        warm.cosim
            .run_for(Duration::from_us(tail_us))
            .expect("runs");
        let want_trace = warm.cosim.trace_log();
        println!(
            "snapshot capture: {capture_ns} ns for {} modules at t={:?}",
            snap.module_count(),
            snap.at()
        );

        let mut restore_samples = Vec::with_capacity(runs as usize);
        for _ in 0..runs {
            let start = Instant::now();
            warm.cosim.restore(&snap).expect("restore");
            warm.cosim
                .run_for(Duration::from_us(tail_us))
                .expect("runs");
            restore_samples.push(start.elapsed().as_nanos());
            assert_eq!(
                warm.cosim.trace_log(),
                want_trace,
                "restored replay must be bit-identical to the original run"
            );
        }
        let mut rerun_samples = Vec::with_capacity(runs as usize);
        for _ in 0..runs {
            let mut s = build();
            let start = Instant::now();
            s.cosim
                .run_for(Duration::from_us(mid_us + tail_us))
                .expect("runs");
            rerun_samples.push(start.elapsed().as_nanos());
        }
        let (restore_mean, restore_p50, restore_p99) = summarize3(restore_samples);
        let (rerun_mean, rerun_p50, rerun_p99) = summarize3(rerun_samples);
        for (name, mean, p50, p99) in [
            ("snapshot_restore", restore_mean, restore_p50, restore_p99),
            ("snapshot_rerun", rerun_mean, rerun_p50, rerun_p99),
        ] {
            println!(
                "{name:<24} N={n:<4} bus={:<13} {mean:>12} ns/run  \
                 p50={p50} p99={p99}  ({runs} runs)",
                timing_label(&batched)
            );
            records.push(Record {
                scenario: name,
                n,
                bus_timing: timing_label(&batched),
                queue: None,
                variant: None,
                rollback_rate: None,
                ns_per_run: mean,
                p50_ns: p50,
                p99_ns: p99,
                runs,
            });
        }
        assert!(
            restore_p50 < rerun_p50,
            "restore + {tail_us}us tail ({restore_p50} ns p50) must beat re-running \
             {}us from zero ({rerun_p50} ns p50)",
            mid_us + tail_us
        );
    }

    // Multi-rate clock domains: the same batched ring, uniform vs half
    // of it in a quarter-rate domain. Slow-domain members take one
    // activation edge per four base edges (and the units they feed
    // pump accordingly), so the rate split must be measurably cheaper
    // than the uniform run — the whole point of domain-aware clocking.
    {
        use cosma_cosim::scenario::DomainsSpec;
        let n = if quick { 8 } else { 16 };
        let build = move |domains| {
            build_scenario(&ScenarioSpec {
                units: n,
                topology: Topology::Ring,
                values_per_link: 1_000_000,
                link: batched,
                config: CosimConfig::default(),
                scheduling: SchedulingConfig::sharded(),
                trace: false,
                domains,
            })
            .expect("scenario builds")
        };
        let mut pair = vec![];
        for (variant, domains) in [
            ("uniform", DomainsSpec::default()),
            (
                "slow_1_4",
                DomainsSpec {
                    ratio: (4, 1),
                    slow_links: n / 2,
                },
            ),
        ] {
            let mut warm = build(domains);
            warm.cosim.run_for(Duration::from_us(200)).expect("runs");
            let samples: Vec<u128> = (0..runs)
                .map(|_| {
                    let mut s = build(domains);
                    let start = Instant::now();
                    s.cosim.run_for(Duration::from_us(200)).expect("runs");
                    start.elapsed().as_nanos()
                })
                .collect();
            let (mean, p50, p99) = summarize3(samples);
            println!(
                "{:<24} N={n:<4} bus={:<13} {mean:>12} ns/run  \
                 p50={p50} p99={p99}  ({runs} runs, {variant})",
                "multi_rate",
                timing_label(&batched)
            );
            pair.push(p50);
            records.push(Record {
                scenario: "multi_rate",
                n,
                bus_timing: timing_label(&batched),
                queue: None,
                variant: Some(variant),
                rollback_rate: None,
                ns_per_run: mean,
                p50_ns: p50,
                p99_ns: p99,
                runs,
            });
        }
        let (uniform_p50, slow_p50) = (pair[0], pair[1]);
        println!(
            "multi_rate N={n}: uniform p50 {uniform_p50} ns vs slow_1_4 p50 {slow_p50} ns \
             ({:+.1}%)",
            (slow_p50 as f64 / uniform_p50 as f64 - 1.0) * 100.0
        );
        // Quick CI smoke runs on tiny sizes where noise can dominate;
        // the full sweep gates the rate split's win.
        if !quick {
            assert!(
                slow_p50 < uniform_p50,
                "a quarter-rate half of the ring must be measurably cheaper than the \
                 uniform run: slow p50 {slow_p50} ns vs uniform p50 {uniform_p50} ns"
            );
        }
    }

    // Partitioned co-simulation: the same scenario run collapsed in one
    // backplane vs cut into two optimistically-synchronized partitions.
    // The split row pays snapshotting, staleness scans and occasional
    // rollbacks per quantum; its `rollback_rate` column (rollbacks per
    // committed quantum) tracks how often speculation loses.
    {
        use cosma_cosim::scenario::{build_collapsed, build_partitioned, PartitionsSpec};
        let n = if quick { 8 } else { 16 };
        let spec = ScenarioSpec {
            units: n,
            topology: Topology::Ring,
            values_per_link: 1_000_000,
            link: batched,
            config: CosimConfig::default(),
            scheduling: SchedulingConfig::sharded(),
            trace: false,
            domains: Default::default(),
        };
        let pspec = PartitionsSpec {
            count: 2,
            latency: Duration::from_ns(200),
        };
        let quantum = Duration::from_us(2);
        let sim_us = 200u64;
        let collapsed: Vec<u128> = {
            let mut warm = build_collapsed(&spec, &pspec).expect("collapsed builds");
            warm.cosim.run_for(Duration::from_us(sim_us)).expect("runs");
            (0..runs)
                .map(|_| {
                    let mut s = build_collapsed(&spec, &pspec).expect("collapsed builds");
                    let start = Instant::now();
                    s.cosim.run_for(Duration::from_us(sim_us)).expect("runs");
                    start.elapsed().as_nanos()
                })
                .collect()
        };
        let mut rollback_rate = 0.0;
        let split: Vec<u128> = {
            let mut warm = build_partitioned(&spec, &pspec).expect("partitioned builds");
            warm.run_for(Duration::from_us(sim_us), quantum)
                .expect("runs");
            (0..runs)
                .map(|_| {
                    let mut s = build_partitioned(&spec, &pspec).expect("partitioned builds");
                    let start = Instant::now();
                    s.run_for(Duration::from_us(sim_us), quantum).expect("runs");
                    let ns = start.elapsed().as_nanos();
                    let stats = s.orch.stats();
                    rollback_rate = stats.rollbacks as f64 / stats.quanta_committed.max(1) as f64;
                    ns
                })
                .collect()
        };
        for (variant, samples, rate) in [
            ("collapsed", collapsed, None),
            ("split_2", split, Some(rollback_rate)),
        ] {
            let (mean, p50, p99) = summarize3(samples);
            println!(
                "{:<24} N={n:<4} bus={:<13} {mean:>12} ns/run  \
                 p50={p50} p99={p99}  ({runs} runs, {variant}, rollback rate {:.3})",
                "partitioned",
                timing_label(&batched),
                rate.unwrap_or(0.0)
            );
            records.push(Record {
                scenario: "partitioned",
                n,
                bus_timing: timing_label(&batched),
                queue: None,
                variant: Some(variant),
                rollback_rate: rate,
                ns_per_run: mean,
                p50_ns: p50,
                p99_ns: p99,
                runs,
            });
        }
    }

    // Sanity gate for CI: parked consumers must contribute ~zero
    // activations in the starved scenario.
    let mut s = scenario(
        sizes[sizes.len() - 1],
        Topology::Starved,
        SchedulingConfig::sharded(),
        LinkKind::Handshake,
    );
    s.cosim.run_for(Duration::from_us(200)).expect("runs");
    let stats = s.cosim.shard_stats();
    assert!(
        stats.members_parked as usize >= s.modules.len() - 3,
        "starved consumers must park: {stats:?}"
    );
    println!(
        "parking check: {} members parked, {} resumed, {} parked now",
        stats.members_parked, stats.members_resumed, stats.parked_now
    );

    let mut json = String::from("[\n");
    let timestamp_json = timestamp
        .as_deref()
        .map_or_else(|| "null".to_string(), |t| format!("\"{t}\""));
    for (i, r) in records.iter().enumerate() {
        let queue = r
            .queue
            .map_or_else(|| "null".to_string(), |q| format!("\"{q}\""));
        let variant = r
            .variant
            .map_or_else(|| "null".to_string(), |v| format!("\"{v}\""));
        let rollback_rate = r
            .rollback_rate
            .map_or_else(|| "null".to_string(), |x| format!("{x:.6}"));
        json.push_str(&format!(
            "  {{\"schema\": {}, \"scenario\": \"{}\", \"n\": {}, \
             \"bus_timing\": \"{}\", \"queue\": {}, \"variant\": {}, \
             \"rollback_rate\": {}, \"ns_per_run\": {}, \
             \"p50_ns\": {}, \"p99_ns\": {}, \"runs\": {}, \"git_rev\": \"{}\", \"cpus\": {}, \
             \"timestamp\": {}}}{}\n",
            SCHEMA_VERSION,
            r.scenario,
            r.n,
            r.bus_timing,
            queue,
            variant,
            rollback_rate,
            r.ns_per_run,
            r.p50_ns,
            r.p99_ns,
            r.runs,
            rev,
            cpus,
            timestamp_json,
            if i + 1 < records.len() { "," } else { "" }
        ));
    }
    json.push_str("]\n");
    std::fs::write(out, json).expect("write benchmark results");
    println!("wrote {out}");
}
