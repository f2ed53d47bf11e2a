//! `cosim_bench` — the machine-readable co-simulation and co-synthesis
//! benchmark runner.
//!
//! Runs the many-unit scenarios (`many_units_per_unit`,
//! `many_units_sharded`, `blocked_per_unit`, `blocked_sharded`: pipeline
//! and starved topologies, the legacy oracle vs the production sharded
//! scheduler, length-only vs payload-beat bus timing) and writes
//! per-scenario timings to `BENCH_cosim.json` as a flat array of
//! `{scenario, n, bus_timing, ns_per_run, p50_ns, p99_ns, runs}`
//! records, so CI can track the backplane's performance trajectory
//! across commits. The `step_scaling` row runs a wide unparked
//! pipeline, so the module driver steps every module on every cycle.
//!
//! Every row goes through one sampler ([`row`]): one untimed call of the
//! row's closure, then `runs` timed calls. Each call returns the work it
//! covered (`n`, which must be the same on every call) and the
//! nanoseconds of its own timed span, so building, checking and dropping
//! stay outside the span; the row records the mean, p50 and p99 of
//! those spans.
//!
//! The `bus_timing` column tracks the cost of cycle-accurate payload
//! beats (`payload_beats` rows) against the length-only fast path, and
//! the `batched_heavy` row times a star of producers funneling deep
//! value streams into one hub over batched links.
//!
//! The `beat_storm` rows are the timer-wheel stress case: every unit of
//! a ring streams `PayloadBeats` bursts concurrently, so the kernel's
//! time wheel absorbs one pre-scheduled beat train per link per
//! transaction.
//!
//! The `multi_rate` rows compare a uniform-clock batched ring against
//! the same ring with half its links (and their modules) in a 1:4
//! clock domain — the full run asserts the rate split is measurably
//! cheaper. The `partitioned` rows compare the collapsed
//! single-backplane elaboration of a cut scenario against the same cut
//! run as two partitions stepped in quanta of the boundary latency
//! (`cosim::partition::Orchestrator`), and assert that both sides end
//! with the same module statuses and checker verdicts; the `variant`
//! column names each side of both comparisons.
//!
//! The `elaborate` rows time model build rather than a run:
//! `build_scenario` plus drop of a length-only batched pipeline, the
//! setup and teardown every short co-simulation job pays around its
//! run. The `frontends` rows time parse plus elaboration of the paper's
//! sub-system sources: variant `c` is Figure 6b's `DISTRIBUTION`,
//! variant `vhdl` Figure 7's `SPEED_CONTROL`; `n` counts the modules
//! elaborated and `bus_timing` is `none`. The `motor` rows time the
//! Figure 1 flow's two platforms on an 8-segment motor trajectory, each
//! from assembly to completion: variant `cosim` is the co-simulation
//! backplane (`n` counts HW cycles), variant `board` the synthesized
//! board (`n` counts fabric ticks).
//!
//! The `synthesis` rows time the co-synthesis steps on the motor
//! controller's modules (`n` is the flattened module's FSM state
//! count, `bus_timing` is `none`): variant `flatten_distribution`
//! inlines the Distribution module's service calls, `hw_synth_position`
//! synthesizes the flattened Position module to a binary-encoded
//! netlist, `sw_synth_distribution` compiles the flattened Distribution
//! module to MC16 code, and `timer_binary`, `timer_onehot` and
//! `timer_gray` synthesize the flattened Timer module under each state
//! encoding. The `isa` rows time the MC16 instruction-set simulator on
//! three loops run to `HLT` (`n` is `Cpu::retired()`): `alu_loop`
//! (1000 rounds of register arithmetic), `mem_loop` (500 rounds of a
//! load, add and store) and `io_loop` (300 rounds of a port read and
//! write, the synthesized communication pattern).
//!
//! The `comm` rows time the library's communication units interpreted
//! without a kernel, over `StandaloneUnit` or a `BatchedLink` on
//! `LocalWires`: 100 messages from a producer to a consumer (`n`
//! counts messages) through each of variant `handshake`, `batched_4`,
//! `batched_16`, `fifo_4`, `fifo_16` and `mailbox_4`, and 100
//! acquire/write/read/release rounds for `shared_reg`. `handshake` and
//! `shared_reg` time FSM interpretation alone: protocol sessions and a
//! unit controller.
//!
//! The `poll` rows time register-style interface traffic: `n` modules
//! (16 and 64) each poll one `shared_reg_unit`'s pure `read` the way the
//! motor's Core polls `ReadSampledData` (read, then drive the value onto
//! a port), while one writer module rewrites the register every 16
//! cycles, for 200 µs; `bus_timing` is `none`. Before timing, the run
//! fails unless the pollers park between writes (each stepped at most
//! twice per write plus twice) and every poller's final port value and
//! state equal those of a `park_blocked: false` run.
//!
//! The `kernel` rows time the discrete-event kernel alone, on a
//! `Simulator` with no backplane (setup and teardown excluded; `n` is
//! the case's size and `bus_timing` is `none`): variant `counters`
//! runs N rising-edge counters on one 100 ns clock for 100 µs,
//! `sparse_wakeup` one such counter beside N processes waiting on
//! signals that never change (its cost must not grow with N),
//! `timer_storm` N `wait for` tickers with periods from 7 to 43 ns for
//! 10 µs, and `delta_chain` an N-deep inverter chain rippling through
//! N deltas on every edge of a 100 ns clock for 10 µs.
//!
//! Before the first timed row the binary builds and runs the first
//! row's scenario, untimed, for about half a second, so the first row
//! measures the code and not CPU ramp-up after process start.
//!
//! Every row carries provenance for cross-machine trajectory
//! comparisons: a `schema` version, the `git_rev` the binary was run
//! against, the host's `cpus`, and a `timestamp` string passed in by
//! the harness via `--timestamp` (never computed ad hoc in the loop;
//! `null` when the harness does not pass one).
//!
//! Usage: `cosim_bench [--quick] [--out PATH] [--timestamp TS]`
//!
//! `--quick` shrinks the size sweep (N = 16/64) and sample count for CI
//! smoke runs; the default sweep is N = 16/64/256.

use cosma_cosim::scenario::{
    build_poll, build_scenario, LinkKind, PollScenario, Scenario, ScenarioSpec, Topology,
};
use cosma_cosim::{BusTiming, CosimConfig, Dispatch, SchedulingConfig};
use cosma_sim::{Duration, Simulator};
use std::time::Instant;

/// Bump when row fields change meaning or shape.
const SCHEMA_VERSION: u32 = 6;

/// Cycles between two writes of the register the `poll` rows' modules
/// poll.
const POLL_PERIOD: i64 = 16;

struct Record {
    scenario: &'static str,
    n: usize,
    bus_timing: &'static str,
    /// Within-scenario variant for the `multi_rate` (uniform vs
    /// quarter-rate domain) and `partitioned` (collapsed vs split)
    /// comparison rows, the `frontends` language, the `motor` platform,
    /// the `synthesis` step, the `isa` program, the `comm` unit and the
    /// `kernel` case; `None` elsewhere.
    variant: Option<&'static str>,
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
        link,
        scheduling,
        ..ScenarioSpec::default()
    })
    .expect("scenario builds")
}

/// Runs `f`, returning its result and the nanoseconds it took.
fn timed<T>(f: impl FnOnce() -> T) -> (T, u128) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_nanos())
}

/// The row sampler. Calls `run` once untimed, then `runs` times; each
/// call returns the work it covered (`n`: units, cycles, messages,
/// states, instructions), which every call must repeat, and the
/// nanoseconds of its own timed span. Prints the row and returns it
/// with the spans' mean, p50 and p99.
fn row(
    scenario: &'static str,
    bus_timing: &'static str,
    variant: Option<&'static str>,
    runs: u32,
    mut run: impl FnMut() -> (usize, u128),
) -> Record {
    let (n, _) = run();
    let mut samples: Vec<u128> = (0..runs)
        .map(|_| {
            let (got, ns) = run();
            assert_eq!(got, n, "{scenario} {variant:?}: every run covers as much");
            ns
        })
        .collect();
    samples.sort_unstable();
    let ns_per_run = samples.iter().sum::<u128>() / samples.len() as u128;
    let p50_ns = samples[samples.len() / 2];
    let p99_ns = samples[(samples.len() * 99 / 100).min(samples.len() - 1)];
    let tag = variant.map_or_else(String::new, |v| format!(", {v}"));
    println!(
        "{scenario:<24} N={n:<4} bus={bus_timing:<13} {ns_per_run:>12} ns/run  \
         p50={p50_ns} p99={p99_ns}  ({runs} runs{tag})"
    );
    Record {
        scenario,
        n,
        bus_timing,
        variant,
        ns_per_run,
        p50_ns,
        p99_ns,
        runs,
    }
}

/// A [`row`] closure of size `n`: each call builds afresh and times
/// `run` alone on what it built.
fn build_then_time<T>(
    n: usize,
    build: impl Fn() -> T,
    mut run: impl FnMut(&mut T),
) -> impl FnMut() -> (usize, u128) {
    move || {
        let mut built = build();
        let ((), ns) = timed(|| run(&mut built));
        (n, ns)
    }
}

/// 200 µs of a scenario's co-simulation.
fn run_200us(s: &mut Scenario) {
    s.cosim.run_for(Duration::from_us(200)).expect("runs");
}

/// `n` generator processes each keeping a 63-beat drive train in
/// flight on a private signal (8 phase groups, 64 ns beat stride) and
/// re-arming on drain — the kernel-level distillation of `n`
/// PayloadBeats links streaming concurrently.
fn beat_storm(n: usize) -> Simulator {
    use cosma_core::{Bit, Value};
    use cosma_sim::{FnProcess, Wait};
    const BEATS: usize = 63;
    let mut sim = Simulator::new();
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
    sim
}

/// Registers a process counting the rising edges of `clk` on a fresh
/// `Q<i>` signal.
fn add_counter(sim: &mut Simulator, i: usize, clk: cosma_sim::SignalId) {
    use cosma_core::{Type, Value};
    use cosma_sim::{FnProcess, Wait};
    let q = sim.add_signal(format!("Q{i}"), Type::INT16, Value::Int(0));
    sim.add_process(
        format!("ctr{i}"),
        FnProcess::new(move |ctx| {
            if ctx.rose(clk) {
                let v = ctx.read_int(q);
                ctx.drive(q, Value::Int(v + 1));
            }
            Wait::Event(vec![clk])
        }),
    );
}

/// `n` rising-edge counters on one 100 ns clock.
fn kernel_counters(n: usize) -> Simulator {
    let mut sim = Simulator::new();
    let clk = sim.add_bit("CLK");
    sim.add_clock("gen", clk, Duration::from_ns(100));
    for i in 0..n {
        add_counter(&mut sim, i, clk);
    }
    sim
}

/// One counter on a 100 ns clock beside `n` processes that wait on
/// signals nothing drives.
fn kernel_sparse_wakeup(n: usize) -> Simulator {
    use cosma_sim::{FnProcess, Wait};
    let mut sim = Simulator::new();
    let clk = sim.add_bit("CLK");
    sim.add_clock("gen", clk, Duration::from_ns(100));
    add_counter(&mut sim, 0, clk);
    for i in 0..n {
        let quiet = sim.add_bit(format!("QUIET{i}"));
        sim.add_process(
            format!("idle{i}"),
            FnProcess::new(move |_ctx| Wait::Event(vec![quiet])),
        );
    }
    sim
}

/// `n` independent `wait for` tickers with periods from 7 to 43 ns.
fn kernel_timer_storm(n: usize) -> Simulator {
    use cosma_core::{Type, Value};
    use cosma_sim::{FnProcess, Wait};
    let mut sim = Simulator::new();
    for i in 0..n {
        let t = sim.add_signal(format!("T{i}"), Type::INT16, Value::Int(0));
        let period = Duration::from_ns(7 + (i as u64 % 13) * 3);
        sim.add_process(
            format!("tick{i}"),
            FnProcess::new(move |ctx| {
                let v = ctx.read_int(t);
                ctx.drive(t, Value::Int(v + 1));
                Wait::Timeout(period)
            }),
        );
    }
    sim
}

/// An inverter chain `n` deep, its head toggled by a 100 ns clock.
fn kernel_delta_chain(n: usize) -> Simulator {
    use cosma_core::Value;
    use cosma_sim::{FnProcess, Wait};
    let mut sim = Simulator::new();
    let sigs: Vec<_> = (0..=n).map(|i| sim.add_bit(format!("S{i}"))).collect();
    for i in 0..n {
        let (a, z) = (sigs[i], sigs[i + 1]);
        sim.add_process(
            format!("inv{i}"),
            FnProcess::new(move |ctx| {
                let v = ctx.read_bit(a);
                ctx.drive(z, Value::Bit(!v));
                Wait::Event(vec![a])
            }),
        );
    }
    sim.add_clock("gen", sigs[0], Duration::from_ns(100));
    sim
}

/// A [`row`] closure: `span` of a fresh `build(n)` kernel.
fn kernel_run(
    n: usize,
    span: Duration,
    build: fn(usize) -> Simulator,
) -> impl FnMut() -> (usize, u128) {
    let run = move |sim: &mut Simulator| sim.run_for(span).expect("kernel runs");
    build_then_time(n, move || build(n), run)
}

/// Pushes `n` messages through a unit with a `put`-like and a
/// `get`-like service: each round one producer call, one consumer call
/// and one unit step.
fn transfer(unit: &mut cosma_comm::StandaloneUnit, put: &str, get: &str, n: i64) {
    use cosma_comm::CallerId;
    use cosma_core::Value;
    let (producer, consumer) = (CallerId(1), CallerId(2));
    let (mut sent, mut recv, mut rounds) = (0, 0, 0);
    while recv < n {
        rounds += 1;
        assert!(rounds < 100_000, "transfer through {put}/{get} stuck");
        if sent < n
            && unit
                .call(producer, put, &[Value::Int(sent)])
                .expect(put)
                .done
        {
            sent += 1;
        }
        if unit.call(consumer, get, &[]).expect(get).done {
            recv += 1;
        }
        unit.step().expect("unit steps");
    }
}

/// [`transfer`] through a [`cosma_comm::BatchedLink`]: producer puts,
/// consumer gets, link pumps, one wire handshake per batch.
fn transfer_batched(
    link: &mut cosma_comm::BatchedLink,
    wires: &mut cosma_comm::LocalWires,
    n: i64,
) {
    use cosma_comm::CallerId;
    use cosma_core::Value;
    let (producer, consumer) = (CallerId(1), CallerId(2));
    let (mut sent, mut recv, mut rounds) = (0, 0, 0);
    while recv < n {
        rounds += 1;
        assert!(rounds < 100_000, "batched transfer stuck");
        if sent < n
            && link
                .put(producer, Value::Int(sent), wires)
                .expect("put")
                .done
        {
            sent += 1;
        }
        if link.get(consumer, wires).expect("get").done {
            recv += 1;
        }
        link.pump(wires, false).expect("link pumps");
    }
}

/// `n` acquire/write/read/release rounds of one caller on a shared
/// register, each call completing at once.
fn shared_reg_rounds(unit: &mut cosma_comm::StandaloneUnit, n: i64) {
    use cosma_comm::CallerId;
    use cosma_core::Value;
    let caller = CallerId(1);
    for i in 0..n {
        let value = [Value::Int(i)];
        for (service, args) in [
            ("acquire", &[][..]),
            ("write", &value[..]),
            ("read", &[][..]),
            ("release", &[][..]),
        ] {
            let out = unit.call(caller, service, args).expect(service);
            assert!(out.done, "{service} completes at once");
        }
    }
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
    // Size of the star and ring scenarios, and the run count of the
    // rows whose single run takes microseconds.
    let small = if quick { 8 } else { 16 };
    let fast_runs: u32 = if quick { 20 } else { 200 };

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
    let bus = timing_label(&batched);
    let (hs, legacy, sharded) = (
        LinkKind::Handshake,
        SchedulingConfig::legacy(),
        SchedulingConfig::sharded(),
    );
    let no_parking = SchedulingConfig {
        park_blocked: false,
        ..sharded
    };
    // The batched ring the trace_heavy, multi_rate and partitioned rows
    // run.
    let ring = ScenarioSpec {
        units: small,
        topology: Topology::Ring,
        values_per_link: 1_000_000,
        link: batched,
        scheduling: sharded,
        ..ScenarioSpec::default()
    };
    println!("host available parallelism: {cpus} (rev {rev})");
    // Untimed warm-up: about half a second of builds and runs of the
    // first row's scenario, so CPU ramp-up and cold caches after
    // process start land here rather than in the first row's samples.
    let warm_until = Instant::now() + std::time::Duration::from_millis(500);
    while Instant::now() < warm_until {
        run_200us(&mut scenario(sizes[0], Topology::Pipeline, legacy, hs));
    }
    let mut records = vec![];
    for &n in sizes {
        use Topology::{Pipeline, Starved};
        for (name, topology, scheduling, link) in [
            ("many_units_per_unit", Pipeline, legacy, hs),
            ("many_units_sharded", Pipeline, sharded, batched),
            // Cycle-accurate payload beats on the same scenario: the
            // cost of timing fidelity, trackable against the
            // length-only row.
            ("many_units_sharded", Pipeline, sharded, beats),
            ("blocked_per_unit", Starved, legacy, hs),
            ("blocked_sharded", Starved, sharded, hs),
        ] {
            let build = move || scenario(n, topology, scheduling, link);
            records.push(row(
                name,
                timing_label(&link),
                None,
                runs,
                build_then_time(n, build, run_200us),
            ));
        }
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
        let spec = ScenarioSpec {
            units: small,
            topology: Topology::Star,
            values_per_link: 16,
            link: heavy,
            scheduling: sharded,
            ..ScenarioSpec::default()
        };
        let build = move || build_scenario(&spec).expect("scenario builds");
        records.push(row(
            "batched_heavy",
            timing_label(&heavy),
            None,
            runs,
            build_then_time(small, build, run_200us),
        ));
    }

    // Beat storm: N PayloadBeats links all streaming concurrently,
    // distilled to the bus traffic the link units emit — every link
    // keeps a full pre-scheduled DATA beat train in flight (exactly the
    // timed drives `complete_stream` lands per winning batch) and
    // re-arms the moment it drains. The steady state holds N × 63 live
    // entries, the timer wheel's target regime (O(1) slot filings,
    // whole-slot drains). Module bodies are deliberately trivial so
    // queue operations dominate the wall clock.
    for &n in sizes {
        let storm = kernel_run(n, Duration::from_us(100), beat_storm);
        records.push(row("beat_storm", "payload_beats", None, runs, storm));
    }

    // Trace-heavy ring: every module records an interned trace entry
    // per activation (so nothing ever parks; relays blocked on an empty
    // link are echoed instead) and the columnar log spills full
    // segments to a sink — the steady-state cost of the trace
    // subsystem rides this row. Mirrors the counting-allocator gate's
    // scenario (`tests/alloc.rs`), which pins the same regime to zero
    // heap allocations per warm cycle.
    {
        let traced = move |scheduling| {
            build_scenario(&ScenarioSpec {
                scheduling,
                trace: true,
                ..ring
            })
            .expect("scenario builds")
        };
        // Untimed, unspilled runs of the row's span: the driver's
        // echoes must reproduce the per-process oracle's trace and
        // statuses, and must engage at all.
        let run = |scheduling| {
            let mut s = traced(scheduling);
            run_200us(&mut s);
            let status: Vec<_> = s
                .modules
                .iter()
                .map(|&m| s.cosim.module_status(m))
                .collect();
            (
                s.cosim.trace_log(),
                status,
                s.cosim.shard_stats().modules_echoed,
            )
        };
        let driver = run(sharded);
        let oracle = run(SchedulingConfig {
            dispatch: Dispatch::PerProcess,
            park_blocked: true,
        });
        assert!(
            driver.0 == oracle.0 && driver.1 == oracle.1,
            "trace_heavy: the driver's trace or statuses diverge from the per-process oracle"
        );
        assert!(driver.2 > 0, "trace_heavy: the driver echoed no activation");
        let build = move || {
            let s = traced(sharded);
            s.cosim
                .trace_handle()
                .borrow_mut()
                .set_spill(Box::new(std::io::sink()));
            s
        };
        records.push(row(
            "trace_heavy",
            bus,
            None,
            runs,
            build_then_time(small, build, run_200us),
        ));
    }

    // Register polling: `n` modules poll one shared register's pure
    // `read` the way the motor's Core polls `ReadSampledData` (read,
    // then drive the value onto a port) while one writer rewrites the
    // register every 16 cycles. Before timing, the run fails unless the
    // pollers park between writes — each stepped at most twice per
    // write (one step takes the value, the next proves the fixed point)
    // plus twice — and end with the port values and states of an
    // unparked run.
    for n in [16, 64] {
        let build = move |scheduling| {
            build_poll(n, POLL_PERIOD, 10_000, scheduling).expect("poll system builds")
        };
        let run = |s: &mut PollScenario| s.cosim.run_for(Duration::from_us(200)).expect("runs");
        let (mut parked, mut unparked) = (build(sharded), build(no_parking));
        run(&mut parked);
        run(&mut unparked);
        let writes = match parked.cosim.module_var(parked.writer, "N") {
            Some(cosma_core::Value::Int(w)) if w > 0 => w as u64,
            other => panic!("poll: the writer wrote nothing ({other:?})"),
        };
        let out = |s: &PollScenario, i: usize| {
            let sig = s.cosim.sim().find_signal(&format!("poller{i}.OUT"));
            s.cosim
                .sim()
                .value(sig.expect("pollers have an OUT port"))
                .clone()
        };
        for (i, (&p, &u)) in parked.pollers.iter().zip(&unparked.pollers).enumerate() {
            let (ps, us) = (
                parked.cosim.module_status(p),
                unparked.cosim.module_status(u),
            );
            assert!(
                ps.activations <= 2 * writes + 2,
                "poll: poller {i} stepped {} times for {writes} writes",
                ps.activations
            );
            assert_eq!(
                ps.state, us.state,
                "poll: poller {i} ends elsewhere unparked"
            );
            assert_eq!(out(&parked, i), out(&unparked, i), "poll: poller {i} port");
        }
        let poll = build_then_time(n, move || build(sharded), run);
        records.push(row("poll", "none", None, runs, poll));
    }

    // Step scaling: a wide pipeline with parking off, so the module
    // driver steps the whole module set every cycle — the scheduler's
    // per-activation cost at scale.
    {
        let (sn, sruns): (usize, u32) = if quick { (256, 2) } else { (1024, 3) };
        let build = move || scenario(sn, Topology::Pipeline, no_parking, batched);
        let run = |s: &mut Scenario| s.cosim.run_for(Duration::from_us(50)).expect("runs");
        records.push(row(
            "step_scaling",
            bus,
            None,
            sruns,
            build_then_time(sn, build, run),
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
        let (mid, tail) = (Duration::from_us(150), Duration::from_us(50));
        let build = move || scenario(n, Topology::Pipeline, sharded, batched);
        let mut warm = build();
        warm.cosim.run_for(mid).expect("runs");
        let (snap, capture_ns) = timed(|| warm.cosim.snapshot());
        warm.cosim.run_for(tail).expect("runs");
        let want_trace = warm.cosim.trace_log();
        println!(
            "snapshot capture: {capture_ns} ns for {} modules at t={:?}",
            snap.module_count(),
            snap.at()
        );
        let restore = row("snapshot_restore", bus, None, runs, || {
            let ((), ns) = timed(|| {
                warm.cosim.restore(&snap).expect("restore");
                warm.cosim.run_for(tail).expect("runs");
            });
            assert_eq!(
                warm.cosim.trace_log(),
                want_trace,
                "restored replay must be bit-identical to the original run"
            );
            (n, ns)
        });
        let replay = |s: &mut Scenario| s.cosim.run_for(mid + tail).expect("runs");
        let rerun = row(
            "snapshot_rerun",
            bus,
            None,
            runs,
            build_then_time(n, build, replay),
        );
        assert!(
            restore.p50_ns < rerun.p50_ns,
            "restore + {tail} tail ({} ns p50) must beat re-running {} from zero ({} ns p50)",
            restore.p50_ns,
            mid + tail,
            rerun.p50_ns
        );
        records.extend([restore, rerun]);
    }

    // Multi-rate clock domains: the same batched ring, uniform vs half
    // of it in a quarter-rate domain. Slow-domain members take one
    // activation edge per four base edges (and the units they feed
    // pump accordingly), so the rate split must be measurably cheaper
    // than the uniform run — the whole point of domain-aware clocking.
    {
        use cosma_cosim::scenario::DomainsSpec;
        let [uniform, slow] = [
            ("uniform", DomainsSpec::default()),
            (
                "slow_1_4",
                DomainsSpec {
                    ratio: (4, 1),
                    slow_links: small / 2,
                },
            ),
        ]
        .map(|(variant, domains)| {
            let build = move || build_scenario(&ScenarioSpec { domains, ..ring }).expect("builds");
            let run = build_then_time(small, build, run_200us);
            row("multi_rate", bus, Some(variant), runs, run)
        });
        let (uniform_p50, slow_p50) = (uniform.p50_ns, slow.p50_ns);
        println!(
            "multi_rate N={small}: uniform p50 {uniform_p50} ns vs slow_1_4 p50 {slow_p50} ns \
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
        records.extend([uniform, slow]);
    }

    // Partitioned co-simulation: the same scenario run collapsed in one
    // backplane vs cut into two partitions stepped in quanta of the
    // boundary latency. The split row pays one run call per partition
    // per quantum; the warm runs must agree with each other before
    // anything is timed.
    {
        use cosma_cosim::scenario::{build_collapsed, build_partitioned, PartitionsSpec};
        let pspec = PartitionsSpec {
            count: 2,
            latency: Duration::from_ns(200),
        };
        let collapsed = || build_collapsed(&ring, &pspec).expect("collapsed builds");
        let split = || build_partitioned(&ring, &pspec).expect("partitioned builds");
        let run_split = |s: &mut cosma_cosim::scenario::PartitionedScenario| {
            s.run_for(Duration::from_us(200)).expect("runs");
        };
        let mut warm_collapsed = collapsed();
        run_200us(&mut warm_collapsed);
        let mut warm_split = split();
        run_split(&mut warm_split);
        for (j, &m) in warm_collapsed.modules.iter().enumerate() {
            assert_eq!(
                warm_split.module_status(j),
                warm_collapsed.cosim.module_status(m),
                "partitioned: module {j} diverged from the collapsed run"
            );
        }
        assert_eq!(
            warm_split.verify(),
            warm_collapsed.verify(),
            "partitioned: checker verdicts diverged from the collapsed run"
        );
        let collapsed = build_then_time(small, collapsed, run_200us);
        records.push(row("partitioned", bus, Some("collapsed"), runs, collapsed));
        let split = build_then_time(small, split, run_split);
        records.push(row("partitioned", bus, Some("split_2"), runs, split));
    }

    // Elaboration: build and drop a length-only batched pipeline — the
    // kernel signals, unit table, driver members and module instances a
    // job sets up and tears down around its run.
    {
        let (elab_sizes, elab_runs): (&[usize], u32) = if quick {
            (&[64], 20)
        } else {
            (&[64, 256], 100)
        };
        for &n in elab_sizes {
            let build = || scenario(n, Topology::Pipeline, sharded, batched);
            records.push(row("elaborate", bus, None, elab_runs, || {
                let ((), ns) = timed(|| drop(build()));
                (n, ns)
            }));
        }
    }

    // Front-ends: parse plus elaboration of the paper's C (Figure 6b)
    // and VHDL (Figure 7) sub-systems, the setup a mixed-language flow
    // pays before anything simulates. Each run returns the elaborated
    // modules, which are dropped outside the timed span.
    {
        use cosma_bench::{
            distribution_options, speed_control_options, DISTRIBUTION_SRC, SPEED_CONTROL_SRC,
        };
        use cosma_core::{Module, ModuleKind};
        let (c_opts, vhdl_opts) = (distribution_options(), speed_control_options());
        let c = || {
            let module = cosma_frontend::c::compile_module(
                DISTRIBUTION_SRC,
                "DISTRIBUTION",
                ModuleKind::Software,
                &c_opts,
            );
            vec![module.expect("DISTRIBUTION elaborates")]
        };
        let vhdl = || {
            let hw = cosma_frontend::vhdl::compile_entity(
                SPEED_CONTROL_SRC,
                "SPEED_CONTROL",
                &vhdl_opts,
            );
            hw.expect("SPEED_CONTROL elaborates").modules
        };
        let variants: [(&str, &dyn Fn() -> Vec<Module>); 2] = [("c", &c), ("vhdl", &vhdl)];
        for (variant, compile) in variants {
            records.push(row("frontends", "none", Some(variant), fast_runs, || {
                let (modules, ns) = timed(|| std::hint::black_box(compile()));
                (modules.len(), ns)
            }));
        }
    }

    // The Figure 1 flow's two platforms on one 8-segment motor
    // trajectory: variant `cosim` times `build_cosim` plus
    // `run_to_completion` (`n` counts the HW cycles simulated), variant
    // `board` times `build_board` plus `run_to_completion` (`n` counts
    // fabric ticks). Each run must end with the motor at the trajectory's
    // total distance; the checks and the drop are outside the timed span.
    {
        use cosma_board::BoardConfig;
        use cosma_motor::{build_board, build_cosim, MotorConfig};
        use cosma_synth::Encoding;
        let motor_runs: u32 = if quick { 5 } else { 100 };
        let cfg = MotorConfig {
            segments: 8,
            segment_len: 10,
            ..MotorConfig::default()
        };
        let want = cfg.total_distance();
        records.push(row("motor", "none", Some("cosim"), motor_runs, || {
            let ((sys, done), ns) = timed(|| {
                let mut sys = build_cosim(&cfg, CosimConfig::default()).expect("motor assembles");
                let done = sys.run_to_completion(Duration::from_us(20), 20_000);
                (sys, done)
            });
            assert!(done.expect("co-simulation runs"), "co-simulation completes");
            assert_eq!(sys.motor.borrow().position(), want);
            let hw_cycle = CosimConfig::default().hw_cycle.as_fs();
            ((sys.cosim.sim().now().as_fs() / hw_cycle) as usize, ns)
        }));
        records.push(row("motor", "none", Some("board"), motor_runs, || {
            let ((sys, done), ns) = timed(|| {
                let mut sys = build_board(&cfg, BoardConfig::default(), Encoding::Binary)
                    .expect("motor synthesizes");
                let done = sys.run_to_completion(20_000, 20_000);
                (sys, done)
            });
            assert!(done.expect("board runs"), "board run completes");
            assert_eq!(sys.motor.borrow().position(), want);
            (sys.board.fabric_ticks() as usize, ns)
        }));
    }

    // The co-synthesis steps of the Figure 1 flow on the motor
    // controller's modules: flattening, hardware synthesis under each
    // state encoding, and software compilation to MC16.
    {
        use cosma_motor::{
            distribution_module, motor_link_unit, position_module, swhw_link_unit, timer_module,
            MotorConfig,
        };
        use cosma_synth::{compile_sw, flatten_module, synthesize_hw, Encoding, IoMap};
        let cfg = MotorConfig::default();
        let units = [("swhw", swhw_link_unit()), ("mlink", motor_link_unit())]
            .map(|(name, unit)| (name.to_string(), unit))
            .into();
        let flat = |m: &cosma_core::Module| flatten_module(m, &units).expect("flattens");
        let distribution = distribution_module(&cfg);
        let (flat_distribution, position, timer) = (
            flat(&distribution),
            flat(&position_module(&cfg)),
            flat(&timer_module(&cfg)),
        );
        let states = |m: &cosma_core::Module| m.fsm().state_count();
        records.push(row(
            "synthesis",
            "none",
            Some("flatten_distribution"),
            fast_runs,
            || {
                let (m, ns) = timed(|| flat(&distribution));
                (states(&m), ns)
            },
        ));
        records.push(row(
            "synthesis",
            "none",
            Some("hw_synth_position"),
            fast_runs,
            || {
                let (_, ns) = timed(|| synthesize_hw(&position, Encoding::Binary).expect("synth"));
                (states(&position), ns)
            },
        ));
        let io = IoMap::for_module(0x300, &flat_distribution);
        records.push(row(
            "synthesis",
            "none",
            Some("sw_synth_distribution"),
            fast_runs,
            || {
                let (_, ns) = timed(|| compile_sw(&flat_distribution, &io).expect("compiles"));
                (states(&flat_distribution), ns)
            },
        ));
        for (variant, encoding) in [
            ("timer_binary", Encoding::Binary),
            ("timer_onehot", Encoding::OneHot),
            ("timer_gray", Encoding::Gray),
        ] {
            records.push(row("synthesis", "none", Some(variant), fast_runs, || {
                let (_, ns) = timed(|| synthesize_hw(&timer, encoding).expect("synthesizes"));
                (states(&timer), ns)
            }));
        }
    }

    // The MC16 instruction-set simulator, the software side of the
    // synthesized board, on three loops run to `HLT`.
    {
        use cosma_isa::{assemble, Cpu, NullBus};
        const BUDGET: u64 = 1_000_000;
        for (variant, src) in [
            (
                "alu_loop",
                "LDI r0, 0\nLDI r1, 1000\nloop: ADD r0, r1\nXOR r0, r1\nADDI r1, -1\n\
                 CMPI r1, 0\nJNZ loop\nHLT\n",
            ),
            (
                "mem_loop",
                "LDI r2, 0x4000\nLDI r1, 500\nloop: LD r0, [0x4000]\nADDI r0, 1\n\
                 ST [0x4000], r0\nADDI r1, -1\nCMPI r1, 0\nJNZ loop\nHLT\n",
            ),
            (
                "io_loop",
                "LDI r1, 300\nloop: IN r0, 0x300\nOUT 0x301, r0\nADDI r1, -1\nCMPI r1, 0\n\
                 JNZ loop\nHLT\n",
            ),
        ] {
            let image = assemble(src).expect("assembles");
            records.push(row("isa", "none", Some(variant), fast_runs, || {
                let mut cpu = Cpu::new();
                cpu.load_image(&image);
                let (cycles, ns) = timed(|| cpu.run(&mut NullBus, BUDGET).expect("runs"));
                assert!(cycles < BUDGET, "isa {variant}: no HLT");
                (cpu.retired() as usize, ns)
            }));
        }
    }

    // The library's communication units interpreted without a kernel:
    // 100 messages from a producer to a consumer through each unit
    // (`shared_reg`: 100 acquire/write/read/release rounds of one
    // caller), over `StandaloneUnit` or, for batched links, a
    // `BatchedLink` over `LocalWires`. `handshake` and `shared_reg` are
    // pure FSM interpretation: protocol sessions and a controller.
    {
        use cosma_comm::{
            handshake_unit, shared_reg_unit, BatchedLink, FifoChannel, LocalWires, Mailbox,
            StandaloneUnit,
        };
        use cosma_core::Type;
        const MESSAGES: i64 = 100;
        let through = |make: &dyn Fn() -> StandaloneUnit, put: &'static str, get: &'static str| {
            let mut unit = make();
            let ((), ns) = timed(|| transfer(&mut unit, put, get, MESSAGES));
            (MESSAGES as usize, ns)
        };
        let handshake = || StandaloneUnit::from_spec(handshake_unit("hs", Type::INT16));
        records.push(row("comm", "none", Some("handshake"), fast_runs, || {
            through(&handshake, "put", "get")
        }));
        records.push(row("comm", "none", Some("shared_reg"), fast_runs, || {
            let mut unit = StandaloneUnit::from_spec(shared_reg_unit("mem", Type::INT16));
            let ((), ns) = timed(|| shared_reg_rounds(&mut unit, MESSAGES));
            (MESSAGES as usize, ns)
        }));
        for (variant, max_batch) in [("batched_4", 4), ("batched_16", 16)] {
            records.push(row("comm", "none", Some(variant), fast_runs, || {
                let mut link = BatchedLink::new("bus", Type::INT16, max_batch, 256);
                let mut wires = LocalWires::new(link.spec());
                let ((), ns) = timed(|| transfer_batched(&mut link, &mut wires, MESSAGES));
                (MESSAGES as usize, ns)
            }));
        }
        for (variant, cap) in [("fifo_4", 4), ("fifo_16", 16)] {
            let fifo = move || StandaloneUnit::from_native(Box::new(FifoChannel::new("q", cap)));
            records.push(row("comm", "none", Some(variant), fast_runs, || {
                through(&fifo, "put", "get")
            }));
        }
        let mailbox = || StandaloneUnit::from_native(Box::new(Mailbox::new("mb", 4)));
        records.push(row("comm", "none", Some("mailbox_4"), fast_runs, || {
            through(&mailbox, "send_a", "recv_b")
        }));
    }

    // The kernel alone: clocked counters, sparse wakeups among idle
    // processes, timer storms and delta chains.
    {
        let (long, short) = (Duration::from_us(100), Duration::from_us(10));
        let mut kernel = |variant, sizes: &[usize], span, build| {
            for &n in sizes {
                let run = kernel_run(n, span, build);
                records.push(row("kernel", "none", Some(variant), runs, run));
            }
        };
        kernel("counters", &[4, 16, 64], long, kernel_counters);
        kernel(
            "sparse_wakeup",
            &[256, 1024, 4096],
            long,
            kernel_sparse_wakeup,
        );
        kernel("timer_storm", &[64, 512], short, kernel_timer_storm);
        kernel("delta_chain", &[8, 64], short, kernel_delta_chain);
    }

    // Sanity gate for CI: parked consumers must contribute ~zero
    // activations in the starved scenario.
    let mut s = scenario(sizes[sizes.len() - 1], Topology::Starved, sharded, hs);
    run_200us(&mut s);
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
        let variant = r
            .variant
            .map_or_else(|| "null".to_string(), |v| format!("\"{v}\""));
        json.push_str(&format!(
            "  {{\"schema\": {}, \"scenario\": \"{}\", \"n\": {}, \
             \"bus_timing\": \"{}\", \"variant\": {}, \
             \"ns_per_run\": {}, \"p50_ns\": {}, \"p99_ns\": {}, \"runs\": {}, \
             \"git_rev\": \"{}\", \"cpus\": {}, \"timestamp\": {}}}{}\n",
            SCHEMA_VERSION,
            r.scenario,
            r.n,
            r.bus_timing,
            variant,
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
