//! One job of each workload: the calls into the library layers, the
//! checks on their outputs, the determinism digest and, when tracing,
//! the layer counters.

use crate::digest::Digest;
use crate::jobs::Job;
use crate::spans::Tracer;
use cosma_board::BoardConfig;
use cosma_cosim::scenario::{build_scenario, Scenario, ScenarioSpec};
use cosma_cosim::{tracebin, Cosim, CosimConfig, TraceLog};
use cosma_motor::{build_board, build_cosim, MotorConfig};
use cosma_sim::Duration;
use cosma_synth::Encoding;

/// Co-simulation chunk of the motor flow. Small, so the run stops close
/// to `Done` instead of measuring the chunk.
const COSIM_CHUNK: Duration = Duration::from_us(20);
/// Board run chunk of the motor flow, in ns (see [`COSIM_CHUNK`]).
const BOARD_CHUNK_NS: u64 = 100_000;
/// Chunk limits: far beyond the longest generated trajectory.
const COSIM_MAX_CHUNKS: u32 = 20_000;
const BOARD_MAX_CHUNKS: u32 = 4_000;
/// Simulated-time budget of a scenario run; far beyond the longest job.
const SCENARIO_BUDGET: Duration = Duration::from_ms(50);
/// Trace labels the coherence check compares between the platforms.
const COHERENCE_LABELS: [&str; 4] = ["send_pos", "motor_state", "pulse", "done"];

/// Counters summed over the traced jobs. `sim_cycles`, `cpu_cycles` and
/// `fabric_ticks` are simulated quantities; the rest count host-side
/// work or model outputs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counters {
    /// Simulated hardware cycles run by the backplane.
    pub sim_cycles: u64,
    /// Kernel `SimStats` deltas over the runs.
    pub events: u64,
    pub process_runs: u64,
    pub deltas: u64,
    pub instants: u64,
    pub event_wakeups: u64,
    pub timer_wakeups: u64,
    pub wheel_cascades: u64,
    pub bulk_inserts: u64,
    /// Scheduler `ShardStats` deltas over the runs.
    pub modules_stepped: u64,
    pub units_stepped: u64,
    pub units_skipped: u64,
    pub members_parked: u64,
    pub members_resumed: u64,
    pub wire_wakeups: u64,
    pub watch_probes: u64,
    /// Unit `UnitStats` deltas over the runs, summed over every unit.
    pub calls: u64,
    pub completions: u64,
    pub controller_steps: u64,
    pub controller_skips: u64,
    pub batches: u64,
    pub batched_values: u64,
    pub payload_beats: u64,
    /// Final trace-log entries of the job.
    pub trace_entries: u64,
    /// Encoded `tracebin` bytes.
    pub tracebin_bytes: u64,
    /// Synthesis results (sums over the hardware modules).
    pub luts: u64,
    pub ffs: u64,
    pub image_words: u64,
    /// Board counters.
    pub cpu_cycles: u64,
    pub fabric_ticks: u64,
    pub bus_ops: u64,
}

/// A snapshot of every cumulative backplane counter, taken around a run
/// call so the job can add the delta.
struct Probe {
    now_fs: u64,
    sim: cosma_sim::SimStats,
    sched: cosma_cosim::ShardStats,
    /// Unit totals; only the `comm` fields are filled.
    units: Counters,
}

impl Probe {
    fn take(cosim: &Cosim, units: &[String]) -> Probe {
        let mut u = Counters::default();
        for s in units.iter().filter_map(|name| cosim.unit_stats(name)) {
            for svc in s.services.values() {
                u.calls += svc.calls;
                u.completions += svc.completions;
            }
            u.controller_steps += s.controller_steps;
            u.controller_skips += s.controller_skips;
            u.batches += s.batches;
            u.batched_values += s.batched_values;
            u.payload_beats += s.payload_beats;
        }
        Probe {
            now_fs: cosim.sim().now().as_fs(),
            sim: cosim.sim().stats(),
            sched: cosim.shard_stats(),
            units: u,
        }
    }

    /// Adds the work done between `self` and `after` to `c`.
    fn add_delta(&self, after: &Probe, hw_cycle_fs: u64, c: &mut Counters) {
        c.sim_cycles += (after.now_fs - self.now_fs) / hw_cycle_fs;
        let (a, b) = (&self.sim, &after.sim);
        c.events += b.events - a.events;
        c.process_runs += b.process_runs - a.process_runs;
        c.deltas += b.deltas - a.deltas;
        c.instants += b.instants - a.instants;
        c.event_wakeups += b.event_wakeups - a.event_wakeups;
        c.timer_wakeups += b.timer_wakeups - a.timer_wakeups;
        c.wheel_cascades += b.wheel_cascades - a.wheel_cascades;
        c.bulk_inserts += b.bulk_inserts - a.bulk_inserts;
        let (a, b) = (&self.sched, &after.sched);
        c.modules_stepped += b.modules_stepped - a.modules_stepped;
        c.units_stepped += b.units_stepped - a.units_stepped;
        c.units_skipped += b.units_skipped - a.units_skipped;
        c.members_parked += b.members_parked - a.members_parked;
        c.members_resumed += b.members_resumed - a.members_resumed;
        c.wire_wakeups += b.wire_wakeups - a.wire_wakeups;
        c.watch_probes += b.watch_probes - a.watch_probes;
        let (a, b) = (&self.units, &after.units);
        c.calls += b.calls - a.calls;
        c.completions += b.completions - a.completions;
        c.controller_steps += b.controller_steps - a.controller_steps;
        c.controller_skips += b.controller_skips - a.controller_skips;
        c.batches += b.batches - a.batches;
        c.batched_values += b.batched_values - a.batched_values;
        c.payload_beats += b.payload_beats - a.payload_beats;
    }
}

/// Runs `run` on `sys` inside a `cosim.run` span. When tracing, adds
/// the counters the run moved to `c`; restores between runs may rewind
/// cumulative counters, so only deltas around a run are trusted.
fn timed_run<S, T>(
    tr: &mut Tracer,
    c: &mut Counters,
    units: &[String],
    sys: &mut S,
    cosim: fn(&S) -> &Cosim,
    run: impl FnOnce(&mut S) -> T,
) -> T {
    if !tr.is_on() {
        return run(sys);
    }
    let before = Probe::take(cosim(sys), units);
    let out = tr.span("cosim.run", || run(sys));
    let after = Probe::take(cosim(sys), units);
    before.add_delta(&after, CosimConfig::default().hw_cycle.as_fs(), c);
    out
}

/// Why a job failed.
pub type JobError = String;

/// Runs one job: its layer calls inside spans, its checks, and its
/// digest. `c` receives the layer counters when `tr` is on.
///
/// # Errors
///
/// Returns a description of the first failed layer call or check.
pub fn run_job(job: &Job, tr: &mut Tracer, c: &mut Counters) -> Result<u64, JobError> {
    match job {
        Job::Cosyn(cfg) => cosyn_flow(cfg, tr, c),
        Job::Soc(spec) => soc_sweep(spec, tr, c),
        Job::Replay { spec, prefix } => trace_replay(spec, *prefix, tr, c),
    }
}

fn scenario_cosim(s: &Scenario) -> &Cosim {
    &s.cosim
}

fn link_names(n: usize) -> Vec<String> {
    (0..n).map(|i| format!("link{i}")).collect()
}

/// Folds every module's `SUM` variable (the checkers' checksums) into
/// the digest.
fn sums(sc: &Scenario, d: &mut Digest) {
    for &m in &sc.modules {
        if let Some(v) = sc.cosim.module_var(m, "SUM") {
            d.value(&v);
        }
    }
}

fn cosyn_flow(cfg: &MotorConfig, tr: &mut Tracer, c: &mut Counters) -> Result<u64, JobError> {
    let mut cs = tr
        .span("cosim.build", || build_cosim(cfg, CosimConfig::default()))
        .map_err(|e| format!("build_cosim: {e}"))?;
    let units = ["swhw".to_string(), "mlink".to_string()];
    let done = timed_run(
        tr,
        c,
        &units,
        &mut cs,
        |s| &s.cosim,
        |s| s.run_to_completion(COSIM_CHUNK, COSIM_MAX_CHUNKS),
    )
    .map_err(|e| format!("cosim run: {e}"))?;
    let want = cfg.total_distance();
    if !done || cs.motor.borrow().position() != want {
        return Err(format!(
            "co-simulation: done={done}, motor at {} of {want}",
            cs.motor.borrow().position()
        ));
    }
    let mut bs = tr
        .span("synth.build", || {
            build_board(cfg, BoardConfig::default(), Encoding::Binary)
        })
        .map_err(|e| format!("build_board: {e}"))?;
    let done = tr
        .span("board.run", || {
            bs.run_to_completion(BOARD_CHUNK_NS, BOARD_MAX_CHUNKS)
        })
        .map_err(|e| format!("board run: {e}"))?;
    if !done || bs.motor.borrow().position() != want {
        return Err(format!(
            "board: done={done}, motor at {} of {want}",
            bs.motor.borrow().position()
        ));
    }
    let (cosim_log, board_log, diverged) = tr.span("cosim.trace.compare", || {
        let (a, b) = (cs.cosim.trace_log(), bs.board.trace_log());
        let diverged = COHERENCE_LABELS.into_iter().find(|&label| {
            let fa = a.filtered(|e| e.label == label);
            let fb = b.filtered(|e| e.label == label);
            !fa.compare(&fb).is_match()
        });
        (a, b, diverged)
    });
    if let Some(label) = diverged {
        return Err(format!("co-simulation and board diverge on `{label}`"));
    }

    let luts: u64 = bs.reports.iter().map(|r| r.tech.luts).sum();
    let ffs: u64 = bs.reports.iter().map(|r| r.tech.ffs).sum();
    let words = bs.program.image.len_words() as u64;
    let cpu_cycles = bs.board.cpu_cycles(bs.cpu);
    if tr.is_on() {
        let bus = bs.board.bus_stats(bs.cpu);
        c.trace_entries += cosim_log.len() as u64;
        c.luts += luts;
        c.ffs += ffs;
        c.image_words += words;
        c.cpu_cycles += cpu_cycles;
        c.fabric_ticks += bs.board.fabric_ticks();
        c.bus_ops += bus.reads + bus.writes;
    }
    let mut d = Digest::new();
    d.u64(cs.cosim.sim().now().as_fs());
    d.log(&cosim_log);
    d.u64(bs.board.now_fs());
    d.log(&board_log);
    d.u64(cpu_cycles);
    d.u64(bs.board.fabric_ticks());
    d.u64(want as u64);
    d.u64(luts);
    d.u64(ffs);
    d.u64(words);
    Ok(d.finish())
}

fn soc_sweep(spec: &ScenarioSpec, tr: &mut Tracer, c: &mut Counters) -> Result<u64, JobError> {
    let mut sc = tr
        .span("cosim.build", || build_scenario(spec))
        .map_err(|e| format!("build_scenario: {e}"))?;
    let units = link_names(spec.units);
    let done = timed_run(tr, c, &units, &mut sc, scenario_cosim, |s| {
        s.run_to_completion(SCENARIO_BUDGET)
    })
    .map_err(|e| format!("run: {e}"))?;
    if !done {
        return Err("scenario did not complete within budget".into());
    }
    sc.verify()?;
    let mut d = Digest::new();
    d.u64(sc.cosim.sim().now().as_fs());
    sums(&sc, &mut d);
    Ok(d.finish())
}

fn trace_replay(
    spec: &ScenarioSpec,
    prefix: Duration,
    tr: &mut Tracer,
    c: &mut Counters,
) -> Result<u64, JobError> {
    let mut sc = tr
        .span("cosim.build", || build_scenario(spec))
        .map_err(|e| format!("build_scenario: {e}"))?;
    let units = link_names(spec.units);
    timed_run(tr, c, &units, &mut sc, scenario_cosim, |s| {
        s.cosim.run_for(prefix)
    })
    .map_err(|e| format!("prefix run: {e}"))?;
    let snap = tr.span("cosim.snapshot.capture", || sc.cosim.snapshot());
    let done = timed_run(tr, c, &units, &mut sc, scenario_cosim, |s| {
        s.run_to_completion(SCENARIO_BUDGET)
    })
    .map_err(|e| format!("tail run: {e}"))?;
    if !done {
        return Err("ring did not complete within budget".into());
    }
    sc.verify()?;
    let end = sc.cosim.sim().now();
    let reference = tr.span("cosim.trace.compare", || sc.cosim.trace_log());
    for replay in 1..=2 {
        tr.span("cosim.snapshot.restore", || sc.cosim.restore(&snap))
            .map_err(|e| format!("restore: {e}"))?;
        timed_run(tr, c, &units, &mut sc, scenario_cosim, |s| {
            s.run_to_completion(SCENARIO_BUDGET)
        })
        .map_err(|e| format!("replay {replay}: {e}"))?;
        let handle = sc.cosim.trace_handle();
        let same = tr.span("cosim.trace.compare", || *handle.borrow() == reference);
        if sc.cosim.sim().now() != end || !same {
            return Err(format!("replay {replay} diverged from the first run"));
        }
    }
    let mut bytes = Vec::new();
    tr.span("cosim.tracebin.encode", || {
        tracebin::write_log(&reference, &mut bytes)
    })
    .map_err(|e| format!("tracebin encode: {e}"))?;
    let decoded: TraceLog = tr
        .span("cosim.tracebin.decode", || tracebin::read_log(&bytes[..]))
        .map_err(|e| format!("tracebin decode: {e}"))?;
    if !tr.span("cosim.trace.compare", || decoded == reference) {
        return Err("tracebin round trip changed the log".into());
    }
    if tr.is_on() {
        c.trace_entries += reference.len() as u64;
        c.tracebin_bytes += bytes.len() as u64;
    }
    let mut d = Digest::new();
    d.u64(end.as_fs());
    d.log(&reference);
    d.u64(bytes.len() as u64);
    sums(&sc, &mut d);
    Ok(d.finish())
}
