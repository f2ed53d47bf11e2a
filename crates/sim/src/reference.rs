//! The pre-index, full-scan reference kernel, kept as a
//! differential-testing oracle.
//!
//! [`RefSimulator`] is the original scheduling core of this crate: it
//! rescans **every** process on **every** delta to find event-sensitive
//! ones and keys timed work on `BTreeMap`s. It is deliberately simple —
//! the semantics are easy to audit — and deliberately slow, so it is not
//! exported through the `cosma` facade's hot paths. Its one job is to
//! define the observable VHDL semantics that the production
//! [`Simulator`](crate::Simulator) (inverted sensitivity index +
//! timer-wheel queues) must reproduce exactly: property tests in
//! `tests/properties.rs` run randomized clock/process mixes through both
//! kernels and require identical signal traces, event counts and delta
//! counts.
//!
//! Its clocks are [`ClockProcess`]es: ordinary processes that toggle
//! their signal and wait out a half period on the timer queue, the
//! generator the production kernel's own clocks
//! ([`Simulator::add_clock`](crate::Simulator::add_clock)) are held to.

use crate::kernel::{ProcCtx, Process, SimError, SimStats, Wait};
use crate::signal::{Signal, SignalId, SignalInfo};
use crate::time::{Duration, SimTime};
use cosma_core::{Bit, Type, Value};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// A free-running clock generator process toggling a bit signal every
/// half period: the reference semantics of a kernel-owned clock.
#[derive(Debug)]
pub struct ClockProcess {
    signal: SignalId,
    half_period: Duration,
}

impl ClockProcess {
    /// Creates a clock driving `signal` with the given full `period`.
    #[must_use]
    pub fn new(signal: SignalId, period: Duration) -> Self {
        ClockProcess {
            signal,
            half_period: period.halved(),
        }
    }
}

impl Process for ClockProcess {
    fn run(&mut self, ctx: &mut ProcCtx<'_>) -> Wait {
        let next = match ctx.read(self.signal) {
            Value::Bit(Bit::One) => Bit::Zero,
            _ => Bit::One,
        };
        ctx.drive(self.signal, Value::Bit(next));
        Wait::Timeout(self.half_period)
    }
}

/// Process handle within a [`RefSimulator`]. Distinct from
/// [`ProcessId`](crate::ProcessId) so the two kernels cannot be mixed up.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RefProcessId(u32);

impl RefProcessId {
    /// Raw index.
    #[must_use]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

struct ProcSlot {
    body: Option<Box<dyn Process>>,
    sensitivity: Vec<SignalId>,
    /// Rising-edge filter of the sensitivity ([`Wait::Rising`]).
    rising: bool,
    wake_at: Option<SimTime>,
    runs: u64,
}

/// The full-scan oracle kernel. Mirrors the [`Simulator`](crate::Simulator)
/// API subset the property tests need.
pub struct RefSimulator {
    signals: Vec<Signal>,
    processes: Vec<ProcSlot>,
    delta_drives: Vec<(SignalId, Value)>,
    timed_drives: BTreeMap<SimTime, Vec<(SignalId, Value)>>,
    timer_queue: BTreeMap<SimTime, Vec<RefProcessId>>,
    now: SimTime,
    initialized: bool,
    max_deltas: u32,
    stats: SimStats,
    fresh_events: Vec<SignalId>,
    /// Packed mirror of the signals' `event_now` flags, kept in
    /// lockstep with the fast kernel's (see `Simulator::event_bits`) so
    /// the shared [`ProcCtx`](crate::kernel::ProcCtx) event probes read
    /// identical state on both kernels.
    event_bits: Vec<u64>,
}

impl fmt::Debug for RefSimulator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RefSimulator")
            .field("signals", &self.signals.len())
            .field("processes", &self.processes.len())
            .field("now", &self.now)
            .finish_non_exhaustive()
    }
}

impl Default for RefSimulator {
    fn default() -> Self {
        Self::new()
    }
}

impl RefSimulator {
    /// Creates an empty oracle simulator.
    #[must_use]
    pub fn new() -> Self {
        RefSimulator {
            signals: vec![],
            processes: vec![],
            delta_drives: vec![],
            timed_drives: BTreeMap::new(),
            timer_queue: BTreeMap::new(),
            now: SimTime::ZERO,
            initialized: false,
            max_deltas: 1000,
            stats: SimStats::default(),
            fresh_events: vec![],
            event_bits: vec![],
        }
    }

    /// Sets the delta-cycle oscillation bound (default 1000).
    pub fn set_max_deltas(&mut self, limit: u32) {
        self.max_deltas = limit.max(1);
    }

    /// Declares a signal.
    pub fn add_signal(&mut self, name: impl Into<String>, ty: Type, init: Value) -> SignalId {
        let id = SignalId(self.signals.len() as u32);
        self.signals.push(Signal::new(name.into(), ty, init));
        self.event_bits.resize(self.signals.len().div_ceil(64), 0);
        id
    }

    /// Declares a bit signal initialized to `'0'`.
    pub fn add_bit(&mut self, name: impl Into<String>) -> SignalId {
        self.add_signal(name, Type::Bit, Value::Bit(Bit::Zero))
    }

    /// Registers a process.
    pub fn add_process(&mut self, p: impl Process + 'static) -> RefProcessId {
        let id = RefProcessId(self.processes.len() as u32);
        self.processes.push(ProcSlot {
            body: Some(Box::new(p)),
            sensitivity: vec![],
            rising: false,
            wake_at: None,
            runs: 0,
        });
        id
    }

    /// Registers a free-running clock ([`ClockProcess`]).
    ///
    /// # Panics
    ///
    /// Panics if `period` is shorter than 2 fs, as
    /// [`Simulator::add_clock`](crate::Simulator::add_clock) does: the
    /// half period would be 0 fs and time would never advance.
    pub fn add_clock(&mut self, signal: SignalId, period: Duration) -> RefProcessId {
        assert!(
            period.halved() > Duration::ZERO,
            "clock on {}: period {period} is shorter than 2fs, so its half period is 0fs",
            self.signals[signal.index()].name
        );
        self.add_process(ClockProcess::new(signal, period))
    }

    /// Current simulated time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Kernel statistics (only the four classic counters are populated).
    #[must_use]
    pub fn stats(&self) -> SimStats {
        self.stats
    }

    /// Current value of a signal.
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this simulator.
    #[must_use]
    pub fn value(&self, s: SignalId) -> &Value {
        &self.signals[s.index()].value
    }

    /// Read-only snapshot of a signal.
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this simulator.
    #[must_use]
    pub fn signal_info(&self, s: SignalId) -> SignalInfo {
        let sig = &self.signals[s.index()];
        SignalInfo {
            name: sig.name.clone(),
            ty: sig.ty.clone(),
            value: sig.value.clone(),
            last_event: sig.last_event,
            event_count: sig.event_count,
        }
    }

    /// Number of activations of a process so far.
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this simulator.
    #[must_use]
    pub fn process_runs(&self, p: RefProcessId) -> u64 {
        self.processes[p.index()].runs
    }

    /// Testbench poke, effective at the next delta.
    ///
    /// # Panics
    ///
    /// Panics on type mismatch.
    pub fn poke(&mut self, s: SignalId, v: Value) {
        let sig = &self.signals[s.index()];
        match sig.admit(v) {
            Ok(v) => self.delta_drives.push((s, v)),
            Err(e) => panic!("poke: {e}"),
        }
    }

    /// Runs until `deadline` (inclusive). Passes at one instant share
    /// its delta budget, as in [`Simulator::run_until`](crate::Simulator::run_until).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::DeltaOverflow`] on combinational oscillation
    /// or zero-time waits that exhaust an instant's budget.
    pub fn run_until(&mut self, deadline: SimTime) -> Result<(), SimError> {
        let spent = if self.initialized {
            0
        } else {
            self.initialize()?
        };
        let mut spent = self.settle(vec![], spent)?;
        while let Some(t) = self.next_instant() {
            if t > deadline {
                break;
            }
            if t > self.now {
                spent = 0;
            }
            self.now = t;
            self.stats.instants += 1;
            let woken = self.begin_instant();
            spent = self.settle(woken, spent)?;
        }
        if self.now < deadline {
            self.now = deadline;
        }
        Ok(())
    }

    /// Runs for a span from the current time.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::DeltaOverflow`] on combinational oscillation.
    pub fn run_for(&mut self, d: Duration) -> Result<(), SimError> {
        let deadline = self.now.saturating_add(d);
        self.run_until(deadline)
    }

    fn next_instant(&self) -> Option<SimTime> {
        let a = self.timed_drives.keys().next().copied();
        let b = self.timer_queue.keys().next().copied();
        match (a, b) {
            (Some(x), Some(y)) => Some(x.min(y)),
            (x, None) => x,
            (None, y) => y,
        }
    }

    fn initialize(&mut self) -> Result<u32, SimError> {
        self.initialized = true;
        let all: Vec<RefProcessId> = (0..self.processes.len() as u32).map(RefProcessId).collect();
        self.run_processes_delta(&all, 0);
        self.settle(vec![], 0)
    }

    fn begin_instant(&mut self) -> Vec<RefProcessId> {
        let mut due_drives = vec![];
        while let Some(&t) = self.timed_drives.keys().next() {
            if t > self.now {
                break;
            }
            due_drives.extend(self.timed_drives.remove(&t).expect("key just seen"));
        }
        self.delta_drives.extend(due_drives);
        let mut woken = vec![];
        while let Some(&t) = self.timer_queue.keys().next() {
            if t > self.now {
                break;
            }
            woken.extend(self.timer_queue.remove(&t).expect("key just seen"));
        }
        for &p in &woken {
            self.processes[p.index()].wake_at = None;
        }
        woken
    }

    /// The original full-scan delta loop: every process is inspected on
    /// every delta with events. `spent` and the result count the
    /// instant's delta budget, as in the fast kernel.
    fn settle(&mut self, mut woken: Vec<RefProcessId>, spent: u32) -> Result<u32, SimError> {
        let mut delta: u32 = 0;
        loop {
            for s in self.fresh_events.drain(..) {
                self.signals[s.index()].event_now = false;
                self.event_bits[s.index() >> 6] &= !(1u64 << (s.index() & 63));
            }
            let drives = std::mem::take(&mut self.delta_drives);
            let mut event_set: BTreeSet<SignalId> = BTreeSet::new();
            for (sid, v) in drives {
                let sig = &mut self.signals[sid.index()];
                if sig.value != v {
                    sig.prev = sig.value.clone();
                    sig.value = v.clone();
                    sig.event_now = true;
                    self.event_bits[sid.index() >> 6] |= 1u64 << (sid.index() & 63);
                    sig.last_event = Some(self.now);
                    sig.event_count += 1;
                    event_set.insert(sid);
                }
            }
            self.stats.events += event_set.len() as u64;
            self.fresh_events.extend(event_set.iter().copied());

            let mut to_run: BTreeSet<RefProcessId> = woken.drain(..).collect();
            if !event_set.is_empty() {
                for (i, p) in self.processes.iter().enumerate() {
                    let signals = &self.signals;
                    // Mirror the fast kernel's rising filter: a
                    // rising-sensitive process only wakes when the
                    // evented signal's new value is `Bit::One`.
                    let wakes = |s: &SignalId| {
                        event_set.contains(s)
                            && (!p.rising
                                || matches!(signals[s.index()].value, Value::Bit(Bit::One)))
                    };
                    if p.body.is_some() && p.sensitivity.iter().any(wakes) {
                        to_run.insert(RefProcessId(i as u32));
                    }
                }
            }
            if to_run.is_empty() {
                return Ok(spent.saturating_add(delta));
            }
            let run_list: Vec<RefProcessId> = to_run.into_iter().collect();
            for &p in &run_list {
                if let Some(t) = self.processes[p.index()].wake_at.take() {
                    if let Some(q) = self.timer_queue.get_mut(&t) {
                        q.retain(|&x| x != p);
                        if q.is_empty() {
                            self.timer_queue.remove(&t);
                        }
                    }
                }
            }
            self.stats.deltas += 1;
            delta += 1;
            if spent.saturating_add(delta) > self.max_deltas {
                return Err(SimError::DeltaOverflow {
                    time: self.now,
                    limit: self.max_deltas,
                });
            }
            self.run_processes_delta(&run_list, delta);
        }
    }

    fn run_processes_delta(&mut self, list: &[RefProcessId], delta: u32) {
        for &pid in list {
            let mut body = match self.processes[pid.index()].body.take() {
                Some(b) => b,
                None => continue,
            };
            let mut ctx = ProcCtx::new(&self.signals, &self.event_bits, self.now, delta);
            let wait = body.run(&mut ctx);
            let (drives, trains) = ctx.into_parts();
            self.processes[pid.index()].runs += 1;
            self.stats.process_runs += 1;
            for (sid, v, d) in drives {
                if d == Duration::ZERO {
                    self.delta_drives.push((sid, v));
                } else {
                    self.timed_drives
                        .entry(self.now + d)
                        .or_default()
                        .push((sid, v));
                }
            }
            // Drive trains expand after the activation's individual
            // drives, beats in order — the same sequence the kernel
            // assigns, so pop order matches bit-for-bit.
            for t in trains {
                let mut at = self.now + t.start;
                for v in t.values {
                    self.timed_drives.entry(at).or_default().push((t.sig, v));
                    at += t.stride;
                }
            }
            let slot = &mut self.processes[pid.index()];
            match wait {
                Wait::Event(sigs) => {
                    slot.sensitivity = sigs;
                    slot.rising = false;
                }
                Wait::Rising(sigs) => {
                    slot.sensitivity = sigs;
                    slot.rising = true;
                }
                Wait::Timeout(d) => {
                    slot.sensitivity.clear();
                    slot.rising = false;
                    let at = self.now + d;
                    slot.wake_at = Some(at);
                    self.timer_queue.entry(at).or_default().push(pid);
                }
                Wait::EventOrTimeout(sigs, d) => {
                    slot.sensitivity = sigs;
                    slot.rising = false;
                    let at = self.now + d;
                    slot.wake_at = Some(at);
                    self.timer_queue.entry(at).or_default().push(pid);
                }
                Wait::Forever => {
                    slot.sensitivity.clear();
                    slot.rising = false;
                }
                Wait::Same => {}
            }
            self.processes[pid.index()].body = Some(body);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::FnProcess;

    #[test]
    fn oracle_matches_classic_clock_semantics() {
        let mut sim = RefSimulator::new();
        let clk = sim.add_bit("CLK");
        sim.add_clock(clk, Duration::from_ns(100));
        sim.run_for(Duration::from_ns(249)).unwrap();
        let info = sim.signal_info(clk);
        assert_eq!(info.event_count, 5);
        assert_eq!(info.value, Value::Bit(Bit::One));
    }

    #[test]
    #[should_panic(expected = "clock on CLK: period 1fs is shorter than 2fs")]
    fn oracle_refuses_a_clock_with_a_zero_half_period() {
        let mut sim = RefSimulator::new();
        let clk = sim.add_bit("CLK");
        sim.add_clock(clk, Duration::from_fs(1));
    }

    #[test]
    fn oracle_two_phase_and_timeout() {
        let mut sim = RefSimulator::new();
        let n = sim.add_signal("N", Type::INT16, Value::Int(0));
        sim.add_process(FnProcess::new(move |ctx| {
            let v = ctx.read_int(n);
            ctx.drive(n, Value::Int(v + 1));
            Wait::Timeout(Duration::from_ns(10))
        }));
        sim.run_until(SimTime::from_ns(45)).unwrap();
        assert_eq!(sim.value(n), &Value::Int(5));
    }
}
