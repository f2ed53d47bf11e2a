//! The discrete-event kernel with VHDL semantics.
//!
//! # Semantics
//!
//! Two-phase delta cycles: processes never see their own drives until the
//! next delta, signal updates that change a value produce *events*, events
//! wake sensitive processes, and simulated time only advances when the
//! current instant is quiescent. This mirrors the semantics of the
//! commercial VHDL simulator the paper's co-simulation environment was
//! built on. The kernel guarantees, observably:
//!
//! * **Two-phase deltas** — a drive scheduled in delta *d* becomes visible
//!   in delta *d+1*; a process reading a signal it just drove sees the old
//!   value.
//! * **Last-writer-wins within a delta** — pending drives are applied in
//!   schedule order (process-id order within a delta, poke order for
//!   testbench pokes), so the last scheduled drive determines the settled
//!   value, exactly like sequential updates of one VHDL driver.
//! * **Deterministic process ordering** — the processes woken in one delta
//!   run in ascending [`ProcessId`] order, regardless of how they were
//!   woken (event or timeout).
//! * **Timeout cancellation on event wake** — a process in
//!   [`Wait::EventOrTimeout`] that is woken by an event has its pending
//!   timeout cancelled before it can fire.
//!
//! # Scheduling core
//!
//! The kernel never scans the full process table on the hot path:
//!
//! * **Inverted sensitivity index** — every signal carries a watcher list
//!   of `(process, epoch)` entries. A process that changes its wait set
//!   bumps its epoch, which lazily invalidates its old entries; stale
//!   entries are dropped when their list is next traversed (or compacted
//!   when a list becomes mostly stale). Waking the watchers of an event
//!   therefore costs `O(watchers of signals with events)`, not
//!   `O(processes)`. Clocked processes that return [`Wait::Same`] (or an
//!   equal wait set) never touch the index at all.
//! * **One time queue, a hierarchical timer wheel** — timed drives
//!   (`sig <= v after d`) and process timeouts (`wait for d`) live in
//!   one hierarchical timer wheel: 4 levels of 64 power-of-two slots
//!   each (level-0 slot width 2^23 fs ≈ 8.4 ns, each level 64× coarser,
//!   a wheel horizon of ≈ 141 ms), with a far-future overflow list
//!   beyond the horizon. Insertion and timeout cancellation are `O(1)`
//!   (the wheel records each timer's slot index, so cancellation removes
//!   the entry eagerly — no tombstones, no lazy purges — and an armed
//!   timeout is its process's wake instant plus that one entry), the
//!   next-activity query reads per-level occupancy bitmaps and cached
//!   slot minima, and advancing time cascades at most one coarse slot
//!   per level into finer slots — amortized `O(1)` per entry. Entries
//!   stay keyed by `(time, sequence)` and due entries are drained per
//!   instant in that order, so time advances to the least key of one
//!   event queue.
//! * **Kernel-owned clocks** — a clock ([`Simulator::add_clock`],
//!   [`Simulator::add_gated_clock`]) keeps a process slot of its own
//!   (its [`ProcessId`], name, run count and place in process-id
//!   order), but the kernel runs it: an edge pushes the toggled [`Bit`]
//!   onto the next delta's drive list and re-arms the clock with the
//!   next half period's instant and `seq` in its slot, not in the timer
//!   wheel. An edge thus costs no boxed-process call, no [`ProcCtx`],
//!   no type admission and no wheel insert, cascade or drain, yet lands
//!   in the same delta, takes the same `seq` and is captured in the
//!   same canonical timer list as the generator process it replaced
//!   (the reference kernel's
//!   [`ClockProcess`](crate::reference::ClockProcess)).
//! * **Bulk burst insertion** — a pre-computed beat train (the payload
//!   beats of a batched bus transaction) lands in the wheel in one pass
//!   through [`Simulator::schedule_drive_train`] / [`ProcCtx::drive_train`]
//!   instead of one scheduling call per beat.
//! * **Batched drive application** — pending drives are applied in one
//!   pass with no value clones (the old value is moved into the signal's
//!   `prev` slot as the new one moves in).
//!
//! [`SimStats`] exposes counters for all of this — wakeups by kind, the
//! scans avoided versus a full-scan kernel, per-structure queue
//! high-water marks, wheel cascades and bulk-insert volumes — so
//! scheduler regressions are measurable. The pre-index full-scan kernel
//! survives as [`reference::RefSimulator`](crate::reference::RefSimulator),
//! the kernel's one oracle, and the two are held equivalent by
//! randomized property tests.

use crate::queue::{EntryKind, QueueEntry, TimeWheel};

use crate::signal::{Signal, SignalId, SignalInfo};
use crate::time::{Duration, SimTime};
use crate::vcd::VcdRecorder;
use cosma_core::{Bit, EvalError, Type, Value};
use std::cell::Cell;
use std::fmt;
use std::rc::Rc;

/// Identifies a process within a [`Simulator`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ProcessId(u32);

impl ProcessId {
    /// Raw index.
    #[must_use]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ProcessId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "proc{}", self.0)
    }
}

/// What a process waits for after returning from a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Wait {
    /// Resume when any listed signal has an event (`wait on a, b;`).
    Event(Vec<SignalId>),
    /// Resume when any listed signal has a *rising* event: an event
    /// whose new value is `Bit::One` (`wait until rising_edge(clk);`).
    /// The filter applies to the whole list; falling edges leave the
    /// process asleep without an activation, which halves the wake
    /// traffic of purely clock-driven processes.
    Rising(Vec<SignalId>),
    /// Resume after a span (`wait for 10 ns;`).
    Timeout(Duration),
    /// Resume on event or after the span, whichever first.
    EventOrTimeout(Vec<SignalId>, Duration),
    /// Never resume (`wait;`).
    Forever,
    /// Keep the previous *event* sensitivity unchanged (the idiom for
    /// clocked processes: register once, then return `Same` forever).
    ///
    /// Timeouts are one-shot and are **not** re-armed by `Same`. A
    /// process that has never declared a sensitivity and returns `Same`
    /// waits forever.
    Same,
}

/// A simulation process. The kernel calls [`run`](Process::run) at
/// elaboration (time zero) and then whenever the returned [`Wait`]
/// condition is met.
pub trait Process {
    /// Executes until the next wait point; reads and drives signals
    /// through `ctx`.
    fn run(&mut self, ctx: &mut ProcCtx<'_>) -> Wait;
}

impl<P: Process + ?Sized> Process for Box<P> {
    fn run(&mut self, ctx: &mut ProcCtx<'_>) -> Wait {
        (**self).run(ctx)
    }
}

/// Wraps a closure as a [`Process`].
///
/// # Examples
///
/// ```
/// use cosma_sim::{FnProcess, Wait, Simulator, Duration};
/// use cosma_core::{Type, Value, Bit};
///
/// let mut sim = Simulator::new();
/// let led = sim.add_signal("LED", Type::Bit, Value::Bit(Bit::Zero));
/// sim.add_process("driver", FnProcess::new(move |ctx| {
///     ctx.drive(led, Value::Bit(Bit::One));
///     Wait::Forever
/// }));
/// sim.run_for(Duration::from_ns(1))?;
/// assert_eq!(sim.value(led), &Value::Bit(Bit::One));
/// # Ok::<(), cosma_sim::SimError>(())
/// ```
pub struct FnProcess<F>(F);

impl<F: FnMut(&mut ProcCtx<'_>) -> Wait> FnProcess<F> {
    /// Wraps the closure.
    pub fn new(f: F) -> Self {
        FnProcess(f)
    }
}

impl<F> fmt::Debug for FnProcess<F> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "FnProcess")
    }
}

impl<F: FnMut(&mut ProcCtx<'_>) -> Wait> Process for FnProcess<F> {
    fn run(&mut self, ctx: &mut ProcCtx<'_>) -> Wait {
        (self.0)(ctx)
    }
}

/// Which clock transition activates a [`ClockedProcess`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Edge {
    /// Activate on events where the clock becomes `'1'`.
    Rising,
    /// Activate on events where the clock becomes `'0'`.
    Falling,
    /// Activate on any event of the clock signal.
    Any,
}

/// What a clocked body tells the kernel after an activation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClockControl {
    /// Stay registered for the next matching edge.
    Continue,
    /// Unregister permanently (the process never runs again).
    Halt,
}

/// A process activated on a clock edge, registered through the kernel's
/// sensitivity API: it declares its clock once and returns
/// [`Wait::Same`] afterwards, so steady-state activations allocate
/// nothing and never touch the sensitivity index. An [`Edge::Rising`]
/// process declares [`Wait::Rising`], so falling edges do not run it.
///
/// Built by [`Simulator::add_clocked`].
pub struct ClockedProcess<F> {
    clk: SignalId,
    edge: Edge,
    body: F,
    registered: bool,
}

impl<F: FnMut(&mut ProcCtx<'_>) -> ClockControl> ClockedProcess<F> {
    /// Creates a clocked process around `body`.
    pub fn new(clk: SignalId, edge: Edge, body: F) -> Self {
        ClockedProcess {
            clk,
            edge,
            body,
            registered: false,
        }
    }
}

impl<F> fmt::Debug for ClockedProcess<F> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ClockedProcess({}, {:?})", self.clk, self.edge)
    }
}

impl<F: FnMut(&mut ProcCtx<'_>) -> ClockControl> Process for ClockedProcess<F> {
    fn run(&mut self, ctx: &mut ProcCtx<'_>) -> Wait {
        let fire = match self.edge {
            Edge::Rising => ctx.rose(self.clk),
            Edge::Falling => ctx.fell(self.clk),
            Edge::Any => ctx.event(self.clk),
        };
        if fire {
            if let ClockControl::Halt = (self.body)(ctx) {
                return Wait::Forever;
            }
        }
        if self.registered {
            Wait::Same
        } else {
            self.registered = true;
            match self.edge {
                Edge::Rising => Wait::Rising(vec![self.clk]),
                Edge::Falling | Edge::Any => Wait::Event(vec![self.clk]),
            }
        }
    }
}

/// One entry in a signal's watcher list. Valid while the watching
/// process's epoch still equals the recorded one.
type Watcher = (ProcessId, u64);

/// Per-signal inverted sensitivity index entry.
#[derive(Debug, Default)]
struct WatchList {
    entries: Vec<Watcher>,
    /// Lower bound on invalidated entries, bumped when a watcher leaves;
    /// triggers compaction when most of the list is stale.
    stale: u32,
}

/// What a process slot runs.
enum Body {
    /// A process body; `None` while it runs.
    Process(Option<Box<dyn Process>>),
    /// A clock the kernel toggles itself.
    Clock(Clock),
}

/// A kernel-owned clock. While it is armed, the instant of its next
/// edge is its slot's `wake_at` and `seq` the key a timer-wheel entry
/// would carry; the wheel never holds it.
struct Clock {
    signal: SignalId,
    half_period: Duration,
    /// The demand gate of [`Simulator::add_gated_clock`]: while the
    /// counter reads ≤ 0, an edge toggles nothing and waits for an
    /// event on `kick`.
    gate: Option<(Rc<Cell<i64>>, SignalId)>,
    /// Sequence number of the armed edge.
    seq: u64,
}

struct ProcSlot {
    name: String,
    body: Body,
    /// Current event sensitivity (mirrored in the watcher lists).
    sensitivity: Vec<SignalId>,
    /// Whether `sensitivity` is rising-edge filtered ([`Wait::Rising`]):
    /// events that leave the signal at anything but `Bit::One` do not
    /// wake this process.
    rising: bool,
    /// Bumped whenever `sensitivity` is replaced; watcher-list entries
    /// recorded under older epochs are dead. `u64` so it cannot wrap
    /// into a stale entry's epoch within any realistic run.
    epoch: u64,
    /// Pending timeout instant (or next clock edge), if armed.
    wake_at: Option<SimTime>,
    /// Wake-dedup stamp for the current delta.
    wake_stamp: u64,
    runs: u64,
}

/// A buffered drive train recorded by [`ProcCtx::drive_train`]: `values`
/// land on `sig` at `start`, `start + stride`, `start + 2·stride`, …
/// relative to the activation instant. Expanded into ordinary timed
/// drives by the kernel (bulk wheel insert) and by the reference kernel
/// (per-beat map inserts), in recording order after the activation's
/// individual drives — the shared sequence counter keeps pop order
/// identical between the two.
#[derive(Debug)]
pub(crate) struct DriveTrain {
    pub(crate) sig: SignalId,
    pub(crate) start: Duration,
    pub(crate) stride: Duration,
    pub(crate) values: Vec<Value>,
}

/// A drive that its signal's type admits, holding the value as the
/// signal will store it. Only [`ProcCtx::admit`] builds one, so nothing
/// unadmitted reaches the drive queue through
/// [`ProcCtx::drive_admitted`].
#[derive(Debug, Clone, PartialEq)]
pub struct Admitted {
    sig: SignalId,
    value: Value,
}

impl Admitted {
    /// The value the signal stores (the drive clamped to its type).
    #[must_use]
    pub fn value(&self) -> &Value {
        &self.value
    }
}

/// Execution context passed to processes: read signals, schedule drives,
/// query time and events.
#[derive(Debug)]
pub struct ProcCtx<'a> {
    signals: &'a [Signal],
    /// Packed one-bit-per-signal mirror of the `event_now` flags, so
    /// event probes ([`Self::event`] / [`Self::rose`] / [`Self::fell`])
    /// hit a dense bitmap instead of pulling a whole [`Signal`] cache
    /// line per query — backplane schedulers probe thousands of watch
    /// wires per wake.
    event_bits: &'a [u64],
    now: SimTime,
    delta: u32,
    /// Drives scheduled by the running process: (signal, value, delay).
    drives: Vec<(SignalId, Value, Duration)>,
    /// Bulk drive trains scheduled by the running process (see
    /// [`Self::drive_train`]); pooled like `drives`.
    trains: Vec<DriveTrain>,
    /// Pooled empty value buffers backing `trains`, lent by the kernel
    /// so a warm steady state records trains without allocating.
    train_shells: Vec<Vec<Value>>,
    /// Pooled buffer lent to the process for building a
    /// [`Wait::Event`] list without allocating (see [`Self::wait_buf`]).
    wait_buf: Vec<SignalId>,
}

impl<'a> ProcCtx<'a> {
    /// Kernel-internal constructor, shared with the reference kernel.
    pub(crate) fn new(
        signals: &'a [Signal],
        event_bits: &'a [u64],
        now: SimTime,
        delta: u32,
    ) -> Self {
        ProcCtx {
            signals,
            event_bits,
            now,
            delta,
            drives: vec![],
            trains: vec![],
            train_shells: vec![],
            wait_buf: vec![],
        }
    }

    /// Consumes the context, yielding the individual drives and the
    /// drive trains the process scheduled.
    #[allow(clippy::type_complexity)]
    pub(crate) fn into_parts(self) -> (Vec<(SignalId, Value, Duration)>, Vec<DriveTrain>) {
        (self.drives, self.trains)
    }

    /// An empty, pooled buffer for building a [`Wait::Event`] (or
    /// [`Wait::EventOrTimeout`]) wait list without allocating in the
    /// steady state: the kernel recycles displaced sensitivity vectors
    /// through a pool and lends one out per run. Call at most once per
    /// activation — further calls return a fresh zero-capacity vector,
    /// which is correct but allocates once pushed to.
    #[must_use]
    pub fn wait_buf(&mut self) -> Vec<SignalId> {
        std::mem::take(&mut self.wait_buf)
    }

    /// Current signal value.
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this simulator.
    #[must_use]
    pub fn read(&self, s: SignalId) -> &Value {
        &self.signals[s.index()].value
    }

    /// Current value as a [`Bit`].
    ///
    /// # Panics
    ///
    /// Panics if the signal is not bit-typed.
    #[must_use]
    pub fn read_bit(&self, s: SignalId) -> Bit {
        match self.read(s) {
            Value::Bit(b) => *b,
            other => panic!(
                "signal {} is not a bit: {other:?}",
                self.signals[s.index()].name
            ),
        }
    }

    /// Current value as an integer.
    ///
    /// # Panics
    ///
    /// Panics if the signal is not integer-typed.
    #[must_use]
    pub fn read_int(&self, s: SignalId) -> i64 {
        match self.read(s) {
            Value::Int(i) => *i,
            other => panic!(
                "signal {} is not an int: {other:?}",
                self.signals[s.index()].name
            ),
        }
    }

    /// The drive of signal `s` with `v` as the signal will store it: `v`
    /// clamped to the signal's type ([`Type::admit`](cosma_core::Type::admit)).
    /// Interpreters check drives that come from source text here, so
    /// that a mistyped one becomes an error instead of a panic in
    /// [`ProcCtx::drive`], and hand what this returns to
    /// [`ProcCtx::drive_admitted`].
    ///
    /// # Errors
    ///
    /// Returns [`EvalError::IncompatibleDrive`], naming the signal, its
    /// type and the value, when the type does not admit the value (an
    /// integer onto a bit signal, an enum onto an integer one).
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this simulator.
    #[inline]
    pub fn admit(&self, s: SignalId, v: Value) -> Result<Admitted, EvalError> {
        let value = self.signals[s.index()].admit(v)?;
        Ok(Admitted { sig: s, value })
    }

    /// Schedules an admitted drive after `d` (`Duration::ZERO`: the next
    /// delta cycle). Every drive of a process takes this path, and only
    /// [`ProcCtx::admit`] builds what it takes, so each value is checked
    /// once.
    #[inline]
    pub fn drive_admitted(&mut self, a: Admitted, d: Duration) {
        self.drives.push((a.sig, a.value, d));
    }

    /// Schedules a drive for the next delta cycle (`sig <= v;`).
    ///
    /// # Panics
    ///
    /// Panics if the value's kind does not match the signal's type
    /// ([`ProcCtx::admit`] refuses it) — a wiring bug equivalent to a
    /// VHDL type error.
    pub fn drive(&mut self, s: SignalId, v: Value) {
        self.drive_after(s, v, Duration::ZERO);
    }

    /// Schedules a drive after a delay (`sig <= v after d;`).
    ///
    /// # Panics
    ///
    /// Panics on type mismatch (see [`ProcCtx::drive`]).
    pub fn drive_after(&mut self, s: SignalId, v: Value, d: Duration) {
        match self.admit(s, v) {
            Ok(a) => self.drive_admitted(a, d),
            Err(e) => panic!("{e}"),
        }
    }

    /// Schedules a whole drive train in one call: `values[k]` lands on
    /// `s` at `start + k·stride` after the current instant. The kernel
    /// bulk-inserts the train into its timer wheel in one pass, so a
    /// pre-computed burst of known shape (e.g. the payload beats of a
    /// batched bus transaction) costs O(1) per beat instead of one
    /// scheduling call each.
    ///
    /// Train entries are ordered after this activation's individual
    /// drives; within the train, beats keep slice order. Offsets of
    /// `Duration::ZERO` schedule at the current instant (processed at
    /// the next instant boundary, like any timed drive), **not** in the
    /// current delta — use [`ProcCtx::drive`] for delta-cycle drives.
    ///
    /// # Panics
    ///
    /// Panics on type mismatch of any value (see [`ProcCtx::drive`]).
    pub fn drive_train(
        &mut self,
        s: SignalId,
        start: Duration,
        stride: Duration,
        values: &[Value],
    ) {
        if let Err(e) = self.try_drive_train(s, start, stride, values) {
            panic!("drive train: {e}");
        }
    }

    /// [`ProcCtx::drive_train`] for values from source text: each beat
    /// is copied into the train once and admitted there, as
    /// [`ProcCtx::admit`] admits a single drive.
    ///
    /// # Errors
    ///
    /// Returns the first beat's [`EvalError::IncompatibleDrive`]; the
    /// train is then not scheduled.
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this simulator.
    pub fn try_drive_train(
        &mut self,
        s: SignalId,
        start: Duration,
        stride: Duration,
        values: &[Value],
    ) -> Result<(), EvalError> {
        if values.is_empty() {
            return Ok(());
        }
        let sig = &self.signals[s.index()];
        let mut buf = self.train_shells.pop().unwrap_or_default();
        debug_assert!(buf.is_empty());
        buf.reserve(values.len());
        for v in values {
            match sig.admit(v.clone()) {
                Ok(v) => buf.push(v),
                Err(e) => {
                    buf.clear();
                    self.train_shells.push(buf);
                    return Err(e);
                }
            }
        }
        self.trains.push(DriveTrain {
            sig: s,
            start,
            stride,
            values: buf,
        });
        Ok(())
    }

    /// Whether the signal had an event in the delta that woke this run.
    #[must_use]
    pub fn event(&self, s: SignalId) -> bool {
        let i = s.index();
        self.event_bits[i >> 6] & (1u64 << (i & 63)) != 0
    }

    /// Rising-edge detector: event in this delta and the new value is
    /// `'1'`.
    #[must_use]
    pub fn rose(&self, s: SignalId) -> bool {
        self.event(s) && matches!(self.signals[s.index()].value, Value::Bit(Bit::One))
    }

    /// Falling-edge detector.
    #[must_use]
    pub fn fell(&self, s: SignalId) -> bool {
        self.event(s) && matches!(self.signals[s.index()].value, Value::Bit(Bit::Zero))
    }

    /// Lifetime event count of a signal — a monotone activity serial, so
    /// a process can detect "changed since I last looked" across deltas
    /// and instants (used by the backplane to gate idle unit
    /// controllers).
    #[must_use]
    pub fn event_count(&self, s: SignalId) -> u64 {
        self.signals[s.index()].event_count
    }

    /// Current simulated time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Delta-cycle index within the current instant.
    #[must_use]
    pub fn delta(&self) -> u32 {
        self.delta
    }
}

/// Errors from simulation runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The delta-cycle loop at one instant exceeded the configured bound
    /// (combinational oscillation).
    DeltaOverflow {
        /// Instant at which the oscillation occurred.
        time: SimTime,
        /// The configured bound.
        limit: u32,
    },
    /// A [`Simulator::load_state`] target does not structurally match the
    /// snapshot (different signal or process tables): restoring would
    /// scramble ids, so nothing was changed.
    StateMismatch {
        /// What failed to line up.
        reason: String,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::DeltaOverflow { time, limit } => {
                write!(
                    f,
                    "delta-cycle oscillation at {time} (more than {limit} deltas)"
                )
            }
            SimError::StateMismatch { reason } => {
                write!(f, "snapshot does not match this simulator: {reason}")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// Aggregate kernel statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SimStats {
    /// Total process activations.
    pub process_runs: u64,
    /// Total signal events.
    pub events: u64,
    /// Total delta cycles executed.
    pub deltas: u64,
    /// Distinct simulated instants visited.
    pub instants: u64,
    /// Processes woken through the inverted sensitivity index.
    pub event_wakeups: u64,
    /// Processes woken by an expiring `wait for` timeout, and clock
    /// edges ([`Simulator::add_clock`]), which wake their clock as a
    /// timeout would.
    pub timer_wakeups: u64,
    /// Process inspections a full-scan kernel would have performed that
    /// the sensitivity index skipped (per event delta: process count
    /// minus watcher entries traversed).
    pub scans_avoided: u64,
    /// Dead watcher-list entries dropped during wake traversal or
    /// compaction.
    pub stale_watchers_purged: u64,
    /// Timeouts cancelled before firing (event wake of a
    /// [`Wait::EventOrTimeout`] process). Each cancellation removes its
    /// wheel entry in O(1) via the recorded slot index.
    pub timers_cancelled: u64,
    /// High-water mark of live armed timeouts, armed clock edges
    /// included (timed drives are counted by
    /// [`drive_queue_peak`](Self::drive_queue_peak)).
    pub timer_queue_peak: u64,
    /// High-water mark of live future timed drives (the *drive*
    /// structure only).
    pub drive_queue_peak: u64,
    /// Wheel entries re-filed into a finer level (or re-ingested from
    /// the overflow list) as time advanced. Clock edges never enter the
    /// wheel, so they never cascade.
    pub wheel_cascades: u64,
    /// High-water mark of entries sharing one wheel slot.
    pub wheel_slot_peak: u64,
    /// Entries parked in the far-future overflow list (scheduled beyond
    /// the wheel horizon of ≈ 141 ms ahead of the wheel origin).
    pub overflow_parked: u64,
    /// Bulk drive-train insertions ([`Simulator::schedule_drive_train`]
    /// / [`ProcCtx::drive_train`] calls that landed at least one entry).
    pub bulk_inserts: u64,
    /// Total entries landed by bulk drive-train insertions.
    pub bulk_entries: u64,
}

/// Captured scheduling state of one process. The process *body* (the
/// closure or trait object) is deliberately excluded — see
/// [`Simulator::save_state`] for the ownership contract.
#[derive(Debug, Clone)]
struct ProcState {
    name: String,
    sensitivity: Vec<SignalId>,
    /// Rising-edge filter flag of the captured sensitivity
    /// ([`Wait::Rising`]).
    rising: bool,
    epoch: u64,
    wake_at: Option<SimTime>,
    wake_stamp: u64,
    runs: u64,
}

/// A point-in-time capture of all kernel-owned simulator state, produced
/// by [`Simulator::save_state`] and consumed by [`Simulator::load_state`].
///
/// The capture is *canonical*: the time wheel's timed drives and
/// timeouts are stored as two lists sorted by `(time, sequence)`, so
/// two captures of identical logical states compare and restore
/// identically regardless of which wheel slots held the entries.
///
/// What is **in** the state: signal values (with previous values, event
/// marks and event counts), per-process sensitivity sets, epochs, wake
/// instants, wake stamps and run counts, pending same-instant drives,
/// future timed drives, armed timeouts and clock edges, the
/// sequence/stamp counters, the current time, the elaboration flag, the
/// delta bound, and [`SimStats`].
///
/// What is **out**: process bodies (restored into the same simulator or
/// a structurally identical clone, whose bodies stand in for the
/// captured ones) and any active VCD recorder.
#[derive(Debug, Clone)]
pub struct SimState {
    signals: Vec<Signal>,
    procs: Vec<ProcState>,
    delta_drives: Vec<(SignalId, Value)>,
    /// Future timed drives as `(at, seq, signal, value)`, sorted.
    timed_drives: Vec<(SimTime, u64, SignalId, Value)>,
    /// Armed timeouts and clock edges as `(at, seq, process)`, sorted.
    timers: Vec<(SimTime, u64, ProcessId)>,
    fresh_events: Vec<SignalId>,
    seq: u64,
    stamp: u64,
    now: SimTime,
    initialized: bool,
    max_deltas: u32,
    stats: SimStats,
}

impl SimState {
    /// Simulated time at which the state was captured.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Kernel statistics at capture time.
    #[must_use]
    pub fn stats(&self) -> SimStats {
        self.stats
    }

    /// Number of captured signals.
    #[must_use]
    pub fn signal_count(&self) -> usize {
        self.signals.len()
    }

    /// Number of captured processes.
    #[must_use]
    pub fn process_count(&self) -> usize {
        self.procs.len()
    }

    /// The captured armed timeouts and clock edges as `(at, seq,
    /// process)`, sorted by `(at, seq)`: the canonical form a restore
    /// re-files from.
    #[must_use]
    pub fn timers(&self) -> &[(SimTime, u64, ProcessId)] {
        &self.timers
    }
}

/// The discrete-event simulator.
///
/// # Examples
///
/// A 10 MHz clock observed for one microsecond:
///
/// ```
/// use cosma_sim::{Simulator, Duration};
/// use cosma_core::{Type, Value, Bit};
///
/// let mut sim = Simulator::new();
/// let clk = sim.add_signal("CLK", Type::Bit, Value::Bit(Bit::Zero));
/// let period = Duration::from_freq_hz(10_000_000);
/// sim.add_clock("CLKGEN", clk, period);
/// sim.run_for(Duration::from_ns(999))?;
/// assert_eq!(sim.signal_info(clk).event_count, 20); // edges at 0,50,...,950 ns
/// # Ok::<(), cosma_sim::SimError>(())
/// ```
pub struct Simulator {
    signals: Vec<Signal>,
    /// Inverted sensitivity index, parallel to `signals`.
    watchers: Vec<WatchList>,
    processes: Vec<ProcSlot>,
    /// The kernel-owned clocks' slots, ascending.
    clocks: Vec<ProcessId>,
    /// Drives awaiting the next delta at the current instant.
    delta_drives: Vec<(SignalId, Value)>,
    /// Timed drives and `wait for` timeouts, keyed `(at, seq)`.
    wheel: TimeWheel,
    /// Monotone sequence for `(at, seq)` tie-breaking (FIFO within an
    /// instant).
    seq: u64,
    /// Number of future timed drives (backs
    /// [`Simulator::pending_activity`] exactly).
    live_drives: usize,
    /// Number of armed timeouts plus armed clock edges.
    armed_timers: usize,
    /// Delta-global wake-dedup stamp.
    stamp: u64,
    now: SimTime,
    initialized: bool,
    max_deltas: u32,
    stats: SimStats,
    /// Signals with `event_now` set, to be cleared before the next delta.
    fresh_events: Vec<SignalId>,
    /// Packed mirror of the signals' `event_now` flags (one bit per
    /// signal), lent to [`ProcCtx`] so event probes stay cache-dense.
    /// Maintained in lockstep with `fresh_events`; rebuilt on restore.
    event_bits: Vec<u64>,
    vcd: Option<VcdRecorder>,
    /// Pooled run-queue buffer recycled across deltas and instants, so a
    /// warm steady state never reallocates the wake list. Pure scratch:
    /// always empty between public calls, never enters a snapshot.
    run_queue_pool: Vec<ProcessId>,
    /// Pooled drive buffer threaded through each `ProcCtx`, recycled
    /// across process runs. Same scratch discipline as `run_queue_pool`.
    proc_drives_pool: Vec<(SignalId, Value, Duration)>,
    /// Recycled sensitivity vectors: displaced wait lists come back
    /// here and are lent out again via [`ProcCtx::wait_buf`]. Bounded,
    /// so pathological churn cannot hoard memory.
    sens_pool: Vec<Vec<SignalId>>,
    /// Pooled due-entry buffer recycled across instants. Pure scratch.
    due_buf: Vec<QueueEntry>,
    /// Pooled drive-train buffer threaded through each `ProcCtx`,
    /// recycled across process runs. Pure scratch.
    proc_trains_pool: Vec<DriveTrain>,
    /// Recycled drive-train value buffers lent out through
    /// [`ProcCtx::drive_train`] and reclaimed after bulk insertion.
    /// Bounded, like `sens_pool`.
    train_shell_pool: Vec<Vec<Value>>,
}

impl fmt::Debug for Simulator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Simulator")
            .field("signals", &self.signals.len())
            .field("processes", &self.processes.len())
            .field("now", &self.now)
            .finish_non_exhaustive()
    }
}

impl Default for Simulator {
    fn default() -> Self {
        Self::new()
    }
}

impl Simulator {
    /// Creates an empty simulator.
    #[must_use]
    pub fn new() -> Self {
        Simulator {
            signals: vec![],
            watchers: vec![],
            processes: vec![],
            clocks: vec![],
            delta_drives: vec![],
            wheel: TimeWheel::new(),
            seq: 0,
            live_drives: 0,
            armed_timers: 0,
            stamp: 0,
            now: SimTime::ZERO,
            initialized: false,
            max_deltas: 1000,
            stats: SimStats::default(),
            fresh_events: vec![],
            event_bits: vec![],
            vcd: None,
            run_queue_pool: vec![],
            proc_drives_pool: vec![],
            sens_pool: vec![],
            due_buf: vec![],
            proc_trains_pool: vec![],
            train_shell_pool: vec![],
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
        self.watchers.push(WatchList::default());
        self.event_bits.resize(self.signals.len().div_ceil(64), 0);
        id
    }

    /// Declares a bit signal initialized to `'0'`.
    pub fn add_bit(&mut self, name: impl Into<String>) -> SignalId {
        self.add_signal(name, Type::Bit, Value::Bit(Bit::Zero))
    }

    /// Registers a process.
    pub fn add_process(&mut self, name: impl Into<String>, p: impl Process + 'static) -> ProcessId {
        self.add_slot(name.into(), Body::Process(Some(Box::new(p))))
    }

    fn add_slot(&mut self, name: String, body: Body) -> ProcessId {
        let id = ProcessId(self.processes.len() as u32);
        self.processes.push(ProcSlot {
            name,
            body,
            sensitivity: vec![],
            rising: false,
            epoch: 0,
            wake_at: None,
            wake_stamp: 0,
            runs: 0,
        });
        id
    }

    /// Registers a [`ClockedProcess`]: `body` runs on every matching
    /// `edge` of `clk`. This is the preferred way for upper layers
    /// (backplane controllers, module activations, platform adapters) to
    /// register clock sensitivity — the kernel keeps the registration
    /// alive without per-activation allocation or index churn.
    ///
    /// # Examples
    ///
    /// ```
    /// use cosma_sim::{Simulator, Duration, Edge, ClockControl};
    /// use cosma_core::{Type, Value};
    ///
    /// let mut sim = Simulator::new();
    /// let clk = sim.add_bit("CLK");
    /// let q = sim.add_signal("Q", Type::INT16, Value::Int(0));
    /// sim.add_clock("gen", clk, Duration::from_ns(100));
    /// sim.add_clocked("counter", clk, Edge::Rising, move |ctx| {
    ///     let v = ctx.read_int(q);
    ///     ctx.drive(q, Value::Int(v + 1));
    ///     ClockControl::Continue
    /// });
    /// sim.run_for(Duration::from_ns(999))?;
    /// assert_eq!(sim.value(q), &Value::Int(10)); // rising edges at 0,100,...,900
    /// # Ok::<(), cosma_sim::SimError>(())
    /// ```
    pub fn add_clocked<F>(
        &mut self,
        name: impl Into<String>,
        clk: SignalId,
        edge: Edge,
        body: F,
    ) -> ProcessId
    where
        F: FnMut(&mut ProcCtx<'_>) -> ClockControl + 'static,
    {
        self.add_process(name, ClockedProcess::new(clk, edge, body))
    }

    /// Registers a free-running clock on a bit signal: a kernel-owned
    /// process slot that, at elaboration and then every half `period`,
    /// toggles `signal` (to `'1'` unless it reads `'1'`) in the next
    /// delta, exactly as a generator process waiting out each half
    /// period with [`Wait::Timeout`] would (the reference kernel's
    /// [`ClockProcess`](crate::reference::ClockProcess)), but without
    /// running a process body or touching the timer wheel.
    ///
    /// # Panics
    ///
    /// Panics if the signal is not [`Type::Bit`]-typed — a wiring bug,
    /// refused here because the kernel does not admit the edges one by
    /// one — or does not belong to this simulator, and if `period` is
    /// shorter than 2 fs: its half period would round to 0 fs, so every
    /// edge would re-arm at the current instant and time would never
    /// advance.
    pub fn add_clock(
        &mut self,
        name: impl Into<String>,
        signal: SignalId,
        period: Duration,
    ) -> ProcessId {
        self.add_clock_slot(name.into(), signal, period, None)
    }

    /// [`Simulator::add_clock`] gated by a demand counter shared with
    /// the caller: a run that finds `demand` ≤ 0 toggles nothing and
    /// leaves the clock waiting for an event on `kick`; the run that
    /// event causes edges (and re-arms the period from there) if the
    /// demand is positive by then, and waits again otherwise. A
    /// scheduler thus stops a clock while nothing needs its edges and
    /// restarts it by raising the counter and toggling `kick`.
    ///
    /// # Panics
    ///
    /// As [`Simulator::add_clock`].
    pub fn add_gated_clock(
        &mut self,
        name: impl Into<String>,
        signal: SignalId,
        period: Duration,
        demand: Rc<Cell<i64>>,
        kick: SignalId,
    ) -> ProcessId {
        self.add_clock_slot(name.into(), signal, period, Some((demand, kick)))
    }

    fn add_clock_slot(
        &mut self,
        name: String,
        signal: SignalId,
        period: Duration,
        gate: Option<(Rc<Cell<i64>>, SignalId)>,
    ) -> ProcessId {
        let sig = &self.signals[signal.index()];
        assert!(
            sig.ty == Type::Bit,
            "clock {name}: signal {} is {}, not bit",
            sig.name,
            sig.ty
        );
        let half_period = period.halved();
        assert!(
            half_period > Duration::ZERO,
            "clock {name}: period {period} is shorter than 2fs, so its half period is 0fs"
        );
        let id = self.add_slot(
            name,
            Body::Clock(Clock {
                signal,
                half_period,
                gate,
                seq: 0,
            }),
        );
        self.clocks.push(id);
        id
    }

    /// Enables VCD recording of all currently declared signals.
    pub fn record_vcd(&mut self) {
        let mut rec = VcdRecorder::new();
        for (i, s) in self.signals.iter().enumerate() {
            rec.declare(SignalId(i as u32), &s.name, &s.ty, &s.value);
        }
        self.vcd = Some(rec);
    }

    /// Finishes VCD recording and returns the file contents, if recording
    /// was enabled.
    pub fn take_vcd(&mut self) -> Option<String> {
        self.vcd.take().map(|r| r.finish(self.now))
    }

    /// Current simulated time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Kernel statistics.
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

    /// Type of a signal, or `None` when the id does not belong to this
    /// simulator.
    #[must_use]
    pub fn signal_type(&self, s: SignalId) -> Option<&Type> {
        self.signals.get(s.index()).map(|sig| &sig.ty)
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
    pub fn process_runs(&self, p: ProcessId) -> u64 {
        self.processes[p.index()].runs
    }

    /// Looks up a signal id by name.
    #[must_use]
    pub fn find_signal(&self, name: &str) -> Option<SignalId> {
        self.signals
            .iter()
            .position(|s| s.name == name)
            .map(|i| SignalId(i as u32))
    }

    /// Injects a value onto a signal from outside any process (testbench
    /// poke); takes effect at the next delta of the current instant.
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

    /// Whether any activity is scheduled: elaboration still owed to
    /// registered processes, pending same-instant drives, future timed
    /// drives, or armed timeouts. `O(1)` and exact (the kernel counts
    /// the entries it files).
    ///
    /// A `false` answer means further [`Simulator::run_for`] calls can
    /// never change any signal — used by run-to-quiescence loops.
    #[must_use]
    pub fn pending_activity(&self) -> bool {
        (!self.initialized && !self.processes.is_empty())
            || !self.delta_drives.is_empty()
            || self.live_drives > 0
            || self.armed_timers > 0
    }

    /// Runs until `deadline` (inclusive of activity at the deadline
    /// instant).
    ///
    /// Every pass at one instant draws on that instant's delta budget
    /// ([`Simulator::set_max_deltas`]), including passes for timeouts
    /// and timed drives that land on the instant already reached, so a
    /// process that keeps waiting zero time overflows the budget
    /// instead of stalling simulated time.
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
        // Settle any externally poked activity at the current instant.
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

    /// The next instant with scheduled activity, if any: the earlier
    /// of the time wheel's next entry (read from per-level occupancy
    /// bitmaps and cached slot minima) and the clocks' next edge.
    pub fn next_instant(&mut self) -> Option<SimTime> {
        let queued = self.wheel.next_at();
        let edge = self
            .clocks
            .iter()
            .filter_map(|p| self.processes[p.index()].wake_at)
            .min();
        queued.into_iter().chain(edge).min()
    }

    /// Elaboration: every process runs once at time zero. Returns the
    /// deltas the settle after it spent.
    fn initialize(&mut self) -> Result<u32, SimError> {
        self.initialized = true;
        let all: Vec<ProcessId> = (0..self.processes.len() as u32).map(ProcessId).collect();
        self.run_processes_delta(&all, 0);
        self.settle(vec![], 0)
    }

    /// At a new instant: move due timed drives into the delta queue and
    /// collect timer-woken processes and the clocks whose edge is due.
    /// Due entries drain from the wheel and are sorted by `(at, seq)`,
    /// so drives apply in schedule order (the woken processes run in
    /// process-id order).
    fn begin_instant(&mut self) -> Vec<ProcessId> {
        let mut due = std::mem::take(&mut self.due_buf);
        debug_assert!(due.is_empty());
        self.wheel.advance(self.now, &mut self.stats);
        self.wheel.take_due(self.now, &mut due);
        due.sort_unstable_by_key(|e| (e.at, e.seq));
        let mut woken = std::mem::take(&mut self.run_queue_pool);
        woken.clear();
        for e in due.drain(..) {
            debug_assert!(e.at <= self.now);
            match e.kind {
                EntryKind::Drive { sig, value } => {
                    self.live_drives -= 1;
                    self.delta_drives.push((sig, value));
                }
                EntryKind::Timer { pid } => {
                    let slot = &mut self.processes[pid.index()];
                    debug_assert_eq!(slot.wake_at, Some(self.now));
                    slot.wake_at = None;
                    self.armed_timers -= 1;
                    self.stats.timer_wakeups += 1;
                    woken.push(pid);
                }
            }
        }
        self.due_buf = due;
        for &pid in &self.clocks {
            let slot = &mut self.processes[pid.index()];
            if slot.wake_at == Some(self.now) {
                slot.wake_at = None;
                self.armed_timers -= 1;
                self.stats.timer_wakeups += 1;
                woken.push(pid);
            }
        }
        woken
    }

    /// Delta loop at the current instant until quiescent. `pending` are
    /// the timer-woken processes to run in the first delta; `spent` is
    /// what earlier passes at this instant took of its delta budget.
    /// Returns the budget spent with this pass's deltas added.
    fn settle(&mut self, mut pending: Vec<ProcessId>, spent: u32) -> Result<u32, SimError> {
        // Callers that have no first-delta wake list pass `vec![]`; adopt
        // the pooled buffer so the loop below runs allocation-free.
        if pending.capacity() == 0 {
            pending = std::mem::take(&mut self.run_queue_pool);
            pending.clear();
        }
        let mut delta: u32 = 0;
        loop {
            // Clear last delta's event marks (flag and packed bit).
            for s in self.fresh_events.drain(..) {
                self.signals[s.index()].event_now = false;
                self.event_bits[s.index() >> 6] &= !(1u64 << (s.index() & 63));
            }
            // Apply pending drives in one pass; last writer wins within a
            // delta (sequential overwrite, like a VHDL driver updated
            // twice). The old value moves into `prev` — no clones.
            let mut drives = std::mem::take(&mut self.delta_drives);
            for (sid, v) in drives.drain(..) {
                let sig = &mut self.signals[sid.index()];
                if sig.value != v {
                    sig.prev = std::mem::replace(&mut sig.value, v);
                    sig.last_event = Some(self.now);
                    sig.event_count += 1;
                    if let Some(vcd) = &mut self.vcd {
                        vcd.change(self.now, sid, &sig.value);
                    }
                    if !sig.event_now {
                        sig.event_now = true;
                        self.event_bits[sid.index() >> 6] |= 1u64 << (sid.index() & 63);
                        self.stats.events += 1;
                        self.fresh_events.push(sid);
                    }
                }
            }
            // Return the drained buffer so its capacity survives the
            // delta (nothing pushed `delta_drives` during the loop).
            self.delta_drives = drives;

            // Wake the watchers of this delta's events through the
            // inverted index, purging stale entries as we pass.
            let mut to_run = std::mem::take(&mut pending);
            if !self.fresh_events.is_empty() {
                let timer_woken = to_run.len();
                self.stamp += 1;
                let stamp = self.stamp;
                let processes = &mut self.processes;
                let watchers = &mut self.watchers;
                for &p in &to_run {
                    processes[p.index()].wake_stamp = stamp;
                }
                let mut inspected = 0u64;
                for &sid in &self.fresh_events {
                    // A rising-filtered watcher only wakes when the event
                    // left the signal at `Bit::One`.
                    let is_one = matches!(self.signals[sid.index()].value, Value::Bit(Bit::One));
                    let wl = &mut watchers[sid.index()];
                    let before = wl.entries.len();
                    wl.entries.retain(|&(pid, epoch)| {
                        let slot = &mut processes[pid.index()];
                        if slot.epoch != epoch {
                            return false;
                        }
                        if (!slot.rising || is_one) && slot.wake_stamp != stamp {
                            slot.wake_stamp = stamp;
                            to_run.push(pid);
                        }
                        true
                    });
                    inspected += before as u64;
                    self.stats.stale_watchers_purged += (before - wl.entries.len()) as u64;
                    wl.stale = 0;
                }
                self.stats.event_wakeups += (to_run.len() - timer_woken) as u64;
                self.stats.scans_avoided += (self.processes.len() as u64).saturating_sub(inspected);
            }
            if to_run.is_empty() {
                self.run_queue_pool = to_run;
                return Ok(spent.saturating_add(delta));
            }
            // Deterministic activation order: ascending process id, the
            // same order the reference full-scan kernel produces.
            to_run.sort_unstable();
            // Cancel pending timeouts of woken processes. The wheel
            // removes the entry in O(1) via its recorded slot location.
            for &p in &to_run {
                if self.processes[p.index()].wake_at.take().is_some() {
                    self.armed_timers -= 1;
                    self.stats.timers_cancelled += 1;
                    let removed = self.wheel.remove_timer(p);
                    debug_assert!(removed, "cancel of a timer the wheel does not hold");
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
            self.run_processes_delta(&to_run, delta);
            // Recycle the wake list for the next delta's watcher sweep.
            to_run.clear();
            pending = to_run;
        }
    }

    fn run_processes_delta(&mut self, list: &[ProcessId], delta: u32) {
        let mut drives = std::mem::take(&mut self.proc_drives_pool);
        let mut trains = std::mem::take(&mut self.proc_trains_pool);
        for &pid in list {
            let mut body = match &mut self.processes[pid.index()].body {
                Body::Process(b) => match b.take() {
                    Some(b) => b,
                    None => continue,
                },
                Body::Clock(_) => {
                    self.run_clock(pid);
                    continue;
                }
            };
            drives.clear();
            trains.clear();
            let mut ctx = ProcCtx {
                signals: &self.signals,
                event_bits: &self.event_bits,
                now: self.now,
                delta,
                drives,
                trains,
                train_shells: std::mem::take(&mut self.train_shell_pool),
                wait_buf: self.sens_pool.pop().unwrap_or_default(),
            };
            let wait = body.run(&mut ctx);
            drives = ctx.drives;
            trains = ctx.trains;
            self.train_shell_pool = ctx.train_shells;
            // Reclaim the lent wait buffer if the process didn't take
            // it; taken buffers come home through `set_sensitivity`.
            let lent = ctx.wait_buf;
            self.recycle_sens(lent);
            self.processes[pid.index()].runs += 1;
            self.stats.process_runs += 1;
            for (sid, v, d) in drives.drain(..) {
                if d == Duration::ZERO {
                    self.delta_drives.push((sid, v));
                } else {
                    self.seq += 1;
                    self.wheel
                        .insert_drive(self.now + d, self.seq, sid, v, &mut self.stats);
                    self.live_drives += 1;
                    self.stats.drive_queue_peak =
                        self.stats.drive_queue_peak.max(self.live_drives as u64);
                }
            }
            // Trains expand after the individual drives of the same
            // activation, beats in order — the shared `seq` counter
            // makes this ordering part of the determinism contract
            // (mirrored by `RefSimulator`).
            for train in trains.drain(..) {
                self.insert_train(train);
            }
            match wait {
                Wait::Event(sigs) => self.set_sensitivity(pid, sigs, false),
                Wait::Rising(sigs) => self.set_sensitivity(pid, sigs, true),
                Wait::Timeout(d) => {
                    self.set_sensitivity(pid, vec![], false);
                    self.arm_timer(pid, d);
                }
                Wait::EventOrTimeout(sigs, d) => {
                    self.set_sensitivity(pid, sigs, false);
                    self.arm_timer(pid, d);
                }
                Wait::Forever => self.set_sensitivity(pid, vec![], false),
                Wait::Same => {}
            }
            self.processes[pid.index()].body = Body::Process(Some(body));
        }
        self.proc_drives_pool = drives;
        self.proc_trains_pool = trains;
    }

    /// One run of a kernel-owned clock, in its process-id place within
    /// the delta: the toggled bit joins the next delta's drives and the
    /// next edge is armed half a period ahead (one `seq`, one armed
    /// timeout) — or, when a gate's demand reads ≤ 0, the clock waits
    /// for an event on the gate's kick signal instead.
    fn run_clock(&mut self, pid: ProcessId) {
        self.stats.process_runs += 1;
        let slot = &mut self.processes[pid.index()];
        slot.runs += 1;
        let Body::Clock(clock) = &mut slot.body else {
            unreachable!("run_clock on a process slot");
        };
        if let Some((demand, kick)) = &clock.gate {
            if demand.get() <= 0 {
                let mut sens = self.sens_pool.pop().unwrap_or_default();
                sens.push(*kick);
                self.set_sensitivity(pid, sens, false);
                return;
            }
        }
        let next = match self.signals[clock.signal.index()].value {
            Value::Bit(Bit::One) => Bit::Zero,
            _ => Bit::One,
        };
        self.delta_drives.push((clock.signal, Value::Bit(next)));
        self.seq += 1;
        clock.seq = self.seq;
        debug_assert!(slot.wake_at.is_none(), "re-arming a live clock edge");
        slot.wake_at = Some(self.now + clock.half_period);
        self.armed_timers += 1;
        self.stats.timer_queue_peak = self.stats.timer_queue_peak.max(self.armed_timers as u64);
        if !slot.sensitivity.is_empty() {
            self.set_sensitivity(pid, Vec::new(), false);
        }
    }

    /// Armed clock edges, as `(at, seq, process)`.
    fn clock_edges(&self) -> impl Iterator<Item = (SimTime, u64, ProcessId)> + '_ {
        self.clocks.iter().filter_map(|&pid| {
            let slot = &self.processes[pid.index()];
            match (&slot.body, slot.wake_at) {
                (Body::Clock(c), Some(at)) => Some((at, c.seq, pid)),
                _ => None,
            }
        })
    }

    /// Lands a whole pre-computed drive train in one pass: beat `k`
    /// (0-based) schedules at `now + start + k·stride`, each beat taking
    /// the next `seq`, so the expansion is observationally identical to
    /// scheduling the beats one by one, at amortized O(1) per beat on
    /// the wheel. A `start` of zero schedules the first beat at the
    /// current instant's boundary (it applies on a same-time queue
    /// iteration, not in the current delta — unlike a zero-delay
    /// [`ProcCtx::drive`]).
    fn insert_train(&mut self, train: DriveTrain) {
        let DriveTrain {
            sig,
            start,
            stride,
            mut values,
        } = train;
        self.stats.bulk_inserts += 1;
        self.stats.bulk_entries += values.len() as u64;
        let mut at = self.now + start;
        for v in values.drain(..) {
            self.seq += 1;
            self.wheel
                .insert_drive(at, self.seq, sig, v, &mut self.stats);
            self.live_drives += 1;
            at += stride;
        }
        self.stats.drive_queue_peak = self.stats.drive_queue_peak.max(self.live_drives as u64);
        self.recycle_train_shell(values);
    }

    /// Returns a drained train-value buffer to the bounded shell pool
    /// feeding [`ProcCtx::drive_train`].
    fn recycle_train_shell(&mut self, v: Vec<Value>) {
        debug_assert!(v.is_empty());
        if v.capacity() > 0 && self.train_shell_pool.len() < 32 {
            self.train_shell_pool.push(v);
        }
    }

    /// Replaces a process's event sensitivity, maintaining the inverted
    /// index incrementally. Equal wait sets (the clocked-process steady
    /// state) are a no-op; otherwise old entries are invalidated by an
    /// epoch bump and mostly-stale lists are compacted.
    fn set_sensitivity(&mut self, pid: ProcessId, sigs: Vec<SignalId>, rising: bool) {
        let slot = &mut self.processes[pid.index()];
        if slot.sensitivity == sigs && slot.rising == rising {
            self.recycle_sens(sigs);
            return;
        }
        slot.rising = rising;
        let old = std::mem::replace(&mut slot.sensitivity, sigs);
        slot.epoch += 1;
        let epoch = slot.epoch;
        for &s in &old {
            let wl = &mut self.watchers[s.index()];
            wl.stale += 1;
            if wl.entries.len() >= 16 && wl.stale as usize * 2 >= wl.entries.len() {
                let processes = &self.processes;
                let before = wl.entries.len();
                wl.entries
                    .retain(|&(p, ep)| processes[p.index()].epoch == ep);
                self.stats.stale_watchers_purged += (before - wl.entries.len()) as u64;
                wl.stale = 0;
            }
        }
        self.recycle_sens(old);
        let slot = &self.processes[pid.index()];
        for &s in &slot.sensitivity {
            self.watchers[s.index()].entries.push((pid, epoch));
        }
    }

    /// Returns a displaced or unused wait-list buffer to the bounded
    /// sensitivity pool feeding [`ProcCtx::wait_buf`].
    fn recycle_sens(&mut self, mut v: Vec<SignalId>) {
        if v.capacity() > 0 && self.sens_pool.len() < 32 {
            v.clear();
            self.sens_pool.push(v);
        }
    }

    /// Arms a one-shot timeout for a process.
    fn arm_timer(&mut self, pid: ProcessId, d: Duration) {
        let at = self.now + d;
        let slot = &mut self.processes[pid.index()];
        // The kernel never re-arms over a live timer: `begin_instant`
        // and the settle cancel path both clear `wake_at` (and remove
        // the queue entry) before the process runs again.
        debug_assert!(slot.wake_at.is_none(), "re-arming a live timer");
        slot.wake_at = Some(at);
        self.seq += 1;
        self.wheel.insert_timer(at, self.seq, pid, &mut self.stats);
        self.armed_timers += 1;
        self.stats.timer_queue_peak = self.stats.timer_queue_peak.max(self.armed_timers as u64);
    }

    /// Schedules a pre-computed value train onto a signal from outside
    /// any process (testbench-level, like [`Simulator::poke`]): beat `k`
    /// (0-based) applies at `now + start + k·stride`. One bulk pass over
    /// the time wheel — amortized O(1) per beat. A zero `start` (or
    /// stride) is legal; such beats apply at the current instant's
    /// boundary rather than in the current delta.
    ///
    /// # Panics
    ///
    /// Panics if any value is incompatible with the signal's type.
    pub fn schedule_drive_train(
        &mut self,
        s: SignalId,
        start: Duration,
        stride: Duration,
        values: &[Value],
    ) {
        if values.is_empty() {
            return;
        }
        let sig = &self.signals[s.index()];
        let mut buf = self.train_shell_pool.pop().unwrap_or_default();
        debug_assert!(buf.is_empty());
        buf.reserve(values.len());
        for v in values {
            match sig.admit(v.clone()) {
                Ok(v) => buf.push(v),
                Err(e) => panic!("drive train: {e}"),
            }
        }
        self.insert_train(DriveTrain {
            sig: s,
            start,
            stride,
            values: buf,
        });
    }

    /// Name of a process (for reports).
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this simulator.
    #[must_use]
    pub fn process_name(&self, p: ProcessId) -> &str {
        &self.processes[p.index()].name
    }

    /// Captures all kernel-owned state into a [`SimState`].
    ///
    /// # State-ownership contract
    ///
    /// The kernel owns and captures everything needed to resume the
    /// event schedule bit-identically: signals, per-process scheduling
    /// state (sensitivity, epoch, wake instant, wake stamp, run count),
    /// the time wheel (canonicalized — drives and timers each sorted by
    /// `(at, seq)` — so the serialized form does not depend on which
    /// slots held the entries, and the wheel is rebuilt on load),
    /// pending delta drives, fresh-event marks, the `seq`/`stamp`
    /// counters, time, the elaboration flag, the delta bound, and
    /// statistics. It does **not** own process bodies:
    /// any state a body keeps inside its closure is invisible here and
    /// must be captured by whoever registered the process (the
    /// backplane externalizes all such state for exactly this reason).
    /// An active VCD recorder is likewise not part of the state;
    /// recording across a restore that rewinds time produces a
    /// non-monotone file.
    #[must_use]
    pub fn save_state(&self) -> SimState {
        let procs = self
            .processes
            .iter()
            .map(|p| ProcState {
                name: p.name.clone(),
                sensitivity: p.sensitivity.clone(),
                rising: p.rising,
                epoch: p.epoch,
                wake_at: p.wake_at,
                wake_stamp: p.wake_stamp,
                runs: p.runs,
            })
            .collect();
        // Canonical wheel capture, each kind sorted by `(at, seq)`.
        // Armed clock edges join the timers in their `(at, seq)` place,
        // as the wheel entries they replace.
        let (timed_drives, mut timers) = self.wheel.canonical();
        let queued = timers.len();
        timers.extend(self.clock_edges());
        if timers.len() > queued {
            timers.sort_unstable_by_key(|&(at, seq, ..)| (at, seq));
        }
        debug_assert_eq!(timed_drives.len(), self.live_drives);
        debug_assert_eq!(timers.len(), self.armed_timers);
        SimState {
            signals: self.signals.clone(),
            procs,
            delta_drives: self.delta_drives.clone(),
            timed_drives,
            timers,
            fresh_events: self.fresh_events.clone(),
            seq: self.seq,
            stamp: self.stamp,
            now: self.now,
            initialized: self.initialized,
            max_deltas: self.max_deltas,
            stats: self.stats,
        }
    }

    /// Checks that `state` fits this simulator's signal and process
    /// tables — the validation [`Simulator::load_state`] runs before it
    /// mutates anything — so a caller restoring several layers can
    /// reject a mismatch before touching any of them.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::StateMismatch`] if the tables don't line up.
    pub fn check_state(&self, state: &SimState) -> Result<(), SimError> {
        if state.signals.len() != self.signals.len() {
            return Err(SimError::StateMismatch {
                reason: format!(
                    "snapshot has {} signals, simulator has {}",
                    state.signals.len(),
                    self.signals.len()
                ),
            });
        }
        if state.procs.len() != self.processes.len() {
            return Err(SimError::StateMismatch {
                reason: format!(
                    "snapshot has {} processes, simulator has {}",
                    state.procs.len(),
                    self.processes.len()
                ),
            });
        }
        for (i, (have, want)) in self.signals.iter().zip(&state.signals).enumerate() {
            if have.name != want.name {
                return Err(SimError::StateMismatch {
                    reason: format!(
                        "signal {i} is {:?}, snapshot expects {:?}",
                        have.name, want.name
                    ),
                });
            }
        }
        for (i, (have, want)) in self.processes.iter().zip(&state.procs).enumerate() {
            if have.name != want.name {
                return Err(SimError::StateMismatch {
                    reason: format!(
                        "process {i} is {:?}, snapshot expects {:?}",
                        have.name, want.name
                    ),
                });
            }
        }
        Ok(())
    }

    /// Restores a previously captured [`SimState`], making this
    /// simulator resume bit-identically to the captured one (provided
    /// its process bodies are in an equivalent state — see
    /// [`Simulator::save_state`]). The inverted sensitivity index is
    /// rebuilt from the captured sensitivity sets, so no stale watcher
    /// entries survive a restore.
    ///
    /// The target must be structurally identical to the simulator that
    /// produced the state: same signals (by name, in order) and same
    /// processes (by name, in order). Signal *values* may differ — that
    /// is the point.
    ///
    /// The canonical `(at, seq)` capture re-files into this simulator's
    /// time wheel relative to the restored time, and the replay is
    /// bit-identical. One caveat follows from the re-filing: the wheel's
    /// *filing* telemetry ([`SimStats::wheel_cascades`],
    /// [`SimStats::wheel_slot_peak`], [`SimStats::overflow_parked`])
    /// is path-dependent — an entry originally filed at a coarse level
    /// (paying cascades on the way down) may file directly at a fine
    /// level relative to the restore-time cursor — so those three
    /// counters may diverge from an uninterrupted run even though
    /// every observable event does not. So may the index traversal
    /// telemetry ([`SimStats::scans_avoided`],
    /// [`SimStats::stale_watchers_purged`]): the uninterrupted run
    /// still traverses stale watcher entries that the rebuilt index
    /// never holds.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::StateMismatch`] (leaving this simulator
    /// untouched) if the tables don't line up.
    pub fn load_state(&mut self, state: &SimState) -> Result<(), SimError> {
        self.check_state(state)?;
        self.signals.clone_from(&state.signals);
        // Rebuild the packed event mirror from the restored flags.
        self.event_bits.iter_mut().for_each(|w| *w = 0);
        for (i, sig) in self.signals.iter().enumerate() {
            if sig.event_now {
                self.event_bits[i >> 6] |= 1u64 << (i & 63);
            }
        }
        for (slot, ps) in self.processes.iter_mut().zip(&state.procs) {
            slot.sensitivity.clone_from(&ps.sensitivity);
            slot.rising = ps.rising;
            slot.epoch = ps.epoch;
            slot.wake_at = ps.wake_at;
            slot.wake_stamp = ps.wake_stamp;
            slot.runs = ps.runs;
        }
        // Rebuild the inverted index from scratch: one live entry per
        // (process, watched signal) under the restored epoch.
        for wl in &mut self.watchers {
            wl.entries.clear();
            wl.stale = 0;
        }
        for (i, ps) in state.procs.iter().enumerate() {
            let pid = ProcessId(i as u32);
            for s in &ps.sensitivity {
                self.watchers[s.index()].entries.push((pid, ps.epoch));
            }
        }
        self.delta_drives.clone_from(&state.delta_drives);
        self.fresh_events.clone_from(&state.fresh_events);
        // Rebuild the wheel from the canonical capture (it re-bases its
        // origin at the restored time; every captured entry satisfies
        // `at >= now`), except the clock edges, which go back to their
        // clocks (their instants came back with the process states). The
        // stats overwrite below erases the rebuild's insert side effects.
        for &(_, seq, pid) in &state.timers {
            if let Body::Clock(clock) = &mut self.processes[pid.index()].body {
                clock.seq = seq;
            }
        }
        let processes = &self.processes;
        self.wheel.rebuild(
            state.now,
            &state.timed_drives,
            state
                .timers
                .iter()
                .filter(|t| matches!(processes[t.2.index()].body, Body::Process(_))),
            &mut self.stats,
        );
        self.live_drives = state.timed_drives.len();
        self.armed_timers = state.timers.len();
        self.seq = state.seq;
        self.stamp = state.stamp;
        self.now = state.now;
        self.initialized = state.initialized;
        self.max_deltas = state.max_deltas;
        self.stats = state.stats;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::RefSimulator;

    #[test]
    fn clock_toggles_at_period() {
        let mut sim = Simulator::new();
        let clk = sim.add_bit("CLK");
        sim.add_clock("gen", clk, Duration::from_ns(100));
        sim.run_for(Duration::from_ns(249)).unwrap();
        // t=0: ->1 (init), t=50: ->0, t=100: ->1, t=150: ->0, t=200: ->1.
        let info = sim.signal_info(clk);
        assert_eq!(info.event_count, 5);
        assert_eq!(info.value, Value::Bit(Bit::One));
    }

    #[test]
    #[should_panic(expected = "clock gen: signal N is int16, not bit")]
    fn clock_on_a_non_bit_signal_is_refused_at_registration() {
        let mut sim = Simulator::new();
        let n = sim.add_signal("N", Type::INT16, Value::Int(0));
        sim.add_clock("gen", n, Duration::from_ns(10));
    }

    #[test]
    #[should_panic(expected = "clock gated: signal B is bool, not bit")]
    fn gated_clock_on_a_non_bit_signal_is_refused_at_registration() {
        let mut sim = Simulator::new();
        let b = sim.add_signal("B", Type::Bool, Value::Bool(false));
        let kick = sim.add_bit("KICK");
        sim.add_gated_clock(
            "gated",
            b,
            Duration::from_ns(10),
            Rc::new(Cell::new(1)),
            kick,
        );
    }

    #[test]
    #[should_panic(expected = "clock gen: period 1fs is shorter than 2fs")]
    fn clock_with_a_zero_half_period_is_refused_at_registration() {
        // A 1 fs period halves to 0 fs: every edge would re-arm at the
        // current instant and `run_for` would never return.
        let mut sim = Simulator::new();
        let clk = sim.add_bit("CLK");
        sim.add_clock("gen", clk, Duration::from_fs(1));
    }

    #[test]
    #[should_panic(expected = "clock gated: period 1fs is shorter than 2fs")]
    fn gated_clock_with_a_zero_half_period_is_refused_at_registration() {
        let mut sim = Simulator::new();
        let clk = sim.add_bit("CLK");
        let kick = sim.add_bit("KICK");
        sim.add_gated_clock(
            "gated",
            clk,
            Duration::from_fs(1),
            Rc::new(Cell::new(1)),
            kick,
        );
    }

    #[test]
    fn two_femtosecond_clock_advances_time() {
        let mut sim = Simulator::new();
        let clk = sim.add_bit("CLK");
        sim.add_clock("gen", clk, Duration::from_fs(2));
        sim.run_until(SimTime::from_fs(9)).unwrap();
        // Edges at 0, 1, ..., 9 fs.
        assert_eq!(sim.signal_info(clk).event_count, 10);
    }

    #[test]
    fn clock_edges_stay_out_of_the_wheel() {
        // A 2 ms period files each half-period timeout three wheel
        // levels up, so a generator process would cascade every edge;
        // the kernel's clock keeps its edge in its slot instead.
        let mut sim = Simulator::new();
        let clk = sim.add_bit("CLK");
        let gen = sim.add_clock("gen", clk, Duration::from_ms(2));
        sim.run_until(SimTime::from_ns(9_500_000)).unwrap();
        // Edges at 0, 1, ..., 9 ms.
        assert_eq!(sim.signal_info(clk).event_count, 10);
        assert_eq!(sim.process_runs(gen), 10);
        let st = sim.stats();
        assert_eq!(st.timer_wakeups, 9, "every edge after elaboration");
        assert_eq!(st.wheel_cascades, 0);
        assert_eq!(st.wheel_slot_peak, 0, "nothing was filed");
        assert_eq!(st.timer_queue_peak, 1, "one armed edge at a time");
        let next = SimTime::from_ns(10_000_000);
        assert_eq!(sim.next_instant(), Some(next));
        assert!(sim.pending_activity(), "the next edge is armed");
        // The armed edge is captured as the timeout it replaces: its
        // instant and its `seq` (one per edge).
        let timers = sim.save_state().timers().to_vec();
        assert_eq!(timers, vec![(next, 10, gen)]);
    }

    #[test]
    fn gated_clock_idles_on_its_kick_until_demanded() {
        let mut sim = Simulator::new();
        let clk = sim.add_bit("CLK");
        let kick = sim.add_bit("KICK");
        let demand = Rc::new(Cell::new(0));
        let gen = sim.add_gated_clock("gen", clk, Duration::from_ns(10), Rc::clone(&demand), kick);
        sim.run_until(SimTime::from_ns(100)).unwrap();
        assert_eq!(sim.signal_info(clk).event_count, 0, "no demand, no edge");
        assert_eq!(sim.process_runs(gen), 1, "elaboration only");
        assert!(!sim.pending_activity(), "an idle clock arms nothing");
        // Demand without a kick leaves it asleep; the kick wakes it in
        // the kick's delta and the period restarts there.
        demand.set(1);
        sim.run_until(SimTime::from_ns(150)).unwrap();
        assert_eq!(sim.signal_info(clk).event_count, 0);
        sim.poke(kick, Value::Bit(Bit::One));
        sim.run_until(SimTime::from_ns(172)).unwrap();
        // Edges at 150, 155, 160, 165, 170.
        assert_eq!(sim.signal_info(clk).event_count, 5);
        assert_eq!(sim.signal_info(clk).last_event, Some(SimTime::from_ns(170)));
        // Withdrawn demand stops it at its next edge without a toggle.
        demand.set(0);
        sim.run_until(SimTime::from_ns(300)).unwrap();
        assert_eq!(sim.signal_info(clk).event_count, 5);
        assert_eq!(sim.process_runs(gen), 7, "elaboration, 5 edges, idle");
        assert!(!sim.pending_activity());
        assert!(sim.save_state().timers().is_empty());
    }

    #[test]
    fn delta_cycle_two_phase_semantics() {
        // A process that swaps two signals must observe the *old* values:
        // after one exchange a=old_b and b=old_a simultaneously.
        let mut sim = Simulator::new();
        let a = sim.add_signal("A", Type::INT16, Value::Int(1));
        let b = sim.add_signal("B", Type::INT16, Value::Int(2));
        let go = sim.add_bit("GO");
        sim.add_process(
            "swap",
            FnProcess::new(move |ctx| {
                if ctx.rose(go) {
                    let va = ctx.read(a).clone();
                    let vb = ctx.read(b).clone();
                    ctx.drive(a, vb);
                    ctx.drive(b, va);
                }
                Wait::Event(vec![go])
            }),
        );
        sim.run_until(SimTime::ZERO).unwrap();
        sim.poke(go, Value::Bit(Bit::One));
        sim.run_for(Duration::from_ns(1)).unwrap();
        assert_eq!(sim.value(a), &Value::Int(2));
        assert_eq!(sim.value(b), &Value::Int(1));
    }

    #[test]
    fn chained_deltas_converge_in_same_instant() {
        // inverter chain: x -> y -> z, all at time 0 via deltas.
        let mut sim = Simulator::new();
        let x = sim.add_bit("X");
        let y = sim.add_bit("Y");
        let z = sim.add_bit("Z");
        sim.add_process(
            "inv1",
            FnProcess::new(move |ctx| {
                let v = ctx.read_bit(x);
                ctx.drive(y, Value::Bit(!v));
                Wait::Event(vec![x])
            }),
        );
        sim.add_process(
            "inv2",
            FnProcess::new(move |ctx| {
                let v = ctx.read_bit(y);
                ctx.drive(z, Value::Bit(!v));
                Wait::Event(vec![y])
            }),
        );
        sim.run_until(SimTime::ZERO).unwrap();
        assert_eq!(sim.value(y), &Value::Bit(Bit::One));
        assert_eq!(sim.value(z), &Value::Bit(Bit::Zero));
        assert_eq!(
            sim.now(),
            SimTime::ZERO,
            "all settled without advancing time"
        );
        sim.poke(x, Value::Bit(Bit::One));
        sim.run_until(SimTime::ZERO).unwrap();
        assert_eq!(sim.value(y), &Value::Bit(Bit::Zero));
        assert_eq!(sim.value(z), &Value::Bit(Bit::One));
    }

    #[test]
    fn oscillation_detected() {
        let mut sim = Simulator::new();
        let x = sim.add_bit("X");
        sim.add_process(
            "ringosc",
            FnProcess::new(move |ctx| {
                let v = ctx.read_bit(x);
                ctx.drive(x, Value::Bit(!v));
                Wait::Event(vec![x])
            }),
        );
        sim.set_max_deltas(50);
        let err = sim.run_until(SimTime::ZERO).unwrap_err();
        assert!(matches!(err, SimError::DeltaOverflow { limit: 50, .. }));
        assert!(err.to_string().contains("oscillation"));
    }

    #[test]
    fn drive_after_schedules_in_future() {
        let mut sim = Simulator::new();
        let d = sim.add_signal("D", Type::INT16, Value::Int(0));
        sim.add_process(
            "pulse",
            FnProcess::new(move |ctx| {
                ctx.drive_after(d, Value::Int(7), Duration::from_ns(30));
                Wait::Forever
            }),
        );
        sim.run_until(SimTime::from_ns(29)).unwrap();
        assert_eq!(sim.value(d), &Value::Int(0));
        sim.run_until(SimTime::from_ns(30)).unwrap();
        assert_eq!(sim.value(d), &Value::Int(7));
        assert_eq!(sim.signal_info(d).last_event, Some(SimTime::from_ns(30)));
    }

    #[test]
    fn timeout_wakes_process() {
        let mut sim = Simulator::new();
        let n = sim.add_signal("N", Type::INT16, Value::Int(0));
        sim.add_process(
            "ticker",
            FnProcess::new(move |ctx| {
                let v = ctx.read_int(n);
                ctx.drive(n, Value::Int(v + 1));
                Wait::Timeout(Duration::from_ns(10))
            }),
        );
        sim.run_until(SimTime::from_ns(45)).unwrap();
        // Runs at 0,10,20,30,40 -> N goes to 5.
        assert_eq!(sim.value(n), &Value::Int(5));
    }

    #[test]
    fn event_cancels_timeout() {
        let mut sim = Simulator::new();
        let kick = sim.add_bit("KICK");
        let n = sim.add_signal("N", Type::INT16, Value::Int(0));
        sim.add_process(
            "waiter",
            FnProcess::new(move |ctx| {
                if ctx.event(kick) || ctx.now() > SimTime::ZERO {
                    let v = ctx.read_int(n);
                    ctx.drive(n, Value::Int(v + 1));
                }
                Wait::EventOrTimeout(vec![kick], Duration::from_ns(100))
            }),
        );
        sim.run_until(SimTime::ZERO).unwrap();
        sim.poke(kick, Value::Bit(Bit::One));
        sim.run_until(SimTime::from_ns(10)).unwrap();
        assert_eq!(sim.value(n), &Value::Int(1), "woken by event");
        // The 100ns timeout from the first wait must have been cancelled;
        // next wake is at ~100ns after the event wake (time 0) -> at 100.
        sim.run_until(SimTime::from_ns(120)).unwrap();
        assert_eq!(sim.value(n), &Value::Int(2), "woken once more by timeout");
        // The cancelled entry was removed from the wheel in O(1).
        assert!(sim.stats().timers_cancelled >= 1);
    }

    #[test]
    fn no_event_when_same_value_driven() {
        let mut sim = Simulator::new();
        let s = sim.add_signal("S", Type::INT16, Value::Int(5));
        sim.run_until(SimTime::ZERO).unwrap();
        sim.poke(s, Value::Int(5));
        sim.run_for(Duration::from_ns(1)).unwrap();
        assert_eq!(sim.signal_info(s).event_count, 0);
    }

    #[test]
    fn stats_accumulate() {
        let mut sim = Simulator::new();
        let clk = sim.add_bit("CLK");
        sim.add_clock("gen", clk, Duration::from_ns(10));
        sim.run_for(Duration::from_ns(100)).unwrap();
        let st = sim.stats();
        assert!(st.process_runs >= 20);
        assert!(st.events >= 20);
        assert!(st.deltas >= 20);
        assert!(st.instants >= 20);
        assert!(st.timer_wakeups >= 20, "clock edges count as timer wakeups");
        assert!(st.timer_queue_peak >= 1);
    }

    #[test]
    fn find_signal_by_name() {
        let mut sim = Simulator::new();
        let a = sim.add_bit("ALPHA");
        assert_eq!(sim.find_signal("ALPHA"), Some(a));
        assert_eq!(sim.find_signal("BETA"), None);
    }

    #[test]
    #[should_panic(expected = "incompatible")]
    fn type_mismatch_poke_panics() {
        let mut sim = Simulator::new();
        let s = sim.add_bit("S");
        sim.poke(s, Value::Int(3));
    }

    #[test]
    fn deterministic_process_order() {
        // Two processes drive the same signal in the same delta; the later
        // process id wins (document the deterministic rule).
        let mut sim = Simulator::new();
        let s = sim.add_signal("S", Type::INT16, Value::Int(0));
        let go = sim.add_bit("GO");
        sim.add_process(
            "p1",
            FnProcess::new(move |ctx| {
                if ctx.event(go) {
                    ctx.drive(s, Value::Int(1));
                }
                Wait::Event(vec![go])
            }),
        );
        sim.add_process(
            "p2",
            FnProcess::new(move |ctx| {
                if ctx.event(go) {
                    ctx.drive(s, Value::Int(2));
                }
                Wait::Event(vec![go])
            }),
        );
        sim.run_until(SimTime::ZERO).unwrap();
        sim.poke(go, Value::Bit(Bit::One));
        sim.run_for(Duration::from_ns(1)).unwrap();
        assert_eq!(sim.value(s), &Value::Int(2));
    }

    #[test]
    fn forever_wait_never_resumes() {
        let mut sim = Simulator::new();
        let n = sim.add_signal("N", Type::INT16, Value::Int(0));
        sim.add_process(
            "once",
            FnProcess::new(move |ctx| {
                let v = ctx.read_int(n);
                ctx.drive(n, Value::Int(v + 1));
                Wait::Forever
            }),
        );
        let clk = sim.add_bit("CLK");
        sim.add_clock("gen", clk, Duration::from_ns(10));
        sim.run_for(Duration::from_ns(200)).unwrap();
        assert_eq!(
            sim.value(n),
            &Value::Int(1),
            "ran exactly once at elaboration"
        );
    }

    #[test]
    fn run_until_is_resumable() {
        let mut sim = Simulator::new();
        let clk = sim.add_bit("CLK");
        sim.add_clock("gen", clk, Duration::from_ns(10));
        sim.run_until(SimTime::from_ns(20)).unwrap();
        let c1 = sim.signal_info(clk).event_count;
        sim.run_until(SimTime::from_ns(40)).unwrap();
        let c2 = sim.signal_info(clk).event_count;
        assert!(c2 > c1);
        assert_eq!(sim.now(), SimTime::from_ns(40));
    }

    // -----------------------------------------------------------------
    // New scheduler-core invariants.
    // -----------------------------------------------------------------

    #[test]
    fn wakeup_cost_is_proportional_to_watchers_not_processes() {
        // 1000 idle processes each watch a private, never-driven signal;
        // one counter watches the single active clock. Wakeup work per
        // delta must be O(watchers of the active signal), not O(1001).
        const IDLE: usize = 1000;
        let mut sim = Simulator::new();
        let clk = sim.add_bit("CLK");
        sim.add_clock("gen", clk, Duration::from_ns(100));
        let q = sim.add_signal("Q", Type::INT16, Value::Int(0));
        sim.add_process(
            "ctr",
            FnProcess::new(move |ctx| {
                if ctx.rose(clk) {
                    let v = ctx.read_int(q);
                    ctx.drive(q, Value::Int(v + 1));
                }
                Wait::Event(vec![clk])
            }),
        );
        let mut idle_ids = vec![];
        for i in 0..IDLE {
            let quiet = sim.add_bit(format!("QUIET{i}"));
            idle_ids.push(sim.add_process(
                format!("idle{i}"),
                FnProcess::new(move |_ctx| Wait::Event(vec![quiet])),
            ));
        }
        sim.run_for(Duration::from_us(10)).unwrap();
        let st = sim.stats();
        // Clock toggles every 50ns: edges at 0,50,...,10000 inclusive.
        let clk_events = sim.signal_info(clk).event_count;
        assert_eq!(clk_events, 201);
        // Idle processes ran exactly once, at elaboration.
        for &p in &idle_ids {
            assert_eq!(sim.process_runs(p), 1);
        }
        // Only the counter watches an active signal, so event wakeups
        // equal the clock's event count — the 1000 idle processes are
        // never even inspected.
        assert_eq!(
            st.event_wakeups, clk_events,
            "only the counter wakes on events"
        );
        // Every event delta carries exactly one signal event here, and a
        // full-scan kernel would have inspected all 1002 processes in
        // each; the index inspects at most one watcher instead.
        assert!(
            st.scans_avoided >= st.events * (IDLE as u64 + 1),
            "scans_avoided {} must dwarf the full-scan cost ({} event deltas x {} processes)",
            st.scans_avoided,
            st.events,
            IDLE + 2
        );
    }

    #[test]
    fn wait_same_preserves_sensitivity() {
        let mut sim = Simulator::new();
        let clk = sim.add_bit("CLK");
        sim.add_clock("gen", clk, Duration::from_ns(10));
        let n = sim.add_signal("N", Type::INT16, Value::Int(0));
        let mut first = true;
        sim.add_process(
            "same",
            FnProcess::new(move |ctx| {
                if ctx.rose(clk) {
                    let v = ctx.read_int(n);
                    ctx.drive(n, Value::Int(v + 1));
                }
                if first {
                    first = false;
                    Wait::Event(vec![clk])
                } else {
                    Wait::Same
                }
            }),
        );
        sim.run_for(Duration::from_ns(95)).unwrap();
        // Rising edges at 0,10,...,90 -> 10 increments.
        assert_eq!(sim.value(n), &Value::Int(10));
    }

    #[test]
    fn same_without_prior_sensitivity_waits_forever() {
        let mut sim = Simulator::new();
        let n = sim.add_signal("N", Type::INT16, Value::Int(0));
        sim.add_process(
            "noop",
            FnProcess::new(move |ctx| {
                let v = ctx.read_int(n);
                ctx.drive(n, Value::Int(v + 1));
                Wait::Same
            }),
        );
        let clk = sim.add_bit("CLK");
        sim.add_clock("gen", clk, Duration::from_ns(10));
        sim.run_for(Duration::from_ns(100)).unwrap();
        assert_eq!(sim.value(n), &Value::Int(1), "elaboration only");
    }

    #[test]
    fn clocked_process_runs_per_edge_and_halts() {
        let mut sim = Simulator::new();
        let clk = sim.add_bit("CLK");
        sim.add_clock("gen", clk, Duration::from_ns(10));
        let n = sim.add_signal("N", Type::INT16, Value::Int(0));
        let rising = sim.add_clocked("rise", clk, Edge::Rising, move |ctx| {
            let v = ctx.read_int(n);
            ctx.drive(n, Value::Int(v + 1));
            if v + 1 >= 3 {
                ClockControl::Halt
            } else {
                ClockControl::Continue
            }
        });
        let m = sim.add_signal("M", Type::INT16, Value::Int(0));
        sim.add_clocked("fall", clk, Edge::Falling, move |ctx| {
            let v = ctx.read_int(m);
            ctx.drive(m, Value::Int(v + 1));
            ClockControl::Continue
        });
        sim.run_for(Duration::from_ns(200)).unwrap();
        // Rising counter halted itself after 3 edges.
        assert_eq!(sim.value(n), &Value::Int(3));
        // Falling edges at 5,15,...: 20 of them in 200ns.
        assert_eq!(sim.value(m), &Value::Int(20));
        // The rising process ran at elaboration and on three rising
        // edges; the falling edges in between did not run it. After the
        // halt it stops being activated.
        let runs_at_halt = sim.process_runs(rising);
        assert_eq!(runs_at_halt, 4);
        sim.run_for(Duration::from_ns(200)).unwrap();
        assert_eq!(sim.process_runs(rising), runs_at_halt);
    }

    #[test]
    fn pending_activity_reflects_queues() {
        let mut sim = Simulator::new();
        let s = sim.add_signal("S", Type::INT16, Value::Int(0));
        sim.add_process("once", FnProcess::new(move |_| Wait::Forever));
        assert!(
            sim.pending_activity(),
            "elaboration is still owed before init"
        );
        sim.run_until(SimTime::ZERO).unwrap();
        assert!(!sim.pending_activity(), "quiescent after elaboration");
        sim.poke(s, Value::Int(1));
        assert!(sim.pending_activity(), "poke schedules a delta drive");
        sim.run_for(Duration::from_ns(1)).unwrap();
        assert!(!sim.pending_activity(), "drained again");

        let mut sim = Simulator::new();
        let clk = sim.add_bit("CLK");
        sim.add_clock("gen", clk, Duration::from_ns(10));
        sim.run_for(Duration::from_ns(25)).unwrap();
        assert!(
            sim.pending_activity(),
            "free-running clock keeps a timer armed"
        );
    }

    #[test]
    fn next_instant_skips_cancelled_timers() {
        let mut sim = Simulator::new();
        let kick = sim.add_bit("KICK");
        sim.add_process(
            "waiter",
            FnProcess::new(move |_ctx| Wait::EventOrTimeout(vec![kick], Duration::from_ns(50))),
        );
        sim.run_until(SimTime::ZERO).unwrap();
        assert_eq!(sim.next_instant(), Some(SimTime::from_ns(50)));
        // Event wake cancels the 50ns timeout and re-arms at now+50.
        sim.poke(kick, Value::Bit(Bit::One));
        sim.run_until(SimTime::from_ns(10)).unwrap();
        assert_eq!(sim.next_instant(), Some(SimTime::from_ns(50)));
        sim.run_until(SimTime::from_ns(60)).unwrap();
        assert_eq!(sim.next_instant(), Some(SimTime::from_ns(100)));
    }

    #[test]
    fn next_instant_interleaves_rational_ratio_clock_domains() {
        // Two clock domains on one global femtosecond axis: a base
        // 10ns-period clock and a slow domain at ClockRatio 5:2 (25ns
        // period). next_instant must walk the union of both half-period
        // toggle streams — 5ns, 10ns, 12.5ns(=12500ps), 15ns, ... — and
        // the timer wheel must deliver every edge of both periods, so a
        // slow domain takes proportionally fewer edges with no kernel
        // special-casing.
        use crate::time::ClockRatio;
        use std::cell::Cell;
        use std::rc::Rc;
        let mut sim = Simulator::new();
        let base_period = Duration::from_ns(10);
        let slow_period = ClockRatio::new(5, 2).scale(base_period);
        assert_eq!(slow_period, Duration::from_ps(25_000));
        let fast = sim.add_bit("FAST_CLK");
        let slow = sim.add_bit("SLOW_CLK");
        sim.add_clock("fast_gen", fast, base_period);
        sim.add_clock("slow_gen", slow, slow_period);
        let fast_rises = Rc::new(Cell::new(0u64));
        let slow_rises = Rc::new(Cell::new(0u64));
        let (fr, sr) = (Rc::clone(&fast_rises), Rc::clone(&slow_rises));
        sim.add_process(
            "edge_counter",
            FnProcess::new(move |ctx| {
                if ctx.rose(fast) {
                    fr.set(fr.get() + 1);
                }
                if ctx.rose(slow) {
                    sr.set(sr.get() + 1);
                }
                Wait::Event(vec![fast, slow])
            }),
        );
        sim.run_until(SimTime::ZERO).unwrap();
        // The next instants are the interleaved half-period toggles.
        for expect_fs in [5_000_000u64, 10_000_000, 12_500_000, 15_000_000] {
            let next = sim.next_instant().expect("clock toggle scheduled");
            assert_eq!(next, SimTime::from_fs(expect_fs));
            sim.run_until(next).unwrap();
        }
        // Through 495ns: the fast clock rose 50 times (t = 0, 10, ...,
        // 490), the slow clock exactly 2/5 as often (t = 0, 25, ...,
        // 475) — proportionally fewer edges at the rational ratio.
        sim.run_until(SimTime::from_ns(495)).unwrap();
        assert_eq!(fast_rises.get(), 50);
        assert_eq!(slow_rises.get(), 20);
        assert_eq!(fast_rises.get() * 2, slow_rises.get() * 5);
    }

    #[test]
    fn cancelled_last_timer_reports_no_phantom_pending_work() {
        // A process holds the ONLY live timer (EventOrTimeout). An event
        // wake cancels that timer — the wheel removes the entry eagerly
        // in O(1) — and the process parks forever. Nothing must make
        // pending_activity report phantom work, and next_instant must
        // report no scheduled instant.
        let mut sim = Simulator::new();
        let kick = sim.add_bit("KICK");
        let mut woken = false;
        sim.add_process(
            "waiter",
            FnProcess::new(move |ctx| {
                if ctx.event(kick) {
                    woken = true;
                }
                if woken {
                    Wait::Forever
                } else {
                    Wait::EventOrTimeout(vec![kick], Duration::from_ns(500))
                }
            }),
        );
        sim.run_until(SimTime::ZERO).unwrap();
        assert!(sim.pending_activity(), "timer armed");
        assert_eq!(sim.next_instant(), Some(SimTime::from_ns(500)));
        sim.poke(kick, Value::Bit(Bit::One));
        sim.run_for(Duration::from_ns(1)).unwrap();
        // The 500ns entry is gone. No live timers, no drives, nothing
        // pending anywhere in the wheel.
        assert!(
            !sim.pending_activity(),
            "a cancelled timer must not count as pending work"
        );
        assert_eq!(
            sim.next_instant(),
            None,
            "next_instant must not report the cancelled entry"
        );
        assert!(sim.stats().timers_cancelled >= 1);
        // And running past the dead deadline changes nothing.
        let events_before = sim.stats().events;
        sim.run_until(SimTime::from_ns(1000)).unwrap();
        assert_eq!(sim.stats().events, events_before);
    }

    #[test]
    fn repeated_cancellations_keep_armed_timer_count_exact() {
        // Ten event wakes cancel ten armed timers; the live-timer
        // count backing pending_activity must stay exact throughout.
        let mut sim = Simulator::new();
        let kick = sim.add_bit("KICK");
        sim.add_process(
            "rearm",
            FnProcess::new(move |_ctx| Wait::EventOrTimeout(vec![kick], Duration::from_us(10))),
        );
        sim.run_until(SimTime::ZERO).unwrap();
        for i in 0..10i64 {
            let v = if i % 2 == 0 { Bit::One } else { Bit::Zero };
            sim.poke(kick, Value::Bit(v));
            sim.run_for(Duration::from_ns(1)).unwrap();
            assert!(
                sim.pending_activity(),
                "re-armed timer after wake {i} is live"
            );
        }
        // Only the most recent re-arm is live: next_instant must land on
        // the latest deadline — the last wake happened at 9ns (just
        // before the final 1ns advance to 10ns).
        let next = sim.next_instant().expect("one live timer");
        assert_eq!(next, SimTime::from_ns(9) + Duration::from_us(10));
    }

    #[test]
    fn rapid_sensitivity_churn_stays_consistent() {
        // A process alternates its watch set between A and B after every
        // wake, while pokes land in the pattern A,A,B,B,A,A,... with an
        // always-changing value. The wake schedule is then fully
        // deterministic: after elaboration the process watches B, so
        // exactly the pokes at even i >= 2 hit the watched signal (19 of
        // 40), and every hit flips the watch set. A kernel that leaks
        // stale watcher entries (waking the process on a signal it no
        // longer watches) produces strictly more wakes and fails the
        // exact counts below.
        let mut sim = Simulator::new();
        let a = sim.add_signal("A", Type::INT16, Value::Int(-1));
        let b = sim.add_signal("B", Type::INT16, Value::Int(-1));
        let n = sim.add_signal("N", Type::INT16, Value::Int(0));
        let mut watch_a = true;
        let pid = sim.add_process(
            "flip",
            FnProcess::new(move |ctx| {
                if ctx.event(a) || ctx.event(b) {
                    let v = ctx.read_int(n);
                    ctx.drive(n, Value::Int(v + 1));
                }
                watch_a = !watch_a;
                if watch_a {
                    Wait::Event(vec![a])
                } else {
                    Wait::Event(vec![b])
                }
            }),
        );
        sim.run_until(SimTime::ZERO).unwrap();
        assert_eq!(sim.process_runs(pid), 1, "elaboration only so far");
        for i in 0..40i64 {
            let sig = if (i / 2) % 2 == 0 { a } else { b };
            sim.poke(sig, Value::Int(i));
            sim.run_for(Duration::from_ns(1)).unwrap();
        }
        assert_eq!(sim.value(n), &Value::Int(19), "hits at i = 2, 4, ..., 38");
        assert_eq!(sim.process_runs(pid), 20, "one elaboration run + 19 wakes");
        // The churn left stale entries behind and traversal reclaimed
        // them — the index does not grow without bound.
        assert!(
            sim.stats().stale_watchers_purged > 0,
            "stale watcher entries must be purged during wake traversal"
        );
    }

    /// Netlist used by the save/load round-trip tests. All process state
    /// lives in signals (closures are stateless), so a kernel-level
    /// [`SimState`] alone is enough to resume bit-identically.
    fn checkpoint_netlist(sim: &mut Simulator) -> (SignalId, SignalId, SignalId, ProcessId) {
        let clk = sim.add_bit("CLK");
        let n = sim.add_signal("N", Type::INT16, Value::Int(0));
        let d = sim.add_signal("D", Type::INT16, Value::Int(0));
        sim.add_clock("gen", clk, Duration::from_ns(100));
        let count = sim.add_process(
            "count",
            FnProcess::new(move |ctx| {
                if ctx.rose(clk) {
                    let v = ctx.read_int(n);
                    ctx.drive(n, Value::Int(v + 1));
                }
                Wait::Event(vec![clk])
            }),
        );
        sim.add_process(
            "pulse",
            FnProcess::new(move |ctx| {
                let v = ctx.read_int(n);
                ctx.drive_after(d, Value::Int(v + 100), Duration::from_ns(30));
                Wait::Timeout(Duration::from_ns(70))
            }),
        );
        (clk, n, d, count)
    }

    #[test]
    fn save_load_round_trip_is_bit_identical() {
        // Uninterrupted oracle run on the full-scan reference kernel.
        let mut oracle = RefSimulator::new();
        let oclk = oracle.add_bit("CLK");
        let on = oracle.add_signal("N", Type::INT16, Value::Int(0));
        let od = oracle.add_signal("D", Type::INT16, Value::Int(0));
        oracle.add_clock(oclk, Duration::from_ns(100));
        oracle.add_process(FnProcess::new(move |ctx| {
            if ctx.rose(oclk) {
                let v = ctx.read_int(on);
                ctx.drive(on, Value::Int(v + 1));
            }
            Wait::Event(vec![oclk])
        }));
        oracle.add_process(FnProcess::new(move |ctx| {
            let v = ctx.read_int(on);
            ctx.drive_after(od, Value::Int(v + 100), Duration::from_ns(30));
            Wait::Timeout(Duration::from_ns(70))
        }));
        oracle.run_until(SimTime::from_ns(1000)).unwrap();

        let mut sim = Simulator::new();
        let (clk, n, d, count) = checkpoint_netlist(&mut sim);
        // Stop between the clock edge at 400 and the pulse timer at 420,
        // so the saved state carries an armed clock edge, an armed pulse
        // timer and an in-flight timed drive.
        sim.run_until(SimTime::from_ns(415)).unwrap();
        let saved = sim.save_state();
        let mid = (
            sim.value(n).clone(),
            sim.value(d).clone(),
            sim.process_runs(count),
            sim.stats(),
        );

        sim.run_until(SimTime::from_ns(1000)).unwrap();
        let first = (
            sim.signal_info(clk),
            sim.signal_info(n),
            sim.signal_info(d),
            sim.process_runs(count),
            sim.stats(),
        );
        for (have, want) in [(clk, oclk), (n, on), (d, od)] {
            assert_eq!(sim.signal_info(have).value, oracle.signal_info(want).value);
            assert_eq!(
                sim.signal_info(have).event_count,
                oracle.signal_info(want).event_count
            );
            assert_eq!(
                sim.signal_info(have).last_event,
                oracle.signal_info(want).last_event
            );
        }

        // Rewind and replay: every observable — values, event counts,
        // process run counters, kernel statistics — must re-converge to
        // the first continuation exactly.
        sim.load_state(&saved).unwrap();
        assert_eq!(sim.now(), SimTime::from_ns(415));
        assert_eq!(sim.value(n), &mid.0);
        assert_eq!(sim.value(d), &mid.1);
        assert_eq!(sim.process_runs(count), mid.2);
        assert_eq!(sim.stats(), mid.3, "stats restore verbatim");
        sim.run_until(SimTime::from_ns(1000)).unwrap();
        let second = (
            sim.signal_info(clk),
            sim.signal_info(n),
            sim.signal_info(d),
            sim.process_runs(count),
            sim.stats(),
        );
        assert_eq!(second.0.value, first.0.value);
        assert_eq!(second.0.event_count, first.0.event_count);
        assert_eq!(second.1.value, first.1.value);
        assert_eq!(second.1.event_count, first.1.event_count);
        assert_eq!(second.1.last_event, first.1.last_event);
        assert_eq!(second.2.value, first.2.value);
        assert_eq!(second.2.event_count, first.2.event_count);
        assert_eq!(second.2.last_event, first.2.last_event);
        assert_eq!(second.3, first.3, "process run counts replay identically");
        assert_eq!(second.4, first.4, "kernel stats replay identically");
    }

    #[test]
    fn load_state_mismatch_leaves_target_untouched() {
        let mut src = Simulator::new();
        checkpoint_netlist(&mut src);
        src.run_until(SimTime::from_ns(415)).unwrap();
        let saved = src.save_state();

        // Same shape, one renamed signal: rejected, target untouched.
        let mut other = Simulator::new();
        let clk = other.add_bit("CLK");
        let n = other.add_signal("M", Type::INT16, Value::Int(0));
        other.add_signal("D", Type::INT16, Value::Int(0));
        other.add_clock("gen", clk, Duration::from_ns(100));
        other.add_process(
            "count",
            FnProcess::new(move |ctx| {
                if ctx.rose(clk) {
                    let v = ctx.read_int(n);
                    ctx.drive(n, Value::Int(v + 1));
                }
                Wait::Event(vec![clk])
            }),
        );
        other.add_process("pulse", FnProcess::new(move |_| Wait::Forever));
        other.run_until(SimTime::from_ns(100)).unwrap();
        let before = (other.now(), other.value(n).clone(), other.stats());
        let err = other.load_state(&saved).unwrap_err();
        assert!(matches!(err, SimError::StateMismatch { .. }));
        assert!(err.to_string().contains("signal"), "names the mismatch");
        assert_eq!(other.now(), before.0);
        assert_eq!(other.value(n), &before.1);
        assert_eq!(other.stats(), before.2);
        // Still runnable after the refused load.
        other.run_until(SimTime::from_ns(200)).unwrap();

        // Different process count: also rejected.
        let mut short = Simulator::new();
        short.add_bit("CLK");
        short.add_signal("N", Type::INT16, Value::Int(0));
        short.add_signal("D", Type::INT16, Value::Int(0));
        let err = short.load_state(&saved).unwrap_err();
        assert!(matches!(err, SimError::StateMismatch { .. }));
    }

    /// One process on each kernel that bumps `N` on every run and then
    /// returns `wait(QUIET)`, `QUIET` being a signal nothing drives;
    /// what 1 ns of each run returns, kernel first, oracle second.
    fn run_zero_waiter(wait: fn(SignalId) -> Wait) -> [Result<(), SimError>; 2] {
        let body = move |n, quiet| {
            move |ctx: &mut ProcCtx<'_>| {
                let v = ctx.read_int(n);
                ctx.drive(n, Value::Int(v + 1));
                wait(quiet)
            }
        };
        let mut sim = Simulator::new();
        let n = sim.add_signal("N", Type::INT16, Value::Int(0));
        let quiet = sim.add_bit("QUIET");
        sim.add_process("spin", FnProcess::new(body(n, quiet)));
        let mut oracle = RefSimulator::new();
        let n = oracle.add_signal("N", Type::INT16, Value::Int(0));
        let quiet = oracle.add_bit("QUIET");
        oracle.add_process(FnProcess::new(body(n, quiet)));
        let span = Duration::from_ns(1);
        [sim.run_for(span), oracle.run_for(span)]
    }

    fn overflows_at_zero(run: &Result<(), SimError>) -> bool {
        matches!(run, Err(SimError::DeltaOverflow { time, limit: 1000 }) if *time == SimTime::ZERO)
    }

    #[test]
    fn endless_zero_timeouts_spend_the_instants_delta_budget() {
        for run in run_zero_waiter(|_| Wait::Timeout(Duration::ZERO)) {
            assert!(overflows_at_zero(&run), "{run:?}");
        }
    }

    #[test]
    fn endless_zero_event_or_timeouts_spend_the_instants_delta_budget() {
        for run in run_zero_waiter(|quiet| Wait::EventOrTimeout(vec![quiet], Duration::ZERO)) {
            assert!(overflows_at_zero(&run), "{run:?}");
        }
    }

    #[test]
    fn femtosecond_clock_process_spends_the_instants_delta_budget() {
        use crate::reference::ClockProcess;
        let mut sim = Simulator::new();
        let clk = sim.add_bit("CLK");
        sim.add_process("gen", ClockProcess::new(clk, Duration::from_fs(1)));
        let mut oracle = RefSimulator::new();
        let clk = oracle.add_bit("CLK");
        oracle.add_process(ClockProcess::new(clk, Duration::from_fs(1)));
        let span = Duration::from_ns(1);
        for run in [sim.run_for(span), oracle.run_for(span)] {
            assert!(overflows_at_zero(&run), "{run:?}");
        }
    }

    #[test]
    fn one_zero_wait_resumes_at_the_same_instant() {
        use std::cell::RefCell;
        use std::rc::Rc;
        // Runs at elaboration, waits zero, then waits 10 ns every time.
        let waiter = |seen: Rc<RefCell<Vec<SimTime>>>| {
            FnProcess::new(move |ctx| {
                seen.borrow_mut().push(ctx.now());
                let zero = seen.borrow().len() == 1;
                Wait::Timeout(Duration::from_ns(if zero { 0 } else { 10 }))
            })
        };
        let want = [0, 0, 10, 20].map(SimTime::from_ns);
        let seen = Rc::new(RefCell::new(vec![]));
        let mut sim = Simulator::new();
        sim.add_process("waiter", waiter(seen.clone()));
        sim.run_until(SimTime::from_ns(25)).unwrap();
        assert_eq!(*seen.borrow(), want);
        let seen = Rc::new(RefCell::new(vec![]));
        let mut oracle = RefSimulator::new();
        oracle.add_process(waiter(seen.clone()));
        oracle.run_until(SimTime::from_ns(25)).unwrap();
        assert_eq!(*seen.borrow(), want);
    }
}
