//! Runtime execution of FSM-described communication units.
//!
//! A [`FsmUnitRuntime`] holds the live state of one unit instance: the
//! controller's executor and variables, plus one *session* (protocol FSM
//! executor + locals) per calling module and service — mirroring the
//! paper's model where every module links its own copy of each access
//! procedure with its own `static NEXTSTATE`.
//!
//! Wire state is externalized behind [`WireStore`], so the same runtime
//! drives plain in-memory wires (standalone use, tests) or delta-cycle
//! kernel signals (co-simulation).

use cosma_core::comm::{CommUnitSpec, ServiceSpec, SERVICE_DONE_VAR, SERVICE_RESULT_VAR};
use cosma_core::ids::{PortId, VarId};
use cosma_core::{
    Env, EvalError, Fsm, FsmExec, ReadEnv, ServiceCall, ServiceOutcome, StepEffects, Value,
    Variable,
};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Identifies a calling module (or test harness) so each caller gets its
/// own protocol session per service.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CallerId(pub u64);

/// External wire state of a unit instance.
pub trait WireStore {
    /// Lends a wire's value from the store's own storage (an in-memory
    /// slot, a kernel signal); `None` means only that the id is unknown.
    /// A protocol FSM reads wires as ports, so [`cosma_core::Expr::eval`]
    /// builds the [`EvalError::NoSuchPort`] for a missing one.
    fn read_wire(&self, w: PortId) -> Option<&Value>;

    /// Writes a wire. Implementations decide whether the write is
    /// immediate (standalone) or delta-delayed (kernel signals).
    ///
    /// # Errors
    ///
    /// Returns an error for unknown wire ids.
    fn write_wire(&mut self, w: PortId, v: Value) -> Result<(), EvalError>;

    /// Schedules a wire write to take effect `cycles` clock cycles in
    /// the future, returning `Ok(true)` when the store supports timed
    /// writes and accepted the schedule, `Ok(false)` when it does not
    /// (the default) — the caller then falls back to writing the value
    /// cycle by cycle. Kernel-backed stores implement this over the
    /// simulator's timed-drive queue, which lets a burst of known shape
    /// (e.g. the payload beats of a batched bus transaction) be
    /// scheduled once at transaction start instead of re-activating the
    /// writer every cycle.
    ///
    /// Scheduled writes participate in simulator state capture exactly
    /// like any other pending drive, so checkpoints taken between
    /// scheduled beats restore and replay bit-identically.
    ///
    /// # Errors
    ///
    /// Returns an error for unknown wire ids.
    fn write_wire_after(&mut self, w: PortId, v: Value, cycles: u64) -> Result<bool, EvalError> {
        let _ = (w, v, cycles);
        Ok(false)
    }

    /// Schedules a whole pre-computed value *train* onto a wire in one
    /// pass: `values[k]` takes effect `start_cycles + k·stride_cycles`
    /// clock cycles in the future. Returns `Ok(true)` when the store
    /// supports bulk timed writes and accepted the schedule, `Ok(false)`
    /// when it does not (the default). A store that takes timed writes
    /// ([`WireStore::write_wire_after`]) must take trains too: callers
    /// probe for timed writes and then rely on trains. Kernel-backed
    /// stores implement this over the simulator's bulk burst-insert
    /// API, which lands every beat of a batched bus transaction into
    /// the timer wheel in a single amortized-O(1)-per-beat pass.
    ///
    /// Like single scheduled writes, train beats participate in
    /// simulator state capture as ordinary pending drives, so mid-train
    /// checkpoints restore and replay bit-identically.
    ///
    /// # Errors
    ///
    /// Returns an error for unknown wire ids.
    fn write_wire_train(
        &mut self,
        w: PortId,
        start_cycles: u64,
        stride_cycles: u64,
        values: &[Value],
    ) -> Result<bool, EvalError> {
        let _ = (w, start_cycles, stride_cycles, values);
        Ok(false)
    }
}

/// Plain in-memory wires initialized from a unit spec; writes are
/// immediate, and each stores what a kernel signal of the wire's type
/// would ([`Type::admit`](cosma_core::Type::admit)).
#[derive(Debug, Clone)]
pub struct LocalWires {
    /// The spec whose wire table (names and types) the values follow.
    spec: Arc<CommUnitSpec>,
    values: Vec<Value>,
}

impl LocalWires {
    /// Creates wire storage matching `spec`'s wire table.
    #[must_use]
    pub fn new(spec: &Arc<CommUnitSpec>) -> Self {
        LocalWires {
            values: spec.wires().iter().map(|w| w.init().clone()).collect(),
            spec: Arc::clone(spec),
        }
    }

    /// Direct wire access for assertions.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    #[must_use]
    pub fn value(&self, w: PortId) -> &Value {
        &self.values[w.index()]
    }
}

impl WireStore for LocalWires {
    fn read_wire(&self, w: PortId) -> Option<&Value> {
        self.values.get(w.index())
    }
    /// Stores `v` clamped to the wire's type.
    ///
    /// # Errors
    ///
    /// Returns [`EvalError::IncompatibleDrive`], naming the wire as
    /// `<unit>.<WIRE>`, when the wire's type does not admit `v`, and
    /// [`EvalError::NoSuchPort`] for an unknown id.
    fn write_wire(&mut self, w: PortId, v: Value) -> Result<(), EvalError> {
        let (Some(decl), Some(slot)) = (
            self.spec.wires().get(w.index()),
            self.values.get_mut(w.index()),
        ) else {
            return Err(EvalError::NoSuchPort(w));
        };
        let unit = self.spec.name();
        *slot = decl.ty().admit(v).map_err(|v| {
            EvalError::incompatible_drive(
                &format_args!("wire {unit}.{}", decl.name()),
                decl.ty(),
                &v,
            )
        })?;
        Ok(())
    }
}

/// Live state of one service session: its caller and index into
/// `spec.services()`, protocol executor and locals.
#[derive(Debug, Clone, PartialEq)]
struct Session {
    caller: CallerId,
    service: usize,
    exec: FsmExec,
    locals: Vec<Value>,
    /// Whether the session is fresh: in its protocol's initial state,
    /// with its declared initial locals. Set when the session starts
    /// or restarts after a completion, kept by a no-op step and
    /// recomputed after any other step, so a call reads it in constant
    /// time.
    fresh: bool,
}

impl Session {
    /// A fresh session of service `svc`.
    fn new(caller: CallerId, service: usize, svc: &ServiceSpec) -> Self {
        Session {
            caller,
            service,
            exec: FsmExec::new(svc.fsm()),
            locals: svc.locals().iter().map(|v| v.init().clone()).collect(),
            fresh: true,
        }
    }

    fn key(&self) -> (CallerId, usize) {
        (self.caller, self.service)
    }

    /// Restarts the session for its next transaction, reusing the
    /// locals buffer in place.
    fn restart(&mut self, svc: &ServiceSpec) {
        self.exec = FsmExec::new(svc.fsm());
        self.locals.clear();
        self.locals
            .extend(svc.locals().iter().map(|v| v.init().clone()));
        self.fresh = true;
    }

    /// Whether the session's protocol state and locals are the
    /// declared initial ones (what `fresh` caches).
    fn is_initial(&self, svc: &ServiceSpec) -> bool {
        self.exec.current() == svc.fsm().initial()
            && self
                .locals
                .iter()
                .zip(svc.locals())
                .all(|(v, decl)| v == decl.init())
    }
}

/// A point-in-time capture of all mutable [`FsmUnitRuntime`] state,
/// produced by [`FsmUnitRuntime::capture_state`] and consumed by
/// [`FsmUnitRuntime::restore_state`].
///
/// The capture is canonical: the runtime keeps its sessions sorted by
/// `(caller, service index)` and the capture copies them in that order,
/// so two captures of identical logical states compare equal
/// (`PartialEq`) whatever order the callers first called in, and the
/// statistics are held in their public, name-keyed form
/// ([`FsmUnitRuntime::stats`]). The unit *spec* is immutable and
/// deliberately not part of the state — a capture restores into any
/// runtime built from the same spec.
#[derive(Debug, Clone, PartialEq)]
pub struct FsmUnitState {
    controller: Option<(FsmExec, Vec<Value>)>,
    /// Sorted by `(caller, service index)`.
    sessions: Vec<Session>,
    stats: UnitStats,
    ctrl_stable: bool,
    last_call_stable: bool,
}

impl FsmUnitState {
    /// Number of captured live sessions.
    #[must_use]
    pub fn session_count(&self) -> usize {
        self.sessions.len()
    }

    /// Captured statistics.
    #[must_use]
    pub fn stats(&self) -> &UnitStats {
        &self.stats
    }
}

/// One protocol-FSM activation of a service session against `wires`,
/// through the runtime's `effects` arena. Returns the outcome
/// plus whether the step was stable ([`FsmUnitRuntime::last_call_stable`]):
/// a pending step that wrote no wire and no local and kept its protocol
/// state, or a completing step that wrote no wire from a session that
/// was fresh before it (the protocol's initial state, with its declared
/// initial locals). Keeps the `fresh` flag of a session it leaves
/// pending exact, but does **not** restart completed sessions or touch
/// statistics — that is [`FsmUnitRuntime::call`]'s business.
fn step_session(
    svc: &ServiceSpec,
    session: &mut Session,
    args: &[Value],
    wires: &mut dyn WireStore,
    effects: &mut StepEffects,
) -> Result<(ServiceOutcome, bool), EvalError> {
    let state_before = session.exec.current();
    let fresh = session.fresh;
    debug_assert_eq!(fresh, session.is_initial(svc), "stale session freshness");
    let mut env = SessionEnv {
        locals: &mut session.locals,
        var_specs: svc.locals(),
        wires,
        args,
        local_writes: 0,
        wire_writes: 0,
    };
    let stepped = session.exec.step_with(svc.fsm(), &mut env, effects);
    let (local_writes, wire_writes) = (env.local_writes, env.wire_writes);
    let no_op = local_writes == 0 && wire_writes == 0 && session.exec.current() == state_before;
    let done = stepped.and_then(|_| {
        session
            .locals
            .get(SERVICE_DONE_VAR.index())
            .ok_or(EvalError::NoSuchVar(SERVICE_DONE_VAR))?
            .truthy()
            .ok_or(EvalError::UnknownCondition)
    });
    // A no-op step left state and locals as they were; a completed
    // session is restarted (fresh) by the caller.
    if !no_op && !matches!(done, Ok(true)) {
        session.fresh = session.is_initial(svc);
    }
    if done? {
        let result = match svc.returns() {
            Some(_) => Some(
                session
                    .locals
                    .get(SERVICE_RESULT_VAR.index())
                    .cloned()
                    .ok_or(EvalError::NoSuchVar(SERVICE_RESULT_VAR))?,
            ),
            None => None,
        };
        Ok((
            ServiceOutcome { done: true, result },
            fresh && wire_writes == 0,
        ))
    } else {
        Ok((ServiceOutcome::pending(), no_op))
    }
}

/// Per-service call statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Activations (each returns done or pending).
    pub calls: u64,
    /// Completed protocol runs.
    pub completions: u64,
}

/// Statistics of a unit instance.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct UnitStats {
    /// Per-service stats, keyed by the service's declared name: one row
    /// per service called at least once, whatever the callers' spelling.
    pub services: HashMap<String, ServiceStats>,
    /// Controller activations.
    pub controller_steps: u64,
    /// Controller activations skipped because the previous step was a
    /// no-op and no wire input changed since
    /// ([`FsmUnitRuntime::step_controller_if_active`]).
    pub controller_skips: u64,
    /// Completed bus transactions (batched links only): one wire-level
    /// handshake per entry, however many values it carried.
    pub batches: u64,
    /// Total values carried by completed bus transactions.
    pub batched_values: u64,
    /// Largest single bus transaction, in values.
    pub max_batch_len: u64,
    /// Batch-length distribution in power-of-two buckets: `hist[i]`
    /// counts completed bus transactions carrying between `2^i` and
    /// `2^(i+1) - 1` values. Grown on demand; empty until the first
    /// batch completes.
    pub batch_len_hist: Vec<u64>,
    /// Payload beats streamed on the `DATA` wire (batched links under
    /// [`crate::BusTiming::PayloadBeats`] only): one beat per value per
    /// cycle, so this is the bus occupancy in cycles attributable to
    /// payload transport. Always zero under
    /// [`crate::BusTiming::LengthOnly`], and exactly `batched_values`
    /// under `PayloadBeats` (beats per batch == batch length; beats
    /// are recorded with the completed transaction, so a batch still
    /// mid-stream when a bounded run ends is not counted).
    pub payload_beats: u64,
}

/// Calls and completions per service, in the order of the spec's
/// service table: the counters behind the name-keyed
/// [`UnitStats::services`] view, which the runtimes build on demand.
/// A call counts by index, so no name is hashed or compared.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ServiceCounts(Vec<ServiceStats>);

impl ServiceCounts {
    /// Zeroed counters for every service `spec` declares.
    pub(crate) fn new(spec: &CommUnitSpec) -> Self {
        ServiceCounts(vec![ServiceStats::default(); spec.services().len()])
    }

    /// Counts one activation of service `idx`.
    pub(crate) fn bump(&mut self, idx: usize, done: bool) {
        let row = &mut self.0[idx];
        row.calls += 1;
        if done {
            row.completions += 1;
        }
    }

    /// The public rows: one per service called at least once, keyed by
    /// its declared name.
    pub(crate) fn rows(&self, spec: &CommUnitSpec) -> HashMap<String, ServiceStats> {
        spec.services()
            .iter()
            .zip(&self.0)
            .filter(|(_, row)| row.calls > 0)
            .map(|(svc, row)| (svc.name().to_string(), *row))
            .collect()
    }

    /// Counters from public rows (a capture's). A row naming a service
    /// that `spec` does not declare is refused; the error names it.
    pub(crate) fn from_rows(
        spec: &CommUnitSpec,
        rows: &HashMap<String, ServiceStats>,
    ) -> Result<Self, String> {
        let mut counts = Self::new(spec);
        for (name, row) in rows {
            let idx = spec
                .services()
                .iter()
                .position(|svc| svc.name() == name)
                .ok_or_else(|| format!("stats row of service {name}"))?;
            counts.0[idx] = *row;
        }
        Ok(counts)
    }
}

impl UnitStats {
    /// Records one completed bus transaction of `len` values into the
    /// batch counters and the power-of-two length histogram.
    pub fn record_batch(&mut self, len: u64) {
        self.batches += 1;
        self.batched_values += len;
        self.max_batch_len = self.max_batch_len.max(len);
        let bucket = (u64::BITS - 1 - len.max(1).leading_zeros()) as usize;
        if self.batch_len_hist.len() <= bucket {
            self.batch_len_hist.resize(bucket + 1, 0);
        }
        self.batch_len_hist[bucket] += 1;
    }
}

/// Environment adapter: locals as vars, wires as ports, call args as args.
struct SessionEnv<'a> {
    locals: &'a mut Vec<Value>,
    /// Variable declarations (write clamping), borrowed straight from
    /// the spec — no per-step type-table collection.
    var_specs: &'a [Variable],
    wires: &'a mut dyn WireStore,
    args: &'a [Value],
    /// Local-variable writes performed during the step (conservative:
    /// equal-value writes count).
    local_writes: u32,
    /// Wire writes performed during the step, counted like
    /// `local_writes`. A step with neither proves itself a no-op when it
    /// also kept its state; a completing session step from a fresh
    /// session needs only no wire write to prove itself repeatable.
    wire_writes: u32,
}

impl ReadEnv for SessionEnv<'_> {
    fn read_var(&self, v: VarId) -> Option<&Value> {
        self.locals.get(v.index())
    }
    fn read_port(&self, p: PortId) -> Option<&Value> {
        self.wires.read_wire(p)
    }
    fn read_arg(&self, i: u32) -> Option<&Value> {
        self.args.get(i as usize)
    }
}

impl Env for SessionEnv<'_> {
    fn write_var(&mut self, v: VarId, value: Value) -> Result<(), EvalError> {
        self.local_writes += 1;
        let ty = self
            .var_specs
            .get(v.index())
            .map(Variable::ty)
            .ok_or(EvalError::NoSuchVar(v))?;
        let slot = self
            .locals
            .get_mut(v.index())
            .ok_or(EvalError::NoSuchVar(v))?;
        *slot = ty.clamp(value);
        Ok(())
    }
    fn drive_port(&mut self, p: PortId, value: Value) -> Result<(), EvalError> {
        self.wire_writes += 1;
        self.wires.write_wire(p, value)
    }
    fn call_service(
        &mut self,
        call: &ServiceCall,
        _args: &[Value],
    ) -> Result<ServiceOutcome, EvalError> {
        Err(EvalError::Service(format!(
            "nested service call to {}",
            call.service
        )))
    }
}

/// Executes an FSM-described communication unit instance.
///
/// # Examples
///
/// Drive the library handshake through a full put/get exchange:
///
/// ```
/// use cosma_comm::{handshake_unit, FsmUnitRuntime, LocalWires, CallerId};
/// use cosma_core::{Type, Value};
///
/// let spec = handshake_unit("hs", Type::INT16);
/// let mut unit = FsmUnitRuntime::new(spec.clone());
/// let mut wires = LocalWires::new(&spec);
/// let producer = CallerId(1);
/// let consumer = CallerId(2);
///
/// // Run producer, consumer and controller until the exchange completes.
/// let mut got = None;
/// for _ in 0..20 {
///     unit.call(producer, "put", &[Value::Int(42)], &mut wires)?;
///     let g = unit.call(consumer, "get", &[], &mut wires)?;
///     if g.done { got = g.result; break; }
///     unit.step_controller(&mut wires)?;
/// }
/// assert_eq!(got, Some(Value::Int(42)));
/// # Ok::<(), cosma_core::EvalError>(())
/// ```
pub struct FsmUnitRuntime {
    spec: Arc<CommUnitSpec>,
    controller: Option<(FsmExec, Vec<Value>)>,
    /// Live sessions sorted by `(caller, service index)`: a call finds
    /// its session by binary search, and a capture copies them in
    /// canonical order.
    sessions: Vec<Session>,
    /// Step-effects arena every session and controller step goes
    /// through ([`FsmExec::step_with`]).
    effects: StepEffects,
    calls: ServiceCounts,
    /// Controller activations ([`UnitStats::controller_steps`]).
    pub(crate) controller_steps: u64,
    /// Skipped controller activations ([`UnitStats::controller_skips`]).
    pub(crate) controller_skips: u64,
    /// Whether the last controller step provably changed nothing (same
    /// state, same vars, zero wire writes). While true, re-stepping with
    /// unchanged wire inputs must produce the same no-op, so the step
    /// can be skipped.
    ctrl_stable: bool,
    /// Whether the last [`FsmUnitRuntime::call`] was stable
    /// ([`FsmUnitRuntime::last_call_stable`]), so the *caller* can be
    /// parked until one of the service's completion wires events.
    last_call_stable: bool,
}

impl fmt::Debug for FsmUnitRuntime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FsmUnitRuntime")
            .field("spec", &self.spec.name())
            .field("sessions", &self.sessions.len())
            .finish_non_exhaustive()
    }
}

impl FsmUnitRuntime {
    /// Creates the runtime for a unit spec.
    #[must_use]
    pub fn new(spec: Arc<CommUnitSpec>) -> Self {
        let controller = spec.controller().map(|c| {
            (
                FsmExec::new(&c.fsm),
                c.vars.iter().map(|v| v.init().clone()).collect(),
            )
        });
        FsmUnitRuntime {
            calls: ServiceCounts::new(&spec),
            spec,
            controller,
            sessions: Vec::new(),
            effects: StepEffects::default(),
            controller_steps: 0,
            controller_skips: 0,
            ctrl_stable: false,
            last_call_stable: false,
        }
    }

    /// The unit spec.
    #[must_use]
    pub fn spec(&self) -> &Arc<CommUnitSpec> {
        &self.spec
    }

    /// Activates one step of `service` on behalf of `caller`. The name
    /// resolves through [`CommUnitSpec::service_index`], so a VHDL-style
    /// upper-cased caller shares the session (and stats row) of the
    /// canonical name.
    ///
    /// Returns `done = true` exactly once per completed protocol run; the
    /// session then resets for the next transaction.
    ///
    /// # Errors
    ///
    /// Returns [`EvalError::Service`] for unknown services or arity
    /// mismatches, and propagates expression-evaluation errors.
    pub fn call(
        &mut self,
        caller: CallerId,
        service: &str,
        args: &[Value],
        wires: &mut dyn WireStore,
    ) -> Result<ServiceOutcome, EvalError> {
        let Some(idx) = self.spec.service_index(service) else {
            return Err(EvalError::Service(format!(
                "unit {} has no service {service}",
                self.spec.name()
            )));
        };
        self.call_index(caller, idx, args, wires)
    }

    /// [`FsmUnitRuntime::call`] for a caller that already resolved the
    /// service to its index in the spec's service table.
    ///
    /// # Errors
    ///
    /// Returns [`EvalError::Service`] for an index past the service
    /// table or an arity mismatch, and propagates expression-evaluation
    /// errors.
    pub fn call_index(
        &mut self,
        caller: CallerId,
        idx: usize,
        args: &[Value],
        wires: &mut dyn WireStore,
    ) -> Result<ServiceOutcome, EvalError> {
        let Some(svc) = self.spec.services().get(idx) else {
            return Err(EvalError::Service(format!(
                "unit {} has no service #{idx}",
                self.spec.name()
            )));
        };
        if svc.args().len() != args.len() {
            return Err(EvalError::Service(format!(
                "service {} expects {} argument(s), got {}",
                svc.name(),
                svc.args().len(),
                args.len()
            )));
        }
        let pos = match self.find_session(caller, idx) {
            Ok(pos) => pos,
            Err(pos) => {
                self.sessions.insert(pos, Session::new(caller, idx, svc));
                pos
            }
        };
        let session = &mut self.sessions[pos];
        let (outcome, stable) = step_session(svc, session, args, wires, &mut self.effects)?;
        self.last_call_stable = stable;
        self.calls.bump(idx, outcome.done);
        if outcome.done {
            session.restart(svc);
        }
        Ok(outcome)
    }

    /// The position of `caller`'s session of service `idx`, or where it
    /// would be inserted.
    fn find_session(&self, caller: CallerId, idx: usize) -> Result<usize, usize> {
        self.sessions
            .binary_search_by_key(&(caller, idx), Session::key)
    }

    /// Runs one controller activation (no-op for controller-less units).
    ///
    /// # Errors
    ///
    /// Propagates expression-evaluation errors from the controller FSM.
    pub fn step_controller(&mut self, wires: &mut dyn WireStore) -> Result<(), EvalError> {
        self.step_controller_inner(wires).map(|_| ())
    }

    /// Clock-gated controller activation: steps unless the previous step
    /// was provably a no-op (same state, same vars, no wire writes) *and*
    /// the caller reports no wire input changed since — in which case
    /// re-stepping would repeat the identical no-op and is skipped.
    ///
    /// The co-simulation backplane calls this on every clock edge with
    /// `inputs_changed` derived from the unit wires' kernel event counts,
    /// so idle units cost nothing per cycle. Returns whether a step ran.
    ///
    /// # Errors
    ///
    /// Propagates expression-evaluation errors from the controller FSM.
    pub fn step_controller_if_active(
        &mut self,
        wires: &mut dyn WireStore,
        inputs_changed: bool,
    ) -> Result<bool, EvalError> {
        if self.ctrl_stable && !inputs_changed {
            if self.spec.controller().is_some() {
                self.controller_skips += 1;
            }
            return Ok(false);
        }
        self.step_controller_inner(wires)
    }

    fn step_controller_inner(&mut self, wires: &mut dyn WireStore) -> Result<bool, EvalError> {
        let Some(ctrl_spec) = self.spec.controller() else {
            // A controller-less unit is trivially stable.
            self.ctrl_stable = true;
            return Ok(false);
        };
        let (exec, vars) = self.controller.as_mut().ok_or_else(|| {
            EvalError::Service(format!(
                "unit {}: controller spec present but no controller state",
                self.spec.name()
            ))
        })?;
        let state_before = exec.current();
        let mut env = SessionEnv {
            locals: vars,
            var_specs: &ctrl_spec.vars,
            wires,
            args: &[],
            local_writes: 0,
            wire_writes: 0,
        };
        exec.step_with(&ctrl_spec.fsm, &mut env, &mut self.effects)?;
        self.ctrl_stable =
            env.local_writes == 0 && env.wire_writes == 0 && exec.current() == state_before;
        self.controller_steps += 1;
        Ok(true)
    }

    /// Call/completion statistics, built from the per-service counters:
    /// a `services` row for every service called at least once, keyed by
    /// its declared name whatever the callers' spelling.
    #[must_use]
    pub fn stats(&self) -> UnitStats {
        UnitStats {
            services: self.calls.rows(&self.spec),
            controller_steps: self.controller_steps,
            controller_skips: self.controller_skips,
            ..UnitStats::default()
        }
    }

    /// Whether the last controller step was provably a no-op — while
    /// true, re-stepping with unchanged wire inputs is guaranteed to
    /// change nothing, so schedulers (the sharded backplane) can park the
    /// unit entirely until one of its wires has an event.
    #[must_use]
    pub fn controller_stable(&self) -> bool {
        self.ctrl_stable
    }

    /// Whether the last [`FsmUnitRuntime::call`] was *stable*: re-calling
    /// with the same arguments and unchanged completion wires
    /// ([`FsmUnitRuntime::completion_signals`]) repeats this outcome and
    /// leaves the unit as it is now.
    ///
    /// * A pending call is stable when it was a no-op: session state
    ///   unchanged, no local and no wire written.
    /// * A completed call is stable when its session was fresh before
    ///   the step (the protocol's initial state, with its declared
    ///   initial locals) and the step wrote no wire: a pure read, such as
    ///   [`shared_reg_unit`](crate::shared_reg_unit)'s `read` or
    ///   [`register_bank_unit`](crate::register_bank_unit)'s
    ///   `get_<reg>`. The session resets to fresh on completion, so the
    ///   re-call starts where this one did.
    ///
    /// Schedulers park a caller whose calls are all stable until one of
    /// those wires events (`SchedulingConfig::park_blocked` in
    /// `cosma-cosim`); the repeats are then never made, so parking
    /// reduces the unit's call and completion counts.
    #[must_use]
    pub fn last_call_stable(&self) -> bool {
        self.last_call_stable
    }

    /// The wires whose events can unblock a caller of `service`, or
    /// change what a stable completed call returns: the read-set of the
    /// service's protocol FSM. A blocked session's next step depends
    /// only on its locals (frozen while the caller sleeps), its
    /// arguments and these wires, so a parked caller re-armed by any
    /// event on them observes exactly the behaviour of re-calling every
    /// cycle.
    ///
    /// Returns an empty set for unknown services (callers must then stay
    /// awake).
    #[must_use]
    pub fn completion_signals(&self, service: &str) -> Vec<PortId> {
        self.spec
            .service(service)
            .map(|svc| svc.fsm().port_reads())
            .unwrap_or_default()
    }

    /// Current controller state name, if a controller exists (useful in
    /// traces and the Fig. 2 harness).
    #[must_use]
    pub fn controller_state(&self) -> Option<&str> {
        let ctrl = self.spec.controller()?;
        let (exec, _) = self.controller.as_ref()?;
        Some(ctrl.fsm.state(exec.current()).name())
    }

    /// Drops a caller's session for a service (e.g. on module reset).
    pub fn reset_session(&mut self, caller: CallerId, service: &str) {
        if let Some(idx) = self.spec.service_index(service) {
            if let Ok(pos) = self.find_session(caller, idx) {
                self.sessions.remove(pos);
            }
        }
    }

    /// Captures all mutable runtime state into a canonical
    /// [`FsmUnitState`]: controller executor + vars, every live session
    /// (in the runtime's order, sorted by caller and service),
    /// statistics, and the two stability flags. The immutable spec is
    /// not captured.
    #[must_use]
    pub fn capture_state(&self) -> FsmUnitState {
        FsmUnitState {
            controller: self.controller.clone(),
            sessions: self.sessions.clone(),
            stats: self.stats(),
            ctrl_stable: self.ctrl_stable,
            last_call_stable: self.last_call_stable,
        }
    }

    /// Checks that a capture fits this runtime's spec: the controller
    /// and every session sit in a state of their FSM and carry one local
    /// per declared variable, and every session and statistics row names
    /// a declared service. [`FsmUnitRuntime::restore_state`] runs this
    /// before it mutates anything.
    ///
    /// # Errors
    ///
    /// Returns [`EvalError::Service`] naming the first misfit.
    pub fn check_state(&self, state: &FsmUnitState) -> Result<(), EvalError> {
        self.checked_counts(state).map(drop)
    }

    /// [`FsmUnitRuntime::check_state`], returning the captured
    /// statistics as per-service counters for the restore.
    fn checked_counts(&self, state: &FsmUnitState) -> Result<ServiceCounts, EvalError> {
        let misfit = |what: String| {
            EvalError::Service(format!(
                "unit {}: snapshot {what} does not fit the spec",
                self.spec.name()
            ))
        };
        let fits = |exec: &FsmExec, fsm: &Fsm, locals: &[Value], vars: &[Variable]| {
            exec.current().index() < fsm.state_count() && locals.len() == vars.len()
        };
        match (&state.controller, self.spec.controller()) {
            (None, None) => {}
            (Some((exec, vars)), Some(ctrl)) if fits(exec, &ctrl.fsm, vars, &ctrl.vars) => {}
            _ => return Err(misfit("controller".to_string())),
        }
        for s in &state.sessions {
            match self.spec.services().get(s.service) {
                Some(svc) if fits(&s.exec, svc.fsm(), &s.locals, svc.locals()) => {}
                _ => return Err(misfit(format!("session of service #{}", s.service))),
            }
        }
        ServiceCounts::from_rows(&self.spec, &state.stats.services).map_err(misfit)
    }

    /// Restores a previously captured [`FsmUnitState`]. The target must
    /// be built from the same spec (or one declaring the same services,
    /// in the same order, and the same controller); a capture taken from
    /// one instance restores into another.
    ///
    /// # Errors
    ///
    /// Returns [`EvalError::Service`] (leaving this runtime untouched)
    /// when [`FsmUnitRuntime::check_state`] rejects the capture.
    pub fn restore_state(&mut self, state: &FsmUnitState) -> Result<(), EvalError> {
        self.calls = self.checked_counts(state)?;
        self.sessions.clone_from(&state.sessions);
        self.controller.clone_from(&state.controller);
        self.controller_steps = state.stats.controller_steps;
        self.controller_skips = state.stats.controller_skips;
        self.ctrl_stable = state.ctrl_stable;
        self.last_call_stable = state.last_call_stable;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::library::{handshake_unit, shared_reg_unit};
    use cosma_core::Type;

    #[test]
    fn unknown_service_is_error() {
        let spec = handshake_unit("hs", Type::INT16);
        let mut unit = FsmUnitRuntime::new(spec.clone());
        let mut wires = LocalWires::new(&spec);
        let err = unit
            .call(CallerId(0), "bogus", &[], &mut wires)
            .unwrap_err();
        assert!(err.to_string().contains("no service"));
    }

    #[test]
    fn arity_mismatch_is_error() {
        let spec = handshake_unit("hs", Type::INT16);
        let mut unit = FsmUnitRuntime::new(spec.clone());
        let mut wires = LocalWires::new(&spec);
        let err = unit.call(CallerId(0), "put", &[], &mut wires).unwrap_err();
        assert!(err.to_string().contains("argument"));
    }

    #[test]
    fn sessions_are_per_caller() {
        let spec = handshake_unit("hs", Type::INT16);
        let mut unit = FsmUnitRuntime::new(spec.clone());
        let mut wires = LocalWires::new(&spec);
        // Two producers start puts; their protocol FSMs advance
        // independently (each has its own NEXTSTATE).
        unit.call(CallerId(1), "put", &[Value::Int(1)], &mut wires)
            .unwrap();
        unit.call(CallerId(2), "put", &[Value::Int(2)], &mut wires)
            .unwrap();
        assert_eq!(unit.stats().services["put"].calls, 2);
        assert_eq!(unit.stats().services["put"].completions, 0);
        assert_eq!(unit.sessions.len(), 2);
    }

    #[test]
    fn stats_count_completions() {
        let spec = handshake_unit("hs", Type::INT16);
        let mut unit = FsmUnitRuntime::new(spec.clone());
        let mut wires = LocalWires::new(&spec);
        let p = CallerId(1);
        let c = CallerId(2);
        let mut puts = 0;
        let mut gets = 0;
        for _ in 0..60 {
            if unit
                .call(p, "put", &[Value::Int(9)], &mut wires)
                .unwrap()
                .done
            {
                puts += 1;
            }
            if unit.call(c, "get", &[], &mut wires).unwrap().done {
                gets += 1;
            }
            unit.step_controller(&mut wires).unwrap();
            if puts >= 2 && gets >= 2 {
                break;
            }
        }
        assert!(puts >= 2, "two puts should complete, got {puts}");
        assert!(gets >= 2, "two gets should complete, got {gets}");
        assert_eq!(unit.stats().services["put"].completions, puts);
        assert!(unit.stats().controller_steps > 0);
    }

    #[test]
    fn sessions_key_by_service_index() {
        // The session map is keyed by (CallerId, service index) — so a
        // case-insensitive spelling (the VHDL-caller path) resolves to
        // the SAME session instead of forking a duplicate keyed by the
        // caller's string.
        let spec = handshake_unit("hs", Type::INT16);
        let mut unit = FsmUnitRuntime::new(spec.clone());
        let mut wires = LocalWires::new(&spec);
        let p = CallerId(1);
        unit.call(p, "put", &[Value::Int(1)], &mut wires).unwrap();
        assert_eq!(unit.sessions.len(), 1);
        unit.call(p, "PUT", &[Value::Int(1)], &mut wires).unwrap();
        assert_eq!(
            unit.sessions.len(),
            1,
            "upper-cased spelling advances the same session"
        );
        assert_eq!(
            unit.stats().services.get("put").map(|s| s.calls),
            Some(2),
            "and feeds the same canonical stats row"
        );
        assert!(
            !unit.stats().services.contains_key("PUT"),
            "no stats row forked under the caller's spelling"
        );
        // reset_session drops it regardless of spelling.
        unit.reset_session(p, "Put");
        assert_eq!(unit.sessions.len(), 0);
    }

    #[test]
    fn stats_rows_follow_calls_and_round_trip_through_snapshots() {
        let spec = handshake_unit("hs", Type::INT16);
        let mut unit = FsmUnitRuntime::new(spec.clone());
        let mut wires = LocalWires::new(&spec);
        assert!(unit.stats().services.is_empty(), "no row before a call");
        // Only `get` is called, spelled upper case: one canonical row.
        for _ in 0..3 {
            unit.call(CallerId(2), "GET", &[], &mut wires).unwrap();
        }
        let stats = unit.stats();
        assert_eq!(stats.services.len(), 1, "{stats:?}");
        let row = ServiceStats {
            calls: 3,
            completions: 0,
        };
        assert_eq!(stats.services["get"], row);

        // capture -> restore -> stats() round-trips into a fresh runtime.
        unit.call(CallerId(1), "put", &[Value::Int(4)], &mut wires)
            .unwrap();
        unit.step_controller(&mut wires).unwrap();
        let snap = unit.capture_state();
        assert_eq!(snap.stats(), &unit.stats());
        let mut twin = FsmUnitRuntime::new(spec.clone());
        twin.restore_state(&snap).unwrap();
        assert_eq!(twin.stats(), unit.stats());
        assert_eq!(twin.capture_state(), snap);

        // A captured row naming a service the spec lacks is refused
        // before anything changes.
        let mut foreign = snap.clone();
        foreign.stats.services.insert("peek".into(), row);
        let err = unit.check_state(&foreign).unwrap_err();
        assert!(
            err.to_string().contains("stats row of service peek"),
            "{err}"
        );
        let mut fresh = FsmUnitRuntime::new(spec);
        let before = fresh.capture_state();
        assert!(fresh.restore_state(&foreign).is_err());
        assert_eq!(fresh.capture_state(), before, "refused load is a no-op");
    }

    #[test]
    fn reset_session_restarts_protocol() {
        let spec = handshake_unit("hs", Type::INT16);
        let mut unit = FsmUnitRuntime::new(spec.clone());
        let mut wires = LocalWires::new(&spec);
        let p = CallerId(1);
        unit.call(p, "put", &[Value::Int(1)], &mut wires).unwrap();
        unit.reset_session(p, "put");
        assert_eq!(unit.sessions.len(), 0);
    }

    #[test]
    fn gated_controller_skips_only_provable_noops() {
        let spec = handshake_unit("hs", Type::INT16);
        let mut unit = FsmUnitRuntime::new(spec.clone());
        let mut wires = LocalWires::new(&spec);
        // First activation always steps (nothing proven yet).
        assert!(unit.step_controller_if_active(&mut wires, false).unwrap());
        // An idle handshake controller self-loops without writes: once
        // stable, unchanged inputs are skipped...
        let mut skipped = 0;
        for _ in 0..10 {
            if !unit.step_controller_if_active(&mut wires, false).unwrap() {
                skipped += 1;
            }
        }
        assert!(skipped > 0, "idle controller must eventually be skippable");
        assert_eq!(unit.stats().controller_skips, skipped);
        // ...but an input change forces a real step.
        assert!(unit.step_controller_if_active(&mut wires, true).unwrap());
        // Gated and ungated runs observe the same protocol behaviour:
        // drive a full put/get exchange with gating on the controller,
        // deriving inputs_changed from actual wire changes.
        let mut gated = FsmUnitRuntime::new(spec.clone());
        let mut ungated = FsmUnitRuntime::new(spec.clone());
        let mut gw = LocalWires::new(&spec);
        let mut uw = LocalWires::new(&spec);
        let p = CallerId(1);
        let c = CallerId(2);
        let mut got_g = None;
        let mut got_u = None;
        for _ in 0..40 {
            let before: Vec<Value> = (0..spec.wires().len())
                .map(|i| gw.value(PortId::new(i as u32)).clone())
                .collect();
            gated.call(p, "put", &[Value::Int(7)], &mut gw).unwrap();
            if let Some(v) = gated.call(c, "get", &[], &mut gw).unwrap().result {
                got_g.get_or_insert(v);
            }
            let changed =
                (0..spec.wires().len()).any(|i| gw.value(PortId::new(i as u32)) != &before[i]);
            gated.step_controller_if_active(&mut gw, changed).unwrap();

            ungated.call(p, "put", &[Value::Int(7)], &mut uw).unwrap();
            if let Some(v) = ungated.call(c, "get", &[], &mut uw).unwrap().result {
                got_u.get_or_insert(v);
            }
            ungated.step_controller(&mut uw).unwrap();
        }
        assert_eq!(got_g, Some(Value::Int(7)));
        assert_eq!(got_g, got_u);
    }

    #[test]
    fn controller_state_visible() {
        let spec = handshake_unit("hs", Type::INT16);
        let unit = FsmUnitRuntime::new(spec);
        assert_eq!(unit.controller_state(), Some("IDLE"));
    }

    #[test]
    fn completion_signals_are_the_protocol_read_set() {
        let spec = handshake_unit("hs", Type::INT16);
        let unit = FsmUnitRuntime::new(spec.clone());
        // get blocks on B_FULL and copies DATA: both are in its read-set,
        // while REQ (producer-side only) is not.
        let get = unit.completion_signals("get");
        assert!(get.contains(&spec.wire_id("B_FULL").unwrap()));
        assert!(get.contains(&spec.wire_id("DATA").unwrap()));
        assert!(!get.contains(&spec.wire_id("REQ").unwrap()));
        // put waits on ACK and B_FULL.
        let put = unit.completion_signals("put");
        assert!(put.contains(&spec.wire_id("ACK").unwrap()));
        assert!(put.contains(&spec.wire_id("B_FULL").unwrap()));
        assert!(unit.completion_signals("bogus").is_empty());
    }

    #[test]
    fn blocked_call_is_stable_progressing_call_is_not() {
        let spec = handshake_unit("hs", Type::INT16);
        let mut unit = FsmUnitRuntime::new(spec.clone());
        let mut wires = LocalWires::new(&spec);
        // get on an empty channel: pending, nothing written, same state —
        // a provable no-op every time.
        for _ in 0..3 {
            let g = unit.call(CallerId(2), "get", &[], &mut wires).unwrap();
            assert!(!g.done);
            assert!(unit.last_call_stable(), "blocked get is a no-op");
        }
        // put's first activation drives DATA/REQ: pending but NOT stable.
        let p = unit
            .call(CallerId(1), "put", &[Value::Int(5)], &mut wires)
            .unwrap();
        assert!(!p.done);
        assert!(!unit.last_call_stable(), "put wrote wires");
    }

    #[test]
    fn capture_restore_resumes_mid_protocol_sessions() {
        let spec = handshake_unit("hs", Type::INT16);
        let mut unit = FsmUnitRuntime::new(spec.clone());
        let mut wires = LocalWires::new(&spec);
        let p = CallerId(1);
        let c = CallerId(2);
        // Leave a put and a get parked mid-protocol, controller advanced.
        unit.call(p, "put", &[Value::Int(7)], &mut wires).unwrap();
        unit.call(c, "get", &[], &mut wires).unwrap();
        unit.step_controller(&mut wires).unwrap();
        let snap = unit.capture_state();
        let wires_snap = wires.clone();
        assert_eq!(snap.session_count(), 2, "both sessions live at capture");

        // Drive the original to completion, logging every observable.
        let run = |unit: &mut FsmUnitRuntime, wires: &mut LocalWires| {
            let mut log = vec![];
            for _ in 0..20 {
                let pr = unit.call(p, "put", &[Value::Int(7)], wires).unwrap();
                let gr = unit.call(c, "get", &[], wires).unwrap();
                unit.step_controller(wires).unwrap();
                log.push((pr.done, gr.done, gr.result));
            }
            log
        };
        let first = run(&mut unit, &mut wires);
        let end_stats = unit.stats().clone();
        assert!(
            first.iter().any(|(pd, gd, _)| *pd && *gd),
            "the handshake completed during the continuation"
        );

        // Restore into a *different* runtime built from the same spec
        // (sessions key by service index) and replay:
        // outcome-identical, stats land verbatim on the same totals.
        let mut twin = FsmUnitRuntime::new(spec.clone());
        let mut twin_wires = wires_snap;
        twin.restore_state(&snap).unwrap();
        assert_eq!(
            twin.capture_state(),
            snap,
            "canonical captures of identical states compare equal"
        );
        let second = run(&mut twin, &mut twin_wires);
        assert_eq!(second, first, "replay is outcome-identical");
        assert_eq!(twin.stats(), end_stats);

        // Callers that first call in the opposite order (the consumer,
        // the higher CallerId, first) hold the same sessions, and a
        // capture lists them in (caller, service) order either way.
        let capture_after = |calls: [(CallerId, &str); 3]| {
            let mut unit = FsmUnitRuntime::new(spec.clone());
            let mut wires = LocalWires::new(&spec);
            for (caller, service) in calls {
                let args: &[Value] = if service == "put" {
                    &[Value::Int(7)]
                } else {
                    &[]
                };
                unit.call(caller, service, args, &mut wires).unwrap();
            }
            unit.step_controller(&mut wires).unwrap();
            unit.capture_state()
        };
        let forward = capture_after([(p, "put"), (c, "get"), (p, "put")]);
        let reversed = capture_after([(c, "get"), (p, "put"), (p, "put")]);
        assert_eq!(forward.session_count(), 2);
        assert_eq!(reversed, forward, "call order does not show in a capture");

        // A spec that doesn't declare the captured services refuses the
        // snapshot and is left untouched.
        let other_spec = shared_reg_unit("reg", Type::INT16);
        let mut other = FsmUnitRuntime::new(other_spec);
        let before = other.capture_state();
        let err = other.restore_state(&snap).unwrap_err();
        assert!(err.to_string().contains("snapshot"));
        assert_eq!(other.capture_state(), before, "refused load is a no-op");
    }
}
