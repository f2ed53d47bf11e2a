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
use cosma_core::{Env, EvalError, FsmExec, ReadEnv, ServiceCall, ServiceOutcome, Value, Variable};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Identifies a calling module (or test harness) so each caller gets its
/// own protocol session per service.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CallerId(pub u64);

/// External wire state of a unit instance.
pub trait WireStore {
    /// Reads a wire.
    ///
    /// # Errors
    ///
    /// Returns an error for unknown wire ids.
    fn read_wire(&self, w: PortId) -> Result<Value, EvalError>;

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
    /// when it does not (the default) — the caller then falls back to
    /// [`WireStore::write_wire_after`] per beat or to cycle-by-cycle
    /// writes. Kernel-backed stores implement this over the simulator's
    /// bulk burst-insert API, which lands every beat of a batched bus
    /// transaction into the timer wheel in a single amortized-O(1)-per-
    /// beat pass.
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
/// immediate.
#[derive(Debug, Clone)]
pub struct LocalWires {
    values: Vec<Value>,
}

impl LocalWires {
    /// Creates wire storage matching `spec`'s wire table.
    #[must_use]
    pub fn new(spec: &CommUnitSpec) -> Self {
        LocalWires {
            values: spec.wires().iter().map(|w| w.init().clone()).collect(),
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
    fn read_wire(&self, w: PortId) -> Result<Value, EvalError> {
        self.values
            .get(w.index())
            .cloned()
            .ok_or(EvalError::NoSuchPort(w))
    }
    fn write_wire(&mut self, w: PortId, v: Value) -> Result<(), EvalError> {
        match self.values.get_mut(w.index()) {
            Some(slot) => {
                *slot = v;
                Ok(())
            }
            None => Err(EvalError::NoSuchPort(w)),
        }
    }
}

/// Live state of one service session: protocol executor + locals.
#[derive(Debug, Clone, PartialEq)]
struct Session {
    exec: FsmExec,
    locals: Vec<Value>,
}

/// A point-in-time capture of all mutable [`FsmUnitRuntime`] state,
/// produced by [`FsmUnitRuntime::capture_state`] and consumed by
/// [`FsmUnitRuntime::restore_state`].
///
/// The capture is canonical: sessions are stored sorted by `(caller,
/// service)`, so two captures of identical logical states compare equal
/// (`PartialEq`) regardless of hash-map iteration order. The unit
/// *spec* is immutable and deliberately not part of the state — a
/// capture restores into any runtime built from the same spec.
#[derive(Debug, Clone, PartialEq)]
pub struct FsmUnitState {
    controller: Option<(FsmExec, Vec<Value>)>,
    /// `(caller, service, protocol executor, locals)`, sorted.
    sessions: Vec<(CallerId, Arc<str>, FsmExec, Vec<Value>)>,
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

/// One protocol-FSM activation of a service session against `wires`.
/// Returns the outcome plus whether the step was a provable no-op (no
/// wire writes, no local writes, same protocol state). Does **not**
/// reset completed sessions or touch statistics — that is
/// [`FsmUnitRuntime::call`]'s business.
fn step_session(
    svc: &ServiceSpec,
    session: &mut Session,
    args: &[Value],
    wires: &mut dyn WireStore,
) -> Result<(ServiceOutcome, bool), EvalError> {
    let state_before = session.exec.current();
    let mut counting = CountingWires {
        inner: wires,
        writes: 0,
    };
    let mut env = SessionEnv {
        locals: &mut session.locals,
        var_specs: svc.locals(),
        wires: &mut counting,
        args,
        var_writes: 0,
    };
    session.exec.step(svc.fsm(), &mut env)?;
    let var_writes = env.var_writes;
    let stable = counting.writes == 0 && var_writes == 0 && session.exec.current() == state_before;
    let done = session
        .locals
        .get(SERVICE_DONE_VAR.index())
        .ok_or(EvalError::NoSuchVar(SERVICE_DONE_VAR))?
        .truthy()
        .ok_or(EvalError::UnknownCondition)?;
    if done {
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
        Ok((ServiceOutcome { done: true, result }, stable))
    } else {
        Ok((ServiceOutcome::pending(), stable))
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
    /// Per-service stats, keyed by service name.
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

    /// Mutable access to a service's stats row, allocating the map key
    /// only on first use — hot paths (one bump per call) pay a lookup
    /// but never a malloc once the row exists.
    pub(crate) fn service_mut(&mut self, name: &str) -> &mut ServiceStats {
        if !self.services.contains_key(name) {
            self.services
                .insert(name.to_string(), ServiceStats::default());
        }
        self.services
            .get_mut(name)
            .expect("service stats row just ensured")
    }
}

/// Wire-store wrapper counting writes, so a controller step can prove
/// itself a no-op.
struct CountingWires<'a> {
    inner: &'a mut dyn WireStore,
    writes: u32,
}

impl WireStore for CountingWires<'_> {
    fn read_wire(&self, w: PortId) -> Result<Value, EvalError> {
        self.inner.read_wire(w)
    }
    fn write_wire(&mut self, w: PortId, v: Value) -> Result<(), EvalError> {
        self.writes += 1;
        self.inner.write_wire(w, v)
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
    /// Local-variable writes performed during the step (no-op detection
    /// for controller gating; conservative — equal-value writes count).
    var_writes: u32,
}

impl ReadEnv for SessionEnv<'_> {
    fn read_var(&self, v: VarId) -> Result<Value, EvalError> {
        self.locals
            .get(v.index())
            .cloned()
            .ok_or(EvalError::NoSuchVar(v))
    }
    fn read_port(&self, p: PortId) -> Result<Value, EvalError> {
        self.wires.read_wire(p)
    }
    fn read_arg(&self, i: u32) -> Result<Value, EvalError> {
        self.args
            .get(i as usize)
            .cloned()
            .ok_or(EvalError::NoSuchArg(i))
    }
}

impl Env for SessionEnv<'_> {
    fn write_var(&mut self, v: VarId, value: Value) -> Result<(), EvalError> {
        self.var_writes += 1;
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
    /// Interned service names, parallel to `spec.services()`. Session
    /// keys clone these `Arc`s (a refcount bump), so neither the
    /// immediate nor the deferred call path allocates a `String` key
    /// per call.
    interned: Vec<Arc<str>>,
    sessions: HashMap<(CallerId, Arc<str>), Session>,
    stats: UnitStats,
    /// Whether the last controller step provably changed nothing (same
    /// state, same vars, zero wire writes). While true, re-stepping with
    /// unchanged wire inputs must produce the same no-op, so the step
    /// can be skipped.
    ctrl_stable: bool,
    /// Whether the last [`FsmUnitRuntime::call`] was a provable no-op:
    /// pending outcome, same session state, no locals written, no wires
    /// written. While true, re-calling with unchanged wires repeats the
    /// identical no-op, so the *caller* can be parked until one of the
    /// service's completion wires events.
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
        let interned = spec
            .services()
            .iter()
            .map(|s| Arc::<str>::from(s.name()))
            .collect();
        FsmUnitRuntime {
            spec,
            controller,
            interned,
            sessions: HashMap::new(),
            stats: UnitStats::default(),
            ctrl_stable: false,
            last_call_stable: false,
        }
    }

    /// The unit spec.
    #[must_use]
    pub fn spec(&self) -> &Arc<CommUnitSpec> {
        &self.spec
    }

    /// Resolves a service name to its index in `spec.services()` (and
    /// the parallel `interned` table) via the spec's own
    /// exact-then-case-insensitive lookup, so VHDL-style upper-cased
    /// callers share the session (and stats row) of the canonical name
    /// instead of forking one keyed by their spelling.
    fn resolve(&self, service: &str) -> Option<usize> {
        self.spec.service_index(service)
    }

    /// Activates one step of `service` on behalf of `caller`.
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
        let Some(idx) = self.resolve(service) else {
            return Err(EvalError::Service(format!(
                "unit {} has no service {service}",
                self.spec.name()
            )));
        };
        let spec = Arc::clone(&self.spec);
        let svc = &spec.services()[idx];
        if svc.args().len() != args.len() {
            return Err(EvalError::Service(format!(
                "service {service} expects {} argument(s), got {}",
                svc.args().len(),
                args.len()
            )));
        }
        let key = (caller, Arc::clone(&self.interned[idx]));
        let session = self.sessions.entry(key).or_insert_with(|| Session {
            exec: FsmExec::new(svc.fsm()),
            locals: svc.locals().iter().map(|v| v.init().clone()).collect(),
        });
        let (outcome, stable) = step_session(svc, session, args, wires)?;
        self.last_call_stable = stable;
        // Stats rows key by the canonical service name too, so a
        // case-insensitive spelling feeds the same row as the session
        // it advances.
        let stats = self.stats.service_mut(svc.name());
        stats.calls += 1;
        if outcome.done {
            stats.completions += 1;
            // Reset the session for the next transaction, reusing the
            // locals buffer in place.
            session.exec = FsmExec::new(svc.fsm());
            session.locals.clear();
            session
                .locals
                .extend(svc.locals().iter().map(|v| v.init().clone()));
        }
        Ok(outcome)
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
                self.stats.controller_skips += 1;
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
        let mut counting = CountingWires {
            inner: wires,
            writes: 0,
        };
        let mut env = SessionEnv {
            locals: vars,
            var_specs: &ctrl_spec.vars,
            wires: &mut counting,
            args: &[],
            var_writes: 0,
        };
        exec.step(&ctrl_spec.fsm, &mut env)?;
        let var_writes = env.var_writes;
        self.ctrl_stable =
            counting.writes == 0 && var_writes == 0 && exec.current() == state_before;
        self.stats.controller_steps += 1;
        Ok(true)
    }

    /// Call/completion statistics.
    #[must_use]
    pub fn stats(&self) -> &UnitStats {
        &self.stats
    }

    /// Whether the last controller step was provably a no-op — while
    /// true, re-stepping with unchanged wire inputs is guaranteed to
    /// change nothing, so schedulers (the sharded backplane) can park the
    /// unit entirely until one of its wires has an event.
    #[must_use]
    pub fn controller_stable(&self) -> bool {
        self.ctrl_stable
    }

    /// Whether the last [`FsmUnitRuntime::call`] was a provable no-op
    /// (pending outcome, session state unchanged, no locals written, no
    /// wires written). While true, re-calling with unchanged wires is
    /// guaranteed to repeat the no-op — schedulers can park the blocked
    /// caller until one of [`FsmUnitRuntime::completion_signals`] events.
    #[must_use]
    pub fn last_call_stable(&self) -> bool {
        self.last_call_stable
    }

    /// The wires whose events can unblock a caller of `service`: the
    /// read-set of the service's protocol FSM. A blocked session's next
    /// step depends only on its locals (frozen while the caller sleeps)
    /// and these wires, so a parked caller re-armed by any event on them
    /// observes exactly the behaviour of re-calling every cycle.
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
        if let Some(idx) = self.resolve(service) {
            let key = (caller, Arc::clone(&self.interned[idx]));
            self.sessions.remove(&key);
        }
    }

    /// Captures all mutable runtime state into a canonical
    /// [`FsmUnitState`]: controller executor + vars, every live session
    /// (sorted by caller and service), statistics, and the two
    /// stability flags. The immutable spec is not captured.
    #[must_use]
    pub fn capture_state(&self) -> FsmUnitState {
        let mut sessions: Vec<(CallerId, Arc<str>, FsmExec, Vec<Value>)> = self
            .sessions
            .iter()
            .map(|((caller, name), s)| {
                (*caller, Arc::clone(name), s.exec.clone(), s.locals.clone())
            })
            .collect();
        sessions.sort_by(|a, b| (a.0, a.1.as_ref()).cmp(&(b.0, b.1.as_ref())));
        FsmUnitState {
            controller: self.controller.clone(),
            sessions,
            stats: self.stats.clone(),
            ctrl_stable: self.ctrl_stable,
            last_call_stable: self.last_call_stable,
        }
    }

    /// Restores a previously captured [`FsmUnitState`]. The target must
    /// be built from the same spec (or one declaring the same services
    /// and controller); session keys are re-interned against this
    /// runtime's own name table, so a capture taken from one instance
    /// restores into another.
    ///
    /// # Errors
    ///
    /// Returns [`EvalError::Service`] (leaving this runtime untouched)
    /// if the capture references a service this spec doesn't declare,
    /// or its controller shape doesn't match.
    pub fn restore_state(&mut self, state: &FsmUnitState) -> Result<(), EvalError> {
        if state.controller.is_some() != self.controller.is_some() {
            return Err(EvalError::Service(format!(
                "unit {}: snapshot controller shape does not match spec",
                self.spec.name()
            )));
        }
        let mut sessions = HashMap::with_capacity(state.sessions.len());
        for (caller, name, exec, locals) in &state.sessions {
            let idx = self.resolve(name).ok_or_else(|| {
                EvalError::Service(format!(
                    "unit {}: snapshot session for unknown service {name}",
                    self.spec.name()
                ))
            })?;
            sessions.insert(
                (*caller, Arc::clone(&self.interned[idx])),
                Session {
                    exec: exec.clone(),
                    locals: locals.clone(),
                },
            );
        }
        self.sessions = sessions;
        self.controller.clone_from(&state.controller);
        self.stats.clone_from(&state.stats);
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
    fn sessions_key_by_interned_name() {
        // The session map is keyed by (CallerId, Arc<str>) cloned from
        // the spec's interned service names — so a case-insensitive
        // spelling (the VHDL-caller path) resolves to the SAME session
        // instead of forking a duplicate keyed by the caller's string.
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
        // (session keys re-intern against its name table) and replay:
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
        assert_eq!(twin.stats(), &end_stats);

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
