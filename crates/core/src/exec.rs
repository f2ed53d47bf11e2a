//! The FSM interpreter: one activation = actions + at most one transition.
//!
//! This is the single execution semantics shared by co-simulation (SW
//! modules, HW processes, communication-unit controllers and services) and
//! used as the golden reference that co-synthesis artifacts (MC16 binaries,
//! RTL netlists) are checked against.

use crate::expr::{EvalError, Expr, ReadEnv};
use crate::fsm::Fsm;
use crate::ids::{PortId, StateId, VarId};
use crate::stmt::{ServiceCall, Stmt};
use crate::value::Value;

/// Result of activating a communication-unit service for one step.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceOutcome {
    /// `true` once the service protocol has completed this activation.
    pub done: bool,
    /// Return value, present only when `done` and the service produces
    /// one.
    pub result: Option<Value>,
}

impl ServiceOutcome {
    /// A still-in-progress outcome.
    #[must_use]
    pub fn pending() -> Self {
        ServiceOutcome {
            done: false,
            result: None,
        }
    }

    /// A completed outcome without a return value.
    #[must_use]
    pub fn done() -> Self {
        ServiceOutcome {
            done: true,
            result: None,
        }
    }

    /// A completed outcome carrying a return value.
    #[must_use]
    pub fn done_with(v: Value) -> Self {
        ServiceOutcome {
            done: true,
            result: Some(v),
        }
    }
}

/// Full read/write execution environment for FSM activation.
///
/// Implementations bridge the IR to a concrete world: the co-simulation
/// kernel's signals, a unit's internal wires, a test fixture's hash maps.
pub trait Env: ReadEnv {
    /// Writes a variable (immediate).
    ///
    /// # Errors
    ///
    /// Returns an error if the id is unknown.
    fn write_var(&mut self, v: VarId, value: Value) -> Result<(), EvalError>;

    /// Drives a port/wire. Under the delta-cycle kernel this schedules the
    /// value for the next delta; simple environments apply it immediately.
    ///
    /// # Errors
    ///
    /// Returns an error if the id is unknown.
    fn drive_port(&mut self, p: PortId, value: Value) -> Result<(), EvalError>;

    /// Activates one step of a bound service with evaluated arguments.
    ///
    /// # Errors
    ///
    /// Returns [`EvalError::Service`] when the binding or service is
    /// unknown, or the arity mismatches.
    fn call_service(
        &mut self,
        call: &ServiceCall,
        args: &[Value],
    ) -> Result<ServiceOutcome, EvalError>;

    /// Receives a diagnostic trace record. The label is the
    /// [`Stmt::Trace`] statement's own `Arc<str>`, so an environment
    /// that stores records can keep it by refcount. Default: ignored.
    fn trace(&mut self, _label: &std::sync::Arc<str>, _values: &[Value]) {}
}

/// Side effects of executing statements ([`exec_stmt`]), accumulated
/// across one activation: how many service calls ran and how many of
/// them were left pending.
///
/// The struct doubles as a reusable scratch arena: a scheduler that
/// keeps one `StepEffects` and steps through [`FsmExec::step_with`]
/// pays zero steady-state heap allocation for call arguments and trace
/// values — [`exec_stmt`] evaluates them into reusable buffers, and
/// [`StepEffects::recycle`] clears the effects while keeping the
/// buffers. Equality ignores the buffers.
#[derive(Debug, Clone, Default)]
pub struct StepEffects {
    /// Number of service-call statements executed.
    pub service_calls: u32,
    /// How many of those calls returned a pending outcome. Schedulers
    /// use it to *park* a blocked FSM: when every call of an activation
    /// is pending, the FSM can wait on the bound units' completion wires
    /// instead of re-activating every cycle to watch the calls spin.
    pub pending_calls: u32,
    /// Reusable evaluation buffer for call arguments. One suffices:
    /// argument expressions only read the environment, so no call can
    /// start while another call's arguments are being evaluated.
    args: Vec<Value>,
    /// Reusable evaluation buffer for trace-statement values, cleared
    /// (not dropped) between trace statements.
    trace_vals: Vec<Value>,
}

impl PartialEq for StepEffects {
    fn eq(&self, other: &Self) -> bool {
        self.service_calls == other.service_calls && self.pending_calls == other.pending_calls
    }
}

impl StepEffects {
    /// Clears the activation-visible effects while *keeping* the heap
    /// buffers, so the next activation through [`FsmExec::step_with`]
    /// reuses them instead of allocating.
    pub fn recycle(&mut self) {
        self.service_calls = 0;
        self.pending_calls = 0;
    }
}

/// The state-transition outcome of one activation through
/// [`FsmExec::step_with`] — the [`StepReport`] minus the effects, which
/// stay in the caller's [`StepEffects`] arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepMeta {
    /// State at the start of the activation.
    pub from: StateId,
    /// State after the activation.
    pub to: StateId,
    /// Whether a transition fired (self-loop transitions count).
    pub transitioned: bool,
}

/// Report of a single FSM activation.
#[derive(Debug, Clone, PartialEq)]
pub struct StepReport {
    /// State at the start of the activation.
    pub from: StateId,
    /// State after the activation.
    pub to: StateId,
    /// Whether a transition fired (`from != to` is *not* equivalent:
    /// self-loop transitions count as fired).
    pub transitioned: bool,
    /// Number of service-call statements executed during the activation.
    pub service_calls: u32,
    /// How many of those calls were left pending — nonzero when the FSM
    /// is blocked on a unit.
    pub pending_calls: u32,
}

/// Execution state of one FSM instance: just the current state, as all
/// data lives in the environment.
///
/// # Examples
///
/// ```
/// use cosma_core::{FsmBuilder, FsmExec, Expr, Stmt, MapEnv, Value, Type};
/// use cosma_core::ids::VarId;
///
/// let mut b = FsmBuilder::new();
/// let s0 = b.state("S0");
/// let s1 = b.state("S1");
/// let x = VarId::new(0);
/// b.actions(s0, vec![Stmt::assign(x, Expr::var(x).add(Expr::int(1)))]);
/// b.transition(s0, Some(Expr::var(x).ge(Expr::int(3))), s1);
/// b.initial(s0);
/// let fsm = b.build()?;
///
/// let mut env = MapEnv::new();
/// env.add_var(Type::INT16, Value::Int(0));
/// let mut exec = FsmExec::new(&fsm);
/// for _ in 0..3 {
///     exec.step(&fsm, &mut env)?;
/// }
/// assert_eq!(exec.current(), s1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FsmExec {
    current: StateId,
    steps: u64,
}

impl FsmExec {
    /// Creates an executor positioned at the FSM's initial state.
    #[must_use]
    pub fn new(fsm: &Fsm) -> Self {
        FsmExec {
            current: fsm.initial(),
            steps: 0,
        }
    }

    /// The current state.
    #[must_use]
    pub fn current(&self) -> StateId {
        self.current
    }

    /// Total activations performed.
    #[must_use]
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Forces the executor into a given state (used by reset logic).
    pub fn jump_to(&mut self, state: StateId) {
        self.current = state;
    }

    /// Performs one activation: execute the current state's actions, then
    /// take the first enabled transition (if any).
    ///
    /// # Errors
    ///
    /// Propagates [`EvalError`] from expression evaluation, statement
    /// execution, or an `X`/`Z` guard ([`EvalError::UnknownCondition`]).
    pub fn step(&mut self, fsm: &Fsm, env: &mut dyn Env) -> Result<StepReport, EvalError> {
        let mut effects = StepEffects::default();
        let meta = self.step_with(fsm, env, &mut effects)?;
        Ok(StepReport {
            from: meta.from,
            to: meta.to,
            transitioned: meta.transitioned,
            service_calls: effects.service_calls,
            pending_calls: effects.pending_calls,
        })
    }

    /// Allocation-free variant of [`FsmExec::step`]: accumulates the
    /// effects into a caller-owned [`StepEffects`] arena instead of
    /// building a fresh [`StepReport`]. A scheduler that recycles the
    /// arena between activations ([`StepEffects::recycle`]) pays no
    /// steady-state heap allocation for the effects bookkeeping.
    ///
    /// The effects are *appended to* — pass a recycled (or fresh) arena.
    ///
    /// # Errors
    ///
    /// Same as [`FsmExec::step`].
    pub fn step_with(
        &mut self,
        fsm: &Fsm,
        env: &mut dyn Env,
        effects: &mut StepEffects,
    ) -> Result<StepMeta, EvalError> {
        let from = self.current;
        let state = fsm.state(from);
        for stmt in &state.actions {
            exec_stmt(stmt, env, effects)?;
        }
        let mut to = from;
        let mut transitioned = false;
        for t in &state.transitions {
            let enabled = match &t.guard {
                None => true,
                Some(g) => g.eval(env)?.truthy().ok_or(EvalError::UnknownCondition)?,
            };
            if enabled {
                for stmt in &t.actions {
                    exec_stmt(stmt, env, effects)?;
                }
                to = t.target;
                transitioned = true;
                break;
            }
        }
        self.current = to;
        self.steps += 1;
        Ok(StepMeta {
            from,
            to,
            transitioned,
        })
    }

    /// Runs activations until `predicate` returns `true` or `max_steps`
    /// activations have been performed. Returns the number of activations
    /// executed, or `None` if the predicate never held.
    ///
    /// # Errors
    ///
    /// Propagates evaluation errors from [`FsmExec::step`].
    pub fn run_until(
        &mut self,
        fsm: &Fsm,
        env: &mut dyn Env,
        max_steps: u64,
        mut predicate: impl FnMut(&Self, &dyn Env) -> bool,
    ) -> Result<Option<u64>, EvalError> {
        for i in 0..max_steps {
            if predicate(self, env) {
                return Ok(Some(i));
            }
            self.step(fsm, env)?;
        }
        Ok(if predicate(self, env) {
            Some(max_steps)
        } else {
            None
        })
    }
}

/// Executes a single statement against the environment, accumulating
/// call and pending-call counts into `effects`.
///
/// # Errors
///
/// Propagates evaluation errors; condition values must be defined.
pub fn exec_stmt(
    stmt: &Stmt,
    env: &mut dyn Env,
    effects: &mut StepEffects,
) -> Result<(), EvalError> {
    match stmt {
        Stmt::Assign(v, e) => {
            let value = e.eval(env)?;
            env.write_var(*v, value)
        }
        Stmt::Drive(p, e) => {
            let value = e.eval(env)?;
            env.drive_port(*p, value)
        }
        Stmt::If {
            cond,
            then_body,
            else_body,
        } => {
            let c = cond
                .eval(env)?
                .truthy()
                .ok_or(EvalError::UnknownCondition)?;
            let body = if c { then_body } else { else_body };
            for s in body {
                exec_stmt(s, env, effects)?;
            }
            Ok(())
        }
        Stmt::Call(call) => {
            effects.service_calls += 1;
            effects.args.clear();
            for a in &call.args {
                let v = a.eval(env)?;
                effects.args.push(v);
            }
            let outcome = env.call_service(call, &effects.args)?;
            if let Some(done_var) = call.done {
                env.write_var(done_var, Value::Bool(outcome.done))?;
            }
            if outcome.done {
                if let (Some(result_var), Some(v)) = (call.result, outcome.result.clone()) {
                    env.write_var(result_var, v)?;
                }
            } else {
                effects.pending_calls += 1;
            }
            Ok(())
        }
        Stmt::Trace(label, exprs) => {
            // The value buffer is reusable scratch: cleared, refilled,
            // and handed to the environment as a slice. Environments
            // that store trace records copy what they keep.
            effects.trace_vals.clear();
            for e in exprs {
                let v = e.eval(env)?;
                effects.trace_vals.push(v);
            }
            env.trace(label, &effects.trace_vals);
            Ok(())
        }
    }
}

/// A simple self-contained environment backed by vectors — handy for unit
/// tests and for interpreting FSMs that do not touch communication units.
#[derive(Debug, Clone, Default)]
pub struct MapEnv {
    vars: Vec<(crate::value::Type, Value)>,
    ports: Vec<(crate::value::Type, Value)>,
    args: Vec<Value>,
    traces: Vec<(String, Vec<Value>)>,
}

impl MapEnv {
    /// Creates an empty environment.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a variable with an initial value; ids are assigned in
    /// registration order.
    pub fn add_var(&mut self, ty: crate::value::Type, init: Value) -> VarId {
        let id = VarId::new(self.vars.len() as u32);
        self.vars.push((ty, init));
        id
    }

    /// Registers a port with an initial value.
    pub fn add_port(&mut self, ty: crate::value::Type, init: Value) -> PortId {
        let id = PortId::new(self.ports.len() as u32);
        self.ports.push((ty, init));
        id
    }

    /// Sets the service-argument vector visible to `Expr::Arg`.
    pub fn set_args(&mut self, args: Vec<Value>) {
        self.args = args;
    }

    /// Current value of a variable.
    ///
    /// # Panics
    ///
    /// Panics if the id was not registered.
    #[must_use]
    pub fn var(&self, v: VarId) -> &Value {
        &self.vars[v.index()].1
    }

    /// Current value of a port.
    ///
    /// # Panics
    ///
    /// Panics if the id was not registered.
    #[must_use]
    pub fn port(&self, p: PortId) -> &Value {
        &self.ports[p.index()].1
    }

    /// Directly sets a port value (simulating an external driver).
    ///
    /// # Panics
    ///
    /// Panics if the id was not registered.
    pub fn set_port(&mut self, p: PortId, v: Value) {
        let ty = self.ports[p.index()].0.clone();
        self.ports[p.index()].1 = ty.clamp(v);
    }

    /// Directly sets a variable value.
    ///
    /// # Panics
    ///
    /// Panics if the id was not registered.
    pub fn set_var(&mut self, id: VarId, v: Value) {
        let ty = self.vars[id.index()].0.clone();
        self.vars[id.index()].1 = ty.clamp(v);
    }

    /// Trace records accumulated so far.
    #[must_use]
    pub fn traces(&self) -> &[(String, Vec<Value>)] {
        &self.traces
    }
}

impl ReadEnv for MapEnv {
    fn read_var(&self, v: VarId) -> Option<&Value> {
        self.vars.get(v.index()).map(|(_, v)| v)
    }
    fn read_port(&self, p: PortId) -> Option<&Value> {
        self.ports.get(p.index()).map(|(_, v)| v)
    }
    fn read_arg(&self, i: u32) -> Option<&Value> {
        self.args.get(i as usize)
    }
}

impl Env for MapEnv {
    fn write_var(&mut self, v: VarId, value: Value) -> Result<(), EvalError> {
        let slot = self
            .vars
            .get_mut(v.index())
            .ok_or(EvalError::NoSuchVar(v))?;
        slot.1 = slot.0.clamp(value);
        Ok(())
    }
    fn drive_port(&mut self, p: PortId, value: Value) -> Result<(), EvalError> {
        let slot = self
            .ports
            .get_mut(p.index())
            .ok_or(EvalError::NoSuchPort(p))?;
        slot.1 = slot.0.clamp(value);
        Ok(())
    }
    fn call_service(
        &mut self,
        call: &ServiceCall,
        _args: &[Value],
    ) -> Result<ServiceOutcome, EvalError> {
        Err(EvalError::Service(format!(
            "MapEnv has no bound units (call to {})",
            call.service
        )))
    }
    fn trace(&mut self, label: &std::sync::Arc<str>, values: &[Value]) {
        self.traces.push((label.to_string(), values.to_vec()));
    }
}

/// Convenience: evaluate an expression needing only constants (no vars,
/// ports or args), e.g. for synthesis-time constant folding.
///
/// # Errors
///
/// Returns an error if the expression references any environment state.
pub fn eval_const(e: &Expr) -> Result<Value, EvalError> {
    struct NoEnv;
    impl ReadEnv for NoEnv {
        fn read_var(&self, _v: VarId) -> Option<&Value> {
            None
        }
        fn read_port(&self, _p: PortId) -> Option<&Value> {
            None
        }
    }
    e.eval(&NoEnv)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bit::Bit;
    use crate::fsm::FsmBuilder;
    use crate::value::Type;

    /// Builds the PUT protocol FSM of the paper's Figure 3 and drives it
    /// through a full handshake against a manually-toggled B_FULL flag.
    #[test]
    fn figure3_put_protocol_shape() {
        let mut env = MapEnv::new();
        let b_full = env.add_port(Type::Bit, Value::Bit(Bit::Zero));
        let datain = env.add_port(Type::INT16, Value::Int(0));
        let done = env.add_var(Type::Bool, Value::Bool(false));
        env.set_args(vec![Value::Int(42)]);

        let mut b = FsmBuilder::new();
        let init = b.state("INIT");
        let wait_b_full = b.state("WAIT_B_FULL");
        let data_rdy = b.state("DATA_RDY");
        let idle = b.state("IDLE");
        // INIT: if B_FULL='1' -> WAIT_B_FULL else drive data, -> DATA_RDY
        b.transition(
            init,
            Some(Expr::port(b_full).eq(Expr::bit(Bit::One))),
            wait_b_full,
        );
        b.transition_with(
            init,
            None,
            vec![Stmt::drive(datain, Expr::arg(0))],
            data_rdy,
        );
        // WAIT_B_FULL: if B_FULL='0' -> INIT
        b.transition(
            wait_b_full,
            Some(Expr::port(b_full).eq(Expr::bit(Bit::Zero))),
            init,
        );
        // DATA_RDY -> IDLE (simplified tail of the protocol)
        b.transition(data_rdy, None, idle);
        b.actions(idle, vec![Stmt::assign(done, Expr::bool(true))]);
        b.transition(idle, None, init);
        b.initial(init);
        let fsm = b.build().unwrap();

        let mut exec = FsmExec::new(&fsm);
        // Buffer initially full: stall in WAIT_B_FULL.
        env.set_port(b_full, Value::Bit(Bit::One));
        exec.step(&fsm, &mut env).unwrap();
        assert_eq!(fsm.state(exec.current()).name(), "WAIT_B_FULL");
        exec.step(&fsm, &mut env).unwrap();
        assert_eq!(
            fsm.state(exec.current()).name(),
            "WAIT_B_FULL",
            "stays while full"
        );
        // Buffer drains.
        env.set_port(b_full, Value::Bit(Bit::Zero));
        exec.step(&fsm, &mut env).unwrap(); // -> INIT
        exec.step(&fsm, &mut env).unwrap(); // -> DATA_RDY, drives data
        assert_eq!(env.port(datain), &Value::Int(42));
        exec.step(&fsm, &mut env).unwrap(); // -> IDLE
        exec.step(&fsm, &mut env).unwrap(); // IDLE actions set done, -> INIT
        assert_eq!(env.var(done), &Value::Bool(true));
        assert_eq!(exec.steps(), 6);
    }

    #[test]
    fn one_transition_per_activation() {
        // A chain A -> B -> C with unconditional transitions must take
        // exactly one hop per step (the paper's synchronization rule).
        let mut b = FsmBuilder::new();
        let a = b.state("A");
        let s2 = b.state("B");
        let c = b.state("C");
        b.transition(a, None, s2);
        b.transition(s2, None, c);
        b.transition(c, None, c);
        b.initial(a);
        let fsm = b.build().unwrap();
        let mut env = MapEnv::new();
        let mut exec = FsmExec::new(&fsm);
        let r = exec.step(&fsm, &mut env).unwrap();
        assert_eq!((r.from, r.to), (a, s2));
        let r = exec.step(&fsm, &mut env).unwrap();
        assert_eq!((r.from, r.to), (s2, c));
    }

    #[test]
    fn no_enabled_transition_stays() {
        let mut b = FsmBuilder::new();
        let a = b.state("A");
        let s2 = b.state("B");
        b.transition(a, Some(Expr::bool(false)), s2);
        b.initial(a);
        let fsm = b.build().unwrap();
        let mut env = MapEnv::new();
        let mut exec = FsmExec::new(&fsm);
        let r = exec.step(&fsm, &mut env).unwrap();
        assert!(!r.transitioned);
        assert_eq!(exec.current(), a);
    }

    #[test]
    fn self_loop_counts_as_transition() {
        let mut b = FsmBuilder::new();
        let a = b.state("A");
        b.transition(a, None, a);
        b.initial(a);
        let fsm = b.build().unwrap();
        let mut env = MapEnv::new();
        let mut exec = FsmExec::new(&fsm);
        let r = exec.step(&fsm, &mut env).unwrap();
        assert!(r.transitioned);
        assert_eq!(r.from, r.to);
    }

    #[test]
    fn unknown_guard_is_error() {
        let mut env = MapEnv::new();
        let p = env.add_port(Type::Bit, Value::Bit(Bit::X));
        let mut b = FsmBuilder::new();
        let a = b.state("A");
        b.transition(a, Some(Expr::port(p)), a);
        b.initial(a);
        let fsm = b.build().unwrap();
        let mut exec = FsmExec::new(&fsm);
        assert_eq!(
            exec.step(&fsm, &mut env).unwrap_err(),
            EvalError::UnknownCondition
        );
    }

    #[test]
    fn transition_priority_in_order() {
        let mut env = MapEnv::new();
        let x = env.add_var(Type::INT16, Value::Int(5));
        let mut b = FsmBuilder::new();
        let a = b.state("A");
        let hi = b.state("HI");
        let lo = b.state("LO");
        b.transition(a, Some(Expr::var(x).gt(Expr::int(0))), hi);
        b.transition(a, Some(Expr::var(x).gt(Expr::int(3))), lo); // also true, but later
        b.initial(a);
        let fsm = b.build().unwrap();
        let mut exec = FsmExec::new(&fsm);
        exec.step(&fsm, &mut env).unwrap();
        assert_eq!(exec.current(), hi, "first enabled transition wins");
        let _ = lo;
    }

    #[test]
    fn run_until_detects_predicate() {
        let mut env = MapEnv::new();
        let x = env.add_var(Type::INT16, Value::Int(0));
        let mut b = FsmBuilder::new();
        let a = b.state("A");
        b.actions(a, vec![Stmt::assign(x, Expr::var(x).add(Expr::int(1)))]);
        b.transition(a, None, a);
        b.initial(a);
        let fsm = b.build().unwrap();
        let mut exec = FsmExec::new(&fsm);
        let n = exec
            .run_until(&fsm, &mut env, 100, |_, e| {
                e.read_var(x) == Some(&Value::Int(10))
            })
            .unwrap();
        assert_eq!(n, Some(10));
    }

    #[test]
    fn run_until_gives_none_on_budget_exhaustion() {
        let mut env = MapEnv::new();
        let mut b = FsmBuilder::new();
        let a = b.state("A");
        b.transition(a, None, a);
        b.initial(a);
        let fsm = b.build().unwrap();
        let mut exec = FsmExec::new(&fsm);
        let n = exec.run_until(&fsm, &mut env, 5, |_, _| false).unwrap();
        assert_eq!(n, None);
    }

    #[test]
    fn trace_statement_records() {
        let mut env = MapEnv::new();
        let x = env.add_var(Type::INT16, Value::Int(9));
        let mut effects = StepEffects::default();
        exec_stmt(
            &Stmt::Trace("pos".into(), vec![Expr::var(x)]),
            &mut env,
            &mut effects,
        )
        .unwrap();
        assert_eq!(env.traces(), &[("pos".to_string(), vec![Value::Int(9)])]);
    }

    #[test]
    fn call_in_map_env_is_error() {
        let mut env = MapEnv::new();
        let mut effects = StepEffects::default();
        let stmt = Stmt::Call(crate::stmt::ServiceCall {
            binding: crate::ids::BindingId::new(0),
            service: "put".into(),
            args: vec![],
            done: None,
            result: None,
        });
        assert!(matches!(
            exec_stmt(&stmt, &mut env, &mut effects),
            Err(EvalError::Service(_))
        ));
        assert_eq!(effects.service_calls, 1);
    }

    #[test]
    fn pending_calls_are_reported() {
        // An environment whose service always answers "pending": the
        // step report must count the blocked call so a scheduler can
        // park the FSM on the unit's completion wires.
        struct PendingEnv(MapEnv);
        impl ReadEnv for PendingEnv {
            fn read_var(&self, v: VarId) -> Option<&Value> {
                self.0.read_var(v)
            }
            fn read_port(&self, p: PortId) -> Option<&Value> {
                self.0.read_port(p)
            }
        }
        impl Env for PendingEnv {
            fn write_var(&mut self, v: VarId, value: Value) -> Result<(), EvalError> {
                self.0.write_var(v, value)
            }
            fn drive_port(&mut self, p: PortId, value: Value) -> Result<(), EvalError> {
                self.0.drive_port(p, value)
            }
            fn call_service(
                &mut self,
                _call: &ServiceCall,
                _args: &[Value],
            ) -> Result<ServiceOutcome, EvalError> {
                Ok(ServiceOutcome::pending())
            }
        }

        let mut env = PendingEnv(MapEnv::new());
        let done = env.0.add_var(Type::Bool, Value::Bool(false));
        let mut b = FsmBuilder::new();
        let get = b.state("GET");
        let end = b.state("END");
        b.actions(
            get,
            vec![Stmt::Call(crate::stmt::ServiceCall {
                binding: crate::ids::BindingId::new(3),
                service: "get".into(),
                args: vec![],
                done: Some(done),
                result: None,
            })],
        );
        b.transition(get, Some(Expr::var(done)), end);
        b.initial(get);
        let fsm = b.build().unwrap();
        let mut exec = FsmExec::new(&fsm);
        let r = exec.step(&fsm, &mut env).unwrap();
        assert!(!r.transitioned);
        assert_eq!(r.service_calls, 1);
        assert_eq!(r.pending_calls, 1);
        // A completing activation reports no pending calls.
        let mut b = FsmBuilder::new();
        let s = b.state("S");
        b.transition(s, None, s);
        b.initial(s);
        let fsm = b.build().unwrap();
        let mut exec = FsmExec::new(&fsm);
        let r = exec.step(&fsm, &mut env).unwrap();
        assert_eq!(r.pending_calls, 0);
    }

    #[test]
    fn call_arguments_reach_the_environment_evaluated() {
        // An environment that records the arguments of every call and
        // answers "done with 7": each call must see exactly its own
        // evaluated arguments, even though the effects arena reuses one
        // argument buffer across calls.
        struct RecordingEnv {
            inner: MapEnv,
            seen: Vec<Vec<Value>>,
        }
        impl ReadEnv for RecordingEnv {
            fn read_var(&self, v: VarId) -> Option<&Value> {
                self.inner.read_var(v)
            }
            fn read_port(&self, p: PortId) -> Option<&Value> {
                self.inner.read_port(p)
            }
        }
        impl Env for RecordingEnv {
            fn write_var(&mut self, v: VarId, value: Value) -> Result<(), EvalError> {
                self.inner.write_var(v, value)
            }
            fn drive_port(&mut self, p: PortId, value: Value) -> Result<(), EvalError> {
                self.inner.drive_port(p, value)
            }
            fn call_service(
                &mut self,
                _call: &ServiceCall,
                args: &[Value],
            ) -> Result<ServiceOutcome, EvalError> {
                self.seen.push(args.to_vec());
                Ok(ServiceOutcome::done_with(Value::Int(7)))
            }
        }

        let call = |args: Vec<Expr>| {
            Stmt::Call(crate::stmt::ServiceCall {
                binding: crate::ids::BindingId::new(1),
                service: "put".into(),
                args,
                done: None,
                result: None,
            })
        };
        let mut env = RecordingEnv {
            inner: MapEnv::new(),
            seen: vec![],
        };
        let mut effects = StepEffects::default();
        for stmt in [
            call(vec![Expr::int(2).add(Expr::int(3)), Expr::int(1)]),
            call(vec![]),
            call(vec![Expr::int(4)]),
        ] {
            exec_stmt(&stmt, &mut env, &mut effects).unwrap();
        }
        assert_eq!(
            env.seen,
            vec![
                vec![Value::Int(5), Value::Int(1)],
                vec![],
                vec![Value::Int(4)]
            ]
        );
        assert_eq!(effects.service_calls, 3);
        assert_eq!(effects.pending_calls, 0);
    }

    #[test]
    fn eval_const_folds() {
        assert_eq!(
            eval_const(&Expr::int(2).add(Expr::int(3))).unwrap(),
            Value::Int(5)
        );
        assert!(eval_const(&Expr::var(VarId::new(0))).is_err());
    }

    #[test]
    fn typed_writes_clamp() {
        let mut env = MapEnv::new();
        let v = env.add_var(Type::int(4, true), Value::Int(0));
        env.write_var(v, Value::Int(9)).unwrap();
        assert_eq!(env.var(v), &Value::Int(-7));
    }
}
