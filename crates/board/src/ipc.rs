//! The software-only target platform: modules scheduled in-process,
//! communicating through native units (the paper's "communication
//! procedure calls expanded into UNIX IPC system calls").
//!
//! On this platform there is no synthesis step for the modules — the C
//! code runs on the host OS; our executable equivalent activates the
//! module FSMs directly, with each service call dispatched to a native
//! unit (mailbox, FIFO, shared memory). Retargeting the unchanged system
//! here demonstrates the paper's multi-platform claim.

use cosma_comm::{CallerId, StandaloneUnit};
use cosma_core::ids::{PortId, VarId};
use cosma_core::{
    Env, EvalError, FsmExec, Module, Port, ReadEnv, ServiceCall, ServiceOutcome, Type, Value,
};
use cosma_cosim::TraceLog;
use std::fmt;
use std::sync::Arc;

/// Identifies a module on the platform.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct IpcModuleId(usize);

/// Identifies a unit on the platform.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct IpcUnitId(usize);

struct IpcModule {
    name: String,
    module: Module,
    exec: FsmExec,
    vars: Vec<Value>,
    var_tys: Vec<Type>,
    ports: Vec<Value>,
    /// Unit index per binding.
    bindings: Vec<usize>,
}

/// Platform errors.
#[derive(Debug, Clone, PartialEq)]
pub enum IpcError {
    /// Module setup problems.
    Setup(String),
    /// Evaluation error during a run.
    Runtime(String),
}

impl fmt::Display for IpcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IpcError::Setup(m) | IpcError::Runtime(m) => write!(f, "{m}"),
        }
    }
}

impl std::error::Error for IpcError {}

struct IpcEnv<'a> {
    vars: &'a mut [Value],
    var_tys: &'a [Type],
    ports: &'a mut [Value],
    port_decls: &'a [Port],
    units: &'a mut [StandaloneUnit],
    bindings: &'a [usize],
    caller_base: u64,
    trace: &'a mut TraceLog,
    source: &'a str,
    now: u64,
}

impl ReadEnv for IpcEnv<'_> {
    fn read_var(&self, v: VarId) -> Option<&Value> {
        self.vars.get(v.index())
    }
    fn read_port(&self, p: PortId) -> Option<&Value> {
        self.ports.get(p.index())
    }
}

impl Env for IpcEnv<'_> {
    fn write_var(&mut self, v: VarId, value: Value) -> Result<(), EvalError> {
        let ty = self.var_tys.get(v.index()).ok_or(EvalError::NoSuchVar(v))?;
        let slot = self
            .vars
            .get_mut(v.index())
            .ok_or(EvalError::NoSuchVar(v))?;
        *slot = ty.clamp(value);
        Ok(())
    }
    /// Stores `value` clamped to the port's type, as a kernel signal
    /// would ([`Type::admit`]); a value the type does not admit is
    /// refused, naming the port as `<module>.<PORT>`.
    fn drive_port(&mut self, p: PortId, value: Value) -> Result<(), EvalError> {
        let (Some(decl), Some(slot)) = (
            self.port_decls.get(p.index()),
            self.ports.get_mut(p.index()),
        ) else {
            return Err(EvalError::NoSuchPort(p));
        };
        let module = self.source;
        *slot = decl.ty().admit(value).map_err(|v| {
            EvalError::incompatible_drive(
                &format_args!("port {module}.{}", decl.name()),
                decl.ty(),
                &v,
            )
        })?;
        Ok(())
    }
    fn call_service(
        &mut self,
        call: &ServiceCall,
        args: &[Value],
    ) -> Result<ServiceOutcome, EvalError> {
        let ui = *self
            .bindings
            .get(call.binding.index())
            .ok_or_else(|| EvalError::Service(format!("binding {} unbound", call.binding)))?;
        let caller = CallerId(self.caller_base * 256 + call.binding.raw() as u64);
        let unit = self.units.get_mut(ui).ok_or_else(|| {
            EvalError::Service(format!("binding {} resolved to missing unit", call.binding))
        })?;
        unit.call(caller, &call.service, args)
    }
    fn trace(&mut self, label: &Arc<str>, values: &[Value]) {
        self.trace.record(self.now, self.source, &**label, values);
    }
}

/// The software-only platform: round-robin module activation over native
/// units.
///
/// # Examples
///
/// See `examples/multi_platform.rs`, which retargets the motor system
/// here unchanged.
pub struct IpcPlatform {
    modules: Vec<IpcModule>,
    units: Vec<StandaloneUnit>,
    trace: TraceLog,
    steps: u64,
}

impl fmt::Debug for IpcPlatform {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("IpcPlatform")
            .field("modules", &self.modules.len())
            .field("units", &self.units.len())
            .finish_non_exhaustive()
    }
}

impl Default for IpcPlatform {
    fn default() -> Self {
        Self::new()
    }
}

impl IpcPlatform {
    /// Creates an empty platform.
    #[must_use]
    pub fn new() -> Self {
        IpcPlatform {
            modules: vec![],
            units: vec![],
            trace: TraceLog::new(),
            steps: 0,
        }
    }

    /// Installs a communication unit (typically a native mailbox/FIFO;
    /// FSM units also work).
    pub fn add_unit(&mut self, unit: StandaloneUnit) -> IpcUnitId {
        self.units.push(unit);
        IpcUnitId(self.units.len() - 1)
    }

    /// Schedules a module, resolving its bindings to installed units.
    ///
    /// # Errors
    ///
    /// Returns [`IpcError::Setup`] if a binding name is missing.
    pub fn add_module(
        &mut self,
        module: &Module,
        bindings: &[(&str, IpcUnitId)],
    ) -> Result<IpcModuleId, IpcError> {
        let mut resolved = vec![usize::MAX; module.bindings().len()];
        for (name, uid) in bindings {
            let Some(bid) = module.binding_id(name) else {
                return Err(IpcError::Setup(format!(
                    "module {} has no binding {name}",
                    module.name()
                )));
            };
            resolved[bid.index()] = uid.0;
        }
        if let Some(i) = resolved.iter().position(|&u| u == usize::MAX) {
            return Err(IpcError::Setup(format!(
                "module {}: binding {} unbound",
                module.name(),
                module.bindings()[i].name()
            )));
        }
        let id = IpcModuleId(self.modules.len());
        self.modules.push(IpcModule {
            name: module.name().to_string(),
            exec: FsmExec::new(module.fsm()),
            vars: module.vars().iter().map(|v| v.init().clone()).collect(),
            var_tys: module.vars().iter().map(|v| v.ty().clone()).collect(),
            ports: module
                .ports()
                .iter()
                .map(|p| p.ty().default_value())
                .collect(),
            bindings: resolved,
            module: module.clone(),
        });
        Ok(id)
    }

    /// One scheduler round: every module is activated once (one FSM
    /// transition), then every unit performs its background step.
    ///
    /// # Errors
    ///
    /// Returns [`IpcError::Runtime`] on evaluation errors.
    pub fn step(&mut self) -> Result<(), IpcError> {
        self.steps += 1;
        for (mi, m) in self.modules.iter_mut().enumerate() {
            let mut env = IpcEnv {
                vars: &mut m.vars,
                var_tys: &m.var_tys,
                ports: &mut m.ports,
                port_decls: m.module.ports(),
                units: &mut self.units,
                bindings: &m.bindings,
                caller_base: mi as u64,
                trace: &mut self.trace,
                source: &m.name,
                now: self.steps,
            };
            m.exec
                .step(m.module.fsm(), &mut env)
                .map_err(|e| IpcError::Runtime(format!("module {}: {e}", m.name)))?;
        }
        for u in &mut self.units {
            u.step()
                .map_err(|e| IpcError::Runtime(format!("unit {}: {e}", u.name())))?;
        }
        Ok(())
    }

    /// Runs `n` scheduler rounds.
    ///
    /// # Errors
    ///
    /// Propagates the first runtime error.
    pub fn run(&mut self, n: u64) -> Result<(), IpcError> {
        for _ in 0..n {
            self.step()?;
        }
        Ok(())
    }

    /// Current FSM state name of a module.
    #[must_use]
    pub fn module_state(&self, id: IpcModuleId) -> &str {
        let m = &self.modules[id.0];
        m.module.fsm().state(m.exec.current()).name()
    }

    /// Current value of a module variable.
    #[must_use]
    pub fn module_var(&self, id: IpcModuleId, var: &str) -> Option<Value> {
        let m = &self.modules[id.0];
        let vid = m.module.var_id(var)?;
        m.vars.get(vid.index()).cloned()
    }

    /// Snapshot of the trace log.
    #[must_use]
    pub fn trace_log(&self) -> TraceLog {
        self.trace.clone()
    }

    /// Access to an installed unit (stats).
    #[must_use]
    pub fn unit(&self, id: IpcUnitId) -> &StandaloneUnit {
        &self.units[id.0]
    }

    /// Scheduler rounds executed.
    #[must_use]
    pub fn steps(&self) -> u64 {
        self.steps
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cosma_comm::{FifoChannel, Mailbox};
    use cosma_core::{Expr, ModuleBuilder, ModuleKind, Stmt};

    fn producer(service: &str, n: i64) -> Module {
        let mut b = ModuleBuilder::new("producer", ModuleKind::Software);
        let done = b.var("D", Type::Bool, Value::Bool(false));
        let i = b.var("I", Type::INT16, Value::Int(0));
        let bid = b.binding("chan", "ipc");
        let s = b.state("SEND");
        let e = b.state("END");
        b.actions(
            s,
            vec![Stmt::Call(ServiceCall {
                binding: bid,
                service: service.into(),
                args: vec![Expr::var(i).mul(Expr::int(10))],
                done: Some(done),
                result: None,
            })],
        );
        b.transition_with(
            s,
            Some(Expr::var(done).and(Expr::var(i).ge(Expr::int(n - 1)))),
            vec![],
            e,
        );
        b.transition_with(
            s,
            Some(Expr::var(done)),
            vec![Stmt::assign(i, Expr::var(i).add(Expr::int(1)))],
            s,
        );
        b.transition(e, None, e);
        b.initial(s);
        b.build().unwrap()
    }

    fn consumer(service: &str, n: i64) -> Module {
        let mut b = ModuleBuilder::new("consumer", ModuleKind::Software);
        let done = b.var("D", Type::Bool, Value::Bool(false));
        let got = b.var("GOT", Type::INT16, Value::Int(0));
        let sum = b.var("SUM", Type::INT16, Value::Int(0));
        let cnt = b.var("CNT", Type::INT16, Value::Int(0));
        let bid = b.binding("chan", "ipc");
        let s = b.state("RECV");
        let e = b.state("END");
        b.actions(
            s,
            vec![Stmt::Call(ServiceCall {
                binding: bid,
                service: service.into(),
                args: vec![],
                done: Some(done),
                result: Some(got),
            })],
        );
        b.transition_with(
            s,
            Some(Expr::var(done).and(Expr::var(cnt).ge(Expr::int(n - 1)))),
            vec![Stmt::assign(sum, Expr::var(sum).add(Expr::var(got)))],
            e,
        );
        b.transition_with(
            s,
            Some(Expr::var(done)),
            vec![
                Stmt::assign(sum, Expr::var(sum).add(Expr::var(got))),
                Stmt::assign(cnt, Expr::var(cnt).add(Expr::int(1))),
            ],
            s,
        );
        b.transition(e, None, e);
        b.initial(s);
        b.build().unwrap()
    }

    #[test]
    fn fifo_pipeline_runs() {
        let mut plat = IpcPlatform::new();
        let ch = plat.add_unit(StandaloneUnit::from_native(Box::new(FifoChannel::new(
            "pipe", 4,
        ))));
        let p = plat
            .add_module(&producer("put", 4), &[("chan", ch)])
            .unwrap();
        let c = plat
            .add_module(&consumer("get", 4), &[("chan", ch)])
            .unwrap();
        plat.run(50).unwrap();
        assert_eq!(plat.module_state(p), "END");
        assert_eq!(plat.module_state(c), "END");
        // 0 + 10 + 20 + 30
        assert_eq!(plat.module_var(c, "SUM"), Some(Value::Int(60)));
    }

    #[test]
    fn vhdl_spelled_calls_reach_native_units() {
        // Upper-cased `PUT`/`GET` (the VHDL front-end's spelling) bind to
        // the FIFO's `put`/`get` and land on its canonical stats rows.
        let mut plat = IpcPlatform::new();
        let ch = plat.add_unit(StandaloneUnit::from_native(Box::new(FifoChannel::new(
            "pipe", 4,
        ))));
        plat.add_module(&producer("PUT", 4), &[("chan", ch)])
            .unwrap();
        let c = plat
            .add_module(&consumer("GET", 4), &[("chan", ch)])
            .unwrap();
        plat.run(50).unwrap();
        assert_eq!(plat.module_state(c), "END");
        assert_eq!(plat.module_var(c, "SUM"), Some(Value::Int(60)));
        assert_eq!(plat.unit(ch).stats().services["get"].completions, 4);
    }

    #[test]
    fn mailbox_bidirectional() {
        // A sends on send_a, B replies on send_b; both complete.
        let mut a = ModuleBuilder::new("a", ModuleKind::Software);
        let done = a.var("D", Type::Bool, Value::Bool(false));
        let got = a.var("GOT", Type::INT16, Value::Int(0));
        let bid = a.binding("mb", "ipc");
        let s1 = a.state("SEND");
        let s2 = a.state("RECV");
        let e = a.state("END");
        a.actions(
            s1,
            vec![Stmt::Call(ServiceCall {
                binding: bid,
                service: "send_a".into(),
                args: vec![Expr::int(5)],
                done: Some(done),
                result: None,
            })],
        );
        a.transition(s1, Some(Expr::var(done)), s2);
        a.actions(
            s2,
            vec![Stmt::Call(ServiceCall {
                binding: bid,
                service: "recv_a".into(),
                args: vec![],
                done: Some(done),
                result: Some(got),
            })],
        );
        a.transition(s2, Some(Expr::var(done)), e);
        a.transition(e, None, e);
        a.initial(s1);
        let a = a.build().unwrap();

        let mut b = ModuleBuilder::new("b", ModuleKind::Software);
        let done = b.var("D", Type::Bool, Value::Bool(false));
        let got = b.var("GOT", Type::INT16, Value::Int(0));
        let bid = b.binding("mb", "ipc");
        let s1 = b.state("RECV");
        let s2 = b.state("REPLY");
        let e = b.state("END");
        b.actions(
            s1,
            vec![Stmt::Call(ServiceCall {
                binding: bid,
                service: "recv_b".into(),
                args: vec![],
                done: Some(done),
                result: Some(got),
            })],
        );
        b.transition(s1, Some(Expr::var(done)), s2);
        b.actions(
            s2,
            vec![Stmt::Call(ServiceCall {
                binding: bid,
                service: "send_b".into(),
                args: vec![Expr::var(got).add(Expr::int(1))],
                done: Some(done),
                result: None,
            })],
        );
        b.transition(s2, Some(Expr::var(done)), e);
        b.transition(e, None, e);
        b.initial(s1);
        let b = b.build().unwrap();

        let mut plat = IpcPlatform::new();
        let mb = plat.add_unit(StandaloneUnit::from_native(Box::new(Mailbox::new("mb", 2))));
        let aid = plat.add_module(&a, &[("mb", mb)]).unwrap();
        let bid2 = plat.add_module(&b, &[("mb", mb)]).unwrap();
        plat.run(20).unwrap();
        assert_eq!(plat.module_state(aid), "END");
        assert_eq!(plat.module_state(bid2), "END");
        assert_eq!(plat.module_var(aid, "GOT"), Some(Value::Int(6)));
        assert_eq!(plat.module_var(bid2, "GOT"), Some(Value::Int(5)));
    }

    #[test]
    fn unbound_binding_rejected() {
        let mut plat = IpcPlatform::new();
        let err = plat.add_module(&producer("put", 1), &[]).unwrap_err();
        assert!(matches!(err, IpcError::Setup(_)));
    }

    #[test]
    fn unknown_service_is_runtime_error() {
        let mut plat = IpcPlatform::new();
        let ch = plat.add_unit(StandaloneUnit::from_native(Box::new(FifoChannel::new(
            "pipe", 1,
        ))));
        plat.add_module(&producer("bogus", 1), &[("chan", ch)])
            .unwrap();
        let err = plat.run(5).unwrap_err();
        assert!(matches!(err, IpcError::Runtime(_)));
        assert!(err.to_string().contains("bogus"));
    }
}
