//! Communication units: the paper's central abstraction.
//!
//! A [`CommUnitSpec`] is "an entity able to execute a communication scheme
//! invoked through a procedure call mechanism" (§3). It owns internal
//! *wires* (hardware ports / shared state), an optional *controller* FSM
//! that guards global state and resolves conflicts, and a set of
//! *services* (access procedures such as `put`/`get`), each of which is a
//! protocol FSM over the same wires.
//!
//! Modules never see the wires — they call services, and each call
//! activates one step of the service FSM (returning a completion flag),
//! exactly like the `PUT` procedure of Figure 3.

use crate::fsm::{Fsm, FsmBuildError, FsmBuilder};
use crate::ids::{PortId, StateId, VarId};
use crate::module::Variable;
use crate::stmt::Stmt;
use crate::value::{Type, Value};
use crate::Expr;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// An internal wire (signal or shared register) of a communication unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Wire {
    name: String,
    ty: Type,
    init: Value,
}

impl Wire {
    /// Wire name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Wire type.
    #[must_use]
    pub fn ty(&self) -> &Type {
        &self.ty
    }

    /// Initial value.
    #[must_use]
    pub fn init(&self) -> &Value {
        &self.init
    }
}

/// The unit-internal controller process (optional): an FSM with private
/// variables that runs autonomously — every co-simulation cycle — and
/// arbitrates the wires (the "communication controller" of Figure 2).
#[derive(Debug, Clone, PartialEq)]
pub struct Controller {
    /// Private controller variables.
    pub vars: Vec<Variable>,
    /// Controller behaviour; `Expr::Port` refers to unit wires.
    pub fsm: Fsm,
}

/// Conventional id of the completion flag local inside every service.
pub const SERVICE_DONE_VAR: VarId = VarId::new(0);
/// Conventional id of the result local inside services that return a
/// value.
pub const SERVICE_RESULT_VAR: VarId = VarId::new(1);

/// The service-name rule every communication unit shares: an exact
/// match wins, else the first case-insensitive one, so a VHDL caller's
/// upper-cased `PUT` binds to a unit that declares `put`. Returns the
/// index of the match in `names`.
#[must_use]
pub fn resolve_service<'a>(
    mut names: impl Iterator<Item = &'a str> + Clone,
    name: &str,
) -> Option<usize> {
    names
        .clone()
        .position(|n| n == name)
        .or_else(|| names.position(|n| n.eq_ignore_ascii_case(name)))
}

/// An access procedure of a communication unit.
///
/// By convention local variable 0 is the `DONE` flag (set by the protocol
/// FSM on completion) and, when the service returns a value, local
/// variable 1 is the result register. [`ServiceSpecBuilder`] enforces the
/// convention.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceSpec {
    name: String,
    args: Vec<(String, Type)>,
    returns: Option<Type>,
    locals: Vec<Variable>,
    fsm: Fsm,
}

impl ServiceSpec {
    /// Service name (e.g. `"put"`).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Formal arguments.
    #[must_use]
    pub fn args(&self) -> &[(String, Type)] {
        &self.args
    }

    /// Return type, if the service produces a value (e.g. `get`).
    #[must_use]
    pub fn returns(&self) -> Option<&Type> {
        self.returns.as_ref()
    }

    /// Local variables (index 0 is `DONE`; index 1 is `RESULT` when
    /// `returns` is set).
    #[must_use]
    pub fn locals(&self) -> &[Variable] {
        &self.locals
    }

    /// Protocol FSM.
    #[must_use]
    pub fn fsm(&self) -> &Fsm {
        &self.fsm
    }
}

/// Builder for [`ServiceSpec`]; creates the `DONE` (and `RESULT`) locals
/// automatically.
///
/// # Examples
///
/// ```
/// use cosma_core::comm::ServiceSpecBuilder;
/// use cosma_core::{Type, Expr, Stmt};
/// use cosma_core::comm::SERVICE_DONE_VAR;
///
/// let mut b = ServiceSpecBuilder::new("ping");
/// let s = b.state("GO");
/// b.actions(s, vec![Stmt::assign(SERVICE_DONE_VAR, Expr::bool(true))]);
/// b.transition(s, None, s);
/// b.initial(s);
/// let svc = b.build()?;
/// assert_eq!(svc.name(), "ping");
/// assert_eq!(svc.locals()[0].name(), "DONE");
/// # Ok::<(), cosma_core::comm::CommBuildError>(())
/// ```
#[derive(Debug)]
pub struct ServiceSpecBuilder {
    name: String,
    args: Vec<(String, Type)>,
    returns: Option<Type>,
    locals: Vec<Variable>,
    fsm: FsmBuilder,
}

impl ServiceSpecBuilder {
    /// Starts a service. Local 0 (`DONE: bool`) is created immediately.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        ServiceSpecBuilder {
            name: name.into(),
            args: vec![],
            returns: None,
            locals: vec![Variable::new("DONE", Type::Bool, Value::Bool(false))],
            fsm: FsmBuilder::new(),
        }
    }

    /// Declares a formal argument; returns its index for [`Expr::Arg`].
    ///
    /// [`Expr::Arg`]: crate::Expr::Arg
    pub fn arg(&mut self, name: impl Into<String>, ty: Type) -> u32 {
        self.args.push((name.into(), ty));
        (self.args.len() - 1) as u32
    }

    /// Declares that the service returns a value of `ty`; creates the
    /// `RESULT` local (id [`SERVICE_RESULT_VAR`]).
    ///
    /// # Panics
    ///
    /// Panics if called twice or after other locals were declared (the
    /// result register must be local 1).
    pub fn returns(&mut self, ty: Type) -> VarId {
        assert!(self.returns.is_none(), "returns() called twice");
        assert_eq!(
            self.locals.len(),
            1,
            "returns() must be declared before other locals"
        );
        let init = ty.default_value();
        self.returns = Some(ty.clone());
        self.locals.push(Variable::new("RESULT", ty, init));
        SERVICE_RESULT_VAR
    }

    /// Declares an additional protocol-local variable.
    pub fn local(&mut self, name: impl Into<String>, ty: Type, init: Value) -> VarId {
        let id = VarId::new(self.locals.len() as u32);
        self.locals.push(Variable::new(name, ty, init));
        id
    }

    /// Declares (or fetches) a protocol state.
    pub fn state(&mut self, name: impl Into<String>) -> StateId {
        self.fsm.state(name)
    }

    /// Appends entry actions to a state.
    pub fn actions(&mut self, state: StateId, stmts: Vec<Stmt>) -> &mut Self {
        self.fsm.actions(state, stmts);
        self
    }

    /// Adds a transition.
    pub fn transition(&mut self, from: StateId, guard: Option<Expr>, target: StateId) -> &mut Self {
        self.fsm.transition(from, guard, target);
        self
    }

    /// Adds a transition with actions.
    pub fn transition_with(
        &mut self,
        from: StateId,
        guard: Option<Expr>,
        actions: Vec<Stmt>,
        target: StateId,
    ) -> &mut Self {
        self.fsm.transition_with(from, guard, actions, target);
        self
    }

    /// Sets the initial state.
    pub fn initial(&mut self, state: StateId) -> &mut Self {
        self.fsm.initial(state);
        self
    }

    /// Finalizes the service (wire references are checked later, by
    /// [`CommUnitBuilder::build`], which knows the wire table).
    ///
    /// # Errors
    ///
    /// Returns [`CommBuildError`] if the protocol FSM fails to build.
    pub fn build(self) -> Result<ServiceSpec, CommBuildError> {
        let fsm = self.fsm.build().map_err(|e| CommBuildError::Fsm {
            item: format!("service {}", self.name),
            source: e,
        })?;
        Ok(ServiceSpec {
            name: self.name,
            args: self.args,
            returns: self.returns,
            locals: self.locals,
            fsm,
        })
    }
}

/// A communication-unit type: wires + optional controller + services.
///
/// Specs are immutable and shared (`Arc`) between the library, system
/// descriptions and runtime instances: one spec describes the unit
/// type, and every instance of it (a backplane unit, a batched link, a
/// synthesized controller) refers to that one spec under an instance
/// name of its own.
#[derive(Debug, Clone, PartialEq)]
pub struct CommUnitSpec {
    name: String,
    wires: Vec<Wire>,
    controller: Option<Controller>,
    services: Vec<ServiceSpec>,
}

impl CommUnitSpec {
    /// The unit *type* name (e.g. `"handshake"`), shared by every
    /// instance of the spec; instance names live with the instances.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Internal wires in id order (`Expr::Port` inside controller and
    /// services indexes this table).
    ///
    /// [`Expr::Port`]: crate::Expr::Port
    #[must_use]
    pub fn wires(&self) -> &[Wire] {
        &self.wires
    }

    /// The controller, if any.
    #[must_use]
    pub fn controller(&self) -> Option<&Controller> {
        self.controller.as_ref()
    }

    /// All services.
    #[must_use]
    pub fn services(&self) -> &[ServiceSpec] {
        &self.services
    }

    /// Finds a service by name. Lookup is exact first, then
    /// case-insensitive (VHDL callers upper-case procedure names).
    #[must_use]
    pub fn service(&self, name: &str) -> Option<&ServiceSpec> {
        self.service_index(name).map(|i| &self.services[i])
    }

    /// Resolves a service name to its index in [`CommUnitSpec::services`]
    /// through [`resolve_service`], so runtimes that keep per-service
    /// tables parallel to the spec (session keys) share its rule.
    #[must_use]
    pub fn service_index(&self, name: &str) -> Option<usize> {
        resolve_service(self.services.iter().map(|s| s.name.as_str()), name)
    }

    /// Finds a wire id by name.
    #[must_use]
    pub fn wire_id(&self, name: &str) -> Option<PortId> {
        self.wires
            .iter()
            .position(|w| w.name == name)
            .map(|i| PortId::new(i as u32))
    }
}

/// Builder for [`CommUnitSpec`].
#[derive(Debug)]
pub struct CommUnitBuilder {
    name: String,
    wires: Vec<Wire>,
    wire_names: HashMap<String, PortId>,
    controller: Option<Controller>,
    services: Vec<ServiceSpec>,
    duplicate: Option<String>,
}

impl CommUnitBuilder {
    /// Starts a unit type.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        CommUnitBuilder {
            name: name.into(),
            wires: vec![],
            wire_names: HashMap::new(),
            controller: None,
            services: vec![],
            duplicate: None,
        }
    }

    /// Declares an internal wire.
    pub fn wire(&mut self, name: impl Into<String>, ty: Type, init: Value) -> PortId {
        let name = name.into();
        let id = PortId::new(self.wires.len() as u32);
        if self.wire_names.insert(name.clone(), id).is_some() {
            self.duplicate.get_or_insert(format!("wire {name}"));
        }
        self.wires.push(Wire { name, ty, init });
        id
    }

    /// Declares a wire initialized to its type default.
    pub fn wire_default(&mut self, name: impl Into<String>, ty: Type) -> PortId {
        let init = ty.default_value();
        self.wire(name, ty, init)
    }

    /// Installs the controller.
    pub fn controller(&mut self, vars: Vec<Variable>, fsm: Fsm) -> &mut Self {
        self.controller = Some(Controller { vars, fsm });
        self
    }

    /// Adds a service.
    pub fn service(&mut self, svc: ServiceSpec) -> &mut Self {
        if self.services.iter().any(|s| s.name == svc.name) {
            self.duplicate
                .get_or_insert(format!("service {}", svc.name));
        }
        self.services.push(svc);
        self
    }

    /// Finalizes and cross-checks the unit.
    ///
    /// # Errors
    ///
    /// Returns [`CommBuildError`] for duplicate names or for service /
    /// controller FSMs that reference wires, locals or arguments out of
    /// range (see [`crate::validate`]).
    pub fn build(self) -> Result<Arc<CommUnitSpec>, CommBuildError> {
        if let Some(dup) = self.duplicate {
            return Err(CommBuildError::Duplicate {
                unit: self.name,
                item: dup,
            });
        }
        let spec = CommUnitSpec {
            name: self.name,
            wires: self.wires,
            controller: self.controller,
            services: self.services,
        };
        crate::validate::check_unit(&spec).map_err(|detail| CommBuildError::Invalid {
            unit: spec.name.clone(),
            detail,
        })?;
        Ok(Arc::new(spec))
    }
}

/// Errors from communication-unit construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommBuildError {
    /// Duplicate wire or service name.
    Duplicate {
        /// Unit being built.
        unit: String,
        /// Which declaration clashed.
        item: String,
    },
    /// Underlying FSM construction failed.
    Fsm {
        /// Which service/controller.
        item: String,
        /// FSM error.
        source: FsmBuildError,
    },
    /// Cross-reference validation failed.
    Invalid {
        /// Unit being built.
        unit: String,
        /// Violation description.
        detail: String,
    },
}

impl fmt::Display for CommBuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CommBuildError::Duplicate { unit, item } => {
                write!(f, "communication unit {unit}: duplicate {item}")
            }
            CommBuildError::Fsm { item, source } => write!(f, "{item}: {source}"),
            CommBuildError::Invalid { unit, detail } => {
                write!(f, "communication unit {unit}: {detail}")
            }
        }
    }
}

impl std::error::Error for CommBuildError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CommBuildError::Fsm { source, .. } => Some(source),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bit::Bit;

    /// A minimal one-wire unit with a `ping` service that completes
    /// immediately.
    fn tiny_unit() -> Arc<CommUnitSpec> {
        let mut u = CommUnitBuilder::new("tiny");
        let flag = u.wire("FLAG", Type::Bit, Value::Bit(Bit::Zero));
        let mut s = ServiceSpecBuilder::new("ping");
        let go = s.state("GO");
        s.actions(
            go,
            vec![
                Stmt::drive(flag, Expr::bit(Bit::One)),
                Stmt::assign(SERVICE_DONE_VAR, Expr::bool(true)),
            ],
        );
        s.transition(go, None, go);
        s.initial(go);
        u.service(s.build().unwrap());
        u.build().unwrap()
    }

    #[test]
    fn unit_lookup() {
        let u = tiny_unit();
        assert_eq!(u.name(), "tiny");
        assert_eq!(u.wires().len(), 1);
        assert_eq!(u.wire_id("FLAG"), Some(PortId::new(0)));
        assert_eq!(u.wire_id("NOPE"), None);
        assert!(u.service("ping").is_some());
        assert!(u.service("put").is_none());
    }

    #[test]
    fn service_convention_locals() {
        let u = tiny_unit();
        let svc = u.service("ping").unwrap();
        assert_eq!(svc.locals()[SERVICE_DONE_VAR.index()].name(), "DONE");
        assert_eq!(svc.returns(), None);
    }

    #[test]
    fn returns_creates_result_local() {
        let mut s = ServiceSpecBuilder::new("get");
        let r = s.returns(Type::INT16);
        assert_eq!(r, SERVICE_RESULT_VAR);
        let st = s.state("S");
        s.transition(st, None, st);
        s.initial(st);
        let svc = s.build().unwrap();
        assert_eq!(svc.locals()[1].name(), "RESULT");
        assert_eq!(svc.returns(), Some(&Type::INT16));
    }

    #[test]
    #[should_panic(expected = "returns() called twice")]
    fn double_returns_panics() {
        let mut s = ServiceSpecBuilder::new("get");
        s.returns(Type::INT16);
        s.returns(Type::INT16);
    }

    #[test]
    fn duplicate_wire_rejected() {
        let mut u = CommUnitBuilder::new("dup");
        u.wire("A", Type::Bit, Value::Bit(Bit::Zero));
        u.wire("A", Type::Bit, Value::Bit(Bit::Zero));
        assert!(matches!(u.build(), Err(CommBuildError::Duplicate { .. })));
    }

    #[test]
    fn duplicate_service_rejected() {
        let mut u = CommUnitBuilder::new("dup");
        for _ in 0..2 {
            let mut s = ServiceSpecBuilder::new("ping");
            let st = s.state("S");
            s.transition(st, None, st);
            s.initial(st);
            u.service(s.build().unwrap());
        }
        assert!(matches!(u.build(), Err(CommBuildError::Duplicate { .. })));
    }

    #[test]
    fn service_referencing_unknown_wire_rejected() {
        let mut u = CommUnitBuilder::new("bad");
        // No wires declared, but the service drives wire 0.
        let mut s = ServiceSpecBuilder::new("ping");
        let st = s.state("S");
        s.actions(st, vec![Stmt::drive(PortId::new(0), Expr::bit(Bit::One))]);
        s.transition(st, None, st);
        s.initial(st);
        u.service(s.build().unwrap());
        assert!(matches!(u.build(), Err(CommBuildError::Invalid { .. })));
    }

    #[test]
    fn service_arg_out_of_range_rejected() {
        let mut u = CommUnitBuilder::new("bad");
        let w = u.wire("D", Type::INT16, Value::Int(0));
        let mut s = ServiceSpecBuilder::new("put");
        s.arg("REQUEST", Type::INT16);
        let st = s.state("S");
        s.actions(st, vec![Stmt::drive(w, Expr::arg(1))]); // only arg 0 exists
        s.transition(st, None, st);
        s.initial(st);
        u.service(s.build().unwrap());
        assert!(matches!(u.build(), Err(CommBuildError::Invalid { .. })));
    }

    #[test]
    fn nested_service_call_rejected() {
        let mut u = CommUnitBuilder::new("bad");
        let mut s = ServiceSpecBuilder::new("ping");
        let st = s.state("S");
        s.actions(
            st,
            vec![Stmt::Call(crate::stmt::ServiceCall {
                binding: crate::ids::BindingId::new(0),
                service: "other".into(),
                args: vec![],
                done: None,
                result: None,
            })],
        );
        s.transition(st, None, st);
        s.initial(st);
        u.service(s.build().unwrap());
        assert!(matches!(u.build(), Err(CommBuildError::Invalid { .. })));
    }

    #[test]
    fn error_display() {
        let e = CommBuildError::Duplicate {
            unit: "u".into(),
            item: "wire A".into(),
        };
        assert!(e.to_string().contains("duplicate wire A"));
    }
}
