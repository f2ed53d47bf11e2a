//! Modules: the hardware and software behavioural units of a system.
//!
//! A module is a named FSM plus its ports, variables and *interface
//! bindings* (declared uses of communication units). Whether a module is
//! hardware or software is a property ([`ModuleKind`]), not a different
//! type — that is the unified model: the same structure elaborates from C
//! (Fig. 6) and from VHDL (Fig. 7) and feeds both co-simulation and
//! co-synthesis.

use crate::expr::Expr;
use crate::fsm::{Fsm, FsmBuildError, FsmBuilder};
use crate::ids::{BindingId, PortId, StateId, VarId};
use crate::stmt::Stmt;
use crate::value::{Type, Value};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Whether a module is destined for hardware synthesis or software
/// compilation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModuleKind {
    /// Implemented as hardware (VHDL source, high-level synthesis).
    Hardware,
    /// Implemented as software (C source, compiled for the target CPU).
    Software,
}

impl fmt::Display for ModuleKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModuleKind::Hardware => write!(f, "hardware"),
            ModuleKind::Software => write!(f, "software"),
        }
    }
}

/// Direction of a module port.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PortDir {
    /// Input: read by the module.
    In,
    /// Output: driven by the module.
    Out,
    /// Bidirectional (bus pins).
    InOut,
}

impl fmt::Display for PortDir {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PortDir::In => write!(f, "in"),
            PortDir::Out => write!(f, "out"),
            PortDir::InOut => write!(f, "inout"),
        }
    }
}

/// A module port.
#[derive(Debug, Clone, PartialEq)]
pub struct Port {
    name: String,
    dir: PortDir,
    ty: Type,
}

impl Port {
    /// Port name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Port direction.
    #[must_use]
    pub fn dir(&self) -> PortDir {
        self.dir
    }

    /// Port type.
    #[must_use]
    pub fn ty(&self) -> &Type {
        &self.ty
    }
}

/// A module-local variable (software data, or a hardware register after
/// synthesis).
#[derive(Debug, Clone, PartialEq)]
pub struct Variable {
    name: String,
    ty: Type,
    init: Value,
}

impl Variable {
    /// Creates a variable description.
    #[must_use]
    pub fn new(name: impl Into<String>, ty: Type, init: Value) -> Self {
        Variable {
            name: name.into(),
            ty,
            init,
        }
    }

    /// Variable name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Variable type.
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

/// A declared use of a communication unit: "this module talks through an
/// interface called `name`, offered by a unit of type `unit_type`".
/// The actual unit instance is attached at system-assembly time.
#[derive(Debug, Clone, PartialEq)]
pub struct InterfaceBinding {
    name: String,
    unit_type: String,
}

impl InterfaceBinding {
    /// Binding name (e.g. `"Distribution_Interface"`).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Required communication-unit type name.
    #[must_use]
    pub fn unit_type(&self) -> &str {
        &self.unit_type
    }
}

/// A behavioural module of the system.
///
/// The FSM is immutable once built and shared by reference count, so
/// cloning a module (one clone per backplane instance or IPC
/// platform) copies its name and declarations but shares its states,
/// statements and expressions.
#[derive(Debug, Clone, PartialEq)]
pub struct Module {
    name: String,
    kind: ModuleKind,
    ports: Vec<Port>,
    vars: Vec<Variable>,
    bindings: Vec<InterfaceBinding>,
    fsm: Arc<Fsm>,
}

impl Module {
    /// Module name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Hardware or software.
    #[must_use]
    pub fn kind(&self) -> ModuleKind {
        self.kind
    }

    /// All ports in id order.
    #[must_use]
    pub fn ports(&self) -> &[Port] {
        &self.ports
    }

    /// All variables in id order.
    #[must_use]
    pub fn vars(&self) -> &[Variable] {
        &self.vars
    }

    /// All interface bindings in id order.
    #[must_use]
    pub fn bindings(&self) -> &[InterfaceBinding] {
        &self.bindings
    }

    /// The module's behaviour, shared by every clone of the module.
    #[must_use]
    pub fn fsm(&self) -> &Fsm {
        &self.fsm
    }

    /// Looks up a port id by name.
    #[must_use]
    pub fn port_id(&self, name: &str) -> Option<PortId> {
        self.ports
            .iter()
            .position(|p| p.name == name)
            .map(|i| PortId::new(i as u32))
    }

    /// Looks up a variable id by name.
    #[must_use]
    pub fn var_id(&self, name: &str) -> Option<VarId> {
        self.vars
            .iter()
            .position(|v| v.name == name)
            .map(|i| VarId::new(i as u32))
    }

    /// Looks up a binding id by name.
    #[must_use]
    pub fn binding_id(&self, name: &str) -> Option<BindingId> {
        self.bindings
            .iter()
            .position(|b| b.name == name)
            .map(|i| BindingId::new(i as u32))
    }

    /// A port by id.
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this module.
    #[must_use]
    pub fn port(&self, id: PortId) -> &Port {
        &self.ports[id.index()]
    }

    /// A variable by id.
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this module.
    #[must_use]
    pub fn var(&self, id: VarId) -> &Variable {
        &self.vars[id.index()]
    }

    /// A binding by id.
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this module.
    #[must_use]
    pub fn binding(&self, id: BindingId) -> &InterfaceBinding {
        &self.bindings[id.index()]
    }
}

/// Builder for [`Module`].
///
/// # Examples
///
/// ```
/// use cosma_core::{ModuleBuilder, ModuleKind, PortDir, Type, Value, Expr, Stmt};
///
/// let mut b = ModuleBuilder::new("counter", ModuleKind::Hardware);
/// let clk = b.port("CLK", PortDir::In, Type::Bit);
/// let count = b.var("COUNT", Type::INT16, Value::Int(0));
/// let run = b.state("RUN");
/// b.actions(run, vec![Stmt::assign(count, Expr::var(count).add(Expr::int(1)))]);
/// b.transition(run, None, run);
/// b.initial(run);
/// let m = b.build()?;
/// assert_eq!(m.name(), "counter");
/// assert_eq!(m.port_id("CLK"), Some(clk));
/// # Ok::<(), cosma_core::ModuleBuildError>(())
/// ```
#[derive(Debug)]
pub struct ModuleBuilder {
    name: String,
    kind: ModuleKind,
    ports: Vec<Port>,
    port_names: HashMap<String, PortId>,
    vars: Vec<Variable>,
    var_names: HashMap<String, VarId>,
    bindings: Vec<InterfaceBinding>,
    binding_names: HashMap<String, BindingId>,
    fsm: FsmBuilder,
    duplicate: Option<String>,
}

impl ModuleBuilder {
    /// Starts a module.
    #[must_use]
    pub fn new(name: impl Into<String>, kind: ModuleKind) -> Self {
        ModuleBuilder {
            name: name.into(),
            kind,
            ports: vec![],
            port_names: HashMap::new(),
            vars: vec![],
            var_names: HashMap::new(),
            bindings: vec![],
            binding_names: HashMap::new(),
            fsm: FsmBuilder::new(),
            duplicate: None,
        }
    }

    /// Declares a port. Duplicate names are reported at [`build`].
    ///
    /// [`build`]: ModuleBuilder::build
    pub fn port(&mut self, name: impl Into<String>, dir: PortDir, ty: Type) -> PortId {
        let name = name.into();
        let id = PortId::new(self.ports.len() as u32);
        if self.port_names.insert(name.clone(), id).is_some() {
            self.duplicate.get_or_insert(format!("port {name}"));
        }
        self.ports.push(Port { name, dir, ty });
        id
    }

    /// Declares a variable with an initial value.
    pub fn var(&mut self, name: impl Into<String>, ty: Type, init: Value) -> VarId {
        let name = name.into();
        let id = VarId::new(self.vars.len() as u32);
        if self.var_names.insert(name.clone(), id).is_some() {
            self.duplicate.get_or_insert(format!("variable {name}"));
        }
        self.vars.push(Variable { name, ty, init });
        id
    }

    /// Declares a variable initialized to its type's default.
    pub fn var_default(&mut self, name: impl Into<String>, ty: Type) -> VarId {
        let init = ty.default_value();
        self.var(name, ty, init)
    }

    /// Declares an interface binding to a communication-unit type.
    pub fn binding(&mut self, name: impl Into<String>, unit_type: impl Into<String>) -> BindingId {
        let name = name.into();
        let id = BindingId::new(self.bindings.len() as u32);
        if self.binding_names.insert(name.clone(), id).is_some() {
            self.duplicate.get_or_insert(format!("binding {name}"));
        }
        self.bindings.push(InterfaceBinding {
            name,
            unit_type: unit_type.into(),
        });
        id
    }

    /// Declares (or fetches) an FSM state.
    pub fn state(&mut self, name: impl Into<String>) -> StateId {
        self.fsm.state(name)
    }

    /// Appends entry actions to a state.
    pub fn actions(&mut self, state: StateId, stmts: Vec<Stmt>) -> &mut Self {
        self.fsm.actions(state, stmts);
        self
    }

    /// Adds a guarded transition.
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

    /// Finalizes the module, checking structural consistency.
    ///
    /// # Errors
    ///
    /// Returns [`ModuleBuildError`] for duplicate declarations, FSM
    /// construction errors, or references to undeclared ids inside the
    /// FSM's expressions and statements.
    pub fn build(self) -> Result<Module, ModuleBuildError> {
        if let Some(dup) = self.duplicate {
            return Err(ModuleBuildError::Duplicate {
                module: self.name,
                item: dup,
            });
        }
        let fsm = self.fsm.build().map_err(|e| ModuleBuildError::Fsm {
            module: self.name.clone(),
            source: e,
        })?;
        let module = Module {
            name: self.name,
            kind: self.kind,
            ports: self.ports,
            vars: self.vars,
            bindings: self.bindings,
            fsm: Arc::new(fsm),
        };
        crate::validate::check_module(&module).map_err(|detail| ModuleBuildError::Invalid {
            module: module.name.clone(),
            detail,
        })?;
        Ok(module)
    }
}

/// Errors from [`ModuleBuilder::build`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ModuleBuildError {
    /// A port, variable or binding name was declared twice.
    Duplicate {
        /// Module being built.
        module: String,
        /// Which declaration clashed.
        item: String,
    },
    /// The underlying FSM failed to build.
    Fsm {
        /// Module being built.
        module: String,
        /// Underlying FSM error.
        source: FsmBuildError,
    },
    /// The FSM references ids the module does not declare.
    Invalid {
        /// Module being built.
        module: String,
        /// Human-readable description of the violation.
        detail: String,
    },
}

impl fmt::Display for ModuleBuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModuleBuildError::Duplicate { module, item } => {
                write!(f, "module {module}: duplicate {item}")
            }
            ModuleBuildError::Fsm { module, source } => write!(f, "module {module}: {source}"),
            ModuleBuildError::Invalid { module, detail } => {
                write!(f, "module {module}: {detail}")
            }
        }
    }
}

impl std::error::Error for ModuleBuildError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ModuleBuildError::Fsm { source, .. } => Some(source),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bit::Bit;

    fn simple_module() -> ModuleBuilder {
        let mut b = ModuleBuilder::new("m", ModuleKind::Software);
        let x = b.var("X", Type::INT16, Value::Int(0));
        let s = b.state("S");
        b.actions(s, vec![Stmt::assign(x, Expr::int(1))]);
        b.transition(s, None, s);
        b.initial(s);
        b
    }

    #[test]
    fn lookups_by_name() {
        let mut b = ModuleBuilder::new("m", ModuleKind::Hardware);
        let p = b.port("B_FULL", PortDir::In, Type::Bit);
        let v = b.var("NEXT", Type::Bool, Value::Bool(false));
        let bind = b.binding("Motor_Interface", "hwhw_link");
        let s = b.state("S");
        b.transition(s, None, s);
        b.initial(s);
        let m = b.build().unwrap();
        assert_eq!(m.port_id("B_FULL"), Some(p));
        assert_eq!(m.var_id("NEXT"), Some(v));
        assert_eq!(m.binding_id("Motor_Interface"), Some(bind));
        assert_eq!(m.port(p).dir(), PortDir::In);
        assert_eq!(m.binding(bind).unit_type(), "hwhw_link");
        assert_eq!(m.port_id("NOPE"), None);
        assert_eq!(m.kind(), ModuleKind::Hardware);
    }

    #[test]
    fn duplicate_port_rejected() {
        let mut b = ModuleBuilder::new("m", ModuleKind::Hardware);
        b.port("A", PortDir::In, Type::Bit);
        b.port("A", PortDir::Out, Type::Bit);
        let s = b.state("S");
        b.transition(s, None, s);
        b.initial(s);
        match b.build().unwrap_err() {
            ModuleBuildError::Duplicate { item, .. } => assert_eq!(item, "port A"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn duplicate_var_rejected() {
        let mut b = simple_module();
        b.var("X", Type::Bool, Value::Bool(false));
        assert!(matches!(b.build(), Err(ModuleBuildError::Duplicate { .. })));
    }

    #[test]
    fn fsm_error_propagates() {
        let b = ModuleBuilder::new("m", ModuleKind::Software);
        match b.build().unwrap_err() {
            ModuleBuildError::Fsm { source, .. } => assert_eq!(source, FsmBuildError::Empty),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn dangling_var_reference_rejected() {
        let mut b = ModuleBuilder::new("m", ModuleKind::Software);
        let s = b.state("S");
        // References v0 which is never declared.
        b.actions(s, vec![Stmt::assign(VarId::new(0), Expr::int(1))]);
        b.transition(s, None, s);
        b.initial(s);
        assert!(matches!(b.build(), Err(ModuleBuildError::Invalid { .. })));
    }

    #[test]
    fn dangling_port_reference_rejected() {
        let mut b = ModuleBuilder::new("m", ModuleKind::Hardware);
        let s = b.state("S");
        b.transition(
            s,
            Some(Expr::port(PortId::new(3)).eq(Expr::bit(Bit::One))),
            s,
        );
        b.initial(s);
        assert!(matches!(b.build(), Err(ModuleBuildError::Invalid { .. })));
    }

    #[test]
    fn dangling_binding_rejected() {
        let mut b = ModuleBuilder::new("m", ModuleKind::Software);
        let s = b.state("S");
        b.actions(
            s,
            vec![Stmt::Call(crate::stmt::ServiceCall {
                binding: BindingId::new(0),
                service: "put".into(),
                args: vec![],
                done: None,
                result: None,
            })],
        );
        b.transition(s, None, s);
        b.initial(s);
        assert!(matches!(b.build(), Err(ModuleBuildError::Invalid { .. })));
    }

    #[test]
    fn var_default_uses_type_default() {
        let mut b = ModuleBuilder::new("m", ModuleKind::Software);
        let v = b.var_default("F", Type::Bool);
        let s = b.state("S");
        b.transition(s, None, s);
        b.initial(s);
        let m = b.build().unwrap();
        assert_eq!(m.var(v).init(), &Value::Bool(false));
    }

    #[test]
    fn clones_share_one_fsm() {
        let m = simple_module().build().unwrap();
        let twin = m.clone();
        assert!(std::ptr::eq(m.fsm(), twin.fsm()), "the FSM is shared");
        assert_eq!(m, twin);
    }

    #[test]
    fn display_impls() {
        assert_eq!(ModuleKind::Hardware.to_string(), "hardware");
        assert_eq!(PortDir::InOut.to_string(), "inout");
    }
}
