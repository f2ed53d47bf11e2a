//! # cosma-core — the unified model
//!
//! Core intermediate representation of **COSMA**, a Rust reproduction of
//! *"A Unified Model for Co-simulation and Co-synthesis of Mixed
//! Hardware/Software Systems"* (Valderrama et al., DATE 1995).
//!
//! The paper's key idea: describe a heterogeneous system as communicating
//! hardware and software modules whose interaction is abstracted behind
//! **communication units** — library components exposing *access
//! procedures* in multiple *views* (hardware VHDL, software simulation C,
//! software synthesis C per target). Because co-simulation and
//! co-synthesis consume the same description and differ only in the view
//! linked in, their results stay coherent and the same system maps onto
//! many platforms.
//!
//! This crate provides:
//!
//! * the value/type layer ([`Bit`], [`Value`], [`Type`]),
//! * expressions and statements ([`Expr`], [`Stmt`]),
//! * FSMs with the paper's one-transition-per-activation semantics
//!   ([`Fsm`], [`FsmExec`]),
//! * modules and systems ([`Module`], [`System`]),
//! * communication units ([`comm`]) and the multi-view render pipeline
//!   ([`view`], [`render`]).
//!
//! ## Quick example
//!
//! Build a two-state software module and step it:
//!
//! ```
//! use cosma_core::{ModuleBuilder, ModuleKind, Type, Value, Expr, Stmt,
//!                  FsmExec, MapEnv};
//!
//! let mut b = ModuleBuilder::new("blinker", ModuleKind::Software);
//! let n = b.var("N", Type::INT16, Value::Int(0));
//! let s_on = b.state("ON");
//! let s_off = b.state("OFF");
//! b.actions(s_on, vec![Stmt::assign(n, Expr::var(n).add(Expr::int(1)))]);
//! b.transition(s_on, None, s_off);
//! b.transition(s_off, None, s_on);
//! b.initial(s_on);
//! let module = b.build()?;
//!
//! let mut env = MapEnv::new();
//! env.add_var(Type::INT16, Value::Int(0));
//! let mut exec = FsmExec::new(module.fsm());
//! for _ in 0..4 {
//!     exec.step(module.fsm(), &mut env)?;
//! }
//! assert_eq!(env.var(n), &Value::Int(2)); // ON entered twice
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod bit;
pub mod comm;
mod exec;
mod expr;
mod fsm;
pub mod ids;
mod module;
pub mod pretty;
pub mod render;
mod stmt;
mod system;
pub mod validate;
mod value;
pub mod view;

pub use bit::{Bit, ParseBitError};
pub use exec::{
    eval_const, exec_stmt, Env, FsmExec, MapEnv, ServiceOutcome, StepEffects, StepMeta,
};
pub use expr::{BinOp, EvalError, Expr, ReadEnv, UnOp};
pub use fsm::{Fsm, FsmBuildError, FsmBuilder, State, Transition};
pub use module::{
    InterfaceBinding, Module, ModuleBuildError, ModuleBuilder, ModuleKind, Port, PortDir, Variable,
};
pub use stmt::{ServiceCall, Stmt};
pub use system::{ModuleRef, System, SystemBuildError, SystemBuilder, UnitInstance, UnitRef};
pub use value::{EnumType, EnumValue, Type, Value, ValueError};
pub use view::{render_module, render_service_views, ServiceViews, SwTarget, View};
