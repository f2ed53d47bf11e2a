//! Statements: the action language executed inside FSM states and
//! transitions.
//!
//! Statements are the only way the IR mutates state. Service calls — the
//! paper's central abstraction — are statements too: a call activates one
//! step of the bound communication unit's service FSM and stores the
//! "done" result, mirroring the paper's `if (SetupControl()) { NextState
//! = Step; }` idiom.

use crate::expr::Expr;
use crate::ids::{BindingId, PortId, VarId};
use std::sync::Arc;

/// A call to an access procedure (service) of a communication unit.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceCall {
    /// Which of the module's interface bindings the call goes through.
    pub binding: BindingId,
    /// Service (access procedure) name, e.g. `"put"`. Shared so that
    /// per-activation reporting ([`crate::PendingCall`]) is a refcount
    /// bump, not a heap allocation.
    pub service: Arc<str>,
    /// Actual arguments, evaluated in the caller's environment.
    pub args: Vec<Expr>,
    /// Variable receiving the completion flag (`true` once the service
    /// protocol has run to completion). `None` discards it.
    pub done: Option<VarId>,
    /// Variable receiving the service's return value, for services that
    /// produce one (e.g. `get`). Written only on completion.
    pub result: Option<VarId>,
}

/// An IR statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// `var := expr` — variable assignment (immediate, like VHDL variable
    /// assignment or a C assignment).
    Assign(VarId, Expr),
    /// `port <= expr` — drive a port or wire. Under the co-simulation
    /// kernel this is a signal assignment that takes effect at the next
    /// delta cycle; in the one-shot interpreter it is immediate.
    Drive(PortId, Expr),
    /// Conditional execution.
    If {
        /// Condition; must evaluate to a defined truth value.
        cond: Expr,
        /// Statements executed when the condition holds.
        then_body: Vec<Stmt>,
        /// Statements executed otherwise.
        else_body: Vec<Stmt>,
    },
    /// Invoke one activation of a communication-unit service.
    Call(ServiceCall),
    /// Diagnostic trace record (used by experiment harnesses; erased by
    /// synthesis). The label is interned at statement construction
    /// (`"label".into()`), so every runtime that records the trace
    /// shares one refcounted string instead of re-allocating the label
    /// per activation.
    Trace(Arc<str>, Vec<Expr>),
}

impl Stmt {
    /// Builds an assignment statement.
    #[must_use]
    pub fn assign(var: VarId, value: Expr) -> Stmt {
        Stmt::Assign(var, value)
    }

    /// Builds a port-drive statement.
    #[must_use]
    pub fn drive(port: PortId, value: Expr) -> Stmt {
        Stmt::Drive(port, value)
    }

    /// Builds an `if` with no else branch.
    #[must_use]
    pub fn if_then(cond: Expr, then_body: Vec<Stmt>) -> Stmt {
        Stmt::If {
            cond,
            then_body,
            else_body: vec![],
        }
    }

    /// Builds an `if`/`else`.
    #[must_use]
    pub fn if_else(cond: Expr, then_body: Vec<Stmt>, else_body: Vec<Stmt>) -> Stmt {
        Stmt::If {
            cond,
            then_body,
            else_body,
        }
    }

    /// Visits every variable *written* by this statement (recursively).
    pub fn for_each_written_var(&self, f: &mut impl FnMut(VarId)) {
        match self {
            Stmt::Assign(v, _) => f(*v),
            Stmt::Drive(_, _) | Stmt::Trace(_, _) => {}
            Stmt::If {
                then_body,
                else_body,
                ..
            } => {
                for s in then_body.iter().chain(else_body) {
                    s.for_each_written_var(f);
                }
            }
            Stmt::Call(c) => {
                if let Some(v) = c.done {
                    f(v);
                }
                if let Some(v) = c.result {
                    f(v);
                }
            }
        }
    }

    /// Visits every port *driven* by this statement (recursively).
    pub fn for_each_driven_port(&self, f: &mut impl FnMut(PortId)) {
        match self {
            Stmt::Drive(p, _) => f(*p),
            Stmt::Assign(_, _) | Stmt::Trace(_, _) | Stmt::Call(_) => {}
            Stmt::If {
                then_body,
                else_body,
                ..
            } => {
                for s in then_body.iter().chain(else_body) {
                    s.for_each_driven_port(f);
                }
            }
        }
    }

    /// Visits every expression contained in this statement (recursively),
    /// including guards and call arguments.
    pub fn for_each_expr(&self, f: &mut impl FnMut(&Expr)) {
        match self {
            Stmt::Assign(_, e) | Stmt::Drive(_, e) => f(e),
            Stmt::If {
                cond,
                then_body,
                else_body,
            } => {
                f(cond);
                for s in then_body.iter().chain(else_body) {
                    s.for_each_expr(f);
                }
            }
            Stmt::Call(c) => {
                for a in &c.args {
                    f(a);
                }
            }
            Stmt::Trace(_, args) => {
                for a in args {
                    f(a);
                }
            }
        }
    }

    /// Visits every service call (recursively).
    pub fn for_each_call(&self, f: &mut impl FnMut(&ServiceCall)) {
        match self {
            Stmt::Call(c) => f(c),
            Stmt::If {
                then_body,
                else_body,
                ..
            } => {
                for s in then_body.iter().chain(else_body) {
                    s.for_each_call(f);
                }
            }
            Stmt::Assign(_, _) | Stmt::Drive(_, _) | Stmt::Trace(_, _) => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;

    fn sample() -> Vec<Stmt> {
        vec![
            Stmt::assign(VarId::new(0), Expr::int(1)),
            Stmt::drive(PortId::new(2), Expr::var(VarId::new(0))),
            Stmt::if_else(
                Expr::var(VarId::new(1)).gt(Expr::int(0)),
                vec![Stmt::assign(VarId::new(3), Expr::int(7))],
                vec![Stmt::Call(ServiceCall {
                    binding: BindingId::new(0),
                    service: "put".into(),
                    args: vec![Expr::var(VarId::new(4))],
                    done: Some(VarId::new(5)),
                    result: None,
                })],
            ),
        ]
    }

    #[test]
    fn written_vars_collected_recursively() {
        let mut written = vec![];
        for s in sample() {
            s.for_each_written_var(&mut |v| written.push(v.index()));
        }
        assert_eq!(written, vec![0, 3, 5]);
    }

    #[test]
    fn driven_ports_collected() {
        let mut driven = vec![];
        for s in sample() {
            s.for_each_driven_port(&mut |p| driven.push(p.index()));
        }
        assert_eq!(driven, vec![2]);
    }

    #[test]
    fn exprs_visited_including_guards_and_args() {
        let mut count = 0;
        for s in sample() {
            s.for_each_expr(&mut |_| count += 1);
        }
        // int(1), var(0), guard, int(7) assignment, call arg.
        assert_eq!(count, 5);
    }

    #[test]
    fn calls_visited() {
        let mut services = vec![];
        for s in sample() {
            s.for_each_call(&mut |c| services.push(c.service.clone()));
        }
        assert_eq!(services, vec![std::sync::Arc::<str>::from("put")]);
    }
}
