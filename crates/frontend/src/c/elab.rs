//! Elaboration: C subset AST → unified IR module.
//!
//! The C function is a `switch` over an enum-typed global state
//! variable, executed once per activation; it becomes FSM states through
//! the state-variable translation both front-ends share.
//!
//! Communication procedure calls (`SetupControl()`, `MotorPosition(p)`)
//! become [`cosma_core::ServiceCall`] statements writing hidden
//! `__done_<svc>` flags; call expressions read those flags, and
//! `<SVC>_RESULT()` reads the hidden `__res_<svc>` register.

use crate::c::ast::{CDecl, CExpr, CStmt, CType, CUnit};
use crate::c::parser::parse;
use crate::elab::{err, translate_states, ElabError, ElabOptions, Enums, Services, StateVar};
use cosma_core::ids::VarId;
use cosma_core::{Expr, Module, ModuleBuilder, ModuleKind, Stmt, Type, Value};
use std::collections::HashMap;

struct Elab {
    enums: Enums,
    vars: HashMap<String, VarId>,
    services: Services,
}

impl Elab {
    fn const_value(&self, e: &CExpr) -> Result<Value, ElabError> {
        match e {
            CExpr::Int(i) => Ok(Value::Int(*i)),
            CExpr::Ident(name) => match self.enums.value(name) {
                Some(v) => Ok(v),
                None => err(format!("initializer {name} is not a constant")),
            },
            CExpr::Unary("-", inner) => match self.const_value(inner)? {
                Value::Int(i) => Ok(Value::Int(-i)),
                other => err(format!("cannot negate {other}")),
            },
            other => err(format!("unsupported constant initializer {other:?}")),
        }
    }

    fn lower_expr(&self, e: &CExpr, acts: &mut Vec<Stmt>) -> Result<Expr, ElabError> {
        Ok(match e {
            CExpr::Int(i) => Expr::int(*i),
            CExpr::Ident(name) => {
                if let Some(&v) = self.vars.get(name) {
                    Expr::var(v)
                } else if let Some(v) = self.enums.value(name) {
                    Expr::Const(v)
                } else {
                    return err(format!("unknown identifier {name}"));
                }
            }
            CExpr::Call(name, args) => {
                // <SVC>_RESULT() reads the hidden result register.
                if let Some(svc) = name.strip_suffix("_RESULT") {
                    if let Some(service) = self.services.get(svc) {
                        if !args.is_empty() {
                            return err(format!("{name} takes no arguments"));
                        }
                        return Ok(Expr::var(service.result));
                    }
                }
                let service = self.services.called(name)?;
                let mut ir_args = Vec::with_capacity(args.len());
                for a in args {
                    ir_args.push(self.lower_expr(a, acts)?);
                }
                acts.push(service.call(name, ir_args));
                Expr::var(service.done)
            }
            CExpr::Unary(op, inner) => {
                let e = self.lower_expr(inner, acts)?;
                match *op {
                    "-" => e.neg(),
                    "!" | "~" => e.not(),
                    other => return err(format!("unsupported unary operator {other}")),
                }
            }
            CExpr::Binary(op, a, b) => {
                let a = self.lower_expr(a, acts)?;
                let b = self.lower_expr(b, acts)?;
                match *op {
                    "+" => a.add(b),
                    "-" => a.sub(b),
                    "*" => a.mul(b),
                    "/" => a.div(b),
                    "%" => Expr::Binary(cosma_core::BinOp::Rem, Box::new(a), Box::new(b)),
                    "==" => self.lower_eq(a, b),
                    "!=" => self.lower_eq(a, b).not(),
                    "<" => a.lt(b),
                    "<=" => a.le(b),
                    ">" => a.gt(b),
                    ">=" => a.ge(b),
                    "&&" | "&" => a.and(b),
                    "||" | "|" => a.or(b),
                    "^" => Expr::Binary(cosma_core::BinOp::Xor, Box::new(a), Box::new(b)),
                    "<<" => Expr::Binary(cosma_core::BinOp::Shl, Box::new(a), Box::new(b)),
                    ">>" => Expr::Binary(cosma_core::BinOp::Shr, Box::new(a), Box::new(b)),
                    other => return err(format!("unsupported binary operator {other}")),
                }
            }
        })
    }

    /// Equality with the C-ism that service done flags (`bool`) compare
    /// against 0/1 integer literals.
    fn lower_eq(&self, a: Expr, b: Expr) -> Expr {
        match (&a, &b) {
            (Expr::Var(_), Expr::Const(Value::Int(0))) => return a.not(),
            (Expr::Var(_), Expr::Const(Value::Int(1))) => return a,
            _ => {}
        }
        a.eq(b)
    }

    /// Lowers a statement list into IR actions, recording every state
    /// variable target assigned (for transition generation).
    fn lower_stmts(
        &self,
        stmts: &[CStmt],
        state_var: &str,
        targets: &mut Vec<String>,
        out: &mut Vec<Stmt>,
    ) -> Result<(), ElabError> {
        for s in stmts {
            match s {
                CStmt::Assign(name, rhs) => {
                    if name == state_var {
                        if let CExpr::Ident(variant) = rhs {
                            if !targets.contains(variant) {
                                targets.push(variant.clone());
                            }
                        } else {
                            return err("state variable must be assigned a state name");
                        }
                    }
                    let Some(&v) = self.vars.get(name) else {
                        return err(format!("assignment to undeclared variable {name}"));
                    };
                    let mut acts = vec![];
                    let e = self.lower_expr(rhs, &mut acts)?;
                    out.append(&mut acts);
                    out.push(Stmt::assign(v, e));
                }
                CStmt::Expr(e) => {
                    let mut acts = vec![];
                    let _ = self.lower_expr(e, &mut acts)?;
                    out.append(&mut acts);
                }
                CStmt::If(cond, then_b, else_b) => {
                    let mut acts = vec![];
                    let c = self.lower_expr(cond, &mut acts)?;
                    out.append(&mut acts);
                    let mut t = vec![];
                    self.lower_stmts(then_b, state_var, targets, &mut t)?;
                    let mut e = vec![];
                    self.lower_stmts(else_b, state_var, targets, &mut e)?;
                    out.push(Stmt::if_else(c, t, e));
                }
                CStmt::Block(b) => self.lower_stmts(b, state_var, targets, out)?,
                CStmt::Break | CStmt::Return(_) => {}
                CStmt::Switch(_, _) => {
                    return err("nested switch statements are not supported");
                }
            }
        }
        Ok(())
    }
}

/// Elaborates one function of a parsed unit into an IR module.
///
/// The function must follow the paper's module shape: a `switch` over an
/// enum-typed global state variable (optionally preceded/followed by plain
/// statements executed every activation).
///
/// # Errors
///
/// Returns [`ElabError`] when the source falls outside the supported
/// subset (see module docs) or references unknown identifiers/services.
pub fn elaborate(
    unit: &CUnit,
    function: &str,
    kind: ModuleKind,
    opts: &ElabOptions,
) -> Result<Module, ElabError> {
    let Some(CDecl::Function { body, .. }) = unit.function(function) else {
        return err(format!("no function named {function}"));
    };
    let mut builder = ModuleBuilder::new(function.to_lowercase(), kind);
    let enums = Enums::new(unit.decls.iter().filter_map(|d| match d {
        CDecl::EnumDef { name, variants } => Some((name, variants)),
        _ => None,
    }))?;
    let services = Services::bind(&mut builder, opts, str::to_owned)?;

    // Globals.
    let mut elab = Elab {
        enums,
        vars: HashMap::new(),
        services,
    };
    let mut var_tys = HashMap::new();
    for d in &unit.decls {
        if let CDecl::Global { ty, name, init } = d {
            let ir_ty = match ty {
                CType::Int => Type::INT16,
                CType::Named(n) => match elab.enums.types.get(n) {
                    Some(e) => Type::Enum(e.clone()),
                    None => return err(format!("unknown type {n}")),
                },
                CType::Void => return err(format!("variable {name} cannot be void")),
            };
            let init_v = match init {
                Some(e) => elab.const_value(e)?,
                None => ir_ty.default_value(),
            };
            if !ir_ty.admits(&init_v) {
                return err(format!("initializer for {name} has the wrong type"));
            }
            let id = builder.var(name.clone(), ir_ty.clone(), init_v);
            elab.vars.insert(name.clone(), id);
            var_tys.insert(name.clone(), ir_ty);
        }
    }

    // The switch, with the statements before and after it.
    let mut switches = body.iter().enumerate().filter_map(|(i, s)| match s {
        CStmt::Switch(scrutinee, arms) => Some((i, scrutinee, arms)),
        _ => None,
    });
    let Some((at, scrutinee, arms)) = switches.next() else {
        return err("module function must contain a switch over its state variable");
    };
    if switches.next().is_some() {
        return err("module function must contain exactly one switch");
    }
    let CExpr::Ident(state_var) = scrutinee else {
        return err("switch scrutinee must be the state variable");
    };
    let Some(Type::Enum(state_enum)) = var_tys.get(state_var).cloned() else {
        return err(format!(
            "state variable {state_var} must be an enum-typed global"
        ));
    };
    // Initial state = the state variable's initial value.
    let initial = unit
        .decls
        .iter()
        .find_map(|d| match d {
            CDecl::Global { name, init, .. } if name == state_var => Some(init.clone()),
            _ => None,
        })
        .flatten()
        .map(|e| elab.const_value(&e))
        .transpose()?
        .map(|v| match v {
            Value::Enum(ev) => Ok(ev.index() as usize),
            other => err::<usize>(format!("state variable initializer {other} is not a state")),
        })
        .transpose()?
        .unwrap_or(0);
    let state = StateVar {
        id: elab.vars[state_var],
        ty: state_enum,
        initial,
    };
    translate_states(
        &mut builder,
        state,
        arms.iter().map(|a| (a.label.as_deref(), &a.body[..])),
        &body[..at],
        &body[at + 1..],
        |stmts, targets, out| elab.lower_stmts(stmts, state_var, targets, out),
    )?;
    builder.build().map_err(ElabError::from_display)
}

/// Parses and elaborates in one step.
///
/// # Errors
///
/// Propagates parse errors (as [`ElabError`]) and elaboration errors.
pub fn compile_module(
    src: &str,
    function: &str,
    kind: ModuleKind,
    opts: &ElabOptions,
) -> Result<Module, ElabError> {
    let unit = parse(src).map_err(ElabError::from_display)?;
    elaborate(&unit, function, kind, opts)
}
