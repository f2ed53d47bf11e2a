//! Elaboration: VHDL subset AST → unified IR.
//!
//! Each process of an architecture becomes one IR [`Module`] (hardware
//! kind). Architecture signals become *nets* shared by the processes: the
//! co-simulation backplane allocates one kernel signal per net and binds
//! every process module's like-named port to it — exactly VHDL's
//! signal semantics under our one-activation-per-cycle execution.
//!
//! A process whose body is a `case` over an enum variable elaborates with
//! the state-variable translation both front-ends share; other processes
//! become single-state FSMs whose statements run every activation.

use crate::elab::{err, translate_states, ElabError, ElabOptions, Enums, Services, StateVar};
use crate::vhdl::ast::{VDesign, VEntity, VExpr, VProcess, VStmt, VType};
use crate::vhdl::parser::parse;
use cosma_core::ids::{PortId, VarId};
use cosma_core::{
    Bit, EnumType, Expr, Module, ModuleBuilder, ModuleKind, PortDir, Stmt, Type, Value,
};
use std::collections::HashMap;
use std::sync::Arc;

/// A net of the elaborated entity: an architecture signal or entity port,
/// to be realized as one kernel signal shared by the process modules.
#[derive(Debug, Clone, PartialEq)]
pub struct NetSpec {
    /// Net name (upper case, as in the source).
    pub name: String,
    /// IR type.
    pub ty: Type,
    /// Initial value.
    pub init: Value,
    /// Direction at the entity boundary (`None` for internal signals).
    pub dir: Option<PortDir>,
}

/// An elaborated entity: one module per process plus the shared nets.
#[derive(Debug, Clone)]
pub struct HwEntity {
    /// Entity name (upper case).
    pub name: String,
    /// All nets: entity ports first, then architecture signals.
    pub nets: Vec<NetSpec>,
    /// One hardware module per process. Every module's port table lists
    /// all nets in the same order, so like-named ports share net indexes.
    pub modules: Vec<Module>,
}

impl HwEntity {
    /// Finds a net index by name.
    #[must_use]
    pub fn net_index(&self, name: &str) -> Option<usize> {
        let upper = name.to_uppercase();
        self.nets.iter().position(|n| n.name == upper)
    }
}

fn vtype_to_ir(ty: &VType, enums: &Enums) -> Result<Type, ElabError> {
    Ok(match ty {
        VType::StdLogic => Type::Bit,
        VType::Integer => Type::INT16,
        VType::Boolean => Type::Bool,
        VType::Named(n) => match enums.types.get(n) {
            Some(e) => Type::Enum(e.clone()),
            None => return err(format!("unknown type {n}")),
        },
    })
}

fn const_value(e: &VExpr, enums: &Enums) -> Result<Value, ElabError> {
    Ok(match e {
        VExpr::Int(i) => Value::Int(*i),
        VExpr::Bool(b) => Value::Bool(*b),
        VExpr::Char(c) => Value::Bit(Bit::from_char(*c).map_err(ElabError::from_display)?),
        VExpr::Ident(name) => match enums.value(name) {
            Some(v) => v,
            None => return err(format!("initializer {name} is not a constant")),
        },
        VExpr::Unary("-", inner) => match const_value(inner, enums)? {
            Value::Int(i) => Value::Int(-i),
            other => return err(format!("cannot negate {other}")),
        },
        other => return err(format!("unsupported constant initializer {other:?}")),
    })
}

struct ProcElab<'a> {
    vars: HashMap<String, VarId>,
    ports: HashMap<String, PortId>,
    enums: &'a Enums,
    services: Services,
}

impl ProcElab<'_> {
    fn lower_expr(&self, e: &VExpr) -> Result<Expr, ElabError> {
        Ok(match e {
            VExpr::Int(i) => Expr::int(*i),
            VExpr::Bool(b) => Expr::bool(*b),
            VExpr::Char(c) => Expr::bit(Bit::from_char(*c).map_err(ElabError::from_display)?),
            VExpr::Ident(name) => {
                if let Some(&v) = self.vars.get(name) {
                    Expr::var(v)
                } else if let Some(&p) = self.ports.get(name) {
                    Expr::port(p)
                } else if let Some(v) = self.enums.value(name) {
                    Expr::Const(v)
                } else if let Some(rest) = name.strip_suffix("_DONE") {
                    match self.services.get(rest) {
                        Some(service) => Expr::var(service.done),
                        None => return err(format!("unknown service in {name}")),
                    }
                } else if let Some(rest) = name.strip_suffix("_RESULT") {
                    match self.services.get(rest) {
                        Some(service) => Expr::var(service.result),
                        None => return err(format!("unknown service in {name}")),
                    }
                } else {
                    return err(format!("unknown identifier {name}"));
                }
            }
            VExpr::Unary("not", inner) => self.lower_expr(inner)?.not(),
            VExpr::Unary("-", inner) => self.lower_expr(inner)?.neg(),
            VExpr::Unary(op, _) => return err(format!("unsupported unary {op}")),
            VExpr::Binary(op, a, b) => {
                let a = self.lower_expr(a)?;
                let b = self.lower_expr(b)?;
                match *op {
                    "+" => a.add(b),
                    "-" => a.sub(b),
                    "*" => a.mul(b),
                    "/" => a.div(b),
                    "mod" => Expr::Binary(cosma_core::BinOp::Rem, Box::new(a), Box::new(b)),
                    "=" => a.eq(b),
                    "/=" => a.ne(b),
                    "<" => a.lt(b),
                    "<=" => a.le(b),
                    ">" => a.gt(b),
                    ">=" => a.ge(b),
                    "and" => a.and(b),
                    "or" => a.or(b),
                    "xor" => Expr::Binary(cosma_core::BinOp::Xor, Box::new(a), Box::new(b)),
                    other => return err(format!("unsupported operator {other}")),
                }
            }
        })
    }

    fn lower_stmts(
        &self,
        stmts: &[VStmt],
        state_var: Option<&str>,
        targets: &mut Vec<String>,
        out: &mut Vec<Stmt>,
    ) -> Result<(), ElabError> {
        for s in stmts {
            match s {
                VStmt::Null | VStmt::Wait => {}
                VStmt::VarAssign(name, rhs) => {
                    if Some(name.as_str()) == state_var {
                        if let VExpr::Ident(variant) = rhs {
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
                    let e = self.lower_expr(rhs)?;
                    out.push(Stmt::assign(v, e));
                }
                VStmt::SigAssign(name, rhs) => {
                    let Some(&p) = self.ports.get(name) else {
                        return err(format!("signal assignment to unknown signal {name}"));
                    };
                    let e = self.lower_expr(rhs)?;
                    out.push(Stmt::drive(p, e));
                }
                VStmt::If { arms, else_body } => {
                    // Build nested if/else from the elsif chain.
                    let mut lowered_else = vec![];
                    self.lower_stmts(else_body, state_var, targets, &mut lowered_else)?;
                    let mut acc = lowered_else;
                    for (cond, body) in arms.iter().rev() {
                        let c = self.lower_expr(cond)?;
                        let mut b = vec![];
                        self.lower_stmts(body, state_var, targets, &mut b)?;
                        acc = vec![Stmt::if_else(c, b, acc)];
                    }
                    out.append(&mut acc);
                }
                VStmt::Call(name, args) => {
                    let service = self.services.called(name)?;
                    let mut ir_args = Vec::with_capacity(args.len());
                    for a in args {
                        ir_args.push(self.lower_expr(a)?);
                    }
                    out.push(service.call(name, ir_args));
                }
                VStmt::Case { .. } => {
                    return err("nested case statements are not supported");
                }
            }
        }
        Ok(())
    }
}

/// Elaborates one entity (all its processes) into IR modules + nets.
///
/// # Errors
///
/// Returns [`ElabError`] when the source uses features outside the subset
/// or references unknown identifiers/services.
pub fn elaborate_entity(entity: &VEntity, opts: &ElabOptions) -> Result<HwEntity, ElabError> {
    let enums = Enums::new(entity.enums.iter().map(|(name, vs)| (name, vs)))?;

    // Nets: entity ports then architecture signals.
    let mut nets = vec![];
    for p in &entity.ports {
        let ty = vtype_to_ir(&p.ty, &enums)?;
        let dir = match p.dir.as_str() {
            "IN" => PortDir::In,
            "OUT" => PortDir::Out,
            _ => PortDir::InOut,
        };
        nets.push(NetSpec {
            name: p.name.clone(),
            init: ty.default_value(),
            ty,
            dir: Some(dir),
        });
    }
    for (name, ty, init) in &entity.signals {
        let ty = vtype_to_ir(ty, &enums)?;
        let init = match init {
            Some(e) => const_value(e, &enums)?,
            None => ty.default_value(),
        };
        if !ty.admits(&init) {
            return err(format!("initializer for signal {name} has the wrong type"));
        }
        nets.push(NetSpec {
            name: name.clone(),
            ty,
            init,
            dir: None,
        });
    }

    let mut modules = vec![];
    for proc in &entity.processes {
        modules.push(elaborate_process(entity, proc, &nets, &enums, opts)?);
    }
    Ok(HwEntity {
        name: entity.name.clone(),
        nets,
        modules,
    })
}

fn elaborate_process(
    entity: &VEntity,
    proc: &VProcess,
    nets: &[NetSpec],
    enums: &Enums,
    opts: &ElabOptions,
) -> Result<Module, ElabError> {
    let mut builder = ModuleBuilder::new(
        format!("{}_{}", entity.name, proc.name).to_lowercase(),
        ModuleKind::Hardware,
    );

    // Which nets does this process write?
    let mut written: Vec<String> = vec![];
    collect_sig_writes(&proc.body, &mut written);

    // Ports: all nets, direction per usage (entity-port direction is kept
    // unless the process writes an internal signal).
    let mut ports = HashMap::new();
    for n in nets {
        let dir = match n.dir {
            Some(d) => d,
            None => {
                if written.contains(&n.name) {
                    PortDir::Out
                } else {
                    PortDir::In
                }
            }
        };
        let id = builder.port(n.name.clone(), dir, n.ty.clone());
        ports.insert(n.name.clone(), id);
    }

    let services = Services::bind(&mut builder, opts, str::to_uppercase)?;

    // Process variables.
    let mut vars = HashMap::new();
    let mut state_candidate: Option<(String, Arc<EnumType>, usize)> = None;
    for (name, ty, init) in &proc.vars {
        let ir_ty = vtype_to_ir(ty, enums)?;
        let init_v = match init {
            Some(e) => const_value(e, enums)?,
            None => ir_ty.default_value(),
        };
        if !ir_ty.admits(&init_v) {
            return err(format!(
                "initializer for variable {name} has the wrong type"
            ));
        }
        if let (Type::Enum(e), Value::Enum(ev)) = (&ir_ty, &init_v) {
            state_candidate = Some((name.clone(), e.clone(), ev.index() as usize));
        }
        let id = builder.var(name.clone(), ir_ty, init_v);
        vars.insert(name.clone(), id);
    }

    let elab = ProcElab {
        vars,
        ports,
        enums,
        services,
    };

    // Find a case over an enum variable.
    let mut cases = proc.body.iter().enumerate().filter_map(|(i, s)| match s {
        VStmt::Case { scrutinee, arms } => Some((i, scrutinee, arms)),
        _ => None,
    });
    let the_case = cases.next();
    if cases.next().is_some() {
        return err("process must contain at most one top-level case");
    }

    if let Some((at, scrutinee, arms)) = the_case {
        let Some((sv_name, state_enum, initial)) = state_candidate
            .filter(|(n, _, _)| n == scrutinee)
            .or_else(|| {
                // The state variable may not be the last enum declared;
                // find it by name.
                proc.vars.iter().find_map(|(n, ty, init)| {
                    if n != scrutinee {
                        return None;
                    }
                    let VType::Named(tn) = ty else { return None };
                    let e = enums.types.get(tn)?;
                    let idx = match init {
                        Some(VExpr::Ident(v)) => e.index_of(v)? as usize,
                        _ => 0,
                    };
                    Some((n.clone(), e.clone(), idx))
                })
            })
        else {
            return err(format!(
                "case scrutinee {scrutinee} must be an enum-typed variable"
            ));
        };
        let state = StateVar {
            id: elab.vars[&sv_name],
            ty: state_enum,
            initial,
        };
        translate_states(
            &mut builder,
            state,
            arms.iter()
                .map(|(label, body)| (label.as_deref(), &body[..])),
            &proc.body[..at],
            &proc.body[at + 1..],
            |stmts, targets, out| elab.lower_stmts(stmts, Some(&sv_name), targets, out),
        )?;
    } else {
        // Straight-line process: one state, all statements every cycle.
        let sid = builder.state("BODY");
        let mut actions = vec![];
        let mut targets = vec![];
        elab.lower_stmts(&proc.body, None, &mut targets, &mut actions)?;
        builder.actions(sid, actions);
        builder.transition(sid, None, sid);
        builder.initial(sid);
    }
    builder.build().map_err(ElabError::from_display)
}

fn collect_sig_writes(stmts: &[VStmt], out: &mut Vec<String>) {
    for s in stmts {
        match s {
            VStmt::SigAssign(name, _) if !out.contains(name) => {
                out.push(name.clone());
            }
            VStmt::SigAssign(_, _) => {}
            VStmt::If { arms, else_body } => {
                for (_, b) in arms {
                    collect_sig_writes(b, out);
                }
                collect_sig_writes(else_body, out);
            }
            VStmt::Case { arms, .. } => {
                for (_, b) in arms {
                    collect_sig_writes(b, out);
                }
            }
            _ => {}
        }
    }
}

/// Parses and elaborates a single-entity design in one step.
///
/// # Errors
///
/// Propagates parse errors (as [`ElabError`]) and elaboration errors.
pub fn compile_entity(src: &str, entity: &str, opts: &ElabOptions) -> Result<HwEntity, ElabError> {
    let design: VDesign = parse(src).map_err(ElabError::from_display)?;
    let Some(e) = design.entity(entity) else {
        return err(format!("no entity named {entity}"));
    };
    elaborate_entity(e, opts)
}
