//! What the two elaborators share: the binding, option and error types,
//! the enum tables, the hidden service variables, and the translation of
//! a `switch`/`case` over an enum-typed state variable into FSM states.
//!
//! That translation keeps the paper's execution model intact: the module
//! runs its body once per activation. The state variable stays a real
//! module variable: each variant becomes one FSM state whose *actions*
//! are the body with the variant's arm (including `NextState = X;`
//! assignments), and for every variant `X` those actions assign there is
//! a transition guarded by `NextState == X`. Guards are evaluated after
//! actions, so the FSM's current state always mirrors the variable, and
//! arbitrary control flow (nested ifs, service calls in conditions)
//! lowers exactly.

use cosma_core::ids::{BindingId, VarId};
use cosma_core::{EnumType, EnumValue, Expr, ModuleBuilder, ServiceCall, Stmt, Type, Value};
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::sync::Arc;

/// Declares that a set of service names is reachable through a named
/// interface binding of a given unit type (e.g. the paper's
/// `Distribution_Interface` or `Motor_Interface`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceBinding {
    /// Binding (interface) name, e.g. `"Distribution_Interface"`.
    pub binding: String,
    /// Communication-unit type name the binding expects.
    pub unit_type: String,
    /// Services reachable through this binding (VHDL calls match them
    /// case-insensitively).
    pub services: Vec<String>,
}

impl ServiceBinding {
    /// Convenience constructor.
    #[must_use]
    pub fn new(binding: &str, unit_type: &str, services: &[&str]) -> Self {
        ServiceBinding {
            binding: binding.to_string(),
            unit_type: unit_type.to_string(),
            services: services.iter().map(|s| (*s).to_string()).collect(),
        }
    }
}

/// Elaboration options.
#[derive(Debug, Clone, Default)]
pub struct ElabOptions {
    /// Interface bindings available to the module (in VHDL, to every
    /// process of the entity).
    pub bindings: Vec<ServiceBinding>,
}

/// Elaboration error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ElabError {
    /// Problem description.
    pub message: String,
}

impl ElabError {
    /// An error carrying `e`'s text.
    pub(crate) fn from_display(e: impl fmt::Display) -> Self {
        ElabError {
            message: e.to_string(),
        }
    }
}

impl fmt::Display for ElabError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for ElabError {}

pub(crate) fn err<T>(message: impl Into<String>) -> Result<T, ElabError> {
    Err(ElabError {
        message: message.into(),
    })
}

/// The value at `idx` of `ty`, an index taken from `ty`'s own variants.
fn variant(ty: &Arc<EnumType>, idx: u32) -> Value {
    Value::Enum(EnumValue::from_index(ty.clone(), idx).expect("variant index from the same table"))
}

/// The enum types a unit declares, and the variants they name.
pub(crate) struct Enums {
    /// Enum types by name.
    pub(crate) types: HashMap<String, Arc<EnumType>>,
    /// Each variant's type and index.
    variants: HashMap<String, (Arc<EnumType>, u32)>,
}

impl Enums {
    /// The tables of `(name, variants)` declarations.
    ///
    /// # Errors
    ///
    /// An enum without variants, which has no value to start from, and an
    /// enum or variant name declared twice (a variant by one enum or by
    /// two), which would leave the name's meaning ambiguous.
    pub(crate) fn new<'a>(
        decls: impl IntoIterator<Item = (&'a String, &'a Vec<String>)>,
    ) -> Result<Self, ElabError> {
        let mut enums = Enums {
            types: HashMap::new(),
            variants: HashMap::new(),
        };
        for (name, vs) in decls {
            if vs.is_empty() {
                return err(format!("enum {name} has no variants"));
            }
            if enums.types.contains_key(name) {
                return err(format!("enum {name} is declared twice"));
            }
            let ty = EnumType::new(name.clone(), vs.clone());
            for (i, v) in vs.iter().enumerate() {
                if let Some((first, _)) = enums.variants.insert(v.clone(), (ty.clone(), i as u32)) {
                    return err(if Arc::ptr_eq(&first, &ty) {
                        format!("variant {v} is declared twice in enum {name}")
                    } else {
                        format!(
                            "variant {v} is declared by both enum {} and enum {name}",
                            first.name()
                        )
                    });
                }
            }
            enums.types.insert(name.clone(), ty);
        }
        Ok(enums)
    }

    /// The constant a variant name stands for.
    pub(crate) fn value(&self, name: &str) -> Option<Value> {
        let (ty, idx) = self.variants.get(name)?;
        Some(variant(ty, *idx))
    }
}

/// A service's binding and the hidden variables its calls write: the
/// `__done_<svc>` completion flag and the `__res_<svc>` result register.
#[derive(Clone, Copy)]
pub(crate) struct Service {
    binding: BindingId,
    pub(crate) done: VarId,
    pub(crate) result: VarId,
}

impl Service {
    /// The statement calling this service as `name` with `args`.
    pub(crate) fn call(self, name: &str, args: Vec<Expr>) -> Stmt {
        Stmt::Call(ServiceCall {
            binding: self.binding,
            service: name.into(),
            args,
            done: Some(self.done),
            result: Some(self.result),
        })
    }
}

/// The services a module's bindings offer, by the name calls use, in
/// name order so that error text lists them the same way every run.
pub(crate) struct Services(BTreeMap<String, Service>);

impl Services {
    /// Declares every binding of `opts` on `builder`, with the hidden
    /// variables of each service it offers. `spell` gives the name calls
    /// use for a service: C keeps it, VHDL upper-cases it.
    ///
    /// # Errors
    ///
    /// A service offered twice, which would leave its calls ambiguous.
    pub(crate) fn bind(
        builder: &mut ModuleBuilder,
        opts: &ElabOptions,
        spell: fn(&str) -> String,
    ) -> Result<Self, ElabError> {
        let mut services = BTreeMap::new();
        let mut offered_by = HashMap::new();
        for sb in &opts.bindings {
            let binding = builder.binding(sb.binding.clone(), sb.unit_type.clone());
            for svc in &sb.services {
                let name = spell(svc);
                if let Some(first) = offered_by.insert(name.clone(), &sb.binding) {
                    return err(format!(
                        "service {name} is offered by both binding {first} and binding {}",
                        sb.binding
                    ));
                }
                let done = builder.var(format!("__done_{name}"), Type::Bool, Value::Bool(false));
                let result = builder.var(format!("__res_{name}"), Type::INT16, Value::Int(0));
                services.insert(
                    name,
                    Service {
                        binding,
                        done,
                        result,
                    },
                );
            }
        }
        Ok(Services(services))
    }

    pub(crate) fn get(&self, name: &str) -> Option<Service> {
        self.0.get(name).copied()
    }

    /// The service a call names, or an error listing the offered ones.
    pub(crate) fn called(&self, name: &str) -> Result<Service, ElabError> {
        match self.get(name) {
            Some(service) => Ok(service),
            None => err(format!(
                "call to unknown service {name} (bindings offer: {})",
                self.0.keys().cloned().collect::<Vec<_>>().join(", ")
            )),
        }
    }
}

/// The enum-typed variable a module's `switch`/`case` is over.
pub(crate) struct StateVar {
    pub(crate) id: VarId,
    pub(crate) ty: Arc<EnumType>,
    /// Index of the variant the variable starts at.
    pub(crate) initial: usize,
}

/// Builds the states of a module body made of `prologue`, a
/// `switch`/`case` over `state` with `arms` (label `None` for the
/// default arm), and `epilogue`. A variant's state runs the prologue, its
/// arm (else the default arm, else nothing) and the epilogue; `lower`
/// lowers statements into actions and records each state name they
/// assign to the variable, and each one recorded gets its guarded
/// transition.
///
/// # Errors
///
/// A label that is not a variant, a label or default arm that appears
/// twice, a target that is not a variant, and every error of `lower`.
pub(crate) fn translate_states<'a, S: 'a>(
    builder: &mut ModuleBuilder,
    state: StateVar,
    arms: impl IntoIterator<Item = (Option<&'a str>, &'a [S])>,
    prologue: &[S],
    epilogue: &[S],
    lower: impl Fn(&[S], &mut Vec<String>, &mut Vec<Stmt>) -> Result<(), ElabError>,
) -> Result<(), ElabError> {
    let mut arm_map: HashMap<&str, &[S]> = HashMap::new();
    let mut default_arm: Option<&[S]> = None;
    for (label, body) in arms {
        match label {
            Some(l) => {
                if state.ty.index_of(l).is_none() {
                    return err(format!(
                        "case label {l} is not a variant of {}",
                        state.ty.name()
                    ));
                }
                if arm_map.insert(l, body).is_some() {
                    return err(format!("case label {l} appears twice"));
                }
            }
            None => {
                if default_arm.replace(body).is_some() {
                    return err("default arm (`default:` / `when others`) appears twice");
                }
            }
        }
    }
    let state_ids: Vec<_> = state
        .ty
        .variants()
        .iter()
        .map(|v| builder.state(v.clone()))
        .collect();
    for (vname, &sid) in state.ty.variants().iter().zip(&state_ids) {
        let body = arm_map.get(vname.as_str()).copied().or(default_arm);
        let mut actions = vec![];
        let mut targets = vec![];
        lower(prologue, &mut targets, &mut actions)?;
        lower(body.unwrap_or(&[]), &mut targets, &mut actions)?;
        lower(epilogue, &mut targets, &mut actions)?;
        builder.actions(sid, actions);
        for target in targets {
            let Some(tidx) = state.ty.index_of(&target) else {
                return err(format!("state target {target} is not a variant"));
            };
            let guard = Expr::var(state.id).eq(Expr::Const(variant(&state.ty, tidx)));
            builder.transition(sid, Some(guard), state_ids[tidx as usize]);
        }
    }
    builder.initial(state_ids[state.initial]);
    Ok(())
}
