//! Figure 6 — the Distribution sub-system from its C source.
//!
//! Feeds the paper's Figure 6b C code (completed where the figure elides
//! arms) through the C front-end and executes it with stub services,
//! printing the state trace — exactly one transition per activation, the
//! paper's software synchronization rule.

use cosma_bench::{distribution_options, DISTRIBUTION_SRC};
use cosma_core::ids::VarId;
use cosma_core::{
    Env, EvalError, FsmExec, MapEnv, ModuleKind, ReadEnv, ServiceCall, ServiceOutcome, Value,
};
use cosma_frontend::c::compile_module;

/// Stub services: each completes on its second call, returning the last
/// MotorPosition argument as the motor state.
struct Stubs {
    inner: MapEnv,
    tries: std::collections::HashMap<String, u32>,
    last_pos: i64,
    calls: Vec<String>,
}

impl ReadEnv for Stubs {
    fn read_var(&self, v: VarId) -> Option<&Value> {
        self.inner.read_var(v)
    }
    fn read_port(&self, p: cosma_core::ids::PortId) -> Option<&Value> {
        self.inner.read_port(p)
    }
}

impl Env for Stubs {
    fn write_var(&mut self, v: VarId, value: Value) -> Result<(), EvalError> {
        self.inner.write_var(v, value)
    }
    fn drive_port(&mut self, p: cosma_core::ids::PortId, value: Value) -> Result<(), EvalError> {
        self.inner.drive_port(p, value)
    }
    fn call_service(
        &mut self,
        call: &ServiceCall,
        args: &[Value],
    ) -> Result<ServiceOutcome, EvalError> {
        self.calls.push(call.service.to_string());
        if &*call.service == "MotorPosition" {
            if let Some(Value::Int(p)) = args.first() {
                self.last_pos = *p;
            }
        }
        let n = self.tries.entry(call.service.to_string()).or_insert(0);
        *n += 1;
        if n.is_multiple_of(2) {
            Ok(ServiceOutcome::done_with(Value::Int(self.last_pos)))
        } else {
            Ok(ServiceOutcome::pending())
        }
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("=== Figure 6: the Distribution sub-system, from C source ===\n");
    let opts = distribution_options();
    let module = compile_module(
        DISTRIBUTION_SRC,
        "DISTRIBUTION",
        ModuleKind::Software,
        &opts,
    )?;
    println!(
        "elaborated: {} states, {} variables, binding `{}`",
        module.fsm().state_count(),
        module.vars().len(),
        module.bindings()[0].name()
    );

    let mut env = Stubs {
        inner: MapEnv::new(),
        tries: Default::default(),
        last_pos: 0,
        calls: vec![],
    };
    for v in module.vars() {
        env.inner.add_var(v.ty().clone(), v.init().clone());
    }
    let fsm = module.fsm();
    let mut exec = FsmExec::new(fsm);
    let pos = module.var_id("POSITION").expect("var exists");

    println!("\nactivation trace (one transition per activation):");
    println!(
        "{:>5} {:>20} -> {:<20} {:>9}",
        "act", "from", "to", "POSITION"
    );
    for act in 1..=60 {
        let from = fsm.state(exec.current()).name().to_string();
        exec.step(fsm, &mut env)?;
        let to = fsm.state(exec.current()).name().to_string();
        let p = env.inner.var(pos).as_int().unwrap_or(0);
        if from != to || act <= 6 {
            println!("{act:>5} {from:>20} -> {to:<20} {p:>9}");
        }
        if to == "NextStep" && p >= 100 {
            // One more step proves it parks.
            exec.step(fsm, &mut env)?;
            break;
        }
    }
    println!(
        "\nservice call sequence (first 12): {:?}",
        &env.calls[..env.calls.len().min(12)]
    );
    println!("total service calls: {}", env.calls.len());

    // Render the module back to C — the same shape as the figure.
    let c_text = cosma_core::render_module(&module, cosma_core::View::SwSim);
    println!("\nregenerated C view (excerpt):");
    for line in c_text.lines().take(14) {
        println!("  {line}");
    }
    Ok(())
}
