//! # cosma-cfront — C subset front-end
//!
//! Parses the paper's C module style (Figure 6b: a `switch`-based FSM over
//! an enum state table, calling communication procedures) and elaborates
//! it into the unified IR, from which both co-simulation and co-synthesis
//! proceed.
//!
//! ## Example
//!
//! ```
//! use cosma_cfront::{compile_module, ElabOptions, ServiceBinding};
//! use cosma_core::ModuleKind;
//!
//! let src = r#"
//! typedef enum { Start, PingCall, Done } ST;
//! ST NextState = Start;
//! int DEMO() {
//!     switch (NextState) {
//!         case Start:    { NextState = PingCall; } break;
//!         case PingCall: { if (ping()) { NextState = Done; } } break;
//!         case Done:     { } break;
//!         default:       { NextState = Start; }
//!     }
//!     return 1;
//! }
//! "#;
//! let opts = ElabOptions {
//!     bindings: vec![ServiceBinding::new("iface", "link", &["ping"])],
//! };
//! let module = compile_module(src, "DEMO", ModuleKind::Software, &opts)?;
//! assert_eq!(module.fsm().state_count(), 3);
//! assert_eq!(module.name(), "demo");
//! # Ok::<(), cosma_cfront::ElabError>(())
//! ```

#![warn(missing_docs)]

pub mod ast;
mod elab;
mod lexer;
mod parser;

pub use elab::{compile_module, elaborate, ElabError, ElabOptions, ServiceBinding};
pub use lexer::{lex, LexError, Spanned, Tok};
pub use parser::{parse, ParseError};

#[cfg(test)]
mod tests {
    use super::*;
    use cosma_core::ids::VarId;
    use cosma_core::{
        Env, EvalError, FsmExec, MapEnv, ModuleKind, ReadEnv, ServiceCall, ServiceOutcome, Value,
    };

    /// The paper's Figure 6b Distribution subsystem, lightly completed
    /// (the figure elides some case arms).
    const DISTRIBUTION_SRC: &str = r#"
typedef enum { Start, SetupControlCall, Step, MotorPositionCall, Next, ReadStateCall, NextStep } DIST_STATES;
DIST_STATES NextState = Start;
int POSITION = 0;
int MOTORSTATE = 0;
int SEGMENTS = 4;

int DISTRIBUTION()
{
    switch (NextState) {
    case Start:
    {
        /* LoadMotorConstraints */
        POSITION = 0;
        NextState = SetupControlCall;
    } break;
    case SetupControlCall:
    {
        if (SetupControl()) { NextState = Step; }
    } break;
    case Step:
    {
        /* PositionDefinition */
        POSITION = POSITION + 25;
        NextState = MotorPositionCall;
    } break;
    case MotorPositionCall:
    {
        if (MotorPosition(POSITION)) { NextState = Next; }
    } break;
    case Next:
    {
        NextState = ReadStateCall;
    } break;
    case ReadStateCall:
    {
        if (ReadMotorState()) {
            MOTORSTATE = ReadMotorState_RESULT();
            NextState = NextStep;
        }
    } break;
    case NextStep:
    {
        if (POSITION < SEGMENTS * 25) { NextState = Step; }
    } break;
    default:
    { NextState = Start; }
    }
    return 1;
}
"#;

    fn distribution_opts() -> ElabOptions {
        ElabOptions {
            bindings: vec![ServiceBinding::new(
                "Distribution_Interface",
                "swhw_link",
                &["SetupControl", "MotorPosition", "ReadMotorState"],
            )],
        }
    }

    /// An Env that answers every service call with "done every 2nd try",
    /// recording the calls, to emulate a communication unit.
    struct StubServices {
        inner: MapEnv,
        tries: std::collections::HashMap<String, u32>,
        log: Vec<(String, Vec<Value>)>,
    }

    impl ReadEnv for StubServices {
        fn read_var(&self, v: VarId) -> Result<Value, EvalError> {
            self.inner.read_var(v)
        }
        fn read_port(&self, p: cosma_core::ids::PortId) -> Result<Value, EvalError> {
            self.inner.read_port(p)
        }
    }

    impl Env for StubServices {
        fn write_var(&mut self, v: VarId, value: Value) -> Result<(), EvalError> {
            self.inner.write_var(v, value)
        }
        fn drive_port(
            &mut self,
            p: cosma_core::ids::PortId,
            value: Value,
        ) -> Result<(), EvalError> {
            self.inner.drive_port(p, value)
        }
        fn call_service(
            &mut self,
            call: &ServiceCall,
            args: &[Value],
        ) -> Result<ServiceOutcome, EvalError> {
            self.log.push((call.service.to_string(), args.to_vec()));
            let n = self.tries.entry(call.service.to_string()).or_insert(0);
            *n += 1;
            if n.is_multiple_of(2) {
                Ok(ServiceOutcome::done_with(Value::Int(7)))
            } else {
                Ok(ServiceOutcome::pending())
            }
        }
    }

    #[test]
    fn distribution_elaborates() {
        let m = compile_module(
            DISTRIBUTION_SRC,
            "DISTRIBUTION",
            ModuleKind::Software,
            &distribution_opts(),
        )
        .unwrap();
        assert_eq!(m.fsm().state_count(), 7);
        assert!(m.fsm().find_state("SetupControlCall").is_some());
        assert_eq!(m.bindings().len(), 1);
        assert_eq!(m.kind(), ModuleKind::Software);
        // Hidden service variables exist.
        assert!(m.var_id("__done_SetupControl").is_some());
        assert!(m.var_id("__res_ReadMotorState").is_some());
    }

    #[test]
    fn distribution_executes_one_transition_per_activation() {
        let m = compile_module(
            DISTRIBUTION_SRC,
            "DISTRIBUTION",
            ModuleKind::Software,
            &distribution_opts(),
        )
        .unwrap();
        let mut env = StubServices {
            inner: MapEnv::new(),
            tries: Default::default(),
            log: vec![],
        };
        for v in m.vars() {
            env.inner.add_var(v.ty().clone(), v.init().clone());
        }
        let fsm = m.fsm();
        let mut exec = FsmExec::new(fsm);
        assert_eq!(fsm.state(exec.current()).name(), "Start");
        exec.step(fsm, &mut env).unwrap();
        assert_eq!(fsm.state(exec.current()).name(), "SetupControlCall");
        // First SetupControl call is pending -> stay.
        exec.step(fsm, &mut env).unwrap();
        assert_eq!(fsm.state(exec.current()).name(), "SetupControlCall");
        // Second call completes -> Step.
        exec.step(fsm, &mut env).unwrap();
        assert_eq!(fsm.state(exec.current()).name(), "Step");
        assert_eq!(
            env.log.iter().filter(|(s, _)| s == "SetupControl").count(),
            2
        );
    }

    #[test]
    fn distribution_full_run_covers_segments() {
        let m = compile_module(
            DISTRIBUTION_SRC,
            "DISTRIBUTION",
            ModuleKind::Software,
            &distribution_opts(),
        )
        .unwrap();
        let mut env = StubServices {
            inner: MapEnv::new(),
            tries: Default::default(),
            log: vec![],
        };
        for v in m.vars() {
            env.inner.add_var(v.ty().clone(), v.init().clone());
        }
        let fsm = m.fsm();
        let mut exec = FsmExec::new(fsm);
        for _ in 0..200 {
            exec.step(fsm, &mut env).unwrap();
        }
        // All four segment positions were sent via MotorPosition.
        let positions: Vec<i64> = env
            .log
            .iter()
            .filter(|(s, _)| s == "MotorPosition")
            .map(|(_, a)| a[0].as_int().unwrap())
            .collect();
        assert!(positions.contains(&25));
        assert!(positions.contains(&100));
        // MOTORSTATE got the stub result.
        let ms = m.var_id("MOTORSTATE").unwrap();
        assert_eq!(env.inner.var(ms), &Value::Int(7));
        // Ends parked in NextStep.
        assert_eq!(fsm.state(exec.current()).name(), "NextStep");
    }

    #[test]
    fn unknown_service_reported() {
        let src = r#"
typedef enum { A } ST;
ST S = A;
int F() { switch (S) { case A: { if (Mystery()) { S = A; } } break; } return 1; }
"#;
        let e =
            compile_module(src, "F", ModuleKind::Software, &ElabOptions::default()).unwrap_err();
        assert!(e.to_string().contains("Mystery"), "{e}");
    }

    #[test]
    fn missing_switch_reported() {
        let src = "int F() { return 1; }\n";
        let e =
            compile_module(src, "F", ModuleKind::Software, &ElabOptions::default()).unwrap_err();
        assert!(e.to_string().contains("switch"), "{e}");
    }

    #[test]
    fn non_enum_state_var_reported() {
        let src = "int S = 0;\nint F() { switch (S) { case A: { } break; } return 1; }\n";
        let e =
            compile_module(src, "F", ModuleKind::Software, &ElabOptions::default()).unwrap_err();
        assert!(e.to_string().contains("enum"), "{e}");
    }

    #[test]
    fn bad_case_label_reported() {
        let src = r#"
typedef enum { A } ST;
ST S = A;
int F() { switch (S) { case B: { } break; } return 1; }
"#;
        let e =
            compile_module(src, "F", ModuleKind::Software, &ElabOptions::default()).unwrap_err();
        assert!(e.to_string().contains('B'), "{e}");
    }

    #[test]
    fn initial_state_follows_initializer() {
        let src = r#"
typedef enum { A, B } ST;
ST S = B;
int F() { switch (S) { case A: { } break; case B: { S = A; } break; } return 1; }
"#;
        let m = compile_module(src, "F", ModuleKind::Software, &ElabOptions::default()).unwrap();
        assert_eq!(m.fsm().state(m.fsm().initial()).name(), "B");
    }

    #[test]
    fn full_operator_repertoire_elaborates_and_runs() {
        let src = r#"
typedef enum { A, B } ST;
ST S = A;
int R1 = 0;
int R2 = 0;
int R3 = 0;
int R4 = 0;
int F() {
    switch (S) {
    case A:
    {
        R1 = (13 % 5) ^ 3;
        R2 = (1 << 4) >> 2;
        R3 = -7 / 2;
        R4 = 6 > 2 && 3 != 4;
        S = B;
    } break;
    case B: { } break;
    }
    return 1;
}
"#;
        let m = compile_module(src, "F", ModuleKind::Software, &ElabOptions::default()).unwrap();
        let mut env = MapEnv::new();
        for v in m.vars() {
            env.add_var(v.ty().clone(), v.init().clone());
        }
        let mut exec = FsmExec::new(m.fsm());
        exec.step(m.fsm(), &mut env).unwrap();
        assert_eq!(env.var(m.var_id("R1").unwrap()), &Value::Int((13 % 5) ^ 3));
        assert_eq!(env.var(m.var_id("R2").unwrap()), &Value::Int((1 << 4) >> 2));
        assert_eq!(env.var(m.var_id("R3").unwrap()), &Value::Int(-7 / 2));
        assert_eq!(env.var(m.var_id("R4").unwrap()), &Value::Bool(true));
    }

    /// A module whose one case arm nests `blocks` braces around
    /// `X = operand;`. The switch, the case block, the assignment and
    /// its operand add four levels to `blocks` and to the operand's own
    /// nesting.
    fn nested_module(blocks: usize, operand: &str) -> String {
        format!(
            "typedef enum {{ A }} ST;\nST S = A;\nint X = 0;\nint F() {{\n  switch (S) {{\n  \
             case A: {{ {}X = {operand};{} }} break;\n  }}\n  return 1;\n}}\n",
            "{".repeat(blocks),
            "}".repeat(blocks),
        )
    }

    /// Operands nesting `n` levels: `1` in `n` parentheses, and a chain
    /// of `n` additions (`((1 + 1) + 1) + ...`).
    fn nested_operands(n: usize) -> [String; 2] {
        [
            format!("{}1{}", "(".repeat(n), ")".repeat(n)),
            format!("1{}", " + 1".repeat(n)),
        ]
    }

    #[test]
    fn nesting_at_the_limit_compiles() {
        let limit = crate::parser::MAX_NESTING - 4;
        let [parens, chain] = nested_operands(limit);
        for (blocks, operand) in [(limit, "1"), (0, &parens), (0, &chain)] {
            let src = nested_module(blocks, operand);
            let m =
                compile_module(&src, "F", ModuleKind::Software, &ElabOptions::default()).unwrap();
            assert_eq!(m.fsm().state_count(), 1);
        }
    }

    #[test]
    fn nesting_past_the_limit_is_a_parse_error() {
        for past in [crate::parser::MAX_NESTING - 3, 100_000] {
            let [parens, chain] = nested_operands(past);
            for (blocks, operand) in [(past, "1"), (0, &parens), (0, &chain)] {
                let src = nested_module(blocks, operand);
                let e = parse(&src).unwrap_err();
                assert!(e.message.contains("nesting"), "{past}: {e}");
                let e = compile_module(&src, "F", ModuleKind::Software, &ElabOptions::default())
                    .unwrap_err();
                assert!(e.to_string().contains("nesting"), "{past}: {e}");
            }
        }
    }

    #[test]
    fn prologue_runs_every_activation() {
        let src = r#"
typedef enum { A, B } ST;
ST S = A;
int TICKS = 0;
int F() {
    TICKS = TICKS + 1;
    switch (S) { case A: { S = B; } break; case B: { S = A; } break; }
    return 1;
}
"#;
        let m = compile_module(src, "F", ModuleKind::Software, &ElabOptions::default()).unwrap();
        let mut env = MapEnv::new();
        for v in m.vars() {
            env.add_var(v.ty().clone(), v.init().clone());
        }
        let mut exec = FsmExec::new(m.fsm());
        for _ in 0..5 {
            exec.step(m.fsm(), &mut env).unwrap();
        }
        let ticks = m.var_id("TICKS").unwrap();
        assert_eq!(env.var(ticks), &Value::Int(5));
    }
}
