//! # cosma-frontend — the C and VHDL subset front-ends
//!
//! The paper describes a system as C and VHDL sub-systems written
//! against one model, and both languages share its module shape: a
//! `switch`/`case` over an enum-typed state variable, one state per
//! variant, with transitions guarded by `state_var == X`. The [`c`]
//! module parses the C style (Figure 6b) into one software module; the
//! [`vhdl`] module parses the VHDL style (Figure 7) into one hardware
//! module per process plus the nets they share. Both elaborate into the
//! unified IR, from which co-simulation and co-synthesis proceed.
//!
//! Shared by both languages, once:
//!
//! - the tokens ([`Tok`], [`Spanned`], [`LexError`], [`LexErrorKind`])
//!   and the punctuation-table matcher;
//! - the token cursor the recursive-descent parsers are built on, with
//!   [`ParseError`] and the 128-level nesting guard;
//! - the elaboration options ([`ElabOptions`], [`ServiceBinding`]),
//!   [`ElabError`], the enum tables and the hidden `__done_<svc>` /
//!   `__res_<svc>` service variables;
//! - the state-variable translation: one FSM state per variant, actions
//!   from the prologue, the variant's arm (or the default arm) and the
//!   epilogue, and a guarded transition for each state name assigned.
//!
//! Each language keeps its own lexer loop (comments, literals and letter
//! case differ), its grammar productions and its AST.

#![warn(missing_docs)]

pub mod c;
mod elab;
mod lexer;
mod parser;
pub mod vhdl;

pub use elab::{ElabError, ElabOptions, ServiceBinding};
pub use lexer::{LexError, LexErrorKind, Spanned, Tok};
pub use parser::ParseError;

/// Elaboration tests of both languages.
#[cfg(test)]
mod tests {
    use crate::c::{self, compile_module};
    use crate::vhdl::{self, compile_entity};
    use crate::{ElabOptions, ServiceBinding};
    use cosma_core::ids::VarId;
    use cosma_core::{
        Env, EvalError, FsmExec, MapEnv, ModuleKind, PortDir, ReadEnv, ServiceCall, ServiceOutcome,
        Type, Value,
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
        fn read_var(&self, v: VarId) -> Option<&Value> {
            self.inner.read_var(v)
        }
        fn read_port(&self, p: cosma_core::ids::PortId) -> Option<&Value> {
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

    /// A Figure-7-flavoured Speed Control entity: three parallel units
    /// (Position, Core, Timer) over shared signals, calling the
    /// Control_Interface and Motor_Interface communication procedures.
    const SPEED_CONTROL: &str = r#"
entity SPEED_CONTROL is
  port (
    PULSE : out std_logic
  );
end entity;

architecture fsm of SPEED_CONTROL is
  type POS_STATES is (SETUP, WAITPOS, SERVE);
  signal RESIDUAL : integer := 0;
  signal TARGET   : integer := 0;
begin
  POSITION : process
    variable NEXT_STATE : POS_STATES := SETUP;
    variable P : integer := 0;
  begin
    case NEXT_STATE is
      when SETUP =>
        ReadMotorConstraints;
        if READMOTORCONSTRAINTS_DONE then
          NEXT_STATE := WAITPOS;
        end if;
      when WAITPOS =>
        ReadMotorPosition;
        if READMOTORPOSITION_DONE then
          P := READMOTORPOSITION_RESULT;
          TARGET <= P;
          NEXT_STATE := SERVE;
        end if;
      when SERVE =>
        ReturnMotorState(RESIDUAL);
        if RETURNMOTORSTATE_DONE then
          NEXT_STATE := WAITPOS;
        end if;
      when others =>
        NEXT_STATE := SETUP;
    end case;
    wait for CYCLE;
  end process;

  CORE : process
    variable DIR : integer := 0;
  begin
    ReadSampledData;
    if READSAMPLEDDATA_DONE then
      DIR := READSAMPLEDDATA_RESULT;
      RESIDUAL <= TARGET - DIR;
    end if;
    wait for CYCLE;
  end process;

  TIMER : process
  begin
    if RESIDUAL > 0 then
      SendMotorPulses(1);
      PULSE <= '1';
    else
      PULSE <= '0';
    end if;
    wait for CYCLE;
  end process;
end architecture;
"#;

    fn opts() -> ElabOptions {
        ElabOptions {
            bindings: vec![
                ServiceBinding::new(
                    "Control_Interface",
                    "swhw_link",
                    &[
                        "READMOTORCONSTRAINTS",
                        "READMOTORPOSITION",
                        "RETURNMOTORSTATE",
                    ],
                ),
                ServiceBinding::new(
                    "Motor_Interface",
                    "hwhw_link",
                    &["READSAMPLEDDATA", "SENDMOTORPULSES"],
                ),
            ],
        }
    }

    #[test]
    fn three_parallel_units_elaborate() {
        let hw = compile_entity(SPEED_CONTROL, "SPEED_CONTROL", &opts()).unwrap();
        assert_eq!(hw.modules.len(), 3);
        assert_eq!(hw.nets.len(), 3); // PULSE, RESIDUAL, TARGET
        let names: Vec<_> = hw.modules.iter().map(|m| m.name().to_string()).collect();
        assert!(names.contains(&"speed_control_position".to_string()));
        assert!(names.contains(&"speed_control_core".to_string()));
        assert!(names.contains(&"speed_control_timer".to_string()));
        for m in &hw.modules {
            assert_eq!(m.kind(), ModuleKind::Hardware);
            assert_eq!(m.ports().len(), 3, "all modules see all nets");
        }
    }

    #[test]
    fn fsm_process_gets_states() {
        let hw = compile_entity(SPEED_CONTROL, "SPEED_CONTROL", &opts()).unwrap();
        let pos = hw
            .modules
            .iter()
            .find(|m| m.name().ends_with("position"))
            .unwrap();
        assert_eq!(pos.fsm().state_count(), 3);
        assert!(pos.fsm().find_state("SETUP").is_some());
        assert_eq!(pos.fsm().state(pos.fsm().initial()).name(), "SETUP");
    }

    #[test]
    fn straightline_process_gets_single_state() {
        let hw = compile_entity(SPEED_CONTROL, "SPEED_CONTROL", &opts()).unwrap();
        let core = hw
            .modules
            .iter()
            .find(|m| m.name().ends_with("core"))
            .unwrap();
        assert_eq!(core.fsm().state_count(), 1);
        assert_eq!(core.fsm().transition_count(), 1);
    }

    #[test]
    fn signal_directions_per_usage() {
        let hw = compile_entity(SPEED_CONTROL, "SPEED_CONTROL", &opts()).unwrap();
        let timer = hw
            .modules
            .iter()
            .find(|m| m.name().ends_with("timer"))
            .unwrap();
        // TIMER writes PULSE (entity out) and reads RESIDUAL.
        let pulse = timer.port_id("PULSE").unwrap();
        assert_eq!(timer.port(pulse).dir(), PortDir::Out);
        let residual = timer.port_id("RESIDUAL").unwrap();
        assert_eq!(timer.port(residual).dir(), PortDir::In);
        // CORE writes RESIDUAL.
        let core = hw
            .modules
            .iter()
            .find(|m| m.name().ends_with("core"))
            .unwrap();
        let residual = core.port_id("RESIDUAL").unwrap();
        assert_eq!(core.port(residual).dir(), PortDir::Out);
    }

    #[test]
    fn net_index_lookup() {
        let hw = compile_entity(SPEED_CONTROL, "SPEED_CONTROL", &opts()).unwrap();
        assert_eq!(hw.net_index("pulse"), Some(0));
        assert_eq!(hw.net_index("RESIDUAL"), Some(1));
        assert_eq!(hw.net_index("NOPE"), None);
    }

    #[test]
    fn timer_executes_against_env() {
        // The TIMER process (single state) should drive PULSE from
        // RESIDUAL without touching services when RESIDUAL <= 0.
        let hw = compile_entity(SPEED_CONTROL, "SPEED_CONTROL", &opts()).unwrap();
        let timer = hw
            .modules
            .iter()
            .find(|m| m.name().ends_with("timer"))
            .unwrap();
        let mut env = MapEnv::new();
        for p in timer.ports() {
            env.add_port(p.ty().clone(), p.ty().default_value());
        }
        for v in timer.vars() {
            env.add_var(v.ty().clone(), v.init().clone());
        }
        let mut exec = FsmExec::new(timer.fsm());
        exec.step(timer.fsm(), &mut env).unwrap();
        let pulse = timer.port_id("PULSE").unwrap();
        assert_eq!(env.port(pulse), &Value::Bit(cosma_core::Bit::Zero));
        // Raise RESIDUAL; service call will fail in MapEnv, which proves
        // the guard actually took the then-branch.
        let residual = timer.port_id("RESIDUAL").unwrap();
        env.set_port(residual, Value::Int(5));
        let err = exec.step(timer.fsm(), &mut env).unwrap_err();
        assert!(err.to_string().contains("SENDMOTORPULSES"), "{err}");
    }

    #[test]
    fn unknown_entity_reported() {
        let e =
            compile_entity("entity E is end entity;", "F", &ElabOptions::default()).unwrap_err();
        assert!(e.to_string().contains('F'), "{e}");
    }

    #[test]
    fn bad_case_scrutinee_reported() {
        let src = r#"
entity E is end entity;
architecture a of E is
begin
  process
    variable X : integer := 0;
  begin
    case X is
      when FOO => X := 1;
    end case;
    wait;
  end process;
end architecture;
"#;
        let e = compile_entity(src, "E", &ElabOptions::default()).unwrap_err();
        assert!(e.to_string().contains("enum-typed"), "{e}");
    }

    /// A process nesting `ifs` if statements around `X := operand;`.
    /// The assignment adds two levels (its statement and its operand)
    /// to `ifs` and to the operand's own nesting.
    fn nested_process(ifs: usize, operand: &str) -> String {
        format!(
            "entity E is end entity;\narchitecture a of E is\nbegin\n  process\n    \
             variable X : integer := 0;\n  begin\n{}X := {operand};\n{}    wait;\n  \
             end process;\nend architecture;\n",
            "if X = 0 then\n".repeat(ifs),
            "end if;\n".repeat(ifs),
        )
    }

    #[test]
    fn signal_init_respected() {
        let src = r#"
entity E is end entity;
architecture a of E is
  signal S : integer := 42;
begin
  process
  begin
    wait;
  end process;
end architecture;
"#;
        let hw = compile_entity(src, "E", &ElabOptions::default()).unwrap();
        assert_eq!(hw.nets[0].init, Value::Int(42));
        assert_eq!(hw.nets[0].ty, Type::INT16);
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

        let src = r#"
entity E is end entity;
architecture a of E is
begin
  process
  begin
    Mystery;
    wait;
  end process;
end architecture;
"#;
        let e = compile_entity(src, "E", &ElabOptions::default()).unwrap_err();
        assert!(e.to_string().contains("MYSTERY"), "{e}");
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

        let limit = crate::parser::MAX_NESTING - 2;
        let [parens, chain] = nested_operands(limit);
        for (ifs, operand) in [(limit, "1"), (0, &parens), (0, &chain)] {
            let src = nested_process(ifs, operand);
            let hw = compile_entity(&src, "E", &ElabOptions::default()).unwrap();
            assert_eq!(hw.modules.len(), 1);
        }
    }

    #[test]
    fn nesting_past_the_limit_is_a_parse_error() {
        for past in [crate::parser::MAX_NESTING - 3, 100_000] {
            let [parens, chain] = nested_operands(past);
            for (blocks, operand) in [(past, "1"), (0, &parens), (0, &chain)] {
                let src = nested_module(blocks, operand);
                let e = c::parse(&src).unwrap_err();
                assert!(e.message.contains("nesting"), "{past}: {e}");
                let e = compile_module(&src, "F", ModuleKind::Software, &ElabOptions::default())
                    .unwrap_err();
                assert!(e.to_string().contains("nesting"), "{past}: {e}");
            }
        }

        for past in [crate::parser::MAX_NESTING - 1, 100_000] {
            let [parens, chain] = nested_operands(past);
            for (ifs, operand) in [(past, "1"), (0, &parens), (0, &chain)] {
                let src = nested_process(ifs, operand);
                let e = vhdl::parse(&src).unwrap_err();
                assert!(e.message.contains("nesting"), "{past}: {e}");
                let e = compile_entity(&src, "E", &ElabOptions::default()).unwrap_err();
                assert!(e.to_string().contains("nesting"), "{past}: {e}");
            }
        }
    }

    /// A C module whose switch over `S` (an `ST` of `A`, `B`) has `arms`.
    fn c_switch(arms: &str) -> String {
        format!(
            "typedef enum {{ A, B }} ST;\nST S = A;\n\
             int F() {{ switch (S) {{ {arms} }} return 1; }}\n"
        )
    }

    /// A VHDL entity whose one process has a case over `S` (an `ST` of
    /// `A`, `B`) with `arms`, and then `tail`.
    fn vhdl_case(arms: &str, tail: &str) -> String {
        format!(
            "entity E is end entity;\narchitecture a of E is\n  type ST is (A, B);\n\
             begin\n  process\n    variable S : ST := A;\n  begin\n    \
             case S is {arms} end case;\n    {tail}\n    wait;\n  end process;\n\
             end architecture;\n"
        )
    }

    #[test]
    fn repeated_case_arms_are_refused() {
        let opts = ElabOptions::default();
        let label = "case label A appears twice";
        let default = "default arm (`default:` / `when others`) appears twice";
        for (arms, want) in [
            ("case A: { S = B; } break; case A: { S = A; } break;", label),
            (
                "case A: { } break; default: { S = A; } default: { S = B; }",
                default,
            ),
        ] {
            let e = compile_module(&c_switch(arms), "F", ModuleKind::Software, &opts);
            assert_eq!(e.unwrap_err().message, want, "{arms}");
        }
        for (arms, want) in [
            ("when A => S := B; when A => S := A;", label),
            (
                "when A => null; when others => null; when others => S := B;",
                default,
            ),
        ] {
            let e = compile_entity(&vhdl_case(arms, ""), "E", &opts);
            assert_eq!(e.unwrap_err().message, want, "{arms}");
        }
    }

    #[test]
    fn service_offered_twice_names_both_bindings() {
        let c_opts = ElabOptions {
            bindings: vec![
                ServiceBinding::new("a", "hs", &["put", "ping"]),
                ServiceBinding::new("b", "hs", &["put"]),
            ],
        };
        let src = c_switch("case A: { } break;");
        let e = compile_module(&src, "F", ModuleKind::Software, &c_opts).unwrap_err();
        assert_eq!(
            e.message,
            "service put is offered by both binding a and binding b"
        );
        // VHDL calls match services case-insensitively, so `get` and `GET`
        // are one service.
        let v_opts = ElabOptions {
            bindings: vec![
                ServiceBinding::new("a", "hs", &["get"]),
                ServiceBinding::new("b", "hs", &["GET"]),
            ],
        };
        let e = compile_entity(&vhdl_case("when others => null;", ""), "E", &v_opts).unwrap_err();
        assert_eq!(
            e.message,
            "service GET is offered by both binding a and binding b"
        );
    }

    #[test]
    fn unknown_service_lists_offered_services_in_name_order() {
        let opts = ElabOptions {
            bindings: vec![ServiceBinding::new(
                "iface",
                "hs",
                &["put", "poll", "get", "peek"],
            )],
        };
        let c_src = c_switch("case A: { if (fetch()) { S = B; } } break;");
        let v_src = vhdl_case("when others => null;", "Fetch;");
        // Every call, not one lucky order.
        for _ in 0..5 {
            let e = compile_module(&c_src, "F", ModuleKind::Software, &opts).unwrap_err();
            assert_eq!(
                e.message,
                "call to unknown service fetch (bindings offer: get, peek, poll, put)"
            );
            let e = compile_entity(&v_src, "E", &opts).unwrap_err();
            assert_eq!(
                e.message,
                "call to unknown service FETCH (bindings offer: GET, PEEK, POLL, PUT)"
            );
        }
    }

    #[test]
    fn c_variant_declared_twice_is_an_error() {
        // The later declaration used to win: T2's `B` was written into
        // `S`, whose guard `S == ST::B` never held, so the module never
        // left `A`. A second `ST` hid the first, so `ST S = A;` failed
        // as a wrong-typed initializer.
        let opts = ElabOptions::default();
        let src = |enums: &str| {
            c_switch("case A: { S = B; } break; case B: { } break;")
                .replace("typedef enum { A, B } ST;", enums)
        };
        for (enums, want) in [
            (
                "typedef enum { A, B } ST; typedef enum { B, C } T2;",
                "variant B is declared by both enum ST and enum T2",
            ),
            (
                "typedef enum { A, B, A } ST;",
                "variant A is declared twice in enum ST",
            ),
            (
                "typedef enum { A, B } ST; typedef enum { C, D } ST;",
                "enum ST is declared twice",
            ),
        ] {
            let e = compile_module(&src(enums), "F", ModuleKind::Software, &opts);
            assert_eq!(e.unwrap_err().message, want, "{enums}");
        }
        let enums = "typedef enum { A, B } ST; typedef enum { C } T2;";
        compile_module(&src(enums), "F", ModuleKind::Software, &opts).unwrap();
    }

    #[test]
    fn vhdl_variant_declared_twice_is_an_error() {
        // VHDL names are case-insensitive: `b` is `B`.
        let opts = ElabOptions::default();
        let src = |enums: &str| {
            vhdl_case("when A => S := B; when B => null;", "").replace("type ST is (A, B);", enums)
        };
        for (enums, want) in [
            (
                "type ST is (A, B); type T2 is (b, C);",
                "variant B is declared by both enum ST and enum T2",
            ),
            (
                "type ST is (A, B, a);",
                "variant A is declared twice in enum ST",
            ),
            (
                "type ST is (A, B); type st is (C, D);",
                "enum ST is declared twice",
            ),
        ] {
            let e = compile_entity(&src(enums), "E", &opts);
            assert_eq!(e.unwrap_err().message, want, "{enums}");
        }
        compile_entity(&src("type ST is (A, B); type T2 is (C);"), "E", &opts).unwrap();
    }

    #[test]
    fn enum_without_variants_is_an_error() {
        // Used to panic in `EnumType::new`.
        let src = "typedef enum { } ST;\nint F() { return 1; }\n";
        let e = compile_module(src, "F", ModuleKind::Software, &ElabOptions::default());
        assert_eq!(e.unwrap_err().message, "enum ST has no variants");
    }
}
