//! # cosma-vhdl — VHDL subset front-end
//!
//! Parses the paper's VHDL module style (Figure 7: an entity whose
//! architecture holds parallel processes communicating through signals and
//! calling communication procedures) and elaborates each process into a
//! unified-IR hardware module. Architecture signals become shared *nets*
//! that the co-simulation backplane realizes as kernel signals.
//!
//! ## Example
//!
//! ```
//! use cosma_vhdl::{compile_entity, ElabOptions};
//!
//! let src = r#"
//! entity COUNTER is
//!   port ( TICK : out integer );
//! end entity;
//! architecture rtl of COUNTER is
//! begin
//!   main : process
//!     variable N : integer := 0;
//!   begin
//!     N := N + 1;
//!     TICK <= N;
//!     wait for CYCLE;
//!   end process;
//! end architecture;
//! "#;
//! let hw = compile_entity(src, "COUNTER", &ElabOptions::default())?;
//! assert_eq!(hw.modules.len(), 1);
//! assert_eq!(hw.nets.len(), 1);
//! # Ok::<(), cosma_vhdl::ElabError>(())
//! ```

#![warn(missing_docs)]

pub mod ast;
mod elab;
mod lexer;
mod parser;

pub use elab::{
    compile_entity, elaborate_entity, ElabError, ElabOptions, HwEntity, NetSpec, ServiceBinding,
};
pub use lexer::{lex, LexError, Spanned, Tok};
pub use parser::{parse, ParseError};

#[cfg(test)]
mod tests {
    use super::*;
    use cosma_core::{FsmExec, MapEnv, ModuleKind, PortDir, Type, Value};

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
    fn unknown_service_reported() {
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
        for past in [crate::parser::MAX_NESTING - 1, 100_000] {
            let [parens, chain] = nested_operands(past);
            for (ifs, operand) in [(past, "1"), (0, &parens), (0, &chain)] {
                let src = nested_process(ifs, operand);
                let e = parse(&src).unwrap_err();
                assert!(e.message.contains("nesting"), "{past}: {e}");
                let e = compile_entity(&src, "E", &ElabOptions::default()).unwrap_err();
                assert!(e.to_string().contains("nesting"), "{past}: {e}");
            }
        }
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
}
