//! Inputs shared by the COSMA experiment harnesses: the paper's C and
//! VHDL sub-system sources, which the figure binaries run and
//! `cosim_bench` times through the front-ends.

use cosma_frontend::{ElabOptions, ServiceBinding};

/// The paper's Figure 6b Distribution sub-system (function
/// `DISTRIBUTION`), completed where the figure elides arms.
pub const DISTRIBUTION_SRC: &str = r#"
typedef enum { Start, SetupControlCall, Step, MotorPositionCall, Next, ReadStateCall, NextStep } DIST_STATES;
DIST_STATES NextState = Start;
int POSITION = 0;
int MOTORSTATE = 0;

int DISTRIBUTION()
{
    switch (NextState) {
    case Start:            { POSITION = 0; NextState = SetupControlCall; } break;
    case SetupControlCall: { if (SetupControl()) { NextState = Step; } } break;
    case Step:             { POSITION = POSITION + 25; NextState = MotorPositionCall; } break;
    case MotorPositionCall:{ if (MotorPosition(POSITION)) { NextState = Next; } } break;
    case Next:             { NextState = ReadStateCall; } break;
    case ReadStateCall:
    {
        if (ReadMotorState()) {
            MOTORSTATE = ReadMotorState_RESULT();
            NextState = NextStep;
        }
    } break;
    case NextStep:         { if (POSITION < 100) { NextState = Step; } } break;
    default:               { NextState = Start; }
    }
    return 1;
}
"#;

/// The interface binding [`DISTRIBUTION_SRC`] calls its services through.
#[must_use]
pub fn distribution_options() -> ElabOptions {
    ElabOptions {
        bindings: vec![ServiceBinding::new(
            "Distribution_Interface",
            "swhw_link",
            &["SetupControl", "MotorPosition", "ReadMotorState"],
        )],
    }
}

/// A Figure-7-style Speed Control entity (`SPEED_CONTROL`): three
/// parallel units, POSITION, CORE and TIMER, over shared signals.
pub const SPEED_CONTROL_SRC: &str = r#"
entity SPEED_CONTROL is
  port ( DONE_LED : out std_logic );
end entity;

architecture fsm of SPEED_CONTROL is
  type POS_STATES is (SETUP, WAITPOS, SETTLE, MOVING, SERVE);
  signal TARGET   : integer := 0;
  signal RESIDUAL : integer := 0;
  signal SAMPLED  : integer := 0;
begin
  POSITION : process
    variable NEXT_STATE : POS_STATES := SETUP;
    variable P : integer := 0;
    variable W : integer := 0;
  begin
    case NEXT_STATE is
      when SETUP =>
        ReadMotorConstraints;
        if READMOTORCONSTRAINTS_DONE then NEXT_STATE := WAITPOS; end if;
      when WAITPOS =>
        ReadMotorPosition;
        if READMOTORPOSITION_DONE then
          P := READMOTORPOSITION_RESULT;
          TARGET <= P;
          W := 6;
          NEXT_STATE := SETTLE;
        end if;
      when SETTLE =>
        W := W - 1;
        if W <= 0 then NEXT_STATE := MOVING; end if;
      when MOVING =>
        if RESIDUAL = 0 then NEXT_STATE := SERVE; end if;
      when SERVE =>
        ReturnMotorState(SAMPLED);
        if RETURNMOTORSTATE_DONE then NEXT_STATE := WAITPOS; end if;
      when others =>
        NEXT_STATE := SETUP;
    end case;
    wait for CYCLE;
  end process;

  CORE : process
    variable S : integer := 0;
  begin
    ReadSampledData;
    if READSAMPLEDDATA_DONE then
      S := READSAMPLEDDATA_RESULT;
      SAMPLED <= S;
      RESIDUAL <= TARGET - S;
    end if;
    wait for CYCLE;
  end process;

  TIMER : process
    variable PLS : integer := 0;
    variable C : integer := 0;
  begin
    if C > 0 then
      C := C - 1;
    elsif RESIDUAL /= 0 then
      if RESIDUAL > 2 then PLS := 2;
      elsif RESIDUAL < -2 then PLS := -2;
      else PLS := RESIDUAL;
      end if;
      SendMotorPulses(PLS);
      if SENDMOTORPULSES_DONE then
        C := 8;
        DONE_LED <= '1';
      end if;
    end if;
    wait for CYCLE;
  end process;
end architecture;
"#;

/// The interface bindings [`SPEED_CONTROL_SRC`] calls its services
/// through.
#[must_use]
pub fn speed_control_options() -> ElabOptions {
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
                "motor_link",
                &["READSAMPLEDDATA", "SENDMOTORPULSES"],
            ),
        ],
    }
}
