//! Full-system assembly of the Adaptive Motor Controller on each
//! platform — the same module and unit descriptions, mapped three ways:
//!
//! * [`build_cosim`] — VHDL-style co-simulation (validation step),
//! * [`build_board`] — co-synthesis onto the PC-AT + FPGA prototype,
//! * [`build_ipc`] is intentionally absent: the motor system needs the
//!   HW/HW link; the software-only platform is exercised by the
//!   producer/consumer examples instead.

use crate::adapters::{shared_motor, MotorCosim, MotorPeripheral, SharedMotor};
use crate::modules::{
    core_module, distribution_module, position_module, timer_module, MotorConfig,
};
use crate::units::{motor_link_unit, swhw_link_unit};
use cosma_board::{Board, BoardConfig, CpuId};
use cosma_core::{Type, Value};
use cosma_cosim::{Cosim, CosimConfig, CosimError, CosimModuleId};
use cosma_sim::Duration;
use cosma_synth::{
    compile_sw, flatten_module, synthesize_hw, Encoding, HwSynthReport, IoMap, SwProgram,
    SynthError,
};
use std::collections::HashMap;

/// The co-simulated motor system.
pub struct CosimMotorSystem {
    /// The backplane, ready to run.
    pub cosim: Cosim,
    /// The Distribution module instance.
    pub distribution: CosimModuleId,
    /// The Position unit instance.
    pub position: CosimModuleId,
    /// The Core unit instance.
    pub core: CosimModuleId,
    /// The Timer unit instance.
    pub timer: CosimModuleId,
    /// The shared plant.
    pub motor: SharedMotor,
}

impl std::fmt::Debug for CosimMotorSystem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "CosimMotorSystem")
    }
}

impl CosimMotorSystem {
    /// Runs until the Distribution FSM reaches `Done`, in chunks of
    /// `chunk`; gives up after `max_chunks`.
    ///
    /// # Errors
    ///
    /// Propagates backplane errors.
    pub fn run_to_completion(
        &mut self,
        chunk: Duration,
        max_chunks: u32,
    ) -> Result<bool, CosimError> {
        for _ in 0..max_chunks {
            self.cosim.run_for(chunk)?;
            if self.cosim.module_status(self.distribution).state == "Done" {
                return Ok(true);
            }
            // Quiescent kernel: nothing can ever change again, so more
            // chunks cannot reach Done either.
            if !self.cosim.pending_activity() {
                return Ok(false);
            }
        }
        Ok(false)
    }
}

/// Assembles the motor system for co-simulation.
///
/// # Errors
///
/// Returns backplane setup errors.
pub fn build_cosim(cfg: &MotorConfig, ccfg: CosimConfig) -> Result<CosimMotorSystem, CosimError> {
    let mut cosim = Cosim::new(ccfg);
    // The plant is a kernel clocked process outside the backplane's
    // clock-demand ledger: once Core parks between samples, every module
    // can be parked at once (after `Done`), and idle clock generators
    // would stop the plant. Pinned, the edge grid runs for the whole run.
    cosim.pin_clock_domains();
    let swhw = cosim.add_fsm_unit("swhw", swhw_link_unit());
    let mlink = cosim.add_fsm_unit("mlink", motor_link_unit());

    // Shared Speed Control signals.
    let sc_target = cosim
        .sim_mut()
        .add_signal("SC_TARGET", Type::INT16, Value::Int(0));
    let sc_residual = cosim
        .sim_mut()
        .add_signal("SC_RESIDUAL", Type::INT16, Value::Int(0));
    let sc_sampled = cosim
        .sim_mut()
        .add_signal("SC_SAMPLED", Type::INT16, Value::Int(0));

    let distribution = cosim.add_module(&distribution_module(cfg), &[("swhw", swhw)])?;
    let position = cosim.add_module_with_ports(
        &position_module(cfg),
        &[("swhw", swhw)],
        vec![sc_target, sc_residual, sc_sampled],
    )?;
    let core = cosim.add_module_with_ports(
        &core_module(),
        &[("mlink", mlink)],
        vec![sc_target, sc_residual, sc_sampled],
    )?;
    let timer =
        cosim.add_module_with_ports(&timer_module(cfg), &[("mlink", mlink)], vec![sc_residual])?;

    // The plant, attached to the motor_link wires.
    let motor = shared_motor(cfg.motor_speed);
    let sig = |n: &str| {
        cosim
            .sim()
            .find_signal(&format!("mlink.{n}"))
            .expect("motor_link wires were created above")
    };
    let adapter = MotorCosim::new(
        motor.clone(),
        cosim.hw_clk(),
        sig("PULSE_CMD"),
        sig("PULSE_STROBE"),
        sig("PULSE_ACK"),
        sig("SAMPLED_POS"),
        cosim.trace_handle(),
    );
    adapter.attach(cosim.sim_mut());

    Ok(CosimMotorSystem {
        cosim,
        distribution,
        position,
        core,
        timer,
        motor,
    })
}

/// The co-synthesized motor system on the PC-AT + FPGA board.
pub struct BoardMotorSystem {
    /// The board, ready to run.
    pub board: Board,
    /// The CPU running the synthesized Distribution program.
    pub cpu: CpuId,
    /// The compiled software.
    pub program: SwProgram,
    /// Hardware synthesis reports (position, core, timer).
    pub reports: Vec<HwSynthReport>,
    /// The shared plant.
    pub motor: SharedMotor,
    /// Index of the Distribution FSM's `Done` state.
    pub done_state: u16,
}

impl std::fmt::Debug for BoardMotorSystem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "BoardMotorSystem")
    }
}

impl BoardMotorSystem {
    /// Whether the Distribution program has reached its `Done` state.
    #[must_use]
    pub fn is_done(&self) -> bool {
        self.board.cpu_mem(self.cpu, self.program.state_addr) == self.done_state
    }

    /// Runs in chunks of `chunk_ns` until done or `max_chunks` elapse.
    ///
    /// # Errors
    ///
    /// Propagates board errors.
    pub fn run_to_completion(
        &mut self,
        chunk_ns: u64,
        max_chunks: u32,
    ) -> Result<bool, cosma_board::BoardError> {
        for _ in 0..max_chunks {
            self.board.run_for_ns(chunk_ns)?;
            if self.is_done() {
                return Ok(true);
            }
            // A board with every CPU halted and no hardware to clock can
            // never reach Done; stop polling.
            if !self.board.pending_activity() {
                return Ok(false);
            }
        }
        Ok(false)
    }
}

/// Co-synthesizes the motor system onto the board: Distribution →
/// MC16 program at bus base 0x300, Speed Control units → netlists in the
/// FPGA fabric, motor → peripheral.
///
/// # Errors
///
/// Returns synthesis errors ([`SynthError`]).
pub fn build_board(
    cfg: &MotorConfig,
    bcfg: BoardConfig,
    encoding: Encoding,
) -> Result<BoardMotorSystem, SynthError> {
    let mut units = HashMap::new();
    units.insert("swhw".to_string(), swhw_link_unit());
    units.insert("mlink".to_string(), motor_link_unit());

    // Software side.
    let dist_flat = flatten_module(&distribution_module(cfg), &units)?;
    let io = IoMap::for_module(0x300, &dist_flat);
    let program = compile_sw(&dist_flat, &io)?;
    let done_state = dist_flat
        .fsm()
        .find_state("Done")
        .expect("distribution has a Done state")
        .raw() as u16;

    // Hardware side.
    let mut reports = vec![];
    let mut netlists = vec![];
    for module in [position_module(cfg), core_module(), timer_module(cfg)] {
        let flat = flatten_module(&module, &units)?;
        let (nl, report) = synthesize_hw(&flat, encoding)?;
        reports.push(report);
        netlists.push(nl);
    }

    let mut board = Board::new(bcfg);
    let cpu = board
        .add_cpu("distribution", &program)
        .expect("fresh board accepts its first CPU");
    for nl in &netlists {
        board
            .place_netlist(nl)
            .expect("Speed Control netlists and the Distribution program agree on wire widths");
    }
    let motor = shared_motor(cfg.motor_speed);
    board.attach(Box::new(MotorPeripheral::new(motor.clone(), "mlink")));

    Ok(BoardMotorSystem {
        board,
        cpu,
        program,
        reports,
        motor,
        done_state,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cosim_system_reaches_target() {
        let cfg = MotorConfig::default();
        let mut sys = build_cosim(&cfg, CosimConfig::default()).unwrap();
        let done = sys.run_to_completion(Duration::from_us(100), 200).unwrap();
        assert!(done, "distribution must finish the trajectory");
        assert_eq!(sys.motor.borrow().position(), cfg.total_distance());
        // One send_pos + one motor_state per segment.
        let log = sys.cosim.trace_log();
        assert_eq!(log.with_label("send_pos").count(), cfg.segments as usize);
        assert_eq!(log.with_label("motor_state").count(), cfg.segments as usize);
        assert_eq!(log.with_label("done").count(), 1);
        // Pulses were consumed through the handshake.
        assert!(log.with_label("pulse").count() > 0);
        // The unit saw the expected service traffic.
        let stats = sys.cosim.unit_stats("swhw").unwrap();
        assert_eq!(
            stats.services["MotorPosition"].completions,
            cfg.segments as u64
        );
        assert_eq!(
            stats.services["ReadMotorState"].completions,
            cfg.segments as u64
        );
    }

    #[test]
    fn the_plant_ticks_on_every_hw_edge_through_the_last_chunk() {
        // Core parks between samples, so every module can be parked at
        // once; the pinned clock domains keep the plant on the HW edge
        // grid anyway: one tick per rising edge, t = 0 included.
        let cfg = MotorConfig::default();
        let mut sys = build_cosim(&cfg, CosimConfig::default()).unwrap();
        assert!(sys.run_to_completion(Duration::from_us(100), 200).unwrap());
        let edges = sys.cosim.sim().now().as_fs() / CosimConfig::default().hw_cycle.as_fs() + 1;
        assert_eq!(sys.motor.borrow().ticks(), edges);
        let core = sys.cosim.module_status(sys.core).activations;
        assert!(
            2 * core < edges,
            "Core parks between samples: {core} of {edges}"
        );
    }

    #[test]
    fn board_system_reaches_target() {
        let cfg = MotorConfig::default();
        let mut sys = build_board(&cfg, BoardConfig::default(), Encoding::Binary).unwrap();
        let done = sys.run_to_completion(1_000_000, 400).unwrap();
        assert!(done, "synthesized system must finish the trajectory");
        assert_eq!(sys.motor.borrow().position(), cfg.total_distance());
        let log = sys.board.trace_log();
        assert_eq!(log.with_label("send_pos").count(), cfg.segments as usize);
        assert_eq!(log.with_label("done").count(), 1);
        assert!(!sys.reports.is_empty());
    }

    #[test]
    fn board_fabric_skips_most_settled_steps() {
        // Speed Control mostly waits on unchanged wires; a change that
        // defeats the fabric's settled-step skip would fail here first.
        let cfg = MotorConfig::default();
        let mut sys = build_board(&cfg, BoardConfig::default(), Encoding::Binary).unwrap();
        assert!(sys.run_to_completion(100_000, 4_000).unwrap());
        let fabric = sys.board.fabric();
        let steps = fabric.ticks() * fabric.instance_count() as u64;
        let evaluated = fabric.evaluations();
        assert!(
            4 * evaluated < steps,
            "evaluated {evaluated} of {steps} instance-steps"
        );
    }

    #[test]
    fn coherence_between_cosim_and_board() {
        // The paper's claim: the same description through co-simulation
        // and co-synthesis produces the same behaviour. Compare the
        // motor-visible and software-visible event sequences.
        let cfg = MotorConfig::default();
        let mut cs = build_cosim(&cfg, CosimConfig::default()).unwrap();
        assert!(cs.run_to_completion(Duration::from_us(100), 200).unwrap());
        let mut bs = build_board(&cfg, BoardConfig::default(), Encoding::Binary).unwrap();
        assert!(bs.run_to_completion(1_000_000, 400).unwrap());

        for label in ["send_pos", "motor_state", "pulse", "done"] {
            let a = cs.cosim.trace_log().filtered(|e| e.label == label);
            let b = bs.board.trace_log().filtered(|e| e.label == label);
            let cmp = a.compare(&b);
            assert!(cmp.is_match(), "label {label}: {cmp}");
        }
    }
}
