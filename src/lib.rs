//! # COSMA — co-simulation and co-synthesis of mixed hardware/software systems
//!
//! A Rust reproduction of *"A Unified Model for Co-simulation and
//! Co-synthesis of Mixed Hardware/Software Systems"* (C. A. Valderrama,
//! A. Changuel, P. V. Raghavan, M. Abid, T. Ben Ismail, A. A. Jerraya —
//! DATE 1995).
//!
//! A system is described once — software modules (C style), hardware
//! modules (VHDL style) and **communication units** whose access
//! procedures exist in multiple *views* — and that single description
//! drives both joint simulation and mapping onto real target
//! architectures.
//!
//! This facade re-exports the whole toolchain:
//!
//! | crate | role |
//! |---|---|
//! | [`core`] | the unified IR: FSMs, modules, systems, communication units, multi-view rendering |
//! | [`sim`] | VHDL-semantics discrete-event kernel + VCD |
//! | [`comm`] | the communication-unit library (handshake, mailboxes, shared memory...) |
//! | [`cfront`] / [`vhdl`] | C and VHDL subset front-ends (the `c` and `vhdl` modules of `cosma-frontend`) |
//! | [`cosim`] | the co-simulation backplane |
//! | [`synth`] | interface/hardware/software synthesis |
//! | [`isa`] | the MC16 processor (assembler + ISS) |
//! | [`board`] | target platforms: PC-AT + FPGA board, software-only IPC |
//! | [`motor`] | the Adaptive Motor Controller case study |
//!
//! ## Quickstart
//!
//! Run the paper's case study through co-simulation:
//!
//! ```
//! use cosma::motor::{build_cosim, MotorConfig};
//! use cosma::cosim::CosimConfig;
//! use cosma::sim::Duration;
//!
//! let cfg = MotorConfig { segments: 2, ..MotorConfig::default() };
//! let mut sys = build_cosim(&cfg, CosimConfig::default())?;
//! sys.run_to_completion(Duration::from_us(100), 100)?;
//! assert_eq!(sys.motor.borrow().position(), cfg.total_distance());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! See `examples/` for the full flows (co-simulation, co-synthesis,
//! multi-platform retargeting) and `crates/bench/src/bin/` for the
//! experiment harnesses regenerating each of the paper's figures.

#![warn(missing_docs)]

pub use cosma_board as board;
pub use cosma_comm as comm;
pub use cosma_core as core;
pub use cosma_cosim as cosim;
pub use cosma_frontend::c as cfront;
pub use cosma_frontend::vhdl;
pub use cosma_isa as isa;
pub use cosma_motor as motor;
pub use cosma_sim as sim;
pub use cosma_synth as synth;
