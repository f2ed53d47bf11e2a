//! The VHDL subset front-end.
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
//! use cosma_frontend::vhdl::{compile_entity, ElabOptions};
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
//! # Ok::<(), cosma_frontend::vhdl::ElabError>(())
//! ```

pub mod ast;
mod elab;
mod lexer;
mod parser;

pub use crate::elab::{ElabError, ElabOptions, ServiceBinding};
pub use crate::lexer::{LexError, LexErrorKind, Spanned, Tok};
pub use crate::parser::ParseError;
pub use elab::{compile_entity, elaborate_entity, HwEntity, NetSpec};
pub use lexer::lex;
pub use parser::parse;
