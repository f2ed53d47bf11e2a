//! The C subset front-end.
//!
//! Parses the paper's C module style (Figure 6b: a `switch`-based FSM over
//! an enum state table, calling communication procedures) and elaborates
//! it into the unified IR, from which both co-simulation and co-synthesis
//! proceed.
//!
//! ## Example
//!
//! ```
//! use cosma_frontend::c::{compile_module, ElabOptions, ServiceBinding};
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
//! # Ok::<(), cosma_frontend::c::ElabError>(())
//! ```

pub mod ast;
mod elab;
mod lexer;
mod parser;

pub use crate::elab::{ElabError, ElabOptions, ServiceBinding};
pub use crate::lexer::{LexError, LexErrorKind, Spanned, Tok};
pub use crate::parser::ParseError;
pub use elab::{compile_module, elaborate};
pub use lexer::lex;
pub use parser::parse;
