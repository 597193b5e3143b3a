//! Tiny CIL (`tcil`): the C-dialect frontend and typed intermediate
//! representation shared by every stage of the Safe TinyOS toolchain.
//!
//! The paper's toolchain is built on CIL, a C intermediate language that
//! CCured and cXprop both operate on. `tcil` plays the same role here:
//!
//! * [`lexer`] / [`parser`] — a hand-written recursive-descent frontend for
//!   a C dialect ("TCL") with optional nesC extensions (`call`, `signal`,
//!   `post`, `task`, `atomic`, `norace`, `interrupt(VECTOR)`),
//! * [`ast`] — the surface syntax tree,
//! * [`ir`] — the typed, structured IR every analysis and the code
//!   generator consume, including first-class safety-[`ir::Check`]
//!   statements inserted by the CCured stage,
//! * [`lower`] — type checking and AST→IR lowering,
//! * [`types`] — the type system and byte-exact layout rules of the 16-bit
//!   target (no padding, 2-byte thin pointers, CCured fat pointers occupy
//!   2–3 words),
//! * [`concurrency`] — the concurrency census every race analysis reads,
//! * [`fold`] — constant-evaluation helpers shared by the optimizers,
//! * [`visit`] — IR walking utilities for writing passes.
//!
//! # Example
//!
//! ```
//! use tcil::parse_and_lower;
//!
//! let src = r#"
//!     uint16_t counter;
//!     uint16_t bump(uint16_t by) { counter += by; return counter; }
//!     void main() { bump(3); }
//! "#;
//! let program = parse_and_lower(src).expect("valid program");
//! assert_eq!(program.functions.len(), 2);
//! ```

pub mod ast;
pub mod checkopt;
pub mod concurrency;
pub mod fold;
pub mod intern;
pub mod ir;
pub mod lexer;
pub mod lower;
pub mod parser;
pub mod types;
pub mod visit;

mod error;

pub use error::{CompileError, SourcePos};
pub use ir::Program;

/// Parses `src` as a plain (non-nesC) TCL translation unit and lowers it to
/// a typed [`Program`].
///
/// This is the convenience entry point used by tests and by tools that work
/// on already-flattened C code (the nesC frontend drives [`parser`] and
/// [`lower`] directly with the nesC extensions enabled).
///
/// # Errors
///
/// Returns a [`CompileError`] carrying a source position when `src` fails to
/// lex, parse, or type-check.
pub fn parse_and_lower(src: &str) -> Result<Program, CompileError> {
    let unit = parser::parse_unit(src, parser::Dialect::Plain)?;
    lower::lower_unit(&unit)
}

/// Interrupt vector names recognized in `interrupt(NAME)` declarations and
/// their M16 vector numbers. The `mcu` crate implements the matching
/// hardware semantics; keep the two tables in sync.
pub const VECTORS: &[(&str, u8)] = &[
    ("TIMER0", 0),
    ("ADC", 1),
    ("RADIO_RX", 2),
    ("RADIO_TX", 3),
    ("UART", 4),
    ("TIMER1", 5),
];

/// Looks up an interrupt vector number by source-level name.
pub fn vector_number(name: &str) -> Option<u8> {
    VECTORS.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
}
