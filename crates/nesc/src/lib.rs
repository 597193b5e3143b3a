//! nesC-lite: the component frontend of the Safe TinyOS toolchain.
//!
//! This crate plays the role of the nesC compiler in the paper's Figure 1:
//! it parses interfaces, modules, and configurations; resolves wiring into
//! direct calls; generates the TinyOS task scheduler and `main`; and emits
//! a whole-program [`tcil::Program`] whose [`tcil::ir::Global::racy`] flags
//! carry the **non-atomic variable report** — the race-candidate globals
//! the CCured stage uses to decide where safety checks need locks (§2.2 of
//! the paper), [`tcil::concurrency::Census::nesc_racy`]'s verdict.
//!
//! The accepted language is a faithful miniature of nesC 1.x:
//!
//! * `interface I { command t f(...); event t g(...); }`
//! * `module M { provides interface A; uses interface B as C; }
//!    implementation { ...TCL code with call/signal/post/task/atomic... }`
//! * `configuration K { provides interface A; } implementation {
//!    components M, N; M.B -> N.A; A = M.A; }`
//!
//! Wiring supports fan-out (one command wired to several providers, one
//! event signaled to several users) exactly because the paper's TinyOS
//! apps rely on it (`Main.StdControl` is classically wired to several
//! components).
//!
//! # Example
//!
//! ```
//! use nesc::{compile, SourceSet};
//!
//! let mut set = SourceSet::new();
//! set.add("Leds.nc", "interface Leds { command void set(uint8_t v); }");
//! set.add(
//!     "LedsC.nc",
//!     "module LedsC { provides interface Leds; }
//!      implementation {
//!        command void Leds.set(uint8_t v) { __hw_write8(0xF000, v); }
//!      }",
//! );
//! set.add(
//!     "StdControl.nc",
//!     "interface StdControl { command result_t init(); command result_t start(); }",
//! );
//! set.add(
//!     "BlinkM.nc",
//!     "module BlinkM { provides interface StdControl; uses interface Leds; }
//!      implementation {
//!        command result_t StdControl.init() { call Leds.set(1); return SUCCESS; }
//!        command result_t StdControl.start() { return SUCCESS; }
//!      }",
//! );
//! set.add(
//!     "Blink.nc",
//!     "configuration Blink { } implementation {
//!        components Main, BlinkM, LedsC;
//!        Main.StdControl -> BlinkM.StdControl;
//!        BlinkM.Leds -> LedsC.Leds;
//!      }",
//! );
//! let out = compile(&set, "Blink").unwrap();
//! assert!(out.program.entry.is_some());
//! ```

pub mod generate;
pub mod parse;
pub mod scan;
pub mod wiring;

use tcil::concurrency::Census;
use tcil::CompileError;

/// A set of nesC-lite source files (components, interfaces, headers).
#[derive(Debug, Clone, Default)]
pub struct SourceSet {
    files: Vec<(String, String)>,
}

impl SourceSet {
    /// Creates an empty source set.
    pub fn new() -> SourceSet {
        SourceSet::default()
    }

    /// Adds a source file.
    pub fn add(&mut self, name: impl Into<String>, text: impl Into<String>) -> &mut Self {
        self.files.push((name.into(), text.into()));
        self
    }

    /// Iterates over `(name, text)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str)> {
        self.files.iter().map(|(n, t)| (n.as_str(), t.as_str()))
    }
}

/// Result of compiling an application.
#[derive(Debug, Clone)]
pub struct CompileOutput {
    /// The lowered whole program, its race candidates flagged `racy`.
    pub program: tcil::Program,
    /// Component instantiation order (diagnostics).
    pub components: Vec<String>,
}

/// A frontend with the source set already parsed.
///
/// Parsing is app-independent: the same component library serves every
/// application of an evaluation grid. Constructing a `Frontend` once and
/// calling [`Frontend::compile`] per app skips the re-parse that
/// [`compile`] pays on every call — the frontend half of the toolchain's
/// artifact cache.
#[derive(Debug, Clone)]
pub struct Frontend {
    parsed: parse::Parsed,
}

impl Frontend {
    /// Parses `sources` into a reusable frontend.
    ///
    /// # Errors
    ///
    /// Returns a [`CompileError`] for syntax errors in any source file.
    pub fn new(sources: &SourceSet) -> Result<Frontend, CompileError> {
        Ok(Frontend {
            parsed: parse::parse_sources(sources)?,
        })
    }

    /// Compiles the application whose top-level configuration (or module)
    /// is named `app` from the parsed sources.
    ///
    /// # Errors
    ///
    /// Returns a [`CompileError`] for unknown components or interfaces,
    /// unwired command calls, wiring type mismatches, and any type error
    /// in module code.
    pub fn compile(&self, app: &str) -> Result<CompileOutput, CompileError> {
        let plan = wiring::resolve(&self.parsed, app)?;
        let unit = generate::generate(&self.parsed, &plan)?;
        let mut program = tcil::lower::lower_unit(&unit)?;
        let racy = Census::of(&program).nesc_racy();
        for (g, racy) in program.globals.iter_mut().zip(racy) {
            g.racy = racy;
        }
        Ok(CompileOutput {
            program,
            components: plan.instantiation_order.clone(),
        })
    }
}

/// Compiles the application whose top-level configuration (or module) is
/// named `app` from the given sources.
///
/// # Errors
///
/// Returns a [`CompileError`] for syntax errors, unknown components or
/// interfaces, unwired command calls, wiring type mismatches, and any
/// type error in module code.
pub fn compile(sources: &SourceSet, app: &str) -> Result<CompileOutput, CompileError> {
    Frontend::new(sources)?.compile(app)
}
