//! CCured-style type and memory safety for TCL programs.
//!
//! This crate reproduces the CCured stage of the Safe TinyOS toolchain
//! (§2 of the paper): it retrofits safety onto a whole program by
//!
//! 1. [`kinds`] — whole-program **pointer-kind inference**: every pointer
//!    slot is classified SAFE (no arithmetic: null check only), FSEQ
//!    (forward arithmetic: value + upper bound) or SEQ (arbitrary
//!    arithmetic: value + both bounds). The source language has no
//!    unchecked casts, so no pointer is ever WILD — matching the paper's
//!    observation that TinyOS code is statically allocated and cast-light.
//! 2. [`instrument`] — rewriting the program: declarations take their
//!    inferred kinds (fat pointers grow to 2–3 words, which is exactly the
//!    static-data cost Figure 3(b) measures), every unproven dereference
//!    gets a [`tcil::ir::Check`] statement with a fresh FLID, and checks
//!    touching variables from the nesC **non-atomic variable report** are
//!    wrapped in locks (§2.2).
//! 3. CCured's own local optimizer, [`tcil::checkopt`]: removes trivially
//!    satisfiable and straight-line redundant checks ("the easy ones",
//!    §3.1) — the same tier the backend's GCC stand-in applies, per
//!    Figure 2.
//! 4. [`errmsg`] — the four error-message configurations of Figure 3:
//!    verbose strings in RAM, verbose strings in ROM, terse, and FLIDs
//!    with a host-side decompression table.
//! 5. [`runtime`] — the runtime-library footprint model (§2.3: the naive
//!    port costs 1.6 KB RAM / 33 KB ROM; the tuned runtime 2 B / 314 B).
//! 6. [`triage`] — fault-campaign classification: given a golden run and
//!    an injected run, decide whether the corruption was trapped with a
//!    decodable FLID, crashed, silently corrupted behavior, or was
//!    benign.
//!
//! # Example
//!
//! ```
//! use ccured::{cure, CureOptions};
//!
//! let mut program = tcil::parse_and_lower(
//!     "uint8_t buf[8];
//!      uint8_t get(uint8_t * p, uint8_t i) { return p[i]; }
//!      void main() { get(buf, 3); }",
//! ).unwrap();
//! let stats = cure(&mut program, &CureOptions::default()).unwrap();
//! assert!(stats.checks_inserted > 0);
//! assert!(program.count_checks() > 0);
//! ```

pub mod errmsg;
pub mod instrument;
pub mod kinds;
pub mod runtime;
pub mod triage;

use tcil::{CompileError, Program};

pub use errmsg::ErrorMode;
pub use kinds::KindSummary;
pub use runtime::RuntimeModel;
pub use triage::{RunObservation, Verdict, VerdictCounts};

/// Options controlling the curing pass.
#[derive(Debug, Clone)]
pub struct CureOptions {
    /// Error-message configuration (Figure 3 bars 1–4).
    pub error_mode: ErrorMode,
    /// Run CCured's local check optimizer after insertion.
    pub local_optimize: bool,
    /// Insert locks around checks that touch racy variables (§2.2).
    /// Requires the nesC concurrency report to have set
    /// [`tcil::ir::Global::racy`] flags.
    pub lock_racy_checks: bool,
    /// Use the naive (unported) CCured runtime footprint instead of the
    /// tuned one — the §2.3 comparison.
    pub naive_runtime: bool,
}

impl Default for CureOptions {
    fn default() -> Self {
        CureOptions {
            error_mode: ErrorMode::Flid,
            local_optimize: true,
            lock_racy_checks: true,
            naive_runtime: false,
        }
    }
}

/// Statistics from a curing pass.
#[derive(Debug, Clone, Default)]
pub struct CureStats {
    /// Dynamic checks inserted (before any optimization).
    pub checks_inserted: usize,
    /// Checks removed by the local optimizer.
    pub checks_removed_locally: usize,
    /// Locks (atomic sections) inserted around racy checks.
    pub locks_inserted: usize,
    /// Pointer-kind census.
    pub kinds: KindSummary,
    /// Error-message bytes added (RAM, ROM).
    pub message_bytes: (u32, u32),
    /// Runtime-library model in effect.
    pub runtime: RuntimeModel,
}

/// Retrofits type and memory safety onto `program` in place.
///
/// The program must be a lowered whole program (all functions present);
/// this is the output of the nesC frontend. After curing, the program
/// still type-checks and runs identically unless a safety violation
/// occurs, in which case the machine traps with the check's FLID instead
/// of corrupting memory.
///
/// # Errors
///
/// Returns an error if the program contains a pointer flow the inference
/// cannot represent (e.g. a fat pointer passed to a trusted function).
pub fn cure(program: &mut Program, options: &CureOptions) -> Result<CureStats, CompileError> {
    let solution = kinds::infer(program);
    kinds::apply(program, &solution);
    let mut stats = CureStats {
        kinds: solution.summary(),
        ..Default::default()
    };

    let inserted = instrument::instrument(program, options)?;
    stats.checks_inserted = inserted.checks;
    stats.locks_inserted = inserted.locks;

    if options.local_optimize {
        stats.checks_removed_locally = tcil::checkopt::remove_local_checks(program);
    }

    stats.message_bytes = errmsg::attach_messages(program, options.error_mode);
    stats.runtime = runtime::RuntimeModel::new(options.naive_runtime);
    runtime::attach_runtime(program, &stats.runtime);
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcil::ir::Stmt;
    use tcil::visit;

    #[test]
    fn curing_is_noop_on_check_free_code() {
        let mut p = tcil::parse_and_lower("uint8_t x; void main() { x = 1; }").unwrap();
        let stats = cure(&mut p, &CureOptions::default()).unwrap();
        assert_eq!(stats.checks_inserted, 0);
        assert_eq!(p.count_checks(), 0);
    }

    #[test]
    fn derefs_get_checks() {
        let mut p = tcil::parse_and_lower(
            "uint8_t g;
             uint8_t read(uint8_t * p) { return *p; }
             void main() { read(&g); }",
        )
        .unwrap();
        let stats = cure(&mut p, &CureOptions::default()).unwrap();
        assert!(stats.checks_inserted >= 1);
        let mut found = false;
        visit::walk_stmts(
            &p.functions[p.find_function("read").unwrap().0 as usize].body,
            &mut |s| {
                if matches!(s, Stmt::Check(_)) {
                    found = true;
                }
            },
        );
        assert!(found, "check in read()");
    }

    fn cured(src: &str, local_optimize: bool) -> Program {
        let mut p = tcil::parse_and_lower(src).unwrap();
        let opts = CureOptions {
            local_optimize,
            ..CureOptions::default()
        };
        cure(&mut p, &opts).unwrap();
        p
    }

    #[test]
    fn addr_of_null_checks_removed() {
        let src = "uint8_t g;
             uint8_t read(uint8_t * p) { return *p; }
             void main() { uint8_t x; x = 0; if (x) { } }";
        let with = cured(src, false).count_checks();
        let without = cured(src, true).count_checks();
        assert!(without <= with);
    }

    #[test]
    fn redundant_sequential_checks_removed() {
        // Two derefs of the same pointer in a row: the second check is
        // dominated by the first.
        let src = "uint8_t a;
             uint8_t f(uint8_t * p) { uint8_t x; x = *p; x = (uint8_t)(x + *p); return x; }
             void main() { f(&a); }";
        let unopt = cured(src, false);
        let opt = cured(src, true);
        assert!(opt.count_checks() < unopt.count_checks());
    }

    #[test]
    fn call_invalidates_memory() {
        let src = "uint8_t a;
             void touch() { }
             uint8_t f(uint8_t * p) { uint8_t x; x = *p; touch(); x = (uint8_t)(x + *p); return x; }
             void main() { f(&a); }";
        let opt = cured(src, true);
        // Both checks must survive: the call could retarget p (through a
        // global alias in general).
        assert_eq!(opt.count_checks(), 2);
    }
}
