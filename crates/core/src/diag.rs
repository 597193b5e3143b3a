//! Structured diagnostics: the typed finding record analysis passes
//! emit.
//!
//! The toolchain's first-class analyses (today the `races` pass; the
//! design is pass-agnostic) report findings as [`Diagnostic`]s rather
//! than log lines: a severity, a stable machine-matchable code, a
//! FLID-style `func:site` location, and a human-readable message. The
//! records land in [`crate::Metrics::diagnostics`], so harnesses can
//! count them by code, gates can diff them, and `races(fix)` can prove
//! a fixpoint by emitting none.
//!
//! # Diagnostic codes
//!
//! | Code | Name | Meaning |
//! |------|------|---------|
//! | `R001` | `unprotected-sync-write` | synchronous write to a racy global outside any atomic section |
//! | `R002` | `torn-16bit-access` | unprotected access wider than the 8-bit bus (interruptible between the two bus transfers) |
//! | `R003` | `async-rmw` | unprotected synchronous read-modify-write of a global that async context also updates (lost-update hazard) |
//! | `S001` | `unbounded-recursion` | the call graph has a cycle, so no finite stack bound exists |
//! | `S002` | `unresolved-call-target` | a call's target set could not be resolved (out-of-range function index or a vector wired to a missing function) |
//! | `S003` | `stack-budget-exceeded` | the certified worst-case stack bound exceeds the SRAM stack budget |

use std::fmt;

/// How bad a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Informational.
    Note,
    /// A hazard worth fixing; the build is still usable.
    Warning,
    /// A defect; the artifact should not ship.
    Error,
}

impl Severity {
    /// The severity's lowercase display name.
    pub fn name(self) -> &'static str {
        match self {
            Severity::Note => "note",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

/// One structured finding from an analysis pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Severity class.
    pub severity: Severity,
    /// Stable, machine-matchable code (e.g. `R001`).
    pub code: String,
    /// FLID-style site label: `func:site` (the statement-site analogue
    /// of `file:line` — the IR carries no source positions).
    pub site: String,
    /// Human-readable explanation.
    pub message: String,
}

impl Diagnostic {
    /// A new diagnostic.
    pub fn new(
        severity: Severity,
        code: impl Into<String>,
        site: impl Into<String>,
        message: impl Into<String>,
    ) -> Diagnostic {
        Diagnostic {
            severity,
            code: code.into(),
            site: site.into(),
            message: message.into(),
        }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}] {}: {}",
            self.severity.name(),
            self.code,
            self.site,
            self.message
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_display() {
        let d = Diagnostic::new(
            Severity::Warning,
            "R002",
            "TimerM__fired:3",
            "torn 16-bit write to `TimerM__interval`",
        );
        assert_eq!(
            d.to_string(),
            "warning[R002] TimerM__fired:3: torn 16-bit write to `TimerM__interval`"
        );
    }

    #[test]
    fn severity_orders_by_badness() {
        assert!(Severity::Note < Severity::Warning);
        assert!(Severity::Warning < Severity::Error);
    }
}
