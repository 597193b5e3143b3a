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

    /// The diagnostic as one JSON object
    /// (`{"severity":"warning","code":"R001","site":"f:3","message":"..."}`).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"severity\":\"{}\",\"code\":\"{}\",\"site\":\"{}\",\"message\":\"{}\"}}",
            self.severity.name(),
            escape(&self.code),
            escape(&self.site),
            escape(&self.message)
        )
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

/// A list of diagnostics as a JSON array.
pub fn diagnostics_json(diags: &[Diagnostic]) -> String {
    let items: Vec<String> = diags.iter().map(Diagnostic::to_json).collect();
    format!("[{}]", items.join(","))
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_display_and_json() {
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
        assert_eq!(
            d.to_json(),
            "{\"severity\":\"warning\",\"code\":\"R002\",\"site\":\"TimerM__fired:3\",\
             \"message\":\"torn 16-bit write to `TimerM__interval`\"}"
        );
        assert_eq!(diagnostics_json(&[]), "[]");
        assert!(diagnostics_json(&[d.clone(), d]).starts_with("[{"));
    }

    #[test]
    fn json_escapes_specials() {
        let d = Diagnostic::new(Severity::Error, "X\"1", "f:0", "a\\b\nc");
        assert_eq!(
            d.to_json(),
            "{\"severity\":\"error\",\"code\":\"X\\\"1\",\"site\":\"f:0\",\"message\":\"a\\\\b\\nc\"}"
        );
    }

    #[test]
    fn severity_orders_by_badness() {
        assert!(Severity::Note < Severity::Warning);
        assert!(Severity::Warning < Severity::Error);
    }
}
