//! cXprop's own race-condition detector (§2.1).
//!
//! The paper replaced reliance on nesC's analysis with a detector that is
//! "conservative (nesC's analysis does not follow pointers) and slightly
//! more precise". Both are verdicts over one
//! [`tcil::concurrency::Census`]: an address-taken global is reachable
//! through pointer writes, and a race additionally requires at least one
//! *write* — two contexts that only ever read a variable do not race.

use tcil::concurrency::Census;
use tcil::Program;

/// Race analysis result.
#[derive(Debug, Clone, Default)]
pub struct RaceReport {
    /// Globals confirmed racy.
    pub racy: Vec<String>,
    /// Globals nesC's verdict flags that cXprop's clears (read-only
    /// sharing), over the same census.
    pub cleared: Vec<String>,
}

/// Takes the census and updates [`tcil::ir::Global::racy`] flags in place.
pub fn refine(program: &mut Program) -> RaceReport {
    let census = Census::of(program);
    refine_with(program, &census)
}

/// Sets every global's `racy` flag from cXprop's verdict over `census`,
/// which must be `program`'s.
pub(crate) fn refine_with(program: &mut Program, census: &Census) -> RaceReport {
    let mut report = RaceReport::default();
    let verdicts = census.nesc_racy().into_iter().zip(census.cxprop_racy());
    for (g, (nesc, cxprop)) in program.globals.iter_mut().zip(verdicts) {
        g.racy = cxprop;
        if cxprop {
            report.racy.push(g.name.clone());
        } else if nesc {
            report.cleared.push(g.name.clone());
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_only_sharing_is_not_a_race() {
        let mut p = tcil::parse_and_lower(
            "uint8_t shared;
             uint8_t a;
             uint8_t b;
             interrupt(TIMER0) void h() { a = shared; }
             void main() { b = shared; }",
        )
        .unwrap();
        let report = refine(&mut p);
        assert_eq!(report.cleared, vec!["shared"]);
        assert!(report.racy.is_empty());
    }

    #[test]
    fn write_race_confirmed() {
        let mut p = tcil::parse_and_lower(
            "uint8_t shared;
             interrupt(TIMER0) void h() { shared = 1; }
             void main() { shared = 2; }",
        )
        .unwrap();
        let report = refine(&mut p);
        assert_eq!(report.racy, vec!["shared"]);
    }

    #[test]
    fn pointer_following_is_conservative() {
        let mut p = tcil::parse_and_lower(
            "uint8_t g;
             uint8_t * p;
             void main() { p = &g; g = 1; }
             interrupt(TIMER0) void h() { *p = 3; }",
        )
        .unwrap();
        let report = refine(&mut p);
        assert!(report.racy.contains(&"g".to_string()));
    }

    #[test]
    fn atomic_protection_respected() {
        let mut p = tcil::parse_and_lower(
            "uint8_t shared;
             interrupt(TIMER0) void h() { shared = 1; }
             void main() { atomic { shared = 2; } }",
        )
        .unwrap();
        let report = refine(&mut p);
        assert!(report.racy.is_empty());
    }
}
