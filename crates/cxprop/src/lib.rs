//! cXprop: the aggressive whole-program dataflow analyzer and optimizer
//! of the Safe TinyOS toolchain (§2.1 of the paper).
//!
//! Where CCured's own optimizer (and the backend's GCC tier) only remove
//! "easy" checks, this crate removes *any* part of a program it can show
//! dead or useless:
//!
//! * [`engine`] — whole-program dataflow over pluggable abstract domains
//!   (constants or intervals) with fat-pointer bounds tracking,
//!   TinyOS-concurrency-aware global refinement, and branch refinement;
//!   its transform phase deletes checks, folds constants, and folds
//!   branches,
//! * [`inline`] — the source-to-source inliner that gives the context
//!   sensitivity Figure 2 shows is decisive,
//! * [`copyprop`] — block-local copy propagation,
//! * [`dce`] — strong dead code *and data* elimination with id
//!   renumbering (Figure 3(b)'s RAM savings),
//! * [`atomic_opt`] — nested-atomic elimination and interrupt-enable-bit
//!   save avoidance,
//! * [`races`] — cXprop's own conservative, pointer-following race
//!   detector, and [`race_sites`] — its per-site classifier and the
//!   `races(fix)` hardener, both verdicts over the
//!   [`tcil::concurrency::Census`].
//!
//! # Example
//!
//! ```
//! use cxprop::{optimize, CxpropOptions};
//!
//! let mut program = tcil::parse_and_lower(
//!     "uint8_t g;
//!      uint8_t dead;
//!      void main() { uint8_t x; x = 2; if (x < 5) { g = 1; } dead = 9; }",
//! ).unwrap();
//! let stats = optimize(&mut program, &CxpropOptions::default());
//! assert!(stats.dce.globals_removed >= 1);      // `dead` eliminated
//! assert!(stats.engine.branches_folded >= 1);   // `x < 5` decided
//! ```

pub mod atomic_opt;
pub mod aval;
pub mod copyprop;
pub mod dce;
pub mod engine;
pub mod inline;
pub mod ival;
pub mod race_sites;
pub mod races;

use tcil::Program;

pub use atomic_opt::AtomicStats;
pub use dce::DceStats;
pub use engine::{DomainKind, EngineStats};
pub use inline::InlineOptions;
pub use race_sites::{HardenStats, RaceFindings, RaceSite, SiteKind};
pub use races::RaceReport;

/// Pipeline options.
#[derive(Debug, Clone)]
pub struct CxpropOptions {
    /// Run the source-to-source inliner first.
    pub inline: bool,
    /// Inliner thresholds.
    pub inline_options: InlineOptions,
    /// Abstract integer domain.
    pub domain: DomainKind,
    /// Fault-hardened check elimination: remove a check only when the
    /// proof also covers the fault-reachable value set (loads of mutable
    /// RAM globals widened to their type's full range — see
    /// [`engine`]'s module docs). Disable (`cxprop(noharden)`) to get
    /// the classical policy, which the fault-injection harness uses to
    /// demonstrate the detection-rate collapse it causes.
    pub fault_harden: bool,
    /// Run copy propagation.
    pub copyprop: bool,
    /// Run dead code/data elimination.
    pub dce: bool,
    /// Run atomic-section optimization.
    pub atomic_opt: bool,
    /// Maximum optimize rounds.
    pub max_rounds: usize,
}

impl Default for CxpropOptions {
    fn default() -> Self {
        CxpropOptions {
            inline: true,
            inline_options: InlineOptions::default(),
            domain: DomainKind::Intervals,
            fault_harden: true,
            copyprop: true,
            dce: true,
            atomic_opt: true,
            max_rounds: 3,
        }
    }
}

/// Aggregate statistics from one [`optimize`] run.
#[derive(Debug, Clone, Default)]
pub struct CxpropStats {
    /// Call sites inlined.
    pub inlined: usize,
    /// Engine transform totals.
    pub engine: EngineStats,
    /// Copy-propagation redirects.
    pub copies_propagated: usize,
    /// DCE totals.
    pub dce: DceStats,
    /// Atomic-section totals.
    pub atomics: AtomicStats,
    /// Race refinement result (the refinement always runs first).
    pub races: RaceReport,
}

/// Runs the full cXprop pipeline over `program` in place.
pub fn optimize(program: &mut Program, options: &CxpropOptions) -> CxpropStats {
    let mut stats = CxpropStats {
        races: races::refine(program),
        ..Default::default()
    };
    if options.inline {
        stats.inlined = inline::run(program, &options.inline_options);
    }
    for _ in 0..options.max_rounds {
        let mut changed = false;
        let mut eng = engine::Engine::analyze_opts(program, options.domain, options.fault_harden);
        let es = eng.transform(program);
        stats.engine.checks_removed += es.checks_removed;
        stats.engine.branches_folded += es.branches_folded;
        stats.engine.consts_folded += es.consts_folded;
        changed |= es != EngineStats::default();
        if options.copyprop {
            let n = copyprop::run(program);
            stats.copies_propagated += n;
            changed |= n > 0;
        }
        if options.atomic_opt {
            let a = atomic_opt::run(program);
            stats.atomics.removed += a.removed;
            stats.atomics.demoted += a.demoted;
            changed |= a != AtomicStats::default();
        }
        if options.dce {
            let d = dce::run(program);
            stats.dce.functions_removed += d.functions_removed;
            stats.dce.globals_removed += d.globals_removed;
            stats.dce.stores_removed += d.stores_removed;
            changed |= d != DceStats::default();
        }
        if !changed {
            break;
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccured::{cure, CureOptions};

    #[test]
    fn removes_checks_on_constant_buffers() {
        let mut p = tcil::parse_and_lower(
            "uint8_t buf[8];
             uint16_t sum;
             uint8_t get(uint8_t * ptr, uint8_t i) { return ptr[i]; }
             void main() {
                 uint8_t i;
                 for (i = 0; i < 8; i++) { sum += get(buf, i); }
             }",
        )
        .unwrap();
        cure(&mut p, &CureOptions::default()).unwrap();
        let before = p.count_checks();
        assert!(before > 0);
        let stats = optimize(&mut p, &CxpropOptions::default());
        let after = p.count_checks();
        assert!(
            after < before,
            "cxprop should remove checks: {before} -> {after} ({stats:?})"
        );
    }

    #[test]
    fn inlining_improves_check_removal() {
        // Without inlining, the check inside `get` sees the join of all
        // call sites; with inlining each site is analyzed separately —
        // this is Figure 2's mechanism.
        let src = "
             uint8_t buf[8];
             uint8_t other[4];
             uint16_t sum;
             uint8_t get(uint8_t * ptr, uint8_t i) { return ptr[i]; }
             void main() {
                 uint8_t i;
                 for (i = 0; i < 8; i++) { sum += get(buf, i); }
                 for (i = 0; i < 4; i++) { sum += get(other, i); }
             }";
        let count = |inline: bool| {
            let mut p = tcil::parse_and_lower(src).unwrap();
            cure(&mut p, &CureOptions::default()).unwrap();
            let opts = CxpropOptions {
                inline,
                ..Default::default()
            };
            optimize(&mut p, &opts);
            p.count_checks()
        };
        let with_inline = count(true);
        let without = count(false);
        assert!(
            with_inline <= without,
            "inlining must not hurt: {with_inline} vs {without}"
        );
    }

    #[test]
    fn interval_domain_beats_constants() {
        let src = "
             uint8_t buf[16];
             uint16_t sum;
             void main() {
                 uint8_t i;
                 for (i = 0; i < 16; i++) { sum += buf[i]; }
             }";
        let count = |domain: DomainKind| {
            let mut p = tcil::parse_and_lower(src).unwrap();
            cure(&mut p, &CureOptions::default()).unwrap();
            let opts = CxpropOptions {
                domain,
                ..Default::default()
            };
            optimize(&mut p, &opts);
            p.count_checks()
        };
        let intervals = count(DomainKind::Intervals);
        let constants = count(DomainKind::Constants);
        assert!(intervals <= constants, "{intervals} vs {constants}");
    }

    #[test]
    fn hardened_elimination_keeps_checks_on_ram_global_indices() {
        // `pos` provably stays in 0..8 under uncorrupted semantics (the
        // only store masks with & 7), so the classical interval policy
        // deletes the index check — and with it the coverage against a
        // bit flip in `pos`. The hardened policy must keep it: the proof
        // rests on an invariant a corrupted RAM cell does not honor.
        let src = "
             uint8_t buf[8];
             uint8_t pos;
             uint16_t sum;
             void main() {
                 uint8_t i;
                 for (i = 0; i < 100; i++) {
                     pos = (uint8_t)((pos + 1) & 7);
                     sum += buf[pos];
                 }
             }";
        let count = |harden: bool| {
            let mut p = tcil::parse_and_lower(src).unwrap();
            cure(&mut p, &CureOptions::default()).unwrap();
            let opts = CxpropOptions {
                inline: false,
                fault_harden: harden,
                ..Default::default()
            };
            optimize(&mut p, &opts);
            p.count_checks()
        };
        assert_eq!(count(false), 0, "classical policy removes the check");
        assert!(count(true) > 0, "hardened policy keeps fault coverage");
    }

    #[test]
    fn hardened_elimination_still_removes_locally_proven_checks() {
        // A loop over a *local* counter: locals sit outside the
        // static-data fault window, so the branch-refined proof covers
        // the fault-reachable set too and the check still goes away —
        // the Figure 2/3 wins survive hardening.
        let src = "
             uint8_t buf[8];
             uint16_t sum;
             void main() {
                 uint8_t i;
                 for (i = 0; i < 8; i++) { sum += buf[i]; }
             }";
        let mut p = tcil::parse_and_lower(src).unwrap();
        cure(&mut p, &CureOptions::default()).unwrap();
        assert!(p.count_checks() > 0);
        optimize(&mut p, &CxpropOptions::default());
        assert_eq!(p.count_checks(), 0, "local-index proof survives hardening");
    }

    #[test]
    fn hardened_elimination_removes_checks_whose_proof_covers_the_type() {
        // An index masked to 0..8 *at the access* is safe for every
        // value the corrupted cell can take — the proof covers the full
        // fault-reachable set, so even the hardened policy removes it.
        let src = "
             uint8_t buf[8];
             uint8_t pos;
             uint16_t sum;
             void main() {
                 uint8_t i;
                 for (i = 0; i < 100; i++) {
                     pos = (uint8_t)(pos + 3);
                     sum += buf[pos & 7];
                 }
             }";
        let mut p = tcil::parse_and_lower(src).unwrap();
        cure(&mut p, &CureOptions::default()).unwrap();
        assert!(p.count_checks() > 0);
        optimize(
            &mut p,
            &CxpropOptions {
                inline: false,
                ..Default::default()
            },
        );
        assert_eq!(p.count_checks(), 0, "mask-at-access proof is fault-proof");
    }

    #[test]
    fn optimized_programs_still_run_correctly() {
        let src = "
             uint8_t buf[8];
             uint16_t sum;
             uint16_t total(uint8_t * p, uint8_t n) {
                 uint16_t s;
                 uint8_t i;
                 s = 0;
                 for (i = 0; i < n; i++) { s += p[i]; }
                 return s;
             }
             void main() {
                 uint8_t i;
                 for (i = 0; i < 8; i++) { buf[i] = (uint8_t)(i * 2); }
                 sum = total(buf, 8);
                 __hw_write8(0xF000, (uint8_t)(sum & 7));
             }";
        let mut p = tcil::parse_and_lower(src).unwrap();
        cure(&mut p, &CureOptions::default()).unwrap();
        optimize(&mut p, &CxpropOptions::default());
        let image = backend::compile(
            &p,
            mcu::Profile::mica2(),
            &backend::BackendOptions::default(),
        )
        .unwrap();
        let mut m = mcu::Machine::new(&image);
        m.run(1_000_000);
        assert_eq!(
            m.state,
            mcu::RunState::Halted,
            "fault: {:?}",
            m.fault_message()
        );
        // sum = 56; LED register observes 56 & 7 = 0.
        assert_eq!(m.devices.leds.value, 0);
        // The observable output survives even though the optimizer may
        // have constant-folded the whole chain.
        assert!(m.instr_count > 0);
    }
}
