//! Per-access-site race classification and auto-hardening.
//!
//! [`races::refine`] answers *which globals* race; this module answers
//! *where* and *how*. [`classify`] takes one
//! [`tcil::concurrency::Census`], refines the racy-global flags from it,
//! and files every unprotected census site of a racy global — one that
//! synchronous or preemptible-handler code reaches outside any `atomic`
//! — under one of three stable hazard codes:
//!
//! * **R001 `unprotected-sync-write`** — a synchronous (or
//!   preemptible-handler) write outside any `atomic` section; an interrupt can observe or clobber the variable
//!   mid-protocol,
//! * **R002 `torn-16bit-access`** — an unprotected access wider than the
//!   8-bit bus; the two bus transfers can be split by an interrupt,
//!   leaving a half-updated (or half-read) word,
//! * **R003 `async-rmw`** — an unprotected read-modify-write of a global
//!   that asynchronous context also updates: the classic lost-update
//!   race (`x = x + 1` preempted between load and store).
//!
//! Sites are labeled `func:index` with the deterministic statement-site
//! numbering of [`tcil::visit::walk_stmts_sited`] — the statement-level
//! analogue of check FLIDs, since the IR carries no source positions.
//!
//! [`harden`] is the `races(fix)` transform: it wraps every flagged
//! statement in a minimal [`Stmt::Atomic`] section (`SaveRestore`, so
//! the wrap is correct in any context) and re-runs the analysis until no
//! diagnostics remain. A `return` statement that reads a racy global
//! cannot be wrapped whole — returning out of an atomic section would
//! skip the IRQ restore — so its value is hoisted through an atomic
//! temporary instead. Nested sections introduced by wrapping are left
//! for [`crate::atomic_opt`] to clean up.

use std::collections::{BTreeMap, BTreeSet};

use tcil::concurrency::Census;
use tcil::ir::*;
use tcil::visit;
use tcil::Program;

use crate::races::{self, RaceReport};

/// The hazard class of one access site, in increasing severity order
/// (a site exhibiting several hazards is filed under the worst).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SiteKind {
    /// R001: unprotected synchronous write.
    UnprotectedSyncWrite,
    /// R002: unprotected access wider than the 8-bit bus.
    Torn16Access,
    /// R003: unprotected synchronous read-modify-write.
    AsyncRmw,
}

impl SiteKind {
    /// The stable diagnostic code (`R001` / `R002` / `R003`).
    pub fn code(self) -> &'static str {
        match self {
            SiteKind::UnprotectedSyncWrite => "R001",
            SiteKind::Torn16Access => "R002",
            SiteKind::AsyncRmw => "R003",
        }
    }

    /// The code's kebab-case name.
    pub fn name(self) -> &'static str {
        match self {
            SiteKind::UnprotectedSyncWrite => "unprotected-sync-write",
            SiteKind::Torn16Access => "torn-16bit-access",
            SiteKind::AsyncRmw => "async-rmw",
        }
    }
}

/// One classified access site of one racy global.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RaceSite {
    /// Function containing the site.
    pub func: FuncId,
    /// The function's name (for `func:site` labels).
    pub func_name: String,
    /// Deterministic statement-site index within the function
    /// ([`tcil::visit::walk_stmts_sited`] numbering).
    pub site: u32,
    /// The racy global accessed.
    pub global: String,
    /// Hazard classification.
    pub kind: SiteKind,
    /// Whether the site writes the global.
    pub write: bool,
    /// Width of the access in bytes.
    pub width: u32,
}

impl RaceSite {
    /// The FLID-style site label (`func:index`).
    pub fn label(&self) -> String {
        visit::site_label(&self.func_name, self.site)
    }
}

/// Result of one [`classify`] run.
#[derive(Debug, Clone, Default)]
pub struct RaceFindings {
    /// The per-global verdicts ([`races::refine`] output; `Global::racy`
    /// flags in the program are updated to match).
    pub report: RaceReport,
    /// Every flagged access site, in (function, site, global) order.
    pub sites: Vec<RaceSite>,
}

/// Takes the census, refines the `racy` flags from it
/// ([`races::refine`]), and classifies every unprotected access site of
/// the racy globals.
///
/// Accesses through pointers cannot be attributed to a specific global
/// and are not classified per-site (the per-global pointer conservatism
/// of the verdict still flags the *globals*); a racy global reached only
/// through pointers therefore contributes no site diagnostics.
pub fn classify(program: &mut Program) -> RaceFindings {
    let census = Census::of(program);
    let report = races::refine_with(program, &census);
    let sites = census
        .sites
        .iter()
        .filter(|s| !s.protected && program.globals[s.global.0 as usize].racy)
        .filter_map(|s| {
            let kind = if s.read && s.write {
                SiteKind::AsyncRmw
            } else if s.width > 1 {
                SiteKind::Torn16Access
            } else if s.write {
                SiteKind::UnprotectedSyncWrite
            } else {
                // A one-byte pure read is atomic on the 8-bit bus: no hazard.
                return None;
            };
            Some(RaceSite {
                func: s.func,
                func_name: program.functions[s.func.0 as usize].name.clone(),
                site: s.site,
                global: program.globals[s.global.0 as usize].name.clone(),
                kind,
                write: s.write,
                width: s.width,
            })
        })
        .collect();
    RaceFindings { report, sites }
}

/// What [`harden`] did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HardenStats {
    /// Minimal atomic sections wrapped around flagged statements (plus
    /// atomic value-hoists for flagged `return`s).
    pub sections_added: usize,
    /// Analysis/transform iterations until the fixpoint.
    pub iterations: usize,
    /// Sites still diagnosed when no further transform applied (0 at a
    /// clean fixpoint).
    pub residual_sites: usize,
}

/// The `races(fix)` transform: wraps every flagged synchronous access
/// site in a minimal atomic section and iterates [`classify`] — one
/// census per iteration — to a zero-diagnostic fixpoint. Returns the
/// transform stats and the findings of the final program; run
/// [`crate::atomic_opt`] afterwards to unwrap the nesting this
/// introduces (it changes no finding: what it unwraps is nested in
/// another section or runs with interrupts off).
pub fn harden(program: &mut Program) -> (HardenStats, RaceFindings) {
    let mut stats = HardenStats::default();
    let mut findings = classify(program);
    // Each iteration wraps at least one site or stops; the site count is
    // finite and wrapped sites never re-flag, so this terminates. The
    // bound is sheer paranoia.
    while !findings.sites.is_empty() && stats.iterations < 64 {
        stats.iterations += 1;
        let mut by_func: BTreeMap<u32, BTreeSet<u32>> = BTreeMap::new();
        for site in &findings.sites {
            by_func.entry(site.func.0).or_default().insert(site.site);
        }
        let mut wrapped = 0;
        for (fi, targets) in by_func {
            wrapped += wrap_sites(&mut program.functions[fi as usize], &targets);
        }
        stats.sections_added += wrapped;
        if wrapped == 0 {
            stats.residual_sites = findings.sites.len();
            break;
        }
        findings = classify(program);
    }
    (stats, findings)
}

/// Wraps the statements at `targets` (site indices in `f`'s current
/// numbering) in atomic sections, bottom-up so the numbering of the walk
/// is never disturbed. Returns the number of sections added.
fn wrap_sites(f: &mut Function, targets: &BTreeSet<u32>) -> usize {
    fn go(
        block: &mut Block,
        next: &mut u32,
        targets: &BTreeSet<u32>,
        locals: &mut Vec<Local>,
        wrapped: &mut usize,
    ) {
        for s in block.iter_mut() {
            let idx = *next;
            *next += 1;
            // Children first: wrapping `s` afterwards cannot disturb the
            // site numbering of anything the walk has yet to visit.
            match s {
                Stmt::If { then_, else_, .. } => {
                    go(then_, next, targets, locals, wrapped);
                    go(else_, next, targets, locals, wrapped);
                }
                Stmt::While { body, .. } | Stmt::Atomic { body, .. } => {
                    go(body, next, targets, locals, wrapped)
                }
                Stmt::Block(b) => go(b, next, targets, locals, wrapped),
                _ => {}
            }
            if targets.contains(&idx) {
                if let Stmt::Return(Some(e)) = s {
                    // `atomic { return x; }` would skip the IRQ restore;
                    // hoist the value through an atomic temporary.
                    let ty = e.ty.clone();
                    locals.push(Local {
                        name: format!("__t{}", locals.len()),
                        ty: ty.clone(),
                        is_temp: true,
                    });
                    let tmp = LocalId((locals.len() - 1) as u32);
                    let value = std::mem::replace(e, Expr::load(Place::local(tmp, ty.clone())));
                    let ret = std::mem::replace(s, Stmt::Nop);
                    *s = Stmt::Block(vec![
                        Stmt::Atomic {
                            body: vec![Stmt::Assign(Place::local(tmp, ty), value)],
                            style: AtomicStyle::SaveRestore,
                        },
                        ret,
                    ]);
                    *wrapped += 1;
                } else if safe_to_wrap(s) {
                    let inner = std::mem::replace(s, Stmt::Nop);
                    *s = Stmt::Atomic {
                        body: vec![inner],
                        style: AtomicStyle::SaveRestore,
                    };
                    *wrapped += 1;
                }
            }
        }
    }
    let mut wrapped = 0;
    let mut next = 0u32;
    let Function { body, locals, .. } = f;
    go(body, &mut next, targets, locals, &mut wrapped);
    wrapped
}

/// Whether wrapping `s` whole in an atomic section preserves control
/// flow: no `return` may escape the section (it would skip the IRQ
/// restore), and no `break`/`continue` may target a loop outside it.
fn safe_to_wrap(s: &Stmt) -> bool {
    fn ok(block: &Block, in_loop: bool) -> bool {
        block.iter().all(|s| match s {
            Stmt::Return(_) => false,
            Stmt::Break | Stmt::Continue => in_loop,
            Stmt::If { then_, else_, .. } => ok(then_, in_loop) && ok(else_, in_loop),
            Stmt::While { body, .. } => ok(body, true),
            Stmt::Atomic { body, .. } | Stmt::Block(body) => ok(body, in_loop),
            _ => true,
        })
    }
    match s {
        Stmt::Return(_) | Stmt::Break | Stmt::Continue => false,
        Stmt::While { body, .. } => ok(body, true),
        Stmt::If { then_, else_, .. } => ok(then_, false) && ok(else_, false),
        Stmt::Atomic { body, .. } | Stmt::Block(body) => ok(body, false),
        _ => true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lower(src: &str) -> Program {
        tcil::parse_and_lower(src).unwrap()
    }

    #[test]
    fn classifies_all_three_codes() {
        let mut p = lower(
            "uint8_t flag;
             uint16_t count;
             uint8_t accum;
             interrupt(TIMER0) void h() { flag = 1; count = 2; accum = 3; }
             void main() {
                 flag = 0;                      /* R001: 8-bit write */
                 count = 7;                     /* R002: 16-bit write */
                 accum = (uint8_t)(accum + 1);  /* R003: rmw */
             }",
        );
        let f = classify(&mut p);
        let codes: Vec<&str> = f.sites.iter().map(|s| s.kind.code()).collect();
        assert_eq!(codes, ["R001", "R002", "R003"]);
        assert!(f.sites.iter().all(|s| s.func_name == "main"));
        assert!(f.sites[0].label().starts_with("main:"));
        assert_eq!(f.sites[1].width, 2);
    }

    #[test]
    fn rmw_outranks_torn_width() {
        let mut p = lower(
            "uint16_t count;
             interrupt(TIMER0) void h() { count = 1; }
             void main() { count = (uint16_t)(count + 1); }",
        );
        let f = classify(&mut p);
        assert_eq!(f.sites.len(), 1);
        assert_eq!(f.sites[0].kind, SiteKind::AsyncRmw);
        assert_eq!(f.sites[0].width, 2);
    }

    #[test]
    fn protected_and_handler_sites_are_clean() {
        let mut p = lower(
            "uint8_t shared;
             interrupt(TIMER0) void h() { shared = (uint8_t)(shared + 1); }
             void main() { atomic { shared = 2; } }",
        );
        let f = classify(&mut p);
        assert!(f.sites.is_empty(), "{:?}", f.sites);
    }

    #[test]
    fn one_byte_pure_reads_are_not_flagged() {
        let mut p = lower(
            "uint8_t shared;
             uint8_t out;
             interrupt(TIMER0) void h() { shared = 1; }
             void main() { out = shared; }",
        );
        let f = classify(&mut p);
        // `shared` is racy (async write + sync read), but an 8-bit read
        // is atomic on the bus: no site diagnostic.
        assert!(f.report.racy.contains(&"shared".to_string()));
        assert!(f.sites.is_empty(), "{:?}", f.sites);
    }

    #[test]
    fn harden_reaches_zero_diagnostics() {
        let mut p = lower(
            "uint8_t flag;
             uint16_t count;
             interrupt(TIMER0) void h() { flag = 1; count = 2; }
             void main() {
                 flag = 0;
                 count = (uint16_t)(count + 1);
                 if (count < 5) { count = 0; }
             }",
        );
        let (stats, findings) = harden(&mut p);
        assert!(stats.sections_added >= 3, "{stats:?}");
        assert_eq!(stats.residual_sites, 0);
        assert!(findings.sites.is_empty());
        assert!(classify(&mut p).sites.is_empty());
    }

    #[test]
    fn harden_hoists_flagged_returns() {
        let mut p = lower(
            "uint16_t count;
             interrupt(TIMER0) void h() { count = 2; }
             uint16_t get() { return count; }
             void main() { count = get(); }",
        );
        let (stats, _) = harden(&mut p);
        assert_eq!(stats.residual_sites, 0, "{stats:?}");
        assert!(classify(&mut p).sites.is_empty());
    }

    #[test]
    fn hardened_program_still_runs() {
        let mut p = lower(
            "uint16_t count;
             uint8_t i;
             interrupt(TIMER0) void h() { count = (uint16_t)(count + 1); }
             void main() {
                 for (i = 0; i < 10; i++) { count = (uint16_t)(count + 2); }
                 __hw_write8(0xF000, (uint8_t)(count & 7));
             }",
        );
        let (stats, _) = harden(&mut p);
        assert_eq!(stats.residual_sites, 0, "{stats:?}");
        let image = backend::compile(
            &p,
            mcu::Profile::mica2(),
            &backend::BackendOptions::default(),
        )
        .unwrap();
        let mut m = mcu::Machine::new(&image);
        m.run(1_000_000);
        assert_eq!(m.state, mcu::RunState::Halted, "{:?}", m.fault_message());
        // count = 20; LED register observes 20 & 7 = 4.
        assert_eq!(m.devices.leds.value, 4);
    }
}
