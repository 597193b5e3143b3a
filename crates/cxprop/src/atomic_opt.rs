//! Atomic-section optimization (§2.1).
//!
//! The concurrency analysis "supports the elimination of nested atomic
//! sections and the avoidance of the need to save the state of the
//! interrupt-enable bit for non-nested atomic sections":
//!
//! * an `atomic` lexically nested inside another is a no-op — unwrap it,
//! * an `atomic` in code reachable **only from interrupt handlers** runs
//!   with interrupts already disabled — unwrap it, unless a handler
//!   that reaches it re-enables interrupts
//!   ([`Contexts::preemptible`]),
//! * an `atomic` in code reachable **only from task/main context** runs
//!   with interrupts known-enabled — demote
//!   [`AtomicStyle::SaveRestore`] to the cheaper
//!   [`AtomicStyle::DisableEnable`],
//! * code reachable from both contexts keeps the conservative form.

use tcil::concurrency::Contexts;
use tcil::ir::*;
use tcil::visit;
use tcil::Program;

/// What the pass changed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AtomicStats {
    /// Nested or handler-context sections unwrapped entirely.
    pub removed: usize,
    /// Save/restore sections demoted to plain disable/enable.
    pub demoted: usize,
}

/// Runs the optimization.
pub fn run(program: &mut Program) -> AtomicStats {
    let cx = Contexts::of(program);
    let mut stats = AtomicStats::default();
    for (fi, f) in program.functions.iter_mut().enumerate() {
        let ctx = match (cx.is_sync[fi], cx.is_async[fi]) {
            (true, false) => Ctx::SyncOnly,
            (false, true) if !cx.preemptible[fi] => Ctx::AsyncOnly,
            _ => Ctx::Mixed,
        };
        rewrite_block(&mut f.body, ctx, 0, &mut stats);
        visit::sweep_nops(&mut f.body);
    }
    stats
}

#[derive(Clone, Copy, PartialEq)]
enum Ctx {
    SyncOnly,
    AsyncOnly,
    Mixed,
}

fn rewrite_block(b: &mut Block, ctx: Ctx, depth: u32, stats: &mut AtomicStats) {
    for s in b.iter_mut() {
        match s {
            Stmt::Atomic { body, style } => {
                let mut inner = std::mem::take(body);
                rewrite_block(&mut inner, ctx, depth + 1, stats);
                if depth > 0 || ctx == Ctx::AsyncOnly {
                    // Nested, or interrupts already off: plain block.
                    stats.removed += 1;
                    *s = Stmt::Block(inner);
                } else {
                    if ctx == Ctx::SyncOnly && *style == AtomicStyle::SaveRestore {
                        *style = AtomicStyle::DisableEnable;
                        stats.demoted += 1;
                    }
                    *body = inner;
                }
            }
            Stmt::If { then_, else_, .. } => {
                rewrite_block(then_, ctx, depth, stats);
                rewrite_block(else_, ctx, depth, stats);
            }
            Stmt::While { body, .. } | Stmt::Block(body) => {
                rewrite_block(body, ctx, depth, stats);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_atomics_unwrapped() {
        let mut p = tcil::parse_and_lower(
            "uint8_t g;
             interrupt(TIMER0) void h() { g = g; }
             void main() { atomic { atomic { g = 1; } } }",
        )
        .unwrap();
        let stats = run(&mut p);
        assert_eq!(stats.removed, 1);
        assert_eq!(stats.demoted, 1);
    }

    #[test]
    fn handler_context_atomics_removed() {
        let mut p = tcil::parse_and_lower(
            "uint8_t g;
             void helper() { atomic { g = 1; } }
             interrupt(TIMER0) void h() { helper(); }
             void main() { }",
        )
        .unwrap();
        let stats = run(&mut p);
        assert_eq!(stats.removed, 1);
    }

    #[test]
    fn sync_atomics_demoted() {
        let mut p = tcil::parse_and_lower(
            "uint8_t g;
             interrupt(TIMER0) void h() { g = 1; }
             void main() { atomic { g = 2; } }",
        )
        .unwrap();
        let stats = run(&mut p);
        assert_eq!(stats.demoted, 1);
        assert_eq!(stats.removed, 0);
        let main = &p.functions[p.entry.unwrap().0 as usize];
        assert!(matches!(
            main.body[0],
            Stmt::Atomic {
                style: AtomicStyle::DisableEnable,
                ..
            }
        ));
    }

    #[test]
    fn mixed_context_kept_conservative() {
        let mut p = tcil::parse_and_lower(
            "uint8_t g;
             void shared() { atomic { g = 1; } }
             interrupt(TIMER0) void h() { shared(); }
             void main() { shared(); }",
        )
        .unwrap();
        let stats = run(&mut p);
        assert_eq!(stats.removed, 0);
        assert_eq!(stats.demoted, 0);
    }
}
