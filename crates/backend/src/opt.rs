//! The weak, GCC-class optimizer.
//!
//! Everything here is intraprocedural and syntactic — deliberately so.
//! The paper's Figure 2 "gcc" bar shows that a stock compiler removes a
//! surprising number of "easy" checks but plateaus far below the
//! whole-program cXprop stack; this module is calibrated to that tier:
//!
//! * constant folding (with `sizeof` resolution — layout is final here),
//! * algebraic identities (`x+0`, `x*1`, ...),
//! * constant-condition branch folding and `while(0)` removal,
//! * unreachable-code removal after `return`/`break`/`continue`,
//! * the shared local check eliminator ([`tcil::checkopt`]).
//!
//! No inlining, no interprocedural constants, no pointer analysis — those
//! are cXprop's whole-program powers.

use tcil::fold::{const_truth, fold_expr, simplify_identities};
use tcil::ir::*;
use tcil::visit;
use tcil::Program;

/// Runs the weak optimizer to a fixpoint (bounded).
pub fn optimize(program: &mut Program) {
    for _ in 0..4 {
        let mut changed = false;
        let structs = &program.structs;
        for f in &mut program.functions {
            visit::walk_stmts_mut(&mut f.body, &mut |s| {
                visit::stmt_exprs_mut(s, &mut |e| {
                    changed |= fold_expr(e, structs, true);
                    changed |= simplify_identities(e);
                });
            });
            changed |= fold_branches(&mut f.body);
            changed |= drop_unreachable(&mut f.body);
            visit::sweep_nops(&mut f.body);
        }
        let removed = tcil::checkopt::remove_local_checks(program);
        changed |= removed > 0;
        if !changed {
            break;
        }
    }
}

/// Replaces `if (const)` with the taken branch and removes `while (0)`.
fn fold_branches(block: &mut Block) -> bool {
    let mut changed = false;
    for s in block.iter_mut() {
        match s {
            Stmt::If { cond, then_, else_ } => {
                changed |= fold_branches(then_);
                changed |= fold_branches(else_);
                if let Some(t) = const_truth(cond) {
                    let taken = if t {
                        std::mem::take(then_)
                    } else {
                        std::mem::take(else_)
                    };
                    *s = Stmt::Block(taken);
                    changed = true;
                }
            }
            Stmt::While { cond, body } => {
                changed |= fold_branches(body);
                if const_truth(cond) == Some(false) {
                    *s = Stmt::Nop;
                    changed = true;
                }
            }
            Stmt::Atomic { body, .. } | Stmt::Block(body) => {
                changed |= fold_branches(body);
            }
            _ => {}
        }
    }
    changed
}

/// Removes statements after an unconditional control transfer.
fn drop_unreachable(block: &mut Block) -> bool {
    let mut changed = false;
    let mut cut = None;
    for (i, s) in block.iter_mut().enumerate() {
        match s {
            Stmt::If { then_, else_, .. } => {
                changed |= drop_unreachable(then_);
                changed |= drop_unreachable(else_);
            }
            Stmt::While { body, .. } | Stmt::Atomic { body, .. } | Stmt::Block(body) => {
                changed |= drop_unreachable(body);
            }
            Stmt::Return(_) | Stmt::Break | Stmt::Continue => {
                if i + 1 < usize::MAX {
                    cut = Some(i + 1);
                }
                break;
            }
            _ => {}
        }
    }
    if let Some(c) = cut {
        if c < block.len() {
            block.truncate(c);
            changed = true;
        }
    }
    changed
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn folds_constant_branches() {
        let mut p = tcil::parse_and_lower(
            "uint8_t g; void main() { if (1) { g = 1; } else { g = 2; } while (0) { g = 3; } }",
        )
        .unwrap();
        optimize(&mut p);
        let body = &p.functions[0].body;
        // No If or While remains.
        let mut ifs = 0;
        visit::walk_stmts(body, &mut |s| {
            if matches!(s, Stmt::If { .. } | Stmt::While { .. }) {
                ifs += 1;
            }
        });
        assert_eq!(ifs, 0);
    }

    #[test]
    fn removes_unreachable_tail() {
        let mut p =
            tcil::parse_and_lower("uint8_t g; void f() { return; g = 1; } void main() {}").unwrap();
        optimize(&mut p);
        let body = &p.functions[0].body;
        assert_eq!(body.len(), 1);
        assert!(matches!(body[0], Stmt::Return(None)));
    }

    #[test]
    fn folds_sizeof_now_that_layout_is_final() {
        let mut p =
            tcil::parse_and_lower("uint16_t g; void main() { g = sizeof(uint32_t); }").unwrap();
        optimize(&mut p);
        let Stmt::Assign(_, e) = &p.functions[0].body[0] else {
            panic!()
        };
        assert_eq!(e.as_const(), Some(4));
    }
}
