//! Local (basic-block) safety-check elimination, shared by the CCured
//! local optimizer and the backend's GCC-class optimizer.
//!
//! The paper's Figure 2 shows that GCC alone and the CCured optimizer
//! remove roughly the same, surprisingly large population of "easy"
//! checks. Both of those tools implement the same two local ideas, which
//! live here so our corresponding stages share one implementation:
//!
//! * **trivially satisfiable checks** — null checks on `&x` or string
//!   literals, constant in-range indices, whole-object fat pointers
//!   dereferenced without arithmetic;
//! * **straight-line redundancy** — an identical earlier check in the
//!   same block with no intervening write to its operands and no
//!   intervening call dominates a later one.

use crate::ir::*;
use crate::visit;

/// Removes trivially satisfiable and block-locally redundant checks from
/// every function. Returns the number of checks removed.
pub fn remove_local_checks(program: &mut Program) -> usize {
    let mut removed = 0;
    for f in &mut program.functions {
        removed += optimize_block(&mut f.body);
    }
    for f in &mut program.functions {
        visit::sweep_nops(&mut f.body);
    }
    removed
}

fn optimize_block(block: &mut Block) -> usize {
    let mut removed = 0;
    let mut seen: Vec<CheckKind> = Vec::new();
    for s in block.iter_mut() {
        match s {
            Stmt::Check(c) => {
                if check_never_fails(&c.kind) || seen.contains(&c.kind) {
                    *s = Stmt::Nop;
                    removed += 1;
                } else {
                    seen.push(c.kind.clone());
                }
            }
            Stmt::Assign(place, _) => invalidate(&mut seen, place),
            Stmt::Call { dst, .. } | Stmt::BuiltinCall { dst, .. } => {
                seen.clear();
                if let Some(d) = dst {
                    invalidate(&mut seen, d);
                }
            }
            Stmt::If { then_, else_, .. } => {
                removed += optimize_block(then_);
                removed += optimize_block(else_);
                seen.clear();
            }
            Stmt::While { body, .. } => {
                removed += optimize_block(body);
                seen.clear();
            }
            Stmt::Atomic { body, .. } | Stmt::Block(body) => {
                removed += optimize_block(body);
                seen.clear();
            }
            _ => {}
        }
    }
    removed
}

/// Whether a check is satisfiable by construction and can be deleted.
pub fn check_never_fails(kind: &CheckKind) -> bool {
    match kind {
        CheckKind::NonNull(e) => non_null(e),
        CheckKind::IndexBound { idx, n } => match idx.as_const() {
            Some(v) => v >= 0 && (v as u64) < *n as u64,
            None => false,
        },
        CheckKind::Upper { ptr, len } | CheckKind::Bounds { ptr, len } => {
            whole_object_fat(ptr, *len)
        }
    }
}

fn non_null(e: &Expr) -> bool {
    match &e.kind {
        ExprKind::AddrOf(_) | ExprKind::Str(_) => true,
        ExprKind::MakeFat { val, .. } => non_null(val),
        _ => false,
    }
}

/// `MakeFat { val: &obj..., end: &obj + n }` with a positive constant
/// extent, dereferenced without intervening arithmetic, is in bounds by
/// construction.
fn whole_object_fat(e: &Expr, _len: u32) -> bool {
    match &e.kind {
        ExprKind::MakeFat { val, end, .. } => {
            let val_addr = matches!(val.kind, ExprKind::AddrOf(_));
            let end_past = matches!(
                &end.kind,
                ExprKind::Binary(BinOp::PtrAdd, base, off)
                    if matches!(base.kind, ExprKind::AddrOf(_))
                        && off.as_const().map(|v| v > 0).unwrap_or(false)
            );
            val_addr && end_past
        }
        _ => false,
    }
}

/// Forgets the seen checks a write to `place` may falsify: every one,
/// for a write through a pointer; otherwise those that load a place with
/// the same root variable, or load through any pointer (which may alias
/// it).
fn invalidate(seen: &mut Vec<CheckKind>, place: &Place) {
    if matches!(place.base, PlaceBase::Deref(_)) {
        seen.clear();
        return;
    }
    seen.retain(|kind| {
        let mut reads = false;
        visit::walk_expr(operand(kind), &mut |e| {
            if let ExprKind::Load(p) = &e.kind {
                reads |= matches!(p.base, PlaceBase::Deref(_)) || p.base == place.base;
            }
        });
        !reads
    });
}

/// The one expression a check evaluates.
fn operand(kind: &CheckKind) -> &Expr {
    match kind {
        CheckKind::NonNull(e)
        | CheckKind::Upper { ptr: e, .. }
        | CheckKind::Bounds { ptr: e, .. }
        | CheckKind::IndexBound { idx: e, .. } => e,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{IntKind, Type};

    #[test]
    fn addr_of_is_never_null() {
        let place = Place::local(LocalId(0), Type::u8());
        assert!(check_never_fails(&CheckKind::NonNull(Expr::addr_of(place))));
        assert!(!check_never_fails(&CheckKind::NonNull(Expr::load(
            Place::local(LocalId(0), Type::thin_ptr(Type::u8()))
        ))));
    }

    #[test]
    fn a_write_to_a_checked_variable_keeps_the_next_check() {
        // check(i < 4); i = 9; check(i < 4): the second check guards a
        // different `i`. With no write between, it is redundant.
        let i = || Place::local(LocalId(3), Type::u8());
        let check = || {
            Stmt::Check(Check {
                kind: CheckKind::IndexBound {
                    idx: Expr::load(i()),
                    n: 4,
                },
                flid: Flid(1),
            })
        };
        let write = |place: Place| Stmt::Assign(place, Expr::const_int(9, IntKind::U8));
        let mut block = vec![check(), write(i()), check()];
        assert_eq!(optimize_block(&mut block), 0);
        let mut block = vec![check(), check()];
        assert_eq!(optimize_block(&mut block), 1);
        // A write to another variable leaves it redundant.
        let j = Place::local(LocalId(30), Type::u8());
        let mut block = vec![check(), write(j), check()];
        assert_eq!(optimize_block(&mut block), 1);
    }

    #[test]
    fn const_index_in_range() {
        let idx = Expr::const_int(3, IntKind::U16);
        assert!(check_never_fails(&CheckKind::IndexBound { idx, n: 4 }));
        let idx = Expr::const_int(4, IntKind::U16);
        assert!(!check_never_fails(&CheckKind::IndexBound { idx, n: 4 }));
    }
}
