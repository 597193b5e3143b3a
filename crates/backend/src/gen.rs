//! IR → M16 code generation.
//!
//! The generator walks the structured IR and emits stack-machine code.
//! Salient conventions:
//!
//! * statements leave the evaluation stack empty (so interrupts, which
//!   share the stack, always nest safely),
//! * `atomic` sections save the IRQ flag into a hidden frame slot (not
//!   the eval stack) so that `return`/`break` can restore it on early
//!   exit — [`AtomicStyle::DisableEnable`] skips the save entirely, which
//!   is the cXprop optimization the paper describes in §2.1,
//! * fat pointers travel as single eval-stack cells and as 2–3 words in
//!   memory; dereferencing one extracts its value with `FatVal`,
//! * `Check` statements lower to compare-and-`Trap` sequences tagged with
//!   their FLID; in the verbose error modes the failure path additionally
//!   references the on-node message global (one extra push of its
//!   address, mirroring the real handler's argument).

use mcu::image::{CodeFunction, Image, ParamSlot, SlotKind};
use mcu::isa::{AluOp, Instr, UnAluOp, Width};
use mcu::Profile;
use tcil::ir::*;
use tcil::types::{field_offset, size_of, PtrKind, StructDef, Type};
use tcil::visit;
use tcil::CompileError;

use crate::layout::Layout;

/// Generates the full image for `program`.
///
/// # Errors
///
/// Returns an error for IR the generator cannot lower (aggregate
/// assignments from non-place expressions, missing `main`).
pub fn generate(
    program: &Program,
    layout: &Layout,
    profile: Profile,
) -> Result<Image, CompileError> {
    let mut image = Image::new(profile);
    image.data_init = layout.data_init.clone();
    image.rodata = layout.rodata.clone();
    image.static_top = layout.static_top;
    image.static_bytes = layout.static_bytes;
    for (flid, msg) in &program.flid_messages {
        image.flid_table.insert(*flid, msg.clone());
    }
    for (i, g) in program.globals.iter().enumerate() {
        image.symbols.insert(g.name.clone(), layout.global_addr[i]);
    }
    for (fi, f) in program.functions.iter().enumerate() {
        let cf = FuncGen::new(program, layout, f, fi as u32)?.run()?;
        image.add_function(cf);
    }
    image.entry = match program.entry {
        Some(e) => Some(e.0),
        None => return Err(CompileError::generic("program has no `main`")),
    };
    Ok(image)
}

/// How a value of some type travels on the eval stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ValKind {
    /// Scalar integer (or thin/safe pointer as u16).
    Int(Width, bool),
    /// Fat pointer; `true` = SEQ.
    Fat(bool),
    /// Aggregate (struct/array): only movable via `MemCpy`.
    Agg(u32),
}

fn val_kind(ty: &Type, structs: &[StructDef]) -> ValKind {
    match ty {
        Type::Int(k) => ValKind::Int(width_of(k.size()), k.signed()),
        Type::Ptr(_, PtrKind::Thin | PtrKind::Safe) => ValKind::Int(Width::W16, false),
        Type::Ptr(_, PtrKind::Fseq) => ValKind::Fat(false),
        Type::Ptr(_, PtrKind::Seq) => ValKind::Fat(true),
        Type::Void => ValKind::Int(Width::W8, false),
        t => ValKind::Agg(size_of(t, structs)),
    }
}

fn width_of(bytes: u32) -> Width {
    match bytes {
        1 => Width::W8,
        2 => Width::W16,
        _ => Width::W32,
    }
}

/// Where a place's storage was resolved.
enum Loc {
    /// A frame slot at this byte offset.
    Local(u16),
    /// An absolute address.
    Global(u16),
    /// The address is on the eval stack.
    Stack,
}

/// A lexical scope that needs cleanup on early exit.
enum Scope {
    Loop {
        cont_target: u32,
        break_fixups: Vec<usize>,
    },
    Atomic {
        style: AtomicStyle,
        save_slot: u16,
    },
}

struct FuncGen<'a> {
    prog: &'a Program,
    layout: &'a Layout,
    f: &'a Function,
    code: Vec<Instr>,
    slots: Vec<Option<u16>>,
    frame_size: u16,
    scopes: Vec<Scope>,
    is_entry: bool,
}

impl<'a> FuncGen<'a> {
    fn new(
        prog: &'a Program,
        layout: &'a Layout,
        f: &'a Function,
        fid: u32,
    ) -> Result<Self, CompileError> {
        // Allocate frame slots for parameters and referenced locals only
        // (the "gcc" tier at least avoids materializing dead locals).
        let mut referenced = vec![false; f.locals.len()];
        referenced[..f.params as usize].fill(true);
        visit::walk_stmts(&f.body, &mut |s| {
            let mut mark_place = |p: &Place| {
                if let PlaceBase::Local(id) = &p.base {
                    referenced[id.0 as usize] = true;
                }
            };
            match s {
                Stmt::Assign(p, _) => mark_place(p),
                Stmt::Call { dst: Some(p), .. } | Stmt::BuiltinCall { dst: Some(p), .. } => {
                    mark_place(p)
                }
                _ => {}
            }
            visit::stmt_exprs(s, &mut |e| {
                visit::walk_expr(e, &mut |x| match &x.kind {
                    ExprKind::Load(p) | ExprKind::AddrOf(p) => {
                        if let PlaceBase::Local(id) = &p.base {
                            referenced[id.0 as usize] = true;
                        }
                    }
                    _ => {}
                });
            });
        });
        let mut slots = vec![None; f.locals.len()];
        let mut off = 0u16;
        for (i, l) in f.locals.iter().enumerate() {
            if referenced[i] {
                slots[i] = Some(off);
                off = off
                    .checked_add(size_of(&l.ty, &prog.structs) as u16)
                    .ok_or_else(|| CompileError::generic("frame too large"))?;
            }
        }
        let is_entry = prog.entry == Some(FuncId(fid));
        Ok(FuncGen {
            prog,
            layout,
            f,
            code: Vec::new(),
            slots,
            frame_size: off,
            scopes: Vec::new(),
            is_entry,
        })
    }

    fn run(mut self) -> Result<CodeFunction, CompileError> {
        let f = self.f;
        self.gen_block(&f.body)?;
        // Function epilogue.
        if self.f.interrupt.is_some() {
            self.emit(Instr::Reti);
        } else if self.is_entry {
            self.emit(Instr::Halt);
        } else {
            self.emit(Instr::Ret);
        }
        let mut cf = CodeFunction::new(self.f.name.clone());
        cf.interrupt = self.f.interrupt;
        cf.frame_size = self.frame_size;
        for i in 0..self.f.params as usize {
            let off = self.slots[i].expect("param slot");
            let kind = match val_kind(&self.f.locals[i].ty, &self.prog.structs) {
                ValKind::Int(w, _) => SlotKind::Scalar(w),
                ValKind::Fat(seq) => SlotKind::Fat { seq },
                ValKind::Agg(_) => {
                    return Err(CompileError::generic(
                        "aggregate parameter survived lowering",
                    ))
                }
            };
            cf.params.push(ParamSlot { off, kind });
        }
        cf.code = self.code;
        Ok(cf)
    }

    // ----- emission helpers -----

    fn emit(&mut self, i: Instr) -> usize {
        self.code.push(i);
        self.code.len() - 1
    }

    fn here(&self) -> u32 {
        self.code.len() as u32
    }

    fn patch(&mut self, at: usize, target: u32) {
        match &mut self.code[at] {
            Instr::Jmp { target: t } | Instr::Jz { target: t } | Instr::Jnz { target: t } => {
                *t = target
            }
            other => panic!("patching non-branch {other:?}"),
        }
    }

    fn slot_of(&mut self, id: LocalId) -> u16 {
        match self.slots[id.0 as usize] {
            Some(o) => o,
            None => {
                // A temp introduced late (atomic save slots) or a local
                // only written: allocate on demand.
                let ty = &self.f.locals[id.0 as usize].ty;
                let o = self.frame_size;
                self.frame_size += size_of(ty, &self.prog.structs) as u16;
                self.slots[id.0 as usize] = Some(o);
                o
            }
        }
    }

    /// Allocates a hidden one-byte frame slot (atomic save area).
    fn hidden_slot(&mut self) -> u16 {
        let o = self.frame_size;
        self.frame_size += 1;
        o
    }

    // ----- blocks and statements -----

    fn gen_block(&mut self, b: &Block) -> Result<(), CompileError> {
        for s in b {
            self.gen_stmt(s)?;
        }
        Ok(())
    }

    fn gen_stmt(&mut self, s: &Stmt) -> Result<(), CompileError> {
        match s {
            Stmt::Assign(place, e) => self.gen_assign(place, e),
            Stmt::Call { dst, func, args } => {
                for a in args {
                    self.gen_expr(a)?;
                }
                self.emit(Instr::Call { func: func.0 });
                let ret = &self.prog.functions[func.0 as usize].ret;
                if *ret != Type::Void {
                    match dst {
                        Some(d) => self.gen_store(d)?,
                        None => {
                            self.emit(Instr::Pop);
                        }
                    }
                }
                Ok(())
            }
            Stmt::BuiltinCall { dst, which, args } => self.gen_builtin(*which, args, dst.as_ref()),
            Stmt::If { cond, then_, else_ } => {
                self.gen_expr(cond)?;
                let jz = self.emit(Instr::Jz { target: 0 });
                self.gen_block(then_)?;
                if else_.is_empty() {
                    let t = self.here();
                    self.patch(jz, t);
                } else {
                    let jend = self.emit(Instr::Jmp { target: 0 });
                    let t = self.here();
                    self.patch(jz, t);
                    self.gen_block(else_)?;
                    let t = self.here();
                    self.patch(jend, t);
                }
                Ok(())
            }
            Stmt::While { cond, body } => {
                let cond_pos = self.here();
                self.gen_expr(cond)?;
                let jz = self.emit(Instr::Jz { target: 0 });
                self.scopes.push(Scope::Loop {
                    cont_target: cond_pos,
                    break_fixups: Vec::new(),
                });
                self.gen_block(body)?;
                self.emit(Instr::Jmp { target: cond_pos });
                let end = self.here();
                self.patch(jz, end);
                let Some(Scope::Loop { break_fixups, .. }) = self.scopes.pop() else {
                    unreachable!("loop scope imbalance")
                };
                for fx in break_fixups {
                    self.patch(fx, end);
                }
                Ok(())
            }
            Stmt::Return(e) => {
                // Unwind atomic scopes (restore the IRQ flag).
                let restores: Vec<(AtomicStyle, u16)> = self
                    .scopes
                    .iter()
                    .filter_map(|sc| match sc {
                        Scope::Atomic { style, save_slot } => Some((*style, *save_slot)),
                        _ => None,
                    })
                    .collect();
                for (style, slot) in restores.into_iter().rev() {
                    self.gen_atomic_exit(style, slot);
                }
                if let Some(e) = e {
                    self.gen_expr(e)?;
                }
                if self.f.interrupt.is_some() {
                    self.emit(Instr::Reti);
                } else if self.is_entry {
                    self.emit(Instr::Halt);
                } else {
                    self.emit(Instr::Ret);
                }
                Ok(())
            }
            Stmt::Break | Stmt::Continue => {
                // Restore atomics entered since the innermost loop.
                let mut restores = Vec::new();
                let mut loop_idx = None;
                for (i, sc) in self.scopes.iter().enumerate().rev() {
                    match sc {
                        Scope::Atomic { style, save_slot } => restores.push((*style, *save_slot)),
                        Scope::Loop { .. } => {
                            loop_idx = Some(i);
                            break;
                        }
                    }
                }
                let loop_idx =
                    loop_idx.ok_or_else(|| CompileError::generic("break outside loop"))?;
                for (style, slot) in restores {
                    self.gen_atomic_exit(style, slot);
                }
                if matches!(s, Stmt::Continue) {
                    let Scope::Loop { cont_target, .. } = &self.scopes[loop_idx] else {
                        unreachable!()
                    };
                    let t = *cont_target;
                    self.emit(Instr::Jmp { target: t });
                } else {
                    let j = self.emit(Instr::Jmp { target: 0 });
                    let Scope::Loop { break_fixups, .. } = &mut self.scopes[loop_idx] else {
                        unreachable!()
                    };
                    break_fixups.push(j);
                }
                Ok(())
            }
            Stmt::Atomic { body, style } => {
                let slot = self.hidden_slot();
                match style {
                    AtomicStyle::SaveRestore => {
                        self.emit(Instr::IrqSave);
                        self.emit(Instr::StLocal {
                            off: slot,
                            width: Width::W8,
                        });
                    }
                    AtomicStyle::DisableEnable => {
                        self.emit(Instr::IrqDisable);
                    }
                }
                self.scopes.push(Scope::Atomic {
                    style: *style,
                    save_slot: slot,
                });
                self.gen_block(body)?;
                self.scopes.pop();
                self.gen_atomic_exit(*style, slot);
                Ok(())
            }
            Stmt::Block(b) => self.gen_block(b),
            Stmt::Check(c) => self.gen_check(c),
            Stmt::Nop => Ok(()),
        }
    }

    fn gen_atomic_exit(&mut self, style: AtomicStyle, slot: u16) {
        match style {
            AtomicStyle::SaveRestore => {
                self.emit(Instr::LdLocal {
                    off: slot,
                    width: Width::W8,
                    signed: false,
                });
                self.emit(Instr::IrqRestore);
            }
            AtomicStyle::DisableEnable => {
                self.emit(Instr::IrqEnable);
            }
        }
    }

    fn gen_assign(&mut self, place: &Place, e: &Expr) -> Result<(), CompileError> {
        match val_kind(&place.ty, &self.prog.structs) {
            ValKind::Agg(size) => {
                // Struct/array copy: both sides must be places.
                let ExprKind::Load(src) = &e.kind else {
                    return Err(CompileError::generic(
                        "aggregate assignment from non-place expression",
                    ));
                };
                let src = src.clone();
                self.gen_place_addr_on_stack(&src)?;
                self.gen_place_addr_on_stack(place)?;
                self.emit(Instr::MemCpy { bytes: size as u16 });
                Ok(())
            }
            _ => {
                self.gen_expr(e)?;
                self.gen_store(place)
            }
        }
    }

    fn gen_builtin(
        &mut self,
        which: Builtin,
        args: &[Expr],
        dst: Option<&Place>,
    ) -> Result<(), CompileError> {
        match which {
            Builtin::HwRead8 | Builtin::HwRead16 => {
                let w = if which == Builtin::HwRead8 {
                    Width::W8
                } else {
                    Width::W16
                };
                self.gen_expr(&args[0])?;
                self.emit(Instr::Ld {
                    width: w,
                    signed: false,
                });
                match dst {
                    Some(d) => self.gen_store(d)?,
                    None => {
                        self.emit(Instr::Pop);
                    }
                }
            }
            Builtin::HwWrite8 | Builtin::HwWrite16 => {
                let w = if which == Builtin::HwWrite8 {
                    Width::W8
                } else {
                    Width::W16
                };
                self.gen_expr(&args[1])?;
                self.gen_expr(&args[0])?;
                self.emit(Instr::St { width: w });
            }
            Builtin::Sleep => {
                self.emit(Instr::Sleep);
            }
            Builtin::IrqSave => {
                self.emit(Instr::IrqSave);
                match dst {
                    Some(d) => self.gen_store(d)?,
                    None => {
                        self.emit(Instr::Pop);
                    }
                }
            }
            Builtin::IrqRestore => {
                self.gen_expr(&args[0])?;
                self.emit(Instr::IrqRestore);
            }
            Builtin::IrqEnable => {
                self.emit(Instr::IrqEnable);
            }
            Builtin::IrqDisable => {
                self.emit(Instr::IrqDisable);
            }
        }
        Ok(())
    }

    // ----- checks -----

    fn gen_check(&mut self, c: &Check) -> Result<(), CompileError> {
        let mut fail_jumps: Vec<usize> = Vec::new();
        let ok_jump = match &c.kind {
            CheckKind::NonNull(e) => {
                self.gen_expr(e)?;
                if matches!(val_kind(&e.ty, &self.prog.structs), ValKind::Fat(_)) {
                    self.emit(Instr::FatVal);
                }
                self.emit(Instr::Jnz { target: 0 })
            }
            CheckKind::Upper { ptr, len } => {
                // null?
                self.gen_expr(ptr)?;
                self.emit(Instr::FatVal);
                fail_jumps.push(self.emit(Instr::Jz { target: 0 }));
                // val + len <= end ?
                self.gen_expr(ptr)?;
                self.emit(Instr::FatVal);
                self.emit(Instr::PushI(*len as i64));
                self.emit(Instr::Bin {
                    op: AluOp::Add,
                    width: Width::W16,
                    signed: false,
                });
                self.gen_expr(ptr)?;
                self.emit(Instr::FatEnd);
                self.emit(Instr::Bin {
                    op: AluOp::Le,
                    width: Width::W16,
                    signed: false,
                });
                self.emit(Instr::Jnz { target: 0 })
            }
            CheckKind::Bounds { ptr, len } => {
                self.gen_expr(ptr)?;
                self.emit(Instr::FatVal);
                fail_jumps.push(self.emit(Instr::Jz { target: 0 }));
                // base <= val ?
                self.gen_expr(ptr)?;
                self.emit(Instr::FatBase);
                self.gen_expr(ptr)?;
                self.emit(Instr::FatVal);
                self.emit(Instr::Bin {
                    op: AluOp::Le,
                    width: Width::W16,
                    signed: false,
                });
                fail_jumps.push(self.emit(Instr::Jz { target: 0 }));
                // val + len <= end ?
                self.gen_expr(ptr)?;
                self.emit(Instr::FatVal);
                self.emit(Instr::PushI(*len as i64));
                self.emit(Instr::Bin {
                    op: AluOp::Add,
                    width: Width::W16,
                    signed: false,
                });
                self.gen_expr(ptr)?;
                self.emit(Instr::FatEnd);
                self.emit(Instr::Bin {
                    op: AluOp::Le,
                    width: Width::W16,
                    signed: false,
                });
                self.emit(Instr::Jnz { target: 0 })
            }
            CheckKind::IndexBound { idx, n } => {
                self.gen_expr(idx)?;
                self.emit(Instr::PushI(*n as i64));
                self.emit(Instr::Bin {
                    op: AluOp::Lt,
                    width: Width::W16,
                    signed: false,
                });
                self.emit(Instr::Jnz { target: 0 })
            }
        };
        // Fail path.
        let fail_pos = self.here();
        for j in fail_jumps {
            self.patch(j, fail_pos);
        }
        // In the verbose error modes the failure handler receives the
        // message address; model the extra push (the message global also
        // occupies memory, which the layout already accounted).
        if let Some(gid) = self.prog.find_global(&format!("__ccured_msg_{}", c.flid.0)) {
            let addr = self.layout.global_addr[gid.0 as usize];
            self.emit(Instr::PushI(addr as i64));
            if self.prog.globals[gid.0 as usize].is_const {
                // ROM-resident message: the failure handler must read it
                // through program-memory loads; pass the address-space
                // flag (the extra per-check code that makes the paper's
                // verbose-in-ROM bar taller than verbose-in-RAM).
                self.emit(Instr::PushI(1));
            }
        }
        self.emit(Instr::Trap { flid: c.flid.0 });
        let ok_pos = self.here();
        self.patch(ok_jump, ok_pos);
        Ok(())
    }

    // ----- expressions -----

    fn gen_expr(&mut self, e: &Expr) -> Result<(), CompileError> {
        match &e.kind {
            ExprKind::Const(v) => {
                self.emit(Instr::PushI(*v));
            }
            ExprKind::Str(id) => {
                let addr = self.layout.str_addr[id.0 as usize];
                self.emit(Instr::PushI(addr as i64));
            }
            ExprKind::SizeOf(t) => {
                let v = size_of(t, &self.prog.structs);
                self.emit(Instr::PushI(v as i64));
            }
            ExprKind::Load(p) => self.gen_load(p)?,
            ExprKind::AddrOf(p) => self.gen_place_addr_on_stack(p)?,
            ExprKind::Unary(op, a) => {
                self.gen_expr(a)?;
                let (w, _) = int_wk(&a.ty);
                let uop = match op {
                    UnOp::Neg => UnAluOp::Neg,
                    UnOp::BitNot => UnAluOp::BitNot,
                    UnOp::Not => UnAluOp::Not,
                };
                self.emit(Instr::Un { op: uop, width: w });
            }
            ExprKind::Binary(op, a, b) => self.gen_binary(*op, a, b)?,
            ExprKind::Cast(a) => {
                self.gen_expr(a)?;
                if let (Type::Int(dst), Type::Int(src)) = (&e.ty, &a.ty) {
                    if dst.size() < src.size() {
                        self.emit(Instr::Wrap {
                            width: width_of(dst.size()),
                            signed: dst.signed(),
                        });
                    }
                }
            }
            ExprKind::MakeFat { val, base, end } => {
                let seq = base.is_some();
                self.gen_expr(val)?;
                if let Some(b) = base {
                    self.gen_expr(b)?;
                }
                self.gen_expr(end)?;
                self.emit(Instr::MkFat { seq });
            }
        }
        Ok(())
    }

    fn gen_binary(&mut self, op: BinOp, a: &Expr, b: &Expr) -> Result<(), CompileError> {
        match op {
            BinOp::PtrAdd | BinOp::PtrSub => {
                self.gen_expr(a)?;
                let elem = match &a.ty {
                    Type::Ptr(t, _) => size_of(t, &self.prog.structs),
                    other => {
                        return Err(CompileError::generic(format!(
                            "pointer arithmetic on {other}"
                        )))
                    }
                };
                self.gen_expr(b)?;
                if elem != 1 {
                    self.emit(Instr::PushI(elem as i64));
                    self.emit(Instr::Bin {
                        op: AluOp::Mul,
                        width: Width::W16,
                        signed: false,
                    });
                }
                if op == BinOp::PtrSub {
                    self.emit(Instr::Un {
                        op: UnAluOp::Neg,
                        width: Width::W16,
                    });
                }
                if matches!(val_kind(&a.ty, &self.prog.structs), ValKind::Fat(_)) {
                    self.emit(Instr::FatAdd);
                } else {
                    self.emit(Instr::Bin {
                        op: AluOp::Add,
                        width: Width::W16,
                        signed: false,
                    });
                }
            }
            _ => {
                // Fat pointers compare by value part.
                self.gen_expr(a)?;
                if matches!(val_kind(&a.ty, &self.prog.structs), ValKind::Fat(_)) {
                    self.emit(Instr::FatVal);
                }
                self.gen_expr(b)?;
                if matches!(val_kind(&b.ty, &self.prog.structs), ValKind::Fat(_)) {
                    self.emit(Instr::FatVal);
                }
                let (w, signed) = int_wk(&a.ty);
                let alu = match op {
                    BinOp::Add => AluOp::Add,
                    BinOp::Sub => AluOp::Sub,
                    BinOp::Mul => AluOp::Mul,
                    BinOp::Div => AluOp::Div,
                    BinOp::Mod => AluOp::Mod,
                    BinOp::And => AluOp::And,
                    BinOp::Or => AluOp::Or,
                    BinOp::Xor => AluOp::Xor,
                    BinOp::Shl => AluOp::Shl,
                    BinOp::Shr => AluOp::Shr,
                    BinOp::Eq => AluOp::Eq,
                    BinOp::Ne => AluOp::Ne,
                    BinOp::Lt => AluOp::Lt,
                    BinOp::Le => AluOp::Le,
                    BinOp::PtrAdd | BinOp::PtrSub => unreachable!(),
                };
                self.emit(Instr::Bin {
                    op: alu,
                    width: w,
                    signed,
                });
            }
        }
        Ok(())
    }

    // ----- places -----

    /// Resolves a place to a location, pushing the address on the stack
    /// only when it cannot be encoded directly.
    fn resolve_place(&mut self, p: &Place) -> Result<Loc, CompileError> {
        let structs = &self.prog.structs;
        // Static part: base + constant offset.
        let (mut loc, mut ty): (Loc, Type) = match &p.base {
            PlaceBase::Local(id) => {
                let off = self.slot_of(*id);
                (Loc::Local(off), self.f.locals[id.0 as usize].ty.clone())
            }
            PlaceBase::Global(g) => {
                let addr = self.layout.global_addr[g.0 as usize];
                (
                    Loc::Global(addr),
                    self.prog.globals[g.0 as usize].ty.clone(),
                )
            }
            PlaceBase::Deref(e) => {
                self.gen_expr(e)?;
                if matches!(val_kind(&e.ty, structs), ValKind::Fat(_)) {
                    self.emit(Instr::FatVal);
                }
                let ty = match &e.ty {
                    Type::Ptr(t, _) => (**t).clone(),
                    other => return Err(CompileError::generic(format!("deref of {other}"))),
                };
                (Loc::Stack, ty)
            }
        };
        let mut const_off: u32 = 0;
        for el in &p.elems {
            match el {
                PlaceElem::Field { sid, idx } => {
                    const_off += field_offset(*sid, *idx, structs);
                    ty = structs[sid.0 as usize].fields[*idx as usize].ty.clone();
                }
                PlaceElem::Index(i) => {
                    let elem_ty = match &ty {
                        Type::Array(t, _) => (**t).clone(),
                        other => return Err(CompileError::generic(format!("index into {other}"))),
                    };
                    let elem_size = size_of(&elem_ty, structs);
                    if let Some(v) = i.as_const() {
                        const_off += v as u32 * elem_size;
                    } else {
                        // Materialize the address so far, then add i*size.
                        loc = self.materialize(loc, &mut const_off);
                        self.gen_expr(i)?;
                        if elem_size != 1 {
                            self.emit(Instr::PushI(elem_size as i64));
                            self.emit(Instr::Bin {
                                op: AluOp::Mul,
                                width: Width::W16,
                                signed: false,
                            });
                        }
                        self.emit(Instr::Bin {
                            op: AluOp::Add,
                            width: Width::W16,
                            signed: false,
                        });
                    }
                    ty = elem_ty;
                }
            }
        }
        Ok(match loc {
            Loc::Local(off) => Loc::Local(off + const_off as u16),
            Loc::Global(addr) => Loc::Global(addr.wrapping_add(const_off as u16)),
            Loc::Stack => {
                if const_off != 0 {
                    self.emit(Instr::PushI(const_off as i64));
                    self.emit(Instr::Bin {
                        op: AluOp::Add,
                        width: Width::W16,
                        signed: false,
                    });
                }
                Loc::Stack
            }
        })
    }

    fn materialize(&mut self, loc: Loc, const_off: &mut u32) -> Loc {
        match loc {
            Loc::Local(off) => {
                self.emit(Instr::AddrLocal {
                    off: off + *const_off as u16,
                });
                *const_off = 0;
                Loc::Stack
            }
            Loc::Global(addr) => {
                self.emit(Instr::PushI(addr.wrapping_add(*const_off as u16) as i64));
                *const_off = 0;
                Loc::Stack
            }
            Loc::Stack => {
                if *const_off != 0 {
                    self.emit(Instr::PushI(*const_off as i64));
                    self.emit(Instr::Bin {
                        op: AluOp::Add,
                        width: Width::W16,
                        signed: false,
                    });
                    *const_off = 0;
                }
                Loc::Stack
            }
        }
    }

    fn gen_place_addr_on_stack(&mut self, p: &Place) -> Result<(), CompileError> {
        let loc = self.resolve_place(p)?;
        let mut zero = 0;
        self.materialize(loc, &mut zero);
        Ok(())
    }

    fn gen_load(&mut self, p: &Place) -> Result<(), CompileError> {
        let kind = val_kind(&p.ty, &self.prog.structs);
        let loc = self.resolve_place(p)?;
        match (kind, loc) {
            (ValKind::Int(w, s), Loc::Local(off)) => {
                self.emit(Instr::LdLocal {
                    off,
                    width: w,
                    signed: s,
                });
            }
            (ValKind::Int(w, s), Loc::Global(addr)) => {
                self.emit(Instr::LdGlobal {
                    addr,
                    width: w,
                    signed: s,
                });
            }
            (ValKind::Int(w, s), Loc::Stack) => {
                self.emit(Instr::Ld {
                    width: w,
                    signed: s,
                });
            }
            (ValKind::Fat(seq), Loc::Local(off)) => {
                self.emit(Instr::LdLocalFat { off, seq });
            }
            (ValKind::Fat(seq), Loc::Global(addr)) => {
                self.emit(Instr::LdGlobalFat { addr, seq });
            }
            (ValKind::Fat(seq), Loc::Stack) => {
                self.emit(Instr::LdFat { seq });
            }
            (ValKind::Agg(_), _) => {
                return Err(CompileError::generic("aggregate load outside assignment"));
            }
        }
        Ok(())
    }

    fn gen_store(&mut self, p: &Place) -> Result<(), CompileError> {
        let kind = val_kind(&p.ty, &self.prog.structs);
        let loc = self.resolve_place(p)?;
        match (kind, loc) {
            (ValKind::Int(w, _), Loc::Local(off)) => {
                self.emit(Instr::StLocal { off, width: w });
            }
            (ValKind::Int(w, _), Loc::Global(addr)) => {
                self.emit(Instr::StGlobal { addr, width: w });
            }
            (ValKind::Int(w, _), Loc::Stack) => {
                self.emit(Instr::St { width: w });
            }
            (ValKind::Fat(seq), Loc::Local(off)) => {
                self.emit(Instr::StLocalFat { off, seq });
            }
            (ValKind::Fat(seq), Loc::Global(addr)) => {
                self.emit(Instr::StGlobalFat { addr, seq });
            }
            (ValKind::Fat(seq), Loc::Stack) => {
                self.emit(Instr::StFat { seq });
            }
            (ValKind::Agg(_), _) => {
                return Err(CompileError::generic("aggregate store outside assignment"));
            }
        }
        Ok(())
    }
}

/// Width/signedness of an integer-or-pointer operand.
fn int_wk(ty: &Type) -> (Width, bool) {
    match ty {
        Type::Int(k) => (width_of(k.size()), k.signed()),
        Type::Ptr(..) => (Width::W16, false),
        _ => (Width::W16, false),
    }
}
