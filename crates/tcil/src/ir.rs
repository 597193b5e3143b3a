//! The typed, structured intermediate representation.
//!
//! Every stage of the toolchain consumes and produces [`Program`]s:
//!
//! * the nesC frontend lowers wired components into one whole program,
//! * the CCured stage annotates pointer kinds and inserts [`Check`]
//!   statements (safety checks are *first-class statements* here, exactly
//!   so that optimizers can reason about them and the backend can count the
//!   survivors — the paper's Figure 2 methodology),
//! * cXprop rewrites and deletes statements,
//! * the backend lowers the survivors to M16 code.
//!
//! Expressions are **side-effect free** (calls are statements); control
//! flow is structured (no `goto`), which lets the abstract interpreter in
//! `cxprop` run directly over the statement tree.

use crate::intern::{StrId, StringPool};
use crate::types::{IntKind, StructDef, StructId, Type};

/// Identifies a global variable within a [`Program`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GlobalId(pub u32);

/// Identifies a function within a [`Program`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FuncId(pub u32);

/// Identifies a local variable within a [`Function`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LocalId(pub u32);

/// A *failure location identifier*: the compressed error-message token the
/// paper calls a FLID (§3.2). Every inserted check gets a unique FLID; the
/// host-side table maps it back to a human-readable message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Flid(pub u16);

/// IR binary operators. Comparisons yield `0`/`1` as `uint8_t`; signedness
/// of `Div`/`Mod`/`Shr`/`Lt`/`Le` follows the operand type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// Integer addition (wraps to the result type).
    Add,
    /// Integer subtraction.
    Sub,
    /// Integer multiplication.
    Mul,
    /// Division (signedness from operand kind).
    Div,
    /// Remainder.
    Mod,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Shift left.
    Shl,
    /// Shift right (arithmetic if signed).
    Shr,
    /// Equality.
    Eq,
    /// Inequality.
    Ne,
    /// Less-than.
    Lt,
    /// Less-or-equal.
    Le,
    /// Pointer + integer (scaled by pointee size at lowering time).
    PtrAdd,
    /// Pointer - integer.
    PtrSub,
}

/// IR unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Arithmetic negation.
    Neg,
    /// Bitwise complement.
    BitNot,
    /// Logical not (yields `0`/`1`).
    Not,
}

/// A typed expression. Expressions never have side effects.
#[derive(Debug, Clone, PartialEq, Hash)]
pub struct Expr {
    /// Static type of the value.
    pub ty: Type,
    /// Payload.
    pub kind: ExprKind,
}

/// Expression payloads.
#[derive(Debug, Clone, PartialEq, Hash)]
pub enum ExprKind {
    /// Integer constant (stored sign-extended; `ty` gives the width).
    Const(i64),
    /// Address of an interned string (placed by the backend).
    Str(StrId),
    /// Read a place.
    Load(Place),
    /// Address of a place.
    AddrOf(Place),
    /// Unary operation.
    Unary(UnOp, Box<Expr>),
    /// Binary operation.
    Binary(BinOp, Box<Expr>, Box<Expr>),
    /// Conversion to `ty` (integer width changes; pointer casts are
    /// representation no-ops).
    Cast(Box<Expr>),
    /// `sizeof(t)` — kept symbolic until pointer kinds are fixed, because
    /// CCured fat pointers change struct sizes.
    SizeOf(Type),
    /// Constructs a fat pointer from thin parts (inserted by the CCured
    /// stage when a fresh pointer — `&x`, a string literal — flows into a
    /// FSEQ/SEQ context). `base` is unused (`None`) for FSEQ pointers.
    MakeFat {
        /// Pointer value.
        val: Box<Expr>,
        /// Lower bound (SEQ only).
        base: Option<Box<Expr>>,
        /// Upper bound (one past the last valid byte).
        end: Box<Expr>,
    },
}

impl Expr {
    /// An integer constant of the given kind.
    pub fn const_int(v: i64, kind: IntKind) -> Expr {
        Expr {
            ty: Type::Int(kind),
            kind: ExprKind::Const(kind.wrap(v)),
        }
    }

    /// The canonical `uint8_t` truth values used by comparisons.
    pub fn bool_val(b: bool) -> Expr {
        Expr::const_int(b as i64, IntKind::U8)
    }

    /// A typed null pointer constant.
    pub fn null(ty: Type) -> Expr {
        debug_assert!(ty.is_ptr());
        Expr {
            ty,
            kind: ExprKind::Const(0),
        }
    }

    /// Reads `place`, yielding its type.
    pub fn load(place: Place) -> Expr {
        Expr {
            ty: place.ty.clone(),
            kind: ExprKind::Load(place),
        }
    }

    /// Takes the address of `place` as a thin pointer.
    pub fn addr_of(place: Place) -> Expr {
        let ty = Type::thin_ptr(place.ty.clone());
        Expr {
            ty,
            kind: ExprKind::AddrOf(place),
        }
    }

    /// Builds a binary expression with an explicit result type.
    pub fn binary(op: BinOp, a: Expr, b: Expr, ty: Type) -> Expr {
        Expr {
            ty,
            kind: ExprKind::Binary(op, Box::new(a), Box::new(b)),
        }
    }

    /// Builds a unary expression preserving the operand type.
    pub fn unary(op: UnOp, e: Expr) -> Expr {
        let ty = match op {
            UnOp::Not => Type::u8(),
            _ => e.ty.clone(),
        };
        Expr {
            ty,
            kind: ExprKind::Unary(op, Box::new(e)),
        }
    }

    /// Casts `e` to `ty`.
    pub fn cast(e: Expr, ty: Type) -> Expr {
        if e.ty == ty {
            return e;
        }
        Expr {
            ty,
            kind: ExprKind::Cast(Box::new(e)),
        }
    }

    /// Returns the constant value if this is a constant expression node.
    pub fn as_const(&self) -> Option<i64> {
        match self.kind {
            ExprKind::Const(v) => Some(v),
            _ => None,
        }
    }
}

/// The root of a [`Place`].
#[derive(Debug, Clone, PartialEq, Hash)]
pub enum PlaceBase {
    /// A local variable (or parameter / compiler temp).
    Local(LocalId),
    /// A global variable.
    Global(GlobalId),
    /// The target of a pointer-valued expression.
    Deref(Box<Expr>),
}

/// A projection step applied to a place.
#[derive(Debug, Clone, PartialEq, Hash)]
pub enum PlaceElem {
    /// Select struct field `idx` of `sid`.
    Field {
        /// Struct the field belongs to.
        sid: StructId,
        /// Field index.
        idx: u32,
    },
    /// Index into an array place.
    Index(Box<Expr>),
}

/// An lvalue: a base plus a projection path, with the resulting type cached.
#[derive(Debug, Clone, PartialEq, Hash)]
pub struct Place {
    /// Base location.
    pub base: PlaceBase,
    /// Projection path (outermost first).
    pub elems: Vec<PlaceElem>,
    /// Type of the projected location.
    pub ty: Type,
}

impl Place {
    /// A bare local place.
    pub fn local(id: LocalId, ty: Type) -> Place {
        Place {
            base: PlaceBase::Local(id),
            elems: Vec::new(),
            ty,
        }
    }

    /// A bare global place.
    pub fn global(id: GlobalId, ty: Type) -> Place {
        Place {
            base: PlaceBase::Global(id),
            elems: Vec::new(),
            ty,
        }
    }

    /// The place `*ptr`.
    ///
    /// # Panics
    ///
    /// Panics if `ptr` is not pointer-typed.
    pub fn deref(ptr: Expr) -> Place {
        let ty = match &ptr.ty {
            Type::Ptr(t, _) => (**t).clone(),
            other => panic!("deref of non-pointer type {other}"),
        };
        Place {
            base: PlaceBase::Deref(Box::new(ptr)),
            elems: Vec::new(),
            ty,
        }
    }

    /// Extends this place with a field projection.
    pub fn field(mut self, sid: StructId, idx: u32, field_ty: Type) -> Place {
        self.elems.push(PlaceElem::Field { sid, idx });
        self.ty = field_ty;
        self
    }

    /// Extends this place with an array index projection.
    pub fn index(mut self, i: Expr, elem_ty: Type) -> Place {
        self.elems.push(PlaceElem::Index(Box::new(i)));
        self.ty = elem_ty;
        self
    }
}

/// Builtin operations that talk to the machine rather than memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Builtin {
    /// `__hw_read8(addr) -> uint8_t` — read a memory-mapped device register.
    HwRead8,
    /// `__hw_read16(addr) -> uint16_t`
    HwRead16,
    /// `__hw_write8(addr, v)`
    HwWrite8,
    /// `__hw_write16(addr, v)`
    HwWrite16,
    /// `__sleep()` — sleep until an interrupt is pending.
    Sleep,
    /// `__irq_save() -> uint8_t` — read-and-clear the global IRQ enable bit.
    IrqSave,
    /// `__irq_restore(v)` — restore a saved IRQ enable bit.
    IrqRestore,
    /// `__irq_enable()`
    IrqEnable,
    /// `__irq_disable()`
    IrqDisable,
}

impl Builtin {
    /// The source-level name of the builtin.
    pub fn name(self) -> &'static str {
        match self {
            Builtin::HwRead8 => "__hw_read8",
            Builtin::HwRead16 => "__hw_read16",
            Builtin::HwWrite8 => "__hw_write8",
            Builtin::HwWrite16 => "__hw_write16",
            Builtin::Sleep => "__sleep",
            Builtin::IrqSave => "__irq_save",
            Builtin::IrqRestore => "__irq_restore",
            Builtin::IrqEnable => "__irq_enable",
            Builtin::IrqDisable => "__irq_disable",
        }
    }

    /// Looks a builtin up by source name.
    pub fn from_name(name: &str) -> Option<Builtin> {
        use Builtin::*;
        [
            HwRead8, HwRead16, HwWrite8, HwWrite16, Sleep, IrqSave, IrqRestore, IrqEnable,
            IrqDisable,
        ]
        .into_iter()
        .find(|b| b.name() == name)
    }
}

/// The kind (and operands) of an inserted dynamic safety check.
///
/// The `mcu` machine traps with the check's [`Flid`] when the condition
/// fails; an optimizer that proves the condition always holds deletes the
/// whole statement.
#[derive(Debug, Clone, PartialEq, Hash)]
pub enum CheckKind {
    /// `ptr != NULL` (SAFE pointers).
    NonNull(Expr),
    /// `ptr != NULL && ptr.val + len <= ptr.end` (FSEQ fat pointers);
    /// `len` is the byte length of the access.
    Upper {
        /// The fat pointer being dereferenced.
        ptr: Expr,
        /// Access length in bytes.
        len: u32,
    },
    /// `ptr != NULL && ptr.base <= ptr.val && ptr.val + len <= ptr.end`
    /// (SEQ fat pointers).
    Bounds {
        /// The fat pointer being dereferenced.
        ptr: Expr,
        /// Access length in bytes.
        len: u32,
    },
    /// Array index check `idx < n` synthesized for direct array accesses
    /// whose index cannot be proven in range.
    IndexBound {
        /// Index expression (unsigned compare).
        idx: Expr,
        /// Array length in elements.
        n: u32,
    },
}

/// A dynamic safety check statement.
#[derive(Debug, Clone, PartialEq, Hash)]
pub struct Check {
    /// What to verify.
    pub kind: CheckKind,
    /// Failure location identifier reported on trap.
    pub flid: Flid,
}

/// How an `atomic` section is realized. The cXprop concurrency analysis
/// demotes `SaveRestore` to `DisableEnable` (or removes the section
/// entirely) when it can prove the interrupt-enable state on entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AtomicStyle {
    /// Save the IRQ-enable bit, disable, run, restore (always correct).
    SaveRestore,
    /// Plain disable/enable (valid when interrupts are known enabled and
    /// the section is not nested inside another atomic section).
    DisableEnable,
}

/// A statement.
#[derive(Debug, Clone, PartialEq, Hash)]
pub enum Stmt {
    /// `place = expr;` (also struct copies when `expr` is a struct load).
    Assign(Place, Expr),
    /// `dst = f(args);`
    Call {
        /// Where to store the return value.
        dst: Option<Place>,
        /// Callee.
        func: FuncId,
        /// Argument expressions.
        args: Vec<Expr>,
    },
    /// A machine builtin.
    BuiltinCall {
        /// Where to store the result (for value-producing builtins).
        dst: Option<Place>,
        /// Which builtin.
        which: Builtin,
        /// Argument expressions.
        args: Vec<Expr>,
    },
    /// `if (cond) { ... } else { ... }`
    If {
        /// Condition (non-zero = true).
        cond: Expr,
        /// Then branch.
        then_: Block,
        /// Else branch.
        else_: Block,
    },
    /// `while (cond) { ... }`
    While {
        /// Loop condition.
        cond: Expr,
        /// Loop body.
        body: Block,
    },
    /// Return from the current function.
    Return(Option<Expr>),
    /// Exit the innermost loop.
    Break,
    /// Continue the innermost loop.
    Continue,
    /// An `atomic` section.
    Atomic {
        /// Body statements.
        body: Block,
        /// Chosen lowering.
        style: AtomicStyle,
    },
    /// A nested scope (no semantic content; keeps lowering simple).
    Block(Block),
    /// A dynamic safety check.
    Check(Check),
    /// No operation (left behind by optimizers; swept by cleanup passes).
    Nop,
}

/// A sequence of statements.
pub type Block = Vec<Stmt>;

/// A local variable (parameter, user local, or compiler temporary).
#[derive(Debug, Clone, PartialEq, Hash)]
pub struct Local {
    /// Name (temporaries are named `__t<N>`).
    pub name: String,
    /// Type.
    pub ty: Type,
    /// True for compiler-introduced temporaries.
    pub is_temp: bool,
}

/// A function definition.
#[derive(Debug, Clone, PartialEq, Hash)]
pub struct Function {
    /// Mangled whole-program name (e.g. `BlinkM$Timer$fired`).
    pub name: String,
    /// Return type.
    pub ret: Type,
    /// The first `params` locals are the parameters, in order.
    pub params: u32,
    /// All locals, parameters first.
    pub locals: Vec<Local>,
    /// Body.
    pub body: Block,
    /// True for nesC tasks (run by the generated scheduler dispatcher).
    pub is_task: bool,
    /// Interrupt vector number when this is a handler.
    pub interrupt: Option<u8>,
    /// Source-level `inline` hint.
    pub inline_hint: bool,
    /// Trusted functions are skipped by the CCured instrumenter (the
    /// hardware-register helper functions of the paper's toolchain step
    /// "refactor accesses to hardware registers").
    pub trusted: bool,
}

impl Function {
    /// Creates an empty function with the given signature.
    pub fn new(name: impl Into<String>, ret: Type) -> Function {
        Function {
            name: name.into(),
            ret,
            params: 0,
            locals: Vec::new(),
            body: Vec::new(),
            is_task: false,
            interrupt: None,
            inline_hint: false,
            trusted: false,
        }
    }

    /// Adds a local and returns its id.
    pub fn add_local(&mut self, name: impl Into<String>, ty: Type, is_temp: bool) -> LocalId {
        self.locals.push(Local {
            name: name.into(),
            ty,
            is_temp,
        });
        LocalId((self.locals.len() - 1) as u32)
    }

    /// Adds a fresh compiler temporary of type `ty`.
    pub fn add_temp(&mut self, ty: Type) -> LocalId {
        let n = format!("__t{}", self.locals.len());
        self.add_local(n, ty, true)
    }

    /// Type of a local.
    pub fn local_ty(&self, id: LocalId) -> &Type {
        &self.locals[id.0 as usize].ty
    }

    /// Iterator over parameter ids.
    pub fn param_ids(&self) -> impl Iterator<Item = LocalId> {
        (0..self.params).map(LocalId)
    }
}

/// How a global variable is initialized.
#[derive(Debug, Clone, PartialEq, Hash)]
pub enum Init {
    /// Zero-initialized (C `.bss` semantics).
    Zero,
    /// A scalar constant.
    Int(i64),
    /// Aggregate initializer (arrays/structs; missing tail is zero).
    List(Vec<Init>),
    /// A string literal (for `char` arrays; padded/truncated to fit).
    Str(StrId),
}

/// A global variable.
#[derive(Debug, Clone, PartialEq, Hash)]
pub struct Global {
    /// Mangled whole-program name.
    pub name: String,
    /// Type.
    pub ty: Type,
    /// Initializer.
    pub init: Init,
    /// Declared `norace` in the source (the toolchain *suppresses* this,
    /// per §2.2, but records it for reporting).
    pub norace: bool,
    /// `const` — placed in flash (ROM) rather than SRAM.
    pub is_const: bool,
    /// A race candidate: set by the frontend from nesC's verdict over
    /// the [`crate::concurrency::Census`] and narrowed by cXprop's.
    pub racy: bool,
}

/// A whole program: the unit of every toolchain stage.
#[derive(Debug, Clone, Default, PartialEq, Hash)]
pub struct Program {
    /// Struct table (indexed by [`StructId`]).
    pub structs: Vec<StructDef>,
    /// Global table (indexed by [`GlobalId`]).
    pub globals: Vec<Global>,
    /// Function table (indexed by [`FuncId`]).
    pub functions: Vec<Function>,
    /// Interned string/byte literals.
    pub strings: StringPool,
    /// Task functions in dispatch-id order.
    pub tasks: Vec<FuncId>,
    /// Program entry point (`main`).
    pub entry: Option<FuncId>,
    /// FLID → human-readable failure message, filled by the CCured stage.
    /// The backend turns this into the image's host-side decompression
    /// table; in the verbose error modes the messages also exist as
    /// on-node string globals.
    pub flid_messages: Vec<(u16, String)>,
}

impl Program {
    /// Creates an empty program.
    pub fn new() -> Program {
        Program::default()
    }

    /// Finds a function id by name.
    pub fn find_function(&self, name: &str) -> Option<FuncId> {
        self.functions
            .iter()
            .position(|f| f.name == name)
            .map(|i| FuncId(i as u32))
    }

    /// Finds a global id by name.
    pub fn find_global(&self, name: &str) -> Option<GlobalId> {
        self.globals
            .iter()
            .position(|g| g.name == name)
            .map(|i| GlobalId(i as u32))
    }

    /// Convenience accessor.
    pub fn func(&self, id: FuncId) -> &Function {
        &self.functions[id.0 as usize]
    }

    /// Mutable convenience accessor.
    pub fn func_mut(&mut self, id: FuncId) -> &mut Function {
        &mut self.functions[id.0 as usize]
    }

    /// Convenience accessor.
    pub fn global(&self, id: GlobalId) -> &Global {
        &self.globals[id.0 as usize]
    }

    /// Counts the [`Stmt::Check`] statements in the whole program — the
    /// "checks present in the IR" metric (the backend separately counts
    /// checks that survive into machine code).
    pub fn count_checks(&self) -> usize {
        fn count(block: &Block) -> usize {
            block
                .iter()
                .map(|s| match s {
                    Stmt::Check(_) => 1,
                    Stmt::If { then_, else_, .. } => count(then_) + count(else_),
                    Stmt::While { body, .. } => count(body),
                    Stmt::Atomic { body, .. } => count(body),
                    Stmt::Block(b) => count(b),
                    _ => 0,
                })
                .sum()
        }
        self.functions.iter().map(|f| count(&f.body)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expr_constructors_type_correctly() {
        let c = Expr::const_int(300, IntKind::U8);
        assert_eq!(c.as_const(), Some(44)); // wrapped
        let b = Expr::bool_val(true);
        assert_eq!(b.ty, Type::u8());
        let n = Expr::null(Type::thin_ptr(Type::u8()));
        assert_eq!(n.as_const(), Some(0));
    }

    #[test]
    fn place_projections_update_type() {
        let p = Place::local(LocalId(0), Type::Array(Box::new(Type::u16()), 4));
        let p = p.index(Expr::const_int(2, IntKind::U16), Type::u16());
        assert_eq!(p.ty, Type::u16());
        assert_eq!(p.elems.len(), 1);
    }

    #[test]
    fn function_locals_and_temps() {
        let mut f = Function::new("f", Type::Void);
        let a = f.add_local("a", Type::u8(), false);
        f.params = 1;
        let t = f.add_temp(Type::u16());
        assert_eq!(f.local_ty(a), &Type::u8());
        assert!(f.locals[t.0 as usize].is_temp);
        assert_eq!(f.param_ids().count(), 1);
    }

    #[test]
    fn count_checks_walks_nested_blocks() {
        let mut p = Program::new();
        let mut f = Function::new("f", Type::Void);
        let chk = Stmt::Check(Check {
            kind: CheckKind::NonNull(Expr::null(Type::thin_ptr(Type::u8()))),
            flid: Flid(1),
        });
        f.body = vec![
            chk.clone(),
            Stmt::If {
                cond: Expr::bool_val(true),
                then_: vec![chk.clone()],
                else_: vec![Stmt::While {
                    cond: Expr::bool_val(false),
                    body: vec![chk],
                }],
            },
        ];
        p.functions.push(f);
        assert_eq!(p.count_checks(), 3);
    }

    #[test]
    fn builtin_names_round_trip() {
        for b in [
            Builtin::HwRead8,
            Builtin::HwRead16,
            Builtin::HwWrite8,
            Builtin::HwWrite16,
            Builtin::Sleep,
            Builtin::IrqSave,
            Builtin::IrqRestore,
            Builtin::IrqEnable,
            Builtin::IrqDisable,
        ] {
            assert_eq!(Builtin::from_name(b.name()), Some(b));
        }
        assert_eq!(Builtin::from_name("__bogus"), None);
    }
}
