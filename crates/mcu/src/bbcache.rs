//! Basic-block cache: the decode-once half of the block translation
//! engine (see [`crate::engine`]).
//!
//! A flash image is immutable for the lifetime of a machine (faults
//! corrupt RAM and registers, never code), so each function's
//! instruction list is partitioned **once** into straight-line basic
//! blocks: maximal runs that end at a control-flow edge (branch, call,
//! return, trap, halt, sleep) or at any instruction that can *enable*
//! interrupts (`IrqEnable`, `IrqRestore`, `Ret`/`Reti` — an interrupt
//! window must never open mid-block). Each block is translated into a
//! compact op list:
//!
//! * statically safe instructions (constant pushes, ALU ops, accesses to
//!   addresses proven SRAM at decode time) become direct ops with no
//!   per-execution decode, clone, or memory-map re-check;
//! * hot idioms are fused into superinstructions (`PushI;StGlobal`,
//!   `PushI;Bin`, `LdGlobal;StGlobal`, the read-modify-write
//!   `LdGlobal;PushI;Bin;StGlobal` and the compare-and-branch tails) —
//!   fusion over global or stack constituents is only permitted when
//!   none can fault or touch MMIO, so no observable state can
//!   materialize mid-superinstruction;
//! * the frame-slot idioms are fused too: `LdLocal;PushI;Bin;Jz/Jnz`
//!   (`OpKind::CmpLKBr`), `LdLocal;PushI;Bin;[Wrap;]StLocal`
//!   (`OpKind::RmwLK`) and, for the stack top, `PushI;Bin;Jz/Jnz`
//!   (`OpKind::CmpKBr`). A frame slot's address depends on `fp`, so
//!   the engine runs the fused frame ops directly only where it proved
//!   the frame window SRAM and no torn watch is live, and otherwise
//!   single-steps their constituents;
//! * everything else (division, `MemCpy`, static accesses outside SRAM)
//!   stays a `Slow` op that executes the original instruction
//!   through the interpreter's own `exec`, preserving fault and device
//!   semantics exactly.
//!
//! The frame-slot set comes from an adjacent-op histogram of the op
//! stream the engine dispatched before it existed, one round of the
//! `fleet` and `campaign` benchmark workloads (RadioM's bitwise CRC-16
//! and the `TOSH_run_task` idle loop dominate both), in millions of
//! dispatches per round, fleet / campaign:
//!
//! | ops before fusion                | count       | fused into |
//! |----------------------------------|-------------|------------|
//! | `LdL; BinK(Add); Wrap; StL`      | 3.33 / 0.84 | `RmwLK`    |
//! | `LdL; BinK(Lt); Jz`              | 3.40 / 0.83 | `CmpLKBr`  |
//! | `BinK(Ne); Jz`                   | 4.15 / 0.95 | `CmpKBr` (`CmpLKBr` after `LdL`) |
//! | `LdL; BinK(Shl); StL`            | 1.41 / 0.34 | `RmwLK`    |
//!
//! (`BinK` is `PushI;Bin`.) With them, and entry at every op boundary,
//! a round dispatches 73.8M ops instead of 99.2M on `fleet` and 18.1M
//! instead of 24.3M on `campaign`. The next candidates are the CRC's
//! two-operator update `LdL; BinK(Shl); BinK(Xor); StL` (1.56 / 0.38)
//! and the unconditional `Jmp` that ends 7.07 / 1.6 million blocks.
//!
//! Every op boundary is an entry point (see [`crate::engine`]): one
//! backward pass over each block gives every boundary its suffix's
//! cycle cost, the offset at which its last instruction starts (so the
//! engine can prove *before* entering that no device event or
//! `run`-horizon boundary falls inside), its purity and frame span, and
//! the evaluation-stack depth it needs on entry (so no op can underflow
//! mid-block; suffixes entered shallower fall back to faithful
//! single-stepping, reproducing the interpreter's underflow fault site
//! exactly). Suffixes share their block's ops: an entry is a few
//! integers beside one op array per function.
//!
//! The cache is built per [`Image`] and shared via `Arc`: campaigns and
//! difftests that replay one image across thousands of machines decode
//! it once.

use crate::image::Image;
use crate::isa::{fat_bytes, AluOp, Instr, UnAluOp, Width};

/// Payload of the read-modify-write half of [`OpKind::RmwGKBr`]
/// (field-for-field the same as [`OpKind::RmwGK`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct GRmw {
    /// Load address (SRAM).
    pub(crate) ld_addr: u16,
    /// Load width.
    pub(crate) ld_width: Width,
    /// Load signedness.
    pub(crate) ld_signed: bool,
    /// The constant right operand.
    pub(crate) k: i64,
    /// ALU operation (never `Div`/`Mod`).
    pub(crate) op: AluOp,
    /// ALU width.
    pub(crate) width: Width,
    /// ALU signedness.
    pub(crate) signed: bool,
    /// Store address (SRAM).
    pub(crate) st_addr: u16,
    /// Store width.
    pub(crate) st_width: Width,
}

/// Payload of the compare-and-branch half of [`OpKind::RmwGKBr`]
/// (field-for-field the same as [`OpKind::CmpGKBr`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct GCmpBr {
    /// Load address (SRAM).
    pub(crate) addr: u16,
    /// Load width.
    pub(crate) ld_width: Width,
    /// Load signedness.
    pub(crate) ld_signed: bool,
    /// The constant right operand.
    pub(crate) k: i64,
    /// Compare/ALU operation (never `Div`/`Mod`).
    pub(crate) op: AluOp,
    /// ALU width.
    pub(crate) width: Width,
    /// ALU signedness.
    pub(crate) signed: bool,
    /// Branch when the ALU result is zero (`Jz`) vs non-zero (`Jnz`).
    pub(crate) br_if_zero: bool,
    /// Branch target pc.
    pub(crate) target: u32,
}

/// Payload of [`OpKind::RmwLK`]: `LdLocal; PushI k; Bin; [Wrap;]
/// StLocal` — read-modify-write of a frame slot.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LRmw {
    /// Load frame offset.
    pub(crate) ld_off: u16,
    /// Load width.
    pub(crate) ld_width: Width,
    /// Load signedness.
    pub(crate) ld_signed: bool,
    /// The constant right operand.
    pub(crate) k: i64,
    /// ALU operation (never `Div`/`Mod`).
    pub(crate) op: AluOp,
    /// ALU width.
    pub(crate) width: Width,
    /// ALU signedness.
    pub(crate) signed: bool,
    /// The cast between the ALU and the store, if the source has one.
    pub(crate) wrap: Option<(Width, bool)>,
    /// Store frame offset.
    pub(crate) st_off: u16,
    /// Store width.
    pub(crate) st_width: Width,
}

impl LRmw {
    /// One past the last frame byte the op touches.
    pub(crate) fn span(&self) -> u32 {
        (self.ld_off as u32 + self.ld_width.bytes()).max(self.st_off as u32 + self.st_width.bytes())
    }
}

/// Payload of [`OpKind::CmpLKBr`]: `LdLocal; PushI k; Bin; Jz/Jnz` —
/// compare a frame slot against a constant and branch.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LCmpBr {
    /// Load frame offset.
    pub(crate) off: u16,
    /// Load width.
    pub(crate) ld_width: Width,
    /// Load signedness.
    pub(crate) ld_signed: bool,
    /// The constant right operand.
    pub(crate) k: i64,
    /// Compare/ALU operation (never `Div`/`Mod`).
    pub(crate) op: AluOp,
    /// ALU width.
    pub(crate) width: Width,
    /// ALU signedness.
    pub(crate) signed: bool,
    /// Branch when the ALU result is zero (`Jz`) vs non-zero (`Jnz`).
    pub(crate) br_if_zero: bool,
    /// Branch target pc.
    pub(crate) target: u32,
}

impl LCmpBr {
    /// One past the last frame byte the op touches.
    pub(crate) fn span(&self) -> u32 {
        self.off as u32 + self.ld_width.bytes()
    }
}

/// One translated operation. `cost`/`n` are the summed cycle cost and
/// instruction count of the constituent instruction(s); the engine
/// charges them (and advances `pc` by `n`) *before* executing the op,
/// mirroring the interpreter's charge-then-exec order.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Op {
    /// Total cycle cost of the constituent instructions.
    pub(crate) cost: u32,
    /// Number of constituent instructions (pc advance).
    pub(crate) n: u16,
    /// Cycles from the op's start to the start of its last constituent:
    /// the op may run whole while that start is before the horizon.
    pub(crate) reach: u16,
    /// What to execute.
    pub(crate) kind: OpKind,
}

// The decode holds one `Op` per translated op of every image a run
// touches; a larger variant would grow all of them.
const _: () = assert!(std::mem::size_of::<Op>() <= 64);

/// The operation repertoire of the block engine.
#[derive(Debug, Clone, Copy)]
pub(crate) enum OpKind {
    /// Push an immediate.
    PushI(i64),
    /// Load from a static SRAM address (never faults, never MMIO).
    LdG {
        /// Absolute SRAM address.
        addr: u16,
        /// Access width.
        width: Width,
        /// Sign-extend on load.
        signed: bool,
    },
    /// Store to a statically mapped SRAM address (never faults, never
    /// MMIO, never flash).
    StG {
        /// Absolute SRAM address.
        addr: u16,
        /// Access width.
        width: Width,
    },
    /// Frame-slot load; falls back to the faithful path when `fp+off`
    /// leaves SRAM and the flash window or a torn watchpoint is armed.
    LdL {
        /// Byte offset within the frame.
        off: u16,
        /// Access width.
        width: Width,
        /// Sign-extend on load.
        signed: bool,
    },
    /// Frame-slot store; faithful fallback outside SRAM or under a torn
    /// watchpoint.
    StL {
        /// Byte offset within the frame.
        off: u16,
        /// Access width.
        width: Width,
    },
    /// Push `fp + off`.
    AddrL {
        /// Byte offset within the frame.
        off: u16,
    },
    /// Pop-an-address load; faithful fallback outside SRAM/flash (MMIO
    /// reads, faults) or under a torn watchpoint.
    LdDyn {
        /// Access width.
        width: Width,
        /// Sign-extend on load.
        signed: bool,
    },
    /// Pop-an-address store; faithful fallback outside SRAM (MMIO,
    /// read-only flash, faults) or under a torn watchpoint.
    StDyn {
        /// Access width.
        width: Width,
    },
    /// Non-division ALU op (never faults).
    Bin {
        /// Operation (never `Div`/`Mod`).
        op: AluOp,
        /// Result/operand width.
        width: Width,
        /// Operand signedness.
        signed: bool,
    },
    /// Unary ALU op.
    Un {
        /// Operation.
        op: UnAluOp,
        /// Operand width.
        width: Width,
    },
    /// Width/signedness cast.
    Wrap {
        /// Target width.
        width: Width,
        /// Target signedness.
        signed: bool,
    },
    /// Discard the top of stack.
    Pop,
    /// Duplicate the top of stack.
    Dup,
    /// No-op.
    Nop,
    /// Push the IRQ flag and disable interrupts (may only *disable*, so
    /// it is block-internal).
    IrqSave,
    /// Disable interrupts.
    IrqDisable,
    /// Build a fat pointer from stack parts.
    MkFat {
        /// SEQ vs FSEQ layout.
        seq: bool,
    },
    /// Fat-pointer value extraction.
    FatVal,
    /// Fat-pointer end-bound extraction.
    FatEnd,
    /// Fat-pointer base-bound extraction.
    FatBase,
    /// Fat-pointer arithmetic.
    FatAdd,
    /// Fat load from a static SRAM address.
    LdGF {
        /// Absolute SRAM address.
        addr: u16,
        /// SEQ vs FSEQ layout.
        seq: bool,
    },
    /// Fat store to a statically mapped SRAM address.
    StGF {
        /// Absolute SRAM address.
        addr: u16,
        /// SEQ vs FSEQ layout.
        seq: bool,
    },
    /// Fat frame-slot load with faithful fallback outside SRAM.
    LdLF {
        /// Byte offset within the frame.
        off: u16,
        /// SEQ vs FSEQ layout.
        seq: bool,
    },
    /// Fat frame-slot store with faithful fallback.
    StLF {
        /// Byte offset within the frame.
        off: u16,
        /// SEQ vs FSEQ layout.
        seq: bool,
    },
    /// Pop-an-address fat load with faithful fallback outside SRAM.
    LdFDyn {
        /// SEQ vs FSEQ layout.
        seq: bool,
    },
    /// Pop-an-address fat store with faithful fallback.
    StFDyn {
        /// SEQ vs FSEQ layout.
        seq: bool,
    },
    // ----- superinstructions -----
    /// `PushI k; StGlobal` — store a constant to a static SRAM address.
    StGK {
        /// Absolute SRAM address.
        addr: u16,
        /// Access width.
        width: Width,
        /// The constant.
        k: i64,
    },
    /// `PushI k; Bin` — ALU op against a constant (never `Div`/`Mod`).
    BinK {
        /// Operation.
        op: AluOp,
        /// Result/operand width.
        width: Width,
        /// Operand signedness.
        signed: bool,
        /// The constant right operand.
        k: i64,
    },
    /// `LdGlobal; PushI k; Bin; StGlobal` — the global read-modify-write
    /// idiom (counters, flags). Both addresses static SRAM; the
    /// value never touches the evaluation stack.
    RmwGK {
        /// Load address (SRAM).
        ld_addr: u16,
        /// Load width.
        ld_width: Width,
        /// Load signedness.
        ld_signed: bool,
        /// The constant right operand.
        k: i64,
        /// ALU operation (never `Div`/`Mod`).
        op: AluOp,
        /// ALU width.
        width: Width,
        /// ALU signedness.
        signed: bool,
        /// Store address (SRAM).
        st_addr: u16,
        /// Store width.
        st_width: Width,
    },
    /// `LdGlobal; StGlobal` — global-to-global copy, both static SRAM.
    CpGG {
        /// Load address (SRAM).
        ld_addr: u16,
        /// Load width.
        ld_width: Width,
        /// Load signedness.
        ld_signed: bool,
        /// Store address (SRAM).
        st_addr: u16,
        /// Store width.
        st_width: Width,
    },
    /// `LdLocal; PushI k; Bin; [Wrap;] StLocal` — read-modify-write of
    /// a frame slot (loop counters, CRC registers). Runs directly when
    /// its frame bytes are proven SRAM and no torn watch is live, else
    /// single-steps its constituents.
    RmwLK(LRmw),
    // ----- faithful fallback -----
    /// Execute the original instruction through the interpreter's `exec`
    /// (division, `MemCpy`, globals outside SRAM, ...).
    Slow(Instr),
    // ----- terminators (always the last op of a block) -----
    /// Unconditional jump.
    Jmp(u32),
    /// Jump when the popped condition is zero.
    Jz(u32),
    /// Jump when the popped condition is non-zero.
    Jnz(u32),
    /// `LdGlobal; PushI k; Bin; Jz/Jnz` — compare a static SRAM
    /// global against a constant and branch: the dominant loop-tail
    /// idiom. No constituent can fault or reach MMIO.
    CmpGKBr {
        /// Load address (SRAM).
        addr: u16,
        /// Load width.
        ld_width: Width,
        /// Load signedness.
        ld_signed: bool,
        /// The constant right operand.
        k: i64,
        /// Compare/ALU operation (never `Div`/`Mod`).
        op: AluOp,
        /// ALU width.
        width: Width,
        /// ALU signedness.
        signed: bool,
        /// Branch when the ALU result is zero (`Jz`) vs non-zero (`Jnz`).
        br_if_zero: bool,
        /// Branch target pc.
        target: u32,
    },
    /// `Dup; PushI k; Bin; Jz/Jnz` — compare the (retained) top of stack
    /// against a constant and branch.
    CmpTopKBr {
        /// The constant right operand.
        k: i64,
        /// Compare/ALU operation (never `Div`/`Mod`).
        op: AluOp,
        /// ALU width.
        width: Width,
        /// ALU signedness.
        signed: bool,
        /// Branch when the ALU result is zero (`Jz`) vs non-zero (`Jnz`).
        br_if_zero: bool,
        /// Branch target pc.
        target: u32,
    },
    /// `PushI k; Bin; Jz/Jnz` — compare the popped top of stack
    /// against a constant and branch.
    CmpKBr {
        /// The constant right operand.
        k: i64,
        /// Compare/ALU operation (never `Div`/`Mod`).
        op: AluOp,
        /// ALU width.
        width: Width,
        /// ALU signedness.
        signed: bool,
        /// Branch when the ALU result is zero (`Jz`) vs non-zero (`Jnz`).
        br_if_zero: bool,
        /// Branch target pc.
        target: u32,
    },
    /// `LdLocal; PushI k; Bin; Jz/Jnz` — compare a frame slot against
    /// a constant and branch: the loop-test idiom over a local counter.
    /// Same fallback as [`OpKind::RmwLK`].
    CmpLKBr(LCmpBr),
    /// `RmwGK; CmpGKBr` — the canonical counting-loop tail (increment a
    /// global, compare a global against a constant, branch): eight
    /// source instructions in one dispatch. Merged by a second fusion
    /// pass over already-proven constituents, so the same no-fault,
    /// no-MMIO guarantees hold.
    RmwGKBr {
        /// The read-modify-write half.
        rmw: GRmw,
        /// The compare-and-branch half.
        cmp: GCmpBr,
        /// Whether the compare must actually reload `cmp.addr` from RAM.
        /// When the compare reads back exactly the bytes the RMW just
        /// stored (`cmp.addr == st_addr`, same width), the engine
        /// derives the compared value from the stored value in-register
        /// instead — invisible because direct RAM reads count nothing.
        /// A live torn watch always forces the reload: it may tear the
        /// store and must count the read.
        reload: bool,
    },
    /// Call a function (the pc after the call is always a block leader).
    Call(u32),
    /// Any other control-flow/interrupt-window terminator (`Ret`,
    /// `Reti`, `Trap`, `Halt`, `Sleep`, `IrqEnable`, `IrqRestore`),
    /// executed through the interpreter's `exec`.
    Term(Instr),
}

/// What the engine runs when it enters at one op boundary: the ops from
/// that boundary to the end of its basic block, and their facts.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Block<'a> {
    /// Translated ops; a terminator, if present, is the last op.
    pub(crate) ops: &'a [Op],
    /// Total cycle cost of every constituent instruction.
    pub(crate) cost: u64,
    /// Cycles from the entry to the start of the last instruction: the
    /// engine runs the block whole only when `cycles + reach` stays
    /// strictly below the event/`run` horizon, so every instruction
    /// starts before it, as the interpreter would run them.
    pub(crate) reach: u64,
    /// Evaluation-stack depth required on entry so no constituent can
    /// underflow before the block ends.
    pub(crate) stack_in: u32,
    /// Number of source instructions covered (the whole pc advance).
    pub(crate) n_instrs: u32,
    /// Whether every op is statically infallible and device-free (see
    /// [`op_is_pure`]): the engine may then account the whole run's
    /// cycles/instructions in one step and dispatch through a lean loop
    /// with no per-op counter flushes — nothing inside can fault, reach
    /// a device, or otherwise observe the counters.
    pub(crate) pure: bool,
    /// One past the highest `fp`-relative byte any frame-slot op touches
    /// (0 when there are none). The pure path proves the whole
    /// `[fp, fp+local_span)` window is writable SRAM once instead of per
    /// access.
    pub(crate) local_span: u32,
}

/// The stored facts of one entry point (see [`Block`]). Suffixes share
/// their block's ops: an entry names its first op and how many follow.
#[derive(Debug, Clone, Copy, Default)]
struct Entry {
    /// Index of the first op in [`DecodedFn::ops`].
    first: u32,
    /// Ops from `first` to the end of the block; 0 marks a pc that is
    /// not an op boundary (inside a fused op, which single-steps).
    n_ops: u32,
    cost: u32,
    reach: u32,
    n_instrs: u32,
    stack_in: u32,
    local_span: u32,
    pure: bool,
}

#[derive(Debug)]
struct DecodedFn {
    /// Every translated op of the function, block after block in pc
    /// order.
    ops: Box<[Op]>,
    /// `pc -> entry`: every op boundary is an entry point.
    entries: Box<[Entry]>,
}

/// Decode statistics (reported by the `sim_speed` harness).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Number of basic blocks.
    pub blocks: usize,
    /// Number of translated ops (each one is also an entry point).
    pub ops: usize,
    /// Number of source instructions covered.
    pub instrs: usize,
    /// Number of superinstructions (fused ops).
    pub fused: usize,
    /// Number of ops that fall back to the faithful interpreter `exec`.
    pub slow: usize,
}

/// A per-image cache of predecoded basic blocks (see the module docs).
#[derive(Debug)]
pub struct BlockCache {
    funcs: Vec<DecodedFn>,
    stats: CacheStats,
}

impl BlockCache {
    /// Decodes every function of `img` into basic blocks.
    pub fn build(img: &Image) -> BlockCache {
        let sram = (img.profile.sram_base(), img.profile.sram_end());
        let mut stats = CacheStats::default();
        let funcs = img
            .functions
            .iter()
            .map(|f| decode_fn(img, &f.code, sram, &mut stats))
            .collect();
        BlockCache { funcs, stats }
    }

    /// Decode statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// The block suffix entered at `(func, pc)`, if `pc` is an op
    /// boundary.
    #[inline]
    pub(crate) fn lookup(&self, func: u32, pc: u32) -> Option<Block<'_>> {
        let f = self.funcs.get(func as usize)?;
        let e = f.entries.get(pc as usize)?;
        if e.n_ops == 0 {
            return None;
        }
        let first = e.first as usize;
        Some(Block {
            ops: &f.ops[first..first + e.n_ops as usize],
            cost: e.cost as u64,
            reach: e.reach as u64,
            stack_in: e.stack_in,
            n_instrs: e.n_instrs,
            pure: e.pure,
            local_span: e.local_span,
        })
    }
}

/// Whether `i` must end a basic block: control flow leaves the block, or
/// the instruction can open an interrupt-delivery window.
fn is_terminator(i: &Instr) -> bool {
    matches!(
        i,
        Instr::Jmp { .. }
            | Instr::Jz { .. }
            | Instr::Jnz { .. }
            | Instr::Call { .. }
            | Instr::Ret
            | Instr::Reti
            | Instr::Trap { .. }
            | Instr::Halt
            | Instr::Sleep
            | Instr::IrqEnable
            | Instr::IrqRestore
    )
}

/// Evaluation-stack cells popped by `i` (callee parameter count for
/// `Call`).
fn pops(img: &Image, i: &Instr) -> u32 {
    match *i {
        Instr::PushI(_)
        | Instr::LdLocal { .. }
        | Instr::AddrLocal { .. }
        | Instr::LdGlobal { .. }
        | Instr::Jmp { .. }
        | Instr::Ret
        | Instr::Reti
        | Instr::Trap { .. }
        | Instr::Halt
        | Instr::Sleep
        | Instr::IrqSave
        | Instr::IrqEnable
        | Instr::IrqDisable
        | Instr::Nop
        | Instr::LdLocalFat { .. }
        | Instr::LdGlobalFat { .. } => 0,
        Instr::StLocal { .. }
        | Instr::StGlobal { .. }
        | Instr::Ld { .. }
        | Instr::Un { .. }
        | Instr::Wrap { .. }
        | Instr::Jz { .. }
        | Instr::Jnz { .. }
        | Instr::IrqRestore
        | Instr::Pop
        | Instr::Dup
        | Instr::LdFat { .. }
        | Instr::StLocalFat { .. }
        | Instr::StGlobalFat { .. }
        | Instr::FatVal
        | Instr::FatEnd
        | Instr::FatBase => 1,
        Instr::St { .. }
        | Instr::Bin { .. }
        | Instr::MemCpy { .. }
        | Instr::StFat { .. }
        | Instr::FatAdd => 2,
        Instr::MkFat { seq } => {
            if seq {
                3
            } else {
                2
            }
        }
        Instr::Call { func } => img
            .functions
            .get(func as usize)
            .map_or(0, |f| f.params.len() as u32),
    }
}

/// Evaluation-stack cells pushed by `i` (ignoring callee effects).
fn pushes(i: &Instr) -> u32 {
    match *i {
        Instr::PushI(_)
        | Instr::LdLocal { .. }
        | Instr::AddrLocal { .. }
        | Instr::LdGlobal { .. }
        | Instr::Ld { .. }
        | Instr::Bin { .. }
        | Instr::Un { .. }
        | Instr::Wrap { .. }
        | Instr::IrqSave
        | Instr::LdFat { .. }
        | Instr::LdLocalFat { .. }
        | Instr::LdGlobalFat { .. }
        | Instr::MkFat { .. }
        | Instr::FatVal
        | Instr::FatEnd
        | Instr::FatBase
        | Instr::FatAdd => 1,
        Instr::Dup => 2,
        _ => 0,
    }
}

/// Whether `[addr, addr+len)` is statically known to be SRAM. Static
/// ops address SRAM only, so the engine reads them with no region test;
/// a static access to the flash window (a `const` global), MMIO or an
/// unmapped address stays `Slow`.
fn static_sram(sram: (u16, u16), addr: u16, len: u32) -> bool {
    addr >= sram.0 && addr as u32 + len <= sram.1 as u32
}

fn is_divmod(op: AluOp) -> bool {
    matches!(op, AluOp::Div | AluOp::Mod)
}

/// `(branch-when-zero, target)` for a conditional jump, `None` otherwise.
fn branch_sense(i: &Instr) -> Option<(bool, u32)> {
    match *i {
        Instr::Jz { target } => Some((true, target)),
        Instr::Jnz { target } => Some((false, target)),
        _ => None,
    }
}

/// Partitions one function's code into blocks and gives every op
/// boundary its entry.
fn decode_fn(img: &Image, code: &[Instr], sram: (u16, u16), stats: &mut CacheStats) -> DecodedFn {
    let n = code.len();
    let mut leader = vec![false; n];
    if n > 0 {
        leader[0] = true;
    }
    for (i, ins) in code.iter().enumerate() {
        if is_terminator(ins) && i + 1 < n {
            leader[i + 1] = true;
        }
        match *ins {
            Instr::Jmp { target } | Instr::Jz { target } | Instr::Jnz { target }
                if (target as usize) < n =>
            {
                leader[target as usize] = true;
            }
            _ => {}
        }
    }
    let mut entries = vec![Entry::default(); n];
    let mut ops = Vec::new();
    let mut i = 0;
    while i < n {
        debug_assert!(leader[i]);
        let mut end = i + 1;
        while end < n && !leader[end] {
            end += 1;
        }
        let first = ops.len();
        translate_block(&code[i..end], sram, &mut ops);
        stats.blocks += 1;
        stats.instrs += end - i;
        enter_block(img, &code[i..end], i, first, &ops, &mut entries);
        i = end;
    }
    stats.ops += ops.len();
    stats.fused += ops.iter().filter(|o| o.n > 1).count();
    stats.slow += ops
        .iter()
        .filter(|o| matches!(o.kind, OpKind::Slow(_)))
        .count();
    DecodedFn {
        ops: ops.into_boxed_slice(),
        entries: entries.into_boxed_slice(),
    }
}

/// Builds one `Op` covering `code[..n_instrs]`.
fn mk_op(code: &[Instr], n_instrs: usize, kind: OpKind) -> Op {
    let cost: u64 = code[..n_instrs].iter().map(Instr::cycles).sum();
    let reach = cost - code[n_instrs - 1].cycles();
    Op {
        cost: u32::try_from(cost).expect("op cost fits u32"),
        n: n_instrs as u16,
        reach: u16::try_from(reach).expect("a fused op's reach fits u16"),
        kind,
    }
}

/// Translates one straight-line instruction run, appending its ops.
fn translate_block(code: &[Instr], sram: (u16, u16), out: &mut Vec<Op>) {
    let mut ops = Vec::new();
    let mut k = 0;
    while k < code.len() {
        if let Some((op, len)) = try_fuse(&code[k..], sram) {
            ops.push(op);
            k += len;
            continue;
        }
        ops.push(translate_one(&code[k], sram));
        k += 1;
    }
    out.extend(merge_rmw_br(ops));
}

/// One backward pass over the block `code` (leader pc `pc0`, ops from
/// `ops[first..]`) that gives every op boundary its entry: the suffix's
/// cost and reach, instruction count, purity, frame span and required
/// entry stack depth. Cost and depth come from the *original* instructions (fusion
/// changes neither).
fn enter_block(
    img: &Image,
    code: &[Instr],
    pc0: usize,
    first: usize,
    ops: &[Op],
    entries: &mut [Entry],
) {
    // `need[j]`: the depth instruction `j` needs so that no instruction
    // of `code[j..]` underflows.
    let mut need = vec![0u32; code.len() + 1];
    for (j, ins) in code.iter().enumerate().rev() {
        let (p, q) = (pops(img, ins), pushes(ins));
        need[j] = p.max((need[j + 1] + p).saturating_sub(q));
    }
    let mut at = code.len();
    let mut next = Entry::default();
    for (idx, op) in ops.iter().enumerate().skip(first).rev() {
        at -= op.n as usize;
        next = Entry {
            first: idx as u32,
            n_ops: next.n_ops + 1,
            cost: next.cost + op.cost,
            reach: if next.n_ops == 0 {
                op.reach as u32
            } else {
                op.cost + next.reach
            },
            n_instrs: next.n_instrs + op.n as u32,
            stack_in: need[at],
            local_span: next.local_span.max(local_end(&op.kind)),
            pure: (next.n_ops == 0 || next.pure) && op_is_pure(&op.kind),
        };
        entries[pc0 + at] = next;
    }
    debug_assert_eq!(at, 0, "the block's ops cover its instructions");
}

/// Second fusion pass: the canonical counting-loop tail
/// `LdG;PushI;Bin;StG; LdG;PushI;Bin;Jz/Jnz` decodes as the adjacent
/// pair `RmwGK; CmpGKBr` — merge it into one [`OpKind::RmwGKBr`]
/// terminator so the hottest loop shape costs a single dispatch per
/// iteration. Both constituents already carry the no-fault/no-MMIO
/// proof, so the merged charge-then-exec of the summed cost stays
/// unobservable.
fn merge_rmw_br(ops: Vec<Op>) -> Vec<Op> {
    let mut out: Vec<Op> = Vec::with_capacity(ops.len());
    for op in ops {
        if let OpKind::CmpGKBr {
            addr,
            ld_width,
            ld_signed,
            k,
            op: cop,
            width,
            signed,
            br_if_zero,
            target,
        } = op.kind
        {
            if let Some(&Op {
                cost: pcost,
                n: pn,
                reach: _,
                kind:
                    OpKind::RmwGK {
                        ld_addr,
                        ld_width: r_ld_width,
                        ld_signed: r_ld_signed,
                        k: rk,
                        op: rop,
                        width: r_width,
                        signed: r_signed,
                        st_addr,
                        st_width,
                    },
            }) = out.last()
            {
                out.pop();
                out.push(Op {
                    cost: pcost + op.cost,
                    n: pn + op.n,
                    reach: u16::try_from(pcost).expect("a fused op's reach fits u16") + op.reach,
                    kind: OpKind::RmwGKBr {
                        reload: !(addr == st_addr && ld_width == st_width),
                        rmw: GRmw {
                            ld_addr,
                            ld_width: r_ld_width,
                            ld_signed: r_ld_signed,
                            k: rk,
                            op: rop,
                            width: r_width,
                            signed: r_signed,
                            st_addr,
                            st_width,
                        },
                        cmp: GCmpBr {
                            addr,
                            ld_width,
                            ld_signed,
                            k,
                            op: cop,
                            width,
                            signed,
                            br_if_zero,
                            target,
                        },
                    },
                });
                continue;
            }
        }
        out.push(op);
    }
    out
}

/// Whether an op can neither fault, reach a device, leave the block's
/// function, nor need the faithful interpreter — i.e. nothing in it can
/// observe the machine counters. Frame-slot ops (`LdL`/`StL`/
/// `LdLF`/`StLF`, `RmwLK`, `CmpLKBr`) count as pure because the pure
/// path proves their whole `fp` window (`Block::local_span`) is writable
/// SRAM before entry.
fn op_is_pure(kind: &OpKind) -> bool {
    !matches!(
        kind,
        OpKind::LdDyn { .. }
            | OpKind::StDyn { .. }
            | OpKind::LdFDyn { .. }
            | OpKind::StFDyn { .. }
            | OpKind::Slow(_)
            | OpKind::Call(_)
            | OpKind::Term(_)
    )
}

/// One past the last `fp`-relative byte `kind` touches (0 for ops that
/// don't address the frame).
fn local_end(kind: &OpKind) -> u32 {
    match *kind {
        OpKind::LdL { off, width, .. } | OpKind::StL { off, width } => off as u32 + width.bytes(),
        OpKind::LdLF { off, seq } | OpKind::StLF { off, seq } => off as u32 + fat_bytes(seq) as u32,
        OpKind::RmwLK(rmw) => rmw.span(),
        OpKind::CmpLKBr(cmp) => cmp.span(),
        _ => 0,
    }
}

/// Tries to fuse a superinstruction at the head of `code`. Fusion is
/// restricted to constituents that can neither fault nor reach MMIO, so
/// charging the whole fused cost upfront is unobservable.
fn try_fuse(code: &[Instr], sram: (u16, u16)) -> Option<(Op, usize)> {
    if code.len() >= 4 {
        // Loop-tail compare-and-branch idioms. A conditional jump is
        // always the last instruction of its block, so these windows can
        // only match at a block tail.
        if let [Instr::LdGlobal {
            addr,
            width: ld_width,
            signed: ld_signed,
        }, Instr::PushI(k), Instr::Bin { op, width, signed }, br, ..] = *code
        {
            if let Some((br_if_zero, target)) = branch_sense(&br) {
                if !is_divmod(op) && static_sram(sram, addr, ld_width.bytes()) {
                    let kind = OpKind::CmpGKBr {
                        addr,
                        ld_width,
                        ld_signed,
                        k,
                        op,
                        width,
                        signed,
                        br_if_zero,
                        target,
                    };
                    return Some((mk_op(code, 4, kind), 4));
                }
            }
        }
        if let [Instr::Dup, Instr::PushI(k), Instr::Bin { op, width, signed }, br, ..] = *code {
            if let Some((br_if_zero, target)) = branch_sense(&br) {
                if !is_divmod(op) {
                    let kind = OpKind::CmpTopKBr {
                        k,
                        op,
                        width,
                        signed,
                        br_if_zero,
                        target,
                    };
                    return Some((mk_op(code, 4, kind), 4));
                }
            }
        }
        if let [Instr::LdGlobal {
            addr: ld_addr,
            width: ld_width,
            signed: ld_signed,
        }, Instr::PushI(k), Instr::Bin { op, width, signed }, Instr::StGlobal {
            addr: st_addr,
            width: st_width,
        }, ..] = *code
        {
            if !is_divmod(op)
                && static_sram(sram, ld_addr, ld_width.bytes())
                && static_sram(sram, st_addr, st_width.bytes())
            {
                let kind = OpKind::RmwGK {
                    ld_addr,
                    ld_width,
                    ld_signed,
                    k,
                    op,
                    width,
                    signed,
                    st_addr,
                    st_width,
                };
                return Some((mk_op(code, 4, kind), 4));
            }
        }
    }
    if let [Instr::LdLocal {
        off: ld_off,
        width: ld_width,
        signed: ld_signed,
    }, Instr::PushI(k), Instr::Bin { op, width, signed }, ref rest @ ..] = *code
    {
        if !is_divmod(op) {
            // A frame-slot compare-and-branch, or a read-modify-write
            // with or without a cast before the store.
            if let Some((br_if_zero, target)) = rest.first().and_then(branch_sense) {
                let kind = OpKind::CmpLKBr(LCmpBr {
                    off: ld_off,
                    ld_width,
                    ld_signed,
                    k,
                    op,
                    width,
                    signed,
                    br_if_zero,
                    target,
                });
                return Some((mk_op(code, 4, kind), 4));
            }
            let (wrap, st) = match *rest {
                [Instr::Wrap { width, signed }, st, ..] => (Some((width, signed)), st),
                [st, ..] => (None, st),
                [] => return None,
            };
            if let Instr::StLocal {
                off: st_off,
                width: st_width,
            } = st
            {
                let len = 4 + wrap.is_some() as usize;
                let kind = OpKind::RmwLK(LRmw {
                    ld_off,
                    ld_width,
                    ld_signed,
                    k,
                    op,
                    width,
                    signed,
                    wrap,
                    st_off,
                    st_width,
                });
                return Some((mk_op(code, len, kind), len));
            }
        }
    }
    if let [Instr::PushI(k), Instr::Bin { op, width, signed }, br, ..] = *code {
        if let Some((br_if_zero, target)) = branch_sense(&br) {
            if !is_divmod(op) {
                let kind = OpKind::CmpKBr {
                    k,
                    op,
                    width,
                    signed,
                    br_if_zero,
                    target,
                };
                return Some((mk_op(code, 3, kind), 3));
            }
        }
    }
    if code.len() >= 2 {
        match *code {
            [Instr::PushI(k), Instr::StGlobal { addr, width }, ..]
                if static_sram(sram, addr, width.bytes()) =>
            {
                return Some((mk_op(code, 2, OpKind::StGK { addr, width, k }), 2));
            }
            [Instr::PushI(k), Instr::Bin { op, width, signed }, ..] if !is_divmod(op) => {
                return Some((
                    mk_op(
                        code,
                        2,
                        OpKind::BinK {
                            op,
                            width,
                            signed,
                            k,
                        },
                    ),
                    2,
                ));
            }
            [Instr::LdGlobal {
                addr: ld_addr,
                width: ld_width,
                signed: ld_signed,
            }, Instr::StGlobal {
                addr: st_addr,
                width: st_width,
            }, ..]
                if static_sram(sram, ld_addr, ld_width.bytes())
                    && static_sram(sram, st_addr, st_width.bytes()) =>
            {
                let kind = OpKind::CpGG {
                    ld_addr,
                    ld_width,
                    ld_signed,
                    st_addr,
                    st_width,
                };
                return Some((mk_op(code, 2, kind), 2));
            }
            _ => {}
        }
    }
    None
}

/// Translates a single instruction into its fastest safe op.
fn translate_one(ins: &Instr, sram: (u16, u16)) -> Op {
    let kind = match *ins {
        Instr::PushI(v) => OpKind::PushI(v),
        Instr::LdGlobal {
            addr,
            width,
            signed,
        } if static_sram(sram, addr, width.bytes()) => OpKind::LdG {
            addr,
            width,
            signed,
        },
        Instr::StGlobal { addr, width } if static_sram(sram, addr, width.bytes()) => {
            OpKind::StG { addr, width }
        }
        Instr::LdLocal { off, width, signed } => OpKind::LdL { off, width, signed },
        Instr::StLocal { off, width } => OpKind::StL { off, width },
        Instr::AddrLocal { off } => OpKind::AddrL { off },
        Instr::Ld { width, signed } => OpKind::LdDyn { width, signed },
        Instr::St { width } => OpKind::StDyn { width },
        Instr::Bin { op, width, signed } if !is_divmod(op) => OpKind::Bin { op, width, signed },
        Instr::Un { op, width } => OpKind::Un { op, width },
        Instr::Wrap { width, signed } => OpKind::Wrap { width, signed },
        Instr::Pop => OpKind::Pop,
        Instr::Dup => OpKind::Dup,
        Instr::Nop => OpKind::Nop,
        Instr::IrqSave => OpKind::IrqSave,
        Instr::IrqDisable => OpKind::IrqDisable,
        Instr::MkFat { seq } => OpKind::MkFat { seq },
        Instr::FatVal => OpKind::FatVal,
        Instr::FatEnd => OpKind::FatEnd,
        Instr::FatBase => OpKind::FatBase,
        Instr::FatAdd => OpKind::FatAdd,
        Instr::LdGlobalFat { addr, seq } if static_sram(sram, addr, fat_bytes(seq) as u32) => {
            OpKind::LdGF { addr, seq }
        }
        Instr::StGlobalFat { addr, seq } if static_sram(sram, addr, fat_bytes(seq) as u32) => {
            OpKind::StGF { addr, seq }
        }
        Instr::LdLocalFat { off, seq } => OpKind::LdLF { off, seq },
        Instr::StLocalFat { off, seq } => OpKind::StLF { off, seq },
        Instr::LdFat { seq } => OpKind::LdFDyn { seq },
        Instr::StFat { seq } => OpKind::StFDyn { seq },
        Instr::Jmp { target } => OpKind::Jmp(target),
        Instr::Jz { target } => OpKind::Jz(target),
        Instr::Jnz { target } => OpKind::Jnz(target),
        Instr::Call { func } => OpKind::Call(func),
        Instr::Ret
        | Instr::Reti
        | Instr::Trap { .. }
        | Instr::Halt
        | Instr::Sleep
        | Instr::IrqEnable
        | Instr::IrqRestore => OpKind::Term(*ins),
        // Division (fault on zero), MemCpy (dynamic multi-access), and
        // globals outside SRAM (flash, MMIO, unmapped) keep full
        // interpreter semantics.
        _ => OpKind::Slow(*ins),
    };
    mk_op(std::slice::from_ref(ins), 1, kind)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::{CodeFunction, Profile};

    fn image_with(code: Vec<Instr>) -> Image {
        let mut img = Image::new(Profile::mica2());
        let mut f = CodeFunction::new("main");
        f.code = code;
        f.frame_size = 16;
        let e = img.add_function(f);
        img.entry = Some(e);
        img
    }

    /// Every block must end at a control-flow edge (terminator) or at a
    /// block boundary (fallthrough into a leader / function end), and
    /// block extents must exactly tile every pc of every function.
    #[test]
    fn blocks_end_at_control_flow_edges_and_cover_every_pc() {
        let img = image_with(vec![
            Instr::PushI(1),
            Instr::Jz { target: 4 },
            Instr::PushI(2),
            Instr::Pop,
            Instr::PushI(3),
            Instr::StGlobal {
                addr: 0x0200,
                width: Width::W8,
            },
            Instr::Halt,
        ]);
        let cache = BlockCache::build(&img);
        assert_block_invariants(&cache, &img);
    }

    /// Shared invariant checker used by the unit tests here and callable
    /// on arbitrary images.
    pub(crate) fn assert_block_invariants(cache: &BlockCache, img: &Image) {
        for (fi, f) in img.functions.iter().enumerate() {
            let df = &cache.funcs[fi];
            assert_eq!(df.entries.len(), f.code.len(), "{}: pc map length", f.name);
            // Walk the pc space through whole blocks: every pc must be
            // covered by exactly one block, and any non-final
            // constituent must be a non-terminator.
            let mut pc = 0usize;
            let mut blocks = 0usize;
            while pc < f.code.len() {
                let block = cache
                    .lookup(fi as u32, pc as u32)
                    .unwrap_or_else(|| panic!("{}: pc {pc} is not a block start", f.name));
                let n = block.n_instrs as usize;
                assert!(n >= 1, "{}: empty block at pc {pc}", f.name);
                // Interior instructions never branch/open IRQ windows.
                for (j, ins) in f.code[pc..pc + n].iter().enumerate() {
                    if j + 1 < n {
                        assert!(
                            !is_terminator(ins),
                            "{}: terminator {ins:?} mid-block at pc {}",
                            f.name,
                            pc + j
                        );
                    }
                }
                // The block ends at a control-flow edge, at a jump-target
                // leader, or at the end of the function.
                let last = &f.code[pc + n - 1];
                let jumped_to = f.code.iter().any(|i| branch_target(i) == Some(pc + n));
                let at_edge = is_terminator(last) || pc + n == f.code.len() || jumped_to;
                assert!(at_edge, "{}: block at pc {pc} ends mid-flow", f.name);
                // Every op boundary inside is an entry onto the block's
                // own suffix; pcs inside a fused op are none.
                let mut at = pc;
                for (k, op) in block.ops.iter().enumerate() {
                    let suffix = cache.lookup(fi as u32, at as u32).expect("op boundary");
                    assert!(
                        std::ptr::eq(suffix.ops, &block.ops[k..]),
                        "{}: pc {at}",
                        f.name
                    );
                    assert_entry_facts(img, &f.code[at..pc + n], suffix, &f.name, at);
                    for mid in at + 1..at + op.n as usize {
                        assert!(cache.lookup(fi as u32, mid as u32).is_none(), "{}", f.name);
                    }
                    at += op.n as usize;
                }
                assert_eq!(at, pc + n, "{}: ops cover the block at pc {pc}", f.name);
                pc += n;
                blocks += 1;
            }
            assert_eq!(
                df.ops.len(),
                df.entries.iter().filter(|e| e.n_ops > 0).count()
            );
            assert!(blocks <= cache.stats().blocks);
        }
    }

    /// The jump target of `i`, if it is a jump.
    fn branch_target(i: &Instr) -> Option<usize> {
        match *i {
            Instr::Jmp { target } | Instr::Jz { target } | Instr::Jnz { target } => {
                Some(target as usize)
            }
            _ => None,
        }
    }

    /// The facts the fast path trusts must re-derive, forwards, from
    /// the suffix's source instructions and translated ops.
    fn assert_entry_facts(img: &Image, code: &[Instr], b: Block<'_>, name: &str, pc: usize) {
        let cost: u64 = code.iter().map(Instr::cycles).sum();
        assert_eq!(b.cost, cost, "{name}: cost at pc {pc}");
        let last = code.last().map_or(0, Instr::cycles);
        assert_eq!(b.reach, cost - last, "{name}: reach at pc {pc}");
        let mut at = 0;
        for op in b.ops {
            let n = op.n as usize;
            let reach: u64 = code[at..at + n - 1].iter().map(Instr::cycles).sum();
            assert_eq!(op.reach as u64, reach, "{name}: op reach at pc {}", pc + at);
            at += n;
        }
        assert_eq!(b.n_instrs as usize, code.len(), "{name}: length at pc {pc}");
        let (mut depth, mut low) = (0i64, 0i64);
        for ins in code {
            depth -= pops(img, ins) as i64;
            low = low.min(depth);
            depth += pushes(ins) as i64;
        }
        assert_eq!(b.stack_in as i64, -low, "{name}: entry depth at pc {pc}");
        let pure = b.ops.iter().all(|o| op_is_pure(&o.kind));
        assert_eq!(b.pure, pure, "{name}: purity at pc {pc}");
        let span = b.ops.iter().map(|o| local_end(&o.kind)).max().unwrap_or(0);
        assert_eq!(b.local_span, span, "{name}: local span at pc {pc}");
    }

    #[test]
    fn jump_targets_split_blocks() {
        // A backward jump into the middle of what would otherwise be one
        // straight run must split it.
        let img = image_with(vec![
            Instr::PushI(1), // 0: leader (entry)
            Instr::Pop,      // 1
            Instr::PushI(2), // 2: leader (jump target)
            Instr::Pop,      // 3
            Instr::Jmp { target: 2 },
        ]);
        let cache = BlockCache::build(&img);
        assert_block_invariants(&cache, &img);
        assert_eq!(cache.stats().blocks, 2);
        assert_eq!(cache.lookup(0, 0).unwrap().n_instrs, 2);
        assert_eq!(cache.lookup(0, 2).unwrap().n_instrs, 3);
        // The interior boundaries enter their block's suffix.
        assert_eq!(cache.lookup(0, 1).unwrap().n_instrs, 1);
        assert_eq!(cache.lookup(0, 3).unwrap().n_instrs, 2);
    }

    #[test]
    fn irq_enabling_instructions_terminate_blocks() {
        let img = image_with(vec![
            Instr::PushI(1),
            Instr::IrqEnable, // must end the block: IRQ window opens here
            Instr::Pop,
            Instr::Halt,
        ]);
        let cache = BlockCache::build(&img);
        assert_block_invariants(&cache, &img);
        assert_eq!(cache.stats().blocks, 2);
        assert_eq!(cache.lookup(0, 0).unwrap().n_instrs, 2);
        assert_eq!(cache.lookup(0, 2).unwrap().n_instrs, 2);
    }

    #[test]
    fn a_suffix_needs_only_its_own_stack_depth() {
        // The whole block needs one cell on entry; entered at the `Pop`
        // it needs three (one to pop, two for the division).
        let img = image_with(vec![
            Instr::PushI(1),
            Instr::PushI(2),
            Instr::Pop,
            Instr::Bin {
                op: AluOp::Div,
                width: Width::W16,
                signed: false,
            },
            Instr::Halt,
        ]);
        let cache = BlockCache::build(&img);
        assert_block_invariants(&cache, &img);
        let depths: Vec<u32> = (0..5)
            .map(|pc| cache.lookup(0, pc).unwrap().stack_in)
            .collect();
        assert_eq!(depths, [1, 2, 3, 2, 0]);
        assert!(!cache.lookup(0, 0).unwrap().pure);
        assert!(cache.lookup(0, 4).unwrap().ops.len() == 1);
    }

    #[test]
    fn hot_idioms_fuse_into_superinstructions() {
        // counter += 1 as the backend emits it, plus a constant store.
        let img = image_with(vec![
            Instr::LdGlobal {
                addr: 0x0200,
                width: Width::W16,
                signed: false,
            },
            Instr::PushI(1),
            Instr::Bin {
                op: AluOp::Add,
                width: Width::W16,
                signed: false,
            },
            Instr::StGlobal {
                addr: 0x0200,
                width: Width::W16,
            },
            Instr::PushI(7),
            Instr::StGlobal {
                addr: 0x0202,
                width: Width::W8,
            },
            Instr::Halt,
        ]);
        let cache = BlockCache::build(&img);
        assert_block_invariants(&cache, &img);
        let stats = cache.stats();
        assert_eq!(stats.fused, 2, "RmwGK + StGK expected: {stats:?}");
        let block = cache.lookup(0, 0).unwrap();
        assert!(matches!(block.ops[0].kind, OpKind::RmwGK { .. }));
        assert_eq!(block.ops[0].n, 4);
        assert!(matches!(block.ops[1].kind, OpKind::StGK { .. }));
        // Charges are conserved across fusion.
        let src_cost: u64 = img.functions[0].code.iter().map(Instr::cycles).sum();
        let op_cost: u64 = block.ops.iter().map(|o| o.cost as u64).sum();
        assert_eq!(src_cost, op_cost);
    }

    #[test]
    fn mmio_and_division_stay_slow() {
        let img = image_with(vec![
            Instr::PushI(1),
            Instr::StGlobal {
                addr: crate::devices::LED_REG,
                width: Width::W16,
            }, // MMIO: must not become a fast StG (or fuse)
            Instr::PushI(6),
            Instr::PushI(2),
            Instr::Bin {
                op: AluOp::Div,
                width: Width::W16,
                signed: false,
            }, // can fault: must stay Slow
            Instr::Pop,
            Instr::Halt,
        ]);
        let cache = BlockCache::build(&img);
        assert_block_invariants(&cache, &img);
        assert_eq!(cache.stats().fused, 0);
        let block = cache.lookup(0, 0).unwrap();
        assert!(matches!(
            block.ops[1].kind,
            OpKind::Slow(Instr::StGlobal { .. })
        ));
        assert!(block
            .ops
            .iter()
            .any(|o| matches!(o.kind, OpKind::Slow(Instr::Bin { .. }))));
    }

    #[test]
    fn stack_in_reflects_worst_prefix_deficit() {
        let img = image_with(vec![
            Instr::Bin {
                op: AluOp::Add,
                width: Width::W16,
                signed: false,
            }, // needs 2
            Instr::PushI(1),
            Instr::Halt,
        ]);
        let cache = BlockCache::build(&img);
        assert_eq!(cache.lookup(0, 0).unwrap().stack_in, 2);
    }
}

#[cfg(test)]
mod fusion_tests {
    use super::*;
    use crate::image::CodeFunction;
    use crate::{Image, Profile};

    /// The canonical counting-loop tail (`g += 1; if g < K goto top`)
    /// must collapse into a single `RmwGKBr` terminator with the
    /// compare reload elided (same address and width as the store).
    #[test]
    fn counting_loop_fuses_to_rmw_branch() {
        let mut img = Image::new(Profile::mica2());
        let mut f = CodeFunction::new("main");
        f.code = vec![
            Instr::LdGlobal {
                addr: 0x0200,
                width: Width::W16,
                signed: false,
            },
            Instr::PushI(1),
            Instr::Bin {
                op: AluOp::Add,
                width: Width::W16,
                signed: false,
            },
            Instr::StGlobal {
                addr: 0x0200,
                width: Width::W16,
            },
            Instr::LdGlobal {
                addr: 0x0200,
                width: Width::W16,
                signed: false,
            },
            Instr::PushI(60000),
            Instr::Bin {
                op: AluOp::Lt,
                width: Width::W16,
                signed: false,
            },
            Instr::Jnz { target: 0 },
        ];
        let e = img.add_function(f);
        img.entry = Some(e);
        let cache = BlockCache::build(&img);
        let b = cache.lookup(0, 0).unwrap();
        assert!(b.pure);
        assert_eq!(b.n_instrs, 8);
        assert_eq!(b.local_span, 0);
        assert_eq!(b.ops.len(), 1);
        match &b.ops[0].kind {
            OpKind::RmwGKBr { rmw, cmp, reload } => {
                assert_eq!(rmw.ld_addr, 0x0200);
                assert_eq!(rmw.st_addr, 0x0200);
                assert_eq!(cmp.addr, 0x0200);
                assert!(!reload, "same-address same-width reload must be elided");
            }
            other => panic!("expected fused RmwGKBr, got {other:?}"),
        }
        assert_eq!(b.ops[0].n, 8);
        assert_eq!(
            u64::from(b.ops[0].cost),
            b.cost,
            "single-op block carries full cost"
        );
    }
}
