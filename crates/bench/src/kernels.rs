//! Compute-kernel corpus for the `sim_speed` harness.
//!
//! Real Mica2 apps sleep most of the simulated day, so their runs say
//! little about the execution engines themselves. These kernels isolate
//! the engines on always-awake instruction streams shaped like the hot
//! code the paper's apps run between sleeps: the global-memory idioms
//! (counters, flags, buffer windows — TinyOS state lives in statics)
//! where block translation plus superinstruction fusion pays fully, and
//! local-variable and pure stack arithmetic loops, whose tails have no
//! fused read-modify-branch form yet. The harness reports each
//! kernel's instructions and the block engine's op dispatches.

use mcu::image::CodeFunction;
use mcu::isa::{AluOp, Instr, Width};
use mcu::{Image, Profile};

/// Simulated cycles each kernel runs per engine.
pub const CYCLES: u64 = 200_000_000;

/// One benchmark kernel: a self-contained flash image whose entry
/// function loops forever without sleeping or faulting.
pub struct Kernel {
    /// Row label in the table and JSON.
    pub name: &'static str,
    /// The image to simulate.
    pub image: Image,
}

fn kernel(name: &'static str, frame: u16, code: Vec<Instr>) -> Kernel {
    let mut img = Image::new(Profile::mica2());
    let mut f = CodeFunction::new("main");
    f.frame_size = frame;
    f.code = code;
    let e = img.add_function(f);
    img.entry = Some(e);
    Kernel { name, image: img }
}

fn ldg(addr: u16) -> Instr {
    Instr::LdGlobal {
        addr,
        width: Width::W16,
        signed: false,
    }
}

fn stg(addr: u16) -> Instr {
    Instr::StGlobal {
        addr,
        width: Width::W16,
    }
}

fn bin(op: AluOp) -> Instr {
    Instr::Bin {
        op,
        width: Width::W16,
        signed: false,
    }
}

/// The full corpus, global-memory kernels first.
pub fn suite() -> Vec<Kernel> {
    let mut out = Vec::new();

    // Serial counting loop on a 16-bit global — the canonical timer /
    // packet-counter tail. Fuses to a single read-modify-branch op.
    out.push(kernel(
        "count_loop",
        0,
        vec![
            ldg(0x0200),
            Instr::PushI(1),
            bin(AluOp::Add),
            stg(0x0200),
            ldg(0x0200),
            Instr::PushI(60000),
            bin(AluOp::Lt),
            Instr::Jnz { target: 0 },
            Instr::PushI(0),
            stg(0x0200),
            Instr::Jmp { target: 0 },
        ],
    ));

    // Straight-line burst of read-modify-writes over eight globals —
    // the "update all my counters" shape, one long basic block.
    let mut code = Vec::new();
    for i in 0..64u16 {
        let a = 0x0200 + (i % 8) * 2;
        code.push(ldg(a));
        code.push(Instr::PushI(1));
        code.push(bin(AluOp::Add));
        code.push(stg(a));
    }
    code.push(Instr::Jmp { target: 0 });
    out.push(kernel("store_burst", 0, code));

    // Flag store plus counter — a busy-signal loop mixing a constant
    // store superinstruction with the fused counting tail.
    out.push(kernel(
        "flag_count",
        0,
        vec![
            Instr::PushI(1),
            Instr::StGlobal {
                addr: 0x0210,
                width: Width::W8,
            },
            ldg(0x0200),
            Instr::PushI(1),
            bin(AluOp::Add),
            stg(0x0200),
            ldg(0x0200),
            Instr::PushI(60000),
            bin(AluOp::Lt),
            Instr::Jnz { target: 0 },
            Instr::PushI(0),
            stg(0x0200),
            Instr::Jmp { target: 0 },
        ],
    ));

    // Buffer fill: copy one global into a 16-slot window, then bump a
    // counter — the message-buffer staging shape (global→global copy).
    let mut code = Vec::new();
    for i in 0..16u16 {
        code.push(ldg(0x0300));
        code.push(stg(0x0320 + i * 2));
    }
    code.push(ldg(0x0200));
    code.push(Instr::PushI(1));
    code.push(bin(AluOp::Add));
    code.push(stg(0x0200));
    code.push(Instr::Jmp { target: 0 });
    out.push(kernel("copy_window", 0, code));

    // Local-variable counting loop (frame slots, not globals): no
    // fused local read-modify-branch form yet.
    out.push(kernel(
        "local_loop",
        8,
        vec![
            Instr::LdLocal {
                off: 0,
                width: Width::W16,
                signed: false,
            },
            Instr::PushI(1),
            bin(AluOp::Add),
            Instr::StLocal {
                off: 0,
                width: Width::W16,
            },
            Instr::LdLocal {
                off: 0,
                width: Width::W16,
                signed: false,
            },
            Instr::PushI(60000),
            bin(AluOp::Lt),
            Instr::Jnz { target: 0 },
            Instr::PushI(0),
            Instr::StLocal {
                off: 0,
                width: Width::W16,
            },
            Instr::Jmp { target: 0 },
        ],
    ));

    // Pure stack arithmetic, no RAM traffic: dominated by
    // evaluation-stack push/pop.
    out.push(kernel(
        "stack_arith",
        0,
        vec![
            Instr::PushI(7),
            Instr::PushI(13),
            Instr::Bin {
                op: AluOp::Xor,
                width: Width::W32,
                signed: false,
            },
            Instr::PushI(29),
            Instr::Bin {
                op: AluOp::Mul,
                width: Width::W32,
                signed: false,
            },
            Instr::PushI(3),
            Instr::Bin {
                op: AluOp::Shr,
                width: Width::W32,
                signed: false,
            },
            Instr::Pop,
            Instr::Jmp { target: 0 },
        ],
    ));

    out
}
