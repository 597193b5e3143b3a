//! Multi-node simulation over a shared broadcast radio channel.
//!
//! This plays the Avrora role of simulating a *network* of motes: every
//! byte a node transmits is delivered to every other node's receiver one
//! byte-time later. Nodes are advanced in lock-step time quanta small
//! enough (half a radio byte) that cross-node delivery order is preserved.

use crate::devices::RADIO_BYTE_CYCLES;
use crate::machine::{Machine, RunState};

/// A network of M16 nodes sharing one radio channel.
#[derive(Debug)]
pub struct Network {
    /// The member nodes.
    pub nodes: Vec<Machine>,
    /// Global simulation time in cycles.
    pub now: u64,
    drained: Vec<usize>,
}

impl Network {
    /// Creates a network from pre-loaded machines.
    pub fn new(nodes: Vec<Machine>) -> Network {
        let drained = nodes.iter().map(|n| n.radio_out.len()).collect();
        Network {
            nodes,
            now: 0,
            drained,
        }
    }

    /// Runs all nodes until `until` cycles of global time.
    pub fn run(&mut self, until: u64) {
        let quantum = RADIO_BYTE_CYCLES / 2;
        while self.now < until {
            let t = (self.now + quantum).min(until);
            for node in &mut self.nodes {
                node.run(t);
            }
            self.deliver(t);
            self.now = t;
            if self
                .nodes
                .iter()
                .all(|n| matches!(n.state, RunState::Halted | RunState::Faulted))
            {
                break;
            }
        }
    }

    /// Delivers bytes transmitted since the last quantum to all *other*
    /// nodes, one byte-time after transmission. Ties are broken by
    /// (time, source id) so delivery order never depends on collection
    /// order, and arrivals are clamped to the quantum boundary `t`: a
    /// byte transmitted inside the quantum arrives at
    /// `tx_time + RADIO_BYTE_CYCLES > t` as long as the quantum is at
    /// most one byte-time, so the clamp only matters if a receiver
    /// overshot the boundary by more than half a byte-time (a single
    /// very long instruction), where an arrival behind the receiver's
    /// instruction stream would otherwise be possible.
    fn deliver(&mut self, t: u64) {
        let mut deliveries: Vec<(usize, u64, u8)> = Vec::new();
        for (i, node) in self.nodes.iter_mut().enumerate() {
            let start = self.drained[i];
            for &(tx_time, byte) in &node.radio_out[start..] {
                deliveries.push((i, tx_time, byte));
            }
            self.drained[i] = node.radio_out.len();
        }
        deliveries.sort_by_key(|&(src, time, _)| (time, src));
        for (src, tx_time, byte) in deliveries {
            let at = tx_time + RADIO_BYTE_CYCLES;
            debug_assert!(
                at >= t,
                "late radio delivery: byte from node {src} sent at {tx_time} \
                 would arrive at {at}, behind the quantum boundary {t}"
            );
            let at = at.max(t);
            for (j, node) in self.nodes.iter_mut().enumerate() {
                if j != src {
                    node.inject_rx_bytes(at, &[byte]);
                }
            }
        }
    }
}

/// The 2-node scenario shared by the lockstep test below and the
/// event-driven equivalence test in [`crate::fleet`]: node A transmits
/// `0x5A` once and halts; node B's RADIO_RX interrupt records the
/// received byte at `0x0200`.
#[cfg(test)]
pub(crate) fn byte_channel_images() -> (crate::image::Image, crate::image::Image) {
    use crate::devices::{RADIO_CTRL, RADIO_RX, RADIO_TX};
    use crate::image::{CodeFunction, Image, Profile};
    use crate::isa::{Instr, Width};

    let mut img_a = Image::new(Profile::mica2());
    let mut main_a = CodeFunction::new("main");
    main_a.code = vec![
        Instr::PushI(0x5A),
        Instr::PushI(RADIO_TX as i64),
        Instr::St { width: Width::W8 },
        Instr::Halt,
    ];
    let e = img_a.add_function(main_a);
    img_a.entry = Some(e);

    let mut img_b = Image::new(Profile::mica2());
    let mut rx = CodeFunction::new("rx");
    rx.interrupt = Some(crate::vectors::RADIO_RX);
    rx.code = vec![
        Instr::PushI(RADIO_RX as i64),
        Instr::Ld {
            width: Width::W8,
            signed: false,
        },
        Instr::StGlobal {
            addr: 0x0200,
            width: Width::W8,
        },
        Instr::Reti,
    ];
    img_b.add_function(rx);
    let mut main_b = CodeFunction::new("main");
    main_b.code = vec![
        Instr::PushI(1),
        Instr::PushI(RADIO_CTRL as i64),
        Instr::St { width: Width::W16 },
        Instr::IrqEnable,
        Instr::Sleep,
        Instr::Jmp { target: 4 },
    ];
    let e = img_b.add_function(main_b);
    img_b.entry = Some(e);

    (img_a, img_b)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Node A transmits 0x5A once; node B records the received byte.
    #[test]
    fn byte_crosses_the_channel() {
        let (img_a, img_b) = byte_channel_images();
        let a = Machine::new(&img_a);
        let b = Machine::new(&img_b);
        let mut net = Network::new(vec![a, b]);
        net.run(10_000);
        let got = net.nodes[1].ram_peek(0x0200);
        assert_eq!(got, 0x5A);
    }
}
