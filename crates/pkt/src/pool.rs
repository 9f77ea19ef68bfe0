//! A thread-local free list recycling `Box<Packet>` allocations.
//!
//! Every packet in the simulator lives behind a `Box` that travels through
//! the event queue. At steady state the simulator drops one box (delivery,
//! ACK consumption, queue overflow) for roughly every box it allocates, so
//! the allocator sits squarely on the hot path. This pool short-circuits
//! that cycle: [`recycle`] parks a spent box on a thread-local free list
//! and [`boxed`] hands it back out, overwriting the contents in place.
//!
//! `Packet` is plain data — every field is `Copy` (no heap payload, the
//! payload is modeled by `wire_size` accounting only) — so "reuse" is a
//! single struct store into the existing allocation.
//!
//! The free list is thread-local, which keeps the pool lock-free and makes
//! it safe under the parallel sweep engine: each worker thread owns its own
//! list, and a simulation that runs does so on one thread. A shared warmup
//! never runs: workers clone it, and the last to drop it frees its boxes
//! to the allocator, not to a pool.

use crate::packet::Packet;
use std::cell::RefCell;

/// Upper bound on parked boxes per thread. A simulation's live packet
/// population is bounded by buffers plus in-flight windows; 4096 covers the
/// largest configurations while capping worst-case retained memory to a few
/// hundred KiB per thread.
const MAX_POOLED: usize = 4096;

thread_local! {
    // The boxes themselves are what the pool recycles, so `Vec<Box<_>>` is
    // the point here, not an accident.
    #[allow(clippy::vec_box)]
    static FREE: RefCell<Vec<Box<Packet>>> = const { RefCell::new(Vec::new()) };
}

/// Boxes `pkt`, reusing a recycled allocation when one is available.
#[inline]
pub fn boxed(pkt: Packet) -> Box<Packet> {
    FREE.with(|free| match free.borrow_mut().pop() {
        Some(mut b) => {
            *b = pkt;
            b
        }
        None => Box::new(pkt),
    })
}

/// Returns a spent box to the thread's free list (or drops it if full).
#[inline]
pub fn recycle(b: Box<Packet>) {
    FREE.with(|free| {
        let mut free = free.borrow_mut();
        if free.len() < MAX_POOLED {
            free.push(b);
        }
    });
}

/// Number of boxes currently parked on this thread's free list.
pub fn pooled() -> usize {
    FREE.with(|free| free.borrow().len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{FlowId, NodeId, QueryId};
    use crate::packet::{DataSeg, PacketKind};
    use vertigo_simcore::SimTime;

    fn sample(seq: u64) -> Packet {
        Packet::data(
            seq,
            FlowId(7),
            QueryId::NONE,
            NodeId(1),
            NodeId(2),
            DataSeg {
                seq,
                payload: 1000,
                flow_bytes: 10_000,
                retransmit: false,
                trimmed: false,
            },
            true,
            SimTime::ZERO,
        )
    }

    #[test]
    fn recycled_box_is_reused_with_new_contents() {
        let b = boxed(sample(1));
        let addr = &*b as *const Packet as usize;
        recycle(b);
        assert!(pooled() >= 1);
        let b2 = boxed(sample(2));
        let addr2 = &*b2 as *const Packet as usize;
        // LIFO free list hands back the same allocation...
        assert_eq!(addr, addr2);
        // ...with fully overwritten contents.
        assert_eq!(b2.uid, 2);
        match b2.kind {
            PacketKind::Data(seg) => assert_eq!(seg.seq, 2),
            _ => panic!("expected data packet"),
        }
    }

    #[test]
    fn pool_caps_retained_boxes() {
        let many: Vec<Box<Packet>> = (0..MAX_POOLED + 50)
            .map(|i| Box::new(sample(i as u64)))
            .collect();
        for b in many {
            recycle(b);
        }
        assert!(pooled() <= MAX_POOLED);
    }
}
