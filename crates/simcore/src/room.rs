//! Rings that give back the room they no longer use.
//!
//! A `VecDeque` keeps the capacity of its busiest moment. The simulator
//! holds one per switch port, per NIC and per flow with early packets, and
//! a run used to pay for every one of those peaks at once: at the end of
//! the fat-tree soak the port, NIC and reorder rings had room for 1.1 MB
//! and held 0.1 MB (DESIGN §5k). Capacity is never read by the simulation
//! and never saved, so releasing it moves nothing but the heap.

use std::collections::VecDeque;

/// The buffer a drained ring keeps for its next burst: 16 queued packets
/// of a port's rank-ordered ring, 32 of a FIFO or NIC ring, 8 early
/// packets of a flow. Smaller buffers are kept, because the next burst
/// would only allocate them again; larger ones are what a burst left
/// behind.
pub const RING_KEEP_BYTES: usize = 256;

/// Frees `ring`'s buffer if it is empty and holds more than
/// [`RING_KEEP_BYTES`]. Called after a pop, so a ring that drains gives
/// its room back and one that does not pays a length test.
#[inline]
pub fn release_if_drained<T>(ring: &mut VecDeque<T>) {
    if ring.is_empty() && ring.capacity() * std::mem::size_of::<T>() > RING_KEEP_BYTES {
        *ring = VecDeque::new();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_drained_burst_gives_its_buffer_back_and_a_small_ring_keeps_its_own() {
        let mut burst: VecDeque<u64> = (0..100).collect();
        release_if_drained(&mut burst);
        assert!(burst.capacity() >= 100, "not drained: kept");
        burst.clear();
        release_if_drained(&mut burst);
        assert_eq!(burst.capacity(), 0);
        let mut small: VecDeque<u64> = VecDeque::with_capacity(RING_KEEP_BYTES / 8);
        let room = small.capacity();
        small.push_back(1);
        small.pop_front();
        release_if_drained(&mut small);
        assert_eq!(small.capacity(), room);
    }
}
