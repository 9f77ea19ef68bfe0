//! Op-stream fixtures shared by the probes: copies of the fixtures of
//! the criterion benches in `crates/bench/benches/` (`mk_pkt` of
//! `switch.rs`, `delay` of `events.rs`, `sample` of `pool.rs`, `info` of
//! `ordering.rs`, the LCG of `pieo.rs`). Copies, because this change may
//! not edit `crates/bench/`; one shared module for benches and probes is
//! a later change there. One difference is deliberate: [`tagged_pkt`]
//! takes its box from the pool, as the simulator does, where the bench's
//! `mk_pkt` calls `Box::new`. The switch and transport harnesses in
//! `probes.rs` have no bench counterpart.

use vertigo_pkt::{pool, DataSeg, FlowId, FlowInfo, NodeId, Packet, QueryId};
use vertigo_simcore::SimTime;

/// Payload bytes of a full segment.
pub const MSS: u32 = 1460;

/// One step of the benches' deterministic LCG.
#[inline]
pub fn lcg(r: &mut u64) -> u64 {
    *r = r.wrapping_mul(6364136223846793005).wrapping_add(1);
    *r
}

/// Event delay in nanoseconds in the `bursty` pattern of the events
/// bench: within 4 µs of now, the regime of a wheel fed by serialization
/// and wire delays.
#[inline]
pub fn bursty_delay_ns(r: &mut u64) -> u64 {
    lcg(r) % 4_000
}

/// A tagged full-size data packet of flow `uid % 64` from host 0 to
/// host 1 — the switch bench's `mk_pkt`, boxed from the pool.
pub fn tagged_pkt(uid: u64, rfs: u32) -> Box<Packet> {
    let mut p = Packet::data(
        uid,
        FlowId(uid % 64),
        QueryId::NONE,
        NodeId(0),
        NodeId(1),
        DataSeg {
            seq: 0,
            payload: MSS,
            flow_bytes: rfs as u64,
            retransmit: false,
            trimmed: false,
        },
        true,
        SimTime::ZERO,
    );
    p.tag_flowinfo(FlowInfo {
        rfs,
        retcnt: 0,
        flow_seq: 0,
        first: false,
    });
    pool::boxed(p)
}

/// The remaining-flow-size pattern the switch bench fills queues with.
#[inline]
pub fn rfs_of(uid: u64) -> u32 {
    (uid * 977 % 100_000) as u32
}

/// An untagged data packet, as the pool bench allocates.
pub fn plain_pkt(uid: u64) -> Packet {
    Packet::data(
        uid,
        FlowId(uid),
        QueryId::NONE,
        NodeId(0),
        NodeId(1),
        DataSeg {
            seq: uid * MSS as u64,
            payload: MSS,
            flow_bytes: 40_000,
            retransmit: false,
            trimmed: false,
        },
        true,
        SimTime::ZERO,
    )
}

/// FlowInfo of packet `k` of an `n`-packet flow under SRPT marking.
#[inline]
pub fn srpt_info(k: u32, n: u32) -> FlowInfo {
    FlowInfo {
        rfs: (n - k) * MSS,
        retcnt: 0,
        flow_seq: 0,
        first: k == 0,
    }
}
