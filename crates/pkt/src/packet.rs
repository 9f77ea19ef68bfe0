//! The simulated packet and its metadata.
//!
//! Packets are metadata-only: the simulator never materializes payload
//! bytes. Wire sizes are accounted exactly (payload + protocol headers +
//! optional `flowinfo` overhead) so serialization delays and queue byte
//! budgets match a real network.

use crate::ids::{FlowId, NodeId, QueryId};
use vertigo_simcore::SimTime;

/// Maximum transport payload per packet (Ethernet MTU minus IP + TCP).
pub const MAX_PAYLOAD: u32 = 1460;
/// Bytes of protocol headers (Ethernet + IP + TCP) on a data packet.
pub const DATA_HEADER_BYTES: u32 = 40;
/// Wire size of a pure ACK.
pub const ACK_WIRE_BYTES: u32 = 64;
/// Wire size of a trimmed (payload-removed) data packet.
pub const TRIMMED_WIRE_BYTES: u32 = 64;
/// Extra wire bytes added by the `flowinfo` header (paper Fig. 3, IPv4
/// option variant: 8 bytes).
pub const FLOWINFO_OVERHEAD_BYTES: u32 = 8;
/// Hop budget: packets that traverse more hops than this are dropped.
/// Deflection can legitimately take long detours; 64 is far above any
/// shortest path in the evaluated topologies but bounds routing loops.
pub const MAX_HOPS: u16 = 64;

/// ECN codepoint carried in the IP header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ecn {
    /// Sender transport is not ECN-capable (e.g. plain TCP Reno).
    NotCapable,
    /// ECN-capable transport, no congestion experienced yet.
    Capable,
    /// Congestion Experienced: set by a switch whose queue exceeded the
    /// marking threshold.
    CongestionExperienced,
}

impl Ecn {
    /// Marks CE if the packet is ECN-capable; NotCapable packets are left
    /// untouched (a real switch would drop instead of marking, but the
    /// simulated queues handle drops separately).
    pub fn mark_ce(&mut self) {
        if !matches!(self, Ecn::NotCapable) {
            *self = Ecn::CongestionExperienced;
        }
    }

    /// Whether CE is set.
    pub fn is_ce(self) -> bool {
        matches!(self, Ecn::CongestionExperienced)
    }
}

/// The Vertigo `flowinfo` header (paper Fig. 3), attached by the TX-path
/// marking component.
///
/// `rfs` is the Remaining Flow Size *as stored on the wire*: for a packet
/// retransmitted `retcnt` times it has been right-rotated `retcnt ×
/// boost_shift` bits by the boosting mechanism, and the receiver recovers
/// the original value with left rotations (see `vertigo-core`'s `boost`
/// module).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowInfo {
    /// Remaining flow size in bytes (32-bit field; wire value, possibly
    /// boosted by rotation).
    pub rfs: u32,
    /// Number of times this packet has been retransmitted (4-bit field).
    pub retcnt: u8,
    /// Per-host rolling flow counter used by the ordering component to
    /// separate back-to-back flows (3-bit field).
    pub flow_seq: u8,
    /// Set on the first packet of a flow (the FLAGS bit under SRPT).
    pub first: bool,
}

impl FlowInfo {
    /// Effective scheduling rank of this packet: the *logical* boosted RFS.
    ///
    /// The stored field is a reversible rotation; the rank used by switch
    /// priority queues is the original RFS logically divided by
    /// `2^(retcnt*boost_shift)` — i.e. un-rotate, then shift. This matches
    /// the paper's intent (each retransmission halves the effective RFS at
    /// a 2× boosting factor) while remaining a pure function of header
    /// fields, computable with two barrel shifts in hardware.
    #[inline]
    pub fn rank(&self, boost_shift: u32) -> u64 {
        let k = (self.retcnt as u32) * boost_shift;
        let k = k % 32;
        (self.rfs.rotate_left(k) >> k) as u64
    }
}

/// A contiguous byte range of a flow carried by one data packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DataSeg {
    /// Byte offset of the first payload byte within the flow.
    pub seq: u64,
    /// Payload length in bytes (1..=MAX_PAYLOAD).
    pub payload: u32,
    /// Total size of the flow in bytes. Carried so the receiver knows when
    /// the flow is complete without a handshake (simulation convenience;
    /// in a real deployment this is connection state).
    pub flow_bytes: u64,
    /// True if this transmission is a retransmission.
    pub retransmit: bool,
    /// True if a switch trimmed the payload off this packet (NDP-style
    /// buffer policy, an extension beyond the paper): the header still
    /// travels to the receiver as an explicit, fast loss signal.
    pub trimmed: bool,
}

impl DataSeg {
    /// Whether this is a segment a sender cuts: it starts on the
    /// `MAX_PAYLOAD` grid inside its flow and carries the rest of the flow
    /// up to `MAX_PAYLOAD` bytes. A receiver knows such a segment by its
    /// index, and completes at exactly the flow's size.
    pub fn is_on_grid(&self) -> bool {
        let mss = MAX_PAYLOAD as u64;
        self.seq.is_multiple_of(mss)
            && self.seq < self.flow_bytes
            && self.payload as u64 == (self.flow_bytes - self.seq).min(mss)
    }
}

/// A cumulative acknowledgement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AckSeg {
    /// All bytes below this offset have been received in order.
    pub cum_ack: u64,
    /// Echo of the CE mark on the data packet that triggered this ACK
    /// (DCTCP-style per-packet echo).
    pub ecn_echo: bool,
    /// Echo of the data packet's transmit timestamp, for RTT measurement
    /// (Swift-style hardware timestamping).
    pub ts_echo: SimTime,
}

/// What a packet carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PacketKind {
    /// Transport payload.
    Data(DataSeg),
    /// Transport acknowledgement.
    Ack(AckSeg),
}

/// A simulated packet.
#[derive(Debug, Clone)]
pub struct Packet {
    /// Unique id (monotonically assigned by the sending host).
    pub uid: u64,
    /// Flow this packet belongs to. ACKs carry the *data* flow's id with
    /// `kind = Ack`, and are routed toward `dst` like any packet.
    pub flow: FlowId,
    /// Query this packet's flow belongs to (`QueryId::NONE` for background).
    pub query: QueryId,
    /// Source host.
    pub src: NodeId,
    /// Destination host.
    pub dst: NodeId,
    /// Payload or acknowledgement.
    pub kind: PacketKind,
    /// Total bytes on the wire (headers + payload + flowinfo overhead).
    pub wire_size: u32,
    /// ECN codepoint.
    pub ecn: Ecn,
    /// Vertigo flowinfo header, if the marking component is active.
    pub flowinfo: Option<FlowInfo>,
    /// When the packet left the sending host's NIC queue entry point.
    pub sent_at: SimTime,
    /// Switch hops traversed so far.
    pub hops: u16,
    /// Times this packet has been deflected.
    pub deflections: u16,
}

impl Packet {
    /// Builds a data packet. Wire size excludes flowinfo; the marking
    /// component adds [`FLOWINFO_OVERHEAD_BYTES`] when it tags the packet.
    #[allow(clippy::too_many_arguments)] // mirrors the wire header fields
    pub fn data(
        uid: u64,
        flow: FlowId,
        query: QueryId,
        src: NodeId,
        dst: NodeId,
        seg: DataSeg,
        ecn_capable: bool,
        now: SimTime,
    ) -> Self {
        debug_assert!(seg.payload > 0 && seg.payload <= MAX_PAYLOAD);
        debug_assert!(!seg.trimmed, "packets are born untrimmed");
        Packet {
            uid,
            flow,
            query,
            src,
            dst,
            kind: PacketKind::Data(seg),
            wire_size: seg.payload + DATA_HEADER_BYTES,
            ecn: if ecn_capable {
                Ecn::Capable
            } else {
                Ecn::NotCapable
            },
            flowinfo: None,
            sent_at: now,
            hops: 0,
            deflections: 0,
        }
    }

    /// Builds an ACK for `flow`, sent from the data receiver back to the
    /// data sender. ACKs carry `rfs = 0` in their flowinfo so Vertigo
    /// switches never victimize them ahead of data.
    pub fn ack(
        uid: u64,
        flow: FlowId,
        query: QueryId,
        src: NodeId,
        dst: NodeId,
        seg: AckSeg,
        now: SimTime,
    ) -> Self {
        Packet {
            uid,
            flow,
            query,
            src,
            dst,
            kind: PacketKind::Ack(seg),
            wire_size: ACK_WIRE_BYTES,
            ecn: Ecn::NotCapable,
            flowinfo: None,
            sent_at: now,
            hops: 0,
            deflections: 0,
        }
    }

    /// Attaches a flowinfo header, growing the wire size accordingly.
    pub fn tag_flowinfo(&mut self, info: FlowInfo) {
        if self.flowinfo.is_none() {
            self.wire_size += FLOWINFO_OVERHEAD_BYTES;
        }
        self.flowinfo = Some(info);
    }

    /// The packet's scheduling rank for RFS-sorted queues: logical boosted
    /// RFS, or 0 for untagged packets (ACKs and control traffic are never
    /// deflected before data).
    #[inline]
    pub fn rank(&self, boost_shift: u32) -> u64 {
        match &self.flowinfo {
            Some(fi) => fi.rank(boost_shift),
            None => 0,
        }
    }

    /// Trims the payload off a data packet (NDP-style): the wire shrinks
    /// to a header-only stub that carries the loss signal to the receiver.
    /// No-op on ACKs.
    pub fn trim(&mut self) {
        if let PacketKind::Data(seg) = &mut self.kind {
            if !seg.trimmed {
                seg.trimmed = true;
                self.wire_size = TRIMMED_WIRE_BYTES;
            }
        }
    }

    /// Whether this is a trimmed data stub.
    pub fn is_trimmed(&self) -> bool {
        matches!(&self.kind, PacketKind::Data(d) if d.trimmed)
    }

    /// Whether this is a data packet.
    pub fn is_data(&self) -> bool {
        matches!(self.kind, PacketKind::Data(_))
    }

    /// The data segment, if this is a data packet.
    pub fn data_seg(&self) -> Option<&DataSeg> {
        match &self.kind {
            PacketKind::Data(d) => Some(d),
            PacketKind::Ack(_) => None,
        }
    }

    /// The ACK segment, if this is an ACK.
    pub fn ack_seg(&self) -> Option<&AckSeg> {
        match &self.kind {
            PacketKind::Ack(a) => Some(a),
            PacketKind::Data(_) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seg(seq: u64, payload: u32) -> DataSeg {
        DataSeg {
            seq,
            payload,
            flow_bytes: 100_000,
            retransmit: false,
            trimmed: false,
        }
    }

    #[test]
    fn data_wire_size_accounts_headers() {
        let p = Packet::data(
            1,
            FlowId(1),
            QueryId::NONE,
            NodeId(0),
            NodeId(1),
            seg(0, 1460),
            true,
            SimTime::ZERO,
        );
        assert_eq!(p.wire_size, 1500);
        assert!(p.is_data());
        assert_eq!(p.data_seg().unwrap().payload, 1460);
    }

    #[test]
    fn tagging_grows_wire_once() {
        let mut p = Packet::data(
            1,
            FlowId(1),
            QueryId::NONE,
            NodeId(0),
            NodeId(1),
            seg(0, 100),
            true,
            SimTime::ZERO,
        );
        let base = p.wire_size;
        p.tag_flowinfo(FlowInfo {
            rfs: 5000,
            retcnt: 0,
            flow_seq: 0,
            first: true,
        });
        assert_eq!(p.wire_size, base + FLOWINFO_OVERHEAD_BYTES);
        // Re-tagging (e.g. boosting a retransmission) must not grow again.
        p.tag_flowinfo(FlowInfo {
            rfs: 2500,
            retcnt: 1,
            flow_seq: 0,
            first: true,
        });
        assert_eq!(p.wire_size, base + FLOWINFO_OVERHEAD_BYTES);
    }

    #[test]
    fn rank_unboosts_rotations() {
        // Original RFS 20_000, retransmitted twice at 2x boost (shift 1):
        // wire field has been rotated right twice.
        let stored = 20_000u32.rotate_right(2);
        let fi = FlowInfo {
            rfs: stored,
            retcnt: 2,
            flow_seq: 0,
            first: false,
        };
        assert_eq!(fi.rank(1), 20_000 >> 2);
        // Fresh packet: rank is the raw RFS.
        let fresh = FlowInfo {
            rfs: 20_000,
            retcnt: 0,
            flow_seq: 0,
            first: true,
        };
        assert_eq!(fresh.rank(1), 20_000);
    }

    #[test]
    fn rank_handles_odd_values_reversibly() {
        // Odd RFS: a plain "rotate and use the field as rank" would explode
        // to ~2^31; the logical rank stays small.
        let orig: u32 = 20_001;
        let stored = orig.rotate_right(1);
        let fi = FlowInfo {
            rfs: stored,
            retcnt: 1,
            flow_seq: 0,
            first: false,
        };
        assert_eq!(fi.rank(1), (orig >> 1) as u64);
    }

    #[test]
    fn acks_rank_zero() {
        let p = Packet::ack(
            2,
            FlowId(1),
            QueryId::NONE,
            NodeId(1),
            NodeId(0),
            AckSeg {
                cum_ack: 1460,
                ecn_echo: false,
                ts_echo: SimTime::ZERO,
            },
            SimTime::ZERO,
        );
        assert_eq!(p.rank(1), 0);
        assert_eq!(p.wire_size, ACK_WIRE_BYTES);
        assert!(!p.is_data());
    }

    #[test]
    fn ecn_marking() {
        let mut e = Ecn::Capable;
        e.mark_ce();
        assert!(e.is_ce());
        let mut n = Ecn::NotCapable;
        n.mark_ce();
        assert!(!n.is_ce());
    }
}
