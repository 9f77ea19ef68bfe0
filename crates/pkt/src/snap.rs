//! [`Snapshot`] codecs for packets and identifiers.
//!
//! Packets are plain data, so the codec is a field-by-field transliteration.
//! `Box<Packet>` restores through [`pool::boxed`] — checkpointed packets
//! rejoin the thread-local allocation pool exactly like freshly sent ones,
//! so pointer identity (which the simulator never observes) is the only
//! thing a round trip does not preserve.

use crate::ids::{FlowId, NodeId, PortId, QueryId};
use crate::packet::{AckSeg, DataSeg, Ecn, FlowInfo, Packet, PacketKind};
use crate::pool;
use vertigo_simcore::{SimTime, SnapError, SnapReader, SnapWriter, Snapshot};

impl Snapshot for NodeId {
    fn save(&self, w: &mut SnapWriter) {
        w.put_u32(self.0);
    }
    fn restore(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(NodeId(r.get_u32()?))
    }
}

impl Snapshot for PortId {
    fn save(&self, w: &mut SnapWriter) {
        w.put_u16(self.0);
    }
    fn restore(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(PortId(r.get_u16()?))
    }
}

impl Snapshot for FlowId {
    fn save(&self, w: &mut SnapWriter) {
        w.put_u64(self.0);
    }
    fn restore(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(FlowId(r.get_u64()?))
    }
}

impl Snapshot for QueryId {
    fn save(&self, w: &mut SnapWriter) {
        w.put_u64(self.0);
    }
    fn restore(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(QueryId(r.get_u64()?))
    }
}

impl Snapshot for Ecn {
    fn save(&self, w: &mut SnapWriter) {
        w.put_u8(match self {
            Ecn::NotCapable => 0,
            Ecn::Capable => 1,
            Ecn::CongestionExperienced => 2,
        });
    }
    fn restore(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        match r.get_u8()? {
            0 => Ok(Ecn::NotCapable),
            1 => Ok(Ecn::Capable),
            2 => Ok(Ecn::CongestionExperienced),
            b => Err(SnapError::new(format!("invalid Ecn tag {b:#x}"))),
        }
    }
}

impl Snapshot for FlowInfo {
    fn save(&self, w: &mut SnapWriter) {
        w.put_u32(self.rfs);
        w.put_u8(self.retcnt);
        w.put_u8(self.flow_seq);
        w.put_bool(self.first);
    }
    fn restore(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(FlowInfo {
            rfs: r.get_u32()?,
            retcnt: r.get_u8()?,
            flow_seq: r.get_u8()?,
            first: r.get_bool()?,
        })
    }
}

impl Snapshot for DataSeg {
    fn save(&self, w: &mut SnapWriter) {
        w.put_u64(self.seq);
        w.put_u32(self.payload);
        w.put_u64(self.flow_bytes);
        w.put_bool(self.retransmit);
        w.put_bool(self.trimmed);
    }
    /// Refuses a segment no sender cuts ([`DataSeg::is_on_grid`]): a
    /// receiver knows a segment by its index, and a finished flow answers
    /// a late segment with its size.
    fn restore(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let seg = DataSeg {
            seq: r.get_u64()?,
            payload: r.get_u32()?,
            flow_bytes: r.get_u64()?,
            retransmit: r.get_bool()?,
            trimmed: r.get_bool()?,
        };
        if !seg.is_on_grid() {
            return Err(SnapError::new(format!(
                "data segment {}+{} is not one a sender cuts from a flow of {} bytes",
                seg.seq, seg.payload, seg.flow_bytes
            )));
        }
        Ok(seg)
    }
}

impl Snapshot for AckSeg {
    fn save(&self, w: &mut SnapWriter) {
        w.put_u64(self.cum_ack);
        w.put_bool(self.ecn_echo);
        self.ts_echo.save(w);
    }
    fn restore(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(AckSeg {
            cum_ack: r.get_u64()?,
            ecn_echo: r.get_bool()?,
            ts_echo: SimTime::restore(r)?,
        })
    }
}

impl Snapshot for PacketKind {
    fn save(&self, w: &mut SnapWriter) {
        match self {
            PacketKind::Data(d) => {
                w.put_u8(0);
                d.save(w);
            }
            PacketKind::Ack(a) => {
                w.put_u8(1);
                a.save(w);
            }
        }
    }
    fn restore(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        match r.get_u8()? {
            0 => Ok(PacketKind::Data(DataSeg::restore(r)?)),
            1 => Ok(PacketKind::Ack(AckSeg::restore(r)?)),
            b => Err(SnapError::new(format!("invalid PacketKind tag {b:#x}"))),
        }
    }
}

/// Bytes every packet record opens with: uid, flow, query, source,
/// destination and the kind tag. A list of packets reads its count
/// against it.
pub const PACKET_RECORD_PREFIX: usize = 8 + 8 + 8 + 4 + 4 + 1;

impl Snapshot for Packet {
    fn save(&self, w: &mut SnapWriter) {
        w.put_u64(self.uid);
        self.flow.save(w);
        self.query.save(w);
        self.src.save(w);
        self.dst.save(w);
        self.kind.save(w);
        w.put_u32(self.wire_size);
        self.ecn.save(w);
        self.flowinfo.save(w);
        self.sent_at.save(w);
        w.put_u16(self.hops);
        w.put_u16(self.deflections);
    }
    fn restore(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(Packet {
            uid: r.get_u64()?,
            flow: FlowId::restore(r)?,
            query: QueryId::restore(r)?,
            src: NodeId::restore(r)?,
            dst: NodeId::restore(r)?,
            kind: PacketKind::restore(r)?,
            wire_size: r.get_u32()?,
            ecn: Ecn::restore(r)?,
            flowinfo: Option::<FlowInfo>::restore(r)?,
            sent_at: SimTime::restore(r)?,
            hops: r.get_u16()?,
            deflections: r.get_u16()?,
        })
    }
}

impl Snapshot for Box<Packet> {
    fn save(&self, w: &mut SnapWriter) {
        (**self).save(w);
    }
    fn restore(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(pool::boxed(Packet::restore(r)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::MAX_PAYLOAD;

    fn sample_data() -> Packet {
        let mut p = Packet::data(
            42,
            FlowId(7),
            QueryId(3),
            NodeId(1),
            NodeId(9),
            DataSeg {
                seq: 2920,
                payload: 1460,
                flow_bytes: 100_000,
                retransmit: true,
                trimmed: false,
            },
            true,
            SimTime::from_nanos(555),
        );
        p.tag_flowinfo(FlowInfo {
            rfs: 97_080,
            retcnt: 2,
            flow_seq: 5,
            first: false,
        });
        p.ecn.mark_ce();
        p.hops = 11;
        p.deflections = 3;
        p
    }

    #[test]
    fn packet_round_trip_is_exact() {
        for p in [
            sample_data(),
            Packet::ack(
                43,
                FlowId(7),
                QueryId::NONE,
                NodeId(9),
                NodeId(1),
                AckSeg {
                    cum_ack: 4380,
                    ecn_echo: true,
                    ts_echo: SimTime::from_nanos(321),
                },
                SimTime::from_nanos(999),
            ),
        ] {
            let mut w = SnapWriter::new();
            p.save(&mut w);
            let bytes = w.into_bytes();
            let mut r = SnapReader::new(&bytes);
            let q = Packet::restore(&mut r).unwrap();
            assert!(r.is_empty());
            assert_eq!(format!("{p:?}"), format!("{q:?}"));
        }
    }

    /// A tagged data packet's record: the prefix, the segment, wire size,
    /// ECN, flowinfo, timestamp and the two hop counters, nothing else.
    #[test]
    fn a_tagged_data_packet_record_is_80_bytes() {
        let mut w = SnapWriter::new();
        sample_data().save(&mut w);
        assert_eq!(w.into_bytes().len(), 80);
    }

    #[test]
    fn data_segment_restore_refuses_what_no_sender_cuts() {
        let saved = |seq: u64, payload: u32, flow_bytes: u64| {
            let mut w = SnapWriter::new();
            let seg = DataSeg {
                seq,
                payload,
                flow_bytes,
                retransmit: false,
                trimmed: true,
            };
            seg.save(&mut w);
            w.into_bytes()
        };
        let restored = |b: &[u8]| DataSeg::restore(&mut SnapReader::new(b));
        assert!(restored(&saved(0, 1, 1)).is_ok());
        assert!(restored(&saved(1460, MAX_PAYLOAD, 2920)).is_ok());
        assert!(
            restored(&saved(2920, 7, 2927)).is_ok(),
            "a short last segment"
        );
        for (what, bytes) in [
            ("empty payload", saved(0, 0, 10)),
            ("payload over the MSS", saved(0, MAX_PAYLOAD + 1, 1 << 20)),
            ("ends past the flow", saved(1460, 1460, 2919)),
            ("starts past the flow", saved(2920, 1, 2920)),
            ("end overflows u64", saved(u64::MAX, 1, u64::MAX)),
            ("starts off the grid", saved(1000, 460, 2920)),
            ("starts off the grid, ends on it", saved(1, 1459, 1460)),
            ("short before the flow's last", saved(0, 1000, 2920)),
            ("short of the flow's short last", saved(1460, 6, 1467)),
        ] {
            assert!(restored(&bytes).is_err(), "accepted: {what}");
        }
    }

    #[test]
    fn boxed_restore_uses_the_pool() {
        let b = pool::boxed(sample_data());
        let mut w = SnapWriter::new();
        b.save(&mut w);
        pool::recycle(b);
        let before = pool::pooled();
        let bytes = w.into_bytes();
        let b2 = Box::<Packet>::restore(&mut SnapReader::new(&bytes)).unwrap();
        assert_eq!(b2.uid, 42);
        assert!(pool::pooled() < before.max(1), "restore drew from the pool");
    }
}
