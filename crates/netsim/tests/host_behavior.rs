//! Unit-level behavior tests for the end host: the TX path (windowing →
//! marking → NIC serialization) and the RX path (ordering → receiver →
//! ACK generation), driven directly with hand-made events.

use vertigo_netsim::{Ctx, Event, EventSink, Host, HostConfig, LinkParams, Port, PortQueue};
use vertigo_pkt::{
    DataSeg, Ecn, FlowId, NodeId, Packet, PacketKind, PortId, QueryId, ACK_WIRE_BYTES,
    FLOWINFO_OVERHEAD_BYTES,
};
use vertigo_simcore::{EventQueue, SimRng, SimTime};
use vertigo_stats::Recorder;
use vertigo_transport::{CcKind, TransportConfig};

const ME: NodeId = NodeId(0);
const TOR: NodeId = NodeId(8);
const PEER_HOST: NodeId = NodeId(5);

struct Harness {
    events: EventQueue<Event>,
    rec: Recorder,
    rng: SimRng,
}

impl Harness {
    fn new() -> Self {
        Harness {
            events: EventQueue::new(),
            rec: Recorder::new(),
            rng: SimRng::new(3),
        }
    }

    fn ctx(&mut self) -> Ctx<'_> {
        Ctx {
            now: self.events.now(),
            events: EventSink::direct(&mut self.events),
            rec: &mut self.rec,
            rng: &mut self.rng,
        }
    }

    /// Drains all pending events, returning the data packets that left the
    /// host toward the ToR (feeding TxDone back into the host so the NIC
    /// keeps draining).
    fn drain_tx(&mut self, host: &mut Host) -> Vec<Packet> {
        let mut out = Vec::new();
        while let Some((_, ev)) = self.events.pop() {
            match ev {
                Event::Arrive { node, pkt, .. } => {
                    assert_eq!(node, TOR, "host emits toward its ToR");
                    out.push(*pkt);
                }
                Event::TxDone { node, .. } => {
                    assert_eq!(node, ME);
                    let mut ctx = Ctx {
                        now: self.events.now(),
                        events: EventSink::direct(&mut self.events),
                        rec: &mut self.rec,
                        rng: &mut self.rng,
                    };
                    host.on_tx_done(&mut ctx);
                }
                Event::HostTimer { .. } => { /* quiescent here */ }
                other => panic!("unexpected event {other:?}"),
            }
        }
        out
    }
}

/// The host's NIC: a FIFO onto a 10 Gbps link to port 2 of its ToR.
fn nic() -> Port {
    Port {
        peer: TOR,
        peer_port: PortId(2),
        link: LinkParams::gbps(10, 500),
        queue: PortQueue::fifo(),
        busy: false,
        host_facing: false,
    }
}

fn vertigo_host() -> Host {
    let cfg = HostConfig::vertigo(TransportConfig::default_for(CcKind::Dctcp));
    Host::new(ME, nic(), cfg)
}

#[test]
fn tx_path_marks_and_serializes_initial_window() {
    let mut h = Harness::new();
    let mut host = vertigo_host();
    host.start_flow(FlowId(1), PEER_HOST, 20 * 1460, QueryId::NONE, &mut h.ctx());
    let pkts = h.drain_tx(&mut host);
    assert_eq!(pkts.len(), 10, "initial window of 10 MSS");
    // Every packet is marked; RFS counts down; first flag on packet 0.
    for (i, p) in pkts.iter().enumerate() {
        assert_eq!(p.dst, PEER_HOST);
        assert!(matches!(p.ecn, Ecn::Capable), "DCTCP sets ECT");
        let fi = p.flowinfo.expect("marked");
        assert_eq!(fi.rfs as u64, (20 - i as u64) * 1460);
        assert_eq!(fi.first, i == 0);
        assert_eq!(
            p.wire_size,
            1460 + 40 + FLOWINFO_OVERHEAD_BYTES,
            "wire accounts for the flowinfo header"
        );
    }
    // Serialization is paced by the NIC: timestamps strictly increase.
    let times: Vec<_> = pkts.iter().map(|p| p.sent_at).collect();
    for w in times.windows(2) {
        assert!(w[0] < w[1], "NIC serializes one packet at a time");
    }
    assert_eq!(h.rec.data_sent, 10);
}

#[test]
fn rx_path_receives_and_acks() {
    let mut h = Harness::new();
    let mut host = vertigo_host();
    // Two in-order data packets of a 2-packet flow arrive from the wire.
    for k in 0..2u64 {
        let mut pkt = Packet::data(
            100 + k,
            FlowId(9),
            QueryId::NONE,
            PEER_HOST,
            ME,
            DataSeg {
                seq: k * 1460,
                payload: 1460,
                flow_bytes: 2 * 1460,
                retransmit: false,
                trimmed: false,
            },
            true,
            SimTime::ZERO,
        );
        pkt.tag_flowinfo(vertigo_pkt::FlowInfo {
            rfs: ((2 - k) * 1460) as u32,
            retcnt: 0,
            flow_seq: 0,
            first: k == 0,
        });
        host.on_arrive(Box::new(pkt), &mut h.ctx());
    }
    // The flow is recorded complete and ACKs head back to the sender.
    let acks = h.drain_tx(&mut host);
    assert_eq!(acks.len(), 2);
    for a in &acks {
        assert!(matches!(a.kind, PacketKind::Ack(_)));
        assert_eq!(a.dst, PEER_HOST);
    }
    let last = acks.last().unwrap().ack_seg().unwrap();
    assert_eq!(last.cum_ack, 2 * 1460);
    assert_eq!(h.rec.data_delivered, 2);
    assert_eq!(h.rec.goodput_bytes, 2 * 1460);
    // The receiver does not own the flow's metadata (the sender registered
    // it, possibly in another domain's recorder); it accrues progress on a
    // placeholder record that the domain engine reconciles at merge time.
    let stub = &h.rec.flows[&FlowId(9)];
    assert_eq!(stub.src, NodeId(u32::MAX), "placeholder, not a real record");
    assert_eq!(stub.delivered_bytes, 2 * 1460);
    assert!(stub.finished.is_some());
}

#[test]
fn ack_arrival_opens_the_window() {
    let mut h = Harness::new();
    let mut host = vertigo_host();
    host.start_flow(
        FlowId(1),
        PEER_HOST,
        100 * 1460,
        QueryId::NONE,
        &mut h.ctx(),
    );
    let first = h.drain_tx(&mut host);
    assert_eq!(first.len(), 10);
    // ACK for the first segment arrives.
    let ack = Packet::ack(
        900,
        FlowId(1),
        QueryId::NONE,
        PEER_HOST,
        ME,
        vertigo_pkt::AckSeg {
            cum_ack: 1460,
            ecn_echo: false,
            ts_echo: first[0].sent_at,
        },
        SimTime::ZERO,
    );
    host.on_arrive(Box::new(ack), &mut h.ctx());
    let next = h.drain_tx(&mut host);
    assert_eq!(next.len(), 2, "slow start: 1 freed + 1 grown");
    assert_eq!(host.active_senders(), 1);
}

#[test]
fn flow_record_lifecycle_lives_at_the_sender() {
    let mut h = Harness::new();
    let mut host = vertigo_host();
    host.start_flow(FlowId(1), PEER_HOST, 1460, QueryId::NONE, &mut h.ctx());
    assert_eq!(h.rec.flows.len(), 1, "flow registered on start");
    let pkts = h.drain_tx(&mut host);
    assert_eq!(pkts.len(), 1);
    // Final ACK retires the sender and its marking state.
    let ack = Packet::ack(
        900,
        FlowId(1),
        QueryId::NONE,
        PEER_HOST,
        ME,
        vertigo_pkt::AckSeg {
            cum_ack: 1460,
            ecn_echo: false,
            ts_echo: pkts[0].sent_at,
        },
        SimTime::ZERO,
    );
    host.on_arrive(Box::new(ack), &mut h.ctx());
    assert_eq!(host.active_senders(), 0, "sender state freed on completion");
    let hs = host.stats();
    assert_eq!(hs.segments_sent, 1);
    assert_eq!(hs.retransmits, 0);
}

/// A cumulative ACK for `flow` as the peer would send it.
fn ack_pkt(flow: FlowId, cum_ack: u64, ts_echo: SimTime) -> Box<Packet> {
    Box::new(Packet::ack(
        900,
        flow,
        QueryId::NONE,
        PEER_HOST,
        ME,
        vertigo_pkt::AckSeg {
            cum_ack,
            ecn_echo: false,
            ts_echo,
        },
        SimTime::ZERO,
    ))
}

/// What one flow's sender was seen to do: a data segment put on the wire
/// (`sent_at`, `seq`, retransmission?) or a host wakeup (fired, or still
/// pending when the run stopped).
#[derive(Debug, PartialEq, Eq)]
enum Seen {
    Segment(SimTime, u64, bool),
    TimerFired(SimTime),
    TimerPending(SimTime),
}

/// Runs `active` (60 MSS) to completion on a host that also carries
/// `idle` flows stuck behind their initial windows — their ACKs never
/// come — and returns everything the active flow and the host timer did.
/// ACKs for the active flow follow a fixed absolute schedule with a 12 ms
/// hole in it, so its RTO fires once mid-flow.
fn active_flow_trace(idle: u64) -> Vec<Seen> {
    const ACTIVE: FlowId = FlowId(40);
    const SEGS: u64 = 60;
    let mut h = Harness::new();
    let mut host = vertigo_host();
    host.start_flow(ACTIVE, PEER_HOST, SEGS * 1460, QueryId::NONE, &mut h.ctx());
    // Idle flows on both sides of the active one in flow-id order.
    for i in 0..idle {
        let id = if i < idle / 2 { i } else { 100 + i };
        host.start_flow(
            FlowId(id),
            PEER_HOST,
            20 * 1460,
            QueryId::NONE,
            &mut h.ctx(),
        );
    }
    // One ACK per segment, 20 µs apart from 2 ms on (the NIC has drained
    // every initial window by then); the second half 12 ms later.
    for k in 1..=SEGS {
        let at = 2_000_000 + k * 20_000 + if k > SEGS / 2 { 12_000_000 } else { 0 };
        h.events.push(
            SimTime::from_nanos(at),
            Event::Arrive {
                node: ME,
                port: PortId(0),
                pkt: ack_pkt(ACTIVE, k * 1460, SimTime::from_nanos(at - 50_000)),
            },
        );
    }
    let mut seen = Vec::new();
    while host.active_senders() as u64 > idle {
        let (at, ev) = h.events.pop().expect("active flow still running");
        match ev {
            Event::Arrive { node: TOR, pkt, .. } => {
                if pkt.flow == ACTIVE {
                    let seg = pkt.data_seg().expect("senders emit data");
                    seen.push(Seen::Segment(pkt.sent_at, seg.seq, seg.retransmit));
                }
            }
            Event::Arrive { pkt, .. } => host.on_arrive(pkt, &mut h.ctx()),
            Event::TxDone { .. } => host.on_tx_done(&mut h.ctx()),
            Event::HostTimer { .. } => {
                seen.push(Seen::TimerFired(at));
                host.on_timer(&mut h.ctx());
            }
            other => panic!("unexpected event {other:?}"),
        }
    }
    while let Some((at, ev)) = h.events.pop() {
        if matches!(ev, Event::HostTimer { .. }) {
            seen.push(Seen::TimerPending(at));
        }
    }
    seen
}

#[test]
fn idle_senders_do_not_change_what_an_active_flow_does() {
    let alone = active_flow_trace(0);
    let crowded = active_flow_trace(64);
    // The script really exercises the timer: an RTO fired and repaired.
    assert!(alone.iter().any(|s| matches!(s, Seen::TimerFired(_))));
    assert!(alone.iter().any(|s| matches!(s, Seen::Segment(_, _, true))));
    let segments = |t: &[Seen]| t.iter().filter(|s| matches!(s, Seen::Segment(..))).count();
    assert!(segments(&alone) > 60, "60 segments plus retransmissions");
    // 64 window-blocked neighbours are invisible to the active flow: same
    // segments at the same instants, same wakeups fired and left pending.
    // (Their own RTOs sit at the initial 1 s, exactly where the active
    // flow's first wakeup already is.)
    assert_eq!(alone, crowded);
}

#[test]
fn pacer_release_is_exact_when_another_event_shares_the_instant() {
    const PACED: FlowId = FlowId(1);
    const OTHER: FlowId = FlowId(2);
    let swift = HostConfig::plain(TransportConfig::default_for(CcKind::Swift));
    let mut host = Host::new(ME, nic(), swift);
    let mut h = Harness::new();
    host.start_flow(PACED, PEER_HOST, 20 * 1460, QueryId::NONE, &mut h.ctx());
    host.start_flow(OTHER, PEER_HOST, 20 * 1460, QueryId::NONE, &mut h.ctx());
    let us = SimTime::from_micros;
    // Both initial windows of 10 leave at once. The paced flow's ACKs come
    // back 1 ms after they left: four cuts, one per RTT, take its window
    // to 0.625 MSS, and the ACK of the rest (half an RTT after the last
    // cut) lets segment 10 out alone and arms the pacer for 1.6 ms. The
    // next ACK, above the target delay, finds the pacer closed.
    let mut acks: Vec<(u64, u64, u64)> = (1..=4).map(|k| (1000 * k, k, 1000 * (k - 1))).collect();
    acks.extend([(4500, 10, 3500), (5000, 11, 4500)]);
    for (at, segs, echo) in acks {
        h.events.push(
            us(at),
            Event::Arrive {
                node: ME,
                port: PortId(0),
                pkt: ack_pkt(PACED, segs * 1460, us(echo)),
            },
        );
    }
    // Dispatch until the pacer's wakeup comes up (the RTO wakeups are
    // milliseconds out); collect what reaches the wire on the way.
    let mut wire: Vec<Packet> = Vec::new();
    let release = loop {
        let (at, ev) = h.events.pop().expect("pacer wakeup pending");
        match ev {
            Event::Arrive { node: TOR, pkt, .. } => wire.push(*pkt),
            Event::Arrive { pkt, .. } => host.on_arrive(pkt, &mut h.ctx()),
            Event::TxDone { .. } => host.on_tx_done(&mut h.ctx()),
            Event::HostTimer { .. } if at > us(5000) => break at,
            Event::HostTimer { .. } => host.on_timer(&mut h.ctx()),
            other => panic!("unexpected event {other:?}"),
        }
    };
    assert!(release > us(6000) && release < us(6200), "{release:?}");
    let sent = |wire: &[Packet], flow| wire.iter().filter(|p| p.flow == flow).count();
    assert_eq!(sent(&wire, PACED), 11, "segment 11 waits for the pacer");
    assert_eq!(sent(&wire, OTHER), 10, "its initial window, unacknowledged");
    // The clock now reads `release`, and the wakeup has not been handled.
    // Another event of the same instant goes first: the other flow's ACK,
    // 10 µs after its segment left, which lets one more segment out.
    wire.clear();
    let echo = SimTime::from_nanos(release.as_nanos() - 10_000);
    host.on_arrive(ack_pkt(OTHER, 1460, echo), &mut h.ctx());
    // That event's pump must already release the paced sender — polling
    // every sender always did — ahead of the higher-numbered flow it ACKed.
    host.on_timer(&mut h.ctx());
    while let Some((_, ev)) = h.events.pop() {
        match ev {
            Event::Arrive { node: TOR, pkt, .. } => wire.push(*pkt),
            Event::TxDone { .. } => host.on_tx_done(&mut h.ctx()),
            Event::HostTimer { .. } => {}
            other => panic!("unexpected event {other:?}"),
        }
    }
    let order: Vec<(FlowId, u64)> = wire
        .iter()
        .map(|p| (p.flow, p.data_seg().unwrap().seq))
        .collect();
    assert_eq!(order, [(PACED, 11 * 1460), (OTHER, 10 * 1460)]);
    assert_eq!(wire[0].sent_at, release, "on the wire at exactly pace_next");
    assert!(wire[0].uid < wire[1].uid, "created first, in flow order");
}

#[test]
fn full_nic_keeps_unreached_senders_ready() {
    // A NIC that holds 12 packets, five flows with 10-segment initial
    // windows: the pump stops at "NIC full" with flows still unpolled, and
    // an ACK lands while it is full. Nothing may be stranded or dropped.
    // (Debug builds also check, after every pump and re-arm here, that no
    // skipped sender had a segment and no deadline went uncovered.)
    let mut cfg = HostConfig::vertigo(TransportConfig::default_for(CcKind::Dctcp));
    cfg.nic_buffer_bytes = 12 * (1460 + 40 + FLOWINFO_OVERHEAD_BYTES) as u64;
    let mut host = Host::new(ME, nic(), cfg);
    let mut h = Harness::new();
    for f in 1..=5 {
        host.start_flow(FlowId(f), PEER_HOST, 20 * 1460, QueryId::NONE, &mut h.ctx());
    }
    // Flow 1's window is out; its ACK arrives with the NIC still full.
    host.on_arrive(ack_pkt(FlowId(1), 1460, SimTime::ZERO), &mut h.ctx());
    let wire = h.drain_tx(&mut host);
    assert_eq!(h.rec.total_drops(), 0, "the pump never overruns the NIC");
    for f in 1..=5 {
        let seqs: Vec<u64> = wire
            .iter()
            .filter(|p| p.flow == FlowId(f))
            .map(|p| p.data_seg().unwrap().seq)
            .collect();
        // Slow start: the ACK frees one slot and grows flow 1's window by one.
        let want = if f == 1 { 12 } else { 10 };
        assert_eq!(seqs.len(), want, "flow {f}");
        assert!(seqs.windows(2).all(|w| w[0] < w[1]), "flow {f}: {seqs:?}");
    }
    // Whenever room appears the lowest-numbered ready flow goes first, so
    // first transmissions are grouped by flow in ascending order.
    let firsts: Vec<u64> = wire
        .iter()
        .filter(|p| p.data_seg().unwrap().seq == 0)
        .map(|p| p.flow.0)
        .collect();
    assert_eq!(firsts, [1, 2, 3, 4, 5]);
}

/// Segments 0 and 1 of a flow are lost. Each retransmission gets a
/// counter, and each counter and fingerprint leaves when the cumulative
/// ACK passes its segment, while the flow still has data to send. Once the
/// flow is done the host holds neither.
#[test]
fn a_lossy_flows_counters_leave_at_the_ack_while_it_is_live() {
    let mut h = Harness::new();
    let mut host = vertigo_host();
    let flow = FlowId(1);
    let mss = vertigo_pkt::MAX_PAYLOAD as u64;
    host.start_flow(flow, PEER_HOST, 40 * mss, QueryId::NONE, &mut h.ctx());
    let window = h.drain_tx(&mut host);
    assert_eq!(window.len(), 10);
    let ts = window[9].sent_at;
    let resent = |wire: &[Packet]| -> Vec<(u64, u8)> {
        let seg = |p: &Packet| (p.data_seg().unwrap().seq, p.flowinfo.unwrap().retcnt);
        wire.iter().map(seg).collect()
    };
    // Three duplicate ACKs: segment 0 goes again, boosted once.
    for _ in 0..3 {
        host.on_arrive(ack_pkt(flow, 0, ts), &mut h.ctx());
    }
    assert_eq!(resent(&h.drain_tx(&mut host)), [(0, 1)]);
    assert_eq!(host.retx_entries(), 1);
    // A partial ACK repairs segment 0 and resends segment 1.
    host.on_arrive(ack_pkt(flow, mss, ts), &mut h.ctx());
    assert_eq!(resent(&h.drain_tx(&mut host)), [(mss, 1)]);
    assert_eq!(host.retx_entries(), 1, "segment 0's counter left");
    assert_eq!(host.filter_entries(), 9, "segment 0's fingerprint left");
    // The full ACK ends recovery: no counter is left, the flow is not done,
    // and what it sends next is fresh.
    host.on_arrive(ack_pkt(flow, 10 * mss, ts), &mut h.ctx());
    assert_eq!((host.retx_entries(), host.active_senders()), (0, 1));
    let mut sent = h.drain_tx(&mut host);
    let fresh = resent(&sent);
    assert!(
        !fresh.is_empty()
            && fresh
                .iter()
                .all(|&(seq, retcnt)| seq >= 10 * mss && retcnt == 0)
    );
    // ACK everything sent until the flow completes. Mid-flow the filter
    // holds no more fingerprints than the segments still unacknowledged.
    let mut acked = 10 * mss;
    while host.active_senders() > 0 {
        let end = sent
            .iter()
            .filter_map(|p| p.data_seg().map(|d| d.seq + d.payload as u64))
            .max()
            .expect("a live flow sends");
        let unacked = (end - acked).div_ceil(mss);
        assert!(host.filter_entries() as u64 <= unacked, "{unacked} unacked");
        host.on_arrive(ack_pkt(flow, end, ts), &mut h.ctx());
        acked = end;
        sent = h.drain_tx(&mut host);
    }
    assert_eq!((host.retx_entries(), host.filter_heap_bytes()), (0, 0));
}

/// Ten flows put 100 segments into the NIC at once; once they are on the
/// wire the ring keeps no more than the drained floor of its burst.
#[test]
fn a_drained_nic_gives_its_room_back() {
    let mut host = vertigo_host();
    let mut h = Harness::new();
    for f in 1..=10 {
        host.start_flow(FlowId(f), PEER_HOST, 20 * 1460, QueryId::NONE, &mut h.ctx());
    }
    assert_eq!(host.nic_queued_pkts(), 99, "one is on the wire");
    assert!(host.nic_capacity() >= 99);
    assert_eq!(h.drain_tx(&mut host).len(), 100);
    let held = host.nic_capacity() * std::mem::size_of::<Box<Packet>>();
    assert!(held <= vertigo_simcore::RING_KEEP_BYTES, "{held} B held");
}

/// The NIC holds `nic_buffer_bytes` and not a byte more: the ACK that
/// fills it exactly is queued, the next is dropped as a host-queue drop.
#[test]
fn the_nic_queues_up_to_its_byte_bound_and_drops_past_it() {
    let ack_wire = ACK_WIRE_BYTES as u64;
    let mut cfg = HostConfig::plain(TransportConfig::default_for(CcKind::Dctcp));
    cfg.nic_buffer_bytes = 3 * ack_wire;
    let mut host = Host::new(ME, nic(), cfg);
    let mut h = Harness::new();
    // Five segments of five flows arrive while the NIC's first ACK is
    // still serializing: one ACK on the wire, three fill the NIC, the
    // fifth finds it full.
    for f in 1..=5 {
        host.on_arrive(
            peer_data(FlowId(f), 0, 2, false, SimTime::ZERO),
            &mut h.ctx(),
        );
        let queued = host.nic_queued_pkts();
        assert_eq!(queued, (f - 1).min(3), "after ACK {f}");
    }
    let host_queue = vertigo_stats::DropCause::HostQueue.index();
    assert_eq!(h.rec.drops[host_queue], 1, "the fifth ACK");
    assert_eq!(h.rec.total_drops(), 1);
    let wire = h.drain_tx(&mut host);
    assert!(wire.iter().all(|p| p.wire_size as u64 == ack_wire));
    let acked: Vec<u64> = wire.iter().map(|p| p.flow.0).collect();
    assert_eq!(acked, [1, 2, 3, 4]);
}

#[test]
fn snapshot_restore_rejects_a_hostile_nic_record() {
    use vertigo_simcore::{SnapReader, SnapWriter, Snapshot};

    // Two hosts driven through the same events until the third of two
    // flows' twenty initial-window packets has left the NIC: one is in
    // flight, one is serializing, sixteen wait in the NIC queue.
    let midrun = || {
        let mut h = Harness::new();
        let mut host = vertigo_host();
        for f in 1..=2 {
            host.start_flow(FlowId(f), PEER_HOST, 20 * 1460, QueryId::NONE, &mut h.ctx());
        }
        let mut done = 0;
        while done < 3 {
            if let Some((_, Event::TxDone { .. })) = h.events.pop() {
                host.on_tx_done(&mut h.ctx());
                done += 1;
            }
        }
        (h, host)
    };
    let saved = |host: &Host| {
        let mut w = SnapWriter::new();
        host.snap_save(&mut w);
        w.into_bytes()
    };
    let restored = |bytes: &[u8]| {
        let mut host = vertigo_host();
        host.snap_restore(&mut SnapReader::new(bytes))
            .map(|()| host)
    };

    // A valid mid-run record round-trips byte for byte, and the restored
    // host puts the same packets on the wire at the same instants.
    let (mut h, mut host) = midrun();
    let (mut h2, live) = midrun();
    let ok = saved(&live);
    assert_eq!(ok, saved(&host));
    let mut host2 = restored(&ok).unwrap();
    assert_eq!(saved(&host2), ok);
    let seen = |wire: Vec<Packet>| -> Vec<(u64, u64, SimTime)> {
        let key = |p: &Packet| (p.uid, p.data_seg().unwrap().seq, p.sent_at);
        wire.iter().map(key).collect()
    };
    let wire = seen(h.drain_tx(&mut host));
    assert_eq!(
        wire.len(),
        18,
        "in flight, serializing, and the sixteen queued"
    );
    assert_eq!(wire, seen(h2.drain_tx(&mut host2)));

    // The byte counter sits behind the FIFO tag and the queued packets. A
    // smaller value enlarges the NIC buffer and underflows when the queue
    // drains past it; a larger one shrinks the buffer.
    let mut r = SnapReader::new(&ok);
    assert_eq!(r.get_u8().unwrap(), 0, "a FIFO");
    let queued = r.get_usize().unwrap();
    assert_eq!(queued, 16);
    for _ in 0..queued {
        <Box<Packet>>::restore(&mut r).unwrap();
    }
    let at = ok.len() - r.remaining();
    let held = r.get_u64().unwrap();
    assert_eq!(held, 16 * (1460 + 40 + FLOWINFO_OVERHEAD_BYTES) as u64);
    for claimed in [held - 1, held + 1, 0, u64::MAX] {
        let mut bytes = ok.clone();
        bytes[at..at + 8].copy_from_slice(&claimed.to_le_bytes());
        let err = restored(&bytes).expect_err("hostile byte counter");
        assert!(err.to_string().contains("NIC queue claims"), "{err}");
    }
    // A queue length the input cannot hold sizes no allocation.
    let mut bytes = ok.clone();
    bytes[1..9].copy_from_slice(&(1u64 << 40).to_le_bytes());
    assert!(restored(&bytes).is_err());
    for cut in 0..ok.len() {
        assert!(restored(&ok[..cut]).is_err(), "accepted {cut} bytes");
    }
}

#[test]
fn snapshot_restore_rejects_a_hostile_receiver_record() {
    use vertigo_simcore::{SnapReader, SnapWriter, Snapshot};

    // No ordering shim, so a gap on the wire is a gap at the receiver.
    let plain_host = || {
        let cfg = HostConfig::plain(TransportConfig::default_for(CcKind::Dctcp));
        Host::new(ME, nic(), cfg)
    };
    let data = |k: u64| {
        let seg = DataSeg {
            seq: k * 1460,
            payload: 1460,
            flow_bytes: 8 * 1460,
            retransmit: false,
            trimmed: false,
        };
        let (flow, query) = (FlowId(9), QueryId::NONE);
        Box::new(Packet::data(
            100 + k,
            flow,
            query,
            PEER_HOST,
            ME,
            seg,
            true,
            SimTime::ZERO,
        ))
    };
    // Segments 0 and 1, then those of `gaps` behind holes, ACKs drained.
    let midrun_with = |gaps: &[u64]| {
        let (mut h, mut host) = (Harness::new(), plain_host());
        for &k in [0, 1].iter().chain(gaps) {
            host.on_arrive(data(k), &mut h.ctx());
        }
        assert_eq!(h.drain_tx(&mut host).len(), 2 + gaps.len());
        (h, host)
    };
    let midrun = || midrun_with(&[3, 5]);
    let saved = |host: &Host| {
        let mut w = SnapWriter::new();
        host.snap_save(&mut w);
        w.into_bytes()
    };
    let restored = |bytes: &[u8]| {
        let mut host = plain_host();
        host.snap_restore(&mut SnapReader::new(bytes))
            .map(|()| host)
    };

    // A valid mid-run record round-trips byte for byte, and the restored
    // host keeps delivering in step: same ACKs, same goodput and reorder
    // deltas, the flow finished at the same packet.
    let (mut h, mut host) = midrun();
    let (mut h2, live) = midrun();
    let ok = saved(&live);
    assert_eq!(ok, saved(&host));
    let mut host2 = restored(&ok).unwrap();
    assert_eq!(saved(&host2), ok);
    assert_eq!(
        (h.rec.goodput_bytes, h.rec.transport_reorders),
        (2 * 1460, 2)
    );
    for k in [2, 7, 4, 6, 6] {
        host.on_arrive(data(k), &mut h.ctx());
        host2.on_arrive(data(k), &mut h2.ctx());
        let acks = |wire: Vec<Packet>| -> Vec<_> {
            wire.iter().map(|p| *p.ack_seg().expect("an ACK")).collect()
        };
        assert_eq!(acks(h.drain_tx(&mut host)), acks(h2.drain_tx(&mut host2)));
        assert_eq!(h.rec.goodput_bytes, h2.rec.goodput_bytes);
        assert_eq!(h.rec.transport_reorders, h2.rec.transport_reorders);
        let done = |rec: &Recorder| rec.flows[&FlowId(9)].finished.is_some();
        assert_eq!(done(&h.rec), done(&h2.rec));
    }
    assert_eq!(h2.rec.goodput_bytes, 8 * 1460);
    assert_eq!(saved(&host), saved(&host2));
    assert_eq!(host2.receiving(), (0, 1), "finished, held as its record");

    // Empty NIC, idle, no senders; then the one receiver: its flow, then
    // the receiver's own record, which is checked through the host's.
    let mut r = SnapReader::new(&ok);
    assert_eq!(r.get_u8().unwrap(), 0, "a FIFO");
    assert_eq!(r.get_usize().unwrap(), 0);
    assert_eq!(r.get_u64().unwrap(), 0);
    assert!(!r.get_bool().unwrap());
    assert_eq!(r.get_usize().unwrap(), 0);
    assert_eq!(r.get_usize().unwrap(), 1);
    assert_eq!(FlowId::restore(&mut r).unwrap(), FlowId(9));
    let recv_at = ok.len() - r.remaining();
    // Behind the size: the prefix, 2 MSS, then the count and flags of
    // segments 3, 4 and 5.
    let cum_at = recv_at + 8;
    assert_eq!(ok[cum_at..cum_at + 8], (2 * 1460u64).to_le_bytes());
    assert_eq!(
        ok[cum_at + 8..cum_at + 19],
        [3, 0, 0, 0, 0, 0, 0, 0, 1, 0, 1]
    );
    for (what, at, byte) in [
        ("a prefix off the grid", cum_at, 1),
        ("a clear last flag", cum_at + 18, 0),
        ("a flag that is not a bool", cum_at + 17, 2),
    ] {
        let mut bytes = ok.clone();
        bytes[at] = byte;
        assert!(restored(&bytes).is_err(), "accepted {what}");
    }
    // The prefix one segment on is a state `on_data` reaches: segments 4
    // and 6 early.
    let mut bytes = ok.clone();
    bytes[cum_at..cum_at + 8].copy_from_slice(&(3 * 1460u64).to_le_bytes());
    assert!(restored(&bytes).is_ok());
    // A receiver completes and leaves the live table in one step: a
    // complete one in it is refused.
    let (_, live) = midrun_with(&[]);
    let mut bytes = saved(&live);
    assert!(restored(&bytes).is_ok());
    bytes[cum_at..cum_at + 8].copy_from_slice(&(8 * 1460u64).to_le_bytes());
    let err = restored(&bytes).expect_err("a complete live receiver");
    assert!(err.to_string().contains("complete but still live"), "{err}");
    for cut in 0..ok.len() {
        assert!(restored(&ok[..cut]).is_err(), "accepted {cut} bytes");
    }
}

/// A data packet of `flow` from the peer: segment `k` of a `segs`-MSS flow.
fn peer_data(flow: FlowId, k: u64, segs: u64, ce: bool, sent_at: SimTime) -> Box<Packet> {
    let seg = DataSeg {
        seq: k * 1460,
        payload: 1460,
        flow_bytes: segs * 1460,
        retransmit: false,
        trimmed: false,
    };
    let mut pkt = Packet::data(
        200 + k,
        flow,
        QueryId::NONE,
        PEER_HOST,
        ME,
        seg,
        true,
        sent_at,
    );
    if ce {
        pkt.ecn = Ecn::CongestionExperienced;
    }
    Box::new(pkt)
}

#[test]
fn a_finished_flow_answers_late_segments_as_its_full_receiver_did() {
    use vertigo_transport::FlowReceiver;
    const FLOW: FlowId = FlowId(9);
    let cfg = HostConfig::plain(TransportConfig::default_for(CcKind::Dctcp));
    let mut host = Host::new(ME, nic(), cfg);
    let mut h = Harness::new();
    // The full receiver, fed the same segments, says what each ACK is.
    let mut full = FlowReceiver::new(FLOW, 2 * 1460);
    let us = SimTime::from_micros;
    let mut acks = |host: &mut Host, h: &mut Harness, pkt: Box<Packet>| {
        let seg = *pkt.data_seg().unwrap();
        let (now, ce, sent_at) = (h.events.now(), pkt.ecn.is_ce(), pkt.sent_at);
        let want = if pkt.is_trimmed() {
            full.on_trim(ce, sent_at)
        } else {
            full.on_data(now, &seg, ce, sent_at)
        };
        host.on_arrive(pkt, &mut h.ctx());
        let wire = h.drain_tx(host);
        assert_eq!(wire.len(), 1, "one ACK per arrival");
        assert_eq!(*wire[0].ack_seg().expect("an ACK"), want);
        assert_eq!((wire[0].dst, wire[0].flow), (PEER_HOST, FLOW));
    };
    // Out of order, so the flow has a reorder on its books: it finishes.
    acks(&mut host, &mut h, peer_data(FLOW, 1, 2, false, us(1)));
    acks(&mut host, &mut h, peer_data(FLOW, 0, 2, false, us(2)));
    let finished = h.rec.flows[&FLOW].finished.expect("complete");
    let books = |h: &Harness| (h.rec.goodput_bytes, h.rec.transport_reorders);
    assert_eq!(books(&h), (2 * 1460, 1));
    assert_eq!(host.receiving(), (0, 1));
    // A duplicate of its first segment (CE-marked), then a trimmed stub of
    // its second: each gets the full receiver's ACK (cumulative through the
    // flow), and neither adds goodput or finishes it again.
    acks(&mut host, &mut h, peer_data(FLOW, 0, 2, true, us(3)));
    let mut stub = peer_data(FLOW, 1, 2, false, us(4));
    stub.trim();
    acks(&mut host, &mut h, stub);
    assert_eq!(books(&h), (2 * 1460, 1));
    assert_eq!(h.rec.flows[&FLOW].finished, Some(finished));
    assert_eq!(h.rec.data_delivered, 3, "the stub is no delivery");
    assert_eq!(host.receiving(), (0, 1), "one finished entry, no receiver");
}

/// The byte span of every record in a host record's three flow tables.
struct Tables {
    senders: Vec<std::ops::Range<usize>>,
    receivers: Vec<std::ops::Range<usize>>,
    finished: Vec<std::ops::Range<usize>>,
}

fn tables(bytes: &[u8], transport: TransportConfig) -> Tables {
    use vertigo_simcore::{SnapReader, Snapshot};
    use vertigo_transport::{FlowReceiver, FlowSender};
    let mut r = SnapReader::new(bytes);
    let at = |r: &SnapReader| bytes.len() - r.remaining();
    assert_eq!(r.get_u8().unwrap(), 0, "a FIFO NIC");
    for _ in 0..r.get_usize().unwrap() {
        <Box<Packet>>::restore(&mut r).unwrap();
    }
    r.get_u64().unwrap();
    r.get_bool().unwrap();
    let span = |r: &mut SnapReader, read: &dyn Fn(&mut SnapReader, FlowId)| {
        let n = r.get_usize().unwrap();
        (0..n)
            .map(|_| {
                let start = at(r);
                let flow = FlowId::restore(r).unwrap();
                read(r, flow);
                start..at(r)
            })
            .collect::<Vec<_>>()
    };
    let senders = span(&mut r, &|r, flow| {
        NodeId::restore(r).unwrap();
        QueryId::restore(r).unwrap();
        FlowSender::snap_restore(flow, transport, r).unwrap();
    });
    let receivers = span(&mut r, &|r, flow| {
        FlowReceiver::snap_restore(flow, r).unwrap();
    });
    let finished = span(&mut r, &|_, _| {});
    Tables {
        senders,
        receivers,
        finished,
    }
}

/// `bytes` with one table's records replaced by the picks `order` makes
/// of them (as many as there were).
fn reordered(bytes: &[u8], records: &[std::ops::Range<usize>], order: &[usize]) -> Vec<u8> {
    let (start, end) = (records[0].start, records[records.len() - 1].end);
    let mut out = bytes[..start].to_vec();
    for &i in order {
        out.extend_from_slice(&bytes[records[i].clone()]);
    }
    out.extend_from_slice(&bytes[end..]);
    out
}

#[test]
fn snapshot_restore_refuses_flow_tables_its_writer_cannot_produce() {
    use vertigo_simcore::{SnapReader, SnapWriter};
    let transport = TransportConfig::default_for(CcKind::Dctcp);
    let plain_host = || {
        let cfg = HostConfig::plain(transport);
        Host::new(ME, nic(), cfg)
    };
    // Two senders, two flows half received, two received to completion.
    let (mut h, mut host) = (Harness::new(), plain_host());
    for f in [1, 2] {
        host.start_flow(FlowId(f), PEER_HOST, 20 * 1460, QueryId::NONE, &mut h.ctx());
    }
    for (f, segs) in [
        (20, [0].as_slice()),
        (21, &[1]),
        (30, &[0, 1]),
        (31, &[1, 0]),
    ] {
        for &k in segs {
            let pkt = peer_data(FlowId(f), k, 2, false, SimTime::ZERO);
            host.on_arrive(pkt, &mut h.ctx());
        }
    }
    h.drain_tx(&mut host);
    assert_eq!(host.receiving(), (2, 2));
    let saved = |host: &Host| {
        let mut w = SnapWriter::new();
        host.snap_save(&mut w);
        w.into_bytes()
    };
    let restored = |bytes: &[u8]| {
        let mut host = plain_host();
        host.snap_restore(&mut SnapReader::new(bytes))
            .map(|()| host)
    };
    let ok = saved(&host);
    let mut back = restored(&ok).unwrap();
    assert_eq!(saved(&back), ok, "byte for byte");
    assert_eq!(back.receiving(), (2, 2));
    // The restored finished record answers a late copy as the live one does.
    let late = |host: &mut Host| {
        let mut h = Harness::new();
        host.on_arrive(
            peer_data(FlowId(31), 0, 2, false, SimTime::ZERO),
            &mut h.ctx(),
        );
        let wire = h.drain_tx(host);
        (*wire[0].ack_seg().unwrap(), h.rec.goodput_bytes)
    };
    assert_eq!(late(&mut back), late(&mut host));

    let t = tables(&ok, transport);
    assert_eq!(
        (t.senders.len(), t.receivers.len(), t.finished.len()),
        (2, 2, 2)
    );
    // A receiver record is its flow and the receiver's record: size,
    // prefix, flag count, a byte per segment that arrived early or lies
    // between the prefix and one that did, and reorder count. A finished
    // record is its flow.
    let lengths = |records: &[std::ops::Range<usize>]| -> Vec<usize> {
        records.iter().map(|r| r.len()).collect()
    };
    assert_eq!(lengths(&t.receivers), [40, 40 + 1]);
    assert_eq!(lengths(&t.finished), [8, 8]);
    let count_at = |records: &[std::ops::Range<usize>]| records[0].start - 8;
    let with_count = |records: &[std::ops::Range<usize>], n: u64| {
        let mut bytes = ok.clone();
        let at = count_at(records);
        bytes[at..at + 8].copy_from_slice(&n.to_le_bytes());
        bytes
    };
    // Flow 30's finished record under flow 20's id, which is live.
    let mut live_and_finished = ok.clone();
    let at = t.finished[0].start;
    live_and_finished[at..at + 8].copy_from_slice(&20u64.to_le_bytes());
    // Flow 31's record under flow 32's id restores: not every id is live.
    let mut other = ok.clone();
    let at = t.finished[1].start;
    other[at..at + 8].copy_from_slice(&32u64.to_le_bytes());
    assert!(restored(&other).is_ok());
    // Behind the finished flows, no marking and no ordering record, then
    // the wakeup: dropping it leaves the senders' RTOs uncovered.
    let wake_at = t.finished[1].end + 2;
    assert_eq!(ok[wake_at], 1, "a wakeup is scheduled");
    let unwoken = [&ok[..wake_at], &[0], &ok[wake_at + 9..]].concat();
    let err = restored(&unwoken).expect_err("bytes in flight, no wakeup");
    assert!(err.to_string().contains("no wakeup"), "{err}");
    for (what, bytes) in [
        ("senders descend", reordered(&ok, &t.senders, &[1, 0])),
        ("sender repeated", reordered(&ok, &t.senders, &[0, 0])),
        ("receivers descend", reordered(&ok, &t.receivers, &[1, 0])),
        ("receiver repeated", reordered(&ok, &t.receivers, &[1, 1])),
        (
            "finished flows descend",
            reordered(&ok, &t.finished, &[1, 0]),
        ),
        (
            "finished flow repeated",
            reordered(&ok, &t.finished, &[0, 0]),
        ),
        ("finished flow also live", live_and_finished),
        (
            "finished count past the input",
            with_count(&t.finished, 1 << 40),
        ),
        ("finished count one short", with_count(&t.finished, 1)),
        ("finished count one over", with_count(&t.finished, 3)),
    ] {
        assert!(restored(&bytes).is_err(), "accepted: {what}");
    }
    for cut in 0..ok.len() {
        assert!(restored(&ok[..cut]).is_err(), "accepted {cut} bytes");
    }
}

/// Two Vertigo hosts, `ME` and `PEER_HOST`, whose NICs face one ToR that
/// hands every packet straight to its destination.
struct Pair {
    h: Harness,
    hosts: [Host; 2],
}

impl Pair {
    fn new() -> Self {
        let cfg = HostConfig::vertigo(TransportConfig::default_for(CcKind::Dctcp));
        Pair {
            h: Harness::new(),
            hosts: [ME, PEER_HOST].map(|id| Host::new(id, nic(), cfg.clone())),
        }
    }

    fn host(&mut self, id: NodeId) -> (&mut Host, Ctx<'_>) {
        let i = usize::from(id != ME);
        (&mut self.hosts[i], self.h.ctx())
    }

    /// Runs every event to quiescence.
    fn run(&mut self) {
        while let Some((_, ev)) = self.h.events.pop() {
            match ev {
                Event::Arrive { pkt, .. } => {
                    let (host, mut ctx) = self.host(pkt.dst);
                    host.on_arrive(pkt, &mut ctx);
                }
                Event::TxDone { node, .. } => {
                    let (host, mut ctx) = self.host(node);
                    host.on_tx_done(&mut ctx);
                }
                Event::HostTimer { node } => {
                    let (host, mut ctx) = self.host(node);
                    host.on_timer(&mut ctx);
                }
                other => panic!("unexpected event {other:?}"),
            }
        }
    }
}

#[test]
fn a_host_whose_flows_completed_holds_no_state_for_them() {
    const N: u64 = 6;
    let mut p = Pair::new();
    for f in 1..=N {
        let (host, mut ctx) = p.host(ME);
        host.start_flow(FlowId(f), PEER_HOST, f * 10 * 1460, QueryId::NONE, &mut ctx);
    }
    assert_eq!((p.hosts[0].active_senders(), p.h.rec.flows.len()), (6, 6));
    p.run();
    // No sender value, no receiver value and no record: each flow left
    // its finished entry at the receiver and its FCT sample.
    assert_eq!(p.hosts[0].active_senders(), 0);
    assert_eq!(p.hosts[1].receiving(), (0, N as usize));
    assert!(p.h.rec.flows.is_empty());
    assert_eq!((p.h.rec.flows_started(), p.h.rec.flows_completed()), (N, N));
    assert_eq!(p.h.rec.goodput_bytes, (1..=N).map(|f| f * 10 * 1460).sum());
    assert_eq!(p.h.rec.folded.tenants[&0].fct_mice.len(), N as usize);
}

/// No sender cuts a segment past its flow's last byte, and a host relies
/// on that: a finished flow's ACK is the flow's size.
#[cfg(debug_assertions)]
#[test]
#[should_panic(expected = "outside a flow")]
fn a_segment_past_its_flow_trips_the_delivery_bound() {
    const FLOW: FlowId = FlowId(1);
    let mut p = Pair::new();
    let (host, mut ctx) = p.host(ME);
    host.start_flow(FLOW, PEER_HOST, 3 * 1460, QueryId::NONE, &mut ctx);
    p.run();
    assert_eq!(p.hosts[1].receiving(), (0, 1));
    let seg = DataSeg {
        seq: 4 * 1460,
        payload: 1460,
        flow_bytes: 3 * 1460,
        retransmit: false,
        trimmed: false,
    };
    let late = Packet::data(
        77,
        FLOW,
        QueryId::NONE,
        ME,
        PEER_HOST,
        seg,
        true,
        SimTime::ZERO,
    );
    let (host, mut ctx) = p.host(PEER_HOST);
    host.on_arrive(Box::new(late), &mut ctx);
}

/// Every segment a sender cuts starts on the `MAX_PAYLOAD` grid and is the
/// rest of its flow up to that size, and a receiver knows a segment by its
/// index: a live flow's segment cut elsewhere trips the same bound.
#[cfg(debug_assertions)]
#[test]
#[should_panic(expected = "off the grid")]
fn an_off_grid_segment_trips_the_delivery_bound() {
    let seg = DataSeg {
        seq: 1000,
        payload: 1460,
        flow_bytes: 3 * 1460,
        retransmit: false,
        trimmed: false,
    };
    let pkt = Packet::data(
        77,
        FlowId(1),
        QueryId::NONE,
        ME,
        PEER_HOST,
        seg,
        true,
        SimTime::ZERO,
    );
    let mut p = Pair::new();
    let (host, mut ctx) = p.host(PEER_HOST);
    host.on_arrive(Box::new(pkt), &mut ctx);
}
