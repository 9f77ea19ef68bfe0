//! Unit-level behavior tests for the switch: victim selection, deflection
//! targeting, forced-insert drops, ECN marking, and the TTL guard —
//! exercised on a hand-built switch with inspectable ports.

use vertigo_netsim::{
    BufferPolicy, Ctx, Event, EventSink, LinkParams, Port, PortQueue, QueueDiscipline, RouteTable,
    Switch, SwitchConfig,
};
use vertigo_pkt::{DataSeg, FlowId, FlowInfo, NodeId, Packet, PortId, QueryId, MAX_HOPS};
use vertigo_simcore::{EventQueue, SimRng, SimTime};
use vertigo_stats::{DropCause, Recorder, TraceFilter, TraceKind};

const HOST: NodeId = NodeId(0);
const SW: NodeId = NodeId(10);

/// A 4-port switch: port 0 faces the destination host, ports 1–3 face
/// other switches. All routes to HOST use port 0.
fn mk_switch(cfg: SwitchConfig) -> Switch {
    let ports: Vec<Port> = (0..4)
        .map(|i| Port {
            peer: if i == 0 { HOST } else { NodeId(20 + i) },
            peer_port: PortId(0),
            link: LinkParams::gbps(10, 500),
            queue: match cfg.buffer.queue_discipline() {
                QueueDiscipline::Fifo => PortQueue::fifo(),
                QueueDiscipline::Prio => PortQueue::prio(cfg.boost_shift),
                QueueDiscipline::PrioEscalating => PortQueue::prio_escalating(cfg.boost_shift),
            },
            busy: false,
            host_facing: i == 0,
        })
        .collect();
    // One destination (HOST, id 0): reached via port 0. The single-switch
    // table has one row, so this switch is index 0.
    let routes = std::sync::Arc::new(RouteTable::from_nested(&[vec![vec![0u16]]]));
    Switch::new(SW, cfg, ports, routes, 0, 0xBEEF)
}

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
            rng: SimRng::new(7),
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
}

fn pkt(uid: u64, rfs: u32) -> Box<Packet> {
    let mut p = Packet::data(
        uid,
        FlowId(uid),
        QueryId::NONE,
        NodeId(99),
        HOST,
        DataSeg {
            seq: 0,
            payload: 1460,
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
        first: true,
    });
    Box::new(p)
}

/// Packets needed to fill one port queue of `cap` bytes (wire 1508 each).
fn fill_count(cap: u64) -> u64 {
    cap / 1508
}

fn small(cfg_base: SwitchConfig) -> SwitchConfig {
    SwitchConfig {
        port_buffer_bytes: 8 * 1508, // 8 packets
        ecn_threshold_pkts: 0,       // isolate from ECN in these tests
        ..cfg_base
    }
}

#[test]
fn drop_tail_drops_exactly_overflow() {
    let mut sw = mk_switch(small(SwitchConfig::ecmp()));
    let mut h = Harness::new();
    for i in 0..12u64 {
        sw.on_arrive(PortId(1), pkt(i, 10_000), &mut h.ctx());
    }
    // Port 0 is transmitting one packet and holds 8 minus-in-flight; the
    // rest dropped. (First arrival starts TX immediately, freeing a slot.)
    let dropped = h.rec.drops[DropCause::QueueFull.index()];
    assert_eq!(dropped + 8 + 1, 12, "queued 8 + 1 in flight, rest dropped");
    assert_eq!(h.rec.deflections, 0);
}

#[test]
fn dibs_deflects_overflow_to_other_ports() {
    let mut sw = mk_switch(small(SwitchConfig::dibs()));
    let mut h = Harness::new();
    for i in 0..14u64 {
        sw.on_arrive(PortId(1), pkt(i, 10_000), &mut h.ctx());
    }
    assert!(h.rec.deflections >= 5, "deflections {}", h.rec.deflections);
    assert_eq!(h.rec.total_drops(), 0, "plenty of spare ports: no drops");
    // Deflected packets sit on (or were transmitted by) non-host ports.
    let spare: usize = (1..4).map(|i| sw.port(PortId(i)).queue.len()).sum();
    let host_q = sw.port(PortId(0)).queue.len();
    assert!(host_q <= 8);
    // 14 in, 2 in flight (port0 + one deflection target), rest queued.
    assert!(spare + host_q + h.rec.deflections as usize >= 13);
}

#[test]
fn dibs_respects_deflection_budget() {
    let mut cfg = small(SwitchConfig::dibs());
    cfg.buffer = BufferPolicy::Dibs {
        max_deflections: 0, // exhausted budget
    };
    let mut sw = mk_switch(cfg);
    let mut h = Harness::new();
    for i in 0..12u64 {
        sw.on_arrive(PortId(1), pkt(i, 10_000), &mut h.ctx());
    }
    assert_eq!(h.rec.deflections, 0);
    assert!(h.rec.drops[DropCause::DeflectionFull.index()] > 0);
}

#[test]
fn vertigo_victimizes_largest_rfs_not_arrival() {
    let mut sw = mk_switch(small(SwitchConfig::vertigo()));
    let mut h = Harness::new();
    // Fill the host port with large-RFS packets (one goes into flight).
    for i in 0..9u64 {
        sw.on_arrive(PortId(1), pkt(i, 20_000), &mut h.ctx());
    }
    assert_eq!(sw.port(PortId(0)).queue.len(), 8);
    assert_eq!(sw.port(PortId(0)).queue.worst_rank(), Some(20_000));
    // A small-RFS packet arrives at the full queue: it must be admitted
    // and a 20 000-rank resident deflected instead (paper Fig. 2).
    sw.on_arrive(PortId(1), pkt(100, 3_000), &mut h.ctx());
    assert_eq!(h.rec.deflections, 1);
    assert_eq!(h.rec.total_drops(), 0);
    let q = &sw.port(PortId(0)).queue;
    assert_eq!(q.len(), 8, "queue stays full");
    // The small packet is now the best-ranked resident.
    let ranks: Vec<u64> = (1..4)
        .filter_map(|i| sw.port(PortId(i)).queue.worst_rank())
        .collect();
    assert!(
        ranks.contains(&20_000) || h.rec.deflections > 0,
        "a large packet went to a spare port: {ranks:?}"
    );
}

#[test]
fn vertigo_deflects_arrival_when_it_is_largest() {
    let mut sw = mk_switch(small(SwitchConfig::vertigo()));
    let mut h = Harness::new();
    for i in 0..9u64 {
        sw.on_arrive(PortId(1), pkt(i, 3_000), &mut h.ctx());
    }
    // Arriving elephant packet outranks everything: it is the victim.
    sw.on_arrive(PortId(1), pkt(100, 1_000_000), &mut h.ctx());
    assert_eq!(h.rec.deflections, 1);
    assert_eq!(
        sw.port(PortId(0)).queue.worst_rank(),
        Some(3_000),
        "residents keep their buffer space"
    );
}

#[test]
fn vertigo_drops_largest_when_network_congested() {
    // Tiny deflection power covering all ports, all full => forced insert
    // must drop the largest-RFS packet.
    let mut cfg = small(SwitchConfig::vertigo());
    cfg.buffer = BufferPolicy::Vertigo {
        deflect_power: 3,
        scheduling: true,
        deflection: true,
    };
    let mut sw = mk_switch(cfg);
    let mut h = Harness::new();
    // Saturate every queue: 9 to the host port (8 queued + 1 in flight),
    // then overflow repeatedly so deflections fill ports 1-3 (8 each +
    // 1 in flight each).
    for i in 0..200u64 {
        sw.on_arrive(PortId(1), pkt(i, 50_000), &mut h.ctx());
    }
    assert!(
        h.rec.drops[DropCause::DeflectionFull.index()] > 0,
        "fully congested switch must drop"
    );
    // Queues never exceed their byte bound.
    for i in 0..4 {
        assert!(sw.port(PortId(i)).queue.bytes() <= 8 * 1508);
    }
}

#[test]
fn no_deflection_ablation_drops_instead() {
    let mut cfg = small(SwitchConfig::vertigo());
    cfg.buffer = BufferPolicy::Vertigo {
        deflect_power: 2,
        scheduling: true,
        deflection: false,
    };
    let mut sw = mk_switch(cfg);
    let mut h = Harness::new();
    for i in 0..12u64 {
        sw.on_arrive(PortId(1), pkt(i, 10_000), &mut h.ctx());
    }
    assert_eq!(h.rec.deflections, 0);
    assert!(h.rec.drops[DropCause::QueueFull.index()] > 0);
}

#[test]
fn ecn_marks_above_threshold() {
    let mut cfg = small(SwitchConfig::ecmp());
    cfg.ecn_threshold_pkts = 4;
    let mut sw = mk_switch(cfg);
    let mut h = Harness::new();
    for i in 0..8u64 {
        sw.on_arrive(PortId(1), pkt(i, 10_000), &mut h.ctx());
    }
    // Packets enqueued while queue length >= 4 get CE: arrivals 6..8
    // (queue sizes 0..7 as each arrival sees len after the in-flight pop).
    assert!(
        (2..=4).contains(&h.rec.ecn_marks),
        "ecn marks {}",
        h.rec.ecn_marks
    );
}

#[test]
fn ttl_guard_drops_loopers() {
    let mut sw = mk_switch(small(SwitchConfig::ecmp()));
    let mut h = Harness::new();
    let mut p = pkt(1, 10_000);
    p.hops = MAX_HOPS; // one more hop exceeds the budget
    sw.on_arrive(PortId(1), p, &mut h.ctx());
    assert_eq!(h.rec.drops[DropCause::TtlExceeded.index()], 1);
    assert_eq!(sw.port(PortId(0)).queue.len(), 0);
}

#[test]
fn acks_survive_vertigo_overflow() {
    // An ACK (rank 0) arriving at a full queue must never be the victim.
    let mut sw = mk_switch(small(SwitchConfig::vertigo()));
    let mut h = Harness::new();
    for i in 0..9u64 {
        sw.on_arrive(PortId(1), pkt(i, 20_000), &mut h.ctx());
    }
    let ack = Box::new(Packet::ack(
        500,
        FlowId(500),
        QueryId::NONE,
        NodeId(99),
        HOST,
        vertigo_pkt::AckSeg {
            cum_ack: 0,
            ecn_echo: false,
            ts_echo: SimTime::ZERO,
        },
        SimTime::ZERO,
    ));
    sw.on_arrive(PortId(1), ack, &mut h.ctx());
    // The ACK displaced a data packet, not itself.
    assert_eq!(h.rec.deflections, 1);
    assert_eq!(h.rec.total_drops(), 0);
    let q = &sw.port(PortId(0)).queue;
    assert!(q.len() >= 8);
}

/// What `Ctx::drop_pkt` and `Switch::deflect_to` own, whatever policy calls
/// them: every packet an overflow displaces is counted once as a drop or
/// once as a deflection, leaves exactly one record of that kind behind,
/// and no packet is lost from the books on the way.
#[test]
fn every_policy_accounts_each_displaced_packet_once() {
    let no_deflection = BufferPolicy::Vertigo {
        deflect_power: 2,
        scheduling: true,
        deflection: false,
    };
    // (policy, deflects before it drops, may force a victim into a full queue)
    let table = [
        (SwitchConfig::ecmp(), false, false),
        (SwitchConfig::ndp_trim(), false, false),
        (SwitchConfig::dibs(), true, false),
        (SwitchConfig::vertigo(), true, true),
        (
            SwitchConfig {
                buffer: no_deflection,
                ..SwitchConfig::vertigo()
            },
            false,
            false,
        ),
        (SwitchConfig::pabo(), true, false),
        (SwitchConfig::hybrid(), true, false),
        (SwitchConfig::bounded(), true, false),
    ];
    for (cfg, deflects, forces) in table {
        let cfg = small(cfg);
        let what = format!("{:?}", cfg.buffer);
        let mut sw = mk_switch(cfg);
        let mut h = Harness::new();
        h.rec.trace.arm(TraceFilter::default(), 32, 1 << 12);
        let mut seen = 0;
        // No `TxDone` is played, so every port holds what it sent (one
        // packet, `busy`) plus its queue: 36 packets fit, 60 are offered.
        for offered in 1..=60u64 {
            let p = pkt(offered, 10_000);
            let fit = sw.port(PortId(0)).queue.fits(&p, cfg.port_buffer_bytes);
            let before = (h.rec.deflections, h.rec.total_drops());
            sw.on_arrive(PortId(1), p, &mut h.ctx());
            let deflected = h.rec.deflections - before.0;
            let dropped = h.rec.total_drops() - before.1;
            if fit {
                assert_eq!((deflected, dropped), (0, 0), "{what}: #{offered} fit");
            } else if forces {
                // One victim, deflected; forced into a full queue, that
                // queue drops its worst packet (possibly the victim).
                assert_eq!(deflected, 1, "{what}: #{offered}");
                assert!(dropped <= 1, "{what}: #{offered} dropped {dropped}");
            } else {
                assert_eq!(deflected + dropped, 1, "{what}: #{offered}");
            }
            let held: u64 = (0..4)
                .map(|i| sw.port(PortId(i)))
                .map(|port| port.queue.len() as u64 + u64::from(port.busy))
                .sum();
            assert_eq!(offered, held + h.rec.total_drops(), "{what}: #{offered}");
            let records = h.rec.trace.records();
            let of = |kind: TraceKind| {
                let new = records[seen..].iter();
                new.filter(|r| r.kind() == Some(kind)).count() as u64
            };
            assert_eq!(of(TraceKind::Deflect), deflected, "{what}: #{offered}");
            assert_eq!(of(TraceKind::Drop), dropped, "{what}: #{offered}");
            let forced = records[seen..]
                .iter()
                .any(|r| r.kind() == Some(TraceKind::Deflect) && r.flags & 1 == 1);
            assert_eq!(forced, deflected == 1 && dropped == 1, "{what}");
            seen = records.len();
        }
        assert_eq!(h.rec.deflections > 0, deflects, "{what}");
        assert!(h.rec.total_drops() > 0, "{what}: 60 offered, 36 fit");
    }
}

/// `deflect_to`'s budget assertion covers the policies that keep no count
/// of their own: the hybrid deflects only arrivals, so a packet cannot
/// have been deflected more often than the hop guard lets it arrive.
/// Vertigo with scheduling is exempt (a queued victim can be displaced
/// again without a hop), and the same packet goes through.
#[cfg(debug_assertions)]
#[test]
#[should_panic(expected = "deflected 65 times under Hybrid")]
fn audit_catches_a_deflection_past_the_hop_guard() {
    for cfg in [SwitchConfig::vertigo(), SwitchConfig::hybrid()] {
        let mut sw = mk_switch(small(cfg));
        let mut h = Harness::new();
        for i in 0..9u64 {
            sw.on_arrive(PortId(1), pkt(i, 10_000), &mut h.ctx());
        }
        let mut p = pkt(100, 1_000_000);
        p.deflections = MAX_HOPS;
        sw.on_arrive(PortId(1), p, &mut h.ctx());
        assert_eq!(h.rec.deflections, 1, "{:?}", cfg.buffer);
    }
}

#[test]
fn fill_count_helper_is_consistent() {
    assert_eq!(fill_count(8 * 1508), 8);
}
