//! Policy conformance: table-driven assertions that the forwarding and
//! deflection policies do exactly what their papers specify — driven off
//! the provenance event stream, not aggregate counters, so a policy that
//! gets the right *count* for the wrong *reason* still fails.

use vertigo_netsim::{
    BufferPolicy, Ctx, Event, EventSink, ForwardPolicy, LinkParams, Port, PortQueue,
    QueueDiscipline, RouteTable, Switch, SwitchConfig,
};
use vertigo_pkt::{DataSeg, FlowId, FlowInfo, NodeId, Packet, PortId, QueryId};
use vertigo_simcore::{EventQueue, SimRng, SimTime};
use vertigo_stats::{Recorder, TraceFilter, TraceKind, TraceRecord};

const HOST: NodeId = NodeId(0);
const SW: NodeId = NodeId(10);

/// A 4-port switch with an armed trace sink: port 0 faces the
/// destination host, port `i > 0` switch `NodeId(20 + i)`; `routes` lists
/// the candidate ports for HOST.
fn mk_switch(cfg: SwitchConfig, routes: Vec<u16>) -> Switch {
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
    let routes = std::sync::Arc::new(RouteTable::from_nested(&[vec![routes]]));
    Switch::new(SW, cfg, ports, routes, 0, 0xBEEF)
}

struct Harness {
    events: EventQueue<Event>,
    rec: Recorder,
    rng: SimRng,
}

impl Harness {
    fn new() -> Self {
        let mut rec = Recorder::new();
        rec.trace.arm(TraceFilter::default(), 32, 4096);
        Harness {
            events: EventQueue::new(),
            rec,
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

    fn events_of(&self, kind: TraceKind) -> Vec<TraceRecord> {
        self.rec
            .trace
            .records()
            .into_iter()
            .filter(|r| r.kind() == Some(kind))
            .collect()
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

fn small(cfg_base: SwitchConfig) -> SwitchConfig {
    SwitchConfig {
        port_buffer_bytes: 8 * 1508,
        ecn_threshold_pkts: 0,
        ..cfg_base
    }
}

const VICTIM_ARRIVING: u8 = 0b10;

/// Vertigo victim selection (paper Fig. 2): when the arriving packet and
/// the queue tail compete for buffer space, the largest-RFS packet
/// loses — whichever side of the queue it is on.
#[test]
fn vertigo_victim_is_largest_rfs() {
    struct Case {
        name: &'static str,
        resident_rfs: u32,
        arriving_rfs: u32,
        expect_arriving_victim: bool,
    }
    let cases = [
        Case {
            name: "small arrival displaces large resident",
            resident_rfs: 20_000,
            arriving_rfs: 3_000,
            expect_arriving_victim: false,
        },
        Case {
            name: "large arrival is its own victim",
            resident_rfs: 3_000,
            arriving_rfs: 1_000_000,
            expect_arriving_victim: true,
        },
    ];
    for case in cases {
        let mut sw = mk_switch(small(SwitchConfig::vertigo()), vec![0]);
        let mut h = Harness::new();
        // 9 residents: one goes into flight, 8 fill the host-port queue.
        for i in 0..9u64 {
            sw.on_arrive(PortId(1), pkt(i, case.resident_rfs), &mut h.ctx());
        }
        sw.on_arrive(PortId(1), pkt(100, case.arriving_rfs), &mut h.ctx());
        let deflects = h.events_of(TraceKind::Deflect);
        assert_eq!(deflects.len(), 1, "{}: exactly one deflection", case.name);
        let d = &deflects[0];
        assert_eq!(
            d.flags & VICTIM_ARRIVING != 0,
            case.expect_arriving_victim,
            "{}: wrong victim side",
            case.name
        );
        if case.expect_arriving_victim {
            assert_eq!(d.uid, 100, "{}: victim must be the arrival", case.name);
        } else {
            assert_ne!(d.uid, 100, "{}: victim must be a resident", case.name);
        }
        let worst = case.resident_rfs.max(case.arriving_rfs) as u64;
        assert_eq!(
            d.a, worst,
            "{}: victim must carry the largest RFS",
            case.name
        );
        assert_ne!(
            d.port, 0,
            "{}: deflected away from the full port",
            case.name
        );
    }
}

/// DIBS (its paper, §3): deflection is *detour-on-arrival* — the packet
/// that just arrived bounces to a random other port; residents are never
/// touched.
#[test]
fn dibs_always_deflects_the_arriving_packet() {
    let mut sw = mk_switch(small(SwitchConfig::dibs()), vec![0]);
    let mut h = Harness::new();
    for i in 0..14u64 {
        sw.on_arrive(PortId(1), pkt(i, 10_000), &mut h.ctx());
    }
    let deflects = h.events_of(TraceKind::Deflect);
    assert!(!deflects.is_empty(), "overflow must deflect");
    let drops = h.events_of(TraceKind::Drop);
    for d in &deflects {
        assert_ne!(d.flags & VICTIM_ARRIVING, 0, "DIBS must bounce the arrival");
        assert_ne!(d.port, 0, "deflected off the full host port");
        // A deflected packet stayed in the network: it must not also
        // appear as a drop.
        assert!(
            !drops.iter().any(|r| r.uid == d.uid),
            "uid {} was deflected and then dropped",
            d.uid
        );
    }
}

/// DRILL (its paper, §3: `d=2, m=1`): each decision samples two random
/// candidate ports, compares them with the one remembered port, and the
/// winner becomes the new remembered port. The event stream exposes the
/// memory: decision *i+1*'s remembered port must equal decision *i*'s
/// chosen port.
#[test]
fn drill_remembered_port_follows_choices() {
    let mut sw = mk_switch(small(SwitchConfig::drill()), vec![1, 2, 3]);
    let mut h = Harness::new();
    for i in 0..40u64 {
        sw.on_arrive(PortId(0), pkt(i, 10_000), &mut h.ctx());
    }
    let decisions = h.events_of(TraceKind::FwdDecision);
    assert_eq!(decisions.len(), 40);
    let mut prev_chosen: Option<u16> = None;
    for (i, d) in decisions.iter().enumerate() {
        assert_eq!(d.a, 2, "decision {i}: policy code must be DRILL");
        assert_eq!(d.b & 0xFFFF_FFFF, 3, "decision {i}: three route candidates");
        let remembered = (d.b >> 32).checked_sub(1).map(|m| m as u16);
        assert_eq!(
            remembered, prev_chosen,
            "decision {i}: m=1 memory must hold the previous winner"
        );
        if d.flags & 1 != 0 {
            assert_eq!(
                remembered,
                Some(d.port),
                "decision {i}: flag says the remembered port won"
            );
        }
        assert!((1..=3).contains(&d.port), "decision {i}: chose a candidate");
        prev_chosen = Some(d.port);
    }
}

/// ECMP decisions are flow-hash-stable: one flow, one port, every time.
#[test]
fn ecmp_decisions_are_flow_stable() {
    let mut sw = mk_switch(small(SwitchConfig::ecmp()), vec![1, 2, 3]);
    let mut h = Harness::new();
    for _ in 0..10 {
        let mut p = pkt(7, 10_000);
        p.flow = FlowId(42);
        sw.on_arrive(PortId(0), p, &mut h.ctx());
    }
    let decisions = h.events_of(TraceKind::FwdDecision);
    assert_eq!(decisions.len(), 10);
    let first = decisions[0].port;
    for d in &decisions {
        assert_eq!(d.a, 1, "policy code must be ECMP");
        assert_eq!(d.port, first, "one flow must stick to one port");
    }
}

/// Vertigo forwarding is power-of-n, not hash-pinned: with several
/// candidates and asymmetric queue depths it must sometimes disagree
/// with a fixed choice (sanity check that the policy code and candidate
/// count reach the stream).
#[test]
fn vertigo_forwarding_records_power_of_n() {
    let cfg = SwitchConfig {
        forward: ForwardPolicy::PowerOfN { n: 2 },
        ..small(SwitchConfig::vertigo())
    };
    let mut sw = mk_switch(cfg, vec![1, 2, 3]);
    let mut h = Harness::new();
    for i in 0..20u64 {
        sw.on_arrive(PortId(0), pkt(i, 10_000), &mut h.ctx());
    }
    let decisions = h.events_of(TraceKind::FwdDecision);
    assert_eq!(decisions.len(), 20);
    for d in &decisions {
        assert_eq!(d.a, 3, "policy code must be power-of-n");
        assert_eq!(d.b & 0xFFFF_FFFF, 3, "three candidates considered");
        assert!((1..=3).contains(&d.port));
    }
}

/// PABO (Shi et al.): the arriving packet bounces *backward* — out of
/// the exact port it arrived on, toward the hop that sent it. Never a
/// random port.
#[test]
fn pabo_bounces_to_exact_provenance_upstream() {
    struct Case {
        name: &'static str,
        in_port: u16,
        deflections: u16,
        down: Option<u16>,
        expect_port: Option<u16>,
    }
    let cases = [
        Case {
            name: "arrived on port 1",
            in_port: 1,
            deflections: 0,
            down: None,
            expect_port: Some(1),
        },
        Case {
            name: "arrived on port 2",
            in_port: 2,
            deflections: 0,
            down: None,
            expect_port: Some(2),
        },
        Case {
            name: "arrived on port 3",
            in_port: 3,
            deflections: 0,
            down: None,
            expect_port: Some(3),
        },
        Case {
            name: "ingress == full output drops",
            in_port: 0,
            deflections: 0,
            down: None,
            expect_port: None,
        },
        Case {
            name: "bounce budget spent drops",
            in_port: 2,
            deflections: 16,
            down: None,
            expect_port: None,
        },
        Case {
            name: "downed ingress drops",
            in_port: 2,
            deflections: 0,
            down: Some(2),
            expect_port: None,
        },
    ];
    for case in cases {
        let mut sw = mk_switch(small(SwitchConfig::pabo()), vec![0]);
        if let Some(p) = case.down {
            sw.set_port_down(p, true);
        }
        let mut h = Harness::new();
        // 9 residents fill the host port (one in flight, 8 queued).
        for i in 0..9u64 {
            sw.on_arrive(PortId(1), pkt(i, 10_000), &mut h.ctx());
        }
        let mut p = pkt(100, 10_000);
        p.deflections = case.deflections;
        sw.on_arrive(PortId(case.in_port), p, &mut h.ctx());
        let deflects = h.events_of(TraceKind::Deflect);
        let drops = h.events_of(TraceKind::Drop);
        match case.expect_port {
            Some(port) => {
                assert_eq!(deflects.len(), 1, "{}: exactly one bounce", case.name);
                let d = &deflects[0];
                assert_eq!(d.uid, 100, "{}: PABO bounces the arrival", case.name);
                assert_eq!(
                    d.port, port,
                    "{}: backward out of the ingress port",
                    case.name
                );
                assert_eq!(
                    d.flags,
                    (1 << 2) | VICTIM_ARRIVING,
                    "{}: policy code 1, arriving victim",
                    case.name
                );
                assert!(drops.is_empty(), "{}: bounced, not dropped", case.name);
            }
            None => {
                assert!(deflects.is_empty(), "{}: no bounce possible", case.name);
                assert_eq!(drops.len(), 1, "{}: exactly one drop", case.name);
                assert_eq!(drops[0].uid, 100, "{}: the arrival drops", case.name);
            }
        }
    }
}

/// The adaptive hybrid flips between deflect and drop at *exactly* the
/// load-EWMA threshold: at the threshold it still deflects, one byte
/// above it drops — and either way the EWMA folds the observed occupancy
/// in with alpha = 1/8.
#[test]
fn hybrid_flips_exactly_at_threshold_crossing() {
    for (off, expect_deflect) in [(0i64, true), (1, false)] {
        let mut sw = mk_switch(small(SwitchConfig::hybrid()), vec![0]);
        let mut h = Harness::new();
        for i in 0..9u64 {
            sw.on_arrive(PortId(1), pkt(i, 10_000), &mut h.ctx());
        }
        let threshold = sw.hybrid_threshold();
        let ewma = (threshold as i64 + off) as u64;
        sw.set_load_ewma(ewma);
        let occ = sw.queued_bytes();
        sw.on_arrive(PortId(1), pkt(100, 10_000), &mut h.ctx());
        let deflects = h.events_of(TraceKind::Deflect);
        let drops = h.events_of(TraceKind::Drop);
        if expect_deflect {
            assert_eq!(deflects.len(), 1, "at threshold: deflect");
            let d = &deflects[0];
            assert_eq!(d.uid, 100, "hybrid deflects the arrival");
            assert_eq!(
                d.flags,
                (2 << 2) | VICTIM_ARRIVING,
                "policy code 2, arriving victim"
            );
            assert!(
                d.port == 2 || d.port == 3,
                "not the full output, not the ingress (got {})",
                d.port
            );
            assert!(drops.is_empty(), "deflected, not dropped");
        } else {
            assert!(deflects.is_empty(), "above threshold: no deflection");
            assert_eq!(drops.len(), 1, "above threshold: retransmit drop");
            assert_eq!(drops[0].uid, 100);
        }
        // Both branches fold the pre-decision occupancy into the EWMA.
        assert_eq!(
            sw.load_ewma(),
            ewma - ewma / 8 + occ / 8,
            "EWMA update (alpha = 1/8) after the decision"
        );
    }
}

/// Bounce-bounded deflection: the per-packet priority escalates
/// monotonically with every bounce (rank halves in the escalating PIEO
/// queues), and the packet drops at precisely the configured cap — one
/// bounce below the cap still deflects.
#[test]
fn bounded_escalates_per_bounce_and_drops_at_cap() {
    const CAP: u16 = 3;
    let cfg = SwitchConfig {
        buffer: BufferPolicy::Bounded {
            cap: CAP,
            deflect_power: 2,
        },
        ..small(SwitchConfig::bounded())
    };
    let mut sw = mk_switch(cfg, vec![0]);
    let mut h = Harness::new();
    for i in 0..9u64 {
        sw.on_arrive(PortId(1), pkt(i, 10_000), &mut h.ctx());
    }
    // Arrivals with bounce counts 0..=CAP: everything below the cap
    // deflects (with escalated rank), the at-cap arrival drops.
    for d in 0..=CAP {
        let mut p = pkt(100 + d as u64, 10_000);
        p.deflections = d;
        sw.on_arrive(PortId(1), p, &mut h.ctx());
    }
    let deflects = h.events_of(TraceKind::Deflect);
    let drops = h.events_of(TraceKind::Drop);
    assert_eq!(
        deflects.len(),
        CAP as usize,
        "every below-cap arrival deflects"
    );
    for (i, d) in deflects.iter().enumerate() {
        assert_eq!(d.uid, 100 + i as u64, "bounces happen in arrival order");
        assert_eq!(
            d.flags,
            (3 << 2) | VICTIM_ARRIVING,
            "policy code 3, arriving victim"
        );
        assert!(
            d.port == 2 || d.port == 3,
            "not the full output, not the ingress (got {})",
            d.port
        );
    }
    // Identical packets whose bounce counts differ by one: each extra
    // bounce halves the enqueue rank (strictly monotone escalation).
    for w in deflects.windows(2) {
        assert_eq!(
            w[1].a,
            w[0].a >> 1,
            "rank must halve with each additional bounce"
        );
        assert!(w[1].a < w[0].a, "escalation must be strictly monotone");
    }
    assert_eq!(drops.len(), 1, "exactly the at-cap arrival drops");
    assert_eq!(drops[0].uid, 100 + CAP as u64, "the at-cap arrival");
}

/// Ingress exclusion is a per-policy contract, not an accident: when the
/// only port with space is the arrival's ingress, the excluding policies
/// (hybrid) drop, while the legacy inclusive policies (DIBS) happily
/// bounce the packet right back where it came from — the golden traces
/// pin the latter.
#[test]
fn ingress_exclusion_decides_last_resort_port() {
    // Ports 2 and 3 administratively down: the only candidate with space
    // is the ingress, port 1.
    let mut hybrid_sw = mk_switch(small(SwitchConfig::hybrid()), vec![0]);
    hybrid_sw.set_port_down(2, true);
    hybrid_sw.set_port_down(3, true);
    hybrid_sw.set_load_ewma(0); // lightly loaded: the deflect branch
    let mut h = Harness::new();
    for i in 0..9u64 {
        hybrid_sw.on_arrive(PortId(1), pkt(i, 10_000), &mut h.ctx());
    }
    hybrid_sw.set_load_ewma(0);
    hybrid_sw.on_arrive(PortId(1), pkt(100, 10_000), &mut h.ctx());
    assert!(
        h.events_of(TraceKind::Deflect).is_empty(),
        "hybrid excludes the ingress: nowhere to deflect"
    );
    assert_eq!(
        h.events_of(TraceKind::Drop).len(),
        1,
        "hybrid drops instead of bouncing to the ingress"
    );

    let mut dibs_sw = mk_switch(small(SwitchConfig::dibs()), vec![0]);
    dibs_sw.set_port_down(2, true);
    dibs_sw.set_port_down(3, true);
    let mut h = Harness::new();
    for i in 0..9u64 {
        dibs_sw.on_arrive(PortId(1), pkt(i, 10_000), &mut h.ctx());
    }
    dibs_sw.on_arrive(PortId(1), pkt(100, 10_000), &mut h.ctx());
    let deflects = h.events_of(TraceKind::Deflect);
    assert_eq!(deflects.len(), 1, "DIBS includes the ingress (legacy)");
    assert_eq!(
        deflects[0].port, 1,
        "the ingress is DIBS's only live candidate here"
    );
}
