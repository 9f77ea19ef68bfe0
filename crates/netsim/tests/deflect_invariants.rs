//! Property tests for the overflow-policy contract (`vertigo_netsim::deflect`
//! module docs, DESIGN.md §5h), across every policy in the zoo: whatever
//! the policy, workload, or fault
//! state, a deflection's chosen egress is a *live* candidate (never the
//! full output, never an administratively-down port, never the ingress
//! for an excluding policy, always the provenance upstream for PABO) —
//! and the whole decision stream is a deterministic function of the
//! seed.

use proptest::prelude::*;
use vertigo_netsim::{
    BufferPolicy, Ctx, Event, EventSink, FaultKind, FaultSchedule, FaultTarget, FaultWindow,
    LinkParams, Port, PortQueue, QueueDiscipline, RouteTable, Switch, SwitchConfig,
};
use vertigo_pkt::{DataSeg, FlowId, FlowInfo, NodeId, Packet, PortId, QueryId};
use vertigo_simcore::{EventQueue, SimRng, SimTime};
use vertigo_stats::{Recorder, TraceFilter, TraceKind, TraceRecord};

const HOST: NodeId = NodeId(0);
const SW: NodeId = NodeId(10);
const NPORTS: u16 = 4;

/// Builds the 4-port test switch (port 0 host-facing, ports 1..=3 peer
/// with switches `NodeId(21..=23)`) with a full reverse-path row, so
/// every policy — including PABO's provenance lookup — is exercisable.
fn mk_switch(cfg: SwitchConfig) -> Switch {
    let ports: Vec<Port> = (0..NPORTS)
        .map(|i| Port {
            peer: if i == 0 { HOST } else { NodeId(20 + i as u32) },
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
    let nbrs: Vec<(u32, u16)> = (0..NPORTS)
        .map(|i| (if i == 0 { HOST.0 } else { 20 + i as u32 }, i))
        .collect();
    let routes = std::sync::Arc::new(RouteTable::from_nested_with_neighbors(
        &[vec![vec![0]]],
        &[nbrs],
    ));
    Switch::new(SW, cfg, ports, routes, 0, 0xBEEF)
}

/// The five policies under test, in `--deflect` grammar order, with
/// whether each one excludes the arrival's ingress from its candidates.
fn zoo() -> [(SwitchConfig, bool); 5] {
    [
        (SwitchConfig::vertigo(), false),
        (SwitchConfig::dibs(), false),
        (SwitchConfig::pabo(), false),
        (SwitchConfig::hybrid(), true),
        (SwitchConfig::bounded(), true),
    ]
}

fn small(cfg: SwitchConfig) -> SwitchConfig {
    SwitchConfig {
        port_buffer_bytes: 8 * 1508,
        ecn_threshold_pkts: 0,
        ..cfg
    }
}

fn pkt(uid: u64, rfs: u32, prev_hop: NodeId) -> Box<Packet> {
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
    p.prev_hop = prev_hop;
    Box::new(p)
}

/// Drives `script` (one `(rfs, prev_hop index, bounce count)` triple per
/// arrival, all on ingress port 1, all destined HOST via port 0) through
/// a fresh switch and returns the full trace-record stream.
fn drive(
    cfg: SwitchConfig,
    seed: u64,
    downs: &[u16],
    ewma: u64,
    script: &[(u32, usize, u16)],
) -> Vec<TraceRecord> {
    let mut sw = mk_switch(small(cfg));
    for &p in downs {
        sw.set_port_down(p, true);
    }
    sw.set_load_ewma(ewma);
    let mut events: EventQueue<Event> = EventQueue::new();
    let mut rec = Recorder::new();
    rec.trace.arm(TraceFilter::default(), 32, 65536);
    let mut rng = SimRng::new(seed);
    for (i, &(rfs, hop, bounces)) in script.iter().enumerate() {
        // hop 0..3 maps to a real neighbor (HOST, 21, 22, 23); hop 3 is
        // a node the reverse-path row has never heard of.
        let prev = match hop {
            0 => HOST,
            1 => NodeId(21),
            2 => NodeId(22),
            _ => NodeId(55),
        };
        let mut p = pkt(i as u64, rfs, prev);
        p.deflections = bounces;
        let ctx = &mut Ctx {
            now: events.now(),
            events: EventSink::direct(&mut events),
            rec: &mut rec,
            rng: &mut rng,
        };
        sw.on_arrive(PortId(1), p, ctx);
    }
    rec.trace.records()
}

/// `(rfs, prev-hop index, starting bounce count)` arrival strategy: RFS
/// spans mice through elephants, bounce counts straddle every policy's
/// cap (bounded's default cap is 16).
fn script_strategy() -> impl Strategy<Value = Vec<(u32, usize, u16)>> {
    proptest::collection::vec((1_000u32..1_000_000, 0usize..4, 0u16..20), 12..48)
}

/// Guards the properties against vacuity: under the canonical pressure
/// script every policy in the zoo actually deflects at least once, so
/// the quantified assertions above range over non-empty record sets.
#[test]
fn pressure_script_exercises_every_policy() {
    let script: Vec<(u32, usize, u16)> = (0..32).map(|i| (10_000, 1 + (i % 2), 0)).collect();
    for (cfg, _) in zoo() {
        let records = drive(cfg, 7, &[], 0, &script);
        let deflects = records
            .iter()
            .filter(|r| r.kind() == Some(TraceKind::Deflect))
            .count();
        assert!(
            deflects > 0,
            "{:?} never deflected under queue pressure — the invariant \
             properties would be vacuous",
            cfg.buffer
        );
    }
}

proptest! {
    /// The chosen deflection egress is always a live candidate: a real
    /// port, never the full output, never an administratively-down port,
    /// and never the ingress when the policy excludes it. Holds for all
    /// five policies under arbitrary workloads and down-port sets.
    #[test]
    fn chosen_egress_is_a_live_candidate(
        seed in 0u64..1 << 32,
        down_mask in 0u8..4,
        ewma in 0u64..200_000,
        script in script_strategy(),
    ) {
        // Ports 2 and/or 3 may be down; 0 (route) and 1 (ingress) stay up.
        let downs: Vec<u16> = [2u16, 3]
            .into_iter()
            .filter(|p| down_mask & (1 << (p - 2)) != 0)
            .collect();
        for (cfg, excludes_ingress) in zoo() {
            let records = drive(cfg, seed, &downs, ewma, &script);
            for r in records.iter().filter(|r| r.kind() == Some(TraceKind::Deflect)) {
                prop_assert!(r.port < NPORTS, "egress {} is a real port", r.port);
                prop_assert!(r.port != 0, "egress is never the full output");
                prop_assert!(
                    !downs.contains(&r.port),
                    "downed port {} selected by {:?}",
                    r.port,
                    cfg.buffer
                );
                if excludes_ingress {
                    prop_assert!(
                        r.port != 1,
                        "{:?} must exclude the ingress",
                        cfg.buffer
                    );
                }
                if matches!(cfg.buffer, BufferPolicy::Pabo { .. }) {
                    // PABO's egress is the provenance upstream, exactly.
                    let uid = r.uid as usize;
                    prop_assert!(uid < script.len(), "bounced uid is an arrival");
                    prop_assert_eq!(
                        r.port as usize, script[uid].1,
                        "PABO bounces to the provenance port"
                    );
                }
            }
        }
    }

    /// The same seed and arrival script produce the exact same decision
    /// stream, record for record — the trait dispatch adds no hidden
    /// state and draws from no other randomness source.
    #[test]
    fn same_seed_same_decision_stream(
        seed in 0u64..1 << 32,
        ewma in 0u64..200_000,
        script in script_strategy(),
    ) {
        for (cfg, _) in zoo() {
            let a = drive(cfg, seed, &[], ewma, &script);
            let b = drive(cfg, seed, &[], ewma, &script);
            prop_assert_eq!(a, b, "{:?} decision stream must be seed-deterministic", cfg.buffer);
        }
    }

    /// Links inside an *active* `down:` fault window are never selected
    /// as deflection egresses once the window is applied to the switch's
    /// admin-down mask — and links whose windows are not active stay
    /// eligible. (The schedule→mask derivation mirrors the driver's
    /// event-level interception: a deflection onto a downed link would be
    /// dropped at delivery anyway; the policies refuse to pick it.)
    #[test]
    fn active_fault_windows_are_never_selected(
        seed in 0u64..1 << 32,
        windows in proptest::collection::vec(
            (2u16..4, 0u64..150, 1u64..150), 1..4),
        now_us in 0u64..300,
    ) {
        let mut sched = FaultSchedule::new();
        for &(port, from_us, len_us) in &windows {
            let w = FaultWindow {
                kind: FaultKind::Down,
                target: FaultTarget::Link {
                    a: SW,
                    b: NodeId(20 + port as u32),
                },
                from: SimTime::from_micros(from_us),
                until: SimTime::from_micros(from_us + len_us),
            };
            prop_assert!(sched.push(w).is_ok());
        }
        // Derive the admin-down set from the schedule at `now`: ports
        // whose link to this switch sits inside an active Down window.
        let now = SimTime::from_micros(now_us);
        let downs: Vec<u16> = sched
            .iter()
            .filter(|w| matches!(w.kind, FaultKind::Down) && w.from <= now && now < w.until)
            .filter_map(|w| match w.target {
                FaultTarget::Link { a, b } if a == SW => match b.0 {
                    21..=23 => Some((b.0 - 20) as u16),
                    _ => None,
                },
                _ => None,
            })
            .collect();
        let script: Vec<(u32, usize, u16)> = (0..32).map(|i| (10_000, 1 + (i % 2), 0)).collect();
        for (cfg, _) in zoo() {
            let records = drive(cfg, seed, &downs, 0, &script);
            for r in records.iter().filter(|r| r.kind() == Some(TraceKind::Deflect)) {
                prop_assert!(
                    !downs.contains(&r.port),
                    "{:?} deflected onto a link inside an active Down window (port {})",
                    cfg.buffer,
                    r.port
                );
            }
        }
    }
}
