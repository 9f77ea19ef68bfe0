//! Congestion-control sanity: competing flows share a bottleneck fairly
//! enough, under every transport and under Vertigo's SRPT queues (which
//! deliberately favor shorter *remaining* size — the test accounts for
//! that).

use vertigo::netsim::{HostConfig, LinkParams, SimConfig, Simulation, SwitchConfig, TopologySpec};
use vertigo::pkt::{NodeId, QueryId};
use vertigo::simcore::{SimDuration, SimTime};
use vertigo::transport::{CcKind, TransportConfig};

fn topo() -> TopologySpec {
    TopologySpec::LeafSpine {
        spines: 2,
        leaves: 2,
        hosts_per_leaf: 4,
        host_link: LinkParams::gbps(10, 500),
        fabric_link: LinkParams::gbps(40, 500),
    }
}

/// Jain's fairness index over per-flow delivered bytes.
fn jain(xs: &[f64]) -> f64 {
    let n = xs.len() as f64;
    let sum: f64 = xs.iter().sum();
    let sumsq: f64 = xs.iter().map(|x| x * x).sum();
    if sumsq == 0.0 {
        1.0
    } else {
        sum * sum / (n * sumsq)
    }
}

/// N equal long flows from distinct senders into one receiver, cut off by
/// the horizon: delivered bytes should be reasonably even.
fn fairness_of(cc: CcKind, n: u32) -> f64 {
    let mut sim = Simulation::new(&SimConfig {
        topology: topo(),
        switch: SwitchConfig::ecmp(),
        host: HostConfig::plain(TransportConfig::default_for(cc)),
        horizon: SimDuration::from_millis(30),
        seed: 17,
    });
    for i in 0..n {
        // 40 MB each: nobody finishes; the horizon samples steady state.
        sim.schedule_flow(
            SimTime::ZERO,
            NodeId(i + 1),
            NodeId(0),
            40_000_000,
            QueryId::NONE,
        );
    }
    let _ = sim.run();
    let delivered: Vec<f64> = sim
        .recorder()
        .flows
        .values()
        .map(|f| f.delivered_bytes as f64)
        .collect();
    assert_eq!(delivered.len() as u32, n);
    assert!(
        delivered.iter().all(|&d| d > 0.0),
        "every flow must make progress: {delivered:?}"
    );
    jain(&delivered)
}

#[test]
fn dctcp_shares_a_bottleneck_fairly() {
    let j = fairness_of(CcKind::Dctcp, 4);
    assert!(j > 0.85, "DCTCP Jain index {j:.3} too unfair");
}

#[test]
fn reno_shares_a_bottleneck_tolerably() {
    // Loss-based Reno synchronizes worse than DCTCP; a looser bound.
    let j = fairness_of(CcKind::Reno, 4);
    assert!(j > 0.6, "Reno Jain index {j:.3} too unfair");
}

#[test]
fn swift_shares_a_bottleneck_fairly() {
    let j = fairness_of(CcKind::Swift, 4);
    assert!(j > 0.8, "Swift Jain index {j:.3} too unfair");
}

#[test]
fn bottleneck_is_fully_utilized_while_sharing() {
    // Whatever the split, the receiver link must stay busy: aggregate
    // goodput ≈ 10 Gbps line rate (minus headers and ramp-up).
    let mut sim = Simulation::new(&SimConfig {
        topology: topo(),
        switch: SwitchConfig::ecmp(),
        host: HostConfig::plain(TransportConfig::default_for(CcKind::Dctcp)),
        horizon: SimDuration::from_millis(30),
        seed: 3,
    });
    for i in 0..4u32 {
        sim.schedule_flow(
            SimTime::ZERO,
            NodeId(i + 1),
            NodeId(0),
            40_000_000,
            QueryId::NONE,
        );
    }
    let rep = sim.run();
    assert!(
        rep.goodput_gbps > 8.0,
        "bottleneck underutilized: {:.2} Gbps",
        rep.goodput_gbps
    );
    assert!(rep.goodput_gbps < 10.0, "goodput cannot beat line rate");
}

#[test]
fn vertigo_srpt_preserves_long_flow_progress() {
    // SRPT favors small remaining sizes, but long flows must never starve
    // (that is what boosting + deflection protect). Two elephants plus a
    // stream of mice across the same bottleneck: elephants still advance.
    let mut sim = Simulation::new(&SimConfig {
        topology: topo(),
        switch: SwitchConfig::vertigo(),
        host: HostConfig::vertigo(TransportConfig::default_for(CcKind::Dctcp)),
        horizon: SimDuration::from_millis(30),
        seed: 5,
    });
    for i in 0..2u32 {
        sim.schedule_flow(
            SimTime::ZERO,
            NodeId(i + 1),
            NodeId(0),
            40_000_000,
            QueryId::NONE,
        );
    }
    // 60 mice, 2 per ms.
    for m in 0..60u32 {
        sim.schedule_flow(
            SimTime::from_micros(500 * m as u64),
            NodeId(3 + (m % 5)),
            NodeId(0),
            30_000,
            QueryId::NONE,
        );
    }
    let rep = sim.run();
    let elephants: Vec<u64> = sim
        .recorder()
        .flows
        .values()
        .filter(|f| f.bytes > 10_000_000)
        .map(|f| f.delivered_bytes)
        .collect();
    // SRPT deliberately serializes identical elephants (the leader has the
    // smaller *remaining* size and therefore strictly higher priority —
    // that ordering is mean-FCT-optimal). The non-starvation guarantee is
    // aggregate: elephant traffic as a class keeps moving at near line
    // rate despite the mice, and even the trailing elephant makes some
    // progress (boosting keeps its retransmissions alive).
    // Neither can finish: 40 MB alone takes 32 ms at line rate.
    assert_eq!(elephants.len(), 2, "an elephant finished or vanished");
    let total: u64 = elephants.iter().sum();
    assert!(total > 10_000_000, "elephant class starved: {elephants:?}");
    assert!(
        elephants.iter().all(|&d| d > 50_000),
        "an elephant made no progress at all: {elephants:?}"
    );
    // And the mice fly: nearly all complete, quickly. A finished flow's
    // record is folded into its FCT sample, the mice's apart.
    let rec = sim.recorder();
    let mice_done: usize = rec.folded.tenants.values().map(|t| t.fct_mice.len()).sum();
    assert_eq!(
        rec.flows.values().filter(|f| f.finished.is_some()).count(),
        0
    );
    assert!(mice_done >= 55, "only {mice_done}/60 mice completed");
    assert!(rep.fct_mice_mean < 2e-3);
}
