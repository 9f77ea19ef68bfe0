//! Mutation smoke tests for the conservation-audit layer.
//!
//! The audit layer is only worth having if it actually fires: a clean run
//! must pass every check silently, and a run with a deliberately seeded
//! accounting bug (a phantom packet injected through a test-only hook)
//! must die with the conservation panic. This guards the auditor itself
//! against rotting into a no-op.

#![cfg(debug_assertions)]

use std::panic::{catch_unwind, AssertUnwindSafe};

use vertigo_netsim::{HostConfig, LinkParams, SimConfig, Simulation, SwitchConfig, TopologySpec};
use vertigo_pkt::{NodeId, QueryId};
use vertigo_simcore::{SimDuration, SimTime};
use vertigo_transport::{CcKind, TransportConfig};

fn cfg() -> SimConfig {
    SimConfig {
        topology: TopologySpec::LeafSpine {
            spines: 2,
            leaves: 2,
            hosts_per_leaf: 4,
            host_link: LinkParams::gbps(10, 500),
            fabric_link: LinkParams::gbps(40, 500),
        },
        switch: SwitchConfig::vertigo(),
        host: HostConfig::vertigo(TransportConfig::default_for(CcKind::Dctcp)),
        horizon: SimDuration::from_millis(10),
        seed: 7,
    }
}

#[test]
fn clean_run_passes_all_audit_checks() {
    let mut sim = Simulation::new(&cfg());
    sim.schedule_flow(SimTime::ZERO, NodeId(0), NodeId(7), 200_000, QueryId::NONE);
    let rep = sim.run();
    assert_eq!(rep.flows_completed, 1);
    assert!(rep.audit_checks > 0, "a debug build ran no audit checks");
}

#[test]
fn seeded_phantom_packet_is_caught() {
    let mut sim = Simulation::new(&cfg());
    sim.schedule_flow(SimTime::ZERO, NodeId(0), NodeId(7), 200_000, QueryId::NONE);
    // Seed the bug: one packet that was "created" but can never be
    // consumed, dropped, or found in any queue.
    sim.audit_inject_phantom();
    let result = catch_unwind(AssertUnwindSafe(move || sim.run()));
    let err = result.expect_err("audit layer failed to detect the phantom packet");
    let msg = err
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default();
    assert!(
        msg.contains("conservation"),
        "panic should name the conservation invariant, got: {msg}"
    );
    assert!(
        msg.contains("diff = 1") || msg.contains("diff = -1"),
        "panic should quantify the imbalance, got: {msg}"
    );
}
