//! Checkpoint/resume equivalence at the simulator level: a run that is
//! snapshotted mid-flight and resumed into a freshly built simulation
//! must be indistinguishable — identical reports, telemetry series, and
//! even identical *subsequent snapshots* — from the run that never
//! stopped. Exercised with faults and telemetry active, across several
//! checkpoint times (including ones far enough
//! apart to cross timing-wheel level boundaries).

use vertigo_netsim::{
    FaultSchedule, HostConfig, LinkParams, SimConfig, Simulation, SwitchConfig, TelemetryConfig,
    TopologySpec,
};
use vertigo_pkt::{NodeId, QueryId};
use vertigo_simcore::{SimDuration, SimTime, SnapReader, SnapWriter};
use vertigo_stats::Report;
use vertigo_transport::{CcKind, TransportConfig};

fn cfg() -> SimConfig {
    SimConfig {
        topology: TopologySpec::LeafSpine {
            spines: 2,
            leaves: 4,
            hosts_per_leaf: 4,
            host_link: LinkParams::gbps(10, 500),
            fabric_link: LinkParams::gbps(40, 500),
        },
        switch: SwitchConfig::vertigo(),
        host: HostConfig::vertigo(TransportConfig::default_for(CcKind::Dctcp)),
        horizon: SimDuration::from_millis(20),
        seed: 1234,
    }
}

/// Builds the simulation exactly the way a resume must: topology, then
/// telemetry, then faults, then the full workload schedule.
fn build() -> Simulation {
    let mut sim = Simulation::new(&cfg());
    sim.enable_telemetry(TelemetryConfig {
        interval: SimDuration::from_micros(100),
    });
    let faults =
        FaultSchedule::parse("loss:*:0.001@1ms-5ms; stall:17@2ms-3ms").expect("valid fault spec");
    sim.install_faults(&faults);
    // Incast burst plus staggered background flows: enough traffic that
    // queues, retransmission state, and the ordering shim are all hot at
    // the checkpoint times below.
    let q = sim.register_query(8, SimTime::from_micros(50));
    for i in 0..8u32 {
        sim.schedule_flow(
            SimTime::from_micros(50),
            NodeId(i + 1),
            NodeId(0),
            60_000,
            q,
        );
    }
    for i in 0..6u32 {
        sim.schedule_flow(
            SimTime::from_micros(200 + i as u64 * 700),
            NodeId(i + 2),
            NodeId(15 - i),
            250_000,
            QueryId::NONE,
        );
    }
    sim
}

fn report_key(rep: &Report, sim: &Simulation) -> String {
    format!(
        "{rep:?} | max_port={} | tel={:?} | ord={:?} | mark={:?}",
        sim.max_port_bytes(),
        sim.telemetry().map(|t| &t.samples),
        sim.ordering_stats(),
        sim.marking_stats(),
    )
}

/// One straight-through run vs a save-at-`t`/restore-into-fresh-build
/// run, compared exhaustively.
fn assert_resume_equivalent(t: SimTime) {
    // Straight through.
    let mut straight = build();
    let rep_a = straight.run();
    let key_a = report_key(&rep_a, &straight);

    // Interrupted: drain to t, snapshot, throw the simulation away.
    let mut first = build();
    first.drain_until(t);
    let mut w = SnapWriter::new();
    first.save_state(&mut w);
    let bytes = w.into_bytes();
    drop(first);

    // Resume into a freshly built instance.
    let mut resumed = build();
    resumed
        .restore_state(&mut SnapReader::new(&bytes))
        .expect("restore");
    // The restored clock sits at the last event processed before `t`
    // (pop_until never advances past the final due event).
    assert!(resumed.now() <= t, "clock {:?} beyond {t:?}", resumed.now());
    let rep_b = resumed.run();
    let key_b = report_key(&rep_b, &resumed);

    assert_eq!(
        key_a, key_b,
        "resume at {t:?} diverged from the straight-through run"
    );
}

#[test]
fn resume_matches_straight_run() {
    // Early (workload barely started), mid-burst, and late inside the
    // fault window — three distinct wheel fill levels.
    for t_us in [60, 2_500, 11_000] {
        assert_resume_equivalent(SimTime::from_micros(t_us));
    }
}

#[test]
fn resumed_run_takes_byte_identical_later_snapshots() {
    let t1 = SimTime::from_micros(1_500);
    let t2 = SimTime::from_micros(6_000);

    // Straight run snapshotted at t1 and t2.
    let mut straight = build();
    straight.drain_until(t1);
    let mut w = SnapWriter::new();
    straight.save_state(&mut w);
    let snap1 = w.into_bytes();
    straight.drain_until(t2);
    let mut w = SnapWriter::new();
    straight.save_state(&mut w);
    let snap2_straight = w.into_bytes();

    // Resume from t1, run to t2, snapshot again: the byte streams must
    // match exactly — state equality, not just report equality.
    let mut resumed = build();
    resumed
        .restore_state(&mut SnapReader::new(&snap1))
        .expect("restore");
    resumed.drain_until(t2);
    let mut w = SnapWriter::new();
    resumed.save_state(&mut w);
    let snap2_resumed = w.into_bytes();

    assert_eq!(
        snap2_straight, snap2_resumed,
        "second-generation snapshots diverge"
    );
}

#[test]
fn restore_rejects_wrong_node_count() {
    let mut sim = build();
    sim.drain_until(SimTime::from_micros(500));
    let mut w = SnapWriter::new();
    sim.save_state(&mut w);
    let bytes = w.into_bytes();

    let mut other = Simulation::new(&SimConfig {
        topology: TopologySpec::LeafSpine {
            spines: 2,
            leaves: 2,
            hosts_per_leaf: 4,
            host_link: LinkParams::gbps(10, 500),
            fabric_link: LinkParams::gbps(40, 500),
        },
        ..cfg()
    });
    assert!(
        other.restore_state(&mut SnapReader::new(&bytes)).is_err(),
        "restoring into a different topology must fail loudly"
    );
}

#[test]
fn save_is_transparent_to_the_running_simulation() {
    // Snapshotting drains and rebuilds the event queue in place; the run
    // that keeps going afterwards must match one that never snapshotted.
    let mut plain = build();
    let rep_plain = plain.run();

    let mut snapped = build();
    for t_us in [100, 3_000, 9_000] {
        snapped.drain_until(SimTime::from_micros(t_us));
        let mut w = SnapWriter::new();
        snapped.save_state(&mut w);
    }
    let rep_snapped = snapped.run();

    assert_eq!(
        report_key(&rep_plain, &plain),
        report_key(&rep_snapped, &snapped)
    );
}
