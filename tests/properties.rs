//! Cross-crate property tests: randomized topologies, workloads, and
//! parameters, checking the invariants that hold for *every* valid
//! configuration.

use proptest::prelude::*;
use vertigo::netsim::{HostConfig, LinkParams, SimConfig, Simulation, SwitchConfig, TopologySpec};
use vertigo::pkt::{NodeId, QueryId};
use vertigo::simcore::{SimDuration, SimTime};
use vertigo::transport::{CcKind, TransportConfig};

fn topo_strategy() -> impl Strategy<Value = TopologySpec> {
    prop_oneof![
        (2usize..=4, 2usize..=5, 1usize..=4).prop_map(|(spines, leaves, hpl)| {
            TopologySpec::LeafSpine {
                spines,
                leaves,
                hosts_per_leaf: hpl,
                host_link: LinkParams::gbps(10, 500),
                fabric_link: LinkParams::gbps(40, 500),
            }
        }),
        Just(TopologySpec::FatTree {
            k: 4,
            link: LinkParams::gbps(10, 500),
        }),
    ]
}

fn switch_strategy() -> impl Strategy<Value = SwitchConfig> {
    prop_oneof![
        Just(SwitchConfig::ecmp()),
        Just(SwitchConfig::drill()),
        Just(SwitchConfig::dibs()),
        Just(SwitchConfig::vertigo()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24, // each case runs a whole simulation
        ..ProptestConfig::default()
    })]

    /// Uncongested traffic always completes, under every policy, on every
    /// topology: no flow is lost by routing, deflection, or reassembly.
    #[test]
    fn light_traffic_always_completes(
        topo in topo_strategy(),
        sw in switch_strategy(),
        seed in 0u64..1000,
        nflows in 1usize..8,
    ) {
        let host = if sw.buffer.wants_priority_queues() {
            HostConfig::vertigo(TransportConfig::default_for(CcKind::Dctcp))
        } else {
            HostConfig::plain(TransportConfig::default_for(CcKind::Dctcp))
        };
        let mut sim = Simulation::new(&SimConfig {
            topology: topo,
            switch: sw,
            host,
            horizon: SimDuration::from_millis(60),
            seed,
        });
        let hosts = sim.num_hosts();
        prop_assume!(hosts >= 2);
        for i in 0..nflows {
            let src = (i * 7 + seed as usize) % hosts;
            let dst = (src + 1 + i) % hosts;
            if src == dst { continue; }
            sim.schedule_flow(
                SimTime::from_micros(i as u64 * 20),
                NodeId(src as u32),
                NodeId(dst as u32),
                10_000 + (i as u64 * 7919) % 80_000,
                QueryId::NONE,
            );
        }
        let rep = sim.run();
        prop_assert_eq!(
            rep.flows_completed, rep.flows_started,
            "all light flows must complete (drops={}, rtos={})", rep.drops, rep.rtos
        );
        // Conservation: nothing delivered that was not sent.
        prop_assert!(sim.recorder().data_delivered <= sim.recorder().data_sent);
    }

    /// Goodput never exceeds offered bytes, and completed-flow counts never
    /// exceed started counts, even under overload.
    #[test]
    fn accounting_invariants_under_overload(
        seed in 0u64..1000,
        fanin in 4usize..12,
    ) {
        let mut sim = Simulation::new(&SimConfig {
            topology: TopologySpec::LeafSpine {
                spines: 2,
                leaves: 4,
                hosts_per_leaf: 4,
                host_link: LinkParams::gbps(10, 500),
                fabric_link: LinkParams::gbps(40, 500),
            },
            switch: SwitchConfig::vertigo(),
            host: HostConfig::vertigo(TransportConfig::default_for(CcKind::Dctcp)),
            horizon: SimDuration::from_millis(10),
            seed,
        });
        let q = sim.register_query(fanin as u32, SimTime::ZERO);
        for i in 0..fanin {
            sim.schedule_flow(SimTime::ZERO, NodeId(i as u32 + 1), NodeId(0), 200_000, q);
        }
        let rep = sim.run();
        let rec = sim.recorder();
        let offered = rec.bytes_offered();
        prop_assert!(rec.goodput_bytes <= offered);
        prop_assert!(rep.flows_completed <= rep.flows_started);
        prop_assert!(rep.queries_completed <= rep.queries_started);
        // Hop accounting sane: mean hops within the network diameter.
        if rec.data_delivered > 0 {
            prop_assert!(rep.mean_hops >= 1.0 && rep.mean_hops <= 64.0);
        }
    }
}
