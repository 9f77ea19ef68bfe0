//! Planner identity: the figure workload's offered traffic — every flow's
//! `(at, src, dst, bytes, query)` in schedule order — is pinned by hash
//! for seeds 1–3. The hashes were taken from the tree that still had two
//! traffic generators (`traffic.rs::install_background`/`install_incast`),
//! before `WorkloadSpec::install` moved onto the scenario planner, so a
//! planner change that reorders a draw, a registration or a schedule call
//! fails here rather than in a figure.

use vertigo_netsim::trace::stable_hash;
use vertigo_simcore::SimDuration;
use vertigo_transport::CcKind;
use vertigo_workload::{
    BackgroundSpec, DistKind, IncastSpec, PlanContext, RunSpec, SystemKind, TopoKind, WorkloadSpec,
};

/// The fig5 cell at `--quick` scale: 25 % CacheFollower background plus a
/// 50 % incast (fan-in 10, 40 KB replies) on the 32-host leaf-spine.
fn figure_spec(seed: u64) -> RunSpec {
    let total_bw = 32 * 10_000_000_000u64;
    let mut spec = RunSpec::new(
        SystemKind::Ecmp,
        CcKind::Dctcp,
        WorkloadSpec {
            background: Some(BackgroundSpec {
                load: 0.25,
                dist: DistKind::CacheFollower,
            }),
            incast: Some(IncastSpec {
                qps: IncastSpec::qps_for_load(0.50, 10, 40_000, total_bw),
                scale: 10,
                flow_bytes: 40_000,
            }),
        },
    );
    spec.topo = TopoKind::LeafSpine { hosts_per_leaf: 4 };
    spec.horizon = SimDuration::from_millis(20);
    spec.seed = seed;
    spec
}

/// Hash and length of the scheduled stream, as the planner hands it to
/// `schedule_flow`: flows in schedule order (their `FlowId` order), each
/// query the id `register_query` gives it, 1 up in registration order.
fn planned_stream(seed: u64) -> (u64, usize) {
    let spec = figure_spec(seed);
    let sim = spec.build();
    let plans = (spec.workload)
        .plan(sim.rng(), &PlanContext::of(&sim))
        .expect("the figure workload plans");
    let mut text = String::new();
    let (mut flows, mut queries_before) = (0, 0);
    for plan in &plans {
        for f in &plan.flows {
            let query = f.query.map_or(0, |qi| queries_before + qi as u64 + 1);
            text.push_str(&format!(
                "{},{},{},{},{};",
                f.at.as_nanos(),
                f.src,
                f.dst,
                f.bytes,
                query
            ));
        }
        flows += plan.flows.len();
        queries_before += plan.queries.len() as u64;
    }
    (stable_hash(text.as_bytes()), flows)
}

#[test]
fn figure_workload_stream_is_the_parent_trees() {
    for (seed, pinned) in [
        (1u64, (0x5e2e_d66e_9559_9e36u64, 10_771usize)),
        (2, (0xa611_1c1a_4ac9_8e53, 11_034)),
        (3, (0x63c2_c994_7270_0cf4, 11_016)),
    ] {
        assert_eq!(planned_stream(seed), pinned, "seed {seed}");
    }
}
