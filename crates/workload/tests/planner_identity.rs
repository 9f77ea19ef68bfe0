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
    BackgroundSpec, DistKind, IncastSpec, RunSpec, SystemKind, TopoKind, WorkloadSpec,
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

/// Hash and length of the scheduled stream, read back from the recorder
/// (keyed by `FlowId`, which `schedule_flow` hands out in call order).
fn planned_stream(seed: u64) -> (u64, usize) {
    let mut sim = figure_spec(seed).build();
    let _ = sim.run();
    let flows = &sim.recorder().flows;
    let mut text = String::new();
    for f in flows.values() {
        text.push_str(&format!(
            "{},{},{},{},{};",
            f.start.as_nanos(),
            f.src.0,
            f.dst.0,
            f.bytes,
            f.query.0
        ));
    }
    (stable_hash(text.as_bytes()), flows.len())
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
