//! Fork-equivalence proptests: across (system × congestion control ×
//! seed × fork horizon), a run that starts from a
//! snapshot — the in-memory warmup of its class ([`RunSpec::run_warmup`]
//! then [`RunSpec::run_forked`]), or a `--checkpoint-every` file taken
//! before or at the fork horizon and resumed — must produce a `RunOutput`
//! byte-identical to the straight-through phased run of the same spec.
//! This is the oracle the sweep runner's shared warmups stand on; CI
//! additionally digest-diffs it end-to-end on the fig5 grid.
//!
//! Runs are deliberately tiny (16 hosts, ≤ 2 ms horizons) so the suite
//! stays debug-build fast while still crossing every interesting seam:
//! all four systems, all three CC algorithms, and fork horizons that land
//! before/at the middle of the run.

use proptest::prelude::*;
use vertigo_simcore::SimDuration;
use vertigo_transport::CcKind;
use vertigo_workload::{
    BackgroundSpec, CheckpointSpec, DistKind, ForkSpec, IncastSpec, RunOutput, RunSpec,
    SnapshotSpec, SystemKind, TopoKind, WorkloadSpec,
};

/// A tiny but non-trivial cell: background plus a deferred incast on a
/// 16-host leaf-spine.
fn spec_for(system: SystemKind, cc: CcKind, seed: u64) -> RunSpec {
    let mut spec = RunSpec::new(
        system,
        cc,
        WorkloadSpec {
            background: Some(BackgroundSpec {
                load: 0.25,
                dist: DistKind::CacheFollower,
            }),
            incast: Some(IncastSpec {
                qps: 500.0,
                scale: 6,
                flow_bytes: 20_000,
            }),
        },
    );
    spec.topo = TopoKind::LeafSpine { hosts_per_leaf: 2 };
    spec.horizon = SimDuration::from_millis(2);
    spec.seed = seed;
    spec
}

/// Everything a run reports, as one comparable string.
fn digest(out: &RunOutput) -> String {
    format!(
        "{:?}|{:?}|{:?}|{}|{}",
        out.report, out.ordering, out.marking, out.max_port_bytes, out.offered_load
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    /// The warm-start oracle: fork ≡ straight-through, everywhere.
    #[test]
    fn forked_equals_phased(
        sys_i in 0usize..4,
        cc_i in 0usize..3,
        seed in 1u64..10_000,
        fork_us in 400u64..1_600,
    ) {
        let cc = [CcKind::Reno, CcKind::Dctcp, CcKind::Swift][cc_i];
        let spec = spec_for(SystemKind::all()[sys_i], cc, seed);
        let fork = ForkSpec::at(SimDuration::from_micros(fork_us));

        prop_assert!(spec.fork_key(&fork).is_some());
        let cold = spec.run_phased(&fork);
        let buf = spec.run_warmup(&fork).expect("warmup");
        let warm = spec.run_forked(&fork, &buf);
        prop_assert_eq!(digest(&cold), digest(&warm));
    }

    /// The same seam through the disk path: a checkpoint taken before the
    /// fork horizon, resumed, crosses it (restore → deferred incast
    /// installed after a restore) like the straight phased run, so
    /// post-restore installs tie-break like post-drain installs; and a
    /// checkpoint taken exactly at the fork horizon already holds the
    /// fork, which a resume must not apply twice.
    #[test]
    fn resumed_across_or_at_the_fork_equals_phased(
        sys_i in 0usize..4,
        cc_i in 0usize..3,
        seed in 1u64..10_000,
        fork_us in 400u64..1_600,
    ) {
        let cc = [CcKind::Reno, CcKind::Dctcp, CcKind::Swift][cc_i];
        let spec = spec_for(SystemKind::all()[sys_i], cc, seed);
        let fork = ForkSpec::at(SimDuration::from_micros(fork_us));
        let straight = digest(&spec.run_phased(&fork));

        let dir = std::env::temp_dir().join(format!(
            "vertigo-fork-resume-{}-{sys_i}-{cc_i}-{seed}-{fork_us}",
            std::process::id()
        ));
        // Half the fork horizon: checkpoints at W/2 (before the fork), W
        // (at it, written after it applied) and beyond.
        let every = format!("{}ns:{}/ck.vsnp", fork_us * 500, dir.display());
        let ck = CheckpointSpec::parse(&every).unwrap();
        let writing = SnapshotSpec { checkpoint: Some(ck.clone()), resume: None };
        let written = spec.run_staged(None, Some(&writing), Some(&fork));
        prop_assert_eq!(&straight, &digest(&written));

        let hash = spec.staged_hash(Some(&fork));
        for t in [fork_us * 500, fork_us * 1000] {
            let file = vertigo_workload::snapshot::snapshot_file(&ck.stem, hash, t);
            prop_assert!(file.is_file(), "no checkpoint at t = {} ns", t);
            let resuming = SnapshotSpec { checkpoint: None, resume: Some(file) };
            let resumed = spec.run_staged(None, Some(&resuming), Some(&fork));
            prop_assert_eq!(&straight, &digest(&resumed), "resumed at t = {} ns", t);
        }
        // The phase is part of the run's identity: its checkpoints are not
        // the unphased run's.
        prop_assert_ne!(hash, spec.spec_hash());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Negative: any pre-fork difference lands in a different class, so
    /// the scheduler can never share a warmup across it.
    #[test]
    fn pre_fork_differences_change_the_key(
        sys_i in 0usize..4,
        seed in 1u64..10_000,
        fork_us in 400u64..1_600,
    ) {
        let spec = spec_for(SystemKind::all()[sys_i], CcKind::Dctcp, seed);
        let fork = ForkSpec::at(SimDuration::from_micros(fork_us));
        let key = spec.fork_key(&fork);
        prop_assert!(key.is_some());

        let mut other_seed = spec;
        other_seed.seed = seed + 1;
        prop_assert_ne!(key, other_seed.fork_key(&fork));

        let mut other_bg = spec;
        other_bg.workload.background = Some(BackgroundSpec {
            load: 0.30,
            dist: DistKind::CacheFollower,
        });
        prop_assert_ne!(key, other_bg.fork_key(&fork));

        let mut other_sys = spec;
        other_sys.system = if spec.system == SystemKind::Ecmp {
            SystemKind::Vertigo
        } else {
            SystemKind::Ecmp
        };
        prop_assert_ne!(key, other_sys.fork_key(&fork));

        let other_fork = ForkSpec::at(SimDuration::from_micros(fork_us + 1));
        prop_assert_ne!(key, spec.fork_key(&other_fork));

        // Post-fork differences do NOT change the key: that is the whole
        // point of the class.
        let mut other_incast = spec;
        other_incast.workload.incast = Some(IncastSpec {
            qps: 900.0,
            scale: 8,
            flow_bytes: 40_000,
        });
        prop_assert_eq!(key, other_incast.fork_key(&fork));
    }
}
