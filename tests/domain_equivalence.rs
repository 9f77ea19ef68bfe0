//! Domain-count invariance: the conservative-parallel engine must produce
//! byte-identical results for every `--domains N`. A partition decides
//! *where* events execute, never *what* they compute — the canonical
//! injection order at barriers, per-node RNG streams, and content-keyed
//! fault draws together make the domain count unobservable in every
//! Report field that is a result (the partition-shape diagnostics
//! `domains`, `cross_domain_packets`, and `domain_peak_pending` are
//! explicitly excluded from stdout/CSV and normalized here).

use proptest::prelude::*;
use vertigo::netsim::{DomainSimulation, Telemetry, TelemetryConfig};
use vertigo::simcore::SimDuration;
use vertigo::stats::Report;
use vertigo::transport::CcKind;
use vertigo::workload::{
    BackgroundSpec, DistKind, FaultSchedule, IncastSpec, RunSpec, SystemKind, TopoKind,
    WorkloadSpec,
};

/// A quick fig5-style cell: background + incast on the 32-host quick
/// leaf-spine, 10 ms horizon.
fn cell(system: SystemKind) -> RunSpec {
    let total_bw = 32u64 * 10_000_000_000;
    let mut spec = RunSpec::new(
        system,
        CcKind::Dctcp,
        WorkloadSpec {
            background: Some(BackgroundSpec {
                load: 0.25,
                dist: DistKind::CacheFollower,
            }),
            incast: Some(IncastSpec {
                qps: IncastSpec::qps_for_load(0.10, 10, 40_000, total_bw),
                scale: 10,
                flow_bytes: 40_000,
            }),
        },
    );
    spec.topo = TopoKind::LeafSpine { hosts_per_leaf: 4 };
    spec.horizon = SimDuration::from_millis(10);
    spec
}

/// The report's result content with the partition-shape diagnostics
/// normalized away: `domains` records how many domains ran and
/// `cross_domain_packets` / `domain_peak_pending` depend on where the
/// cut fell, so none of the three can (or should) match across counts.
/// Everything else must.
fn canon(mut r: Report) -> String {
    r.domains = 0;
    r.cross_domain_packets = 0;
    r.domain_peak_pending = Vec::new();
    format!("{r:?}")
}

#[test]
fn domain_counts_are_unobservable_in_reports() {
    let mut spec = cell(SystemKind::Vertigo);
    spec.domains = Some(1);
    let base = spec.run();
    let base_canon = canon(base.report.clone());
    assert!(base.report.flows_completed > 0, "cell must carry traffic");
    assert_eq!(base.report.domains, 1);
    assert_eq!(base.report.domain_peak_pending.len(), 1);
    assert!(base.report.barrier_epochs > 0);
    assert_eq!(
        base.report.cross_domain_packets, 0,
        "one domain has no boundary to cross"
    );
    for n in [2usize, 4, 8] {
        let mut spec = cell(SystemKind::Vertigo);
        spec.domains = Some(n);
        let out = spec.run();
        assert_eq!(out.report.domains, n as u64);
        assert_eq!(out.report.domain_peak_pending.len(), n);
        assert_eq!(
            out.report.barrier_epochs, base.report.barrier_epochs,
            "the barrier grid is partition-independent"
        );
        assert_eq!(
            canon(out.report),
            base_canon,
            "--domains {n} diverged from --domains 1"
        );
        assert_eq!(
            format!("{:?}", out.ordering),
            format!("{:?}", base.ordering)
        );
        assert_eq!(format!("{:?}", out.marking), format!("{:?}", base.marking));
        assert_eq!(out.max_port_bytes, base.max_port_bytes);
    }
}

#[test]
fn domain_equivalence_holds_under_faults() {
    let faults = FaultSchedule::parse("loss:*:0.002@2ms-8ms").unwrap();
    let mut spec = cell(SystemKind::Vertigo);
    spec.faults = faults;
    spec.domains = Some(1);
    let base = spec.run();
    assert!(
        base.report.fault_events > 0,
        "the loss window must actually intervene for this test to bite"
    );
    let base_canon = canon(base.report);
    for n in [2usize, 4, 8] {
        let mut spec = cell(SystemKind::Vertigo);
        spec.faults = faults;
        spec.domains = Some(n);
        let out = spec.run();
        assert_eq!(
            canon(out.report),
            base_canon,
            "--domains {n} diverged under faults"
        );
    }
}

#[test]
fn domain_equivalence_holds_on_a_fat_tree() {
    // k = 4 fat-tree: 16 hosts, per-pod zones — exercises the multi-zone
    // partition path (leaf-spine collapses to per-leaf zones).
    let mut base_spec = cell(SystemKind::Ecmp);
    base_spec.topo = TopoKind::FatTree { k: 4 };
    base_spec.domains = Some(1);
    let base = base_spec.run();
    let base_canon = canon(base.report);
    for n in [2usize, 4] {
        let mut spec = cell(SystemKind::Ecmp);
        spec.topo = TopoKind::FatTree { k: 4 };
        spec.domains = Some(n);
        let out = spec.run();
        assert_eq!(
            canon(out.report),
            base_canon,
            "--domains {n} diverged on the fat-tree"
        );
    }
}

#[test]
fn domains_above_the_zone_count_run_one_a_zone() {
    // The k = 4 fat-tree has eight zones, four pods and four cores: the
    // domains past them would own no node.
    let run = |n: usize| {
        let mut spec = cell(SystemKind::Ecmp);
        spec.topo = TopoKind::FatTree { k: 4 };
        spec.domains = Some(n);
        spec.run()
    };
    let base = run(1);
    let out = run(1000);
    assert_eq!(out.report.domains, 8);
    assert_eq!(out.report.domain_peak_pending.len(), 8);
    assert_eq!(canon(out.report), canon(base.report));
}

/// One domain records into the run's recorder, queries included: incast
/// replies and their queries fold as they finish, as in the classic loop,
/// and what the recorder holds at the horizon is what still runs.
#[test]
fn one_domain_folds_what_finishes() {
    let mut dsim = DomainSimulation::from_sim(cell(SystemKind::Vertigo).build(), 1);
    let report = dsim.run();
    assert!(
        report.queries_completed > 0,
        "the incast must answer queries"
    );
    let rec = dsim.recorder();
    let finished = rec.flows.values().filter(|f| f.finished.is_some()).count();
    assert_eq!(finished, 0, "finished records left behind");
    assert_eq!(
        rec.flows.len() as u64,
        report.flows_started - report.flows_completed
    );
    assert!(rec.queries.values().all(|q| q.finished.is_none()));
    assert_eq!(
        rec.queries.len() as u64,
        report.queries_started - report.queries_completed
    );
}

/// The off-grid horizon and sample interval of [`off_grid_run`]: the
/// instants both engines sample at, k · interval for k = 1, 2, … up to
/// the horizon.
#[test]
fn both_engines_sample_at_the_same_instants() {
    let (horizon, interval) = (4_000_777u64, 33_333u64);
    let build = || {
        let mut spec = cell(SystemKind::Vertigo);
        spec.horizon = SimDuration::from_nanos(horizon);
        let mut sim = spec.build();
        sim.enable_telemetry(TelemetryConfig {
            interval: SimDuration::from_nanos(interval),
        });
        sim
    };
    let instants = |tel: Option<&Telemetry>| -> Vec<u64> {
        let samples = &tel.expect("telemetry was enabled").samples;
        samples.iter().map(|s| s.at.as_nanos()).collect()
    };
    let want: Vec<u64> = (1..=horizon / interval).map(|k| k * interval).collect();
    let mut classic = build();
    classic.run();
    assert_eq!(instants(classic.telemetry()), want, "classic engine");
    let mut dsim = DomainSimulation::from_sim(build(), 1);
    dsim.run();
    assert_eq!(instants(dsim.telemetry()), want, "--domains 1");
}

/// Everything a run with off-grid window ends produced: the barrier loop
/// caps windows at the horizon and at every telemetry sample, and neither
/// is a multiple of the 500 ns lookahead quantum here, so most samples and
/// the final window cut a calendar slot in two.
fn off_grid_run(faults: FaultSchedule, n: usize) -> (String, String, u64) {
    let mut spec = cell(SystemKind::Vertigo);
    spec.horizon = SimDuration::from_nanos(4_000_777);
    spec.faults = faults;
    let mut sim = spec.build();
    sim.enable_telemetry(TelemetryConfig {
        interval: SimDuration::from_nanos(33_333),
    });
    let mut dsim = DomainSimulation::from_sim(sim, n);
    let report = dsim.run();
    assert!(report.flows_completed > 0, "cell must carry traffic");
    assert_eq!(
        report.fault_events > 0,
        !faults.is_empty(),
        "a fault window must actually intervene"
    );
    let samples = &dsim.telemetry().expect("telemetry was enabled").samples;
    assert_eq!(samples.len(), 4_000_777 / 33_333);
    (canon(report), format!("{samples:?}"), dsim.max_port_bytes())
}

fn assert_off_grid_runs_agree(faults: FaultSchedule) {
    let base = off_grid_run(faults, 1);
    for n in [2usize, 4] {
        assert_eq!(
            off_grid_run(faults, n),
            base,
            "--domains {n} diverged with off-grid window ends"
        );
    }
}

#[test]
fn domain_equivalence_holds_when_windows_end_off_the_grid() {
    assert_off_grid_runs_agree(FaultSchedule::new());
}

#[test]
fn off_grid_windows_and_a_fault_window_compose() {
    // The fault window's edges are off the grid too.
    assert_off_grid_runs_agree(FaultSchedule::parse("loss:*:0.002@1000333ns-3000111ns").unwrap());
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 6, // each case runs two whole simulations
        ..ProptestConfig::default()
    })]

    /// For any system, seed, fault window, and domain count, the
    /// domain engine's results match its own `--domains 1` run exactly.
    #[test]
    fn any_domain_count_matches_one(
        system in prop_oneof![Just(SystemKind::Ecmp), Just(SystemKind::Vertigo)],
        n in 2usize..=8,
        seed in 1u64..100,
        with_faults in any::<bool>(),
    ) {
        let make = |domains: usize| {
            let mut spec = cell(system);
            spec.seed = seed;
            spec.domains = Some(domains);
            if with_faults {
                spec.faults = FaultSchedule::parse("loss:*:0.001@1ms-6ms").unwrap();
            }
            spec
        };
        let base = make(1).run();
        let out = make(n).run();
        prop_assert_eq!(canon(out.report), canon(base.report));
        prop_assert_eq!(out.max_port_bytes, base.max_port_bytes);
    }
}

/// Everything `--domains 1` decides about a run, as text: the scheduler
/// counters, the FCT/QCT percentiles (bit patterns), drops by cause,
/// deflections, and the hosts' ordering and marking counters. Leaves out
/// what a build feature moves (`audit_checks`).
fn pin_text(
    r: &Report,
    ordering: &vertigo::core::OrderingStats,
    marking: &vertigo::core::MarkingStats,
) -> String {
    let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    format!(
        "ev={} peak={} epochs={} flows={}/{} queries={}/{} fct={:?} qct={:?} goodput={} \
         drops={:?} defl={} retx={} rtos={} ecn={} faults={} ord={ordering:?} mark={marking:?}",
        r.events_scheduled,
        r.peak_pending_events,
        r.barrier_epochs,
        r.flows_completed,
        r.flows_started,
        r.queries_completed,
        r.queries_started,
        bits(&[r.fct_mean, r.fct_p50, r.fct_p99, r.fct_mice_p99]),
        bits(&[r.qct_mean, r.qct_p50, r.qct_p99]),
        r.goodput_gbps.to_bits(),
        r.drops_by_cause,
        r.deflections,
        r.retransmits,
        r.rtos,
        r.ecn_marks,
        r.fault_events,
    )
}

/// The leaf-spine cell (40 G fabric: a fabric `TxDone` lands inside the
/// window that scheduled it) straight through `--domains 1`.
fn pinned_leaf_spine(seed: u64) -> String {
    let mut spec = cell(SystemKind::Vertigo);
    spec.seed = seed;
    spec.domains = Some(1);
    let out = spec.run();
    pin_text(&out.report, &out.ordering, &out.marking)
}

/// A fat-tree k = 4 Vertigo + DCTCP cell whose windows end off the grid
/// (horizon and telemetry interval are no multiples of the 500 ns quantum)
/// and whose first edge switch stalls for 300 µs, so split calendar slots
/// and deferred events are inside the pin.
fn pinned_fat_tree(seed: u64) -> String {
    let mut spec = cell(SystemKind::Vertigo);
    spec.topo = TopoKind::FatTree { k: 4 };
    spec.seed = seed;
    spec.horizon = SimDuration::from_nanos(6_000_777);
    spec.faults = FaultSchedule::parse("stall:16@1000333ns-1300111ns").unwrap();
    let mut sim = spec.build();
    sim.enable_telemetry(TelemetryConfig {
        interval: SimDuration::from_nanos(33_333),
    });
    let mut dsim = DomainSimulation::from_sim(sim, 1);
    let report = dsim.run();
    assert!(report.fault_events > 0, "the stall must defer something");
    pin_text(&report, &dsim.ordering_stats(), &dsim.marking_stats())
}

/// The tie rule of the domain engine, pinned. The suites above compare N
/// domains against one inside a single build, so a rule changed for every
/// N at once passes them; these hashes were taken from the tree that still
/// injected due arrivals into the wheel at each barrier, and a scheduler
/// that orders one tie differently moves them.
#[test]
fn one_domain_runs_are_the_pinned_ones() {
    for (seed, leaf_spine, fat_tree) in PINNED {
        for (what, text, pinned) in [
            ("leaf-spine", pinned_leaf_spine(seed), leaf_spine),
            ("fat-tree", pinned_fat_tree(seed), fat_tree),
        ] {
            assert_eq!(
                vertigo::netsim::trace::stable_hash(text.as_bytes()),
                pinned,
                "{what}, seed {seed}: {text}"
            );
        }
    }
}

/// `(seed, leaf-spine hash, fat-tree hash)`.
const PINNED: [(u64, u64, u64); 3] = [
    (1, 0x4f58_e5ff_d68c_ce7b, 0xceaa_7b21_61fc_20d8),
    (2, 0x4623_aa23_ec5a_239f, 0x3faa_fb9f_0916_b550),
    (3, 0x4a15_db0a_062d_2ffb, 0x7cb7_166a_5cd7_887c),
];
