//! The traced pass: one extra repetition whose set-up is rebuilt
//! piecewise from public parts, with a span around every call into a
//! layer and the recorder's counters read at the same boundaries. Its
//! digest must equal the untraced one; what it costs over an untraced
//! repetition is reported as `netsim.sim.trace_overhead_pct`.

use crate::cells::{Cell, SLICES};
use crate::rep::{self, Outcome, Rep};
use crate::spans::Tracer;
use vertigo_netsim::{DomainSimulation, LinkParams, SimConfig, Simulation, TopologySpec};
use vertigo_simcore::{SnapReader, SnapWriter};
use vertigo_workload::{PlanContext, RunSpec, TopoKind};

/// Drain spans per pass; each covers `SLICES / GROUPS` timed slices.
pub const GROUPS: usize = 100;

/// Switches allocation counting on or off, and reads (allocations,
/// bytes) counted so far. The counting allocator lives in the binary.
pub struct AllocHooks {
    /// Arms or disarms counting.
    pub arm: fn(bool),
    /// Totals since the process began.
    pub read: fn() -> (u64, u64),
}

/// The spec of a domain cell run twice more: on the classic engine (the
/// base of `netsim.domain.ns_per_event_over_classic`) and on two domains
/// (what the threads cost, and the partition-invariance check).
pub struct DomainRefs {
    /// Classic engine, build excluded: host nanoseconds.
    pub classic_ns: u64,
    /// Classic engine: events scheduled.
    pub classic_events: u64,
    /// Two domains, build and partition excluded: host nanoseconds.
    pub two_ns: u64,
    /// Two domains: packets that crossed the partition.
    pub cross_domain_packets: u64,
}

/// What the traced pass measured beyond its spans.
pub struct Traced {
    /// The repetition, comparable with untraced ones.
    pub rep: Rep,
    /// Allocations and bytes during drain and finalize (or the domain
    /// engine's `run`).
    pub allocs: (u64, u64),
    /// CSR route-table entries of the topology.
    pub route_entries: u64,
    /// The workload's offered load as a share of host capacity.
    pub offered_load: f64,
    /// Bytes of the mid-run snapshot (0 on the domain engine).
    pub snapshot_bytes: u64,
    /// Pure `drain_until` nanoseconds and packets delivered, per drain
    /// span (empty on the domain engine).
    pub groups: Vec<(u64, u64)>,
    /// Reference runs of a domain cell; `None` on classic cells.
    pub domain_refs: Option<DomainRefs>,
    /// Whether every check inside the pass held (snapshot round trip,
    /// one domain against two).
    pub consistent: bool,
}

/// `RunSpec::build()` from its public parts, a span around each.
fn build_piecewise(spec: &RunSpec, t: &mut Tracer) -> (Simulation, u64, f64) {
    assert!(spec.faults.is_empty(), "benchmark cells inject no faults");
    let id = t.enter("perf.setup");
    let topo = t.span("netsim.topology.build", |_| {
        match spec.topo {
            TopoKind::LeafSpine { hosts_per_leaf } => {
                TopologySpec::paper_leaf_spine(hosts_per_leaf)
            }
            TopoKind::FatTree { k } => TopologySpec::FatTree {
                k,
                link: LinkParams::gbps(10, 500),
            },
        }
        .build()
    });
    // `Simulation::new_with_events` computes the routes again; this span
    // exists to time and size them on their own.
    let rid = t.enter("netsim.topology.routes");
    let route_entries = topo.switch_routes().total_entries() as u64;
    t.exit(rid, &[("route_entries", route_entries as f64)]);
    let cfg = SimConfig {
        topology: TopologySpec::Custom(topo),
        switch: spec.switch_config(),
        host: spec.host_config(),
        horizon: spec.horizon,
        seed: spec.seed,
    };
    let mut sim = t.span("netsim.sim.new", |_| {
        Simulation::new_with_events(&cfg, spec.event_backend)
    });
    t.span("workload.install", |_| {
        spec.workload.install(&mut sim);
        if !spec.scenario.is_empty() {
            spec.scenario.install(&mut sim);
        }
    });
    t.exit(id, &[]);

    let total_bw = sim.topology().total_host_bw_bps();
    let hosts = sim.num_hosts();
    let offered = spec.workload.offered_load(total_bw)
        + spec.scenario.offered_load(&PlanContext {
            num_hosts: hosts,
            host_bw_bps: total_bw / hosts.max(1) as u64,
            horizon: spec.horizon,
        });
    (sim, route_entries, offered)
}

/// Saves the simulation's state and restores it in place; true when the
/// restore succeeded. The run continues from the restored state, so its
/// digest shows whether the round trip was exact.
fn snapshot_round_trip(sim: &mut Simulation, t: &mut Tracer) -> (u64, bool) {
    let id = t.enter("netsim.sim.snapshot_save");
    let mut w = SnapWriter::new();
    sim.save_state(&mut w);
    let bytes = w.into_bytes();
    t.exit(id, &[("bytes", bytes.len() as f64)]);
    let id = t.enter("netsim.sim.snapshot_restore");
    let ok = sim.restore_state(&mut SnapReader::new(&bytes)).is_ok();
    t.exit(id, &[]);
    (bytes.len() as u64, ok)
}

/// Runs the traced pass of `cell`, recording into `t`.
pub fn run(cell: &Cell, t: &mut Tracer, alloc: &AllocHooks) -> Traced {
    let spec = &cell.spec;
    let root = t.enter("perf.pass");
    let setup_start = std::time::Instant::now();
    let (sim, route_entries, offered_load) = build_piecewise(spec, t);
    let traced = match spec.domains {
        None => {
            let setup_ns = setup_start.elapsed().as_nanos() as u64;
            run_classic(spec, sim, t, alloc, setup_ns)
        }
        Some(n) => {
            let mut dsim = t.span("netsim.domain.partition", |_| {
                DomainSimulation::from_sim(sim, n)
            });
            let setup_ns = setup_start.elapsed().as_nanos() as u64;
            run_domain(spec, &mut dsim, t, alloc, setup_ns)
        }
    };
    t.exit(root, &[]);
    Traced {
        route_entries,
        offered_load,
        ..traced
    }
}

fn counted<T>(alloc: &AllocHooks, f: impl FnOnce() -> T) -> (T, (u64, u64)) {
    let before = (alloc.read)();
    (alloc.arm)(true);
    let out = f();
    (alloc.arm)(false);
    let after = (alloc.read)();
    (out, (after.0 - before.0, after.1 - before.1))
}

fn run_classic(
    spec: &RunSpec,
    mut sim: Simulation,
    t: &mut Tracer,
    alloc: &AllocHooks,
    setup_ns: u64,
) -> Traced {
    let per_group = SLICES / GROUPS;
    let mut slice_ns = Vec::with_capacity(SLICES);
    let mut groups = Vec::with_capacity(GROUPS);
    let mut snapshot = (0, true);
    let whole = std::time::Instant::now();

    let ((out, finalize_ns), allocs) = counted(alloc, || {
        let drain = t.enter("netsim.sim.drain");
        let mut group = t.enter("netsim.sim.slice");
        let mut group_ns = 0u64;
        let mut seen = (0u64, 0u64, 0u64);
        rep::drain_sliced(&mut sim, spec.horizon, |i, ns, sim| {
            slice_ns.push(ns);
            group_ns += ns;
            if i % per_group != 0 {
                return;
            }
            let rec = sim.recorder();
            let now = (rec.data_delivered, rec.deflections, rec.total_drops());
            t.exit(
                group,
                &[
                    ("drain_ns", group_ns as f64),
                    ("delivered", (now.0 - seen.0) as f64),
                    ("deflections", (now.1 - seen.1) as f64),
                    ("drops", (now.2 - seen.2) as f64),
                ],
            );
            groups.push((group_ns, now.0 - seen.0));
            (seen, group_ns) = (now, 0);
            if i == SLICES / 2 {
                // The snapshot is its own measurement, not part of the
                // run's allocation profile.
                (alloc.arm)(false);
                snapshot = snapshot_round_trip(sim, t);
                (alloc.arm)(true);
            }
            if i < SLICES {
                group = t.enter("netsim.sim.slice");
            }
        });
        t.exit(drain, &[]);

        let fin = t.enter("stats.report.finalize");
        let finalize_start = std::time::Instant::now();
        let out = rep::finish_classic(spec, &mut sim);
        let finalize_ns = finalize_start.elapsed().as_nanos() as u64;
        t.exit(fin, &[("flows_retained", out.report.flows_started as f64)]);
        (out, finalize_ns)
    });

    Traced {
        rep: Rep {
            setup_ns,
            slice_ns,
            finalize_ns,
            whole_ns: whole.elapsed().as_nanos() as u64,
            digest: rep::digest(&out),
            counts: rep::counts(&out),
        },
        allocs,
        route_entries: 0,
        offered_load: 0.0,
        snapshot_bytes: snapshot.0,
        groups,
        domain_refs: None,
        consistent: snapshot.1,
    }
}

fn run_domain(
    spec: &RunSpec,
    dsim: &mut DomainSimulation,
    t: &mut Tracer,
    alloc: &AllocHooks,
    setup_ns: u64,
) -> Traced {
    let id = t.enter("netsim.domain.run");
    let whole = std::time::Instant::now();
    let (out, allocs): (Outcome, _) = counted(alloc, || rep::run_domains(spec, dsim));
    let whole_ns = whole.elapsed().as_nanos() as u64;
    t.exit(
        id,
        &[
            ("barrier_epochs", out.report.barrier_epochs as f64),
            (
                "cross_domain_packets",
                out.report.cross_domain_packets as f64,
            ),
        ],
    );
    let digest = rep::digest(&out);

    let mut classic = *spec;
    classic.domains = None;
    let id = t.enter("perf.reference.classic");
    let mut sim = classic.build();
    let start = std::time::Instant::now();
    let classic_events = sim.run().events_scheduled;
    let classic_ns = start.elapsed().as_nanos() as u64;
    t.exit(id, &[("events", classic_events as f64)]);

    let mut two = *spec;
    two.domains = Some(2);
    let id = t.enter("perf.reference.domains2");
    let mut dsim2 = DomainSimulation::from_sim(two.build(), 2);
    let start = std::time::Instant::now();
    let out2 = rep::run_domains(&two, &mut dsim2);
    let two_ns = start.elapsed().as_nanos() as u64;
    let cross_domain_packets = out2.report.cross_domain_packets;
    t.exit(id, &[("cross_domain_packets", cross_domain_packets as f64)]);

    Traced {
        consistent: rep::digest(&out2) == digest,
        rep: Rep {
            setup_ns,
            slice_ns: Vec::new(),
            finalize_ns: 0,
            whole_ns,
            digest,
            counts: rep::counts(&out),
        },
        allocs,
        route_entries: 0,
        offered_load: 0.0,
        snapshot_bytes: 0,
        groups: Vec::new(),
        domain_refs: Some(DomainRefs {
            classic_ns,
            classic_events,
            two_ns,
            cross_domain_packets,
        }),
    }
}
