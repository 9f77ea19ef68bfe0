//! Prints a behavioral digest of fixed runs with provenance tracing
//! armed. CI runs this example twice — once compiled plain (where
//! `enable_trace` is an empty no-op) and once with `--features trace` —
//! and diffs the output: tracing must observe without perturbing, so
//! the two digests have to be byte-identical.
//!
//! ```sh
//! cargo run --release --example trace_digest
//! cargo run --release --features trace --example trace_digest
//! ```

use vertigo::simcore::SimDuration;
use vertigo::stats::TraceFilter;
use vertigo::transport::CcKind;
use vertigo::workload::{
    BackgroundSpec, DistKind, FaultSchedule, IncastSpec, RunSpec, SystemKind, TopoKind,
    WorkloadSpec,
};

fn main() {
    let wl = WorkloadSpec {
        background: Some(BackgroundSpec {
            load: 0.4,
            dist: DistKind::WebSearch,
        }),
        incast: Some(IncastSpec {
            qps: 500.0,
            scale: 10,
            flow_bytes: 40_000,
        }),
    };
    // Clean and faulted runs: trace hooks sit on the fault-drop path and
    // in both queue disciplines, so both cells must stay feature-invariant.
    for (tag, fspec) in [("clean", ""), ("faulted", "loss:*:0.01@1ms-15ms")] {
        let mut s = RunSpec::new(SystemKind::Vertigo, CcKind::Dctcp, wl);
        s.topo = TopoKind::LeafSpine { hosts_per_leaf: 4 };
        s.horizon = SimDuration::from_millis(20);
        s.seed = 17;
        s.faults = FaultSchedule::parse(fspec).expect("valid spec");
        let mut sim = s.build();
        // Unfiltered, so every hook site fires (a no-op when the
        // binary is compiled without the feature).
        sim.enable_trace(TraceFilter::default(), 1 << 12);
        let r = sim.run();
        let ord = sim.ordering_stats();
        println!(
            "{tag} flows={} queries={} drops={} deflections={} retx={} \
             rtos={} fault_events={} fct_ps={} goodput_mbps={} buffered={} timeout_rel={}",
            r.flows_completed,
            r.queries_completed,
            r.drops,
            r.deflections,
            r.retransmits,
            r.rtos,
            r.fault_events,
            (r.fct_mean * 1e12) as u64,
            (r.goodput_gbps * 1e9) as u64,
            ord.buffered,
            ord.timeout_released,
        );
        let labels: Vec<String> = vertigo::stats::DropCause::ALL
            .iter()
            .map(|c| format!("{}={}", c.label(), r.drops_by_cause[c.index()]))
            .collect();
        println!("{tag} drops: {}", labels.join(" "));
    }
}
