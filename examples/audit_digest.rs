//! Prints a behavioral digest of one fixed run. CI runs this example
//! twice — once as a debug build, where the audit layer is live, and once
//! with `--release`, where it is compiled out — and diffs the output: the
//! audit layer must observe without perturbing, so the two digests have
//! to be byte-identical. (Audit-only counters such as
//! `Report::audit_checks` are deliberately excluded.)
//!
//! ```sh
//! cargo run --example audit_digest
//! cargo run --release --example audit_digest
//! ```

use vertigo::simcore::SimDuration;
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
    // Two runs: fault-free, and under a loss window (faults must also be
    // build-invariant since their RNG stream is forked independently).
    for (tag, fspec) in [("clean", ""), ("faulted", "loss:*:0.01@1ms-15ms")] {
        let mut s = RunSpec::new(SystemKind::Vertigo, CcKind::Dctcp, wl);
        s.topo = TopoKind::LeafSpine { hosts_per_leaf: 4 };
        s.horizon = SimDuration::from_millis(20);
        s.seed = 17;
        s.faults = FaultSchedule::parse(fspec).expect("valid spec");
        let out = s.run();
        let r = &out.report;
        println!(
            "{tag} flows={} queries={} drops={} deflections={} retx={} rtos={} \
             fault_events={} fct_ps={} goodput_mbps={} buffered={} timeout_rel={} boosted={}",
            r.flows_completed,
            r.queries_completed,
            r.drops,
            r.deflections,
            r.retransmits,
            r.rtos,
            r.fault_events,
            (r.fct_mean * 1e12) as u64,
            (r.goodput_gbps * 1e9) as u64,
            out.ordering.buffered,
            out.ordering.timeout_released,
            out.marking.retransmissions,
        );
        let labels: Vec<String> = vertigo::stats::DropCause::ALL
            .iter()
            .map(|c| format!("{}={}", c.label(), r.drops_by_cause[c.index()]))
            .collect();
        println!("{tag} drops: {}", labels.join(" "));
    }
}
