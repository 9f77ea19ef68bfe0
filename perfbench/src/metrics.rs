//! Every metric the benchmark reports: its name, unit, direction and
//! regression bound, and how it is computed. `BENCHMARK.json` says the
//! same as these tables ([`benchmark_json`]); the smoke test holds the
//! two equal.

use crate::estimate::{median, quiet_wall_ns};
use crate::fixtures::MSS;
use crate::json::Json;
use crate::rep::Rep;
use crate::spans::Tracer;
use crate::traced::Traced;
use vertigo_stats::percentile_sorted;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric's definition.
pub struct MetricDef {
    /// Name: `[A-Za-z0-9_.-]+`, layer-qualified for per-layer metrics.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// before a change is rejected; end-to-end metrics only.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
        bound: None,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
        bound: None,
    }
}

/// What a user of the simulator sees, measured with tracing off.
///
/// Each bound is three times the widest quartile distance seen over ten
/// runs on ten seeds — which is how the pipeline judges the benchmark,
/// and the margin it asks for — rounded up to an even per cent and capped
/// at the 25 % the pipeline allows (numbers in `README.md`). Host time
/// spreads by up to 9.7 % on the sizing box, so it sits at the cap, as
/// does set-up by the pipeline's rule. Peak memory and the simulated
/// results repeat exactly at a seed but vary with it, since the seed
/// draws the workload, by up to 3.0 %, 3.6 % and 5.1 %. That a change
/// leaves the simulated results *exactly* equal at a given seed is
/// checked by the digest, not by a bound.
pub const END_TO_END: &[MetricDef] = &[
    e2e("wall_us_per_mb", "us/MB", Better::Lower, 0.25),
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.10),
    e2e("sim_fct_p50_us", "us", Better::Lower, 0.12),
    e2e("sim_goodput_gbps", "Gbps", Better::Higher, 0.16),
];

/// Metrics of single layers, from the traced pass: counts read from the
/// report, spans, and probes. `*.est_share` is operations times the
/// probe's ns/op over `netsim.sim.wall_s`.
pub const PER_LAYER: &[MetricDef] = &[
    lower("simcore.event.ns_per_push_pop", "ns"),
    lower("simcore.event.events", "count"),
    lower("simcore.event.peak_pending", "count"),
    lower("simcore.est_share", "ratio"),
    lower("simcore.barrier.ns_per_round", "ns"),
    lower("pkt.pool.ns_per_alloc_recycle", "ns"),
    lower("pkt.est_share", "ratio"),
    lower("core.pieo.ns_per_push_pop_min", "ns"),
    lower("core.pieo.ns_per_pop_max", "ns"),
    lower("core.marking.ns_per_mark", "ns"),
    lower("core.cuckoo.ns_per_insert_contains", "ns"),
    lower("core.ordering.ns_per_pkt_inorder", "ns"),
    lower("core.ordering.ns_per_pkt_ooo", "ns"),
    lower("core.marking.marked", "count"),
    lower("core.marking.retransmissions", "count"),
    lower("core.ordering.buffered_share", "ratio"),
    lower("core.ordering.timeouts", "count"),
    lower("core.ordering.max_depth", "count"),
    lower("core.est_share", "ratio"),
    lower("netsim.queue.ns_per_push_pop_fifo", "ns"),
    lower("netsim.queue.ns_per_push_pop_prio", "ns"),
    lower("netsim.queue.ns_per_evict_worst", "ns"),
    lower("netsim.switch.ns_per_forward", "ns"),
    lower("netsim.switch.ns_per_overflow", "ns"),
    lower("netsim.switch.deflections", "count"),
    lower("netsim.switch.drops", "count"),
    lower("netsim.switch.ecn_marks", "count"),
    lower("netsim.switch.mean_hops", "hops"),
    lower("netsim.switch.deflect_per_mb", "1/MB"),
    lower("netsim.switch.est_share", "ratio"),
    lower("netsim.topology.build_s", "s"),
    lower("netsim.topology.route_entries", "count"),
    lower("netsim.sim.wall_s", "s"),
    lower("netsim.sim.whole_run_median_s", "s"),
    higher("netsim.sim.reps", "count"),
    lower("netsim.sim.ns_per_event", "ns"),
    higher("netsim.sim.events_per_s", "1/s"),
    lower("netsim.sim.slice_ns_per_pkt_p50", "ns"),
    lower("netsim.sim.slice_ns_per_pkt_max", "ns"),
    lower("netsim.sim.allocs_per_kevent", "count"),
    lower("netsim.sim.alloc_bytes_per_kevent", "B"),
    lower("netsim.sim.snapshot_save_s", "s"),
    lower("netsim.sim.snapshot_restore_s", "s"),
    lower("netsim.sim.snapshot_bytes", "B"),
    lower("netsim.sim.residual_share", "ratio"),
    lower("netsim.sim.trace_overhead_pct", "%"),
    lower("netsim.domain.partition_s", "s"),
    lower("netsim.domain.barrier_epochs", "count"),
    lower("netsim.domain.cross_domain_packets", "count"),
    lower("netsim.domain.us_per_epoch", "us"),
    lower("netsim.domain.classic_ns_per_event", "ns"),
    lower("netsim.domain.ns_per_event_over_classic", "ratio"),
    lower("netsim.domain.d2_wall_over_d1", "ratio"),
    lower("transport.sender.ns_per_segment_acked", "ns"),
    lower("transport.sender.retransmits", "count"),
    lower("transport.sender.rtos", "count"),
    lower("transport.reorder_rate", "ratio"),
    lower("transport.est_share", "ratio"),
    lower("stats.recorder.ns_per_flow_lifecycle", "ns"),
    lower("stats.report.finalize_s", "s"),
    lower("stats.recorder.flows_retained", "count"),
    lower("stats.report.fct_p99_us", "us"),
    lower("stats.report.qct_p90_us", "us"),
    lower("stats.report.qct_p99_us", "us"),
    lower("stats.est_share", "ratio"),
    lower("workload.install_s", "s"),
    lower("workload.arrivals_planned", "count"),
    higher("workload.offered_load", "ratio"),
    lower("workload.ns_per_arrival", "ns"),
];

/// Named values, in table order.
pub type Values = Vec<(&'static str, f64)>;

/// Orders `computed` as `table` does. A name computed but not defined,
/// or defined but not computed, is a bug in this file.
fn in_table_order(table: &[MetricDef], computed: Values) -> Values {
    assert_eq!(
        computed.len(),
        table.len(),
        "metric computed twice or not at all"
    );
    table
        .iter()
        .map(|d| {
            let (_, v) = computed
                .iter()
                .find(|(n, _)| *n == d.name)
                .unwrap_or_else(|| panic!("metric {} defined but not computed", d.name));
            (d.name, *v)
        })
        .collect()
}

/// Host seconds the cell takes on a quiet box (see
/// [`quiet_wall_ns`]).
pub fn wall_s(reps: &[Rep]) -> f64 {
    quiet_wall_ns(reps) as f64 / 1e9
}

/// The end-to-end metrics of one run: `reps` are its untraced
/// repetitions (same seed, so same simulated results) and `rss_mb` each
/// child's peak resident set.
pub fn end_to_end(reps: &[Rep], rss_mb: &[f64]) -> Values {
    let first = &reps[0];
    let setups: Vec<f64> = reps.iter().map(|r| r.setup_ns as f64 / 1e9).collect();
    in_table_order(
        END_TO_END,
        vec![
            (
                "wall_us_per_mb",
                wall_s(reps) * 1e6 / (first.count("goodput_bytes") / 1e6),
            ),
            ("setup_s", median(&setups)),
            ("peak_rss_mb", median(rss_mb)),
            ("sim_fct_p50_us", first.count("fct_p50_us")),
            ("sim_goodput_gbps", first.count("goodput_gbps")),
        ],
    )
}

/// Time spent draining and finalizing, without the bookkeeping between
/// slices: what a traced and an untraced repetition are compared on.
fn busy_ns(r: &Rep) -> f64 {
    if r.slice_ns.is_empty() {
        r.whole_ns as f64
    } else {
        (r.slice_ns.iter().sum::<u64>() + r.finalize_ns) as f64
    }
}

/// The per-layer metrics of one run: `reps` are its untraced
/// repetitions, `traced` its traced pass with spans in `tracer`, and
/// `probes` the probe results.
pub fn per_layer(
    reps: &[Rep],
    traced: &Traced,
    tracer: &Tracer,
    probes: &[(&'static str, f64)],
) -> Values {
    let r = &traced.rep;
    let c = |name: &str| r.count(name);
    let p = |name: &str| {
        probes
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("probe {name} did not run"))
            .1
    };
    let wall = wall_s(reps);
    let wall_ns = wall * 1e9;
    let events = c("events");
    let segments = c("goodput_bytes") / MSS as f64;
    let whole: Vec<f64> = reps.iter().map(|r| r.whole_ns as f64 / 1e9).collect();
    let busy: Vec<f64> = reps.iter().map(busy_ns).collect();

    // Shares: operations the run performed times the probe's cost of
    // one. Data and ACK both cross the fabric and both come from the
    // pool, hence the factor two per delivered segment.
    let simcore = events * p("simcore.event.ns_per_push_pop") / wall_ns;
    let pkt = 2.0 * segments * p("pkt.pool.ns_per_alloc_recycle") / wall_ns;
    let in_order = c("ord_seen") - c("ord_buffered");
    let core = (c("marked") * p("core.marking.ns_per_mark")
        + in_order * p("core.ordering.ns_per_pkt_inorder")
        + c("ord_buffered") * p("core.ordering.ns_per_pkt_ooo"))
        / wall_ns;
    // One forward through the probe's switch also costs one pool cycle
    // and two events (end of serialization, delivery); those are counted
    // under pkt and simcore, so they come off here.
    let forward = (p("netsim.switch.ns_per_forward")
        - p("pkt.pool.ns_per_alloc_recycle")
        - 2.0 * p("simcore.event.ns_per_push_pop"))
    .max(0.0);
    let switch = (2.0 * c("mean_hops") * segments * forward
        + (c("deflections") + c("drops")) * p("netsim.switch.ns_per_overflow"))
        / wall_ns;
    let transport = segments * p("transport.sender.ns_per_segment_acked") / wall_ns;
    let stats = (c("flows_started") * p("stats.recorder.ns_per_flow_lifecycle")
        + r.finalize_ns as f64)
        / wall_ns;
    let residual = (1.0 - simcore - pkt - core - switch - transport - stats).max(0.0);

    let mut per_pkt: Vec<f64> = traced
        .groups
        .iter()
        .filter(|&&(_, delivered)| delivered > 0)
        .map(|&(ns, delivered)| ns as f64 / delivered as f64)
        .collect();
    per_pkt.sort_by(|a, b| a.partial_cmp(b).expect("finite"));

    let (classic_ns_per_event, over_classic, d2_over_d1, cross, us_per_epoch) =
        match &traced.domain_refs {
            Some(d) => {
                let base = d.classic_ns as f64 / d.classic_events.max(1) as f64;
                (
                    base,
                    r.whole_ns as f64 / events.max(1.0) / base,
                    d.two_ns as f64 / r.whole_ns as f64,
                    d.cross_domain_packets as f64,
                    wall_ns / 1e3 / c("barrier_epochs").max(1.0),
                )
            }
            None => (0.0, 0.0, 0.0, 0.0, 0.0),
        };

    let install_s = tracer.total_s("workload.install");
    let mut v: Values = probes.to_vec();
    v.extend([
        ("simcore.event.events", events),
        ("simcore.event.peak_pending", c("peak_pending")),
        ("simcore.est_share", simcore),
        ("pkt.est_share", pkt),
        ("core.marking.marked", c("marked")),
        ("core.marking.retransmissions", c("mark_retransmissions")),
        ("core.ordering.buffered_share", c("ord_buffered_share")),
        ("core.ordering.timeouts", c("ord_timeouts")),
        ("core.ordering.max_depth", c("ord_max_depth")),
        ("core.est_share", core),
        ("netsim.switch.deflections", c("deflections")),
        ("netsim.switch.drops", c("drops")),
        ("netsim.switch.ecn_marks", c("ecn_marks")),
        ("netsim.switch.mean_hops", c("mean_hops")),
        (
            "netsim.switch.deflect_per_mb",
            c("deflections") / (c("goodput_bytes") / 1e6),
        ),
        ("netsim.switch.est_share", switch),
        (
            "netsim.topology.build_s",
            tracer.total_s("netsim.topology.build") + tracer.total_s("netsim.topology.routes"),
        ),
        ("netsim.topology.route_entries", traced.route_entries as f64),
        ("netsim.sim.wall_s", wall),
        ("netsim.sim.whole_run_median_s", median(&whole)),
        ("netsim.sim.reps", reps.len() as f64),
        ("netsim.sim.ns_per_event", wall_ns / events.max(1.0)),
        ("netsim.sim.events_per_s", events / wall),
        (
            "netsim.sim.slice_ns_per_pkt_p50",
            percentile_sorted(&per_pkt, 0.5),
        ),
        (
            "netsim.sim.slice_ns_per_pkt_max",
            percentile_sorted(&per_pkt, 1.0),
        ),
        (
            "netsim.sim.allocs_per_kevent",
            traced.allocs.0 as f64 * 1e3 / events.max(1.0),
        ),
        (
            "netsim.sim.alloc_bytes_per_kevent",
            traced.allocs.1 as f64 * 1e3 / events.max(1.0),
        ),
        (
            "netsim.sim.snapshot_save_s",
            tracer.total_s("netsim.sim.snapshot_save"),
        ),
        (
            "netsim.sim.snapshot_restore_s",
            tracer.total_s("netsim.sim.snapshot_restore"),
        ),
        ("netsim.sim.snapshot_bytes", traced.snapshot_bytes as f64),
        ("netsim.sim.residual_share", residual),
        (
            "netsim.sim.trace_overhead_pct",
            (busy_ns(r) / median(&busy) - 1.0) * 100.0,
        ),
        (
            "netsim.domain.partition_s",
            tracer.total_s("netsim.domain.partition"),
        ),
        ("netsim.domain.barrier_epochs", c("barrier_epochs")),
        ("netsim.domain.cross_domain_packets", cross),
        ("netsim.domain.us_per_epoch", us_per_epoch),
        ("netsim.domain.classic_ns_per_event", classic_ns_per_event),
        ("netsim.domain.ns_per_event_over_classic", over_classic),
        ("netsim.domain.d2_wall_over_d1", d2_over_d1),
        ("transport.sender.retransmits", c("retransmits")),
        ("transport.sender.rtos", c("rtos")),
        ("transport.reorder_rate", c("reorder_rate")),
        ("transport.est_share", transport),
        (
            "stats.report.finalize_s",
            tracer.total_s("stats.report.finalize"),
        ),
        ("stats.recorder.flows_retained", c("flows_started")),
        ("stats.report.fct_p99_us", c("fct_p99_us")),
        ("stats.report.qct_p90_us", c("qct_p90_us")),
        ("stats.report.qct_p99_us", c("qct_p99_us")),
        ("stats.est_share", stats),
        ("workload.install_s", install_s),
        ("workload.arrivals_planned", c("flows_started")),
        ("workload.offered_load", traced.offered_load),
        (
            "workload.ns_per_arrival",
            install_s * 1e9 / c("flows_started").max(1.0),
        ),
    ]);
    in_table_order(PER_LAYER, v)
}

/// The contents of `BENCHMARK.json`.
pub fn benchmark_json(run_seconds: u64) -> Json {
    let metric = |d: &MetricDef| {
        let mut m = Json::obj();
        m.set("name", d.name)
            .set("unit", d.unit)
            .set("better", d.better.word());
        if let Some(b) = d.bound {
            m.set("bound", b);
        }
        m
    };
    let workloads = crate::cells::NAMES
        .iter()
        .map(|n| {
            let cell = crate::cells::cell(n, 1, false).expect("named cell exists");
            let mut w = Json::obj();
            w.set("name", cell.name).set("why", cell.why);
            w
        })
        .collect::<Vec<_>>();
    let mut j = Json::obj();
    j.set(
        "command",
        [
            "cargo",
            "run",
            "--release",
            "--quiet",
            "--offline",
            "--manifest-path",
            "perfbench/Cargo.toml",
            "--bin",
            "perf",
            "--",
        ]
        .map(Json::from)
        .to_vec(),
    )
    .set("paths", vec![Json::from("perfbench")])
    .set("run_seconds", run_seconds)
    .set("workloads", workloads)
    .set(
        "end_to_end",
        END_TO_END.iter().map(metric).collect::<Vec<_>>(),
    )
    .set(
        "per_layer",
        PER_LAYER.iter().map(metric).collect::<Vec<_>>(),
    );
    j
}
