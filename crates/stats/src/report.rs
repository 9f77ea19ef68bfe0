//! Turning raw records into the paper's reported quantities.

use crate::recorder::{Recorder, DROP_CAUSES};
use crate::summary::{mean, percentile_sorted, Cdf};
use vertigo_simcore::SimTime;

/// Flows below this size are "mice" in the paper's §2 analysis.
pub const MICE_BYTES: u64 = 100 * 1000;
/// Flows above this size are "elephants" (Fig. 1f).
pub const ELEPHANT_BYTES: u64 = 10 * 1000 * 1000;

/// Aggregate results of one simulation run — one row of a paper figure.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Simulated horizon in seconds.
    pub horizon_secs: f64,

    /// Flows started / completed.
    pub flows_started: u64,
    /// Flows whose last byte arrived before the horizon.
    pub flows_completed: u64,
    /// Mean FCT over completed flows (seconds).
    pub fct_mean: f64,
    /// Median FCT (seconds).
    pub fct_p50: f64,
    /// 99th-percentile FCT (seconds).
    pub fct_p99: f64,
    /// Mean FCT of mice flows (< 100 KB).
    pub fct_mice_mean: f64,
    /// 99th-percentile FCT of mice flows.
    pub fct_mice_p99: f64,

    /// Queries issued / completed.
    pub queries_started: u64,
    /// Queries fully answered before the horizon.
    pub queries_completed: u64,
    /// Mean QCT over completed queries (seconds).
    pub qct_mean: f64,
    /// Median QCT (seconds).
    pub qct_p50: f64,
    /// 99th-percentile QCT (seconds).
    pub qct_p99: f64,

    /// Application goodput over the horizon (Gbps).
    pub goodput_gbps: f64,
    /// Goodput of elephant flows (> 10 MB), Mbps (Fig. 1f).
    pub elephant_goodput_mbps: f64,

    /// Packet drops (all causes).
    pub drops: u64,
    /// Packet drops split by [`crate::DropCause`] index (fault-injection
    /// causes occupy the upper half of the array).
    pub drops_by_cause: [u64; DROP_CAUSES],
    /// Drop fraction of transmitted data packets.
    pub drop_rate: f64,
    /// Deflection events.
    pub deflections: u64,
    /// PABO backward bounces (subset of `deflections`). Like
    /// `audit_checks`, the four per-policy deflection counters are
    /// excluded from every stdout/CSV table so runs under the default
    /// policies emit byte-identical output to historical tables.
    pub pabo_bounces: u64,
    /// Hybrid-policy overflows resolved by deflection (subset of
    /// `deflections`; excluded from tables).
    pub hybrid_deflects: u64,
    /// Hybrid-policy overflows resolved by drop-and-retransmit (excluded
    /// from tables).
    pub hybrid_retx_drops: u64,
    /// Bounce-bounded packets dropped at the bounce cap (excluded from
    /// tables).
    pub bounded_cap_drops: u64,
    /// Mean switch hops per delivered data packet.
    pub mean_hops: f64,
    /// Out-of-order arrivals seen by the transport, per delivered packet.
    pub reorder_rate: f64,
    /// Retransmitted segments.
    pub retransmits: u64,
    /// RTO firings.
    pub rtos: u64,
    /// ECN marks applied.
    pub ecn_marks: u64,

    /// Total events ever scheduled on the simulator's event queue — a
    /// measure of how much work the run was (filled in
    /// by the simulation driver after the event loop finishes).
    pub events_scheduled: u64,
    /// High-water mark of pending events in the queue. Deflection storms
    /// show up here as a spike over quiet runs.
    pub peak_pending_events: u64,

    /// Domain count of the parallel engine that produced this report
    /// (0: the classic single-queue engine). Like `audit_checks`, the
    /// four domain-engine fields below are excluded from every
    /// stdout/CSV table so `--domains N` output stays byte-identical to
    /// `--domains 1` and to historical tables.
    pub domains: u64,
    /// Lookahead barrier epochs executed by the domain engine.
    pub barrier_epochs: u64,
    /// Packets that crossed a domain boundary and were taken in by the
    /// receiving domain (counted when its round absorbs the sender's
    /// batch, so a few may still be in flight at the horizon). Depends on
    /// the partition (not domain-count-invariant) — a load-balance
    /// diagnostic, not a result.
    pub cross_domain_packets: u64,
    /// Per-domain high-water marks of events pending at a barrier: the
    /// domain's wheel, its inbox, and what was handed over to it. Length
    /// equals `domains`; partition-dependent diagnostic.
    pub domain_peak_pending: Vec<u64>,

    /// Fault-injection interventions (fault drops + stall/pause event
    /// deferrals). Zero on fault-free runs.
    pub fault_events: u64,
    /// Conservation-audit invariant evaluations performed: zero in a
    /// release build unless it resumed a debug build's checkpoint;
    /// intentionally excluded from every stdout/CSV table so debug and
    /// release builds emit byte-identical output.
    pub audit_checks: u64,

    /// Sorted FCT samples (seconds) for CDF plotting.
    pub fct_samples: Vec<f64>,
    /// Sorted QCT samples (seconds) for CDF plotting.
    pub qct_samples: Vec<f64>,

    /// Per-tenant / per-scenario-component breakdowns, one entry per tag
    /// present in the recorder (tag 0 groups base-workload flows). Empty
    /// on runs without a `--workload` scenario — and, like `audit_checks`
    /// and the domain fields, excluded from every stdout/CSV table so
    /// scenario-free output stays byte-identical to historical tables.
    pub tenants: Vec<TenantReport>,
}

/// FCT/QCT breakdown of one tenant (scenario component) of a run.
#[derive(Debug, Clone, Default)]
pub struct TenantReport {
    /// Scenario-component tag (0: flows of the base figure workload).
    pub tag: u8,
    /// Display label (`ScenarioSpec::apply_labels` rewrites this to the
    /// tenant name or `kind#i`; defaults to `tag<N>`).
    pub label: String,
    /// Flows started under this tag.
    pub flows_started: u64,
    /// Flows completed before the horizon.
    pub flows_completed: u64,
    /// Mean FCT over completed flows (seconds).
    pub fct_mean: f64,
    /// Median FCT (seconds).
    pub fct_p50: f64,
    /// 99th-percentile FCT (seconds).
    pub fct_p99: f64,
    /// Queries issued under this tag.
    pub queries_started: u64,
    /// Queries fully answered before the horizon.
    pub queries_completed: u64,
    /// Mean QCT over completed queries (seconds).
    pub qct_mean: f64,
    /// 99th-percentile QCT (seconds).
    pub qct_p99: f64,
    /// Bytes offered (sum of flow sizes) under this tag.
    pub bytes_offered: u64,
    /// Unique bytes delivered under this tag.
    pub bytes_delivered: u64,
    /// Delivered-bytes goodput over the horizon (Gbps).
    pub goodput_gbps: f64,
}

impl Report {
    /// Builds a report from the recorder at the simulation horizon.
    pub fn from_recorder(rec: &Recorder, horizon: SimTime) -> Report {
        let horizon_secs = horizon.as_secs_f64().max(1e-12);

        let mut fct = Vec::new();
        let mut fct_mice = Vec::new();
        let mut elephant_bytes: u64 = 0;
        let mut elephant_active_secs: f64 = 0.0;
        for f in rec.flows.values() {
            if let Some(s) = f.fct_secs() {
                fct.push(s);
                if f.bytes < MICE_BYTES {
                    fct_mice.push(s);
                }
            }
            if f.bytes > ELEPHANT_BYTES {
                // Elephant goodput: unique bytes delivered (finished or
                // not) over the time the flow was active in the horizon.
                let end = f.finished.unwrap_or(horizon);
                let active = end.saturating_since(f.start).as_secs_f64();
                elephant_bytes += f.delivered_bytes;
                elephant_active_secs += active.max(1e-9);
            }
        }
        fct.sort_by(|a, b| a.partial_cmp(b).expect("NaN fct"));
        fct_mice.sort_by(|a, b| a.partial_cmp(b).expect("NaN fct"));

        let mut qct = Vec::new();
        for q in rec.queries.values() {
            if let Some(s) = q.qct_secs() {
                qct.push(s);
            }
        }
        qct.sort_by(|a, b| a.partial_cmp(b).expect("NaN qct"));

        let data_sent = rec.data_sent.max(1);
        let delivered = rec.data_delivered.max(1);

        // Per-tenant breakdowns only exist on tagged (scenario) runs, so
        // scenario-free reports stay structurally identical to historical
        // ones (`tenants` empty).
        let tenants = if rec.flow_tags.is_empty() && rec.query_tags.is_empty() {
            Vec::new()
        } else {
            Self::tenant_breakdowns(rec, horizon_secs)
        };

        Report {
            horizon_secs,
            flows_started: rec.flows.len() as u64,
            flows_completed: fct.len() as u64,
            fct_mean: mean(&fct),
            fct_p50: percentile_sorted(&fct, 0.50),
            fct_p99: percentile_sorted(&fct, 0.99),
            fct_mice_mean: mean(&fct_mice),
            fct_mice_p99: percentile_sorted(&fct_mice, 0.99),
            queries_started: rec.queries.len() as u64,
            queries_completed: qct.len() as u64,
            qct_mean: mean(&qct),
            qct_p50: percentile_sorted(&qct, 0.50),
            qct_p99: percentile_sorted(&qct, 0.99),
            goodput_gbps: rec.goodput_bytes as f64 * 8.0 / horizon_secs / 1e9,
            elephant_goodput_mbps: if elephant_active_secs > 0.0 {
                elephant_bytes as f64 * 8.0 / elephant_active_secs / 1e6
            } else {
                0.0
            },
            drops: rec.total_drops(),
            drops_by_cause: rec.drops,
            drop_rate: rec.total_drops() as f64 / data_sent as f64,
            deflections: rec.deflections,
            pabo_bounces: rec.pabo_bounces,
            hybrid_deflects: rec.hybrid_deflects,
            hybrid_retx_drops: rec.hybrid_retx_drops,
            bounded_cap_drops: rec.bounded_cap_drops,
            mean_hops: rec.hops_delivered as f64 / delivered as f64,
            reorder_rate: rec.transport_reorders as f64 / delivered as f64,
            retransmits: rec.retransmits,
            rtos: rec.rtos,
            ecn_marks: rec.ecn_marks,
            events_scheduled: 0,
            peak_pending_events: 0,
            domains: 0,
            barrier_epochs: 0,
            cross_domain_packets: 0,
            domain_peak_pending: Vec::new(),
            fault_events: rec.fault_events,
            audit_checks: rec.audit.checks,
            fct_samples: fct,
            qct_samples: qct,
            tenants,
        }
    }

    /// Groups flows and queries by scenario tag (0 = base workload) and
    /// summarizes each group. Tags with no flows and no queries cannot
    /// occur (tags are only assigned at schedule time), so every entry is
    /// backed by traffic.
    fn tenant_breakdowns(rec: &Recorder, horizon_secs: f64) -> Vec<TenantReport> {
        use std::collections::BTreeMap;
        let mut by_tag: BTreeMap<u8, TenantReport> = BTreeMap::new();
        fn entry(m: &mut BTreeMap<u8, TenantReport>, tag: u8) -> &mut TenantReport {
            m.entry(tag).or_insert_with(|| TenantReport {
                tag,
                label: format!("tag{tag}"),
                ..TenantReport::default()
            })
        }
        let mut fct: BTreeMap<u8, Vec<f64>> = BTreeMap::new();
        for f in rec.flows.values() {
            let tag = rec.flow_tag(f.flow);
            let t = entry(&mut by_tag, tag);
            t.flows_started += 1;
            t.bytes_offered += f.bytes;
            t.bytes_delivered += f.delivered_bytes;
            if let Some(s) = f.fct_secs() {
                t.flows_completed += 1;
                fct.entry(tag).or_default().push(s);
            }
        }
        let mut qct: BTreeMap<u8, Vec<f64>> = BTreeMap::new();
        for q in rec.queries.values() {
            let tag = rec.query_tag(q.query);
            let t = entry(&mut by_tag, tag);
            t.queries_started += 1;
            if let Some(s) = q.qct_secs() {
                t.queries_completed += 1;
                qct.entry(tag).or_default().push(s);
            }
        }
        for (tag, t) in &mut by_tag {
            if let Some(samples) = fct.get_mut(tag) {
                samples.sort_by(|a, b| a.partial_cmp(b).expect("NaN fct"));
                t.fct_mean = mean(samples);
                t.fct_p50 = percentile_sorted(samples, 0.50);
                t.fct_p99 = percentile_sorted(samples, 0.99);
            }
            if let Some(samples) = qct.get_mut(tag) {
                samples.sort_by(|a, b| a.partial_cmp(b).expect("NaN qct"));
                t.qct_mean = mean(samples);
                t.qct_p99 = percentile_sorted(samples, 0.99);
            }
            t.goodput_gbps = t.bytes_delivered as f64 * 8.0 / horizon_secs / 1e9;
        }
        by_tag.into_values().collect()
    }

    /// Fraction of started flows that completed (1.0 when none started).
    pub fn flow_completion_ratio(&self) -> f64 {
        if self.flows_started == 0 {
            1.0
        } else {
            self.flows_completed as f64 / self.flows_started as f64
        }
    }

    /// Fraction of issued queries that completed (1.0 when none issued).
    pub fn query_completion_ratio(&self) -> f64 {
        if self.queries_started == 0 {
            1.0
        } else {
            self.queries_completed as f64 / self.queries_started as f64
        }
    }

    /// FCT CDF for plotting.
    pub fn fct_cdf(&self, max_points: usize) -> Cdf {
        Cdf::from_samples(&self.fct_samples, max_points)
    }

    /// QCT CDF for plotting.
    pub fn qct_cdf(&self, max_points: usize) -> Cdf {
        Cdf::from_samples(&self.qct_samples, max_points)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::DropCause;
    use vertigo_pkt::{FlowId, NodeId, QueryId};

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    #[test]
    fn report_over_mixed_run() {
        let mut r = Recorder::new();
        // Two background flows: one completes, one doesn't.
        r.flow_started(FlowId(1), QueryId::NONE, NodeId(0), NodeId(1), 50_000, t(0));
        r.flow_started(FlowId(2), QueryId::NONE, NodeId(2), NodeId(3), 50_000, t(0));
        r.flow_finished(FlowId(1), t(200));
        // One query with two flows, both complete.
        r.query_started(QueryId(1), 2, t(100));
        r.flow_started(FlowId(3), QueryId(1), NodeId(4), NodeId(0), 40_000, t(100));
        r.flow_started(FlowId(4), QueryId(1), NodeId(5), NodeId(0), 40_000, t(100));
        r.flow_finished(FlowId(3), t(300));
        r.flow_finished(FlowId(4), t(400));
        r.data_sent = 100;
        r.data_delivered = 90;
        r.hops_delivered = 360;
        r.goodput_bytes = 130_000;
        r.on_drop(DropCause::QueueFull, 1500);

        let rep = Report::from_recorder(&r, SimTime::from_millis(1));
        assert_eq!(rep.flows_started, 4);
        assert_eq!(rep.flows_completed, 3);
        assert!((rep.flow_completion_ratio() - 0.75).abs() < 1e-9);
        assert_eq!(rep.queries_completed, 1);
        assert!((rep.qct_mean - 300e-6).abs() < 1e-12);
        assert!((rep.mean_hops - 4.0).abs() < 1e-9);
        assert!((rep.drop_rate - 0.01).abs() < 1e-9);
        // goodput = 130 KB * 8 / 1 ms = 1.04 Gbps
        assert!((rep.goodput_gbps - 1.04).abs() < 1e-6);
        // All three finished flows are mice.
        assert_eq!(rep.fct_mice_mean, rep.fct_mean);
    }

    #[test]
    fn elephant_goodput() {
        let mut r = Recorder::new();
        r.flow_started(
            FlowId(1),
            QueryId::NONE,
            NodeId(0),
            NodeId(1),
            20_000_000,
            t(0),
        );
        r.flow_progress(FlowId(1), 20_000_000);
        r.flow_finished(FlowId(1), SimTime::from_millis(20));
        let rep = Report::from_recorder(&r, SimTime::from_millis(100));
        // 20 MB over 20 ms = 8 Gbps = 8000 Mbps.
        assert!((rep.elephant_goodput_mbps - 8000.0).abs() < 1.0);
        // A half-delivered elephant still contributes goodput.
        let mut r2 = Recorder::new();
        r2.flow_started(
            FlowId(2),
            QueryId::NONE,
            NodeId(0),
            NodeId(1),
            100_000_000,
            t(0),
        );
        r2.flow_progress(FlowId(2), 25_000_000);
        let rep2 = Report::from_recorder(&r2, SimTime::from_millis(100));
        // 25 MB over the 100 ms horizon = 2 Gbps.
        assert!((rep2.elephant_goodput_mbps - 2000.0).abs() < 1.0);
    }

    #[test]
    fn empty_run_is_safe() {
        let r = Recorder::new();
        let rep = Report::from_recorder(&r, SimTime::from_millis(1));
        assert_eq!(rep.flows_started, 0);
        assert_eq!(rep.flow_completion_ratio(), 1.0);
        assert_eq!(rep.qct_mean, 0.0);
        assert!(rep.tenants.is_empty());
    }

    #[test]
    fn tenant_breakdowns_group_by_tag() {
        let mut r = Recorder::new();
        // An untagged base flow plus two tagged tenants; tenant 2 also
        // owns a query.
        r.flow_started(FlowId(1), QueryId::NONE, NodeId(0), NodeId(1), 10_000, t(0));
        r.flow_finished(FlowId(1), t(100));
        r.flow_started(FlowId(2), QueryId::NONE, NodeId(2), NodeId(3), 20_000, t(0));
        r.tag_flow(FlowId(2), 1);
        r.flow_progress(FlowId(2), 20_000);
        r.flow_finished(FlowId(2), t(200));
        r.query_started(QueryId(1), 1, t(0));
        r.tag_query(QueryId(1), 2);
        r.flow_started(FlowId(3), QueryId(1), NodeId(4), NodeId(0), 30_000, t(0));
        r.tag_flow(FlowId(3), 2);
        r.flow_finished(FlowId(3), t(300));

        let rep = Report::from_recorder(&r, SimTime::from_millis(1));
        assert_eq!(rep.tenants.len(), 3);
        let tags: Vec<u8> = rep.tenants.iter().map(|t| t.tag).collect();
        assert_eq!(tags, vec![0, 1, 2]);
        let base = &rep.tenants[0];
        assert_eq!((base.flows_started, base.flows_completed), (1, 1));
        assert!((base.fct_mean - 100e-6).abs() < 1e-12);
        let t1 = &rep.tenants[1];
        assert_eq!(t1.bytes_offered, 20_000);
        assert_eq!(t1.bytes_delivered, 20_000);
        // 20 KB over 1 ms = 0.16 Gbps.
        assert!((t1.goodput_gbps - 0.16).abs() < 1e-9);
        let t2 = &rep.tenants[2];
        assert_eq!((t2.queries_started, t2.queries_completed), (1, 1));
        assert!((t2.qct_mean - 300e-6).abs() < 1e-12);
        assert_eq!(t2.label, "tag2");
        // Global aggregates are unaffected by tagging.
        assert_eq!(rep.flows_started, 3);
        assert_eq!(rep.queries_started, 1);
    }
}
