//! One repetition of a cell: build, run on the cell's engine with every
//! phase timed from outside, and reduce the outcome to a digest line and
//! a flat list of counts.

use crate::cells::{Cell, SLICES};
use crate::json::Json;
use std::time::Instant;
use vertigo_core::{MarkingStats, OrderingStats};
use vertigo_netsim::{DomainSimulation, Simulation};
use vertigo_simcore::{SimDuration, SimTime};
use vertigo_stats::{percentile_sorted, DropCause, Report};
use vertigo_workload::RunSpec;

/// What a finished run produced, on either engine.
pub struct Outcome {
    /// The paper's metrics.
    pub report: Report,
    /// Host ordering-shim counters.
    pub ordering: OrderingStats,
    /// Host marking counters.
    pub marking: MarkingStats,
    /// Largest single-port queue observed.
    pub max_port_bytes: u64,
}

/// Timings and results of one repetition.
pub struct Rep {
    /// `RunSpec::build()`, plus `DomainSimulation::from_sim` on the
    /// domain engine.
    pub setup_ns: u64,
    /// `drain_until` per simulated-time slice; empty on the domain
    /// engine, whose `run` cannot be sliced.
    pub slice_ns: Vec<u64>,
    /// `finalize()`; 0 on the domain engine (inside `run`).
    pub finalize_ns: u64,
    /// First slice start to report in hand.
    pub whole_ns: u64,
    /// Behavioural digest of the outcome.
    pub digest: String,
    /// Simulated results and layer counts, by name.
    pub counts: Json,
}

fn ns_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// Drains `sim` to its horizon slice by slice. Only `drain_until` sits
/// between the two clock reads; `after` runs outside the timed region.
pub fn drain_sliced(
    sim: &mut Simulation,
    horizon: SimDuration,
    mut after: impl FnMut(usize, u64, &mut Simulation),
) {
    for i in 1..=SLICES {
        let limit =
            SimTime::ZERO + SimDuration::from_nanos(horizon.as_nanos() * i as u64 / SLICES as u64);
        let t = Instant::now();
        sim.drain_until(limit);
        let ns = ns_since(t);
        after(i, ns, sim);
    }
}

/// Collects the outcome of a classic-engine run that has been drained.
pub fn finish_classic(spec: &RunSpec, sim: &mut Simulation) -> Outcome {
    let mut report = sim.finalize();
    spec.scenario.apply_labels(&mut report);
    Outcome {
        report,
        ordering: sim.ordering_stats(),
        marking: sim.marking_stats(),
        max_port_bytes: sim.max_port_bytes(),
    }
}

/// Runs one untraced repetition of `cell`.
pub fn run(cell: &Cell) -> Rep {
    let spec = &cell.spec;
    let t = Instant::now();
    let sim = spec.build();
    match spec.domains {
        None => {
            let setup_ns = ns_since(t);
            let mut sim = sim;
            let mut slice_ns = Vec::with_capacity(SLICES);
            let whole = Instant::now();
            drain_sliced(&mut sim, spec.horizon, |_, ns, _| slice_ns.push(ns));
            let t = Instant::now();
            let out = finish_classic(spec, &mut sim);
            let finalize_ns = ns_since(t);
            let whole_ns = ns_since(whole);
            Rep {
                setup_ns,
                slice_ns,
                finalize_ns,
                whole_ns,
                digest: digest(&out),
                counts: counts(&out),
            }
        }
        Some(n) => {
            let mut dsim = DomainSimulation::from_sim(sim, n);
            let setup_ns = ns_since(t);
            let whole = Instant::now();
            let out = run_domains(spec, &mut dsim);
            let whole_ns = ns_since(whole);
            Rep {
                setup_ns,
                slice_ns: Vec::new(),
                finalize_ns: 0,
                whole_ns,
                digest: digest(&out),
                counts: counts(&out),
            }
        }
    }
}

/// Runs a partitioned simulation to its horizon.
pub fn run_domains(spec: &RunSpec, dsim: &mut DomainSimulation) -> Outcome {
    let mut report = dsim.run();
    spec.scenario.apply_labels(&mut report);
    Outcome {
        report,
        ordering: dsim.ordering_stats(),
        marking: dsim.marking_stats(),
        max_port_bytes: dsim.max_port_bytes(),
    }
}

/// The outcome of `spec` through the stock entry point, for checks that
/// slicing and piecewise set-up change nothing.
pub fn plain_digest(spec: &RunSpec) -> String {
    let out = spec.run();
    digest(&Outcome {
        report: out.report,
        ordering: out.ordering,
        marking: out.marking,
        max_port_bytes: out.max_port_bytes,
    })
}

/// One line pinning the run's behaviour: the field list of
/// `examples/audit_digest.rs`, extended. Audit-, trace- and
/// partition-dependent counters are left out, so the line is the same in
/// every build and for every domain count.
pub fn digest(o: &Outcome) -> String {
    let r = &o.report;
    let drops: Vec<String> = DropCause::ALL
        .iter()
        .map(|c| format!("{}={}", c.label(), r.drops_by_cause[c.index()]))
        .collect();
    let (ord, mk) = (&o.ordering, &o.marking);
    format!(
        "flows={}/{} queries={}/{} drops={} [{}] deflections={} retx={} rtos={} ecn={} \
         fct_mean_ps={} fct_p99_ps={} qct_p99_ps={} goodput_bps={} hops_milli={} \
         reorder_ppm={} events={} peak_pending={} max_port_bytes={} \
         ord={}/{}/{}/{}/{}/{}/{}/{} mark={}/{}/{}",
        r.flows_completed,
        r.flows_started,
        r.queries_completed,
        r.queries_started,
        r.drops,
        drops.join(" "),
        r.deflections,
        r.retransmits,
        r.rtos,
        r.ecn_marks,
        (r.fct_mean * 1e12) as u64,
        (r.fct_p99 * 1e12) as u64,
        (r.qct_p99 * 1e12) as u64,
        (r.goodput_gbps * 1e9) as u64,
        (r.mean_hops * 1e3) as u64,
        (r.reorder_rate * 1e6) as u64,
        r.events_scheduled,
        r.peak_pending_events,
        o.max_port_bytes,
        ord.in_order,
        ord.buffered,
        ord.gap_filled,
        ord.timeout_released,
        ord.timeouts,
        ord.late_or_dup,
        ord.dup_dropped,
        ord.max_depth,
        mk.marked,
        mk.retransmissions,
        mk.filter_overflows,
    )
}

/// Simulated results and per-layer counts of a run, by name.
pub fn counts(o: &Outcome) -> Json {
    let r = &o.report;
    let goodput_bytes = r.goodput_gbps * 1e9 / 8.0 * r.horizon_secs;
    let ord_seen = o.ordering.in_order + o.ordering.buffered + o.ordering.late_or_dup;
    let mut j = Json::obj();
    j.set("goodput_bytes", goodput_bytes)
        .set("goodput_gbps", r.goodput_gbps)
        .set("fct_p50_us", r.fct_p50 * 1e6)
        .set("fct_p99_us", r.fct_p99 * 1e6)
        .set("qct_p90_us", percentile_sorted(&r.qct_samples, 0.90) * 1e6)
        .set("qct_p99_us", r.qct_p99 * 1e6)
        .set("flows_started", r.flows_started)
        .set("flows_completed", r.flows_completed)
        .set("queries_started", r.queries_started)
        .set("queries_completed", r.queries_completed)
        .set("events", r.events_scheduled)
        .set("peak_pending", r.peak_pending_events)
        .set("deflections", r.deflections)
        .set("drops", r.drops)
        .set("ecn_marks", r.ecn_marks)
        .set("mean_hops", r.mean_hops)
        .set("retransmits", r.retransmits)
        .set("rtos", r.rtos)
        .set("reorder_rate", r.reorder_rate)
        .set("marked", o.marking.marked)
        .set("mark_retransmissions", o.marking.retransmissions)
        .set(
            "ord_buffered_share",
            o.ordering.buffered as f64 / ord_seen.max(1) as f64,
        )
        .set("ord_seen", ord_seen)
        .set("ord_buffered", o.ordering.buffered)
        .set("ord_timeouts", o.ordering.timeouts)
        .set("ord_max_depth", o.ordering.max_depth as u64)
        .set("barrier_epochs", r.barrier_epochs)
        .set("cross_domain_packets", r.cross_domain_packets);
    j
}

impl Rep {
    /// The repetition as one JSON object (child process to parent).
    pub fn to_json(&self) -> Json {
        let mut j = Json::obj();
        j.set("setup_ns", self.setup_ns)
            .set("slice_ns", Json::nums(&self.slice_ns))
            .set("finalize_ns", self.finalize_ns)
            .set("whole_ns", self.whole_ns)
            .set("digest", self.digest.as_str())
            .set("counts", self.counts.clone());
        j
    }

    /// Reads back [`Rep::to_json`].
    pub fn from_json(j: &Json) -> Result<Rep, String> {
        let u = |k: &str| {
            j.get(k)
                .and_then(Json::num)
                .map(|n| n as u64)
                .ok_or_else(|| format!("repetition result lacks {k}"))
        };
        Ok(Rep {
            setup_ns: u("setup_ns")?,
            slice_ns: j
                .get("slice_ns")
                .ok_or("repetition result lacks slice_ns")?
                .items()
                .iter()
                .map(|n| {
                    n.num()
                        .map(|n| n as u64)
                        .ok_or("slice_ns holds a non-number")
                })
                .collect::<Result<_, _>>()?,
            finalize_ns: u("finalize_ns")?,
            whole_ns: u("whole_ns")?,
            digest: j
                .get("digest")
                .and_then(Json::str)
                .ok_or("repetition result lacks digest")?
                .to_owned(),
            counts: j
                .get("counts")
                .cloned()
                .ok_or("repetition result lacks counts")?,
        })
    }

    /// Count `name` (0 when the run did not produce it).
    pub fn count(&self, name: &str) -> f64 {
        self.counts.get(name).and_then(Json::num).unwrap_or(0.0)
    }
}
