//! The figure workload: Poisson background load plus the incast
//! application, as every paper figure offers them.
//!
//! Both are *pre-scheduled* into the simulation's event queue before
//! `run()`, planned by the scenario planner ([`crate::scenario`]) on RNG
//! streams forked off the run's seed — so the offered traffic is identical
//! across the systems being compared (paired comparison, the same
//! methodology the paper's figures rely on).

use crate::dists::DistKind;
use crate::scenario::{
    install_component, plan_one, validate_component, ComponentKind, ComponentPlan, IncastRate,
    PlanContext, ScenarioComponent,
};
use vertigo_netsim::Simulation;
use vertigo_simcore::{SimDuration, SimRng, SimTime};

/// Background (all-to-all) traffic at a target fraction of aggregate host
/// capacity.
#[derive(Debug, Clone, Copy)]
pub struct BackgroundSpec {
    /// Offered load as a fraction of total host link capacity (0.0–1.0).
    pub load: f64,
    /// Flow size distribution.
    pub dist: DistKind,
}

/// The incast application of §4.1: clients periodically query `scale`
/// random servers, each of which replies with `flow_bytes` immediately.
#[derive(Debug, Clone, Copy)]
pub struct IncastSpec {
    /// Queries per second, network-wide.
    pub qps: f64,
    /// Servers per query (the paper's "incast scale").
    pub scale: usize,
    /// Reply size per server (the paper's "incast flow size").
    pub flow_bytes: u64,
}

impl IncastSpec {
    /// The offered load this incast pattern adds, as a fraction of
    /// `total_bw_bps`.
    pub fn offered_load(&self, total_bw_bps: u64) -> f64 {
        self.qps * self.scale as f64 * self.flow_bytes as f64 * 8.0 / total_bw_bps as f64
    }

    /// Solves for the QPS that makes this incast contribute `load`
    /// fraction of `total_bw_bps`.
    pub fn qps_for_load(load: f64, scale: usize, flow_bytes: u64, total_bw_bps: u64) -> f64 {
        load * total_bw_bps as f64 / (scale as f64 * flow_bytes as f64 * 8.0)
    }

    /// Plans and schedules the query process over `[from, horizon)`:
    /// perfectly synchronized replies, all hosts, no tenant. `from` is
    /// zero for a straight run and the phase boundary for a deferred
    /// incast. The planner draws from a stream forked off the run *seed*
    /// (forking never consults the simulator clock or RNG state), so the
    /// arrivals are a pure function of `(self, from, seed)`: installing
    /// after draining to `from` — or after restoring a checkpoint taken
    /// before it — schedules what installing at build time would.
    pub(crate) fn install_from(
        &self,
        sim: &mut Simulation,
        from: SimDuration,
    ) -> Result<(), String> {
        let component = self.component(from, sim.horizon())?;
        let rng = sim.rng().fork(STREAM_INCAST);
        install_component(sim, &component, rng, None)
    }

    /// The query process over `[from, horizon)` as a scenario component.
    fn component(
        &self,
        from: SimDuration,
        horizon: SimDuration,
    ) -> Result<ScenarioComponent, String> {
        let kind = ComponentKind::Incast {
            scale: u32::try_from(self.scale).map_err(|_| "incast scale overflows u32")?,
            bytes: self.flow_bytes,
            rate: IncastRate::Qps(self.qps),
            sync: SimDuration::ZERO,
        };
        let component = all_hosts(kind, Some((SimTime::ZERO + from, SimTime::ZERO + horizon)));
        validate_component(&component)?;
        Ok(component)
    }
}

/// A figure-workload component: every host, no tenant.
fn all_hosts(kind: ComponentKind, window: Option<(SimTime, SimTime)>) -> ScenarioComponent {
    ScenarioComponent {
        kind,
        hosts: None,
        tenant: None,
        window,
    }
}

/// The complete offered workload of one run.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadSpec {
    /// Background component, if any.
    pub background: Option<BackgroundSpec>,
    /// Incast component, if any.
    pub incast: Option<IncastSpec>,
}

impl WorkloadSpec {
    /// Total offered load fraction on the given topology capacity.
    pub fn offered_load(&self, total_bw_bps: u64) -> f64 {
        let bg = self.background.map_or(0.0, |b| b.load);
        let inc = self.incast.map_or(0.0, |i| i.offered_load(total_bw_bps));
        bg + inc
    }

    /// Pre-schedules every flow arrival of this workload into `sim`.
    /// Panics if the topology cannot carry it (fewer than two hosts, an
    /// incast scale the host count cannot serve); the staged driver
    /// reports the same message as a [`RunError`](crate::RunError).
    pub fn install(&self, sim: &mut Simulation) {
        self.try_install(sim)
            .unwrap_or_else(|e| panic!("workload: {e}"))
    }

    pub(crate) fn try_install(&self, sim: &mut Simulation) -> Result<(), String> {
        for (c, rng) in self.components(sim.rng(), sim.horizon())? {
            install_component(sim, &c, rng, None)?;
        }
        Ok(())
    }

    /// Plans every arrival [`WorkloadSpec::install`] schedules, component
    /// by component in schedule order (background, then incast), without
    /// a simulator: `base` is the run's RNG (its seed is all that is read).
    pub fn plan(&self, base: &SimRng, ctx: &PlanContext) -> Result<Vec<ComponentPlan>, String> {
        (self.components(base, ctx.horizon)?.into_iter())
            .map(|(c, rng)| plan_one(&c, rng, ctx))
            .collect()
    }

    /// The components this workload installs, each with the stream it
    /// plans from, in install order.
    fn components(
        &self,
        base: &SimRng,
        horizon: SimDuration,
    ) -> Result<Vec<(ScenarioComponent, SimRng)>, String> {
        let mut out = Vec::new();
        if let Some(bg) = self.background.filter(|bg| bg.load != 0.0) {
            if !(bg.load > 0.0 && bg.load < 2.0) {
                return Err(format!("background load {} out of range", bg.load));
            }
            let kind = ComponentKind::Background {
                load: bg.load,
                dist: bg.dist,
            };
            out.push((all_hosts(kind, None), base.fork(STREAM_BACKGROUND)));
        }
        if let Some(inc) = self.incast {
            let c = inc.component(SimDuration::ZERO, horizon)?;
            out.push((c, base.fork(STREAM_INCAST)));
        }
        Ok(out)
    }
}

/// The RNG stream ids the figure workload has always drawn from (forked
/// off the simulation seed). Scenario components fork `0x5CE4` and then
/// their index; keeping these two is what keeps every committed digest,
/// golden trace and quick CSV where it is.
const STREAM_BACKGROUND: u64 = 0xB6;
const STREAM_INCAST: u64 = 0x1C;

#[cfg(test)]
mod tests {
    use super::*;
    use vertigo_netsim::{HostConfig, LinkParams, SimConfig, SwitchConfig, TopologySpec};
    use vertigo_transport::{CcKind, TransportConfig};

    fn sim(horizon_ms: u64, seed: u64) -> Simulation {
        Simulation::new(&SimConfig {
            topology: TopologySpec::LeafSpine {
                spines: 2,
                leaves: 4,
                hosts_per_leaf: 4,
                host_link: LinkParams::gbps(10, 500),
                fabric_link: LinkParams::gbps(40, 500),
            },
            switch: SwitchConfig::ecmp(),
            host: HostConfig::plain(TransportConfig::default_for(CcKind::Dctcp)),
            horizon: SimDuration::from_millis(horizon_ms),
            seed,
        })
    }

    fn background(load: f64, dist: DistKind) -> WorkloadSpec {
        WorkloadSpec {
            background: Some(BackgroundSpec { load, dist }),
            incast: None,
        }
    }

    #[test]
    fn background_load_is_calibrated() {
        // Offered bytes over the horizon should match load × capacity.
        // Flows are counted when they start, so run the sim first.
        let mut s = sim(200, 1);
        background(0.30, DistKind::CacheFollower).install(&mut s);
        let _ = s.run();
        let total = s.recorder().bytes_offered() as f64;
        let capacity_bytes = 16.0 * 10e9 / 8.0 * 0.2; // 16 hosts, 10G, 200 ms
        let measured_load = total / capacity_bytes;
        assert!(
            (measured_load - 0.30).abs() < 0.08,
            "offered load {measured_load:.3} should be ≈ 0.30"
        );
    }

    /// What `workload` schedules into `s`, planned without running it.
    fn planned(workload: &WorkloadSpec, s: &Simulation) -> Vec<ComponentPlan> {
        let plans = workload.plan(s.rng(), &PlanContext::of(s));
        plans.expect("the workload plans")
    }

    #[test]
    fn incast_queries_have_right_shape() {
        let s = sim(100, 2);
        let workload = WorkloadSpec {
            background: None,
            incast: Some(IncastSpec {
                qps: 500.0,
                scale: 8,
                flow_bytes: 40_000,
            }),
        };
        let plans = planned(&workload, &s);
        let [plan] = &plans[..] else {
            panic!("one component: the incast")
        };
        // ~50 queries in 100 ms at 500 QPS.
        let nq = plan.queries.len();
        assert!((25..=85).contains(&nq), "query count {nq}");
        for q in &plan.queries {
            assert_eq!(q.fanout, 8);
        }
        // Every query flow goes *to* the query's client: all 8 flows of a
        // query share one dst.
        for qi in 0..nq as u32 {
            let replies = || plan.flows.iter().filter(|f| f.query == Some(qi));
            let dsts: std::collections::BTreeSet<_> = replies().map(|f| f.dst).collect();
            assert_eq!(dsts.len(), 1, "one client per query");
            let srcs: std::collections::BTreeSet<_> = replies().map(|f| f.src).collect();
            assert_eq!(srcs.len(), 8, "servers must be distinct");
            assert!(!srcs.contains(dsts.iter().next().unwrap()));
        }
    }

    #[test]
    fn workload_offered_load_math() {
        let inc = IncastSpec {
            qps: 4000.0,
            scale: 100,
            flow_bytes: 40_000,
        };
        // 4000 * 100 * 40 KB * 8 = 128 Gbit/s.
        let total_bw = 320 * 10_000_000_000u64; // paper topology: 3.2 Tbps
        assert!((inc.offered_load(total_bw) - 0.04).abs() < 1e-9);
        let qps = IncastSpec::qps_for_load(0.04, 100, 40_000, total_bw);
        assert!((qps - 4000.0).abs() < 1e-6);
    }

    #[test]
    fn same_seed_same_workload() {
        let flows = |seed| {
            let s = sim(50, seed);
            let plans = planned(&background(0.2, DistKind::WebSearch), &s);
            (plans.iter().flat_map(|p| &p.flows))
                .map(|f| (f.src, f.dst, f.bytes))
                .collect::<Vec<_>>()
        };
        assert_eq!(flows(5), flows(5));
        assert_ne!(flows(5), flows(6));
    }
}
