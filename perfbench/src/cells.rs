//! The four pinned cells. Each is a batch job of stated size — fixed
//! topology, horizon and seed — whose arrivals are an open loop drawn
//! from the seed before the run (Poisson background, ON-OFF tenants,
//! incast queries), so the load offered never depends on how fast the
//! host simulates it.
//!
//! Horizons are sized so one repetition takes about a second on the
//! 2-vCPU sizing box: the wall-time estimator needs some twenty
//! repetitions per run, and a run has twenty seconds.

use vertigo_simcore::SimDuration;
use vertigo_transport::CcKind;
use vertigo_workload::{
    BackgroundSpec, DistKind, IncastSpec, RunSpec, ScenarioSpec, SystemKind, TopoKind, WorkloadSpec,
};

/// One benchmark workload.
pub struct Cell {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Why the cell exists and which layers it bypasses.
    pub why: &'static str,
    /// The run.
    pub spec: RunSpec,
    /// Wall seconds one repetition takes on the sizing box, child start
    /// to exit. It fixes how many repetitions a run makes, and a
    /// repetition running ten times longer is killed and counted failed.
    pub expected_s: f64,
}

impl Cell {
    /// Repetitions of a run that measures for `seconds`: as many as fit
    /// on the sizing box, and at least three so that a minimum across
    /// them means something. Deliberately a function of the budget and
    /// the cell only — see `repetitions` in `bin/perf.rs`.
    pub fn reps_in(&self, seconds: f64) -> usize {
        ((seconds / self.expected_s).round() as usize).max(3)
    }
}

/// Workload names, in reporting order.
pub const NAMES: [&str; 4] = [
    "ls_burst_vertigo",
    "ls_bg_ecmp_swift",
    "ft_soak",
    "ft_soak_d1",
];

/// Equal simulated-time slices `drain_until` is called on, each timed on
/// its own (see the estimator in `README.md`).
pub const SLICES: usize = 10000;

/// Aggregate host capacity of the 64-host leaf-spine (10 Gbps links).
const LS_HOST_BW_BPS: u64 = 64 * 10_000_000_000;

/// The `soak` subcommand's default scenario on the 128-host fat-tree.
const SOAK_SCENARIO: &str =
    "onoff:load=0.3,on=1ms,off=3ms,dist=datamining,tenant=bursty,hosts=0-63 \
     + bg:load=0.15,tenant=svc,hosts=64-127 \
     + incast:scale=16,size=40k,load=0.1,sync=10us";

fn incast(load: f64) -> IncastSpec {
    IncastSpec {
        qps: IncastSpec::qps_for_load(load, 16, 40_000, LS_HOST_BW_BPS),
        scale: 16,
        flow_bytes: 40_000,
    }
}

fn soak(horizon_us: u64) -> RunSpec {
    let base = WorkloadSpec {
        background: Some(BackgroundSpec {
            load: 0.10,
            dist: DistKind::CacheFollower,
        }),
        incast: None,
    };
    let mut s = RunSpec::new(SystemKind::Vertigo, CcKind::Dctcp, base);
    s.topo = TopoKind::FatTree { k: 8 };
    s.scenario = ScenarioSpec::parse(SOAK_SCENARIO).expect("soak scenario parses");
    s.horizon = SimDuration::from_micros(horizon_us);
    s
}

/// The cell called `name` at `seed`; `quick` divides the horizon by ten
/// (smoke tests). `None` for an unknown name.
pub fn cell(name: &str, seed: u64, quick: bool) -> Option<Cell> {
    let (name, why, mut spec, expected_s) = match name {
        "ls_burst_vertigo" => {
            let wl = WorkloadSpec {
                background: Some(BackgroundSpec {
                    load: 0.50,
                    dist: DistKind::CacheFollower,
                }),
                incast: Some(incast(0.25)),
            };
            let mut s = RunSpec::new(SystemKind::Vertigo, CcKind::Dctcp, wl);
            s.horizon = SimDuration::from_micros(6_000);
            (
                NAMES[0],
                "fig5 burst regime on the leaf-spine: marking, PIEO queues, deflection and the \
                 ordering shim all work; bypasses nothing",
                s,
                0.8,
            )
        }
        "ls_bg_ecmp_swift" => {
            // The 5 % incast gives the cell queries to report a QCT on;
            // under ECMP it still deflects, marks and reorders nothing.
            let wl = WorkloadSpec {
                background: Some(BackgroundSpec {
                    load: 0.60,
                    dist: DistKind::WebSearch,
                }),
                incast: Some(incast(0.05)),
            };
            let mut s = RunSpec::new(SystemKind::Ecmp, CcKind::Swift, wl);
            s.horizon = SimDuration::from_micros(20_000);
            (
                NAMES[1],
                "bypass cell: ECMP FIFO queues and Swift pacing, so core.* and deflection do no \
                 work; an optimisation of those layers must show no change here",
                s,
                1.1,
            )
        }
        "ft_soak" => (
            NAMES[2],
            "fat-tree k=8 multi-tenant soak on the classic engine: larger working set, so \
             set-up, memory, stats and workload planning show; moderate deflection",
            soak(6_000),
            0.9,
        ),
        "ft_soak_d1" => {
            let mut s = soak(6_000);
            s.domains = Some(1);
            (
                NAMES[3],
                "the ft_soak spec through the domain engine (outboxes, mailbox, barrier grid) on \
                 one thread: the pair ft_soak/ft_soak_d1 judges the one-engine item",
                s,
                1.3,
            )
        }
        _ => return None,
    };
    spec.seed = seed;
    if quick {
        spec.horizon = SimDuration::from_nanos(spec.horizon.as_nanos() / 10);
    }
    Some(Cell {
        name,
        why,
        spec,
        expected_s: if quick { expected_s / 10.0 } else { expected_s },
    })
}
