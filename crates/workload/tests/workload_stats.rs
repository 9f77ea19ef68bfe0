//! Statistical conformance of the traffic generators: the empirical CDF
//! samplers, the Poisson arrival processes, and the ON-OFF envelope are
//! tested against their *distributions*, not just their means — a
//! generator can have the right average and still be the wrong process.
//!
//! Three layers:
//!
//! 1. **Goodness of fit** — a Kolmogorov–Smirnov test of every
//!    [`EmpiricalCdf`] sampler against its own breakpoint table (exact
//!    discrete KS, so integer rounding in `quantile` is accounted for),
//!    with a seeded-mutation vacuity guard proving the test would catch a
//!    skewed sampler.
//! 2. **Process shape** — Poisson interarrivals (mean *and* CV ≈ 1) from
//!    [`ScenarioSpec::plan`], ON-OFF duty cycle and mean burst length
//!    from [`onoff_envelope`], and a burstiness-separation check (the
//!    ON-OFF plan's index of dispersion must dwarf the Poisson plan's).
//! 3. **Conservation oracle** — each component's planned bytes must match
//!    its offered-load target over its active window, flows must stay
//!    inside their window and host subset, and full runs with a scenario
//!    must be byte-identical across thread parallelism and the domain
//!    engine.
//!
//! Everything in layers 1–2 is plan-only (no simulator), so the suite
//! stays debug-build fast.

use vertigo_simcore::{SimDuration, SimRng};
use vertigo_transport::CcKind;
use vertigo_workload::{
    onoff_envelope, BackgroundSpec, DistKind, EmpiricalCdf, PlanContext, RunSpec, ScenarioSpec,
    SystemKind, TopoKind, WorkloadSpec,
};

// ---------------------------------------------------------------------
// Layer 1: Kolmogorov–Smirnov goodness of fit
// ---------------------------------------------------------------------

/// The exact CDF of the *sampler* at integer size `x`: `P(sample <= x)`,
/// recovered by binary search on the monotone quantile function. Because
/// `quantile` rounds to whole bytes, this includes the atom mass at `x` —
/// the KS comparison below is against the true discrete distribution, not
/// the continuous interpolant, so rounding cannot inflate the statistic.
fn sampler_cdf(d: &EmpiricalCdf, x: u64) -> f64 {
    let (mut lo, mut hi) = (0.0f64, 1.0f64);
    for _ in 0..60 {
        let mid = (lo + hi) / 2.0;
        if d.quantile(mid) <= x {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo
}

/// Two-sided KS statistic of `samples` against the sampler's own discrete
/// distribution: sup over observed values of the distance between the
/// empirical CDF and [`sampler_cdf`], evaluated on both sides of each
/// atom.
fn ks_statistic(d: &EmpiricalCdf, samples: &mut [u64]) -> f64 {
    samples.sort_unstable();
    let n = samples.len() as f64;
    let mut stat = 0.0f64;
    let mut i = 0;
    while i < samples.len() {
        let v = samples[i];
        let mut j = i;
        while j < samples.len() && samples[j] == v {
            j += 1;
        }
        let emp_before = i as f64 / n;
        let emp_after = j as f64 / n;
        let f_before = if v == 0 { 0.0 } else { sampler_cdf(d, v - 1) };
        let f_after = sampler_cdf(d, v);
        stat = stat
            .max((emp_before - f_before).abs())
            .max((emp_after - f_after).abs());
        i = j;
    }
    stat
}

/// N = 40 000 puts the 1 % KS critical value at 1.63/sqrt(N) ≈ 0.0081;
/// the 0.015 threshold is ~2× that — far from flaky for a correct
/// sampler, far below the distortion any real sampler bug produces (the
/// vacuity guard measures one at > 0.1).
const KS_SAMPLES: usize = 40_000;
const KS_THRESHOLD: f64 = 0.015;

#[test]
fn ks_all_three_cdfs_conform() {
    for (i, kind) in DistKind::ALL.iter().enumerate() {
        let d = kind.cdf();
        let mut rng = SimRng::new(0xC0FFEE + i as u64);
        let mut samples: Vec<u64> = (0..KS_SAMPLES).map(|_| d.sample(&mut rng)).collect();
        let stat = ks_statistic(d, &mut samples);
        assert!(
            stat < KS_THRESHOLD,
            "{}: KS statistic {stat:.4} over threshold {KS_THRESHOLD}",
            d.name()
        );
    }
}

/// Vacuity guard: a seeded mutation of the sampler — drawing `u²` instead
/// of `u`, which skews every distribution toward mice — must blow through
/// the same threshold by an order of magnitude. If this fails, the KS
/// harness above is not actually measuring anything.
#[test]
fn ks_rejects_skewed_sampler() {
    for kind in DistKind::ALL {
        let d = kind.cdf();
        let mut rng = SimRng::new(0xBAD5EED);
        let mut samples: Vec<u64> = (0..KS_SAMPLES)
            .map(|_| {
                let u = rng.uniform();
                d.quantile(u * u)
            })
            .collect();
        let stat = ks_statistic(d, &mut samples);
        assert!(
            stat > 10.0 * KS_THRESHOLD,
            "{}: skewed sampler only reached KS {stat:.4} — the test has no teeth",
            d.name()
        );
    }
}

// ---------------------------------------------------------------------
// Layer 2: process shape
// ---------------------------------------------------------------------

/// 64 uniform 10 Gbps hosts over a 200 ms horizon — large enough for tens
/// of thousands of arrivals, small enough to plan in milliseconds.
fn ctx() -> PlanContext {
    PlanContext {
        num_hosts: 64,
        host_bw_bps: 10_000_000_000,
        horizon: SimDuration::from_millis(200),
    }
}

fn interarrivals_secs(flows: &[vertigo_workload::scenario::PlannedFlow]) -> Vec<f64> {
    flows
        .windows(2)
        .map(|w| (w[1].at.as_nanos() - w[0].at.as_nanos()) as f64 * 1e-9)
        .collect()
}

fn mean_and_cv(xs: &[f64]) -> (f64, f64) {
    let n = xs.len() as f64;
    let mean = xs.iter().sum::<f64>() / n;
    let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
    (mean, var.sqrt() / mean)
}

/// A Poisson background component's interarrivals must be exponential:
/// mean at the analytic rate `load · subset_bw / (8 · mean_flow_bytes)`
/// within 5 %, coefficient of variation within 10 % of 1.
#[test]
fn poisson_interarrivals_are_exponential() {
    let ctx = ctx();
    let spec = ScenarioSpec::parse("bg:load=0.3,dist=cachefollower").unwrap();
    let plans = spec.plan(&SimRng::new(11), &ctx).unwrap();
    let gaps = interarrivals_secs(&plans[0].flows);
    assert!(
        gaps.len() > 5_000,
        "want a large sample, got {}",
        gaps.len()
    );

    let subset_bw = ctx.num_hosts as f64 * ctx.host_bw_bps as f64;
    let rate = 0.3 * subset_bw / (8.0 * DistKind::CacheFollower.cdf().mean_bytes());
    let (mean, cv) = mean_and_cv(&gaps);
    let expect = 1.0 / rate;
    assert!(
        (mean - expect).abs() / expect < 0.05,
        "interarrival mean {mean:.3e}s vs analytic {expect:.3e}s"
    );
    assert!(
        (cv - 1.0).abs() < 0.10,
        "interarrival CV {cv:.3} should be ~1"
    );
}

/// The ON-OFF envelope's duty cycle must equal `on/(on+off)` and its mean
/// burst length must equal the configured ON mean.
#[test]
fn onoff_envelope_duty_cycle_and_burst_length() {
    let (on, off) = (0.010, 0.040); // 10 ms ON, 40 ms OFF => 20 % duty
    let mut rng = SimRng::new(21);
    let spans = onoff_envelope(&mut rng, 0.0, 2_000.0, on, off);
    assert!(
        spans.len() > 10_000,
        "want many bursts, got {}",
        spans.len()
    );

    let on_total: f64 = spans.iter().map(|(a, b)| b - a).sum();
    let duty = on_total / 2_000.0;
    assert!(
        (duty - 0.2).abs() < 0.01,
        "duty cycle {duty:.4} should be ~0.20"
    );
    let burst_mean = on_total / spans.len() as f64;
    assert!(
        (burst_mean - on).abs() / on < 0.05,
        "mean burst {burst_mean:.4}s should be ~{on}s"
    );
    for w in spans.windows(2) {
        assert!(w[0].1 <= w[1].0, "ON spans must not overlap");
    }
}

/// Burstiness separation: binned arrival counts from an ON-OFF plan must
/// be far more over-dispersed than a Poisson plan at the same load —
/// if modulation were silently lost, the two would be indistinguishable.
/// Cache-follower flows on a 4-host subset give ~5 arrivals per 1 ms bin,
/// dense enough that ON-period clustering dominates the count variance.
#[test]
fn onoff_plan_is_burstier_than_poisson_plan() {
    let ctx = ctx();
    let dispersion = |spec: &str| -> f64 {
        let plans = ScenarioSpec::parse(spec)
            .unwrap()
            .plan(&SimRng::new(31), &ctx)
            .unwrap();
        // Index of dispersion of 1 ms bin counts (variance/mean): 1 for
        // Poisson, >> 1 for a bursty modulated process.
        let bin = 1_000_000u64; // ns
        let nbins = (ctx.horizon.as_nanos() / bin) as usize;
        let mut counts = vec![0f64; nbins];
        for f in &plans[0].flows {
            counts[((f.at.as_nanos() / bin) as usize).min(nbins - 1)] += 1.0;
        }
        let (mean, cv) = mean_and_cv(&counts);
        cv * cv * mean
    };
    let poisson = dispersion("bg:load=0.3,dist=cachefollower,hosts=0-3");
    let onoff = dispersion("onoff:load=0.3,on=1ms,off=4ms,dist=cachefollower,hosts=0-3");
    assert!(
        (0.5..2.0).contains(&poisson),
        "Poisson dispersion {poisson:.2} should be ~1"
    );
    assert!(
        onoff > 3.0 * poisson,
        "ON-OFF dispersion {onoff:.2} not clearly above Poisson {poisson:.2}"
    );
}

// ---------------------------------------------------------------------
// Layer 3: conservation oracle
// ---------------------------------------------------------------------

/// Every load-rated component must offer bytes matching
/// `load · subset_bw · active_secs / 8` over its window. Tolerances scale
/// with the size distribution's tail weight (data-mining's byte total is
/// dominated by rare 100 MB elephants).
#[test]
fn component_bytes_match_offered_load() {
    let ctx = ctx();
    let horizon_s = ctx.horizon.as_secs_f64();
    let full_bw = ctx.num_hosts as f64 * ctx.host_bw_bps as f64;
    let cases: &[(&str, f64, f64, f64)] = &[
        // (spec, load, active seconds × bw fraction, tolerance)
        ("bg:load=0.3,dist=cachefollower", 0.3, horizon_s, 0.10),
        ("bg:load=0.3,dist=websearch", 0.3, horizon_s, 0.10),
        ("bg:load=0.3,dist=datamining", 0.3, horizon_s, 0.35),
        ("perm:load=0.25,dist=websearch", 0.25, horizon_s, 0.10),
        (
            "onoff:load=0.2,on=1ms,off=4ms,dist=cachefollower",
            0.2,
            horizon_s,
            0.15,
        ),
        (
            "incast:scale=8,size=40k,load=0.2,sync=5us",
            0.2,
            horizon_s,
            0.05,
        ),
        // Windowed: only 50–150 ms of the 200 ms horizon is active.
        (
            "bg:load=0.4,dist=cachefollower@50ms-150ms",
            0.4,
            horizon_s / 2.0,
            0.10,
        ),
    ];
    for &(spec, load, active_s, tol) in cases {
        let plans = ScenarioSpec::parse(spec)
            .unwrap()
            .plan(&SimRng::new(41), &ctx)
            .unwrap();
        let got = plans[0].total_bytes() as f64;
        let want = load * full_bw * active_s / 8.0;
        assert!(
            (got - want).abs() / want < tol,
            "{spec}: planned {got:.3e} bytes vs target {want:.3e} (tol {tol})"
        );
    }
}

/// A QPS-rated incast offers `qps · horizon` queries of `scale · size`
/// bytes each; sizes are deterministic so only the Poisson query count
/// fluctuates.
#[test]
fn qps_incast_bytes_match_rate() {
    let ctx = ctx();
    let plans = ScenarioSpec::parse("incast:scale=16,size=40k,qps=5000,sync=10us")
        .unwrap()
        .plan(&SimRng::new(43), &ctx)
        .unwrap();
    let want_queries = 5_000.0 * ctx.horizon.as_secs_f64();
    let got_queries = plans[0].queries.len() as f64;
    assert!(
        (got_queries - want_queries).abs() / want_queries < 0.10,
        "queries {got_queries} vs target {want_queries}"
    );
    let got = plans[0].total_bytes() as f64;
    let want = got_queries * 16.0 * 40_000.0;
    assert!(
        (got - want).abs() / want < 1e-9,
        "incast bytes {got} must be exactly queries × scale × size ({want})"
    );
}

/// Flows of a composed multi-tenant spec must stay inside their
/// component's window and host subset, and incast replies must target
/// their client.
#[test]
fn flows_respect_window_and_host_subset() {
    let ctx = ctx();
    let spec = ScenarioSpec::parse(
        "onoff:load=0.2,on=1ms,off=3ms,dist=datamining,tenant=bursty,hosts=0-31 \
         + bg:load=0.1,tenant=svc,hosts=32-63 \
         + incast:scale=8,size=40k,load=0.1,sync=10us@50ms-150ms",
    )
    .unwrap();
    let plans = spec.plan(&SimRng::new(53), &ctx).unwrap();
    assert_eq!(plans.len(), 3);
    let subsets: &[(u32, u32)] = &[(0, 31), (32, 63), (0, 63)];
    let windows_ns: &[(u64, u64)] = &[
        (0, 200_000_000),
        (0, 200_000_000),
        (50_000_000, 150_000_000),
    ];
    for (i, plan) in plans.iter().enumerate() {
        assert!(!plan.flows.is_empty(), "component {i} planned nothing");
        let (lo, hi) = subsets[i];
        let (from, until) = windows_ns[i];
        for f in &plan.flows {
            assert!(f.src != f.dst, "component {i}: self-flow");
            assert!(
                (lo..=hi).contains(&f.src) && (lo..=hi).contains(&f.dst),
                "component {i}: flow {}->{} escapes hosts {lo}-{hi}",
                f.src,
                f.dst
            );
            let at = f.at.as_nanos();
            assert!(
                (from..until).contains(&at),
                "component {i}: arrival {at}ns outside window {from}-{until}ns"
            );
        }
        for q in &plan.queries {
            let at = q.at.as_nanos();
            assert!((from..until).contains(&at), "query outside window");
        }
    }
}

/// Same seed ⇒ identical plans; different seed ⇒ different arrivals. The
/// plan is a pure function of `(spec, seed, ctx)` — this is what makes
/// scenario runs reproducible across every execution strategy below.
#[test]
fn plans_are_pure_functions_of_the_seed() {
    let ctx = ctx();
    let spec =
        ScenarioSpec::parse("bg:load=0.2,dist=websearch + perm:load=0.1,dist=datamining").unwrap();
    let a = spec.plan(&SimRng::new(7), &ctx).unwrap();
    let b = spec.plan(&SimRng::new(7), &ctx).unwrap();
    assert_eq!(a, b, "same seed must replan identically");
    let c = spec.plan(&SimRng::new(8), &ctx).unwrap();
    assert_ne!(a, c, "different seed must move arrivals");
}

/// One small scenario cell (16-host leaf-spine, composed ON-OFF + tenant
/// background + base load) used for the cross-execution identity checks.
fn scenario_cell() -> RunSpec {
    let mut spec = RunSpec::new(
        SystemKind::Vertigo,
        CcKind::Dctcp,
        WorkloadSpec {
            background: Some(BackgroundSpec {
                load: 0.15,
                dist: DistKind::CacheFollower,
            }),
            incast: None,
        },
    );
    spec.topo = TopoKind::LeafSpine { hosts_per_leaf: 4 };
    spec.horizon = SimDuration::from_millis(5);
    spec.seed = 3;
    spec.scenario = ScenarioSpec::parse(
        "onoff:load=0.2,on=1ms,off=2ms,dist=datamining,tenant=bursty,hosts=0-15 \
         + bg:load=0.1,tenant=svc,hosts=16-31 \
         + incast:scale=4,size=20k,load=0.05,sync=5us",
    )
    .unwrap();
    spec
}

/// Concurrent execution (the `--jobs` sweep path runs cells on worker
/// threads) must not perturb scenario results: the same cell run on two
/// threads at once matches the serial run byte-for-byte.
#[test]
fn scenario_runs_identical_under_thread_parallelism() {
    let report = scenario_cell().run().report;
    assert!(
        !report.tenants.is_empty(),
        "scenario run must produce tenant breakdowns"
    );
    let serial = format!("{report:?}");
    let handles: Vec<_> = (0..2)
        .map(|_| std::thread::spawn(|| format!("{:?}", scenario_cell().run().report)))
        .collect();
    for h in handles {
        assert_eq!(
            serial,
            h.join().unwrap(),
            "parallel run diverged from serial"
        );
    }
}

/// The conservative-parallel domain engine's contract is domain-count
/// invariance: with the partition-shape diagnostics normalized away
/// (mirroring `tests/domain_equivalence.rs`), scenario traffic — tenant
/// tags included — must be identical at `--domains 1` and `--domains 2`.
#[test]
fn scenario_runs_identical_across_domain_counts() {
    let canon = |n: usize| {
        let mut spec = scenario_cell();
        spec.domains = Some(n);
        let mut r = spec.run().report;
        r.domains = 0;
        r.cross_domain_packets = 0;
        r.domain_peak_pending = Vec::new();
        format!("{r:?}")
    };
    let one = canon(1);
    assert!(
        one.contains("bursty"),
        "tenant labels missing from domain run"
    );
    assert_eq!(one, canon(2), "domain count observable in scenario results");
}
