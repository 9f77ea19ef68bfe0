//! Composable workload scenarios — the `--workload` grammar.
//!
//! A [`ScenarioSpec`] is a small list of traffic *components* layered on
//! top of whatever figure workload a run already offers: heavy incast
//! with configurable fan-in and synchronized-arrival jitter, permutation
//! and all-to-all matrices, and Poisson / ON-OFF arrival processes over
//! any flow-size [`DistKind`]. Components can be pinned to disjoint host
//! ranges and labeled as tenants, which turns one run into a multi-tenant
//! mix with per-tenant FCT/QCT breakdowns in the
//! [`Report`](vertigo_stats::Report).
//!
//! The spec string follows the `--faults`/`--trace` house grammar, its
//! `k=v` list, window and literals read by [`vertigo_netsim::grammar`]:
//! components separated by `+`, each `kind:key=val,...[@from-until]`:
//!
//! ```text
//! incast:scale=256,sync=5us,size=64k@10ms-30ms
//!   + bg:dist=datamining,load=0.4
//!   + onoff:load=0.2,on=1ms,off=9ms
//! ```
//!
//! * `bg` (alias `a2a`) — all-to-all Poisson arrivals between uniformly
//!   random distinct host pairs at `load=` fraction of the component's
//!   aggregate host bandwidth; `dist=` picks the flow-size CDF
//!   (`cachefollower` | `datamining` | `websearch`, default
//!   `cachefollower`).
//! * `perm` — a seeded random permutation (derangement) matrix over the
//!   component's hosts: every arrival goes from a random source to its
//!   fixed partner. Keys as `bg`.
//! * `onoff` — per-host Markov-modulated Poisson: each host alternates
//!   exponentially distributed ON (`on=` mean) and OFF (`off=` mean)
//!   periods and emits Poisson arrivals only while ON, boosted so the
//!   long-run average hits `load=`.
//! * `incast` — the §4.1 query application with explicit knobs:
//!   `scale=` servers per query, `size=` reply bytes (`k`/`m`/`g`
//!   decimal suffixes), at most one of `qps=` (up to [`MAX_RATE`]) or
//!   `load=` (default `load=0.1`), and `sync=` synchronized-arrival
//!   jitter (each reply's start is jittered uniformly in `[0, sync)`;
//!   default `0ns` — perfectly synchronized).
//! * Every kind accepts `tenant=NAME` (a label for per-tenant reporting)
//!   and `hosts=LO-HI` (an inclusive host-id range; default all hosts).
//!   Components naming *different* tenants must use disjoint host
//!   ranges. `@from-until` (faults time syntax: `ns|us|ms|s`) restricts
//!   arrivals to a half-open window; `load=`/`qps=` are rates *while
//!   active*.
//!
//! Determinism contract (the offered-load conservation oracle tests pin
//! this down): planning draws from per-component RNG streams forked off
//! the run *seed* — never the live RNG state — so the planned arrivals
//! are a pure function of `(spec, topology, horizon, seed)`, identical
//! across `--jobs` values, the domain engine, and warm-started forks.
//! Adding a scenario never perturbs the draws of the classic
//! background/incast generators or the fault stream, and an empty
//! scenario is byte-inert (CI digest-diffs this).

use crate::dists::DistKind;
use crate::traffic::IncastSpec;
use std::fmt;
use vertigo_netsim::grammar::{self, fmt_dur, fmt_size, KvList};
use vertigo_netsim::Simulation;
use vertigo_pkt::{NodeId, QueryId};
use vertigo_simcore::{SimDuration, SimRng, SimTime};

/// Maximum components per scenario (inline storage keeps
/// [`ScenarioSpec`] — and therefore `RunSpec` — `Copy`, mirroring
/// `FaultSchedule`).
pub const MAX_COMPONENTS: usize = 8;

/// Maximum tenant-name length (stored inline to stay `Copy`).
pub const MAX_TENANT_NAME: usize = 15;

/// Arrivals per second above which the mean gap between arrivals is
/// under the simulator's 1 ns clock, where the planner's clock would stop
/// advancing: refused for a literal `qps=` and for any rate a plan solves.
pub const MAX_RATE: f64 = 1e9;

/// RNG stream id the scenario subsystem forks off the run seed; each
/// component re-forks by its index, so components never share draws with
/// each other or with the classic generators (`0xB6`, `0x1C`, `0xFA17`).
const STREAM_SCENARIO: u64 = 0x5CE4;

/// A short inline tenant label (`[A-Za-z0-9_-]{1,15}`).
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct TenantName {
    bytes: [u8; MAX_TENANT_NAME],
    len: u8,
}

impl TenantName {
    /// Parses and validates a tenant name.
    pub fn parse(s: &str) -> Result<TenantName, String> {
        if s.is_empty() || s.len() > MAX_TENANT_NAME {
            return Err(format!(
                "tenant name `{s}` must be 1..={MAX_TENANT_NAME} characters"
            ));
        }
        if !s
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'-')
        {
            return Err(format!("tenant name `{s}` may only contain [A-Za-z0-9_-]"));
        }
        let mut bytes = [0u8; MAX_TENANT_NAME];
        bytes[..s.len()].copy_from_slice(s.as_bytes());
        Ok(TenantName {
            bytes,
            len: s.len() as u8,
        })
    }

    /// The name as a string slice.
    pub fn as_str(&self) -> &str {
        std::str::from_utf8(&self.bytes[..self.len as usize]).expect("validated ascii")
    }
}

impl fmt::Debug for TenantName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}", self.as_str())
    }
}

impl fmt::Display for TenantName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// An inclusive host-id range (`hosts=LO-HI`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HostRange {
    /// First host id in the range.
    pub lo: u32,
    /// Last host id in the range (inclusive).
    pub hi: u32,
}

impl HostRange {
    /// Number of hosts in the range.
    pub fn count(&self) -> usize {
        // Widened before the `+ 1`: `hosts=0-4294967295` is a legal literal.
        (self.hi - self.lo) as usize + 1
    }

    /// True when the two ranges share at least one host.
    pub fn overlaps(&self, other: &HostRange) -> bool {
        self.lo <= other.hi && other.lo <= self.hi
    }
}

/// How an incast component's query rate is specified.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum IncastRate {
    /// Explicit queries per second.
    Qps(f64),
    /// Solve for the QPS that offers this load fraction of the
    /// component's aggregate host bandwidth.
    Load(f64),
}

/// What one scenario component offers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ComponentKind {
    /// All-to-all Poisson (`bg` / `a2a`).
    Background {
        /// Offered load fraction of the component's host bandwidth.
        load: f64,
        /// Flow-size distribution.
        dist: DistKind,
    },
    /// Fixed random-derangement matrix (`perm`).
    Permutation {
        /// Offered load fraction.
        load: f64,
        /// Flow-size distribution.
        dist: DistKind,
    },
    /// Per-host ON-OFF modulated Poisson (`onoff`).
    OnOff {
        /// Long-run offered load fraction.
        load: f64,
        /// Flow-size distribution.
        dist: DistKind,
        /// Mean ON-period length (exponentially distributed).
        on: SimDuration,
        /// Mean OFF-period length (exponentially distributed).
        off: SimDuration,
    },
    /// The query application with explicit fan-in/jitter (`incast`).
    Incast {
        /// Servers per query.
        scale: u32,
        /// Reply size per server in bytes.
        bytes: u64,
        /// Query rate.
        rate: IncastRate,
        /// Synchronized-arrival jitter: each reply starts uniformly in
        /// `[0, sync)` after the query instant.
        sync: SimDuration,
    },
}

impl ComponentKind {
    /// The grammar keyword for this kind.
    pub fn keyword(&self) -> &'static str {
        match self {
            ComponentKind::Background { .. } => "bg",
            ComponentKind::Permutation { .. } => "perm",
            ComponentKind::OnOff { .. } => "onoff",
            ComponentKind::Incast { .. } => "incast",
        }
    }
}

/// One component: a kind plus the shared pinning/window keys.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScenarioComponent {
    /// The traffic pattern.
    pub kind: ComponentKind,
    /// Host range the component is pinned to (`None`: all hosts).
    pub hosts: Option<HostRange>,
    /// Tenant label for per-tenant reporting.
    pub tenant: Option<TenantName>,
    /// Active window `[from, until)` (`None`: the whole horizon).
    pub window: Option<(SimTime, SimTime)>,
}

/// A copyable, composable scenario: up to [`MAX_COMPONENTS`] components.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ScenarioSpec {
    components: [Option<ScenarioComponent>; MAX_COMPONENTS],
    len: u8,
}

impl ScenarioSpec {
    /// The empty scenario (offers nothing, perturbs nothing).
    pub fn new() -> Self {
        ScenarioSpec::default()
    }

    /// True when no components are present.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of components.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Iterates the components in spec order.
    pub fn iter(&self) -> impl Iterator<Item = &ScenarioComponent> {
        self.components[..self.len as usize]
            .iter()
            .map(|c| c.as_ref().expect("components below len are Some"))
    }

    /// Adds a component, validating its parameters and its interaction
    /// with the components already present (tenant host-set disjointness,
    /// aggregate load).
    pub fn push(&mut self, c: ScenarioComponent) -> Result<(), String> {
        if (self.len as usize) >= MAX_COMPONENTS {
            return Err(format!("scenario full (max {MAX_COMPONENTS} components)"));
        }
        validate_component(&c)?;
        // Components naming *different* tenants must not share hosts —
        // a tenant is an isolation unit; an unnamed component is shared
        // infrastructure and may overlap anything.
        for prev in self.iter() {
            if let (Some(ta), Some(tb)) = (prev.tenant, c.tenant) {
                if ta != tb && ranges_overlap(prev.hosts, c.hosts) {
                    return Err(format!(
                        "tenant `{tb}` ({}) overlaps tenant `{ta}` ({}): \
                         pin tenants to disjoint `hosts=LO-HI` ranges",
                        fmt_hosts(c.hosts),
                        fmt_hosts(prev.hosts),
                    ));
                }
            }
        }
        let total: f64 = self
            .iter()
            .chain(std::iter::once(&c))
            .filter_map(component_load)
            .sum();
        if total > 1.0 + 1e-9 {
            return Err(format!(
                "aggregate scenario load {total:.2} exceeds 1.0: \
                 lower the component loads (qps-specified incast is not counted)"
            ));
        }
        self.components[self.len as usize] = Some(c);
        self.len += 1;
        Ok(())
    }

    /// Parses a `--workload` spec string (see the module docs for the
    /// grammar). The empty string parses to the empty scenario.
    pub fn parse(spec: &str) -> Result<ScenarioSpec, String> {
        let mut s = ScenarioSpec::new();
        for item in spec.split('+') {
            let item = item.trim();
            if item.is_empty() {
                continue;
            }
            let c = parse_component(item).map_err(|e| format!("component `{item}`: {e}"))?;
            s.push(c)?;
        }
        Ok(s)
    }

    /// The display label of component `idx` for reports: its tenant name
    /// when one is set, else `kind#idx`.
    pub fn label(&self, idx: usize) -> String {
        let c = self.components[idx].as_ref().expect("idx < len");
        match c.tenant {
            Some(t) => t.as_str().to_owned(),
            None => format!("{}#{idx}", c.kind.keyword()),
        }
    }

    /// Rewrites the per-tenant breakdown labels of `report` from this
    /// spec: tags 1..=len map to component labels, tag 0 (flows from the
    /// figure workload running alongside the scenario) to `base`.
    pub fn apply_labels(&self, report: &mut vertigo_stats::Report) {
        for t in &mut report.tenants {
            t.label = match t.tag {
                0 => "base".to_owned(),
                n if (n as usize) <= self.len() => self.label(n as usize - 1),
                n => format!("tag{n}"),
            };
        }
    }

    /// Total offered load fraction this scenario adds on a topology of
    /// `ctx.num_hosts` uniform hosts, averaged over the horizon (windowed
    /// components contribute pro-rata).
    pub fn offered_load(&self, ctx: &PlanContext) -> f64 {
        let horizon_s = ctx.horizon.as_secs_f64();
        if horizon_s <= 0.0 {
            return 0.0;
        }
        let total_bw = (ctx.num_hosts as u64 * ctx.host_bw_bps) as f64;
        self.iter()
            .map(|c| {
                let n = c
                    .hosts
                    .map_or(ctx.num_hosts, |r| r.count().min(ctx.num_hosts));
                let subset_bw = n as u64 * ctx.host_bw_bps;
                let (from, until) = active_window(c, ctx.horizon);
                let frac = (until.saturating_since(from)).as_secs_f64() / horizon_s;
                let load = match c.kind {
                    ComponentKind::Background { load, .. }
                    | ComponentKind::Permutation { load, .. }
                    | ComponentKind::OnOff { load, .. } => load,
                    ComponentKind::Incast {
                        scale, bytes, rate, ..
                    } => match rate {
                        IncastRate::Load(l) => l,
                        IncastRate::Qps(qps) => IncastSpec {
                            qps,
                            scale: scale as usize,
                            flow_bytes: bytes,
                        }
                        .offered_load(subset_bw),
                    },
                };
                load * frac * subset_bw as f64 / total_bw
            })
            .sum()
    }

    /// Plans every component's arrivals: a pure function of
    /// `(self, base RNG seed, ctx)` — no simulator required, which is
    /// what the statistical-conformance and conservation tests exercise.
    pub fn plan(&self, base: &SimRng, ctx: &PlanContext) -> Result<Vec<ComponentPlan>, String> {
        self.iter()
            .enumerate()
            .map(|(i, c)| plan_one(c, component_rng(base, i), ctx))
            .collect()
    }

    /// Pre-schedules every component into `sim`, tagging each flow and
    /// query with its component index + 1 for per-tenant accounting.
    /// Panics with an actionable message when the scenario is
    /// grammar-valid but incompatible with the topology or horizon
    /// (e.g. `hosts=` out of range, `scale=` too large for the host set,
    /// a window starting at or past the horizon) — a silently empty
    /// component would be worse than a loud failure. The staged driver
    /// reports the same message as a [`RunError`](crate::RunError).
    pub fn install(&self, sim: &mut Simulation) {
        self.try_install(sim)
            .unwrap_or_else(|e| panic!("--workload: {e}"))
    }

    pub(crate) fn try_install(&self, sim: &mut Simulation) -> Result<(), String> {
        // Plans fork off the run *seed*, never the live RNG state, so the
        // scenario neither observes nor perturbs the figure workload.
        let base = SimRng::new(sim.rng().seed());
        for (i, c) in self.iter().enumerate() {
            install_component(sim, c, component_rng(&base, i), Some((i + 1) as u8))?;
        }
        Ok(())
    }
}

/// Plans one component's arrivals from `rng`.
pub(crate) fn plan_one(
    c: &ScenarioComponent,
    rng: SimRng,
    ctx: &PlanContext,
) -> Result<ComponentPlan, String> {
    let mut plan = ComponentPlan::default();
    plan_component(c, rng, ctx, &mut |p| match p {
        Planned::Query(q) => plan.queries.push(q),
        Planned::Flow(f) => plan.flows.push(f),
    })?;
    Ok(plan)
}

/// Component `i`'s planning stream: the scenario stream off the run seed,
/// re-forked by index, so components never share draws.
fn component_rng(base: &SimRng, i: usize) -> SimRng {
    base.fork(STREAM_SCENARIO).fork(i as u64)
}

/// The one loop every planned arrival reaches the simulator through, as
/// the planner produces it (no plan is held in memory): a query is
/// registered, then its flows are scheduled. A `tag` marks them for the
/// per-tenant breakdown; the figure workload (`WorkloadSpec`) carries
/// none, so `Report.tenants` stays empty on scenario-free runs.
pub(crate) fn install_component(
    sim: &mut Simulation,
    c: &ScenarioComponent,
    rng: SimRng,
    tag: Option<u8>,
) -> Result<(), String> {
    let ctx = PlanContext::of(sim);
    let mut qids: Vec<QueryId> = Vec::new();
    plan_component(c, rng, &ctx, &mut |p| match p {
        Planned::Query(q) => {
            let id = sim.register_query(q.fanout, q.at);
            if let Some(tag) = tag {
                sim.tag_query(id, tag);
            }
            qids.push(id);
        }
        Planned::Flow(f) => {
            let query = f.query.map_or(QueryId::NONE, |qi| qids[qi as usize]);
            let (src, dst) = (NodeId(f.src), NodeId(f.dst));
            sim.schedule_tagged_flow(f.at, src, dst, f.bytes, query, tag.unwrap_or(0));
        }
    })
}

impl fmt::Display for ScenarioSpec {
    /// Canonical form: keys in fixed order, every default printed, so
    /// `parse(format(spec)) == spec` exactly (the grammar round-trip
    /// proptests pin this).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, c) in self.iter().enumerate() {
            if i > 0 {
                f.write_str(" + ")?;
            }
            match c.kind {
                ComponentKind::Background { load, dist } => {
                    write!(f, "bg:load={load},dist={}", dist_key(dist))?;
                }
                ComponentKind::Permutation { load, dist } => {
                    write!(f, "perm:load={load},dist={}", dist_key(dist))?;
                }
                ComponentKind::OnOff {
                    load,
                    dist,
                    on,
                    off,
                } => {
                    write!(
                        f,
                        "onoff:load={load},on={},off={},dist={}",
                        fmt_dur(on),
                        fmt_dur(off),
                        dist_key(dist)
                    )?;
                }
                ComponentKind::Incast {
                    scale,
                    bytes,
                    rate,
                    sync,
                } => {
                    write!(f, "incast:scale={scale},size={}", fmt_size(bytes))?;
                    match rate {
                        IncastRate::Qps(q) => write!(f, ",qps={q}")?,
                        IncastRate::Load(l) => write!(f, ",load={l}")?,
                    }
                    write!(f, ",sync={}", fmt_dur(sync))?;
                }
            }
            if let Some(t) = c.tenant {
                write!(f, ",tenant={t}")?;
            }
            if let Some(r) = c.hosts {
                write!(f, ",hosts={}-{}", r.lo, r.hi)?;
            }
            if let Some((from, until)) = c.window {
                write!(
                    f,
                    "@{}-{}",
                    fmt_dur(SimDuration::from_nanos(from.as_nanos())),
                    fmt_dur(SimDuration::from_nanos(until.as_nanos()))
                )?;
            }
        }
        Ok(())
    }
}

/// Topology facts the planner needs (uniform host links, true of both
/// paper topologies).
#[derive(Debug, Clone, Copy)]
pub struct PlanContext {
    /// Host count.
    pub num_hosts: usize,
    /// Per-host link bandwidth in bits per second.
    pub host_bw_bps: u64,
    /// Run horizon.
    pub horizon: SimDuration,
}

impl PlanContext {
    /// The planning facts of a built simulation.
    pub fn of(sim: &Simulation) -> PlanContext {
        let num_hosts = sim.num_hosts();
        PlanContext {
            num_hosts,
            host_bw_bps: sim.topology().total_host_bw_bps() / num_hosts.max(1) as u64,
            horizon: sim.horizon(),
        }
    }
}

/// One planned flow arrival.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlannedFlow {
    /// Arrival time.
    pub at: SimTime,
    /// Sending host id.
    pub src: u32,
    /// Receiving host id.
    pub dst: u32,
    /// Flow size in bytes.
    pub bytes: u64,
    /// Index into the plan's `queries` (`None`: background-style flow).
    pub query: Option<u32>,
}

/// One planned incast query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlannedQuery {
    /// Issue time.
    pub at: SimTime,
    /// Reply fan-out.
    pub fanout: u32,
}

/// What the planner produces, in order: a query precedes its flows.
enum Planned {
    Query(PlannedQuery),
    Flow(PlannedFlow),
}

/// Everything one component pre-schedules.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ComponentPlan {
    /// Flow arrivals in schedule order (ascending time).
    pub flows: Vec<PlannedFlow>,
    /// Queries in issue order.
    pub queries: Vec<PlannedQuery>,
}

impl ComponentPlan {
    /// Total bytes this plan offers.
    pub fn total_bytes(&self) -> u64 {
        self.flows.iter().map(|f| f.bytes).sum()
    }
}

/// The exponential ON/OFF envelope of one source: alternating
/// `(on_start, on_end)` intervals covering `[from, until)`, drawn from
/// `rng`. Exposed for the statistical-conformance tests (duty cycle and
/// mean burst length).
pub fn onoff_envelope(
    rng: &mut SimRng,
    from: f64,
    until: f64,
    on_mean_s: f64,
    off_mean_s: f64,
) -> Vec<(f64, f64)> {
    let mut spans = Vec::new();
    let mut t = from;
    while t < until {
        let on_len = rng.exp(on_mean_s);
        spans.push((t, (t + on_len).min(until)));
        t += on_len + rng.exp(off_mean_s);
    }
    spans
}

// ---------------------------------------------------------------------
// Planning
// ---------------------------------------------------------------------

/// The component's active window in absolute sim time, clamped to the
/// horizon at the top end only — a start at/past the horizon is an error
/// the caller surfaces.
fn active_window(c: &ScenarioComponent, horizon: SimDuration) -> (SimTime, SimTime) {
    let end = SimTime::ZERO + horizon;
    match c.window {
        None => (SimTime::ZERO, end),
        Some((from, until)) => (from, until.min(end)),
    }
}

fn plan_component(
    c: &ScenarioComponent,
    mut rng: SimRng,
    ctx: &PlanContext,
    emit: &mut dyn FnMut(Planned),
) -> Result<(), String> {
    // Resolve the host subset.
    let (lo, n) = match c.hosts {
        None => {
            if ctx.num_hosts < 2 {
                return Err("scenario needs at least 2 hosts".into());
            }
            (0u32, ctx.num_hosts)
        }
        Some(r) => {
            if r.hi as usize >= ctx.num_hosts {
                return Err(format!(
                    "hosts={}-{} exceeds the topology ({} hosts, ids 0-{})",
                    r.lo,
                    r.hi,
                    ctx.num_hosts,
                    ctx.num_hosts - 1
                ));
            }
            if r.count() < 2 {
                return Err(format!("hosts={}-{} needs at least 2 hosts", r.lo, r.hi));
            }
            (r.lo, r.count())
        }
    };
    let (from, until) = active_window(c, ctx.horizon);
    if from.as_nanos() >= ctx.horizon.as_nanos() {
        return Err(format!(
            "{} window starts at {} ns, at or past the {} ns horizon: \
             shrink the window or extend the horizon",
            c.kind.keyword(),
            from.as_nanos(),
            ctx.horizon.as_nanos()
        ));
    }
    let from_s = from.as_secs_f64();
    let until_s = until.as_secs_f64();
    let subset_bw = n as f64 * ctx.host_bw_bps as f64;

    match c.kind {
        ComponentKind::Background { load, dist } => {
            let cdf = dist.cdf();
            let lambda = arrival_rate(c, load * subset_bw / (8.0 * cdf.mean_bytes()))?;
            let mut t = from_s;
            loop {
                t += rng.exp(1.0 / lambda);
                if t >= until_s {
                    break;
                }
                let (a, b) = rng.two_distinct(n);
                emit(Planned::Flow(PlannedFlow {
                    at: SimTime::ZERO + SimDuration::from_secs_f64(t),
                    src: lo + a as u32,
                    dst: lo + b as u32,
                    bytes: cdf.sample(&mut rng),
                    query: None,
                }));
            }
        }
        ComponentKind::Permutation { load, dist } => {
            let cdf = dist.cdf();
            // A seeded random derangement: shuffle, then repair fixed
            // points by swapping with a neighbor (deterministic).
            let mut perm: Vec<usize> = (0..n).collect();
            rng.shuffle(&mut perm);
            for i in 0..n {
                if perm[i] == i {
                    let j = (i + 1) % n;
                    perm.swap(i, j);
                }
            }
            let lambda = arrival_rate(c, load * subset_bw / (8.0 * cdf.mean_bytes()))?;
            let mut t = from_s;
            loop {
                t += rng.exp(1.0 / lambda);
                if t >= until_s {
                    break;
                }
                let src = rng.index(n);
                emit(Planned::Flow(PlannedFlow {
                    at: SimTime::ZERO + SimDuration::from_secs_f64(t),
                    src: lo + src as u32,
                    dst: lo + perm[src] as u32,
                    bytes: cdf.sample(&mut rng),
                    query: None,
                }));
            }
        }
        ComponentKind::OnOff {
            load,
            dist,
            on,
            off,
        } => {
            let cdf = dist.cdf();
            let (on_s, off_s) = (on.as_secs_f64(), off.as_secs_f64());
            let duty = on_s / (on_s + off_s);
            // Per-host average rate, boosted while ON so the long-run
            // mean hits `load`.
            let lambda_on = load * ctx.host_bw_bps as f64 / (8.0 * cdf.mean_bytes()) / duty;
            let lambda_on = arrival_rate(c, lambda_on)?;
            let mut flows = Vec::new();
            for h in 0..n {
                let mut hrng = rng.fork(h as u64);
                for (s, e) in onoff_envelope(&mut hrng, from_s, until_s, on_s, off_s) {
                    let mut t = s;
                    loop {
                        t += hrng.exp(1.0 / lambda_on);
                        if t >= e {
                            break;
                        }
                        let d = hrng.index(n - 1);
                        let dst = if d >= h { d + 1 } else { d };
                        flows.push(PlannedFlow {
                            at: SimTime::ZERO + SimDuration::from_secs_f64(t),
                            src: lo + h as u32,
                            dst: lo + dst as u32,
                            bytes: cdf.sample(&mut hrng),
                            query: None,
                        });
                    }
                }
            }
            // Merge the per-host streams into schedule order (stable, so
            // equal-time arrivals keep host order — deterministic).
            flows.sort_by_key(|f| f.at);
            flows.into_iter().for_each(|f| emit(Planned::Flow(f)));
        }
        ComponentKind::Incast {
            scale,
            bytes,
            rate,
            sync,
        } => {
            let scale = scale as usize;
            if n <= scale {
                return Err(format!(
                    "incast scale={scale} needs more than {scale} hosts in its \
                     host set (have {n}): lower scale= or widen hosts="
                ));
            }
            let qps = arrival_rate(
                c,
                match rate {
                    IncastRate::Qps(q) => q,
                    IncastRate::Load(l) => {
                        IncastSpec::qps_for_load(l, scale, bytes, n as u64 * ctx.host_bw_bps)
                    }
                },
            )?;
            let sync_s = sync.as_secs_f64();
            let mut qi = 0u32;
            let mut t = from_s;
            loop {
                t += rng.exp(1.0 / qps);
                if t >= until_s {
                    break;
                }
                let at = SimTime::ZERO + SimDuration::from_secs_f64(t);
                let client = rng.index(n);
                emit(Planned::Query(PlannedQuery {
                    at,
                    fanout: scale as u32,
                }));
                for idx in rng.k_distinct(scale, n - 1) {
                    let s = if idx >= client { idx + 1 } else { idx };
                    let jitter = if sync_s > 0.0 {
                        rng.uniform() * sync_s
                    } else {
                        0.0
                    };
                    emit(Planned::Flow(PlannedFlow {
                        at: SimTime::ZERO + SimDuration::from_secs_f64(t + jitter),
                        src: lo + s as u32,
                        dst: lo + client as u32,
                        bytes,
                        query: Some(qi),
                    }));
                }
                qi += 1;
            }
        }
    }
    Ok(())
}

/// `rate` arrivals (or queries) per second of `c`, refused above
/// [`MAX_RATE`].
fn arrival_rate(c: &ScenarioComponent, rate: f64) -> Result<f64, String> {
    if rate > MAX_RATE {
        return Err(format!(
            "{} offers {rate:.3e} arrivals per second, a mean gap under the \
             simulator's 1 ns clock: lower its rate",
            c.kind.keyword()
        ));
    }
    Ok(rate)
}

// ---------------------------------------------------------------------
// Validation helpers
// ---------------------------------------------------------------------

/// The load fraction a component contributes to the aggregate check
/// (`None` for qps-specified incast, which has no fraction without a
/// topology).
fn component_load(c: &ScenarioComponent) -> Option<f64> {
    match c.kind {
        ComponentKind::Background { load, .. }
        | ComponentKind::Permutation { load, .. }
        | ComponentKind::OnOff { load, .. } => Some(load),
        ComponentKind::Incast { rate, .. } => match rate {
            IncastRate::Load(l) => Some(l),
            IncastRate::Qps(_) => None,
        },
    }
}

fn ranges_overlap(a: Option<HostRange>, b: Option<HostRange>) -> bool {
    match (a, b) {
        // An unpinned component spans every host.
        (None, _) | (_, None) => true,
        (Some(a), Some(b)) => a.overlaps(&b),
    }
}

fn fmt_hosts(r: Option<HostRange>) -> String {
    match r {
        None => "all hosts".to_owned(),
        Some(r) => format!("hosts {}-{}", r.lo, r.hi),
    }
}

fn check_load(kind: &str, load: f64) -> Result<(), String> {
    if !(load > 0.0 && load <= 1.0) {
        return Err(format!("{kind}: load must be in (0, 1], got {load}"));
    }
    Ok(())
}

pub(crate) fn validate_component(c: &ScenarioComponent) -> Result<(), String> {
    let kw = c.kind.keyword();
    match c.kind {
        ComponentKind::Background { load, .. } | ComponentKind::Permutation { load, .. } => {
            check_load(kw, load)?;
        }
        ComponentKind::OnOff { load, on, off, .. } => {
            check_load(kw, load)?;
            if on.as_nanos() == 0 || off.as_nanos() == 0 {
                return Err(format!("{kw}: on= and off= must be positive durations"));
            }
        }
        ComponentKind::Incast {
            scale, bytes, rate, ..
        } => {
            if scale == 0 {
                return Err("incast: scale= must be at least 1".into());
            }
            if bytes == 0 {
                return Err("incast: size= must be positive".into());
            }
            match rate {
                IncastRate::Qps(q) => {
                    if !(q > 0.0 && q <= MAX_RATE) {
                        return Err(format!(
                            "incast: qps must be in (0, 1e9] (a mean gap of at least \
                             the simulator's 1 ns clock), got {q:e}"
                        ));
                    }
                }
                IncastRate::Load(l) => check_load(kw, l)?,
            }
        }
    }
    if let Some(r) = c.hosts {
        if r.lo > r.hi {
            return Err(format!(
                "{kw}: hosts={}-{} is reversed (LO must not exceed HI)",
                r.lo, r.hi
            ));
        }
    }
    if let Some((from, until)) = c.window {
        if until <= from {
            return Err(format!(
                "{kw}: window must end after it starts ({} ns .. {} ns)",
                from.as_nanos(),
                until.as_nanos()
            ));
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Parsing and formatting
// ---------------------------------------------------------------------

fn dist_key(d: DistKind) -> &'static str {
    match d {
        DistKind::CacheFollower => "cachefollower",
        DistKind::DataMining => "datamining",
        DistKind::WebSearch => "websearch",
    }
}

/// Every `--workload` key.
const KEYS: &[&str] = &[
    "load", "dist", "on", "off", "scale", "size", "qps", "sync", "tenant", "hosts",
];

/// Per kind: the keys it requires, and the others it takes besides
/// `tenant=` and `hosts=`, which every kind takes. It refuses the rest.
const KINDS: [(&str, &[&str], &[&str]); 5] = [
    ("bg", &["load"], &["dist"]),
    ("a2a", &["load"], &["dist"]),
    ("perm", &["load"], &["dist"]),
    ("onoff", &["load", "on", "off"], &["dist"]),
    ("incast", &["scale", "size"], &["qps", "load", "sync"]),
];

fn parse_component(item: &str) -> Result<ScenarioComponent, String> {
    let (head, window) = grammar::split_window(item)?;
    let (kind_s, keys) = head.split_once(':').unwrap_or((head, ""));
    let kind_s = kind_s.trim();
    let kv = KvList::parse(keys, KEYS)?;
    let (_, requires, takes) = KINDS
        .iter()
        .find(|k| k.0 == kind_s)
        .ok_or_else(|| format!("unknown kind `{kind_s}` (expected incast|bg|a2a|perm|onoff)"))?;
    for key in KEYS {
        let needed = requires.contains(key);
        if needed && !kv.has(key) {
            return Err(format!("`{kind_s}` requires `{key}=`"));
        }
        let taken = needed || takes.contains(key) || ["tenant", "hosts"].contains(key);
        if !taken && kv.has(key) {
            return Err(format!("`{kind_s}` does not take `{key}=`"));
        }
    }
    let load = kv.num("load")?;
    let dist = kv
        .get("dist", |v| {
            DistKind::parse(v).ok_or_else(|| {
                format!("unknown dist `{v}` (expected cachefollower|datamining|websearch)")
            })
        })?
        .unwrap_or(DistKind::CacheFollower);
    let dur = |key| kv.get(key, grammar::parse_dur);
    let required = "required by KINDS";
    let kind = match kind_s {
        "bg" | "a2a" => ComponentKind::Background {
            load: load.expect(required),
            dist,
        },
        "perm" => ComponentKind::Permutation {
            load: load.expect(required),
            dist,
        },
        "onoff" => ComponentKind::OnOff {
            load: load.expect(required),
            dist,
            on: dur("on")?.expect(required),
            off: dur("off")?.expect(required),
        },
        "incast" => ComponentKind::Incast {
            scale: kv.num("scale")?.expect(required),
            bytes: kv.get("size", grammar::parse_size)?.expect(required),
            rate: match (kv.num("qps")?, load) {
                (Some(q), None) => IncastRate::Qps(q),
                (None, Some(l)) => IncastRate::Load(l),
                (Some(_), Some(_)) => {
                    return Err("give exactly one of `qps=` or `load=`, not both".into())
                }
                // Default: a moderate 10% of the host set's bandwidth.
                (None, None) => IncastRate::Load(0.1),
            },
            sync: dur("sync")?.unwrap_or(SimDuration::ZERO),
        },
        other => unreachable!("`{other}` is not in KINDS"),
    };
    Ok(ScenarioComponent {
        kind,
        hosts: kv.get("hosts", parse_hosts)?,
        tenant: kv.get("tenant", TenantName::parse)?,
        window,
    })
}

/// Parses `hosts=LO-HI`, two host ids.
fn parse_hosts(v: &str) -> Result<HostRange, String> {
    let (lo, hi) = v.split_once('-').ok_or("hosts must be `LO-HI` host ids")?;
    let id = |s: &str| s.trim().parse().map_err(|_| format!("bad host id `{s}`"));
    Ok(HostRange {
        lo: id(lo)?,
        hi: id(hi)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> PlanContext {
        PlanContext {
            num_hosts: 16,
            host_bw_bps: 10_000_000_000,
            horizon: SimDuration::from_millis(20),
        }
    }

    #[test]
    fn empty_spec_is_inert() {
        let s = ScenarioSpec::parse("").unwrap();
        assert!(s.is_empty());
        assert_eq!(s.to_string(), "");
        assert_eq!(s.offered_load(&ctx()), 0.0);
        assert!(s.plan(&SimRng::new(1), &ctx()).unwrap().is_empty());
    }

    #[test]
    fn issue_example_parses_and_round_trips() {
        let s = ScenarioSpec::parse(
            "incast:scale=8,sync=5us,size=64k@10ms-30ms \
             + bg:dist=datamining,load=0.4 + onoff:load=0.2,on=1ms,off=9ms",
        )
        .unwrap();
        assert_eq!(s.len(), 3);
        let canon = s.to_string();
        assert_eq!(ScenarioSpec::parse(&canon).unwrap(), s);
        // Canonical form prints every key explicitly (the implicit
        // default rate becomes load=0.1).
        assert!(
            canon.contains("incast:scale=8,size=64k,load=0.1"),
            "{canon}"
        );
        assert!(canon.contains("sync=5us"), "{canon}");
        assert!(canon.contains("@10ms-30ms"), "{canon}");
        assert!(canon.contains("bg:load=0.4,dist=datamining"), "{canon}");
    }

    #[test]
    fn incast_load_form_round_trips() {
        let s = ScenarioSpec::parse("incast:scale=16,size=40k,load=0.3").unwrap();
        match s.iter().next().unwrap().kind {
            ComponentKind::Incast { rate, .. } => {
                assert_eq!(rate, IncastRate::Load(0.3));
            }
            _ => panic!("wrong kind"),
        }
        assert_eq!(ScenarioSpec::parse(&s.to_string()).unwrap(), s);
    }

    #[test]
    fn rejects_overlapping_tenants_and_overloads() {
        let err = ScenarioSpec::parse(
            "bg:load=0.2,tenant=a,hosts=0-7 + onoff:load=0.2,on=1ms,off=1ms,tenant=b,hosts=4-11",
        )
        .expect_err("overlap must be rejected");
        assert!(err.contains("disjoint"), "{err}");

        let err = ScenarioSpec::parse("bg:load=1.5").expect_err("load > 1 rejected");
        assert!(err.contains("load must be in (0, 1]"), "{err}");

        let err =
            ScenarioSpec::parse("bg:load=0.6 + perm:load=0.6").expect_err("aggregate rejected");
        assert!(err.contains("aggregate"), "{err}");

        // Same tenant may span multiple components on shared hosts.
        assert!(ScenarioSpec::parse(
            "bg:load=0.2,tenant=a,hosts=0-7 + perm:load=0.2,tenant=a,hosts=0-7"
        )
        .is_ok());
    }

    #[test]
    fn actionable_parse_errors() {
        for (spec, needle) in [
            ("flood:load=0.1", "unknown kind"),
            ("bg:loads=0.1", "unknown key"),
            ("bg", "requires `load=`"),
            ("onoff:load=0.1,on=1ms", "requires `off=`"),
            ("incast:size=40k,qps=100", "requires `scale=`"),
            ("incast:scale=8,size=40k,qps=100,load=0.2", "not both"),
            ("bg:load=0.1,scale=4", "does not take `scale=`"),
            ("bg:load=0.1@5ms-2ms", "end after it starts"),
            ("bg:load=0.1,hosts=9-3", "reversed"),
            ("bg:load=0.1,load=0.2", "duplicate"),
            ("onoff:load=0.1,on=0ms,off=1ms", "positive durations"),
            ("bg:load=0.1,tenant=", "1..=15 characters"),
        ] {
            let err = ScenarioSpec::parse(spec).expect_err(spec);
            assert!(err.contains(needle), "{spec}: {err}");
        }
    }

    #[test]
    fn plan_is_a_pure_function_of_seed() {
        let s = ScenarioSpec::parse(
            "bg:load=0.2 + perm:load=0.1,hosts=0-7 + incast:scale=4,size=20k,qps=2000",
        )
        .unwrap();
        let a = s.plan(&SimRng::new(9), &ctx()).unwrap();
        let b = s.plan(&SimRng::new(9), &ctx()).unwrap();
        assert_eq!(a, b);
        let c = s.plan(&SimRng::new(10), &ctx()).unwrap();
        assert_ne!(a, c);
        assert!(a.iter().map(|p| p.flows.len()).sum::<usize>() > 0);
    }

    #[test]
    fn windows_and_host_ranges_are_respected() {
        let s = ScenarioSpec::parse("bg:load=0.3,hosts=4-11@5ms-10ms").unwrap();
        let plans = s.plan(&SimRng::new(3), &ctx()).unwrap();
        let p = &plans[0];
        assert!(!p.flows.is_empty());
        for f in &p.flows {
            assert!((4..=11).contains(&f.src), "{f:?}");
            assert!((4..=11).contains(&f.dst), "{f:?}");
            assert_ne!(f.src, f.dst);
            let ns = f.at.as_nanos();
            assert!((5_000_000..10_000_000).contains(&ns), "{f:?}");
        }
    }

    #[test]
    fn plan_fails_loudly_on_topology_mismatch() {
        let s = ScenarioSpec::parse("bg:load=0.1,hosts=0-99").unwrap();
        let err = s.plan(&SimRng::new(1), &ctx()).expect_err("out of range");
        assert!(err.contains("exceeds the topology"), "{err}");

        let s = ScenarioSpec::parse("incast:scale=20,size=40k,qps=100").unwrap();
        let err = s.plan(&SimRng::new(1), &ctx()).expect_err("scale too big");
        assert!(err.contains("needs more than"), "{err}");

        let s = ScenarioSpec::parse("bg:load=0.1@30ms-40ms").unwrap();
        let err = s.plan(&SimRng::new(1), &ctx()).expect_err("past horizon");
        assert!(err.contains("past the"), "{err}");

        // 16 hosts at 10 Gbps, one-byte replies from two servers: 1e10
        // queries per second, a gap under the 1 ns clock.
        let s = ScenarioSpec::parse("incast:scale=2,size=1,load=1").unwrap();
        let err = s
            .plan(&SimRng::new(1), &ctx())
            .expect_err("rate past the clock");
        assert!(err.contains("1.000e10 arrivals per second"), "{err}");
    }

    #[test]
    fn offered_load_accounts_windows_and_subsets() {
        // Full-horizon, all hosts: exactly the component load.
        let s = ScenarioSpec::parse("bg:load=0.4").unwrap();
        assert!((s.offered_load(&ctx()) - 0.4).abs() < 1e-12);
        // Half the hosts, half the horizon: a quarter of the load.
        let s = ScenarioSpec::parse("bg:load=0.4,hosts=0-7@0ms-10ms").unwrap();
        assert!((s.offered_load(&ctx()) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn labels_prefer_tenants() {
        let s = ScenarioSpec::parse("bg:load=0.2,tenant=web + perm:load=0.1").unwrap();
        assert_eq!(s.label(0), "web");
        assert_eq!(s.label(1), "perm#1");
    }
}
