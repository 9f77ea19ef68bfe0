//! The simulation driver: builds a network from a [`SimConfig`], accepts
//! flow/query schedules from the workload layer, runs the event loop to a
//! horizon, and produces a [`Report`].

use crate::events::{Ctx, Event, EventSink, FlowSpec};
use crate::faults::{FaultAction, FaultSchedule, FaultState};
use crate::host::{Host, HostConfig};
use crate::link::LinkParams;
use crate::policy::{QueueDiscipline, SwitchConfig};
use crate::queue::{Port, PortQueue};
use crate::switch::Switch;
use crate::telemetry::{Telemetry, TelemetryConfig};
use crate::topology::Topology;
use std::ops::AddAssign;
use std::sync::Arc;
use vertigo_pkt::{mix64, FlowId, NodeId, QueryId};
use vertigo_simcore::{EventBackend, EventQueue, SimDuration, SimRng, SimTime};
use vertigo_stats::{Recorder, Report};

/// Which network to build.
#[derive(Debug, Clone)]
pub enum TopologySpec {
    /// Two-tier leaf-spine.
    LeafSpine {
        /// Spine ("core") switches.
        spines: usize,
        /// Leaf ("aggregate"/ToR) switches.
        leaves: usize,
        /// Hosts per leaf.
        hosts_per_leaf: usize,
        /// Host link.
        host_link: LinkParams,
        /// Leaf-spine link.
        fabric_link: LinkParams,
    },
    /// k-ary fat-tree, all links equal.
    FatTree {
        /// Arity (even).
        k: usize,
        /// Link parameters throughout.
        link: LinkParams,
    },
    /// A pre-built topology, shared by reference — building this spec never
    /// deep-copies the adjacency lists.
    Custom(Arc<Topology>),
}

impl TopologySpec {
    /// The paper's leaf-spine (scaled by `hosts_per_leaf`): 4 spines,
    /// 8 leaves, 10 Gbps host links, 40 Gbps fabric links, 500 ns wires.
    pub fn paper_leaf_spine(hosts_per_leaf: usize) -> Self {
        TopologySpec::LeafSpine {
            spines: 4,
            leaves: 8,
            hosts_per_leaf,
            host_link: LinkParams::gbps(10, 500),
            fabric_link: LinkParams::gbps(40, 500),
        }
    }

    /// The paper's fat-tree: k = 8, 10 Gbps links.
    pub fn paper_fat_tree() -> Self {
        TopologySpec::FatTree {
            k: 8,
            link: LinkParams::gbps(10, 500),
        }
    }

    /// Materializes the topology. `Custom` specs return a reference-counted
    /// handle to the caller's topology (no clone); the builders construct a
    /// fresh one.
    pub fn build(&self) -> Arc<Topology> {
        match self {
            TopologySpec::LeafSpine {
                spines,
                leaves,
                hosts_per_leaf,
                host_link,
                fabric_link,
            } => Arc::new(Topology::leaf_spine(
                *spines,
                *leaves,
                *hosts_per_leaf,
                *host_link,
                *fabric_link,
            )),
            TopologySpec::FatTree { k, link } => Arc::new(Topology::fat_tree(*k, *link)),
            TopologySpec::Custom(t) => Arc::clone(t),
        }
    }
}

/// Full configuration of one simulation run.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// The network.
    pub topology: TopologySpec,
    /// Switch policies (forwarding, deflection, buffers, ECN).
    pub switch: SwitchConfig,
    /// Host stack (transport + Vertigo components).
    pub host: HostConfig,
    /// Simulated duration.
    pub horizon: SimDuration,
    /// RNG seed; two runs with identical configs produce identical results.
    pub seed: u64,
}

// The arena holds at most a few hundred nodes, so the per-slot padding the
// size difference costs is trivial, while boxing the large variant would put
// a pointer chase on the per-event dispatch path.
#[allow(clippy::large_enum_variant)]
pub(crate) enum Node {
    Host(Host),
    Switch(Switch),
}

impl Node {
    /// Runs this node's handler for `ev`, which a scheduler popped for it
    /// (`Event::node` said so) and the fault layer let pass. Inlined into
    /// each scheduler's loop: out of line it costs 8-13 % of
    /// `wall_us_per_mb` on the classic-engine cells (BENCH_PR17.json).
    #[inline]
    fn handle(&mut self, ev: Event, ctx: &mut Ctx) {
        match ev {
            Event::Arrive { port, pkt, .. } => {
                ctx.rec.audit.on_wire_rx();
                match self {
                    Node::Host(h) => h.on_arrive(pkt, ctx),
                    Node::Switch(s) => s.on_arrive(port, pkt, ctx),
                }
            }
            Event::TxDone { port, .. } => match self {
                Node::Host(h) => h.on_tx_done(ctx),
                Node::Switch(s) => s.on_tx_done(port, ctx),
            },
            Event::HostTimer { .. } => match self {
                Node::Host(h) => h.on_timer(ctx),
                Node::Switch(_) => unreachable!("switches have no timers"),
            },
            Event::FlowStart { spec, .. } => match self {
                Node::Host(h) => {
                    h.start_flow(spec.flow, spec.dst, spec.bytes, spec.query, ctx);
                    if spec.tag != 0 {
                        ctx.rec.tag_flow(spec.flow, spec.tag);
                    }
                }
                Node::Switch(_) => unreachable!("flows start at hosts"),
            },
        }
    }

    /// The per-event dispatch both schedulers share: applies the fault
    /// layer's `verdict` on `ev` and, if it passes, runs the handler.
    /// Interception happens here, before any node sees the event: a
    /// deferral goes back into the scheduler's own queue at the window end
    /// (same-time events pop in insertion order, so deferred events keep
    /// their relative order), a drop is charged to the recorder at the
    /// node and port where the packet would have arrived.
    #[inline]
    pub(crate) fn dispatch(&mut self, ev: Event, verdict: FaultAction, ctx: &mut Ctx) {
        match verdict {
            FaultAction::Pass => self.handle(ev, ctx),
            FaultAction::Defer(until) => {
                ctx.rec.fault_events += 1;
                ctx.events.push_local(until.max(ctx.now), ev);
            }
            FaultAction::Drop(cause) => {
                ctx.rec.fault_events += 1;
                if let Event::Arrive { node, port, pkt } = ev {
                    ctx.rec.audit.on_wire_rx();
                    ctx.drop_pkt(node, port.0, cause, pkt);
                }
            }
        }
    }
}

/// A runnable simulation instance.
pub struct Simulation {
    pub(crate) topo: Arc<Topology>,
    pub(crate) nodes: Vec<Node>,
    pub(crate) events: EventQueue<Event>,
    pub(crate) rng: SimRng,
    pub(crate) rec: Recorder,
    pub(crate) horizon: SimDuration,
    next_flow: u64,
    next_query: u64,
    pub(crate) telemetry: Option<(TelemetryConfig, Telemetry)>,
    pub(crate) faults: Option<FaultState>,
}

impl Simulation {
    /// Builds the network described by `cfg`.
    pub fn new(cfg: &SimConfig) -> Self {
        let topo = cfg.topology.build();
        topo.validate().expect("invalid topology");
        let routes = Arc::new(topo.switch_routes());
        let rng = SimRng::new(cfg.seed);

        // A host's NIC and a switch's ports are built alike: `id`'s port
        // onto the link `(peer, link)`, queueing in `queue`.
        let port = |id: NodeId, (peer, link): (NodeId, LinkParams), queue| Port {
            peer,
            peer_port: topo.port_to(peer, id).expect("symmetric link"),
            link,
            queue,
            busy: false,
            host_facing: topo.is_host(peer),
        };
        let mut nodes = Vec::with_capacity(topo.num_nodes());
        for h in 0..topo.hosts {
            let id = NodeId(h as u32);
            let nic = port(id, topo.adj[h][0], PortQueue::fifo());
            nodes.push(Node::Host(Host::new(id, nic, cfg.host.clone())));
        }
        for s in 0..topo.switches {
            let id = NodeId((topo.hosts + s) as u32);
            let queue = || match cfg.switch.buffer.queue_discipline() {
                QueueDiscipline::Fifo => PortQueue::fifo(),
                QueueDiscipline::Prio => PortQueue::prio(cfg.switch.boost_shift),
                QueueDiscipline::PrioEscalating => {
                    PortQueue::prio_escalating(cfg.switch.boost_shift)
                }
            };
            let ports: Vec<Port> = topo.adj[id.index()]
                .iter()
                .map(|&adj| port(id, adj, queue()))
                .collect();
            let salt = mix64(cfg.seed ^ mix64(id.0 as u64));
            nodes.push(Node::Switch(Switch::new(
                id,
                cfg.switch,
                ports,
                Arc::clone(&routes),
                s,
                salt,
            )));
        }

        Simulation {
            topo,
            nodes,
            events: EventQueue::new(),
            rng,
            rec: Recorder::new(),
            horizon: cfg.horizon,
            next_flow: 1,
            next_query: 1,
            telemetry: None,
            faults: None,
        }
    }

    /// [`Simulation::new`]: the timing wheel is the only event queue. Kept
    /// only because `perfbench` names it.
    pub fn new_with_events(cfg: &SimConfig, _events: EventBackend) -> Self {
        Self::new(cfg)
    }

    /// Installs a fault schedule, compiled against this simulation's
    /// topology. Call before [`Simulation::run`]. Faults draw from a
    /// dedicated RNG stream forked off the run seed, so installing a
    /// schedule never perturbs switch or workload randomness.
    ///
    /// # Panics
    /// Panics if the schedule targets a link or node that does not exist
    /// in the topology ([`FaultSchedule::check`]: a configuration bug, not
    /// a runtime condition).
    pub fn install_faults(&mut self, sched: &FaultSchedule) {
        if sched.is_empty() {
            self.faults = None;
            return;
        }
        let rng = self.rng.fork(0xFA17);
        self.faults = Some(FaultState::compile(sched, &self.topo, rng));
    }

    /// Enables fabric telemetry at the given sampling interval: a sample
    /// at every multiple of it up to the horizon. Call before
    /// [`Simulation::run`]; samples are available afterwards via
    /// [`Simulation::telemetry`].
    pub fn enable_telemetry(&mut self, cfg: TelemetryConfig) {
        self.telemetry = Some((cfg, Telemetry::new()));
    }

    /// The collected telemetry time series, if enabled.
    pub fn telemetry(&self) -> Option<&Telemetry> {
        self.telemetry.as_ref().map(|(_, t)| t)
    }

    /// Arms per-packet provenance recording with the given filter and
    /// per-node ring capacity. Call before [`Simulation::run`]; the
    /// captured stream is available afterwards via
    /// [`Simulation::trace_bytes`].
    pub fn enable_trace(&mut self, filter: vertigo_stats::TraceFilter, capacity: usize) {
        self.rec.trace.arm(filter, self.topo.num_nodes(), capacity);
    }

    /// The captured provenance stream, serialized in the `.vtrace` on-disk
    /// format (a valid empty trace when tracing was never armed).
    pub fn trace_bytes(&self) -> Vec<u8> {
        self.rec.trace.serialize()
    }

    /// The built topology.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Number of hosts.
    pub fn num_hosts(&self) -> usize {
        self.topo.hosts
    }

    /// The metrics recorder (read access for tests and workload layers).
    pub fn recorder(&self) -> &Recorder {
        &self.rec
    }

    /// The run's RNG — workload generators fork their own streams off it.
    pub fn rng(&self) -> &SimRng {
        &self.rng
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.events.now()
    }

    /// The configured horizon.
    pub fn horizon(&self) -> SimDuration {
        self.horizon
    }

    /// Allocates a fresh query id and registers its fan-out.
    pub fn register_query(&mut self, expected_flows: u32, at: SimTime) -> QueryId {
        let q = QueryId(self.next_query);
        self.next_query += 1;
        self.rec.query_started(q, expected_flows, at);
        q
    }

    /// Schedules a `bytes`-byte flow from `src` to `dst` starting at `at`.
    pub fn schedule_flow(
        &mut self,
        at: SimTime,
        src: NodeId,
        dst: NodeId,
        bytes: u64,
        query: QueryId,
    ) -> FlowId {
        self.schedule_tagged_flow(at, src, dst, bytes, query, 0)
    }

    /// [`Simulation::schedule_flow`] for workload-scenario component `tag`
    /// (tag 0 = base workload): the flow's record carries it for
    /// per-tenant reporting.
    pub fn schedule_tagged_flow(
        &mut self,
        at: SimTime,
        src: NodeId,
        dst: NodeId,
        bytes: u64,
        query: QueryId,
        tag: u8,
    ) -> FlowId {
        assert!(src != dst, "flow to self");
        assert!(self.topo.is_host(src) && self.topo.is_host(dst));
        assert!(bytes > 0);
        let flow = FlowId(self.next_flow);
        self.next_flow += 1;
        self.events.push(
            at,
            Event::FlowStart {
                src,
                spec: Box::new(FlowSpec {
                    dst,
                    flow,
                    query,
                    bytes,
                    tag,
                }),
            },
        );
        flow
    }

    /// Tags `query` as belonging to workload-scenario component `tag`.
    pub fn tag_query(&mut self, query: QueryId, tag: u8) {
        self.rec.tag_query(query, tag);
    }

    /// Runs the event loop up to the horizon and returns the report.
    /// May be called once; later events are discarded.
    pub fn run(&mut self) -> Report {
        self.drain_until(SimTime::ZERO + self.horizon);
        self.finalize()
    }

    /// Runs the event loop until every event at or before `limit` has
    /// been processed, then stops with the queue quiescent at `limit` —
    /// the checkpointable boundary. Handlers may keep scheduling events
    /// at the current instant; those are drained too, so a snapshot taken
    /// here never splits a same-time causal chain, and a resumed run pops
    /// the exact remaining sequence the straight-through run would.
    ///
    /// With telemetry armed, the loop stops at every sample instant on
    /// the way, once every event due then has run, and samples there.
    pub fn drain_until(&mut self, limit: SimTime) {
        let horizon = SimTime::ZERO + self.horizon;
        let limit = limit.min(horizon);
        let Simulation {
            nodes,
            events,
            rng,
            rec,
            telemetry,
            faults,
            ..
        } = self;
        loop {
            let sample = next_sample(telemetry, horizon).filter(|&s| s <= limit);
            let stop = sample.unwrap_or(limit);
            // Combined peek-then-pop: one queue access per iteration, and
            // events beyond the stop stay queued. `ev` is 16 bytes that
            // `pop_until` loads from the queue's entry into registers and
            // `dispatch` takes by value. Nothing out of line may be handed
            // `&ev`: the event then gets a stack home, stored as two
            // overlapping 8-byte moves, and the reload of `pkt` straddles
            // both and waits for them to retire (no store-to-load
            // forwarding), 5-9 % of `wall_us_per_mb` (BENCH_PR18.json).
            while let Some((now, ev)) = events.pop_until(stop) {
                let id = ev.node();
                let verdict = match faults.as_mut() {
                    Some(fs) => fs.intercept(now, id, ev.arrival()),
                    None => FaultAction::Pass,
                };
                let mut ctx = Ctx {
                    now,
                    events: EventSink::direct(events),
                    rec,
                    rng,
                };
                nodes[id.index()].dispatch(ev, verdict, &mut ctx);
            }
            let (Some(at), Some((_, tel))) = (sample, telemetry.as_mut()) else {
                return;
            };
            let pending = events.len() as u64;
            take_sample(tel, at, pending, nodes.iter(), rec, []);
        }
    }

    /// Banks end-of-run stats and builds the [`Report`]. Call once, after
    /// [`Simulation::drain_until`] has reached the horizon (or just use
    /// [`Simulation::run`], which does both).
    pub fn finalize(&mut self) -> Report {
        let horizon = SimTime::ZERO + self.horizon;
        let mut report = close_books(self.nodes.iter(), &mut self.rec, horizon);
        report.events_scheduled = self.events.scheduled_total();
        report.peak_pending_events = self.events.peak_pending() as u64;
        report
    }

    /// Serializes the complete mutable simulation state — event queue
    /// (clock included), RNG, recorder, id counters, every node, telemetry,
    /// and the fault RNG — as a VSNP component payload. Callers frame it
    /// with the file header (magic, version, spec hash, time).
    ///
    /// `&mut self` because the event queue snapshot drains and rebuilds
    /// in place; the running simulation is unperturbed afterwards.
    pub fn save_state(&mut self, w: &mut vertigo_simcore::SnapWriter) {
        use vertigo_simcore::Snapshot;
        self.events.save_into(w);
        self.rng.save(w);
        self.rec.snap_save(w, self.next_flow);
        w.put_u64(self.next_query);
        w.put_usize(self.nodes.len());
        for n in &self.nodes {
            match n {
                Node::Host(h) => h.snap_save(w),
                Node::Switch(s) => s.snap_save(w),
            }
        }
        w.put_bool(self.telemetry.is_some());
        if let Some((_, tel)) = &self.telemetry {
            tel.snap_save(w);
        }
        w.put_bool(self.faults.is_some());
        if let Some(fs) = &self.faults {
            fs.snap_save(w);
        }
    }

    /// Restores state written by [`Simulation::save_state`] into a
    /// simulation freshly built from the same run spec (topology built,
    /// workload installed, faults compiled, telemetry enabled). The event
    /// queue is rebuilt wholesale — every event the fresh build
    /// pre-installed is discarded in favor of the snapshot's pending set.
    /// `r` holds exactly one payload: bytes after it are refused.
    pub fn restore_state(
        &mut self,
        r: &mut vertigo_simcore::SnapReader<'_>,
    ) -> Result<(), vertigo_simcore::SnapError> {
        use vertigo_simcore::{SnapError, Snapshot};
        self.events = EventQueue::restore_from(r)?;
        self.rng = SimRng::restore(r)?;
        self.next_flow = self.rec.snap_restore(r)?;
        self.next_query = r.get_u64()?;
        // The smallest node record is a switch's without ports: two
        // counts and two counters.
        let n = r.count(32, "nodes")?;
        if n != self.nodes.len() {
            return Err(SnapError::new(format!(
                "snapshot has {n} nodes, this topology has {}",
                self.nodes.len()
            )));
        }
        for node in &mut self.nodes {
            match node {
                Node::Host(h) => h.snap_restore(r)?,
                Node::Switch(s) => s.snap_restore(r)?,
            }
        }
        let had_telemetry = r.get_bool()?;
        if had_telemetry != self.telemetry.is_some() {
            return Err(SnapError::new(
                "telemetry deployment mismatch between snapshot and run spec",
            ));
        }
        if let Some((_, tel)) = &mut self.telemetry {
            tel.snap_restore(r, fabric_counters(&self.rec, []))?;
        }
        let had_faults = r.get_bool()?;
        if had_faults != self.faults.is_some() {
            return Err(SnapError::new(
                "fault-schedule mismatch between snapshot and run spec",
            ));
        }
        if let Some(fs) = &mut self.faults {
            fs.snap_restore(r)?;
        }
        if !r.is_empty() {
            return Err(SnapError::new("trailing bytes after the last record"));
        }
        Ok(())
    }

    /// Test-only mutation hook: skews the audit's `created` tally by one
    /// so the mutation smoke test can prove the conservation check
    /// actually detects a seeded accounting bug (guarding the auditor
    /// against rotting into a no-op).
    #[cfg(debug_assertions)]
    pub fn audit_inject_phantom(&mut self) {
        self.rec.audit.created += 1;
    }

    /// Test-only mutation hook: perturbs victim/egress selection in every
    /// switch's deflection policy (see [`Switch::seed_victim_mutation`]).
    /// Golden-trace tests seed this to prove each policy's goldens pin the
    /// selection logic rather than rotting into always-pass byte diffs.
    pub fn seed_victim_mutation(&mut self) {
        for n in &mut self.nodes {
            if let Node::Switch(s) = n {
                s.seed_victim_mutation();
            }
        }
    }

    /// High-water mark of single-port queue occupancy across switches.
    pub fn max_port_bytes(&self) -> u64 {
        max_port_bytes(self.nodes.iter())
    }

    /// Aggregated ordering-shim counters across hosts (for §4.3 analyses).
    pub fn ordering_stats(&self) -> vertigo_core::OrderingStats {
        sum_over_hosts(self.nodes.iter(), |h| {
            h.ordering_stats().unwrap_or_default()
        })
    }

    /// Aggregated marking-component counters across hosts.
    pub fn marking_stats(&self) -> vertigo_core::MarkingStats {
        sum_over_hosts(self.nodes.iter(), |h| h.marking_stats().unwrap_or_default())
    }

    /// Heap held by the hosts' retransmission filters, summed.
    pub fn filter_heap_bytes(&self) -> usize {
        sum_over_hosts(self.nodes.iter(), Host::filter_heap_bytes)
    }

    /// Retransmission counters the hosts' marking components hold, summed.
    pub fn retx_entries(&self) -> usize {
        sum_over_hosts(self.nodes.iter(), Host::retx_entries)
    }
}

// Whole-fabric aggregates, over whichever nodes an engine holds: the
// classic arena or the domain engine's per-domain slices chained.

/// Closes a run's books on `rec` (the one recorder, or the domain
/// recorders merged) and builds the [`Report`]: banks per-host transport
/// stats, then — in debug builds — the end-of-run invariants: conservation
/// must close over whatever is still parked in queues or on the wire at
/// the horizon, and every finished flow's byte ledger must balance.
pub(crate) fn close_books<'a>(
    nodes: impl Iterator<Item = &'a Node> + Clone,
    rec: &mut Recorder,
    horizon: SimTime,
) -> Report {
    let s = sum_over_hosts(nodes.clone(), Host::stats);
    rec.retransmits += s.retransmits;
    rec.rtos += s.rtos;
    #[cfg(debug_assertions)]
    {
        audit_conservation(nodes, rec, [], "end of run");
        crate::audit::check_flow_accounting(rec);
    }
    Report::from_recorder(rec, horizon)
}

/// When the next telemetry sample falls, if telemetry is armed and the
/// sample is not past `horizon`. Samples fall at k · interval from t = 0
/// (k ≥ 1), so the next one follows from how many were taken: a restored
/// run finds its place in the series with no cursor of its own. The one
/// rule of both engines.
pub(crate) fn next_sample(
    telemetry: &Option<(TelemetryConfig, Telemetry)>,
    horizon: SimTime,
) -> Option<SimTime> {
    let (cfg, tel) = telemetry.as_ref()?;
    let k = tel.samples.len() as u64 + 1;
    let at = SimTime::from_nanos(cfg.interval.as_nanos().saturating_mul(k));
    (at <= horizon).then_some(at)
}

/// Takes the telemetry sample due at `at`, once every event due then has
/// run, for either engine: instantaneous switch occupancy over `nodes`,
/// the cumulative deflection, drop and ECN counters summed over `rec` and
/// `others` (the one recorder, or the domain engine's base and one per
/// domain), and the scheduler's pending-event count. In debug builds it
/// checks conservation there too, over the same recorders' tallies, and
/// counts the check on `rec`.
pub(crate) fn take_sample<'a>(
    tel: &mut Telemetry,
    at: SimTime,
    pending: u64,
    nodes: impl Iterator<Item = &'a Node> + Clone,
    rec: &mut Recorder,
    others: impl IntoIterator<Item = &'a Recorder> + Clone,
) {
    let (mut queued, mut max_port) = (0u64, 0u64);
    for n in nodes.clone() {
        if let Node::Switch(s) = n {
            queued += s.queued_bytes();
            max_port = max_port.max(s.busiest_port_bytes());
        }
    }
    let [deflections, drops, ecn] = fabric_counters(rec, others.clone());
    tel.record(at, queued, max_port, deflections, drops, ecn, pending);
    #[cfg(debug_assertions)]
    audit_conservation(nodes, rec, others, "telemetry sample");
}

/// The cumulative deflection, drop and ECN counters summed over `rec` and
/// `others`: what telemetry samples difference.
fn fabric_counters<'a>(rec: &Recorder, others: impl IntoIterator<Item = &'a Recorder>) -> [u64; 3] {
    let counters = |r: &Recorder| [r.deflections, r.total_drops(), r.ecn_marks];
    others.into_iter().fold(counters(rec), |sum, r| {
        let c = counters(r);
        std::array::from_fn(|i| sum[i] + c[i])
    })
}

pub(crate) fn max_port_bytes<'a>(nodes: impl Iterator<Item = &'a Node>) -> u64 {
    nodes
        .filter_map(|n| match n {
            Node::Switch(s) => Some(s.max_port_bytes),
            Node::Host(_) => None,
        })
        .max()
        .unwrap_or(0)
}

/// `read` of every host among `nodes`, summed: the fabric read-outs both
/// engines give.
pub(crate) fn sum_over_hosts<'a, T: Default + AddAssign>(
    nodes: impl Iterator<Item = &'a Node>,
    read: impl Fn(&Host) -> T,
) -> T {
    let mut total = T::default();
    for n in nodes {
        if let Node::Host(h) = n {
            total += read(h);
        }
    }
    total
}

/// Gathers live queue occupancy from every node and runs the
/// conservation check (see `crate::audit`) over the tallies of `rec` and
/// `others` summed.
#[cfg(debug_assertions)]
pub(crate) fn audit_conservation<'a>(
    nodes: impl Iterator<Item = &'a Node>,
    rec: &mut Recorder,
    others: impl IntoIterator<Item = &'a Recorder>,
    where_: &str,
) {
    let mut nic_queued = 0u64;
    let mut switch_queued = 0u64;
    for n in nodes {
        match n {
            Node::Host(h) => nic_queued += h.nic_queued_pkts(),
            Node::Switch(s) => switch_queued += s.queued_pkts(),
        }
    }
    crate::audit::check_conservation(rec, others, nic_queued, switch_queued, where_);
}

impl std::fmt::Debug for Simulation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulation")
            .field("topology", &self.topo.name)
            .field("now", &self.events.now())
            .field("pending_events", &self.events.len())
            .finish()
    }
}
