//! The conservative parallel engine: domain-partitioned simulation with
//! lookahead barriers (`--domains N`).
//!
//! [`DomainSimulation`] consumes a freshly built [`Simulation`] and splits
//! its nodes into `N` domains along the structural zones of
//! [`Topology::partition`](crate::Topology::partition) (per-leaf on a
//! leaf-spine, per-pod on a fat-tree), one domain per zone when `N` is
//! above the zone count. Each domain owns a private timing
//! wheel, per-node RNG streams, and a private [`Recorder`]; domains
//! advance in lockstep windows bounded by the minimum link propagation
//! delay (the lookahead), each window on its own thread.
//!
//! # Why `--domains N` is byte-identical to `--domains 1`
//!
//! Everything a node does depends only on (a) its own state, (b) the
//! order its wheel pops events, and (c) its private RNG stream. The
//! engine makes all three independent of the partition:
//!
//! * **All wire deliveries** (`Event::Arrive`, same-domain or not) wait
//!   for a barrier in the destination's calendar inbox — pushed there
//!   directly when sender and receiver share a domain, via a per-destination
//!   outbox handed over at the barrier when they do not — and every domain
//!   takes what came due out of it as one run in canonical
//!   `(arrival, send time, packet uid)` order — never in thread finish
//!   order. A domain only ever sees deliveries addressed to its own nodes,
//!   so that order is the global canonical order restricted to the domain,
//!   whatever the partition. Self-targeted events (`TxDone`, `HostTimer`)
//!   go to the local wheel, or, when they are due inside the window that
//!   is open, to a run of their own. A window pops the three merged by
//!   time, and at one instant the wheel's first (scheduled in an earlier
//!   window), then the arrivals, then what this window scheduled into
//!   itself: a tie order that is a function of the (partition-independent)
//!   barrier grid alone, and the one a single queue gives when the arrivals
//!   are pushed into it as the window opens.
//! * **Barriers land on a fixed grid**: a window starting at the earliest
//!   pending time `m` ends at `min(grid_ceil(m), horizon, next sample)`
//!   where the grid quantum is the global minimum propagation delay.
//!   Window boundaries are a pure function of event times, not of the
//!   domain count.
//! * **Randomness is per node** (streams forked off the run seed by node
//!   id) and **fault draws are content-keyed** (hash of packet uid, time
//!   and location), so no draw depends on how many domains share a
//!   thread.
//!
//! The per-domain recorders merge commutatively at the end
//! ([`Recorder::absorb`] + [`Recorder::recompute_queries`]). When the
//! partition fills one domain, that domain records into the run's
//! recorder, queries included, so flows and queries fold as they finish,
//! as in the classic loop.
//!
//! # What stays serial
//!
//! Between rounds the coordinator hands each outbox to its destination (a
//! swap per domain pair, no delivery touched), sums the pending counts,
//! takes the earliest pending time over wheels, inboxes and handed-over
//! batches (each tracks its own minimum), and samples telemetry.
//! Everything that costs per delivery — buffering, sorting a slot that
//! came due, merging it with the wheel — is the destination domain's and
//! runs inside its round.
//!
//! The classic engine (no `--domains` flag) is untouched and remains the
//! golden-trace / snapshot reference; it orders same-time events by
//! global insertion order, which is history a parallel engine cannot
//! reproduce, so the two engines are deliberately *not* byte-compared.

use crate::events::{Ctx, Event, EventSink, Router};
use crate::faults::{FaultAction, FaultState};
use crate::host::{earlier, Host};
use crate::sim::{self, Node, Simulation};
use crate::telemetry::{Telemetry, TelemetryConfig};
use std::sync::Arc;
use vertigo_simcore::{
    Batch, EventQueue, LookaheadGrid, SimDuration, SimRng, SimTime, WindowQueue, WorkerPool,
};
use vertigo_stats::{Recorder, Report};

/// RNG stream namespace for per-node streams (`base | node_id`), chosen
/// not to collide with the fault stream (`0xFA17`) or workload streams.
const NODE_STREAM_BASE: u64 = 0x4E0D_0000_0000;

/// One partition of the network: a slice of the node arena plus
/// everything those nodes need to run a window unassisted.
struct Domain {
    /// Local nodes, densely packed (in ascending global-id order).
    nodes: Vec<Node>,
    /// One RNG stream per local node, parallel to `nodes`.
    rngs: Vec<SimRng>,
    /// This domain's private event wheel: what its nodes scheduled for
    /// themselves past the window that was open at the time.
    wheel: EventQueue<Event>,
    /// Everything else it has pending — the clock, the inbox its wire
    /// deliveries wait in, the open window's runs — and its outboxes
    /// towards the other domains.
    router: Router,
    /// What each other domain sent last window (indexed by source),
    /// absorbed into the inbox at the start of the next round.
    inbound: Vec<Batch<Event>>,
    /// Deliveries from other domains absorbed so far.
    cross_in: u64,
    /// Most events this domain had pending at a barrier.
    peak_pending: u64,
    /// This domain's private metrics (merged into the base at the end),
    /// or, when it is the only one, the run's recorder.
    rec: Recorder,
    /// Shared compiled fault schedule (content-keyed, so `&self` works).
    faults: Option<Arc<FaultState>>,
    /// Global node id -> local index within the owning domain.
    node_local: Arc<Vec<u32>>,
}

impl Domain {
    /// Events this domain holds anywhere: wheel, inbox, and deliveries
    /// handed over but not yet absorbed.
    fn pending(&self) -> u64 {
        let inbound: usize = self.inbound.iter().map(Batch::len).sum();
        (self.wheel.len() + self.router.window.len() + inbound) as u64
    }

    /// Earliest time any of them is due.
    fn min_time(&self) -> Option<SimTime> {
        self.inbound
            .iter()
            .filter_map(Batch::min_time)
            .chain(self.wheel.peek_time())
            .chain(self.router.window.min_time())
            .min()
    }

    /// One barrier round: takes delivery of what other domains sent last
    /// window, opens the window that ends at `limit` — the deliveries
    /// landing in it leave the inbox as one run in canonical order — and
    /// pops it dry, wheel and run merged.
    fn drain_window(&mut self, limit: SimTime) {
        let Domain {
            nodes,
            rngs,
            wheel,
            router,
            inbound,
            cross_in,
            rec,
            faults,
            node_local,
            ..
        } = self;
        // The batch kept for this domain's own index stays empty.
        for batch in inbound.iter_mut().filter(|b| !b.is_empty()) {
            *cross_in += batch.len() as u64;
            router.window.absorb(batch);
        }
        router.window.open(limit);
        // As in `Simulation::drain_until`, `ev` goes from its entry to
        // `dispatch` in registers, and an `&ev` handed to anything out
        // of line would give it a stack home and a stalled reload, 5-9 %
        // of `wall_us_per_mb`: the fault layer gets what it reads by value.
        while let Some((now, ev)) = router.window.pop(wheel) {
            let id = ev.node();
            let verdict = match faults.as_deref() {
                Some(fs) => fs.intercept_keyed(now, id, ev.arrival()),
                None => FaultAction::Pass,
            };
            let l = node_local[id.index()] as usize;
            let mut ctx = Ctx {
                now,
                events: EventSink::routed(wheel, router),
                rec,
                rng: &mut rngs[l],
            };
            // A deferred event is re-pushed for this domain alone: it
            // already lives in the right one, and its deferral round is
            // fixed by the (partition-independent) barrier grid.
            nodes[l].dispatch(ev, verdict, &mut ctx);
        }
    }
}

/// The domain-partitioned simulation driver. Build one with
/// [`DomainSimulation::from_sim`] from a *freshly constructed*
/// [`Simulation`] (workload scheduled, faults installed, telemetry
/// enabled, nothing run yet), then call [`DomainSimulation::run`].
pub struct DomainSimulation {
    domains: Vec<Domain>,
    grid: LookaheadGrid,
    horizon: SimDuration,
    /// The run's recorder, queries included, until the domains run; then
    /// every domain's merged into it. A lone domain holds it while it runs.
    base_rec: Recorder,
    telemetry: Option<(TelemetryConfig, Telemetry)>,
    barrier_epochs: u64,
    peak_pending: u64,
}

impl DomainSimulation {
    /// Why the domain engine cannot run a run that asks for these, if it
    /// cannot: a packet trace, or an active checkpoint or resume request.
    /// It has no provenance hooks and no quiescent single-queue state to
    /// checkpoint; combining them would silently produce an empty trace
    /// or an unrestorable snapshot. The command line reports the refusal,
    /// and the drivers assert on it.
    pub fn refusal(trace: bool, snapshot: bool) -> Option<&'static str> {
        let refusals = [
            (
                trace,
                "packet tracing requires the classic engine: drop either --trace or --domains",
            ),
            (
                snapshot,
                "checkpoint/resume requires the classic engine: \
                 drop either --checkpoint-every/--resume or --domains",
            ),
        ];
        refusals
            .into_iter()
            .find_map(|(hit, why)| hit.then_some(why))
    }

    /// Partitions `sim` into at most `n` domains: as many as the partition
    /// fills, one a zone when `n` is above the topology's zone count.
    /// Consumes the simulation: node state, pending `FlowStart` events,
    /// recorder, fault schedule and telemetry configuration all move into
    /// the domain engine; one domain takes the recorder itself.
    ///
    /// # Panics
    /// Panics if `n == 0`, if the topology has a zero-latency link (no
    /// conservative lookahead exists), if tracing was armed
    /// ([`DomainSimulation::refusal`]), or if `sim` has already run (its
    /// queue holds anything but `FlowStart`).
    pub fn from_sim(sim: Simulation, n: usize) -> DomainSimulation {
        assert!(n >= 1, "--domains must be at least 1");
        if let Some(why) = Self::refusal(sim.rec.trace.enabled(), false) {
            panic!("{why}");
        }
        let Simulation {
            topo,
            nodes,
            mut events,
            rng,
            rec,
            horizon,
            telemetry,
            faults,
            ..
        } = sim;

        let quantum = topo.min_prop_delay().as_nanos();
        assert!(
            quantum > 0,
            "--domains requires every link to have a positive propagation \
             delay (lookahead bound); this topology has a 0 ns link"
        );
        let grid = LookaheadGrid::new(quantum);

        let node_domain = topo.partition(n);
        // Zones are dealt to domains round-robin, so above the zone count
        // the domains past it would get no node and idle through every
        // barrier: run the ones the partition filled.
        let n = node_domain.iter().max().map_or(1, |&d| d as usize + 1);
        let node_domain = Arc::new(node_domain);
        let mut node_local = vec![0u32; topo.num_nodes()];
        let mut counts = vec![0u32; n];
        for (id, &d) in node_domain.iter().enumerate() {
            node_local[id] = counts[d as usize];
            counts[d as usize] += 1;
        }
        let node_local = Arc::new(node_local);
        let faults = faults.map(Arc::new);

        let mut domains: Vec<Domain> = (0..n)
            .map(|i| Domain {
                nodes: Vec::with_capacity(counts[i] as usize),
                rngs: Vec::with_capacity(counts[i] as usize),
                wheel: EventQueue::new(),
                router: Router {
                    index: i as u32,
                    node_domain: Arc::clone(&node_domain),
                    window: WindowQueue::new(grid),
                    outboxes: (0..n).map(|_| Batch::default()).collect(),
                },
                inbound: (0..n).map(|_| Batch::default()).collect(),
                cross_in: 0,
                peak_pending: 0,
                rec: Recorder::new(),
                faults: faults.clone(),
                node_local: Arc::clone(&node_local),
            })
            .collect();
        for (id, node) in nodes.into_iter().enumerate() {
            let d = &mut domains[node_domain[id] as usize];
            d.nodes.push(node);
            d.rngs.push(rng.fork(NODE_STREAM_BASE | id as u64));
        }

        // Distribute the pre-scheduled workload: `FlowStart`s keep their
        // global pop order within each domain's wheel.
        while let Some((at, ev)) = events.pop() {
            assert!(
                matches!(ev, Event::FlowStart { .. }),
                "--domains requires a freshly built simulation; found a \
                 pending {ev:?} in the queue"
            );
            let d = node_domain[ev.node().index()] as usize;
            domains[d].wheel.push(at, ev);
        }

        let base_rec = match domains.as_mut_slice() {
            [only] => std::mem::replace(&mut only.rec, rec),
            _ => rec,
        };

        DomainSimulation {
            domains,
            grid,
            horizon,
            base_rec,
            telemetry,
            barrier_epochs: 0,
            peak_pending: 0,
        }
    }

    /// Runs the barrier loop to the horizon and returns the report.
    pub fn run(&mut self) -> Report {
        let horizon = SimTime::ZERO + self.horizon;
        let n = self.domains.len();
        // N = 1 runs windows inline; N >= 2 keeps one worker thread per
        // domain alive for the whole run (windows are short and numerous).
        let mut pool: Option<WorkerPool<Domain>> = (n >= 2)
            .then(|| WorkerPool::new(n, |d: &mut Domain, limit: SimTime| d.drain_window(limit)));
        let mut prev_limit = SimTime::ZERO;

        loop {
            // (1) Hand last window's cross-domain deliveries to their
            // destinations, which absorb them when their round starts.
            self.exchange();

            // (2) Global scheduler pressure (wheels, inboxes, deliveries in
            // hand-over) peaks at barriers; this is the domain analogue of
            // the classic queue's high-water mark and is
            // domain-count-invariant. The same pass finds the earliest
            // pending work anywhere.
            let mut pending = 0u64;
            let mut m = None;
            for d in &mut self.domains {
                let own = d.pending();
                d.peak_pending = d.peak_pending.max(own);
                pending += own;
                m = earlier(m, d.min_time());
            }
            self.peak_pending = self.peak_pending.max(pending);

            // (3) Take the telemetry sample the last window landed on
            // (windows are capped at the next sample instant, so the
            // barrier sits exactly on it).
            let next = sim::next_sample(&self.telemetry, horizon);
            if let (Some(at), Some((_, tel))) = (next, self.telemetry.as_mut()) {
                if at <= prev_limit {
                    let nodes = self.domains.iter().flat_map(|d| &d.nodes);
                    let others = self.domains.iter().map(|d| &d.rec);
                    sim::take_sample(tel, at, pending, nodes, &mut self.base_rec, others);
                }
            }
            let next_sample = sim::next_sample(&self.telemetry, horizon);

            // (4) The sample instants keep the loop alive through quiet
            // stretches: an empty window still ends at the next one.
            let Some(m) = earlier(m, next_sample).filter(|&t| t <= horizon) else {
                break; // quiescent (or only post-horizon events remain)
            };

            // (5) Conservative window: from the earliest pending time to
            // the next grid point — at most one lookahead quantum, so
            // nothing sent inside the window lands inside it.
            let mut end = self.grid.ceil_after(m).min(horizon);
            if let Some(s) = next_sample {
                end = end.min(s);
            }

            // (6) One lockstep round: every domain takes what lands in the
            // window out of its inbox and pops it merged with its wheel.
            match pool.as_mut() {
                Some(p) => p.round_in_place(&mut self.domains, end),
                None => self.domains[0].drain_window(end),
            }

            prev_limit = end;
            self.barrier_epochs += 1;
        }

        self.finalize(horizon)
    }

    /// Swaps every non-empty outbox with the (drained, so empty) batch
    /// its destination keeps for that source: O(1) per pair, and both
    /// allocations keep circulating.
    fn exchange(&mut self) {
        for src in 0..self.domains.len() {
            for dst in 0..self.domains.len() {
                if self.domains[src].router.outboxes[dst].is_empty() {
                    continue;
                }
                let (lo, hi) = self.domains.split_at_mut(src.max(dst));
                let (from, to) = if src < dst {
                    (&mut lo[src], &mut hi[0])
                } else {
                    (&mut hi[0], &mut lo[dst])
                };
                debug_assert!(to.inbound[src].is_empty(), "absorbed every round");
                std::mem::swap(&mut from.router.outboxes[dst], &mut to.inbound[src]);
                // Custody transfer: the sender's domain counted the tx;
                // hand the in-flight packets to the receiver's tally so
                // neither side underflows.
                let n = to.inbound[src].len() as u64;
                from.rec.audit.hand_over_wire(&mut to.rec.audit, n);
            }
        }
    }

    /// Merges domain recorders into the base (a lone domain's is the
    /// run's), closes the books, and builds the report.
    fn finalize(&mut self, horizon: SimTime) -> Report {
        let mut rec = std::mem::take(&mut self.base_rec);
        if let [only] = self.domains.as_mut_slice() {
            // The base holds only the audit checks telemetry counted on it.
            std::mem::swap(&mut rec, &mut only.rec);
        }
        for d in &mut self.domains {
            rec.absorb(std::mem::take(&mut d.rec));
        }
        if self.domains.len() > 1 {
            rec.recompute_queries();
        }
        // In-flight custody at the horizon = arrivals in wheels and inboxes
        // + deliveries handed over in the last exchange, all already summed
        // into the merged `wire` tally the conservation audit reads.
        let mut report = sim::close_books(self.nodes(), &mut rec, horizon);
        // What one queue would have counted: each event went through the
        // wheel or through the window queue beside it, never both.
        report.events_scheduled = (self.domains.iter())
            .map(|d| d.wheel.scheduled_total() + d.router.window.merged_total())
            .sum();
        report.peak_pending_events = self.peak_pending;
        report.domains = self.domains.len() as u64;
        report.barrier_epochs = self.barrier_epochs;
        report.cross_domain_packets = self.domains.iter().map(|d| d.cross_in).sum();
        report.domain_peak_pending = self.domains.iter().map(|d| d.peak_pending).collect();
        self.base_rec = rec;
        report
    }

    /// The metrics recorder: after [`DomainSimulation::run`], the run's,
    /// every domain's merged into it (read access for tests and workload
    /// layers).
    pub fn recorder(&self) -> &Recorder {
        &self.base_rec
    }

    /// The collected telemetry time series, if enabled.
    pub fn telemetry(&self) -> Option<&Telemetry> {
        self.telemetry.as_ref().map(|(_, t)| t)
    }

    /// Every node, domain by domain.
    fn nodes(&self) -> impl Iterator<Item = &Node> + Clone {
        self.domains.iter().flat_map(|d| d.nodes.iter())
    }

    /// High-water mark of single-port queue occupancy across switches.
    pub fn max_port_bytes(&self) -> u64 {
        sim::max_port_bytes(self.nodes())
    }

    /// Aggregated ordering-shim counters across hosts.
    pub fn ordering_stats(&self) -> vertigo_core::OrderingStats {
        sim::sum_over_hosts(self.nodes(), |h| h.ordering_stats().unwrap_or_default())
    }

    /// Aggregated marking-component counters across hosts.
    pub fn marking_stats(&self) -> vertigo_core::MarkingStats {
        sim::sum_over_hosts(self.nodes(), |h| h.marking_stats().unwrap_or_default())
    }

    /// Heap held by the hosts' retransmission filters, summed.
    pub fn filter_heap_bytes(&self) -> usize {
        sim::sum_over_hosts(self.nodes(), Host::filter_heap_bytes)
    }

    /// Retransmission counters the hosts' marking components hold, summed.
    pub fn retx_entries(&self) -> usize {
        sim::sum_over_hosts(self.nodes(), Host::retx_entries)
    }
}
