//! Probes: each layer's public API driven alone, with an op stream
//! shaped by the workload's own counts, reported as nanoseconds per
//! operation. A probe sees neither dispatch nor the cache pressure of a
//! full run; what the probes cannot explain is reported as
//! `netsim.sim.residual_share`, not hidden.

use crate::fixtures::{bursty_delay_ns, lcg, plain_pkt, rfs_of, srpt_info, tagged_pkt, MSS};
use crate::spans::Tracer;
use std::collections::VecDeque;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;
use vertigo_core::{
    CuckooFilter, MarkingComponent, MarkingConfig, OrderingComponent, OrderingConfig, PieoQueue,
};
use vertigo_netsim::{
    Ctx, Event, EventSink, LinkParams, Port, PortQueue, QueueDiscipline, RouteTable, Switch,
    SwitchConfig,
};
use vertigo_pkt::{pool, AckSeg, DataSeg, FlowId, NodeId, PortId, QueryId};
use vertigo_simcore::{EventQueue, SimDuration, SimRng, SimTime, WorkerPool};
use vertigo_stats::Recorder;
use vertigo_transport::{CcKind, FlowReceiver, FlowSender, TransportConfig};

/// What the workload tells the probes.
pub struct ProbeInput {
    /// The run's `peak_pending` events: depth the wheel is probed at.
    pub queue_depth: usize,
    /// Flows the run started: size the recorder is probed at.
    pub flows: u64,
    /// The workload's switch configuration.
    pub switch: SwitchConfig,
    /// The workload's congestion control.
    pub cc: CcKind,
    /// Divides every probe's operation count (10 under `--quick`).
    pub ops_divisor: u64,
}

/// Nanoseconds per operation, by probe name.
pub type ProbeResults = Vec<(&'static str, f64)>;

/// Runs `batch` — which performs and returns some number of operations —
/// once under a span called `name`.
fn probe(
    t: &mut Tracer,
    out: &mut ProbeResults,
    name: &'static str,
    mut batch: impl FnMut() -> u64,
) {
    let id = t.enter(name);
    let start = Instant::now();
    let ops = batch();
    let ns_per_op = start.elapsed().as_nanos() as f64 / ops.max(1) as f64;
    t.exit(id, &[("ops", ops as f64), ("ns_per_op", ns_per_op)]);
    out.push((name, ns_per_op));
}

/// Folds one round into the fastest seen so far, probe by probe: the op
/// streams are deterministic, so a slower round measured the box.
pub fn keep_fastest(best: &mut ProbeResults, round: ProbeResults) {
    if best.is_empty() {
        *best = round;
    } else {
        for (b, r) in best.iter_mut().zip(round) {
            debug_assert_eq!(b.0, r.0);
            b.1 = b.1.min(r.1);
        }
    }
}

/// A batch of `ops` calls of `op`.
fn repeat(ops: u64, mut op: impl FnMut()) -> impl FnMut() -> u64 {
    move || {
        for _ in 0..ops {
            op();
        }
        ops
    }
}

/// Destination host of the hand-built switch: where [`tagged_pkt`] sends.
const HOST: NodeId = NodeId(1);

/// A 4-port switch as in `crates/netsim/tests/switch_behavior.rs`: port 0
/// faces the destination host, ports 1–3 face other switches.
fn four_port_switch(cfg: SwitchConfig) -> Switch {
    let ports: Vec<Port> = (0..4)
        .map(|i| Port {
            peer: if i == 0 { HOST } else { NodeId(20 + i) },
            peer_port: PortId(0),
            link: LinkParams::gbps(10, 500),
            queue: match cfg.buffer.queue_discipline() {
                QueueDiscipline::Fifo => PortQueue::fifo(),
                QueueDiscipline::Prio => PortQueue::prio(cfg.boost_shift),
                QueueDiscipline::PrioEscalating => PortQueue::prio_escalating(cfg.boost_shift),
            },
            busy: false,
            host_facing: i == 0,
        })
        .collect();
    // Hosts 0 and 1 both behind port 0.
    let routes = Arc::new(RouteTable::from_nested(&[vec![vec![0u16], vec![0u16]]]));
    Switch::new(NodeId(10), cfg, ports, routes, 0, 0xBEEF)
}

/// The switch with the event queue, recorder and RNG a `Ctx` borrows.
struct SwitchHarness {
    sw: Switch,
    events: EventQueue<Event>,
    rec: Recorder,
    rng: SimRng,
    uid: u64,
}

impl SwitchHarness {
    fn new(cfg: SwitchConfig) -> Self {
        SwitchHarness {
            sw: four_port_switch(cfg),
            events: EventQueue::new(),
            rec: Recorder::new(),
            rng: SimRng::new(7),
            uid: 0,
        }
    }

    /// One packet for the host arrives from a fabric port.
    fn arrive(&mut self) {
        self.uid += 1;
        let pkt = tagged_pkt(self.uid, rfs_of(self.uid));
        let mut ctx = Ctx {
            now: self.events.now(),
            events: EventSink::direct(&mut self.events),
            rec: &mut self.rec,
            rng: &mut self.rng,
        };
        self.sw.on_arrive(PortId(1), pkt, &mut ctx);
    }

    /// Plays every pending event: transmissions finish and the next
    /// starts, deliveries to neighbours end the packet's life here. With
    /// `hold_host_port`, port 0 never finishes serializing, so it stays
    /// busy and its queue stays as full as it is.
    fn play(&mut self, hold_host_port: bool) {
        while let Some((now, ev)) = self.events.pop() {
            match ev {
                Event::Arrive { pkt, .. } => pool::recycle(pkt),
                Event::TxDone { port, .. } if hold_host_port && port.0 == 0 => {}
                Event::TxDone { port, .. } => {
                    let mut ctx = Ctx {
                        now,
                        events: EventSink::direct(&mut self.events),
                        rec: &mut self.rec,
                        rng: &mut self.rng,
                    };
                    self.sw.on_tx_done(port, &mut ctx);
                }
                other => unreachable!("a switch schedules no {other:?}"),
            }
        }
    }
}

/// A closed loop of one endless flow over a 10 Gbps bottleneck with a
/// 10 µs one-way delay and an ECN threshold of 65 packets, after
/// `crates/transport/tests/closed_loop.rs` without the loss.
struct TransportLoop {
    snd: FlowSender,
    rcv: FlowReceiver,
    now: SimTime,
    /// Data in flight: (delivery time, segment, CE mark, send time).
    data: VecDeque<(SimTime, DataSeg, bool, SimTime)>,
    /// ACKs in flight: (delivery time, ack).
    acks: VecDeque<(SimTime, AckSeg)>,
    link_free: SimTime,
}

impl TransportLoop {
    const DELAY: SimDuration = SimDuration::from_micros(10);
    const TX: SimDuration = SimDuration::from_nanos(1_200);

    fn new(cc: CcKind) -> Self {
        let bytes = 1u64 << 40;
        TransportLoop {
            snd: FlowSender::new(FlowId(1), bytes, TransportConfig::default_for(cc)),
            rcv: FlowReceiver::new(FlowId(1), bytes),
            now: SimTime::ZERO,
            data: VecDeque::new(),
            acks: VecDeque::new(),
            link_free: SimTime::ZERO,
        }
    }

    /// Runs until `segments` more segments are acknowledged.
    fn run(&mut self, segments: u64) -> u64 {
        let mut acked = 0;
        while acked < segments {
            while let Some(seg) = self.snd.poll_segment(self.now) {
                let start = self.link_free.max(self.now);
                let queued = start.saturating_since(self.now);
                self.link_free = start + Self::TX;
                let ce = queued.as_nanos() > 65 * Self::TX.as_nanos();
                self.data
                    .push_back((self.link_free + Self::DELAY, seg, ce, self.now));
            }
            let next = [
                self.data.front().map(|d| d.0),
                self.acks.front().map(|a| a.0),
                self.snd.next_deadline(self.now),
            ]
            .into_iter()
            .flatten()
            .min()
            .expect("an endless flow always has work pending");
            self.now = self.now.max(next);
            while self.data.front().is_some_and(|d| d.0 <= self.now) {
                let (_, seg, ce, sent) = self.data.pop_front().expect("checked");
                let ack = self.rcv.on_data(self.now, &seg, ce, sent);
                self.acks.push_back((self.now + Self::DELAY, ack));
            }
            while self.acks.front().is_some_and(|a| a.0 <= self.now) {
                let (_, ack) = self.acks.pop_front().expect("checked");
                self.snd.on_ack(self.now, &ack);
                acked += 1;
            }
            self.snd.on_timer(self.now);
        }
        acked
    }
}

/// One round: every probe once (a fifth of a second in all), each as a
/// span of `t`. A run makes one round after each of its untraced
/// repetitions and keeps each probe's fastest, so that the probes and
/// the wall-time estimate they are set against see the same phases of
/// the box.
pub fn run_round(t: &mut Tracer, input: &ProbeInput) -> ProbeResults {
    let mut out = ProbeResults::new();
    let out = &mut out;
    let n = |ops: u64| ops / input.ops_divisor.max(1);

    // simcore: the wheel at the run's own peak depth, one pop and one
    // push per op (the `bursty` series of the events bench).
    {
        let mut q: EventQueue<u64> = EventQueue::new();
        let mut r = 0x9E3779B97F4A7C15u64;
        for i in 0..input.queue_depth.max(1) as u64 {
            q.push_after(SimDuration::from_nanos(bursty_delay_ns(&mut r)), i);
        }
        let mut op = repeat(n(200_000), || {
            let popped = q.pop().expect("queue never drains");
            q.push_after(
                SimDuration::from_nanos(bursty_delay_ns(&mut r)),
                black_box(popped.1),
            );
            black_box(popped.0);
        });
        // The fill put every deadline within 4 µs of time zero; one
        // untimed batch spreads them as a running simulation does.
        op();
        probe(t, out, "simcore.event.ns_per_push_pop", op);
    }
    // simcore: one empty lockstep round of two workers.
    {
        let mut pool: WorkerPool<u64> = WorkerPool::new(2, |s: &mut u64, _| *s += 1);
        let mut states = vec![0u64, 0];
        probe(t, out, "simcore.barrier.ns_per_round", || {
            for _ in 0..n(200) {
                states = pool.round(std::mem::take(&mut states), SimTime::ZERO);
            }
            n(200)
        });
    }
    // pkt: the allocation cycle every simulated packet goes through.
    {
        let mut uid = 0u64;
        let op = repeat(n(500_000), || {
            uid += 1;
            let p = pool::boxed(plain_pkt(black_box(uid)));
            black_box(&p);
            pool::recycle(p);
        });
        probe(t, out, "pkt.pool.ns_per_alloc_recycle", op);
    }
    // core: PIEO at 200 packets = 300 KB of MTUs, transmit and victimize.
    for (name, pop_max) in [
        ("core.pieo.ns_per_push_pop_min", false),
        ("core.pieo.ns_per_pop_max", true),
    ] {
        let mut q = PieoQueue::new();
        let mut r = 1u64;
        for _ in 0..200 {
            q.push(lcg(&mut r) >> 40, ());
        }
        let op = repeat(n(500_000), || {
            q.push(black_box(lcg(&mut r) >> 40), ());
            if pop_max {
                black_box(q.pop_max());
            } else {
                black_box(q.pop_min());
            }
        });
        probe(t, out, name, op);
    }
    // core: TX-path marking of fresh packets across 256 flows.
    {
        let mut m = MarkingComponent::new(MarkingConfig::default());
        let flows = 256u64;
        for f in 0..flows {
            m.register_flow(FlowId(f), NodeId(1), 10_000_000);
        }
        let (mut seq, mut f) = (0u64, 0u64);
        let op = repeat(n(300_000), || {
            f = (f + 1) % flows;
            seq = (seq + MSS as u64) % 9_000_000;
            black_box(m.mark(FlowId(f), seq, MSS));
        });
        probe(t, out, "core.marking.ns_per_mark", op);
    }
    // core: the retransmission filter at three quarters of its capacity.
    {
        let mut f = CuckooFilter::with_capacity(65_536);
        for k in 0..48_000u64 {
            f.insert(k);
        }
        let mut k = 1_000_000u64;
        let op = repeat(n(300_000), || {
            k += 1;
            f.insert(black_box(k));
            black_box(f.contains(k));
            f.remove(k);
        });
        probe(t, out, "core.cuckoo.ns_per_insert_contains", op);
    }
    // core: the RX ordering shim, in order and as swapped pairs.
    {
        // A flow long enough that neither stream reaches its end.
        let len = 1u32 << 20;
        let pairs = n(100_000);
        let mut o: OrderingComponent<u64> = OrderingComponent::new(OrderingConfig::default());
        let mut delivered = Vec::with_capacity(4);
        let mut k = 0u32;
        let op = repeat(n(300_000), || {
            delivered.clear();
            o.on_packet(
                SimTime::from_nanos(k as u64),
                FlowId(1),
                srpt_info(k, len),
                MSS,
                black_box(k as u64),
                &mut delivered,
            );
            k += 1;
            black_box(delivered.len());
        });
        probe(t, out, "core.ordering.ns_per_pkt_inorder", op);

        let mut o: OrderingComponent<u64> = OrderingComponent::new(OrderingConfig::default());
        o.on_packet(
            SimTime::ZERO,
            FlowId(1),
            srpt_info(0, len),
            MSS,
            0,
            &mut delivered,
        );
        let mut k = 1u32;
        probe(t, out, "core.ordering.ns_per_pkt_ooo", || {
            for _ in 0..pairs {
                delivered.clear();
                for j in [k + 1, k] {
                    o.on_packet(
                        SimTime::ZERO,
                        FlowId(1),
                        srpt_info(j, len),
                        MSS,
                        0,
                        &mut delivered,
                    );
                }
                k += 2;
                black_box(delivered.len());
            }
            2 * pairs
        });
    }
    // netsim: port queues at the depths of the switch bench.
    for (name, mut q, depth, evict) in [
        (
            "netsim.queue.ns_per_push_pop_fifo",
            PortQueue::fifo(),
            100,
            false,
        ),
        (
            "netsim.queue.ns_per_push_pop_prio",
            PortQueue::prio(1),
            100,
            false,
        ),
        (
            "netsim.queue.ns_per_evict_worst",
            PortQueue::prio(1),
            200,
            true,
        ),
    ] {
        let mut uid = 0u64;
        for _ in 0..depth {
            uid += 1;
            q.push(tagged_pkt(uid, rfs_of(uid)));
        }
        let op = repeat(n(300_000), || {
            uid += 1;
            q.push(tagged_pkt(uid, rfs_of(uid)));
            let gone = if evict { q.evict_worst() } else { q.pop_next() };
            pool::recycle(black_box(gone).expect("queue holds packets"));
        });
        probe(t, out, name, op);
    }
    // netsim: one packet through an idle switch — route, enqueue, start
    // of transmission, end of transmission.
    {
        let mut h = SwitchHarness::new(input.switch);
        let op = repeat(n(200_000), || {
            h.arrive();
            h.play(false);
        });
        probe(t, out, "netsim.switch.ns_per_forward", op);
    }
    // netsim: arrival at a full port — the deflect-or-drop path, with the
    // transmissions a deflection causes on the other ports.
    {
        let mut h = SwitchHarness::new(input.switch);
        let overflows = |h: &SwitchHarness| h.rec.deflections + h.rec.total_drops() + h.rec.trims;
        while overflows(&h) == 0 {
            h.arrive();
        }
        h.play(true);
        let op = repeat(n(100_000), || {
            h.arrive();
            h.play(true);
        });
        probe(t, out, "netsim.switch.ns_per_overflow", op);
    }
    // transport: one segment sent, received and acknowledged.
    {
        let mut tl = TransportLoop::new(input.cc);
        tl.run(n(10_000));
        probe(t, out, "transport.sender.ns_per_segment_acked", || {
            tl.run(n(100_000))
        });
    }
    // stats: a flow's life in a recorder that fills up to the run's flows.
    {
        let flows = input.flows.max(1);
        let mut rec = Recorder::new();
        probe(t, out, "stats.recorder.ns_per_flow_lifecycle", || {
            for i in 1..=flows {
                let f = FlowId(i);
                let at = SimTime::from_nanos(i);
                rec.flow_started(f, QueryId::NONE, NodeId(1), NodeId(2), 40_000, at);
                rec.flow_progress(f, 40_000);
                rec.flow_finished(f, at + SimDuration::from_micros(500));
            }
            flows
        });
        black_box(&rec);
    }
    std::mem::take(out)
}
