//! Domain-engine scaling: wall time of the same run at increasing
//! `--domains` counts, against the classic single-queue engine as the
//! baseline. On a multi-core box the parallel counts should win once
//! per-barrier work dominates barrier overhead; on a single core they
//! measure the engine's synchronization tax.
//!
//! The `mailbox` group isolates the barrier's data structure: one barrier
//! round per iteration at a fixed number of deliveries pending — a
//! window's worth delivered, the window that came due opened and popped
//! dry — through a domain's `WindowQueue` against the global `BTreeMap`
//! mailbox the calendar inbox replaced. BENCH_PR24.json records the
//! committed numbers.

use criterion::{black_box, criterion_group, criterion_main, BatchSize, Criterion};
use std::collections::BTreeMap;
use vertigo_simcore::{Delivery, EventQueue, LookaheadGrid, SimDuration, SimTime, WindowQueue};
use vertigo_transport::CcKind;
use vertigo_workload::{
    BackgroundSpec, DistKind, IncastSpec, RunSpec, SystemKind, TopoKind, WorkloadSpec,
};

fn spec() -> RunSpec {
    let mut spec = RunSpec::new(
        SystemKind::Vertigo,
        CcKind::Dctcp,
        WorkloadSpec {
            background: Some(BackgroundSpec {
                load: 0.30,
                dist: DistKind::CacheFollower,
            }),
            incast: Some(IncastSpec {
                qps: 1000.0,
                scale: 8,
                flow_bytes: 40_000,
            }),
        },
    );
    spec.topo = TopoKind::LeafSpine { hosts_per_leaf: 8 };
    spec.horizon = SimDuration::from_millis(2);
    spec
}

fn bench_domains(c: &mut Criterion) {
    let mut g = c.benchmark_group("domains");
    g.sample_size(10);
    g.bench_function("sim_2ms_classic", |b| {
        b.iter_batched(
            || spec().build(),
            |mut sim| sim.run(),
            BatchSize::PerIteration,
        )
    });
    for n in [1usize, 2, 4, 8] {
        g.bench_function(format!("sim_2ms_domains_{n}"), |b| {
            b.iter_batched(
                || {
                    let mut s = spec();
                    s.domains = Some(n);
                    s
                },
                |s| s.run(),
                BatchSize::PerIteration,
            )
        });
    }
    g.finish();
}

/// Lookahead quantum of the paper topologies, in ns.
const QUANTUM: u64 = 500;
/// Slots between a delivery's push and its arrival: a 1500 B packet on a
/// 10 Gbps link with 500 ns of propagation lands 1.7 us out.
const SLOTS_AHEAD: u64 = 4;

/// The deliveries one window produces when `pending` are in flight: sent
/// in clock order, the odd ones a slot early (ACK-sized).
fn generate(round: u64, pending: usize) -> impl Iterator<Item = Delivery<u64>> {
    let per_round = pending as u64 / SLOTS_AHEAD;
    (0..per_round).map(move |k| {
        let sent = round * QUANTUM + k * QUANTUM / per_round;
        let uid = (round * per_round + k).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        Delivery {
            at: SimTime::from_nanos(sent + (SLOTS_AHEAD - k % 2) * QUANTUM),
            sent: SimTime::from_nanos(sent),
            uid,
            ev: uid,
        }
    })
}

fn bench_mailbox(c: &mut Criterion) {
    let mut g = c.benchmark_group("mailbox");
    for pending in [256usize, 4096, 65_536] {
        g.bench_function(format!("window_queue/pending{pending}"), |b| {
            // As the domain engine uses it: deliver, open the window that
            // came due, pop it dry. The event queue beside it stays empty,
            // so what is timed is the inbox, the take and the merge.
            let mut window = WindowQueue::new(LookaheadGrid::new(QUANTUM));
            let mut queue = EventQueue::new();
            let mut round = 0;
            let mut step = |window: &mut WindowQueue<u64>| {
                generate(round, pending).for_each(|d| window.deliver(d));
                round += 1;
                window.open(SimTime::from_nanos(round * QUANTUM));
                while let Some(ev) = window.pop(&mut queue) {
                    black_box(ev);
                }
            };
            (0..2 * SLOTS_AHEAD).for_each(|_| step(&mut window));
            b.iter(|| step(&mut window))
        });
        g.bench_function(format!("btree/pending{pending}"), |b| {
            // As the barrier used it: keyed insert, then pop the front
            // while it is due, collected into a fresh Vec.
            let mut mailbox: BTreeMap<(SimTime, SimTime, u64), u64> = BTreeMap::new();
            let mut round = 0;
            let mut step = |mailbox: &mut BTreeMap<_, _>| {
                for d in generate(round, pending) {
                    mailbox.insert((d.at, d.sent, d.uid), d.ev);
                }
                round += 1;
                let limit = SimTime::from_nanos(round * QUANTUM);
                let mut out = Vec::new();
                while let Some(e) = mailbox.first_entry() {
                    if e.key().0 > limit {
                        break;
                    }
                    out.push(e.remove_entry());
                }
                black_box(out);
            };
            (0..2 * SLOTS_AHEAD).for_each(|_| step(&mut mailbox));
            b.iter(|| step(&mut mailbox))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_mailbox, bench_domains);
criterion_main!(benches);
