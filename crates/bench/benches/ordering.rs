//! RX-path ordering component microbenchmarks: per-packet cost of the
//! re-sequencing shim for in-order traffic (the common case the paper's
//! <0.1 % throughput claim rests on) and for deflected traffic.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use vertigo_core::{OrderingComponent, OrderingConfig};
use vertigo_pkt::{FlowId, FlowInfo};
use vertigo_simcore::SimTime;

const MSS: u32 = 1460;

fn info(k: u32, n: u32) -> FlowInfo {
    FlowInfo {
        rfs: (n - k) * MSS,
        retcnt: 0,
        flow_seq: 0,
        first: k == 0,
    }
}

fn bench_in_order(c: &mut Criterion) {
    c.bench_function("ordering/in_order_packet", |b| {
        let mut o: OrderingComponent<u64> = OrderingComponent::new(OrderingConfig::default());
        let n = 1 << 20; // effectively endless flow
        let mut k = 0u32;
        let mut out = Vec::with_capacity(4);
        b.iter(|| {
            if k == n {
                k = 0;
            }
            out.clear();
            o.on_packet(
                SimTime::from_nanos(k as u64),
                FlowId(1),
                info(k, n),
                MSS,
                black_box(k as u64),
                &mut out,
            );
            k += 1;
            black_box(out.len())
        })
    });
}

fn bench_swapped_pairs(c: &mut Criterion) {
    c.bench_function("ordering/swapped_pair", |b| {
        let mut o: OrderingComponent<u64> = OrderingComponent::new(OrderingConfig::default());
        let n = 1 << 20;
        let mut k = 0u32;
        let mut out = Vec::with_capacity(4);
        // Open the flow.
        o.on_packet(SimTime::ZERO, FlowId(1), info(0, n), MSS, 0, &mut out);
        k += 1;
        b.iter(|| {
            if k + 2 >= n {
                k = 1;
                o = OrderingComponent::new(OrderingConfig::default());
                o.on_packet(SimTime::ZERO, FlowId(1), info(0, n), MSS, 0, &mut out);
            }
            out.clear();
            // Deliver k+1 then k: one buffer insert + one gap fill.
            o.on_packet(SimTime::ZERO, FlowId(1), info(k + 1, n), MSS, 0, &mut out);
            o.on_packet(SimTime::ZERO, FlowId(1), info(k, n), MSS, 0, &mut out);
            k += 2;
            black_box(out.len())
        })
    });
}

/// Swapped pairs in front of a standing buffer: `depth` packets from the
/// far end of the flow sit buffered throughout, so each pair costs an
/// insert at the end of a buffer that deep, the gap fill that takes it
/// out again, and the re-arm's pass over what stays — the in-order path
/// of a flow with a second gap behind the first (the benchmark's burst
/// cell buffers up to 272 packets of one flow).
fn bench_swapped_pairs_at_depth(c: &mut Criterion) {
    for depth in [16u32, 256] {
        c.bench_function(format!("ordering/swapped_pair_buffered{depth}"), |b| {
            let n = 1 << 20;
            let open = || {
                let mut o: OrderingComponent<u64> =
                    OrderingComponent::new(OrderingConfig::default());
                let mut out = Vec::with_capacity(4);
                o.on_packet(SimTime::ZERO, FlowId(1), info(0, n), MSS, 0, &mut out);
                for far in n - 1 - depth..n - 1 {
                    o.on_packet(SimTime::ZERO, FlowId(1), info(far, n), MSS, 0, &mut out);
                }
                assert_eq!(o.buffered_packets(), depth as usize);
                o
            };
            let mut o = open();
            let mut k = 1u32;
            let mut out = Vec::with_capacity(4);
            b.iter(|| {
                if k + 2 >= n - 1 - depth {
                    k = 1;
                    o = open();
                }
                out.clear();
                o.on_packet(SimTime::ZERO, FlowId(1), info(k + 1, n), MSS, 0, &mut out);
                o.on_packet(SimTime::ZERO, FlowId(1), info(k, n), MSS, 0, &mut out);
                k += 2;
                black_box(out.len())
            })
        });
    }
}

criterion_group!(
    benches,
    bench_in_order,
    bench_swapped_pairs,
    bench_swapped_pairs_at_depth
);
criterion_main!(benches);
