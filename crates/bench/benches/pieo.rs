//! PIEO queue microbenchmarks: the switch scheduling primitive. The
//! paper's FPGA extension does enqueue/extract in 4 cycles; this measures
//! the software model's push / pop-min (transmit) / pop-max (victimize).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use vertigo_core::PieoQueue;

fn bench_pieo(c: &mut Criterion) {
    // Steady-state queue of ~200 packets (300 KB of MTUs).
    c.bench_function("pieo/push_pop_min_depth200", |b| {
        let mut q = PieoQueue::new();
        let mut r = 1u64;
        for _ in 0..200 {
            r = r.wrapping_mul(6364136223846793005).wrapping_add(1);
            q.push(r >> 40, ());
        }
        b.iter(|| {
            r = r.wrapping_mul(6364136223846793005).wrapping_add(1);
            q.push(black_box(r >> 40), ());
            black_box(q.pop_min())
        })
    });
    c.bench_function("pieo/push_pop_max_depth200", |b| {
        let mut q = PieoQueue::new();
        let mut r = 1u64;
        for _ in 0..200 {
            r = r.wrapping_mul(6364136223846793005).wrapping_add(1);
            q.push(r >> 40, ());
        }
        b.iter(|| {
            r = r.wrapping_mul(6364136223846793005).wrapping_add(1);
            q.push(black_box(r >> 40), ());
            black_box(q.pop_max())
        })
    });
    c.bench_function("pieo/peek_max_rank", |b| {
        let mut q = PieoQueue::new();
        for i in 0..200u64 {
            q.push(i * 37 % 1000, ());
        }
        b.iter(|| black_box(q.peek_max_rank()))
    });
}

/// The sorted ring across queue depths, up to the 4 687 minimum-size
/// packets a 300 KB port can hold, with a unit payload (the rank column
/// alone moves on an insert) and a pointer-sized one (what a port holds:
/// 16 bytes per packet). The workload is the switch's steady-state mix:
/// one push of a uniformly random rank — so an insert shifts a quarter of
/// the queue on average — plus one alternating pop_min/pop_max per
/// iteration at constant depth.
fn bench_pieo_depths(c: &mut Criterion) {
    fn series<T: Copy>(c: &mut Criterion, payload: &str, item: T) {
        let mut g = c.benchmark_group("pieo_depth");
        for depth in [64usize, 256, 1024, 4096, 4687] {
            g.bench_function(format!("ring_{payload}/depth{depth}"), |b| {
                let mut q = PieoQueue::new();
                let mut r = 1u64;
                for _ in 0..depth {
                    r = r.wrapping_mul(6364136223846793005).wrapping_add(1);
                    q.push(r >> 40, item);
                }
                let mut flip = false;
                b.iter(|| {
                    r = r.wrapping_mul(6364136223846793005).wrapping_add(1);
                    q.push(black_box(r >> 40), item);
                    flip = !flip;
                    if flip {
                        black_box(q.pop_min())
                    } else {
                        black_box(q.pop_max())
                    }
                })
            });
        }
        g.finish();
    }
    series(c, "unit", ());
    series(c, "ptr", 0usize);
}

criterion_group!(benches, bench_pieo, bench_pieo_depths);
criterion_main!(benches);
