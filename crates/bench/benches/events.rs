//! Event-queue microbenchmarks: the timing wheel against the retained
//! binary-heap oracle, across queue depths and timestamp distributions.
//!
//! The workload is the simulator's steady state: the queue is prefilled
//! to a fixed depth, then each iteration pops the earliest event and
//! pushes a replacement, so depth stays constant and the cost measured is
//! one full push+pop cycle. Three delay distributions bracket the
//! simulator's regimes and a fourth is the simulator's own:
//!
//! * `uniform` — delays spread over a wide horizon (mixed timer wheel
//!   levels, the heap's O(log n) worst case);
//! * `bursty` — delays clustered within a few microseconds of now
//!   (level 0 of the wheel; microburst regime);
//! * `ties` — many events at the same instant (FIFO tie-break pressure,
//!   where the heap still pays O(log n) per sift);
//! * `dc` — the delays the perfbench cells schedule: ACK and full-size
//!   serializations at 40 and 10 Gbps, the same plus 500 ns of wire, and
//!   one push in 64 an RTO-sized timer, at the cells' depth of 3 000. The
//!   timers are most of what is pending, so the clock meets some 80 events
//!   per 256 ns: four pushes in five go to wheel level 1 and cascade once,
//!   the fifth lands in the window being popped.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use vertigo_simcore::{EventBackend, EventQueue, SimDuration};

/// Splitmix-style step for deterministic pseudo-random delays.
#[inline]
fn next(r: &mut u64) -> u64 {
    *r = r.wrapping_mul(6364136223846793005).wrapping_add(1);
    *r
}

/// Delay in nanoseconds for distribution `dist` (0 = uniform, 1 = bursty,
/// 2 = ties, 3 = dc).
#[inline]
fn delay(dist: usize, r: &mut u64) -> u64 {
    match dist {
        // Uniform over ~16 ms: lands across wheel levels 0-3.
        0 => next(r) % 16_000_000,
        // Bursty: within 4 µs of now, the deflection-storm regime.
        1 => next(r) % 4_000,
        // Ties: everything at exactly now + 1 µs.
        2 => 1_000,
        // Datacenter mix; the timers are 200 µs to 1 ms out.
        _ => {
            let x = next(r) >> 16;
            match x % 64 {
                0 => 200_000 + (x >> 6) % 800_000,
                _ => [13, 51, 300, 513, 551, 800, 1200, 1700][(x >> 6) as usize % 8],
            }
        }
    }
}

fn bench_backends(c: &mut Criterion) {
    let dists = ["uniform", "bursty", "ties", "dc"];
    for (di, dist) in dists.iter().enumerate() {
        let mut g = c.benchmark_group(format!("events_{dist}"));
        let depths: &[usize] = match *dist {
            "dc" => &[3_000],
            _ => &[1_000, 16_000, 256_000],
        };
        for &depth in depths {
            for backend in [EventBackend::Wheel, EventBackend::Heap] {
                let name = match backend {
                    EventBackend::Wheel => "wheel",
                    EventBackend::Heap => "heap",
                };
                g.bench_function(format!("{name}/depth{depth}"), |b| {
                    let mut q: EventQueue<u64> = EventQueue::with_backend(backend);
                    let mut r = 0x9E3779B97F4A7C15u64;
                    for i in 0..depth as u64 {
                        q.push_after(SimDuration::from_nanos(delay(di, &mut r)), i);
                    }
                    b.iter(|| {
                        let popped = q.pop().expect("queue never drains");
                        q.push_after(
                            SimDuration::from_nanos(delay(di, &mut r)),
                            black_box(popped.1),
                        );
                        black_box(popped.0)
                    })
                });
            }
        }
        g.finish();
    }
}

criterion_group!(benches, bench_backends);
criterion_main!(benches);
