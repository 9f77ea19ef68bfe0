//! Conformance suite for the RX ordering state machine (paper Fig. 4).
//!
//! Each scenario is a table of timestamped stimuli — packet arrivals
//! (optionally boosted copies) and timer firings — with the exact delivery
//! sequence the transport must observe: which items, in which order, each
//! with the right [`DeliverReason`]. The tables pin down the transitions
//! the paper's state machine draws: the in-order fast path, out-of-order
//! buffering, τ expiry *exactly* at the 360 µs boundary (one nanosecond
//! early must not release), and duplicate delivery when a deflected copy
//! limps in after its retransmission was already released by timeout.

use vertigo_core::ordering::{DeliverReason, Delivered, OrderingComponent, OrderingConfig};
use vertigo_pkt::{FlowId, FlowInfo};
use vertigo_simcore::{SimDuration, SimTime};

const MSS: u32 = 1460;
const TAU_NS: u64 = 360_000; // 360 µs, the paper's default τ

/// One stimulus applied to the component.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// Packet `k` of an `n`-packet flow arrives at `at_ns`, carrying
    /// `retcnt` boosts on the wire (the RFS field is rotated accordingly,
    /// exactly as the TX marking component would emit it).
    Pkt {
        at_ns: u64,
        k: u32,
        n: u32,
        retcnt: u8,
    },
    /// The host's release timer fires at `at_ns`.
    Timer { at_ns: u64 },
}

/// A delivery the transport must see, in sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Want {
    item: u64,
    reason: DeliverReason,
}

struct Scenario {
    name: &'static str,
    steps: &'static [Step],
    want: &'static [Want],
}

fn wire_info(k: u32, n: u32, retcnt: u8) -> FlowInfo {
    let rfs = (n - k) * MSS;
    FlowInfo {
        // boost_shift = 1 (the default): one right rotation per boost.
        rfs: rfs.rotate_right(retcnt as u32),
        retcnt,
        flow_seq: 0,
        first: k == 0,
    }
}

fn run(sc: &Scenario) {
    let mut o: OrderingComponent<u64> = OrderingComponent::new(OrderingConfig::default());
    let f = FlowId(77);
    let mut out: Vec<Delivered<u64>> = Vec::new();
    for step in sc.steps {
        match *step {
            Step::Pkt {
                at_ns,
                k,
                n,
                retcnt,
            } => {
                o.on_packet(
                    SimTime::from_nanos(at_ns),
                    f,
                    wire_info(k, n, retcnt),
                    MSS,
                    k as u64,
                    &mut out,
                );
            }
            Step::Timer { at_ns } => o.on_timer(SimTime::from_nanos(at_ns), &mut out),
        }
    }
    let got: Vec<Want> = out
        .iter()
        .map(|d| Want {
            item: d.item,
            reason: d.reason,
        })
        .collect();
    assert_eq!(got, sc.want, "scenario `{}` delivery sequence", sc.name);
}

use DeliverReason::{GapFilled, InOrder, LateOrDuplicate, TimeoutRelease};

const SCENARIOS: &[Scenario] = &[
    Scenario {
        // Fig. 4 "in-order receive": every arrival matches the expected
        // RFS and is flushed straight up; no timer is ever armed.
        name: "in-order fast path",
        steps: &[
            Step::Pkt {
                at_ns: 0,
                k: 0,
                n: 4,
                retcnt: 0,
            },
            Step::Pkt {
                at_ns: 10,
                k: 1,
                n: 4,
                retcnt: 0,
            },
            Step::Pkt {
                at_ns: 20,
                k: 2,
                n: 4,
                retcnt: 0,
            },
            Step::Pkt {
                at_ns: 30,
                k: 3,
                n: 4,
                retcnt: 0,
            },
        ],
        want: &[
            Want {
                item: 0,
                reason: InOrder,
            },
            Want {
                item: 1,
                reason: InOrder,
            },
            Want {
                item: 2,
                reason: InOrder,
            },
            Want {
                item: 3,
                reason: InOrder,
            },
        ],
    },
    Scenario {
        // Fig. 4 "out-of-order receive": a deflected packet overtakes its
        // predecessor; the early one is buffered and surfaces only when
        // the gap fills, in flow order.
        name: "out-of-order buffering, gap filled",
        steps: &[
            Step::Pkt {
                at_ns: 0,
                k: 0,
                n: 4,
                retcnt: 0,
            },
            Step::Pkt {
                at_ns: 10,
                k: 2,
                n: 4,
                retcnt: 0,
            },
            Step::Pkt {
                at_ns: 20,
                k: 3,
                n: 4,
                retcnt: 0,
            },
            Step::Pkt {
                at_ns: 30,
                k: 1,
                n: 4,
                retcnt: 0,
            },
        ],
        want: &[
            Want {
                item: 0,
                reason: InOrder,
            },
            Want {
                item: 1,
                reason: InOrder,
            },
            Want {
                item: 2,
                reason: GapFilled,
            },
            Want {
                item: 3,
                reason: GapFilled,
            },
        ],
    },
    Scenario {
        // τ boundary, lower side: the timer fires one nanosecond *before*
        // the deadline (oldest buffered arrival + 360 µs) — nothing may
        // be released; the deadline is inclusive, not early.
        name: "one nanosecond before τ holds the buffer",
        steps: &[
            Step::Pkt {
                at_ns: 0,
                k: 0,
                n: 3,
                retcnt: 0,
            },
            Step::Pkt {
                at_ns: 100,
                k: 2,
                n: 3,
                retcnt: 0,
            },
            Step::Timer {
                at_ns: 100 + TAU_NS - 1,
            },
        ],
        want: &[Want {
            item: 0,
            reason: InOrder,
        }],
    },
    Scenario {
        // τ boundary, exact: at precisely oldest-arrival + 360 µs the
        // abandoned gap is skipped and the buffered run is released.
        name: "τ expiry exactly at the 360 µs boundary",
        steps: &[
            Step::Pkt {
                at_ns: 0,
                k: 0,
                n: 3,
                retcnt: 0,
            },
            Step::Pkt {
                at_ns: 100,
                k: 2,
                n: 3,
                retcnt: 0,
            },
            Step::Timer {
                at_ns: 100 + TAU_NS,
            },
        ],
        want: &[
            Want {
                item: 0,
                reason: InOrder,
            },
            Want {
                item: 2,
                reason: TimeoutRelease,
            },
        ],
    },
    Scenario {
        // Deadline is τ past the *oldest* buffered arrival: a later
        // buffered packet does not push it out.
        name: "deadline anchored to oldest buffered arrival",
        steps: &[
            Step::Pkt {
                at_ns: 0,
                k: 0,
                n: 5,
                retcnt: 0,
            },
            Step::Pkt {
                at_ns: 1_000,
                k: 2,
                n: 5,
                retcnt: 0,
            },
            Step::Pkt {
                at_ns: 200_000,
                k: 3,
                n: 5,
                retcnt: 0,
            },
            Step::Timer {
                at_ns: 1_000 + TAU_NS,
            },
        ],
        want: &[
            Want {
                item: 0,
                reason: InOrder,
            },
            Want {
                item: 2,
                reason: TimeoutRelease,
            },
            Want {
                item: 3,
                reason: TimeoutRelease,
            },
        ],
    },
    Scenario {
        // Fig. 4 duplicate path: packet 1 is deflected and so slow the
        // receiver times out and releases past it; the sender's boosted
        // retransmission then fills the transport's hole (late), and when
        // the original deflected copy finally limps in it is *also*
        // handed up as LateOrDuplicate — the transport, not the ordering
        // shim, discards it. (A 4-packet flow keeps the window open past
        // the timeout so the late copies hit live flow state.)
        name: "duplicate after deflected copy arrives post-timeout",
        steps: &[
            Step::Pkt {
                at_ns: 0,
                k: 0,
                n: 4,
                retcnt: 0,
            },
            Step::Pkt {
                at_ns: 100,
                k: 2,
                n: 4,
                retcnt: 0,
            },
            Step::Timer {
                at_ns: 100 + TAU_NS,
            },
            // Boosted retransmission of the abandoned packet 1.
            Step::Pkt {
                at_ns: 500_000,
                k: 1,
                n: 4,
                retcnt: 1,
            },
            // The original deflected copy, even later.
            Step::Pkt {
                at_ns: 600_000,
                k: 1,
                n: 4,
                retcnt: 0,
            },
            // The tail arrives in order against the advanced window.
            Step::Pkt {
                at_ns: 700_000,
                k: 3,
                n: 4,
                retcnt: 0,
            },
        ],
        want: &[
            Want {
                item: 0,
                reason: InOrder,
            },
            Want {
                item: 2,
                reason: TimeoutRelease,
            },
            Want {
                item: 1,
                reason: LateOrDuplicate,
            },
            Want {
                item: 1,
                reason: LateOrDuplicate,
            },
            Want {
                item: 3,
                reason: InOrder,
            },
        ],
    },
    Scenario {
        // Boosted copies participate in sequencing by their *original*
        // RFS: a twice-boosted in-order packet goes straight through.
        name: "boosted in-order packet is transparent",
        steps: &[
            Step::Pkt {
                at_ns: 0,
                k: 0,
                n: 3,
                retcnt: 0,
            },
            Step::Pkt {
                at_ns: 10,
                k: 1,
                n: 3,
                retcnt: 2,
            },
            Step::Pkt {
                at_ns: 20,
                k: 2,
                n: 3,
                retcnt: 0,
            },
        ],
        want: &[
            Want {
                item: 0,
                reason: InOrder,
            },
            Want {
                item: 1,
                reason: InOrder,
            },
            Want {
                item: 2,
                reason: InOrder,
            },
        ],
    },
];

#[test]
fn ordering_state_machine_conformance() {
    for sc in SCENARIOS {
        run(sc);
    }
}

/// The armed deadline the host would read back must be exactly
/// oldest-arrival + τ, so the driver-level timer and the boundary
/// scenarios above agree on the same nanosecond.
#[test]
fn next_deadline_is_oldest_arrival_plus_tau() {
    let mut o: OrderingComponent<u64> = OrderingComponent::new(OrderingConfig::default());
    let f = FlowId(1);
    let mut out = Vec::new();
    o.on_packet(
        SimTime::from_nanos(0),
        f,
        wire_info(0, 4, 0),
        MSS,
        0,
        &mut out,
    );
    o.on_packet(
        SimTime::from_nanos(7_321),
        f,
        wire_info(2, 4, 0),
        MSS,
        2,
        &mut out,
    );
    assert_eq!(
        o.next_deadline(),
        Some(SimTime::from_nanos(7_321) + SimDuration::from_micros(360))
    );
    // Firing at deadline - 1 ns must keep both the buffer and the timer.
    o.on_timer(SimTime::from_nanos(7_321 + TAU_NS - 1), &mut out);
    assert_eq!(o.buffered_packets(), 1);
    assert!(o.next_deadline().is_some());
    // Firing at the deadline releases and disarms.
    o.on_timer(SimTime::from_nanos(7_321 + TAU_NS), &mut out);
    assert_eq!(o.buffered_packets(), 0);
    assert_eq!(o.next_deadline(), None);
}

/// The state machine at the depths the benchmark's burst cell reaches (272
/// buffered packets of one flow) and at the per-flow cap: early packets
/// arriving at both ends and in the middle of the buffer's order, then a
/// gap fill, a τ release that stops at the next gap, duplicates of
/// buffered packets, and a forced release at `max_buffered_per_flow`.
/// Checked: every delivery with its reason, in order, and every counter.
#[test]
fn deep_buffer_delivery_order_and_stats() {
    const N: u32 = 4_000;
    struct Driver {
        o: OrderingComponent<u64>,
        out: Vec<Delivered<u64>>,
        now_ns: u64,
    }
    impl Driver {
        /// Packet `k` arrives 10 ns after the last; returns its arrival.
        fn pkt(&mut self, k: u32) -> SimTime {
            self.now_ns += 10;
            let now = SimTime::from_nanos(self.now_ns);
            let info = wire_info(k, N, 0);
            self.o
                .on_packet(now, FlowId(5), info, MSS, k as u64, &mut self.out);
            now
        }
    }
    let cfg = OrderingConfig::default();
    let (tau, cap) = (cfg.timeout, cfg.max_buffered_per_flow as u32);
    let mut d = Driver {
        o: OrderingComponent::new(cfg),
        out: Vec::new(),
        now_ns: 0,
    };
    let mut want: Vec<Want> = Vec::new();
    fn expect(want: &mut Vec<Want>, ks: std::ops::RangeInclusive<u32>, reason: DeliverReason) {
        want.extend(ks.map(|k| Want {
            item: k as u64,
            reason,
        }));
    }

    // 1 is missing; 2..=301 arrive evens first, then odds from the top.
    d.pkt(0);
    for k in (2..=300).step_by(2).chain((3..=301).rev().step_by(2)) {
        d.pkt(k);
    }
    assert_eq!((d.out.len(), d.o.buffered_packets()), (1, 300));
    // Duplicates of buffered packets: middle, and both ends of the buffer.
    for k in [150, 301, 2] {
        d.pkt(k);
    }
    assert_eq!(d.o.stats().dup_dropped, 3);
    // The gap fills: everything goes up in flow order, the timer disarms.
    d.pkt(1);
    expect(&mut want, 0..=1, InOrder);
    expect(&mut want, 2..=301, GapFilled);
    assert_eq!(d.o.next_deadline(), None);
    d.pkt(1);
    expect(&mut want, 1..=1, LateOrDuplicate);

    // 302 and 450 are missing. τ past the oldest arrival releases up to
    // the second gap, not a nanosecond earlier, and re-arms for the rest.
    let first = d.pkt(303);
    for k in 304..=449 {
        d.pkt(k);
    }
    let second = d.pkt(451);
    for k in 452..=600 {
        d.pkt(k);
    }
    assert_eq!(d.o.buffered_packets(), 297);
    let before = d.out.len();
    let early = SimTime::from_nanos((first + tau).as_nanos() - 1);
    d.o.on_timer(early, &mut d.out);
    assert_eq!(d.out.len(), before);
    d.o.on_timer(first + tau, &mut d.out);
    expect(&mut want, 303..=449, TimeoutRelease);
    assert_eq!(d.o.next_deadline(), Some(second + tau));
    d.pkt(450);
    expect(&mut want, 450..=450, InOrder);
    expect(&mut want, 451..=600, GapFilled);

    // 601 and 1000 are missing; the packet that takes the buffer past its
    // cap forces a release up to the second gap and re-arms for the rest.
    let last = 602 + cap + 1;
    let mut rest = None;
    for k in (602..=last).filter(|&k| k != 1_000) {
        assert_eq!(d.out.len(), want.len(), "nothing released before {k}");
        let at = d.pkt(k);
        if k == 1_001 {
            rest = Some(at);
        }
    }
    expect(&mut want, 602..=999, TimeoutRelease);
    assert_eq!(d.o.buffered_packets(), (last - 1_000) as usize);
    assert_eq!(d.o.next_deadline(), rest.map(|at| at + tau));

    let got: Vec<Want> = d
        .out
        .iter()
        .map(|d| Want {
            item: d.item,
            reason: d.reason,
        })
        .collect();
    assert_eq!(got, want);
    let s = d.o.stats();
    assert_eq!(s.in_order, 3);
    assert_eq!(s.buffered, 300 + 297 + (cap as u64 + 1));
    assert_eq!(s.gap_filled, 300 + 150);
    assert_eq!(s.timeout_released, 147 + 398);
    assert_eq!(s.timeouts, 1);
    assert_eq!(s.late_or_dup, 1);
    assert_eq!(s.dup_dropped, 3);
    assert_eq!(s.max_depth, cap as usize + 1);
}
