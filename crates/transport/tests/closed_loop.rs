//! Closed-loop transport tests over a lossy, delaying toy channel — no
//! network simulator, just sender + receiver + a queue of in-flight
//! packets. The key property: **for any loss pattern with p < 1, every
//! flow completes**, for every congestion controller. This is the
//! liveness property the whole evaluation rests on (incomplete flows in
//! the figures must mean the horizon cut them off, never a deadlocked
//! sender).

use proptest::prelude::*;
use vertigo_pkt::FlowId;
use vertigo_pkt::{AckSeg, DataSeg};
use vertigo_simcore::{SimDuration, SimRng, SimTime};
use vertigo_transport::{CcKind, FlowReceiver, FlowSender, TransportConfig};

/// One in-flight item: a data segment or an ACK, due at `at`.
enum InFlight {
    Data {
        at: SimTime,
        seg: DataSeg,
        sent: SimTime,
    },
    Ack {
        at: SimTime,
        ack: AckSeg,
    },
}

/// Drives a (sender, receiver) pair over a channel that drops each packet
/// with probability `loss`, delays by `delay`, and delivers in order.
/// Returns the completion time, or None if the flow did not finish within
/// `max_steps` events (which the tests treat as a liveness failure).
fn run_flow(cc: CcKind, bytes: u64, loss: f64, seed: u64, fast_rtx: bool) -> Option<SimTime> {
    let mut cfg = TransportConfig::default_for(cc);
    cfg.fast_retransmit = fast_rtx;
    let delay = SimDuration::from_micros(50);
    let mut rng = SimRng::new(seed);
    let mut snd = FlowSender::new(FlowId(1), bytes, cfg);
    let mut rcv = FlowReceiver::new(FlowId(1), bytes);
    let mut channel: std::collections::VecDeque<InFlight> = Default::default();
    let mut now = SimTime::ZERO;

    for _ in 0..200_000 {
        if snd.is_complete() {
            return Some(now);
        }
        // 1. Let the sender transmit everything its window allows.
        while let Some(seg) = snd.poll_segment(now) {
            if !rng.chance(loss) {
                channel.push_back(InFlight::Data {
                    at: now + delay,
                    seg,
                    sent: now,
                });
            }
        }
        // 2. Advance to the next event: channel delivery or sender timer.
        let ch_at = match channel.front() {
            Some(InFlight::Data { at, .. }) | Some(InFlight::Ack { at, .. }) => Some(*at),
            None => None,
        };
        let tm_at = snd.next_deadline(now);
        now = match (ch_at, tm_at) {
            (Some(a), Some(b)) => a.min(b),
            (Some(a), None) => a,
            (None, Some(b)) => b,
            (None, None) => return None, // deadlock: nothing pending
        };
        // 3. Deliver due channel items.
        while let Some(front_at) = match channel.front() {
            Some(InFlight::Data { at, .. }) | Some(InFlight::Ack { at, .. }) => Some(*at),
            None => None,
        } {
            if front_at > now {
                break;
            }
            match channel.pop_front().expect("nonempty") {
                InFlight::Data { seg, sent, .. } => {
                    let ack = rcv.on_data(now, &seg, false, sent);
                    if !rng.chance(loss) {
                        channel.push_back(InFlight::Ack {
                            at: now + delay,
                            ack,
                        });
                    }
                }
                InFlight::Ack { ack, .. } => {
                    snd.on_ack(now, &ack);
                }
            }
        }
        // 4. Fire timers.
        snd.on_timer(now);
    }
    None
}

#[test]
fn lossless_flows_complete_quickly() {
    for cc in [CcKind::Reno, CcKind::Dctcp, CcKind::Swift] {
        let done = run_flow(cc, 500_000, 0.0, 1, true)
            .unwrap_or_else(|| panic!("{cc:?} did not complete"));
        // 500 KB with 100 µs RTT and growing windows: few ms at most.
        assert!(done < SimTime::from_millis(20), "{cc:?} took {done}");
    }
}

#[test]
fn moderate_loss_is_survivable_by_all_ccs() {
    for cc in [CcKind::Reno, CcKind::Dctcp, CcKind::Swift] {
        for seed in 1..4 {
            assert!(
                run_flow(cc, 200_000, 0.05, seed, true).is_some(),
                "{cc:?} seed {seed} deadlocked at 5% loss"
            );
        }
    }
}

#[test]
fn no_fast_retransmit_still_completes_via_rto() {
    // The DIBS configuration: loss recovery by timeout only.
    assert!(run_flow(CcKind::Dctcp, 100_000, 0.05, 7, false).is_some());
}

#[test]
fn brutal_loss_eventually_completes() {
    // 40 % loss: only RTO backoff grinds it out, but it must finish.
    assert!(
        run_flow(CcKind::Reno, 30_000, 0.40, 3, true).is_some(),
        "Reno deadlocked at 40% loss"
    );
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Liveness: any (cc, size, loss ≤ 30 %, seed) combination completes.
    #[test]
    fn any_flow_completes(
        cc_idx in 0usize..3,
        bytes in 1_000u64..150_000,
        loss in 0.0f64..0.30,
        seed in 0u64..10_000,
        fast_rtx: bool,
    ) {
        let cc = [CcKind::Reno, CcKind::Dctcp, CcKind::Swift][cc_idx];
        prop_assert!(
            run_flow(cc, bytes, loss, seed, fast_rtx).is_some(),
            "{:?} bytes={} loss={:.2} seed={} fast_rtx={} deadlocked",
            cc, bytes, loss, seed, fast_rtx
        );
    }
}
