//! Swift (Kumar et al., SIGCOMM'20): delay-based datacenter congestion
//! control with sub-packet windows.
//!
//! Swift compares each precisely measured RTT against a *target delay* and
//! reacts immediately: additive increase while below target, multiplicative
//! decrease proportional to the delay excess (at most once per RTT) while
//! above. Its signature feature — the reason the Vertigo paper pairs with
//! it for extreme incast — is that `cwnd` may fall **below one packet**:
//! at `cwnd = 0.5` the sender transmits one packet every 2 RTTs, enforced
//! by pacing rather than windowing.
//!
//! This implementation follows the published algorithm with flow-count
//! scaling of the target delay (`FS_RANGE / √cwnd` style) and per-RTT
//! decrease limiting, and no per-hop target scaling. Google's production
//! code is unavailable; the constants below are the paper's defaults
//! adapted to simulation-scale RTTs.

use crate::cc::{AckContext, CongestionControl};
use vertigo_simcore::{SimDuration, SimTime};

/// Initial window in MSS.
const INIT_CWND: f64 = 10.0;
/// Lowest window (Swift allows far-sub-packet windows).
const MIN_CWND: f64 = 0.01;
/// Highest window.
const MAX_CWND: f64 = 10_000.0;
/// Base target delay (fabric RTT plus headroom).
const BASE_TARGET: SimDuration = SimDuration::from_micros(50);
/// Additive increase per RTT, in MSS.
const AI: f64 = 1.0;
/// Multiplicative-decrease sensitivity β.
const BETA: f64 = 0.8;
/// Maximum multiplicative decrease per event.
const MAX_MDF: f64 = 0.5;
/// Range of the flow-scaling term added to the target
/// (`min(FS_RANGE, FS_RANGE/√cwnd)`); widens the target for small windows
/// so many competing flows remain stable.
const FS_RANGE: SimDuration = SimDuration::from_micros(100);

/// Swift sender state.
#[derive(Debug)]
pub struct Swift {
    cwnd: f64,
    /// Last time a multiplicative decrease was applied (`None` until the
    /// first decrease, which is therefore never gated).
    last_decrease: Option<SimTime>,
    /// Most recent RTT sample (for the once-per-RTT decrease gate).
    last_rtt: Option<SimDuration>,
    /// Consecutive RTOs without an intervening ACK (Swift's RETX_RESET).
    consecutive_rtos: u32,
}

impl Default for Swift {
    /// A Swift controller at its initial window.
    fn default() -> Self {
        Swift {
            cwnd: INIT_CWND,
            last_decrease: None,
            last_rtt: None,
            consecutive_rtos: 0,
        }
    }
}

impl Swift {
    /// The current target delay, including flow scaling.
    pub fn target_delay(&self) -> SimDuration {
        let fs = if self.cwnd >= 1.0 {
            FS_RANGE.mul_f64(1.0 / self.cwnd.sqrt())
        } else {
            FS_RANGE
        };
        BASE_TARGET + fs.min(FS_RANGE)
    }

    fn clamp(&mut self) {
        self.cwnd = self.cwnd.clamp(MIN_CWND, MAX_CWND);
    }

    fn can_decrease(&self, now: SimTime) -> bool {
        match (self.last_decrease, self.last_rtt) {
            (Some(last), Some(rtt)) => now.saturating_since(last) >= rtt,
            _ => true,
        }
    }
}

impl CongestionControl for Swift {
    fn on_ack(&mut self, ctx: &AckContext) {
        let Some(rtt) = ctx.rtt else {
            return;
        };
        self.last_rtt = Some(rtt);
        if ctx.newly_acked == 0 {
            return;
        }
        self.consecutive_rtos = 0;
        let target = self.target_delay();
        if rtt < target {
            // Additive increase (per the Swift paper, eq. for cwnd ≥ 1 the
            // increase is spread over the window).
            if self.cwnd >= 1.0 {
                self.cwnd += (AI / self.cwnd) * ctx.newly_acked_pkts;
            } else {
                self.cwnd += AI * ctx.newly_acked_pkts;
            }
        } else if self.can_decrease(ctx.now) {
            let excess = rtt.as_secs_f64() - target.as_secs_f64();
            let factor = (1.0 - BETA * (excess / rtt.as_secs_f64())).max(1.0 - MAX_MDF);
            self.cwnd *= factor;
            self.last_decrease = Some(ctx.now);
        }
        self.clamp();
    }

    fn on_fast_retransmit(&mut self, now: SimTime) {
        if self.can_decrease(now) {
            self.cwnd *= 1.0 - MAX_MDF;
            self.last_decrease = Some(now);
            self.clamp();
        }
    }

    fn on_rto(&mut self, _now: SimTime) {
        // One timeout gets the maximum multiplicative decrease; only a run
        // of consecutive timeouts (Swift's RETX_RESET) collapses the window
        // to the floor — a single collapse would stall the flow for
        // ~cwnd⁻¹ RTTs of pacing.
        self.consecutive_rtos += 1;
        if self.consecutive_rtos >= 3 {
            self.cwnd = MIN_CWND;
        } else {
            self.cwnd = (self.cwnd * (1.0 - MAX_MDF)).max(MIN_CWND);
        }
    }

    fn cwnd(&self) -> f64 {
        self.cwnd
    }

    fn pacing_interval(&self, srtt: Option<SimDuration>) -> Option<SimDuration> {
        if self.cwnd >= 1.0 {
            return None;
        }
        // cwnd < 1: send one packet every rtt / cwnd.
        let rtt = srtt.or(self.last_rtt)?;
        Some(rtt.mul_f64(1.0 / self.cwnd.max(MIN_CWND)))
    }

    fn ecn_capable(&self) -> bool {
        // Swift is delay-based; it ignores ECN but setting ECT avoids
        // differential switch treatment in mixed experiments.
        false
    }

    fn name(&self) -> &'static str {
        "Swift"
    }

    fn snap_save(&self, w: &mut vertigo_simcore::SnapWriter) {
        use vertigo_simcore::Snapshot;
        w.put_f64(self.cwnd);
        self.last_decrease.save(w);
        self.last_rtt.save(w);
        w.put_u32(self.consecutive_rtos);
    }

    fn snap_restore(
        &mut self,
        r: &mut vertigo_simcore::SnapReader<'_>,
    ) -> Result<(), vertigo_simcore::SnapError> {
        use vertigo_simcore::Snapshot;
        self.cwnd = r.get_f64()?;
        self.last_decrease = Option::restore(r)?;
        self.last_rtt = Option::restore(r)?;
        self.consecutive_rtos = r.get_u32()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(n: u64) -> SimDuration {
        SimDuration::from_micros(n)
    }

    fn ack_at(now_us: u64, rtt_us: u64, pkts: f64) -> AckContext {
        AckContext {
            now: SimTime::from_micros(now_us),
            newly_acked: (pkts * 1460.0) as u64,
            newly_acked_pkts: pkts,
            rtt: Some(us(rtt_us)),
            ecn_echo: false,
        }
    }

    #[test]
    fn grows_below_target() {
        let mut s = Swift::default();
        let w0 = s.cwnd();
        s.on_ack(&ack_at(100, 30, 1.0)); // 30 µs « target
        assert!(s.cwnd() > w0);
    }

    #[test]
    fn shrinks_above_target_proportionally() {
        let mut s = Swift::default();
        let w0 = s.cwnd();
        // RTT = 4x target: deep excess, clamped at max_mdf.
        s.on_ack(&ack_at(1000, 2_000, 1.0));
        assert!((s.cwnd() - w0 * 0.5).abs() < 1e-9, "max_mdf clamp");
        // Mild excess decreases gently.
        let mut s2 = Swift::default();
        let t = s2.target_delay().as_micros_f64() as u64;
        s2.on_ack(&ack_at(1000, t + t / 10, 1.0)); // 10 % over target
        assert!(s2.cwnd() > w0 * 0.9 && s2.cwnd() < w0);
    }

    #[test]
    fn decrease_limited_to_once_per_rtt() {
        let mut s = Swift::default();
        s.on_ack(&ack_at(1_000, 500, 1.0));
        let w1 = s.cwnd();
        // Another congested ACK 100 µs later (< RTT of 500 µs): no cut.
        s.on_ack(&ack_at(1_100, 500, 1.0));
        assert_eq!(s.cwnd(), w1);
        // After a full RTT: cut allowed.
        s.on_ack(&ack_at(1_700, 500, 1.0));
        assert!(s.cwnd() < w1);
    }

    #[test]
    fn cwnd_can_fall_below_one_packet() {
        let mut s = Swift::default();
        for i in 0..60 {
            s.on_ack(&ack_at(1_000 * (i + 1), 5_000, 1.0));
        }
        assert!(s.cwnd() < 1.0, "cwnd {} should be sub-packet", s.cwnd());
        let pace = s.pacing_interval(Some(us(100))).unwrap();
        // One packet per rtt/cwnd > rtt.
        assert!(pace > us(100));
    }

    #[test]
    fn pacing_off_above_one() {
        let s = Swift::default();
        assert!(s.pacing_interval(Some(us(100))).is_none());
    }

    #[test]
    fn single_rto_halves_repeated_rtos_collapse() {
        let mut s = Swift::default();
        let w0 = s.cwnd();
        s.on_rto(SimTime::from_millis(1));
        assert_eq!(s.cwnd(), w0 * 0.5, "one RTO applies max_mdf");
        s.on_rto(SimTime::from_millis(2));
        s.on_rto(SimTime::from_millis(3));
        assert_eq!(s.cwnd(), MIN_CWND, "a run of RTOs collapses to the floor");
        // An ACK resets the streak.
        s.on_ack(&ack_at(5_000, 30, 1.0));
        s.on_rto(SimTime::from_millis(6));
        assert!(s.cwnd() > MIN_CWND);
    }

    #[test]
    fn target_widens_for_small_windows() {
        let mut s = Swift::default();
        let t_big = s.target_delay();
        s.cwnd = 0.5;
        let t_small = s.target_delay();
        assert!(t_small > t_big);
    }

    #[test]
    fn stabilizes_near_target_in_closed_loop() {
        // Toy closed loop: RTT grows linearly with cwnd (queueing model).
        let mut s = Swift::default();
        let mut now = 0u64;
        for _ in 0..3_000 {
            now += 100;
            let rtt_us = 20 + (s.cwnd() * 8.0) as u64; // 20 µs base + queueing
            s.on_ack(&ack_at(now, rtt_us, 1.0));
        }
        let rtt_us = 20.0 + s.cwnd() * 8.0;
        let target_us = s.target_delay().as_micros_f64();
        assert!(
            (rtt_us - target_us).abs() < target_us * 0.5,
            "loop should settle near target: rtt {rtt_us} vs target {target_us}"
        );
    }
}
