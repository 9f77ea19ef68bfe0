//! TCP Reno congestion control (slow start, congestion avoidance, fast
//! recovery halving) — the paper's "TCP" baseline.

use crate::cc::{AckContext, CongestionControl};
use vertigo_simcore::SimTime;

/// Initial window in MSS (paper setting: 10).
pub(crate) const INIT_CWND: f64 = 10.0;
/// Lower bound on the window.
pub(crate) const MIN_CWND: f64 = 1.0;
/// Upper bound on the window.
pub(crate) const MAX_CWND: f64 = 10_000.0;

/// Classic Reno state: `cwnd` and `ssthresh`.
#[derive(Debug)]
pub struct Reno {
    cwnd: f64,
    ssthresh: f64,
}

impl Default for Reno {
    /// A Reno controller in slow start.
    fn default() -> Self {
        Reno {
            cwnd: INIT_CWND,
            ssthresh: f64::INFINITY,
        }
    }
}

impl Reno {
    /// Slow-start threshold (for tests).
    pub fn ssthresh(&self) -> f64 {
        self.ssthresh
    }

    fn clamp(&mut self) {
        self.cwnd = self.cwnd.clamp(MIN_CWND, MAX_CWND);
    }
}

impl CongestionControl for Reno {
    fn on_ack(&mut self, ctx: &AckContext) {
        if ctx.newly_acked == 0 {
            return;
        }
        if self.cwnd < self.ssthresh {
            // Slow start: +1 MSS per acked MSS.
            self.cwnd += ctx.newly_acked_pkts;
        } else {
            // Congestion avoidance: +1 MSS per window.
            self.cwnd += ctx.newly_acked_pkts / self.cwnd;
        }
        self.clamp();
    }

    fn on_fast_retransmit(&mut self, _now: SimTime) {
        self.ssthresh = (self.cwnd / 2.0).max(2.0);
        self.cwnd = self.ssthresh;
        self.clamp();
    }

    fn on_rto(&mut self, _now: SimTime) {
        self.ssthresh = (self.cwnd / 2.0).max(2.0);
        self.cwnd = 1.0;
        self.clamp();
    }

    fn cwnd(&self) -> f64 {
        self.cwnd
    }

    fn name(&self) -> &'static str {
        "TCP"
    }

    fn snap_save(&self, w: &mut vertigo_simcore::SnapWriter) {
        w.put_f64(self.cwnd);
        w.put_f64(self.ssthresh);
    }

    fn snap_restore(
        &mut self,
        r: &mut vertigo_simcore::SnapReader<'_>,
    ) -> Result<(), vertigo_simcore::SnapError> {
        self.cwnd = r.get_f64()?;
        self.ssthresh = r.get_f64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vertigo_simcore::SimDuration;

    fn ack(pkts: f64) -> AckContext {
        AckContext {
            now: SimTime::ZERO,
            newly_acked: (pkts * 1460.0) as u64,
            newly_acked_pkts: pkts,
            rtt: Some(SimDuration::from_micros(100)),
            ecn_echo: false,
        }
    }

    #[test]
    fn slow_start_doubles_per_rtt() {
        let mut r = Reno::default();
        // Acking a full window in slow start doubles it.
        r.on_ack(&ack(10.0));
        assert_eq!(r.cwnd(), 20.0);
        r.on_ack(&ack(20.0));
        assert_eq!(r.cwnd(), 40.0);
    }

    #[test]
    fn congestion_avoidance_is_linear() {
        let mut r = Reno::default();
        r.on_fast_retransmit(SimTime::ZERO); // sets ssthresh = cwnd/2 = 5
        let w0 = r.cwnd();
        assert_eq!(w0, 5.0);
        // One full window of ACKs adds ~1 MSS.
        let mut acked = 0.0;
        while acked < w0 {
            r.on_ack(&ack(1.0));
            acked += 1.0;
        }
        assert!((r.cwnd() - (w0 + 1.0)).abs() < 0.1, "cwnd {}", r.cwnd());
    }

    #[test]
    fn rto_collapses_to_one() {
        let mut r = Reno::default();
        r.on_rto(SimTime::ZERO);
        assert_eq!(r.cwnd(), 1.0);
        assert_eq!(r.ssthresh(), 5.0);
        // Regrows in slow start afterwards.
        r.on_ack(&ack(1.0));
        assert_eq!(r.cwnd(), 2.0);
    }

    #[test]
    fn dupacks_do_not_grow_window() {
        let mut r = Reno::default();
        let before = r.cwnd();
        r.on_ack(&AckContext {
            now: SimTime::ZERO,
            newly_acked: 0,
            newly_acked_pkts: 0.0,
            rtt: None,
            ecn_echo: false,
        });
        assert_eq!(r.cwnd(), before);
    }

    #[test]
    fn not_ecn_capable() {
        let r = Reno::default();
        assert!(!r.ecn_capable());
        assert_eq!(r.name(), "TCP");
    }
}
