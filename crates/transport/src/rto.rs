//! Retransmission-timeout estimation (RFC 6298).
//!
//! The paper's simulations follow the DCTCP/DIBS parameter settings:
//! initial RTO 1 s, minimum RTO 10 ms. Every run uses them, so they are
//! the constants below.

use vertigo_simcore::SimDuration;

/// RTO before any RTT sample exists (paper: 1 s).
const INITIAL: SimDuration = SimDuration::from_secs(1);
/// Lower clamp (paper: 10 ms).
const MIN: SimDuration = SimDuration::from_millis(10);
/// Upper clamp for the backed-off RTO.
const MAX: SimDuration = SimDuration::from_secs(60);

/// SRTT/RTTVAR smoothing and exponential backoff per RFC 6298.
#[derive(Debug, Clone)]
pub struct RtoEstimator {
    srtt: Option<SimDuration>,
    rttvar: SimDuration,
    /// Base RTO (before backoff), clamped to `[MIN, MAX]`.
    rto: SimDuration,
    /// Consecutive-timeout exponent.
    backoff_exp: u32,
}

impl Default for RtoEstimator {
    /// An estimator with no RTT samples yet.
    fn default() -> Self {
        RtoEstimator {
            srtt: None,
            rttvar: SimDuration::ZERO,
            rto: INITIAL,
            backoff_exp: 0,
        }
    }
}

impl RtoEstimator {
    /// Smoothed RTT, once at least one sample has arrived.
    pub fn srtt(&self) -> Option<SimDuration> {
        self.srtt
    }

    /// Incorporates an RTT sample (also clears any backoff — a fresh sample
    /// means the path is alive again).
    pub fn on_rtt_sample(&mut self, rtt: SimDuration) {
        match self.srtt {
            None => {
                self.srtt = Some(rtt);
                self.rttvar = rtt / 2;
            }
            Some(srtt) => {
                // RTTVAR = 3/4 RTTVAR + 1/4 |SRTT - RTT|
                let err = if srtt > rtt { srtt - rtt } else { rtt - srtt };
                self.rttvar = (self.rttvar * 3) / 4 + err / 4;
                // SRTT = 7/8 SRTT + 1/8 RTT
                self.srtt = Some((srtt * 7) / 8 + rtt / 8);
            }
        }
        let srtt = self.srtt.expect("just set");
        let candidate = srtt + self.rttvar * 4;
        self.rto = candidate.max(MIN).min(MAX);
        self.backoff_exp = 0;
    }

    /// The current RTO, including exponential backoff.
    pub fn current(&self) -> SimDuration {
        let backed = self.rto.saturating_mul(1u64 << self.backoff_exp.min(30));
        backed.max(MIN).min(MAX)
    }

    /// Doubles the RTO after a timeout fires (Karn's algorithm).
    pub fn backoff(&mut self) {
        self.backoff_exp = (self.backoff_exp + 1).min(30);
    }

    /// Number of consecutive backoffs since the last valid sample.
    pub fn backoff_count(&self) -> u32 {
        self.backoff_exp
    }

    /// Serializes the estimator's state.
    pub fn snap_save(&self, w: &mut vertigo_simcore::SnapWriter) {
        use vertigo_simcore::Snapshot;
        self.srtt.save(w);
        self.rttvar.save(w);
        self.rto.save(w);
        w.put_u32(self.backoff_exp);
    }

    /// Restores state written by [`RtoEstimator::snap_save`] into a fresh
    /// estimator.
    pub fn snap_restore(
        &mut self,
        r: &mut vertigo_simcore::SnapReader<'_>,
    ) -> Result<(), vertigo_simcore::SnapError> {
        use vertigo_simcore::Snapshot;
        self.srtt = Option::restore(r)?;
        self.rttvar = SimDuration::restore(r)?;
        self.rto = SimDuration::restore(r)?;
        self.backoff_exp = r.get_u32()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(n: u64) -> SimDuration {
        SimDuration::from_micros(n)
    }

    fn ms(n: u64) -> SimDuration {
        SimDuration::from_millis(n)
    }

    #[test]
    fn initial_rto_until_first_sample() {
        let e = RtoEstimator::default();
        assert_eq!(e.current(), SimDuration::from_secs(1));
        assert_eq!(e.srtt(), None);
    }

    #[test]
    fn first_sample_seeds_srtt() {
        let mut e = RtoEstimator::default();
        e.on_rtt_sample(us(100));
        assert_eq!(e.srtt(), Some(us(100)));
        // RTO = SRTT + 4*RTTVAR = 100 + 4*50 = 300 µs, clamped to min 10 ms.
        assert_eq!(e.current(), ms(10));
    }

    #[test]
    fn an_rto_above_the_min_clamp_is_not_clamped() {
        let mut e = RtoEstimator::default();
        e.on_rtt_sample(ms(5));
        // 5 ms + 4 * 2.5 ms.
        assert_eq!(e.current(), ms(15));
    }

    #[test]
    fn smoothing_converges() {
        let mut e = RtoEstimator::default();
        for _ in 0..100 {
            e.on_rtt_sample(ms(20));
        }
        let srtt = e.srtt().unwrap();
        assert!(
            (srtt.as_nanos() as i64 - 20_000_000).unsigned_abs() < 20_000,
            "srtt {srtt} should converge to 20ms"
        );
        // With zero variance, RTO converges toward SRTT.
        assert!(e.current() < ms(28));
    }

    #[test]
    fn backoff_doubles_and_sample_resets() {
        let mut e = RtoEstimator::default();
        e.on_rtt_sample(us(100));
        let base = e.current();
        assert_eq!(base, ms(10));
        e.backoff();
        assert_eq!(e.current(), base * 2);
        e.backoff();
        assert_eq!(e.current(), base * 4);
        assert_eq!(e.backoff_count(), 2);
        e.on_rtt_sample(us(100));
        assert_eq!(e.backoff_count(), 0);
        assert_eq!(e.current(), base);
    }

    #[test]
    fn max_clamp_holds_under_heavy_backoff() {
        let mut e = RtoEstimator::default();
        for _ in 0..64 {
            e.backoff();
        }
        assert_eq!(e.current(), SimDuration::from_secs(60));
    }
}
