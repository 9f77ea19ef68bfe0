//! DCTCP (Alizadeh et al., SIGCOMM'10): the paper's default transport.
//!
//! DCTCP keeps Reno's slow start and additive increase, but reacts to ECN
//! marks *proportionally*: the receiver echoes each CE mark; once per
//! window the sender computes the marked fraction `F`, smooths it into
//! `α ← (1-g)·α + g·F`, and on a marked window reduces
//! `cwnd ← cwnd · (1 − α/2)` — a small cut for light congestion, a Reno-
//! style halving when every packet was marked.

use crate::cc::AckContext;
use crate::reno::{INIT_CWND, MAX_CWND, MIN_CWND};
use vertigo_pkt::MAX_PAYLOAD;
use vertigo_simcore::SimTime;

/// EWMA gain `g` for the α estimate (DCTCP paper: 1/16).
const G: f64 = 1.0 / 16.0;
/// The segment size the window is counted in.
const MSS: u64 = MAX_PAYLOAD as u64;

/// DCTCP sender state.
#[derive(Debug, Clone)]
pub struct Dctcp {
    cwnd: f64,
    ssthresh: f64,
    /// Smoothed fraction of marked packets.
    alpha: f64,
    /// Bytes acked in the current observation window.
    window_acked: u64,
    /// Of which, bytes whose ACKs carried an ECN echo.
    window_marked: u64,
    /// Window length in bytes for the current observation round
    /// (≈ one cwnd at round start).
    window_len: u64,
}

impl Default for Dctcp {
    /// A DCTCP controller in slow start, its window counted in
    /// `MAX_PAYLOAD`-byte segments.
    fn default() -> Self {
        Dctcp {
            cwnd: INIT_CWND,
            ssthresh: f64::INFINITY,
            alpha: 0.0,
            window_acked: 0,
            window_marked: 0,
            window_len: INIT_CWND as u64 * MSS,
        }
    }
}

impl Dctcp {
    /// The smoothed marking fraction α (for tests and diagnostics).
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    fn clamp(&mut self) {
        self.cwnd = self.cwnd.clamp(MIN_CWND, MAX_CWND);
    }

    /// Closes an observation window: update α and apply the proportional
    /// decrease if any packet in the window was marked.
    fn roll_window(&mut self) {
        let f = if self.window_acked == 0 {
            0.0
        } else {
            self.window_marked as f64 / self.window_acked as f64
        };
        self.alpha = (1.0 - G) * self.alpha + G * f;
        if self.window_marked > 0 {
            self.cwnd *= 1.0 - self.alpha / 2.0;
            self.ssthresh = self.cwnd;
            self.clamp();
        }
        self.window_acked = 0;
        self.window_marked = 0;
        self.window_len = ((self.cwnd * MSS as f64) as u64).max(MSS);
    }

    pub(crate) fn on_ack(&mut self, ctx: &AckContext) {
        if ctx.newly_acked == 0 {
            return;
        }
        self.window_acked += ctx.newly_acked;
        if ctx.ecn_echo {
            self.window_marked += ctx.newly_acked;
        }
        // Reno-style growth between marks.
        if self.cwnd < self.ssthresh {
            self.cwnd += ctx.newly_acked_pkts;
        } else {
            self.cwnd += ctx.newly_acked_pkts / self.cwnd;
        }
        self.clamp();
        if self.window_acked >= self.window_len {
            self.roll_window();
        }
    }

    pub(crate) fn on_fast_retransmit(&mut self, _now: SimTime) {
        // Packet loss still halves, as in Reno.
        self.ssthresh = (self.cwnd / 2.0).max(2.0);
        self.cwnd = self.ssthresh;
        self.clamp();
    }

    pub(crate) fn on_rto(&mut self, _now: SimTime) {
        self.ssthresh = (self.cwnd / 2.0).max(2.0);
        self.cwnd = 1.0;
        self.clamp();
    }

    pub(crate) fn cwnd(&self) -> f64 {
        self.cwnd
    }

    pub(crate) fn snap_save(&self, w: &mut vertigo_simcore::SnapWriter) {
        w.put_f64(self.cwnd);
        w.put_f64(self.ssthresh);
        w.put_f64(self.alpha);
        w.put_u64(self.window_acked);
        w.put_u64(self.window_marked);
        w.put_u64(self.window_len);
    }

    pub(crate) fn snap_restore(
        &mut self,
        r: &mut vertigo_simcore::SnapReader<'_>,
    ) -> Result<(), vertigo_simcore::SnapError> {
        self.cwnd = r.get_f64()?;
        self.ssthresh = r.get_f64()?;
        self.alpha = r.get_f64()?;
        self.window_acked = r.get_u64()?;
        self.window_marked = r.get_u64()?;
        self.window_len = r.get_u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vertigo_simcore::SimDuration;

    fn ack(pkts: f64, ecn: bool) -> AckContext {
        AckContext {
            now: SimTime::ZERO,
            newly_acked: (pkts * 1460.0) as u64,
            newly_acked_pkts: pkts,
            rtt: Some(SimDuration::from_micros(100)),
            ecn_echo: ecn,
        }
    }

    #[test]
    fn no_marks_behaves_like_reno_slow_start() {
        let mut d = Dctcp::default();
        let w0 = d.cwnd();
        d.on_ack(&ack(w0, false));
        assert_eq!(d.cwnd(), w0 * 2.0);
        assert_eq!(d.alpha(), 0.0);
    }

    #[test]
    fn fully_marked_window_converges_to_halving() {
        let mut d = Dctcp::default();
        // Repeatedly ack fully-marked windows; α → 1, reduction → cwnd/2.
        for _ in 0..200 {
            let w = d.cwnd();
            d.on_ack(&ack(w, true));
        }
        assert!(d.alpha() > 0.9, "alpha {} should approach 1", d.alpha());
    }

    #[test]
    fn light_marking_gives_gentle_reduction() {
        let mut d = Dctcp::default();
        // Grow to a sizable window first.
        for _ in 0..6 {
            let w = d.cwnd();
            d.on_ack(&ack(w, false));
        }
        let before = d.cwnd();
        // One window where only ~10 % of bytes are marked.
        let w = d.cwnd();
        d.on_ack(&ack(w * 0.1, true));
        d.on_ack(&ack(w * 0.9, false));
        let after = d.cwnd();
        // α ≈ g·0.1 ≈ 0.00625 → reduction factor ≈ 1 − 0.003: nearly none,
        // and certainly far gentler than halving. Growth may even dominate.
        assert!(
            after > before * 0.9,
            "gentle mark cut too deep: {before} -> {after}"
        );
    }

    #[test]
    fn alpha_decays_when_marking_stops() {
        let mut d = Dctcp::default();
        for _ in 0..50 {
            let w = d.cwnd();
            d.on_ack(&ack(w, true));
        }
        let high = d.alpha();
        for _ in 0..100 {
            let w = d.cwnd();
            d.on_ack(&ack(w, false));
        }
        assert!(d.alpha() < high / 4.0, "alpha must decay: {}", d.alpha());
    }

    #[test]
    fn rto_collapses_window() {
        let mut d = Dctcp::default();
        d.on_rto(SimTime::ZERO);
        assert_eq!(d.cwnd(), 1.0);
    }

    #[test]
    fn is_ecn_capable() {
        use crate::cc::{CcKind, Controller};
        assert!(Controller::new(CcKind::Dctcp).ecn_capable());
        assert_eq!(CcKind::Dctcp.name(), "DCTCP");
    }
}
