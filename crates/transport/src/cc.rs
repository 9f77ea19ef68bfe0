//! The congestion controllers a flow can run.
//!
//! Vertigo is an L2/L3 service that runs *below* an unmodified transport
//! (paper §3), and the paper runs it under exactly three: TCP Reno,
//! DCTCP and Swift. [`Controller`] is the closed set of them: the sender
//! machine reports ACKs, losses, and timeouts; the controller answers
//! with a window (in MSS units, possibly fractional) and an optional
//! pacing interval (Swift's sub-packet windows). Being plain data, it
//! clones with the sender that owns it.

use crate::dctcp::Dctcp;
use crate::reno::Reno;
use crate::swift::Swift;
use vertigo_simcore::{SimDuration, SimTime, SnapError, SnapReader, SnapWriter};

/// Everything a controller may want to know about one cumulative ACK.
#[derive(Debug, Clone, Copy)]
pub(crate) struct AckContext {
    /// Arrival time of the ACK.
    pub now: SimTime,
    /// Bytes newly acknowledged by this ACK (0 for a duplicate ACK).
    pub newly_acked: u64,
    /// Packets newly acknowledged (derived from bytes / MSS, ≥ 1 when
    /// `newly_acked > 0`).
    pub newly_acked_pkts: f64,
    /// Measured RTT for the packet that triggered this ACK, if available.
    pub rtt: Option<SimDuration>,
    /// Whether the receiver echoed an ECN CE mark.
    pub ecn_echo: bool,
}

/// One flow's congestion controller, operating in MSS units.
#[derive(Debug, Clone)]
pub(crate) enum Controller {
    Reno(Reno),
    Dctcp(Dctcp),
    Swift(Swift),
}

/// Applies `$body` to whichever controller `$cc` holds, bound as `$c`.
macro_rules! each {
    ($cc:expr, $c:ident => $body:expr) => {
        match $cc {
            Controller::Reno($c) => $body,
            Controller::Dctcp($c) => $body,
            Controller::Swift($c) => $body,
        }
    };
}

impl Controller {
    /// A fresh controller of `kind`.
    pub(crate) fn new(kind: CcKind) -> Self {
        match kind {
            CcKind::Reno => Controller::Reno(Reno::default()),
            CcKind::Dctcp => Controller::Dctcp(Dctcp::default()),
            CcKind::Swift => Controller::Swift(Swift::default()),
        }
    }

    /// Called for every cumulative ACK that advances the window.
    pub(crate) fn on_ack(&mut self, ctx: &AckContext) {
        each!(self, c => c.on_ack(ctx))
    }

    /// Called when loss is inferred from duplicate ACKs (entering fast
    /// recovery). Called once per recovery episode.
    pub(crate) fn on_fast_retransmit(&mut self, now: SimTime) {
        each!(self, c => c.on_fast_retransmit(now))
    }

    /// Called when the retransmission timer fires.
    pub(crate) fn on_rto(&mut self, now: SimTime) {
        each!(self, c => c.on_rto(now))
    }

    /// Current congestion window in MSS units. May be fractional and may
    /// drop below 1.0 (Swift), in which case the sender paces.
    pub(crate) fn cwnd(&self) -> f64 {
        each!(self, c => c.cwnd())
    }

    /// For sub-packet windows: the delay between consecutive packets
    /// (`rtt / cwnd` at `cwnd < 1`), given the current smoothed RTT.
    /// `None` means "window-limited, no pacing"; only Swift paces.
    pub(crate) fn pacing_interval(&self, srtt: Option<SimDuration>) -> Option<SimDuration> {
        match self {
            Controller::Swift(s) => s.pacing_interval(srtt),
            _ => None,
        }
    }

    /// Whether outgoing packets should set the ECN-capable codepoint:
    /// only DCTCP reads the echo.
    pub(crate) fn ecn_capable(&self) -> bool {
        matches!(self, Controller::Dctcp(_))
    }

    /// Serializes the controller's mutable state for a checkpoint. Its
    /// kind is *not* saved — resume constructs the controller the run
    /// spec names and then overlays this state.
    pub(crate) fn snap_save(&self, w: &mut SnapWriter) {
        each!(self, c => c.snap_save(w))
    }

    /// Restores state written by [`Controller::snap_save`] into a
    /// freshly constructed controller of the same kind.
    pub(crate) fn snap_restore(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        each!(self, c => c.snap_restore(r))
    }
}

/// Which congestion controller a flow uses; carried in experiment configs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CcKind {
    /// Loss-based TCP Reno (NewReno-style recovery).
    Reno,
    /// DCTCP: ECN-fraction-proportional window reduction.
    Dctcp,
    /// Swift: delay-based with sub-packet windows and pacing.
    Swift,
}

impl CcKind {
    /// Display name matching the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            CcKind::Reno => "TCP",
            CcKind::Dctcp => "DCTCP",
            CcKind::Swift => "Swift",
        }
    }
}
