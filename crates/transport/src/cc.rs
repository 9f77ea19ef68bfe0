//! The congestion-control abstraction.
//!
//! Vertigo is an L2/L3 service that runs *below* an unmodified transport
//! (paper §3), so the simulator must host several congestion controllers
//! behind one interface. [`CongestionControl`] is that interface: the
//! sender machine reports ACKs, losses, and timeouts; the controller
//! answers with a window (in MSS units, possibly fractional) and an
//! optional pacing interval (Swift's sub-packet windows).

use vertigo_simcore::{SimDuration, SimTime, SnapError, SnapReader, SnapWriter};

/// Everything a controller may want to know about one cumulative ACK.
#[derive(Debug, Clone, Copy)]
pub struct AckContext {
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

/// A pluggable congestion controller operating in MSS units.
pub trait CongestionControl: std::fmt::Debug + Send {
    /// Called for every cumulative ACK that advances the window.
    fn on_ack(&mut self, ctx: &AckContext);

    /// Called when loss is inferred from duplicate ACKs (entering fast
    /// recovery). Called once per recovery episode.
    fn on_fast_retransmit(&mut self, now: SimTime);

    /// Called when the retransmission timer fires.
    fn on_rto(&mut self, now: SimTime);

    /// Current congestion window in MSS units. May be fractional and may
    /// drop below 1.0 (Swift), in which case the sender paces.
    fn cwnd(&self) -> f64;

    /// For sub-packet windows: the delay between consecutive packets
    /// (`rtt / cwnd` at `cwnd < 1`), given the current smoothed RTT.
    /// `None` means "window-limited, no pacing".
    fn pacing_interval(&self, srtt: Option<SimDuration>) -> Option<SimDuration> {
        let _ = srtt;
        None
    }

    /// Whether outgoing packets should set the ECN-capable codepoint.
    fn ecn_capable(&self) -> bool {
        false
    }

    /// Short protocol name for reports.
    fn name(&self) -> &'static str;

    /// Serializes the controller's mutable state for a checkpoint. Its
    /// kind is *not* saved — resume constructs the controller the run
    /// spec names and then overlays this state.
    fn snap_save(&self, w: &mut SnapWriter);

    /// Restores state written by [`CongestionControl::snap_save`] into a
    /// freshly constructed controller of the same kind.
    fn snap_restore(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError>;
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
