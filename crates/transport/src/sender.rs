//! The per-flow sending machine: windowing, loss detection, recovery.
//!
//! [`FlowSender`] owns one unidirectional flow. It tracks outstanding
//! segments, counts duplicate ACKs (fast retransmit after 3, NewReno-style
//! partial-ACK handling in recovery), runs the RTO timer, and delegates
//! window sizing to its congestion controller: Reno, DCTCP or Swift
//! ([`crate::cc`]). Pacing for sub-packet windows (Swift) is enforced
//! here.
//!
//! DIBS disables fast retransmit (paper §2); that is the
//! [`TransportConfig::fast_retransmit`] switch.

use crate::cc::{AckContext, CcKind, Controller};
use crate::rto::RtoEstimator;
use std::collections::VecDeque;
use vertigo_pkt::{AckSeg, DataSeg, FlowId, MAX_PAYLOAD};
use vertigo_simcore::{SimDuration, SimTime};

/// Duplicate ACKs that trigger fast retransmit.
const DUPACK_THRESHOLD: u32 = 3;

/// The segment size: every segment but a flow's last is this long.
const MSS: u64 = MAX_PAYLOAD as u64;

/// Transport configuration shared by every flow on a host. The
/// controllers' and the RTO estimator's parameters are the paper's, fixed
/// in their modules.
#[derive(Debug, Clone, Copy)]
pub struct TransportConfig {
    /// Which congestion controller to instantiate per flow.
    pub cc: CcKind,
    /// Whether 3 duplicate ACKs trigger fast retransmit (DIBS turns this
    /// off and leans on RTOs, per its paper).
    pub fast_retransmit: bool,
}

impl TransportConfig {
    /// The paper's default for `cc`: fast retransmit on.
    pub fn default_for(cc: CcKind) -> Self {
        TransportConfig {
            cc,
            fast_retransmit: true,
        }
    }
}

/// Sender-side counters.
#[derive(Debug, Default, Clone, Copy)]
pub struct SenderStats {
    /// Data segments transmitted (including retransmissions).
    pub segments_sent: u64,
    /// Retransmitted segments.
    pub retransmits: u64,
    /// Fast-retransmit episodes entered.
    pub fast_retransmits: u64,
    /// RTO firings.
    pub rtos: u64,
}

impl std::ops::AddAssign for SenderStats {
    fn add_assign(&mut self, x: SenderStats) {
        self.segments_sent += x.segments_sent;
        self.retransmits += x.retransmits;
        self.fast_retransmits += x.fast_retransmits;
        self.rtos += x.rtos;
    }
}

/// What `on_ack` tells the caller.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct AckOutcome {
    /// Bytes newly acknowledged.
    pub newly_acked: u64,
    /// The flow finished (all bytes acknowledged) with this ACK.
    pub completed: bool,
}

/// One flow's sending state machine.
#[derive(Debug, Clone)]
pub struct FlowSender {
    /// Flow id (diagnostics).
    pub flow: FlowId,
    /// Flow size in bytes.
    pub size: u64,
    /// [`TransportConfig::fast_retransmit`].
    fast_retransmit: bool,
    cc: Controller,
    rto: RtoEstimator,
    next_seq: u64,
    cum_acked: u64,
    dup_acks: u32,
    in_recovery: bool,
    recover_point: u64,
    /// One flag per segment sent and not yet cumulatively acknowledged,
    /// the bytes `[front_seq, next_seq)`: whether it is marked lost
    /// (queued for retransmission or already retransmitted). Segments are
    /// cut in order at `MSS` and only a flow's last one is shorter, so
    /// flag `i` is the segment at `front_seq + i * MSS`; see
    /// [`Self::index`] and [`Self::seg_len`].
    outstanding: VecDeque<bool>,
    /// Sequence number of the front of `outstanding` (`next_seq` while it
    /// is empty).
    front_seq: u64,
    /// Flags set in `outstanding`: segments awaiting retransmission.
    lost: usize,
    /// Bytes in flight: those of the outstanding segments not marked lost.
    flight: u64,
    rto_deadline: Option<SimTime>,
    /// Earliest instant the pacer allows the next transmission.
    pace_next: SimTime,
    stats: SenderStats,
}

impl FlowSender {
    /// Creates a sender for a `size`-byte flow.
    pub fn new(flow: FlowId, size: u64, cfg: TransportConfig) -> Self {
        assert!(size > 0, "zero-byte flow");
        FlowSender {
            flow,
            size,
            cc: Controller::new(cfg.cc),
            rto: RtoEstimator::default(),
            fast_retransmit: cfg.fast_retransmit,
            next_seq: 0,
            cum_acked: 0,
            dup_acks: 0,
            in_recovery: false,
            recover_point: 0,
            outstanding: VecDeque::new(),
            front_seq: 0,
            lost: 0,
            flight: 0,
            rto_deadline: None,
            pace_next: SimTime::ZERO,
            stats: SenderStats::default(),
        }
    }

    /// Sender counters.
    pub fn stats(&self) -> SenderStats {
        self.stats
    }

    /// Whether every byte has been acknowledged.
    pub fn is_complete(&self) -> bool {
        self.cum_acked >= self.size
    }

    /// Current window in MSS (diagnostics).
    pub fn cwnd(&self) -> f64 {
        self.cc.cwnd()
    }

    /// Bytes currently considered in flight.
    pub fn flight_bytes(&self) -> u64 {
        self.flight
    }

    /// Whether outgoing data packets should be ECN-capable.
    pub fn ecn_capable(&self) -> bool {
        self.cc.ecn_capable()
    }

    /// Smoothed RTT, once measured.
    pub fn srtt(&self) -> Option<SimDuration> {
        self.rto.srtt()
    }

    /// True while the flow still has data to transmit or retransmit.
    pub fn has_pending_work(&self) -> bool {
        !self.is_complete() && (self.next_seq < self.size || self.lost > 0)
    }

    /// The next instant the host should call [`FlowSender::on_timer`]:
    /// the RTO deadline, or the pacing release if the pacer is what is
    /// blocking pending work.
    pub fn next_deadline(&self, now: SimTime) -> Option<SimTime> {
        if self.is_complete() {
            return None;
        }
        match (self.rto_deadline, self.pacer_release(now)) {
            (Some(rto), Some(pace)) => Some(rto.min(pace)),
            (rto, pace) => rto.or(pace),
        }
    }

    /// The instant the pacer unblocks, if the pacer is what holds pending
    /// work back at `now`. This is the only way [`FlowSender::poll_segment`]
    /// can go from `None` to `Some` with no call into the sender in
    /// between: every other condition it checks is sender state, which
    /// only `on_ack`, `on_timer` and a successful poll change.
    pub fn pacer_release(&self, now: SimTime) -> Option<SimTime> {
        (self.has_pending_work() && self.pace_next > now).then_some(self.pace_next)
    }

    fn cwnd_bytes(&self) -> u64 {
        (self.cc.cwnd().max(0.0) * MSS as f64) as u64
    }

    /// The length of the segment that starts at `seq`, a point on the
    /// grid below the flow's end.
    fn seg_len(&self, seq: u64) -> u64 {
        (self.size - seq).min(MSS)
    }

    /// The position in `outstanding` of the segment that starts at `seq`,
    /// if one does.
    fn index(&self, seq: u64) -> Option<usize> {
        let offset = seq.checked_sub(self.front_seq)?;
        let i = (offset / MSS) as usize;
        (offset.is_multiple_of(MSS) && i < self.outstanding.len()).then_some(i)
    }

    /// The bytes of the outstanding segments not marked lost: what
    /// `flight` holds after every call.
    fn unflagged_bytes(&self) -> u64 {
        let seqs = (0..).map(|i| self.front_seq + i * MSS);
        seqs.zip(&self.outstanding)
            .filter(|&(_, &lost)| !lost)
            .map(|(seq, _)| self.seg_len(seq))
            .sum()
    }

    fn arm_rto(&mut self, now: SimTime) {
        self.rto_deadline = Some(now + self.rto.current());
    }

    /// Offers the next transmittable segment, or `None` if the window,
    /// pacer, or data supply does not allow one. The caller sends the
    /// returned segment and calls again until `None`.
    pub fn poll_segment(&mut self, now: SimTime) -> Option<DataSeg> {
        if self.is_complete() {
            return None;
        }
        if now < self.pace_next {
            return None;
        }
        let sub_packet = self.cc.cwnd() < 1.0;
        if sub_packet && self.flight > 0 {
            // Sub-packet window: strictly one packet in flight, paced.
            return None;
        }

        // Retransmissions take priority over new data, the lowest lost
        // segment first.
        if self.lost > 0 {
            let i = self.outstanding.iter().position(|&lost| lost);
            let i = i.expect("a segment is flagged lost");
            let seq = self.front_seq + i as u64 * MSS;
            let len = self.seg_len(seq);
            // The head-of-line hole may always be retransmitted regardless
            // of the window (classic fast-retransmit/RTO behavior); other
            // holes wait for window space.
            if seq == self.cum_acked || self.flight + len <= self.cwnd_bytes().max(len) {
                self.outstanding[i] = false;
                self.lost -= 1;
                self.flight += len;
                self.stats.segments_sent += 1;
                self.stats.retransmits += 1;
                let out = DataSeg {
                    seq,
                    payload: len as u32,
                    flow_bytes: self.size,
                    retransmit: true,
                    trimmed: false,
                };
                self.after_send(now);
                return Some(out);
            }
            return None;
        }

        // New data.
        if self.next_seq >= self.size {
            return None;
        }
        // During recovery, hold new data until the hole is repaired
        // (conservative NewReno without window inflation).
        if self.in_recovery {
            return None;
        }
        let seq = self.next_seq;
        let len = self.seg_len(seq);
        let allowed = if sub_packet {
            self.flight == 0
        } else {
            self.flight + len <= self.cwnd_bytes()
        };
        if !allowed {
            return None;
        }
        self.next_seq += len;
        self.outstanding.push_back(false);
        self.flight += len;
        self.stats.segments_sent += 1;
        let out = DataSeg {
            seq,
            payload: len as u32,
            flow_bytes: self.size,
            retransmit: false,
            trimmed: false,
        };
        self.after_send(now);
        Some(out)
    }

    fn after_send(&mut self, now: SimTime) {
        debug_assert_eq!(self.flight, self.unflagged_bytes());
        if self.rto_deadline.is_none() {
            self.arm_rto(now);
        }
        if let Some(gap) = self.cc.pacing_interval(self.rto.srtt()) {
            self.pace_next = now + gap;
        }
    }

    fn mark_lost(&mut self, seq: u64) {
        let Some(i) = self.index(seq) else {
            return;
        };
        if !std::mem::replace(&mut self.outstanding[i], true) {
            self.lost += 1;
            self.flight -= self.seg_len(seq);
        }
        debug_assert_eq!(self.flight, self.unflagged_bytes());
    }

    /// Processes one cumulative ACK.
    pub fn on_ack(&mut self, now: SimTime, ack: &AckSeg) -> AckOutcome {
        if self.is_complete() {
            return AckOutcome::default();
        }
        // Timestamp echo gives an unambiguous RTT even for retransmissions.
        let rtt = now.saturating_since(ack.ts_echo);
        if rtt > SimDuration::ZERO {
            self.rto.on_rtt_sample(rtt);
        }

        let newly = ack.cum_ack.saturating_sub(self.cum_acked);
        if newly > 0 {
            self.cum_acked = ack.cum_ack;
            self.dup_acks = 0;
            // Retire every segment that starts below the ACK (they leave
            // from the front).
            while self.front_seq < self.cum_acked {
                let Some(lost) = self.outstanding.pop_front() else {
                    break;
                };
                let len = self.seg_len(self.front_seq);
                if lost {
                    self.lost -= 1;
                } else {
                    self.flight -= len;
                }
                self.front_seq += len;
            }
            debug_assert_eq!(self.flight, self.unflagged_bytes());
            if self.in_recovery {
                if self.cum_acked >= self.recover_point {
                    self.in_recovery = false;
                } else {
                    // NewReno partial ACK: the next hole is also lost.
                    self.mark_lost(self.cum_acked);
                }
            }
            self.cc.on_ack(&AckContext {
                now,
                newly_acked: newly,
                newly_acked_pkts: newly as f64 / MSS as f64,
                rtt: Some(rtt),
                ecn_echo: ack.ecn_echo,
            });
            // Restart (or stop, the flow done) the retransmission timer.
            if self.outstanding.is_empty() && !self.has_pending_work() {
                self.rto_deadline = None;
            } else {
                self.arm_rto(now);
            }
            AckOutcome {
                newly_acked: newly,
                completed: self.is_complete(),
            }
        } else {
            // Duplicate ACK.
            self.dup_acks += 1;
            self.cc.on_ack(&AckContext {
                now,
                newly_acked: 0,
                newly_acked_pkts: 0.0,
                rtt: Some(rtt),
                ecn_echo: ack.ecn_echo,
            });
            if self.fast_retransmit
                && !self.in_recovery
                && self.dup_acks >= DUPACK_THRESHOLD
                && self.index(self.cum_acked).is_some()
            {
                self.in_recovery = true;
                self.recover_point = self.next_seq;
                self.stats.fast_retransmits += 1;
                self.mark_lost(self.cum_acked);
                self.cc.on_fast_retransmit(now);
            }
            AckOutcome::default()
        }
    }

    /// Serializes the full sending state machine, congestion controller
    /// and RTO estimator included. The flow id and the transport config
    /// are not saved: the caller keys the record by the flow, and
    /// [`FlowSender::snap_restore`] rebuilds the config from the run spec.
    /// Nor is `flight`, the bytes of the segments not flagged lost.
    pub fn snap_save(&self, w: &mut vertigo_simcore::SnapWriter) {
        use vertigo_simcore::Snapshot;
        w.put_u64(self.size);
        self.cc.snap_save(w);
        self.rto.snap_save(w);
        w.put_u64(self.next_seq);
        w.put_u64(self.cum_acked);
        w.put_u32(self.dup_acks);
        w.put_bool(self.in_recovery);
        w.put_u64(self.recover_point);
        w.put_u64(self.front_seq);
        w.put_usize(self.outstanding.len());
        for &lost in &self.outstanding {
            w.put_bool(lost);
        }
        self.rto_deadline.save(w);
        self.pace_next.save(w);
        w.put_u64(self.stats.segments_sent);
        w.put_u64(self.stats.retransmits);
        w.put_u64(self.stats.fast_retransmits);
        w.put_u64(self.stats.rtos);
    }

    /// Reconstructs `flow`'s sender from a [`FlowSender::snap_save`]
    /// stream and the (unsaved) transport config. A record this sender
    /// could not have written — a window that does not start and end on
    /// the `MSS` grid, or a flag count other than its segments' — is an
    /// error here, not a panic in `poll_segment` later.
    pub fn snap_restore(
        flow: FlowId,
        cfg: TransportConfig,
        r: &mut vertigo_simcore::SnapReader<'_>,
    ) -> Result<Self, vertigo_simcore::SnapError> {
        use vertigo_simcore::{SnapError, Snapshot};
        let size = r.get_u64()?;
        if size == 0 {
            return Err(SnapError::new(format!(
                "sender of {flow:?}: zero-byte flow"
            )));
        }
        let mut s = FlowSender::new(flow, size, cfg);
        s.cc.snap_restore(r)?;
        s.rto.snap_restore(r)?;
        s.next_seq = r.get_u64()?;
        s.cum_acked = r.get_u64()?;
        s.dup_acks = r.get_u32()?;
        s.in_recovery = r.get_bool()?;
        s.recover_point = r.get_u64()?;
        s.front_seq = r.get_u64()?;
        let n = r.count(1, "outstanding segments")?;
        let on_grid = |seq: u64| seq.is_multiple_of(MSS) || seq == size;
        let window = s.cum_acked <= s.next_seq
            && s.front_seq <= s.next_seq
            && s.next_seq <= size
            && on_grid(s.front_seq)
            && on_grid(s.next_seq)
            && n as u64 == (s.next_seq - s.front_seq).div_ceil(MSS);
        if !window {
            return Err(SnapError::new(format!(
                "sender of {flow:?}: {n} flags from {} to {} of {size} bytes, acknowledged \
                 to {}, are not one per segment of a window on the {MSS}-byte grid",
                s.front_seq, s.next_seq, s.cum_acked
            )));
        }
        for _ in 0..n {
            s.outstanding.push_back(r.get_bool()?);
        }
        s.lost = s.outstanding.iter().filter(|&&lost| lost).count();
        s.flight = s.unflagged_bytes();
        s.rto_deadline = Option::restore(r)?;
        s.pace_next = SimTime::restore(r)?;
        s.stats.segments_sent = r.get_u64()?;
        s.stats.retransmits = r.get_u64()?;
        s.stats.fast_retransmits = r.get_u64()?;
        s.stats.rtos = r.get_u64()?;
        Ok(s)
    }

    /// Timer callback: fires the RTO if due (pacing wakeups need no state
    /// change — the caller just polls for segments again).
    pub fn on_timer(&mut self, now: SimTime) {
        if self.is_complete() {
            return;
        }
        let Some(deadline) = self.rto_deadline else {
            return;
        };
        if now < deadline {
            return;
        }
        // RTO: collapse the window, mark everything outstanding lost, and
        // back off the timer.
        self.stats.rtos += 1;
        self.cc.on_rto(now);
        self.rto.backoff();
        self.in_recovery = false;
        self.dup_acks = 0;
        self.outstanding.iter_mut().for_each(|lost| *lost = true);
        self.lost = self.outstanding.len();
        self.flight = 0;
        self.arm_rto(now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> TransportConfig {
        TransportConfig::default_for(CcKind::Reno)
    }

    fn ack(cum: u64, ts: SimTime) -> AckSeg {
        AckSeg {
            cum_ack: cum,
            ecn_echo: false,
            ts_echo: ts,
        }
    }

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    #[test]
    fn sends_initial_window_then_stalls() {
        let mut s = FlowSender::new(FlowId(1), 100 * MSS, cfg());
        let mut sent = 0;
        while let Some(seg) = s.poll_segment(t(0)) {
            assert_eq!(seg.payload as u64, MSS);
            sent += 1;
        }
        assert_eq!(sent, 10, "initial cwnd is 10 MSS");
        assert_eq!(s.flight_bytes(), 10 * MSS);
        assert!(s.next_deadline(t(0)).is_some(), "RTO armed");
    }

    #[test]
    fn acks_open_the_window() {
        let mut s = FlowSender::new(FlowId(1), 100 * MSS, cfg());
        while s.poll_segment(t(0)).is_some() {}
        let o = s.on_ack(t(100), &ack(MSS, t(0)));
        assert_eq!(o.newly_acked, MSS);
        // Slow start: one ACK frees one slot and grows cwnd by 1 → 2 sends.
        let mut sent = 0;
        while s.poll_segment(t(100)).is_some() {
            sent += 1;
        }
        assert_eq!(sent, 2);
    }

    #[test]
    fn completes_when_all_acked() {
        let mut s = FlowSender::new(FlowId(1), 3 * MSS, cfg());
        let mut now = t(0);
        let mut acked = 0;
        while !s.is_complete() {
            while let Some(seg) = s.poll_segment(now) {
                assert!(!seg.retransmit);
                let _ = seg;
            }
            acked += MSS;
            let o = s.on_ack(now + SimDuration::from_micros(50), &ack(acked, now));
            now += SimDuration::from_micros(100);
            if acked == 3 * MSS {
                assert!(o.completed);
            }
        }
        assert!(s.is_complete());
        assert_eq!(s.next_deadline(now), None);
        assert_eq!(s.stats().segments_sent, 3);
        assert_eq!(s.stats().retransmits, 0);
    }

    #[test]
    fn last_segment_is_runt() {
        let mut s = FlowSender::new(FlowId(1), MSS + 100, cfg());
        let a = s.poll_segment(t(0)).unwrap();
        let b = s.poll_segment(t(0)).unwrap();
        assert_eq!(a.payload as u64, MSS);
        assert_eq!(b.payload, 100);
        assert_eq!(b.seq, MSS);
        assert!(s.poll_segment(t(0)).is_none());
    }

    #[test]
    fn three_dupacks_trigger_fast_retransmit() {
        let mut s = FlowSender::new(FlowId(1), 100 * MSS, cfg());
        while s.poll_segment(t(0)).is_some() {}
        let w0 = s.cwnd();
        // Packet 0 lost: ACKs for packets 1..4 all carry cum_ack = 0.
        for i in 0..3 {
            s.on_ack(t(100 + i), &ack(0, t(0)));
        }
        assert_eq!(s.stats().fast_retransmits, 1);
        assert!(s.cwnd() < w0, "window halved");
        // The retransmission of seq 0 is offered next.
        let seg = s.poll_segment(t(200)).unwrap();
        assert_eq!(seg.seq, 0);
        assert!(seg.retransmit);
        assert_eq!(s.stats().retransmits, 1);
        // Full ACK after repair exits recovery and resumes new data.
        s.on_ack(t(300), &ack(10 * MSS, t(200)));
        let seg = s.poll_segment(t(300)).unwrap();
        assert!(!seg.retransmit);
        assert_eq!(seg.seq, 10 * MSS);
    }

    #[test]
    fn fast_retransmit_disabled_for_dibs() {
        let mut c = cfg();
        c.fast_retransmit = false;
        let mut s = FlowSender::new(FlowId(1), 100 * MSS, c);
        while s.poll_segment(t(0)).is_some() {}
        for i in 0..10 {
            s.on_ack(t(100 + i), &ack(0, t(0)));
        }
        assert_eq!(s.stats().fast_retransmits, 0);
        assert!(s.poll_segment(t(200)).is_none(), "no rtx before RTO");
    }

    #[test]
    fn rto_marks_everything_lost_and_backs_off() {
        let mut s = FlowSender::new(FlowId(1), 20 * MSS, cfg());
        while s.poll_segment(t(0)).is_some() {}
        let dl = s.next_deadline(t(0)).unwrap();
        s.on_timer(dl);
        assert_eq!(s.stats().rtos, 1);
        assert_eq!(s.cwnd(), 1.0);
        assert_eq!(s.flight_bytes(), 0);
        // Head segment is retransmitted first.
        let seg = s.poll_segment(dl).unwrap();
        assert_eq!(seg.seq, 0);
        assert!(seg.retransmit);
        // Window of 1 blocks the rest.
        assert!(s.poll_segment(dl).is_none());
        // Second RTO doubles the deadline distance.
        let dl2 = s.next_deadline(dl).unwrap();
        s.on_timer(dl2);
        let dl3 = s.next_deadline(dl2).unwrap();
        assert!(dl3 - dl2 >= dl2 - dl, "exponential backoff");
    }

    #[test]
    fn newreno_partial_ack_repairs_next_hole() {
        let mut s = FlowSender::new(FlowId(1), 100 * MSS, cfg());
        while s.poll_segment(t(0)).is_some() {}
        // Packets 0 and 1 lost; dupacks arrive.
        for i in 0..3 {
            s.on_ack(t(100 + i), &ack(0, t(0)));
        }
        let seg = s.poll_segment(t(200)).unwrap();
        assert_eq!(seg.seq, 0);
        // Partial ACK: only packet 0 repaired, cum advances to MSS.
        s.on_ack(t(300), &ack(MSS, t(200)));
        let seg = s.poll_segment(t(300)).unwrap();
        assert_eq!(seg.seq, MSS, "hole at MSS retransmitted on partial ACK");
        assert!(seg.retransmit);
    }

    /// A Swift sender that sent its initial window of 10 at t(0) and
    /// whose ACKs come back 1 ms after they left: four cuts, one per RTT,
    /// halve its window to 0.625 MSS, and the ACK of the rest, half an RTT
    /// after the last cut, leaves it there with nothing in flight.
    fn swift_below_one_packet() -> FlowSender {
        let mut s = FlowSender::new(
            FlowId(1),
            20 * MSS,
            TransportConfig::default_for(CcKind::Swift),
        );
        while s.poll_segment(t(0)).is_some() {}
        for k in 1..=4 {
            s.on_ack(t(1000 * k), &ack(k * MSS, t(1000 * (k - 1))));
        }
        s.on_ack(t(4500), &ack(10 * MSS, t(3500)));
        assert_eq!((s.cwnd(), s.flight_bytes()), (0.625, 0));
        s
    }

    #[test]
    fn swift_sub_packet_window_paces() {
        let mut s = swift_below_one_packet();
        let seg = s.poll_segment(t(4500)).expect("nothing in flight");
        assert_eq!(seg.seq, 10 * MSS);
        assert!(
            s.poll_segment(t(4500)).is_none(),
            "only one packet in flight at cwnd<1"
        );
        // The send armed the pacer for srtt/cwnd = 1 ms/0.625 = 1.6 ms. Its
        // ACK, 500 µs on (above the 150 µs target), cuts the window again.
        s.on_ack(t(5000), &ack(11 * MSS, t(4500)));
        assert!(s.cwnd() < 1.0);
        assert!(
            s.poll_segment(t(5000)).is_none(),
            "pacer must hold until ~t(6100)"
        );
        let deadline = s.next_deadline(t(5000)).expect("pacing deadline");
        assert!(deadline >= t(6000), "pace gap too short: {deadline:?}");
        assert!(s.poll_segment(deadline).is_some());
    }

    #[test]
    fn snapshot_round_trip_mid_recovery() {
        use vertigo_simcore::{SnapReader, SnapWriter};
        // Drive a sender into the messiest reachable state: mid-recovery
        // with holes, dupacks, and an armed RTO — then snapshot, restore,
        // and check both machines behave identically from there on.
        let mut s = FlowSender::new(FlowId(1), 100 * MSS, cfg());
        while s.poll_segment(t(0)).is_some() {}
        for i in 0..3 {
            s.on_ack(t(100 + i), &ack(0, t(0)));
        }
        assert!(s.stats().fast_retransmits == 1);
        let mut w = SnapWriter::new();
        s.snap_save(&mut w);
        let bytes = w.into_bytes();
        let mut s2 =
            FlowSender::snap_restore(FlowId(1), cfg(), &mut SnapReader::new(&bytes)).unwrap();
        assert_eq!(s2.cwnd(), s.cwnd());
        assert_eq!(s2.flight_bytes(), s.flight_bytes());
        assert_eq!(s2.next_deadline(t(150)), s.next_deadline(t(150)));
        // Identical continuation: retransmission, partial ACK, new data.
        for now in [200u64, 300, 400] {
            assert_eq!(s.poll_segment(t(now)), s2.poll_segment(t(now)));
            let a = ack(MSS * (now / 100 - 1), t(now - 100));
            assert_eq!(s.on_ack(t(now + 50), &a), s2.on_ack(t(now + 50), &a));
        }
        assert_eq!(s.stats().segments_sent, s2.stats().segments_sent);
        assert_eq!(s.stats().retransmits, s2.stats().retransmits);
    }

    #[test]
    fn snapshot_round_trip_swift_pacing() {
        use vertigo_simcore::{SnapReader, SnapWriter};
        let mut s = swift_below_one_packet();
        s.poll_segment(t(4500)).unwrap();
        s.on_ack(t(5000), &ack(11 * MSS, t(4500)));
        let mut w = SnapWriter::new();
        s.snap_save(&mut w);
        let bytes = w.into_bytes();
        let c = TransportConfig::default_for(CcKind::Swift);
        let s2 = FlowSender::snap_restore(FlowId(1), c, &mut SnapReader::new(&bytes)).unwrap();
        // Pacing deadline (sub-packet window) survives the round trip.
        assert!(s.pacer_release(t(5001)).is_some());
        assert_eq!(s2.next_deadline(t(5001)), s.next_deadline(t(5001)));
        assert_eq!(s2.cwnd(), s.cwnd());
        assert_eq!(s2.srtt(), s.srtt());
    }

    fn saved(s: &FlowSender) -> Vec<u8> {
        let mut w = vertigo_simcore::SnapWriter::new();
        s.snap_save(&mut w);
        w.into_bytes()
    }

    fn restored(bytes: &[u8]) -> Result<FlowSender, vertigo_simcore::SnapError> {
        FlowSender::snap_restore(
            FlowId(1),
            cfg(),
            &mut vertigo_simcore::SnapReader::new(bytes),
        )
    }

    /// A sender record written field by field, so that a test can write
    /// what `snap_save` never would: a `size`-byte flow with a fresh
    /// controller and estimator, the sequence state, and the window from
    /// `front_seq` as its lost flags.
    fn record(size: u64, next_seq: u64, cum_acked: u64, front_seq: u64, flags: &[bool]) -> Vec<u8> {
        record_counting(size, next_seq, cum_acked, front_seq, flags.len(), flags)
    }

    /// [`record`] with a flag count of its own.
    fn record_counting(
        size: u64,
        next_seq: u64,
        cum_acked: u64,
        front_seq: u64,
        count: usize,
        flags: &[bool],
    ) -> Vec<u8> {
        use vertigo_simcore::Snapshot;
        let mut w = vertigo_simcore::SnapWriter::new();
        w.put_u64(size);
        Controller::new(cfg().cc).snap_save(&mut w);
        RtoEstimator::default().snap_save(&mut w);
        w.put_u64(next_seq);
        w.put_u64(cum_acked);
        w.put_u32(0); // dup_acks
        w.put_bool(false); // in_recovery
        w.put_u64(0); // recover_point
        w.put_u64(front_seq);
        w.put_usize(count);
        for &lost in flags {
            w.put_bool(lost);
        }
        Some(t(900)).save(&mut w); // rto_deadline
        SimTime::ZERO.save(&mut w); // pace_next
        for _ in 0..4 {
            w.put_u64(0); // stats
        }
        w.into_bytes()
    }

    #[test]
    fn restore_rejects_hostile_records() {
        // A valid record from the messiest reachable state: the front of
        // the window acknowledged away, a fast retransmit repaired by a
        // partial ACK, two holes marked, one of them resent.
        let mut s = FlowSender::new(FlowId(1), 12 * MSS + 100, cfg());
        while s.poll_segment(t(0)).is_some() {}
        s.on_ack(t(100), &ack(2 * MSS, t(0)));
        while s.poll_segment(t(100)).is_some() {}
        for i in 0..3 {
            s.on_ack(t(110 + i), &ack(2 * MSS, t(0)));
        }
        assert_eq!(s.poll_segment(t(120)).map(|g| g.seq), Some(2 * MSS));
        s.on_ack(t(200), &ack(4 * MSS, t(120)));
        assert_eq!((s.front_seq, s.lost), (4 * MSS, 1));
        let ok = saved(&s);
        let mut back = restored(&ok).unwrap();
        assert_eq!(back.flight_bytes(), s.flight_bytes());
        assert_eq!(saved(&back), ok, "byte for byte");
        // And it keeps running: the hole, then ACKs up to the short tail.
        for now in [210u64, 300, 400, 500] {
            assert_eq!(s.poll_segment(t(now)), back.poll_segment(t(now)));
            let a = ack((now / 100 + 3) * MSS, t(now - 90));
            assert_eq!(s.on_ack(t(now + 50), &a), back.on_ack(t(now + 50), &a));
        }
        assert_eq!(saved(&back), saved(&s));

        let size = 10 * MSS + 100;
        let window = [false, true, false];
        let good = record(size, 5 * MSS, 2 * MSS, 2 * MSS, &window);
        let mut back = restored(&good).unwrap();
        assert_eq!((back.lost, back.flight_bytes()), (1, 2 * MSS));
        assert_eq!(back.poll_segment(t(1)).map(|g| g.seq), Some(3 * MSS));
        let tail = record(size, size, 10 * MSS, 10 * MSS, &[false]);
        assert_eq!(restored(&tail).unwrap().flight_bytes(), 100);
        assert!(restored(&record(size, 5 * MSS, 5 * MSS, 5 * MSS, &[])).is_ok());
        for (what, bytes) in [
            (
                "front_seq off the grid",
                record(size, 5 * MSS, 2 * MSS, 2 * MSS + 1, &window),
            ),
            (
                "next_seq off the grid",
                record(size, 5 * MSS + 1, 2 * MSS, 2 * MSS, &window),
            ),
            (
                "front_seq past next_seq",
                record(size, 5 * MSS, 2 * MSS, 6 * MSS, &[]),
            ),
            (
                "a flag short of the window",
                record(size, 5 * MSS, 2 * MSS, 2 * MSS, &window[..2]),
            ),
            (
                "a flag past the window",
                record(size, 5 * MSS, 2 * MSS, 2 * MSS, &[false; 4]),
            ),
            (
                "a flag past the short tail",
                record(size, size, 9 * MSS, 9 * MSS, &[false; 3]),
            ),
            (
                "cum_acked > next_seq",
                record(size, 2 * MSS, 3 * MSS, 2 * MSS, &[]),
            ),
            (
                "next_seq > size",
                record(size, 11 * MSS, 0, 10 * MSS, &[false]),
            ),
            ("zero-byte flow", record(0, 0, 0, 0, &[])),
        ] {
            assert!(restored(&bytes).is_err(), "accepted: {what}");
        }
        // A count no input of this size could back.
        let huge = record_counting(size, 5 * MSS, 2 * MSS, 2 * MSS, usize::MAX, &window);
        assert!(restored(&huge).is_err(), "accepted: count beyond the input");
        // Truncated anywhere: in the controller, the window, the stats.
        for cut in 0..ok.len() {
            assert!(
                restored(&ok[..cut]).is_err(),
                "accepted {cut} of {} bytes",
                ok.len()
            );
        }
    }

    /// The window as `(seq, len, lost)`, front first.
    fn window(s: &FlowSender) -> Vec<(u64, u64, bool)> {
        let seqs = (0..).map(|i| s.front_seq + i * MSS);
        let segs = seqs.zip(&s.outstanding);
        segs.map(|(seq, &lost)| (seq, s.seg_len(seq), lost))
            .collect()
    }

    #[test]
    fn partial_ack_in_recovery_marks_the_hole_behind_a_moved_front() {
        let mut s = FlowSender::new(FlowId(1), 100 * MSS, cfg());
        while s.poll_segment(t(0)).is_some() {}
        // Three segments acknowledged: the front of the window is 3 MSS.
        s.on_ack(t(100), &ack(3 * MSS, t(0)));
        while s.poll_segment(t(100)).is_some() {}
        assert_eq!(s.front_seq, 3 * MSS);
        let sent = s.next_seq;
        for i in 0..3 {
            s.on_ack(t(110 + i), &ack(3 * MSS, t(0)));
        }
        assert_eq!(s.stats().fast_retransmits, 1);
        let flight = s.flight_bytes();
        let seg = s.poll_segment(t(120)).unwrap();
        assert_eq!((seg.seq, seg.retransmit), (3 * MSS, true));
        assert_eq!(s.flight_bytes(), flight + MSS);
        // Partial ACK two segments on: the next hole is 5 MSS, one entry
        // behind the new front, and nothing new is sent in recovery.
        s.on_ack(t(200), &ack(5 * MSS, t(120)));
        assert_eq!(
            window(&s)[..2],
            [(5 * MSS, MSS, true), (6 * MSS, MSS, false)]
        );
        let seg = s.poll_segment(t(200)).unwrap();
        assert_eq!((seg.seq, seg.retransmit), (5 * MSS, true));
        assert!(s.poll_segment(t(200)).is_none());
        // The full ACK ends recovery and new data follows what was sent.
        s.on_ack(t(300), &ack(sent, t(200)));
        assert!(window(&s).is_empty());
        assert_eq!((s.front_seq, s.flight_bytes()), (sent, 0));
        let seg = s.poll_segment(t(300)).unwrap();
        assert_eq!((seg.seq, seg.retransmit), (sent, false));
    }

    #[test]
    fn rto_marks_the_window_lost_and_resends_it_in_order() {
        let mut s = FlowSender::new(FlowId(1), 6 * MSS + 100, cfg());
        while s.poll_segment(t(0)).is_some() {}
        s.on_ack(t(100), &ack(2 * MSS, t(0)));
        // One hole already marked and resent before the timer fires.
        for i in 0..3 {
            s.on_ack(t(110 + i), &ack(2 * MSS, t(0)));
        }
        assert_eq!(s.poll_segment(t(120)).map(|g| g.seq), Some(2 * MSS));
        let dl = s.next_deadline(t(120)).unwrap();
        s.on_timer(dl);
        assert_eq!((s.stats().rtos, s.flight_bytes()), (1, 0));
        let lost: Vec<u64> = window(&s).iter().filter(|g| g.2).map(|g| g.0).collect();
        assert_eq!(lost, [2 * MSS, 3 * MSS, 4 * MSS, 5 * MSS, 6 * MSS]);
        assert_eq!(s.lost, 5);
        // ACKs let the rest out in sequence order, the short last segment
        // at its own length.
        let (mut now, mut resent) = (dl, Vec::new());
        while !s.is_complete() {
            let mut upto = None;
            while let Some(seg) = s.poll_segment(now) {
                assert!(seg.retransmit);
                resent.push((seg.seq, seg.payload as u64));
                upto = Some(seg.seq + seg.payload as u64);
            }
            let sent = now;
            now += SimDuration::from_micros(50);
            s.on_ack(now, &ack(upto.expect("every ACK opens the window"), sent));
        }
        let window = [(2, MSS), (3, MSS), (4, MSS), (5, MSS), (6, 100)];
        assert_eq!(resent, window.map(|(i, len)| (i * MSS, len)));
        assert_eq!(s.stats().retransmits, 6);
    }

    #[test]
    fn mid_segment_cum_ack_retires_the_segment_it_falls_in() {
        let mut s = FlowSender::new(FlowId(1), 100 * MSS, cfg());
        while s.poll_segment(t(0)).is_some() {}
        // 100 bytes into the second segment: both leave, as every segment
        // that starts below the ACK does.
        let o = s.on_ack(t(100), &ack(MSS + 100, t(0)));
        assert_eq!(o.newly_acked, MSS + 100);
        assert_eq!((s.front_seq, s.flight_bytes()), (2 * MSS, 8 * MSS));
        // No segment starts at the ACK point, so duplicates of it find
        // nothing to retransmit.
        for i in 0..5 {
            s.on_ack(t(110 + i), &ack(MSS + 100, t(0)));
        }
        assert_eq!(s.stats().fast_retransmits, 0);
        assert_eq!(s.lost, 0);
        // An aligned ACK point does.
        s.on_ack(t(200), &ack(2 * MSS, t(0)));
        for i in 0..3 {
            s.on_ack(t(210 + i), &ack(2 * MSS, t(0)));
        }
        assert_eq!(s.stats().fast_retransmits, 1);
        assert_eq!(s.poll_segment(t(220)).map(|g| g.seq), Some(2 * MSS));
    }

    /// `s`'s invariants after a call: `flight` is the bytes of the
    /// unflagged segments, `lost` counts the flags, and the record
    /// round-trips byte for byte.
    fn check_invariants(s: &FlowSender, c: TransportConfig) {
        let flagged = s.outstanding.iter().filter(|&&lost| lost).count();
        assert_eq!((s.flight, s.lost), (s.unflagged_bytes(), flagged), "{s:?}");
        let bytes = saved(s);
        let mut r = vertigo_simcore::SnapReader::new(&bytes);
        let back = FlowSender::snap_restore(s.flow, c, &mut r).expect("its own record");
        assert!(r.is_empty());
        assert_eq!(saved(&back), bytes, "{s:?}: the record round-trips");
        assert_eq!(back.flight, s.flight);
    }

    proptest::proptest! {
        /// Random schedules of polls, ACKs as a receiver sends them (on
        /// the grid, up to what was sent), duplicate ACKs and timeouts.
        #[test]
        fn flight_and_flags_agree_and_retransmit_lowest_first(
            size in 1u64..60 * MSS,
            kind in 0usize..3,
            fast_retransmit: bool,
            ops in proptest::collection::vec((0u8..4, 0u64..6), 1..120),
        ) {
            let cc = [CcKind::Reno, CcKind::Dctcp, CcKind::Swift][kind];
            let c = TransportConfig { cc, fast_retransmit };
            let mut s = FlowSender::new(FlowId(1), size, c);
            let mut now = t(0);
            for (op, x) in ops {
                let sent = now;
                now += SimDuration::from_micros(1 + 10 * x);
                match op {
                    0 => loop {
                        let lowest = s.outstanding.iter().position(|&lost| lost);
                        let Some(seg) = s.poll_segment(now) else { break };
                        if seg.retransmit {
                            let lowest = lowest.map(|i| s.front_seq + i as u64 * MSS);
                            proptest::prop_assert_eq!(Some(seg.seq), lowest);
                        }
                        check_invariants(&s, c);
                    },
                    1 => {
                        let cum = ((s.cum_acked / MSS + x) * MSS).min(s.next_seq);
                        s.on_ack(now, &ack(cum, sent));
                    }
                    2 => {
                        s.on_ack(now, &ack(s.cum_acked, sent));
                    }
                    _ => {
                        now = now.max(s.next_deadline(now).unwrap_or(now));
                        s.on_timer(now);
                    }
                }
                check_invariants(&s, c);
            }
        }
    }

    #[test]
    fn rtt_samples_update_srtt() {
        let mut s = FlowSender::new(FlowId(1), 10 * MSS, cfg());
        while s.poll_segment(t(0)).is_some() {}
        s.on_ack(t(150), &ack(MSS, t(0)));
        assert_eq!(s.srtt(), Some(SimDuration::from_micros(150)));
    }
}
