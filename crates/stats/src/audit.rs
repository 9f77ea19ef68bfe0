//! Conservation-audit tallies.
//!
//! [`AuditHooks`] rides inside [`crate::Recorder`] so every component that
//! already reports metrics can also report packet custody transitions:
//!
//! * **created** — a host materialized a packet and handed it to its NIC
//!   queue (`Host::enqueue_nic` is the single creation site for both data
//!   and ACK packets);
//! * **wire** — packets currently serialized onto a link, i.e. carried by a
//!   pending `Arrive` event (`+1` when a node starts transmitting, `-1`
//!   when the driver pops the `Arrive`);
//! * **consumed** — a destination host accepted the packet
//!   (`Host::on_arrive`); packets parked in the RX ordering buffer count
//!   as consumed.
//!
//! The tallies count in every build and ride in every checkpoint, so a
//! run resumed by any build carries its custody books. In debug-assertion
//! builds the simulation driver closes the loop: at every telemetry
//! sample and at the end of every run it checks
//!
//! ```text
//! created == consumed + drops(all causes) + wire + nic_queued + switch_queued
//! ```
//!
//! and panics with a precise per-term diff on violation. The hooks
//! observe; they never perturb.

/// Whether this build runs the conservation checks: the debug-assertion
/// builds do, release builds do not. Only the benchmark's result header
/// (`perfbench/`) still reads it.
pub const AUDIT_AVAILABLE: bool = cfg!(debug_assertions);

/// Packet-custody counters for the conservation audit.
#[derive(Debug, Default)]
pub struct AuditHooks {
    /// Packets created by hosts (data + ACKs), counted at NIC enqueue.
    pub created: u64,
    /// Packets accepted by a destination host.
    pub consumed: u64,
    /// Packets currently in flight on a link (pending `Arrive` events).
    pub wire: u64,
    /// Invariant evaluations performed so far.
    pub checks: u64,
}

impl AuditHooks {
    /// Fresh, all-zero tallies.
    pub fn new() -> Self {
        AuditHooks::default()
    }

    /// A host created a packet and enqueued it on its NIC.
    #[inline]
    pub fn on_packet_created(&mut self) {
        self.created += 1;
    }

    /// A node began serializing a packet onto a link (an `Arrive` event
    /// is now pending for it).
    #[inline]
    pub fn on_wire_tx(&mut self) {
        self.wire += 1;
    }

    /// The driver popped an `Arrive` event: the packet left the wire.
    #[inline]
    pub fn on_wire_rx(&mut self) {
        debug_assert!(
            self.wire > 0,
            "audit: wire count underflow (Arrive popped with no matching tx)"
        );
        self.wire -= 1;
    }

    /// Hands `n` in-flight packets from this tally to `to` (a domain
    /// engine's cross-domain delivery: the sender counted the tx).
    #[inline]
    pub fn hand_over_wire(&mut self, to: &mut AuditHooks, n: u64) {
        debug_assert!(
            self.wire >= n,
            "audit: wire count underflow (handed over more than was sent)"
        );
        self.wire -= n;
        to.wire += n;
    }

    /// A destination host accepted a packet.
    #[inline]
    pub fn on_host_consumed(&mut self) {
        self.consumed += 1;
    }

    /// Records one invariant evaluation.
    #[inline]
    pub fn on_check(&mut self) {
        self.checks += 1;
    }

    /// Serializes the tallies.
    pub fn snap_save(&self, w: &mut vertigo_simcore::SnapWriter) {
        w.put_u64(self.created);
        w.put_u64(self.consumed);
        w.put_u64(self.wire);
        w.put_u64(self.checks);
    }

    /// Restores tallies written by [`AuditHooks::snap_save`].
    pub fn snap_restore(
        &mut self,
        r: &mut vertigo_simcore::SnapReader<'_>,
    ) -> Result<(), vertigo_simcore::SnapError> {
        self.created = r.get_u64()?;
        self.consumed = r.get_u64()?;
        self.wire = r.get_u64()?;
        self.checks = r.get_u64()?;
        Ok(())
    }

    /// Adds another recorder's custody tallies into this one (domain-
    /// engine merge).
    pub fn absorb(&mut self, other: &AuditHooks) {
        self.created += other.created;
        self.consumed += other.consumed;
        self.wire += other.wire;
        self.checks += other.checks;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vertigo_simcore::{SnapReader, SnapWriter};

    #[test]
    fn custody_tallies_accumulate() {
        let mut a = AuditHooks::new();
        a.on_packet_created();
        a.on_packet_created();
        a.on_wire_tx();
        a.on_wire_rx();
        a.on_host_consumed();
        a.on_check();
        assert_eq!(a.created, 2);
        assert_eq!(a.wire, 0);
        assert_eq!(a.consumed, 1);
        assert_eq!(a.checks, 1);
    }

    #[test]
    #[should_panic(expected = "wire count underflow")]
    fn wire_underflow_is_caught() {
        let mut a = AuditHooks::new();
        a.on_wire_rx();
    }

    #[test]
    fn wire_hand_over_moves_custody() {
        let (mut from, mut to) = (AuditHooks::new(), AuditHooks::new());
        for _ in 0..3 {
            from.on_wire_tx();
        }
        from.hand_over_wire(&mut to, 2);
        assert_eq!((from.wire, to.wire), (1, 2));
    }

    #[test]
    fn tallies_round_trip_exactly() {
        let a = AuditHooks {
            created: u64::MAX,
            consumed: 1 << 40,
            wire: 7,
            checks: 3,
        };
        let mut w = SnapWriter::new();
        a.snap_save(&mut w);
        let bytes = w.into_bytes();
        assert_eq!(bytes.len(), 32, "four u64s");
        let mut r = SnapReader::new(&bytes);
        let mut b = AuditHooks::new();
        b.snap_restore(&mut r).unwrap();
        assert_eq!(r.remaining(), 0);
        assert_eq!(
            (b.created, b.consumed, b.wire, b.checks),
            (a.created, a.consumed, a.wire, a.checks)
        );
        // A truncated record is an error, not a panic.
        assert!(AuditHooks::new()
            .snap_restore(&mut SnapReader::new(&bytes[..31]))
            .is_err());
    }
}
