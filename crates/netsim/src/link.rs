//! Link parameters.

use vertigo_simcore::{SimDuration, SimTime};

/// Physical characteristics of one (full-duplex) link.
///
/// The serialization time of a byte is fixed at construction when it is a
/// whole number of picoseconds — every rate the topology builders use
/// (10 Gb/s → 800 ps, 40 Gb/s → 200 ps) — so a transmit multiplies instead
/// of dividing by the rate. The fields are private so that the constant can
/// never disagree with the rate it was computed from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkParams {
    rate_bps: u64,
    prop_delay: SimDuration,
    /// [`SimDuration::ps_per_byte`] of `rate_bps`, 0 where it has none.
    ps_per_byte: u64,
}

impl LinkParams {
    /// A link of `rate_bps` bits per second and the given one-way
    /// propagation delay.
    pub fn new(rate_bps: u64, prop_delay: SimDuration) -> Self {
        LinkParams {
            rate_bps,
            prop_delay,
            ps_per_byte: SimDuration::ps_per_byte(rate_bps).unwrap_or(0),
        }
    }

    /// A link with the given gigabit rate and propagation delay in
    /// nanoseconds — the common construction in topology builders.
    pub fn gbps(gbit: u64, prop_ns: u64) -> Self {
        Self::new(gbit * 1_000_000_000, SimDuration::from_nanos(prop_ns))
    }

    /// Line rate in bits per second.
    #[inline]
    pub fn rate_bps(&self) -> u64 {
        self.rate_bps
    }

    /// One-way propagation delay.
    #[inline]
    pub fn prop_delay(&self) -> SimDuration {
        self.prop_delay
    }

    /// Serialization time of `bytes` on this link: [`SimDuration::tx_time`]
    /// exactly, computed without a division by the rate where the rate
    /// allows it.
    #[inline]
    pub fn tx_time(&self, bytes: u32) -> SimDuration {
        match SimDuration::tx_time_ps(bytes as u64, self.ps_per_byte) {
            Some(t) if self.ps_per_byte != 0 => t,
            _ => self.tx_time_by_rate(bytes),
        }
    }

    /// A rate that is not a whole number of picoseconds per byte.
    #[cold]
    #[inline(never)]
    fn tx_time_by_rate(&self, bytes: u32) -> SimDuration {
        SimDuration::tx_time(bytes as u64, self.rate_bps)
    }

    /// Total wire occupancy of a packet: serialization plus propagation.
    /// This is the delay from TX start to the peer's `Arrive` event.
    pub fn wire_time(&self, bytes: u32) -> SimDuration {
        self.tx_time(bytes) + self.prop_delay
    }

    /// When the last byte of a packet sent at `start` arrives at the peer
    /// (store-and-forward: serialization plus propagation).
    pub fn arrival_at(&self, start: SimTime, bytes: u32) -> SimTime {
        start + self.wire_time(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timings() {
        let l = LinkParams::gbps(10, 500);
        assert_eq!(l.tx_time(1500), SimDuration::from_nanos(1200));
        assert_eq!(l.wire_time(1500), SimDuration::from_nanos(1700));
        let t0 = SimTime::from_micros(1);
        assert_eq!(
            l.arrival_at(t0, 1500),
            SimTime::from_nanos(1_000 + 1_200 + 500)
        );

        // With or without the constant, the time is the division by the
        // rate: the builders' rates, three without a whole constant, and two
        // slow ones on either side of where a u32 size's picoseconds stop
        // fitting a u64 (at 2 000 b/s they all fit; at 1 000 the largest
        // sizes overflow and take the division).
        const G: u64 = 1_000_000_000;
        let prop = SimDuration::from_nanos(500);
        let rates = [
            10 * G,
            40 * G,
            7 * G,
            9_999_999_937,
            1_234_567,
            2_000,
            1_000,
        ];
        for rate in rates {
            let l = LinkParams::new(rate, prop);
            assert_eq!((l.rate_bps(), l.prop_delay()), (rate, prop));
            for bytes in [1, 64, 1500, 9_216, u32::MAX / 2, u32::MAX] {
                let oracle = SimDuration::tx_time(bytes as u64, rate);
                assert_eq!(l.tx_time(bytes), oracle, "{bytes} B at {rate} bps");
            }
        }
        assert_eq!(LinkParams::gbps(10, 500).ps_per_byte, 800);
        assert_eq!(LinkParams::gbps(40, 500).ps_per_byte, 200);
        assert_eq!(LinkParams::gbps(7, 500).ps_per_byte, 0);
    }
}
