//! Simulation clock types.
//!
//! The simulator measures time in integer **nanoseconds** from the start of
//! the run. Two newtypes keep instants and durations from being confused:
//! [`SimTime`] is a point on the simulation clock, [`SimDuration`] is a span.
//! Both are `Copy`, total-ordered, and cheap to hash, which the event queue
//! relies on.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An instant on the simulation clock, in nanoseconds since time zero.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulation time, in nanoseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant; used as "never" for disarmed timers.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Constructs an instant from raw nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Constructs an instant from microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us * 1_000)
    }

    /// Constructs an instant from milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }

    /// Constructs an instant from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000_000)
    }

    /// Raw nanosecond count.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// This instant expressed in (possibly fractional) microseconds.
    #[inline]
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// This instant expressed in (possibly fractional) seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Span since an earlier instant. Saturates to zero if `earlier` is later,
    /// which keeps clock arithmetic total (useful for RTT math on reordered
    /// timestamps).
    #[inline]
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Checked addition; `None` on overflow.
    #[inline]
    pub fn checked_add(self, d: SimDuration) -> Option<SimTime> {
        self.0.checked_add(d.0).map(SimTime)
    }
}

impl SimDuration {
    /// Zero-length span.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The largest representable span.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Constructs a span from raw nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Constructs a span from microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * 1_000)
    }

    /// Constructs a span from milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    /// Constructs a span from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000_000)
    }

    /// Constructs a span from fractional seconds, rounding to the nearest
    /// nanosecond and saturating on overflow/negatives.
    #[inline]
    pub fn from_secs_f64(s: f64) -> Self {
        if !s.is_finite() || s <= 0.0 {
            return SimDuration::ZERO;
        }
        let ns = s * 1e9;
        if ns >= u64::MAX as f64 {
            SimDuration::MAX
        } else {
            SimDuration(ns.round() as u64)
        }
    }

    /// Raw nanosecond count.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// This span in (possibly fractional) microseconds.
    #[inline]
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// This span in (possibly fractional) seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Serialization delay of `bytes` at `rate_bps` bits per second,
    /// rounded up to a whole nanosecond so back-to-back packets never
    /// serialize in zero time.
    ///
    /// # Panics
    /// Panics if `rate_bps` is zero.
    #[inline]
    pub fn tx_time(bytes: u64, rate_bps: u64) -> Self {
        assert!(rate_bps > 0, "link rate must be positive");
        // bits * 1e9 / rate. The product fits a `u64` up to 2.3 GB, so a
        // packet never pays for the 128-bit division (a library call).
        match bytes.checked_mul(8 * 1_000_000_000) {
            Some(bit_ns) => SimDuration(bit_ns.div_ceil(rate_bps)),
            None => Self::tx_time_wide(bytes, rate_bps),
        }
    }

    /// [`SimDuration::tx_time`] in `u128`, for sizes whose bit count times
    /// 1e9 overflows a `u64`; saturates.
    fn tx_time_wide(bytes: u64, rate_bps: u64) -> Self {
        let ns = (bytes as u128 * 8 * 1_000_000_000).div_ceil(rate_bps as u128);
        SimDuration(ns.min(u64::MAX as u128) as u64)
    }

    /// The serialization time of one byte at `rate_bps` in picoseconds,
    /// when that is a whole number (the rate divides 8·10¹²: 10 Gb/s is
    /// 800 ps, 40 Gb/s 200). A link fixes it once, and every transmit is
    /// then [`SimDuration::tx_time_ps`], a multiply instead of a division.
    pub const fn ps_per_byte(rate_bps: u64) -> Option<u64> {
        const PS_PER_BYTE_AT_1_BPS: u64 = 8 * 1_000_000_000_000;
        match PS_PER_BYTE_AT_1_BPS.checked_rem(rate_bps) {
            Some(0) => Some(PS_PER_BYTE_AT_1_BPS / rate_bps),
            _ => None,
        }
    }

    /// `bytes` at `ps_per_byte` picoseconds each, rounded up to a whole
    /// nanosecond: [`SimDuration::tx_time`] at the rate whose
    /// [`SimDuration::ps_per_byte`] that is, with a division by the
    /// constant 1 000 in place of one by the rate. `None` when the
    /// picoseconds overflow a `u64`.
    #[inline]
    pub fn tx_time_ps(bytes: u64, ps_per_byte: u64) -> Option<Self> {
        Some(SimDuration(bytes.checked_mul(ps_per_byte)?.div_ceil(1_000)))
    }

    /// Multiplies the span by an integer factor, saturating.
    #[inline]
    pub fn saturating_mul(self, k: u64) -> Self {
        SimDuration(self.0.saturating_mul(k))
    }

    /// Scales the span by a float factor (used for RTO backoff and pacing).
    #[inline]
    pub fn mul_f64(self, k: f64) -> Self {
        SimDuration::from_secs_f64(self.as_secs_f64() * k)
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimDuration {
        debug_assert!(self >= rhs, "SimTime subtraction went negative");
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for SimDuration {
    #[inline]
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn mul(self, rhs: u64) -> SimDuration {
        self.saturating_mul(rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={}", fmt_ns(self.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&fmt_ns(self.0))
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&fmt_ns(self.0))
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&fmt_ns(self.0))
    }
}

/// Human-readable rendering with an auto-selected unit.
fn fmt_ns(ns: u64) -> String {
    if ns == u64::MAX {
        "∞".to_string()
    } else if ns >= 1_000_000_000 {
        format!("{:.3}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.3}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.3}µs", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(SimTime::from_secs(2).as_nanos(), 2_000_000_000);
        assert_eq!(SimTime::from_millis(3).as_nanos(), 3_000_000);
        assert_eq!(SimTime::from_micros(4).as_nanos(), 4_000);
        assert_eq!(SimDuration::from_secs(1), SimDuration::from_millis(1000));
    }

    #[test]
    fn arithmetic_roundtrips() {
        let t = SimTime::from_micros(10);
        let d = SimDuration::from_micros(3);
        assert_eq!((t + d) - t, d);
        assert_eq!(t + SimDuration::ZERO, t);
    }

    #[test]
    fn saturating_since_is_total() {
        let a = SimTime::from_nanos(5);
        let b = SimTime::from_nanos(9);
        assert_eq!(b.saturating_since(a).as_nanos(), 4);
        assert_eq!(a.saturating_since(b), SimDuration::ZERO);
    }

    #[test]
    fn tx_time_matches_hand_math() {
        // 1500 bytes at 10 Gbps = 1.2 µs.
        assert_eq!(
            SimDuration::tx_time(1500, 10_000_000_000),
            SimDuration::from_nanos(1200)
        );
        // 64 bytes at 40 Gbps = 12.8 ns, rounded up to 13.
        assert_eq!(
            SimDuration::tx_time(64, 40_000_000_000),
            SimDuration::from_nanos(13)
        );
        // Rounding up: 1 byte at 1 Tbps is 0.008 ns -> 1 ns.
        assert_eq!(
            SimDuration::tx_time(1, 1_000_000_000_000),
            SimDuration::from_nanos(1)
        );
    }

    #[test]
    fn tx_time_narrow_and_wide_forms_agree() {
        const G: u64 = 1_000_000_000;
        // Every rate a topology builder uses (10 and 40 G) is among these,
        // and each has a whole number of picoseconds per byte.
        let rates = [1, 10, 25, 40, 100, 400, 1000].map(|g| g * G);
        // Three rates that do not divide 8e9, so the rounding is exercised;
        // nor do they divide 8e12, so they have no constant.
        let odd = [7 * G, 9_999_999_937, 1_234_567];
        for rate in rates.into_iter().chain(odd) {
            let ps = SimDuration::ps_per_byte(rate);
            assert_eq!(ps.is_some(), !odd.contains(&rate), "{rate} bps");
            for bytes in 1..=9_216 {
                let t = SimDuration::tx_time(bytes, rate);
                assert_eq!(t, SimDuration::tx_time_wide(bytes, rate));
                if let Some(ps) = ps {
                    let fixed = SimDuration::tx_time_ps(bytes, ps);
                    assert_eq!(fixed, Some(t), "{bytes} B at {rate} bps");
                }
            }
        }
        assert_eq!(SimDuration::ps_per_byte(10 * G), Some(800));
        assert_eq!(SimDuration::ps_per_byte(40 * G), Some(200));
        assert_eq!(SimDuration::ps_per_byte(0), None);
        // Rates above 8e12 b/s serialize a byte in under a picosecond.
        assert_eq!(SimDuration::ps_per_byte(16_000 * G), None);
        // Past the u64 range of bits * 1e9 the wide form takes over.
        let huge = u64::MAX / (8 * G) + 1;
        assert!(huge.checked_mul(8 * G).is_none());
        assert_eq!(
            SimDuration::tx_time(huge, 10 * G).as_nanos(),
            (huge as u128 * 8 * G as u128).div_ceil(10 * G as u128) as u64
        );
        assert_eq!(SimDuration::tx_time(u64::MAX, 1), SimDuration::MAX);
        // And past the u64 range of picoseconds the constant gives up at
        // the first size that overflows, where the division still answers.
        let ps = SimDuration::ps_per_byte(10 * G).unwrap();
        let edge = u64::MAX / ps;
        assert_eq!(
            SimDuration::tx_time_ps(edge, ps),
            Some(SimDuration::tx_time(edge, 10 * G))
        );
        assert_eq!(SimDuration::tx_time_ps(edge + 1, ps), None);
    }

    #[test]
    #[should_panic(expected = "rate")]
    fn tx_time_rejects_zero_rate() {
        let _ = SimDuration::tx_time(100, 0);
    }

    #[test]
    fn from_secs_f64_edges() {
        assert_eq!(SimDuration::from_secs_f64(-1.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::NAN), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(1e30), SimDuration::MAX);
        assert_eq!(
            SimDuration::from_secs_f64(0.000_001),
            SimDuration::from_micros(1)
        );
    }

    #[test]
    fn mul_div() {
        let d = SimDuration::from_micros(10);
        assert_eq!(d * 3, SimDuration::from_micros(30));
        assert_eq!(d / 2, SimDuration::from_micros(5));
        assert_eq!(d.mul_f64(0.5), SimDuration::from_micros(5));
    }

    #[test]
    fn display_units() {
        assert_eq!(SimDuration::from_nanos(5).to_string(), "5ns");
        assert_eq!(SimDuration::from_micros(5).to_string(), "5.000µs");
        assert_eq!(SimDuration::from_millis(5).to_string(), "5.000ms");
        assert_eq!(SimDuration::from_secs(5).to_string(), "5.000s");
    }
}
