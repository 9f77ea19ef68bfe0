//! Snapshot (checkpoint/resume) primitives: the VSNP binary codec.
//!
//! A snapshot is a flat little-endian byte stream. [`SnapWriter`] and
//! [`SnapReader`] are the only (de)serialization surface — no derive
//! machinery, no external crates — and [`Snapshot`] is the trait every
//! stateful component implements to round-trip through them.
//!
//! ## Determinism contract
//!
//! Restoring a snapshot must reproduce the *observable* state of the
//! component bit-for-bit: a resumed simulation produces byte-identical
//! output to the uninterrupted run. Floating-point state is therefore
//! stored as raw IEEE-754 bits ([`SnapWriter::put_f64`]), never via a
//! decimal round-trip, and hash-map-backed state is serialized in sorted
//! key order so the byte stream itself is deterministic.
//!
//! The framing (magic, version, spec hash, time) lives with the writer of
//! the *file*, not here: this module is the codec for component payloads
//! plus the shared header constants ([`SNAP_MAGIC`], [`SNAP_VERSION`]).
//! Mismatches are reported through [`SnapError`], which callers surface
//! as loud, actionable errors.

use crate::time::{SimDuration, SimTime};

/// The four magic bytes opening every snapshot file.
pub const SNAP_MAGIC: [u8; 4] = *b"VSNP";

/// On-disk format version. Bump on any incompatible layout change; the
/// reader refuses mismatched versions with an actionable error.
/// Version 2: the cuckoo filter writes its occupied buckets only.
/// Version 3: the PIEO record is `(rank, item)` in queue order, with no
/// per-element sequence number and no counter.
/// Version 4: the host record lists its finished flows after its receivers.
/// Version 5: the header drops its feature flags and backend byte, and the
/// payload's audit tallies and trace armed byte are written by every build.
pub const SNAP_VERSION: u16 = 5;

/// Every build checkpoints and resumes; only the benchmark's result
/// header (`perfbench/`) still reads this.
pub const SNAPSHOT_AVAILABLE: bool = true;

/// A snapshot decoding failure: truncated stream, bad tag, or a
/// version or spec mismatch detected by a higher layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapError {
    msg: String,
}

impl SnapError {
    /// Creates an error with the given message.
    pub fn new(msg: impl Into<String>) -> Self {
        SnapError { msg: msg.into() }
    }
}

impl std::fmt::Display for SnapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "snapshot error: {}", self.msg)
    }
}

impl std::error::Error for SnapError {}

/// Accepts `key`, read from a list its writer saves in strictly ascending
/// order, when it lies above `last`, the key read before it, and makes it
/// `last`. A key named twice or out of order is no writer's, and a reader
/// that files keys in a map would silently keep one of two equal keys.
pub fn strictly_ascending<K: Ord + Copy + std::fmt::Debug>(
    last: &mut Option<K>,
    key: K,
    what: &str,
) -> Result<K, SnapError> {
    if let Some(prev) = last.filter(|&prev| prev >= key) {
        return Err(SnapError::new(format!(
            "{what} {key:?} after {prev:?}: keys must strictly ascend"
        )));
    }
    *last = Some(key);
    Ok(key)
}

/// Append-only little-endian byte-stream writer for snapshot payloads.
#[derive(Debug, Default)]
pub struct SnapWriter {
    buf: Vec<u8>,
}

impl SnapWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        SnapWriter { buf: Vec::new() }
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consumes the writer, yielding the byte stream.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u16`.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `usize` as a `u64` (snapshots are cross-width).
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Appends a bool as one byte (0 or 1).
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(v as u8);
    }

    /// Appends an `f64` as its raw IEEE-754 bits — exact for every value
    /// including infinities (e.g. Reno's initial ssthresh) and NaN.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends raw bytes verbatim (caller frames the length).
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }
}

/// Cursor over a snapshot byte stream; every getter checks bounds and
/// returns [`SnapError`] on truncation.
#[derive(Debug)]
pub struct SnapReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SnapReader<'a> {
    /// Wraps a byte stream for reading from the start.
    pub fn new(buf: &'a [u8]) -> Self {
        SnapReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether the stream is fully consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Takes `n` raw bytes.
    pub fn get_bytes(&mut self, n: usize) -> Result<&'a [u8], SnapError> {
        if self.remaining() < n {
            return Err(SnapError::new(format!(
                "truncated snapshot: wanted {n} bytes at offset {}, {} left",
                self.pos,
                self.remaining()
            )));
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads one byte.
    pub fn get_u8(&mut self) -> Result<u8, SnapError> {
        Ok(self.get_bytes(1)?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn get_u16(&mut self) -> Result<u16, SnapError> {
        let b = self.get_bytes(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    /// Reads a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32, SnapError> {
        let b = self.get_bytes(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64, SnapError> {
        let b = self.get_bytes(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads a `usize` stored as `u64`.
    pub fn get_usize(&mut self) -> Result<usize, SnapError> {
        let v = self.get_u64()?;
        usize::try_from(v).map_err(|_| SnapError::new(format!("length {v} overflows usize")))
    }

    /// Reads a bool; any byte other than 0/1 is corruption.
    pub fn get_bool(&mut self) -> Result<bool, SnapError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(SnapError::new(format!("invalid bool byte {b:#x}"))),
        }
    }

    /// Reads an `f64` from its raw IEEE-754 bits.
    pub fn get_f64(&mut self) -> Result<f64, SnapError> {
        Ok(f64::from_bits(self.get_u64()?))
    }
}

/// Exact state capture and restoration for one component.
///
/// `restore` must be the exact inverse of `save`: for every reachable
/// state `s`, `restore(save(s)) == s` in all observable behavior. The
/// proptest suites assert this for the hairiest implementors (timing
/// wheel, PIEO ring, `SimRng`).
pub trait Snapshot: Sized {
    /// Serializes this component's full state.
    fn save(&self, w: &mut SnapWriter);
    /// Reconstructs the component from a stream produced by [`Snapshot::save`].
    fn restore(r: &mut SnapReader<'_>) -> Result<Self, SnapError>;
}

impl Snapshot for u8 {
    fn save(&self, w: &mut SnapWriter) {
        w.put_u8(*self);
    }
    fn restore(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        r.get_u8()
    }
}

impl Snapshot for u16 {
    fn save(&self, w: &mut SnapWriter) {
        w.put_u16(*self);
    }
    fn restore(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        r.get_u16()
    }
}

impl Snapshot for u32 {
    fn save(&self, w: &mut SnapWriter) {
        w.put_u32(*self);
    }
    fn restore(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        r.get_u32()
    }
}

impl Snapshot for u64 {
    fn save(&self, w: &mut SnapWriter) {
        w.put_u64(*self);
    }
    fn restore(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        r.get_u64()
    }
}

impl Snapshot for usize {
    fn save(&self, w: &mut SnapWriter) {
        w.put_usize(*self);
    }
    fn restore(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        r.get_usize()
    }
}

impl Snapshot for bool {
    fn save(&self, w: &mut SnapWriter) {
        w.put_bool(*self);
    }
    fn restore(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        r.get_bool()
    }
}

impl Snapshot for f64 {
    fn save(&self, w: &mut SnapWriter) {
        w.put_f64(*self);
    }
    fn restore(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        r.get_f64()
    }
}

impl Snapshot for SimTime {
    fn save(&self, w: &mut SnapWriter) {
        w.put_u64(self.as_nanos());
    }
    fn restore(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(SimTime::from_nanos(r.get_u64()?))
    }
}

impl Snapshot for SimDuration {
    fn save(&self, w: &mut SnapWriter) {
        w.put_u64(self.as_nanos());
    }
    fn restore(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(SimDuration::from_nanos(r.get_u64()?))
    }
}

impl<T: Snapshot> Snapshot for Option<T> {
    fn save(&self, w: &mut SnapWriter) {
        match self {
            None => w.put_u8(0),
            Some(v) => {
                w.put_u8(1);
                v.save(w);
            }
        }
    }
    fn restore(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        match r.get_u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::restore(r)?)),
            b => Err(SnapError::new(format!("invalid Option tag {b:#x}"))),
        }
    }
}

impl<T: Snapshot> Snapshot for Vec<T> {
    fn save(&self, w: &mut SnapWriter) {
        w.put_usize(self.len());
        for v in self {
            v.save(w);
        }
    }
    fn restore(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let n = r.get_usize()?;
        // Guard against a corrupt length causing an OOM allocation: the
        // remaining stream is a hard upper bound (each element >= 1 byte).
        if n > r.remaining() {
            return Err(SnapError::new(format!(
                "corrupt Vec length {n} exceeds {} remaining bytes",
                r.remaining()
            )));
        }
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(T::restore(r)?);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut w = SnapWriter::new();
        w.put_u8(0xAB);
        w.put_u16(0xCDEF);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX - 7);
        w.put_bool(true);
        w.put_bool(false);
        w.put_f64(f64::INFINITY);
        w.put_f64(-0.0);
        w.put_f64(1.5e-300);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 0xAB);
        assert_eq!(r.get_u16().unwrap(), 0xCDEF);
        assert_eq!(r.get_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64().unwrap(), u64::MAX - 7);
        assert!(r.get_bool().unwrap());
        assert!(!r.get_bool().unwrap());
        assert_eq!(r.get_f64().unwrap(), f64::INFINITY);
        assert_eq!(r.get_f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(r.get_f64().unwrap(), 1.5e-300);
        assert!(r.is_empty());
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let bytes = [1u8, 2, 3];
        let mut r = SnapReader::new(&bytes);
        assert!(r.get_u64().is_err());
        // The failed read consumed nothing.
        assert_eq!(r.remaining(), 3);
        assert_eq!(r.get_u8().unwrap(), 1);
    }

    #[test]
    fn invalid_bool_is_corruption() {
        let bytes = [7u8];
        let mut r = SnapReader::new(&bytes);
        assert!(r.get_bool().is_err());
    }

    #[test]
    fn option_and_vec_round_trip() {
        let v: Vec<Option<u64>> = vec![Some(3), None, Some(u64::MAX)];
        let mut w = SnapWriter::new();
        v.save(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert_eq!(Vec::<Option<u64>>::restore(&mut r).unwrap(), v);
        assert!(r.is_empty());
    }

    #[test]
    fn corrupt_vec_length_is_rejected() {
        let mut w = SnapWriter::new();
        w.put_u64(u64::MAX); // absurd element count
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert!(Vec::<u8>::restore(&mut r).is_err());
    }

    #[test]
    fn times_round_trip() {
        let mut w = SnapWriter::new();
        SimTime::from_nanos(123_456_789).save(&mut w);
        SimDuration::from_nanos(u64::MAX).save(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert_eq!(
            SimTime::restore(&mut r).unwrap(),
            SimTime::from_nanos(123_456_789)
        );
        assert_eq!(
            SimDuration::restore(&mut r).unwrap(),
            SimDuration::from_nanos(u64::MAX)
        );
    }
}
