//! The VTRC reader on hostile input: a real trace (the committed
//! fault-window golden) truncated, bit-flipped, or with its header
//! rewritten. `parse_trace` never panics; it returns the records or an
//! `Err`, and it refuses whatever the header and body disagree on: a short
//! header, bad magic, a foreign version, a `records` count that is not the
//! body's. The record count it allocates for is the body's, so a count of
//! `u64::MAX` is refused rather than reserved for.

use proptest::prelude::*;
use vertigo_stats::trace::TRACE_VERSION;
use vertigo_stats::{parse_trace, TRACE_HEADER_BYTES, TRACE_RECORD_BYTES};

const GOLDEN: &[u8] = include_bytes!("../../../tests/golden/fault_window.vtrace");

/// Byte ranges of the header fields the reader checks.
const MAGIC: std::ops::Range<usize> = 0..4;
const VERSION: std::ops::Range<usize> = 4..6;
const RECORDS: std::ops::Range<usize> = 8..16;

fn records_in_golden() -> usize {
    (GOLDEN.len() - TRACE_HEADER_BYTES) / TRACE_RECORD_BYTES
}

fn with_records(count: u64) -> Vec<u8> {
    let mut bytes = GOLDEN.to_vec();
    bytes[RECORDS].copy_from_slice(&count.to_le_bytes());
    bytes
}

#[test]
fn the_golden_parses() {
    let (header, records) = parse_trace(GOLDEN).expect("the golden is well-formed");
    assert_eq!(header.version, TRACE_VERSION);
    assert_eq!(records.len(), records_in_golden());
    assert_eq!(header.records, records.len() as u64);
    assert!(!records.is_empty());
}

#[test]
fn every_short_header_is_refused() {
    for cut in 0..TRACE_HEADER_BYTES {
        assert!(parse_trace(&GOLDEN[..cut]).is_err(), "accepted {cut} bytes");
    }
}

#[test]
fn bad_magic_is_refused() {
    let mut bytes = GOLDEN.to_vec();
    bytes[MAGIC].copy_from_slice(b"VSNP");
    let err = parse_trace(&bytes).expect_err("not a trace");
    assert!(err.contains("magic"), "{err}");
}

#[test]
fn a_records_count_past_the_body_is_refused() {
    let n = records_in_golden() as u64;
    for count in [
        0,
        n - 1,
        n + 1,
        1 << 40,
        u64::MAX / 48,
        u64::MAX - 1,
        u64::MAX,
    ] {
        let err = parse_trace(&with_records(count)).expect_err("count disagrees with body");
        assert!(err.contains("records"), "{count}: {err}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// Any cut short of the whole file is refused: the body stops being a
    /// whole number of records or stops matching the header's count.
    #[test]
    fn truncation_is_refused(cut in 0usize..GOLDEN.len()) {
        prop_assert!(parse_trace(&GOLDEN[..cut]).is_err(), "accepted {} of {} bytes", cut, GOLDEN.len());
    }

    /// Flipped bits never panic the reader. Flips in the magic, version or
    /// record count are refused; anywhere else (reserved bytes, the
    /// overwritten count, record payloads) the file still parses, to as
    /// many records as before. Half the flips land in the header.
    #[test]
    fn bit_flips_never_panic(
        flips in proptest::collection::vec(
            (prop_oneof![0..TRACE_HEADER_BYTES, 0..GOLDEN.len()], 0u8..8),
            1..8,
        )
    ) {
        let mut bytes = GOLDEN.to_vec();
        for &(at, bit) in &flips {
            bytes[at] ^= 1 << bit;
        }
        let checked = [MAGIC, VERSION, RECORDS];
        let header_hit = checked.into_iter().any(|r| bytes[r.clone()] != GOLDEN[r]);
        match parse_trace(&bytes) {
            Ok((_, records)) => {
                prop_assert!(!header_hit, "accepted a corrupted header: {:?}", &bytes[..TRACE_HEADER_BYTES]);
                prop_assert_eq!(records.len(), records_in_golden());
            }
            Err(_) => prop_assert!(header_hit, "refused a file whose checked header is intact"),
        }
    }

    /// Any `records` count but the body's is refused, however large.
    #[test]
    fn a_rewritten_records_count_is_refused(count: u64, shift in 0u32..64) {
        let count = count >> shift;
        prop_assume!(count != records_in_golden() as u64);
        prop_assert!(parse_trace(&with_records(count)).is_err(), "accepted records = {}", count);
    }

    /// Any version but the current one is refused.
    #[test]
    fn a_foreign_version_is_refused(version: u16) {
        prop_assume!(version != TRACE_VERSION);
        let mut bytes = GOLDEN.to_vec();
        bytes[VERSION].copy_from_slice(&version.to_le_bytes());
        let err = parse_trace(&bytes).expect_err("foreign version");
        prop_assert!(err.contains("version"), "{}", err);
    }

    /// A truncated body under a header claiming up to `u64::MAX` records
    /// is refused, never reserved for.
    #[test]
    fn a_huge_count_over_a_short_body_is_refused(cut in TRACE_HEADER_BYTES..GOLDEN.len(), count: u64) {
        let bytes = with_records(count | 1 << 63);
        prop_assert!(parse_trace(&bytes[..cut]).is_err());
    }
}
