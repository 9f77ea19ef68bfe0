//! The pieces every spec grammar a user types shares: `--faults`
//! ([`crate::faults`]), `--trace` ([`crate::trace`]) and, in the workload
//! crate, `--workload` and `--checkpoint-every`. How a `k=v` list, a
//! `from-until` window, a time literal and a size literal read — and how
//! the last two print — is decided here, once; each grammar states only
//! its own keys, their types, and which kinds take which keys.

use std::str::FromStr;
use vertigo_simcore::{SimDuration, SimTime};

/// Time units, largest first, in nanoseconds.
const TIME_UNITS: [(&str, u64); 4] = [
    ("s", 1_000_000_000),
    ("ms", 1_000_000),
    ("us", 1_000),
    ("ns", 1),
];

/// Size suffixes, largest first, in bytes: decimal, matching the paper's
/// 40 KB = 40 000; the empty suffix is plain bytes.
const SIZE_UNITS: [(&str, u64); 4] = [
    ("g", 1_000_000_000),
    ("m", 1_000_000),
    ("k", 1_000),
    ("", 1),
];

/// `num` times `scale`, rounded to a whole count of `unit`: the tail of
/// both literal parsers. `what` and `s` name the literal in refusals.
fn scaled(what: &str, s: &str, num: &str, scale: u64, unit: &str) -> Result<u64, String> {
    let v: f64 = num
        .parse()
        .map_err(|_| format!("{what} `{s}`: bad number `{num}`"))?;
    if !(v.is_finite() && v >= 0.0) {
        return Err(format!("{what} `{s}`: must be finite and non-negative"));
    }
    let x = v * scale as f64;
    // `as u64` saturates, and `SimTime::MAX` means "never".
    if x >= u64::MAX as f64 {
        return Err(format!("{what} `{s}`: does not fit 64-bit {unit}"));
    }
    Ok(x.round() as u64)
}

/// `n` in the largest unit of `units` that divides it evenly.
fn fmt_units(n: u64, units: &[(&str, u64)]) -> String {
    let (suffix, k) = units
        .iter()
        .find(|&&(_, k)| n.is_multiple_of(k) && (n > 0 || k == 1))
        .expect("the last unit is 1");
    format!("{}{suffix}", n / k)
}

/// Parses a time literal: a non-negative decimal number and a unit, `ns`,
/// `us`, `ms` or `s` (`360us`, `2.5ms`).
pub fn parse_time(s: &str) -> Result<SimTime, String> {
    let split = s
        .find(|c: char| c.is_ascii_alphabetic())
        .ok_or_else(|| format!("time `{s}`: missing unit (ns|us|ms|s)"))?;
    let (num, unit) = s.split_at(split);
    let (_, ns) = TIME_UNITS
        .iter()
        .find(|u| u.0 == unit)
        .ok_or_else(|| format!("time `{s}`: unknown unit `{unit}`"))?;
    scaled("time", s, num, *ns, "nanoseconds").map(SimTime::from_nanos)
}

/// A time literal read as a duration.
pub fn parse_dur(s: &str) -> Result<SimDuration, String> {
    parse_time(s).map(|t| SimDuration::from_nanos(t.as_nanos()))
}

/// The canonical time literal: the largest unit that divides evenly, so
/// `parse_dur(&fmt_dur(d)) == Ok(d)`.
pub fn fmt_dur(d: SimDuration) -> String {
    fmt_units(d.as_nanos(), &TIME_UNITS)
}

/// Parses a size literal: a non-negative decimal number of bytes with an
/// optional `k`, `m` or `g` suffix (either case; `64k`, `1.5m`).
pub fn parse_size(s: &str) -> Result<u64, String> {
    let lower = s.to_ascii_lowercase();
    let (suffix, bytes) = SIZE_UNITS
        .iter()
        .find(|u| lower.ends_with(u.0))
        .expect("the last suffix is empty");
    scaled("size", s, &s[..s.len() - suffix.len()], *bytes, "bytes")
}

/// The canonical size literal, as [`fmt_dur`] for times.
pub fn fmt_size(bytes: u64) -> String {
    fmt_units(bytes, &SIZE_UNITS)
}

/// A half-open `[from, until)` window.
pub type Window = (SimTime, SimTime);

/// Parses a `FROM-UNTIL` window of two time literals. With
/// `open`, either side may be empty: from time zero, or never ending.
/// Refuses a window that does not end after it starts.
pub fn parse_window(s: &str, open: bool) -> Result<Window, String> {
    let (from, until) = s
        .split_once('-')
        .ok_or_else(|| format!("window `{s}` must be `from-until`"))?;
    let end = |t: &str, none: SimTime| match t.trim() {
        "" if open => Ok(none),
        t => parse_time(t),
    };
    let (from, until) = (end(from, SimTime::ZERO)?, end(until, SimTime::MAX)?);
    if until <= from {
        return Err(format!("window `{s}` must end after it starts"));
    }
    Ok((from, until))
}

/// Splits `head@FROM-UNTIL` into the head and its window (`None` when
/// there is no `@`).
pub fn split_window(item: &str) -> Result<(&str, Option<Window>), String> {
    match item.split_once('@') {
        None => Ok((item, None)),
        Some((head, window)) => Ok((head, Some(parse_window(window, false)?))),
    }
}

/// A `k=v,...` list read against a grammar's key set: pairs separated by
/// `,`, blanks around pairs, keys and values ignored, empty pairs skipped.
/// An entry of the key set may name synonyms (`node|switch`), which count
/// as one key, looked up by the first name.
#[derive(Debug)]
pub struct KvList<'a> {
    keys: &'static [&'static str],
    vals: Vec<Option<&'a str>>,
}

impl<'a> KvList<'a> {
    /// Reads `list`, refusing a pair without `=`, a key outside `keys`
    /// (naming them) and a key given twice.
    pub fn parse(list: &'a str, keys: &'static [&'static str]) -> Result<Self, String> {
        let mut vals = vec![None; keys.len()];
        for pair in list.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            let (k, v) = pair
                .split_once('=')
                .ok_or_else(|| format!("`{pair}` is not `key=value`"))?;
            let k = k.trim();
            let i = keys
                .iter()
                .position(|names| names.split('|').any(|n| n == k))
                .ok_or_else(|| format!("unknown key `{k}` (expected {})", keys.join("|")))?;
            if vals[i].replace(v.trim()).is_some() {
                return Err(format!("duplicate `{k}=`"));
            }
        }
        Ok(KvList { keys, vals })
    }

    fn val(&self, key: &str) -> Option<&'a str> {
        let i = self
            .keys
            .iter()
            .position(|names| names.split('|').next() == Some(key))
            .expect("a key of this grammar");
        self.vals[i]
    }

    /// Whether `key` was given.
    pub fn has(&self, key: &str) -> bool {
        self.val(key).is_some()
    }

    /// `key`'s value read by `read`, `None` when absent.
    pub fn get<T>(
        &self,
        key: &str,
        read: impl FnOnce(&str) -> Result<T, String>,
    ) -> Result<Option<T>, String> {
        self.val(key).map(read).transpose()
    }

    /// `key`'s value as a number (any [`FromStr`] type).
    pub fn num<T: FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        self.get(key, |v| v.parse().map_err(|_| format!("bad {key} `{v}`")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    #[test]
    fn time_units_parse() {
        assert_eq!(parse_time("250ns").unwrap(), SimTime::from_nanos(250));
        assert_eq!(parse_time("360us").unwrap(), t(360));
        assert_eq!(parse_time("2.5ms").unwrap(), t(2500));
        assert_eq!(parse_time("1s").unwrap(), t(1_000_000));
        assert!(parse_time("5").is_err());
        assert!(parse_time("ms").is_err());
        assert!(parse_time("-1ms").is_err());
        // The largest literal that fits, and the first that does not.
        assert!(parse_time("18446744073709549568ns").is_ok());
        for huge in ["18446744073709551616ns", "99999999999999999999s"] {
            let err = parse_time(huge).unwrap_err();
            assert!(err.contains("does not fit"), "{huge}: {err}");
        }
    }

    #[test]
    fn sizes_parse_and_refuse_what_does_not_fit() {
        assert_eq!(parse_size("40000").unwrap(), 40_000);
        assert_eq!(parse_size("64k").unwrap(), 64_000);
        assert_eq!(parse_size("1.5M").unwrap(), 1_500_000);
        assert_eq!(parse_size("2g").unwrap(), 2_000_000_000);
        assert_eq!(parse_size("1e3k").unwrap(), 1_000_000);
        for bad in ["", "k", "-1k", "inf", "nan", "4kb"] {
            assert!(parse_size(bad).is_err(), "{bad}");
        }
        for huge in ["2e19", "18446744073709551616", "1e308k"] {
            let err = parse_size(huge).unwrap_err();
            assert!(err.contains("does not fit"), "{huge}: {err}");
        }
    }

    #[test]
    fn printers_round_trip() {
        for ns in [
            0,
            1,
            999,
            1_000,
            5_000,
            2_500_000,
            3_000_000_000,
            123_456_789,
        ] {
            let d = SimDuration::from_nanos(ns);
            assert_eq!(parse_dur(&fmt_dur(d)).unwrap(), d, "{}", fmt_dur(d));
        }
        assert_eq!(fmt_dur(SimDuration::from_micros(1500)), "1500us");
        assert_eq!(fmt_dur(SimDuration::ZERO), "0ns");
        for bytes in [0, 7, 40_000, 1_500_000, 64_000_000_000] {
            assert_eq!(parse_size(&fmt_size(bytes)).unwrap(), bytes);
        }
        assert_eq!(fmt_size(64_000), "64k");
        assert_eq!(fmt_size(0), "0");
    }

    #[test]
    fn windows_are_half_open_and_may_be_open_ended() {
        assert_eq!(
            parse_window("1ms - 2ms", false).unwrap(),
            (t(1000), t(2000))
        );
        assert_eq!(parse_window("1ms-", true).unwrap(), (t(1000), SimTime::MAX));
        assert_eq!(
            parse_window("-2ms", true).unwrap(),
            (SimTime::ZERO, t(2000))
        );
        for (bad, open) in [
            ("1ms-", false),
            ("1ms", true),
            ("2ms-1ms", false),
            ("1ms-1ms", true),
        ] {
            assert!(parse_window(bad, open).is_err(), "{bad}");
        }
        let (head, w) = split_window("bg:load=0.1@5ms-8ms").unwrap();
        assert_eq!((head, w), ("bg:load=0.1", Some((t(5000), t(8000)))));
        assert_eq!(split_window("bg").unwrap(), ("bg", None));
    }

    #[test]
    fn kv_lists_refuse_unknown_duplicate_and_malformed_pairs() {
        const KEYS: &[&str] = &["flow", "node|switch", "time"];
        let kv = KvList::parse(" flow = 3 ,, switch=7", KEYS).unwrap();
        assert_eq!(kv.num::<u64>("flow").unwrap(), Some(3));
        assert_eq!(kv.num::<u32>("node").unwrap(), Some(7));
        assert!(!kv.has("time"));
        for (bad, needle) in [
            ("flow", "not `key=value`"),
            (
                "color=red",
                "unknown key `color` (expected flow|node|switch|time)",
            ),
            ("flow=1,flow=2", "duplicate `flow=`"),
            ("node=1,switch=2", "duplicate `switch=`"),
        ] {
            let err = KvList::parse(bad, KEYS).unwrap_err();
            assert!(err.contains(needle), "{bad}: {err}");
        }
        let kv = KvList::parse("flow=abc", KEYS).unwrap();
        assert_eq!(kv.num::<u64>("flow").unwrap_err(), "bad flow `abc`");
    }
}
