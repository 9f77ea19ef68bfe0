//! Trace capture configuration: the `--trace out.vtrace[:filter]` grammar.
//!
//! The recording machinery itself lives in [`vertigo_stats::trace`] (it
//! rides inside the [`vertigo_stats::Recorder`] so every hook site can
//! reach it); this module owns the *user-facing* side — parsing the
//! `--trace` argument every experiment binary accepts into a
//! [`TraceSpec`], and mapping netsim enums to their on-disk codes.
//!
//! Grammar (all filter clauses optional, comma-separated, ANDed):
//!
//! ```text
//! PATH[:flow=N][,node=N|,switch=N][,time=FROM-UNTIL][,cap=N]
//! ```
//!
//! * `flow=N` — keep only flow `N`'s records.
//! * `node=N` / `switch=N` (synonyms) — keep only node `N`'s records.
//! * `time=FROM-UNTIL` — keep `FROM <= t < UNTIL`; times use the fault
//!   grammar's units (`ns`/`us`/`ms`/`s`), either side may be empty
//!   (`time=1ms-` = from 1 ms on).
//! * `cap=N` — per-node ring capacity in records (default
//!   [`DEFAULT_RING_CAPACITY`]).
//!
//! The `k=v` list, the window and the time literal read as in every spec
//! grammar ([`crate::grammar`]): a key given twice is refused.
//!
//! This module compiles unconditionally: parsing a spec never requires
//! the `trace` feature. Only *recording* does, and
//! `RunSpec::try_run_staged` fails loudly when a spec is supplied to a
//! build that cannot honor it.

use std::path::PathBuf;
use vertigo_core::ordering::DeliverReason;
use vertigo_simcore::SimTime;
use vertigo_stats::TraceFilter;

use crate::grammar::{self, KvList};
use crate::policy::ForwardPolicy;

/// The filter's keys; `node` and `switch` are one key.
const KEYS: &[&str] = &["flow", "node|switch", "time", "cap"];

/// Default per-node ring capacity in records (48 B each, so 64 Ki records
/// ≈ 3 MB per node before overwrite kicks in).
pub const DEFAULT_RING_CAPACITY: usize = 1 << 16;

/// A parsed `--trace` argument: where to write, what to keep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceSpec {
    /// Output path. Multi-cell experiment runs write one file per cell,
    /// suffixing the stem with a stable per-spec hash.
    pub path: PathBuf,
    /// Record filter applied at capture time.
    pub filter: TraceFilter,
    /// Per-node ring capacity in records.
    pub capacity: usize,
}

impl TraceSpec {
    /// Parses `PATH[:filter,...]`. See the module docs for the grammar.
    pub fn parse(s: &str) -> Result<TraceSpec, String> {
        let s = s.trim();
        let (path, filter) = s.split_once(':').unwrap_or((s, ""));
        if path.is_empty() {
            return Err(format!("trace spec `{s}`: empty path"));
        }
        let (filter, capacity) =
            read_filter(filter).map_err(|e| format!("trace filter `{filter}`: {e}"))?;
        Ok(TraceSpec {
            path: PathBuf::from(path),
            filter,
            capacity,
        })
    }
}

/// The record filter and ring capacity a filter list asks for.
fn read_filter(list: &str) -> Result<(TraceFilter, usize), String> {
    let kv = KvList::parse(list, KEYS)?;
    let (from, until) = kv
        .get("time", |v| grammar::parse_window(v, true))?
        .unwrap_or((SimTime::ZERO, SimTime::MAX));
    let filter = TraceFilter {
        flow: kv.num("flow")?,
        node: kv.num("node")?,
        from_ns: from.as_nanos(),
        until_ns: until.as_nanos(),
    };
    let capacity = kv.num("cap")?.unwrap_or(DEFAULT_RING_CAPACITY);
    if capacity == 0 {
        return Err("capacity must be > 0".into());
    }
    Ok((filter, capacity))
}

impl ForwardPolicy {
    /// Stable on-disk code for `FwdDecision` records' `a` field. Code 0 is
    /// reserved for "no choice" (a single-candidate port set).
    pub fn trace_code(&self) -> u64 {
        match self {
            ForwardPolicy::Ecmp => 1,
            ForwardPolicy::Drill { .. } => 2,
            ForwardPolicy::PowerOfN { .. } => 3,
        }
    }
}

/// Stable on-disk code for `RxDeliver` records' `flags` field.
pub fn deliver_reason_code(reason: DeliverReason) -> u8 {
    match reason {
        DeliverReason::InOrder => 0,
        DeliverReason::GapFilled => 1,
        DeliverReason::TimeoutRelease => 2,
        DeliverReason::LateOrDuplicate => 3,
        DeliverReason::Flush => 4,
    }
}

/// Label for a delivery-reason code (the `vtrace dump` column).
pub fn deliver_reason_label(code: u8) -> &'static str {
    match code {
        0 => "in-order",
        1 => "gap-filled",
        2 => "timeout-release",
        3 => "late-or-dup",
        4 => "flush",
        _ => "?",
    }
}

/// FNV-1a over `bytes`: a stable, dependency-free hash used to derive
/// per-cell trace filenames from a `RunSpec`'s debug representation, so
/// parallel sweep cells never collide on one output path and filenames
/// are identical run-to-run (no randomness, no wall clock).
pub use vertigo_pkt::fnv1a as stable_hash;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bare_path_parses_with_defaults() {
        let s = TraceSpec::parse("out.vtrace").unwrap();
        assert_eq!(s.path, PathBuf::from("out.vtrace"));
        assert_eq!(s.filter, TraceFilter::default());
        assert_eq!(s.capacity, DEFAULT_RING_CAPACITY);
    }

    #[test]
    fn full_filter_grammar_parses() {
        let s = TraceSpec::parse("/tmp/x.vtrace:flow=42,switch=33,time=1ms-2.5ms,cap=128").unwrap();
        assert_eq!(s.path, PathBuf::from("/tmp/x.vtrace"));
        assert_eq!(s.filter.flow, Some(42));
        assert_eq!(s.filter.node, Some(33));
        assert_eq!(s.filter.from_ns, 1_000_000);
        assert_eq!(s.filter.until_ns, 2_500_000);
        assert_eq!(s.capacity, 128);
    }

    #[test]
    fn open_ended_time_windows_parse() {
        let s = TraceSpec::parse("x.vtrace:time=1ms-").unwrap();
        assert_eq!(s.filter.from_ns, 1_000_000);
        assert_eq!(s.filter.until_ns, u64::MAX);
        let s = TraceSpec::parse("x.vtrace:time=-2ms").unwrap();
        assert_eq!(s.filter.from_ns, 0);
        assert_eq!(s.filter.until_ns, 2_000_000);
    }

    #[test]
    fn node_and_switch_are_synonyms() {
        let a = TraceSpec::parse("x.vtrace:node=7").unwrap();
        let b = TraceSpec::parse("x.vtrace:switch=7").unwrap();
        assert_eq!(a.filter, b.filter);
    }

    #[test]
    fn malformed_specs_are_rejected() {
        for bad in [
            "",                        // empty
            ":flow=1",                 // empty path
            "x.vtrace:flow",           // no value
            "x.vtrace:flow=abc",       // bad id
            "x.vtrace:time=2ms-1ms",   // empty window
            "x.vtrace:time=1000-2000", // missing unit
            "x.vtrace:cap=0",          // zero capacity
            "x.vtrace:color=red",      // unknown key
        ] {
            assert!(TraceSpec::parse(bad).is_err(), "`{bad}` should be rejected");
        }
    }

    #[test]
    fn policy_trace_codes_are_distinct() {
        let codes = [
            ForwardPolicy::Ecmp.trace_code(),
            ForwardPolicy::Drill { d: 2 }.trace_code(),
            ForwardPolicy::PowerOfN { n: 2 }.trace_code(),
        ];
        let mut uniq = codes.to_vec();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), codes.len());
        assert!(!codes.contains(&0), "0 is reserved for single-candidate");
    }

    #[test]
    fn deliver_reason_codes_roundtrip_to_labels() {
        let reasons = [
            DeliverReason::InOrder,
            DeliverReason::GapFilled,
            DeliverReason::TimeoutRelease,
            DeliverReason::LateOrDuplicate,
            DeliverReason::Flush,
        ];
        let mut labels: Vec<&str> = reasons
            .iter()
            .map(|&r| deliver_reason_label(deliver_reason_code(r)))
            .collect();
        assert!(!labels.contains(&"?"));
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), reasons.len());
    }

    #[test]
    fn stable_hash_is_stable() {
        assert_eq!(stable_hash(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(stable_hash(b"vertigo"), stable_hash(b"vertigo"));
        assert_ne!(stable_hash(b"vertigo"), stable_hash(b"vertigO"));
    }
}
