//! "Error, never panic" for the four spec grammars a user types: `--faults`,
//! `--workload`, `--trace` and `--checkpoint-every`. Each parser is fed
//! valid specs with a few characters deleted, replaced, inserted or
//! duplicated, and arbitrary printable strings; it may accept or refuse,
//! it may not panic. An accepted `--workload` must also print and report
//! its offered load without panicking (`hosts=0-4294967295` used to
//! overflow there, not in the parser).

use proptest::prelude::*;
use vertigo_simcore::SimDuration;
use vertigo_workload::{CheckpointSpec, FaultSchedule, PlanContext, ScenarioSpec, TraceSpec};

/// What mutations and arbitrary strings are drawn from: the grammars'
/// own punctuation, digits that reach the numeric edge cases, letters of
/// every keyword and unit, and a few multi-byte characters.
const PALETTE: &[&str] = &[
    "0",
    "1",
    "9",
    "4294967295",
    "18446744073709551616",
    "99999999999999999999",
    "1e308",
    "-",
    "+",
    ".",
    ",",
    ":",
    ";",
    "@",
    "=",
    "*",
    "/",
    " ",
    "e",
    "k",
    "m",
    "g",
    "s",
    "ns",
    "us",
    "ms",
    "inf",
    "nan",
    "load",
    "hosts",
    "scale",
    "size",
    "qps",
    "sync",
    "time",
    "cap",
    "flow",
    "loss",
    "bg",
    "é",
    "∞",
    "🦀",
];

const VALID: [&[&str]; 4] = [
    // --faults
    &[
        "down:0-64@5ms-8ms",
        "loss:*:0.01@2ms-20ms",
        "corrupt:3-70:0.5@0s-1ms",
        "stall:70@1ms-1500us;pause:3@0s-1ms",
        "blackhole:65@2.5ms-3ms",
    ],
    // --workload
    &[
        "incast:scale=256,sync=5us,size=64k@10ms-30ms + bg:dist=datamining,load=0.4",
        "onoff:load=0.2,on=1ms,off=9ms,tenant=a,hosts=0-15",
        "perm:load=0.3,dist=websearch,hosts=4-11@2.5ms-10ms",
        "incast:scale=8,size=40k,qps=500",
    ],
    // --trace
    &[
        "out/t.vtrace",
        "out/t.vtrace:flow=3,time=1ms-",
        "t.vtrace:node=70,time=-2.5ms,cap=4096",
        "t.vtrace:switch=65,time=1us-2s",
    ],
    // --checkpoint-every
    &["6ms", "500us:out/ck.vsnp", "2.5ms:ck", "1s:"],
];

/// Parses `s` with grammar `g`; the result only has to exist.
fn parse(g: usize, s: &str) {
    match g {
        0 => drop(FaultSchedule::parse(s)),
        1 => {
            if let Ok(spec) = ScenarioSpec::parse(s) {
                let _ = spec.to_string();
                let _ = spec.offered_load(&PlanContext {
                    num_hosts: 16,
                    host_bw_bps: 10_000_000_000,
                    horizon: SimDuration::from_millis(20),
                });
            }
        }
        2 => drop(TraceSpec::parse(s)),
        _ => drop(CheckpointSpec::parse(s)),
    }
}

/// One edit: (operation, position, palette entry).
fn edits() -> impl Strategy<Value = Vec<(u8, usize, usize)>> {
    proptest::collection::vec((0u8..4, 0usize..1000, 0usize..PALETTE.len()), 1..5)
}

fn mutate(spec: &str, edits: &[(u8, usize, usize)]) -> String {
    let mut chars: Vec<char> = spec.chars().collect();
    for &(op, pos, pal) in edits {
        let at = pos % (chars.len() + 1);
        let piece = PALETTE[pal].chars();
        match op {
            0 if at < chars.len() => drop(chars.remove(at)),
            1 if at < chars.len() => drop(chars.splice(at..=at, piece)),
            2 => drop(chars.splice(at..at, piece)),
            _ => {
                let tail: Vec<char> = chars[at..].to_vec();
                chars.splice(at..at, tail);
            }
        }
    }
    chars.into_iter().collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

    #[test]
    fn mutated_valid_specs_never_panic(g in 0usize..4, which in 0usize..8, edits in edits()) {
        let valid = VALID[g][which % VALID[g].len()];
        parse(g, valid);
        parse(g, &mutate(valid, &edits));
    }

    #[test]
    fn arbitrary_printable_strings_never_panic(
        g in 0usize..4,
        pieces in proptest::collection::vec(0usize..PALETTE.len(), 0..12),
    ) {
        let s: String = pieces.iter().map(|&i| PALETTE[i]).collect();
        parse(g, &s);
    }
}

/// The cases the properties above were written for, pinned: one
/// out-of-range time literal per grammar, and a fractional period.
#[test]
fn out_of_range_time_literals_are_refused_in_all_four_grammars() {
    let huge = "99999999999999999999s";
    for err in [
        FaultSchedule::parse(&format!("down:*@0s-{huge}")).unwrap_err(),
        ScenarioSpec::parse(&format!("bg:load=0.1@0s-{huge}")).unwrap_err(),
        ScenarioSpec::parse(&format!("onoff:load=0.1,on=1ms,off={huge}")).unwrap_err(),
        TraceSpec::parse(&format!("t.vtrace:time=1ms-{huge}")).unwrap_err(),
        CheckpointSpec::parse(&format!("{huge}:ck.vsnp")).unwrap_err(),
    ] {
        assert!(err.contains("does not fit"), "{err}");
    }
    let every = CheckpointSpec::parse("2.5ms").unwrap().every;
    assert_eq!(every, SimDuration::from_micros(2500));
}
