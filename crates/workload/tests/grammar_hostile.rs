//! "Error, never panic" for the four spec grammars a user types: `--faults`,
//! `--workload`, `--trace` and `--checkpoint-every`. Each parser is fed
//! valid specs with a few characters deleted, replaced, inserted or
//! duplicated, and arbitrary printable strings; it may accept or refuse,
//! it may not panic. An accepted `--workload` must also print and report
//! its offered load without panicking (`hosts=0-4294967295` used to
//! overflow there, not in the parser).
//!
//! The same mutations, drawn from a seeded stream, also pin what each
//! grammar *does* with an input: `tests/golden/grammars.tsv` holds one line
//! per input with its outcome (a hash of the parsed value's `Debug`, or
//! `err`). Regenerate it after an intentional grammar change with
//!
//! ```sh
//! UPDATE_GOLDENS=1 cargo test -p vertigo-workload --test grammar_hostile
//! ```
//!
//! and the diff lists exactly the inputs whose outcome moved.

use proptest::prelude::*;
use std::fmt::Write as _;
use std::path::Path;
use vertigo_netsim::trace::stable_hash;
use vertigo_simcore::{SimDuration, SimRng};
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

/// What the grammars used to accept silently: a size literal past 64 bits
/// (it saturated), a repeated `--trace` key (the last one won), and a
/// query rate whose mean gap is under the 1 ns clock (the planner's clock
/// stopped and the run exhausted memory).
#[test]
fn saturating_sizes_repeated_keys_and_sub_nanosecond_rates_are_refused() {
    for (err, needle) in [
        (
            ScenarioSpec::parse("incast:scale=2,size=2e19,qps=100").unwrap_err(),
            "does not fit",
        ),
        (
            TraceSpec::parse("t.vtrace:flow=1,flow=2").unwrap_err(),
            "duplicate `flow=`",
        ),
        (
            TraceSpec::parse("t.vtrace:node=1,switch=2").unwrap_err(),
            "duplicate `switch=`",
        ),
        (
            ScenarioSpec::parse("incast:scale=2,size=1k,qps=1e300").unwrap_err(),
            "qps must be in (0, 1e9]",
        ),
    ] {
        assert!(err.contains(needle), "{err}");
    }
    assert!(ScenarioSpec::parse("incast:scale=2,size=1k,qps=1e9").is_ok());
}

/// The corpus's grammars, in `VALID` order.
const GRAMMARS: [&str; 4] = ["faults", "workload", "trace", "checkpoint"];

/// Per grammar: its module-doc examples, every rejection case its unit
/// tests name, and inputs where one grammar's copy of a shared piece
/// (the `k=v` list, the size literal, the rate) differs from another's.
const NAMED: [&[&str]; 4] = [
    &[
        "down:0-64@5ms-8ms",
        "loss:*:0.01@2ms-20ms",
        "stall:70@1ms-1500us;pause:3@0s-1ms",
        "",
        " ; ",
        "down:0-64",
        "down:0-64@5ms",
        "flood:0-64@0s-1ms",
        "loss:*@0s-1ms",
        "loss:*:0@0s-1ms",
        "loss:*:1.5@0s-1ms",
        "down:7@0s-1ms",
        "stall:0-64@0s-1ms",
        "stall:7:0.5@0s-1ms",
        "down:0-0@0s-1ms",
        "down:0-64@1ms-1ms",
        "down:0-64@2ms-1ms",
        "down:0-64@0s-1parsec",
        "down:zero-64@0s-1ms",
        "down:0-64:0.1:extra@0s-1ms",
        "flood:*@0s-1ms",
        "down:*@5ms-2ms",
        "stall:3@1ms",
        "down:*@1000-2000",
        "down:*@0s-99999999999999999999s",
    ],
    &[
        "incast:scale=256,sync=5us,size=64k@10ms-30ms + bg:dist=datamining,load=0.4 \
         + onoff:load=0.2,on=1ms,off=9ms",
        "bg:load=0.3,dist=datamining + incast:scale=8,size=64k,qps=500,sync=5us",
        "",
        "flood:load=0.1",
        "bg:loads=0.1",
        "bg",
        "onoff:load=0.1,on=1ms",
        "incast:size=40k,qps=100",
        "incast:scale=8,size=40k,qps=100,load=0.2",
        "bg:load=0.1,scale=4",
        "bg:load=0.1@5ms-2ms",
        "bg:load=0.1,hosts=9-3",
        "bg:load=0.1,load=0.2",
        "onoff:load=0.1,on=0ms,off=1ms",
        "bg:load=0.1,tenant=",
        "bg:load=0.2,tenant=a,hosts=0-7 + onoff:load=0.2,on=1ms,off=1ms,tenant=b,hosts=4-11",
        "bg:load=1.5",
        "bg:load=0.6 + perm:load=0.6",
        "bg:load=0.1,color=red",
        "bg:dist=websearch",
        "bg:load=abc",
        "incast:size=40k,load=0.1",
        "incast:scale=8,size=40k,qps=100,load=0.1",
        "bg:load=0.1@5ms-5ms",
        "bg:load=0.1,tenant=this-name-is-way-too-long",
        "bg:load=0.1,tenant=bad name",
        "bg:load=0.1,tenant=a + bg:load=0.1,tenant=b,hosts=0-7",
        "bg:load=0.1@0s-99999999999999999999s",
        "onoff:load=0.1,on=1ms,off=99999999999999999999s",
        "incast:scale=2,size=1k,qps=1e300",
        "incast:scale=2,size=2e19,qps=100",
        "incast:scale=2,size=1,load=1",
    ],
    &[
        "",
        ":flow=1",
        "x.vtrace:flow",
        "x.vtrace:flow=abc",
        "x.vtrace:time=2ms-1ms",
        "x.vtrace:time=1000-2000",
        "x.vtrace:cap=0",
        "x.vtrace:color=red",
        "t.vtrace:bogus=1",
        "t.vtrace:time=1ms-99999999999999999999s",
        "t.vtrace:flow=1,flow=2",
        "t.vtrace:node=1,switch=2",
        "t.vtrace:cap=1,cap=2",
    ],
    &[
        "6ms",
        "2.5ms",
        "500us:out/ck.vsnp",
        "6",
        "ms",
        "-3ms",
        "99999999999999999999s",
        "0ms",
        "nope",
        "99999999999999999999s:ck.vsnp",
    ],
];

/// Mutations drawn per `VALID` spec.
const MUTATIONS: usize = 32;

/// `err`, or the hash of the parsed value's `Debug`.
fn outcome(g: usize, s: &str) -> String {
    fn hashed<T: std::fmt::Debug>(r: Result<T, String>) -> String {
        r.map_or("err".into(), |v| {
            format!("{:016x}", stable_hash(format!("{v:?}").as_bytes()))
        })
    }
    match g {
        0 => hashed(FaultSchedule::parse(s)),
        1 => hashed(ScenarioSpec::parse(s)),
        2 => hashed(TraceSpec::parse(s)),
        _ => hashed(CheckpointSpec::parse(s)),
    }
}

/// One `grammar<TAB>outcome<TAB>input` line per input: the named inputs,
/// then each valid spec followed by its seeded mutations.
fn corpus() -> String {
    let mut rng = SimRng::new(1);
    let mut out = String::new();
    for (g, name) in GRAMMARS.iter().enumerate() {
        let mut inputs: Vec<String> = NAMED[g].iter().map(|s| s.to_string()).collect();
        for valid in VALID[g] {
            inputs.push(valid.to_string());
            for _ in 0..MUTATIONS {
                let edits: Vec<(u8, usize, usize)> = (0..1 + rng.index(4))
                    .map(|_| {
                        let op = rng.index(4) as u8;
                        let pos = rng.index(1000);
                        (op, pos, rng.index(PALETTE.len()))
                    })
                    .collect();
                inputs.push(mutate(valid, &edits));
            }
        }
        for s in inputs {
            writeln!(out, "{name}\t{}\t{s:?}", outcome(g, &s)).unwrap();
        }
    }
    out
}

#[test]
fn grammar_outcomes_are_the_committed_corpus() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/grammars.tsv");
    let actual = corpus();
    if std::env::var_os("UPDATE_GOLDENS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{}: {e} (UPDATE_GOLDENS=1 creates it)", path.display()));
    let moved: Vec<String> = expected
        .lines()
        .zip(actual.lines())
        .filter(|(e, a)| e != a)
        .map(|(e, a)| format!("- {e}\n+ {a}"))
        .collect();
    assert!(
        moved.is_empty() && expected.lines().count() == actual.lines().count(),
        "{} grammar outcomes moved:\n{}",
        moved.len(),
        moved.join("\n")
    );
}
