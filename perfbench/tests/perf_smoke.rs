//! Smoke test of the `perf` binary: one quick suite (horizons divided by
//! ten, one repetition) and one driver-style run, checked for shape and
//! for the invariants the estimators and the traced pass promise.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::Command;
use vertigo_perfbench::cells;
use vertigo_perfbench::json::Json;
use vertigo_perfbench::metrics::{self, END_TO_END, PER_LAYER};
use vertigo_perfbench::rep;
use vertigo_perfbench::spans;

/// Both measuring tests write spans files for the same workload into the
/// same directory, so they take turns.
static MEASURING: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn perf(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_perf"))
        .args(args)
        .output()
        .expect("perf runs");
    assert!(
        out.status.success(),
        "perf {args:?} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 output")
}

fn valid_name(n: &str) -> bool {
    !n.is_empty()
        && n.len() <= 64
        && n.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

/// Where the perf binary under test puts its spans files.
fn perf_out_dir() -> PathBuf {
    Path::new(env!("CARGO_BIN_EXE_perf"))
        .parent()
        .and_then(Path::parent)
        .expect("<target>/<profile>/perf")
        .join("perf")
}

#[test]
fn benchmark_json_matches_the_metric_tables() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let committed = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json"))
        .expect("BENCHMARK.json parses");
    let run_seconds = committed
        .get("run_seconds")
        .and_then(Json::num)
        .expect("run_seconds");
    assert_eq!(committed, metrics::benchmark_json(run_seconds as u64));

    for table in [END_TO_END, PER_LAYER] {
        for d in table {
            assert!(valid_name(d.name), "{}", d.name);
            assert!(!d.unit.is_empty() && d.unit.len() <= 16, "{}", d.name);
        }
    }
    for d in END_TO_END {
        let b = d.bound.expect("end-to-end metrics carry a bound");
        assert!(b > 0.0 && b <= 0.25, "{}", d.name);
    }
    assert!(END_TO_END
        .iter()
        .any(|d| d.name == "setup_s" && d.unit == "s"));
    for n in cells::NAMES {
        let c = cells::cell(n, 1, false).expect("cell");
        assert!(valid_name(c.name) && c.why.len() <= 200 && !c.why.contains('\n'));
    }
}

#[test]
fn quick_suite_emits_every_metric_and_keeps_its_invariants() {
    let _turn = MEASURING.lock().unwrap_or_else(|e| e.into_inner());
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("quick.json");
    perf(&[
        "--quick",
        "--reps",
        "1",
        "--seed",
        "7",
        "--out",
        out.to_str().expect("utf-8 path"),
    ]);
    let file = Json::parse(&std::fs::read_to_string(&out).expect("result file")).expect("parses");
    let header = file.get("header").expect("header");
    for key in [
        "nproc",
        "cpu_model",
        "rustc",
        "git_commit",
        "build_features",
    ] {
        assert!(header.get(key).is_some(), "header lacks {key}");
    }

    let workloads = file.get("workloads").expect("workloads");
    let got: Vec<&str> = workloads
        .members()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(got, cells::NAMES);

    for (name, w) in workloads.members() {
        assert_eq!(w.get("correct"), Some(&Json::Bool(true)), "{name}");
        assert_eq!(w.get("failed").and_then(Json::num), Some(0.0), "{name}");
        let layer = |m: &str| {
            w.get("per_layer")
                .and_then(|l| l.get(m))
                .and_then(|m| m.get("value"))
                .and_then(Json::num)
                .unwrap_or_else(|| panic!("{name} lacks {m}"))
        };
        for (section, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let have: Vec<&str> = w
                .get(section)
                .expect(section)
                .members()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            let want: Vec<&str> = table.iter().map(|d| d.name).collect();
            assert_eq!(have, want, "{name} {section}");
            for (metric, m) in w.get(section).expect(section).members() {
                assert!(
                    m.get("value").and_then(Json::num).is_some(),
                    "{name} {metric}"
                );
                assert!(
                    m.get("unit").and_then(Json::str).is_some(),
                    "{name} {metric}"
                );
                assert!(
                    m.get("better").and_then(Json::str).is_some(),
                    "{name} {metric}"
                );
            }
        }
        for d in END_TO_END {
            let v = w
                .get("end_to_end")
                .and_then(|e| e.get(d.name))
                .expect(d.name);
            assert!(
                v.get("bound").and_then(Json::num).is_some(),
                "{name} {}",
                d.name
            );
            assert!(
                v.get("value").and_then(Json::num).expect("value") > 0.0,
                "{name} {}",
                d.name
            );
        }

        // The quiet-box estimate sums per-slice minima, so no whole run
        // it was made from can undercut it.
        let min_whole = w
            .get("traced_run_whole_run_s")
            .expect("traced_run_whole_run_s")
            .items()
            .iter()
            .filter_map(Json::num)
            .fold(f64::INFINITY, f64::min);
        assert!(layer("netsim.sim.wall_s") <= min_whole, "{name}");

        let shares: Vec<f64> = PER_LAYER
            .iter()
            .filter(|d| d.name.ends_with("_share") && d.unit == "ratio")
            .filter(|d| d.name != "core.ordering.buffered_share")
            .map(|d| layer(d.name))
            .collect();
        assert!(
            shares.iter().all(|s| (0.0..=1.0).contains(s)),
            "{name} {shares:?}"
        );
        assert!(
            shares.iter().sum::<f64>() <= 1.0 + 1e-9,
            "{name} {shares:?}"
        );

        // Slicing `drain_until` and building piecewise change nothing:
        // the digest is the one the stock entry point gives.
        let spec = cells::cell(name, 7, true).expect("cell").spec;
        assert_eq!(
            w.get("digest").and_then(Json::str),
            Some(rep::plain_digest(&spec).as_str()),
            "{name}"
        );

        let text = std::fs::read_to_string(perf_out_dir().join(format!("spans-{name}.jsonl")))
            .expect("spans file");
        let spans = spans::read_jsonl(&text).expect("spans parse");
        assert!(spans.len() > 20 && spans[0].parent.is_none(), "{name}");
        for s in &spans[1..] {
            let p = &spans[s.parent.expect("one root") as usize];
            assert!(
                p.start_ns <= s.start_ns && s.end_ns <= p.end_ns && s.start_ns <= s.end_ns,
                "{name}: span {} leaves its parent {}",
                s.name,
                p.name
            );
        }
        assert!(spans.iter().any(|s| s.name == "perf.probes"));

        // The designed contrast: the bypass cell does no core.* work.
        let vertigo_work = layer("core.marking.marked") + layer("netsim.switch.deflections");
        if name == "ls_bg_ecmp_swift" {
            assert_eq!(vertigo_work, 0.0);
            assert_eq!(layer("core.est_share"), 0.0);
        } else {
            assert!(layer("core.marking.marked") > 0.0, "{name}");
        }
    }
}

#[test]
fn driver_run_prints_one_result_object_last() {
    let _turn = MEASURING.lock().unwrap_or_else(|e| e.into_inner());
    for (trace, table) in [("0", END_TO_END), ("1", PER_LAYER)] {
        let out = perf(&[
            "--workload",
            "ls_burst_vertigo",
            "--seed",
            "11",
            "--seconds",
            "1",
            "--quick",
            "--trace",
            trace,
        ]);
        let last = Json::parse(out.lines().last().expect("output")).expect("result parses");
        let keys: Vec<&str> = last.members().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(last.get("correct"), Some(&Json::Bool(true)));
        // The repetition count follows from the budget and the cell, not
        // from how fast the repetitions ran; the traced run spends half
        // the budget on them and adds the traced pass.
        let cell = cells::cell("ls_burst_vertigo", 11, true).expect("cell");
        let want = if trace == "1" {
            cell.reps_in(0.5) + 1
        } else {
            cell.reps_in(1.0)
        };
        assert_eq!(
            last.get("attempted").and_then(Json::num),
            Some(want as f64),
            "--trace {trace}"
        );
        let have: BTreeSet<String> = last
            .get("metrics")
            .expect("metrics")
            .members()
            .iter()
            .map(|(k, _)| k.clone())
            .collect();
        let want: BTreeSet<String> = table.iter().map(|d| d.name.to_owned()).collect();
        assert_eq!(have, want, "--trace {trace}");
    }
}

#[test]
fn unknown_workload_and_bad_flags_are_errors_not_panics() {
    for args in [
        &["--workload", "nope"][..],
        &["--seconds", "abc"],
        &["--workload", "ft_soak", "--trace", "2"],
        &["--compare", "only-one.json"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_perf"))
            .args(args)
            .output()
            .expect("perf runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(
            !String::from_utf8_lossy(&out.stderr).contains("panicked"),
            "{args:?}"
        );
    }
}
