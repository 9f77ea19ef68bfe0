//! The `experiments` binary from the outside: argument errors are
//! reported on stderr with the usage text and exit code 2, never as a
//! panic, and before any simulation starts; `--trace` next to an untraced
//! run; `vtrace dump` on a golden trace and on codes it does not know; and
//! `vsnp inspect` on a header of the previous format version.

use std::process::{Command, Output};

fn experiments(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .output()
        .expect("the experiments binary runs")
}

/// Asserts exit code 2, `needle` on stderr, and no banner on stdout.
fn refused(args: &[&str], needle: &str) {
    let out = experiments(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(stderr.contains(needle), "{args:?}: {stderr}");
    assert!(stderr.contains("usage: experiments <id>"), "{args:?}");
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?} printed before refusing");
}

#[test]
fn no_arguments_prints_usage() {
    let out = experiments(&[]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    for id in ["fig1", "fig11a", "figworkload", "tune", "soak", "all"] {
        assert!(stderr.contains(&format!("\n  {id} ")), "{id}: {stderr}");
    }
}

#[test]
fn bad_arguments_exit_2() {
    refused(&["fig5", "--jobs", "0"], "--jobs must be at least 1");
    refused(&["fig5", "--jobs", "abc"], "bad jobs");
    refused(&["fig5", "--jobs"], "--jobs needs a value");
    refused(&["fig5", "--quick", "--domains"], "--domains needs a value");
    refused(&["fig5", "--domains", "0"], "--domains must be at least 1");
    refused(&["fig99", "--quick"], "unknown id: fig99");
    refused(&["fig5", "--bogus"], "unknown option: --bogus");
    refused(&["fig5", "--search", "grid"], "unknown option: --search");
    // Which of two byte-identical paths runs a cell is not the user's call.
    refused(&["fig5", "--warm-start"], "unknown option: --warm-start");
    refused(&["tune", "--quick", "--cold"], "unknown option: --cold");
    refused(&["fig5", "--events", "heap"], "unknown option: --events");
    // A literal rate whose mean gap is under the 1 ns clock.
    refused(
        &["table2", "--workload", "incast:scale=2,size=1k,qps=1e300"],
        "qps must be in (0, 1e9]",
    );
}

#[test]
fn conflicting_flags_exit_2() {
    refused(&["tune", "--trace", "x"], "drop --trace");
    refused(&["tune", "--quick", "--domains", "2"], "drop --domains");
    refused(
        &["tune", "--quick", "--checkpoint-every", "2.5ms"],
        "drop --checkpoint-every/--resume",
    );
    refused(
        &["fig5", "--quick", "--domains", "2", "--trace", "x"],
        "drop either --trace or --domains",
    );
    refused(
        &["all", "--quick", "--domains", "2", "--resume", "x"],
        "drop either --checkpoint-every/--resume or --domains",
    );
}

/// Flags that parse but do not fit the run's topology are the user's
/// error: one `error:` line starting `error: {flag}: ` and exit 2, no
/// panic, no table.
fn spec_refused(id: &str, flags: &[&str], flag: &str, needle: &str) {
    let tag = flags
        .join("")
        .replace(|c: char| !c.is_ascii_alphanumeric(), "");
    let dir = std::env::temp_dir().join(format!("vertigo-cli-{id}-{tag}-{}", std::process::id()));
    let mut args = vec![id, "--quick", "--out", dir.to_str().unwrap()];
    args.extend(flags);
    let out = experiments(&args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    let errors: Vec<&str> = stderr.lines().filter(|l| l.contains("error")).collect();
    assert_eq!(errors.len(), 1, "{args:?}: {stderr}");
    assert!(
        errors[0].starts_with(&format!("error: {flag}: ")),
        "{stderr}"
    );
    assert!(errors[0].contains(needle), "{stderr}");
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    assert!(!dir.exists(), "nothing is written after an error");
}

fn workload_refused(hosts: &str, needle: &str) {
    let workload = format!("bg:load=0.1,hosts={hosts}");
    spec_refused("soak", &["--workload", &workload], "--workload", needle);
}

#[test]
fn workload_past_the_topology_exits_2_without_a_panic() {
    workload_refused("0-999", "hosts=0-999 exceeds the topology (16 hosts");
}

/// A rate solved from `load=` whose mean gap is under the 1 ns clock: the
/// planner used to emit queries until memory ran out.
#[test]
fn workload_rate_past_the_clock_exits_2_without_a_panic() {
    let workload = ["--workload", "incast:scale=2,size=1,load=1"];
    spec_refused(
        "table2",
        &workload,
        "--workload",
        "incast offers 2.000e10 arrivals per second",
    );
}

#[test]
fn full_u32_host_range_exits_2_without_overflow() {
    workload_refused("0-4294967295", "exceeds the topology");
}

#[test]
fn faults_off_the_topology_exit_2_without_a_panic() {
    let stall = ["--faults", "stall:9999@1ms-2ms"];
    spec_refused(
        "soak",
        &stall,
        "--faults",
        "node 9999 not in topology (36 nodes)",
    );
    let down = ["--faults", "down:0-1@1ms-2ms"];
    spec_refused("soak", &down, "--faults", "no link between nodes 0 and 1");
    // Under a sweep, each cell's error and not one panic per worker; and
    // from the shared warmup of phased cells too.
    spec_refused("fig1", &stall, "--faults", "node 9999 not in topology");
    spec_refused("fig5", &stall, "--faults", "node 9999 not in topology");
}

#[test]
fn more_domains_than_the_engine_takes_exit_2_without_a_panic() {
    let domains = ["--domains", "100000"];
    spec_refused(
        "soak",
        &domains,
        "--domains 100000",
        "at most 65535 domains",
    );
}

#[test]
fn unusable_resume_file_exits_2_without_a_panic() {
    let dir = std::env::temp_dir().join(format!("vertigo-cli-resume-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let garbage = dir.join("garbage.vsnp");
    std::fs::write(&garbage, b"not a snapshot").unwrap();
    let out = experiments(&[
        "table2",
        "--quick",
        "--out",
        dir.to_str().unwrap(),
        "--resume",
        garbage.to_str().unwrap(),
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("error: --resume "), "{stderr}");
    assert!(stderr.contains("not a VSNP snapshot"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(!dir.join("table2.csv").exists(), "no table after an error");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn vsnp_inspect_prints_a_version_3_header() {
    use vertigo_simcore::{SnapWriter, SNAP_VERSION};
    // A header as this build writes it, then as version 3 wrote it (the
    // host record without its finished flows): the version is a `u16`
    // behind the four magic bytes.
    let mut w = SnapWriter::new();
    vertigo_workload::snapshot::write_header(&mut w, 0xABCD, 6_000_000);
    let mut bytes = w.into_bytes();
    assert_eq!(bytes[4..6], SNAP_VERSION.to_le_bytes());
    bytes[4..6].copy_from_slice(&3u16.to_le_bytes());
    let file = std::env::temp_dir().join(format!("vertigo-cli-v3-{}.vsnp", std::process::id()));
    std::fs::write(&file, &bytes).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_vsnp"))
        .args(["inspect", file.to_str().unwrap()])
        .output()
        .expect("the vsnp binary runs");
    std::fs::remove_file(&file).ok();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    let note = format!("version    3 (this binary reads version {SNAP_VERSION};");
    assert!(stdout.contains(&note), "{stdout}");
    // Nothing behind another version's version is decoded.
    assert!(!stdout.contains("sim time"), "{stdout}");
}

#[test]
fn unwritable_checkpoint_path_exits_2_without_a_panic() {
    // A regular file where the checkpoint directory should be: refuses
    // the write for every user (root ignores a read-only directory).
    let dir = std::env::temp_dir().join(format!("vertigo-cli-ckpt-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let blocker = dir.join("blocker");
    std::fs::write(&blocker, b"in the way").unwrap();
    let out = experiments(&[
        "table2",
        "--quick",
        "--out",
        dir.to_str().unwrap(),
        "--checkpoint-every",
        &format!("1ms:{}", blocker.join("ck.vsnp").display()),
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    let errors: Vec<&str> = stderr.lines().filter(|l| l.contains("error")).collect();
    assert_eq!(errors.len(), 1, "{stderr}");
    assert!(
        errors[0].starts_with("error: --checkpoint-every: cannot write "),
        "{stderr}"
    );
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(!dir.join("table2.csv").exists(), "no table after an error");
    std::fs::remove_dir_all(&dir).ok();
}

fn vtrace(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_vtrace"))
        .args(args)
        .output()
        .expect("the vtrace binary runs")
}

/// `--trace` in the default build: one `.vtrace` file per cell, stdout
/// and CSV as an untraced run prints them, and `vtrace dump` reads the
/// files. Small rings (`cap=64`) keep the files small while every hook
/// still records.
#[test]
fn trace_writes_one_file_per_cell_and_leaves_the_results_alone() {
    let dir = std::env::temp_dir().join(format!("vertigo-cli-trace-{}", std::process::id()));
    let run = |tag: &str, trace: &[&str]| {
        let out_dir = dir.join(tag);
        let mut args = vec!["table2", "--quick", "--out", out_dir.to_str().unwrap()];
        args.extend_from_slice(trace);
        let out = experiments(&args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{args:?}: {stderr}");
        let stdout = String::from_utf8_lossy(&out.stdout).replace(out_dir.to_str().unwrap(), "OUT");
        let csv = std::fs::read(out_dir.join("table2.csv")).expect("table2.csv");
        (stdout, csv)
    };
    let traces = dir.join("traces");
    let spec = format!("{}:cap=64", traces.join("t.vtrace").display());
    let plain = run("plain", &[]);
    let traced = run("traced", &["--trace", &spec]);
    assert_eq!(plain, traced, "tracing changed what the run prints");

    let mut files: Vec<_> = std::fs::read_dir(&traces)
        .expect("the trace directory")
        .map(|e| e.expect("entry").path())
        .collect();
    files.sort();
    assert_eq!(files.len(), 6, "one trace per table2 cell: {files:?}");
    for f in &files {
        let name = f.file_name().unwrap().to_string_lossy();
        assert!(
            name.starts_with("t-") && name.ends_with(".vtrace"),
            "{name}"
        );
    }
    let out = vtrace(&["dump", files[0].to_str().unwrap()]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.lines().count() > 1, "no records: {stdout}");
    assert!(stdout.contains(" enqueue "), "{stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

/// Codes this build does not know — a kind, a forwarding or deflection
/// policy, a drop cause, a delivery reason — print as `?`, not a panic.
#[test]
fn vtrace_dump_prints_unknown_codes_as_question_marks() {
    use vertigo_stats::{TraceFilter, TraceKind, TraceRecord, TraceSink};
    let rec = |kind: u8, a: u64, flags: u8| TraceRecord {
        time_ns: 1,
        uid: 2,
        flow: 3,
        a,
        b: 0,
        node: 0,
        kind,
        flags,
        port: 0,
    };
    let mut sink = TraceSink::new();
    sink.arm(TraceFilter::default(), 1, 8);
    sink.record(rec(200, 0, 0));
    sink.record(rec(TraceKind::FwdDecision.code(), 99, 0));
    sink.record(rec(TraceKind::Deflect.code(), 0, 63 << 2));
    sink.record(rec(TraceKind::Drop.code(), 999, 0));
    sink.record(rec(TraceKind::RxDeliver.code(), 0, 200));
    let path =
        std::env::temp_dir().join(format!("vertigo-cli-unknown-{}.vtrace", std::process::id()));
    std::fs::write(&path, sink.serialize()).unwrap();
    let out = vtrace(&["dump", path.to_str().unwrap()]);
    std::fs::remove_file(&path).ok();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let rows: Vec<&str> = stdout.lines().skip(1).collect();
    assert_eq!(rows.len(), 5, "{stdout}");
    for (row, needle) in rows
        .iter()
        .zip([" ? ", "policy=? ", "policy=? ", "cause=? ", "reason=? "])
    {
        assert!(row.contains(needle), "{needle:?} not in {row}");
    }
}

#[test]
fn vtrace_dump_names_the_overflow_policy_of_a_deflection() {
    let golden = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/golden/deflect_pabo.vtrace"
    );
    let out = vtrace(&["dump", golden]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let deflects: Vec<&str> = stdout.lines().filter(|l| l.contains(" deflect ")).collect();
    assert!(!deflects.is_empty(), "the golden trace deflects");
    for row in deflects {
        assert!(row.contains(" policy=pabo "), "{row}");
    }
}
