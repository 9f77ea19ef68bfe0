//! Provenance-trace inspector: decodes the `.vtrace` files written by
//! `--trace` into human-readable event rows (`dump`) and byte-compares
//! two traces record-by-record (`diff`, exit 1 on divergence).

use std::process::ExitCode;
use vertigo_netsim::trace::{deflect_policy_label, deliver_reason_label, forward_policy_label};
use vertigo_stats::{
    parse_trace, unpack_ports, DropCause, TraceHeader, TraceKind, TraceRecord, TRACE_NO_RANK,
};

fn usage() -> ExitCode {
    eprintln!(
        "usage: vtrace dump FILE        decode a trace into event rows\n\
         \x20      vtrace diff A B        compare two traces (exit 1 if they differ)"
    );
    ExitCode::from(2)
}

fn load(path: &str) -> Result<(TraceHeader, Vec<TraceRecord>), String> {
    let bytes = std::fs::read(path).map_err(|e| format!("{path}: {e}"))?;
    parse_trace(&bytes).map_err(|e| format!("{path}: {e}"))
}

fn fmt_rank(r: u64) -> String {
    if r == TRACE_NO_RANK {
        "-".to_string()
    } else {
        r.to_string()
    }
}

fn fmt_sample(packed: u64) -> String {
    let ports = unpack_ports(packed);
    let strs: Vec<String> = ports.iter().map(|p| p.to_string()).collect();
    format!("[{}]", strs.join(","))
}

/// The kind-specific tail of one event row (the `a`/`b`/`flags`
/// payload, decoded per the schema in DESIGN.md §Tracing).
fn detail(r: &TraceRecord) -> String {
    match r.kind() {
        Some(TraceKind::Enqueue) => {
            format!("port={} rank={} qbytes={}", r.port, fmt_rank(r.a), r.b)
        }
        Some(TraceKind::Dequeue) => {
            format!("port={} rank={} qbytes={}", r.port, fmt_rank(r.a), r.b)
        }
        Some(TraceKind::FwdDecision) => {
            let n = r.b & 0xFFFF_FFFF;
            let remembered = (r.b >> 32).checked_sub(1);
            format!(
                "port={} policy={} candidates={} remembered={}{}",
                r.port,
                forward_policy_label(r.a),
                n,
                remembered.map_or("-".to_string(), |m| m.to_string()),
                if r.flags & 1 != 0 {
                    " (remembered won)"
                } else {
                    ""
                },
            )
        }
        Some(TraceKind::Deflect) => format!(
            "to_port={} policy={} victim_rank={} sampled={}{}{}",
            r.port,
            deflect_policy_label(r.flags >> 2),
            fmt_rank(r.a),
            fmt_sample(r.b),
            if r.flags & 0b01 != 0 { " forced" } else { "" },
            if r.flags & 0b10 != 0 {
                " victim=arriving"
            } else {
                " victim=queued"
            },
        ),
        Some(TraceKind::Drop) => format!(
            "cause={} wire_bytes={} port={}",
            DropCause::ALL.get(r.a as usize).map_or("?", |c| c.label()),
            r.b,
            if r.port == u16::MAX {
                "-".to_string()
            } else {
                r.port.to_string()
            },
        ),
        Some(TraceKind::Boost) => format!("retcnt={} boosted_rfs={}", r.a, r.b),
        Some(TraceKind::RxDeliver) => format!(
            "reason={} rfs={} deadline={}",
            deliver_reason_label(r.flags),
            fmt_rank(r.a),
            fmt_rank(r.b),
        ),
        Some(TraceKind::RxBuffer) => format!(
            "rfs={} deadline={}{}",
            fmt_rank(r.a),
            fmt_rank(r.b),
            if r.flags & 1 != 0 { " dup-dropped" } else { "" },
        ),
        None => format!("a={} b={} flags={:#04x} port={}", r.a, r.b, r.flags, r.port),
    }
}

fn row(i: usize, r: &TraceRecord) -> String {
    format!(
        "{i:>8}  {:>14} ns  node {:>4}  {:<10}  uid={:<8} flow={:<6} {}",
        r.time_ns,
        r.node,
        r.kind().map_or("?", TraceKind::label),
        r.uid,
        r.flow,
        detail(r),
    )
}

fn dump(path: &str) -> Result<ExitCode, String> {
    let (header, records) = load(path)?;
    println!(
        "{path}: version {} | {} records | {} overwritten (ring capacity exceeded)",
        header.version, header.records, header.overwritten
    );
    for (i, r) in records.iter().enumerate() {
        println!("{}", row(i, r));
    }
    Ok(ExitCode::SUCCESS)
}

fn diff(path_a: &str, path_b: &str) -> Result<ExitCode, String> {
    let (ha, a) = load(path_a)?;
    let (hb, b) = load(path_b)?;
    if ha.overwritten != hb.overwritten {
        println!(
            "headers differ: {} overwrote {} records, {} overwrote {}",
            path_a, ha.overwritten, path_b, hb.overwritten
        );
        return Ok(ExitCode::FAILURE);
    }
    for (i, (ra, rb)) in a.iter().zip(b.iter()).enumerate() {
        if ra != rb {
            println!("first divergence at record {i}:");
            println!("< {}", row(i, ra));
            println!("> {}", row(i, rb));
            return Ok(ExitCode::FAILURE);
        }
    }
    if a.len() != b.len() {
        let (longer, n) = if a.len() > b.len() {
            (path_a, a.len())
        } else {
            (path_b, b.len())
        };
        println!(
            "traces agree on the first {} records, then {} continues to {}",
            a.len().min(b.len()),
            longer,
            n
        );
        return Ok(ExitCode::FAILURE);
    }
    println!("identical: {} records", a.len());
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.as_slice() {
        [cmd, file] if cmd == "dump" => dump(file),
        [cmd, a, b] if cmd == "diff" => diff(a, b),
        _ => return usage(),
    };
    result.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        ExitCode::from(2)
    })
}
