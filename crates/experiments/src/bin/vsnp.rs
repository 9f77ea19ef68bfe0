//! VSNP checkpoint inspector: decodes the headers of `.vsnp` snapshot
//! files written by `--checkpoint-every` without deserializing the
//! payload.
//!
//! The header codec is compiled unconditionally, so this tool reads any
//! checkpoint regardless of which features (`audit`, `trace`,
//! `snapshot`) it was itself built with — inspection never needs to
//! reconstruct a `Simulation`. It decodes the fields by hand rather
//! than through `read_header` so that even version-mismatched files
//! still print their header (with a note) instead of erroring out.

use std::process::ExitCode;
use vertigo_simcore::{SnapReader, SNAP_MAGIC, SNAP_VERSION};
use vertigo_workload::snapshot::{describe_flags, FLAG_AUDIT, FLAG_TRACE};

fn usage() -> ExitCode {
    eprintln!("usage: vsnp inspect FILE...    decode VSNP checkpoint headers");
    ExitCode::from(2)
}

/// One decoded header plus the payload size; everything `inspect` prints.
struct Info {
    version: u16,
    flags: u16,
    backend: u8,
    spec_hash: u64,
    time_ns: u64,
    payload_bytes: usize,
}

fn decode(bytes: &[u8]) -> Result<Info, String> {
    let mut r = SnapReader::new(bytes);
    let magic = r.get_bytes(4).map_err(|e| e.to_string())?;
    if magic != SNAP_MAGIC {
        return Err(format!("not a VSNP snapshot (magic {magic:02x?})"));
    }
    let version = r.get_u16().map_err(|e| e.to_string())?;
    let flags = r.get_u16().map_err(|e| e.to_string())?;
    let backend = r.get_u8().map_err(|e| e.to_string())?;
    let spec_hash = r.get_u64().map_err(|e| e.to_string())?;
    let time_ns = r.get_u64().map_err(|e| e.to_string())?;
    Ok(Info {
        version,
        flags,
        backend,
        spec_hash,
        time_ns,
        payload_bytes: r.remaining(),
    })
}

fn fmt_time(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.3}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.3}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.3}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

fn inspect(path: &str) -> Result<(), String> {
    let bytes = std::fs::read(path).map_err(|e| format!("{path}: {e}"))?;
    let info = decode(&bytes).map_err(|e| format!("{path}: {e}"))?;
    println!("{path}:");
    println!(
        "  version    {}{}",
        info.version,
        if info.version == SNAP_VERSION {
            String::new()
        } else {
            format!(" (this binary reads version {SNAP_VERSION}; payload not restorable here)")
        }
    );
    let known = FLAG_AUDIT | FLAG_TRACE;
    println!(
        "  features   {} (flags {:#06x}{})",
        describe_flags(info.flags),
        info.flags,
        if info.flags & !known != 0 {
            ", unknown bits set"
        } else {
            ""
        }
    );
    println!(
        "  backend    {}",
        match info.backend {
            0 => "timing wheel".to_string(),
            1 => "binary heap".to_string(),
            b => format!("invalid ({b:#x})"),
        }
    );
    println!("  spec hash  {:016x}", info.spec_hash);
    println!(
        "  sim time   {} ns ({})",
        info.time_ns,
        fmt_time(info.time_ns)
    );
    println!("  payload    {} bytes", info.payload_bytes);
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, files)) = args.split_first() else {
        return usage();
    };
    if cmd != "inspect" || files.is_empty() {
        return usage();
    }
    let mut code = ExitCode::SUCCESS;
    for path in files {
        if let Err(e) = inspect(path) {
            eprintln!("error: {e}");
            code = ExitCode::FAILURE;
        }
    }
    code
}
