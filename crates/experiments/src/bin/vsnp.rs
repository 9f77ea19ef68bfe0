//! VSNP checkpoint inspector: decodes the headers of `.vsnp` snapshot
//! files written by `--checkpoint-every` without deserializing the
//! payload.
//!
//! It reads any checkpoint whatever features (`audit`, `trace`) either
//! build carried — inspection never reconstructs a `Simulation` — through
//! the one header decoder, `snapshot::read_header`, which leaves the
//! version to the caller: a file of another format version still prints,
//! with a note.

use std::process::ExitCode;
use vertigo_netsim::grammar::fmt_dur;
use vertigo_simcore::{SimDuration, SnapReader, SNAP_VERSION};
use vertigo_workload::snapshot::{describe_flags, read_header, FLAG_AUDIT, FLAG_TRACE};

fn usage() -> ExitCode {
    eprintln!("usage: vsnp inspect FILE...    decode VSNP checkpoint headers");
    ExitCode::from(2)
}

fn inspect(path: &str) -> Result<(), String> {
    let bytes = std::fs::read(path).map_err(|e| format!("{path}: {e}"))?;
    let mut r = SnapReader::new(&bytes);
    let h = read_header(&mut r).map_err(|e| format!("{path}: {e}"))?;
    println!("{path}:");
    println!(
        "  version    {}{}",
        h.version,
        if h.version == SNAP_VERSION {
            String::new()
        } else {
            format!(" (this binary reads version {SNAP_VERSION}; payload not restorable here)")
        }
    );
    let known = FLAG_AUDIT | FLAG_TRACE;
    println!(
        "  features   {} (flags {:#06x}{})",
        describe_flags(h.flags),
        h.flags,
        if h.flags & !known != 0 {
            ", unknown bits set"
        } else {
            ""
        }
    );
    println!(
        "  backend    {}",
        match h.backend {
            0 => "timing wheel",
            _ => "binary heap",
        }
    );
    println!("  spec hash  {:016x}", h.spec_hash);
    println!(
        "  sim time   {} ns ({})",
        h.time_ns,
        fmt_dur(SimDuration::from_nanos(h.time_ns))
    );
    println!("  payload    {} bytes", r.remaining());
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
