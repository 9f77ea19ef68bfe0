//! VSNP checkpoint inspector: decodes the headers of `.vsnp` snapshot
//! files written by `--checkpoint-every` without deserializing the
//! payload.
//!
//! Inspection never reconstructs a `Simulation`. It goes through the one
//! header decoder, `snapshot::read_header`: a file of another format
//! version prints its version, with a note, and nothing else.

use std::process::ExitCode;
use vertigo_netsim::grammar::fmt_dur;
use vertigo_simcore::{SimDuration, SnapReader, SNAP_VERSION};
use vertigo_workload::snapshot::{read_header, SnapHeader};

fn usage() -> ExitCode {
    eprintln!("usage: vsnp inspect FILE...    decode VSNP checkpoint headers");
    ExitCode::from(2)
}

fn inspect(path: &str) -> Result<(), String> {
    let bytes = std::fs::read(path).map_err(|e| format!("{path}: {e}"))?;
    let mut r = SnapReader::new(&bytes);
    let h = read_header(&mut r).map_err(|e| format!("{path}: {e}"))?;
    println!("{path}:");
    match h {
        SnapHeader::Other { version } => println!(
            "  version    {version} (this binary reads version {SNAP_VERSION}; \
             payload not restorable here)"
        ),
        SnapHeader::Current { spec_hash, time_ns } => {
            println!("  version    {SNAP_VERSION}");
            println!("  spec hash  {spec_hash:016x}");
            println!(
                "  sim time   {time_ns} ns ({})",
                fmt_dur(SimDuration::from_nanos(time_ns))
            );
            println!("  payload    {} bytes", r.remaining());
        }
    }
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
