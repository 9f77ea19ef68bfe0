//! VSNP checkpoint inspector: decodes the headers of `.vsnp` snapshot
//! files written by `--checkpoint-every` without deserializing the
//! payload.
//!
//! Inspection never reconstructs a `Simulation`. It goes through the one
//! header decoder, `snapshot::read_header`: a file of another format
//! version prints its version, with a note, and nothing else. A reader
//! that closes the pipe early ends the output, with exit 0.

use std::error::Error;
use std::io::{self, Write};
use std::process::ExitCode;
use vertigo_netsim::grammar::fmt_dur;
use vertigo_simcore::{SimDuration, SnapReader, SNAP_VERSION};
use vertigo_workload::snapshot::{read_header, SnapHeader};

fn usage() -> ExitCode {
    eprintln!("usage: vsnp inspect FILE...    decode VSNP checkpoint headers");
    ExitCode::from(2)
}

/// Prints the header of the snapshot at `path`; fails on an unreadable
/// file or header, or a failed write to `out`.
fn inspect(path: &str, out: &mut impl Write) -> Result<(), Box<dyn Error>> {
    let bytes = std::fs::read(path).map_err(|e| format!("{path}: {e}"))?;
    let mut r = SnapReader::new(&bytes);
    let h = read_header(&mut r).map_err(|e| format!("{path}: {e}"))?;
    writeln!(out, "{path}:")?;
    match h {
        SnapHeader::Other { version } => writeln!(
            out,
            "  version    {version} (this binary reads version {SNAP_VERSION}; \
             payload not restorable here)"
        )?,
        SnapHeader::Current { spec_hash, time_ns } => {
            writeln!(out, "  version    {SNAP_VERSION}")?;
            writeln!(out, "  spec hash  {spec_hash:016x}")?;
            writeln!(
                out,
                "  sim time   {time_ns} ns ({})",
                fmt_dur(SimDuration::from_nanos(time_ns))
            )?;
            writeln!(out, "  payload    {} bytes", r.remaining())?;
        }
    }
    Ok(out.flush()?)
}

/// Whether `e` is a write to a reader that has stopped reading (`| head`):
/// the output ends there, and that is no error.
fn reader_gone(e: &(dyn Error + 'static)) -> bool {
    e.downcast_ref::<io::Error>()
        .is_some_and(|e| e.kind() == io::ErrorKind::BrokenPipe)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, files)) = args.split_first() else {
        return usage();
    };
    if cmd != "inspect" || files.is_empty() {
        return usage();
    }
    let mut out = io::stdout().lock();
    let mut code = ExitCode::SUCCESS;
    for path in files {
        match inspect(path, &mut out) {
            Ok(()) => {}
            Err(e) if reader_gone(&*e) => return ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                code = ExitCode::FAILURE;
            }
        }
    }
    code
}
