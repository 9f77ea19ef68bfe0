//! Checkpoint/resume plumbing for experiment runs: the VSNP file format
//! (header framing around [`Simulation::save_state`] payloads), the
//! `--checkpoint-every SIMTIME[:PATH]` / `--resume PATH` CLI grammar,
//! and on-disk file naming/resolution.
//!
//! ## File format
//!
//! ```text
//! magic    [u8; 4]  "VSNP"
//! version  u16      SNAP_VERSION (a restore refuses mismatches)
//! spechash u64      stable hash of the producing RunSpec's debug form
//! time_ns  u64      checkpoint simulation time
//! payload  ...      Simulation::save_state byte stream
//! ```
//!
//! Every build writes the same payload layout: the audit tallies count in
//! every build, and so does the trace sink, armed or not. So a checkpoint
//! taken by a debug build resumes in a release build and the other way
//! round, an armed trace included.
//!
//! ## Naming
//!
//! Checkpoints land at `{stem}-{spechash:016x}-t{ns}.vsnp` next to the
//! requested stem, so sweep cells sharing one `--checkpoint-every` flag
//! never collide, and `--resume` can name either an exact file or the
//! stem (which resolves to the latest checkpoint for the spec).

use crate::runner::{write_creating_dir, RunError};
use std::path::{Path, PathBuf};
use vertigo_netsim::grammar::parse_dur;
use vertigo_netsim::Simulation;
use vertigo_simcore::{SimDuration, SnapError, SnapReader, SnapWriter, SNAP_MAGIC, SNAP_VERSION};

/// Default checkpoint stem when `--checkpoint-every` gives only a period.
pub const DEFAULT_CHECKPOINT_STEM: &str = "checkpoints/ckpt.vsnp";

/// Parsed `--checkpoint-every SIMTIME[:PATH]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointSpec {
    /// Checkpoint period; snapshots are written at every multiple
    /// strictly below the horizon.
    pub every: SimDuration,
    /// Stem path the per-spec file names are derived from.
    pub stem: PathBuf,
}

impl CheckpointSpec {
    /// Parses `SIMTIME[:PATH]`, e.g. `6ms`, `2.5ms` or `500us:out/ck.vsnp`
    /// (the `--faults` time literal: a number with an `ns|us|ms|s` unit).
    pub fn parse(s: &str) -> Result<Self, String> {
        let (time_s, path_s) = match s.split_once(':') {
            Some((t, p)) => (t, Some(p)),
            None => (s, None),
        };
        let every = parse_dur(time_s.trim())?;
        if every.as_nanos() == 0 {
            return Err("checkpoint period must be positive".into());
        }
        let stem = match path_s {
            Some(p) if !p.trim().is_empty() => PathBuf::from(p.trim()),
            _ => PathBuf::from(DEFAULT_CHECKPOINT_STEM),
        };
        Ok(CheckpointSpec { every, stem })
    }
}

/// Both snapshot-related CLI knobs of one run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SnapshotSpec {
    /// Periodic checkpointing, if requested.
    pub checkpoint: Option<CheckpointSpec>,
    /// Resume source (exact `.vsnp` file or a checkpoint stem), if
    /// requested. A missing file is not an error: the run starts from
    /// t = 0 with a stderr notice, so `--resume` is idempotently safe in
    /// restart loops.
    pub resume: Option<PathBuf>,
}

impl SnapshotSpec {
    /// Whether either knob was given.
    pub fn is_active(&self) -> bool {
        self.checkpoint.is_some() || self.resume.is_some()
    }
}

/// A decoded snapshot file header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapHeader {
    /// A header of [`SNAP_VERSION`], the only format that restores.
    Current {
        /// Stable hash of the producing `RunSpec`.
        spec_hash: u64,
        /// Simulation time of the checkpoint, in nanoseconds.
        time_ns: u64,
    },
    /// Another format version. Its layout is not this build's, so nothing
    /// behind the version is decoded.
    Other {
        /// The file's format version.
        version: u16,
    },
}

/// Writes the VSNP header for a checkpoint about to be serialized.
pub fn write_header(w: &mut SnapWriter, spec_hash: u64, time_ns: u64) {
    w.put_bytes(&SNAP_MAGIC);
    w.put_u16(SNAP_VERSION);
    w.put_u64(spec_hash);
    w.put_u64(time_ns);
}

/// Decodes a VSNP header, refusing only what is not one: a wrong magic or
/// a truncation. The caller that restores refuses another version and
/// checks `spec_hash` against its own spec (it knows how to phrase those
/// failures actionably); an inspector prints them.
pub fn read_header(r: &mut SnapReader<'_>) -> Result<SnapHeader, SnapError> {
    let magic = r.get_bytes(4)?;
    if magic != SNAP_MAGIC {
        return Err(SnapError::new(format!(
            "not a VSNP snapshot (magic {magic:02x?})"
        )));
    }
    let version = r.get_u16()?;
    if version != SNAP_VERSION {
        return Ok(SnapHeader::Other { version });
    }
    Ok(SnapHeader::Current {
        spec_hash: r.get_u64()?,
        time_ns: r.get_u64()?,
    })
}

/// The on-disk name for a checkpoint of the spec with `spec_hash` at
/// `time_ns`, derived from `stem` (same directory, per-spec file name).
pub fn snapshot_file(stem: &Path, spec_hash: u64, time_ns: u64) -> PathBuf {
    let base = stem
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| "ckpt".to_owned());
    stem.with_file_name(format!("{base}-{spec_hash:016x}-t{time_ns}.vsnp"))
}

/// Serializes a checkpoint of `sim` to `snapshot_file(stem, ..)`,
/// creating parent directories as needed. Returns the path written, or
/// [`RunError::Checkpoint`] when the directory or file cannot be.
pub fn write_checkpoint(
    sim: &mut Simulation,
    stem: &Path,
    spec_hash: u64,
    time_ns: u64,
) -> Result<PathBuf, RunError> {
    let mut w = SnapWriter::new();
    write_header(&mut w, spec_hash, time_ns);
    sim.save_state(&mut w);
    let path = snapshot_file(stem, spec_hash, time_ns);
    match write_creating_dir(&path, &w.into_bytes()) {
        Ok(()) => Ok(path),
        Err(source) => Err(RunError::Checkpoint { path, source }),
    }
}

/// Resolves a `--resume` argument for the spec with `spec_hash`:
///
/// * an existing file resolves to itself;
/// * otherwise the argument is treated as a checkpoint stem, and the
///   highest-`t` checkpoint of this spec next to it (if any) wins;
/// * `None` means "nothing to resume from" — callers run from t = 0.
pub fn resolve_resume(arg: &Path, spec_hash: u64) -> Option<PathBuf> {
    if arg.is_file() {
        return Some(arg.to_path_buf());
    }
    let dir = match arg.parent() {
        Some(p) if !p.as_os_str().is_empty() => p.to_path_buf(),
        _ => PathBuf::from("."),
    };
    let base = arg
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| "ckpt".to_owned());
    let prefix = format!("{base}-{spec_hash:016x}-t");
    let mut best: Option<(u64, PathBuf)> = None;
    for entry in std::fs::read_dir(&dir).ok()?.flatten() {
        let name = entry.file_name().to_string_lossy().into_owned();
        let Some(t) = name
            .strip_prefix(&prefix)
            .and_then(|rest| rest.strip_suffix(".vsnp"))
            .and_then(|ns| ns.parse::<u64>().ok())
        else {
            continue;
        };
        if best.as_ref().is_none_or(|(bt, _)| t > *bt) {
            best = Some((t, entry.path()));
        }
    }
    best.map(|(_, p)| p)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simtime_grammar() {
        let every = |s: &str| CheckpointSpec::parse(s).map(|c| c.every);
        assert_eq!(every("6ms").unwrap(), SimDuration::from_millis(6));
        assert_eq!(every("500us").unwrap(), SimDuration::from_micros(500));
        assert_eq!(every("2s").unwrap(), SimDuration::from_nanos(2_000_000_000));
        assert_eq!(every("42ns").unwrap(), SimDuration::from_nanos(42));
        // One literal grammar with `--faults`: fractions are fine.
        assert_eq!(every("2.5ms").unwrap(), SimDuration::from_micros(2500));
        assert!(every("6").is_err(), "unit required");
        assert!(every("ms").is_err());
        assert!(every("-3ms").is_err());
        assert!(every("99999999999999999999s").is_err(), "must fit u64 ns");
    }

    #[test]
    fn checkpoint_spec_grammar() {
        let c = CheckpointSpec::parse("6ms").unwrap();
        assert_eq!(c.every, SimDuration::from_millis(6));
        assert_eq!(c.stem, PathBuf::from(DEFAULT_CHECKPOINT_STEM));
        let c = CheckpointSpec::parse("500us:out/ck.vsnp").unwrap();
        assert_eq!(c.every, SimDuration::from_micros(500));
        assert_eq!(c.stem, PathBuf::from("out/ck.vsnp"));
        assert!(CheckpointSpec::parse("0ms").is_err(), "zero period");
        assert!(CheckpointSpec::parse("nope").is_err());
    }

    #[test]
    fn header_round_trips_and_validates() {
        let mut w = SnapWriter::new();
        write_header(&mut w, 0xDEAD_BEEF, 6_000_000);
        let bytes = w.into_bytes();
        assert_eq!(bytes.len(), 22, "magic, version, spec hash, time");
        let h = read_header(&mut SnapReader::new(&bytes)).unwrap();
        assert_eq!(
            h,
            SnapHeader::Current {
                spec_hash: 0xDEAD_BEEF,
                time_ns: 6_000_000
            }
        );

        // Wrong magic.
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(read_header(&mut SnapReader::new(&bad)).is_err());

        // Another version decodes to its version alone (a restore refuses
        // it; an inspector prints it), whatever follows it.
        for version in [3u16, 4, 6] {
            let mut old = bytes[..6].to_vec();
            old[4..6].copy_from_slice(&version.to_le_bytes());
            let h = read_header(&mut SnapReader::new(&old)).unwrap();
            assert_eq!(h, SnapHeader::Other { version });
        }

        // Every truncation of a current header is refused.
        for n in 0..bytes.len() {
            assert!(
                read_header(&mut SnapReader::new(&bytes[..n])).is_err(),
                "{n}"
            );
        }
    }

    #[test]
    fn file_naming_and_resolution() {
        let dir = std::env::temp_dir().join(format!("vertigo-snap-naming-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let stem = dir.join("ck.vsnp");
        let hash = 0xABCD_EF01_2345_6789u64;
        // No files yet: nothing to resume.
        assert_eq!(resolve_resume(&stem, hash), None);
        for t in [1_000u64, 9_000, 5_000] {
            std::fs::write(snapshot_file(&stem, hash, t), b"x").unwrap();
        }
        // A foreign spec's checkpoint must not match.
        std::fs::write(snapshot_file(&stem, hash ^ 1, 99_000), b"x").unwrap();
        let got = resolve_resume(&stem, hash).expect("latest");
        assert_eq!(got, snapshot_file(&stem, hash, 9_000));
        // An exact file path resolves to itself even with a higher-t sibling.
        let exact = snapshot_file(&stem, hash, 5_000);
        assert_eq!(resolve_resume(&exact, hash), Some(exact));
        std::fs::remove_dir_all(&dir).ok();
    }
}
