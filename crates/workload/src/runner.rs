//! The high-level experiment runner: one [`RunSpec`] describes everything
//! about a run — system (ECMP / DRILL / DIBS / Vertigo), transport,
//! topology, workload, horizon, seed, and Vertigo's tuning knobs — and
//! [`RunSpec::run`] executes it and returns the paper's metrics.
//!
//! This is the single entry point used by the `experiments` binary, the
//! integration tests, and the examples, so every figure in EXPERIMENTS.md
//! is reproducible from a `RunSpec` literal.

use crate::snapshot::{self, SnapHeader, SnapshotSpec};
use crate::traffic::WorkloadSpec;
use crate::warm::{ForkSpec, SnapBuf};
use std::path::{Path, PathBuf};
use vertigo_core::{MarkingConfig, MarkingDiscipline, OrderingConfig};
use vertigo_netsim::trace::stable_hash;
use vertigo_netsim::{
    BufferPolicy, DeflectKind, DomainSimulation, FaultSchedule, ForwardPolicy, HostConfig,
    SimConfig, Simulation, SwitchConfig, Topology, TopologySpec, TraceSpec,
};
use vertigo_simcore::{EventBackend, SimDuration, SimTime, SnapReader, SNAP_VERSION};
use vertigo_stats::{Report, TRACE_HEADER_BYTES, TRACE_RECORD_BYTES};
use vertigo_transport::{CcKind, TransportConfig};

/// The four systems the paper compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SystemKind {
    /// ECMP flow hashing + tail drop.
    Ecmp,
    /// DRILL micro load balancing + tail drop.
    Drill,
    /// DIBS random deflection (fast retransmit disabled, per its paper).
    Dibs,
    /// Vertigo selective deflection + host marking/ordering.
    Vertigo,
    /// NDP-style packet trimming (extension; not part of the paper's
    /// comparison set, so excluded from [`SystemKind::all`]).
    NdpTrim,
}

impl SystemKind {
    /// Display name matching the paper's legends.
    pub fn name(self) -> &'static str {
        match self {
            SystemKind::Ecmp => "ECMP",
            SystemKind::Drill => "DRILL",
            SystemKind::Dibs => "DIBS",
            SystemKind::Vertigo => "Vertigo",
            SystemKind::NdpTrim => "NDP-Trim",
        }
    }

    /// All four, in the paper's usual legend order.
    pub fn all() -> [SystemKind; 4] {
        [
            SystemKind::Ecmp,
            SystemKind::Drill,
            SystemKind::Dibs,
            SystemKind::Vertigo,
        ]
    }
}

/// Vertigo's design knobs (paper §4.3 ablations and Fig. 12 powers).
#[derive(Debug, Clone, Copy)]
pub struct VertigoTuning {
    /// Forwarding power-of-n (`1FW` / `2FW`).
    pub fw_power: usize,
    /// Deflection power-of-n (`1DEF` / `2DEF`).
    pub defl_power: usize,
    /// SRPT scheduling in switch queues (off = "No Scheduling").
    pub scheduling: bool,
    /// Deflection itself (off = "No Deflection": SRPT drop instead).
    pub deflection: bool,
    /// RX-path re-sequencing (off = "No Ordering").
    pub ordering: bool,
    /// Retransmission boosting factor (None = "No Boosting").
    pub boost_factor: Option<u32>,
    /// SRPT (flow sizes known) or LAS (flow aging, §4.3).
    pub discipline: MarkingDiscipline,
    /// Ordering timeout τ (paper default 360 µs).
    pub tau: SimDuration,
}

impl Default for VertigoTuning {
    fn default() -> Self {
        VertigoTuning {
            fw_power: 2,
            defl_power: 2,
            scheduling: true,
            deflection: true,
            ordering: true,
            boost_factor: Some(2),
            discipline: MarkingDiscipline::Srpt,
            tau: SimDuration::from_micros(360),
        }
    }
}

impl VertigoTuning {
    /// The per-retransmission rotation, in bits, that switches and the
    /// ordering shim undo: 0 with boosting off.
    pub fn boost_shift(&self) -> u32 {
        (self.boost_factor)
            .map(vertigo_core::boost::factor_to_shift)
            .unwrap_or(0)
    }
}

/// Topology selector for runs.
#[derive(Debug, Clone, Copy)]
pub enum TopoKind {
    /// 4 spines × 8 leaves leaf-spine with this many hosts per leaf
    /// (paper scale: 40 → 320 hosts).
    LeafSpine {
        /// Hosts per leaf.
        hosts_per_leaf: usize,
    },
    /// k-ary fat-tree (paper: k = 8).
    FatTree {
        /// Arity.
        k: usize,
    },
}

/// Everything about one simulation run.
#[derive(Debug, Clone, Copy)]
pub struct RunSpec {
    /// In-network system under test.
    pub system: SystemKind,
    /// Congestion control at the hosts.
    pub cc: CcKind,
    /// Network.
    pub topo: TopoKind,
    /// Offered traffic.
    pub workload: WorkloadSpec,
    /// Simulated duration.
    pub horizon: SimDuration,
    /// Seed (identical seeds → identical offered traffic AND identical
    /// results).
    pub seed: u64,
    /// Vertigo knobs (ignored for the other systems).
    pub vertigo: VertigoTuning,
    /// Per-port switch buffer in bytes (paper: 300 KB).
    pub port_buffer_bytes: u64,
    /// The event queue: the timing wheel is the only one. Kept only
    /// because `perfbench` names it; its `Debug` form is part of
    /// [`spec_hash`](Self::spec_hash), and so of checkpoint and trace file
    /// names.
    pub event_backend: EventBackend,
    /// Deterministic fault schedule (empty by default). Faults draw from
    /// their own RNG stream, so two specs differing only here offer
    /// identical traffic.
    pub faults: FaultSchedule,
    /// Domain count for the conservative-parallel engine. `None` runs the
    /// classic single-queue engine unchanged; `Some(n)` (any n ≥ 1,
    /// including 1) runs the barrier-synchronized domain engine, whose
    /// results are byte-identical for every `n` but follow a different —
    /// equally valid — tie-breaking order than the classic engine.
    pub domains: Option<usize>,
    /// Deflection-policy override (the `--deflect` axis). `None` and
    /// `Some(Vertigo)` leave the system's native overflow policy in
    /// place; any other kind replaces the *buffer* policy on the
    /// Vertigo system only (forwarding, scheduling knobs, and host
    /// components stay Vertigo's, isolating the deflection axis).
    /// Ignored for non-Vertigo systems, which each embody their own
    /// overflow policy.
    pub deflect: Option<DeflectKind>,
    /// Composable scenario components layered *on top of* `workload`
    /// (the `--workload` axis). Empty by default — and byte-inert when
    /// empty: components draw from their own RNG streams, so two specs
    /// differing only here offer identical base traffic.
    pub scenario: crate::scenario::ScenarioSpec,
}

/// What a run produced.
#[derive(Debug)]
pub struct RunOutput {
    /// The paper's metrics.
    pub report: Report,
    /// Host ordering-shim counters (zeros when not deployed).
    pub ordering: vertigo_core::OrderingStats,
    /// Host marking counters (zeros when not deployed).
    pub marking: vertigo_core::MarkingStats,
    /// Largest single-port queue observed.
    pub max_port_bytes: u64,
    /// The workload's offered load fraction on this topology.
    pub offered_load: f64,
    /// Where the provenance trace was written, when one was requested.
    pub trace_path: Option<PathBuf>,
}

/// A run failure that a correct program can meet: a workload the topology
/// cannot carry, or `--trace`, `--checkpoint-every` or `--resume` pointed
/// at something unusable.
/// Broken internal invariants stay panics.
#[derive(Debug)]
pub enum RunError {
    /// The workload is well-formed but does not fit this run's topology
    /// or horizon: a `hosts=` range past the last host, an incast `scale=`
    /// its host set cannot serve, a window that starts at or past the
    /// horizon. Carries the whole message.
    Workload(String),
    /// The fault schedule names a node or link this run's topology does
    /// not have. Carries the whole message.
    Faults(String),
    /// More domains than the domain engine can deal nodes to.
    Domains(usize),
    /// The trace file at `path`, or its directory, could not be written.
    Trace {
        /// The per-spec trace file.
        path: PathBuf,
        /// The underlying I/O failure.
        source: std::io::Error,
    },
    /// The checkpoint file at `path`, or its directory, could not be written.
    Checkpoint {
        /// The per-spec, per-time checkpoint file.
        path: PathBuf,
        /// The underlying I/O failure.
        source: std::io::Error,
    },
    /// The `--resume` checkpoint at `path` cannot continue this run:
    /// unreadable, not a VSNP stream, or its header (magic, version, spec
    /// hash, time) names another format version or another run spec.
    Resume {
        /// The resolved checkpoint file.
        path: PathBuf,
        /// Why it was refused.
        reason: String,
    },
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Workload(why) | RunError::Faults(why) => f.write_str(why),
            RunError::Domains(n) => write!(
                f,
                "--domains {n}: the domain engine takes at most {} domains",
                Topology::MAX_DOMAINS
            ),
            RunError::Trace { path, source } => {
                write!(f, "--trace: cannot write {}: {source}", path.display())
            }
            RunError::Checkpoint { path, source } => {
                write!(
                    f,
                    "--checkpoint-every: cannot write {}: {source}",
                    path.display()
                )
            }
            RunError::Resume { path, reason } => {
                write!(f, "--resume {}: {reason}", path.display())
            }
        }
    }
}

impl std::error::Error for RunError {}

/// Writes `bytes` to `path`, creating its directory as needed.
pub(crate) fn write_creating_dir(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let dir = path.parent().filter(|d| !d.as_os_str().is_empty());
    dir.map_or(Ok(()), std::fs::create_dir_all)?;
    std::fs::write(path, bytes)
}

impl RunSpec {
    /// A run with paper-default knobs on a scaled leaf-spine (8 hosts per
    /// leaf = 64 hosts) and a 50 ms horizon.
    pub fn new(system: SystemKind, cc: CcKind, workload: WorkloadSpec) -> Self {
        RunSpec {
            system,
            cc,
            topo: TopoKind::LeafSpine { hosts_per_leaf: 8 },
            workload,
            horizon: SimDuration::from_millis(50),
            seed: 1,
            vertigo: VertigoTuning::default(),
            port_buffer_bytes: 300 * 1000,
            event_backend: EventBackend::default(),
            faults: FaultSchedule::new(),
            domains: None,
            deflect: None,
            scenario: crate::scenario::ScenarioSpec::new(),
        }
    }

    fn topology_spec(&self) -> TopologySpec {
        match self.topo {
            TopoKind::LeafSpine { hosts_per_leaf } => {
                TopologySpec::paper_leaf_spine(hosts_per_leaf)
            }
            TopoKind::FatTree { k } => TopologySpec::FatTree {
                k,
                link: vertigo_netsim::LinkParams::gbps(10, 500),
            },
        }
    }

    /// The switch configuration this spec maps to.
    pub fn switch_config(&self) -> SwitchConfig {
        let mut sw = match self.system {
            SystemKind::Ecmp => SwitchConfig::ecmp(),
            SystemKind::Drill => SwitchConfig::drill(),
            SystemKind::Dibs => SwitchConfig::dibs(),
            SystemKind::NdpTrim => SwitchConfig::ndp_trim(),
            SystemKind::Vertigo => SwitchConfig {
                forward: ForwardPolicy::PowerOfN {
                    n: self.vertigo.fw_power,
                },
                buffer: BufferPolicy::Vertigo {
                    deflect_power: self.vertigo.defl_power,
                    scheduling: self.vertigo.scheduling,
                    deflection: self.vertigo.deflection,
                },
                boost_shift: self.vertigo.boost_shift(),
                ..SwitchConfig::ecmp()
            },
        };
        // The --deflect axis: swap the overflow policy under Vertigo's
        // forwarding and host stack, so comparisons isolate deflection.
        // `vertigo` keeps the native policy, ablation switches included.
        if self.system == SystemKind::Vertigo {
            if let Some(kind) = self.deflect.filter(|&k| k != DeflectKind::Vertigo) {
                sw.buffer = kind.buffer_policy(self.vertigo.defl_power);
            }
        }
        sw.port_buffer_bytes = self.port_buffer_bytes;
        sw
    }

    /// The host configuration this spec maps to.
    pub fn host_config(&self) -> HostConfig {
        let mut transport = TransportConfig::default_for(self.cc);
        if self.system == SystemKind::Dibs {
            transport.fast_retransmit = false;
        }
        let mut host = HostConfig::plain(transport);
        if self.system == SystemKind::Vertigo {
            host.marking = Some(MarkingConfig {
                discipline: self.vertigo.discipline,
                boost_factor: self.vertigo.boost_factor,
            });
            host.ordering = self.vertigo.ordering.then(|| OrderingConfig {
                timeout: self.vertigo.tau,
                boost_shift: self.vertigo.boost_shift(),
                discipline: self.vertigo.discipline,
                ..OrderingConfig::default()
            });
        }
        host
    }

    /// Builds the simulation with the workload installed (not yet run).
    /// Panics on a workload the topology cannot carry; the staged driver
    /// reports that as [`RunError::Workload`] instead.
    pub fn build(&self) -> Simulation {
        self.try_build().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Topology, faults (`install_faults` schedules nothing, so it may
    /// come before the workload), then the one planner for the figure
    /// workload and the `--workload` components.
    pub(crate) fn try_build(&self) -> Result<Simulation, RunError> {
        let cfg = SimConfig {
            topology: self.topology_spec(),
            switch: self.switch_config(),
            host: self.host_config(),
            horizon: self.horizon,
            seed: self.seed,
        };
        let mut sim = Simulation::new(&cfg);
        if !self.faults.is_empty() {
            (self.faults.check(sim.topology()))
                .map_err(|e| RunError::Faults(format!("--faults: {e}")))?;
            sim.install_faults(&self.faults);
        }
        self.workload
            .try_install(&mut sim)
            .map_err(|e| RunError::Workload(format!("workload: {e}")))?;
        self.scenario
            .try_install(&mut sim)
            .map_err(|e| RunError::Workload(format!("--workload: {e}")))?;
        Ok(sim)
    }

    /// The run's total offered load: the base workload plus any scenario
    /// components (windowed components contribute pro-rata).
    fn offered_load_on(&self, sim: &Simulation) -> f64 {
        self.workload
            .offered_load(sim.topology().total_host_bw_bps())
            + self
                .scenario
                .offered_load(&crate::scenario::PlanContext::of(sim))
    }

    /// Runs to the horizon and collects everything.
    pub fn run(&self) -> RunOutput {
        self.run_staged(None, None, None)
    }

    /// [`try_run_staged`](Self::try_run_staged) for callers with no user
    /// to report to (tests, examples): a [`RunError`] becomes a panic
    /// carrying its message.
    pub fn run_staged(
        &self,
        trace: Option<&TraceSpec>,
        snapshot: Option<&SnapshotSpec>,
        fork: Option<&ForkSpec>,
    ) -> RunOutput {
        self.try_run_staged(trace, snapshot, fork)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// The full-option entry point behind every experiment subcommand:
    /// optional provenance tracing, optional checkpoint/resume, optional
    /// *phased* semantics.
    ///
    /// **Tracing** observes and never steers: the returned `RunOutput`
    /// (minus `trace_path`) is bit-identical to an untraced run of the
    /// same spec — CI digest-diffs this. The trace file lands at
    /// [`trace_path`](Self::trace_path), a per-spec name derived from
    /// `trace.path`, so sweeps running many cells under one `--trace`
    /// flag never collide.
    ///
    /// **Checkpoints** are written at every multiple of the requested
    /// period strictly below the end of the run, each at a *quiescent*
    /// boundary (all events up to and including the checkpoint time
    /// processed), so a resumed run pops the exact remaining event
    /// sequence. The resumed run's `RunOutput` — report, telemetry,
    /// stdout, and the trace stream from the resume point on — is
    /// byte-identical to the straight-through run's; CI digest-diffs this.
    ///
    /// **Phased**: with `fork` set, the workload's incast component is
    /// deferred to the fork horizon. Checkpoints and resumes compose with
    /// the fork: the snapshot identity hash mixes in the fork, and a
    /// resume at or past the fork horizon skips re-applying it (the
    /// producing run already did, so the deferred arrivals are in the
    /// restored queue).
    ///
    /// Failures a correct invocation can meet — a workload the topology
    /// cannot carry, an unwritable trace path, an unreadable or
    /// mismatched `--resume` file (format version or run spec; a silently
    /// wrong resume would be worse than a refusal) — come
    /// back as a [`RunError`]. Combining `domains` with a trace or a
    /// snapshot request is a caller bug and panics.
    pub fn try_run_staged(
        &self,
        trace: Option<&TraceSpec>,
        snapshot: Option<&SnapshotSpec>,
        fork: Option<&ForkSpec>,
    ) -> Result<RunOutput, RunError> {
        self.drive(trace, snapshot, fork, None)
    }

    /// The one staged driver, for both engines and for all three places a
    /// run can start from: t = 0, a `--resume` checkpoint on disk, or
    /// (`warm`) the in-memory snapshot of this cell's warmup class, taken
    /// at the fork horizon with the fork not yet applied. It builds the
    /// prefix spec, restores if asked, crosses the run's boundaries in
    /// time order — the phase at the fork horizon (the deferred incast),
    /// checkpoints at every multiple of the period — runs to the horizon,
    /// finalizes, and assembles the output.
    pub(crate) fn drive(
        &self,
        trace: Option<&TraceSpec>,
        snapshot: Option<&SnapshotSpec>,
        fork: Option<&ForkSpec>,
        warm: Option<&SnapBuf>,
    ) -> Result<RunOutput, RunError> {
        if self.domains.is_some() {
            let refusal = DomainSimulation::refusal(
                trace.is_some(),
                snapshot.is_some_and(SnapshotSpec::is_active),
            );
            if let Some(why) = refusal {
                panic!("{why}");
            }
        }
        if let Some(n) = self.domains.filter(|&n| n > Topology::MAX_DOMAINS) {
            return Err(RunError::Domains(n));
        }

        let mut sim = fork.map_or(*self, |_| self.prefix_spec()).try_build()?;
        let offered_load = self.offered_load_on(&sim);

        let (mut report, ordering, marking, max_port_bytes, trace_path) = match self.domains {
            // Byte-identical for every `n` (CI enforces `--domains 2` ≡
            // `--domains 1`). With nowhere to stop
            // at the fork horizon, the deferred incast is scheduled up
            // front: the offered traffic is the classic phased run's,
            // though, as always with the domain engine, the tie-breaking
            // order (and so the report) is its own.
            Some(n) => {
                if let Some(f) = fork {
                    self.apply_fork(&mut sim, f)?;
                }
                let mut dsim = DomainSimulation::from_sim(sim, n);
                let report = dsim.run();
                let (ordering, marking) = (dsim.ordering_stats(), dsim.marking_stats());
                (report, ordering, marking, dsim.max_port_bytes(), None)
            }
            None => {
                if let Some(spec) = trace {
                    sim.enable_trace(spec.filter, spec.capacity);
                }
                let hash = self.staged_hash(fork);
                let at = |ns: u64| SimTime::ZERO + SimDuration::from_nanos(ns);
                let started_ns = match (warm, snapshot.and_then(|s| s.resume.as_deref())) {
                    (Some(buf), _) => {
                        let fork = fork.expect("a warm start is the start of a fork");
                        Some(self.restore_warmup(&mut sim, fork, buf))
                    }
                    (None, Some(arg)) => self.try_resume(&mut sim, arg, hash)?,
                    (None, None) => None,
                };
                // The fork applies at its quiescent boundary *before* any
                // checkpoint written at the same instant, and never after
                // a resume at or past it (the producing run already
                // applied it, so the deferred arrivals are in the restored
                // queue). A warmup snapshot stands at the boundary with
                // the fork still to apply.
                let mut phase = fork
                    .filter(|f| warm.is_some() || started_ns.is_none_or(|r| r < f.at.as_nanos()));
                let mut cross = |sim: &mut Simulation, up_to: u64| match phase
                    .filter(|f| f.at.as_nanos() <= up_to)
                {
                    Some(f) => {
                        phase = None;
                        sim.drain_until(SimTime::ZERO + f.at);
                        self.apply_fork(sim, f)
                    }
                    None => Ok(()),
                };
                let end = self.horizon.as_nanos();
                if let Some(ck) = snapshot.and_then(|s| s.checkpoint.as_ref()) {
                    let every = ck.every.as_nanos();
                    let mut t = every;
                    while t < end {
                        // Checkpoints at or before the starting point
                        // already exist on disk (we resumed past them);
                        // skip, don't clobber.
                        if started_ns.is_none_or(|r| t > r) {
                            cross(&mut sim, t)?;
                            sim.drain_until(at(t));
                            let path = snapshot::write_checkpoint(&mut sim, &ck.stem, hash, t)?;
                            // Stderr, not stdout: experiment stdout is
                            // digest-diffed against straight-through runs
                            // and must stay byte-identical.
                            eprintln!("[snapshot] wrote {} (t = {t} ns)", path.display());
                        }
                        t += every;
                    }
                }
                cross(&mut sim, end)?;
                sim.drain_until(at(end));
                let report = sim.finalize();
                let trace_path = trace.map(|spec| self.write_trace(&sim, spec)).transpose()?;
                let (ordering, marking) = (sim.ordering_stats(), sim.marking_stats());
                (report, ordering, marking, sim.max_port_bytes(), trace_path)
            }
        };
        self.scenario.apply_labels(&mut report);
        Ok(RunOutput {
            report,
            ordering,
            marking,
            max_port_bytes,
            offered_load,
            trace_path,
        })
    }

    /// Writes the run's provenance trace to [`trace_path`](Self::trace_path),
    /// creating its directory as needed.
    fn write_trace(&self, sim: &Simulation, spec: &TraceSpec) -> Result<PathBuf, RunError> {
        let path = self.trace_path(spec);
        let bytes = sim.trace_bytes();
        write_creating_dir(&path, &bytes).map_err(|source| RunError::Trace {
            path: path.clone(),
            source,
        })?;
        eprintln!(
            "[trace] wrote {} ({} records)",
            path.display(),
            bytes.len().saturating_sub(TRACE_HEADER_BYTES) / TRACE_RECORD_BYTES
        );
        Ok(path)
    }

    /// Resolves and applies a `--resume` argument. Returns the resumed
    /// checkpoint's sim time, or `None` (with a stderr notice) when there
    /// is nothing on disk to resume from — the latter keeps `--resume`
    /// safe to leave in restart loops that may start from scratch.
    fn try_resume(
        &self,
        sim: &mut Simulation,
        arg: &Path,
        hash: u64,
    ) -> Result<Option<u64>, RunError> {
        let Some(path) = snapshot::resolve_resume(arg, hash) else {
            eprintln!(
                "[snapshot] nothing to resume at {} (no checkpoint for this spec); \
                 starting from t = 0",
                arg.display()
            );
            return Ok(None);
        };
        let refuse = |reason: String| RunError::Resume {
            path: path.clone(),
            reason,
        };
        let bytes = std::fs::read(&path).map_err(|e| refuse(e.to_string()))?;
        let mut r = SnapReader::new(&bytes);
        let header = snapshot::read_header(&mut r).map_err(|e| refuse(e.to_string()))?;
        let (spec_hash, time_ns) = match header {
            SnapHeader::Current { spec_hash, time_ns } => (spec_hash, time_ns),
            SnapHeader::Other { version } => {
                return Err(refuse(format!(
                    "snapshot format version {version}, this binary reads version \
                     {SNAP_VERSION}; re-create the checkpoint with this binary (or rerun \
                     without --resume)"
                )))
            }
        };
        if spec_hash != hash {
            return Err(refuse(format!(
                "snapshot belongs to a different run spec \
                 (snapshot hash {spec_hash:016x}, this spec hashes to {hash:016x}); \
                 point --resume at the matching checkpoint or drop the flag",
            )));
        }
        sim.restore_state(&mut r)
            .map_err(|e| refuse(e.to_string()))?;
        eprintln!("[snapshot] resumed {} (t = {time_ns} ns)", path.display(),);
        Ok(Some(time_ns))
    }

    /// Stable 64-bit hash of the full spec debug form — the identity tag
    /// baked into per-spec trace and checkpoint file names and into VSNP
    /// headers, so a snapshot can never be silently restored into a
    /// different experiment cell.
    pub fn spec_hash(&self) -> u64 {
        stable_hash(format!("{self:?}").as_bytes())
    }

    /// The snapshot identity hash of a (possibly phased) run: equal to
    /// [`spec_hash`](Self::spec_hash) for an unforked run — existing
    /// checkpoint names stay valid — and mixed with the fork otherwise,
    /// so a phased run's checkpoints can never be resumed into an
    /// unforked run of the same spec (the timelines differ).
    pub fn staged_hash(&self, fork: Option<&ForkSpec>) -> u64 {
        match fork {
            None => self.spec_hash(),
            Some(f) => stable_hash(format!("{self:?}|staged:{f:?}").as_bytes()),
        }
    }

    /// The file this spec's trace lands in under `spec.path`: the
    /// requested stem plus a stable 64-bit hash of the full `RunSpec`
    /// debug form, so every cell of a sweep gets its own deterministic
    /// file regardless of `--jobs` scheduling.
    pub fn trace_path(&self, trace: &TraceSpec) -> PathBuf {
        let tag = self.spec_hash();
        let stem = trace
            .path
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_else(|| "trace".to_owned());
        trace
            .path
            .with_file_name(format!("{stem}-{tag:016x}.vtrace"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dists::DistKind;
    use crate::scenario::PlanContext;
    use crate::traffic::{BackgroundSpec, IncastSpec};

    /// Panic payloads are `&str` for literal messages and `String` for
    /// formatted ones; tests below check both kinds.
    fn panic_text(err: &(dyn std::any::Any + Send)) -> String {
        err.downcast_ref::<String>()
            .cloned()
            .or_else(|| err.downcast_ref::<&str>().map(|s| (*s).to_owned()))
            .unwrap_or_default()
    }

    fn quick_workload() -> WorkloadSpec {
        WorkloadSpec {
            background: Some(BackgroundSpec {
                load: 0.15,
                dist: DistKind::CacheFollower,
            }),
            incast: Some(IncastSpec {
                qps: 300.0,
                scale: 8,
                flow_bytes: 20_000,
            }),
        }
    }

    #[test]
    fn all_systems_run_and_complete_work() {
        for system in SystemKind::all() {
            let mut spec = RunSpec::new(system, CcKind::Dctcp, quick_workload());
            spec.topo = TopoKind::LeafSpine { hosts_per_leaf: 4 };
            spec.horizon = SimDuration::from_millis(20);
            let out = spec.run();
            assert!(
                out.report.flows_completed > 0,
                "{}: nothing completed",
                system.name()
            );
            assert!(
                out.report.query_completion_ratio() > 0.5,
                "{}: too few queries done",
                system.name()
            );
        }
    }

    #[test]
    fn vertigo_deploys_host_components_others_do_not() {
        let mut spec = RunSpec::new(SystemKind::Vertigo, CcKind::Dctcp, quick_workload());
        spec.topo = TopoKind::LeafSpine { hosts_per_leaf: 4 };
        spec.horizon = SimDuration::from_millis(10);
        let out = spec.run();
        assert!(out.marking.marked > 0, "Vertigo must tag packets");

        let mut spec = RunSpec::new(SystemKind::Ecmp, CcKind::Dctcp, quick_workload());
        spec.topo = TopoKind::LeafSpine { hosts_per_leaf: 4 };
        spec.horizon = SimDuration::from_millis(10);
        let out = spec.run();
        assert_eq!(out.marking.marked, 0, "ECMP hosts must not tag");
    }

    #[test]
    fn paired_runs_share_offered_traffic() {
        // Same seed, different systems: identical flow sets, as planned
        // and as started (the recorder counts and sums them).
        let flows_of = |system| {
            let mut spec = RunSpec::new(system, CcKind::Dctcp, quick_workload());
            spec.topo = TopoKind::LeafSpine { hosts_per_leaf: 4 };
            spec.horizon = SimDuration::from_millis(10);
            let mut sim = spec.build();
            let plans = (spec.workload.plan(sim.rng(), &PlanContext::of(&sim)))
                .expect("the workload plans");
            let _ = sim.run();
            let rec = sim.recorder();
            let started = (rec.flows_started(), rec.bytes_offered());
            let planned: Vec<_> = plans.into_iter().flat_map(|p| p.flows).collect();
            (planned, started)
        };
        let ecmp = flows_of(SystemKind::Ecmp);
        assert_eq!(ecmp, flows_of(SystemKind::Vertigo));
        let (planned, started) = ecmp;
        let offered = planned.iter().map(|f| f.bytes).sum();
        assert_eq!(started, (planned.len() as u64, offered));
    }

    #[test]
    fn tuning_maps_to_switch_config() {
        let mut spec = RunSpec::new(SystemKind::Vertigo, CcKind::Dctcp, quick_workload());
        spec.vertigo.fw_power = 1;
        spec.vertigo.defl_power = 1;
        spec.vertigo.scheduling = false;
        let sw = spec.switch_config();
        assert_eq!(sw.forward, ForwardPolicy::PowerOfN { n: 1 });
        assert_eq!(
            sw.buffer,
            BufferPolicy::Vertigo {
                deflect_power: 1,
                scheduling: false,
                deflection: true
            }
        );
        assert!(!sw.buffer.wants_priority_queues());
    }

    #[test]
    fn deflect_override_swaps_buffer_policy_only() {
        let mut spec = RunSpec::new(SystemKind::Vertigo, CcKind::Dctcp, quick_workload());
        let native = spec.switch_config();
        // None and Some(Vertigo) are the native policy, bit-for-bit.
        spec.deflect = Some(DeflectKind::Vertigo);
        assert_eq!(format!("{:?}", spec.switch_config()), format!("{native:?}"));
        for (kind, expect) in [
            (
                DeflectKind::Dibs,
                BufferPolicy::Dibs {
                    max_deflections: 16,
                },
            ),
            (
                DeflectKind::Pabo,
                BufferPolicy::Pabo {
                    max_deflections: 16,
                },
            ),
            (
                DeflectKind::Hybrid,
                BufferPolicy::Hybrid { deflect_power: 2 },
            ),
            (
                DeflectKind::Bounded,
                BufferPolicy::Bounded {
                    cap: 16,
                    deflect_power: 2,
                },
            ),
        ] {
            spec.deflect = Some(kind);
            let sw = spec.switch_config();
            assert_eq!(sw.buffer, expect, "{}", kind.name());
            // The axis is isolated: forwarding stays Vertigo's.
            assert_eq!(sw.forward, native.forward, "{}", kind.name());
        }
        // Non-Vertigo systems ignore the override entirely.
        let mut spec = RunSpec::new(SystemKind::Ecmp, CcKind::Dctcp, quick_workload());
        let native = spec.switch_config();
        spec.deflect = Some(DeflectKind::Pabo);
        assert_eq!(format!("{:?}", spec.switch_config()), format!("{native:?}"));
    }

    #[test]
    fn dibs_disables_fast_retransmit() {
        let spec = RunSpec::new(SystemKind::Dibs, CcKind::Dctcp, quick_workload());
        assert!(!spec.host_config().transport.fast_retransmit);
        let spec = RunSpec::new(SystemKind::Ecmp, CcKind::Dctcp, quick_workload());
        assert!(spec.host_config().transport.fast_retransmit);
    }

    #[test]
    fn trace_path_is_per_spec_and_deterministic() {
        let trace = TraceSpec::parse("out/run.vtrace").unwrap();
        let mut a = RunSpec::new(SystemKind::Vertigo, CcKind::Dctcp, quick_workload());
        a.topo = TopoKind::LeafSpine { hosts_per_leaf: 4 };
        let mut b = a;
        b.seed = a.seed.wrapping_add(1);
        // Same spec → same file; any spec change → a different file.
        assert_eq!(a.trace_path(&trace), a.trace_path(&trace));
        assert_ne!(a.trace_path(&trace), b.trace_path(&trace));
        let p = a.trace_path(&trace);
        assert_eq!(p.parent().unwrap(), std::path::Path::new("out"));
        let name = p.file_name().unwrap().to_string_lossy().into_owned();
        assert!(
            name.starts_with("run-") && name.ends_with(".vtrace"),
            "{name}"
        );
    }

    #[test]
    fn domains_rejects_trace() {
        let mut spec = RunSpec::new(SystemKind::Vertigo, CcKind::Dctcp, quick_workload());
        spec.topo = TopoKind::LeafSpine { hosts_per_leaf: 4 };
        spec.horizon = SimDuration::from_millis(1);
        spec.domains = Some(2);
        let err = std::panic::catch_unwind(move || {
            let trace = TraceSpec::parse("out/run.vtrace").unwrap();
            spec.run_staged(Some(&trace), None, None)
        })
        .expect_err("--trace + --domains must panic, in every build");
        let msg = panic_text(&*err);
        assert!(msg.contains("drop either --trace or --domains"), "{msg}");
    }

    #[test]
    fn domains_rejects_snapshot_options() {
        let mut spec = RunSpec::new(SystemKind::Vertigo, CcKind::Dctcp, quick_workload());
        spec.topo = TopoKind::LeafSpine { hosts_per_leaf: 4 };
        spec.horizon = SimDuration::from_millis(1);
        spec.domains = Some(2);
        let err = std::panic::catch_unwind(move || {
            let snap = SnapshotSpec {
                checkpoint: None,
                resume: Some("nowhere.vsnp".into()),
            };
            spec.run_staged(None, Some(&snap), None)
        })
        .expect_err("--resume + --domains must panic, in every build");
        let msg = panic_text(&*err);
        assert!(
            msg.contains("drop either --checkpoint-every/--resume or --domains"),
            "{msg}"
        );
    }

    #[test]
    fn inactive_snapshot_spec_matches_run() {
        let mut spec = RunSpec::new(SystemKind::Vertigo, CcKind::Dctcp, quick_workload());
        spec.topo = TopoKind::LeafSpine { hosts_per_leaf: 4 };
        spec.horizon = SimDuration::from_millis(5);
        let plain = spec.run();
        // An inactive SnapshotSpec must be as good as no SnapshotSpec: the
        // experiments runner always passes the parsed one.
        let opted = spec.run_staged(None, Some(&SnapshotSpec::default()), None);
        assert_eq!(format!("{:?}", plain.report), format!("{:?}", opted.report));
    }

    #[test]
    fn checkpoint_then_resume_matches_straight_run() {
        use crate::snapshot::CheckpointSpec;

        let dir =
            std::env::temp_dir().join(format!("vertigo-runner-snap-test-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let mut spec = RunSpec::new(SystemKind::Vertigo, CcKind::Dctcp, quick_workload());
        spec.topo = TopoKind::LeafSpine { hosts_per_leaf: 4 };
        spec.horizon = SimDuration::from_millis(6);
        spec.faults = FaultSchedule::parse("loss:*:0.001@1ms-3ms").unwrap();

        let straight = spec.run();

        // Checkpoint every 2 ms (→ t = 2 ms and 4 ms, below the horizon).
        let ck = CheckpointSpec::parse(&format!("2ms:{}/ck.vsnp", dir.display())).unwrap();
        let snap = SnapshotSpec {
            checkpoint: Some(ck.clone()),
            resume: None,
        };
        let checkpointed = spec.run_staged(None, Some(&snap), None);
        assert_eq!(
            format!("{:?}", straight.report),
            format!("{:?}", checkpointed.report),
            "checkpointing must not perturb the run"
        );
        for t in [2_000_000u64, 4_000_000] {
            assert!(
                snapshot::snapshot_file(&ck.stem, spec.spec_hash(), t).is_file(),
                "missing checkpoint at t = {t} ns"
            );
        }

        // Resume from the stem (latest = 4 ms) and from each exact file;
        // all must reproduce the straight-through run.
        let mut resume_args = vec![ck.stem.clone()];
        for t in [2_000_000u64, 4_000_000] {
            resume_args.push(snapshot::snapshot_file(&ck.stem, spec.spec_hash(), t));
        }
        for arg in resume_args {
            let snap = SnapshotSpec {
                checkpoint: None,
                resume: Some(arg.clone()),
            };
            let resumed = spec.run_staged(None, Some(&snap), None);
            assert_eq!(
                format!("{:?}", straight.report),
                format!("{:?}", resumed.report),
                "resume via {} diverged",
                arg.display()
            );
            assert_eq!(straight.max_port_bytes, resumed.max_port_bytes);
            assert_eq!(
                format!("{:?}", straight.ordering),
                format!("{:?}", resumed.ordering)
            );
        }

        // Resume + checkpoint together: pre-resume checkpoints are
        // skipped (not clobbered), later ones are rewritten identically.
        let before = std::fs::read(snapshot::snapshot_file(
            &ck.stem,
            spec.spec_hash(),
            4_000_000,
        ))
        .unwrap();
        let snap = SnapshotSpec {
            checkpoint: Some(ck.clone()),
            resume: Some(snapshot::snapshot_file(
                &ck.stem,
                spec.spec_hash(),
                2_000_000,
            )),
        };
        let resumed = spec.run_staged(None, Some(&snap), None);
        assert_eq!(
            format!("{:?}", straight.report),
            format!("{:?}", resumed.report)
        );
        let after = std::fs::read(snapshot::snapshot_file(
            &ck.stem,
            spec.spec_hash(),
            4_000_000,
        ))
        .unwrap();
        assert_eq!(before, after, "re-taken checkpoint must be byte-identical");

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_rejects_foreign_spec_snapshot() {
        use crate::snapshot::CheckpointSpec;
        use vertigo_simcore::SnapWriter;

        let dir =
            std::env::temp_dir().join(format!("vertigo-runner-snap-reject-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let mut spec = RunSpec::new(SystemKind::Vertigo, CcKind::Dctcp, quick_workload());
        spec.topo = TopoKind::LeafSpine { hosts_per_leaf: 4 };
        spec.horizon = SimDuration::from_millis(4);
        let ck = CheckpointSpec::parse(&format!("2ms:{}/ck.vsnp", dir.display())).unwrap();
        let snap = SnapshotSpec {
            checkpoint: Some(ck.clone()),
            resume: None,
        };
        let _ = spec.run_staged(None, Some(&snap), None);
        let file = snapshot::snapshot_file(&ck.stem, spec.spec_hash(), 2_000_000);
        assert!(file.is_file());
        let resume = |spec: &RunSpec, file: &Path| {
            let snap = SnapshotSpec {
                checkpoint: None,
                resume: Some(file.to_path_buf()),
            };
            spec.try_run_staged(None, Some(&snap), None)
                .expect_err("an unusable checkpoint is an error, not a panic")
                .to_string()
        };

        // A different seed is a different spec: exact-file resume is refused.
        let mut other = spec;
        other.seed += 1;
        let msg = resume(&other, &file);
        assert!(msg.starts_with("--resume "), "{msg}");
        assert!(msg.contains("different run spec"), "{msg}");

        // So is a file that is not a snapshot at all, and a truncated one.
        let garbage = dir.join("garbage.vsnp");
        std::fs::write(&garbage, b"not a snapshot").unwrap();
        let msg = resume(&spec, &garbage);
        assert!(msg.contains("not a VSNP snapshot"), "{msg}");
        let bytes = std::fs::read(&file).unwrap();
        let truncated = dir.join("truncated.vsnp");
        std::fs::write(&truncated, &bytes[..bytes.len() / 2]).unwrap();
        let msg = resume(&spec, &truncated);
        assert!(msg.starts_with("--resume "), "{msg}");
        // A version-3 file (host records without their finished flows) is
        // refused at its header, before anything behind it is read; so is
        // a version-4 file, whose header carried feature flags and a
        // backend byte before the spec hash.
        let mut old = bytes.clone();
        old[4] = 3;
        let old_file = dir.join("v3.vsnp");
        std::fs::write(&old_file, &old).unwrap();
        let msg = resume(&spec, &old_file);
        let want = format!("format version 3, this binary reads version {SNAP_VERSION}");
        assert!(msg.contains(&want), "{msg}");
        let mut v4 = SnapWriter::new();
        v4.put_bytes(b"VSNP");
        v4.put_u16(4);
        v4.put_u16(0);
        v4.put_u8(0);
        v4.put_u64(spec.spec_hash());
        v4.put_u64(2_000_000);
        let mut v4 = v4.into_bytes();
        v4.extend_from_slice(&bytes[22..]);
        let v4_file = dir.join("v4.vsnp");
        std::fs::write(&v4_file, &v4).unwrap();
        let msg = resume(&spec, &v4_file);
        let want = format!("format version 4, this binary reads version {SNAP_VERSION}");
        assert!(msg.contains(&want), "{msg}");

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unwritable_trace_directory_is_an_error_not_a_panic() {
        // A regular file where the trace directory should go.
        let blocker =
            std::env::temp_dir().join(format!("vertigo-trace-blocker-{}", std::process::id()));
        std::fs::write(&blocker, b"in the way").unwrap();
        let trace = TraceSpec::parse(&format!("{}/sub/t.vtrace", blocker.display())).unwrap();
        let mut spec = RunSpec::new(SystemKind::Vertigo, CcKind::Dctcp, quick_workload());
        spec.topo = TopoKind::LeafSpine { hosts_per_leaf: 4 };
        spec.horizon = SimDuration::from_millis(1);
        let err = spec
            .try_run_staged(Some(&trace), None, None)
            .expect_err("the trace cannot be written");
        assert!(matches!(err, RunError::Trace { .. }), "{err:?}");
        assert!(
            err.to_string().starts_with("--trace: cannot write "),
            "{err}"
        );
        std::fs::remove_file(&blocker).ok();
    }

    /// Tracing observes, never steers: armed, each cell's report,
    /// ordering and marking counters equal the disarmed run's. Next to a
    /// filtered clean cell runs an unfiltered faulted one, so every hook
    /// records, the fault-drop path's included.
    #[test]
    fn traced_run_writes_file_and_keeps_report_identical() {
        let dir = std::env::temp_dir().join("vertigo-runner-trace-test");
        let mut clean = RunSpec::new(SystemKind::Vertigo, CcKind::Dctcp, quick_workload());
        clean.topo = TopoKind::LeafSpine { hosts_per_leaf: 4 };
        clean.horizon = SimDuration::from_millis(5);
        let mut faulted = RunSpec::new(
            SystemKind::Vertigo,
            CcKind::Dctcp,
            WorkloadSpec {
                background: Some(BackgroundSpec {
                    load: 0.4,
                    dist: DistKind::WebSearch,
                }),
                incast: Some(IncastSpec {
                    qps: 500.0,
                    scale: 10,
                    flow_bytes: 40_000,
                }),
            },
        );
        faulted.topo = TopoKind::LeafSpine { hosts_per_leaf: 4 };
        faulted.horizon = SimDuration::from_millis(20);
        faulted.seed = 17;
        faulted.faults = FaultSchedule::parse("loss:*:0.01@1ms-15ms").unwrap();
        for (spec, filter, flow) in [(clean, ":flow=1", Some(1)), (faulted, "", None)] {
            let trace = TraceSpec::parse(&format!("{}/t.vtrace{filter}", dir.display())).unwrap();
            let plain = spec.run();
            let traced = spec.run_staged(Some(&trace), None, None);
            let observed = |o: &RunOutput| {
                format!(
                    "{:?} {:?} {:?} {}",
                    o.report, o.ordering, o.marking, o.max_port_bytes
                )
            };
            assert_eq!(
                observed(&plain),
                observed(&traced),
                "tracing must not perturb the simulation"
            );
            let path = traced.trace_path.expect("trace path set");
            let bytes = std::fs::read(&path).unwrap();
            let (header, records) = vertigo_stats::parse_trace(&bytes).unwrap();
            assert_eq!(header.records, records.len() as u64);
            assert!(!records.is_empty());
            if let Some(flow) = flow {
                assert!(records.iter().all(|r| r.flow == flow), "filter must apply");
            } else {
                assert!(plain.report.fault_events > 0, "the loss window bit");
                let fault_drop = |r: &&vertigo_stats::TraceRecord| {
                    r.kind() == Some(vertigo_stats::TraceKind::Drop)
                        && r.a == vertigo_stats::DropCause::LinkLoss.index() as u64
                };
                assert!(
                    records.iter().any(|r| fault_drop(&r)),
                    "no fault-drop record"
                );
            }
            std::fs::remove_file(&path).ok();
        }
    }
}
