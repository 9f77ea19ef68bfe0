//! Warm-started (snapshot-forked) runs.
//!
//! A figure grid re-simulates the same warmup prefix in every cell: all
//! four systems at one background load share identical dynamics until
//! the incast burst (and any per-cell knob override) kicks in. This
//! module splits a run into a **prefix** (everything before a fork
//! horizon) and a **suffix** (the deferred incast plus fork-time knob
//! overrides), so one simulated prefix can be captured once into an
//! in-memory VSNP snapshot and forked into every cell of its
//! *equivalence class*.
//!
//! The contract, enforced by proptest and by the CI warm-vs-cold digest
//! diff, is exact: a forked run's `RunOutput` is byte-identical to the
//! straight-through phased run of the same spec. Three properties make
//! that hold:
//!
//! 1. [`crate::traffic::install_incast_from`] draws from an RNG stream
//!    forked off the run *seed* (never the live RNG state), so the
//!    deferred arrivals are a pure function of `(spec, fork.at, seed)`.
//! 2. The event queue's snapshot codec preserves pop order *and* the
//!    insertion counter, so arrivals installed after a restore tie-break
//!    exactly like arrivals installed after a plain `drain_until`.
//! 3. `restore(save(S)) ≡ S` — the PR5 resume oracle, CI-enforced on
//!    both event backends.
//!
//! Classes where [`RunSpec::fork_key`] cannot prove prefix-equivalence
//! return `None` and the sweep engine falls back to a cold start for
//! those cells (counted in its footer, never guessed).

use crate::runner::{RunOutput, RunSpec};
use crate::snapshot::{self, SnapHeader};
use vertigo_netsim::trace::stable_hash;
use vertigo_netsim::Simulation;
use vertigo_simcore::{SimDuration, SimTime, SnapError, SnapReader, SnapWriter};

/// Knobs that may be re-tuned at the fork horizon without invalidating
/// the shared warmup prefix. Everything here only shapes dynamics *after*
/// it is applied, so two specs differing solely in overrides share an
/// equivalence class — this is what the `tune` search exploits.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ForkOverrides {
    /// Ordering timeout τ (Vertigo hosts).
    pub tau: Option<SimDuration>,
    /// Deflection power-of-d (Vertigo switches).
    pub defl_power: Option<usize>,
    /// Per-port buffer cap in bytes (all switches).
    pub port_buffer_bytes: Option<u64>,
    /// DCTCP/ECN marking threshold in packets (all switches).
    pub ecn_threshold_pkts: Option<usize>,
}

impl ForkOverrides {
    /// No knob is overridden.
    pub fn is_empty(&self) -> bool {
        *self == ForkOverrides::default()
    }
}

/// How a phased run splits one cell: the fork horizon, whether the
/// incast component is deferred past it, and the knob overrides applied
/// when crossing it.
#[derive(Debug, Clone, Copy)]
pub struct ForkSpec {
    /// The fork horizon: the quiescent boundary the warmup runs to and
    /// the suffix continues from.
    pub at: SimDuration,
    /// Defer the workload's incast component to `at` (the background
    /// component always runs from t = 0). This is what lets cells
    /// differing only in incast intensity share a warmup.
    pub defer_incast: bool,
    /// Knob overrides applied at `at`.
    pub overrides: ForkOverrides,
}

impl ForkSpec {
    /// A fork at `at` deferring the incast, with no knob overrides —
    /// the shape every figure grid uses.
    pub fn at(at: SimDuration) -> Self {
        ForkSpec {
            at,
            defer_incast: true,
            overrides: ForkOverrides::default(),
        }
    }
}

/// An in-memory VSNP snapshot: the same header + payload bytes a
/// `--checkpoint-every` file holds, minus the disk round-trip. Captured
/// once per equivalence class by [`RunSpec::run_warmup`] and forked by
/// every cell of the class via [`RunSpec::run_forked`].
pub struct SnapBuf {
    bytes: Vec<u8>,
}

impl SnapBuf {
    /// Total size in bytes (header + payload).
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// True if the buffer is empty (never the case for a captured one).
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Parses the VSNP header and returns it with a reader positioned at
    /// the start of the payload.
    pub fn open(&self) -> Result<(SnapHeader, SnapReader<'_>), SnapError> {
        let mut r = SnapReader::new(&self.bytes);
        let header = snapshot::read_header(&mut r)?;
        Ok((header, r))
    }
}

impl RunSpec {
    /// The spec whose dynamics the warmup prefix follows: this spec with
    /// the deferred workload components stripped. Knob overrides live in
    /// the [`ForkSpec`], not here, so the prefix runs the *base* knob
    /// values.
    pub fn prefix_spec(&self, fork: &ForkSpec) -> RunSpec {
        let mut p = *self;
        if fork.defer_incast {
            p.workload.incast = None;
        }
        p
    }

    /// Applies the fork to a simulation standing at the fork horizon:
    /// knob overrides first, then the deferred incast arrivals.
    pub(crate) fn apply_fork(&self, sim: &mut Simulation, fork: &ForkSpec) {
        let o = fork.overrides;
        if let Some(tau) = o.tau {
            sim.override_ordering_timeout(tau);
        }
        if let Some(d) = o.defl_power {
            sim.override_deflect_power(d);
        }
        if let Some(b) = o.port_buffer_bytes {
            sim.override_port_buffer_bytes(b);
        }
        if let Some(k) = o.ecn_threshold_pkts {
            sim.override_ecn_threshold_pkts(k);
        }
        if fork.defer_incast {
            if let Some(inc) = self.workload.incast {
                crate::traffic::install_incast_from(sim, inc, fork.at);
            }
        }
    }

    /// The conservative warmup-equivalence key: a stable hash of exactly
    /// the state that shapes dynamics *before* the fork horizon — the
    /// prefix spec (deferred incast stripped, overrides excluded) plus
    /// the horizon itself. Two cells with equal keys may share one
    /// warmup snapshot.
    ///
    /// Returns `None` when prefix-equivalence cannot be proven or a warm
    /// start cannot apply: the domain engine (different tie-breaking
    /// order, no quiescent single-queue state), a fork at t = 0 or at/past
    /// the horizon, or a fork that defers and overrides nothing. Callers
    /// fall back to a cold start on `None`.
    pub fn fork_key(&self, fork: &ForkSpec) -> Option<u64> {
        if self.domains.is_some() {
            return None;
        }
        let at = fork.at.as_nanos();
        if at == 0 || at >= self.horizon.as_nanos() {
            return None;
        }
        let defers = fork.defer_incast && self.workload.incast.is_some();
        if !defers && fork.overrides.is_empty() {
            return None;
        }
        let prefix = self.prefix_spec(fork);
        Some(stable_hash(
            format!("fork@{at}ns defer={} {prefix:?}", fork.defer_incast).as_bytes(),
        ))
    }

    /// Runs the shared warmup prefix of this spec's equivalence class to
    /// the fork horizon and captures it as an in-memory snapshot. The
    /// buffer's header carries the class key, so forking it into a cell
    /// of a *different* class fails loudly.
    pub fn run_warmup(&self, fork: &ForkSpec) -> SnapBuf {
        let key = self
            .fork_key(fork)
            .expect("run_warmup: spec is not warm-startable (fork_key is None)");
        let prefix = self.prefix_spec(fork);
        let mut sim = prefix.build();
        sim.drain_until(SimTime::ZERO + fork.at);
        let mut w = SnapWriter::new();
        snapshot::write_header(&mut w, self.event_backend, key, fork.at.as_nanos());
        sim.save_state(&mut w);
        SnapBuf {
            bytes: w.into_bytes(),
        }
    }

    /// Restores the class warmup and continues as this cell: applies the
    /// fork (overrides + deferred incast) and runs to the horizon. The
    /// output is byte-identical to [`run_phased`](Self::run_phased) of
    /// the same spec — the warm-start oracle.
    pub fn run_forked(&self, fork: &ForkSpec, buf: &SnapBuf) -> RunOutput {
        self.run_forked_until(fork, buf, None)
    }

    /// Like [`run_forked`](Self::run_forked), but draining only `window`
    /// past the fork horizon (clamped to the spec horizon) before
    /// finalizing — the cheap-evaluation rungs of successive halving.
    /// `None` runs to the horizon.
    pub fn run_forked_until(
        &self,
        fork: &ForkSpec,
        buf: &SnapBuf,
        window: Option<SimDuration>,
    ) -> RunOutput {
        let key = self
            .fork_key(fork)
            .expect("run_forked: spec is not warm-startable (fork_key is None)");
        let (header, mut r) = buf
            .open()
            .unwrap_or_else(|e| panic!("warm-start: corrupt snapshot buffer: {e}"));
        assert!(
            header.flags == snapshot::build_flags(),
            "warm-start: snapshot was captured by a build with {} but this binary \
             was built with {} — the feature set changes the snapshot layout",
            snapshot::describe_flags(header.flags),
            snapshot::describe_flags(snapshot::build_flags()),
        );
        assert!(
            header.backend == self.event_backend,
            "warm-start: snapshot was captured on the {:?} event backend but this \
             spec runs {:?}",
            header.backend,
            self.event_backend,
        );
        assert!(
            header.spec_hash == key,
            "warm-start: snapshot belongs to a different equivalence class \
             (snapshot key {:016x}, this cell's key {key:016x}); \
             never fork across classes",
            header.spec_hash,
        );
        assert!(
            header.time_ns == fork.at.as_nanos(),
            "warm-start: snapshot was captured at t = {} ns but the fork horizon \
             is {} ns",
            header.time_ns,
            fork.at.as_nanos(),
        );
        let prefix = self.prefix_spec(fork);
        // Restore replaces the event queue wholesale, so build without
        // the workload — pre-installing arrivals would be wasted work.
        let mut sim = prefix.build_bare();
        sim.restore_state(&mut r)
            .unwrap_or_else(|e| panic!("warm-start: restoring snapshot buffer: {e}"));
        self.finish_from_fork(sim, fork, window)
    }

    /// The cold twin of [`run_forked`](Self::run_forked): the same
    /// phased semantics (prefix to the fork horizon, then overrides +
    /// deferred incast) simulated straight through, no snapshot.
    pub fn run_phased(&self, fork: &ForkSpec) -> RunOutput {
        self.run_staged(None, None, Some(fork))
    }

    /// Cold twin of [`run_forked_until`](Self::run_forked_until).
    pub fn run_phased_until(&self, fork: &ForkSpec, window: Option<SimDuration>) -> RunOutput {
        assert!(
            self.domains.is_none(),
            "phased measurement windows require the classic engine"
        );
        let prefix = self.prefix_spec(fork);
        let mut sim = prefix.build();
        sim.drain_until(SimTime::ZERO + fork.at);
        self.finish_from_fork(sim, fork, window)
    }

    /// Shared suffix: apply the fork to a sim standing at the fork
    /// horizon, drain the measurement window, finalize, and collect.
    fn finish_from_fork(
        &self,
        mut sim: Simulation,
        fork: &ForkSpec,
        window: Option<SimDuration>,
    ) -> RunOutput {
        self.apply_fork(&mut sim, fork);
        let limit = match window {
            Some(w) => (fork.at + w).min(self.horizon),
            None => self.horizon,
        };
        sim.drain_until(SimTime::ZERO + limit);
        let mut report = sim.finalize();
        self.scenario.apply_labels(&mut report);
        RunOutput {
            ordering: sim.ordering_stats(),
            marking: sim.marking_stats(),
            max_port_bytes: sim.max_port_bytes(),
            offered_load: self.offered_load_on(&sim),
            trace_path: None,
            report,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dists::DistKind;
    use crate::traffic::{BackgroundSpec, IncastSpec};
    use crate::{SystemKind, TopoKind};
    use vertigo_transport::CcKind;

    fn base_spec() -> RunSpec {
        let mut spec = RunSpec::new(
            SystemKind::Vertigo,
            CcKind::Dctcp,
            crate::WorkloadSpec {
                background: Some(BackgroundSpec {
                    load: 0.20,
                    dist: DistKind::CacheFollower,
                }),
                incast: Some(IncastSpec {
                    qps: 400.0,
                    scale: 8,
                    flow_bytes: 20_000,
                }),
            },
        );
        spec.topo = TopoKind::LeafSpine { hosts_per_leaf: 4 };
        spec.horizon = SimDuration::from_millis(4);
        spec
    }

    fn fork() -> ForkSpec {
        ForkSpec::at(SimDuration::from_millis(1))
    }

    fn output_digest(out: &RunOutput) -> String {
        format!(
            "{:?}|{:?}|{:?}|{}|{}",
            out.report, out.ordering, out.marking, out.max_port_bytes, out.offered_load
        )
    }

    #[test]
    fn forked_run_matches_cold_phased_run() {
        let spec = base_spec();
        let f = fork();
        let cold = spec.run_phased(&f);
        let buf = spec.run_warmup(&f);
        let warm = spec.run_forked(&f, &buf);
        assert_eq!(output_digest(&cold), output_digest(&warm));
        assert!(
            cold.report.flows_completed > 0,
            "trivial run proves nothing"
        );
    }

    #[test]
    fn cells_differing_only_post_fork_share_a_class() {
        let a = base_spec();
        let mut b = a;
        b.workload.incast = Some(IncastSpec {
            qps: 900.0,
            scale: 12,
            flow_bytes: 40_000,
        });
        let f = fork();
        assert_eq!(a.fork_key(&f), b.fork_key(&f));

        // Overrides are post-fork too: same class.
        let mut with_overrides = f;
        with_overrides.overrides.tau = Some(SimDuration::from_micros(720));
        with_overrides.overrides.ecn_threshold_pkts = Some(20);
        assert_eq!(a.fork_key(&f), a.fork_key(&with_overrides));
    }

    #[test]
    fn pre_fork_differences_split_the_class() {
        let a = base_spec();
        let f = fork();
        let key = a.fork_key(&f).unwrap();

        let mut seed = a;
        seed.seed += 1;
        assert_ne!(Some(key), seed.fork_key(&f));

        let mut bg = a;
        bg.workload.background = Some(BackgroundSpec {
            load: 0.50,
            dist: DistKind::CacheFollower,
        });
        assert_ne!(Some(key), bg.fork_key(&f));

        let mut sys = a;
        sys.system = SystemKind::Dibs;
        assert_ne!(Some(key), sys.fork_key(&f));

        let mut buf = a;
        buf.port_buffer_bytes /= 2;
        assert_ne!(Some(key), buf.fork_key(&f));

        // A different fork horizon is a different prefix.
        assert_ne!(
            Some(key),
            a.fork_key(&ForkSpec::at(SimDuration::from_millis(2)))
        );
    }

    #[test]
    fn unforkable_specs_fall_back() {
        let a = base_spec();
        // Degenerate horizons.
        assert_eq!(a.fork_key(&ForkSpec::at(SimDuration::ZERO)), None);
        assert_eq!(a.fork_key(&ForkSpec::at(a.horizon)), None);
        // Domain engine.
        let mut d = a;
        d.domains = Some(2);
        assert_eq!(d.fork_key(&fork()), None);
        // A fork that changes nothing.
        let mut nothing = a;
        nothing.workload.incast = None;
        assert_eq!(nothing.fork_key(&fork()), None);
    }

    #[test]
    fn forking_across_classes_fails_loudly() {
        let a = base_spec();
        let mut b = a;
        b.seed += 1;
        let f = fork();
        let buf = a.run_warmup(&f);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| b.run_forked(&f, &buf)))
            .expect_err("cross-class fork must panic");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("different equivalence class"), "{msg}");
    }

    #[test]
    fn override_fork_applies_the_knobs() {
        // τ = 0 forces the ordering shim to release every buffered packet
        // immediately — the ablation-sized effect proves the override
        // actually lands on live components.
        let spec = base_spec();
        let mut f = fork();
        f.overrides.tau = Some(SimDuration::ZERO);
        let plain = spec.run_phased(&fork());
        let tuned = spec.run_phased(&f);
        assert!(
            output_digest(&plain) != output_digest(&tuned),
            "a τ override at the fork must change the dynamics"
        );
        // And the warm twin of the tuned run still matches exactly.
        let buf = spec.run_warmup(&f);
        let warm = spec.run_forked(&f, &buf);
        assert_eq!(output_digest(&tuned), output_digest(&warm));
    }

    #[test]
    fn measurement_windows_nest() {
        let spec = base_spec();
        let f = fork();
        let buf = spec.run_warmup(&f);
        let short = spec.run_forked_until(&f, &buf, Some(SimDuration::from_millis(1)));
        let full = spec.run_forked_until(&f, &buf, None);
        assert!(short.report.flows_completed <= full.report.flows_completed);
        // A window past the horizon clamps to it.
        let clamped = spec.run_forked_until(&f, &buf, Some(SimDuration::from_secs(1)));
        assert_eq!(output_digest(&full), output_digest(&clamped));
    }
}
