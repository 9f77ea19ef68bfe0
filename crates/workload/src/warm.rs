//! Phased runs, and the warm start that shares their prefix.
//!
//! A *phased* cell is `(RunSpec, ForkSpec)`: the **prefix** (everything
//! before the fork horizon: the spec with its incast stripped) runs to
//! the fork horizon, where the deferred incast is installed; the
//! **suffix** runs from there to the horizon. fig5 and figdeflect are
//! defined this way — the paper's steady-state-background methodology —
//! so the phase is part of what they simulate, not an optimisation.
//!
//! A figure grid re-simulates the same prefix in every cell: all cells
//! at one background load that differ only in their incast share
//! identical dynamics until the burst kicks in. So one
//! simulated prefix can be run once ([`RunSpec::run_warmup`]) and every
//! cell of its *equivalence class* ([`RunSpec::fork_key`]) started from a
//! clone of it ([`RunSpec::run_forked`]). The sweep runner chooses that
//! path by itself where it applies; nothing a user sets selects it,
//! because the contract, enforced by proptest and by the CI digest
//! diffs, is exact: a forked run's `RunOutput` is byte-identical to the
//! straight-through phased run of the same spec. Two properties make
//! that hold:
//!
//! 1. The deferred incast is planned on an RNG stream forked off the run
//!    *seed* (never the live RNG state), so its arrivals are a pure
//!    function of `(spec, fork.at, seed)`.
//! 2. A clone is the state: `Simulation` is plain data (no shared
//!    mutable cell, no trait object), so a clone holds the same queue,
//!    insertion counter and RNG as the original, and arrivals installed
//!    into it tie-break exactly like arrivals installed after a plain
//!    `drain_until`.
//!
//! Classes where [`RunSpec::fork_key`] cannot prove prefix-equivalence
//! return `None` and the cell runs straight through.

use crate::runner::{RunError, RunOutput, RunSpec};
use vertigo_netsim::trace::stable_hash;
use vertigo_netsim::Simulation;
use vertigo_simcore::{SimDuration, SimTime};

/// How a phased run splits one cell: the workload's incast component is
/// deferred to the fork horizon (the background component always runs
/// from t = 0). This is what lets cells differing only in incast
/// intensity share a warmup.
#[derive(Debug, Clone, Copy)]
pub struct ForkSpec {
    /// The fork horizon: the quiescent boundary the prefix runs to and
    /// the suffix continues from.
    pub at: SimDuration,
}

impl ForkSpec {
    /// A fork at `at`, the shape every figure grid uses.
    pub fn at(at: SimDuration) -> Self {
        ForkSpec { at }
    }
}

/// One warmup class's simulation standing at its fork horizon, the fork
/// not yet applied, tagged with the class key. Run by
/// [`RunSpec::run_warmup`]; every cell of the class starts from a clone
/// of it via [`RunSpec::run_forked`].
pub struct Warmup {
    key: u64,
    sim: Simulation,
}

impl RunSpec {
    /// The spec whose dynamics a phased run's prefix follows: this spec
    /// with its incast stripped.
    pub fn prefix_spec(&self) -> RunSpec {
        let mut p = *self;
        p.workload.incast = None;
        p
    }

    /// Applies the fork to a simulation standing at the fork horizon:
    /// installs the deferred incast arrivals.
    pub(crate) fn apply_fork(&self, sim: &mut Simulation, fork: &ForkSpec) -> Result<(), RunError> {
        match self.workload.incast {
            // A fork at the horizon leaves the incast no time to offer
            // anything.
            Some(inc) if fork.at < self.horizon => inc
                .install_from(sim, fork.at)
                .map_err(|e| RunError::Workload(format!("workload: {e}"))),
            _ => Ok(()),
        }
    }

    /// The conservative warmup-equivalence key: a stable hash of exactly
    /// the state that shapes dynamics *before* the fork horizon — the
    /// prefix spec (incast stripped) plus the horizon itself. Two cells
    /// with equal keys may share one warmup.
    ///
    /// Returns `None` when prefix-equivalence cannot be proven or a warm
    /// start cannot apply: the domain engine (different tie-breaking
    /// order, no quiescent single-queue state), a fork at t = 0 or at/past
    /// the horizon, or a spec with no incast to defer. Callers run the
    /// cell straight through on `None`.
    pub fn fork_key(&self, fork: &ForkSpec) -> Option<u64> {
        let at = fork.at.as_nanos();
        if self.domains.is_some()
            || self.workload.incast.is_none()
            || at == 0
            || at >= self.horizon.as_nanos()
        {
            return None;
        }
        let prefix = self.prefix_spec();
        Some(stable_hash(format!("fork@{at}ns {prefix:?}").as_bytes()))
    }

    /// Runs the shared prefix of this spec's equivalence class to the
    /// fork horizon. The warmup carries the class key, so forking it into
    /// a cell of a *different* class fails loudly. A spec the topology
    /// cannot carry is the [`RunError`] its run would be.
    pub fn run_warmup(&self, fork: &ForkSpec) -> Result<Warmup, RunError> {
        let key = self
            .fork_key(fork)
            .expect("run_warmup: spec is not warm-startable (fork_key is None)");
        let mut sim = self.prefix_spec().try_build()?;
        sim.drain_until(SimTime::ZERO + fork.at);
        Ok(Warmup { key, sim })
    }

    /// Continues a clone of the class warmup as this cell: installs the
    /// deferred incast and runs to the horizon. The output is
    /// byte-identical to [`run_phased`](Self::run_phased) of the same
    /// spec — the warm-start oracle. A warmup of another class is a bug in
    /// the caller.
    pub fn run_forked(&self, fork: &ForkSpec, warm: &Warmup) -> RunOutput {
        let key = self
            .fork_key(fork)
            .expect("run_forked: spec is not warm-startable (fork_key is None)");
        assert!(
            warm.key == key,
            "warm-start: warmup belongs to a different equivalence class \
             (warmup key {:016x}, this cell's key {key:016x}); \
             never fork across classes",
            warm.key,
        );
        let mut sim = warm.sim.clone();
        self.apply_fork(&mut sim, fork)
            .and_then(|()| self.finish(sim, None))
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// The same phased semantics (prefix to the fork horizon, then the
    /// deferred incast) simulated straight through, no warmup.
    pub fn run_phased(&self, fork: &ForkSpec) -> RunOutput {
        self.run_staged(None, None, Some(fork))
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
        let warmup = spec.run_warmup(&f).expect("warmup");
        let warm = spec.run_forked(&f, &warmup);
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
        // No incast to defer.
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
        let warmup = a.run_warmup(&f).expect("warmup");
        let err =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| b.run_forked(&f, &warmup)))
                .expect_err("cross-class fork must panic");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("different equivalence class"), "{msg}");
    }
}
