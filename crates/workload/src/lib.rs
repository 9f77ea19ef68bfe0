//! # vertigo-workload
//!
//! Workload generation for the Vertigo evaluation: the empirical flow-size
//! distributions the paper samples ([`dists`]), the figure workload
//! (Poisson background load and the incast application, [`traffic`]) and
//! the composable `--workload` components, both planned by the one
//! planner in [`scenario`], and the one-stop experiment runner
//! ([`RunSpec`]) that maps a (system, transport, topology, workload)
//! tuple to a finished [`vertigo_stats::Report`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dists;
pub mod runner;
pub mod scenario;
pub mod snapshot;
pub mod traffic;
pub mod warm;

pub use dists::{DistKind, EmpiricalCdf, CACHE_FOLLOWER, DATA_MINING, WEB_SEARCH};
pub use runner::{RunError, RunOutput, RunSpec, SystemKind, TopoKind, VertigoTuning};
pub use scenario::{
    onoff_envelope, ComponentKind, ComponentPlan, HostRange, IncastRate, PlanContext,
    ScenarioComponent, ScenarioSpec, TenantName, MAX_COMPONENTS,
};
pub use snapshot::{CheckpointSpec, SnapshotSpec};
pub use traffic::{BackgroundSpec, IncastSpec, WorkloadSpec};
pub use vertigo_netsim::{DeflectKind, FaultSchedule, TraceSpec};
pub use warm::{ForkSpec, SnapBuf};
