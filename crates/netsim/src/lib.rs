//! # vertigo-netsim
//!
//! A packet-level datacenter network simulator built for the Vertigo
//! reproduction: output-queued switches with byte-bounded FIFO or
//! RFS-sorted priority queues, ECN marking, four forwarding/overflow
//! policy combinations (ECMP, DRILL, DIBS, Vertigo), leaf-spine and
//! fat-tree topologies with deflection-safe routing, and end hosts running
//! real transports ([`vertigo_transport`]) under the Vertigo marking and
//! ordering components ([`vertigo_core`]).
//!
//! Everything is driven by the deterministic event loop in [`Simulation`]:
//! identical configs (including seed) produce bit-identical reports.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod audit;
pub mod deflect;
pub mod domain;
pub mod events;
pub mod faults;
pub mod grammar;
pub mod host;
pub mod link;
pub mod policy;
pub mod queue;
pub mod sim;
pub mod switch;
pub mod telemetry;
pub mod topology;
pub mod trace;

pub use deflect::DeflectKind;
pub use domain::DomainSimulation;
pub use events::{Ctx, Event, EventSink, FlowSpec};
pub use faults::{FaultKind, FaultSchedule, FaultTarget, FaultWindow, MAX_FAULTS};
pub use host::{Host, HostConfig, HostStats};
pub use link::LinkParams;
pub use policy::{BufferPolicy, ForwardPolicy, QueueDiscipline, SwitchConfig};
pub use queue::{Port, PortQueue};
pub use sim::{SimConfig, Simulation, TopologySpec};
pub use switch::Switch;
pub use telemetry::{
    detect_bursts, Episode, IntervalClass, Telemetry, TelemetryConfig, TelemetrySample,
};
pub use topology::{RouteTable, Topology};
pub use trace::{TraceSpec, DEFAULT_RING_CAPACITY};
