//! # vertigo-core
//!
//! The paper's primary contribution: every Vertigo-specific component on
//! the path of a datacenter packet.
//!
//! * [`marking`] — the TX-path marking component: tags packets with their
//!   flow's Remaining Flow Size (SRPT) or age (LAS), detects
//!   retransmissions with a [`cuckoo::CuckooFilter`], and boosts them.
//! * [`boost`] — the reversible rotation-based boosting arithmetic.
//! * [`flowinfo_wire`] — bit-exact wire codecs for the `flowinfo` header
//!   (layer-3 shim and IPv4-option variants of paper Fig. 3).
//! * [`pieo`] — the PIEO-style priority queue with Vertigo's tail
//!   extraction, the switch scheduling primitive.
//! * [`ordering`] — the RX-path re-sequencing shim (paper Fig. 4).
//!
//! These components are deliberately independent of the simulator: they
//! operate on `vertigo-pkt` types and simulation time only, exactly as a
//! real host stack would operate on mbufs and timestamps, and are timed
//! unchanged by the benchmark's per-layer probes (`perfbench`) and by the
//! DPDK-style packet generator in `examples/host_microbench.rs`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod boost;
pub mod cuckoo;
pub mod flowinfo_wire;
pub mod marking;
pub mod ordering;
pub mod pieo;

pub use cuckoo::CuckooFilter;
pub use marking::{MarkingComponent, MarkingConfig, MarkingDiscipline, MarkingStats};
pub use ordering::{DeliverReason, Delivered, OrderingComponent, OrderingConfig, OrderingStats};
pub use pieo::PieoQueue;
