//! # vertigo-pkt
//!
//! Packet, flow, and addressing primitives shared by every crate in the
//! Vertigo workspace: identifier newtypes ([`NodeId`], [`PortId`],
//! [`FlowId`], [`QueryId`]), the metadata-only [`Packet`] model with exact
//! wire-size accounting, the [`FlowInfo`] header, the [`FlowTable`] hosts
//! keep their per-flow state in, and deterministic hashing for ECMP-style
//! placement.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod flow_table;
mod hash;
mod ids;
mod packet;
pub mod pool;
mod snap;

pub use flow_table::FlowTable;
pub use hash::{ecmp_hash, fnv1a, mix64, Mix64Build, Mix64Hasher};
pub use ids::{FlowId, NodeId, PortId, QueryId};
pub use packet::{
    AckSeg, DataSeg, Ecn, FlowInfo, Packet, PacketKind, ACK_WIRE_BYTES, DATA_HEADER_BYTES,
    FLOWINFO_OVERHEAD_BYTES, MAX_HOPS, MAX_PAYLOAD,
};
pub use snap::PACKET_RECORD_PREFIX;
