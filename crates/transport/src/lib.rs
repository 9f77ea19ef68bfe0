//! # vertigo-transport
//!
//! Transport protocols for the Vertigo simulator. The paper runs Vertigo
//! *below* unmodified transports, so this crate provides full sender and
//! receiver machines ([`FlowSender`], [`FlowReceiver`]) with pluggable
//! congestion control:
//!
//! * [`Reno`] — classic loss-based TCP (the paper's "TCP"),
//! * [`Dctcp`] — ECN-proportional reduction (the paper's default),
//! * [`Swift`] — delay-based with sub-packet windows and pacing.
//!
//! Loss detection supports both fast retransmit (3 duplicate ACKs,
//! NewReno partial-ACK repair) and RTO with exponential backoff. The
//! controllers and the RTO estimator run at the paper's parameters, fixed
//! as constants in their modules; [`TransportConfig`] picks the controller
//! and whether fast retransmit is on (DIBS turns it off, per its paper).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cc;
pub mod dctcp;
pub mod receiver;
pub mod reno;
pub mod rto;
pub mod sender;
pub mod swift;

pub use cc::{AckContext, CcKind, CongestionControl};
pub use dctcp::Dctcp;
pub use receiver::FlowReceiver;
pub use reno::Reno;
pub use rto::RtoEstimator;
pub use sender::{AckOutcome, FlowSender, SenderStats, TransportConfig};
pub use swift::Swift;
