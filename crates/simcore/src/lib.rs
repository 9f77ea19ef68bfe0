//! # vertigo-simcore
//!
//! The deterministic discrete-event simulation kernel underneath the Vertigo
//! reproduction. It deliberately knows nothing about networks: it provides
//!
//! * [`SimTime`] / [`SimDuration`] — a nanosecond-resolution simulation clock,
//! * [`EventQueue`] — a time-ordered event queue with FIFO tie-breaking,
//!   a hierarchical timing wheel (amortized O(1)),
//! * [`SimRng`] — seeded randomness with forkable independent streams,
//! * [`LookaheadGrid`] / [`WindowQueue`] / [`WorkerPool`] — model-agnostic
//!   building blocks for conservative parallel (domain-partitioned)
//!   simulation with deterministic cross-domain merge order,
//! * [`release_if_drained`] — the one rule by which the simulator's rings
//!   give back the room a burst left behind.
//!
//! Determinism contract: given the same seed and the same sequence of
//! `push`/`pop` calls, a simulation built on these primitives produces
//! bit-identical results. Nothing in this crate reads wall-clock time or
//! global RNG state.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod barrier;
mod domain;
mod event;
mod rng;
mod room;
mod snap;
mod time;
mod wheel;

pub use barrier::WorkerPool;
pub use domain::{Batch, Delivery, LookaheadGrid, WindowQueue};
pub use event::EventBackend;
pub use rng::SimRng;
pub use room::{release_if_drained, RING_KEEP_BYTES};
pub use snap::{
    SnapError, SnapReader, SnapWriter, Snapshot, SNAPSHOT_AVAILABLE, SNAP_MAGIC, SNAP_VERSION,
};
pub use time::{SimDuration, SimTime};
pub use wheel::EventQueue;
