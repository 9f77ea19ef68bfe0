//! # vertigo-stats
//!
//! Metric recording and summarization for the Vertigo reproduction:
//! [`Recorder`] is the sink every simulator component reports into,
//! [`Report`] computes the quantities the paper plots (FCT/QCT
//! distributions, completion ratios, goodput, drop/deflection/reorder
//! rates), and [`summary`] holds the numeric primitives (percentiles,
//! CDFs).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod audit;
pub mod recorder;
pub mod report;
pub mod summary;
pub mod trace;

pub use audit::{AuditHooks, AUDIT_AVAILABLE};
pub use recorder::{
    DropCause, Elephant, FlowRecord, Folded, QueryRecord, Recorder, Tally, DROP_CAUSES,
};
pub use report::{Report, TenantReport, ELEPHANT_BYTES, MICE_BYTES};
pub use summary::{mean, percentile, percentile_sorted, Cdf};
pub use trace::{
    pack_ports, parse_trace, unpack_ports, TraceFilter, TraceHeader, TraceKind, TraceRecord,
    TraceSink, TRACE_AVAILABLE, TRACE_HEADER_BYTES, TRACE_NO_RANK, TRACE_RECORD_BYTES,
};
