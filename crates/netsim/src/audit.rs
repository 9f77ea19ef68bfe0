//! The conservation-audit invariant layer.
//!
//! Compiled into every debug-assertion build (every `cargo test`, every
//! `cargo run` without `--release`) and out of release builds. The
//! simulation driver calls [`check_conservation`] at every telemetry
//! sample and at the end of every run, and [`check_flow_accounting`] at
//! teardown; both panic with a precise per-term diff on violation.
//! Sibling invariants live where the state lives:
//!
//! * `vertigo-simcore`: scheduling an event in the past panics
//!   (`TimingWheel::push`);
//! * `vertigo-core`: PIEO `pop_min`/`pop_max` ranks are monotone against
//!   the remaining heap;
//! * `crate::deflect`: no packet is deflected more often than its policy's
//!   budget allows (`Switch::deflect_to`).
//!
//! The custody tallies themselves accumulate in
//! [`vertigo_stats::AuditHooks`], threaded through the recorder so every
//! component can report custody transitions without new plumbing.

#![cfg(debug_assertions)]

use vertigo_stats::Recorder;

/// Asserts the packet-conservation identity
///
/// ```text
/// created == consumed + drops + wire + nic_queued + switch_queued
/// ```
///
/// where `nic_queued`/`switch_queued` are computed by the caller from live
/// node state and the rest comes from the recorder. `where_` names the
/// checkpoint for the panic message.
pub(crate) fn check_conservation(
    rec: &mut Recorder,
    nic_queued: u64,
    switch_queued: u64,
    where_: &str,
) {
    rec.audit.on_check();
    let created = rec.audit.created;
    let consumed = rec.audit.consumed;
    let wire = rec.audit.wire;
    let drops = rec.total_drops();
    let rhs = consumed + drops + wire + nic_queued + switch_queued;
    assert!(
        created == rhs,
        "audit: packet conservation violated at {where_}:\n\
         \x20 created         = {created}\n\
         \x20 consumed        = {consumed}\n\
         \x20 drops           = {drops}\n\
         \x20 wire (in-flight)= {wire}\n\
         \x20 nic-queued      = {nic_queued}\n\
         \x20 switch-queued   = {switch_queued}\n\
         \x20 accounted total = {rhs}  (diff = {})",
        created as i128 - rhs as i128,
    );
}

/// Asserts per-flow byte accounting closes at teardown: every finished
/// flow delivered exactly its size, no flow over-delivered, and the
/// per-flow tallies sum to the global goodput counter.
pub(crate) fn check_flow_accounting(rec: &mut Recorder) {
    rec.audit.on_check();
    let mut delivered_sum: u64 = 0;
    for f in rec.flows.values() {
        assert!(
            f.delivered_bytes <= f.bytes,
            "audit: flow {:?} over-delivered ({} of {} bytes)",
            f.flow,
            f.delivered_bytes,
            f.bytes
        );
        if f.finished.is_some() {
            assert!(
                f.delivered_bytes == f.bytes,
                "audit: flow {:?} finished with open byte accounting \
                 ({} delivered, {} expected, diff = {})",
                f.flow,
                f.delivered_bytes,
                f.bytes,
                f.bytes as i128 - f.delivered_bytes as i128,
            );
        }
        delivered_sum += f.delivered_bytes;
    }
    assert!(
        delivered_sum == rec.goodput_bytes,
        "audit: per-flow delivered bytes ({delivered_sum}) disagree with \
         the goodput counter ({}) by {}",
        rec.goodput_bytes,
        delivered_sum as i128 - rec.goodput_bytes as i128,
    );
}
