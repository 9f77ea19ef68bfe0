//! The conservation-audit invariant layer.
//!
//! Compiled into every debug-assertion build (every `cargo test`, every
//! `cargo run` without `--release`) and out of release builds. Both
//! engines call [`check_conservation`] at every telemetry sample (in the
//! sample step they share, `sim::take_sample`) and at the end of every
//! run, and [`check_flow_accounting`] at teardown; both panic with a
//! precise per-term diff on violation.
//! Sibling invariants live where the state lives:
//!
//! * `vertigo-simcore`: scheduling an event in the past panics
//!   (`EventQueue::push`);
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
/// node state and the rest is summed over `rec` and `others` (the one
/// recorder, or the domain engine's base and one per domain). The check
/// counts on `rec`; `where_` names the checkpoint for the panic message.
pub(crate) fn check_conservation<'a>(
    rec: &mut Recorder,
    others: impl IntoIterator<Item = &'a Recorder>,
    nic_queued: u64,
    switch_queued: u64,
    where_: &str,
) {
    rec.audit.on_check();
    let tally = |r: &Recorder| {
        [
            r.audit.created,
            r.audit.consumed,
            r.audit.wire,
            r.total_drops(),
        ]
    };
    let [created, consumed, wire, drops] = others.into_iter().fold(tally(rec), |sum, r| {
        let t = tally(r);
        std::array::from_fn(|i| sum[i] + t[i])
    });
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

/// Asserts per-flow byte accounting closes at teardown: every live record
/// delivered at most its size and a finished one exactly its size, the
/// folded flows delivered their sizes summed, and live and folded bytes
/// sum to the global goodput counter.
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
    for (tag, t) in &rec.folded.tenants {
        assert!(
            t.bytes_delivered == t.bytes_offered,
            "audit: the finished flows of tag {tag} delivered {} of their {} bytes",
            t.bytes_delivered,
            t.bytes_offered,
        );
        delivered_sum += t.bytes_delivered;
    }
    assert!(
        delivered_sum == rec.goodput_bytes,
        "audit: per-flow delivered bytes ({delivered_sum}) disagree with \
         the goodput counter ({}) by {}",
        rec.goodput_bytes,
        delivered_sum as i128 - rec.goodput_bytes as i128,
    );
}
