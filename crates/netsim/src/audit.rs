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

/// Asserts per-flow byte accounting closes at teardown: every record
/// left has its sender's metadata, every live record delivered at most its
/// size and a finished one exactly its size, the folded flows delivered
/// their sizes summed, and live and folded bytes sum to the global goodput
/// counter. A placeholder left after the merge is a second finish,
/// progress after a flow was folded, or a domain's record of a flow that
/// no other domain's record reconciled.
pub(crate) fn check_flow_accounting(rec: &mut Recorder) {
    rec.audit.on_check();
    let mut delivered_sum: u64 = 0;
    for f in rec.flows.values() {
        assert!(
            f.is_whole(),
            "audit: flow {:?} left a record without its sender's metadata \
             ({} bytes delivered, finished {:?}): a second finish, progress \
             after it finished, or a record never reconciled",
            f.flow,
            f.delivered_bytes,
            f.finished,
        );
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

#[cfg(test)]
mod tests {
    use super::check_flow_accounting;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use vertigo_pkt::{FlowId, NodeId, QueryId};
    use vertigo_simcore::{SimDuration, SimTime};
    use vertigo_stats::Recorder;

    const FLOW: FlowId = FlowId(1);

    /// A recorder whose one flow delivered its 1 000 bytes and finished.
    fn finished() -> Recorder {
        let mut rec = Recorder::new();
        let at = SimTime::from_micros(10);
        rec.flow_started(FLOW, QueryId::NONE, NodeId(0), NodeId(1), 1_000, at);
        rec.flow_progress(FLOW, 1_000);
        rec.flow_finished(FLOW, at + SimDuration::from_micros(90));
        rec
    }

    #[test]
    fn a_flow_recorded_past_its_finish_trips_the_audit() {
        let mut clean = finished();
        // A late copy's zero progress is what a finished flow reports.
        clean.flow_progress(FLOW, 0);
        check_flow_accounting(&mut clean);
        type Mutation = fn(&mut Recorder);
        let mutations: [(&str, Mutation); 2] = [
            ("a second finish", |r| {
                r.flow_finished(FLOW, SimTime::from_micros(500))
            }),
            ("progress after the fold", |r| r.flow_progress(FLOW, 1)),
        ];
        for (what, mutate) in mutations {
            let mut rec = finished();
            mutate(&mut rec);
            let err =
                catch_unwind(AssertUnwindSafe(|| check_flow_accounting(&mut rec))).expect_err(what);
            let msg = (err.downcast_ref::<String>().cloned()).unwrap_or_default();
            assert!(
                msg.contains("without its sender's metadata"),
                "{what}: {msg}"
            );
        }
    }
}
