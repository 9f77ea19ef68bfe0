//! Overflow: what a switch does with a packet that does not fit its
//! chosen output queue (§3.2 and its baselines).
//!
//! Each policy is one function here, selected by the `match` on
//! [`crate::policy::BufferPolicy`] in `Switch::enqueue_with_policy`, and
//! all of them are written in the same few primitives: `Ctx::drop_pkt`,
//! `Switch::deflect_to`, `Switch::room_or_drop` and `Switch::place`. The
//! contract every policy keeps (DESIGN.md §5h):
//!
//! - **Decision inputs.** A policy sees the switch (port occupancy,
//!   candidate scratch, route table, load EWMA), the full output port, the
//!   arrival's ingress port, and the packet itself. It must resolve the
//!   overflow completely — enqueue somewhere, or drop with an accounted
//!   [`DropCause`] — before returning.
//! - **RNG discipline.** All random draws come from the switch decision
//!   stream (`ctx.rng`) in decision order; the golden traces pin the exact
//!   draw order of every policy.
//! - **Ingress exclusion.** Whether the arrival's ingress port may be a
//!   deflection candidate is an explicit, per-policy contract
//!   (`BufferPolicy::excludes_ingress`) rather than a latent assumption.
//!   Vertigo and DIBS *include* the ingress (golden-pinned); hybrid and
//!   bounded exclude it; PABO exclusively *targets* it (its backward
//!   bounce).
//! - **Down ports.** Administratively-downed ports
//!   ([`Switch::set_port_down`]) are never selected, by any policy.
//!
//! Trace provenance: a Deflect record's flags byte carries
//! `BufferPolicy::trace_code` in bits 2+ (bit 0 = forced, bit 1 =
//! victim-is-arriving).

use crate::events::Ctx;
use crate::switch::Switch;
use vertigo_pkt::{Packet, PortId};
use vertigo_stats::{pack_ports, DropCause, TraceKind};

/// Which deflection policy an experiment runs (the `--deflect` axis).
///
/// This selects the overflow behavior only; forwarding, scheduling, and
/// transport stay whatever the system under test configures, so the
/// deflection axis is isolated in comparisons.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeflectKind {
    /// Vertigo selective deflection (the paper's policy; default).
    Vertigo,
    /// DIBS random deflection of the arriving packet.
    Dibs,
    /// PABO backward bounce to the upstream hop.
    Pabo,
    /// OBS-style adaptive hybrid: load-EWMA choice of deflect-vs-drop.
    Hybrid,
    /// Bounce-bounded deflection with per-bounce priority escalation.
    Bounded,
}

impl DeflectKind {
    /// Every kind, in `--deflect` grammar order.
    pub const ALL: [DeflectKind; 5] = [
        DeflectKind::Vertigo,
        DeflectKind::Dibs,
        DeflectKind::Pabo,
        DeflectKind::Hybrid,
        DeflectKind::Bounded,
    ];

    /// Parses a `--deflect` flag value.
    pub fn parse(s: &str) -> Option<DeflectKind> {
        match s {
            "vertigo" => Some(DeflectKind::Vertigo),
            "dibs" => Some(DeflectKind::Dibs),
            "pabo" => Some(DeflectKind::Pabo),
            "hybrid" => Some(DeflectKind::Hybrid),
            "bounded" => Some(DeflectKind::Bounded),
            _ => None,
        }
    }

    /// The flag spelling (inverse of [`DeflectKind::parse`]).
    pub fn name(&self) -> &'static str {
        match self {
            DeflectKind::Vertigo => "vertigo",
            DeflectKind::Dibs => "dibs",
            DeflectKind::Pabo => "pabo",
            DeflectKind::Hybrid => "hybrid",
            DeflectKind::Bounded => "bounded",
        }
    }
}

/// Deflect-record flag bit 0: every sampled queue was full, so the victim
/// was forced into one and that queue evicted down to its bound.
const FORCED: u8 = 0b01;
/// Deflect-record flag bit 1: the victim is the packet whose arrival
/// overflowed the queue (not a resident it displaced).
const ARRIVAL: u8 = 0b10;

impl Switch {
    /// What every deflection does, whatever chose it: count the bounce on
    /// the packet and the recorder, mark ECN against the queue it joins,
    /// emit the Deflect record (`a` = the rank that queue gives the packet,
    /// its logical RFS rank where queues are FIFO; `b` = up to four of
    /// `sampled`), queue it on `to` and start the port. A `FORCED`
    /// deflection skips the mark and then evicts the largest-RFS residents
    /// of `to` until its byte bound holds again — congestion control must
    /// see those losses.
    fn deflect_to(
        &mut self,
        to: u16,
        mut pkt: Box<Packet>,
        sampled: &[u16],
        flags: u8,
        ctx: &mut Ctx,
    ) {
        pkt.deflections += 1;
        ctx.rec.deflections += 1;
        debug_assert!(
            (self.cfg.buffer.deflection_budget()).is_none_or(|most| pkt.deflections <= most),
            "audit: packet {} deflected {} times under {:?}",
            pkt.uid,
            pkt.deflections,
            self.cfg.buffer
        );
        let cap = self.cfg.port_buffer_bytes;
        let q = &mut self.ports[to as usize].queue;
        if flags & FORCED == 0 {
            Self::maybe_mark_ecn(&self.cfg, q, &mut pkt, ctx);
        }
        if ctx.rec.trace.enabled() {
            self.trace_deflect(to, &pkt, sampled, flags, ctx);
        }
        let q = &mut self.ports[to as usize].queue;
        q.push(pkt);
        while q.bytes() > cap {
            let evicted = q.evict_worst().expect("nonempty over-capacity queue");
            ctx.drop_pkt(self.id, to, DropCause::DeflectionFull, evicted);
        }
        self.start_tx(to, ctx);
    }

    /// Provenance: the Deflect record of `pkt` about to join `to`'s queue
    /// (see [`Switch::deflect_to`] for its fields).
    #[cold]
    #[inline(never)]
    fn trace_deflect(&self, to: u16, pkt: &Packet, sampled: &[u16], flags: u8, ctx: &mut Ctx) {
        let rank = self.ports[to as usize]
            .queue
            .rank_of(pkt)
            .unwrap_or_else(|| pkt.rank(self.cfg.boost_shift));
        let flags = flags | (self.cfg.buffer.trace_code() << 2);
        let sampled = pack_ports(sampled);
        ctx.trace(self.id, TraceKind::Deflect, pkt, rank, sampled, flags, to);
    }

    /// The deflection candidates for `pkt` (full on `out`) whose queue has
    /// room for it, handed out with the packet; with none, the packet is
    /// dropped (`DeflectionFull`) and `None` returned.
    fn room_or_drop(
        &mut self,
        out: u16,
        in_port: PortId,
        pkt: Box<Packet>,
        ctx: &mut Ctx,
    ) -> Option<(Box<Packet>, Vec<u16>)> {
        let cap = self.cfg.port_buffer_bytes;
        let exclude = self.cfg.buffer.excludes_ingress().then_some(in_port.0);
        let mut cands = self.deflect_candidates(out, pkt.dst, exclude);
        cands.retain(|&p| self.ports[p as usize].queue.fits(&pkt, cap));
        if cands.is_empty() {
            self.deflect_scratch = cands;
            ctx.drop_pkt(self.id, out, DropCause::DeflectionFull, pkt);
            return None;
        }
        Some((pkt, cands))
    }

    /// Power-of-`power` placement: draws that many distinct members of
    /// `cands` (handing the buffer back to `deflect_scratch`) and picks the
    /// least loaded — the most loaded under `flip`, the seeded mutation
    /// that lets golden traces catch a selection regression. Returns the
    /// choice and the sample; like `deflect_scratch`, the caller puts the
    /// sample back into `sample_scratch` once done, so the steady-state
    /// deflection path allocates nothing.
    fn place(
        &mut self,
        cands: Vec<u16>,
        power: usize,
        flip: bool,
        ctx: &mut Ctx,
    ) -> (u16, Vec<u16>) {
        let k = power.max(1).min(cands.len());
        ctx.rng
            .k_distinct_into(k, cands.len(), &mut self.pick_scratch);
        let mut sample = std::mem::take(&mut self.sample_scratch);
        sample.clear();
        sample.extend(self.pick_scratch.iter().map(|&i| cands[i]));
        self.deflect_scratch = cands;
        let load = |p: &&u16| self.ports[**p as usize].queue.bytes();
        let chosen = if flip {
            sample.iter().max_by_key(load)
        } else {
            sample.iter().min_by_key(load)
        };
        (*chosen.expect("nonempty sample"), sample)
    }
}

/// DIBS: deflect the *arriving* packet to a uniformly random port with
/// space; drop at the deflection cap or when no port has space.
pub(crate) fn dibs(
    sw: &mut Switch,
    out: u16,
    in_port: PortId,
    pkt: Box<Packet>,
    max_deflections: u16,
    ctx: &mut Ctx,
) {
    if pkt.deflections >= max_deflections {
        return ctx.drop_pkt(sw.id, out, DropCause::DeflectionFull, pkt);
    }
    let Some((pkt, cands)) = sw.room_or_drop(out, in_port, pkt, ctx) else {
        return;
    };
    let to = cands[ctx.rng.index(cands.len())];
    sw.deflect_to(to, pkt, &cands, ARRIVAL, ctx);
    sw.deflect_scratch = cands;
}

/// Vertigo (§3.2): victimize the largest-RFS packet (arrival vs. queue
/// residents when `scheduling` is on) and deflect each victim to the
/// least-loaded of `deflect_power` sampled ports (`deflection` off = the
/// "No Deflection" ablation: victims are dropped).
pub(crate) fn vertigo(
    sw: &mut Switch,
    out: u16,
    pkt: Box<Packet>,
    deflect_power: usize,
    scheduling: bool,
    deflection: bool,
    ctx: &mut Ctx,
) {
    let cap = sw.cfg.port_buffer_bytes;
    // Victim selection: with scheduling, insert the arrival and evict the
    // largest-RFS packets until the byte bound holds (footnote 4: several
    // small packets may be displaced by one large arrival). Without
    // scheduling, the arriving packet is the victim.
    let arriving_uid = pkt.uid;
    let mut victims: Vec<Box<Packet>> = Vec::new();
    if scheduling {
        sw.admit(out, pkt, ctx);
        let q = &mut sw.ports[out as usize].queue;
        while q.bytes() > cap {
            victims.push(q.evict_worst().expect("nonempty over-capacity queue"));
        }
    } else {
        victims.push(pkt);
    }
    for victim in victims {
        if !deflection {
            ctx.drop_pkt(sw.id, out, DropCause::QueueFull, victim);
            continue;
        }
        // Placement: the less loaded of the sampled ports; when even that
        // one is full the network is congested, and the victim is forced
        // into a random sampled queue (paper footnote 5).
        let cands = sw.deflect_candidates(out, victim.dst, None);
        if cands.is_empty() {
            sw.deflect_scratch = cands;
            ctx.drop_pkt(sw.id, out, DropCause::DeflectionFull, victim);
            continue;
        }
        let (mut to, sample) = sw.place(cands, deflect_power, sw.mutate_victim, ctx);
        let mut flags = if victim.uid == arriving_uid {
            ARRIVAL
        } else {
            0
        };
        if !sw.ports[to as usize].queue.fits(&victim, cap) {
            to = sample[ctx.rng.index(sample.len())];
            flags |= FORCED;
        }
        sw.deflect_to(to, victim, &sample, flags, ctx);
        sw.sample_scratch = sample;
    }
    sw.start_tx(out, ctx);
}

/// PABO: bounce the arriving packet *backward* to the hop that sent it,
/// resolved from the packet's provenance field through the route table's
/// reverse-path (neighbor CSR) index.
pub(crate) fn pabo(
    sw: &mut Switch,
    out: u16,
    pkt: Box<Packet>,
    max_deflections: u16,
    ctx: &mut Ctx,
) {
    let cap = sw.cfg.port_buffer_bytes;
    // Resolve the upstream hop from provenance. The seeded mutation
    // bounces *forward* (first deflection candidate) instead, so the
    // conformance suite can prove the goldens pin the backward bounce.
    let upstream = if sw.mutate_victim {
        let cands = sw.deflect_candidates(out, pkt.dst, None);
        let first = cands.first().copied();
        sw.deflect_scratch = cands;
        first
    } else {
        sw.routes.upstream_port(sw.sw, pkt.prev_hop)
    };
    // The bounce fails — and the packet drops — when the budget is spent,
    // the upstream hop is unknown (a host's NIC, or no longer adjacent),
    // is the full output itself, is administratively down, leads to a
    // host that is not the destination (hosts discard foreign packets),
    // or its queue is also full.
    let viable = upstream.filter(|&p| {
        let port = &sw.ports[p as usize];
        pkt.deflections < max_deflections
            && p != out
            && !sw.down[p as usize]
            && !(port.host_facing && port.peer != pkt.dst)
            && port.queue.fits(&pkt, cap)
    });
    let Some(to) = viable else {
        return ctx.drop_pkt(sw.id, out, DropCause::DeflectionFull, pkt);
    };
    ctx.rec.pabo_bounces += 1;
    sw.deflect_to(to, pkt, &[to], ARRIVAL, ctx);
}

/// OBS-style adaptive hybrid: a load EWMA over total switch occupancy
/// picks between deflecting (lightly loaded) and dropping so the
/// transport retransmits (heavily loaded).
pub(crate) fn hybrid(
    sw: &mut Switch,
    out: u16,
    in_port: PortId,
    pkt: Box<Packet>,
    deflect_power: usize,
    ctx: &mut Ctx,
) {
    // Decide on the *pre-update* EWMA so tests (and operators) can pin
    // the decision by setting the EWMA directly; then fold the current
    // occupancy in with alpha = 1/8.
    let ewma_before = sw.load_ewma;
    let mut deflect = ewma_before <= sw.hybrid_threshold();
    if sw.mutate_victim {
        // Seeded mutation: invert the decision, so goldens catch a
        // flipped threshold comparison.
        deflect = !deflect;
    }
    sw.load_ewma = ewma_before - ewma_before / 8 + sw.queued_bytes() / 8;
    if !deflect {
        // Heavily loaded: drop and let the transport retransmit. A
        // deflected packet would only feed the collapse.
        ctx.rec.hybrid_retx_drops += 1;
        return ctx.drop_pkt(sw.id, out, DropCause::QueueFull, pkt);
    }
    let Some((pkt, cands)) = sw.room_or_drop(out, in_port, pkt, ctx) else {
        return;
    };
    let (to, sample) = sw.place(cands, deflect_power, false, ctx);
    ctx.rec.hybrid_deflects += 1;
    sw.deflect_to(to, pkt, &sample, ARRIVAL, ctx);
    sw.sample_scratch = sample;
}

/// Bounce-bounded deflection (NoC worst-case-latency protocols): every
/// bounce escalates the packet's priority in the escalating PIEO queues
/// (rank halves per bounce — `deflect_to` counts the bounce before the
/// push, so this enqueue is ranked with it); the packet drops precisely
/// at the cap.
pub(crate) fn bounded(
    sw: &mut Switch,
    out: u16,
    in_port: PortId,
    pkt: Box<Packet>,
    cap: u16,
    deflect_power: usize,
    ctx: &mut Ctx,
) {
    if pkt.deflections >= cap {
        ctx.rec.bounded_cap_drops += 1;
        return ctx.drop_pkt(sw.id, out, DropCause::DeflectionFull, pkt);
    }
    let Some((pkt, cands)) = sw.room_or_drop(out, in_port, pkt, ctx) else {
        return;
    };
    let (to, sample) = sw.place(cands, deflect_power, sw.mutate_victim, ctx);
    sw.deflect_to(to, pkt, &sample, ARRIVAL, ctx);
    sw.sample_scratch = sample;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::SwitchConfig;

    #[test]
    fn kind_parse_round_trips() {
        for k in DeflectKind::ALL {
            assert_eq!(DeflectKind::parse(k.name()), Some(k));
        }
        assert_eq!(DeflectKind::parse("nope"), None);
    }

    #[test]
    fn trace_codes_are_stable() {
        // Vertigo and DIBS keep code 0 (the traces that predate the other
        // three stay byte-identical); PABO, hybrid and bounded claim
        // 1..=3. These values are part of the on-disk trace format —
        // changing them breaks readers.
        assert_eq!(SwitchConfig::dibs().buffer.trace_code(), 0);
        assert_eq!(SwitchConfig::vertigo().buffer.trace_code(), 0);
        assert_eq!(SwitchConfig::pabo().buffer.trace_code(), 1);
        assert_eq!(SwitchConfig::hybrid().buffer.trace_code(), 2);
        assert_eq!(SwitchConfig::bounded().buffer.trace_code(), 3);
    }

    #[test]
    fn ingress_exclusion_contract() {
        // Golden-pinned: Vertigo and DIBS include the ingress; the newer
        // sampled policies exclude it; PABO targets it (so: false).
        assert!(!SwitchConfig::dibs().buffer.excludes_ingress());
        assert!(!SwitchConfig::vertigo().buffer.excludes_ingress());
        assert!(!SwitchConfig::pabo().buffer.excludes_ingress());
        assert!(SwitchConfig::hybrid().buffer.excludes_ingress());
        assert!(SwitchConfig::bounded().buffer.excludes_ingress());
    }
}
