//! The output-queued switch: forwarding, ECN marking, and the enqueue and
//! transmit primitives the overflow policies of §3.2 (`crate::deflect`)
//! are written in.

use crate::deflect;
use crate::events::Ctx;
use crate::policy::{BufferPolicy, ForwardPolicy, SwitchConfig};
use crate::queue::{Port, PortQueue};
use crate::topology::RouteTable;
use std::sync::Arc;
use vertigo_pkt::{ecmp_hash, NodeId, Packet, PortId, MAX_HOPS};
use vertigo_simcore::{SimRng, SnapError, SnapReader, SnapWriter, Snapshot};
use vertigo_stats::{DropCause, TraceKind, TRACE_NO_RANK};

/// Draws `k` distinct candidates and keeps the least loaded, the first
/// drawn on a tie — DRILL's sample and power-of-n's choice — with its
/// queued bytes; `(None, u64::MAX)` when `k` is 0.
fn least_loaded(
    k: usize,
    cands: &[u16],
    ports: &[Port],
    scratch: &mut Vec<usize>,
    rng: &mut SimRng,
) -> (Option<u16>, u64) {
    rng.k_distinct_into(k, cands.len(), scratch);
    let mut best = (None, u64::MAX);
    for &i in scratch.iter() {
        let p = cands[i];
        let b = ports[p as usize].queue.bytes();
        if best.0.is_none() || b < best.1 {
            best = (Some(p), b);
        }
    }
    best
}

/// A datacenter switch.
pub struct Switch {
    /// This switch's node id.
    pub id: NodeId,
    pub(crate) cfg: SwitchConfig,
    pub(crate) ports: Vec<Port>,
    /// The topology-wide candidate table, shared by every switch.
    pub(crate) routes: Arc<RouteTable>,
    /// This switch's row index into `routes` (node id minus host count).
    pub(crate) sw: usize,
    /// DRILL's remembered least-loaded port (m = 1), per destination.
    drill_best: Vec<Option<u16>>,
    /// Per-switch ECMP hash salt.
    ecmp_salt: u64,
    /// Reusable buffer for deflection-candidate port lists, so deflecting
    /// a packet allocates nothing on the steady path.
    pub(crate) deflect_scratch: Vec<u16>,
    /// Reusable buffers for power-of-n sampling: the drawn candidate
    /// indices, and (for deflection) the ports they select.
    pub(crate) pick_scratch: Vec<usize>,
    pub(crate) sample_scratch: Vec<u16>,
    /// Reusable buffer for a Vertigo overflow's victims; empty between
    /// overflows. Boxed, as the packets are everywhere else: they come
    /// from a queue and go on to another, never unboxed.
    #[allow(clippy::vec_box)]
    pub(crate) victim_scratch: Vec<Box<Packet>>,
    /// Administratively-downed ports: never offered as deflection
    /// candidates. All-false by default; set by tests and operators, not
    /// by the fault layer (which intercepts at event dispatch).
    pub(crate) down: Vec<bool>,
    /// EWMA of total queued bytes across ports, updated on each hybrid
    /// overflow decision (alpha = 1/8). Zero until the hybrid policy runs.
    pub(crate) load_ewma: u64,
    /// Test-only mutation hook: perturbs every policy's victim/egress
    /// selection so golden-trace tests can prove they detect a seeded
    /// selection bug. Never set outside tests.
    pub(crate) mutate_victim: bool,
    /// High-water mark of any single port queue (diagnostics).
    pub max_port_bytes: u64,
}

impl Switch {
    /// Builds a switch from its ports and the shared candidate table;
    /// `switch_index` selects this switch's rows (its node id minus the
    /// host count).
    pub fn new(
        id: NodeId,
        cfg: SwitchConfig,
        ports: Vec<Port>,
        routes: Arc<RouteTable>,
        switch_index: usize,
        ecmp_salt: u64,
    ) -> Self {
        let hosts = routes.hosts();
        let nports = ports.len();
        Switch {
            id,
            cfg,
            ports,
            routes,
            sw: switch_index,
            drill_best: vec![None; hosts],
            ecmp_salt,
            deflect_scratch: Vec::new(),
            pick_scratch: Vec::new(),
            sample_scratch: Vec::new(),
            victim_scratch: Vec::new(),
            down: vec![false; nports],
            load_ewma: 0,
            mutate_victim: false,
            max_port_bytes: 0,
        }
    }

    /// Administratively downs (or restores) a port: downed ports are never
    /// offered as deflection candidates. Forwarding is unaffected — the
    /// fault layer handles in-flight loss at event dispatch.
    pub fn set_port_down(&mut self, port: u16, down: bool) {
        self.down[port as usize] = down;
    }

    /// Pins the hybrid policy's load EWMA (conformance tests steer the
    /// deflect-vs-drop decision to either side of the threshold with
    /// this; the next overflow decision reads the pinned value).
    pub fn set_load_ewma(&mut self, ewma: u64) {
        self.load_ewma = ewma;
    }

    /// The hybrid policy's current load EWMA (diagnostics and tests).
    pub fn load_ewma(&self) -> u64 {
        self.load_ewma
    }

    /// The hybrid policy's deflect-vs-drop threshold: half the switch's
    /// aggregate buffer capacity. At or below it, overflow deflects; above
    /// it, overflow drops and lets the transport retransmit.
    pub fn hybrid_threshold(&self) -> u64 {
        self.cfg.port_buffer_bytes * self.ports.len() as u64 / 2
    }

    /// Test-only mutation hook: perturbs victim/egress selection in every
    /// deflection policy (least-loaded becomes most-loaded, PABO bounces
    /// forward, hybrid inverts its decision). Golden-trace tests seed this
    /// to prove each policy's goldens actually pin the selection logic.
    pub fn seed_victim_mutation(&mut self) {
        self.mutate_victim = true;
    }

    /// Immutable port access (tests, diagnostics).
    pub fn port(&self, p: PortId) -> &Port {
        &self.ports[p.index()]
    }

    /// Total bytes queued across all ports.
    pub fn queued_bytes(&self) -> u64 {
        self.ports.iter().map(|p| p.queue.bytes()).sum()
    }

    /// Largest single-port occupancy right now.
    pub fn busiest_port_bytes(&self) -> u64 {
        self.ports
            .iter()
            .map(|p| p.queue.bytes())
            .max()
            .unwrap_or(0)
    }

    /// Total packets queued across all ports (conservation audit).
    pub fn queued_pkts(&self) -> u64 {
        self.ports.iter().map(|p| p.queue.len() as u64).sum()
    }

    /// Serializes the mutable switch state: per-port queue contents and
    /// busy flags, DRILL's remembered ports, and the queue high-water
    /// mark. Config, routes, and the ECMP salt derive from the run spec
    /// and are not saved.
    pub fn snap_save(&self, w: &mut SnapWriter) {
        w.put_usize(self.ports.len());
        for port in &self.ports {
            port.snap_save(w);
        }
        w.put_usize(self.drill_best.len());
        for d in &self.drill_best {
            d.save(w);
        }
        w.put_u64(self.max_port_bytes);
        w.put_u64(self.load_ewma);
    }

    /// Restores state written by [`Switch::snap_save`] into a switch
    /// freshly built from the same run spec.
    pub fn snap_restore(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        // A port record is at least its queue's tag, count and byte
        // counter and the busy flag.
        let nports = r.count(18, "switch ports")?;
        if nports != self.ports.len() {
            return Err(SnapError::new(format!(
                "switch {}: snapshot has {nports} ports, topology has {}",
                self.id.0,
                self.ports.len()
            )));
        }
        for port in &mut self.ports {
            port.snap_restore(r, "port queue")?;
        }
        let nbest = r.count(1, "DRILL entries")?;
        if nbest != self.drill_best.len() {
            return Err(SnapError::new(format!(
                "switch {}: snapshot has {nbest} DRILL entries, topology has {}",
                self.id.0,
                self.drill_best.len()
            )));
        }
        for d in &mut self.drill_best {
            *d = Option::restore(r)?;
        }
        self.max_port_bytes = r.get_u64()?;
        self.load_ewma = r.get_u64()?;
        Ok(())
    }

    /// Handles a packet arriving on `in_port`.
    pub fn on_arrive(&mut self, in_port: PortId, mut pkt: Box<Packet>, ctx: &mut Ctx) {
        pkt.hops += 1;
        // Past the hop budget the packet dies before anything is decided
        // (or drawn) for it.
        let out = if pkt.hops > MAX_HOPS {
            None
        } else {
            let dst = pkt.dst.index();
            debug_assert!(dst < self.routes.hosts(), "packet to unknown destination");
            self.select_output(dst, &pkt, ctx)
        };
        match out {
            Some(out) => self.enqueue_with_policy(out, in_port, pkt, ctx),
            None => ctx.drop_pkt(self.id, u16::MAX, DropCause::TtlExceeded, pkt),
        }
    }

    /// Forwarding decision: pick among the equal-cost candidates.
    fn select_output(&mut self, dst: usize, pkt: &Packet, ctx: &mut Ctx) -> Option<u16> {
        let cands = self.routes.candidates(self.sw, dst);
        let n = cands.len();
        // Provenance for FwdDecision records: for DRILL, the remembered
        // port going into the decision.
        let mut remembered_before: Option<u16> = None;
        let chosen = match n {
            0 => None,
            1 => Some(cands[0]),
            n => match self.cfg.forward {
                ForwardPolicy::Ecmp => {
                    let h = ecmp_hash(pkt.flow.0, self.ecmp_salt);
                    Some(cands[(h % n as u64) as usize])
                }
                ForwardPolicy::Drill { d } => {
                    // Sample d random candidates plus the remembered best.
                    let (mut best, best_bytes) = least_loaded(
                        d.min(n),
                        cands,
                        &self.ports,
                        &mut self.pick_scratch,
                        ctx.rng,
                    );
                    remembered_before = self.drill_best[dst];
                    if let Some(m) = remembered_before {
                        if cands.contains(&m) && self.ports[m as usize].queue.bytes() < best_bytes {
                            best = Some(m);
                        }
                    }
                    self.drill_best[dst] = best;
                    best
                }
                ForwardPolicy::PowerOfN { n: power } => {
                    let k = power.max(1).min(n);
                    least_loaded(k, cands, &self.ports, &mut self.pick_scratch, ctx.rng).0
                }
            },
        };
        if ctx.rec.trace.enabled() {
            if let Some(c) = chosen {
                self.trace_fwd(pkt, n, remembered_before, c, ctx);
            }
        }
        chosen
    }

    /// Provenance: the FwdDecision record of a choice of `chosen` among
    /// `n` candidates (policy code 0 = forced single candidate).
    #[cold]
    #[inline(never)]
    fn trace_fwd(
        &self,
        pkt: &Packet,
        n: usize,
        remembered_before: Option<u16>,
        chosen: u16,
        ctx: &mut Ctx,
    ) {
        let policy_code = if n > 1 {
            self.cfg.forward.trace_code()
        } else {
            0
        };
        let b = n as u64 | ((remembered_before.map_or(0, |m| m as u64 + 1)) << 32);
        let flags = u8::from(remembered_before == Some(chosen));
        let kind = TraceKind::FwdDecision;
        ctx.trace(self.id, kind, pkt, policy_code, b, flags, chosen);
    }

    /// Provenance: an Enqueue or Dequeue record of `pkt` on `port`'s
    /// queue `q`, `b` = the queue's bytes plus `pending` (the packet's own
    /// size while it is not yet pushed).
    #[cold]
    #[inline(never)]
    fn trace_queue(
        id: NodeId,
        kind: TraceKind,
        q: &PortQueue,
        pkt: &Packet,
        pending: u64,
        port: u16,
        ctx: &mut Ctx,
    ) {
        let rank = q.rank_of(pkt).unwrap_or(TRACE_NO_RANK);
        let bytes = q.bytes().saturating_add(pending);
        ctx.trace(id, kind, pkt, rank, bytes, 0, port);
    }

    /// ECN: mark CE when the instantaneous queue length meets the DCTCP
    /// threshold.
    pub(crate) fn maybe_mark_ecn(
        cfg: &SwitchConfig,
        queue: &PortQueue,
        pkt: &mut Packet,
        ctx: &mut Ctx,
    ) {
        if cfg.ecn_threshold_pkts > 0 && queue.len() >= cfg.ecn_threshold_pkts {
            let was = pkt.ecn.is_ce();
            pkt.ecn.mark_ce();
            if !was && pkt.ecn.is_ce() {
                ctx.rec.ecn_marks += 1;
            }
        }
    }

    /// Queues `pkt` on `out`: the ECN mark against the queue it joins, its
    /// Enqueue record (`b` = queue bytes including the packet), the push.
    /// The caller has checked that it fits, or evicts afterwards.
    #[inline]
    pub(crate) fn admit(&mut self, out: u16, mut pkt: Box<Packet>, ctx: &mut Ctx) {
        let q = &mut self.ports[out as usize].queue;
        Self::maybe_mark_ecn(&self.cfg, q, &mut pkt, ctx);
        if ctx.rec.trace.enabled() {
            let size = pkt.wire_size as u64;
            Self::trace_queue(self.id, TraceKind::Enqueue, q, &pkt, size, out, ctx);
        }
        q.push(pkt);
    }

    /// Enqueues `pkt` on `out`, applying the overflow policy when full.
    fn enqueue_with_policy(
        &mut self,
        out: u16,
        in_port: PortId,
        mut pkt: Box<Packet>,
        ctx: &mut Ctx,
    ) {
        let cap = self.cfg.port_buffer_bytes;
        if self.ports[out as usize].queue.fits(&pkt, cap) {
            self.admit(out, pkt, ctx);
            self.max_port_bytes = self
                .max_port_bytes
                .max(self.ports[out as usize].queue.bytes());
            return self.start_tx(out, ctx);
        }
        match self.cfg.buffer {
            BufferPolicy::DropTail => ctx.drop_pkt(self.id, out, DropCause::QueueFull, pkt),
            BufferPolicy::Dibs { max_deflections } => {
                deflect::dibs(self, out, in_port, pkt, max_deflections, ctx)
            }
            BufferPolicy::Vertigo {
                deflect_power,
                scheduling,
                deflection,
            } => deflect::vertigo(self, out, pkt, deflect_power, scheduling, deflection, ctx),
            BufferPolicy::Pabo { max_deflections } => {
                deflect::pabo(self, out, in_port, pkt, max_deflections, ctx)
            }
            BufferPolicy::Hybrid { deflect_power } => {
                deflect::hybrid(self, out, in_port, pkt, deflect_power, ctx)
            }
            BufferPolicy::Bounded { cap, deflect_power } => {
                deflect::bounded(self, out, in_port, pkt, cap, deflect_power, ctx)
            }
            BufferPolicy::NdpTrim => {
                // Trim the payload and enqueue the header stub as an
                // explicit loss signal; stubs that still do not fit (or
                // ACKs, which have no payload to trim) are dropped.
                if pkt.is_data() && !pkt.is_trimmed() {
                    pkt.trim();
                    ctx.rec.trims += 1;
                    if self.ports[out as usize].queue.fits(&pkt, cap) {
                        self.admit(out, pkt, ctx);
                        return self.start_tx(out, ctx);
                    }
                }
                ctx.drop_pkt(self.id, out, DropCause::QueueFull, pkt);
            }
        }
    }

    /// Ports a packet may be deflected to: everything except the full
    /// output port, administratively-downed ports, host-facing ports that
    /// do not lead to the packet's destination (a foreign host would
    /// simply discard it), and — when the policy's
    /// [`BufferPolicy::excludes_ingress`] contract says so — the arrival's
    /// ingress port, passed as `exclude_ingress`.
    ///
    /// Vertigo and DIBS pass `None`: their candidate sets have always
    /// included the ingress, and the golden traces pin that byte for byte.
    ///
    /// Returns the switch's scratch buffer, detached to sidestep the
    /// borrow on `self`; callers hand it back by assigning
    /// `self.deflect_scratch` once done, so the steady-state deflection
    /// path performs no allocation.
    pub(crate) fn deflect_candidates(
        &mut self,
        full_port: u16,
        dst: NodeId,
        exclude_ingress: Option<u16>,
    ) -> Vec<u16> {
        let mut cands = std::mem::take(&mut self.deflect_scratch);
        cands.clear();
        cands.extend((0..self.ports.len() as u16).filter(|&p| {
            if p == full_port || Some(p) == exclude_ingress || self.down[p as usize] {
                return false;
            }
            let port = &self.ports[p as usize];
            !(port.host_facing && port.peer != dst)
        }));
        debug_assert!(
            !cands.contains(&full_port),
            "deflection candidates include the full output port"
        );
        debug_assert!(
            cands.iter().all(|&p| {
                let port = &self.ports[p as usize];
                !port.host_facing || port.peer == dst
            }),
            "deflection candidates include a host port that is not the destination's"
        );
        debug_assert!(
            exclude_ingress.is_none_or(|i| !cands.contains(&i)),
            "deflection candidates include the excluded ingress port"
        );
        cands
    }

    /// Starts transmission on `port` if it is idle and has queued packets.
    pub fn start_tx(&mut self, port: u16, ctx: &mut Ctx) {
        let p = &mut self.ports[port as usize];
        let Some(pkt) = p.next_tx() else {
            return;
        };
        if ctx.rec.trace.enabled() {
            Self::trace_queue(self.id, TraceKind::Dequeue, &p.queue, &pkt, 0, port, ctx);
        }
        ctx.transmit(self.id, PortId(port), p, pkt);
    }

    /// Serialization finished on `port`: free it and continue draining.
    pub fn on_tx_done(&mut self, port: PortId, ctx: &mut Ctx) {
        self.ports[port.index()].busy = false;
        self.start_tx(port.0, ctx);
    }
}

impl std::fmt::Debug for Switch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Switch")
            .field("id", &self.id)
            .field("ports", &self.ports.len())
            .field("queued_bytes", &self.queued_bytes())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkParams;
    use crate::topology::RouteTable;

    /// A 4-port switch: ports 0-1 host-facing (hosts 0 and 1), ports 2-3
    /// fabric-facing (switches 3 and 4). Node ids: hosts 0..3, switch 2
    /// is this one.
    fn test_switch() -> Switch {
        let link = LinkParams::gbps(10, 500);
        let mk_port = |peer: u32, host_facing: bool| Port {
            peer: NodeId(peer),
            peer_port: PortId(0),
            link,
            queue: PortQueue::fifo(),
            busy: false,
            host_facing,
        };
        let ports = vec![
            mk_port(0, true),
            mk_port(1, true),
            mk_port(3, false),
            mk_port(4, false),
        ];
        // Routes for this single switch (row 0): host 0 via port 0,
        // host 1 via port 1, host 2 (elsewhere) via fabric ports 2 and 3.
        let routes = RouteTable::from_nested(&[vec![vec![0], vec![1], vec![2, 3]]]);
        Switch::new(
            NodeId(2),
            SwitchConfig::ecmp(),
            ports,
            Arc::new(routes),
            0,
            7,
        )
    }

    #[test]
    fn deflect_candidates_exclude_full_port_and_foreign_hosts() {
        let mut sw = test_switch();
        // Packet to host 0, full output port 2: its own host port 0 stays
        // a candidate, host 1's port never is, port 2 is excluded.
        let cands = sw.deflect_candidates(2, NodeId(0), None);
        assert_eq!(cands, vec![0, 3]);
        sw.deflect_scratch = cands;
        // Packet to a remote host (node 5 behind the fabric): both host
        // ports are non-routes, only the other fabric port remains.
        let cands = sw.deflect_candidates(2, NodeId(5), None);
        assert_eq!(cands, vec![3]);
        sw.deflect_scratch = cands;
        // The full port is excluded even when it is the destination's own
        // host port.
        let cands = sw.deflect_candidates(0, NodeId(0), None);
        assert_eq!(cands, vec![2, 3]);
        sw.deflect_scratch = cands;
    }

    #[test]
    fn deflect_candidates_ingress_exclusion_is_explicit() {
        // The trait-level contract (regression for the latent assumption):
        // with `None` the arrival's ingress *is* a candidate — the legacy
        // policies have always allowed a bounce straight back out the
        // ingress and the goldens pin that — while `Some(ingress)` removes
        // exactly that port for the policies that opt in.
        let mut sw = test_switch();
        let cands = sw.deflect_candidates(2, NodeId(5), None);
        assert_eq!(cands, vec![3], "ingress 3 remains a candidate");
        sw.deflect_scratch = cands;
        let cands = sw.deflect_candidates(2, NodeId(5), Some(3));
        assert!(cands.is_empty(), "ingress 3 excluded on request");
        sw.deflect_scratch = cands;
        // Exclusion composes with the host-port rule, removing only the
        // named port.
        let cands = sw.deflect_candidates(2, NodeId(0), Some(3));
        assert_eq!(cands, vec![0]);
        sw.deflect_scratch = cands;
    }

    #[test]
    fn deflect_candidates_skip_downed_ports() {
        let mut sw = test_switch();
        sw.set_port_down(3, true);
        let cands = sw.deflect_candidates(2, NodeId(0), None);
        assert_eq!(cands, vec![0], "downed port 3 never offered");
        sw.deflect_scratch = cands;
        sw.set_port_down(3, false);
        let cands = sw.deflect_candidates(2, NodeId(0), None);
        assert_eq!(cands, vec![0, 3], "restored port returns");
        sw.deflect_scratch = cands;
    }

    #[test]
    fn deflect_candidates_reuse_scratch_capacity() {
        let mut sw = test_switch();
        let cands = sw.deflect_candidates(2, NodeId(0), None);
        let cap = cands.capacity();
        let ptr = cands.as_ptr();
        sw.deflect_scratch = cands;
        // The second call reuses the same allocation: no per-packet Vec.
        let cands = sw.deflect_candidates(3, NodeId(1), None);
        assert_eq!(cands.capacity(), cap);
        assert_eq!(cands.as_ptr(), ptr);
        sw.deflect_scratch = cands;
    }
}
