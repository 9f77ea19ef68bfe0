//! Forwarding and buffer-overflow policies.
//!
//! A switch makes two kinds of decision:
//!
//! 1. **Forwarding** — among the equal-cost next-hop ports toward the
//!    destination, which one gets the packet? [`ForwardPolicy`] covers
//!    ECMP flow hashing, DRILL's `d=2,m=1` micro load balancing, and
//!    Vertigo's power-of-n-choices (paper Fig. 12's `1FW`/`2FW`).
//! 2. **Overflow** — the chosen output queue is full; now what?
//!    [`BufferPolicy`] covers tail drop (ECMP/DRILL), NDP trimming, and the
//!    deflection policies of `crate::deflect`: DIBS, Vertigo's selective
//!    deflection with power-of-n placement (`1DEF`/`2DEF`), PABO, the
//!    load-threshold hybrid and bounce-bounded deflection.

use crate::deflect::DeflectKind;

/// How a switch picks among equal-cost next hops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ForwardPolicy {
    /// Static flow hashing: every packet of a flow takes the same port.
    Ecmp,
    /// DRILL(d, m=1): sample `d` random candidates plus the remembered
    /// best from the previous decision; send to the least loaded.
    Drill {
        /// Number of fresh random samples per decision.
        d: usize,
    },
    /// Power-of-n-choices per packet: sample `n` candidates, pick the
    /// least-loaded queue. `n = 1` degenerates to uniform random (the
    /// paper's `1FW` ablation); `n = 2` is Vertigo's default (`2FW`).
    PowerOfN {
        /// Number of sampled candidates.
        n: usize,
    },
}

/// What a switch does when the selected output queue cannot take a packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BufferPolicy {
    /// Drop the arriving packet (ECMP, DRILL).
    DropTail,
    /// DIBS: deflect the *arriving* packet to a random port that has
    /// space; drop when none has space or the packet was already
    /// deflected `max_deflections` times.
    Dibs {
        /// Deflection budget per packet (DIBS's TTL-like cap).
        max_deflections: u16,
    },
    /// NDP-style packet trimming (an *extension* beyond the paper, which
    /// names NDP as related buffer management): on overflow the payload is
    /// cut off and the header-only stub is enqueued, giving the receiver an
    /// explicit, RTO-free loss signal (it answers with a duplicate ACK that
    /// triggers fast retransmit).
    NdpTrim,
    /// Vertigo: victimize the largest-RFS packet (arriving vs. queue
    /// residents, when `scheduling` is on), deflect the victim to the
    /// least-loaded of `deflect_power` sampled ports, and if all samples
    /// are full force it into a random one — evicting (dropping) the
    /// largest-RFS packet there.
    Vertigo {
        /// Ports sampled per deflection (`1DEF`/`2DEF` in Fig. 12).
        deflect_power: usize,
        /// SRPT priority queues + evict-worst victim selection. Off =
        /// the paper's "No Scheduling" ablation (FIFO queues, the
        /// arriving packet is always the victim).
        scheduling: bool,
        /// Deflect at all. Off = the "No Deflection" ablation (victim is
        /// dropped instead of deflected; with scheduling on this is pure
        /// SRPT buffer management).
        deflection: bool,
    },
    /// PABO (Shi et al.): bounce the arriving packet *backward* out of
    /// its ingress port, to the hop it came from. Drops when the bounce
    /// budget is spent, the ingress is the full output itself, is down,
    /// faces a host (hosts discard foreign packets), or its queue is also
    /// full.
    Pabo {
        /// Bounce budget per packet (mirrors DIBS's TTL-like cap).
        max_deflections: u16,
    },
    /// OBS-style adaptive hybrid (Lévesque et al.): an EWMA of total
    /// switch occupancy picks between deflection (lightly loaded: the
    /// detour likely survives) and dropping so the transport retransmits
    /// (heavily loaded: a deflected packet would only feed the collapse).
    Hybrid {
        /// Ports sampled per deflection on the deflect branch.
        deflect_power: usize,
    },
    /// Bounce-bounded deflection (NoC worst-case-latency protocols): the
    /// arriving packet deflects to the least-loaded sampled port, its
    /// priority escalating with every bounce (rank halves per bounce in
    /// the escalating PIEO queues), and drops precisely at the cap.
    Bounded {
        /// Maximum bounces per packet before it is dropped.
        cap: u16,
        /// Ports sampled per deflection.
        deflect_power: usize,
    },
}

/// The queue discipline a buffer policy needs on every output port.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueueDiscipline {
    /// Plain FIFO (baselines and ablations).
    Fifo,
    /// RFS-sorted SRPT priority queues (Vertigo with scheduling).
    Prio,
    /// RFS-sorted with per-bounce priority escalation (bounce-bounded).
    PrioEscalating,
}

impl BufferPolicy {
    /// Which queue discipline this policy requires.
    pub fn queue_discipline(&self) -> QueueDiscipline {
        match self {
            BufferPolicy::Vertigo {
                scheduling: true, ..
            } => QueueDiscipline::Prio,
            BufferPolicy::Bounded { .. } => QueueDiscipline::PrioEscalating,
            _ => QueueDiscipline::Fifo,
        }
    }

    /// Whether this policy requires RFS-sorted priority queues (of either
    /// the plain or the escalating discipline).
    pub fn wants_priority_queues(&self) -> bool {
        self.queue_discipline() != QueueDiscipline::Fifo
    }

    /// Policy code stamped into bits 2+ of a Deflect record's flags byte.
    /// Vertigo and DIBS share code 0: their traces predate the codes and
    /// stay byte-identical. Part of the on-disk trace format.
    pub fn trace_code(&self) -> u8 {
        match self {
            BufferPolicy::Pabo { .. } => 1,
            BufferPolicy::Hybrid { .. } => 2,
            BufferPolicy::Bounded { .. } => 3,
            _ => 0,
        }
    }

    /// The most deflections one packet can collect under this policy —
    /// what debug builds assert on every deflection — or `None` where
    /// nothing bounds it.
    pub(crate) fn deflection_budget(&self) -> Option<u16> {
        match *self {
            BufferPolicy::DropTail | BufferPolicy::NdpTrim => Some(0),
            BufferPolicy::Dibs { max_deflections } | BufferPolicy::Pabo { max_deflections } => {
                Some(max_deflections)
            }
            BufferPolicy::Bounded { cap, .. } => Some(cap),
            // Only the arrival is deflected, once per switch visit, and the
            // hop guard bounds the visits.
            BufferPolicy::Hybrid { .. }
            | BufferPolicy::Vertigo {
                scheduling: false, ..
            } => Some(vertigo_pkt::MAX_HOPS),
            // A queued victim can be displaced again before it leaves the
            // switch, with no hop in between: `experiments table3 --quick`
            // deflects one packet 61 times in 56 hops (ROADMAP, harden (b)).
            BufferPolicy::Vertigo {
                scheduling: true, ..
            } => None,
        }
    }

    /// Whether this policy removes the arrival's ingress port from its
    /// deflection candidates. Vertigo and DIBS do not — their candidate
    /// sets have always included the ingress, and the golden traces pin
    /// that. Neither does PABO: it samples no candidates at all, it
    /// *targets* the ingress-side upstream hop.
    pub fn excludes_ingress(&self) -> bool {
        matches!(
            self,
            BufferPolicy::Hybrid { .. } | BufferPolicy::Bounded { .. }
        )
    }
}

/// Full per-switch configuration.
#[derive(Debug, Clone, Copy)]
pub struct SwitchConfig {
    /// Next-hop selection.
    pub forward: ForwardPolicy,
    /// Overflow handling.
    pub buffer: BufferPolicy,
    /// Per-port buffer capacity in bytes (paper: 300 KB).
    pub port_buffer_bytes: u64,
    /// DCTCP ECN marking threshold in packets (paper: 65); `0` disables
    /// marking.
    pub ecn_threshold_pkts: usize,
    /// Per-retransmission boost rotation used for rank computation
    /// (must match the hosts' marking component).
    pub boost_shift: u32,
}

impl SwitchConfig {
    /// ECMP + tail drop: the plain datacenter baseline.
    pub fn ecmp() -> Self {
        SwitchConfig {
            forward: ForwardPolicy::Ecmp,
            buffer: BufferPolicy::DropTail,
            port_buffer_bytes: 300 * 1000,
            ecn_threshold_pkts: 65,
            boost_shift: 1,
        }
    }

    /// DRILL micro load balancing (d=2, m=1) + tail drop.
    pub fn drill() -> Self {
        SwitchConfig {
            forward: ForwardPolicy::Drill { d: 2 },
            ..Self::ecmp()
        }
    }

    /// NDP-style trimming (extension): ECMP forwarding + payload trimming
    /// on overflow.
    pub fn ndp_trim() -> Self {
        SwitchConfig {
            buffer: BufferPolicy::NdpTrim,
            ..Self::ecmp()
        }
    }

    /// DIBS: ECMP forwarding + random deflection.
    pub fn dibs() -> Self {
        SwitchConfig {
            buffer: DeflectKind::Dibs.buffer_policy(2),
            ..Self::ecmp()
        }
    }

    /// Vertigo defaults: power-of-two forwarding and deflection, SRPT
    /// scheduling on.
    pub fn vertigo() -> Self {
        SwitchConfig {
            forward: ForwardPolicy::PowerOfN { n: 2 },
            buffer: DeflectKind::Vertigo.buffer_policy(2),
            ..Self::ecmp()
        }
    }

    /// PABO: ECMP forwarding + backward bounce on overflow.
    pub fn pabo() -> Self {
        SwitchConfig {
            buffer: DeflectKind::Pabo.buffer_policy(2),
            ..Self::ecmp()
        }
    }

    /// OBS-style adaptive hybrid: ECMP forwarding + load-EWMA choice of
    /// deflect-vs-drop on overflow.
    pub fn hybrid() -> Self {
        SwitchConfig {
            buffer: DeflectKind::Hybrid.buffer_policy(2),
            ..Self::ecmp()
        }
    }

    /// Bounce-bounded deflection: ECMP forwarding, escalating priority
    /// queues, drop at the bounce cap.
    pub fn bounded() -> Self {
        SwitchConfig {
            buffer: DeflectKind::Bounded.buffer_policy(2),
            ..Self::ecmp()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_paper_settings() {
        let e = SwitchConfig::ecmp();
        assert_eq!(e.forward, ForwardPolicy::Ecmp);
        assert_eq!(e.buffer, BufferPolicy::DropTail);
        assert_eq!(e.port_buffer_bytes, 300_000);
        assert_eq!(e.ecn_threshold_pkts, 65);

        let d = SwitchConfig::drill();
        assert_eq!(d.forward, ForwardPolicy::Drill { d: 2 });

        let b = SwitchConfig::dibs();
        assert!(matches!(b.buffer, BufferPolicy::Dibs { .. }));
        assert_eq!(b.forward, ForwardPolicy::Ecmp, "DIBS forwards via ECMP");

        let v = SwitchConfig::vertigo();
        assert_eq!(v.forward, ForwardPolicy::PowerOfN { n: 2 });
        assert!(v.buffer.wants_priority_queues());
    }

    #[test]
    fn ablations_drop_priority_queues() {
        let no_sched = BufferPolicy::Vertigo {
            deflect_power: 2,
            scheduling: false,
            deflection: true,
        };
        assert!(!no_sched.wants_priority_queues());
        assert!(!BufferPolicy::DropTail.wants_priority_queues());
    }

    #[test]
    fn disciplines_per_policy() {
        assert_eq!(
            SwitchConfig::vertigo().buffer.queue_discipline(),
            QueueDiscipline::Prio
        );
        assert_eq!(
            SwitchConfig::bounded().buffer.queue_discipline(),
            QueueDiscipline::PrioEscalating
        );
        assert!(SwitchConfig::bounded().buffer.wants_priority_queues());
        for cfg in [
            SwitchConfig::ecmp(),
            SwitchConfig::dibs(),
            SwitchConfig::pabo(),
            SwitchConfig::hybrid(),
        ] {
            assert_eq!(cfg.buffer.queue_discipline(), QueueDiscipline::Fifo);
        }
    }
}
