//! Deterministic fault injection.
//!
//! A [`FaultSchedule`] is a declarative list of fault windows — link
//! down/loss/corruption, switch stall/blackhole, host pause — that the
//! simulation driver applies at event-dispatch time. Faults are
//! seed-deterministic: probabilistic windows draw from a dedicated RNG
//! stream forked off the run seed, so an identical `RunSpec` + schedule +
//! seed reproduces the exact same packet fates at any `--jobs`, and
//! adding a fault never perturbs the RNG draws of switches or workload
//! generators.
//!
//! Schedules are parsed from a compact spec string (the `--faults` CLI
//! flag), one item per window, items separated by `;`:
//!
//! ```text
//! kind:target[:prob]@from-until
//! ```
//!
//! * `kind` — `down`, `loss`, `corrupt` (link faults), `stall`,
//!   `blackhole`, `pause` (node faults).
//! * `target` — `A-B` (a link between adjacent node ids, both directions),
//!   `*` (every link) for link faults; a node id for node faults.
//! * `prob` — loss/corruption probability in `(0, 1]`; required for
//!   `loss`/`corrupt`, forbidden otherwise.
//! * `from`/`until` — times with a unit suffix (`ns`, `us`, `ms`, `s`);
//!   the window is half-open `[from, until)`. The window and the time
//!   literal read as in every spec grammar ([`crate::grammar`]).
//!
//! Examples: `down:0-64@5ms-8ms` (link between host 0 and switch 64 dead
//! for 3 ms), `loss:*:0.01@2ms-20ms` (1% loss everywhere),
//! `stall:70@1ms-1500us;pause:3@0s-1ms`.
//!
//! Semantics, applied by the driver before normal dispatch:
//!
//! * **down** — every packet delivery across the link during the window is
//!   dropped ([`DropCause::LinkDown`]).
//! * **loss** / **corrupt** — each delivery is dropped with probability
//!   `prob` ([`DropCause::LinkLoss`] / [`DropCause::LinkCorrupt`]; a
//!   corrupted packet fails the receiver's CRC, which for the simulator is
//!   the same outcome as a loss but accounted separately).
//! * **stall** / **pause** — the node freezes: all of its events (arrivals,
//!   TX completions, timers, flow starts) are deferred to the window end,
//!   preserving their relative order. `stall` is the switch-flavored
//!   spelling and `pause` the host-flavored one; either applies to any
//!   node.
//! * **blackhole** — the node silently discards every arriving packet
//!   ([`DropCause::Blackhole`]) while processing everything else normally.

use crate::grammar;
use crate::topology::Topology;
use std::collections::BTreeMap;
use vertigo_pkt::{mix64, NodeId, PortId};
use vertigo_simcore::{SimRng, SimTime};
use vertigo_stats::DropCause;

/// What a fault window does.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// Link administratively down: all traversals dropped.
    Down,
    /// Probabilistic loss on each traversal.
    Loss(f64),
    /// Probabilistic corruption on each traversal (dropped at the
    /// receiver's CRC check; accounted separately from loss).
    Corrupt(f64),
    /// Node frozen: every event for the node deferred to the window end.
    Stall,
    /// Node discards all arriving packets.
    Blackhole,
    /// Alias of [`FaultKind::Stall`] in host-flavored spelling.
    Pause,
}

impl FaultKind {
    /// True for kinds that target a link rather than a node.
    pub fn is_link_fault(self) -> bool {
        matches!(
            self,
            FaultKind::Down | FaultKind::Loss(_) | FaultKind::Corrupt(_)
        )
    }
}

/// What a fault window applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultTarget {
    /// The (bidirectional) link between two adjacent nodes.
    Link {
        /// One endpoint.
        a: NodeId,
        /// The other endpoint.
        b: NodeId,
    },
    /// Every link in the topology.
    AllLinks,
    /// A single node (switch or host).
    Node(NodeId),
}

/// One fault: a kind, a target, and a half-open active window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultWindow {
    /// What happens.
    pub kind: FaultKind,
    /// Where it happens.
    pub target: FaultTarget,
    /// Window start (inclusive).
    pub from: SimTime,
    /// Window end (exclusive).
    pub until: SimTime,
}

/// Maximum fault windows per schedule (inline storage keeps
/// `FaultSchedule` — and therefore `RunSpec` — `Copy`).
pub const MAX_FAULTS: usize = 16;

/// A declarative, copyable schedule of fault windows.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FaultSchedule {
    windows: [Option<FaultWindow>; MAX_FAULTS],
    len: u8,
}

impl FaultSchedule {
    /// The empty schedule (no faults).
    pub fn new() -> Self {
        FaultSchedule::default()
    }

    /// True when no fault windows are scheduled.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of scheduled fault windows.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Iterates the scheduled windows in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &FaultWindow> {
        self.windows[..self.len as usize]
            .iter()
            .map(|w| w.as_ref().expect("windows below len are Some"))
    }

    /// Whether every window's target exists in `topo`: a node id below
    /// its node count, a link between two of its nodes. A schedule parses
    /// without a topology, so this is checked where the two meet: the
    /// staged driver reports a refusal as an error, and
    /// [`Simulation::install_faults`](crate::Simulation::install_faults)
    /// panics on one.
    pub fn check(&self, topo: &Topology) -> Result<(), String> {
        let nodes = topo.num_nodes();
        let node = |n: NodeId| {
            (n.index() < nodes)
                .then_some(())
                .ok_or_else(|| format!("node {} not in topology ({nodes} nodes)", n.0))
        };
        for w in self.iter() {
            match w.target {
                FaultTarget::Node(n) => node(n)?,
                FaultTarget::Link { a, b } => {
                    node(a)?;
                    node(b)?;
                    if topo.port_to(a, b).is_none() {
                        return Err(format!("no link between nodes {} and {}", a.0, b.0));
                    }
                }
                FaultTarget::AllLinks => {}
            }
        }
        Ok(())
    }

    /// Adds a window, validating kind/target compatibility, probability
    /// range, and window ordering.
    pub fn push(&mut self, w: FaultWindow) -> Result<(), String> {
        if (self.len as usize) >= MAX_FAULTS {
            return Err(format!("fault schedule full (max {MAX_FAULTS} windows)"));
        }
        if w.until <= w.from {
            return Err(format!(
                "fault window must end after it starts ({:?} .. {:?})",
                w.from, w.until
            ));
        }
        match (w.kind, w.target) {
            (k, FaultTarget::Link { a, b }) if k.is_link_fault() => {
                if a == b {
                    return Err("link fault endpoints must differ".into());
                }
            }
            (k, FaultTarget::AllLinks) if k.is_link_fault() => {}
            (k, FaultTarget::Node(_)) if !k.is_link_fault() => {}
            (k, t) => {
                return Err(format!("fault kind {k:?} cannot target {t:?}"));
            }
        }
        if let FaultKind::Loss(p) | FaultKind::Corrupt(p) = w.kind {
            if !(p > 0.0 && p <= 1.0) {
                return Err(format!("fault probability must be in (0, 1], got {p}"));
            }
        }
        self.windows[self.len as usize] = Some(w);
        self.len += 1;
        Ok(())
    }

    /// Parses a `--faults` spec string (see the module docs for the
    /// grammar). The empty string parses to the empty schedule.
    pub fn parse(spec: &str) -> Result<FaultSchedule, String> {
        let mut sched = FaultSchedule::new();
        for item in spec.split(';') {
            let item = item.trim();
            if item.is_empty() {
                continue;
            }
            let w = parse_item(item).map_err(|e| format!("fault `{item}`: {e}"))?;
            sched.push(w)?;
        }
        Ok(sched)
    }
}

fn parse_item(item: &str) -> Result<FaultWindow, String> {
    let (head, window) = grammar::split_window(item)?;
    let (from, until) = window.ok_or("missing `@from-until` window")?;
    let mut parts = head.split(':').map(str::trim);
    let kind_s = parts.next().unwrap_or("");
    let target_s = parts.next().ok_or("missing target")?;
    let prob = parts
        .next()
        .map(|p| {
            p.parse::<f64>()
                .map_err(|_| format!("bad probability `{p}`"))
        })
        .transpose()?;
    if parts.next().is_some() {
        return Err("too many `:` fields".into());
    }
    // Loss and corruption take the probability field; no other kind does.
    let kind = match (kind_s, prob) {
        ("down", None) => FaultKind::Down,
        ("loss", Some(p)) => FaultKind::Loss(p),
        ("corrupt", Some(p)) => FaultKind::Corrupt(p),
        ("stall", None) => FaultKind::Stall,
        ("blackhole", None) => FaultKind::Blackhole,
        ("pause", None) => FaultKind::Pause,
        ("loss" | "corrupt", None) => return Err(format!("`{kind_s}` needs a probability field")),
        ("down" | "stall" | "blackhole" | "pause", Some(_)) => {
            return Err(format!("`{kind_s}` does not take a probability"))
        }
        (other, _) => {
            return Err(format!(
                "unknown kind `{other}` (expected down|loss|corrupt|stall|blackhole|pause)"
            ))
        }
    };
    let node = |s: &str| (s.trim().parse().map(NodeId)).map_err(|_| format!("bad node id `{s}`"));
    let target = match (kind.is_link_fault(), target_s) {
        (true, "*") => FaultTarget::AllLinks,
        (true, _) => {
            let (a, b) = target_s
                .split_once('-')
                .ok_or("link target must be `A-B` node ids or `*`")?;
            FaultTarget::Link {
                a: node(a)?,
                b: node(b)?,
            }
        }
        (false, _) => FaultTarget::Node(node(target_s)?),
    };
    Ok(FaultWindow {
        kind,
        target,
        from,
        until,
    })
}

/// What the driver should do with a popped event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FaultAction {
    /// Dispatch normally.
    Pass,
    /// Discard the event's packet with the given cause.
    Drop(DropCause),
    /// Re-enqueue the event at the given (future) time.
    Defer(SimTime),
}

#[derive(Debug, Clone, Copy)]
enum LinkFault {
    Down,
    Loss(f64),
    Corrupt(f64),
}

#[derive(Debug, Clone, Copy)]
enum NodeFault {
    Freeze,
    Blackhole,
}

#[derive(Debug, Clone, Copy)]
struct Compiled<K> {
    kind: K,
    from: SimTime,
    until: SimTime,
}

impl<K> Compiled<K> {
    fn active(&self, now: SimTime) -> bool {
        self.from <= now && now < self.until
    }
}

/// A schedule's windows compiled against a concrete topology, ready for
/// O(1)-ish per-event lookups at dispatch time.
#[derive(Debug, Default)]
struct Windows {
    /// Link windows keyed by the *receiving* `(node, port)` of a traversal.
    link: BTreeMap<(u32, u16), Vec<Compiled<LinkFault>>>,
    /// Node windows keyed by node id.
    node: BTreeMap<u32, Vec<Compiled<NodeFault>>>,
}

/// The compiled windows plus the stream the classic engine draws loss and
/// corruption from. Owned by the simulation driver.
#[derive(Debug)]
pub(crate) struct FaultState {
    /// Dedicated RNG stream for loss/corruption draws, forked off the run
    /// seed so faults never perturb switch or workload randomness.
    rng: SimRng,
    windows: Windows,
}

impl FaultState {
    /// Compiles `sched` against `topo`. Panics on a target that does not
    /// exist in the topology ([`FaultSchedule::check`]) — a schedule/config
    /// mismatch is a setup bug, not a runtime condition.
    pub(crate) fn compile(sched: &FaultSchedule, topo: &Topology, rng: SimRng) -> FaultState {
        if let Err(e) = sched.check(topo) {
            panic!("fault schedule: {e}");
        }
        let mut windows = Windows::default();
        for w in sched.iter() {
            match w.kind {
                FaultKind::Down => windows.add_link(w, LinkFault::Down, topo),
                FaultKind::Loss(p) => windows.add_link(w, LinkFault::Loss(p), topo),
                FaultKind::Corrupt(p) => windows.add_link(w, LinkFault::Corrupt(p), topo),
                FaultKind::Stall | FaultKind::Pause => windows.add_node(w, NodeFault::Freeze),
                FaultKind::Blackhole => windows.add_node(w, NodeFault::Blackhole),
            }
        }
        FaultState { rng, windows }
    }

    /// Serializes the fault RNG (stream `0xFA17`). The compiled windows
    /// derive from the schedule in the run spec and are rebuilt on
    /// resume, so only the RNG cursor is state.
    pub(crate) fn snap_save(&self, w: &mut vertigo_simcore::SnapWriter) {
        use vertigo_simcore::Snapshot;
        self.rng.save(w);
    }

    /// Restores the fault RNG written by [`FaultState::snap_save`].
    pub(crate) fn snap_restore(
        &mut self,
        r: &mut vertigo_simcore::SnapReader<'_>,
    ) -> Result<(), vertigo_simcore::SnapError> {
        use vertigo_simcore::Snapshot;
        self.rng = vertigo_simcore::SimRng::restore(r)?;
        Ok(())
    }

    /// The classic engine's entry point, for an event of `node` that is a
    /// wire delivery if `arrival` names its ingress port and packet uid
    /// ([`Event::arrival`](crate::events::Event::arrival)): loss/corruption
    /// draws advance the dedicated fault stream in event order, which is
    /// identical across `--jobs`.
    pub(crate) fn intercept(
        &mut self,
        now: SimTime,
        node: NodeId,
        arrival: Option<(PortId, u64)>,
    ) -> FaultAction {
        let chance = |p, _, _| self.rng.chance(p);
        self.windows.decide(now, node, arrival, chance)
    }

    /// The domain engine's entry point. Two differences, both forced by
    /// parallelism:
    ///
    /// * `&self` — every domain shares one compiled schedule behind an
    ///   `Arc`, so interception cannot mutate;
    /// * loss/corruption draws hash the *packet* (seed, uid, arrival time,
    ///   rx location, window index) instead of advancing a sequential RNG
    ///   stream. The verdict for a given packet traversal is therefore
    ///   identical for any domain count — sequential draw order would be
    ///   partition-dependent. Same uniform construction as
    ///   [`SimRng::uniform`] (top 53 bits of a mixed 64-bit word).
    pub(crate) fn intercept_keyed(
        &self,
        now: SimTime,
        node: NodeId,
        arrival: Option<(PortId, u64)>,
    ) -> FaultAction {
        self.windows.decide(now, node, arrival, |p, uid, location| {
            let mut h = mix64(self.rng.seed() ^ mix64(uid));
            h = mix64(h ^ now.as_nanos());
            h = mix64(h ^ location);
            ((h >> 11) as f64) * (1.0 / (1u64 << 53) as f64) < p
        })
    }
}

impl Windows {
    fn add_link(&mut self, w: &FaultWindow, kind: LinkFault, topo: &Topology) {
        let c = Compiled {
            kind,
            from: w.from,
            until: w.until,
        };
        match w.target {
            FaultTarget::Link { a, b } => {
                // A packet a->b arrives at b on b's port toward a (and
                // vice versa); fault both directions.
                for (rx, tx) in [(b, a), (a, b)] {
                    let port = topo.port_to(rx, tx).expect("a checked link");
                    self.link.entry((rx.0, port.0)).or_default().push(c);
                }
            }
            FaultTarget::AllLinks => {
                for n in 0..topo.num_nodes() {
                    for p in 0..topo.adj[n].len() {
                        self.link.entry((n as u32, p as u16)).or_default().push(c);
                    }
                }
            }
            FaultTarget::Node(_) => unreachable!("validated at push"),
        }
    }

    fn add_node(&mut self, w: &FaultWindow, kind: NodeFault) {
        let FaultTarget::Node(n) = w.target else {
            unreachable!("validated at push");
        };
        self.node.entry(n.0).or_default().push(Compiled {
            kind,
            from: w.from,
            until: w.until,
        });
    }

    /// Latest end among freeze windows active at `now` for `node`.
    fn frozen_until(&self, now: SimTime, node: NodeId) -> Option<SimTime> {
        let ws = self.node.get(&node.0)?;
        ws.iter()
            .filter(|c| matches!(c.kind, NodeFault::Freeze) && c.active(now))
            .map(|c| c.until)
            .max()
    }

    fn blackholed(&self, now: SimTime, node: NodeId) -> bool {
        self.node.get(&node.0).is_some_and(|ws| {
            ws.iter()
                .any(|c| matches!(c.kind, NodeFault::Blackhole) && c.active(now))
        })
    }

    /// The one walk over the schedule: decides the fate of a popped event
    /// of `node`, a wire delivery if `arrival` is its `(port, uid)`.
    /// Freezes, blackholes and downed links are a function of time and
    /// place; for a loss or corruption window active on the arrival's link
    /// the verdict is `chance(p, uid, location)`, where `location` names
    /// the receiving node, port and window (so co-located Loss and Corrupt
    /// windows draw independently).
    fn decide(
        &self,
        now: SimTime,
        node: NodeId,
        arrival: Option<(PortId, u64)>,
        mut chance: impl FnMut(f64, u64, u64) -> bool,
    ) -> FaultAction {
        if let Some(until) = self.frozen_until(now, node) {
            return FaultAction::Defer(until);
        }
        let Some((port, uid)) = arrival else {
            return FaultAction::Pass;
        };
        if self.blackholed(now, node) {
            return FaultAction::Drop(DropCause::Blackhole);
        }
        let windows = self.link.get(&(node.0, port.0)).into_iter().flatten();
        for (i, c) in windows.enumerate().filter(|(_, c)| c.active(now)) {
            let (p, cause) = match c.kind {
                LinkFault::Down => return FaultAction::Drop(DropCause::LinkDown),
                LinkFault::Loss(p) => (p, DropCause::LinkLoss),
                LinkFault::Corrupt(p) => (p, DropCause::LinkCorrupt),
            };
            let location = ((node.0 as u64) << 24) | ((port.0 as u64) << 8) | i as u64;
            if chance(p, uid, location) {
                return FaultAction::Drop(cause);
            }
        }
        FaultAction::Pass
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkParams;
    use proptest::prelude::*;

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    /// 4 hosts, 2 leaves, 2 spines: node ids 0..8.
    fn small_topo() -> Topology {
        let link = LinkParams::gbps(10, 500);
        Topology::leaf_spine(2, 2, 2, link, link)
    }

    /// `(kind, node, neighbour index, from us, length us, probability %)`.
    /// Kinds 0..3 are the deterministic ones (down, blackhole, stall),
    /// 3 and 4 loss on one link and corruption everywhere.
    type WindowSpec = (u8, usize, usize, u64, u64, u32);

    fn compile(topo: &Topology, specs: &[WindowSpec]) -> FaultState {
        let mut sched = FaultSchedule::new();
        for &(kind, n, nbr, from, len, pct) in specs {
            let a = NodeId(n as u32);
            let b = topo.adj[n][nbr % topo.adj[n].len()].0;
            let p = pct as f64 / 100.0;
            let (kind, target) = match kind {
                0 => (FaultKind::Down, FaultTarget::Link { a, b }),
                1 => (FaultKind::Blackhole, FaultTarget::Node(a)),
                2 => (FaultKind::Stall, FaultTarget::Node(a)),
                3 => (FaultKind::Loss(p), FaultTarget::Link { a, b }),
                _ => (FaultKind::Corrupt(p), FaultTarget::AllLinks),
            };
            let (from, until) = (t(from), t(from + len));
            let w = FaultWindow {
                kind,
                target,
                from,
                until,
            };
            sched.push(w).expect("valid window");
        }
        FaultState::compile(&sched, topo, SimRng::new(7).fork(0xFA17))
    }

    /// `(time us, event kind, node, port index, packet uid)`; kinds from 3
    /// up are arrivals, the only events the link windows look at.
    type Probe = (u64, u8, usize, usize, u64);

    /// What a scheduler hands the fault layer for the probe's event.
    fn probe(
        topo: &Topology,
        &(at, kind, n, port, uid): &Probe,
    ) -> (SimTime, NodeId, Option<(PortId, u64)>) {
        let port = PortId((port % topo.adj[n].len()) as u16);
        (t(at), NodeId(n as u32), (kind >= 3).then_some((port, uid)))
    }

    proptest! {
        /// Where no draw is involved the two entry points are one walk:
        /// the same verdict for every event, whatever was probed before.
        #[test]
        fn entry_points_agree_on_deterministic_windows(
            specs in proptest::collection::vec(
                (0u8..3, 0usize..8, 0usize..8, 0u64..1000, 1u64..500, 1u32..=100), 0..12),
            probes in proptest::collection::vec(
                (0u64..1600, 0u8..8, 0usize..8, 0usize..8, 0u64..1000), 1..60),
        ) {
            let topo = small_topo();
            let mut fs = compile(&topo, &specs);
            for p in &probes {
                let (now, node, arrival) = probe(&topo, p);
                let verdict = fs.intercept(now, node, arrival);
                prop_assert_eq!(verdict, fs.intercept_keyed(now, node, arrival));
            }
        }

        /// A keyed loss/corruption verdict is a function of the packet and
        /// the place alone: it does not move with how many other events
        /// went through either entry point first (sequential probes advance
        /// the fault stream the keyed draw shares a seed with).
        #[test]
        fn keyed_verdict_ignores_probe_history(
            specs in proptest::collection::vec(
                (0u8..5, 0usize..8, 0usize..8, 0u64..1000, 1u64..500, 1u32..=100), 1..12),
            others in proptest::collection::vec(
                (0u64..1600, 0u8..8, 0usize..8, 0usize..8, 0u64..1000), 0..40),
            target in (0u64..1600, 3u8..8, 0usize..8, 0usize..8, 0u64..1000),
        ) {
            let topo = small_topo();
            let fresh = compile(&topo, &specs);
            let mut used = compile(&topo, &specs);
            for (i, o) in others.iter().enumerate() {
                let (now, node, arrival) = probe(&topo, o);
                if i % 2 == 0 {
                    used.intercept(now, node, arrival);
                } else {
                    used.intercept_keyed(now, node, arrival);
                }
            }
            let (now, node, arrival) = probe(&topo, &target);
            prop_assert_eq!(
                fresh.intercept_keyed(now, node, arrival),
                used.intercept_keyed(now, node, arrival)
            );
        }
    }

    #[test]
    fn parse_full_grammar() {
        let s = FaultSchedule::parse(
            "down:0-64@5ms-8ms; loss:*:0.01@2ms-20ms; corrupt:1-65:0.5@0us-10us; \
             stall:70@1ms-1500us; blackhole:66@0s-1ms; pause:3@100us-200us",
        )
        .expect("valid spec");
        assert_eq!(s.len(), 6);
        let ws: Vec<&FaultWindow> = s.iter().collect();
        assert_eq!(
            *ws[0],
            FaultWindow {
                kind: FaultKind::Down,
                target: FaultTarget::Link {
                    a: NodeId(0),
                    b: NodeId(64)
                },
                from: t(5000),
                until: t(8000),
            }
        );
        assert_eq!(ws[1].kind, FaultKind::Loss(0.01));
        assert_eq!(ws[1].target, FaultTarget::AllLinks);
        assert_eq!(ws[3].kind, FaultKind::Stall);
        assert_eq!(ws[3].until, t(1500));
        assert_eq!(ws[5].target, FaultTarget::Node(NodeId(3)));
    }

    #[test]
    fn parse_empty_is_empty() {
        assert!(FaultSchedule::parse("").expect("empty ok").is_empty());
        assert!(FaultSchedule::parse(" ; ").expect("blanks ok").is_empty());
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        for bad in [
            "down:0-64",                  // no window
            "down:0-64@5ms",              // no range
            "flood:0-64@0s-1ms",          // unknown kind
            "loss:*@0s-1ms",              // loss without probability
            "loss:*:0@0s-1ms",            // probability out of range
            "loss:*:1.5@0s-1ms",          // probability out of range
            "down:7@0s-1ms",              // link kind with node target
            "stall:0-64@0s-1ms",          // node kind with link target
            "stall:7:0.5@0s-1ms",         // node kind with probability
            "down:0-0@0s-1ms",            // self-link
            "down:0-64@1ms-1ms",          // empty window
            "down:0-64@2ms-1ms",          // inverted window
            "down:0-64@0s-1parsec",       // bad unit
            "down:zero-64@0s-1ms",        // bad node id
            "down:0-64:0.1:extra@0s-1ms", // too many fields
        ] {
            assert!(FaultSchedule::parse(bad).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn schedule_capacity_is_enforced() {
        let mut s = FaultSchedule::new();
        let w = FaultWindow {
            kind: FaultKind::Down,
            target: FaultTarget::Link {
                a: NodeId(0),
                b: NodeId(1),
            },
            from: t(0),
            until: t(1),
        };
        for _ in 0..MAX_FAULTS {
            s.push(w).expect("below capacity");
        }
        assert!(s.push(w).is_err());
    }

    #[test]
    fn compiled_windows_are_half_open() {
        let c = Compiled {
            kind: LinkFault::Down,
            from: t(10),
            until: t(20),
        };
        assert!(!c.active(t(9)));
        assert!(c.active(t(10)));
        assert!(c.active(t(19)));
        assert!(!c.active(t(20)));
    }
}
