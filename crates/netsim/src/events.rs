//! Simulation events and the handler context.

use crate::link::LinkParams;
use std::sync::Arc;
use vertigo_pkt::{pool, FlowId, NodeId, Packet, PortId, QueryId};
use vertigo_simcore::{
    Batch, Delivery, EventQueue, SimRng, SimTime, SnapError, SnapReader, SnapWriter, Snapshot,
    WindowQueue,
};
use vertigo_stats::{DropCause, Recorder, TraceKind, TraceRecord};

/// Everything that can happen in the simulated network.
#[derive(Debug)]
pub enum Event {
    /// The last byte of `pkt` arrived at `node` on `port`.
    Arrive {
        /// Receiving node.
        node: NodeId,
        /// Ingress port.
        port: PortId,
        /// The packet (boxed: a pooled allocation that travels from queue
        /// to queue, and eight bytes of the event).
        pkt: Box<Packet>,
    },
    /// `node` finished serializing a packet out of `port`; the port is free.
    TxDone {
        /// Transmitting node.
        node: NodeId,
        /// The now-idle port.
        port: PortId,
    },
    /// A host's consolidated wakeup fired (possibly redundant; the host
    /// re-checks every deadline).
    HostTimer {
        /// The host.
        node: NodeId,
    },
    /// The periodic telemetry sampler fired (handled by the driver, not a
    /// node).
    TelemetrySample,
    /// The application opens a flow at `src`.
    FlowStart {
        /// Sending host.
        src: NodeId,
        /// Everything else about the flow.
        spec: Box<FlowSpec>,
    },
}

/// What [`Event::FlowStart`] opens. One event in thousands is a flow
/// start, and every pending event is as large as the largest variant, so
/// these 28 bytes live out of line and an [`Event`] is 16.
#[derive(Debug)]
pub struct FlowSpec {
    /// Receiving host.
    pub dst: NodeId,
    /// Flow id assigned by the driver.
    pub flow: FlowId,
    /// Owning query (`QueryId::NONE` for background traffic).
    pub query: QueryId,
    /// Flow size in bytes.
    pub bytes: u64,
}

impl Event {
    /// The node whose handler runs this event (`None` for the driver's
    /// own telemetry tick): what a scheduler indexes its nodes and RNG
    /// streams by, and what the fault layer freezes.
    #[inline]
    pub(crate) fn node(&self) -> Option<NodeId> {
        match *self {
            Event::Arrive { node, .. } | Event::TxDone { node, .. } | Event::HostTimer { node } => {
                Some(node)
            }
            Event::FlowStart { src, .. } => Some(src),
            Event::TelemetrySample => None,
        }
    }

    /// For a wire delivery, the ingress port and the packet's uid: with
    /// the node, all the fault layer reads of an event, handed to it by
    /// value so that it never holds the event's address.
    #[inline]
    pub(crate) fn arrival(&self) -> Option<(PortId, u64)> {
        match self {
            Event::Arrive { port, pkt, .. } => Some((*port, pkt.uid)),
            _ => None,
        }
    }
}

impl Snapshot for Event {
    fn save(&self, w: &mut SnapWriter) {
        match self {
            Event::Arrive { node, port, pkt } => {
                w.put_u8(0);
                node.save(w);
                port.save(w);
                pkt.save(w);
            }
            Event::TxDone { node, port } => {
                w.put_u8(1);
                node.save(w);
                port.save(w);
            }
            Event::HostTimer { node } => {
                w.put_u8(2);
                node.save(w);
            }
            Event::TelemetrySample => w.put_u8(3),
            Event::FlowStart { src, spec } => {
                w.put_u8(4);
                src.save(w);
                spec.dst.save(w);
                spec.flow.save(w);
                spec.query.save(w);
                w.put_u64(spec.bytes);
            }
        }
    }

    fn restore(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(match r.get_u8()? {
            0 => Event::Arrive {
                node: NodeId::restore(r)?,
                port: PortId::restore(r)?,
                pkt: <Box<Packet>>::restore(r)?,
            },
            1 => Event::TxDone {
                node: NodeId::restore(r)?,
                port: PortId::restore(r)?,
            },
            2 => Event::HostTimer {
                node: NodeId::restore(r)?,
            },
            3 => Event::TelemetrySample,
            4 => Event::FlowStart {
                src: NodeId::restore(r)?,
                spec: Box::new(FlowSpec {
                    dst: NodeId::restore(r)?,
                    flow: FlowId::restore(r)?,
                    query: QueryId::restore(r)?,
                    bytes: r.get_u64()?,
                }),
            },
            tag => return Err(SnapError::new(format!("invalid Event tag {tag:#x}"))),
        })
    }
}

/// Where one domain's events go that are not its event queue's alone: the
/// window queue that buffers wire deliveries to the domain's own nodes and
/// merges them at pop time, and one outbox per destination for packets
/// that leave the domain. The merge key of a delivery is `(arrival, send
/// time, Packet::uid)` — content-derived, so independent of the partition.
pub(crate) struct Router {
    /// The owning domain.
    pub(crate) index: u32,
    /// Global node id -> owning domain.
    pub(crate) node_domain: Arc<Vec<u16>>,
    /// The domain's clock, its deliveries that are not due yet, and what
    /// is left of the open window.
    pub(crate) window: WindowQueue<Event>,
    /// Deliveries produced this window for each other domain, handed
    /// over at the barrier (`outboxes[index]` stays empty).
    pub(crate) outboxes: Vec<Batch<Event>>,
}

impl Router {
    /// Schedules `ev` at `at` from a handler of this domain: a wire
    /// delivery waits for the window it lands in, here or in the outbox
    /// towards the domain that owns its node; anything else targets the
    /// node that scheduled it. Always inlined into the sink's push, as
    /// the classic queue's push is.
    #[inline(always)]
    fn route(&mut self, queue: &mut EventQueue<Event>, at: SimTime, ev: Event) {
        let (node, port, pkt) = match ev {
            Event::Arrive { node, port, pkt } => (node, port, pkt),
            // Read field by field, as the scheduling handler wrote it a
            // few instructions ago: a copy of the whole event loads
            // across its stores and waits for them to retire.
            Event::TxDone { node, port } => {
                return self.window.push(queue, at, Event::TxDone { node, port });
            }
            other => return self.window.push(queue, at, other),
        };
        let d = Delivery {
            at,
            sent: self.window.now(),
            uid: pkt.uid,
            ev: Event::Arrive { node, port, pkt },
        };
        // One domain owns every node: no table to consult.
        let own = self.index as usize;
        let dst = match self.outboxes.len() {
            1 => own,
            _ => self.node_domain[node.index()] as usize,
        };
        if dst == own {
            self.window.deliver(d);
        } else {
            self.outboxes[dst].push(d);
        }
    }
}

/// Where scheduled events go: straight into the local queue (classic
/// single-queue engine), or — in the domain-partitioned engine — through
/// the domain's [`Router`]: wire deliveries (`Event::Arrive`) wait in an
/// inbox or outbox for the window they land in, and self-targeted events
/// (`TxDone`, `HostTimer`) go to the local queue unless they are due in
/// the window that is open.
pub struct EventSink<'a> {
    queue: &'a mut EventQueue<Event>,
    router: Option<&'a mut Router>,
}

impl<'a> EventSink<'a> {
    /// A sink that pushes everything into `queue` (classic engine).
    pub fn direct(queue: &'a mut EventQueue<Event>) -> Self {
        EventSink {
            queue,
            router: None,
        }
    }

    /// A sink that sends everything through `router` (domain engine).
    pub(crate) fn routed(queue: &'a mut EventQueue<Event>, router: &'a mut Router) -> Self {
        EventSink {
            queue,
            router: Some(router),
        }
    }

    /// Current time: the timestamp of the last popped event. A domain's
    /// queue pops only part of its events, so its router keeps the clock.
    #[inline]
    pub fn now(&self) -> SimTime {
        match &self.router {
            Some(r) => r.window.now(),
            None => self.queue.now(),
        }
    }

    /// Schedules `ev` at absolute time `at`. Always inlined, like
    /// [`EventSink::push_after`].
    #[inline(always)]
    pub fn push(&mut self, at: SimTime, ev: Event) {
        match &mut self.router {
            Some(r) => r.route(self.queue, at, ev),
            None => self.queue.push(at, ev),
        }
    }

    /// Schedules `ev` for the node it already sits with, whatever its
    /// kind: a deferred `Arrive` skips the inbox.
    #[inline]
    pub(crate) fn push_local(&mut self, at: SimTime, ev: Event) {
        match &mut self.router {
            Some(r) => r.window.push(self.queue, at, ev),
            None => self.queue.push(at, ev),
        }
    }

    /// Schedules `ev` at `now + delay`. Always inlined, with the queue's
    /// and the wheel's push under it, down to the slot's append: an event
    /// handed to a call goes through a copy on the stack (DESIGN.md §5b).
    #[inline(always)]
    pub fn push_after(&mut self, delay: vertigo_simcore::SimDuration, ev: Event) {
        match &mut self.router {
            Some(r) => {
                let at = r.window.now() + delay;
                r.route(self.queue, at, ev);
            }
            None => self.queue.push_after(delay, ev),
        }
    }
}

/// Mutable simulation context handed to node event handlers. Handlers may
/// schedule follow-up events, record metrics, and draw randomness — but
/// cannot touch other nodes (all inter-node interaction flows through
/// events, which is what keeps the simulation deterministic).
pub struct Ctx<'a> {
    /// Current simulation time.
    pub now: SimTime,
    /// The event sink, for scheduling follow-ups.
    pub events: EventSink<'a>,
    /// The metrics sink.
    pub rec: &'a mut Recorder,
    /// The node's random stream (per-node in the domain engine; the
    /// run-global stream in the classic engine).
    pub rng: &'a mut SimRng,
}

impl Ctx<'_> {
    /// Emits one provenance record for `pkt` at `node`. Callers guard with
    /// `self.rec.trace.enabled()` and build the record in a `#[cold]`,
    /// never-inlined helper, so a disarmed hook site costs one branch.
    #[inline]
    #[allow(clippy::too_many_arguments)] // one argument per record field
    pub(crate) fn trace(
        &mut self,
        node: NodeId,
        kind: TraceKind,
        pkt: &Packet,
        a: u64,
        b: u64,
        flags: u8,
        port: u16,
    ) {
        self.rec.trace.record(TraceRecord {
            time_ns: self.now.as_nanos(),
            uid: pkt.uid,
            flow: pkt.flow.0,
            a,
            b,
            node: node.0,
            kind: kind.code(),
            flags,
            port,
        });
    }

    /// The one way a packet leaves the simulation early: its Drop record
    /// (`port` = the attempted output or the ingress it never got past,
    /// `u16::MAX` when none was chosen), the recorder's ledger, and the
    /// allocation back to the pool.
    #[inline]
    pub(crate) fn drop_pkt(&mut self, node: NodeId, port: u16, cause: DropCause, pkt: Box<Packet>) {
        if self.rec.trace.enabled() {
            self.trace_drop(node, port, cause, &pkt);
        }
        self.rec.on_drop(cause, pkt.wire_size);
        pool::recycle(pkt);
    }

    /// Provenance: the Drop record of [`Ctx::drop_pkt`] (`a` = the cause,
    /// `b` = wire bytes).
    #[cold]
    #[inline(never)]
    fn trace_drop(&mut self, node: NodeId, port: u16, cause: DropCause, pkt: &Packet) {
        let (a, b) = (cause.index() as u64, pkt.wire_size as u64);
        self.trace(node, TraceKind::Drop, pkt, a, b, 0, port);
    }

    /// Puts `pkt` on the wire out of `from`'s `port`: the port's own
    /// `TxDone` once the last bit is serialized, and the peer's `Arrive`
    /// a propagation delay after that.
    #[inline]
    pub(crate) fn transmit(
        &mut self,
        from: NodeId,
        port: PortId,
        link: LinkParams,
        peer: NodeId,
        peer_port: PortId,
        pkt: Box<Packet>,
    ) {
        let tx = link.tx_time(pkt.wire_size);
        self.events
            .push_after(tx, Event::TxDone { node: from, port });
        self.rec.audit.on_wire_tx();
        let arrive = Event::Arrive {
            node: peer,
            port: peer_port,
            pkt,
        };
        self.events.push_after(tx + link.prop_delay(), arrive);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::mem::size_of;

    /// Every pending event is as large as the largest variant, and the
    /// wheel's sorted run moves whole entries: a sixth field somewhere
    /// must fail here, not re-inflate every entry unnoticed.
    #[test]
    fn an_event_is_16_bytes_and_a_pending_entry_24() {
        assert!(size_of::<Event>() <= 16);
        assert_eq!(size_of::<Option<(u64, Event)>>(), 24);
        assert_eq!(size_of::<Option<Delivery<Event>>>(), 40);
    }

    #[test]
    fn flow_start_snapshot_is_its_five_fields_in_order() {
        let ev = Event::FlowStart {
            src: NodeId(7),
            spec: Box::new(FlowSpec {
                dst: NodeId(9),
                flow: FlowId(11),
                query: QueryId(13),
                bytes: 1 << 40,
            }),
        };
        let mut w = SnapWriter::new();
        ev.save(&mut w);
        let mut flat = SnapWriter::new();
        flat.put_u8(4);
        NodeId(7).save(&mut flat);
        NodeId(9).save(&mut flat);
        FlowId(11).save(&mut flat);
        QueryId(13).save(&mut flat);
        flat.put_u64(1 << 40);
        let bytes = w.into_bytes();
        assert_eq!(bytes, flat.into_bytes());
        let back = Event::restore(&mut SnapReader::new(&bytes)).expect("round trip");
        assert_eq!(format!("{back:?}"), format!("{ev:?}"));
    }
}
