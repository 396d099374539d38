//! The discrete-event simulator: devices, interfaces, links, and the event
//! loop.
//!
//! Devices implement [`Device`] and exchange [`IpPacket`]s over
//! point-to-point [`Link`]s with configurable latency and loss. All state
//! advances through a single time-ordered event queue; ties are broken by a
//! monotonically increasing sequence number, so runs are fully
//! deterministic.

use crate::capture::{
    CaptureBuffer, CaptureEvent, CaptureKind, CaptureSink, FaultCause, NatPhase, NullCapture,
};
use crate::fxhash::FxHashMap;
use crate::packet::{FlowSummary, IpPacket};
use crate::pool::PayloadPool;
use crate::time::{SimDuration, SimTime};
use bytes::Bytes;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::any::Any;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Identifies a device within one simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub usize);

/// Identifies an interface on a device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct IfaceId(pub usize);

/// Identifies a link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LinkId(pub usize);

/// Side effects a device can request while handling an event.
#[derive(Debug)]
enum Action {
    Send { iface: IfaceId, packet: IpPacket },
    Timer { delay: SimDuration, token: u64 },
}

/// Execution context handed to devices. Collects the device's side effects
/// (packet transmissions, timer requests) and exposes virtual time and the
/// simulation RNG.
pub struct Ctx<'a> {
    now: SimTime,
    node: NodeId,
    rng: &'a mut StdRng,
    actions: &'a mut Vec<Action>,
    payloads: &'a mut PayloadPool,
    capture_on: bool,
    capture: &'a mut dyn CaptureSink,
}

impl<'a> Ctx<'a> {
    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The device's own node id.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Whether the flight recorder is on. Devices must check this before
    /// building a [`CaptureKind`] so the disabled path never clones
    /// packets.
    pub fn capture_enabled(&self) -> bool {
        self.capture_on
    }

    /// Records one capture hop at the current time and node. A no-op when
    /// the recorder is off, but callers should gate on
    /// [`capture_enabled`](Ctx::capture_enabled) to avoid constructing the
    /// event at all.
    pub fn capture(&mut self, iface: Option<IfaceId>, kind: CaptureKind) {
        if self.capture_on {
            self.capture.record(CaptureEvent { at: self.now, node: self.node, iface, kind });
        }
    }

    /// Records a NAT rewrite hop. `before` is the flow tuple snapshotted
    /// ahead of the rewrite — pass `None` (and skip the snapshot) when the
    /// recorder is off. The phase is classified from the before/after
    /// tuples, or forced to [`NatPhase::Reverse`] for conntrack reply
    /// translation; nothing is recorded when the tuples are identical.
    pub fn capture_nat_rewrite(
        &mut self,
        iface: IfaceId,
        before: Option<FlowSummary>,
        packet: &IpPacket,
        reverse: bool,
    ) {
        let Some(before) = before else { return };
        let after = packet.flow_summary();
        let phase =
            if reverse { Some(NatPhase::Reverse) } else { NatPhase::classify(&before, &after) };
        if let Some(phase) = phase {
            self.capture(
                Some(iface),
                CaptureKind::NatRewrite { phase, before, after, packet: packet.clone() },
            );
        }
    }

    /// Transmits a packet out of `iface`. If the interface has no link the
    /// packet is silently dropped (like a cable that isn't plugged in).
    pub fn send(&mut self, iface: IfaceId, packet: IpPacket) {
        self.actions.push(Action::Send { iface, packet });
    }

    /// Requests a timer callback after `delay`, carrying `token`.
    pub fn set_timer(&mut self, delay: SimDuration, token: u64) {
        self.actions.push(Action::Timer { delay, token });
    }

    /// Deterministic simulation RNG (seeded at simulator construction).
    pub fn rng(&mut self) -> &mut StdRng {
        self.rng
    }

    /// Copies `data` into the simulator's pooled payload slabs and returns
    /// it as a [`Bytes`]. Devices building reply packets use this instead
    /// of `Bytes::from(vec)` so payload storage is carved from recycled
    /// slabs rather than allocated per packet.
    pub fn alloc_payload(&mut self, data: &[u8]) -> Bytes {
        self.payloads.alloc(data)
    }
}

/// A simulated network element.
pub trait Device: Any {
    /// Handles a packet arriving on `iface`.
    fn receive(&mut self, ctx: &mut Ctx<'_>, iface: IfaceId, packet: IpPacket);

    /// Handles a timer previously requested via [`Ctx::set_timer`].
    fn timer(&mut self, _ctx: &mut Ctx<'_>, _token: u64) {}

    /// Human-readable name for traces.
    fn name(&self) -> &str;

    /// Downcast support so harnesses can inspect concrete device state.
    fn as_any(&self) -> &dyn Any;

    /// Mutable downcast support.
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

/// One endpoint of a link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Attachment {
    /// Device.
    pub node: NodeId,
    /// Interface on that device.
    pub iface: IfaceId,
}

/// A burst-loss episode: once triggered, the link drops this many
/// consecutive traversals — the shape of a last-mile line flapping or a
/// Wi-Fi deep fade, which uniform loss cannot reproduce.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BurstLoss {
    /// Probability in [0,1] that a traversal *starts* a burst.
    pub start: f64,
    /// Traversals dropped per burst (including the triggering one).
    pub length: u32,
}

/// Late delivery: the packet still arrives, but this much later — long
/// after any reasonable DNS timeout, so the response drains into a
/// *subsequent* query's receive window carrying a stale transaction ID.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LateDelivery {
    /// Probability in [0,1] that a traversal is delivered late.
    pub probability: f64,
    /// Extra delay added on top of latency and jitter.
    pub delay: SimDuration,
}

/// Fault model of one link, applied independently per traversal in a fixed
/// order: burst loss, uniform loss, duplication, late delivery. All
/// randomness comes from the simulator's seeded RNG, so fault patterns are
/// reproducible.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FaultProfile {
    /// Probability in [0,1] that a traversal is dropped (uniform).
    pub loss: f64,
    /// Seeded burst loss, if any.
    pub burst: Option<BurstLoss>,
    /// Probability in [0,1] that a traversal is delivered twice (the
    /// second copy arrives one jitter-free latency later).
    pub duplicate: f64,
    /// Late delivery, if any.
    pub late: Option<LateDelivery>,
}

impl FaultProfile {
    /// Uniform loss only — what [`Simulator::connect_lossy`] configures.
    pub fn lossy(loss: f64) -> FaultProfile {
        FaultProfile { loss: loss.clamp(0.0, 1.0), ..FaultProfile::default() }
    }
}

/// A bidirectional point-to-point link.
#[derive(Debug, Clone)]
pub struct Link {
    a: Attachment,
    b: Attachment,
    latency: SimDuration,
    /// Maximum extra latency added per traversal (uniform, seeded RNG).
    jitter: SimDuration,
    /// Fault model applied to each traversal.
    faults: FaultProfile,
    /// Traversals still to drop in the current burst episode.
    burst_remaining: u32,
    up: bool,
    /// Per-link traffic counters, surfaced through [`SimStats`].
    stats: LinkStats,
}

/// Traffic counters for one link.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// Traversals that scheduled a delivery (duplicate copies excluded).
    pub delivered: u64,
    /// Traversals dropped by loss, bursts, or the link being down.
    pub dropped: u64,
    /// Extra copies scheduled by the duplication fault.
    pub duplicated: u64,
    /// Traversals detained by the late-delivery fault.
    pub delayed: u64,
}

/// A consistent snapshot of the simulator's counters, with per-link
/// breakdowns. Obtain one via [`Simulator::stats`] — the single source for
/// every counter the simulator keeps.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Events dispatched by the event loop.
    pub events_processed: u64,
    /// Packets dropped by loss, down links, or missing attachments.
    pub packets_dropped: u64,
    /// Extra packet copies delivered by the duplication fault.
    pub packets_duplicated: u64,
    /// Packets hit by the late-delivery fault.
    pub packets_delayed: u64,
    /// Per-link counters, indexed by [`LinkId`].
    pub per_link: Vec<LinkStats>,
}

#[derive(Debug, PartialEq, Eq)]
enum EventKind {
    Arrival { node: NodeId, iface: IfaceId, packet: IpPacket, from: Attachment },
    Timer { node: NodeId, token: u64 },
}

#[derive(Debug)]
struct Event {
    at: SimTime,
    seq: u64,
    kind: EventKind,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// One captured trace entry (packet delivery to a device).
#[derive(Debug, Clone)]
pub struct TraceEntry {
    /// Delivery time.
    pub at: SimTime,
    /// Receiving device.
    pub node: NodeId,
    /// Name of the receiving device at capture time.
    pub node_name: String,
    /// Interface the packet arrived on.
    pub iface: IfaceId,
    /// Sending device — disambiguates hop ordering on multi-hop paths.
    pub from_node: NodeId,
    /// Name of the sending device at capture time.
    pub from_node_name: String,
    /// Interface the packet left the sender on.
    pub from_iface: IfaceId,
    /// The packet as delivered.
    pub packet: IpPacket,
}

/// Recyclable container capacity for a [`Simulator`].
///
/// A fleet campaign builds one short-lived simulator per probe; the
/// containers behind it (device table, link table, attachment map, event
/// queue, trace buffer, action scratch) would otherwise be allocated and
/// grown from zero every time. A worker keeps one `SimScratch`, passes it
/// to [`Simulator::with_scratch`], and recovers it with
/// [`Simulator::into_scratch`] when the measurement is done — the contents
/// are always cleared, only the capacity survives, so a recycled simulator
/// behaves bit-for-bit like a fresh one. That includes the flight
/// recorder's event buffer: a recycled simulator starts with capture off,
/// and [`Simulator::record_capture`] records into the kept capacity.
#[derive(Default)]
pub struct SimScratch {
    devices: Vec<Box<dyn Device>>,
    links: Vec<Link>,
    attachments: FxHashMap<Attachment, LinkId>,
    queue: Vec<Reverse<Event>>,
    trace: Vec<TraceEntry>,
    actions: Vec<Action>,
    payloads: PayloadPool,
    capture: Vec<CaptureEvent>,
}

/// The simulator.
pub struct Simulator {
    devices: Vec<Box<dyn Device>>,
    links: Vec<Link>,
    /// (node, iface) -> link index.
    attachments: FxHashMap<Attachment, LinkId>,
    queue: BinaryHeap<Reverse<Event>>,
    now: SimTime,
    seq: u64,
    rng: StdRng,
    trace_enabled: bool,
    trace: Vec<TraceEntry>,
    capture_on: bool,
    capture: Box<dyn CaptureSink>,
    /// Recycled event capacity for the next [`Simulator::record_capture`].
    spare_capture: Vec<CaptureEvent>,
    events_processed: u64,
    packets_dropped: u64,
    packets_duplicated: u64,
    packets_delayed: u64,
    /// Reused buffer for device side effects, drained after every dispatch.
    action_scratch: Vec<Action>,
    /// Slab pool for reply-packet payloads, recycled via [`SimScratch`].
    payloads: PayloadPool,
}

impl Simulator {
    /// Creates a simulator with the given RNG seed.
    pub fn new(seed: u64) -> Simulator {
        Simulator::with_scratch(seed, SimScratch::default())
    }

    /// Creates a simulator with the given RNG seed, recycling the container
    /// capacity in `scratch`. Every container is cleared before use, so the
    /// result is indistinguishable from [`Simulator::new`] apart from the
    /// allocations it avoids.
    pub fn with_scratch(seed: u64, scratch: SimScratch) -> Simulator {
        let SimScratch {
            mut devices,
            mut links,
            mut attachments,
            mut queue,
            mut trace,
            mut actions,
            payloads,
            capture: mut spare_capture,
        } = scratch;
        devices.clear();
        links.clear();
        attachments.clear();
        queue.clear();
        trace.clear();
        actions.clear();
        spare_capture.clear();
        Simulator {
            devices,
            links,
            attachments,
            // An empty vec heapifies in O(1) and keeps its capacity.
            queue: BinaryHeap::from(queue),
            now: SimTime::ZERO,
            seq: 0,
            rng: StdRng::seed_from_u64(seed),
            trace_enabled: false,
            trace,
            capture_on: false,
            // Box<NullCapture> is a zero-sized allocation-free box, so the
            // default recorder costs nothing even at construction.
            capture: Box::new(NullCapture),
            spare_capture,
            events_processed: 0,
            packets_dropped: 0,
            packets_duplicated: 0,
            packets_delayed: 0,
            action_scratch: actions,
            // The payload pool needs no clearing: frozen payloads from the
            // previous run keep their own references, and the slab's spare
            // capacity is exactly what we want to reuse.
            payloads,
        }
    }

    /// Tears the simulator down, dropping devices and pending events but
    /// keeping every container's capacity for the next
    /// [`Simulator::with_scratch`] call.
    pub fn into_scratch(self) -> SimScratch {
        let Simulator {
            mut devices,
            mut links,
            mut attachments,
            queue,
            mut trace,
            action_scratch: mut actions,
            payloads,
            mut capture,
            spare_capture,
            ..
        } = self;
        devices.clear();
        links.clear();
        attachments.clear();
        trace.clear();
        actions.clear();
        let mut queue = queue.into_vec();
        queue.clear();
        let mut capture = capture
            .as_any_mut()
            .downcast_mut::<CaptureBuffer>()
            .map(|b| std::mem::take(&mut b.events))
            .unwrap_or(spare_capture);
        capture.clear();
        SimScratch { devices, links, attachments, queue, trace, actions, payloads, capture }
    }

    /// Adds a device, returning its id.
    pub fn add_device(&mut self, device: Box<dyn Device>) -> NodeId {
        let id = NodeId(self.devices.len());
        self.devices.push(device);
        id
    }

    /// Connects two interfaces with a link of the given latency (zero loss).
    pub fn connect(
        &mut self,
        a: (NodeId, IfaceId),
        b: (NodeId, IfaceId),
        latency: SimDuration,
    ) -> LinkId {
        self.connect_lossy(a, b, latency, 0.0)
    }

    /// Connects two interfaces with latency and a loss probability.
    pub fn connect_lossy(
        &mut self,
        a: (NodeId, IfaceId),
        b: (NodeId, IfaceId),
        latency: SimDuration,
        loss: f64,
    ) -> LinkId {
        self.connect_faulty(a, b, latency, FaultProfile::lossy(loss))
    }

    /// Connects two interfaces with latency and a full fault profile.
    pub fn connect_faulty(
        &mut self,
        a: (NodeId, IfaceId),
        b: (NodeId, IfaceId),
        latency: SimDuration,
        faults: FaultProfile,
    ) -> LinkId {
        let id = LinkId(self.links.len());
        let a = Attachment { node: a.0, iface: a.1 };
        let b = Attachment { node: b.0, iface: b.1 };
        self.links.push(Link {
            a,
            b,
            latency,
            jitter: SimDuration::ZERO,
            faults,
            burst_remaining: 0,
            up: true,
            stats: LinkStats::default(),
        });
        self.attachments.insert(a, id);
        self.attachments.insert(b, id);
        id
    }

    /// Replaces a link's fault profile (and resets any burst in progress).
    pub fn set_link_faults(&mut self, link: LinkId, faults: FaultProfile) {
        if let Some(l) = self.links.get_mut(link.0) {
            l.faults = faults;
            l.burst_remaining = 0;
        }
    }

    /// Adds uniform random jitter (0..=`jitter`) to each traversal of a
    /// link. Deterministic: drawn from the simulator's seeded RNG.
    pub fn set_link_jitter(&mut self, link: LinkId, jitter: SimDuration) {
        if let Some(l) = self.links.get_mut(link.0) {
            l.jitter = jitter;
        }
    }

    /// Takes a link administratively down (packets dropped) or up.
    pub fn set_link_up(&mut self, link: LinkId, up: bool) {
        if let Some(l) = self.links.get_mut(link.0) {
            l.up = up;
        }
    }

    /// Enables packet-delivery tracing (used by the XB6 case study).
    pub fn enable_trace(&mut self) {
        self.trace_enabled = true;
    }

    /// Captured trace entries.
    pub fn trace(&self) -> &[TraceEntry] {
        &self.trace
    }

    /// Clears the captured trace.
    pub fn clear_trace(&mut self) {
        self.trace.clear();
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Snapshot of all simulator counters, including per-link breakdowns.
    pub fn stats(&self) -> SimStats {
        SimStats {
            events_processed: self.events_processed,
            packets_dropped: self.packets_dropped,
            packets_duplicated: self.packets_duplicated,
            packets_delayed: self.packets_delayed,
            per_link: self.links.iter().map(|l| l.stats).collect(),
        }
    }

    /// Installs a flight-recorder sink. The sink's
    /// [`enabled`](CaptureSink::enabled) flag is cached here: a disabled
    /// sink (the default [`NullCapture`]) reduces every emission site to
    /// one branch with no clone and no allocation.
    pub fn set_capture(&mut self, sink: Box<dyn CaptureSink>) {
        self.capture_on = sink.enabled();
        self.capture = sink;
    }

    /// Convenience: installs an in-memory [`CaptureBuffer`] recorder,
    /// recording into the event capacity recycled through [`SimScratch`].
    pub fn record_capture(&mut self) {
        let events = std::mem::take(&mut self.spare_capture);
        self.set_capture(Box::new(CaptureBuffer { events }));
    }

    /// Whether a capture sink is currently recording.
    pub fn capture_enabled(&self) -> bool {
        self.capture_on
    }

    /// The events recorded so far, when the installed sink is a
    /// [`CaptureBuffer`] (empty slice otherwise).
    pub fn capture_events(&self) -> &[CaptureEvent] {
        self.capture
            .as_any()
            .downcast_ref::<CaptureBuffer>()
            .map(|b| b.events.as_slice())
            .unwrap_or(&[])
    }

    /// Empties the recorded events in place, keeping their capacity, when
    /// the installed sink is a [`CaptureBuffer`]. Recording continues.
    pub fn clear_capture_events(&mut self) {
        if let Some(b) = self.capture.as_any_mut().downcast_mut::<CaptureBuffer>() {
            b.events.clear();
        }
    }

    /// Human-readable name of a device, if the node exists.
    pub fn node_name(&self, node: NodeId) -> Option<&str> {
        self.devices.get(node.0).map(|d| d.name())
    }

    /// Injects a packet as if `node` transmitted it out of `iface` at the
    /// current time. This is how external harnesses originate traffic.
    pub fn inject(&mut self, node: NodeId, iface: IfaceId, packet: IpPacket) {
        self.transmit(Attachment { node, iface }, packet);
    }

    /// Copies `data` into the simulator's recycled payload pool and returns
    /// it as a packet payload. Lets external drivers (e.g. transports
    /// injecting probe queries) reuse the same slabs the devices do.
    pub fn alloc_payload(&mut self, data: &[u8]) -> Bytes {
        self.payloads.alloc(data)
    }

    /// Schedules a timer for a device from outside the event loop.
    pub fn inject_timer(&mut self, node: NodeId, delay: SimDuration, token: u64) {
        let at = self.now + delay;
        self.push_event(at, EventKind::Timer { node, token });
    }

    /// Immutable access to a device, downcast to its concrete type.
    pub fn device<T: Device>(&self, node: NodeId) -> Option<&T> {
        self.devices.get(node.0)?.as_any().downcast_ref::<T>()
    }

    /// Mutable access to a device, downcast to its concrete type.
    pub fn device_mut<T: Device>(&mut self, node: NodeId) -> Option<&mut T> {
        self.devices.get_mut(node.0)?.as_any_mut().downcast_mut::<T>()
    }

    /// Runs until the queue is empty or virtual time would exceed `deadline`.
    /// Returns the number of events processed by this call.
    pub fn run_until(&mut self, deadline: SimTime) -> u64 {
        let mut n = 0;
        while let Some(Reverse(ev)) = self.queue.peek().map(|e| Reverse(&e.0)) {
            if ev.at > deadline {
                break;
            }
            let Reverse(ev) = self.queue.pop().expect("peeked");
            self.now = ev.at;
            self.dispatch(ev);
            n += 1;
        }
        // Time always advances to the deadline so successive calls line up.
        if self.now < deadline {
            self.now = deadline;
        }
        self.events_processed += n;
        n
    }

    /// Runs until the event queue drains completely (no deadline). Intended
    /// for closed scenarios that are known to quiesce.
    pub fn run_to_quiescence(&mut self) -> u64 {
        let mut n = 0;
        while let Some(Reverse(ev)) = self.queue.pop() {
            self.now = ev.at;
            self.dispatch(ev);
            n += 1;
        }
        self.events_processed += n;
        n
    }

    /// True when no events are pending.
    pub fn is_quiescent(&self) -> bool {
        self.queue.is_empty()
    }

    fn dispatch(&mut self, ev: Event) {
        // The action buffer is recycled across every dispatch: taken here,
        // drained below, and put back before any return path.
        let mut actions = std::mem::take(&mut self.action_scratch);
        let node = match ev.kind {
            EventKind::Arrival { node, iface, packet, from } => {
                if self.trace_enabled {
                    let name = self
                        .devices
                        .get(node.0)
                        .map(|d| d.name().to_owned())
                        .unwrap_or_default();
                    let from_name = self
                        .devices
                        .get(from.node.0)
                        .map(|d| d.name().to_owned())
                        .unwrap_or_default();
                    self.trace.push(TraceEntry {
                        at: ev.at,
                        node,
                        node_name: name,
                        iface,
                        from_node: from.node,
                        from_node_name: from_name,
                        from_iface: from.iface,
                        packet: packet.clone(),
                    });
                }
                if self.capture_on {
                    self.capture.record(CaptureEvent {
                        at: ev.at,
                        node,
                        iface: Some(iface),
                        kind: CaptureKind::Ingress { packet: packet.clone() },
                    });
                }
                let Some(device) = self.devices.get_mut(node.0) else {
                    self.action_scratch = actions;
                    return;
                };
                let mut ctx = Ctx {
                    now: ev.at,
                    node,
                    rng: &mut self.rng,
                    actions: &mut actions,
                    payloads: &mut self.payloads,
                    capture_on: self.capture_on,
                    capture: &mut *self.capture,
                };
                device.receive(&mut ctx, iface, packet);
                node
            }
            EventKind::Timer { node, token } => {
                let Some(device) = self.devices.get_mut(node.0) else {
                    self.action_scratch = actions;
                    return;
                };
                let mut ctx = Ctx {
                    now: ev.at,
                    node,
                    rng: &mut self.rng,
                    actions: &mut actions,
                    payloads: &mut self.payloads,
                    capture_on: self.capture_on,
                    capture: &mut *self.capture,
                };
                device.timer(&mut ctx, token);
                node
            }
        };
        for action in actions.drain(..) {
            match action {
                Action::Send { iface, packet } => {
                    self.transmit(Attachment { node, iface }, packet)
                }
                Action::Timer { delay, token } => {
                    let at = self.now + delay;
                    self.push_event(at, EventKind::Timer { node, token });
                }
            }
        }
        self.action_scratch = actions;
    }

    /// Records a fault-layer capture event at the sending attachment.
    /// Only called from `transmit`, always behind the `capture_on` check.
    fn capture_fault(&mut self, from: Attachment, kind: CaptureKind) {
        self.capture.record(CaptureEvent {
            at: self.now,
            node: from.node,
            iface: Some(from.iface),
            kind,
        });
    }

    fn transmit(&mut self, from: Attachment, packet: IpPacket) {
        // Egress is recorded before the fault layer gets a say, so a
        // captured flight always shows the attempt even when the link
        // eats the packet.
        if self.capture_on {
            self.capture.record(CaptureEvent {
                at: self.now,
                node: from.node,
                iface: Some(from.iface),
                kind: CaptureKind::Egress { packet: packet.clone() },
            });
        }
        let Some(&link_id) = self.attachments.get(&from) else {
            self.packets_dropped += 1;
            if self.capture_on {
                self.capture_fault(
                    from,
                    CaptureKind::FaultDrop { link: None, cause: FaultCause::Unattached, packet },
                );
            }
            return;
        };
        let idx = link_id.0;
        if !self.links[idx].up {
            self.packets_dropped += 1;
            self.links[idx].stats.dropped += 1;
            if self.capture_on {
                self.capture_fault(
                    from,
                    CaptureKind::FaultDrop {
                        link: Some(link_id),
                        cause: FaultCause::LinkDown,
                        packet,
                    },
                );
            }
            return;
        }
        // Fault order: burst episode in progress, burst trigger, uniform
        // loss, late delivery, duplication. Index accesses (rather than a
        // held borrow) let each step roll the simulator RNG.
        if self.links[idx].burst_remaining > 0 {
            self.links[idx].burst_remaining -= 1;
            self.packets_dropped += 1;
            self.links[idx].stats.dropped += 1;
            if self.capture_on {
                self.capture_fault(
                    from,
                    CaptureKind::FaultDrop {
                        link: Some(link_id),
                        cause: FaultCause::BurstLoss,
                        packet,
                    },
                );
            }
            return;
        }
        let faults = self.links[idx].faults;
        if let Some(burst) = faults.burst {
            if burst.start > 0.0 && burst.length > 0 && self.rng.gen::<f64>() < burst.start {
                // The triggering packet counts against the burst length.
                self.links[idx].burst_remaining = burst.length - 1;
                self.packets_dropped += 1;
                self.links[idx].stats.dropped += 1;
                if self.capture_on {
                    self.capture_fault(
                        from,
                        CaptureKind::FaultDrop {
                            link: Some(link_id),
                            cause: FaultCause::BurstLoss,
                            packet,
                        },
                    );
                }
                return;
            }
        }
        if faults.loss > 0.0 && self.rng.gen::<f64>() < faults.loss {
            self.packets_dropped += 1;
            self.links[idx].stats.dropped += 1;
            if self.capture_on {
                self.capture_fault(
                    from,
                    CaptureKind::FaultDrop {
                        link: Some(link_id),
                        cause: FaultCause::UniformLoss,
                        packet,
                    },
                );
            }
            return;
        }
        let link = &self.links[idx];
        let (dest, latency, jitter) =
            (if link.a == from { link.b } else { link.a }, link.latency, link.jitter);
        let mut at = self.now + latency;
        if jitter > SimDuration::ZERO {
            let extra = self.rng.gen_range(0..=jitter.as_nanos());
            at += SimDuration::from_nanos(extra);
        }
        if let Some(late) = faults.late {
            if late.probability > 0.0 && self.rng.gen::<f64>() < late.probability {
                at += late.delay;
                self.packets_delayed += 1;
                self.links[idx].stats.delayed += 1;
                if self.capture_on {
                    self.capture_fault(
                        from,
                        CaptureKind::Delayed {
                            link: link_id,
                            extra: late.delay,
                            packet: packet.clone(),
                        },
                    );
                }
            }
        }
        let duplicated = faults.duplicate > 0.0 && self.rng.gen::<f64>() < faults.duplicate;
        if duplicated {
            self.packets_duplicated += 1;
            self.links[idx].stats.duplicated += 1;
            if self.capture_on {
                self.capture_fault(
                    from,
                    CaptureKind::Duplicated { link: link_id, packet: packet.clone() },
                );
            }
            self.push_event(
                at + latency,
                EventKind::Arrival {
                    node: dest.node,
                    iface: dest.iface,
                    packet: packet.clone(),
                    from,
                },
            );
        }
        self.links[idx].stats.delivered += 1;
        self.push_event(
            at,
            EventKind::Arrival { node: dest.node, iface: dest.iface, packet, from },
        );
    }

    fn push_event(&mut self, at: SimTime, kind: EventKind) {
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(Reverse(Event { at, seq, kind }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use std::net::Ipv4Addr;

    /// Minimal test device: remembers what it received, optionally echoes
    /// packets back out the same interface after a delay.
    struct Probe {
        name: String,
        received: Vec<(SimTime, IfaceId, IpPacket)>,
        echo: bool,
        timers: Vec<u64>,
    }

    impl Probe {
        fn new(name: &str, echo: bool) -> Box<Probe> {
            Box::new(Probe { name: name.into(), received: Vec::new(), echo, timers: Vec::new() })
        }
    }

    impl Device for Probe {
        fn receive(&mut self, ctx: &mut Ctx<'_>, iface: IfaceId, packet: IpPacket) {
            self.received.push((ctx.now(), iface, packet.clone()));
            if self.echo {
                let mut back = packet;
                let src = back.src();
                let dst = back.dst();
                back.set_src(dst);
                back.set_dst(src);
                ctx.send(iface, back);
            }
        }
        fn timer(&mut self, _ctx: &mut Ctx<'_>, token: u64) {
            self.timers.push(token);
        }
        fn name(&self) -> &str {
            &self.name
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    fn pkt() -> IpPacket {
        IpPacket::udp_v4(
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            1111,
            53,
            Bytes::from_static(b"hi"),
        )
    }

    #[test]
    fn packet_crosses_link_with_latency() {
        let mut sim = Simulator::new(1);
        let a = sim.add_device(Probe::new("a", false));
        let b = sim.add_device(Probe::new("b", false));
        sim.connect((a, IfaceId(0)), (b, IfaceId(0)), SimDuration::from_millis(10));
        sim.inject(a, IfaceId(0), pkt());
        sim.run_to_quiescence();
        let probe = sim.device::<Probe>(b).unwrap();
        assert_eq!(probe.received.len(), 1);
        assert_eq!(probe.received[0].0, SimTime::from_nanos(10_000_000));
    }

    #[test]
    fn echo_roundtrip() {
        let mut sim = Simulator::new(1);
        let a = sim.add_device(Probe::new("a", false));
        let b = sim.add_device(Probe::new("b", true));
        sim.connect((a, IfaceId(0)), (b, IfaceId(0)), SimDuration::from_millis(5));
        sim.inject(a, IfaceId(0), pkt());
        sim.run_to_quiescence();
        let pa = sim.device::<Probe>(a).unwrap();
        assert_eq!(pa.received.len(), 1);
        assert_eq!(pa.received[0].0, SimTime::from_nanos(10_000_000));
        // Echoed packet has swapped addresses.
        assert_eq!(pa.received[0].2.src(), "10.0.0.2".parse::<std::net::IpAddr>().unwrap());
    }

    #[test]
    fn run_until_respects_deadline() {
        let mut sim = Simulator::new(1);
        let a = sim.add_device(Probe::new("a", false));
        let b = sim.add_device(Probe::new("b", false));
        sim.connect((a, IfaceId(0)), (b, IfaceId(0)), SimDuration::from_millis(10));
        sim.inject(a, IfaceId(0), pkt());
        let n = sim.run_until(SimTime::from_nanos(5_000_000));
        assert_eq!(n, 0);
        assert!(!sim.is_quiescent());
        assert_eq!(sim.now(), SimTime::from_nanos(5_000_000));
        let n = sim.run_until(SimTime::from_nanos(20_000_000));
        assert_eq!(n, 1);
        assert!(sim.is_quiescent());
    }

    #[test]
    fn lossy_link_drops_deterministically() {
        // With loss = 1.0 everything is dropped.
        let mut sim = Simulator::new(7);
        let a = sim.add_device(Probe::new("a", false));
        let b = sim.add_device(Probe::new("b", false));
        sim.connect_lossy((a, IfaceId(0)), (b, IfaceId(0)), SimDuration::from_millis(1), 1.0);
        sim.inject(a, IfaceId(0), pkt());
        sim.run_to_quiescence();
        assert_eq!(sim.device::<Probe>(b).unwrap().received.len(), 0);
        assert_eq!(sim.stats().packets_dropped, 1);
    }

    #[test]
    fn down_link_drops() {
        let mut sim = Simulator::new(1);
        let a = sim.add_device(Probe::new("a", false));
        let b = sim.add_device(Probe::new("b", false));
        let l = sim.connect((a, IfaceId(0)), (b, IfaceId(0)), SimDuration::from_millis(1));
        sim.set_link_up(l, false);
        sim.inject(a, IfaceId(0), pkt());
        sim.run_to_quiescence();
        assert_eq!(sim.device::<Probe>(b).unwrap().received.len(), 0);
    }

    #[test]
    fn unattached_interface_drops() {
        let mut sim = Simulator::new(1);
        let a = sim.add_device(Probe::new("a", false));
        sim.inject(a, IfaceId(3), pkt());
        sim.run_to_quiescence();
        assert_eq!(sim.stats().packets_dropped, 1);
    }

    #[test]
    fn timers_fire_in_order() {
        let mut sim = Simulator::new(1);
        let a = sim.add_device(Probe::new("a", false));
        sim.inject_timer(a, SimDuration::from_millis(20), 2);
        sim.inject_timer(a, SimDuration::from_millis(10), 1);
        sim.inject_timer(a, SimDuration::from_millis(30), 3);
        sim.run_to_quiescence();
        assert_eq!(sim.device::<Probe>(a).unwrap().timers, vec![1, 2, 3]);
    }

    #[test]
    fn simultaneous_events_keep_insertion_order() {
        let mut sim = Simulator::new(1);
        let a = sim.add_device(Probe::new("a", false));
        for token in 0..10 {
            sim.inject_timer(a, SimDuration::from_millis(5), token);
        }
        sim.run_to_quiescence();
        assert_eq!(sim.device::<Probe>(a).unwrap().timers, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn identical_seeds_produce_identical_runs() {
        let run = |seed: u64| {
            let mut sim = Simulator::new(seed);
            let a = sim.add_device(Probe::new("a", false));
            let b = sim.add_device(Probe::new("b", true));
            sim.connect_lossy((a, IfaceId(0)), (b, IfaceId(0)), SimDuration::from_millis(1), 0.5);
            for _ in 0..100 {
                sim.inject(a, IfaceId(0), pkt());
            }
            sim.run_to_quiescence();
            sim.device::<Probe>(a).unwrap().received.len()
        };
        assert_eq!(run(42), run(42));
    }

    #[test]
    fn jitter_spreads_arrivals_deterministically() {
        let run = |seed: u64| -> Vec<u64> {
            let mut sim = Simulator::new(seed);
            let a = sim.add_device(Probe::new("a", false));
            let b = sim.add_device(Probe::new("b", false));
            let l = sim.connect((a, IfaceId(0)), (b, IfaceId(0)), SimDuration::from_millis(10));
            sim.set_link_jitter(l, SimDuration::from_millis(5));
            for _ in 0..20 {
                sim.inject(a, IfaceId(0), pkt());
            }
            sim.run_to_quiescence();
            sim.device::<Probe>(b).unwrap().received.iter().map(|(t, _, _)| t.as_nanos()).collect()
        };
        let times = run(3);
        // All within [10ms, 15ms], not all identical.
        assert!(times.iter().all(|&t| (10_000_000..=15_000_000).contains(&t)));
        assert!(times.windows(2).any(|w| w[0] != w[1]));
        // Seeded: identical across runs.
        assert_eq!(times, run(3));
    }

    #[test]
    fn burst_loss_drops_consecutive_packets() {
        let mut sim = Simulator::new(11);
        let a = sim.add_device(Probe::new("a", false));
        let b = sim.add_device(Probe::new("b", false));
        let faults =
            FaultProfile { burst: Some(BurstLoss { start: 1.0, length: 2 }), ..FaultProfile::default() };
        let l = sim.connect_faulty((a, IfaceId(0)), (b, IfaceId(0)), SimDuration::from_millis(1), faults);
        // First packet triggers the burst, second is consumed by it.
        sim.inject(a, IfaceId(0), pkt());
        sim.inject(a, IfaceId(0), pkt());
        sim.run_to_quiescence();
        assert_eq!(sim.device::<Probe>(b).unwrap().received.len(), 0);
        assert_eq!(sim.stats().packets_dropped, 2);
        // Replacing the profile resets the episode; start = 0 never triggers.
        sim.set_link_faults(l, FaultProfile { burst: Some(BurstLoss { start: 0.0, length: 2 }), ..FaultProfile::default() });
        sim.inject(a, IfaceId(0), pkt());
        sim.run_to_quiescence();
        assert_eq!(sim.device::<Probe>(b).unwrap().received.len(), 1);
        assert_eq!(sim.stats().packets_dropped, 2);
    }

    #[test]
    fn duplication_delivers_two_copies() {
        let mut sim = Simulator::new(5);
        let a = sim.add_device(Probe::new("a", false));
        let b = sim.add_device(Probe::new("b", false));
        let faults = FaultProfile { duplicate: 1.0, ..FaultProfile::default() };
        sim.connect_faulty((a, IfaceId(0)), (b, IfaceId(0)), SimDuration::from_millis(10), faults);
        sim.inject(a, IfaceId(0), pkt());
        sim.run_to_quiescence();
        let probe = sim.device::<Probe>(b).unwrap();
        assert_eq!(probe.received.len(), 2);
        assert_eq!(probe.received[0].0, SimTime::from_nanos(10_000_000));
        // The duplicate trails by one jitter-free latency.
        assert_eq!(probe.received[1].0, SimTime::from_nanos(20_000_000));
        assert_eq!(sim.stats().packets_duplicated, 1);
        assert_eq!(sim.stats().packets_dropped, 0);
    }

    #[test]
    fn late_delivery_arrives_after_the_extra_delay() {
        let mut sim = Simulator::new(5);
        let a = sim.add_device(Probe::new("a", false));
        let b = sim.add_device(Probe::new("b", false));
        let faults = FaultProfile {
            late: Some(LateDelivery { probability: 1.0, delay: SimDuration::from_millis(500) }),
            ..FaultProfile::default()
        };
        sim.connect_faulty((a, IfaceId(0)), (b, IfaceId(0)), SimDuration::from_millis(1), faults);
        sim.inject(a, IfaceId(0), pkt());
        sim.run_to_quiescence();
        let probe = sim.device::<Probe>(b).unwrap();
        assert_eq!(probe.received.len(), 1);
        assert_eq!(probe.received[0].0, SimTime::from_nanos(501_000_000));
        assert_eq!(sim.stats().packets_delayed, 1);
    }

    #[test]
    fn fault_profiles_stay_deterministic_across_runs() {
        let run = |seed: u64| -> (Vec<u64>, u64, u64, u64) {
            let mut sim = Simulator::new(seed);
            let a = sim.add_device(Probe::new("a", false));
            let b = sim.add_device(Probe::new("b", false));
            let faults = FaultProfile {
                loss: 0.2,
                burst: Some(BurstLoss { start: 0.1, length: 3 }),
                duplicate: 0.15,
                late: Some(LateDelivery { probability: 0.1, delay: SimDuration::from_millis(50) }),
            };
            sim.connect_faulty((a, IfaceId(0)), (b, IfaceId(0)), SimDuration::from_millis(2), faults);
            for _ in 0..200 {
                sim.inject(a, IfaceId(0), pkt());
            }
            sim.run_to_quiescence();
            let times = sim
                .device::<Probe>(b)
                .unwrap()
                .received
                .iter()
                .map(|(t, _, _)| t.as_nanos())
                .collect();
            (times, sim.stats().packets_dropped, sim.stats().packets_duplicated, sim.stats().packets_delayed)
        };
        let first = run(99);
        // Every fault class exercised at least once with this seed.
        assert!(first.1 > 0 && first.2 > 0 && first.3 > 0);
        assert_eq!(first, run(99));
    }

    #[test]
    fn trace_captures_deliveries() {
        let mut sim = Simulator::new(1);
        sim.enable_trace();
        let a = sim.add_device(Probe::new("alpha", false));
        let b = sim.add_device(Probe::new("beta", false));
        sim.connect((a, IfaceId(0)), (b, IfaceId(0)), SimDuration::from_millis(2));
        sim.inject(a, IfaceId(0), pkt());
        sim.run_to_quiescence();
        let trace = sim.trace();
        assert_eq!(trace.len(), 1);
        assert_eq!(trace[0].node_name, "beta");
        // The sending side is recorded too, so hop order on multi-hop
        // paths is unambiguous.
        assert_eq!(trace[0].from_node, a);
        assert_eq!(trace[0].from_node_name, "alpha");
        assert_eq!(trace[0].from_iface, IfaceId(0));
    }

    #[test]
    fn capture_disabled_by_default_and_records_when_enabled() {
        let mut sim = Simulator::new(1);
        let a = sim.add_device(Probe::new("alpha", false));
        let b = sim.add_device(Probe::new("beta", false));
        sim.connect((a, IfaceId(0)), (b, IfaceId(0)), SimDuration::from_millis(2));
        assert!(!sim.capture_enabled());
        sim.inject(a, IfaceId(0), pkt());
        sim.run_to_quiescence();
        assert!(sim.capture_events().is_empty());

        sim.record_capture();
        assert!(sim.capture_enabled());
        sim.inject(a, IfaceId(0), pkt());
        sim.run_to_quiescence();
        let events = sim.capture_events();
        // One hop: egress at alpha, ingress at beta.
        assert_eq!(events.len(), 2);
        assert!(matches!(events[0].kind, CaptureKind::Egress { .. }));
        assert_eq!(events[0].node, a);
        assert_eq!(events[0].iface, Some(IfaceId(0)));
        assert!(matches!(events[1].kind, CaptureKind::Ingress { .. }));
        assert_eq!(events[1].node, b);
        // Injected at now = 2ms (after the first drain), delivered at 4ms.
        assert_eq!(events[1].at, SimTime::from_nanos(4_000_000));
        // Clearing empties the buffer but keeps recording.
        sim.clear_capture_events();
        assert!(sim.capture_events().is_empty());
        assert!(sim.capture_enabled());
    }

    #[test]
    fn capture_names_the_fault_that_ate_the_packet() {
        let mut sim = Simulator::new(7);
        let a = sim.add_device(Probe::new("a", false));
        let b = sim.add_device(Probe::new("b", false));
        let l = sim.connect_lossy((a, IfaceId(0)), (b, IfaceId(0)), SimDuration::from_millis(1), 1.0);
        sim.record_capture();
        sim.inject(a, IfaceId(0), pkt());
        sim.run_to_quiescence();
        let events = sim.capture_events();
        assert_eq!(events.len(), 2);
        assert!(matches!(
            events[1].kind,
            CaptureKind::FaultDrop { link: Some(link), cause: FaultCause::UniformLoss, .. }
                if link == l
        ));
        assert_eq!(events[1].kind.verb(), "drop(uniform-loss)");
        // Unattached interface: the drop is recorded with no link.
        sim.inject(a, IfaceId(5), pkt());
        sim.run_to_quiescence();
        let events = sim.capture_events();
        assert!(matches!(
            events.last().unwrap().kind,
            CaptureKind::FaultDrop { link: None, cause: FaultCause::Unattached, .. }
        ));
        assert_eq!(events.last().unwrap().kind.verb(), "drop(unattached)");

        // Every other fault verdict, each on its own link, names itself.
        let cases = [
            (FaultProfile::default(), false, "drop(link-down)"),
            (
                FaultProfile {
                    burst: Some(BurstLoss { start: 1.0, length: 2 }),
                    ..FaultProfile::default()
                },
                true,
                "drop(burst-loss)",
            ),
            (FaultProfile { duplicate: 1.0, ..FaultProfile::default() }, true, "duplicated"),
            (
                FaultProfile {
                    late: Some(LateDelivery {
                        probability: 1.0,
                        delay: SimDuration::from_millis(500),
                    }),
                    ..FaultProfile::default()
                },
                true,
                "delayed",
            ),
        ];
        for (i, (faults, up, verb)) in cases.into_iter().enumerate() {
            let iface = IfaceId(i + 1);
            let l = sim.connect_faulty((a, iface), (b, iface), SimDuration::from_millis(1), faults);
            sim.set_link_up(l, up);
            let seen = sim.capture_events().len();
            sim.inject(a, iface, pkt());
            sim.run_to_quiescence();
            let verdict = &sim.capture_events()[seen + 1];
            assert_eq!(verdict.kind.verb(), verb, "{:?}", verdict.kind);
        }
    }

    #[test]
    fn stats_break_counters_down_per_link() {
        let mut sim = Simulator::new(7);
        let a = sim.add_device(Probe::new("a", false));
        let b = sim.add_device(Probe::new("b", false));
        let c = sim.add_device(Probe::new("c", false));
        sim.connect_lossy((a, IfaceId(0)), (b, IfaceId(0)), SimDuration::from_millis(1), 1.0);
        sim.connect((a, IfaceId(1)), (c, IfaceId(0)), SimDuration::from_millis(1));
        sim.inject(a, IfaceId(0), pkt());
        sim.inject(a, IfaceId(1), pkt());
        sim.inject(a, IfaceId(1), pkt());
        sim.run_to_quiescence();
        let stats = sim.stats();
        assert_eq!(stats.packets_dropped, 1);
        assert_eq!(stats.per_link.len(), 2);
        assert_eq!(stats.per_link[0], LinkStats { dropped: 1, ..LinkStats::default() });
        assert_eq!(stats.per_link[1], LinkStats { delivered: 2, ..LinkStats::default() });
        assert_eq!(stats.events_processed, 2);
    }

    #[test]
    fn recycled_scratch_runs_are_bitwise_identical_to_fresh() {
        // A simulator built from recycled scratch must behave exactly like
        // one built fresh: same deliveries, same times, same counters, and
        // with the recorder on, the same captured events.
        type Run = (Vec<u64>, SimStats, Vec<CaptureEvent>, SimScratch);
        let run = |scratch: SimScratch, capture: bool| -> Run {
            let mut sim = Simulator::with_scratch(99, scratch);
            // Whatever the scratch last recorded, capture starts off and empty.
            assert!(!sim.capture_enabled());
            assert!(sim.capture_events().is_empty());
            if capture {
                sim.record_capture();
            }
            let a = sim.add_device(Probe::new("a", false));
            let b = sim.add_device(Probe::new("b", true));
            let faults = FaultProfile {
                loss: 0.2,
                burst: Some(BurstLoss { start: 0.1, length: 3 }),
                duplicate: 0.15,
                late: Some(LateDelivery { probability: 0.1, delay: SimDuration::from_millis(50) }),
            };
            sim.connect_faulty((a, IfaceId(0)), (b, IfaceId(0)), SimDuration::from_millis(2), faults);
            for _ in 0..100 {
                sim.inject(a, IfaceId(0), pkt());
            }
            sim.run_to_quiescence();
            let times = sim
                .device::<Probe>(a)
                .unwrap()
                .received
                .iter()
                .map(|(t, _, _)| t.as_nanos())
                .collect();
            let stats = sim.stats();
            let events = sim.capture_events().to_vec();
            (times, stats, events, sim.into_scratch())
        };
        let (fresh_times, fresh_stats, events, scratch) = run(SimScratch::default(), false);
        assert!(events.is_empty());
        let (recycled_times, recycled_stats, _, scratch) = run(scratch, false);
        assert_eq!(fresh_times, recycled_times);
        assert_eq!(fresh_stats, recycled_stats);
        // And a third generation, to show scratch keeps cycling.
        let (third_times, third_stats, _, scratch) = run(scratch, false);
        assert_eq!(fresh_times, third_times);
        assert_eq!(fresh_stats, third_stats);

        // Captured runs: a recycled simulator records exactly the events a
        // fresh one does, into the capacity the last captured run left.
        let (captured_times, _, fresh_events, _) = run(SimScratch::default(), true);
        assert_eq!(captured_times, fresh_times);
        assert!(!fresh_events.is_empty());
        let (_, _, recycled_events, scratch) = run(scratch, true);
        assert_eq!(recycled_events, fresh_events);
        assert!(scratch.capture.is_empty());
        assert!(scratch.capture.capacity() >= fresh_events.len());
        let (_, _, again, scratch) = run(scratch, true);
        assert_eq!(again, fresh_events);
        // Recycled after a captured run, an uncaptured one records nothing
        // and still matches the fresh run.
        let (after_times, after_stats, none, _) = run(scratch, false);
        assert!(none.is_empty());
        assert_eq!(after_times, fresh_times);
        assert_eq!(after_stats, fresh_stats);
    }

    #[test]
    fn capture_does_not_perturb_the_schedule() {
        // The recorder draws no randomness and schedules nothing: a
        // captured run must deliver the same packets at the same times.
        let run = |capture: bool| -> Vec<u64> {
            let mut sim = Simulator::new(99);
            let a = sim.add_device(Probe::new("a", false));
            let b = sim.add_device(Probe::new("b", true));
            if capture {
                sim.record_capture();
            }
            let faults = FaultProfile {
                loss: 0.2,
                burst: Some(BurstLoss { start: 0.1, length: 3 }),
                duplicate: 0.15,
                late: Some(LateDelivery { probability: 0.1, delay: SimDuration::from_millis(50) }),
            };
            sim.connect_faulty((a, IfaceId(0)), (b, IfaceId(0)), SimDuration::from_millis(2), faults);
            for _ in 0..100 {
                sim.inject(a, IfaceId(0), pkt());
            }
            sim.run_to_quiescence();
            sim.device::<Probe>(a)
                .unwrap()
                .received
                .iter()
                .map(|(t, _, _)| t.as_nanos())
                .collect()
        };
        assert_eq!(run(false), run(true));
    }
}
