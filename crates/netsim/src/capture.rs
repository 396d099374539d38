//! Packet-level flight recorder.
//!
//! The paper's localization argument is a *path* argument: a bogon query
//! that comes back answered proves an interceptor sits between the client
//! and the AS edge. [`crate::TraceEntry`] only records final deliveries,
//! which cannot show *where* on the path a packet was diverted, dropped,
//! or rewritten. The capture layer fixes that: every forwarding element
//! emits one structured [`CaptureEvent`] per packet hop — link egress and
//! ingress, NAT/DNAT rewrites with before/after tuples, fault-injection
//! verdicts with their cause, and route decisions — each stamped with the
//! simulated time, node, and interface.
//!
//! Recording goes through the [`CaptureSink`] trait with a [`NullCapture`]
//! default, mirroring the `enabled()` pattern of `core::trace::TraceSink`:
//! the simulator caches `enabled()` in a plain bool so the disabled path
//! costs one branch per hop and allocates nothing.

use crate::packet::{FlowSummary, IpPacket};
use crate::sim::{IfaceId, LinkId, NodeId};
use crate::time::{SimDuration, SimTime};
use std::any::Any;

/// Why the fault layer disposed of (or detained) a packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultCause {
    /// The egress interface has no link attached.
    Unattached,
    /// The link is administratively down.
    LinkDown,
    /// A burst-loss episode consumed the packet (trigger or continuation).
    BurstLoss,
    /// Uniform random loss.
    UniformLoss,
}

impl FaultCause {
    /// The verb a drop for this cause renders as.
    pub fn verb(self) -> &'static str {
        match self {
            FaultCause::Unattached => "drop(unattached)",
            FaultCause::LinkDown => "drop(link-down)",
            FaultCause::BurstLoss => "drop(burst-loss)",
            FaultCause::UniformLoss => "drop(uniform-loss)",
        }
    }
}

/// Which rewrite a NAT engine performed on a packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NatPhase {
    /// Destination rewrite only (a DNAT redirect rule matched).
    Dnat,
    /// Source rewrite only (masquerade).
    Snat,
    /// Both destination and source were rewritten.
    DnatSnat,
    /// Reverse translation of a reply via conntrack.
    Reverse,
}

impl NatPhase {
    /// Classifies a forward-direction rewrite from the before/after
    /// tuples; `None` when nothing changed.
    pub fn classify(before: &FlowSummary, after: &FlowSummary) -> Option<NatPhase> {
        let dnat = before.dst != after.dst || before.dst_port != after.dst_port;
        let snat = before.src != after.src || before.src_port != after.src_port;
        match (dnat, snat) {
            (true, true) => Some(NatPhase::DnatSnat),
            (true, false) => Some(NatPhase::Dnat),
            (false, true) => Some(NatPhase::Snat),
            (false, false) => None,
        }
    }

    /// The verb a rewrite in this phase renders as.
    pub fn verb(self) -> &'static str {
        match self {
            NatPhase::Dnat => "nat(dnat)",
            NatPhase::Snat => "nat(snat)",
            NatPhase::DnatSnat => "nat(dnat+snat)",
            NatPhase::Reverse => "nat(reverse)",
        }
    }
}

/// Why a router refused to forward a packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropReason {
    /// Destination was a bogon and the router filters bogon destinations.
    BogonDestination,
    /// TTL / hop limit expired in transit.
    TtlExpired,
    /// No route to the destination.
    NoRoute,
}

impl DropReason {
    /// The verb a drop for this reason renders as.
    pub fn verb(self) -> &'static str {
        match self {
            DropReason::BogonDestination => "drop(bogon-destination)",
            DropReason::TtlExpired => "drop(ttl-expired)",
            DropReason::NoRoute => "drop(no-route)",
        }
    }
}

/// What happened at one hop of a packet's flight.
#[derive(Debug, Clone, PartialEq)]
pub enum CaptureKind {
    /// A packet was delivered to a device's interface.
    Ingress {
        /// The packet as delivered.
        packet: IpPacket,
    },
    /// A device transmitted a packet out of an interface.
    Egress {
        /// The packet as transmitted.
        packet: IpPacket,
    },
    /// The fault layer dropped the packet on a link.
    FaultDrop {
        /// The link, when one was attached.
        link: Option<LinkId>,
        /// Which fault fired.
        cause: FaultCause,
        /// The packet that was lost.
        packet: IpPacket,
    },
    /// The duplication fault scheduled a second delivery.
    Duplicated {
        /// The link that duplicated.
        link: LinkId,
        /// The duplicated packet.
        packet: IpPacket,
    },
    /// The late-delivery fault detained the packet.
    Delayed {
        /// The link that delayed.
        link: LinkId,
        /// Extra delay beyond latency and jitter.
        extra: SimDuration,
        /// The delayed packet.
        packet: IpPacket,
    },
    /// A NAT engine rewrote the packet.
    NatRewrite {
        /// Forward rewrite kind, or reverse conntrack translation.
        phase: NatPhase,
        /// Flow tuple before the rewrite.
        before: FlowSummary,
        /// Flow tuple after the rewrite.
        after: FlowSummary,
        /// The packet as it left the NAT.
        packet: IpPacket,
    },
    /// A routing element chose an egress interface for the packet.
    RouteForward {
        /// The chosen egress interface.
        out: IfaceId,
        /// The packet being forwarded (post TTL decrement).
        packet: IpPacket,
    },
    /// A routing element refused to forward the packet.
    RouteDrop {
        /// Why the packet was refused.
        reason: DropReason,
        /// The refused packet.
        packet: IpPacket,
    },
    /// A device minted this packet locally — e.g. a CPE DNS forwarder
    /// answering an intercepted query in place of the real resolver.
    LocalMint {
        /// The minted packet.
        packet: IpPacket,
    },
}

impl CaptureKind {
    /// The packet this event concerns.
    pub fn packet(&self) -> &IpPacket {
        match self {
            CaptureKind::Ingress { packet }
            | CaptureKind::Egress { packet }
            | CaptureKind::FaultDrop { packet, .. }
            | CaptureKind::Duplicated { packet, .. }
            | CaptureKind::Delayed { packet, .. }
            | CaptureKind::NatRewrite { packet, .. }
            | CaptureKind::RouteForward { packet, .. }
            | CaptureKind::RouteDrop { packet, .. }
            | CaptureKind::LocalMint { packet } => packet,
        }
    }

    /// Short lower-case verb for renderings (e.g. `"ingress"`,
    /// `"drop(burst-loss)"`, `"nat(dnat)"`): one of a fixed set of 17.
    pub fn verb(&self) -> &'static str {
        match self {
            CaptureKind::Ingress { .. } => "ingress",
            CaptureKind::Egress { .. } => "egress",
            CaptureKind::FaultDrop { cause, .. } => cause.verb(),
            CaptureKind::Duplicated { .. } => "duplicated",
            CaptureKind::Delayed { .. } => "delayed",
            CaptureKind::NatRewrite { phase, .. } => phase.verb(),
            CaptureKind::RouteForward { .. } => "forward",
            CaptureKind::RouteDrop { reason, .. } => reason.verb(),
            CaptureKind::LocalMint { .. } => "mint",
        }
    }
}

/// One hop of a packet's flight through the simulated network.
#[derive(Debug, Clone, PartialEq)]
pub struct CaptureEvent {
    /// Simulated time of the hop.
    pub at: SimTime,
    /// Device at which the hop happened.
    pub node: NodeId,
    /// Interface involved, when the hop concerns one (ingress/egress).
    pub iface: Option<IfaceId>,
    /// What happened.
    pub kind: CaptureKind,
}

/// Receives capture events. Implementations that return `false` from
/// [`enabled`](CaptureSink::enabled) are never handed an event: the
/// simulator caches the flag and emission sites check a plain bool, so a
/// disabled sink keeps the hot path free of clones and allocations.
pub trait CaptureSink: Any {
    /// Whether this sink wants events. Checked once at installation.
    fn enabled(&self) -> bool {
        true
    }

    /// Records one hop.
    fn record(&mut self, event: CaptureEvent);

    /// Downcast support (e.g. to recover a [`CaptureBuffer`]).
    fn as_any(&self) -> &dyn Any;

    /// Mutable downcast support.
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

/// The default sink: discards everything and reports itself disabled.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullCapture;

impl CaptureSink for NullCapture {
    fn enabled(&self) -> bool {
        false
    }

    fn record(&mut self, _event: CaptureEvent) {}

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// An in-memory sink that appends every event to a vector, in emission
/// order (which is chronological — the event loop is time-ordered).
#[derive(Debug, Default)]
pub struct CaptureBuffer {
    /// The recorded hops.
    pub events: Vec<CaptureEvent>,
}

impl CaptureSink for CaptureBuffer {
    fn record(&mut self, event: CaptureEvent) {
        self.events.push(event);
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::IpAddr;

    fn fs(src: &str, sp: u16, dst: &str, dp: u16) -> FlowSummary {
        FlowSummary {
            src: src.parse::<IpAddr>().unwrap(),
            dst: dst.parse::<IpAddr>().unwrap(),
            src_port: sp,
            dst_port: dp,
        }
    }

    #[test]
    fn nat_phase_classification() {
        let before = fs("192.168.1.10", 5353, "8.8.8.8", 53);
        let dnat = fs("192.168.1.10", 5353, "192.168.1.1", 53);
        let snat = fs("73.22.1.5", 40001, "8.8.8.8", 53);
        let both = fs("73.22.1.5", 40001, "10.9.9.9", 53);
        assert_eq!(NatPhase::classify(&before, &dnat), Some(NatPhase::Dnat));
        assert_eq!(NatPhase::classify(&before, &snat), Some(NatPhase::Snat));
        assert_eq!(NatPhase::classify(&before, &both), Some(NatPhase::DnatSnat));
        assert_eq!(NatPhase::classify(&before, &before), None);

        // Every phase's rendered verb, including the two-sided rewrite no
        // golden timeline shows.
        let packet = IpPacket::udp_v4(
            "73.22.1.5".parse().unwrap(),
            "10.9.9.9".parse().unwrap(),
            40001,
            53,
            bytes::Bytes::from_static(b"q"),
        );
        for (phase, verb) in [
            (NatPhase::Dnat, "nat(dnat)"),
            (NatPhase::Snat, "nat(snat)"),
            (NatPhase::DnatSnat, "nat(dnat+snat)"),
            (NatPhase::Reverse, "nat(reverse)"),
        ] {
            let kind =
                CaptureKind::NatRewrite { phase, before, after: both, packet: packet.clone() };
            assert_eq!(kind.verb(), verb);
        }
    }

    #[test]
    fn null_capture_is_disabled() {
        assert!(!NullCapture.enabled());
        let buffer = CaptureBuffer::default();
        assert!(buffer.enabled());
    }
}
