//! Packet representations: dual-stack IP packets carrying UDP or ICMP.
//!
//! The simulator moves *structured* packets rather than raw bytes at the IP
//! layer — the interesting byte-level behaviour in this system lives in the
//! DNS payload (which stays as opaque bytes here) and in the address/port
//! rewriting performed by NAT engines, which is exactly what the struct
//! fields expose. TTL/hop-limit is carried and decremented for real so
//! TTL-based localization extensions (paper §6) can be modelled.

use bytes::Bytes;
use core::fmt;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};

/// Default initial TTL / hop limit for packets originated by hosts.
pub const DEFAULT_TTL: u8 = 64;

/// A UDP datagram (ports + opaque payload).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UdpDatagram {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Application payload (e.g. an encoded DNS message).
    pub payload: Bytes,
}

/// ICMP / ICMPv6 messages the simulator models.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IcmpMessage {
    /// Destination unreachable; `code` distinguishes net/host/port.
    DestUnreachable {
        /// Unreachable code (0 net, 1 host, 3 port — v4 numbering used for both stacks).
        code: u8,
        /// The flow the original packet belonged to, for error matching.
        original: FlowSummary,
    },
    /// TTL / hop limit exceeded in transit.
    TimeExceeded {
        /// The flow the original packet belonged to.
        original: FlowSummary,
    },
    /// Echo request (for path liveness tests).
    EchoRequest {
        /// Identifier.
        id: u16,
        /// Sequence number.
        seq: u16,
    },
    /// Echo reply.
    EchoReply {
        /// Identifier.
        id: u16,
        /// Sequence number.
        seq: u16,
    },
}

/// Addresses and ports of a packet that triggered an ICMP error.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FlowSummary {
    /// Original source address.
    pub src: IpAddr,
    /// Original destination address.
    pub dst: IpAddr,
    /// Original source port (0 for non-UDP).
    pub src_port: u16,
    /// Original destination port (0 for non-UDP).
    pub dst_port: u16,
}

/// Transport payload of an IP packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Transport {
    /// UDP datagram.
    Udp(UdpDatagram),
    /// ICMP message.
    Icmp(IcmpMessage),
}

/// A dual-stack IP packet.
///
/// Source and destination are `IpAddr`; a packet is IPv4 iff both are V4.
/// Mixed-family packets cannot be constructed through the public API.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IpPacket {
    /// Source address.
    src: IpAddr,
    /// Destination address.
    dst: IpAddr,
    /// TTL (v4) or hop limit (v6).
    pub ttl: u8,
    /// Transport payload.
    pub transport: Transport,
}

impl IpPacket {
    /// Builds a UDP packet. Panics are avoided by returning `None` when the
    /// address families differ.
    pub fn udp(
        src: IpAddr,
        dst: IpAddr,
        src_port: u16,
        dst_port: u16,
        payload: Bytes,
    ) -> Option<IpPacket> {
        if src.is_ipv4() != dst.is_ipv4() {
            return None;
        }
        Some(IpPacket {
            src,
            dst,
            ttl: DEFAULT_TTL,
            transport: Transport::Udp(UdpDatagram { src_port, dst_port, payload }),
        })
    }

    /// Builds a v4 UDP packet from concrete v4 addresses (infallible).
    pub fn udp_v4(
        src: Ipv4Addr,
        dst: Ipv4Addr,
        src_port: u16,
        dst_port: u16,
        payload: Bytes,
    ) -> IpPacket {
        IpPacket {
            src: IpAddr::V4(src),
            dst: IpAddr::V4(dst),
            ttl: DEFAULT_TTL,
            transport: Transport::Udp(UdpDatagram { src_port, dst_port, payload }),
        }
    }

    /// Builds a v6 UDP packet from concrete v6 addresses (infallible).
    pub fn udp_v6(
        src: Ipv6Addr,
        dst: Ipv6Addr,
        src_port: u16,
        dst_port: u16,
        payload: Bytes,
    ) -> IpPacket {
        IpPacket {
            src: IpAddr::V6(src),
            dst: IpAddr::V6(dst),
            ttl: DEFAULT_TTL,
            transport: Transport::Udp(UdpDatagram { src_port, dst_port, payload }),
        }
    }

    /// Builds an ICMP packet.
    pub fn icmp(src: IpAddr, dst: IpAddr, msg: IcmpMessage) -> Option<IpPacket> {
        if src.is_ipv4() != dst.is_ipv4() {
            return None;
        }
        Some(IpPacket { src, dst, ttl: DEFAULT_TTL, transport: Transport::Icmp(msg) })
    }

    /// Source address.
    pub fn src(&self) -> IpAddr {
        self.src
    }

    /// Destination address.
    pub fn dst(&self) -> IpAddr {
        self.dst
    }

    /// True for IPv4 packets.
    pub fn is_v4(&self) -> bool {
        self.src.is_ipv4()
    }

    /// Rewrites the source address; the new address must be the same family.
    /// Returns false (and leaves the packet unchanged) on family mismatch.
    pub fn set_src(&mut self, src: IpAddr) -> bool {
        if src.is_ipv4() != self.src.is_ipv4() {
            return false;
        }
        self.src = src;
        true
    }

    /// Rewrites the destination address; same-family rule as [`set_src`].
    ///
    /// [`set_src`]: IpPacket::set_src
    pub fn set_dst(&mut self, dst: IpAddr) -> bool {
        if dst.is_ipv4() != self.dst.is_ipv4() {
            return false;
        }
        self.dst = dst;
        true
    }

    /// UDP view of the payload, if this is a UDP packet.
    pub fn udp_payload(&self) -> Option<&UdpDatagram> {
        match &self.transport {
            Transport::Udp(u) => Some(u),
            _ => None,
        }
    }

    /// Mutable UDP view, used by NAT port rewriting.
    pub fn udp_payload_mut(&mut self) -> Option<&mut UdpDatagram> {
        match &mut self.transport {
            Transport::Udp(u) => Some(u),
            _ => None,
        }
    }

    /// The packet's flow summary (for ICMP errors).
    pub fn flow_summary(&self) -> FlowSummary {
        let (sp, dp) = match &self.transport {
            Transport::Udp(u) => (u.src_port, u.dst_port),
            Transport::Icmp(_) => (0, 0),
        };
        FlowSummary { src: self.src, dst: self.dst, src_port: sp, dst_port: dp }
    }

    /// Decrements TTL in place; returns false when the packet must be
    /// dropped (TTL reached zero).
    pub fn decrement_ttl(&mut self) -> bool {
        if self.ttl <= 1 {
            self.ttl = 0;
            return false;
        }
        self.ttl -= 1;
        true
    }
}

impl fmt::Display for IpPacket {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.transport {
            Transport::Udp(u) => write!(
                f,
                "UDP {}:{} -> {}:{} ({} bytes, ttl {})",
                self.src,
                u.src_port,
                self.dst,
                u.dst_port,
                u.payload.len(),
                self.ttl
            ),
            Transport::Icmp(m) => {
                let kind = match m {
                    IcmpMessage::DestUnreachable { code, .. } => {
                        return write!(
                            f,
                            "ICMP unreachable(code {code}) {} -> {}",
                            self.src, self.dst
                        )
                    }
                    IcmpMessage::TimeExceeded { .. } => "time-exceeded",
                    IcmpMessage::EchoRequest { .. } => "echo-request",
                    IcmpMessage::EchoReply { .. } => "echo-reply",
                };
                write!(f, "ICMP {kind} {} -> {}", self.src, self.dst)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v4(s: &str) -> IpAddr {
        s.parse().unwrap()
    }

    #[test]
    fn udp_constructor_rejects_mixed_families() {
        let p = IpPacket::udp(v4("10.0.0.1"), "2001:db8::1".parse().unwrap(), 1, 2, Bytes::new());
        assert!(p.is_none());
        let p = IpPacket::udp(v4("10.0.0.1"), v4("10.0.0.2"), 1, 2, Bytes::new());
        assert!(p.unwrap().is_v4());
    }

    #[test]
    fn address_rewrites_preserve_family() {
        let mut p = IpPacket::udp_v4(
            "192.168.1.100".parse().unwrap(),
            "8.8.8.8".parse().unwrap(),
            5353,
            53,
            Bytes::from_static(b"q"),
        );
        assert!(p.set_src(v4("73.22.1.5")));
        assert!(!p.set_src("2001:db8::1".parse().unwrap()));
        assert_eq!(p.src(), v4("73.22.1.5"));
        assert!(p.set_dst(v4("75.75.75.75")));
        assert_eq!(p.dst(), v4("75.75.75.75"));
    }

    #[test]
    fn ttl_decrement_drops_at_one() {
        let mut p =
            IpPacket::udp_v4("1.1.1.1".parse().unwrap(), "2.2.2.2".parse().unwrap(), 1, 2, Bytes::new());
        p.ttl = 2;
        assert!(p.decrement_ttl());
        assert_eq!(p.ttl, 1);
        assert!(!p.decrement_ttl());
        assert_eq!(p.ttl, 0);
        assert!(!p.decrement_ttl());
    }

    #[test]
    fn flow_summary_extracts_ports() {
        let p = IpPacket::udp_v4(
            "10.0.0.1".parse().unwrap(),
            "10.0.0.2".parse().unwrap(),
            1234,
            53,
            Bytes::new(),
        );
        let fs = p.flow_summary();
        assert_eq!(fs.src_port, 1234);
        assert_eq!(fs.dst_port, 53);
    }

    #[test]
    fn display_formats() {
        let p = IpPacket::udp_v4(
            "10.0.0.1".parse().unwrap(),
            "8.8.8.8".parse().unwrap(),
            4242,
            53,
            Bytes::from_static(b"abcd"),
        );
        assert_eq!(p.to_string(), "UDP 10.0.0.1:4242 -> 8.8.8.8:53 (4 bytes, ttl 64)");
    }
}
