//! An end host: owns addresses, collects received packets into an inbox for
//! an external harness to read, and answers ICMP echo.
//!
//! The measurement probe (the "RIPE Atlas probe" of the pilot study) is a
//! `Host`; the query transport injects packets from it and reads answers out
//! of its inbox.

use crate::packet::{IcmpMessage, IpPacket, Transport};
use crate::shared::SharedStr;
use crate::sim::{Ctx, Device, IfaceId};
use crate::time::SimTime;
use std::any::Any;
use std::net::IpAddr;

/// A received packet with its delivery time.
#[derive(Debug, Clone)]
pub struct Delivery {
    /// Virtual time of delivery.
    pub at: SimTime,
    /// The packet.
    pub packet: IpPacket,
}

/// A simple end host.
pub struct Host {
    name: SharedStr,
    /// A host owns one or two addresses, so a scan beats hashing.
    addrs: Vec<IpAddr>,
    inbox: Vec<Delivery>,
    /// Packets not addressed to this host (mis-deliveries) — should stay 0
    /// in a correctly wired topology; tests assert on it.
    pub misdeliveries: u64,
}

impl Host {
    /// Creates a host owning the given addresses.
    pub fn new(name: impl Into<SharedStr>, addrs: impl IntoIterator<Item = IpAddr>) -> Host {
        let mut host =
            Host { name: name.into(), addrs: Vec::new(), inbox: Vec::new(), misdeliveries: 0 };
        for addr in addrs {
            host.add_addr(addr);
        }
        host
    }

    /// Boxed convenience constructor.
    pub fn boxed(name: impl Into<SharedStr>, addrs: impl IntoIterator<Item = IpAddr>) -> Box<Host> {
        Box::new(Host::new(name, addrs))
    }

    /// Adds an address after construction.
    pub fn add_addr(&mut self, addr: IpAddr) {
        if !self.addrs.contains(&addr) {
            self.addrs.push(addr);
        }
    }

    /// True if the host owns `addr`.
    pub fn owns(&self, addr: IpAddr) -> bool {
        self.addrs.contains(&addr)
    }

    /// All packets delivered so far.
    pub fn inbox(&self) -> &[Delivery] {
        &self.inbox
    }

    /// Removes and returns all delivered packets.
    pub fn drain_inbox(&mut self) -> Vec<Delivery> {
        std::mem::take(&mut self.inbox)
    }

    /// Removes all delivered packets in place, keeping the inbox's
    /// capacity for the next deliveries. Packets the caller does not
    /// consume are dropped with the iterator.
    pub fn drain_deliveries(&mut self) -> std::vec::Drain<'_, Delivery> {
        self.inbox.drain(..)
    }
}

impl Device for Host {
    fn receive(&mut self, ctx: &mut Ctx<'_>, iface: IfaceId, packet: IpPacket) {
        if !self.addrs.contains(&packet.dst()) {
            self.misdeliveries += 1;
            return;
        }
        if let Transport::Icmp(IcmpMessage::EchoRequest { id, seq }) = packet.transport {
            if let Some(reply) =
                IpPacket::icmp(packet.dst(), packet.src(), IcmpMessage::EchoReply { id, seq })
            {
                ctx.send(iface, reply);
            }
            return;
        }
        self.inbox.push(Delivery { at: ctx.now(), packet });
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::Simulator;
    use crate::time::SimDuration;
    use bytes::Bytes;

    fn addr(s: &str) -> IpAddr {
        s.parse().unwrap()
    }

    #[test]
    fn host_collects_addressed_packets() {
        let mut sim = Simulator::new(1);
        let a = sim.add_device(Host::boxed("a", [addr("10.0.0.1")]));
        let b = sim.add_device(Host::boxed("b", [addr("10.0.0.2")]));
        sim.connect((a, IfaceId(0)), (b, IfaceId(0)), SimDuration::from_millis(1));
        let p = IpPacket::udp_v4(
            "10.0.0.1".parse().unwrap(),
            "10.0.0.2".parse().unwrap(),
            1000,
            53,
            Bytes::from_static(b"x"),
        );
        sim.inject(a, IfaceId(0), p);
        sim.run_to_quiescence();
        let host_b = sim.device::<Host>(b).unwrap();
        assert_eq!(host_b.inbox().len(), 1);
        assert_eq!(host_b.misdeliveries, 0);
    }

    #[test]
    fn host_rejects_misaddressed_packets() {
        let mut sim = Simulator::new(1);
        let a = sim.add_device(Host::boxed("a", [addr("10.0.0.1")]));
        let b = sim.add_device(Host::boxed("b", [addr("10.0.0.2")]));
        sim.connect((a, IfaceId(0)), (b, IfaceId(0)), SimDuration::from_millis(1));
        let p = IpPacket::udp_v4(
            "10.0.0.1".parse().unwrap(),
            "10.0.0.99".parse().unwrap(),
            1000,
            53,
            Bytes::new(),
        );
        sim.inject(a, IfaceId(0), p);
        sim.run_to_quiescence();
        let host_b = sim.device::<Host>(b).unwrap();
        assert_eq!(host_b.inbox().len(), 0);
        assert_eq!(host_b.misdeliveries, 1);
    }

    #[test]
    fn host_answers_echo() {
        let mut sim = Simulator::new(1);
        let a = sim.add_device(Host::boxed("a", [addr("10.0.0.1")]));
        let b = sim.add_device(Host::boxed("b", [addr("10.0.0.2")]));
        sim.connect((a, IfaceId(0)), (b, IfaceId(0)), SimDuration::from_millis(1));
        let ping = IpPacket::icmp(
            addr("10.0.0.1"),
            addr("10.0.0.2"),
            IcmpMessage::EchoRequest { id: 1, seq: 2 },
        )
        .unwrap();
        sim.inject(a, IfaceId(0), ping);
        sim.run_to_quiescence();
        let host_a = sim.device::<Host>(a).unwrap();
        assert_eq!(host_a.inbox().len(), 1);
        assert!(matches!(
            host_a.inbox()[0].packet.transport,
            Transport::Icmp(IcmpMessage::EchoReply { id: 1, seq: 2 })
        ));
    }

    #[test]
    fn drain_empties_inbox() {
        let mut host = Host::new("h", [addr("10.0.0.1")]);
        host.inbox.push(Delivery {
            at: SimTime::ZERO,
            packet: IpPacket::udp_v4(
                "10.0.0.2".parse().unwrap(),
                "10.0.0.1".parse().unwrap(),
                1,
                2,
                Bytes::new(),
            ),
        });
        assert_eq!(host.drain_inbox().len(), 1);
        assert!(host.inbox().is_empty());
    }

    #[test]
    fn dual_stack_host() {
        let mut host = Host::new("h", [addr("10.0.0.1"), addr("2001:559::1")]);
        assert!(host.owns(addr("10.0.0.1")));
        assert!(host.owns(addr("2001:559::1")));
        host.add_addr(addr("192.168.1.100"));
        assert!(host.owns(addr("192.168.1.100")));
    }
}
