//! A LAN switch (flooding hub): repeats every received packet out of every
//! other interface. With it, a home LAN can host several devices — probe,
//! smart TV, IoT boxes — behind one CPE port, like real homes do.
//!
//! Flooding is the simplest correct behaviour for the simulator: endpoint
//! devices already discard packets not addressed to them, so MAC learning
//! would only save simulated bandwidth nobody is short of.

use crate::capture::CaptureKind;
use crate::packet::IpPacket;
use crate::shared::SharedStr;
use crate::sim::{Ctx, Device, IfaceId};

/// A flooding switch with a fixed number of ports.
pub struct Switch {
    name: SharedStr,
    ports: usize,
    /// Packets forwarded (copies counted individually).
    pub forwarded: u64,
}

impl Switch {
    /// Creates a switch with `ports` interfaces (0..ports).
    pub fn new(name: impl Into<SharedStr>, ports: usize) -> Switch {
        Switch { name: name.into(), ports, forwarded: 0 }
    }
}

impl Device for Switch {
    fn receive(&mut self, ctx: &mut Ctx<'_>, iface: IfaceId, packet: IpPacket) {
        let out = (0..self.ports).map(IfaceId).filter(|&port| port != iface);
        if ctx.capture_enabled() {
            for port in out.clone() {
                let kind = CaptureKind::RouteForward { out: port, packet: packet.clone() };
                ctx.capture(Some(iface), kind);
            }
        }
        for port in out {
            self.forwarded += 1;
            ctx.send(port, packet.clone());
        }
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::Host;
    use crate::sim::Simulator;
    use crate::time::SimDuration;
    use bytes::Bytes;
    use std::net::IpAddr;

    #[test]
    fn switch_floods_to_all_other_ports() {
        let mut sim = Simulator::new(1);
        let a = sim.add_device(Host::new("a", ["10.0.0.1".parse::<IpAddr>().unwrap()]));
        let b = sim.add_device(Host::new("b", ["10.0.0.2".parse::<IpAddr>().unwrap()]));
        let c = sim.add_device(Host::new("c", ["10.0.0.3".parse::<IpAddr>().unwrap()]));
        let sw = sim.add_device(Switch::new("sw", 3));
        sim.connect((a, IfaceId(0)), (sw, IfaceId(0)), SimDuration::from_micros(10));
        sim.connect((b, IfaceId(0)), (sw, IfaceId(1)), SimDuration::from_micros(10));
        sim.connect((c, IfaceId(0)), (sw, IfaceId(2)), SimDuration::from_micros(10));
        sim.record_capture();
        let pkt = IpPacket::udp_v4(
            "10.0.0.1".parse().unwrap(),
            "10.0.0.3".parse().unwrap(),
            1,
            2,
            Bytes::from_static(b"x"),
        );
        sim.inject(a, IfaceId(0), pkt);
        sim.run_to_quiescence();
        // Only the addressee keeps it; the other host discards the flooded
        // copy as a misdelivery.
        assert_eq!(sim.device::<Host>(c).unwrap().inbox().len(), 1);
        assert_eq!(sim.device::<Host>(b).unwrap().inbox().len(), 0);
        assert_eq!(sim.device::<Host>(b).unwrap().misdeliveries, 1);
        assert_eq!(sim.device::<Switch>(sw).unwrap().forwarded, 2);
        // Every forward is recorded before the first copy goes out.
        let at_switch: Vec<_> =
            sim.capture_events().iter().filter(|e| e.node == sw).map(|e| e.kind.verb()).collect();
        assert_eq!(at_switch, ["ingress", "forward", "forward", "egress", "egress"]);
    }

    #[test]
    fn no_reflection_back_to_sender_port() {
        let mut sim = Simulator::new(1);
        let a = sim.add_device(Host::new("a", ["10.0.0.1".parse::<IpAddr>().unwrap()]));
        let sw = sim.add_device(Switch::new("sw", 2));
        sim.connect((a, IfaceId(0)), (sw, IfaceId(0)), SimDuration::from_micros(10));
        let pkt = IpPacket::udp_v4(
            "10.0.0.1".parse().unwrap(),
            "10.0.0.1".parse().unwrap(),
            1,
            2,
            Bytes::from_static(b"x"),
        );
        sim.inject(a, IfaceId(0), pkt);
        sim.run_to_quiescence();
        // The only other port is unattached: one forward, no echo to a.
        assert_eq!(sim.device::<Host>(a).unwrap().inbox().len(), 0);
        assert_eq!(sim.device::<Switch>(sw).unwrap().forwarded, 1);
    }
}
