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
use std::any::Any;

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

    /// Boxed convenience constructor.
    pub fn boxed(name: impl Into<SharedStr>, ports: usize) -> Box<Switch> {
        Box::new(Switch::new(name, ports))
    }
}

impl Device for Switch {
    fn receive(&mut self, ctx: &mut Ctx<'_>, iface: IfaceId, packet: IpPacket) {
        for port in 0..self.ports {
            if IfaceId(port) != iface {
                self.forwarded += 1;
                if ctx.capture_enabled() {
                    ctx.capture(
                        Some(iface),
                        CaptureKind::RouteForward { out: IfaceId(port), packet: packet.clone() },
                    );
                }
                ctx.send(IfaceId(port), packet.clone());
            }
        }
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
    use crate::host::Host;
    use crate::sim::Simulator;
    use crate::time::SimDuration;
    use bytes::Bytes;
    use std::net::IpAddr;

    #[test]
    fn switch_floods_to_all_other_ports() {
        let mut sim = Simulator::new(1);
        let a = sim.add_device(Host::boxed("a", ["10.0.0.1".parse::<IpAddr>().unwrap()]));
        let b = sim.add_device(Host::boxed("b", ["10.0.0.2".parse::<IpAddr>().unwrap()]));
        let c = sim.add_device(Host::boxed("c", ["10.0.0.3".parse::<IpAddr>().unwrap()]));
        let sw = sim.add_device(Switch::boxed("sw", 3));
        sim.connect((a, IfaceId(0)), (sw, IfaceId(0)), SimDuration::from_micros(10));
        sim.connect((b, IfaceId(0)), (sw, IfaceId(1)), SimDuration::from_micros(10));
        sim.connect((c, IfaceId(0)), (sw, IfaceId(2)), SimDuration::from_micros(10));
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
    }

    #[test]
    fn no_reflection_back_to_sender_port() {
        let mut sim = Simulator::new(1);
        let a = sim.add_device(Host::boxed("a", ["10.0.0.1".parse::<IpAddr>().unwrap()]));
        let sw = sim.add_device(Switch::boxed("sw", 2));
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
