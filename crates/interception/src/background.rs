//! Background DNS chatter: timer-driven devices that query like the smart
//! TVs, phones, and IoT boxes sharing a real home LAN. Used to verify the
//! technique's verdicts are unaffected by concurrent traffic and that the
//! CPE's conntrack keeps flows separated under load.

use dns_wire::{QueryEncoder, Question, RType};
use netsim::{Ctx, Device, IfaceId, IpPacket, SharedStr, SimDuration};
use std::net::IpAddr;

/// A LAN device that issues periodic DNS queries.
pub struct BackgroundClient {
    name: SharedStr,
    addr: IpAddr,
    resolver: IpAddr,
    names: Vec<dns_wire::Name>,
    interval: SimDuration,
    next_txid: u16,
    sport: u16,
    /// Queries sent.
    pub sent: u64,
    /// Responses received (source- and port-matched).
    pub received: u64,
    /// Responses whose source did not match the queried resolver.
    pub mismatched_sources: u64,
    encoder: QueryEncoder,
}

impl BackgroundClient {
    /// Creates a client that queries `names` round-robin against
    /// `resolver` every `interval`.
    pub fn new(
        name: impl Into<SharedStr>,
        addr: IpAddr,
        resolver: IpAddr,
        names: Vec<dns_wire::Name>,
        interval: SimDuration,
        sport: u16,
    ) -> BackgroundClient {
        BackgroundClient {
            name: name.into(),
            addr,
            resolver,
            names,
            interval,
            next_txid: 0x0B00,
            sport,
            sent: 0,
            received: 0,
            mismatched_sources: 0,
            encoder: QueryEncoder::new(),
        }
    }

    fn fire(&mut self, ctx: &mut Ctx<'_>) {
        if self.names.is_empty() {
            return;
        }
        let qname = self.names[self.sent as usize % self.names.len()].clone();
        let txid = self.next_txid;
        self.next_txid = self.next_txid.wrapping_add(1);
        let question = Question::new(qname, RType::A);
        let Ok(wire) = self.encoder.encode_query(txid, &question) else { return };
        let payload = ctx.alloc_payload(wire);
        if let Some(pkt) = IpPacket::udp(self.addr, self.resolver, self.sport, 53, payload) {
            self.sent += 1;
            ctx.send(IfaceId(0), pkt);
        }
        ctx.set_timer(self.interval, 0);
    }
}

impl Device for BackgroundClient {
    fn receive(&mut self, _ctx: &mut Ctx<'_>, _iface: IfaceId, packet: IpPacket) {
        if packet.dst() != self.addr {
            return;
        }
        let Some(udp) = packet.udp_payload() else { return };
        if udp.dst_port != self.sport {
            return;
        }
        if packet.src() == self.resolver {
            self.received += 1;
        } else {
            self.mismatched_sources += 1;
        }
    }

    fn timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
        self.fire(ctx);
    }

    fn name(&self) -> &str {
        &self.name
    }
}

/// Arms a background client: schedules its first timer tick. Call after
/// adding the device to the simulator.
pub(crate) fn start_background(
    sim: &mut netsim::Simulator,
    node: netsim::NodeId,
    delay: SimDuration,
) {
    sim.inject_timer(node, delay, 0);
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use netsim::Simulator;

    #[test]
    fn client_queries_on_schedule() {
        let mut sim = Simulator::new(1);
        let client = sim.add_device(BackgroundClient::new(
            "tv",
            "10.0.0.2".parse().unwrap(),
            "10.0.0.53".parse().unwrap(),
            vec!["example.com".parse().unwrap()],
            SimDuration::from_millis(100),
            5001,
        ));
        // No link attached: queries vanish, but the schedule keeps ticking.
        start_background(&mut sim, client, SimDuration::from_millis(10));
        sim.run_until(netsim::SimTime::from_nanos(1_000_000_000)); // 1s
        let c = sim.device::<BackgroundClient>(client).unwrap();
        // First at 10ms, then every 100ms: 10 fires within 1s.
        assert_eq!(c.sent, 10);
    }

    #[test]
    fn client_counts_matching_responses_only() {
        let c = BackgroundClient::new(
            "tv",
            "10.0.0.2".parse().unwrap(),
            "10.0.0.53".parse().unwrap(),
            vec![],
            SimDuration::from_millis(100),
            5001,
        );
        // Hand-deliver packets through the Device interface via a sim.
        let mut sim = Simulator::new(1);
        let a = sim.add_device(c);
        let b = sim.add_device(netsim::Host::new("peer", ["10.0.0.53".parse::<IpAddr>().unwrap()]));
        sim.connect((a, IfaceId(0)), (b, IfaceId(0)), SimDuration::from_millis(1));
        // Matching response.
        let ok = IpPacket::udp_v4(
            "10.0.0.53".parse().unwrap(),
            "10.0.0.2".parse().unwrap(),
            53,
            5001,
            Bytes::from_static(b"r"),
        );
        sim.inject(b, IfaceId(0), ok);
        // Spoof-free mismatch (unexpected source).
        let bad = IpPacket::udp_v4(
            "10.0.0.99".parse().unwrap(),
            "10.0.0.2".parse().unwrap(),
            53,
            5001,
            Bytes::from_static(b"r"),
        );
        sim.inject(b, IfaceId(0), bad);
        sim.run_to_quiescence();
        let c = sim.device::<BackgroundClient>(a).unwrap();
        assert_eq!(c.received, 1);
        assert_eq!(c.mismatched_sources, 1);
    }
}
