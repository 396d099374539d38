//! Query replication (§3.1): an interceptor that *copies* DNS queries to
//! its resolver while also letting the original continue to the real
//! destination. The client receives two source-matching responses; the
//! interceptor's "nearly always arrives first and is accepted by the
//! client, so interception and replication are indistinguishable" for the
//! technique's purposes — which this device lets tests demonstrate.

use netsim::{Cidr, Ctx, Device, DnatRule, IpPacket, NatEngine, NatVerdict, RouteTable, SharedStr};
use std::net::IpAddr;

/// A replicating in-path interceptor with two interfaces: 0 toward the
/// client side, 1 toward the network side.
pub struct ReplicatingInterceptor {
    name: SharedStr,
    /// Forwarding table (client prefixes → iface 0, default → iface 1).
    pub routes: RouteTable,
    nat: NatEngine,
    /// DNS queries replicated so far.
    pub replicated: u64,
}

impl ReplicatingInterceptor {
    /// Creates the device; `redirect_to` is where the copies go.
    pub fn new(name: impl Into<SharedStr>, redirect_to: IpAddr) -> ReplicatingInterceptor {
        let mut nat = NatEngine::new();
        nat.add_dnat(DnatRule::redirect_dns(redirect_to));
        ReplicatingInterceptor { name: name.into(), routes: RouteTable::new(), nat, replicated: 0 }
    }

    /// Adds a client-side route.
    pub fn route_client(&mut self, prefix: Cidr) -> &mut Self {
        self.routes.add(prefix, netsim::IfaceId(0));
        self
    }

    fn forward(&self, ctx: &mut Ctx<'_>, mut pkt: IpPacket) {
        if !pkt.decrement_ttl() {
            return;
        }
        let out = self.routes.lookup(pkt.dst()).unwrap_or(netsim::IfaceId(1));
        ctx.send(out, pkt);
    }
}

impl Device for ReplicatingInterceptor {
    fn receive(&mut self, ctx: &mut Ctx<'_>, iface: netsim::IfaceId, mut packet: IpPacket) {
        match iface.0 {
            0 => {
                let is_dns = packet.udp_payload().map(|u| u.dst_port == 53).unwrap_or(false);
                if is_dns {
                    // Replicate: the original continues untouched…
                    self.forward(ctx, packet.clone());
                    // …and a DNAT-tracked copy goes to our resolver.
                    if let NatVerdict::Forward(copy) = self.nat.outbound(packet) {
                        self.replicated += 1;
                        self.forward(ctx, copy);
                    }
                } else {
                    self.forward(ctx, packet);
                }
            }
            _ => {
                // Reply side: conntrack translation restores the spoofed
                // source for our copies; everything else passes through.
                self.nat.inbound(&mut packet);
                self.forward(ctx, packet);
            }
        }
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use netsim::{Host, IfaceId, SimDuration, Simulator};
    use resolver_sim::{
        RecursiveResolver, ResolveCtx, ResolverMode, ResolverProfile, SoftwareProfile, ZoneDb,
    };
    use std::sync::Arc;

    /// client — replicator — hub router — {real resolver, alt resolver}
    fn world() -> (Simulator, netsim::NodeId, netsim::NodeId) {
        let mut sim = Simulator::new(3);
        let client = sim.add_device(Host::new("client", ["73.1.1.1".parse::<IpAddr>().unwrap()]));
        let mut rep = ReplicatingInterceptor::new("replicator", "75.75.75.75".parse().unwrap());
        rep.route_client("73.0.0.0/8".parse().unwrap());
        let rep = sim.add_device(rep);
        let mut hub = netsim::Router::new("hub");
        hub.add_addr("62.0.0.1".parse().unwrap());
        hub.routes.add("73.0.0.0/8".parse().unwrap(), IfaceId(0));
        hub.routes.add(Cidr::host("8.8.8.8".parse().unwrap()), IfaceId(1));
        hub.routes.add(Cidr::host("75.75.75.75".parse().unwrap()), IfaceId(2));
        let hub = sim.add_device(hub);
        let zonedb = Arc::new(ZoneDb::standard_world());
        let resolver = |name, addr: &str, egress: &str, software| {
            RecursiveResolver::with_profile(Arc::new(ResolverProfile::new(
                name,
                [addr.parse::<IpAddr>().unwrap()],
                ResolveCtx::v4(egress.parse().unwrap()),
                Arc::clone(&zonedb),
                software,
                ResolverMode::Normal,
            )))
        };
        let real = sim.add_device(resolver(
            "google",
            "8.8.8.8",
            "172.253.226.35",
            SoftwareProfile::chaos_silent(),
        ));
        let alt = sim.add_device(resolver(
            "isp",
            "75.75.75.75",
            "75.75.75.10",
            SoftwareProfile::unbound("1.9.0"),
        ));
        sim.connect((client, IfaceId(0)), (rep, IfaceId(0)), SimDuration::from_millis(1));
        sim.connect((rep, IfaceId(1)), (hub, IfaceId(0)), SimDuration::from_millis(2));
        // The real resolver is farther than the interceptor's: its answer
        // arrives second, as the paper observes.
        sim.connect((hub, IfaceId(1)), (real, IfaceId(0)), SimDuration::from_millis(40));
        sim.connect((hub, IfaceId(2)), (alt, IfaceId(0)), SimDuration::from_millis(3));
        (sim, client, rep)
    }

    #[test]
    fn client_receives_two_source_matching_responses() {
        let (mut sim, client, rep) = world();
        let q = dns_wire::Message::query(
            9,
            dns_wire::Question::new("example.com".parse().unwrap(), dns_wire::RType::A),
        );
        let pkt = IpPacket::udp_v4(
            "73.1.1.1".parse().unwrap(),
            "8.8.8.8".parse().unwrap(),
            4000,
            53,
            Bytes::from(q.encode().unwrap()),
        );
        sim.inject(client, IfaceId(0), pkt);
        sim.run_to_quiescence();
        let inbox = sim.device_mut::<Host>(client).unwrap().drain_inbox();
        // Two answers, both claiming to be 8.8.8.8.
        assert_eq!(inbox.len(), 2);
        for d in &inbox {
            assert_eq!(d.packet.src(), "8.8.8.8".parse::<IpAddr>().unwrap());
        }
        // The replica (via the nearby ISP resolver) arrives first.
        assert!(inbox[0].at < inbox[1].at);
        assert_eq!(sim.device::<ReplicatingInterceptor>(rep).unwrap().replicated, 1);
    }

    #[test]
    fn replication_is_indistinguishable_from_interception_for_chaos() {
        // A version.bind query: the replica's answer (unbound) arrives
        // before the real resolver's silence; the client sees exactly what
        // a plain interceptor would produce.
        let (mut sim, client, _rep) = world();
        let q = dns_wire::debug_queries::version_bind_query(5);
        let pkt = IpPacket::udp_v4(
            "73.1.1.1".parse().unwrap(),
            "8.8.8.8".parse().unwrap(),
            4001,
            53,
            Bytes::from(q.encode().unwrap()),
        );
        sim.inject(client, IfaceId(0), pkt);
        sim.run_to_quiescence();
        let inbox = sim.device_mut::<Host>(client).unwrap().drain_inbox();
        assert_eq!(inbox.len(), 1); // real Google stays silent on CHAOS here
        let msg =
            dns_wire::Message::parse(&inbox[0].packet.udp_payload().unwrap().payload).unwrap();
        assert_eq!(msg.answers[0].rdata.txt_string().unwrap(), "unbound 1.9.0");
    }

    #[test]
    fn non_dns_traffic_not_replicated() {
        let (mut sim, client, rep) = world();
        let pkt = IpPacket::udp_v4(
            "73.1.1.1".parse().unwrap(),
            "8.8.8.8".parse().unwrap(),
            4000,
            443,
            Bytes::from_static(b"not dns"),
        );
        sim.inject(client, IfaceId(0), pkt);
        sim.run_to_quiescence();
        assert_eq!(sim.device::<ReplicatingInterceptor>(rep).unwrap().replicated, 0);
    }
}
