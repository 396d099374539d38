//! A general-purpose IP router device: longest-prefix forwarding, TTL
//! handling, optional NAT (DNAT/masquerade), optional bogon filtering, and
//! optional ICMP error generation.
//!
//! Every forwarding element in the reproduction's topologies — the CPE's
//! routing core, ISP edge and border routers, middleboxes, and the internet
//! core — is either this device or a thin wrapper around the same pieces.

use crate::bogon::is_bogon;
use crate::capture::{CaptureKind, DropReason};
use crate::nat::{NatEngine, NatVerdict};
use crate::packet::{IcmpMessage, IpPacket, Transport};
use crate::route::RouteTable;
use crate::shared::SharedStr;
use crate::sim::{Ctx, Device, IfaceId};
use std::any::Any;
use std::net::IpAddr;

/// What a router does with a packet addressed to one of its own addresses.
///
/// The base router only answers ICMP echo; anything else is dropped. Devices
/// with richer local stacks (DNS forwarders in CPE, resolvers) embed the
/// router's building blocks instead of subclassing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LocalPolicy {
    /// Answer ICMP echo, drop everything else silently.
    EchoOnly,
    /// Drop everything silently.
    DropAll,
}

/// Router configuration and state.
pub struct Router {
    name: SharedStr,
    /// Addresses owned by this router (local delivery), in the order they
    /// were added; the first one sources the router's ICMP errors. A
    /// router owns one or two addresses, so a scan beats hashing.
    addrs: Vec<IpAddr>,
    /// Forwarding table.
    pub routes: RouteTable,
    /// Optional NAT engine with the "inside" interfaces.
    nat: Option<(NatEngine, Vec<IfaceId>)>,
    /// Drop packets whose destination is bogon space (AS border behaviour).
    drop_bogon_dst: bool,
    /// Emit ICMP destination-unreachable when no route exists.
    emit_unreachable: bool,
    local_policy: LocalPolicy,
    /// Packets dropped for having a bogon destination.
    pub bogon_drops: u64,
    /// Packets dropped for lack of a route.
    pub no_route_drops: u64,
    /// Packets dropped due to TTL expiry.
    pub ttl_drops: u64,
}

impl Router {
    /// Creates a router with no routes and no NAT.
    pub fn new(name: impl Into<SharedStr>) -> Router {
        Router {
            name: name.into(),
            addrs: Vec::new(),
            routes: RouteTable::new(),
            nat: None,
            drop_bogon_dst: false,
            emit_unreachable: false,
            local_policy: LocalPolicy::EchoOnly,
            bogon_drops: 0,
            no_route_drops: 0,
            ttl_drops: 0,
        }
    }

    /// Assigns an address to the router (enables local delivery for it).
    pub fn add_addr(&mut self, addr: IpAddr) -> &mut Self {
        if !self.addrs.contains(&addr) {
            self.addrs.push(addr);
        }
        self
    }

    /// Installs a NAT engine; packets arriving on `inside` interfaces go
    /// through the outbound path, all others through the inbound path.
    pub fn set_nat(&mut self, engine: NatEngine, inside: impl IntoIterator<Item = IfaceId>) -> &mut Self {
        self.nat = Some((engine, inside.into_iter().collect()));
        self
    }

    /// Mutable access to the NAT engine, if any.
    pub fn nat_mut(&mut self) -> Option<&mut NatEngine> {
        self.nat.as_mut().map(|(e, _)| e)
    }

    /// Enables bogon-destination filtering (AS border router behaviour);
    /// this is what makes the paper's step-3 bogon queries meaningful.
    pub fn drop_bogon_destinations(&mut self, enable: bool) -> &mut Self {
        self.drop_bogon_dst = enable;
        self
    }

    /// Enables ICMP destination-unreachable generation on routing failure.
    pub fn emit_unreachable(&mut self, enable: bool) -> &mut Self {
        self.emit_unreachable = enable;
        self
    }

    /// Sets the local-delivery policy.
    pub fn set_local_policy(&mut self, policy: LocalPolicy) -> &mut Self {
        self.local_policy = policy;
        self
    }

    /// True if `addr` is one of the router's own addresses.
    pub fn owns(&self, addr: IpAddr) -> bool {
        self.addrs.contains(&addr)
    }

    fn deliver_local(&mut self, ctx: &mut Ctx<'_>, iface: IfaceId, packet: IpPacket) {
        if let (LocalPolicy::EchoOnly, Transport::Icmp(IcmpMessage::EchoRequest { id, seq })) = (&self.local_policy, &packet.transport) {
            if let Some(reply) =
                IpPacket::icmp(packet.dst(), packet.src(), IcmpMessage::EchoReply { id: *id, seq: *seq })
            {
                ctx.send(iface, reply);
            }
        }
    }

    fn forward(&mut self, ctx: &mut Ctx<'_>, in_iface: IfaceId, mut packet: IpPacket) {
        if self.drop_bogon_dst && is_bogon(packet.dst()) {
            self.bogon_drops += 1;
            if ctx.capture_enabled() {
                ctx.capture(
                    Some(in_iface),
                    CaptureKind::RouteDrop { reason: DropReason::BogonDestination, packet },
                );
            }
            return;
        }
        if !packet.decrement_ttl() {
            self.ttl_drops += 1;
            if let Some(&source) = self.addrs.first() {
                if let Some(te) = IpPacket::icmp(
                    source,
                    packet.src(),
                    IcmpMessage::TimeExceeded { original: packet.flow_summary() },
                ) {
                    ctx.send(in_iface, te);
                }
            }
            if ctx.capture_enabled() {
                ctx.capture(
                    Some(in_iface),
                    CaptureKind::RouteDrop { reason: DropReason::TtlExpired, packet },
                );
            }
            return;
        }
        match self.routes.lookup(packet.dst()) {
            Some(out_iface) => {
                if ctx.capture_enabled() {
                    ctx.capture(
                        Some(in_iface),
                        CaptureKind::RouteForward { out: out_iface, packet: packet.clone() },
                    );
                }
                ctx.send(out_iface, packet)
            }
            None => {
                self.no_route_drops += 1;
                if self.emit_unreachable {
                    if let Some(&source) = self.addrs.first() {
                        if let Some(unreach) = IpPacket::icmp(
                            source,
                            packet.src(),
                            IcmpMessage::DestUnreachable {
                                code: 0,
                                original: packet.flow_summary(),
                            },
                        ) {
                            ctx.send(in_iface, unreach);
                        }
                    }
                }
                if ctx.capture_enabled() {
                    ctx.capture(
                        Some(in_iface),
                        CaptureKind::RouteDrop { reason: DropReason::NoRoute, packet },
                    );
                }
            }
        }
    }
}

impl Device for Router {
    fn receive(&mut self, ctx: &mut Ctx<'_>, iface: IfaceId, packet: IpPacket) {
        // NAT processing first (mirrors netfilter PREROUTING for inbound and
        // the POSTROUTING/DNAT pipeline for traffic from inside interfaces).
        let packet = if let Some((engine, inside)) = &mut self.nat {
            // Snapshot the pre-NAT tuple only while recording, so the
            // disabled path stays untouched.
            let before = ctx.capture_enabled().then(|| packet.flow_summary());
            if inside.contains(&iface) {
                match engine.outbound(packet, ctx.now()) {
                    NatVerdict::Local(p) => {
                        // DNAT pointed at the router itself; base router has
                        // no DNS stack, so local policy applies.
                        ctx.capture_nat_rewrite(iface, before, &p, false);
                        self.deliver_local(ctx, iface, p);
                        return;
                    }
                    NatVerdict::Forward(p) => {
                        ctx.capture_nat_rewrite(iface, before, &p, false);
                        p
                    }
                }
            } else {
                match engine.inbound(packet.clone(), ctx.now()) {
                    Some(translated) => {
                        ctx.capture_nat_rewrite(iface, before, &translated, true);
                        translated
                    }
                    // Untracked traffic from outside passes through unchanged
                    // (middlebox behaviour). Delivery to the router's own
                    // masqueraded address that matches no flow is handled
                    // below as local delivery.
                    None => packet,
                }
            }
        } else {
            packet
        };

        if self.addrs.contains(&packet.dst()) {
            self.deliver_local(ctx, iface, packet);
            return;
        }
        self.forward(ctx, iface, packet);
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
    use crate::nat::DnatRule;
    use crate::sim::{NodeId, Simulator};
    use crate::time::SimDuration;
    use bytes::Bytes;
    use std::net::Ipv4Addr;

    /// Sink device that records everything it receives.
    pub struct Sink {
        name: String,
        pub received: Vec<IpPacket>,
    }

    impl Sink {
        pub fn boxed(name: &str) -> Box<Sink> {
            Box::new(Sink { name: name.into(), received: Vec::new() })
        }
    }

    impl Device for Sink {
        fn receive(&mut self, _ctx: &mut Ctx<'_>, _iface: IfaceId, packet: IpPacket) {
            self.received.push(packet);
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

    fn dns_pkt(src: &str, dst: &str) -> IpPacket {
        IpPacket::udp_v4(src.parse().unwrap(), dst.parse().unwrap(), 4000, 53, Bytes::from_static(b"q"))
    }

    /// Topology: sink_a <-> router <-> sink_b, router routes 10.0.0.0/8 to
    /// iface 0 (a side) and default to iface 1 (b side).
    fn two_sided() -> (Simulator, NodeId, NodeId, NodeId) {
        let mut sim = Simulator::new(1);
        let a = sim.add_device(Sink::boxed("a"));
        let b = sim.add_device(Sink::boxed("b"));
        let mut router = Router::new("r");
        router.add_addr("10.0.0.1".parse().unwrap());
        router.routes.add("10.0.0.0/8".parse().unwrap(), IfaceId(0));
        router.routes.add_default_v4(IfaceId(1));
        let r = sim.add_device(Box::new(router));
        sim.connect((a, IfaceId(0)), (r, IfaceId(0)), SimDuration::from_millis(1));
        sim.connect((b, IfaceId(0)), (r, IfaceId(1)), SimDuration::from_millis(1));
        (sim, a, b, r)
    }

    #[test]
    fn routes_by_longest_prefix() {
        let (mut sim, a, b, r) = two_sided();
        sim.inject(a, IfaceId(0), dns_pkt("10.0.0.2", "8.8.8.8"));
        sim.inject(b, IfaceId(0), dns_pkt("8.8.8.8", "10.0.0.2"));
        sim.run_to_quiescence();
        assert_eq!(sim.device::<Sink>(b).unwrap().received.len(), 1);
        assert_eq!(sim.device::<Sink>(a).unwrap().received.len(), 1);
        let _ = r;
    }

    #[test]
    fn ttl_decremented_on_forward() {
        let (mut sim, a, b, _r) = two_sided();
        sim.inject(a, IfaceId(0), dns_pkt("10.0.0.2", "8.8.8.8"));
        sim.run_to_quiescence();
        assert_eq!(sim.device::<Sink>(b).unwrap().received[0].ttl, 63);
    }

    #[test]
    fn ttl_expiry_drops_and_reports() {
        let (mut sim, a, _b, r) = two_sided();
        sim.record_capture();
        let mut p = dns_pkt("10.0.0.2", "8.8.8.8");
        p.ttl = 1;
        sim.inject(a, IfaceId(0), p);
        sim.run_to_quiescence();
        assert_eq!(sim.device::<Router>(r).unwrap().ttl_drops, 1);
        let drop =
            sim.capture_events().iter().find(|e| matches!(e.kind, CaptureKind::RouteDrop { .. }));
        assert_eq!(drop.expect("the router records its drop").kind.verb(), "drop(ttl-expired)");
        // The source got an ICMP time-exceeded.
        let back = &sim.device::<Sink>(a).unwrap().received;
        assert_eq!(back.len(), 1);
        assert!(matches!(
            back[0].transport,
            Transport::Icmp(IcmpMessage::TimeExceeded { .. })
        ));
    }

    #[test]
    fn icmp_errors_come_from_the_first_configured_address() {
        let (mut sim, a, _b, r) = two_sided();
        // A second address that sorts before the first: the error must
        // still come from 10.0.0.1, the first one configured.
        sim.device_mut::<Router>(r).unwrap().add_addr("1.2.3.4".parse().unwrap());
        let mut p = dns_pkt("10.0.0.2", "8.8.8.8");
        p.ttl = 1;
        sim.inject(a, IfaceId(0), p);
        sim.run_to_quiescence();
        let back = &sim.device::<Sink>(a).unwrap().received;
        assert_eq!(back.len(), 1);
        assert!(matches!(back[0].transport, Transport::Icmp(IcmpMessage::TimeExceeded { .. })));
        assert_eq!(back[0].src(), "10.0.0.1".parse::<IpAddr>().unwrap());
    }

    #[test]
    fn bogon_destination_dropped_at_border() {
        let (mut sim, a, b, r) = two_sided();
        sim.device_mut::<Router>(r).unwrap().drop_bogon_destinations(true);
        sim.inject(a, IfaceId(0), dns_pkt("10.0.0.2", "198.51.100.53"));
        sim.run_to_quiescence();
        assert_eq!(sim.device::<Sink>(b).unwrap().received.len(), 0);
        assert_eq!(sim.device::<Router>(r).unwrap().bogon_drops, 1);
    }

    #[test]
    fn no_route_emits_unreachable_when_enabled() {
        let mut sim = Simulator::new(1);
        let a = sim.add_device(Sink::boxed("a"));
        let mut router = Router::new("r");
        router.add_addr("10.0.0.1".parse().unwrap());
        router.routes.add("10.0.0.0/8".parse().unwrap(), IfaceId(0));
        router.emit_unreachable(true);
        let r = sim.add_device(Box::new(router));
        sim.connect((a, IfaceId(0)), (r, IfaceId(0)), SimDuration::from_millis(1));
        sim.record_capture();
        sim.inject(a, IfaceId(0), dns_pkt("10.0.0.2", "99.99.99.99"));
        sim.run_to_quiescence();
        let back = &sim.device::<Sink>(a).unwrap().received;
        assert_eq!(back.len(), 1);
        assert!(matches!(
            back[0].transport,
            Transport::Icmp(IcmpMessage::DestUnreachable { .. })
        ));
        let drop =
            sim.capture_events().iter().find(|e| matches!(e.kind, CaptureKind::RouteDrop { .. }));
        assert_eq!(drop.expect("the router records its drop").kind.verb(), "drop(no-route)");
    }

    #[test]
    fn echo_request_to_own_address_answered() {
        let (mut sim, a, _b, _r) = two_sided();
        let ping = IpPacket::icmp(
            "10.0.0.2".parse().unwrap(),
            "10.0.0.1".parse().unwrap(),
            IcmpMessage::EchoRequest { id: 7, seq: 1 },
        )
        .unwrap();
        sim.inject(a, IfaceId(0), ping);
        sim.run_to_quiescence();
        let back = &sim.device::<Sink>(a).unwrap().received;
        assert_eq!(back.len(), 1);
        assert!(matches!(
            back[0].transport,
            Transport::Icmp(IcmpMessage::EchoReply { id: 7, seq: 1 })
        ));
    }

    #[test]
    fn udp_to_own_address_dropped_by_default() {
        let (mut sim, a, _b, _r) = two_sided();
        sim.inject(a, IfaceId(0), dns_pkt("10.0.0.2", "10.0.0.1"));
        sim.run_to_quiescence();
        assert_eq!(sim.device::<Sink>(a).unwrap().received.len(), 0);
    }

    #[test]
    fn middlebox_dnat_redirects_and_unspoofs_reply() {
        // a (client side) -> middlebox -> b (internet side). The middlebox
        // DNATs port 53 to 75.75.75.75 without masquerade; the reply passes
        // back through and regains the spoofed source.
        let mut sim = Simulator::new(1);
        let a = sim.add_device(Sink::boxed("client"));
        let b = sim.add_device(Sink::boxed("net"));
        let mut mb = Router::new("middlebox");
        mb.add_addr("62.0.0.1".parse().unwrap());
        mb.routes.add("73.0.0.0/8".parse().unwrap(), IfaceId(0));
        mb.routes.add_default_v4(IfaceId(1));
        let mut nat = NatEngine::new();
        nat.add_dnat(DnatRule::redirect_dns("75.75.75.75".parse().unwrap()));
        mb.set_nat(nat, [IfaceId(0)]);
        let m = sim.add_device(Box::new(mb));
        sim.connect((a, IfaceId(0)), (m, IfaceId(0)), SimDuration::from_millis(1));
        sim.connect((b, IfaceId(0)), (m, IfaceId(1)), SimDuration::from_millis(1));

        sim.inject(a, IfaceId(0), dns_pkt("73.1.2.3", "8.8.8.8"));
        sim.run_to_quiescence();
        let outward = &sim.device::<Sink>(b).unwrap().received;
        assert_eq!(outward.len(), 1);
        assert_eq!(outward[0].dst(), "75.75.75.75".parse::<IpAddr>().unwrap());
        // Source untouched (no masquerade on a middlebox).
        assert_eq!(outward[0].src(), "73.1.2.3".parse::<IpAddr>().unwrap());

        // Resolver replies; reply flows back through the middlebox.
        let reply = IpPacket::udp_v4(
            Ipv4Addr::new(75, 75, 75, 75),
            Ipv4Addr::new(73, 1, 2, 3),
            53,
            4000,
            Bytes::from_static(b"resp"),
        );
        sim.inject(b, IfaceId(0), reply);
        sim.run_to_quiescence();
        let inward = &sim.device::<Sink>(a).unwrap().received;
        assert_eq!(inward.len(), 1);
        assert_eq!(inward[0].src(), "8.8.8.8".parse::<IpAddr>().unwrap());
    }

    #[test]
    fn middlebox_passes_unrelated_traffic() {
        let mut sim = Simulator::new(1);
        let a = sim.add_device(Sink::boxed("client"));
        let b = sim.add_device(Sink::boxed("net"));
        let mut mb = Router::new("middlebox");
        mb.add_addr("62.0.0.1".parse().unwrap());
        mb.routes.add("73.0.0.0/8".parse().unwrap(), IfaceId(0));
        mb.routes.add_default_v4(IfaceId(1));
        let mut nat = NatEngine::new();
        nat.add_dnat(DnatRule::redirect_dns("75.75.75.75".parse().unwrap()));
        mb.set_nat(nat, [IfaceId(0)]);
        let m = sim.add_device(Box::new(mb));
        sim.connect((a, IfaceId(0)), (m, IfaceId(0)), SimDuration::from_millis(1));
        sim.connect((b, IfaceId(0)), (m, IfaceId(1)), SimDuration::from_millis(1));

        // Non-DNS UDP from outside to the client passes through untouched.
        let stray = IpPacket::udp_v4(
            Ipv4Addr::new(8, 8, 8, 8),
            Ipv4Addr::new(73, 1, 2, 3),
            443,
            5000,
            Bytes::new(),
        );
        sim.inject(b, IfaceId(0), stray.clone());
        sim.run_to_quiescence();
        let inward = &sim.device::<Sink>(a).unwrap().received;
        assert_eq!(inward.len(), 1);
        assert_eq!(inward[0].src(), stray.src());
        assert_eq!(inward[0].dst(), stray.dst());
    }
}
