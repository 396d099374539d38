//! Network address translation: DNAT rules, SNAT masquerade, and a
//! connection-tracking table that reverse-maps replies.
//!
//! This is the mechanism behind the paper's case study (§5): the XB6's
//! RDK-B firmware installs an iptables DNAT rule that rewrites the
//! destination of every outbound UDP/53 packet to the router's own resolver
//! (XDNS). Conntrack then rewrites the *reply's source* back to the address
//! the client originally targeted — which is exactly why intercepted
//! responses "arrive with the source address spoofed to be that of the
//! target resolver" (§2) and the interception is transparent.

use crate::fxhash::FxHashMap;
use crate::packet::{IpPacket, Transport};
use std::net::IpAddr;

/// Transport protocol selector for NAT rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Proto {
    /// UDP.
    Udp,
    /// ICMP (tracked so errors can traverse the NAT, not rewritten).
    Icmp,
}

fn proto_of(pkt: &IpPacket) -> Proto {
    match pkt.transport {
        Transport::Udp(_) => Proto::Udp,
        Transport::Icmp(_) => Proto::Icmp,
    }
}

/// The 5-tuple used as a conntrack key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct FlowTuple {
    /// Protocol.
    pub proto: Proto,
    /// Source address.
    pub src: IpAddr,
    /// Source port (0 for ICMP).
    pub src_port: u16,
    /// Destination address.
    pub dst: IpAddr,
    /// Destination port (0 for ICMP).
    pub dst_port: u16,
}

impl FlowTuple {
    /// Extracts the tuple from a packet.
    pub fn of(pkt: &IpPacket) -> FlowTuple {
        let (sp, dp) = match &pkt.transport {
            Transport::Udp(u) => (u.src_port, u.dst_port),
            Transport::Icmp(_) => (0, 0),
        };
        FlowTuple {
            proto: proto_of(pkt),
            src: pkt.src(),
            src_port: sp,
            dst: pkt.dst(),
            dst_port: dp,
        }
    }

    /// The tuple a reply to this flow carries.
    pub fn reply(&self) -> FlowTuple {
        FlowTuple {
            proto: self.proto,
            src: self.dst,
            src_port: self.dst_port,
            dst: self.src,
            dst_port: self.src_port,
        }
    }
}

/// A destination-NAT rule: traffic matching (proto, dst port, and optionally
/// a destination *exclusion* set) is redirected to `to_addr`.
///
/// `exempt_dsts` models allowlists: XDNS-style firmware DNATs port-53 traffic
/// *except* traffic already addressed to the ISP resolver; a policy that
/// "allows" one public resolver (paper §4.1.1) exempts that resolver's
/// addresses.
#[derive(Debug, Clone)]
pub struct DnatRule {
    /// Protocol to match.
    pub proto: Proto,
    /// Destination port to match.
    pub dst_port: u16,
    /// Destinations that are *not* rewritten.
    pub exempt_dsts: Vec<IpAddr>,
    /// Destinations that *are* rewritten; empty means "all".
    pub match_dsts: Vec<IpAddr>,
    /// Rewrite target address (must be same family as matched traffic to
    /// apply; v4 rules silently skip v6 packets and vice versa).
    pub to_addr: IpAddr,
    /// Rewrite target port (`None` keeps the original port).
    pub to_port: Option<u16>,
}

impl DnatRule {
    /// The classic interceptor rule: redirect all UDP/53 to `to_addr`.
    pub fn redirect_dns(to_addr: IpAddr) -> DnatRule {
        DnatRule {
            proto: Proto::Udp,
            dst_port: 53,
            exempt_dsts: Vec::new(),
            match_dsts: Vec::new(),
            to_addr,
            to_port: None,
        }
    }

    fn matches(&self, pkt: &IpPacket) -> bool {
        if proto_of(pkt) != self.proto {
            return false;
        }
        if pkt.dst().is_ipv4() != self.to_addr.is_ipv4() {
            return false;
        }
        let Some(udp) = pkt.udp_payload() else { return false };
        if udp.dst_port != self.dst_port {
            return false;
        }
        if pkt.dst() == self.to_addr {
            // Already addressed to the target; nothing to rewrite.
            return false;
        }
        if self.exempt_dsts.contains(&pkt.dst()) {
            return false;
        }
        if !self.match_dsts.is_empty() && !self.match_dsts.contains(&pkt.dst()) {
            return false;
        }
        true
    }
}

/// Source-NAT (masquerade) configuration for one address family.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Masquerade {
    /// The public address outbound sources are rewritten to.
    pub public_addr: IpAddr,
}

/// Result of pushing a packet through [`NatEngine::outbound`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NatVerdict {
    /// Packet (possibly rewritten) should be forwarded.
    Forward(IpPacket),
    /// Packet was redirected to the NAT device itself (DNAT target == a
    /// local address); deliver locally.
    Local(IpPacket),
}

/// A stateful NAT engine combining optional DNAT rules and optional
/// masquerade, with conntrack for reply translation.
#[derive(Debug)]
pub struct NatEngine {
    dnat_rules: Vec<DnatRule>,
    /// IPv4 only: a v6 home's hosts hold global addresses, so nothing
    /// masquerades v6.
    masquerade_v4: Option<Masquerade>,
    /// Addresses considered local to the NAT device (DNAT to these delivers
    /// locally instead of forwarding).
    local_addrs: Vec<IpAddr>,
    /// Keyed by the tuple a *reply* arriving from outside will carry; the
    /// value is the flow as the inside host sent it. Entries never expire:
    /// a world lives for one probe's few dozen flows.
    conntrack: FxHashMap<FlowTuple, FlowTuple>,
    next_ephemeral: u16,
}

/// Flows the conntrack table holds before it first grows: the most that
/// 16 buckets take. A probe tracks one flow per query, 8 to 17 of them,
/// so its table regrows at most once; a larger one would cost every
/// world build its buckets up front.
const CONNTRACK_FLOWS: usize = 14;

impl NatEngine {
    /// An engine with no rules (transparent pass-through).
    pub fn new() -> NatEngine {
        NatEngine {
            dnat_rules: Vec::new(),
            masquerade_v4: None,
            local_addrs: Vec::new(),
            conntrack: FxHashMap::with_capacity_and_hasher(CONNTRACK_FLOWS, Default::default()),
            next_ephemeral: 49152,
        }
    }

    /// Adds a DNAT rule; rules are evaluated in insertion order, first match
    /// wins.
    pub fn add_dnat(&mut self, rule: DnatRule) -> &mut Self {
        self.dnat_rules.push(rule);
        self
    }

    /// Enables IPv4 masquerade behind `public_addr`.
    pub fn masquerade_v4(&mut self, public_addr: IpAddr) -> &mut Self {
        debug_assert!(public_addr.is_ipv4());
        self.masquerade_v4 = Some(Masquerade { public_addr });
        self
    }

    /// Declares an address local to the NAT device itself.
    pub fn add_local_addr(&mut self, addr: IpAddr) -> &mut Self {
        self.local_addrs.push(addr);
        self
    }

    /// Number of live conntrack entries.
    #[cfg(test)]
    pub(crate) fn conntrack_len(&self) -> usize {
        self.conntrack.len()
    }

    /// Processes a packet travelling from inside to outside.
    ///
    /// Applies DNAT first (destination rewrite), then masquerade (source
    /// rewrite), records the flow, and says whether the rewritten packet
    /// should be forwarded or delivered to the NAT device itself.
    pub fn outbound(&mut self, mut pkt: IpPacket) -> NatVerdict {
        let original = FlowTuple::of(&pkt);

        // DNAT phase.
        let mut dnat_applied = false;
        let rule_hit =
            self.dnat_rules.iter().find(|r| r.matches(&pkt)).map(|r| (r.to_addr, r.to_port));
        if let Some((to_addr, to_port)) = rule_hit {
            pkt.set_dst(to_addr);
            if let (Some(port), Some(udp)) = (to_port, pkt.udp_payload_mut()) {
                udp.dst_port = port;
            }
            dnat_applied = true;
        }

        // Masquerade phase (only meaningful when the packet leaves us).
        let masq = self.masquerade_v4.filter(|_| pkt.is_v4());
        let deliver_local = self.local_addrs.contains(&pkt.dst());
        let mut snat_applied = false;
        if let (Some(m), false) = (masq, deliver_local) {
            if pkt.src() != m.public_addr {
                pkt.set_src(m.public_addr);
                if let Some((want, dport)) = pkt.udp_payload().map(|u| (u.src_port, u.dst_port)) {
                    let allocated = self.allocate_port(want, &pkt, dport);
                    if let Some(udp) = pkt.udp_payload_mut() {
                        udp.src_port = allocated;
                    }
                }
                snat_applied = true;
            }
        }

        if dnat_applied || snat_applied {
            self.conntrack.insert(FlowTuple::of(&pkt).reply(), original);
        }

        if deliver_local {
            NatVerdict::Local(pkt)
        } else {
            NatVerdict::Forward(pkt)
        }
    }

    /// Processes a packet travelling from outside to inside, in place.
    ///
    /// If the packet matches a tracked flow's reply direction, both source
    /// and destination are restored to what the inside host expects: the
    /// destination becomes the inside host's private address, and — the
    /// paper's key observation — the *source* becomes the address the inside
    /// host originally queried, spoofing the target resolver.
    ///
    /// Returns whether a tracked flow matched; an unsolicited packet is
    /// left as it is (a default-deny firewall drops it).
    pub fn inbound(&self, pkt: &mut IpPacket) -> bool {
        let Some(&orig) = self.conntrack.get(&FlowTuple::of(pkt)) else { return false };
        pkt.set_src(orig.dst);
        pkt.set_dst(orig.src);
        if let Some(udp) = pkt.udp_payload_mut() {
            udp.src_port = orig.dst_port;
            udp.dst_port = orig.src_port;
        }
        true
    }

    /// Produces a reply packet for traffic the NAT device answered locally
    /// (DNAT-to-local case): given the *rewritten* request packet that was
    /// delivered locally and a reply payload, builds the reply and runs it
    /// through the same reverse translation so the inside host sees the
    /// spoofed source.
    pub fn local_reply(&self, request: &IpPacket, payload: bytes::Bytes) -> Option<IpPacket> {
        let udp = request.udp_payload()?;
        let mut reply =
            IpPacket::udp(request.dst(), request.src(), udp.dst_port, udp.src_port, payload)?;
        self.inbound(&mut reply).then_some(reply)
    }

    fn allocate_port(&mut self, want: u16, pkt: &IpPacket, dst_port: u16) -> u16 {
        // Keep the original port when the (reply-direction) tuple is free —
        // port-preserving NAT, the common router behaviour.
        let masq_src = pkt.src();
        let probe = |p: u16| FlowTuple {
            proto: proto_of(pkt),
            src: pkt.dst(),
            src_port: dst_port,
            dst: masq_src,
            dst_port: p,
        };
        if !self.conntrack.contains_key(&probe(want)) {
            return want;
        }
        for _ in 0..16384 {
            let candidate = self.next_ephemeral;
            self.next_ephemeral =
                if self.next_ephemeral == u16::MAX { 49152 } else { self.next_ephemeral + 1 };
            if !self.conntrack.contains_key(&probe(candidate)) {
                return candidate;
            }
        }
        want
    }
}

impl Default for NatEngine {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use std::net::Ipv4Addr;

    fn v4(s: &str) -> Ipv4Addr {
        s.parse().unwrap()
    }

    fn dns_query(src: &str, dst: &str, sport: u16) -> IpPacket {
        IpPacket::udp_v4(v4(src), v4(dst), sport, 53, Bytes::from_static(b"query"))
    }

    #[test]
    fn passthrough_without_rules() {
        let mut nat = NatEngine::new();
        let pkt = dns_query("192.168.1.100", "8.8.8.8", 4000);
        match nat.outbound(pkt.clone()) {
            NatVerdict::Forward(out) => assert_eq!(out, pkt),
            other => panic!("unexpected verdict {other:?}"),
        }
        assert_eq!(nat.conntrack_len(), 0);
    }

    #[test]
    fn masquerade_rewrites_source_and_restores_reply() {
        let mut nat = NatEngine::new();
        nat.masquerade_v4("73.22.1.5".parse().unwrap());
        let pkt = dns_query("192.168.1.100", "8.8.8.8", 4000);
        let out = match nat.outbound(pkt) {
            NatVerdict::Forward(p) => p,
            other => panic!("unexpected {other:?}"),
        };
        assert_eq!(out.src(), "73.22.1.5".parse::<IpAddr>().unwrap());
        assert_eq!(out.udp_payload().unwrap().src_port, 4000); // port-preserving

        // Reply from 8.8.8.8 back to the public address.
        let mut translated =
            IpPacket::udp_v4(v4("8.8.8.8"), v4("73.22.1.5"), 53, 4000, Bytes::from_static(b"resp"));
        assert!(nat.inbound(&mut translated));
        assert_eq!(translated.dst(), "192.168.1.100".parse::<IpAddr>().unwrap());
        assert_eq!(translated.src(), "8.8.8.8".parse::<IpAddr>().unwrap());
        assert_eq!(translated.udp_payload().unwrap().dst_port, 4000);
    }

    #[test]
    fn dnat_redirects_and_spoofs_reply_source() {
        // The XB6 mechanism: DNAT 8.8.8.8:53 -> 75.75.75.75 (ISP resolver),
        // client must see the reply come "from" 8.8.8.8.
        let mut nat = NatEngine::new();
        nat.add_dnat(DnatRule::redirect_dns("75.75.75.75".parse().unwrap()));
        nat.masquerade_v4("73.22.1.5".parse().unwrap());

        let pkt = dns_query("192.168.1.100", "8.8.8.8", 4000);
        let out = match nat.outbound(pkt) {
            NatVerdict::Forward(p) => p,
            other => panic!("unexpected {other:?}"),
        };
        assert_eq!(out.dst(), "75.75.75.75".parse::<IpAddr>().unwrap());
        assert_eq!(out.src(), "73.22.1.5".parse::<IpAddr>().unwrap());

        // The ISP resolver replies to the masqueraded source.
        let mut translated = IpPacket::udp_v4(
            v4("75.75.75.75"),
            v4("73.22.1.5"),
            53,
            out.udp_payload().unwrap().src_port,
            Bytes::from_static(b"resp"),
        );
        assert!(nat.inbound(&mut translated));
        // Spoofed: source restored to the *original* target.
        assert_eq!(translated.src(), "8.8.8.8".parse::<IpAddr>().unwrap());
        assert_eq!(translated.dst(), "192.168.1.100".parse::<IpAddr>().unwrap());
        assert_eq!(translated.udp_payload().unwrap().src_port, 53);
    }

    #[test]
    fn dnat_to_local_address_delivers_locally() {
        // Dnsmasq-style CPE: DNAT port 53 to the router's own LAN address.
        let mut nat = NatEngine::new();
        nat.add_dnat(DnatRule::redirect_dns("192.168.1.1".parse().unwrap()));
        nat.add_local_addr("192.168.1.1".parse().unwrap());

        let pkt = dns_query("192.168.1.100", "1.1.1.1", 4001);
        let delivered = match nat.outbound(pkt) {
            NatVerdict::Local(p) => p,
            other => panic!("unexpected {other:?}"),
        };
        assert_eq!(delivered.dst(), "192.168.1.1".parse::<IpAddr>().unwrap());

        // Local forwarder answers; reply must appear to come from 1.1.1.1.
        let reply = nat.local_reply(&delivered, Bytes::from_static(b"answer")).unwrap();
        assert_eq!(reply.src(), "1.1.1.1".parse::<IpAddr>().unwrap());
        assert_eq!(reply.dst(), "192.168.1.100".parse::<IpAddr>().unwrap());
        assert_eq!(reply.udp_payload().unwrap().dst_port, 4001);
        assert_eq!(reply.udp_payload().unwrap().src_port, 53);
    }

    #[test]
    fn dnat_exempt_destination_passes_untouched() {
        let mut nat = NatEngine::new();
        let mut rule = DnatRule::redirect_dns("75.75.75.75".parse().unwrap());
        rule.exempt_dsts.push("9.9.9.9".parse().unwrap());
        nat.add_dnat(rule);
        let pkt = dns_query("192.168.1.100", "9.9.9.9", 4000);
        match nat.outbound(pkt.clone()) {
            NatVerdict::Forward(out) => assert_eq!(out.dst(), pkt.dst()),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn dnat_match_list_restricts_targets() {
        let mut nat = NatEngine::new();
        let mut rule = DnatRule::redirect_dns("75.75.75.75".parse().unwrap());
        rule.match_dsts.push("8.8.8.8".parse().unwrap());
        nat.add_dnat(rule);
        // Matching destination is rewritten…
        let out = match nat.outbound(dns_query("192.168.1.2", "8.8.8.8", 1)) {
            NatVerdict::Forward(p) => p,
            other => panic!("unexpected {other:?}"),
        };
        assert_eq!(out.dst(), "75.75.75.75".parse::<IpAddr>().unwrap());
        // …a non-listed one is not.
        let out = match nat.outbound(dns_query("192.168.1.2", "1.1.1.1", 2)) {
            NatVerdict::Forward(p) => p,
            other => panic!("unexpected {other:?}"),
        };
        assert_eq!(out.dst(), "1.1.1.1".parse::<IpAddr>().unwrap());
    }

    #[test]
    fn traffic_already_at_target_is_not_tracked_as_dnat() {
        let mut nat = NatEngine::new();
        nat.add_dnat(DnatRule::redirect_dns("75.75.75.75".parse().unwrap()));
        let pkt = dns_query("192.168.1.100", "75.75.75.75", 4000);
        match nat.outbound(pkt.clone()) {
            NatVerdict::Forward(out) => assert_eq!(out, pkt),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(nat.conntrack_len(), 0);
    }

    #[test]
    fn unsolicited_inbound_is_dropped() {
        let mut nat = NatEngine::new();
        nat.masquerade_v4("73.22.1.5".parse().unwrap());
        let stray = IpPacket::udp_v4(v4("6.6.6.6"), v4("73.22.1.5"), 53, 9999, Bytes::new());
        let mut kept = stray.clone();
        assert!(!nat.inbound(&mut kept));
        assert_eq!(kept, stray, "an untracked packet is left as it is");
    }

    #[test]
    fn non_dns_ports_not_redirected() {
        let mut nat = NatEngine::new();
        nat.add_dnat(DnatRule::redirect_dns("75.75.75.75".parse().unwrap()));
        let pkt = IpPacket::udp_v4(v4("192.168.1.2"), v4("8.8.8.8"), 4000, 443, Bytes::new());
        match nat.outbound(pkt.clone()) {
            NatVerdict::Forward(out) => assert_eq!(out.dst(), pkt.dst()),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn v4_rule_skips_v6_packets() {
        let mut nat = NatEngine::new();
        nat.add_dnat(DnatRule::redirect_dns("75.75.75.75".parse().unwrap()));
        let pkt = IpPacket::udp(
            "2001:559::100".parse().unwrap(),
            "2001:4860:4860::8888".parse().unwrap(),
            4000,
            53,
            Bytes::new(),
        )
        .unwrap();
        match nat.outbound(pkt.clone()) {
            NatVerdict::Forward(out) => assert_eq!(out.dst(), pkt.dst()),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn port_collision_allocates_new_port() {
        let mut nat = NatEngine::new();
        nat.masquerade_v4("73.22.1.5".parse().unwrap());
        // Two inside hosts pick the same source port toward the same server.
        let a = match nat.outbound(dns_query("192.168.1.100", "8.8.8.8", 4000)) {
            NatVerdict::Forward(p) => p,
            _ => unreachable!(),
        };
        let b = match nat.outbound(dns_query("192.168.1.101", "8.8.8.8", 4000)) {
            NatVerdict::Forward(p) => p,
            _ => unreachable!(),
        };
        let pa = a.udp_payload().unwrap().src_port;
        let pb = b.udp_payload().unwrap().src_port;
        assert_eq!(pa, 4000);
        assert_ne!(pa, pb);
        // Replies to each port reach the right inside host.
        let mut ra = IpPacket::udp_v4(v4("8.8.8.8"), v4("73.22.1.5"), 53, pa, Bytes::new());
        let mut rb = IpPacket::udp_v4(v4("8.8.8.8"), v4("73.22.1.5"), 53, pb, Bytes::new());
        assert!(nat.inbound(&mut ra) && nat.inbound(&mut rb));
        assert_eq!(ra.dst(), "192.168.1.100".parse::<IpAddr>().unwrap());
        assert_eq!(rb.dst(), "192.168.1.101".parse::<IpAddr>().unwrap());
    }
}
