//! The CPE device: a home router with masquerading NAT, optional DNAT-based
//! DNS interception, and an embedded forwarder.
//!
//! This is the mechanism of the paper's §5 case study, implemented for
//! real: an RDK-B/XDNS-style firewall rule rewrites outbound UDP/53 to the
//! router's own forwarder, the forwarder relays the client's datagram to
//! the ISP resolver with only its transaction ID rewritten, and conntrack
//! restores the original destination as the reply's source — so the client
//! sees an answer "from" 8.8.8.8 that Google never sent.
//!
//! Every query the CPE serves comes in through the resolver models' front
//! door ([`resolver_sim::receive_query`]) and is answered locally by their
//! one rule ([`resolver_sim::local_answer`]) or relayed; a relayed query
//! and its answer stay the bytes that arrived, copied with a new ID.

use crate::config::{CpeConfig, DnsMode, ForwarderSpec, InterceptSpec, WanMode};
use bytes::Bytes;
use dns_wire::Header;
use netsim::{
    CaptureKind, Cidr, Ctx, Device, DnatRule, IfaceId, IpPacket, NatEngine, NatVerdict, Proto,
};
use resolver_sim::{
    local_answer, local_reply_payload, receive_answer, receive_query, relay_payload, reply_packet,
    reply_payload, send_local_reply, send_reply, ForwarderCore, FwdAction, ResolveCtx, ZoneDb,
};
use std::net::IpAddr;
use std::sync::Arc;

/// The CPE's LAN-side interface.
pub const LAN: IfaceId = IfaceId(0);
/// The CPE's WAN-side interface.
pub const WAN: IfaceId = IfaceId(1);

/// Source port the embedded forwarder uses toward its upstream.
const FWD_SPORT: u16 = 53535;

/// How a forwarder answer travels back to the client.
#[derive(Debug)]
enum ReplyPath {
    /// The client addressed the CPE itself; reply directly.
    Direct(IpPacket),
    /// The query was DNAT-intercepted; reply through conntrack so the
    /// source is spoofed back to the original destination.
    NatSpoof(IpPacket),
    /// The query came from the WAN side (an outside scanner) to our open
    /// forwarder; reply out the WAN interface from the queried address.
    WanDirect(IpPacket),
}

/// The home router.
pub struct CpeDevice {
    config: CpeConfig,
    nat: NatEngine,
    forwarder: Option<ForwarderCore<ReplyPath>>,
    /// Zone data an open-recursive CPE resolves against ([`WanMode::Recurse`]).
    zonedb: Option<Arc<ZoneDb>>,
    /// DNS queries the DNAT rule captured.
    pub intercepted_queries: u64,
    /// WAN-side queries relayed upstream with the client source preserved
    /// ([`WanMode::Transparent`]).
    pub transparent_relays: u64,
}

impl CpeDevice {
    /// Builds the device from configuration.
    pub fn new(config: CpeConfig) -> CpeDevice {
        let mut nat = NatEngine::new();
        nat.masquerade_v4(IpAddr::V4(config.wan_v4));
        nat.add_local_addr(IpAddr::V4(config.lan_v4));
        nat.add_local_addr(IpAddr::V4(config.wan_v4));
        if let Some(lan_v6) = config.lan_v6 {
            nat.add_local_addr(IpAddr::V6(lan_v6));
        }
        if let Some(wan_v6) = config.wan_v6 {
            nat.add_local_addr(IpAddr::V6(wan_v6));
        }
        if let DnsMode::Interceptor(_, intercept) = &config.dns {
            nat.add_dnat(dnat_rule_v4(&config, intercept));
            if intercept.intercept_v6 {
                if let Some(lan_v6) = config.lan_v6 {
                    let mut rule = DnatRule::redirect_dns(IpAddr::V6(lan_v6));
                    rule.exempt_dsts = intercept.exempt_dsts.clone();
                    rule.match_dsts =
                        intercept.match_dsts.iter().filter(|a| !a.is_ipv4()).copied().collect();
                    nat.add_dnat(rule);
                }
            }
        }
        let forwarder = config.dns.forwarder().map(|spec| {
            let mut fc = ForwarderCore::new(spec.profile.clone());
            fc.blocklist = spec.blocklist.clone();
            fc
        });
        CpeDevice {
            config,
            nat,
            forwarder,
            zonedb: None,
            intercepted_queries: 0,
            transparent_relays: 0,
        }
    }

    /// Attaches the authoritative world an open-recursive CPE resolves
    /// against. Required for [`WanMode::Recurse`]; ignored otherwise.
    pub fn with_zonedb(mut self, zonedb: Arc<ZoneDb>) -> CpeDevice {
        self.zonedb = Some(zonedb);
        self
    }

    fn wan_mode(&self) -> WanMode {
        self.spec().map(|s| s.wan_mode).unwrap_or_default()
    }

    /// The device configuration.
    pub fn config(&self) -> &CpeConfig {
        &self.config
    }

    fn spec(&self) -> Option<&ForwarderSpec> {
        self.config.dns.forwarder()
    }

    /// True when a DNS query addressed to `dst` (one of our own addresses)
    /// should reach the forwarder.
    fn serves_addr(&self, dst: IpAddr) -> bool {
        let Some(spec) = self.spec() else { return false };
        let is_wan = dst == IpAddr::V4(self.config.wan_v4)
            || self.config.wan_v6.map(IpAddr::V6) == Some(dst);
        if is_wan {
            spec.listen_wan
        } else {
            true // LAN addresses are always served when a forwarder exists
        }
    }

    /// Takes `request` through the front door to the forwarder, which
    /// answers it locally or relays it; `path` is how the answer goes back.
    fn handle_forwarder_query(
        &mut self,
        ctx: &mut Ctx<'_>,
        request: IpPacket,
        path: fn(IpPacket) -> ReplyPath,
    ) {
        let Some(query) = receive_query(&request, |dst| self.serves_addr(dst)) else { return };
        let Some(spec) = self.config.dns.forwarder() else { return };
        // Choose upstream by the family the CPE can speak.
        let (src, dst) = match (request.is_v4(), spec.upstream_v6, self.config.wan_v6) {
            (false, Some(up6), Some(wan6)) => (IpAddr::V6(wan6), up6),
            _ => (IpAddr::V4(self.config.wan_v4), spec.upstream_v4),
        };
        let Some(fc) = &mut self.forwarder else { return };
        match fc.handle_query(&query) {
            FwdAction::Respond(reply) => {
                let Some(payload) = local_reply_payload(ctx, &query, reply) else { return };
                self.send_answer(ctx, &path(request), payload);
            }
            FwdAction::Forward => {
                let txid = fc.relay(query.header().id, path(request.clone()));
                let payload = relay_payload(ctx, query.as_bytes(), txid);
                if let Some(pkt) = IpPacket::udp(src, dst, FWD_SPORT, 53, payload) {
                    ctx.send(WAN, pkt);
                }
            }
            FwdAction::Drop => {}
        }
    }

    /// Relays an upstream answer to the client whose query it answers, as
    /// the bytes that arrived with the client's transaction ID restored.
    fn handle_upstream_response(&mut self, ctx: &mut Ctx<'_>, packet: &IpPacket) {
        let Some(answer) = receive_answer(packet) else { return };
        let Some(fc) = &mut self.forwarder else { return };
        let Some((client_txid, path)) = fc.handle_upstream_response(answer.header().id) else {
            return;
        };
        let payload = relay_payload(ctx, answer.as_bytes(), client_txid);
        self.send_answer(ctx, &path, payload);
    }

    /// Sends the forwarder's answer `payload` back along `path`.
    fn send_answer(&self, ctx: &mut Ctx<'_>, path: &ReplyPath, payload: Bytes) {
        let (iface, reply) = match path {
            // The open forwarder answers the outside client itself, from
            // the address that was queried — no spoofing involved.
            ReplyPath::WanDirect(request) => (WAN, reply_packet(request, payload)),
            ReplyPath::Direct(request) => (LAN, reply_packet(request, payload)),
            // Conntrack restores the spoofed source: the client will see an
            // answer "from" the resolver it asked.
            ReplyPath::NatSpoof(delivered) => (LAN, self.nat.local_reply(delivered, payload)),
        };
        let Some(reply) = reply else { return };
        if iface == LAN && ctx.capture_enabled() {
            // The flight recorder's smoking gun: the CPE minted this
            // response, whatever address it claims to come from.
            ctx.capture(Some(LAN), CaptureKind::LocalMint { packet: reply.clone() });
        }
        ctx.send(iface, reply);
    }

    /// [`WanMode::Transparent`]: relay the scanner's packet upstream with
    /// the *original source preserved* — no NAT state, no pending entry.
    /// The upstream resolver answers the (possibly spoofed) client
    /// directly, which is exactly the response-source mismatch the paper's
    /// scanner taxonomy keys on.
    fn relay_transparently(&mut self, ctx: &mut Ctx<'_>, packet: IpPacket) {
        let is_dns = packet.udp_payload().is_some_and(|udp| udp.dst_port == 53);
        if !is_dns || !self.serves_addr(packet.dst()) {
            return;
        }
        let Some(spec) = self.spec() else { return };
        let upstream = spec.upstream_v4;
        let mut relayed = packet;
        if !relayed.set_dst(upstream) {
            return;
        }
        if relayed.decrement_ttl() {
            self.transparent_relays += 1;
            ctx.send(WAN, relayed);
        }
    }

    /// [`WanMode::Recurse`]: resolve the query locally against the
    /// attached zone database and answer from the queried address. The
    /// egress handed to reflector zones is the CPE's own WAN address, so a
    /// whoami probe reveals the CPE itself — the open-recursive signature.
    fn answer_recursively_wan(&mut self, ctx: &mut Ctx<'_>, packet: &IpPacket) {
        let Some(query) = receive_query(packet, |dst| self.serves_addr(dst)) else { return };
        let Some(spec) = self.spec() else { return };
        let Some(q) = query.question() else { return };
        if let Some(reply) = local_answer(&q, &spec.profile) {
            // A silent profile sends nothing on identity queries.
            send_local_reply(ctx, WAN, packet, &query, reply);
            return;
        }
        let Some(db) = &self.zonedb else { return };
        let result = db.resolve(&q.to_question(), &ResolveCtx::v4(self.config.wan_v4));
        let header = Header::response_to(query.header(), result.rcode);
        let payload = reply_payload(ctx, &query, &header, |w| {
            result.answers.iter().try_for_each(|r| w.answer(r))
        });
        if let Some(payload) = payload {
            send_reply(ctx, WAN, packet, payload);
        }
    }

    fn receive_lan(&mut self, ctx: &mut Ctx<'_>, packet: IpPacket) {
        // Everything goes through the NAT pipeline first, like netfilter
        // PREROUTING: the interceptor's DNAT rule captures even queries
        // addressed to the CPE's own public IP — the property that makes
        // the paper's step 2 produce identical version.bind strings.
        let orig_dst = packet.dst();
        let before = ctx.capture_enabled().then(|| packet.flow_summary());
        match self.nat.outbound(packet) {
            NatVerdict::Local(delivered) => {
                ctx.capture_nat_rewrite(LAN, before, &delivered, false);
                if delivered.dst() != orig_dst {
                    // The DNAT rule (UDP/53 only) captured this query for
                    // our forwarder.
                    self.intercepted_queries += 1;
                    self.handle_forwarder_query(ctx, delivered, ReplyPath::NatSpoof);
                } else {
                    // Addressed to us directly: the forwarder answers where
                    // it listens (LAN always; WAN only with port 53 open).
                    // Anything else meets silence, and the client times
                    // out, exactly what the technique expects from a clean
                    // CPE.
                    self.handle_forwarder_query(ctx, delivered, ReplyPath::Direct);
                }
            }
            NatVerdict::Forward(mut pkt) => {
                ctx.capture_nat_rewrite(LAN, before, &pkt, false);
                if pkt.decrement_ttl() {
                    ctx.send(WAN, pkt);
                }
            }
        }
    }

    fn receive_wan(&mut self, ctx: &mut Ctx<'_>, mut packet: IpPacket) {
        // Conntrack first: masqueraded replies are addressed to the WAN IP
        // but belong to an inside host (netfilter PREROUTING order).
        if packet.is_v4() {
            let before = ctx.capture_enabled().then(|| packet.flow_summary());
            if self.nat.inbound(&mut packet) {
                ctx.capture_nat_rewrite(WAN, before, &packet, true);
                if packet.decrement_ttl() {
                    ctx.send(LAN, packet);
                }
                return;
            }
        }

        if self.config.owns_addr(packet.dst()) {
            // Upstream responses to the embedded forwarder.
            if packet.udp_payload().is_some_and(|udp| udp.dst_port == FWD_SPORT) {
                self.handle_upstream_response(ctx, &packet);
                return;
            }
            // DNS queries arriving from the WAN side at our public address
            // (an outside scanner): served only with listen_wan. What
            // happens next is the open-DNS taxonomy axis.
            match self.wan_mode() {
                WanMode::LocalOnly => {
                    // Synchronous answers only (CHAOS identity and
                    // friends); recursive names are never relayed for
                    // outside clients, so they go unanswered and leave
                    // no pending relay behind.
                    let Some(query) = receive_query(&packet, |dst| self.serves_addr(dst)) else {
                        return;
                    };
                    let Some(fc) = &mut self.forwarder else { return };
                    if let FwdAction::Respond(reply) = fc.handle_query(&query) {
                        send_local_reply(ctx, WAN, &packet, &query, Some(reply));
                    }
                }
                WanMode::OpenRelay => {
                    self.handle_forwarder_query(ctx, packet, ReplyPath::WanDirect)
                }
                WanMode::Transparent => self.relay_transparently(ctx, packet),
                WanMode::Recurse => self.answer_recursively_wan(ctx, &packet),
            }
            return;
        }

        // Unsolicited v4 toward the inside: dropped (stateful firewall).
        if packet.is_v4() {
            return;
        }

        // IPv6 is routed, not NATed: deliver anything inside the delegated
        // prefix.
        if let Some(prefix) = self.config.lan_prefix_v6 {
            if prefix.contains(packet.dst()) && packet.decrement_ttl() {
                ctx.send(LAN, packet);
            }
        }
    }
}

fn dnat_rule_v4(config: &CpeConfig, intercept: &InterceptSpec) -> DnatRule {
    DnatRule {
        proto: Proto::Udp,
        dst_port: 53,
        exempt_dsts: intercept.exempt_dsts.clone(),
        match_dsts: intercept.match_dsts.iter().filter(|a| a.is_ipv4()).copied().collect(),
        to_addr: IpAddr::V4(config.lan_v4),
        to_port: None,
    }
}

impl Device for CpeDevice {
    fn receive(&mut self, ctx: &mut Ctx<'_>, iface: IfaceId, packet: IpPacket) {
        match iface {
            LAN => self.receive_lan(ctx, packet),
            WAN => self.receive_wan(ctx, packet),
            _ => {}
        }
    }

    fn name(&self) -> &str {
        &self.config.name
    }

    /// The WAN addresses and the delegated /64: what the ISP routes here.
    fn prefixes(&self, report: &mut dyn FnMut(Cidr)) {
        let config = &self.config;
        let wan_v6 = config.wan_v6.map(|wan| Cidr::host(IpAddr::V6(wan)));
        [Some(Cidr::host(IpAddr::V4(config.wan_v4))), wan_v6, config.lan_prefix_v6]
            .into_iter()
            .flatten()
            .for_each(report);
    }
}
