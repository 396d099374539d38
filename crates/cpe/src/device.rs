//! The CPE device: a home router with masquerading NAT, optional DNAT-based
//! DNS interception, and an embedded forwarder.
//!
//! This is the mechanism of the paper's §5 case study, implemented for
//! real: an RDK-B/XDNS-style firewall rule rewrites outbound UDP/53 to the
//! router's own forwarder, the forwarder relays to the ISP resolver, and
//! conntrack restores the original destination as the reply's source — so
//! the client sees an answer "from" 8.8.8.8 that Google never sent.

use crate::config::{CpeConfig, DnsMode, ForwarderSpec, InterceptSpec, WanMode};
use bytes::Bytes;
use dns_wire::{Header, Message, MessageView, RClass, Rcode};
use netsim::{
    CaptureKind, Ctx, Device, DnatRule, IfaceId, IpPacket, NatEngine, NatVerdict, Proto,
};
use resolver_sim::{
    encode_payload, handle_server_id, local_reply_payload, reply_payload, send_local_reply,
    send_reply, ForwarderCore, FwdAction, LocalReply, ResolveCtx, ZoneDb,
};
use std::any::Any;
use std::net::IpAddr;
use std::sync::Arc;

/// The CPE's LAN-side interface.
pub const LAN: IfaceId = IfaceId(0);
/// The CPE's WAN-side interface.
pub const WAN: IfaceId = IfaceId(1);

/// Source port the embedded forwarder uses toward its upstream.
const FWD_SPORT: u16 = 53535;

/// How a forwarder answer travels back to the client.
#[derive(Debug, Clone)]
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
    /// DNS queries answered on the CPE's own addresses.
    pub self_queries: u64,
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
            let mut fc = ForwarderCore::new(spec.profile.clone(), spec.upstream_v4);
            fc.blocklist = spec.blocklist.clone();
            fc
        });
        CpeDevice {
            config,
            nat,
            forwarder,
            zonedb: None,
            intercepted_queries: 0,
            self_queries: 0,
            transparent_relays: 0,
        }
    }

    /// Boxed convenience constructor.
    pub fn boxed(config: CpeConfig) -> Box<CpeDevice> {
        Box::new(CpeDevice::new(config))
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

    /// The forwarder's ground-truth version string, if it reveals one.
    pub fn forwarder_version(&self) -> Option<&str> {
        self.config.dns.forwarder().and_then(|f| f.profile.version_string())
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

    fn is_self_addr(&self, dst: IpAddr) -> bool {
        self.config.owns_addr(dst)
    }

    fn handle_forwarder_query(&mut self, ctx: &mut Ctx<'_>, request: IpPacket, path: ReplyPath) {
        let Some(udp) = request.udp_payload() else { return };
        let Ok(query) = MessageView::parse(&udp.payload) else { return };
        let upstream_v6 = self.spec().and_then(|s| s.upstream_v6);
        let upstream_v4 = self.spec().map(|s| s.upstream_v4);
        // `ForwarderCore` keeps the path only for forwarded queries, so the
        // reply direction of a synchronous answer must be decided here.
        let wan_side = matches!(path, ReplyPath::WanDirect(_));
        let Some(fc) = &mut self.forwarder else { return };
        match fc.handle_query(&query, path) {
            FwdAction::Respond(reply) => {
                let Some(payload) = local_reply_payload(ctx, &query, reply) else { return };
                if wan_side {
                    send_reply(ctx, WAN, &request, payload);
                } else {
                    self.send_reply_for(ctx, &request, payload);
                }
            }
            FwdAction::Forward(relayed) => {
                let Some(payload) = encode_payload(ctx, &relayed) else { return };
                // Choose upstream by the family the CPE can speak.
                let (src, dst) = match (request.is_v4(), upstream_v6, self.config.wan_v6) {
                    (false, Some(up6), Some(wan6)) => (IpAddr::V6(wan6), up6),
                    _ => {
                        let Some(up) = upstream_v4 else { return };
                        (IpAddr::V4(self.config.wan_v4), up)
                    }
                };
                if let Some(pkt) = IpPacket::udp(src, dst, FWD_SPORT, 53, payload) {
                    ctx.send(WAN, pkt);
                }
            }
            FwdAction::Drop => {}
        }
    }

    /// Replies to a request the forwarder answered synchronously. For a
    /// DNAT-intercepted request conntrack restores the spoofed source; a
    /// direct (self-addressed) request is answered from the address queried.
    fn send_reply_for(&mut self, ctx: &mut Ctx<'_>, request: &IpPacket, payload: Bytes) {
        let reply = self
            .nat
            .local_reply(request, payload.clone(), ctx.now())
            .or_else(|| resolver_sim::reply_packet(request, payload));
        if let Some(reply) = reply {
            if ctx.capture_enabled() {
                // The flight recorder's smoking gun: this response never
                // came from the address it claims — the CPE minted it.
                ctx.capture(Some(LAN), CaptureKind::LocalMint { packet: reply.clone() });
            }
            ctx.send(LAN, reply);
        }
    }

    fn handle_upstream_response(&mut self, ctx: &mut Ctx<'_>, packet: &IpPacket) {
        let Some(udp) = packet.udp_payload() else { return };
        let Ok(response) = Message::parse(&udp.payload) else { return };
        let Some(fc) = &mut self.forwarder else { return };
        let Some((path, restored)) = fc.handle_upstream_response(response) else { return };
        let Some(payload) = encode_payload(ctx, &restored) else { return };
        match path {
            ReplyPath::Direct(request) => {
                if let Some(reply) = resolver_sim::reply_packet(&request, payload) {
                    if ctx.capture_enabled() {
                        ctx.capture(Some(LAN), CaptureKind::LocalMint { packet: reply.clone() });
                    }
                    ctx.send(LAN, reply);
                }
            }
            ReplyPath::NatSpoof(delivered) => {
                if let Some(reply) = self.nat.local_reply(&delivered, payload, ctx.now()) {
                    if ctx.capture_enabled() {
                        // Conntrack restored the spoofed source: the client
                        // will see an answer "from" the resolver it asked.
                        ctx.capture(Some(LAN), CaptureKind::LocalMint { packet: reply.clone() });
                    }
                    ctx.send(LAN, reply);
                }
            }
            ReplyPath::WanDirect(request) => {
                // The open forwarder answers the outside client itself,
                // from the address that was queried — no spoofing involved.
                if let Some(reply) = resolver_sim::reply_packet(&request, payload) {
                    ctx.send(WAN, reply);
                }
            }
        }
    }

    /// [`WanMode::Transparent`]: relay the scanner's packet upstream with
    /// the *original source preserved* — no NAT state, no pending entry.
    /// The upstream resolver answers the (possibly spoofed) client
    /// directly, which is exactly the response-source mismatch the paper's
    /// scanner taxonomy keys on.
    fn relay_transparently(&mut self, ctx: &mut Ctx<'_>, packet: IpPacket) {
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
        let Some(udp) = packet.udp_payload() else { return };
        let Ok(query) = MessageView::parse(&udp.payload) else { return };
        if query.header().qr {
            return;
        }
        let Some(spec) = self.spec() else { return };
        let Some(q) = query.question() else { return };
        if let Some(reply) = handle_server_id(&q, &spec.profile) {
            // A silent profile sends nothing on identity queries.
            send_local_reply(ctx, WAN, packet, &query, reply);
            return;
        }
        if q.qclass != RClass::In {
            send_local_reply(ctx, WAN, packet, &query, Some(LocalReply::Status(Rcode::NotImp)));
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
        match self.nat.outbound(packet, ctx.now()) {
            NatVerdict::Local(delivered) => {
                ctx.capture_nat_rewrite(LAN, before, &delivered, false);
                let dnat_applied = delivered.dst() != orig_dst;
                let is_dns =
                    delivered.udp_payload().map(|u| u.dst_port == 53).unwrap_or(false);
                if !is_dns {
                    // Non-DNS traffic to our own addresses: nothing listens.
                    return;
                }
                if dnat_applied {
                    // The DNAT rule captured this query for our forwarder.
                    self.intercepted_queries += 1;
                    let path = ReplyPath::NatSpoof(delivered.clone());
                    self.handle_forwarder_query(ctx, delivered, path);
                } else if self.serves_addr(orig_dst) {
                    // Addressed to us directly and the forwarder listens
                    // there (LAN always; WAN only with port 53 open).
                    self.self_queries += 1;
                    let path = ReplyPath::Direct(delivered.clone());
                    self.handle_forwarder_query(ctx, delivered, path);
                }
                // Otherwise: port 53 closed — silence; the client times
                // out, exactly what the technique expects from a clean CPE.
            }
            NatVerdict::Forward(mut pkt) => {
                ctx.capture_nat_rewrite(LAN, before, &pkt, false);
                if pkt.decrement_ttl() {
                    ctx.send(WAN, pkt);
                }
            }
        }
    }

    fn receive_wan(&mut self, ctx: &mut Ctx<'_>, packet: IpPacket) {
        // Conntrack first: masqueraded replies are addressed to the WAN IP
        // but belong to an inside host (netfilter PREROUTING order).
        if packet.is_v4() {
            let before = ctx.capture_enabled().then(|| packet.flow_summary());
            if let Some(mut translated) = self.nat.inbound(packet.clone(), ctx.now()) {
                ctx.capture_nat_rewrite(WAN, before, &translated, true);
                if translated.decrement_ttl() {
                    ctx.send(LAN, translated);
                }
                return;
            }
        }

        // Upstream responses to the embedded forwarder.
        let to_me = self.is_self_addr(packet.dst());
        if to_me {
            let is_fwd_response = packet
                .udp_payload()
                .map(|u| u.dst_port == FWD_SPORT)
                .unwrap_or(false);
            if is_fwd_response {
                self.handle_upstream_response(ctx, &packet);
                return;
            }
            // DNS queries arriving from the WAN side at our public address
            // (an outside scanner): served only with listen_wan. What
            // happens next is the open-DNS taxonomy axis.
            let is_dns = packet.udp_payload().map(|u| u.dst_port == 53).unwrap_or(false);
            if is_dns && self.serves_addr(packet.dst()) {
                self.self_queries += 1;
                match self.wan_mode() {
                    WanMode::LocalOnly => {
                        // Synchronous answers only (CHAOS identity and
                        // friends); recursive names are never relayed for
                        // outside clients, so they go unanswered.
                        let path = ReplyPath::Direct(packet.clone());
                        let Some(udp) = packet.udp_payload() else { return };
                        let Ok(query) = MessageView::parse(&udp.payload) else { return };
                        let Some(fc) = &mut self.forwarder else { return };
                        if let FwdAction::Respond(reply) = fc.handle_query(&query, path) {
                            send_local_reply(ctx, WAN, &packet, &query, Some(reply));
                        }
                    }
                    WanMode::OpenRelay => {
                        let path = ReplyPath::WanDirect(packet.clone());
                        self.handle_forwarder_query(ctx, packet, path);
                    }
                    WanMode::Transparent => self.relay_transparently(ctx, packet),
                    WanMode::Recurse => self.answer_recursively_wan(ctx, &packet),
                }
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
            if prefix.contains(packet.dst()) {
                let mut pkt = packet;
                if pkt.decrement_ttl() {
                    ctx.send(LAN, pkt);
                }
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

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}
