//! Anycast sites of the four public resolvers, with the location-query
//! semantics of paper Table 1.

use crate::server::{local_reply_payload, reply_payload, send_reply, LocalReply};
use crate::zone::{ResolveCtx, ZoneDb};
use bytes::Bytes;
use dns_wire::debug_queries::{self, ServerIdKind};
use dns_wire::{Header, MessageView, Name, Question, RClass, RData, RType, Rcode};
use netsim::{Ctx, Device, IfaceId, IpPacket, SharedStr};
use std::any::Any;
use std::net::IpAddr;
use std::sync::Arc;

/// Which public resolver a site belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PublicBrand {
    /// Cloudflare DNS.
    Cloudflare,
    /// Google Public DNS.
    Google,
    /// Quad9.
    Quad9,
    /// Cisco OpenDNS.
    OpenDns,
}

impl PublicBrand {
    /// All four, in the paper's table order.
    pub const ALL: [PublicBrand; 4] =
        [PublicBrand::Cloudflare, PublicBrand::Google, PublicBrand::Quad9, PublicBrand::OpenDns];
}

/// What one anycast site of one public resolver is, apart from the world
/// it answers in: its name, service addresses, site code, egress, and the
/// TXT answers it serves (the identity, Quad9's version, and the OpenDNS
/// debug strings, server then flags).
///
/// Built once, a profile is shared by every world with a site there, so a
/// site device costs a world build only its box.
#[derive(Debug)]
pub struct SiteProfile {
    name: SharedStr,
    brand: PublicBrand,
    service_addrs: Arc<[IpAddr]>,
    egress: ResolveCtx,
    identity_txt: Option<RData>,
    version_txt: Option<RData>,
    debug_txt: Option<[RData; 2]>,
}

impl SiteProfile {
    /// The profile of `brand`'s site at `iata` (an IATA code such as
    /// "IAD"), answering on `service_addrs` and querying authoritative
    /// servers from `egress`. `node_index` numbers the answering node in
    /// Quad9's and OpenDNS's identity strings.
    pub fn new(
        brand: PublicBrand,
        service_addrs: impl IntoIterator<Item = IpAddr>,
        iata: &str,
        node_index: u32,
        egress: ResolveCtx,
    ) -> SiteProfile {
        let site = iata.to_ascii_lowercase();
        let identity = match brand {
            PublicBrand::Cloudflare => Some(iata.to_ascii_uppercase()),
            PublicBrand::Quad9 => Some(format!("res{node_index}.{site}.rrdns.pch.net")),
            // Google and OpenDNS do not implement id.server.
            PublicBrand::Google | PublicBrand::OpenDns => None,
        };
        SiteProfile {
            name: format!("{brand:?}-{iata}").into(),
            brand,
            service_addrs: service_addrs.into_iter().collect(),
            egress,
            identity_txt: identity.map(RData::txt),
            // Only Quad9 answers version.bind (§3.2).
            version_txt: (brand == PublicBrand::Quad9)
                .then(|| RData::txt(format!("Q9-P-6.1-{site}"))),
            // OpenDNS synthesizes debug.opendns.com at the resolver itself.
            debug_txt: (brand == PublicBrand::OpenDns).then(|| {
                [RData::txt(format!("server m{node_index}.{site}")), RData::txt("flags: 20 0 2F8 0")]
            }),
        }
    }
}

/// One anycast site (point of presence) of one public resolver.
///
/// Which site a client reaches is decided by the scenario's routing — in
/// the real world by BGP anycast, here by which site device the topology
/// wires toward the client's region.
pub struct PublicResolverSite {
    profile: Arc<SiteProfile>,
    zonedb: Arc<ZoneDb>,
    /// Whether this resolver validates DNSSEC (AD bit on signed answers).
    pub dnssec_validating: bool,
    /// Total queries handled.
    pub queries_handled: u64,
}

impl PublicResolverSite {
    /// Creates a site with a profile of its own (see [`SiteProfile::new`]).
    pub fn new(
        brand: PublicBrand,
        service_addrs: impl IntoIterator<Item = IpAddr>,
        iata: &str,
        node_index: u32,
        egress: ResolveCtx,
        zonedb: Arc<ZoneDb>,
    ) -> PublicResolverSite {
        let profile = SiteProfile::new(brand, service_addrs, iata, node_index, egress);
        PublicResolverSite::with_profile(Arc::new(profile), zonedb)
    }

    /// Boxed convenience constructor.
    pub fn boxed(
        brand: PublicBrand,
        service_addrs: impl IntoIterator<Item = IpAddr>,
        iata: &str,
        node_index: u32,
        egress: ResolveCtx,
        zonedb: Arc<ZoneDb>,
    ) -> Box<PublicResolverSite> {
        Box::new(Self::new(brand, service_addrs, iata, node_index, egress, zonedb))
    }

    /// Creates a site from a shared profile; it allocates nothing.
    pub fn with_profile(profile: Arc<SiteProfile>, zonedb: Arc<ZoneDb>) -> PublicResolverSite {
        PublicResolverSite {
            // Cloudflare, Google, and Quad9 validate; classic OpenDNS does
            // not.
            dnssec_validating: profile.brand != PublicBrand::OpenDns,
            profile,
            zonedb,
            queries_handled: 0,
        }
    }

    /// The brand of this site.
    pub fn brand(&self) -> PublicBrand {
        self.profile.brand
    }

    fn answer_chaos(
        &self,
        ctx: &mut Ctx<'_>,
        query: &MessageView<'_>,
        kind: ServerIdKind,
    ) -> Option<Bytes> {
        let text = match kind {
            ServerIdKind::Version => self.profile.version_txt.as_ref(),
            ServerIdKind::Identity => self.profile.identity_txt.as_ref(),
        };
        match text {
            Some(rdata) => {
                let header = Header::response_to(query.header(), Rcode::NoError);
                reply_payload(ctx, query, &header, |w| w.answer_question(RClass::Chaos, 0, rdata))
            }
            None => local_reply_payload(ctx, query, LocalReply::Status(Rcode::NotImp)),
        }
    }

    fn answer_in(&self, ctx: &mut Ctx<'_>, query: &MessageView<'_>, q: &Question) -> Option<Bytes> {
        if let Some([server, flags]) = &self.profile.debug_txt {
            if q.qtype == RType::Txt && is_opendns_debug(&q.qname) {
                let header = Header::response_to(query.header(), Rcode::NoError);
                return reply_payload(ctx, query, &header, |w| {
                    w.answer_question(RClass::In, 0, server)?;
                    w.answer_question(RClass::In, 0, flags)
                });
            }
        }
        let result = self.zonedb.resolve(q, &self.profile.egress);
        let mut header = Header::response_to(query.header(), result.rcode);
        header.ad = self.dnssec_validating && result.authenticated;
        reply_payload(ctx, query, &header, |w| result.answers.iter().try_for_each(|r| w.answer(r)))
    }
}

fn is_opendns_debug(name: &Name) -> bool {
    *name == debug_queries::opendns_debug()
}

impl Device for PublicResolverSite {
    fn receive(&mut self, ctx: &mut Ctx<'_>, iface: IfaceId, packet: IpPacket) {
        let Some(udp) = packet.udp_payload() else { return };
        if udp.dst_port != 53 || !self.profile.service_addrs.contains(&packet.dst()) {
            return;
        }
        let Ok(query) = MessageView::parse(&udp.payload) else { return };
        if query.header().qr {
            return;
        }
        let Some(q) = query.question() else { return };
        self.queries_handled += 1;

        let payload = if let Some(kind) = debug_queries::server_id_kind_view(&q) {
            self.answer_chaos(ctx, &query, kind)
        } else if q.qclass == RClass::In {
            self.answer_in(ctx, &query, &q.to_question())
        } else {
            local_reply_payload(ctx, &query, LocalReply::Status(Rcode::NotImp))
        };
        if let Some(payload) = payload {
            send_reply(ctx, iface, &packet, payload);
        }
    }

    fn name(&self) -> &str {
        &self.profile.name
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
    use dns_wire::Message;
    use netsim::{Host, SimDuration, Simulator};

    fn site(brand: PublicBrand, addr: &str, egress: &str) -> Box<PublicResolverSite> {
        PublicResolverSite::boxed(
            brand,
            [addr.parse::<IpAddr>().unwrap()],
            "IAD",
            84,
            ResolveCtx::v4(egress.parse().unwrap()),
            Arc::new(ZoneDb::standard_world()),
        )
    }

    fn ask(
        brand: PublicBrand,
        addr: &str,
        egress: &str,
        question: Question,
    ) -> Message {
        let mut sim = Simulator::new(1);
        let client = sim.add_device(Host::boxed("c", ["73.1.1.1".parse::<IpAddr>().unwrap()]));
        let s = sim.add_device(site(brand, addr, egress));
        sim.connect((client, IfaceId(0)), (s, IfaceId(0)), SimDuration::from_millis(1));
        let msg = Message::query(1, question);
        let pkt = IpPacket::udp_v4(
            "73.1.1.1".parse().unwrap(),
            addr.parse().unwrap(),
            4000,
            53,
            Bytes::from(msg.encode().unwrap()),
        );
        sim.inject(client, IfaceId(0), pkt);
        sim.run_to_quiescence();
        let deliveries = sim.device_mut::<Host>(client).unwrap().drain_inbox();
        assert_eq!(deliveries.len(), 1);
        Message::parse(&deliveries[0].packet.udp_payload().unwrap().payload).unwrap()
    }

    #[test]
    fn cloudflare_id_server_returns_iata() {
        let resp = ask(
            PublicBrand::Cloudflare,
            "1.1.1.1",
            "172.68.1.1",
            Question::chaos_txt(debug_queries::id_server()),
        );
        assert_eq!(resp.answers[0].rdata.txt_string().unwrap(), "IAD");
    }

    #[test]
    fn quad9_id_server_returns_pch_node() {
        let resp = ask(
            PublicBrand::Quad9,
            "9.9.9.9",
            "74.63.16.10",
            Question::chaos_txt(debug_queries::id_server()),
        );
        assert_eq!(resp.answers[0].rdata.txt_string().unwrap(), "res84.iad.rrdns.pch.net");
    }

    #[test]
    fn google_myaddr_returns_google_egress() {
        let resp = ask(
            PublicBrand::Google,
            "8.8.8.8",
            "172.253.226.35",
            Question::new(debug_queries::google_myaddr(), RType::Txt),
        );
        assert_eq!(resp.answers[0].rdata.txt_string().unwrap(), "172.253.226.35");
    }

    #[test]
    fn opendns_debug_returns_server_string() {
        let resp = ask(
            PublicBrand::OpenDns,
            "208.67.222.222",
            "146.112.1.1",
            Question::new(debug_queries::opendns_debug(), RType::Txt),
        );
        assert_eq!(resp.answers[0].rdata.txt_string().unwrap(), "server m84.iad");
        assert_eq!(resp.answers.len(), 2);
    }

    #[test]
    fn only_quad9_answers_version_bind() {
        for (brand, addr, egress) in [
            (PublicBrand::Cloudflare, "1.1.1.1", "172.68.1.1"),
            (PublicBrand::Google, "8.8.8.8", "172.253.226.35"),
            (PublicBrand::OpenDns, "208.67.222.222", "146.112.1.1"),
        ] {
            let resp = ask(brand, addr, egress, Question::chaos_txt(debug_queries::version_bind()));
            assert_eq!(resp.header.rcode, Rcode::NotImp, "{brand:?}");
        }
        let resp = ask(
            PublicBrand::Quad9,
            "9.9.9.9",
            "74.63.16.10",
            Question::chaos_txt(debug_queries::version_bind()),
        );
        assert!(resp.answers[0].rdata.txt_string().unwrap().starts_with("Q9-"));
    }

    #[test]
    fn whoami_through_google_shows_google_egress() {
        let resp = ask(
            PublicBrand::Google,
            "8.8.8.8",
            "172.253.226.35",
            Question::new(debug_queries::whoami_akamai(), RType::A),
        );
        assert_eq!(resp.answers[0].rdata, RData::A("172.253.226.35".parse().unwrap()));
    }

    #[test]
    fn ordinary_names_resolve() {
        let resp = ask(
            PublicBrand::Cloudflare,
            "1.1.1.1",
            "172.68.1.1",
            Question::new("example.com".parse().unwrap(), RType::A),
        );
        assert_eq!(resp.answers[0].rdata, RData::A("93.184.216.34".parse().unwrap()));
    }
}
