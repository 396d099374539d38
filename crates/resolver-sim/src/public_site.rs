//! Anycast sites of the four public resolvers, with the location-query
//! semantics of paper Table 1.

use crate::memo::WireMemo;
use crate::server::{
    local_answer, local_reply_payload, parse_query, relay_payload, reply_payload, send_reply,
    served_datagram,
};
use crate::software::{ChaosPolicy, SoftwareProfile};
use crate::zone::{ResolveCtx, ZoneDb};
use bytes::Bytes;
use dns_wire::debug_queries;
use dns_wire::{Header, MessageView, Name, Question, RClass, RData, RType, Rcode};
use netsim::{Cidr, Ctx, Device, IfaceId, IpPacket, SharedStr};
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

/// How many distinct queries one profile's memo holds. No workload sends
/// a site more than two distinct datagrams; a query past the last slot
/// takes the answer path every time.
const MEMO_SLOTS: usize = 8;

/// What one anycast site of one public resolver is, apart from the world
/// it answers in: its name, service addresses, site code, egress, the TXT
/// answers it serves (the identity and Quad9's version as a software
/// profile, and the OpenDNS debug strings, server then flags), the zone
/// database it resolves through, and a memo of the replies it has written.
///
/// Built once, a profile is shared by every world with a site there, so a
/// site device costs a world build no allocation. Every input of a reply
/// lives here and none changes, so a reply is a function of the query's
/// bytes after its transaction ID; the memo keeps the first reply to each
/// such query, and every later site answers it with an ID-only copy.
pub struct SiteProfile {
    name: SharedStr,
    brand: PublicBrand,
    service_addrs: Arc<[IpAddr]>,
    egress: ResolveCtx,
    /// The brand's CHAOS answers: a text where it has one, else NOTIMP.
    chaos: SoftwareProfile,
    debug_txt: Option<[RData; 2]>,
    zonedb: Arc<ZoneDb>,
    memo: WireMemo<(), MEMO_SLOTS>,
}

impl SiteProfile {
    /// The profile of `brand`'s site at `iata` (an IATA code such as
    /// "IAD"), answering on `service_addrs` and resolving through `zonedb`
    /// from `egress`. `node_index` numbers the answering node in Quad9's
    /// and OpenDNS's identity strings.
    pub fn new(
        brand: PublicBrand,
        service_addrs: impl IntoIterator<Item = IpAddr>,
        iata: &str,
        node_index: u32,
        egress: ResolveCtx,
        zonedb: Arc<ZoneDb>,
    ) -> SiteProfile {
        let site = iata.to_ascii_lowercase();
        let identity = match brand {
            PublicBrand::Cloudflare => Some(iata.to_ascii_uppercase()),
            PublicBrand::Quad9 => Some(format!("res{node_index}.{site}.rrdns.pch.net")),
            // Google and OpenDNS do not implement id.server.
            PublicBrand::Google | PublicBrand::OpenDns => None,
        };
        // Only Quad9 answers version.bind (§3.2).
        let version = (brand == PublicBrand::Quad9).then(|| format!("Q9-P-6.1-{site}"));
        let policy = |text: Option<String>| {
            text.map_or(ChaosPolicy::Status(Rcode::NotImp), |t| ChaosPolicy::Text(t.into()))
        };
        SiteProfile {
            name: format!("{brand:?}-{iata}").into(),
            brand,
            service_addrs: service_addrs.into_iter().collect(),
            egress,
            chaos: SoftwareProfile { version_bind: policy(version), id_server: policy(identity) },
            // OpenDNS synthesizes debug.opendns.com at the resolver itself.
            debug_txt: (brand == PublicBrand::OpenDns).then(|| {
                [
                    RData::txt(format!("server m{node_index}.{site}")),
                    RData::txt("flags: 20 0 2F8 0"),
                ]
            }),
            zonedb,
            memo: WireMemo::new(),
        }
    }

    /// The debug strings this site synthesizes for `q`, if it asks for
    /// them.
    fn debug_answer(&self, q: &Question) -> Option<&[RData; 2]> {
        self.debug_txt.as_ref().filter(|_| q.qtype == RType::Txt && is_opendns_debug(&q.qname))
    }
}

/// One anycast site (point of presence) of one public resolver.
///
/// Which site a client reaches is decided by the scenario's routing — in
/// the real world by BGP anycast, here by which site device the topology
/// wires toward the client's region.
pub struct PublicResolverSite {
    profile: Arc<SiteProfile>,
}

impl PublicResolverSite {
    /// Creates a site from a shared profile; it allocates nothing.
    pub fn with_profile(profile: Arc<SiteProfile>) -> PublicResolverSite {
        PublicResolverSite { profile }
    }

    /// The brand of this site.
    pub fn brand(&self) -> PublicBrand {
        self.profile.brand
    }

    /// The answer path: the local-answer rule, then the OpenDNS debug
    /// strings or a zone answer. `None` stays silent.
    fn answer(&self, ctx: &mut Ctx<'_>, query: &MessageView<'_>) -> Option<Bytes> {
        let q = query.question()?;
        if let Some(reply) = local_answer(&q, &self.profile.chaos) {
            return local_reply_payload(ctx, query, reply?);
        }
        let q = q.to_question();
        if let Some([server, flags]) = self.profile.debug_answer(&q) {
            let header = Header::response_to(query.header(), Rcode::NoError);
            return reply_payload(ctx, query, &header, |w| {
                w.answer_question(RClass::In, 0, server)?;
                w.answer_question(RClass::In, 0, flags)
            });
        }
        // A zone answer: its rcode, AD when the answer is signed and this
        // site validates (Cloudflare, Google and Quad9 do; classic OpenDNS
        // does not), then its records.
        let result = self.profile.zonedb.resolve(&q, &self.profile.egress);
        let mut header = Header::response_to(query.header(), result.rcode);
        header.ad = self.profile.brand != PublicBrand::OpenDns && result.authenticated;
        reply_payload(ctx, query, &header, |w| result.answers.iter().try_for_each(|r| w.answer(r)))
    }
}

fn is_opendns_debug(name: &Name) -> bool {
    *name == debug_queries::opendns_debug()
}

impl Device for PublicResolverSite {
    /// A query the memo holds is answered with the stored reply under its
    /// own ID, unparsed; any other goes through the parse and the answer
    /// path, and the reply it gets is memoized.
    fn receive(&mut self, ctx: &mut Ctx<'_>, iface: IfaceId, packet: IpPacket) {
        let profile = &*self.profile;
        let Some(wire) = served_datagram(&packet, |dst| profile.service_addrs.contains(&dst))
        else {
            return;
        };
        let payload = match profile.memo.get(wire) {
            Some((id, reply, ())) => relay_payload(ctx, reply, id),
            None => {
                let Some(query) = parse_query(wire) else { return };
                let Some(payload) = self.answer(ctx, &query) else { return };
                profile.memo.fill(wire, &payload, ());
                payload
            }
        };
        send_reply(ctx, iface, &packet, payload);
    }

    fn name(&self) -> &str {
        &self.profile.name
    }

    fn prefixes(&self, report: &mut dyn FnMut(Cidr)) {
        self.profile.service_addrs.iter().for_each(|&addr| report(Cidr::host(addr)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dns_wire::Message;
    use netsim::{Host, SimDuration, Simulator};

    fn site(brand: PublicBrand, addr: &str, egress: &str) -> PublicResolverSite {
        PublicResolverSite::with_profile(Arc::new(SiteProfile::new(
            brand,
            [addr.parse::<IpAddr>().unwrap()],
            "IAD",
            84,
            ResolveCtx::v4(egress.parse().unwrap()),
            Arc::new(ZoneDb::standard_world()),
        )))
    }

    fn ask(brand: PublicBrand, addr: &str, egress: &str, question: Question) -> Message {
        let mut sim = Simulator::new(1);
        let client = sim.add_device(Host::new("c", ["73.1.1.1".parse::<IpAddr>().unwrap()]));
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
