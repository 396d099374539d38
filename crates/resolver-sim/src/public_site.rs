//! Anycast sites of the four public resolvers, with the location-query
//! semantics of paper Table 1.

use crate::server::send_reply;
use crate::zone::{ResolveCtx, ZoneDb};
use dns_wire::debug_queries::{self, ServerIdKind};
use dns_wire::{Message, Name, RClass, RData, RType, Rcode, Record};
use netsim::{Ctx, Device, FxHashSet, IfaceId, IpPacket};
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

/// One anycast site (point of presence) of one public resolver.
///
/// Which site a client reaches is decided by the scenario's routing — in
/// the real world by BGP anycast, here by which site device the topology
/// wires toward the client's region.
pub struct PublicResolverSite {
    name: String,
    brand: PublicBrand,
    service_addrs: FxHashSet<IpAddr>,
    /// IATA code of the site ("IAD", "SFO", "AMS", …).
    iata: String,
    /// Node number within the site, for Quad9/OpenDNS identity strings.
    node_index: u32,
    egress: ResolveCtx,
    zonedb: Arc<ZoneDb>,
    /// Whether this resolver validates DNSSEC (AD bit on signed answers).
    pub dnssec_validating: bool,
    /// Total queries handled.
    pub queries_handled: u64,
    /// The TXT answers the site serves, each built the first time it is
    /// asked for: the identity, the version, and the OpenDNS debug string.
    identity_txt: Option<RData>,
    version_txt: Option<RData>,
    debug_txt: Option<RData>,
}

impl PublicResolverSite {
    /// Creates a site.
    pub fn new(
        brand: PublicBrand,
        service_addrs: impl IntoIterator<Item = IpAddr>,
        iata: &str,
        node_index: u32,
        egress: ResolveCtx,
        zonedb: Arc<ZoneDb>,
    ) -> PublicResolverSite {
        PublicResolverSite {
            name: format!("{brand:?}-{iata}"),
            brand,
            service_addrs: service_addrs.into_iter().collect(),
            iata: iata.to_ascii_uppercase(),
            node_index,
            egress,
            zonedb,
            // Cloudflare, Google, and Quad9 validate; classic OpenDNS does
            // not.
            dnssec_validating: brand != PublicBrand::OpenDns,
            queries_handled: 0,
            identity_txt: None,
            version_txt: None,
            debug_txt: None,
        }
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

    /// The brand of this site.
    pub fn brand(&self) -> PublicBrand {
        self.brand
    }

    /// Identity string for CHAOS `id.server` / `hostname.bind`.
    fn identity_string(&self) -> Option<String> {
        match self.brand {
            PublicBrand::Cloudflare => Some(self.iata.clone()),
            PublicBrand::Quad9 => Some(format!(
                "res{}.{}.rrdns.pch.net",
                self.node_index,
                self.iata.to_ascii_lowercase()
            )),
            // Google and OpenDNS do not implement id.server.
            PublicBrand::Google | PublicBrand::OpenDns => None,
        }
    }

    fn answer_chaos(&mut self, query: &Message, kind: ServerIdKind) -> Message {
        let q = query.question().expect("caller checked");
        let text = match kind {
            // Only Quad9 answers version.bind (§3.2).
            ServerIdKind::Version if self.brand == PublicBrand::Quad9 => {
                let iata = &self.iata;
                Some(&*self.version_txt.get_or_insert_with(|| {
                    RData::txt(format!("Q9-P-6.1-{}", iata.to_ascii_lowercase()))
                }))
            }
            ServerIdKind::Version => None,
            ServerIdKind::Identity => {
                if self.identity_txt.is_none() {
                    self.identity_txt = self.identity_string().map(RData::txt);
                }
                self.identity_txt.as_ref()
            }
        };
        match text {
            Some(rdata) => Message::response_to(query, Rcode::NoError).with_answer(Record {
                class: RClass::Chaos,
                ..Record::new(q.qname.clone(), 0, rdata.clone())
            }),
            None => Message::response_to(query, Rcode::NotImp),
        }
    }

    fn answer_in(&mut self, query: &Message) -> Message {
        let q = query.question().expect("caller checked");
        // OpenDNS synthesizes debug.opendns.com at the resolver itself.
        if self.brand == PublicBrand::OpenDns && is_opendns_debug(&q.qname) && q.qtype == RType::Txt
        {
            let (node_index, iata) = (self.node_index, &self.iata);
            let server = self.debug_txt.get_or_insert_with(|| {
                RData::txt(format!("server m{node_index}.{}", iata.to_ascii_lowercase()))
            });
            let mut resp = Message::response_to(query, Rcode::NoError);
            resp.answers.push(Record::new(q.qname.clone(), 0, server.clone()));
            resp.answers.push(Record::new(
                q.qname.clone(),
                0,
                RData::txt("flags: 20 0 2F8 0"),
            ));
            return resp;
        }
        let result = self.zonedb.resolve(q, &self.egress);
        let mut resp = Message::response_to(query, result.rcode);
        resp.header.ad = self.dnssec_validating && result.authenticated;
        resp.answers = result.answers;
        resp
    }
}

fn is_opendns_debug(name: &Name) -> bool {
    *name == debug_queries::opendns_debug()
}

impl Device for PublicResolverSite {
    fn receive(&mut self, ctx: &mut Ctx<'_>, iface: IfaceId, packet: IpPacket) {
        let Some(udp) = packet.udp_payload() else { return };
        if udp.dst_port != 53 || !self.service_addrs.contains(&packet.dst()) {
            return;
        }
        let Ok(query) = Message::parse(&udp.payload) else { return };
        if query.header.qr {
            return;
        }
        let Some(q) = query.question() else { return };
        self.queries_handled += 1;

        let resp = if let Some(kind) = debug_queries::server_id_kind(q) {
            self.answer_chaos(&query, kind)
        } else if q.qclass == RClass::In {
            self.answer_in(&query)
        } else {
            Message::response_to(&query, Rcode::NotImp)
        };
        send_reply(ctx, iface, &packet, &resp);
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
    use bytes::Bytes;
    use dns_wire::Question;
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
