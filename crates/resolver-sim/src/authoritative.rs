//! An authoritative nameserver as a packet-level device: answers for its
//! zones, emits referrals (NS + glue) for delegated children, and — the
//! detail that matters most here — resolves reflector zones against the
//! *actual packet source address*, so `whoami.akamai.com` through the
//! in-packet iterative path reveals exactly the egress the querying
//! recursor used.

use crate::server::{local_reply_payload, reply_payload, send_reply, LocalReply};
use crate::zone::{ResolveCtx, Zone, ZoneAnswer};
use bytes::Bytes;
use dns_wire::{Header, MessageView, Name, Question, RData, Rcode, Record};
use netsim::{Ctx, Device, FxHashSet, IfaceId, IpPacket, SharedStr};
use std::any::Any;
use std::net::IpAddr;
use std::sync::Arc;

/// A delegation: the child apex and its nameservers with glue addresses.
#[derive(Debug, Clone)]
pub struct Delegation {
    /// Apex of the delegated child zone.
    pub child: Name,
    /// (NS owner name, glue address) pairs.
    pub nameservers: Vec<(Name, IpAddr)>,
}

/// One zone an authoritative server carries.
///
/// Cloning is cheap — the apex name and zone data are refcounted — so
/// campaign templates pre-build the standard authoritative tree once and
/// clone it into each probe's servers.
#[derive(Clone)]
pub struct ServedZone {
    /// Apex this server is authoritative for.
    pub apex: Name,
    /// Zone data.
    pub zone: Arc<dyn Zone>,
    /// Delegations to child zones (produce referrals instead of answers).
    pub delegations: Vec<Delegation>,
}

/// The authoritative server device.
pub struct AuthoritativeServer {
    name: SharedStr,
    service_addrs: FxHashSet<IpAddr>,
    zones: Vec<ServedZone>,
    /// Queries handled.
    pub queries_handled: u64,
}

impl AuthoritativeServer {
    /// Creates a server with no zones.
    pub fn new(
        name: impl Into<SharedStr>,
        service_addrs: impl IntoIterator<Item = IpAddr>,
    ) -> AuthoritativeServer {
        AuthoritativeServer {
            name: name.into(),
            service_addrs: service_addrs.into_iter().collect(),
            zones: Vec::new(),
            queries_handled: 0,
        }
    }

    /// Adds a served zone.
    pub fn serve(&mut self, zone: ServedZone) -> &mut Self {
        self.zones.push(zone);
        self
    }

    /// Boxes the server.
    pub fn boxed(self) -> Box<AuthoritativeServer> {
        Box::new(self)
    }

    fn best_zone(&self, qname: &Name) -> Option<&ServedZone> {
        self.zones
            .iter()
            .filter(|z| qname.is_subdomain_of(&z.apex))
            .max_by_key(|z| z.apex.label_count())
    }

    fn answer(
        &self,
        ctx: &mut Ctx<'_>,
        query: &MessageView<'_>,
        q: &Question,
        src: IpAddr,
    ) -> Option<Bytes> {
        let Some(served) = self.best_zone(&q.qname) else {
            // Not our zone: real authoritatives REFUSE.
            return local_reply_payload(ctx, query, LocalReply::Status(Rcode::Refused));
        };
        // Delegated below us? Emit a referral: NS records for the child,
        // then their glue.
        if let Some(delegation) = served
            .delegations
            .iter()
            .filter(|d| q.qname.is_subdomain_of(&d.child))
            .max_by_key(|d| d.child.label_count())
        {
            let header = Header::response_to(query.header(), Rcode::NoError);
            return reply_payload(ctx, query, &header, |w| {
                for (ns, _) in &delegation.nameservers {
                    let rdata = RData::Ns(ns.clone());
                    w.authority(&Record::new(delegation.child.clone(), 172800, rdata))?;
                }
                for (ns, glue) in &delegation.nameservers {
                    let glue_rdata = match glue {
                        IpAddr::V4(v4) => RData::A(*v4),
                        IpAddr::V6(v6) => RData::Aaaa(*v6),
                    };
                    w.additional(&Record::new(ns.clone(), 172800, glue_rdata))?;
                }
                Ok(())
            });
        }
        // Authoritative data. The reflector context is the *packet source*:
        // whoever asks is whom reflector zones reveal.
        let asker = match src {
            IpAddr::V4(v4) => ResolveCtx { egress_v4: Some(v4), egress_v6: None },
            IpAddr::V6(v6) => ResolveCtx { egress_v4: None, egress_v6: Some(v6) },
        };
        let (rcode, records) = match served.zone.lookup(q, &asker) {
            ZoneAnswer::Records(records) => (Rcode::NoError, records),
            ZoneAnswer::NoData => (Rcode::NoError, Vec::new()),
            ZoneAnswer::NxDomain => (Rcode::NxDomain, Vec::new()),
        };
        let mut header = Header::response_to(query.header(), rcode);
        header.aa = true;
        header.ra = false;
        reply_payload(ctx, query, &header, |w| records.iter().try_for_each(|r| w.answer(r)))
    }
}

impl Device for AuthoritativeServer {
    fn receive(&mut self, ctx: &mut Ctx<'_>, iface: IfaceId, packet: IpPacket) {
        let Some(udp) = packet.udp_payload() else { return };
        if udp.dst_port != 53 || !self.service_addrs.contains(&packet.dst()) {
            return;
        }
        let Ok(query) = MessageView::parse(&udp.payload) else { return };
        if query.header().qr {
            return;
        }
        self.queries_handled += 1;
        let payload = match query.question() {
            Some(q) => self.answer(ctx, &query, &q.to_question(), packet.src()),
            // Nothing to look up without a question.
            None => local_reply_payload(ctx, &query, LocalReply::Status(Rcode::FormErr)),
        };
        if let Some(payload) = payload {
            send_reply(ctx, iface, &packet, payload);
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
    use crate::zone::StaticZone;
    use dns_wire::{Message, RType};
    use netsim::{Host, SimDuration, Simulator};

    fn example_zone() -> Arc<dyn Zone> {
        let mut z = StaticZone::new();
        z.add_a("www.example.com", 300, "93.184.216.34".parse().unwrap());
        Arc::new(z)
    }

    fn server() -> AuthoritativeServer {
        let mut s =
            AuthoritativeServer::new("ns1", ["192.0.32.1".parse::<IpAddr>().unwrap()]);
        s.serve(ServedZone {
            apex: "example.com".parse().unwrap(),
            zone: example_zone(),
            delegations: vec![Delegation {
                child: "sub.example.com".parse().unwrap(),
                nameservers: vec![(
                    "ns1.sub.example.com".parse().unwrap(),
                    "192.0.33.1".parse().unwrap(),
                )],
            }],
        });
        s
    }

    fn ask(question: Question, src: &str) -> Message {
        ask_message(&Message::query(1, question), src)
    }

    fn ask_message(msg: &Message, src: &str) -> Message {
        let mut sim = Simulator::new(1);
        let client = sim.add_device(Host::boxed("c", [src.parse::<IpAddr>().unwrap()]));
        let s = sim.add_device(server().boxed());
        sim.connect((client, IfaceId(0)), (s, IfaceId(0)), SimDuration::from_millis(1));
        let pkt = IpPacket::udp(
            src.parse().unwrap(),
            "192.0.32.1".parse().unwrap(),
            4000,
            53,
            Bytes::from(msg.encode().unwrap()),
        )
        .unwrap();
        sim.inject(client, IfaceId(0), pkt);
        sim.run_to_quiescence();
        let inbox = sim.device_mut::<Host>(client).unwrap().drain_inbox();
        assert_eq!(inbox.len(), 1);
        Message::parse(&inbox[0].packet.udp_payload().unwrap().payload).unwrap()
    }

    #[test]
    fn authoritative_answer_sets_aa() {
        let resp = ask(Question::new("www.example.com".parse().unwrap(), RType::A), "10.0.0.1");
        assert!(resp.header.aa);
        assert_eq!(resp.answers[0].rdata, RData::A("93.184.216.34".parse().unwrap()));
    }

    #[test]
    fn delegation_produces_referral_with_glue() {
        let resp =
            ask(Question::new("deep.sub.example.com".parse().unwrap(), RType::A), "10.0.0.1");
        assert_eq!(resp.header.rcode, Rcode::NoError);
        assert!(!resp.header.aa);
        assert!(resp.answers.is_empty());
        assert!(matches!(resp.authority[0].rdata, RData::Ns(_)));
        assert_eq!(resp.additional[0].rdata, RData::A("192.0.33.1".parse().unwrap()));
    }

    #[test]
    fn out_of_bailiwick_is_refused() {
        let resp = ask(Question::new("example.org".parse().unwrap(), RType::A), "10.0.0.1");
        assert_eq!(resp.header.rcode, Rcode::Refused);
    }

    #[test]
    fn query_without_a_question_gets_formerr() {
        let mut query = Message::query(7, Question::new("www.example.com".parse().unwrap(), RType::A));
        query.questions.clear();
        let resp = ask_message(&query, "10.0.0.1");
        assert_eq!(resp, Message::response_to(&query, Rcode::FormErr));
    }

    #[test]
    fn nxdomain_inside_zone() {
        let resp = ask(Question::new("nope.example.com".parse().unwrap(), RType::A), "10.0.0.1");
        assert_eq!(resp.header.rcode, Rcode::NxDomain);
    }

    #[test]
    fn reflector_zone_sees_true_packet_source() {
        use crate::zone::{ReflectKind, ReflectorZone};
        let mut s = AuthoritativeServer::new("akam", ["192.0.34.1".parse::<IpAddr>().unwrap()]);
        s.serve(ServedZone {
            apex: "whoami.akamai.com".parse().unwrap(),
            zone: Arc::new(ReflectorZone::new(
                "whoami.akamai.com".parse().unwrap(),
                ReflectKind::Address,
            )),
            delegations: vec![],
        });
        let mut sim = Simulator::new(1);
        let client = sim.add_device(Host::boxed("c", ["75.75.75.10".parse::<IpAddr>().unwrap()]));
        let srv = sim.add_device(s.boxed());
        sim.connect((client, IfaceId(0)), (srv, IfaceId(0)), SimDuration::from_millis(1));
        let msg =
            Message::query(1, Question::new("whoami.akamai.com".parse().unwrap(), RType::A));
        let pkt = IpPacket::udp_v4(
            "75.75.75.10".parse().unwrap(),
            "192.0.34.1".parse().unwrap(),
            4000,
            53,
            Bytes::from(msg.encode().unwrap()),
        );
        sim.inject(client, IfaceId(0), pkt);
        sim.run_to_quiescence();
        let inbox = sim.device_mut::<Host>(client).unwrap().drain_inbox();
        let resp = Message::parse(&inbox[0].packet.udp_payload().unwrap().payload).unwrap();
        assert_eq!(resp.answers[0].rdata, RData::A("75.75.75.10".parse().unwrap()));
    }
}
