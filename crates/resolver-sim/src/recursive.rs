//! A recursive resolver device — the "alternate resolver" interceptors
//! forward to (typically the ISP's resolver).
//!
//! Recursion is modelled as a [`ZoneDb`] lookup stamped with the resolver's
//! egress address, after a fixed 12 ms resolution latency on cache misses.
//! Behaviour knobs cover the shapes the paper observed from alternate
//! resolvers: software identity for CHAOS queries, optional NXDOMAIN
//! wildcarding (the Kreibich et al. ad-redirection practice), and optional
//! blanket refusal (the "Status Modified" interceptors of Figure 3).

use crate::cache::DnsCache;
use crate::server::{
    local_answer, local_reply_payload, receive_query, reply_packet, reply_payload,
    send_local_reply, LocalReply,
};
use crate::software::SoftwareProfile;
use crate::zone::{ResolveCtx, ResolveResult, ZoneDb};
use bytes::Bytes;
use dns_wire::{Header, MessageView, Question, RClass, RData, RType, Rcode};
use netsim::{Ctx, Device, FxHashMap, IfaceId, IpPacket, SharedStr, SimDuration};
use std::net::{IpAddr, Ipv4Addr};
use std::sync::Arc;

/// How long a cache miss takes to resolve before the reply leaves.
const RESOLVE_LATENCY: SimDuration = SimDuration::from_millis(12);

/// A recursive resolver bound to a set of service addresses.
pub struct RecursiveResolver {
    name: SharedStr,
    /// A resolver answers on a handful of addresses, so a scan beats
    /// hashing; shared, so a set fixed for a whole campaign (the root
    /// servers') costs a world build nothing.
    service_addrs: Arc<[IpAddr]>,
    egress: ResolveCtx,
    zonedb: Arc<ZoneDb>,
    /// Software identity for CHAOS queries.
    pub profile: SoftwareProfile,
    cache: DnsCache,
    /// Replace NXDOMAIN with an A record pointing here (ad wildcarding).
    pub nxdomain_wildcard: Option<Ipv4Addr>,
    /// Refuse every IN query (models resolvers that block foreign clients,
    /// producing the paper's "Status Modified" category).
    pub refuse_all: bool,
    pending: FxHashMap<u64, (IfaceId, IpPacket)>,
    next_token: u64,
    /// Total queries handled.
    pub queries_handled: u64,
}

impl RecursiveResolver {
    /// Creates a resolver.
    pub fn new(
        name: impl Into<SharedStr>,
        service_addrs: impl Into<Arc<[IpAddr]>>,
        egress: ResolveCtx,
        zonedb: Arc<ZoneDb>,
        profile: SoftwareProfile,
    ) -> RecursiveResolver {
        RecursiveResolver {
            name: name.into(),
            service_addrs: service_addrs.into(),
            egress,
            zonedb,
            profile,
            cache: DnsCache::new(4096),
            nxdomain_wildcard: None,
            refuse_all: false,
            pending: FxHashMap::default(),
            next_token: 0,
            queries_handled: 0,
        }
    }

    /// Cache statistics: (hits, misses).
    pub fn cache_stats(&self) -> (u64, u64) {
        (self.cache.hits, self.cache.misses)
    }

    /// The resolver's egress context.
    pub fn egress(&self) -> ResolveCtx {
        self.egress
    }

    /// Answers an IN query: the reply payload, and whether it was a cache
    /// miss (which pays the recursion latency).
    fn answer_in_query(
        &mut self,
        ctx: &mut Ctx<'_>,
        query: &MessageView<'_>,
        q: &Question,
    ) -> (Option<Bytes>, bool) {
        if self.refuse_all {
            return (local_reply_payload(ctx, query, LocalReply::Status(Rcode::Refused)), false);
        }
        let now = ctx.now();
        let wildcard = self.nxdomain_wildcard;
        if let Some(cached) = self.cache.get(q, now) {
            return (write_result(ctx, query, cached, wildcard), false);
        }
        let result = self.zonedb.resolve(q, &self.egress);
        let payload = write_result(ctx, query, &result, wildcard);
        self.cache.put(q, result, now);
        (payload, true)
    }
}

/// Writes the reply carrying `result` (never with AD: this resolver does
/// not validate, the downgrade a validating client can notice); with
/// `wildcard` set, an NXDOMAIN for an A question becomes an A record
/// pointing there.
fn write_result(
    ctx: &mut Ctx<'_>,
    query: &MessageView<'_>,
    result: &ResolveResult,
    wildcard: Option<Ipv4Addr>,
) -> Option<Bytes> {
    if result.rcode == Rcode::NxDomain {
        if let (Some(ad_ip), Some(q)) = (wildcard, query.question()) {
            if q.qtype == RType::A {
                let header = Header::response_to(query.header(), Rcode::NoError);
                return reply_payload(ctx, query, &header, |w| {
                    w.answer_question(RClass::In, 60, &RData::A(ad_ip))
                });
            }
        }
    }
    let header = Header::response_to(query.header(), result.rcode);
    reply_payload(ctx, query, &header, |w| result.answers.iter().try_for_each(|r| w.answer(r)))
}

impl Device for RecursiveResolver {
    fn receive(&mut self, ctx: &mut Ctx<'_>, iface: IfaceId, packet: IpPacket) {
        let Some(query) = receive_query(&packet, |dst| self.service_addrs.contains(&dst)) else {
            return;
        };
        let Some(q) = query.question() else { return };
        self.queries_handled += 1;
        if let Some(reply) = local_answer(&q, &self.profile) {
            send_local_reply(ctx, iface, &packet, &query, reply);
            return;
        }

        let (payload, was_miss) = self.answer_in_query(ctx, &query, &q.to_question());
        let Some(reply) = payload.and_then(|payload| reply_packet(&packet, payload)) else {
            return;
        };
        if was_miss {
            // Cache miss: delay the reply by the recursion latency.
            let token = self.next_token;
            self.next_token += 1;
            self.pending.insert(token, (iface, reply));
            ctx.set_timer(RESOLVE_LATENCY, token);
        } else {
            ctx.send(iface, reply);
        }
    }

    fn timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        if let Some((iface, reply)) = self.pending.remove(&token) {
            ctx.send(iface, reply);
        }
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dns_wire::debug_queries;
    use dns_wire::Message;
    use netsim::{Host, Simulator};

    fn world() -> Arc<ZoneDb> {
        Arc::new(ZoneDb::standard_world())
    }

    fn isp_resolver() -> RecursiveResolver {
        RecursiveResolver::new(
            "isp-resolver",
            ["75.75.75.75".parse::<IpAddr>().unwrap()],
            ResolveCtx::v4("75.75.75.10".parse().unwrap()),
            world(),
            SoftwareProfile::unbound("1.9.0"),
        )
    }

    /// Client host at 73.1.1.1 directly linked to the resolver.
    fn harness(resolver: RecursiveResolver) -> (Simulator, netsim::NodeId, netsim::NodeId) {
        let mut sim = Simulator::new(1);
        let client = sim.add_device(Host::new("client", ["73.1.1.1".parse::<IpAddr>().unwrap()]));
        let r = sim.add_device(resolver);
        sim.connect((client, IfaceId(0)), (r, IfaceId(0)), SimDuration::from_millis(5));
        (sim, client, r)
    }

    fn query_pkt(question: Question, id: u16) -> IpPacket {
        let msg = Message::query(id, question);
        IpPacket::udp_v4(
            "73.1.1.1".parse().unwrap(),
            "75.75.75.75".parse().unwrap(),
            4444,
            53,
            Bytes::from(msg.encode().unwrap()),
        )
    }

    fn response_of(sim: &mut Simulator, client: netsim::NodeId) -> Message {
        let host = sim.device_mut::<Host>(client).unwrap();
        let deliveries = host.drain_inbox();
        assert_eq!(deliveries.len(), 1, "expected exactly one response");
        Message::parse(&deliveries[0].packet.udp_payload().unwrap().payload).unwrap()
    }

    #[test]
    fn resolves_a_record_through_zonedb() {
        let (mut sim, client, _r) = harness(isp_resolver());
        sim.inject(
            client,
            IfaceId(0),
            query_pkt(Question::new("example.com".parse().unwrap(), RType::A), 7),
        );
        sim.run_to_quiescence();
        let resp = response_of(&mut sim, client);
        assert_eq!(resp.header.id, 7);
        assert_eq!(resp.header.rcode, Rcode::NoError);
        assert_eq!(resp.answers[0].rdata, RData::A("93.184.216.34".parse().unwrap()));
    }

    #[test]
    fn whoami_reveals_this_resolvers_egress() {
        let (mut sim, client, _r) = harness(isp_resolver());
        sim.inject(
            client,
            IfaceId(0),
            query_pkt(Question::new("whoami.akamai.com".parse().unwrap(), RType::A), 8),
        );
        sim.run_to_quiescence();
        let resp = response_of(&mut sim, client);
        assert_eq!(resp.answers[0].rdata, RData::A("75.75.75.10".parse().unwrap()));
    }

    #[test]
    fn version_bind_answers_per_profile() {
        let (mut sim, client, _r) = harness(isp_resolver());
        sim.inject(
            client,
            IfaceId(0),
            query_pkt(Question::chaos_txt(debug_queries::version_bind()), 9),
        );
        sim.run_to_quiescence();
        let resp = response_of(&mut sim, client);
        assert_eq!(resp.answers[0].rdata.txt_string().unwrap(), "unbound 1.9.0");
    }

    #[test]
    fn cache_makes_second_lookup_fast() {
        let (mut sim, client, r) = harness(isp_resolver());
        let q = Question::new("example.com".parse().unwrap(), RType::A);
        sim.inject(client, IfaceId(0), query_pkt(q.clone(), 1));
        sim.run_to_quiescence();
        let t1 = sim.device_mut::<Host>(client).unwrap().drain_inbox()[0].at;
        let start = sim.now();
        sim.inject(client, IfaceId(0), query_pkt(q, 2));
        sim.run_to_quiescence();
        let t2 = sim.device_mut::<Host>(client).unwrap().drain_inbox()[0].at;
        // First answer pays the 12ms recursion latency; the cached one only
        // pays the 2×5ms link latency.
        assert_eq!(t1.duration_since(netsim::SimTime::ZERO).as_millis(), 22);
        assert_eq!(t2.duration_since(start).as_millis(), 10);
        let (hits, misses) = sim.device::<RecursiveResolver>(r).unwrap().cache_stats();
        assert_eq!((hits, misses), (1, 1));
    }

    #[test]
    fn nxdomain_wildcard_rewrites_nxdomain() {
        let mut resolver = isp_resolver();
        resolver.nxdomain_wildcard = Some("75.75.0.99".parse().unwrap());
        let (mut sim, client, _r) = harness(resolver);
        sim.inject(
            client,
            IfaceId(0),
            query_pkt(Question::new("no-such-name.example.com".parse().unwrap(), RType::A), 3),
        );
        sim.run_to_quiescence();
        let resp = response_of(&mut sim, client);
        assert_eq!(resp.header.rcode, Rcode::NoError);
        assert_eq!(resp.answers[0].rdata, RData::A("75.75.0.99".parse().unwrap()));
    }

    #[test]
    fn refuse_all_refuses_in_queries_but_still_answers_chaos() {
        let mut resolver = isp_resolver();
        resolver.refuse_all = true;
        let (mut sim, client, _r) = harness(resolver);
        sim.inject(
            client,
            IfaceId(0),
            query_pkt(Question::new("example.com".parse().unwrap(), RType::A), 4),
        );
        sim.run_to_quiescence();
        assert_eq!(response_of(&mut sim, client).header.rcode, Rcode::Refused);
        sim.inject(
            client,
            IfaceId(0),
            query_pkt(Question::chaos_txt(debug_queries::version_bind()), 5),
        );
        sim.run_to_quiescence();
        let resp = response_of(&mut sim, client);
        assert_eq!(resp.answers[0].rdata.txt_string().unwrap(), "unbound 1.9.0");
    }

    #[test]
    fn ignores_non_dns_and_responses() {
        let (mut sim, client, r) = harness(isp_resolver());
        // Wrong port.
        let pkt = IpPacket::udp_v4(
            "73.1.1.1".parse().unwrap(),
            "75.75.75.75".parse().unwrap(),
            4444,
            443,
            Bytes::from_static(b"not dns"),
        );
        sim.inject(client, IfaceId(0), pkt);
        // A response (qr bit set) must not be answered.
        let mut msg = Message::query(1, Question::new("example.com".parse().unwrap(), RType::A));
        msg.header.qr = true;
        let pkt = IpPacket::udp_v4(
            "73.1.1.1".parse().unwrap(),
            "75.75.75.75".parse().unwrap(),
            4444,
            53,
            Bytes::from(msg.encode().unwrap()),
        );
        sim.inject(client, IfaceId(0), pkt);
        sim.run_to_quiescence();
        assert!(sim.device_mut::<Host>(client).unwrap().drain_inbox().is_empty());
        assert_eq!(sim.device::<RecursiveResolver>(r).unwrap().queries_handled, 0);
    }

    #[test]
    fn unknown_class_gets_notimp() {
        let (mut sim, client, _r) = harness(isp_resolver());
        let q = Question {
            qname: "example.com".parse().unwrap(),
            qtype: RType::A,
            qclass: RClass::Hesiod,
        };
        sim.inject(client, IfaceId(0), query_pkt(q, 6));
        sim.run_to_quiescence();
        assert_eq!(response_of(&mut sim, client).header.rcode, Rcode::NotImp);
    }
}
