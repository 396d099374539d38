//! A recursive resolver device — the "alternate resolver" interceptors
//! forward to (typically the ISP's resolver).
//!
//! Recursion is modelled as a [`ZoneDb`] lookup stamped with the resolver's
//! egress address, after a fixed 12 ms resolution latency on cache misses.
//! Behaviour knobs cover the shapes the paper observed from alternate
//! resolvers: software identity for CHAOS queries, optional NXDOMAIN
//! wildcarding (the Kreibich et al. ad-redirection practice), and optional
//! blanket refusal (the "Status Modified" interceptors of Figure 3).
//!
//! What a resolver is lives in a shared [`ResolverProfile`], with a memo of
//! the replies it has written; a world's [`RecursiveResolver`] keeps only
//! its cache's timing and the replies waiting out the latency.

use crate::cache::DnsCache;
use crate::memo::WireMemo;
use crate::server::{
    local_answer, local_reply_payload, parse_query, relay_payload, reply_packet, reply_payload,
    served_datagram, LocalReply,
};
use crate::software::SoftwareProfile;
use crate::zone::{ResolveCtx, ResolveResult, ZoneDb};
use bytes::Bytes;
use dns_wire::{Header, MessageView, Question, QuestionView, RClass, RData, RType, Rcode};
use netsim::{Cidr, Ctx, Device, FxHashMap, IfaceId, IpPacket, SharedStr, SimDuration, SimTime};
use std::net::{IpAddr, Ipv4Addr};
use std::sync::Arc;

/// How long a cache miss takes to resolve before the reply leaves.
const RESOLVE_LATENCY: SimDuration = SimDuration::from_millis(12);

/// How many entries a world's cache holds.
const CACHE_CAPACITY: usize = 4096;

/// How many distinct queries one profile's memo holds. No workload sends
/// one resolver more than seven distinct datagrams (the benchmark's
/// `taxonomy` sends three); a query past the last slot takes the answer
/// path every time.
const MEMO_SLOTS: usize = 16;

/// How a resolver treats the IN queries it is asked — this is what drives
/// the paper's Figure-3 transparency categories.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ResolverMode {
    /// Resolve everything correctly: **Transparent** interception.
    Normal,
    /// Refuse every IN query (resolvers that block foreign clients):
    /// **Status Modified** interception.
    RefuseAll,
    /// Resolve correctly, but answer an A question's NXDOMAIN with an A
    /// record pointing here (ad wildcarding).
    NxWildcard(Ipv4Addr),
}

/// What one recursive resolver is, apart from the world it answers in: its
/// name, service addresses, egress, the zone database it resolves through,
/// its software identity for CHAOS queries, its [`ResolverMode`], and a
/// memo of the replies it has written.
///
/// Built once, a profile is shared by every world with that resolver, so
/// the device costs a world build no allocation. Every input of a reply
/// lives here and none changes, so a reply is a function of the query's
/// bytes after its transaction ID; the memo keeps the first reply to each
/// such query, tagged with how it is timed, and every later device answers
/// it with an ID-only copy.
pub struct ResolverProfile {
    name: SharedStr,
    /// A resolver answers on a handful of addresses, so a scan beats
    /// hashing; shared, so a set fixed for a whole campaign (the root
    /// servers') costs nothing.
    service_addrs: Arc<[IpAddr]>,
    egress: ResolveCtx,
    zonedb: Arc<ZoneDb>,
    software: SoftwareProfile,
    mode: ResolverMode,
    memo: WireMemo<Timing, MEMO_SLOTS>,
}

/// How a reply is timed.
enum Timing {
    /// A local answer or a refusal: sent at once, the cache untouched.
    Local,
    /// A zone answer: the world's cache decides, by its question and TTL.
    Zone { question: Question, ttl: SimDuration },
}

impl Timing {
    /// Whether the reply waits out the resolution latency: a zone answer
    /// `cache` does not hold fresh at `now`, which the miss then stores.
    fn is_miss(&self, cache: &mut DnsCache<()>, now: SimTime) -> bool {
        let Timing::Zone { question, ttl } = self else { return false };
        if cache.get(question, now).is_some() {
            return false;
        }
        cache.put(question, *ttl, (), now);
        true
    }
}

impl ResolverProfile {
    /// The profile of a resolver called `name`, answering on
    /// `service_addrs` and resolving through `zonedb` from `egress`, with
    /// `software`'s CHAOS answers and `mode`'s treatment of IN queries.
    pub fn new(
        name: impl Into<SharedStr>,
        service_addrs: impl Into<Arc<[IpAddr]>>,
        egress: ResolveCtx,
        zonedb: Arc<ZoneDb>,
        software: SoftwareProfile,
        mode: ResolverMode,
    ) -> ResolverProfile {
        ResolverProfile {
            name: name.into(),
            service_addrs: service_addrs.into(),
            egress,
            zonedb,
            software,
            mode,
            memo: WireMemo::new(),
        }
    }

    /// The answer path: the local-answer rule, then a refusal or a zone
    /// answer. Returns the reply (`None` stays silent) and how it is timed.
    fn answer(
        &self,
        ctx: &mut Ctx<'_>,
        query: &MessageView<'_>,
        q: &QuestionView<'_>,
    ) -> (Option<Bytes>, Timing) {
        if let Some(reply) = local_answer(q, &self.software) {
            return (reply.and_then(|reply| local_reply_payload(ctx, query, reply)), Timing::Local);
        }
        let wildcard = match self.mode {
            ResolverMode::Normal => None,
            ResolverMode::RefuseAll => {
                let refused = local_reply_payload(ctx, query, LocalReply::Status(Rcode::Refused));
                return (refused, Timing::Local);
            }
            ResolverMode::NxWildcard(ip) => Some(ip),
        };
        let question = q.to_question();
        let result = self.zonedb.resolve(&question, &self.egress);
        let payload = write_result(ctx, query, &result, wildcard.filter(|_| q.qtype == RType::A));
        (payload, Timing::Zone { question, ttl: result.cache_ttl() })
    }
}

/// A recursive resolver in one world: a shared [`ResolverProfile`], plus
/// what is this world's own.
pub struct RecursiveResolver {
    profile: Arc<ResolverProfile>,
    /// Which zone answers this world has been given, and until when each
    /// is fresh; the replies themselves come from the profile.
    cache: DnsCache<()>,
    pending: FxHashMap<u64, (IfaceId, IpPacket)>,
    next_token: u64,
}

impl RecursiveResolver {
    /// Creates a resolver from a shared profile; it allocates nothing.
    pub fn with_profile(profile: Arc<ResolverProfile>) -> RecursiveResolver {
        RecursiveResolver {
            profile,
            cache: DnsCache::new(CACHE_CAPACITY),
            pending: FxHashMap::default(),
            next_token: 0,
        }
    }

    /// Cache statistics: (hits, misses).
    pub fn cache_stats(&self) -> (u64, u64) {
        (self.cache.hits, self.cache.misses)
    }
}

/// Writes the reply carrying `result` (never with AD: this resolver does
/// not validate, the downgrade a validating client can notice); with
/// `wildcard` set, an NXDOMAIN becomes an A record pointing there.
fn write_result(
    ctx: &mut Ctx<'_>,
    query: &MessageView<'_>,
    result: &ResolveResult,
    wildcard: Option<Ipv4Addr>,
) -> Option<Bytes> {
    if let (Rcode::NxDomain, Some(ad_ip)) = (result.rcode, wildcard) {
        let header = Header::response_to(query.header(), Rcode::NoError);
        return reply_payload(ctx, query, &header, |w| {
            w.answer_question(RClass::In, 60, &RData::A(ad_ip))
        });
    }
    let header = Header::response_to(query.header(), result.rcode);
    reply_payload(ctx, query, &header, |w| result.answers.iter().try_for_each(|r| w.answer(r)))
}

impl Device for RecursiveResolver {
    /// A query the profile's memo holds is answered with the stored reply
    /// under its own ID, unparsed; any other goes through the parse and the
    /// answer path, and the reply it gets is memoized. Either way, a zone
    /// answer this world's cache does not hold fresh waits out the
    /// resolution latency.
    fn receive(&mut self, ctx: &mut Ctx<'_>, iface: IfaceId, packet: IpPacket) {
        let profile = &*self.profile;
        let Some(wire) = served_datagram(&packet, |dst| profile.service_addrs.contains(&dst))
        else {
            return;
        };
        let (payload, miss) = match profile.memo.get(wire) {
            Some((id, reply, timing)) => {
                (relay_payload(ctx, reply, id), timing.is_miss(&mut self.cache, ctx.now()))
            }
            None => {
                let Some(query) = parse_query(wire) else { return };
                let Some(q) = query.question() else { return };
                let (payload, timing) = profile.answer(ctx, &query, &q);
                // A miss is stored even when its reply cannot be written.
                let miss = timing.is_miss(&mut self.cache, ctx.now());
                let Some(payload) = payload else { return };
                profile.memo.fill(wire, &payload, timing);
                (payload, miss)
            }
        };
        let Some(reply) = reply_packet(&packet, payload) else { return };
        if miss {
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
        &self.profile.name
    }

    /// The service addresses alone: the egress only stamps answers, and no
    /// packet is ever sent to it.
    fn prefixes(&self, report: &mut dyn FnMut(Cidr)) {
        self.profile.service_addrs.iter().for_each(|&addr| report(Cidr::host(addr)));
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
        RecursiveResolver::with_profile(isp_profile(ResolverMode::Normal))
    }

    /// A fresh profile of the ISP resolver above, in `mode`.
    fn isp_profile(mode: ResolverMode) -> Arc<ResolverProfile> {
        Arc::new(ResolverProfile::new(
            "isp-resolver",
            ["75.75.75.75".parse::<IpAddr>().unwrap()],
            ResolveCtx::v4("75.75.75.10".parse().unwrap()),
            world(),
            SoftwareProfile::unbound("1.9.0"),
            mode,
        ))
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
        let profile = isp_profile(ResolverMode::NxWildcard("75.75.0.99".parse().unwrap()));
        let (mut sim, client, _r) = harness(RecursiveResolver::with_profile(profile));
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
        let profile = isp_profile(ResolverMode::RefuseAll);
        let (mut sim, client, _r) = harness(RecursiveResolver::with_profile(profile));
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
        assert_eq!(sim.device::<RecursiveResolver>(r).unwrap().cache_stats(), (0, 0));
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

    /// Asks `question` under `id` at the harness's current time and runs
    /// the world until quiet: the reply's delay and payload.
    fn timed_ask(
        sim: &mut Simulator,
        client: netsim::NodeId,
        question: &Question,
        id: u16,
    ) -> (u64, Bytes) {
        let start = sim.now();
        sim.inject(client, IfaceId(0), query_pkt(question.clone(), id));
        sim.run_to_quiescence();
        let mut inbox = sim.device_mut::<Host>(client).unwrap().drain_inbox();
        assert_eq!(inbox.len(), 1, "expected exactly one response");
        let delivery = inbox.remove(0);
        let payload = delivery.packet.udp_payload().unwrap().payload.clone();
        (delivery.at.duration_since(start).as_millis(), payload)
    }

    fn example_a() -> Question {
        Question::new("example.com".parse().unwrap(), RType::A)
    }

    #[test]
    fn worlds_sharing_a_warm_profile_each_pay_the_miss_on_their_first_ask() {
        let profile = isp_profile(ResolverMode::Normal);
        let mut first_world = None;
        for world in 0..2 {
            let (mut sim, client, r) =
                harness(RecursiveResolver::with_profile(Arc::clone(&profile)));
            // The first ask pays the 12 ms recursion latency on top of the
            // 2 x 5 ms link, memo hit or not; the repeat is the cache's.
            let (first, payload) = timed_ask(&mut sim, client, &example_a(), 0x100 + world);
            let (repeat, _) = timed_ask(&mut sim, client, &example_a(), 0x200 + world);
            assert_eq!((first, repeat), (22, 10), "world {world}");
            assert_eq!(sim.device::<RecursiveResolver>(r).unwrap().cache_stats(), (1, 1));
            // The second world's reply is the first's, under its own ID.
            let first_payload = first_world.get_or_insert_with(|| payload.clone());
            assert_eq!(first_payload[2..], payload[2..]);
        }
    }

    #[test]
    fn a_repeat_in_another_letter_case_within_the_ttl_is_immediate() {
        let (mut sim, client, r) =
            harness(RecursiveResolver::with_profile(isp_profile(ResolverMode::Normal)));
        let (first, lower) = timed_ask(&mut sim, client, &example_a(), 1);
        let shouted = Question::new("EXAMPLE.Com".parse().unwrap(), RType::A);
        let (repeat, upper) = timed_ask(&mut sim, client, &shouted, 1);
        assert_eq!((first, repeat), (22, 10));
        assert_eq!(sim.device::<RecursiveResolver>(r).unwrap().cache_stats(), (1, 1));
        // The same reply but for the question as asked.
        let (lower, upper) = (Message::parse(&lower).unwrap(), Message::parse(&upper).unwrap());
        assert_eq!(upper.question(), Some(&shouted));
        assert_eq!(
            upper.answers.iter().map(|r| &r.rdata).collect::<Vec<_>>(),
            lower.answers.iter().map(|r| &r.rdata).collect::<Vec<_>>()
        );
    }

    #[test]
    fn a_repeat_after_the_ttl_pays_the_miss_again() {
        // The probe name's records live 60 s.
        let probe = Question::new("probe.dns-hijack-study.example".parse().unwrap(), RType::A);
        let (mut sim, client, r) =
            harness(RecursiveResolver::with_profile(isp_profile(ResolverMode::Normal)));
        let (first, _) = timed_ask(&mut sim, client, &probe, 1);
        let (fresh, _) = timed_ask(&mut sim, client, &probe, 2);
        sim.run_until(sim.now() + SimDuration::from_secs(60));
        let (stale, _) = timed_ask(&mut sim, client, &probe, 3);
        assert_eq!((first, fresh, stale), (22, 10, 22));
        assert_eq!(sim.device::<RecursiveResolver>(r).unwrap().cache_stats(), (1, 2));
    }

    #[test]
    fn refused_and_chaos_replies_leave_the_cache_untouched() {
        for mode in [ResolverMode::Normal, ResolverMode::RefuseAll] {
            let profile = isp_profile(mode);
            let (mut sim, client, r) = harness(RecursiveResolver::with_profile(profile));
            let mut asked = vec![
                Question::chaos_txt(debug_queries::version_bind()),
                Question::chaos_txt(debug_queries::id_server()),
                Question {
                    qname: "example.com".parse().unwrap(),
                    qtype: RType::A,
                    qclass: RClass::Hesiod,
                },
            ];
            if mode == ResolverMode::RefuseAll {
                asked.push(example_a());
            }
            // Twice each: the first fills the memo, the second is a hit.
            for (i, question) in asked.iter().chain(&asked).enumerate() {
                let (delay, _) = timed_ask(&mut sim, client, question, i as u16);
                assert_eq!(delay, 10, "{mode:?} {question:?} is sent at once");
            }
            assert_eq!(
                sim.device::<RecursiveResolver>(r).unwrap().cache_stats(),
                (0, 0),
                "{mode:?}"
            );
        }
    }
}
