//! A scripted [`QueryTransport`] for unit tests and benchmarks.
//!
//! Rules are matched first-match-wins; helper methods that *override*
//! behaviour (interception scenarios) insert at the front, so tests can
//! start from [`MockTransport::standard_public_resolvers`] and layer an
//! interceptor on top — mirroring how a real interceptor shadows the real
//! resolvers.
//!
//! Responses echo the caller's transaction ID, as a real server would.
//! Two fault knobs exercise the retry pipeline: a rule can time out for
//! its first `n` matches ([`MockTransport::push_flaky_rule`]) and a rule
//! can answer with a corrupted transaction ID ([`Respond::WrongTxid`]).

use crate::resolvers::default_resolvers;
use crate::transport::{QueryOptions, QueryOutcome, QueryTransport};
use dns_wire::debug_queries;
use dns_wire::{Message, Name, Question, RClass, RData, Rcode, Record, Reply};
use std::net::{IpAddr, Ipv4Addr};

/// How a matched rule responds.
#[derive(Debug, Clone)]
pub enum Respond {
    /// NOERROR with one TXT answer (class copied from the question).
    Txt(String),
    /// NOERROR with one A answer.
    A(Ipv4Addr),
    /// NOERROR with one AAAA answer.
    Aaaa(std::net::Ipv6Addr),
    /// A bare status-code response with no answers.
    Rcode(Rcode),
    /// No response at all.
    Timeout,
    /// Answers like the inner `Respond`, but with the response's
    /// transaction ID corrupted — a late or blindly spoofed reply that a
    /// correct transport must drop.
    WrongTxid(Box<Respond>),
    /// Answers like the inner `Respond` (right transaction ID), but the
    /// reply arrives from `IpAddr` instead of the queried server — the
    /// transparent-forwarder shape the source check must flag.
    WrongSource(IpAddr, Box<Respond>),
}

#[derive(Debug, Clone)]
struct Rule {
    /// `None` matches any server.
    servers: Option<Vec<IpAddr>>,
    /// `None` matches any name.
    qname: Option<Name>,
    /// `None` matches any class.
    qclass: Option<RClass>,
    /// The rule times out (without consuming `respond`) for this many
    /// matches before answering normally — a deterministic flaky server.
    remaining_failures: u32,
    respond: Respond,
}

impl Rule {
    fn matches(&self, server: IpAddr, q: &Question) -> bool {
        if let Some(servers) = &self.servers {
            if !servers.contains(&server) {
                return false;
            }
        }
        if let Some(name) = &self.qname {
            if *name != q.qname {
                return false;
            }
        }
        if let Some(class) = self.qclass {
            if class != q.qclass {
                return false;
            }
        }
        true
    }
}

/// The scripted transport.
#[derive(Debug, Default)]
pub struct MockTransport {
    rules: Vec<Rule>,
    /// Every query sent, for assertions about the technique's footprint.
    pub log: Vec<(IpAddr, Question)>,
    /// Transaction ID of every query sent, parallel to `log`.
    pub txid_log: Vec<u16>,
}

impl MockTransport {
    /// A transport that times out on everything.
    pub fn new() -> MockTransport {
        MockTransport::default()
    }

    /// Appends a low-priority rule.
    pub fn push_rule(
        &mut self,
        servers: Option<Vec<IpAddr>>,
        qname: Option<Name>,
        qclass: Option<RClass>,
        respond: Respond,
    ) {
        self.rules.push(Rule { servers, qname, qclass, remaining_failures: 0, respond });
    }

    /// Prepends a high-priority rule (interceptor layering).
    pub fn push_front_rule(
        &mut self,
        servers: Option<Vec<IpAddr>>,
        qname: Option<Name>,
        qclass: Option<RClass>,
        respond: Respond,
    ) {
        self.rules.insert(0, Rule { servers, qname, qclass, remaining_failures: 0, respond });
    }

    /// Prepends a rule that times out for its first `failures` matches and
    /// answers normally afterwards — a server behind a lossy link that a
    /// retrying pipeline can still reach.
    pub fn push_flaky_rule(
        &mut self,
        servers: Option<Vec<IpAddr>>,
        qname: Option<Name>,
        qclass: Option<RClass>,
        failures: u32,
        respond: Respond,
    ) {
        self.rules.insert(
            0,
            Rule { servers, qname, qclass, remaining_failures: failures, respond },
        );
    }

    /// Programs the standard (uninterfered) behaviour of all four public
    /// resolvers: Table-1 location answers, `version.bind` answered only by
    /// Quad9, and a whoami name resolving to each resolver's own egress.
    pub fn standard_public_resolvers(&mut self) {
        for resolver in default_resolvers() {
            let addrs: Vec<IpAddr> =
                resolver.v4.iter().chain(resolver.v6.iter()).copied().collect();
            let loc = resolver.location_query();
            let standard_text = match resolver.key {
                crate::resolvers::ResolverKey::Cloudflare => "IAD",
                crate::resolvers::ResolverKey::Google => "172.253.226.35",
                crate::resolvers::ResolverKey::Quad9 => "res100.iad.rrdns.pch.net",
                crate::resolvers::ResolverKey::OpenDns => "server m84.iad",
            };
            self.push_rule(
                Some(addrs.clone()),
                Some(loc.qname.clone()),
                Some(loc.qclass),
                Respond::Txt(standard_text.into()),
            );
            // version.bind: only Quad9 answers (§3.2).
            let vb_respond = match resolver.key {
                crate::resolvers::ResolverKey::Quad9 => Respond::Txt("Q9-P-6.1".into()),
                _ => Respond::Rcode(Rcode::NotImp),
            };
            self.push_rule(
                Some(addrs.clone()),
                Some(debug_queries::version_bind()),
                Some(RClass::Chaos),
                vb_respond,
            );
            // whoami resolves to an egress address of the real resolver.
            let egress: Ipv4Addr = match resolver.key {
                crate::resolvers::ResolverKey::Cloudflare => "172.68.1.1".parse().unwrap(),
                crate::resolvers::ResolverKey::Google => "172.253.226.35".parse().unwrap(),
                crate::resolvers::ResolverKey::Quad9 => "74.63.16.10".parse().unwrap(),
                crate::resolvers::ResolverKey::OpenDns => "146.112.1.1".parse().unwrap(),
            };
            self.push_rule(
                Some(addrs),
                Some(debug_queries::whoami_akamai()),
                Some(RClass::In),
                Respond::A(egress),
            );
        }
    }

    fn all_resolver_v4() -> Vec<IpAddr> {
        default_resolvers().iter().flat_map(|r| r.v4.iter().copied()).collect()
    }

    fn all_resolver_v6() -> Vec<IpAddr> {
        default_resolvers().iter().flat_map(|r| r.v6.iter().copied()).collect()
    }

    /// Layers an interceptor over every IPv4 resolver address: CHAOS queries
    /// are answered by a forwarder announcing `version`, Google's myaddr
    /// reveals a non-Google egress, and OpenDNS's debug name doesn't exist.
    pub fn intercept_all_v4_with_forwarder(&mut self, version: &str) {
        Self::intercept_with_forwarder(self, Self::all_resolver_v4(), version);
    }

    /// Same interceptor, over every IPv6 resolver address — for probes whose
    /// CPE also grabs v6 DNS.
    pub fn intercept_all_v6_with_forwarder(&mut self, version: &str) {
        Self::intercept_with_forwarder(self, Self::all_resolver_v6(), version);
    }

    fn intercept_with_forwarder(&mut self, addrs: Vec<IpAddr>, version: &str) {
        self.push_front_rule(
            Some(addrs.clone()),
            None,
            Some(RClass::Chaos),
            Respond::Txt(version.into()),
        );
        self.push_front_rule(
            Some(addrs.clone()),
            Some(debug_queries::google_myaddr()),
            Some(RClass::In),
            Respond::Txt("62.183.62.69".into()),
        );
        self.push_front_rule(
            Some(addrs),
            Some(debug_queries::opendns_debug()),
            Some(RClass::In),
            Respond::Rcode(Rcode::NxDomain),
        );
    }

    /// Layers an interceptor that answers every query to v4 resolver
    /// addresses with a DNS error status.
    pub fn intercept_all_v4_with_errors(&mut self, rcode: &str) {
        let rc = parse_rcode(rcode);
        self.push_front_rule(Some(Self::all_resolver_v4()), None, None, Respond::Rcode(rc));
    }

    /// The CPE's public IP answers `version.bind` with `text`.
    pub fn cpe_version_bind(&mut self, cpe: IpAddr, text: &str) {
        self.push_front_rule(
            Some(vec![cpe]),
            Some(debug_queries::version_bind()),
            Some(RClass::Chaos),
            Respond::Txt(text.into()),
        );
    }

    /// The CPE's public IP answers `version.bind` with an error status.
    pub fn cpe_version_bind_error(&mut self, cpe: IpAddr, rcode: &str) {
        self.push_front_rule(
            Some(vec![cpe]),
            Some(debug_queries::version_bind()),
            Some(RClass::Chaos),
            Respond::Rcode(parse_rcode(rcode)),
        );
    }

    /// The IPv4 bogon address answers queries (in-ISP interceptor). The
    /// argument names an rcode (`NOTIMP`, …) or anything else for a NOERROR
    /// + A answer.
    pub fn answer_bogon_v4(&mut self, observed: &str) {
        let bogon: IpAddr = "198.51.100.53".parse().unwrap();
        let respond = match observed {
            "NOTIMP" | "REFUSED" | "NXDOMAIN" | "SERVFAIL" => Respond::Rcode(parse_rcode(observed)),
            _ => Respond::A("10.53.53.53".parse().unwrap()),
        };
        self.push_front_rule(Some(vec![bogon]), None, None, respond);
    }

    /// Any whoami query anywhere resolves to `ip` (the alternate resolver's
    /// egress) — the transparent-interception shape.
    pub fn answer_whoami_with(&mut self, ip: &str) {
        self.push_front_rule(
            None,
            Some(debug_queries::whoami_akamai()),
            Some(RClass::In),
            Respond::A(ip.parse().expect("valid v4 in tests")),
        );
    }

    fn build_response(q: &Question, txid: u16, respond: &Respond) -> Option<Message> {
        let query = Message::query(txid, q.clone());
        match respond {
            Respond::Txt(text) => {
                let mut rec = Record::new(q.qname.clone(), 0, RData::txt(text.as_bytes()));
                rec.class = q.qclass;
                Some(Message::response_to(&query, Rcode::NoError).with_answer(rec))
            }
            Respond::A(ip) => Some(
                Message::response_to(&query, Rcode::NoError)
                    .with_answer(Record::new(q.qname.clone(), 30, RData::A(*ip))),
            ),
            Respond::Aaaa(ip) => Some(
                Message::response_to(&query, Rcode::NoError)
                    .with_answer(Record::new(q.qname.clone(), 30, RData::Aaaa(*ip))),
            ),
            Respond::Rcode(rc) => Some(Message::response_to(&query, *rc)),
            Respond::Timeout => None,
            Respond::WrongTxid(inner) => {
                let mut msg = Self::build_response(q, txid, inner)?;
                msg.header.id ^= 0x5A5A;
                Some(msg)
            }
            // The outcome-level rewrite happens in `query`; the message
            // itself is the inner one, txid intact.
            Respond::WrongSource(_, inner) => Self::build_response(q, txid, inner),
        }
    }
}

fn parse_rcode(s: &str) -> Rcode {
    match s {
        "NOTIMP" => Rcode::NotImp,
        "REFUSED" => Rcode::Refused,
        "NXDOMAIN" => Rcode::NxDomain,
        "SERVFAIL" => Rcode::ServFail,
        _ => Rcode::NoError,
    }
}

impl QueryTransport for MockTransport {
    fn query(
        &mut self,
        server: IpAddr,
        question: &Question,
        txid: u16,
        _opts: QueryOptions,
    ) -> QueryOutcome {
        self.log.push((server, question.clone()));
        self.txid_log.push(txid);
        for rule in &mut self.rules {
            if rule.matches(server, question) {
                if rule.remaining_failures > 0 {
                    rule.remaining_failures -= 1;
                    return QueryOutcome::Timeout;
                }
                // Handed out as encoded bytes, as a real transport receives
                // them.
                let Some(reply) = Self::build_response(question, txid, &rule.respond)
                    .map(|m| Reply::encode(&m).expect("scripted replies encode"))
                else {
                    return QueryOutcome::Timeout;
                };
                return match &rule.respond {
                    Respond::WrongSource(from, _) => {
                        QueryOutcome::WrongSource { message: reply, from: *from }
                    }
                    _ => QueryOutcome::Response(reply),
                };
            }
        }
        QueryOutcome::Timeout
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resolvers::ResolverKey;

    fn q(t: &mut MockTransport, server: IpAddr, question: Question) -> QueryOutcome {
        t.query(server, &question, 0x1234, QueryOptions::default())
    }

    #[test]
    fn default_is_timeout() {
        let mut t = MockTransport::new();
        let out = q(
            &mut t,
            "1.1.1.1".parse().unwrap(),
            Question::chaos_txt("id.server".parse().unwrap()),
        );
        assert!(out.is_timeout());
        assert_eq!(t.log.len(), 1);
        assert_eq!(t.txid_log, vec![0x1234]);
    }

    #[test]
    fn standard_rules_answer_location_queries() {
        let mut t = MockTransport::new();
        t.standard_public_resolvers();
        for r in default_resolvers() {
            let out = q(&mut t, r.v4[0], r.location_query());
            let reply = out.response().expect("response expected");
            assert!(r.is_standard_location_response(&reply.view()), "{:?}", r.key);
            assert_eq!(reply.header().id, 0x1234, "response echoes the query txid");
        }
    }

    #[test]
    fn quad9_answers_version_bind_others_notimp() {
        let mut t = MockTransport::new();
        t.standard_public_resolvers();
        let vb = Question::chaos_txt("version.bind".parse().unwrap());
        for r in default_resolvers() {
            let out = q(&mut t, r.v4[0], vb.clone());
            let msg = out.response().unwrap().to_message();
            if r.key == ResolverKey::Quad9 {
                assert_eq!(msg.answers[0].rdata.txt_string().unwrap(), "Q9-P-6.1");
            } else {
                assert_eq!(msg.header.rcode, Rcode::NotImp);
            }
        }
    }

    #[test]
    fn front_rules_shadow_standard_ones() {
        let mut t = MockTransport::new();
        t.standard_public_resolvers();
        t.intercept_all_v4_with_forwarder("dnsmasq-2.85");
        // v4 is shadowed…
        let r = &default_resolvers()[0];
        let out = q(&mut t, r.v4[0], r.location_query());
        assert!(!r.is_standard_location_response(&out.response().unwrap().view()));
        // …but v6 still answers standard.
        let out = q(&mut t, r.v6[0], r.location_query());
        assert!(r.is_standard_location_response(&out.response().unwrap().view()));
    }

    #[test]
    fn flaky_rule_times_out_then_answers() {
        let mut t = MockTransport::new();
        let server: IpAddr = "1.1.1.1".parse().unwrap();
        t.push_flaky_rule(Some(vec![server]), None, None, 2, Respond::Txt("IAD".into()));
        let question = Question::chaos_txt("id.server".parse().unwrap());
        assert!(q(&mut t, server, question.clone()).is_timeout());
        assert!(q(&mut t, server, question.clone()).is_timeout());
        let out = q(&mut t, server, question);
        let answer = out.response().unwrap().to_message().answers[0].rdata.txt_string();
        assert_eq!(answer.as_deref(), Some("IAD"));
    }

    #[test]
    fn wrong_source_rules_surface_the_foreign_address() {
        let mut t = MockTransport::new();
        let server: IpAddr = "1.1.1.1".parse().unwrap();
        let upstream: IpAddr = "9.9.9.9".parse().unwrap();
        t.push_rule(
            None,
            None,
            None,
            Respond::WrongSource(upstream, Box::new(Respond::Txt("IAD".into()))),
        );
        let out = q(&mut t, server, Question::chaos_txt("id.server".parse().unwrap()));
        assert!(out.response().is_none(), "wrong-source replies are not accepted answers");
        assert_eq!(out.wrong_source(), Some(upstream));
        match out {
            QueryOutcome::WrongSource { message, from } => {
                assert_eq!(from, upstream);
                assert_eq!(message.header().id, 0x1234, "the txid itself is right");
            }
            other => panic!("expected WrongSource, got {other:?}"),
        }
    }

    #[test]
    fn wrong_txid_responses_carry_a_corrupted_id() {
        let mut t = MockTransport::new();
        let server: IpAddr = "1.1.1.1".parse().unwrap();
        t.push_rule(None, None, None, Respond::WrongTxid(Box::new(Respond::Txt("IAD".into()))));
        let out = q(&mut t, server, Question::chaos_txt("id.server".parse().unwrap()));
        let reply = out.response().unwrap();
        assert_ne!(reply.header().id, 0x1234);
        assert_eq!(reply.header().id, 0x1234 ^ 0x5A5A);
    }
}
