//! Property-based tests for the resolver components.

use dns_wire::{Message, MessageView, Question, RData, RType, Rcode, Record};
use netsim::{SimDuration, SimTime};
use proptest::prelude::*;
use resolver_sim::{DnsCache, ForwarderCore, FwdAction, ResolveResult, SoftwareProfile};

fn arb_name() -> impl Strategy<Value = dns_wire::Name> {
    proptest::collection::vec("[a-z0-9]{1,12}", 1..=4)
        .prop_map(|labels| labels.join(".").parse().expect("valid labels"))
}

fn arb_question() -> impl Strategy<Value = Question> {
    (arb_name(), prop_oneof![Just(RType::A), Just(RType::Aaaa), Just(RType::Txt)])
        .prop_map(|(n, t)| Question::new(n, t))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn cache_never_serves_expired_entries(
        q in arb_question(),
        ttl in 0u32..=600,
        probe_offset in 0u64..=1200,
    ) {
        let mut cache = DnsCache::new(64);
        let result = ResolveResult {
            rcode: Rcode::NoError,
            answers: vec![Record::new(q.qname.clone(), ttl, RData::A("1.2.3.4".parse().unwrap()))],
            authenticated: false,
        };
        cache.put(&q, result, SimTime::ZERO);
        let at = SimTime::ZERO + SimDuration::from_secs(probe_offset);
        let hit = cache.get(&q, at);
        if probe_offset < ttl as u64 {
            prop_assert!(hit.is_some());
        } else if probe_offset > ttl as u64 {
            prop_assert!(hit.is_none());
        }
    }

    #[test]
    fn cache_capacity_is_never_exceeded(
        questions in proptest::collection::vec(arb_question(), 1..40),
        capacity in 1usize..=8,
    ) {
        let mut cache = DnsCache::new(capacity);
        for q in &questions {
            cache.put(
                &q.clone(),
                ResolveResult { rcode: Rcode::NxDomain, answers: vec![], authenticated: false },
                SimTime::ZERO,
            );
            prop_assert!(cache.len() <= capacity);
        }
    }

    #[test]
    fn forwarder_roundtrips_any_batch_of_queries(
        ids in proptest::collection::vec(any::<u16>(), 1..60),
        names in proptest::collection::vec("[a-z]{1,10}", 1..4),
    ) {
        let mut fwd: ForwarderCore<usize> =
            ForwarderCore::new(SoftwareProfile::dnsmasq("2.85"), "75.75.75.75".parse().unwrap());
        let name: dns_wire::Name = format!("{}.example.com", names.join(".")).parse().unwrap();
        let mut relayed = Vec::new();
        for (i, id) in ids.iter().enumerate() {
            let q = Message::query(*id, Question::new(name.clone(), RType::A)).encode().unwrap();
            match fwd.handle_query(&MessageView::parse(&q).unwrap(), i) {
                FwdAction::Forward(m) => relayed.push((i, *id, m)),
                other => prop_assert!(false, "unexpected action {other:?}"),
            }
        }
        // All relayed transaction IDs are distinct.
        let mut txids: Vec<u16> = relayed.iter().map(|(_, _, m)| m.header.id).collect();
        txids.sort_unstable();
        txids.dedup();
        prop_assert_eq!(txids.len(), relayed.len());
        // Each response is matched back to its metadata with its original id.
        for (meta, orig_id, m) in relayed {
            let resp = Message::response_to(&m, Rcode::NoError);
            let (got_meta, restored) = fwd.handle_upstream_response(resp).expect("pending");
            prop_assert_eq!(got_meta, meta);
            prop_assert_eq!(restored.header.id, orig_id);
        }
        prop_assert_eq!(fwd.pending_len(), 0);
    }

    #[test]
    fn forwarder_rejects_unknown_txids(txid in any::<u16>()) {
        let mut fwd: ForwarderCore<()> =
            ForwarderCore::new(SoftwareProfile::dnsmasq("2.85"), "75.75.75.75".parse().unwrap());
        let fake_query = Message::query(txid, Question::new("x.example".parse().unwrap(), RType::A));
        let fake = Message::response_to(&fake_query, Rcode::NoError);
        prop_assert!(fwd.handle_upstream_response(fake).is_none());
    }

    #[test]
    fn zone_parser_never_panics(text in "[ -~\n]{0,400}") {
        let _ = resolver_sim::parse_zone(&text, "fuzz.test");
    }
}
