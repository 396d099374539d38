//! Property-based tests for the locator: validators never panic on
//! arbitrary response content, and classification invariants hold.

use dns_wire::{Message, RData, Rcode, Record, Reply};
use locator::{
    default_resolvers, HijackLocator, InterceptorLocation, LocatorConfig, MockTransport,
    Respond,
};
use proptest::prelude::*;

fn arb_txt() -> impl Strategy<Value = String> {
    "[ -~]{0,80}"
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn validators_never_panic_on_arbitrary_txt(text in arb_txt()) {
        for resolver in default_resolvers() {
            let q = resolver.location_query();
            let query = Message::query(1, q.clone());
            let mut rec = Record::new(q.qname.clone(), 0, RData::txt(text.as_bytes()));
            rec.class = q.qclass;
            let resp = Message::response_to(&query, Rcode::NoError).with_answer(rec);
            let _ = resolver.is_standard_location_response(&Reply::encode(&resp).unwrap().view());
        }
    }

    #[test]
    fn validators_reject_random_strings(text in "[a-z0-9 .-]{1,40}") {
        // Strings that don't match any canonical shape are never accepted
        // by validators with strict shapes (Cloudflare, OpenDNS, Quad9).
        prop_assume!(text.len() != 3 || !text.bytes().all(|b| b.is_ascii_uppercase()));
        prop_assume!(!text.starts_with("server m"));
        prop_assume!(!(text.starts_with("res") && text.ends_with(".pch.net")));
        for resolver in default_resolvers() {
            if resolver.key == locator::ResolverKey::Google {
                continue; // Google validates by IP parse, covered below
            }
            let q = resolver.location_query();
            let query = Message::query(1, q.clone());
            let mut rec = Record::new(q.qname.clone(), 0, RData::txt(text.as_bytes()));
            rec.class = q.qclass;
            let resp = Message::response_to(&query, Rcode::NoError).with_answer(rec);
            prop_assert!(!resolver.is_standard_location_response(&Reply::encode(&resp).unwrap().view()), "{:?} accepted {text:?}", resolver.key);
        }
    }

    #[test]
    fn google_validator_accepts_exactly_its_egress(oct in any::<[u8; 4]>()) {
        let google = default_resolvers().remove(1);
        let ip = std::net::Ipv4Addr::from(oct);
        let q = google.location_query();
        let query = Message::query(1, q.clone());
        let resp = Message::response_to(&query, Rcode::NoError)
            .with_answer(Record::new(q.qname.clone(), 0, RData::txt(ip.to_string())));
        let accepted = google.is_standard_location_response(&Reply::encode(&resp).unwrap().view());
        prop_assert_eq!(accepted, google.egress_contains(std::net::IpAddr::V4(ip)));
    }

    #[test]
    fn interceptor_version_string_always_recovered(version in "[!-~]{1,30}") {
        // Whatever string the CPE forwarder announces, step 2 must carry it
        // into the report verbatim.
        let cpe: std::net::IpAddr = "73.22.1.5".parse().unwrap();
        let mut t = MockTransport::new();
        t.standard_public_resolvers();
        t.intercept_all_v4_with_forwarder(&version);
        t.cpe_version_bind(cpe, &version);
        let config = LocatorConfig { cpe_public_v4: Some(cpe), ..LocatorConfig::default() };
        let report = HijackLocator::new(config).run(&mut t);
        prop_assert!(report.intercepted);
        prop_assert_eq!(report.location, Some(InterceptorLocation::Cpe));
        let cpe_ev = report.cpe.expect("step 2 ran");
        prop_assert_eq!(cpe_ev.cpe_response.text(), Some(version.as_str()));
    }

    #[test]
    fn mismatched_strings_never_blame_the_cpe(
        interceptor_version in "[!-~]{1,20}",
        cpe_version in "[!-~]{1,20}",
    ) {
        prop_assume!(interceptor_version != cpe_version);
        let cpe: std::net::IpAddr = "73.22.1.5".parse().unwrap();
        let mut t = MockTransport::new();
        t.standard_public_resolvers();
        t.intercept_all_v4_with_forwarder(&interceptor_version);
        t.cpe_version_bind(cpe, &cpe_version);
        t.answer_bogon_v4("NOTIMP");
        let config = LocatorConfig { cpe_public_v4: Some(cpe), ..LocatorConfig::default() };
        let report = HijackLocator::new(config).run(&mut t);
        prop_assert!(report.intercepted);
        prop_assert_ne!(report.location, Some(InterceptorLocation::Cpe));
    }

    #[test]
    fn arbitrary_rule_sets_never_panic_the_locator(
        respond_error in any::<bool>(),
        drop_everything in any::<bool>(),
    ) {
        let mut t = MockTransport::new();
        if !drop_everything {
            if respond_error {
                t.push_rule(None, None, None, Respond::Rcode(Rcode::ServFail));
            } else {
                t.push_rule(None, None, None, Respond::Txt("whatever".into()));
            }
        }
        let report = HijackLocator::new(LocatorConfig::default()).run(&mut t);
        // Timeout-everything ⇒ not intercepted (conservative rule).
        if drop_everything {
            prop_assert!(!report.intercepted);
        }
    }
}
