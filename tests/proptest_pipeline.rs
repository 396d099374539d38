//! Property tests over the full packet pipeline: arbitrary query streams
//! through arbitrary household scenarios never panic, never cross flows,
//! and always honor the source-match rule.

use interception::{CpeModelKind, HomeScenario, MiddleboxSpec, SimTransport};
use locator::{QueryOptions, QueryOutcome, QueryTransport};
use proptest::prelude::*;

fn arb_scenario() -> impl Strategy<Value = HomeScenario> {
    prop_oneof![
        Just(HomeScenario::clean()),
        Just(HomeScenario::xb6_case_study()),
        Just(HomeScenario::isp_middlebox()),
        Just(HomeScenario {
            cpe_model: CpeModelKind::PiHole { version: "2.87".into() },
            ..HomeScenario::clean()
        }),
        Just(HomeScenario {
            cpe_model: CpeModelKind::OpenWanForwarder { version: "2.80".into() },
            middlebox: Some(MiddleboxSpec::redirect_all_to_isp()),
            ..HomeScenario::clean()
        }),
        Just(HomeScenario {
            background_clients: 2,
            ..HomeScenario::xb6_case_study()
        }),
    ]
}

#[derive(Debug, Clone)]
enum QueryKind {
    LocationQuery(usize),
    VersionBindToCpe,
    ARecord(String),
    Bogon,
}

fn arb_query() -> impl Strategy<Value = QueryKind> {
    prop_oneof![
        (0usize..4).prop_map(QueryKind::LocationQuery),
        Just(QueryKind::VersionBindToCpe),
        "[a-z]{1,12}".prop_map(|l| QueryKind::ARecord(format!("{l}.example.com"))),
        Just(QueryKind::Bogon),
    ]
}

proptest! {
    // Each case builds a full simulated world; keep the count moderate.
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn arbitrary_query_streams_never_panic_or_cross_flows(
        scenario in arb_scenario(),
        queries in proptest::collection::vec(arb_query(), 1..20),
    ) {
        let built = scenario.build();
        let cpe_v4 = built.addrs.cpe_public_v4;
        let mut transport = SimTransport::new(built);
        let resolvers = locator::default_resolvers();
        let opts = QueryOptions { timeout_ms: 4_000, ..QueryOptions::default() };
        let mut txid: u16 = 0x2000;
        for kind in queries {
            let (server, question) = match kind {
                QueryKind::LocationQuery(i) => {
                    let r = &resolvers[i % 4];
                    (r.v4[0], r.location_query())
                }
                QueryKind::VersionBindToCpe => (
                    std::net::IpAddr::V4(cpe_v4),
                    dns_wire::Question::chaos_txt(
                        dns_wire::debug_queries::version_bind(),
                    ),
                ),
                QueryKind::ARecord(name) => (
                    resolvers[1].v4[0],
                    dns_wire::Question::new(name.parse().unwrap(), dns_wire::RType::A),
                ),
                QueryKind::Bogon => (
                    "198.51.100.53".parse().unwrap(),
                    dns_wire::Question::new(
                        "probe.dns-hijack-study.example".parse().unwrap(),
                        dns_wire::RType::A,
                    ),
                ),
            };
            txid = txid.wrapping_add(1);
            match transport.query(server, &question, txid, opts) {
                QueryOutcome::Response(resp) => {
                    // Flow integrity: the answer echoes our question.
                    prop_assert!(resp.header().qr);
                    if let Some(q) = resp.view().question() {
                        prop_assert!(q.qname.eq_name(&question.qname));
                        prop_assert_eq!(q.qtype, question.qtype);
                    }
                }
                QueryOutcome::Timeout => {}
                QueryOutcome::WrongSource { message, .. } => {
                    // A mis-sourced reply still echoes our question; only
                    // its source address disqualifies it.
                    prop_assert!(message.header().qr);
                }
            }
        }
    }

    #[test]
    fn interleaved_transports_stay_independent(seed_a in 0u64..1000, seed_b in 0u64..1000) {
        // Two probes measured in lockstep must each behave as if alone.
        let mut sa = HomeScenario::xb6_case_study();
        sa.seed = seed_a;
        let mut sb = HomeScenario::clean();
        sb.seed = seed_b;
        let mut ta = SimTransport::new(sa.build());
        let mut tb = SimTransport::new(sb.build());
        let resolvers = locator::default_resolvers();
        let opts = QueryOptions::default();
        for (i, r) in resolvers.iter().enumerate() {
            let a = ta.query(r.v4[0], &r.location_query(), 0x2000 + i as u16, opts);
            let b = tb.query(r.v4[0], &r.location_query(), 0x2000 + i as u16, opts);
            // The XB6 home never sees a standard answer; the clean home
            // always does.
            if let QueryOutcome::Response(resp) = &a {
                prop_assert!(!r.is_standard_location_response(&resp.view()));
            }
            let resp = b.response().expect("clean home answers");
            prop_assert!(r.is_standard_location_response(&resp.view()));
        }
    }

    #[test]
    fn attempts_one_reproduces_single_shot_reports(scenario in arb_scenario(), seed in 0u64..500) {
        // attempts=1 *is* the single-shot pipeline: with the retry budget
        // at one, the report is bit-for-bit what the default configuration
        // produces — backoff setting and all (it never fires before a
        // first attempt).
        use locator::HijackLocator;
        let mut scenario = scenario;
        scenario.seed = seed;

        let built = scenario.clone().build();
        let config = built.locator_config();
        let default_report = HijackLocator::new(config).run(&mut SimTransport::new(built));

        let built = scenario.build();
        let mut config = built.locator_config();
        config.query_options.attempts = 1;
        config.query_options.retry_backoff_ms = 300;
        let explicit_report = HijackLocator::new(config).run(&mut SimTransport::new(built));

        prop_assert_eq!(&default_report, &explicit_report);
        prop_assert_eq!(default_report.wire_attempts, default_report.queries_sent);
        prop_assert_eq!(default_report.retried_queries, 0);
    }
}
