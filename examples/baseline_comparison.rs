//! Compares the paper's technique against the three baselines it discusses:
//!
//! * the naive **A-record** CPE detector (Appendix A) — shown to blame an
//!   innocent CPE whenever its port 53 is open and a downstream interceptor
//!   exists;
//! * the **hostname.bind toward roots** technique (Jones et al.) — only
//!   sees manipulation of root-server traffic;
//! * the **own-authoritative reflection** technique (Liu et al.) — detects
//!   interception but cannot localize it.
//!
//! ```text
//! cargo run --example baseline_comparison
//! ```

use interception::{CpeModelKind, HomeScenario, MiddleboxSpec, SimTransport};
use locator::baseline::{
    a_record_cpe_check, hostname_bind_root_check, own_authoritative_check, ARecordVerdict,
    PrevalenceVerdict, RootCheckVerdict,
};
use locator::{default_resolvers, HijackLocator, QueryOptions, ResolverKey, TxidSequence};
use std::net::IpAddr;

fn main() {
    let scenarios: Vec<(&str, HomeScenario)> = vec![
        ("clean home", HomeScenario::clean()),
        ("buggy XB6 (CPE interceptor)", HomeScenario::xb6_case_study()),
        ("ISP middlebox", HomeScenario::isp_middlebox()),
        (
            "open-port-53 CPE + ISP middlebox (Appendix A)",
            HomeScenario {
                cpe_model: CpeModelKind::OpenWanForwarder { version: "2.80".into() },
                middlebox: Some(MiddleboxSpec::redirect_all_to_isp()),
                ..HomeScenario::clean()
            },
        ),
    ];

    println!(
        "{:<46} {:<22} {:<14} {:<22} {:<18}",
        "scenario", "A-record baseline", "root check", "own-authoritative", "three-step verdict"
    );
    for (label, scenario) in scenarios {
        let built = scenario.build();
        let cpe_public: IpAddr = built.addrs.cpe_public_v4.into();
        let truth = built.truth.clone();
        let config = built.locator_config();
        let mut transport = SimTransport::new(built);
        let mut txids = TxidSequence::new(0x7000);
        let opts = QueryOptions::default();

        let a_record = a_record_cpe_check(
            &mut transport,
            cpe_public,
            "8.8.8.8".parse().unwrap(),
            &"example.com".parse().unwrap(),
            &mut txids,
            opts,
        );
        let a_record = match a_record {
            ARecordVerdict::ClaimsCpe { .. } => "claims CPE",
            ARecordVerdict::ClearsCpe => "clears CPE",
            ARecordVerdict::NoCpeAnswer => "no CPE answer",
        };

        // Root servers are not modelled as reachable in the home scenario,
        // so the root check sees either silence or — under a blanket
        // interceptor — the interceptor's answer to hostname.bind.
        let roots = locator::baseline::default_root_addrs();
        let root = match hostname_bind_root_check(
            &mut transport,
            &roots,
            |s| s.contains("root"),
            &mut txids,
            opts,
        ) {
            RootCheckVerdict::Clean => "clean",
            RootCheckVerdict::Manipulated { .. } => "manipulated",
            RootCheckVerdict::NoAnswer => "no answer",
        };

        let google = default_resolvers()
            .into_iter()
            .find(|r| r.key == ResolverKey::Google)
            .expect("catalog has Google");
        let reflect: dns_wire::Name = "reflect.dns-hijack-study.example".parse().unwrap();
        let prevalence =
            match own_authoritative_check(&mut transport, &google, &reflect, &mut txids, opts) {
                PrevalenceVerdict::Clean { .. } => "clean",
                PrevalenceVerdict::Intercepted { .. } => "intercepted (loc?)",
                PrevalenceVerdict::Inconclusive => "inconclusive",
            };

        let report = HijackLocator::new(config).run(&mut transport);
        let verdict = match report.location {
            Some(l) => format!("{l}"),
            None => "not intercepted".into(),
        };

        println!("{label:<46} {a_record:<22} {root:<14} {prevalence:<22} {verdict:<18}   (truth: {truth:?})");
    }
}
