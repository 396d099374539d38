//! Baseline detectors the paper compares against or argues about.
//!
//! * [`a_record_cpe_check`] — the naive Appendix-A detector: use an ordinary
//!   A-record query instead of `version.bind` to decide whether the CPE is
//!   the interceptor. The appendix shows it *misclassifies* a
//!   port-53-open-but-innocent CPE whenever a downstream interceptor exists;
//!   the ablation bench reproduces that failure.
//! * [`hostname_bind_root_check`] — the Jones et al. technique: CHAOS
//!   `hostname.bind` toward root-server addresses detects manipulation of
//!   *root* traffic only.
//! * [`own_authoritative_check`] — the Liu et al. prevalence technique: a
//!   query for a name under the experimenters' own zone whose authoritative
//!   server reflects the egress address that asked; a non-matching egress
//!   proves interception but says nothing about *where*.

use crate::detector::describe_response;
use crate::resolvers::PublicResolver;
use crate::transport::{
    query_with_retry, QueryOptions, QueryOutcome, QueryTransport, TxidSequence,
};
use dns_wire::debug_queries;
use dns_wire::{Name, Question, RData, RType};
use serde::{Deserialize, Serialize};
use std::net::IpAddr;
use std::sync::Arc;

/// Verdict of the naive A-record CPE detector.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum ARecordVerdict {
    /// Answers matched: the naive method claims the CPE is the interceptor.
    ClaimsCpe {
        /// The (identical) answer both paths returned.
        answer: String,
    },
    /// Answers differed or were missing: the naive method clears the CPE.
    ClearsCpe,
    /// The CPE did not answer at all (port 53 closed): no claim possible.
    NoCpeAnswer,
}

/// Appendix-A baseline: query `test_name` (an ordinary A record) at the
/// CPE's public address and at one public resolver; identical answers are
/// taken — incorrectly, as the appendix explains — as proof the CPE
/// intercepts.
pub fn a_record_cpe_check<T: QueryTransport>(
    transport: &mut T,
    cpe_public: IpAddr,
    resolver_addr: IpAddr,
    test_name: &Name,
    txids: &mut TxidSequence,
    opts: QueryOptions,
) -> ARecordVerdict {
    let q = Question::new(test_name.clone(), RType::A);
    let via_cpe = query_with_retry(transport, cpe_public, &q, txids, opts).outcome;
    let via_resolver = query_with_retry(transport, resolver_addr, &q, txids, opts).outcome;
    let cpe_answer = match &via_cpe {
        QueryOutcome::Response(m) => first_a(m),
        QueryOutcome::Timeout | QueryOutcome::WrongSource { .. } => {
            return ARecordVerdict::NoCpeAnswer
        }
    };
    let resolver_answer = via_resolver.response().and_then(first_a);
    match (cpe_answer, resolver_answer) {
        (Some(a), Some(b)) if a == b => ARecordVerdict::ClaimsCpe { answer: a.to_string() },
        (None, _) => ARecordVerdict::NoCpeAnswer,
        _ => ARecordVerdict::ClearsCpe,
    }
}

fn first_a(m: &dns_wire::Message) -> Option<std::net::Ipv4Addr> {
    m.answers.iter().find_map(|r| match r.rdata {
        RData::A(ip) => Some(ip),
        _ => None,
    })
}

/// Verdict of the hostname.bind root-manipulation check.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum RootCheckVerdict {
    /// All answering roots produced names matching the expected pattern.
    Clean,
    /// At least one root's identity string did not match — manipulation.
    Manipulated {
        /// The observed non-matching identity.
        observed: String,
    },
    /// No root answered.
    NoAnswer,
}

/// Jones-et-al. baseline: CHAOS `hostname.bind` to each root-server address;
/// `is_expected` decides whether an identity string is plausible for that
/// root (e.g. `*.root-servers.org`-style node names).
pub fn hostname_bind_root_check<T: QueryTransport>(
    transport: &mut T,
    root_addrs: &[IpAddr],
    is_expected: impl Fn(&str) -> bool,
    txids: &mut TxidSequence,
    opts: QueryOptions,
) -> RootCheckVerdict {
    let mut answered = false;
    for &root in root_addrs {
        let q = Question::chaos_txt(debug_queries::hostname_bind());
        if let QueryOutcome::Response(m) = query_with_retry(transport, root, &q, txids, opts).outcome {
            answered = true;
            let observed = describe_response(&m);
            if m.header.rcode.is_error() || !is_expected(&observed) {
                return RootCheckVerdict::Manipulated { observed };
            }
        }
    }
    if answered {
        RootCheckVerdict::Clean
    } else {
        RootCheckVerdict::NoAnswer
    }
}

/// The classic root-server addresses (a subset suffices for the check),
/// in one shared list.
pub fn default_root_addrs() -> Arc<[IpAddr]> {
    ["198.41.0.4", "199.9.14.201", "192.33.4.12", "199.7.91.13"]
        .iter()
        .map(|s| s.parse().expect("static address"))
        .collect()
}

/// Verdict of the own-authoritative prevalence check.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum PrevalenceVerdict {
    /// The reflected egress belongs to the target resolver: clean path.
    Clean {
        /// The reflected egress address.
        egress: IpAddr,
    },
    /// The reflected egress is foreign: the query was intercepted somewhere
    /// (location unknown — the technique's limitation).
    Intercepted {
        /// The foreign egress address.
        egress: IpAddr,
    },
    /// No usable reflection came back.
    Inconclusive,
}

/// Liu-et-al. baseline: `reflector_name` lives in a zone the experimenters
/// control whose authoritative server answers TXT with the address that
/// asked it. Query it *through* the target resolver; a non-matching egress
/// proves interception.
pub fn own_authoritative_check<T: QueryTransport>(
    transport: &mut T,
    resolver: &PublicResolver,
    reflector_name: &Name,
    txids: &mut TxidSequence,
    opts: QueryOptions,
) -> PrevalenceVerdict {
    let q = Question::new(reflector_name.clone(), RType::Txt);
    match query_with_retry(transport, resolver.v4[0], &q, txids, opts).outcome {
        QueryOutcome::Response(m) => {
            let Some(text) = m.answers.iter().find_map(|r| r.rdata.txt_string()) else {
                return PrevalenceVerdict::Inconclusive;
            };
            let Ok(egress) = text.parse::<IpAddr>() else {
                return PrevalenceVerdict::Inconclusive;
            };
            if resolver.egress_contains(egress) {
                PrevalenceVerdict::Clean { egress }
            } else {
                PrevalenceVerdict::Intercepted { egress }
            }
        }
        QueryOutcome::Timeout | QueryOutcome::WrongSource { .. } => PrevalenceVerdict::Inconclusive,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mock::{MockTransport, Respond};
    use crate::resolvers::{default_resolvers, ResolverKey};
    use dns_wire::RClass;

    fn opts() -> QueryOptions {
        QueryOptions::default()
    }

    fn txids() -> TxidSequence {
        TxidSequence::new(0x7000)
    }

    #[test]
    fn a_record_detector_false_positive_appendix_a() {
        // Innocent CPE with port 53 open forwards to the ISP resolver; a
        // downstream ISP interceptor sends queries to the same resolver.
        // Both paths return "1.2.3.4" → the naive detector wrongly blames
        // the CPE.
        let mut t = MockTransport::new();
        let cpe: IpAddr = "73.22.1.5".parse().unwrap();
        let name: Name = "example.com".parse().unwrap();
        t.push_rule(None, Some(name.clone()), Some(RClass::In), Respond::A("1.2.3.4".parse().unwrap()));
        let verdict = a_record_cpe_check(&mut t, cpe, "8.8.8.8".parse().unwrap(), &name, &mut txids(), opts());
        assert_eq!(verdict, ARecordVerdict::ClaimsCpe { answer: "1.2.3.4".into() });
    }

    #[test]
    fn a_record_detector_no_claim_when_cpe_silent() {
        let mut t = MockTransport::new();
        let name: Name = "example.com".parse().unwrap();
        // Only the resolver answers.
        t.push_rule(
            Some(vec!["8.8.8.8".parse().unwrap()]),
            Some(name.clone()),
            None,
            Respond::A("1.2.3.4".parse().unwrap()),
        );
        let verdict = a_record_cpe_check(
            &mut t,
            "73.22.1.5".parse().unwrap(),
            "8.8.8.8".parse().unwrap(),
            &name,
            &mut txids(),
            opts(),
        );
        assert_eq!(verdict, ARecordVerdict::NoCpeAnswer);
    }

    #[test]
    fn root_check_clean_and_manipulated() {
        let roots = default_root_addrs();
        let looks_like_root = |s: &str| s.contains("root");
        // Clean: roots answer with plausible node names.
        let mut t = MockTransport::new();
        t.push_rule(Some(roots.to_vec()), None, Some(RClass::Chaos), Respond::Txt("a1.us-mia.root".into()));
        assert_eq!(
            hostname_bind_root_check(&mut t, &roots, looks_like_root, &mut txids(), opts()),
            RootCheckVerdict::Clean
        );
        // Manipulated: a forwarder's version string comes back instead.
        let mut t = MockTransport::new();
        t.push_rule(Some(roots.to_vec()), None, Some(RClass::Chaos), Respond::Txt("dnsmasq-2.85".into()));
        assert!(matches!(
            hostname_bind_root_check(&mut t, &roots, looks_like_root, &mut txids(), opts()),
            RootCheckVerdict::Manipulated { .. }
        ));
        // Silent: nothing answers.
        let mut t = MockTransport::new();
        assert_eq!(
            hostname_bind_root_check(&mut t, &roots, looks_like_root, &mut txids(), opts()),
            RootCheckVerdict::NoAnswer
        );
    }

    #[test]
    fn prevalence_check_distinguishes_egress() {
        let google = default_resolvers()
            .into_iter()
            .find(|r| r.key == ResolverKey::Google)
            .unwrap();
        let name: Name = "reflect.dns-hijack-study.example".parse().unwrap();
        // Clean: reflection shows a Google egress.
        let mut t = MockTransport::new();
        t.push_rule(None, Some(name.clone()), None, Respond::Txt("172.253.1.2".into()));
        assert!(matches!(
            own_authoritative_check(&mut t, &google, &name, &mut txids(), opts()),
            PrevalenceVerdict::Clean { .. }
        ));
        // Intercepted: a foreign egress.
        let mut t = MockTransport::new();
        t.push_rule(None, Some(name.clone()), None, Respond::Txt("62.183.62.69".into()));
        assert!(matches!(
            own_authoritative_check(&mut t, &google, &name, &mut txids(), opts()),
            PrevalenceVerdict::Intercepted { .. }
        ));
        // Garbage reflection.
        let mut t = MockTransport::new();
        t.push_rule(None, Some(name.clone()), None, Respond::Txt("not-an-ip".into()));
        assert_eq!(
            own_authoritative_check(&mut t, &google, &name, &mut txids(), opts()),
            PrevalenceVerdict::Inconclusive
        );
    }
}
