//! Probe flavors: what kind of household a probe sits in.

use interception::{CpeModelKind, HomeScenario, MiddleboxSpec, Region};
use locator::{shared_default_resolvers, ResolverKey};
use serde::{Deserialize, Serialize};
use std::net::IpAddr;

/// The household configuration behind one probe.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Flavor {
    /// NAT-only router.
    BenignPlain,
    /// LAN-only Dnsmasq forwarder.
    BenignDnsmasqLan,
    /// Non-intercepting forwarder with port 53 open on the WAN (App. A).
    BenignOpenWan,
    /// Forwarder relaying WAN queries with the client's source address
    /// preserved — the transparent forwarder of the open-DNS taxonomy.
    TransparentForwarder,
    /// Resolver answering WAN queries itself — an open recursive.
    OpenRecursive,
    /// Healthy XB6.
    BenignXb6Healthy,
    /// Buggy XB6 — the §5 case study.
    Xb6Buggy,
    /// Pi-hole (deliberate interception, Table 5).
    PiHole,
    /// Generic Dnsmasq CPE interceptor.
    CpeDnsmasq {
        /// Dnsmasq version.
        version: String,
    },
    /// Unbound CPE interceptor.
    CpeUnbound,
    /// RedHat-BIND CPE interceptor.
    CpeRedHat,
    /// Long-tail CPE interceptor with a verbatim version string.
    CpeCustom {
        /// The string version.bind returns.
        version_string: String,
    },
    /// CPE interceptor with version.bind disabled (§6 limitation).
    CpeStealth,
    /// CPE interceptor capturing only one resolver's addresses.
    CpeTargetedOne {
        /// The targeted resolver.
        target: ResolverKey,
    },
    /// ISP middlebox, resolver answers correctly (Transparent).
    MiddleboxTransparent,
    /// ISP middlebox, resolver refuses (Status Modified).
    MiddleboxModified,
    /// ISP middlebox that exempts one resolver ("one allowed", §4.1.1).
    MiddleboxOneAllowed {
        /// The exempted resolver.
        allowed: ResolverKey,
    },
    /// ISP middlebox that captures only one resolver's addresses ("only
    /// one resolver intercepted", §4.1.1 — Google and Cloudflare most
    /// often, "perhaps because of their popularity").
    MiddleboxTargetedOne {
        /// The captured resolver.
        target: ResolverKey,
    },
    /// ISP middlebox that resolves most traffic transparently but routes
    /// some resolvers to a refusing filter — Figure 3's "Both" class.
    MiddleboxMixed {
        /// Resolvers whose queries get REFUSED.
        refused: Vec<ResolverKey>,
    },
    /// ISP middlebox intercepting v4 fully and a *subset* of resolvers on
    /// v6 (the Table 4 v6 pattern: per-resolver counts > 0, all-four = 0).
    MiddleboxBothFamilies {
        /// Resolvers whose v6 addresses are captured.
        v6_targets: Vec<ResolverKey>,
    },
    /// ISP middlebox intercepting only a subset of resolvers on v6,
    /// leaving v4 untouched (v6-only interception, Table 4).
    MiddleboxV6Only {
        /// Resolvers whose v6 addresses are captured.
        v6_targets: Vec<ResolverKey>,
    },
    /// Interceptor beyond the client's AS.
    Beyond,
    /// ISP-run interception whose resolver lives outside the AS (§6).
    IspResolverOutside,
}

impl Flavor {
    /// True when the flavor involves any interception.
    pub fn intercepts(&self) -> bool {
        !matches!(
            self,
            Flavor::BenignPlain
                | Flavor::BenignDnsmasqLan
                | Flavor::BenignOpenWan
                | Flavor::BenignXb6Healthy
                | Flavor::TransparentForwarder
                | Flavor::OpenRecursive
        )
    }

    /// Instantiates the flavor into a scenario skeleton (ISP/region/etc.
    /// filled in by the caller).
    ///
    /// Model versions fixed by the flavor are literals, so this allocates
    /// nothing except the address lists of the flavors that name resolvers
    /// and the version text [`Flavor::CpeDnsmasq`] and [`Flavor::CpeCustom`]
    /// carry.
    pub fn apply(&self, scenario: &mut HomeScenario) {
        let v4_of = |keys: &[ResolverKey]| service_addrs(keys, |r| &r.v4);
        let v6_of = |keys: &[ResolverKey]| service_addrs(keys, |r| &r.v6);
        match self {
            Flavor::BenignPlain => scenario.cpe_model = CpeModelKind::Plain,
            Flavor::BenignDnsmasqLan => {
                scenario.cpe_model = CpeModelKind::DnsmasqLan { version: "2.85".into() }
            }
            Flavor::BenignOpenWan => {
                scenario.cpe_model = CpeModelKind::OpenWanForwarder { version: "2.80".into() }
            }
            Flavor::TransparentForwarder => {
                scenario.cpe_model = CpeModelKind::TransparentForwarder { version: "2.80".into() }
            }
            Flavor::OpenRecursive => {
                scenario.cpe_model = CpeModelKind::OpenRecursive { version: "2.80".into() }
            }
            Flavor::BenignXb6Healthy => scenario.cpe_model = CpeModelKind::Xb6Healthy,
            Flavor::Xb6Buggy => scenario.cpe_model = CpeModelKind::Xb6Buggy,
            Flavor::PiHole => {
                scenario.cpe_model = CpeModelKind::PiHole { version: "2.87".into() }
            }
            Flavor::CpeDnsmasq { version } => {
                // A fully intercepting Dnsmasq box is the targeted model
                // with an empty target list meaning "all": use Selective
                // with no exemptions instead.
                scenario.cpe_model = CpeModelKind::SelectiveAllowed {
                    allowed: vec![],
                    version: version.clone().into(),
                };
            }
            Flavor::CpeUnbound => {
                scenario.cpe_model = CpeModelKind::UnboundInterceptor { version: "1.9.0".into() }
            }
            Flavor::CpeRedHat => {
                scenario.cpe_model =
                    CpeModelKind::CustomInterceptor { version_string: "9.11.4-RedHat".into() }
            }
            Flavor::CpeCustom { version_string } => {
                scenario.cpe_model =
                    CpeModelKind::CustomInterceptor { version_string: version_string.clone().into() }
            }
            Flavor::CpeStealth => scenario.cpe_model = CpeModelKind::StealthInterceptor,
            Flavor::CpeTargetedOne { target } => {
                scenario.cpe_model = CpeModelKind::SelectiveTargeted {
                    targets: v4_of(&[*target]),
                    version: "2.85".into(),
                };
            }
            Flavor::MiddleboxTransparent => {
                scenario.middlebox = Some(MiddleboxSpec::redirect_all_to_isp());
            }
            Flavor::MiddleboxModified => {
                scenario.middlebox = Some(MiddleboxSpec::redirect_all_to_isp());
                scenario.isp.resolver_mode = interception::ResolverMode::RefuseAll;
            }
            Flavor::MiddleboxOneAllowed { allowed } => {
                let mut spec = MiddleboxSpec::redirect_all_to_isp();
                spec.exempt_dsts = v4_of(&[*allowed]);
                scenario.middlebox = Some(spec);
            }
            Flavor::MiddleboxTargetedOne { target } => {
                let mut spec = MiddleboxSpec::redirect_all_to_isp();
                spec.match_dsts = v4_of(&[*target]);
                scenario.middlebox = Some(spec);
            }
            Flavor::MiddleboxMixed { refused } => {
                let mut spec = MiddleboxSpec::redirect_all_to_isp();
                spec.refused_dsts = v4_of(refused);
                scenario.middlebox = Some(spec);
            }
            Flavor::MiddleboxBothFamilies { v6_targets } => {
                let mut spec = MiddleboxSpec::redirect_all_to_isp().with_v6();
                spec.match_dsts = v6_of(v6_targets);
                // An empty v4 match list means "all v4"; the v6 rule's
                // match list is family-filtered inside the scenario builder,
                // so v4 capture stays complete.
                scenario.middlebox = Some(spec);
            }
            Flavor::MiddleboxV6Only { v6_targets } => {
                let targets = v6_of(v6_targets);
                scenario.middlebox = Some(MiddleboxSpec::v6_only(targets));
            }
            Flavor::Beyond => {
                scenario.beyond = Some(MiddleboxSpec {
                    redirect_v4: Some(interception::RedirectTarget::Custom(
                        "185.194.112.32".parse().expect("static address"),
                    )),
                    redirect_v6: None,
                    exempt_dsts: vec![],
                    match_dsts: vec![],
                    refused_dsts: vec![],
                });
            }
            Flavor::IspResolverOutside => {
                // The ISP's resolver (and the interception device in front
                // of it) live outside the customer AS; relocate the
                // resolver to out-of-prefix address space so routing
                // reflects that (§6).
                scenario.isp.resolver_in_as = false;
                scenario.isp.resolver_v4 = "185.76.53.53".parse().expect("static address");
                scenario.isp.resolver_egress_v4 =
                    "185.76.53.10".parse().expect("static address");
                scenario.isp.resolver_v6 = "2a00:5354::1".parse().expect("static address");
                scenario.isp.resolver_egress_v6 =
                    "2a00:5354::10".parse().expect("static address");
                scenario.beyond = Some(MiddleboxSpec::redirect_all_to_isp());
            }
        }
    }

    /// The version.bind string Table 5 would record for this flavor's CPE
    /// interceptor, if any.
    pub fn table5_string(&self) -> Option<String> {
        match self {
            Flavor::Xb6Buggy => Some("dnsmasq-2.78-xfin".into()),
            Flavor::PiHole => Some("dnsmasq-pi-hole-2.87".into()),
            Flavor::CpeDnsmasq { version } => Some(format!("dnsmasq-{version}")),
            Flavor::CpeUnbound => Some("unbound 1.9.0".into()),
            Flavor::CpeRedHat => Some("9.11.4-RedHat".into()),
            Flavor::CpeCustom { version_string } => Some(version_string.clone()),
            Flavor::CpeTargetedOne { .. } => Some("dnsmasq-2.85".into()),
            _ => None,
        }
    }
}

/// One family's service addresses of some of the paper's resolvers, in
/// `keys` order, read from the shared resolver table into one list.
fn service_addrs(
    keys: &[ResolverKey],
    family: impl Fn(&locator::PublicResolver) -> &[IpAddr; 2],
) -> Vec<IpAddr> {
    let resolvers = shared_default_resolvers();
    let mut addrs = Vec::with_capacity(2 * keys.len());
    for key in keys {
        if let Some(resolver) = resolvers.iter().find(|r| r.key == *key) {
            addrs.extend_from_slice(family(resolver));
        }
    }
    addrs
}

/// Maps a country code to the region used for anycast site selection.
pub fn region_of_country(country: &str) -> Region {
    match country {
        "US" | "CA" => Region::NaEast,
        "MX" => Region::NaWest,
        "BR" | "AR" => Region::SouthAmerica,
        "CN" | "JP" | "IN" | "ID" | "TR" | "RU" => Region::Asia,
        "ZA" | "NG" => Region::Africa,
        "AU" | "NZ" => Region::Oceania,
        _ => Region::Europe,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use interception::GroundTruth;

    #[test]
    fn benign_flavors_do_not_intercept() {
        for f in [
            Flavor::BenignPlain,
            Flavor::BenignDnsmasqLan,
            Flavor::BenignOpenWan,
            Flavor::BenignXb6Healthy,
        ] {
            assert!(!f.intercepts());
            let mut s = HomeScenario::clean();
            f.apply(&mut s);
            assert_eq!(s.truth(), GroundTruth::NotIntercepted);
        }
    }

    #[test]
    fn interceptor_flavors_produce_expected_truth() {
        let mut s = HomeScenario::clean();
        Flavor::Xb6Buggy.apply(&mut s);
        assert!(matches!(s.truth(), GroundTruth::Cpe { version: Some(_) }));

        let mut s = HomeScenario::clean();
        Flavor::MiddleboxTransparent.apply(&mut s);
        assert_eq!(s.truth(), GroundTruth::IspMiddlebox);

        let mut s = HomeScenario::clean();
        Flavor::Beyond.apply(&mut s);
        assert_eq!(s.truth(), GroundTruth::BeyondIsp);

        let mut s = HomeScenario::clean();
        Flavor::IspResolverOutside.apply(&mut s);
        assert_eq!(s.truth(), GroundTruth::BeyondIsp);
    }

    #[test]
    fn table5_strings_match_paper_shapes() {
        assert_eq!(Flavor::PiHole.table5_string().unwrap(), "dnsmasq-pi-hole-2.87");
        assert_eq!(Flavor::CpeUnbound.table5_string().unwrap(), "unbound 1.9.0");
        assert!(Flavor::MiddleboxTransparent.table5_string().is_none());
        assert!(Flavor::CpeStealth.table5_string().is_none());
    }

    #[test]
    fn regions_cover_known_countries() {
        assert_eq!(region_of_country("US"), Region::NaEast);
        assert_eq!(region_of_country("DE"), Region::Europe);
        assert_eq!(region_of_country("RU"), Region::Asia);
        assert_eq!(region_of_country("BR"), Region::SouthAmerica);
        assert_eq!(region_of_country("XX"), Region::Europe);
    }
}
