//! The CPE model catalog: the device populations the paper observed, each
//! named by one [`CpeModelKind`] and built into its [`CpeConfig`] in one
//! place.

use crate::config::{CpeConfig, DnsMode, ForwarderSpec, InterceptSpec, WanMode};
use dns_wire::Rcode;
use netsim::SharedStr;
use resolver_sim::SoftwareProfile;
use std::net::{IpAddr, Ipv4Addr};

/// Which CPE model a household runs. Version strings are
/// [`SharedStr`]s, so a model made from a literal or from shared text, and
/// every clone of one, allocates nothing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CpeModelKind {
    /// NAT-only router, port 53 closed.
    Plain,
    /// LAN-only Dnsmasq forwarder, no interception.
    DnsmasqLan {
        /// Dnsmasq version.
        version: SharedStr,
    },
    /// Non-intercepting forwarder with port 53 open on the WAN (App. A).
    OpenWanForwarder {
        /// Dnsmasq version.
        version: SharedStr,
    },
    /// Open-port-53 forwarder that answers version.bind NXDOMAIN
    /// (Table 3's probe 11992).
    OpenWanForwarderNxDomain,
    /// The §5 buggy XB6: DNAT interception to the ISP resolver.
    Xb6Buggy,
    /// A healthy XB6 (same firmware, no DNAT rule).
    Xb6Healthy,
    /// Pi-hole: deliberate interception with ad blocking.
    PiHole {
        /// Pi-hole Dnsmasq version.
        version: SharedStr,
    },
    /// Interceptor running Unbound.
    UnboundInterceptor {
        /// Unbound version.
        version: SharedStr,
    },
    /// Interceptor with an arbitrary version.bind string (Table 5 tail).
    CustomInterceptor {
        /// The exact string returned.
        version_string: SharedStr,
    },
    /// Interceptor whose forwarder refuses version.bind (§6 limitation).
    StealthInterceptor,
    /// Interceptor that exempts specific resolver addresses.
    SelectiveAllowed {
        /// Exempted destinations.
        allowed: Vec<IpAddr>,
        /// Dnsmasq version.
        version: SharedStr,
    },
    /// Interceptor that captures only specific resolver addresses.
    SelectiveTargeted {
        /// Captured destinations.
        targets: Vec<IpAddr>,
        /// Dnsmasq version.
        version: SharedStr,
    },
    /// Transparent forwarder: relays WAN queries upstream with the
    /// scanner's source preserved, so the upstream answers the scanner
    /// directly (the open-DNS taxonomy's key population).
    TransparentForwarder {
        /// Dnsmasq version.
        version: SharedStr,
    },
    /// Open recursive resolver on the CPE: resolves WAN queries itself.
    OpenRecursive {
        /// Dnsmasq version.
        version: SharedStr,
    },
}

impl CpeModelKind {
    /// True when the model intercepts (fully or selectively): its
    /// configuration carries a DNAT rule. Allocation-free.
    pub fn intercepts(&self) -> bool {
        matches!(
            self,
            CpeModelKind::Xb6Buggy
                | CpeModelKind::PiHole { .. }
                | CpeModelKind::UnboundInterceptor { .. }
                | CpeModelKind::CustomInterceptor { .. }
                | CpeModelKind::StealthInterceptor
                | CpeModelKind::SelectiveAllowed { .. }
                | CpeModelKind::SelectiveTargeted { .. }
        )
    }

    /// How the model's forwarder serves queries arriving on its public
    /// address, or `None` when port 53 is closed there. Allocation-free.
    pub fn wan_service(&self) -> Option<WanMode> {
        match self {
            // RDK-B answers version.bind on its public address.
            CpeModelKind::Xb6Buggy => Some(WanMode::LocalOnly),
            // Targeted DNAT does not capture queries to the CPE's own
            // address, so step 2 relies on the forwarder listening there;
            // boxes shipping such rules serve port 53 on every interface.
            CpeModelKind::SelectiveTargeted { .. } => Some(WanMode::LocalOnly),
            CpeModelKind::OpenWanForwarder { .. } | CpeModelKind::OpenWanForwarderNxDomain => {
                Some(WanMode::OpenRelay)
            }
            CpeModelKind::TransparentForwarder { .. } => Some(WanMode::Transparent),
            CpeModelKind::OpenRecursive { .. } => Some(WanMode::Recurse),
            _ => None,
        }
    }

    /// The model's configuration: a v4-only CPE at `wan_v4` whose
    /// forwarder, if it has one, relays to `upstream`. Whether it
    /// intercepts and how it serves the WAN side come from
    /// [`CpeModelKind::intercepts`] and [`CpeModelKind::wan_service`].
    pub fn config(&self, wan_v4: Ipv4Addr, upstream: IpAddr) -> CpeConfig {
        let (name, software) = match self {
            CpeModelKind::Plain => {
                return CpeConfig::v4_only("plain-router", wan_v4, DnsMode::None)
            }
            CpeModelKind::DnsmasqLan { version } => {
                ("dnsmasq-lan", SoftwareProfile::dnsmasq(version))
            }
            CpeModelKind::OpenWanForwarder { version } => {
                ("open-forwarder", SoftwareProfile::dnsmasq(version))
            }
            CpeModelKind::OpenWanForwarderNxDomain => {
                ("open-forwarder-nxd", SoftwareProfile::version_bind_status(Rcode::NxDomain))
            }
            CpeModelKind::Xb6Buggy => ("XB6", SoftwareProfile::xdns("2.78-xfin")),
            CpeModelKind::Xb6Healthy => ("XB6-healthy", SoftwareProfile::xdns("2.78-xfin")),
            CpeModelKind::PiHole { version } => ("pi-hole", SoftwareProfile::pi_hole(version)),
            CpeModelKind::UnboundInterceptor { version } => {
                ("unbound-interceptor", SoftwareProfile::unbound(version))
            }
            CpeModelKind::CustomInterceptor { version_string } => {
                ("custom-interceptor", SoftwareProfile::custom(version_string.clone()))
            }
            CpeModelKind::StealthInterceptor => {
                ("stealth-interceptor", SoftwareProfile::version_hidden())
            }
            CpeModelKind::SelectiveAllowed { version, .. } => {
                ("selective-interceptor", SoftwareProfile::dnsmasq(version))
            }
            CpeModelKind::SelectiveTargeted { version, .. } => {
                ("targeted-interceptor", SoftwareProfile::dnsmasq(version))
            }
            CpeModelKind::TransparentForwarder { version } => {
                ("transparent-forwarder", SoftwareProfile::dnsmasq(version))
            }
            CpeModelKind::OpenRecursive { version } => {
                ("open-recursive", SoftwareProfile::dnsmasq(version))
            }
        };
        let mut spec = ForwarderSpec::new(software, upstream);
        if let Some(mode) = self.wan_service() {
            spec.listen_wan = true;
            spec.wan_mode = mode;
        }
        if !self.intercepts() {
            return CpeConfig::v4_only(name, wan_v4, DnsMode::Forwarder(spec));
        }
        let mut intercept = InterceptSpec::default();
        match self {
            // The owner intercepts deliberately, to block advertisements
            // (Table 5's `dnsmasq-pi-hole-*` rows).
            CpeModelKind::PiHole { .. } => {
                spec.blocklist = vec![
                    "doubleclick.net".parse().expect("static name"),
                    "googlesyndication.com".parse().expect("static name"),
                ];
            }
            // §4.1.1's "only one resolver allowed" and "only one resolver
            // intercepted" patterns.
            CpeModelKind::SelectiveAllowed { allowed, .. } => {
                intercept.exempt_dsts = allowed.clone();
            }
            CpeModelKind::SelectiveTargeted { targets, .. } => {
                intercept.match_dsts = targets.clone();
            }
            _ => {}
        }
        CpeConfig::v4_only(name, wan_v4, DnsMode::Interceptor(spec, intercept))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wan() -> Ipv4Addr {
        "73.22.1.5".parse().unwrap()
    }

    fn upstream() -> IpAddr {
        "75.75.75.75".parse().unwrap()
    }

    fn config(model: CpeModelKind) -> CpeConfig {
        model.config(wan(), upstream())
    }

    /// One of every model, each variant listed once.
    fn every_model() -> Vec<CpeModelKind> {
        let version = SharedStr::from("2.85");
        let models = vec![
            CpeModelKind::Plain,
            CpeModelKind::DnsmasqLan { version: version.clone() },
            CpeModelKind::OpenWanForwarder { version: version.clone() },
            CpeModelKind::OpenWanForwarderNxDomain,
            CpeModelKind::Xb6Buggy,
            CpeModelKind::Xb6Healthy,
            CpeModelKind::PiHole { version: version.clone() },
            CpeModelKind::UnboundInterceptor { version: "1.9.0".into() },
            CpeModelKind::CustomInterceptor { version_string: "huuh?".into() },
            CpeModelKind::StealthInterceptor,
            CpeModelKind::SelectiveAllowed { allowed: vec![upstream()], version: version.clone() },
            CpeModelKind::SelectiveTargeted { targets: vec![upstream()], version: version.clone() },
            CpeModelKind::TransparentForwarder { version: version.clone() },
            CpeModelKind::OpenRecursive { version },
        ];
        for model in &models {
            // A variant added to the enum fails to compile here until it
            // is listed above.
            match model {
                CpeModelKind::Plain
                | CpeModelKind::DnsmasqLan { .. }
                | CpeModelKind::OpenWanForwarder { .. }
                | CpeModelKind::OpenWanForwarderNxDomain
                | CpeModelKind::Xb6Buggy
                | CpeModelKind::Xb6Healthy
                | CpeModelKind::PiHole { .. }
                | CpeModelKind::UnboundInterceptor { .. }
                | CpeModelKind::CustomInterceptor { .. }
                | CpeModelKind::StealthInterceptor
                | CpeModelKind::SelectiveAllowed { .. }
                | CpeModelKind::SelectiveTargeted { .. }
                | CpeModelKind::TransparentForwarder { .. }
                | CpeModelKind::OpenRecursive { .. } => {}
            }
        }
        models
    }

    #[test]
    fn catalog_modes() {
        assert!(!config(CpeModelKind::Plain).dns.intercepts());
        assert!(!config(CpeModelKind::DnsmasqLan { version: "2.85".into() }).dns.intercepts());
        assert!(!config(CpeModelKind::OpenWanForwarder { version: "2.80".into() })
            .dns
            .intercepts());
        assert!(config(CpeModelKind::Xb6Buggy).dns.intercepts());
        assert!(!config(CpeModelKind::Xb6Healthy).dns.intercepts());
        assert!(config(CpeModelKind::PiHole { version: "2.87".into() }).dns.intercepts());
        assert!(config(CpeModelKind::UnboundInterceptor { version: "1.9.0".into() })
            .dns
            .intercepts());
        assert!(config(CpeModelKind::StealthInterceptor).dns.intercepts());
    }

    #[test]
    fn cheap_facts_match_the_built_config() {
        for model in every_model() {
            let built = config(model.clone());
            assert_eq!(model.intercepts(), built.dns.intercepts(), "{model:?}");
            let wan = built.dns.forwarder().filter(|f| f.listen_wan).map(|f| f.wan_mode);
            assert_eq!(model.wan_service(), wan, "{model:?}");
        }
    }

    #[test]
    fn open_forwarder_listens_on_wan() {
        let c = config(CpeModelKind::OpenWanForwarder { version: "2.80".into() });
        assert!(c.dns.forwarder().unwrap().listen_wan);
        let c = config(CpeModelKind::DnsmasqLan { version: "2.85".into() });
        assert!(!c.dns.forwarder().unwrap().listen_wan);
    }

    #[test]
    fn version_strings_match_table_5() {
        let version = |model| {
            let c = config(model);
            c.dns.forwarder().unwrap().profile.version_string().map(str::to_owned)
        };
        assert_eq!(
            version(CpeModelKind::PiHole { version: "2.87".into() }).as_deref(),
            Some("dnsmasq-pi-hole-2.87")
        );
        assert_eq!(
            version(CpeModelKind::UnboundInterceptor { version: "1.9.0".into() }).as_deref(),
            Some("unbound 1.9.0")
        );
        assert_eq!(version(CpeModelKind::Xb6Buggy).as_deref(), Some("dnsmasq-2.78-xfin"));
        assert_eq!(version(CpeModelKind::StealthInterceptor), None);
    }

    #[test]
    fn selective_models_carry_lists() {
        let allowed: IpAddr = "9.9.9.9".parse().unwrap();
        let c = config(CpeModelKind::SelectiveAllowed {
            allowed: vec![allowed],
            version: "2.85".into(),
        });
        match &c.dns {
            DnsMode::Interceptor(_, i) => assert_eq!(i.exempt_dsts, vec![allowed]),
            _ => panic!("expected interceptor"),
        }
        let target: IpAddr = "8.8.8.8".parse().unwrap();
        let c = config(CpeModelKind::SelectiveTargeted {
            targets: vec![target],
            version: "2.85".into(),
        });
        match &c.dns {
            DnsMode::Interceptor(_, i) => assert_eq!(i.match_dsts, vec![target]),
            _ => panic!("expected interceptor"),
        }
    }
}
