//! ISP profiles and interception-policy specs used by the scenario builder.

use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};

/// How an ISP's resolver treats the queries an interceptor hands it —
/// this is what drives the paper's Figure-3 transparency categories.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResolverMode {
    /// Resolve everything correctly: **Transparent** interception.
    Normal,
    /// Refuse foreign queries: **Status Modified** interception.
    RefuseAll,
    /// Resolve correctly but rewrite NXDOMAIN to an ad server.
    NxWildcard(Ipv4Addr),
}

/// Static description of one ISP (one AS).
#[derive(Debug, Clone)]
pub struct IspProfile {
    /// Autonomous system number.
    pub asn: u32,
    /// Organization name ("Comcast", "Rostelecom", …).
    pub name: String,
    /// ISO country code ("US", "DE", …).
    pub country: String,
    /// The ISP's customer IPv4 prefix (home WAN addresses come from here).
    pub v4_prefix: Ipv4Addr,
    /// Prefix length of `v4_prefix`.
    pub v4_prefix_len: u8,
    /// The ISP's IPv6 prefix for customer delegations.
    pub v6_prefix: Ipv6Addr,
    /// The ISP resolver's IPv4 service address.
    pub resolver_v4: Ipv4Addr,
    /// The ISP resolver's IPv6 service address.
    pub resolver_v6: Ipv6Addr,
    /// The ISP resolver's egress address (what authoritative servers see).
    pub resolver_egress_v4: Ipv4Addr,
    /// The ISP resolver's IPv6 egress.
    pub resolver_egress_v6: Ipv6Addr,
    /// `version.bind` string of the ISP resolver software.
    pub resolver_version: String,
    /// Resolver behaviour toward intercepted queries.
    pub resolver_mode: ResolverMode,
    /// Whether the ISP's resolver actually lives inside the customer AS.
    /// When false, step 3's assumption breaks (§6): interception by the
    /// "ISP" happens beyond the bogon boundary.
    pub resolver_in_as: bool,
}

impl IspProfile {
    /// A Comcast-like US cable ISP.
    pub fn comcast_like() -> IspProfile {
        IspProfile {
            asn: 7922,
            name: "Comcast".into(),
            country: "US".into(),
            v4_prefix: Ipv4Addr::new(73, 0, 0, 0),
            v4_prefix_len: 8,
            v6_prefix: "2601::".parse().expect("static address"),
            resolver_v4: Ipv4Addr::new(75, 75, 75, 75),
            resolver_v6: "2001:558:feed::1".parse().expect("static address"),
            resolver_egress_v4: Ipv4Addr::new(75, 75, 75, 10),
            resolver_egress_v6: "2001:558:feed::10".parse().expect("static address"),
            resolver_version: "unbound 1.9.0".into(),
            resolver_mode: ResolverMode::Normal,
            resolver_in_as: true,
        }
    }

    /// A generic European DSL ISP.
    pub fn european_dsl() -> IspProfile {
        IspProfile {
            asn: 3320,
            name: "DTAG".into(),
            country: "DE".into(),
            v4_prefix: Ipv4Addr::new(91, 0, 0, 0),
            v4_prefix_len: 10,
            v6_prefix: "2003::".parse().expect("static address"),
            resolver_v4: Ipv4Addr::new(217, 237, 148, 22),
            resolver_v6: "2003:180:2::1".parse().expect("static address"),
            resolver_egress_v4: Ipv4Addr::new(217, 237, 148, 102),
            resolver_egress_v6: "2003:180:2::102".parse().expect("static address"),
            resolver_version: "9.11.4-RedHat".into(),
            resolver_mode: ResolverMode::Normal,
            resolver_in_as: true,
        }
    }

    /// The customer prefix as a `netsim` CIDR.
    pub fn v4_cidr(&self) -> netsim::Cidr {
        netsim::Cidr::v4(self.v4_prefix, self.v4_prefix_len)
    }

    /// The v6 customer prefix (fixed /20 for simplicity).
    pub fn v6_cidr(&self) -> netsim::Cidr {
        netsim::Cidr::v6(self.v6_prefix, 20)
    }

    /// Allocates the `n`-th customer WAN IPv4 address.
    pub fn customer_v4(&self, n: u32) -> Ipv4Addr {
        let base = u32::from(self.v4_prefix);
        // Leave .0/.1 of the prefix for infrastructure.
        Ipv4Addr::from(base + 256 + n)
    }

    /// Allocates the `n`-th customer /64 and the CPE/probe addresses in it:
    /// (cpe_wan_v6, cpe_lan_v6, probe_v6, lan_prefix).
    ///
    /// Customer `n` is delegated the /64 numbered `n + 1` above the prefix,
    /// so the /64 at the prefix itself is never delegated, for any `u32`
    /// index; every customer's WAN address lives there, at `<prefix>::<n+1>`.
    pub fn customer_v6(&self, n: u32) -> (Ipv6Addr, Ipv6Addr, Ipv6Addr, netsim::Cidr) {
        let base = u128::from(self.v6_prefix);
        let lan_net = base + ((n as u128 + 1) << 64);
        let wan = Ipv6Addr::from(base + n as u128 + 1);
        let lan = Ipv6Addr::from(lan_net + 1);
        let probe = Ipv6Addr::from(lan_net + 0x100);
        (wan, lan, probe, netsim::Cidr::v6(Ipv6Addr::from(lan_net), 64))
    }
}

/// Where a middlebox redirects intercepted queries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RedirectTarget {
    /// The ISP's own resolver (the common case, §4.3).
    IspResolver,
    /// A specific alternate resolver address.
    Custom(IpAddr),
}

/// An in-network interceptor (ISP middlebox or beyond-ISP device).
#[derive(Debug, Clone)]
pub struct MiddleboxSpec {
    /// Redirect target for captured IPv4 queries (`None` = v4 untouched,
    /// the v6-only interceptor pattern behind Table 4's v6 rows).
    pub redirect_v4: Option<RedirectTarget>,
    /// Redirect target for v6 queries, if v6 is intercepted at all.
    pub redirect_v6: Option<RedirectTarget>,
    /// Destinations exempted from capture ("allowed" resolvers).
    pub exempt_dsts: Vec<IpAddr>,
    /// Destinations captured; empty = all port-53 traffic.
    pub match_dsts: Vec<IpAddr>,
    /// Destinations redirected to a *refusing* filter resolver instead of
    /// the working one — the paper's "some interceptors may block certain
    /// public resolvers" (§4.1.2), producing the "Both" transparency class.
    pub refused_dsts: Vec<IpAddr>,
}

impl MiddleboxSpec {
    /// Capture everything, hand it to the ISP resolver.
    pub fn redirect_all_to_isp() -> MiddleboxSpec {
        MiddleboxSpec {
            redirect_v4: Some(RedirectTarget::IspResolver),
            redirect_v6: None,
            exempt_dsts: Vec::new(),
            match_dsts: Vec::new(),
            refused_dsts: Vec::new(),
        }
    }

    /// Also capture IPv6 (rare — Table 4).
    pub fn with_v6(mut self) -> MiddleboxSpec {
        self.redirect_v6 = self.redirect_v4;
        self
    }

    /// Capture only IPv6 queries toward `v6_targets`, leaving v4 alone.
    pub fn v6_only(v6_targets: Vec<IpAddr>) -> MiddleboxSpec {
        MiddleboxSpec {
            redirect_v4: None,
            redirect_v6: Some(RedirectTarget::IspResolver),
            exempt_dsts: Vec::new(),
            match_dsts: v6_targets,
            refused_dsts: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn customer_v4_allocation_is_distinct_and_in_prefix() {
        let isp = IspProfile::comcast_like();
        let a = isp.customer_v4(0);
        let b = isp.customer_v4(1);
        assert_ne!(a, b);
        assert!(isp.v4_cidr().contains(IpAddr::V4(a)));
        assert!(isp.v4_cidr().contains(IpAddr::V4(b)));
        // Infrastructure addresses are not handed out.
        assert_ne!(a, isp.v4_prefix);
        assert_ne!(a, isp.resolver_v4);
    }

    /// Customer indices at both ends of the range, and around the /64 the
    /// WAN addresses once shared with customer 65,534's LAN.
    const EDGE_CUSTOMERS: [u32; 6] = [0, 1, 3, 65_534, 65_535, u32::MAX];

    #[test]
    fn customer_v6_allocation() {
        let isp = IspProfile::comcast_like();
        let base = u128::from(isp.v6_prefix);
        for n in EDGE_CUSTOMERS {
            let (wan, lan, probe, prefix) = isp.customer_v6(n);
            assert!(prefix.contains(IpAddr::V6(lan)));
            assert!(prefix.contains(IpAddr::V6(probe)));
            assert!(!prefix.contains(IpAddr::V6(wan)));
            assert!(isp.v6_cidr().contains(IpAddr::V6(wan)));
            assert!(isp.v6_cidr().contains(IpAddr::V6(probe)));
            assert_ne!(lan, probe);
            // The WAN /64 is the one at the prefix itself, which no
            // customer is delegated: customer m gets /64 number m + 1.
            assert_eq!((u128::from(wan) - base) >> 64, 0, "customer {n}'s WAN {wan}");
            for m in EDGE_CUSTOMERS {
                let (_, _, _, other) = isp.customer_v6(m);
                assert!(!other.contains(IpAddr::V6(wan)), "{wan} in customer {m}'s {other}");
            }
        }
    }

    #[test]
    fn distinct_customers_get_distinct_v6() {
        let isp = IspProfile::comcast_like();
        for (i, &a) in EDGE_CUSTOMERS.iter().enumerate() {
            for &b in &EDGE_CUSTOMERS[i + 1..] {
                let (w1, _, p1, pre1) = isp.customer_v6(a);
                let (w2, _, p2, pre2) = isp.customer_v6(b);
                assert_ne!(w1, w2);
                assert_ne!(p1, p2);
                assert_ne!(pre1, pre2);
            }
        }
    }

    #[test]
    fn middlebox_spec_builders() {
        let mb = MiddleboxSpec::redirect_all_to_isp();
        assert_eq!(mb.redirect_v4, Some(RedirectTarget::IspResolver));
        assert!(mb.redirect_v6.is_none());
        let mb = mb.with_v6();
        assert_eq!(mb.redirect_v6, Some(RedirectTarget::IspResolver));
        let mb = MiddleboxSpec::v6_only(vec!["2620:fe::fe".parse().unwrap()]);
        assert!(mb.redirect_v4.is_none());
        assert_eq!(mb.redirect_v6, Some(RedirectTarget::IspResolver));
    }
}
