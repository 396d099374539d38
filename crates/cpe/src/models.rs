//! The CPE model catalog: named configurations matching the device
//! populations the paper observed.

use crate::config::{CpeConfig, DnsMode, ForwarderSpec, InterceptSpec, WanMode};
use netsim::SharedStr;
use resolver_sim::SoftwareProfile;
use std::net::{IpAddr, Ipv4Addr};

/// A plain router: NAT only, port 53 closed, no interception. The common
/// clean case.
pub fn plain(wan_v4: Ipv4Addr) -> CpeConfig {
    CpeConfig::v4_only("plain-router", wan_v4, DnsMode::None)
}

/// A typical home router running Dnsmasq for its LAN (DHCP hands out
/// 192.168.1.1 as resolver) but *not* intercepting and not listening on the
/// WAN side.
pub fn dnsmasq_lan(wan_v4: Ipv4Addr, upstream: IpAddr, version: &str) -> CpeConfig {
    CpeConfig::v4_only(
        "dnsmasq-lan",
        wan_v4,
        DnsMode::Forwarder(ForwarderSpec::new(SoftwareProfile::dnsmasq(version), upstream)),
    )
}

/// The Appendix-A confounder: an innocent router whose port 53 is open to
/// the world. It forwards anything it is asked — including queries to its
/// public IP — but intercepts nothing.
pub fn open_wan_forwarder(wan_v4: Ipv4Addr, upstream: IpAddr, version: &str) -> CpeConfig {
    let mut spec = ForwarderSpec::new(SoftwareProfile::dnsmasq(version), upstream);
    spec.listen_wan = true;
    spec.wan_mode = WanMode::OpenRelay;
    CpeConfig::v4_only("open-forwarder", wan_v4, DnsMode::Forwarder(spec))
}

/// An open-port-53 forwarder whose software does not implement
/// `version.bind` and answers it NXDOMAIN — the CPE of the paper's probe
/// 11992 (Table 3).
pub fn open_wan_forwarder_nxdomain(wan_v4: Ipv4Addr, upstream: IpAddr) -> CpeConfig {
    let mut spec = ForwarderSpec::new(
        SoftwareProfile::version_bind_status("legacy-fwd", dns_wire::Rcode::NxDomain),
        upstream,
    );
    spec.listen_wan = true;
    spec.wan_mode = WanMode::OpenRelay;
    CpeConfig::v4_only("open-forwarder-nxd", wan_v4, DnsMode::Forwarder(spec))
}

/// A transparent forwarder (Nawrocki et al.'s key population): WAN-side
/// queries are relayed upstream with the *scanner's source preserved*, so
/// the upstream answers the scanner directly and the response arrives from
/// an address the scanner never queried.
pub fn transparent_forwarder(wan_v4: Ipv4Addr, upstream: IpAddr, version: &str) -> CpeConfig {
    let mut spec = ForwarderSpec::new(SoftwareProfile::dnsmasq(version), upstream);
    spec.listen_wan = true;
    spec.wan_mode = WanMode::Transparent;
    CpeConfig::v4_only("transparent-forwarder", wan_v4, DnsMode::Forwarder(spec))
}

/// An open recursive resolver on the CPE: WAN queries are resolved by the
/// device itself, and reflector names reveal the CPE's own public address
/// as the resolving egress.
pub fn open_recursive(wan_v4: Ipv4Addr, upstream: IpAddr, version: &str) -> CpeConfig {
    let mut spec = ForwarderSpec::new(SoftwareProfile::dnsmasq(version), upstream);
    spec.listen_wan = true;
    spec.wan_mode = WanMode::Recurse;
    CpeConfig::v4_only("open-recursive", wan_v4, DnsMode::Forwarder(spec))
}

/// The §5 case study: an XB6/XB7 running RDK-B whose XDNS component DNATs
/// *all* outbound UDP/53 to itself and forwards to the ISP resolver. The
/// paper found this behaviour to be a bug — the filtering service is meant
/// to be opt-in.
pub fn xb6_buggy(wan_v4: Ipv4Addr, isp_resolver: IpAddr) -> CpeConfig {
    let mut spec = ForwarderSpec::new(SoftwareProfile::xdns("2.78-xfin"), isp_resolver);
    spec.listen_wan = true; // RDK-B answers version.bind on its public address
    CpeConfig::v4_only("XB6", wan_v4, DnsMode::Interceptor(spec, InterceptSpec::default()))
}

/// A healthy XB6: same hardware and firmware, DNAT rule absent.
pub fn xb6_healthy(wan_v4: Ipv4Addr, isp_resolver: IpAddr) -> CpeConfig {
    CpeConfig::v4_only(
        "XB6-healthy",
        wan_v4,
        DnsMode::Forwarder(ForwarderSpec::new(SoftwareProfile::xdns("2.78-xfin"), isp_resolver)),
    )
}

/// A Pi-hole deployment: the owner *deliberately* intercepts DNS to block
/// advertisements (Table 5's `dnsmasq-pi-hole-*` rows).
pub fn pi_hole(wan_v4: Ipv4Addr, upstream: IpAddr, version: &str) -> CpeConfig {
    let mut spec = ForwarderSpec::new(SoftwareProfile::pi_hole(version), upstream);
    spec.blocklist = vec![
        "doubleclick.net".parse().expect("static name"),
        "googlesyndication.com".parse().expect("static name"),
    ];
    CpeConfig::v4_only("pi-hole", wan_v4, DnsMode::Interceptor(spec, InterceptSpec::default()))
}

/// A CPE interceptor running Unbound (Table 5: 6 probes).
pub fn unbound_interceptor(wan_v4: Ipv4Addr, upstream: IpAddr, version: &str) -> CpeConfig {
    let spec = ForwarderSpec::new(SoftwareProfile::unbound(version), upstream);
    CpeConfig::v4_only(
        "unbound-interceptor",
        wan_v4,
        DnsMode::Interceptor(spec, InterceptSpec::default()),
    )
}

/// A CPE interceptor with an arbitrary Table-5 long-tail identity
/// (`Windows NS`, `huuh?`, …).
pub fn custom_interceptor(
    wan_v4: Ipv4Addr,
    upstream: IpAddr,
    version_string: impl Into<SharedStr>,
) -> CpeConfig {
    let spec = ForwarderSpec::new(SoftwareProfile::custom(version_string), upstream);
    CpeConfig::v4_only(
        "custom-interceptor",
        wan_v4,
        DnsMode::Interceptor(spec, InterceptSpec::default()),
    )
}

/// The §6 limitation case: an interceptor whose forwarder refuses
/// `version.bind`. Step 2 cannot identify it; the locator classifies the
/// interception as non-CPE.
pub fn stealth_interceptor(wan_v4: Ipv4Addr, upstream: IpAddr) -> CpeConfig {
    let spec = ForwarderSpec::new(SoftwareProfile::version_hidden("stealth"), upstream);
    CpeConfig::v4_only(
        "stealth-interceptor",
        wan_v4,
        DnsMode::Interceptor(spec, InterceptSpec::default()),
    )
}

/// An interceptor that *allows* exactly one public resolver through
/// untouched — the "only one resolver allowed" pattern of §4.1.1.
pub fn single_resolver_allowed(
    wan_v4: Ipv4Addr,
    upstream: IpAddr,
    allowed: &[IpAddr],
    version: &str,
) -> CpeConfig {
    let spec = ForwarderSpec::new(SoftwareProfile::dnsmasq(version), upstream);
    let intercept = InterceptSpec {
        exempt_dsts: allowed.to_vec(),
        match_dsts: Vec::new(),
        intercept_v6: false,
    };
    CpeConfig::v4_only("selective-interceptor", wan_v4, DnsMode::Interceptor(spec, intercept))
}

/// An interceptor that targets only specific resolver addresses (the "only
/// one resolver intercepted" pattern of §4.1.1).
pub fn single_resolver_targeted(
    wan_v4: Ipv4Addr,
    upstream: IpAddr,
    targets: &[IpAddr],
    version: &str,
) -> CpeConfig {
    let mut spec = ForwarderSpec::new(SoftwareProfile::dnsmasq(version), upstream);
    // Targeted DNAT doesn't capture queries to the CPE's own address, so
    // step 2 relies on the forwarder listening there; boxes shipping such
    // rules serve port 53 on every interface.
    spec.listen_wan = true;
    let intercept = InterceptSpec {
        exempt_dsts: Vec::new(),
        match_dsts: targets.to_vec(),
        intercept_v6: false,
    };
    CpeConfig::v4_only("targeted-interceptor", wan_v4, DnsMode::Interceptor(spec, intercept))
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

    #[test]
    fn catalog_modes() {
        assert!(!plain(wan()).dns.intercepts());
        assert!(!dnsmasq_lan(wan(), upstream(), "2.85").dns.intercepts());
        assert!(!open_wan_forwarder(wan(), upstream(), "2.80").dns.intercepts());
        assert!(xb6_buggy(wan(), upstream()).dns.intercepts());
        assert!(!xb6_healthy(wan(), upstream()).dns.intercepts());
        assert!(pi_hole(wan(), upstream(), "2.87").dns.intercepts());
        assert!(unbound_interceptor(wan(), upstream(), "1.9.0").dns.intercepts());
        assert!(stealth_interceptor(wan(), upstream()).dns.intercepts());
    }

    #[test]
    fn open_forwarder_listens_on_wan() {
        let c = open_wan_forwarder(wan(), upstream(), "2.80");
        assert!(c.dns.forwarder().unwrap().listen_wan);
        let c = dnsmasq_lan(wan(), upstream(), "2.85");
        assert!(!c.dns.forwarder().unwrap().listen_wan);
    }

    #[test]
    fn version_strings_match_table_5() {
        assert_eq!(
            pi_hole(wan(), upstream(), "2.87").dns.forwarder().unwrap().profile.version_string(),
            Some("dnsmasq-pi-hole-2.87")
        );
        assert_eq!(
            unbound_interceptor(wan(), upstream(), "1.9.0")
                .dns
                .forwarder()
                .unwrap()
                .profile
                .version_string(),
            Some("unbound 1.9.0")
        );
        assert_eq!(
            stealth_interceptor(wan(), upstream())
                .dns
                .forwarder()
                .unwrap()
                .profile
                .version_string(),
            None
        );
    }

    #[test]
    fn selective_models_carry_lists() {
        let allowed: IpAddr = "9.9.9.9".parse().unwrap();
        let c = single_resolver_allowed(wan(), upstream(), &[allowed], "2.85");
        match &c.dns {
            DnsMode::Interceptor(_, i) => assert_eq!(i.exempt_dsts, vec![allowed]),
            _ => panic!("expected interceptor"),
        }
        let target: IpAddr = "8.8.8.8".parse().unwrap();
        let c = single_resolver_targeted(wan(), upstream(), &[target], "2.85");
        match &c.dns {
            DnsMode::Interceptor(_, i) => assert_eq!(i.match_dsts, vec![target]),
            _ => panic!("expected interceptor"),
        }
    }
}
