//! CPE configuration types: addressing and DNS-stack modes.

use dns_wire::Name;
use netsim::{Cidr, SharedStr};
use resolver_sim::SoftwareProfile;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};

/// How the forwarder relays DNS queries that arrive on the *WAN* side —
/// the axis the open-DNS taxonomy (transparent forwarder / open forwarder /
/// open recursive) classifies scanners' findings along.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum WanMode {
    /// WAN queries get only synchronous local answers (CHAOS identity,
    /// blocklist hits, refusals); recursive names are never relayed for
    /// outside clients.
    #[default]
    LocalOnly,
    /// Open forwarder: relays WAN queries upstream *with its own source
    /// address* and returns the upstream answer itself.
    OpenRelay,
    /// Transparent forwarder: relays the scanner's packet upstream
    /// unchanged, preserving the original (possibly spoofed) source, so
    /// the upstream answers the scanner directly — the response-source
    /// mismatch signature.
    Transparent,
    /// Open recursive: resolves WAN queries itself and answers from the
    /// queried address; reflector names reveal the CPE's own egress.
    Recurse,
}

/// The DNS forwarder embedded in a CPE.
#[derive(Debug, Clone)]
pub struct ForwarderSpec {
    /// Software identity (drives `version.bind` answers).
    pub profile: SoftwareProfile,
    /// IPv4 upstream resolver (typically the ISP's).
    pub upstream_v4: IpAddr,
    /// IPv6 upstream resolver, when the CPE forwards over v6.
    pub upstream_v6: Option<IpAddr>,
    /// Locally blocked names (Pi-hole style), answered NXDOMAIN.
    pub blocklist: Vec<Name>,
    /// Whether the forwarder also answers queries addressed to the CPE's
    /// *public* (WAN) address — the "port 53 open" condition of Appendix A.
    pub listen_wan: bool,
    /// What the forwarder does with recursive queries from the WAN side
    /// (only reachable when `listen_wan` is set).
    pub wan_mode: WanMode,
}

impl ForwarderSpec {
    /// A LAN-only forwarder with the given identity and upstream.
    pub fn new(profile: SoftwareProfile, upstream_v4: IpAddr) -> ForwarderSpec {
        ForwarderSpec {
            profile,
            upstream_v4,
            upstream_v6: None,
            blocklist: Vec::new(),
            listen_wan: false,
            wan_mode: WanMode::LocalOnly,
        }
    }
}

/// DNAT interception policy layered on a forwarder.
#[derive(Debug, Clone, Default)]
pub struct InterceptSpec {
    /// Destinations *not* redirected (an "allowed" resolver, §4.1.1).
    pub exempt_dsts: Vec<IpAddr>,
    /// Destinations that *are* redirected; empty = all.
    pub match_dsts: Vec<IpAddr>,
    /// Whether v6 port-53 traffic is intercepted too. Rare in practice
    /// (Table 4), hence default false.
    pub intercept_v6: bool,
}

/// What the CPE's DNS stack does.
#[derive(Debug, Clone)]
pub enum DnsMode {
    /// No DNS service: port 53 closed everywhere, no interception.
    None,
    /// A forwarder serving the addresses it listens on, no interception.
    Forwarder(ForwarderSpec),
    /// A forwarder plus a DNAT rule that redirects outbound port-53 traffic
    /// to it — the interceptor of §3.2/§5.
    Interceptor(ForwarderSpec, InterceptSpec),
}

impl DnsMode {
    /// The forwarder, if the mode has one.
    pub fn forwarder(&self) -> Option<&ForwarderSpec> {
        match self {
            DnsMode::None => None,
            DnsMode::Forwarder(f) | DnsMode::Interceptor(f, _) => Some(f),
        }
    }

    /// True when the mode intercepts.
    pub fn intercepts(&self) -> bool {
        matches!(self, DnsMode::Interceptor(..))
    }
}

/// Full CPE configuration.
#[derive(Debug, Clone)]
pub struct CpeConfig {
    /// Device name for traces ("XB6", "generic-dnsmasq", …).
    pub name: SharedStr,
    /// LAN-side IPv4 address (the home gateway, e.g. 192.168.1.1).
    pub lan_v4: Ipv4Addr,
    /// WAN-side public IPv4 address.
    pub wan_v4: Ipv4Addr,
    /// LAN-side IPv6 address, when the home has v6.
    pub lan_v6: Option<Ipv6Addr>,
    /// WAN-side IPv6 address.
    pub wan_v6: Option<Ipv6Addr>,
    /// The delegated home IPv6 prefix (routed, not NATed).
    pub lan_prefix_v6: Option<Cidr>,
    /// DNS stack behaviour.
    pub dns: DnsMode,
}

impl CpeConfig {
    /// A v4-only CPE with the standard home addressing.
    pub fn v4_only(name: impl Into<SharedStr>, wan_v4: Ipv4Addr, dns: DnsMode) -> CpeConfig {
        CpeConfig {
            name: name.into(),
            lan_v4: Ipv4Addr::new(192, 168, 1, 1),
            wan_v4,
            lan_v6: None,
            wan_v6: None,
            lan_prefix_v6: None,
            dns,
        }
    }

    /// Adds dual-stack addressing: the home gets `prefix` (a /64), the CPE
    /// takes `::1` in it, and `wan_v6` on the WAN side.
    pub fn with_v6(mut self, wan_v6: Ipv6Addr, lan_v6: Ipv6Addr, prefix: Cidr) -> CpeConfig {
        self.wan_v6 = Some(wan_v6);
        self.lan_v6 = Some(lan_v6);
        self.lan_prefix_v6 = Some(prefix);
        self
    }

    /// True if `addr` is one of the CPE's own addresses. Checked for every
    /// packet the device receives, so it compares in place.
    pub(crate) fn owns_addr(&self, addr: IpAddr) -> bool {
        match addr {
            IpAddr::V4(v4) => v4 == self.lan_v4 || v4 == self.wan_v4,
            IpAddr::V6(v6) => self.lan_v6 == Some(v6) || self.wan_v6 == Some(v6),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn v4_only_defaults() {
        let c = CpeConfig::v4_only("test", "73.22.1.5".parse().unwrap(), DnsMode::None);
        assert_eq!(c.lan_v4, Ipv4Addr::new(192, 168, 1, 1));
        assert!(c.owns_addr(IpAddr::V4(c.lan_v4)));
        assert!(c.owns_addr("73.22.1.5".parse().unwrap()));
        assert!(!c.owns_addr("2601:100:1::1".parse().unwrap()));
        assert!(!c.dns.intercepts());
        assert!(c.dns.forwarder().is_none());
    }

    #[test]
    fn dual_stack_addrs() {
        let c = CpeConfig::v4_only("test", "73.22.1.5".parse().unwrap(), DnsMode::None).with_v6(
            "2001:558:100::5".parse().unwrap(),
            "2601:100:1::1".parse().unwrap(),
            "2601:100:1::/64".parse().unwrap(),
        );
        for own in ["192.168.1.1", "73.22.1.5", "2001:558:100::5", "2601:100:1::1"] {
            assert!(c.owns_addr(own.parse().unwrap()), "{own}");
        }
        assert!(!c.owns_addr("2601:100:1::2".parse().unwrap()));
    }

    #[test]
    fn mode_queries() {
        let fwd =
            ForwarderSpec::new(SoftwareProfile::dnsmasq("2.85"), "75.75.75.75".parse().unwrap());
        let m = DnsMode::Interceptor(fwd.clone(), InterceptSpec::default());
        assert!(m.intercepts());
        assert_eq!(m.forwarder().unwrap().profile.version_string(), Some("dnsmasq-2.85"));
        let m = DnsMode::Forwarder(fwd);
        assert!(!m.intercepts());
        assert!(m.forwarder().is_some());
    }
}
