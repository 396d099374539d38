//! The organization (AS) catalog: a synthetic population mirroring RIPE
//! Atlas's skew — Europe/North-America heavy, Comcast prominent — with
//! per-org interceptor quotas tuned so the fleet reproduces the *shape* of
//! the paper's Tables 4–5 and Figures 3–4 (≈2% of probes intercepted,
//! Comcast the top organization, ≈49 CPE interceptors dominated by
//! Dnsmasq strings, interception mostly at CPE-or-ISP).

use crate::flavor::Flavor;
use interception::IspProfile;
use locator::ResolverKey;
use std::net::{Ipv4Addr, Ipv6Addr};

/// One organization in the fleet.
#[derive(Debug, Clone)]
pub struct OrgSpec {
    /// Organization name as shown in Figures 3–4.
    pub name: String,
    /// Autonomous system number.
    pub asn: u32,
    /// ISO country code.
    pub country: String,
    /// Share of the fleet's probes (relative weight).
    pub weight: f64,
    /// Fraction of this org's homes with IPv6.
    pub v6_rate: f64,
    /// Exact numbers of probes with each interceptor flavor; all remaining
    /// probes are benign.
    pub quotas: Vec<(Flavor, u32)>,
    /// `version.bind` string of the org's resolver.
    pub resolver_version: String,
}

impl OrgSpec {
    fn new(
        name: &str,
        asn: u32,
        country: &str,
        weight: f64,
        v6_rate: f64,
        resolver_version: &str,
        quotas: Vec<(Flavor, u32)>,
    ) -> OrgSpec {
        OrgSpec {
            name: name.into(),
            asn,
            country: country.into(),
            weight,
            v6_rate,
            quotas,
            resolver_version: resolver_version.into(),
        }
    }

    /// Builds this org's [`IspProfile`]. The org index keeps address space
    /// disjoint across the catalog.
    pub fn isp_profile(&self, org_index: usize) -> IspProfile {
        let octet = 24 + (org_index as u8 % 70);
        let v4_prefix = Ipv4Addr::new(octet, 0, 0, 0);
        let v6_prefix = Ipv6Addr::new(0x2600 + org_index as u16, 0, 0, 0, 0, 0, 0, 0);
        // The resolver lives above every customer /64: `customer_v6(n)`
        // delegates the /64 numbered n + 1 above the prefix, so every
        // customer prefix lies below <isp>:2::.
        let infra_v6 = |host| Ipv6Addr::new(0x2600 + org_index as u16, 0x53, 0, 0, 0, 0, 0, host);
        IspProfile {
            asn: self.asn,
            name: self.name.as_str().into(),
            country: self.country.as_str().into(),
            v4_prefix,
            v4_prefix_len: 8,
            v6_prefix,
            resolver_v4: Ipv4Addr::new(octet, 75, 75, 75),
            resolver_v6: infra_v6(1),
            resolver_egress_v4: Ipv4Addr::new(octet, 75, 75, 10),
            resolver_egress_v6: infra_v6(0x10),
            resolver_version: self.resolver_version.as_str().into(),
            resolver_mode: interception::ResolverMode::Normal,
            resolver_in_as: true,
        }
    }
}

/// The default catalog.
pub fn default_catalog() -> Vec<OrgSpec> {
    use Flavor::*;
    use ResolverKey::*;
    let custom = |s: &str| CpeCustom { version_string: s.into() };
    vec![
        OrgSpec::new("Comcast", 7922, "US", 8.0, 0.45, "unbound 1.9.0", vec![
            (Xb6Buggy, 10),
            (PiHole, 2),
            (CpeTargetedOne { target: Google }, 2),
            (custom("new"), 1),
            (MiddleboxTransparent, 8),
            (MiddleboxOneAllowed { allowed: OpenDns }, 8),
            (MiddleboxTargetedOne { target: Google }, 8),
            (MiddleboxTargetedOne { target: Cloudflare }, 6),
        ]),
        OrgSpec::new("Charter", 20115, "US", 3.0, 0.30, "9.11.4-RedHat", vec![
            (MiddleboxTransparent, 2),
            (MiddleboxTargetedOne { target: Google }, 3),
            (CpeDnsmasq { version: "2.80".into() }, 1),
        ]),
        OrgSpec::new("AT&T", 7018, "US", 3.0, 0.35, "unbound 1.6.7", vec![
            (MiddleboxTransparent, 1),
            (MiddleboxTargetedOne { target: Cloudflare }, 2),
            (custom("Windows NS"), 1),
        ]),
        OrgSpec::new("Verizon", 701, "US", 2.0, 0.30, "9.16.15", vec![
            (custom("Microsoft"), 1),
            (CpeStealth, 1),
        ]),
        OrgSpec::new("Shaw", 6327, "CA", 1.5, 0.30, "unbound 1.9.0", vec![
            (Xb6Buggy, 2),
            (MiddleboxTargetedOne { target: Google }, 1),
        ]),
        OrgSpec::new("Bell", 577, "CA", 1.0, 0.30, "9.11.4-RedHat", vec![
            (custom("Q9-U-2.1"), 1),
        ]),
        OrgSpec::new("DTAG", 3320, "DE", 6.0, 0.50, "PowerDNS Recursor 4.1.11", vec![
            (PiHole, 2),
            (CpeDnsmasq { version: "2.85".into() }, 1),
            (MiddleboxTransparent, 1),
            (MiddleboxTargetedOne { target: Google }, 2),
        ]),
        OrgSpec::new("Vodafone DE", 3209, "DE", 3.0, 0.40, "unbound 1.9.0", vec![
            (Xb6Buggy, 2),
            (MiddleboxTransparent, 1),
            (MiddleboxOneAllowed { allowed: Quad9 }, 2),
        ]),
        OrgSpec::new("Free", 12322, "FR", 3.5, 0.55, "unbound 1.13.1", vec![
            (PiHole, 1),
            (CpeUnbound, 1),
            (MiddleboxTargetedOne { target: Cloudflare }, 1),
        ]),
        OrgSpec::new("Orange", 3215, "FR", 3.0, 0.45, "9.11.5-P4", vec![
            (MiddleboxTransparent, 1),
            (MiddleboxTargetedOne { target: Google }, 2),
            (custom("PowerDNS Recursor 4.1.11"), 1),
        ]),
        OrgSpec::new("BT", 2856, "GB", 3.0, 0.40, "unbound 1.9.0", vec![
            (PiHole, 1),
            (CpeUnbound, 1),
            (MiddleboxTargetedOne { target: Google }, 1),
        ]),
        OrgSpec::new("Vodafone UK", 5378, "GB", 1.5, 0.35, "unbound 1.9.0", vec![
            (Xb6Buggy, 2),
            (MiddleboxOneAllowed { allowed: Quad9 }, 1),
        ]),
        OrgSpec::new("Sky", 5607, "GB", 1.5, 0.45, "9.11.3", vec![
            (MiddleboxTargetedOne { target: Cloudflare }, 1),
        ]),
        OrgSpec::new("KPN", 1136, "NL", 2.5, 0.50, "unbound 1.9.0", vec![
            (PiHole, 1),
            (CpeUnbound, 1),
            (MiddleboxBothFamilies { v6_targets: vec![Cloudflare, Google] }, 1),
        ]),
        OrgSpec::new("Ziggo", 33915, "NL", 2.0, 0.45, "unbound 1.9.0", vec![
            (Xb6Buggy, 2),
        ]),
        OrgSpec::new("Rostelecom", 12389, "RU", 2.0, 0.18, "unbound 1.7.3", vec![
            (MiddleboxTransparent, 5),
            (MiddleboxModified, 3),
            (MiddleboxMixed { refused: vec![Google, Cloudflare] }, 2),
            (MiddleboxOneAllowed { allowed: Quad9 }, 6),
            (MiddleboxTargetedOne { target: Google }, 6),
            (MiddleboxBothFamilies { v6_targets: vec![Google, Quad9] }, 3),
            (MiddleboxV6Only { v6_targets: vec![Google, Cloudflare, OpenDns] }, 2),
            (IspResolverOutside, 2),
        ]),
        OrgSpec::new("MTS", 8359, "RU", 1.2, 0.15, "9.11.4-RedHat", vec![
            (MiddleboxTransparent, 3),
            (MiddleboxModified, 2),
            (MiddleboxOneAllowed { allowed: Quad9 }, 3),
            (MiddleboxTargetedOne { target: Cloudflare }, 3),
            (MiddleboxBothFamilies { v6_targets: vec![Cloudflare, OpenDns] }, 2),
            (MiddleboxV6Only { v6_targets: vec![Google, Quad9] }, 1),
        ]),
        OrgSpec::new("Turk Telekom", 9121, "TR", 1.2, 0.15, "dnsmasq-2.76", vec![
            (MiddleboxTransparent, 4),
            (MiddleboxModified, 3),
            (MiddleboxMixed { refused: vec![Quad9] }, 1),
            (MiddleboxOneAllowed { allowed: OpenDns }, 5),
            (MiddleboxTargetedOne { target: Google }, 5),
            (MiddleboxBothFamilies { v6_targets: vec![Google, Cloudflare] }, 2),
            (MiddleboxV6Only { v6_targets: vec![Quad9, OpenDns, Cloudflare] }, 2),
            (IspResolverOutside, 1),
        ]),
        OrgSpec::new("China Telecom", 4134, "CN", 0.8, 0.18, "unknown", vec![
            (MiddleboxTransparent, 2),
            (MiddleboxModified, 1),
            (MiddleboxMixed { refused: vec![Google] }, 1),
            (Beyond, 3),
            (MiddleboxTargetedOne { target: Google }, 3),
            (MiddleboxBothFamilies { v6_targets: vec![Google] }, 2),
            (MiddleboxV6Only { v6_targets: vec![Google, Quad9, Cloudflare] }, 1),
        ]),
        OrgSpec::new("China Unicom", 4837, "CN", 0.5, 0.18, "unknown", vec![
            (MiddleboxTransparent, 2),
            (Beyond, 2),
            (MiddleboxOneAllowed { allowed: Quad9 }, 1),
            (MiddleboxTargetedOne { target: Google }, 2),
        ]),
        OrgSpec::new("Telkom Indonesia", 7713, "ID", 0.7, 0.12, "dnsmasq-2.80", vec![
            (MiddleboxTransparent, 2),
            (MiddleboxOneAllowed { allowed: Quad9 }, 2),
            (MiddleboxTargetedOne { target: Google }, 2),
            (MiddleboxV6Only { v6_targets: vec![Google, Cloudflare] }, 1),
        ]),
        OrgSpec::new("TIM", 3269, "IT", 2.2, 0.30, "9.11.3", vec![
            (MiddleboxTransparent, 1),
            (MiddleboxOneAllowed { allowed: Cloudflare }, 2),
            (MiddleboxTargetedOne { target: OpenDns }, 1),
        ]),
        OrgSpec::new("Telefonica", 3352, "ES", 2.2, 0.32, "unbound 1.6.7", vec![
            (MiddleboxTransparent, 1),
            (MiddleboxBothFamilies { v6_targets: vec![OpenDns, Quad9] }, 1),
            (MiddleboxTargetedOne { target: Google }, 1),
            (MiddleboxOneAllowed { allowed: Google }, 1),
        ]),
        OrgSpec::new("Telia", 3301, "SE", 1.5, 0.45, "9.11.4-RedHat", vec![
            (CpeRedHat, 2),
            (PiHole, 1),
        ]),
        OrgSpec::new("Swisscom", 3303, "CH", 1.5, 0.55, "unbound 1.13.1", vec![
            (CpeUnbound, 1),
            (custom("9.16.15"), 1),
        ]),
        OrgSpec::new("Telstra", 1221, "AU", 1.2, 0.32, "unbound 1.9.0", vec![
            (MiddleboxTargetedOne { target: Google }, 1),
            (custom("unknown"), 1),
        ]),
        OrgSpec::new("NTT", 4713, "JP", 1.0, 0.42, "unbound 1.9.0", vec![
            (custom("huuh?"), 1),
        ]),
        OrgSpec::new("Claro", 28573, "BR", 0.8, 0.20, "dnsmasq-2.79", vec![
            (MiddleboxTransparent, 2),
            (MiddleboxModified, 1),
            (MiddleboxOneAllowed { allowed: OpenDns }, 1),
        ]),
        OrgSpec::new("Play", 12912, "PL", 1.5, 0.28, "unbound 1.9.0", vec![
            (MiddleboxTargetedOne { target: Cloudflare }, 1),
            (custom("none"), 1),
        ]),
        OrgSpec::new("O2 CZ", 5610, "CZ", 1.5, 0.42, "unbound 1.9.0", vec![
            (CpeDnsmasq { version: "2.76".into() }, 1),
            (CpeUnbound, 1),
            (MiddleboxOneAllowed { allowed: Google }, 1),
        ]),
        OrgSpec::new("A1 Telekom", 8447, "AT", 1.3, 0.42, "unbound 1.9.0", vec![
            (CpeUnbound, 1),
            (custom("9.11.5-Debian"), 1),
        ]),
        OrgSpec::new("Proximus", 5432, "BE", 1.2, 0.45, "9.11.3", vec![
            (MiddleboxOneAllowed { allowed: Quad9 }, 1),
        ]),
        OrgSpec::new("Telenor", 2119, "NO", 1.0, 0.45, "unbound 1.9.0", vec![
            (CpeStealth, 1),
        ]),
        OrgSpec::new("Elisa", 719, "FI", 1.0, 0.45, "unbound 1.9.0", vec![
            (Beyond, 1),
        ]),
        // A long benign tail keeps the intercepted fraction near the
        // paper's ≈2%.
        OrgSpec::new("Init7", 13030, "CH", 2.0, 0.60, "unbound 1.13.1", vec![]),
        OrgSpec::new("Hetzner", 24940, "DE", 2.5, 0.60, "unbound 1.13.1", vec![]),
        OrgSpec::new("OVH", 16276, "FR", 2.5, 0.55, "unbound 1.13.1", vec![]),
        OrgSpec::new("Virgin Media", 5089, "GB", 2.5, 0.35, "unbound 1.9.0", vec![]),
        OrgSpec::new("Deutsche Glasfaser", 60294, "DE", 2.0, 0.60, "unbound 1.13.1", vec![]),
        OrgSpec::new("Bouygues", 5410, "FR", 2.0, 0.45, "unbound 1.9.0", vec![]),
        OrgSpec::new("Tele2", 1257, "SE", 2.0, 0.45, "unbound 1.9.0", vec![]),
        OrgSpec::new("Vodafone IT", 30722, "IT", 2.0, 0.28, "unbound 1.9.0", vec![]),
        OrgSpec::new("Turknet", 12735, "TR", 1.0, 0.18, "unbound 1.9.0", vec![]),
        OrgSpec::new("Rogers", 812, "CA", 2.0, 0.32, "unbound 1.9.0", vec![]),
        OrgSpec::new("Cox", 22773, "US", 2.5, 0.32, "unbound 1.9.0", vec![]),
        OrgSpec::new("CenturyLink", 209, "US", 2.5, 0.28, "unbound 1.9.0", vec![]),
        OrgSpec::new("T-Mobile US", 21928, "US", 2.0, 0.40, "unbound 1.9.0", vec![]),
        OrgSpec::new("Ncell", 17501, "NP", 0.3, 0.08, "dnsmasq-2.76", vec![]),
        OrgSpec::new("Jio", 55836, "IN", 0.8, 0.28, "unbound 1.9.0", vec![]),
        OrgSpec::new("Vivo", 26599, "BR", 0.8, 0.20, "unbound 1.9.0", vec![]),
        OrgSpec::new("Telkom SA", 37457, "ZA", 0.5, 0.12, "unbound 1.9.0", vec![]),
        OrgSpec::new("Optus", 4804, "AU", 0.8, 0.28, "unbound 1.9.0", vec![]),
        OrgSpec::new("Ukrtelecom", 6849, "UA", 0.8, 0.20, "unbound 1.7.3", vec![]),
        OrgSpec::new("Magenta AT", 8412, "AT", 1.0, 0.40, "unbound 1.9.0", vec![]),
        OrgSpec::new("Telenet BE", 6848, "BE", 1.0, 0.45, "unbound 1.9.0", vec![]),
        OrgSpec::new("GlobalConnect", 2116, "NO", 1.0, 0.45, "unbound 1.9.0", vec![]),
        OrgSpec::new("Netia", 12741, "PL", 1.0, 0.28, "unbound 1.9.0", vec![]),
        OrgSpec::new("Eir", 5466, "IE", 1.0, 0.36, "unbound 1.9.0", vec![]),
        OrgSpec::new("NOS", 2860, "PT", 1.0, 0.32, "unbound 1.9.0", vec![]),
        OrgSpec::new("Otenet", 6799, "GR", 1.0, 0.28, "unbound 1.9.0", vec![]),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_is_nonempty_and_weighted() {
        let cat = default_catalog();
        assert!(cat.len() >= 40);
        let total: f64 = cat.iter().map(|o| o.weight).sum();
        assert!(total > 50.0);
        // Comcast carries the largest weight among orgs with quotas.
        let comcast = cat.iter().find(|o| o.name == "Comcast").unwrap();
        assert!(cat
            .iter()
            .filter(|o| !o.quotas.is_empty())
            .all(|o| o.weight <= comcast.weight));
    }

    #[test]
    fn asns_are_unique() {
        let cat = default_catalog();
        let mut asns: Vec<u32> = cat.iter().map(|o| o.asn).collect();
        let before = asns.len();
        asns.sort();
        asns.dedup();
        assert_eq!(asns.len(), before);
    }

    #[test]
    fn quota_totals_match_paper_scale() {
        let cat = default_catalog();
        let intercepted: u32 = cat
            .iter()
            .flat_map(|o| o.quotas.iter())
            .filter(|(f, _)| f.intercepts())
            .map(|(_, n)| n)
            .sum();
        // Paper: 220 intercepted probes. Quotas land in the same regime.
        assert!((180..=260).contains(&intercepted), "intercepted quota = {intercepted}");
        // CPE interceptors that reveal version.bind ≈ 49.
        let cpe_revealed: u32 = cat
            .iter()
            .flat_map(|o| o.quotas.iter())
            .filter(|(f, _)| f.table5_string().is_some())
            .map(|(_, n)| n)
            .sum();
        assert!((45..=55).contains(&cpe_revealed), "CPE quota = {cpe_revealed}");
    }

    #[test]
    fn isp_profiles_have_disjoint_prefixes() {
        let cat = default_catalog();
        let mut prefixes: Vec<Ipv4Addr> = (0..cat.len().min(70))
            .map(|i| cat[i].isp_profile(i).v4_prefix)
            .collect();
        let before = prefixes.len();
        prefixes.sort();
        prefixes.dedup();
        assert_eq!(prefixes.len(), before);
    }

    #[test]
    fn no_customer_prefix_holds_the_isp_resolver() {
        let cat = default_catalog();
        for (i, org) in cat.iter().enumerate() {
            let p = org.isp_profile(i);
            let base = u128::from(p.v6_prefix);
            for addr in [p.resolver_v6, p.resolver_egress_v6] {
                // customer_v6(n) delegates the /64 numbered n + 1 above the
                // prefix, for every u32 n.
                let slot = (u128::from(addr) - base) >> 64;
                assert!(slot == 0 || slot > 1 << 32, "{addr} is in customer /64 {slot}");
                for n in [0, 81, 82, 83, 65_534, u32::MAX] {
                    let (wan, _, _, prefix) = p.customer_v6(n);
                    assert!(!prefix.contains(std::net::IpAddr::V6(addr)), "{addr} in {prefix}");
                    // Nor does any customer's WAN address share its /64.
                    assert_ne!(u128::from(wan) >> 64, u128::from(addr) >> 64, "{wan} near {addr}");
                }
            }
        }
    }

    #[test]
    fn isp_profile_resolver_inside_prefix() {
        let cat = default_catalog();
        let p = cat[0].isp_profile(0);
        assert!(p.v4_cidr().contains(std::net::IpAddr::V4(p.resolver_v4)));
        assert!(p.v6_cidr().contains(std::net::IpAddr::V6(p.resolver_v6)));
    }
}
