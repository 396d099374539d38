//! CIDR prefixes and longest-prefix-match routing tables.

use crate::sim::IfaceId;
use core::fmt;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};
use std::str::FromStr;

/// A CIDR prefix, v4 or v6.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Cidr {
    /// IPv4 prefix.
    V4 {
        /// Network address (host bits may be set; they are masked on use).
        addr: Ipv4Addr,
        /// Prefix length, 0..=32.
        prefix: u8,
    },
    /// IPv6 prefix.
    V6 {
        /// Network address.
        addr: Ipv6Addr,
        /// Prefix length, 0..=128.
        prefix: u8,
    },
}

impl Cidr {
    /// Builds a v4 prefix, clamping the length to 32.
    pub fn v4(addr: Ipv4Addr, prefix: u8) -> Cidr {
        Cidr::V4 { addr, prefix: prefix.min(32) }
    }

    /// Builds a v6 prefix, clamping the length to 128.
    pub fn v6(addr: Ipv6Addr, prefix: u8) -> Cidr {
        Cidr::V6 { addr, prefix: prefix.min(128) }
    }

    /// A /32 or /128 prefix covering exactly `ip`.
    pub fn host(ip: IpAddr) -> Cidr {
        match ip {
            IpAddr::V4(a) => Cidr::v4(a, 32),
            IpAddr::V6(a) => Cidr::v6(a, 128),
        }
    }

    /// Prefix length.
    pub fn prefix_len(&self) -> u8 {
        match self {
            Cidr::V4 { prefix, .. } | Cidr::V6 { prefix, .. } => *prefix,
        }
    }

    /// True if the prefix and the address are the same family and the
    /// address falls inside the prefix.
    pub fn contains(&self, ip: IpAddr) -> bool {
        match (self, ip) {
            (Cidr::V4 { addr, prefix }, IpAddr::V4(ip)) => {
                let mask = if *prefix == 0 { 0 } else { u32::MAX << (32 - *prefix as u32) };
                (u32::from(*addr) & mask) == (u32::from(ip) & mask)
            }
            (Cidr::V6 { addr, prefix }, IpAddr::V6(ip)) => {
                let mask = if *prefix == 0 {
                    0
                } else {
                    u128::MAX << (128 - *prefix as u32)
                };
                (u128::from(*addr) & mask) == (u128::from(ip) & mask)
            }
            _ => false,
        }
    }
}

impl fmt::Display for Cidr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Cidr::V4 { addr, prefix } => write!(f, "{addr}/{prefix}"),
            Cidr::V6 { addr, prefix } => write!(f, "{addr}/{prefix}"),
        }
    }
}

/// Error parsing a CIDR from presentation form.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CidrParseError;

impl fmt::Display for CidrParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid CIDR")
    }
}

impl std::error::Error for CidrParseError {}

impl FromStr for Cidr {
    type Err = CidrParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (addr, prefix) = s.split_once('/').ok_or(CidrParseError)?;
        let prefix: u8 = prefix.parse().map_err(|_| CidrParseError)?;
        match addr.parse::<IpAddr>().map_err(|_| CidrParseError)? {
            IpAddr::V4(a) if prefix <= 32 => Ok(Cidr::v4(a, prefix)),
            IpAddr::V6(a) if prefix <= 128 => Ok(Cidr::v6(a, prefix)),
            _ => Err(CidrParseError),
        }
    }
}

/// A longest-prefix-match routing table mapping prefixes to interfaces.
///
/// Tables are small (a handful of routes per simulated router, a few dozen
/// at the internet core), so the implementation is a scan over a `Vec`
/// kept in lookup order: longest prefix first and, among equal lengths,
/// the latest addition first. The first route that contains the
/// destination is then the longest-prefix match, and a lookup stops there.
#[derive(Debug, Clone, Default)]
pub struct RouteTable {
    routes: Vec<(Cidr, IfaceId)>,
}

impl RouteTable {
    /// An empty table.
    pub fn new() -> RouteTable {
        RouteTable::default()
    }

    /// Makes room for `additional` more routes, so that a table built to
    /// a known size allocates once.
    pub fn reserve(&mut self, additional: usize) -> &mut Self {
        self.routes.reserve_exact(additional);
        self
    }

    /// Adds a route. Later additions win ties on prefix length.
    pub fn add(&mut self, prefix: Cidr, iface: IfaceId) -> &mut Self {
        // Ahead of every route of equal or shorter prefix, behind every
        // longer one.
        let len = prefix.prefix_len();
        let at = self.routes.partition_point(|(p, _)| p.prefix_len() > len);
        self.routes.insert(at, (prefix, iface));
        self
    }

    /// Adds a default route for one family (0.0.0.0/0 or ::/0).
    pub fn add_default_v4(&mut self, iface: IfaceId) -> &mut Self {
        self.add(Cidr::v4(Ipv4Addr::UNSPECIFIED, 0), iface)
    }

    /// Adds an IPv6 default route.
    pub fn add_default_v6(&mut self, iface: IfaceId) -> &mut Self {
        self.add(Cidr::v6(Ipv6Addr::UNSPECIFIED, 0), iface)
    }

    /// Longest-prefix-match lookup. `None` means no route (drop).
    pub fn lookup(&self, dst: IpAddr) -> Option<IfaceId> {
        self.routes.iter().find(|(p, _)| p.contains(dst)).map(|&(_, iface)| iface)
    }

    /// Number of routes installed.
    pub fn len(&self) -> usize {
        self.routes.len()
    }

    /// True if no routes are installed.
    pub fn is_empty(&self) -> bool {
        self.routes.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ip(s: &str) -> IpAddr {
        s.parse().unwrap()
    }

    #[test]
    fn cidr_contains_v4() {
        let c: Cidr = "10.0.0.0/8".parse().unwrap();
        assert!(c.contains(ip("10.255.1.2")));
        assert!(!c.contains(ip("11.0.0.1")));
        assert!(!c.contains(ip("2001:db8::1")));
    }

    #[test]
    fn cidr_contains_v6() {
        let c: Cidr = "2001:db8::/32".parse().unwrap();
        assert!(c.contains(ip("2001:db8:ffff::1")));
        assert!(!c.contains(ip("2001:db9::1")));
        assert!(!c.contains(ip("10.0.0.1")));
    }

    #[test]
    fn cidr_zero_prefix_matches_family() {
        let any4: Cidr = "0.0.0.0/0".parse().unwrap();
        assert!(any4.contains(ip("255.255.255.255")));
        assert!(!any4.contains(ip("::1")));
        let any6: Cidr = "::/0".parse().unwrap();
        assert!(any6.contains(ip("fe80::1")));
        assert!(!any6.contains(ip("1.2.3.4")));
    }

    #[test]
    fn cidr_host_prefix() {
        let h = Cidr::host(ip("8.8.8.8"));
        assert!(h.contains(ip("8.8.8.8")));
        assert!(!h.contains(ip("8.8.8.9")));
    }

    #[test]
    fn cidr_masks_host_bits() {
        let c = Cidr::v4("192.168.1.77".parse().unwrap(), 24);
        assert!(c.contains(ip("192.168.1.200")));
        assert!(!c.contains(ip("192.168.2.1")));
    }

    #[test]
    fn cidr_parse_errors() {
        assert!("10.0.0.0".parse::<Cidr>().is_err());
        assert!("10.0.0.0/33".parse::<Cidr>().is_err());
        assert!("nonsense/8".parse::<Cidr>().is_err());
        assert!("2001:db8::/129".parse::<Cidr>().is_err());
    }

    #[test]
    fn longest_prefix_wins() {
        let mut t = RouteTable::new();
        t.add_default_v4(IfaceId(0));
        t.add("10.0.0.0/8".parse().unwrap(), IfaceId(1));
        t.add("10.1.0.0/16".parse().unwrap(), IfaceId(2));
        assert_eq!(t.lookup(ip("8.8.8.8")), Some(IfaceId(0)));
        assert_eq!(t.lookup(ip("10.2.0.1")), Some(IfaceId(1)));
        assert_eq!(t.lookup(ip("10.1.2.3")), Some(IfaceId(2)));
    }

    #[test]
    fn no_route_means_none() {
        let mut t = RouteTable::new();
        t.add("10.0.0.0/8".parse().unwrap(), IfaceId(1));
        assert_eq!(t.lookup(ip("11.0.0.1")), None);
        assert_eq!(t.lookup(ip("2001:db8::1")), None);
    }

    #[test]
    fn families_route_independently() {
        let mut t = RouteTable::new();
        t.add_default_v4(IfaceId(0));
        t.add_default_v6(IfaceId(1));
        assert_eq!(t.lookup(ip("1.2.3.4")), Some(IfaceId(0)));
        assert_eq!(t.lookup(ip("2606:4700::1")), Some(IfaceId(1)));
    }

    #[test]
    fn later_route_wins_tie() {
        let mut t = RouteTable::new();
        t.add("10.0.0.0/8".parse().unwrap(), IfaceId(1));
        t.add("10.0.0.0/8".parse().unwrap(), IfaceId(2));
        assert_eq!(t.lookup(ip("10.1.1.1")), Some(IfaceId(2)));
    }
}
