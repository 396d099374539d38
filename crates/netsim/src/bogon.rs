//! Bogon address space: prefixes that must never appear as routable
//! destinations on the public Internet.
//!
//! The paper's step 3 rests on bogons: a DNS query addressed to a bogon IP
//! cannot leave the AS it originates in, so a response proves an in-AS
//! interceptor. This module supplies the standard v4/v6 bogon lists (the
//! IANA special-purpose registries) behind [`is_bogon`].

use crate::route::Cidr;
use std::net::IpAddr;
use std::sync::OnceLock;

// The parsed lists live in process-wide statics: `is_bogon` sits on the
// router's per-packet forwarding path, where rebuilding the list would be
// an allocation (and a parse) per packet.

fn bogons_v4_table() -> &'static [Cidr] {
    static TABLE: OnceLock<Vec<Cidr>> = OnceLock::new();
    TABLE.get_or_init(|| {
        [
            "0.0.0.0/8",       // "this network"
            "10.0.0.0/8",      // RFC 1918
            "100.64.0.0/10",   // CGN shared space (RFC 6598)
            "127.0.0.0/8",     // loopback
            "169.254.0.0/16",  // link local
            "172.16.0.0/12",   // RFC 1918
            "192.0.0.0/24",    // IETF protocol assignments
            "192.0.2.0/24",    // TEST-NET-1
            "192.168.0.0/16",  // RFC 1918
            "198.18.0.0/15",   // benchmarking
            "198.51.100.0/24", // TEST-NET-2
            "203.0.113.0/24",  // TEST-NET-3
            "224.0.0.0/4",     // multicast
            "240.0.0.0/4",     // reserved
        ]
        .iter()
        .map(|s| s.parse().expect("static prefix"))
        .collect()
    })
}

fn bogons_v6_table() -> &'static [Cidr] {
    static TABLE: OnceLock<Vec<Cidr>> = OnceLock::new();
    TABLE.get_or_init(|| {
        [
            "::/8",          // unspecified / v4-mapped region
            "100::/64",      // discard-only (RFC 6666)
            "2001:db8::/32", // documentation
            "fc00::/7",      // unique local
            "fe80::/10",     // link local
            "ff00::/8",      // multicast
        ]
        .iter()
        .map(|s| s.parse().expect("static prefix"))
        .collect()
    })
}

/// True if `ip` falls in bogon space (RFC 6890 and friends).
pub fn is_bogon(ip: IpAddr) -> bool {
    match ip {
        IpAddr::V4(_) => bogons_v4_table().iter().any(|c| c.contains(ip)),
        IpAddr::V6(_) => bogons_v6_table().iter().any(|c| c.contains(ip)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ip(s: &str) -> IpAddr {
        s.parse().unwrap()
    }

    #[test]
    fn rfc1918_is_bogon() {
        assert!(is_bogon(ip("10.1.2.3")));
        assert!(is_bogon(ip("192.168.1.1")));
        assert!(is_bogon(ip("172.16.9.9")));
        assert!(is_bogon(ip("172.31.255.255")));
        assert!(!is_bogon(ip("172.32.0.1")));
    }

    #[test]
    fn test_nets_are_bogons() {
        assert!(is_bogon(ip("192.0.2.1")));
        assert!(is_bogon(ip("198.51.100.53")));
        assert!(is_bogon(ip("203.0.113.7")));
    }

    #[test]
    fn public_space_is_not_bogon() {
        assert!(!is_bogon(ip("8.8.8.8")));
        assert!(!is_bogon(ip("1.1.1.1")));
        assert!(!is_bogon(ip("73.22.1.5")));
        assert!(!is_bogon(ip("2606:4700:4700::1111")));
        assert!(!is_bogon(ip("2001:4860:4860::8888")));
    }

    #[test]
    fn v6_bogons() {
        assert!(is_bogon(ip("fe80::1")));
        assert!(is_bogon(ip("fd00::1")));
        assert!(is_bogon(ip("2001:db8::1")));
        assert!(is_bogon(ip("100::53")));
    }

    #[test]
    fn cgn_space_is_bogon() {
        assert!(is_bogon(ip("100.64.0.1")));
        assert!(is_bogon(ip("100.127.255.255")));
        assert!(!is_bogon(ip("100.128.0.1")));
    }

    #[test]
    fn v4_martian_range_borders_are_exact() {
        // First/last address inside each tricky range, and the routable
        // neighbors one address either side of the border.
        assert!(is_bogon(ip("0.0.0.0")));
        assert!(is_bogon(ip("0.255.255.255")));
        assert!(!is_bogon(ip("1.0.0.0")));
        assert!(!is_bogon(ip("9.255.255.255")));
        assert!(is_bogon(ip("10.0.0.0")));
        assert!(is_bogon(ip("10.255.255.255")));
        assert!(!is_bogon(ip("11.0.0.0")));
        assert!(!is_bogon(ip("169.253.255.255")));
        assert!(is_bogon(ip("169.254.0.0")));
        assert!(is_bogon(ip("169.254.255.255")));
        assert!(!is_bogon(ip("169.255.0.0")));
        // IETF protocol assignments stop at /24 — 192.0.1.0 is routable,
        // TEST-NET-1 starts again at 192.0.2.0.
        assert!(is_bogon(ip("192.0.0.255")));
        assert!(!is_bogon(ip("192.0.1.0")));
        assert!(is_bogon(ip("192.0.2.0")));
        assert!(is_bogon(ip("192.0.2.255")));
        assert!(!is_bogon(ip("192.0.3.0")));
        // Benchmarking is a /15: exactly 198.18.0.0–198.19.255.255.
        assert!(!is_bogon(ip("198.17.255.255")));
        assert!(is_bogon(ip("198.18.0.0")));
        assert!(is_bogon(ip("198.19.255.255")));
        assert!(!is_bogon(ip("198.20.0.0")));
        // The step-3 probe address sits inside TEST-NET-2's borders.
        assert!(!is_bogon(ip("198.51.99.255")));
        assert!(is_bogon(ip("198.51.100.0")));
        assert!(is_bogon(ip("198.51.100.255")));
        assert!(!is_bogon(ip("198.51.101.0")));
        // Multicast and reserved cover everything from 224.0.0.0 up.
        assert!(!is_bogon(ip("223.255.255.255")));
        assert!(is_bogon(ip("224.0.0.0")));
        assert!(is_bogon(ip("239.255.255.255")));
        assert!(is_bogon(ip("240.0.0.0")));
        assert!(is_bogon(ip("255.255.255.255")));
    }

    #[test]
    fn v6_martian_range_borders_are_exact() {
        // ::/8 ends at ff:… — 100:: starts a *separate* discard /64.
        assert!(is_bogon(ip("::1")));
        assert!(is_bogon(ip("ff:ffff:ffff:ffff:ffff:ffff:ffff:ffff")));
        // Discard-only is a /64: interface bits are bogon, the next subnet
        // is not.
        assert!(is_bogon(ip("100::")));
        assert!(is_bogon(ip("100::ffff:ffff:ffff:ffff")));
        assert!(!is_bogon(ip("100:0:0:1::")));
        // Documentation /32 borders.
        assert!(!is_bogon(ip("2001:db7:ffff:ffff::1")));
        assert!(is_bogon(ip("2001:db8::")));
        assert!(is_bogon(ip("2001:db8:ffff:ffff:ffff:ffff:ffff:ffff")));
        assert!(!is_bogon(ip("2001:db9::")));
        // Unique-local /7 spans fc00–fdff only.
        assert!(is_bogon(ip("fc00::1")));
        assert!(is_bogon(ip("fdff:ffff:ffff:ffff:ffff:ffff:ffff:ffff")));
        assert!(!is_bogon(ip("fe00::1")));
        // Link-local /10 spans fe80–febf; the old site-local fec0 block is
        // not on the list.
        assert!(is_bogon(ip("fe80::")));
        assert!(is_bogon(ip("febf:ffff:ffff:ffff:ffff:ffff:ffff:ffff")));
        assert!(!is_bogon(ip("fec0::1")));
        // Multicast /8.
        assert!(is_bogon(ip("ff00::")));
        assert!(is_bogon(ip("ffff:ffff:ffff:ffff:ffff:ffff:ffff:ffff")));
    }
}
