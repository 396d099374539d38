//! DNS software profiles: how a given implementation answers the CHAOS
//! server-identification queries.
//!
//! Table 5 of the paper lists the `version.bind` strings observed from
//! CPE interceptors: mostly Dnsmasq, some Pi-hole Dnsmasq builds, unbound,
//! RedHat BIND builds, PowerDNS, Windows, and a long tail of one-offs
//! (`new`, `unknown`, `none`, `huuh?`). These constructors reproduce those
//! string shapes.
//!
//! The strings are [`SharedStr`]s: a profile made from literals or from
//! shared text, and every clone of one, allocates nothing.

use dns_wire::debug_queries::ServerIdKind;
use dns_wire::Rcode;
use netsim::SharedStr;

/// How a server answers one CHAOS identification query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChaosPolicy {
    /// NOERROR with the given TXT string.
    Text(SharedStr),
    /// A bare status code (NOTIMP, REFUSED, NXDOMAIN…).
    Status(Rcode),
    /// No response at all.
    Silent,
}

/// A DNS implementation's identity as seen through CHAOS queries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SoftwareProfile {
    /// Marketing name, for traces.
    pub name: SharedStr,
    /// Answer to `version.bind` / `version.server`.
    pub version_bind: ChaosPolicy,
    /// Answer to `id.server` / `hostname.bind`.
    pub id_server: ChaosPolicy,
}

impl SoftwareProfile {
    /// Dnsmasq, the dominant CPE forwarder (Table 5: 23 probes).
    pub fn dnsmasq(version: &str) -> SoftwareProfile {
        let s = SharedStr::shared(format!("dnsmasq-{version}"));
        SoftwareProfile {
            name: "Dnsmasq".into(),
            version_bind: ChaosPolicy::Text(s.clone()),
            id_server: ChaosPolicy::Text(s),
        }
    }

    /// Pi-hole's Dnsmasq fork (Table 5: 8 probes).
    pub fn pi_hole(version: &str) -> SoftwareProfile {
        let s = SharedStr::shared(format!("dnsmasq-pi-hole-{version}"));
        SoftwareProfile {
            name: "Pi-hole".into(),
            version_bind: ChaosPolicy::Text(s.clone()),
            id_server: ChaosPolicy::Text(s),
        }
    }

    /// NLnet Labs Unbound (Table 5: 6 probes).
    pub fn unbound(version: &str) -> SoftwareProfile {
        let s = SharedStr::from(format!("unbound {version}"));
        SoftwareProfile {
            name: "Unbound".into(),
            version_bind: ChaosPolicy::Text(s),
            id_server: ChaosPolicy::Status(Rcode::Refused),
        }
    }

    /// A RedHat-packaged BIND (Table 5: `*-RedHat`, 2 probes).
    pub fn bind_redhat(version: &str) -> SoftwareProfile {
        let s = SharedStr::from(format!("{version}-RedHat"));
        SoftwareProfile {
            name: "BIND (RedHat)".into(),
            version_bind: ChaosPolicy::Text(s),
            id_server: ChaosPolicy::Status(Rcode::Refused),
        }
    }

    /// PowerDNS Recursor (Table 5: 1 probe).
    pub fn powerdns(version: &str) -> SoftwareProfile {
        let s = SharedStr::from(format!("PowerDNS Recursor {version}"));
        SoftwareProfile {
            name: "PowerDNS".into(),
            version_bind: ChaosPolicy::Text(s),
            id_server: ChaosPolicy::Status(Rcode::ServFail),
        }
    }

    /// Comcast's XDNS component of RDK-B (§5): "implements a response to
    /// version.bind".
    pub fn xdns(version: &str) -> SoftwareProfile {
        let s = SharedStr::shared(format!("dnsmasq-{version}"));
        SoftwareProfile {
            name: "XDNS (RDK-B)".into(),
            version_bind: ChaosPolicy::Text(s.clone()),
            id_server: ChaosPolicy::Text(s),
        }
    }

    /// An arbitrary version string (Table 5's long tail: `Windows NS`,
    /// `Microsoft`, `new`, `unknown`, `none`, `huuh?`, …). A literal or
    /// shared text is used in place for both the name and the answer.
    pub fn custom(version_string: impl Into<SharedStr>) -> SoftwareProfile {
        let version_string = version_string.into();
        SoftwareProfile {
            name: version_string.clone(),
            version_bind: ChaosPolicy::Text(version_string),
            id_server: ChaosPolicy::Status(Rcode::NotImp),
        }
    }

    /// Software that forwards everything but answers `version.bind` with a
    /// given status code (Table 3's probe 11992 pattern: NXDOMAIN).
    pub fn version_bind_status(name: impl Into<SharedStr>, rcode: Rcode) -> SoftwareProfile {
        SoftwareProfile {
            name: name.into(),
            version_bind: ChaosPolicy::Status(rcode),
            id_server: ChaosPolicy::Status(rcode),
        }
    }

    /// Software with `version.bind` disabled — the paper's §6 limitation:
    /// such a CPE interceptor cannot be identified by step 2.
    pub fn version_hidden(name: impl Into<SharedStr>) -> SoftwareProfile {
        SoftwareProfile {
            name: name.into(),
            version_bind: ChaosPolicy::Status(Rcode::Refused),
            id_server: ChaosPolicy::Status(Rcode::Refused),
        }
    }

    /// Software that answers neither query (drops CHAOS entirely).
    pub fn chaos_silent(name: impl Into<SharedStr>) -> SoftwareProfile {
        SoftwareProfile {
            name: name.into(),
            version_bind: ChaosPolicy::Silent,
            id_server: ChaosPolicy::Silent,
        }
    }

    /// How this software answers a server-identification question of
    /// `kind`.
    pub(crate) fn policy(&self, kind: ServerIdKind) -> &ChaosPolicy {
        match kind {
            ServerIdKind::Version => &self.version_bind,
            ServerIdKind::Identity => &self.id_server,
        }
    }

    /// The `version.bind` TXT string, if the profile reveals one.
    pub fn version_string(&self) -> Option<&str> {
        match &self.version_bind {
            ChaosPolicy::Text(s) => Some(s),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_5_string_shapes() {
        assert_eq!(SoftwareProfile::dnsmasq("2.85").version_string(), Some("dnsmasq-2.85"));
        assert_eq!(
            SoftwareProfile::pi_hole("2.87").version_string(),
            Some("dnsmasq-pi-hole-2.87")
        );
        assert_eq!(SoftwareProfile::unbound("1.9.0").version_string(), Some("unbound 1.9.0"));
        assert_eq!(
            SoftwareProfile::bind_redhat("9.11.4").version_string(),
            Some("9.11.4-RedHat")
        );
        assert_eq!(
            SoftwareProfile::powerdns("4.1.11").version_string(),
            Some("PowerDNS Recursor 4.1.11")
        );
        assert_eq!(SoftwareProfile::custom("huuh?").version_string(), Some("huuh?"));
    }

    #[test]
    fn hidden_and_silent_profiles_reveal_nothing() {
        assert_eq!(SoftwareProfile::version_hidden("stealth").version_string(), None);
        assert_eq!(SoftwareProfile::chaos_silent("mute").version_string(), None);
        assert_eq!(
            SoftwareProfile::version_hidden("stealth").version_bind,
            ChaosPolicy::Status(Rcode::Refused)
        );
        assert_eq!(SoftwareProfile::chaos_silent("mute").version_bind, ChaosPolicy::Silent);
    }

    #[test]
    fn xdns_masks_as_dnsmasq() {
        // RDK-B's XDNS is built on a dnsmasq base; its version.bind string
        // looks like dnsmasq's, which is why Table 5's top row dominates.
        let p = SoftwareProfile::xdns("2.78-xdns");
        assert_eq!(p.version_string(), Some("dnsmasq-2.78-xdns"));
    }
}
