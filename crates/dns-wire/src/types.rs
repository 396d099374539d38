//! DNS record types, classes, opcodes, and response codes.

use core::fmt;

/// DNS resource-record TYPE (RFC 1035 §3.2.2 and later additions).
///
/// Unknown values are preserved rather than rejected, so the parser is a
/// faithful transcription of whatever was on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum RType {
    /// IPv4 host address.
    A,
    /// Authoritative name server.
    Ns,
    /// Canonical name (alias).
    Cname,
    /// Start of a zone of authority.
    Soa,
    /// Domain name pointer (reverse DNS).
    Ptr,
    /// Mail exchange.
    Mx,
    /// Text strings; also the carrier for CHAOS-class debugging queries.
    Txt,
    /// IPv6 host address.
    Aaaa,
    /// EDNS(0) pseudo-record (RFC 6891).
    Opt,
    /// Any type (query-only meta type).
    Any,
    /// A type this crate has no dedicated representation for.
    Unknown(u16),
}

impl RType {
    /// Wire value of the type.
    pub fn to_u16(self) -> u16 {
        match self {
            RType::A => 1,
            RType::Ns => 2,
            RType::Cname => 5,
            RType::Soa => 6,
            RType::Ptr => 12,
            RType::Mx => 15,
            RType::Txt => 16,
            RType::Aaaa => 28,
            RType::Opt => 41,
            RType::Any => 255,
            RType::Unknown(v) => v,
        }
    }

    /// Decodes a wire value; never fails.
    pub fn from_u16(v: u16) -> Self {
        match v {
            1 => RType::A,
            2 => RType::Ns,
            5 => RType::Cname,
            6 => RType::Soa,
            12 => RType::Ptr,
            15 => RType::Mx,
            16 => RType::Txt,
            28 => RType::Aaaa,
            41 => RType::Opt,
            255 => RType::Any,
            other => RType::Unknown(other),
        }
    }
}

impl fmt::Display for RType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RType::A => write!(f, "A"),
            RType::Ns => write!(f, "NS"),
            RType::Cname => write!(f, "CNAME"),
            RType::Soa => write!(f, "SOA"),
            RType::Ptr => write!(f, "PTR"),
            RType::Mx => write!(f, "MX"),
            RType::Txt => write!(f, "TXT"),
            RType::Aaaa => write!(f, "AAAA"),
            RType::Opt => write!(f, "OPT"),
            RType::Any => write!(f, "ANY"),
            RType::Unknown(v) => write!(f, "TYPE{v}"),
        }
    }
}

/// DNS CLASS (RFC 1035 §3.2.4).
///
/// `Chaos` matters here: the paper's `version.bind` / `id.server` location
/// queries are CHAOS-class TXT queries (RFC 4892).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RClass {
    /// The Internet.
    In,
    /// CHAOSnet, repurposed for server-identification queries.
    Chaos,
    /// Hesiod.
    Hesiod,
    /// Any class (query-only).
    Any,
    /// A class with no dedicated representation.
    Unknown(u16),
}

impl RClass {
    /// Wire value of the class.
    pub fn to_u16(self) -> u16 {
        match self {
            RClass::In => 1,
            RClass::Chaos => 3,
            RClass::Hesiod => 4,
            RClass::Any => 255,
            RClass::Unknown(v) => v,
        }
    }

    /// Decodes a wire value; never fails.
    pub fn from_u16(v: u16) -> Self {
        match v {
            1 => RClass::In,
            3 => RClass::Chaos,
            4 => RClass::Hesiod,
            255 => RClass::Any,
            other => RClass::Unknown(other),
        }
    }
}

impl fmt::Display for RClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RClass::In => write!(f, "IN"),
            RClass::Chaos => write!(f, "CH"),
            RClass::Hesiod => write!(f, "HS"),
            RClass::Any => write!(f, "ANY"),
            RClass::Unknown(v) => write!(f, "CLASS{v}"),
        }
    }
}

/// DNS header OPCODE.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Opcode {
    /// Standard query.
    Query,
    /// Inverse query (obsolete).
    IQuery,
    /// Server status request.
    Status,
    /// Zone change notification.
    Notify,
    /// Dynamic update.
    Update,
    /// Reserved/unassigned opcode.
    Unknown(u8),
}

impl Opcode {
    /// 4-bit wire value.
    pub(crate) fn to_u8(self) -> u8 {
        match self {
            Opcode::Query => 0,
            Opcode::IQuery => 1,
            Opcode::Status => 2,
            Opcode::Notify => 4,
            Opcode::Update => 5,
            Opcode::Unknown(v) => v & 0x0F,
        }
    }

    /// Decodes the 4-bit wire value; never fails.
    pub fn from_u8(v: u8) -> Self {
        match v & 0x0F {
            0 => Opcode::Query,
            1 => Opcode::IQuery,
            2 => Opcode::Status,
            4 => Opcode::Notify,
            5 => Opcode::Update,
            other => Opcode::Unknown(other),
        }
    }
}

/// DNS response code (RCODE).
///
/// The paper's classifier cares about several of these directly: `NotImp`,
/// `Refused`, and `ServFail` returned for location queries are treated as
/// non-standard responses (evidence of interception), and a mix of `NotImp` /
/// `NxDomain` for `version.bind` rules out the CPE as interceptor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rcode {
    /// No error.
    NoError,
    /// Format error.
    FormErr,
    /// Server failure.
    ServFail,
    /// Name does not exist (NXDOMAIN).
    NxDomain,
    /// Query kind not implemented (NOTIMP).
    NotImp,
    /// Policy refusal.
    Refused,
    /// Any other 4-bit value.
    Unknown(u8),
}

impl Rcode {
    /// 4-bit wire value.
    pub(crate) fn to_u8(self) -> u8 {
        match self {
            Rcode::NoError => 0,
            Rcode::FormErr => 1,
            Rcode::ServFail => 2,
            Rcode::NxDomain => 3,
            Rcode::NotImp => 4,
            Rcode::Refused => 5,
            Rcode::Unknown(v) => v & 0x0F,
        }
    }

    /// Decodes the 4-bit wire value; never fails.
    pub fn from_u8(v: u8) -> Self {
        match v & 0x0F {
            0 => Rcode::NoError,
            1 => Rcode::FormErr,
            2 => Rcode::ServFail,
            3 => Rcode::NxDomain,
            4 => Rcode::NotImp,
            5 => Rcode::Refused,
            other => Rcode::Unknown(other),
        }
    }

    /// True for every code other than `NoError`.
    pub fn is_error(self) -> bool {
        self != Rcode::NoError
    }
}

impl fmt::Display for Rcode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Rcode::NoError => write!(f, "NOERROR"),
            Rcode::FormErr => write!(f, "FORMERR"),
            Rcode::ServFail => write!(f, "SERVFAIL"),
            Rcode::NxDomain => write!(f, "NXDOMAIN"),
            Rcode::NotImp => write!(f, "NOTIMP"),
            Rcode::Refused => write!(f, "REFUSED"),
            Rcode::Unknown(v) => write!(f, "RCODE{v}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rtype_roundtrip() {
        for v in 0..300u16 {
            assert_eq!(RType::from_u16(v).to_u16(), v);
        }
    }

    #[test]
    fn rclass_roundtrip() {
        for v in 0..300u16 {
            assert_eq!(RClass::from_u16(v).to_u16(), v);
        }
    }

    #[test]
    fn rcode_roundtrip() {
        for v in 0..16u8 {
            assert_eq!(Rcode::from_u8(v).to_u8(), v);
        }
    }

    #[test]
    fn opcode_roundtrip() {
        for v in 0..16u8 {
            assert_eq!(Opcode::from_u8(v).to_u8(), v);
        }
    }

    #[test]
    fn known_wire_values() {
        assert_eq!(RType::Txt.to_u16(), 16);
        assert_eq!(RType::Aaaa.to_u16(), 28);
        assert_eq!(RClass::Chaos.to_u16(), 3);
        assert_eq!(Rcode::NotImp.to_u8(), 4);
    }

    #[test]
    fn display_matches_dig_conventions() {
        assert_eq!(RType::Txt.to_string(), "TXT");
        assert_eq!(RClass::Chaos.to_string(), "CH");
        assert_eq!(Rcode::NxDomain.to_string(), "NXDOMAIN");
        assert_eq!(RType::Unknown(999).to_string(), "TYPE999");
    }
}
