//! Typed RDATA representations.

use crate::error::{BuildError, ParseError};
use crate::name::{walk_name, Name, NameCompressor};
use crate::types::RType;
use crate::wire::{Reader, Writer};
use bytes::Bytes;
use core::fmt;
use std::borrow::Cow;
use std::net::{Ipv4Addr, Ipv6Addr};

/// SOA record fields (RFC 1035 §3.3.13).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Soa {
    /// Primary name server for the zone.
    pub mname: Name,
    /// Mailbox of the person responsible.
    pub rname: Name,
    /// Zone serial number.
    pub serial: u32,
    /// Refresh interval in seconds.
    pub refresh: u32,
    /// Retry interval in seconds.
    pub retry: u32,
    /// Expiry in seconds.
    pub expire: u32,
    /// Negative-caching TTL in seconds.
    pub minimum: u32,
}

/// Decoded RDATA. Unknown types keep their raw bytes so messages survive a
/// parse/encode round trip unchanged.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RData {
    /// IPv4 address.
    A(Ipv4Addr),
    /// IPv6 address.
    Aaaa(Ipv6Addr),
    /// One or more character-strings. For the CHAOS debugging queries this
    /// system revolves around, the first string carries the server identity.
    Txt(Vec<Vec<u8>>),
    /// Canonical name.
    Cname(Name),
    /// Name server.
    Ns(Name),
    /// Reverse pointer.
    Ptr(Name),
    /// Mail exchange: preference and exchange host.
    Mx {
        /// Lower is preferred.
        preference: u16,
        /// Mail host.
        exchange: Name,
    },
    /// Start of authority.
    Soa(Soa),
    /// EDNS(0) OPT pseudo-record payload (opaque here).
    Opt(Bytes),
    /// Anything else, kept verbatim.
    Unknown {
        /// The record type as seen on the wire.
        rtype: u16,
        /// Raw RDATA bytes.
        data: Bytes,
    },
}

impl RData {
    /// The record type this RDATA corresponds to.
    pub fn rtype(&self) -> RType {
        match self {
            RData::A(_) => RType::A,
            RData::Aaaa(_) => RType::Aaaa,
            RData::Txt(_) => RType::Txt,
            RData::Cname(_) => RType::Cname,
            RData::Ns(_) => RType::Ns,
            RData::Ptr(_) => RType::Ptr,
            RData::Mx { .. } => RType::Mx,
            RData::Soa(_) => RType::Soa,
            RData::Opt(_) => RType::Opt,
            RData::Unknown { rtype, .. } => RType::from_u16(*rtype),
        }
    }

    /// Convenience constructor for a single-string TXT record.
    pub fn txt(s: impl AsRef<[u8]>) -> RData {
        RData::Txt(vec![s.as_ref().to_vec()])
    }

    /// If this is a TXT record, returns the strings joined by nothing (the
    /// convention `dig` uses when printing a multi-string TXT), lossily
    /// decoded as UTF-8.
    pub fn txt_string(&self) -> Option<String> {
        self.txt_str().map(Cow::into_owned)
    }

    /// [`txt_string`](RData::txt_string) without the copy where it can be
    /// avoided: a single valid UTF-8 string, the shape of every answer to
    /// the debugging queries, is borrowed from the record.
    pub fn txt_str(&self) -> Option<Cow<'_, str>> {
        match self {
            RData::Txt(parts) => match parts.as_slice() {
                [one] => Some(String::from_utf8_lossy(one)),
                _ => Some(Cow::Owned(String::from_utf8_lossy(&parts.concat()).into_owned())),
            },
            _ => None,
        }
    }

    /// Parses RDATA of `rtype` from exactly `rdlength` bytes at the cursor.
    pub fn parse(r: &mut Reader<'_>, rtype: RType, rdlength: u16) -> Result<RData, ParseError> {
        let start = r.position();
        let end = start + rdlength as usize;
        let out = match rtype {
            RType::A => {
                if rdlength != 4 {
                    return Err(ParseError::BadRdataLength { rtype: rtype.to_u16() });
                }
                let b = r.read_bytes(4)?;
                RData::A(Ipv4Addr::new(b[0], b[1], b[2], b[3]))
            }
            RType::Aaaa => {
                if rdlength != 16 {
                    return Err(ParseError::BadRdataLength { rtype: rtype.to_u16() });
                }
                let b = r.read_bytes(16)?;
                let mut oct = [0u8; 16];
                oct.copy_from_slice(b);
                RData::Aaaa(Ipv6Addr::from(oct))
            }
            RType::Txt => {
                let mut parts = Vec::new();
                while r.position() < end {
                    let len = r.read_u8()? as usize;
                    if r.position() + len > end {
                        return Err(ParseError::BadCharacterString);
                    }
                    parts.push(r.read_bytes(len)?.to_vec());
                }
                if parts.is_empty() {
                    // RFC 1035 requires at least one (possibly empty) string.
                    parts.push(Vec::new());
                }
                RData::Txt(parts)
            }
            RType::Cname => RData::Cname(Name::parse(r)?),
            RType::Ns => RData::Ns(Name::parse(r)?),
            RType::Ptr => RData::Ptr(Name::parse(r)?),
            RType::Mx => RData::Mx { preference: r.read_u16()?, exchange: Name::parse(r)? },
            RType::Soa => RData::Soa(Soa {
                mname: Name::parse(r)?,
                rname: Name::parse(r)?,
                serial: r.read_u32()?,
                refresh: r.read_u32()?,
                retry: r.read_u32()?,
                expire: r.read_u32()?,
                minimum: r.read_u32()?,
            }),
            RType::Opt => RData::Opt(Bytes::copy_from_slice(r.read_bytes(rdlength as usize)?)),
            other => RData::Unknown {
                rtype: other.to_u16(),
                data: Bytes::copy_from_slice(r.read_bytes(rdlength as usize)?),
            },
        };
        if r.position() != end {
            return Err(ParseError::BadRdataLength { rtype: rtype.to_u16() });
        }
        Ok(out)
    }

    /// Validates RDATA of `rtype` over exactly `rdlength` bytes at the
    /// cursor without building anything. Accepts and rejects exactly the
    /// inputs [`RData::parse`] does — the zero-copy message view uses this
    /// to guarantee a validated view can always be materialized.
    pub(crate) fn skip(r: &mut Reader<'_>, rtype: RType, rdlength: u16) -> Result<(), ParseError> {
        let start = r.position();
        let end = start + rdlength as usize;
        match rtype {
            RType::A => {
                if rdlength != 4 {
                    return Err(ParseError::BadRdataLength { rtype: rtype.to_u16() });
                }
                r.read_bytes(4)?;
            }
            RType::Aaaa => {
                if rdlength != 16 {
                    return Err(ParseError::BadRdataLength { rtype: rtype.to_u16() });
                }
                r.read_bytes(16)?;
            }
            RType::Txt => {
                while r.position() < end {
                    let len = r.read_u8()? as usize;
                    if r.position() + len > end {
                        return Err(ParseError::BadCharacterString);
                    }
                    r.read_bytes(len)?;
                }
            }
            RType::Cname | RType::Ns | RType::Ptr => {
                walk_name(r, &mut |_| true)?;
            }
            RType::Mx => {
                r.read_u16()?;
                walk_name(r, &mut |_| true)?;
            }
            RType::Soa => {
                walk_name(r, &mut |_| true)?;
                walk_name(r, &mut |_| true)?;
                for _ in 0..5 {
                    r.read_u32()?;
                }
            }
            _ => {
                r.read_bytes(rdlength as usize)?;
            }
        }
        if r.position() != end {
            return Err(ParseError::BadRdataLength { rtype: rtype.to_u16() });
        }
        Ok(())
    }

    /// Encodes the RDATA body (without the RDLENGTH prefix, which the record
    /// encoder back-patches).
    ///
    /// Names inside RDATA are deliberately *not* compressed: RFC 3597 forbids
    /// compression in RDATA of types unknown to the receiver, and emitting
    /// uncompressed names everywhere in RDATA is universally interoperable.
    pub fn encode(&self, w: &mut Writer) -> Result<(), BuildError> {
        match self {
            RData::A(ip) => w.write_bytes(&ip.octets()),
            RData::Aaaa(ip) => w.write_bytes(&ip.octets()),
            RData::Txt(parts) => {
                for p in parts {
                    if p.len() > 255 {
                        return Err(BuildError::StringTooLong);
                    }
                    w.write_u8(p.len() as u8);
                    w.write_bytes(p);
                }
                if parts.is_empty() {
                    w.write_u8(0);
                }
            }
            RData::Cname(n) | RData::Ns(n) | RData::Ptr(n) => n.encode(w, None),
            RData::Mx { preference, exchange } => {
                w.write_u16(*preference);
                exchange.encode(w, None);
            }
            RData::Soa(soa) => {
                soa.mname.encode(w, None);
                soa.rname.encode(w, None);
                w.write_u32(soa.serial);
                w.write_u32(soa.refresh);
                w.write_u32(soa.retry);
                w.write_u32(soa.expire);
                w.write_u32(soa.minimum);
            }
            RData::Opt(data) | RData::Unknown { data, .. } => w.write_bytes(data),
        }
        Ok(())
    }
}

impl fmt::Display for RData {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RData::A(ip) => write!(f, "{ip}"),
            RData::Aaaa(ip) => write!(f, "{ip}"),
            RData::Txt(parts) => {
                for (i, p) in parts.iter().enumerate() {
                    if i > 0 {
                        write!(f, " ")?;
                    }
                    write!(f, "\"{}\"", String::from_utf8_lossy(p))?;
                }
                Ok(())
            }
            RData::Cname(n) | RData::Ns(n) | RData::Ptr(n) => write!(f, "{n}"),
            RData::Mx { preference, exchange } => write!(f, "{preference} {exchange}"),
            RData::Soa(s) => write!(
                f,
                "{} {} {} {} {} {} {}",
                s.mname, s.rname, s.serial, s.refresh, s.retry, s.expire, s.minimum
            ),
            RData::Opt(d) => write!(f, "OPT({} bytes)", d.len()),
            RData::Unknown { rtype, data } => write!(f, "TYPE{rtype}({} bytes)", data.len()),
        }
    }
}

/// Encodes RDATA with its RDLENGTH prefix, back-patching the length.
pub(crate) fn encode_with_length(
    rdata: &RData,
    w: &mut Writer,
    _compress: &mut NameCompressor,
) -> Result<(), BuildError> {
    let len_at = w.len();
    w.write_u16(0);
    let body_start = w.len();
    rdata.encode(w)?;
    let body_len = w.len() - body_start;
    if body_len > u16::MAX as usize {
        return Err(BuildError::MessageTooLong);
    }
    w.patch_u16(len_at, body_len as u16);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(rd: &RData) -> RData {
        let mut w = Writer::new();
        let mut map = NameCompressor::new();
        encode_with_length(rd, &mut w, &mut map).unwrap();
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let len = r.read_u16().unwrap();
        RData::parse(&mut r, rd.rtype(), len).unwrap()
    }

    #[test]
    fn a_record_roundtrip() {
        let rd = RData::A(Ipv4Addr::new(8, 8, 8, 8));
        assert_eq!(roundtrip(&rd), rd);
    }

    #[test]
    fn aaaa_record_roundtrip() {
        let rd = RData::Aaaa("2001:4860:4860::8888".parse().unwrap());
        assert_eq!(roundtrip(&rd), rd);
    }

    #[test]
    fn txt_single_and_multi_roundtrip() {
        let rd = RData::txt("dnsmasq-2.85");
        assert_eq!(roundtrip(&rd), rd);
        let multi = RData::Txt(vec![b"part one".to_vec(), b"part two".to_vec()]);
        assert_eq!(roundtrip(&multi), multi);
    }

    #[test]
    fn txt_string_joins_parts() {
        let multi = RData::Txt(vec![b"ab".to_vec(), b"cd".to_vec()]);
        assert_eq!(multi.txt_string().unwrap(), "abcd");
        assert_eq!(RData::A(Ipv4Addr::LOCALHOST).txt_string(), None);
    }

    #[test]
    fn txt_str_borrows_single_utf8_strings_only() {
        let one = RData::txt("IAD");
        assert!(matches!(one.txt_str(), Some(Cow::Borrowed("IAD"))));
        let multi = RData::Txt(vec![b"ab".to_vec(), b"cd".to_vec()]);
        assert_eq!(multi.txt_str().as_deref(), Some("abcd"));
        let empty = RData::Txt(vec![]);
        assert_eq!(empty.txt_str().as_deref(), Some(""));
        let invalid = RData::Txt(vec![vec![b'a', 0xFF]]);
        assert!(matches!(invalid.txt_str(), Some(Cow::Owned(_))));
        assert_eq!(invalid.txt_str().as_deref(), Some("a\u{FFFD}"));
        for rd in [one, multi, empty, invalid, RData::A(Ipv4Addr::LOCALHOST)] {
            assert_eq!(rd.txt_str().map(Cow::into_owned), rd.txt_string());
        }
    }

    #[test]
    fn txt_empty_gets_one_empty_string() {
        let rd = RData::Txt(vec![]);
        let back = roundtrip(&rd);
        assert_eq!(back, RData::Txt(vec![vec![]]));
    }

    #[test]
    fn txt_overlong_string_rejected_on_encode() {
        let rd = RData::Txt(vec![vec![0u8; 256]]);
        let mut w = Writer::new();
        assert_eq!(rd.encode(&mut w).unwrap_err(), BuildError::StringTooLong);
    }

    #[test]
    fn txt_string_overrun_rejected_on_parse() {
        // Declares a 10-byte string but RDATA is only 3 bytes long.
        let bytes = [10u8, b'a', b'b'];
        let mut r = Reader::new(&bytes);
        assert_eq!(RData::parse(&mut r, RType::Txt, 3), Err(ParseError::BadCharacterString));
    }

    #[test]
    fn name_rdata_roundtrip() {
        let rd = RData::Cname("alias.example.com".parse().unwrap());
        assert_eq!(roundtrip(&rd), rd);
        let rd = RData::Ns("ns1.example.com".parse().unwrap());
        assert_eq!(roundtrip(&rd), rd);
        let rd = RData::Mx { preference: 10, exchange: "mx.example.com".parse().unwrap() };
        assert_eq!(roundtrip(&rd), rd);
    }

    #[test]
    fn soa_roundtrip() {
        let rd = RData::Soa(Soa {
            mname: "ns1.example.com".parse().unwrap(),
            rname: "hostmaster.example.com".parse().unwrap(),
            serial: 2021110201,
            refresh: 7200,
            retry: 3600,
            expire: 1209600,
            minimum: 300,
        });
        assert_eq!(roundtrip(&rd), rd);
    }

    #[test]
    fn unknown_type_roundtrip_preserves_bytes() {
        let rd = RData::Unknown { rtype: 99, data: Bytes::from_static(b"\x01\x02\x03") };
        assert_eq!(roundtrip(&rd), rd);
    }

    #[test]
    fn a_with_wrong_length_rejected() {
        let bytes = [1, 2, 3];
        let mut r = Reader::new(&bytes);
        assert_eq!(RData::parse(&mut r, RType::A, 3), Err(ParseError::BadRdataLength { rtype: 1 }));
    }

    #[test]
    fn rdata_shorter_than_rdlength_rejected() {
        // CNAME that consumes fewer bytes than RDLENGTH declares.
        let mut w = Writer::new();
        "x.y".parse::<Name>().unwrap().encode(&mut w, None);
        w.write_u8(0xAA); // trailing junk inside RDATA
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(
            RData::parse(&mut r, RType::Cname, bytes.len() as u16),
            Err(ParseError::BadRdataLength { rtype: 5 })
        );
    }

    #[test]
    fn display_forms() {
        assert_eq!(RData::A(Ipv4Addr::new(1, 1, 1, 1)).to_string(), "1.1.1.1");
        assert_eq!(RData::txt("IAD").to_string(), "\"IAD\"");
    }
}
