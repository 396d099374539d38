//! Property-based tests: arbitrary well-formed messages survive an
//! encode→parse round trip, and the parser never panics on arbitrary bytes.

use dns_wire::{Header, Message, Name, Opcode, Question, RClass, RData, RType, Rcode, Record, Soa};
use proptest::prelude::*;
use std::net::{Ipv4Addr, Ipv6Addr};

/// Labels drawn at random and from a small pool, so generated names repeat
/// labels (`a.a`, `www.WWW.example`) and share suffixes with each other:
/// the inputs name compression has to get right.
fn arb_label() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        proptest::collection::vec(any::<u8>(), 1..=63),
        Just(b"a".to_vec()),
        Just(b"www".to_vec()),
        Just(b"WWW".to_vec()),
        Just(b"example".to_vec()),
    ]
}

fn arb_name() -> impl Strategy<Value = Name> {
    proptest::collection::vec(arb_label(), 0..=4).prop_filter_map("name too long", |labels| {
        let refs: Vec<&[u8]> = labels.iter().map(|l| l.as_slice()).collect();
        Name::from_labels(refs).ok()
    })
}

fn arb_rclass() -> impl Strategy<Value = RClass> {
    prop_oneof![
        Just(RClass::In),
        Just(RClass::Chaos),
        Just(RClass::Hesiod),
        any::<u16>().prop_map(RClass::from_u16),
    ]
}

fn arb_rdata() -> impl Strategy<Value = RData> {
    prop_oneof![
        any::<[u8; 4]>().prop_map(|o| RData::A(Ipv4Addr::from(o))),
        any::<[u8; 16]>().prop_map(|o| RData::Aaaa(Ipv6Addr::from(o))),
        proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..=255), 1..=3)
            .prop_map(RData::Txt),
        arb_name().prop_map(RData::Cname),
        arb_name().prop_map(RData::Ns),
        arb_name().prop_map(RData::Ptr),
        (any::<u16>(), arb_name())
            .prop_map(|(preference, exchange)| RData::Mx { preference, exchange }),
        (arb_name(), arb_name(), any::<u32>(), any::<u32>(), any::<u32>(), any::<u32>(), any::<u32>())
            .prop_map(|(mname, rname, serial, refresh, retry, expire, minimum)| {
                RData::Soa(Soa { mname, rname, serial, refresh, retry, expire, minimum })
            }),
        (200u16..60000, proptest::collection::vec(any::<u8>(), 0..=64)).prop_map(
            |(rtype, data)| RData::Unknown { rtype, data: bytes::Bytes::from(data) }
        ),
    ]
}

fn arb_record() -> impl Strategy<Value = Record> {
    (arb_name(), arb_rclass(), any::<u32>(), arb_rdata())
        .prop_map(|(name, class, ttl, rdata)| Record { name, class, ttl, rdata })
}

fn arb_question() -> impl Strategy<Value = Question> {
    (arb_name(), any::<u16>(), arb_rclass()).prop_filter_map(
        "OPT in question section is not meaningful",
        |(qname, qtype, qclass)| {
            let qtype = RType::from_u16(qtype);
            // OPT is only legal in the additional section; exclude it so the
            // roundtrip property stays about realistic messages.
            (qtype != RType::Opt).then_some(Question { qname, qtype, qclass })
        },
    )
}

fn arb_header() -> impl Strategy<Value = Header> {
    (any::<u16>(), any::<bool>(), any::<u8>(), any::<u8>(), any::<u8>()).prop_map(
        |(id, qr, opcode, flagbits, rcode)| Header {
            id,
            qr,
            opcode: Opcode::from_u8(opcode),
            aa: flagbits & 1 != 0,
            tc: flagbits & 2 != 0,
            rd: flagbits & 4 != 0,
            ra: flagbits & 8 != 0,
            ad: flagbits & 16 != 0,
            cd: flagbits & 32 != 0,
            rcode: Rcode::from_u8(rcode),
        },
    )
}

fn arb_message() -> impl Strategy<Value = Message> {
    (
        arb_header(),
        proptest::collection::vec(arb_question(), 0..=2),
        proptest::collection::vec(arb_record(), 0..=4),
        proptest::collection::vec(arb_record(), 0..=2),
        proptest::collection::vec(arb_record(), 0..=2),
    )
        .prop_map(|(header, questions, answers, authority, additional)| Message {
            header,
            questions,
            answers,
            authority,
            additional,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn message_encode_parse_roundtrip(msg in arb_message()) {
        // RDATA::Txt(vec![]) normalizes to one empty string on the wire, so
        // the generator never produces it; everything else must round-trip
        // exactly.
        let bytes = msg.encode().unwrap();
        let back = Message::parse_strict(&bytes).unwrap();
        prop_assert_eq!(back, msg);
    }

    #[test]
    fn parser_never_panics_on_arbitrary_bytes(bytes in proptest::collection::vec(any::<u8>(), 0..=512)) {
        let _ = Message::parse(&bytes);
        let _ = Message::parse_strict(&bytes);
    }

    #[test]
    fn reencoding_parsed_garbage_is_stable(bytes in proptest::collection::vec(any::<u8>(), 0..=256)) {
        // If arbitrary bytes happen to parse, the parsed form must encode and
        // re-parse to the same structure (idempotent normalization).
        if let Ok(msg) = Message::parse(&bytes) {
            let reenc = msg.encode().unwrap();
            let back = Message::parse_strict(&reenc).unwrap();
            prop_assert_eq!(back, msg);
        }
    }

    #[test]
    fn name_display_parse_roundtrip_ascii(labels in proptest::collection::vec("[a-z0-9-]{1,20}", 1..=4)) {
        let joined = labels.join(".");
        let name: Name = joined.parse().unwrap();
        let redisplayed = name.to_string();
        let back: Name = redisplayed.parse().unwrap();
        prop_assert_eq!(back, name);
    }

    #[test]
    fn subdomain_is_reflexive_and_respects_parent(name in arb_name()) {
        prop_assert!(name.is_subdomain_of(&name));
        prop_assert!(name.is_subdomain_of(&Name::root()));
        if let Some(parent) = name.parent() {
            prop_assert!(name.is_subdomain_of(&parent));
        }
    }
}
