//! Property-based checks of the one decoder: `Message::parse` is a
//! `MessageView::parse` materialized by `MessageView::to_message`. On *any*
//! input — well-formed, mutated, or raw garbage — the two entry points
//! accept exactly the same byte strings; on acceptance the view's lazy
//! accessors agree field-for-field with the materialized message, and that
//! message re-encodes to bytes that decode back to it. A well-formed
//! message round-trips through the view unchanged. A `Reply` built from
//! the same bytes parses exactly when the view does, and its stored view
//! reads the same header, counts and sections as a fresh one.

use bytes::Bytes;
use dns_wire::{
    Header, Message, MessageView, Name, Opcode, Question, RClass, RData, RType, Rcode, Record,
    Reply, Soa,
};
use proptest::prelude::*;
use std::borrow::Cow;
use std::net::{Ipv4Addr, Ipv6Addr};

fn arb_label() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(any::<u8>(), 1..=63)
}

fn arb_name() -> impl Strategy<Value = Name> {
    proptest::collection::vec(arb_label(), 0..=4).prop_filter_map("name too long", |labels| {
        let refs: Vec<&[u8]> = labels.iter().map(|l| l.as_slice()).collect();
        Name::from_labels(refs).ok()
    })
}

fn arb_rclass() -> impl Strategy<Value = RClass> {
    prop_oneof![Just(RClass::In), Just(RClass::Chaos), any::<u16>().prop_map(RClass::from_u16),]
}

fn arb_rdata() -> impl Strategy<Value = RData> {
    prop_oneof![
        any::<[u8; 4]>().prop_map(|o| RData::A(Ipv4Addr::from(o))),
        any::<[u8; 16]>().prop_map(|o| RData::Aaaa(Ipv6Addr::from(o))),
        proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..=80), 1..=3)
            .prop_map(RData::Txt),
        arb_name().prop_map(RData::Cname),
        arb_name().prop_map(RData::Ns),
        arb_name().prop_map(RData::Ptr),
        (any::<u16>(), arb_name())
            .prop_map(|(preference, exchange)| RData::Mx { preference, exchange }),
        (
            arb_name(),
            arb_name(),
            any::<u32>(),
            any::<u32>(),
            any::<u32>(),
            any::<u32>(),
            any::<u32>()
        )
            .prop_map(|(mname, rname, serial, refresh, retry, expire, minimum)| {
                RData::Soa(Soa { mname, rname, serial, refresh, retry, expire, minimum })
            }),
        (200u16..60000, proptest::collection::vec(any::<u8>(), 0..=64))
            .prop_map(|(rtype, data)| RData::Unknown { rtype, data: bytes::Bytes::from(data) }),
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

/// Core parity assertion: both entry points accept or reject together, on
/// acceptance every field the view exposes equals the owned counterpart,
/// and the owned message survives a re-encode.
fn assert_parity(bytes: &[u8]) -> Result<(), TestCaseError> {
    let owned = Message::parse(bytes);
    let view = MessageView::parse(bytes);
    assert_reply_parity(bytes, &view, &owned)?;
    match (&owned, &view) {
        (Ok(msg), Ok(v)) => {
            prop_assert_eq!(*v.header(), msg.header);
            prop_assert_eq!(v.question_count(), msg.questions.len());
            prop_assert_eq!(v.answer_count(), msg.answers.len());
            let questions: Vec<Question> = v.questions().map(|q| q.to_question()).collect();
            prop_assert_eq!(&questions, &msg.questions);
            for (qv, q) in v.questions().zip(&msg.questions) {
                prop_assert!(qv.matches(q));
                prop_assert!(qv.qname.eq_name(&q.qname));
            }
            let answers: Vec<Record> = v.answers().map(|r| r.to_record()).collect();
            prop_assert_eq!(&answers, &msg.answers);
            let authority: Vec<Record> = v.authority().map(|r| r.to_record()).collect();
            prop_assert_eq!(&authority, &msg.authority);
            let additional: Vec<Record> = v.additional().map(|r| r.to_record()).collect();
            prop_assert_eq!(&additional, &msg.additional);
            // Address and TXT fast paths agree with decoded RDATA, down to
            // whether the text could be borrowed.
            for rec in v.answers().chain(v.authority()).chain(v.additional()) {
                let rdata = rec.rdata();
                match rdata {
                    RData::A(ip) => prop_assert_eq!(rec.a_addr(), Some(ip)),
                    RData::Aaaa(ip) => prop_assert_eq!(rec.aaaa_addr(), Some(ip)),
                    _ => {
                        prop_assert_eq!(rec.a_addr(), None);
                        prop_assert_eq!(rec.aaaa_addr(), None);
                    }
                }
                let (in_place, decoded) = (rec.txt_str(), rdata.txt_str());
                prop_assert_eq!(&in_place, &decoded);
                prop_assert_eq!(
                    matches!(in_place, Some(Cow::Borrowed(_))),
                    matches!(decoded, Some(Cow::Borrowed(_)))
                );
            }
            prop_assert_eq!(&v.to_message(), msg);
            let reencoded = msg.encode().expect("a decoded message encodes");
            prop_assert_eq!(&Message::parse_strict(&reencoded).expect("re-encoding decodes"), msg);
        }
        (Err(eo), Err(ev)) => {
            prop_assert_eq!(eo, ev);
        }
        (Ok(_), Err(e)) => {
            return Err(TestCaseError::fail(format!(
                "owned parse accepted but view rejected: {e:?}"
            )));
        }
        (Err(e), Ok(_)) => {
            return Err(TestCaseError::fail(format!(
                "view accepted but owned parse rejected: {e:?}"
            )));
        }
    }
    Ok(())
}

/// A `Reply` over `bytes` parses exactly when a fresh view does; its
/// stored view reads the same header, counts and section contents without
/// walking again; and it materializes to what `Message::parse` decodes.
fn assert_reply_parity(
    bytes: &[u8],
    view: &Result<MessageView<'_>, dns_wire::ParseError>,
    owned: &Result<Message, dns_wire::ParseError>,
) -> Result<(), TestCaseError> {
    let reply = Reply::parse(Bytes::copy_from_slice(bytes));
    let (reply, fresh, msg) = match (reply, view, owned) {
        (Ok(reply), Ok(fresh), Ok(msg)) => (reply, fresh, msg),
        (Err(er), Err(ev), _) => {
            prop_assert_eq!(&er, ev);
            return Ok(());
        }
        (reply, view, _) => {
            return Err(TestCaseError::fail(format!(
                "reply and view disagree: {:?} vs {:?}",
                reply.err(),
                view.as_ref().err()
            )));
        }
    };
    prop_assert_eq!(reply.as_bytes(), bytes);
    prop_assert_eq!(&fresh.to_reply(), &reply);
    let stored = reply.view();
    prop_assert_eq!(reply.header(), fresh.header());
    prop_assert_eq!(stored.header(), fresh.header());
    prop_assert_eq!(stored.question_count(), fresh.question_count());
    prop_assert_eq!(stored.answer_count(), fresh.answer_count());
    let questions =
        |v: &MessageView<'_>| v.questions().map(|q| q.to_question()).collect::<Vec<_>>();
    prop_assert_eq!(questions(&stored), questions(fresh));
    let sections = |v: &MessageView<'_>| {
        [v.answers(), v.authority(), v.additional()]
            .map(|section| section.map(|r| r.to_record()).collect::<Vec<_>>())
    };
    prop_assert_eq!(sections(&stored), sections(fresh));
    prop_assert_eq!(&reply.to_message(), msg);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn parity_on_wellformed_messages(msg in arb_message()) {
        let bytes = msg.encode().unwrap();
        assert_parity(&bytes)?;
        prop_assert_eq!(MessageView::parse(&bytes).unwrap().to_message(), msg);
    }

    #[test]
    fn parity_on_truncations(msg in arb_message(), cut in 0usize..=64) {
        // Truncating a valid message anywhere must fail (or succeed, for
        // cuts inside trailing records the header no longer counts — it
        // cannot, since counts are fixed — so: fail) identically.
        let bytes = msg.encode().unwrap();
        let keep = bytes.len().saturating_sub(cut);
        assert_parity(&bytes[..keep])?;
    }

    #[test]
    fn parity_on_mutations(msg in arb_message(), flips in proptest::collection::vec((any::<usize>(), any::<u8>()), 1..=4)) {
        // Bit-flipped messages exercise bad pointers, bad label types,
        // rdlength mismatches, and count overruns.
        let mut bytes = msg.encode().unwrap();
        if bytes.is_empty() {
            return Ok(());
        }
        for (idx, val) in flips {
            let i = idx % bytes.len();
            bytes[i] ^= val;
        }
        assert_parity(&bytes)?;
    }

    #[test]
    fn parity_on_arbitrary_bytes(bytes in proptest::collection::vec(any::<u8>(), 0..=512)) {
        assert_parity(&bytes)?;
    }
}
