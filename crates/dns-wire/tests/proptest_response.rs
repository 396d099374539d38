//! Property: the reply writer changes no byte. Over generated queries —
//! mixed-case names, every CHAOS server-identification spelling, IN and CH
//! classes, several questions whose names compress against each other — a
//! response written from the query's `MessageView` equals, byte for byte
//! and error for error, what `Message::response_to` of the parsed query
//! encodes to with the same header and records.

use dns_wire::{
    EncodeScratch, Header, Message, MessageView, Name, Opcode, Question, RClass, RData, RType,
    Rcode, Record,
};
use proptest::prelude::*;
use std::net::{Ipv4Addr, Ipv6Addr};

/// Names the simulated servers see, plus labels that repeat and share
/// suffixes, so question names compress against each other.
const NAMES: &[&str] = &[
    "version.bind",
    "id.server",
    "hostname.bind",
    "version.server",
    "id.bind",
    "o-o.myaddr.l.google.com",
    "debug.opendns.com",
    "whoami.akamai.com",
    "example.com",
    "www.example.com",
    "www.www.example.com",
    "a.a",
    ".",
];

/// One of [`NAMES`] with each letter's case flipped where `mask` says so.
fn arb_name() -> impl Strategy<Value = Name> {
    (0..NAMES.len(), any::<u64>()).prop_map(|(i, mask)| {
        let text: String = NAMES[i]
            .chars()
            .enumerate()
            .map(|(k, c)| if mask >> (k % 64) & 1 == 1 { c.to_ascii_uppercase() } else { c })
            .collect();
        text.parse().expect("pool names are valid")
    })
}

fn arb_rclass() -> impl Strategy<Value = RClass> {
    prop_oneof![Just(RClass::In), Just(RClass::Chaos), any::<u16>().prop_map(RClass::from_u16)]
}

fn arb_rdata() -> impl Strategy<Value = RData> {
    prop_oneof![
        any::<[u8; 4]>().prop_map(|o| RData::A(Ipv4Addr::from(o))),
        any::<[u8; 16]>().prop_map(|o| RData::Aaaa(Ipv6Addr::from(o))),
        proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..=40), 1..=2)
            .prop_map(RData::Txt),
        "[a-zA-Z0-9 .-]{0,24}".prop_map(RData::txt),
        arb_name().prop_map(RData::Cname),
        arb_name().prop_map(RData::Ns),
        (any::<u16>(), arb_name())
            .prop_map(|(preference, exchange)| RData::Mx { preference, exchange }),
    ]
}

fn arb_record() -> impl Strategy<Value = Record> {
    (arb_name(), arb_rclass(), any::<u32>(), arb_rdata())
        .prop_map(|(name, class, ttl, rdata)| Record { name, class, ttl, rdata })
}

fn arb_question() -> impl Strategy<Value = Question> {
    (arb_name(), prop_oneof![Just(RType::Txt), Just(RType::A), Just(RType::Any)], arb_rclass())
        .prop_map(|(qname, qtype, qclass)| Question { qname, qtype, qclass })
}

fn arb_query() -> impl Strategy<Value = Message> {
    (any::<u16>(), any::<u8>(), proptest::collection::vec(arb_question(), 1..=3)).prop_map(
        |(id, bits, questions)| {
            let mut query = Message::query(id, questions[0].clone());
            query.questions = questions;
            query.header.rd = bits & 1 != 0;
            query.header.cd = bits & 2 != 0;
            query.header.opcode = Opcode::from_u8(bits >> 4 & 0x0F);
            query
        },
    )
}

/// One answer, given either as a whole record or as the record
/// `answer_question` writes for the first question.
#[derive(Debug, Clone)]
enum Answer {
    Record(Record),
    ForQuestion { class: RClass, ttl: u32, rdata: RData },
}

fn arb_answer() -> impl Strategy<Value = Answer> {
    prop_oneof![
        arb_record().prop_map(Answer::Record),
        (arb_rclass(), any::<u32>(), arb_rdata())
            .prop_map(|(class, ttl, rdata)| Answer::ForQuestion { class, ttl, rdata }),
    ]
}

/// The response header: `Header::response_to`, then the flags servers set.
fn arb_header_tweak() -> impl Strategy<Value = (Rcode, u8)> {
    (any::<u8>().prop_map(|r| Rcode::from_u8(r & 0x0F)), any::<u8>())
}

/// Writes the response through the view, as a server does.
fn written(
    scratch: &mut EncodeScratch,
    view: &MessageView<'_>,
    header: &Header,
    answers: &[Answer],
    authority: &[Record],
    additional: &[Record],
) -> Result<Vec<u8>, dns_wire::BuildError> {
    let mut w = scratch.response(view, header);
    for answer in answers {
        match answer {
            Answer::Record(record) => w.answer(record)?,
            Answer::ForQuestion { class, ttl, rdata: RData::Txt(parts) } if parts.len() == 1 => {
                w.answer_question_txt(*class, *ttl, &parts[0])?
            }
            Answer::ForQuestion { class, ttl, rdata } => w.answer_question(*class, *ttl, rdata)?,
        }
    }
    for record in authority {
        w.authority(record)?;
    }
    for record in additional {
        w.additional(record)?;
    }
    Ok(w.finish()?.to_vec())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn reply_writer_matches_response_to_encoding(
        query in arb_query(),
        (rcode, flags) in arb_header_tweak(),
        answers in proptest::collection::vec(arb_answer(), 0..=3),
        authority in proptest::collection::vec(arb_record(), 0..=2),
        additional in proptest::collection::vec(arb_record(), 0..=2),
    ) {
        let query_bytes = query.encode().unwrap();
        let view = MessageView::parse(&query_bytes).unwrap();
        let mut header = Header::response_to(view.header(), rcode);
        header.aa = flags & 1 != 0;
        header.ra = flags & 2 == 0;
        header.ad = flags & 4 != 0;
        header.tc = flags & 8 != 0;

        let parsed = Message::parse(&query_bytes).unwrap();
        let mut expected = Message::response_to(&parsed, rcode);
        prop_assert_eq!(expected.header, Header::response_to(&parsed.header, rcode));
        expected.header = header;
        expected.answers = answers
            .iter()
            .map(|answer| match answer {
                Answer::Record(record) => record.clone(),
                Answer::ForQuestion { class, ttl, rdata } => Record {
                    name: parsed.questions[0].qname.clone(),
                    class: *class,
                    ttl: *ttl,
                    rdata: rdata.clone(),
                },
            })
            .collect();
        expected.authority = authority.clone();
        expected.additional = additional.clone();

        // A scratch that just wrote something else must not leak into the
        // next response.
        let mut scratch = EncodeScratch::new();
        let _ = expected.encode_into(&mut scratch);
        let got = written(&mut scratch, &view, &header, &answers, &authority, &additional);
        prop_assert_eq!(&got, &expected.encode());
        let again = written(&mut scratch, &view, &header, &answers, &authority, &additional);
        prop_assert_eq!(got, again);
    }
}
