//! Zero-copy message views, and the crate's one decoder.
//!
//! [`MessageView::parse`] validates a DNS message over the input slice
//! without building owned questions, records, or names. Accessors hand out
//! borrowed [`QuestionView`]/[`RecordView`] items whose names stay
//! compressed in place ([`NameRef`]) until a caller actually needs an owned
//! [`Name`].
//!
//! Receivers use this to decide whether a datagram is one they answer or
//! accept (transaction ID, QR flag, question count) without a single heap
//! allocation. Only what survives that filter is materialized:
//! [`MessageView::to_message`] builds the owned [`Message`] from the
//! offsets the parse validated, and [`Message::parse`] is exactly that view
//! parse followed by the materialize, so there is one set of decoding
//! rules.

use crate::error::ParseError;
use crate::message::{Header, Message, Question, Record};
use crate::name::{
    decompress, label_count, walk_name, wire_is_subdomain_of, Name, MAX_NAME_LEN,
};
use crate::rdata::RData;
use crate::types::{RClass, RType};
use crate::wire::Reader;
use core::fmt;

/// What an accessor of a parsed view expects of the bytes it re-reads.
const VALIDATED: &str = "validated at view parse";

/// A borrowed, validated view of a DNS message.
///
/// Construction walks the entire message (names, counts, RDATA bounds), so
/// every accessor on a successfully parsed view is infallible:
/// [`MessageView::parse`] succeeds exactly when [`Message::parse`] does.
#[derive(Clone, Copy)]
pub struct MessageView<'a> {
    buf: &'a [u8],
    header: Header,
    counts: [u16; 4],
    /// Byte offsets where each section starts: questions, answers,
    /// authority, additional.
    section_off: [usize; 4],
    /// Byte offset just past the last record.
    end: usize,
}

impl<'a> MessageView<'a> {
    /// Validates `buf` as a DNS message and returns a view over it.
    ///
    /// Tolerates trailing bytes, like [`Message::parse`] (and real
    /// resolvers). No heap allocation happens on success or failure.
    pub fn parse(buf: &'a [u8]) -> Result<MessageView<'a>, ParseError> {
        let mut r = Reader::new(buf);
        let (header, counts) = Header::parse(&mut r)?;
        let mut section_off = [0usize; 4];
        section_off[0] = r.position();
        for _ in 0..counts[0] {
            walk_name(&mut r, &mut |_| true)?;
            r.read_u16()?; // qtype
            r.read_u16()?; // qclass
        }
        for s in 0..3 {
            section_off[s + 1] = r.position();
            for _ in 0..counts[s + 1] {
                skip_record(&mut r)?;
            }
        }
        Ok(MessageView { buf, header, counts, section_off, end: r.position() })
    }

    /// Number of bytes after the last record, which [`MessageView::parse`]
    /// tolerates and [`Message::parse_strict`] rejects.
    pub(crate) fn trailing_len(&self) -> usize {
        self.buf.len() - self.end
    }

    /// The raw message bytes this view borrows.
    pub fn as_bytes(&self) -> &'a [u8] {
        self.buf
    }

    /// Decoded header.
    pub fn header(&self) -> &Header {
        &self.header
    }

    /// Number of question-section entries.
    pub fn question_count(&self) -> usize {
        self.counts[0] as usize
    }

    /// Number of answer records.
    pub fn answer_count(&self) -> usize {
        self.counts[1] as usize
    }

    /// First question, if any. Almost all real traffic has exactly one.
    pub fn question(&self) -> Option<QuestionView<'a>> {
        self.questions().next()
    }

    /// Iterates the question section.
    pub fn questions(&self) -> QuestionIter<'a> {
        let mut r = Reader::new(self.buf);
        r.seek(self.section_off[0]).expect("validated at parse");
        QuestionIter { r, remaining: self.counts[0] }
    }

    /// Iterates the answer section.
    pub fn answers(&self) -> RecordIter<'a> {
        self.records(1)
    }

    /// Iterates the authority section.
    pub fn authority(&self) -> RecordIter<'a> {
        self.records(2)
    }

    /// Iterates the additional section.
    pub fn additional(&self) -> RecordIter<'a> {
        self.records(3)
    }

    fn records(&self, section: usize) -> RecordIter<'a> {
        let mut r = Reader::new(self.buf);
        r.seek(self.section_off[section]).expect("validated at parse");
        RecordIter { r, remaining: self.counts[section] }
    }

    /// Materializes the full owned [`Message`]: one pass over the sections
    /// from the offsets the parse validated, so it cannot fail. This is the
    /// crate's only decoder; [`Message::parse`] calls it.
    pub fn to_message(&self) -> Message {
        let mut r = Reader::new(self.buf);
        r.seek(self.section_off[0]).expect(VALIDATED);
        let questions = (0..self.counts[0]).map(|_| read_question(&mut r)).collect();
        let mut section = |count: u16| (0..count).map(|_| read_record(&mut r)).collect();
        let answers = section(self.counts[1]);
        let authority = section(self.counts[2]);
        let additional = section(self.counts[3]);
        Message { header: self.header, questions, answers, authority, additional }
    }
}

fn read_question(r: &mut Reader<'_>) -> Question {
    Question {
        qname: Name::parse(r).expect(VALIDATED),
        qtype: RType::from_u16(r.read_u16().expect(VALIDATED)),
        qclass: RClass::from_u16(r.read_u16().expect(VALIDATED)),
    }
}

fn read_record(r: &mut Reader<'_>) -> Record {
    let name = Name::parse(r).expect(VALIDATED);
    let rtype = RType::from_u16(r.read_u16().expect(VALIDATED));
    let class = RClass::from_u16(r.read_u16().expect(VALIDATED));
    let ttl = r.read_u32().expect(VALIDATED);
    let rdlength = r.read_u16().expect(VALIDATED);
    let rdata = RData::parse(r, rtype, rdlength).expect(VALIDATED);
    Record { name, class, ttl, rdata }
}

impl fmt::Debug for MessageView<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MessageView")
            .field("header", &self.header)
            .field("counts", &self.counts)
            .finish()
    }
}

fn skip_record(r: &mut Reader<'_>) -> Result<(), ParseError> {
    walk_name(r, &mut |_| true)?;
    let rtype = RType::from_u16(r.read_u16()?);
    let _class = r.read_u16()?;
    let _ttl = r.read_u32()?;
    let rdlength = r.read_u16()?;
    RData::skip(r, rtype, rdlength)
}

/// A name inside a message, still in (possibly compressed) wire form.
#[derive(Clone, Copy)]
pub struct NameRef<'a> {
    buf: &'a [u8],
    off: usize,
}

impl<'a> NameRef<'a> {
    /// Case-insensitive comparison against an owned name, walking the
    /// compressed labels in place. No allocation.
    pub fn eq_name(&self, name: &Name) -> bool {
        let mut r = Reader::new(self.buf);
        if r.seek(self.off).is_err() {
            return false;
        }
        let wire = name.as_wire();
        let mut pos = 0usize;
        let mut matched = true;
        match walk_name(&mut r, &mut |label| {
            let want = wire[pos] as usize;
            if want == 0
                || want != label.len()
                || !label.eq_ignore_ascii_case(&wire[pos + 1..pos + 1 + want])
            {
                matched = false;
                return false;
            }
            pos += 1 + want;
            true
        }) {
            Ok(true) => matched && wire[pos] == 0,
            Ok(false) | Err(_) => false,
        }
    }

    /// [`Name::is_subdomain_of`] without materializing this name: true if
    /// it equals `other` or lies under it, case-insensitively. No
    /// allocation.
    pub fn is_subdomain_of(&self, other: &Name) -> bool {
        self.with_wire(|wire| wire_is_subdomain_of(wire, label_count(wire), other))
    }

    /// Decompresses into an owned [`Name`]. At most one allocation (the
    /// shared name buffer, none for an interned debugging name); only
    /// called once a message leaves the filter path.
    pub fn to_name(&self) -> Name {
        let mut r = Reader::new(self.buf);
        r.seek(self.off).expect("offset from a validated view");
        Name::parse(&mut r).expect(VALIDATED)
    }

    /// Calls `f` with the name's canonical (uncompressed) wire form,
    /// decompressed on the stack. Never allocates.
    pub(crate) fn with_wire<R>(&self, f: impl FnOnce(&[u8]) -> R) -> R {
        let mut r = Reader::new(self.buf);
        r.seek(self.off).expect("offset from a validated view");
        let mut buf = [0u8; MAX_NAME_LEN];
        let (len, _) = decompress(&mut r, &mut buf).expect(VALIDATED);
        f(&buf[..len])
    }
}

impl fmt::Display for NameRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_name())
    }
}

impl fmt::Debug for NameRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "NameRef({})", self.to_name())
    }
}

/// A borrowed question-section entry.
#[derive(Debug, Clone, Copy)]
pub struct QuestionView<'a> {
    /// Name being queried, still compressed in place.
    pub qname: NameRef<'a>,
    /// Type being queried.
    pub qtype: RType,
    /// Class being queried.
    pub qclass: RClass,
}

impl QuestionView<'_> {
    /// True when this entry asks the same question (type, class, and
    /// case-insensitive name). Allocation-free.
    pub fn matches(&self, q: &Question) -> bool {
        self.qtype == q.qtype && self.qclass == q.qclass && self.qname.eq_name(&q.qname)
    }

    /// Materializes an owned [`Question`].
    pub fn to_question(&self) -> Question {
        Question { qname: self.qname.to_name(), qtype: self.qtype, qclass: self.qclass }
    }
}

/// Iterator over borrowed questions.
pub struct QuestionIter<'a> {
    r: Reader<'a>,
    remaining: u16,
}

impl<'a> Iterator for QuestionIter<'a> {
    type Item = QuestionView<'a>;

    fn next(&mut self) -> Option<QuestionView<'a>> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let buf = self.r.message();
        let off = self.r.position();
        walk_name(&mut self.r, &mut |_| true).expect(VALIDATED);
        let qtype = RType::from_u16(self.r.read_u16().expect("validated"));
        let qclass = RClass::from_u16(self.r.read_u16().expect("validated"));
        Some(QuestionView { qname: NameRef { buf, off }, qtype, qclass })
    }
}

/// A borrowed resource record.
#[derive(Debug, Clone, Copy)]
pub struct RecordView<'a> {
    /// Owner name, still compressed in place.
    pub name: NameRef<'a>,
    /// Record type as seen on the wire.
    pub rtype: RType,
    /// Record class.
    pub class: RClass,
    /// Time to live in seconds.
    pub ttl: u32,
    buf: &'a [u8],
    rdata_off: usize,
    rdlength: u16,
}

impl RecordView<'_> {
    /// Raw RDATA bytes as they appear on the wire. Note that RDATA of
    /// name-bearing types may contain compression pointers into the rest
    /// of the message; use [`RecordView::rdata`] for decoded data.
    pub fn rdata_bytes(&self) -> &[u8] {
        &self.buf[self.rdata_off..self.rdata_off + self.rdlength as usize]
    }

    /// Decodes the typed RDATA (allocates for the owned representation).
    pub fn rdata(&self) -> RData {
        let mut r = Reader::new(self.buf);
        r.seek(self.rdata_off).expect("offset from a validated view");
        RData::parse(&mut r, self.rtype, self.rdlength).expect(VALIDATED)
    }

    /// The IPv4 address, when this is an A record. Allocation-free.
    pub fn a_addr(&self) -> Option<std::net::Ipv4Addr> {
        if self.rtype != RType::A || self.rdlength != 4 {
            return None;
        }
        let b = self.rdata_bytes();
        Some(std::net::Ipv4Addr::new(b[0], b[1], b[2], b[3]))
    }

    /// The IPv6 address, when this is an AAAA record. Allocation-free.
    pub fn aaaa_addr(&self) -> Option<std::net::Ipv6Addr> {
        if self.rtype != RType::Aaaa || self.rdlength != 16 {
            return None;
        }
        let mut oct = [0u8; 16];
        oct.copy_from_slice(self.rdata_bytes());
        Some(std::net::Ipv6Addr::from(oct))
    }

    /// Materializes an owned [`Record`].
    pub fn to_record(&self) -> Record {
        Record { name: self.name.to_name(), class: self.class, ttl: self.ttl, rdata: self.rdata() }
    }
}

/// Iterator over borrowed records of one section.
pub struct RecordIter<'a> {
    r: Reader<'a>,
    remaining: u16,
}

impl<'a> Iterator for RecordIter<'a> {
    type Item = RecordView<'a>;

    fn next(&mut self) -> Option<RecordView<'a>> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let buf = self.r.message();
        let off = self.r.position();
        walk_name(&mut self.r, &mut |_| true).expect(VALIDATED);
        let rtype = RType::from_u16(self.r.read_u16().expect("validated"));
        let class = RClass::from_u16(self.r.read_u16().expect("validated"));
        let ttl = self.r.read_u32().expect("validated");
        let rdlength = self.r.read_u16().expect("validated");
        let rdata_off = self.r.position();
        RData::skip(&mut self.r, rtype, rdlength).expect(VALIDATED);
        Some(RecordView {
            name: NameRef { buf, off },
            rtype,
            class,
            ttl,
            buf,
            rdata_off,
            rdlength,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::Record;
    use crate::types::Rcode;
    use std::net::Ipv4Addr;

    fn q(name: &str, qtype: RType) -> Question {
        Question::new(name.parse().unwrap(), qtype)
    }

    #[test]
    fn view_agrees_with_owned_parse_on_a_response() {
        let query = Message::query(0x4242, q("www.example.com", RType::A));
        let resp = Message::response_to(&query, Rcode::NoError).with_answer(Record::new(
            "www.example.com".parse().unwrap(),
            30,
            RData::A(Ipv4Addr::new(93, 184, 216, 34)),
        ));
        let bytes = resp.encode().unwrap();
        let view = MessageView::parse(&bytes).unwrap();
        let owned = Message::parse(&bytes).unwrap();
        assert_eq!(*view.header(), owned.header);
        assert_eq!(view.question_count(), owned.questions.len());
        assert_eq!(view.answer_count(), owned.answers.len());
        let qv = view.question().unwrap();
        assert!(qv.matches(owned.question().unwrap()));
        assert_eq!(qv.to_question(), *owned.question().unwrap());
        let av: Vec<Record> = view.answers().map(|r| r.to_record()).collect();
        assert_eq!(av, owned.answers);
        assert_eq!(view.to_message(), owned);
    }

    #[test]
    fn question_match_is_case_insensitive_and_type_strict() {
        let msg = Message::query(7, q("Probe.DNS-Hijack-Study.Example", RType::A));
        let bytes = msg.encode().unwrap();
        let view = MessageView::parse(&bytes).unwrap();
        let qv = view.question().unwrap();
        assert!(qv.matches(&q("probe.dns-hijack-study.example", RType::A)));
        assert!(!qv.matches(&q("probe.dns-hijack-study.example", RType::Aaaa)));
        assert!(!qv.matches(&q("probe2.dns-hijack-study.example", RType::A)));
        // A longer owned name must not match a view prefix and vice versa.
        assert!(!qv.matches(&q("x.probe.dns-hijack-study.example", RType::A)));
        assert!(!qv.matches(&q("dns-hijack-study.example", RType::A)));
    }

    #[test]
    fn record_accessors_read_addresses_in_place() {
        let query = Message::query(1, q("example.com", RType::A));
        let resp = Message::response_to(&query, Rcode::NoError)
            .with_answer(Record::new(
                "example.com".parse().unwrap(),
                60,
                RData::A(Ipv4Addr::new(10, 0, 0, 1)),
            ))
            .with_answer(Record::new(
                "example.com".parse().unwrap(),
                60,
                RData::Aaaa("2001:db8::1".parse().unwrap()),
            ));
        let bytes = resp.encode().unwrap();
        let view = MessageView::parse(&bytes).unwrap();
        let answers: Vec<RecordView> = view.answers().collect();
        assert_eq!(answers[0].a_addr(), Some(Ipv4Addr::new(10, 0, 0, 1)));
        assert_eq!(answers[0].aaaa_addr(), None);
        assert_eq!(answers[1].aaaa_addr(), Some("2001:db8::1".parse().unwrap()));
        assert_eq!(answers[1].a_addr(), None);
    }

    #[test]
    fn view_rejects_what_owned_parse_rejects() {
        // Truncated header.
        assert!(MessageView::parse(&[0u8; 5]).is_err());
        // Count overrun.
        let msg = Message::query(2, q("example.com", RType::A));
        let bytes = msg.encode().unwrap();
        assert!(MessageView::parse(&bytes[..bytes.len() - 3]).is_err());
        // Trailing bytes tolerated, like Message::parse.
        let mut padded = bytes.clone();
        padded.extend_from_slice(b"junk");
        assert!(MessageView::parse(&padded).is_ok());
    }

    #[test]
    fn name_refs_test_subdomains_like_names() {
        let apexes: Vec<Name> = ["example.com", "EXAMPLE.com", "com", "b.example.com", "org", "."]
            .iter()
            .map(|s| s.parse().unwrap())
            .collect();
        let name: Name = "a.b.example.com".parse().unwrap();
        let query = Message::query(3, Question::new("example.com".parse().unwrap(), RType::A));
        let mut resp = Message::response_to(&query, Rcode::NoError);
        // The answer's owner compresses against the question: a pointer
        // after a label.
        resp.answers.push(Record::new(name.clone(), 5, RData::A(Ipv4Addr::LOCALHOST)));
        let bytes = resp.encode().unwrap();
        let view = MessageView::parse(&bytes).unwrap();
        let owner = view.answers().next().unwrap().name;
        let qname = view.question().unwrap().qname;
        for apex in &apexes {
            assert_eq!(owner.is_subdomain_of(apex), name.is_subdomain_of(apex), "{apex}");
            let q = qname.to_name();
            assert_eq!(qname.is_subdomain_of(apex), q.is_subdomain_of(apex), "{apex}");
        }
    }

    #[test]
    fn compressed_names_resolve_through_the_view() {
        let name: Name = "a.b.example.com".parse().unwrap();
        let query = Message::query(3, Question::new(name.clone(), RType::Txt));
        let resp = Message::response_to(&query, Rcode::NoError)
            .with_answer(Record::new(name.clone(), 5, RData::txt("hello")));
        let bytes = resp.encode().unwrap();
        // The answer's owner name is a compression pointer; the view must
        // still compare and materialize it correctly.
        let view = MessageView::parse(&bytes).unwrap();
        let rec = view.answers().next().unwrap();
        assert!(rec.name.eq_name(&name));
        assert_eq!(rec.name.to_name(), name);
        assert_eq!(rec.rdata().txt_string().unwrap(), "hello");
    }
}
