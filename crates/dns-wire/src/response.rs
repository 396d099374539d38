//! The reply writer: a response encoded straight from the query's view.
//!
//! A server that answers at once needs neither an owned query nor an owned
//! reply. [`EncodeScratch::response`] writes the response header and the
//! question section as asked, from a validated [`MessageView`] of the
//! query; the server then adds borrowed [`Record`]s section by section and
//! takes the bytes from [`ResponseWriter::finish`]. The output is exactly
//! what [`Message::encode`] gives for [`Message::response_to`] of the parsed
//! query with the same header and records.
//!
//! [`Message::encode`]: crate::Message::encode
//! [`Message::response_to`]: crate::Message::response_to

use crate::error::BuildError;
use crate::message::{EncodeScratch, Header, Record};
use crate::name::{write_compressed, NameCompressor};
use crate::rdata::{encode_with_length, RData};
use crate::types::{RClass, RType};
use crate::view::MessageView;
use crate::wire::Writer;

/// Section indices into a header's four counts.
const ANSWER: usize = 1;
const AUTHORITY: usize = 2;
const ADDITIONAL: usize = 3;

impl EncodeScratch {
    /// Starts a response to `query` with `header`: writes the header and
    /// the query's question section, each name re-encoded through the name
    /// compressor as `Message::encode` encodes the questions
    /// `Message::response_to` copies. [`Header::response_to`] gives the
    /// header `Message::response_to` would; callers adjust flags from
    /// there.
    pub fn response<'s>(
        &'s mut self,
        query: &MessageView<'_>,
        header: &Header,
    ) -> ResponseWriter<'s> {
        let EncodeScratch { buf: w, compress } = self;
        w.clear();
        compress.clear();
        let questions = query.question_count() as u16;
        header.encode(w, [questions, 0, 0, 0]);
        let mut question_at = None;
        for (i, q) in query.questions().enumerate() {
            let at = w.len() as u16;
            q.qname.with_wire(|wire| {
                if i == 0 && wire != [0] {
                    question_at = Some(at);
                }
                write_compressed(w, compress, wire)
            });
            w.write_u16(q.qtype.to_u16());
            w.write_u16(q.qclass.to_u16());
        }
        ResponseWriter { w, compress, question_at, counts: [questions, 0, 0, 0], section: ANSWER }
    }
}

/// A response being written by [`EncodeScratch::response`].
///
/// Records go in wire order: every answer, then every authority record,
/// then every additional record. Each returns the error
/// [`Message::encode`](crate::Message::encode) would give for it, after
/// which the response is abandoned.
pub struct ResponseWriter<'s> {
    w: &'s mut Writer,
    compress: &'s mut NameCompressor,
    /// Where the first question's name starts, unless it is the root. It
    /// is the first name written, in full, so compression points every
    /// record it owns ([`ResponseWriter::answer_question`]) back there.
    question_at: Option<u16>,
    counts: [u16; 4],
    /// The section records are being added to.
    section: usize,
}

impl<'s> ResponseWriter<'s> {
    /// Adds an answer record.
    pub fn answer(&mut self, record: &Record) -> Result<(), BuildError> {
        self.enter(ANSWER)?;
        record.encode(self.w, self.compress)
    }

    /// Adds an answer owned by the first question's name as asked, the
    /// record `Record { name: question.qname.clone(), class, ttl, rdata }`
    /// would be. A query without questions gives the root as owner.
    pub fn answer_question(
        &mut self,
        class: RClass,
        ttl: u32,
        rdata: &RData,
    ) -> Result<(), BuildError> {
        self.question_owner(rdata.rtype(), class, ttl)?;
        encode_with_length(rdata, self.w, self.compress)
    }

    /// [`ResponseWriter::answer_question`] with the one-string TXT RDATA
    /// `RData::txt(text)`, written from `text` without building it.
    pub fn answer_question_txt(
        &mut self,
        class: RClass,
        ttl: u32,
        text: &[u8],
    ) -> Result<(), BuildError> {
        let len = u8::try_from(text.len()).map_err(|_| BuildError::StringTooLong)?;
        self.question_owner(RType::Txt, class, ttl)?;
        self.w.write_u16(1 + u16::from(len));
        self.w.write_u8(len);
        self.w.write_bytes(text);
        Ok(())
    }

    /// Adds an authority record; no answer may follow.
    pub fn authority(&mut self, record: &Record) -> Result<(), BuildError> {
        self.enter(AUTHORITY)?;
        record.encode(self.w, self.compress)
    }

    /// Adds an additional record; no answer or authority record may
    /// follow.
    pub fn additional(&mut self, record: &Record) -> Result<(), BuildError> {
        self.enter(ADDITIONAL)?;
        record.encode(self.w, self.compress)
    }

    /// Patches the section counts into the header and returns the encoded
    /// response.
    pub fn finish(self) -> Result<&'s [u8], BuildError> {
        if self.w.len() > u16::MAX as usize {
            return Err(BuildError::MessageTooLong);
        }
        for (i, count) in self.counts.into_iter().enumerate().skip(ANSWER) {
            self.w.patch_u16(4 + 2 * i, count);
        }
        Ok(self.w.as_slice())
    }

    /// Counts one more record in `section`, which must not precede the
    /// section already being written.
    fn enter(&mut self, section: usize) -> Result<(), BuildError> {
        assert!(section >= self.section, "response sections are written in wire order");
        self.section = section;
        let count = &mut self.counts[section];
        *count = count.checked_add(1).ok_or(BuildError::TooManyRecords)?;
        Ok(())
    }

    /// Starts an answer owned by the first question's name: everything up
    /// to the RDATA length.
    fn question_owner(&mut self, rtype: RType, class: RClass, ttl: u32) -> Result<(), BuildError> {
        self.enter(ANSWER)?;
        match self.question_at {
            Some(at) => self.w.write_u16(0xC000 | at),
            None => self.w.write_u8(0),
        }
        self.w.write_u16(rtype.to_u16());
        self.w.write_u16(class.to_u16());
        self.w.write_u32(ttl);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::debug_queries;
    use crate::message::{Message, Question};
    use crate::types::Rcode;
    use std::net::Ipv4Addr;

    /// The bytes the owned path gives: parse, `response_to`, push, encode.
    fn owned_reply(query: &[u8], header: &Header, answers: &[Record]) -> Vec<u8> {
        let mut resp = Message::response_to(&Message::parse(query).unwrap(), header.rcode);
        resp.header = *header;
        resp.answers = answers.to_vec();
        resp.encode().unwrap()
    }

    #[test]
    fn id_server_reply_matches_the_owned_path() {
        let query = debug_queries::id_server_query(0x2b1d).encode().unwrap();
        let view = MessageView::parse(&query).unwrap();
        let header = Header::response_to(view.header(), Rcode::NoError);
        let rdata = RData::txt("IAD");
        let mut scratch = EncodeScratch::new();
        let mut w = scratch.response(&view, &header);
        w.answer_question(RClass::Chaos, 0, &rdata).unwrap();
        let written = w.finish().unwrap().to_vec();
        let record =
            Record { class: RClass::Chaos, ..Record::new(debug_queries::id_server(), 0, rdata) };
        assert_eq!(written, owned_reply(&query, &header, &[record]));
        // The TXT shortcut writes the same bytes.
        let mut w = scratch.response(&view, &header);
        w.answer_question_txt(RClass::Chaos, 0, b"IAD").unwrap();
        assert_eq!(w.finish().unwrap(), written);
    }

    #[test]
    fn sections_and_flags_land_where_the_owned_path_puts_them() {
        let query =
            Message::query(7, Question::new("www.sub.example.com".parse().unwrap(), RType::A))
                .encode()
                .unwrap();
        let view = MessageView::parse(&query).unwrap();
        let mut header = Header::response_to(view.header(), Rcode::NoError);
        header.aa = true;
        header.ra = false;
        let ns: crate::Name = "ns1.sub.example.com".parse().unwrap();
        let authority =
            Record::new("sub.example.com".parse().unwrap(), 172800, RData::Ns(ns.clone()));
        let glue = Record::new(ns, 172800, RData::A(Ipv4Addr::new(192, 0, 33, 1)));
        let mut scratch = EncodeScratch::new();
        let mut w = scratch.response(&view, &header);
        w.authority(&authority).unwrap();
        w.additional(&glue).unwrap();
        let written = w.finish().unwrap().to_vec();
        let mut owned = Message::response_to(&Message::parse(&query).unwrap(), Rcode::NoError);
        owned.header = header;
        owned.authority.push(authority);
        owned.additional.push(glue);
        assert_eq!(written, owned.encode().unwrap());
    }

    #[test]
    fn encode_errors_match_the_owned_path() {
        let query = debug_queries::version_bind_query(1).encode().unwrap();
        let view = MessageView::parse(&query).unwrap();
        let header = Header::response_to(view.header(), Rcode::NoError);
        let long = vec![b'x'; 256];
        let mut scratch = EncodeScratch::new();
        let mut w = scratch.response(&view, &header);
        assert_eq!(w.answer_question_txt(RClass::Chaos, 0, &long), Err(BuildError::StringTooLong));
        let mut w = scratch.response(&view, &header);
        let rdata = RData::Txt(vec![long]);
        assert_eq!(w.answer_question(RClass::Chaos, 0, &rdata), Err(BuildError::StringTooLong));
        let mut owned = Message::response_to(&Message::parse(&query).unwrap(), Rcode::NoError);
        owned.answers.push(Record::chaos_txt(debug_queries::version_bind(), vec![b'x'; 256]));
        assert_eq!(owned.encode(), Err(BuildError::StringTooLong));
    }

    #[test]
    #[should_panic(expected = "wire order")]
    fn an_answer_after_authority_is_refused() {
        let query = debug_queries::version_bind_query(1).encode().unwrap();
        let view = MessageView::parse(&query).unwrap();
        let header = Header::response_to(view.header(), Rcode::NoError);
        let record = Record::new(debug_queries::version_bind(), 0, RData::txt("x"));
        let mut scratch = EncodeScratch::new();
        let mut w = scratch.response(&view, &header);
        w.authority(&record).unwrap();
        let _ = w.answer(&record);
    }
}
