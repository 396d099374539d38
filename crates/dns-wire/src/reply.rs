//! Replies as received.
//!
//! A stub resolver reads a handful of fields from each answer it accepts:
//! the rcode, one TXT string, one address. [`Reply`] keeps the datagram
//! exactly as it arrived, together with what one [`MessageView::parse`]
//! validated about it, so every later read goes through a borrowed view
//! and nothing is decoded into owned records unless a tool asks for the
//! whole [`Message`].

use crate::error::{BuildError, ParseError};
use crate::message::{Header, Message};
use crate::view::{Layout, MessageView};
use bytes::Bytes;
use core::fmt;

/// A DNS message as received: its bytes, validated once.
///
/// The fields are private, so every `Reply` holds bytes that parsed:
/// [`view`](Reply::view) is infallible and walks nothing, and
/// [`to_message`](Reply::to_message) cannot fail. Cloning shares the
/// bytes.
#[derive(Clone, PartialEq, Eq)]
pub struct Reply {
    bytes: Bytes,
    layout: Layout,
}

impl Reply {
    /// Validates `bytes` as a DNS message and keeps them, with no copy.
    /// Accepts exactly what [`MessageView::parse`] accepts, trailing bytes
    /// included.
    pub fn parse(bytes: Bytes) -> Result<Reply, ParseError> {
        let layout = MessageView::parse(&bytes)?.layout;
        Ok(Reply { bytes, layout })
    }

    /// Encodes `message` and keeps the bytes: how scripted transports and
    /// tests hand out a reply they built as a [`Message`].
    pub fn encode(message: &Message) -> Result<Reply, BuildError> {
        let bytes = Bytes::from(message.encode()?);
        Ok(Reply::parse(bytes).expect("an encoded message parses"))
    }

    pub(crate) fn from_parts(bytes: Bytes, layout: Layout) -> Reply {
        Reply { bytes, layout }
    }

    /// A view over the bytes, built from the validated offsets.
    pub fn view(&self) -> MessageView<'_> {
        MessageView { buf: &self.bytes, layout: self.layout }
    }

    /// Decoded header.
    pub fn header(&self) -> &Header {
        &self.layout.header
    }

    /// The message bytes, as received.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Materializes the owned [`Message`], for tests and tools.
    pub fn to_message(&self) -> Message {
        self.view().to_message()
    }
}

impl fmt::Debug for Reply {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Reply").field("view", &self.view()).field("len", &self.bytes.len()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{Question, Record};
    use crate::types::Rcode;

    fn answer() -> Message {
        let query = Message::query(0x4242, Question::chaos_txt("id.server".parse().unwrap()));
        Message::response_to(&query, Rcode::NoError)
            .with_answer(Record::chaos_txt("id.server".parse().unwrap(), "IAD"))
    }

    #[test]
    fn keeps_the_bytes_it_parsed_and_views_them_in_place() {
        let wire = answer().encode().unwrap();
        let mut padded = wire.clone();
        padded.extend_from_slice(b"trailer");
        let reply = Reply::parse(Bytes::from(padded.clone())).unwrap();
        assert_eq!(reply.as_bytes(), &padded[..], "trailing bytes are kept as received");
        assert_eq!(reply.header().id, 0x4242);
        assert_eq!(reply.view().answers().next().unwrap().txt_str().as_deref(), Some("IAD"));
        assert_eq!(reply.to_message(), answer());
        assert!(Reply::parse(Bytes::from(wire[..wire.len() - 1].to_vec())).is_err());
    }

    #[test]
    fn a_copied_view_equals_the_parsed_reply() {
        let wire = answer().encode().unwrap();
        let copied = MessageView::parse(&wire).unwrap().to_reply();
        assert_eq!(copied, Reply::parse(Bytes::from(wire)).unwrap());
        assert_eq!(Reply::encode(&answer()).unwrap(), copied);
    }
}
