//! # dns-wire
//!
//! RFC 1035 DNS wire format for the *Home is Where the Hijacking is*
//! reproduction: bounds-checked parsing (including compression-pointer
//! chasing with loop protection), message building with name compression,
//! and first-class support for the CHAOS-class debugging queries
//! (`version.bind`, `id.server`, `hostname.bind`) that the paper's
//! interception-localization technique is built on.
//!
//! Design follows the smoltcp school: explicit byte-level codecs, errors as
//! values, no panics on untrusted input, and no `unsafe`.
//!
//! ```
//! use dns_wire::{Message, Question, Record, RType, Rcode};
//!
//! // Build the paper's step-2 probe: a CHAOS TXT version.bind query.
//! let query = dns_wire::debug_queries::version_bind_query(0x2b1d);
//! let bytes = query.encode().unwrap();
//!
//! // A Dnsmasq-style forwarder answers it with its version string.
//! let parsed = Message::parse(&bytes).unwrap();
//! let resp = Message::response_to(&parsed, Rcode::NoError)
//!     .with_answer(Record::chaos_txt("version.bind".parse().unwrap(), "dnsmasq-2.85"));
//! let resp_bytes = resp.encode().unwrap();
//! let resp = Message::parse(&resp_bytes).unwrap();
//! assert_eq!(resp.answers[0].rdata.txt_string().unwrap(), "dnsmasq-2.85");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod debug_queries;
pub mod edns;
mod error;
mod message;
mod name;
mod rdata;
mod response;
pub mod tcp;
mod types;
mod view;
mod wire;

pub use error::{BuildError, ParseError};
pub use message::{EncodeScratch, Header, Message, QueryEncoder, Question, Record};
pub use name::{LabelIter, Name, NameCompressor, MAX_LABEL_LEN, MAX_NAME_LEN};
pub use rdata::{RData, Soa};
pub use response::ResponseWriter;
pub use types::{Opcode, RClass, RType, Rcode};
pub use view::{MessageView, NameRef, QuestionIter, QuestionView, RecordIter, RecordView};
pub use wire::{Reader, Writer};
