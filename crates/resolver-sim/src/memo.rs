//! The fill-once wire memo a shared server profile keeps: each query it
//! has answered, as the bytes after the transaction ID, with the reply the
//! answer path wrote for it.
//!
//! Every input of a profile's reply lives in the profile and none
//! changes, so a reply is a function of the query's bytes after its ID.
//! The first device to answer a query fills a slot; every later device on
//! the same profile answers it with an ID-only copy of the stored reply.

use std::sync::OnceLock;

/// `SLOTS` fill-once slots, each a query and the reply to it, with a tag
/// of type `T` saying what else a device needs to know about the reply.
/// A query past the last slot takes the answer path every time.
pub(crate) struct WireMemo<T, const SLOTS: usize> {
    /// Filled in order, once each, by whichever device answers a new query
    /// first; concurrent fills of one query keep the first.
    slots: [OnceLock<MemoEntry<T>>; SLOTS],
}

/// One memoized query and the reply the answer path wrote for it, in one
/// allocation.
struct MemoEntry<T> {
    /// The query's bytes after its transaction ID, then the reply as first
    /// sent, transaction ID included.
    bytes: Box<[u8]>,
    /// Where the query ends and the reply starts in `bytes`.
    split: usize,
    tag: T,
}

impl<T> MemoEntry<T> {
    fn query(&self) -> &[u8] {
        &self.bytes[..self.split]
    }

    fn reply(&self) -> &[u8] {
        &self.bytes[self.split..]
    }
}

impl<T, const SLOTS: usize> WireMemo<T, SLOTS> {
    /// An empty memo; it allocates nothing until its first fill.
    pub(crate) fn new() -> Self {
        WireMemo { slots: std::array::from_fn(|_| OnceLock::new()) }
    }

    /// The transaction ID of `wire`, a datagram the front door's address
    /// check passed, and the memoized reply to it with its tag: the one to
    /// a query whose bytes after the ID equal `wire`'s. Filled slots form a
    /// prefix, so the walk stops at the first empty one.
    pub(crate) fn get(&self, wire: &[u8]) -> Option<(u16, &[u8], &T)> {
        let (id, tail) = wire.split_first_chunk()?;
        let entry = self.slots.iter().map_while(OnceLock::get).find(|e| e.query() == tail)?;
        Some((u16::from_be_bytes(*id), entry.reply(), &entry.tag))
    }

    /// Memoizes `reply`, tagged `tag`, as the answer to the admitted query
    /// `wire`, in the first slot that is empty or already holds it; a full
    /// memo keeps what it has.
    pub(crate) fn fill(&self, wire: &[u8], reply: &[u8], tag: T) {
        let tail = &wire[2..];
        let mut tag = Some(tag);
        for slot in &self.slots {
            let entry = slot.get_or_init(|| MemoEntry {
                bytes: [tail, reply].concat().into(),
                split: tail.len(),
                tag: tag.take().expect("a fill initializes at most one slot"),
            });
            if entry.query() == tail {
                return;
            }
        }
    }
}
