//! A DNS forwarder core: the state machine inside every CPE DNS stack
//! (Dnsmasq, XDNS, Pi-hole).
//!
//! The forwarder answers by the local-answer rule itself — a CHAOS
//! server-identification query by its software profile, the property the
//! paper's step 2 exploits — and NXDOMAIN for blocklisted names. Everything
//! else is relayed upstream as the datagram the client sent, with only the
//! transaction ID rewritten. The core is transport-free and deals only in
//! IDs: the device takes each query through the front door, hands the core
//! its view, and copies the bytes itself; per upstream ID the core keeps the
//! client's ID and the device's metadata until the answer comes back.

use crate::server::{local_answer, LocalReply};
use crate::software::SoftwareProfile;
use dns_wire::{MessageView, Name, Rcode};
use netsim::FxHashMap;

/// What the forwarder wants done with a client query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FwdAction<'p> {
    /// Answer the client directly with this reply, written from the
    /// query's view.
    Respond(LocalReply<'p>),
    /// Relay the query to the upstream resolver. Deciding this registers
    /// nothing: a caller that sends the query gets its upstream ID from
    /// [`ForwarderCore::relay`].
    Forward,
    /// Say nothing.
    Drop,
}

/// The forwarder state machine, carrying caller-defined metadata `M` per
/// relayed query (the CPE device stores the path its answer takes back).
#[derive(Debug)]
pub struct ForwarderCore<M> {
    /// Software identity (drives version.bind answers).
    pub profile: SoftwareProfile,
    /// Names answered locally with NXDOMAIN (Pi-hole style blocklist).
    pub blocklist: Vec<Name>,
    /// Per upstream transaction ID: the client's ID and the metadata.
    pending: FxHashMap<u16, (u16, M)>,
    next_txid: u16,
    /// Queries forwarded upstream.
    pub forwarded: u64,
    /// Queries answered locally (CHAOS, other classes, blocklist).
    pub answered_locally: u64,
}

impl<M> ForwarderCore<M> {
    /// Creates a forwarder with the given identity.
    pub fn new(profile: SoftwareProfile) -> ForwarderCore<M> {
        ForwarderCore {
            profile,
            blocklist: Vec::new(),
            pending: FxHashMap::default(),
            next_txid: 0x4000,
            forwarded: 0,
            answered_locally: 0,
        }
    }

    /// Number of in-flight upstream queries.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Decides what to do with a client query that came through the
    /// front door.
    pub fn handle_query(&mut self, query: &MessageView<'_>) -> FwdAction<'_> {
        let Some(q) = query.question() else { return FwdAction::Drop };
        if let Some(reply) = local_answer(&q, &self.profile) {
            self.answered_locally += 1;
            return reply.map_or(FwdAction::Drop, FwdAction::Respond);
        }
        if self.blocklist.iter().any(|b| q.qname.is_subdomain_of(b)) {
            self.answered_locally += 1;
            return FwdAction::Respond(LocalReply::Status(Rcode::NxDomain));
        }
        FwdAction::Forward
    }

    /// Registers the relay of a query [`handle_query`](ForwarderCore::handle_query)
    /// chose to forward, sent by the client with transaction ID
    /// `client_txid`, and returns the fresh ID the relayed copy carries
    /// upstream. `meta` comes back with the answer.
    pub fn relay(&mut self, client_txid: u16, meta: M) -> u16 {
        let txid = self.allocate_txid();
        self.pending.insert(txid, (client_txid, meta));
        self.forwarded += 1;
        txid
    }

    /// Matches an upstream answer carrying transaction ID `txid` to its
    /// relay: the client's ID to restore and the stored metadata. `None`
    /// for unexpected answers (late, duplicated, or spoofed).
    pub fn handle_upstream_response(&mut self, txid: u16) -> Option<(u16, M)> {
        self.pending.remove(&txid)
    }

    fn allocate_txid(&mut self) -> u16 {
        for _ in 0..=u16::MAX {
            let candidate = self.next_txid;
            self.next_txid = self.next_txid.wrapping_add(1);
            if !self.pending.contains_key(&candidate) {
                return candidate;
            }
        }
        self.next_txid
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dns_wire::debug_queries;
    use dns_wire::{Message, Question, RClass, RType};

    fn fwd() -> ForwarderCore<u32> {
        ForwarderCore::new(SoftwareProfile::dnsmasq("2.85"))
    }

    fn a_query(id: u16, name: &str) -> Vec<u8> {
        Message::query(id, Question::new(name.parse().unwrap(), RType::A)).encode().unwrap()
    }

    fn wire(query: &Message) -> Vec<u8> {
        query.encode().unwrap()
    }

    fn view(wire: &[u8]) -> MessageView<'_> {
        MessageView::parse(wire).unwrap()
    }

    #[test]
    fn version_bind_answered_locally() {
        let mut f = fwd();
        let query = wire(&debug_queries::version_bind_query(42));
        let action = f.handle_query(&view(&query));
        assert_eq!(action, FwdAction::Respond(LocalReply::Text("dnsmasq-2.85")));
        assert_eq!(f.answered_locally, 1);
        assert_eq!(f.forwarded, 0);
    }

    #[test]
    fn in_queries_forwarded_with_remapped_txid() {
        let mut f = fwd();
        let query = a_query(7, "example.com");
        assert_eq!(f.handle_query(&view(&query)), FwdAction::Forward);
        // Deciding to forward registers nothing; relaying does.
        assert_eq!((f.pending_len(), f.forwarded), (0, 0));
        let txid = f.relay(7, 99);
        assert_eq!(f.forwarded, 1);
        assert_ne!(txid, 7);
        assert_eq!(f.pending_len(), 1);

        // Upstream answers with the relayed ID; the forwarder gives back
        // the client's 7 and the metadata, once.
        assert_eq!(f.handle_upstream_response(txid), Some((7, 99)));
        assert_eq!(f.pending_len(), 0);
        assert_eq!(f.handle_upstream_response(txid), None);
    }

    #[test]
    fn unexpected_upstream_response_rejected() {
        let mut f = fwd();
        assert!(f.handle_upstream_response(1).is_none());
        // An answer to a different relay leaves the pending one in place.
        let txid = f.relay(2, 0);
        assert!(f.handle_upstream_response(txid.wrapping_add(1)).is_none());
        assert_eq!(f.pending_len(), 1);
    }

    #[test]
    fn blocklist_answers_nxdomain() {
        let mut f = fwd();
        f.blocklist.push("doubleclick.net".parse().unwrap());
        let blocked = a_query(3, "ads.DoubleClick.net");
        assert_eq!(
            f.handle_query(&view(&blocked)),
            FwdAction::Respond(LocalReply::Status(Rcode::NxDomain))
        );
        // Non-blocked names still forward.
        let query = a_query(4, "example.com");
        assert_eq!(f.handle_query(&view(&query)), FwdAction::Forward);
    }

    #[test]
    fn silent_chaos_profile_drops() {
        let mut f: ForwarderCore<()> = ForwarderCore::new(SoftwareProfile::chaos_silent());
        let query = wire(&debug_queries::version_bind_query(1));
        assert_eq!(f.handle_query(&view(&query)), FwdAction::Drop);
    }

    #[test]
    fn hesiod_class_notimp() {
        let mut f = fwd();
        let q = Message::query(
            5,
            Question { qname: "x.y".parse().unwrap(), qtype: RType::A, qclass: RClass::Hesiod },
        );
        let query = wire(&q);
        assert_eq!(
            f.handle_query(&view(&query)),
            FwdAction::Respond(LocalReply::Status(Rcode::NotImp))
        );
    }

    #[test]
    fn txid_allocation_avoids_collisions() {
        let mut f = fwd();
        let mut ids = std::collections::HashSet::new();
        for i in 0..100 {
            assert!(ids.insert(f.relay(i, 0)));
        }
        assert_eq!(f.pending_len(), 100);
    }
}
