//! A DNS forwarder core: the state machine inside every CPE DNS stack
//! (Dnsmasq, XDNS, Pi-hole).
//!
//! The forwarder answers CHAOS server-identification queries itself — the
//! property the paper's step 2 exploits — and relays everything else to a
//! configured upstream, remapping transaction IDs. It is transport-free:
//! the CPE device feeds it the views of client queries and parsed upstream
//! responses, and ships the actions it returns.

use crate::server::{apply_chaos_policy, LocalReply};
use crate::software::SoftwareProfile;
use dns_wire::debug_queries;
use dns_wire::{Message, MessageView, Name, RClass, Rcode};
use netsim::FxHashMap;
use std::net::IpAddr;

/// What the forwarder wants done with a client query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FwdAction<'p> {
    /// Answer the client directly with this reply, written from the
    /// query's view.
    Respond(LocalReply<'p>),
    /// Send this (ID-remapped) query to the upstream resolver. The only
    /// case that materializes the query: it is held until the answer
    /// comes back.
    Forward(Message),
    /// Say nothing.
    Drop,
}

/// A pending forwarded query, carrying caller-defined metadata `M` (the CPE
/// device stores the NAT-translated request packet there).
#[derive(Debug, Clone)]
pub struct PendingQuery<M> {
    /// The client's original transaction ID, restored on the way back.
    pub orig_txid: u16,
    /// Caller metadata.
    pub meta: M,
}

/// The forwarder state machine.
#[derive(Debug)]
pub struct ForwarderCore<M> {
    /// Software identity (drives version.bind answers).
    pub profile: SoftwareProfile,
    /// Upstream resolver address.
    pub upstream: IpAddr,
    /// Names answered locally with NXDOMAIN (Pi-hole style blocklist).
    pub blocklist: Vec<Name>,
    pending: FxHashMap<u16, PendingQuery<M>>,
    next_txid: u16,
    /// Queries forwarded upstream.
    pub forwarded: u64,
    /// Queries answered locally (CHAOS + blocklist).
    pub answered_locally: u64,
}

impl<M> ForwarderCore<M> {
    /// Creates a forwarder with the given identity and upstream.
    pub fn new(profile: SoftwareProfile, upstream: IpAddr) -> ForwarderCore<M> {
        ForwarderCore {
            profile,
            upstream,
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

    /// Processes a client query; `meta` is returned when the upstream
    /// response arrives.
    pub fn handle_query(&mut self, query: &MessageView<'_>, meta: M) -> FwdAction<'_> {
        if query.header().qr {
            return FwdAction::Drop;
        }
        let Some(q) = query.question() else { return FwdAction::Drop };

        // CHAOS server-identification handled locally — the step-2 hook.
        if let Some(kind) = debug_queries::server_id_kind_view(&q) {
            self.answered_locally += 1;
            let reply = apply_chaos_policy(self.profile.policy(kind));
            return reply.map_or(FwdAction::Drop, FwdAction::Respond);
        }
        if q.qclass != RClass::In {
            self.answered_locally += 1;
            return FwdAction::Respond(LocalReply::Status(Rcode::NotImp));
        }
        if self.blocklist.iter().any(|b| q.qname.is_subdomain_of(b)) {
            self.answered_locally += 1;
            return FwdAction::Respond(LocalReply::Status(Rcode::NxDomain));
        }

        // Relay with a fresh transaction ID.
        let orig_txid = query.header().id;
        let txid = self.allocate_txid();
        self.pending.insert(txid, PendingQuery { orig_txid, meta });
        let mut relayed = query.to_message();
        relayed.header.id = txid;
        self.forwarded += 1;
        FwdAction::Forward(relayed)
    }

    /// Processes an upstream response; returns the stored metadata and the
    /// response with the client's transaction ID restored. `None` for
    /// unexpected responses (late, duplicated, or spoofed).
    pub fn handle_upstream_response(&mut self, mut response: Message) -> Option<(M, Message)> {
        if !response.header.qr {
            return None;
        }
        let pending = self.pending.remove(&response.header.id)?;
        response.header.id = pending.orig_txid;
        Some((pending.meta, response))
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
    use dns_wire::{Question, RData, RType, Record};

    fn fwd() -> ForwarderCore<u32> {
        ForwarderCore::new(SoftwareProfile::dnsmasq("2.85"), "75.75.75.75".parse().unwrap())
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
        let action = f.handle_query(&view(&query), 0);
        assert_eq!(action, FwdAction::Respond(LocalReply::Text("dnsmasq-2.85")));
        assert_eq!(f.answered_locally, 1);
        assert_eq!(f.forwarded, 0);
    }

    #[test]
    fn in_queries_forwarded_with_remapped_txid() {
        let mut f = fwd();
        let query = a_query(7, "example.com");
        let relayed = match f.handle_query(&view(&query), 99) {
            FwdAction::Forward(m) => m,
            other => panic!("unexpected {other:?}"),
        };
        assert_ne!(relayed.header.id, 7);
        assert_eq!(relayed.questions, Message::parse(&query).unwrap().questions);
        assert_eq!(f.pending_len(), 1);

        // Upstream answers with the relayed ID; forwarder restores 7 and
        // hands back the metadata.
        let resp = Message::response_to(&relayed, Rcode::NoError).with_answer(Record::new(
            "example.com".parse().unwrap(),
            60,
            RData::A("1.2.3.4".parse().unwrap()),
        ));
        let (meta, restored) = f.handle_upstream_response(resp).unwrap();
        assert_eq!(meta, 99);
        assert_eq!(restored.header.id, 7);
        assert_eq!(f.pending_len(), 0);
    }

    #[test]
    fn unexpected_upstream_response_rejected() {
        let mut f = fwd();
        let query = Message::parse(&a_query(1, "example.com")).unwrap();
        let fake = Message::response_to(&query, Rcode::NoError);
        assert!(f.handle_upstream_response(fake).is_none());
        // Non-response messages are also rejected.
        let query = a_query(2, "example.com");
        let relayed = match f.handle_query(&view(&query), 0) {
            FwdAction::Forward(m) => m,
            other => panic!("unexpected {other:?}"),
        };
        let mut not_a_response = relayed;
        not_a_response.header.qr = false;
        assert!(f.handle_upstream_response(not_a_response).is_none());
        assert_eq!(f.pending_len(), 1);
    }

    #[test]
    fn blocklist_answers_nxdomain() {
        let mut f = fwd();
        f.blocklist.push("doubleclick.net".parse().unwrap());
        let blocked = a_query(3, "ads.DoubleClick.net");
        assert_eq!(
            f.handle_query(&view(&blocked), 0),
            FwdAction::Respond(LocalReply::Status(Rcode::NxDomain))
        );
        // Non-blocked names still forward.
        let query = a_query(4, "example.com");
        assert!(matches!(f.handle_query(&view(&query), 0), FwdAction::Forward(_)));
    }

    #[test]
    fn silent_chaos_profile_drops() {
        let mut f: ForwarderCore<()> = ForwarderCore::new(
            SoftwareProfile::chaos_silent("mute"),
            "75.75.75.75".parse().unwrap(),
        );
        let query = wire(&debug_queries::version_bind_query(1));
        assert_eq!(f.handle_query(&view(&query), ()), FwdAction::Drop);
    }

    #[test]
    fn hesiod_class_notimp() {
        let mut f = fwd();
        let q = Message::query(
            5,
            Question {
                qname: "x.y".parse().unwrap(),
                qtype: RType::A,
                qclass: RClass::Hesiod,
            },
        );
        let query = wire(&q);
        assert_eq!(
            f.handle_query(&view(&query), 0),
            FwdAction::Respond(LocalReply::Status(Rcode::NotImp))
        );
    }

    #[test]
    fn txid_allocation_avoids_collisions() {
        let mut f = fwd();
        let mut ids = std::collections::HashSet::new();
        for i in 0..100 {
            let query = a_query(i, "example.com");
            match f.handle_query(&view(&query), 0) {
                FwdAction::Forward(m) => assert!(ids.insert(m.header.id)),
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(f.pending_len(), 100);
    }
}
