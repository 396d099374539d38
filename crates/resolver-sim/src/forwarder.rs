//! A DNS forwarder core: the state machine inside every CPE DNS stack
//! (Dnsmasq, XDNS, Pi-hole).
//!
//! The forwarder answers CHAOS server-identification queries itself — the
//! property the paper's step 2 exploits — and relays everything else to a
//! configured upstream, remapping transaction IDs. It is transport-free:
//! the CPE device feeds it parsed messages and ships the actions it returns.

use crate::server::handle_server_id;
use crate::software::SoftwareProfile;
use dns_wire::{Message, Name, RClass, Rcode};
use netsim::FxHashMap;
use std::net::IpAddr;

/// What the forwarder wants done with a client query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FwdAction {
    /// Answer the client directly with this message.
    Respond(Message),
    /// Send this (ID-remapped) query to the upstream resolver.
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
    pub fn handle_query(&mut self, query: Message, meta: M) -> FwdAction {
        if query.header.qr {
            return FwdAction::Drop;
        }
        let Some(q) = query.question() else { return FwdAction::Drop };

        // CHAOS server-identification handled locally — the step-2 hook.
        if let Some(maybe_resp) = handle_server_id(&query, &self.profile) {
            self.answered_locally += 1;
            return match maybe_resp {
                Some(resp) => FwdAction::Respond(resp),
                None => FwdAction::Drop,
            };
        }
        if q.qclass != RClass::In {
            self.answered_locally += 1;
            return FwdAction::Respond(Message::response_to(&query, Rcode::NotImp));
        }
        if self.blocklist.iter().any(|b| q.qname.is_subdomain_of(b)) {
            self.answered_locally += 1;
            return FwdAction::Respond(Message::response_to(&query, Rcode::NxDomain));
        }

        // Relay with a fresh transaction ID.
        let orig_txid = query.header.id;
        let txid = self.allocate_txid();
        self.pending.insert(txid, PendingQuery { orig_txid, meta });
        let mut relayed = query;
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

    fn a_query(id: u16, name: &str) -> Message {
        Message::query(id, Question::new(name.parse().unwrap(), RType::A))
    }

    #[test]
    fn version_bind_answered_locally() {
        let mut f = fwd();
        let action = f.handle_query(debug_queries::version_bind_query(42), 0);
        match action {
            FwdAction::Respond(resp) => {
                assert_eq!(resp.header.id, 42);
                assert_eq!(resp.answers[0].rdata.txt_string().unwrap(), "dnsmasq-2.85");
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(f.answered_locally, 1);
        assert_eq!(f.forwarded, 0);
    }

    #[test]
    fn in_queries_forwarded_with_remapped_txid() {
        let mut f = fwd();
        let action = f.handle_query(a_query(7, "example.com"), 99);
        let relayed = match action {
            FwdAction::Forward(m) => m,
            other => panic!("unexpected {other:?}"),
        };
        assert_ne!(relayed.header.id, 7);
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
        let fake = Message::response_to(&a_query(1, "example.com"), Rcode::NoError);
        assert!(f.handle_upstream_response(fake).is_none());
        // Non-response messages are also rejected.
        let action = f.handle_query(a_query(2, "example.com"), 0);
        let relayed = match action {
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
        match f.handle_query(a_query(3, "ads.doubleclick.net"), 0) {
            FwdAction::Respond(resp) => assert_eq!(resp.header.rcode, Rcode::NxDomain),
            other => panic!("unexpected {other:?}"),
        }
        // Non-blocked names still forward.
        assert!(matches!(f.handle_query(a_query(4, "example.com"), 0), FwdAction::Forward(_)));
    }

    #[test]
    fn silent_chaos_profile_drops() {
        let mut f: ForwarderCore<()> = ForwarderCore::new(
            SoftwareProfile::chaos_silent("mute"),
            "75.75.75.75".parse().unwrap(),
        );
        assert_eq!(f.handle_query(debug_queries::version_bind_query(1), ()), FwdAction::Drop);
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
        match f.handle_query(q, 0) {
            FwdAction::Respond(resp) => assert_eq!(resp.header.rcode, Rcode::NotImp),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn txid_allocation_avoids_collisions() {
        let mut f = fwd();
        let mut ids = std::collections::HashSet::new();
        for i in 0..100 {
            match f.handle_query(a_query(i, "example.com"), 0) {
                FwdAction::Forward(m) => assert!(ids.insert(m.header.id)),
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(f.pending_len(), 100);
    }
}
