//! Shared building blocks for DNS server devices: reply-packet construction
//! and CHAOS server-identification handling.

use crate::software::{ChaosPolicy, SoftwareProfile};
use bytes::Bytes;
use dns_wire::debug_queries::{self, ServerIdKind};
use dns_wire::{EncodeScratch, Message, Rcode, Record};
use netsim::{Ctx, IfaceId, IpPacket};
use std::cell::RefCell;

thread_local! {
    /// The encode scratch every DNS device on this thread shares. A
    /// campaign builds fresh devices for every probe, so a scratch owned by
    /// a device would grow again from empty in each one; this one stays
    /// warm from probe to probe. Encoding clears it first, so what an
    /// earlier encode left behind never reaches the wire.
    static SCRATCH: RefCell<EncodeScratch> = RefCell::new(EncodeScratch::new());
}

/// Builds the UDP reply packet for `request`: source/destination and ports
/// swapped, carrying `payload`.
pub fn reply_packet(request: &IpPacket, payload: Bytes) -> Option<IpPacket> {
    let udp = request.udp_payload()?;
    IpPacket::udp(request.dst(), request.src(), udp.dst_port, udp.src_port, payload)
}

/// Encodes `msg` through the thread's shared scratch into a slab of the
/// simulator's payload pool, so the steady state allocates nothing per
/// message. Returns `None` if encoding fails.
pub fn encode_payload(ctx: &mut Ctx<'_>, msg: &Message) -> Option<Bytes> {
    SCRATCH.with(|scratch| {
        let mut scratch = scratch.borrow_mut();
        let wire = msg.encode_into(&mut scratch).ok()?;
        Some(ctx.alloc_payload(wire))
    })
}

/// Builds the reply packet for `request` carrying `resp`. Returns `None` if
/// encoding fails or the request is not UDP.
pub fn encode_reply(ctx: &mut Ctx<'_>, request: &IpPacket, resp: &Message) -> Option<IpPacket> {
    reply_packet(request, encode_payload(ctx, resp)?)
}

/// Encodes `resp` and sends it out `iface` as the reply to `request`.
/// Encoding failures and non-UDP requests are silently dropped.
pub fn send_reply(ctx: &mut Ctx<'_>, iface: IfaceId, request: &IpPacket, resp: &Message) {
    if let Some(reply) = encode_reply(ctx, request, resp) {
        ctx.send(iface, reply);
    }
}

/// Applies one CHAOS policy to a query, producing a response message
/// (`None` = stay silent).
pub fn apply_chaos_policy(query: &Message, policy: &ChaosPolicy) -> Option<Message> {
    let q = query.question()?;
    match policy {
        ChaosPolicy::Text(text) => Some(
            Message::response_to(query, Rcode::NoError)
                .with_answer(Record::chaos_txt(q.qname.clone(), text.as_bytes())),
        ),
        ChaosPolicy::Status(rcode) => Some(Message::response_to(query, *rcode)),
        ChaosPolicy::Silent => None,
    }
}

/// If `query` is a CHAOS server-identification query, answers it according
/// to `profile`. Returns:
///
/// * `None` — not a CHAOS server-id query; caller handles it.
/// * `Some(None)` — it was, and the profile stays silent.
/// * `Some(Some(msg))` — it was, here is the response.
pub fn handle_server_id(query: &Message, profile: &SoftwareProfile) -> Option<Option<Message>> {
    let q = query.question()?;
    let kind = debug_queries::server_id_kind(q)?;
    let policy = match kind {
        ServerIdKind::Version => &profile.version_bind,
        ServerIdKind::Identity => &profile.id_server,
    };
    Some(apply_chaos_policy(query, policy))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dns_wire::{Question, RClass, RType};

    #[test]
    fn reply_packet_swaps_endpoints() {
        let req = IpPacket::udp_v4(
            "192.168.1.100".parse().unwrap(),
            "75.75.75.75".parse().unwrap(),
            4000,
            53,
            Bytes::from_static(b"q"),
        );
        let reply = reply_packet(&req, Bytes::from_static(b"r")).unwrap();
        assert_eq!(reply.src(), req.dst());
        assert_eq!(reply.dst(), req.src());
        let udp = reply.udp_payload().unwrap();
        assert_eq!(udp.src_port, 53);
        assert_eq!(udp.dst_port, 4000);
    }

    #[test]
    fn server_id_version_vs_identity() {
        let profile = SoftwareProfile::dnsmasq("2.85");
        let vb = dns_wire::debug_queries::version_bind_query(1);
        let resp = handle_server_id(&vb, &profile).unwrap().unwrap();
        assert_eq!(resp.answers[0].rdata.txt_string().unwrap(), "dnsmasq-2.85");

        let unbound = SoftwareProfile::unbound("1.9.0");
        let id = dns_wire::debug_queries::id_server_query(2);
        let resp = handle_server_id(&id, &unbound).unwrap().unwrap();
        assert_eq!(resp.header.rcode, Rcode::Refused);
    }

    #[test]
    fn non_chaos_query_passes_through() {
        let profile = SoftwareProfile::dnsmasq("2.85");
        let q = Message::query(1, Question::new("example.com".parse().unwrap(), RType::A));
        assert!(handle_server_id(&q, &profile).is_none());
        // CHAOS class but a non-server-id name also passes through.
        let weird = Message::query(
            2,
            Question { qname: "foo.bar".parse().unwrap(), qtype: RType::Txt, qclass: RClass::Chaos },
        );
        assert!(handle_server_id(&weird, &profile).is_none());
    }

    #[test]
    fn silent_profile_produces_no_response() {
        let profile = SoftwareProfile::chaos_silent("mute");
        let vb = dns_wire::debug_queries::version_bind_query(1);
        assert_eq!(handle_server_id(&vb, &profile).unwrap(), None);
    }
}
