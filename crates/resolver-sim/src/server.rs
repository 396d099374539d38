//! Shared building blocks for DNS server devices: reply-packet construction,
//! the reply writer's entry point, and CHAOS server-identification
//! handling.

use crate::software::{ChaosPolicy, SoftwareProfile};
use bytes::Bytes;
use dns_wire::debug_queries;
use dns_wire::{
    BuildError, EncodeScratch, Header, Message, MessageView, QuestionView, RClass, Rcode,
    ResponseWriter,
};
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
/// message. Returns `None` if encoding fails. For messages a device holds
/// across events (relayed queries, upstream answers); a synchronous answer
/// goes through [`reply_payload`] instead.
pub fn encode_payload(ctx: &mut Ctx<'_>, msg: &Message) -> Option<Bytes> {
    SCRATCH.with(|scratch| {
        let mut scratch = scratch.borrow_mut();
        let wire = msg.encode_into(&mut scratch).ok()?;
        Some(ctx.alloc_payload(wire))
    })
}

/// Writes a response to `query` straight from its view, through the
/// thread's shared scratch into a slab of the payload pool: `header`, the
/// question section as asked, then the borrowed records `records` adds.
/// Neither the query nor the reply becomes an owned message. Returns
/// `None` if encoding fails.
pub fn reply_payload(
    ctx: &mut Ctx<'_>,
    query: &MessageView<'_>,
    header: &Header,
    records: impl FnOnce(&mut ResponseWriter<'_>) -> Result<(), BuildError>,
) -> Option<Bytes> {
    SCRATCH.with(|scratch| {
        let mut scratch = scratch.borrow_mut();
        let mut writer = scratch.response(query, header);
        records(&mut writer).ok()?;
        Some(ctx.alloc_payload(writer.finish().ok()?))
    })
}

/// Sends `payload` out `iface` as the reply to `request`. Non-UDP requests
/// are silently dropped.
pub fn send_reply(ctx: &mut Ctx<'_>, iface: IfaceId, request: &IpPacket, payload: Bytes) {
    if let Some(reply) = reply_packet(request, payload) {
        ctx.send(iface, reply);
    }
}

/// A reply a server makes from its own configuration, with no lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LocalReply<'a> {
    /// A bare status code.
    Status(Rcode),
    /// NOERROR with this TXT string as a CHAOS answer for the question.
    Text(&'a str),
}

/// Writes `reply` as the response to `query` with [`reply_payload`]: the
/// header [`Header::response_to`] gives, and for
/// [`LocalReply::Text`] a CHAOS TXT record (TTL 0) owned by the question's
/// name.
pub fn local_reply_payload(
    ctx: &mut Ctx<'_>,
    query: &MessageView<'_>,
    reply: LocalReply<'_>,
) -> Option<Bytes> {
    let rcode = match reply {
        LocalReply::Status(rcode) => rcode,
        LocalReply::Text(_) => Rcode::NoError,
    };
    reply_payload(ctx, query, &Header::response_to(query.header(), rcode), |w| match reply {
        LocalReply::Status(_) => Ok(()),
        LocalReply::Text(text) => w.answer_question_txt(RClass::Chaos, 0, text.as_bytes()),
    })
}

/// Writes `reply` to `query` with [`local_reply_payload`] and sends it out
/// `iface` as the reply to `request`; `None` stays silent.
pub fn send_local_reply(
    ctx: &mut Ctx<'_>,
    iface: IfaceId,
    request: &IpPacket,
    query: &MessageView<'_>,
    reply: Option<LocalReply<'_>>,
) {
    if let Some(payload) = reply.and_then(|reply| local_reply_payload(ctx, query, reply)) {
        send_reply(ctx, iface, request, payload);
    }
}

/// The reply one CHAOS policy gives (`None` = stay silent).
pub fn apply_chaos_policy(policy: &ChaosPolicy) -> Option<LocalReply<'_>> {
    match policy {
        ChaosPolicy::Text(text) => Some(LocalReply::Text(text)),
        ChaosPolicy::Status(rcode) => Some(LocalReply::Status(*rcode)),
        ChaosPolicy::Silent => None,
    }
}

/// If `q` is a CHAOS server-identification question, answers it according
/// to `profile`. Returns:
///
/// * `None` — not a CHAOS server-id query; caller handles it.
/// * `Some(None)` — it was, and the profile stays silent.
/// * `Some(Some(reply))` — it was, here is the reply.
pub fn handle_server_id<'p>(
    q: &QuestionView<'_>,
    profile: &'p SoftwareProfile,
) -> Option<Option<LocalReply<'p>>> {
    let kind = debug_queries::server_id_kind_view(q)?;
    Some(apply_chaos_policy(profile.policy(kind)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dns_wire::{Question, RType};

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

    /// [`handle_server_id`] on `query`'s first question as a server sees
    /// it, in the query's wire form.
    fn server_id_reply<'p>(
        query: &Message,
        profile: &'p SoftwareProfile,
    ) -> Option<Option<LocalReply<'p>>> {
        let wire = query.encode().unwrap();
        let view = MessageView::parse(&wire).unwrap();
        handle_server_id(&view.question().unwrap(), profile)
    }

    #[test]
    fn server_id_version_vs_identity() {
        let profile = SoftwareProfile::dnsmasq("2.85");
        let vb = dns_wire::debug_queries::version_bind_query(1);
        assert_eq!(server_id_reply(&vb, &profile), Some(Some(LocalReply::Text("dnsmasq-2.85"))));

        let unbound = SoftwareProfile::unbound("1.9.0");
        let id = dns_wire::debug_queries::id_server_query(2);
        assert_eq!(server_id_reply(&id, &unbound), Some(Some(LocalReply::Status(Rcode::Refused))));
    }

    #[test]
    fn non_chaos_query_passes_through() {
        let profile = SoftwareProfile::dnsmasq("2.85");
        let q = Message::query(1, Question::new("example.com".parse().unwrap(), RType::A));
        assert!(server_id_reply(&q, &profile).is_none());
        // CHAOS class but a non-server-id name also passes through.
        let weird = Message::query(
            2,
            Question { qname: "foo.bar".parse().unwrap(), qtype: RType::Txt, qclass: RClass::Chaos },
        );
        assert!(server_id_reply(&weird, &profile).is_none());
    }

    #[test]
    fn silent_profile_produces_no_response() {
        let profile = SoftwareProfile::chaos_silent("mute");
        let vb = dns_wire::debug_queries::version_bind_query(1);
        assert_eq!(server_id_reply(&vb, &profile), Some(None));
    }
}
