//! Where every simulated DNS device meets the wire: the one front door a
//! query comes in through, the one door an answer to the device's own
//! upstream query comes in through, the local-answer rule, the ID-only
//! relay copy, and the reply writers.
//!
//! These two doors are the only places the servers and the CPE parse DNS
//! bytes, so a rejected datagram has one place to be counted.

use crate::software::{ChaosPolicy, SoftwareProfile};
use bytes::Bytes;
use dns_wire::debug_queries;
use dns_wire::{
    BuildError, EncodeScratch, Header, Message, MessageView, QuestionView, RClass, Rcode,
    ResponseWriter,
};
use netsim::{Ctx, IfaceId, IpPacket};
use std::cell::RefCell;
use std::net::IpAddr;

thread_local! {
    /// The encode scratch every DNS device on this thread shares. A
    /// campaign builds fresh devices for every probe, so a scratch owned by
    /// a device would grow again from empty in each one; this one stays
    /// warm from probe to probe. Encoding clears it first, so what an
    /// earlier encode left behind never reaches the wire.
    static SCRATCH: RefCell<EncodeScratch> = RefCell::new(EncodeScratch::new());
    /// The buffer a relayed datagram is patched in on its way into the
    /// payload pool, shared and kept warm the same way.
    static RELAY: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
}

/// The front door: the query `packet` carries, if it is a UDP datagram to
/// port 53 at an address the device answers on (`serves`), and its payload
/// parses as a DNS message with QR clear. Anything else is `None`, and the
/// device stays silent.
pub fn receive_query(
    packet: &IpPacket,
    serves: impl FnOnce(IpAddr) -> bool,
) -> Option<MessageView<'_>> {
    parse_query(served_datagram(packet, serves)?)
}

/// The front door's address check on its own: the payload of `packet` if
/// it is a UDP datagram to port 53 at an address the device answers on
/// (`serves`), not yet parsed.
pub(crate) fn served_datagram(
    packet: &IpPacket,
    serves: impl FnOnce(IpAddr) -> bool,
) -> Option<&[u8]> {
    let udp = packet.udp_payload()?;
    (udp.dst_port == 53 && serves(packet.dst())).then_some(&udp.payload[..])
}

/// The front door's parse on its own: `wire` as a DNS message with QR
/// clear.
pub(crate) fn parse_query(wire: &[u8]) -> Option<MessageView<'_>> {
    MessageView::parse(wire).ok().filter(|query| !query.header().qr)
}

/// The door for an answer to one of the device's own upstream queries:
/// the payload of `packet` (already routed to the port the device asked
/// from) parsed as a DNS message with QR set. Anything else is `None`.
pub fn receive_answer(packet: &IpPacket) -> Option<MessageView<'_>> {
    let udp = packet.udp_payload()?;
    MessageView::parse(&udp.payload).ok().filter(|answer| answer.header().qr)
}

/// The local-answer rule, applied before any lookup or relay: a CHAOS
/// server-identification question is answered by `profile`'s policy, and a
/// question of any other class but IN gets NOTIMP. Returns:
///
/// * `None` — an IN question; the caller looks it up or relays it.
/// * `Some(None)` — the profile stays silent.
/// * `Some(Some(reply))` — the reply to send.
pub fn local_answer<'p>(
    q: &QuestionView<'_>,
    profile: &'p SoftwareProfile,
) -> Option<Option<LocalReply<'p>>> {
    if let Some(kind) = debug_queries::server_id_kind_view(q) {
        return Some(match profile.policy(kind) {
            ChaosPolicy::Text(text) => Some(LocalReply::Text(text)),
            ChaosPolicy::Status(rcode) => Some(LocalReply::Status(*rcode)),
            ChaosPolicy::Silent => None,
        });
    }
    (q.qclass != RClass::In).then_some(Some(LocalReply::Status(Rcode::NotImp)))
}

/// Copies the DNS message `wire` into a slab of the simulator's payload
/// pool with its transaction ID (bytes 0–1) replaced by `id` and every
/// other byte as it arrived: a forwarder's relay. Warm, it allocates
/// nothing.
pub fn relay_payload(ctx: &mut Ctx<'_>, wire: &[u8], id: u16) -> Bytes {
    RELAY.with(|buf| {
        let mut buf = buf.borrow_mut();
        buf.clear();
        buf.extend_from_slice(wire);
        buf[..2].copy_from_slice(&id.to_be_bytes());
        ctx.alloc_payload(&buf)
    })
}

/// Builds the UDP reply packet for `request`: source/destination and ports
/// swapped, carrying `payload`.
pub fn reply_packet(request: &IpPacket, payload: Bytes) -> Option<IpPacket> {
    let udp = request.udp_payload()?;
    IpPacket::udp(request.dst(), request.src(), udp.dst_port, udp.src_port, payload)
}

/// Encodes `msg` through the thread's shared scratch into a slab of the
/// simulator's payload pool, so the steady state allocates nothing per
/// message. Returns `None` if encoding fails. For the messages the
/// iterative resolver builds across events; a synchronous answer goes
/// through [`reply_payload`] instead.
pub(crate) fn encode_payload(ctx: &mut Ctx<'_>, msg: &Message) -> Option<Bytes> {
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

#[cfg(test)]
mod tests {
    use super::*;
    use dns_wire::{Question, RType};

    fn packet(dst: &str, dst_port: u16, payload: Vec<u8>) -> IpPacket {
        IpPacket::udp_v4(
            "192.168.1.100".parse().unwrap(),
            dst.parse().unwrap(),
            4000,
            dst_port,
            Bytes::from(payload),
        )
    }

    #[test]
    fn reply_packet_swaps_endpoints() {
        let req = packet("75.75.75.75", 53, b"q".to_vec());
        let reply = reply_packet(&req, Bytes::from_static(b"r")).unwrap();
        assert_eq!(reply.src(), req.dst());
        assert_eq!(reply.dst(), req.src());
        let udp = reply.udp_payload().unwrap();
        assert_eq!(udp.src_port, 53);
        assert_eq!(udp.dst_port, 4000);
    }

    #[test]
    fn the_front_door_admits_only_queries_to_a_served_address_on_port_53() {
        let query = Message::query(7, Question::new("example.com".parse().unwrap(), RType::A));
        let wire = query.encode().unwrap();
        let served: IpAddr = "75.75.75.75".parse().unwrap();
        let serves = |dst| dst == served;
        let admitted = packet("75.75.75.75", 53, wire.clone());
        assert_eq!(receive_query(&admitted, serves).unwrap().header().id, 7);
        assert!(receive_query(&packet("75.75.75.76", 53, wire.clone()), serves).is_none());
        assert!(receive_query(&packet("75.75.75.75", 5353, wire.clone()), serves).is_none());
        assert!(receive_query(&packet("75.75.75.75", 53, wire[..5].to_vec()), serves).is_none());
        let answer = Message::response_to(&query, Rcode::NoError).encode().unwrap();
        assert!(receive_query(&packet("75.75.75.75", 53, answer.clone()), serves).is_none());
        // The answer door is its mirror: QR set, and a query is turned away.
        assert_eq!(receive_answer(&packet("75.75.75.75", 53, answer)).unwrap().header().id, 7);
        assert!(receive_answer(&admitted).is_none());
    }

    /// [`local_answer`] on `query`'s first question as a server sees it,
    /// in the query's wire form.
    fn local<'p>(query: &Message, profile: &'p SoftwareProfile) -> Option<Option<LocalReply<'p>>> {
        let wire = query.encode().unwrap();
        let view = MessageView::parse(&wire).unwrap();
        local_answer(&view.question().unwrap(), profile)
    }

    #[test]
    fn server_id_version_vs_identity() {
        let profile = SoftwareProfile::dnsmasq("2.85");
        let vb = dns_wire::debug_queries::version_bind_query(1);
        assert_eq!(local(&vb, &profile), Some(Some(LocalReply::Text("dnsmasq-2.85"))));

        let unbound = SoftwareProfile::unbound("1.9.0");
        let id = dns_wire::debug_queries::id_server_query(2);
        assert_eq!(local(&id, &unbound), Some(Some(LocalReply::Status(Rcode::Refused))));
    }

    #[test]
    fn non_chaos_query_passes_through() {
        let profile = SoftwareProfile::dnsmasq("2.85");
        let q = Message::query(1, Question::new("example.com".parse().unwrap(), RType::A));
        assert!(local(&q, &profile).is_none());
    }

    #[test]
    fn other_classes_and_chaos_names_get_notimp() {
        let profile = SoftwareProfile::dnsmasq("2.85");
        for qclass in [RClass::Chaos, RClass::Hesiod] {
            let other = Message::query(
                2,
                Question { qname: "foo.bar".parse().unwrap(), qtype: RType::Txt, qclass },
            );
            assert_eq!(local(&other, &profile), Some(Some(LocalReply::Status(Rcode::NotImp))));
        }
    }

    #[test]
    fn silent_profile_produces_no_response() {
        let profile = SoftwareProfile::chaos_silent();
        let vb = dns_wire::debug_queries::version_bind_query(1);
        assert_eq!(local(&vb, &profile), Some(None));
    }
}
