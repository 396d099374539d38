//! Flow reconstruction: from raw capture events to per-query hop
//! timelines.
//!
//! The flight recorder in `netsim` emits one [`CaptureEvent`] per packet
//! hop; this module groups those events by DNS transaction ID and question
//! into [`QueryFlow`]s, so a probe report's verdict can be expanded down
//! to packet truth — "this response was minted by the CPE's DNAT at hop 2
//! and never reached 8.8.8.8". ICMP errors are attached to the query whose
//! flow tuple they quote, surviving NAT rewrites because every observed
//! tuple variant of a query is indexed.
//!
//! Hops stay typed: addresses are `IpAddr`s, verbs are static labels and
//! details a small [`HopDetail`] enum. Text is made only where a timeline
//! leaves the program — [`render_flows`] and the JSON [`Serialize`] impls
//! — so timelines can be golden-tested byte for byte and exported as
//! pcap-style JSON without every reconstruction paying for the strings.

use dns_wire::{MessageView, Question};
use netsim::{
    CaptureEvent, CaptureKind, FlowSummary, FxHashMap, IcmpMessage, SimDuration, Simulator,
    Transport,
};
use serde::{Serialize, Value};
use std::fmt::{self, Write as _};
use std::net::IpAddr;
use std::sync::Arc;

/// Which way a packet was heading, judged by the DNS QR bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum FlowDirection {
    /// A query on its way toward a server.
    Query,
    /// A response on its way back to the client.
    Response,
    /// An ICMP error quoting the query's flow tuple.
    Icmp,
}

/// An endpoint as timelines print it: `{ip}:{port}`. Unlike
/// `SocketAddr`'s `Display`, IPv6 addresses are not bracketed.
#[derive(PartialEq)]
struct Endpoint(IpAddr, u16);

impl Endpoint {
    fn src(t: &FlowSummary) -> Endpoint {
        Endpoint(t.src, t.src_port)
    }

    fn dst(t: &FlowSummary) -> Endpoint {
        Endpoint(t.dst, t.dst_port)
    }
}

impl fmt::Display for Endpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.0, self.1)
    }
}

/// Extra context of one hop, formatted only on output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HopDetail {
    /// A NAT rewrite's flow tuples; renders the sides that changed, and
    /// nothing when neither did.
    Nat {
        /// The tuple before the rewrite.
        before: FlowSummary,
        /// The tuple after it.
        after: FlowSummary,
    },
    /// Late delivery held the packet this long beyond latency and jitter.
    Delayed(SimDuration),
    /// A route decision chose this egress interface.
    OutIface(usize),
    /// The hop carried an ICMP time-exceeded error.
    IcmpTimeExceeded,
    /// The hop carried an ICMP destination-unreachable error with this code.
    IcmpUnreachable(u8),
}

impl fmt::Display for HopDetail {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            HopDetail::Nat { before, after } => {
                let (src, dst) = (Endpoint::src, Endpoint::dst);
                let mut sep = "";
                if src(&before) != src(&after) {
                    write!(f, "src {} -> {}", src(&before), src(&after))?;
                    sep = ", ";
                }
                if dst(&before) != dst(&after) {
                    write!(f, "{sep}dst {} -> {}", dst(&before), dst(&after))?;
                }
                Ok(())
            }
            HopDetail::Delayed(extra) => write!(f, "+{extra}"),
            HopDetail::OutIface(iface) => write!(f, "out iface {iface}"),
            HopDetail::IcmpTimeExceeded => f.write_str("icmp time-exceeded"),
            HopDetail::IcmpUnreachable(code) => write!(f, "icmp unreachable(code {code})"),
        }
    }
}

/// One hop of one query's flight.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlowHop {
    /// Simulated time in microseconds.
    pub at_us: u64,
    /// Device name at which the hop happened, shared by every hop there.
    pub node: Arc<str>,
    /// Interface index, when the hop concerns one.
    pub iface: Option<usize>,
    /// What happened: one of [`CaptureKind::verb`]'s labels — `egress`,
    /// `ingress`, `forward`, `nat(dnat)`, `drop(bogon-destination)`,
    /// `mint`, ...
    pub action: &'static str,
    /// Query or response direction (QR bit), or `icmp`.
    pub direction: FlowDirection,
    /// Addresses and ports as seen at this hop.
    pub tuple: FlowSummary,
    /// Extra context (NAT before/after tuples, delay magnitude, egress
    /// interface of a route decision, ICMP kind). `None` when the action
    /// speaks for itself.
    pub detail: Option<HopDetail>,
}

/// Serializes with the keys, order and text of the flow JSON export:
/// endpoints as `{ip}:{port}` strings, the detail as its display text.
impl Serialize for FlowHop {
    fn to_value(&self) -> Value {
        let text = |endpoint: Endpoint| Value::String(endpoint.to_string());
        Value::Object(vec![
            ("at_us".into(), self.at_us.to_value()),
            ("node".into(), self.node.to_value()),
            ("iface".into(), self.iface.to_value()),
            ("action".into(), self.action.to_value()),
            ("direction".into(), self.direction.to_value()),
            ("src".into(), text(Endpoint::src(&self.tuple))),
            ("dst".into(), text(Endpoint::dst(&self.tuple))),
            ("detail".into(), self.detail.map(|d| d.to_string()).to_value()),
        ])
    }
}

/// The reconstructed per-hop timeline of one DNS transaction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryFlow {
    /// DNS transaction ID.
    pub txid: u16,
    /// The question of the first hop whose payload parses; `None` when
    /// no hop's did.
    pub question: Option<Question>,
    /// Hops in chronological order.
    pub hops: Vec<FlowHop>,
}

impl QueryFlow {
    /// The question's name and type as the outputs print them (e.g.
    /// `example.com.` and `A`), or two empty strings without a question.
    fn question_text(&self) -> (String, String) {
        match &self.question {
            Some(q) => (q.qname.to_string(), format!("{:?}", q.qtype)),
            None => (String::new(), String::new()),
        }
    }
}

/// Serializes as `{txid, qname, qtype, hops}`, the flow JSON export.
impl Serialize for QueryFlow {
    fn to_value(&self) -> Value {
        let (qname, qtype) = self.question_text();
        Value::Object(vec![
            ("txid".into(), self.txid.to_value()),
            ("qname".into(), Value::String(qname)),
            ("qtype".into(), Value::String(qtype)),
            ("hops".into(), self.hops.to_value()),
        ])
    }
}

fn hop_detail(kind: &CaptureKind) -> Option<HopDetail> {
    match *kind {
        CaptureKind::NatRewrite { before, after, .. } => Some(HopDetail::Nat { before, after }),
        CaptureKind::Delayed { extra, .. } => Some(HopDetail::Delayed(extra)),
        CaptureKind::RouteForward { out, .. } => Some(HopDetail::OutIface(out.0)),
        _ => None,
    }
}

/// Groups capture events into per-query hop timelines, in one pass.
///
/// Events must come from `sim`'s own recorder (names are resolved against
/// it) and be in emission order, which the simulator guarantees is
/// chronological. Flows appear in order of their first observed hop.
pub fn reconstruct_flows(sim: &Simulator, events: &[CaptureEvent]) -> Vec<QueryFlow> {
    let mut flows: Vec<QueryFlow> = Vec::new();
    let mut by_txid: FxHashMap<u16, usize> = FxHashMap::default();
    // Every tuple a query was seen under — pre- and post-NAT — so ICMP
    // errors quoting a rewritten tuple still attach to the right flow.
    let mut by_tuple: FxHashMap<FlowSummary, usize> = FxHashMap::default();
    // Each node's name, resolved once and shared by all of its hops.
    let mut names: Vec<Option<Arc<str>>> = Vec::new();

    for ev in events {
        let packet = ev.kind.packet();
        let (idx, direction, detail) = match &packet.transport {
            Transport::Udp(udp) if udp.payload.len() >= 12 => {
                let txid = u16::from_be_bytes([udp.payload[0], udp.payload[1]]);
                let idx = *by_txid.entry(txid).or_insert_with(|| {
                    flows.push(QueryFlow { txid, question: None, hops: Vec::new() });
                    flows.len() - 1
                });
                let flow = &mut flows[idx];
                if flow.question.is_none() {
                    flow.question = MessageView::parse(&udp.payload)
                        .ok()
                        .and_then(|view| view.question())
                        .map(|q| q.to_question());
                }
                let direction = if udp.payload[2] & 0x80 != 0 {
                    FlowDirection::Response
                } else {
                    by_tuple.insert(packet.flow_summary(), idx);
                    FlowDirection::Query
                };
                (idx, direction, hop_detail(&ev.kind))
            }
            Transport::Icmp(IcmpMessage::TimeExceeded { original }) => {
                let Some(&idx) = by_tuple.get(original) else { continue };
                (idx, FlowDirection::Icmp, Some(HopDetail::IcmpTimeExceeded))
            }
            Transport::Icmp(IcmpMessage::DestUnreachable { code, original }) => {
                let Some(&idx) = by_tuple.get(original) else { continue };
                (idx, FlowDirection::Icmp, Some(HopDetail::IcmpUnreachable(*code)))
            }
            _ => continue,
        };
        if names.len() <= ev.node.0 {
            names.resize(ev.node.0 + 1, None);
        }
        let node = names[ev.node.0]
            .get_or_insert_with(|| Arc::from(sim.node_name(ev.node).unwrap_or("?")))
            .clone();
        flows[idx].hops.push(FlowHop {
            at_us: ev.at.as_micros(),
            node,
            iface: ev.iface.map(|i| i.0),
            action: ev.kind.verb(),
            direction,
            tuple: packet.flow_summary(),
            detail,
        });
    }
    flows
}

/// The query's round trip as observed at its origin: microseconds from
/// the first hop (the probe's egress) to the first response-direction
/// ingress back at the same node. `None` when the query was never
/// answered at the origin — a timeout, a drop, or an answer that only
/// reached an intermediate device.
///
/// This is pure virtual-clock arithmetic over the flight recorder's hop
/// timeline, so per-class RTT distributions built from it are bitwise
/// reproducible — the paper's "local answers come back fast" signature
/// measured against ground truth.
pub fn flow_rtt_us(flow: &QueryFlow) -> Option<u64> {
    let first = flow.hops.first()?;
    let back = flow.hops.iter().find(|h| {
        h.direction == FlowDirection::Response && h.node == first.node && h.action == "ingress"
    })?;
    Some(back.at_us.saturating_sub(first.at_us))
}

/// Renders flows as a human-readable hop timeline (the `--capture` view).
pub fn render_flows(flows: &[QueryFlow]) -> String {
    let mut out = String::new();
    for flow in flows {
        let (qname, qtype) = flow.question_text();
        let _ = writeln!(
            out,
            "txid 0x{:04x}  {qname} {qtype}  ({} hops)",
            flow.txid,
            flow.hops.len()
        );
        for hop in &flow.hops {
            let iface = hop.iface.map(|i| format!("if{i}")).unwrap_or_else(|| "-".into());
            let us = hop.at_us;
            let _ = write!(
                out,
                "  {:>7}.{:03}ms  {:<14} {:<22} {:>3}  {} -> {}",
                us / 1_000,
                us % 1_000,
                hop.node,
                hop.action,
                iface,
                Endpoint::src(&hop.tuple),
                Endpoint::dst(&hop.tuple)
            );
            if let Some(detail) = &hop.detail {
                let _ = write!(out, "  [{detail}]");
            }
            out.push('\n');
        }
        out.push('\n');
    }
    out
}

/// Serializes flows as pretty-printed JSON (the pcap-style export).
pub fn flows_to_json(flows: &[QueryFlow]) -> String {
    let mut json = serde_json::to_string_pretty(flows).expect("flows serialize");
    json.push('\n');
    json
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::HomeScenario;
    use crate::transport::SimTransport;
    use dns_wire::{Question, RType};
    use locator::{QueryOptions, QueryTransport};

    #[test]
    fn clean_query_flow_reaches_the_resolver_and_comes_back() {
        let mut t = SimTransport::new(HomeScenario::clean().build());
        t.enable_capture();
        let q = Question::new("example.com".parse().unwrap(), RType::A);
        let out = t.query("8.8.8.8".parse().unwrap(), &q, 0x2a2a, QueryOptions::default());
        assert!(out.response().is_some());
        let flows = t.take_flows();
        assert_eq!(flows.len(), 1);
        let flow = &flows[0];
        assert_eq!(flow.txid, 0x2a2a);
        assert_eq!(flow.question, Some(q));
        // The query leaves the probe, the response comes back to it.
        assert_eq!(&*flow.hops.first().unwrap().node, "probe");
        assert_eq!(flow.hops.first().unwrap().action, "egress");
        assert_eq!(flow.hops.first().unwrap().direction, FlowDirection::Query);
        let last = flow.hops.last().unwrap();
        assert_eq!(&*last.node, "probe");
        assert_eq!(last.action, "ingress");
        assert_eq!(last.direction, FlowDirection::Response);
        // The flow visited a resolver beyond the home (masquerade on the
        // CPE rewrote the source on the way out).
        assert!(flow.hops.iter().any(|h| h.action.starts_with("nat(")), "{flow:?}");
    }

    #[test]
    fn intercepted_flow_shows_the_mint_and_no_upstream_hop() {
        // XB6 case study: the query to 8.8.8.8 is DNAT-captured at the CPE
        // and the answer is minted locally — the timeline must prove both.
        let mut t = SimTransport::new(HomeScenario::xb6_case_study().build());
        t.enable_capture();
        let q = Question::new("example.com".parse().unwrap(), RType::A);
        let out = t.query("8.8.8.8".parse().unwrap(), &q, 0x1b1b, QueryOptions::default());
        assert!(out.response().is_some());
        let flows = t.take_flows();
        let flow = flows.iter().find(|f| f.txid == 0x1b1b).expect("probe's query flow");
        assert!(
            flow.hops.iter().any(|h| h.action == "nat(dnat)"),
            "DNAT rewrite hop missing: {flow:?}"
        );
        let google: IpAddr = "8.8.8.8".parse().unwrap();
        let mint = flow.hops.iter().find(|h| h.action == "mint").expect("locally minted answer");
        assert_eq!(mint.tuple.src, google, "mint spoofs the queried server: {mint:?}");
        // The query never escaped the home toward the real resolver: no
        // hop carries the original destination beyond the CPE.
        assert!(
            !flow.hops.iter().any(|h| h.node.contains("isp") && h.tuple.dst == google),
            "query leaked upstream: {flow:?}"
        );
    }

    #[test]
    fn flow_rtt_spans_egress_to_response_ingress() {
        // Clean path: the round trip crosses the home and the ISP twice,
        // so the RTT is positive but far below the 5s timeout window.
        let mut t = SimTransport::new(HomeScenario::clean().build());
        t.enable_capture();
        let q = Question::new("example.com".parse().unwrap(), RType::A);
        assert!(t
            .query("8.8.8.8".parse().unwrap(), &q, 0x3c3c, QueryOptions::default())
            .response()
            .is_some());
        let flows = t.take_flows();
        let clean_rtt = flow_rtt_us(&flows[0]).expect("answered query has an RTT");
        assert!(clean_rtt > 0 && clean_rtt < 5_000_000, "clean RTT {clean_rtt}µs");

        // Intercepted path: the CPE mints the answer locally, so the round
        // trip is strictly faster than the real resolver's.
        let mut t = SimTransport::new(HomeScenario::xb6_case_study().build());
        t.enable_capture();
        assert!(t
            .query("8.8.8.8".parse().unwrap(), &q, 0x3d3d, QueryOptions::default())
            .response()
            .is_some());
        let flows = t.take_flows();
        let flow = flows.iter().find(|f| f.txid == 0x3d3d).expect("probe flow");
        let local_rtt = flow_rtt_us(flow).expect("minted answer has an RTT");
        assert!(local_rtt < clean_rtt, "local {local_rtt}µs !< clean {clean_rtt}µs");

        // A query that dies at the border never comes back: no RTT.
        let mut t = SimTransport::new(HomeScenario::clean().build());
        t.enable_capture();
        let bq = Question::new("probe.dns-hijack-study.example".parse().unwrap(), RType::A);
        assert!(t
            .query("198.51.100.53".parse().unwrap(), &bq, 0x3e3e, QueryOptions::default())
            .is_timeout());
        let flows = t.take_flows();
        assert_eq!(flow_rtt_us(&flows[0]), None);
    }

    /// Every hop label and detail that no golden timeline shows, pinned
    /// through both outputs. The events are hand-built, so each verdict
    /// appears exactly once; only the simulator's node names are read.
    #[test]
    fn every_hop_label_and_detail_renders_as_pinned() {
        use bytes::Bytes;
        use netsim::{
            CaptureEvent, CaptureKind, DropReason, FaultCause, FlowSummary, Host, IcmpMessage,
            IfaceId, IpPacket, LinkId, NatPhase, SimDuration, SimTime, Simulator,
        };

        let mut sim = Simulator::new(1);
        let client = sim.add_device(Host::boxed("client", Vec::new()));
        let nat = sim.add_device(Host::boxed("nat", Vec::new()));
        let mut encoder = dns_wire::QueryEncoder::new();
        let a_query = Question::new("example.com".parse().unwrap(), RType::A);
        let query = Bytes::copy_from_slice(encoder.encode_query(0x1234, &a_query).unwrap());
        let mut answer = query.to_vec();
        answer[2] |= 0x80;
        let answer = Bytes::from(answer);
        let chaos = Question::chaos_txt("id.server".parse().unwrap());
        let v6_query = Bytes::copy_from_slice(encoder.encode_query(0x5678, &chaos).unwrap());

        let tuple = |src: &str, sport, dst: &str, dport| FlowSummary {
            src: src.parse().unwrap(),
            dst: dst.parse().unwrap(),
            src_port: sport,
            dst_port: dport,
        };
        let udp = |t: FlowSummary, payload: &Bytes| {
            IpPacket::udp(t.src, t.dst, t.src_port, t.dst_port, payload.clone()).unwrap()
        };
        let inside = tuple("10.0.0.2", 5353, "8.8.8.8", 53);
        let outside = tuple("73.22.1.5", 40001, "10.9.9.9", 53);
        let reply = tuple("10.9.9.9", 53, "73.22.1.5", 40001);
        let sent = udp(inside, &query);
        let rewritten = udp(outside, &query);
        let icmp = |msg| IpPacket::icmp("10.0.0.1".parse().unwrap(), outside.src, msg).unwrap();
        let v6 = udp(tuple("2601:0:0:1::100", 40002, "2001:4860:4860::8888", 53), &v6_query);

        let hop = |us: u64, node, iface: Option<usize>, kind| CaptureEvent {
            at: SimTime::from_nanos(us * 1_000),
            node,
            iface: iface.map(IfaceId),
            kind,
        };
        let mut events = vec![
            hop(0, client, Some(0), CaptureKind::Egress { packet: sent.clone() }),
            hop(
                1_000,
                nat,
                Some(0),
                CaptureKind::NatRewrite {
                    phase: NatPhase::DnatSnat,
                    before: inside,
                    after: outside,
                    packet: rewritten.clone(),
                },
            ),
            hop(
                1_000,
                nat,
                Some(1),
                CaptureKind::Delayed {
                    link: LinkId(0),
                    extra: SimDuration::from_micros(2_500),
                    packet: rewritten.clone(),
                },
            ),
            hop(
                1_000,
                nat,
                Some(1),
                CaptureKind::Duplicated { link: LinkId(0), packet: rewritten.clone() },
            ),
        ];
        for cause in [
            FaultCause::Unattached,
            FaultCause::LinkDown,
            FaultCause::BurstLoss,
            FaultCause::UniformLoss,
        ] {
            let link = (cause != FaultCause::Unattached).then_some(LinkId(0));
            let packet = rewritten.clone();
            events.push(hop(1_000, nat, Some(1), CaptureKind::FaultDrop { link, cause, packet }));
        }
        for reason in [DropReason::TtlExpired, DropReason::NoRoute] {
            let packet = rewritten.clone();
            events.push(hop(2_000, nat, Some(1), CaptureKind::RouteDrop { reason, packet }));
        }
        events.extend([
            hop(
                3_000,
                nat,
                Some(1),
                CaptureKind::Ingress {
                    packet: icmp(IcmpMessage::TimeExceeded { original: outside }),
                },
            ),
            hop(
                3_500,
                nat,
                Some(1),
                CaptureKind::Ingress {
                    packet: icmp(IcmpMessage::DestUnreachable { code: 3, original: outside }),
                },
            ),
            // A reverse translation that found nothing to change.
            hop(
                4_000,
                nat,
                Some(1),
                CaptureKind::NatRewrite {
                    phase: NatPhase::Reverse,
                    before: reply,
                    after: reply,
                    packet: udp(reply, &answer),
                },
            ),
            hop(5_000, client, Some(0), CaptureKind::Egress { packet: v6.clone() }),
            hop(5_000, nat, Some(0), CaptureKind::RouteForward { out: IfaceId(2), packet: v6 }),
        ]);

        let flows = reconstruct_flows(&sim, &events);
        let expected = "\
txid 0x1234  example.com. A  (13 hops)
        0.000ms  client         egress                 if0  10.0.0.2:5353 -> 8.8.8.8:53
        1.000ms  nat            nat(dnat+snat)         if0  73.22.1.5:40001 -> 10.9.9.9:53  [src 10.0.0.2:5353 -> 73.22.1.5:40001, dst 8.8.8.8:53 -> 10.9.9.9:53]
        1.000ms  nat            delayed                if1  73.22.1.5:40001 -> 10.9.9.9:53  [+2.500ms]
        1.000ms  nat            duplicated             if1  73.22.1.5:40001 -> 10.9.9.9:53
        1.000ms  nat            drop(unattached)       if1  73.22.1.5:40001 -> 10.9.9.9:53
        1.000ms  nat            drop(link-down)        if1  73.22.1.5:40001 -> 10.9.9.9:53
        1.000ms  nat            drop(burst-loss)       if1  73.22.1.5:40001 -> 10.9.9.9:53
        1.000ms  nat            drop(uniform-loss)     if1  73.22.1.5:40001 -> 10.9.9.9:53
        2.000ms  nat            drop(ttl-expired)      if1  73.22.1.5:40001 -> 10.9.9.9:53
        2.000ms  nat            drop(no-route)         if1  73.22.1.5:40001 -> 10.9.9.9:53
        3.000ms  nat            ingress                if1  10.0.0.1:0 -> 73.22.1.5:0  [icmp time-exceeded]
        3.500ms  nat            ingress                if1  10.0.0.1:0 -> 73.22.1.5:0  [icmp unreachable(code 3)]
        4.000ms  nat            nat(reverse)           if1  10.9.9.9:53 -> 73.22.1.5:40001  []

txid 0x5678  id.server. Txt  (2 hops)
        5.000ms  client         egress                 if0  2601:0:0:1::100:40002 -> 2001:4860:4860::8888:53
        5.000ms  nat            forward                if0  2601:0:0:1::100:40002 -> 2001:4860:4860::8888:53  [out iface 2]

";
        assert_eq!(render_flows(&flows), expected);

        let json = flows_to_json(&flows);
        for pinned in [
            r#""action": "nat(dnat+snat)""#,
            r#""detail": "src 10.0.0.2:5353 -> 73.22.1.5:40001, dst 8.8.8.8:53 -> 10.9.9.9:53""#,
            r#""detail": "+2.500ms""#,
            r#""direction": "Icmp""#,
            r#""detail": "icmp time-exceeded""#,
            r#""detail": "icmp unreachable(code 3)""#,
            r#""detail": """#,
            r#""src": "2601:0:0:1::100:40002""#,
            r#""dst": "2001:4860:4860::8888:53""#,
        ] {
            assert!(json.contains(pinned), "{pinned} missing from {json}");
        }
    }

    #[test]
    fn flows_serialize_round_trip() {
        let mut t = SimTransport::new(HomeScenario::clean().build());
        t.enable_capture();
        let q = Question::chaos_txt("id.server".parse().unwrap());
        let _ = t.query("1.1.1.1".parse().unwrap(), &q, 0x0c0c, QueryOptions::default());
        let flows = t.take_flows();
        // Flows are not read back: the JSON export is pinned by the golden
        // suites, and here only has to name every hop once.
        let json = flows_to_json(&flows);
        assert_eq!(json.matches("\"at_us\"").count(), flows[0].hops.len());
        // And the human rendering mentions every hop.
        let rendered = render_flows(&flows);
        assert_eq!(rendered.lines().filter(|l| l.starts_with("  ")).count(), flows[0].hops.len());
    }
}
