//! Flow reconstruction: from raw capture events to per-query hop
//! timelines.
//!
//! The flight recorder in `netsim` emits one [`CaptureEvent`] per packet
//! hop; this module groups those events by DNS transaction ID into
//! [`QueryFlow`]s, so a probe report's verdict can be expanded down to
//! packet truth — "this response was minted by the CPE's DNAT at hop 2
//! and never reached 8.8.8.8". An ICMP error joins the flow of the latest
//! earlier query hop carrying the tuple it quotes, so it attaches across
//! NAT rewrites: the erring router quotes the tuple it saw.
//!
//! Hops stay typed and own nothing: addresses are `IpAddr`s, verbs are
//! static labels, details a small [`HopDetail`] enum and the node an index
//! into one names table that every flow of a reconstruction shares. Text
//! is made only where a timeline leaves the program — [`render_flows`]
//! and the JSON [`Serialize`] impl — so timelines can be golden-tested
//! byte for byte and exported as pcap-style JSON without every
//! reconstruction paying for the strings.

use dns_wire::{MessageView, Question};
use netsim::{
    CaptureEvent, CaptureKind, FlowSummary, IcmpMessage, IpPacket, SimDuration, Simulator,
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
    /// A NAT rewrite. The hop's own tuple is the one after it; renders
    /// the sides that changed, and nothing when neither did.
    Nat {
        /// The tuple before the rewrite.
        before: FlowSummary,
    },
    /// Late delivery held the packet this long beyond latency and jitter.
    Delayed(SimDuration),
    /// A route decision chose this egress interface.
    OutIface(usize),
    /// The hop carried an ICMP time-exceeded error.
    IcmpTimeExceeded,
}

/// A hop's detail as the outputs print it.
struct DetailText<'a> {
    detail: HopDetail,
    /// The hop's tuple: for a NAT rewrite, the one after it.
    tuple: &'a FlowSummary,
}

impl fmt::Display for DetailText<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.detail {
            HopDetail::Nat { before } => {
                let (src, dst, after) = (Endpoint::src, Endpoint::dst, self.tuple);
                let mut sep = "";
                if src(&before) != src(after) {
                    write!(f, "src {} -> {}", src(&before), src(after))?;
                    sep = ", ";
                }
                if dst(&before) != dst(after) {
                    write!(f, "{sep}dst {} -> {}", dst(&before), dst(after))?;
                }
                Ok(())
            }
            HopDetail::Delayed(extra) => write!(f, "+{extra}"),
            HopDetail::OutIface(iface) => write!(f, "out iface {iface}"),
            HopDetail::IcmpTimeExceeded => f.write_str("icmp time-exceeded"),
        }
    }
}

/// One hop of one query's flight.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlowHop {
    /// Simulated time in microseconds.
    pub at_us: u64,
    /// The device at which the hop happened, as an index into the names
    /// table of its flow: read the name with [`QueryFlow::node`]. Two hops
    /// of one reconstruction share an index exactly when they share a
    /// device.
    pub node: u16,
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
    /// Extra context (the tuple before a NAT rewrite, delay magnitude,
    /// egress interface of a route decision, ICMP kind). `None` when the
    /// action speaks for itself.
    pub detail: Option<HopDetail>,
}

impl FlowHop {
    fn detail_text(&self) -> Option<DetailText<'_>> {
        self.detail.map(|detail| DetailText { detail, tuple: &self.tuple })
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
    /// Device names by [`FlowHop::node`], shared by every flow of one
    /// reconstruction; a device no hop visited has an empty name.
    names: Arc<[Box<str>]>,
}

impl QueryFlow {
    /// The name of the device at which `hop` happened. `hop` must come
    /// from this flow or from another of the same reconstruction.
    pub fn node(&self, hop: &FlowHop) -> &str {
        &self.names[usize::from(hop.node)]
    }

    /// The question's name and type as the outputs print them (e.g.
    /// `example.com.` and `A`), or two empty strings without a question.
    fn question_text(&self) -> (String, String) {
        match &self.question {
            Some(q) => (q.qname.to_string(), format!("{:?}", q.qtype)),
            None => (String::new(), String::new()),
        }
    }

    /// One hop with the keys, order and text of the flow JSON export:
    /// endpoints as `{ip}:{port}` strings, the detail as its display text.
    fn hop_value(&self, hop: &FlowHop) -> Value {
        let text = |endpoint: Endpoint| Value::String(endpoint.to_string());
        Value::Object(vec![
            ("at_us".into(), hop.at_us.to_value()),
            ("node".into(), self.node(hop).to_value()),
            ("iface".into(), hop.iface.to_value()),
            ("action".into(), hop.action.to_value()),
            ("direction".into(), hop.direction.to_value()),
            ("src".into(), text(Endpoint::src(&hop.tuple))),
            ("dst".into(), text(Endpoint::dst(&hop.tuple))),
            ("detail".into(), hop.detail_text().map(|d| d.to_string()).to_value()),
        ])
    }
}

/// Serializes as `{txid, qname, qtype, hops}`, the flow JSON export.
impl Serialize for QueryFlow {
    fn to_value(&self) -> Value {
        let (qname, qtype) = self.question_text();
        let hops = self.hops.iter().map(|hop| self.hop_value(hop)).collect();
        Value::Object(vec![
            ("txid".into(), self.txid.to_value()),
            ("qname".into(), Value::String(qname)),
            ("qtype".into(), Value::String(qtype)),
            ("hops".into(), Value::Array(hops)),
        ])
    }
}

fn hop_detail(kind: &CaptureKind) -> Option<HopDetail> {
    match *kind {
        CaptureKind::NatRewrite { before, .. } => Some(HopDetail::Nat { before }),
        CaptureKind::Delayed { extra, .. } => Some(HopDetail::Delayed(extra)),
        CaptureKind::RouteForward { out, .. } => Some(HopDetail::OutIface(out.0)),
        _ => None,
    }
}

/// The DNS payload a packet carries, if it is long enough for a header.
fn dns_payload(packet: &IpPacket) -> Option<&[u8]> {
    match &packet.transport {
        Transport::Udp(udp) if udp.payload.len() >= 12 => Some(&udp.payload[..]),
        _ => None,
    }
}

fn txid_of(payload: &[u8]) -> u16 {
    u16::from_be_bytes([payload[0], payload[1]])
}

fn is_response(payload: &[u8]) -> bool {
    payload[2] & 0x80 != 0
}

/// The flow of transaction `txid`, scanning newest first: a hop most
/// often joins the flow that opened last.
fn flow_of(flows: &[QueryFlow], txid: u16) -> Option<usize> {
    flows.iter().rposition(|flow| flow.txid == txid)
}

/// Groups capture events into per-query hop timelines, in one pass.
///
/// Events must come from `sim`'s own recorder (names are resolved against
/// it) and be in emission order, which the simulator guarantees is
/// chronological. Flows appear in order of their first observed hop.
/// A hop allocates nothing beyond its place in its flow's hop list; each
/// visited device's name is copied once, into the shared names table.
pub(crate) fn reconstruct_flows(sim: &Simulator, events: &[CaptureEvent]) -> Vec<QueryFlow> {
    let mut flows: Vec<QueryFlow> = Vec::new();
    let mut names: Vec<Box<str>> = vec![Box::default(); sim.node_count()];

    for (at, ev) in events.iter().enumerate() {
        let packet = ev.kind.packet();
        let (idx, direction, detail) = if let Some(payload) = dns_payload(packet) {
            let txid = txid_of(payload);
            let idx = flow_of(&flows, txid).unwrap_or_else(|| {
                flows.push(QueryFlow {
                    txid,
                    question: None,
                    hops: Vec::new(),
                    names: Arc::default(),
                });
                flows.len() - 1
            });
            let flow = &mut flows[idx];
            if flow.question.is_none() {
                flow.question = MessageView::parse(payload)
                    .ok()
                    .and_then(|view| view.question())
                    .map(|q| q.to_question());
            }
            let direction =
                if is_response(payload) { FlowDirection::Response } else { FlowDirection::Query };
            (idx, direction, hop_detail(&ev.kind))
        } else if let Transport::Icmp(IcmpMessage::TimeExceeded { original }) = &packet.transport {
            // Only a TTL-limited query draws this error, so the scan back
            // is rare, and short: the erring router's own drop of the
            // query is the hop it finds.
            let quoted = events[..at].iter().rev().find_map(|earlier| {
                let packet = earlier.kind.packet();
                let payload = dns_payload(packet)?;
                (!is_response(payload) && packet.flow_summary() == *original)
                    .then(|| txid_of(payload))
            });
            let Some(idx) = quoted.and_then(|txid| flow_of(&flows, txid)) else { continue };
            (idx, FlowDirection::Icmp, Some(HopDetail::IcmpTimeExceeded))
        } else {
            continue;
        };
        let name = &mut names[ev.node.0];
        if name.is_empty() {
            *name = sim.node_name(ev.node).unwrap_or_default().into();
        }
        flows[idx].hops.push(FlowHop {
            at_us: ev.at.as_micros(),
            node: u16::try_from(ev.node.0).expect("a names table has at most 65,536 entries"),
            iface: ev.iface.map(|i| i.0),
            action: ev.kind.verb(),
            direction,
            tuple: packet.flow_summary(),
            detail,
        });
    }
    // The table is complete only now: every flow gets a share of it.
    if !flows.is_empty() {
        let names: Arc<[Box<str>]> = names.into();
        for flow in &mut flows {
            flow.names = Arc::clone(&names);
        }
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
        let _ =
            writeln!(out, "txid 0x{:04x}  {qname} {qtype}  ({} hops)", flow.txid, flow.hops.len());
        for hop in &flow.hops {
            let iface = hop.iface.map(|i| format!("if{i}")).unwrap_or_else(|| "-".into());
            let us = hop.at_us;
            let _ = write!(
                out,
                "  {:>7}.{:03}ms  {:<14} {:<22} {:>3}  {} -> {}",
                us / 1_000,
                us % 1_000,
                flow.node(hop),
                hop.action,
                iface,
                Endpoint::src(&hop.tuple),
                Endpoint::dst(&hop.tuple)
            );
            if let Some(detail) = hop.detail_text() {
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
        assert_eq!(flow.node(flow.hops.first().unwrap()), "probe");
        assert_eq!(flow.hops.first().unwrap().action, "egress");
        assert_eq!(flow.hops.first().unwrap().direction, FlowDirection::Query);
        let last = flow.hops.last().unwrap();
        assert_eq!(flow.node(last), "probe");
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
            !flow.hops.iter().any(|h| flow.node(h).contains("isp") && h.tuple.dst == google),
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

    #[test]
    fn ttl_expiry_error_joins_the_query_it_quotes() {
        // Two hops out, the ISP's edge router drops the query and answers
        // with a time-exceeded error quoting the tuple it saw: the one the
        // CPE's masquerade made.
        let mut t = SimTransport::new(HomeScenario::clean().build());
        t.enable_capture();
        let q = Question::new("example.com".parse().unwrap(), RType::A);
        let opts = QueryOptions { ttl: Some(2), ..QueryOptions::default() };
        assert!(t.query("8.8.8.8".parse().unwrap(), &q, 0x4e4e, opts).is_timeout());
        let quoted = FlowSummary {
            src: "73.0.1.0".parse().unwrap(),
            dst: "8.8.8.8".parse().unwrap(),
            src_port: 40000,
            dst_port: 53,
        };
        let errors: Vec<_> = t
            .scenario
            .sim
            .capture_events()
            .iter()
            .filter_map(|ev| match &ev.kind.packet().transport {
                Transport::Icmp(IcmpMessage::TimeExceeded { original }) => Some(*original),
                _ => None,
            })
            .collect();
        assert_eq!(errors, [quoted, quoted], "the error's two hops quote the post-SNAT tuple");

        let flows = t.take_flows();
        assert_eq!(flows.len(), 1, "{flows:?}");
        let flow = &flows[0];
        let tail: Vec<_> = flow.hops[flow.hops.len() - 3..]
            .iter()
            .map(|h| (flow.node(h), h.action, h.direction, h.detail))
            .collect();
        let icmp = Some(HopDetail::IcmpTimeExceeded);
        assert_eq!(
            tail,
            [
                ("Comcast-edge", "drop(ttl-expired)", FlowDirection::Query, None),
                ("Comcast-edge", "egress", FlowDirection::Icmp, icmp),
                ("plain-router", "ingress", FlowDirection::Icmp, icmp),
            ]
        );
        assert_eq!(flow.hops[flow.hops.len() - 3].tuple, quoted);
    }

    /// Each recorded DNS event, one whose UDP payload holds a header, is a
    /// hop of exactly one flow: the flow of its transaction ID holds every
    /// such event of that ID, in order, and nothing else but ICMP hops.
    #[test]
    fn every_dns_event_of_the_taxonomy_examples_lands_in_exactly_one_flow() {
        use dns_wire::debug_queries;
        use locator::HijackLocator;

        for (label, scenario) in HomeScenario::taxonomy_examples() {
            let built = scenario.build();
            let config = built.locator_config();
            let cpe = IpAddr::V4(built.addrs.cpe_public_v4);
            let mut t = SimTransport::new(built);
            t.enable_capture();
            HijackLocator::new(config).run(&mut t);
            t.vantage = crate::Vantage::Scanner;
            let opts = QueryOptions::default();
            let scan = Question::new("example.com".parse().unwrap(), RType::A);
            let _ = t.query(cpe, &scan, 0xC1A0, opts);
            let whoami = Question::new(debug_queries::whoami_akamai(), RType::A);
            let _ = t.query(cpe, &whoami, 0xC1A1, opts);

            let sim = &t.scenario.sim;
            let dns: Vec<_> = sim
                .capture_events()
                .iter()
                .filter_map(|ev| {
                    let packet = ev.kind.packet();
                    let payload = dns_payload(packet)?;
                    let node = sim.node_name(ev.node).unwrap();
                    let hop = (ev.at.as_micros(), node, ev.kind.verb(), packet.flow_summary());
                    Some((txid_of(payload), hop))
                })
                .collect();
            let flows = reconstruct_flows(sim, sim.capture_events());
            assert!(flows.len() > 2, "{label}: {} flows", flows.len());
            let mut txids: Vec<u16> = flows.iter().map(|f| f.txid).collect();
            txids.sort_unstable();
            txids.dedup();
            assert_eq!(txids.len(), flows.len(), "{label}: one flow per transaction ID");
            let mut hops = 0;
            for flow in &flows {
                let expected: Vec<_> = dns
                    .iter()
                    .filter(|(txid, _)| *txid == flow.txid)
                    .map(|(_, hop)| *hop)
                    .collect();
                let got: Vec<_> = flow
                    .hops
                    .iter()
                    .filter(|h| h.direction != FlowDirection::Icmp)
                    .map(|h| (h.at_us, flow.node(h), h.action, h.tuple))
                    .collect();
                assert_eq!(got, expected, "{label}: flow 0x{:04x}", flow.txid);
                hops += got.len();
            }
            assert_eq!(hops, dns.len(), "{label}: a DNS event outside every flow");
        }
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
        let client = sim.add_device(Host::new("client", Vec::new()));
        let nat = sim.add_device(Host::new("nat", Vec::new()));
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
            // A reverse translation that found nothing to change.
            hop(
                4_000,
                nat,
                Some(1),
                CaptureKind::NatRewrite {
                    phase: NatPhase::Reverse,
                    before: reply,
                    packet: udp(reply, &answer),
                },
            ),
            hop(5_000, client, Some(0), CaptureKind::Egress { packet: v6.clone() }),
            hop(5_000, nat, Some(0), CaptureKind::RouteForward { out: IfaceId(2), packet: v6 }),
        ]);

        let flows = reconstruct_flows(&sim, &events);
        let expected = "\
txid 0x1234  example.com. A  (12 hops)
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
