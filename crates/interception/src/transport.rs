//! [`SimTransport`]: drives a built scenario through the locator's
//! [`QueryTransport`] interface.
//!
//! This is the glue that lets the *pure* locator algorithm run against the
//! packet-level world: each `query` call injects a real UDP packet from the
//! probe host from a fresh source port, advances virtual time until the
//! timeout, and offers every datagram delivered to that port, in arrival
//! order, to the locator's [`ReplyFilter`] — the same rule
//! [`locator::UdpTransport`] applies to a real socket. A straggler
//! answering an earlier attempt was addressed to that attempt's port and
//! never reaches the filter.
//!
//! Transaction IDs are supplied by the caller (the locator's
//! [`locator::TxidSequence`]); the transport stamps them on the wire.
//!
//! A kept reply is handed to the locator as received: the delivered
//! payload moves into a [`Reply`] with no copy, validated once before the
//! filter saw it.

use crate::scenario::BuiltScenario;
use crate::timing::{ProbeTimingLog, SCAN_PHASE};
use dns_wire::{QueryEncoder, Question, Reply};
use locator::{Filtered, QueryOptions, QueryOutcome, QueryTransport, ReplyFilter, Step};
use netsim::{Host, IfaceId, IpPacket, SimDuration, SimTime};
use std::net::{IpAddr, SocketAddr};
use std::time::Instant;

/// Which host in the scenario issues the queries.
///
/// The paper's measurements run from inside the home ([`Vantage::Probe`]);
/// the open-DNS taxonomy scan instead queries the CPE's public address
/// from an Internet-side scanner host ([`Vantage::Scanner`]), which is the
/// vantage that can observe a transparent forwarder's response-source
/// mismatch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Vantage {
    /// The RIPE-Atlas-style probe on the home LAN (the default).
    #[default]
    Probe,
    /// The WAN-side scanner host outside the home ISP (IPv4 only).
    Scanner,
}

/// Transport over a built scenario.
pub struct SimTransport {
    /// The scenario being measured (public so harnesses can inspect ground
    /// truth and device state afterwards).
    pub scenario: BuiltScenario,
    /// Where queries originate; see [`Vantage`].
    pub vantage: Vantage,
    next_sport: u16,
    /// Reusable encode scratch. The locator asks the same handful of
    /// questions thousands of times per campaign; the encoder caches their
    /// wire bytes and re-stamps only the transaction ID.
    encoder: QueryEncoder,
    /// Per-probe timing samples, when attached. `None` (the default)
    /// disables every clock read in the hot path — the same zero-cost-off
    /// discipline as `CaptureSink`.
    timing: Option<Box<ProbeTimingLog>>,
    /// Phase slot the next queries are attributed to (set by the locator
    /// through `note_step`, or to the scan slot by `begin_scan_phase`).
    timed_phase: u8,
}

impl SimTransport {
    /// Wraps a scenario.
    pub fn new(scenario: BuiltScenario) -> SimTransport {
        SimTransport::with_encoder(scenario, QueryEncoder::new())
    }

    /// Wraps a scenario, reusing an existing encoder's scratch and query
    /// cache. Campaign workers pass the encoder from probe to probe so the
    /// fixed location-query set is encoded once per worker, not per probe.
    pub fn with_encoder(scenario: BuiltScenario, encoder: QueryEncoder) -> SimTransport {
        SimTransport {
            scenario,
            vantage: Vantage::Probe,
            next_sport: 40000,
            encoder,
            timing: None,
            timed_phase: 0,
        }
    }

    /// Attaches a timing log; subsequent queries record virtual RTTs and
    /// wall-clock encode/attempt durations into it.
    pub fn attach_timing(&mut self, log: Box<ProbeTimingLog>) {
        self.timing = Some(log);
    }

    /// Detaches and returns the timing log, disabling timing capture.
    pub fn take_timing(&mut self) -> Option<Box<ProbeTimingLog>> {
        self.timing.take()
    }

    /// Attributes subsequent queries to the taxonomy-scan phase slot
    /// (the scanner-vantage queries run outside the locator, which is
    /// what normally drives phase attribution via `note_step`).
    pub fn begin_scan_phase(&mut self) {
        self.timed_phase = SCAN_PHASE;
    }

    /// Takes the encoder back out, leaving a fresh one behind. Used by
    /// campaign workers to carry the warm cache to the next probe.
    pub fn take_encoder(&mut self) -> QueryEncoder {
        std::mem::take(&mut self.encoder)
    }

    /// Turns on the flight recorder for the underlying simulator: every
    /// subsequent packet hop is captured for flow reconstruction.
    pub fn enable_capture(&mut self) {
        self.scenario.sim.record_capture();
    }

    /// Reconstructs per-query hop timelines from the events recorded since
    /// the last call, then clears them in place, keeping the buffer's
    /// capacity. Recording continues.
    pub fn take_flows(&mut self) -> Vec<crate::QueryFlow> {
        let sim = &mut self.scenario.sim;
        let flows = crate::flow::reconstruct_flows(sim, sim.capture_events());
        sim.clear_capture_events();
        flows
    }

    fn alloc_sport(&mut self) -> u16 {
        let p = self.next_sport;
        self.next_sport = if self.next_sport >= 64000 { 40000 } else { self.next_sport + 1 };
        p
    }
}

impl SimTransport {
    fn query_inner(
        &mut self,
        server: IpAddr,
        question: &Question,
        txid: u16,
        opts: QueryOptions,
    ) -> QueryOutcome {
        let sport = self.alloc_sport();
        let (node, src_v4) = match self.vantage {
            Vantage::Probe => (self.scenario.probe, self.scenario.addrs.probe_v4),
            Vantage::Scanner => (self.scenario.scanner, self.scenario.addrs.scanner_v4),
        };
        let src: IpAddr = if server.is_ipv4() {
            IpAddr::V4(src_v4)
        } else {
            match (self.vantage, self.scenario.addrs.probe_v6) {
                (Vantage::Probe, Some(v6)) => IpAddr::V6(v6),
                // No v6 connectivity (the scanner host is v4-only): the
                // query can't even be sent.
                _ => return QueryOutcome::Timeout,
            }
        };
        let encode_started = self.timing.as_ref().map(|_| Instant::now());
        let Ok(wire) = self.encoder.encode_query(txid, question) else {
            return QueryOutcome::Timeout;
        };
        if let (Some(started), Some(log)) = (encode_started, self.timing.as_mut()) {
            log.push_encode(started.elapsed().as_micros() as u64);
        }
        // One copy, straight from the encoder's cache slot into a recycled
        // pool slab — no intermediate Vec.
        let payload = self.scenario.sim.alloc_payload(wire);
        let Some(mut pkt) = IpPacket::udp(src, server, sport, 53, payload) else {
            return QueryOutcome::Timeout;
        };
        if let Some(ttl) = opts.ttl {
            pkt.ttl = ttl;
        }

        let sim = &mut self.scenario.sim;
        let inject_at = sim.now();
        sim.inject(node, IfaceId(0), pkt);
        let deadline = sim.now() + SimDuration::from_millis(opts.timeout_ms);
        sim.run_until(deadline);

        let host = sim.device_mut::<Host>(node).expect("vantage is a Host");
        let mut filter = ReplyFilter::new(SocketAddr::new(server, 53), txid);
        // Arrival of the answer or, failing one, of the wrong-source reply.
        let mut kept_at: Option<SimTime> = None;
        // Drained in place, so the inbox keeps its capacity for the next
        // query; whatever the loop leaves is dropped with the iterator.
        for mut d in host.drain_deliveries() {
            let from = d.packet.src();
            let Some(udp) = d.packet.udp_payload_mut() else { continue };
            if udp.dst_port != sport {
                continue;
            }
            // Validate the wire once. The pooled payload moves into the
            // reply without a copy; a datagram the filter drops is dropped
            // with it.
            let Ok(reply) = Reply::parse(std::mem::take(&mut udp.payload)) else {
                continue;
            };
            match filter.offer(SocketAddr::new(from, udp.src_port), *reply.header(), || reply) {
                Filtered::Answer => {
                    kept_at = Some(d.at);
                    break;
                }
                Filtered::WrongSource => kept_at = Some(d.at),
                Filtered::Dropped => {}
            }
        }
        if let Some(at) = kept_at {
            self.record_rtt(inject_at, at);
        }
        filter.finish()
    }

    /// Records one answered query's virtual-clock round trip: simulated
    /// inject time to simulated inbox-arrival time. Arrival stamps come
    /// from `Delivery::at`, not from `sim.now()` — by the time the
    /// receive loop runs, the clock already sits at the timeout deadline.
    fn record_rtt(&mut self, inject_at: SimTime, delivered_at: SimTime) {
        if let Some(log) = self.timing.as_mut() {
            log.push_rtt(self.timed_phase, delivered_at.duration_since(inject_at).as_micros());
        }
    }
}

impl QueryTransport for SimTransport {
    fn query(
        &mut self,
        server: IpAddr,
        question: &Question,
        txid: u16,
        opts: QueryOptions,
    ) -> QueryOutcome {
        let started = self.timing.as_ref().map(|_| Instant::now());
        let outcome = self.query_inner(server, question, txid, opts);
        if let (Some(started), Some(log)) = (started, self.timing.as_mut()) {
            log.push_attempt(started.elapsed().as_micros() as u64);
        }
        outcome
    }

    fn note_step(&mut self, step: Step) {
        self.timed_phase = step.index() as u8;
    }

    fn backoff(&mut self, ms: u64) {
        // No wall-clock sleep in simulation: advance virtual time instead.
        // Late responses to the previous attempt land in the inbox
        // meanwhile, and the next window's port check discards them.
        let sim = &mut self.scenario.sim;
        let deadline = sim.now() + SimDuration::from_millis(ms);
        sim.run_until(deadline);
    }

    fn now_us(&self) -> Option<u64> {
        // Virtual time: trace timestamps from this transport are
        // bit-for-bit reproducible across runs and thread counts.
        Some(self.scenario.sim.now().as_micros())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::HomeScenario;
    use dns_wire::{RData, RType};
    use locator::default_resolvers;

    fn opts() -> QueryOptions {
        QueryOptions::default()
    }

    #[test]
    fn clean_scenario_reaches_real_resolvers() {
        let mut t = SimTransport::new(HomeScenario::clean().build());
        for (i, resolver) in default_resolvers().into_iter().enumerate() {
            let out = t.query(resolver.v4[0], &resolver.location_query(), 0x2000 + i as u16, opts());
            let reply = out.response().unwrap_or_else(|| panic!("timeout for {:?}", resolver.key));
            assert!(
                resolver.is_standard_location_response(&reply.view()),
                "{:?} gave {}",
                resolver.key,
                locator::describe_response(&reply.view())
            );
        }
    }

    #[test]
    fn clean_scenario_v6_works_too() {
        let mut t = SimTransport::new(HomeScenario::clean().build());
        for (i, resolver) in default_resolvers().into_iter().enumerate() {
            let out = t.query(resolver.v6[0], &resolver.location_query(), 0x2100 + i as u16, opts());
            let reply = out.response().expect("v6 response");
            assert!(resolver.is_standard_location_response(&reply.view()), "{:?}", resolver.key);
        }
    }

    #[test]
    fn ordinary_resolution_works_through_clean_path() {
        let mut t = SimTransport::new(HomeScenario::clean().build());
        let q = Question::new("example.com".parse().unwrap(), RType::A);
        let out = t.query("8.8.8.8".parse().unwrap(), &q, 0x2000, opts());
        let msg = out.response().expect("response").to_message();
        assert_eq!(msg.answers[0].rdata, RData::A("93.184.216.34".parse().unwrap()));
        assert_eq!(msg.header.id, 0x2000);
    }

    #[test]
    fn bogon_queries_die_at_the_border_when_clean() {
        let mut t = SimTransport::new(HomeScenario::clean().build());
        let q = Question::new("probe.dns-hijack-study.example".parse().unwrap(), RType::A);
        let out = t.query("198.51.100.53".parse().unwrap(), &q, 0x2000, opts());
        assert!(out.is_timeout());
    }

    #[test]
    fn spoofed_responses_are_accepted_from_interceptors() {
        // With the XB6, a query to 8.8.8.8 is answered — source-matched —
        // even though Google never saw it.
        let mut t = SimTransport::new(HomeScenario::xb6_case_study().build());
        let q = Question::new("example.com".parse().unwrap(), RType::A);
        let out = t.query("8.8.8.8".parse().unwrap(), &q, 0x2000, opts());
        assert!(out.response().is_some());
    }

    #[test]
    fn v6_query_without_v6_home_times_out() {
        let mut t =
            SimTransport::new(HomeScenario { probe_has_v6: false, ..HomeScenario::clean() }.build());
        let q = Question::chaos_txt("id.server".parse().unwrap());
        let out = t.query("2606:4700:4700::1111".parse().unwrap(), &q, 0x2000, opts());
        assert!(out.is_timeout());
    }

    #[test]
    fn virtual_time_advances_per_query() {
        let mut t = SimTransport::new(HomeScenario::clean().build());
        let q = Question::chaos_txt("id.server".parse().unwrap());
        let before = t.scenario.sim.now();
        t.query("1.1.1.1".parse().unwrap(), &q, 0x2000, opts());
        let after = t.scenario.sim.now();
        assert_eq!(after.duration_since(before), SimDuration::from_millis(5_000));
    }

    #[test]
    fn now_us_tracks_virtual_time() {
        let mut t = SimTransport::new(HomeScenario::clean().build());
        assert_eq!(t.now_us(), Some(0));
        t.backoff(250);
        assert_eq!(t.now_us(), Some(250_000));
        let q = Question::chaos_txt("id.server".parse().unwrap());
        t.query("1.1.1.1".parse().unwrap(), &q, 0x2000, opts());
        // The whole receive window elapses before query() returns.
        assert_eq!(t.now_us(), Some(250_000 + 5_000_000));
    }

    #[test]
    fn backoff_advances_virtual_time() {
        let mut t = SimTransport::new(HomeScenario::clean().build());
        let before = t.scenario.sim.now();
        t.backoff(250);
        assert_eq!(t.scenario.sim.now().duration_since(before), SimDuration::from_millis(250));
    }
}
