//! The real-socket path on simulated worlds: [`UdpTransport`], the
//! transport `hijack-scan` runs, measures simulated homes through a
//! loopback bridge and must report exactly what [`SimTransport`] reports.
//!
//! A bridge thread builds and owns the scenario (a simulated device is not
//! `Send`). Every simulated address it meets gets a loopback alias
//! 127.0.x.y, all bound on one port. An adapter around `UdpTransport` sends
//! each query to its server's alias and maps a wrong-source reply's alias
//! back. The bridge injects each datagram at the vantage host, runs the
//! simulator through the query's whole receive window of virtual time, and
//! forwards every reply delivered to the query's port from the alias of its
//! simulated source. The TTL scan stays out: a loopback hop does not
//! decrement the TTL.

use atlas_sim::{generate, scenario_for, FleetConfig, SCAN_A_TXID};
use dns_wire::{Question, RType};
use interception::{BuiltScenario, HomeScenario, SimTransport, Vantage};
use locator::{HijackLocator, QueryOptions, QueryOutcome, QueryTransport, UdpTransport};
use netsim::{Host, IfaceId, IpPacket, SimDuration};
use std::net::{IpAddr, Ipv4Addr, SocketAddr, UdpSocket};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Duration;

/// How long the real socket waits for a reply. A query the simulated
/// network leaves unanswered costs this much wall time.
const WALL_TIMEOUT_MS: u64 = 250;

/// The loopback alias standing in for the `i`-th simulated address.
fn alias_ip(i: usize) -> IpAddr {
    IpAddr::V4(Ipv4Addr::new(127, 0, 1 + (i / 250) as u8, 1 + (i % 250) as u8))
}

/// Simulated addresses by alias index, shared by the bridge and the adapter.
type Aliases = Arc<Mutex<Vec<IpAddr>>>;

enum Request {
    /// Send back the alias of `server`, then take one query on it and run
    /// the simulator for `window_ms`.
    Query { server: IpAddr, window_ms: u64 },
    /// Advance virtual time, as `SimTransport` does between attempts.
    Backoff(u64),
}

/// The bridge thread's state: the world, and one socket per alias.
struct Bridge {
    built: BuiltScenario,
    vantage: Vantage,
    aliases: Aliases,
    sockets: Vec<UdpSocket>,
    /// The port every alias is bound on; 0 until the first bind picks it.
    port: u16,
    next_sport: u16,
}

impl Bridge {
    fn alias(&mut self, addr: IpAddr) -> usize {
        let mut aliases = self.aliases.lock().unwrap();
        if let Some(i) = aliases.iter().position(|a| *a == addr) {
            return i;
        }
        let socket = UdpSocket::bind((alias_ip(aliases.len()), self.port)).expect("bind an alias");
        socket.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        self.port = socket.local_addr().unwrap().port();
        self.sockets.push(socket);
        aliases.push(addr);
        aliases.len() - 1
    }

    fn serve(mut self, requests: Receiver<Request>, replies: Sender<SocketAddr>) {
        for request in requests {
            match request {
                Request::Query { server, window_ms } => {
                    let i = self.alias(server);
                    replies.send(SocketAddr::new(alias_ip(i), self.port)).unwrap();
                    let mut buf = [0u8; 4096];
                    let (n, peer) =
                        self.sockets[i].recv_from(&mut buf).expect("the adapter's query");
                    for (from, payload) in self.simulate(server, &buf[..n], window_ms) {
                        let j = self.alias(from);
                        self.sockets[j].send_to(&payload, peer).unwrap();
                    }
                }
                Request::Backoff(ms) => {
                    let sim = &mut self.built.sim;
                    sim.run_until(sim.now() + SimDuration::from_millis(ms));
                }
            }
        }
    }

    /// What `SimTransport::query` does up to its receive filter: the
    /// replies delivered to the query's port, as (source, payload).
    fn simulate(&mut self, server: IpAddr, wire: &[u8], window_ms: u64) -> Vec<(IpAddr, Vec<u8>)> {
        let sport = self.next_sport;
        self.next_sport = if sport >= 64000 { 40000 } else { sport + 1 };
        let (node, v4) = match self.vantage {
            Vantage::Probe => (self.built.probe, self.built.addrs.probe_v4),
            Vantage::Scanner => (self.built.scanner, self.built.addrs.scanner_v4),
        };
        let src = match (server, self.vantage, self.built.addrs.probe_v6) {
            (IpAddr::V4(_), ..) => IpAddr::V4(v4),
            (IpAddr::V6(_), Vantage::Probe, Some(v6)) => IpAddr::V6(v6),
            // No v6 connectivity: the query cannot even be sent.
            _ => return Vec::new(),
        };
        let sim = &mut self.built.sim;
        let payload = sim.alloc_payload(wire);
        let packet = IpPacket::udp(src, server, sport, 53, payload).expect("same family");
        sim.inject(node, IfaceId(0), packet);
        sim.run_until(sim.now() + SimDuration::from_millis(window_ms));
        let host = sim.device_mut::<Host>(node).expect("vantage is a Host");
        host.drain_deliveries()
            .filter_map(|d| {
                let udp = d.packet.udp_payload().filter(|udp| udp.dst_port == sport)?;
                Some((d.packet.src(), udp.payload.to_vec()))
            })
            .collect()
    }
}

/// `UdpTransport` pointed at a bridged scenario.
struct Bridged {
    udp: UdpTransport,
    aliases: Aliases,
    requests: Sender<Request>,
    replies: Receiver<SocketAddr>,
}

impl QueryTransport for Bridged {
    fn query(
        &mut self,
        server: IpAddr,
        question: &Question,
        txid: u16,
        opts: QueryOptions,
    ) -> QueryOutcome {
        assert_eq!(opts.ttl, None, "the TTL scan stays out of the bridge");
        self.requests.send(Request::Query { server, window_ms: opts.timeout_ms }).unwrap();
        let alias = self.replies.recv().expect("the bridge is up");
        self.udp.port = alias.port();
        let wall = QueryOptions { timeout_ms: WALL_TIMEOUT_MS, ..opts };
        match self.udp.query(alias.ip(), question, txid, wall) {
            QueryOutcome::WrongSource { message, from } => {
                let aliases = self.aliases.lock().unwrap();
                let from = (0..aliases.len()).find(|&i| alias_ip(i) == from).map(|i| aliases[i]);
                QueryOutcome::WrongSource {
                    message,
                    from: from.expect("replies come from aliases"),
                }
            }
            outcome => outcome,
        }
    }

    fn backoff(&mut self, ms: u64) {
        self.requests.send(Request::Backoff(ms)).unwrap();
    }
}

/// Runs `measure` on a `UdpTransport` bridged into `scenario`, seen from
/// `vantage`. The bridge thread stops when `measure` returns and drops the
/// transport, and is joined, its panic propagated, before this returns.
fn with_bridge<R>(
    scenario: HomeScenario,
    vantage: Vantage,
    measure: impl FnOnce(&mut Bridged) -> R,
) -> R {
    let aliases = Aliases::default();
    let (requests, requests_rx) = channel();
    let (replies_tx, replies) = channel();
    let shared = aliases.clone();
    thread::scope(|s| {
        s.spawn(move || {
            let bridge = Bridge {
                built: scenario.build(),
                vantage,
                aliases: shared,
                sockets: Vec::new(),
                port: 0,
                next_sport: 40000,
            };
            bridge.serve(requests_rx, replies_tx)
        });
        measure(&mut Bridged { udp: UdpTransport::new(), aliases, requests, replies })
    })
}

/// Runs `check` on every case at once, each on its own thread: most of a
/// case's wall time is spent waiting out silent queries.
fn on_threads<T: Send>(cases: Vec<T>, check: impl Fn(T) + Sync) {
    thread::scope(|s| {
        for case in cases {
            let check = &check;
            s.spawn(move || check(case));
        }
    });
}

#[test]
fn udp_transport_reports_what_sim_transport_reports() {
    let mut cases = vec![
        ("clean".to_string(), HomeScenario::clean()),
        ("xb6_case_study".to_string(), HomeScenario::xb6_case_study()),
        ("isp_middlebox".to_string(), HomeScenario::isp_middlebox()),
    ];
    // The first steady responding probe of each household flavor.
    let fleet = generate(FleetConfig::default());
    let mut flavors = Vec::new();
    for probe in fleet.responding().filter(|p| !p.flaky) {
        let flavor = std::mem::discriminant(&probe.flavor);
        if !flavors.contains(&flavor) {
            flavors.push(flavor);
            cases.push((
                format!("probe {} ({:?})", probe.id, probe.flavor),
                scenario_for(&fleet, probe),
            ));
        }
    }
    assert_eq!(flavors.len(), 21, "one probe per flavor of the default fleet");

    on_threads(cases, |(name, scenario)| {
        let built = scenario.clone().build();
        let config = built.locator_config();
        let simulated = HijackLocator::new(config.clone()).run(&mut SimTransport::new(built));
        let real = with_bridge(scenario, Vantage::Probe, |udp| HijackLocator::new(config).run(udp));
        assert_eq!(real, simulated, "{name}: UdpTransport and SimTransport disagree");
    });
}

#[test]
fn scanner_queries_read_the_same_over_a_real_socket() {
    on_threads(HomeScenario::taxonomy_examples(), |(name, scenario)| {
        // The taxonomy scan's A query, to the CPE's public address.
        let question = Question::new("example.com".parse().unwrap(), RType::A);
        let built = scenario.clone().build();
        let target = IpAddr::V4(built.addrs.cpe_public_v4);
        let mut simulated = SimTransport::new(built);
        simulated.vantage = Vantage::Scanner;
        let expected = simulated.query(target, &question, SCAN_A_TXID, QueryOptions::default());
        let outcome = with_bridge(scenario, Vantage::Scanner, |udp| {
            udp.query(target, &question, SCAN_A_TXID, QueryOptions::default())
        });
        // Same kind, same answer bytes, same source.
        assert_eq!(outcome, expected, "{name}");
        if name == "transparent_forwarder" {
            assert_eq!(outcome.wrong_source(), Some("75.75.75.75".parse().unwrap()), "{name}");
        }
    });
}
