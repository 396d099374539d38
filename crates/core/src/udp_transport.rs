//! A real-network [`QueryTransport`] over `std::net::UdpSocket`.
//!
//! This is the deployment form of the paper's claim that the technique
//! "can be implemented on any device that can make DNS queries, without
//! requiring root access": one unprivileged UDP socket per query. The
//! socket is deliberately *not* `connect()`ed: a connected socket would
//! make the kernel silently discard replies from any other address, and
//! a reply from the wrong address is exactly the transparent-forwarder
//! signal the source check needs to see. Each datagram goes to the
//! attempt's [`ReplyFilter`], which surfaces mismatches as
//! [`QueryOutcome::WrongSource`] instead of dropping them on the floor.
//!
//! The TTL option of [`QueryOptions`] is honored via `IP_TTL` where the
//! platform allows it without privileges; on failure the query proceeds
//! with the default TTL (mirroring the §6 observation that TTL games need
//! more privilege than DNS itself).
//!
//! Transaction IDs are supplied by the caller (see
//! [`crate::TxidSequence`]); the transport stamps them on the wire and its
//! filter drops responses carrying any other ID.

use crate::transport::{Filtered, QueryOptions, QueryOutcome, QueryTransport, ReplyFilter};
use dns_wire::{MessageView, QueryEncoder, Question};
use std::net::{IpAddr, SocketAddr, UdpSocket};
use std::time::{Duration, Instant};

/// UDP transport state: socket configuration and statistics.
#[derive(Debug)]
pub struct UdpTransport {
    /// Local address to bind (e.g. to pick an interface); `None` binds the
    /// unspecified address of the server's family.
    pub bind_addr: Option<IpAddr>,
    /// Server port, 53 unless testing against a local stub.
    pub port: u16,
    /// Queries sent.
    pub sent: u64,
    /// Responses accepted.
    pub received: u64,
    /// Reusable encode scratch: the measurement question set is small and
    /// fixed, so repeat queries are a cached memcpy plus a txid patch.
    encoder: QueryEncoder,
}

impl UdpTransport {
    /// Creates a transport with default socket settings.
    pub fn new() -> UdpTransport {
        UdpTransport { bind_addr: None, port: 53, sent: 0, received: 0, encoder: QueryEncoder::new() }
    }

    fn bind_for(&self, server: IpAddr) -> std::io::Result<UdpSocket> {
        let local: SocketAddr = match self.bind_addr {
            Some(addr) => SocketAddr::new(addr, 0),
            None if server.is_ipv4() => "0.0.0.0:0".parse().expect("static addr"),
            None => "[::]:0".parse().expect("static addr"),
        };
        UdpSocket::bind(local)
    }
}

impl Default for UdpTransport {
    fn default() -> Self {
        UdpTransport::new()
    }
}

impl QueryTransport for UdpTransport {
    fn query(
        &mut self,
        server: IpAddr,
        question: &Question,
        txid: u16,
        opts: QueryOptions,
    ) -> QueryOutcome {
        let Ok(socket) = self.bind_for(server) else { return QueryOutcome::Timeout };
        if let Some(ttl) = opts.ttl {
            // Best-effort: not all platforms allow it unprivileged.
            let _ = socket.set_ttl(ttl as u32);
        }
        let target = SocketAddr::new(server, self.port);
        let Ok(payload) = self.encoder.encode_query(txid, question) else {
            return QueryOutcome::Timeout;
        };
        if socket.send_to(payload, target).is_err() {
            return QueryOutcome::Timeout;
        }
        self.sent += 1;

        let deadline = Instant::now() + Duration::from_millis(opts.timeout_ms);
        let mut buf = [0u8; 4096];
        let mut filter = ReplyFilter::new(target, txid);
        // Listen until the answer or the deadline. The borrowed view keeps
        // dropped datagrams allocation-free; a kept reply is copied out of
        // the receive buffer once, with the offsets this parse validated.
        loop {
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() || socket.set_read_timeout(Some(remaining)).is_err() {
                break;
            }
            let Ok((n, peer)) = socket.recv_from(&mut buf) else { break };
            let Ok(view) = MessageView::parse(&buf[..n]) else { continue };
            if filter.offer(peer, *view.header(), || view.to_reply()) == Filtered::Answer {
                self.received += 1;
                break;
            }
        }
        filter.finish()
    }

    fn backoff(&mut self, ms: u64) {
        std::thread::sleep(Duration::from_millis(ms));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::{query_with_retry, TxidSequence};
    use dns_wire::{Message, RData, RType, Rcode, Record};
    use std::net::Ipv4Addr;
    use std::sync::mpsc;

    /// Spawns a loopback "resolver" that answers `n` queries with a canned
    /// record, then exits. Returns its port.
    fn spawn_loopback_server(n: usize, wrong_txid: bool) -> u16 {
        let socket = UdpSocket::bind("127.0.0.1:0").expect("bind loopback");
        let port = socket.local_addr().unwrap().port();
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            tx.send(()).ok();
            let mut buf = [0u8; 4096];
            for _ in 0..n {
                let Ok((len, peer)) = socket.recv_from(&mut buf) else { return };
                let Ok(query) = Message::parse(&buf[..len]) else { continue };
                let mut resp = Message::response_to(&query, Rcode::NoError).with_answer(
                    Record::new(
                        query.questions[0].qname.clone(),
                        30,
                        RData::A(Ipv4Addr::new(93, 184, 216, 34)),
                    ),
                );
                if wrong_txid {
                    resp.header.id = resp.header.id.wrapping_add(1);
                }
                let bytes = resp.encode().unwrap();
                socket.send_to(&bytes, peer).ok();
            }
        });
        rx.recv().ok();
        port
    }

    fn a_question() -> Question {
        Question::new("example.com".parse().unwrap(), RType::A)
    }

    fn opts(timeout_ms: u64) -> QueryOptions {
        QueryOptions { timeout_ms, ..QueryOptions::default() }
    }

    #[test]
    fn loopback_roundtrip() {
        let port = spawn_loopback_server(1, false);
        let mut t = UdpTransport { port, ..UdpTransport::default() };
        let out = t.query("127.0.0.1".parse().unwrap(), &a_question(), 0x5244, opts(2_000));
        let resp = out.response().expect("loopback answer").to_message();
        assert_eq!(resp.answers[0].rdata, RData::A("93.184.216.34".parse().unwrap()));
        assert_eq!(resp.header.id, 0x5244);
        assert_eq!(t.sent, 1);
        assert_eq!(t.received, 1);
    }

    #[test]
    fn mismatched_txid_is_rejected_until_timeout() {
        let port = spawn_loopback_server(1, true);
        let mut t = UdpTransport { port, ..UdpTransport::default() };
        let out = t.query("127.0.0.1".parse().unwrap(), &a_question(), 0x5244, opts(300));
        assert!(out.is_timeout());
        assert_eq!(t.received, 0);
    }

    /// Spawns a transparent-forwarder-shaped responder: queries arrive at
    /// the returned 127.0.0.1 port, but the (txid-correct) answer is sent
    /// from a *different* socket bound to 127.0.0.2 — the upstream
    /// answering the scanner directly. Returns the queried port.
    fn spawn_wrong_source_server(n: usize) -> u16 {
        let listener = UdpSocket::bind("127.0.0.1:0").expect("bind loopback");
        let port = listener.local_addr().unwrap().port();
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            let upstream = UdpSocket::bind("127.0.0.2:0").expect("bind 127.0.0.2");
            tx.send(()).ok();
            let mut buf = [0u8; 4096];
            for _ in 0..n {
                let Ok((len, peer)) = listener.recv_from(&mut buf) else { return };
                let Ok(query) = Message::parse(&buf[..len]) else { continue };
                let resp = Message::response_to(&query, Rcode::NoError).with_answer(
                    Record::new(
                        query.questions[0].qname.clone(),
                        30,
                        RData::A(Ipv4Addr::new(93, 184, 216, 34)),
                    ),
                );
                let bytes = resp.encode().unwrap();
                upstream.send_to(&bytes, peer).ok();
            }
        });
        rx.recv().ok();
        port
    }

    #[test]
    fn wrong_source_reply_is_flagged_not_silently_accepted() {
        let port = spawn_wrong_source_server(1);
        let mut t = UdpTransport { port, ..UdpTransport::default() };
        let out = t.query("127.0.0.1".parse().unwrap(), &a_question(), 0x5244, opts(400));
        assert!(out.response().is_none(), "a wrong-source reply must not be accepted");
        assert_eq!(out.wrong_source(), Some("127.0.0.2".parse().unwrap()));
        match out {
            QueryOutcome::WrongSource { message, from } => {
                assert_eq!(from, "127.0.0.2".parse::<IpAddr>().unwrap());
                assert_eq!(message.header().id, 0x5244, "the reply's txid was right");
            }
            other => panic!("expected WrongSource, got {other:?}"),
        }
        assert_eq!(t.received, 0, "only properly sourced answers count as received");
    }

    #[test]
    fn dead_server_times_out() {
        // A bound-but-never-answering socket.
        let silent = UdpSocket::bind("127.0.0.1:0").unwrap();
        let port = silent.local_addr().unwrap().port();
        let mut t = UdpTransport { port, ..UdpTransport::default() };
        let started = Instant::now();
        let out = t.query("127.0.0.1".parse().unwrap(), &a_question(), 0x5244, opts(200));
        assert!(out.is_timeout());
        assert!(started.elapsed() >= Duration::from_millis(180));
    }

    #[test]
    fn retry_recovers_from_a_wrong_txid_server() {
        // The server answers two queries: the first reply carries a bad ID
        // (rejected in the transport), the second query gets... also a bad
        // ID — so even with retries the outcome stays Timeout, proving the
        // pipeline never accepts a mismatched response.
        let port = spawn_loopback_server(2, true);
        let mut t = UdpTransport { port, ..UdpTransport::default() };
        let mut txids = TxidSequence::new(0x5244);
        let r = query_with_retry(
            &mut t,
            "127.0.0.1".parse().unwrap(),
            &a_question(),
            &mut txids,
            QueryOptions { timeout_ms: 200, attempts: 2, ..QueryOptions::default() },
        );
        assert!(r.outcome.is_timeout());
        assert_eq!(r.attempts_used, 2);
        assert_eq!(t.sent, 2);
        assert_eq!(t.received, 0);
    }

    #[test]
    fn backoff_sleeps() {
        let mut t = UdpTransport::default();
        let started = Instant::now();
        t.backoff(50);
        assert!(started.elapsed() >= Duration::from_millis(45));
    }
}
