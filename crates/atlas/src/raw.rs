//! Raw measurement records: collection/analysis separation.
//!
//! Real measurement studies collect once (RIPE Atlas hands back raw DNS
//! responses) and analyze many times offline. [`RecordingTransport`] wraps
//! any transport and archives every query and its raw response bytes;
//! [`ReplayTransport`] re-runs the locator against an archive with no
//! network (or simulator) at all. Because the locator is deterministic,
//! replayed analysis reproduces the original report bit for bit — and
//! archives can be re-analyzed with *improved* analysis code later, the
//! workflow the paper's artifact evaluation would want.

use dns_wire::{MessageView, Question};
use locator::{QueryOptions, QueryOutcome, QueryTransport, ReplyFilter, Step};
use serde::{Deserialize, Serialize};
use std::net::{IpAddr, SocketAddr};

/// One archived query/response pair.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RawQueryRecord {
    /// Server the query was sent to.
    pub server: IpAddr,
    /// QNAME in presentation form.
    pub qname: String,
    /// QTYPE wire value.
    pub qtype: u16,
    /// QCLASS wire value.
    pub qclass: u16,
    /// Transaction ID the query carried on the wire. One record per wire
    /// attempt: a retried query archives each attempt under its own ID.
    pub txid: u16,
    /// Raw response bytes; `None` for a timeout.
    pub response: Option<Vec<u8>>,
    /// Source address the response actually came from, when it was *not*
    /// the queried server (the transparent-forwarder signature). Absent in
    /// archives from before the source check existed, which deserialize
    /// as properly sourced (absent fields read as `None`).
    pub wrong_source: Option<IpAddr>,
}

impl RawQueryRecord {
    fn matches(&self, server: IpAddr, q: &Question, txid: u16) -> bool {
        self.server == server
            && self.qname == q.qname.to_string()
            && self.qtype == q.qtype.to_u16()
            && self.qclass == q.qclass.to_u16()
            && self.txid == txid
    }
}

/// An archive of one probe's measurement.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RawMeasurement {
    /// Records in query order.
    pub records: Vec<RawQueryRecord>,
}

/// Wraps a live transport, archiving everything that passes through.
pub struct RecordingTransport<T> {
    inner: T,
    /// The archive being built.
    pub measurement: RawMeasurement,
}

impl<T> RecordingTransport<T> {
    /// Starts recording over `inner`.
    pub fn new(inner: T) -> RecordingTransport<T> {
        RecordingTransport { inner, measurement: RawMeasurement::default() }
    }

    /// Finishes, returning the archive.
    pub fn into_measurement(self) -> RawMeasurement {
        self.measurement
    }

    /// Finishes, returning the wrapped transport alongside the archive.
    pub(crate) fn into_parts(self) -> (T, RawMeasurement) {
        (self.inner, self.measurement)
    }
}

impl<T: QueryTransport> QueryTransport for RecordingTransport<T> {
    fn query(
        &mut self,
        server: IpAddr,
        question: &Question,
        txid: u16,
        opts: QueryOptions,
    ) -> QueryOutcome {
        let outcome = self.inner.query(server, question, txid, opts);
        // The reply's bytes as received: no re-encode, so compression,
        // trailing bytes and any reply the encoder could not rebuild are
        // archived exactly as they arrived.
        let (response, wrong_source) = match &outcome {
            QueryOutcome::Response(reply) => (Some(reply.as_bytes().to_vec()), None),
            QueryOutcome::Timeout => (None, None),
            QueryOutcome::WrongSource { message, from } => {
                (Some(message.as_bytes().to_vec()), Some(*from))
            }
        };
        self.measurement.records.push(RawQueryRecord {
            server,
            qname: question.qname.to_string(),
            qtype: question.qtype.to_u16(),
            qclass: question.qclass.to_u16(),
            txid,
            response,
            wrong_source,
        });
        outcome
    }

    fn backoff(&mut self, ms: u64) {
        self.inner.backoff(ms);
    }

    fn now_us(&self) -> Option<u64> {
        // Recording is transparent to tracing: timestamps come from the
        // wrapped transport's clock.
        self.inner.now_us()
    }

    fn note_step(&mut self, step: Step) {
        // ...and to timing: the wrapped transport files its round-trip
        // times under the step the locator is in.
        self.inner.note_step(step);
    }
}

/// Replays an archive. Queries must arrive in the archived order with the
/// archived parameters (the locator is deterministic, so they do); any
/// divergence yields a timeout and is counted in `mismatches`. An archived
/// response is offered to the attempt's [`ReplyFilter`] as if it had just
/// arrived, so a replay judges bytes from outside the program by the same
/// rule as a live run.
pub struct ReplayTransport {
    records: Vec<RawQueryRecord>,
    cursor: usize,
    /// Queries that did not match the archive (0 on a faithful replay).
    pub mismatches: u32,
}

impl ReplayTransport {
    /// Opens an archive for replay.
    pub fn new(measurement: RawMeasurement) -> ReplayTransport {
        ReplayTransport { records: measurement.records, cursor: 0, mismatches: 0 }
    }

    /// True when every archived record was consumed.
    pub fn exhausted(&self) -> bool {
        self.cursor == self.records.len()
    }
}

impl QueryTransport for ReplayTransport {
    fn query(
        &mut self,
        server: IpAddr,
        question: &Question,
        txid: u16,
        _opts: QueryOptions,
    ) -> QueryOutcome {
        let Some(record) = self.records.get(self.cursor) else {
            self.mismatches += 1;
            return QueryOutcome::Timeout;
        };
        if !record.matches(server, question, txid) {
            self.mismatches += 1;
            return QueryOutcome::Timeout;
        }
        self.cursor += 1;
        let Some(Ok(view)) = record.response.as_deref().map(MessageView::parse) else {
            return QueryOutcome::Timeout;
        };
        let from = record.wrong_source.unwrap_or(server);
        let mut filter = ReplyFilter::new(SocketAddr::new(server, 53), txid);
        filter.offer(SocketAddr::new(from, 53), *view.header(), || view.to_reply());
        filter.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use interception::{HomeScenario, ProbeTimingLog, SimTransport};
    use locator::HijackLocator;

    fn record_probe(scenario: HomeScenario) -> (locator::ProbeReport, RawMeasurement) {
        let built = scenario.build();
        let config = built.locator_config();
        let mut recording = RecordingTransport::new(SimTransport::new(built));
        let report = HijackLocator::new(config.clone()).run(&mut recording);
        (report, recording.into_measurement())
    }

    #[test]
    fn replay_reproduces_the_live_report() {
        for scenario in [HomeScenario::clean(), HomeScenario::xb6_case_study()] {
            let config = scenario.build().locator_config();
            let (live_report, archive) = record_probe(scenario);
            let mut replay = ReplayTransport::new(archive);
            let replayed_report = HijackLocator::new(config).run(&mut replay);
            assert_eq!(replayed_report, live_report);
            assert_eq!(replay.mismatches, 0);
            assert!(replay.exhausted());
        }
    }

    #[test]
    fn recording_keeps_the_wrapped_transport_phase_attribution() {
        // The phase slot of every round trip the timing log holds, with
        // and without a recorder around the transport.
        let phases = |record: bool| {
            let built = HomeScenario::xb6_case_study().build();
            let mut locator = HijackLocator::new(built.locator_config());
            let mut transport = SimTransport::new(built);
            transport.attach_timing(Box::new(ProbeTimingLog::new()));
            if record {
                locator.run(&mut RecordingTransport::new(&mut transport));
            } else {
                locator.run(&mut transport);
            }
            let log = transport.take_timing().expect("timing was attached");
            log.rtt.iter().map(|sample| sample.phase).collect::<Vec<_>>()
        };
        let direct = phases(false);
        assert!(
            direct.iter().any(|&phase| phase != 0),
            "the case study times steps after location: {direct:?}"
        );
        assert_eq!(phases(true), direct);
    }

    #[test]
    fn archives_survive_json() {
        let (_, archive) = record_probe(HomeScenario::xb6_case_study());
        let json = serde_json::to_string(&archive).unwrap();
        let back: RawMeasurement = serde_json::from_str(&json).unwrap();
        assert_eq!(back, archive);
        assert!(!back.records.is_empty());
    }

    #[test]
    fn archive_length_matches_queries_sent() {
        // One record per wire attempt; at the default single attempt that
        // is exactly one record per logical query.
        let (report, archive) = record_probe(HomeScenario::isp_middlebox());
        assert_eq!(archive.records.len() as u32, report.wire_attempts);
        assert_eq!(archive.records.len() as u32, report.queries_sent);
    }

    #[test]
    fn retried_attempts_archive_one_record_each_and_replay_reproduces() {
        // A lossy upstream forces retries; each wire attempt lands in the
        // archive under its own transaction ID, and replaying the archive
        // with the same retry policy reproduces the live report bit for
        // bit (timeout records make the replayed retry loop take the same
        // path the live one did).
        let upstream = netsim::FaultProfile { loss: 0.3, ..netsim::FaultProfile::default() };
        let built = HomeScenario { upstream, ..HomeScenario::clean() }.build();
        let mut config = built.locator_config();
        config.query_options.attempts = 3;
        let mut recording = RecordingTransport::new(SimTransport::new(built));
        let live = HijackLocator::new(config.clone()).run(&mut recording);
        let archive = recording.into_measurement();
        assert_eq!(archive.records.len() as u32, live.wire_attempts);
        assert!(live.wire_attempts > live.queries_sent, "seeded loss should force a retry");
        let unique: std::collections::HashSet<u16> =
            archive.records.iter().map(|r| r.txid).collect();
        assert_eq!(unique.len(), archive.records.len(), "every wire attempt gets a fresh txid");

        let mut replay = ReplayTransport::new(archive);
        let replayed = HijackLocator::new(config).run(&mut replay);
        assert_eq!(replayed, live);
        assert_eq!(replay.mismatches, 0);
        assert!(replay.exhausted());
    }

    #[test]
    fn replies_are_archived_as_received_not_re_encoded() {
        // An `id.server` answer whose owner name is spelled out in full
        // rather than pointing back at the question, followed by two
        // padding bytes: a re-encode would compress the name and drop
        // the padding.
        let mut wire = vec![0x10, 0x00, 0x81, 0x80, 0, 1, 0, 1, 0, 0, 0, 0];
        let id_server = b"\x02id\x06server\x00";
        wire.extend_from_slice(id_server);
        wire.extend_from_slice(&[0, 16, 0, 3]);
        wire.extend_from_slice(id_server);
        wire.extend_from_slice(&[0, 16, 0, 3, 0, 0, 0, 0, 0, 4, 3, b'I', b'A', b'D']);
        wire.extend_from_slice(&[0, 0]);
        let reencoded = dns_wire::Message::parse(&wire).unwrap().encode().unwrap();
        assert_ne!(reencoded, wire, "the canned reply is not in canonical form");

        struct Canned(Vec<u8>);
        impl QueryTransport for Canned {
            fn query(&mut self, _: IpAddr, _: &Question, _: u16, _: QueryOptions) -> QueryOutcome {
                QueryOutcome::Response(MessageView::parse(&self.0).unwrap().to_reply())
            }
        }
        let server: IpAddr = "1.1.1.1".parse().unwrap();
        let question = Question::chaos_txt("id.server".parse().unwrap());
        let opts = QueryOptions::default();
        let mut recording = RecordingTransport::new(Canned(wire.clone()));
        let live = recording.query(server, &question, 0x1000, opts);
        let archive = recording.into_measurement();
        assert_eq!(archive.records[0].response.as_deref(), Some(&wire[..]));
        let replayed = ReplayTransport::new(archive).query(server, &question, 0x1000, opts);
        assert_eq!(replayed, live, "the replay hands back the very bytes received");
    }

    #[test]
    fn diverging_replay_counts_mismatches() {
        let (_, archive) = record_probe(HomeScenario::clean());
        let mut replay = ReplayTransport::new(archive);
        // Ask something the archive never saw.
        let out = replay.query(
            "203.0.113.1".parse().unwrap(),
            &dns_wire::Question::chaos_txt("id.server".parse().unwrap()),
            0x1000,
            locator::QueryOptions::default(),
        );
        assert!(out.is_timeout());
        assert_eq!(replay.mismatches, 1);
    }

    #[test]
    fn empty_archive_times_out_everything() {
        let mut replay = ReplayTransport::new(RawMeasurement::default());
        let out = replay.query(
            "1.1.1.1".parse().unwrap(),
            &dns_wire::Question::chaos_txt("id.server".parse().unwrap()),
            0x1000,
            locator::QueryOptions::default(),
        );
        assert!(out.is_timeout());
        assert!(replay.exhausted());
    }
}
