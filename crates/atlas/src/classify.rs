//! Open-DNS taxonomy classification: the scanner-style campaign mode.
//!
//! Internet-wide open-resolver scans (Shadowserver, Censys, the
//! transparent-forwarder studies this paper builds on) see each home
//! router from the *outside*: one public IPv4 address, port 53. This
//! module reproduces that vantage. Each device is probed twice — once
//! from the in-home probe (the paper's three-step technique, giving the
//! interception verdict) and once from the WAN-side scanner host — and
//! classified into the open-DNS taxonomy ([`OpenDnsClass`]) by a small
//! decision tree:
//!
//! 1. Scanner sends an ordinary `A` query to the device's public address.
//!    * A right-txid answer from a *different* source address — the
//!      device relayed the scanner's packet upstream without rewriting
//!      its source, so the upstream answered the scanner directly — is
//!      the **transparent forwarder** signature.
//!    * No answer at all: the device is **closed**. If the in-home run
//!      proved a CPE interceptor, it is a **DNAT interceptor** (open to
//!      its LAN's outbound port 53, closed on the WAN); otherwise
//!      **clean**.
//!    * A properly sourced answer: the device is open — step 2 decides
//!      which kind.
//! 2. Scanner asks the device for a whoami name. An **open recursive**
//!    resolves it itself, so the reflected egress is the device's own
//!    public address; an **open forwarder** relays to its upstream, whose
//!    egress is someone else's.
//!
//! Every classification is cross-checked against the packet-level flight
//! recorder ([`capture_consistent`]): a claimed transparent forwarder
//! must show a response hop arriving at the scanner from a source other
//! than the queried server, a claimed open forwarder must show the
//! re-keyed upstream relay flow, and so on. The classifier and the
//! capture never disagree on a healthy simulator — the cross-check is the
//! ground-truthing harness the acceptance tests gate on.

use crate::campaign::{run_collected, run_work_stealing, CampaignOptions, Observers, WorkerArena};
use crate::fleet::{scenario_for, Fleet, ProbeSpec};
use crate::timing::TimingRegistry;
use dns_wire::{debug_queries, Name, Question, RType};
use interception::{
    flow_rtt_us, FlowDirection, HomeScenario, OpenDnsClass, QueryFlow, SimTransport, Vantage,
};
use locator::{
    HijackLocator, InterceptorLocation, LocatorConfig, ProbeReport, QueryOptions, QueryOutcome,
    QueryTransport,
};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::net::{IpAddr, Ipv4Addr};

/// Transaction ID of the scanner's ordinary `A` probe. Far above the
/// locator's sequence (0x1000–0x5fff) and the forwarder re-key pool
/// (0x4000-based), so flight-recorder flows never collide.
pub const SCAN_A_TXID: u16 = 0xC1A0;

/// Transaction ID of the scanner's whoami probe.
pub const SCAN_WHOAMI_TXID: u16 = 0xC1A1;

/// The name the scanner's ordinary probe asks for (resolvable in the
/// simulated world's standard zones).
pub const SCAN_QNAME: &str = "example.com";

/// What one classification run of a single device yields.
#[derive(Debug, Clone)]
pub struct ClassifiedDevice {
    /// The taxonomy verdict.
    pub class: OpenDnsClass,
    /// The in-home locator report (step 0 of the decision tree).
    pub report: ProbeReport,
    /// Source address the scanner's answer actually came from when it was
    /// not the queried device — the transparent-forwarder signature.
    pub wrong_source: Option<IpAddr>,
    /// Whether the packet capture corroborates the verdict
    /// ([`capture_consistent`]).
    pub capture_ok: bool,
    /// Per-query hop timelines of the whole run (probe vantage and
    /// scanner vantage), from the flight recorder.
    pub flows: Vec<QueryFlow>,
}

/// A classified fleet device: the verdict plus the ground truth the
/// scenario was generated from.
#[derive(Debug, Clone)]
pub struct DeviceClassification<'a> {
    /// The probe that was classified.
    pub probe: &'a ProbeSpec,
    /// The known class the device was planted as.
    pub truth_class: OpenDnsClass,
    /// What the scanner concluded.
    pub device: ClassifiedDevice,
}

/// Per-class device counts, one slot per [`OpenDnsClass`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ClassCounts {
    /// Devices relaying WAN queries with the client source preserved.
    pub transparent_forwarder: u32,
    /// Devices relaying WAN queries under their own source address.
    pub open_forwarder: u32,
    /// Devices resolving WAN queries themselves.
    pub open_recursive: u32,
    /// Devices closed on the WAN but intercepting their LAN's port 53.
    pub dnat_interceptor: u32,
    /// Devices with no open-DNS behaviour at all.
    pub clean: u32,
}

impl ClassCounts {
    /// The count for one class.
    pub fn get(&self, class: OpenDnsClass) -> u32 {
        match class {
            OpenDnsClass::TransparentForwarder => self.transparent_forwarder,
            OpenDnsClass::OpenForwarder => self.open_forwarder,
            OpenDnsClass::OpenRecursive => self.open_recursive,
            OpenDnsClass::DnatInterceptor => self.dnat_interceptor,
            OpenDnsClass::Clean => self.clean,
        }
    }

    fn slot_mut(&mut self, class: OpenDnsClass) -> &mut u32 {
        match class {
            OpenDnsClass::TransparentForwarder => &mut self.transparent_forwarder,
            OpenDnsClass::OpenForwarder => &mut self.open_forwarder,
            OpenDnsClass::OpenRecursive => &mut self.open_recursive,
            OpenDnsClass::DnatInterceptor => &mut self.dnat_interceptor,
            OpenDnsClass::Clean => &mut self.clean,
        }
    }

    /// Devices counted across every class.
    pub fn total(&self) -> u32 {
        OpenDnsClass::ALL.iter().map(|&c| self.get(c)).sum()
    }

    fn merge(&mut self, other: &ClassCounts) {
        for class in OpenDnsClass::ALL {
            *self.slot_mut(class) += other.get(class);
        }
    }
}

/// The streaming aggregate of a classification campaign: per-taxonomy
/// counts plus agreement against ground truth and packet capture. Every
/// field is a commutative sum, so — like [`crate::AggregateReport`] —
/// fold order, thread count, and batch size never change the result.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ClassifySummary {
    /// Devices classified.
    pub probes: u64,
    /// The scanner's verdicts per class.
    pub classified: ClassCounts,
    /// The planted ground truth per class.
    pub truth: ClassCounts,
    /// Devices whose verdict matched the planted class.
    pub truth_matches: u64,
    /// Devices whose verdict did not.
    pub truth_mismatches: u64,
    /// Devices whose packet capture corroborates the verdict.
    pub capture_confirmed: u64,
    /// Devices whose capture does not.
    pub capture_unconfirmed: u64,
}

impl ClassifySummary {
    /// Folds one classified device into the summary.
    pub fn fold(&mut self, c: &DeviceClassification) {
        self.probes += 1;
        *self.classified.slot_mut(c.device.class) += 1;
        *self.truth.slot_mut(c.truth_class) += 1;
        if c.device.class == c.truth_class {
            self.truth_matches += 1;
        } else {
            self.truth_mismatches += 1;
        }
        if c.device.capture_ok {
            self.capture_confirmed += 1;
        } else {
            self.capture_unconfirmed += 1;
        }
    }

    /// Merges another worker's partial summary into this one.
    pub fn merge(&mut self, other: ClassifySummary) {
        self.probes += other.probes;
        self.classified.merge(&other.classified);
        self.truth.merge(&other.truth);
        self.truth_matches += other.truth_matches;
        self.truth_mismatches += other.truth_mismatches;
        self.capture_confirmed += other.capture_confirmed;
        self.capture_unconfirmed += other.capture_unconfirmed;
    }
}

impl fmt::Display for ClassifySummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Open-DNS taxonomy ({} devices scanned)", self.probes)?;
        writeln!(f, "{:<24} {:>10} {:>10}", "", "Classified", "Planted")?;
        for class in OpenDnsClass::ALL {
            writeln!(
                f,
                "{:<24} {:>10} {:>10}",
                class.label(),
                self.classified.get(class),
                self.truth.get(class)
            )?;
        }
        writeln!(
            f,
            "ground-truth agreement:  {} / {}",
            self.truth_matches,
            self.truth_matches + self.truth_mismatches
        )?;
        writeln!(
            f,
            "capture corroboration:   {} / {}",
            self.capture_confirmed,
            self.capture_confirmed + self.capture_unconfirmed
        )
    }
}

/// Runs the decision tree over an already-measuring transport: in-home
/// locator run first, then the scanner-vantage probes, then the capture
/// cross-check. The transport's flight recorder is switched on, so the
/// returned flows cover the whole run.
pub fn classify_with_transport(
    transport: &mut SimTransport,
    config: LocatorConfig,
) -> ClassifiedDevice {
    transport.enable_capture();
    let report = HijackLocator::new(config).run(transport);

    // Everything from here on is the scanner's doing — RTT samples land
    // in the "scan" phase slot instead of the last locator step's.
    transport.begin_scan_phase();
    transport.vantage = Vantage::Scanner;
    let cpe_v4 = transport.scenario.addrs.cpe_public_v4;
    let target = IpAddr::V4(cpe_v4);
    let opts = QueryOptions::default();
    let scan_q = Question::new(SCAN_QNAME.parse().expect("static name"), RType::A);
    let (class, wrong_source) = match transport.query(target, &scan_q, SCAN_A_TXID, opts) {
        QueryOutcome::WrongSource { from, .. } => (OpenDnsClass::TransparentForwarder, Some(from)),
        QueryOutcome::Timeout => {
            let dnat =
                report.intercepted && report.location == Some(InterceptorLocation::Cpe);
            (if dnat { OpenDnsClass::DnatInterceptor } else { OpenDnsClass::Clean }, None)
        }
        QueryOutcome::Response(_) => {
            let whoami = Question::new(debug_queries::whoami_akamai(), RType::A);
            match transport.query(target, &whoami, SCAN_WHOAMI_TXID, opts) {
                QueryOutcome::WrongSource { from, .. } => {
                    (OpenDnsClass::TransparentForwarder, Some(from))
                }
                QueryOutcome::Response(reply)
                    if reply.view().answers().any(|r| r.a_addr() == Some(cpe_v4)) =>
                {
                    (OpenDnsClass::OpenRecursive, None)
                }
                _ => (OpenDnsClass::OpenForwarder, None),
            }
        }
    };
    transport.vantage = Vantage::Probe;

    let flows = transport.take_flows();
    let capture_ok = capture_consistent(class, &flows, cpe_v4);
    ClassifiedDevice { class, report, wrong_source, capture_ok, flows }
}

/// Classifies one standalone scenario — the entry point the golden suite
/// uses, where the scenario is named rather than drawn from a fleet.
pub fn classify_scenario(scenario: HomeScenario) -> ClassifiedDevice {
    let built = scenario.build();
    let config = built.locator_config();
    let mut transport = SimTransport::new(built);
    classify_with_transport(&mut transport, config)
}

/// Classifies one fleet device on a worker's arena: the campaign's
/// per-probe path with [`classify_with_transport`] in between. With
/// `timing` on, besides the per-phase folding the measurement path does,
/// every completed flow in the device's capture contributes its
/// flight-recorder RTT (first egress hop to the answer's return at the
/// same node) to the histogram of the device's *classified* taxonomy
/// class — the distribution that makes the paper's "local answers come
/// back fast" signature visible: DNAT-intercepted devices answer from the
/// CPE in microseconds of virtual time, clean paths pay the full upstream
/// round trip.
fn classify<'a>(
    fleet: &Fleet,
    probe: &'a ProbeSpec,
    arena: &mut WorkerArena,
    timing: Option<&TimingRegistry>,
) -> DeviceClassification<'a> {
    let scenario = scenario_for(fleet, probe);
    let (mut transport, config) = arena.build(fleet, &scenario, timing);
    let device = classify_with_transport(&mut transport, config);
    arena.finish(transport, &device.report, timing);
    if let Some(t) = timing {
        for flow in &device.flows {
            if let Some(rtt) = flow_rtt_us(flow) {
                t.record_class_rtt(device.class, rtt);
            }
        }
    }
    DeviceClassification { probe, truth_class: scenario.open_dns_class(), device }
}

/// Classifies a single fleet device.
pub fn classify_probe<'a>(fleet: &Fleet, probe: &'a ProbeSpec) -> DeviceClassification<'a> {
    classify(fleet, probe, &mut WorkerArena::new(), None)
}

/// Classifies every responding device in the fleet, collecting each
/// per-device result. Output is ordered by probe id and bitwise identical
/// across thread counts and batch sizes (the same claim-index merge the
/// measurement campaign uses). `timing`, when given, is fed exactly as in
/// [`run_classification_timed`].
pub fn run_classification<'a>(
    fleet: &'a Fleet,
    options: CampaignOptions,
    timing: Option<&TimingRegistry>,
) -> Vec<DeviceClassification<'a>> {
    let observers = Observers { timing, ..Observers::default() };
    run_collected(fleet, options, observers, |probe, arena| classify(fleet, probe, arena, timing))
}

/// Classifies the fleet without holding more than one device's result per
/// worker: each classification folds into the worker's private
/// [`ClassifySummary`] the moment it is made, and the per-worker partials
/// merge at the end. No per-device result is kept (the scheduler's index
/// of responding devices costs 8 bytes a device), and because every
/// counter is a commutative sum the merged summary is bitwise identical
/// to folding the collected output of [`run_classification`] —
/// at any thread count or batch size.
///
/// With `timing` attached, per-phase and per-verdict RTTs fold in exactly
/// as in the measurement campaign, and every captured flow's RTT lands in
/// its device's taxonomy class histogram. Because every histogram update
/// is a commutative sum of per-flow samples, the virtual-clock timing
/// snapshot is bitwise identical at every `(threads, batch_size)` pair
/// too.
pub fn run_classification_timed(
    fleet: &Fleet,
    options: CampaignOptions,
    timing: Option<&TimingRegistry>,
) -> ClassifySummary {
    let observers = Observers { timing, ..Observers::default() };
    let partials = run_work_stealing(
        fleet,
        options,
        observers,
        |probe, arena| classify(fleet, probe, arena, timing),
        ClassifySummary::default,
        |acc: &mut ClassifySummary, _idx, c| acc.fold(&c),
    );
    let mut merged = ClassifySummary::default();
    for partial in partials {
        merged.merge(partial);
    }
    merged
}

/// The source address of the first response hop that reached the
/// scanner in the flow with `txid`.
fn scanner_answer_source(flows: &[QueryFlow], txid: u16) -> Option<IpAddr> {
    flows.iter().find(|f| f.txid == txid).and_then(|f| {
        f.hops
            .iter()
            .find(|h| {
                &*h.node == "scanner"
                    && h.action == "ingress"
                    && h.direction == FlowDirection::Response
            })
            .map(|h| h.tuple.src)
    })
}

/// A flow for `qname` that was minted neither by the probe nor by the
/// scanner — the re-keyed upstream relay a forwarder spawns.
fn relayed_beyond_home(flows: &[QueryFlow], qname: &Name, skip: &[u16]) -> bool {
    flows.iter().any(|f| {
        !skip.contains(&f.txid)
            && f.question.as_ref().is_some_and(|q| q.qname == *qname)
            && f.hops.first().is_some_and(|h| !matches!(&*h.node, "probe" | "scanner"))
    })
}

/// Checks a taxonomy verdict against the packet capture's hop tuples —
/// the flight-recorder ground-truthing of the classification:
///
/// * **Transparent forwarder** — a response hop must arrive at the
///   scanner from a source address other than the queried device.
/// * **Open forwarder** — the scanner's answer must come *from* the
///   queried device, and the capture must show the re-keyed relay flow
///   the device spawned toward its upstream.
/// * **Open recursive** — the whoami answer must come from the queried
///   device with *no* relay flow: the device resolved it alone.
/// * **DNAT interceptor** — the in-home capture must show the DNAT
///   rewrite and a locally minted answer.
/// * **Clean** — the scanner must never have received a DNS response.
pub fn capture_consistent(class: OpenDnsClass, flows: &[QueryFlow], cpe_v4: Ipv4Addr) -> bool {
    let cpe = IpAddr::V4(cpe_v4);
    let scan_txids = [SCAN_A_TXID, SCAN_WHOAMI_TXID];
    match class {
        OpenDnsClass::TransparentForwarder => {
            scanner_answer_source(flows, SCAN_A_TXID).is_some_and(|src| src != cpe)
        }
        OpenDnsClass::OpenForwarder => {
            scanner_answer_source(flows, SCAN_A_TXID) == Some(cpe)
                && relayed_beyond_home(
                    flows,
                    &SCAN_QNAME.parse().expect("static name"),
                    &scan_txids,
                )
        }
        OpenDnsClass::OpenRecursive => {
            scanner_answer_source(flows, SCAN_WHOAMI_TXID) == Some(cpe)
                && !relayed_beyond_home(flows, &debug_queries::whoami_akamai(), &scan_txids)
        }
        OpenDnsClass::DnatInterceptor => {
            flows.iter().any(|f| f.hops.iter().any(|h| h.action == "nat(dnat)"))
                && flows.iter().any(|f| f.hops.iter().any(|h| h.action == "mint"))
        }
        OpenDnsClass::Clean => !flows.iter().any(|f| {
            f.hops
                .iter()
                .any(|h| &*h.node == "scanner" && h.direction == FlowDirection::Response)
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::classification_fleet;

    #[test]
    fn taxonomy_examples_classify_as_named() {
        for (label, scenario) in HomeScenario::taxonomy_examples() {
            let truth = scenario.open_dns_class();
            assert_eq!(truth.label(), label);
            let device = classify_scenario(scenario);
            assert_eq!(device.class, truth, "scenario {label} misclassified");
            assert!(device.capture_ok, "capture disagrees for {label}");
        }
    }

    #[test]
    fn transparent_forwarder_records_the_foreign_source() {
        let (_, scenario) = HomeScenario::taxonomy_examples()
            .into_iter()
            .find(|(label, _)| *label == "transparent_forwarder")
            .expect("example exists");
        let queried = scenario.clone().build().addrs.cpe_public_v4;
        let device = classify_scenario(scenario);
        assert_eq!(device.class, OpenDnsClass::TransparentForwarder);
        let from = device.wrong_source.expect("mismatched source recorded");
        assert_ne!(from, IpAddr::V4(queried), "answer claimed to come from the queried device");
    }

    #[test]
    fn classification_fleet_devices_all_match_truth() {
        let fleet = classification_fleet(40, 7);
        let results = run_classification(&fleet, CampaignOptions::new(4), None);
        assert_eq!(results.len(), 40);
        for r in &results {
            assert_eq!(
                r.device.class, r.truth_class,
                "probe {} ({:?}) misclassified",
                r.probe.id, r.probe.flavor
            );
            assert!(r.device.capture_ok, "probe {} capture cross-check failed", r.probe.id);
        }
        // All five classes are actually present.
        let mut summary = ClassifySummary::default();
        for r in &results {
            summary.fold(r);
        }
        for class in OpenDnsClass::ALL {
            assert!(summary.truth.get(class) > 0, "{class} missing from fleet");
        }
        assert_eq!(summary.truth_mismatches, 0);
        assert_eq!(summary.capture_unconfirmed, 0);
    }

    #[test]
    fn streaming_summary_matches_collected_fold() {
        let fleet = classification_fleet(30, 3);
        let collected = run_classification(&fleet, CampaignOptions::new(2), None);
        let mut folded = ClassifySummary::default();
        for r in &collected {
            folded.fold(r);
        }
        let streamed = run_classification_timed(&fleet, CampaignOptions::new(5), None);
        assert_eq!(folded, streamed);
        assert_eq!(streamed.probes, 30);
        let text = streamed.to_string();
        assert!(text.contains("transparent_forwarder"));
    }

    #[test]
    fn summary_serializes_round_trip() {
        let fleet = classification_fleet(10, 1);
        let summary = run_classification_timed(&fleet, CampaignOptions::new(2), None);
        let json = serde_json::to_string(&summary).unwrap();
        let back: ClassifySummary = serde_json::from_str(&json).unwrap();
        assert_eq!(back, summary);
        assert_eq!(summary.classified.total() as u64, summary.probes);
        assert_eq!(summary.truth.total() as u64, summary.probes);
    }
}
