//! # locator
//!
//! The core contribution of *Home is Where the Hijacking is* (IMC 2021):
//! a three-step technique that detects transparent DNS interception and
//! localizes the interceptor — CPE, within the ISP, or beyond/unknown —
//! using nothing but ordinary DNS queries.
//!
//! The crate is transport-agnostic: [`HijackLocator`] drives any
//! [`QueryTransport`]. The companion crates provide a packet-level simulated
//! transport, and [`UdpTransport`] runs the same technique over a real
//! `UdpSocket`; both judge replies through one [`ReplyFilter`], and a
//! loopback bridge test runs the UDP transport against simulated homes.
//!
//! ```
//! use locator::{HijackLocator, LocatorConfig, MockTransport};
//!
//! let mut config = LocatorConfig::default();
//! config.cpe_public_v4 = Some("73.22.1.5".parse().unwrap());
//!
//! // A scripted network in which the CPE intercepts everything via DNAT.
//! let mut net = MockTransport::new();
//! net.standard_public_resolvers();
//! net.intercept_all_v4_with_forwarder("dnsmasq-2.85");
//! net.cpe_version_bind("73.22.1.5".parse().unwrap(), "dnsmasq-2.85");
//!
//! let report = HijackLocator::new(config).run(&mut net);
//! assert!(report.intercepted);
//! assert_eq!(report.location, Some(locator::InterceptorLocation::Cpe));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
mod detector;
pub mod dot;
mod investigator;
pub mod metrics;
mod mock;
mod prefix;
mod report;
mod resolvers;
pub mod side_checks;
pub mod trace;
mod transport;
pub mod ttl_scan;
mod udp_transport;

pub use detector::{describe_response, HijackLocator, LocatorConfig};
pub use investigator::{Investigation, InvestigationConfig, Investigator};
pub use metrics::{MetricsFolder, ProbeMetrics, StepMetrics};
pub use mock::{MockTransport, Respond};
pub use prefix::{IpPrefix, PrefixParseError};
pub use report::{
    BogonEvidence, BogonOutcome, Citations, CpeEvidence, EvidenceRef, InterceptionMatrix,
    InterceptorLocation, LocationTestResult, Observation, PerResolver, ProbeReport, Provenance,
    ResolverSet, SeqSet, StepProvenance, Transparency, Verdict, VersionBindAnswer,
};
pub use resolvers::{default_resolvers, shared_default_resolvers, PublicResolver, ResolverKey};
pub use trace::{Step, TraceEvent, TraceRecorder, TraceSink};
pub use transport::{
    query_with_retry, Filtered, QueryOptions, QueryOutcome, QueryTransport, ReplyFilter,
    RetriedQuery, TxidSequence,
};
pub use udp_transport::UdpTransport;
