//! # atlas-sim
//!
//! A RIPE-Atlas-like measurement platform for the *Home is Where the
//! Hijacking is* reproduction: a seeded probe-fleet generator with the
//! Atlas population skew (Europe/NA heavy, Comcast prominent, "geek bias"
//! Pi-holes), a parallel campaign runner that executes the three-step
//! technique from every responding probe, and aggregators that regenerate
//! the paper's Tables 4–5 and Figures 3–4 plus an accuracy analysis
//! against simulator ground truth.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod aggregate;
mod campaign;
mod chart;
mod classify;
mod flavor;
mod fleet;
mod metrics;
mod orgs;
mod raw;
mod telemetry;
mod timing;

pub use aggregate::{
    accuracy, figure3, figure4, retry_stats, table4, table5, table5_pattern, AccuracyStats,
    AggregateReport, CampaignSummary, Figure3, Figure3Bar, Figure4, Figure4Bar, RetryStats,
    Table4, Table4Row, Table5,
};
pub use campaign::{
    measure_probe, measure_probe_archived, run_campaign, run_campaign_captured,
    run_campaign_streaming, run_campaign_timed, CampaignOptions, ProbeResult,
};
pub use chart::{figure3_chart, figure4_chart};
pub use classify::{
    capture_consistent, classify_probe, classify_scenario, classify_with_transport,
    run_classification, run_classification_timed, ClassCounts, ClassifiedDevice,
    ClassifySummary, DeviceClassification, SCAN_A_TXID, SCAN_QNAME, SCAN_WHOAMI_TXID,
};
pub use metrics::{AsVerdicts, CampaignMetrics, MetricsRegistry};
pub use flavor::{region_of_country, Flavor};
pub use fleet::{
    classification_fleet, generate, scenario_for, Fleet, FleetConfig, ProbeSpec,
};
pub use orgs::{default_catalog, OrgSpec};
pub use raw::{RawMeasurement, RawQueryRecord, RecordingTransport, ReplayTransport};
pub use telemetry::{CampaignTelemetry, ProgressEvent};
pub use timing::{
    prometheus_exposition, CampaignTimings, NamedHistogram, TimingRegistry, VirtualTimings,
    WallTimings, VERDICT_LABELS, WALL_ATTEMPT, WALL_ENCODE, WALL_PROBE_TOTAL, WALL_WORLD_BUILD,
};
