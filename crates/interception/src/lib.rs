//! # interception
//!
//! Interception policy models and the single-home scenario builder for the
//! *Home is Where the Hijacking is* reproduction.
//!
//! A [`HomeScenario`] describes one household — CPE model, ISP, optional
//! in-AS middlebox, optional beyond-AS interceptor, v6 connectivity — and
//! [`HomeScenario::build`] turns it into a live packet-level world.
//! [`SimTransport`] then lets the `locator` crate's three-step technique
//! run against that world exactly as it would against the real Internet.
//!
//! Every scenario carries its [`GroundTruth`], so the reproduction can
//! score the technique's verdicts — including the paper's documented
//! limitation cases (§6, Appendix A).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod background;
mod flow;
mod isp;
mod replicate;
mod scenario;
mod timing;
mod transport;

pub use background::BackgroundClient;
pub use cpe::CpeModelKind;
pub use flow::{
    flow_rtt_us, flows_to_json, render_flows, FlowDirection, FlowHop, HopDetail, QueryFlow,
};
pub use isp::{IspProfile, MiddleboxSpec, RedirectTarget};
pub use replicate::ReplicatingInterceptor;
pub use resolver_sim::ResolverMode;
pub use scenario::{
    BuiltScenario, GroundTruth, HomeScenario, OpenDnsClass, Region, ScenarioAddrs, WorldTemplate,
};
pub use timing::{phase_label, ProbeTimingLog, RttSample, PHASE_COUNT};
pub use transport::{SimTransport, Vantage};
