//! Builds complete single-home worlds: probe → CPE → (middlebox) → ISP →
//! border → (beyond-ISP interceptor) → internet core → public resolver
//! sites.
//!
//! One scenario is one "RIPE Atlas probe" in one household; the fleet layer
//! builds thousands of these with different knobs. Every scenario carries
//! its ground truth so tests and the accuracy analysis can score the
//! locator against reality.

use crate::isp::{IspProfile, MiddleboxSpec, RedirectTarget};
use cpe::{CpeConfig, CpeDevice, CpeModelKind, DnsMode, WanMode};
use locator::{InterceptorLocation, LocatorConfig, ResolverKey};
use netsim::{
    Cidr, DnatRule, FaultProfile, FxHashMap, Host, IfaceId, NatEngine, NodeId, Proto, Router,
    SharedStr, SimDuration, SimScratch, Simulator,
};
use resolver_sim::{
    ChaosPolicy, PublicBrand, PublicResolverSite, RecursiveResolver, ResolveCtx, ResolverMode,
    ResolverProfile, SiteProfile, SoftwareProfile, ZoneDb,
};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// Geographic region of the probe; selects which anycast site it reaches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Region {
    /// North America, east.
    NaEast,
    /// North America, west.
    NaWest,
    /// Europe.
    Europe,
    /// Asia.
    Asia,
    /// South America.
    SouthAmerica,
    /// Africa.
    Africa,
    /// Oceania.
    Oceania,
}

impl Region {
    /// Every region, in declaration order.
    pub const ALL: [Region; 7] = [
        Region::NaEast,
        Region::NaWest,
        Region::Europe,
        Region::Asia,
        Region::SouthAmerica,
        Region::Africa,
        Region::Oceania,
    ];

    /// IATA code of the region's anycast site.
    pub fn iata(self) -> &'static str {
        match self {
            Region::NaEast => "IAD",
            Region::NaWest => "SFO",
            Region::Europe => "AMS",
            Region::Asia => "SIN",
            Region::SouthAmerica => "GRU",
            Region::Africa => "JNB",
            Region::Oceania => "SYD",
        }
    }
}

/// The open-DNS taxonomy a WAN-side scanner sorts devices into
/// (Nawrocki et al.; the scanner-mode campaign's classification target).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, serde::Serialize, serde::Deserialize,
)]
pub enum OpenDnsClass {
    /// Relays upstream preserving the (spoofed) client source; the
    /// upstream answers the scanner from an address it never queried.
    TransparentForwarder,
    /// Relays upstream with its own source and answers the scanner itself.
    OpenForwarder,
    /// Resolves queries itself; reflector names reveal its own egress.
    OpenRecursive,
    /// Port 53 serves no outside clients, but outbound queries from the
    /// home are DNAT-captured (the XB6 pattern).
    DnatInterceptor,
    /// No scanner-visible DNS service and no interception.
    Clean,
}

impl OpenDnsClass {
    /// All classes, in a stable reporting order.
    pub const ALL: [OpenDnsClass; 5] = [
        OpenDnsClass::TransparentForwarder,
        OpenDnsClass::OpenForwarder,
        OpenDnsClass::OpenRecursive,
        OpenDnsClass::DnatInterceptor,
        OpenDnsClass::Clean,
    ];

    /// Stable snake_case label (aggregate JSON keys).
    pub fn label(self) -> &'static str {
        match self {
            OpenDnsClass::TransparentForwarder => "transparent_forwarder",
            OpenDnsClass::OpenForwarder => "open_forwarder",
            OpenDnsClass::OpenRecursive => "open_recursive",
            OpenDnsClass::DnatInterceptor => "dnat_interceptor",
            OpenDnsClass::Clean => "clean",
        }
    }
}

impl std::fmt::Display for OpenDnsClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Ground truth of a scenario.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GroundTruth {
    /// No interceptor anywhere.
    NotIntercepted,
    /// The CPE intercepts; carries its true version string when revealed.
    Cpe {
        /// The forwarder's version.bind string (None for stealth models).
        version: Option<SharedStr>,
    },
    /// A middlebox inside the client's AS intercepts.
    IspMiddlebox,
    /// ISP-operated interception whose resolver sits outside the client AS
    /// (§6: the technique will say "beyond/unknown").
    IspButResolverOutsideAs,
    /// An interceptor beyond the client's AS.
    BeyondIsp,
}

impl GroundTruth {
    /// True when any interception exists.
    pub fn intercepted(&self) -> bool {
        !matches!(self, GroundTruth::NotIntercepted)
    }
}

/// Full scenario specification.
#[derive(Debug, Clone)]
pub struct HomeScenario {
    /// RNG seed for the simulator.
    pub seed: u64,
    /// The household's ISP.
    pub isp: IspProfile,
    /// Index of this customer within the ISP (drives address allocation).
    pub customer_index: u32,
    /// CPE model.
    pub cpe_model: CpeModelKind,
    /// Whether a CPE interceptor also captures IPv6 (rare, Table 4).
    pub cpe_intercept_v6: bool,
    /// In-AS middlebox interception.
    pub middlebox: Option<MiddleboxSpec>,
    /// Beyond-AS interception.
    pub beyond: Option<MiddleboxSpec>,
    /// Whether the home has IPv6 connectivity.
    pub probe_has_v6: bool,
    /// Probe's region (anycast site selection).
    pub region: Region,
    /// Faults on the home's upstream link, the CPE's side of the ISP edge:
    /// - uniform loss (flaky probes; lost queries become timeouts, which
    ///   the technique treats conservatively);
    /// - burst loss: line flaps that eat several consecutive packets, the
    ///   failure mode a single retry rides out but uniform loss cannot
    ///   reproduce;
    /// - duplication (duplicate responses must not double-count or confuse
    ///   the locator);
    /// - late delivery: responses that arrive after the stub's timeout.
    ///   Each attempt asks from a fresh source port, so a later window's
    ///   port check discards a late response before any receive filter
    ///   sees it.
    pub upstream: FaultProfile,
    /// Run the ISP resolver as a *real iterative resolver* that walks
    /// packet-level authoritative servers (root → authoritative) instead
    /// of the instant zone-database recursor. Slower per probe; used by
    /// fidelity tests. Only honored with `ResolverMode::Normal`.
    pub iterative_isp_resolver: bool,
    /// Number of extra LAN devices generating background DNS chatter
    /// toward 8.8.8.8 during the measurement (smart-home realism; they sit
    /// with the probe behind a LAN switch).
    pub background_clients: u32,
    /// An optional second router between the probe and the CPE (the
    /// "user router behind ISP modem" double-NAT home). The inner router
    /// masquerades onto the outer LAN; its DNS stack (e.g. a Pi-hole) can
    /// intercept just like the outer CPE's.
    pub inner_router: Option<CpeModelKind>,
}

impl HomeScenario {
    /// A clean household: plain CPE, no interception anywhere.
    pub fn clean() -> HomeScenario {
        HomeScenario {
            seed: 1,
            isp: IspProfile::comcast_like(),
            customer_index: 0,
            cpe_model: CpeModelKind::Plain,
            cpe_intercept_v6: false,
            middlebox: None,
            beyond: None,
            probe_has_v6: true,
            region: Region::NaEast,
            upstream: FaultProfile::default(),
            iterative_isp_resolver: false,
            background_clients: 0,
            inner_router: None,
        }
    }

    /// The §5 case study household.
    pub fn xb6_case_study() -> HomeScenario {
        HomeScenario { cpe_model: CpeModelKind::Xb6Buggy, ..HomeScenario::clean() }
    }

    /// An ISP that intercepts everything at a middlebox.
    pub fn isp_middlebox() -> HomeScenario {
        HomeScenario {
            middlebox: Some(MiddleboxSpec::redirect_all_to_isp()),
            ..HomeScenario::clean()
        }
    }

    /// The three §3.4 worked-example probes, as `(probe id, scenario)`
    /// pairs: 1053 is clean, 11992 sits behind an ISP middlebox whose
    /// resolver answers CHAOS with NOTIMP, and 21823's CPE runs an
    /// unbound-based interceptor. Shared by the repro binary's Tables 2–3
    /// rendering and the golden-trace suite so both always measure the
    /// same households.
    pub fn worked_examples() -> Vec<(&'static str, HomeScenario)> {
        vec![
            ("1053", HomeScenario::clean()),
            ("11992", {
                let mut s = HomeScenario::isp_middlebox();
                s.isp.resolver_version = "NOTIMP".into();
                s.cpe_model = CpeModelKind::OpenWanForwarderNxDomain;
                s
            }),
            (
                "21823",
                HomeScenario {
                    cpe_model: CpeModelKind::UnboundInterceptor { version: "1.9.0".into() },
                    ..HomeScenario::clean()
                },
            ),
        ]
    }

    /// One canonical scenario per open-DNS taxonomy class, as
    /// `(name, scenario)` pairs. The golden classification suite and the
    /// scanner-mode campaign's mixed fleets draw from exactly these shapes.
    pub fn taxonomy_examples() -> Vec<(&'static str, HomeScenario)> {
        vec![
            (
                "transparent_forwarder",
                HomeScenario {
                    cpe_model: CpeModelKind::TransparentForwarder { version: "2.80".into() },
                    ..HomeScenario::clean()
                },
            ),
            (
                "open_forwarder",
                HomeScenario {
                    cpe_model: CpeModelKind::OpenWanForwarder { version: "2.80".into() },
                    ..HomeScenario::clean()
                },
            ),
            (
                "open_recursive",
                HomeScenario {
                    cpe_model: CpeModelKind::OpenRecursive { version: "2.80".into() },
                    ..HomeScenario::clean()
                },
            ),
            ("dnat_interceptor", HomeScenario::xb6_case_study()),
            ("clean", HomeScenario::clean()),
        ]
    }

    /// The open-DNS taxonomy class this household's CPE belongs to —
    /// scanner-vantage ground truth for the classification campaign. A
    /// device's WAN behaviour decides it (Nawrocki et al.), read from the
    /// catalog's allocation-free facts about the model.
    pub fn open_dns_class(&self) -> OpenDnsClass {
        match (self.cpe_model.wan_service(), self.cpe_model.intercepts()) {
            (Some(WanMode::Transparent), _) => OpenDnsClass::TransparentForwarder,
            (Some(WanMode::OpenRelay), _) => OpenDnsClass::OpenForwarder,
            (Some(WanMode::Recurse), _) => OpenDnsClass::OpenRecursive,
            (_, true) => OpenDnsClass::DnatInterceptor,
            (_, false) => OpenDnsClass::Clean,
        }
    }

    /// Ground truth implied by the specification. CPE interception shadows
    /// anything further out because queries meet the CPE first.
    pub fn truth(&self) -> GroundTruth {
        let (cpe, inner) = self.cpe_configs();
        self.truth_of(&cpe, inner.as_ref())
    }

    /// [`HomeScenario::truth`] given the home's CPE configurations: an
    /// intercepting CPE's version is what its forwarder answers to
    /// `version.bind`.
    fn truth_of(&self, cpe: &CpeConfig, inner: Option<&CpeConfig>) -> GroundTruth {
        let intercepting = |config: &CpeConfig| {
            config.dns.intercepts().then(|| GroundTruth::Cpe {
                version: config.dns.forwarder().and_then(|f| match &f.profile.version_bind {
                    ChaosPolicy::Text(version) => Some(version.clone()),
                    _ => None,
                }),
            })
        };
        // The inner router meets queries first.
        if let Some(truth) = inner.and_then(intercepting).or_else(|| intercepting(cpe)) {
            return truth;
        }
        if self.middlebox.is_some() {
            if self.isp.resolver_in_as {
                return GroundTruth::IspMiddlebox;
            }
            return GroundTruth::IspButResolverOutsideAs;
        }
        if self.beyond.is_some() {
            return GroundTruth::BeyondIsp;
        }
        GroundTruth::NotIntercepted
    }

    /// What the technique is *expected* to output for this scenario,
    /// including its documented limitations (stealth CPE → within-ISP,
    /// resolver-outside-AS → beyond/unknown).
    pub fn expected_location(&self) -> Option<InterceptorLocation> {
        self.expected_location_for(&self.truth())
    }

    /// [`HomeScenario::expected_location`] given this scenario's truth.
    fn expected_location_for(&self, truth: &GroundTruth) -> Option<InterceptorLocation> {
        match truth {
            GroundTruth::NotIntercepted => None,
            GroundTruth::Cpe { version: Some(_) } => Some(InterceptorLocation::Cpe),
            // A version-hiding CPE interceptor still answers bogon queries
            // (the DNAT is at the CPE, inside the AS): within-ISP.
            GroundTruth::Cpe { version: None } => Some(InterceptorLocation::WithinIsp),
            GroundTruth::IspMiddlebox => {
                // Step 3 localizes to the ISP only if the middlebox's rules
                // would capture a query to a *bogon* destination — i.e. an
                // active rule with no destination match-list. A targeted
                // interceptor (match-list restricted) lets the bogon query
                // die at the border, so the technique can only say
                // beyond/unknown.
                let spec = self.middlebox.as_ref().expect("truth said middlebox");
                let v4_catches_bogon =
                    spec.redirect_v4.is_some() && !spec.match_dsts.iter().any(|a| a.is_ipv4());
                let v6_catches_bogon = self.probe_has_v6
                    && spec.redirect_v6.is_some()
                    && !spec.match_dsts.iter().any(|a| !a.is_ipv4());
                if v4_catches_bogon || v6_catches_bogon {
                    Some(InterceptorLocation::WithinIsp)
                } else {
                    Some(InterceptorLocation::BeyondOrUnknown)
                }
            }
            GroundTruth::IspButResolverOutsideAs | GroundTruth::BeyondIsp => {
                Some(InterceptorLocation::BeyondOrUnknown)
            }
        }
    }
}

/// Addresses a built scenario exposes to the measurement harness.
#[derive(Debug, Clone, Copy)]
pub struct ScenarioAddrs {
    /// The probe's LAN IPv4 address.
    pub probe_v4: Ipv4Addr,
    /// The probe's global IPv6 address, if the home has v6.
    pub probe_v6: Option<Ipv6Addr>,
    /// The CPE's public IPv4 address (what RIPE Atlas reports as the
    /// probe's public address).
    pub cpe_public_v4: Ipv4Addr,
    /// The CPE's public IPv6 address.
    pub cpe_public_v6: Option<Ipv6Addr>,
    /// The outside scanner's IPv4 address (the WAN-side measurement
    /// vantage of the open-DNS taxonomy campaign).
    pub scanner_v4: Ipv4Addr,
}

/// A constructed world ready to measure.
pub struct BuiltScenario {
    /// The simulator holding every device.
    pub sim: Simulator,
    /// The probe host's node id.
    pub probe: NodeId,
    /// The CPE's node id.
    pub cpe: NodeId,
    /// The outside scanner host's node id (WAN-vantage queries).
    pub scanner: NodeId,
    /// Relevant addresses.
    pub addrs: ScenarioAddrs,
    /// Ground truth.
    pub truth: GroundTruth,
    /// The technique's expected output.
    pub expected: Option<InterceptorLocation>,
    /// Background chatter devices, if any were requested.
    pub background: Vec<NodeId>,
}

impl BuiltScenario {
    /// A [`LocatorConfig`] matching this scenario: the CPE public addresses
    /// filled in and IPv6 testing enabled per the home's connectivity.
    pub fn locator_config(&self) -> LocatorConfig {
        LocatorConfig {
            cpe_public_v4: Some(IpAddr::V4(self.addrs.cpe_public_v4)),
            cpe_public_v6: self.addrs.cpe_public_v6.map(IpAddr::V6),
            test_ipv6: self.addrs.probe_v6.is_some(),
            ..LocatorConfig::default()
        }
    }
}

/// The immutable world every scenario shares: the standard zone database,
/// the public-resolver table, the root-server address list, what each
/// region's worlds share, and the recursive resolvers' profiles.
///
/// Building one household used to reconstruct all of this from scratch —
/// O(fleet × world) redundant work on a survey's hottest path. A campaign
/// builds (or borrows) one template up front and every per-probe
/// [`HomeScenario::build_with`] call clones only `Arc`s and a handful of
/// addresses out of it.
pub struct WorldTemplate {
    /// The standard-world zone database all simulated resolvers answer from.
    pub zonedb: Arc<ZoneDb>,
    /// The paper's four public resolvers (service addresses + egress).
    pub resolvers: Arc<[locator::PublicResolver]>,
    /// Root-server addresses for the hostname.bind baseline, shared with
    /// every world's root server.
    pub root_addrs: Arc<[IpAddr]>,
    /// What each region's worlds share, indexed by [`Region::ALL`] order
    /// and filled the first time a world in the region is built, so
    /// building a template with [`WorldTemplate::new`] does no more work
    /// than before; [`WorldTemplate::shared`] fills them all.
    regions: [OnceLock<RegionParts>; Region::ALL.len()],
    /// The alternate resolver's profile, built the first time a world
    /// needs it.
    alt_resolver: OnceLock<Arc<ResolverProfile>>,
    /// Each ISP's resolver and filter resolver profile, built the first
    /// time a world needs it, at most [`MAX_ISP_PROFILES`] of them.
    isp_resolvers: Mutex<FxHashMap<IspResolverKey, Arc<ResolverProfile>>>,
}

/// How many ISP resolver profiles one template interns. A fleet needs a
/// few dozen; a world past the cap gets a profile of its own.
const MAX_ISP_PROFILES: usize = 1024;

/// What an ISP resolver's profile is built from, by value. Fleets are
/// regenerated with fresh `Arc`s (a freed pointer can be reused), and
/// flavors change an ISP's resolver mode and egress per probe, so neither
/// a pointer nor the [`IspProfile`] itself can name a profile.
#[derive(PartialEq, Eq, Hash)]
enum IspResolverKey {
    /// The ISP's resolver.
    Resolver {
        isp: Arc<str>,
        service: (Ipv4Addr, Ipv6Addr),
        egress: (Ipv4Addr, Ipv6Addr),
        version: Arc<str>,
        mode: ResolverMode,
    },
    /// The refusing resolver a filtering middlebox sends blocked queries
    /// to, addressed in the ISP's prefix.
    Filter { isp: Arc<str>, v4_prefix: Ipv4Addr, version: Arc<str> },
}

impl IspResolverKey {
    fn resolver(isp: &IspProfile) -> IspResolverKey {
        IspResolverKey::Resolver {
            isp: Arc::clone(&isp.name),
            service: (isp.resolver_v4, isp.resolver_v6),
            egress: (isp.resolver_egress_v4, isp.resolver_egress_v6),
            version: Arc::clone(&isp.resolver_version),
            mode: isp.resolver_mode,
        }
    }

    fn filter(isp: &IspProfile) -> IspResolverKey {
        IspResolverKey::Filter {
            isp: Arc::clone(&isp.name),
            v4_prefix: isp.v4_prefix,
            version: Arc::clone(&isp.resolver_version),
        }
    }

    /// The profile the key names, built from the key alone.
    fn profile(&self, zonedb: &Arc<ZoneDb>) -> ResolverProfile {
        match self {
            IspResolverKey::Resolver { isp, service, egress, version, mode } => {
                ResolverProfile::new(
                    [&**isp, "-resolver"].concat(),
                    [IpAddr::V4(service.0), IpAddr::V6(service.1)],
                    ResolveCtx { egress_v4: Some(egress.0), egress_v6: Some(egress.1) },
                    Arc::clone(zonedb),
                    SoftwareProfile::custom(version),
                    *mode,
                )
            }
            IspResolverKey::Filter { isp, v4_prefix, version } => {
                let (service, egress) = filter_resolver_addrs(*v4_prefix);
                ResolverProfile::new(
                    [&**isp, "-filter-resolver"].concat(),
                    [IpAddr::V4(service)],
                    ResolveCtx::v4(egress),
                    Arc::clone(zonedb),
                    SoftwareProfile::custom(version),
                    ResolverMode::RefuseAll,
                )
            }
        }
    }
}

/// The filter resolver's service address and egress in the ISP prefix
/// `v4_prefix`: its `.76.76.76` and `.76.76.77`.
fn filter_resolver_addrs(v4_prefix: Ipv4Addr) -> (Ipv4Addr, Ipv4Addr) {
    let base = u32::from(v4_prefix) + (76 << 16) + (76 << 8);
    (Ipv4Addr::from(base + 76), Ipv4Addr::from(base + 77))
}

/// What every world in one region shares: the public-resolver sites its
/// probes reach and its root server, each with the memo of replies it has
/// written. Each probe's site and root server then allocate nothing.
struct RegionParts {
    /// One site per template resolver, in the template's order.
    sites: Vec<Arc<SiteProfile>>,
    /// The root server: a `hostname.bind` answer naming the region's root
    /// instance, and a refusal for every IN query, as real roots do.
    root: Arc<ResolverProfile>,
}

impl RegionParts {
    fn new(template: &WorldTemplate, region: Region) -> RegionParts {
        let sites = template
            .resolvers
            .iter()
            .map(|public| {
                let brand = brand_of(public.key);
                let (eg4, eg6) = brand_egress(brand);
                Arc::new(SiteProfile::new(
                    brand,
                    public.v4.iter().chain(public.v6.iter()).copied(),
                    region.iata(),
                    84,
                    ResolveCtx { egress_v4: Some(eg4), egress_v6: Some(eg6) },
                    Arc::clone(&template.zonedb),
                ))
            })
            .collect();
        let mut software = SoftwareProfile::custom("9.16.15");
        software.id_server = ChaosPolicy::Text(SharedStr::shared(format!(
            "a1.{}.root-servers.org",
            region.iata().to_ascii_lowercase()
        )));
        let root = Arc::new(ResolverProfile::new(
            "root-server",
            Arc::clone(&template.root_addrs),
            ResolveCtx::v4(Ipv4Addr::new(198, 41, 0, 10)),
            Arc::clone(&template.zonedb),
            software,
            ResolverMode::RefuseAll,
        ));
        RegionParts { sites, root }
    }
}

/// The world authoritative server's address (iterative-resolver fidelity
/// mode): the glue of every root delegation.
const WORLD_AUTH_V4: Ipv4Addr = Ipv4Addr::new(192, 0, 35, 1);

/// The probe's address on the CPE's LAN; in a double-NAT home, the inner
/// router's WAN address.
const LAN_PROBE_V4: Ipv4Addr = Ipv4Addr::new(192, 168, 1, 100);

impl WorldTemplate {
    /// Builds a fresh template, constructing every piece from scratch.
    ///
    /// Campaigns should prefer [`WorldTemplate::shared`]; this constructor
    /// exists for callers that need an isolated copy — notably the
    /// build-cost benchmarks, which measure exactly this work.
    pub fn new() -> WorldTemplate {
        WorldTemplate {
            zonedb: Arc::new(ZoneDb::standard_world()),
            resolvers: locator::default_resolvers().into(),
            root_addrs: locator::baseline::default_root_addrs(),
            regions: Default::default(),
            alt_resolver: OnceLock::new(),
            isp_resolvers: Mutex::default(),
        }
    }

    /// The process-wide shared template. Built once on first use; every
    /// subsequent scenario build anywhere in the process reuses it. It
    /// builds every region's parts up front, so no campaign pays for a
    /// region it is the first to reach.
    pub fn shared() -> Arc<WorldTemplate> {
        static SHARED: OnceLock<Arc<WorldTemplate>> = OnceLock::new();
        Arc::clone(SHARED.get_or_init(|| {
            let template = WorldTemplate {
                zonedb: Arc::new(ZoneDb::standard_world()),
                resolvers: locator::shared_default_resolvers(),
                root_addrs: locator::baseline::default_root_addrs(),
                regions: Default::default(),
                alt_resolver: OnceLock::new(),
                isp_resolvers: Mutex::default(),
            };
            for region in Region::ALL {
                template.region(region);
            }
            Arc::new(template)
        }))
    }

    /// What the worlds of `region` share, built on first use.
    fn region(&self, region: Region) -> &RegionParts {
        // `Region::ALL` lists the regions in declaration order.
        self.regions[region as usize].get_or_init(|| RegionParts::new(self, region))
    }

    /// The ISP resolver and filter resolver profiles `keys` name, looked
    /// up under one lock: each is built and interned the first time a
    /// world needs it. Past the cap, a world gets a profile of its own.
    fn isp_resolvers(
        &self,
        keys: [Option<IspResolverKey>; 2],
    ) -> [Option<Arc<ResolverProfile>>; 2] {
        if keys.iter().all(Option::is_none) {
            return keys.map(|_| None);
        }
        let mut interned = self.isp_resolvers.lock().unwrap_or_else(PoisonError::into_inner);
        keys.map(|key| {
            let key = key?;
            if let Some(profile) = interned.get(&key) {
                return Some(Arc::clone(profile));
            }
            let profile = Arc::new(key.profile(&self.zonedb));
            if interned.len() < MAX_ISP_PROFILES {
                interned.insert(key, Arc::clone(&profile));
            }
            Some(profile)
        })
    }
}

impl Default for WorldTemplate {
    fn default() -> Self {
        WorldTemplate::new()
    }
}

/// Per-brand egress addresses (v4, v6) for public resolver sites.
fn brand_egress(brand: PublicBrand) -> (Ipv4Addr, Ipv6Addr) {
    match brand {
        PublicBrand::Cloudflare => {
            (Ipv4Addr::new(172, 68, 1, 1), "2400:cb00::1".parse().expect("static address"))
        }
        PublicBrand::Google => {
            (Ipv4Addr::new(172, 253, 226, 35), "2404:6800::35".parse().expect("static address"))
        }
        PublicBrand::Quad9 => {
            (Ipv4Addr::new(74, 63, 16, 10), "2620:171::10".parse().expect("static address"))
        }
        PublicBrand::OpenDns => {
            (Ipv4Addr::new(146, 112, 1, 1), "2a04:e4c0::1".parse().expect("static address"))
        }
    }
}

fn brand_of(key: ResolverKey) -> PublicBrand {
    match key {
        ResolverKey::Cloudflare => PublicBrand::Cloudflare,
        ResolverKey::Google => PublicBrand::Google,
        ResolverKey::Quad9 => PublicBrand::Quad9,
        ResolverKey::OpenDns => PublicBrand::OpenDns,
    }
}

impl HomeScenario {
    /// Builds the world against the process-wide shared [`WorldTemplate`].
    pub fn build(&self) -> BuiltScenario {
        self.build_with(&WorldTemplate::shared())
    }

    /// Builds the world, sourcing all immutable shared state from
    /// `template`. Campaign runners hold one `Arc<WorldTemplate>` and call
    /// this per probe so the zone database, resolver table, and root list
    /// are constructed once instead of once per household.
    pub fn build_with(&self, template: &WorldTemplate) -> BuiltScenario {
        self.build_with_scratch(template, SimScratch::default())
    }

    /// Like [`HomeScenario::build_with`], but recycles the container
    /// capacity in `scratch` (recovered from a previous simulator via
    /// [`Simulator::into_scratch`]). Campaign workers use this so each
    /// probe's world is built into already-sized allocations instead of
    /// growing a fresh one from zero.
    pub fn build_with_scratch(
        &self,
        template: &WorldTemplate,
        scratch: SimScratch,
    ) -> BuiltScenario {
        let isp = &self.isp;
        // "<ISP>-edge" and the like, in one allocation each (`format!`
        // would grow the string twice).
        let isp_device = |role: &str| [&*isp.name, role].concat();
        let mut sim = Simulator::with_scratch(self.seed, scratch);
        let zonedb = Arc::clone(&template.zonedb);

        // --- Addressing -------------------------------------------------
        let wan_v4 = isp.customer_v4(self.customer_index);
        let (wan_v6, lan_v6, probe_v6, lan_prefix_v6) = isp.customer_v6(self.customer_index);
        let home_v6 = self.probe_has_v6;

        // --- Probe ------------------------------------------------------
        // In a double-NAT home the probe lives on the inner LAN
        // (192.168.2.0/24) behind the user's own router.
        let inner_lan_probe_v4 = Ipv4Addr::new(192, 168, 2, 100);
        let effective_probe_v4 =
            if self.inner_router.is_some() { inner_lan_probe_v4 } else { LAN_PROBE_V4 };
        let mut probe_host = Host::new("probe", [IpAddr::V4(effective_probe_v4)]);
        if home_v6 {
            probe_host.add_addr(IpAddr::V6(probe_v6));
        }
        let probe = sim.add_device(probe_host);

        // --- CPE ----------------------------------------------------------
        let (mut cpe_config, inner_config) = self.cpe_configs();
        let truth = self.truth_of(&cpe_config, inner_config.as_ref());
        if home_v6 {
            cpe_config = cpe_config.with_v6(wan_v6, lan_v6, lan_prefix_v6);
            if self.cpe_intercept_v6 {
                if let DnsMode::Interceptor(spec, intercept) = &mut cpe_config.dns {
                    intercept.intercept_v6 = true;
                    spec.upstream_v6 = Some(IpAddr::V6(isp.resolver_v6));
                }
            }
        }
        // The zone database rides along for open-recursive models; for
        // everything else it is an unused Arc clone.
        let cpe = sim.add_device(CpeDevice::new(cpe_config).with_zonedb(Arc::clone(&zonedb)));

        // --- Optional inner (user) router ---------------------------------
        let inner_node = inner_config.map(|mut inner_config| {
            if home_v6 {
                // IPv6 is routed, not NATed: the inner router simply
                // forwards the delegated /64 onward.
                let base = match lan_prefix_v6 {
                    Cidr::V6 { addr, .. } => u128::from(addr),
                    Cidr::V4 { .. } => unreachable!("v6 prefix"),
                };
                inner_config = inner_config.with_v6(
                    Ipv6Addr::from(base + 3),
                    Ipv6Addr::from(base + 2),
                    lan_prefix_v6,
                );
            }
            sim.add_device(CpeDevice::new(inner_config))
        });

        // --- ISP resolver -------------------------------------------------
        // Fidelity mode: a real iterative resolver walking packet-level
        // authoritative servers. Otherwise (the fleet-scale default) an
        // instant zone-database recursor on the ISP's shared profile. A
        // middlebox that blocks some resolvers routes their traffic to a
        // dedicated refusing resolver (§4.1.2's "Both" pattern).
        let use_iterative =
            self.iterative_isp_resolver && isp.resolver_mode == ResolverMode::Normal;
        let root_auth_v4: Ipv4Addr = Ipv4Addr::new(198, 41, 0, 8);
        let (filter_resolver_v4, _) = filter_resolver_addrs(isp.v4_prefix);
        let needs_filter_resolver =
            self.middlebox.as_ref().map(|m| !m.refused_dsts.is_empty()).unwrap_or(false);
        let [isp_profile, filter_profile] = template.isp_resolvers([
            (!use_iterative).then(|| IspResolverKey::resolver(isp)),
            needs_filter_resolver.then(|| IspResolverKey::filter(isp)),
        ]);
        let isp_resolver = match isp_profile {
            Some(profile) => sim.add_device(RecursiveResolver::with_profile(profile)),
            None => sim.add_device(resolver_sim::IterativeResolver::new(
                isp_device("-resolver"),
                [IpAddr::V4(isp.resolver_v4), IpAddr::V6(isp.resolver_v6)],
                IpAddr::V4(isp.resolver_egress_v4),
                vec![IpAddr::V4(root_auth_v4)],
                SoftwareProfile::custom(&isp.resolver_version),
            )),
        };
        let filter_resolver_node =
            filter_profile.map(|profile| sim.add_device(RecursiveResolver::with_profile(profile)));

        // --- Routers --------------------------------------------------------
        // Their tables are derived from the links once the world is wired.
        let mut edge = Router::new(isp_device("-edge"));
        edge.add_addr(IpAddr::V4(Ipv4Addr::from(u32::from(isp.v4_prefix) + 1)));
        let edge = sim.add_device(edge);

        let mut border = Router::new(isp_device("-border"));
        border.add_addr(IpAddr::V4(Ipv4Addr::from(u32::from(isp.v4_prefix) + 2)));
        border.drop_bogon_destinations(true);
        let border = sim.add_device(border);

        let region = template.region(self.region);
        let mut core = Router::new("internet-core");
        core.add_addr(IpAddr::V4(Ipv4Addr::new(62, 115, 0, 1)));
        let core = sim.add_device(core);

        // --- Public resolver sites ------------------------------------------
        // Each site's profile comes shared from the template's region
        // entry. The sites take consecutive node ids from the first.
        let first_site = NodeId(sim.node_count());
        for profile in &region.sites {
            sim.add_device(PublicResolverSite::with_profile(Arc::clone(profile)));
        }

        // --- Root servers (for the hostname.bind baseline) -------------------
        // One anycast root node answering CHAOS hostname.bind with a
        // root-style identity and refusing recursion, as real roots do.
        let root_node = sim.add_device(RecursiveResolver::with_profile(Arc::clone(&region.root)));

        // --- Authoritative servers (iterative-resolver fidelity mode) -------
        // The world server serves every zone of the template's database and
        // the root delegates each apex to it, so the iterative walk answers
        // what the zone-database recursor does.
        let auth_nodes = use_iterative.then(|| {
            use resolver_sim::{AuthoritativeServer, Delegation, ServedZone, StaticZone};
            let world_v4 = IpAddr::V4(WORLD_AUTH_V4);
            let mut auth = AuthoritativeServer::new("world-auth", [world_v4]);
            let mut delegations = Vec::new();
            for (apex, zone) in template.zonedb.zones() {
                let ns =
                    dns_wire::Name::from_labels(std::iter::once(&b"ns1"[..]).chain(apex.labels()))
                        .expect("a standard apex has room for one more label");
                delegations
                    .push(Delegation { child: apex.clone(), nameservers: vec![(ns, world_v4)] });
                auth.serve(ServedZone {
                    apex: apex.clone(),
                    zone: Arc::clone(zone),
                    delegations: Vec::new(),
                });
            }
            let mut root_auth = AuthoritativeServer::new("root-auth", [IpAddr::V4(root_auth_v4)]);
            root_auth.serve(ServedZone {
                apex: dns_wire::Name::root(),
                zone: Arc::new(StaticZone::new()),
                delegations,
            });
            (sim.add_device(root_auth), sim.add_device(auth))
        });

        // --- Optional interceptors ------------------------------------------
        let middlebox_node = self.middlebox.as_ref().map(|spec| {
            let redirect_v4 = spec.redirect_v4.as_ref().map(|t| self.redirect_addr(t));
            let redirect_v6 = spec.redirect_v6.as_ref().map(|t| self.redirect_addr_v6(t));
            let mut mb = Router::new(isp_device("-middlebox"));
            mb.add_addr(IpAddr::V4(Ipv4Addr::from(u32::from(isp.v4_prefix) + 3)));
            let mut nat = NatEngine::new();
            if !spec.refused_dsts.is_empty() {
                // Blocked resolvers first (first match wins).
                nat.add_dnat(DnatRule {
                    proto: Proto::Udp,
                    dst_port: 53,
                    exempt_dsts: Vec::new(),
                    match_dsts: spec.refused_dsts.iter().filter(|a| a.is_ipv4()).copied().collect(),
                    to_addr: IpAddr::V4(filter_resolver_v4),
                    to_port: None,
                });
            }
            if let Some(r4) = redirect_v4 {
                nat.add_dnat(DnatRule {
                    proto: Proto::Udp,
                    dst_port: 53,
                    exempt_dsts: spec.exempt_dsts.clone(),
                    match_dsts: spec.match_dsts.iter().filter(|a| a.is_ipv4()).copied().collect(),
                    to_addr: r4,
                    to_port: None,
                });
            }
            if let Some(r6) = redirect_v6 {
                nat.add_dnat(DnatRule {
                    proto: Proto::Udp,
                    dst_port: 53,
                    exempt_dsts: spec.exempt_dsts.clone(),
                    match_dsts: spec.match_dsts.iter().filter(|a| !a.is_ipv4()).copied().collect(),
                    to_addr: r6,
                    to_port: None,
                });
            }
            mb.set_nat(nat, [IfaceId(0)]);
            sim.add_device(mb)
        });

        // A beyond-ISP interceptor needs an alternate resolver out in the
        // core (unless it points at an ISP resolver that lives out there).
        let mut alt_resolver_needed = false;
        let beyond_node = self.beyond.as_ref().map(|spec| {
            let redirect = match spec.redirect_v4.as_ref().unwrap_or(&RedirectTarget::IspResolver) {
                RedirectTarget::IspResolver => IpAddr::V4(isp.resolver_v4),
                RedirectTarget::Custom(a) => {
                    alt_resolver_needed = true;
                    *a
                }
            };
            let mut bx = Router::new("beyond-interceptor");
            bx.add_addr(IpAddr::V4(Ipv4Addr::new(185, 194, 112, 1)));
            let mut nat = NatEngine::new();
            nat.add_dnat(DnatRule {
                proto: Proto::Udp,
                dst_port: 53,
                exempt_dsts: spec.exempt_dsts.clone(),
                match_dsts: spec.match_dsts.iter().filter(|a| a.is_ipv4()).copied().collect(),
                to_addr: redirect,
                to_port: None,
            });
            bx.set_nat(nat, [IfaceId(0)]);
            sim.add_device(bx)
        });

        let alt_resolver_node = alt_resolver_needed.then(|| {
            let profile = template.alt_resolver.get_or_init(|| {
                Arc::new(ResolverProfile::new(
                    "alt-resolver",
                    [IpAddr::V4(Ipv4Addr::new(185, 194, 112, 32))],
                    ResolveCtx::v4(Ipv4Addr::new(185, 194, 112, 33)),
                    Arc::clone(&template.zonedb),
                    SoftwareProfile::unbound("1.9.0"),
                    ResolverMode::Normal,
                ))
            });
            sim.add_device(RecursiveResolver::with_profile(Arc::clone(profile)))
        });

        // --- Wiring ----------------------------------------------------------
        let ms = SimDuration::from_millis;
        // LAN side: directly cabled, or through a switch when background
        // devices share the LAN.
        let mut background = Vec::new();
        let lan_gateway: (NodeId, IfaceId) = match inner_node {
            Some(inner) => {
                sim.connect((inner, cpe::WAN), (cpe, cpe::LAN), ms(1));
                (inner, cpe::LAN)
            }
            None => (cpe, cpe::LAN),
        };
        if self.background_clients == 0 {
            sim.connect((probe, IfaceId(0)), lan_gateway, ms(1));
        } else {
            let n = self.background_clients as usize;
            let sw = sim.add_device(netsim::Switch::new("lan-switch", n + 2));
            sim.connect((probe, IfaceId(0)), (sw, IfaceId(0)), ms(1));
            sim.connect((sw, IfaceId(n + 1)), lan_gateway, ms(1));
            for i in 0..n {
                let addr = Ipv4Addr::new(192, 168, 1, 150 + i as u8);
                let client = sim.add_device(crate::background::BackgroundClient::new(
                    format!("iot-{i}"),
                    IpAddr::V4(addr),
                    "8.8.8.8".parse().expect("static address"),
                    vec![
                        "example.com".parse().expect("static name"),
                        "www.example.com".parse().expect("static name"),
                    ],
                    SimDuration::from_millis(700 + 130 * i as u64),
                    (6000 + i) as u16,
                ));
                sim.connect((client, IfaceId(0)), (sw, IfaceId(1 + i)), ms(1));
                crate::background::start_background(
                    &mut sim,
                    client,
                    SimDuration::from_millis(50 + 90 * i as u64),
                );
                background.push(client);
            }
        }
        let cpe_upstream: (NodeId, IfaceId) = match middlebox_node {
            Some(mb) => {
                sim.connect((cpe, cpe::WAN), (mb, IfaceId(0)), ms(2));
                (mb, IfaceId(1))
            }
            None => (cpe, cpe::WAN),
        };
        sim.connect_faulty(cpe_upstream, (edge, IfaceId(0)), ms(2), self.upstream);
        if isp.resolver_in_as {
            sim.connect((edge, IfaceId(1)), (isp_resolver, IfaceId(0)), ms(3));
        }
        let border_outside: (NodeId, IfaceId) = match beyond_node {
            Some(bx) => {
                sim.connect((edge, IfaceId(2)), (border, IfaceId(0)), ms(2));
                sim.connect((border, IfaceId(1)), (bx, IfaceId(0)), ms(6));
                (bx, IfaceId(1))
            }
            None => {
                sim.connect((edge, IfaceId(2)), (border, IfaceId(0)), ms(2));
                (border, IfaceId(1))
            }
        };
        sim.connect(border_outside, (core, IfaceId(0)), ms(10));
        for i in 0..region.sites.len() {
            sim.connect((core, IfaceId(1 + i)), (NodeId(first_site.0 + i), IfaceId(0)), ms(5));
        }
        if let Some(alt) = alt_resolver_node {
            sim.connect((core, IfaceId(5)), (alt, IfaceId(0)), ms(4));
        }
        if !isp.resolver_in_as {
            // The ISP's resolver lives outside the client AS (§6).
            sim.connect((core, IfaceId(6)), (isp_resolver, IfaceId(0)), ms(12));
        }
        if let Some(filter) = filter_resolver_node {
            sim.connect((edge, IfaceId(3)), (filter, IfaceId(0)), ms(3));
        }
        sim.connect((core, IfaceId(7)), (root_node, IfaceId(0)), ms(6));
        if let Some((root_auth, auth)) = auth_nodes {
            sim.connect((core, IfaceId(8)), (root_auth, IfaceId(0)), ms(7));
            sim.connect((core, IfaceId(9)), (auth, IfaceId(0)), ms(7));
        }

        // --- Outside scanner --------------------------------------------------
        // The WAN-side vantage of the open-DNS taxonomy campaign: a host
        // out in the core, beyond the client AS. Appended after everything
        // else so every pre-existing node id stays stable.
        let scanner_v4 = Ipv4Addr::new(91, 216, 216, 9);
        let scanner = sim.add_device(Host::new("scanner", [IpAddr::V4(scanner_v4)]));
        sim.connect((core, IfaceId(10)), (scanner, IfaceId(0)), ms(8));

        // --- Routes -----------------------------------------------------------
        // Every table, from the links and what each device accepts; the edge
        // stands for the ISP's two aggregates.
        sim.derive_routes(core, &[(edge, isp.v4_cidr()), (edge, isp.v6_cidr())]);

        let addrs = ScenarioAddrs {
            probe_v4: effective_probe_v4,
            probe_v6: home_v6.then_some(probe_v6),
            cpe_public_v4: wan_v4,
            cpe_public_v6: home_v6.then_some(wan_v6),
            scanner_v4,
        };
        BuiltScenario {
            sim,
            probe,
            cpe,
            scanner,
            addrs,
            expected: self.expected_location_for(&truth),
            truth,
            background,
        }
    }

    /// The catalog's configuration of the home's CPE and, in a double-NAT
    /// home, of the inner router, both forwarding to the ISP's resolver,
    /// before any IPv6 addressing. The inner router's WAN address lives on
    /// the outer CPE's LAN: the probe's usual outer-LAN address.
    fn cpe_configs(&self) -> (CpeConfig, Option<CpeConfig>) {
        let upstream = IpAddr::V4(self.isp.resolver_v4);
        let cpe = self.cpe_model.config(self.isp.customer_v4(self.customer_index), upstream);
        let inner = self.inner_router.as_ref().map(|model| {
            let mut inner = model.config(LAN_PROBE_V4, upstream);
            inner.lan_v4 = Ipv4Addr::new(192, 168, 2, 1);
            inner.name = format!("inner-{}", inner.name).into();
            inner
        });
        (cpe, inner)
    }

    fn redirect_addr(&self, target: &RedirectTarget) -> IpAddr {
        match target {
            RedirectTarget::IspResolver => IpAddr::V4(self.isp.resolver_v4),
            RedirectTarget::Custom(a) => *a,
        }
    }

    fn redirect_addr_v6(&self, target: &RedirectTarget) -> IpAddr {
        match target {
            RedirectTarget::IspResolver => IpAddr::V6(self.isp.resolver_v6),
            RedirectTarget::Custom(a) => *a,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use dns_wire::{Message, MessageView, Question, RType};
    use netsim::{CaptureKind, IpPacket};

    #[test]
    fn worked_examples_cover_all_three_verdict_shapes() {
        let examples = HomeScenario::worked_examples();
        let ids: Vec<&str> = examples.iter().map(|(id, _)| *id).collect();
        assert_eq!(ids, ["1053", "11992", "21823"]);
        let truths: Vec<GroundTruth> = examples.iter().map(|(_, s)| s.truth()).collect();
        assert_eq!(truths[0], GroundTruth::NotIntercepted);
        assert_eq!(truths[1], GroundTruth::IspMiddlebox);
        assert_eq!(truths[2], GroundTruth::Cpe { version: Some("unbound 1.9.0".into()) });
    }

    #[test]
    fn truth_derivation() {
        assert_eq!(HomeScenario::clean().truth(), GroundTruth::NotIntercepted);
        assert_eq!(
            HomeScenario::xb6_case_study().truth(),
            GroundTruth::Cpe { version: Some("dnsmasq-2.78-xfin".into()) }
        );
        assert_eq!(HomeScenario::isp_middlebox().truth(), GroundTruth::IspMiddlebox);
        let beyond = HomeScenario {
            beyond: Some(MiddleboxSpec {
                redirect_v4: Some(RedirectTarget::Custom("185.194.112.32".parse().unwrap())),
                redirect_v6: None,
                exempt_dsts: vec![],
                match_dsts: vec![],
                refused_dsts: vec![],
            }),
            ..HomeScenario::clean()
        };
        assert_eq!(beyond.truth(), GroundTruth::BeyondIsp);
    }

    #[test]
    fn expected_locations_include_limitations() {
        assert_eq!(HomeScenario::clean().expected_location(), None);
        assert_eq!(
            HomeScenario::xb6_case_study().expected_location(),
            Some(InterceptorLocation::Cpe)
        );
        let stealth =
            HomeScenario { cpe_model: CpeModelKind::StealthInterceptor, ..HomeScenario::clean() };
        assert_eq!(stealth.expected_location(), Some(InterceptorLocation::WithinIsp));
        let outside = HomeScenario {
            isp: IspProfile { resolver_in_as: false, ..IspProfile::comcast_like() },
            middlebox: Some(MiddleboxSpec::redirect_all_to_isp()),
            ..HomeScenario::clean()
        };
        assert_eq!(outside.expected_location(), Some(InterceptorLocation::BeyondOrUnknown));
    }

    #[test]
    fn class_and_truth_agree_with_the_built_cpe_configuration() {
        // Every catalog model, with the open-DNS class it belongs to and
        // the version its ground truth carries when it intercepts.
        use OpenDnsClass::*;
        let v = || SharedStr::from("2.85");
        let pinned: [(CpeModelKind, OpenDnsClass, Option<&str>); 14] = [
            (CpeModelKind::Plain, Clean, None),
            (CpeModelKind::DnsmasqLan { version: v() }, Clean, None),
            (CpeModelKind::OpenWanForwarder { version: v() }, OpenForwarder, None),
            (CpeModelKind::OpenWanForwarderNxDomain, OpenForwarder, None),
            (CpeModelKind::Xb6Buggy, DnatInterceptor, Some("dnsmasq-2.78-xfin")),
            (CpeModelKind::Xb6Healthy, Clean, None),
            (CpeModelKind::PiHole { version: v() }, DnatInterceptor, Some("dnsmasq-pi-hole-2.85")),
            (
                CpeModelKind::UnboundInterceptor { version: "1.9.0".into() },
                DnatInterceptor,
                Some("unbound 1.9.0"),
            ),
            (
                CpeModelKind::CustomInterceptor { version_string: "huuh?".into() },
                DnatInterceptor,
                Some("huuh?"),
            ),
            (CpeModelKind::StealthInterceptor, DnatInterceptor, None),
            (
                CpeModelKind::SelectiveAllowed { allowed: vec![], version: v() },
                DnatInterceptor,
                Some("dnsmasq-2.85"),
            ),
            (
                CpeModelKind::SelectiveTargeted { targets: vec![], version: v() },
                DnatInterceptor,
                Some("dnsmasq-2.85"),
            ),
            (CpeModelKind::TransparentForwarder { version: v() }, TransparentForwarder, None),
            (CpeModelKind::OpenRecursive { version: v() }, OpenRecursive, None),
        ];
        for (model, class, version) in pinned {
            let home = HomeScenario { cpe_model: model.clone(), ..HomeScenario::clean() };
            let (config, _) = home.cpe_configs();
            let forwarder = config.dns.forwarder();
            // The class by the built device's WAN behaviour.
            let built_class = match forwarder.filter(|f| f.listen_wan).map(|f| f.wan_mode) {
                Some(WanMode::Transparent) => TransparentForwarder,
                Some(WanMode::OpenRelay) => OpenForwarder,
                Some(WanMode::Recurse) => OpenRecursive,
                _ if config.dns.intercepts() => DnatInterceptor,
                _ => Clean,
            };
            assert_eq!((home.open_dns_class(), built_class), (class, class), "{model:?}");
            let truth = home.truth();
            if model.intercepts() {
                let built_version = forwarder.and_then(|f| f.profile.version_string());
                assert_eq!(built_version, version, "{model:?}");
                assert_eq!(truth, GroundTruth::Cpe { version: version.map(SharedStr::from) });
            } else {
                assert_eq!((truth, version), (GroundTruth::NotIntercepted, None), "{model:?}");
            }
        }
    }

    #[test]
    fn regions_are_listed_in_declaration_order() {
        // The template indexes its per-region entries by `region as usize`.
        for (i, region) in Region::ALL.into_iter().enumerate() {
            assert_eq!(region as usize, i);
        }
    }

    #[test]
    fn build_produces_consistent_addresses() {
        let built = HomeScenario::clean().build();
        assert_eq!(built.addrs.probe_v4, Ipv4Addr::new(192, 168, 1, 100));
        assert!(built.addrs.probe_v6.is_some());
        let cfg = built.locator_config();
        assert_eq!(cfg.cpe_public_v4, Some(IpAddr::V4(built.addrs.cpe_public_v4)));
        assert!(cfg.test_ipv6);
    }

    #[test]
    fn v4_only_home_has_no_v6() {
        let built = HomeScenario { probe_has_v6: false, ..HomeScenario::clean() }.build();
        assert!(built.addrs.probe_v6.is_none());
        assert!(!built.locator_config().test_ipv6);
    }

    #[test]
    fn unanswered_wan_side_query_leaves_no_relay_behind() {
        // The XB6 answers only local names on its public address, so an
        // outside A query goes unanswered. It must not use up a forwarder
        // transaction ID: the probe's next intercepted query is still the
        // first one relayed upstream.
        let mut built = HomeScenario::xb6_case_study().build();
        built.sim.record_capture();
        let query = |id| {
            let question = Question::new("example.com".parse().unwrap(), RType::A);
            Bytes::from(Message::query(id, question).encode().unwrap())
        };
        let (scanner, cpe) = (built.addrs.scanner_v4, built.addrs.cpe_public_v4);
        let scan = IpPacket::udp_v4(scanner, cpe, 40000, 53, query(0x1234));
        built.sim.inject(built.scanner, IfaceId(0), scan);
        built.sim.run_to_quiescence();
        let google = Ipv4Addr::new(8, 8, 8, 8);
        let probed = IpPacket::udp_v4(built.addrs.probe_v4, google, 40001, 53, query(0x5678));
        built.sim.inject(built.probe, IfaceId(0), probed);
        built.sim.run_to_quiescence();
        let relayed: Vec<u16> = built
            .sim
            .capture_events()
            .iter()
            .filter(|e| e.node == built.cpe && matches!(e.kind, CaptureKind::Egress { .. }))
            .filter_map(|e| {
                let udp = e.kind.packet().udp_payload()?;
                let id = MessageView::parse(&udp.payload).ok()?.header().id;
                (e.iface == Some(cpe::WAN) && udp.src_port != 53).then_some(id)
            })
            .collect();
        assert_eq!(relayed, [0x4000]);
    }

    /// The ISP resolver and filter resolver profiles `template` gives a
    /// world of `isp`.
    fn interned(template: &WorldTemplate, isp: &IspProfile) -> [Arc<ResolverProfile>; 2] {
        let keys = [Some(IspResolverKey::resolver(isp)), Some(IspResolverKey::filter(isp))];
        template.isp_resolvers(keys).map(|profile| profile.expect("both were asked for"))
    }

    #[test]
    fn isps_that_differ_in_one_key_field_get_distinct_profiles() {
        let template = WorldTemplate::new();
        let base = IspProfile::comcast_like();
        let [resolver, filter] = interned(&template, &base);
        // The same values in fresh `Arc`s, with every field the profiles
        // are not built from changed, share both profiles.
        let regenerated = IspProfile {
            asn: 3320,
            name: "Comcast".into(),
            country: "DE".into(),
            resolver_version: "unbound 1.9.0".into(),
            resolver_in_as: false,
            ..base.clone()
        };
        let [same_resolver, same_filter] = interned(&template, &regenerated);
        assert!(Arc::ptr_eq(&same_resolver, &resolver) && Arc::ptr_eq(&same_filter, &filter));
        let changed = |change: fn(&mut IspProfile)| {
            let mut isp = base.clone();
            change(&mut isp);
            isp
        };
        // Each field, and whether the resolver's and the filter's profile
        // are built from it.
        let fields: [(&str, IspProfile, bool, bool); 8] = [
            ("name", changed(|isp| isp.name = "Comcast2".into()), true, true),
            (
                "resolver_v4",
                changed(|isp| isp.resolver_v4 = Ipv4Addr::new(75, 75, 76, 76)),
                true,
                false,
            ),
            (
                "resolver_v6",
                changed(|isp| isp.resolver_v6 = "2001:558:feed::2".parse().unwrap()),
                true,
                false,
            ),
            (
                "resolver_egress_v4",
                changed(|isp| isp.resolver_egress_v4 = Ipv4Addr::new(75, 75, 75, 11)),
                true,
                false,
            ),
            (
                "resolver_egress_v6",
                changed(|isp| isp.resolver_egress_v6 = "2001:558:feed::11".parse().unwrap()),
                true,
                false,
            ),
            ("resolver_version", changed(|isp| isp.resolver_version = "NOTIMP".into()), true, true),
            (
                "resolver_mode",
                changed(|isp| isp.resolver_mode = ResolverMode::RefuseAll),
                true,
                false,
            ),
            ("v4_prefix", changed(|isp| isp.v4_prefix = Ipv4Addr::new(74, 0, 0, 0)), false, true),
        ];
        for (field, isp, resolver_moves, filter_moves) in fields {
            let [other_resolver, other_filter] = interned(&template, &isp);
            assert_eq!(!Arc::ptr_eq(&other_resolver, &resolver), resolver_moves, "{field}");
            assert_eq!(!Arc::ptr_eq(&other_filter, &filter), filter_moves, "{field}");
        }
    }

    #[test]
    fn a_world_past_the_interning_cap_answers_like_a_fresh_resolver() {
        use locator::HijackLocator;
        // Fill the template's map with other ISPs' resolvers.
        let full = WorldTemplate::new();
        for i in 0..MAX_ISP_PROFILES as u32 {
            let isp = IspProfile {
                resolver_egress_v4: Ipv4Addr::from(0x0a00_0000 + i),
                ..IspProfile::comcast_like()
            };
            full.isp_resolvers([Some(IspResolverKey::resolver(&isp)), None]);
        }
        let interned = || full.isp_resolvers.lock().unwrap().len();
        assert_eq!(interned(), MAX_ISP_PROFILES);
        // Every world past the cap gets a profile of its own.
        let isp = IspProfile::comcast_like();
        let [once, twice] = [(); 2].map(|()| interned_resolver(&full, &isp));
        assert!(!Arc::ptr_eq(&once, &twice));
        // And answers as a fresh template's interned resolver does, report
        // for report, over the middlebox that sends every query to it.
        let run = |template: &WorldTemplate| {
            let built = HomeScenario::isp_middlebox().build_with(template);
            let config = built.locator_config();
            HijackLocator::new(config).run(&mut crate::SimTransport::new(built))
        };
        let past_the_cap = run(&full);
        assert!(past_the_cap.intercepted);
        assert_eq!(past_the_cap, run(&WorldTemplate::new()));
        assert_eq!(interned(), MAX_ISP_PROFILES);
    }

    /// The ISP resolver profile `template` gives a world of `isp`.
    fn interned_resolver(template: &WorldTemplate, isp: &IspProfile) -> Arc<ResolverProfile> {
        let [profile, _] = template.isp_resolvers([Some(IspResolverKey::resolver(isp)), None]);
        profile.expect("asked for")
    }
}
