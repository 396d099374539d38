//! Fleet generation: turns the org catalog into a concrete, seeded probe
//! population.

use crate::flavor::{region_of_country, Flavor};
use crate::orgs::{default_catalog, OrgSpec};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Fleet-wide configuration.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Number of deployed probes (the paper works with ~10,000).
    pub size: usize,
    /// Master seed; everything derives from it.
    pub seed: u64,
    /// Fraction of *benign* probes that answer measurement requests at all
    /// (the paper's 9,600-ish responders out of ~10k deployed). Probes
    /// carrying an interceptor quota always respond, so the headline counts
    /// stay exact and reproducible.
    pub respond_rate: f64,
    /// Fraction of benign probes with a lossy upstream (their timeouts
    /// spread the per-resolver "Total" column of Table 4).
    pub flaky_rate: f64,
    /// Loss probability on a flaky probe's upstream link.
    pub flaky_loss: f64,
    /// Wire attempts per query on every probe (1 = single-shot, the
    /// paper's conservative baseline where a lost packet reads as a
    /// timeout).
    pub attempts: u32,
    /// Backoff between attempts, in (virtual) milliseconds.
    pub retry_backoff_ms: u64,
    /// The organization catalog.
    pub orgs: Vec<OrgSpec>,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            size: 10_000,
            seed: 0x41544C53, // "ATLS"
            respond_rate: 0.962,
            flaky_rate: 0.02,
            flaky_loss: 0.35,
            attempts: 1,
            retry_backoff_ms: 0,
            orgs: default_catalog(),
        }
    }
}

/// One generated probe.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ProbeSpec {
    /// Probe identifier (stable across runs with the same seed).
    pub id: u32,
    /// Index into the catalog.
    pub org: usize,
    /// Household flavor.
    pub flavor: Flavor,
    /// Whether the home has IPv6.
    pub has_v6: bool,
    /// Whether the probe answers measurement requests at all.
    pub responds: bool,
    /// Whether the probe's upstream link is lossy.
    pub flaky: bool,
    /// Customer index within its org (address allocation).
    pub customer_index: u32,
    /// Per-probe simulator seed.
    pub sim_seed: u64,
}

/// A generated fleet.
#[derive(Debug, Clone)]
pub struct Fleet {
    /// Configuration the fleet was generated from.
    pub config: FleetConfig,
    /// The probes, ordered by id.
    pub probes: Vec<ProbeSpec>,
    /// Per-org ISP profiles, built once at generation time. A campaign
    /// calls [`scenario_for`] once per probe; cloning a prebuilt profile
    /// is much cheaper than re-deriving it from the org spec each time.
    pub isps: Vec<interception::IspProfile>,
}

impl Fleet {
    /// Probes that answer measurement requests.
    pub fn responding(&self) -> impl Iterator<Item = &ProbeSpec> {
        self.probes.iter().filter(|p| p.responds)
    }
}

/// Generates the fleet deterministically from the configuration.
pub fn generate(config: FleetConfig) -> Fleet {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let total_weight: f64 = config.orgs.iter().map(|o| o.weight).sum();

    // Allocate probe counts per org by weight (largest remainder).
    let mut counts: Vec<usize> = config
        .orgs
        .iter()
        .map(|o| ((o.weight / total_weight) * config.size as f64).floor() as usize)
        .collect();
    let mut remainder: usize = config.size - counts.iter().sum::<usize>();
    let mut order: Vec<usize> = (0..config.orgs.len()).collect();
    order.sort_by(|&a, &b| {
        let fa = (config.orgs[a].weight / total_weight) * config.size as f64;
        let fb = (config.orgs[b].weight / total_weight) * config.size as f64;
        (fb - fb.floor()).partial_cmp(&(fa - fa.floor())).unwrap_or(std::cmp::Ordering::Equal)
    });
    for &i in &order {
        if remainder == 0 {
            break;
        }
        counts[i] += 1;
        remainder -= 1;
    }

    let mut probes = Vec::with_capacity(config.size);
    let mut id: u32 = 0;
    for (org_idx, org) in config.orgs.iter().enumerate() {
        let n = counts[org_idx];
        // Lay out this org's flavors: quotas first, benign fill after, then
        // shuffle so interceptors are not clustered by probe id.
        let mut flavors: Vec<Flavor> = Vec::with_capacity(n);
        for (flavor, count) in &org.quotas {
            for _ in 0..*count {
                flavors.push(flavor.clone());
            }
        }
        while flavors.len() < n {
            let benign = match rng.gen_range(0..10) {
                0..=4 => Flavor::BenignPlain,
                5..=7 => Flavor::BenignDnsmasqLan,
                8 => Flavor::BenignOpenWan,
                _ => Flavor::BenignXb6Healthy,
            };
            flavors.push(benign);
        }
        flavors.truncate(n);
        flavors.shuffle(&mut rng);

        for (customer_index, flavor) in flavors.into_iter().enumerate() {
            // Flavors that intercept on v6 require v6 connectivity to be
            // observable at all; everyone else rolls the org's v6 rate.
            let needs_v6 = matches!(
                flavor,
                Flavor::MiddleboxV6Only { .. } | Flavor::MiddleboxBothFamilies { .. }
            );
            let has_v6 = needs_v6 || rng.gen::<f64>() < org.v6_rate;
            let is_quota = flavor.intercepts();
            // Interceptor-quota probes always respond and are never flaky,
            // so the table counts are exact; availability noise lives in
            // the benign population.
            let responds = is_quota || rng.gen::<f64>() < config.respond_rate;
            let flaky = !is_quota && rng.gen::<f64>() < config.flaky_rate;
            let sim_seed = config.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(id as u64);
            probes.push(ProbeSpec {
                id,
                org: org_idx,
                flavor,
                has_v6,
                responds,
                flaky,
                customer_index: customer_index as u32,
                sim_seed,
            });
            id += 1;
        }
    }
    let isps = config.orgs.iter().enumerate().map(|(i, o)| o.isp_profile(i)).collect();
    Fleet { config, probes, isps }
}

/// Generates a fleet tailored to the taxonomy-classification campaign:
/// every probe responds (a scanner can't classify silence), upstreams are
/// loss-free (so verdicts reflect behaviour, not luck), and the five
/// open-DNS classes cycle round-robin through the probe ids so every
/// class is present in any contiguous slice of five.
pub fn classification_fleet(size: usize, seed: u64) -> Fleet {
    let config =
        FleetConfig { size, seed, respond_rate: 1.0, flaky_rate: 0.0, ..FleetConfig::default() };
    let mut probes = Vec::with_capacity(size);
    let mut next_customer: Vec<u32> = vec![0; config.orgs.len()];
    for id in 0..size as u32 {
        let flavor = match id % 5 {
            0 => Flavor::TransparentForwarder,
            1 => Flavor::BenignOpenWan,
            2 => Flavor::OpenRecursive,
            3 => Flavor::Xb6Buggy,
            _ => Flavor::BenignPlain,
        };
        let org = id as usize % config.orgs.len();
        let customer_index = next_customer[org];
        next_customer[org] += 1;
        let sim_seed = config.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(id as u64);
        probes.push(ProbeSpec {
            id,
            org,
            flavor,
            has_v6: false,
            responds: true,
            flaky: false,
            customer_index,
            sim_seed,
        });
    }
    let isps = config.orgs.iter().enumerate().map(|(i, o)| o.isp_profile(i)).collect();
    Fleet { config, probes, isps }
}

/// Builds the [`interception::HomeScenario`] for one probe.
pub fn scenario_for(fleet: &Fleet, probe: &ProbeSpec) -> interception::HomeScenario {
    let org = &fleet.config.orgs[probe.org];
    let mut scenario = interception::HomeScenario {
        seed: probe.sim_seed,
        isp: fleet.isps[probe.org].clone(),
        customer_index: probe.customer_index,
        cpe_model: interception::CpeModelKind::Plain,
        cpe_intercept_v6: false,
        middlebox: None,
        beyond: None,
        probe_has_v6: probe.has_v6,
        region: region_of_country(&org.country),
        upstream: netsim::FaultProfile {
            loss: if probe.flaky { fleet.config.flaky_loss } else { 0.0 },
            ..netsim::FaultProfile::default()
        },
        iterative_isp_resolver: false,
        background_clients: 0,
        inner_router: None,
    };
    probe.flavor.apply(&mut scenario);
    scenario
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_fleet() -> Fleet {
        generate(FleetConfig { size: 1000, ..FleetConfig::default() })
    }

    #[test]
    fn fleet_has_requested_size() {
        let fleet = small_fleet();
        assert_eq!(fleet.probes.len(), 1000);
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generate(FleetConfig { size: 500, ..FleetConfig::default() });
        let b = generate(FleetConfig { size: 500, ..FleetConfig::default() });
        for (pa, pb) in a.probes.iter().zip(&b.probes) {
            assert_eq!(pa.flavor, pb.flavor);
            assert_eq!(pa.has_v6, pb.has_v6);
            assert_eq!(pa.responds, pb.responds);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate(FleetConfig { size: 500, ..FleetConfig::default() });
        let b = generate(FleetConfig { size: 500, seed: 99, ..FleetConfig::default() });
        let differing = a
            .probes
            .iter()
            .zip(&b.probes)
            .filter(|(pa, pb)| pa.flavor != pb.flavor || pa.has_v6 != pb.has_v6)
            .count();
        assert!(differing > 0);
    }

    #[test]
    fn quota_probes_always_respond() {
        let fleet = generate(FleetConfig::default());
        for p in &fleet.probes {
            if p.flavor.intercepts() {
                assert!(p.responds);
                assert!(!p.flaky);
            }
        }
    }

    #[test]
    fn full_fleet_quotas_are_exact() {
        let fleet = generate(FleetConfig::default());
        let expected: u32 =
            fleet.config.orgs.iter().flat_map(|o| o.quotas.iter()).map(|(_, n)| *n).sum();
        let actual = fleet.probes.iter().filter(|p| p.flavor.intercepts()).count() as u32;
        assert_eq!(actual, expected);
    }

    #[test]
    fn respond_rate_is_roughly_honored() {
        let fleet = generate(FleetConfig::default());
        let responding = fleet.responding().count();
        assert!((9_450..=9_800).contains(&responding), "responding = {responding}");
    }

    #[test]
    fn v6_share_matches_atlas_scale() {
        // Table 4: ~3.7k of ~9.6k probes answered v6 experiments.
        let fleet = generate(FleetConfig::default());
        let v6 = fleet.responding().filter(|p| p.has_v6).count();
        let total = fleet.responding().count();
        let share = v6 as f64 / total as f64;
        assert!((0.33..=0.55).contains(&share), "v6 share = {share}");
    }

    #[test]
    fn scenario_for_respects_probe_fields() {
        let fleet = small_fleet();
        let probe = fleet.probes.iter().find(|p| p.flavor.intercepts()).unwrap();
        let scenario = scenario_for(&fleet, probe);
        assert_eq!(scenario.probe_has_v6, probe.has_v6);
        assert_eq!(scenario.customer_index, probe.customer_index);
        assert!(scenario.truth().intercepted());
    }

    #[test]
    fn customer_indices_unique_within_org() {
        let fleet = small_fleet();
        let mut seen = std::collections::HashSet::new();
        for p in &fleet.probes {
            assert!(seen.insert((p.org, p.customer_index)));
        }
    }
}
