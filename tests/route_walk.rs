//! A static walk over every world's route tables: from each router toward
//! an address in every prefix a device reports, following the router's
//! `lookup` and the link out of the interface it names. A route that loops,
//! dead-ends or reaches the wrong device fails here without a packet sent.
//! The devices walked to are those linked to a router, the routed part of a
//! world; what sits behind a CPE is the CPE's to forward.

use atlas_sim::{generate, scenario_for, FleetConfig, ProbeSpec};
use interception::{CpeModelKind, HomeScenario};
use netsim::{IfaceId, NodeId, Router, Simulator};

/// The most hops between a router and a device of one world.
const MAX_HOPS: usize = 8;

/// Walks `sim` from every router toward every prefix that a device linked
/// to a router reports.
fn walk(sim: &Simulator) -> Result<(), String> {
    let name = |node| sim.node_name(node).unwrap_or("?");
    let nodes = || (0..sim.node_count()).map(NodeId);
    let is_router = |node| sim.device::<Router>(node).is_some();
    let mut targets = Vec::new();
    for node in nodes().filter(|&node| !is_router(node)) {
        if (0..16).filter_map(|i| sim.peer(node, IfaceId(i))).any(is_router) {
            sim.node_prefixes(node, &mut |prefix| targets.push((prefix.addr(), node)));
        }
    }
    for (i, (addr, owner)) in targets.iter().enumerate() {
        if let Some((_, other)) = targets[i + 1..].iter().find(|(a, _)| a == addr) {
            return Err(format!("{} and {} both report {addr}", name(*owner), name(*other)));
        }
    }
    for start in nodes().filter(|&node| is_router(node)) {
        for &(addr, owner) in &targets {
            let (mut at, mut path) = (start, vec![start]);
            while let Some(router) = sim.device::<Router>(at) {
                let Some(next) = router.routes.lookup(addr).and_then(|out| sim.peer(at, out))
                else {
                    return Err(format!("{} has no route to {addr}", name(at)));
                };
                let looped = path.contains(&next);
                path.push(next);
                if looped || path.len() > MAX_HOPS + 1 {
                    let path: Vec<&str> = path.iter().map(|&node| name(node)).collect();
                    return Err(format!("{addr} takes no path: {}", path.join(" -> ")));
                }
                at = next;
            }
            if at != owner {
                return Err(format!("{addr} of {} reaches {}", name(owner), name(at)));
            }
        }
    }
    Ok(())
}

/// What the walk finds wrong in `scenario`'s world, built in each resolver
/// mode.
fn faults(label: &str, scenario: &HomeScenario) -> Vec<String> {
    let mut faults = Vec::new();
    for iterative_isp_resolver in [false, true] {
        let world = HomeScenario { iterative_isp_resolver, ..scenario.clone() }.build();
        if let Err(fault) = walk(&world.sim) {
            faults.push(format!("{label}, iterative resolver {iterative_isp_resolver}: {fault}"));
        }
    }
    faults
}

#[test]
fn every_router_reaches_every_reported_address() {
    // The default fleet's first responding probe of each flavor, parameters
    // included, with and without IPv6.
    let fleet = generate(FleetConfig::default());
    let mut probes: Vec<&ProbeSpec> = Vec::new();
    for probe in fleet.responding() {
        if !probes.iter().any(|p| (&p.flavor, p.has_v6) == (&probe.flavor, probe.has_v6)) {
            probes.push(probe);
        }
    }
    assert_eq!(probes.len(), 64, "(flavor, v6) pairs");
    let mut found = Vec::new();
    for probe in probes {
        let label = format!("probe {} ({:?}, v6 {})", probe.id, probe.flavor, probe.has_v6);
        found.extend(faults(&label, &scenario_for(&fleet, probe)));
    }
    let inner_router = Some(CpeModelKind::Xb6Buggy);
    let mut homes = vec![
        ("clean", HomeScenario::clean()),
        ("xb6_case_study", HomeScenario::xb6_case_study()),
        ("isp_middlebox", HomeScenario::isp_middlebox()),
        ("inner router", HomeScenario { inner_router, ..HomeScenario::clean() }),
        ("background clients", HomeScenario { background_clients: 3, ..HomeScenario::clean() }),
    ];
    homes.extend(HomeScenario::worked_examples());
    homes.extend(HomeScenario::taxonomy_examples());
    for (label, home) in &homes {
        found.extend(faults(label, home));
    }
    assert!(found.is_empty(), "{}", found.join("\n"));
}

/// Every responding probe's world of the default fleet, in both modes. It
/// fails on Telenor's homes today: that ISP's v6 aggregate, 2620::/20, holds
/// Quad9's and OpenDNS's v6 service addresses, so a walk toward them from
/// its edge or border loops between the two.
#[test]
#[ignore = "the whole default fleet, about 2.5 s in debug; CI's full-suite runs it"]
fn every_fleet_world_routes_every_reported_address() {
    let fleet = generate(FleetConfig::default());
    let mut found = Vec::new();
    for probe in fleet.responding() {
        found.extend(faults(&format!("probe {}", probe.id), &scenario_for(&fleet, probe)));
    }
    assert_eq!(fleet.responding().count() * 2, 19_308);
    let first: Vec<&str> = found.iter().take(5).map(String::as_str).collect();
    assert!(
        found.is_empty(),
        "{} of 19,308 worlds fail; first:\n{}",
        found.len(),
        first.join("\n")
    );
}
