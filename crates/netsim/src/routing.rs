//! Routes derived from links: every router's table is read off the
//! simulator's links, taken as a tree rooted at one router.
//!
//! A world states its topology once, in its links, and what each device
//! accepts packets for once, in [`Device::prefixes`]. No route is written
//! by hand, so none can point where no link goes.

use crate::route::{Cidr, RouteTable};
use crate::router::Router;
use crate::sim::{IfaceId, NodeId, Simulator};
use std::net::{Ipv4Addr, Ipv6Addr};

#[cfg(doc)]
use crate::sim::Device;

/// How deep a walk from the root goes before the links are called a loop
/// rather than a tree.
const MAX_DEPTH: usize = 32;

/// How many routes a table is gathered into on the stack. A larger table is
/// gathered a second time, into its own allocation.
const GATHERED: usize = 64;

impl Simulator {
    /// Fills the table of every router that `root` reaches through
    /// routers, reading the links as a tree rooted at the router `root`:
    ///
    /// * a device that is not a [`Router`] is a leaf; it reports the
    ///   prefixes it accepts packets for ([`Device::prefixes`]);
    /// * a router reports the prefixes `aggregates` names for it;
    /// * each router routes every prefix reported below it out of the
    ///   interface toward the reporting device, and skips a prefix when a
    ///   router on the way reports a covering one;
    /// * every router but the root gets a v4 and a v6 default route toward
    ///   its parent.
    ///
    /// Each table is allocated once, at its exact size, and replaces the
    /// one the router had. Panics if `root` is not a router or if the
    /// routers' links form a loop.
    pub fn derive_routes(&mut self, root: NodeId, aggregates: &[(NodeId, Cidr)]) {
        self.derive_below(root, None, aggregates, 0);
    }

    /// Fills the tables of the routers below the router `node`, whose
    /// parent is out of `parent`, then its own from theirs: a router routes
    /// down what its children route, so no subtree is walked twice.
    fn derive_below(
        &mut self,
        node: NodeId,
        parent: Option<IfaceId>,
        aggregates: &[(NodeId, Cidr)],
        depth: usize,
    ) {
        assert!(depth < MAX_DEPTH, "the routers' links form a loop");
        for iface in (0..self.iface_width()).map(IfaceId).filter(|&iface| Some(iface) != parent) {
            match self.far_end(node, iface) {
                Some((child, up)) if self.device::<Router>(child).is_some() => {
                    self.derive_below(child, Some(up), aggregates, depth + 1)
                }
                _ => {}
            }
        }
        let mut gathered = [(Cidr::v4(Ipv4Addr::UNSPECIFIED, 0), IfaceId(0)); GATHERED];
        let mut len = 0;
        self.table_of(node, parent, aggregates, &mut |prefix, iface| {
            if let Some(slot) = gathered.get_mut(len) {
                *slot = (prefix, iface);
            }
            len += 1;
        });
        let routes = match gathered.get(..len) {
            Some(routes) => routes.to_vec(),
            None => {
                let mut routes = Vec::with_capacity(len);
                self.table_of(node, parent, aggregates, &mut |prefix, iface| {
                    routes.push((prefix, iface))
                });
                routes
            }
        };
        self.device_mut::<Router>(node).expect("routes are derived for routers").routes =
            RouteTable::from_routes(routes);
    }

    /// Calls `route` with each route of the router `node`'s table: a leaf
    /// child's own prefixes; a router child's aggregates and the routes of
    /// its derived table that point down, outside those aggregates; then
    /// the defaults toward `parent`.
    fn table_of(
        &self,
        node: NodeId,
        parent: Option<IfaceId>,
        aggregates: &[(NodeId, Cidr)],
        route: &mut dyn FnMut(Cidr, IfaceId),
    ) {
        for iface in (0..self.iface_width()).map(IfaceId).filter(|&iface| Some(iface) != parent) {
            let Some((child, up)) = self.far_end(node, iface) else { continue };
            let Some(router) = self.device::<Router>(child) else {
                self.node_prefixes(child, &mut |prefix| route(prefix, iface));
                continue;
            };
            let own = aggregates.iter().filter(|(at, _)| *at == child).map(|&(_, prefix)| prefix);
            own.clone().for_each(|prefix| route(prefix, iface));
            for (prefix, out) in router.routes.iter() {
                if out != up && !own.clone().any(|aggregate| aggregate.covers(prefix)) {
                    route(prefix, iface);
                }
            }
        }
        if let Some(up) = parent {
            route(Cidr::v4(Ipv4Addr::UNSPECIFIED, 0), up);
            route(Cidr::v6(Ipv6Addr::UNSPECIFIED, 0), up);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::Host;
    use crate::time::SimDuration;
    use std::net::IpAddr;

    fn ip(s: &str) -> IpAddr {
        s.parse().unwrap()
    }

    fn host(sim: &mut Simulator, addr: &str) -> NodeId {
        sim.add_device(Host::new(addr.to_string(), [ip(addr)]))
    }

    /// in-aggregate host, outside host — edge (73.0.0.0/8) — border — core
    /// — site host, with a second site on the core.
    #[test]
    fn tables_follow_the_links_and_stop_at_aggregates() {
        let mut sim = Simulator::new(1);
        let inside = host(&mut sim, "73.1.1.1");
        let outside = host(&mut sim, "75.75.75.75");
        let [edge, border, core] =
            ["edge", "border", "core"].map(|n| sim.add_device(Router::new(n)));
        let sites = [host(&mut sim, "8.8.8.8"), host(&mut sim, "2001:4860:4860::8888")];
        let ms = SimDuration::from_millis(1);
        sim.connect((inside, IfaceId(0)), (edge, IfaceId(0)), ms);
        sim.connect((outside, IfaceId(0)), (edge, IfaceId(1)), ms);
        sim.connect((edge, IfaceId(2)), (border, IfaceId(0)), ms);
        sim.connect((border, IfaceId(1)), (core, IfaceId(0)), ms);
        sim.connect((core, IfaceId(1)), (sites[0], IfaceId(0)), ms);
        sim.connect((core, IfaceId(2)), (sites[1], IfaceId(0)), ms);
        sim.derive_routes(core, &[(edge, "73.0.0.0/8".parse().unwrap())]);

        let table = |node| &sim.device::<Router>(node).unwrap().routes;
        let lookups = |node, addrs: [&str; 5]| addrs.map(|a| table(node).lookup(ip(a)));
        let to = |i| Some(IfaceId(i));
        let addrs = ["73.1.1.1", "73.9.9.9", "75.75.75.75", "8.8.8.8", "2001:4860:4860::8888"];
        // The edge: its two hosts, then defaults toward the border.
        assert_eq!(table(edge).len(), 4);
        assert_eq!(lookups(edge, addrs), [to(0), to(2), to(1), to(2), to(2)]);
        // The border and the core: the aggregate stands for the host inside
        // it; the host outside it keeps its own route.
        assert_eq!(table(border).len(), 4);
        assert_eq!(lookups(border, addrs), [to(0), to(0), to(0), to(1), to(1)]);
        // The root has no default route.
        assert_eq!(table(core).len(), 4);
        assert_eq!(lookups(core, addrs), [to(0), to(0), to(0), to(1), to(2)]);
        assert_eq!(table(core).lookup(ip("9.9.9.9")), None);
    }

    #[test]
    fn a_table_too_large_for_the_stack_is_derived_whole() {
        let mut sim = Simulator::new(1);
        let addrs: Vec<IpAddr> = (0..70u8).map(|i| IpAddr::from([10, 0, 0, i])).collect();
        let many = sim.add_device(Host::new("many", addrs.iter().copied()));
        let hub = sim.add_device(Router::new("hub"));
        sim.connect((many, IfaceId(0)), (hub, IfaceId(3)), SimDuration::from_millis(1));
        sim.derive_routes(hub, &[]);
        let routes = &sim.device::<Router>(hub).unwrap().routes;
        assert_eq!(routes.len(), 70);
        assert!(addrs.iter().all(|&addr| routes.lookup(addr) == Some(IfaceId(3))));
        assert_eq!(routes.lookup(ip("10.0.0.70")), None);
    }

    #[test]
    #[should_panic(expected = "the routers' links form a loop")]
    fn a_loop_of_routers_is_refused() {
        let mut sim = Simulator::new(1);
        let [a, b, c] = ["a", "b", "c"].map(|n| sim.add_device(Router::new(n)));
        let ms = SimDuration::from_millis(1);
        sim.connect((a, IfaceId(0)), (b, IfaceId(0)), ms);
        sim.connect((b, IfaceId(1)), (c, IfaceId(0)), ms);
        sim.connect((c, IfaceId(1)), (a, IfaceId(1)), ms);
        sim.derive_routes(a, &[]);
    }
}
