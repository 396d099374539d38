//! The authoritative side of the simulated DNS: a zone database shared by
//! every recursive resolver in a scenario.
//!
//! Recursive resolution is modelled as an instant lookup against this
//! database, *parameterized by the resolver's egress address*. That one
//! parameter is what makes the reflector names work exactly like their
//! real-world counterparts:
//!
//! * `whoami.akamai.com` answers with the address of the resolver that
//!   asked — so a query intercepted toward the ISP resolver reveals the ISP
//!   egress instead of the target resolver's (§4.1.2).
//! * `o-o.myaddr.l.google.com` answers TXT with the asking resolver's
//!   address — Google's own recursors produce a Google address, an ISP
//!   resolver produces a foreign one (Table 2).

use dns_wire::{Name, Question, RData, RType, Rcode, Record};
use std::borrow::Cow;
use std::cmp::Ordering;
use std::net::{Ipv4Addr, Ipv6Addr};
use std::sync::Arc;

/// Total, case-insensitive ordering over canonical name wire forms.
/// Consistent with `Name`'s `PartialEq`/`Hash`: equal names compare equal.
fn cmp_names(a: &Name, b: &Name) -> Ordering {
    let (aw, bw) = (a.as_wire(), b.as_wire());
    for (x, y) in aw.iter().zip(bw.iter()) {
        match x.to_ascii_lowercase().cmp(&y.to_ascii_lowercase()) {
            Ordering::Equal => {}
            other => return other,
        }
    }
    aw.len().cmp(&bw.len())
}

/// Who is asking the authoritative layer.
#[derive(Debug, Clone, Copy)]
pub struct ResolveCtx {
    /// The recursor's IPv4 egress, if it has one.
    pub egress_v4: Option<Ipv4Addr>,
    /// The recursor's IPv6 egress, if it has one.
    pub egress_v6: Option<Ipv6Addr>,
}

impl ResolveCtx {
    /// Context for a v4-only recursor.
    pub fn v4(egress: Ipv4Addr) -> ResolveCtx {
        ResolveCtx { egress_v4: Some(egress), egress_v6: None }
    }
}

/// One zone's answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ZoneAnswer {
    /// Matching records.
    Records(Vec<Record>),
    /// The name does not exist in the zone.
    NxDomain,
    /// The name exists but has no records of the asked type.
    NoData,
}

/// An authoritative data source for one apex.
pub trait Zone: Send + Sync {
    /// Answers one question.
    fn lookup(&self, q: &Question, ctx: &ResolveCtx) -> ZoneAnswer;
}

/// A static zone: a sorted table from (name, type) to records.
///
/// Kept sorted (case-insensitive name order, then type) at insertion time,
/// so the per-query lookup is a binary search over borrowed keys — no
/// `(Name, u16)` clone, no hashing. Zone contents are built once per
/// campaign and queried millions of times; the table trades O(n) inserts
/// for allocation-free lookups.
#[derive(Debug, Default)]
pub struct StaticZone {
    entries: Vec<(Name, u16, Vec<Record>)>,
}

impl StaticZone {
    /// An empty zone.
    pub fn new() -> StaticZone {
        StaticZone::default()
    }

    fn position(&self, name: &Name, rtype: u16) -> Result<usize, usize> {
        self.entries
            .binary_search_by(|(n, t, _)| cmp_names(n, name).then(t.cmp(&rtype)))
    }

    fn lookup_records(&self, name: &Name, rtype: u16) -> Option<&[Record]> {
        self.position(name, rtype).ok().map(|i| self.entries[i].2.as_slice())
    }

    fn contains_name(&self, name: &Name) -> bool {
        // Entries are sorted by name first: the partition point sits just
        // past the last entry with this name, if any exists.
        let i = self
            .entries
            .partition_point(|(n, _, _)| cmp_names(n, name) != Ordering::Greater);
        i > 0 && self.entries[i - 1].0 == *name
    }

    /// Adds a record.
    pub fn add(&mut self, record: Record) -> &mut Self {
        let rtype = record.rdata.rtype().to_u16();
        match self.position(&record.name, rtype) {
            Ok(i) => self.entries[i].2.push(record),
            Err(i) => {
                let name = record.name.clone();
                self.entries.insert(i, (name, rtype, vec![record]));
            }
        }
        self
    }

    /// Convenience: adds an A record.
    pub fn add_a(&mut self, name: &str, ttl: u32, ip: Ipv4Addr) -> &mut Self {
        self.add(Record::new(name.parse().expect("valid name"), ttl, RData::A(ip)))
    }

    /// Convenience: adds an AAAA record.
    pub fn add_aaaa(&mut self, name: &str, ttl: u32, ip: Ipv6Addr) -> &mut Self {
        self.add(Record::new(name.parse().expect("valid name"), ttl, RData::Aaaa(ip)))
    }

    /// Convenience: adds a TXT record.
    pub fn add_txt(&mut self, name: &str, ttl: u32, text: &str) -> &mut Self {
        self.add(Record::new(name.parse().expect("valid name"), ttl, RData::txt(text)))
    }

    /// Convenience: adds a CNAME record.
    pub fn add_cname(&mut self, name: &str, ttl: u32, target: &str) -> &mut Self {
        self.add(Record::new(
            name.parse().expect("valid name"),
            ttl,
            RData::Cname(target.parse().expect("valid name")),
        ))
    }
}

impl Zone for StaticZone {
    fn lookup(&self, q: &Question, _ctx: &ResolveCtx) -> ZoneAnswer {
        if let Some(records) = self.lookup_records(&q.qname, q.qtype.to_u16()) {
            return ZoneAnswer::Records(records.to_vec());
        }
        // CNAME at the name answers any type.
        if let Some(records) = self.lookup_records(&q.qname, RType::Cname.to_u16()) {
            return ZoneAnswer::Records(records.to_vec());
        }
        if self.contains_name(&q.qname) {
            ZoneAnswer::NoData
        } else {
            ZoneAnswer::NxDomain
        }
    }
}

/// What a [`ReflectorZone`] answers with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReflectKind {
    /// A/AAAA record carrying the asking recursor's egress
    /// (`whoami.akamai.com` style).
    Address,
    /// TXT record carrying the egress in dotted form
    /// (`o-o.myaddr.l.google.com` style).
    Text,
}

/// A zone whose single name reflects the asking resolver's egress address.
#[derive(Debug)]
pub struct ReflectorZone {
    name: Name,
    kind: ReflectKind,
}

impl ReflectorZone {
    /// Creates a reflector for `name`.
    pub fn new(name: Name, kind: ReflectKind) -> ReflectorZone {
        ReflectorZone { name, kind }
    }
}

impl Zone for ReflectorZone {
    fn lookup(&self, q: &Question, ctx: &ResolveCtx) -> ZoneAnswer {
        if q.qname != self.name {
            return ZoneAnswer::NxDomain;
        }
        match self.kind {
            ReflectKind::Address => match q.qtype {
                RType::A => match ctx.egress_v4 {
                    Some(ip) => ZoneAnswer::Records(vec![Record::new(
                        q.qname.clone(),
                        30,
                        RData::A(ip),
                    )]),
                    None => ZoneAnswer::NoData,
                },
                RType::Aaaa => match ctx.egress_v6 {
                    Some(ip) => ZoneAnswer::Records(vec![Record::new(
                        q.qname.clone(),
                        30,
                        RData::Aaaa(ip),
                    )]),
                    None => ZoneAnswer::NoData,
                },
                _ => ZoneAnswer::NoData,
            },
            ReflectKind::Text => match q.qtype {
                RType::Txt => {
                    let text = match (ctx.egress_v4, ctx.egress_v6) {
                        (Some(ip), _) => ip.to_string(),
                        (None, Some(ip)) => ip.to_string(),
                        (None, None) => return ZoneAnswer::NoData,
                    };
                    let rdata = RData::Txt(vec![text.into_bytes()]);
                    ZoneAnswer::Records(vec![Record::new(q.qname.clone(), 30, rdata)])
                }
                _ => ZoneAnswer::NoData,
            },
        }
    }
}

/// Result of a recursive resolution against the database.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResolveResult {
    /// Response code.
    pub rcode: Rcode,
    /// Answer records (possibly a CNAME chain).
    pub answers: Vec<Record>,
    /// True when every zone touched is signed (DNSSEC-lite): a validating
    /// resolver may set the AD bit on this answer.
    pub authenticated: bool,
}

/// The shared authoritative database: apex → zone, longest-suffix match.
#[derive(Default)]
pub struct ZoneDb {
    zones: Vec<(Name, Arc<dyn Zone>)>,
    /// Apexes whose data is DNSSEC-signed (modelled as a flag: signatures
    /// themselves add nothing to the interception mechanics).
    signed: std::collections::HashSet<Name>,
}

impl ZoneDb {
    /// An empty database.
    pub fn new() -> ZoneDb {
        ZoneDb::default()
    }

    /// Mounts a zone at `apex`.
    pub fn mount(&mut self, apex: Name, zone: Arc<dyn Zone>) -> &mut Self {
        self.zones.push((apex, zone));
        self
    }

    /// Marks an apex as DNSSEC-signed.
    pub fn sign(&mut self, apex: Name) -> &mut Self {
        self.signed.insert(apex);
        self
    }

    /// True when `qname` falls under a signed apex.
    pub fn is_signed(&self, qname: &Name) -> bool {
        self.signed.iter().any(|apex| qname.is_subdomain_of(apex))
    }

    /// Builds the standard world the reproduction's scenarios share:
    /// `example.com`, the whoami reflector, Google's myaddr reflector, an
    /// `opendns.com` zone whose `debug` name does not exist (only the
    /// OpenDNS resolver itself synthesizes it), and the experimenters' probe
    /// domain.
    pub fn standard_world() -> ZoneDb {
        let mut db = ZoneDb::new();
        let mut example = StaticZone::new();
        example
            .add_a("example.com", 3600, Ipv4Addr::new(93, 184, 216, 34))
            .add_aaaa("example.com", 3600, "2606:2800:220:1:248:1893:25c8:1946".parse().unwrap())
            .add_a("www.example.com", 3600, Ipv4Addr::new(93, 184, 216, 34));
        db.mount("example.com".parse().unwrap(), Arc::new(example));
        db.sign("example.com".parse().unwrap());

        db.mount(
            "whoami.akamai.com".parse().unwrap(),
            Arc::new(ReflectorZone::new(
                "whoami.akamai.com".parse().unwrap(),
                ReflectKind::Address,
            )),
        );
        db.mount(
            "o-o.myaddr.l.google.com".parse().unwrap(),
            Arc::new(ReflectorZone::new(
                "o-o.myaddr.l.google.com".parse().unwrap(),
                ReflectKind::Text,
            )),
        );
        // opendns.com exists, but debug.opendns.com is only synthesized by
        // the OpenDNS resolver itself; through any other path it is NXDOMAIN.
        let mut opendns = StaticZone::new();
        opendns.add_a("opendns.com", 3600, Ipv4Addr::new(146, 112, 62, 105));
        db.mount("opendns.com".parse().unwrap(), Arc::new(opendns));

        // The experimenters' own domain (bogon-query target and the Liu et
        // al. reflector).
        let mut probe = StaticZone::new();
        probe.add_a("probe.dns-hijack-study.example", 60, Ipv4Addr::new(93, 184, 216, 40));
        probe.add_aaaa(
            "probe.dns-hijack-study.example",
            60,
            "2606:2800:220::40".parse().unwrap(),
        );
        db.mount("probe.dns-hijack-study.example".parse().unwrap(), Arc::new(probe));
        db.mount(
            "reflect.dns-hijack-study.example".parse().unwrap(),
            Arc::new(ReflectorZone::new(
                "reflect.dns-hijack-study.example".parse().unwrap(),
                ReflectKind::Text,
            )),
        );
        db
    }

    fn find_zone(&self, qname: &Name) -> Option<&Arc<dyn Zone>> {
        self.zones
            .iter()
            .filter(|(apex, _)| qname.is_subdomain_of(apex))
            .max_by_key(|(apex, _)| apex.label_count())
            .map(|(_, z)| z)
    }

    /// Recursively resolves `q`, chasing up to four CNAME links.
    pub fn resolve(&self, q: &Question, ctx: &ResolveCtx) -> ResolveResult {
        let mut answers: Vec<Record> = Vec::new();
        let mut current = Cow::Borrowed(q);
        let mut authenticated = self.is_signed(&q.qname);
        for _ in 0..4 {
            authenticated = authenticated && self.is_signed(&current.qname);
            let Some(zone) = self.find_zone(&current.qname) else {
                return ResolveResult { rcode: Rcode::NxDomain, answers, authenticated };
            };
            match zone.lookup(&current, ctx) {
                ZoneAnswer::Records(mut records) => {
                    let cname_target = records.iter().find_map(|r| match &r.rdata {
                        RData::Cname(t) if current.qtype != RType::Cname => Some(t.clone()),
                        _ => None,
                    });
                    if answers.is_empty() {
                        answers = records;
                    } else {
                        answers.append(&mut records);
                    }
                    match cname_target {
                        Some(target) => {
                            let (qtype, qclass) = (current.qtype, current.qclass);
                            current = Cow::Owned(Question { qname: target, qtype, qclass });
                        }
                        None => {
                            return ResolveResult { rcode: Rcode::NoError, answers, authenticated }
                        }
                    }
                }
                ZoneAnswer::NxDomain => {
                    let rcode = if answers.is_empty() { Rcode::NxDomain } else { Rcode::NoError };
                    return ResolveResult { rcode, answers, authenticated };
                }
                ZoneAnswer::NoData => {
                    return ResolveResult { rcode: Rcode::NoError, answers, authenticated }
                }
            }
        }
        ResolveResult { rcode: Rcode::ServFail, answers: Vec::new(), authenticated: false }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(name: &str, qtype: RType) -> Question {
        Question::new(name.parse().unwrap(), qtype)
    }

    fn ctx() -> ResolveCtx {
        ResolveCtx::v4("75.75.75.10".parse().unwrap())
    }

    #[test]
    fn static_zone_basic_lookup() {
        let db = ZoneDb::standard_world();
        let r = db.resolve(&q("example.com", RType::A), &ctx());
        assert_eq!(r.rcode, Rcode::NoError);
        assert_eq!(r.answers.len(), 1);
        assert_eq!(r.answers[0].rdata, RData::A("93.184.216.34".parse().unwrap()));
    }

    #[test]
    fn nxdomain_for_unknown_names() {
        let db = ZoneDb::standard_world();
        assert_eq!(db.resolve(&q("nope.example.com", RType::A), &ctx()).rcode, Rcode::NxDomain);
        assert_eq!(db.resolve(&q("unknown.tld", RType::A), &ctx()).rcode, Rcode::NxDomain);
    }

    #[test]
    fn nodata_for_known_name_wrong_type() {
        let db = ZoneDb::standard_world();
        let r = db.resolve(&q("www.example.com", RType::Aaaa), &ctx());
        assert_eq!(r.rcode, Rcode::NoError);
        assert!(r.answers.is_empty());
    }

    #[test]
    fn whoami_reflects_egress_a() {
        let db = ZoneDb::standard_world();
        let r = db.resolve(&q("whoami.akamai.com", RType::A), &ctx());
        assert_eq!(r.answers[0].rdata, RData::A("75.75.75.10".parse().unwrap()));
    }

    #[test]
    fn whoami_reflects_v6_egress_for_aaaa() {
        let db = ZoneDb::standard_world();
        let ctx = ResolveCtx {
            egress_v4: None,
            egress_v6: Some("2001:558::10".parse().unwrap()),
        };
        let r = db.resolve(&q("whoami.akamai.com", RType::Aaaa), &ctx);
        assert_eq!(r.answers[0].rdata, RData::Aaaa("2001:558::10".parse().unwrap()));
        // No v4 egress: A query yields NoData.
        let r = db.resolve(&q("whoami.akamai.com", RType::A), &ctx);
        assert_eq!(r.rcode, Rcode::NoError);
        assert!(r.answers.is_empty());
    }

    #[test]
    fn google_myaddr_reflects_as_txt() {
        let db = ZoneDb::standard_world();
        let r = db.resolve(&q("o-o.myaddr.l.google.com", RType::Txt), &ctx());
        assert_eq!(r.answers[0].rdata.txt_string().unwrap(), "75.75.75.10");
    }

    #[test]
    fn debug_opendns_is_nxdomain_through_other_resolvers() {
        let db = ZoneDb::standard_world();
        assert_eq!(db.resolve(&q("debug.opendns.com", RType::Txt), &ctx()).rcode, Rcode::NxDomain);
    }

    #[test]
    fn cname_chain_is_chased() {
        let mut db = ZoneDb::new();
        let mut z = StaticZone::new();
        z.add_cname("alias.test.zone", 60, "target.test.zone");
        z.add_a("target.test.zone", 60, "10.9.8.7".parse().unwrap());
        db.mount("test.zone".parse().unwrap(), Arc::new(z));
        let r = db.resolve(&q("alias.test.zone", RType::A), &ctx());
        assert_eq!(r.rcode, Rcode::NoError);
        assert_eq!(r.answers.len(), 2);
        assert!(matches!(r.answers[0].rdata, RData::Cname(_)));
        assert!(matches!(r.answers[1].rdata, RData::A(_)));
    }

    #[test]
    fn cname_loop_yields_servfail() {
        let mut db = ZoneDb::new();
        let mut z = StaticZone::new();
        z.add_cname("a.test.zone", 60, "b.test.zone");
        z.add_cname("b.test.zone", 60, "a.test.zone");
        db.mount("test.zone".parse().unwrap(), Arc::new(z));
        let r = db.resolve(&q("a.test.zone", RType::A), &ctx());
        assert_eq!(r.rcode, Rcode::ServFail);
    }

    #[test]
    fn longest_apex_wins() {
        let mut db = ZoneDb::new();
        let mut outer = StaticZone::new();
        outer.add_a("x.example.org", 60, "1.1.1.2".parse().unwrap());
        let mut inner = StaticZone::new();
        inner.add_a("x.sub.example.org", 60, "2.2.2.2".parse().unwrap());
        db.mount("example.org".parse().unwrap(), Arc::new(outer));
        db.mount("sub.example.org".parse().unwrap(), Arc::new(inner));
        let r = db.resolve(&q("x.sub.example.org", RType::A), &ctx());
        assert_eq!(r.answers[0].rdata, RData::A("2.2.2.2".parse().unwrap()));
        // And a name only in the outer zone still resolves.
        let r = db.resolve(&q("x.example.org", RType::A), &ctx());
        assert_eq!(r.answers[0].rdata, RData::A("1.1.1.2".parse().unwrap()));
    }

    #[test]
    fn reflector_nodata_for_wrong_types() {
        let db = ZoneDb::standard_world();
        let r = db.resolve(&q("whoami.akamai.com", RType::Txt), &ctx());
        assert_eq!(r.rcode, Rcode::NoError);
        assert!(r.answers.is_empty());
    }
}
