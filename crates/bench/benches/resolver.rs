//! Resolver substrate throughput: zone resolution, cache behaviour,
//! forwarder relay, and the zone-file parser.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use dns_wire::{Message, MessageView, Question, RType};
use netsim::SimTime;
use resolver_sim::{parse_zone, DnsCache, ForwarderCore, FwdAction, ResolveCtx, SoftwareProfile, ZoneDb};

fn bench_zonedb(c: &mut Criterion) {
    let db = ZoneDb::standard_world();
    let ctx = ResolveCtx::v4("75.75.75.10".parse().unwrap());
    let mut group = c.benchmark_group("resolver/zonedb");
    group.throughput(Throughput::Elements(1));
    group.bench_function("resolve_a", |b| {
        let q = Question::new("example.com".parse().unwrap(), RType::A);
        b.iter(|| db.resolve(std::hint::black_box(&q), &ctx))
    });
    group.bench_function("resolve_reflector", |b| {
        let q = Question::new("whoami.akamai.com".parse().unwrap(), RType::A);
        b.iter(|| db.resolve(std::hint::black_box(&q), &ctx))
    });
    group.bench_function("resolve_nxdomain", |b| {
        let q = Question::new("no.such.zone.anywhere".parse().unwrap(), RType::A);
        b.iter(|| db.resolve(std::hint::black_box(&q), &ctx))
    });
    group.finish();
}

fn bench_cache(c: &mut Criterion) {
    let db = ZoneDb::standard_world();
    let ctx = ResolveCtx::v4("75.75.75.10".parse().unwrap());
    let q = Question::new("example.com".parse().unwrap(), RType::A);
    let result = db.resolve(&q, &ctx);
    let mut group = c.benchmark_group("resolver/cache");
    group.throughput(Throughput::Elements(1));
    group.bench_function("hit", |b| {
        let mut cache = DnsCache::new(4096);
        cache.put(&q, result.clone(), SimTime::ZERO);
        b.iter(|| cache.get(std::hint::black_box(&q), SimTime::ZERO).map(|r| r.answers.len()))
    });
    group.bench_function("put", |b| {
        let mut cache = DnsCache::new(4096);
        b.iter(|| cache.put(std::hint::black_box(&q), result.clone(), SimTime::ZERO))
    });
    group.finish();
}

fn bench_forwarder(c: &mut Criterion) {
    c.bench_function("resolver/forwarder_relay_roundtrip", |b| {
        let mut fwd: ForwarderCore<u32> =
            ForwarderCore::new(SoftwareProfile::dnsmasq("2.85"), "75.75.75.75".parse().unwrap());
        let query = Message::query(7, Question::new("example.com".parse().unwrap(), RType::A))
            .encode()
            .unwrap();
        b.iter(|| {
            let view = MessageView::parse(std::hint::black_box(&query)).unwrap();
            let relayed = match fwd.handle_query(&view, 1) {
                FwdAction::Forward(m) => m,
                other => panic!("unexpected {other:?}"),
            };
            let resp = Message::response_to(&relayed, dns_wire::Rcode::NoError);
            fwd.handle_upstream_response(resp)
        })
    });
}

fn bench_zonefile(c: &mut Criterion) {
    let text: String = (0..200)
        .map(|i| format!("host{i} 300 IN A 10.0.{}.{}\n", i / 256, i % 256))
        .collect();
    let mut group = c.benchmark_group("resolver/zonefile");
    group.throughput(Throughput::Bytes(text.len() as u64));
    group.bench_function("parse_200_records", |b| {
        b.iter(|| parse_zone(std::hint::black_box(&text), "bench.example").unwrap())
    });
    group.finish();
}

criterion_group!(benches, bench_zonedb, bench_cache, bench_forwarder, bench_zonefile);
criterion_main!(benches);
