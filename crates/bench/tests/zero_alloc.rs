//! The hot path's zero-allocation contract, enforced at the allocator.
//!
//! Once the caches are warm — the query encoder holds the wire bytes, the
//! payload pool holds recycled slabs, the simulator's queues hold spare
//! capacity — a probe query that crosses the simulated home and dies
//! without an answer must not allocate at all: cached encode, pooled
//! payload, packet forwarding hop by hop, and the borrowed-view receive
//! filter are all allocation-free. So is a warm *answered* round trip: the
//! stub hands the locator the delivered payload itself. A warm world build
//! is pinned to its exact count: one box and a few containers per device.
//! A locator run folded into metrics must allocate exactly what the
//! untraced run does. The same counter also pins the component pieces
//! individually, so a regression report names the layer that started
//! allocating rather than just "the path".
//!
//! Everything runs inside one `#[test]` because the counter is a process
//! global; parallel test threads would bleed into each other's deltas.

use dns_wire::{Message, MessageView, Name, QueryEncoder, Question, RType};
use interception::{HomeScenario, ProbeTimingLog, SimTransport, Vantage, WorldTemplate};
use locator::{HijackLocator, MetricsFolder, QueryOptions, QueryTransport};
use netsim::{PayloadPool, SimScratch};
use timing::{AtomicHistogram, Span};
use std::alloc::{GlobalAlloc, Layout, System};
use std::net::IpAddr;
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTING: CountingAlloc = CountingAlloc;

/// Runs `f` and returns how many heap allocations it performed.
fn allocations_in<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let result = f();
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    (after - before, result)
}

#[test]
fn steady_state_probe_path_allocates_nothing() {
    // --- End to end: a warm scanner-vantage query through the clean home.
    // The clean CPE keeps WAN port 53 closed, so the query crosses the
    // core, the ISP, and the access link, is dropped at the device, and
    // times out — the full transport + netsim wire path with no answer to
    // materialize. After warmup, that entire round must be allocation-free.
    let mut transport = SimTransport::new(HomeScenario::clean().build());
    transport.vantage = Vantage::Scanner;
    let server = IpAddr::V4(transport.scenario.addrs.cpe_public_v4);
    let question = Question::new("example.com".parse().unwrap(), RType::A);
    let opts = QueryOptions::default();
    for i in 0..4 {
        let out = transport.query(server, &question, 0x6000 + i, opts);
        assert!(out.is_timeout(), "clean CPE must not answer scanner queries");
    }
    let (allocs, out) = allocations_in(|| transport.query(server, &question, 0x6100, opts));
    assert!(out.is_timeout());
    assert_eq!(
        allocs, 0,
        "steady-state probe wire path allocated {allocs} times; \
         the hot path must be allocation-free once warm"
    );

    // --- End to end, answered: a warm probe-vantage CHAOS `id.server`
    // query to 1.1.1.1 across the clean home, answered by the Cloudflare
    // site. Every hop, the CPE's masquerade, the site's view parse and its
    // reply written from that view around the TXT answer its shared
    // profile holds (thread-shared scratch, pooled payload slab), the
    // interned names and the in-place inbox drain are allocation-free, and
    // the stub hands the locator the delivered payload slab itself as a
    // `Reply`, validated once and never decoded into owned records. The
    // CPE's conntrack gains one entry per query (each query has a fresh
    // source port), and its table grows at the 4th, 8th, 15th, 29th ...
    // entry; the ninth query falls between two growths.
    let mut probe = SimTransport::new(HomeScenario::clean().build());
    let cloudflare = IpAddr::V4("1.1.1.1".parse().unwrap());
    let id_server = Question::chaos_txt(dns_wire::debug_queries::id_server());
    for i in 0..8 {
        let out = probe.query(cloudflare, &id_server, 0x7000 + i, opts);
        assert!(out.response().is_some(), "the clean home reaches Cloudflare");
    }
    let (allocs, out) = allocations_in(|| probe.query(cloudflare, &id_server, 0x7100, opts));
    let reply = out.response().expect("answered");
    let answer = reply.view().answers().next().expect("one answer");
    assert_eq!(answer.txt_str().as_deref(), Some("IAD"));
    assert_eq!(
        allocs, 0,
        "warm answered id.server round trip allocated {allocs} times; \
         the accepted reply is the delivered payload and must cost nothing"
    );

    // --- Metrics fold: the locator over a warm clean dual-stack home,
    // folded into a `MetricsFolder`, allocates exactly what the same run
    // untraced does. Trace events borrow the query's name, the reply's
    // one description and the verdict's citations, and the folder is
    // fixed-size counters, so metering a probe costs no allocation. Two
    // identical homes, each warmed by one run, keep the worlds' own
    // allocations (conntrack growth, pool slabs) equal on both sides.
    let clean = HomeScenario::clean();
    let warm_home = || {
        let built = clean.build();
        let config = built.locator_config();
        let mut transport = SimTransport::new(built);
        HijackLocator::new(config.clone()).run(&mut transport);
        (transport, HijackLocator::new(config))
    };
    let (mut plain_home, mut plain_locator) = warm_home();
    let (mut folded_home, mut folded_locator) = warm_home();
    let (plain_allocs, plain) = allocations_in(|| plain_locator.run(&mut plain_home));
    let (folded_allocs, (folded, metrics)) = allocations_in(|| {
        let mut folder = MetricsFolder::default();
        let report = folded_locator.run_traced(&mut folded_home, &mut folder);
        (report, folder.finish())
    });
    assert_eq!(folded, plain, "metering changes no report field");
    assert_eq!(metrics.total_queries(), u64::from(plain.queries_sent));
    assert_eq!(
        folded_allocs, plain_allocs,
        "a locator run folded into metrics allocated {folded_allocs} times against \
         {plain_allocs} untraced; the fold must add nothing"
    );

    // --- World build: a warm clean household (dual-stack, plain CPE, a
    // Comcast-like ISP, region NaEast) built into the containers of the
    // previous world against the shared template. What is fixed or shared
    // costs nothing: device names such as "probe" and "internet-core", the
    // four public sites' profiles, the root server's identity and
    // addresses, the zone database. Each device allocates what is its own:
    //   probe host:      box, address list                             2
    //   CPE:             box, NAT's own-address list                   2
    //   ISP resolver:    box, name, service addresses                  3
    //   edge router:     box, name, address list, route table          4
    //   border router:   box, name, address list, route table          4
    //   core router:     box, address list, route table                3
    //   4 public sites:  one box each                                  4
    //   root server:     box                                           1
    //   scanner host:    box, address list                             2
    //                                                                 25
    let template = WorldTemplate::shared();
    let clean = HomeScenario::clean();
    let mut scratch = SimScratch::default();
    for _ in 0..3 {
        scratch = clean.build_with_scratch(&template, scratch).sim.into_scratch();
    }
    let (allocs, built) = allocations_in(|| clean.build_with_scratch(&template, scratch));
    assert_eq!(built.sim.node_name(built.scanner), Some("scanner"));
    assert_eq!(
        allocs, 25,
        "warm clean world build allocated {allocs} times; the 25 listed above are each \
         device's own"
    );

    // --- Component: cached query encoding re-stamps the txid in place.
    let mut encoder = QueryEncoder::new();
    encoder.encode_query(1, &question).unwrap();
    let (allocs, _) = allocations_in(|| {
        for txid in 2..50u16 {
            encoder.encode_query(txid, &question).unwrap();
        }
    });
    assert_eq!(allocs, 0, "warm QueryEncoder hit allocated");

    // --- Component: the payload pool recycles slabs once payloads drop.
    let mut pool = PayloadPool::new();
    drop(pool.alloc(b"warm"));
    let (allocs, _) = allocations_in(|| {
        for _ in 0..50 {
            drop(pool.alloc(b"steady-state payload bytes"));
        }
    });
    assert_eq!(allocs, 0, "warm PayloadPool recycle allocated");

    // --- Component: the borrowed view parses and filters without copying.
    let name: Name = "example.com".parse().unwrap();
    let wire = Message::query(0x77, Question::new(name.clone(), RType::A)).encode().unwrap();
    let (allocs, _) = allocations_in(|| {
        for _ in 0..50 {
            let view = MessageView::parse(&wire).expect("valid wire");
            assert_eq!(view.header().id, 0x77);
            assert!(!view.header().qr);
            let q = view.question().expect("one question");
            assert!(q.matches(&Question::new(name.clone(), RType::A)));
        }
    });
    assert_eq!(allocs, 0, "MessageView parse + filter allocated");

    // --- Component: Name comparison and suffix checks walk in place.
    let parent: Name = "com".parse().unwrap();
    let other: Name = "example.org".parse().unwrap();
    let (allocs, _) = allocations_in(|| {
        for _ in 0..50 {
            assert!(name.is_subdomain_of(&parent));
            assert!(!other.is_subdomain_of(&parent));
            assert_ne!(name, other);
            assert_eq!(name.label_count(), 2);
        }
    });
    assert_eq!(allocs, 0, "Name comparison/suffix ops allocated");

    // --- Timing disabled (the default): the exact same warm query path
    // with no observer attached must still be allocation-free — the
    // disabled configuration adds exactly zero allocations on top of the
    // baseline pinned above.
    assert!(transport.take_timing().is_none(), "no observer was attached");
    let (allocs, out) = allocations_in(|| transport.query(server, &question, 0x6200, opts));
    assert!(out.is_timeout());
    assert_eq!(allocs, 0, "disabled timing path added {allocs} allocations");

    // --- Timing enabled: attaching the per-probe log is the one-time
    // cost (a boxed pair of pre-sized sample vectors). Once attached and
    // warm, recording RTT and wall samples on every query must not
    // allocate: pushes land in reserved capacity, timestamps are stack
    // values.
    transport.attach_timing(Box::new(ProbeTimingLog::new()));
    for i in 0..4 {
        let out = transport.query(server, &question, 0x6300 + i, opts);
        assert!(out.is_timeout());
    }
    let (allocs, out) = allocations_in(|| transport.query(server, &question, 0x6400, opts));
    assert!(out.is_timeout());
    assert_eq!(
        allocs, 0,
        "enabled timing record path allocated {allocs} times after warmup"
    );
    assert!(transport.take_timing().is_some(), "observer log survives the probe");

    // --- Component: the histogram record path is a pair of atomic adds
    // into a fixed bucket array, and spans — enabled or disabled — live
    // entirely on the stack.
    let hist = AtomicHistogram::new();
    let (allocs, _) = allocations_in(|| {
        for v in 0..200u64 {
            hist.record(v * 37);
        }
        for _ in 0..50 {
            Span::enabled(&hist).finish();
            Span::disabled().finish();
            Span::maybe(None).finish();
        }
    });
    assert_eq!(allocs, 0, "histogram record / span path allocated");
}
