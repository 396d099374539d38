//! The hot path's zero-allocation contract, enforced at the allocator.
//!
//! Once the caches are warm — the query encoder holds the wire bytes, the
//! payload pool holds recycled slabs, the simulator's queues hold spare
//! capacity — a probe query that crosses the simulated home and dies
//! without an answer must not allocate at all: cached encode, pooled
//! payload, packet forwarding hop by hop, and the borrowed-view receive
//! filter are all allocation-free. So is a warm *answered* round trip: the
//! public-resolver site copies the reply its shared profile memoized, and
//! the stub hands the locator the delivered payload itself. So is a warm
//! *intercepted* one: the CPE relays the query and the answer as the bytes
//! that arrived, with a new transaction ID, and the ISP resolver copies
//! the reply its shared profile memoized. A memo fill, a site's or the
//! ISP resolver's, is pinned to its exact count: the one copy it keeps,
//! plus what the answer path builds. So is a warm world's first ask of
//! its ISP resolver: the growth of the world's cache and pending-reply
//! tables. A warm world build is pinned to its exact count: a few
//! containers per device, each device moved into the box the previous
//! world left.
//! Switching the flight recorder on over a recycled world allocates
//! nothing, and it records into the capacity the previous worlds left. Rebuilding flows from that
//! record is pinned to its exact count: the lists, and one names table
//! the flows share with its names, but nothing per hop. A warm locator
//! run is pinned too: its one evidence list, plus what the world makes. A
//! locator run folded into metrics must allocate exactly what the
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
use std::alloc::{GlobalAlloc, Layout, System};
use std::net::IpAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use timing::{AtomicHistogram, Span};

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
    // site. Every hop, the CPE's masquerade, the site's reply copied out of
    // its shared profile's memo into a pooled payload slab, the interned
    // names and the in-place inbox drain are allocation-free, and
    // the stub hands the locator the delivered payload slab itself as a
    // `Reply`, validated once and never decoded into owned records. The
    // CPE's conntrack gains one entry per query (each query has a fresh
    // source port), and its table, sized for 14 flows, grows at the 15th,
    // 29th ... entry; the ninth query falls short of the first growth.
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

    // --- End to end, intercepted: a warm probe-vantage
    // `o-o.myaddr.l.google.com` TXT query to 8.8.8.8 through the XB6 case
    // study. The CPE's DNAT rule captures it, its forwarder takes it in
    // through the front door and relays the datagram to the ISP resolver
    // with only the transaction ID rewritten (a copy into a pooled slab,
    // and a pending entry in a map that kept its capacity), the ISP
    // resolver copies its profile's memoized reply, sent at once because
    // the world's cache holds the answer fresh, and the forwarder relays
    // that answer back the same way, through conntrack's restore of
    // 8.8.8.8 as the source. Neither the query nor the answer becomes an
    // owned message, so nothing allocates. The first query is the
    // resolver's cache miss; the ninth falls short of conntrack's first
    // growth, as on the clean home.
    let xb6 = HomeScenario::xb6_case_study();
    let isp_egress = xb6.isp.resolver_egress_v4.to_string();
    let mut hijacked = SimTransport::new(xb6.build());
    let google = IpAddr::V4("8.8.8.8".parse().unwrap());
    let myaddr = Question::new(dns_wire::debug_queries::google_myaddr(), RType::Txt);
    for i in 0..8 {
        let out = hijacked.query(google, &myaddr, 0x7500 + i, opts);
        assert!(out.response().is_some(), "the XB6 answers for 8.8.8.8");
    }
    let (allocs, out) = allocations_in(|| hijacked.query(google, &myaddr, 0x7600, opts));
    let reply = out.response().expect("answered");
    let answer = reply.view().answers().next().expect("one answer");
    assert_eq!(answer.txt_str().as_deref(), Some(&*isp_egress), "the ISP resolver answered");
    assert_eq!(
        allocs, 0,
        "warm intercepted o-o.myaddr round trip allocated {allocs} times; the relay copies \
         the datagram with a new ID and must not materialize either message"
    );

    // --- End to end, every brand's location question: a warm
    // probe-vantage round trip to each public resolver's first v4 address
    // across a fresh clean home. Each site finds the query's bytes after
    // its ID in its shared profile's memo and sends the stored reply,
    // copied into a pooled slab under the query's ID: no parse, no lookup,
    // no owned question. Twelve queries fall short of conntrack's first
    // growth.
    let mut located = SimTransport::new(HomeScenario::clean().build());
    for (r, resolver) in locator::default_resolvers().into_iter().enumerate() {
        let location = resolver.location_query();
        let txid = 0x7800 + 0x10 * r as u16;
        for i in 0..2 {
            let out = located.query(resolver.v4[0], &location, txid + i, opts);
            assert!(out.response().is_some(), "the clean home reaches {:?}", resolver.key);
        }
        let (allocs, out) =
            allocations_in(|| located.query(resolver.v4[0], &location, txid + 2, opts));
        assert!(out.response().is_some(), "answered");
        assert_eq!(
            allocs, 0,
            "a warm {:?} location round trip allocated {allocs} times; a memoized reply \
             is a copy into a pooled slab",
            resolver.key
        );
    }

    // --- A memo fill: the first answer to a query a region's profiles
    // have not seen. Two clean worlds are built and warmed alike, one
    // against the shared template, whose profiles have answered these
    // queries above, and one against a fresh template, whose profiles
    // start with empty memos. Over the fresh one, a query takes the answer
    // path and memoizes its reply, and costs what the same query over the
    // warm one does plus the fill:
    //   Cloudflare id.server: the query's bytes after its ID and the
    //                         reply, in one allocation                   1
    // Google's `o-o.myaddr` answer comes from the zone database, and the
    // answer path builds what it writes (the question's name is interned):
    //   Google o-o.myaddr:    the egress as text, sized once              1
    //                         the zone answer's TXT string list and its
    //                         record list                                 2
    //                         the query's bytes after its ID and the
    //                         reply, in one allocation                   1
    //                                                                    4
    let fresh_template = WorldTemplate::new();
    let version_bind = Question::chaos_txt(dns_wire::debug_queries::version_bind());
    let warmed = |template: &WorldTemplate| {
        let mut transport = SimTransport::new(HomeScenario::clean().build_with(template));
        for i in 0..3 {
            let out = transport.query(cloudflare, &version_bind, 0x7900 + i, opts);
            assert!(out.response().is_some(), "Cloudflare answers version.bind with NOTIMP");
        }
        transport
    };
    let (mut memoized, mut unseen) = (warmed(&WorldTemplate::shared()), warmed(&fresh_template));
    for (txid, server, question, fill) in
        [(0x7a00, cloudflare, &id_server, 1), (0x7a10, google, &myaddr, 4)]
    {
        let (hit, out) = allocations_in(|| memoized.query(server, question, txid, opts));
        assert!(out.response().is_some(), "answered");
        let (miss, out) = allocations_in(|| unseen.query(server, question, txid, opts));
        assert!(out.response().is_some(), "answered");
        assert_eq!(
            miss,
            hit + fill,
            "the first {question:?} query to {server} on a fresh profile allocated {miss} \
             times against {hit} on a memoized one; the fill listed above is {fill}"
        );
    }
    let (allocs, out) = allocations_in(|| unseen.query(google, &myaddr, 0x7a20, opts));
    assert!(out.response().is_some(), "answered");
    assert_eq!(allocs, 0, "the query after a memo fill allocated {allocs} times");

    // --- The ISP resolver's memo fill: the same comparison through an ISP
    // middlebox that sends every query to the ISP's resolver, over the
    // shared template, whose interned profile has answered these queries
    // in an earlier world, and over a fresh one. Both worlds are warmed
    // alike by `whoami` queries, so each has its cache and pending tables
    // when the measured query comes; the measured query is each world's
    // first ask of it, so both pay the miss. The fill costs
    //   id.server (NOTIMP):   the query's bytes after its ID and the
    //                         reply, in one allocation                   1
    //   o-o.myaddr:           the egress as text, sized once              1
    //                         the zone answer's TXT string list and its
    //                         record list                                 2
    //                         the query's bytes after its ID and the
    //                         reply, in one allocation                   1
    //                                                                    4
    let middlebox = HomeScenario::isp_middlebox();
    let whoami = Question::new(dns_wire::debug_queries::whoami_akamai(), RType::A);
    let mut earlier = SimTransport::new(middlebox.build());
    for question in [&id_server, &myaddr] {
        assert!(earlier.query(google, question, 0x7b00, opts).response().is_some(), "answered");
    }
    let warmed = |template: &WorldTemplate| {
        let mut transport = SimTransport::new(middlebox.build_with(template));
        for i in 0..3 {
            let out = transport.query(google, &whoami, 0x7b10 + i, opts);
            assert!(out.response().is_some(), "the ISP resolver answers whoami");
        }
        transport
    };
    let fresh_template = WorldTemplate::new();
    let (mut memoized, mut unseen) = (warmed(&WorldTemplate::shared()), warmed(&fresh_template));
    for (txid, question, fill) in [(0x7b20, &id_server, 1), (0x7b30, &myaddr, 4)] {
        let (hit, out) = allocations_in(|| memoized.query(google, question, txid, opts));
        assert!(out.response().is_some(), "answered");
        let (miss, out) = allocations_in(|| unseen.query(google, question, txid, opts));
        assert!(out.response().is_some(), "answered");
        assert_eq!(
            miss,
            hit + fill,
            "the ISP resolver's first {question:?} answer on a fresh profile allocated {miss} \
             times against {hit} on a memoized one; the fill listed above is {fill}"
        );
    }

    // --- A warm world's first ask of its ISP resolver: a world built over
    // the shared template, whose interned profile has memoized every
    // query here, into the containers of worlds that asked the same, with
    // their query encoder (as a campaign worker carries both from probe to
    // probe), and warmed by `id.server` queries, which the resolver
    // answers locally without touching its cache. Its first `o-o.myaddr`
    // query is a memo hit but the world's cache miss, so the reply waits
    // out the resolution latency. That costs the resolver's own tables,
    // which start empty with every world:
    //   cache:           its table, at the first entry                   1
    //   pending replies: its table, at the first entry                   1
    //                                                                    2
    // A repeat is a cache hit, sent at once, and costs nothing.
    let template = WorldTemplate::shared();
    let first_ask = |scratch: SimScratch, encoder: QueryEncoder| {
        let built = middlebox.build_with_scratch(&template, scratch);
        let mut transport = SimTransport::with_encoder(built, encoder);
        for i in 0..3 {
            let out = transport.query(google, &id_server, 0x7c00 + i, opts);
            assert!(out.response().is_some(), "the ISP resolver answers id.server");
        }
        transport
    };
    let (mut scratch, mut encoder) = (SimScratch::default(), QueryEncoder::new());
    for _ in 0..3 {
        let mut transport = first_ask(scratch, encoder);
        for i in 0..2 {
            assert!(transport.query(google, &myaddr, 0x7c10 + i, opts).response().is_some());
        }
        encoder = transport.take_encoder();
        scratch = transport.scenario.sim.into_scratch();
    }
    let mut warm_world = first_ask(scratch, encoder);
    let (allocs, out) = allocations_in(|| warm_world.query(google, &myaddr, 0x7c10, opts));
    let reply = out.response().expect("answered");
    let answer = reply.view().answers().next().expect("one answer");
    assert_eq!(answer.txt_str().as_deref(), Some(&*isp_egress), "the ISP resolver answered");
    assert_eq!(
        allocs, 2,
        "a warm world's first o-o.myaddr ask of its ISP resolver allocated {allocs} times; \
         the 2 listed above are the cache and pending-reply tables"
    );
    // The answer's payload slab goes back to the pool before the repeat.
    drop(out);
    let (allocs, out) = allocations_in(|| warm_world.query(google, &myaddr, 0x7c11, opts));
    assert!(out.response().is_some(), "answered");
    assert_eq!(allocs, 0, "a repeat the world's cache holds allocated {allocs} times");

    // --- Locator run and metrics fold: the locator over a warm clean
    // dual-stack home (16 location queries) allocates its one evidence
    // list; every observation in it, and every verdict, is a value.
    // Folded into a `MetricsFolder`, it allocates exactly what the same
    // run untraced does: trace events borrow the query's name, the reply's
    // one description and the evidence list the verdicts cite into, and
    // the folder is fixed-size counters. Two identical homes, each warmed
    // by one run, keep the worlds' own allocations (conntrack growth, pool
    // slabs) equal on both sides.
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
    // What the warm run allocates, item by item (every site answers out
    // of its shared profile's memo):
    //   locator:       the run's evidence list                            1
    //   CPE:           conntrack table growth at its 29th entry            1
    //                                                                     2
    assert_eq!(plain.queries_sent, 16);
    assert_eq!(
        plain_allocs, 2,
        "a warm clean locator run allocated {plain_allocs} times; the 2 listed above are \
         the evidence list and the world's own"
    );
    assert_eq!(
        folded_allocs, plain_allocs,
        "a locator run folded into metrics allocated {folded_allocs} times against \
         {plain_allocs} untraced; the fold must add nothing"
    );

    // --- World build: a warm clean household (dual-stack, plain CPE, a
    // Comcast-like ISP, region NaEast) built into the containers of the
    // previous world against the shared template. What is fixed or shared
    // costs nothing: device names such as "probe" and "internet-core", the
    // four public sites' profiles, the ISP resolver's and the root
    // server's profiles, the zone database. Every device moves into the
    // box the previous world had at its node id. Each allocates what is
    // its own:
    //   probe host:      address list                                  1
    //   CPE:             NAT's own-address list, conntrack table        2
    //   edge router:     name, address list, route table               3
    //   border router:   name, address list, route table               3
    //   core router:     address list, route table                     2
    //   scanner host:    address list                                  1
    //                                                                 12
    let template = WorldTemplate::shared();
    let clean = HomeScenario::clean();
    let mut scratch = SimScratch::default();
    for _ in 0..3 {
        scratch = clean.build_with_scratch(&template, scratch).sim.into_scratch();
    }
    let (allocs, built) = allocations_in(|| clean.build_with_scratch(&template, scratch));
    assert_eq!(built.sim.node_name(built.scanner), Some("scanner"));
    assert_eq!(
        allocs, 12,
        "warm clean world build allocated {allocs} times; the 12 listed above are each \
         device's own"
    );

    // --- Flight recorder on a warm recycled world: the recorder is the
    // simulator's own event vector, recycled through `SimScratch` with its
    // capacity. Two scratches are warmed alike, each by worlds that
    // recorded nine answered `id.server` round trips. Over the first,
    // switching the recorder on costs nothing, and the world's first
    // captured round trip allocates exactly what the first uncaptured one
    // does over the second: every hop lands in the kept capacity (a
    // captured packet is a clone sharing its payload slab). Once the world
    // is warm, a captured round trip allocates nothing.
    let warmed = |mut scratch: SimScratch| {
        for _ in 0..3 {
            let mut transport = SimTransport::new(clean.build_with_scratch(&template, scratch));
            transport.enable_capture();
            for i in 0..9 {
                let out = transport.query(cloudflare, &id_server, 0x7200 + i, opts);
                assert!(out.response().is_some(), "the clean home reaches Cloudflare");
            }
            scratch = transport.scenario.sim.into_scratch();
        }
        SimTransport::new(clean.build_with_scratch(&template, scratch))
    };
    let mut uncaptured = warmed(built.sim.into_scratch());
    let mut captured = warmed(SimScratch::default());
    let (allocs, ()) = allocations_in(|| captured.enable_capture());
    assert_eq!(allocs, 0, "switching the flight recorder on allocated {allocs} times");
    let (plain_first, out) =
        allocations_in(|| uncaptured.query(cloudflare, &id_server, 0x7300, opts));
    assert!(out.response().is_some(), "the clean home reaches Cloudflare");
    let (captured_first, out) =
        allocations_in(|| captured.query(cloudflare, &id_server, 0x7300, opts));
    assert!(out.response().is_some(), "the clean home reaches Cloudflare");
    assert_eq!(
        captured_first, plain_first,
        "a recycled world's first captured id.server round trip allocated {captured_first} \
         times against {plain_first} uncaptured; the recorder must record into the capacity \
         the previous worlds left"
    );
    for i in 1..8 {
        let out = captured.query(cloudflare, &id_server, 0x7300 + i, opts);
        assert!(out.response().is_some(), "the clean home reaches Cloudflare");
    }
    let (allocs, out) = allocations_in(|| captured.query(cloudflare, &id_server, 0x7400, opts));
    assert!(out.response().is_some(), "answered");
    assert!(!captured.scenario.sim.capture_events().is_empty(), "the hops are on the record");
    assert_eq!(
        allocs, 0,
        "a warm captured id.server round trip allocated {allocs} times; every hop must \
         land in the recycled event capacity"
    );

    // --- Flow rebuild: the nine round trips on that record become nine
    // flows of 28 hops, each crossing the same six devices. A hop costs
    // nothing of its own: its node is an index into one names table the
    // flows share, and `id.server` is interned, so the question is free.
    //   flow list:   grows to 4, 8, 16 flows                            3
    //   hop lists:   each grows to 4, 8, 16, 32 hops              9 x 4 36
    //   names table: its vector and the copy the flows share            2
    //   names:       probe, plain-router, Comcast-edge, Comcast-border,
    //                internet-core, Cloudflare-IAD                      6
    //                                                                  47
    let (allocs, flows) = allocations_in(|| captured.take_flows());
    assert_eq!(flows.len(), 9);
    assert!(flows.iter().all(|f| f.hops.len() == 28), "{flows:?}");
    assert_eq!(
        allocs, 47,
        "rebuilding nine id.server flows allocated {allocs} times; the 47 listed above are \
         the lists, the names table and its names"
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
    assert_eq!(allocs, 0, "enabled timing record path allocated {allocs} times after warmup");
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
