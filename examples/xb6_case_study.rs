//! The §5 case study, packet by packet: how an XB6's RDK-B firmware uses
//! DNAT to transparently intercept DNS, and how the three-step technique
//! catches it.
//!
//! ```text
//! cargo run --example xb6_case_study
//! ```

use dns_wire::{debug_queries, Question, RType};
use interception::{HomeScenario, SimTransport};
use locator::{describe_response, HijackLocator, QueryOptions, QueryTransport};

fn main() {
    let mut built = HomeScenario::xb6_case_study().build();
    built.sim.enable_trace();
    let cpe_public = built.addrs.cpe_public_v4;
    let config = built.locator_config();
    let mut transport = SimTransport::new(built);

    println!("## 1. The user queries Google DNS for an ordinary A record\n");
    let q = Question::new("example.com".parse().unwrap(), RType::A);
    let outcome = transport.query("8.8.8.8".parse().unwrap(), &q, 0x2000, QueryOptions::default());
    print_trace(&mut transport);
    match outcome.response() {
        Some(resp) => println!(
            "\nThe probe accepted an answer ({}) apparently from 8.8.8.8 —\n\
             but the trace shows Google never saw the query: the XB6's DNAT\n\
             rule rewrote it toward the ISP resolver and conntrack spoofed\n\
             the reply's source.\n",
            describe_response(&resp.view())
        ),
        None => println!("\nunexpected: no answer\n"),
    }

    println!("## 2. version.bind to the CPE's own public IP ({cpe_public})\n");
    let vb = Question::chaos_txt(debug_queries::version_bind());
    let outcome =
        transport.query(cpe_public.into(), &vb, 0x2001, QueryOptions::default());
    print_trace(&mut transport);
    if let Some(resp) = outcome.response() {
        println!("\nCPE answers: {}\n", describe_response(&resp.view()));
    }

    println!("## 3. version.bind \"to\" Google DNS\n");
    let outcome = transport.query("8.8.8.8".parse().unwrap(), &vb, 0x2002, QueryOptions::default());
    print_trace(&mut transport);
    if let Some(resp) = outcome.response() {
        println!(
            "\n\"Google\" answers: {} — identical to the CPE's own string.\n\
             Same forwarder answered both: the CPE is the interceptor (§3.2).\n",
            describe_response(&resp.view())
        );
    }

    println!("## 4. The full three-step verdict\n");
    let report = HijackLocator::new(config).run(&mut transport);
    println!(
        "intercepted resolvers (v4): {:?}",
        report.matrix.intercepted_v4().iter().map(|k| k.display_name()).collect::<Vec<_>>()
    );
    println!(
        "location: {}",
        report.location.map(|l| l.to_string()).unwrap_or_else(|| "-".into())
    );
    println!(
        "transparency: {}",
        report.transparency.map(|t| t.to_string()).unwrap_or_else(|| "-".into())
    );
}

fn print_trace(transport: &mut SimTransport) {
    for entry in transport.scenario.sim.trace() {
        println!("  {:>10}  {:<18} {}", entry.at.to_string(), entry.node_name, entry.packet);
    }
    transport.scenario.sim.clear_trace();
}
