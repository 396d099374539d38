//! A miniature RIPE-Atlas-style survey: generate a probe fleet, run the
//! localization technique from every responding probe, and print the
//! paper's tables and figures.
//!
//! ```text
//! cargo run --release --example fleet_survey            # 2,000 probes
//! FLEET_SIZE=10000 cargo run --release --example fleet_survey
//! ```

use atlas_sim::{generate, run_campaign_streaming, CampaignOptions, FleetConfig};

fn main() {
    let size = std::env::var("FLEET_SIZE").ok().and_then(|s| s.parse().ok()).unwrap_or(2_000);
    let threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4);

    println!("generating fleet of {size} probes…");
    let fleet = generate(FleetConfig { size, ..FleetConfig::default() });
    println!(
        "{} probes across {} organizations; {} responding\n",
        fleet.probes.len(),
        fleet.config.orgs.len(),
        fleet.responding().count()
    );

    let started = std::time::Instant::now();
    let summary =
        run_campaign_streaming(&fleet, CampaignOptions::new(threads), None, None).finish(15);
    println!(
        "campaign: {} probes measured, {} DNS queries issued, {:.2}s wall time\n",
        summary.probes,
        summary.retry.queries_sent,
        started.elapsed().as_secs_f64()
    );

    println!("{}", summary.table4);
    println!("{}", summary.table5);
    println!("{}", summary.figure3);
    println!("{}", summary.figure4);
    println!("{}", summary.accuracy);
}
