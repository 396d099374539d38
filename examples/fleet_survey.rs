//! A miniature RIPE-Atlas-style survey: generate a probe fleet, run the
//! localization technique from every responding probe, and print the
//! paper's tables and figures.
//!
//! ```text
//! cargo run --release --example fleet_survey            # 2,000 probes
//! FLEET_SIZE=10000 cargo run --release --example fleet_survey
//! ```

use atlas_sim::{
    accuracy, figure3, figure4, generate, run_campaign, table4, table5, CampaignOptions,
    FleetConfig,
};

fn main() {
    let size = std::env::var("FLEET_SIZE").ok().and_then(|s| s.parse().ok()).unwrap_or(2_000);
    let threads =
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4);

    println!("generating fleet of {size} probes…");
    let fleet = generate(FleetConfig { size, ..FleetConfig::default() });
    println!(
        "{} probes across {} organizations; {} responding\n",
        fleet.probes.len(),
        fleet.config.orgs.len(),
        fleet.responding().count()
    );

    let started = std::time::Instant::now();
    let results = run_campaign(&fleet, CampaignOptions::new(threads), None, None, None);
    let queries: u32 = results.iter().map(|r| r.report.queries_sent).sum();
    println!(
        "campaign: {} probes measured, {} DNS queries issued, {:.2}s wall time\n",
        results.len(),
        queries,
        started.elapsed().as_secs_f64()
    );

    println!("{}", table4(&results));
    println!("{}", table5(&results));
    println!("{}", figure3(&fleet, &results, 15));
    println!("{}", figure4(&fleet, &results, 15));
    println!("{}", accuracy(&results));
}
