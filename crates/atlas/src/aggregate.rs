//! Aggregation of campaign results into the paper's tables and figures.

use crate::campaign::ProbeResult;
use crate::fleet::Fleet;
use locator::{InterceptorLocation, LocationTestResult, PerResolver, ResolverKey, Transparency};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// One row of Table 4.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Table4Row {
    /// Probes whose IPv4 queries to this resolver were intercepted.
    pub intercepted_v4: u32,
    /// Probes that produced a v4 answer for this resolver at all.
    pub total_v4: u32,
    /// Probes whose IPv6 queries were intercepted.
    pub intercepted_v6: u32,
    /// Probes that produced a v6 answer.
    pub total_v6: u32,
}

/// Table 4: interception per public resolver, v4 vs v6.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Table4 {
    /// Per-resolver rows.
    pub rows: PerResolver<Table4Row>,
    /// The "All Intercepted" row: probes intercepted on all four.
    pub all_intercepted: Table4Row,
    /// Probes that experienced any interception at all (the paper's "220").
    pub any_intercepted: u32,
    /// Probes that responded to at least one experiment.
    pub responding: u32,
}

/// Folds one probe into a [`Table4`] under construction. Every counter is
/// a commutative sum, so fold order never changes the result.
fn fold_table4(t: &mut Table4, r: &ProbeResult) {
    t.responding += 1;
    if r.report.matrix.any_intercepted() {
        t.any_intercepted += 1;
    }
    let mut v4_all = true;
    let mut v6_all = true;
    let mut v4_any_answer = true;
    let mut v6_any_answer = true;
    for key in ResolverKey::ALL {
        let row = t.rows.get_mut(key);
        match r.report.matrix.v4.get(key) {
            LocationTestResult::Standard => {
                row.total_v4 += 1;
                v4_all = false;
            }
            LocationTestResult::NonStandard { .. } => {
                row.total_v4 += 1;
                row.intercepted_v4 += 1;
            }
            LocationTestResult::Timeout | LocationTestResult::NotTested => {
                v4_all = false;
                v4_any_answer = false;
            }
        }
        match r.report.matrix.v6.get(key) {
            LocationTestResult::Standard => {
                row.total_v6 += 1;
                v6_all = false;
            }
            LocationTestResult::NonStandard { .. } => {
                row.total_v6 += 1;
                row.intercepted_v6 += 1;
            }
            LocationTestResult::Timeout | LocationTestResult::NotTested => {
                v6_all = false;
                v6_any_answer = false;
            }
        }
    }
    if v4_any_answer {
        t.all_intercepted.total_v4 += 1;
        if v4_all {
            t.all_intercepted.intercepted_v4 += 1;
        }
    }
    if v6_any_answer {
        t.all_intercepted.total_v6 += 1;
        if v6_all {
            t.all_intercepted.intercepted_v6 += 1;
        }
    }
}

/// Builds Table 4 from campaign results.
pub fn table4(results: &[ProbeResult]) -> Table4 {
    let mut t = Table4::default();
    for r in results {
        fold_table4(&mut t, r);
    }
    t
}

impl fmt::Display for Table4 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Table 4: Number of intercepted probes per public resolver")?;
        writeln!(f, "{:<16} {:>13} {:>8} | {:>13} {:>8}", "", "Intercepted", "Total", "Intercepted", "Total")?;
        writeln!(f, "{:<16} {:>22} | {:>22}", "", "Resolver IPv4", "Resolver IPv6")?;
        for (key, row) in self.rows.iter() {
            writeln!(
                f,
                "{:<16} {:>13} {:>8} | {:>13} {:>8}",
                key.display_name(),
                row.intercepted_v4,
                row.total_v4,
                row.intercepted_v6,
                row.total_v6
            )?;
        }
        writeln!(
            f,
            "{:<16} {:>13} {:>8} | {:>13} {:>8}",
            "All Intercepted",
            self.all_intercepted.intercepted_v4,
            self.all_intercepted.total_v4,
            self.all_intercepted.intercepted_v6,
            self.all_intercepted.total_v6
        )?;
        writeln!(f, "(any interception: {} of {} responding probes)", self.any_intercepted, self.responding)
    }
}

/// Table 5: version.bind strings of CPE-classified probes, grouped the way
/// the paper groups them (`*` marking version numbers).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Table5 {
    /// Pattern → probe count, descending.
    pub groups: Vec<(String, u32)>,
    /// Total CPE-classified probes.
    pub total_cpe: u32,
}

/// Normalizes a version string to the paper's wildcard pattern.
pub fn table5_pattern(s: &str) -> String {
    if s.starts_with("dnsmasq-pi-hole") {
        "dnsmasq-pi-hole-*".into()
    } else if s.starts_with("dnsmasq") {
        "dnsmasq-*".into()
    } else if s.starts_with("unbound") {
        "unbound*".into()
    } else if s.ends_with("-RedHat") {
        "*-RedHat".into()
    } else if s.ends_with("-Debian") {
        "*-Debian".into()
    } else if s.starts_with("PowerDNS Recursor") {
        "PowerDNS Recursor*".into()
    } else if s.starts_with("Q9-") {
        "Q9-*".into()
    } else {
        s.into()
    }
}

/// Folds one probe into Table 5's working state (pattern counts plus the
/// CPE-classified total).
fn fold_table5(counts: &mut BTreeMap<String, u32>, total_cpe: &mut u32, r: &ProbeResult) {
    if r.report.location != Some(InterceptorLocation::Cpe) {
        return;
    }
    *total_cpe += 1;
    let Some(cpe) = &r.report.cpe else { return };
    let Some(text) = cpe.cpe_response.text() else { return };
    *counts.entry(table5_pattern(text)).or_insert(0) += 1;
}

/// Finishes Table 5: orders the pattern groups descending by count.
fn finish_table5(counts: BTreeMap<String, u32>, total_cpe: u32) -> Table5 {
    let mut groups: Vec<(String, u32)> = counts.into_iter().collect();
    groups.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    Table5 { groups, total_cpe }
}

/// Builds Table 5 from campaign results.
pub fn table5(results: &[ProbeResult]) -> Table5 {
    let mut counts: BTreeMap<String, u32> = BTreeMap::new();
    let mut total = 0;
    for r in results {
        fold_table5(&mut counts, &mut total, r);
    }
    finish_table5(counts, total)
}

impl fmt::Display for Table5 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Table 5: Strings sent in response to version.bind (CPE interceptors)")?;
        writeln!(f, "{:<28} {:>8}", "version.bind Response", "# Probes")?;
        for (pattern, count) in &self.groups {
            writeln!(f, "{:<28} {:>8}", pattern, count)?;
        }
        writeln!(f, "(total CPE-classified probes: {})", self.total_cpe)
    }
}

/// One bar of Figure 3: an organization's intercepted probes split by
/// transparency.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Figure3Bar {
    /// Organization name.
    pub org: String,
    /// AS number.
    pub asn: u32,
    /// Fully transparent probes.
    pub transparent: u32,
    /// All-error probes.
    pub status_modified: u32,
    /// Mixed probes.
    pub both: u32,
}

impl Figure3Bar {
    /// Total intercepted probes in this bar.
    pub fn total(&self) -> u32 {
        self.transparent + self.status_modified + self.both
    }
}

/// Figure 3: intercepted probes per top-N organization.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Figure3 {
    /// Bars, descending by total.
    pub bars: Vec<Figure3Bar>,
}

/// Folds one probe into Figure 3's working state (bars keyed by org index).
fn fold_figure3(by_org: &mut BTreeMap<usize, Figure3Bar>, fleet: &Fleet, r: &ProbeResult) {
    if !r.report.intercepted {
        return;
    }
    let org = &fleet.config.orgs[r.probe.org];
    let bar = by_org.entry(r.probe.org).or_insert_with(|| Figure3Bar {
        org: org.name.clone(),
        asn: org.asn,
        ..Figure3Bar::default()
    });
    match r.report.transparency {
        Some(Transparency::Transparent) | None => bar.transparent += 1,
        Some(Transparency::StatusModified) => bar.status_modified += 1,
        Some(Transparency::Both) => bar.both += 1,
    }
}

/// Finishes Figure 3: orders bars descending by total, keeps the top `n`.
fn finish_figure3(by_org: BTreeMap<usize, Figure3Bar>, n: usize) -> Figure3 {
    let mut bars: Vec<Figure3Bar> = by_org.into_values().collect();
    bars.sort_by(|a, b| b.total().cmp(&a.total()).then(a.org.cmp(&b.org)));
    bars.truncate(n);
    Figure3 { bars }
}

/// Builds Figure 3 (top `n` organizations).
pub fn figure3(fleet: &Fleet, results: &[ProbeResult], n: usize) -> Figure3 {
    let mut by_org: BTreeMap<usize, Figure3Bar> = BTreeMap::new();
    for r in results {
        fold_figure3(&mut by_org, fleet, r);
    }
    finish_figure3(by_org, n)
}

impl fmt::Display for Figure3 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Figure 3: Intercepted probes per top-{} organizations", self.bars.len())?;
        writeln!(
            f,
            "{:<20} {:>6} {:>12} {:>16} {:>6}",
            "Organization (AS)", "Total", "Transparent", "Status Modified", "Both"
        )?;
        for bar in &self.bars {
            writeln!(
                f,
                "{:<20} {:>6} {:>12} {:>16} {:>6}",
                format!("{} ({})", bar.org, bar.asn),
                bar.total(),
                bar.transparent,
                bar.status_modified,
                bar.both
            )?;
        }
        Ok(())
    }
}

/// One bar of Figure 4: interception location split for a country or org.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Figure4Bar {
    /// Country code or organization name.
    pub label: String,
    /// CPE-located interceptions.
    pub cpe: u32,
    /// Within-ISP interceptions.
    pub within_isp: u32,
    /// Beyond/unknown.
    pub beyond_unknown: u32,
}

impl Figure4Bar {
    /// Total intercepted probes in this bar.
    pub fn total(&self) -> u32 {
        self.cpe + self.within_isp + self.beyond_unknown
    }
}

/// Figure 4: interception location per top-N countries and organizations.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Figure4 {
    /// Country bars, descending.
    pub countries: Vec<Figure4Bar>,
    /// Organization bars, descending.
    pub orgs: Vec<Figure4Bar>,
    /// Fleet-wide totals.
    pub total: Figure4Bar,
}

/// Folds one probe into Figure 4's working state (country bars, org bars,
/// and the fleet-wide total bar).
fn fold_figure4(
    countries: &mut BTreeMap<String, Figure4Bar>,
    orgs: &mut BTreeMap<String, Figure4Bar>,
    total: &mut Figure4Bar,
    fleet: &Fleet,
    r: &ProbeResult,
) {
    let Some(location) = r.report.location else { return };
    let org = &fleet.config.orgs[r.probe.org];
    for bar in [
        countries.entry(org.country.clone()).or_insert_with(|| Figure4Bar {
            label: org.country.clone(),
            ..Figure4Bar::default()
        }),
        orgs.entry(org.name.clone()).or_insert_with(|| Figure4Bar {
            label: org.name.clone(),
            ..Figure4Bar::default()
        }),
        total,
    ] {
        match location {
            InterceptorLocation::Cpe => bar.cpe += 1,
            InterceptorLocation::WithinIsp => bar.within_isp += 1,
            InterceptorLocation::BeyondOrUnknown => bar.beyond_unknown += 1,
        }
    }
}

/// Finishes Figure 4: orders each panel descending by total, keeps the
/// top `n` in each.
fn finish_figure4(
    countries: BTreeMap<String, Figure4Bar>,
    orgs: BTreeMap<String, Figure4Bar>,
    total: Figure4Bar,
    n: usize,
) -> Figure4 {
    let sort = |map: BTreeMap<String, Figure4Bar>| {
        let mut bars: Vec<Figure4Bar> = map.into_values().collect();
        bars.sort_by(|a, b| b.total().cmp(&a.total()).then(a.label.cmp(&b.label)));
        bars.truncate(n);
        bars
    };
    Figure4 { countries: sort(countries), orgs: sort(orgs), total }
}

/// Builds Figure 4 (top `n` in each panel).
pub fn figure4(fleet: &Fleet, results: &[ProbeResult], n: usize) -> Figure4 {
    let mut countries: BTreeMap<String, Figure4Bar> = BTreeMap::new();
    let mut orgs: BTreeMap<String, Figure4Bar> = BTreeMap::new();
    let mut total = Figure4Bar { label: "all".into(), ..Figure4Bar::default() };
    for r in results {
        fold_figure4(&mut countries, &mut orgs, &mut total, fleet, r);
    }
    finish_figure4(countries, orgs, total, n)
}

impl fmt::Display for Figure4 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Figure 4: Interception location (CPE / within ISP / beyond-unknown)")?;
        for (title, bars) in
            [("countries", &self.countries), ("organizations", &self.orgs)]
        {
            writeln!(f, "-- top {} {title} --", bars.len())?;
            writeln!(
                f,
                "{:<20} {:>6} {:>6} {:>12} {:>15}",
                "", "Total", "CPE", "Within ISP", "Beyond/Unknown"
            )?;
            for bar in bars.iter() {
                writeln!(
                    f,
                    "{:<20} {:>6} {:>6} {:>12} {:>15}",
                    bar.label,
                    bar.total(),
                    bar.cpe,
                    bar.within_isp,
                    bar.beyond_unknown
                )?;
            }
        }
        writeln!(
            f,
            "overall: {} CPE, {} within ISP, {} beyond/unknown (of {})",
            self.total.cpe,
            self.total.within_isp,
            self.total.beyond_unknown,
            self.total.total()
        )
    }
}

/// Detector accuracy against simulator ground truth — something the paper
/// could not compute on the real Internet.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct AccuracyStats {
    /// Probes where the verdict matched the expected output.
    pub matches_expected: u32,
    /// Probes where it did not.
    pub mismatches: u32,
    /// Intercepted probes correctly flagged as intercepted.
    pub true_positives: u32,
    /// Clean probes incorrectly flagged.
    pub false_positives: u32,
    /// Intercepted probes missed.
    pub false_negatives: u32,
    /// Clean probes correctly cleared.
    pub true_negatives: u32,
}

/// Folds one probe into an [`AccuracyStats`] under construction.
fn fold_accuracy(stats: &mut AccuracyStats, r: &ProbeResult) {
    if r.report.location == r.expected {
        stats.matches_expected += 1;
    } else {
        stats.mismatches += 1;
    }
    match (r.truth.intercepted(), r.report.intercepted) {
        (true, true) => stats.true_positives += 1,
        (true, false) => stats.false_negatives += 1,
        (false, true) => stats.false_positives += 1,
        (false, false) => stats.true_negatives += 1,
    }
}

/// Computes accuracy from campaign results.
pub fn accuracy(results: &[ProbeResult]) -> AccuracyStats {
    let mut stats = AccuracyStats::default();
    for r in results {
        fold_accuracy(&mut stats, r);
    }
    stats
}

impl fmt::Display for AccuracyStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Detector accuracy vs simulator ground truth")?;
        writeln!(
            f,
            "  location verdict matches expected: {} / {}",
            self.matches_expected,
            self.matches_expected + self.mismatches
        )?;
        writeln!(
            f,
            "  interception detection: TP {}, FN {}, FP {}, TN {}",
            self.true_positives, self.false_negatives, self.false_positives, self.true_negatives
        )
    }
}

/// Fleet-wide retry economics: what the retry budget cost on the wire and
/// what it bought. Complements Table 4 — the paper's conservative rule
/// turns every lost query into a "not intercepted" cell, so the retry
/// budget is the knob that trades extra queries for fewer Timeout cells.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RetryStats {
    /// Logical DNS questions asked across the campaign.
    pub queries_sent: u64,
    /// Wire attempts across the campaign (== `queries_sent` at attempts=1).
    pub wire_attempts: u64,
    /// Questions that needed more than one attempt.
    pub retried_queries: u64,
    /// Probes where at least one question was retried.
    pub probes_with_retries: u32,
    /// Timeout cells remaining in the step-1 matrices (v4 + v6).
    pub timeout_cells: u32,
}

/// Folds one probe into a [`RetryStats`] under construction.
fn fold_retry(stats: &mut RetryStats, r: &ProbeResult) {
    stats.queries_sent += r.report.queries_sent as u64;
    stats.wire_attempts += r.report.wire_attempts as u64;
    stats.retried_queries += r.report.retried_queries as u64;
    if r.report.retried_queries > 0 {
        stats.probes_with_retries += 1;
    }
    stats.timeout_cells += r
        .report
        .matrix
        .v4
        .iter()
        .chain(r.report.matrix.v6.iter())
        .filter(|(_, c)| matches!(c, locator::LocationTestResult::Timeout))
        .count() as u32;
}

/// Computes retry statistics from campaign results.
pub fn retry_stats(results: &[ProbeResult]) -> RetryStats {
    let mut stats = RetryStats::default();
    for r in results {
        fold_retry(&mut stats, r);
    }
    stats
}

impl fmt::Display for RetryStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Retry economics")?;
        writeln!(f, "  logical queries:     {:>8}", self.queries_sent)?;
        writeln!(f, "  wire attempts:       {:>8}", self.wire_attempts)?;
        writeln!(f, "  retried queries:     {:>8}", self.retried_queries)?;
        writeln!(f, "  probes with retries: {:>8}", self.probes_with_retries)?;
        writeln!(f, "  timeout cells left:  {:>8}", self.timeout_cells)
    }
}

fn merge_table4_row(a: &mut Table4Row, b: &Table4Row) {
    a.intercepted_v4 += b.intercepted_v4;
    a.total_v4 += b.total_v4;
    a.intercepted_v6 += b.intercepted_v6;
    a.total_v6 += b.total_v6;
}

fn merge_figure4_bar(a: &mut Figure4Bar, b: &Figure4Bar) {
    a.cpe += b.cpe;
    a.within_isp += b.within_isp;
    a.beyond_unknown += b.beyond_unknown;
}

/// A campaign's entire aggregate state, built by folding one
/// [`ProbeResult`] at a time — never holding more than the probe being
/// folded. This is what makes million-probe campaigns possible: the
/// streaming scheduler folds each result into a per-worker
/// `AggregateReport` the moment it is measured, then [`merge`]s the
/// per-worker partials, so campaign memory is constant in fleet size.
///
/// Every counter in here is a commutative, order-independent sum (or a
/// keyed map of such sums), so fold order, thread count, and batch size
/// never change the aggregate — it is bitwise identical to running the
/// batch helpers ([`table4`], [`table5`], …) over a collected result
/// vector.
///
/// [`merge`]: AggregateReport::merge
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AggregateReport {
    probes: u64,
    table4: Table4,
    table5_counts: BTreeMap<String, u32>,
    table5_total_cpe: u32,
    figure3_by_org: BTreeMap<usize, Figure3Bar>,
    figure4_countries: BTreeMap<String, Figure4Bar>,
    figure4_orgs: BTreeMap<String, Figure4Bar>,
    figure4_total: Figure4Bar,
    accuracy: AccuracyStats,
    retry: RetryStats,
}

impl AggregateReport {
    /// An empty aggregate: what a campaign over zero probes produces.
    pub fn new() -> AggregateReport {
        AggregateReport {
            figure4_total: Figure4Bar { label: "all".into(), ..Figure4Bar::default() },
            ..AggregateReport::default()
        }
    }

    /// Folds one probe's result into the aggregate.
    pub fn fold(&mut self, fleet: &Fleet, r: &ProbeResult) {
        self.probes += 1;
        fold_table4(&mut self.table4, r);
        fold_table5(&mut self.table5_counts, &mut self.table5_total_cpe, r);
        fold_figure3(&mut self.figure3_by_org, fleet, r);
        fold_figure4(
            &mut self.figure4_countries,
            &mut self.figure4_orgs,
            &mut self.figure4_total,
            fleet,
            r,
        );
        fold_accuracy(&mut self.accuracy, r);
        fold_retry(&mut self.retry, r);
    }

    /// Merges another partial aggregate (e.g. a different worker's) into
    /// this one. Addition of sums is commutative and associative, so any
    /// partition of the fleet across partials merges to the same result.
    pub fn merge(&mut self, other: AggregateReport) {
        self.probes += other.probes;
        for key in ResolverKey::ALL {
            merge_table4_row(self.table4.rows.get_mut(key), other.table4.rows.get(key));
        }
        merge_table4_row(&mut self.table4.all_intercepted, &other.table4.all_intercepted);
        self.table4.any_intercepted += other.table4.any_intercepted;
        self.table4.responding += other.table4.responding;
        for (pattern, n) in other.table5_counts {
            *self.table5_counts.entry(pattern).or_insert(0) += n;
        }
        self.table5_total_cpe += other.table5_total_cpe;
        for (org, bar) in other.figure3_by_org {
            let slot = self.figure3_by_org.entry(org).or_insert_with(|| Figure3Bar {
                org: bar.org.clone(),
                asn: bar.asn,
                ..Figure3Bar::default()
            });
            slot.transparent += bar.transparent;
            slot.status_modified += bar.status_modified;
            slot.both += bar.both;
        }
        for (label, bar) in other.figure4_countries {
            merge_figure4_bar(
                self.figure4_countries.entry(label.clone()).or_insert_with(|| Figure4Bar {
                    label,
                    ..Figure4Bar::default()
                }),
                &bar,
            );
        }
        for (label, bar) in other.figure4_orgs {
            merge_figure4_bar(
                self.figure4_orgs.entry(label.clone()).or_insert_with(|| Figure4Bar {
                    label,
                    ..Figure4Bar::default()
                }),
                &bar,
            );
        }
        merge_figure4_bar(&mut self.figure4_total, &other.figure4_total);
        self.accuracy.matches_expected += other.accuracy.matches_expected;
        self.accuracy.mismatches += other.accuracy.mismatches;
        self.accuracy.true_positives += other.accuracy.true_positives;
        self.accuracy.false_positives += other.accuracy.false_positives;
        self.accuracy.false_negatives += other.accuracy.false_negatives;
        self.accuracy.true_negatives += other.accuracy.true_negatives;
        self.retry.queries_sent += other.retry.queries_sent;
        self.retry.wire_attempts += other.retry.wire_attempts;
        self.retry.retried_queries += other.retry.retried_queries;
        self.retry.probes_with_retries += other.retry.probes_with_retries;
        self.retry.timeout_cells += other.retry.timeout_cells;
    }

    /// Probes folded in so far.
    pub fn probes(&self) -> u64 {
        self.probes
    }

    /// Finishes the aggregate into the paper's tables and figures, keeping
    /// the top `top_n` bars in each ranked panel. Identical to running
    /// [`table4`], [`table5`], [`figure3`], [`figure4`], [`accuracy`], and
    /// [`retry_stats`] over the collected result vector.
    pub fn finish(self, top_n: usize) -> CampaignSummary {
        CampaignSummary {
            probes: self.probes,
            table4: self.table4,
            table5: finish_table5(self.table5_counts, self.table5_total_cpe),
            figure3: finish_figure3(self.figure3_by_org, top_n),
            figure4: finish_figure4(
                self.figure4_countries,
                self.figure4_orgs,
                self.figure4_total,
                top_n,
            ),
            accuracy: self.accuracy,
            retry: self.retry,
            timings: None,
        }
    }

    /// [`finish`](AggregateReport::finish) with a frozen timing snapshot
    /// attached. Campaigns that ran without the latency observer keep
    /// using `finish` and serialize `timings` as `null`.
    pub fn finish_with_timings(
        self,
        top_n: usize,
        timings: crate::timing::CampaignTimings,
    ) -> CampaignSummary {
        let mut summary = self.finish(top_n);
        summary.timings = Some(timings);
        summary
    }
}

/// The finished output of a streaming campaign: every table and figure
/// the repro produces, with the ranked panels cut to their top N.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignSummary {
    /// Probes measured.
    pub probes: u64,
    /// Table 4: interception per public resolver, v4 vs v6.
    pub table4: Table4,
    /// Table 5: version.bind strings of CPE-classified probes.
    pub table5: Table5,
    /// Figure 3: intercepted probes per top-N organization.
    pub figure3: Figure3,
    /// Figure 4: interception location per top-N countries/organizations.
    pub figure4: Figure4,
    /// Detector accuracy vs simulator ground truth.
    pub accuracy: AccuracyStats,
    /// Fleet-wide retry economics.
    pub retry: RetryStats,
    /// Latency distributions, present when the campaign ran with the
    /// timing observer attached; `null` for untimed campaigns.
    pub timings: Option<crate::timing::CampaignTimings>,
}

impl fmt::Display for CampaignSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.table4)?;
        writeln!(f, "{}", self.table5)?;
        writeln!(f, "{}", self.figure3)?;
        writeln!(f, "{}", self.figure4)?;
        writeln!(f, "{}", self.accuracy)?;
        write!(f, "{}", self.retry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{run_campaign, CampaignOptions};
    use crate::fleet::{generate, FleetConfig};
    use std::sync::OnceLock;

    fn campaign() -> (&'static Fleet, Vec<ProbeResult<'static>>) {
        static FLEET: OnceLock<Fleet> = OnceLock::new();
        let fleet =
            FLEET.get_or_init(|| generate(FleetConfig { size: 800, ..FleetConfig::default() }));
        let results = run_campaign(fleet, CampaignOptions::new(8), None, None, None);
        (fleet, results)
    }

    #[test]
    fn table5_pattern_grouping() {
        assert_eq!(table5_pattern("dnsmasq-2.85"), "dnsmasq-*");
        assert_eq!(table5_pattern("dnsmasq-pi-hole-2.87"), "dnsmasq-pi-hole-*");
        assert_eq!(table5_pattern("unbound 1.9.0"), "unbound*");
        assert_eq!(table5_pattern("9.11.4-RedHat"), "*-RedHat");
        assert_eq!(table5_pattern("9.11.5-Debian"), "*-Debian");
        assert_eq!(table5_pattern("PowerDNS Recursor 4.1.11"), "PowerDNS Recursor*");
        assert_eq!(table5_pattern("Q9-U-2.1"), "Q9-*");
        assert_eq!(table5_pattern("huuh?"), "huuh?");
        assert_eq!(table5_pattern("Windows NS"), "Windows NS");
    }

    #[test]
    fn small_campaign_aggregates_consistently() {
        let (fleet, results) = campaign();
        let t4 = table4(&results);
        assert_eq!(t4.responding as usize, results.len());
        // Any-intercepted never exceeds per-resolver sums.
        let max_per_resolver =
            t4.rows.iter().map(|(_, r)| r.intercepted_v4).max().unwrap_or(0);
        assert!(t4.any_intercepted >= max_per_resolver);
        assert!(t4.all_intercepted.intercepted_v4 <= max_per_resolver);

        let t5 = table5(&results);
        let sum: u32 = t5.groups.iter().map(|(_, n)| n).sum();
        assert!(sum <= t5.total_cpe + 1);

        let f3 = figure3(fleet, &results, 15);
        let f3_total: u32 = f3.bars.iter().map(|b| b.total()).sum();
        assert!(f3_total <= t4.any_intercepted);

        let f4 = figure4(fleet, &results, 15);
        assert_eq!(f4.total.total(), t4.any_intercepted);

        let acc = accuracy(&results);
        assert_eq!(
            acc.matches_expected + acc.mismatches,
            results.len() as u32
        );
        // No false positives: clean paths never look intercepted.
        assert_eq!(acc.false_positives, 0);
    }

    #[test]
    fn retry_stats_track_the_budget() {
        let base = FleetConfig { size: 250, flaky_rate: 0.3, ..FleetConfig::default() };
        let campaign = |fleet: &Fleet| {
            retry_stats(&run_campaign(fleet, CampaignOptions::new(4), None, None, None))
        };
        let single = campaign(&generate(base.clone()));
        assert_eq!(single.wire_attempts, single.queries_sent);
        assert_eq!(single.retried_queries, 0);
        assert_eq!(single.probes_with_retries, 0);
        assert!(single.timeout_cells > 0);

        let retried = campaign(&generate(FleetConfig { attempts: 3, ..base }));
        assert!(retried.wire_attempts > retried.queries_sent);
        assert!(retried.retried_queries > 0);
        assert!(retried.probes_with_retries > 0);
        assert!(retried.timeout_cells < single.timeout_cells);
        let text = retried.to_string();
        assert!(text.contains("wire attempts"));
    }

    #[test]
    fn streaming_fold_and_merge_match_batch_aggregation() {
        let (fleet, results) = campaign();
        // One aggregate folded over everything, in order.
        let mut whole = AggregateReport::new();
        for r in &results {
            whole.fold(fleet, r);
        }
        // The same results partitioned into uneven partials and merged —
        // the shape of per-worker streaming aggregation.
        let mut merged = AggregateReport::new();
        for chunk in results.chunks(37).rev() {
            let mut partial = AggregateReport::new();
            for r in chunk {
                partial.fold(fleet, r);
            }
            merged.merge(partial);
        }
        assert_eq!(whole, merged);

        // Finishing matches every batch helper bit for bit.
        let summary = whole.finish(15);
        assert_eq!(summary.probes as usize, results.len());
        assert_eq!(summary.table4, table4(&results));
        assert_eq!(summary.table5, table5(&results));
        assert_eq!(summary.figure3, figure3(fleet, &results, 15));
        assert_eq!(summary.figure4, figure4(fleet, &results, 15));
        assert_eq!(summary.accuracy, accuracy(&results));
        assert_eq!(summary.retry, retry_stats(&results));

        let json = serde_json::to_string(&summary).unwrap();
        let back: CampaignSummary = serde_json::from_str(&json).unwrap();
        assert_eq!(back, summary);
        assert!(summary.to_string().contains("Table 4"));
    }

    #[test]
    fn empty_aggregate_finishes_to_empty_tables() {
        let summary = AggregateReport::new().finish(15);
        assert_eq!(summary.probes, 0);
        assert_eq!(summary.table4, Table4::default());
        assert_eq!(summary.table5, Table5::default());
        assert!(summary.figure3.bars.is_empty());
        assert!(summary.figure4.countries.is_empty());
        assert_eq!(summary.figure4.total.label, "all");
        assert_eq!(summary.figure4.total.total(), 0);
    }

    #[test]
    fn displays_render() {
        let (fleet, results) = campaign();
        let t4 = format!("{}", table4(&results));
        assert!(t4.contains("Cloudflare DNS"));
        let t5 = format!("{}", table5(&results));
        assert!(t5.contains("version.bind"));
        let f3 = format!("{}", figure3(fleet, &results, 15));
        assert!(f3.contains("Transparent"));
        let f4 = format!("{}", figure4(fleet, &results, 15));
        assert!(f4.contains("Within ISP"));
    }
}
