//! ASCII bar-chart rendering for Figures 3 and 4, so `repro` output reads
//! like the paper's plots.

use crate::aggregate::{Figure3, Figure4, Figure4Bar};
use std::fmt::Write;

/// Width of the bar area in characters.
const BAR_WIDTH: usize = 48;

fn bar_segments(parts: &[(u32, char)], total_scale: u32) -> String {
    let mut out = String::new();
    if total_scale == 0 {
        return out;
    }
    for &(value, glyph) in parts {
        let cells = (value as usize * BAR_WIDTH).div_ceil(total_scale as usize);
        for _ in 0..cells.min(BAR_WIDTH) {
            out.push(glyph);
        }
    }
    out
}

/// Renders Figure 3 as a stacked horizontal bar chart
/// (`█` transparent, `▒` status-modified, `░` both).
pub fn figure3_chart(fig: &Figure3) -> String {
    let mut out = String::new();
    let max = fig.bars.iter().map(|b| b.total()).max().unwrap_or(1).max(1);
    let _ = writeln!(out, "█ Transparent  ▒ Status Modified  ░ Both");
    for bar in &fig.bars {
        let segments = bar_segments(
            &[(bar.transparent, '█'), (bar.status_modified, '▒'), (bar.both, '░')],
            max,
        );
        let _ = writeln!(out, "{:>22} ({:>3}) |{}", bar.org, bar.total(), segments);
    }
    out
}

fn figure4_panel(bars: &[Figure4Bar], out: &mut String) {
    let max = bars.iter().map(|b| b.total()).max().unwrap_or(1).max(1);
    for bar in bars {
        let segments =
            bar_segments(&[(bar.cpe, '█'), (bar.within_isp, '▒'), (bar.beyond_unknown, '░')], max);
        let _ = writeln!(out, "{:>22} ({:>3}) |{}", bar.label, bar.total(), segments);
    }
}

/// Renders Figure 4 as two stacked-bar panels
/// (`█` CPE, `▒` within ISP, `░` beyond/unknown).
pub fn figure4_chart(fig: &Figure4) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "█ CPE  ▒ Within ISP  ░ Beyond/Unknown");
    let _ = writeln!(out, "-- countries --");
    figure4_panel(&fig.countries, &mut out);
    let _ = writeln!(out, "-- organizations --");
    figure4_panel(&fig.orgs, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::Figure3Bar;

    #[test]
    fn figure3_chart_renders_scaled_bars() {
        let fig = Figure3 {
            bars: vec![
                Figure3Bar {
                    org: "Comcast".into(),
                    asn: 7922,
                    transparent: 40,
                    status_modified: 0,
                    both: 0,
                },
                Figure3Bar {
                    org: "Rostelecom".into(),
                    asn: 12389,
                    transparent: 10,
                    status_modified: 8,
                    both: 2,
                },
            ],
        };
        let chart = figure3_chart(&fig);
        assert!(chart.contains("Comcast"));
        assert!(chart.contains('█'));
        assert!(chart.contains('▒'));
        // The largest bar fills (roughly) the full width.
        let comcast_line = chart.lines().find(|l| l.contains("Comcast")).unwrap();
        let filled = comcast_line.chars().filter(|c| *c == '█').count();
        assert!(filled >= BAR_WIDTH - 1, "filled {filled}");
    }

    #[test]
    fn figure4_chart_renders_both_panels() {
        let fig = Figure4 {
            countries: vec![Figure4Bar {
                label: "US".into(),
                cpe: 5,
                within_isp: 7,
                beyond_unknown: 3,
            }],
            orgs: vec![Figure4Bar {
                label: "Comcast".into(),
                cpe: 5,
                within_isp: 5,
                beyond_unknown: 2,
            }],
            total: Figure4Bar::default(),
        };
        let chart = figure4_chart(&fig);
        assert!(chart.contains("-- countries --"));
        assert!(chart.contains("-- organizations --"));
        assert!(chart.contains("US"));
        assert!(chart.contains("Comcast"));
    }

    #[test]
    fn empty_figures_do_not_panic() {
        let chart = figure3_chart(&Figure3::default());
        assert!(chart.contains("Transparent"));
        let chart = figure4_chart(&Figure4::default());
        assert!(chart.contains("CPE"));
    }

    #[test]
    fn empty_campaign_charts_are_legend_only() {
        // An aggregated-then-charted campaign with zero probes: the full
        // pipeline must degrade to just the legends, one per figure.
        let fleet = crate::fleet::generate(crate::fleet::FleetConfig {
            size: 0,
            ..crate::fleet::FleetConfig::default()
        });
        let options = crate::campaign::CampaignOptions::new(4);
        let summary =
            crate::campaign::run_campaign_streaming(&fleet, options, None, None).finish(15);
        assert_eq!(summary.probes, 0);
        let f3 = figure3_chart(&summary.figure3);
        assert_eq!(f3.lines().count(), 1, "no bars, only the legend: {f3:?}");
        let f4 = figure4_chart(&summary.figure4);
        assert_eq!(f4.lines().count(), 3, "legend plus two empty panel headers: {f4:?}");
    }

    #[test]
    fn zero_valued_bars_render_without_glyphs() {
        let fig = Figure3 {
            bars: vec![
                Figure3Bar {
                    org: "Comcast".into(),
                    asn: 7922,
                    transparent: 12,
                    ..Default::default()
                },
                Figure3Bar { org: "Ghost".into(), asn: 1, ..Default::default() },
            ],
        };
        let chart = figure3_chart(&fig);
        let ghost = chart.lines().find(|l| l.contains("Ghost")).unwrap();
        assert!(ghost.ends_with('|'), "zero bar draws nothing after the axis: {ghost:?}");
        assert!(ghost.contains("(  0)"));
    }

    #[test]
    fn segments_never_exceed_the_bar_area_individually() {
        // Rounding up each stacked segment must still cap at BAR_WIDTH.
        let segments = bar_segments(&[(1_000_000, '█')], 1);
        assert_eq!(segments.chars().count(), BAR_WIDTH);
        let tiny = bar_segments(&[(1, '█'), (1, '▒')], 1_000_000);
        // Nonzero counts always show at least one cell each (div_ceil).
        assert_eq!(tiny, "█▒");
    }
}
