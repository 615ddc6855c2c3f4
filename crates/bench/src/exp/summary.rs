//! Paper vs measured: one row per scalar anchor of the reproduction,
//! with a verdict computed against the row's band. At the default scale
//! its stdout is EXPERIMENTS.md's scalar table, verbatim.
//!
//! Every measurement is the `bench::anchors` function that the figure in
//! the `source` column prints (`summary` where no figure does) and, for
//! a device row with a test, that `tests/paper_anchors.rs` asserts.
//!
//! Run with: `cargo run --release -p bench -- summary` (add `--full` for
//! the paper-scale SSD in the Fig. 17 and Fig. 18 rows).

use bench::anchors::*;
use bench::{f2, paper_chip, text, Columns};
use cubeftl::{AgingState, StandardWorkload};
use nand3d::ispp::margin_mv_for_spare;

/// Where an anchor must land: the closed interval `[lo, hi]`, and, for
/// an anchor with a direction, the value `from` on whose side the band
/// lies. `show` prints the band's edges and the measurement.
#[derive(Clone, Copy)]
struct Band {
    lo: f64,
    hi: f64,
    from: Option<f64>,
    show: fn(f64) -> String,
}

/// `[lo, hi]` printed through `show`, with no direction.
fn band(lo: f64, hi: f64, show: fn(f64) -> String) -> Band {
    Band {
        lo,
        hi,
        from: None,
        show,
    }
}

impl Band {
    /// `self`, whose direction is its side of `from`.
    fn from(self, from: f64) -> Band {
        Band {
            from: Some(from),
            ..self
        }
    }

    /// `✔` inside the band, `~` outside it but on the band's side of
    /// `from`, `✘` otherwise.
    fn verdict(&self, v: f64) -> &'static str {
        let direction = |f: f64| (self.lo > f && v > f) || (self.hi < f && v < f);
        if (self.lo..=self.hi).contains(&v) {
            "✔"
        } else if self.from.is_some_and(direction) {
            "~"
        } else {
            "✘"
        }
    }
}

/// One row: an anchor of the paper, where it must land, what the
/// reproduction measures and the experiment that prints it.
struct Anchor {
    name: &'static str,
    paper: &'static str,
    band: Band,
    measured: f64,
    source: &'static str,
}

pub fn run(crate::BenchArgs { cfg, .. }: &crate::BenchArgs) {
    let dv = fig06_mean_delta_v();
    let ((_, block_i), (_, block_ii)) = quartile_blocks(&fig06d_delta_v());
    let (tprog, tread) = default_latencies();
    let follower = follower_tprog();
    let sm_margin = margin_mv_for_spare(1.7, paper_chip().ispp().ispp_model());
    let order_diff = max_over_min(fig13_orders().map(|o| o.1)) - 1.0;
    let retried = retry_fractions();
    let grid = fig17_grid(cfg);
    let gain = |aging, workload| {
        let row = grid.iter().find(|r| (r.aging, r.workload) == (aging, workload));
        row.expect("in the grid").gains()[0]
    };
    let eol_gain = |w| gain(AgingState::EndOfLife, w);
    let proxy = eol_gain(StandardWorkload::Proxy);
    let above_proxy = StandardWorkload::ALL.iter().filter(|&&w| eol_gain(w) > proxy);
    let fig18 = fig18_sweep(cfg);
    let pct = |v: f64| format!("{:.0}%", 100.0 * v);
    let pct1 = |v: f64| format!("{:.1}%", 100.0 * v);
    let pct2 = |v: f64| format!("{:.2}%", 100.0 * v);
    let change = |v: f64| format!("{:+.0}%", 100.0 * v);
    let count = |v: f64| format!("{v:.0}");
    let us = |v: f64| format!("{v:.0} µs");
    let mv = |v: f64| format!("{v:.0} mV");
    let times = |v: f64| format!("{v:.2}x");
    let order = "0 (cube <= cube- <= vert <= page)";
    // One anchor per line: (name, paper, band, measured, source).
    #[rustfmt::skip]
    let rows = [
        ("max ΔH (intra-layer similarity)", "≈1", band(1.0, 1.08, f2), max_delta_h(), "fig05"),
        ("ΔV fresh block", "1.6", band(1.35, 2.0, f2).from(1.0), dv[0], "fig06"),
        ("ΔV at 2K P/E + 1-year retention", "2.3", band(2.0, 2.8, f2).from(1.0), dv[2], "fig06"),
        ("per-block ΔV difference (two samples)", "18%", band(0.13, 0.23, pct).from(0.0), block_i / block_ii - 1.0, "fig06"),
        ("default tPROG", "≈700 µs", band(600.0, 820.0, us), tprog, "summary"),
        ("tREAD (no retries)", "≈80 µs", band(70.0, 95.0, us), tread, "summary"),
        ("VFY-skip tPROG reduction (avg)", "16.2%", band(0.12, 0.20, pct1).from(0.0), follower.vfy_skip, "summary"),
        ("320 mV window adjustment: tPROG reduction", "19.7%", band(0.15, 0.24, pct1).from(0.0), fig11_320mv().reduction(), "fig11"),
        ("S_M = 1.7: total window margin", "320 mV", band(320.0, 320.0, mv), sm_margin, "fig11"),
        ("combined follower tPROG reduction (avg)", "≈30%", band(0.25, 0.34, pct1).from(0.0), follower.combined_avg, "summary"),
        ("combined follower tPROG reduction (max)", "35.9%", band(0.28, 0.40, pct1).from(0.0), follower.combined_max, "summary"),
        ("vertFTL tPROG reduction", "≈8%", band(0.06, 0.10, pct1).from(0.0), follower.vert, "summary"),
        ("program-order BER difference (HFO/VFO/MOS)", "<3%", band(0.0, 0.03, pct2), order_diff, "fig13"),
        ("NumRetry reduction (PS-aware reads)", "66%", band(0.56, 0.76, pct).from(0.0), fig14_num_retry().reduction(), "fig14"),
        ("reads needing retries, fresh", "0%", band(0.0, 0.05, pct), retried[0], "summary"),
        ("reads needing retries, 2K P/E + 1 month", "30%", band(0.25, 0.35, pct), retried[1], "summary"),
        ("reads needing retries, 2K P/E + 1 year", "90%", band(0.85, 0.95, pct), retried[2], "summary"),
        ("cubeFTL vs pageFTL IOPS, OLTP fresh", "+48%", band(0.38, 0.58, change).from(0.0), gain(AgingState::Fresh, StandardWorkload::Oltp), "fig17"),
        ("cubeFTL vs vertFTL IOPS, max over the grid", "up to +36%", band(0.26, 0.46, change).from(0.0), fig17_max_gains(&grid)[1], "fig17"),
        ("EOL gains over pageFTL larger than Proxy's", "0 (largest)", band(0.0, 0.0, count), above_proxy.count() as f64, "fig17"),
        ("p90 write latency pageFTL / cubeFTL, Rocks fresh", "≈1.53x", band(1.38, 1.68, times).from(1.0), fig18_p90_write_ratio(&fig18), "fig18"),
        ("p80 write latency cubeFTL vs cubeFTL-", "-42%", band(-0.52, -0.32, change).from(0.0), -fig18_p80_write_shortening(&fig18), "fig18"),
        ("write latency pairs out of order, p80 and p90", order, band(0.0, 0.0, count), fig18_out_of_order(&fig18, true) as f64, "fig18"),
        ("read latency pairs out of order, p80 and p90", order, band(0.0, 0.0, count), fig18_out_of_order(&fig18, false) as f64, "fig18"),
    ];
    let anchors = rows.map(|(name, paper, band, measured, source)| Anchor {
        name,
        paper,
        band,
        measured,
        source,
    });

    println!(
        "scale: {} blocks/chip, {} requests per Fig. 17/18 cell\n",
        cfg.blocks_per_chip(),
        cfg.requests
    );
    let mut cols = Columns::<Anchor>::default();
    cols.col("anchor", |a| text(a.name));
    cols.col("paper", |a| text(a.paper));
    cols.col("band", |a| {
        let (lo, hi) = ((a.band.show)(a.band.lo), (a.band.show)(a.band.hi));
        text(if lo == hi { lo } else { format!("{lo} – {hi}") })
    });
    cols.col("measured", |a| text((a.band.show)(a.measured)));
    cols.col("verdict", |a| text(a.band.verdict(a.measured)));
    cols.col("source", |a| text(a.source));
    cols.table(&anchors).print();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_verdict_is_the_band_then_the_direction() {
        let show = |v: f64| v.to_string();
        let reduction = band(0.12, 0.20, show).from(0.0);
        for (v, want) in [
            (0.16, "✔"),
            (0.12, "✔"),
            (0.20, "✔"),
            (0.05, "~"),
            (0.30, "~"),
            (0.0, "✘"),
            (-0.05, "✘"),
        ] {
            assert_eq!(reduction.verdict(v), want, "{v}");
        }
        // A band below `from`: the direction is a negative change.
        let shortening = band(-0.52, -0.32, show).from(0.0);
        assert_eq!(shortening.verdict(-0.01), "~");
        assert_eq!(shortening.verdict(0.01), "✘");
        // Without a direction, only the band counts.
        let exact = band(0.0, 0.0, show);
        assert_eq!(exact.verdict(0.0), "✔");
        assert_eq!(exact.verdict(2.0), "✘");
    }
}
