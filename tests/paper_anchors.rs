//! Scalar anchors from the paper, checked end-to-end against the
//! calibrated model. Each test asserts its band on the one measurement
//! of the anchor in `bench::anchors` — the same call the figure that
//! regenerates it prints and `bench summary` tabulates (see
//! EXPERIMENTS.md for the full figure-by-figure record).

use bench::anchors::{
    default_latencies, fig06_mean_delta_v, fig11_320mv, fig13_orders, follower_tprog, max_delta_h,
    max_over_min, retry_fractions,
};
use nand3d::AgingState;

#[test]
fn anchor_delta_h_is_virtually_one() {
    // Fig. 5: ΔH ≈ 1 for all aging conditions.
    let max = max_delta_h();
    assert!(max < 1.08, "max ΔH {max}");
}

#[test]
fn anchor_delta_v_1_6_fresh_2_3_aged() {
    // Fig. 6: ΔV ≈ 1.6 fresh → ≈ 2.3 at 2K P/E + 1 year.
    let [fresh, _, aged] = fig06_mean_delta_v();
    assert!((1.35..2.0).contains(&fresh), "fresh ΔV {fresh}");
    assert!((2.0..2.8).contains(&aged), "aged ΔV {aged}");
}

#[test]
fn anchor_default_tprog_700us_tread_80us() {
    // §5.1 typical latencies.
    let (tprog, tread) = default_latencies();
    assert!((600.0..820.0).contains(&tprog), "tPROG {tprog}");
    assert!((70.0..95.0).contains(&tread), "tREAD {tread}");
}

#[test]
fn anchor_vfy_skip_saves_about_16_percent() {
    // §4.1.1: 16.2% average tPROG reduction from VFY skipping alone.
    let reduction = follower_tprog().vfy_skip;
    assert!(
        (0.12..0.20).contains(&reduction),
        "VFY-skip reduction {reduction:.3}"
    );
}

#[test]
fn anchor_combined_follower_saves_about_30_percent() {
    // §6.2: cubeFTL's follower tPROG falls by ≈30% on average; §6.1 caps
    // a single WL's reduction at 35.9%; vertFTL's static guard step
    // saves ≈8%.
    let follower = follower_tprog();
    let avg = follower.combined_avg;
    assert!(
        (0.25..0.34).contains(&avg),
        "combined reduction (avg) {avg:.3}"
    );
    let max = follower.combined_max;
    assert!(
        (0.28..=0.40).contains(&max),
        "combined reduction (max) {max:.3}"
    );
    let vert = follower.vert;
    assert!((0.06..=0.10).contains(&vert), "vertFTL reduction {vert:.3}");
}

#[test]
fn anchor_320mv_removes_about_19_percent() {
    // Fig. 11(b).
    let reduction = fig11_320mv().reduction();
    assert!(
        (0.15..0.24).contains(&reduction),
        "320 mV reduction {reduction:.3}"
    );
}

#[test]
fn anchor_retry_fractions_0_30_90() {
    // §6.2's probabilistic retry model.
    let fractions = retry_fractions();
    for ((state, frac), expected) in AgingState::ALL
        .into_iter()
        .zip(fractions)
        .zip([0.0, 0.30, 0.90])
    {
        assert!(
            (frac - expected).abs() < 0.05,
            "{state}: retry fraction {frac:.3}, expected {expected}"
        );
    }
}

#[test]
fn anchor_program_orders_are_reliability_equivalent() {
    // Fig. 13: <3% BER difference between orders (plus RTN noise).
    let ratio = max_over_min(fig13_orders().map(|o| o.1));
    assert!(ratio < 1.03, "order BER spread {ratio:.4}");
}
