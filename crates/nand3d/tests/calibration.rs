//! Referee for the calibrated NAND model: every one of its 30 values,
//! pinned bit for bit (`f64::to_bits`; arrays by value). Each value is
//! a fit to one of the paper's measurements (tPROG ≈ 700 µs and
//! tREAD ≈ 80 µs of §5.1, the Fig. 8(b) ISPP ladders, the Fig. 6 ΔV
//! spread, the §6.2 retry rates), so a moved value moves every
//! simulated number. The tables below are the values; only the
//! expression each test reads them through may change.

use nand3d::config::{IsppModel, NandTiming, ReliabilityParams, RetryModel};

/// Asserts that each `(name, got, want)` agrees to the bit.
fn assert_bits(rows: &[(&str, f64, f64)]) {
    for &(name, got, want) in rows {
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "{name} = {got}, calibrated {want}"
        );
    }
}

#[test]
fn timing_is_the_calibrated_table() {
    let t = NandTiming::PAPER;
    assert_bits(&[
        ("t_pgm_us", t.t_pgm_us, 48.0),
        ("t_vfy_us", t.t_vfy_us, 3.5),
        ("t_read_us", t.t_read_us, 80.0),
        ("t_retry_us", t.t_retry_us, 45.0),
        ("t_erase_us", t.t_erase_us, 3500.0),
        ("t_set_features_us", t.t_set_features_us, 0.8),
    ]);
}

#[test]
fn ispp_is_the_calibrated_table() {
    let m = IsppModel::PAPER;
    assert_bits(&[
        ("delta_v_ispp_mv", m.delta_v_ispp_mv, 160.0),
        ("max_adjust_mv", m.max_adjust_mv, 320.0),
    ]);
    assert_eq!(m.base_lmax, [3, 4, 6, 7, 9, 10, 11]);
    assert_eq!(m.base_spread, [1, 1, 1, 1, 2, 2, 2]);
    assert_eq!(m.max_loop, 11);
}

#[test]
fn reliability_is_the_calibrated_table() {
    let p = ReliabilityParams::PAPER;
    assert_bits(&[
        ("base_ber", p.base_ber, 2.0e-4),
        ("top_edge_amp", p.top_edge_amp, 0.40),
        ("top_edge_decay", p.top_edge_decay, 2.2),
        ("bottom_edge_amp", p.bottom_edge_amp, 0.50),
        ("bottom_edge_decay", p.bottom_edge_decay, 3.0),
        ("mid_bump_amp", p.mid_bump_amp, 0.25),
        ("mid_bump_center", p.mid_bump_center, 0.62),
        ("mid_bump_width", p.mid_bump_width, 0.10),
        ("pe_wear", p.pe_wear, 1.4),
        ("retention_amp", p.retention_amp, 2.6),
        ("retention_exp", p.retention_exp, 0.45),
        ("aging_cross", p.aging_cross, 0.90),
        ("block_sigma", p.block_sigma, 0.055),
        ("rtn_sigma", p.rtn_sigma, 0.010),
        ("ecc_capability_ber", p.ecc_capability_ber, 1.2e-2),
    ]);
}

#[test]
fn retry_is_the_calibrated_table() {
    let r = RetryModel::PAPER;
    let need = r.retry_need.map(f64::to_bits);
    assert_eq!(need, [0.0, 0.30, 0.90].map(f64::to_bits), "retry_need");
    assert_bits(&[
        ("shift_per_step", r.shift_per_step, 1.0),
        ("misprediction_prob", r.misprediction_prob, 0.02),
        ("thermal_jitter_prob", r.thermal_jitter_prob, 0.5),
    ]);
}
