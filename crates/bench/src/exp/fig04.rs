//! Figure 4 — finding the optimal read reference voltages via read
//! retries.
//!
//! Uses the physical Vth-distribution model: after long retention the
//! high states shift down and overlap the default references; the retry
//! mechanism walks the references down one `ΔV_Ref` offset at a time
//! until the overlap error rate drops under the ECC capability.

use bench::{banner, Table};
use nand3d::vth::{VthConditions, VthModel};
use nand3d::config::ReliabilityParams;

pub fn run(_: &crate::BenchArgs) {
    let model = VthModel::default();
    let ecc = ReliabilityParams::PAPER.ecc_capability_ber;

    banner("Fig. 4 — Vth landscape after 2K P/E + 1-year retention");
    let aged = model.landscape(&VthConditions {
        layer_factor: 1.1,
        pe: 2000,
        retention_months: 12.0,
        window_shrink_mv: 0.0,
    });
    let fresh = model.landscape(&VthConditions::default());

    let mut t = Table::new([
        "state",
        "fresh mean (V)",
        "aged mean (V)",
        "shift (mV)",
        "σ aged (mV)",
    ]);
    let names = ["E", "P1", "P2", "P3", "P4", "P5", "P6", "P7"];
    for (i, name) in names.iter().enumerate() {
        t.row([
            (*name).to_owned(),
            format!("{:+.2}", fresh.states[i].mean_v),
            format!("{:+.2}", aged.states[i].mean_v),
            format!(
                "{:+.0}",
                (aged.states[i].mean_v - fresh.states[i].mean_v) * 1000.0
            ),
            format!("{:.0}", aged.states[i].sigma_v * 1000.0),
        ]);
    }
    t.print();
    println!("\n(higher states shift further down — the P3/V_Ref(3) overlap of Fig. 4)");

    banner("read-retry walk: raw BER vs ΔV_Ref offset");
    let mut t = Table::new(["offset", "raw BER", "decodes?"]);
    let optimal = aged.optimal_offset(7);
    for offset in 0..=7u8 {
        let ber = aged.ber_at_offset(offset);
        let marker = if offset == optimal { " <- optimal" } else { "" };
        t.row([
            format!("{offset}{marker}"),
            format!("{ber:.2e}"),
            (ber < ecc).to_string(),
        ]);
    }
    t.print();
    println!(
        "\nPS-unaware reads walk 0 -> {optimal} ({} retries); a PS-aware read starts at {optimal}",
        optimal
    );
}
