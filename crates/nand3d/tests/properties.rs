//! Property-based tests on the NAND model's invariants.

use nand3d::ispp::split_margin_mv;
use nand3d::{
    BlockId, Environment, IsppEngine, NandChip, NandConfig, ProcessModel, ProgramParams,
    ReadParams, RetryEngine, WlData, NUM_PROGRAM_STATES,
};
use proptest::prelude::*;
use std::sync::OnceLock;

/// The paper-scale process model is expensive to sample; share one
/// instance across all property cases (it is immutable).
fn shared() -> &'static (IsppEngine, ProcessModel) {
    static SHARED: OnceLock<(IsppEngine, ProcessModel)> = OnceLock::new();
    SHARED.get_or_init(|| {
        (
            IsppEngine::new(),
            ProcessModel::new(NandConfig::paper().geometry, 5),
        )
    })
}

fn engine_setup() -> (&'static IsppEngine, &'static ProcessModel, Environment) {
    let (engine, process) = shared();
    (engine, process, Environment::new(428, 6))
}

proptest! {
    /// Skipping more verifies never increases latency, and never
    /// decreases reliability *below* the default-parameter BER when kept
    /// within the safe limits.
    #[test]
    fn more_skips_never_slower(
        block in 0u32..428,
        h in 0u16..48,
        extra in 0u8..3,
    ) {
        let (engine, process, env) = engine_setup();
        let wl = process.geometry().wl_addr(BlockId(block), h, 1);
        let chars = engine.characterize(process, wl, &env, 0);

        let mut less = ProgramParams::default();
        let mut more = ProgramParams::default();
        for s in 0..NUM_PROGRAM_STATES {
            let safe = chars.intervals[s].safe_skip();
            less.n_skip[s] = safe.saturating_sub(extra);
            more.n_skip[s] = safe;
        }
        let a = engine.program(&chars, &less).expect("legal");
        let b = engine.program(&chars, &more).expect("legal");
        prop_assert!(b.latency_us <= a.latency_us);
        prop_assert!((a.post_ber - chars.base_ber).abs() < 1e-15);
        prop_assert!((b.post_ber - chars.base_ber).abs() < 1e-15);
    }

    /// Window shrinking within the device cap always removes pulses
    /// monotonically, and the latency formula stays consistent with the
    /// reported pulse/verify counts.
    #[test]
    fn window_shrink_is_monotone(
        block in 0u32..428,
        h in 0u16..48,
        steps in 0u8..3,
    ) {
        let (engine, process, env) = engine_setup();
        let wl = process.geometry().wl_addr(BlockId(block), h, 2);
        let chars = engine.characterize(process, wl, &env, 0);
        let ispp = engine.ispp_model();

        let mut prev_pulses = u32::MAX;
        for s in 0..=steps {
            let total = f64::from(s) * ispp.delta_v_ispp_mv;
            let (up, down) = split_margin_mv(total, ispp);
            let out = engine
                .program(&chars, &ProgramParams { v_start_up_mv: up, v_final_down_mv: down, ..ProgramParams::default() })
                .expect("within cap");
            prop_assert!(out.pulses <= prev_pulses);
            prev_pulses = out.pulses;
            // Eq. (1) consistency.
            let t = f64::from(out.pulses) * 48.0 + f64::from(out.verifies) * 3.5;
            let overhead = if s == 0 { 0.0 } else { 0.8 };
            prop_assert!((out.latency_us - t - overhead).abs() < 1e-9);
        }
    }

    /// The monitored loop intervals are identical for all WLs of one
    /// h-layer under any aging condition — the intra-layer similarity
    /// the whole paper rests on.
    #[test]
    fn intervals_identical_within_hlayer(
        block in 0u32..428,
        h in 0u16..48,
        pe in 0u32..2500,
        months in 0u16..13,
    ) {
        let (engine, process, mut env) = engine_setup();
        env.set_aging_raw(pe, f64::from(months));
        let g = *process.geometry();
        let reference = engine
            .characterize(process, g.wl_addr(BlockId(block), h, 0), &env, 0)
            .intervals;
        for v in 1..4u16 {
            let other = engine
                .characterize(process, g.wl_addr(BlockId(block), h, v), &env, 0)
                .intervals;
            prop_assert_eq!(reference, other);
        }
    }

    /// Read retries equal the offset distance, and the reported latency
    /// is affine in the retry count.
    #[test]
    fn retries_equal_search_distance(
        block in 0u32..428,
        h in 0u16..48,
        start in 0u8..8,
        months in 1u16..13,
    ) {
        let (_, process) = shared();
        let retry = RetryEngine::new();
        let mut env = Environment::new(428, 6);
        env.set_aging_raw(2000, f64::from(months));
        let wl = process.geometry().wl_addr(BlockId(block), h, 1);

        let optimal = retry.optimal_offset(process, wl, &env);
        let out = retry.read(process, wl, &env, ReadParams::from_offset(start), true, false, 0);
        prop_assert_eq!(out.retries, u32::from(start.abs_diff(optimal)));
        let expected = 80.0 + f64::from(out.retries) * 45.0;
        prop_assert!((out.latency_us - expected).abs() < 1e-9);
        prop_assert_eq!(out.final_offset, optimal);
    }

    /// Full chip command protocol: any interleaving of erases and
    /// WL programs keeps data readable and never corrupts other blocks.
    #[test]
    fn chip_protocol_is_safe(ops in prop::collection::vec((0u32..4, 0u16..8, 0u16..4, prop::bool::ANY), 1..60)) {
        let mut chip = NandChip::new(NandConfig::small(), 3);
        let g = *chip.geometry();
        let mut programmed: std::collections::HashMap<(u32, u16, u16), u64> =
            std::collections::HashMap::new();
        let mut erased: std::collections::HashSet<u32> = std::collections::HashSet::new();
        let mut tag = 0u64;

        for (b, h, v, do_erase) in ops {
            if do_erase {
                chip.erase(BlockId(b)).expect("erase in range");
                erased.insert(b);
                programmed.retain(|k, _| k.0 != b);
            } else if erased.contains(&b) {
                let wl = g.wl_addr(BlockId(b), h, v);
                let result = chip.program_wl(wl, WlData::host(tag), &ProgramParams::default());
                if let std::collections::hash_map::Entry::Vacant(e) = programmed.entry((b, h, v)) {
                    prop_assert!(result.is_ok());
                    e.insert(tag);
                    tag += 3;
                } else {
                    prop_assert!(result.is_err(), "double program must fail");
                }
            }
        }
        // Every programmed WL reads back its own tags.
        for ((b, h, v), t) in &programmed {
            for p in 0..3u8 {
                let page = g.page_addr(BlockId(*b), *h, *v, p);
                chip.read_page(page, ReadParams::default()).expect("written");
                prop_assert_eq!(chip.page_tag(page), Some(t + u64::from(p)));
            }
        }
    }
}
