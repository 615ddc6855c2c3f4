//! Property-based tests on the core data structures and invariants.

use cubeftl::{FtlConfig, FtlDriver, Geometry, ProgramOrder};
use ftl::{Checkpoint, Ftl, FtlKind, Mapping, OffsetLookup, Opm, OrtClusterConfig, Ppn};
use nand3d::{
    BlockId, Environment, FaultKind, FaultPlan, NandChip, NandConfig, OobStatus, ProcessModel,
    ProgramParams, ReadParams, RetryEngine, RetryOptConfig, WlData, WlOob,
};
use proptest::prelude::*;
use ssdsim::{HostContext, WriteBuffer};
use std::collections::{HashMap, HashSet};

fn arb_geometry() -> impl Strategy<Value = Geometry> {
    (1u32..6, 2u16..12, 2u16..6).prop_map(|(blocks, hlayers, wls)| Geometry {
        blocks_per_chip: blocks,
        hlayers_per_block: hlayers,
        wls_per_hlayer: wls,
        pages_per_wl: 3,
        page_size: 16 * 1024,
    })
}

/// An arbitrary seeded fault plan mixing all five fault classes at
/// moderate rates.
fn arb_fault_plan() -> impl Strategy<Value = FaultPlan> {
    (
        0u64..1_000_000,
        0.0f64..0.05,
        0.0f64..0.05,
        0.0f64..0.05,
        0.0f64..0.05,
        0.0f64..0.03,
    )
        .prop_map(|(seed, outlier, spike, stuck, uncorr, abort)| {
            FaultPlan::seeded(seed)
                .with_rate(FaultKind::IsppLoopOutlier, outlier)
                .with_rate(FaultKind::BerSpike, spike)
                .with_rate(FaultKind::StuckRetry, stuck)
                .with_rate(FaultKind::UncorrectableRead, uncorr)
                .with_rate(FaultKind::ProgramAbort, abort)
        })
}

proptest! {
    /// Every program order visits every WL of a block exactly once, and
    /// never schedules a follower before its h-layer's leader.
    #[test]
    fn program_orders_are_leader_first_permutations(g in arb_geometry(), order_idx in 0usize..3) {
        let order = ProgramOrder::ALL[order_idx];
        let block = BlockId(0);
        let mut seen = HashSet::new();
        let mut leader_done = vec![false; g.hlayers_per_block as usize];
        let mut count = 0u32;
        for wl in order.sequence(&g, block) {
            prop_assert!(g.contains_wl(wl));
            prop_assert!(seen.insert(wl), "duplicate WL {wl}");
            if wl.is_leader() {
                leader_done[wl.h.0 as usize] = true;
            } else {
                prop_assert!(leader_done[wl.h.0 as usize], "follower {wl} before leader");
            }
            count += 1;
        }
        prop_assert_eq!(count, g.wls_per_block());
    }

    /// Page address flattening is a bijection for arbitrary geometries.
    #[test]
    fn page_flat_roundtrips(g in arb_geometry(), flat in 0usize..10_000) {
        let flat = flat % g.pages_per_chip() as usize;
        let addr = g.page_unflat(flat);
        prop_assert!(g.contains_page(addr));
        prop_assert_eq!(g.page_flat(addr), flat);
    }

    /// The mapping table never loses or duplicates pages under arbitrary
    /// map/unmap sequences.
    #[test]
    fn mapping_is_consistent(ops in prop::collection::vec((0u64..64, 0u32..200), 1..200)) {
        let g = Geometry::small();
        let mut m = Mapping::new(g, 1, 64);
        let mut shadow: HashMap<u64, u32> = HashMap::new();
        let mut used: HashSet<u32> = HashSet::new();
        for (lpn, page_seed) in ops {
            // Pick a fresh physical page (never reused without erase).
            let page = (0..g.pages_per_chip() as u32)
                .map(|i| (page_seed + i) % g.pages_per_chip() as u32)
                .find(|p| !used.contains(p));
            let Some(page) = page else { break };
            used.insert(page);
            if let Some(old) = shadow.insert(lpn, page) {
                // The mapping must report the overwritten location.
                prop_assert_eq!(m.map(lpn, Ppn { chip: 0, page }), Some(Ppn { chip: 0, page: old }));
            } else {
                prop_assert_eq!(m.map(lpn, Ppn { chip: 0, page }), None);
            }
        }
        // Forward and reverse agree with the shadow model.
        prop_assert_eq!(m.total_valid(), shadow.len() as u64);
        for (lpn, page) in &shadow {
            prop_assert_eq!(m.lookup(*lpn), Some(Ppn { chip: 0, page: *page }));
            prop_assert_eq!(m.reverse(Ppn { chip: 0, page: *page }), Some(*lpn));
        }
    }

    /// The write buffer's fill accounting never leaks slots across
    /// arbitrary push/flush/complete interleavings.
    #[test]
    fn write_buffer_conserves_slots(ops in prop::collection::vec((0u64..32, prop::bool::ANY), 1..300)) {
        let mut b = WriteBuffer::new(16);
        let mut in_flight: Vec<[u64; 3]> = Vec::new();
        for (lpn, flush) in ops {
            if flush {
                if let Some(batch) = b.take_for_flush(1) {
                    in_flight.push(batch);
                }
                // Complete the oldest in-flight flush half the time.
                if in_flight.len() > 1 {
                    let batch = in_flight.remove(0);
                    b.complete_flush(batch);
                }
            } else {
                let _ = b.push(lpn);
            }
            prop_assert!(b.fill() <= b.capacity());
        }
        // Drain everything; fill must return to the queued remainder.
        for batch in in_flight.drain(..) {
            b.complete_flush(batch);
        }
        prop_assert_eq!(b.fill(), b.queued());
    }

    /// Read-your-writes: after an arbitrary write sequence, every written
    /// LPN maps to readable data, for every FTL variant.
    #[test]
    fn ftl_read_your_writes(
        lpns in prop::collection::vec(0u64..500, 30..120),
        kind_idx in 0usize..4,
    ) {
        let kind = FtlKind::ALL[kind_idx];
        let cfg = FtlConfig::small();
        let mut ftl = Ftl::new(kind, cfg);
        let ctx = HostContext { buffer_utilization: 0.5, now_us: 0.0 };
        let mut written = HashSet::new();
        for chunk in lpns.chunks(3) {
            let mut batch = [u64::MAX; 3];
            // Deduplicate within a WL: one WL cannot hold one LPN twice.
            let mut chunk_seen = HashSet::new();
            for (i, lpn) in chunk.iter().enumerate() {
                if chunk_seen.insert(*lpn) {
                    batch[i] = *lpn;
                    written.insert(*lpn);
                }
            }
            ftl.write_wl((chunk[0] % 2) as usize, batch, &ctx);
        }
        for lpn in &written {
            prop_assert!(ftl.read_page(*lpn, &ctx).is_some(), "{}: lost {lpn}", kind.name());
        }
        // Unwritten pages stay unmapped.
        prop_assert!(ftl.read_page(9999, &ctx).is_none());
    }

    /// Read-your-writes holds under ANY seeded fault plan, for every FTL
    /// variant: no host read ever returns wrong data (the FTL
    /// debug-asserts page content == LPN on every NAND read, so a
    /// corrupted read panics the case), written pages stay mapped,
    /// unwritten pages stay unmapped, and the write accounting is exact.
    #[test]
    fn ftl_reads_survive_arbitrary_fault_plans(
        lpns in prop::collection::vec(0u64..400, 30..120),
        kind_idx in 0usize..4,
        plan in arb_fault_plan(),
    ) {
        let kind = FtlKind::ALL[kind_idx];
        let cfg = FtlConfig::small();
        let mut ftl = Ftl::new(kind, cfg);
        ftl.set_fault_plan(&plan);
        let ctx = HostContext { buffer_utilization: 0.5, now_us: 0.0 };
        let mut written = HashSet::new();
        let mut calls = 0u64;
        for chunk in lpns.chunks(3) {
            let mut batch = [u64::MAX; 3];
            let mut chunk_seen = HashSet::new();
            for (i, lpn) in chunk.iter().enumerate() {
                if chunk_seen.insert(*lpn) {
                    batch[i] = *lpn;
                    written.insert(*lpn);
                }
            }
            ftl.write_wl((chunk[0] % 2) as usize, batch, &ctx);
            calls += 1;
        }
        let stats = ftl.stats();
        // Aborts and safety re-programs re-issue internally; each host
        // call still lands exactly one WL.
        prop_assert_eq!(stats.host_wl_programs, calls);
        for lpn in &written {
            prop_assert!(ftl.read_page(*lpn, &ctx).is_some(), "{}: lost {lpn}", kind.name());
        }
        prop_assert!(ftl.read_page(9999, &ctx).is_none());
        // Every injected fault of the recoverable classes maps 1:1 to a
        // recovery action in the stats.
        let c = ftl.fault_counters();
        let stats = ftl.stats();
        prop_assert_eq!(stats.program_aborts, c.program_aborts);
        prop_assert_eq!(stats.stuck_retry_recoveries, c.stuck_retries);
        prop_assert_eq!(stats.uncorrectable_recoveries, c.uncorrectable_reads);
    }

    /// Garbage collection under fault injection neither loses data nor
    /// stalls: sustained overwrites past physical capacity still trigger
    /// GC, and the working set remains fully readable.
    #[test]
    fn gc_with_faults_preserves_data(seed in 0u64..10_000) {
        let cfg = FtlConfig::small();
        let mut ftl = Ftl::cube(cfg);
        let plan = FaultPlan::seeded(seed)
            .with_rate(FaultKind::BerSpike, 0.02)
            .with_rate(FaultKind::ProgramAbort, 0.01)
            .with_rate(FaultKind::UncorrectableRead, 0.02);
        ftl.set_fault_plan(&plan);
        let ctx = HostContext { buffer_utilization: 0.7, now_us: 0.0 };
        let working_set = 150u64;
        let total = cfg.nand.geometry.pages_per_chip() * cfg.chips as u64 * 2;
        let mut batch = [u64::MAX; 3];
        let mut n = 0;
        for i in 0..total {
            batch[n] = i % working_set;
            n += 1;
            if n == 3 {
                ftl.write_wl((i % cfg.chips as u64) as usize, batch, &ctx);
                batch = [u64::MAX; 3];
                n = 0;
            }
        }
        prop_assert!(ftl.stats().gc_runs > 0, "GC never ran");
        for lpn in 0..working_set {
            prop_assert!(ftl.read_page(lpn, &ctx).is_some(), "lost {lpn}");
        }
    }

    /// A fault plan is a pure function of its seed: replaying the same
    /// plan over the same workload reproduces every counter exactly.
    #[test]
    fn fault_plans_are_deterministic(plan in arb_fault_plan()) {
        let run = |plan: &FaultPlan| {
            let cfg = FtlConfig::small();
            let mut ftl = Ftl::cube(cfg);
            ftl.set_fault_plan(plan);
            let ctx = HostContext { buffer_utilization: 0.7, now_us: 0.0 };
            for i in 0..60u64 {
                ftl.write_wl((i % 2) as usize, [i * 3, i * 3 + 1, i * 3 + 2], &ctx);
            }
            for lpn in 0..180u64 {
                ftl.read_page(lpn, &ctx);
            }
            (ftl.stats(), ftl.fault_counters())
        };
        prop_assert_eq!(run(&plan), run(&plan));
    }

    /// The latency histogram's percentile is monotone and bounded by
    /// the sample extremes.
    #[test]
    fn percentiles_are_monotone(samples in prop::collection::vec(0.0f64..1e6, 1..200)) {
        let mut r = cubeftl::LogHistogram::new();
        for s in &samples {
            r.record(*s);
        }
        let mut prev = 0.0;
        for p in [1.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 100.0] {
            let v = r.percentile(p);
            prop_assert!(v >= prev);
            prev = v;
        }
        let max = samples.iter().cloned().fold(f64::MIN, f64::max);
        prop_assert!((r.percentile(100.0) - max).abs() < 1e-12);
    }

    /// Zipfian samples stay in range for arbitrary domains and seeds.
    #[test]
    fn zipf_in_range(n in 1u64..100_000, seed in 0u64..1000) {
        let mut z = workloads::Zipfian::ycsb(n, seed);
        for _ in 0..100 {
            prop_assert!(z.sample() < n);
        }
    }

    /// L2P checkpoints survive encode/decode byte-identically for
    /// arbitrary maps, erase-count matrices and sequence numbers — the
    /// crash-recovery path depends on this blob being self-describing.
    #[test]
    fn checkpoint_roundtrips(
        seq in 0u64..u64::MAX,
        entries in prop::collection::vec((0u64..3, 0u32..8, 0u32..10_000), 0..120),
        chips in 1usize..4,
        blocks in 0usize..24,
        counts in prop::collection::vec(0u32..100_000, 0..96),
    ) {
        let l2p: Vec<Option<Ppn>> = entries
            .iter()
            .map(|&(tag, chip, page)| (tag != 0).then_some(Ppn { chip, page }))
            .collect();
        let erase_counts: Vec<Vec<u32>> = (0..chips)
            .map(|c| {
                (0..blocks)
                    .map(|b| {
                        if counts.is_empty() { 0 } else { counts[(c * blocks + b) % counts.len()] }
                    })
                    .collect()
            })
            .collect();
        let ckpt = Checkpoint { seq, l2p, erase_counts };
        let blob = ckpt.encode();
        prop_assert_eq!(Checkpoint::decode(&blob).unwrap(), ckpt.clone());
        // Encoding is canonical: re-encoding the decode is byte-identical.
        prop_assert_eq!(Checkpoint::decode(&blob).unwrap().encode(), blob.clone());
        // Truncation is always detected.
        if !blob.is_empty() {
            prop_assert!(Checkpoint::decode(&blob[..blob.len() - 1]).is_err());
        }
    }

    /// §4.2.2 closure: a cluster-seeded retry chain never exceeds the
    /// cold-start chain for the same read under the same engine
    /// configuration — for arbitrary wear, retention, layer, seed
    /// offset, jitter, disturbance and optimization switches — and both
    /// chains decode at the same final offset.
    #[test]
    fn seeded_retry_chain_never_exceeds_cold_start(
        pe in 0u32..3_000,
        months_tenths in 0u32..121,
        block in 0u32..8,
        h in 0u16..48,
        seed_off in 0u8..8,
        jitter in -1i8..2,
        disturbed in prop::bool::ANY,
        optimized in prop::bool::ANY,
    ) {
        let g = Geometry::paper();
        let process = ProcessModel::new(g, 7);
        let mut env = Environment::new(g.blocks_per_chip as usize, 3);
        env.set_aging_raw(pe, f64::from(months_tenths) / 10.0);
        let mut engine = RetryEngine::new();
        if optimized {
            engine.set_opt(RetryOptConfig::on());
        }
        // Jitter only occurs under retention; mirror the chip's sampling.
        let jitter = if env.effective_retention_months_of(block as usize) <= 0.0 { 0 } else { jitter };
        let wl = g.wl_addr(BlockId(block), h, 0);
        let cold = engine.read(&process, wl, &env, ReadParams::default(), true, disturbed, jitter);
        let seeded = engine.read(
            &process, wl, &env, ReadParams::seeded_from(seed_off), true, disturbed, jitter,
        );
        prop_assert!(
            seeded.retries <= cold.retries,
            "seed {} lost to the cold start: {} > {} retries",
            seed_off, seeded.retries, cold.retries
        );
        prop_assert_eq!(seeded.final_offset, cold.final_offset);
    }

    /// Cluster seeding follows the ORT key space exactly: WLs of one
    /// (block, h-layer) share that block's own entry, *other* blocks on
    /// the same h-layer get the cluster seed, other h-layers and other
    /// chips get nothing.
    #[test]
    fn cluster_seed_follows_the_ort_key_space(
        blocks in 2u32..6,
        hlayers in 2u16..12,
        wls in 2u16..6,
        h_seed in 0u16..12,
        block_seed in 0u32..6,
        v_seed in 0u16..6,
        offset in 1u8..8,
    ) {
        let g = Geometry {
            blocks_per_chip: blocks,
            hlayers_per_block: hlayers,
            wls_per_hlayer: wls,
            pages_per_wl: 3,
            page_size: 16 * 1024,
        };
        let h = h_seed % hlayers;
        let v = v_seed % wls;
        let block_a = block_seed % blocks;
        let block_b = (block_a + 1) % blocks;
        let mut opm = Opm::new(&g, 2);
        opm.set_cluster(OrtClusterConfig { enabled: true, min_samples: 1 });
        opm.update_read_offset(0, g.wl_addr(BlockId(block_a), h, 0), offset);
        // Same block + h-layer, any WL index: the block's own ORT entry.
        prop_assert_eq!(
            opm.lookup_offset(0, g.wl_addr(BlockId(block_a), h, v)),
            OffsetLookup { offset, seeded: false }
        );
        // A different block on the same h-layer: the cluster seed.
        prop_assert_eq!(
            opm.lookup_offset(0, g.wl_addr(BlockId(block_b), h, v)),
            OffsetLookup { offset, seeded: true }
        );
        // A different h-layer of the same block: cold default.
        prop_assert_eq!(
            opm.lookup_offset(0, g.wl_addr(BlockId(block_a), (h + 1) % hlayers, v)),
            OffsetLookup { offset: 0, seeded: false }
        );
        // The other chip's cluster is isolated.
        prop_assert_eq!(
            opm.lookup_offset(1, g.wl_addr(BlockId(block_b), h, v)),
            OffsetLookup { offset: 0, seeded: false }
        );
    }

    /// A bounded ORT with the cluster on is a pure function of its
    /// input sequence: replaying arbitrary interleavings of decodes and
    /// lookups reproduces every answer and every counter, and the table
    /// never exceeds its capacity.
    #[test]
    fn bounded_ort_with_cluster_replays_deterministically(
        ops in prop::collection::vec((0u32..4, 0u16..6, 0u8..8, prop::bool::ANY), 1..200),
        cap in 1usize..6,
        min_samples in 1u32..4,
    ) {
        let g = Geometry {
            blocks_per_chip: 4,
            hlayers_per_block: 6,
            wls_per_hlayer: 3,
            pages_per_wl: 3,
            page_size: 16 * 1024,
        };
        let run = || {
            let mut opm = Opm::with_ort_capacity(&g, 2, cap);
            opm.set_cluster(OrtClusterConfig { enabled: true, min_samples });
            let mut answers = Vec::new();
            for &(block, h, off, decode) in &ops {
                let chip = (block % 2) as usize;
                let wl = g.wl_addr(BlockId(block), h, 0);
                if decode {
                    opm.update_read_offset(chip, wl, off);
                } else {
                    let l = opm.lookup_offset(chip, wl);
                    answers.push((l.offset, l.seeded));
                }
                assert!(
                    opm.ort_entries(chip) <= cap,
                    "ORT grew past its capacity: {} > {cap}",
                    opm.ort_entries(chip)
                );
            }
            (
                answers,
                opm.ort_counters(),
                opm.cluster_counters(),
                opm.ort_fallbacks(),
            )
        };
        prop_assert_eq!(run(), run());
    }

    /// Per-WL OOB records survive the chip's fixed-width spare record
    /// for arbitrary 32-bit LPN tags and padding, sequence numbers and
    /// status bits.
    #[test]
    fn wl_oob_roundtrips(
        l0 in 0u64..u64::from(u32::MAX),
        l1 in 0u64..u64::from(u32::MAX),
        l2 in 0u64..u64::from(u32::MAX),
        pads in 0u8..8,
        seq in 0u64..u64::MAX,
        torn in prop::bool::ANY,
    ) {
        let pad = |i: u8, lpn: u64| if pads >> i & 1 == 1 { WlData::PAD } else { lpn };
        let lpns = [pad(0, l0), pad(1, l1), pad(2, l2)];
        let mut chip = NandChip::new(NandConfig::small(), seq);
        let wl = chip.geometry().wl_addr(BlockId(1), 3, 2);
        chip.erase(BlockId(1)).unwrap();
        chip.program_wl(wl, WlData::from_pages(lpns), &ProgramParams::default())
            .unwrap();
        chip.write_oob(wl, seq).unwrap();
        if torn {
            chip.interrupt_program(wl);
        }
        let oob = WlOob {
            lpns,
            seq,
            status: if torn { OobStatus::Torn } else { OobStatus::Complete },
        };
        prop_assert_eq!(chip.wl_oob(wl), Some(oob));
    }
}

proptest! {
    /// LPN striping is a bijection: every global LPN maps to exactly one
    /// (shard, local LPN) pair and back, locals stay within the shard's
    /// capacity, and every span split covers the original range exactly
    /// once in order.
    #[test]
    fn lpn_striping_is_a_bijection(
        shards in 1usize..9,
        stripe in 1u64..129,
        lpn in 0u64..1_000_000,
    ) {
        let router = cubeftl::ParityRouter::new(shards, stripe, false);
        let (s, local) = router.to_local(lpn);
        prop_assert_eq!(s, router.shard_of(lpn));
        prop_assert!(s < shards);
        prop_assert_eq!(router.to_global(s, local), lpn);
        // Capacity accounting: the local LPN fits the shard's share of
        // the smallest whole-row global space that contains the LPN,
        // and the shares add up to that space.
        let per_row = stripe * shards as u64;
        let global_pages = (lpn / per_row + 1) * per_row;
        prop_assert_eq!(router.local_pages(global_pages) * shards as u64, global_pages);
        prop_assert!(local < router.local_pages(global_pages));
    }

    /// Splitting a span request at stripe boundaries conserves pages:
    /// the fragments partition the original `[lpn, lpn + n)` range.
    #[test]
    fn span_splits_partition_the_request(
        shards in 1usize..9,
        stripe in 1u64..65,
        lpn in 0u64..100_000,
        n in 1u32..400,
    ) {
        let router = cubeftl::ParityRouter::new(shards, stripe, false);
        let req = ssdsim::HostRequest::write_span(lpn, n);
        let parts = router.split(req);
        let mut next = lpn;
        let mut pages = 0u64;
        for (s, frag) in &parts {
            prop_assert!(*s < shards);
            // Fragments are contiguous, in ascending global order.
            prop_assert_eq!(router.to_global(*s, frag.lpn), next);
            prop_assert!(frag.n_pages >= 1);
            // No fragment crosses a stripe boundary.
            prop_assert!(frag.lpn % stripe + u64::from(frag.n_pages) <= stripe);
            next += u64::from(frag.n_pages);
            pages += u64::from(frag.n_pages);
        }
        prop_assert_eq!(pages, u64::from(n));
    }
}
