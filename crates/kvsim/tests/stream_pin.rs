//! Referee for the LSM engine's host-side bookkeeping: an FNV-1a over
//! everything a `KvStream` shows the outside — the first 200 000 device
//! requests, the final report and every flush/compaction event — for
//! each YCSB mix on two tree shapes. The constants were captured from
//! the engine while compaction still merged through a `BTreeMap` and
//! probes searched a run twice, so a merge that orders sources wrongly,
//! a run cut at another boundary or a probe that reads another page
//! moves them.

use kvsim::{KvConfig, KvStream, YcsbKind};
use ssdsim::HostOp;

const SPACE_PAGES: u64 = 16_384;
const REQUESTS: usize = 200_000;

struct Fnv(u64);

impl Fnv {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn word(&mut self, w: u64) {
        self.bytes(&w.to_le_bytes());
    }
}

/// Three levels of 64-entry runs over 3 000 keys: about a hundred
/// compactions for every one of the default shape (1 620 against 14
/// under YCSB-A in the pinned window).
fn small_shape() -> KvConfig {
    KvConfig {
        keys: 3_000,
        memtable_entries: 64,
        sst_entries: 64,
        l0_files: 2,
        fanout: 2,
        max_levels: 3,
        ..KvConfig::default_shape()
    }
}

fn stream_hash(cfg: KvConfig, kind: YcsbKind) -> u64 {
    let mut stream = KvStream::new(cfg, kind, SPACE_PAGES, 42);
    let mut fnv = Fnv(0xcbf2_9ce4_8422_2325);
    for req in (&mut stream).take(REQUESTS) {
        fnv.word(match req.op {
            HostOp::Read => 0,
            HostOp::Write => 1,
            HostOp::Trim => 2,
        });
        fnv.word(req.lpn);
        fnv.word(u64::from(req.n_pages));
    }
    fnv.bytes(format!("{:?}", stream.report()).as_bytes());
    for ev in stream.events() {
        fnv.word(ev.op_index);
        fnv.bytes(ev.action.as_bytes());
        fnv.word(u64::from(ev.level));
        fnv.word(ev.pages_in);
        fnv.word(ev.pages_out);
    }
    fnv.0
}

#[test]
fn kv_streams_reproduce_the_pinned_hashes() {
    let kinds = [
        YcsbKind::A,
        YcsbKind::B,
        YcsbKind::C,
        YcsbKind::D,
        YcsbKind::F,
    ];
    // One row per shape (default at its 8 192 keys, then small), one
    // column per YCSB mix in the order above.
    let pinned: [[u64; 5]; 2] = [
        [
            0xe0c4_28da_373d_584c,
            0x56bb_a4ab_a265_9541,
            0xd520_5a67_82da_7cb1,
            0xb929_ac34_2700_8605,
            0xfb16_7f95_773f_a29b,
        ],
        [
            0xc6ce_3212_5aa8_c27b,
            0xc04a_2041_b11c_2869,
            0x1a89_b3be_2055_d403,
            0xbff1_5268_dd17_bef2,
            0xfbf6_a8df_f31b_0b55,
        ],
    ];
    let got = [KvConfig::default_shape(), small_shape()]
        .map(|cfg| kinds.map(|kind| stream_hash(cfg, kind)));
    assert_eq!(got, pinned, "got {got:#018x?}");
}
