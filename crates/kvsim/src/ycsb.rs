//! YCSB-style operation generators.
//!
//! Five of the six core YCSB workloads, reproduced with the crate's
//! integer-only toolkit:
//!
//! | kind | mix                        | key distribution        |
//! |------|----------------------------|-------------------------|
//! | A    | 50 % read / 50 % update    | zipfian                 |
//! | B    | 95 % read /  5 % update    | zipfian                 |
//! | C    | 100 % read                 | zipfian                 |
//! | D    | 95 % read /  5 % insert    | latest (reads)          |
//! | F    | 50 % read / 50 % RMW       | zipfian                 |
//!
//! Zipfian ranks come from [`IntZipf`](crate::IntZipf) and are
//! scattered over the key space with the splitmix64 finalizer (YCSB's
//! `fnvhash` scramble, in spirit), so hot ranks are not adjacent keys.
//! Workload D grows the key space: inserts append fresh keys and reads
//! draw a zipf rank *back from the newest key* ("latest"
//! distribution). Growth stops at the generator's key cap: from there
//! an insert draw updates the newest key instead.

use crate::rng::{splitmix64, SplitMix};
use crate::zipf::IntZipf;

/// One application-level operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KvOp {
    /// Point read.
    Read(u64),
    /// Overwrite of an existing key.
    Update(u64),
    /// First write of a fresh key (workload D).
    Insert(u64),
    /// Read-modify-write of an existing key (workload F).
    ReadModifyWrite(u64),
}

/// Which core YCSB workload to generate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum YcsbKind {
    /// 50/50 read/update, zipfian.
    A,
    /// 95/5 read/update, zipfian.
    B,
    /// Read-only, zipfian.
    C,
    /// 95/5 read/insert, latest.
    D,
    /// 50/50 read/read-modify-write, zipfian.
    F,
}

impl YcsbKind {
    /// Parses `"ycsb_a"`/`"a"` style names (case-insensitive).
    pub fn parse(name: &str) -> Option<Self> {
        let tail = name
            .trim()
            .to_ascii_lowercase()
            .trim_start_matches("ycsb_")
            .trim_start_matches("ycsb-")
            .to_string();
        match tail.as_str() {
            "a" => Some(YcsbKind::A),
            "b" => Some(YcsbKind::B),
            "c" => Some(YcsbKind::C),
            "d" => Some(YcsbKind::D),
            "f" => Some(YcsbKind::F),
            _ => None,
        }
    }

    /// Canonical lowercase label (`"ycsb_a"`).
    pub fn label(&self) -> &'static str {
        match self {
            YcsbKind::A => "ycsb_a",
            YcsbKind::B => "ycsb_b",
            YcsbKind::C => "ycsb_c",
            YcsbKind::D => "ycsb_d",
            YcsbKind::F => "ycsb_f",
        }
    }

    /// Write-op share in permyriad (update/insert/RMW draws).
    fn write_permyriad(&self) -> u64 {
        match self {
            YcsbKind::A | YcsbKind::F => 5_000,
            YcsbKind::B | YcsbKind::D => 500,
            YcsbKind::C => 0,
        }
    }
}

/// Seeded, endless generator of [`KvOp`]s for one workload kind.
#[derive(Debug, Clone)]
pub struct YcsbGen {
    kind: YcsbKind,
    rng: SplitMix,
    zipf: IntZipf,
    /// Base (loaded) key count; D appends beyond it.
    base_keys: u64,
    /// Keys inserted beyond the base (workload D).
    inserted: u64,
    /// Most live keys D's inserts may grow the space to.
    key_cap: u64,
}

impl YcsbGen {
    /// A generator over `keys` pre-loaded keys.
    pub fn new(kind: YcsbKind, keys: u64, seed: u64) -> Self {
        assert!(keys >= 1, "need at least one key");
        YcsbGen {
            kind,
            rng: SplitMix::new(seed ^ 0x5943_5342_4b56_5347), // "YCSBKVSG"
            zipf: IntZipf::new(keys),
            base_keys: keys,
            inserted: 0,
            key_cap: u64::MAX,
        }
    }

    /// Caps the live key count: once D's inserts reach `key_cap` keys,
    /// an insert draw becomes an update of the newest key.
    pub fn with_key_cap(mut self, key_cap: u64) -> Self {
        self.key_cap = key_cap;
        self
    }

    /// Which workload this generates.
    pub fn kind(&self) -> YcsbKind {
        self.kind
    }

    /// Keys live right now (base plus D-inserts).
    pub fn live_keys(&self) -> u64 {
        self.base_keys + self.inserted
    }

    /// Scatters a zipf rank (1-based, hottest first) over the base key
    /// space so hot keys are not adjacent.
    fn scatter(&self, rank: u64) -> u64 {
        splitmix64(rank) % self.base_keys
    }

    /// The next operation. Never exhausts.
    pub fn next_op(&mut self) -> KvOp {
        let is_write = self.rng.permyriad() < self.kind.write_permyriad();
        match (self.kind, is_write) {
            (YcsbKind::D, true) => {
                let key = self.base_keys + self.inserted;
                if self.live_keys() >= self.key_cap {
                    return KvOp::Update(key - 1);
                }
                self.inserted += 1;
                KvOp::Insert(key)
            }
            (YcsbKind::D, false) => {
                // Latest: zipf rank 1 is the newest live key, counting
                // backwards; ranks past the D-inserts scatter into the
                // base space so the cold tail stays covered.
                let rank = self.zipf.sample(&mut self.rng);
                let key = if rank <= self.inserted {
                    self.base_keys + self.inserted - rank
                } else {
                    self.scatter(rank)
                };
                KvOp::Read(key)
            }
            (YcsbKind::F, true) => {
                let rank = self.zipf.sample(&mut self.rng);
                let key = self.scatter(rank);
                KvOp::ReadModifyWrite(key)
            }
            (_, true) => {
                let rank = self.zipf.sample(&mut self.rng);
                let key = self.scatter(rank);
                KvOp::Update(key)
            }
            (_, false) => {
                let rank = self.zipf.sample(&mut self.rng);
                let key = self.scatter(rank);
                KvOp::Read(key)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_all_spellings() {
        assert_eq!(YcsbKind::parse("ycsb_a"), Some(YcsbKind::A));
        assert_eq!(YcsbKind::parse("YCSB-B"), Some(YcsbKind::B));
        assert_eq!(YcsbKind::parse("c"), Some(YcsbKind::C));
        assert_eq!(YcsbKind::parse("ycsb_d"), Some(YcsbKind::D));
        assert_eq!(YcsbKind::parse("F"), Some(YcsbKind::F));
        assert_eq!(YcsbKind::parse("ycsb_e"), None);
        assert_eq!(YcsbKind::parse("mail"), None);
    }

    #[test]
    fn mixes_roughly_match_their_spec() {
        let count_writes = |kind: YcsbKind| -> u64 {
            let mut g = YcsbGen::new(kind, 4096, 11);
            (0..10_000)
                .filter(|_| {
                    matches!(
                        g.next_op(),
                        KvOp::Update(_) | KvOp::Insert(_) | KvOp::ReadModifyWrite(_)
                    )
                })
                .count() as u64
        };
        let a = count_writes(YcsbKind::A);
        assert!((4_500..=5_500).contains(&a), "A writes {a}");
        let b = count_writes(YcsbKind::B);
        assert!((300..=700).contains(&b), "B writes {b}");
        assert_eq!(count_writes(YcsbKind::C), 0);
        let f = count_writes(YcsbKind::F);
        assert!((4_500..=5_500).contains(&f), "F writes {f}");
    }

    #[test]
    fn generators_are_deterministic_per_seed() {
        let draw = |seed: u64| -> Vec<KvOp> {
            let mut g = YcsbGen::new(YcsbKind::A, 1024, seed);
            (0..2_000).map(|_| g.next_op()).collect()
        };
        assert_eq!(draw(5), draw(5));
        assert_ne!(draw(5), draw(6));
    }

    #[test]
    fn d_inserts_extend_the_keyspace_and_reads_favour_recent() {
        let mut g = YcsbGen::new(YcsbKind::D, 1024, 3);
        let mut max_insert = 0;
        let mut recent_reads = 0u64;
        let mut reads = 0u64;
        for _ in 0..20_000 {
            match g.next_op() {
                KvOp::Insert(k) => {
                    assert!(k >= 1024, "inserts must be fresh keys");
                    max_insert = max_insert.max(k);
                }
                KvOp::Read(k) => {
                    reads += 1;
                    if k >= 1024 {
                        recent_reads += 1;
                    }
                }
                other => panic!("unexpected op {other:?}"),
            }
        }
        assert!(max_insert > 1024);
        assert_eq!(g.live_keys(), max_insert + 1);
        // Latest skew: inserted keys are a tiny slice of the space but
        // should draw a disproportionate read share.
        assert!(
            recent_reads * 10 > reads,
            "latest reads too rare: {recent_reads}/{reads}"
        );
    }

    #[test]
    fn d_inserts_past_the_key_cap_update_the_newest_key() {
        let mut g = YcsbGen::new(YcsbKind::D, 100, 3).with_key_cap(110);
        let mut capped = 0;
        for _ in 0..5_000 {
            match g.next_op() {
                KvOp::Insert(k) => assert!((100..110).contains(&k), "insert {k}"),
                KvOp::Update(k) => {
                    assert_eq!((k, g.live_keys()), (109, 110));
                    capped += 1;
                }
                KvOp::Read(k) => assert!(k < 110, "read {k}"),
                other => panic!("unexpected op {other:?}"),
            }
        }
        assert!(capped > 100, "only {capped} draws past the cap");
    }

    #[test]
    fn keys_stay_in_live_range() {
        for kind in [
            YcsbKind::A,
            YcsbKind::B,
            YcsbKind::C,
            YcsbKind::D,
            YcsbKind::F,
        ] {
            let mut g = YcsbGen::new(kind, 512, 9);
            for _ in 0..5_000 {
                let key = match g.next_op() {
                    KvOp::Read(k)
                    | KvOp::Update(k)
                    | KvOp::Insert(k)
                    | KvOp::ReadModifyWrite(k) => k,
                };
                assert!(key < g.live_keys(), "{kind:?} key {key} out of range");
            }
        }
    }
}
