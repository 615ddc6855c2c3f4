//! RAID-5-style rotating cross-shard parity: the bijection between the
//! array's global *data* space and per-shard local spaces when one
//! stripe per row holds XOR parity.
//!
//! With `S` shards and stripe size `P`, the local spaces are organised
//! in **rows** of one `P`-page stripe per shard. Row `r` dedicates one
//! shard to parity — rotating left-symmetrically so parity load spreads
//! evenly:
//!
//! ```text
//! parity_shard(r) = S − 1 − (r % S)
//! ```
//!
//! The remaining `D = S − 1` stripes of the row hold consecutive global
//! data. For a global data LPN `g`:
//!
//! ```text
//! row = g / (P·D)      k = (g / P) % D      o = g % P
//! shard = k            if k <  parity_shard(row)
//!         k + 1        if k >= parity_shard(row)
//! local = row·P + o
//! ```
//!
//! and the inverse (for `s ≠ parity_shard(row)`):
//!
//! ```text
//! row = local / P      o = local % P      k = s − (s > parity_shard(row))
//! g = (row·D + k)·P + o
//! ```
//!
//! Two properties the resilience machinery leans on:
//!
//! 1. **Bijection** — the map `g ↔ (shard, local)` is a bijection
//!    between the global data space and the non-parity local pages
//!    (proptested in `tests/array_failure.rs`), so host requests never
//!    collide and every local page has a unique owner.
//! 2. **Row alignment** — every page of row `r` (data and parity alike)
//!    lives at the *same local index range* `r·P .. r·P+P` on its
//!    shard. Reconstructing local page `l` of a failed shard therefore
//!    reads local page `l` on every surviving shard and XORs — no
//!    per-shard offset arithmetic in the degraded path.
//!
//! With `parity: false` the router is the array's plain LPN striper —
//! `D = S`, no row gives a stripe away, and the maps reduce to
//!
//! ```text
//! shard(g)  = (g / P) % S
//! local(g)  = (g / (P·S))·P + g % P
//! global(s, l) = (l / P)·P·S + s·P + l % P
//! ```
//!
//! — so trace replay on a healthy array routes through the same type,
//! and the default path reproduces every pre-parity golden.

use ssdsim::detrand::mix64;
use ssdsim::{HostOp, HostRequest};

/// What a shard-local page holds under the rotating-parity layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageRole {
    /// A data page: the global data LPN stored there.
    Data(u64),
    /// A parity page: the row it protects.
    Parity {
        /// Row index (local stripe index).
        row: u64,
    },
}

/// The rotating-parity LPN router.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParityRouter {
    shards: usize,
    stripe_pages: u64,
    parity: bool,
}

impl ParityRouter {
    /// A router over `shards` shards with `stripe_pages`-page stripes.
    /// With `parity` one rotating stripe per row holds XOR parity;
    /// without, the router is plain round-robin striping.
    ///
    /// # Panics
    ///
    /// Panics when a parameter is zero, or when `parity` is requested
    /// with fewer than two shards (parity needs at least one data
    /// shard beside it).
    pub fn new(shards: usize, stripe_pages: u64, parity: bool) -> Self {
        assert!(shards >= 1, "need at least one shard");
        assert!(stripe_pages >= 1, "stripe must be at least one page");
        assert!(
            !parity || shards >= 2,
            "parity needs at least two shards (one data + one parity)"
        );
        ParityRouter {
            shards,
            stripe_pages,
            parity,
        }
    }

    /// Number of shards (data + rotating parity).
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Stripe size in pages.
    pub fn stripe_pages(&self) -> u64 {
        self.stripe_pages
    }

    /// Whether rotating parity is on.
    pub fn parity(&self) -> bool {
        self.parity
    }

    /// Data stripes per row: `S − 1` with parity, `S` without.
    pub fn data_shards(&self) -> usize {
        if self.parity {
            self.shards - 1
        } else {
            self.shards
        }
    }

    /// The shard holding row `r`'s parity stripe (left-symmetric
    /// rotation). Meaningless when parity is off.
    pub fn parity_shard(&self, row: u64) -> usize {
        debug_assert!(self.parity);
        self.shards - 1 - (row % self.shards as u64) as usize
    }

    /// The shard a global data LPN lives on.
    pub fn shard_of(&self, global: u64) -> usize {
        self.to_local(global).0
    }

    /// Translates a global data LPN to `(shard, local LPN)`.
    pub fn to_local(&self, global: u64) -> (usize, u64) {
        let p = self.stripe_pages;
        let d = self.data_shards() as u64;
        let row = global / (p * d);
        let k = ((global / p) % d) as usize;
        let o = global % p;
        let shard = if self.parity {
            let ps = self.parity_shard(row);
            if k < ps {
                k
            } else {
                k + 1
            }
        } else {
            k
        };
        (shard, row * p + o)
    }

    /// What `(shard, local)` holds: the global data LPN, or the row
    /// whose parity it stores.
    pub fn page_at(&self, shard: usize, local: u64) -> PageRole {
        debug_assert!(shard < self.shards);
        let p = self.stripe_pages;
        let row = local / p;
        let o = local % p;
        if self.parity && shard == self.parity_shard(row) {
            return PageRole::Parity { row };
        }
        let k = if self.parity && shard > self.parity_shard(row) {
            shard - 1
        } else {
            shard
        } as u64;
        PageRole::Data((row * self.data_shards() as u64 + k) * p + o)
    }

    /// Translates `(shard, local)` back to the global data LPN — the
    /// inverse of [`ParityRouter::to_local`].
    ///
    /// # Panics
    ///
    /// Panics when `(shard, local)` is a parity page.
    pub fn to_global(&self, shard: usize, local: u64) -> u64 {
        match self.page_at(shard, local) {
            PageRole::Data(g) => g,
            PageRole::Parity { row } => {
                panic!("({shard}, {local}) is the parity stripe of row {row}")
            }
        }
    }

    /// Local pages each shard needs to hold `global_data_pages` of
    /// global data: `rows · P` on every shard (parity rows occupy the
    /// same local footprint as data rows).
    ///
    /// # Panics
    ///
    /// Panics unless the global data space is whole rows — a multiple
    /// of `P·D`. The harness sizes the space from the per-shard budget
    /// (`rows = local_limit / P`), so this always holds in practice.
    pub fn local_pages(&self, global_data_pages: u64) -> u64 {
        let per_row = self.stripe_pages * self.data_shards() as u64;
        assert_eq!(
            global_data_pages % per_row,
            0,
            "global data space must be whole rows (multiple of {per_row})"
        );
        (global_data_pages / per_row) * self.stripe_pages
    }

    /// Splits one global-data-space host request into shard-local
    /// requests, cutting the span at stripe boundaries. Writes and
    /// trims additionally charge the row's parity shard with a write
    /// over the same local span, emitted immediately after the data
    /// fragment — so parity traffic is deterministic in stream order.
    /// Reads touch data shards only.
    pub fn split(&self, req: HostRequest) -> Vec<(usize, HostRequest)> {
        let p = self.stripe_pages;
        let mut out = Vec::new();
        let mut global = req.lpn;
        let mut left = u64::from(req.n_pages);
        while left > 0 {
            let in_stripe = p - global % p;
            let take = in_stripe.min(left);
            let (shard, local) = self.to_local(global);
            out.push((
                shard,
                HostRequest {
                    op: req.op,
                    lpn: local,
                    n_pages: u32::try_from(take).expect("fragment fits a stripe"),
                },
            ));
            if self.parity && req.op != HostOp::Read {
                // Data changed ⇒ the row's parity stripe changes over
                // the same offsets; parity updates are always programs.
                let row = local / p;
                out.push((
                    self.parity_shard(row),
                    HostRequest {
                        op: HostOp::Write,
                        lpn: local,
                        n_pages: u32::try_from(take).expect("fragment fits a stripe"),
                    },
                ));
            }
            global += take;
            left -= take;
        }
        out
    }

    /// Routes a whole request stream: one shard-local request vector
    /// per shard, each in the global stream's order (parity updates
    /// interleaved where their data fragments occur).
    pub fn route_stream<I>(&self, stream: I) -> Vec<Vec<HostRequest>>
    where
        I: IntoIterator<Item = HostRequest>,
    {
        let mut per_shard = vec![Vec::new(); self.shards];
        for req in stream {
            for (shard, local) in self.split(req) {
                per_shard[shard].push(local);
            }
        }
        per_shard
    }
}

/// Deterministic content fingerprint of `(lpn, version)` — the model
/// "payload" of a data page, used by the parity audit: the simulator
/// does not move real bytes, so reconstruction exactness is checked
/// over these 64-bit fingerprints instead (XOR algebra is identical).
/// splitmix64 finalizer over both words.
pub fn page_fingerprint(lpn: u64, version: u64) -> u64 {
    mix64(
        lpn.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(version.wrapping_mul(0xBF58_476D_1CE4_E5B9))
            .wrapping_add(0x94D0_49BB_1331_11EB),
    )
}

/// XOR-combines data fingerprints into a parity fingerprint. The
/// reconstruction identity `xor_parity(all \ {x}) ^ parity == x` is
/// what the degraded path and the proptests rely on.
pub fn xor_parity(fps: impl IntoIterator<Item = u64>) -> u64 {
    fps.into_iter().fold(0, |acc, f| acc ^ f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parity_off_is_plain_striping() {
        for shards in [1usize, 2, 3, 4, 8] {
            for p in [1u64, 4, 64] {
                let off = ParityRouter::new(shards, p, false);
                let s64 = shards as u64;
                for g in 0..(p * s64 * 3 + 7) {
                    let plain = (((g / p) % s64) as usize, (g / (p * s64)) * p + g % p);
                    assert_eq!(off.to_local(g), plain);
                    assert_eq!(off.shard_of(g), plain.0);
                    assert_eq!(off.to_global(plain.0, plain.1), g, "roundtrip at {g}");
                }
            }
        }
    }

    #[test]
    fn split_cuts_spans_at_stripe_boundaries() {
        let r = ParityRouter::new(2, 4, false);
        // Pages 6..13 cross three stripes: [6,7] on shard 1, [8..11] on
        // shard 0, [12] on shard 1.
        let parts = r.split(HostRequest::write_span(6, 7));
        assert_eq!(parts.len(), 3);
        assert_eq!(parts[0], (1, HostRequest::write_span(2, 2)));
        assert_eq!(parts[1], (0, HostRequest::write_span(4, 4)));
        assert_eq!(parts[2], (1, HostRequest::write_span(4, 1)));
        let pages: u64 = parts.iter().map(|(_, q)| u64::from(q.n_pages)).sum();
        assert_eq!(pages, 7, "no page lost or duplicated");
    }

    #[test]
    fn route_stream_preserves_order_and_ops() {
        let r = ParityRouter::new(2, 1, false);
        let stream = [
            HostRequest::write(0),
            HostRequest::read(1),
            HostRequest::trim_span(2, 2),
        ];
        let routed = r.route_stream(stream);
        assert_eq!(
            routed[0],
            vec![HostRequest::write(0), HostRequest::trim_span(1, 1)]
        );
        assert_eq!(
            routed[1],
            vec![HostRequest::read(0), HostRequest::trim_span(1, 1)]
        );
    }

    #[test]
    fn parity_placement_rotates_and_roundtrips() {
        let r = ParityRouter::new(4, 8, true);
        // Rows 0..3 park parity on shards 3, 2, 1, 0 then repeat.
        assert_eq!(r.parity_shard(0), 3);
        assert_eq!(r.parity_shard(1), 2);
        assert_eq!(r.parity_shard(2), 1);
        assert_eq!(r.parity_shard(3), 0);
        assert_eq!(r.parity_shard(4), 3);
        for g in 0..8 * 3 * 6 {
            let (s, l) = r.to_local(g);
            assert!(s < 4);
            assert_ne!(s, r.parity_shard(l / 8), "data never lands on parity");
            assert_eq!(r.shard_of(g), s);
            assert_eq!(r.to_global(s, l), g, "roundtrip at {g}");
            assert_eq!(r.page_at(s, l), PageRole::Data(g));
        }
    }

    #[test]
    fn every_local_page_has_exactly_one_role() {
        let r = ParityRouter::new(3, 4, true);
        let global = r.stripe_pages() * r.data_shards() as u64 * 9; // 9 rows
        let local = r.local_pages(global);
        let mut data_seen = vec![false; global as usize];
        let mut parity_rows = 0u64;
        for s in 0..r.shards() {
            for l in 0..local {
                match r.page_at(s, l) {
                    PageRole::Data(g) => {
                        assert!(!data_seen[g as usize], "duplicate owner for {g}");
                        data_seen[g as usize] = true;
                    }
                    PageRole::Parity { .. } => parity_rows += 1,
                }
            }
        }
        assert!(data_seen.iter().all(|&b| b), "every global LPN covered");
        assert_eq!(parity_rows, 9 * r.stripe_pages(), "one parity stripe/row");
    }

    #[test]
    fn writes_charge_the_parity_shard_reads_do_not() {
        let r = ParityRouter::new(3, 4, true);
        // Row 0 parity on shard 2; writing global 0..4 (shard 0 local
        // 0..4) must charge shard 2 with a 4-page write at local 0.
        let parts = r.split(HostRequest::write_span(0, 4));
        assert_eq!(parts.len(), 2);
        assert_eq!(parts[0], (0, HostRequest::write_span(0, 4)));
        assert_eq!(parts[1], (2, HostRequest::write_span(0, 4)));
        let reads = r.split(HostRequest::read(1));
        assert_eq!(reads.len(), 1);
        assert_eq!(reads[0].0, 0);
        // Trims update parity too — as programs.
        let trims = r.split(HostRequest::trim_span(0, 2));
        assert_eq!(trims.len(), 2);
        assert_eq!(trims[1], (2, HostRequest::write_span(0, 2)));
    }

    #[test]
    fn fingerprints_are_pinned() {
        assert_eq!(
            [(0, 0), (42, 1), (u64::MAX, 7)].map(|(l, v)| page_fingerprint(l, v)),
            [
                0x2848_D6A4_A7B2_8BC1,
                0x21D3_0E74_6CE7_6967,
                0xE92F_91A4_9F11_317E
            ]
        );
    }

    #[test]
    fn fingerprint_xor_reconstructs() {
        let fps: Vec<u64> = (0..7).map(|i| page_fingerprint(i, i * 3 + 1)).collect();
        let parity = xor_parity(fps.iter().copied());
        for drop in 0..fps.len() {
            let others = fps
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != drop)
                .map(|(_, f)| *f);
            assert_eq!(xor_parity(others) ^ parity, fps[drop]);
        }
        assert_ne!(
            page_fingerprint(1, 0),
            page_fingerprint(0, 1),
            "lpn and version are not interchangeable"
        );
    }
}
