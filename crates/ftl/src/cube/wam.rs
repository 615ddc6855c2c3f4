//! The WL Allocation Manager (WAM) of cubeFTL (paper §5.2, Fig. 16).
//!
//! The WAM exploits the write-performance asymmetry between slow leader
//! WLs and fast follower WLs. It watches the write-buffer utilization
//! `μ`: under `μ ≤ μ_TH` it spends the slow leader WLs (banking fast
//! followers for later); under a burst (`μ > μ_TH`) it serves writes from
//! the follower pool. Active blocks are managed in a *fully mixed*
//! fashion based on the mixed-order scheme: per active block, `i_Leader`
//! points at the h-layer with the next free leader WL and `i_Follower`
//! at the h-layer with the next free follower WL, with followers only
//! usable below already-programmed leaders (`i_Follower < i_Leader`).
//!
//! The paper uses **two active blocks per chip** so that leader WLs
//! rarely run out while followers are being banked.
//!
//! Every FTL kind allocates through a WAM; only its policy differs.
//! cubeFTL runs the §5.2 policy above. pageFTL, vertFTL and cubeFTL−
//! run [`Wam::horizontal_first`]: one active block under a permanent
//! burst (`μ_TH = −∞`), so each h-layer's leader is followed by its
//! followers before the next leader — the conventional horizontal-first
//! order, which §4.1.3 shows is as reliable as the mixed one.

use nand3d::{BlockId, Geometry, WlAddr};

/// A WL selected by the WAM, tagged with its role.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WlChoice {
    /// A leading WL, programmed with default parameters and monitored.
    Leader(WlAddr),
    /// A follower WL, programmed with the OPM's optimized parameters.
    Follower(WlAddr),
}

impl WlChoice {
    /// The chosen WL address.
    pub fn addr(&self) -> WlAddr {
        match self {
            WlChoice::Leader(wl) | WlChoice::Follower(wl) => *wl,
        }
    }

    /// Whether this is a leader WL.
    pub fn is_leader(&self) -> bool {
        matches!(self, WlChoice::Leader(_))
    }
}

/// Write-point state of one active block under the mixed-order scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ActiveBlock {
    block: BlockId,
    /// `i_Leader`: h-layer of the next free leader WL.
    next_leader_h: u16,
    /// `i_Follower`: (h-layer, v-layer) of the next free follower WL.
    next_follower: (u16, u16),
}

impl ActiveBlock {
    fn new(block: BlockId) -> Self {
        ActiveBlock {
            block,
            next_leader_h: 0,
            next_follower: (0, 1),
        }
    }

    fn has_leader(&self, g: &Geometry) -> bool {
        self.next_leader_h < g.hlayers_per_block
    }

    /// Followers are usable only on h-layers whose leader was programmed.
    fn has_follower(&self, g: &Geometry) -> bool {
        self.next_follower.0 < g.hlayers_per_block && self.next_follower.0 < self.next_leader_h
    }

    fn is_full(&self, g: &Geometry) -> bool {
        !self.has_leader(g) && self.next_follower.0 >= g.hlayers_per_block
    }

    /// WLs of the block not handed out yet.
    fn unwritten(&self, g: &Geometry) -> u32 {
        let leaders = u32::from(g.hlayers_per_block - self.next_leader_h);
        let (h, v) = self.next_follower;
        let followers =
            u32::from(g.hlayers_per_block.saturating_sub(h)) * u32::from(g.wls_per_hlayer - 1);
        leaders + followers.saturating_sub(u32::from(v) - 1)
    }

    fn take_leader(&mut self, g: &Geometry) -> WlAddr {
        debug_assert!(self.has_leader(g));
        let wl = g.wl_addr(self.block, self.next_leader_h, 0);
        self.next_leader_h += 1;
        wl
    }

    fn take_follower(&mut self, g: &Geometry) -> WlAddr {
        debug_assert!(self.has_follower(g));
        let (h, v) = self.next_follower;
        let wl = g.wl_addr(self.block, h, v);
        self.next_follower = if v + 1 < g.wls_per_hlayer {
            (h, v + 1)
        } else {
            (h + 1, 1)
        };
        wl
    }
}

#[derive(Debug, Clone, Default)]
struct ChipWam {
    active: Vec<ActiveBlock>,
}

/// The WL Allocation Manager: mixed-order active blocks per chip and the
/// `μ`-driven leader/follower policy.
#[derive(Debug, Clone)]
pub struct Wam {
    geometry: Geometry,
    per_chip: Vec<ChipWam>,
    mu_threshold: f64,
    active_per_chip: usize,
}

impl Wam {
    /// A WAM for `chips` chips with burst threshold `mu_threshold` (§5.2;
    /// the paper suggests 0.9) and `active_per_chip` active blocks per
    /// chip — the §5.2 trade-off: more active blocks keep leader WLs
    /// available longer but grow the OPM's parameter memory.
    ///
    /// # Panics
    ///
    /// Panics if `active_per_chip` is zero.
    pub fn with_active_blocks(
        geometry: Geometry,
        chips: usize,
        mu_threshold: f64,
        active_per_chip: usize,
    ) -> Self {
        assert!(active_per_chip > 0, "need at least one active block");
        Wam {
            geometry,
            per_chip: vec![ChipWam::default(); chips],
            mu_threshold,
            active_per_chip,
        }
    }

    /// The horizontal-first WAM of the kinds without the §5.2 policy: one
    /// active block per chip under a permanent burst (`μ_TH = −∞`). The
    /// follower cursor is taken whenever it may be, so each h-layer's
    /// leader is followed by its followers before the next leader.
    pub fn horizontal_first(geometry: Geometry, chips: usize) -> Self {
        Wam::with_active_blocks(geometry, chips, f64::NEG_INFINITY, 1)
    }

    /// Selects the next WL on `chip` for a host (or GC) write.
    ///
    /// `mu` is the current write-buffer utilization; `alloc_block` is
    /// called when an active-block slot needs a fresh erased block and
    /// must eventually supply one (GC guarantees this upstream).
    ///
    /// # Panics
    ///
    /// Panics if no WL can be produced even after requesting new blocks —
    /// that indicates the caller violated the free-block invariant.
    pub fn select(
        &mut self,
        chip: usize,
        mu: f64,
        mut alloc_block: impl FnMut() -> Option<BlockId>,
    ) -> WlChoice {
        // Refill active-block slots.
        let state = &mut self.per_chip[chip];
        state.active.retain(|b| !b.is_full(&self.geometry));
        while state.active.len() < self.active_per_chip {
            match alloc_block() {
                Some(b) => state.active.push(ActiveBlock::new(b)),
                None => break,
            }
        }
        assert!(
            !state.active.is_empty(),
            "WAM has no active block and the allocator returned none"
        );

        let want_follower = mu > self.mu_threshold;
        let g = &self.geometry;

        if want_follower {
            // Burst: serve from the follower pool when possible (②).
            if let Some(b) = state.active.iter_mut().find(|b| b.has_follower(g)) {
                return WlChoice::Follower(b.take_follower(g));
            }
            if let Some(b) = state.active.iter_mut().find(|b| b.has_leader(g)) {
                return WlChoice::Leader(b.take_leader(g));
            }
        } else {
            // Calm: prefer the slow leader WLs (①), banking followers.
            if let Some(b) = state.active.iter_mut().find(|b| b.has_leader(g)) {
                return WlChoice::Leader(b.take_leader(g));
            }
            if let Some(b) = state.active.iter_mut().find(|b| b.has_follower(g)) {
                return WlChoice::Follower(b.take_follower(g));
            }
        }
        unreachable!("an active block always has a leader or a follower free")
    }

    /// Re-opens `block` as an active write point on `chip`, deriving its
    /// mixed-order cursors from the physical WL states (`is_free` says
    /// whether a WL is still erased and programmable). Crash recovery
    /// uses this to resume the blocks that were active at the power cut:
    /// their remaining follower WLs sit under pre-crash leaders whose
    /// monitored parameters died with the RAM, so the next program on
    /// each such h-layer runs conservative defaults and re-monitors.
    ///
    /// Returns `false` (leaving the block closed) if the block is
    /// already full — which includes a block whose only erased WLs are
    /// holes below both cursors — or the chip's active slots are all
    /// taken.
    pub fn resume_block(
        &mut self,
        chip: usize,
        block: BlockId,
        is_free: impl Fn(WlAddr) -> bool,
    ) -> bool {
        let g = self.geometry;
        // Each cursor sits one past the last non-erased WL of its kind;
        // torn (unprogrammable) WLs count as used. An abort hole below
        // that WL is skipped for good; one above it is handed out again.
        let next_leader_h = (0..g.hlayers_per_block)
            .rev()
            .find(|&h| !is_free(g.wl_addr(block, h, 0)))
            .map_or(0, |h| h + 1);
        let mut next_follower = (0, 1);
        for h in 0..g.hlayers_per_block {
            for v in 1..g.wls_per_hlayer {
                if !is_free(g.wl_addr(block, h, v)) {
                    next_follower = if v + 1 < g.wls_per_hlayer {
                        (h, v + 1)
                    } else {
                        (h + 1, 1)
                    };
                }
            }
        }
        let resumed = ActiveBlock {
            block,
            next_leader_h,
            next_follower,
        };
        let state = &mut self.per_chip[chip];
        if resumed.is_full(&g) || state.active.len() >= self.active_per_chip {
            return false;
        }
        state.active.push(resumed);
        true
    }

    /// Active blocks per chip: how many partially written blocks crash
    /// recovery may resume on each chip.
    pub fn active_per_chip(&self) -> usize {
        self.active_per_chip
    }

    /// WLs the active blocks of `chip` can still hand out.
    pub fn unwritten_wls(&self, chip: usize) -> u32 {
        let active = &self.per_chip[chip].active;
        active.iter().map(|b| b.unwritten(&self.geometry)).sum()
    }

    /// Blocks currently open for writing on `chip` (these must not be
    /// selected as GC victims).
    pub fn active_blocks(&self, chip: usize) -> impl Iterator<Item = BlockId> + '_ {
        self.per_chip[chip].active.iter().map(|b| b.block)
    }

    /// The `(block, h-layer)` pairs still open for programming on
    /// `chip`'s active blocks: every h-layer at or above the follower
    /// cursor and below the leader cursor plus the leader frontier
    /// itself. After crash recovery these are the layers whose leader
    /// parameters died with the RAM — the read pipeline's cluster
    /// quarantines them from seeding until a fresh decode re-vouches.
    pub fn open_layers(&self, chip: usize) -> impl Iterator<Item = (BlockId, u16)> + '_ {
        let hlayers = self.geometry.hlayers_per_block;
        self.per_chip[chip].active.iter().flat_map(move |b| {
            let from = b.next_follower.0.min(b.next_leader_h);
            let to = b.next_leader_h.min(hlayers.saturating_sub(1));
            (from..=to).map(move |h| (b.block, h))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::order::ProgramOrder;

    fn wam() -> Wam {
        Wam::with_active_blocks(Geometry::small(), 1, 0.9, 2)
    }

    #[test]
    fn calm_writes_use_leaders_first() {
        let mut w = wam();
        let mut next = 0u32;
        let mut alloc = || {
            next += 1;
            Some(BlockId(next - 1))
        };
        for _ in 0..4 {
            let c = w.select(0, 0.1, &mut alloc);
            assert!(c.is_leader(), "calm writes must use leaders");
            assert!(c.addr().is_leader());
        }
    }

    #[test]
    fn burst_writes_use_followers_once_banked() {
        let mut w = wam();
        let mut next = 0u32;
        let mut alloc = || {
            next += 1;
            Some(BlockId(next - 1))
        };
        // Bank two leaders first.
        let l0 = w.select(0, 0.1, &mut alloc);
        let _l1 = w.select(0, 0.1, &mut alloc);
        // Burst: followers of the programmed leaders' h-layers.
        for _ in 0..3 {
            let c = w.select(0, 0.95, &mut alloc);
            assert!(!c.is_leader(), "burst writes must use followers");
            assert_eq!(c.addr().h, l0.addr().h, "followers fill lowest layer first");
        }
    }

    #[test]
    fn burst_before_any_leader_falls_back_to_leader() {
        let mut w = wam();
        let mut alloc = || Some(BlockId(0));
        let c = w.select(0, 0.99, &mut alloc);
        assert!(c.is_leader(), "no follower is usable before its leader");
    }

    #[test]
    fn followers_never_precede_their_leader() {
        let mut w = wam();
        let mut next = 0u32;
        let mut alloc = || {
            next += 1;
            Some(BlockId(next - 1))
        };
        let mut leaders_done: std::collections::HashSet<(u32, u16)> =
            std::collections::HashSet::new();
        // Alternate calm and burst writes over two full blocks.
        for i in 0..(8 * 4 * 2) {
            let mu = if i % 3 == 0 { 0.95 } else { 0.2 };
            let c = w.select(0, mu, &mut alloc);
            let wl = c.addr();
            if c.is_leader() {
                leaders_done.insert((wl.block.0, wl.h.0));
            } else {
                assert!(
                    leaders_done.contains(&(wl.block.0, wl.h.0)),
                    "follower {wl} before leader"
                );
            }
        }
    }

    #[test]
    fn never_selects_same_wl_twice() {
        let mut w = wam();
        let mut next = 0u32;
        let mut alloc = || {
            next += 1;
            Some(BlockId(next - 1))
        };
        let mut seen = std::collections::HashSet::new();
        for i in 0..500 {
            let mu = f64::from(i % 10) / 10.0;
            let wl = w.select(0, mu, &mut alloc).addr();
            assert!(seen.insert(wl), "WL {wl} selected twice");
        }
    }

    #[test]
    fn exhausted_leaders_fall_back_to_followers() {
        let mut w = wam();
        // Single block available, never replaced.
        let mut calls = 0;
        let mut alloc = || {
            calls += 1;
            (calls <= 1).then_some(BlockId(7))
        };
        // Exhaust all 8 leaders calmly.
        for _ in 0..8 {
            assert!(w.select(0, 0.0, &mut alloc).is_leader());
        }
        // Calm writes must now use followers (the §5.2 "awkward
        // situation" the second active block normally avoids).
        let c = w.select(0, 0.0, &mut alloc);
        assert!(!c.is_leader());
    }

    #[test]
    fn two_active_blocks_reported() {
        let mut w = wam();
        let mut next = 0u32;
        let mut alloc = || {
            next += 1;
            Some(BlockId(next - 1))
        };
        let _ = w.select(0, 0.0, &mut alloc);
        let blocks: Vec<BlockId> = w.active_blocks(0).collect();
        assert_eq!(blocks.len(), 2, "paper: two active blocks per chip");
    }

    #[test]
    fn horizontal_first_hands_out_the_horizontal_first_sequence() {
        let g = Geometry::small();
        // The order must not depend on μ: every value is above −∞.
        for mu in [0.0, 0.5, 1.0] {
            let mut w = Wam::horizontal_first(g, 1);
            let mut next = 0u32;
            let mut alloc = || {
                next += 1;
                Some(BlockId(next - 1))
            };
            for block in [BlockId(0), BlockId(1)] {
                for want in ProgramOrder::HorizontalFirst.sequence(&g, block) {
                    let got = w.select(0, mu, &mut alloc);
                    assert_eq!(got.addr(), want, "μ = {mu}");
                    assert_eq!(got.is_leader(), want.is_leader(), "μ = {mu}, {want}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "no active block")]
    fn allocator_failure_panics() {
        let mut w = wam();
        let _ = w.select(0, 0.0, || None);
    }

    #[test]
    fn open_layers_cover_the_write_frontier() {
        let mut w = wam();
        let mut next = 0u32;
        let mut alloc = || {
            next += 1;
            Some(BlockId(next - 1))
        };
        // Two calm leader writes open two blocks at their first h-layer.
        let l0 = w.select(0, 0.1, &mut alloc).addr();
        let _l1 = w.select(0, 0.1, &mut alloc).addr();
        let open: Vec<(BlockId, u16)> = w.open_layers(0).collect();
        assert!(
            open.contains(&(l0.block, l0.h.0)),
            "the programmed leader's layer is still open for followers: {open:?}"
        );
        // Every open layer belongs to an active block, and every active
        // block contributes at least one open layer.
        let active: std::collections::HashSet<BlockId> = w.active_blocks(0).collect();
        assert!(open.iter().all(|(b, _)| active.contains(b)));
        for b in &active {
            assert!(
                open.iter().any(|(ob, _)| ob == b),
                "{b:?} has no open layer"
            );
        }
        // Layer indices never exceed the geometry.
        let hlayers = Geometry::small().hlayers_per_block;
        assert!(open.iter().all(|&(_, h)| h < hlayers));
    }
}
