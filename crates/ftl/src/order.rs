//! Program orders for a 3D NAND block (paper §4.1.3, Fig. 12).
//!
//! 3D NAND separates WLs on the same h-layer with select-line transistors,
//! so unlike 2D NAND a block's WLs can be programmed in any of several
//! orders without cell-to-cell interference (Fig. 13 confirms the three
//! orders are reliability-equivalent):
//!
//! * **horizontal-first** — the conventional order: finish each h-layer
//!   before moving down. After each leader, only 3 follower WLs are
//!   available.
//! * **vertical-first** — walk each v-layer top to bottom.
//! * **mixed order (MOS)** — program all leaders (v-layer 0) first, then
//!   the followers; every WL outside the first v-layer becomes a fast
//!   follower, maximizing the pool the WAM can serve bursts from.

use nand3d::{BlockId, Geometry, WlAddr};

/// The order in which a block's WLs are programmed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProgramOrder {
    /// Conventional: h-layer by h-layer (Fig. 12(a)).
    HorizontalFirst,
    /// V-layer by v-layer (Fig. 12(b)).
    VerticalFirst,
    /// Mixed order scheme: all leaders first, then followers
    /// (Fig. 12(c)).
    Mixed,
}

impl ProgramOrder {
    /// All three orders, in the paper's presentation order.
    pub const ALL: [ProgramOrder; 3] = [
        ProgramOrder::HorizontalFirst,
        ProgramOrder::VerticalFirst,
        ProgramOrder::Mixed,
    ];

    /// Short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            ProgramOrder::HorizontalFirst => "horizontal-first",
            ProgramOrder::VerticalFirst => "vertical-first",
            ProgramOrder::Mixed => "mixed (MOS)",
        }
    }

    /// The `i`-th WL of `block` under this order
    /// (`i < geometry.wls_per_block()`).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn wl_at(self, geometry: &Geometry, block: BlockId, i: u32) -> WlAddr {
        assert!(i < geometry.wls_per_block(), "WL index {i} out of range");
        let hs = u32::from(geometry.hlayers_per_block);
        let vs = u32::from(geometry.wls_per_hlayer);
        let (h, v) = match self {
            ProgramOrder::HorizontalFirst => (i / vs, i % vs),
            ProgramOrder::VerticalFirst => (i % hs, i / hs),
            ProgramOrder::Mixed => {
                if i < hs {
                    // All leaders first (v = 0, descending h-layers).
                    (i, 0)
                } else {
                    // Then followers, h-layer major.
                    let j = i - hs;
                    (j / (vs - 1), 1 + j % (vs - 1))
                }
            }
        };
        geometry.wl_addr(block, h as u16, v as u16)
    }

    /// Iterates over the whole block in this order.
    pub fn sequence<'g>(
        self,
        geometry: &'g Geometry,
        block: BlockId,
    ) -> impl DoubleEndedIterator<Item = WlAddr> + ExactSizeIterator + 'g {
        (0..geometry.wls_per_block()).map(move |i| self.wl_at(geometry, block, i))
    }

    /// Number of follower WLs immediately available after the first `i`
    /// WLs have been programmed (i.e. WLs whose h-layer leader is already
    /// programmed).
    pub fn available_followers(self, geometry: &Geometry, programmed: u32) -> u32 {
        let mut leaders_done = vec![false; geometry.hlayers_per_block as usize];
        let mut available = 0u32;
        let mut used_followers = 0u32;
        for i in 0..programmed.min(geometry.wls_per_block()) {
            let wl = self.wl_at(geometry, BlockId(0), i);
            if wl.is_leader() {
                leaders_done[wl.h.0 as usize] = true;
            } else {
                used_followers += 1;
            }
        }
        for (h, done) in leaders_done.iter().enumerate() {
            if *done {
                let _ = h;
                available += u32::from(geometry.wls_per_hlayer) - 1;
            }
        }
        available - used_followers
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn geometry() -> Geometry {
        Geometry::small() // 8 h-layers × 4 WLs
    }

    #[test]
    fn every_order_is_a_permutation() {
        let g = geometry();
        for order in ProgramOrder::ALL {
            let seq: Vec<WlAddr> = order.sequence(&g, BlockId(0)).collect();
            assert_eq!(seq.len(), g.wls_per_block() as usize);
            let distinct: HashSet<_> = seq.iter().collect();
            assert_eq!(distinct.len(), seq.len(), "{order:?} repeats WLs");
        }
    }

    #[test]
    fn horizontal_first_walks_layers() {
        let g = geometry();
        let seq: Vec<WlAddr> = ProgramOrder::HorizontalFirst
            .sequence(&g, BlockId(0))
            .take(5)
            .collect();
        assert_eq!((seq[0].h.0, seq[0].v.0), (0, 0));
        assert_eq!((seq[3].h.0, seq[3].v.0), (0, 3));
        assert_eq!((seq[4].h.0, seq[4].v.0), (1, 0));
    }

    #[test]
    fn vertical_first_walks_vlayers() {
        let g = geometry();
        let seq: Vec<WlAddr> = ProgramOrder::VerticalFirst
            .sequence(&g, BlockId(0))
            .collect();
        assert_eq!((seq[0].h.0, seq[0].v.0), (0, 0));
        assert_eq!((seq[7].h.0, seq[7].v.0), (7, 0));
        assert_eq!((seq[8].h.0, seq[8].v.0), (0, 1));
    }

    #[test]
    fn mixed_programs_all_leaders_first() {
        let g = geometry();
        let seq: Vec<WlAddr> = ProgramOrder::Mixed.sequence(&g, BlockId(0)).collect();
        let hs = g.hlayers_per_block as usize;
        assert!(seq[..hs].iter().all(|wl| wl.is_leader()));
        assert!(seq[hs..].iter().all(|wl| !wl.is_leader()));
    }

    #[test]
    fn mixed_maximizes_follower_pool() {
        // §4.1.3: under MOS, once the leaders are programmed every
        // remaining WL is a fast follower; under horizontal-first only 3
        // per completed h-layer.
        let g = geometry();
        let after_leaders = g.hlayers_per_block as u32;
        let mixed = ProgramOrder::Mixed.available_followers(&g, after_leaders);
        let horizontal = ProgramOrder::HorizontalFirst.available_followers(&g, after_leaders);
        assert_eq!(
            mixed,
            (u32::from(g.wls_per_hlayer) - 1) * u32::from(g.hlayers_per_block)
        );
        assert!(mixed > horizontal);
    }

    #[test]
    fn followers_only_after_their_leader() {
        // In every order, a follower WL must come after the leader of its
        // h-layer (the OPM needs the leader's monitored parameters).
        let g = geometry();
        for order in ProgramOrder::ALL {
            let mut leader_seen = vec![false; g.hlayers_per_block as usize];
            for wl in order.sequence(&g, BlockId(0)) {
                if wl.is_leader() {
                    leader_seen[wl.h.0 as usize] = true;
                } else {
                    assert!(
                        leader_seen[wl.h.0 as usize],
                        "{order:?}: follower {wl} before its leader"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_index_rejected() {
        let g = geometry();
        ProgramOrder::Mixed.wl_at(&g, BlockId(0), g.wls_per_block());
    }
}
