//! The deficit-weighted-round-robin scheduler core.
//!
//! Classic DWRR (Shreedhar & Varghese) over per-tenant submission
//! queues, in Q8.8 fixed point: a tenant's quantum is `weight << 8`
//! and a request's cost is `n_pages << 8`, so every scheduling
//! decision is u64 integer arithmetic — byte-deterministic across
//! platforms and replay.
//!
//! Multi-queue arbitration is *flattened*: the scheduler walks tenants
//! in a caller-supplied order (the front passes (queue, tenant) order),
//! which is byte-equivalent to a two-level DWRR whose per-queue quantum
//! equals the sum of its member tenant quanta. Flattening preserves
//! global per-tenant weight proportionality, which plain round-robin
//! over queues would break.
//!
//! Invariants (property-tested in `tests/qos.rs`):
//!
//! * **Work conservation** — [`DwrrScheduler::pick`] returns `Some`
//!   whenever any tenant reports a backlogged head (a scan round adds
//!   each backlogged tenant's quantum, so any head cost is eventually
//!   covered).
//! * **Weight proportionality** — with all tenants saturated at unit
//!   cost, tenant i is served exactly `weight_i` times per round.
//! * **No deficit hoarding** — a tenant observed with an empty backlog
//!   has its deficit reset to 0, so idle periods earn no credit.

/// Q8.8 fixed-point shift: 8 fractional bits.
pub const Q_SHIFT: u32 = 8;

/// Integer-only deficit-weighted-round-robin over a fixed tenant
/// population. The scheduler owns no queues: [`DwrrScheduler::pick`]
/// probes backlogs through a callback and the caller dequeues.
#[derive(Debug, Clone)]
pub struct DwrrScheduler {
    /// Per-tenant quantum, Q8.8 (`weight << 8`), indexed by tenant id.
    quantum: Vec<u64>,
    /// Per-tenant deficit counter, Q8.8, indexed by tenant id.
    deficit: Vec<u64>,
    /// Walk order (tenant ids): the front passes (queue, tenant) order.
    order: Vec<u32>,
    /// Position in `order` of the next tenant the scan visits.
    cursor: usize,
    /// Position in `order` of the tenant currently being served within
    /// its deficit (no quantum re-grant while it continues).
    current: Option<usize>,
}

impl DwrrScheduler {
    /// A scheduler over `weights` (indexed by tenant id, all ≥ 1),
    /// walking tenants in `order` (a permutation of the tenant ids).
    pub fn new(weights: &[u32], order: Vec<u32>) -> Self {
        assert!(!weights.is_empty(), "scheduler needs at least one tenant");
        assert_eq!(order.len(), weights.len(), "order must cover every tenant");
        assert!(weights.iter().all(|&w| w >= 1), "weights must be >= 1");
        let mut seen = vec![false; weights.len()];
        for &t in &order {
            assert!(
                !std::mem::replace(&mut seen[t as usize], true),
                "order must be a permutation"
            );
        }
        DwrrScheduler {
            quantum: weights.iter().map(|&w| u64::from(w) << Q_SHIFT).collect(),
            deficit: vec![0; weights.len()],
            order,
            cursor: 0,
            current: None,
        }
    }

    /// The Q8.8 cost of a request spanning `n_pages`.
    pub fn cost(n_pages: u32) -> u64 {
        u64::from(n_pages) << Q_SHIFT
    }

    /// Picks the next tenant to serve and charges its head cost against
    /// its deficit. `head_cost(t)` reports the Q8.8 cost of tenant
    /// `t`'s head request, or `None` when its queue is empty; the
    /// caller must dequeue exactly that head when `pick` returns
    /// `Some(t)`.
    ///
    /// Work-conserving: returns `None` only when every tenant reports
    /// an empty backlog.
    pub fn pick(&mut self, head_cost: &mut dyn FnMut(u32) -> Option<u64>) -> Option<u32> {
        let n = self.order.len();
        // Continue the tenant being served while its deficit covers its
        // head — this (not one-request-per-visit) is what makes service
        // weight-proportional.
        if let Some(ci) = self.current.take() {
            let t = self.order[ci];
            match head_cost(t) {
                Some(cost) if self.deficit[t as usize] >= cost => {
                    self.deficit[t as usize] -= cost;
                    self.current = Some(ci);
                    return Some(t);
                }
                Some(_) => {
                    // Deficit exhausted: keep the residual for its next
                    // visit, move the scan past it.
                    self.cursor = self.after(ci);
                }
                None => {
                    // Backlog drained mid-service: no hoarding.
                    self.deficit[t as usize] = 0;
                    self.cursor = self.after(ci);
                }
            }
        }
        // Round-robin scan. Each backlogged tenant visited gains one
        // quantum; the scan stops at the first whose deficit then
        // covers its head. A full round with no backlog returns None;
        // otherwise rounds repeat, so an oversized head (cost greater
        // than one quantum) is eventually covered — work conservation.
        let mut backlogged_this_round = false;
        let mut visited = 0usize;
        loop {
            let i = self.cursor;
            let t = self.order[i];
            self.cursor = self.after(i);
            match head_cost(t) {
                Some(cost) => {
                    backlogged_this_round = true;
                    self.deficit[t as usize] += self.quantum[t as usize];
                    if self.deficit[t as usize] >= cost {
                        self.deficit[t as usize] -= cost;
                        self.current = Some(i);
                        self.cursor = i;
                        return Some(t);
                    }
                }
                None => self.deficit[t as usize] = 0,
            }
            visited += 1;
            if visited == n {
                if !backlogged_this_round {
                    return None;
                }
                backlogged_this_round = false;
                visited = 0;
            }
        }
    }

    /// The poll of a caller that knows no tenant is backlogged, in O(1):
    /// the same state change as a [`pick`](Self::pick) that finds every
    /// queue empty. That scan zeroes each deficit and leaves the cursor
    /// one past the tenant being served, if any. Only that tenant can
    /// hold a deficit here: any other tenant with one still has a head
    /// it could not afford, so it is backlogged (no hoarding).
    pub fn idle(&mut self) {
        if let Some(ci) = self.current.take() {
            self.deficit[self.order[ci] as usize] = 0;
            self.cursor = self.after(ci);
        }
    }

    /// The walk position after `i`, wrapping to the start.
    fn after(&self, i: usize) -> usize {
        if i + 1 == self.order.len() {
            0
        } else {
            i + 1
        }
    }

    /// Order-insensitive fingerprint of the complete scheduler state
    /// (deficits, cursor, continuation) — the replay-bijectivity
    /// property test asserts identical pick sequences leave identical
    /// fingerprints.
    pub fn fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |v: u64| {
            h ^= v;
            h = h.wrapping_mul(0x100_0000_01b3);
        };
        for &d in &self.deficit {
            mix(d);
        }
        mix(self.cursor as u64);
        mix(match self.current {
            Some(c) => c as u64 + 1,
            None => 0,
        });
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::VecDeque;

    /// The reference: the scheduler without `idle()` or the compare
    /// wraps, so every poll, idle or not, is a `pick` scan that steps
    /// its cursor and counts rounds with `%`.
    struct RefDwrr {
        quantum: Vec<u64>,
        deficit: Vec<u64>,
        order: Vec<u32>,
        cursor: usize,
        current: Option<usize>,
    }

    impl RefDwrr {
        fn new(weights: &[u32], order: Vec<u32>) -> Self {
            RefDwrr {
                quantum: weights.iter().map(|&w| u64::from(w) << Q_SHIFT).collect(),
                deficit: vec![0; weights.len()],
                order,
                cursor: 0,
                current: None,
            }
        }

        fn pick(&mut self, head_cost: &mut dyn FnMut(u32) -> Option<u64>) -> Option<u32> {
            let n = self.order.len();
            if let Some(ci) = self.current.take() {
                let t = self.order[ci];
                match head_cost(t) {
                    Some(cost) if self.deficit[t as usize] >= cost => {
                        self.deficit[t as usize] -= cost;
                        self.current = Some(ci);
                        return Some(t);
                    }
                    Some(_) => {
                        self.cursor = (ci + 1) % n;
                    }
                    None => {
                        self.deficit[t as usize] = 0;
                        self.cursor = (ci + 1) % n;
                    }
                }
            }
            let mut backlogged_this_round = false;
            let mut visited = 0usize;
            loop {
                let i = self.cursor;
                let t = self.order[i];
                self.cursor = (i + 1) % n;
                match head_cost(t) {
                    Some(cost) => {
                        backlogged_this_round = true;
                        self.deficit[t as usize] += self.quantum[t as usize];
                        if self.deficit[t as usize] >= cost {
                            self.deficit[t as usize] -= cost;
                            self.current = Some(i);
                            self.cursor = i;
                            return Some(t);
                        }
                    }
                    None => self.deficit[t as usize] = 0,
                }
                visited += 1;
                if visited.is_multiple_of(n) {
                    if !backlogged_this_round {
                        return None;
                    }
                    backlogged_this_round = false;
                }
            }
        }

        fn fingerprint(&self) -> u64 {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            let mut mix = |v: u64| {
                h ^= v;
                h = h.wrapping_mul(0x100_0000_01b3);
            };
            for &d in &self.deficit {
                mix(d);
            }
            mix(self.cursor as u64);
            mix(match self.current {
                Some(c) => c as u64 + 1,
                None => 0,
            });
            h
        }
    }

    proptest! {
        /// Driven the way `HostQueueFront` drives it — `pick` while any
        /// tenant is backlogged, the idle poll otherwise — the scheduler
        /// makes the reference's picks and leaves its state after every
        /// call. Heads of up to 11 pages against weights 1–8 make some
        /// picks take several rounds.
        #[test]
        fn scheduler_matches_the_scanning_reference(
            weights in prop::collection::vec(1u32..9, 1..41),
            keys in prop::collection::vec(0u64..u64::MAX, 40..41),
            admit_pct in 5u32..95,
            ops in prop::collection::vec((0u32..100, 0u32..40, 1u32..12), 0..600),
        ) {
            let n = weights.len();
            let mut order: Vec<u32> = (0..n as u32).collect();
            order.sort_by_key(|&t| keys[t as usize]);
            let mut s = DwrrScheduler::new(&weights, order.clone());
            let mut r = RefDwrr::new(&weights, order);
            let mut backlog: Vec<VecDeque<u32>> = vec![VecDeque::new(); n];
            for (step, &(roll, tenant, pages)) in ops.iter().enumerate() {
                if roll < admit_pct {
                    backlog[tenant as usize % n].push_back(pages);
                    continue;
                }
                let mut head =
                    |t: u32| backlog[t as usize].front().map(|&p| DwrrScheduler::cost(p));
                let want = r.pick(&mut head);
                let got = if backlog.iter().all(VecDeque::is_empty) {
                    s.idle();
                    None
                } else {
                    s.pick(&mut head)
                };
                prop_assert_eq!(got, want, "step {}", step);
                prop_assert_eq!(s.fingerprint(), r.fingerprint(), "step {}", step);
                if let Some(t) = got {
                    backlog[t as usize].pop_front();
                }
            }
        }
    }

    fn drive(weights: &[u32], backlog: &mut [VecDeque<u32>], picks: usize) -> Vec<u64> {
        let order: Vec<u32> = (0..weights.len() as u32).collect();
        let mut s = DwrrScheduler::new(weights, order);
        let mut served = vec![0u64; weights.len()];
        for _ in 0..picks {
            let Some(t) = s.pick(&mut |t| {
                backlog[t as usize]
                    .front()
                    .map(|&pages| DwrrScheduler::cost(pages))
            }) else {
                break;
            };
            backlog[t as usize].pop_front();
            served[t as usize] += 1;
        }
        served
    }

    #[test]
    fn saturated_unit_cost_service_is_exactly_weight_proportional() {
        let weights = [8u32, 4, 2, 1];
        let mut backlog: Vec<VecDeque<u32>> = weights
            .iter()
            .map(|_| std::iter::repeat_n(1u32, 10_000).collect())
            .collect();
        // 10 full rounds of W = 15 unit serves.
        let served = drive(&weights, &mut backlog, 150);
        assert_eq!(served, vec![80, 40, 20, 10]);
    }

    #[test]
    fn oversized_heads_are_eventually_served() {
        // Weight-1 tenant with a 64-page head: needs 64 rounds of
        // quantum but must not starve.
        let weights = [1u32, 1];
        let mut backlog = vec![VecDeque::from(vec![64u32]), VecDeque::from(vec![1u32; 100])];
        let served = drive(&weights, &mut backlog, 101);
        assert_eq!(served[0], 1, "oversized head must be served");
        assert_eq!(served[1], 100);
    }

    #[test]
    fn idle_tenants_earn_no_credit() {
        let weights = [4u32, 1];
        let mut s = DwrrScheduler::new(&weights, vec![0, 1]);
        // Tenant 0 idle for many scans while tenant 1 is served.
        let mut q1 = VecDeque::from(vec![1u32; 50]);
        for _ in 0..50 {
            let t = s
                .pick(&mut |t| match t {
                    0 => None,
                    _ => q1.front().map(|&p| DwrrScheduler::cost(p)),
                })
                .unwrap();
            assert_eq!(t, 1);
            q1.pop_front();
        }
        assert_eq!(s.deficit[0], 0, "idle tenant must not hoard deficit");
    }

    #[test]
    fn empty_backlogs_return_none() {
        let mut s = DwrrScheduler::new(&[3, 1], vec![0, 1]);
        assert_eq!(s.pick(&mut |_| None), None);
    }
}
