//! The host write buffer.
//!
//! Host writes complete as soon as their pages are accepted into the DRAM
//! write buffer; a background flush drains the buffer to NAND one WL
//! (3 pages) at a time. The buffer's utilization `μ` is the signal
//! cubeFTL's WL allocation manager uses to detect write bursts (§5.2):
//! `μ > μ_TH` means the host is producing data faster than the flush
//! drains it, so follower (fast) WLs should be used.
//!
//! Pages stay resident — and readable at DRAM latency — until their flush
//! completes; re-writing a buffered page updates it in place without
//! consuming a new slot.

use std::collections::VecDeque;

/// The LPN of a free table slot: the pad value of a short flush batch,
/// which no host page can carry.
const EMPTY: u64 = u64::MAX;

/// One distinct buffered LPN. An entry lives while `resident > 0`, and
/// `queued <= resident` always holds; a free slot holds [`EMPTY`] and
/// zero counts.
#[derive(Debug, Clone, Copy)]
struct Entry {
    lpn: u64,
    /// Copies occupying slots (queued or in flight); reads hit on any.
    resident: u32,
    /// Copies still in the FIFO (an in-place update needs one).
    queued: u32,
}

const FREE: Entry = Entry {
    lpn: EMPTY,
    resident: 0,
    queued: 0,
};

/// FIFO write buffer with in-place update and in-flight accounting.
#[derive(Debug, Clone)]
pub struct WriteBuffer {
    capacity: usize,
    /// Pages accepted but not yet picked for a flush.
    queue: VecDeque<u64>,
    /// The distinct resident LPNs in an open-addressing table: linear
    /// probing from a multiplicative hash of the LPN, backward-shift
    /// deletion (no tombstones). Every entry owns at least one buffer
    /// slot, so at most `capacity` of the table's power-of-two
    /// `>= 2 * capacity` slots are ever live: a probe always ends, and
    /// push / take / complete / read probe cost O(1) at any capacity
    /// with nothing allocated after `new`. LPNs chosen to share a home
    /// slot cost a probe of at most `capacity` entries — the linear scan
    /// this table replaced.
    table: Vec<Entry>,
    /// Pages picked for an ongoing flush but not yet programmed.
    in_flight: usize,
}

impl WriteBuffer {
    /// A buffer holding `capacity` pages.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "write buffer needs at least one slot");
        WriteBuffer {
            capacity,
            queue: VecDeque::with_capacity(capacity),
            table: vec![FREE; (2 * capacity).next_power_of_two()],
            in_flight: 0,
        }
    }

    /// Total slots.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Occupied slots (queued + in flight).
    pub fn fill(&self) -> usize {
        self.queue.len() + self.in_flight
    }

    /// Utilization `μ` in `[0, 1]`.
    pub fn utilization(&self) -> f64 {
        self.fill() as f64 / self.capacity as f64
    }

    /// Pages waiting to be flushed.
    pub fn queued(&self) -> usize {
        self.queue.len()
    }

    /// Whether `n` more pages fit right now.
    pub fn has_room(&self, n: usize) -> bool {
        self.fill() + n <= self.capacity
    }

    /// The table slot a probe for `lpn` starts at: the top bits of a
    /// Fibonacci hash.
    fn home(&self, lpn: u64) -> usize {
        let bits = self.table.len().trailing_zeros();
        (lpn.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - bits)) as usize
    }

    /// The slot holding `lpn`, or else the free slot ending its probe
    /// chain (where it would be inserted).
    fn probe(&self, lpn: u64) -> usize {
        debug_assert_ne!(lpn, EMPTY, "the pad value is not a host page");
        let mask = self.table.len() - 1;
        let mut i = self.home(lpn);
        while self.table[i].lpn != lpn && self.table[i].lpn != EMPTY {
            i = (i + 1) & mask;
        }
        i
    }

    fn position(&self, lpn: u64) -> Option<usize> {
        let i = self.probe(lpn);
        (self.table[i].lpn == lpn).then_some(i)
    }

    /// Frees slot `hole`, shifting back every later entry of the chain
    /// whose probe would otherwise stop at the hole.
    fn remove(&mut self, mut hole: usize) {
        let mask = self.table.len() - 1;
        let mut next = (hole + 1) & mask;
        while self.table[next].lpn != EMPTY {
            let home = self.home(self.table[next].lpn);
            // Movable iff the hole lies on its path from home to `next`.
            if (next.wrapping_sub(home) & mask) >= (next.wrapping_sub(hole) & mask) {
                self.table[hole] = self.table[next];
                hole = next;
            }
            next = (next + 1) & mask;
        }
        self.table[hole] = FREE;
    }

    /// Accepts a host page write. Returns `false` (and changes nothing)
    /// if the buffer is full; returns `true` on acceptance. Re-writing a
    /// page that is still queued updates it in place.
    pub fn push(&mut self, lpn: u64) -> bool {
        let i = self.probe(lpn);
        // In-place update only if a queued (not yet in-flight) copy
        // exists; an in-flight copy is already bound to a NAND program,
        // so the re-write needs its own slot.
        if self.table[i].queued > 0 {
            return true;
        }
        if !self.has_room(1) {
            return false;
        }
        self.queue.push_back(lpn);
        // A free slot counts zero copies, so a new entry and a further
        // copy of a resident one are the same update.
        let entry = &mut self.table[i];
        entry.lpn = lpn;
        entry.resident += 1;
        entry.queued += 1;
        true
    }

    /// Whether a read of `lpn` can be served from DRAM.
    pub fn contains(&self, lpn: u64) -> bool {
        self.position(lpn).is_some()
    }

    /// Takes up to 3 queued pages for a flush, marking them in flight.
    /// Returns `None` when fewer than `min_pages` are queued.
    pub fn take_for_flush(&mut self, min_pages: usize) -> Option<[u64; 3]> {
        if self.queue.len() < min_pages.max(1) {
            return None;
        }
        let mut out = [u64::MAX; 3];
        let n = self.queue.len().min(3);
        for slot in out.iter_mut().take(n) {
            let lpn = self.queue.pop_front().expect("checked length");
            let i = self.position(lpn).expect("queued page without entry");
            self.table[i].queued -= 1;
            *slot = lpn;
        }
        self.in_flight += n;
        Some(out)
    }

    /// Queued (not yet in-flight) pages in FIFO order — together with
    /// the in-flight flush batches held by the chips, this is what the
    /// power-loss-protection capacitor dumps on a sudden power-off.
    /// Deterministic: iterates the FIFO, never the hashed table.
    pub fn queued_lpns(&self) -> impl Iterator<Item = u64> + '_ {
        self.queue.iter().copied()
    }

    /// Completes a flush of `lpns` (as returned by
    /// [`WriteBuffer::take_for_flush`]), freeing the slots.
    pub fn complete_flush(&mut self, lpns: [u64; 3]) {
        for lpn in lpns {
            if lpn == u64::MAX {
                continue;
            }
            self.in_flight -= 1;
            let i = self
                .position(lpn)
                .expect("flush completion for unknown page");
            self.table[i].resident -= 1;
            if self.table[i].resident == 0 {
                self.remove(i);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;

    /// The buffer as it first was — two hash maps keyed by LPN — kept as
    /// the reference the hashed table is compared against.
    #[derive(Debug, Clone)]
    struct RefBuffer {
        capacity: usize,
        /// Pages accepted but not yet picked for a flush.
        queue: VecDeque<u64>,
        /// Residency count per LPN (queued or in-flight); reads hit on any.
        resident: HashMap<u64, u32>,
        /// Queued-copy count per LPN (for O(1) in-place update checks).
        queued_count: HashMap<u64, u32>,
        /// Pages picked for an ongoing flush but not yet programmed.
        in_flight: usize,
    }

    impl RefBuffer {
        /// A buffer holding `capacity` pages.
        ///
        /// # Panics
        ///
        /// Panics if `capacity` is zero.
        fn new(capacity: usize) -> Self {
            assert!(capacity > 0, "write buffer needs at least one slot");
            RefBuffer {
                capacity,
                queue: VecDeque::new(),
                resident: HashMap::new(),
                queued_count: HashMap::new(),
                in_flight: 0,
            }
        }

        /// Total slots.
        fn capacity(&self) -> usize {
            self.capacity
        }

        /// Occupied slots (queued + in flight).
        fn fill(&self) -> usize {
            self.queue.len() + self.in_flight
        }

        /// Utilization `μ` in `[0, 1]`.
        fn utilization(&self) -> f64 {
            self.fill() as f64 / self.capacity as f64
        }

        /// Pages waiting to be flushed.
        fn queued(&self) -> usize {
            self.queue.len()
        }

        /// Whether `n` more pages fit right now.
        fn has_room(&self, n: usize) -> bool {
            self.fill() + n <= self.capacity
        }

        /// Accepts a host page write. Returns `false` (and changes nothing)
        /// if the buffer is full; returns `true` on acceptance. Re-writing a
        /// page that is still queued updates it in place.
        fn push(&mut self, lpn: u64) -> bool {
            // In-place update only if a queued (not yet in-flight) copy
            // exists; an in-flight copy is already bound to a NAND program,
            // so the re-write needs its own slot.
            if self.queued_count.get(&lpn).is_some_and(|c| *c > 0) {
                return true;
            }
            if !self.has_room(1) {
                return false;
            }
            self.queue.push_back(lpn);
            *self.resident.entry(lpn).or_insert(0) += 1;
            *self.queued_count.entry(lpn).or_insert(0) += 1;
            true
        }

        /// Whether a read of `lpn` can be served from DRAM.
        fn contains(&self, lpn: u64) -> bool {
            self.resident.get(&lpn).is_some_and(|c| *c > 0)
        }

        /// Takes up to 3 queued pages for a flush, marking them in flight.
        /// Returns `None` when fewer than `min_pages` are queued.
        fn take_for_flush(&mut self, min_pages: usize) -> Option<[u64; 3]> {
            if self.queue.len() < min_pages.max(1) {
                return None;
            }
            let mut out = [u64::MAX; 3];
            let n = self.queue.len().min(3);
            for slot in out.iter_mut().take(n) {
                let lpn = self.queue.pop_front().expect("checked length");
                match self.queued_count.get_mut(&lpn) {
                    Some(c) if *c > 1 => *c -= 1,
                    Some(_) => {
                        self.queued_count.remove(&lpn);
                    }
                    None => unreachable!("queued page without count"),
                }
                *slot = lpn;
            }
            self.in_flight += n;
            Some(out)
        }

        /// Queued (not yet in-flight) pages in FIFO order — together with
        /// the in-flight flush batches held by the chips, this is what the
        /// power-loss-protection capacitor dumps on a sudden power-off.
        /// Deterministic: iterates the FIFO, never a hash map.
        fn queued_lpns(&self) -> impl Iterator<Item = u64> + '_ {
            self.queue.iter().copied()
        }

        /// Completes a flush of `lpns` (as returned by
        /// [`RefBuffer::take_for_flush`]), freeing the slots.
        fn complete_flush(&mut self, lpns: [u64; 3]) {
            for lpn in lpns {
                if lpn == u64::MAX {
                    continue;
                }
                self.in_flight -= 1;
                match self.resident.get_mut(&lpn) {
                    Some(c) if *c > 1 => *c -= 1,
                    Some(_) => {
                        self.resident.remove(&lpn);
                    }
                    None => unreachable!("flush completion for unknown page"),
                }
            }
        }
    }

    /// Twelve LPNs picked to collide: eight whose probe starts at the
    /// table's last slot and four at slot 0, at every capacity (`home`
    /// takes the hash's top bits, so all-ones / all-zeros at the widest
    /// table is all-ones / all-zeros at the narrower ones). Their chains
    /// run across the wrap-around, and a deletion must shift some
    /// entries back and leave others at home.
    fn colliding_lpns() -> Vec<u64> {
        let widest = WriteBuffer::new(256);
        let last = widest.table.len() - 1;
        let homed = |slot, n| -> Vec<u64> {
            let at_slot = (0u64..).filter(|&l| widest.home(l) == slot);
            at_slot.take(n).collect()
        };
        [homed(last, 8), homed(0, 4)].concat()
    }

    proptest! {
        /// The hashed table against the two-hash-map buffer it replaced:
        /// random operation sequences at capacities 1, 3, 16 and 256
        /// over one of two LPN domains — six small LPNs (so in-place
        /// updates and re-writes of in-flight copies are frequent) or
        /// `colliding_lpns`. Every return value and every observable
        /// must agree after every step.
        #[test]
        fn fixed_table_matches_the_hash_map_buffer(
            ops in prop::collection::vec((0u8..12, 0usize..12, 0usize..5), 1..400),
            colliding in prop::bool::ANY,
        ) {
            let lpns = if colliding { colliding_lpns() } else { (0..6).collect() };
            for capacity in [1, 3, 16, 256] {
                let mut buffer = WriteBuffer::new(capacity);
                let mut reference = RefBuffer::new(capacity);
                if colliding {
                    let last = buffer.table.len() - 1;
                    prop_assert!(lpns[..8].iter().all(|&l| buffer.home(l) == last));
                    prop_assert!(lpns[8..].iter().all(|&l| buffer.home(l) == 0));
                }
                // Batches taken and not yet completed; flushes complete
                // in chip order, not FIFO, so any of them may be next.
                let mut in_flight: Vec<[u64; 3]> = Vec::new();
                for &(op, key, n) in &ops {
                    let lpn = lpns[key % lpns.len()];
                    match op {
                        0..=4 => prop_assert_eq!(buffer.push(lpn), reference.push(lpn)),
                        5 | 6 => {
                            let batch = buffer.take_for_flush(n);
                            prop_assert_eq!(batch, reference.take_for_flush(n));
                            in_flight.extend(batch);
                        }
                        7..=9 if !in_flight.is_empty() => {
                            let batch = in_flight.swap_remove(n % in_flight.len());
                            buffer.complete_flush(batch);
                            reference.complete_flush(batch);
                        }
                        _ => prop_assert_eq!(buffer.has_room(n), reference.has_room(n)),
                    }
                    for &l in &lpns {
                        prop_assert_eq!(buffer.contains(l), reference.contains(l));
                    }
                    prop_assert_eq!(buffer.capacity(), reference.capacity());
                    prop_assert_eq!(buffer.fill(), reference.fill());
                    prop_assert_eq!(buffer.queued(), reference.queued());
                    prop_assert_eq!(buffer.utilization(), reference.utilization());
                    prop_assert!(buffer.queued_lpns().eq(reference.queued_lpns()));
                    let live = buffer.table.iter().filter(|e| e.lpn != EMPTY).count();
                    prop_assert_eq!(live, reference.resident.len());
                    prop_assert!(live <= capacity);
                }
            }
        }
    }

    #[test]
    fn push_take_complete_cycle() {
        let mut b = WriteBuffer::new(8);
        for lpn in 0..6 {
            assert!(b.push(lpn));
        }
        assert_eq!(b.fill(), 6);
        assert!((b.utilization() - 0.75).abs() < 1e-12);

        let batch = b.take_for_flush(3).unwrap();
        assert_eq!(batch, [0, 1, 2]);
        assert_eq!(b.queued(), 3);
        assert_eq!(b.fill(), 6, "in-flight pages still occupy slots");
        assert!(b.contains(0), "in-flight pages still readable");

        b.complete_flush(batch);
        assert_eq!(b.fill(), 3);
        assert!(!b.contains(0));
        assert!(b.contains(3));
    }

    #[test]
    fn full_buffer_rejects() {
        let mut b = WriteBuffer::new(2);
        assert!(b.push(1));
        assert!(b.push(2));
        assert!(!b.push(3));
        assert_eq!(b.fill(), 2);
    }

    #[test]
    fn rewrite_of_queued_page_is_free() {
        let mut b = WriteBuffer::new(2);
        assert!(b.push(7));
        assert!(b.push(7));
        assert_eq!(b.fill(), 1);
    }

    #[test]
    fn rewrite_of_in_flight_page_takes_new_slot() {
        let mut b = WriteBuffer::new(4);
        b.push(7);
        let batch = b.take_for_flush(1).unwrap();
        assert_eq!(batch[0], 7);
        assert!(b.push(7), "needs a fresh slot");
        assert_eq!(b.fill(), 2);
        b.complete_flush(batch);
        assert_eq!(b.fill(), 1);
        assert!(b.contains(7), "newer copy still resident");
    }

    #[test]
    fn take_respects_min_pages() {
        let mut b = WriteBuffer::new(8);
        b.push(1);
        b.push(2);
        assert!(b.take_for_flush(3).is_none());
        let batch = b.take_for_flush(1).unwrap();
        assert_eq!(batch, [1, 2, u64::MAX]);
        b.complete_flush(batch);
        assert_eq!(b.fill(), 0);
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn zero_capacity_rejected() {
        WriteBuffer::new(0);
    }
}
