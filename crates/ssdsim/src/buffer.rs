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

/// One distinct buffered LPN. An entry lives while `resident > 0`, and
/// `queued <= resident` always holds.
#[derive(Debug, Clone, Copy)]
struct Entry {
    lpn: u64,
    /// Copies occupying slots (queued or in flight); reads hit on any.
    resident: u32,
    /// Copies still in the FIFO (an in-place update needs one).
    queued: u32,
}

/// FIFO write buffer with in-place update and in-flight accounting.
#[derive(Debug, Clone)]
pub struct WriteBuffer {
    capacity: usize,
    /// Pages accepted but not yet picked for a flush.
    queue: VecDeque<u64>,
    /// The distinct resident LPNs, unordered. Every entry owns at least
    /// one slot, so the table never outgrows the `capacity` entries it
    /// is allocated with; at the 16–256 pages the workspace configures,
    /// a linear scan beats hashing the key.
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
            table: Vec::with_capacity(capacity),
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

    fn position(&self, lpn: u64) -> Option<usize> {
        self.table.iter().position(|e| e.lpn == lpn)
    }

    /// Accepts a host page write. Returns `false` (and changes nothing)
    /// if the buffer is full; returns `true` on acceptance. Re-writing a
    /// page that is still queued updates it in place.
    pub fn push(&mut self, lpn: u64) -> bool {
        let at = self.position(lpn);
        // In-place update only if a queued (not yet in-flight) copy
        // exists; an in-flight copy is already bound to a NAND program,
        // so the re-write needs its own slot.
        if at.is_some_and(|i| self.table[i].queued > 0) {
            return true;
        }
        if !self.has_room(1) {
            return false;
        }
        self.queue.push_back(lpn);
        match at {
            Some(i) => {
                self.table[i].resident += 1;
                self.table[i].queued += 1;
            }
            None => self.table.push(Entry {
                lpn,
                resident: 1,
                queued: 1,
            }),
        }
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
                self.table.swap_remove(i);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;

    /// The buffer as it was before the fixed table — two hash maps keyed
    /// by LPN — kept as the reference the table is compared against.
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

    proptest! {
        /// The fixed table against the two-hash-map buffer it replaced:
        /// random operation sequences over six LPNs (so in-place updates
        /// and re-writes of in-flight copies are frequent) at capacities
        /// 1, 3, 16 and 256. Every return value and every observable
        /// must agree after every step.
        #[test]
        fn fixed_table_matches_the_hash_map_buffer(
            ops in prop::collection::vec((0u8..12, 0u64..6, 0usize..5), 1..400),
        ) {
            for capacity in [1, 3, 16, 256] {
                let mut buffer = WriteBuffer::new(capacity);
                let mut reference = RefBuffer::new(capacity);
                // Batches taken and not yet completed; flushes complete
                // in chip order, not FIFO, so any of them may be next.
                let mut in_flight: Vec<[u64; 3]> = Vec::new();
                for &(op, lpn, n) in &ops {
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
                    for l in 0..6 {
                        prop_assert_eq!(buffer.contains(l), reference.contains(l));
                    }
                    prop_assert_eq!(buffer.capacity(), reference.capacity());
                    prop_assert_eq!(buffer.fill(), reference.fill());
                    prop_assert_eq!(buffer.queued(), reference.queued());
                    prop_assert_eq!(buffer.utilization(), reference.utilization());
                    prop_assert!(buffer.queued_lpns().eq(reference.queued_lpns()));
                    prop_assert!(buffer.table.len() <= capacity);
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
