//! A fixed calibration kernel: how fast is this machine right now?
//!
//! The reference box is shared. Its speed for this kind of code —
//! pointer-chasing through maps and heaps, the simulator's diet —
//! drifts by ±30 % over tens of minutes (user CPU seconds drift with
//! it, so it is not steal time), which is more than any bound a host
//! metric could carry. The kernel below is frozen with the benchmark
//! and independent of the repository's code; it runs between the
//! simulator invocations of a run, and host metrics are scaled by
//! `REFERENCE_S ÷ median kernel time`, i.e. reported as if the machine
//! were in the state it was in when the benchmark was frozen. Raw
//! values are printed beside the scaled ones.
//!
//! Of the kernels tried (float math, random DRAM access, this one),
//! this one tracked the four workloads' wall time best over a
//! 20-minute drift (log-correlation 0.56–0.75); scaling by it cut the
//! spread between groups of runs from 11–17 % to 6–10 % and the shift
//! between the first and second half of the window from 5–14 % to
//! under 6 %.

use std::collections::{BTreeMap, BinaryHeap};
use std::hint::black_box;
use std::time::Instant;

/// Median wall seconds of [`sample`] on the reference box when the
/// benchmark was frozen.
pub const REFERENCE_S: f64 = 0.72;

const ITERATIONS: u64 = 1_500_000;
const KEYS: u64 = 200_000;

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Ordered-map updates and range probes over `KEYS` keys plus a
/// bounded priority queue; returns a checksum of the work.
fn kernel(iterations: u64) -> u64 {
    let mut rng = 7u64;
    let mut map = BTreeMap::new();
    let mut heap = BinaryHeap::new();
    let mut acc = 0u64;
    for i in 0..iterations {
        let k = splitmix64(&mut rng) % KEYS;
        *map.entry(k).or_insert(0u64) += i;
        heap.push((k, i));
        if heap.len() > 64 {
            acc = acc.wrapping_add(heap.pop().expect("heap is not empty").1);
        }
        if let Some((_, v)) = map.range(k / 2..).next() {
            acc ^= *v;
        }
    }
    acc
}

/// Runs the kernel once and returns the wall seconds it took.
pub fn sample() -> f64 {
    let start = Instant::now();
    black_box(kernel(black_box(ITERATIONS)));
    start.elapsed().as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The kernel is frozen: the same work, whatever else changes.
    #[test]
    fn kernel_work_is_pinned() {
        assert_eq!(kernel(10_000), kernel(10_000));
        assert_eq!(kernel(10_000), 49_736_692);
        assert_ne!(kernel(10_000), kernel(10_001));
    }
}
