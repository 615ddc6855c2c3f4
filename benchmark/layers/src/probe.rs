//! Timing wrappers around the public seams that separate the layers:
//! the request iterator, [`FtlDriver`] and [`HostFront`].
//!
//! Each wrapper forwards to the wrapped value and, when it holds a
//! [`Probe`], times the call. A probe keeps one accumulator per seam
//! (calls, total ns) plus a bounded sample of spans (name, start, end,
//! parent); tens of millions of full spans are not wanted. Without a
//! probe a wrapper is a plain pass-through, which is the untraced
//! in-process run the tracing overhead is measured against.
//!
//! One probe serves one shard. A shard is simulated by one thread at a
//! time and changes threads only through a channel, so the probe's
//! atomics have a single writer at any moment: they are plain
//! load-then-store counters, `Relaxed` because the channel hand-off
//! already orders them. The span sample sits behind a mutex that is
//! taken only for sampled calls.

use ssdsim::{
    FrontRequest, FtlDriver, FtlStats, HostContext, HostFront, HostRequest, MaintWork, PageRead,
    WlWrite,
};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use workloads::Workload;

/// A timed call site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Seam {
    /// `Iterator::next` of the request stream (`workloads` or `kvsim`).
    Next,
    WriteWl,
    ReadPage,
    Trim,
    Maint,
    Advance,
    Pop,
    Complete,
}

impl Seam {
    pub const ALL: [Seam; 8] = [
        Seam::Next,
        Seam::WriteWl,
        Seam::ReadPage,
        Seam::Trim,
        Seam::Maint,
        Seam::Advance,
        Seam::Pop,
        Seam::Complete,
    ];

    /// Span name. The stream seam belongs to `kvsim` when the LSM
    /// engine generates the traffic and to `workloads` otherwise.
    pub fn name(self, kv: bool) -> &'static str {
        match self {
            Seam::Next if kv => "kvsim.next",
            Seam::Next => "workloads.next",
            Seam::WriteWl => "ftl.write_wl",
            Seam::ReadPage => "ftl.read_page",
            Seam::Trim => "ftl.trim",
            Seam::Maint => "ftl.maint",
            Seam::Advance => "hostq.advance",
            Seam::Pop => "hostq.pop",
            Seam::Complete => "hostq.complete",
        }
    }

    /// Host-front calls pull from the tenant streams, so a `Next` span
    /// can open inside them.
    fn is_front(self) -> bool {
        matches!(self, Seam::Advance | Seam::Pop | Seam::Complete)
    }
}

/// One sampled call. Parent 0 is the shard's whole run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub seam: Seam,
    pub start: Instant,
    pub ns: u64,
}

/// Every call among the first `SAMPLE_FIRST` is kept, then one in
/// `SAMPLE_EVERY`.
const SAMPLE_FIRST: u64 = 100_000;
const SAMPLE_EVERY: u64 = 256;

/// Per-shard accumulators and span sample.
#[derive(Debug, Default)]
pub struct Probe {
    calls: [AtomicU64; Seam::ALL.len()],
    ns: [AtomicU64; Seam::ALL.len()],
    /// `Next` time spent inside a host-front call (already counted in
    /// that call's own time).
    nested_next_ns: AtomicU64,
    /// Id of the open host-front span; 0 (the run span) outside one.
    open_front: AtomicU64,
    last_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

fn bump(cell: &AtomicU64, by: u64) -> u64 {
    let v = cell.load(Relaxed) + by;
    cell.store(v, Relaxed);
    v
}

impl Probe {
    pub fn new() -> Arc<Self> {
        Arc::default()
    }

    fn time<T>(&self, seam: Seam, call: impl FnOnce() -> T) -> T {
        let id = bump(&self.last_id, 1);
        let parent = self.open_front.load(Relaxed);
        if seam.is_front() {
            self.open_front.store(id, Relaxed);
        }
        let start = Instant::now();
        let out = call();
        let end = Instant::now();
        if seam.is_front() {
            self.open_front.store(parent, Relaxed);
        }
        let ns = (end - start).as_nanos() as u64;
        bump(&self.calls[seam as usize], 1);
        bump(&self.ns[seam as usize], ns);
        if seam == Seam::Next && parent != 0 {
            bump(&self.nested_next_ns, ns);
        }
        if id <= SAMPLE_FIRST || id.is_multiple_of(SAMPLE_EVERY) {
            self.spans
                .lock()
                .expect("no thread panics while sampling a span")
                .push(Span {
                    id,
                    parent,
                    seam,
                    start,
                    ns,
                });
        }
        out
    }

    pub fn calls(&self, seam: Seam) -> u64 {
        self.calls[seam as usize].load(Relaxed)
    }

    /// Total time inside `seam`, children included.
    pub fn ns(&self, seam: Seam) -> u64 {
        self.ns[seam as usize].load(Relaxed)
    }

    pub fn nested_next_ns(&self) -> u64 {
        self.nested_next_ns.load(Relaxed)
    }

    pub fn take_spans(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("sampling has ended"))
    }
}

/// Times every [`FtlDriver`] call that does work.
pub struct TimedFtl<F> {
    pub inner: F,
    probe: Option<Arc<Probe>>,
}

impl<F> TimedFtl<F> {
    pub fn new(inner: F, probe: Option<Arc<Probe>>) -> Self {
        TimedFtl { inner, probe }
    }
}

impl<F: FtlDriver> FtlDriver for TimedFtl<F> {
    fn write_wl(&mut self, chip: usize, lpns: [u64; 3], ctx: &HostContext) -> WlWrite {
        match &self.probe {
            Some(p) => p.time(Seam::WriteWl, || self.inner.write_wl(chip, lpns, ctx)),
            None => self.inner.write_wl(chip, lpns, ctx),
        }
    }

    fn read_page(&mut self, lpn: u64, ctx: &HostContext) -> Option<PageRead> {
        match &self.probe {
            Some(p) => p.time(Seam::ReadPage, || self.inner.read_page(lpn, ctx)),
            None => self.inner.read_page(lpn, ctx),
        }
    }

    fn trim(&mut self, lpn: u64) {
        match &self.probe {
            Some(p) => p.time(Seam::Trim, || self.inner.trim(lpn)),
            None => self.inner.trim(lpn),
        }
    }

    fn maintenance_step(&mut self, chip: usize, ctx: &HostContext) -> Option<MaintWork> {
        match &self.probe {
            Some(p) => p.time(Seam::Maint, || self.inner.maintenance_step(chip, ctx)),
            None => self.inner.maintenance_step(chip, ctx),
        }
    }

    fn stats(&self) -> FtlStats {
        self.inner.stats()
    }

    fn free_blocks(&self) -> u64 {
        self.inner.free_blocks()
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

/// Times `next` of a request stream.
pub struct TimedIter<W> {
    pub inner: W,
    probe: Option<Arc<Probe>>,
}

impl<W> TimedIter<W> {
    pub fn new(inner: W, probe: Option<Arc<Probe>>) -> Self {
        TimedIter { inner, probe }
    }
}

impl<W: Iterator<Item = HostRequest>> Iterator for TimedIter<W> {
    type Item = HostRequest;

    fn next(&mut self) -> Option<HostRequest> {
        match &self.probe {
            Some(p) => p.time(Seam::Next, || self.inner.next()),
            None => self.inner.next(),
        }
    }
}

/// Tenant streams reach the host front as boxed [`Workload`]s.
impl Workload for TimedIter<Box<dyn Workload + Send>> {
    fn label(&self) -> &str {
        self.inner.label()
    }
}

/// Times the [`HostFront`] calls that do work; the two cheap queries
/// (`next_arrival_us`, `exhausted`) pass through and stay in the
/// engine's self time.
pub struct TimedFront<H> {
    pub inner: H,
    probe: Option<Arc<Probe>>,
}

impl<H> TimedFront<H> {
    pub fn new(inner: H, probe: Option<Arc<Probe>>) -> Self {
        TimedFront { inner, probe }
    }
}

impl<H: HostFront> HostFront for TimedFront<H> {
    fn next_arrival_us(&self) -> Option<f64> {
        self.inner.next_arrival_us()
    }

    fn advance(&mut self, now_us: f64) {
        match &self.probe {
            Some(p) => p.time(Seam::Advance, || self.inner.advance(now_us)),
            None => self.inner.advance(now_us),
        }
    }

    fn pop(&mut self, now_us: f64) -> Option<FrontRequest> {
        match &self.probe {
            Some(p) => p.time(Seam::Pop, || self.inner.pop(now_us)),
            None => self.inner.pop(now_us),
        }
    }

    fn complete(&mut self, token: u32, now_us: f64) {
        match &self.probe {
            Some(p) => p.time(Seam::Complete, || self.inner.complete(token, now_us)),
            None => self.inner.complete(token, now_us),
        }
    }

    fn exhausted(&self) -> bool {
        self.inner.exhausted()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssdsim::{SsdConfig, SsdSim, StepOutcome};

    /// Fixed-latency FTL that counts its own calls.
    #[derive(Default)]
    struct StubFtl {
        writes: u64,
        reads: u64,
        trims: u64,
    }

    impl FtlDriver for StubFtl {
        fn write_wl(&mut self, _chip: usize, _lpns: [u64; 3], _ctx: &HostContext) -> WlWrite {
            self.writes += 1;
            WlWrite {
                nand_us: 200.0,
                did_gc: false,
                leader: false,
            }
        }

        fn read_page(&mut self, lpn: u64, _ctx: &HostContext) -> Option<PageRead> {
            self.reads += 1;
            Some(PageRead {
                chip: (lpn % 2) as usize,
                nand_us: 60.0,
                retries: 0,
            })
        }

        fn trim(&mut self, _lpn: u64) {
            self.trims += 1;
        }

        fn stats(&self) -> FtlStats {
            FtlStats::default()
        }

        fn name(&self) -> &str {
            "stubFTL"
        }
    }

    fn mixed(i: u64) -> HostRequest {
        match i % 5 {
            0 => HostRequest::trim_span(i % 64, 2),
            1 | 2 => HostRequest::write(i % 64),
            _ => HostRequest::read(i % 64),
        }
    }

    #[test]
    fn ftl_and_stream_wrappers_count_calls_exactly() {
        let probe = Probe::new();
        let mut ftl = TimedFtl::new(StubFtl::default(), Some(probe.clone()));
        let mut stream = TimedIter::new((0..).map(mixed), Some(probe.clone()));
        let mut sim = SsdSim::new(SsdConfig::small());
        let report = sim.run(&mut ftl, &mut stream, 500);
        assert_eq!(report.completed, 500);
        assert_eq!(probe.calls(Seam::Next), 500);
        assert_eq!(probe.calls(Seam::WriteWl), ftl.inner.writes);
        assert_eq!(probe.calls(Seam::ReadPage), ftl.inner.reads);
        assert_eq!(probe.calls(Seam::Trim), ftl.inner.trims);
        assert!(ftl.inner.writes > 0 && ftl.inner.reads > 0 && ftl.inner.trims > 0);
        assert_eq!(probe.calls(Seam::Maint), 0);
        // Every call so far is within the always-sampled prefix.
        let total: u64 = Seam::ALL.iter().map(|s| probe.calls(*s)).sum();
        let spans = probe.take_spans();
        assert_eq!(spans.len() as u64, total);
        assert!(spans.iter().all(|s| s.parent == 0));
    }

    #[test]
    fn wrappers_without_a_probe_change_nothing() {
        let run = |probe: Option<Arc<Probe>>| {
            let mut ftl = TimedFtl::new(StubFtl::default(), probe.clone());
            let mut stream = TimedIter::new((0..).map(mixed), probe);
            let mut sim = SsdSim::new(SsdConfig::small());
            let r = sim.run(&mut ftl, &mut stream, 300);
            (r.completed, r.sim_time_us.to_bits(), ftl.inner.writes)
        };
        assert_eq!(run(None), run(Some(Probe::new())));
    }

    /// A front that offers `budget` requests, one every 50 µs, from a
    /// timed inner stream, and counts its own calls.
    struct StubFront {
        stream: TimedIter<Box<dyn Workload + Send>>,
        budget: u64,
        arrived: u64,
        queue: std::collections::VecDeque<HostRequest>,
        inflight: u64,
        advances: u64,
        pops: u64,
        completes: u64,
    }

    struct Reads(u64);

    impl Iterator for Reads {
        type Item = HostRequest;
        fn next(&mut self) -> Option<HostRequest> {
            self.0 += 1;
            Some(HostRequest::read(self.0 % 64))
        }
    }

    impl Workload for Reads {
        fn label(&self) -> &str {
            "reads"
        }
    }

    impl HostFront for StubFront {
        fn next_arrival_us(&self) -> Option<f64> {
            (self.arrived < self.budget).then_some(self.arrived as f64 * 50.0)
        }

        fn advance(&mut self, now_us: f64) {
            self.advances += 1;
            while self.next_arrival_us().is_some_and(|t| t <= now_us) {
                self.arrived += 1;
                self.queue.extend(self.stream.next());
            }
        }

        fn pop(&mut self, _now_us: f64) -> Option<FrontRequest> {
            self.pops += 1;
            let req = self.queue.pop_front()?;
            self.inflight += 1;
            Some(FrontRequest { req, token: 0 })
        }

        fn complete(&mut self, _token: u32, _now_us: f64) {
            self.completes += 1;
            self.inflight -= 1;
        }

        fn exhausted(&self) -> bool {
            self.arrived == self.budget && self.queue.is_empty()
        }
    }

    #[test]
    fn front_wrapper_counts_calls_and_parents_the_streams_it_pulls() {
        let probe = Probe::new();
        let front = StubFront {
            stream: TimedIter::new(Box::new(Reads(0)), Some(probe.clone())),
            budget: 200,
            arrived: 0,
            queue: Default::default(),
            inflight: 0,
            advances: 0,
            pops: 0,
            completes: 0,
        };
        let mut front = TimedFront::new(front, Some(probe.clone()));
        let mut ftl = TimedFtl::new(StubFtl::default(), Some(probe.clone()));
        let mut sim = SsdSim::new(SsdConfig::small());
        sim.run_front_begin(u64::MAX);
        while sim.run_step_front(&mut ftl, &mut front, u64::MAX) == StepOutcome::Running {}
        let report = sim.run_front_end(&ftl);
        assert_eq!(report.completed, 200);
        assert_eq!(probe.calls(Seam::Advance), front.inner.advances);
        assert_eq!(probe.calls(Seam::Pop), front.inner.pops);
        assert_eq!(probe.calls(Seam::Complete), front.inner.completes);
        assert_eq!(front.inner.completes, 200);
        assert_eq!(probe.calls(Seam::Next), 200);
        // The stream is only ever pulled from inside `advance`.
        assert_eq!(probe.nested_next_ns(), probe.ns(Seam::Next));
        let spans = probe.take_spans();
        let advance_ids: std::collections::BTreeSet<u64> = spans
            .iter()
            .filter(|s| s.seam == Seam::Advance)
            .map(|s| s.id)
            .collect();
        assert!(spans
            .iter()
            .filter(|s| s.seam == Seam::Next)
            .all(|s| advance_ids.contains(&s.parent)));
        assert!(spans
            .iter()
            .filter(|s| s.seam != Seam::Next)
            .all(|s| s.parent == 0));
    }
}
