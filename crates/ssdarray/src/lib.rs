//! # ssdarray — a sharded multi-device array front-end over `ssdsim`
//!
//! Scales the single-device simulator out to an array of `N`
//! independent shards, the way a host-managed multi-device deployment
//! (or a multi-core simulation campaign) would: each shard is a
//! complete [`SsdSim`] device with its own FTL, chips, and host — any
//! [`HostFront`]: a closed-loop request substream (the trivial front)
//! or an open-loop front-end such as `hostq`'s multi-queue QoS front
//! over the shard's tenant subset — and the engine fans host work out
//! to the shards and folds the results back into one [`ArrayReport`].
//!
//! ## Determinism by construction
//!
//! The core invariant: **the same master seed produces a byte-identical
//! merged report at any thread count**. Two properties make that hold
//! without any cross-thread coordination:
//!
//! * **Fan-out is pre-computed.** Shard seeds, hosts and per-shard
//!   request budgets are all derived before any thread
//!   starts; shards never exchange state while running, so each shard's
//!   result depends only on its own inputs.
//! * **Fan-in is ordered.** Workers report `(shard index, result)`; the
//!   collector stores results in index slots and merges them strictly
//!   in shard order at a sequence point after every shard finished —
//!   never in completion order ([`ArrayReport::merge`]).
//!
//! Thread scheduling then affects wall-clock time only. The engine runs
//! shards in bounded event slices through [`SsdSim::run_step`], whose
//! step boundaries are idempotent, so even the slice budget does not
//! leak into the results.

pub mod parity;
pub mod report;

pub use parity::{page_fingerprint, xor_parity, PageRole, ParityRouter};
pub use report::{ArrayReport, ResilienceReport};

use ssdsim::{
    FtlDriver, HostFront, RebuildOp, RebuildSchedule, SimReport, SpoEvent, SpoTrigger, SsdSim,
    StepOutcome,
};
use std::sync::mpsc;
use std::sync::Mutex;

/// Events simulated per [`SsdSim::run_step`] slice. Purely a scheduling
/// granularity: results are identical for any positive value.
const STEP_EVENTS: u64 = 4096;

/// A background rebuild assignment for one shard: the pacing schedule
/// plus the ordered op list ([`SsdSim::arm_rebuild`]). The engine arms
/// it right after `run_begin` (which resets any previously armed
/// queue), so callers can attach rebuild work to a shard before
/// handing the array to [`SsdArray::run`].
#[derive(Debug, Clone)]
pub struct RebuildPlan {
    /// Unit size / idle-gap pacing for the rebuild service.
    pub sched: RebuildSchedule,
    /// Ordered rebuild ops (survivor reads or spare writes).
    pub ops: Vec<RebuildOp>,
}

/// One shard: a complete simulated device plus its host side.
pub struct ArrayShard<F, H: HostFront> {
    /// The shard's device simulator.
    pub sim: SsdSim,
    /// The shard's FTL.
    pub ftl: F,
    /// The shard's host: a request substream or an open-loop front.
    pub workload: H,
    /// Host requests this shard issues (at most).
    pub requests: u64,
    /// Optional sudden-power-off trigger armed on this shard.
    pub spo: Option<SpoTrigger>,
    /// Optional background rebuild work, armed once at the next run.
    pub rebuild: Option<RebuildPlan>,
}

/// Results of one array run, per shard and merged.
#[derive(Debug, Clone)]
pub struct ArrayRunOutcome {
    /// The merged array-wide report.
    pub report: ArrayReport,
    /// Per-shard reports, indexed by shard.
    pub shard_reports: Vec<SimReport>,
    /// Per-shard SPO events (`None` where no trigger fired), indexed by
    /// shard.
    pub spo_events: Vec<Option<SpoEvent>>,
}

/// The array front-end: owns the shards and the execution engine.
pub struct SsdArray<F, H: HostFront> {
    shards: Vec<ArrayShard<F, H>>,
    threads: usize,
}

impl<F, H> SsdArray<F, H>
where
    F: FtlDriver + Send,
    H: HostFront + Send,
{
    /// An array over `shards`, executed on one worker thread per shard.
    ///
    /// # Panics
    ///
    /// Panics on an empty shard list.
    pub fn new(shards: Vec<ArrayShard<F, H>>) -> Self {
        assert!(!shards.is_empty(), "need at least one shard");
        let threads = shards.len();
        SsdArray { shards, threads }
    }

    /// Caps the worker-thread count (clamped to `1..=shards`). Purely a
    /// resource knob: any count produces the same merged report.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.clamp(1, self.shards.len());
        self
    }

    /// Worker threads the engine will use.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The shards (e.g. to inspect an FTL after a run).
    pub fn shards(&self) -> &[ArrayShard<F, H>] {
        &self.shards
    }

    /// Consumes the array, returning the shards in index order — the
    /// harness uses this to rewrite the shard list at a barrier (crash
    /// recovery, failure redirect) and to drain per-shard host state.
    pub fn into_shards(self) -> Vec<ArrayShard<F, H>> {
        self.shards
    }

    /// Runs every shard to completion (drain or power cut) and merges
    /// the results in shard order.
    ///
    /// Shards are dealt to `threads` workers through a job queue; each
    /// worker simulates its shard in bounded event slices and sends the
    /// finished shard home tagged with its index. The collector waits
    /// for *all* shards (the fan-in barrier), restores them into index
    /// order, and only then merges — so neither the thread count nor
    /// the completion order can reach the report.
    pub fn run(&mut self) -> ArrayRunOutcome {
        let shards = std::mem::take(&mut self.shards);
        let (mut shard_reports, mut spo_events) = (Vec::new(), Vec::new());
        for (shard, (report, spo)) in fan_out(shards, self.threads, run_shard) {
            self.shards.push(shard);
            shard_reports.push(report);
            spo_events.push(spo);
        }
        ArrayRunOutcome {
            report: ArrayReport::merge(&shard_reports),
            shard_reports,
            spo_events,
        }
    }
}

/// The engine's worker pool: deals `shards` to `threads`
/// workers through a job queue, runs `run_one` on each, and returns
/// every shard with its result **in index order**.
///
/// Workers send finished shards home tagged with their index; the
/// collector waits for *all* of them (the fan-in barrier) and restores
/// index order before returning — so neither the thread count nor the
/// completion order can reach a report. One worker needs no pool: the
/// shards run back to back on the caller's thread.
///
/// [`SsdArray::run`] runs its shards here; a front-end may hand it any
/// other per-shard job whose result depends only on the job's own
/// input (the harness builds its devices and host streams this way).
pub fn fan_out<S: Send, R: Send>(
    shards: Vec<S>,
    threads: usize,
    run_one: impl Fn(&mut S) -> R + Sync,
) -> Vec<(S, R)> {
    let n = shards.len();
    let finish = |mut shard: S| {
        let result = run_one(&mut shard);
        (shard, result)
    };
    if threads <= 1 {
        return shards.into_iter().map(finish).collect();
    }

    let (job_tx, job_rx) = mpsc::channel::<(usize, S)>();
    for job in shards.into_iter().enumerate() {
        job_tx.send(job).expect("queue is open");
    }
    drop(job_tx);
    let job_rx = Mutex::new(job_rx);
    let (done_tx, done_rx) = mpsc::channel::<(usize, (S, R))>();

    std::thread::scope(|scope| {
        for _ in 0..threads.min(n) {
            let (job_rx, finish) = (&job_rx, &finish);
            let done_tx = done_tx.clone();
            scope.spawn(move || loop {
                // Hold the lock only for the pop, not the simulation.
                let job = job_rx.lock().expect("queue lock").try_recv();
                let Ok((idx, shard)) = job else { break };
                done_tx.send((idx, finish(shard))).expect("collector");
            });
        }
    });
    drop(done_tx);

    // Fan-in barrier: collect every shard into its index slot.
    let mut slots: Vec<Option<(S, R)>> = (0..n).map(|_| None).collect();
    for (idx, done) in done_rx.iter() {
        debug_assert!(slots[idx].is_none(), "shard {idx} finished twice");
        slots[idx] = Some(done);
    }
    slots
        .into_iter()
        .map(|slot| slot.expect("every shard completes"))
        .collect()
}

/// Simulates one shard to completion in bounded event slices.
fn run_shard<F, H>(shard: &mut ArrayShard<F, H>) -> (SimReport, Option<SpoEvent>)
where
    F: FtlDriver,
    H: HostFront,
{
    shard.sim.run_begin(shard.requests, shard.spo);
    // Arm after run_begin: the reset inside run_begin clears any prior
    // rebuild queue. `take` so a later resume run does not re-arm the
    // same ops (remainders travel via `SsdSim::take_rebuild_pending`).
    if let Some(plan) = shard.rebuild.take() {
        shard.sim.arm_rebuild(plan.sched, plan.ops);
    }
    while shard
        .sim
        .run_step(&mut shard.ftl, &mut shard.workload, STEP_EVENTS)
        == StepOutcome::Running
    {}
    shard.sim.run_end(&shard.ftl)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssdsim::{FrontRequest, HostRequest, SsdConfig};
    use std::collections::VecDeque;

    /// A trivial FTL: fixed-latency reads and writes, enough to exercise
    /// the engine without the full `ftl` crate.
    struct NullFtl {
        stats: ssdsim::FtlStats,
    }

    impl NullFtl {
        fn new() -> Self {
            NullFtl {
                stats: ssdsim::FtlStats::default(),
            }
        }
    }

    impl FtlDriver for NullFtl {
        fn write_wl(
            &mut self,
            _chip: usize,
            _lpns: [u64; 3],
            _ctx: &ssdsim::HostContext,
        ) -> ssdsim::WlWrite {
            self.stats.host_wl_programs += 1;
            ssdsim::WlWrite {
                nand_us: 200.0,
                did_gc: false,
                leader: false,
            }
        }

        fn read_page(&mut self, lpn: u64, _ctx: &ssdsim::HostContext) -> Option<ssdsim::PageRead> {
            self.stats.nand_reads += 1;
            Some(ssdsim::PageRead {
                chip: (lpn % 2) as usize,
                nand_us: 60.0,
                retries: 0,
            })
        }

        fn stats(&self) -> ssdsim::FtlStats {
            self.stats
        }

        fn name(&self) -> &str {
            "nullFTL"
        }
    }

    fn mixed_stream(seed: u64) -> impl Iterator<Item = HostRequest> + Send {
        (0..).map(move |i: u64| {
            let x = i.wrapping_mul(6364136223846793005).wrapping_add(seed);
            if x.is_multiple_of(3) {
                HostRequest::read(x % 512)
            } else {
                HostRequest::write(x % 512)
            }
        })
    }

    fn build(
        shards: usize,
        requests: u64,
        spo: Option<SpoTrigger>,
    ) -> SsdArray<NullFtl, impl Iterator<Item = HostRequest> + Send> {
        SsdArray::new(
            (0..shards)
                .map(|s| ArrayShard {
                    sim: SsdSim::new(SsdConfig::small()),
                    ftl: NullFtl::new(),
                    workload: mixed_stream(s as u64 + 1),
                    requests,
                    spo,
                    rebuild: None,
                })
                .collect(),
        )
    }

    /// An open-loop stub front: one request every `gap_us`, one FIFO.
    struct TimedFront<W> {
        stream: W,
        gap_us: f64,
        arrived: u32,
        budget: u32,
        queue: VecDeque<FrontRequest>,
    }

    impl<W: Iterator<Item = HostRequest>> HostFront for TimedFront<W> {
        fn next_arrival_us(&self) -> Option<f64> {
            (self.arrived < self.budget).then(|| f64::from(self.arrived) * self.gap_us)
        }

        fn advance(&mut self, now_us: f64) {
            while self.next_arrival_us().is_some_and(|t| t <= now_us) {
                let req = self.stream.next().expect("endless stream");
                let token = self.arrived;
                self.queue.push_back(FrontRequest { req, token });
                self.arrived += 1;
            }
        }

        fn pop(&mut self, _now_us: f64) -> Option<FrontRequest> {
            self.queue.pop_front()
        }

        fn complete(&mut self, _token: u32, _now_us: f64) {}

        fn exhausted(&self) -> bool {
            self.arrived == self.budget && self.queue.is_empty()
        }
    }

    /// Either kind of host behind one shard type.
    enum AnyHost<W> {
        Stream(W),
        Front(TimedFront<W>),
    }

    impl<W: Iterator<Item = HostRequest>> HostFront for AnyHost<W> {
        fn next_arrival_us(&self) -> Option<f64> {
            match self {
                AnyHost::Stream(w) => w.next_arrival_us(),
                AnyHost::Front(f) => f.next_arrival_us(),
            }
        }

        fn advance(&mut self, now_us: f64) {
            match self {
                AnyHost::Stream(w) => w.advance(now_us),
                AnyHost::Front(f) => f.advance(now_us),
            }
        }

        fn pop(&mut self, now_us: f64) -> Option<FrontRequest> {
            match self {
                AnyHost::Stream(w) => w.pop(now_us),
                AnyHost::Front(f) => f.pop(now_us),
            }
        }

        fn complete(&mut self, token: u32, now_us: f64) {
            match self {
                AnyHost::Stream(w) => w.complete(token, now_us),
                AnyHost::Front(f) => f.complete(token, now_us),
            }
        }

        fn exhausted(&self) -> bool {
            match self {
                AnyHost::Stream(w) => w.exhausted(),
                AnyHost::Front(f) => f.exhausted(),
            }
        }
    }

    #[test]
    fn pool_returns_jobs_in_index_order_at_any_thread_count() {
        // Job `i` sleeps longest for `i = 0`, so with more than one
        // worker the jobs finish roughly in reverse index order.
        for threads in [1, 2, 3, 8] {
            let out = fan_out((0..5u64).collect(), threads, |job: &mut u64| {
                std::thread::sleep(std::time::Duration::from_millis(10 * (5 - *job)));
                *job += 100;
                *job * 2
            });
            let want: Vec<(u64, u64)> = (0..5).map(|i| (i + 100, (i + 100) * 2)).collect();
            assert_eq!(out, want, "{threads} threads");
        }
    }

    #[test]
    fn two_workers_run_two_jobs_at_once() {
        // Each job waits for the other's message: a pool that ran one
        // job at a time would time out here instead of hanging.
        let (a_tx, a_rx) = mpsc::channel();
        let (b_tx, b_rx) = mpsc::channel();
        let jobs = vec![(0usize, b_tx, a_rx), (1, a_tx, b_rx)];
        let out = fan_out(jobs, 2, |(id, to_other, from_other)| {
            to_other.send(*id).expect("the other job is alive");
            from_other.recv_timeout(std::time::Duration::from_secs(10))
        });
        let heard: Vec<_> = out.into_iter().map(|(_, got)| got).collect();
        assert_eq!(heard, vec![Ok(1), Ok(0)]);
    }

    #[test]
    fn one_worker_runs_every_job_on_the_callers_thread() {
        let caller = std::thread::current().id();
        let out = fan_out(vec![(); 4], 1, |_| std::thread::current().id());
        assert!(out.iter().all(|(_, id)| *id == caller));
    }

    #[test]
    fn array_completes_every_shard_budget() {
        let mut array = build(4, 300, None);
        let out = array.run();
        assert_eq!(out.report.shards, 4);
        assert_eq!(out.report.completed, 4 * 300);
        assert_eq!(out.shard_reports.len(), 4);
        for r in &out.shard_reports {
            assert_eq!(r.completed, 300);
        }
        assert!(out.spo_events.iter().all(Option::is_none));
        // Aggregate IOPS is the sum of shard throughputs.
        let sum: f64 = out.report.per_shard_iops.iter().sum();
        assert!((out.report.iops - sum).abs() < 1e-9);
    }

    #[test]
    fn report_is_identical_at_any_thread_count() {
        let run_at = |threads: usize| {
            let mut array = build(4, 250, None).with_threads(threads);
            format!("{:?}", array.run().report)
        };
        let one = run_at(1);
        assert_eq!(one, run_at(2), "1 vs 2 threads");
        assert_eq!(one, run_at(4), "1 vs 4 threads");
    }

    #[test]
    fn repeated_runs_are_byte_identical() {
        let a = format!("{:?}", build(3, 200, None).run().report);
        let b = format!("{:?}", build(3, 200, None).run().report);
        assert_eq!(a, b);
    }

    #[test]
    fn array_wide_spo_cuts_every_shard_at_one_instant() {
        let cut_us = 40_000.0;
        let out = build(3, 1_000_000, Some(SpoTrigger::AtTimeUs(cut_us))).run();
        for (s, ev) in out.spo_events.iter().enumerate() {
            let ev = ev.as_ref().expect("every shard cut");
            assert!(ev.at_us >= cut_us, "shard {s} cut before the instant");
            assert!(ev.completed < 1_000_000);
        }
    }

    #[test]
    fn merged_counters_match_shard_sums() {
        let mut array = build(2, 400, None);
        let out = array.run();
        let reads: u64 = out.shard_reports.iter().map(|r| r.reads).sum();
        let writes: u64 = out.shard_reports.iter().map(|r| r.writes).sum();
        assert_eq!(out.report.reads, reads);
        assert_eq!(out.report.writes, writes);
        assert_eq!(
            out.report.read_latency.len(),
            out.shard_reports
                .iter()
                .map(|r| r.read_latency.len())
                .sum::<u64>()
        );
    }

    #[test]
    fn mixed_hosts_are_thread_count_invariant() {
        // Even shards run a closed-loop stream, odd shards an open-loop
        // front, through the one engine.
        let run_at = |threads: usize| {
            let shards = (0..4u32)
                .map(|s| {
                    let stream = mixed_stream(u64::from(s) + 1);
                    let workload = if s % 2 == 0 {
                        AnyHost::Stream(stream)
                    } else {
                        AnyHost::Front(TimedFront {
                            stream,
                            gap_us: 40.0 * f64::from(s),
                            arrived: 0,
                            budget: 250,
                            queue: VecDeque::new(),
                        })
                    };
                    ArrayShard {
                        sim: SsdSim::new(SsdConfig::small()),
                        ftl: NullFtl::new(),
                        workload,
                        requests: 250,
                        spo: None,
                        rebuild: None,
                    }
                })
                .collect();
            let out = SsdArray::new(shards).with_threads(threads).run();
            assert_eq!(out.report.completed, 4 * 250);
            format!("{:?}", out.report)
        };
        let one = run_at(1);
        assert_eq!(one, run_at(2), "1 vs 2 threads");
        assert_eq!(one, run_at(4), "1 vs 4 threads");
    }
}
