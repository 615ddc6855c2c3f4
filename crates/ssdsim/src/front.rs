//! The host interface: the request source [`SsdSim`](crate::SsdSim)'s
//! one event loop is driven by.
//!
//! A [`HostFront`] models the host side of an NVMe-style interface:
//! requests *arrive* at scheduled instants, wait in submission queues,
//! and a scheduler decides which queued request the device pulls next.
//! The `hostq` crate provides the multi-queue, multi-tenant
//! implementation; this trait keeps `ssdsim` free of any policy.
//!
//! A plain request iterator is the trivial front (the blanket impl
//! below): nothing ever *arrives* — the next request is simply there
//! whenever the device has queue room — so the engine never jumps time
//! for it and the run is the closed loop of §6.1.
//!
//! ## Contract (determinism by construction)
//!
//! * [`HostFront::advance`] must consume **every** arrival at or before
//!   `now_us` (admitting or shedding it), so that a repeated call at an
//!   unchanged time is a no-op — the engine relies on this to keep
//!   `run_step` slice boundaries idempotent.
//! * [`HostFront::next_arrival_us`] must be non-decreasing between
//!   `advance` calls and strictly advance past consumed arrivals.
//! * [`HostFront::pop`] must be work-conserving: it returns a request
//!   whenever any submission queue is non-empty. Returning `None` with
//!   backlogged work would live-lock the engine's arrival loop.
//! * Tokens identify one in-flight request: the engine passes the token
//!   back exactly once via [`HostFront::complete`] when the device
//!   finishes the request, before it pulls new work at that instant.
//! * A power cut ([`SpoTrigger`](crate::SpoTrigger)) stops the engine
//!   between two calls: an `AtTimeUs(t)` cut precedes every device
//!   event *and* every arrival at or past `t`, so no such arrival is
//!   consumed and no completion is delivered after the cut.
//! * Armed rebuild work ([`SsdSim::arm_rebuild`](crate::SsdSim::arm_rebuild))
//!   keeps the run alive past the last arrival; the front only sees
//!   `advance`/`pop` polls that find nothing.

use crate::request::HostRequest;

/// One scheduled dispatch from the front: the request plus an opaque
/// token the engine echoes back on completion.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrontRequest {
    /// The host request to issue.
    pub req: HostRequest,
    /// Opaque per-in-flight-request token (the front's in-flight slot).
    pub token: u32,
}

/// The host side of a run: arrival admission, queueing/scheduling, and
/// completion accounting. See the module docs for the contract.
pub trait HostFront {
    /// The earliest arrival instant not yet consumed by
    /// [`HostFront::advance`], if any arrival remains.
    fn next_arrival_us(&self) -> Option<f64>;

    /// Consumes every arrival at or before `now_us`: each is either
    /// admitted to its submission queue or deterministically shed
    /// (admission control). Idempotent at an unchanged `now_us`.
    fn advance(&mut self, now_us: f64);

    /// Schedules the next admitted request for dispatch at `now_us`.
    /// Must return `Some` whenever any submission queue is non-empty.
    fn pop(&mut self, now_us: f64) -> Option<FrontRequest>;

    /// The device completed the in-flight request identified by `token`
    /// at `now_us`.
    fn complete(&mut self, token: u32, now_us: f64);

    /// Whether the front can never produce another request: all arrival
    /// processes exhausted and every submission queue empty.
    fn exhausted(&self) -> bool;
}

/// The closed-loop stream as the trivial front: no arrival process, no
/// completion accounting, `pop` is `next()`.
impl<I: Iterator<Item = HostRequest> + ?Sized> HostFront for I {
    fn next_arrival_us(&self) -> Option<f64> {
        None
    }

    fn advance(&mut self, _now_us: f64) {}

    fn pop(&mut self, _now_us: f64) -> Option<FrontRequest> {
        self.next().map(|req| FrontRequest { req, token: 0 })
    }

    fn complete(&mut self, _token: u32, _now_us: f64) {}

    /// Conservative: only an iterator that reports an upper bound of
    /// zero is known to be spent (the engine never asks).
    fn exhausted(&self) -> bool {
        self.size_hint().1 == Some(0)
    }
}
