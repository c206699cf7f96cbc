//! Per-accelerator occupancy tracking for multi-stream (fleet) execution.
//!
//! The single-stream runtime never contends with itself: each frame is
//! submitted only after the previous one completed, so an accelerator is
//! always idle when asked for. Once many streams share one SoC that is no
//! longer true — two streams scheduled onto the same engine must serialize,
//! and the second one waits. [`OccupancyTracker`] models exactly that: each
//! accelerator is busy until some virtual time `t`, and a frame submitted at
//! `now < t` is charged `t - now` of queueing delay before its own work
//! starts.
//!
//! The tracker is deliberately independent of [`ExecutionEngine`]: the engine
//! stays a pure cost model (latency/energy of an operation), while occupancy
//! is a property of *how* a fleet interleaves operations on it.
//!
//! [`ExecutionEngine`]: crate::ExecutionEngine

use crate::accelerator::AcceleratorId;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// The outcome of reserving an accelerator for one unit of work.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Reservation {
    /// Virtual time at which the work actually starts (>= the submit time).
    pub start_s: f64,
    /// Queueing delay charged to the work: `start_s - submit_s`.
    pub wait_s: f64,
    /// Virtual time at which the accelerator becomes free again.
    pub busy_until_s: f64,
}

/// Tracks, per accelerator, the virtual time until which it is busy.
///
/// ```
/// use shift_soc::{AcceleratorId, OccupancyTracker};
///
/// let mut occupancy = OccupancyTracker::new();
/// // First frame at t=0 on a free GPU: no wait, busy for 0.1 s.
/// let first = occupancy.reserve(AcceleratorId::Gpu, 0.0, 0.1);
/// assert_eq!(first.wait_s, 0.0);
/// // Second frame submitted at t=0.05 while the GPU is still busy: waits.
/// let second = occupancy.reserve(AcceleratorId::Gpu, 0.05, 0.1);
/// assert!((second.wait_s - 0.05).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct OccupancyTracker {
    busy_until: BTreeMap<AcceleratorId, f64>,
}

impl OccupancyTracker {
    /// Creates a tracker with every accelerator idle.
    pub fn new() -> Self {
        Self::default()
    }

    /// Virtual time until which `accelerator` is busy (0 when never used).
    pub fn busy_until(&self, accelerator: AcceleratorId) -> f64 {
        self.busy_until.get(&accelerator).copied().unwrap_or(0.0)
    }

    /// Queueing delay a work item submitted at `now_s` on `accelerator`
    /// would experience, without reserving anything.
    pub fn queue_delay(&self, accelerator: AcceleratorId, now_s: f64) -> f64 {
        (self.busy_until(accelerator) - now_s).max(0.0)
    }

    /// Reserves `accelerator` for `busy_s` seconds of work submitted at
    /// `now_s`. The work starts when the accelerator frees up (or
    /// immediately, if idle) and the accelerator is busy until the work
    /// completes.
    pub fn reserve(&mut self, accelerator: AcceleratorId, now_s: f64, busy_s: f64) -> Reservation {
        let busy_s = busy_s.max(0.0);
        let start = self.busy_until(accelerator).max(now_s);
        let busy_until = start + busy_s;
        self.busy_until.insert(accelerator, busy_until);
        Reservation {
            start_s: start,
            wait_s: start - now_s,
            busy_until_s: busy_until,
        }
    }

    /// Virtual completion time `busy_s` seconds of work submitted at `now_s`
    /// on `accelerator` *would* finish at, without reserving anything — the
    /// admission-control projection behind [`OccupancyTracker::reserve`]:
    /// `projected_finish_s(a, now, b) == reserve(a, now, b).busy_until_s`
    /// for the same state.
    pub fn projected_finish_s(&self, accelerator: AcceleratorId, now_s: f64, busy_s: f64) -> f64 {
        self.busy_until(accelerator).max(now_s) + busy_s.max(0.0)
    }

    /// The latest `busy_until` across all accelerators — the makespan of
    /// everything reserved so far.
    pub fn makespan_s(&self) -> f64 {
        self.busy_until.values().copied().fold(0.0, f64::max)
    }

    /// Clears all reservations.
    pub fn reset(&mut self) {
        self.busy_until.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_accelerator_starts_immediately() {
        let mut occupancy = OccupancyTracker::new();
        let r = occupancy.reserve(AcceleratorId::Dla0, 1.0, 0.5);
        assert_eq!(r.start_s, 1.0);
        assert_eq!(r.wait_s, 0.0);
        assert_eq!(r.busy_until_s, 1.5);
    }

    #[test]
    fn busy_accelerator_charges_waiting_time() {
        let mut occupancy = OccupancyTracker::new();
        occupancy.reserve(AcceleratorId::Gpu, 0.0, 1.0);
        let r = occupancy.reserve(AcceleratorId::Gpu, 0.25, 0.5);
        assert!((r.wait_s - 0.75).abs() < 1e-12);
        assert!((r.start_s - 1.0).abs() < 1e-12);
        assert!((r.busy_until_s - 1.5).abs() < 1e-12);
    }

    #[test]
    fn accelerators_are_independent() {
        let mut occupancy = OccupancyTracker::new();
        occupancy.reserve(AcceleratorId::Gpu, 0.0, 5.0);
        let r = occupancy.reserve(AcceleratorId::Dla1, 0.0, 0.1);
        assert_eq!(r.wait_s, 0.0);
        assert_eq!(occupancy.queue_delay(AcceleratorId::Gpu, 1.0), 4.0);
        assert_eq!(occupancy.queue_delay(AcceleratorId::Dla1, 1.0), 0.0);
    }

    #[test]
    fn late_submission_to_an_idle_accelerator_does_not_wait() {
        let mut occupancy = OccupancyTracker::new();
        occupancy.reserve(AcceleratorId::Gpu, 0.0, 0.2);
        let r = occupancy.reserve(AcceleratorId::Gpu, 10.0, 0.2);
        assert_eq!(r.wait_s, 0.0);
        assert_eq!(r.start_s, 10.0);
    }

    #[test]
    fn makespan_and_reset() {
        let mut occupancy = OccupancyTracker::new();
        occupancy.reserve(AcceleratorId::Gpu, 0.0, 2.0);
        occupancy.reserve(AcceleratorId::OakD, 0.0, 3.0);
        assert_eq!(occupancy.makespan_s(), 3.0);
        occupancy.reset();
        assert_eq!(occupancy.makespan_s(), 0.0);
        assert_eq!(occupancy.busy_until(AcceleratorId::Gpu), 0.0);
    }

    #[test]
    fn projected_finish_matches_an_actual_reservation() {
        let mut occupancy = OccupancyTracker::new();
        occupancy.reserve(AcceleratorId::Gpu, 0.0, 1.0);
        let projected = occupancy.projected_finish_s(AcceleratorId::Gpu, 0.25, 0.5);
        let reserved = occupancy.reserve(AcceleratorId::Gpu, 0.25, 0.5);
        assert_eq!(projected, reserved.busy_until_s);
        // Idle accelerator, late submission: starts at the submit time.
        assert_eq!(
            occupancy.projected_finish_s(AcceleratorId::Dla0, 4.0, 0.5),
            4.5
        );
        // The projection never mutates: repeating it gives the same answer.
        assert_eq!(
            occupancy.projected_finish_s(AcceleratorId::Dla0, 4.0, 0.5),
            occupancy.projected_finish_s(AcceleratorId::Dla0, 4.0, 0.5)
        );
    }

    #[test]
    fn negative_busy_time_is_clamped() {
        let mut occupancy = OccupancyTracker::new();
        let r = occupancy.reserve(AcceleratorId::Gpu, 1.0, -5.0);
        assert_eq!(r.busy_until_s, 1.0);
        assert_eq!(r.wait_s, 0.0);
    }
}
