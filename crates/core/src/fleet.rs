//! The fleet runtime: many concurrent video streams on one shared SoC.
//!
//! The paper schedules **one** stream per SoC. Production deployments
//! (multi-camera drones, roadside units, warehouse fleets) multiplex many
//! streams over the same accelerators, memory pools and power budget — the
//! situation the paper's shared-memory loader (§III-C) only hints at.
//! [`FleetRuntime`] generalizes the single-stream loop:
//!
//! * every stream keeps its **own** [`StreamAgent`] (context detector,
//!   confidence-graph scheduler, momentum, accuracy goal), so per-stream
//!   policy is untouched;
//! * all streams share **one** [`ExecutionEngine`], **one** LRU
//!   [`DynamicModelLoader`] (the eviction set spans every stream) and one
//!   [`OccupancyTracker`] — an accelerator busy until `t` charges the wait to
//!   the next frame scheduled on it;
//! * a [`MemoryArbiter`] pins each stream's current pair so a peer's miss
//!   treats it as an eviction victim of last resort: under memory pressure
//!   the missing stream first *degrades* to its next-best loadable pair,
//!   and only when every candidate is pin-blocked does it evict a pinned
//!   model (which its owner then reloads);
//! * two streams resident on the same (model, accelerator) pair share the
//!   load cost: the second stream finds the model already resident and pays
//!   nothing (cross-stream model reuse).
//!
//! Frame admission is round-robin by default; the [`FleetConfig::fairness`]
//! knob trades strict fairness (admit the most-behind stream) against
//! throughput (admit the stream whose accelerator frees up first).
//!
//! # The per-frame loop
//!
//! [`FleetRuntime::step`] is the only per-frame loop in the crate. A step
//! advances the fault injector to the fleet's tick (an O(1) no-op between
//! scripted edges), picks one stream from the *ready set* — the sorted
//! indices of the streams with a frame pending, so drained and detached
//! streams cost nothing — and runs that frame's three phases in place:
//! admit (decide, re-plan around dropped accelerators, make a pair
//! resident), infer, complete (commit pins, counters, load charges and the
//! occupancy reservation). Only the completion phase commits, so a step that
//! errors can be retried.
//!
//! [`ShiftRuntime`] is a one-slot fleet whose caller supplies each frame:
//! its fault clock is the frame's own index instead of the fleet tick, and
//! it never queues behind itself, so it makes the same decisions at the
//! same costs as a batch fleet of one.
//!
//! [`ShiftRuntime`]: crate::runtime::ShiftRuntime

use crate::characterize::Characterization;
use crate::config::ShiftConfig;
use crate::des::{EventKind, TraceEvent};
use crate::loader::DynamicModelLoader;
use crate::runtime::{FrameOutcome, LoadCharge, ResilienceCounters, StreamAgent};
use crate::scheduler::{CandidatePair, Decision};
use crate::ShiftError;
use serde::{Deserialize, Serialize};
use shift_soc::{
    ExecutionEngine, FaultInjector, FaultPlan, InferenceReport, MemoryArbiter, OccupancyTracker,
    SocError,
};
use shift_video::{Frame, FrameStream, Scenario};

/// Description of one stream joining a fleet: a scenario to play and the
/// SHIFT configuration (including the per-stream accuracy goal) to play it
/// under.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StreamSpec {
    /// Human-readable stream label (used in summaries and tables).
    pub name: String,
    /// The video the stream plays.
    pub scenario: Scenario,
    /// Per-stream SHIFT configuration; `config.accuracy_goal` is the
    /// stream's individual accuracy goal.
    pub config: ShiftConfig,
    /// First scenario frame the stream plays (earlier frames are skipped at
    /// attach). `0` plays the scenario from the top; a live migration resumes
    /// a stream on another node from the frame it had reached.
    pub start_frame: usize,
}

impl StreamSpec {
    /// Creates a stream spec that plays its scenario from the first frame.
    pub fn new(name: impl Into<String>, scenario: Scenario, config: ShiftConfig) -> Self {
        Self {
            name: name.into(),
            scenario,
            config,
            start_frame: 0,
        }
    }

    /// Resumes the scenario at `start_frame` instead of frame 0.
    pub fn with_start_frame(mut self, start_frame: usize) -> Self {
        self.start_frame = start_frame;
        self
    }
}

/// Opaque handle to one stream slot inside a [`FleetRuntime`].
///
/// Handles are minted by [`FleetRuntime::attach_stream`] (or listed by
/// [`FleetRuntime::handles`]) and stay valid for the fleet's lifetime,
/// including after the stream detaches. The [`FleetFrameOutcome::stream`]
/// index of an outcome converts back via [`StreamHandle::from_index`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct StreamHandle(pub(crate) usize);

impl StreamHandle {
    /// The handle's slot index (the value [`FleetFrameOutcome::stream`]
    /// carries).
    pub fn index(self) -> usize {
        self.0
    }

    /// Reconstructs a handle from a slot index (e.g. from
    /// [`FleetFrameOutcome::stream`]). The handle is only meaningful for the
    /// fleet the index came from.
    pub fn from_index(index: usize) -> Self {
        Self(index)
    }
}

/// Read-only view of one stream slot, keyed by [`StreamHandle`].
#[derive(Debug, Clone, Copy)]
pub struct StreamView<'a> {
    state: &'a StreamState,
}

impl<'a> StreamView<'a> {
    /// The stream's label.
    pub fn name(&self) -> &str {
        &self.state.name
    }

    /// The stream's accuracy goal.
    pub fn goal(&self) -> f64 {
        self.state.agent.config().accuracy_goal
    }

    /// The stream's agent (for inspection).
    pub fn agent(&self) -> &'a StreamAgent {
        &self.state.agent
    }

    /// Frames processed so far.
    pub fn frames_processed(&self) -> usize {
        self.state.processed
    }

    /// Total frames in the stream's scenario.
    pub fn total_frames(&self) -> usize {
        self.state.total_frames
    }

    /// Resilience counters (all zero on a healthy run).
    pub fn resilience(&self) -> ResilienceCounters {
        self.state.resilience
    }

    /// Whether the stream was detached before draining its scenario.
    pub fn is_detached(&self) -> bool {
        self.state.detached
    }

    /// Whether the stream has no pending frame (drained or detached). Idle
    /// streams cost nothing per step and hold no admission slot.
    pub fn is_idle(&self) -> bool {
        self.state.next_frame.is_none()
    }

    /// Virtual time at which the stream's last processed frame completed,
    /// seconds (0 before the first frame).
    pub fn clock_s(&self) -> f64 {
        self.state.clock_s
    }
}

/// Fleet-level configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FleetConfig {
    /// Admission-policy knob in `[0, 1]`.
    ///
    /// `1.0` (the default) admits the stream that has processed the fewest
    /// frames — strict round-robin fairness. `0.0` admits the stream whose
    /// target accelerator frees up first — throughput-first, which can
    /// starve streams pinned to congested engines until the others drain.
    /// Intermediate values blend the two rankings.
    pub fairness: f64,
}

impl FleetConfig {
    /// The default fleet configuration: strict round-robin admission.
    pub fn round_robin() -> Self {
        Self { fairness: 1.0 }
    }

    /// Returns a copy with a different fairness knob (clamped to `[0, 1]`).
    pub fn with_fairness(mut self, fairness: f64) -> Self {
        self.fairness = fairness.clamp(0.0, 1.0);
        self
    }
}

impl Default for FleetConfig {
    fn default() -> Self {
        Self::round_robin()
    }
}

/// One processed frame of one stream, with its fleet-level timing.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetFrameOutcome {
    /// Index of the stream within the fleet.
    pub stream: usize,
    /// Virtual time at which the stream submitted the frame, seconds.
    pub submit_time_s: f64,
    /// Cross-stream queueing delay charged to the frame, seconds (also
    /// included in `outcome.latency_s`).
    pub queue_wait_s: f64,
    /// Virtual time at which the frame completed, seconds.
    pub completion_time_s: f64,
    /// The per-frame outcome, identical in shape to the single-stream
    /// runtime's. Its `latency_s` includes the queueing delay.
    pub outcome: FrameOutcome,
}

/// What happened when the fleet tried to make one candidate pair resident.
enum CandidateOutcome {
    /// The pair is resident; execution can proceed with this load charge.
    Acquired((CandidatePair, LoadCharge)),
    /// The pool cannot take the pair without evicting a protected model.
    MemoryBlocked,
    /// The pair is unusable right now (incompatible or offline) — try the
    /// next candidate.
    Skipped,
}

/// Everything the admission phase decides about one frame, carried to the
/// completion phase.
#[derive(Debug, Clone)]
struct AdmittedFrame {
    /// Whether a scripted fault window was active at admission.
    fault_active: bool,
    /// The (possibly re-planned) scheduling decision.
    decision: Decision,
    /// The stream's incumbent pair before this frame.
    old: CandidatePair,
    /// The pair actually acquired (the decision, or a degrade fallback).
    pair: CandidatePair,
    /// Load cost charged while acquiring the pair.
    charge: LoadCharge,
}

/// Per-stream runtime state inside the fleet.
#[derive(Debug, Clone)]
struct StreamState {
    name: String,
    agent: StreamAgent,
    /// The scenario being played; `None` for a slot whose caller supplies
    /// every frame (the single-stream runtime's).
    stream: Option<FrameStream>,
    next_frame: Option<Box<Frame>>,
    /// Virtual time at which the stream's next frame is submitted (the
    /// completion time of its previous frame).
    clock_s: f64,
    processed: usize,
    total_frames: usize,
    resilience: ResilienceCounters,
    /// Whether the stream was detached (its slot is retained for handle
    /// stability, but it never re-enters admission).
    detached: bool,
}

/// Drives N concurrent SHIFT streams against a single shared
/// [`ExecutionEngine`].
///
/// ```
/// use shift_core::prelude::*;
/// use shift_core::fleet::{FleetConfig, FleetRuntime, StreamSpec};
/// use shift_models::{ModelZoo, ResponseModel};
/// use shift_soc::{ExecutionEngine, Platform};
/// use shift_video::{CharacterizationDataset, Scenario};
///
/// let engine = ExecutionEngine::new(
///     Platform::xavier_nx_with_oak(),
///     ModelZoo::standard(),
///     ResponseModel::new(5),
/// );
/// let characterization = characterize(&engine, &CharacterizationDataset::generate(120, 5));
/// let specs = vec![
///     StreamSpec::new("a", Scenario::scenario_3().with_num_frames(10), ShiftConfig::paper_defaults()),
///     StreamSpec::new("b", Scenario::scenario_2().with_num_frames(10), ShiftConfig::paper_defaults()),
/// ];
/// let mut fleet = FleetRuntime::new(engine, &characterization, FleetConfig::round_robin(), specs)?;
/// let outcomes = fleet.run_to_completion()?;
/// assert_eq!(outcomes.len(), 20);
/// # Ok::<(), shift_core::ShiftError>(())
/// ```
#[derive(Debug, Clone)]
pub struct FleetRuntime {
    engine: ExecutionEngine,
    loader: DynamicModelLoader,
    occupancy: OccupancyTracker,
    arbiter: MemoryArbiter,
    streams: Vec<StreamState>,
    config: FleetConfig,
    /// Optional scripted fault injector, advanced to the fleet tick at the
    /// start of every step.
    injector: Option<FaultInjector>,
    /// Frames admitted so far: the fleet-wide discrete clock faults are
    /// keyed on, and the `time` axis of every scheduled session event.
    steps: u64,
    /// Streams with a frame pending, ascending — the admission set. It
    /// always equals the streams whose `next_frame` is `Some`, so drained
    /// or idle streams cost nothing per step (O(active)).
    ready: Vec<usize>,
    /// Per-stream scheduling examinations performed by admission so far —
    /// the step-count hook the O(active) regression test asserts on.
    stream_polls: u64,
    /// Optional event trace (enabled via [`FleetRuntime::enable_event_trace`]).
    trace: Option<Vec<TraceEvent>>,
}

impl FleetRuntime {
    /// Builds a fleet from a shared engine, a shared offline characterization
    /// and one [`StreamSpec`] per stream.
    ///
    /// Each stream's initial pair is pre-loaded (its cost charged to the
    /// stream's first frame); streams whose initial pair is already resident
    /// — because an earlier stream loaded it — pay nothing, the first
    /// instance of cross-stream model reuse.
    ///
    /// # Errors
    ///
    /// Returns [`ShiftError::EmptyFleet`] for an empty spec list, plus the
    /// per-stream construction errors of
    /// [`ShiftRuntime::new`](crate::runtime::ShiftRuntime::new).
    pub fn new(
        engine: ExecutionEngine,
        characterization: &Characterization,
        config: FleetConfig,
        specs: Vec<StreamSpec>,
    ) -> Result<Self, ShiftError> {
        if specs.is_empty() {
            return Err(ShiftError::EmptyFleet);
        }
        let mut fleet = Self::empty(engine, config);
        for spec in specs {
            fleet.attach_stream(characterization, spec)?;
        }
        Ok(fleet)
    }

    /// A fleet with no streams yet — the starting point of the dynamic
    /// session path ([`FleetService`](crate::service::FleetService)), where
    /// streams join via [`FleetRuntime::attach_stream`] instead of at
    /// construction. The batch constructor [`FleetRuntime::new`] keeps
    /// rejecting empty spec lists.
    pub fn empty(engine: ExecutionEngine, config: FleetConfig) -> Self {
        Self {
            engine,
            loader: DynamicModelLoader::new(),
            occupancy: OccupancyTracker::new(),
            arbiter: MemoryArbiter::new(),
            streams: Vec::new(),
            config,
            injector: None,
            steps: 0,
            ready: Vec::new(),
            stream_polls: 0,
            trace: None,
        }
    }

    /// Attaches one stream to the fleet, at construction or mid-run, and
    /// returns its handle.
    ///
    /// The stream's initial pair is pre-loaded with pin protection: it never
    /// steals another stream's pinned model, and if the pool cannot take the
    /// pair alongside the pinned residents the load is deferred to the first
    /// frame's degrade path. A stream attached mid-run enters the virtual
    /// timeline at the fleet's current makespan (0 at construction), so it
    /// cannot retroactively contend with work that already completed.
    ///
    /// # Errors
    ///
    /// The per-stream construction errors of
    /// [`ShiftRuntime::new`](crate::runtime::ShiftRuntime::new), plus
    /// unrecoverable loader failures.
    pub fn attach_stream(
        &mut self,
        characterization: &Characterization,
        spec: StreamSpec,
    ) -> Result<StreamHandle, ShiftError> {
        let mut agent = StreamAgent::new(characterization, spec.config)?;
        match self.preload(&mut agent) {
            Ok(()) | Err(SocError::OutOfMemory { .. }) => {}
            Err(other) => return Err(other.into()),
        }
        let mut stream = spec.scenario.stream();
        // A resumed stream (live migration) starts mid-scenario: discard the
        // frames its previous incarnation already played.
        for _ in 0..spec.start_frame {
            if stream.next().is_none() {
                break;
            }
        }
        let total_frames = spec.scenario.num_frames().saturating_sub(spec.start_frame);
        Ok(self.push_slot(spec.name, agent, Some(stream), total_frames))
    }

    /// Attaches a slot with no scenario of its own: its caller supplies every
    /// frame through [`process_supplied`](Self::process_supplied). This is
    /// the single-stream runtime's one slot. Unlike
    /// [`attach_stream`](Self::attach_stream), an initial pair that cannot
    /// be made resident is an error here, not a deferral.
    pub(crate) fn attach_solo(
        &mut self,
        characterization: &Characterization,
        config: ShiftConfig,
    ) -> Result<StreamHandle, ShiftError> {
        let mut agent = StreamAgent::new(characterization, config)?;
        self.preload(&mut agent)?;
        Ok(self.push_slot(String::new(), agent, None, 0))
    }

    /// Makes `agent`'s initial pair resident without evicting a model a peer
    /// has pinned, and charges the load to the agent's first frame.
    fn preload(&mut self, agent: &mut StreamAgent) -> Result<(), SocError> {
        let initial = agent.current_pair();
        let protected = self.arbiter.pinned_models(initial.accelerator);
        let outcome = self
            .loader
            .ensure_loaded_protected(&mut self.engine, initial, &protected)?;
        agent.charge_pending_load(outcome.load_time_s, outcome.load_energy_j);
        Ok(())
    }

    /// Pins `agent`'s initial pair and appends its slot, entering the ready
    /// set when the stream has a frame pending.
    fn push_slot(
        &mut self,
        name: String,
        agent: StreamAgent,
        mut stream: Option<FrameStream>,
        total_frames: usize,
    ) -> StreamHandle {
        let initial = agent.current_pair();
        self.arbiter.pin(initial.model, initial.accelerator);
        let next_frame = stream.as_mut().and_then(Iterator::next).map(Box::new);
        let index = self.streams.len();
        if next_frame.is_some() {
            // The new slot has the highest index, so the ready set stays
            // sorted.
            self.ready.push(index);
        }
        let clock_s = self.makespan_s();
        self.streams.push(StreamState {
            name,
            agent,
            stream,
            next_frame,
            clock_s,
            processed: 0,
            total_frames,
            resilience: ResilienceCounters::default(),
            detached: false,
        });
        StreamHandle(index)
    }

    /// Charges an out-of-band cost (e.g. a live-migration transfer plus the
    /// model re-warm on the destination node) to the stream behind `handle`.
    /// The cost lands on the stream's next processed frame exactly like a
    /// loader miss: it extends that frame's latency by `time_s` and its
    /// energy by `energy_j`.
    ///
    /// # Panics
    ///
    /// Panics when the handle does not belong to this fleet.
    pub(crate) fn charge_stream_load(&mut self, handle: StreamHandle, time_s: f64, energy_j: f64) {
        self.streams[handle.0]
            .agent
            .charge_pending_load(time_s, energy_j);
    }

    /// Detaches the stream behind `handle`: its pinned pair is released, its
    /// remaining frames are dropped, and it leaves the admission (ready)
    /// set. The slot is retained — the handle stays valid for inspecting the
    /// stream's history — and detaching an already-detached stream is a
    /// no-op. Idle slots cost nothing per step.
    ///
    /// # Panics
    ///
    /// Panics when the handle does not belong to this fleet.
    pub fn detach_stream(&mut self, handle: StreamHandle) {
        let index = handle.0;
        let state = &mut self.streams[index];
        if state.detached {
            return;
        }
        state.detached = true;
        state.next_frame = None;
        let pair = state.agent.current_pair();
        self.arbiter.unpin(pair.model, pair.accelerator);
        if let Ok(slot) = self.ready.binary_search(&index) {
            self.ready.remove(slot);
        }
    }

    /// Attaches a scripted fault plan: the injector is advanced at the start
    /// of every fleet step (keyed on the count of frames admitted so far)
    /// and applies every fault through the shared engine's degradation
    /// surfaces. A zero-fault plan leaves every outcome bit-identical to a
    /// run without one.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.injector = Some(FaultInjector::new(plan));
        self
    }

    /// Per-stream scheduling examinations performed by admission so far.
    ///
    /// Every step examines exactly the ready set, so the counter grows by
    /// the number of streams with a frame pending, never by the number of
    /// slots. It makes that O(active) cost observable to tests without
    /// timing anything.
    pub fn stream_polls(&self) -> u64 {
        self.stream_polls
    }

    /// Starts recording an event trace (three [`TraceEvent`] stamps per
    /// frame). Retrieval via [`FleetRuntime::take_event_trace`].
    pub fn enable_event_trace(&mut self) {
        if self.trace.is_none() {
            self.trace = Some(Vec::new());
        }
    }

    /// Takes the recorded event trace, leaving recording enabled.
    pub fn take_event_trace(&mut self) -> Vec<TraceEvent> {
        match self.trace.as_mut() {
            Some(trace) => std::mem::take(trace),
            None => Vec::new(),
        }
    }

    /// The fault injector, when a plan is attached.
    pub fn fault_injector(&self) -> Option<&FaultInjector> {
        self.injector.as_ref()
    }

    /// Read-only view of the stream behind `handle`.
    ///
    /// # Panics
    ///
    /// Panics when the handle does not belong to this fleet.
    pub fn stream(&self, handle: StreamHandle) -> StreamView<'_> {
        StreamView {
            state: &self.streams[handle.0],
        }
    }

    /// Handles of every stream slot ever attached, in attach order
    /// (detached slots included — their views retain the stream's history).
    pub fn handles(&self) -> Vec<StreamHandle> {
        (0..self.streams.len()).map(StreamHandle).collect()
    }

    /// Number of streams still attached (not detached; drained streams
    /// count until they detach).
    pub fn attached_count(&self) -> usize {
        self.streams.iter().filter(|s| !s.detached).count()
    }

    /// Frames admitted so far — the fleet's discrete clock, the `time` axis
    /// every scheduled event (fault edges, session attach/detach) is keyed
    /// on.
    pub fn ticks(&self) -> u64 {
        self.steps
    }

    /// Advances the discrete clock to `tick` without admitting any frames.
    /// Used by the service loop to fast-forward an idle fleet to its next
    /// scheduled session event; a tick at or behind the current clock is a
    /// no-op.
    pub(crate) fn advance_ticks_to(&mut self, tick: u64) {
        self.steps = self.steps.max(tick);
    }

    /// Number of stream slots in the fleet (attached or detached).
    pub fn stream_count(&self) -> usize {
        self.streams.len()
    }

    /// The shared execution engine (for inspecting telemetry).
    pub fn engine(&self) -> &ExecutionEngine {
        &self.engine
    }

    /// The shared occupancy tracker.
    pub fn occupancy(&self) -> &OccupancyTracker {
        &self.occupancy
    }

    /// The shared memory arbiter.
    pub fn arbiter(&self) -> &MemoryArbiter {
        &self.arbiter
    }

    /// Total frames across all streams (processed + remaining).
    pub fn total_frames(&self) -> usize {
        self.streams.iter().map(|s| s.total_frames).sum()
    }

    /// Whether every stream has drained its scenario.
    pub fn is_done(&self) -> bool {
        self.ready.is_empty()
    }

    /// Virtual completion time of the last frame processed so far (the
    /// fleet's makespan), seconds.
    pub fn makespan_s(&self) -> f64 {
        self.streams.iter().map(|s| s.clock_s).fold(0.0, f64::max)
    }

    /// Admits and processes one frame from one stream. Returns `Ok(None)`
    /// when every stream has finished.
    ///
    /// A step advances the fault injector to the current tick, picks one
    /// stream from the ready set and runs its next frame through the admit →
    /// infer → complete phases. Faults land before admission, so every
    /// stream observes the same platform state a sequential replay would;
    /// this happens even when the fleet is drained. A step that errors puts
    /// the frame back, so a caller that handles the error can keep stepping
    /// (re-advancing the injector to the same tick is idempotent).
    ///
    /// # Errors
    ///
    /// Propagates unrecoverable loading and execution errors; memory
    /// pressure and per-pair incompatibilities are handled by degrading to
    /// the next-best candidate, not reported as errors.
    pub fn step(&mut self) -> Result<Option<FleetFrameOutcome>, ShiftError> {
        self.advance_injector(self.steps);
        // Only the ready set is examined; drained and detached streams cost
        // nothing here.
        self.stream_polls += self.ready.len() as u64;
        let Some(index) = self.select_stream() else {
            return Ok(None);
        };
        let frame = self.streams[index]
            .next_frame
            .take()
            .expect("ready streams have a pending frame");
        let outcome = match self.run_frame(index, &frame) {
            Ok(outcome) => outcome,
            Err(err) => {
                self.streams[index].next_frame = Some(frame);
                return Err(err);
            }
        };
        let state = &mut self.streams[index];
        state.next_frame = state.stream.as_mut().and_then(Iterator::next).map(Box::new);
        if state.next_frame.is_none() {
            let slot = self
                .ready
                .binary_search(&index)
                .expect("admission picks from the ready set");
            self.ready.remove(slot);
        }
        Ok(Some(outcome))
    }

    /// Processes a frame the caller supplies on a slot attached with
    /// [`attach_solo`](Self::attach_solo). The injector advances to the
    /// frame's own index — the single-stream fault clock — and the frame
    /// then runs through the same phases as a [`step`](Self::step)'s.
    pub(crate) fn process_supplied(
        &mut self,
        handle: StreamHandle,
        frame: &Frame,
    ) -> Result<FleetFrameOutcome, ShiftError> {
        self.advance_injector(frame.index as u64);
        self.run_frame(handle.0, frame)
    }

    /// Advances the injector to `tick` (a no-op between scripted edges).
    fn advance_injector(&mut self, tick: u64) {
        if let Some(injector) = self.injector.as_mut() {
            injector.advance(tick, &mut self.engine);
        }
    }

    /// Runs every stream to completion, returning the outcomes in admission
    /// order.
    ///
    /// # Errors
    ///
    /// Propagates the first unrecoverable error.
    pub fn run_to_completion(&mut self) -> Result<Vec<FleetFrameOutcome>, ShiftError> {
        let mut outcomes = Vec::with_capacity(self.total_frames());
        while let Some(outcome) = self.step()? {
            outcomes.push(outcome);
        }
        Ok(outcomes)
    }

    /// Selects the stream to admit next from the ready set: the argmin of
    /// `fairness * lag + (1 - fairness) * wait`, where `lag` ranks streams
    /// by frames processed (fewest first) and `wait` ranks them by the
    /// queueing delay their current accelerator would charge, both
    /// normalized to `[0, 1]` over the ready set. Ties break on the lowest
    /// stream index, keeping admission fully deterministic.
    fn select_stream(&self) -> Option<usize> {
        let candidates = &self.ready;
        if candidates.is_empty() {
            return None;
        }
        let processed: Vec<f64> = candidates
            .iter()
            .map(|&i| self.streams[i].processed as f64)
            .collect();
        let waits: Vec<f64> = candidates
            .iter()
            .map(|&i| {
                let state = &self.streams[i];
                let pair = state.agent.current_pair();
                self.occupancy.queue_delay(pair.accelerator, state.clock_s)
            })
            .collect();
        let normalize = |values: &[f64]| -> Vec<f64> {
            let min = values.iter().copied().fold(f64::INFINITY, f64::min);
            let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let span = max - min;
            values
                .iter()
                .map(|v| {
                    if span <= f64::EPSILON {
                        0.0
                    } else {
                        (v - min) / span
                    }
                })
                .collect()
        };
        let lag = normalize(&processed);
        let wait = normalize(&waits);
        // The field is `pub`, so a struct-literal construction can bypass
        // `with_fairness`'s clamp; clamp again at the point of use.
        let fairness = self.config.fairness.clamp(0.0, 1.0);
        let mut best: Option<(f64, usize)> = None;
        for (slot, &index) in candidates.iter().enumerate() {
            let key = fairness * lag[slot] + (1.0 - fairness) * wait[slot];
            if best.is_none_or(|(k, _)| key < k) {
                best = Some((key, index));
            }
        }
        best.map(|(_, index)| index)
    }

    /// Runs `frame` on stream `index` through the three phases — admit,
    /// infer, complete — and advances the stream's frame count and the fleet
    /// clock. Only the completion phase commits, so an error leaves the
    /// pins, the resilience counters and the stream's pending load charge
    /// as they were.
    fn run_frame(&mut self, index: usize, frame: &Frame) -> Result<FleetFrameOutcome, ShiftError> {
        let admitted = self.admit_frame(index, frame)?;
        let report =
            self.engine
                .run_inference(admitted.pair.model, admitted.pair.accelerator, frame)?;
        let outcome = self.complete_frame(index, admitted, frame, &report);
        self.streams[index].processed += 1;
        self.steps += 1;
        Ok(outcome)
    }

    /// The admission phase: decide (re-planning around dropped
    /// accelerators) and make a pair resident, without mutating pins or
    /// per-stream counters (so an error leaves the fleet retryable).
    fn admit_frame(&mut self, index: usize, frame: &Frame) -> Result<AdmittedFrame, ShiftError> {
        let fault_active = self.injector.as_ref().is_some_and(|i| i.is_fault_active());
        let mut decision = self.streams[index].agent.decide(frame);
        if !self.engine.is_online(decision.pair.accelerator) && decision.scores.is_empty() {
            // The similarity gate kept a pair whose accelerator dropped out:
            // run the full Algorithm 1 pass so the degrade path below has a
            // complete score ranking to walk. A natural re-schedule that
            // picked the offline pair already carries its scores, and
            // re-running the pass would double-push the same predictions
            // into the momentum buffers. The counter only attributes the
            // re-plan to the fault subsystem when the kept pair's own
            // accelerator is fault-dropped (a thermal trip triggers the same
            // survival path but is not injected-fault exposure, even while
            // an unrelated fault window is active).
            let dropped = fault_active
                && self
                    .engine
                    .is_administratively_offline(decision.pair.accelerator);
            decision = self.streams[index].agent.replan(&decision);
            if dropped {
                self.streams[index].resilience.fault_replans += 1;
            }
        }
        let old = self.streams[index].agent.current_pair();
        let (pair, charge) = self.acquire_pair(&decision, old)?;
        Ok(AdmittedFrame {
            fault_active,
            decision,
            old,
            pair,
            charge,
        })
    }

    /// The completion phase: commit the pin move, resilience
    /// counters, load charges, the occupancy reservation and the agent
    /// update. Nothing here can fail, so an error in the earlier phases
    /// leaves the arbiter refcounts and the stream's pending costs untouched
    /// for a retry.
    fn complete_frame(
        &mut self,
        index: usize,
        admitted: AdmittedFrame,
        frame: &Frame,
        report: &InferenceReport,
    ) -> FleetFrameOutcome {
        let AdmittedFrame {
            fault_active,
            decision,
            old,
            pair,
            charge,
        } = admitted;
        if pair != old {
            self.arbiter.unpin(old.model, old.accelerator);
            self.arbiter.pin(pair.model, pair.accelerator);
        }
        if fault_active {
            self.streams[index].resilience.fault_frames += 1;
            if pair != decision.pair && fault_on_decided_pair(&self.engine, decision.pair) {
                self.streams[index].resilience.degraded_frames += 1;
            }
        }
        let (mut load_time, mut load_energy) = self.streams[index].agent.take_pending_load();
        load_time += charge.time_s;
        load_energy += charge.energy_j;
        let swapped = pair != old || charge.swapped;

        // --- Occupancy: the accelerator is busy for the load + inference;
        // any overlap with a peer's reservation is charged as queueing
        // delay. ---
        let submit = self.streams[index].clock_s;
        let reservation =
            self.occupancy
                .reserve(pair.accelerator, submit, load_time + report.latency_s);

        let load = LoadCharge {
            time_s: load_time,
            energy_j: load_energy,
            swapped,
        };
        let outcome = self.streams[index].agent.complete(
            frame,
            pair,
            &decision,
            report,
            load,
            reservation.wait_s,
        );
        let completion = submit + outcome.latency_s;
        self.streams[index].clock_s = completion;
        if let Some(trace) = self.trace.as_mut() {
            // The three virtual stamps reconstruct the latency accounting:
            // completion − arrival is the end-to-end latency, completion −
            // load-complete is exactly the inference kernel's latency.
            let tick = self.steps;
            trace.push(TraceEvent {
                tick,
                kind: EventKind::FrameArrival,
                stream: index,
                at_s: submit,
            });
            trace.push(TraceEvent {
                tick,
                kind: EventKind::LoadComplete,
                stream: index,
                at_s: completion - report.latency_s,
            });
            trace.push(TraceEvent {
                tick,
                kind: EventKind::InferenceComplete,
                stream: index,
                at_s: completion,
            });
        }
        FleetFrameOutcome {
            stream: index,
            submit_time_s: submit,
            queue_wait_s: reservation.wait_s,
            completion_time_s: completion,
            outcome,
        }
    }

    /// The models on `accelerator` this stream must not evict: everything
    /// pinned by a peer. The stream's own pin of its incumbent pair does not
    /// protect it from itself (migrating away releases it), unless a peer
    /// holds a pin on the same pair too.
    fn protected_for(
        &self,
        accelerator: shift_soc::AcceleratorId,
        old: CandidatePair,
    ) -> Vec<shift_models::ModelId> {
        let mut protected = self.arbiter.pinned_models(accelerator);
        if old.accelerator == accelerator && self.arbiter.pin_count(old.model, accelerator) == 1 {
            protected.retain(|&model| model != old.model);
        }
        protected
    }

    /// Makes the decided pair (or, under memory pressure, the best loadable
    /// fallback) resident. Candidates are tried in score order, then the
    /// incumbent pair; as a last resort the best candidate that was blocked
    /// *only by peer pins* is loaded without pin protection, so the stream
    /// degrades a peer rather than stalling forever. Pins are not modified
    /// here — the caller commits the pin move after the frame succeeds.
    fn acquire_pair(
        &mut self,
        decision: &Decision,
        old: CandidatePair,
    ) -> Result<(CandidatePair, LoadCharge), ShiftError> {
        // Fast path: the decided pair loads (or is already resident). The
        // fallback candidate list is only built when this fails.
        let mut pin_blocked: Option<CandidatePair> = None;
        match self.try_candidate(decision.pair, old)? {
            CandidateOutcome::Acquired(result) => return Ok(result),
            CandidateOutcome::MemoryBlocked => pin_blocked = Some(decision.pair),
            CandidateOutcome::Skipped => {}
        }

        // Slow path: the remaining candidates in score order, then the
        // incumbent pair.
        for pair in decision.fallback_candidates(old) {
            match self.try_candidate(pair, old)? {
                CandidateOutcome::Acquired(result) => return Ok(result),
                CandidateOutcome::MemoryBlocked => {
                    pin_blocked.get_or_insert(pair);
                }
                CandidateOutcome::Skipped => {}
            }
        }
        // Every candidate is blocked: evict a peer's model for the best
        // pin-blocked candidate after all (it will reload on that stream's
        // next frame) rather than deadlock. If nothing was blocked by pins —
        // everything failed offline/incompatible — loading the decided pair
        // surfaces the real error.
        let pair = pin_blocked.unwrap_or(decision.pair);
        let outcome = self.loader.ensure_loaded(&mut self.engine, pair)?;
        Ok((
            pair,
            LoadCharge {
                time_s: outcome.load_time_s,
                energy_j: outcome.load_energy_j,
                swapped: outcome.loaded,
            },
        ))
    }

    /// Tries to make one candidate pair resident under pin protection.
    fn try_candidate(
        &mut self,
        pair: CandidatePair,
        old: CandidatePair,
    ) -> Result<CandidateOutcome, ShiftError> {
        // An offline accelerator is unusable even when the model is still
        // resident on it (the loader's already-resident fast path would
        // otherwise hand back a pair the engine then refuses to run).
        if !self.engine.is_online(pair.accelerator) {
            return Ok(CandidateOutcome::Skipped);
        }
        // A model that cannot fit the (possibly squeezed) pool even empty is
        // skipped without touching the pool: `ensure_loaded` would evict
        // every unprotected resident before failing, and no amount of
        // unpinning could help.
        if !can_ever_fit(&self.engine, pair) {
            return Ok(CandidateOutcome::Skipped);
        }
        if pair == old && self.engine.is_loaded(pair.model, pair.accelerator) {
            self.loader.touch(pair);
            return Ok(CandidateOutcome::Acquired((pair, LoadCharge::default())));
        }
        let protected = self.protected_for(pair.accelerator, old);
        match self
            .loader
            .ensure_loaded_protected(&mut self.engine, pair, &protected)
        {
            Ok(outcome) => Ok(CandidateOutcome::Acquired((
                pair,
                LoadCharge {
                    time_s: outcome.load_time_s,
                    energy_j: outcome.load_energy_j,
                    swapped: outcome.loaded,
                },
            ))),
            Err(SocError::OutOfMemory { .. }) => Ok(CandidateOutcome::MemoryBlocked),
            Err(SocError::IncompatiblePair { .. } | SocError::AcceleratorOffline(_)) => {
                Ok(CandidateOutcome::Skipped)
            }
            Err(other) => Err(other.into()),
        }
    }
}

/// Whether the decided pair is unusable because of an injected fault on its
/// *own* resources — a dropped-out (administratively fenced) accelerator or
/// a squeezed pool — as opposed to a coincident thermal trip or peer memory
/// contention, which are not injected-fault exposure. Used to attribute the
/// resilience counters precisely while another, unrelated fault window
/// (e.g. a telemetry glitch) is active.
fn fault_on_decided_pair(engine: &ExecutionEngine, decided: CandidatePair) -> bool {
    engine.is_administratively_offline(decided.accelerator)
        || engine.memory_reservation(decided.accelerator) > 0.0
}

/// Whether `pair`'s model is already resident, or could fit its
/// accelerator's pool even when empty (accounting for any fault-injected
/// reservation). The degrade walk checks this before loading, because the
/// loader's eviction loop would otherwise empty the pool on a doomed
/// candidate before reporting `OutOfMemory`.
fn can_ever_fit(engine: &ExecutionEngine, pair: CandidatePair) -> bool {
    if engine.is_loaded(pair.model, pair.accelerator) {
        return true;
    }
    let Some(spec) = engine.zoo().get(pair.model) else {
        return false;
    };
    engine
        .pool(pair.accelerator)
        .map(|pool| pool.can_ever_fit(spec.load.memory_mb))
        .unwrap_or(false)
}

/// One builder for every runtime the crate offers — batch fleets, the
/// single-stream runtime and the long-running session service — replacing
/// the `FleetRuntime::new(...)` + `with_fault_plan` call chains that used to
/// be hand-assembled at every call site.
///
/// ```
/// use shift_core::prelude::*;
/// use shift_core::fleet::{FleetBuilder, StreamSpec};
/// use shift_models::{ModelZoo, ResponseModel};
/// use shift_soc::{ExecutionEngine, Platform};
/// use shift_video::{CharacterizationDataset, Scenario};
///
/// let engine = ExecutionEngine::new(
///     Platform::xavier_nx_with_oak(),
///     ModelZoo::standard(),
///     ResponseModel::new(5),
/// );
/// let characterization = characterize(&engine, &CharacterizationDataset::generate(120, 5));
/// let mut fleet = FleetBuilder::new(engine, &characterization)
///     .stream(StreamSpec::new(
///         "a",
///         Scenario::scenario_3().with_num_frames(10),
///         ShiftConfig::paper_defaults(),
///     ))
///     .build()?;
/// assert_eq!(fleet.run_to_completion()?.len(), 10);
/// # Ok::<(), shift_core::ShiftError>(())
/// ```
#[derive(Debug, Clone)]
pub struct FleetBuilder<'a> {
    pub(crate) engine: ExecutionEngine,
    pub(crate) characterization: &'a Characterization,
    pub(crate) config: FleetConfig,
    pub(crate) specs: Vec<StreamSpec>,
    pub(crate) fault_plan: Option<FaultPlan>,
}

impl<'a> FleetBuilder<'a> {
    /// Starts a builder over a shared engine and offline characterization.
    pub fn new(engine: ExecutionEngine, characterization: &'a Characterization) -> Self {
        Self {
            engine,
            characterization,
            config: FleetConfig::default(),
            specs: Vec::new(),
            fault_plan: None,
        }
    }

    /// Sets the fleet-level configuration (default: round-robin admission).
    pub fn config(mut self, config: FleetConfig) -> Self {
        self.config = config;
        self
    }

    /// Adds one stream spec.
    pub fn stream(mut self, spec: StreamSpec) -> Self {
        self.specs.push(spec);
        self
    }

    /// Adds a batch of stream specs.
    pub fn streams(mut self, specs: impl IntoIterator<Item = StreamSpec>) -> Self {
        self.specs.extend(specs);
        self
    }

    /// Attaches a scripted fault plan (see
    /// [`FleetRuntime::with_fault_plan`]).
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Builds the batch fleet runtime.
    ///
    /// # Errors
    ///
    /// The errors of [`FleetRuntime::new`], including
    /// [`ShiftError::EmptyFleet`] when no streams were added (the dynamic
    /// path, [`FleetBuilder::build_service`], is the one that may start
    /// empty).
    pub fn build(self) -> Result<FleetRuntime, ShiftError> {
        let mut fleet =
            FleetRuntime::new(self.engine, self.characterization, self.config, self.specs)?;
        if let Some(plan) = self.fault_plan {
            fleet = fleet.with_fault_plan(plan);
        }
        Ok(fleet)
    }

    /// Builds a single-stream [`ShiftRuntime`](crate::runtime::ShiftRuntime)
    /// sharing the builder's engine, characterization and fault plan — the
    /// chaos and hunt harnesses' path. Stream specs added to the builder are
    /// ignored: the single-stream runtime is driven frame-by-frame by its
    /// caller.
    ///
    /// # Errors
    ///
    /// The errors of [`ShiftRuntime::new`](crate::runtime::ShiftRuntime::new).
    pub fn build_solo(
        self,
        config: ShiftConfig,
    ) -> Result<crate::runtime::ShiftRuntime, ShiftError> {
        let runtime =
            crate::runtime::ShiftRuntime::new(self.engine, self.characterization, config)?;
        Ok(match self.fault_plan {
            Some(plan) => runtime.with_fault_plan(plan),
            None => runtime,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::characterize::{characterize, Characterization};
    use crate::runtime::ShiftRuntime;
    use shift_models::{ModelZoo, ResponseModel};
    use shift_soc::{AcceleratorId, Platform};
    use shift_video::CharacterizationDataset;

    fn engine(seed: u64) -> ExecutionEngine {
        ExecutionEngine::new(
            Platform::xavier_nx_with_oak(),
            ModelZoo::standard(),
            ResponseModel::new(seed),
        )
    }

    fn characterization(seed: u64) -> Characterization {
        characterize(&engine(seed), &CharacterizationDataset::generate(160, seed))
    }

    #[test]
    fn a_fleet_of_one_matches_the_single_stream_runtime() {
        let characterization = characterization(11);
        let scenario = Scenario::scenario_2().with_num_frames(60);
        let config = ShiftConfig::paper_defaults();

        let mut shift = ShiftRuntime::new(engine(11), &characterization, config.clone()).unwrap();
        let single = shift.run(scenario.stream()).unwrap();

        let specs = vec![StreamSpec::new("only", scenario, config)];
        let mut fleet = FleetRuntime::new(
            engine(11),
            &characterization,
            FleetConfig::round_robin(),
            specs,
        )
        .unwrap();
        let fleet_outcomes = fleet.run_to_completion().unwrap();

        assert_eq!(fleet_outcomes.len(), single.len());
        for (fleet_frame, single_frame) in fleet_outcomes.iter().zip(single.iter()) {
            assert_eq!(fleet_frame.queue_wait_s, 0.0, "no self-contention");
            assert_eq!(&fleet_frame.outcome, single_frame);
        }
    }

    #[test]
    fn all_streams_run_to_completion() {
        let characterization = characterization(12);
        let specs = vec![
            StreamSpec::new(
                "hard",
                Scenario::scenario_1().with_num_frames(40),
                ShiftConfig::paper_defaults(),
            ),
            StreamSpec::new(
                "easy",
                Scenario::scenario_3().with_num_frames(25),
                ShiftConfig::paper_defaults().with_accuracy_goal(0.35),
            ),
            StreamSpec::new(
                "mid",
                Scenario::scenario_4().with_num_frames(30),
                ShiftConfig::paper_defaults(),
            ),
        ];
        let mut fleet = FleetRuntime::new(
            engine(12),
            &characterization,
            FleetConfig::round_robin(),
            specs,
        )
        .unwrap();
        let outcomes = fleet.run_to_completion().unwrap();
        assert_eq!(outcomes.len(), 95);
        assert!(fleet.is_done());
        let handles = fleet.handles();
        assert_eq!(fleet.stream(handles[0]).frames_processed(), 40);
        assert_eq!(fleet.stream(handles[1]).frames_processed(), 25);
        assert_eq!(fleet.stream(handles[2]).frames_processed(), 30);
        assert_eq!(fleet.stream(handles[1]).name(), "easy");
        assert_eq!(fleet.stream(handles[1]).goal(), 0.35);
        // Per-stream frame indices are contiguous.
        for stream in 0..3 {
            let indices: Vec<usize> = outcomes
                .iter()
                .filter(|o| o.stream == stream)
                .map(|o| o.outcome.frame_index)
                .collect();
            assert_eq!(indices, (0..indices.len()).collect::<Vec<_>>());
        }
    }

    #[test]
    fn round_robin_admission_never_lets_streams_drift_apart() {
        let characterization = characterization(13);
        let specs: Vec<StreamSpec> = (0..3)
            .map(|i| {
                StreamSpec::new(
                    format!("s{i}"),
                    Scenario::scenario_3().with_num_frames(20).with_seed(30 + i),
                    ShiftConfig::paper_defaults(),
                )
            })
            .collect();
        let mut fleet = FleetRuntime::new(
            engine(13),
            &characterization,
            FleetConfig::round_robin(),
            specs,
        )
        .unwrap();
        let mut processed = [0usize; 3];
        while let Some(outcome) = fleet.step().unwrap() {
            processed[outcome.stream] += 1;
            let max = *processed.iter().max().unwrap();
            let min = *processed.iter().min().unwrap();
            assert!(max - min <= 1, "fairness 1.0 must interleave strictly");
        }
    }

    #[test]
    fn contending_streams_pay_queueing_delay_on_a_shared_accelerator() {
        let characterization = characterization(14);
        let config =
            ShiftConfig::paper_defaults().with_allowed_accelerators(vec![AcceleratorId::Gpu]);
        let specs: Vec<StreamSpec> = (0..3)
            .map(|i| {
                StreamSpec::new(
                    format!("gpu-{i}"),
                    Scenario::scenario_1().with_num_frames(25).with_seed(50 + i),
                    config.clone(),
                )
            })
            .collect();
        let mut fleet = FleetRuntime::new(
            engine(14),
            &characterization,
            FleetConfig::round_robin(),
            specs,
        )
        .unwrap();
        let outcomes = fleet.run_to_completion().unwrap();
        let waited = outcomes.iter().filter(|o| o.queue_wait_s > 0.0).count();
        assert!(
            waited > 0,
            "three streams on one GPU must queue at least once"
        );
        for o in &outcomes {
            assert!(o.outcome.latency_s >= o.queue_wait_s);
            assert!((o.completion_time_s - o.submit_time_s - o.outcome.latency_s).abs() < 1e-9);
        }
    }

    #[test]
    fn cross_stream_model_reuse_spares_the_second_stream_the_initial_load() {
        let characterization = characterization(15);
        let config = ShiftConfig::paper_defaults();
        let specs: Vec<StreamSpec> = (0..2)
            .map(|i| {
                StreamSpec::new(
                    format!("twin-{i}"),
                    Scenario::scenario_3().with_num_frames(10).with_seed(70 + i),
                    config.clone(),
                )
            })
            .collect();
        let mut fleet = FleetRuntime::new(
            engine(15),
            &characterization,
            FleetConfig::round_robin(),
            specs,
        )
        .unwrap();
        let outcomes = fleet.run_to_completion().unwrap();
        let first_of = |stream: usize| {
            outcomes
                .iter()
                .find(|o| o.stream == stream && o.outcome.frame_index == 0)
                .unwrap()
        };
        // Stream 0 pays the initial load; stream 1 finds the model resident
        // and pays only inference energy (it may still queue behind stream 0
        // for the accelerator, so energy — not latency — is the signal).
        assert!(
            first_of(0).outcome.energy_j > 2.0 * first_of(1).outcome.energy_j,
            "the twin stream must reuse the resident model for free ({} J vs {} J)",
            first_of(0).outcome.energy_j,
            first_of(1).outcome.energy_j
        );
    }

    #[test]
    fn fleet_runs_are_deterministic() {
        let run = || {
            let characterization = characterization(16);
            let specs = vec![
                StreamSpec::new(
                    "a",
                    Scenario::scenario_2().with_num_frames(30),
                    ShiftConfig::paper_defaults(),
                ),
                StreamSpec::new(
                    "b",
                    Scenario::scenario_5().with_num_frames(30),
                    ShiftConfig::paper_defaults(),
                ),
            ];
            let mut fleet = FleetRuntime::new(
                engine(16),
                &characterization,
                FleetConfig::default().with_fairness(0.5),
                specs,
            )
            .unwrap();
            fleet.run_to_completion().unwrap()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn ready_set_tracks_pending_streams_through_faults_attach_and_detach() {
        let characterization = characterization(21);
        let specs: Vec<StreamSpec> = (0..5)
            .map(|i| {
                StreamSpec::new(
                    format!("s{i}"),
                    Scenario::scenario_1()
                        .with_num_frames(8 + 4 * i)
                        .with_seed(60 + i as u64),
                    ShiftConfig::paper_defaults(),
                )
            })
            .collect();
        let plan = shift_soc::FaultPlan::generate(9, &shift_soc::FaultSpec::mixed(100));
        let mut fleet = FleetBuilder::new(engine(21), &characterization)
            .config(FleetConfig::default().with_fairness(0.6))
            .streams(specs)
            .fault_plan(plan)
            .build()
            .unwrap();
        let pending = |fleet: &FleetRuntime| -> Vec<usize> {
            (0..fleet.streams.len())
                .filter(|&i| fleet.streams[i].next_frame.is_some())
                .collect()
        };
        assert_eq!(fleet.ready, pending(&fleet));
        let mut late = None;
        let detached = StreamHandle::from_index(1);
        for step in 0.. {
            if step == 12 {
                let spec = StreamSpec::new(
                    "late",
                    Scenario::scenario_4().with_num_frames(10).with_seed(77),
                    ShiftConfig::paper_defaults().with_accuracy_goal(0.4),
                );
                late = Some(fleet.attach_stream(&characterization, spec).unwrap());
                assert_eq!(fleet.ready, pending(&fleet));
            }
            if step == 20 {
                fleet.detach_stream(detached);
                assert_eq!(fleet.ready, pending(&fleet));
            }
            let ready = fleet.ready.len() as u64;
            let polls = fleet.stream_polls();
            let outcome = fleet.step().unwrap();
            assert_eq!(
                fleet.stream_polls() - polls,
                ready,
                "step {step} examines exactly the ready set"
            );
            assert_eq!(fleet.ready, pending(&fleet), "after step {step}");
            if outcome.is_none() {
                break;
            }
        }
        assert!(fleet.is_done());
        assert_eq!(fleet.stream(late.unwrap()).frames_processed(), 10);
        assert!(fleet.stream(detached).frames_processed() < 12);
    }

    #[test]
    fn event_trace_stamps_reconstruct_the_latency_accounting() {
        let characterization = characterization(22);
        let specs = vec![
            StreamSpec::new(
                "x",
                Scenario::scenario_2().with_num_frames(12),
                ShiftConfig::paper_defaults(),
            ),
            StreamSpec::new(
                "y",
                Scenario::scenario_5().with_num_frames(12),
                ShiftConfig::paper_defaults(),
            ),
        ];
        let mut fleet = FleetRuntime::new(
            engine(22),
            &characterization,
            FleetConfig::round_robin(),
            specs,
        )
        .unwrap();
        fleet.enable_event_trace();
        let outcomes = fleet.run_to_completion().unwrap();
        let trace = fleet.take_event_trace();
        assert_eq!(trace.len(), 3 * outcomes.len(), "three events per frame");
        for (chunk, outcome) in trace.chunks(3).zip(outcomes.iter()) {
            let [arrival, load, inference] = chunk else {
                panic!()
            };
            assert_eq!(arrival.kind, EventKind::FrameArrival);
            assert_eq!(load.kind, EventKind::LoadComplete);
            assert_eq!(inference.kind, EventKind::InferenceComplete);
            assert!(arrival.tick == load.tick && load.tick == inference.tick);
            assert_eq!(arrival.stream, outcome.stream);
            assert_eq!(arrival.at_s, outcome.submit_time_s);
            assert_eq!(inference.at_s, outcome.completion_time_s);
            // completion − arrival is the end-to-end latency.
            assert!((inference.at_s - arrival.at_s - outcome.outcome.latency_s).abs() < 1e-9);
            assert!(arrival.at_s <= load.at_s && load.at_s <= inference.at_s);
        }
        assert!(fleet.take_event_trace().is_empty(), "take drains the trace");
    }

    #[test]
    fn event_driven_admission_work_is_o_active_not_o_streams() {
        let characterization = characterization(23);
        // 6 streams: four with long scenarios, two that drain after 2 frames.
        let specs: Vec<StreamSpec> = (0..6)
            .map(|i| {
                let frames = if i < 4 { 20 } else { 2 };
                StreamSpec::new(
                    format!("s{i}"),
                    Scenario::scenario_3()
                        .with_num_frames(frames)
                        .with_seed(90 + i),
                    ShiftConfig::paper_defaults(),
                )
            })
            .collect();
        let mut fleet = FleetRuntime::new(
            engine(23),
            &characterization,
            FleetConfig::round_robin(),
            specs,
        )
        .unwrap();
        // Drain the two short streams plus one round of the others.
        let short = [StreamHandle::from_index(4), StreamHandle::from_index(5)];
        while !fleet.is_done()
            && short
                .iter()
                .map(|&h| fleet.stream(h).frames_processed())
                .sum::<usize>()
                < 4
        {
            fleet.step().unwrap();
        }
        // Once streams 4 and 5 are drained, a step examines only the 4
        // active streams, not all 6 slots.
        let before = fleet.stream_polls();
        fleet.step().unwrap();
        assert_eq!(fleet.stream_polls() - before, 4);
    }

    #[test]
    fn empty_fleet_is_rejected() {
        let characterization = characterization(17);
        let err = FleetRuntime::new(
            engine(17),
            &characterization,
            FleetConfig::round_robin(),
            Vec::new(),
        )
        .unwrap_err();
        assert_eq!(err, ShiftError::EmptyFleet);
    }

    #[test]
    fn fairness_knob_is_clamped_and_throughput_mode_still_finishes_everyone() {
        let config = FleetConfig::round_robin().with_fairness(-3.0);
        assert_eq!(config.fairness, 0.0);
        let characterization = characterization(18);
        let specs = vec![
            StreamSpec::new(
                "slow",
                Scenario::scenario_5().with_num_frames(20),
                ShiftConfig::paper_defaults(),
            ),
            StreamSpec::new(
                "fast",
                Scenario::scenario_3().with_num_frames(20),
                ShiftConfig::paper_defaults(),
            ),
        ];
        let mut fleet = FleetRuntime::new(engine(18), &characterization, config, specs).unwrap();
        let outcomes = fleet.run_to_completion().unwrap();
        assert_eq!(outcomes.len(), 40);
        for handle in fleet.handles() {
            assert_eq!(fleet.stream(handle).frames_processed(), 20);
        }
    }

    #[test]
    fn builder_matches_the_hand_assembled_chain() {
        let characterization = characterization(32);
        let specs = || {
            vec![
                StreamSpec::new(
                    "a",
                    Scenario::scenario_1().with_num_frames(20),
                    ShiftConfig::paper_defaults(),
                ),
                StreamSpec::new(
                    "b",
                    Scenario::scenario_3().with_num_frames(15),
                    ShiftConfig::paper_defaults().with_accuracy_goal(0.35),
                ),
            ]
        };
        let plan = shift_soc::FaultPlan::generate(4, &shift_soc::FaultSpec::mixed(35));
        let mut chained = FleetRuntime::new(
            engine(32),
            &characterization,
            FleetConfig::default().with_fairness(0.7),
            specs(),
        )
        .unwrap()
        .with_fault_plan(plan.clone());
        let mut built = FleetBuilder::new(engine(32), &characterization)
            .config(FleetConfig::default().with_fairness(0.7))
            .streams(specs())
            .fault_plan(plan)
            .build()
            .unwrap();
        assert_eq!(
            chained.run_to_completion().unwrap(),
            built.run_to_completion().unwrap()
        );
    }

    #[test]
    fn mid_run_attach_and_detach_keep_the_fleet_consistent() {
        let characterization = characterization(33);
        let mut fleet = FleetBuilder::new(engine(33), &characterization)
            .stream(StreamSpec::new(
                "base",
                Scenario::scenario_3().with_num_frames(12),
                ShiftConfig::paper_defaults(),
            ))
            .build()
            .unwrap();
        for _ in 0..4 {
            fleet.step().unwrap();
        }
        let late = fleet
            .attach_stream(
                &characterization,
                StreamSpec::new(
                    "late",
                    Scenario::scenario_2().with_num_frames(8).with_seed(99),
                    ShiftConfig::paper_defaults().with_accuracy_goal(0.3),
                ),
            )
            .unwrap();
        assert_eq!(fleet.stream_count(), 2);
        assert_eq!(fleet.attached_count(), 2);
        for _ in 0..6 {
            fleet.step().unwrap();
        }
        let late_frames = fleet.stream(late).frames_processed();
        assert!(late_frames > 0, "late stream must get admitted");
        fleet.detach_stream(late);
        assert!(fleet.stream(late).is_detached());
        assert_eq!(fleet.attached_count(), 1);
        // Detaching is idempotent and the remaining stream still drains.
        fleet.detach_stream(late);
        fleet.run_to_completion().unwrap();
        assert!(fleet.is_done());
        assert_eq!(
            fleet.stream(late).frames_processed(),
            late_frames,
            "a detached stream processes nothing further"
        );
        let base = fleet.handles()[0];
        assert_eq!(fleet.stream(base).frames_processed(), 12);
    }
}
