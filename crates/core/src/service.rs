//! Fleet-as-a-service: a long-running session layer over the fleet runtime.
//!
//! [`FleetRuntime`] is a batch job: it takes a fixed stream set at
//! construction and runs to completion. Production serving is the opposite
//! shape — client sessions attach and detach at arbitrary times against a
//! runtime that never stops. [`FleetService`] provides that shape as a
//! deterministic request/response protocol (no real sockets): typed
//! [`SessionRequest`] messages in, typed [`SessionEvent`] messages out, with
//! attach/detach scheduled as first-class discrete events
//! ([`EventKind::SessionAttach`] / [`EventKind::SessionDetach`]) on the same
//! tick clock the fleet's fault injector advances on.
//!
//! # SLO-aware admission
//!
//! A session attaches with a scenario, an accuracy goal and a
//! [`DeadlineClass`]. Before any stream state is created, admission runs a
//! *projection* — pure reads of the shared occupancy tracker, memory
//! arbiter and offline characterization:
//!
//! 1. **Feasibility** — can any (model, accelerator) pair meet the goal at
//!    all (the same check [`StreamAgent::new`] performs)?
//! 2. **Memory** — does the goal's initial pair fit its pool alongside the
//!    models other sessions have pinned
//!    ([`MemoryArbiter::pinned_demand_mb`](shift_soc::MemoryArbiter::pinned_demand_mb))?
//! 3. **Occupancy** — under round-robin interleaving, a frame of this
//!    session serializes behind one frame of every active peer on the same
//!    accelerator; the projected per-frame latency must fit the deadline
//!    class's budget.
//!
//! A goal that fails is retried down a degrade ladder
//! ([`ServicePolicy::degrade_step`] at a time, down to
//! [`ServicePolicy::degrade_floor`]): the service *offers back* the lower
//! goal rather than thrash the shared loader. When even the floor fails,
//! overload shedding plans an eviction set of the lowest-priority
//! already-degraded sessions and commits it only if the higher-priority
//! request then fits — no session is shed for an arrival that bounces
//! anyway; only then is the request rejected.
//!
//! # Determinism
//!
//! The service adds no clocks and no randomness: requests are processed
//! either immediately ([`FleetService::submit`]) or at a scheduled discrete
//! tick ([`FleetService::schedule`]), and all admission projections are pure
//! functions of current state. A fixed-set service run — every session
//! attached up front, none detached — is **bit-identical** to
//! [`FleetRuntime::run_to_completion`] on the same specs, at any artifact
//! worker count (locked by golden tests).
//!
//! [`EventKind::SessionAttach`]: crate::des::EventKind::SessionAttach
//! [`EventKind::SessionDetach`]: crate::des::EventKind::SessionDetach

use crate::characterize::Characterization;
use crate::config::ShiftConfig;
use crate::des::{EventKind, EventQueue};
use crate::fleet::{FleetBuilder, FleetFrameOutcome, FleetRuntime, StreamHandle, StreamSpec};
use crate::runtime::StreamAgent;
use crate::ShiftError;
use serde::{Deserialize, Serialize};
use shift_video::Scenario;

/// Opaque identity of one session, minted by the service at attach-request
/// time (admitted or not) and never reused.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct SessionId(u64);

impl SessionId {
    /// The raw identity value (1-based, in request order).
    pub fn value(self) -> u64 {
        self.0
    }

    /// Reconstructs an identity from its raw value — for replaying recorded
    /// traces, where the ids a deterministic run will mint are known in
    /// advance. An id the service never minted is answered with
    /// [`SessionEvent::UnknownSession`].
    pub fn from_value(value: u64) -> Self {
        Self(value)
    }
}

impl std::fmt::Display for SessionId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "session-{}", self.0)
    }
}

/// Latency service class a session attaches under: how much projected
/// per-frame latency admission may accept on its behalf, and how much the
/// session is worth when overload shedding looks for victims.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DeadlineClass {
    /// Tight per-frame latency budget, highest shedding priority.
    Interactive,
    /// Moderate latency budget (the default for pre-admitted batch specs).
    Standard,
    /// No latency budget — admitted whenever a pair fits memory — and the
    /// first to be shed under overload.
    Batch,
}

impl DeadlineClass {
    /// Shedding priority: higher keeps its slot longer.
    pub const fn priority(self) -> u8 {
        match self {
            DeadlineClass::Interactive => 2,
            DeadlineClass::Standard => 1,
            DeadlineClass::Batch => 0,
        }
    }

    /// Stable lowercase label (used in session CSV rows).
    pub const fn label(self) -> &'static str {
        match self {
            DeadlineClass::Interactive => "interactive",
            DeadlineClass::Standard => "standard",
            DeadlineClass::Batch => "batch",
        }
    }
}

/// Why an attach request was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RejectReason {
    /// No (model, accelerator) pair can meet any goal on the ladder.
    InfeasibleGoal,
    /// Every ladder goal's initial pair is memory-blocked by pinned peers.
    MemoryExhausted,
    /// The projected per-frame latency exceeds the deadline class's budget
    /// at every ladder goal.
    Saturated,
}

impl RejectReason {
    /// Stable lowercase label (used in session CSV rows).
    pub const fn label(self) -> &'static str {
        match self {
            RejectReason::InfeasibleGoal => "infeasible_goal",
            RejectReason::MemoryExhausted => "memory_exhausted",
            RejectReason::Saturated => "saturated",
        }
    }
}

/// An attach request: the scenario a would-be session wants played, under
/// which configuration (its `accuracy_goal` is the requested goal) and
/// deadline class.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AttachRequest {
    /// Human-readable session label (also the stream label on admission).
    pub name: String,
    /// The video the session wants played.
    pub scenario: Scenario,
    /// Per-session SHIFT configuration; `config.accuracy_goal` is the
    /// *requested* goal (admission may offer a degraded one back).
    pub config: ShiftConfig,
    /// The session's latency service class.
    pub deadline: DeadlineClass,
    /// First scenario frame the session plays (`0` from the top). A live
    /// migration re-attaches a session on another node resuming from the
    /// frame it had reached.
    pub start_frame: usize,
}

impl AttachRequest {
    /// Creates an attach request that plays its scenario from the first
    /// frame.
    pub fn new(
        name: impl Into<String>,
        scenario: Scenario,
        config: ShiftConfig,
        deadline: DeadlineClass,
    ) -> Self {
        Self {
            name: name.into(),
            scenario,
            config,
            deadline,
            start_frame: 0,
        }
    }

    /// Resumes the scenario at `start_frame` instead of frame 0.
    pub fn with_start_frame(mut self, start_frame: usize) -> Self {
        self.start_frame = start_frame;
        self
    }
}

/// The service's request protocol.
///
/// `Attach` carries the full request inline (a few hundred bytes, dominated
/// by the scenario): requests are control-plane values minted a handful of
/// times per run, so the size skew never touches a per-frame path and boxing
/// would only complicate every construction site.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SessionRequest {
    /// Attach a new session (admission-controlled).
    Attach(AttachRequest),
    /// Detach a session; its remaining frames are dropped.
    Detach(SessionId),
    /// Query a session's status.
    Query(SessionId),
}

/// The service's response protocol: one event per processed request, plus
/// [`SessionEvent::Shed`] events for sessions evicted by overload shedding.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SessionEvent {
    /// The session was admitted. `admitted_goal < requested_goal` means the
    /// service degraded the goal to fit current load (the degrade offer).
    Admitted {
        /// The minted session identity.
        session: SessionId,
        /// The goal the request asked for.
        requested_goal: f64,
        /// The goal the session actually runs at.
        admitted_goal: f64,
    },
    /// The session was rejected; no stream state was created.
    Rejected {
        /// The minted session identity (kept for the lifecycle record).
        session: SessionId,
        /// The request's label.
        name: String,
        /// Why admission failed.
        reason: RejectReason,
    },
    /// The session detached on request.
    Detached {
        /// The detached session.
        session: SessionId,
        /// Frames it processed over its lifetime.
        frames: usize,
    },
    /// The session was evicted by overload shedding on behalf of a
    /// higher-priority attach request.
    Shed {
        /// The evicted session.
        session: SessionId,
        /// Its label.
        name: String,
    },
    /// A query response.
    Status {
        /// The queried session.
        session: SessionId,
        /// Its label.
        name: String,
        /// Frames processed so far.
        frames: usize,
        /// The goal it runs at (the admitted, possibly degraded, goal).
        admitted_goal: f64,
        /// Whether it is still attached.
        attached: bool,
    },
    /// The request named a session this service never admitted (or one
    /// already gone).
    UnknownSession {
        /// The unknown identity.
        session: SessionId,
    },
}

/// Admission-control policy knobs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ServicePolicy {
    /// Lowest accuracy goal the degrade ladder offers (requests below it
    /// are probed at their own goal only).
    pub degrade_floor: f64,
    /// Ladder step size between probed goals.
    pub degrade_step: f64,
    /// Whether overload shedding may evict degraded lower-priority sessions
    /// to admit a higher-priority request. Evictions commit only when they
    /// actually let the request in.
    pub shed_to_admit: bool,
    /// Projected per-frame latency budget of [`DeadlineClass::Interactive`],
    /// seconds.
    pub interactive_budget_s: f64,
    /// Projected per-frame latency budget of [`DeadlineClass::Standard`],
    /// seconds ([`DeadlineClass::Batch`] is unbounded).
    pub standard_budget_s: f64,
}

impl ServicePolicy {
    /// The default policy: a 0.15 floor walked in 0.05 steps, shedding
    /// enabled, 50 ms interactive and 250 ms standard budgets.
    pub fn defaults() -> Self {
        Self {
            degrade_floor: 0.15,
            degrade_step: 0.05,
            shed_to_admit: true,
            interactive_budget_s: 0.05,
            standard_budget_s: 0.25,
        }
    }

    /// Returns a copy with different latency budgets.
    pub fn with_budgets(mut self, interactive_s: f64, standard_s: f64) -> Self {
        self.interactive_budget_s = interactive_s;
        self.standard_budget_s = standard_s;
        self
    }

    /// Returns a copy with a different degrade ladder.
    pub fn with_degrade_ladder(mut self, floor: f64, step: f64) -> Self {
        self.degrade_floor = floor;
        self.degrade_step = step;
        self
    }

    /// Returns a copy with overload shedding enabled or disabled.
    pub fn with_shedding(mut self, shed_to_admit: bool) -> Self {
        self.shed_to_admit = shed_to_admit;
        self
    }

    /// The projected-latency budget of `class`, seconds.
    pub fn budget_s(&self, class: DeadlineClass) -> f64 {
        match class {
            DeadlineClass::Interactive => self.interactive_budget_s,
            DeadlineClass::Standard => self.standard_budget_s,
            DeadlineClass::Batch => f64::INFINITY,
        }
    }
}

impl Default for ServicePolicy {
    fn default() -> Self {
        Self::defaults()
    }
}

/// Snapshot of one session's lifecycle, for metrics and artifacts.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionRecord {
    /// The session's identity.
    pub session: SessionId,
    /// Its label.
    pub name: String,
    /// Its deadline class.
    pub deadline: DeadlineClass,
    /// The goal the request asked for.
    pub requested_goal: f64,
    /// The goal admission granted (equal to `requested_goal` unless
    /// degraded; meaningless when rejected).
    pub admitted_goal: f64,
    /// `None` when admitted; `Some(reason)` when rejected.
    pub rejected: Option<RejectReason>,
    /// Tick the attach request was scheduled for (or submitted at).
    pub requested_tick: u64,
    /// Tick admission decided at; `decided_tick - requested_tick` is the
    /// admission latency in ticks.
    pub decided_tick: u64,
    /// Tick the session detached (by request or shedding), when it has.
    pub detached_tick: Option<u64>,
    /// Whether the session was evicted by overload shedding.
    pub shed: bool,
    /// Frames processed so far (final count once detached).
    pub frames: usize,
}

impl SessionRecord {
    /// Whether the session runs (or ran) at a degraded goal.
    pub fn degraded(&self) -> bool {
        self.rejected.is_none() && self.admitted_goal < self.requested_goal - 1e-12
    }

    /// Frames spent degraded — the session's time-in-degrade on the
    /// discrete clock (all of its frames, since the goal is fixed at
    /// admission).
    pub fn degraded_frames(&self) -> usize {
        if self.degraded() {
            self.frames
        } else {
            0
        }
    }
}

/// Internal per-session state.
#[derive(Debug, Clone)]
struct SessionState {
    id: SessionId,
    name: String,
    deadline: DeadlineClass,
    requested_goal: f64,
    admitted_goal: f64,
    handle: Option<StreamHandle>,
    rejected: Option<RejectReason>,
    requested_tick: u64,
    decided_tick: u64,
    detached_tick: Option<u64>,
    shed: bool,
}

impl SessionState {
    fn is_attached(&self) -> bool {
        self.handle.is_some() && self.detached_tick.is_none()
    }
}

/// A scheduled session operation (the payload of the service's own event
/// queue).
///
/// Same inline-`Attach` trade-off as [`SessionRequest`]: ops are minted once
/// per request, never per frame.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
enum SessionOp {
    Attach(AttachRequest),
    Detach(SessionId),
    Query(SessionId),
}

/// What one ladder rung's projection concluded.
enum Probe {
    Pass,
    NoPairs,
    Memory,
    Saturated,
}

/// The long-running session service over a [`FleetRuntime`].
///
/// Built via [`FleetBuilder::build_service`]; specs already on the builder
/// are *pre-admitted* at tick 0 (the batch-compat path — admission control
/// guards only the dynamic door), so a fixed-set service run is
/// bit-identical to the batch runtime on the same specs.
///
/// ```
/// use shift_core::prelude::*;
/// use shift_core::fleet::FleetBuilder;
/// use shift_core::service::{AttachRequest, DeadlineClass, ServicePolicy, SessionEvent, SessionRequest};
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
/// let mut service = FleetBuilder::new(engine, &characterization)
///     .build_service(ServicePolicy::defaults())?;
/// let event = service.submit(SessionRequest::Attach(AttachRequest::new(
///     "cam-0",
///     Scenario::scenario_3().with_num_frames(8),
///     ShiftConfig::paper_defaults().with_accuracy_goal(0.3),
///     DeadlineClass::Standard,
/// )));
/// assert!(matches!(event, SessionEvent::Admitted { .. }));
/// let outcomes = service.run_until_idle()?;
/// assert_eq!(outcomes.len(), 8);
/// # Ok::<(), shift_core::ShiftError>(())
/// ```
#[derive(Debug, Clone)]
pub struct FleetService {
    fleet: FleetRuntime,
    characterization: Characterization,
    policy: ServicePolicy,
    /// Scheduled attach/detach/query operations, keyed on the fleet's
    /// discrete clock with the session event ranks (detach before attach at
    /// the same tick).
    ops: EventQueue<SessionOp>,
    sessions: Vec<SessionState>,
    /// Tick-stamped protocol events, in emission order.
    log: Vec<(u64, SessionEvent)>,
}

impl FleetService {
    /// Builds a service from a builder's parts (used by
    /// [`FleetBuilder::build_service`]).
    pub(crate) fn from_builder(
        builder: FleetBuilder<'_>,
        policy: ServicePolicy,
    ) -> Result<Self, ShiftError> {
        let FleetBuilder {
            engine,
            characterization,
            config,
            specs,
            fault_plan,
        } = builder;
        let mut fleet = FleetRuntime::empty(engine, config);
        if let Some(plan) = fault_plan {
            fleet = fleet.with_fault_plan(plan);
        }
        let mut service = Self {
            fleet,
            characterization: characterization.clone(),
            policy,
            ops: EventQueue::new(),
            sessions: Vec::new(),
            log: Vec::new(),
        };
        for spec in specs {
            service.attach_preadmitted(spec)?;
        }
        Ok(service)
    }

    /// Attaches one spec without admission control (the batch-compat path:
    /// builder specs are pre-validated workloads, and bypassing the
    /// projection keeps the fixed-set run bit-identical to the batch
    /// runtime).
    fn attach_preadmitted(&mut self, spec: StreamSpec) -> Result<(), ShiftError> {
        let goal = spec.config.accuracy_goal;
        let name = spec.name.clone();
        let handle = self.fleet.attach_stream(&self.characterization, spec)?;
        let id = self.mint_id();
        self.sessions.push(SessionState {
            id,
            name,
            deadline: DeadlineClass::Standard,
            requested_goal: goal,
            admitted_goal: goal,
            handle: Some(handle),
            rejected: None,
            requested_tick: 0,
            decided_tick: 0,
            detached_tick: None,
            shed: false,
        });
        self.log.push((
            0,
            SessionEvent::Admitted {
                session: id,
                requested_goal: goal,
                admitted_goal: goal,
            },
        ));
        Ok(())
    }

    fn mint_id(&self) -> SessionId {
        SessionId(self.sessions.len() as u64 + 1)
    }

    fn session_index(&self, id: SessionId) -> Option<usize> {
        let index = id.0.checked_sub(1)? as usize;
        (index < self.sessions.len()).then_some(index)
    }

    /// The current discrete tick (frames admitted so far).
    pub fn ticks(&self) -> u64 {
        self.fleet.ticks()
    }

    /// The underlying fleet (for inspecting shared state: engine telemetry,
    /// occupancy, arbiter, stream views).
    pub fn fleet(&self) -> &FleetRuntime {
        &self.fleet
    }

    /// The admission policy.
    pub fn policy(&self) -> &ServicePolicy {
        &self.policy
    }

    /// Sessions currently attached (admitted and not yet detached or shed).
    pub fn active_sessions(&self) -> usize {
        self.sessions.iter().filter(|s| s.is_attached()).count()
    }

    /// The stream handle behind an admitted, still-attached session.
    pub fn stream_of(&self, id: SessionId) -> Option<StreamHandle> {
        let state = &self.sessions[self.session_index(id)?];
        state.is_attached().then(|| state.handle.expect("attached"))
    }

    /// Lifecycle snapshot of every session ever requested, in request
    /// order (the per-session metrics surface).
    pub fn sessions(&self) -> Vec<SessionRecord> {
        self.sessions
            .iter()
            .map(|s| SessionRecord {
                session: s.id,
                name: s.name.clone(),
                deadline: s.deadline,
                requested_goal: s.requested_goal,
                admitted_goal: s.admitted_goal,
                rejected: s.rejected,
                requested_tick: s.requested_tick,
                decided_tick: s.decided_tick,
                detached_tick: s.detached_tick,
                shed: s.shed,
                frames: s
                    .handle
                    .map(|h| self.fleet.stream(h).frames_processed())
                    .unwrap_or(0),
            })
            .collect()
    }

    /// Takes the tick-stamped protocol event log accumulated so far.
    pub fn drain_events(&mut self) -> Vec<(u64, SessionEvent)> {
        std::mem::take(&mut self.log)
    }

    /// Charges an out-of-band cost (a live-migration transfer plus the model
    /// re-warm on the destination node) to an attached session's stream; the
    /// cost lands on the stream's next processed frame exactly like a loader
    /// miss. Returns `false` (and charges nothing) when the session is not
    /// attached.
    pub(crate) fn charge_session_load(
        &mut self,
        id: SessionId,
        time_s: f64,
        energy_j: f64,
    ) -> bool {
        let Some(handle) = self.stream_of(id) else {
            return false;
        };
        self.fleet.charge_stream_load(handle, time_s, energy_j);
        true
    }

    /// Processes one request immediately, at the current tick, and returns
    /// its response event (which is also appended to the event log).
    pub fn submit(&mut self, request: SessionRequest) -> SessionEvent {
        let tick = self.fleet.ticks();
        self.process_request(tick, request)
    }

    /// Schedules a request for a future tick (frames-admitted clock).
    /// Detaches rank before attaches at the same tick — a departing
    /// session's capacity is visible to the same tick's admission checks —
    /// and queries rank with attaches. Response events land in the event
    /// log when the tick arrives.
    pub fn schedule(&mut self, tick: u64, request: SessionRequest) {
        let (kind, op) = match request {
            SessionRequest::Attach(req) => (EventKind::SessionAttach, SessionOp::Attach(req)),
            SessionRequest::Detach(id) => (EventKind::SessionDetach, SessionOp::Detach(id)),
            SessionRequest::Query(id) => (EventKind::SessionAttach, SessionOp::Query(id)),
        };
        self.ops.schedule(tick, kind, 0, op);
    }

    /// Pops and processes every scheduled operation due at or before the
    /// current tick, in the event queue's total order.
    fn process_due_ops(&mut self) {
        let tick = self.fleet.ticks();
        while self.ops.peek().is_some_and(|key| key.time <= tick) {
            let event = self.ops.pop().expect("peeked");
            let request = match event.payload {
                SessionOp::Attach(req) => SessionRequest::Attach(req),
                SessionOp::Detach(id) => SessionRequest::Detach(id),
                SessionOp::Query(id) => SessionRequest::Query(id),
            };
            self.process_request(tick, request);
        }
    }

    /// Advances the service by one frame: due session operations are
    /// processed first, then the fleet steps. When the fleet is idle but
    /// operations are scheduled for future ticks, the clock fast-forwards
    /// to the next one (the classic next-event jump). Returns `Ok(None)`
    /// only when the fleet is drained *and* no operations remain.
    ///
    /// # Errors
    ///
    /// Propagates the fleet's unrecoverable errors.
    pub fn step(&mut self) -> Result<Option<FleetFrameOutcome>, ShiftError> {
        loop {
            self.process_due_ops();
            if let Some(outcome) = self.fleet.step()? {
                return Ok(Some(outcome));
            }
            let Some(next) = self.ops.peek().map(|key| key.time) else {
                return Ok(None);
            };
            self.fleet.advance_ticks_to(next);
        }
    }

    /// Runs until the fleet is drained and no scheduled operations remain,
    /// returning every frame outcome in admission order.
    ///
    /// # Errors
    ///
    /// Propagates the first unrecoverable error.
    pub fn run_until_idle(&mut self) -> Result<Vec<FleetFrameOutcome>, ShiftError> {
        let mut outcomes = Vec::new();
        while let Some(outcome) = self.step()? {
            outcomes.push(outcome);
        }
        Ok(outcomes)
    }

    /// Dispatches one request at `tick`, logging and returning its response.
    fn process_request(&mut self, tick: u64, request: SessionRequest) -> SessionEvent {
        let event = match request {
            SessionRequest::Attach(req) => self.process_attach(tick, req),
            SessionRequest::Detach(id) => self.process_detach(tick, id),
            SessionRequest::Query(id) => self.process_query(id),
        };
        self.log.push((tick, event.clone()));
        event
    }

    fn process_attach(&mut self, tick: u64, req: AttachRequest) -> SessionEvent {
        let requested_goal = req.config.accuracy_goal;
        let decision = self.admit(tick, &req);
        let id = self.mint_id();
        match decision {
            Ok(goal) => {
                let spec = StreamSpec::new(
                    req.name.clone(),
                    req.scenario,
                    req.config.with_accuracy_goal(goal),
                )
                .with_start_frame(req.start_frame);
                match self.fleet.attach_stream(&self.characterization, spec) {
                    Ok(handle) => {
                        self.sessions.push(SessionState {
                            id,
                            name: req.name,
                            deadline: req.deadline,
                            requested_goal,
                            admitted_goal: goal,
                            handle: Some(handle),
                            rejected: None,
                            requested_tick: tick,
                            decided_tick: tick,
                            detached_tick: None,
                            shed: false,
                        });
                        SessionEvent::Admitted {
                            session: id,
                            requested_goal,
                            admitted_goal: goal,
                        }
                    }
                    // The projection said yes but construction failed (e.g.
                    // a fault window dropped the accelerator between probe
                    // and attach): surface it as a rejection, not a panic.
                    Err(_) => self.record_rejection(
                        id,
                        req.name,
                        req.deadline,
                        requested_goal,
                        tick,
                        RejectReason::InfeasibleGoal,
                    ),
                }
            }
            Err(reason) => {
                self.record_rejection(id, req.name, req.deadline, requested_goal, tick, reason)
            }
        }
    }

    fn record_rejection(
        &mut self,
        id: SessionId,
        name: String,
        deadline: DeadlineClass,
        requested_goal: f64,
        tick: u64,
        reason: RejectReason,
    ) -> SessionEvent {
        self.sessions.push(SessionState {
            id,
            name: name.clone(),
            deadline,
            requested_goal,
            admitted_goal: requested_goal,
            handle: None,
            rejected: Some(reason),
            requested_tick: tick,
            decided_tick: tick,
            detached_tick: None,
            shed: false,
        });
        SessionEvent::Rejected {
            session: id,
            name,
            reason,
        }
    }

    fn process_detach(&mut self, tick: u64, id: SessionId) -> SessionEvent {
        let Some(index) = self.session_index(id) else {
            return SessionEvent::UnknownSession { session: id };
        };
        if !self.sessions[index].is_attached() {
            return SessionEvent::UnknownSession { session: id };
        }
        let handle = self.sessions[index].handle.expect("attached");
        self.fleet.detach_stream(handle);
        self.sessions[index].detached_tick = Some(tick);
        SessionEvent::Detached {
            session: id,
            frames: self.fleet.stream(handle).frames_processed(),
        }
    }

    fn process_query(&self, id: SessionId) -> SessionEvent {
        let Some(index) = self.session_index(id) else {
            return SessionEvent::UnknownSession { session: id };
        };
        let state = &self.sessions[index];
        let Some(handle) = state.handle else {
            return SessionEvent::UnknownSession { session: id };
        };
        SessionEvent::Status {
            session: id,
            name: state.name.clone(),
            frames: self.fleet.stream(handle).frames_processed(),
            admitted_goal: state.admitted_goal,
            attached: state.is_attached(),
        }
    }

    /// Admission: walk the degrade ladder; on failure, plan an eviction set
    /// of degraded lower-priority sessions (when shedding is allowed) and
    /// commit it only if the ladder then passes — no session is shed for an
    /// arrival that bounces anyway. Returns the admitted goal or the final
    /// rejection reason.
    fn admit(&mut self, tick: u64, req: &AttachRequest) -> Result<f64, RejectReason> {
        match self.probe_ladder(req, &[]) {
            Ok(goal) => Ok(goal),
            Err(reason) => {
                // Shedding cannot help a goal no pair can ever meet.
                if !self.policy.shed_to_admit || reason == RejectReason::InfeasibleGoal {
                    return Err(reason);
                }
                // Grow the planned eviction set victim by victim, probing
                // each time as if the set were already gone; the sheds are
                // real only once a probe passes.
                let mut planned: Vec<usize> = Vec::new();
                loop {
                    let Some(victim) = self.pick_shed_victim(req.deadline, &planned) else {
                        return Err(reason);
                    };
                    planned.push(victim);
                    if let Ok(goal) = self.probe_ladder(req, &planned) {
                        for index in planned {
                            self.shed(tick, index);
                        }
                        return Ok(goal);
                    }
                }
            }
        }
    }

    /// Probes the goal ladder from the requested goal down to the floor,
    /// returning the first goal whose projection passes. `excluded` session
    /// indices are treated as already evicted (the planned shed set).
    fn probe_ladder(&self, req: &AttachRequest, excluded: &[usize]) -> Result<f64, RejectReason> {
        let requested = req.config.accuracy_goal;
        let floor = self.policy.degrade_floor.min(requested);
        let step = self.policy.degrade_step.max(1e-6);
        let mut blocked = RejectReason::InfeasibleGoal;
        let mut rung = 0u32;
        loop {
            let goal = requested - step * f64::from(rung);
            if goal < floor - 1e-9 {
                return Err(blocked);
            }
            match self.probe_goal(req, goal, excluded) {
                Probe::Pass => return Ok(goal),
                Probe::NoPairs => {}
                Probe::Memory => blocked = RejectReason::MemoryExhausted,
                Probe::Saturated => blocked = RejectReason::Saturated,
            }
            rung += 1;
        }
    }

    /// One ladder rung: pure projection of feasibility, memory and
    /// occupancy for a session admitted at `goal`, with the `excluded`
    /// sessions treated as already evicted. Mutates nothing.
    fn probe_goal(&self, req: &AttachRequest, goal: f64, excluded: &[usize]) -> Probe {
        let config = req.config.clone().with_accuracy_goal(goal);
        let Ok(agent) = StreamAgent::new(&self.characterization, config) else {
            return Probe::NoPairs;
        };
        // Deliverability: some allowed pair's characterized accuracy must
        // reach the goal, else this rung has nothing honest to offer and the
        // ladder keeps walking down.
        let best_iou = agent
            .scheduler()
            .candidate_pairs()
            .iter()
            .filter_map(|p| self.characterization.traits_of(p.model))
            .map(|t| t.mean_iou)
            .fold(f64::NEG_INFINITY, f64::max);
        if best_iou + 1e-9 < goal {
            return Probe::NoPairs;
        }
        let pair = agent.current_pair();
        let Some(traits) = self.characterization.traits_of(pair.model) else {
            return Probe::NoPairs;
        };
        let excluded_handles: Vec<StreamHandle> = excluded
            .iter()
            .filter_map(|&index| self.sessions[index].handle)
            .collect();
        // Memory projection: the initial pair must fit its pool alongside
        // what active sessions have pinned. (The runtime could still admit
        // by degrading a peer — exactly the loader thrash admission control
        // exists to refuse.)
        let Ok(pool) = self.fleet.engine().pool(pair.accelerator) else {
            return Probe::NoPairs;
        };
        let pinned_mb = self
            .fleet
            .arbiter()
            .pinned_demand_mb(pair.accelerator, |model| {
                self.characterization.traits_of(model).map(|t| t.memory_mb)
            });
        // Credit the models a planned eviction would release: a victim's
        // current model frees its footprint unless a surviving active
        // stream runs the same pair.
        let mut freed = Vec::new();
        for &victim in &excluded_handles {
            let victim_pair = self.fleet.stream(victim).agent().current_pair();
            if victim_pair.accelerator != pair.accelerator || freed.contains(&victim_pair.model) {
                continue;
            }
            let retained = self.fleet.handles().into_iter().any(|other| {
                other != victim && !excluded_handles.contains(&other) && {
                    let view = self.fleet.stream(other);
                    !view.is_idle() && view.agent().current_pair() == victim_pair
                }
            });
            if !retained {
                freed.push(victim_pair.model);
            }
        }
        let freed_mb: f64 = freed
            .iter()
            .filter_map(|&model| self.characterization.traits_of(model))
            .map(|t| t.memory_mb)
            .sum();
        if pinned_mb - freed_mb + traits.memory_mb > pool.effective_capacity_mb() + 1e-9 {
            return Probe::Memory;
        }
        // Occupancy projection: under round-robin admission, each of this
        // session's frames serializes behind one frame of every active peer
        // on the same accelerator.
        let Some(own) = traits.stats_on(pair.accelerator) else {
            return Probe::NoPairs;
        };
        let mut projected_s = own.mean_latency_s;
        for handle in self.fleet.handles() {
            if excluded_handles.contains(&handle) {
                continue;
            }
            let view = self.fleet.stream(handle);
            if view.is_idle() {
                continue;
            }
            let peer = view.agent().current_pair();
            if peer.accelerator != pair.accelerator {
                continue;
            }
            if let Some(stats) = self
                .characterization
                .traits_of(peer.model)
                .and_then(|t| t.stats_on(peer.accelerator))
            {
                projected_s += stats.mean_latency_s;
            }
        }
        if projected_s > self.policy.budget_s(req.deadline) {
            return Probe::Saturated;
        }
        Probe::Pass
    }

    /// The next shedding victim for an incoming request of `incoming`
    /// class: among attached, non-idle, *degraded* sessions of strictly
    /// lower priority not already in the `planned` eviction set, the
    /// lowest-priority one, oldest first. `None` when no session qualifies.
    fn pick_shed_victim(&self, incoming: DeadlineClass, planned: &[usize]) -> Option<usize> {
        let mut best: Option<(u8, u64, usize)> = None;
        for (index, state) in self.sessions.iter().enumerate() {
            if !state.is_attached() || planned.contains(&index) {
                continue;
            }
            let handle = state.handle.expect("attached");
            if self.fleet.stream(handle).is_idle() {
                continue;
            }
            if state.admitted_goal >= state.requested_goal - 1e-12 {
                continue;
            }
            if state.deadline.priority() >= incoming.priority() {
                continue;
            }
            let key = (state.deadline.priority(), state.id.0, index);
            if best.is_none_or(|b| key < b) {
                best = Some(key);
            }
        }
        best.map(|(_, _, index)| index)
    }

    /// Evicts session `index` on behalf of overload shedding.
    fn shed(&mut self, tick: u64, index: usize) {
        let handle = self.sessions[index].handle.expect("attached");
        self.fleet.detach_stream(handle);
        self.sessions[index].detached_tick = Some(tick);
        self.sessions[index].shed = true;
        let event = SessionEvent::Shed {
            session: self.sessions[index].id,
            name: self.sessions[index].name.clone(),
        };
        self.log.push((tick, event));
    }
}

impl FleetBuilder<'_> {
    /// Builds the long-running session service. Specs already on the
    /// builder are pre-admitted at tick 0 (the batch-compat path); the
    /// builder may also start empty — sessions then arrive only through
    /// [`FleetService::submit`] / [`FleetService::schedule`].
    ///
    /// # Errors
    ///
    /// Propagates stream-construction errors of the pre-admitted specs.
    pub fn build_service(self, policy: ServicePolicy) -> Result<FleetService, ShiftError> {
        FleetService::from_builder(self, policy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::characterize::characterize;
    use crate::fleet::{FleetConfig, FleetRuntime};
    use shift_models::{ModelZoo, ResponseModel};
    use shift_soc::{AcceleratorId, ExecutionEngine, Platform};
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

    fn specs() -> Vec<StreamSpec> {
        vec![
            StreamSpec::new(
                "a",
                Scenario::scenario_1().with_num_frames(24),
                ShiftConfig::paper_defaults(),
            ),
            StreamSpec::new(
                "b",
                Scenario::scenario_3().with_num_frames(18),
                ShiftConfig::paper_defaults().with_accuracy_goal(0.35),
            ),
            StreamSpec::new(
                "c",
                Scenario::scenario_4().with_num_frames(21),
                ShiftConfig::paper_defaults(),
            ),
        ]
    }

    #[test]
    fn fixed_set_service_is_bit_identical_to_the_batch_runtime() {
        let characterization = characterization(41);
        let mut batch = FleetRuntime::new(
            engine(41),
            &characterization,
            FleetConfig::round_robin(),
            specs(),
        )
        .unwrap();
        let batch_outcomes = batch.run_to_completion().unwrap();

        let mut service = FleetBuilder::new(engine(41), &characterization)
            .streams(specs())
            .build_service(ServicePolicy::defaults())
            .unwrap();
        let service_outcomes = service.run_until_idle().unwrap();

        assert_eq!(service_outcomes, batch_outcomes);
        assert_eq!(
            format!("{:?}", service_outcomes).into_bytes(),
            format!("{:?}", batch_outcomes).into_bytes(),
            "byte-identical debug serialization"
        );
        assert_eq!(service.fleet().makespan_s(), batch.makespan_s());
    }

    #[test]
    fn fixed_set_service_under_faults_matches_the_batch_runtime() {
        let characterization = characterization(42);
        let plan = shift_soc::FaultPlan::generate(7, &shift_soc::FaultSpec::mixed(60));
        let mut batch = FleetRuntime::new(
            engine(42),
            &characterization,
            FleetConfig::round_robin(),
            specs(),
        )
        .unwrap()
        .with_fault_plan(plan.clone());
        let batch_outcomes = batch.run_to_completion().unwrap();
        let mut service = FleetBuilder::new(engine(42), &characterization)
            .streams(specs())
            .fault_plan(plan)
            .build_service(ServicePolicy::defaults())
            .unwrap();
        assert_eq!(service.run_until_idle().unwrap(), batch_outcomes);
    }

    #[test]
    fn dynamic_attach_is_admitted_and_processes_frames() {
        let characterization = characterization(43);
        let mut service = FleetBuilder::new(engine(43), &characterization)
            .build_service(ServicePolicy::defaults())
            .unwrap();
        let event = service.submit(SessionRequest::Attach(AttachRequest::new(
            "cam",
            Scenario::scenario_3().with_num_frames(10),
            ShiftConfig::paper_defaults().with_accuracy_goal(0.3),
            DeadlineClass::Standard,
        )));
        let SessionEvent::Admitted {
            session,
            requested_goal,
            admitted_goal,
        } = event
        else {
            panic!("expected admission, got {event:?}");
        };
        assert_eq!(requested_goal, 0.3);
        assert_eq!(admitted_goal, 0.3);
        assert_eq!(service.active_sessions(), 1);
        let outcomes = service.run_until_idle().unwrap();
        assert_eq!(outcomes.len(), 10);
        let status = service.submit(SessionRequest::Query(session));
        let SessionEvent::Status {
            frames, attached, ..
        } = status
        else {
            panic!("expected status, got {status:?}");
        };
        assert_eq!(frames, 10);
        assert!(attached, "drained but not detached");
    }

    #[test]
    fn detach_drops_remaining_frames_and_unknown_sessions_are_reported() {
        let characterization = characterization(44);
        let mut service = FleetBuilder::new(engine(44), &characterization)
            .stream(StreamSpec::new(
                "s",
                Scenario::scenario_3().with_num_frames(30),
                ShiftConfig::paper_defaults(),
            ))
            .build_service(ServicePolicy::defaults())
            .unwrap();
        let session = SessionId(1);
        for _ in 0..5 {
            service.step().unwrap();
        }
        let event = service.submit(SessionRequest::Detach(session));
        assert_eq!(event, SessionEvent::Detached { session, frames: 5 });
        assert_eq!(service.run_until_idle().unwrap().len(), 0);
        // Double-detach and unknown ids answer UnknownSession.
        assert_eq!(
            service.submit(SessionRequest::Detach(session)),
            SessionEvent::UnknownSession { session }
        );
        let ghost = SessionId(99);
        assert_eq!(
            service.submit(SessionRequest::Query(ghost)),
            SessionEvent::UnknownSession { session: ghost }
        );
        let records = service.sessions();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].frames, 5);
        assert_eq!(records[0].detached_tick, Some(5));
        assert!(!records[0].shed);
    }

    #[test]
    fn saturated_accelerator_degrades_then_rejects() {
        let characterization = characterization(45);
        // Pin everything onto the GPU and make the standard budget barely
        // fit one session, so the second request must degrade or bounce.
        let gpu_only =
            ShiftConfig::paper_defaults().with_allowed_accelerators(vec![AcceleratorId::Gpu]);
        let solo_latency = {
            let agent =
                StreamAgent::new(&characterization, gpu_only.clone().with_accuracy_goal(0.25))
                    .unwrap();
            let pair = agent.current_pair();
            characterization
                .traits_of(pair.model)
                .unwrap()
                .stats_on(pair.accelerator)
                .unwrap()
                .mean_latency_s
        };
        let policy = ServicePolicy::defaults()
            .with_budgets(solo_latency * 0.5, solo_latency * 1.5)
            .with_shedding(false);
        let mut service = FleetBuilder::new(engine(45), &characterization)
            .build_service(policy)
            .unwrap();
        let attach = |name: &str, deadline: DeadlineClass| {
            SessionRequest::Attach(AttachRequest::new(
                name,
                Scenario::scenario_1().with_num_frames(40),
                gpu_only.clone().with_accuracy_goal(0.25),
                deadline,
            ))
        };
        // First standard session fits its budget alone.
        let first = service.submit(attach("first", DeadlineClass::Standard));
        assert!(matches!(first, SessionEvent::Admitted { .. }), "{first:?}");
        // An interactive request can never fit half the solo latency.
        let second = service.submit(attach("second", DeadlineClass::Interactive));
        assert_eq!(
            second,
            SessionEvent::Rejected {
                session: SessionId(2),
                name: "second".into(),
                reason: RejectReason::Saturated,
            }
        );
        // A batch request has no latency budget: admitted despite the load.
        let third = service.submit(attach("third", DeadlineClass::Batch));
        assert!(matches!(third, SessionEvent::Admitted { .. }), "{third:?}");
    }

    #[test]
    fn degrade_ladder_offers_a_lower_goal_back() {
        let characterization = characterization(46);
        // Find a goal that is infeasible as requested but feasible lower
        // down the ladder: ask far above what any pair can deliver.
        let policy = ServicePolicy::defaults().with_degrade_ladder(0.15, 0.05);
        let mut service = FleetBuilder::new(engine(46), &characterization)
            .build_service(policy)
            .unwrap();
        let event = service.submit(SessionRequest::Attach(AttachRequest::new(
            "greedy",
            Scenario::scenario_3().with_num_frames(8),
            ShiftConfig::paper_defaults().with_accuracy_goal(0.95),
            DeadlineClass::Batch,
        )));
        let SessionEvent::Admitted {
            requested_goal,
            admitted_goal,
            ..
        } = event
        else {
            panic!("expected a degrade offer, got {event:?}");
        };
        assert_eq!(requested_goal, 0.95);
        assert!(
            admitted_goal < requested_goal,
            "goal must be degraded ({admitted_goal})"
        );
        let records = service.sessions();
        assert!(records[0].degraded());
    }

    #[test]
    fn overload_shedding_evicts_the_degraded_batch_session() {
        let characterization = characterization(47);
        let gpu_only =
            ShiftConfig::paper_defaults().with_allowed_accelerators(vec![AcceleratorId::Gpu]);
        let solo_latency = {
            let agent =
                StreamAgent::new(&characterization, gpu_only.clone().with_accuracy_goal(0.25))
                    .unwrap();
            let pair = agent.current_pair();
            characterization
                .traits_of(pair.model)
                .unwrap()
                .stats_on(pair.accelerator)
                .unwrap()
                .mean_latency_s
        };
        // Standard budget fits exactly one session on the GPU.
        let policy = ServicePolicy::defaults().with_budgets(solo_latency * 1.5, solo_latency * 1.5);
        let mut service = FleetBuilder::new(engine(47), &characterization)
            .build_service(policy)
            .unwrap();
        // A batch session admitted at a degraded goal (asks far too much).
        let batch = service.submit(SessionRequest::Attach(AttachRequest::new(
            "degraded-batch",
            Scenario::scenario_1().with_num_frames(40),
            gpu_only.clone().with_accuracy_goal(0.95),
            DeadlineClass::Batch,
        )));
        let SessionEvent::Admitted {
            session: victim, ..
        } = batch
        else {
            panic!("{batch:?}");
        };
        // A standard request now saturates the budget; shedding must evict
        // the degraded batch session to make room.
        let standard = service.submit(SessionRequest::Attach(AttachRequest::new(
            "standard",
            Scenario::scenario_1().with_num_frames(40),
            gpu_only.clone().with_accuracy_goal(0.25),
            DeadlineClass::Standard,
        )));
        assert!(
            matches!(standard, SessionEvent::Admitted { .. }),
            "{standard:?}"
        );
        assert_eq!(service.active_sessions(), 1);
        let records = service.sessions();
        assert!(records[0].shed, "the batch session was shed");
        assert_eq!(records[0].detached_tick, Some(0));
        let shed_events: Vec<_> = service
            .drain_events()
            .into_iter()
            .filter(|(_, e)| matches!(e, SessionEvent::Shed { session, .. } if *session == victim))
            .collect();
        assert_eq!(shed_events.len(), 1);
    }

    #[test]
    fn scheduled_attach_and_detach_fire_at_their_ticks() {
        let characterization = characterization(48);
        let mut service = FleetBuilder::new(engine(48), &characterization)
            .stream(StreamSpec::new(
                "base",
                Scenario::scenario_3().with_num_frames(20),
                ShiftConfig::paper_defaults(),
            ))
            .build_service(ServicePolicy::defaults())
            .unwrap();
        service.schedule(
            4,
            SessionRequest::Attach(AttachRequest::new(
                "late",
                Scenario::scenario_2().with_num_frames(6).with_seed(5),
                ShiftConfig::paper_defaults().with_accuracy_goal(0.25),
                DeadlineClass::Standard,
            )),
        );
        service.schedule(12, SessionRequest::Detach(SessionId(1)));
        let outcomes = service.run_until_idle().unwrap();
        // The tick clock counts total admitted frames: base runs alone for
        // ticks 0-3, then fairness lets "late" catch up, so by the detach at
        // tick 12 each stream has 6 frames and late is already drained.
        let records = service.sessions();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].frames, 6);
        assert_eq!(records[0].detached_tick, Some(12));
        assert_eq!(records[1].frames, 6);
        assert_eq!(records[1].requested_tick, 4);
        assert_eq!(records[1].decided_tick, 4);
        assert_eq!(outcomes.len(), 12);
        // Until tick 4 every outcome belongs to the base stream.
        assert!(outcomes[..4].iter().all(|o| o.stream == 0));
        assert!(outcomes.iter().any(|o| o.stream == 1));
    }

    #[test]
    fn idle_service_fast_forwards_to_future_scheduled_sessions() {
        let characterization = characterization(49);
        let mut service = FleetBuilder::new(engine(49), &characterization)
            .build_service(ServicePolicy::defaults())
            .unwrap();
        // Nothing attached; a session is scheduled far in the future.
        service.schedule(
            50,
            SessionRequest::Attach(AttachRequest::new(
                "later",
                Scenario::scenario_3().with_num_frames(5),
                ShiftConfig::paper_defaults().with_accuracy_goal(0.3),
                DeadlineClass::Standard,
            )),
        );
        let outcomes = service.run_until_idle().unwrap();
        assert_eq!(outcomes.len(), 5);
        let records = service.sessions();
        assert_eq!(records[0].decided_tick, 50);
        assert!(service.ticks() >= 50);
    }

    #[test]
    fn service_replays_are_deterministic() {
        let run = || {
            let characterization = characterization(50);
            let mut service = FleetBuilder::new(engine(50), &characterization)
                .streams(specs())
                .build_service(ServicePolicy::defaults())
                .unwrap();
            service.schedule(
                10,
                SessionRequest::Attach(AttachRequest::new(
                    "mid",
                    Scenario::scenario_2().with_num_frames(9).with_seed(3),
                    ShiftConfig::paper_defaults().with_accuracy_goal(0.25),
                    DeadlineClass::Interactive,
                )),
            );
            service.schedule(20, SessionRequest::Detach(SessionId(1)));
            let outcomes = service.run_until_idle().unwrap();
            let mut service = service;
            (outcomes, service.sessions(), service.drain_events())
        };
        assert_eq!(run(), run());
    }
}
