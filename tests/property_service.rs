//! Session-API properties at the workspace tier.
//!
//! The fleet-as-a-service redesign carries two contracts this suite locks
//! from the outside, through the same public surface `repro -- serve` uses:
//!
//! 1. **Compat**: a fixed-set [`FleetService`] run is bit-identical to the
//!    batch `FleetRuntime::run_to_completion` it replaced — the batch path
//!    survives as a shim over the service core.
//! 2. **Determinism**: a seeded attach/detach churn trace replays
//!    byte-identically for any `--jobs` worker count — admission decisions
//!    are pure functions of fleet state, never of scheduling order on the
//!    host.
//! 3. **Request order**: scheduled requests fire by tick, detaches before
//!    attaches and queries within a tick, in schedule order otherwise; a
//!    request scheduled for a tick already past fires at the current tick.
//!
//! Plus the admission-control vocabulary end to end: reject-at-capacity,
//! the degrade offer, and shed-under-overload.
//!
//! [`FleetService`]: shift_core::FleetService

use proptest::prelude::*;
use shift_core::{
    AttachRequest, DeadlineClass, FleetBuilder, RejectReason, ServicePolicy, SessionEvent,
    SessionId, SessionRequest, ShiftConfig, StreamAgent,
};
use shift_experiments::serve::{self, ServeOptions};
use shift_experiments::{fleet, ExperimentContext};
use shift_soc::AcceleratorId;
use shift_video::Scenario;
use std::sync::OnceLock;

/// A config pinned to the GPU, so saturation tests reason about one queue.
fn gpu_only() -> ShiftConfig {
    ShiftConfig::paper_defaults().with_allowed_accelerators(vec![AcceleratorId::Gpu])
}

/// Mean per-frame latency of the pair a solo GPU-only session schedules.
fn solo_gpu_latency(ctx: &ExperimentContext) -> f64 {
    let agent = StreamAgent::new(ctx.characterization(), gpu_only().with_accuracy_goal(0.25))
        .expect("a GPU-only agent is schedulable");
    let pair = agent.current_pair();
    ctx.characterization()
        .traits_of(pair.model)
        .expect("scheduled model is characterized")
        .stats_on(pair.accelerator)
        .expect("scheduled accelerator is characterized")
        .mean_latency_s
}

#[test]
fn fixed_set_service_matches_the_batch_runtime_in_both_modes() {
    let ctx = ExperimentContext::quick(2024);
    let specs = fleet::stream_specs(&ctx, 3);
    let mut batch = FleetBuilder::new(ctx.engine(), ctx.characterization())
        .streams(specs.clone())
        .build()
        .expect("batch fleet builds");
    let batch_outcomes = batch.run_to_completion().expect("batch run succeeds");
    let mut service = FleetBuilder::new(ctx.engine(), ctx.characterization())
        .streams(specs)
        .build_service(ServicePolicy::defaults())
        .expect("service builds");
    let service_outcomes = service.run_until_idle().expect("service run succeeds");
    assert_eq!(
        format!("{service_outcomes:?}").into_bytes(),
        format!("{batch_outcomes:?}").into_bytes(),
        "fixed-set service must replay the batch runtime bit for bit"
    );
    assert_eq!(service.fleet().makespan_s(), batch.makespan_s());
}

#[test]
fn seeded_churn_trace_replays_byte_identically_across_jobs_and_modes() {
    let options = ServeOptions::smoke();
    let run = |jobs: usize| {
        let ctx = ExperimentContext::quick(2024).with_jobs(jobs);
        serve::artifact(&ctx, &options)
            .expect("serve artifact generates")
            .csv
            .into_bytes()
    };
    let reference = run(1);
    assert!(!reference.is_empty());
    for jobs in [2, 4, 8] {
        assert_eq!(
            reference,
            run(jobs),
            "--jobs {jobs} must not change a byte of the session CSV"
        );
    }
}

#[test]
fn admission_rejects_an_interactive_request_at_capacity() {
    let ctx = ExperimentContext::quick(2024);
    let solo = solo_gpu_latency(&ctx);
    // The standard budget fits exactly one session; the interactive budget
    // can never fit even a solo run. Shedding is off so the verdict is a
    // plain reject, not an eviction.
    let policy = ServicePolicy::defaults()
        .with_budgets(solo * 0.5, solo * 1.5)
        .with_shedding(false);
    let mut service = FleetBuilder::new(ctx.engine(), ctx.characterization())
        .build_service(policy)
        .expect("service builds");
    let attach = |name: &str, deadline: DeadlineClass| {
        SessionRequest::Attach(AttachRequest::new(
            name,
            Scenario::scenario_1().with_num_frames(30),
            gpu_only().with_accuracy_goal(0.25),
            deadline,
        ))
    };
    let first = service.submit(attach("first", DeadlineClass::Standard));
    assert!(matches!(first, SessionEvent::Admitted { .. }), "{first:?}");
    let second = service.submit(attach("second", DeadlineClass::Interactive));
    let SessionEvent::Rejected { reason, .. } = second else {
        panic!("expected a capacity reject, got {second:?}");
    };
    assert_eq!(reason, RejectReason::Saturated);
    // Batch has no latency budget, so capacity never turns it away.
    let third = service.submit(attach("third", DeadlineClass::Batch));
    assert!(matches!(third, SessionEvent::Admitted { .. }), "{third:?}");
    assert_eq!(service.active_sessions(), 2);
}

#[test]
fn admission_offers_a_degraded_goal_instead_of_rejecting() {
    let ctx = ExperimentContext::quick(2024);
    let mut service = FleetBuilder::new(ctx.engine(), ctx.characterization())
        .build_service(ServicePolicy::defaults())
        .expect("service builds");
    // No characterized pair delivers 0.95 mean IoU; the ladder must walk
    // down and offer what the platform can actually serve.
    let event = service.submit(SessionRequest::Attach(AttachRequest::new(
        "greedy",
        Scenario::scenario_3().with_num_frames(8),
        ShiftConfig::paper_defaults().with_accuracy_goal(0.95),
        DeadlineClass::Standard,
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
        "goal must be degraded, got {admitted_goal}"
    );
    let records = service.sessions();
    assert!(records[0].degraded());
}

#[test]
fn overload_shedding_evicts_a_degraded_lower_priority_session() {
    let ctx = ExperimentContext::quick(2024);
    let solo = solo_gpu_latency(&ctx);
    // One session fits the standard budget on the GPU.
    let policy = ServicePolicy::defaults().with_budgets(solo * 1.5, solo * 1.5);
    let mut service = FleetBuilder::new(ctx.engine(), ctx.characterization())
        .build_service(policy)
        .expect("service builds");
    // A batch session admitted at a degraded goal: the designated victim.
    let batch = service.submit(SessionRequest::Attach(AttachRequest::new(
        "degraded-batch",
        Scenario::scenario_1().with_num_frames(30),
        gpu_only().with_accuracy_goal(0.95),
        DeadlineClass::Batch,
    )));
    let SessionEvent::Admitted {
        session: victim, ..
    } = batch
    else {
        panic!("{batch:?}");
    };
    // A standard request saturates the budget; shedding evicts the batch
    // session rather than bouncing the higher-priority arrival.
    let standard = service.submit(SessionRequest::Attach(AttachRequest::new(
        "standard",
        Scenario::scenario_1().with_num_frames(30),
        gpu_only().with_accuracy_goal(0.25),
        DeadlineClass::Standard,
    )));
    assert!(
        matches!(standard, SessionEvent::Admitted { .. }),
        "{standard:?}"
    );
    assert_eq!(service.active_sessions(), 1);
    let records = service.sessions();
    assert!(records[0].shed, "the degraded batch session was shed");
    let shed_events: Vec<_> = service
        .drain_events()
        .into_iter()
        .filter(|(_, e)| matches!(e, SessionEvent::Shed { session, .. } if *session == victim))
        .collect();
    assert_eq!(
        shed_events.len(),
        1,
        "exactly one shed event for the victim"
    );
}

#[test]
fn detach_after_transactional_shed_answers_unknown_session() {
    let ctx = ExperimentContext::quick(2024);
    let solo = solo_gpu_latency(&ctx);
    let policy = ServicePolicy::defaults().with_budgets(solo * 1.5, solo * 1.5);
    let mut service = FleetBuilder::new(ctx.engine(), ctx.characterization())
        .build_service(policy)
        .expect("service builds");
    // Same shed setup as above: a degraded batch victim evicted by a
    // saturating standard arrival.
    let batch = service.submit(SessionRequest::Attach(AttachRequest::new(
        "degraded-batch",
        Scenario::scenario_1().with_num_frames(30),
        gpu_only().with_accuracy_goal(0.95),
        DeadlineClass::Batch,
    )));
    let SessionEvent::Admitted {
        session: victim, ..
    } = batch
    else {
        panic!("{batch:?}");
    };
    let standard = service.submit(SessionRequest::Attach(AttachRequest::new(
        "standard",
        Scenario::scenario_1().with_num_frames(30),
        gpu_only().with_accuracy_goal(0.25),
        DeadlineClass::Standard,
    )));
    let SessionEvent::Admitted {
        session: survivor, ..
    } = standard
    else {
        panic!("{standard:?}");
    };
    assert!(service.sessions()[0].shed, "the batch session was shed");
    // A detach of the shed session — immediate or scheduled for a future
    // tick — must answer UnknownSession: the transactional shed already
    // released its stream, and the id is never reused.
    let immediate = service.submit(SessionRequest::Detach(victim));
    assert!(
        matches!(immediate, SessionEvent::UnknownSession { session } if session == victim),
        "immediate detach of a shed session must be unknown, got {immediate:?}"
    );
    service.drain_events();
    service.schedule(5, SessionRequest::Detach(victim));
    service.run_until_idle().expect("service run succeeds");
    let unknown: Vec<_> = service
        .drain_events()
        .into_iter()
        .filter(
            |(_, e)| matches!(e, SessionEvent::UnknownSession { session } if *session == victim),
        )
        .collect();
    assert_eq!(
        unknown.len(),
        1,
        "scheduled detach of a shed session must log exactly one UnknownSession"
    );
    // The survivor is untouched by the bogus detach: it ran to completion
    // as a normal, never-detached session.
    let records = service.sessions();
    let record = records
        .iter()
        .find(|r| r.session == survivor)
        .expect("survivor has a record");
    assert!(!record.shed && record.detached_tick.is_none());
    assert_eq!(record.frames, 30, "the survivor processed every frame");
}

#[test]
fn a_request_scheduled_for_a_past_tick_fires_after_the_current_ticks_detach() {
    let ctx = ExperimentContext::quick(2024);
    let mut service = FleetBuilder::new(ctx.engine(), ctx.characterization())
        .build_service(ServicePolicy::defaults())
        .expect("service builds");
    let attach = |name: &str| {
        SessionRequest::Attach(AttachRequest::new(
            name,
            Scenario::scenario_1().with_num_frames(30),
            gpu_only().with_accuracy_goal(0.25),
            DeadlineClass::Standard,
        ))
    };
    let first = service.submit(attach("first"));
    let SessionEvent::Admitted { session: first, .. } = first else {
        panic!("{first:?}");
    };
    while service.ticks() < 5 {
        service
            .step()
            .expect("step succeeds")
            .expect("the session still has frames");
    }
    service.drain_events();
    // Scheduled late for tick 2, the attach counts as tick 5 and so fires
    // after tick 5's detach, which frees the capacity it is checked against.
    service.schedule(5, SessionRequest::Detach(first));
    service.schedule(2, attach("late"));
    service.step().expect("step succeeds");
    let log = service.drain_events();
    assert!(
        matches!(
            log.as_slice(),
            [
                (5, SessionEvent::Detached { session, .. }),
                (5, SessionEvent::Admitted { .. }),
            ] if *session == first
        ),
        "tick 5 must detach before it admits, got {log:?}"
    );
}

/// The characterization every case of the order property shares.
fn shared_context() -> &'static ExperimentContext {
    static CONTEXT: OnceLock<ExperimentContext> = OnceLock::new();
    CONTEXT.get_or_init(|| ExperimentContext::quick(2024))
}

/// Schedules `requests` — `(tick, is a detach)`, in call order — on an
/// empty service as requests for ids it never mints (the `i`-th names
/// `1000 + i`), runs it to idle and returns the drained log.
fn drain_unknown_requests(requests: &[(u64, bool)]) -> Vec<(u64, SessionEvent)> {
    let ctx = shared_context();
    let mut service = FleetBuilder::new(ctx.engine(), ctx.characterization())
        .build_service(ServicePolicy::defaults())
        .expect("service builds");
    for (index, &(tick, detach)) in requests.iter().enumerate() {
        let id = SessionId::from_value(1000 + index as u64);
        let request = if detach {
            SessionRequest::Detach(id)
        } else {
            SessionRequest::Query(id)
        };
        service.schedule(tick, request);
    }
    let outcomes = service.run_until_idle().expect("an empty service runs");
    assert!(outcomes.is_empty(), "an empty service plays no frames");
    service.drain_events()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every request answers `UnknownSession`, so the drained log is the
    /// firing order: the stable sort of the schedule by (tick, detach
    /// first), each answer stamped with its own tick.
    #[test]
    fn scheduled_requests_fire_by_tick_then_detach_first_then_schedule_order(
        schedule in proptest::collection::vec((0u64..12, 0usize..2), 0..40),
    ) {
        let requests: Vec<(u64, bool)> = schedule
            .iter()
            .map(|&(tick, kind)| (tick, kind == 0))
            .collect();
        let mut expected: Vec<usize> = (0..requests.len()).collect();
        expected.sort_by_key(|&i| (requests[i].0, !requests[i].1));
        let log = drain_unknown_requests(&requests);
        let fired: Vec<usize> = log
            .iter()
            .map(|(tick, event)| {
                let SessionEvent::UnknownSession { session } = event else {
                    panic!("expected UnknownSession, got {event:?}");
                };
                let index = (session.value() - 1000) as usize;
                assert_eq!(*tick, requests[index].0, "stamped with its own tick");
                index
            })
            .collect();
        prop_assert_eq!(fired, expected);
        prop_assert_eq!(
            format!("{log:?}").into_bytes(),
            format!("{:?}", drain_unknown_requests(&requests)).into_bytes()
        );
    }
}
