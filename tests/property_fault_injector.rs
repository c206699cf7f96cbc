//! Property tests for the deterministic fault-injection subsystem.
//!
//! The fault planner promises four invariants over the whole spec space —
//! not just the standard chaos-plan library. Each case below samples a spec
//! from the preset × horizon × seed cross product and checks:
//!
//! 1. planning is pure: the same `(seed, spec)` pair yields a byte-identical
//!    plan,
//! 2. windows are sorted by start and never overlap per resource,
//! 3. every injected fault has a matching recovery edge (`start < end`, and
//!    the edge lands at or before the horizon),
//! 4. a plan with zero faults reproduces the healthy-run fleet outcomes
//!    bit-for-bit, and replaying any plan to its horizon leaves the engine
//!    exactly as it started.

use proptest::prelude::*;
use shift_core::fleet::{FleetRuntime, StreamHandle, StreamSpec};
use shift_core::{characterize, Characterization, ShiftConfig, ShiftRuntime};
use shift_models::{ModelZoo, ResponseModel};
use shift_soc::{AcceleratorId, ExecutionEngine, FaultInjector, FaultPlan, FaultSpec, Platform};
use shift_video::{CharacterizationDataset, Scenario};
use std::sync::OnceLock;

/// One spec from the preset space, indexed deterministically.
fn spec_at(index: usize, horizon: u64) -> FaultSpec {
    match index % 5 {
        0 => FaultSpec::none(horizon),
        1 => FaultSpec::dropout_storm(horizon),
        2 => FaultSpec::thermal_brownout(horizon),
        3 => FaultSpec::memory_crunch(horizon),
        _ => FaultSpec::mixed(horizon),
    }
}

fn engine(seed: u64) -> ExecutionEngine {
    ExecutionEngine::new(
        Platform::xavier_nx_with_oak(),
        ModelZoo::standard(),
        ResponseModel::new(seed),
    )
}

/// The shared characterization used by the run-equivalence cases (built
/// once; each case still gets its own engine and runtimes).
fn shared_characterization() -> &'static Characterization {
    static SHARED: OnceLock<Characterization> = OnceLock::new();
    SHARED.get_or_init(|| characterize(&engine(6), &CharacterizationDataset::generate(160, 6)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Invariant 1: same `(seed, spec)` => byte-identical plan; different
    /// seeds perturb any non-empty plan.
    #[test]
    fn same_seed_produces_byte_identical_plans(
        seed in 0u64..10_000,
        spec_index in 0usize..5,
        horizon in 40u64..2_000,
    ) {
        let spec = spec_at(spec_index, horizon);
        let a = FaultPlan::generate(seed, &spec);
        let b = FaultPlan::generate(seed, &spec);
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(format!("{a:?}").into_bytes(), format!("{b:?}").into_bytes());
        if !a.is_empty() {
            let c = FaultPlan::generate(seed.wrapping_add(1), &spec);
            prop_assert!(a != c, "seed {} and {} must differ", seed, seed + 1);
        }
    }

    /// Invariants 2 + 3: windows sorted by start, non-overlapping per
    /// resource, every injection matched by a recovery edge within the
    /// horizon.
    #[test]
    fn windows_are_sorted_disjoint_and_recover(
        seed in 0u64..10_000,
        spec_index in 0usize..5,
        horizon in 40u64..2_000,
    ) {
        let spec = spec_at(spec_index, horizon);
        let plan = FaultPlan::generate(seed, &spec);
        let windows = plan.windows();
        for pair in windows.windows(2) {
            prop_assert!(pair[0].start_frame <= pair[1].start_frame, "sorted by start");
        }
        for (i, window) in windows.iter().enumerate() {
            prop_assert!(
                window.start_frame < window.end_frame,
                "window {i} must carry a recovery edge"
            );
            prop_assert!(
                window.end_frame <= plan.horizon_frames(),
                "window {i} must recover within the horizon"
            );
            for other in &windows[i + 1..] {
                if window.kind.resource() == other.kind.resource() {
                    prop_assert!(
                        window.end_frame <= other.start_frame
                            || other.end_frame <= window.start_frame,
                        "windows overlap on {:?}",
                        window.kind.resource()
                    );
                }
            }
        }
        // The recovery edges the metrics layer consumes are exactly the
        // window ends.
        let edges = plan.recovery_frames();
        prop_assert!(edges.windows(2).all(|e| e[0] < e[1]), "edges sorted + deduped");
        for window in windows {
            prop_assert!(edges.contains(&window.end_frame));
        }
    }

    /// Invariant 4b: replaying any plan straight through its horizon applies
    /// and recovers every window, leaving the engine bit-identical to an
    /// untouched one.
    #[test]
    fn full_replay_restores_the_engine(
        seed in 0u64..10_000,
        spec_index in 1usize..5,
        horizon in 40u64..1_000,
    ) {
        let spec = spec_at(spec_index, horizon);
        let plan = FaultPlan::generate(seed, &spec);
        let mut injector = FaultInjector::new(plan);
        let mut e = engine(1);
        let reference = e.clone();
        for frame in 0..=horizon {
            injector.advance(frame, &mut e);
        }
        prop_assert!(injector.is_done(), "every edge must replay by the horizon");
        prop_assert_eq!(injector.active_count(), 0);
        prop_assert_eq!(e.power_mode(), reference.power_mode());
        prop_assert!(!e.telemetry_suspended());
        for accelerator in AcceleratorId::ALL {
            prop_assert_eq!(e.is_online(accelerator), reference.is_online(accelerator));
            prop_assert_eq!(e.memory_reservation(accelerator), 0.0);
        }
    }
}

proptest! {
    // Fleet runs are comparatively expensive; a handful of cases over
    // distinct seeds is plenty to lock the bit-for-bit contract.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Invariant 4a: a zero-fault plan attached to a fleet reproduces the
    /// healthy-run outcomes bit-for-bit.
    #[test]
    fn zero_fault_plan_reproduces_healthy_fleet_outcomes(seed in 0u64..500) {
        let characterization = shared_characterization();
        let specs = || vec![
            StreamSpec::new(
                "a",
                Scenario::scenario_2().with_num_frames(20).with_seed(seed),
                ShiftConfig::paper_defaults(),
            ),
            StreamSpec::new(
                "b",
                Scenario::scenario_3().with_num_frames(20).with_seed(seed + 1),
                ShiftConfig::paper_defaults(),
            ),
        ];
        let mut healthy = FleetRuntime::new(
            engine(4),
            characterization,
            specs(),
        )
        .expect("fleet builds");
        let healthy_outcomes = healthy.run_to_completion().expect("healthy run completes");

        let plan = FaultPlan::generate(seed, &FaultSpec::none(40));
        prop_assert!(plan.is_empty());
        let mut faulted = FleetRuntime::new(
            engine(4),
            characterization,
            specs(),
        )
        .expect("fleet builds")
        .with_fault_plan(plan);
        let faulted_outcomes = faulted.run_to_completion().expect("zero-fault run completes");

        prop_assert_eq!(healthy_outcomes, faulted_outcomes);
        for stream in 0..2 {
            let counters = faulted.stream(StreamHandle::from_index(stream)).resilience();
            prop_assert_eq!(counters.fault_frames, 0);
            prop_assert_eq!(counters.fault_replans, 0);
            prop_assert_eq!(counters.degraded_frames, 0);
        }
    }
}

/// The single-stream analogue of the zero-fault property, plus the healthy
/// counters it implies.
#[test]
fn zero_fault_plan_reproduces_healthy_single_stream_outcomes() {
    let characterization = shared_characterization();
    let scenario = Scenario::scenario_1().with_num_frames(60);
    let run = |plan: Option<FaultPlan>| {
        let mut runtime =
            ShiftRuntime::new(engine(5), characterization, ShiftConfig::paper_defaults())
                .expect("runtime builds");
        if let Some(plan) = plan {
            runtime = runtime.with_fault_plan(plan);
        }
        let outcomes = runtime.run(scenario.stream()).expect("run completes");
        (outcomes, runtime.resilience())
    };
    let (healthy, _) = run(None);
    let (faulted, counters) = run(Some(FaultPlan::generate(11, &FaultSpec::none(60))));
    assert_eq!(healthy, faulted, "zero-fault run must be bit-identical");
    assert_eq!(counters, shift_core::ResilienceCounters::default());
}

/// A faulted fleet run is itself deterministic: the same plan replayed twice
/// yields bit-identical outcomes and resilience counters.
#[test]
fn faulted_fleet_runs_are_deterministic() {
    let characterization = shared_characterization();
    let run = || {
        let specs = vec![
            StreamSpec::new(
                "x",
                Scenario::scenario_1().with_num_frames(40),
                ShiftConfig::paper_defaults(),
            ),
            StreamSpec::new(
                "y",
                Scenario::scenario_4().with_num_frames(40),
                ShiftConfig::paper_defaults(),
            ),
        ];
        let plan = FaultPlan::generate(21, &FaultSpec::mixed(80));
        let mut fleet = FleetRuntime::new(engine(8), characterization, specs)
            .expect("fleet builds")
            .with_fault_plan(plan);
        let outcomes = fleet.run_to_completion().expect("faulted run completes");
        let counters: Vec<_> = fleet
            .handles()
            .into_iter()
            .map(|h| fleet.stream(h).resilience())
            .collect();
        (outcomes, counters)
    };
    assert_eq!(run(), run());
}
