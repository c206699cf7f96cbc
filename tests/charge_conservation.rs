//! Charge conservation: every second and joule the engine spends is charged
//! to some frame.
//!
//! Each frame's `latency_s` is its queueing delay, the scheduler overhead and
//! the load and inference time the engine recorded; its `energy_j` is the
//! scheduler overhead energy plus the engine's load and inference energy.
//! So over a run without telemetry glitches (a glitch suspends the engine's
//! telemetry on purpose), two sums must match the engine's telemetry:
//!
//! * Σ(`latency_s` − `queue_wait_s` − `scheduler_overhead_s`) =
//!   `telemetry().total_time_s()`;
//! * Σ(`energy_j` − `scheduler_overhead_energy_j()`) =
//!   `telemetry().total_energy_j()`.
//!
//! A frame that errors must charge nothing and lose nothing: the initial
//! model load it would have carried moves on to the next frame that
//! completes.

use shift_core::fleet::FleetBuilder;
use shift_core::{FrameOutcome, ShiftConfig, ShiftError, ShiftRuntime};
use shift_experiments::workloads::paper_shift_config;
use shift_experiments::{fleet, ExperimentContext};
use shift_soc::{AcceleratorId, FaultKind, FaultPlan, FaultSpec, FaultWindow, SocError, Telemetry};
use shift_video::Scenario;

const TOLERANCE: f64 = 1e-9;

/// One completed frame's charges: its outcome, the queueing delay inside
/// its latency, and the configuration that priced its scheduler overhead.
struct Charged<'a> {
    outcome: &'a FrameOutcome,
    queue_wait_s: f64,
    config: &'a ShiftConfig,
}

/// Asserts that both sums match `telemetry`, reporting the differences
/// (frame charges minus engine totals) on failure.
fn assert_conserved<'a>(
    label: &str,
    frames: impl IntoIterator<Item = Charged<'a>>,
    telemetry: &Telemetry,
) {
    let (mut time_s, mut energy_j) = (0.0, 0.0);
    for frame in frames {
        time_s += frame.outcome.latency_s - frame.queue_wait_s - frame.config.scheduler_overhead_s;
        energy_j += frame.outcome.energy_j - frame.config.scheduler_overhead_energy_j();
    }
    let time_gap = time_s - telemetry.total_time_s();
    let energy_gap = energy_j - telemetry.total_energy_j();
    assert!(
        time_gap.abs() <= TOLERANCE,
        "{label}: frames charge {time_s} s but the engine spent {} s (difference {time_gap} s)",
        telemetry.total_time_s()
    );
    assert!(
        energy_gap.abs() <= TOLERANCE,
        "{label}: frames charge {energy_j} J but the engine spent {} J (difference {energy_gap} J)",
        telemetry.total_energy_j()
    );
}

#[test]
fn a_shared_fleet_charges_every_engine_second_and_joule_to_a_frame() {
    let ctx = ExperimentContext::quick(2024);
    let specs = fleet::stream_specs(&ctx, 4);
    let horizon: u64 = specs.iter().map(|s| s.scenario.num_frames() as u64).sum();
    let faults = [
        ("healthy", FaultSpec::none(horizon)),
        ("dropout storm", FaultSpec::dropout_storm(horizon)),
        ("memory crunch", FaultSpec::memory_crunch(horizon)),
    ];
    for (label, spec) in faults {
        let mut fleet = FleetBuilder::new(ctx.engine(), ctx.characterization())
            .streams(specs.clone())
            .fault_plan(FaultPlan::generate(7, &spec))
            .build()
            .expect("fleet builds");
        let outcomes = fleet.run_to_completion().expect("fleet completes");
        assert_eq!(
            outcomes.len() as u64,
            horizon,
            "{label}: every frame completes"
        );
        assert_conserved(
            label,
            outcomes.iter().map(|o| Charged {
                outcome: &o.outcome,
                queue_wait_s: o.queue_wait_s,
                config: &specs[o.stream].config,
            }),
            fleet.engine().telemetry(),
        );
    }
}

#[test]
fn a_healthy_single_stream_charges_every_engine_second_and_joule_to_a_frame() {
    let ctx = ExperimentContext::quick(72);
    let scenario = ctx.scaled(Scenario::scenario_3());
    assert_eq!(scenario.num_frames(), 40);
    let config = paper_shift_config();
    let mut runtime = ShiftRuntime::new(ctx.engine(), ctx.characterization(), config.clone())
        .expect("runtime builds");
    let outcomes = runtime.run(scenario.stream()).expect("run completes");
    assert_conserved(
        "healthy single stream",
        outcomes.iter().map(|outcome| Charged {
            outcome,
            queue_wait_s: 0.0,
            config: &config,
        }),
        runtime.engine().telemetry(),
    );
}

/// With every accelerator dropped for frame 0 only, the first frame errors
/// and the caller carries on with frames 1–39, as the benchmark's paper loop
/// does after an error. The initial model load must then land on frame 1,
/// and the errored frame must not count as a processed fault frame.
#[test]
fn an_errored_frame_passes_its_initial_load_charge_to_the_next_frame() {
    let ctx = ExperimentContext::quick(72);
    let scenario = ctx.scaled(Scenario::scenario_3());
    let dropped = [
        AcceleratorId::Gpu,
        AcceleratorId::Dla0,
        AcceleratorId::Dla1,
        AcceleratorId::OakD,
    ]
    .map(|accelerator| FaultWindow {
        kind: FaultKind::Dropout(accelerator),
        start_frame: 0,
        end_frame: 1,
    });
    let plan = FaultPlan::from_windows(scenario.num_frames() as u64, dropped.to_vec());
    let config = paper_shift_config();
    let mut runtime = ShiftRuntime::new(ctx.engine(), ctx.characterization(), config.clone())
        .expect("runtime builds")
        .with_fault_plan(plan);
    let mut frames = scenario.stream();
    let first = frames.next().expect("frame 0");
    assert_eq!(
        runtime.process_frame(&first),
        Err(ShiftError::Soc(SocError::AcceleratorOffline(
            AcceleratorId::Dla1
        )))
    );
    let outcomes: Vec<FrameOutcome> = frames
        .map(|frame| {
            runtime
                .process_frame(&frame)
                .expect("accelerators are back")
        })
        .collect();
    assert_eq!(outcomes.len(), 39);
    assert_conserved(
        "single stream after an errored frame",
        outcomes.iter().map(|outcome| Charged {
            outcome,
            queue_wait_s: 0.0,
            config: &config,
        }),
        runtime.engine().telemetry(),
    );
    assert_eq!(
        runtime.resilience().fault_frames,
        0,
        "no frame completed while the dropout was active"
    );
}
