//! Failure injection: accelerators taken offline, degraded networks and
//! memory pressure. The runtimes are expected to either degrade gracefully
//! (when a policy exists) or surface a precise error (when the failure
//! removes the only viable resource).

use shift_baselines::{OffloadConfig, OffloadRuntime};
use shift_core::fleet::{FleetRuntime, StreamHandle, StreamSpec};
use shift_core::{Knobs, ShiftRuntime};
use shift_experiments::workloads::paper_shift_config;
use shift_experiments::ExperimentContext;
use shift_models::{ModelId, ModelZoo, ResponseModel};
use shift_soc::{
    AcceleratorId, ExecutionEngine, FaultKind, FaultPlan, FaultSpec, FaultWindow, NetworkLink,
    Platform, PowerMode, SocError,
};
use shift_video::Scenario;

fn base_engine(seed: u64) -> ExecutionEngine {
    ExecutionEngine::new(
        Platform::xavier_nx_with_oak(),
        ModelZoo::standard(),
        ResponseModel::new(seed),
    )
}

#[test]
fn shift_completes_when_restricted_to_non_gpu_accelerators() {
    // Simulates the GPU being reserved for another workload (or fenced off
    // after a fault): SHIFT is only allowed the DLAs and the OAK-D.
    let ctx = ExperimentContext::quick(41);
    let scenario = ctx.scaled(Scenario::scenario_2());
    let config = paper_shift_config().with_allowed_accelerators(vec![
        AcceleratorId::Dla0,
        AcceleratorId::Dla1,
        AcceleratorId::OakD,
    ]);
    let records = ctx.run_shift(&scenario, config).expect("run completes");
    assert_eq!(records.len(), scenario.num_frames());
    assert!(records.iter().all(|r| r.accelerator != AcceleratorId::Gpu));
    let mean_iou = records.iter().map(|r| r.iou).sum::<f64>() / records.len() as f64;
    assert!(
        mean_iou > 0.2,
        "DLA-only SHIFT still detects, got {mean_iou}"
    );
}

#[test]
fn shift_with_no_allowed_accelerators_fails_fast() {
    let ctx = ExperimentContext::quick(42);
    let config = paper_shift_config().with_allowed_accelerators(Vec::new());
    let err = ShiftRuntime::new(ctx.engine(), ctx.characterization(), config).err();
    assert!(
        err.is_some(),
        "empty accelerator set cannot schedule anything"
    );
}

#[test]
fn administratively_offline_accelerator_rejects_work_until_restored() {
    let mut engine = base_engine(9);
    engine
        .load_model(ModelId::YoloV7Tiny, AcceleratorId::OakD)
        .unwrap();
    engine.set_accelerator_online(AcceleratorId::OakD, false);
    let frame = Scenario::scenario_3().stream().next().unwrap();
    let err = engine
        .run_inference(ModelId::YoloV7Tiny, AcceleratorId::OakD, &frame)
        .unwrap_err();
    assert!(matches!(
        err,
        SocError::AcceleratorOffline(AcceleratorId::OakD)
    ));
    // A fence poisons only its own accelerator: with the GPU fenced too, a
    // DLA still runs.
    engine.set_accelerator_online(AcceleratorId::Gpu, false);
    let (_, report) = engine
        .load_and_run(ModelId::YoloV7Tiny, AcceleratorId::Dla0, &frame)
        .unwrap();
    assert_eq!(report.accelerator, AcceleratorId::Dla0);
    engine.set_accelerator_online(AcceleratorId::OakD, true);
    assert!(engine
        .run_inference(ModelId::YoloV7Tiny, AcceleratorId::OakD, &frame)
        .is_ok());
}

#[test]
fn offload_survives_a_complete_outage_window() {
    // A link that is down for the first 35 of every 200 frames: the runtime
    // must produce a record for every frame and keep detecting during the
    // outage through its local fallback model.
    let config = OffloadConfig {
        link: NetworkLink::degraded(),
        local_fallback: Some(ModelId::YoloV7Tiny),
        ..OffloadConfig::wifi()
    };
    let mut runtime = OffloadRuntime::new(base_engine(13), config).unwrap();
    let records = runtime
        .run(Scenario::scenario_3().with_num_frames(250).stream())
        .unwrap();
    assert_eq!(records.len(), 250);
    let stats = runtime.stats();
    assert!(stats.offloaded_frames > 0);
    assert!(stats.fallback_frames > 0);
    assert_eq!(
        stats.blind_frames, 0,
        "fallback model prevents blind frames"
    );
    let outage_records: Vec<_> = records
        .iter()
        .filter(|r| r.accelerator == AcceleratorId::Gpu)
        .collect();
    let outage_iou =
        outage_records.iter().map(|r| r.iou).sum::<f64>() / outage_records.len().max(1) as f64;
    assert!(
        outage_iou > 0.2,
        "fallback detections still land, got {outage_iou}"
    );
}

#[test]
fn memory_pressure_forces_eviction_but_never_overcommits() {
    let mut engine = base_engine(17);
    // Fill the GPU pool, then demand one more large model: the engine refuses
    // rather than overcommitting, and freeing capacity resolves the pressure.
    engine
        .load_model(ModelId::YoloV7E6E, AcceleratorId::Gpu)
        .unwrap();
    engine
        .load_model(ModelId::YoloV7X, AcceleratorId::Gpu)
        .unwrap();
    engine
        .load_model(ModelId::SsdResnet50, AcceleratorId::Gpu)
        .unwrap();
    let err = engine
        .load_model(ModelId::YoloV7, AcceleratorId::Gpu)
        .unwrap_err();
    assert!(matches!(err, SocError::OutOfMemory { .. }));
    let pool = engine.pool(AcceleratorId::Gpu).unwrap();
    assert!(pool.used_mb() <= pool.capacity_mb());
    assert!(engine.unload_model(ModelId::YoloV7E6E, AcceleratorId::Gpu));
    assert!(engine
        .load_model(ModelId::YoloV7, AcceleratorId::Gpu)
        .is_ok());
    let pool = engine.pool(AcceleratorId::Gpu).unwrap();
    assert!(pool.used_mb() <= pool.capacity_mb());
}

#[test]
fn fleet_under_memory_pressure_degrades_but_never_starves_or_panics() {
    // Four streams confined to a GPU whose 1536 MB pool is pre-filled with
    // 1450 MB of models loaded by another tenant: no stream's model fits
    // alongside the residents, so the shared loader must evict its way in
    // (never a model a peer is actively running, unless nothing else
    // remains) or the victim stream must degrade to a smaller model — but
    // every stream must produce every frame.
    let ctx = ExperimentContext::quick(51);
    let mut engine = ctx.engine();
    for squatter in [ModelId::YoloV7E6E, ModelId::YoloV7X, ModelId::SsdResnet50] {
        engine.load_model(squatter, AcceleratorId::Gpu).unwrap();
    }
    let knob_sets = [
        Knobs::accuracy_first(),
        Knobs::paper_defaults(),
        Knobs::energy_saver(),
        Knobs::low_latency(),
    ];
    let scenarios = [
        Scenario::scenario_5(),
        Scenario::scenario_1(),
        Scenario::scenario_3(),
        Scenario::scenario_4(),
    ];
    let specs: Vec<StreamSpec> = knob_sets
        .iter()
        .zip(scenarios.iter())
        .enumerate()
        .map(|(i, (knobs, scenario))| {
            let scenario = ctx.scaled(scenario.clone());
            StreamSpec::new(
                format!("pressure-{i}"),
                scenario,
                paper_shift_config()
                    .with_knobs(*knobs)
                    .with_allowed_accelerators(vec![AcceleratorId::Gpu]),
            )
        })
        .collect();
    let expected: Vec<usize> = specs.iter().map(|s| s.scenario.num_frames()).collect();
    let mut fleet = FleetRuntime::new(engine, ctx.characterization(), specs).expect("fleet builds");
    let outcomes = fleet.run_to_completion().expect("no stream may fail");

    // No starvation: every stream produced every frame of its scenario.
    for (stream, &frames) in expected.iter().enumerate() {
        assert_eq!(
            fleet
                .stream(StreamHandle::from_index(stream))
                .frames_processed(),
            frames,
            "stream {stream} starved"
        );
    }
    assert_eq!(outcomes.len(), expected.iter().sum::<usize>());
    // The pool genuinely thrashed: getting past the squatters forced
    // evictions.
    assert!(
        fleet.engine().telemetry().eviction_count > 0,
        "a pre-filled pool must force evictions"
    );
    // Degraded, not blinded: every stream still detects.
    for stream in 0..expected.len() {
        let ious: Vec<f64> = outcomes
            .iter()
            .filter(|o| o.stream == stream)
            .map(|o| o.outcome.iou)
            .collect();
        let mean = ious.iter().sum::<f64>() / ious.len() as f64;
        assert!(mean > 0.15, "stream {stream} went blind: mean IoU {mean}");
    }
    // The GPU pool never overcommitted while all of this happened.
    let pool = fleet.engine().pool(AcceleratorId::Gpu).unwrap();
    assert!(pool.used_mb() <= pool.capacity_mb() + 1e-9);
    // Healthy memory contention is not fault exposure: with no fault plan
    // attached, every resilience counter stays zero even though streams
    // genuinely degraded under pressure.
    for stream in 0..expected.len() {
        assert_eq!(
            fleet.stream(StreamHandle::from_index(stream)).resilience(),
            shift_core::ResilienceCounters::default(),
            "stream {stream} reported fault exposure on a healthy run"
        );
    }
}

#[test]
fn fleet_with_one_impossible_stream_fails_fast_at_construction() {
    // A stream whose configuration admits no accelerator at all must be
    // rejected when the fleet is built — not discovered mid-run after its
    // peers have already produced half their frames.
    let ctx = ExperimentContext::quick(52);
    let specs = vec![
        StreamSpec::new(
            "fine",
            ctx.scaled(Scenario::scenario_3()),
            paper_shift_config(),
        ),
        StreamSpec::new(
            "impossible",
            ctx.scaled(Scenario::scenario_2()),
            paper_shift_config().with_allowed_accelerators(Vec::new()),
        ),
    ];
    let err = FleetRuntime::new(ctx.engine(), ctx.characterization(), specs).err();
    assert!(err.is_some(), "an unschedulable stream cannot join a fleet");
}

#[test]
fn fleet_survives_an_accelerator_going_offline_at_construction() {
    // The GPU is fenced off before the fleet starts: every stream is
    // restricted to the remaining engines and the run must still complete
    // with detections intact (the multi-accelerator analogue of
    // `shift_completes_when_restricted_to_non_gpu_accelerators`).
    let ctx = ExperimentContext::quick(53);
    let mut engine = ctx.engine();
    engine.set_accelerator_online(AcceleratorId::Gpu, false);
    let config = paper_shift_config().with_allowed_accelerators(vec![
        AcceleratorId::Dla0,
        AcceleratorId::Dla1,
        AcceleratorId::OakD,
    ]);
    let specs: Vec<StreamSpec> = [Scenario::scenario_2(), Scenario::scenario_3()]
        .iter()
        .enumerate()
        .map(|(i, s)| StreamSpec::new(format!("no-gpu-{i}"), ctx.scaled(s.clone()), config.clone()))
        .collect();
    let mut fleet = FleetRuntime::new(engine, ctx.characterization(), specs)
        .expect("fleet builds without the GPU");
    let outcomes = fleet.run_to_completion().expect("run completes");
    assert!(outcomes
        .iter()
        .all(|o| o.outcome.pair.accelerator != AcceleratorId::Gpu));
    let mean_iou = outcomes.iter().map(|o| o.outcome.iou).sum::<f64>() / outcomes.len() as f64;
    assert!(
        mean_iou > 0.2,
        "GPU-less fleet still detects, got {mean_iou}"
    );
}

#[test]
fn all_accelerators_throttled_fleet_terminates_with_degraded_goals_reported() {
    // A DVFS clamp is platform-wide: for most of the run *every* accelerator
    // is throttled into the 10 W budget at once. The fleet must still
    // produce every frame of every stream (no panic, no starvation), report
    // the fault exposure through its resilience counters, and the clamp must
    // show up as degraded (slower) frames rather than missing ones.
    let ctx = ExperimentContext::quick(71);
    let specs = || -> Vec<StreamSpec> {
        [Scenario::scenario_1(), Scenario::scenario_3()]
            .iter()
            .enumerate()
            .map(|(i, s)| {
                StreamSpec::new(
                    format!("clamped-{i}"),
                    ctx.scaled(s.clone()),
                    paper_shift_config(),
                )
            })
            .collect()
    };
    let expected: usize = specs().iter().map(|s| s.scenario.num_frames()).sum();
    // One clamp window covering nearly the whole run (the fleet clock is one
    // step per admitted frame across all streams).
    let horizon = expected as u64 + 10;
    let plan = FaultPlan::from_windows(
        horizon,
        vec![FaultWindow {
            kind: FaultKind::DvfsClamp(PowerMode::Mode10W),
            start_frame: 1,
            end_frame: horizon,
        }],
    );
    let run = |plan: Option<FaultPlan>| {
        let mut fleet =
            FleetRuntime::new(ctx.engine(), ctx.characterization(), specs()).expect("fleet builds");
        if let Some(plan) = plan {
            fleet = fleet.with_fault_plan(plan);
        }
        let outcomes = fleet.run_to_completion().expect("fleet completes");
        let fault_frames: u64 = fleet
            .handles()
            .into_iter()
            .map(|h| fleet.stream(h).resilience().fault_frames)
            .sum();
        (outcomes, fault_frames)
    };
    let (healthy, _) = run(None);
    let (clamped, fault_frames) = run(Some(plan));
    assert_eq!(
        clamped.len(),
        expected,
        "no stream may starve under the clamp"
    );
    assert!(
        fault_frames >= expected as u64 - 2,
        "nearly every frame ran inside the clamp window, got {fault_frames}/{expected}"
    );
    // Degraded, not blind: the clamp slows the platform down...
    let total_latency = |outcomes: &[shift_core::FleetFrameOutcome]| -> f64 {
        outcomes.iter().map(|o| o.outcome.latency_s).sum()
    };
    assert!(
        total_latency(&clamped) > total_latency(&healthy),
        "a 10 W clamp must cost latency"
    );
    // ...but detections still land.
    let mean_iou = clamped.iter().map(|o| o.outcome.iou).sum::<f64>() / clamped.len() as f64;
    assert!(
        mean_iou > 0.2,
        "clamped fleet went blind: mean IoU {mean_iou}"
    );
}

#[test]
fn dropout_landing_exactly_on_a_scene_cut_boundary_is_survived() {
    // Scenario 6 carries mid-video background changes; place a dropout of
    // every host accelerator so its injection edge lands exactly on a
    // scene-cut frame — the worst case, because the NCC gate forces a
    // re-schedule on the very frame the scheduler's favourite accelerators
    // vanish. Only the external OAK-D survives the window.
    let ctx = ExperimentContext::quick(72);
    let scenario = ctx.scaled(Scenario::scenario_6());
    let frames = scenario.num_frames();
    let cut = scenario
        .backgrounds()
        .iter()
        .map(|b| (b.start * frames as f64).round() as u64)
        .find(|&f| f > 0 && f < frames as u64 - 8)
        .expect("scenario 6 has a mid-video background change");
    let end = (cut + 6).min(frames as u64);
    let windows = [AcceleratorId::Gpu, AcceleratorId::Dla0, AcceleratorId::Dla1]
        .map(|accelerator| FaultWindow {
            kind: FaultKind::Dropout(accelerator),
            start_frame: cut,
            end_frame: end,
        })
        .to_vec();
    let plan = FaultPlan::from_windows(frames as u64, windows);
    let mut runtime = ShiftRuntime::new(ctx.engine(), ctx.characterization(), paper_shift_config())
        .expect("runtime builds")
        .with_fault_plan(plan);
    let outcomes = runtime.run(scenario.stream()).expect("run completes");
    assert_eq!(outcomes.len(), frames);
    // Every frame of the outage — including the boundary frame itself —
    // executed on the one accelerator that stayed online.
    for outcome in &outcomes[cut as usize..end as usize] {
        assert_eq!(
            outcome.pair.accelerator,
            AcceleratorId::OakD,
            "frame {} must degrade to the surviving accelerator",
            outcome.frame_index
        );
    }
    let counters = runtime.resilience();
    assert_eq!(counters.fault_frames, end - cut);
    // After recovery the scheduler is free to leave the OAK-D again; the
    // run ends with every scripted edge replayed.
    assert!(runtime
        .fault_injector()
        .expect("injector attached")
        .is_done());
}

#[test]
fn stable_scene_dropout_forces_a_replan_and_recovery() {
    // On a stable scene the similarity gate keeps the incumbent pair frame
    // after frame — so when the incumbent's accelerator drops out, the
    // runtime must *force* the full Algorithm 1 pass (the gate alone would
    // never run it) and degrade to the one accelerator left online.
    let ctx = ExperimentContext::quick(74);
    let scenario = ctx.scaled(Scenario::scenario_1());
    let frames = scenario.num_frames() as u64;
    assert!(frames > 40, "need room for a mid-run window");
    let (start, end) = (20u64, 32u64);
    let windows = [AcceleratorId::Gpu, AcceleratorId::Dla0, AcceleratorId::Dla1]
        .map(|accelerator| FaultWindow {
            kind: FaultKind::Dropout(accelerator),
            start_frame: start,
            end_frame: end,
        })
        .to_vec();
    let plan = FaultPlan::from_windows(frames, windows);
    let mut runtime = ShiftRuntime::new(ctx.engine(), ctx.characterization(), paper_shift_config())
        .expect("runtime builds")
        .with_fault_plan(plan);
    let outcomes = runtime.run(scenario.stream()).expect("run completes");
    // The hard long-range scenario keeps SHIFT on a host engine before the
    // window (if this ever fails, the fault below could be a free move).
    assert_ne!(
        outcomes[start as usize - 1].pair.accelerator,
        AcceleratorId::OakD,
        "precondition: the incumbent sits on a host accelerator"
    );
    for outcome in &outcomes[start as usize..end as usize] {
        assert_eq!(outcome.pair.accelerator, AcceleratorId::OakD);
    }
    let counters = runtime.resilience();
    assert!(
        counters.fault_replans > 0,
        "losing the incumbent's accelerator must force a re-plan"
    );
    assert_eq!(counters.fault_frames, end - start);
    // Recovery: the injector restored every accelerator (whether the
    // scheduler migrates back is its own cost call — a confident cheap pair
    // may legitimately keep the similarity gate closed), and the stream
    // kept detecting across the outage.
    for accelerator in [AcceleratorId::Gpu, AcceleratorId::Dla0, AcceleratorId::Dla1] {
        assert!(
            runtime.engine().is_online(accelerator),
            "{accelerator} restored"
        );
    }
    let mean_iou = outcomes.iter().map(|o| o.iou).sum::<f64>() / outcomes.len() as f64;
    assert!(
        mean_iou > 0.2,
        "faulted run went blind: mean IoU {mean_iou}"
    );
}

#[test]
fn fault_plan_longer_than_the_video_is_harmless() {
    // A plan laid out over 10x the video length: windows past the end are
    // simply never reached, and the run must complete with the injector
    // still holding unplayed edges.
    let ctx = ExperimentContext::quick(73);
    let scenario = ctx.scaled(Scenario::scenario_2());
    let frames = scenario.num_frames() as u64;
    let plan = FaultPlan::generate(5, &FaultSpec::dropout_storm(frames * 10));
    assert!(
        plan.windows().iter().any(|w| w.start_frame >= frames),
        "the long plan must script windows past the video"
    );
    let mut runtime = ShiftRuntime::new(ctx.engine(), ctx.characterization(), paper_shift_config())
        .expect("runtime builds")
        .with_fault_plan(plan);
    let outcomes = runtime.run(scenario.stream()).expect("run completes");
    assert_eq!(outcomes.len(), frames as usize);
    let injector = runtime.fault_injector().expect("injector attached");
    assert!(
        !injector.is_done(),
        "edges beyond the video must remain unplayed"
    );
    assert!(
        injector.plan().horizon_frames() >= frames * 10,
        "the plan outlives the video by construction"
    );
}
