//! Determinism and property-based integration tests.
//!
//! Every experiment in this repository must be exactly reproducible from its
//! seed: the synthetic video, the detection responses, the SoC costs and the
//! scheduler's decisions are all pure functions of (seed, configuration).

use proptest::prelude::*;
use shift_baselines::{MarlinConfig, OracleObjective};
use shift_core::fleet::{FleetConfig, FleetRuntime, StreamSpec};
use shift_core::{characterize, ShiftConfig, ShiftRuntime};
use shift_experiments::workloads::paper_shift_config;
use shift_experiments::ExperimentContext;
use shift_metrics::{FLEET_CSV_HEADER, STREAM_CSV_HEADER};
use shift_models::{ModelZoo, ResponseModel};
use shift_soc::{ExecutionEngine, Platform};
use shift_video::{BoundingBox, CharacterizationDataset, GrayImage, Scenario};

#[test]
fn identical_seeds_produce_identical_shift_runs() {
    let run = |seed: u64| {
        let engine = ExecutionEngine::new(
            Platform::xavier_nx_with_oak(),
            ModelZoo::standard(),
            ResponseModel::new(seed),
        );
        let characterization = characterize(&engine, &CharacterizationDataset::generate(150, seed));
        let mut runtime =
            ShiftRuntime::new(engine, &characterization, ShiftConfig::paper_defaults())
                .expect("runtime builds");
        runtime
            .run(Scenario::scenario_1().with_num_frames(120).stream())
            .expect("run completes")
    };
    assert_eq!(run(42), run(42));
    assert_ne!(run(42), run(43), "different seeds should differ somewhere");
}

#[test]
fn identical_contexts_produce_identical_baseline_runs() {
    let ctx_a = ExperimentContext::quick(7);
    let ctx_b = ExperimentContext::quick(7);
    let scenario_a = ctx_a.scaled(Scenario::scenario_2());
    let scenario_b = ctx_b.scaled(Scenario::scenario_2());
    assert_eq!(
        ctx_a
            .run_marlin(&scenario_a, MarlinConfig::standard())
            .unwrap(),
        ctx_b
            .run_marlin(&scenario_b, MarlinConfig::standard())
            .unwrap()
    );
    assert_eq!(
        ctx_a
            .run_oracle(&scenario_a, OracleObjective::Energy)
            .unwrap(),
        ctx_b
            .run_oracle(&scenario_b, OracleObjective::Energy)
            .unwrap()
    );
    assert_eq!(
        ctx_a.run_shift(&scenario_a, paper_shift_config()).unwrap(),
        ctx_b.run_shift(&scenario_b, paper_shift_config()).unwrap()
    );
}

/// Golden determinism: serialize the complete single-stream
/// [`FrameOutcome`] sequence, the complete fleet outcome sequence and the
/// fleet summary CSV from fixed seeds, twice, and require the bytes to be
/// identical. Any nondeterminism anywhere in the stack (iteration order,
/// uninitialized state, float reassociation) shows up here as a byte diff.
///
/// [`FrameOutcome`]: shift_core::FrameOutcome
#[test]
fn golden_serialized_output_is_byte_identical_across_runs() {
    let run = || -> (String, String, String) {
        let ctx = ExperimentContext::quick(77);

        // Single-stream runtime: the full debug serialization of every
        // outcome field (pairs, detections, confidences, costs).
        let scenario = ctx.scaled(Scenario::scenario_1());
        let mut runtime =
            ShiftRuntime::new(ctx.engine(), ctx.characterization(), paper_shift_config())
                .expect("runtime builds");
        let outcomes = runtime.run(scenario.stream()).expect("run completes");
        let shift_bytes = format!("{outcomes:?}");

        // Fleet runtime: the raw fleet outcomes...
        let specs = shift_experiments::fleet::stream_specs(&ctx, 3);
        let mut fleet = FleetRuntime::new(
            ctx.engine(),
            ctx.characterization(),
            FleetConfig::round_robin(),
            specs,
        )
        .expect("fleet builds");
        let fleet_bytes = format!("{:?}", fleet.run_to_completion().expect("fleet completes"));

        // ...and the aggregated per-stream + fleet summary CSV.
        let point = shift_experiments::fleet::run_fleet(&ctx, 3).expect("fleet runs");
        let mut csv = String::from(STREAM_CSV_HEADER);
        csv.push('\n');
        for stream in &point.per_stream {
            csv.push_str(&stream.csv_row());
            csv.push('\n');
        }
        csv.push_str(FLEET_CSV_HEADER);
        csv.push('\n');
        csv.push_str(&point.fleet.csv_row());
        (shift_bytes, fleet_bytes, csv)
    };
    let (shift_a, fleet_a, csv_a) = run();
    let (shift_b, fleet_b, csv_b) = run();
    assert_eq!(
        shift_a, shift_b,
        "single-stream serialization must not drift"
    );
    assert_eq!(fleet_a, fleet_b, "fleet serialization must not drift");
    assert_eq!(csv_a, csv_b, "fleet summary CSV must not drift");
    // The golden strings are non-trivial (real frames, real columns).
    assert!(shift_a.len() > 1000);
    assert!(fleet_a.len() > 1000);
    assert!(
        csv_a.lines().count() == 3 + 3,
        "3 stream rows + 2 headers + 1 fleet row"
    );
}

/// A batch fleet of one reproduces the caller-fed single-stream
/// [`ShiftRuntime`] frame-for-frame, byte-for-byte: the two drive the same
/// per-frame phases, one stepping its own scenario on the fleet tick, the
/// other fed frame by frame on the frame index.
#[test]
fn fleet_of_one_on_the_des_core_is_bit_identical_to_shift_runtime() {
    let ctx = ExperimentContext::quick(77);
    let scenario = ctx.scaled(Scenario::scenario_3());
    let mut runtime = ShiftRuntime::new(ctx.engine(), ctx.characterization(), paper_shift_config())
        .expect("runtime builds");
    let single = runtime.run(scenario.stream()).expect("run completes");
    let specs = vec![StreamSpec::new("solo", scenario, paper_shift_config())];
    let mut fleet = FleetRuntime::new(
        ctx.engine(),
        ctx.characterization(),
        FleetConfig::round_robin(),
        specs,
    )
    .expect("fleet builds");
    let outcomes = fleet.run_to_completion().expect("fleet completes");
    assert_eq!(outcomes.len(), single.len());
    for o in &outcomes {
        assert_eq!(o.queue_wait_s, 0.0, "a fleet of one never self-contends");
    }
    let frames: Vec<_> = outcomes.into_iter().map(|o| o.outcome).collect();
    assert_eq!(
        format!("{frames:?}").into_bytes(),
        format!("{single:?}").into_bytes(),
        "a fleet of one must serialize identically to ShiftRuntime"
    );
}

/// The `repro -- fleet`, `repro -- stress` and `repro -- chaos` artifact
/// bytes do not depend on the executor's worker count: a sequential run and
/// a two-worker run render byte-identical artifacts.
#[test]
fn des_refactor_leaves_fleet_stress_chaos_artifact_bytes_unchanged() {
    use shift_experiments::chaos::{self, ChaosOptions};
    use shift_experiments::stress::{self, StressOptions};
    let ctx_for = |jobs: usize| ExperimentContext::quick(91).with_jobs(jobs);
    let fleet_csv = |jobs: usize| {
        let point = shift_experiments::fleet::run_fleet(&ctx_for(jobs), 3).expect("fleet runs");
        let mut csv = String::from(STREAM_CSV_HEADER);
        csv.push('\n');
        for stream in &point.per_stream {
            csv.push_str(&stream.csv_row());
            csv.push('\n');
        }
        csv.push_str(FLEET_CSV_HEADER);
        csv.push('\n');
        csv.push_str(&point.fleet.csv_row());
        csv
    };
    assert_eq!(
        fleet_csv(1).into_bytes(),
        fleet_csv(2).into_bytes(),
        "fleet artifact bytes must not depend on the worker count"
    );
    let stress_csv = |jobs: usize| {
        stress::summary_csv(&ctx_for(jobs), &StressOptions::smoke()).expect("stress summary")
    };
    assert_eq!(
        stress_csv(1).into_bytes(),
        stress_csv(2).into_bytes(),
        "stress artifact bytes must not depend on the worker count"
    );
    let chaos_csv = |jobs: usize| {
        chaos::summary_csv(&ctx_for(jobs), &ChaosOptions::smoke()).expect("chaos summary")
    };
    assert_eq!(
        chaos_csv(1).into_bytes(),
        chaos_csv(2).into_bytes(),
        "chaos artifact bytes must not depend on the worker count"
    );
}

/// Golden determinism for the stress artifact: the generated workload
/// sweep's complete summary CSV — per-scenario rows over the difficulty
/// grid, then the fleet-soak stream and fleet blocks — must be byte-identical
/// across runs, locking the procedural scenario space bit-for-bit like the
/// fleet artifact.
#[test]
fn golden_stress_summary_csv_is_byte_identical_across_runs() {
    use shift_experiments::stress::{self, StressOptions};
    let run = || {
        let ctx = ExperimentContext::quick(91);
        stress::summary_csv(&ctx, &StressOptions::smoke()).expect("stress summary builds")
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "stress summary CSV must not drift");
    assert!(
        a.starts_with(shift_metrics::SCENARIO_CSV_HEADER),
        "sweep block leads the summary"
    );
    let classes = shift_video::ScenarioLibrary::standard().len();
    let methods = stress::METHODS.len();
    let streams = StressOptions::smoke().soak_streams;
    // One line per (scenario, method) + soak stream rows + fleet row + the
    // three headers.
    assert_eq!(
        a.lines().count(),
        classes * methods + streams + 1 + 3,
        "unexpected summary shape"
    );
    // Every generated-scenario name encodes the context seed.
    assert!(
        a.contains("-s91-r0,"),
        "scenario names must encode the seed"
    );
}

/// Golden determinism for the chaos artifact: the fault-plan × scenario
/// resilience CSV must be byte-identical across repeat invocations *and*
/// across `--jobs 1/2/4/8` — the acceptance contract of the deterministic
/// fault-injection subsystem. Each cell owns an independent engine and
/// fault injector, so any cross-cell fault leakage or worker-dependent
/// injector state shows up here as a diff.
#[test]
fn golden_chaos_resilience_csv_is_byte_identical_across_runs_and_jobs() {
    use shift_experiments::chaos::{self, ChaosOptions};
    let options = ChaosOptions::smoke();
    let run = |jobs: usize| {
        let ctx = ExperimentContext::quick(93).with_jobs(jobs);
        chaos::summary_csv(&ctx, &options).expect("chaos summary builds")
    };
    let sequential = run(1);
    assert_eq!(sequential, run(1), "chaos summary CSV must not drift");
    for jobs in [2, 4, 8] {
        assert_eq!(
            run(jobs),
            sequential,
            "chaos CSV must be byte-identical at --jobs {jobs}"
        );
    }
    assert!(sequential.starts_with(shift_metrics::RESILIENCE_CSV_HEADER));
    // One line per (plan, scenario, method) cell plus the header.
    assert_eq!(
        sequential.lines().count(),
        options.plans * options.scenarios * chaos::METHODS.len() + 1,
        "unexpected chaos summary shape"
    );
    // The healthy control rows record no fault exposure.
    for line in sequential
        .lines()
        .skip(1)
        .filter(|l| l.starts_with("healthy,"))
    {
        let fault_frames: usize = line
            .split(',')
            .nth(5)
            .expect("fault_frames column")
            .parse()
            .expect("numeric fault_frames");
        assert_eq!(
            fault_frames, 0,
            "healthy plan must not expose faults: {line}"
        );
    }
}

/// Golden determinism for the hunt artifact: the coverage-guided
/// adversarial search's complete findings CSV must be byte-identical across
/// repeat invocations and across `--jobs 1/2/4/8` — the mutate → evaluate →
/// bucket → minimize loop is pure in `(context, options)` by construction,
/// and any worker-count-dependent fold order shows up here as a byte diff.
#[test]
fn golden_hunt_findings_csv_is_byte_identical_across_runs_jobs_and_modes() {
    use shift_experiments::search::{self, HuntOptions};
    let options = HuntOptions::smoke();
    let run = |jobs: usize| {
        let ctx = ExperimentContext::quick(42).with_jobs(jobs);
        search::summary_csv(&ctx, &options).expect("hunt summary builds")
    };
    let sequential = run(1);
    assert_eq!(sequential, run(1), "hunt findings CSV must not drift");
    for jobs in [2, 4, 8] {
        assert_eq!(
            run(jobs),
            sequential,
            "hunt CSV must be byte-identical at --jobs {jobs}"
        );
    }
    assert!(sequential.starts_with(shift_metrics::HUNT_CSV_HEADER));
    // Seed 42 deterministically catches failures the fixed stress grid
    // cannot express (its scenarios all run on a healthy platform).
    assert!(
        sequential.lines().count() > 1,
        "the smoke hunt at seed 42 must catch at least one finding"
    );
}

/// The parallel experiment executor must be invisible in every artifact:
/// `--jobs 1/2/4/8` produce byte-identical stress summary CSVs and identical
/// fleet scaling outcomes. Any worker-count-dependent behaviour anywhere in
/// the executor (result reordering, lost or duplicated cells, cross-cell
/// state leaks) shows up here as a diff against the sequential path.
#[test]
fn parallel_executor_jobs_do_not_change_artifacts() {
    use shift_experiments::stress::{self, StressOptions};
    let stress_summary = |jobs: usize| {
        let ctx = ExperimentContext::quick(91).with_jobs(jobs);
        stress::summary_csv(&ctx, &StressOptions::smoke()).expect("stress summary builds")
    };
    let fleet_points = |jobs: usize| {
        let ctx = ExperimentContext::quick(91).with_jobs(jobs);
        shift_experiments::fleet::scaling(&ctx, &[1, 2]).expect("fleet scaling runs")
    };
    let sequential_csv = stress_summary(1);
    let sequential_fleet = fleet_points(1);
    for jobs in [2, 4, 8] {
        assert_eq!(
            stress_summary(jobs),
            sequential_csv,
            "stress summary CSV must be byte-identical at --jobs {jobs}"
        );
        assert_eq!(
            fleet_points(jobs),
            sequential_fleet,
            "fleet outcomes must be identical at --jobs {jobs}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Executor property: for any cell count, worker count and
    /// (deterministically pseudo-random) per-cell workload, the parallel
    /// reduction equals the sequential one, cell for cell.
    #[test]
    fn executor_reduction_matches_sequential_for_any_job_count(
        seed in 0u64..1000,
        cells in 1usize..80,
        jobs in 2usize..12,
    ) {
        use shift_experiments::executor::run_cells;
        let inputs: Vec<u64> = (0..cells as u64).map(|i| i.wrapping_mul(seed + 1)).collect();
        let work = |index: usize, &input: &u64| {
            // A branchy, unevenly sized workload: heavier cells spin longer,
            // so workers finish out of order and stealing actually happens.
            let rounds = (input % 97) * 50 + 1;
            let mut acc = input ^ index as u64;
            for round in 0..rounds {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(round);
            }
            (index, acc)
        };
        let sequential = run_cells(1, &inputs, work);
        let parallel = run_cells(jobs, &inputs, work);
        prop_assert_eq!(parallel, sequential);
    }

    /// IoU is symmetric, bounded and equals 1 only for identical boxes.
    #[test]
    fn iou_properties(
        ax in -50.0..150.0f64, ay in -50.0..150.0f64,
        aw in 1.0..80.0f64, ah in 1.0..80.0f64,
        bx in -50.0..150.0f64, by in -50.0..150.0f64,
        bw in 1.0..80.0f64, bh in 1.0..80.0f64,
    ) {
        let a = BoundingBox::new(ax, ay, aw, ah);
        let b = BoundingBox::new(bx, by, bw, bh);
        let ab = a.iou(&b);
        let ba = b.iou(&a);
        prop_assert!((ab - ba).abs() < 1e-9);
        prop_assert!((0.0..=1.0).contains(&ab));
        prop_assert!((a.iou(&a) - 1.0).abs() < 1e-9);
    }

    /// NCC stays within [-1, 1] and self-correlation is 1 for any textured image.
    #[test]
    fn ncc_properties(seed in 0u64..1000, width in 4usize..32, height in 4usize..32) {
        let img = GrayImage::from_fn(width, height, |x, y| {
            let v = (x as f32 * 13.7 + y as f32 * 7.3 + seed as f32).sin() * 0.5 + 0.5;
            v.clamp(0.0, 1.0)
        });
        let other = GrayImage::from_fn(width, height, |x, y| {
            let v = (x as f32 * 3.1 + y as f32 * 11.9 + seed as f32 * 2.0).cos() * 0.5 + 0.5;
            v.clamp(0.0, 1.0)
        });
        let self_corr = shift_video::ncc(&img, &img).unwrap();
        let cross = shift_video::ncc(&img, &other).unwrap();
        prop_assert!((self_corr - 1.0).abs() < 1e-6);
        prop_assert!((-1.0..=1.0).contains(&cross));
    }

    /// The detection response never reports IoU outside [0, 1] against truth,
    /// and confidence stays in [0, 1], for any scenario frame and model.
    #[test]
    fn response_model_outputs_are_bounded(
        seed in 0u64..500,
        frame_index in 0usize..120,
        model_index in 0usize..8,
    ) {
        let zoo = ModelZoo::standard();
        let spec = &zoo.specs()[model_index];
        let response = ResponseModel::new(seed);
        let scenario = Scenario::scenario_5().with_num_frames(120).with_seed(seed);
        let frame = scenario.stream().frame_at(frame_index).expect("frame exists");
        let result = response.infer(spec, &frame);
        let iou = result.iou_against(frame.truth.as_ref());
        prop_assert!((0.0..=1.0).contains(&iou));
        prop_assert!((0.0..=1.0).contains(&result.confidence()));
    }

    /// Run summaries preserve basic accounting identities for arbitrary
    /// record sets.
    #[test]
    fn summary_invariants(ious in proptest::collection::vec(0.0..1.0f64, 1..50)) {
        use shift_metrics::{FrameRecord, RunSummary};
        use shift_models::ModelId;
        use shift_soc::AcceleratorId;
        let records: Vec<FrameRecord> = ious
            .iter()
            .enumerate()
            .map(|(i, &iou)| {
                FrameRecord::new(i, ModelId::YoloV7, AcceleratorId::Gpu, iou, 0.1, 1.0, i % 7 == 0)
            })
            .collect();
        let summary = RunSummary::from_records("prop", &records);
        prop_assert_eq!(summary.frames, records.len());
        prop_assert!((0.0..=1.0).contains(&summary.mean_iou));
        prop_assert!((0.0..=1.0).contains(&summary.success_rate));
        prop_assert!(summary.total_energy_j >= summary.mean_energy_j);
        prop_assert!(summary.pairs_used == 1);
    }
}
