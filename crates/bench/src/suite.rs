//! The named micro-benchmark suite over SHIFT's hot paths.
//!
//! The suite measures a fixed set of named hot paths and reduces each to
//! one [`TimingRow`], which [`snapshot`](crate::snapshot) serializes to
//! `BENCH_micro.json` and [`compare`](crate::compare) gates in CI.
//!
//! The benches mirror the operations the paper's "< 2 ms/frame
//! decision overhead" claim decomposes into, plus the two shared-resource
//! paths the fleet runtime added:
//!
//! | name | hot path |
//! |---|---|
//! | `confidence_graph/predict` | the per-frame accuracy map lookup |
//! | `scheduler/argmax` | the full Algorithm 1 re-scheduling pass |
//! | `ncc/context_detect` | the NCC context-similarity computation, with the serial whole-frame NCC of two frames rendered one at a time from two scenario values of equal content, so that no NCC memo answers it |
//! | `ncc/region` | the bbox-crop NCC through the reusable region scratch |
//! | `similarity/frame` | the stateless full-frame + crop similarity helper, on the same unlinked, unmemoized frames |
//! | `loader/lru_churn` | an LRU load + eviction cycle under memory pressure |
//! | `fleet/step` | one shared-SoC fleet scheduling step (3 streams); `ShiftRuntime::process_frame` runs this loop on a one-slot fleet, so the row also covers the whole-frame cost behind the "< 2 ms" claim. Three streams never have the four pending frame pairs a lane pass needs, so every whole-frame NCC here takes the serial loop |
//! | `fleet/step_adversarial` | the same step over the worst-case fleet: the minimized hunt-corpus scenarios under a scripted fault plan. The committed corpus gives five streams of one frame size, which link their pending pairs into lane passes; the three-stream synthetic stand-in takes the serial loop. Each rebuild of the fleet plays fresh scenario values, so no step reads an NCC memo an earlier build filled |

use shift_core::fleet::{FleetBuilder, StreamSpec};
use shift_core::{
    characterize, CandidatePair, Characterization, ConfidenceGraph, ContextDetector,
    DynamicModelLoader, GraphConfig, Scheduler, ShiftConfig,
};
use shift_metrics::TimingRow;
use shift_models::{ModelId, ModelZoo, ResponseModel};
use shift_soc::{AcceleratorId, ExecutionEngine, FaultPlan, FaultSpec, Platform};
use shift_video::{CharacterizationDataset, Scenario};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// The suite's bench names, in run order. Stable: the CI gate keys on them.
pub const BENCH_NAMES: [&str; 8] = [
    "confidence_graph/predict",
    "scheduler/argmax",
    "ncc/context_detect",
    "ncc/region",
    "similarity/frame",
    "loader/lru_churn",
    "fleet/step",
    "fleet/step_adversarial",
];

/// The stream set and scripted fault plan behind `fleet/step_adversarial`.
///
/// `repro -- bench` derives one from the committed hunt regression corpus
/// (`tests/corpus/*.case`), so the gated number tracks the nastiest known
/// workloads; [`synthetic`](Self::synthetic) is the built-in fallback with
/// the same shape for contexts that cannot reach the corpus files.
#[derive(Debug, Clone)]
pub struct AdversarialFixture {
    /// Streams of the worst-case fleet.
    pub specs: Vec<StreamSpec>,
    /// The fault plan the fleet steps under, scripted over the fleet's
    /// tick clock (total frames admitted across streams).
    pub plan: FaultPlan,
}

impl AdversarialFixture {
    /// A corpus-shaped fallback: hard scenario presets under a mixed fault
    /// plan (dropouts + DVFS clamp + memory squeeze + telemetry glitches)
    /// spanning the whole run. Pure in `(seed, frames)`.
    pub fn synthetic(seed: u64, frames: usize) -> Self {
        let specs: Vec<StreamSpec> = [
            Scenario::scenario_2(),
            Scenario::scenario_4(),
            Scenario::scenario_6(),
        ]
        .into_iter()
        .enumerate()
        .map(|(i, scenario)| {
            StreamSpec::new(
                format!("adv-s{i}"),
                scenario.with_num_frames(frames),
                ShiftConfig::paper_defaults().with_accuracy_goal(0.2),
            )
        })
        .collect();
        let horizon = (frames * specs.len()) as u64;
        let plan = FaultPlan::generate(seed ^ 0xADE5, &FaultSpec::mixed(horizon));
        Self { specs, plan }
    }
}

/// Suite sizing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SuiteOptions {
    /// Timed batches per bench.
    pub samples: usize,
    /// Wall-clock budget per batch; the per-batch iteration count is
    /// calibrated so one batch roughly fills it.
    pub sample_budget: Duration,
    /// Characterization-set size for the graph/scheduler fixtures.
    pub characterization_samples: usize,
    /// Frames per stream in the fleet fixture.
    pub fleet_frames: usize,
}

impl SuiteOptions {
    /// Full fidelity: the mode for locally tracked numbers.
    pub fn full() -> Self {
        Self {
            samples: 15,
            sample_budget: Duration::from_millis(10),
            characterization_samples: 400,
            fleet_frames: 600,
        }
    }

    /// Reduced CI mode (`repro -- bench --smoke`): the whole suite completes
    /// in well under a second.
    pub fn smoke() -> Self {
        Self {
            samples: 5,
            sample_budget: Duration::from_millis(2),
            characterization_samples: 150,
            fleet_frames: 200,
        }
    }
}

/// The engine every bench fixture runs on.
fn bench_engine(seed: u64) -> ExecutionEngine {
    ExecutionEngine::new(
        Platform::xavier_nx_with_oak(),
        ModelZoo::standard(),
        ResponseModel::new(seed),
    )
}

/// A characterization of `samples` frames on [`bench_engine`].
fn bench_characterization(samples: usize, seed: u64) -> Characterization {
    characterize(
        &bench_engine(seed),
        &CharacterizationDataset::generate(samples, seed),
    )
}

/// Times `op`: one calibration call picks the per-batch iteration count,
/// then `options.samples` batches run and the minimum batch mean wins (see
/// [`TimingRow`] for why the minimum).
fn measure(name: &str, options: &SuiteOptions, mut op: impl FnMut()) -> TimingRow {
    let start = Instant::now();
    op();
    let once = start.elapsed().max(Duration::from_nanos(25));
    let iters = (options.sample_budget.as_nanos() / once.as_nanos()).clamp(1, 1_000_000) as u64;
    let mut best = f64::INFINITY;
    for _ in 0..options.samples.max(1) {
        let start = Instant::now();
        for _ in 0..iters {
            op();
        }
        let per_op = start.elapsed().as_nanos() as f64 / iters as f64;
        best = best.min(per_op);
    }
    TimingRow::new(name, best, options.samples.max(1), iters)
}

/// Runs the whole suite with the built-in synthetic adversarial fixture.
/// See [`run_suite_with`] for the corpus-driven variant `repro -- bench`
/// uses.
pub fn run_suite(seed: u64, options: &SuiteOptions) -> Vec<TimingRow> {
    let fixture = AdversarialFixture::synthetic(seed, options.fleet_frames);
    run_suite_with(seed, options, &fixture)
}

/// Runs the whole suite and returns one row per [`BENCH_NAMES`] entry, in
/// order. Timings are hardware-dependent; everything else about the rows
/// (names, count, order) is stable. `fixture` supplies the worst-case
/// fleet behind `fleet/step_adversarial`.
pub fn run_suite_with(
    seed: u64,
    options: &SuiteOptions,
    fixture: &AdversarialFixture,
) -> Vec<TimingRow> {
    let characterization = bench_characterization(options.characterization_samples, seed);
    let graph = ConfidenceGraph::build(&characterization.samples, GraphConfig::paper_defaults());
    let mut rows = Vec::with_capacity(BENCH_NAMES.len());

    // confidence_graph/predict — the "map lookup at runtime" the paper
    // substitutes for costly classifiers.
    rows.push(measure(BENCH_NAMES[0], options, || {
        black_box(graph.predict(ModelId::YoloV7, black_box(0.6)));
    }));

    // scheduler/argmax — the full Algorithm 1 pass via the core hook that
    // bypasses the similarity gate.
    let mut scheduler = Scheduler::new(
        ShiftConfig::paper_defaults(),
        &characterization,
        graph.clone(),
    )
    .expect("bench scheduler builds");
    let current = CandidatePair::new(ModelId::YoloV7, AcceleratorId::Gpu);
    rows.push(measure(BENCH_NAMES[1], options, || {
        black_box(scheduler.force_reschedule(black_box(current), 0.55, 0.1));
    }));

    // ncc/context_detect — the per-frame similarity (full-frame NCC plus the
    // bbox-crop NCC) at the standard 64 px evaluation resolution. The two
    // frames are rendered one at a time with `frame_at`, each from a
    // scenario value of its own with equal content, so every call times the
    // serial whole-frame NCC, the path fleets and unlinked pairs run. Frames
    // from the stream iterator would share a block record, and two frames of
    // one scenario value would share its NCC memo: every call after the
    // first would time a lookup.
    let frames: Vec<_> = (0..2)
        .filter_map(|i| {
            let scenario = Scenario::scenario_1().with_num_frames(2);
            scenario.stream().frame_at(i)
        })
        .collect();
    let mut detector = ContextDetector::new();
    detector.update(&frames[0], frames[0].truth.as_ref());
    rows.push(measure(BENCH_NAMES[2], options, || {
        black_box(detector.similarity(&frames[1], frames[1].truth.as_ref()));
    }));

    // ncc/region — the bbox-crop NCC alone, through the reusable scratch
    // (fused crop + 16x16 resize, no per-call allocation), on the same two
    // frames.
    let prev_bbox = frames[0].truth.expect("scenario 1 has ground truth");
    let cur_bbox = frames[1].truth.expect("scenario 1 has ground truth");
    let mut region = shift_video::RegionNcc::new();
    rows.push(measure(BENCH_NAMES[3], options, || {
        black_box(region.ncc_regions(
            &frames[0].image,
            black_box(&prev_bbox),
            &frames[1].image,
            black_box(&cur_bbox),
        ));
    }));

    // similarity/frame — the stateless convenience helper (full-frame NCC +
    // allocating region path), the cost a caller pays without the detector's
    // scratch reuse. Its full-frame term is the serial NCC, as in
    // ncc/context_detect, because the frames are linked to no block and
    // share no NCC memo.
    rows.push(measure(BENCH_NAMES[4], options, || {
        black_box(shift_video::frame_similarity(
            &frames[0].image,
            black_box(&prev_bbox),
            &frames[1].image,
            black_box(&cur_bbox),
        ));
    }));

    // loader/lru_churn — cycling four large models through the 1536 MB GPU
    // pool; the cycle does not fit, so steady state is one eviction + one
    // load per call.
    let mut engine = bench_engine(seed);
    let mut loader = DynamicModelLoader::new();
    let churn = [
        ModelId::YoloV7E6E,
        ModelId::YoloV7X,
        ModelId::SsdResnet50,
        ModelId::YoloV7,
    ];
    let mut next = 0usize;
    rows.push(measure(BENCH_NAMES[5], options, || {
        let model = churn[next % churn.len()];
        next += 1;
        black_box(
            loader
                .ensure_loaded(&mut engine, CandidatePair::new(model, AcceleratorId::Gpu))
                .expect("churn models fit an empty pool"),
        );
    }));

    // fleet/step — one scheduling step of a 3-stream fleet on one shared
    // SoC. The fixture is rebuilt when its streams are exhausted; the rebuild
    // lands inside at most one batch and the minimum estimator discards it.
    let build_fleet = || {
        let specs = [
            Scenario::scenario_1(),
            Scenario::scenario_3(),
            Scenario::scenario_5(),
        ]
        .into_iter()
        .enumerate()
        .map(|(i, scenario)| {
            StreamSpec::new(
                format!("bench-s{i}"),
                scenario.with_num_frames(options.fleet_frames),
                ShiftConfig::paper_defaults().with_accuracy_goal(0.2),
            )
        })
        .collect::<Vec<_>>();
        FleetBuilder::new(bench_engine(seed), &characterization)
            .streams(specs)
            .build()
            .expect("bench fleet builds")
    };
    let mut fleet = build_fleet();
    rows.push(measure(BENCH_NAMES[6], options, || {
        if fleet.is_done() {
            fleet = build_fleet();
        }
        black_box(fleet.step().expect("fleet step succeeds"));
    }));

    // fleet/step_adversarial — the same per-step cost over the worst-case
    // fleet: every stream is a minimized hunt-corpus scenario (or the
    // synthetic stand-in) and a scripted fault plan keeps dropping
    // accelerators, clamping DVFS and squeezing pools while the scheduler
    // re-plans around it. Same rebuild-on-exhaustion protocol as above. Each
    // build plays fresh scenario values of the fixture's content: clones
    // would share the fixture's NCC memos, and every step after a rebuild
    // would read the whole-frame NCC the last build computed.
    let build_adversarial = || {
        let specs = fixture.specs.iter().map(|spec| {
            let mut spec = spec.clone();
            let seed = spec.scenario.seed();
            spec.scenario = spec.scenario.with_seed(seed);
            spec
        });
        FleetBuilder::new(bench_engine(seed), &characterization)
            .streams(specs)
            .fault_plan(fixture.plan.clone())
            .build()
            .expect("adversarial bench fleet builds")
    };
    let mut adversarial = build_adversarial();
    rows.push(measure(BENCH_NAMES[7], options, || {
        if adversarial.is_done() {
            adversarial = build_adversarial();
        }
        black_box(adversarial.step().expect("adversarial fleet step succeeds"));
    }));

    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_options() -> SuiteOptions {
        SuiteOptions {
            samples: 2,
            sample_budget: Duration::from_micros(200),
            characterization_samples: 60,
            fleet_frames: 40,
        }
    }

    #[test]
    fn fixtures_build() {
        let engine = bench_engine(1);
        assert_eq!(engine.zoo().len(), 8);
        let characterization = bench_characterization(40, 1);
        assert_eq!(characterization.sample_count(), 40);
    }

    #[test]
    fn suite_produces_one_positive_row_per_bench_in_order() {
        let rows = run_suite(5, &tiny_options());
        assert_eq!(rows.len(), BENCH_NAMES.len());
        for (row, name) in rows.iter().zip(BENCH_NAMES) {
            assert_eq!(row.name, name);
            assert!(row.ns_per_op > 0.0, "{name} measured nothing");
            assert!(row.ns_per_op.is_finite());
            assert!(row.iters_per_sample >= 1);
        }
    }

    #[test]
    fn synthetic_adversarial_fixture_is_pure_and_faulted() {
        let a = AdversarialFixture::synthetic(7, 30);
        let b = AdversarialFixture::synthetic(7, 30);
        assert_eq!(a.plan, b.plan);
        assert_eq!(a.specs.len(), b.specs.len());
        assert!(!a.specs.is_empty());
        // The fixture must actually script faults — an empty plan would
        // degrade `fleet/step_adversarial` to a copy of `fleet/step`.
        assert_ne!(a.plan, FaultPlan::generate(7, &FaultSpec::none(90)));
    }

    #[test]
    fn suite_accepts_an_external_adversarial_fixture() {
        let options = tiny_options();
        let fixture = AdversarialFixture::synthetic(11, options.fleet_frames);
        let rows = run_suite_with(5, &options, &fixture);
        let row = rows.last().expect("suite is non-empty");
        assert_eq!(row.name, "fleet/step_adversarial");
        assert!(row.ns_per_op > 0.0);
    }

    #[test]
    fn bench_names_are_unique() {
        let unique: std::collections::BTreeSet<_> = BENCH_NAMES.iter().collect();
        assert_eq!(unique.len(), BENCH_NAMES.len());
    }

    #[test]
    fn measure_counts_every_iteration() {
        let mut calls = 0u64;
        let options = tiny_options();
        let row = measure("counted", &options, || calls += 1);
        // 1 calibration call + samples * iters.
        assert_eq!(calls, 1 + options.samples as u64 * row.iters_per_sample);
    }
}
