//! # shift-experiments
//!
//! The reproduction harness: one module per table / figure of the paper's
//! evaluation section, all driven by a shared [`ExperimentContext`] that owns
//! the simulated platform, the model zoo and the offline characterization.
//!
//! | Paper artifact | Module | What it regenerates |
//! |---|---|---|
//! | Table I   | [`table1`] | CPU/GPU/DLA latency, power and energy for three representative models |
//! | Table III | [`table3`] | SHIFT vs Marlin vs the Oracles over the six evaluation scenarios |
//! | Table IV  | [`table4`] | Accuracy and per-accelerator performance traits of all eight models |
//! | Fig. 1    | [`fig1`]   | The energy–accuracy–latency trade-off of single- vs multi-model zoos |
//! | Fig. 2    | [`fig2`]   | Per-model detection efficiency (IoU/J) over a test scenario |
//! | Fig. 3    | [`fig3`]   | Scenario 1 timeline with SHIFT's model switches |
//! | Fig. 4    | [`fig4`]   | Scenario 2 timeline with SHIFT's model switches |
//! | Fig. 5    | [`fig5`]   | Sensitivity of accuracy/energy/latency to the six SHIFT parameters |
//! | §VI claim | [`headline`] | The up-to-7.5x energy and 2.8x latency headline ratios |
//!
//! Beyond the published artifacts, [`ablations`] quantifies the design
//! choices the paper argues for but does not tabulate: the confidence graph
//! vs cheaper accuracy predictors, quantized single-model deployment vs
//! multi-model scheduling, platform DVFS power modes, and the offloading /
//! input-scaling / frame-skipping policies from the related-work discussion.
//! [`fleet`] scales past the paper's one-stream-per-SoC deployment entirely:
//! it sweeps 1 → 16 concurrent mixed-difficulty streams over one shared SoC
//! and tabulates energy/frame, tail latency, throughput and per-stream
//! accuracy-goal attainment as contention grows. [`stress`] leaves the six
//! fixed videos behind altogether: it sweeps SHIFT and the baselines over a
//! procedurally generated difficulty grid (`shift_video::generator`) and
//! soaks the fleet runtime with a generated mixed workload. [`chaos`] breaks
//! the healthy-platform assumption underneath all of them: it replays SHIFT
//! and the baselines over a deterministic fault-plan × scenario grid
//! (`shift_soc::fault` — accelerator dropouts, DVFS clamps, memory squeezes,
//! telemetry glitches) and reduces each run to a resilience row splitting
//! goal attainment by fault activity. [`search`] goes on the offensive:
//! a coverage-guided adversarial hunt that mutates scenario × fault specs
//! toward SHIFT failure signals, minimizes every catch and emits it as a
//! replayable regression-corpus case. [`serve`] runs the production shape
//! none of the above do: a long-running [`shift_core::FleetService`] fed a
//! seeded session-churn trace — attaches, degrade offers, rejections,
//! detaches and overload sheds under SLO-aware admission control — reduced
//! to one `SERVE_sessions.csv` lifecycle row per session.
//!
//! All of those sweeps fan out on [`executor`], the deterministic parallel
//! experiment executor: a work-stealing worker pool whose index-ordered
//! reduction keeps every artifact byte-identical for any worker count (the
//! `--jobs N` flag of the `repro` binary, surfaced here as
//! [`ExperimentContext::jobs`]).
//!
//! Run everything from the command line with
//! `cargo run --release -p shift-experiments --bin repro -- all`.
//!
//! ```
//! use shift_experiments::ExperimentContext;
//!
//! // `quick()` shrinks the dataset and scenarios so examples and tests run fast.
//! let ctx = ExperimentContext::quick(42);
//! let table = shift_experiments::table1::generate(&ctx);
//! assert!(table.to_markdown().contains("YoloV7"));
//! ```

#![forbid(unsafe_code)]

pub mod ablations;
pub mod chaos;
pub mod cluster;
pub mod executor;
pub mod extended;
pub mod fig1;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fleet;
pub mod headline;
pub mod search;
pub mod serve;
pub mod stress;
pub mod table1;
pub mod table3;
pub mod table4;
pub mod workloads;

use shift_baselines::{
    MarlinConfig, MarlinRuntime, OracleObjective, OracleRuntime, SingleModelRuntime,
};
use shift_core::cluster::ExecutionMode;
use shift_core::{
    characterize, Characterization, FrameOutcome, ShiftConfig, ShiftError, ShiftRuntime,
};
use shift_metrics::FrameRecord;
use shift_models::{ModelId, ModelZoo, ResponseModel};
use shift_soc::{AcceleratorId, ExecutionEngine, Platform, SocError};
use shift_video::{CharacterizationDataset, Scenario};

/// Accelerators available to the multi-accelerator methods (SHIFT and the
/// Oracles). The CPU is excluded, as in the paper's 18 schedulable pairs.
pub const MULTI_ACCELERATORS: [AcceleratorId; 4] = [
    AcceleratorId::Gpu,
    AcceleratorId::Dla0,
    AcceleratorId::Dla1,
    AcceleratorId::OakD,
];

/// Errors produced by the experiment harness.
#[derive(Debug, Clone, PartialEq)]
pub enum ExperimentError {
    /// The SHIFT runtime failed.
    Shift(ShiftError),
    /// A baseline or the SoC simulator failed.
    Soc(SocError),
}

impl std::fmt::Display for ExperimentError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExperimentError::Shift(e) => write!(f, "shift runtime error: {e}"),
            ExperimentError::Soc(e) => write!(f, "soc error: {e}"),
        }
    }
}

impl std::error::Error for ExperimentError {}

impl From<ShiftError> for ExperimentError {
    fn from(e: ShiftError) -> Self {
        ExperimentError::Shift(e)
    }
}

impl From<SocError> for ExperimentError {
    fn from(e: SocError) -> Self {
        ExperimentError::Soc(e)
    }
}

/// Shared state for all experiments: platform, zoo, response model and the
/// offline characterization (computed once and reused).
#[derive(Debug, Clone)]
pub struct ExperimentContext {
    seed: u64,
    platform: Platform,
    zoo: ModelZoo,
    response: ResponseModel,
    characterization: Characterization,
    /// The validation dataset the characterization was computed on, kept so
    /// per-platform characterizations (cluster device classes) probe the
    /// same samples. It holds frame labels, a few scalars each and no
    /// pixels, so keeping it costs next to nothing.
    dataset: CharacterizationDataset,
    /// Scenario-length scale factor in `(0, 1]`; experiments multiply each
    /// scenario's frame count by this factor (minimum 30 frames).
    scale: f64,
    /// Worker count for the parallel experiment executor (the `--jobs` flag).
    jobs: usize,
}

impl ExperimentContext {
    /// Full-fidelity context: the default validation-set size and full-length
    /// scenarios. This is what the `repro` binary and perfbench use.
    pub fn new(seed: u64) -> Self {
        Self::with_options(seed, CharacterizationDataset::default_validation(seed), 1.0)
    }

    /// Reduced context for unit/integration tests and examples: a smaller
    /// characterization set and scenarios scaled to ~8% of their length.
    pub fn quick(seed: u64) -> Self {
        Self::with_options(seed, CharacterizationDataset::generate(180, seed), 0.08)
    }

    /// Builds a context from explicit options.
    pub fn with_options(seed: u64, dataset: CharacterizationDataset, scale: f64) -> Self {
        let platform = Platform::xavier_nx_with_oak();
        let zoo = ModelZoo::standard();
        let response = ResponseModel::new(seed);
        let engine = ExecutionEngine::new(platform.clone(), zoo.clone(), response);
        let characterization = characterize(&engine, &dataset);
        Self {
            seed,
            platform,
            zoo,
            response,
            characterization,
            dataset,
            scale: scale.clamp(0.001, 1.0),
            jobs: executor::default_jobs(),
        }
    }

    /// Sets the worker count used by the parallel experiment executor. Every
    /// sweep produces byte-identical artifacts for any `jobs >= 1`; the knob
    /// only trades wall-clock time for cores.
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs.max(1);
        self
    }

    /// The executor worker count.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Always [`ExecutionMode::ReadySet`], the fleet's one inner loop. This
    /// exists only so the benchmark, which passes it to
    /// `ClusterBuilder::execution_mode`, builds unchanged.
    pub fn execution_mode(&self) -> ExecutionMode {
        ExecutionMode::ReadySet
    }

    /// The seed driving the simulation.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The scenario length scale factor.
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// The model zoo.
    pub fn zoo(&self) -> &ModelZoo {
        &self.zoo
    }

    /// The platform description.
    pub fn platform(&self) -> &Platform {
        &self.platform
    }

    /// The offline characterization shared by all experiments.
    pub fn characterization(&self) -> &Characterization {
        &self.characterization
    }

    /// A fresh execution engine (each run gets its own memory pools and
    /// telemetry so methods cannot interfere with each other).
    pub fn engine(&self) -> ExecutionEngine {
        ExecutionEngine::new(self.platform.clone(), self.zoo.clone(), self.response)
    }

    /// A fresh execution engine over an explicit platform (cluster nodes of
    /// other device classes), sharing the context's zoo and response model.
    pub fn engine_on(&self, platform: Platform) -> ExecutionEngine {
        ExecutionEngine::new(platform, self.zoo.clone(), self.response)
    }

    /// Characterizes the context's validation dataset on an explicit
    /// platform. A node only knows the models its accelerators can run, so
    /// each device class gets its own characterization over the same
    /// samples.
    pub fn characterize_on(&self, platform: Platform) -> Characterization {
        characterize(&self.engine_on(platform), &self.dataset)
    }

    /// The six evaluation scenarios, scaled by the context's scale factor.
    pub fn scenarios(&self) -> Vec<Scenario> {
        Scenario::evaluation_set()
            .into_iter()
            .map(|s| self.scaled(s))
            .collect()
    }

    /// Scales one scenario's frame count by the context's scale factor
    /// (minimum 30 frames so short runs still exercise swaps).
    pub fn scaled(&self, scenario: Scenario) -> Scenario {
        let frames = ((scenario.num_frames() as f64 * self.scale).round() as usize).max(30);
        scenario.with_num_frames(frames)
    }

    /// Runs SHIFT over a scenario and returns per-frame records.
    ///
    /// # Errors
    ///
    /// Propagates runtime construction and execution failures.
    pub fn run_shift(
        &self,
        scenario: &Scenario,
        config: ShiftConfig,
    ) -> Result<Vec<FrameRecord>, ExperimentError> {
        let mut runtime = ShiftRuntime::new(self.engine(), &self.characterization, config)?;
        let outcomes = runtime.run(scenario.stream())?;
        Ok(outcomes.iter().map(outcome_to_record).collect())
    }

    /// Runs the Marlin baseline over a scenario.
    ///
    /// # Errors
    ///
    /// Propagates execution failures.
    pub fn run_marlin(
        &self,
        scenario: &Scenario,
        config: MarlinConfig,
    ) -> Result<Vec<FrameRecord>, ExperimentError> {
        let mut runtime = MarlinRuntime::new(self.engine(), config)?;
        Ok(runtime.run(scenario.stream())?)
    }

    /// Runs a fixed single-model baseline over a scenario.
    ///
    /// # Errors
    ///
    /// Propagates execution failures.
    pub fn run_single(
        &self,
        scenario: &Scenario,
        model: ModelId,
        accelerator: AcceleratorId,
    ) -> Result<Vec<FrameRecord>, ExperimentError> {
        let mut runtime = SingleModelRuntime::new(self.engine(), model, accelerator)?;
        Ok(runtime.run(scenario.stream())?)
    }

    /// Runs one of the Oracles over a scenario.
    ///
    /// # Errors
    ///
    /// Propagates execution failures.
    pub fn run_oracle(
        &self,
        scenario: &Scenario,
        objective: OracleObjective,
    ) -> Result<Vec<FrameRecord>, ExperimentError> {
        let mut runtime = OracleRuntime::new(self.engine(), objective, &MULTI_ACCELERATORS)?;
        Ok(runtime.run(scenario.stream())?)
    }
}

/// Converts a SHIFT [`FrameOutcome`] into the runtime-agnostic
/// [`FrameRecord`] used by the metrics crate.
pub fn outcome_to_record(outcome: &FrameOutcome) -> FrameRecord {
    FrameRecord::new(
        outcome.frame_index,
        outcome.pair.model,
        outcome.pair.accelerator,
        outcome.iou,
        outcome.latency_s,
        outcome.energy_j,
        outcome.swapped,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_context_scales_scenarios_down() {
        let ctx = ExperimentContext::quick(1);
        let scenarios = ctx.scenarios();
        assert_eq!(scenarios.len(), 6);
        for s in &scenarios {
            assert!(
                s.num_frames() <= 220,
                "{} still has {} frames",
                s.name(),
                s.num_frames()
            );
            assert!(s.num_frames() >= 30);
        }
        assert!(ctx.scale() < 0.1);
        assert_eq!(ctx.seed(), 1);
        assert!(ctx.jobs() >= 1, "default jobs come from the host");
        assert_eq!(ctx.with_jobs(0).jobs(), 1, "jobs are clamped to >= 1");
    }

    #[test]
    fn context_runs_every_methodology() {
        let ctx = ExperimentContext::quick(2);
        let scenario = ctx.scaled(Scenario::scenario_3());
        let shift = ctx
            .run_shift(&scenario, ShiftConfig::paper_defaults())
            .unwrap();
        let marlin = ctx.run_marlin(&scenario, MarlinConfig::standard()).unwrap();
        let single = ctx
            .run_single(&scenario, ModelId::YoloV7, AcceleratorId::Gpu)
            .unwrap();
        let oracle = ctx.run_oracle(&scenario, OracleObjective::Energy).unwrap();
        assert_eq!(shift.len(), scenario.num_frames());
        assert_eq!(marlin.len(), scenario.num_frames());
        assert_eq!(single.len(), scenario.num_frames());
        assert_eq!(oracle.len(), scenario.num_frames());
    }

    #[test]
    fn outcome_conversion_preserves_fields() {
        let ctx = ExperimentContext::quick(3);
        let scenario = ctx.scaled(Scenario::scenario_3());
        let mut runtime = ShiftRuntime::new(
            ctx.engine(),
            ctx.characterization(),
            ShiftConfig::paper_defaults(),
        )
        .unwrap();
        let outcomes = runtime.run(scenario.stream()).unwrap();
        let records: Vec<_> = outcomes.iter().map(outcome_to_record).collect();
        assert_eq!(records.len(), outcomes.len());
        for (o, r) in outcomes.iter().zip(records.iter()) {
            assert_eq!(o.frame_index, r.frame_index);
            assert_eq!(o.pair.model, r.model);
            assert!((o.iou - r.iou).abs() < 1e-12);
        }
    }

    #[test]
    fn error_conversions() {
        let soc_err: ExperimentError = SocError::UnknownModel(ModelId::YoloV7).into();
        assert!(soc_err.to_string().contains("soc"));
        let shift_err: ExperimentError = ShiftError::NoCandidatePairs.into();
        assert!(shift_err.to_string().contains("shift runtime"));
    }
}
