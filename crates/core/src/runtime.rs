//! The end-to-end SHIFT runtime: per-frame loop combining context detection,
//! scheduling, dynamic model loading and execution on the simulated SoC.
//!
//! The per-stream half of the loop (context detection, scheduling, momentum,
//! outcome bookkeeping) lives in [`StreamAgent`]. The engine half (loading,
//! degrading around faults, inference, resilience accounting) lives in
//! [`FleetRuntime`], which multiplexes many agents over one shared engine.
//! [`ShiftRuntime`] is a fleet with one slot that its caller feeds frame by
//! frame.

use crate::characterize::Characterization;
use crate::config::ShiftConfig;
use crate::context::ContextDetector;
use crate::fleet::{FleetRuntime, StreamHandle};
use crate::scheduler::{CandidatePair, CandidateTable, Decision, Scheduler};
use crate::ShiftError;
use serde::{Deserialize, Serialize};
use shift_models::Detection;
use shift_soc::{ExecutionEngine, FaultInjector, FaultPlan, InferenceReport};
use shift_video::{Frame, GrayImage};
use std::collections::BTreeSet;

/// Everything that happened while processing one frame.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FrameOutcome {
    /// Index of the frame within its stream.
    pub frame_index: usize,
    /// The (model, accelerator) pair that executed the frame.
    pub pair: CandidatePair,
    /// The detection the model reported, if any.
    pub detection: Option<Detection>,
    /// The confidence of that detection (0 when nothing was detected).
    pub confidence: f64,
    /// IoU of the detection against ground truth (0 for misses).
    pub iou: f64,
    /// Whether the frame counts as a success (IoU >= 0.5).
    pub success: bool,
    /// End-to-end latency charged to the frame: scheduler overhead + any
    /// model-load time + inference latency, seconds.
    pub latency_s: f64,
    /// Energy charged to the frame, joules.
    pub energy_j: f64,
    /// Whether a model/accelerator swap (load) happened on this frame.
    pub swapped: bool,
    /// Whether a full re-scheduling pass ran on this frame.
    pub rescheduled: bool,
    /// The context-similarity score observed for this frame.
    pub similarity: f64,
}

/// The load cost (and swap flag) charged to one executed frame.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct LoadCharge {
    /// Model-load time charged to the frame, seconds.
    pub time_s: f64,
    /// Model-load energy charged to the frame, joules.
    pub energy_j: f64,
    /// Whether the frame performed a model/accelerator swap.
    pub swapped: bool,
}

/// Per-stream counters describing how a run observed and survived injected
/// platform faults. All zero on a healthy run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ResilienceCounters {
    /// Frames processed while at least one fault was active on the platform.
    pub fault_frames: u64,
    /// Forced full re-scheduling passes taken because the gate-kept pair's
    /// accelerator was offline *while an injected fault was active*.
    pub fault_replans: u64,
    /// Frames executed on a pair other than the one the scheduler decided
    /// because an injected fault sat on the decided pair's *own* resources —
    /// a dropped-out accelerator or a squeezed pool. (Degradation from
    /// ordinary memory contention — a fleet peer pin-blocking a pool — is
    /// not fault exposure and is deliberately not counted, even while an
    /// unrelated fault window is active.)
    pub degraded_frames: u64,
}

/// The per-stream half of the SHIFT loop: context detection, scheduling and
/// outcome bookkeeping for **one** video stream, without owning an engine.
///
/// [`FleetRuntime`] multiplexes many agents over a single shared engine;
/// [`ShiftRuntime`] is a fleet of one agent. A frame flows through an agent
/// in two phases: [`decide`](Self::decide) produces the scheduling decision,
/// the fleet loads the model and runs inference on its shared engine, and [`complete`](Self::complete) folds the execution report back
/// into the agent's state and produces the [`FrameOutcome`].
#[derive(Debug, Clone)]
pub struct StreamAgent {
    scheduler: Scheduler,
    detector: ContextDetector,
    current: CandidatePair,
    last_confidence: f64,
    last_detection: Option<Detection>,
    pending_load_time_s: f64,
    pending_load_energy_j: f64,
    pairs_used: BTreeSet<CandidatePair>,
    swap_count: u64,
}

impl StreamAgent {
    /// Builds an agent from an offline characterization and a configuration.
    /// The initial pair is selected but **not** loaded — the driver decides
    /// when and on which engine to make it resident (see
    /// [`charge_pending_load`](Self::charge_pending_load)).
    ///
    /// The agent's confidence graph comes from
    /// [`Characterization::graph`]: every agent built from one
    /// characterization (or its clones) with one [`GraphConfig`] shares one
    /// graph, and only the first of them builds it.
    ///
    /// # Errors
    ///
    /// Returns [`ShiftError::EmptyCharacterization`] when the
    /// characterization has no samples and [`ShiftError::NoCandidatePairs`]
    /// when no model can run on any allowed accelerator. Neither builds a
    /// graph.
    ///
    /// [`GraphConfig`]: crate::graph::GraphConfig
    pub fn new(
        characterization: &Characterization,
        config: ShiftConfig,
    ) -> Result<Self, ShiftError> {
        let table = CandidateTable::for_agent(characterization, &config)?;
        let graph = characterization.graph(config.graph_config());
        let scheduler = Scheduler::from_table(config, table, graph);
        let current = scheduler.initial_pair();
        Ok(Self {
            scheduler,
            detector: ContextDetector::new(),
            current,
            last_confidence: 0.0,
            last_detection: None,
            pending_load_time_s: 0.0,
            pending_load_energy_j: 0.0,
            pairs_used: BTreeSet::new(),
            swap_count: 0,
        })
    }

    /// The pair currently selected for execution.
    pub fn current_pair(&self) -> CandidatePair {
        self.current
    }

    /// The scheduler (for inspection in tests and ablations).
    pub fn scheduler(&self) -> &Scheduler {
        &self.scheduler
    }

    /// The configuration the agent was built with.
    pub fn config(&self) -> &ShiftConfig {
        self.scheduler.config()
    }

    /// Number of model/accelerator swaps performed so far.
    pub fn swap_count(&self) -> u64 {
        self.swap_count
    }

    /// Distinct (model, accelerator) pairs used so far.
    pub fn pairs_used(&self) -> usize {
        self.pairs_used.len()
    }

    /// Adds a load cost to be charged to the next processed frame (used for
    /// the initial model pre-load, which happens before any frame exists).
    pub fn charge_pending_load(&mut self, time_s: f64, energy_j: f64) {
        self.pending_load_time_s += time_s;
        self.pending_load_energy_j += energy_j;
    }

    /// Takes (and clears) the pending load cost accumulated so far.
    pub fn take_pending_load(&mut self) -> (f64, f64) {
        (
            std::mem::take(&mut self.pending_load_time_s),
            std::mem::take(&mut self.pending_load_energy_j),
        )
    }

    /// The previous frame's image, which [`decide`](Self::decide) correlates
    /// with the next frame; `None` before the first frame.
    pub(crate) fn previous_image(&self) -> Option<&GrayImage> {
        self.detector.last_image()
    }

    /// Phase one of a frame: computes the context similarity against the
    /// previous frame and runs the scheduling heuristic.
    pub fn decide(&mut self, frame: &Frame) -> Decision {
        let similarity = self
            .detector
            .similarity(frame, self.last_detection.map(|d| d.bbox).as_ref());
        self.scheduler
            .schedule(self.current, self.last_confidence, similarity)
    }

    /// Re-plans a frame after the driver observed that `decision`'s pair is
    /// unusable (its accelerator dropped out): runs the full re-scheduling
    /// pass of Algorithm 1 unconditionally, bypassing the similarity gate, so
    /// the driver gets a complete score ranking to degrade along. The context
    /// similarity already computed by [`decide`](Self::decide) is reused.
    pub fn replan(&mut self, decision: &Decision) -> Decision {
        self.scheduler
            .force_reschedule(self.current, self.last_confidence, decision.similarity)
    }

    /// Phase two of a frame: folds the executed pair, the inference report
    /// and the charged load cost back into the agent and produces the
    /// [`FrameOutcome`]. `pair` is the pair that actually executed (the fleet
    /// may have downgraded the decision under memory pressure);
    /// `queue_wait_s` is any cross-stream queueing delay charged on top.
    pub fn complete(
        &mut self,
        frame: &Frame,
        pair: CandidatePair,
        decision: &Decision,
        report: &InferenceReport,
        load: LoadCharge,
        queue_wait_s: f64,
    ) -> FrameOutcome {
        if load.swapped {
            self.swap_count += 1;
        }
        self.current = pair;
        self.pairs_used.insert(pair);

        let detection = report.result.detection;
        let confidence = report.result.confidence();
        let iou = report.result.iou_against(frame.truth.as_ref());

        self.detector
            .update(frame, detection.as_ref().map(|d| &d.bbox));
        self.last_confidence = confidence;
        self.last_detection = detection;

        let config = self.scheduler.config();
        FrameOutcome {
            frame_index: frame.index,
            pair,
            detection,
            confidence,
            iou,
            success: iou >= 0.5,
            latency_s: queue_wait_s + config.scheduler_overhead_s + load.time_s + report.latency_s,
            energy_j: config.scheduler_overhead_energy_j() + load.energy_j + report.energy_j,
            swapped: load.swapped,
            rescheduled: decision.rescheduled,
            similarity: decision.similarity,
        }
    }
}

/// The SHIFT runtime.
///
/// Construction performs the *online-side* setup only: the confidence graph
/// is taken from a pre-computed [`Characterization`] (which builds it on
/// first use and shares it with every later runtime), the scheduler and the
/// dynamic model loader are initialized, and the initial model is pre-loaded
/// onto its accelerator (charged to the first frame).
///
/// Internally the runtime is a [`FleetRuntime`] with one slot and no
/// scenario of its own: each frame its caller supplies runs through the
/// fleet's admit → infer → complete phases, so the single-stream and fleet
/// paths share one implementation of loading, degrading and fault
/// accounting.
///
/// See the crate-level example for end-to-end usage.
#[derive(Debug, Clone)]
pub struct ShiftRuntime {
    fleet: FleetRuntime,
    slot: StreamHandle,
}

impl ShiftRuntime {
    /// Builds a runtime from an engine, an offline characterization and a
    /// configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ShiftError::EmptyCharacterization`] when the
    /// characterization has no samples, [`ShiftError::NoCandidatePairs`]
    /// when no model can run on any allowed accelerator, and the loader's
    /// error when the initial model cannot be made resident.
    pub fn new(
        engine: ExecutionEngine,
        characterization: &Characterization,
        config: ShiftConfig,
    ) -> Result<Self, ShiftError> {
        let mut fleet = FleetRuntime::empty(engine);
        let slot = fleet.attach_solo(characterization, config)?;
        Ok(Self { fleet, slot })
    }

    /// Attaches a scripted fault plan: the injector is advanced once per
    /// processed frame (keyed on the frame index) and applies every fault
    /// through the engine's degradation surfaces. A zero-fault plan leaves
    /// every outcome bit-identical to a run without one.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fleet = self.fleet.with_fault_plan(plan);
        self
    }

    /// The fault injector, when a plan is attached.
    pub fn fault_injector(&self) -> Option<&FaultInjector> {
        self.fleet.fault_injector()
    }

    /// Counters describing how the run observed and survived injected
    /// faults (all zero on a healthy run).
    pub fn resilience(&self) -> ResilienceCounters {
        self.fleet.stream(self.slot).resilience()
    }

    fn agent(&self) -> &StreamAgent {
        self.fleet.stream(self.slot).agent()
    }

    /// The pair currently selected for execution.
    pub fn current_pair(&self) -> CandidatePair {
        self.agent().current_pair()
    }

    /// The scheduler (for inspection in tests and ablations).
    pub fn scheduler(&self) -> &Scheduler {
        self.agent().scheduler()
    }

    /// The execution engine (for inspecting telemetry).
    pub fn engine(&self) -> &ExecutionEngine {
        self.fleet.engine()
    }

    /// Number of model/accelerator swaps performed so far.
    pub fn swap_count(&self) -> u64 {
        self.agent().swap_count()
    }

    /// Number of full re-scheduling passes (Algorithm 1 decisions) performed
    /// so far. Frames where the NCC similarity gate kept the current model
    /// do not count, so on a stable scene this stays well below the frame
    /// count while a scene-cut burst drives it up.
    pub fn reschedule_count(&self) -> u64 {
        self.agent().scheduler().reschedule_count()
    }

    /// Distinct (model, accelerator) pairs used so far.
    pub fn pairs_used(&self) -> usize {
        self.agent().pairs_used()
    }

    /// Processes a single frame: advance any scripted faults to the frame's
    /// index, schedule (re-planning when the decided pair's accelerator
    /// dropped out), (re)load — degrading to the next-best loadable pair
    /// under memory pressure or dropout — run inference, update context
    /// history. A frame that errors charges nothing: the pending initial
    /// load and the fault-frame count carry over to the next frame.
    ///
    /// # Errors
    ///
    /// Propagates unrecoverable loading and execution errors from the SoC
    /// simulator (a fault that leaves *no* candidate pair usable surfaces
    /// the decided pair's error).
    pub fn process_frame(&mut self, frame: &Frame) -> Result<FrameOutcome, ShiftError> {
        Ok(self.fleet.process_supplied(self.slot, frame)?.outcome)
    }

    /// Runs the runtime over an entire frame stream.
    ///
    /// # Errors
    ///
    /// Propagates the first error encountered while processing a frame.
    pub fn run<I>(&mut self, frames: I) -> Result<Vec<FrameOutcome>, ShiftError>
    where
        I: IntoIterator<Item = Frame>,
    {
        let mut outcomes = Vec::new();
        for frame in frames {
            outcomes.push(self.process_frame(&frame)?);
        }
        Ok(outcomes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::characterize::characterize;
    use shift_models::{ModelId, ModelZoo, ResponseModel};
    use shift_soc::{AcceleratorId, Platform};
    use shift_video::{CharacterizationDataset, Scenario};

    fn runtime(config: ShiftConfig) -> ShiftRuntime {
        let engine = ExecutionEngine::new(
            Platform::xavier_nx_with_oak(),
            ModelZoo::standard(),
            ResponseModel::new(6),
        );
        let characterization = characterize(&engine, &CharacterizationDataset::generate(200, 12));
        ShiftRuntime::new(engine, &characterization, config).expect("runtime builds")
    }

    #[test]
    fn runtime_processes_a_short_scenario() {
        let mut rt = runtime(ShiftConfig::paper_defaults());
        let outcomes = rt
            .run(Scenario::scenario_3().with_num_frames(40).stream())
            .unwrap();
        assert_eq!(outcomes.len(), 40);
        for o in &outcomes {
            assert!(o.latency_s > 0.0);
            assert!(o.energy_j > 0.0);
            assert!((0.0..=1.0).contains(&o.iou));
            assert_eq!(o.success, o.iou >= 0.5);
        }
        assert!(rt.pairs_used() >= 1);
    }

    #[test]
    fn first_frame_carries_the_initial_load_cost() {
        let mut rt = runtime(ShiftConfig::paper_defaults());
        let frames: Vec<_> = Scenario::scenario_3().with_num_frames(5).stream().collect();
        let first = rt.process_frame(&frames[0]).unwrap();
        let second = rt.process_frame(&frames[1]).unwrap();
        assert!(
            first.latency_s > second.latency_s,
            "first frame pays the initial model load ({} vs {})",
            first.latency_s,
            second.latency_s
        );
    }

    #[test]
    fn easy_scenario_settles_on_a_cheap_model() {
        // Scenario 3 is a close-range hover on a plain background: after the
        // initial frames SHIFT should migrate away from the expensive
        // YoloV7-on-GPU configuration.
        let mut rt = runtime(ShiftConfig::paper_defaults());
        let outcomes = rt
            .run(Scenario::scenario_3().with_num_frames(120).stream())
            .unwrap();
        let later = &outcomes[60..];
        let yolo_full_gpu = later
            .iter()
            .filter(|o| o.pair.model == ModelId::YoloV7 && o.pair.accelerator == AcceleratorId::Gpu)
            .count();
        assert!(
            yolo_full_gpu < later.len(),
            "SHIFT should not stay pinned to YoloV7-on-GPU on an easy scenario"
        );
        let mean_energy: f64 = later.iter().map(|o| o.energy_j).sum::<f64>() / later.len() as f64;
        assert!(
            mean_energy < 1.9,
            "steady-state energy should drop below the YoloV7-GPU cost, got {mean_energy}"
        );
    }

    #[test]
    fn accuracy_is_maintained_on_easy_scenarios() {
        let mut rt = runtime(ShiftConfig::paper_defaults());
        let outcomes = rt
            .run(Scenario::scenario_3().with_num_frames(150).stream())
            .unwrap();
        let success_rate =
            outcomes.iter().filter(|o| o.success).count() as f64 / outcomes.len() as f64;
        assert!(
            success_rate > 0.6,
            "easy scenario success rate too low: {success_rate}"
        );
    }

    #[test]
    fn swaps_are_counted_and_bounded() {
        let mut rt = runtime(ShiftConfig::paper_defaults());
        let outcomes = rt
            .run(Scenario::scenario_1().with_num_frames(200).stream())
            .unwrap();
        let swaps = outcomes.iter().filter(|o| o.swapped).count() as u64;
        assert_eq!(swaps, rt.swap_count());
        assert!(
            swaps < outcomes.len() as u64 / 2,
            "swapping every other frame would defeat the similarity gate"
        );
    }

    #[test]
    fn scheduler_overhead_is_charged_every_frame() {
        let config = ShiftConfig::paper_defaults();
        let overhead = config.scheduler_overhead_s;
        let mut rt = runtime(config);
        let outcomes = rt
            .run(Scenario::scenario_3().with_num_frames(10).stream())
            .unwrap();
        for o in outcomes {
            assert!(o.latency_s >= overhead);
        }
    }

    #[test]
    fn candidate_table_agrees_with_stream_agent_new() {
        use shift_soc::DeviceClass;
        let allowed_sets = [
            ShiftConfig::paper_defaults().allowed_accelerators,
            vec![AcceleratorId::Gpu],
            vec![AcceleratorId::OakD],
            vec![AcceleratorId::Cpu],
            Vec::new(),
        ];
        let mut characterizations: Vec<Characterization> = DeviceClass::ALL
            .iter()
            .map(|class| {
                let engine = ExecutionEngine::new(
                    class.platform(),
                    ModelZoo::standard(),
                    ResponseModel::new(6),
                );
                characterize(&engine, &CharacterizationDataset::generate(60, 12))
            })
            .collect();
        characterizations.push(Characterization::default());
        let (mut built, mut errors) = (0, BTreeSet::new());
        for characterization in &characterizations {
            for allowed in &allowed_sets {
                for goal in [0.1, 0.5, 0.9] {
                    let config = ShiftConfig::paper_defaults()
                        .with_allowed_accelerators(allowed.clone())
                        .with_accuracy_goal(goal);
                    let table = CandidateTable::for_agent(characterization, &config);
                    match (StreamAgent::new(characterization, config), table) {
                        (Ok(agent), Ok(table)) => {
                            let pairs = agent.scheduler().candidate_pairs();
                            assert_eq!(table.pairs(), pairs);
                            assert_eq!(table.initial_pair(), agent.current_pair());
                            let best_iou = pairs
                                .iter()
                                .filter_map(|p| characterization.traits_of(p.model))
                                .map(|t| t.mean_iou)
                                .fold(f64::NEG_INFINITY, f64::max);
                            assert_eq!(table.best_reference_accuracy(), best_iou);
                            built += 1;
                        }
                        (Err(agent), Err(table)) => {
                            assert_eq!(agent, table);
                            errors.insert(agent.to_string());
                        }
                        (agent, table) => panic!(
                            "agent ok: {}, table ok: {} (allowed {allowed:?}, goal {goal})",
                            agent.is_ok(),
                            table.is_ok()
                        ),
                    }
                }
            }
        }
        assert!(built > 0);
        assert_eq!(
            errors.len(),
            2,
            "both error kinds are exercised: {errors:?}"
        );
    }

    #[test]
    fn empty_characterization_is_rejected() {
        let engine = ExecutionEngine::new(
            Platform::xavier_nx_with_oak(),
            ModelZoo::standard(),
            ResponseModel::new(6),
        );
        let empty = Characterization::default();
        let err = ShiftRuntime::new(engine, &empty, ShiftConfig::paper_defaults()).unwrap_err();
        assert_eq!(err, ShiftError::EmptyCharacterization);
    }

    #[test]
    fn determinism_across_identical_runs() {
        let a = {
            let mut rt = runtime(ShiftConfig::paper_defaults());
            rt.run(Scenario::scenario_2().with_num_frames(80).stream())
                .unwrap()
        };
        let b = {
            let mut rt = runtime(ShiftConfig::paper_defaults());
            rt.run(Scenario::scenario_2().with_num_frames(80).stream())
                .unwrap()
        };
        assert_eq!(a, b);
    }

    #[test]
    fn multi_accelerator_usage_emerges() {
        let mut rt = runtime(ShiftConfig::paper_defaults());
        let outcomes = rt
            .run(Scenario::scenario_1().with_num_frames(300).stream())
            .unwrap();
        let non_gpu = outcomes
            .iter()
            .filter(|o| o.pair.accelerator != AcceleratorId::Gpu)
            .count();
        assert!(
            non_gpu > 0,
            "SHIFT should route at least some frames off the GPU"
        );
    }
}
