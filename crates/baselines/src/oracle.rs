//! The Oracle baselines: the paper's performance ceiling.
//!
//! "This Oracle identifies all models surpassing a 0.5 intersection-over-union
//! (IoU) threshold, subsequently selecting the one that optimizes the targeted
//! metric. In cases where no models meet the IoU criterion, selection is
//! solely based on metric optimization. Since the Oracle method represents a
//! maximum performance, it assumes that all models are loaded into memory and
//! thus have no cost to switch."
//!
//! Three objectives are evaluated: Oracle E (energy), Oracle A (accuracy) and
//! Oracle L (latency).
//!
//! An Oracle reads no pixel: it probes the simulated detector on a frame's
//! label and scores against its ground truth, so it runs on
//! [`FrameLabel`]s (`Scenario::label_at`, or `Frame::label` of a rendered
//! frame) and needs no frame rendered.

use serde::{Deserialize, Serialize};
use shift_metrics::FrameRecord;
use shift_models::ModelId;
use shift_soc::{AcceleratorId, ExecutionEngine, InferenceReport, SocError};
use shift_video::FrameLabel;

/// The metric an Oracle optimizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum OracleObjective {
    /// Minimize per-frame energy ("Oracle E").
    Energy,
    /// Maximize per-frame IoU ("Oracle A").
    Accuracy,
    /// Minimize per-frame latency ("Oracle L").
    Latency,
}

impl std::fmt::Display for OracleObjective {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OracleObjective::Energy => write!(f, "Oracle E"),
            OracleObjective::Accuracy => write!(f, "Oracle A"),
            OracleObjective::Latency => write!(f, "Oracle L"),
        }
    }
}

/// The Oracle runtime: probes every compatible (model, accelerator) pair on
/// every frame (at zero cost, per the paper's definition) and charges only
/// the chosen pair's latency and energy.
#[derive(Debug, Clone)]
pub struct OracleRuntime {
    engine: ExecutionEngine,
    objective: OracleObjective,
    pairs: Vec<(ModelId, AcceleratorId)>,
    previous_pair: Option<(ModelId, AcceleratorId)>,
    swap_count: u64,
}

impl OracleRuntime {
    /// Creates an Oracle over all pairs executable on the given accelerators.
    ///
    /// # Errors
    ///
    /// Returns [`SocError::UnknownAccelerator`] if an accelerator is not part
    /// of the engine's platform.
    pub fn new(
        engine: ExecutionEngine,
        objective: OracleObjective,
        accelerators: &[AcceleratorId],
    ) -> Result<Self, SocError> {
        for &acc in accelerators {
            if !engine.platform().has(acc) {
                return Err(SocError::UnknownAccelerator(acc));
            }
        }
        let mut pairs = Vec::new();
        for spec in engine.zoo().iter() {
            for &acc in accelerators {
                if spec.supports(acc.target()) {
                    pairs.push((spec.id, acc));
                }
            }
        }
        Ok(Self {
            engine,
            objective,
            pairs,
            previous_pair: None,
            swap_count: 0,
        })
    }

    /// The objective being optimized.
    pub fn objective(&self) -> OracleObjective {
        self.objective
    }

    /// The candidate pairs the Oracle chooses between.
    pub fn pairs(&self) -> &[(ModelId, AcceleratorId)] {
        &self.pairs
    }

    /// Number of model/accelerator switches performed so far.
    pub fn swap_count(&self) -> u64 {
        self.swap_count
    }

    /// Mutable access to the engine — the hook failure-injection harnesses
    /// use to apply platform faults between frames.
    pub fn engine_mut(&mut self) -> &mut ExecutionEngine {
        &mut self.engine
    }

    /// Processes one frame, given by its label: probe every pair whose
    /// accelerator is accepting work, filter by IoU >= 0.5, pick the best
    /// according to the objective.
    /// The Oracle keeps its zero-cost model loading, but it cannot see
    /// through an outage: offline accelerators are excluded from the probe
    /// set until they recover.
    ///
    /// # Errors
    ///
    /// Propagates probing errors from the SoC simulator, and reports
    /// [`SocError::AcceleratorOffline`] (naming the first candidate's
    /// accelerator) when every candidate accelerator is offline at once.
    pub fn process_frame(&mut self, label: &FrameLabel) -> Result<FrameRecord, SocError> {
        let mut probes: Vec<InferenceReport> = Vec::with_capacity(self.pairs.len());
        for &(model, accelerator) in &self.pairs {
            if !self.engine.is_online(accelerator) {
                continue;
            }
            probes.push(self.engine.probe_inference(model, accelerator, label)?);
        }
        if probes.is_empty() {
            return Err(SocError::AcceleratorOffline(
                self.pairs
                    .first()
                    .map(|&(_, accelerator)| accelerator)
                    .unwrap_or(AcceleratorId::Gpu),
            ));
        }
        let iou_of = |report: &InferenceReport| report.result.iou_against(label.truth.as_ref());

        let qualifying: Vec<&InferenceReport> =
            probes.iter().filter(|r| iou_of(r) >= 0.5).collect();
        let candidates: Vec<&InferenceReport> = if qualifying.is_empty() {
            probes.iter().collect()
        } else {
            qualifying
        };
        let best = candidates
            .into_iter()
            .min_by(|a, b| {
                let key_a = self.objective_key(a, iou_of(a));
                let key_b = self.objective_key(b, iou_of(b));
                key_a.partial_cmp(&key_b).expect("finite keys")
            })
            .expect("at least one candidate pair");

        let pair = (best.model, best.accelerator);
        if let Some(previous) = self.previous_pair {
            if previous != pair {
                self.swap_count += 1;
            }
        }
        let swapped = self.previous_pair.is_some() && self.previous_pair != Some(pair);
        self.previous_pair = Some(pair);

        Ok(FrameRecord::new(
            label.index,
            best.model,
            best.accelerator,
            iou_of(best),
            best.latency_s,
            best.energy_j,
            swapped,
        ))
    }

    /// Runs the Oracle over a sequence of frame labels, such as
    /// `Scenario::labels`.
    ///
    /// # Errors
    ///
    /// Propagates the first probing error.
    pub fn run<I>(&mut self, labels: I) -> Result<Vec<FrameRecord>, SocError>
    where
        I: IntoIterator<Item = FrameLabel>,
    {
        let mut records = Vec::new();
        for label in labels {
            records.push(self.process_frame(&label)?);
        }
        Ok(records)
    }

    /// Smaller-is-better ranking key for the configured objective.
    fn objective_key(&self, report: &InferenceReport, iou: f64) -> f64 {
        match self.objective {
            OracleObjective::Energy => report.energy_j,
            OracleObjective::Accuracy => -iou,
            OracleObjective::Latency => report.latency_s,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shift_models::{ModelZoo, ResponseModel};
    use shift_soc::Platform;
    use shift_video::Scenario;

    const ORACLE_ACCELERATORS: [AcceleratorId; 4] = [
        AcceleratorId::Gpu,
        AcceleratorId::Dla0,
        AcceleratorId::Dla1,
        AcceleratorId::OakD,
    ];

    fn engine() -> ExecutionEngine {
        ExecutionEngine::new(
            Platform::xavier_nx_with_oak(),
            ModelZoo::standard(),
            ResponseModel::new(7),
        )
    }

    fn oracle(objective: OracleObjective) -> OracleRuntime {
        OracleRuntime::new(engine(), objective, &ORACLE_ACCELERATORS).unwrap()
    }

    #[test]
    fn oracle_avoids_offline_accelerators_and_errors_when_all_are_down() {
        let mut o = oracle(OracleObjective::Energy);
        let label = Scenario::scenario_3().label_at(0).unwrap();
        o.engine_mut()
            .set_accelerator_online(AcceleratorId::Gpu, false);
        let record = o.process_frame(&label).unwrap();
        assert_ne!(
            record.accelerator,
            AcceleratorId::Gpu,
            "the Oracle cannot see through an outage"
        );
        for accelerator in ORACLE_ACCELERATORS {
            o.engine_mut().set_accelerator_online(accelerator, false);
        }
        let err = o.process_frame(&label).unwrap_err();
        assert!(matches!(err, SocError::AcceleratorOffline(_)));
        // Recovery restores the full candidate set.
        for accelerator in ORACLE_ACCELERATORS {
            o.engine_mut().set_accelerator_online(accelerator, true);
        }
        assert!(o.process_frame(&label).is_ok());
    }

    #[test]
    fn oracle_enumerates_the_expected_pairs() {
        let o = oracle(OracleObjective::Energy);
        // 8 models x (GPU, DLA0, DLA1) + 2 x OAK-D = 26 instance pairs.
        assert_eq!(o.pairs().len(), 26);
        assert_eq!(o.objective(), OracleObjective::Energy);
    }

    #[test]
    fn unknown_accelerator_is_rejected() {
        let err = OracleRuntime::new(
            ExecutionEngine::new(
                Platform::gpu_only(),
                ModelZoo::standard(),
                ResponseModel::new(7),
            ),
            OracleObjective::Energy,
            &[AcceleratorId::Dla0],
        )
        .unwrap_err();
        assert!(matches!(err, SocError::UnknownAccelerator(_)));
    }

    #[test]
    fn accuracy_oracle_dominates_energy_oracle_on_iou() {
        let scenario = Scenario::scenario_1().with_num_frames(200);
        let a_records = oracle(OracleObjective::Accuracy)
            .run(scenario.labels())
            .unwrap();
        let e_records = oracle(OracleObjective::Energy)
            .run(scenario.labels())
            .unwrap();
        let mean = |records: &[FrameRecord]| {
            records.iter().map(|r| r.iou).sum::<f64>() / records.len() as f64
        };
        assert!(
            mean(&a_records) >= mean(&e_records),
            "Oracle A IoU {} must be >= Oracle E IoU {}",
            mean(&a_records),
            mean(&e_records)
        );
    }

    #[test]
    fn energy_oracle_uses_less_energy_than_accuracy_oracle() {
        let scenario = Scenario::scenario_1().with_num_frames(200);
        let a_records = oracle(OracleObjective::Accuracy)
            .run(scenario.labels())
            .unwrap();
        let e_records = oracle(OracleObjective::Energy)
            .run(scenario.labels())
            .unwrap();
        let total = |records: &[FrameRecord]| records.iter().map(|r| r.energy_j).sum::<f64>();
        assert!(
            total(&e_records) < total(&a_records),
            "Oracle E energy {} must be < Oracle A energy {}",
            total(&e_records),
            total(&a_records)
        );
    }

    #[test]
    fn latency_oracle_minimizes_time() {
        let scenario = Scenario::scenario_2().with_num_frames(150);
        let l_records = oracle(OracleObjective::Latency)
            .run(scenario.labels())
            .unwrap();
        let a_records = oracle(OracleObjective::Accuracy)
            .run(scenario.labels())
            .unwrap();
        let mean_latency = |records: &[FrameRecord]| {
            records.iter().map(|r| r.latency_s).sum::<f64>() / records.len() as f64
        };
        assert!(mean_latency(&l_records) <= mean_latency(&a_records) + 1e-9);
    }

    #[test]
    fn oracle_counts_swaps() {
        let mut o = oracle(OracleObjective::Accuracy);
        let records = o
            .run(Scenario::scenario_1().with_num_frames(150).labels())
            .unwrap();
        let swapped_frames = records.iter().filter(|r| r.swapped).count() as u64;
        assert_eq!(swapped_frames, o.swap_count());
        assert!(
            o.swap_count() > 0,
            "the accuracy Oracle switches models frequently"
        );
    }

    #[test]
    fn objective_display() {
        assert_eq!(OracleObjective::Energy.to_string(), "Oracle E");
        assert_eq!(OracleObjective::Accuracy.to_string(), "Oracle A");
        assert_eq!(OracleObjective::Latency.to_string(), "Oracle L");
    }
}
