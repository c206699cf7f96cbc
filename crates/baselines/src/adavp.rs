//! The AdaVP-style adaptive baseline (Liu et al., ICDCS'20).
//!
//! AdaVP extends Marlin by adapting the *input size* of its DNN and by
//! skipping frames when the scene is stable, trading accuracy for energy and
//! latency at runtime. It remains a single-model, single-accelerator (GPU)
//! method — the comparison SHIFT draws is that model/accelerator diversity
//! buys more than input-resolution diversity.
//!
//! The reproduction models resizing analytically: running the DNN at a scale
//! `s < 1` costs roughly `s^2` of the full-resolution latency and energy
//! (convolutional cost is quadratic in the spatial side length) and loses
//! accuracy, more steeply for small objects (the far-away drone frames).

use crate::tracker::{NccTracker, TRACKER_LATENCY_S, TRACKER_POWER_W};
use serde::{Deserialize, Serialize};
use shift_metrics::FrameRecord;
use shift_models::ModelId;
use shift_soc::{AcceleratorId, ExecutionEngine, SocError};
use shift_video::Frame;

/// Discrete input scales AdaVP steps through, from cheapest to full size.
pub const ADAVP_SCALES: [f64; 3] = [0.5, 0.75, 1.0];

/// AdaVP configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AdaVpConfig {
    /// The DNN AdaVP runs (YoloV7 in the paper's comparison class).
    pub model: ModelId,
    /// The accelerator the DNN runs on (the GPU).
    pub accelerator: AcceleratorId,
    /// Confidence above which AdaVP steps the input scale *down* (cheaper).
    pub step_down_confidence: f64,
    /// Confidence below which AdaVP steps the input scale *up* (costlier).
    pub step_up_confidence: f64,
    /// Tracker score above which a frame is skipped entirely (the tracker
    /// carries the box forward).
    pub skip_score_threshold: f64,
    /// Maximum consecutive skipped frames.
    pub max_skipped_frames: usize,
}

impl AdaVpConfig {
    /// The standard configuration: YoloV7 on the GPU.
    pub fn standard() -> Self {
        Self {
            model: ModelId::YoloV7,
            accelerator: AcceleratorId::Gpu,
            step_down_confidence: 0.80,
            step_up_confidence: 0.45,
            skip_score_threshold: 0.92,
            max_skipped_frames: 3,
        }
    }
}

impl Default for AdaVpConfig {
    fn default() -> Self {
        Self::standard()
    }
}

/// Accuracy retained at `scale` for a target at normalized `distance`.
///
/// Full resolution is lossless; halving the input costs little for a close,
/// large target but collapses for a distant, small one.
fn resolution_accuracy_factor(scale: f64, distance: f64) -> f64 {
    let scale = scale.clamp(0.1, 1.0);
    let distance = distance.clamp(0.0, 1.0);
    let loss = (1.0 - scale) * (0.25 + 0.75 * distance);
    (1.0 - loss).clamp(0.0, 1.0)
}

/// The AdaVP runtime.
#[derive(Debug, Clone)]
pub struct AdaVpRuntime {
    engine: ExecutionEngine,
    config: AdaVpConfig,
    tracker: NccTracker,
    scale_index: usize,
    skipped_frames: usize,
    pending_load_time_s: f64,
    pending_load_energy_j: f64,
    detector_invocations: u64,
    skip_count: u64,
}

impl AdaVpRuntime {
    /// Creates the runtime and loads its DNN.
    ///
    /// # Errors
    ///
    /// Returns an error when the configured pair is incompatible.
    pub fn new(mut engine: ExecutionEngine, config: AdaVpConfig) -> Result<Self, SocError> {
        let load = engine.load_model(config.model, config.accelerator)?;
        Ok(Self {
            engine,
            config,
            tracker: NccTracker::new(),
            scale_index: ADAVP_SCALES.len() - 1,
            skipped_frames: 0,
            pending_load_time_s: load.load_time_s,
            pending_load_energy_j: load.load_energy_j,
            detector_invocations: 0,
            skip_count: 0,
        })
    }

    /// The configuration in use.
    pub fn config(&self) -> AdaVpConfig {
        self.config
    }

    /// The input scale the next detection will run at.
    pub fn current_scale(&self) -> f64 {
        ADAVP_SCALES[self.scale_index]
    }

    /// Number of frames on which the DNN actually ran.
    pub fn detector_invocations(&self) -> u64 {
        self.detector_invocations
    }

    /// Number of frames skipped (handled by the tracker).
    pub fn skip_count(&self) -> u64 {
        self.skip_count
    }

    /// Processes one frame: skip it if the tracker is confident, otherwise
    /// run the DNN at the current input scale and adapt the scale from the
    /// resulting confidence.
    ///
    /// # Errors
    ///
    /// Propagates execution errors from the SoC simulator.
    pub fn process_frame(&mut self, frame: &Frame) -> Result<FrameRecord, SocError> {
        let load_time = std::mem::take(&mut self.pending_load_time_s);
        let load_energy = std::mem::take(&mut self.pending_load_energy_j);

        // Frame skipping: carry the tracked box forward while the scene is
        // stable and the skip budget allows.
        if self.tracker.is_initialized() && self.skipped_frames < self.config.max_skipped_frames {
            if let Some(result) = self.tracker.track(frame) {
                if result.score >= self.config.skip_score_threshold {
                    self.skipped_frames += 1;
                    self.skip_count += 1;
                    let iou = frame
                        .truth
                        .map(|truth| result.bbox.iou(&truth))
                        .unwrap_or(0.0);
                    return Ok(FrameRecord::new(
                        frame.index,
                        self.config.model,
                        self.config.accelerator,
                        iou,
                        TRACKER_LATENCY_S + load_time,
                        TRACKER_LATENCY_S * TRACKER_POWER_W + load_energy,
                        false,
                    ));
                }
            }
        }

        // Run the DNN at the current scale.
        self.detector_invocations += 1;
        self.skipped_frames = 0;
        let scale = self.current_scale();
        let report = self.engine.probe_inference(
            self.config.model,
            self.config.accelerator,
            &frame.label(),
        )?;
        let cost_factor = scale * scale;
        let latency = report.latency_s * cost_factor;
        let energy = report.energy_j * cost_factor;
        let accuracy_factor = resolution_accuracy_factor(scale, frame.context.distance);
        let iou = report.result.iou_against(frame.truth.as_ref()) * accuracy_factor;
        let confidence = report.result.confidence() * accuracy_factor;

        // Update the tracker from the (possibly degraded) detection.
        match report.result.detection {
            Some(detection) if confidence >= 0.2 => self.tracker.initialize(frame, &detection.bbox),
            _ => self.tracker.reset(),
        }

        // Adapt the input scale.
        if confidence >= self.config.step_down_confidence && self.scale_index > 0 {
            self.scale_index -= 1;
        } else if confidence <= self.config.step_up_confidence
            && self.scale_index + 1 < ADAVP_SCALES.len()
        {
            self.scale_index += 1;
        }

        Ok(FrameRecord::new(
            frame.index,
            self.config.model,
            self.config.accelerator,
            iou,
            latency + load_time,
            energy + load_energy,
            false,
        ))
    }

    /// Runs AdaVP over a full frame stream.
    ///
    /// # Errors
    ///
    /// Propagates the first execution error.
    pub fn run<I>(&mut self, frames: I) -> Result<Vec<FrameRecord>, SocError>
    where
        I: IntoIterator<Item = Frame>,
    {
        let mut records = Vec::new();
        for frame in frames {
            records.push(self.process_frame(&frame)?);
        }
        Ok(records)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::single::SingleModelRuntime;
    use shift_models::{ModelZoo, ResponseModel};
    use shift_soc::Platform;
    use shift_video::Scenario;

    fn engine() -> ExecutionEngine {
        ExecutionEngine::new(
            Platform::xavier_nx_with_oak(),
            ModelZoo::standard(),
            ResponseModel::new(17),
        )
    }

    #[test]
    fn resolution_factor_behaves() {
        assert_eq!(resolution_accuracy_factor(1.0, 0.9), 1.0);
        assert!(resolution_accuracy_factor(0.5, 0.1) > resolution_accuracy_factor(0.5, 0.9));
        assert!(resolution_accuracy_factor(0.75, 0.5) > resolution_accuracy_factor(0.5, 0.5));
        assert!(resolution_accuracy_factor(0.1, 1.0) >= 0.0);
    }

    #[test]
    fn adavp_saves_energy_vs_single_model() {
        let scenario = Scenario::scenario_3().with_num_frames(150);
        let mut adavp = AdaVpRuntime::new(engine(), AdaVpConfig::standard()).unwrap();
        let adavp_records = adavp.run(scenario.clone().stream()).unwrap();
        let mut single =
            SingleModelRuntime::new(engine(), ModelId::YoloV7, AcceleratorId::Gpu).unwrap();
        let single_records = single.run(scenario.stream()).unwrap();
        let a: f64 = adavp_records.iter().map(|r| r.energy_j).sum();
        let s: f64 = single_records.iter().map(|r| r.energy_j).sum();
        assert!(
            a < s,
            "AdaVP {a:.1} J should undercut single-model {s:.1} J"
        );
    }

    #[test]
    fn easy_scenes_drive_the_scale_down() {
        let mut adavp = AdaVpRuntime::new(engine(), AdaVpConfig::standard()).unwrap();
        assert_eq!(adavp.current_scale(), 1.0);
        let _ = adavp
            .run(Scenario::scenario_3().with_num_frames(60).stream())
            .unwrap();
        assert!(
            adavp.current_scale() < 1.0,
            "a hovering close-range target should let AdaVP shrink its input"
        );
    }

    #[test]
    fn skipping_happens_on_stable_scenes() {
        let mut adavp = AdaVpRuntime::new(engine(), AdaVpConfig::standard()).unwrap();
        let records = adavp
            .run(Scenario::scenario_3().with_num_frames(120).stream())
            .unwrap();
        assert_eq!(records.len(), 120);
        assert!(adavp.skip_count() > 0, "stable scene should allow skips");
        assert!(adavp.detector_invocations() > 0);
        assert_eq!(
            adavp.skip_count() + adavp.detector_invocations(),
            records.len() as u64
        );
    }

    #[test]
    fn stays_on_a_single_pair() {
        let mut adavp = AdaVpRuntime::new(engine(), AdaVpConfig::standard()).unwrap();
        let records = adavp
            .run(Scenario::scenario_1().with_num_frames(100).stream())
            .unwrap();
        assert!(records.iter().all(|r| r.model == ModelId::YoloV7));
        assert!(records.iter().all(|r| r.accelerator == AcceleratorId::Gpu));
        assert!(records.iter().all(|r| !r.swapped));
    }

    #[test]
    fn hard_scenarios_force_the_scale_back_up() {
        let mut adavp = AdaVpRuntime::new(engine(), AdaVpConfig::standard()).unwrap();
        // Start on the easy scenario to walk the scale down…
        let _ = adavp
            .run(Scenario::scenario_3().with_num_frames(60).stream())
            .unwrap();
        let shrunk = adavp.current_scale();
        // …then hit the hardest scenario; confidence collapses and the scale
        // must recover towards full resolution.
        let _ = adavp
            .run(Scenario::scenario_5().with_num_frames(200).stream())
            .unwrap();
        assert!(
            adavp.current_scale() >= shrunk,
            "difficulty should never push the scale further down"
        );
    }

    #[test]
    fn incompatible_pair_fails_at_construction() {
        let config = AdaVpConfig {
            model: ModelId::SsdResnet50,
            accelerator: AcceleratorId::OakD,
            ..AdaVpConfig::standard()
        };
        let err = AdaVpRuntime::new(engine(), config).unwrap_err();
        assert!(matches!(err, SocError::IncompatiblePair { .. }));
    }
}
