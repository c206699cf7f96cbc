//! The analytic detection response model.
//!
//! Given a model spec and the latent context of a frame, the response model
//! produces exactly what a real detector would hand to the SHIFT runtime: an
//! optional [`Detection`] (bounding box + confidence). The bounding box is
//! constructed so that its IoU against the ground truth equals the sampled
//! detection quality, which lets the evaluation harness score the run the
//! same way the paper does (IoU against labels) without ever telling the
//! runtime the ground truth.
//!
//! The response is deterministic in `(seed, frame index, model)`, so repeated
//! runs of an experiment produce identical numbers, and two models evaluated
//! on the same frame see *correlated* difficulty — which is what makes the
//! confidence graph's cross-model prediction possible, exactly as in the
//! paper's validation-set co-occurrence statistics.

use crate::detection::Detection;
use crate::family::ModelId;
use crate::zoo::{logistic, ModelSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use shift_video::{BoundingBox, FrameContext, FrameLabel};

/// Result of one simulated inference call.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct InferenceResult {
    /// The detection reported by the model, or `None` when the model found
    /// nothing above its confidence threshold.
    pub detection: Option<Detection>,
}

impl InferenceResult {
    /// The reported confidence, or `0.0` when nothing was detected.
    ///
    /// The SHIFT scheduler treats "no detection" as zero confidence, which
    /// forces a re-scheduling decision on the next frame.
    pub fn confidence(&self) -> f64 {
        self.detection.map_or(0.0, |d| d.confidence)
    }

    /// IoU of the reported detection against the ground truth; `0.0` for
    /// missed detections and false positives.
    pub fn iou_against(&self, truth: Option<&BoundingBox>) -> f64 {
        self.detection.map_or(0.0, |d| d.iou_against(truth))
    }
}

/// Deterministic, seedable detection response model shared by all models.
///
/// ```
/// use shift_models::{ModelZoo, ModelId, ResponseModel};
/// use shift_video::Scenario;
///
/// let zoo = ModelZoo::standard();
/// let response = ResponseModel::new(42);
/// let label = Scenario::scenario_3().label_at(0).expect("frame 0");
/// let result = response.infer(zoo.spec(ModelId::YoloV7), &label);
/// // Scenario 3 is easy and close-range: YoloV7 should find the drone.
/// assert!(result.detection.is_some());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ResponseModel {
    seed: u64,
}

/// Minimum detection quality below which the model reports nothing at all
/// (mirrors the non-maximum-suppression confidence threshold of 0.35 /
/// IoU threshold of 0.5 used when training the paper's models).
const DETECTION_QUALITY_FLOOR: f64 = 0.12;

impl ResponseModel {
    /// Creates a response model with the given seed.
    pub fn new(seed: u64) -> Self {
        Self { seed }
    }

    /// The seed this response model was created with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Expected (noise-free) IoU of `spec` on a frame with context `context`.
    ///
    /// This is the model's *mean* response; [`infer`](Self::infer) adds
    /// deterministic per-frame noise around it. Exposed publicly because the
    /// Oracle baselines and several ablations need the latent mean.
    pub fn expected_iou(&self, spec: &ModelSpec, context: &FrameContext) -> f64 {
        if !context.in_view {
            return 0.0;
        }
        let difficulty = context.difficulty();
        let rolloff = logistic((spec.capacity - difficulty) / spec.softness);
        (spec.peak_iou * rolloff).clamp(0.0, 1.0)
    }

    /// Runs simulated inference of `spec` on the frame `label` describes.
    ///
    /// The model reads the frame's index, size, ground truth and context,
    /// never a pixel, so a caller with a rendered [`Frame`](shift_video::Frame)
    /// passes its [`label`](shift_video::Frame::label) and a caller without
    /// one need render nothing
    /// ([`Scenario::label_at`](shift_video::Scenario::label_at)).
    ///
    /// The result is deterministic in `(seed, label.index, spec.id)`, and the
    /// per-frame perturbation is *shared* across models (it models the frame
    /// being intrinsically harder or easier than its nominal context), so
    /// model outputs on the same frame are correlated.
    pub fn infer(&self, spec: &ModelSpec, label: &FrameLabel) -> InferenceResult {
        let mut frame_rng = self.frame_rng(label.index);
        // Shared per-frame difficulty perturbation (same for every model).
        let frame_jitter: f64 = frame_rng.gen_range(-0.06..0.06);
        // Per-(frame, model) noise.
        let mut rng = self.model_rng(label.index, spec.id);

        match label.truth {
            Some(truth) => {
                let context = label.context;
                let difficulty = (context.difficulty() + frame_jitter).clamp(0.0, 1.0);
                let rolloff = logistic((spec.capacity - difficulty) / spec.softness);
                let mean_quality = (spec.peak_iou * rolloff).clamp(0.0, 1.0);
                let quality =
                    (mean_quality + gaussian(&mut rng) * 0.05).clamp(0.0, spec.peak_iou.min(0.96));

                if quality < DETECTION_QUALITY_FLOOR {
                    // Missed detection: either silence or a stray low-confidence box.
                    return self.missed_detection(spec, &truth, &mut rng);
                }

                let direction = rng.gen_range(0.0..std::f64::consts::TAU);
                let bbox = truth
                    .with_target_iou(quality, direction)
                    .clamped(label.width, label.height);
                let confidence = spec
                    .calibration
                    .noisy_confidence(quality, gaussian(&mut rng));
                InferenceResult {
                    detection: Some(Detection::new(bbox, confidence)),
                }
            }
            None => self.empty_frame_response(spec, label, &mut rng),
        }
    }

    /// Response when the model fails to find the (present) target.
    fn missed_detection(
        &self,
        spec: &ModelSpec,
        truth: &BoundingBox,
        rng: &mut StdRng,
    ) -> InferenceResult {
        // Weak models occasionally emit a low-confidence box far from the
        // target rather than staying silent.
        if rng.gen_bool(0.3) {
            let stray = truth
                .translated(
                    rng.gen_range(-4.0..4.0) * truth.w,
                    rng.gen_range(-4.0..4.0) * truth.h,
                )
                .scaled(rng.gen_range(0.5..1.5));
            let confidence = spec.calibration.noisy_confidence(0.05, gaussian(rng));
            InferenceResult {
                detection: Some(Detection::new(stray, confidence)),
            }
        } else {
            InferenceResult { detection: None }
        }
    }

    /// Response on frames where the target is out of view: mostly silence,
    /// with occasional false positives from weaker models.
    fn empty_frame_response(
        &self,
        spec: &ModelSpec,
        label: &FrameLabel,
        rng: &mut StdRng,
    ) -> InferenceResult {
        let false_positive_rate = 0.02 + 0.10 * (1.0 - spec.capacity).clamp(0.0, 1.0);
        if rng.gen_bool(false_positive_rate.clamp(0.0, 1.0)) {
            let w = label.width as f64;
            let h = label.height as f64;
            let bbox = BoundingBox::from_center(
                rng.gen_range(0.1..0.9) * w,
                rng.gen_range(0.1..0.9) * h,
                rng.gen_range(0.05..0.2) * w,
                rng.gen_range(0.05..0.2) * h,
            );
            let confidence = spec.calibration.noisy_confidence(0.15, gaussian(rng));
            InferenceResult {
                detection: Some(Detection::new(bbox, confidence)),
            }
        } else {
            InferenceResult { detection: None }
        }
    }

    fn frame_rng(&self, frame_index: usize) -> StdRng {
        StdRng::seed_from_u64(mix(self.seed, frame_index as u64, 0x5151))
    }

    fn model_rng(&self, frame_index: usize, model: ModelId) -> StdRng {
        StdRng::seed_from_u64(mix(self.seed, frame_index as u64, model.index() as u64 + 1))
    }
}

impl Default for ResponseModel {
    fn default() -> Self {
        Self::new(0xD0_0D)
    }
}

/// Cheap standard-normal-ish sample from two uniforms (Irwin–Hall with n=4,
/// rescaled); adequate for perturbation noise and avoids pulling in a
/// distribution crate.
fn gaussian(rng: &mut StdRng) -> f64 {
    let sum: f64 = (0..4).map(|_| rng.gen_range(0.0..1.0f64)).sum();
    (sum - 2.0) / (1.0 / 3.0f64).sqrt() / 2.0
}

fn mix(a: u64, b: u64, c: u64) -> u64 {
    let mut h = a ^ 0x9E37_79B9_7F4A_7C15;
    h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9) ^ b.wrapping_mul(0x94D0_49BB_1331_11EB);
    h = h.rotate_left(31).wrapping_mul(0x2545_F491_4F6C_DD1D) ^ c;
    h ^ (h >> 33)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zoo::ModelZoo;
    use shift_video::{CharacterizationDataset, Scenario};

    fn easy_label() -> FrameLabel {
        Scenario::scenario_3().label_at(0).expect("frame 0")
    }

    #[test]
    fn inference_is_deterministic() {
        let zoo = ModelZoo::standard();
        let response = ResponseModel::new(5);
        let label = easy_label();
        let a = response.infer(zoo.spec(ModelId::YoloV7), &label);
        let b = response.infer(zoo.spec(ModelId::YoloV7), &label);
        assert_eq!(a, b);
    }

    #[test]
    fn different_models_can_disagree() {
        let zoo = ModelZoo::standard();
        let response = ResponseModel::new(5);
        let label = easy_label();
        let strong = response.infer(zoo.spec(ModelId::YoloV7), &label);
        let weak = response.infer(zoo.spec(ModelId::SsdMobilenetV2Small), &label);
        assert_ne!(strong, weak);
    }

    #[test]
    fn expected_iou_decreases_with_difficulty() {
        let zoo = ModelZoo::standard();
        let response = ResponseModel::default();
        for spec in &zoo {
            let easy = response.expected_iou(spec, &FrameContext::easy());
            let hard = response.expected_iou(spec, &FrameContext::hard());
            assert!(easy > hard, "{}: easy {easy} vs hard {hard}", spec.id);
        }
    }

    #[test]
    fn expected_iou_zero_when_out_of_view() {
        let zoo = ModelZoo::standard();
        let response = ResponseModel::default();
        let ctx = FrameContext::easy().with_in_view(false);
        assert_eq!(response.expected_iou(zoo.spec(ModelId::YoloV7), &ctx), 0.0);
    }

    #[test]
    fn strong_model_beats_weak_model_on_hard_contexts() {
        let zoo = ModelZoo::standard();
        let response = ResponseModel::default();
        let hard = FrameContext::graded(0.75);
        let strong = response.expected_iou(zoo.spec(ModelId::YoloV7), &hard);
        let weak = response.expected_iou(zoo.spec(ModelId::SsdMobilenetV2Small), &hard);
        assert!(strong > weak + 0.1, "strong {strong} vs weak {weak}");
    }

    #[test]
    fn easy_contexts_compress_the_gap_between_models() {
        // The paper's key observation: on easy frames, cheap models perform
        // almost as well as the expensive ones.
        let zoo = ModelZoo::standard();
        let response = ResponseModel::default();
        let easy = FrameContext::graded(0.05);
        let hard = FrameContext::graded(0.8);
        let gap_easy = response.expected_iou(zoo.spec(ModelId::YoloV7), &easy)
            - response.expected_iou(zoo.spec(ModelId::SsdMobilenetV2), &easy);
        let gap_hard = response.expected_iou(zoo.spec(ModelId::YoloV7), &hard)
            - response.expected_iou(zoo.spec(ModelId::SsdMobilenetV2), &hard);
        assert!(
            gap_easy < gap_hard,
            "gap on easy frames ({gap_easy}) should be smaller than on hard frames ({gap_hard})"
        );
    }

    #[test]
    fn average_iou_tracks_reference_values() {
        // Over the characterization distribution the measured average IoU
        // should land near the paper's Table IV reference values and, more
        // importantly, preserve their ordering.
        let zoo = ModelZoo::standard();
        let response = ResponseModel::new(11);
        let dataset = CharacterizationDataset::generate(300, 21);
        let mut measured: Vec<(ModelId, f64)> = Vec::new();
        for spec in &zoo {
            let mean: f64 = dataset
                .iter()
                .map(|label| {
                    response
                        .infer(spec, label)
                        .iou_against(label.truth.as_ref())
                })
                .sum::<f64>()
                / dataset.len() as f64;
            assert!(
                (mean - spec.reference_iou).abs() < 0.17,
                "{}: measured {mean:.3} vs reference {:.3}",
                spec.id,
                spec.reference_iou
            );
            measured.push((spec.id, mean));
        }
        // Ordering: YoloV7 best, MobilenetV2-320 worst.
        let best = measured
            .iter()
            .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
            .unwrap()
            .0;
        let worst = measured
            .iter()
            .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
            .unwrap()
            .0;
        assert_eq!(worst, ModelId::SsdMobilenetV2Small);
        assert!(
            best == ModelId::YoloV7 || best == ModelId::YoloV7X,
            "best model should be a large YoloV7 variant, got {best}"
        );
    }

    #[test]
    fn confidence_correlates_with_quality_within_a_model() {
        let zoo = ModelZoo::standard();
        let response = ResponseModel::new(3);
        let dataset = CharacterizationDataset::generate(200, 33);
        let spec = zoo.spec(ModelId::YoloV7);
        let mut pairs = Vec::new();
        for label in &dataset {
            let r = response.infer(spec, label);
            if let Some(d) = r.detection {
                pairs.push((d.confidence, r.iou_against(label.truth.as_ref())));
            }
        }
        assert!(pairs.len() > 50);
        let corr = pearson(&pairs);
        assert!(corr > 0.4, "confidence/IoU correlation too weak: {corr}");
    }

    #[test]
    fn out_of_view_frames_mostly_produce_no_detection() {
        let zoo = ModelZoo::standard();
        let response = ResponseModel::new(9);
        let scenario = Scenario::scenario_2();
        let mut empty_frames = 0;
        let mut false_positives = 0;
        for label in (0..60).filter_map(|index| scenario.label_at(index)) {
            if label.truth.is_none() {
                empty_frames += 1;
                if response
                    .infer(zoo.spec(ModelId::YoloV7), &label)
                    .detection
                    .is_some()
                {
                    false_positives += 1;
                }
            }
        }
        assert!(
            empty_frames > 10,
            "scenario 2 starts with the target absent"
        );
        assert!(
            false_positives * 3 < empty_frames,
            "false positives should be rare: {false_positives}/{empty_frames}"
        );
    }

    #[test]
    fn inference_result_confidence_of_empty_is_zero() {
        let r = InferenceResult { detection: None };
        assert_eq!(r.confidence(), 0.0);
        assert_eq!(r.iou_against(None), 0.0);
    }

    fn pearson(pairs: &[(f64, f64)]) -> f64 {
        let n = pairs.len() as f64;
        let mx = pairs.iter().map(|p| p.0).sum::<f64>() / n;
        let my = pairs.iter().map(|p| p.1).sum::<f64>() / n;
        let mut num = 0.0;
        let mut dx = 0.0;
        let mut dy = 0.0;
        for (x, y) in pairs {
            num += (x - mx) * (y - my);
            dx += (x - mx).powi(2);
            dy += (y - my).powi(2);
        }
        num / (dx.sqrt() * dy.sqrt()).max(1e-12)
    }
}
