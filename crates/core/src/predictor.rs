//! Alternative accuracy predictors for ablating the confidence graph.
//!
//! The paper motivates the confidence graph by contrasting it with "costly
//! classifiers, an ensemble, or less expensive predictors employed by similar
//! works". This module makes that comparison concrete: every predictor maps
//! *(model that just ran, confidence it reported)* to an accuracy estimate
//! for **every** model, exactly like [`ConfidenceGraph::predict`], so the
//! ablation experiments can swap them freely and measure prediction error and
//! lookup cost side by side.
//!
//! Implemented predictors:
//!
//! * [`ConfidenceGraph`] itself (the paper's mechanism).
//! * [`PassthroughPredictor`] — assume every model would achieve exactly the
//!   reported confidence (the naive "trust the DNN" baseline).
//! * [`RegressionPredictor`] — one least-squares linear fit per
//!   (source, target) model pair, learned from the same characterization
//!   samples the graph is built from.
//! * [`EnsemblePredictor`] — averages any set of predictors.

use crate::characterize::SampleObservation;
use crate::graph::{ConfidenceGraph, Prediction};
use serde::{Deserialize, Serialize};
use shift_models::ModelId;
use std::collections::BTreeMap;

/// A runtime accuracy predictor: converts the confidence score of the one
/// model that actually ran into accuracy estimates for all models.
pub trait AccuracyPredictor {
    /// Human-readable name used in ablation reports.
    fn name(&self) -> &'static str;

    /// Predicts the accuracy every known model would achieve on the current
    /// frame, given that `model` just reported `confidence`.
    ///
    /// Returns one [`Prediction`] per model the predictor knows about; an
    /// unknown `model` yields an empty vector.
    fn predict(&self, model: ModelId, confidence: f64) -> Vec<Prediction>;
}

impl AccuracyPredictor for ConfidenceGraph {
    fn name(&self) -> &'static str {
        "confidence-graph"
    }

    fn predict(&self, model: ModelId, confidence: f64) -> Vec<Prediction> {
        ConfidenceGraph::predict(self, model, confidence)
    }
}

/// Naive predictor: whatever confidence the current model reports is assumed
/// to be the accuracy of every model.
///
/// This is the cheapest possible predictor and the one the paper's
/// introduction warns about: confidence scores "are not consistent across
/// different ODM architectures", so passing them through untranslated
/// systematically mis-ranks the other models.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PassthroughPredictor {
    models: Vec<ModelId>,
}

impl PassthroughPredictor {
    /// Creates a passthrough predictor for the given models.
    pub fn new(models: Vec<ModelId>) -> Self {
        Self { models }
    }

    /// Creates a passthrough predictor covering every model that appears in
    /// the characterization samples.
    pub fn from_samples(samples: &[SampleObservation]) -> Self {
        Self {
            models: models_in(samples),
        }
    }
}

impl AccuracyPredictor for PassthroughPredictor {
    fn name(&self) -> &'static str {
        "confidence-passthrough"
    }

    fn predict(&self, model: ModelId, confidence: f64) -> Vec<Prediction> {
        if !self.models.contains(&model) {
            return Vec::new();
        }
        let accuracy = confidence.clamp(0.0, 1.0);
        self.models
            .iter()
            .map(|&m| Prediction {
                model: m,
                accuracy,
                distance: if m == model { 0.0 } else { 1.0 },
            })
            .collect()
    }
}

/// One least-squares linear fit `iou_target ≈ slope * conf_source + intercept`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
struct LinearFit {
    slope: f64,
    intercept: f64,
    samples: usize,
}

impl LinearFit {
    fn fit(points: &[(f64, f64)]) -> Self {
        let n = points.len();
        if n == 0 {
            return Self {
                slope: 0.0,
                intercept: 0.0,
                samples: 0,
            };
        }
        let nf = n as f64;
        let mean_x = points.iter().map(|p| p.0).sum::<f64>() / nf;
        let mean_y = points.iter().map(|p| p.1).sum::<f64>() / nf;
        let mut cov = 0.0;
        let mut var = 0.0;
        for &(x, y) in points {
            cov += (x - mean_x) * (y - mean_y);
            var += (x - mean_x) * (x - mean_x);
        }
        if var <= 1e-12 {
            return Self {
                slope: 0.0,
                intercept: mean_y,
                samples: n,
            };
        }
        let slope = cov / var;
        Self {
            slope,
            intercept: mean_y - slope * mean_x,
            samples: n,
        }
    }

    fn eval(&self, x: f64) -> f64 {
        (self.slope * x + self.intercept).clamp(0.0, 1.0)
    }
}

/// Per-(source, target) linear regression predictor.
///
/// For every ordered pair of models the predictor fits a linear map from the
/// source model's confidence score to the target model's measured IoU on the
/// characterization frames where both produced a detection. Prediction is two
/// map lookups and a multiply-add per model — comparable in cost to the
/// confidence graph's map lookup, but without the graph's ability to pool
/// statistically related confidence bins.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RegressionPredictor {
    fits: BTreeMap<(ModelId, ModelId), LinearFit>,
    models: Vec<ModelId>,
}

impl RegressionPredictor {
    /// Fits the predictor from characterization samples.
    pub fn fit(samples: &[SampleObservation]) -> Self {
        let models = models_in(samples);
        let mut fits = BTreeMap::new();
        for &source in &models {
            for &target in &models {
                let points: Vec<(f64, f64)> = samples
                    .iter()
                    .filter_map(|sample| {
                        let s = sample.per_model.get(&source)?;
                        let t = sample.per_model.get(&target)?;
                        if !s.detected {
                            return None;
                        }
                        Some((s.confidence, t.iou))
                    })
                    .collect();
                fits.insert((source, target), LinearFit::fit(&points));
            }
        }
        Self { fits, models }
    }

    /// Models covered by the predictor.
    pub fn models(&self) -> &[ModelId] {
        &self.models
    }
}

impl AccuracyPredictor for RegressionPredictor {
    fn name(&self) -> &'static str {
        "pairwise-regression"
    }

    fn predict(&self, model: ModelId, confidence: f64) -> Vec<Prediction> {
        if !self.models.contains(&model) {
            return Vec::new();
        }
        self.models
            .iter()
            .map(|&target| {
                let fit = self
                    .fits
                    .get(&(model, target))
                    .copied()
                    .unwrap_or(LinearFit {
                        slope: 0.0,
                        intercept: 0.0,
                        samples: 0,
                    });
                Prediction {
                    model: target,
                    accuracy: fit.eval(confidence),
                    distance: if target == model { 0.0 } else { 1.0 },
                }
            })
            .collect()
    }
}

/// Averages the predictions of several predictors.
///
/// This stands in for the "ensemble" alternative the paper mentions: more
/// robust than any single predictor but correspondingly more expensive, since
/// every member must be evaluated per lookup.
pub struct EnsemblePredictor {
    members: Vec<Box<dyn AccuracyPredictor + Send + Sync>>,
}

impl EnsemblePredictor {
    /// Creates an ensemble over the given members.
    ///
    /// # Panics
    ///
    /// Panics if `members` is empty.
    pub fn new(members: Vec<Box<dyn AccuracyPredictor + Send + Sync>>) -> Self {
        assert!(!members.is_empty(), "ensemble needs at least one member");
        Self { members }
    }

    /// Number of member predictors.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the ensemble has no members (never true after construction).
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }
}

impl std::fmt::Debug for EnsemblePredictor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EnsemblePredictor")
            .field("members", &self.members.len())
            .finish()
    }
}

impl AccuracyPredictor for EnsemblePredictor {
    fn name(&self) -> &'static str {
        "ensemble"
    }

    fn predict(&self, model: ModelId, confidence: f64) -> Vec<Prediction> {
        let mut sums: BTreeMap<ModelId, (f64, f64, usize)> = BTreeMap::new();
        for member in &self.members {
            for prediction in member.predict(model, confidence) {
                let entry = sums.entry(prediction.model).or_insert((0.0, 0.0, 0));
                entry.0 += prediction.accuracy;
                entry.1 += prediction.distance;
                entry.2 += 1;
            }
        }
        sums.into_iter()
            .map(|(m, (acc, dist, count))| Prediction {
                model: m,
                accuracy: acc / count as f64,
                distance: dist / count as f64,
            })
            .collect()
    }
}

/// Evaluates a predictor's accuracy-prediction error over held-out samples.
///
/// For every sample and every source model that produced a detection, the
/// predictor is asked to predict all models' accuracies from that source
/// model's confidence; the absolute error against the measured IoU of each
/// target model is accumulated. Returns the mean absolute error, or `None`
/// when no (sample, source, target) triple was evaluable.
pub fn prediction_mae<P: AccuracyPredictor + ?Sized>(
    predictor: &P,
    samples: &[SampleObservation],
) -> Option<f64> {
    let mut total_error = 0.0;
    let mut count = 0usize;
    for sample in samples {
        for (&source, observation) in &sample.per_model {
            if !observation.detected {
                continue;
            }
            for prediction in predictor.predict(source, observation.confidence) {
                let Some(actual) = sample.per_model.get(&prediction.model) else {
                    continue;
                };
                total_error += (prediction.accuracy - actual.iou).abs();
                count += 1;
            }
        }
    }
    if count == 0 {
        None
    } else {
        Some(total_error / count as f64)
    }
}

fn models_in(samples: &[SampleObservation]) -> Vec<ModelId> {
    let mut models: Vec<ModelId> = samples
        .iter()
        .flat_map(|s| s.per_model.keys().copied())
        .collect();
    models.sort();
    models.dedup();
    models
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::characterize::characterize;
    use crate::graph::GraphConfig;
    use shift_models::{ModelZoo, ResponseModel};
    use shift_soc::{ExecutionEngine, Platform};
    use shift_video::CharacterizationDataset;

    fn samples() -> Vec<SampleObservation> {
        let engine = ExecutionEngine::new(
            Platform::xavier_nx_with_oak(),
            ModelZoo::standard(),
            ResponseModel::new(4),
        );
        characterize(&engine, &CharacterizationDataset::generate(150, 9))
            .samples
            .to_vec()
    }

    #[test]
    fn linear_fit_recovers_a_line() {
        let points: Vec<(f64, f64)> = (0..20)
            .map(|i| (i as f64 / 20.0, 0.5 * i as f64 / 20.0 + 0.1))
            .collect();
        let fit = LinearFit::fit(&points);
        assert!((fit.slope - 0.5).abs() < 1e-9);
        assert!((fit.intercept - 0.1).abs() < 1e-9);
        assert!((fit.eval(0.4) - 0.3).abs() < 1e-9);
    }

    #[test]
    fn linear_fit_handles_degenerate_inputs() {
        let empty = LinearFit::fit(&[]);
        assert_eq!(empty.eval(0.7), 0.0);
        let constant = LinearFit::fit(&[(0.5, 0.4), (0.5, 0.6)]);
        assert!((constant.eval(0.1) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn passthrough_predicts_the_same_accuracy_for_every_model() {
        let predictor = PassthroughPredictor::from_samples(&samples());
        let predictions = predictor.predict(ModelId::YoloV7, 0.7);
        assert_eq!(predictions.len(), 8);
        assert!(predictions.iter().all(|p| (p.accuracy - 0.7).abs() < 1e-12));
        assert!(predictor.predict(ModelId::YoloV7, 1.5)[0].accuracy <= 1.0);
    }

    #[test]
    fn regression_covers_all_models_and_stays_in_bounds() {
        let samples = samples();
        let predictor = RegressionPredictor::fit(&samples);
        assert_eq!(predictor.models().len(), 8);
        for confidence in [0.0, 0.3, 0.6, 0.9, 1.0] {
            let predictions = predictor.predict(ModelId::YoloV7Tiny, confidence);
            assert_eq!(predictions.len(), 8);
            for p in predictions {
                assert!(p.accuracy >= 0.0 && p.accuracy <= 1.0);
            }
        }
    }

    #[test]
    fn unknown_model_yields_empty_predictions() {
        let predictor = PassthroughPredictor::new(vec![ModelId::YoloV7]);
        assert!(predictor.predict(ModelId::SsdResnet50, 0.5).is_empty());
        let regression = RegressionPredictor::fit(&[]);
        assert!(regression.predict(ModelId::YoloV7, 0.5).is_empty());
    }

    #[test]
    fn graph_beats_passthrough_on_prediction_error() {
        let samples = samples();
        let graph = ConfidenceGraph::build(&samples, GraphConfig::paper_defaults());
        let passthrough = PassthroughPredictor::from_samples(&samples);
        let graph_mae = prediction_mae(&graph, &samples).expect("graph evaluable");
        let passthrough_mae =
            prediction_mae(&passthrough, &samples).expect("passthrough evaluable");
        assert!(
            graph_mae < passthrough_mae,
            "confidence graph ({graph_mae:.3}) should out-predict raw confidence passthrough \
             ({passthrough_mae:.3})"
        );
    }

    #[test]
    fn regression_beats_passthrough_on_prediction_error() {
        let samples = samples();
        let regression = RegressionPredictor::fit(&samples);
        let passthrough = PassthroughPredictor::from_samples(&samples);
        let regression_mae = prediction_mae(&regression, &samples).unwrap();
        let passthrough_mae = prediction_mae(&passthrough, &samples).unwrap();
        assert!(regression_mae < passthrough_mae);
    }

    #[test]
    fn ensemble_averages_members() {
        let samples = samples();
        let ensemble = EnsemblePredictor::new(vec![
            Box::new(ConfidenceGraph::build(
                &samples,
                GraphConfig::paper_defaults(),
            )),
            Box::new(PassthroughPredictor::from_samples(&samples)),
        ]);
        assert_eq!(ensemble.len(), 2);
        assert!(!ensemble.is_empty());
        let predictions = ensemble.predict(ModelId::YoloV7, 0.8);
        assert!(!predictions.is_empty());
        for p in predictions {
            assert!(p.accuracy >= 0.0 && p.accuracy <= 1.0);
        }
        assert_eq!(ensemble.name(), "ensemble");
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn empty_ensemble_panics() {
        let _ = EnsemblePredictor::new(Vec::new());
    }

    #[test]
    fn prediction_mae_is_none_for_empty_inputs() {
        let predictor = PassthroughPredictor::new(vec![ModelId::YoloV7]);
        assert!(prediction_mae(&predictor, &[]).is_none());
    }

    #[test]
    fn predictor_names_are_distinct() {
        let samples = samples();
        let graph = ConfidenceGraph::build(&samples, GraphConfig::paper_defaults());
        let regression = RegressionPredictor::fit(&samples);
        let passthrough = PassthroughPredictor::from_samples(&samples);
        let names = [graph.name(), regression.name(), passthrough.name()];
        let unique: std::collections::BTreeSet<_> = names.iter().collect();
        assert_eq!(unique.len(), names.len());
    }
}
