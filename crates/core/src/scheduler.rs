//! The SHIFT scheduling heuristic (paper Algorithm 1).
//!
//! Per frame the scheduler receives the currently running model, its reported
//! confidence and the frame-similarity score from the context detector. If
//! `similarity x confidence` still meets the accuracy goal the current model
//! is kept (no re-scheduling, no swap cost). Otherwise the confidence graph
//! converts the current confidence into accuracy predictions for every model,
//! those predictions are smoothed over a momentum window, filtered by the
//! accuracy goal, and every candidate (model, accelerator) pair is scored as
//!
//! ```text
//! score = accuracy * W_acc + inverted_energy * W_energy + inverted_latency * W_lat
//! ```
//!
//! with energy and latency normalized to `[0, 1]` over all candidate pairs
//! and inverted so that bigger is better. The arg-max pair wins.

use crate::characterize::Characterization;
use crate::config::ShiftConfig;
use crate::graph::ConfidenceGraph;
use serde::{Deserialize, Serialize};
use shift_models::ModelId;
use shift_soc::AcceleratorId;
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

/// A schedulable (model, accelerator) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct CandidatePair {
    /// The object-detection model.
    pub model: ModelId,
    /// The accelerator it would execute on.
    pub accelerator: AcceleratorId,
}

impl CandidatePair {
    /// Creates a pair.
    pub fn new(model: ModelId, accelerator: AcceleratorId) -> Self {
        Self { model, accelerator }
    }
}

impl std::fmt::Display for CandidatePair {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} on {}", self.model, self.accelerator)
    }
}

/// The outcome of one scheduling decision.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Decision {
    /// The pair chosen for the next inference.
    pub pair: CandidatePair,
    /// Whether a full re-scheduling pass ran (`false` when the similarity
    /// gate kept the current model).
    pub rescheduled: bool,
    /// The similarity score that drove the decision.
    pub similarity: f64,
    /// Scores of every candidate pair from the last re-scheduling pass
    /// (empty when the gate short-circuited).
    pub scores: Vec<(CandidatePair, f64)>,
}

impl Decision {
    /// The fallback order a driver degrades along when the decided pair is
    /// unusable (offline or memory-blocked): every scored candidate from
    /// best to worst (ties broken on the pair ordering so the walk is
    /// deterministic), then `incumbent`, with the decided pair and
    /// duplicates removed. Both the single-stream runtime and the fleet walk
    /// exactly this order, so their degradation behaviour cannot diverge.
    ///
    /// Runs on every degrade step of a fault walk, so it makes exactly one
    /// allocation: the returned vector, sorted and deduplicated in place.
    /// `scores` must list each pair at most once (as `force_reschedule`
    /// produces); the score lookup in the sort and the first-kept-wins dedup
    /// both rely on it.
    pub fn fallback_candidates(&self, incumbent: CandidatePair) -> Vec<CandidatePair> {
        debug_assert!(
            self.scores
                .iter()
                .enumerate()
                .all(|(i, (p, _))| self.scores[..i].iter().all(|(q, _)| q != p)),
            "Decision::scores must contain each pair at most once"
        );
        let score_of = |pair: &CandidatePair| -> f64 {
            self.scores
                .iter()
                .find(|(p, _)| p == pair)
                .map(|&(_, s)| s)
                .expect("pair came from scores")
        };
        let mut candidates: Vec<CandidatePair> = Vec::with_capacity(self.scores.len() + 1);
        candidates.extend(self.scores.iter().map(|&(pair, _)| pair));
        candidates.sort_by(|a, b| {
            score_of(b)
                .partial_cmp(&score_of(a))
                .expect("scores are finite")
                .then(a.cmp(b))
        });
        candidates.push(incumbent);
        let mut kept = 0;
        for i in 0..candidates.len() {
            let pair = candidates[i];
            if pair == self.pair || candidates[..kept].contains(&pair) {
                continue;
            }
            candidates[kept] = pair;
            kept += 1;
        }
        candidates.truncate(kept);
        candidates
    }
}

/// The graph-free half of a scheduler: every (model, accelerator) pair the
/// characterization can run on the allowed accelerators, with its
/// normalized energy and latency scores, and each model's reference
/// accuracy.
///
/// Nothing here depends on the accuracy goal or the confidence graph, so
/// admission reads a request's candidates and initial pair from a table
/// alone, and [`Scheduler`] keeps one as its dense per-pair and per-model
/// state: `pairs[i]` executes `models[pair_model[i]]` with traits
/// `energy_score[i]` / `latency_score[i]`.
#[derive(Debug, Clone)]
pub(crate) struct CandidateTable {
    pairs: Vec<CandidatePair>,
    /// Every characterized model in sorted order; all `*_model` indices
    /// point into this.
    models: Vec<ModelId>,
    /// Index into `models` of each pair's model, aligned with `pairs`.
    pair_model: Vec<usize>,
    /// Normalized, inverted energy score per pair (1 = most efficient),
    /// aligned with `pairs`.
    energy_score: Vec<f64>,
    /// Normalized, inverted latency score per pair (1 = fastest), aligned
    /// with `pairs`.
    latency_score: Vec<f64>,
    /// Reference accuracy per model (characterized mean IoU), which the
    /// scheduler falls back to before a model's momentum buffer has any
    /// graph predictions. Aligned with `models`.
    reference: Vec<f64>,
}

impl CandidateTable {
    /// Enumerates the pairs `characterization` can run on `allowed`, in
    /// model order, then `allowed` order.
    ///
    /// # Errors
    ///
    /// Returns [`crate::ShiftError::NoCandidatePairs`] when no characterized
    /// model can execute on any allowed accelerator.
    pub(crate) fn new(
        characterization: &Characterization,
        allowed: &[AcceleratorId],
    ) -> Result<Self, crate::ShiftError> {
        let mut pairs = Vec::new();
        let mut energy_raw = BTreeMap::new();
        let mut latency_raw = BTreeMap::new();
        let mut models = Vec::with_capacity(characterization.traits.len());
        let mut reference = Vec::with_capacity(characterization.traits.len());
        for (model, traits) in &characterization.traits {
            models.push(*model);
            reference.push(traits.mean_iou);
            for &accelerator in allowed {
                if let Some(stats) = traits.stats_on(accelerator) {
                    let pair = CandidatePair::new(*model, accelerator);
                    pairs.push(pair);
                    energy_raw.insert(pair, stats.mean_energy_j);
                    latency_raw.insert(pair, stats.mean_latency_s);
                }
            }
        }
        if pairs.is_empty() {
            return Err(crate::ShiftError::NoCandidatePairs);
        }
        let energy_map = normalize_inverted(&energy_raw);
        let latency_map = normalize_inverted(&latency_raw);
        let energy_score = pairs.iter().map(|pair| energy_map[pair]).collect();
        let latency_score = pairs.iter().map(|pair| latency_map[pair]).collect();
        let pair_model = pairs
            .iter()
            .map(|pair| {
                models
                    .binary_search(&pair.model)
                    .expect("every pair's model is characterized")
            })
            .collect();
        Ok(Self {
            pairs,
            models,
            pair_model,
            energy_score,
            latency_score,
            reference,
        })
    }

    /// The table of an agent built from `characterization` under `config`:
    /// the checks [`StreamAgent::new`](crate::runtime::StreamAgent::new)
    /// makes before it builds a graph, in its order.
    ///
    /// # Errors
    ///
    /// Returns [`crate::ShiftError::EmptyCharacterization`] when the
    /// characterization has no samples, then the errors of
    /// [`CandidateTable::new`].
    pub(crate) fn for_agent(
        characterization: &Characterization,
        config: &ShiftConfig,
    ) -> Result<Self, crate::ShiftError> {
        if characterization.is_empty() {
            return Err(crate::ShiftError::EmptyCharacterization);
        }
        Self::new(characterization, &config.allowed_accelerators)
    }

    /// The schedulable pairs.
    pub(crate) fn pairs(&self) -> &[CandidatePair] {
        &self.pairs
    }

    /// The highest reference accuracy any candidate pair's model reaches.
    pub(crate) fn best_reference_accuracy(&self) -> f64 {
        self.pair_model
            .iter()
            .map(|&m| self.reference[m])
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// A reasonable initial pair: the most accurate model, placed on its most
    /// energy-efficient allowed accelerator (mirrors a deployment that starts
    /// from the strongest detector before any context is known).
    pub(crate) fn initial_pair(&self) -> CandidatePair {
        let mut best: Option<(f64, CandidatePair)> = None;
        for (i, &pair) in self.pairs.iter().enumerate() {
            let accuracy = self.reference[self.pair_model[i]];
            let efficiency = self.energy_score[i];
            let key = accuracy + 1e-3 * efficiency;
            if best.is_none_or(|(k, _)| key > k) {
                best = Some((key, pair));
            }
        }
        best.expect("a table has at least one pair").1
    }

    /// Index of `model` in the dense per-model arrays, or `None` for an
    /// uncharacterized model.
    fn model_index(&self, model: ModelId) -> Option<usize> {
        self.models.binary_search(&model).ok()
    }
}

/// The SHIFT scheduler: the candidate table, a confidence graph and the
/// per-model momentum buffers.
///
/// The graph is shared by [`Arc`]: it is read-only once built, so every
/// scheduler built from one characterization and one [`GraphConfig`] can
/// use the same one. The characterization builds each graph once
/// ([`Characterization::graph`]) and every stream agent with that
/// configuration takes it.
///
/// All per-pair and per-model state lives in dense arrays indexed in lockstep
/// (the candidate table's, plus `pair_dominated`, `buffers`, `averaged` and
/// `valid`), so the per-frame Algorithm 1 pass is a single allocation-free
/// sweep with no map lookups.
///
/// [`GraphConfig`]: crate::graph::GraphConfig
#[derive(Debug, Clone)]
pub struct Scheduler {
    config: ShiftConfig,
    graph: Arc<ConfidenceGraph>,
    table: CandidateTable,
    /// Whether a later same-model pair always scores at least as high, so the
    /// arg-max sweep can skip this one (see `dominated_pairs`). Aligned with
    /// the table's pairs.
    pair_dominated: Vec<bool>,
    /// Momentum buffers of recent accuracy predictions, aligned with the
    /// table's models.
    buffers: Vec<VecDeque<f64>>,
    /// Scratch: momentum-averaged accuracy per model, aligned with the
    /// table's models.
    averaged: Vec<f64>,
    /// Scratch: accuracy-goal filter result per model, aligned with the
    /// table's models.
    valid: Vec<bool>,
    /// Count of full re-scheduling passes performed.
    reschedule_count: u64,
}

impl Scheduler {
    /// Builds a scheduler from a characterization and a pre-built confidence
    /// graph (owned, or shared by [`Arc`]).
    ///
    /// # Errors
    ///
    /// Returns [`crate::ShiftError::NoCandidatePairs`] when no characterized
    /// model can execute on any allowed accelerator.
    pub fn new(
        config: ShiftConfig,
        characterization: &Characterization,
        graph: impl Into<Arc<ConfidenceGraph>>,
    ) -> Result<Self, crate::ShiftError> {
        let table = CandidateTable::new(characterization, &config.allowed_accelerators)?;
        Ok(Self::from_table(config, table, graph.into()))
    }

    /// Builds a scheduler over an already enumerated candidate table.
    pub(crate) fn from_table(
        config: ShiftConfig,
        table: CandidateTable,
        graph: Arc<ConfidenceGraph>,
    ) -> Self {
        let pair_dominated = dominated_pairs(
            &table.pairs,
            &table.pair_model,
            &table.energy_score,
            &table.latency_score,
            &config,
        );
        let n_models = table.models.len();
        Self {
            config,
            graph,
            table,
            pair_dominated,
            buffers: vec![VecDeque::new(); n_models],
            averaged: vec![0.0; n_models],
            valid: vec![false; n_models],
            reschedule_count: 0,
        }
    }

    /// The configuration the scheduler was built with.
    pub fn config(&self) -> &ShiftConfig {
        &self.config
    }

    /// The schedulable pairs.
    pub fn candidate_pairs(&self) -> &[CandidatePair] {
        self.table.pairs()
    }

    /// The confidence graph in use.
    pub fn graph(&self) -> &ConfidenceGraph {
        &self.graph
    }

    /// Number of full re-scheduling passes performed so far.
    pub fn reschedule_count(&self) -> u64 {
        self.reschedule_count
    }

    /// Normalized, inverted energy score of `pair` in `[0, 1]` (1 marks the
    /// most efficient candidate), or `None` for a pair outside the candidate
    /// set.
    pub fn energy_score_of(&self, pair: CandidatePair) -> Option<f64> {
        let i = self.table.pairs.iter().position(|&p| p == pair)?;
        Some(self.table.energy_score[i])
    }

    /// Normalized, inverted latency score of `pair` in `[0, 1]` (1 marks the
    /// fastest candidate), or `None` for a pair outside the candidate set.
    pub fn latency_score_of(&self, pair: CandidatePair) -> Option<f64> {
        let i = self.table.pairs.iter().position(|&p| p == pair)?;
        Some(self.table.latency_score[i])
    }

    /// The characterized reference accuracy (mean IoU) of `model`: the value
    /// the scheduler falls back to when the confidence graph reaches no
    /// prediction for the model within the distance threshold.
    pub fn reference_accuracy(&self, model: ModelId) -> Option<f64> {
        Some(self.table.reference[self.table.model_index(model)?])
    }

    /// A reasonable initial pair: the most accurate model, placed on its most
    /// energy-efficient allowed accelerator (mirrors a deployment that starts
    /// from the strongest detector before any context is known).
    pub fn initial_pair(&self) -> CandidatePair {
        self.table.initial_pair()
    }

    /// Runs Algorithm 1 for one frame.
    ///
    /// * `current` — the pair that produced the latest detection.
    /// * `confidence` — the confidence it reported (0 when nothing was
    ///   detected).
    /// * `similarity` — the context detector's `min(NCC_image, NCC_bbox)`.
    pub fn schedule(
        &mut self,
        current: CandidatePair,
        confidence: f64,
        similarity: f64,
    ) -> Decision {
        // Line 3-5: keep the current model while the context is stable and
        // the model is confident.
        if similarity * confidence >= self.config.accuracy_goal {
            return Decision {
                pair: current,
                rescheduled: false,
                similarity,
                scores: Vec::new(),
            };
        }
        self.force_reschedule(current, confidence, similarity)
    }

    /// Runs the full re-scheduling pass of Algorithm 1 unconditionally,
    /// bypassing the similarity gate: confidence-graph lookup, momentum
    /// update, accuracy-goal filter and the arg-max over all candidate
    /// pairs. This is the decision path behind the paper's "< 2 ms per
    /// frame" overhead claim, exposed separately so the perf-regression
    /// suite can benchmark it without constructing gate-defeating inputs.
    pub fn force_reschedule(
        &mut self,
        current: CandidatePair,
        confidence: f64,
        similarity: f64,
    ) -> Decision {
        self.reschedule_count += 1;

        // Line 9: predict accuracies for every model from the current model's
        // confidence via the confidence graph.
        let predictions = self.graph.predict(current.model, confidence);

        // Lines 11-14: push predictions into the momentum buffers and average.
        // (Predictions for uncharacterized models, which the average below
        // would never read, are dropped instead of buffered.)
        for prediction in &predictions {
            let Some(i) = self.table.model_index(prediction.model) else {
                continue;
            };
            let buffer = &mut self.buffers[i];
            buffer.push_back(prediction.accuracy);
            while buffer.len() > self.config.momentum {
                buffer.pop_front();
            }
        }
        for (i, &fallback) in self.table.reference.iter().enumerate() {
            let buffer = &self.buffers[i];
            self.averaged[i] = if buffer.is_empty() {
                fallback
            } else {
                buffer.iter().sum::<f64>() / buffer.len() as f64
            };
        }

        // Lines 15-18: keep models meeting the accuracy goal; if none do,
        // consider every model.
        let mut any_valid = false;
        for (i, &averaged) in self.averaged.iter().enumerate() {
            let valid = averaged >= self.config.accuracy_goal;
            self.valid[i] = valid;
            any_valid |= valid;
        }
        if !any_valid {
            self.valid.fill(true);
        }

        // Lines 19-23: score candidate pairs and take the maximum in the same
        // sweep. Every surviving pair is scored and recorded — downstream
        // fault-degrade walks consume the full `scores` list — but pairs
        // marked dominated are skipped by the max tracking: a later
        // same-model pair always scores at least as high (see
        // `dominated_pairs` for why that preserves the arg-max bit-for-bit).
        let knobs = self.config.knobs;
        let table = &self.table;
        let mut scores: Vec<(CandidatePair, f64)> = Vec::with_capacity(table.pairs.len());
        let mut best: Option<(CandidatePair, f64)> = None;
        let mut current_score: Option<f64> = None;
        for (i, &pair) in table.pairs.iter().enumerate() {
            if !self.valid[table.pair_model[i]] {
                continue;
            }
            let accuracy = self.averaged[table.pair_model[i]];
            let energy = table.energy_score[i];
            let latency = table.latency_score[i];
            let score = accuracy * knobs.accuracy + energy * knobs.energy + latency * knobs.latency;
            scores.push((pair, score));
            if current_score.is_none() && pair == current {
                current_score = Some(score);
            }
            if !self.pair_dominated[i] {
                // `>=` mirrors `max_by`, which keeps the *last* of equal
                // maxima.
                match best {
                    Some((_, best_score)) if score < best_score => {}
                    _ => best = Some((pair, score)),
                }
            }
        }
        let best = best.unwrap_or((current, 0.0));
        // Hysteresis: keep the incumbent unless the challenger clearly wins.
        let pair = match current_score {
            Some(incumbent)
                if best.0 != current && best.1 <= incumbent * (1.0 + self.config.switch_margin) =>
            {
                current
            }
            _ => best.0,
        };
        Decision {
            pair,
            rescheduled: true,
            similarity,
            scores,
        }
    }

    /// Clears the momentum buffers (used between scenario runs so history
    /// from one video does not leak into the next).
    pub fn reset_buffers(&mut self) {
        for buffer in &mut self.buffers {
            buffer.clear();
        }
    }
}

/// Marks the candidate pairs the arg-max sweep can skip without changing its
/// result: pair `i` is dominated when some *later* pair `j` runs the same
/// model with `energy_score[j] >= energy_score[i]` and `latency_score[j] >=
/// latency_score[i]`.
///
/// Skipping dominated pairs is bit-exact, not just approximately right:
///
/// * Same model means the accuracy term `averaged * knobs.accuracy` is the
///   same f64 for both pairs in every future pass, whatever the momentum
///   buffers hold.
/// * With non-negative energy/latency knobs, `x * knob` and `sum + term` are
///   monotone under IEEE-754 round-to-nearest, so term-by-term dominance
///   carries through the left-to-right score expression:
///   `score[j] >= score[i]` as computed, including any rounding.
/// * The sweep keeps the *last* of equal maxima (matching
///   `Iterator::max_by`). The winning index can therefore never be a
///   dominated pair: its dominator scores at least as high *and* comes
///   later, so it would have won instead.
///
/// Negative knobs flip the monotonicity, so pruning is disabled (all
/// `false`) unless both weight knobs are non-negative. ([`crate::config::Knobs::new`]
/// clamps negatives away, but the fields are public, so this is checked
/// rather than assumed. The accuracy knob's sign is irrelevant: same-model
/// pairs share the accuracy term exactly.)
fn dominated_pairs(
    pairs: &[CandidatePair],
    pair_model: &[usize],
    energy_score: &[f64],
    latency_score: &[f64],
    config: &ShiftConfig,
) -> Vec<bool> {
    let mut dominated = vec![false; pairs.len()];
    if !(config.knobs.energy >= 0.0 && config.knobs.latency >= 0.0) {
        return dominated;
    }
    for i in 0..pairs.len() {
        dominated[i] = (i + 1..pairs.len()).any(|j| {
            pair_model[j] == pair_model[i]
                && energy_score[j] >= energy_score[i]
                && latency_score[j] >= latency_score[i]
        });
    }
    dominated
}

/// Normalizes raw (smaller-is-better) values to `[0, 1]` and inverts them so
/// `1.0` marks the cheapest entry, as required by the scheduler's
/// bigger-is-better maximum search. A degenerate range maps everything to 1.
fn normalize_inverted(raw: &BTreeMap<CandidatePair, f64>) -> BTreeMap<CandidatePair, f64> {
    let min = raw.values().copied().fold(f64::INFINITY, f64::min);
    let max = raw.values().copied().fold(f64::NEG_INFINITY, f64::max);
    let span = max - min;
    raw.iter()
        .map(|(&pair, &value)| {
            let normalized = if span <= f64::EPSILON {
                1.0
            } else {
                1.0 - (value - min) / span
            };
            (pair, normalized)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::characterize::characterize;
    use crate::graph::GraphConfig;
    use shift_models::{ModelZoo, ResponseModel};
    use shift_soc::{ExecutionEngine, Platform};
    use shift_video::CharacterizationDataset;

    fn build_scheduler(config: ShiftConfig) -> Scheduler {
        let engine = ExecutionEngine::new(
            Platform::xavier_nx_with_oak(),
            ModelZoo::standard(),
            ResponseModel::new(4),
        );
        let characterization = characterize(&engine, &CharacterizationDataset::generate(200, 8));
        let graph = ConfidenceGraph::build(
            &characterization.samples,
            GraphConfig::paper_defaults().with_distance_threshold(config.distance_threshold),
        );
        Scheduler::new(config, &characterization, graph).expect("scheduler builds")
    }

    #[test]
    fn candidate_pairs_exclude_cpu_by_default() {
        let scheduler = build_scheduler(ShiftConfig::paper_defaults());
        assert!(scheduler
            .candidate_pairs()
            .iter()
            .all(|p| p.accelerator != AcceleratorId::Cpu));
        // 8 models x (GPU + DLA0 + DLA1) + 2 x OAK-D = 26 instance-level pairs.
        assert_eq!(scheduler.candidate_pairs().len(), 26);
    }

    #[test]
    fn similarity_gate_keeps_the_current_pair() {
        let mut scheduler = build_scheduler(ShiftConfig::paper_defaults());
        let current = CandidatePair::new(ModelId::YoloV7, AcceleratorId::Gpu);
        let decision = scheduler.schedule(current, 0.9, 0.95);
        assert_eq!(decision.pair, current);
        assert!(!decision.rescheduled);
        assert!(decision.scores.is_empty());
        assert_eq!(scheduler.reschedule_count(), 0);
    }

    #[test]
    fn low_similarity_triggers_rescheduling() {
        let mut scheduler = build_scheduler(ShiftConfig::paper_defaults());
        let current = CandidatePair::new(ModelId::YoloV7, AcceleratorId::Gpu);
        let decision = scheduler.schedule(current, 0.9, 0.1);
        assert!(decision.rescheduled);
        assert!(!decision.scores.is_empty());
        assert_eq!(scheduler.reschedule_count(), 1);
    }

    #[test]
    fn force_reschedule_bypasses_the_similarity_gate() {
        let mut scheduler = build_scheduler(ShiftConfig::paper_defaults());
        let current = CandidatePair::new(ModelId::YoloV7, AcceleratorId::Gpu);
        // These inputs pass the gate in `schedule` (0.9 * 0.95 >= goal)...
        let gated = scheduler.schedule(current, 0.9, 0.95);
        assert!(!gated.rescheduled);
        // ...but `force_reschedule` runs the full arg-max pass anyway.
        let forced = scheduler.force_reschedule(current, 0.9, 0.95);
        assert!(forced.rescheduled);
        assert!(!forced.scores.is_empty());
        assert_eq!(scheduler.reschedule_count(), 1);
    }

    #[test]
    fn zero_confidence_always_reschedules() {
        let mut scheduler = build_scheduler(ShiftConfig::paper_defaults());
        let current = CandidatePair::new(ModelId::YoloV7Tiny, AcceleratorId::OakD);
        let decision = scheduler.schedule(current, 0.0, 1.0);
        assert!(decision.rescheduled);
    }

    #[test]
    fn energy_knob_pushes_choices_toward_efficient_pairs() {
        use crate::config::Knobs;
        let energy_cfg = ShiftConfig::paper_defaults().with_knobs(Knobs::new(0.1, 3.0, 0.0));
        let accuracy_cfg = ShiftConfig::paper_defaults().with_knobs(Knobs::new(3.0, 0.0, 0.0));
        let mut energy_sched = build_scheduler(energy_cfg);
        let mut accuracy_sched = build_scheduler(accuracy_cfg);
        let current = CandidatePair::new(ModelId::YoloV7, AcceleratorId::Gpu);
        // Force a re-schedule with a high confidence (hard context unknown).
        let energy_pick = energy_sched.schedule(current, 0.8, 0.0);
        let accuracy_pick = accuracy_sched.schedule(current, 0.8, 0.0);
        let energy_of =
            |pair: &CandidatePair, s: &Scheduler| s.energy_score_of(*pair).unwrap_or(0.0);
        assert!(
            energy_of(&energy_pick.pair, &energy_sched)
                >= energy_of(&accuracy_pick.pair, &accuracy_sched),
            "energy-weighted scheduler should pick at least as efficient a pair"
        );
    }

    #[test]
    fn accuracy_first_knobs_pick_a_strong_model_when_context_is_hard() {
        let config = ShiftConfig::paper_defaults()
            .with_knobs(crate::config::Knobs::accuracy_first())
            .with_accuracy_goal(0.5);
        let mut scheduler = build_scheduler(config);
        let current = CandidatePair::new(ModelId::SsdMobilenetV2Small, AcceleratorId::Gpu);
        // Low confidence from the small model on a changed scene.
        let decision = scheduler.schedule(current, 0.35, 0.1);
        assert!(decision.rescheduled);
        let chosen = decision.pair.model;
        let strong_families = [
            ModelId::YoloV7,
            ModelId::YoloV7X,
            ModelId::YoloV7E6E,
            ModelId::YoloV7Tiny,
        ];
        assert!(
            strong_families.contains(&chosen),
            "accuracy-first scheduling should escalate to a YoloV7 variant, got {chosen}"
        );
    }

    #[test]
    fn momentum_buffer_is_bounded() {
        let config = ShiftConfig::paper_defaults().with_momentum(5);
        let mut scheduler = build_scheduler(config);
        let current = CandidatePair::new(ModelId::YoloV7, AcceleratorId::Gpu);
        for _ in 0..50 {
            scheduler.schedule(current, 0.6, 0.0);
        }
        for buffer in &scheduler.buffers {
            assert!(buffer.len() <= 5);
        }
        scheduler.reset_buffers();
        assert!(scheduler.buffers.iter().all(|b| b.is_empty()));
    }

    #[test]
    fn initial_pair_is_an_accurate_model() {
        let scheduler = build_scheduler(ShiftConfig::paper_defaults());
        let pair = scheduler.initial_pair();
        assert_eq!(pair.model, ModelId::YoloV7, "highest characterized IoU");
    }

    #[test]
    fn no_candidate_pairs_is_an_error() {
        let engine = ExecutionEngine::new(
            Platform::xavier_nx_with_oak(),
            ModelZoo::standard(),
            ResponseModel::new(4),
        );
        let characterization = characterize(&engine, &CharacterizationDataset::generate(20, 8));
        let graph =
            ConfidenceGraph::build(&characterization.samples, GraphConfig::paper_defaults());
        let config = ShiftConfig::paper_defaults().with_allowed_accelerators(vec![]);
        let result = Scheduler::new(config, &characterization, graph);
        assert_eq!(result.err(), Some(crate::ShiftError::NoCandidatePairs));
    }

    #[test]
    fn normalization_inverts_ordering() {
        let mut raw = BTreeMap::new();
        let a = CandidatePair::new(ModelId::YoloV7, AcceleratorId::Gpu);
        let b = CandidatePair::new(ModelId::YoloV7Tiny, AcceleratorId::Gpu);
        raw.insert(a, 2.0);
        raw.insert(b, 0.5);
        let normalized = normalize_inverted(&raw);
        assert_eq!(normalized[&b], 1.0, "cheapest maps to 1");
        assert_eq!(normalized[&a], 0.0, "most expensive maps to 0");
    }

    #[test]
    fn degenerate_normalization_maps_to_one() {
        let mut raw = BTreeMap::new();
        let a = CandidatePair::new(ModelId::YoloV7, AcceleratorId::Gpu);
        raw.insert(a, 3.3);
        let normalized = normalize_inverted(&raw);
        assert_eq!(normalized[&a], 1.0);
    }

    #[test]
    fn decision_display_types() {
        let pair = CandidatePair::new(ModelId::YoloV7, AcceleratorId::Dla0);
        assert_eq!(pair.to_string(), "YoloV7 on DLA0");
    }

    #[test]
    fn fallback_order_with_duplicated_incumbent() {
        // The exact degrade sequence both runtimes walk: scored pairs sorted
        // by descending score with ties broken on the pair ordering, then the
        // incumbent, minus the decided pair and duplicates. Here the
        // incumbent `a` is *also* a scored candidate, so it must appear once,
        // at its scored rank — not again at the tail.
        let a = CandidatePair::new(ModelId::YoloV7, AcceleratorId::Gpu);
        let b = CandidatePair::new(ModelId::YoloV7, AcceleratorId::Dla0);
        let c = CandidatePair::new(ModelId::YoloV7Tiny, AcceleratorId::Gpu);
        let d = CandidatePair::new(ModelId::YoloV7Tiny, AcceleratorId::Dla0);
        let decision = Decision {
            pair: b,
            rescheduled: true,
            similarity: 0.1,
            scores: vec![(a, 0.4), (b, 0.9), (c, 0.4), (d, 0.2)],
        };
        // Rank: b(0.9) removed as the decided pair; a and c tie at 0.4 and
        // break on pair order (YoloV7 < YoloV7Tiny); d(0.2) last.
        assert_eq!(decision.fallback_candidates(a), vec![a, c, d]);
        // An unscored incumbent lands at the tail instead.
        let e = CandidatePair::new(ModelId::SsdResnet50, AcceleratorId::Gpu);
        assert_eq!(decision.fallback_candidates(e), vec![a, c, d, e]);
    }

    #[test]
    fn fallback_of_gated_decision_is_just_the_incumbent() {
        let a = CandidatePair::new(ModelId::YoloV7, AcceleratorId::Gpu);
        let b = CandidatePair::new(ModelId::YoloV7, AcceleratorId::Dla0);
        let decision = Decision {
            pair: a,
            rescheduled: false,
            similarity: 0.99,
            scores: Vec::new(),
        };
        assert_eq!(decision.fallback_candidates(b), vec![b]);
        assert!(decision.fallback_candidates(a).is_empty());
    }

    #[test]
    fn dominated_pairs_never_win_the_argmax() {
        // Whatever the dominance precomputation marks, the pair force_reschedule
        // picks must never be one of them — that is the whole safety argument.
        let mut scheduler = build_scheduler(ShiftConfig::paper_defaults());
        assert!(
            scheduler.pair_dominated.iter().any(|&d| d),
            "paper-default traits should admit at least one dominated pair"
        );
        let current = CandidatePair::new(ModelId::YoloV7, AcceleratorId::Gpu);
        for confidence in [0.0, 0.3, 0.6, 0.9] {
            let decision = scheduler.force_reschedule(current, confidence, 0.0);
            let winner = scheduler
                .candidate_pairs()
                .iter()
                .position(|&p| p == decision.pair)
                .expect("decided pair is a candidate");
            assert!(
                !scheduler.pair_dominated[winner] || decision.pair == current,
                "a dominated pair won the arg-max: {}",
                decision.pair
            );
        }
    }
}
