//! The confidence graph (paper §III-A, "Confidence Graph Creation").
//!
//! Confidence scores of different model architectures are not directly
//! comparable, but on any given validation frame the scores reported by
//! different models *co-occur*. The confidence graph captures those
//! co-occurrences:
//!
//! 1. Every node is a `(model, confidence-score bin)` pair annotated with the
//!    expected accuracy (mean IoU) of that model in that bin.
//! 2. For every validation image, edges are created between the nodes hit by
//!    each pair of models; repeated co-occurrences increment the edge weight.
//! 3. Edge weights are normalized per node and inverted so strongly
//!    correlated bins are cheap to traverse.
//! 4. A bounded shortest-path search from every node collects the neighbour
//!    nodes within a distance threshold.
//! 5. Neighbours belonging to the same model are consolidated by a
//!    distance-weighted average of their expected accuracies.
//! 6. The result is stored in a map, so the runtime prediction is a lookup —
//!    "Instead of relying on costly classifiers ... we can execute a map
//!    lookup at runtime."

use crate::characterize::SampleObservation;
use serde::{Deserialize, Serialize};
use shift_models::ModelId;
use std::collections::{BTreeMap, BinaryHeap};

/// Construction parameters of the confidence graph.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GraphConfig {
    /// Width of each confidence-score bin (the paper's example uses ranges
    /// like 0.5–0.6, i.e. a width of 0.1).
    pub bin_width: f64,
    /// Maximum accumulated traversal cost for a node to count as a neighbour
    /// (the paper's *distance threshold* knob; Table III uses 0.5).
    pub distance_threshold: f64,
}

impl GraphConfig {
    /// The configuration used for the paper's main results.
    pub fn paper_defaults() -> Self {
        Self {
            bin_width: 0.1,
            distance_threshold: 0.5,
        }
    }

    /// Returns a copy with a different distance threshold (Fig. 5 sweeps
    /// this).
    pub fn with_distance_threshold(mut self, distance_threshold: f64) -> Self {
        self.distance_threshold = distance_threshold.max(0.0);
        self
    }

    /// Returns a copy with a different bin width.
    pub fn with_bin_width(mut self, bin_width: f64) -> Self {
        self.bin_width = bin_width.clamp(0.01, 1.0);
        self
    }
}

impl Default for GraphConfig {
    fn default() -> Self {
        Self::paper_defaults()
    }
}

/// An accuracy prediction for one model, produced by a confidence-graph
/// lookup.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Prediction {
    /// The model whose accuracy is predicted.
    pub model: ModelId,
    /// Predicted accuracy (expected IoU) of that model on the current
    /// context.
    pub accuracy: f64,
    /// Graph distance from the queried node to the consolidated neighbours
    /// (0 for the queried model itself).
    pub distance: f64,
}

/// One node of the graph: a model restricted to a confidence bin.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Node {
    model: ModelId,
    bin: usize,
    expected_accuracy: f64,
    samples: usize,
}

/// The confidence graph and its precomputed prediction map.
///
/// ```
/// use shift_core::{characterize, ConfidenceGraph, GraphConfig};
/// use shift_models::{ModelZoo, ModelId, ResponseModel};
/// use shift_soc::{ExecutionEngine, Platform};
/// use shift_video::CharacterizationDataset;
///
/// let engine = ExecutionEngine::new(
///     Platform::xavier_nx_with_oak(),
///     ModelZoo::standard(),
///     ResponseModel::new(2),
/// );
/// let characterization = characterize(&engine, &CharacterizationDataset::generate(150, 3));
/// let graph = ConfidenceGraph::build(&characterization.samples, GraphConfig::paper_defaults());
/// // A high YoloV7 confidence should predict healthy accuracy for YoloV7 itself.
/// let predictions = graph.predict(ModelId::YoloV7, 0.85);
/// assert!(!predictions.is_empty());
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ConfidenceGraph {
    config: GraphConfig,
    nodes: Vec<Node>,
    /// Adjacency list with *inverted, per-source-normalized* edge costs in
    /// `[0, 1]` (lower = stronger correlation).
    adjacency: Vec<Vec<(usize, f64)>>,
    /// Precomputed prediction map: node index -> consolidated predictions.
    prediction_map: Vec<Vec<Prediction>>,
    /// Number of confidence bins.
    bin_count: usize,
}

impl ConfidenceGraph {
    /// Builds the confidence graph from per-frame characterization samples.
    ///
    /// Samples where a model produced no detection are skipped for that model
    /// (a missing detection carries no confidence information).
    pub fn build(samples: &[SampleObservation], config: GraphConfig) -> Self {
        let bin_count = (1.0 / config.bin_width).ceil() as usize;
        let bin_of = |confidence: f64| -> usize {
            ((confidence / config.bin_width) as usize).min(bin_count - 1)
        };

        // --- Step 1: create nodes and accumulate expected accuracy. ---
        let mut node_lookup: BTreeMap<(ModelId, usize), usize> = BTreeMap::new();
        let mut nodes: Vec<Node> = Vec::new();
        let mut accuracy_sum: Vec<f64> = Vec::new();
        let mut node_for = |model: ModelId,
                            bin: usize,
                            nodes: &mut Vec<Node>,
                            accuracy_sum: &mut Vec<f64>|
         -> usize {
            *node_lookup.entry((model, bin)).or_insert_with(|| {
                nodes.push(Node {
                    model,
                    bin,
                    expected_accuracy: 0.0,
                    samples: 0,
                });
                accuracy_sum.push(0.0);
                nodes.len() - 1
            })
        };

        // --- Step 2: accumulate edges from per-frame co-occurrences. ---
        let mut edge_counts: BTreeMap<(usize, usize), f64> = BTreeMap::new();
        for sample in samples {
            let mut frame_nodes: Vec<usize> = Vec::new();
            for (&model, obs) in &sample.per_model {
                if !obs.detected {
                    continue;
                }
                let idx = node_for(model, bin_of(obs.confidence), &mut nodes, &mut accuracy_sum);
                accuracy_sum[idx] += obs.iou;
                nodes[idx].samples += 1;
                frame_nodes.push(idx);
            }
            for i in 0..frame_nodes.len() {
                for j in (i + 1)..frame_nodes.len() {
                    let (a, b) = (frame_nodes[i], frame_nodes[j]);
                    if nodes[a].model == nodes[b].model {
                        continue;
                    }
                    let key = if a < b { (a, b) } else { (b, a) };
                    *edge_counts.entry(key).or_insert(0.0) += 1.0;
                }
            }
        }
        for (idx, node) in nodes.iter_mut().enumerate() {
            node.expected_accuracy = if node.samples > 0 {
                accuracy_sum[idx] / node.samples as f64
            } else {
                0.0
            };
        }

        // --- Step 3: per-node normalization and inversion of edge weights. ---
        let mut adjacency: Vec<Vec<(usize, f64)>> = vec![Vec::new(); nodes.len()];
        let mut incident_max: Vec<f64> = vec![0.0; nodes.len()];
        for (&(a, b), &count) in &edge_counts {
            incident_max[a] = incident_max[a].max(count);
            incident_max[b] = incident_max[b].max(count);
        }
        for (&(a, b), &count) in &edge_counts {
            // Normalize within the edges of the *source* node, then invert so
            // strongly connected pairs have a low traversal cost. A small
            // epsilon keeps even the strongest edge from being free.
            let cost_from_a = 1.0 - (count / incident_max[a].max(1.0)) + 1e-3;
            let cost_from_b = 1.0 - (count / incident_max[b].max(1.0)) + 1e-3;
            adjacency[a].push((b, cost_from_a));
            adjacency[b].push((a, cost_from_b));
        }

        // --- Steps 4-6: bounded shortest-path search and consolidation. ---
        let mut prediction_map = Vec::with_capacity(nodes.len());
        for source in 0..nodes.len() {
            let reachable = bounded_shortest_paths(&adjacency, source, config.distance_threshold);
            prediction_map.push(consolidate(&nodes, &reachable));
        }

        Self {
            config,
            nodes,
            adjacency,
            prediction_map,
            bin_count,
        }
    }

    /// The configuration this graph was built with.
    pub fn config(&self) -> GraphConfig {
        self.config
    }

    /// Number of nodes in the graph.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of (undirected) edges in the graph.
    pub fn edge_count(&self) -> usize {
        self.adjacency.iter().map(|adj| adj.len()).sum::<usize>() / 2
    }

    /// Predicts the accuracy of every model given that `model` just reported
    /// `confidence`.
    ///
    /// The prediction is a map lookup: the queried confidence is binned, the
    /// corresponding node's precomputed neighbour consolidation is returned.
    /// If the exact bin was never populated during characterization the
    /// nearest populated bin of the same model is used. An unknown model (or
    /// an empty graph) yields an empty vector.
    pub fn predict(&self, model: ModelId, confidence: f64) -> Vec<Prediction> {
        let Some(node) = self.find_node(model, confidence) else {
            return Vec::new();
        };
        self.prediction_map[node].clone()
    }

    /// Expected accuracy stored on the node for (`model`, `confidence`), if
    /// such a node exists. Exposed for ablation studies comparing the graph
    /// against naive confidence passthrough.
    pub fn node_accuracy(&self, model: ModelId, confidence: f64) -> Option<f64> {
        self.find_node(model, confidence)
            .map(|idx| self.nodes[idx].expected_accuracy)
    }

    /// Models that appear in the graph.
    pub fn models(&self) -> Vec<ModelId> {
        let mut models: Vec<ModelId> = self.nodes.iter().map(|n| n.model).collect();
        models.sort();
        models.dedup();
        models
    }

    fn bin_of(&self, confidence: f64) -> usize {
        ((confidence.clamp(0.0, 0.999) / self.config.bin_width) as usize).min(self.bin_count - 1)
    }

    fn find_node(&self, model: ModelId, confidence: f64) -> Option<usize> {
        let target_bin = self.bin_of(confidence);
        let mut best: Option<(usize, usize)> = None; // (bin distance, node index)
        for (idx, node) in self.nodes.iter().enumerate() {
            if node.model != model {
                continue;
            }
            let distance = node.bin.abs_diff(target_bin);
            match best {
                Some((best_distance, _)) if distance >= best_distance => {}
                _ => best = Some((distance, idx)),
            }
            if distance == 0 {
                break;
            }
        }
        best.map(|(_, idx)| idx)
    }
}

/// Dijkstra bounded by `threshold`: returns `(node, distance)` for every node
/// whose accumulated traversal cost from `source` is at most the threshold
/// (always including the source itself at distance zero).
fn bounded_shortest_paths(
    adjacency: &[Vec<(usize, f64)>],
    source: usize,
    threshold: f64,
) -> Vec<(usize, f64)> {
    #[derive(PartialEq)]
    struct Entry {
        cost: f64,
        node: usize,
    }
    impl Eq for Entry {}
    impl Ord for Entry {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            // Reverse for a min-heap on cost.
            other
                .cost
                .partial_cmp(&self.cost)
                .unwrap_or(std::cmp::Ordering::Equal)
        }
    }
    impl PartialOrd for Entry {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }

    let mut best: Vec<f64> = vec![f64::INFINITY; adjacency.len()];
    let mut heap = BinaryHeap::new();
    best[source] = 0.0;
    heap.push(Entry {
        cost: 0.0,
        node: source,
    });
    while let Some(Entry { cost, node }) = heap.pop() {
        if cost > best[node] {
            continue;
        }
        for &(next, edge_cost) in &adjacency[node] {
            let next_cost = cost + edge_cost;
            if next_cost <= threshold && next_cost < best[next] {
                best[next] = next_cost;
                heap.push(Entry {
                    cost: next_cost,
                    node: next,
                });
            }
        }
    }
    best.iter()
        .enumerate()
        .filter(|(_, &d)| d.is_finite())
        .map(|(idx, &d)| (idx, d))
        .collect()
}

/// Consolidates reachable nodes into one prediction per model using a
/// distance-weighted average of the nodes' expected accuracies.
fn consolidate(nodes: &[Node], reachable: &[(usize, f64)]) -> Vec<Prediction> {
    let mut weighted: BTreeMap<ModelId, (f64, f64, f64)> = BTreeMap::new(); // (acc*w, w, dist*w)
    for &(idx, distance) in reachable {
        let node = &nodes[idx];
        let weight = 1.0 / (0.05 + distance);
        let entry = weighted.entry(node.model).or_insert((0.0, 0.0, 0.0));
        entry.0 += node.expected_accuracy * weight;
        entry.1 += weight;
        entry.2 += distance * weight;
    }
    weighted
        .into_iter()
        .map(|(model, (acc_w, w, dist_w))| Prediction {
            model,
            accuracy: (acc_w / w.max(1e-12)).clamp(0.0, 1.0),
            distance: dist_w / w.max(1e-12),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::characterize::{characterize, Characterization, ModelObservation};
    use shift_models::{ModelZoo, ResponseModel};
    use shift_soc::{ExecutionEngine, Platform};
    use shift_video::CharacterizationDataset;

    fn real_characterization(samples: usize) -> Characterization {
        let engine = ExecutionEngine::new(
            Platform::xavier_nx_with_oak(),
            ModelZoo::standard(),
            ResponseModel::new(17),
        );
        characterize(&engine, &CharacterizationDataset::generate(samples, 23))
    }

    /// Hand-built samples where two models always land in fixed bins,
    /// making graph structure easy to reason about.
    fn synthetic_samples() -> Vec<SampleObservation> {
        let mut samples = Vec::new();
        for i in 0..50 {
            let mut per_model = BTreeMap::new();
            per_model.insert(
                ModelId::YoloV7,
                ModelObservation {
                    confidence: 0.85,
                    iou: 0.7,
                    detected: true,
                },
            );
            per_model.insert(
                ModelId::SsdMobilenetV1,
                ModelObservation {
                    confidence: 0.55,
                    iou: 0.45,
                    detected: true,
                },
            );
            samples.push(SampleObservation {
                frame_index: i,
                per_model,
            });
        }
        samples
    }

    #[test]
    fn synthetic_graph_structure() {
        let graph = ConfidenceGraph::build(&synthetic_samples(), GraphConfig::paper_defaults());
        assert_eq!(graph.node_count(), 2);
        assert_eq!(graph.edge_count(), 1);
        assert_eq!(graph.models().len(), 2);
    }

    #[test]
    fn synthetic_graph_predicts_cross_model_accuracy() {
        let graph = ConfidenceGraph::build(&synthetic_samples(), GraphConfig::paper_defaults());
        let predictions = graph.predict(ModelId::YoloV7, 0.85);
        assert_eq!(predictions.len(), 2);
        let yolo = predictions
            .iter()
            .find(|p| p.model == ModelId::YoloV7)
            .unwrap();
        let ssd = predictions
            .iter()
            .find(|p| p.model == ModelId::SsdMobilenetV1)
            .unwrap();
        assert!((yolo.accuracy - 0.7).abs() < 1e-9);
        assert!((ssd.accuracy - 0.45).abs() < 1e-9);
        assert_eq!(yolo.distance, 0.0);
        assert!(ssd.distance > 0.0);
    }

    #[test]
    fn nearest_bin_fallback_is_used_for_unseen_confidences() {
        let graph = ConfidenceGraph::build(&synthetic_samples(), GraphConfig::paper_defaults());
        // 0.15 was never observed for YoloV7; the 0.8-0.9 node is the nearest.
        let predictions = graph.predict(ModelId::YoloV7, 0.15);
        assert!(!predictions.is_empty());
    }

    #[test]
    fn unknown_model_returns_empty_predictions() {
        let graph = ConfidenceGraph::build(&synthetic_samples(), GraphConfig::paper_defaults());
        assert!(graph.predict(ModelId::YoloV7E6E, 0.9).is_empty());
    }

    #[test]
    fn empty_samples_build_an_empty_graph() {
        let graph = ConfidenceGraph::build(&[], GraphConfig::paper_defaults());
        assert_eq!(graph.node_count(), 0);
        assert!(graph.predict(ModelId::YoloV7, 0.5).is_empty());
    }

    #[test]
    fn zero_threshold_limits_predictions_to_the_source_model() {
        let config = GraphConfig::paper_defaults().with_distance_threshold(0.0);
        let graph = ConfidenceGraph::build(&synthetic_samples(), config);
        let predictions = graph.predict(ModelId::YoloV7, 0.85);
        assert_eq!(predictions.len(), 1);
        assert_eq!(predictions[0].model, ModelId::YoloV7);
    }

    #[test]
    fn larger_threshold_reaches_more_models() {
        let characterization = real_characterization(200);
        let narrow = ConfidenceGraph::build(
            &characterization.samples,
            GraphConfig::paper_defaults().with_distance_threshold(0.05),
        );
        let wide = ConfidenceGraph::build(
            &characterization.samples,
            GraphConfig::paper_defaults().with_distance_threshold(1.5),
        );
        let narrow_count = narrow.predict(ModelId::YoloV7, 0.9).len();
        let wide_count = wide.predict(ModelId::YoloV7, 0.9).len();
        assert!(
            wide_count >= narrow_count,
            "wider threshold should never reach fewer models ({wide_count} vs {narrow_count})"
        );
        assert!(wide_count >= 6, "wide graph should span most of the zoo");
    }

    #[test]
    fn predictions_are_bounded_and_cover_models() {
        let characterization = real_characterization(250);
        let graph =
            ConfidenceGraph::build(&characterization.samples, GraphConfig::paper_defaults());
        for confidence in [0.1, 0.3, 0.5, 0.7, 0.9] {
            for model in [ModelId::YoloV7, ModelId::SsdMobilenetV1] {
                for p in graph.predict(model, confidence) {
                    assert!((0.0..=1.0).contains(&p.accuracy));
                    assert!(p.distance >= 0.0);
                }
            }
        }
    }

    #[test]
    fn high_confidence_predicts_higher_accuracy_than_low_confidence() {
        let characterization = real_characterization(400);
        let graph =
            ConfidenceGraph::build(&characterization.samples, GraphConfig::paper_defaults());
        let high = graph
            .predict(ModelId::YoloV7, 0.9)
            .iter()
            .find(|p| p.model == ModelId::YoloV7)
            .map(|p| p.accuracy)
            .unwrap_or(0.0);
        let low = graph
            .predict(ModelId::YoloV7, 0.2)
            .iter()
            .find(|p| p.model == ModelId::YoloV7)
            .map(|p| p.accuracy)
            .unwrap_or(0.0);
        assert!(
            high > low,
            "confidence 0.9 should predict more accuracy than 0.2 ({high} vs {low})"
        );
    }

    #[test]
    fn graph_prediction_correlates_with_actual_cross_model_accuracy() {
        // The point of the confidence graph: given YoloV7's confidence, the
        // predicted accuracy of SSD MobilenetV1 should track its actual IoU.
        let characterization = real_characterization(400);
        let graph =
            ConfidenceGraph::build(&characterization.samples, GraphConfig::paper_defaults());
        let mut pairs = Vec::new();
        for sample in characterization.samples.iter() {
            let (Some(yolo), Some(ssd)) = (
                sample.per_model.get(&ModelId::YoloV7),
                sample.per_model.get(&ModelId::SsdMobilenetV1),
            ) else {
                continue;
            };
            if !yolo.detected {
                continue;
            }
            let predicted = graph
                .predict(ModelId::YoloV7, yolo.confidence)
                .iter()
                .find(|p| p.model == ModelId::SsdMobilenetV1)
                .map(|p| p.accuracy);
            if let Some(predicted) = predicted {
                pairs.push((predicted, ssd.iou));
            }
        }
        assert!(pairs.len() > 100);
        let n = pairs.len() as f64;
        let mx = pairs.iter().map(|p| p.0).sum::<f64>() / n;
        let my = pairs.iter().map(|p| p.1).sum::<f64>() / n;
        let num: f64 = pairs.iter().map(|(x, y)| (x - mx) * (y - my)).sum();
        let dx: f64 = pairs.iter().map(|(x, _)| (x - mx).powi(2)).sum();
        let dy: f64 = pairs.iter().map(|(_, y)| (y - my).powi(2)).sum();
        let corr = num / (dx.sqrt() * dy.sqrt()).max(1e-12);
        assert!(
            corr > 0.3,
            "cross-model prediction should correlate with reality, got {corr}"
        );
    }

    #[test]
    fn config_builders() {
        let c = GraphConfig::paper_defaults()
            .with_bin_width(0.2)
            .with_distance_threshold(0.7);
        assert_eq!(c.bin_width, 0.2);
        assert_eq!(c.distance_threshold, 0.7);
        assert_eq!(GraphConfig::default(), GraphConfig::paper_defaults());
    }
}
