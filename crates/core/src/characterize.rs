//! Offline model characterization (paper §III-A).
//!
//! The characterization pass runs every object-detection model over a
//! validation dataset and records, per frame, the confidence score and the
//! IoU against ground truth. The dataset holds frame labels, not rendered
//! frames: the simulated detector reads no pixel. The per-frame
//! co-occurrences feed the confidence graph; the aggregates become the
//! [`ModelTraits`] consumed by the scheduler; and the per-accelerator
//! latency/energy statistics come from probing the execution engine.
//!
//! As in the paper, this step "relies solely on a testing or validation
//! subset of the dataset used for training the models" — it never sees the
//! evaluation scenarios.

use crate::graph::{ConfidenceGraph, GraphConfig};
use crate::traits::{AcceleratorStats, ModelTraits};
use serde::{Deserialize, Serialize};
use shift_models::ModelId;
use shift_soc::ExecutionEngine;
use shift_video::CharacterizationDataset;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, Mutex, PoisonError};

/// What one model reported on one validation frame.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ModelObservation {
    /// Reported confidence score (`0.0` when nothing was detected).
    pub confidence: f64,
    /// IoU of the reported box against the ground truth.
    pub iou: f64,
    /// Whether the model emitted a detection at all.
    pub detected: bool,
}

/// All models' observations on one validation frame.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SampleObservation {
    /// Index of the frame within the characterization dataset.
    pub frame_index: usize,
    /// Per-model observations.
    pub per_model: BTreeMap<ModelId, ModelObservation>,
}

/// The complete output of the offline characterization pass, and the
/// confidence graphs derived from it.
///
/// The samples are immutable and shared: a clone takes them by [`Arc`]
/// instead of copying them. The graphs are shared too. As in the paper,
/// the confidence graph is built once, offline, and the runtime only looks
/// it up (§III-A): [`graph`](Self::graph) builds one graph per
/// [`GraphConfig`] on first use, and the original and every clone return
/// that same graph from then on. So every [`StreamAgent`], and through it
/// every runtime, fleet, service and cluster node, built from one
/// characterization and one configuration runs on one graph.
///
/// [`PartialEq`] and [`Debug`] see the traits and the samples only, not
/// which graphs have been built. The memo is why the type carries no serde
/// derive: its traits and samples are the serializable part.
///
/// [`StreamAgent`]: crate::runtime::StreamAgent
#[derive(Clone, Default)]
pub struct Characterization {
    /// Aggregated traits per model.
    pub traits: BTreeMap<ModelId, ModelTraits>,
    /// Per-frame observations (the confidence graph's training data).
    /// Assigning new samples leaves the graphs built from the old ones
    /// behind: [`graph`](Self::graph) then builds from the new samples.
    pub samples: Arc<[SampleObservation]>,
    graphs: GraphMemo,
}

/// The confidence graphs built from a characterization, shared by all its
/// clones. An entry answers a request only when the request's samples are
/// the entry's own allocation and its configuration is bit-equal. Each
/// entry holds its samples, so their address cannot be freed and reused by
/// other samples while the entry exists.
#[derive(Clone, Default)]
struct GraphMemo(Arc<Mutex<Vec<GraphEntry>>>);

struct GraphEntry {
    samples: Arc<[SampleObservation]>,
    config: GraphConfig,
    graph: Arc<ConfidenceGraph>,
}

/// Whether two graph configurations are the same bits, so that a graph
/// built under one is exactly the graph the other would build.
fn same_bits(a: GraphConfig, b: GraphConfig) -> bool {
    a.bin_width.to_bits() == b.bin_width.to_bits()
        && a.distance_threshold.to_bits() == b.distance_threshold.to_bits()
}

impl PartialEq for Characterization {
    fn eq(&self, other: &Self) -> bool {
        self.traits == other.traits && self.samples == other.samples
    }
}

impl fmt::Debug for Characterization {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Characterization")
            .field("traits", &self.traits)
            .field("samples", &self.samples)
            .finish_non_exhaustive()
    }
}

impl Characterization {
    /// The confidence graph of these samples under `config`, built on the
    /// first call for that configuration and shared by every later call on
    /// this characterization or any of its clones.
    ///
    /// The graph is identical to `ConfidenceGraph::build(&self.samples,
    /// config)`. Concurrent first calls build it once: the memo stays locked
    /// while a graph is built.
    pub fn graph(&self, config: GraphConfig) -> Arc<ConfidenceGraph> {
        // An entry is pushed only after its build returned, so a build that
        // panicked left the list whole and a poisoned lock is still usable.
        let mut entries = self.graphs.0.lock().unwrap_or_else(PoisonError::into_inner);
        let hit = entries
            .iter()
            .find(|e| Arc::ptr_eq(&e.samples, &self.samples) && same_bits(e.config, config));
        if let Some(entry) = hit {
            return Arc::clone(&entry.graph);
        }
        let graph = Arc::new(ConfidenceGraph::build(&self.samples, config));
        entries.push(GraphEntry {
            samples: Arc::clone(&self.samples),
            config,
            graph: Arc::clone(&graph),
        });
        graph
    }

    /// Traits of `model`, if it was characterized.
    pub fn traits_of(&self, model: ModelId) -> Option<&ModelTraits> {
        self.traits.get(&model)
    }

    /// Models that were characterized, in a stable order.
    pub fn models(&self) -> Vec<ModelId> {
        self.traits.keys().copied().collect()
    }

    /// Number of validation samples used.
    pub fn sample_count(&self) -> usize {
        self.samples.len()
    }

    /// Whether the characterization is empty.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty() || self.traits.is_empty()
    }
}

/// Runs the full offline characterization of the engine's model zoo on
/// `dataset`.
///
/// Detection accuracy and confidence are accelerator-independent (they are a
/// property of the network), so each model is probed once per sample, on the
/// sample's [`FrameLabel`](shift_video::FrameLabel) (nothing is rendered);
/// latency, power and energy are characterized per accelerator from the
/// engine's execution model.
pub fn characterize(
    engine: &ExecutionEngine,
    dataset: &CharacterizationDataset,
) -> Characterization {
    let zoo = engine.zoo().clone();
    let accelerators = engine.platform().accelerator_ids();

    // Reference accelerator used for accuracy probing: any accelerator that
    // supports the model (first in platform order).
    let mut samples = Vec::with_capacity(dataset.len());
    let mut iou_sum: BTreeMap<ModelId, f64> = BTreeMap::new();
    let mut success_count: BTreeMap<ModelId, usize> = BTreeMap::new();
    let mut conf_sum: BTreeMap<ModelId, f64> = BTreeMap::new();
    let mut conf_count: BTreeMap<ModelId, usize> = BTreeMap::new();

    for (sample_index, label) in dataset.iter().enumerate() {
        let mut per_model = BTreeMap::new();
        for spec in zoo.iter() {
            let Some(accelerator) = accelerators
                .iter()
                .copied()
                .find(|&a| spec.supports(a.target()))
            else {
                continue;
            };
            let report = engine
                .probe_inference(spec.id, accelerator, label)
                .expect("pair validated as compatible");
            let iou = report.result.iou_against(label.truth.as_ref());
            let confidence = report.result.confidence();
            let detected = report.result.detection.is_some();
            per_model.insert(
                spec.id,
                ModelObservation {
                    confidence,
                    iou,
                    detected,
                },
            );
            *iou_sum.entry(spec.id).or_insert(0.0) += iou;
            if iou >= 0.5 {
                *success_count.entry(spec.id).or_insert(0) += 1;
            }
            if detected {
                *conf_sum.entry(spec.id).or_insert(0.0) += confidence;
                *conf_count.entry(spec.id).or_insert(0) += 1;
            }
        }
        samples.push(SampleObservation {
            frame_index: sample_index,
            per_model,
        });
    }

    let n = dataset.len().max(1) as f64;
    let mut traits = BTreeMap::new();
    for spec in zoo.iter() {
        let mut per_accelerator = BTreeMap::new();
        let mut load_time_s = BTreeMap::new();
        let mut load_energy_j = BTreeMap::new();
        for &accelerator in &accelerators {
            if !spec.supports(accelerator.target()) {
                continue;
            }
            let perf = spec
                .perf_on(accelerator.target())
                .expect("support checked above");
            per_accelerator.insert(
                accelerator,
                AcceleratorStats::new(perf.latency_s, perf.power_w, perf.energy_j()),
            );
            load_time_s.insert(accelerator, spec.load.load_time_s(accelerator.target()));
            load_energy_j.insert(accelerator, spec.load.load_energy_j(accelerator.target()));
        }
        traits.insert(
            spec.id,
            ModelTraits {
                model: spec.id,
                mean_iou: iou_sum.get(&spec.id).copied().unwrap_or(0.0) / n,
                success_rate: success_count.get(&spec.id).copied().unwrap_or(0) as f64 / n,
                mean_confidence: conf_sum.get(&spec.id).copied().unwrap_or(0.0)
                    / conf_count.get(&spec.id).copied().unwrap_or(0).max(1) as f64,
                per_accelerator,
                memory_mb: spec.load.memory_mb,
                load_time_s,
                load_energy_j,
            },
        );
    }

    Characterization {
        traits,
        samples: samples.into(),
        graphs: GraphMemo::default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shift_models::{ModelZoo, ResponseModel};
    use shift_soc::{AcceleratorId, Platform};

    fn engine() -> ExecutionEngine {
        ExecutionEngine::new(
            Platform::xavier_nx_with_oak(),
            ModelZoo::standard(),
            ResponseModel::new(13),
        )
    }

    fn small_characterization() -> Characterization {
        characterize(&engine(), &CharacterizationDataset::generate(150, 5))
    }

    #[test]
    fn characterization_covers_all_models_and_samples() {
        let c = small_characterization();
        assert_eq!(c.models().len(), 8);
        assert_eq!(c.sample_count(), 150);
        assert!(!c.is_empty());
        for sample in c.samples.iter() {
            assert_eq!(sample.per_model.len(), 8, "every model observed per frame");
        }
    }

    #[test]
    fn traits_track_reference_accuracy_ordering() {
        let c = small_characterization();
        let strong = c.traits_of(ModelId::YoloV7).unwrap().mean_iou;
        let weak = c.traits_of(ModelId::SsdMobilenetV2Small).unwrap().mean_iou;
        assert!(
            strong > weak + 0.1,
            "YoloV7 ({strong:.3}) should clearly beat MobilenetV2-320 ({weak:.3})"
        );
    }

    #[test]
    fn per_accelerator_stats_match_zoo_reference() {
        let c = small_characterization();
        let yolo = c.traits_of(ModelId::YoloV7).unwrap();
        let gpu = yolo.stats_on(AcceleratorId::Gpu).unwrap();
        assert!((gpu.mean_latency_s - 0.130).abs() < 1e-9);
        assert!((gpu.mean_energy_j - 1.968).abs() < 0.01);
        // Both DLA cores inherit the DLA-class reference numbers.
        let dla0 = yolo.stats_on(AcceleratorId::Dla0).unwrap();
        let dla1 = yolo.stats_on(AcceleratorId::Dla1).unwrap();
        assert_eq!(dla0.mean_latency_s, dla1.mean_latency_s);
    }

    #[test]
    fn unsupported_accelerators_are_absent_from_traits() {
        let c = small_characterization();
        let resnet = c.traits_of(ModelId::SsdResnet50).unwrap();
        assert!(resnet.stats_on(AcceleratorId::OakD).is_none());
        assert!(resnet.stats_on(AcceleratorId::Cpu).is_none());
        assert!(resnet.stats_on(AcceleratorId::Gpu).is_some());
    }

    #[test]
    fn success_rates_are_probabilities() {
        let c = small_characterization();
        for t in c.traits.values() {
            assert!((0.0..=1.0).contains(&t.success_rate));
            assert!((0.0..=1.0).contains(&t.mean_iou));
            assert!((0.0..=1.0).contains(&t.mean_confidence));
        }
    }

    #[test]
    fn load_costs_are_populated_per_accelerator() {
        let c = small_characterization();
        let tiny = c.traits_of(ModelId::YoloV7Tiny).unwrap();
        assert!(tiny.load_time_s.get(&AcceleratorId::Gpu).unwrap() > &0.0);
        assert!(
            tiny.load_time_s.get(&AcceleratorId::OakD).unwrap()
                > tiny.load_time_s.get(&AcceleratorId::Gpu).unwrap(),
            "OAK-D loads are slower than GPU loads"
        );
    }

    #[test]
    fn characterization_is_deterministic() {
        let dataset = CharacterizationDataset::generate(60, 5);
        let a = characterize(&engine(), &dataset);
        let b = characterize(&engine(), &dataset);
        assert_eq!(a, b);
    }

    fn wide() -> GraphConfig {
        GraphConfig::paper_defaults().with_distance_threshold(0.8)
    }

    #[test]
    fn a_clone_shares_the_originals_graph_for_each_config() {
        let original = small_characterization();
        let clone = original.clone();
        assert!(
            Arc::ptr_eq(&original.samples, &clone.samples),
            "no deep copy"
        );
        let paper = GraphConfig::paper_defaults();
        let paper_graph = original.graph(paper);
        assert!(Arc::ptr_eq(&paper_graph, &clone.graph(paper)));
        assert!(Arc::ptr_eq(&paper_graph, &original.graph(paper)));
        let wide_graph = clone.graph(wide());
        assert!(Arc::ptr_eq(&wide_graph, &original.graph(wide())));
        assert!(!Arc::ptr_eq(&paper_graph, &wide_graph));
        assert_eq!(
            *paper_graph,
            ConfidenceGraph::build(&original.samples, paper)
        );
        assert_eq!(
            *wide_graph,
            ConfidenceGraph::build(&original.samples, wide())
        );
        assert_ne!(*paper_graph, *wide_graph);
    }

    #[test]
    fn configs_that_compare_equal_but_differ_in_bits_get_their_own_graphs() {
        let c = small_characterization();
        let zero = GraphConfig::paper_defaults().with_distance_threshold(0.0);
        let mut negative_zero = zero;
        negative_zero.distance_threshold = -0.0;
        assert_eq!(zero, negative_zero);
        let graph = c.graph(zero);
        let other = c.graph(negative_zero);
        assert!(!Arc::ptr_eq(&graph, &other));
        assert_eq!(*other, ConfidenceGraph::build(&c.samples, negative_zero));
    }

    #[test]
    fn replaced_samples_never_get_a_stale_graph() {
        let original = small_characterization();
        let paper = GraphConfig::paper_defaults();
        let old_graph = original.graph(paper);
        let mut prefix = original.clone();
        prefix.samples = original.samples[..40].into();
        let graph = prefix.graph(paper);
        assert!(!Arc::ptr_eq(&graph, &old_graph));
        assert_eq!(
            *graph,
            ConfidenceGraph::build(&original.samples[..40], paper)
        );
        assert_ne!(*graph, *old_graph, "the prefix builds a different graph");
        // The prefix's graph is shared by its own clones, and the original
        // keeps its own.
        assert!(Arc::ptr_eq(&graph, &prefix.clone().graph(paper)));
        assert!(Arc::ptr_eq(&old_graph, &original.graph(paper)));
        // Samples replaced by equal contents in a new allocation build again
        // rather than trust a graph keyed on other samples.
        let mut copied = original.clone();
        copied.samples = original.samples.to_vec().into();
        let rebuilt = copied.graph(paper);
        assert!(!Arc::ptr_eq(&rebuilt, &old_graph));
        assert_eq!(*rebuilt, *old_graph);
    }

    #[test]
    fn concurrent_first_calls_share_one_graph() {
        let c = small_characterization();
        let paper = GraphConfig::paper_defaults();
        // The barrier releases both first calls together, so they contend
        // for the memo; the assertions must hold in whichever order they
        // take the lock.
        let start = std::sync::Barrier::new(2);
        let (a, b) = std::thread::scope(|scope| {
            let a = scope.spawn(|| {
                start.wait();
                c.graph(paper)
            });
            let b = scope.spawn(|| {
                let clone = c.clone();
                start.wait();
                clone.graph(paper)
            });
            (a.join().unwrap(), b.join().unwrap())
        });
        assert_eq!(*a, *b);
        assert!(Arc::ptr_eq(&a, &b), "the locked memo builds once");
        assert_eq!(*a, ConfidenceGraph::build(&c.samples, paper));
    }

    #[test]
    fn equality_and_debug_ignore_the_built_graphs() {
        let built = small_characterization();
        let fresh = built.clone();
        let before = format!("{built:?}");
        built.graph(GraphConfig::paper_defaults());
        assert_eq!(format!("{built:?}"), before);
        let mut unshared = built.clone();
        unshared.samples = built.samples.to_vec().into();
        assert_eq!(built, fresh);
        assert_eq!(built, unshared, "equal samples in another allocation");
        assert!(Characterization::default().is_empty());
    }
}
