//! Fast-path vs reference differential properties.
//!
//! The hot-path speed campaign (cached-moment single-pass NCC, the fused
//! zero-alloc region scratch and the dominance-pruned scheduler arg-max)
//! promises *bit-identical* outputs, not approximately-equal ones — the
//! committed stress and chaos artifacts depend on it. This suite
//! keeps the historical implementations alive as private references and
//! asserts `f64::to_bits` equality against the optimized paths over
//! proptest-drawn images, bounding boxes and scheduler trajectories. It also
//! owns the `[-1, 1]` range invariant that used to be re-clamped (dead) in
//! `ContextDetector::similarity`.

use proptest::prelude::*;
use shift_core::{
    characterize, CandidatePair, Characterization, ConfidenceGraph, Scheduler, ShiftConfig,
};
use shift_models::{ModelId, ModelZoo, ResponseModel};
use shift_soc::{AcceleratorId, ExecutionEngine, Platform};
use shift_video::ncc::REGION_NCC_SIZE;
use shift_video::{
    ncc, ncc_regions, BoundingBox, CharacterizationDataset, GrayImage, RegionNcc, VideoError,
};
use std::collections::{BTreeMap, VecDeque};
use std::sync::OnceLock;

// ---------------------------------------------------------------------------
// Reference implementations: the exact pre-optimization code paths.
// ---------------------------------------------------------------------------

/// The historical three-pass NCC: means recomputed from scratch and all three
/// accumulators (`num`, `dp`, `dc`) carried through one pairwise loop.
fn reference_ncc(p: &GrayImage, c: &GrayImage) -> Result<f64, VideoError> {
    if p.width() != c.width() || p.height() != c.height() {
        return Err(VideoError::DimensionMismatch {
            lhs: (p.width(), p.height()),
            rhs: (c.width(), c.height()),
        });
    }
    let mean = |img: &GrayImage| {
        if img.pixels().is_empty() {
            return 0.0;
        }
        img.pixels().iter().map(|&v| v as f64).sum::<f64>() / img.pixels().len() as f64
    };
    let mp = mean(p);
    let mc = mean(c);
    let mut num = 0.0f64;
    let mut dp = 0.0f64;
    let mut dc = 0.0f64;
    for (a, b) in p.pixels().iter().zip(c.pixels().iter()) {
        let da = *a as f64 - mp;
        let db = *b as f64 - mc;
        num += da * db;
        dp += da * da;
        dc += db * db;
    }
    const EPS: f64 = 1e-12;
    if dp < EPS && dc < EPS {
        return Ok(1.0);
    }
    if dp < EPS || dc < EPS {
        return Ok(0.0);
    }
    Ok((num / (dp.sqrt() * dc.sqrt())).clamp(-1.0, 1.0))
}

/// The historical allocating region path: `crop` + `resized` (both still the
/// untouched public methods) feeding the three-pass reference NCC.
fn reference_ncc_regions(
    prev_frame: &GrayImage,
    prev_bbox: &BoundingBox,
    cur_frame: &GrayImage,
    cur_bbox: &BoundingBox,
) -> f64 {
    match (prev_frame.crop(prev_bbox), cur_frame.crop(cur_bbox)) {
        (Some(p), Some(c)) => {
            let p = p.resized(REGION_NCC_SIZE, REGION_NCC_SIZE);
            let c = c.resized(REGION_NCC_SIZE, REGION_NCC_SIZE);
            reference_ncc(&p, &c).unwrap_or(0.0)
        }
        _ => 0.0,
    }
}

/// The historical Algorithm 1 pass: `BTreeMap` momentum buffers and averaged
/// accuracies, a `Vec<ModelId>` goal filter with `contains`, a scoring loop
/// over *every* valid pair and a separate `max_by` + incumbent `find`. Built
/// purely from the scheduler's public accessors so it shares no code with the
/// optimized sweep. Returns the chosen pair and the recorded scores.
fn reference_pass(
    scheduler: &Scheduler,
    buffers: &mut BTreeMap<ModelId, VecDeque<f64>>,
    current: CandidatePair,
    confidence: f64,
) -> (CandidatePair, Vec<(CandidatePair, f64)>) {
    let config = scheduler.config();
    let predictions = scheduler.graph().predict(current.model, confidence);
    for prediction in &predictions {
        let buffer = buffers.entry(prediction.model).or_default();
        buffer.push_back(prediction.accuracy);
        while buffer.len() > config.momentum {
            buffer.pop_front();
        }
    }
    let mut averaged: BTreeMap<ModelId, f64> = BTreeMap::new();
    for model in ModelId::ALL {
        let Some(fallback) = scheduler.reference_accuracy(model) else {
            continue;
        };
        let value = match buffers.get(&model) {
            Some(buffer) if !buffer.is_empty() => buffer.iter().sum::<f64>() / buffer.len() as f64,
            _ => fallback,
        };
        averaged.insert(model, value);
    }
    let mut valid: Vec<ModelId> = averaged
        .iter()
        .filter(|(_, &a)| a >= config.accuracy_goal)
        .map(|(&m, _)| m)
        .collect();
    if valid.is_empty() {
        valid = averaged.keys().copied().collect();
    }
    let knobs = config.knobs;
    let mut scores: Vec<(CandidatePair, f64)> = Vec::new();
    for pair in scheduler.candidate_pairs() {
        if !valid.contains(&pair.model) {
            continue;
        }
        let accuracy = averaged.get(&pair.model).copied().unwrap_or(0.0);
        let energy = scheduler.energy_score_of(*pair).unwrap_or(0.0);
        let latency = scheduler.latency_score_of(*pair).unwrap_or(0.0);
        let score = accuracy * knobs.accuracy + energy * knobs.energy + latency * knobs.latency;
        scores.push((*pair, score));
    }
    let best = scores
        .iter()
        .max_by(|a, b| a.1.partial_cmp(&b.1).expect("scores are finite"))
        .copied()
        .unwrap_or((current, 0.0));
    let current_score = scores
        .iter()
        .find(|(pair, _)| *pair == current)
        .map(|(_, score)| *score);
    let pair = match current_score {
        Some(incumbent)
            if best.0 != current && best.1 <= incumbent * (1.0 + config.switch_margin) =>
        {
            current
        }
        _ => best.0,
    };
    (pair, scores)
}

/// The historical fallback walk: clone + sort the scored vector, append the
/// incumbent, then the `seen.contains` dedup pass.
fn reference_fallback(
    decided: CandidatePair,
    scores: &[(CandidatePair, f64)],
    incumbent: CandidatePair,
) -> Vec<CandidatePair> {
    let mut scored = scores.to_vec();
    scored.sort_by(|a, b| {
        b.1.partial_cmp(&a.1)
            .expect("scores are finite")
            .then(a.0.cmp(&b.0))
    });
    let mut candidates: Vec<CandidatePair> = scored.iter().map(|&(pair, _)| pair).collect();
    candidates.push(incumbent);
    let mut seen = vec![decided];
    candidates.retain(|pair| {
        let fresh = !seen.contains(pair);
        seen.push(*pair);
        fresh
    });
    candidates
}

// ---------------------------------------------------------------------------
// Fixtures.
// ---------------------------------------------------------------------------

/// Builds a deterministic image of the drawn shape from a pixel pool.
fn image_from_pool(width: usize, height: usize, pool: &[f64]) -> GrayImage {
    GrayImage::from_fn(width, height, |x, y| {
        pool[(y * width + x) % pool.len()] as f32
    })
}

fn characterization() -> &'static Characterization {
    static CACHE: OnceLock<Characterization> = OnceLock::new();
    CACHE.get_or_init(|| {
        let engine = ExecutionEngine::new(
            Platform::xavier_nx_with_oak(),
            ModelZoo::standard(),
            ResponseModel::new(17),
        );
        characterize(&engine, &CharacterizationDataset::generate(150, 17))
    })
}

fn build_scheduler(config: ShiftConfig) -> Scheduler {
    let characterization = characterization();
    let graph = ConfidenceGraph::build(&characterization.samples, config.graph_config());
    Scheduler::new(config, characterization, graph).expect("scheduler builds")
}

const ACCELERATORS: [AcceleratorId; 4] = [
    AcceleratorId::Gpu,
    AcceleratorId::Dla0,
    AcceleratorId::Dla1,
    AcceleratorId::OakD,
];

// ---------------------------------------------------------------------------
// Properties.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The cached-moment single-pass `ncc` is bit-identical to the
    /// historical three-pass formulation, and stays in `[-1, 1]` — the
    /// invariant `ContextDetector::similarity` used to re-clamp.
    #[test]
    fn cached_moment_ncc_is_bit_identical_to_three_pass(
        dims in (1usize..24, 1usize..24),
        pool_a in proptest::collection::vec(-0.5..1.5f64, 64..128),
        pool_b in proptest::collection::vec(-0.5..1.5f64, 64..128),
    ) {
        let (w, h) = dims;
        let a = image_from_pool(w, h, &pool_a);
        let b = image_from_pool(w, h, &pool_b);
        let fast = ncc(&a, &b).expect("dims match");
        let slow = reference_ncc(&a, &b).expect("dims match");
        prop_assert_eq!(fast.to_bits(), slow.to_bits(),
            "fast {} != reference {}", fast, slow);
        prop_assert!((-1.0..=1.0).contains(&fast));
        // Moments are cached after first use: a second query must reproduce
        // the same bits, and so must the self-correlation.
        prop_assert_eq!(ncc(&a, &b).unwrap().to_bits(), fast.to_bits());
        prop_assert_eq!(ncc(&a, &a).unwrap().to_bits(),
            reference_ncc(&a, &a).unwrap().to_bits());
    }

    /// The fused crop-resize region scratch samples exactly the pixels the
    /// allocating `crop` + `resized` path samples, across reused and
    /// shape-changing boxes, including degenerate and out-of-frame ones.
    #[test]
    fn region_scratch_is_bit_identical_to_allocating_path(
        dims in (8usize..40, 8usize..40),
        pool_a in proptest::collection::vec(0.0..1.0f64, 64..128),
        pool_b in proptest::collection::vec(0.0..1.0f64, 64..128),
        boxes in proptest::collection::vec(
            ((-10.0..50.0f64, -10.0..50.0f64), (0.0..30.0f64, 0.0..30.0f64)),
            4..7,
        ),
    ) {
        let (w, h) = dims;
        let prev = image_from_pool(w, h, &pool_a);
        let cur = image_from_pool(w, h, &pool_b);
        // One scratch across every drawn pair of boxes: exercises both the
        // cached-index-map reuse and the shape-change refresh.
        let mut scratch = RegionNcc::new();
        for pair in boxes.windows(2) {
            let ((x0, y0), (w0, h0)) = pair[0];
            let ((x1, y1), (w1, h1)) = pair[1];
            let prev_bbox = BoundingBox::new(x0, y0, w0, h0);
            let cur_bbox = BoundingBox::new(x1, y1, w1, h1);
            let fast = scratch.ncc_regions(&prev, &prev_bbox, &cur, &cur_bbox);
            let slow = reference_ncc_regions(&prev, &prev_bbox, &cur, &cur_bbox);
            prop_assert_eq!(fast.to_bits(), slow.to_bits(),
                "fast {} != reference {} for {:?} vs {:?}",
                fast, slow, prev_bbox, cur_bbox);
            // The allocating free function must agree with the scratch, and
            // the result must respect the range invariant.
            let free = ncc_regions(&prev, &prev_bbox, &cur, &cur_bbox);
            prop_assert_eq!(free.to_bits(), fast.to_bits());
            prop_assert!((-1.0..=1.0).contains(&fast));
        }
    }

    /// The dominance-pruned single-sweep arg-max reproduces the historical
    /// unpruned pass bit-for-bit along whole scheduling trajectories: same
    /// chosen pair, bitwise-identical recorded scores and the exact same
    /// fault-degrade fallback order. Knobs are drawn over negative values
    /// too, which must disable pruning rather than corrupt the arg-max.
    #[test]
    fn pruned_argmax_matches_unpruned_reference(
        knobs in (-0.5..2.5f64, -0.5..2.5f64, -0.5..2.5f64),
        goal in 0.05..0.9f64,
        momentum in 1usize..8,
        trajectory in proptest::collection::vec((0.0..1.0f64, 0usize..26), 1..5),
    ) {
        let mut config = ShiftConfig::paper_defaults()
            .with_accuracy_goal(goal)
            .with_momentum(momentum);
        // Bypass the clamping constructor deliberately: the public fields
        // admit negative weights, and pruning must be provably off for them.
        config.knobs.accuracy = knobs.0;
        config.knobs.energy = knobs.1;
        config.knobs.latency = knobs.2;
        let mut scheduler = build_scheduler(config);
        let mut reference_buffers: BTreeMap<ModelId, VecDeque<f64>> = BTreeMap::new();
        for (confidence, pair_index) in trajectory {
            let current = scheduler.candidate_pairs()
                [pair_index % scheduler.candidate_pairs().len()];
            let (expected_pair, expected_scores) =
                reference_pass(&scheduler, &mut reference_buffers, current, confidence);
            let decision = scheduler.force_reschedule(current, confidence, 0.0);
            prop_assert_eq!(decision.pair, expected_pair);
            prop_assert_eq!(decision.scores.len(), expected_scores.len());
            for (got, want) in decision.scores.iter().zip(&expected_scores) {
                prop_assert_eq!(got.0, want.0);
                prop_assert_eq!(got.1.to_bits(), want.1.to_bits(),
                    "score of {} drifted: {} != {}", got.0, got.1, want.1);
            }
            // The degrade walk both runtimes follow must be unchanged for
            // any incumbent: the decided pair, the current pair and an
            // arbitrary third party.
            for incumbent in [decision.pair, current,
                CandidatePair::new(ModelId::SsdMobilenetV2Small, AcceleratorId::Cpu)] {
                prop_assert_eq!(
                    decision.fallback_candidates(incumbent),
                    reference_fallback(decision.pair, &expected_scores, incumbent)
                );
            }
        }
    }

    /// The restructured single-allocation `fallback_candidates` walks the
    /// exact sequence of the historical clone + sort + seen-dedup version
    /// for arbitrary synthetic score tables (unique pairs, as the scheduler
    /// produces), decided pairs and incumbents — including incumbents that
    /// duplicate a scored candidate.
    #[test]
    fn fallback_walk_matches_historical_order(
        raw_scores in proptest::collection::vec(0.0..1.0f64, 1..24),
        tie_mask in 0u64..u64::MAX,
        decided_index in 0usize..24,
        incumbent_index in 0usize..40,
    ) {
        // A unique pair universe in a fixed order.
        let universe: Vec<CandidatePair> = ModelId::ALL
            .iter()
            .flat_map(|&m| ACCELERATORS.iter().map(move |&a| CandidatePair::new(m, a)))
            .collect();
        let scores: Vec<(CandidatePair, f64)> = raw_scores
            .iter()
            .enumerate()
            .map(|(i, &s)| {
                // Force frequent exact ties so the pair-order tie-break and
                // the duplicate-handling actually trigger.
                let s = if tie_mask & (1 << (i % 64)) != 0 { 0.5 } else { s };
                (universe[i], s)
            })
            .collect();
        let decided = scores[decided_index % scores.len()].0;
        let incumbent = universe[incumbent_index % universe.len()];
        let decision = shift_core::Decision {
            pair: decided,
            rescheduled: true,
            similarity: 0.0,
            scores: scores.clone(),
        };
        prop_assert_eq!(
            decision.fallback_candidates(incumbent),
            reference_fallback(decided, &scores, incumbent)
        );
    }
}
