//! Fast-path vs reference differential properties.
//!
//! The hot-path speed campaign (cached-moment NCC with the missing centered
//! norms fused into the cross-term loop, the whole-frame NCC of a stream
//! block's consecutive pairs run one pair per lane, the renderer's row-wise
//! target pass and the frame mean it seeds, the mean's lane sum that
//! re-associates only when every partial sum is exact, the fused zero-alloc
//! region scratch and the dominance-pruned scheduler arg-max) promises
//! *bit-identical*
//! outputs, not approximately-equal ones — the committed stress and chaos
//! artifacts depend on it. This suite keeps the historical implementations
//! alive as private references and asserts `f64::to_bits` equality against
//! the optimized paths over proptest-drawn images, appearances, bounding
//! boxes and scheduler trajectories. It also owns the `[-1, 1]` range
//! invariant that used to be re-clamped (dead) in
//! `ContextDetector::similarity`.

use proptest::prelude::*;
use shift_core::{
    characterize, AttachRequest, CandidatePair, Characterization, ClusterBuilder, ClusterPolicy,
    ConfidenceGraph, ContextDetector, DeadlineClass, FleetBuilder, FrameOutcome, Scheduler,
    ServicePolicy, SessionEvent, SessionRequest, ShiftConfig, ShiftRuntime, StreamHandle,
};
use shift_models::{ModelId, ModelZoo, ResponseModel};
use shift_soc::{AcceleratorId, DeviceClass, ExecutionEngine, Platform};
use shift_video::image::{render_frame, SceneAppearance};
use shift_video::ncc::REGION_NCC_SIZE;
use shift_video::{
    ncc, ncc_regions, BoundingBox, CharacterizationDataset, Difficulty, Environment, GrayImage,
    RegionNcc, Scenario, ScenarioGenerator, ScenarioSpec, TrajectoryFamily, VideoError,
    WeatherRegime,
};
use std::collections::{BTreeMap, VecDeque};
use std::sync::OnceLock;

// ---------------------------------------------------------------------------
// Reference implementations: the exact pre-optimization code paths.
// ---------------------------------------------------------------------------

/// The historical mean: one left-to-right `sum` over the row-major buffer.
fn reference_mean(img: &GrayImage) -> f64 {
    img.pixels().iter().map(|&v| v as f64).sum::<f64>() / img.pixels().len() as f64
}

/// The centered norm `Σ (v − mean)²`, computed from scratch.
fn reference_norm(img: &GrayImage) -> f64 {
    let mean = reference_mean(img);
    img.pixels()
        .iter()
        .map(|&v| {
            let d = v as f64 - mean;
            d * d
        })
        .sum()
}

/// The historical three-pass NCC: means recomputed from scratch and all three
/// accumulators (`num`, `dp`, `dc`) carried through one pairwise loop.
fn reference_ncc(p: &GrayImage, c: &GrayImage) -> Result<f64, VideoError> {
    if p.width() != c.width() || p.height() != c.height() {
        return Err(VideoError::DimensionMismatch {
            lhs: (p.width(), p.height()),
            rhs: (c.width(), c.height()),
        });
    }
    let mp = reference_mean(p);
    let mc = reference_mean(c);
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

/// The historical target pass: the frame rendered without a box, then the
/// blob drawn pixel by pixel through the public `get` and `set`.
fn reference_render(
    width: usize,
    height: usize,
    appearance: &SceneAppearance,
    target: Option<&BoundingBox>,
    seed: u64,
) -> GrayImage {
    let mut img = render_frame(width, height, appearance, None, seed);
    let Some(bbox) = target else {
        return img;
    };
    let clamped = bbox.clamped(width, height);
    if clamped.is_empty() {
        return img;
    }
    let (cx, cy) = clamped.center();
    let delta = (0.25 + 0.6 * appearance.contrast) as f32;
    let x0 = clamped.x.floor().max(0.0) as usize;
    let y0 = clamped.y.floor().max(0.0) as usize;
    let x1 = (clamped.right().ceil() as usize).min(width);
    let y1 = (clamped.bottom().ceil() as usize).min(height);
    for y in y0..y1 {
        for x in x0..x1 {
            let dx = (x as f64 + 0.5 - cx).abs() / (clamped.w / 2.0).max(0.5);
            let dy = (y as f64 + 0.5 - cy).abs() / (clamped.h / 2.0).max(0.5);
            let body = if dx < 0.35 || dy < 0.35 { 1.0 } else { 0.55 };
            if dx <= 1.0 && dy <= 1.0 {
                let falloff = (1.0 - (dx.max(dy)).powi(2)) as f32;
                let value = img.get(x, y) - delta * body as f32 * falloff;
                img.set(x, y, value);
            }
        }
    }
    img
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

/// Frame sizes for the stream properties: a single pixel, and pixel counts
/// on both sides of a multiple of eight.
const STREAM_SIZES: [(usize, usize); 5] = [(1, 1), (3, 5), (17, 9), (64, 64), (65, 63)];

/// A generated scenario cut to `frames` frames of `STREAM_SIZES[size]`.
fn generated_scenario(seed: u64, spec: usize, size: usize, frames: usize) -> Scenario {
    let families = [
        TrajectoryFamily::Approach,
        TrajectoryFamily::Orbit,
        TrajectoryFamily::FlyThrough,
    ];
    let weathers = [
        WeatherRegime::Clear,
        WeatherRegime::Overcast,
        WeatherRegime::Fog,
        WeatherRegime::Dusk,
    ];
    let spec = ScenarioSpec::new(
        format!("ncc-stream-{spec}"),
        [Environment::Indoor, Environment::Outdoor][spec % 2],
        families[spec / 2 % families.len()],
        weathers[spec / 6 % weathers.len()],
        Difficulty::ALL[spec / 24 % Difficulty::ALL.len()],
    );
    let (width, height) = STREAM_SIZES[size];
    ScenarioGenerator::new(seed)
        .generate(&spec, seed % 7)
        .with_frame_size(width, height)
        .with_num_frames(frames)
}

fn engine() -> ExecutionEngine {
    ExecutionEngine::new(
        Platform::xavier_nx_with_oak(),
        ModelZoo::standard(),
        ResponseModel::new(17),
    )
}

fn shift_runtime() -> ShiftRuntime {
    ShiftRuntime::new(engine(), characterization(), ShiftConfig::paper_defaults())
        .expect("runtime builds")
}

/// A batch-class session request, which no latency budget refuses.
fn batch_session(name: String, scenario: Scenario) -> SessionRequest {
    SessionRequest::Attach(AttachRequest::new(
        name,
        scenario,
        ShiftConfig::paper_defaults(),
        DeadlineClass::Batch,
    ))
}

/// An equal scenario value with an NCC memo of its own: every builder call
/// starts a fresh memo, so correlations of its frames compute their values
/// instead of reading what a run over `scenario` or its clones stored.
fn own_memo(scenario: &Scenario) -> Scenario {
    scenario.clone().with_seed(scenario.seed())
}

/// Replays a fresh context detector per stream slot on the slot's frames
/// rendered one at a time through `frame_at` from an equal scenario value
/// with a memo of its own, which are linked to nothing and take the serial
/// NCC, and checks every similarity the slot recorded, bit for bit. `slots`
/// maps a slot to its scenario and to its outcomes in the order they ran.
fn replay_similarities<K: std::fmt::Debug>(slots: &BTreeMap<K, (Scenario, Vec<FrameOutcome>)>) {
    for (slot, (scenario, outcomes)) in slots {
        let stream = own_memo(scenario).stream();
        let mut detector = ContextDetector::new();
        let mut last: Option<BoundingBox> = None;
        for outcome in outcomes {
            let frame = stream
                .frame_at(outcome.frame_index)
                .expect("played frames exist");
            let replayed = detector.similarity(&frame, last.as_ref());
            assert_eq!(
                replayed.to_bits(),
                outcome.similarity.to_bits(),
                "slot {:?}, frame {}: replayed {} != recorded {}",
                slot,
                outcome.frame_index,
                replayed,
                outcome.similarity
            );
            last = outcome.detection.map(|d| d.bbox);
            detector.update(&frame, last.as_ref());
        }
    }
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

    /// `ncc` runs the cross term in the same loop as each centered norm not
    /// cached yet. In every cache state (no norm, either one, both) it is
    /// bit-identical to the historical three-pass formulation, every norm it
    /// stores is `Σ (v − mean)²` computed from scratch, and the result stays
    /// in `[-1, 1]` — the invariant `ContextDetector::similarity` used to
    /// re-clamp.
    #[test]
    fn cached_moment_ncc_is_bit_identical_to_three_pass(
        dims in (1usize..24, 1usize..24),
        pool_a in proptest::collection::vec(-0.5..1.5f64, 64..128),
        pool_b in proptest::collection::vec(-0.5..1.5f64, 64..128),
    ) {
        let (w, h) = dims;
        let expected = reference_ncc(
            &image_from_pool(w, h, &pool_a),
            &image_from_pool(w, h, &pool_b),
        )
        .expect("dims match");
        prop_assert!((-1.0..=1.0).contains(&expected));
        for (cache_a, cache_b) in [(false, false), (true, false), (false, true), (true, true)] {
            let a = image_from_pool(w, h, &pool_a);
            let b = image_from_pool(w, h, &pool_b);
            if cache_a {
                a.centered_norm();
            }
            if cache_b {
                b.centered_norm();
            }
            let fast = ncc(&a, &b).expect("dims match");
            prop_assert_eq!(fast.to_bits(), expected.to_bits(),
                "cache state ({}, {}): fast {} != reference {}",
                cache_a, cache_b, fast, expected);
            prop_assert_eq!(a.centered_norm().to_bits(), reference_norm(&a).to_bits());
            prop_assert_eq!(b.centered_norm().to_bits(), reference_norm(&b).to_bits());
            // Both norms are cached now: a second query must reproduce the
            // same bits.
            prop_assert_eq!(ncc(&a, &b).unwrap().to_bits(), fast.to_bits());
        }
        // The self-correlation, from an empty cache (one image on both sides
        // of the fused loop) and from a warm one.
        let solo = image_from_pool(w, h, &pool_a);
        let expected = reference_ncc(&solo, &solo).unwrap().to_bits();
        prop_assert_eq!(ncc(&solo, &solo).unwrap().to_bits(), expected);
        prop_assert_eq!(ncc(&solo, &solo).unwrap().to_bits(), expected);
    }

    /// A stream renders blocks of eight frames, and the first correlation of
    /// two consecutive frames of a block runs every pair of the block in
    /// one lane pass. Every pair of frames the stream yields, one after the
    /// other, gives the historical three-pass NCC bit for bit: consecutive
    /// pairs from the pass, and the pairs an `nth` skip leaves apart from
    /// the serial loop. The streams start anywhere (past the end too), skip
    /// inside and across blocks, and may be shorter than one block, on
    /// frame sizes whose pixel counts are and are not multiples of eight.
    #[test]
    fn stream_pairs_are_bit_identical_to_three_pass(
        scenario in (0u64..1_000, 0usize..96, 0usize..STREAM_SIZES.len(), 1usize..40),
        start in 0usize..44,
        steps in proptest::collection::vec(0usize..20, 1..40),
    ) {
        let (seed, spec, size, frames) = scenario;
        let scenario = generated_scenario(seed, spec, size, frames);
        // Mostly inside the scenario, sometimes past its end.
        let mut stream = scenario.stream_from(start % (frames + 4));
        let mut previous: Option<(usize, GrayImage)> = None;
        for step in steps {
            // Half the steps are `next`, half skip 0 to 9 frames: inside the
            // rendered block or past it.
            let next = match step.checked_sub(10) {
                Some(skip) => stream.nth(skip),
                None => stream.next(),
            };
            let Some(frame) = next else { break };
            if let Some((index, p)) = &previous {
                let fast = ncc(p, &frame.image).expect("one size");
                let reference = reference_ncc(p, &frame.image).expect("one size");
                prop_assert_eq!(fast.to_bits(), reference.to_bits(),
                    "frames {} and {} of {}: fast {} != reference {}",
                    index, frame.index, frames, fast, reference);
            }
            previous = Some((frame.index, frame.image));
        }
    }

    /// `ShiftRuntime::run` over a stream's linked blocks produces the same
    /// outcomes as over the same frames rendered one at a time through
    /// `frame_at` from an equal scenario value with a memo of its own, which
    /// are linked to nothing and take the serial NCC.
    #[test]
    fn shift_runtime_over_linked_blocks_matches_frames_rendered_one_by_one(
        scenario in (0u64..1_000, 0usize..96, 0usize..STREAM_SIZES.len(), 1usize..40),
        start in 0usize..44,
    ) {
        let (seed, spec, size, frames) = scenario;
        let scenario = generated_scenario(seed, spec, size, frames);
        let linked = shift_runtime().run(scenario.stream_from(start)).expect("runs");
        let stream = own_memo(&scenario).stream();
        let one_by_one = (start..frames).filter_map(|i| stream.frame_at(i));
        let single = shift_runtime().run(one_by_one).expect("runs");
        prop_assert_eq!(linked.len(), frames.saturating_sub(start));
        prop_assert_eq!(linked, single);
    }

    /// Every scenario value memoizes the whole-frame NCC of each frame with
    /// the one before it, for all its clones. A memo filled by one pass over
    /// every frame answers a context detector that starts anywhere (past
    /// the end too) on a clone and skips frames inside and across blocks:
    /// every whole-frame NCC and every similarity equals, bit for bit, the
    /// same run over an equal scenario value with a memo of its own, and the
    /// three-pass reference. The clone's run reads every consecutive pair
    /// and computes the others, so the memo's miss count does not grow.
    #[test]
    fn a_run_over_a_clone_reads_the_memo_with_the_bits_of_its_own_memo(
        scenario in (0u64..1_000, 0usize..96, 0usize..STREAM_SIZES.len(), 1usize..40),
        start in 0usize..44,
        steps in proptest::collection::vec(0usize..20, 1..40),
    ) {
        let (seed, spec, size, frames) = scenario;
        let scenario = generated_scenario(seed, spec, size, frames);
        let filled: Vec<_> = scenario.stream().collect();
        for pair in filled.windows(2) {
            ncc(&pair[0].image, &pair[1].image).expect("one size");
        }
        let misses = scenario.ncc_memo_misses();
        prop_assert_eq!(misses, frames as u64 - 1);
        // The yielded frames' indices and detector similarities, and each
        // whole-frame NCC with the frame before it beside the three-pass
        // reference, as bits.
        let run = |scenario: &Scenario| {
            let mut stream = scenario.stream_from(start % (frames + 4));
            let mut detector = ContextDetector::new();
            let mut previous: Option<GrayImage> = None;
            let (mut similarities, mut wholes) = (Vec::new(), Vec::new());
            for &step in &steps {
                // Half the steps are `next`, half skip 0 to 9 frames.
                let next = match step.checked_sub(10) {
                    Some(skip) => stream.nth(skip),
                    None => stream.next(),
                };
                let Some(frame) = next else { break };
                let similarity = detector.similarity(&frame, frame.truth.as_ref());
                similarities.push((frame.index, similarity.to_bits()));
                if let Some(p) = &previous {
                    let whole = ncc(p, &frame.image).expect("one size");
                    let reference = reference_ncc(p, &frame.image).expect("one size");
                    wholes.push((whole.to_bits(), reference.to_bits()));
                }
                detector.update(&frame, frame.truth.as_ref());
                previous = Some(frame.image);
            }
            (similarities, wholes)
        };
        let from_clone = run(&scenario.clone());
        prop_assert_eq!(scenario.ncc_memo_misses(), misses, "the clone's run computed a read");
        prop_assert_eq!(&from_clone, &run(&own_memo(&scenario)));
        for (whole, reference) in &from_clone.1 {
            prop_assert_eq!(whole, reference);
        }
    }

    /// A fleet links the pending frame pairs of up to eight ready streams
    /// of one frame size into one lane pass. Under a service whose sessions
    /// attach at tick 0 or later, of mixed frame sizes, and some detach
    /// midway, every similarity the fleet records equals a context detector
    /// replayed on frames rendered one at a time, bit for bit.
    #[test]
    fn service_similarities_match_a_detector_replay_on_frames_rendered_one_by_one(
        sessions in proptest::collection::vec(
            ((0u64..1_000, 0usize..96, 0usize..4), (8usize..30, 0u64..12, 0u64..150)),
            4..10,
        ),
    ) {
        let mut service = FleetBuilder::new(engine(), characterization())
            .build_service(ServicePolicy::defaults())
            .expect("service builds");
        let scenarios: Vec<Scenario> = sessions
            .iter()
            .map(|&((seed, spec, size), (frames, _, _))| {
                // Mostly one size, so that pairs link, and two others.
                generated_scenario(seed, spec, [2, 2, 1, 3][size], frames)
            })
            .collect();
        // (tick, detach, session), attaches before detaches of one tick. A
        // session whose detach delay is 0 stays attached.
        let mut actions: Vec<(u64, bool, usize)> = sessions
            .iter()
            .enumerate()
            .flat_map(|(k, &(_, (_, attach, detach)))| {
                std::iter::once((attach, false, k))
                    .chain((detach > 0).then_some((attach + detach, true, k)))
            })
            .collect();
        actions.sort();
        let mut ids = vec![None; sessions.len()];
        let mut slots = BTreeMap::new();
        let mut next = 0;
        loop {
            // Fire the next request when its tick is due, or at once when
            // every stream is idle.
            let due = actions
                .get(next)
                .is_some_and(|&(tick, ..)| tick <= service.ticks() || service.fleet().is_done());
            if due {
                let (_, detach, k) = actions[next];
                next += 1;
                if detach {
                    if let Some(id) = ids[k] {
                        service.submit(SessionRequest::Detach(id));
                    }
                } else if let SessionEvent::Admitted { session: id, .. } =
                    service.submit(batch_session(format!("s{k}"), scenarios[k].clone()))
                {
                    ids[k] = Some(id);
                    let slot = service.stream_of(id).expect("admitted sessions run").index();
                    slots.insert(slot, (scenarios[k].clone(), Vec::new()));
                }
                continue;
            }
            let Some(outcome) = service.step().expect("the service steps") else {
                break;
            };
            slots
                .get_mut(&outcome.stream)
                .expect("outcomes come from admitted slots")
                .1
                .push(outcome.outcome);
        }
        replay_similarities(&slots);
    }

    /// `render_frame` draws the target row by row, right after each row's
    /// background, and stores the mean of the finished frame. Its pixels
    /// equal the historical box-free render plus the per-pixel `get`/`set`
    /// target pass, and its mean equals one left-to-right sum, for a drawn
    /// box, boxes clipped at each edge, boxes empty after clamping and no
    /// box.
    #[test]
    fn row_wise_render_is_bit_identical_to_per_pixel_target_pass(
        dims in (8usize..48, 8usize..48),
        look in (0u64..32, 0.0..1.0f64, 0.0..1.0f64, 0.0..1.0f64),
        shake in (0.0..0.3f64, -0.2..0.2f64, -0.2..0.2f64, 0u64..u64::MAX),
        drawn in ((-20.0..60.0f64, -20.0..60.0f64), (0.0..30.0f64, 0.0..30.0f64)),
    ) {
        let (w, h) = dims;
        let appearance = SceneAppearance {
            background_id: look.0 as u32,
            clutter: look.1,
            contrast: look.2,
            lighting: look.3,
            noise: shake.0,
            camera_dx: shake.1,
            camera_dy: shake.2,
        };
        let seed = shake.3;
        let ((x, y), (bw, bh)) = drawn;
        let (fw, fh) = (w as f64, h as f64);
        let (ew, eh) = (bw + 2.0, bh + 2.0);
        let boxes = [
            Some(BoundingBox::new(x, y, bw, bh)),
            // Clipped at the left, right, top and bottom edges.
            Some(BoundingBox::from_center(0.0, fh / 2.0, ew, eh)),
            Some(BoundingBox::from_center(fw, fh / 2.0, ew, eh)),
            Some(BoundingBox::from_center(fw / 2.0, 0.0, ew, eh)),
            Some(BoundingBox::from_center(fw / 2.0, fh, ew, eh)),
            // Empty after clamping: wholly outside, and of zero width.
            Some(BoundingBox::new(fw + 1.0 + x.abs(), y, bw, bh)),
            Some(BoundingBox::new(x, -(bh + 1.0 + y.abs()), bw, bh)),
            Some(BoundingBox::new(x, y, 0.0, bh)),
            None,
        ];
        let bits = |img: &GrayImage| img.pixels().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for target in &boxes {
            let fast = render_frame(w, h, &appearance, target.as_ref(), seed);
            let slow = reference_render(w, h, &appearance, target.as_ref(), seed);
            prop_assert_eq!(bits(&fast), bits(&slow),
                "pixels differ for {:?} on a {}x{} frame", target, w, h);
            prop_assert_eq!(fast.mean().to_bits(), reference_mean(&fast).to_bits(),
                "stored mean {} drifted for {:?}", fast.mean(), target);
        }
    }

    /// `GrayImage::mean` adds in parallel lanes only when the image has at
    /// most 8,192 pixels, each ±0 or of magnitude in [2⁻¹⁷, 1], so that no
    /// partial sum can round. On images drawn on both sides of that length
    /// bound, mixing in-range pixels with ones the lanes must refuse (signed
    /// zeros, a subnormal, 2⁻⁵³, just below 2⁻¹⁷, above 1, negative, NaN
    /// and ∞), it equals one left-to-right sum.
    #[test]
    fn lane_summed_mean_is_bit_identical_to_one_left_to_right_sum(
        len in 1usize..8_300,
        pool in proptest::collection::vec((0usize..64, 0.0..1.0f64), 1..48),
    ) {
        let special = [
            0.0,
            -0.0,
            f32::from_bits(1),
            2f32.powi(-53),
            f32::from_bits(2f32.powi(-17).to_bits() - 1),
            1.5,
            -0.25,
            -1.0e30,
            f32::NAN,
            f32::INFINITY,
        ];
        let img = GrayImage::from_fn(len, 1, |x, _| {
            let (kind, v) = pool[x % pool.len()];
            special.get(kind).copied().unwrap_or(v as f32)
        });
        prop_assert_eq!(img.mean().to_bits(), reference_mean(&img).to_bits(),
            "{} pixels from {:?}", len, pool);
    }

    /// A clone shares its original's cached mean and norm until `set`
    /// changes its pixels. From then on it recomputes its own, and the
    /// original keeps its values; a second `set` on the now unshared clone
    /// clears its cache again.
    #[test]
    fn set_on_a_clone_recomputes_its_moments_and_spares_the_original(
        dims in (2usize..24, 2usize..24),
        pool in proptest::collection::vec(0.0..1.0f64, 64..128),
        edits in ((0usize..24, 0usize..24), (0usize..24, 0usize..24)),
    ) {
        let (w, h) = dims;
        let original = image_from_pool(w, h, &pool);
        let partner = GrayImage::from_fn(w, h, |x, y| ((x * 7 + y * 3) % 11) as f32 / 10.0);
        // `ncc` stores the original's norm from its fused loop.
        ncc(&original, &partner).expect("dims match");
        let (mean, norm) = (original.mean(), original.centered_norm());
        let mut copy = original.clone();
        for (x, y) in [edits.0, edits.1] {
            let (x, y) = (x % w, y % h);
            let before = copy.mean();
            let flipped = if copy.get(x, y) < 0.5 { 1.0 } else { 0.0 };
            copy.set(x, y, flipped);
            prop_assert!(copy.mean() != before, "a stale mean survived `set`");
            prop_assert_eq!(copy.mean().to_bits(), reference_mean(&copy).to_bits());
            prop_assert_eq!(copy.centered_norm().to_bits(), reference_norm(&copy).to_bits());
            prop_assert_eq!(
                ncc(&copy, &partner).unwrap().to_bits(),
                reference_ncc(&copy, &partner).unwrap().to_bits()
            );
        }
        prop_assert_eq!(original.mean().to_bits(), mean.to_bits());
        prop_assert_eq!(original.centered_norm().to_bits(), norm.to_bits());
        prop_assert_eq!(mean.to_bits(), reference_mean(&original).to_bits());
        prop_assert_eq!(norm.to_bits(), reference_norm(&original).to_bits());
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

/// The cluster's nodes step their fleets, which link pending pairs into lane
/// passes; a session migrated between nodes resumes on a fresh detector.
/// Every similarity recorded on either node equals a detector replayed on
/// frames rendered one at a time, bit for bit.
#[test]
fn cluster_similarities_across_a_migration_match_a_detector_replay() {
    let mut builder =
        ClusterBuilder::new().policy(ClusterPolicy::defaults().with_rebalance(4, 0.9));
    for _ in 0..2 {
        let class = DeviceClass::NxClass;
        let engine = ExecutionEngine::new(
            class.platform(),
            ModelZoo::standard(),
            ResponseModel::new(17),
        );
        builder = builder.node(class, engine, characterization().clone());
    }
    let mut cluster = builder.build().expect("cluster builds");
    // Nine long sessions and one short one: placement loads one node more
    // once the short session drains, and the rebalancer moves a session.
    let lengths = [40, 40, 40, 40, 40, 40, 40, 40, 40, 4];
    let scenarios: BTreeMap<String, Scenario> = lengths
        .iter()
        .enumerate()
        .map(|(k, &frames)| {
            (
                format!("s{k}"),
                generated_scenario(k as u64, 7 * k, 2, frames),
            )
        })
        .collect();
    for (name, scenario) in &scenarios {
        let SessionRequest::Attach(request) = batch_session(name.clone(), scenario.clone()) else {
            unreachable!("batch_session builds an attach");
        };
        cluster.schedule_attach(0, request);
    }
    let outcomes = cluster.run_until_idle().expect("the cluster runs");
    assert!(
        !cluster.migrations().is_empty(),
        "the rebalancer migrates a session"
    );
    let mut slots = BTreeMap::new();
    for outcome in outcomes {
        let fleet = cluster.node(outcome.node).fleet();
        let name = fleet
            .stream(StreamHandle::from_index(outcome.inner.stream))
            .name()
            .to_owned();
        slots
            .entry((outcome.node, outcome.inner.stream))
            .or_insert_with(|| (scenarios[&name].clone(), Vec::new()))
            .1
            .push(outcome.inner.outcome);
    }
    replay_similarities(&slots);
    let linked: u64 = (0..cluster.node_count())
        .map(|node| cluster.node(node).fleet().linked_pairs())
        .sum();
    assert!(linked > 0, "the nodes link pending pairs into lane passes");
}
