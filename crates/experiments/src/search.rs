//! Coverage-guided adversarial scenario search (`repro -- hunt`).
//!
//! The stress sweep samples a *fixed* 8×8 grid of workload classes and the
//! chaos sweep a fixed fault-plan library — but the PR-3 scenario generator
//! and the PR-5 fault subsystem define an unbounded scenario × fault
//! cross-product that nothing explores. This module is the machine that
//! explores it: a deterministic, coverage-guided hunt loop that mutates
//! `(ScenarioSpec, FaultSpec, seeds)` entries toward SHIFT *failure signals*
//! and greedily minimizes everything it catches.
//!
//! * [`Corpus`] holds the [`HuntEntry`] population, seeded from the standard
//!   workload classes crossed with the standard fault presets.
//! * [`Mutator`] derives mutants as a pure function of
//!   `(mutator seed, round, slot, parent)`. Every mutation goes through the
//!   clamping `ScenarioSpec` builders and normalizes the fault horizon to
//!   the scenario length, so mutants satisfy the PR-3 generator invariants
//!   (in-frame boxes, disjoint windows, schedulable goals) by construction —
//!   `tests/property_mutator.rs` locks this.
//! * [`FailureSignal`]s score each run by reusing the `shift_metrics`
//!   breakdown/resilience reductions: the goal-attainment gap, the forced
//!   re-planning rate, the blind-frame fraction and the fault-window success
//!   drop.
//! * Novelty bucketing ([`CaseEvaluation::signature`]) keeps only entries
//!   that extend signal coverage, so the corpus grows along new failure
//!   modes instead of re-finding the same one.
//! * The greedy [`minimize`] loop shrinks a failing entry — fewer frames,
//!   segments, events and fault windows, relaxed clutter, a tighter horizon
//!   — while the same signal keeps firing; the size metric never increases
//!   across accepted steps.
//!
//! Mutant evaluation fans out on the deterministic parallel executor and is
//! folded serially in index order, so `HUNT_findings.csv` is byte-identical
//! for any `--jobs` count. Each minimized finding is emitted as a
//! declarative [`CorpusCase`] — committed under `tests/corpus/` and replayed
//! bit-identically by the tier-1 `tests/regression_corpus.rs`.

use crate::workloads::paper_shift_config;
use crate::{outcome_to_record, ExperimentContext, ExperimentError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use shift_core::FleetBuilder;
use shift_metrics::{FrameRecord, HuntReport, HuntRow, ResilienceRow, ScenarioRow, Table};
use shift_soc::{AcceleratorId, FaultPlan, FaultSpec, PowerMode};
use shift_video::generator::{
    decode_lines, require_field, set_field, ScenarioGenerator, ScenarioLibrary, ScenarioSpec,
};
use std::collections::BTreeSet;

/// Accelerators the mutator may script dropouts against. The OAK-D is
/// excluded (as in the standard fault presets): the external camera
/// accelerator survives SoC faults, so a re-planning scheduler always has
/// somewhere to go and a hunt entry can never wedge the runtime entirely.
pub const DROPOUT_POOL: [AcceleratorId; 3] =
    [AcceleratorId::Gpu, AcceleratorId::Dla0, AcceleratorId::Dla1];

/// Accelerators the mutator may script memory squeezes against. Squeezes
/// are capped at 90% of a pool, so every accelerator stays eligible.
pub const SQUEEZE_POOL: [AcceleratorId; 4] = [
    AcceleratorId::Gpu,
    AcceleratorId::Dla0,
    AcceleratorId::Dla1,
    AcceleratorId::OakD,
];

/// The failure signals the hunt scores every run against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SignalKind {
    /// SHIFT missed its accuracy goal: `accuracy_goal - mean_iou`.
    GoalGap,
    /// Load thrash: model/accelerator swaps per 1000 frames.
    ReplanRate,
    /// Fraction of frames with zero IoU (the scheduler was blind).
    BlindFrames,
    /// Fault-window success drop:
    /// `success_outside_fault - success_in_fault`.
    FaultDrop,
}

impl SignalKind {
    /// All signal kinds, in scoring order.
    pub const ALL: [SignalKind; 4] = [
        SignalKind::GoalGap,
        SignalKind::ReplanRate,
        SignalKind::BlindFrames,
        SignalKind::FaultDrop,
    ];

    /// Stable label used in CSV rows and corpus cases.
    pub fn label(&self) -> &'static str {
        match self {
            SignalKind::GoalGap => "goal-gap",
            SignalKind::ReplanRate => "replan-rate",
            SignalKind::BlindFrames => "blind-frames",
            SignalKind::FaultDrop => "fault-drop",
        }
    }

    /// The magnitude a run must reach for the signal to count as a failure.
    pub fn threshold(&self) -> f64 {
        match self {
            SignalKind::GoalGap => 0.02,
            SignalKind::ReplanRate => 45.0,
            SignalKind::BlindFrames => 0.2,
            SignalKind::FaultDrop => 0.25,
        }
    }

    /// Bucket width for novelty: magnitudes within one bucket count as the
    /// same coverage point.
    fn bucket_width(&self) -> f64 {
        match self {
            SignalKind::GoalGap => 0.04,
            SignalKind::ReplanRate => 20.0,
            SignalKind::BlindFrames => 0.1,
            SignalKind::FaultDrop => 0.15,
        }
    }
}

impl std::fmt::Display for SignalKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.label())
    }
}

impl std::str::FromStr for SignalKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        SignalKind::ALL
            .into_iter()
            .find(|k| k.label() == s)
            .ok_or_else(|| format!("unknown signal {s:?}"))
    }
}

/// One scored signal of a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FailureSignal {
    /// What was measured.
    pub kind: SignalKind,
    /// The measured magnitude.
    pub magnitude: f64,
}

impl FailureSignal {
    /// Whether the magnitude clears the kind's failure threshold.
    pub fn fires(&self) -> bool {
        self.magnitude >= self.kind.threshold()
    }
}

/// One replayable corpus entry: a scenario spec, a fault mix and the seeds
/// that pin both to concrete content.
#[derive(Debug, Clone, PartialEq)]
pub struct HuntEntry {
    /// The declarative scenario.
    pub scenario: ScenarioSpec,
    /// The declarative fault mix.
    pub fault: FaultSpec,
    /// Seed of the scenario generator.
    pub scenario_seed: u64,
    /// Scenario replica index.
    pub replica: u64,
    /// Seed of the fault-plan generator.
    pub fault_seed: u64,
}

/// The size metric the minimizer is monotone against: scenario length,
/// structural event counts and scripted fault volume. Every accepted shrink
/// step keeps this non-increasing (`tests/property_mutator.rs` locks it).
pub fn entry_size(entry: &HuntEntry) -> u64 {
    let s = &entry.scenario;
    let f = &entry.fault;
    let windows = (f.dropouts * f.dropout_targets.len()
        + f.clamps
        + f.squeezes * f.squeeze_targets.len()
        + f.glitches) as u64;
    s.frames.1 as u64
        + 20 * s.segments.1 as u64
        + 15 * (s.occlusions.1 + s.absences.1 + s.cut_bursts.1) as u64
        + 25 * windows
        + (f.dropout_targets.len() + f.squeeze_targets.len()) as u64
        + f.horizon_frames / 4
}

/// Everything the scorer measured about one entry's run.
#[derive(Debug, Clone, PartialEq)]
pub struct CaseEvaluation {
    /// The per-(scenario, method) breakdown reduction of the run.
    pub scenario_row: ScenarioRow,
    /// The fault-activity split of the run.
    pub resilience_row: ResilienceRow,
    /// Fault windows the plan scripted.
    pub fault_windows: usize,
    /// Fraction of frames with zero IoU.
    pub blind_frame_fraction: f64,
    /// Model/accelerator swaps per 1000 frames.
    pub replans_per_kframe: f64,
    /// All four signals, in [`SignalKind::ALL`] order.
    pub signals: [FailureSignal; 4],
}

impl CaseEvaluation {
    /// The scored signal of one kind.
    pub fn signal(&self, kind: SignalKind) -> FailureSignal {
        self.signals[SignalKind::ALL.iter().position(|&k| k == kind).unwrap()]
    }

    /// The signals that cleared their thresholds, in scoring order.
    pub fn fired(&self) -> Vec<FailureSignal> {
        self.signals.iter().copied().filter(|s| s.fires()).collect()
    }

    /// The coverage signature of one fired signal on `entry`: the signal,
    /// its magnitude bucket and the structural features of the entry. Two
    /// entries with the same signature exercise the same failure mode, so
    /// the corpus keeps only the first.
    pub fn signature(&self, entry: &HuntEntry, signal: FailureSignal) -> String {
        let f = &entry.fault;
        let mut mix = String::new();
        if f.dropouts > 0 && !f.dropout_targets.is_empty() {
            mix.push('d');
        }
        if f.clamps > 0 {
            mix.push('c');
        }
        if f.squeezes > 0 && !f.squeeze_targets.is_empty() {
            mix.push('s');
        }
        if f.glitches > 0 {
            mix.push('g');
        }
        let bucket = (signal.magnitude / signal.kind.bucket_width()).floor() as i64;
        format!(
            "{}|m{}|{}|{}|{}|cuts{}|faults[{}]",
            signal.kind.label(),
            bucket,
            entry.scenario.family,
            entry.scenario.weather,
            entry.scenario.environment,
            usize::from(entry.scenario.cut_bursts.1 > 0),
            mix
        )
    }
}

/// Runs SHIFT over one entry and returns the per-frame records. Generation
/// is pure in the entry and the context's `(characterization, seed)`, so the
/// same `(context kind, context seed, entry)` triple replays bit-for-bit —
/// the contract `tests/regression_corpus.rs` holds the committed corpus to.
///
/// # Errors
///
/// Propagates runtime construction and execution failures.
pub fn entry_records(
    ctx: &ExperimentContext,
    entry: &HuntEntry,
) -> Result<Vec<FrameRecord>, ExperimentError> {
    let scenario =
        ScenarioGenerator::new(entry.scenario_seed).generate(&entry.scenario, entry.replica);
    let plan = FaultPlan::generate(entry.fault_seed, &entry.fault);
    let config = paper_shift_config().with_accuracy_goal(entry.scenario.accuracy_goal);
    let mut runtime = FleetBuilder::new(ctx.engine(), ctx.characterization())
        .fault_plan(plan)
        .build_solo(config)?;
    let outcomes = runtime.run(scenario.stream())?;
    Ok(outcomes.iter().map(outcome_to_record).collect())
}

/// Evaluates one entry: runs SHIFT and reduces the records to the breakdown
/// and resilience rows the four failure signals are scored from.
///
/// # Errors
///
/// Propagates run failures.
pub fn evaluate_entry(
    ctx: &ExperimentContext,
    entry: &HuntEntry,
) -> Result<CaseEvaluation, ExperimentError> {
    let records = entry_records(ctx, entry)?;
    let scenario_name = format!(
        "{}-s{}-r{}",
        entry.scenario.name, entry.scenario_seed, entry.replica
    );
    let plan = FaultPlan::generate(entry.fault_seed, &entry.fault);
    let fault_flags: Vec<bool> = (0..records.len())
        .map(|frame| plan.active_at(frame as u64))
        .collect();
    let recovery_edges: Vec<usize> = plan
        .recovery_frames()
        .into_iter()
        .filter(|&edge| (edge as usize) < records.len())
        .map(|edge| edge as usize)
        .collect();
    let goal = entry.scenario.accuracy_goal;
    let scenario_row = ScenarioRow::from_records(
        scenario_name.clone(),
        entry.scenario.name.clone(),
        entry.scenario.difficulty.label(),
        entry.scenario.environment.to_string(),
        "SHIFT",
        goal,
        &records,
    );
    let resilience_row = ResilienceRow::from_records(
        "hunt",
        scenario_name,
        "SHIFT",
        goal,
        &records,
        &fault_flags,
        &recovery_edges,
    );
    let frames = records.len();
    let blind = records.iter().filter(|r| r.iou == 0.0).count();
    let blind_frame_fraction = if frames == 0 {
        0.0
    } else {
        blind as f64 / frames as f64
    };
    let replans_per_kframe = if frames == 0 {
        0.0
    } else {
        scenario_row.model_swaps as f64 * 1000.0 / frames as f64
    };
    // A handful of fault frames cannot support a success-drop verdict; the
    // signal only scores runs where the windows genuinely overlapped.
    let fault_drop = if resilience_row.fault_frames < 8 {
        0.0
    } else {
        resilience_row.success_outside_fault - resilience_row.success_in_fault
    };
    let signals = [
        FailureSignal {
            kind: SignalKind::GoalGap,
            magnitude: goal - scenario_row.mean_iou,
        },
        FailureSignal {
            kind: SignalKind::ReplanRate,
            magnitude: replans_per_kframe,
        },
        FailureSignal {
            kind: SignalKind::BlindFrames,
            magnitude: blind_frame_fraction,
        },
        FailureSignal {
            kind: SignalKind::FaultDrop,
            magnitude: fault_drop,
        },
    ];
    Ok(CaseEvaluation {
        fault_windows: plan.len(),
        scenario_row,
        resilience_row,
        blind_frame_fraction,
        replans_per_kframe,
        signals,
    })
}

/// Seeded mutation engine. Mutants are a pure function of
/// `(mutator seed, round, slot, parent)` — no internal state — so the hunt
/// loop derives identical mutants at any `--jobs` count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mutator {
    seed: u64,
}

impl Mutator {
    /// Creates a mutator with the given seed.
    pub fn new(seed: u64) -> Self {
        Self { seed }
    }

    /// Derives mutant `(round, slot)` of `parent`. Applies one to three
    /// mutation operators; every scenario change goes through the clamping
    /// `with_*` builders and the fault horizon is re-normalized to the
    /// scenario length, so the mutant keeps every generator invariant.
    pub fn mutate(
        &self,
        parent: &HuntEntry,
        round: u64,
        slot: u64,
        max_frames: usize,
    ) -> HuntEntry {
        let mut h = self
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(round.wrapping_mul(0xBF58_476D_1CE4_E5B9))
            .wrapping_add(slot.wrapping_mul(0x94D0_49BB_1331_11EB));
        h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        let mut rng = StdRng::seed_from_u64(h ^ (h >> 31));
        let mut entry = parent.clone();
        let ops = 1 + rng.gen_range(0..3usize);
        for _ in 0..ops {
            self.apply_op(&mut rng, &mut entry, max_frames);
        }
        // Pin the fault horizon to the scenario length so windows always
        // overlap the run, and re-derive the window sizing for it.
        let horizon = entry.scenario.frames.1 as u64;
        let (min_window, max_window) = FaultSpec::window_bounds(horizon);
        entry.fault.horizon_frames = horizon;
        entry.fault.min_window_frames = min_window;
        entry.fault.max_window_frames = max_window;
        entry
    }

    fn apply_op(&self, rng: &mut StdRng, entry: &mut HuntEntry, max_frames: usize) {
        let max_frames = max_frames.max(30);
        let spec = entry.scenario.clone();
        match rng.gen_range(0..14u32) {
            0 => {
                let frames = 30 + rng.gen_range(0..(max_frames - 30 + 1));
                entry.scenario = spec.with_frames(frames, frames);
            }
            1 => {
                let lo = 1 + rng.gen_range(0..4usize);
                let hi = lo + rng.gen_range(0..5usize);
                entry.scenario = spec.with_segments(lo, hi);
            }
            2 => {
                let lo = rng.gen_range(0.0..0.8);
                entry.scenario = spec.with_clutter(lo, lo + rng.gen_range(0.0..0.3));
            }
            3 => {
                let lo = rng.gen_range(0.0..0.8);
                entry.scenario = spec.with_distance(lo, lo + rng.gen_range(0.0..0.3));
            }
            4 => {
                let n = rng.gen_range(0..6usize);
                entry.scenario = spec.with_occlusions(n.saturating_sub(2), n);
            }
            5 => {
                let n = rng.gen_range(0..5usize);
                entry.scenario = spec.with_absences(n.saturating_sub(2), n);
            }
            6 => {
                let n = rng.gen_range(0..5usize);
                entry.scenario = spec.with_cut_bursts(n.saturating_sub(2), n);
            }
            7 => {
                entry.scenario = spec.with_accuracy_goal(rng.gen_range(0.05..0.38));
            }
            8 => {
                // Redraw the workload class wholesale (difficulty-derived
                // ranges), keeping the name and re-pinning the length.
                let classes = ScenarioLibrary::standard();
                let class = &classes.specs()[rng.gen_range(0..classes.len())];
                let frames = spec.frames;
                entry.scenario = ScenarioSpec {
                    name: spec.name,
                    frames,
                    ..class.clone()
                };
            }
            9 => {
                entry.fault.dropouts = rng.gen_range(0..4usize);
                entry.fault.dropout_targets = subset(rng, &DROPOUT_POOL);
            }
            10 => {
                entry.fault.clamps = rng.gen_range(0..4usize);
                entry.fault.clamp_mode = PowerMode::ALL[rng.gen_range(0..PowerMode::ALL.len())];
            }
            11 => {
                entry.fault.squeezes = rng.gen_range(0..4usize);
                entry.fault.squeeze_targets = subset(rng, &SQUEEZE_POOL);
                entry.fault.squeeze_fraction = rng.gen_range(0.0..0.9);
            }
            12 => {
                entry.fault.glitches = rng.gen_range(0..3usize);
            }
            _ => match rng.gen_range(0..3u32) {
                0 => entry.scenario_seed = rng.gen_range(0..100_000u64),
                1 => entry.replica = rng.gen_range(0..8u64),
                _ => entry.fault_seed = rng.gen_range(0..100_000u64),
            },
        }
    }
}

/// Draws a (possibly empty) subset of `pool`, preserving pool order.
fn subset(rng: &mut StdRng, pool: &[AcceleratorId]) -> Vec<AcceleratorId> {
    let mask = rng.gen_range(0..(1u32 << pool.len()));
    pool.iter()
        .enumerate()
        .filter(|(i, _)| mask & (1 << i) != 0)
        .map(|(_, &a)| a)
        .collect()
}

/// The single-shrink candidates of an entry, cheapest reductions first.
/// Every candidate's [`entry_size`] is at most the entry's own (strictly
/// smaller for all but the clutter relaxation), so greedy acceptance always
/// terminates.
pub fn shrink_candidates(entry: &HuntEntry) -> Vec<HuntEntry> {
    let mut out = Vec::new();
    let s = &entry.scenario;
    let f = &entry.fault;
    // Fewer frames: cut a third, floor at the generator's 30-frame minimum,
    // and tighten the horizon with it.
    let shorter = ((s.frames.1 * 2) / 3).max(30);
    if shorter < s.frames.1 {
        let mut candidate = entry.clone();
        candidate.scenario = s.clone().with_frames(s.frames.0.min(shorter), shorter);
        retighten_horizon(&mut candidate);
        out.push(candidate);
    }
    if s.segments.1 > 1 {
        let mut candidate = entry.clone();
        candidate.scenario = s.clone().with_segments(1, s.segments.1 - 1);
        out.push(candidate);
    }
    if s.occlusions.1 > 0 {
        let mut candidate = entry.clone();
        candidate.scenario = s.clone().with_occlusions(0, s.occlusions.1 - 1);
        out.push(candidate);
    }
    if s.absences.1 > 0 {
        let mut candidate = entry.clone();
        candidate.scenario = s.clone().with_absences(0, s.absences.1 - 1);
        out.push(candidate);
    }
    if s.cut_bursts.1 > 0 {
        let mut candidate = entry.clone();
        candidate.scenario = s.clone().with_cut_bursts(0, s.cut_bursts.1 - 1);
        out.push(candidate);
    }
    // Relaxed clutter: halve the band (size-neutral, bounded below).
    if s.clutter.1 > 0.1 {
        let mut candidate = entry.clone();
        candidate.scenario = s.clone().with_clutter(s.clutter.0 * 0.5, s.clutter.1 * 0.5);
        out.push(candidate);
    }
    if f.dropouts > 0 {
        let mut candidate = entry.clone();
        candidate.fault.dropouts = f.dropouts - 1;
        out.push(candidate);
    }
    if !f.dropout_targets.is_empty() {
        let mut candidate = entry.clone();
        candidate.fault.dropout_targets.pop();
        out.push(candidate);
    }
    if f.clamps > 0 {
        let mut candidate = entry.clone();
        candidate.fault.clamps = f.clamps - 1;
        out.push(candidate);
    }
    if f.squeezes > 0 {
        let mut candidate = entry.clone();
        candidate.fault.squeezes = f.squeezes - 1;
        out.push(candidate);
    }
    if !f.squeeze_targets.is_empty() {
        let mut candidate = entry.clone();
        candidate.fault.squeeze_targets.pop();
        out.push(candidate);
    }
    if f.glitches > 0 {
        let mut candidate = entry.clone();
        candidate.fault.glitches = f.glitches - 1;
        out.push(candidate);
    }
    // A horizon hanging past the scenario only scripts unreachable windows.
    if f.horizon_frames > s.frames.1 as u64 {
        let mut candidate = entry.clone();
        retighten_horizon(&mut candidate);
        out.push(candidate);
    }
    out
}

/// Pins the fault horizon to the scenario length and re-derives the window
/// sizing (the same normalization the mutator applies).
fn retighten_horizon(entry: &mut HuntEntry) {
    let horizon = entry.scenario.frames.1 as u64;
    let (min_window, max_window) = FaultSpec::window_bounds(horizon);
    entry.fault.horizon_frames = horizon;
    entry.fault.min_window_frames = min_window;
    entry.fault.max_window_frames = max_window;
}

/// One minimized finding: the shrunk entry, its evaluation and how far the
/// minimizer got.
#[derive(Debug, Clone, PartialEq)]
pub struct MinimizedFinding {
    /// The entry after shrinking.
    pub entry: HuntEntry,
    /// The evaluation of the shrunk entry (the signal still fires).
    pub evaluation: CaseEvaluation,
    /// The signal being preserved.
    pub kind: SignalKind,
    /// [`entry_size`] of the entry as found.
    pub original_size: u64,
    /// Accepted shrink steps.
    pub shrink_steps: usize,
}

/// Greedily minimizes `entry` while `kind` keeps firing: at each step the
/// first shrink candidate whose run still trips the signal is accepted; the
/// loop stops when no candidate survives. The accepted chain's
/// [`entry_size`] never increases (locked by `tests/property_mutator.rs`).
///
/// # Errors
///
/// Propagates run failures; returns the entry unshrunk when the signal does
/// not fire on it to begin with.
pub fn minimize(
    ctx: &ExperimentContext,
    entry: &HuntEntry,
    kind: SignalKind,
) -> Result<MinimizedFinding, ExperimentError> {
    let original_size = entry_size(entry);
    let mut current = entry.clone();
    let mut evaluation = evaluate_entry(ctx, &current)?;
    let mut shrink_steps = 0;
    if evaluation.signal(kind).fires() {
        'shrinking: loop {
            for candidate in shrink_candidates(&current) {
                let candidate_eval = evaluate_entry(ctx, &candidate)?;
                if candidate_eval.signal(kind).fires() {
                    current = candidate;
                    evaluation = candidate_eval;
                    shrink_steps += 1;
                    continue 'shrinking;
                }
            }
            break;
        }
    }
    Ok(MinimizedFinding {
        entry: current,
        evaluation,
        kind,
        original_size,
        shrink_steps,
    })
}

/// Which [`ExperimentContext`] flavour a corpus case was found (and must be
/// replayed) under — the characterization differs between them, so the
/// context kind and seed are part of the replay triple.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ContextKind {
    /// [`ExperimentContext::quick`].
    Quick,
    /// [`ExperimentContext::new`] (full fidelity).
    Full,
}

impl ContextKind {
    /// The flavour of an existing context (the repo-wide
    /// `scale < 1.0 => quick` convention).
    pub fn of(ctx: &ExperimentContext) -> Self {
        if ctx.scale() < 1.0 {
            ContextKind::Quick
        } else {
            ContextKind::Full
        }
    }

    /// Stable label.
    pub fn label(&self) -> &'static str {
        match self {
            ContextKind::Quick => "quick",
            ContextKind::Full => "full",
        }
    }

    /// Rebuilds the context flavour with `seed`.
    pub fn build(&self, seed: u64) -> ExperimentContext {
        match self {
            ContextKind::Quick => ExperimentContext::quick(seed),
            ContextKind::Full => ExperimentContext::new(seed),
        }
    }
}

impl std::fmt::Display for ContextKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.label())
    }
}

impl std::str::FromStr for ContextKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "quick" => Ok(ContextKind::Quick),
            "full" => Ok(ContextKind::Full),
            other => Err(format!("unknown context kind {other:?}")),
        }
    }
}

/// One committed regression case: a minimized [`HuntEntry`], the signal it
/// must keep tripping and the context it replays under. Serializes to the
/// declarative text format committed under `tests/corpus/`.
#[derive(Debug, Clone, PartialEq)]
pub struct CorpusCase {
    /// The minimized entry.
    pub entry: HuntEntry,
    /// The signal the case locks.
    pub signal: SignalKind,
    /// The exact magnitude measured when the case was committed. Replay is
    /// bit-for-bit, so the regression test asserts equality, not just
    /// threshold clearance.
    pub magnitude: f64,
    /// The context flavour the case replays under.
    pub context: ContextKind,
    /// The context seed.
    pub context_seed: u64,
}

impl CorpusCase {
    /// Encodes the case as stable `key = value` lines: the case metadata,
    /// then the scenario and fault specs with `scenario.` / `fault.` key
    /// prefixes (each spec's own codec, line by line).
    pub fn encode(&self) -> String {
        let mut out = String::from("# shift hunt corpus case\n");
        out.push_str(&format!("signal = {}\n", self.signal.label()));
        out.push_str(&format!("threshold = {}\n", self.signal.threshold()));
        out.push_str(&format!("magnitude = {}\n", self.magnitude));
        out.push_str(&format!("context = {}\n", self.context.label()));
        out.push_str(&format!("context_seed = {}\n", self.context_seed));
        out.push_str(&format!("scenario_seed = {}\n", self.entry.scenario_seed));
        out.push_str(&format!("replica = {}\n", self.entry.replica));
        out.push_str(&format!("fault_seed = {}\n", self.entry.fault_seed));
        for line in self.entry.scenario.encode().lines() {
            out.push_str("scenario.");
            out.push_str(line);
            out.push('\n');
        }
        for line in self.entry.fault.encode().lines() {
            out.push_str("fault.");
            out.push_str(line);
            out.push('\n');
        }
        out
    }

    /// Decodes a case from the [`encode`](Self::encode) format.
    ///
    /// # Errors
    ///
    /// Reports the offending key on unknown/duplicate/missing keys and
    /// malformed values.
    pub fn decode(text: &str) -> Result<Self, String> {
        let mut signal: Option<SignalKind> = None;
        let mut threshold: Option<f64> = None;
        let mut magnitude: Option<f64> = None;
        let mut context: Option<ContextKind> = None;
        let mut context_seed: Option<u64> = None;
        let mut scenario_seed: Option<u64> = None;
        let mut replica: Option<u64> = None;
        let mut fault_seed: Option<u64> = None;
        let mut scenario_text = String::new();
        let mut fault_text = String::new();
        for (key, value) in decode_lines(text)? {
            if let Some(inner) = key.strip_prefix("scenario.") {
                scenario_text.push_str(&format!("{inner} = {value}\n"));
            } else if let Some(inner) = key.strip_prefix("fault.") {
                fault_text.push_str(&format!("{inner} = {value}\n"));
            } else {
                match key {
                    "signal" => set_field(&mut signal, key, value.parse())?,
                    "threshold" => set_field(
                        &mut threshold,
                        key,
                        value.parse().map_err(|e| format!("{e}")),
                    )?,
                    "magnitude" => set_field(
                        &mut magnitude,
                        key,
                        value.parse().map_err(|e| format!("{e}")),
                    )?,
                    "context" => set_field(&mut context, key, value.parse())?,
                    "context_seed" => set_field(
                        &mut context_seed,
                        key,
                        value.parse().map_err(|e| format!("{e}")),
                    )?,
                    "scenario_seed" => set_field(
                        &mut scenario_seed,
                        key,
                        value.parse().map_err(|e| format!("{e}")),
                    )?,
                    "replica" => {
                        set_field(&mut replica, key, value.parse().map_err(|e| format!("{e}")))?
                    }
                    "fault_seed" => set_field(
                        &mut fault_seed,
                        key,
                        value.parse().map_err(|e| format!("{e}")),
                    )?,
                    other => return Err(format!("unknown corpus case key {other:?}")),
                }
            }
        }
        let signal = require_field(signal, "signal")?;
        let threshold = require_field(threshold, "threshold")?;
        if threshold != signal.threshold() {
            return Err(format!(
                "case threshold {threshold} disagrees with the {} signal's {}",
                signal.label(),
                signal.threshold()
            ));
        }
        Ok(Self {
            entry: HuntEntry {
                scenario: ScenarioSpec::decode(&scenario_text)?,
                fault: FaultSpec::decode(&fault_text)?,
                scenario_seed: require_field(scenario_seed, "scenario_seed")?,
                replica: require_field(replica, "replica")?,
                fault_seed: require_field(fault_seed, "fault_seed")?,
            },
            signal,
            magnitude: require_field(magnitude, "magnitude")?,
            context: require_field(context, "context")?,
            context_seed: require_field(context_seed, "context_seed")?,
        })
    }
}

/// The hunt population: entries plus the coverage signatures already seen.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Corpus {
    entries: Vec<HuntEntry>,
    seen: BTreeSet<String>,
}

impl Corpus {
    /// Seeds the corpus: every standard workload class pinned to
    /// `max_frames` frames, crossed round-robin with the standard fault
    /// presets. A pure function of `(ctx seed, max_frames)`.
    pub fn seed(ctx: &ExperimentContext, max_frames: usize) -> Self {
        let frames = max_frames.max(30);
        let horizon = frames as u64;
        let presets: [fn(u64) -> FaultSpec; 5] = [
            FaultSpec::none,
            FaultSpec::dropout_storm,
            FaultSpec::mixed,
            FaultSpec::thermal_brownout,
            FaultSpec::memory_crunch,
        ];
        let entries = ScenarioLibrary::standard()
            .specs()
            .iter()
            .enumerate()
            .map(|(index, spec)| HuntEntry {
                scenario: spec.clone().with_frames(frames, frames),
                fault: presets[index % presets.len()](horizon),
                scenario_seed: ctx.seed(),
                replica: index as u64,
                fault_seed: ctx.seed().wrapping_add(index as u64),
            })
            .collect();
        Self {
            entries,
            seen: BTreeSet::new(),
        }
    }

    /// The population, oldest first.
    pub fn entries(&self) -> &[HuntEntry] {
        &self.entries
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the corpus is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Records a signature; returns whether it extended coverage.
    pub fn extend_coverage(&mut self, signature: String) -> bool {
        self.seen.insert(signature)
    }

    /// Adds an entry to the population.
    pub fn push(&mut self, entry: HuntEntry) {
        self.entries.push(entry);
    }

    /// The coverage signatures seen so far.
    pub fn signatures(&self) -> impl Iterator<Item = &str> {
        self.seen.iter().map(|s| s.as_str())
    }
}

/// Hunt sizing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HuntOptions {
    /// Mutant evaluations the hunt loop may spend (minimization is on top).
    pub budget: usize,
    /// Mutants per round (fanned out on the executor).
    pub pool: usize,
    /// Frame cap the mutator pins scenario lengths under.
    pub max_frames: usize,
    /// Stop the loop after this many findings.
    pub max_findings: usize,
}

impl HuntOptions {
    /// Full hunt: a few hundred evaluations over mid-length scenarios.
    pub fn full() -> Self {
        Self {
            budget: 96,
            pool: 16,
            max_frames: 240,
            max_findings: 12,
        }
    }

    /// Reduced CI hunt: a few dozen short evaluations.
    pub fn smoke() -> Self {
        Self {
            budget: 24,
            pool: 8,
            max_frames: 80,
            max_findings: 6,
        }
    }

    /// Overrides the evaluation budget (the `--budget N` flag).
    pub fn with_budget(mut self, budget: usize) -> Self {
        self.budget = budget.max(1);
        self
    }
}

/// The outcome of one hunt: the findings report, the corpus cases ready to
/// commit, and the loop accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct HuntOutcome {
    /// One row per minimized finding, in discovery order.
    pub report: HuntReport,
    /// The same findings as committable corpus cases.
    pub cases: Vec<CorpusCase>,
    /// Mutant evaluations spent by the loop (excluding minimization).
    pub evaluations: usize,
    /// Rounds the loop ran.
    pub rounds: usize,
}

/// Runs the coverage-guided hunt. Each round derives one mutant per pool
/// slot (pure in `(seed, round, slot, parent)`), evaluates the pool on the
/// deterministic executor, and folds the results serially in slot order:
/// every fired signal whose coverage signature is new turns its mutant into
/// a finding *and* a fresh corpus parent. Findings are then greedily
/// minimized (fanned out per finding) and reduced to [`HuntRow`]s, so the
/// whole outcome is byte-identical for any `--jobs` count.
///
/// # Errors
///
/// Propagates the first (lowest-indexed) run failure.
pub fn hunt(
    ctx: &ExperimentContext,
    options: &HuntOptions,
) -> Result<HuntOutcome, ExperimentError> {
    let mutator = Mutator::new(ctx.seed());
    let mut corpus = Corpus::seed(ctx, options.max_frames);
    let mut findings: Vec<(HuntEntry, SignalKind)> = Vec::new();
    let mut evaluations = 0;
    let mut rounds = 0;
    while evaluations < options.budget && findings.len() < options.max_findings {
        let pool = options.pool.min(options.budget - evaluations).max(1);
        let mutants: Vec<HuntEntry> = (0..pool)
            .map(|slot| {
                let parent = &corpus.entries()[(rounds * options.pool + slot) % corpus.len()];
                mutator.mutate(parent, rounds as u64, slot as u64, options.max_frames)
            })
            .collect();
        let evaluated = crate::executor::try_run_cells(ctx.jobs(), &mutants, |_, entry| {
            evaluate_entry(ctx, entry)
        })?;
        evaluations += mutants.len();
        for (entry, evaluation) in mutants.iter().zip(evaluated.iter()) {
            for signal in evaluation.fired() {
                let signature = evaluation.signature(entry, signal);
                if corpus.extend_coverage(signature) && findings.len() < options.max_findings {
                    corpus.push(entry.clone());
                    findings.push((entry.clone(), signal.kind));
                }
            }
        }
        rounds += 1;
    }
    let minimized = crate::executor::try_run_cells(ctx.jobs(), &findings, |_, (entry, kind)| {
        minimize(ctx, entry, *kind)
    })?;
    // Distinct entries often shrink into the same failure mode; re-bucket
    // the minimized forms with the hunt's own coverage signature and keep
    // only the first of each, so the committed corpus stays duplicate-free.
    let mut seen_minimized = BTreeSet::new();
    let minimized: Vec<MinimizedFinding> = minimized
        .into_iter()
        .filter(|m| {
            let signature = m
                .evaluation
                .signature(&m.entry, m.evaluation.signal(m.kind));
            seen_minimized.insert(signature)
        })
        .collect();
    let mut report = HuntReport::new();
    let mut cases = Vec::with_capacity(minimized.len());
    let context = ContextKind::of(ctx);
    for (finding, m) in minimized.into_iter().enumerate() {
        let signal = m.evaluation.signal(m.kind);
        let s = &m.entry.scenario;
        report.push(HuntRow {
            finding,
            signal: m.kind.label().to_string(),
            magnitude: signal.magnitude,
            threshold: m.kind.threshold(),
            scenario: s.name.clone(),
            difficulty: s.difficulty.label().to_string(),
            family: s.family.to_string(),
            weather: s.weather.to_string(),
            environment: s.environment.to_string(),
            frames: m.evaluation.scenario_row.frames,
            fault_windows: m.evaluation.fault_windows,
            fault_frames: m.evaluation.resilience_row.fault_frames,
            accuracy_goal: s.accuracy_goal,
            mean_iou: m.evaluation.scenario_row.mean_iou,
            goal_gap: s.accuracy_goal - m.evaluation.scenario_row.mean_iou,
            replans_per_kframe: m.evaluation.replans_per_kframe,
            blind_frame_fraction: m.evaluation.blind_frame_fraction,
            degraded_fault_fraction: m.evaluation.resilience_row.degraded_fault_fraction,
            scenario_seed: m.entry.scenario_seed,
            replica: m.entry.replica,
            fault_seed: m.entry.fault_seed,
            original_size: m.original_size,
            minimized_size: entry_size(&m.entry),
            shrink_steps: m.shrink_steps,
        });
        cases.push(CorpusCase {
            entry: m.entry,
            signal: m.kind,
            magnitude: signal.magnitude,
            context,
            context_seed: ctx.seed(),
        });
    }
    Ok(HuntOutcome {
        report,
        cases,
        evaluations,
        rounds,
    })
}

/// The stable machine-readable summary of the whole artifact: the findings
/// CSV, in discovery order. This is the byte sequence the golden determinism
/// test (and the CI `--jobs 1` vs `--jobs 2` comparison) locks.
///
/// # Errors
///
/// Propagates hunt failures.
pub fn summary_csv(
    ctx: &ExperimentContext,
    options: &HuntOptions,
) -> Result<String, ExperimentError> {
    Ok(hunt(ctx, options)?.report.to_csv())
}

/// The rendered artifact plus the CSV and corpus cases.
#[derive(Debug, Clone, PartialEq)]
pub struct HuntArtifact {
    /// The rendered findings table.
    pub table: Table,
    /// `HUNT_findings.csv` contents.
    pub csv: String,
    /// The minimized findings as committable corpus cases.
    pub cases: Vec<CorpusCase>,
}

/// Runs the hunt, renders the findings table and captures the CSV + cases.
///
/// # Errors
///
/// Propagates hunt failures.
pub fn artifact(
    ctx: &ExperimentContext,
    options: &HuntOptions,
) -> Result<HuntArtifact, ExperimentError> {
    let outcome = hunt(ctx, options)?;
    let mut table = Table::new(
        "Adversarial hunt: minimized SHIFT failure signals",
        &[
            "#",
            "Signal",
            "Magnitude",
            "Thresh",
            "Class",
            "Frames",
            "FaultW",
            "Mean IoU",
            "Size",
            "Steps",
        ],
    );
    for row in outcome.report.rows() {
        table.push_row(vec![
            row.finding.to_string(),
            row.signal.clone(),
            format!("{:.3}", row.magnitude),
            format!("{:.3}", row.threshold),
            row.scenario.clone(),
            row.frames.to_string(),
            row.fault_windows.to_string(),
            format!("{:.3}", row.mean_iou),
            format!("{}->{}", row.original_size, row.minimized_size),
            row.shrink_steps.to_string(),
        ]);
    }
    Ok(HuntArtifact {
        table,
        csv: outcome.report.to_csv(),
        cases: outcome.cases,
    })
}

/// Directory of the committed hunt regression corpus (`tests/corpus/`),
/// resolved relative to this crate so it works from any working directory.
pub fn committed_corpus_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/corpus")
}

/// Loads and decodes every `*.case` file under `dir`, in filename order.
///
/// # Errors
///
/// Reports an unreadable directory, an empty corpus, or the first file that
/// fails to decode.
pub fn load_corpus_cases(dir: &std::path::Path) -> Result<Vec<CorpusCase>, String> {
    let mut paths: Vec<std::path::PathBuf> = std::fs::read_dir(dir)
        .map_err(|err| format!("cannot read {}: {err}", dir.display()))?
        .filter_map(Result::ok)
        .map(|entry| entry.path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "case"))
        .collect();
    paths.sort();
    if paths.is_empty() {
        return Err(format!("no *.case files under {}", dir.display()));
    }
    paths
        .iter()
        .map(|path| {
            let text = std::fs::read_to_string(path)
                .map_err(|err| format!("cannot read {}: {err}", path.display()))?;
            CorpusCase::decode(&text).map_err(|err| format!("{}: {err}", path.display()))
        })
        .collect()
}

/// Converts the hunt corpus into the bench suite's worst-case fleet fixture
/// (`fleet/step_adversarial`): one stream per minimized case, stretched to
/// `frames` so the timed fleet outlives a measurement batch, under the fault
/// plan of the case with the most scripted fault volume, regenerated to span
/// the stretched run. Pure in `(cases, frames)`.
///
/// # Errors
///
/// Rejects an empty case list.
pub fn corpus_bench_fixture(
    cases: &[CorpusCase],
    frames: usize,
) -> Result<shift_bench::suite::AdversarialFixture, String> {
    if cases.is_empty() {
        return Err("cannot build an adversarial fixture from an empty corpus".to_string());
    }
    let specs: Vec<shift_core::StreamSpec> = cases
        .iter()
        .enumerate()
        .map(|(i, case)| {
            let scenario = ScenarioGenerator::new(case.entry.scenario_seed)
                .generate(&case.entry.scenario, case.entry.replica)
                .with_num_frames(frames);
            let config = paper_shift_config().with_accuracy_goal(case.entry.scenario.accuracy_goal);
            shift_core::StreamSpec::new(
                format!("corpus-{i}-{}", case.signal.label()),
                scenario,
                config,
            )
        })
        .collect();
    let windows = |fault: &FaultSpec| {
        (fault.dropouts * fault.dropout_targets.len()
            + fault.clamps
            + fault.squeezes * fault.squeeze_targets.len()
            + fault.glitches) as u64
    };
    let (_, worst) = cases
        .iter()
        .enumerate()
        .max_by_key(|(i, case)| (windows(&case.entry.fault), std::cmp::Reverse(*i)))
        .expect("cases is non-empty");
    // The fleet's fault plan ticks on total frames admitted across streams;
    // re-span the worst case's fault mix over that clock so fault windows
    // keep firing for the whole stretched run instead of dying out after
    // the minimized 30-frame horizon.
    let mut fault = worst.entry.fault.clone();
    fault.horizon_frames = (frames * specs.len()) as u64;
    let (min_window, max_window) = FaultSpec::window_bounds(fault.horizon_frames);
    fault.min_window_frames = min_window;
    fault.max_window_frames = max_window;
    let plan = FaultPlan::generate(worst.entry.fault_seed, &fault);
    Ok(shift_bench::suite::AdversarialFixture { specs, plan })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_corpus_converts_to_a_buildable_bench_fixture() {
        let cases = load_corpus_cases(&committed_corpus_dir()).expect("committed corpus loads");
        assert!(cases.len() >= 3, "corpus holds >= 3 minimized cases");
        let fixture = corpus_bench_fixture(&cases, 40).expect("fixture converts");
        assert_eq!(fixture.specs.len(), cases.len());
        let again = corpus_bench_fixture(&cases, 40).expect("fixture converts");
        assert_eq!(fixture.plan, again.plan, "conversion must be pure");
        assert_ne!(
            fixture.plan,
            FaultPlan::generate(0, &FaultSpec::none(40)),
            "the fixture must script real faults"
        );
        // The bench rebuilds this fleet on exhaustion; a goal no stream can
        // schedule would panic mid-measurement, so buildability is part of
        // the fixture contract.
        let ctx = ExperimentContext::quick(2024);
        FleetBuilder::new(ctx.engine(), ctx.characterization())
            .streams(fixture.specs.iter().cloned())
            .fault_plan(fixture.plan.clone())
            .build()
            .expect("corpus fixture builds a fleet");
        assert!(
            corpus_bench_fixture(&[], 40).is_err(),
            "empty corpus is rejected"
        );
    }

    fn test_entry() -> HuntEntry {
        HuntEntry {
            scenario: ScenarioSpec::scene_cut_burst().with_frames(60, 60),
            fault: FaultSpec::mixed(60),
            scenario_seed: 7,
            replica: 0,
            fault_seed: 11,
        }
    }

    #[test]
    fn signal_labels_round_trip_and_thresholds_are_positive() {
        for kind in SignalKind::ALL {
            assert_eq!(kind.label().parse(), Ok(kind));
            assert!(kind.threshold() > 0.0);
            assert!(kind.bucket_width() > 0.0);
        }
        assert!("melted-gpu".parse::<SignalKind>().is_err());
    }

    #[test]
    fn evaluation_is_pure_and_scores_all_signals() {
        let ctx = ExperimentContext::quick(81);
        let entry = test_entry();
        let a = evaluate_entry(&ctx, &entry).expect("evaluates");
        let b = evaluate_entry(&ctx, &entry).expect("evaluates");
        assert_eq!(a, b, "evaluation must be pure in (ctx, entry)");
        assert_eq!(a.signals.len(), SignalKind::ALL.len());
        for kind in SignalKind::ALL {
            assert_eq!(a.signal(kind).kind, kind);
        }
        assert_eq!(a.scenario_row.frames, 60);
        assert!(a.fault_windows > 0, "the mixed preset scripts faults");
    }

    #[test]
    fn mutants_are_pure_and_keep_the_schedulable_band() {
        let mutator = Mutator::new(5);
        let parent = test_entry();
        for round in 0..6u64 {
            for slot in 0..4u64 {
                let a = mutator.mutate(&parent, round, slot, 90);
                let b = Mutator::new(5).mutate(&parent, round, slot, 90);
                assert_eq!(a, b, "mutation must be pure in (seed, round, slot)");
                assert!((0.05..=0.38).contains(&a.scenario.accuracy_goal));
                assert!(a.scenario.frames.0 >= 30);
                assert!(a.scenario.frames.1 <= 90);
                assert_eq!(a.fault.horizon_frames, a.scenario.frames.1 as u64);
                assert!(a
                    .fault
                    .dropout_targets
                    .iter()
                    .all(|t| DROPOUT_POOL.contains(t)));
            }
        }
        assert_ne!(
            Mutator::new(5).mutate(&parent, 0, 0, 90),
            Mutator::new(6).mutate(&parent, 0, 0, 90),
            "different mutator seeds must explore differently"
        );
    }

    #[test]
    fn shrink_candidates_never_grow_the_size_metric() {
        let mutator = Mutator::new(9);
        let mut entry = test_entry();
        for round in 0..8u64 {
            entry = mutator.mutate(&entry, round, 0, 120);
            let size = entry_size(&entry);
            let candidates = shrink_candidates(&entry);
            assert!(!candidates.is_empty(), "a mutated entry can always shrink");
            for candidate in candidates {
                assert!(
                    entry_size(&candidate) <= size,
                    "shrinking must never grow the entry"
                );
            }
        }
    }

    #[test]
    fn corpus_seeding_covers_every_class_and_dedups_signatures() {
        let ctx = ExperimentContext::quick(82);
        let mut corpus = Corpus::seed(&ctx, 80);
        assert_eq!(corpus.len(), ScenarioLibrary::standard().len());
        for entry in corpus.entries() {
            assert_eq!(entry.scenario.frames, (80, 80));
            assert_eq!(entry.fault.horizon_frames, 80);
        }
        assert!(corpus.extend_coverage("sig-a".to_string()));
        assert!(!corpus.extend_coverage("sig-a".to_string()), "dedup");
        assert_eq!(corpus.signatures().count(), 1);
    }

    #[test]
    fn corpus_case_round_trips_exactly() {
        let case = CorpusCase {
            entry: test_entry(),
            signal: SignalKind::GoalGap,
            magnitude: 0.123456789012345,
            context: ContextKind::Quick,
            context_seed: 2024,
        };
        let text = case.encode();
        let decoded = CorpusCase::decode(&text).expect("decode");
        assert_eq!(decoded, case, "round trip must be exact");
        assert_eq!(decoded.encode(), text, "re-encode must be byte-identical");
    }

    #[test]
    fn corpus_case_decode_rejects_malformed_input() {
        let good = CorpusCase {
            entry: test_entry(),
            signal: SignalKind::BlindFrames,
            magnitude: 0.4,
            context: ContextKind::Full,
            context_seed: 1,
        }
        .encode();
        assert!(CorpusCase::decode(&format!("{good}mystery = 1\n"))
            .unwrap_err()
            .contains("unknown corpus case key"));
        assert!(CorpusCase::decode(&format!("{good}signal = goal-gap\n"))
            .unwrap_err()
            .contains("duplicate key"));
        let missing = good
            .lines()
            .filter(|l| !l.starts_with("context_seed"))
            .collect::<Vec<_>>()
            .join("\n");
        assert!(CorpusCase::decode(&missing)
            .unwrap_err()
            .contains("missing key \"context_seed\""));
        let drifted = good.replace(
            &format!("threshold = {}", SignalKind::BlindFrames.threshold()),
            "threshold = 0.9",
        );
        assert!(CorpusCase::decode(&drifted)
            .unwrap_err()
            .contains("disagrees"));
    }

    #[test]
    fn hunt_is_deterministic_and_respects_the_budget() {
        let ctx = ExperimentContext::quick(83);
        let options = HuntOptions {
            budget: 8,
            pool: 4,
            max_frames: 60,
            max_findings: 3,
        };
        let a = hunt(&ctx, &options).expect("hunt runs");
        let b = hunt(&ctx, &options).expect("hunt runs");
        assert_eq!(a, b, "the hunt must be pure in (ctx, options)");
        assert!(a.evaluations <= options.budget);
        assert!(a.report.len() <= options.max_findings);
        assert_eq!(a.report.len(), a.cases.len());
        for case in &a.cases {
            assert_eq!(case.context, ContextKind::Quick);
            assert_eq!(case.context_seed, 83);
        }
    }
}
