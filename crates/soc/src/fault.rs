//! Deterministic fault injection: scripted platform degradation.
//!
//! The paper's evaluation assumes a healthy SoC — accelerators never drop
//! out, thermal headroom never collapses, memory is never squeezed by a
//! co-tenant. Production platforms degrade, and a scheduler that claims
//! energy-aware accuracy goals should keep meeting them *while* the platform
//! degrades underneath it. This module scripts that degradation with the same
//! bit-for-bit reproducibility contract the scenario generator honours:
//!
//! * a declarative [`FaultSpec`] describes a fault mix (how many accelerator
//!   dropouts, DVFS clamps, memory squeezes and telemetry glitches, over what
//!   horizon, against which targets),
//! * a seeded [`FaultPlan`] is a **pure function of `(seed, spec)`** — a
//!   sorted list of finite [`FaultWindow`]s, non-overlapping per resource,
//!   each with a matching recovery edge,
//! * a [`FaultInjector`] replays the plan against an [`ExecutionEngine`],
//!   applying every fault through the engine's *existing* degradation
//!   surfaces rather than a parallel mechanism:
//!
//! | Fault kind | Engine surface |
//! |---|---|
//! | [`FaultKind::Dropout`] | [`set_accelerator_online`](crate::ExecutionEngine::set_accelerator_online) |
//! | [`FaultKind::DvfsClamp`] | [`set_power_mode`](crate::ExecutionEngine::set_power_mode) (restores the prior mode on recovery) |
//! | [`FaultKind::MemorySqueeze`] | [`set_memory_reservation`](crate::ExecutionEngine::set_memory_reservation) |
//! | [`FaultKind::TelemetryGlitch`] | [`set_telemetry_suspended`](crate::ExecutionEngine::set_telemetry_suspended) |
//!
//! Time is measured in *frames* (the discrete clock every runtime in this
//! workspace already advances), so a plan composes with any scenario: a plan
//! longer than a video simply never reaches its tail windows, and a zero-fault
//! plan leaves the engine untouched — a faulted run with an empty plan is
//! bit-identical to a healthy run, which the property suite locks.
//!
//! ```
//! use shift_soc::{FaultInjector, FaultPlan, FaultSpec};
//!
//! let plan = FaultPlan::generate(7, &FaultSpec::dropout_storm(600));
//! assert_eq!(plan, FaultPlan::generate(7, &FaultSpec::dropout_storm(600)));
//! assert!(plan.windows().iter().all(|w| w.start_frame < w.end_frame));
//! let injector = FaultInjector::new(plan);
//! assert_eq!(injector.active_count(), 0, "nothing applied before frame 0");
//! ```

use crate::accelerator::AcceleratorId;
use crate::dvfs::PowerMode;
use crate::engine::ExecutionEngine;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// One kind of platform fault the injector can script.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum FaultKind {
    /// The accelerator stops accepting work (driver crash, bus reset); its
    /// resident models survive the outage.
    Dropout(AcceleratorId),
    /// A thermal-throttle episode clamps the platform's DVFS state to the
    /// given budget; the previous mode is restored on recovery.
    DvfsClamp(PowerMode),
    /// A co-tenant squeezes the accelerator's memory pool: the given
    /// fraction of its capacity is withheld from new allocations.
    MemorySqueeze(AcceleratorId, f64),
    /// Platform telemetry goes dark: work executes, its samples are lost.
    TelemetryGlitch,
}

impl FaultKind {
    /// The resource a fault occupies. Windows of the plan never overlap per
    /// resource, so at most one fault of a given resource is active at once.
    pub fn resource(&self) -> FaultResource {
        match self {
            FaultKind::Dropout(accelerator) => FaultResource::Accelerator(*accelerator),
            FaultKind::DvfsClamp(_) => FaultResource::Dvfs,
            FaultKind::MemorySqueeze(accelerator, _) => FaultResource::Memory(*accelerator),
            FaultKind::TelemetryGlitch => FaultResource::Telemetry,
        }
    }
}

impl std::fmt::Display for FaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultKind::Dropout(accelerator) => write!(f, "dropout({accelerator})"),
            FaultKind::DvfsClamp(mode) => write!(f, "dvfs-clamp({mode})"),
            FaultKind::MemorySqueeze(accelerator, fraction) => {
                write!(f, "mem-squeeze({accelerator}, {:.0}%)", fraction * 100.0)
            }
            FaultKind::TelemetryGlitch => write!(f, "telemetry-glitch"),
        }
    }
}

/// The resource a [`FaultKind`] occupies (the non-overlap granularity).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum FaultResource {
    /// An accelerator's availability (dropouts).
    Accelerator(AcceleratorId),
    /// An accelerator's memory pool (squeezes).
    Memory(AcceleratorId),
    /// The platform-wide DVFS state (clamps).
    Dvfs,
    /// The platform-wide telemetry path (glitches).
    Telemetry,
}

/// One scripted fault: injected at `start_frame`, recovered at `end_frame`
/// (active over the half-open frame range `[start, end)`).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultWindow {
    /// The fault applied over the window.
    pub kind: FaultKind,
    /// First frame the fault is active on.
    pub start_frame: u64,
    /// The recovery edge: first frame the fault is no longer active on.
    pub end_frame: u64,
}

impl FaultWindow {
    /// Whether the fault is active on `frame`.
    pub fn active_at(&self, frame: u64) -> bool {
        frame >= self.start_frame && frame < self.end_frame
    }
}

/// Declarative description of a fault mix over a frame horizon. Window
/// counts are per target (`dropouts = 2` with two dropout targets scripts
/// four dropout windows).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultSpec {
    /// The frame horizon windows are laid out over; every recovery edge
    /// lands at or before it.
    pub horizon_frames: u64,
    /// Dropout windows per dropout target.
    pub dropouts: usize,
    /// Accelerators eligible for dropouts. The standard specs never include
    /// the OAK-D: the external camera accelerator survives SoC faults, so a
    /// re-planning scheduler always has somewhere to go.
    pub dropout_targets: Vec<AcceleratorId>,
    /// Platform-wide DVFS-clamp windows.
    pub clamps: usize,
    /// The power budget a clamp throttles the platform to.
    pub clamp_mode: PowerMode,
    /// Memory-squeeze windows per squeeze target.
    pub squeezes: usize,
    /// Accelerators eligible for memory squeezes.
    pub squeeze_targets: Vec<AcceleratorId>,
    /// Fraction of a squeezed pool's capacity withheld, clamped to
    /// `[0, 0.9]` so the smallest models always keep a toehold.
    pub squeeze_fraction: f64,
    /// Platform-wide telemetry-glitch windows.
    pub glitches: usize,
    /// Minimum fault-window length, frames.
    pub min_window_frames: u64,
    /// Maximum fault-window length, frames.
    pub max_window_frames: u64,
}

impl FaultSpec {
    /// Default window sizing for a horizon: windows between ~4% and ~15% of
    /// the run, never shorter than 2 frames.
    pub fn window_bounds(horizon_frames: u64) -> (u64, u64) {
        let min = (horizon_frames / 25).max(2);
        let max = (horizon_frames / 7).max(min + 1);
        (min, max)
    }

    /// A spec with no faults at all: the healthy control. Its plan is empty
    /// and reproduces healthy-run outcomes bit-for-bit.
    pub fn none(horizon_frames: u64) -> Self {
        let (min_window_frames, max_window_frames) = Self::window_bounds(horizon_frames);
        Self {
            horizon_frames,
            dropouts: 0,
            dropout_targets: Vec::new(),
            clamps: 0,
            clamp_mode: PowerMode::Mode10W,
            squeezes: 0,
            squeeze_targets: Vec::new(),
            squeeze_fraction: 0.0,
            glitches: 0,
            min_window_frames,
            max_window_frames,
        }
    }

    /// Repeated accelerator dropouts across the GPU and both DLAs.
    pub fn dropout_storm(horizon_frames: u64) -> Self {
        Self {
            dropouts: 2,
            dropout_targets: vec![AcceleratorId::Gpu, AcceleratorId::Dla0, AcceleratorId::Dla1],
            ..Self::none(horizon_frames)
        }
    }

    /// Sustained thermal-throttle episodes: the platform is repeatedly
    /// clamped into its 10 W budget, with telemetry flickering alongside.
    pub fn thermal_brownout(horizon_frames: u64) -> Self {
        Self {
            clamps: 3,
            clamp_mode: PowerMode::Mode10W,
            glitches: 1,
            ..Self::none(horizon_frames)
        }
    }

    /// Memory-capacity squeezes on the GPU and DLA0 pools.
    pub fn memory_crunch(horizon_frames: u64) -> Self {
        Self {
            squeezes: 2,
            squeeze_targets: vec![AcceleratorId::Gpu, AcceleratorId::Dla0],
            squeeze_fraction: 0.75,
            ..Self::none(horizon_frames)
        }
    }

    /// A bit of everything: dropouts, clamps, squeezes and glitches in one
    /// plan.
    pub fn mixed(horizon_frames: u64) -> Self {
        Self {
            dropouts: 1,
            dropout_targets: vec![AcceleratorId::Gpu, AcceleratorId::Dla0],
            clamps: 1,
            clamp_mode: PowerMode::Mode10W,
            squeezes: 1,
            squeeze_targets: vec![AcceleratorId::Gpu],
            squeeze_fraction: 0.7,
            glitches: 1,
            ..Self::none(horizon_frames)
        }
    }

    /// Encodes the spec as stable `key = value` lines.
    ///
    /// The vendored serde derives are no-ops, so this hand-rolled format is
    /// what lets fault mixes be committed to disk (the `tests/corpus/`
    /// regression cases). Target lists are space-separated accelerator
    /// labels; floats use Rust's shortest round-trip formatting, so
    /// [`decode`](Self::decode) reconstructs the spec bit-for-bit.
    pub fn encode(&self) -> String {
        let targets = |list: &[AcceleratorId]| {
            list.iter()
                .map(|a| a.to_string())
                .collect::<Vec<_>>()
                .join(" ")
        };
        let mut out = String::new();
        let mut push = |key: &str, value: String| {
            out.push_str(key);
            out.push_str(" = ");
            out.push_str(&value);
            out.push('\n');
        };
        push("horizon_frames", self.horizon_frames.to_string());
        push("dropouts", self.dropouts.to_string());
        push("dropout_targets", targets(&self.dropout_targets));
        push("clamps", self.clamps.to_string());
        push("clamp_mode", self.clamp_mode.to_string());
        push("squeezes", self.squeezes.to_string());
        push("squeeze_targets", targets(&self.squeeze_targets));
        push("squeeze_fraction", format!("{}", self.squeeze_fraction));
        push("glitches", self.glitches.to_string());
        push("min_window_frames", self.min_window_frames.to_string());
        push("max_window_frames", self.max_window_frames.to_string());
        out
    }

    /// Decodes a spec from the [`encode`](Self::encode) format.
    ///
    /// Blank lines and `#` comment lines are ignored; every spec key must
    /// appear exactly once. Values are taken verbatim (no clamping), so the
    /// round trip is exact.
    pub fn decode(text: &str) -> Result<Self, String> {
        let mut horizon_frames: Option<u64> = None;
        let mut dropouts: Option<usize> = None;
        let mut dropout_targets: Option<Vec<AcceleratorId>> = None;
        let mut clamps: Option<usize> = None;
        let mut clamp_mode: Option<PowerMode> = None;
        let mut squeezes: Option<usize> = None;
        let mut squeeze_targets: Option<Vec<AcceleratorId>> = None;
        let mut squeeze_fraction: Option<f64> = None;
        let mut glitches: Option<usize> = None;
        let mut min_window_frames: Option<u64> = None;
        let mut max_window_frames: Option<u64> = None;
        for (number, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (key, value) = line.split_once('=').ok_or_else(|| {
                format!("line {}: expected `key = value`, got {raw:?}", number + 1)
            })?;
            let (key, value) = (key.trim(), value.trim());
            match key {
                "horizon_frames" => set(&mut horizon_frames, key, parse(value))?,
                "dropouts" => set(&mut dropouts, key, parse(value))?,
                "dropout_targets" => set(&mut dropout_targets, key, parse_targets(value))?,
                "clamps" => set(&mut clamps, key, parse(value))?,
                "clamp_mode" => set(&mut clamp_mode, key, value.parse())?,
                "squeezes" => set(&mut squeezes, key, parse(value))?,
                "squeeze_targets" => set(&mut squeeze_targets, key, parse_targets(value))?,
                "squeeze_fraction" => set(&mut squeeze_fraction, key, parse(value))?,
                "glitches" => set(&mut glitches, key, parse(value))?,
                "min_window_frames" => set(&mut min_window_frames, key, parse(value))?,
                "max_window_frames" => set(&mut max_window_frames, key, parse(value))?,
                other => return Err(format!("unknown fault spec key {other:?}")),
            }
        }
        fn require<T>(slot: Option<T>, key: &str) -> Result<T, String> {
            slot.ok_or_else(|| format!("missing key {key:?}"))
        }
        Ok(Self {
            horizon_frames: require(horizon_frames, "horizon_frames")?,
            dropouts: require(dropouts, "dropouts")?,
            dropout_targets: require(dropout_targets, "dropout_targets")?,
            clamps: require(clamps, "clamps")?,
            clamp_mode: require(clamp_mode, "clamp_mode")?,
            squeezes: require(squeezes, "squeezes")?,
            squeeze_targets: require(squeeze_targets, "squeeze_targets")?,
            squeeze_fraction: require(squeeze_fraction, "squeeze_fraction")?,
            glitches: require(glitches, "glitches")?,
            min_window_frames: require(min_window_frames, "min_window_frames")?,
            max_window_frames: require(max_window_frames, "max_window_frames")?,
        })
    }
}

/// Stores a decoded value, rejecting duplicate keys and attaching the key
/// name to parse errors.
fn set<T>(slot: &mut Option<T>, key: &str, value: Result<T, String>) -> Result<(), String> {
    if slot.is_some() {
        return Err(format!("duplicate key {key:?}"));
    }
    *slot = Some(value.map_err(|e| format!("key {key:?}: {e}"))?);
    Ok(())
}

/// Parses any `FromStr` value, stringifying the error.
fn parse<T: std::str::FromStr>(value: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    value.parse().map_err(|e| format!("{e}"))
}

/// Parses a space-separated accelerator-label list (empty value → empty
/// list).
fn parse_targets(value: &str) -> Result<Vec<AcceleratorId>, String> {
    value.split_whitespace().map(|t| t.parse()).collect()
}

/// A fully scripted fault plan: sorted, finite windows, non-overlapping per
/// resource. Pure in `(seed, spec)`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    windows: Vec<FaultWindow>,
    horizon_frames: u64,
}

impl FaultPlan {
    /// Generates the plan for `spec` from `seed`. The same `(seed, spec)`
    /// always yields a byte-identical plan: each `(category, target)` pair
    /// draws from its own sub-generator, so adding a fault category to a spec
    /// never perturbs the windows of another.
    pub fn generate(seed: u64, spec: &FaultSpec) -> Self {
        let mut windows = Vec::new();
        let sub_seed = |salt: u64| {
            seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(salt.wrapping_mul(0xBF58_476D_1CE4_E5B9))
        };
        for (target_index, &accelerator) in spec.dropout_targets.iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(sub_seed(1 + target_index as u64));
            for (start, end) in lay_windows(&mut rng, spec.dropouts, spec) {
                windows.push(FaultWindow {
                    kind: FaultKind::Dropout(accelerator),
                    start_frame: start,
                    end_frame: end,
                });
            }
        }
        let mut rng = StdRng::seed_from_u64(sub_seed(101));
        for (start, end) in lay_windows(&mut rng, spec.clamps, spec) {
            windows.push(FaultWindow {
                kind: FaultKind::DvfsClamp(spec.clamp_mode),
                start_frame: start,
                end_frame: end,
            });
        }
        for (target_index, &accelerator) in spec.squeeze_targets.iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(sub_seed(201 + target_index as u64));
            let fraction = spec.squeeze_fraction.clamp(0.0, 0.9);
            for (start, end) in lay_windows(&mut rng, spec.squeezes, spec) {
                windows.push(FaultWindow {
                    kind: FaultKind::MemorySqueeze(accelerator, fraction),
                    start_frame: start,
                    end_frame: end,
                });
            }
        }
        let mut rng = StdRng::seed_from_u64(sub_seed(301));
        for (start, end) in lay_windows(&mut rng, spec.glitches, spec) {
            windows.push(FaultWindow {
                kind: FaultKind::TelemetryGlitch,
                start_frame: start,
                end_frame: end,
            });
        }
        Self::from_windows(spec.horizon_frames, windows)
    }

    /// Builds a plan from explicit windows (tests and hand-written plans).
    /// Windows are sorted by `(start, resource, end)`.
    ///
    /// # Panics
    ///
    /// Panics when a window is empty (`start >= end`), runs past the
    /// horizon, or overlaps another window of the same resource — the
    /// invariants `generate` guarantees by construction.
    pub fn from_windows(horizon_frames: u64, mut windows: Vec<FaultWindow>) -> Self {
        windows.sort_by_key(|w| (w.start_frame, w.kind.resource(), w.end_frame));
        for (i, window) in windows.iter().enumerate() {
            assert!(
                window.start_frame < window.end_frame,
                "fault window {i} has no recovery edge ({} >= {})",
                window.start_frame,
                window.end_frame
            );
            assert!(
                window.end_frame <= horizon_frames,
                "fault window {i} recovers past the horizon"
            );
            for earlier in &windows[..i] {
                if earlier.kind.resource() == window.kind.resource() {
                    assert!(
                        earlier.end_frame <= window.start_frame
                            || window.end_frame <= earlier.start_frame,
                        "fault windows overlap on {:?}",
                        window.kind.resource()
                    );
                }
            }
        }
        Self {
            windows,
            horizon_frames,
        }
    }

    /// The scripted windows, sorted by `(start, resource, end)`.
    pub fn windows(&self) -> &[FaultWindow] {
        &self.windows
    }

    /// Number of scripted windows.
    pub fn len(&self) -> usize {
        self.windows.len()
    }

    /// Whether the plan scripts no faults at all.
    pub fn is_empty(&self) -> bool {
        self.windows.is_empty()
    }

    /// The frame horizon the plan was laid out over.
    pub fn horizon_frames(&self) -> u64 {
        self.horizon_frames
    }

    /// Whether any fault is active on `frame`.
    pub fn active_at(&self, frame: u64) -> bool {
        self.windows.iter().any(|w| w.active_at(frame))
    }

    /// The sorted, de-duplicated recovery edges (frames on which at least
    /// one fault clears). Used by the resilience metrics to measure recovery
    /// latency.
    pub fn recovery_frames(&self) -> Vec<u64> {
        let mut edges: Vec<u64> = self.windows.iter().map(|w| w.end_frame).collect();
        edges.sort_unstable();
        edges.dedup();
        edges
    }
}

/// Lays out `count` non-overlapping `(start, end)` windows for one resource:
/// the horizon is split into `count` equal slots and each slot receives one
/// window, so non-overlap (and a recovery edge at or before the horizon) is
/// guaranteed by construction.
fn lay_windows(rng: &mut StdRng, count: usize, spec: &FaultSpec) -> Vec<(u64, u64)> {
    let mut out = Vec::with_capacity(count);
    if count == 0 || spec.horizon_frames == 0 {
        return out;
    }
    let slot = spec.horizon_frames / count as u64;
    let min_window = spec.min_window_frames.max(1);
    for k in 0..count as u64 {
        let lo = k * slot;
        let hi = lo + slot;
        if hi - lo <= min_window {
            // The slot is too small to host a window; skip it rather than
            // violate the non-overlap or recovery invariants.
            continue;
        }
        let start = rng.gen_range(lo..hi - min_window);
        let longest = (hi - start).min(spec.max_window_frames.max(min_window));
        let duration = rng.gen_range(min_window..longest + 1);
        out.push((start, start + duration));
    }
    out
}

/// One applied or recovered fault edge, as reported by
/// [`FaultInjector::advance`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultEdge {
    /// The fault the edge belongs to.
    pub kind: FaultKind,
    /// The frame the edge was scripted for.
    pub frame: u64,
    /// `true` for an injection edge, `false` for a recovery edge.
    pub injected: bool,
}

/// Replays a [`FaultPlan`] against an [`ExecutionEngine`], applying and
/// reverting faults as the frame clock advances.
///
/// Drivers call [`advance`](Self::advance) once per frame *before* executing
/// it; the injector applies every edge scheduled at or before that frame
/// (recoveries first, so back-to-back windows on one resource re-arm
/// cleanly). Every fault kind saves the resource's pre-fault state at
/// injection and restores *that* on recovery — a dropout scripted over an
/// accelerator the operator had already fenced off leaves it fenced off, and
/// a squeeze over a pre-existing reservation hands the reservation back.
/// The injector is pure state over `(plan, advance sequence)` — no wall
/// clock, no randomness — so faulted runs stay bit-for-bit reproducible.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultInjector {
    plan: FaultPlan,
    /// Window indices sorted by start frame.
    starts: Vec<usize>,
    /// Window indices sorted by end frame.
    ends: Vec<usize>,
    next_start: usize,
    next_end: usize,
    /// The power mode to restore when the active DVFS clamp recovers.
    saved_mode: Option<PowerMode>,
    /// Pre-fault online state per dropped accelerator.
    saved_online: BTreeMap<AcceleratorId, bool>,
    /// Pre-fault memory reservation per squeezed accelerator, MB.
    saved_reservation_mb: BTreeMap<AcceleratorId, f64>,
    /// Pre-fault telemetry suspension state during a glitch.
    saved_telemetry: Option<bool>,
    active: usize,
}

impl FaultInjector {
    /// Creates an injector positioned before frame 0.
    pub fn new(plan: FaultPlan) -> Self {
        let mut starts: Vec<usize> = (0..plan.windows.len()).collect();
        starts.sort_by_key(|&i| (plan.windows[i].start_frame, i));
        let mut ends: Vec<usize> = (0..plan.windows.len()).collect();
        ends.sort_by_key(|&i| (plan.windows[i].end_frame, i));
        Self {
            plan,
            starts,
            ends,
            next_start: 0,
            next_end: 0,
            saved_mode: None,
            saved_online: BTreeMap::new(),
            saved_reservation_mb: BTreeMap::new(),
            saved_telemetry: None,
            active: 0,
        }
    }

    /// The plan being replayed.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Number of faults currently applied to the engine.
    pub fn active_count(&self) -> usize {
        self.active
    }

    /// Whether at least one fault is currently applied.
    pub fn is_fault_active(&self) -> bool {
        self.active > 0
    }

    /// Whether every scripted edge (injections and recoveries) has been
    /// replayed.
    pub fn is_done(&self) -> bool {
        self.next_start == self.starts.len() && self.next_end == self.ends.len()
    }

    /// Advances the injector to `frame`: reverts every window whose recovery
    /// edge is at or before `frame`, then applies every window whose start is
    /// at or before `frame`. Returns the edges replayed, recoveries first.
    /// Calling `advance` repeatedly with the same frame is idempotent.
    pub fn advance(&mut self, frame: u64, engine: &mut ExecutionEngine) -> Vec<FaultEdge> {
        let mut edges = Vec::new();
        // Recoveries first: a window that ends exactly where the next one on
        // the same resource starts must release the resource before the next
        // injection re-takes it.
        while self.next_end < self.ends.len() {
            let window = self.plan.windows[self.ends[self.next_end]];
            if window.end_frame > frame {
                break;
            }
            // A window that starts and ends at or before this frame in the
            // same `advance` call still applies then recovers, keeping the
            // applied/recovered bookkeeping balanced.
            while self.next_start < self.starts.len() {
                let pending = self.plan.windows[self.starts[self.next_start]];
                if pending.start_frame >= window.end_frame {
                    break;
                }
                self.apply(pending.kind, engine);
                edges.push(FaultEdge {
                    kind: pending.kind,
                    frame: pending.start_frame,
                    injected: true,
                });
                self.next_start += 1;
            }
            self.revert(window.kind, engine);
            edges.push(FaultEdge {
                kind: window.kind,
                frame: window.end_frame,
                injected: false,
            });
            self.next_end += 1;
        }
        while self.next_start < self.starts.len() {
            let window = self.plan.windows[self.starts[self.next_start]];
            if window.start_frame > frame {
                break;
            }
            self.apply(window.kind, engine);
            edges.push(FaultEdge {
                kind: window.kind,
                frame: window.start_frame,
                injected: true,
            });
            self.next_start += 1;
        }
        edges
    }

    fn apply(&mut self, kind: FaultKind, engine: &mut ExecutionEngine) {
        self.active += 1;
        match kind {
            FaultKind::Dropout(accelerator) => {
                // Save the administrative fence specifically — not the
                // composite `is_online`, which also reflects transient
                // thermal trips that must not be frozen into a fence.
                self.saved_online.insert(
                    accelerator,
                    !engine.is_administratively_offline(accelerator),
                );
                engine.set_accelerator_online(accelerator, false);
            }
            FaultKind::DvfsClamp(mode) => {
                self.saved_mode = Some(engine.power_mode());
                engine.set_power_mode(mode);
            }
            FaultKind::MemorySqueeze(accelerator, fraction) => {
                self.saved_reservation_mb
                    .insert(accelerator, engine.memory_reservation(accelerator));
                let reserve = engine
                    .pool(accelerator)
                    .map(|p| p.capacity_mb() * fraction.clamp(0.0, 0.9))
                    .unwrap_or(0.0);
                let _ = engine.set_memory_reservation(accelerator, reserve);
            }
            FaultKind::TelemetryGlitch => {
                self.saved_telemetry = Some(engine.telemetry_suspended());
                engine.set_telemetry_suspended(true);
            }
        }
    }

    fn revert(&mut self, kind: FaultKind, engine: &mut ExecutionEngine) {
        self.active = self.active.saturating_sub(1);
        match kind {
            FaultKind::Dropout(accelerator) => {
                let restore = self.saved_online.remove(&accelerator).unwrap_or(true);
                engine.set_accelerator_online(accelerator, restore);
            }
            FaultKind::DvfsClamp(_) => {
                engine.set_power_mode(self.saved_mode.take().unwrap_or_default());
            }
            FaultKind::MemorySqueeze(accelerator, _) => {
                let restore = self
                    .saved_reservation_mb
                    .remove(&accelerator)
                    .unwrap_or(0.0);
                let _ = engine.set_memory_reservation(accelerator, restore);
            }
            FaultKind::TelemetryGlitch => {
                engine.set_telemetry_suspended(self.saved_telemetry.take().unwrap_or(false));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::Platform;
    use shift_models::{ModelZoo, ResponseModel};

    fn engine() -> ExecutionEngine {
        ExecutionEngine::new(
            Platform::xavier_nx_with_oak(),
            ModelZoo::standard(),
            ResponseModel::new(3),
        )
    }

    #[test]
    fn generation_is_pure_and_replicable() {
        for seed in [0, 1, 7, 2024] {
            let spec = FaultSpec::mixed(500);
            let a = FaultPlan::generate(seed, &spec);
            let b = FaultPlan::generate(seed, &spec);
            assert_eq!(a, b, "same (seed, spec) must replay byte-identically");
            assert!(!a.is_empty());
        }
        assert_ne!(
            FaultPlan::generate(1, &FaultSpec::mixed(500)),
            FaultPlan::generate(2, &FaultSpec::mixed(500)),
            "different seeds must differ"
        );
    }

    #[test]
    fn zero_fault_spec_produces_an_empty_plan() {
        let plan = FaultPlan::generate(9, &FaultSpec::none(1000));
        assert!(plan.is_empty());
        assert_eq!(plan.len(), 0);
        assert!(!plan.active_at(0));
        assert!(plan.recovery_frames().is_empty());
        let mut injector = FaultInjector::new(plan);
        let mut e = engine();
        let reference = e.clone();
        for frame in 0..1000 {
            assert!(injector.advance(frame, &mut e).is_empty());
        }
        assert!(injector.is_done());
        assert_eq!(e.power_mode(), reference.power_mode());
    }

    #[test]
    fn windows_are_sorted_finite_and_disjoint_per_resource() {
        for seed in 0..20u64 {
            for spec in [
                FaultSpec::dropout_storm(400),
                FaultSpec::thermal_brownout(400),
                FaultSpec::memory_crunch(400),
                FaultSpec::mixed(400),
            ] {
                let plan = FaultPlan::generate(seed, &spec);
                let windows = plan.windows();
                for pair in windows.windows(2) {
                    assert!(pair[0].start_frame <= pair[1].start_frame, "sorted");
                }
                for (i, w) in windows.iter().enumerate() {
                    assert!(w.start_frame < w.end_frame, "recovery edge exists");
                    assert!(w.end_frame <= plan.horizon_frames());
                    for other in &windows[i + 1..] {
                        if w.kind.resource() == other.kind.resource() {
                            assert!(
                                w.end_frame <= other.start_frame
                                    || other.end_frame <= w.start_frame,
                                "windows overlap on {:?}",
                                w.kind.resource()
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn injector_applies_and_recovers_a_dropout() {
        let plan = FaultPlan::from_windows(
            100,
            vec![FaultWindow {
                kind: FaultKind::Dropout(AcceleratorId::Gpu),
                start_frame: 10,
                end_frame: 20,
            }],
        );
        let mut injector = FaultInjector::new(plan);
        let mut e = engine();
        assert!(injector.advance(9, &mut e).is_empty());
        assert!(e.is_online(AcceleratorId::Gpu));
        let edges = injector.advance(10, &mut e);
        assert_eq!(edges.len(), 1);
        assert!(edges[0].injected);
        assert!(!e.is_online(AcceleratorId::Gpu));
        assert!(injector.is_fault_active());
        assert!(
            injector.advance(15, &mut e).is_empty(),
            "idempotent mid-window"
        );
        let edges = injector.advance(20, &mut e);
        assert_eq!(edges.len(), 1);
        assert!(!edges[0].injected);
        assert!(e.is_online(AcceleratorId::Gpu));
        assert!(!injector.is_fault_active());
        assert!(injector.is_done());
    }

    #[test]
    fn dvfs_clamp_restores_the_prior_mode() {
        let plan = FaultPlan::from_windows(
            50,
            vec![FaultWindow {
                kind: FaultKind::DvfsClamp(PowerMode::Mode10W),
                start_frame: 5,
                end_frame: 15,
            }],
        );
        let mut injector = FaultInjector::new(plan);
        let mut e = engine();
        e.set_power_mode(PowerMode::Mode20W);
        injector.advance(5, &mut e);
        assert_eq!(e.power_mode(), PowerMode::Mode10W);
        injector.advance(15, &mut e);
        assert_eq!(e.power_mode(), PowerMode::Mode20W, "prior mode restored");
    }

    #[test]
    fn squeeze_and_glitch_apply_through_the_engine_surfaces() {
        let plan = FaultPlan::from_windows(
            40,
            vec![
                FaultWindow {
                    kind: FaultKind::MemorySqueeze(AcceleratorId::Gpu, 0.5),
                    start_frame: 0,
                    end_frame: 10,
                },
                FaultWindow {
                    kind: FaultKind::TelemetryGlitch,
                    start_frame: 0,
                    end_frame: 10,
                },
            ],
        );
        let mut injector = FaultInjector::new(plan);
        let mut e = engine();
        injector.advance(0, &mut e);
        assert_eq!(injector.active_count(), 2);
        assert!(e.memory_reservation(AcceleratorId::Gpu) > 0.0);
        assert!(e.telemetry_suspended());
        injector.advance(10, &mut e);
        assert_eq!(e.memory_reservation(AcceleratorId::Gpu), 0.0);
        assert!(!e.telemetry_suspended());
        assert_eq!(injector.active_count(), 0);
    }

    #[test]
    fn recovery_restores_pre_fault_state_not_defaults() {
        // An operator-fenced accelerator and a pre-existing reservation must
        // survive a scripted fault on the same resources: recovery hands
        // back the state the injector found, not a hardcoded healthy state.
        let plan = FaultPlan::from_windows(
            30,
            vec![
                FaultWindow {
                    kind: FaultKind::Dropout(AcceleratorId::Dla1),
                    start_frame: 5,
                    end_frame: 10,
                },
                FaultWindow {
                    kind: FaultKind::MemorySqueeze(AcceleratorId::Gpu, 0.8),
                    start_frame: 5,
                    end_frame: 10,
                },
            ],
        );
        let mut injector = FaultInjector::new(plan);
        let mut e = engine();
        e.set_accelerator_online(AcceleratorId::Dla1, false);
        e.set_memory_reservation(AcceleratorId::Gpu, 100.0).unwrap();
        injector.advance(5, &mut e);
        assert!(!e.is_online(AcceleratorId::Dla1));
        assert!(e.memory_reservation(AcceleratorId::Gpu) > 100.0);
        injector.advance(10, &mut e);
        assert!(
            !e.is_online(AcceleratorId::Dla1),
            "recovery must not un-fence an operator-fenced accelerator"
        );
        assert_eq!(
            e.memory_reservation(AcceleratorId::Gpu),
            100.0,
            "recovery must hand back the pre-existing reservation"
        );
    }

    #[test]
    fn dropout_recovery_does_not_freeze_a_thermal_trip_into_a_fence() {
        use crate::thermal::{ThermalConfig, ThermalModel};
        // The GPU is thermally tripped (composite is_online == false) but
        // NOT administratively fenced when the dropout lands. Recovery must
        // restore the administrative flag only, so the GPU returns to
        // service by itself once the die cools.
        let mut hot = ThermalModel::new(ThermalConfig::stress_test());
        while !hot.is_tripped(AcceleratorId::Gpu) {
            hot.record_activity(AcceleratorId::Gpu, 16.0, 1.0);
        }
        let mut e = engine();
        e.set_thermal_model(hot.clone());
        assert!(!e.is_online(AcceleratorId::Gpu));
        assert!(!e.is_administratively_offline(AcceleratorId::Gpu));
        let plan = FaultPlan::from_windows(
            20,
            vec![FaultWindow {
                kind: FaultKind::Dropout(AcceleratorId::Gpu),
                start_frame: 0,
                end_frame: 5,
            }],
        );
        let mut injector = FaultInjector::new(plan);
        injector.advance(0, &mut e);
        injector.advance(5, &mut e);
        assert!(
            !e.is_administratively_offline(AcceleratorId::Gpu),
            "recovery must not convert the transient trip into a fence"
        );
        hot.cool(AcceleratorId::Gpu, 1000.0);
        assert!(!hot.is_tripped(AcceleratorId::Gpu), "the die cooled");
        e.set_thermal_model(hot);
        assert!(
            e.is_online(AcceleratorId::Gpu),
            "once cool, the GPU returns to service on its own"
        );
    }

    #[test]
    fn skipping_ahead_replays_every_missed_edge_in_order() {
        let plan = FaultPlan::generate(42, &FaultSpec::mixed(200));
        let expected = plan.len() * 2;
        let mut injector = FaultInjector::new(plan);
        let mut e = engine();
        let reference = e.clone();
        // Jump straight past the horizon: every window applies and recovers.
        let edges = injector.advance(10_000, &mut e);
        assert_eq!(edges.len(), expected);
        assert!(injector.is_done());
        assert_eq!(injector.active_count(), 0);
        // The engine ends the run exactly as it started.
        assert_eq!(e.power_mode(), reference.power_mode());
        assert!(!e.telemetry_suspended());
        for accelerator in AcceleratorId::ALL {
            assert_eq!(e.is_online(accelerator), reference.is_online(accelerator));
            assert_eq!(e.memory_reservation(accelerator), 0.0);
        }
    }

    #[test]
    #[should_panic(expected = "no recovery edge")]
    fn from_windows_rejects_an_empty_window() {
        let _ = FaultPlan::from_windows(
            10,
            vec![FaultWindow {
                kind: FaultKind::TelemetryGlitch,
                start_frame: 5,
                end_frame: 5,
            }],
        );
    }

    #[test]
    #[should_panic(expected = "overlap")]
    fn from_windows_rejects_overlap_on_one_resource() {
        let window = |start, end| FaultWindow {
            kind: FaultKind::Dropout(AcceleratorId::Gpu),
            start_frame: start,
            end_frame: end,
        };
        let _ = FaultPlan::from_windows(100, vec![window(0, 10), window(5, 15)]);
    }

    #[test]
    fn accelerator_and_power_mode_labels_round_trip() {
        for accelerator in AcceleratorId::ALL {
            assert_eq!(accelerator.to_string().parse(), Ok(accelerator));
        }
        for mode in PowerMode::ALL {
            assert_eq!(mode.to_string().parse(), Ok(mode));
        }
        assert!("TPU".parse::<AcceleratorId>().is_err());
        assert!("30W".parse::<PowerMode>().is_err());
    }

    #[test]
    fn fault_spec_encode_decode_round_trips_exactly() {
        let specs = [
            FaultSpec::none(600),
            FaultSpec::dropout_storm(600),
            FaultSpec::thermal_brownout(450),
            FaultSpec::memory_crunch(333),
            FaultSpec::mixed(1200),
            FaultSpec {
                squeeze_fraction: 1.0 / 3.0,
                ..FaultSpec::memory_crunch(777)
            },
        ];
        for spec in specs {
            let text = spec.encode();
            let decoded = FaultSpec::decode(&text).expect("decode");
            assert_eq!(decoded, spec, "round trip must be exact");
            assert_eq!(decoded.encode(), text, "re-encode must be byte-identical");
            // The decoded spec drives generation identically.
            assert_eq!(
                FaultPlan::generate(11, &decoded),
                FaultPlan::generate(11, &spec)
            );
        }
    }

    #[test]
    fn fault_spec_decode_rejects_malformed_input() {
        let good = FaultSpec::mixed(500).encode();
        assert!(FaultSpec::decode("dropouts")
            .unwrap_err()
            .contains("line 1"));
        assert!(FaultSpec::decode(&format!("{good}dropouts = 9\n"))
            .unwrap_err()
            .contains("duplicate key"));
        assert!(FaultSpec::decode(&format!("{good}mystery = 1\n"))
            .unwrap_err()
            .contains("unknown fault spec key"));
        let missing = good
            .lines()
            .filter(|l| !l.starts_with("clamp_mode"))
            .collect::<Vec<_>>()
            .join("\n");
        assert!(FaultSpec::decode(&missing)
            .unwrap_err()
            .contains("missing key \"clamp_mode\""));
        let bad_target = good.replace("dropout_targets = GPU DLA0", "dropout_targets = GPU TPU");
        assert!(FaultSpec::decode(&bad_target)
            .unwrap_err()
            .contains("unknown accelerator"));
        // Comments and blank lines are tolerated.
        assert_eq!(
            FaultSpec::decode(&format!("# fault mix\n\n{good}")),
            Ok(FaultSpec::mixed(500))
        );
    }

    #[test]
    fn display_labels_are_informative() {
        assert_eq!(
            FaultKind::Dropout(AcceleratorId::Gpu).to_string(),
            "dropout(GPU)"
        );
        assert!(FaultKind::MemorySqueeze(AcceleratorId::Dla0, 0.75)
            .to_string()
            .contains("75%"));
        assert!(FaultKind::DvfsClamp(PowerMode::Mode10W)
            .to_string()
            .contains("10W"));
    }
}
