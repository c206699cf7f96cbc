//! Evaluation scenarios.
//!
//! The paper evaluates SHIFT on six videos (two indoor, four outdoor) of
//! 500–2,500 frames each, in which the target UAV appears at varying
//! distances, crosses distinct backgrounds and occasionally leaves the
//! camera's field of view. [`Scenario`] encodes the same structure: a
//! trajectory, a sequence of background segments with their own clutter,
//! contrast and lighting, and explicit occlusion / out-of-view windows.

use crate::bbox::BoundingBox;
use crate::context::FrameContext;
use crate::image::SceneAppearance;
use crate::memo::NccMemo;
use crate::stream::{FrameLabel, FrameStream};
use crate::trajectory::Trajectory;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Whether a scenario was captured indoors or outdoors. Outdoor scenes have
/// stronger lighting variation and longer target distances.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Environment {
    /// Indoor capture: short distances, controlled lighting.
    Indoor,
    /// Outdoor capture: long distances, variable lighting, busy backgrounds.
    Outdoor,
}

impl std::fmt::Display for Environment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Environment::Indoor => write!(f, "indoor"),
            Environment::Outdoor => write!(f, "outdoor"),
        }
    }
}

impl std::str::FromStr for Environment {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "indoor" => Ok(Environment::Indoor),
            "outdoor" => Ok(Environment::Outdoor),
            other => Err(format!("unknown environment {other:?}")),
        }
    }
}

/// One background segment of a scenario: from `start` (fraction of the video)
/// until the next segment begins, the scene uses these appearance parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BackgroundSegment {
    /// Normalized start time of the segment in `[0, 1]`.
    pub start: f64,
    /// Background clutter amplitude in `[0, 1]`.
    pub clutter: f64,
    /// Target/background contrast in `[0, 1]`.
    pub contrast: f64,
    /// Illumination quality in `[0, 1]`.
    pub lighting: f64,
}

impl BackgroundSegment {
    /// Creates a segment with all parameters clamped to `[0, 1]`.
    pub fn new(start: f64, clutter: f64, contrast: f64, lighting: f64) -> Self {
        Self {
            start: start.clamp(0.0, 1.0),
            clutter: clutter.clamp(0.0, 1.0),
            contrast: contrast.clamp(0.0, 1.0),
            lighting: lighting.clamp(0.0, 1.0),
        }
    }
}

/// A normalized time window `[start, end)` with an associated magnitude,
/// used for occlusion and out-of-view intervals.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Window {
    /// Normalized start of the window.
    pub start: f64,
    /// Normalized end of the window.
    pub end: f64,
    /// Magnitude (e.g. occlusion fraction) applied inside the window.
    pub amount: f64,
}

impl Window {
    /// Creates a window; `start`/`end` are clamped and ordered.
    pub fn new(start: f64, end: f64, amount: f64) -> Self {
        let s = start.clamp(0.0, 1.0);
        let e = end.clamp(0.0, 1.0);
        Self {
            start: s.min(e),
            end: s.max(e),
            amount: amount.clamp(0.0, 1.0),
        }
    }

    /// Whether normalized time `t` falls inside the window.
    pub fn contains(&self, t: f64) -> bool {
        t >= self.start && t < self.end
    }
}

/// A complete synthetic evaluation video.
///
/// A frame is a pure function of the scenario and its index, so the
/// whole-frame [`ncc`](crate::ncc()) of frames `i − 1` and `i` is too. Each
/// scenario value holds a memo of those correlations, one 8-byte slot per
/// frame, which all its clones share: the first correlation of a
/// consecutive pair of frames rendered from the value or a clone computes
/// it, and every later one, by any runtime, fleet or cluster that plays a
/// clone, reads it with the same bits.
/// [`ncc_memo_misses`](Self::ncc_memo_misses) counts the computed ones,
/// and [`render_count`](Self::render_count) the frames rendered.
/// Every constructor and every builder call (`with_seed`,
/// `with_num_frames`, `with_frame_size`, `with_camera_shake`) starts a
/// fresh, empty memo with both counts at 0, so a value whose frames could
/// differ never shares one. Equality and `Debug` ignore the memo.
#[derive(Clone, Serialize, Deserialize)]
pub struct Scenario {
    name: String,
    environment: Environment,
    num_frames: usize,
    frame_width: usize,
    frame_height: usize,
    trajectory: Trajectory,
    backgrounds: Vec<BackgroundSegment>,
    occlusions: Vec<Window>,
    absences: Vec<Window>,
    /// Per-frame camera-shake amplitude as a fraction of the frame size.
    /// Outdoor aerial footage shakes noticeably more than indoor captures.
    camera_shake: f64,
    seed: u64,
    /// The whole-frame NCC of each frame with the one before it, shared by
    /// every clone.
    ncc_memo: Arc<NccMemo>,
}

impl PartialEq for Scenario {
    /// Compares every field but the memo, which holds values derived from
    /// the others.
    fn eq(&self, other: &Self) -> bool {
        let Self {
            name,
            environment,
            num_frames,
            frame_width,
            frame_height,
            trajectory,
            backgrounds,
            occlusions,
            absences,
            camera_shake,
            seed,
            ncc_memo: _,
        } = self;
        *name == other.name
            && *environment == other.environment
            && *num_frames == other.num_frames
            && *frame_width == other.frame_width
            && *frame_height == other.frame_height
            && *trajectory == other.trajectory
            && *backgrounds == other.backgrounds
            && *occlusions == other.occlusions
            && *absences == other.absences
            && *camera_shake == other.camera_shake
            && *seed == other.seed
    }
}

impl std::fmt::Debug for Scenario {
    /// Every field but the memo, as a derived `Debug` would print them.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let Self {
            name,
            environment,
            num_frames,
            frame_width,
            frame_height,
            trajectory,
            backgrounds,
            occlusions,
            absences,
            camera_shake,
            seed,
            ncc_memo: _,
        } = self;
        f.debug_struct("Scenario")
            .field("name", name)
            .field("environment", environment)
            .field("num_frames", num_frames)
            .field("frame_width", frame_width)
            .field("frame_height", frame_height)
            .field("trajectory", trajectory)
            .field("backgrounds", backgrounds)
            .field("occlusions", occlusions)
            .field("absences", absences)
            .field("camera_shake", camera_shake)
            .field("seed", seed)
            .finish()
    }
}

/// Default rendered frame edge length. Kept deliberately small (the NCC and
/// renderer are O(pixels) per frame and the experiments process hundreds of
/// thousands of frames).
pub const DEFAULT_FRAME_SIZE: usize = 64;

/// Largest target box edge (in pixels) when the UAV is at distance 0.
pub const MAX_TARGET_FRACTION: f64 = 0.45;
/// Smallest target box edge fraction when the UAV is at distance 1.
pub const MIN_TARGET_FRACTION: f64 = 0.05;

impl Scenario {
    /// Creates a scenario from its parts.
    ///
    /// # Panics
    ///
    /// Panics if `num_frames` is zero or the background list is empty.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        name: impl Into<String>,
        environment: Environment,
        num_frames: usize,
        trajectory: Trajectory,
        backgrounds: Vec<BackgroundSegment>,
        occlusions: Vec<Window>,
        absences: Vec<Window>,
        seed: u64,
    ) -> Self {
        assert!(num_frames > 0, "scenario must contain at least one frame");
        assert!(
            !backgrounds.is_empty(),
            "scenario must define at least one background segment"
        );
        let mut backgrounds = backgrounds;
        backgrounds.sort_by(|a, b| a.start.partial_cmp(&b.start).expect("finite start"));
        let camera_shake = match environment {
            Environment::Indoor => 0.010,
            Environment::Outdoor => 0.030,
        };
        Self {
            name: name.into(),
            environment,
            num_frames,
            frame_width: DEFAULT_FRAME_SIZE,
            frame_height: DEFAULT_FRAME_SIZE,
            trajectory,
            backgrounds,
            occlusions,
            absences,
            camera_shake,
            seed,
            ncc_memo: NccMemo::new(num_frames),
        }
    }

    /// This value with a fresh, empty NCC memo: what every builder returns,
    /// since it may have changed the frames.
    fn with_fresh_memo(mut self) -> Self {
        self.ncc_memo = NccMemo::new(self.num_frames);
        self
    }

    /// The memo every frame rendered from this value is tagged with.
    pub(crate) fn ncc_memo(&self) -> &Arc<NccMemo> {
        &self.ncc_memo
    }

    /// How many whole-frame correlations of two consecutive frames of this
    /// scenario value, or of any clone of it, found its NCC memo empty and
    /// were computed rather than read from it. Every clone shares the memo
    /// and this count, so over a single-threaded run it is the number of
    /// distinct consecutive pairs correlated; two threads that race on one
    /// pair may both compute it. A correlation of two frames that are not
    /// consecutive frames of one scenario value is never counted.
    pub fn ncc_memo_misses(&self) -> u64 {
        self.ncc_memo.misses()
    }

    /// How many frames have been rendered from this scenario value and its
    /// clones: by their streams, whose iterators render blocks of up to
    /// eight frames ahead of the frame they yield, and by
    /// [`FrameStream::frame_at`]. A relaxed counter shared with the NCC
    /// memo: clones share it, and every constructor and builder call starts
    /// it at 0, as they do [`ncc_memo_misses`](Self::ncc_memo_misses).
    /// [`label_at`](Self::label_at) renders nothing and counts nothing.
    pub fn render_count(&self) -> u64 {
        self.ncc_memo.renders()
    }

    /// Per-frame camera-shake amplitude (fraction of the frame size).
    pub fn camera_shake(&self) -> f64 {
        self.camera_shake
    }

    /// Returns a copy with a different camera-shake amplitude and a fresh
    /// NCC memo.
    pub fn with_camera_shake(mut self, camera_shake: f64) -> Self {
        self.camera_shake = camera_shake.clamp(0.0, 0.2);
        self.with_fresh_memo()
    }

    /// Scenario name (e.g. `"scenario-1"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Indoor / outdoor environment.
    pub fn environment(&self) -> Environment {
        self.environment
    }

    /// Number of frames in the video.
    pub fn num_frames(&self) -> usize {
        self.num_frames
    }

    /// Rendered frame width in pixels.
    pub fn frame_width(&self) -> usize {
        self.frame_width
    }

    /// Rendered frame height in pixels.
    pub fn frame_height(&self) -> usize {
        self.frame_height
    }

    /// Seed driving all per-frame randomness of this scenario.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Returns a copy of the scenario with a different frame resolution and
    /// a fresh NCC memo.
    pub fn with_frame_size(mut self, width: usize, height: usize) -> Self {
        assert!(width > 0 && height > 0, "frame size must be non-zero");
        self.frame_width = width;
        self.frame_height = height;
        self.with_fresh_memo()
    }

    /// Returns a copy with a different number of frames (used by tests and
    /// quick examples to shorten runs) and a fresh NCC memo.
    pub fn with_num_frames(mut self, num_frames: usize) -> Self {
        assert!(num_frames > 0, "scenario must contain at least one frame");
        self.num_frames = num_frames;
        self.with_fresh_memo()
    }

    /// Returns a copy with a different seed and a fresh NCC memo. Passing
    /// the scenario's own seed gives an equal value with a memo of its own.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self.with_fresh_memo()
    }

    /// The background segments, sorted by start time.
    pub fn backgrounds(&self) -> &[BackgroundSegment] {
        &self.backgrounds
    }

    /// The partial-occlusion windows.
    pub fn occlusions(&self) -> &[Window] {
        &self.occlusions
    }

    /// The out-of-view windows.
    pub fn absences(&self) -> &[Window] {
        &self.absences
    }

    /// Index of the background segment active at normalized time `t`.
    pub fn background_index_at(&self, t: f64) -> usize {
        let mut index = 0;
        for (i, seg) in self.backgrounds.iter().enumerate() {
            if t >= seg.start {
                index = i;
            }
        }
        index
    }

    /// The background segment active at normalized time `t`.
    pub fn background_at(&self, t: f64) -> BackgroundSegment {
        self.backgrounds[self.background_index_at(t)]
    }

    /// Latent frame context at frame `index`.
    pub fn context_at(&self, index: usize) -> FrameContext {
        let t = self.time_of(index);
        let (_, _, distance) = self.trajectory.sample(t);
        let segment = self.background_at(t);
        let occlusion = self
            .occlusions
            .iter()
            .filter(|w| w.contains(t))
            .map(|w| w.amount)
            .fold(0.0f64, f64::max);
        let in_view = !self.absences.iter().any(|w| w.contains(t));
        let motion = (self.trajectory.speed(t) * 1.5).clamp(0.0, 1.0);
        FrameContext::new(
            distance,
            segment.clutter,
            segment.contrast,
            motion,
            occlusion,
            segment.lighting,
            in_view,
        )
    }

    /// Ground-truth bounding box at frame `index`, or `None` when the target
    /// is out of view.
    pub fn truth_at(&self, index: usize) -> Option<BoundingBox> {
        let t = self.time_of(index);
        if self.absences.iter().any(|w| w.contains(t)) {
            return None;
        }
        let (x, y, distance) = self.trajectory.sample(t);
        let fraction = MAX_TARGET_FRACTION + (MIN_TARGET_FRACTION - MAX_TARGET_FRACTION) * distance;
        let w = fraction * self.frame_width as f64;
        let h = fraction * 0.8 * self.frame_height as f64;
        let cx = x * self.frame_width as f64;
        let cy = y * self.frame_height as f64;
        Some(BoundingBox::from_center(cx, cy, w.max(2.0), h.max(2.0)))
    }

    /// Frame `index` without its pixels, or `None` past the last frame:
    /// what [`stream`](Self::stream) and [`FrameStream::frame_at`] would
    /// yield at that index, minus the image, computed without rendering.
    pub fn label_at(&self, index: usize) -> Option<FrameLabel> {
        (index < self.num_frames).then(|| FrameLabel {
            index,
            width: self.frame_width,
            height: self.frame_height,
            truth: self.truth_at(index),
            context: self.context_at(index),
        })
    }

    /// The label of every frame, in order: what [`stream`](Self::stream)
    /// would yield, minus the pixels, computed without rendering.
    pub fn labels(&self) -> impl Iterator<Item = FrameLabel> + '_ {
        (0..self.num_frames).filter_map(|index| self.label_at(index))
    }

    /// Scene appearance (renderer parameters) at frame `index`.
    pub fn appearance_at(&self, index: usize) -> SceneAppearance {
        let t = self.time_of(index);
        let segment = self.background_at(t);
        let shake = |salt: u64| {
            let mut h = self
                .seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add((index as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9))
                .wrapping_add(salt.wrapping_mul(0x94D0_49BB_1331_11EB));
            h ^= h >> 31;
            h = h.wrapping_mul(0x2545_F491_4F6C_DD1D);
            h ^= h >> 29;
            ((h % 2001) as f64 / 1000.0 - 1.0) * self.camera_shake
        };
        SceneAppearance {
            background_id: self.background_index_at(t) as u32 + (self.seed as u32).wrapping_mul(31),
            clutter: segment.clutter,
            contrast: segment.contrast,
            lighting: segment.lighting,
            noise: 0.02,
            camera_dx: shake(1),
            camera_dy: shake(2),
        }
    }

    /// Normalized time of frame `index`.
    pub fn time_of(&self, index: usize) -> f64 {
        if self.num_frames <= 1 {
            0.0
        } else {
            index.min(self.num_frames - 1) as f64 / (self.num_frames - 1) as f64
        }
    }

    /// An iterator over the rendered frames of the scenario. It renders
    /// eight frames at a time and links them, so that the whole-frame NCC of
    /// consecutive frames runs eight pairs per pass (see [`FrameStream`]);
    /// [`FrameStream::frame_at`] renders one frame, linked to nothing. Every
    /// frame carries this value's NCC memo, which the stream shares.
    pub fn stream(&self) -> FrameStream {
        FrameStream::new(self.clone())
    }

    /// An iterator over the rendered frames from index `start` on, in
    /// blocks of eight like [`stream`](Self::stream)'s. The frames before
    /// `start` are never rendered; past the last frame the stream is empty.
    pub fn stream_from(&self, start: usize) -> FrameStream {
        FrameStream::starting_at(self.clone(), start)
    }

    // ------------------------------------------------------------------
    // The six canonical evaluation scenarios.
    // ------------------------------------------------------------------

    /// Scenario 1 (paper Fig. 3): the drone manoeuvres across intricate
    /// backgrounds far from the camera before returning close. 1,800 frames,
    /// outdoor.
    pub fn scenario_1() -> Self {
        Scenario::new(
            "scenario-1",
            Environment::Outdoor,
            1800,
            Trajectory::approach_retreat(0.92),
            vec![
                BackgroundSegment::new(0.00, 0.25, 0.80, 0.85),
                BackgroundSegment::new(0.03, 0.70, 0.40, 0.75),
                BackgroundSegment::new(0.28, 0.90, 0.30, 0.65),
                BackgroundSegment::new(0.61, 0.55, 0.55, 0.80),
                BackgroundSegment::new(0.92, 0.20, 0.85, 0.90),
            ],
            vec![Window::new(0.45, 0.50, 0.4)],
            vec![],
            101,
        )
    }

    /// Scenario 2 (paper Fig. 4): the drone moves horizontally across simpler
    /// backgrounds at a fixed distance and leaves the frame near the end.
    /// 900 frames, outdoor.
    pub fn scenario_2() -> Self {
        Scenario::new(
            "scenario-2",
            Environment::Outdoor,
            900,
            Trajectory::horizontal_sweep(0.45, 0.55),
            vec![
                BackgroundSegment::new(0.00, 0.15, 0.85, 0.90),
                BackgroundSegment::new(0.30, 0.45, 0.60, 0.85),
                BackgroundSegment::new(0.60, 0.30, 0.75, 0.80),
            ],
            vec![],
            vec![Window::new(0.0, 0.08, 1.0), Window::new(0.52, 0.60, 1.0)],
            202,
        )
    }

    /// Scenario 3: indoor, close-range hover with a low-clutter background —
    /// the easiest video. 500 frames.
    pub fn scenario_3() -> Self {
        Scenario::new(
            "scenario-3",
            Environment::Indoor,
            500,
            Trajectory::hover(0.5, 0.45, 0.18),
            vec![BackgroundSegment::new(0.0, 0.12, 0.90, 0.95)],
            vec![],
            vec![],
            303,
        )
    }

    /// Scenario 4: indoor flight through a cluttered storage area with partial
    /// occlusions. 1,200 frames.
    pub fn scenario_4() -> Self {
        Scenario::new(
            "scenario-4",
            Environment::Indoor,
            1200,
            Trajectory::lawnmower(3, 0.35),
            vec![
                BackgroundSegment::new(0.00, 0.65, 0.55, 0.70),
                BackgroundSegment::new(0.45, 0.85, 0.40, 0.60),
                BackgroundSegment::new(0.80, 0.50, 0.65, 0.75),
            ],
            vec![Window::new(0.20, 0.28, 0.5), Window::new(0.62, 0.68, 0.7)],
            vec![],
            404,
        )
    }

    /// Scenario 5: outdoor long-range surveillance — the drone stays far from
    /// the camera over busy terrain; the hardest video. 2,500 frames.
    pub fn scenario_5() -> Self {
        Scenario::new(
            "scenario-5",
            Environment::Outdoor,
            2500,
            Trajectory::new(vec![
                crate::trajectory::Waypoint::new(0.0, 0.10, 0.40, 0.75),
                crate::trajectory::Waypoint::new(0.35, 0.45, 0.35, 0.95),
                crate::trajectory::Waypoint::new(0.70, 0.75, 0.45, 0.85),
                crate::trajectory::Waypoint::new(1.0, 0.90, 0.40, 0.60),
            ]),
            vec![
                BackgroundSegment::new(0.00, 0.80, 0.35, 0.80),
                BackgroundSegment::new(0.40, 0.95, 0.25, 0.70),
                BackgroundSegment::new(0.75, 0.70, 0.45, 0.85),
            ],
            vec![Window::new(0.55, 0.58, 0.6)],
            vec![Window::new(0.30, 0.34, 1.0)],
            505,
        )
    }

    /// Scenario 6: outdoor dive-and-climb with rapid size changes and a brief
    /// sun-glare (low lighting) segment. 1,500 frames.
    pub fn scenario_6() -> Self {
        Scenario::new(
            "scenario-6",
            Environment::Outdoor,
            1500,
            Trajectory::dive_and_climb(),
            vec![
                BackgroundSegment::new(0.00, 0.40, 0.70, 0.85),
                BackgroundSegment::new(0.33, 0.60, 0.50, 0.35),
                BackgroundSegment::new(0.66, 0.35, 0.75, 0.90),
            ],
            vec![Window::new(0.40, 0.44, 0.5)],
            vec![],
            606,
        )
    }

    /// The full six-scenario evaluation set used by Table III.
    pub fn evaluation_set() -> Vec<Scenario> {
        vec![
            Scenario::scenario_1(),
            Scenario::scenario_2(),
            Scenario::scenario_3(),
            Scenario::scenario_4(),
            Scenario::scenario_5(),
            Scenario::scenario_6(),
        ]
    }

    // ------------------------------------------------------------------
    // Extension scenarios beyond the paper's evaluation set.
    // ------------------------------------------------------------------

    /// Scenario 7 (extension): the drone orbits a point of interest at medium
    /// range over a moderately cluttered yard — the surveillance pattern of a
    /// quadcopter inspecting a structure. 1,000 frames, outdoor.
    pub fn scenario_7_orbit() -> Self {
        Scenario::new(
            "scenario-7-orbit",
            Environment::Outdoor,
            1000,
            Trajectory::orbit(0.5, 0.5, 0.28, 0.45, 2),
            vec![
                BackgroundSegment::new(0.00, 0.45, 0.65, 0.80),
                BackgroundSegment::new(0.50, 0.60, 0.50, 0.70),
            ],
            vec![Window::new(0.70, 0.74, 0.5)],
            vec![],
            707,
        )
    }

    /// Scenario 8 (extension): a figure-eight flight whose near lobe fills
    /// the frame and whose far lobe shrinks the target, stressing rapid
    /// apparent-size changes on every lap. 1,100 frames, outdoor.
    pub fn scenario_8_figure_eight() -> Self {
        Scenario::new(
            "scenario-8-figure-eight",
            Environment::Outdoor,
            1100,
            Trajectory::figure_eight(0.15, 0.80),
            vec![
                BackgroundSegment::new(0.00, 0.35, 0.70, 0.85),
                BackgroundSegment::new(0.45, 0.75, 0.40, 0.65),
                BackgroundSegment::new(0.85, 0.50, 0.60, 0.75),
            ],
            vec![],
            vec![],
            808,
        )
    }

    /// Scenario 9 (extension): a station-holding hover with wind-induced
    /// jitter in a dim indoor hangar — easy geometry but poor lighting and a
    /// long occlusion while a person walks past. 700 frames, indoor.
    pub fn scenario_9_station_hold() -> Self {
        Scenario::new(
            "scenario-9-station-hold",
            Environment::Indoor,
            700,
            Trajectory::hover_jitter(0.55, 0.5, 0.30, 0.04),
            vec![
                BackgroundSegment::new(0.00, 0.30, 0.55, 0.45),
                BackgroundSegment::new(0.60, 0.40, 0.45, 0.40),
            ],
            vec![Window::new(0.35, 0.48, 0.7)],
            vec![],
            909,
        )
    }

    /// The extended evaluation set: the paper's six scenarios plus the three
    /// extension scenarios built on the orbit, figure-eight and jittered
    /// hover trajectories.
    pub fn extended_evaluation_set() -> Vec<Scenario> {
        let mut set = Scenario::evaluation_set();
        set.push(Scenario::scenario_7_orbit());
        set.push(Scenario::scenario_8_figure_eight());
        set.push(Scenario::scenario_9_station_hold());
        set
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evaluation_set_has_six_scenarios_with_paper_lengths() {
        let set = Scenario::evaluation_set();
        assert_eq!(set.len(), 6);
        let indoor = set
            .iter()
            .filter(|s| s.environment() == Environment::Indoor)
            .count();
        assert_eq!(indoor, 2, "paper uses two indoor scenarios");
        for s in &set {
            assert!(
                (500..=2500).contains(&s.num_frames()),
                "{} has {} frames, outside the paper's 500-2500 range",
                s.name(),
                s.num_frames()
            );
        }
    }

    #[test]
    fn scenario_names_are_unique() {
        let set = Scenario::evaluation_set();
        let mut names: Vec<_> = set.iter().map(|s| s.name().to_string()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), set.len());
    }

    #[test]
    fn background_index_is_monotone_in_time() {
        let s = Scenario::scenario_1();
        let mut previous = 0;
        for i in 0..s.num_frames() {
            let idx = s.background_index_at(s.time_of(i));
            assert!(idx >= previous);
            previous = idx;
        }
    }

    #[test]
    fn truth_stays_within_frame_when_in_view() {
        for s in Scenario::evaluation_set() {
            for i in (0..s.num_frames()).step_by(37) {
                if let Some(bbox) = s.truth_at(i) {
                    let clamped = bbox.clamped(s.frame_width(), s.frame_height());
                    assert!(
                        clamped.area() > 0.0,
                        "{} frame {i}: truth box entirely outside frame",
                        s.name()
                    );
                }
            }
        }
    }

    #[test]
    fn absences_remove_truth() {
        let s = Scenario::scenario_2();
        // Frame in the first absence window (first 8% of the video).
        let absent_frame = 10;
        assert!(s.truth_at(absent_frame).is_none());
        assert!(!s.context_at(absent_frame).in_view);
        // Frame in the middle where the target is visible.
        let present_frame = s.num_frames() / 4;
        assert!(s.truth_at(present_frame).is_some());
    }

    #[test]
    fn occlusion_window_raises_difficulty() {
        let s = Scenario::scenario_4();
        // scenario-4 has an occlusion window at t in [0.20, 0.28).
        let inside = (0.24 * (s.num_frames() - 1) as f64) as usize;
        let outside = (0.10 * (s.num_frames() - 1) as f64) as usize;
        assert!(s.context_at(inside).occlusion > s.context_at(outside).occlusion);
    }

    #[test]
    fn distance_changes_target_size() {
        let s = Scenario::scenario_1();
        let near = s.truth_at(0).expect("in view");
        let mid = s.truth_at(s.num_frames() / 2).expect("in view");
        assert!(
            near.area() > mid.area(),
            "a close target must appear larger than a distant one"
        );
    }

    #[test]
    fn with_num_frames_and_seed_are_respected() {
        let s = Scenario::scenario_3().with_num_frames(50).with_seed(7);
        assert_eq!(s.num_frames(), 50);
        assert_eq!(s.seed(), 7);
    }

    #[test]
    fn time_of_spans_unit_interval() {
        let s = Scenario::scenario_3().with_num_frames(11);
        assert_eq!(s.time_of(0), 0.0);
        assert!((s.time_of(10) - 1.0).abs() < 1e-12);
        assert!((s.time_of(5) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn environment_display() {
        assert_eq!(Environment::Indoor.to_string(), "indoor");
        assert_eq!(Environment::Outdoor.to_string(), "outdoor");
    }

    #[test]
    #[should_panic(expected = "at least one frame")]
    fn zero_frames_panics() {
        let _ = Scenario::new(
            "bad",
            Environment::Indoor,
            0,
            Trajectory::default(),
            vec![BackgroundSegment::new(0.0, 0.1, 0.9, 0.9)],
            vec![],
            vec![],
            1,
        );
    }

    #[test]
    fn extended_set_adds_three_new_scenarios() {
        let base = Scenario::evaluation_set();
        let extended = Scenario::extended_evaluation_set();
        assert_eq!(extended.len(), base.len() + 3);
        let names: Vec<_> = extended.iter().map(|s| s.name().to_string()).collect();
        assert!(names.contains(&"scenario-7-orbit".to_string()));
        assert!(names.contains(&"scenario-8-figure-eight".to_string()));
        assert!(names.contains(&"scenario-9-station-hold".to_string()));
        let mut unique_seeds: Vec<_> = extended.iter().map(|s| s.seed()).collect();
        unique_seeds.sort_unstable();
        unique_seeds.dedup();
        assert_eq!(unique_seeds.len(), extended.len(), "seeds must be distinct");
    }

    #[test]
    fn extension_scenarios_produce_valid_streams() {
        for scenario in [
            Scenario::scenario_7_orbit(),
            Scenario::scenario_8_figure_eight(),
            Scenario::scenario_9_station_hold(),
        ] {
            let short = scenario.with_num_frames(40);
            let frames: Vec<_> = short.stream().collect();
            assert_eq!(frames.len(), 40);
            let visible = frames.iter().filter(|f| f.truth.is_some()).count();
            assert!(visible > 30, "{}: target mostly visible", short.name());
            for frame in &frames {
                if let Some(truth) = frame.truth {
                    assert!(truth.area() > 0.0);
                    let (cx, cy) = truth.center();
                    assert!(cx >= 0.0 && cx <= short.frame_width() as f64);
                    assert!(cy >= 0.0 && cy <= short.frame_height() as f64);
                }
            }
        }
    }

    #[test]
    fn figure_eight_scenario_spans_a_wide_difficulty_range() {
        let scenario = Scenario::scenario_8_figure_eight().with_num_frames(200);
        let difficulties: Vec<f64> = (0..200)
            .map(|i| scenario.context_at(i).difficulty())
            .collect();
        let min = difficulties.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = difficulties.iter().cloned().fold(0.0f64, f64::max);
        assert!(
            max - min > 0.2,
            "near/far lobes should differ in difficulty (min {min:.2}, max {max:.2})"
        );
    }
}
