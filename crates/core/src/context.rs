//! Runtime context-change detection (paper §III-B, "Context Detection").
//!
//! The scheduler does not extract expensive semantic features from frames.
//! It computes the normalized cross-correlation between the previous and
//! current frame and between the crops under the previous and current
//! bounding boxes, and takes the minimum. A low similarity means the input
//! stream changed significantly and the current model choice should be
//! reconsidered.

use shift_video::{ncc, BoundingBox, Frame, GrayImage, RegionNcc};

/// Tracks the previous frame and detection and produces the similarity score
/// used by the scheduler's "keep the current model" gate.
///
/// The detector holds the previous frame through [`GrayImage`]'s shared
/// (`Arc`-backed) pixel buffer, so [`update`](Self::update) is O(1) instead
/// of a deep per-frame copy, and the image's cached NCC moments stay warm
/// across the two frames each one participates in. The bounding-box term
/// runs through a reusable [`RegionNcc`] scratch, which is why
/// [`similarity`](Self::similarity) takes `&mut self`.
///
/// ```
/// use shift_core::ContextDetector;
/// use shift_video::{BoundingBox, Scenario};
///
/// let scenario = Scenario::scenario_3().with_num_frames(3);
/// let frames: Vec<_> = scenario.stream().collect();
/// let mut detector = ContextDetector::new();
/// // The first frame has no history: similarity is 0, forcing a scheduling pass.
/// let bbox = frames[0].truth.unwrap();
/// assert_eq!(detector.similarity(&frames[0], Some(&bbox)), 0.0);
/// detector.update(&frames[0], Some(&bbox));
/// // Consecutive frames of a hover scenario are nearly identical.
/// let next_bbox = frames[1].truth.unwrap();
/// assert!(detector.similarity(&frames[1], Some(&next_bbox)) > 0.8);
/// ```
#[derive(Debug, Clone, Default)]
pub struct ContextDetector {
    last_image: Option<GrayImage>,
    last_bbox: Option<BoundingBox>,
    region: RegionNcc,
}

impl ContextDetector {
    /// Creates a detector with no history.
    pub fn new() -> Self {
        Self::default()
    }

    /// Similarity between the remembered state and (`frame`, `bbox`):
    /// `min(NCC(last image, image), NCC(last bbox crop, bbox crop))`.
    ///
    /// Returns `0.0` when there is no history yet (first frame). When either
    /// the previous or the current detection is missing, the bounding-box
    /// term is `0.0`, so the result is `min(NCC(last image, image), 0.0)`:
    /// `0.0`, or the whole-frame NCC when that is negative (frames that
    /// anti-correlate). Either way the similarity gate fails and a
    /// scheduling pass runs.
    ///
    /// # Panics
    ///
    /// In debug builds, panics when `frame`'s dimensions differ from the
    /// remembered frame's. A stream's dimensions never legitimately change
    /// mid-video, so a mismatch is always a wiring bug in the driver; in
    /// release builds the NCC term falls back to `0.0`, which keeps the
    /// pipeline running but reads as a *permanent* scene cut — a full
    /// re-scheduling pass every frame, thrashing the shared loader — which
    /// is exactly why the bug is surfaced loudly here instead.
    pub fn similarity(&mut self, frame: &Frame, bbox: Option<&BoundingBox>) -> f64 {
        let Some(last_image) = &self.last_image else {
            return 0.0;
        };
        debug_assert!(
            last_image.width() == frame.image.width()
                && last_image.height() == frame.image.height(),
            "frame dimensions changed mid-stream ({}x{} -> {}x{}): \
             the context detector is wired to the wrong stream",
            last_image.width(),
            last_image.height(),
            frame.image.width(),
            frame.image.height(),
        );
        let image_ncc = ncc(last_image, &frame.image).unwrap_or(0.0);
        let bbox_ncc = match (&self.last_bbox, bbox) {
            (Some(prev), Some(current)) => {
                self.region
                    .ncc_regions(last_image, prev, &frame.image, current)
            }
            _ => 0.0,
        };
        // Both terms are clamped to [-1, 1] at the source (`ncc` clamps its
        // quotient; the degenerate and missing-box cases yield 0 or 1), an
        // invariant locked by the fast-path property suite — no re-clamp.
        image_ncc.min(bbox_ncc)
    }

    /// Remembers `frame` and the detection produced on it for the next
    /// similarity query. O(1): the pixel buffer is shared, not copied.
    pub fn update(&mut self, frame: &Frame, bbox: Option<&BoundingBox>) {
        self.last_image = Some(frame.image.clone());
        self.last_bbox = bbox.copied();
    }

    /// The remembered frame's image: the left-hand side of the whole-frame
    /// NCC that [`similarity`](Self::similarity) computes next.
    pub(crate) fn last_image(&self) -> Option<&GrayImage> {
        self.last_image.as_ref()
    }

    /// Whether the detector has seen at least one frame.
    pub fn has_history(&self) -> bool {
        self.last_image.is_some()
    }

    /// Clears the history (used when the pipeline restarts).
    pub fn reset(&mut self) {
        self.last_image = None;
        self.last_bbox = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shift_video::Scenario;

    #[test]
    fn first_frame_has_zero_similarity() {
        let frame = Scenario::scenario_3().stream().next().unwrap();
        let mut detector = ContextDetector::new();
        assert_eq!(detector.similarity(&frame, frame.truth.as_ref()), 0.0);
        assert!(!detector.has_history());
    }

    #[test]
    fn consecutive_hover_frames_are_similar() {
        let frames: Vec<_> = Scenario::scenario_3().with_num_frames(4).stream().collect();
        let mut detector = ContextDetector::new();
        detector.update(&frames[0], frames[0].truth.as_ref());
        let s = detector.similarity(&frames[1], frames[1].truth.as_ref());
        assert!(s > 0.8, "hover frames should be similar, got {s}");
    }

    #[test]
    fn background_change_drops_similarity() {
        // Scenario 1 crosses background boundaries; compare similarity within
        // a segment against similarity across the first boundary (at ~3% of
        // the video). Camera shake is disabled so the comparison isolates the
        // background change itself.
        let scenario = Scenario::scenario_1().with_camera_shake(0.0);
        let stream = scenario.stream();
        let boundary = (0.03 * scenario.num_frames() as f64) as usize;
        let within_a = stream.frame_at(boundary + 50).unwrap();
        let within_b = stream.frame_at(boundary + 51).unwrap();
        let before = stream.frame_at(boundary.saturating_sub(1)).unwrap();
        let after = stream.frame_at(boundary + 1).unwrap();

        let mut detector = ContextDetector::new();
        detector.update(&within_a, within_a.truth.as_ref());
        let same_segment = detector.similarity(&within_b, within_b.truth.as_ref());

        let mut detector = ContextDetector::new();
        detector.update(&before, before.truth.as_ref());
        let across_boundary = detector.similarity(&after, after.truth.as_ref());

        assert!(
            same_segment > across_boundary,
            "crossing a background boundary should lower similarity \
             ({same_segment} vs {across_boundary})"
        );
    }

    #[test]
    fn missing_detection_forces_low_similarity() {
        let frames: Vec<_> = Scenario::scenario_3().with_num_frames(3).stream().collect();
        let mut detector = ContextDetector::new();
        detector.update(&frames[0], frames[0].truth.as_ref());
        let s = detector.similarity(&frames[1], None);
        assert_eq!(s, 0.0, "no current detection -> bbox term is 0 -> min is 0");
    }

    #[test]
    fn missing_detection_keeps_a_negative_whole_frame_ncc() {
        // Without a detection the box term is 0, but the whole-frame term
        // still counts: frames that anti-correlate give a negative
        // similarity, not 0.
        use shift_video::{ncc, FrameContext, GrayImage};
        let frame = |index, image| Frame {
            index,
            image,
            truth: None,
            context: FrameContext::easy(),
        };
        let gradient = GrayImage::from_fn(16, 16, |x, y| (x + y) as f32 / 30.0);
        let inverted = GrayImage::from_fn(16, 16, |x, y| 1.0 - gradient.get(x, y));
        let expected = ncc(&gradient, &inverted).unwrap();
        assert!(
            expected < -0.99,
            "inverted frames anti-correlate: {expected}"
        );
        let (previous, current) = (frame(0, gradient), frame(1, inverted));
        let bbox = BoundingBox::from_center(8.0, 8.0, 4.0, 4.0);
        for (last_bbox, bbox) in [(None, Some(&bbox)), (Some(&bbox), None), (None, None)] {
            let mut detector = ContextDetector::new();
            detector.update(&previous, last_bbox);
            let s = detector.similarity(&current, bbox);
            assert_eq!(s.to_bits(), expected.to_bits());
        }
    }

    #[test]
    fn reset_clears_history() {
        let frame = Scenario::scenario_3().stream().next().unwrap();
        let mut detector = ContextDetector::new();
        detector.update(&frame, frame.truth.as_ref());
        assert!(detector.has_history());
        detector.reset();
        assert!(!detector.has_history());
        assert_eq!(detector.similarity(&frame, frame.truth.as_ref()), 0.0);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "dimensions changed mid-stream")]
    fn mismatched_frame_dimensions_panic_in_debug() {
        // A stream's dimensions never legitimately change; feeding a
        // detector frames of two different sizes is a wiring bug that the
        // debug assertion at this boundary must surface (release builds
        // fall back to similarity 0.0 — a permanent scene cut — instead of
        // silently masking the `DimensionMismatch`).
        use shift_video::{FrameContext, GrayImage};
        let small = Frame {
            index: 0,
            image: GrayImage::new(16, 16),
            truth: None,
            context: FrameContext::easy(),
        };
        let large = Frame {
            index: 1,
            image: GrayImage::new(32, 32),
            truth: None,
            context: FrameContext::easy(),
        };
        let mut detector = ContextDetector::new();
        detector.update(&small, None);
        let _ = detector.similarity(&large, None);
    }

    #[test]
    fn similarity_is_bounded() {
        let frames: Vec<_> = Scenario::scenario_5()
            .with_num_frames(30)
            .stream()
            .collect();
        let mut detector = ContextDetector::new();
        for frame in &frames {
            let s = detector.similarity(frame, frame.truth.as_ref());
            assert!((-1.0..=1.0).contains(&s));
            detector.update(frame, frame.truth.as_ref());
        }
    }
}
