//! Frame streams: the iterator interface every runtime consumes.

use crate::bbox::BoundingBox;
use crate::block::{self, Member, BLOCK_LEN};
use crate::context::FrameContext;
use crate::image::{render_frame, GrayImage};
use crate::memo::MemoTag;
use crate::scenario::Scenario;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// What a frame is without its pixels: its index, size, ground truth and
/// latent context.
///
/// This is all the simulated detector (`shift_models::ResponseModel::infer`)
/// and the offline characterization read of a frame, so they take a label
/// and need no frame rendered. [`Scenario::label_at`] builds one without
/// rendering, [`Frame::label`] reads one off a rendered frame, and the two
/// are equal for every index.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FrameLabel {
    /// Zero-based frame index within its scenario.
    pub index: usize,
    /// Frame width in pixels.
    pub width: usize,
    /// Frame height in pixels.
    pub height: usize,
    /// Ground-truth bounding box, or `None` when the target is out of view.
    pub truth: Option<BoundingBox>,
    /// Latent scene context used by the detection response model.
    pub context: FrameContext,
}

/// A single frame of a scenario: pixels, ground truth and latent context.
///
/// Ground truth (`truth`) and context are consumed only by the evaluation
/// harness and the detection response model; the SHIFT runtime itself sees
/// only `image` and the detections produced by whichever model it ran.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Frame {
    /// Zero-based frame index within its scenario.
    pub index: usize,
    /// Rendered grayscale pixels.
    pub image: GrayImage,
    /// Ground-truth bounding box, or `None` when the target is out of view.
    pub truth: Option<BoundingBox>,
    /// Latent scene context used by the detection response model.
    pub context: FrameContext,
}

impl Frame {
    /// The frame without its pixels: what the detector model reads.
    pub fn label(&self) -> FrameLabel {
        FrameLabel {
            index: self.index,
            width: self.image.width(),
            height: self.image.height(),
            truth: self.truth,
            context: self.context,
        }
    }

    /// Normalized time of the frame inside a video of `total` frames.
    pub fn normalized_time(&self, total: usize) -> f64 {
        if total <= 1 {
            0.0
        } else {
            self.index.min(total - 1) as f64 / (total - 1) as f64
        }
    }
}

/// Iterator over the frames of a [`Scenario`].
///
/// The iterator is deterministic: two streams created from equal scenarios
/// yield identical frames.
///
/// It renders its frames in blocks of eight and links each block, together
/// with the previous block's last frame when the block continues it, into
/// one shared record. When a correlation first asks for the whole-frame
/// [`ncc`](crate::ncc()) of two consecutive frames of a block, every
/// consecutive pair of the block is correlated in one pass, one pair per
/// f64 lane, and the block's later pairs are answered from the record with
/// the same bits. The record holds the frames' pixel buffers weakly, so it
/// keeps no pixels alive, and it does nothing until a correlation asks. A
/// clone of the stream yields frames linked to the same records.
/// [`frame_at`](Self::frame_at) renders a single frame, linked to nothing.
///
/// Every frame it renders, through the iterator or `frame_at`, carries its
/// scenario's NCC memo and its index (see [`Scenario`]), so the
/// whole-frame NCC of frames `i − 1` and `i` is computed once per scenario
/// value: a stream over a clone of the scenario, or a second stream over the
/// same one, reads it from the memo instead of correlating again.
///
/// ```
/// use shift_video::Scenario;
///
/// let scenario = Scenario::scenario_3().with_num_frames(5);
/// let a: Vec<_> = scenario.stream().collect();
/// let b: Vec<_> = scenario.stream().collect();
/// assert_eq!(a.len(), 5);
/// assert_eq!(a, b);
/// ```
#[derive(Debug, Clone)]
pub struct FrameStream {
    scenario: Scenario,
    /// Index of the next frame the iterator yields.
    next_index: usize,
    /// The rendered frames from `next_index` on: what is left of the
    /// latest block.
    ahead: VecDeque<Frame>,
    /// The latest block's last frame and its index: the predecessor of the
    /// next block when that block starts right after it.
    last: Option<(usize, Member)>,
}

impl FrameStream {
    /// Creates a stream over all frames of `scenario`.
    pub fn new(scenario: Scenario) -> Self {
        Self::starting_at(scenario, 0)
    }

    /// Creates a stream whose first frame is `start`.
    pub(crate) fn starting_at(scenario: Scenario, start: usize) -> Self {
        Self {
            scenario,
            next_index: start,
            ahead: VecDeque::new(),
            last: None,
        }
    }

    /// The scenario backing this stream.
    pub fn scenario(&self) -> &Scenario {
        &self.scenario
    }

    /// Renders the frame at `index` without advancing the iterator. The
    /// frame is linked to no block, so a correlation takes the serial path,
    /// unless it pairs the frame with frame `index − 1` of this scenario
    /// value or a clone and the scenario's NCC memo already holds that
    /// pair's value: then it reads the value.
    pub fn frame_at(&self, index: usize) -> Option<Frame> {
        render(&self.scenario, index)
    }

    /// Renders the block that starts at `next_index` and links it.
    fn render_block(&mut self) {
        let start = self.next_index;
        let end = self
            .scenario
            .num_frames()
            .min(start.saturating_add(BLOCK_LEN));
        let scenario = &self.scenario;
        self.ahead
            .extend((start..end).filter_map(|index| render(scenario, index)));
        let Some(newest) = self.ahead.back() else {
            return;
        };
        let previous = self
            .last
            .take()
            .filter(|(index, _)| index + 1 == start)
            .map(|(_, member)| member);
        // Pair k is (frame k − 1, frame k), with the previous block's last
        // frame before the first; without it the first frame has no pair.
        let images = self.ahead.iter().map(|frame| &frame.image);
        let rights = images.clone().skip(usize::from(previous.is_none()));
        block::link(
            previous
                .into_iter()
                .chain(images.map(Member::of))
                .zip(rights),
        );
        self.last = Some((newest.index, Member::of(&newest.image)));
    }
}

/// Renders `scenario`'s frame `index`, or `None` past its last frame,
/// tagged with the scenario's NCC memo and the index.
fn render(scenario: &Scenario, index: usize) -> Option<Frame> {
    let label = scenario.label_at(index)?;
    let appearance = scenario.appearance_at(index);
    let seed = scenario
        .seed()
        .wrapping_mul(0x1000_0000_01B3)
        .wrapping_add(index as u64);
    let image = render_frame(
        label.width,
        label.height,
        &appearance,
        label.truth.as_ref(),
        seed,
    );
    image.set_memo_tag(MemoTag::new(scenario.ncc_memo(), index));
    Some(Frame {
        index,
        image,
        truth: label.truth,
        context: label.context,
    })
}

impl Iterator for FrameStream {
    type Item = Frame;

    fn next(&mut self) -> Option<Frame> {
        if self.ahead.is_empty() {
            self.render_block();
        }
        let frame = self.ahead.pop_front()?;
        self.next_index += 1;
        Some(frame)
    }

    /// Skips `n` frames. Skipped frames of the current block were rendered
    /// with it and are dropped. Frames past the block are never rendered,
    /// since a frame is a pure function of its index: the returned frame
    /// then starts a new block of eight, so up to seven frames after it are
    /// rendered too. `skip` goes through here too.
    fn nth(&mut self, n: usize) -> Option<Frame> {
        if n < self.ahead.len() {
            self.ahead.drain(..n);
            self.next_index += n;
        } else {
            self.ahead.clear();
            self.next_index = self.next_index.saturating_add(n);
        }
        self.next()
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let remaining = self.scenario.num_frames().saturating_sub(self.next_index);
        (remaining, Some(remaining))
    }
}

impl ExactSizeIterator for FrameStream {}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::generator::{ScenarioGenerator, ScenarioLibrary};
    use std::collections::BTreeSet;

    /// Every field of `label` as bits, so that equal vectors mean equal
    /// labels bit for bit.
    pub(crate) fn label_bits(label: &FrameLabel) -> Vec<u64> {
        let c = &label.context;
        let mut bits = vec![label.index as u64, label.width as u64, label.height as u64];
        bits.extend(
            [
                c.distance,
                c.clutter,
                c.contrast,
                c.motion,
                c.occlusion,
                c.lighting,
            ]
            .map(f64::to_bits),
        );
        bits.push(u64::from(c.in_view));
        if let Some(b) = label.truth {
            bits.extend([b.x, b.y, b.w, b.h].map(f64::to_bits));
        }
        bits
    }

    /// The first and last index and both sides of every background,
    /// occlusion and absence window edge, with how many edges of each kind
    /// the scenario has.
    fn edge_indices(scenario: &Scenario) -> (BTreeSet<usize>, [usize; 3]) {
        let last = scenario.num_frames() - 1;
        let mut indices = BTreeSet::from([0, last]);
        let mut edges = [0; 3];
        let state = |index: usize| {
            let t = scenario.time_of(index);
            let inside = |windows: &[crate::scenario::Window]| -> Vec<bool> {
                windows.iter().map(|w| w.contains(t)).collect()
            };
            (
                scenario.background_index_at(t),
                inside(scenario.occlusions()),
                inside(scenario.absences()),
            )
        };
        let mut before = state(0);
        for index in 1..=last {
            let now = state(index);
            let changed = [before.0 != now.0, before.1 != now.1, before.2 != now.2];
            if changed.contains(&true) {
                indices.extend([index - 1, index]);
            }
            for (count, changed) in edges.iter_mut().zip(changed) {
                *count += usize::from(changed);
            }
            before = now;
        }
        (indices, edges)
    }

    #[test]
    fn labels_equal_the_rendered_frames_at_every_window_edge() {
        let spec = ScenarioLibrary::standard()
            .class("dusk-occlusions")
            .expect("standard class")
            .clone();
        let mut scenarios = Scenario::evaluation_set();
        scenarios.push(ScenarioGenerator::new(5).generate(&spec, 0));
        let mut edges = [0; 3];
        for scenario in &scenarios {
            let (indices, counts) = edge_indices(scenario);
            for (total, count) in edges.iter_mut().zip(counts) {
                *total += count;
            }
            let single = scenario.stream();
            let mut stream = scenario.stream();
            let mut next = 0;
            for &index in &indices {
                let label = scenario.label_at(index).expect("index in range");
                let rendered = single.frame_at(index).expect("index in range").label();
                let streamed = stream.nth(index - next).expect("index in range").label();
                next = index + 1;
                assert_eq!(label.index, index);
                assert_eq!(
                    label_bits(&label),
                    label_bits(&rendered),
                    "{}",
                    scenario.name()
                );
                assert_eq!(
                    label_bits(&label),
                    label_bits(&streamed),
                    "{}",
                    scenario.name()
                );
            }
            assert!(scenario.label_at(scenario.num_frames()).is_none());
        }
        assert!(
            edges.iter().all(|&count| count > 0),
            "background, occlusion and absence edges: {edges:?}"
        );
    }

    #[test]
    fn stream_yields_every_frame_exactly_once() {
        let scenario = Scenario::scenario_3().with_num_frames(20);
        let frames: Vec<_> = scenario.stream().collect();
        assert_eq!(frames.len(), 20);
        for (i, frame) in frames.iter().enumerate() {
            assert_eq!(frame.index, i);
        }
    }

    #[test]
    fn stream_is_deterministic() {
        let scenario = Scenario::scenario_1().with_num_frames(12);
        let a: Vec<_> = scenario.stream().collect();
        let b: Vec<_> = scenario.stream().collect();
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_give_different_pixels() {
        let a: Vec<_> = Scenario::scenario_3()
            .with_num_frames(3)
            .with_seed(1)
            .stream()
            .collect();
        let b: Vec<_> = Scenario::scenario_3()
            .with_num_frames(3)
            .with_seed(2)
            .stream()
            .collect();
        assert_ne!(a[0].image, b[0].image);
    }

    #[test]
    fn size_hint_and_exact_size() {
        let scenario = Scenario::scenario_3().with_num_frames(7);
        let mut stream = scenario.stream();
        assert_eq!(stream.len(), 7);
        stream.next();
        assert_eq!(stream.len(), 6);
        assert_eq!(stream.size_hint(), (6, Some(6)));
    }

    #[test]
    fn nth_and_skip_match_frame_at() {
        let scenario = Scenario::scenario_2().with_num_frames(9);
        let mut stream = scenario.stream();
        assert_eq!(stream.nth(3), stream.frame_at(3));
        assert_eq!(stream.len(), 5);
        assert_eq!(stream.nth(2), stream.frame_at(6));
        assert_eq!(stream.next(), stream.frame_at(7));
        assert_eq!(stream.len(), 1);

        let skipped = scenario.stream().skip(6);
        assert_eq!(skipped.len(), 3);
        let rest: Vec<_> = skipped.collect();
        let expected: Vec<_> = (6..9).filter_map(|i| stream.frame_at(i)).collect();
        assert_eq!(rest, expected);
        assert_eq!(scenario.stream_from(6).collect::<Vec<_>>(), expected);
    }

    #[test]
    fn nth_past_the_end_exhausts_the_stream() {
        let scenario = Scenario::scenario_3().with_num_frames(4);
        let mut stream = scenario.stream();
        assert!(stream.nth(4).is_none());
        assert_eq!(stream.len(), 0);
        assert!(stream.next().is_none());

        let mut stream = scenario.stream();
        assert!(stream.nth(usize::MAX).is_none());
        assert!(stream.next().is_none());
        assert_eq!(scenario.stream().skip(9).count(), 0);
        let mut late = scenario.stream_from(7);
        assert_eq!(late.len(), 0);
        assert!(late.next().is_none());
    }

    #[test]
    fn frame_at_out_of_range_is_none() {
        let scenario = Scenario::scenario_3().with_num_frames(5);
        let stream = scenario.stream();
        assert!(stream.frame_at(5).is_none());
        assert!(stream.frame_at(4).is_some());
    }

    #[test]
    fn truth_matches_scenario_truth() {
        let scenario = Scenario::scenario_2().with_num_frames(40);
        for frame in scenario.stream() {
            assert_eq!(frame.truth, scenario.truth_at(frame.index));
            assert_eq!(frame.context, scenario.context_at(frame.index));
        }
    }

    #[test]
    fn normalized_time_endpoints() {
        let scenario = Scenario::scenario_3().with_num_frames(10);
        let frames: Vec<_> = scenario.stream().collect();
        assert_eq!(frames[0].normalized_time(10), 0.0);
        assert!((frames[9].normalized_time(10) - 1.0).abs() < 1e-12);
    }
}
