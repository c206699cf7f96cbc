//! Characterization / validation datasets.
//!
//! SHIFT's offline characterization pass and confidence-graph construction
//! rely solely on a validation subset of the training data (2,500 images in
//! the paper). This module generates the synthetic stand-in: a set of frame
//! labels whose contexts cover the full difficulty spectrum, taken from
//! short randomized mini-scenarios so that the validation distribution
//! resembles — but is not identical to — the evaluation scenarios. The
//! simulated detector reads no pixel, so no sample is rendered.

use crate::scenario::{BackgroundSegment, Environment, Scenario, Window};
use crate::stream::FrameLabel;
use crate::trajectory::{Trajectory, Waypoint};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Default number of validation samples, against the paper's 2,500-image
/// validation split (kept smaller so the full experiment suite runs in
/// seconds).
pub const DEFAULT_VALIDATION_SAMPLES: usize = 600;

/// Frames per randomized clip. Each sample's index is its index within its
/// clip, `0..CLIP_LEN`, as a rendered clip frame's would be.
const CLIP_LEN: usize = 8;

/// A set of frame labels used for offline model characterization and
/// confidence-graph construction.
///
/// Each sample is the [`FrameLabel`] of one frame of a short clip: what the
/// detector model reads of a frame, without its pixels. The labels equal
/// those of the clip frames a [`FrameStream`](crate::FrameStream) would
/// render.
///
/// ```
/// use shift_video::CharacterizationDataset;
///
/// let dataset = CharacterizationDataset::generate(64, 7);
/// assert_eq!(dataset.len(), 64);
/// assert!(dataset.labels().iter().any(|l| l.context.difficulty() > 0.5));
/// assert!(dataset.labels().iter().any(|l| l.context.difficulty() < 0.3));
/// ```
#[derive(Debug, Clone)]
pub struct CharacterizationDataset {
    labels: Vec<FrameLabel>,
    seed: u64,
}

impl CharacterizationDataset {
    /// Generates a dataset with `samples` labels from seed `seed`.
    ///
    /// Samples are drawn from many short synthetic clips with randomized
    /// trajectories, backgrounds and occlusions, stratified so that easy,
    /// medium and hard contexts are all represented.
    pub fn generate(samples: usize, seed: u64) -> Self {
        let samples = samples.max(1);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut labels = Vec::with_capacity(samples);
        let mut clip_id = 0u64;
        while labels.len() < samples {
            // Stratify difficulty: cycle target bands so the dataset covers
            // the whole spectrum regardless of sample count.
            let band = (clip_id % 4) as f64 / 4.0;
            let scenario = random_clip(&mut rng, seed ^ clip_id, band, CLIP_LEN);
            let wanted = samples - labels.len();
            labels.extend(
                (0..CLIP_LEN)
                    .filter_map(|index| scenario.label_at(index))
                    .take(wanted),
            );
            clip_id += 1;
        }
        Self { labels, seed }
    }

    /// Generates the default-sized validation dataset.
    pub fn default_validation(seed: u64) -> Self {
        Self::generate(DEFAULT_VALIDATION_SAMPLES, seed)
    }

    /// The labels of the dataset, in order.
    pub fn labels(&self) -> &[FrameLabel] {
        &self.labels
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether the dataset is empty (never true for generated datasets).
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Seed the dataset was generated from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Iterator over the labels.
    pub fn iter(&self) -> std::slice::Iter<'_, FrameLabel> {
        self.labels.iter()
    }
}

impl<'a> IntoIterator for &'a CharacterizationDataset {
    type Item = &'a FrameLabel;
    type IntoIter = std::slice::Iter<'a, FrameLabel>;

    fn into_iter(self) -> Self::IntoIter {
        self.labels.iter()
    }
}

/// Builds one short randomized clip whose difficulty is centred on `band`.
fn random_clip(rng: &mut StdRng, seed: u64, band: f64, frames: usize) -> Scenario {
    let spread = 0.25;
    let level = |rng: &mut StdRng| (band + rng.gen_range(0.0..spread)).clamp(0.0, 1.0);
    let distance = level(rng);
    let clutter = level(rng);
    let contrast = 1.0 - level(rng) * 0.8;
    let lighting = 1.0 - level(rng) * 0.6;
    let environment = if rng.gen_bool(0.4) {
        Environment::Indoor
    } else {
        Environment::Outdoor
    };
    let x0: f64 = rng.gen_range(0.1..0.9);
    let y0: f64 = rng.gen_range(0.2..0.8);
    let x1 = (x0 + rng.gen_range(-0.3..0.3f64)).clamp(0.05, 0.95);
    let y1 = (y0 + rng.gen_range(-0.2..0.2f64)).clamp(0.05, 0.95);
    let trajectory = Trajectory::new(vec![
        Waypoint::new(0.0, x0, y0, distance),
        Waypoint::new(
            1.0,
            x1,
            y1,
            (distance + rng.gen_range(-0.1..0.1)).clamp(0.0, 1.0),
        ),
    ]);
    let occlusions = if rng.gen_bool(0.15) {
        vec![Window::new(0.3, 0.6, rng.gen_range(0.2..0.7))]
    } else {
        vec![]
    };
    let absences = if rng.gen_bool(0.05) {
        vec![Window::new(0.7, 1.0, 1.0)]
    } else {
        vec![]
    };
    Scenario::new(
        format!("characterization-clip-{seed}"),
        environment,
        frames,
        trajectory,
        vec![BackgroundSegment::new(0.0, clutter, contrast, lighting)],
        occlusions,
        absences,
        seed,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::tests::label_bits;

    /// The generator as it was when it rendered every sample: the same
    /// clips, rendered through `stream()`, each frame mapped to its label.
    fn rendered_reference(samples: usize, seed: u64) -> Vec<FrameLabel> {
        let samples = samples.max(1);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut labels = Vec::with_capacity(samples);
        let mut clip_id = 0u64;
        while labels.len() < samples {
            let band = (clip_id % 4) as f64 / 4.0;
            let scenario = random_clip(&mut rng, seed ^ clip_id, band, 8);
            for frame in scenario.stream() {
                if labels.len() >= samples {
                    break;
                }
                labels.push(frame.label());
            }
            clip_id += 1;
        }
        labels
    }

    #[test]
    fn labels_equal_those_of_the_rendered_clips() {
        for seed in [2024, 7] {
            for samples in [1, 7, 8, 9, 180, 600] {
                let dataset = CharacterizationDataset::generate(samples, seed);
                let reference = rendered_reference(samples, seed);
                assert_eq!(dataset.len(), samples);
                assert_eq!(reference.len(), samples);
                for (k, (label, expected)) in dataset.iter().zip(&reference).enumerate() {
                    assert_eq!(
                        label_bits(label),
                        label_bits(expected),
                        "seed {seed}, {samples} samples: sample {k}"
                    );
                    assert!(label.index < CLIP_LEN);
                }
            }
        }
    }

    #[test]
    fn generate_produces_requested_count() {
        let d = CharacterizationDataset::generate(100, 1);
        assert_eq!(d.len(), 100);
        assert!(!d.is_empty());
    }

    #[test]
    fn generation_is_deterministic() {
        let a = CharacterizationDataset::generate(50, 9);
        let b = CharacterizationDataset::generate(50, 9);
        assert_eq!(a.labels(), b.labels());
    }

    #[test]
    fn different_seeds_differ() {
        let a = CharacterizationDataset::generate(30, 1);
        let b = CharacterizationDataset::generate(30, 2);
        assert_ne!(a.labels(), b.labels());
    }

    #[test]
    fn difficulty_spectrum_is_covered() {
        let d = CharacterizationDataset::generate(200, 3);
        let difficulties: Vec<f64> = d.iter().map(|l| l.context.difficulty()).collect();
        let easy = difficulties.iter().filter(|&&x| x < 0.3).count();
        let hard = difficulties.iter().filter(|&&x| x > 0.6).count();
        assert!(easy > 10, "expected easy samples, got {easy}");
        assert!(hard > 10, "expected hard samples, got {hard}");
        let mean = difficulties.iter().sum::<f64>() / difficulties.len() as f64;
        assert!((0.2..=0.8).contains(&mean), "mean difficulty {mean}");
    }

    #[test]
    fn minimum_one_sample() {
        let d = CharacterizationDataset::generate(0, 5);
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn into_iterator_yields_all_frames() {
        let d = CharacterizationDataset::generate(16, 4);
        assert_eq!((&d).into_iter().count(), 16);
        assert!((&d).into_iter().eq(d.labels()));
    }

    #[test]
    fn default_validation_size() {
        let d = CharacterizationDataset::default_validation(11);
        assert_eq!(d.len(), DEFAULT_VALIDATION_SAMPLES);
        assert_eq!(d.seed(), 11);
    }
}
