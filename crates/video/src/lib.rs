//! # shift-video
//!
//! Synthetic frame-stream, scenario and dataset substrate for the SHIFT
//! reproduction (Davis & Belviranli, *Context-aware Multi-Model Object
//! Detection for Diversely Heterogeneous Compute Systems*, DATE 2024).
//!
//! The paper evaluates on a UAV (drone) detection dataset and six recorded
//! evaluation videos. Neither is redistributable, so this crate provides the
//! closest synthetic equivalent: a deterministic generator of grayscale frame
//! streams with ground-truth bounding boxes and a continuous *frame context*
//! (target distance, background clutter, contrast, motion, occlusion,
//! lighting). Every consumer of the paper's pipeline — normalized
//! cross-correlation (NCC), IoU scoring, confidence-graph construction and
//! the SHIFT scheduler — operates on these streams exactly as it would on
//! camera frames.
//!
//! ## Quick example
//!
//! ```
//! use shift_video::scenario::Scenario;
//!
//! let scenario = Scenario::scenario_1();
//! let mut frames = 0;
//! for frame in scenario.stream().take(10) {
//!     assert_eq!(frame.image.width(), scenario.frame_width());
//!     frames += 1;
//! }
//! assert_eq!(frames, 10);
//! ```

#![deny(unsafe_code)]
#![warn(clippy::undocumented_unsafe_blocks)]

pub mod bbox;
mod block;
pub mod context;
pub mod dataset;
pub mod generator;
pub mod image;
mod memo;
pub mod ncc;
pub mod scenario;
mod sincosf;
pub mod stream;
pub mod trajectory;

pub use bbox::BoundingBox;
pub use block::link_pairs;
pub use context::FrameContext;
pub use dataset::CharacterizationDataset;
pub use generator::{
    Difficulty, ScenarioGenerator, ScenarioLibrary, ScenarioSpec, TrajectoryFamily, WeatherRegime,
};
pub use image::GrayImage;
pub use ncc::{frame_similarity, ncc, ncc_regions, RegionNcc};
pub use scenario::{Environment, Scenario};
pub use stream::{Frame, FrameLabel, FrameStream};
pub use trajectory::{Trajectory, Waypoint};

/// Error type for the video substrate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VideoError {
    /// Two images with mismatched dimensions were passed to an operation that
    /// requires identical sizes.
    DimensionMismatch {
        /// Dimensions of the first operand (width, height).
        lhs: (usize, usize),
        /// Dimensions of the second operand (width, height).
        rhs: (usize, usize),
    },
    /// An image with zero width or height was requested.
    EmptyImage,
    /// A scenario was configured with no frames.
    EmptyScenario,
}

impl std::fmt::Display for VideoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VideoError::DimensionMismatch { lhs, rhs } => write!(
                f,
                "image dimensions do not match: {}x{} vs {}x{}",
                lhs.0, lhs.1, rhs.0, rhs.1
            ),
            VideoError::EmptyImage => write!(f, "image must have non-zero dimensions"),
            VideoError::EmptyScenario => write!(f, "scenario must contain at least one frame"),
        }
    }
}

impl std::error::Error for VideoError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_is_nonempty() {
        let err = VideoError::DimensionMismatch {
            lhs: (4, 4),
            rhs: (8, 8),
        };
        assert!(err.to_string().contains("4x4"));
        assert!(!VideoError::EmptyImage.to_string().is_empty());
        assert!(!VideoError::EmptyScenario.to_string().is_empty());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<VideoError>();
    }
}
