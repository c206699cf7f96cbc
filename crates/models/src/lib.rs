//! # shift-models
//!
//! Object-detection model (ODM) zoo and analytic detection response model for
//! the SHIFT reproduction.
//!
//! The paper characterizes eight object-detection models (four YoloV7
//! variants and four SSD variants) on a Jetson Xavier NX and an OAK-D camera.
//! We cannot ship the trained networks, so this crate substitutes an
//! *analytic response model*: each model has a capacity, a softness and a
//! confidence-calibration profile, and maps a frame's latent context
//! difficulty to (bounding box, confidence score) outputs with the same
//! statistical structure the paper reports — accurate-but-costly models
//! degrade slowly with difficulty, small models collapse early, and the
//! confidence scores of different families are *miscalibrated differently*,
//! which is exactly the problem the confidence graph solves.
//!
//! Per-accelerator latency / power / energy reference numbers come straight
//! from Tables I and IV of the paper and are consumed by the `shift-soc`
//! execution engine.
//!
//! ```
//! use shift_models::{ModelZoo, ResponseModel};
//! use shift_video::FrameContext;
//!
//! let zoo = ModelZoo::standard();
//! let response = ResponseModel::new(7);
//! let spec = zoo.spec(shift_models::ModelId::YoloV7);
//! let easy = response.expected_iou(spec, &FrameContext::easy());
//! let hard = response.expected_iou(spec, &FrameContext::hard());
//! assert!(easy > hard);
//! ```

#![forbid(unsafe_code)]

pub mod calibration;
pub mod detection;
pub mod family;
pub mod footprint;
pub mod precision;
pub mod response;
pub mod zoo;

pub use detection::Detection;
pub use family::{ExecutionTarget, ModelFamily, ModelId};
pub use footprint::LoadProfile;
pub use precision::{quantize_spec, Precision};
pub use response::{InferenceResult, ResponseModel};
pub use zoo::{ModelSpec, ModelZoo, PerfPoint};

/// Error type for the model zoo.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ModelError {
    /// The requested model is not present in the zoo.
    UnknownModel(String),
    /// The model cannot execute on the requested target (unsupported layers
    /// or memory limits, as on the real DLA / OAK-D).
    UnsupportedTarget {
        /// The model that was requested.
        model: ModelId,
        /// The execution target that does not support it.
        target: ExecutionTarget,
    },
}

impl std::fmt::Display for ModelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ModelError::UnknownModel(name) => write!(f, "unknown model `{name}`"),
            ModelError::UnsupportedTarget { model, target } => {
                write!(f, "model {model} is not supported on {target}")
            }
        }
    }
}

impl std::error::Error for ModelError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        let err = ModelError::UnknownModel("yolo99".into());
        assert!(err.to_string().contains("yolo99"));
        let err = ModelError::UnsupportedTarget {
            model: ModelId::SsdResnet50,
            target: ExecutionTarget::OakD,
        };
        assert!(err.to_string().contains("not supported"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ModelError>();
    }
}
