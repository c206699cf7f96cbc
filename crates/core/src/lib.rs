//! # shift-core
//!
//! The SHIFT runtime: context-aware, multi-model, multi-accelerator object
//! detection scheduling (Davis & Belviranli, DATE 2024).
//!
//! SHIFT is built from four cooperating pieces, each in its own module:
//!
//! * [`characterize`](mod@characterize) — the offline characterization pass that measures every
//!   model's accuracy, confidence behaviour, latency, energy and load cost on
//!   a validation dataset (paper §III-A, "ODM Trait Identification").
//! * [`graph`] — the *confidence graph*: a lookup structure that converts the
//!   confidence score of the one model that just ran into accuracy
//!   predictions for **all** models (paper §III-A, "Confidence Graph
//!   Creation").
//! * [`scheduler`] — the runtime decision heuristic (paper Algorithm 1) that
//!   combines the confidence-graph predictions with normalized energy and
//!   latency traits under tunable knobs.
//! * [`loader`] — the dynamic model loader that manages per-accelerator
//!   memory with least-recently-used eviction (paper §III-C).
//!
//! [`runtime::ShiftRuntime`] ties them together into the per-frame loop used
//! by the evaluation harness.
//!
//! ```
//! use shift_core::prelude::*;
//! use shift_models::{ModelZoo, ResponseModel};
//! use shift_soc::{ExecutionEngine, Platform};
//! use shift_video::{CharacterizationDataset, Scenario};
//!
//! // Offline: characterize the zoo and build the confidence graph.
//! let engine = ExecutionEngine::new(
//!     Platform::xavier_nx_with_oak(),
//!     ModelZoo::standard(),
//!     ResponseModel::new(1),
//! );
//! let dataset = CharacterizationDataset::generate(120, 7);
//! let characterization = characterize(&engine, &dataset);
//!
//! // Online: run SHIFT over a (shortened) scenario.
//! let config = ShiftConfig::paper_defaults();
//! let mut runtime = ShiftRuntime::new(engine, &characterization, config)?;
//! let outcomes = runtime.run(Scenario::scenario_3().with_num_frames(25).stream())?;
//! assert_eq!(outcomes.len(), 25);
//! # Ok::<(), shift_core::ShiftError>(())
//! ```

#![warn(missing_docs)]

pub mod characterize;
pub mod cluster;
pub mod config;
pub mod context;
pub mod des;
pub mod fleet;
pub mod graph;
pub mod loader;
pub mod predictor;
pub mod runtime;
pub mod scheduler;
pub mod service;
pub mod traits;

pub use characterize::{characterize, Characterization, ModelObservation, SampleObservation};
pub use cluster::{
    ClusterBuilder, ClusterEvent, ClusterFrameOutcome, ClusterPolicy, ClusterScheduler,
    ClusterSessionId, ClusterSessionRecord, MigrationRecord,
};
pub use config::{Knobs, ShiftConfig};
pub use context::ContextDetector;
pub use des::{Event, EventKey, EventKind, EventQueue, TraceEvent};
pub use fleet::{
    FleetBuilder, FleetConfig, FleetFrameOutcome, FleetRuntime, StreamHandle, StreamSpec,
    StreamView,
};
pub use graph::{ConfidenceGraph, GraphConfig, Prediction};
pub use loader::{DynamicModelLoader, LoadOutcome};
pub use predictor::{
    prediction_mae, AccuracyPredictor, EnsemblePredictor, PassthroughPredictor, RegressionPredictor,
};
pub use runtime::{FrameOutcome, LoadCharge, ResilienceCounters, ShiftRuntime, StreamAgent};
pub use scheduler::{CandidatePair, Decision, Scheduler};
pub use service::{
    AttachRequest, DeadlineClass, FleetService, RejectReason, ServicePolicy, SessionEvent,
    SessionId, SessionRecord, SessionRequest,
};
pub use traits::{AcceleratorStats, ModelTraits};

/// Convenient glob import for downstream crates and examples.
pub mod prelude {
    pub use crate::characterize::{characterize, Characterization};
    pub use crate::cluster::{ClusterBuilder, ClusterPolicy, ClusterScheduler, ClusterSessionId};
    pub use crate::config::{Knobs, ShiftConfig};
    pub use crate::des::{EventKind, EventQueue};
    pub use crate::fleet::{
        FleetBuilder, FleetConfig, FleetFrameOutcome, FleetRuntime, StreamHandle, StreamSpec,
    };
    pub use crate::graph::{ConfidenceGraph, GraphConfig};
    pub use crate::runtime::{FrameOutcome, ResilienceCounters, ShiftRuntime};
    pub use crate::scheduler::{CandidatePair, Scheduler};
    pub use crate::service::{
        AttachRequest, DeadlineClass, FleetService, ServicePolicy, SessionEvent, SessionRequest,
    };
    pub use crate::ShiftError;
}

use shift_soc::SocError;

/// Errors produced by the SHIFT runtime.
#[derive(Debug, Clone, PartialEq)]
pub enum ShiftError {
    /// The underlying SoC simulator rejected an operation.
    Soc(SocError),
    /// The configuration allows no executable (model, accelerator) pair.
    NoCandidatePairs,
    /// The characterization contains no samples, so no confidence graph can
    /// be built.
    EmptyCharacterization,
    /// A fleet was constructed with no streams.
    EmptyFleet,
}

impl std::fmt::Display for ShiftError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShiftError::Soc(err) => write!(f, "soc error: {err}"),
            ShiftError::NoCandidatePairs => {
                write!(f, "no executable model/accelerator pairs are available")
            }
            ShiftError::EmptyCharacterization => {
                write!(f, "characterization contains no samples")
            }
            ShiftError::EmptyFleet => {
                write!(f, "fleet contains no streams")
            }
        }
    }
}

impl std::error::Error for ShiftError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ShiftError::Soc(err) => Some(err),
            _ => None,
        }
    }
}

impl From<SocError> for ShiftError {
    fn from(err: SocError) -> Self {
        ShiftError::Soc(err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_and_source() {
        use std::error::Error;
        let err = ShiftError::NoCandidatePairs;
        assert!(!err.to_string().is_empty());
        assert!(err.source().is_none());
        let err: ShiftError = SocError::UnknownModel(shift_models::ModelId::YoloV7).into();
        assert!(err.to_string().contains("soc error"));
        assert!(err.source().is_some());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ShiftError>();
    }
}
