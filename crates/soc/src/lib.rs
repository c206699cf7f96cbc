//! # shift-soc
//!
//! Heterogeneous SoC simulator for the SHIFT reproduction.
//!
//! The paper runs on an Nvidia Jetson Xavier NX (Carmel CPU, Volta GPU and
//! two NVDLA cores) paired with a Luxonis OAK-D Lite camera accelerator. This
//! crate simulates that platform as a discrete-event model: each accelerator
//! has a memory pool, a compatibility matrix, and per-(model, accelerator)
//! latency/power operating points seeded from the paper's Tables I and IV.
//! Executing an inference advances a virtual clock and charges energy to the
//! corresponding power rail; loading or evicting a model charges the load
//! cost from `shift-models`.
//!
//! The SHIFT runtime, the baselines and the experiment harness all interact
//! with the platform exclusively through [`ExecutionEngine`], so they observe
//! the same latency / energy / memory trade-offs the real hardware exposes.
//!
//! ```
//! use shift_soc::{ExecutionEngine, Platform, AcceleratorId};
//! use shift_models::{ModelZoo, ModelId, ResponseModel};
//! use shift_video::Scenario;
//!
//! let mut engine = ExecutionEngine::new(
//!     Platform::xavier_nx_with_oak(),
//!     ModelZoo::standard(),
//!     ResponseModel::new(1),
//! );
//! let frame = Scenario::scenario_3().stream().next().expect("frame");
//! engine.load_model(ModelId::YoloV7Tiny, AcceleratorId::Gpu)?;
//! let report = engine.run_inference(ModelId::YoloV7Tiny, AcceleratorId::Gpu, &frame)?;
//! assert!(report.latency_s > 0.0);
//! # Ok::<(), shift_soc::SocError>(())
//! ```

#![forbid(unsafe_code)]

pub mod accelerator;
pub mod arbiter;
pub mod device;
pub mod dvfs;
pub mod engine;
pub mod fault;
pub mod memory;
pub mod network;
pub mod occupancy;
pub mod platform;
pub mod power;
pub mod telemetry;

pub use accelerator::{AcceleratorId, AcceleratorSpec};
pub use arbiter::MemoryArbiter;
pub use device::DeviceClass;
pub use dvfs::PowerMode;
pub use engine::{ExecutionEngine, InferenceReport, LoadReport};
pub use fault::{
    FaultEdge, FaultInjector, FaultKind, FaultPlan, FaultResource, FaultSpec, FaultWindow,
};
pub use memory::MemoryPool;
pub use network::{NetworkLink, TransferReport};
pub use occupancy::{OccupancyTracker, Reservation};
pub use platform::Platform;
pub use power::{PowerModel, PowerRail};
pub use telemetry::{EnergyBreakdown, Telemetry};

use shift_models::{ExecutionTarget, ModelId};

/// Errors produced by the SoC simulator.
#[derive(Debug, Clone, PartialEq)]
pub enum SocError {
    /// The requested accelerator does not exist on this platform.
    UnknownAccelerator(AcceleratorId),
    /// The model cannot execute on the accelerator (unsupported layers /
    /// toolchain, mirroring the paper's DLA and OAK-D restrictions).
    IncompatiblePair {
        /// Model that was requested.
        model: ModelId,
        /// Accelerator that cannot run it.
        accelerator: AcceleratorId,
    },
    /// The model is not loaded on the accelerator and implicit loading was
    /// not requested.
    ModelNotLoaded {
        /// Model that was requested.
        model: ModelId,
        /// Accelerator it is missing from.
        accelerator: AcceleratorId,
    },
    /// The accelerator's memory pool cannot fit the model even after evicting
    /// everything else.
    OutOfMemory {
        /// Model that was requested.
        model: ModelId,
        /// Accelerator whose pool overflowed.
        accelerator: AcceleratorId,
        /// Memory required by the model, MB.
        required_mb: f64,
        /// Total pool capacity, MB.
        capacity_mb: f64,
    },
    /// The model id is not part of the zoo attached to the engine.
    UnknownModel(ModelId),
    /// The accelerator exists but is not accepting work (administratively
    /// disabled).
    AcceleratorOffline(AcceleratorId),
}

impl std::fmt::Display for SocError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SocError::UnknownAccelerator(id) => write!(f, "unknown accelerator {id}"),
            SocError::IncompatiblePair { model, accelerator } => {
                write!(f, "model {model} cannot execute on {accelerator}")
            }
            SocError::ModelNotLoaded { model, accelerator } => {
                write!(f, "model {model} is not loaded on {accelerator}")
            }
            SocError::OutOfMemory {
                model,
                accelerator,
                required_mb,
                capacity_mb,
            } => write!(
                f,
                "model {model} needs {required_mb} MB but {accelerator} has only {capacity_mb} MB"
            ),
            SocError::UnknownModel(model) => write!(f, "model {model} is not in the zoo"),
            SocError::AcceleratorOffline(id) => {
                write!(f, "accelerator {id} is offline and not accepting work")
            }
        }
    }
}

impl std::error::Error for SocError {}

/// Maps an accelerator instance to the execution-target class used by the
/// model zoo's reference measurements.
pub fn target_of(accelerator: AcceleratorId) -> ExecutionTarget {
    match accelerator {
        AcceleratorId::Cpu => ExecutionTarget::Cpu,
        AcceleratorId::Gpu => ExecutionTarget::Gpu,
        AcceleratorId::Dla0 | AcceleratorId::Dla1 => ExecutionTarget::Dla,
        AcceleratorId::OakD => ExecutionTarget::OakD,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn target_mapping_covers_all_accelerators() {
        assert_eq!(target_of(AcceleratorId::Cpu), ExecutionTarget::Cpu);
        assert_eq!(target_of(AcceleratorId::Gpu), ExecutionTarget::Gpu);
        assert_eq!(target_of(AcceleratorId::Dla0), ExecutionTarget::Dla);
        assert_eq!(target_of(AcceleratorId::Dla1), ExecutionTarget::Dla);
        assert_eq!(target_of(AcceleratorId::OakD), ExecutionTarget::OakD);
    }

    #[test]
    fn error_display_is_informative() {
        let err = SocError::IncompatiblePair {
            model: ModelId::SsdResnet50,
            accelerator: AcceleratorId::OakD,
        };
        assert!(err.to_string().contains("cannot execute"));
        let err = SocError::OutOfMemory {
            model: ModelId::YoloV7,
            accelerator: AcceleratorId::Gpu,
            required_mb: 280.0,
            capacity_mb: 100.0,
        };
        assert!(err.to_string().contains("280"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SocError>();
    }
}
