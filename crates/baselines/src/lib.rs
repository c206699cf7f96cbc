//! # shift-baselines
//!
//! The comparison runtimes evaluated alongside SHIFT in the paper:
//!
//! * [`single`] — a fixed (model, accelerator) pair executing every frame,
//!   the conventional "one DNN on the GPU" deployment.
//! * [`marlin`] — the Marlin policy (Apicharttrisorn et al., SenSys'19):
//!   instead of running the DNN on every frame, the system alternates between
//!   a lightweight tracker and the DNN, re-invoking the DNN when tracking
//!   degrades. `Marlin` uses YoloV7; `Marlin Tiny` uses YoloV7-Tiny.
//! * [`oracle`] — the paper's performance ceiling: an Oracle that runs every
//!   model on every frame at zero cost, keeps those above 0.5 IoU and picks
//!   the one optimizing the targeted metric (Energy, Accuracy or Latency).
//! * [`tracker`] — the NCC template tracker substrate Marlin builds on.
//!
//! Beyond the baselines the paper evaluates directly, the crate also
//! implements the related-work policies the paper argues against, so their
//! trade-offs can be measured on the same substrate:
//!
//! * [`offload`] — Glimpse-style edge-server offloading over a modeled
//!   wireless link, including outages and a local fallback.
//! * [`adavp`] — AdaVP-style adaptive input resolution plus frame skipping on
//!   a single GPU model.
//! * [`framehopper`] — FrameHopper-style selective frame processing driven by
//!   frame-to-frame similarity.
//!
//! All baselines emit the same [`shift_metrics::FrameRecord`] stream as the
//! SHIFT runtime, so the experiment harness can tabulate them side by side.

#![forbid(unsafe_code)]

pub mod adavp;
pub mod framehopper;
pub mod marlin;
pub mod offload;
pub mod oracle;
pub mod single;
pub mod tracker;

pub use adavp::{AdaVpConfig, AdaVpRuntime};
pub use framehopper::{FrameHopperConfig, FrameHopperRuntime};
pub use marlin::{MarlinConfig, MarlinRuntime};
pub use offload::{OffloadConfig, OffloadRuntime, OffloadStats};
pub use oracle::{OracleObjective, OracleRuntime};
pub use single::SingleModelRuntime;
pub use tracker::NccTracker;
