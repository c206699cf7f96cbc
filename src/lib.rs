//! # shift
//!
//! Workspace facade for the SHIFT reproduction (Davis & Belviranli,
//! *Context-aware Multi-Model Object Detection for Diversely Heterogeneous
//! Compute Systems*, DATE 2024).
//!
//! This thin root package exists for three reasons:
//!
//! 1. it hosts the cross-crate integration tests in `tests/` and the
//!    runnable walkthroughs in `examples/`,
//! 2. it re-exports every workspace crate under one name, so downstream
//!    code can depend on `shift` alone, and
//! 3. its manifest anchors the Cargo workspace.
//!
//! The actual system lives in the `crates/` directory; start with
//! [`core`] (`shift-core`) for the runtime and [`experiments`]
//! (`shift-experiments`) for the paper-reproduction harness.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use shift_baselines as baselines;
pub use shift_bench as bench;
pub use shift_core as core;
pub use shift_experiments as experiments;
pub use shift_metrics as metrics;
pub use shift_models as models;
pub use shift_soc as soc;
pub use shift_video as video;
