//! # shift-metrics
//!
//! Per-frame records, run summaries, statistics and report tables for the
//! SHIFT reproduction.
//!
//! Every runtime in this workspace (SHIFT, the single-model baselines, Marlin
//! and the Oracles) reduces its execution to a sequence of [`FrameRecord`]s.
//! [`RunSummary`] aggregates them into exactly the columns of the paper's
//! Table III (average IoU, time, energy, success rate, non-GPU share, model
//! swaps, pairs used), [`Timeline`] produces the per-frame efficiency series
//! behind Figures 2-4, and [`report`] renders aligned text / markdown tables
//! for the reproduction harness. For multi-stream (fleet) runs,
//! [`StreamSummary`] and [`FleetSummary`] add the statistics that only
//! matter under contention: tail latencies (p50/p99), queueing delay,
//! joules per stream and per-stream accuracy-goal attainment. For generated
//! workload sweeps, [`ScenarioRow`] and [`ScenarioBreakdown`] reduce each
//! (scenario, method) run to a stable CSV row and roll the sweep up per
//! workload class. For fault-injected (chaos) runs, [`ResilienceRow`] and
//! [`ResilienceBreakdown`] split every metric by fault activity — goal
//! attainment inside vs outside fault windows, degraded-frame fraction and
//! recovery latency in frames. For the adversarial scenario hunt
//! (`repro -- hunt`), [`HuntRow`] and [`HuntReport`] reduce every minimized
//! finding to a stable findings-CSV row. For fleet-service (serving) runs,
//! [`SessionRow`] and [`SessionReport`] reduce every session lifecycle —
//! admitted, degraded, rejected, detached or shed — to a stable CSV row
//! plus the serving aggregates (admission latency, time-in-degrade, churn).
//!
//! ```
//! use shift_metrics::{FrameRecord, RunSummary};
//! use shift_models::ModelId;
//! use shift_soc::AcceleratorId;
//!
//! let records = vec![
//!     FrameRecord::new(0, ModelId::YoloV7, AcceleratorId::Gpu, 0.7, 0.13, 1.9, false),
//!     FrameRecord::new(1, ModelId::YoloV7Tiny, AcceleratorId::Dla0, 0.55, 0.03, 0.2, true),
//! ];
//! let summary = RunSummary::from_records("demo", &records);
//! assert_eq!(summary.frames, 2);
//! assert!(summary.success_rate > 0.99);
//! ```

#![forbid(unsafe_code)]

pub mod breakdown;
pub mod cluster;
pub mod curve;
pub mod export;
pub mod fleet;
pub mod hunt;
pub mod record;
pub mod report;
pub mod resilience;
pub mod session;
pub mod stats;
pub mod summary;
pub mod timeline;
pub mod timing;

pub use breakdown::{BreakdownAggregate, ScenarioBreakdown, ScenarioRow, SCENARIO_CSV_HEADER};
pub use cluster::{cluster_capacity_to_csv, ClusterCapacityRow, CLUSTER_CSV_HEADER};
pub use curve::{
    accuracy_energy_frontier, average_success, run_efficiency, success_curve, FrontierPoint,
    ThresholdPoint,
};
pub use export::{
    records_to_csv, records_to_json, series_to_csv, summaries_to_csv, summaries_to_json,
};
pub use fleet::{FleetSummary, StreamSummary, FLEET_CSV_HEADER, STREAM_CSV_HEADER};
pub use hunt::{HuntReport, HuntRow, HUNT_CSV_HEADER};
pub use record::FrameRecord;
pub use report::Table;
pub use resilience::{
    ResilienceAggregate, ResilienceBreakdown, ResilienceRow, RESILIENCE_CSV_HEADER,
};
pub use session::{SessionReport, SessionRow, SESSION_CSV_HEADER};
pub use stats::{mean, pearson_correlation, percentile, std_dev};
pub use summary::RunSummary;
pub use timeline::Timeline;
pub use timing::TimingRow;
