//! # shift-bench
//!
//! The workspace's **perf-regression subsystem**, the micro half of its
//! measurement stack (the end-to-end half is the separate `perfbench/`
//! package):
//!
//! * [`suite`] — a fixed set of named micro benches over the hot paths
//!   (confidence-graph lookup, scheduler arg-max, NCC context detection,
//!   LRU loader churn, fleet step), each reduced to a
//!   [`TimingRow`](shift_metrics::TimingRow);
//! * [`snapshot`] — the machine-readable `BENCH_micro.json` format and the
//!   minimal JSON parser it needs in this serde_json-less workspace;
//! * [`compare`] — the CI gate: diffs two snapshots and fails past the
//!   ±[`GATE_BAND`](compare::GATE_BAND) regression band.
//!
//! `cargo run -p shift-experiments --bin repro -- bench` runs the suite and
//! writes the snapshot; `repro -- bench-compare <baseline> <current>` gates
//! it.

#![forbid(unsafe_code)]

pub mod compare;
pub mod snapshot;
pub mod suite;
