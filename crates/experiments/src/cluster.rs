//! Cluster capacity planning: diurnal trace replay over 1→8 SoCs
//! (`repro -- cluster`).
//!
//! The serve experiment drives one `FleetService`; this one drives the
//! placement layer above it ([`shift_core::cluster`]): clusters of 1 to 8
//! simulated SoCs of cycling device classes (NX-class, OAK-D-only,
//! GPU-rich), each node running its own service over its own per-platform
//! characterization. One *fixed* seeded diurnal session trace — bursty
//! daytime arrivals, sparse night arrivals, mixed deadline classes and
//! mid-run departures, seeded exactly like the serve churn trace — is
//! replayed against every cluster size, so the capacity curve answers the
//! planning question directly: how do streams-per-joule and p99 latency
//! move as the same offered load spreads over more nodes?
//!
//! Each size reduces to one `CLUSTER_capacity.csv` row
//! ([`shift_metrics::ClusterCapacityRow`]). Sizes run as cells on the
//! deterministic parallel executor and reduce in size order, and the
//! scheduler adds no clocks or randomness beyond the seeded trace, so the
//! artifact is **byte-identical for any `--jobs` count** — the same
//! contract every artifact in this workspace honours.

use crate::fleet::roster;
use crate::{ExperimentContext, ExperimentError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use shift_core::cluster::{ClusterBuilder, ClusterPolicy, ClusterSessionId};
use shift_core::service::{AttachRequest, DeadlineClass};
use shift_core::{Characterization, ShiftConfig};
use shift_metrics::{cluster_capacity_to_csv, ClusterCapacityRow, Table};
use shift_soc::DeviceClass;
use std::collections::BTreeMap;

/// Largest cluster the capacity sweep covers (sizes 1 through this).
pub const MAX_CLUSTER_SIZE: usize = 8;

/// Sizing knobs of the cluster experiment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterOptions {
    /// Attach requests in the diurnal trace (the fixed offered load every
    /// cluster size replays).
    pub sessions: usize,
    /// Per-session frame cap, keeping full-fidelity traces tractable.
    pub max_frames: usize,
    /// Length of one simulated day on the cluster clock; the first half is
    /// daytime (bursty arrivals), the second half night (sparse arrivals).
    pub day_period: u64,
    /// Rebalance cadence handed to [`ClusterPolicy`].
    pub rebalance_period: u64,
    /// Rebalance load gap handed to [`ClusterPolicy`].
    pub rebalance_gap: f64,
}

impl ClusterOptions {
    /// Full sizing: 24 sessions over a 48-tick day.
    pub fn full() -> Self {
        Self {
            sessions: 24,
            max_frames: 90,
            day_period: 48,
            rebalance_period: 6,
            rebalance_gap: 0.9,
        }
    }

    /// CI smoke sizing: 10 sessions over a 24-tick day. Still covers every
    /// cluster size 1→8 — only the per-size load shrinks.
    pub fn smoke() -> Self {
        Self {
            sessions: 10,
            max_frames: 24,
            day_period: 24,
            rebalance_period: 6,
            rebalance_gap: 0.9,
        }
    }
}

/// One scheduled operation of the diurnal trace.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterTraceEntry {
    /// The cluster tick the operation fires at.
    pub tick: u64,
    /// The operation.
    pub op: ClusterTraceOp,
}

/// The diurnal trace's operation vocabulary.
#[derive(Debug, Clone, PartialEq)]
pub enum ClusterTraceOp {
    /// Attach a session (boxed: a request carries its whole scenario).
    Attach(Box<AttachRequest>),
    /// Detach a session scheduled earlier in this trace.
    Detach(ClusterSessionId),
}

/// Generates the seeded diurnal trace: arrival gaps follow a day/night load
/// curve (daytime arrivals land 0-2 ticks apart, night arrivals 3-8), goals
/// and deadline classes churn like the serve trace (a quarter of requests
/// are deliberately greedy), and two in five sessions detach mid-run. The
/// trace is a pure function of the context seed — the same `(seed, index)
/// -> workload` purity contract the serve and stress sweeps rely on — and
/// every cluster size replays the identical trace.
///
/// Cluster session ids mint in schedule order, so the `i`-th attach is
/// session `i + 1` whether or not it is admitted.
pub fn diurnal_trace(ctx: &ExperimentContext, options: &ClusterOptions) -> Vec<ClusterTraceEntry> {
    let mut rng = StdRng::seed_from_u64(
        ctx.seed()
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(0xC1A5),
    );
    let roster = roster();
    let mut entries = Vec::new();
    let mut tick = 0u64;
    for i in 0..options.sessions {
        let daytime = tick % options.day_period < options.day_period / 2;
        tick += if daytime {
            rng.gen_range(0..3)
        } else {
            rng.gen_range(3..9)
        };
        let (scenario, goal) = &roster[rng.gen_range(0..roster.len())];
        let scenario = ctx.scaled(scenario.clone());
        let frames = scenario.num_frames().min(options.max_frames);
        let reseed = scenario.seed().wrapping_add(9000 + 100 * i as u64);
        let scenario = scenario.with_num_frames(frames).with_seed(reseed);
        // A quarter of the requests are greedy, exercising each node's
        // degrade ladder and giving overload shedding victims.
        let goal = if rng.gen_range(0..4) == 0 { 0.9 } else { *goal };
        let deadline = match rng.gen_range(0..3) {
            0 => DeadlineClass::Interactive,
            1 => DeadlineClass::Standard,
            _ => DeadlineClass::Batch,
        };
        entries.push(ClusterTraceEntry {
            tick,
            op: ClusterTraceOp::Attach(Box::new(AttachRequest::new(
                format!("diurnal-cam{i:02}"),
                scenario,
                ShiftConfig::paper_defaults().with_accuracy_goal(goal),
                deadline,
            ))),
        });
        // Two in five sessions detach mid-run instead of draining.
        if rng.gen_range(0..5) < 2 {
            let lifetime = rng.gen_range(8..50);
            entries.push(ClusterTraceEntry {
                tick: tick + lifetime,
                op: ClusterTraceOp::Detach(ClusterSessionId::from_value(i as u64 + 1)),
            });
        }
    }
    entries
}

/// The device classes of a cluster of `size` nodes: the three classes
/// cycled in node order (node 0 NX-class, node 1 OAK-D-only, node 2
/// GPU-rich, node 3 NX-class again, ...).
pub fn node_classes(size: usize) -> Vec<DeviceClass> {
    (0..size)
        .map(|i| DeviceClass::ALL[i % DeviceClass::ALL.len()])
        .collect()
}

/// Per-class characterizations over the context's validation dataset,
/// computed once and shared by every cluster-size cell.
pub fn class_characterizations(ctx: &ExperimentContext) -> BTreeMap<DeviceClass, Characterization> {
    DeviceClass::ALL
        .iter()
        .map(|&class| (class, ctx.characterize_on(class.platform())))
        .collect()
}

/// Everything one cluster size produces.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterSizePoint {
    /// The cluster size.
    pub size: usize,
    /// The capacity row.
    pub row: ClusterCapacityRow,
}

/// Replays the diurnal trace against a cluster of `size` nodes and reduces
/// the run to its capacity row.
///
/// # Errors
///
/// Propagates cluster construction and execution failures.
pub fn run_size(
    ctx: &ExperimentContext,
    size: usize,
    options: &ClusterOptions,
    characterizations: &BTreeMap<DeviceClass, Characterization>,
) -> Result<ClusterSizePoint, ExperimentError> {
    let classes = node_classes(size);
    let mut builder = ClusterBuilder::new().policy(
        ClusterPolicy::defaults().with_rebalance(options.rebalance_period, options.rebalance_gap),
    );
    for &class in &classes {
        builder = builder.node(
            class,
            ctx.engine_on(class.platform()),
            characterizations[&class].clone(),
        );
    }
    let mut cluster = builder.build()?;
    for entry in diurnal_trace(ctx, options) {
        match entry.op {
            ClusterTraceOp::Attach(request) => {
                cluster.schedule_attach(entry.tick, *request);
            }
            ClusterTraceOp::Detach(id) => cluster.schedule_detach(entry.tick, id),
        }
    }
    let outcomes = cluster.run_until_idle()?;
    let latencies: Vec<f64> = outcomes.iter().map(|o| o.inner.outcome.latency_s).collect();
    let energy_j: f64 = outcomes.iter().map(|o| o.inner.outcome.energy_j).sum();
    let sessions = cluster.sessions();
    let admitted = sessions.iter().filter(|s| s.rejected.is_none()).count();
    let rejected = sessions.len() - admitted;
    let shed = sessions.iter().filter(|s| s.shed).count();
    let labels: Vec<&str> = classes.iter().map(|c| c.label()).collect();
    let row = ClusterCapacityRow::from_run(
        size,
        labels.join("+"),
        sessions.len(),
        admitted,
        rejected,
        shed,
        cluster.migrations().len(),
        &latencies,
        energy_j,
    );
    Ok(ClusterSizePoint { size, row })
}

/// The cluster artifact: the capacity table plus the `CLUSTER_capacity.csv`
/// payload.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterArtifact {
    /// Per-size summary (what `repro` prints).
    pub table: Table,
    /// The capacity CSV, one row per cluster size 1→8.
    pub csv: String,
}

/// Runs every cluster size 1→[`MAX_CLUSTER_SIZE`] as an executor cell and
/// reduces the rows in size order — the artifact is byte-identical for any
/// `ctx.jobs()`.
///
/// # Errors
///
/// Propagates the first (smallest-size) failure.
pub fn artifact(
    ctx: &ExperimentContext,
    options: &ClusterOptions,
) -> Result<ClusterArtifact, ExperimentError> {
    let characterizations = class_characterizations(ctx);
    let sizes: Vec<usize> = (1..=MAX_CLUSTER_SIZE).collect();
    let points = crate::executor::try_run_cells(ctx.jobs(), &sizes, |_, &size| {
        run_size(ctx, size, options, &characterizations)
    })?;
    let rows: Vec<ClusterCapacityRow> = points.iter().map(|p| p.row.clone()).collect();
    let mut table = Table::new(
        "Cluster capacity: diurnal trace replay over 1-8 heterogeneous SoCs",
        &[
            "Size",
            "Classes",
            "Offered",
            "Admitted",
            "Rejected",
            "Shed",
            "Migrations",
            "Frames",
            "Energy (J)",
            "Streams/kJ",
            "p99 (s)",
        ],
    );
    for row in &rows {
        table.push_row(vec![
            row.cluster_size.to_string(),
            row.node_classes.clone(),
            row.offered.to_string(),
            row.admitted.to_string(),
            row.rejected.to_string(),
            row.shed.to_string(),
            row.migrations.to_string(),
            row.frames.to_string(),
            format!("{:.1}", row.energy_j),
            format!("{:.3}", row.streams_per_joule * 1000.0),
            format!("{:.3}", row.p99_latency_s),
        ]);
    }
    Ok(ClusterArtifact {
        table,
        csv: cluster_capacity_to_csv(&rows),
    })
}

/// Generates the cluster table alone (the `repro` fallback when only the
/// printed table is wanted).
///
/// # Errors
///
/// Propagates size failures.
pub fn generate(ctx: &ExperimentContext) -> Result<Table, ExperimentError> {
    let options = if ctx.scale() < 1.0 {
        ClusterOptions::smoke()
    } else {
        ClusterOptions::full()
    };
    Ok(artifact(ctx, &options)?.table)
}

#[cfg(test)]
mod tests {
    use super::*;
    use shift_metrics::CLUSTER_CSV_HEADER;

    #[test]
    fn diurnal_trace_is_pure_and_tick_sorted() {
        let ctx = ExperimentContext::quick(41);
        let options = ClusterOptions::smoke();
        assert_eq!(diurnal_trace(&ctx, &options), diurnal_trace(&ctx, &options));
        let other = ExperimentContext::quick(42);
        assert_ne!(
            diurnal_trace(&ctx, &options),
            diurnal_trace(&other, &options)
        );
        let attach_ticks: Vec<u64> = diurnal_trace(&ctx, &options)
            .iter()
            .filter(|e| matches!(e.op, ClusterTraceOp::Attach(_)))
            .map(|e| e.tick)
            .collect();
        assert_eq!(attach_ticks.len(), options.sessions);
        assert!(attach_ticks.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn classes_cycle_in_node_order() {
        assert_eq!(node_classes(1), vec![DeviceClass::NxClass]);
        assert_eq!(
            node_classes(4),
            vec![
                DeviceClass::NxClass,
                DeviceClass::OakDOnly,
                DeviceClass::GpuRich,
                DeviceClass::NxClass,
            ]
        );
    }

    #[test]
    fn capacity_row_reflects_the_offered_load() {
        let ctx = ExperimentContext::quick(43);
        let options = ClusterOptions::smoke();
        let characterizations = class_characterizations(&ctx);
        let point = run_size(&ctx, 2, &options, &characterizations).unwrap();
        assert_eq!(point.row.cluster_size, 2);
        assert_eq!(point.row.node_classes, "nx+oak-d");
        assert_eq!(point.row.offered, options.sessions);
        assert!(point.row.admitted > 0);
        assert!(point.row.frames > 0);
        assert!(point.row.energy_j > 0.0);
        assert!(point.row.p99_latency_s >= point.row.p50_latency_s);
    }

    #[test]
    fn artifact_covers_every_size_and_is_byte_identical() {
        let options = ClusterOptions::smoke();
        let run = |jobs: usize| {
            let ctx = ExperimentContext::quick(44).with_jobs(jobs);
            artifact(&ctx, &options).unwrap().csv.into_bytes()
        };
        let reference = run(1);
        assert_eq!(reference, run(4));
        assert_eq!(reference, run(2));
        let csv = String::from_utf8(reference).unwrap();
        assert!(csv.starts_with(CLUSTER_CSV_HEADER));
        assert_eq!(csv.lines().count(), 1 + MAX_CLUSTER_SIZE);
    }

    #[test]
    fn table_renders_one_row_per_size() {
        let ctx = ExperimentContext::quick(45);
        let table = generate(&ctx).unwrap();
        assert_eq!(table.row_count(), MAX_CLUSTER_SIZE);
        assert!(table.to_markdown().contains("Migrations"));
    }
}
