//! Stress workload sweep over the procedural scenario space.
//!
//! The paper's evaluation (and every other artifact in this harness) replays
//! the same six hand-written videos. This experiment instead drives SHIFT and
//! the baselines across the *generated* scenario space: the standard
//! [`ScenarioLibrary`] workload classes span a difficulty grid from a stable
//! indoor hover to a fog-bound extreme with scene-cut bursts, and each class
//! is instantiated `replicas` times by the seeded [`ScenarioGenerator`] (8
//! classes x 8 replicas = 64 scenarios at full fidelity). On top of the
//! sweep, a fleet *soak* feeds a generated mixed workload through
//! [`FleetRuntime`](shift_core::fleet::FleetRuntime) — many difficulties
//! contending for one SoC at once.
//!
//! Every (scenario, method) run reduces to one stable
//! [`ScenarioRow`] CSV line, so the whole sweep
//! is locked byte-for-byte by the golden determinism test, and every SHIFT
//! run is required to meet its class's accuracy goal.
//!
//! Run it with `cargo run --release -p shift-experiments --bin repro --
//! stress` (or `--smoke stress` for the reduced <= 8-scenario CI sweep).

use crate::workloads::paper_shift_config;
use crate::{fleet::FleetScalePoint, ExperimentContext, ExperimentError};
use shift_baselines::{MarlinConfig, OracleObjective};
use shift_core::fleet::StreamSpec;
use shift_metrics::{ScenarioBreakdown, ScenarioRow, Table, FLEET_CSV_HEADER, STREAM_CSV_HEADER};
use shift_video::{Scenario, ScenarioGenerator, ScenarioLibrary, ScenarioSpec};

/// The methodologies the sweep compares on every generated scenario, in row
/// order: SHIFT, the strongest single-model baseline and the energy oracle.
pub const METHODS: [&str; 3] = ["SHIFT", "Marlin", "Oracle E"];

/// Sweep and soak sizing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StressOptions {
    /// Generated scenarios per workload class.
    pub replicas: usize,
    /// Streams in the fleet soak.
    pub soak_streams: usize,
}

impl StressOptions {
    /// Full fidelity: 8 replicas per class (64 scenarios with the standard
    /// library) and a 6-stream soak.
    pub fn full() -> Self {
        Self {
            replicas: 8,
            soak_streams: 6,
        }
    }

    /// Reduced CI sweep: one replica per class (8 scenarios) and a 3-stream
    /// soak.
    pub fn smoke() -> Self {
        Self {
            replicas: 1,
            soak_streams: 3,
        }
    }
}

/// The generated difficulty grid for this context: `replicas` scenarios per
/// standard-library class, scaled to the context's scenario length. The
/// generator is seeded from the context seed, so the grid is a pure function
/// of `(ctx seed, replicas)`.
pub fn generated_grid(ctx: &ExperimentContext, replicas: usize) -> Vec<(ScenarioSpec, Scenario)> {
    let generator = ScenarioGenerator::new(ctx.seed());
    ScenarioLibrary::standard()
        .generate_grid(&generator, replicas)
        .into_iter()
        .map(|(spec, scenario)| (spec, ctx.scaled(scenario)))
        .collect()
}

/// Runs one methodology of [`METHODS`] over one generated scenario and
/// reduces it to its CSV row.
fn run_method(
    ctx: &ExperimentContext,
    spec: &ScenarioSpec,
    scenario: &Scenario,
    method: &str,
) -> Result<ScenarioRow, ExperimentError> {
    let records = match method {
        "SHIFT" => {
            let config = paper_shift_config().with_accuracy_goal(spec.accuracy_goal);
            ctx.run_shift(scenario, config)?
        }
        "Marlin" => ctx.run_marlin(scenario, MarlinConfig::standard())?,
        "Oracle E" => ctx.run_oracle(scenario, OracleObjective::Energy)?,
        other => unreachable!("unknown stress method {other}"),
    };
    Ok(ScenarioRow::from_records(
        scenario.name(),
        spec.name.clone(),
        spec.difficulty.label(),
        spec.environment.to_string(),
        method,
        spec.accuracy_goal,
        &records,
    ))
}

/// Runs the sweep: every methodology over every generated scenario, rows in
/// grid-major (class, replica, method) order. The `(scenario, method)` cells
/// run on the deterministic parallel executor with `ctx.jobs()` workers —
/// each cell owns an independent engine, and the index-ordered reduction
/// keeps the breakdown byte-identical to a sequential run for any worker
/// count.
///
/// # Errors
///
/// Propagates the first (lowest-indexed) failure from any run.
pub fn sweep(
    ctx: &ExperimentContext,
    options: &StressOptions,
) -> Result<ScenarioBreakdown, ExperimentError> {
    let grid = generated_grid(ctx, options.replicas);
    let cells: Vec<(usize, &str)> = grid
        .iter()
        .enumerate()
        .flat_map(|(scenario_index, _)| METHODS.map(|method| (scenario_index, method)))
        .collect();
    let rows =
        crate::executor::try_run_cells(ctx.jobs(), &cells, |_, &(scenario_index, method)| {
            let (spec, scenario) = &grid[scenario_index];
            run_method(ctx, spec, scenario, method)
        })?;
    let mut breakdown = ScenarioBreakdown::new();
    for row in rows {
        breakdown.push(row);
    }
    Ok(breakdown)
}

/// Runs the fleet soak: a generated mixed workload (classes cycled across
/// the difficulty grid) through the shared-SoC fleet runtime.
///
/// # Errors
///
/// Propagates fleet construction and execution failures.
pub fn soak(
    ctx: &ExperimentContext,
    options: &StressOptions,
) -> Result<FleetScalePoint, ExperimentError> {
    let generator = ScenarioGenerator::new(ctx.seed());
    let specs: Vec<StreamSpec> = ScenarioLibrary::standard()
        .sample_mixed(&generator, options.soak_streams)
        .into_iter()
        .enumerate()
        .map(|(i, (spec, scenario))| {
            let scenario = ctx.scaled(scenario);
            let config = paper_shift_config().with_accuracy_goal(spec.accuracy_goal);
            StreamSpec::new(format!("s{i:02}-{}", scenario.name()), scenario, config)
        })
        .collect();
    crate::fleet::run_specs(ctx, specs)
}

/// The stable machine-readable summary of the whole artifact: the
/// per-scenario sweep CSV followed by the soak's per-stream and fleet CSV
/// blocks. This is the byte sequence the golden determinism test locks.
///
/// # Errors
///
/// Propagates sweep and soak failures.
pub fn summary_csv(
    ctx: &ExperimentContext,
    options: &StressOptions,
) -> Result<String, ExperimentError> {
    let breakdown = sweep(ctx, options)?;
    let point = soak(ctx, options)?;
    let mut csv = breakdown.to_csv();
    csv.push_str(STREAM_CSV_HEADER);
    csv.push('\n');
    for stream in &point.per_stream {
        csv.push_str(&stream.csv_row());
        csv.push('\n');
    }
    csv.push_str(FLEET_CSV_HEADER);
    csv.push('\n');
    csv.push_str(&point.fleet.csv_row());
    csv.push('\n');
    Ok(csv)
}

/// Runs the sweep and the soak and renders the difficulty-grid table
/// (per-class aggregates + the soak).
///
/// # Errors
///
/// Propagates sweep and soak failures.
pub fn artifact(
    ctx: &ExperimentContext,
    options: &StressOptions,
) -> Result<Table, ExperimentError> {
    let breakdown = sweep(ctx, options)?;
    let point = soak(ctx, options)?;

    let mut table = Table::new(
        "Stress sweep: SHIFT vs baselines over the generated difficulty grid",
        &[
            "Class",
            "Diff",
            "Method",
            "Scen",
            "Frames",
            "IoU",
            "Succ",
            "E/Frame (J)",
            "p99 Lat (ms)",
            "Swaps/kF",
            "Goals",
        ],
    );
    for a in breakdown.aggregate_by_class() {
        table.push_row(vec![
            a.class.clone(),
            a.difficulty.clone(),
            a.method.clone(),
            a.scenarios.to_string(),
            a.frames.to_string(),
            format!("{:.3}", a.mean_iou),
            format!("{:.3}", a.success_rate),
            format!("{:.3}", a.energy_per_frame_j),
            format!("{:.1}", a.worst_p99_latency_s * 1e3),
            format!("{:.1}", a.swaps_per_kframe),
            format!("{}/{}", a.goals_met, a.scenarios),
        ]);
    }
    let soak_swaps: u64 = point.per_stream.iter().map(|s| s.model_swaps).sum();
    let soak_swaps_per_kframe = soak_swaps as f64 * 1000.0 / point.fleet.frames.max(1) as f64;
    table.push_row(vec![
        "fleet-soak".to_string(),
        "mixed".to_string(),
        "SHIFT".to_string(),
        point.streams.to_string(),
        point.fleet.frames.to_string(),
        "-".to_string(),
        "-".to_string(),
        format!("{:.3}", point.fleet.energy_per_frame_j),
        format!("{:.1}", point.fleet.p99_latency_s * 1e3),
        format!("{:.1}", soak_swaps_per_kframe),
        format!("{}/{}", point.fleet.streams_meeting_goal, point.streams),
    ]);

    Ok(table)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_covers_every_class_with_the_requested_replicas() {
        let ctx = ExperimentContext::quick(31);
        let grid = generated_grid(&ctx, 2);
        assert_eq!(grid.len(), ScenarioLibrary::standard().len() * 2);
        for (spec, scenario) in &grid {
            assert!(scenario.name().starts_with(&spec.name));
            assert!(
                scenario.num_frames() >= 30,
                "scaled scenarios keep the 30-frame floor"
            );
        }
    }

    #[test]
    fn smoke_sweep_meets_every_shift_goal() {
        let ctx = ExperimentContext::quick(32);
        let breakdown = sweep(&ctx, &StressOptions::smoke()).expect("sweep runs");
        assert_eq!(
            breakdown.len(),
            ScenarioLibrary::standard().len() * METHODS.len()
        );
        let (met, total) = breakdown.goal_attainment("SHIFT");
        assert_eq!(
            met, total,
            "every SHIFT run in the sweep must meet its accuracy goal"
        );
        for row in breakdown.rows() {
            assert!(row.frames > 0);
            assert!((0.0..=1.0).contains(&row.mean_iou));
        }
    }

    #[test]
    fn soak_runs_the_mixed_workload_and_meets_goals() {
        let ctx = ExperimentContext::quick(33);
        let point = soak(&ctx, &StressOptions::smoke()).expect("soak runs");
        assert_eq!(point.streams, 3);
        assert_eq!(
            point.fleet.streams_meeting_goal, point.streams,
            "every soak stream must meet its accuracy goal"
        );
        assert!(point.fleet.frames > 0);
    }

    #[test]
    fn summary_csv_is_reproducible_and_well_formed() {
        let run = || {
            let ctx = ExperimentContext::quick(34);
            summary_csv(&ctx, &StressOptions::smoke()).expect("csv builds")
        };
        let a = run();
        assert_eq!(a, run(), "stress summary must be byte-identical");
        assert!(a.starts_with(shift_metrics::SCENARIO_CSV_HEADER));
        assert!(a.contains(STREAM_CSV_HEADER));
        assert!(a.contains(FLEET_CSV_HEADER));
    }

    #[test]
    fn artifact_renders_the_grid_and_the_soak_row() {
        let ctx = ExperimentContext::quick(35);
        let table = artifact(&ctx, &StressOptions::smoke()).expect("artifact builds");
        let md = table.to_markdown();
        for method in METHODS {
            assert!(md.contains(method), "missing {method}");
        }
        assert!(md.contains("fleet-soak"));
        assert!(md.contains("stable-scene"));
    }
}
