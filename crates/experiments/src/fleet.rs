//! Fleet-scaling experiment: many concurrent streams on one shared SoC.
//!
//! The paper deploys SHIFT one-stream-per-SoC; this experiment asks the
//! production question the shared-memory loader (§III-C) hints at: what
//! happens when 1 → 16 streams of mixed difficulty contend for the same
//! accelerators and memory pools? For each fleet size it reports aggregate
//! energy per frame (expected to *drop* as streams reuse each other's
//! resident models), tail latency (expected to *rise* as engines saturate),
//! fleet throughput and per-stream accuracy-goal attainment.
//!
//! Run it with `cargo run --release -p shift-experiments --bin repro --
//! fleet`.

use crate::{outcome_to_record, ExperimentContext, ExperimentError};
use shift_core::fleet::{FleetBuilder, FleetConfig, StreamSpec};
use shift_core::ShiftConfig;
use shift_metrics::{FleetSummary, FrameRecord, StreamSummary, Table};
use shift_video::Scenario;

/// Fleet sizes swept by the full experiment.
pub const FULL_FLEET_SIZES: [usize; 5] = [1, 2, 4, 8, 16];

/// Fleet sizes swept in `--quick` mode.
pub const QUICK_FLEET_SIZES: [usize; 3] = [1, 2, 4];

/// The mixed-difficulty roster streams are drawn from, with each entry's
/// per-stream accuracy goal. The ordering interleaves hard outdoor and easy
/// indoor scenarios so every fleet size mixes difficulties, and goals are
/// matched to what each scenario can sustain (the easy indoor hover is held
/// to a stricter goal than the long-range surveillance video).
pub fn roster() -> Vec<(Scenario, f64)> {
    vec![
        (Scenario::scenario_1(), 0.25),
        (Scenario::scenario_3(), 0.35),
        (Scenario::scenario_2(), 0.25),
        (Scenario::scenario_4(), 0.25),
        (Scenario::scenario_6(), 0.25),
        (Scenario::scenario_5(), 0.20),
    ]
}

/// Builds the specs of an `n`-stream fleet: roster entries cycled in order,
/// re-seeded per stream so repeated scenarios differ in content while still
/// sharing hot (model, accelerator) pairs.
pub fn stream_specs(ctx: &ExperimentContext, n: usize) -> Vec<StreamSpec> {
    let roster = roster();
    (0..n)
        .map(|i| {
            let (scenario, goal) = &roster[i % roster.len()];
            let scenario = ctx.scaled(scenario.clone()).with_seed(
                scenario
                    .seed()
                    .wrapping_add(1000 * (i / roster.len()) as u64),
            );
            let config = ShiftConfig::paper_defaults().with_accuracy_goal(*goal);
            StreamSpec::new(format!("s{i:02}-{}", scenario.name()), scenario, config)
        })
        .collect()
}

/// Everything measured for one fleet size.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetScalePoint {
    /// Number of streams.
    pub streams: usize,
    /// Fleet-aggregate summary.
    pub fleet: FleetSummary,
    /// Per-stream summaries, in stream order.
    pub per_stream: Vec<StreamSummary>,
    /// Total model loads performed by the shared engine.
    pub load_count: u64,
    /// Model loads per processed frame (the cross-stream reuse signal:
    /// drops as streams share resident models).
    pub loads_per_frame: f64,
}

/// Runs one fleet of `n` roster streams and aggregates it.
///
/// # Errors
///
/// Propagates fleet construction and execution failures.
pub fn run_fleet(ctx: &ExperimentContext, n: usize) -> Result<FleetScalePoint, ExperimentError> {
    run_specs(ctx, stream_specs(ctx, n))
}

/// Runs one fleet over explicit stream specs and aggregates it (used by the
/// scaling sweep above and by the stress soak over generated scenarios).
///
/// # Errors
///
/// Propagates fleet construction and execution failures.
pub fn run_specs(
    ctx: &ExperimentContext,
    specs: Vec<StreamSpec>,
) -> Result<FleetScalePoint, ExperimentError> {
    let n = specs.len();
    let mut fleet = FleetBuilder::new(ctx.engine(), ctx.characterization())
        .config(FleetConfig::round_robin())
        .streams(specs)
        .build()?;
    let outcomes = fleet.run_to_completion()?;

    let mut records: Vec<Vec<FrameRecord>> = vec![Vec::new(); n];
    let mut waits: Vec<Vec<f64>> = vec![Vec::new(); n];
    let mut all_latencies = Vec::with_capacity(outcomes.len());
    for o in &outcomes {
        records[o.stream].push(outcome_to_record(&o.outcome));
        waits[o.stream].push(o.queue_wait_s);
        all_latencies.push(o.outcome.latency_s);
    }
    let per_stream: Vec<StreamSummary> = fleet
        .handles()
        .into_iter()
        .enumerate()
        .map(|(i, handle)| {
            let view = fleet.stream(handle);
            StreamSummary::new(view.name(), view.goal(), &records[i], &waits[i])
        })
        .collect();
    let summary = FleetSummary::from_streams(&per_stream, &all_latencies, fleet.makespan_s());
    let load_count = fleet.engine().telemetry().load_count;
    let loads_per_frame = if summary.frames == 0 {
        0.0
    } else {
        load_count as f64 / summary.frames as f64
    };
    Ok(FleetScalePoint {
        streams: n,
        fleet: summary,
        per_stream,
        load_count,
        loads_per_frame,
    })
}

/// Runs the scaling sweep over the given fleet sizes. Fleet sizes run as
/// cells on the deterministic parallel executor (`ctx.jobs()` workers); each
/// fleet owns an independent engine and results reduce in size order, so the
/// sweep is byte-identical for any worker count.
///
/// # Errors
///
/// Propagates the first (lowest-indexed) fleet failure.
pub fn scaling(
    ctx: &ExperimentContext,
    sizes: &[usize],
) -> Result<Vec<FleetScalePoint>, ExperimentError> {
    crate::executor::try_run_cells(ctx.jobs(), sizes, |_, &n| run_fleet(ctx, n))
}

/// Generates the fleet-scaling table (full sizes at full fidelity, reduced
/// sizes for quick contexts).
///
/// # Errors
///
/// Propagates the first fleet failure.
pub fn generate(ctx: &ExperimentContext) -> Result<Table, ExperimentError> {
    let sizes: &[usize] = if ctx.scale() < 1.0 {
        &QUICK_FLEET_SIZES
    } else {
        &FULL_FLEET_SIZES
    };
    let points = scaling(ctx, sizes)?;
    let mut table = Table::new(
        "Fleet scaling: N concurrent mixed-difficulty streams on one shared SoC",
        &[
            "Streams",
            "Frames",
            "p50 Lat (ms)",
            "p99 Lat (ms)",
            "Wait (ms)",
            "Energy/Frame (J)",
            "Energy/Stream (J)",
            "Loads/kFrame",
            "Throughput (fps)",
            "Goals Met",
        ],
    );
    for p in &points {
        table.push_row(vec![
            p.streams.to_string(),
            p.fleet.frames.to_string(),
            format!("{:.1}", p.fleet.p50_latency_s * 1e3),
            format!("{:.1}", p.fleet.p99_latency_s * 1e3),
            format!("{:.1}", p.fleet.mean_queue_wait_s * 1e3),
            format!("{:.3}", p.fleet.energy_per_frame_j),
            format!("{:.1}", p.fleet.energy_per_stream_j),
            format!("{:.2}", p.loads_per_frame * 1e3),
            format!("{:.1}", p.fleet.throughput_fps),
            format!("{}/{}", p.fleet.streams_meeting_goal, p.streams),
        ]);
    }
    Ok(table)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_cycle_the_roster_with_distinct_seeds() {
        let ctx = ExperimentContext::quick(21);
        let specs = stream_specs(&ctx, 8);
        assert_eq!(specs.len(), 8);
        // Streams 0 and 6 replay the same scenario shape with different
        // seeds and therefore different content.
        assert_eq!(specs[0].scenario.name(), specs[6].scenario.name());
        assert_ne!(specs[0].scenario.seed(), specs[6].scenario.seed());
        // Goals follow the roster.
        assert_eq!(specs[1].config.accuracy_goal, 0.35);
        assert_eq!(specs[5].config.accuracy_goal, 0.20);
    }

    #[test]
    fn scaling_amortizes_loads_and_meets_goals() {
        let ctx = ExperimentContext::quick(22);
        let points = scaling(&ctx, &QUICK_FLEET_SIZES).unwrap();
        assert_eq!(points.len(), 3);
        let one = &points[0];
        let four = &points[2];
        assert!(
            four.fleet.energy_per_frame_j < one.fleet.energy_per_frame_j,
            "model reuse must drop aggregate energy/frame from 1 to 4 streams \
             ({} J vs {} J)",
            one.fleet.energy_per_frame_j,
            four.fleet.energy_per_frame_j
        );
        assert!(
            four.loads_per_frame <= one.loads_per_frame,
            "shared residency must not increase loads per frame"
        );
        for p in &points {
            assert_eq!(
                p.fleet.streams_meeting_goal, p.streams,
                "every stream must meet its accuracy goal at {} streams",
                p.streams
            );
            assert_eq!(p.fleet.frames, p.per_stream.iter().map(|s| s.frames).sum());
        }
    }

    #[test]
    fn scaling_is_reproducible_from_the_seed() {
        let run = || {
            let ctx = ExperimentContext::quick(23);
            run_fleet(&ctx, 3).unwrap()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn table_renders_one_row_per_fleet_size() {
        let ctx = ExperimentContext::quick(24);
        let table = generate(&ctx).unwrap();
        assert_eq!(table.row_count(), QUICK_FLEET_SIZES.len());
        assert!(table.to_markdown().contains("Goals Met"));
    }
}
