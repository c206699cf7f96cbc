//! Fleet walkthrough: six concurrent video streams sharing one SoC.
//!
//! Where `quickstart.rs` runs the paper's one-stream-per-SoC deployment,
//! this example drives a whole fleet — six mixed-difficulty streams, each
//! with its own accuracy goal, contending for the same accelerators and
//! memory pools — and prints the per-stream and fleet-aggregate summaries.
//!
//! ```text
//! cargo run --release --example fleet
//! ```

use shift_core::fleet::{FleetBuilder, StreamSpec};
use shift_core::{characterize, ShiftConfig};
use shift_metrics::{FleetSummary, FrameRecord, StreamSummary, Table};
use shift_models::{ModelZoo, ResponseModel};
use shift_soc::{ExecutionEngine, Platform};
use shift_video::CharacterizationDataset;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. One shared platform and one shared offline characterization: the
    //    whole fleet lives on a single Xavier NX + OAK-D.
    let engine = ExecutionEngine::new(
        Platform::xavier_nx_with_oak(),
        ModelZoo::standard(),
        ResponseModel::new(7),
    );
    println!("characterizing the model zoo (shared by all streams)...");
    let characterization = characterize(&engine, &CharacterizationDataset::generate(400, 7));

    // 2. Six streams of mixed difficulty, each with its own accuracy goal —
    //    the same roster the fleet-scaling experiment sweeps (the easy
    //    indoor hover is held to a stricter goal than the long-range
    //    surveillance video), shortened to keep the walkthrough snappy.
    let specs: Vec<StreamSpec> = shift_experiments::fleet::roster()
        .into_iter()
        .enumerate()
        .map(|(i, (scenario, goal))| {
            let scenario = scenario.with_num_frames(200);
            StreamSpec::new(
                format!("s{i}-{}", scenario.name()),
                scenario,
                ShiftConfig::paper_defaults().with_accuracy_goal(goal),
            )
        })
        .collect();

    // 3. Run the fleet with round-robin admission. Streams share resident
    //    models (a load one stream pays is free for its twins) and queue
    //    when they collide on an accelerator.
    println!("running {} streams to completion...\n", specs.len());
    let mut fleet = FleetBuilder::new(engine, &characterization)
        .streams(specs)
        .build()?;
    let outcomes = fleet.run_to_completion()?;

    // 4. Reduce to per-stream and fleet-aggregate summaries.
    let n = fleet.stream_count();
    let mut records: Vec<Vec<FrameRecord>> = vec![Vec::new(); n];
    let mut waits: Vec<Vec<f64>> = vec![Vec::new(); n];
    let mut latencies = Vec::with_capacity(outcomes.len());
    for o in &outcomes {
        records[o.stream].push(shift_experiments::outcome_to_record(&o.outcome));
        waits[o.stream].push(o.queue_wait_s);
        latencies.push(o.outcome.latency_s);
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

    let mut table = Table::new(
        "Per-stream summary",
        &[
            "Stream",
            "Goal",
            "IoU",
            "Success",
            "p50 (ms)",
            "p99 (ms)",
            "Wait (ms)",
            "J/frame",
            "Goal met",
        ],
    );
    for s in &per_stream {
        table.push_row(vec![
            s.label.clone(),
            format!("{:.2}", s.accuracy_goal),
            format!("{:.3}", s.mean_iou),
            format!("{:.0}%", s.success_rate * 100.0),
            format!("{:.1}", s.p50_latency_s * 1e3),
            format!("{:.1}", s.p99_latency_s * 1e3),
            format!("{:.1}", s.mean_queue_wait_s * 1e3),
            format!("{:.3}", s.mean_energy_j),
            if s.meets_goal { "yes" } else { "NO" }.to_string(),
        ]);
    }
    println!("{}", table.to_text());

    let fleet_summary = FleetSummary::from_streams(&per_stream, &latencies, fleet.makespan_s());
    println!(
        "\nfleet: {} streams, {} frames | p50 {:.1} ms, p99 {:.1} ms | \
         {:.3} J/frame, {:.1} J/stream | {:.1} fps | {}/{} goals met",
        fleet_summary.streams,
        fleet_summary.frames,
        fleet_summary.p50_latency_s * 1e3,
        fleet_summary.p99_latency_s * 1e3,
        fleet_summary.energy_per_frame_j,
        fleet_summary.energy_per_stream_j,
        fleet_summary.throughput_fps,
        fleet_summary.streams_meeting_goal,
        fleet_summary.streams,
    );
    println!(
        "shared engine: {} inferences, {} model loads, {} evictions",
        fleet.engine().telemetry().inference_count,
        fleet.engine().telemetry().load_count,
        fleet.engine().telemetry().eviction_count,
    );
    Ok(())
}
