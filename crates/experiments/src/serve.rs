//! Fleet-as-a-service experiment: seeded session churn under admission
//! control (`repro -- serve`).
//!
//! The other fleet experiments run fixed stream sets to completion. This one
//! drives the production shape instead: a [`FleetService`] that starts with
//! a couple of pre-admitted base streams and then takes a *seeded churn
//! trace* — attach requests of mixed deadline classes and (sometimes
//! deliberately greedy) accuracy goals arriving at scheduled ticks, with a
//! fraction of sessions detaching mid-run. Admission control answers each
//! request: admit, degrade the goal and offer it back, shed a lower-priority
//! degraded session to make room, or reject.
//!
//! Every session lifecycle is reduced to one `SERVE_sessions.csv` row
//! ([`shift_metrics::SessionRow`]). Traces run as cells on the deterministic
//! parallel executor and reduce in trace order, and the service itself adds
//! no clocks or randomness, so the artifact is **byte-identical for any
//! `--jobs` count** — the same contract every artifact in this workspace
//! honours.
//!
//! Run it with `cargo run --release -p shift-experiments --bin repro --
//! serve`.
//!
//! [`FleetService`]: shift_core::FleetService

use crate::fleet::roster;
use crate::{ExperimentContext, ExperimentError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use shift_core::fleet::StreamSpec;
use shift_core::service::{
    AttachRequest, DeadlineClass, ServicePolicy, SessionId, SessionRecord, SessionRequest,
};
use shift_core::{FleetBuilder, ShiftConfig};
use shift_metrics::{SessionReport, SessionRow, Table, SESSION_CSV_HEADER};

/// Sizing knobs of the serve experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeOptions {
    /// Independent churn traces (each runs its own service on its own
    /// engine, as one executor cell).
    pub traces: usize,
    /// Attach requests scheduled per trace (on top of the base streams).
    pub sessions_per_trace: usize,
    /// Streams pre-admitted at tick 0 (the batch-compat path).
    pub base_streams: usize,
    /// Per-session frame cap, keeping full-fidelity traces tractable.
    pub max_frames: usize,
}

impl ServeOptions {
    /// Full sizing: four traces of sixteen sessions over two base streams.
    pub fn full() -> Self {
        Self {
            traces: 4,
            sessions_per_trace: 16,
            base_streams: 2,
            max_frames: 120,
        }
    }

    /// CI smoke sizing: two traces of eight sessions over one base stream.
    pub fn smoke() -> Self {
        Self {
            traces: 2,
            sessions_per_trace: 8,
            base_streams: 1,
            max_frames: 40,
        }
    }
}

/// One scheduled request of a churn trace.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEntry {
    /// The discrete tick the request fires at.
    pub tick: u64,
    /// The request itself.
    pub request: SessionRequest,
}

/// Generates the seeded churn trace of one cell: attach requests at
/// non-decreasing ticks with goals, deadline classes and detach times drawn
/// from a generator seeded purely by `(ctx seed, trace index)` — the same
/// `(seed, index) -> workload` purity contract the stress sweep relies on.
///
/// Scheduled attaches mint session ids in processing order, so the trace can
/// name its own future sessions: with `base` pre-admitted streams, the
/// `i`-th scheduled attach becomes session `base + i + 1` whether or not it
/// is admitted (rejections mint ids too).
pub fn session_trace(
    ctx: &ExperimentContext,
    trace: usize,
    options: &ServeOptions,
) -> Vec<TraceEntry> {
    let mut rng = StdRng::seed_from_u64(
        ctx.seed()
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(trace as u64),
    );
    let roster = roster();
    let mut entries = Vec::new();
    let mut tick = 0u64;
    for i in 0..options.sessions_per_trace {
        tick += rng.gen_range(0..6);
        let (scenario, goal) = &roster[rng.gen_range(0..roster.len())];
        let scenario = ctx.scaled(scenario.clone());
        let frames = scenario.num_frames().min(options.max_frames);
        let reseed = scenario.seed().wrapping_add(7000 + 100 * i as u64);
        let scenario = scenario.with_num_frames(frames).with_seed(reseed);
        // A quarter of the requests ask for far more accuracy than any pair
        // delivers, exercising the degrade ladder (and giving the shedding
        // path victims to evict).
        let goal = if rng.gen_range(0..4) == 0 { 0.9 } else { *goal };
        let deadline = match rng.gen_range(0..3) {
            0 => DeadlineClass::Interactive,
            1 => DeadlineClass::Standard,
            _ => DeadlineClass::Batch,
        };
        let session = SessionId::from_value((options.base_streams + i + 1) as u64);
        entries.push(TraceEntry {
            tick,
            request: SessionRequest::Attach(AttachRequest::new(
                format!("t{trace}-cam{i:02}"),
                scenario,
                ShiftConfig::paper_defaults().with_accuracy_goal(goal),
                deadline,
            )),
        });
        // Two in five sessions detach mid-run instead of draining.
        if rng.gen_range(0..5) < 2 {
            let lifetime = rng.gen_range(5..40);
            entries.push(TraceEntry {
                tick: tick + lifetime,
                request: SessionRequest::Detach(session),
            });
        }
    }
    entries
}

/// The base streams pre-admitted before the trace starts (roster entries,
/// frame-capped like the dynamic sessions).
pub fn base_specs(ctx: &ExperimentContext, options: &ServeOptions) -> Vec<StreamSpec> {
    crate::fleet::stream_specs(ctx, options.base_streams)
        .into_iter()
        .map(|spec| {
            let frames = spec.scenario.num_frames().min(options.max_frames);
            StreamSpec::new(
                spec.name,
                spec.scenario.with_num_frames(frames),
                spec.config,
            )
        })
        .collect()
}

/// Everything one churn trace produces.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeTracePoint {
    /// The trace index.
    pub trace: usize,
    /// One row per session lifecycle, in request order.
    pub rows: Vec<SessionRow>,
    /// Frames the fleet processed over the whole trace.
    pub frames: usize,
    /// Virtual makespan of the trace, seconds.
    pub makespan_s: f64,
}

/// Converts a service lifecycle record into its stable artifact row.
fn record_to_row(record: &SessionRecord) -> SessionRow {
    let outcome = if record.rejected.is_some() {
        "rejected"
    } else if record.shed {
        "shed"
    } else if record.detached_tick.is_some() {
        "detached"
    } else {
        "active"
    };
    SessionRow {
        session: record.session.value(),
        name: record.name.clone(),
        deadline: record.deadline.label().to_string(),
        outcome: outcome.to_string(),
        reason: record
            .rejected
            .map(|r| r.label().to_string())
            .unwrap_or_default(),
        requested_goal: record.requested_goal,
        admitted_goal: record.admitted_goal,
        degraded: record.degraded(),
        requested_tick: record.requested_tick,
        decided_tick: record.decided_tick,
        admit_latency_ticks: record.decided_tick - record.requested_tick,
        detached_tick: record.detached_tick,
        frames: record.frames,
        degraded_frames: record.degraded_frames(),
    }
}

/// Runs one churn trace: base streams pre-admitted, the seeded trace
/// scheduled, the service run until idle.
///
/// # Errors
///
/// Propagates service construction and execution failures.
pub fn run_trace(
    ctx: &ExperimentContext,
    trace: usize,
    options: &ServeOptions,
) -> Result<ServeTracePoint, ExperimentError> {
    let mut service = FleetBuilder::new(ctx.engine(), ctx.characterization())
        .streams(base_specs(ctx, options))
        .build_service(ServicePolicy::defaults())?;
    for entry in session_trace(ctx, trace, options) {
        service.schedule(entry.tick, entry.request);
    }
    let outcomes = service.run_until_idle()?;
    let rows: Vec<SessionRow> = service.sessions().iter().map(record_to_row).collect();
    Ok(ServeTracePoint {
        trace,
        rows,
        frames: outcomes.len(),
        makespan_s: service.fleet().makespan_s(),
    })
}

/// The serve artifact: the per-trace summary table plus the
/// `SERVE_sessions.csv` payload.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeArtifact {
    /// Per-trace summary (what `repro` prints).
    pub table: Table,
    /// The session CSV across all traces, in trace order.
    pub csv: String,
}

/// Runs every churn trace as an executor cell and reduces the results in
/// trace order — the artifact is byte-identical for any `ctx.jobs()`.
///
/// # Errors
///
/// Propagates the first (lowest-indexed) trace failure.
pub fn artifact(
    ctx: &ExperimentContext,
    options: &ServeOptions,
) -> Result<ServeArtifact, ExperimentError> {
    let traces: Vec<usize> = (0..options.traces).collect();
    let points =
        crate::executor::try_run_cells(ctx.jobs(), &traces, |_, &t| run_trace(ctx, t, options))?;
    let mut csv = String::from(SESSION_CSV_HEADER);
    csv.push('\n');
    let mut table = Table::new(
        "Fleet service: seeded session churn under SLO-aware admission",
        &[
            "Trace",
            "Sessions",
            "Admitted",
            "Degraded",
            "Rejected",
            "Shed",
            "Churn",
            "Frames",
            "Degraded Frames",
            "Makespan (s)",
        ],
    );
    for point in &points {
        let mut report = SessionReport::new();
        for row in &point.rows {
            csv.push_str(&row.csv_row());
            csv.push('\n');
            report.push(row.clone());
        }
        table.push_row(vec![
            point.trace.to_string(),
            report.len().to_string(),
            report.admitted().to_string(),
            report.degraded().to_string(),
            report.rejected().to_string(),
            report.shed().to_string(),
            report.churn().to_string(),
            point.frames.to_string(),
            format!("{:.0}%", report.degraded_frame_fraction() * 100.0),
            format!("{:.2}", point.makespan_s),
        ]);
    }
    Ok(ServeArtifact { table, csv })
}

/// Generates the serve table alone (the `repro` fallback when only the
/// printed table is wanted).
///
/// # Errors
///
/// Propagates trace failures.
pub fn generate(ctx: &ExperimentContext) -> Result<Table, ExperimentError> {
    let options = if ctx.scale() < 1.0 {
        ServeOptions::smoke()
    } else {
        ServeOptions::full()
    };
    Ok(artifact(ctx, &options)?.table)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traces_are_pure_in_seed_and_index() {
        let ctx = ExperimentContext::quick(31);
        let options = ServeOptions::smoke();
        assert_eq!(
            session_trace(&ctx, 0, &options),
            session_trace(&ctx, 0, &options)
        );
        assert_ne!(
            session_trace(&ctx, 0, &options),
            session_trace(&ctx, 1, &options)
        );
        let ticks: Vec<u64> = session_trace(&ctx, 0, &options)
            .iter()
            .filter(|e| matches!(e.request, SessionRequest::Attach(_)))
            .map(|e| e.tick)
            .collect();
        assert!(
            ticks.windows(2).all(|w| w[0] <= w[1]),
            "attach ticks sorted"
        );
    }

    #[test]
    fn trace_rows_cover_the_whole_lifecycle_vocabulary() {
        let ctx = ExperimentContext::quick(32);
        let options = ServeOptions::smoke();
        let point = run_trace(&ctx, 0, &options).unwrap();
        assert_eq!(
            point.rows.len(),
            options.base_streams + options.sessions_per_trace
        );
        // Base streams are pre-admitted at tick 0 under the standard class.
        assert_eq!(point.rows[0].outcome, "active");
        assert_eq!(point.rows[0].requested_tick, 0);
        // The greedy goals guarantee at least one degrade offer.
        assert!(point.rows.iter().any(|r| r.degraded), "no degraded session");
        assert!(point.frames > 0);
        assert!(point.makespan_s > 0.0);
    }

    #[test]
    fn artifact_is_byte_identical_for_any_worker_count_and_mode() {
        let options = ServeOptions::smoke();
        let run = |jobs: usize| {
            let ctx = ExperimentContext::quick(33).with_jobs(jobs);
            artifact(&ctx, &options).unwrap().csv.into_bytes()
        };
        let reference = run(1);
        assert_eq!(reference, run(4));
        assert_eq!(reference, run(2));
        let csv = String::from_utf8(reference).unwrap();
        assert!(csv.starts_with(SESSION_CSV_HEADER));
        assert!(csv.lines().count() > 1);
    }

    #[test]
    fn table_renders_one_row_per_trace() {
        let ctx = ExperimentContext::quick(34);
        let table = generate(&ctx).unwrap();
        assert_eq!(table.row_count(), ServeOptions::smoke().traces);
        assert!(table.to_markdown().contains("Admitted"));
    }
}
