//! Chaos sweep: SHIFT vs the baselines over a fault-plan × scenario grid.
//!
//! Every other artifact in this harness assumes a healthy SoC. This one
//! scripts platform degradation with the deterministic fault-injection
//! subsystem (`shift_soc::fault`) and asks the production question: *who
//! keeps their accuracy goal while accelerators drop out, thermal headroom
//! collapses and the memory pool is squeezed — and how fast do they come
//! back?*
//!
//! The grid crosses the standard [`fault_plan_library`] (a healthy control,
//! a dropout storm, a mixed plan, a thermal brownout and a memory crunch)
//! with the evaluation scenarios and three methodologies:
//!
//! * **SHIFT** attaches the plan to its runtime and survives by re-planning
//!   (`force_reschedule`) when its accelerator drops out and degrading to
//!   the next-best loadable pair under memory pressure;
//! * **Marlin** is pinned to one (model, accelerator): frames its engine
//!   refuses during an outage are recorded as *blind* (IoU 0, zero cost);
//! * **Oracle E** keeps its zero-cost loading but cannot see through an
//!   outage — offline accelerators leave its probe set until they recover.
//!
//! Every `(plan, scenario, method)` cell runs on the deterministic parallel
//! executor and reduces to one [`ResilienceRow`], so the whole artifact —
//! including the `CHAOS_resilience.csv` that `tests/golden/smoke.sha256`
//! pins — is byte-identical for any `--jobs` count. Fault plans are laid
//! out over the *longest* scenario of the grid, so shorter scenarios
//! exercise the plan-outlives-the-video path by construction.
//!
//! Run it with `cargo run --release -p shift-experiments --bin repro --
//! chaos` (or `--smoke chaos` for the reduced CI grid).

use crate::workloads::paper_shift_config;
use crate::{outcome_to_record, ExperimentContext, ExperimentError};
use shift_baselines::{MarlinConfig, MarlinRuntime, OracleObjective, OracleRuntime};
use shift_core::FleetBuilder;
use shift_metrics::{FrameRecord, ResilienceBreakdown, ResilienceRow, Table};
use shift_soc::{FaultInjector, FaultPlan, FaultSpec, SocError};
use shift_video::{FrameLabel, Scenario};

/// The methodologies the chaos grid compares on every (plan, scenario) cell.
pub const METHODS: [&str; 3] = ["SHIFT", "Marlin", "Oracle E"];

/// Grid sizing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosOptions {
    /// How many plans of the standard library to run (taken in order, so the
    /// healthy control always runs).
    pub plans: usize,
    /// How many evaluation scenarios to cross the plans with.
    pub scenarios: usize,
}

impl ChaosOptions {
    /// Full fidelity: the whole plan library over all six evaluation
    /// scenarios (5 × 6 × 3 = 90 cells).
    pub fn full() -> Self {
        Self {
            plans: 5,
            scenarios: 6,
        }
    }

    /// Reduced CI grid: healthy control, dropout storm and mixed plan over
    /// two scenarios (3 × 2 × 3 = 18 cells).
    pub fn smoke() -> Self {
        Self {
            plans: 3,
            scenarios: 2,
        }
    }
}

/// The standard fault-plan library for `horizon` frames, hardest-hitting
/// mixes first after the healthy control so the smoke grid keeps the most
/// informative plans. Each plan draws from its own derived seed, so the
/// library is a pure function of `(ctx seed, horizon)`.
pub fn fault_plan_library(ctx: &ExperimentContext, horizon: u64) -> Vec<(String, FaultPlan)> {
    let seed = ctx.seed();
    let specs: [(&str, FaultSpec); 5] = [
        ("healthy", FaultSpec::none(horizon)),
        ("dropout", FaultSpec::dropout_storm(horizon)),
        ("mixed", FaultSpec::mixed(horizon)),
        ("brownout", FaultSpec::thermal_brownout(horizon)),
        ("crunch", FaultSpec::memory_crunch(horizon)),
    ];
    specs
        .into_iter()
        .enumerate()
        .map(|(index, (name, spec))| {
            (
                name.to_string(),
                FaultPlan::generate(seed.wrapping_add(index as u64), &spec),
            )
        })
        .collect()
}

/// A blind frame: the method's engine refused the frame mid-outage, so no
/// detection lands and no cost is charged.
fn blind_record(
    index: usize,
    model: shift_models::ModelId,
    accelerator: shift_soc::AcceleratorId,
) -> FrameRecord {
    FrameRecord::new(index, model, accelerator, 0.0, 0.0, 0.0, false)
}

/// Runs one methodology over one scenario under one fault plan.
fn run_method(
    ctx: &ExperimentContext,
    scenario: &Scenario,
    method: &str,
    plan: &FaultPlan,
) -> Result<Vec<FrameRecord>, ExperimentError> {
    match method {
        "SHIFT" => {
            let mut runtime = FleetBuilder::new(ctx.engine(), ctx.characterization())
                .fault_plan(plan.clone())
                .build_solo(paper_shift_config())?;
            let outcomes = runtime.run(scenario.stream())?;
            Ok(outcomes.iter().map(outcome_to_record).collect())
        }
        "Marlin" => {
            let config = MarlinConfig::standard();
            let mut runtime = MarlinRuntime::new(ctx.engine(), config)?;
            let mut injector = FaultInjector::new(plan.clone());
            let mut records = Vec::with_capacity(scenario.num_frames());
            for frame in scenario.stream() {
                injector.advance(frame.index as u64, runtime.engine_mut());
                match runtime.process_frame(&frame) {
                    Ok(record) => records.push(record),
                    Err(SocError::AcceleratorOffline(_)) => {
                        records.push(blind_record(frame.index, config.model, config.accelerator));
                    }
                    Err(other) => return Err(other.into()),
                }
            }
            Ok(records)
        }
        "Oracle E" => run_oracle_e(ctx, scenario.labels(), plan),
        other => unreachable!("unknown chaos method {other}"),
    }
}

/// Runs Oracle E over `labels` under one fault plan. The Oracle reads no
/// pixel, so it takes labels and nothing is rendered.
fn run_oracle_e(
    ctx: &ExperimentContext,
    labels: impl IntoIterator<Item = FrameLabel>,
    plan: &FaultPlan,
) -> Result<Vec<FrameRecord>, ExperimentError> {
    let mut runtime = OracleRuntime::new(
        ctx.engine(),
        OracleObjective::Energy,
        &crate::MULTI_ACCELERATORS,
    )?;
    let mut injector = FaultInjector::new(plan.clone());
    let mut records = Vec::new();
    let fallback = runtime.pairs().first().copied();
    for label in labels {
        injector.advance(label.index as u64, runtime.engine_mut());
        match runtime.process_frame(&label) {
            Ok(record) => records.push(record),
            Err(SocError::AcceleratorOffline(_)) => {
                let (model, accelerator) = fallback.expect("oracle has pairs");
                records.push(blind_record(label.index, model, accelerator));
            }
            Err(other) => return Err(other.into()),
        }
    }
    Ok(records)
}

/// Runs the grid: every methodology over every (plan, scenario) cell, rows
/// in plan-major (plan, scenario, method) order. Cells run on the
/// deterministic parallel executor with `ctx.jobs()` workers; each cell owns
/// an independent engine and injector, and the index-ordered reduction keeps
/// the breakdown byte-identical for any worker count.
///
/// # Errors
///
/// Propagates the first (lowest-indexed) failure from any run.
pub fn sweep(
    ctx: &ExperimentContext,
    options: &ChaosOptions,
) -> Result<ResilienceBreakdown, ExperimentError> {
    let scenarios: Vec<Scenario> = ctx
        .scenarios()
        .into_iter()
        .take(options.scenarios.max(1))
        .collect();
    let horizon = scenarios
        .iter()
        .map(|s| s.num_frames() as u64)
        .max()
        .unwrap_or(0);
    let plans: Vec<(String, FaultPlan)> = fault_plan_library(ctx, horizon)
        .into_iter()
        .take(options.plans.max(1))
        .collect();
    let goal = paper_shift_config().accuracy_goal;
    let cells: Vec<(usize, usize, &str)> = plans
        .iter()
        .enumerate()
        .flat_map(|(plan_index, _)| {
            scenarios
                .iter()
                .enumerate()
                .flat_map(move |(scenario_index, _)| {
                    METHODS.map(move |method| (plan_index, scenario_index, method))
                })
        })
        .collect();
    let rows = crate::executor::try_run_cells(
        ctx.jobs(),
        &cells,
        |_, &(plan_index, scenario_index, method)| {
            let (plan_name, plan) = &plans[plan_index];
            let scenario = &scenarios[scenario_index];
            let records = run_method(ctx, scenario, method, plan)?;
            let fault_flags: Vec<bool> = (0..records.len())
                .map(|frame| plan.active_at(frame as u64))
                .collect();
            let recovery_edges: Vec<usize> = plan
                .recovery_frames()
                .into_iter()
                .filter(|&edge| (edge as usize) < records.len())
                .map(|edge| edge as usize)
                .collect();
            Ok::<_, ExperimentError>(ResilienceRow::from_records(
                plan_name.clone(),
                scenario.name(),
                method,
                goal,
                &records,
                &fault_flags,
                &recovery_edges,
            ))
        },
    )?;
    let mut breakdown = ResilienceBreakdown::new();
    for row in rows {
        breakdown.push(row);
    }
    Ok(breakdown)
}

/// The stable machine-readable summary of the whole artifact: the resilience
/// CSV, in grid order. This is the byte sequence the golden determinism test
/// (and the CI `--jobs 1` vs `--jobs 2` comparison) locks.
///
/// # Errors
///
/// Propagates sweep failures.
pub fn summary_csv(
    ctx: &ExperimentContext,
    options: &ChaosOptions,
) -> Result<String, ExperimentError> {
    Ok(sweep(ctx, options)?.to_csv())
}

/// The rendered artifact plus the CSV `repro chaos` writes.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosArtifact {
    /// The rendered per-(plan, method) resilience table.
    pub table: Table,
    /// `CHAOS_resilience.csv` contents.
    pub csv: String,
}

/// Runs the grid, renders the table and captures the CSV.
///
/// # Errors
///
/// Propagates sweep failures.
pub fn artifact(
    ctx: &ExperimentContext,
    options: &ChaosOptions,
) -> Result<ChaosArtifact, ExperimentError> {
    let breakdown = sweep(ctx, options)?;

    let mut table = Table::new(
        "Chaos sweep: goal attainment while the platform degrades",
        &[
            "Plan",
            "Method",
            "Scen",
            "Frames",
            "FaultF",
            "IoU (fault)",
            "IoU (clear)",
            "Miss (fault)",
            "Recov (frames)",
            "E/Frame (J)",
            "Goals F/C",
        ],
    );
    for a in breakdown.aggregate_by_plan() {
        table.push_row(vec![
            a.plan.clone(),
            a.method.clone(),
            a.scenarios.to_string(),
            a.frames.to_string(),
            a.fault_frames.to_string(),
            format!("{:.3}", a.iou_in_fault),
            format!("{:.3}", a.iou_outside_fault),
            format!("{:.3}", a.degraded_fault_fraction),
            format!("{:.1}", a.mean_recovery_frames),
            format!("{:.3}", a.mean_energy_j),
            format!(
                "{}+{}/{}",
                a.goals_met_in_fault, a.goals_met_outside_fault, a.scenarios
            ),
        ]);
    }
    Ok(ChaosArtifact {
        table,
        csv: breakdown.to_csv(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_e_runs_on_labels_as_it_ran_on_rendered_frames_under_every_fault_plan() {
        let ctx = ExperimentContext::quick(63);
        let scenario = ctx.scenarios().swap_remove(1);
        let plans = fault_plan_library(&ctx, scenario.num_frames() as u64);
        let mut runs = Vec::new();
        for (name, plan) in &plans {
            let before = scenario.render_count();
            let records = run_method(&ctx, &scenario, "Oracle E", plan).expect("runs");
            assert_eq!(scenario.render_count(), before, "{name}: nothing rendered");
            let labels = scenario.stream().map(|frame| frame.label());
            let rendered = run_oracle_e(&ctx, labels, plan).expect("runs");
            assert_eq!(records, rendered, "{name}");
            assert_eq!(records.len(), scenario.num_frames(), "{name}");
            runs.push(records);
        }
        assert!(
            runs[1..].iter().any(|records| *records != runs[0]),
            "some fault plan moves the Oracle off its healthy choices"
        );
    }

    #[test]
    fn plan_library_is_pure_and_ordered() {
        let ctx = ExperimentContext::quick(61);
        let a = fault_plan_library(&ctx, 300);
        let b = fault_plan_library(&ctx, 300);
        assert_eq!(a, b, "library must be a pure function of (seed, horizon)");
        assert_eq!(a.len(), 5);
        assert_eq!(a[0].0, "healthy");
        assert!(a[0].1.is_empty(), "the control plan scripts nothing");
        for (name, plan) in &a[1..] {
            assert!(!plan.is_empty(), "{name} must script at least one fault");
        }
    }

    #[test]
    fn smoke_sweep_covers_the_grid_and_shift_meets_fault_goals() {
        let ctx = ExperimentContext::quick(62);
        let options = ChaosOptions::smoke();
        let breakdown = sweep(&ctx, &options).expect("sweep runs");
        assert_eq!(
            breakdown.len(),
            options.plans * options.scenarios * METHODS.len()
        );
        let (met, total) = breakdown.fault_goal_attainment("SHIFT");
        assert_eq!(
            met, total,
            "SHIFT must meet its accuracy goal inside every fault window"
        );
        // The faulted plans genuinely exercised fault windows somewhere.
        assert!(
            breakdown
                .rows()
                .iter()
                .any(|row| row.plan != "healthy" && row.fault_frames > 0),
            "faulted plans must overlap the runs"
        );
        for row in breakdown.rows() {
            assert!(row.frames > 0);
            if row.plan == "healthy" {
                assert_eq!(row.fault_frames, 0);
            }
        }
    }

    #[test]
    fn summary_csv_is_reproducible_and_well_formed() {
        let run = || {
            let ctx = ExperimentContext::quick(63);
            summary_csv(&ctx, &ChaosOptions::smoke()).expect("csv builds")
        };
        let a = run();
        assert_eq!(a, run(), "chaos summary must be byte-identical");
        assert!(a.starts_with(shift_metrics::RESILIENCE_CSV_HEADER));
    }

    #[test]
    fn artifact_renders_every_plan_and_method() {
        let ctx = ExperimentContext::quick(64);
        let artifact = artifact(&ctx, &ChaosOptions::smoke()).expect("artifact builds");
        let md = artifact.table.to_markdown();
        for method in METHODS {
            assert!(md.contains(method), "missing {method}");
        }
        for plan in ["healthy", "dropout", "mixed"] {
            assert!(md.contains(plan), "missing {plan}");
        }
        assert!(artifact
            .csv
            .starts_with(shift_metrics::RESILIENCE_CSV_HEADER));
    }
}
