//! Replays the committed hunt regression corpus (`tests/corpus/*.case`).
//!
//! Every case under `tests/corpus/` is a minimized adversarial finding the
//! coverage-guided hunt (`repro -- hunt`) caught and shrank: a declarative
//! `(ScenarioSpec, FaultSpec, seeds)` triple plus the failure signal it
//! trips and the exact magnitude measured when it was committed. Replay is
//! bit-for-bit — this suite holds every case to three contracts:
//!
//! 1. the recorded signal still fires, at *exactly* the recorded magnitude
//!    (the repo's byte-identical-artifacts determinism contract),
//! 2. the replayed frame records are identical whether the case runs on the
//!    caller-fed single-stream `ShiftRuntime` or as a batch fleet of one,
//! 3. replay is invariant under the parallel executor's worker count.
//!
//! A behaviour change in the scheduler that fixes (or shifts) one of these
//! failure modes shows up here as an exact-magnitude diff — the committed
//! case file must then be re-measured and updated deliberately.

use shift_core::fleet::{FleetRuntime, StreamSpec};
use shift_experiments::executor::run_cells;
use shift_experiments::search::{entry_records, evaluate_entry, CorpusCase};
use shift_experiments::workloads::paper_shift_config;
use shift_experiments::{outcome_to_record, ExperimentContext};
use shift_metrics::FrameRecord;
use shift_soc::FaultPlan;
use shift_video::generator::ScenarioGenerator;
use std::path::PathBuf;

/// Loads every committed `.case` file, sorted by file name for a stable
/// replay order.
fn committed_cases() -> Vec<(String, CorpusCase)> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/corpus");
    let mut paths: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("tests/corpus exists")
        .map(|entry| entry.expect("readable dir entry").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "case"))
        .collect();
    paths.sort();
    paths
        .into_iter()
        .map(|path| {
            let name = path
                .file_name()
                .expect("file name")
                .to_string_lossy()
                .into_owned();
            let text = std::fs::read_to_string(&path).expect("readable case file");
            let case = CorpusCase::decode(&text)
                .unwrap_or_else(|err| panic!("{name}: malformed case: {err}"));
            (name, case)
        })
        .collect()
}

/// Replays a case as a batch fleet of one with the same fault plan.
fn fleet_of_one_records(ctx: &ExperimentContext, case: &CorpusCase) -> Vec<FrameRecord> {
    let entry = &case.entry;
    let scenario =
        ScenarioGenerator::new(entry.scenario_seed).generate(&entry.scenario, entry.replica);
    let plan = FaultPlan::generate(entry.fault_seed, &entry.fault);
    let config = paper_shift_config().with_accuracy_goal(entry.scenario.accuracy_goal);
    let specs = vec![StreamSpec::new("corpus", scenario, config)];
    let mut fleet = FleetRuntime::new(ctx.engine(), ctx.characterization(), specs)
        .expect("fleet builds")
        .with_fault_plan(plan);
    fleet
        .run_to_completion()
        .expect("fleet completes")
        .iter()
        .map(|o| outcome_to_record(&o.outcome))
        .collect()
}

#[test]
fn corpus_holds_at_least_three_minimized_findings() {
    let cases = committed_cases();
    assert!(
        cases.len() >= 3,
        "the committed corpus must hold >= 3 minimized cases, found {}",
        cases.len()
    );
    // The corpus must cover a fault-composed failure mode the fixed stress
    // grid structurally cannot: the 8x8 difficulty grid runs entirely
    // healthy, so any case whose fault spec scripts real windows is outside
    // its reach.
    assert!(
        cases.iter().any(|(_, case)| {
            let f = &case.entry.fault;
            !FaultPlan::generate(case.entry.fault_seed, f).is_empty()
        }),
        "at least one case must compose faults with a generated scenario"
    );
}

#[test]
fn every_case_still_fires_at_its_recorded_magnitude() {
    for (name, case) in committed_cases() {
        let ctx = case.context.build(case.context_seed);
        let evaluation =
            evaluate_entry(&ctx, &case.entry).unwrap_or_else(|err| panic!("{name}: {err}"));
        let signal = evaluation.signal(case.signal);
        assert!(
            signal.fires(),
            "{name}: the {} signal regressed below its {} threshold (measured {})",
            case.signal,
            case.signal.threshold(),
            signal.magnitude
        );
        assert_eq!(
            signal.magnitude.to_bits(),
            case.magnitude.to_bits(),
            "{name}: replay must reproduce the committed magnitude exactly \
             (recorded {}, measured {})",
            case.magnitude,
            signal.magnitude
        );
    }
}

#[test]
fn replay_is_bit_identical_across_runtimes_and_execution_modes() {
    for (name, case) in committed_cases() {
        let ctx = case.context.build(case.context_seed);
        let single = entry_records(&ctx, &case.entry).unwrap_or_else(|err| panic!("{name}: {err}"));
        let fleet = fleet_of_one_records(&ctx, &case);
        assert_eq!(
            format!("{fleet:?}").into_bytes(),
            format!("{single:?}").into_bytes(),
            "{name}: the fleet-of-one replay must serialize identically to the \
             single-stream replay"
        );
    }
}

#[test]
fn replay_is_invariant_under_the_worker_count() {
    let cases = committed_cases();
    let replay_all = |jobs: usize| -> Vec<String> {
        run_cells(jobs, &cases, |_, (name, case)| {
            let ctx = case.context.build(case.context_seed);
            let evaluation =
                evaluate_entry(&ctx, &case.entry).unwrap_or_else(|err| panic!("{name}: {err}"));
            format!("{evaluation:?}")
        })
    };
    let sequential = replay_all(1);
    for jobs in [2, 4] {
        assert_eq!(
            replay_all(jobs),
            sequential,
            "corpus replay must be identical at --jobs {jobs}"
        );
    }
}

#[test]
fn case_files_are_canonically_encoded() {
    for (name, case) in committed_cases() {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("tests/corpus")
            .join(&name);
        let on_disk = std::fs::read_to_string(path).expect("readable case file");
        assert_eq!(
            case.encode(),
            on_disk,
            "{name}: committed bytes must round-trip through the codec unchanged"
        );
    }
}
