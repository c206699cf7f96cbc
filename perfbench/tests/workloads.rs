//! The benchmark's own checks on whole workloads. They take under a minute
//! in an optimised build:
//!
//! ```text
//! cargo test --release --offline --manifest-path perfbench/Cargo.toml
//! ```

use shift_perfbench::{measure_builds, setup, PassOutput, Tracer, Workload, DEFAULT_SEED};

/// A seed the workloads were not tuned on.
const HELD_OUT_SEED: u64 = 7;

/// Sets up, runs and checks one pass; a traced pass is also replayed.
fn pass(workload: Workload, seed: u64, traced: bool) -> PassOutput {
    let mut tracer = Tracer::new(traced);
    let mut pass = setup(workload, seed, &mut tracer).expect("workload sets up");
    pass.run(&mut tracer).expect("workload runs");
    if traced {
        pass.replay(&mut tracer).expect("replay reproduces the run");
        measure_builds(&pass.agent_inputs(), 1, &mut tracer).expect("agents build");
    }
    pass.check().expect("output checks pass");
    pass.output()
}

#[test]
fn counts_repeat_for_one_seed_and_differ_between_seeds() {
    for workload in Workload::ALL {
        let first = pass(workload, DEFAULT_SEED, false);
        let again = pass(workload, DEFAULT_SEED, false);
        assert_eq!(first, again, "{} does not repeat", workload.name());
        let other = pass(workload, HELD_OUT_SEED, false);
        assert_ne!(
            first.counts,
            other.counts,
            "{} ignores its seed",
            workload.name()
        );
    }
}

#[test]
fn held_out_seed_passes_every_check_traced_and_untraced() {
    for workload in Workload::ALL {
        let untraced = pass(workload, HELD_OUT_SEED, false);
        let traced = pass(workload, HELD_OUT_SEED, true);
        assert_eq!(
            untraced,
            traced,
            "{}: tracing changed the output",
            workload.name()
        );
    }
}
