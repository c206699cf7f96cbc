//! `repro` — regenerates every table and figure of the paper.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p shift-experiments --bin repro -- all
//! cargo run --release -p shift-experiments --bin repro -- table3 fig5
//! cargo run --release -p shift-experiments --bin repro -- --quick all
//! cargo run --release -p shift-experiments --bin repro -- --jobs 4 stress
//! cargo run --release -p shift-experiments --bin repro -- bench
//! cargo run --release -p shift-experiments --bin repro -- bench-compare a.json b.json
//! ```
//!
//! Artifacts: `table1`, `table3`, `table4`, `fig1`, `fig2`, `fig3`, `fig4`,
//! `fig5`, `headline` (the paper's artifacts, collectively `all`), plus the
//! ablation studies `ablation-predictor`, `ablation-precision`,
//! `ablation-powermode`, `ablation-relatedwork`, the `extended` scenario
//! table and the `fleet` multi-stream scaling experiment (collectively
//! `ablations`), `serve` — the fleet-as-a-service session-churn run, which
//! writes `SERVE_sessions.csv` (one lifecycle row per session: admitted /
//! degraded / rejected / detached / shed under SLO-aware admission;
//! byte-identical for any `--jobs`) —
//! `stress` — the generated-scenario difficulty-grid sweep
//! plus fleet soak —
//! `chaos` — the fault-plan × scenario resilience grid, which writes
//! `CHAOS_resilience.csv` — `hunt` — the coverage-guided
//! adversarial scenario search, which writes `HUNT_findings.csv` (one row
//! per minimized failure; `--budget N` overrides the mutant-evaluation
//! budget and `--corpus-out DIR` additionally emits each minimized finding
//! as a replayable `.case` file) — `cluster` — the multi-SoC capacity sweep,
//! which replays one seeded diurnal session trace against clusters of 1 to 8
//! heterogeneous nodes and writes `CLUSTER_capacity.csv` (one row per
//! cluster size: admission/shed/migration counts, energy, streams-per-joule
//! and p50/p99 latency; byte-identical for any `--jobs`) — and `bench` —
//! the perf-regression micro suite, which writes `BENCH_micro.json`.
//!
//! Standalone gate mode: `bench-compare <baseline> <current>` diffs two
//! `BENCH_micro.json` snapshots and exits non-zero when any bench leaves
//! the ±30% band (`shift_bench::compare::GATE_BAND`), a bench disappears,
//! or the snapshots differ in mode, seed or render kernel.
//!
//! `--quick` uses the reduced dataset and scaled-down scenarios (useful for
//! smoke tests); `--smoke` additionally shrinks the stress sweep to one
//! scenario per workload class (<= 8 scenarios), the chaos grid to 18 cells
//! and the bench suite to its CI sizing, and implies `--quick`; `--seed N`
//! changes the simulation seed;
//! `--jobs N` sets the parallel experiment executor's worker count (default:
//! available parallelism — artifacts are byte-identical for any value).

use shift_experiments::ExperimentContext;
use shift_experiments::{
    ablations, chaos, cluster, executor, extended, fig1, fig2, fig3, fig4, fig5, fleet, headline,
    search, serve, stress, table1, table3, table4,
};
use std::process::ExitCode;

const PAPER_ARTIFACTS: [&str; 9] = [
    "table1", "table3", "table4", "fig1", "fig2", "fig3", "fig4", "fig5", "headline",
];

const ABLATION_ARTIFACTS: [&str; 6] = [
    "ablation-predictor",
    "ablation-precision",
    "ablation-powermode",
    "ablation-relatedwork",
    "extended",
    "fleet",
];

const ARTIFACTS: [&str; 21] = [
    "table1",
    "table3",
    "table4",
    "fig1",
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "headline",
    "ablation-predictor",
    "ablation-precision",
    "ablation-powermode",
    "ablation-relatedwork",
    "extended",
    "fleet",
    "serve",
    "cluster",
    "stress",
    "chaos",
    "hunt",
    "bench",
];

/// Writes `contents` to `path` atomically: the bytes land in a sibling
/// temporary file first and only a successful write renames it into place,
/// so a panic or failure mid-run can never leave a truncated or stale-mixed
/// snapshot behind (the previous snapshot, if any, stays intact).
fn write_atomic(path: &str, contents: &str) -> std::io::Result<()> {
    let tmp = format!("{path}.tmp");
    std::fs::write(&tmp, contents)?;
    std::fs::rename(&tmp, path)
}

/// `repro -- bench-compare <baseline> <current>`.
fn run_bench_compare(args: &[String]) -> ExitCode {
    let [baseline_path, current_path] = args else {
        eprintln!("usage: repro bench-compare <baseline.json> <current.json>");
        return ExitCode::FAILURE;
    };
    let load = |path: &str| -> Result<shift_bench::snapshot::Snapshot, String> {
        let text =
            std::fs::read_to_string(path).map_err(|err| format!("cannot read {path}: {err}"))?;
        shift_bench::snapshot::Snapshot::parse(&text)
            .map_err(|err| format!("cannot parse {path}: {err}"))
    };
    let (baseline, current) = match (load(baseline_path), load(current_path)) {
        (Ok(b), Ok(c)) => (b, c),
        (Err(err), _) | (_, Err(err)) => {
            eprintln!("{err}");
            return ExitCode::FAILURE;
        }
    };
    let comparison = shift_bench::compare::compare(&baseline, &current);
    let band = shift_bench::compare::GATE_BAND;
    print!("{}", comparison.report(band));
    if comparison.passes(band) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // The standalone gate mode takes positional paths, not artifact lists.
    if args.first().map(String::as_str) == Some("bench-compare") {
        return run_bench_compare(&args[1..]);
    }

    let mut quick = false;
    let mut smoke = false;
    let mut seed = 2024u64;
    let mut jobs = executor::default_jobs();
    let mut budget: Option<usize> = None;
    let mut corpus_out: Option<String> = None;
    let mut requested: Vec<String> = Vec::new();
    let mut iter = args.iter().peekable();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--smoke" => {
                smoke = true;
                quick = true;
            }
            "--seed" => {
                let Some(value) = iter.next() else {
                    eprintln!("--seed requires a value");
                    return ExitCode::FAILURE;
                };
                match value.parse() {
                    Ok(v) => seed = v,
                    Err(_) => {
                        eprintln!("invalid seed `{value}`");
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--jobs" => {
                let Some(value) = iter.next() else {
                    eprintln!("--jobs requires a value");
                    return ExitCode::FAILURE;
                };
                match value.parse::<usize>() {
                    Ok(v) if v >= 1 => jobs = v,
                    _ => {
                        eprintln!("invalid job count `{value}`");
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--budget" => {
                let Some(value) = iter.next() else {
                    eprintln!("--budget requires a value");
                    return ExitCode::FAILURE;
                };
                match value.parse::<usize>() {
                    Ok(v) if v >= 1 => budget = Some(v),
                    _ => {
                        eprintln!("invalid budget `{value}`");
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--corpus-out" => {
                let Some(value) = iter.next() else {
                    eprintln!("--corpus-out requires a directory");
                    return ExitCode::FAILURE;
                };
                corpus_out = Some(value.clone());
            }
            "--help" | "-h" => {
                print_help();
                return ExitCode::SUCCESS;
            }
            "all" => requested.extend(PAPER_ARTIFACTS.iter().map(|s| s.to_string())),
            "ablations" => requested.extend(ABLATION_ARTIFACTS.iter().map(|s| s.to_string())),
            other if ARTIFACTS.contains(&other) => requested.push(other.to_string()),
            other => {
                eprintln!("unknown artifact `{other}`");
                print_help();
                return ExitCode::FAILURE;
            }
        }
    }
    if requested.is_empty() {
        requested.extend(PAPER_ARTIFACTS.iter().map(|s| s.to_string()));
    }
    // Keep the first occurrence of each artifact (plain `dedup` only drops
    // *adjacent* repeats, so `stress fleet stress` would run stress twice).
    let mut seen = std::collections::BTreeSet::new();
    requested.retain(|artifact| seen.insert(artifact.clone()));

    eprintln!(
        "# building experiment context (seed {seed}, {} mode, {jobs} jobs)...",
        if quick { "quick" } else { "full" }
    );
    let ctx = if quick {
        ExperimentContext::quick(seed)
    } else {
        ExperimentContext::new(seed)
    }
    .with_jobs(jobs);

    for artifact in &requested {
        eprintln!("# generating {artifact}...");
        let result = match artifact.as_str() {
            "table1" => Ok(table1::generate(&ctx)),
            "table4" => Ok(table4::generate(&ctx)),
            "fig1" => Ok(fig1::generate(&ctx)),
            "table3" => table3::generate(&ctx),
            "fig2" => fig2::generate(&ctx),
            "fig3" => fig3::generate(&ctx),
            "fig4" => fig4::generate(&ctx),
            "headline" => headline::generate(&ctx),
            "ablation-predictor" => ablations::predictor_table(&ctx),
            "ablation-precision" => ablations::precision_table(&ctx),
            "ablation-powermode" => ablations::power_mode_table(&ctx),
            "ablation-relatedwork" => ablations::related_work_table(&ctx),
            "extended" => extended::generate(&ctx),
            "fleet" => fleet::generate(&ctx),
            "serve" => {
                let options = if smoke {
                    serve::ServeOptions::smoke()
                } else {
                    serve::ServeOptions::full()
                };
                match serve::artifact(&ctx, &options) {
                    Ok(artifact) => {
                        if let Err(err) = write_atomic("SERVE_sessions.csv", &artifact.csv) {
                            eprintln!("failed to write SERVE_sessions.csv: {err}");
                            return ExitCode::FAILURE;
                        }
                        eprintln!("# wrote SERVE_sessions.csv");
                        Ok(artifact.table)
                    }
                    Err(err) => Err(err),
                }
            }
            "cluster" => {
                let options = if smoke {
                    cluster::ClusterOptions::smoke()
                } else {
                    cluster::ClusterOptions::full()
                };
                match cluster::artifact(&ctx, &options) {
                    Ok(artifact) => {
                        if let Err(err) = write_atomic("CLUSTER_capacity.csv", &artifact.csv) {
                            eprintln!("failed to write CLUSTER_capacity.csv: {err}");
                            return ExitCode::FAILURE;
                        }
                        eprintln!("# wrote CLUSTER_capacity.csv");
                        Ok(artifact.table)
                    }
                    Err(err) => Err(err),
                }
            }
            "stress" => {
                // `--smoke` shrinks the grid itself; `--quick` alone keeps
                // the full 64-scenario grid but runs it on scaled-down
                // scenarios.
                let options = if smoke {
                    stress::StressOptions::smoke()
                } else {
                    stress::StressOptions::full()
                };
                stress::artifact(&ctx, &options)
            }
            "chaos" => {
                let options = if smoke {
                    chaos::ChaosOptions::smoke()
                } else {
                    chaos::ChaosOptions::full()
                };
                match chaos::artifact(&ctx, &options) {
                    Ok(artifact) => {
                        if let Err(err) = write_atomic("CHAOS_resilience.csv", &artifact.csv) {
                            eprintln!("failed to write CHAOS_resilience.csv: {err}");
                            return ExitCode::FAILURE;
                        }
                        eprintln!("# wrote CHAOS_resilience.csv");
                        Ok(artifact.table)
                    }
                    Err(err) => Err(err),
                }
            }
            "hunt" => {
                let mut options = if smoke {
                    search::HuntOptions::smoke()
                } else {
                    search::HuntOptions::full()
                };
                if let Some(budget) = budget {
                    options = options.with_budget(budget);
                }
                match search::artifact(&ctx, &options) {
                    Ok(artifact) => {
                        if let Err(err) = write_atomic("HUNT_findings.csv", &artifact.csv) {
                            eprintln!("failed to write HUNT_findings.csv: {err}");
                            return ExitCode::FAILURE;
                        }
                        eprintln!(
                            "# wrote HUNT_findings.csv ({} finding(s))",
                            artifact.cases.len()
                        );
                        if let Some(dir) = &corpus_out {
                            if let Err(err) = std::fs::create_dir_all(dir) {
                                eprintln!("failed to create {dir}: {err}");
                                return ExitCode::FAILURE;
                            }
                            for (index, case) in artifact.cases.iter().enumerate() {
                                let path = format!("{dir}/finding-{index:02}-{}.case", case.signal);
                                if let Err(err) = write_atomic(&path, &case.encode()) {
                                    eprintln!("failed to write {path}: {err}");
                                    return ExitCode::FAILURE;
                                }
                                eprintln!("# wrote {path}");
                            }
                        }
                        Ok(artifact.table)
                    }
                    Err(err) => Err(err),
                }
            }
            "bench" => {
                let options = if smoke {
                    shift_bench::suite::SuiteOptions::smoke()
                } else {
                    shift_bench::suite::SuiteOptions::full()
                };
                // The worst-case `fleet/step_adversarial` fixture replays
                // the committed hunt corpus; fall back to the synthetic
                // stand-in (same shape, same bench name) when the corpus
                // files are out of reach so the snapshot stays complete.
                let fixture = search::load_corpus_cases(&search::committed_corpus_dir())
                    .and_then(|cases| search::corpus_bench_fixture(&cases, options.fleet_frames))
                    .unwrap_or_else(|err| {
                        eprintln!("# corpus unavailable ({err}); benching the synthetic adversarial fixture");
                        shift_bench::suite::AdversarialFixture::synthetic(seed, options.fleet_frames)
                    });
                let rows = shift_bench::suite::run_suite_with(seed, &options, &fixture);
                let mode = if smoke { "smoke" } else { "full" };
                let snapshot = shift_bench::snapshot::Snapshot::new(
                    mode,
                    seed,
                    shift_video::image::render_kernel(),
                    rows.clone(),
                );
                if let Err(err) = write_atomic("BENCH_micro.json", &snapshot.to_json()) {
                    eprintln!("failed to write BENCH_micro.json: {err}");
                    return ExitCode::FAILURE;
                }
                eprintln!("# wrote BENCH_micro.json");
                let mut table = shift_metrics::Table::new(
                    format!("Perf micro suite ({mode} mode)"),
                    &["Bench", "Time/op", "ns/op", "Samples", "Iters/sample"],
                );
                for row in &rows {
                    table.push_row(vec![
                        row.name.clone(),
                        row.display_time(),
                        format!("{:.1}", row.ns_per_op),
                        row.samples.to_string(),
                        row.iters_per_sample.to_string(),
                    ]);
                }
                Ok(table)
            }
            "fig5" => {
                if quick {
                    fig5::generate_with_grid(&ctx, &fig5::SweepGrid::quick())
                } else {
                    fig5::generate(&ctx)
                }
            }
            _ => unreachable!("artifact list is validated above"),
        };
        match result {
            Ok(table) => {
                println!("{}", table.to_text());
                println!();
            }
            Err(err) => {
                eprintln!("failed to generate {artifact}: {err}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

fn print_help() {
    eprintln!(
        "usage: repro [--quick] [--smoke] [--seed N] [--jobs N] \
         [--budget N] [--corpus-out DIR] [artifact...]\n       \
         repro bench-compare <baseline.json> <current.json>"
    );
    eprintln!(
        "artifacts: {} | all (paper artifacts) | ablations (ablation studies)",
        ARTIFACTS.join(" | ")
    );
    eprintln!(
        "--smoke implies --quick, shrinks `stress` to <= 8 scenarios, `chaos` to an 18-cell \
         grid, `hunt` to a few dozen evaluations, `serve` to two churn traces, `cluster` to a \
         short diurnal trace and `bench` to CI sizing"
    );
    eprintln!("--jobs N runs sweeps on N workers (artifacts stay byte-identical for any N)");
    eprintln!(
        "--budget N caps `hunt` mutant evaluations; --corpus-out DIR additionally writes \
         each minimized hunt finding as a replayable .case file"
    );
}
