//! Runs one benchmark workload for a fixed host time and prints its metrics.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper-loop|fleet-16|cluster-diurnal> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! An untimed first pass warms the process up and is checked against the
//! experiment harness. Timed passes then repeat, each set up from scratch,
//! until `--seconds` of host time have passed and every kind of pass ran at
//! least [`MIN_PASSES`] times. Every pass must reproduce the first pass's
//! output digest and work counters.
//!
//! End-to-end host times are the fastest the run saw: the fastest set-up,
//! and for the run the sum of each segment's fastest time. On a shared host
//! the speed of this memory-heavy code drifts by up to a third over tens of
//! seconds with other tenants' load, while CPU time tracks wall time; the
//! fastest times track the uncontended speed. Over 20-second windows of one
//! paper-loop series the fastest pass's run time spread 2% between
//! quartiles, the median pass's 10%. Per-layer times are medians over the
//! traced passes.
//!
//! With `--trace 0` the end-to-end metrics are printed; with `--trace 1`
//! traced and untraced passes alternate and the per-layer metrics are
//! printed. The last line of standard output is one JSON object; the exit
//! code is non-zero when any check fails.

use shift_perfbench::{
    content_offset, measure_builds, peak_rss_mib, setup, span, Pass, PassOutput, Tracer, Workload,
    DEFAULT_SEED,
};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Fewest timed passes of each kind (traced, untraced) a run reports over.
const MIN_PASSES: usize = 3;

/// Calls of `StreamAgent::new` and `ConfidenceGraph::build` timed per
/// characterization in each traced pass.
const BUILD_REPEATS: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let mut value = || {
            iter.next()
                .ok_or_else(|| format!("{flag} requires a value"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    Workload::parse(name).ok_or_else(|| format!("unknown workload `{name}`"))?,
                );
            }
            "--seed" => {
                let v = value()?;
                seed = v.parse().map_err(|_| format!("invalid seed `{v}`"))?;
            }
            "--seconds" => {
                let v = value()?;
                seconds = v
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("invalid seconds `{v}`"))?;
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                };
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    let workload =
        workload.ok_or_else(|| format!("--workload is required ({})", names.join(" | ")))?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// One timed pass: its timings, its tracer and its output.
struct PassRecord {
    traced: bool,
    setup_s: f64,
    segments_s: Vec<f64>,
    tracer: Tracer,
    output: PassOutput,
}

/// A pass that has been set up and run, with the host time of its set-up
/// and of each segment of its run.
struct RunPass {
    pass: Box<dyn Pass>,
    setup_s: f64,
    segments_s: Vec<f64>,
}

/// Sets up and runs one pass of `workload`.
fn run_pass(workload: Workload, seed: u64, tracer: &mut Tracer) -> Result<RunPass, String> {
    let start = Instant::now();
    let mut pass = setup(workload, seed, tracer)?;
    let setup_s = start.elapsed().as_secs_f64();
    let mut segments_s = Vec::with_capacity(pass.segments());
    for segment in 0..pass.segments() {
        let start = Instant::now();
        pass.run_segment(segment, tracer)?;
        segments_s.push(start.elapsed().as_secs_f64());
    }
    Ok(RunPass {
        pass,
        setup_s,
        segments_s,
    })
}

/// Runs one timed pass; a traced pass is also replayed and times the agent
/// builds. The check result is returned separately so a failed check still
/// reports the pass.
fn timed_pass(
    workload: Workload,
    seed: u64,
    traced: bool,
) -> Result<(PassRecord, Result<(), String>), String> {
    let mut tracer = Tracer::new(traced);
    let RunPass {
        pass,
        setup_s,
        segments_s,
    } = run_pass(workload, seed, &mut tracer)?;
    let checked = if traced {
        pass.replay(&mut tracer)
            .and_then(|()| measure_builds(&pass.agent_inputs(), BUILD_REPEATS, &mut tracer))
    } else {
        Ok(())
    };
    let output = pass.output();
    Ok((
        PassRecord {
            traced,
            setup_s,
            segments_s,
            tracer,
            output,
        },
        checked,
    ))
}

fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => values[n / 2],
        _ => (values[n / 2 - 1] + values[n / 2]) / 2.0,
    }
}

fn fastest(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// The run time of the records' fastest composite pass: the sum over
/// segments of each segment's fastest time. Contention comes and goes
/// within a pass, so this catches more of the uncontended speed than the
/// fastest whole pass: over 25-second windows of one cluster-diurnal
/// series it spread 5% between quartiles, the fastest whole pass 10%.
fn fastest_run_s(records: &[&PassRecord]) -> f64 {
    let segments = records.first().map_or(0, |r| r.segments_s.len());
    (0..segments)
        .map(|i| fastest(&records.iter().map(|r| r.segments_s[i]).collect::<Vec<_>>()))
        .sum()
}

/// "fastest of N passes; median m, slowest s".
fn spread_note(values: &[f64]) -> String {
    let slowest = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    format!(
        "fastest of {} passes; median {:.6}, slowest {slowest:.6}",
        values.len(),
        median(values.to_vec())
    )
}

/// One reported metric.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    note: String,
}

fn metric(name: &str, value: f64, unit: &'static str, note: impl Into<String>) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
        note: note.into(),
    }
}

fn end_to_end(untraced: &[&PassRecord], output: &PassOutput, peak_rss: f64) -> Vec<Metric> {
    let sim = &output.sim;
    let frames = sim.frames as f64;
    let setups: Vec<f64> = untraced.iter().map(|r| r.setup_s).collect();
    let runs: Vec<f64> = untraced.iter().map(|r| r.segments_s.iter().sum()).collect();
    let run_s = fastest_run_s(untraced);
    let served = output.attempted - output.refused;
    vec![
        metric("setup_s", fastest(&setups), "s", spread_note(&setups)),
        metric(
            "frames_per_s",
            frames / run_s,
            "frames/s",
            format!(
                "= {} frames / {run_s:.6} s, each of {} segments at its fastest; whole runs {}",
                sim.frames,
                untraced.first().map_or(0, |r| r.segments_s.len()),
                spread_note(&runs)
            ),
        ),
        metric(
            "peak_rss_mb",
            peak_rss,
            "MiB",
            "VmHWM after this process set up and ran one pass",
        ),
        metric(
            "sim_energy_j_per_frame",
            sim.energy_j / frames,
            "J",
            format!("= {} J / {} frames", sim.energy_j, sim.frames),
        ),
        metric(
            "sim_latency_ms_p50",
            sim.latency_p50_s * 1e3,
            "sim_ms",
            format!("n = {}", sim.frames),
        ),
        metric(
            "sim_latency_ms_p99",
            sim.latency_p99_s * 1e3,
            "sim_ms",
            format!(
                "n = {}, {} samples beyond",
                sim.frames, sim.samples_beyond_p99
            ),
        ),
        metric(
            "sim_iou_mean",
            sim.iou_sum / frames,
            "IoU",
            format!("= {} / {} frames", sim.iou_sum, sim.frames),
        ),
        metric(
            "served_frac",
            served as f64 / output.attempted as f64,
            "fraction",
            format!(
                "= {served} served / {} attempted ({} refused)",
                output.attempted, output.refused
            ),
        ),
    ]
}

fn per_layer(traced: &[&PassRecord], untraced: &[&PassRecord], output: &PassOutput) -> Vec<Metric> {
    let frames = output.sim.frames as f64;
    let n = traced.len();
    let med = |f: &dyn Fn(&Tracer) -> f64| median(traced.iter().map(|r| f(&r.tracer)).collect());
    let ms = |name: &'static str| med(&move |t: &Tracer| t.ms(name));
    let per_call_us = |name: &'static str| {
        med(&move |t: &Tracer| {
            let s = t.span(name);
            s.total.as_secs_f64() * 1e6 / s.calls.max(1) as f64
        })
    };
    let calls = |name: &'static str| traced[0].tracer.span(name).calls as f64;
    let sum_ms = |names: &[&str]| med(&|t: &Tracer| names.iter().map(|&s| t.ms(s)).sum());
    let count = |name: &str| output.counts.get(name).copied().unwrap_or(0.0);
    let timed = format!("median over {n} traced passes");
    let counted = "public accessor, identical in every pass";

    let runtime_ms = ms(span::RUNTIME);
    let step_ms = ms(span::FLEET_STEP);
    let children = [span::CONTEXT, span::SCHEDULER, span::ENGINE];
    let fleet_children = [span::RENDER, span::CONTEXT, span::SCHEDULER];
    let self_ms = |parent: &'static str, kids: &[&'static str]| {
        med(&|t: &Tracer| match t.ms(parent) {
            0.0 => 0.0,
            total => total - kids.iter().map(|&k| t.ms(k)).sum::<f64>(),
        })
    };
    let cluster_run_ms = sum_ms(&span::CLUSTER_RUN);
    let untraced_fps = frames / fastest_run_s(untraced);
    let traced_fps = frames / fastest_run_s(traced);

    let mut metrics = vec![
        metric("bench.frames", frames, "count", "frames completed per pass"),
        metric("video.render.ms", ms(span::RENDER), "ms", &timed),
        metric(
            "video.render.calls",
            calls(span::RENDER),
            "count",
            "timed render calls (paper-loop's include each stream's closing call)",
        ),
        metric(
            "core.context.ms",
            ms(span::CONTEXT),
            "ms",
            format!("{timed}, replayed"),
        ),
        metric(
            "core.scheduler.ms",
            ms(span::SCHEDULER),
            "ms",
            format!("{timed}, replayed"),
        ),
        metric(
            "core.scheduler.reschedules",
            count("core.scheduler.reschedules"),
            "count",
            counted,
        ),
        metric(
            "soc.engine.ms",
            ms(span::ENGINE),
            "ms",
            format!("{timed}, replayed"),
        ),
        metric(
            "soc.engine.inferences",
            count("soc.engine.inferences"),
            "count",
            counted,
        ),
        metric("core.runtime.ms", runtime_ms, "ms", &timed),
        metric(
            "core.runtime.self_ms",
            self_ms(span::RUNTIME, &children),
            "ms",
            "process_frame minus context, scheduler and engine",
        ),
        metric("core.fleet.step_ms", step_ms, "ms", &timed),
        metric(
            "core.fleet.self_ms",
            self_ms(span::FLEET_STEP, &fleet_children),
            "ms",
            "step minus render, context and scheduler",
        ),
        metric(
            "core.fleet.step_us_per_frame",
            step_ms * 1e3 / frames,
            "us",
            format!("= {step_ms:.3} ms / {frames} frames"),
        ),
        metric(
            "core.fleet.stream_polls",
            count("core.fleet.stream_polls"),
            "count",
            counted,
        ),
        metric(
            "core.agent.new_us",
            per_call_us(span::AGENT_NEW),
            "us",
            "per StreamAgent::new call",
        ),
        metric(
            "core.graph.build_us",
            per_call_us(span::GRAPH_BUILD),
            "us",
            "per ConfidenceGraph::build call",
        ),
        metric(
            "core.cluster.build_ms",
            sum_ms(&span::CLUSTER_BUILD),
            "ms",
            &timed,
        ),
        metric("core.cluster.run_ms", cluster_run_ms, "ms", &timed),
        metric(
            "core.cluster.run_us_per_frame",
            cluster_run_ms * 1e3 / frames,
            "us",
            format!("= {cluster_run_ms:.3} ms / {frames} frames"),
        ),
    ];
    for (size, (build, run)) in span::CLUSTER_BUILD
        .iter()
        .zip(span::CLUSTER_RUN)
        .enumerate()
    {
        let size = size + 1;
        metrics.push(metric(
            &format!("core.cluster.build_ms.size{size}"),
            ms(build),
            "ms",
            &timed,
        ));
        metrics.push(metric(
            &format!("core.cluster.run_ms.size{size}"),
            ms(run),
            "ms",
            &timed,
        ));
    }
    for name in [
        "core.service.requests",
        "core.service.admitted",
        "core.service.degraded",
        "core.service.rejected",
        "core.service.shed",
        "core.cluster.migrations",
    ] {
        metrics.push(metric(name, count(name), "count", counted));
    }
    metrics.push(metric(
        "core.characterize.ms",
        ms(span::CHARACTERIZE),
        "ms",
        &timed,
    ));
    for name in ["core.loader.loads", "core.loader.evictions"] {
        metrics.push(metric(name, count(name), "count", counted));
    }
    for name in [
        "sim.loader.load_s",
        "sim.engine.busy_s",
        "sim.occupancy.queue_wait_s",
    ] {
        metrics.push(metric(name, count(name), "sim_s", counted));
    }
    for name in [
        "sim.fault.frames",
        "sim.fault.replans",
        "sim.fault.degraded_frames",
    ] {
        metrics.push(metric(name, count(name), "count", counted));
    }
    metrics.push(metric(
        "sim.cluster.migration_transfer_s",
        count("sim.cluster.migration_transfer_s"),
        "sim_s",
        counted,
    ));
    metrics.push(metric(
        "trace.overhead_frac",
        1.0 - traced_fps / untraced_fps,
        "fraction",
        format!(
            "= 1 - {traced_fps:.1} traced frames/s / {untraced_fps:.1} untraced frames/s ({n} traced, {} untraced passes)",
            untraced.len()
        ),
    ));
    metrics
}

fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn run(args: &Args) -> Result<bool, String> {
    let mut failures: Vec<String> = Vec::new();
    // Pass 0 warms the process up and is checked against the harness; it
    // is the reference the timed passes must reproduce, and is not timed.
    // The peak resident set is read before its check, which builds
    // reference runs of its own. Read at the end of the run instead,
    // fleet-16's peak split between 21.7 and 23.2 MiB across seeds; read
    // here it held within 2%.
    let first = run_pass(args.workload, args.seed, &mut Tracer::new(false))?.pass;
    let peak_rss = peak_rss_mib().ok_or("cannot read VmHWM from /proc/self/status")?;
    if let Err(err) = first.check() {
        failures.push(format!("pass 0: {err}"));
    }
    let reference = first.output();
    drop(first);
    // Some harness comparisons hold only on `repro`'s own inputs, so a run
    // at another seed also checks one untimed pass at the default seed.
    if content_offset(args.seed) != 0 {
        let pass = run_pass(args.workload, DEFAULT_SEED, &mut Tracer::new(false))?.pass;
        if let Err(err) = pass.check() {
            failures.push(format!("default-seed pass: {err}"));
        }
    }
    let mut records: Vec<PassRecord> = Vec::new();
    let budget = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    let enough = |records: &[PassRecord], traced: bool| {
        records.iter().filter(|r| r.traced == traced).count() >= MIN_PASSES
    };
    let mut traced_next = args.trace;
    while start.elapsed() < budget
        || !enough(&records, false)
        || (args.trace && !enough(&records, true))
    {
        let (record, checked) = timed_pass(args.workload, args.seed, traced_next)?;
        let pass = records.len() + 1;
        let kind = if record.traced { "traced" } else { "untraced" };
        if let Err(err) = checked {
            failures.push(format!("pass {pass} ({kind}): {err}"));
        }
        if record.output != reference {
            failures.push(format!(
                "pass {pass} ({kind}): output digest or counters differ from pass 0"
            ));
        }
        records.push(record);
        if args.trace {
            traced_next = !traced_next;
        }
    }

    let untraced: Vec<&PassRecord> = records.iter().filter(|r| !r.traced).collect();
    let traced: Vec<&PassRecord> = records.iter().filter(|r| r.traced).collect();
    let metrics = if args.trace {
        per_layer(&traced, &untraced, &reference)
    } else {
        end_to_end(&untraced, &reference, peak_rss)
    };
    if let Some(bad) = metrics.iter().find(|m| !m.value.is_finite()) {
        failures.push(format!("{} is not a finite number", bad.name));
    }

    println!(
        "# workload {} | seed {} | trace {} | {} passes ({} untraced, {} traced) in {:.1} s",
        args.workload.name(),
        args.seed,
        u8::from(args.trace),
        records.len(),
        untraced.len(),
        traced.len(),
        start.elapsed().as_secs_f64()
    );
    println!("# output digest {:016x}", reference.digest);
    for m in &metrics {
        println!("{:<36} {:>18.6} {:<9} {}", m.name, m.value, m.unit, m.note);
    }
    for failure in &failures {
        println!("# CHECK FAILED: {failure}");
        eprintln!("check failed: {failure}");
    }
    let attempted = records.iter().map(|r| r.output.attempted).sum();
    let failed = records.iter().map(|r| r.output.failed).sum();
    let correct = failures.is_empty();
    println!("{}", json_line(correct, attempted, failed, &metrics));
    Ok(correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = parse_args(&args).and_then(|args| run(&args));
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(err) => {
            eprintln!("shift-perfbench: {err}");
            ExitCode::FAILURE
        }
    }
}
