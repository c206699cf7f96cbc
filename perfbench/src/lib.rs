//! The repository benchmark: three seeded workloads that drive the SHIFT
//! reproduction through the workspace crates' public API.
//!
//! A *pass* is one complete run of a workload in this process, on this
//! thread, with one caller: [`setup`] builds everything that comes before
//! the first frame-producing call (the experiment context, the
//! characterizations, the workload inputs and the fleet or cluster builds),
//! and [`Pass::run_segment`] drives the closed loop through each of the
//! pass's segments in turn. With tracing off the driving loop reads no
//! clock. With tracing on, [`Tracer::time`] wraps each public call the loop
//! makes, and [`Pass::replay`] re-feeds the recorded inputs through the
//! calls the loop cannot reach from outside (rendering inside fleets and
//! clusters, the context detector, the scheduler and the engine), checking
//! that every replayed output equals the recorded one bit for bit.
//!
//! Why each workload was chosen, and which metric each layer should move on
//! which workload, is recorded in `README.md` next to this crate.

use shift_core::cluster::{ClusterBuilder, ClusterPolicy, ClusterScheduler};
use shift_core::{
    CandidatePair, Characterization, ClusterFrameOutcome, ConfidenceGraph, ContextDetector,
    Decision, DynamicModelLoader, FleetBuilder, FleetConfig, FleetFrameOutcome, FleetRuntime,
    FrameOutcome, Scheduler, ShiftConfig, ShiftRuntime, StreamAgent, StreamHandle, StreamSpec,
};
use shift_experiments::cluster::{self, ClusterOptions, ClusterTraceOp, MAX_CLUSTER_SIZE};
use shift_experiments::workloads::paper_shift_config;
use shift_experiments::{fleet, outcome_to_record, ExperimentContext};
use shift_metrics::{percentile, ClusterCapacityRow};
use shift_soc::{DeviceClass, ExecutionEngine, FaultPlan, FaultSpec, Telemetry};
use shift_video::{BoundingBox, Frame, Scenario};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// The seed `repro` uses by default. It fixes the simulated system the
/// workloads run on: the detection response model, the offline
/// characterizations, fleet-16's fault plan and the diurnal trace's
/// arrivals, goals and deadline classes. Over system
/// seeds 1 to 10, SHIFT settles into different regimes (paper-loop energy
/// per frame ranges from 0.15 to 0.67 J), so letting `--seed` move the
/// system would measure the seed rather than the code.
pub const SYSTEM_SEED: u64 = 2024;

/// The benchmark's default `--seed`. At this seed every workload's inputs
/// are exactly `repro`'s.
pub const DEFAULT_SEED: u64 = SYSTEM_SEED;

/// The offset `--seed` adds to every scenario's content seed (its render
/// noise, background texture and camera shake). It is zero at
/// [`DEFAULT_SEED`], a multiple of 10 and at most 9,990: the renderer's
/// texture phase loses precision at large scenario seeds.
pub fn content_offset(seed: u64) -> u64 {
    seed.wrapping_sub(DEFAULT_SEED) % 1000 * 10
}

fn reseed(scenario: &Scenario, offset: u64) -> Scenario {
    scenario.clone().with_seed(scenario.seed() + offset)
}

/// Span names of the calls the benchmark times.
pub mod span {
    /// `FrameStream::next` (`FrameStream::frame_at` in replays).
    pub const RENDER: &str = "video.render";
    /// `ContextDetector::similarity` and `ContextDetector::update`.
    pub const CONTEXT: &str = "core.context";
    /// `Scheduler::schedule` (and `force_reschedule` where a re-plan ran).
    pub const SCHEDULER: &str = "core.scheduler";
    /// `ExecutionEngine::run_inference`.
    pub const ENGINE: &str = "soc.engine";
    /// `ShiftRuntime::process_frame`.
    pub const RUNTIME: &str = "core.runtime";
    /// `FleetRuntime::step`.
    pub const FLEET_STEP: &str = "core.fleet.step";
    /// `StreamAgent::new`.
    pub const AGENT_NEW: &str = "core.agent.new";
    /// `ConfidenceGraph::build`.
    pub const GRAPH_BUILD: &str = "core.graph.build";
    /// `ExperimentContext::new` and `ExperimentContext::characterize_on`.
    pub const CHARACTERIZE: &str = "core.characterize";
    /// `ClusterBuilder::build`, per cluster size.
    pub const CLUSTER_BUILD: [&str; 8] = [
        "core.cluster.build.size1",
        "core.cluster.build.size2",
        "core.cluster.build.size3",
        "core.cluster.build.size4",
        "core.cluster.build.size5",
        "core.cluster.build.size6",
        "core.cluster.build.size7",
        "core.cluster.build.size8",
    ];
    /// `ClusterScheduler::run_until_idle`, per cluster size.
    pub const CLUSTER_RUN: [&str; 8] = [
        "core.cluster.run.size1",
        "core.cluster.run.size2",
        "core.cluster.run.size3",
        "core.cluster.run.size4",
        "core.cluster.run.size5",
        "core.cluster.run.size6",
        "core.cluster.run.size7",
        "core.cluster.run.size8",
    ];
}

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `ShiftRuntime` over the six full-length evaluation scenarios, a fresh
    /// engine per scenario, as Table III runs it.
    PaperLoop,
    /// Sixteen roster streams sharing one SoC under a seeded mixed fault
    /// plan, the top size of `repro fleet`.
    Fleet16,
    /// The seeded 24-session diurnal trace replayed against clusters of 1
    /// to 8 heterogeneous nodes, as `repro cluster` runs it.
    ClusterDiurnal,
}

impl Workload {
    /// Every workload, in the order the benchmark lists them.
    pub const ALL: [Workload; 3] = [
        Workload::PaperLoop,
        Workload::Fleet16,
        Workload::ClusterDiurnal,
    ];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperLoop => "paper-loop",
            Workload::Fleet16 => "fleet-16",
            Workload::ClusterDiurnal => "cluster-diurnal",
        }
    }

    /// Parses a `--workload` name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Host time and call count accumulated by one span.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Span {
    /// Total time spent inside the span's calls.
    pub total: Duration,
    /// Number of calls.
    pub calls: u64,
}

/// Times the public calls the benchmark makes into each layer. When off,
/// [`Tracer::time`] only calls its closure, so an untraced pass reads no
/// clock inside its driving loop.
#[derive(Debug, Clone, Default)]
pub struct Tracer {
    on: bool,
    spans: BTreeMap<String, Span>,
}

impl Tracer {
    /// A tracer that records (`on`) or only calls through.
    pub fn new(on: bool) -> Self {
        Self {
            on,
            spans: BTreeMap::new(),
        }
    }

    /// Calls `f`, adding its duration to `span` when tracing is on.
    pub fn time<T>(&mut self, span: &str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let start = Instant::now();
        let out = f();
        let elapsed = start.elapsed();
        match self.spans.get_mut(span) {
            Some(s) => {
                s.total += elapsed;
                s.calls += 1;
            }
            None => {
                self.spans.insert(
                    span.to_string(),
                    Span {
                        total: elapsed,
                        calls: 1,
                    },
                );
            }
        }
        out
    }

    /// The span's accumulated time and calls (zero when never entered).
    pub fn span(&self, name: &str) -> Span {
        self.spans.get(name).copied().unwrap_or_default()
    }

    /// The span's accumulated time in milliseconds.
    pub fn ms(&self, name: &str) -> f64 {
        self.span(name).total.as_secs_f64() * 1e3
    }
}

/// FNV-1a over the bits of a pass's outputs.
#[derive(Debug, Clone, Copy)]
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u64(&mut self, value: u64) {
        self.bytes(&value.to_le_bytes());
    }

    fn f64(&mut self, value: f64) {
        self.u64(value.to_bits());
    }

    fn text(&mut self, text: &str) {
        self.u64(text.len() as u64);
        self.bytes(text.as_bytes());
    }

    /// The per-frame pair, latency, energy and IoU.
    fn frame(&mut self, outcome: &FrameOutcome) {
        self.text(&outcome.pair.to_string());
        self.f64(outcome.latency_s);
        self.f64(outcome.energy_j);
        self.f64(outcome.iou);
    }
}

/// The simulated outcome of one pass, reduced to what the end-to-end
/// metrics need. For a fixed seed it is exact.
#[derive(Debug, Clone, PartialEq)]
pub struct SimSummary {
    /// Frames completed.
    pub frames: usize,
    /// Total simulated energy, joules.
    pub energy_j: f64,
    /// Median per-frame latency, seconds.
    pub latency_p50_s: f64,
    /// 99th-percentile per-frame latency, seconds.
    pub latency_p99_s: f64,
    /// Samples above the p99 latency.
    pub samples_beyond_p99: usize,
    /// Sum of per-frame IoU.
    pub iou_sum: f64,
}

impl SimSummary {
    /// Percentiles interpolate as in the repository's artifacts
    /// (`shift_metrics::percentile`).
    fn new(latencies_s: &[f64], energy_j: f64, iou_sum: f64) -> Self {
        let p99 = percentile(latencies_s, 99.0);
        Self {
            frames: latencies_s.len(),
            energy_j,
            latency_p50_s: percentile(latencies_s, 50.0),
            latency_p99_s: p99,
            samples_beyond_p99: latencies_s.iter().filter(|&&l| l > p99).count(),
            iou_sum,
        }
    }
}

/// Everything one pass produces besides its timings.
#[derive(Debug, Clone, PartialEq)]
pub struct PassOutput {
    /// Operations attempted: frames on paper-loop and fleet-16, attach
    /// requests on cluster-diurnal.
    pub attempted: u64,
    /// Operations whose call returned an error.
    pub failed: u64,
    /// Attempted operations that were not served: failed frames, or attach
    /// requests that were rejected or shed.
    pub refused: u64,
    /// The simulated outcome.
    pub sim: SimSummary,
    /// Hash of every frame's pair, latency, energy and IoU, plus each
    /// session's outcome.
    pub digest: u64,
    /// Per-layer work counters read from public accessors, by metric name.
    pub counts: BTreeMap<&'static str, f64>,
}

/// One workload, set up and ready to run once.
///
/// A run is a fixed sequence of independent segments (a paper-loop
/// scenario, a fleet-16 fleet, a cluster-diurnal cluster size), so the
/// runner can time each one.
pub trait Pass {
    /// Number of segments in a run.
    fn segments(&self) -> usize;

    /// Drives segment `segment` of the workload's closed loop to its end,
    /// timing each public call into `tracer`. Segments run in order, each
    /// once.
    ///
    /// # Errors
    ///
    /// Returns a description of an unrecoverable error.
    fn run_segment(&mut self, segment: usize, tracer: &mut Tracer) -> Result<(), String>;

    /// Runs every segment in order.
    ///
    /// # Errors
    ///
    /// Returns the first segment's error.
    fn run(&mut self, tracer: &mut Tracer) -> Result<(), String> {
        (0..self.segments()).try_for_each(|segment| self.run_segment(segment, tracer))
    }

    /// Reduces the finished run.
    fn output(&self) -> PassOutput;

    /// Replays the recorded inputs through the layers the driving loop
    /// cannot time from outside, checking every output bit for bit.
    ///
    /// # Errors
    ///
    /// Returns the first replayed output that differs from the recording.
    fn replay(&self, tracer: &mut Tracer) -> Result<(), String>;

    /// Checks the finished run against the experiment harness and the
    /// conservation laws of the workload.
    ///
    /// # Errors
    ///
    /// Returns the first check that failed.
    fn check(&self) -> Result<(), String>;

    /// The (characterization, configuration) inputs of every agent the
    /// workload builds, one per distinct characterization.
    fn agent_inputs(&self) -> Vec<(&Characterization, ShiftConfig)>;
}

/// Builds everything `workload` needs before its first frame-producing
/// call: the simulated system from [`SYSTEM_SEED`], the inputs from `seed`.
///
/// # Errors
///
/// Returns a description of a construction error.
pub fn setup(workload: Workload, seed: u64, tracer: &mut Tracer) -> Result<Box<dyn Pass>, String> {
    let ctx = tracer
        .time(span::CHARACTERIZE, || ExperimentContext::new(SYSTEM_SEED))
        .with_jobs(1);
    Ok(match workload {
        Workload::PaperLoop => Box::new(PaperLoop::new(ctx, seed)?),
        Workload::Fleet16 => Box::new(Fleet16::new(ctx, seed)?),
        Workload::ClusterDiurnal => Box::new(ClusterDiurnal::new(ctx, seed, tracer)?),
    })
}

/// Times `repeats` calls each of `ConfidenceGraph::build` and
/// `StreamAgent::new` on every input, checking that each agent's graph is
/// the one built directly.
///
/// # Errors
///
/// Returns an agent construction error or a graph mismatch.
pub fn measure_builds(
    inputs: &[(&Characterization, ShiftConfig)],
    repeats: usize,
    tracer: &mut Tracer,
) -> Result<(), String> {
    for (characterization, config) in inputs {
        for _ in 0..repeats {
            let graph = tracer.time(span::GRAPH_BUILD, || {
                ConfidenceGraph::build(&characterization.samples, config.graph_config())
            });
            let agent = tracer
                .time(span::AGENT_NEW, || {
                    StreamAgent::new(characterization, config.clone())
                })
                .map_err(|e| format!("StreamAgent::new: {e}"))?;
            if agent.scheduler().graph() != &graph {
                return Err("StreamAgent::new built a different confidence graph".into());
            }
        }
    }
    Ok(())
}

/// Reads the process's peak resident set (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

fn same(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits()
}

fn add_telemetry(counts: &mut BTreeMap<&'static str, f64>, telemetry: &Telemetry) {
    *counts.entry("core.loader.loads").or_default() += telemetry.load_count as f64;
    *counts.entry("core.loader.evictions").or_default() += telemetry.eviction_count as f64;
    *counts.entry("sim.loader.load_s").or_default() += telemetry.load_time_s;
    *counts.entry("sim.engine.busy_s").or_default() += telemetry.inference_time_s;
    *counts.entry("soc.engine.inferences").or_default() += telemetry.inference_count as f64;
}

/// What a stream replay re-runs besides the context detector and the
/// scheduler.
struct Replay<'e> {
    /// Time rendering (where the driving loop could not).
    time_render: bool,
    /// Also make each recorded pair resident on this engine and run it.
    engine: Option<&'e mut ExecutionEngine>,
}

/// Replays one stream's recorded frames through a fresh context detector
/// and scheduler, as `StreamAgent::decide` and `StreamAgent::complete` call
/// them, and checks every decision against the recorded outcomes. Frames
/// are rendered fresh, by index, through `FrameStream::frame_at` (which
/// `FrameStream::next` wraps), so no NCC moments are cached yet. With an
/// engine, the recorded pairs are also made resident and run on it, and
/// each frame's latency, energy and IoU are rebuilt bit for bit the way
/// `ShiftRuntime::process_frame` charges them.
///
/// Returns the replayed scheduler for comparison with the live one.
fn replay_stream(
    scenario: &Scenario,
    characterization: &Characterization,
    config: &ShiftConfig,
    outcomes: &[&FrameOutcome],
    replay: Replay<'_>,
    tracer: &mut Tracer,
) -> Result<Scheduler, String> {
    let Replay {
        time_render,
        mut engine,
    } = replay;
    let graph = ConfidenceGraph::build(&characterization.samples, config.graph_config());
    let mut scheduler = Scheduler::new(config.clone(), characterization, graph)
        .map_err(|e| format!("Scheduler::new: {e}"))?;
    let mut detector = ContextDetector::new();
    let mut loader = DynamicModelLoader::new();
    let mut current = scheduler.initial_pair();
    let (mut pending_s, mut pending_j) = (0.0, 0.0);
    if let Some(engine) = engine.as_deref_mut() {
        let initial = loader
            .ensure_loaded(engine, current)
            .map_err(|e| format!("initial load: {e}"))?;
        (pending_s, pending_j) = (initial.load_time_s, initial.load_energy_j);
    }
    let mut last_confidence = 0.0;
    let mut last_bbox: Option<BoundingBox> = None;
    let stream = scenario.stream();
    for o in outcomes {
        let i = o.frame_index;
        let mismatch =
            |what: &str| format!("{} frame {i}: replayed {what} differs", scenario.name());
        let frame = if time_render {
            tracer.time(span::RENDER, || stream.frame_at(i))
        } else {
            stream.frame_at(i)
        }
        .ok_or_else(|| mismatch("frame"))?;
        let similarity = tracer.time(span::CONTEXT, || {
            detector.similarity(&frame, last_bbox.as_ref())
        });
        let mut decision = tracer.time(span::SCHEDULER, || {
            scheduler.schedule(current, last_confidence, similarity)
        });
        if o.rescheduled && !decision.rescheduled {
            // The live runtime found the gate-kept pair offline and re-planned.
            decision = tracer.time(span::SCHEDULER, || {
                scheduler.force_reschedule(current, last_confidence, similarity)
            });
        }
        if !same(similarity, o.similarity) {
            return Err(mismatch("similarity"));
        }
        if decision.rescheduled != o.rescheduled || !decided(&decision, current, o.pair) {
            return Err(mismatch("decision"));
        }
        if let Some(engine) = engine.as_deref_mut() {
            rerun_frame(
                engine,
                &mut loader,
                &frame,
                o,
                config,
                (pending_s, pending_j),
                tracer,
            )
            .map_err(|what| mismatch(&what))?;
            (pending_s, pending_j) = (0.0, 0.0);
        }
        let bbox = o.detection.map(|d| d.bbox);
        tracer.time(span::CONTEXT, || detector.update(&frame, bbox.as_ref()));
        current = o.pair;
        last_confidence = o.confidence;
        last_bbox = bbox;
    }
    Ok(scheduler)
}

/// Whether `executed` is the decided pair or one the runtime may degrade to.
fn decided(decision: &Decision, current: CandidatePair, executed: CandidatePair) -> bool {
    executed == decision.pair || decision.fallback_candidates(current).contains(&executed)
}

/// Makes `o.pair` resident, runs it on `frame` and rebuilds the outcome's
/// latency, energy and IoU. `pending` is the initial load charged to the
/// first frame.
fn rerun_frame(
    engine: &mut ExecutionEngine,
    loader: &mut DynamicModelLoader,
    frame: &Frame,
    o: &FrameOutcome,
    config: &ShiftConfig,
    pending: (f64, f64),
    tracer: &mut Tracer,
) -> Result<(), String> {
    let load = loader
        .ensure_loaded(engine, o.pair)
        .map_err(|e| format!("load ({e})"))?;
    let report = tracer
        .time(span::ENGINE, || {
            engine.run_inference(o.pair.model, o.pair.accelerator, frame)
        })
        .map_err(|e| format!("inference ({e})"))?;
    let load_s = pending.0 + load.load_time_s;
    let load_j = pending.1 + load.load_energy_j;
    let latency_s = 0.0 + config.scheduler_overhead_s + load_s + report.latency_s;
    let energy_j = config.scheduler_overhead_energy_j() + load_j + report.energy_j;
    if !same(latency_s, o.latency_s) {
        return Err("latency".into());
    }
    if !same(energy_j, o.energy_j) {
        return Err("energy".into());
    }
    if !same(report.result.iou_against(frame.truth.as_ref()), o.iou) {
        return Err("IoU".into());
    }
    Ok(())
}

/// paper-loop: SHIFT as Table III runs it.
struct PaperLoop {
    ctx: ExperimentContext,
    scenarios: Vec<Scenario>,
    runtimes: Vec<ShiftRuntime>,
    outcomes: Vec<Vec<FrameOutcome>>,
    failed: u64,
}

impl PaperLoop {
    fn new(ctx: ExperimentContext, seed: u64) -> Result<Self, String> {
        let scenarios: Vec<Scenario> = ctx
            .scenarios()
            .iter()
            .map(|s| reseed(s, content_offset(seed)))
            .collect();
        let runtimes = scenarios
            .iter()
            .map(|_| ShiftRuntime::new(ctx.engine(), ctx.characterization(), paper_shift_config()))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("ShiftRuntime::new: {e}"))?;
        Ok(Self {
            ctx,
            scenarios,
            runtimes,
            outcomes: Vec::new(),
            failed: 0,
        })
    }
}

impl Pass for PaperLoop {
    fn segments(&self) -> usize {
        self.scenarios.len()
    }

    fn run_segment(&mut self, segment: usize, tracer: &mut Tracer) -> Result<(), String> {
        let scenario = &self.scenarios[segment];
        let runtime = &mut self.runtimes[segment];
        let mut stream = scenario.stream();
        let mut outcomes = Vec::with_capacity(scenario.num_frames());
        while let Some(frame) = tracer.time(span::RENDER, || stream.next()) {
            match tracer.time(span::RUNTIME, || runtime.process_frame(&frame)) {
                Ok(outcome) => outcomes.push(outcome),
                Err(_) => self.failed += 1,
            }
        }
        self.outcomes.push(outcomes);
        Ok(())
    }

    fn output(&self) -> PassOutput {
        let mut digest = Digest::new();
        let mut latencies = Vec::new();
        let (mut energy_j, mut iou_sum) = (0.0, 0.0);
        for o in self.outcomes.iter().flatten() {
            digest.frame(o);
            latencies.push(o.latency_s);
            energy_j += o.energy_j;
            iou_sum += o.iou;
        }
        let mut counts = BTreeMap::new();
        let mut reschedules = 0.0;
        for runtime in &self.runtimes {
            reschedules += runtime.reschedule_count() as f64;
            add_telemetry(&mut counts, runtime.engine().telemetry());
        }
        counts.insert("core.scheduler.reschedules", reschedules);
        let frames = latencies.len() as u64;
        PassOutput {
            attempted: frames + self.failed,
            failed: self.failed,
            refused: self.failed,
            sim: SimSummary::new(&latencies, energy_j, iou_sum),
            digest: digest.0,
            counts,
        }
    }

    fn replay(&self, tracer: &mut Tracer) -> Result<(), String> {
        let config = paper_shift_config();
        for ((scenario, runtime), outcomes) in self
            .scenarios
            .iter()
            .zip(&self.runtimes)
            .zip(&self.outcomes)
        {
            let mut engine = self.ctx.engine();
            let outcomes: Vec<&FrameOutcome> = outcomes.iter().collect();
            // The driving loop already timed rendering.
            let scheduler = replay_stream(
                scenario,
                self.ctx.characterization(),
                &config,
                &outcomes,
                Replay {
                    time_render: false,
                    engine: Some(&mut engine),
                },
                tracer,
            )?;
            if scheduler.reschedule_count() != runtime.reschedule_count() {
                return Err(format!(
                    "{}: replayed reschedule count differs",
                    scenario.name()
                ));
            }
            if engine.telemetry() != runtime.engine().telemetry() {
                return Err(format!(
                    "{}: replayed engine telemetry differs",
                    scenario.name()
                ));
            }
        }
        Ok(())
    }

    fn check(&self) -> Result<(), String> {
        for (scenario, outcomes) in self.scenarios.iter().zip(&self.outcomes) {
            let reference = self
                .ctx
                .run_shift(scenario, paper_shift_config())
                .map_err(|e| format!("run_shift: {e}"))?;
            let records: Vec<_> = outcomes.iter().map(outcome_to_record).collect();
            if records != reference {
                return Err(format!(
                    "{}: records differ from ExperimentContext::run_shift",
                    scenario.name()
                ));
            }
        }
        Ok(())
    }

    fn agent_inputs(&self) -> Vec<(&Characterization, ShiftConfig)> {
        vec![(self.ctx.characterization(), paper_shift_config())]
    }
}

/// Streams per fleet in the fleet-16 workload.
const FLEET_STREAMS: usize = 16;

/// Independent 16-stream fleets per fleet-16 pass, each on its own SoC and
/// its own content. One fleet settles into one of three contention regimes
/// depending on its content, which moved its median frame latency between
/// 431 and 591 ms over seeds 1 to 12; pooling two fleets held the median
/// within 4%.
const FLEET_REPLICAS: usize = 2;

/// One 16-stream fleet of the fleet-16 workload.
struct FleetReplica {
    specs: Vec<StreamSpec>,
    fleet: FleetRuntime,
    outcomes: Vec<FleetFrameOutcome>,
    failed: u64,
}

/// fleet-16: sixteen streams per shared SoC under a mixed fault plan.
struct Fleet16 {
    ctx: ExperimentContext,
    replicas: Vec<FleetReplica>,
}

impl Fleet16 {
    fn new(ctx: ExperimentContext, seed: u64) -> Result<Self, String> {
        let mut replicas = Vec::with_capacity(FLEET_REPLICAS);
        for replica in 0..FLEET_REPLICAS {
            let mut specs = fleet::stream_specs(&ctx, FLEET_STREAMS);
            for spec in &mut specs {
                spec.scenario = reseed(&spec.scenario, content_offset(seed) + 5 * replica as u64);
            }
            let horizon: usize = specs.iter().map(|s| s.scenario.num_frames()).sum();
            // The fault plan is part of the fixed system: over seeds 1 to 6 a
            // seed-drawn plan moved the median frame latency from 391 to
            // 983 ms.
            let plan = FaultPlan::generate(SYSTEM_SEED, &FaultSpec::mixed(horizon as u64));
            let fleet = FleetBuilder::new(ctx.engine(), ctx.characterization())
                .config(FleetConfig::round_robin())
                .streams(specs.clone())
                .fault_plan(plan)
                .build()
                .map_err(|e| format!("FleetBuilder::build: {e}"))?;
            replicas.push(FleetReplica {
                specs,
                fleet,
                outcomes: Vec::new(),
                failed: 0,
            });
        }
        Ok(Self { ctx, replicas })
    }
}

impl Pass for Fleet16 {
    fn segments(&self) -> usize {
        self.replicas.len()
    }

    fn run_segment(&mut self, segment: usize, tracer: &mut Tracer) -> Result<(), String> {
        let replica = &mut self.replicas[segment];
        let fleet = &mut replica.fleet;
        replica.outcomes.reserve(fleet.total_frames());
        loop {
            match tracer.time(span::FLEET_STEP, || fleet.step()) {
                Ok(Some(outcome)) => replica.outcomes.push(outcome),
                Ok(None) => break,
                Err(_) => {
                    // A failed step leaves the rest of the fleet unplayed.
                    replica.failed = (fleet.total_frames() - replica.outcomes.len()) as u64;
                    break;
                }
            }
        }
        Ok(())
    }

    fn output(&self) -> PassOutput {
        let mut digest = Digest::new();
        let mut latencies = Vec::new();
        let (mut energy_j, mut iou_sum, mut queue_wait_s) = (0.0, 0.0, 0.0);
        let mut counts = BTreeMap::new();
        let (mut reschedules, mut fault_frames, mut replans, mut degraded) = (0, 0, 0, 0);
        let (mut polls, mut attempted, mut failed) = (0, 0, 0);
        for replica in &self.replicas {
            for o in &replica.outcomes {
                digest.u64(o.stream as u64);
                digest.frame(&o.outcome);
                latencies.push(o.outcome.latency_s);
                energy_j += o.outcome.energy_j;
                iou_sum += o.outcome.iou;
                queue_wait_s += o.queue_wait_s;
            }
            let fleet = &replica.fleet;
            for handle in fleet.handles() {
                let view = fleet.stream(handle);
                reschedules += view.agent().scheduler().reschedule_count();
                let resilience = view.resilience();
                fault_frames += resilience.fault_frames;
                replans += resilience.fault_replans;
                degraded += resilience.degraded_frames;
            }
            polls += fleet.stream_polls();
            attempted += fleet.total_frames() as u64;
            failed += replica.failed;
            add_telemetry(&mut counts, fleet.engine().telemetry());
        }
        counts.insert("core.scheduler.reschedules", reschedules as f64);
        counts.insert("core.fleet.stream_polls", polls as f64);
        counts.insert("sim.occupancy.queue_wait_s", queue_wait_s);
        counts.insert("sim.fault.frames", fault_frames as f64);
        counts.insert("sim.fault.replans", replans as f64);
        counts.insert("sim.fault.degraded_frames", degraded as f64);
        PassOutput {
            attempted,
            failed,
            refused: failed,
            sim: SimSummary::new(&latencies, energy_j, iou_sum),
            digest: digest.0,
            counts,
        }
    }

    fn replay(&self, tracer: &mut Tracer) -> Result<(), String> {
        for replica in &self.replicas {
            for (index, spec) in replica.specs.iter().enumerate() {
                let outcomes: Vec<&FrameOutcome> = replica
                    .outcomes
                    .iter()
                    .filter(|o| o.stream == index)
                    .map(|o| &o.outcome)
                    .collect();
                let scheduler = replay_stream(
                    &spec.scenario,
                    self.ctx.characterization(),
                    &spec.config,
                    &outcomes,
                    Replay {
                        time_render: true,
                        engine: None,
                    },
                    tracer,
                )?;
                let live = replica.fleet.stream(StreamHandle::from_index(index));
                if scheduler.reschedule_count() != live.agent().scheduler().reschedule_count() {
                    return Err(format!("{}: replayed reschedule count differs", spec.name));
                }
            }
        }
        Ok(())
    }

    fn check(&self) -> Result<(), String> {
        for replica in &self.replicas {
            let fleet = &replica.fleet;
            for handle in fleet.handles() {
                let view = fleet.stream(handle);
                if view.is_detached() || view.frames_processed() != view.total_frames() {
                    return Err(format!(
                        "{}: processed {} of {} frames",
                        view.name(),
                        view.frames_processed(),
                        view.total_frames()
                    ));
                }
            }
            if replica.outcomes.len() != fleet.total_frames() {
                return Err("fleet outcomes do not cover every frame".into());
            }
        }
        Ok(())
    }

    fn agent_inputs(&self) -> Vec<(&Characterization, ShiftConfig)> {
        vec![(self.ctx.characterization(), ShiftConfig::paper_defaults())]
    }
}

/// One cluster size of the cluster-diurnal workload.
struct SizeRun {
    size: usize,
    cluster: ClusterScheduler,
    outcomes: Vec<ClusterFrameOutcome>,
}

impl SizeRun {
    /// The capacity row, reduced exactly as `cluster::run_size` reduces it.
    fn row(&self) -> ClusterCapacityRow {
        let latencies: Vec<f64> = self
            .outcomes
            .iter()
            .map(|o| o.inner.outcome.latency_s)
            .collect();
        let energy_j: f64 = self.outcomes.iter().map(|o| o.inner.outcome.energy_j).sum();
        let sessions = self.cluster.sessions();
        let admitted = sessions.iter().filter(|s| s.rejected.is_none()).count();
        let shed = sessions.iter().filter(|s| s.shed).count();
        let labels: Vec<&str> = cluster::node_classes(self.size)
            .iter()
            .map(|c| c.label())
            .collect();
        ClusterCapacityRow::from_run(
            self.size,
            labels.join("+"),
            sessions.len(),
            admitted,
            sessions.len() - admitted,
            shed,
            self.cluster.migrations().len(),
            &latencies,
            energy_j,
        )
    }
}

/// cluster-diurnal: the diurnal trace against clusters of 1 to 8 nodes.
struct ClusterDiurnal {
    ctx: ExperimentContext,
    characterizations: BTreeMap<DeviceClass, Characterization>,
    options: ClusterOptions,
    /// Each session's video, by session name.
    scenarios: BTreeMap<String, Scenario>,
    /// Whether the inputs are exactly `cluster::run_size`'s.
    repro_inputs: bool,
    offered: usize,
    sizes: Vec<SizeRun>,
}

impl ClusterDiurnal {
    fn new(ctx: ExperimentContext, seed: u64, tracer: &mut Tracer) -> Result<Self, String> {
        let characterizations = tracer.time(span::CHARACTERIZE, || {
            cluster::class_characterizations(&ctx)
        });
        let options = ClusterOptions::full();
        let mut trace = cluster::diurnal_trace(&ctx, &options);
        let mut scenarios = BTreeMap::new();
        for entry in &mut trace {
            if let ClusterTraceOp::Attach(request) = &mut entry.op {
                request.scenario = reseed(&request.scenario, content_offset(seed));
                scenarios.insert(request.name.clone(), request.scenario.clone());
            }
        }
        let offered = trace
            .iter()
            .filter(|e| matches!(e.op, ClusterTraceOp::Attach(_)))
            .count();
        let mut sizes = Vec::with_capacity(MAX_CLUSTER_SIZE);
        for size in 1..=MAX_CLUSTER_SIZE {
            // The same nodes and policy as `cluster::run_size`.
            let mut builder = ClusterBuilder::new()
                .policy(
                    ClusterPolicy::defaults()
                        .with_rebalance(options.rebalance_period, options.rebalance_gap),
                )
                .execution_mode(ctx.execution_mode());
            for class in cluster::node_classes(size) {
                builder = builder.node(
                    class,
                    ctx.engine_on(class.platform()),
                    characterizations[&class].clone(),
                );
            }
            let mut cluster = tracer
                .time(span::CLUSTER_BUILD[size - 1], || builder.build())
                .map_err(|e| format!("ClusterBuilder::build: {e}"))?;
            for entry in trace.iter().cloned() {
                match entry.op {
                    ClusterTraceOp::Attach(request) => {
                        cluster.schedule_attach(entry.tick, *request);
                    }
                    ClusterTraceOp::Detach(id) => cluster.schedule_detach(entry.tick, id),
                }
            }
            sizes.push(SizeRun {
                size,
                cluster,
                outcomes: Vec::new(),
            });
        }
        Ok(Self {
            ctx,
            characterizations,
            options,
            scenarios,
            repro_inputs: content_offset(seed) == 0,
            offered,
            sizes,
        })
    }
}

impl Pass for ClusterDiurnal {
    fn segments(&self) -> usize {
        self.sizes.len()
    }

    fn run_segment(&mut self, segment: usize, tracer: &mut Tracer) -> Result<(), String> {
        let run = &mut self.sizes[segment];
        let cluster = &mut run.cluster;
        run.outcomes = tracer
            .time(span::CLUSTER_RUN[run.size - 1], || cluster.run_until_idle())
            .map_err(|e| format!("cluster size {}: {e}", run.size))?;
        Ok(())
    }

    fn output(&self) -> PassOutput {
        let mut digest = Digest::new();
        let mut latencies = Vec::new();
        let (mut energy_j, mut iou_sum) = (0.0, 0.0);
        let mut counts: BTreeMap<&'static str, f64> = BTreeMap::new();
        let mut count = |name: &'static str, value: f64| *counts.entry(name).or_default() += value;
        let mut refused = 0;
        for run in &self.sizes {
            for o in &run.outcomes {
                digest.u64(o.node as u64);
                digest.frame(&o.inner.outcome);
                latencies.push(o.inner.outcome.latency_s);
                energy_j += o.inner.outcome.energy_j;
                iou_sum += o.inner.outcome.iou;
            }
            let sessions = run.cluster.sessions();
            for s in &sessions {
                digest.text(&s.name);
                digest.text(&format!("{:?} {:?} {:?}", s.node, s.class, s.rejected));
                digest.u64(u64::from(s.shed));
                digest.f64(s.admitted_goal);
                digest.u64(u64::from(s.migrations));
                digest.u64(s.frames as u64);
            }
            let admitted = sessions.iter().filter(|s| s.rejected.is_none());
            let rejected = sessions.len() - admitted.clone().count();
            let shed = sessions.iter().filter(|s| s.shed).count();
            refused += (rejected + shed) as u64;
            count("core.service.requests", sessions.len() as f64);
            count("core.service.admitted", admitted.clone().count() as f64);
            count(
                "core.service.degraded",
                admitted
                    .filter(|s| s.admitted_goal < s.requested_goal)
                    .count() as f64,
            );
            count("core.service.rejected", rejected as f64);
            count("core.service.shed", shed as f64);
            let migrations = run.cluster.migrations();
            count("core.cluster.migrations", migrations.len() as f64);
            count(
                "sim.cluster.migration_transfer_s",
                migrations.iter().map(|m| m.transfer_s).sum(),
            );
            for node in 0..run.cluster.node_count() {
                let fleet = run.cluster.node(node).fleet();
                count("core.fleet.stream_polls", fleet.stream_polls() as f64);
                let reschedules: u64 = fleet
                    .handles()
                    .into_iter()
                    .map(|h| fleet.stream(h).agent().scheduler().reschedule_count())
                    .sum();
                count("core.scheduler.reschedules", reschedules as f64);
            }
        }
        for run in &self.sizes {
            for node in 0..run.cluster.node_count() {
                add_telemetry(
                    &mut counts,
                    run.cluster.node(node).fleet().engine().telemetry(),
                );
            }
        }
        PassOutput {
            attempted: (self.offered * self.sizes.len()) as u64,
            failed: 0,
            refused,
            sim: SimSummary::new(&latencies, energy_j, iou_sum),
            digest: digest.0,
            counts,
        }
    }

    fn replay(&self, tracer: &mut Tracer) -> Result<(), String> {
        // Each node-local stream is one agent: a migration starts a fresh
        // agent on the destination node at the frame the session reached.
        for run in &self.sizes {
            let mut streams: BTreeMap<(usize, usize), Vec<&FrameOutcome>> = BTreeMap::new();
            for o in &run.outcomes {
                streams
                    .entry((o.node, o.inner.stream))
                    .or_default()
                    .push(&o.inner.outcome);
            }
            for ((node, stream), outcomes) in streams {
                let fleet = run.cluster.node(node).fleet();
                let live = fleet.stream(StreamHandle::from_index(stream));
                let scenario = self
                    .scenarios
                    .get(live.name())
                    .ok_or_else(|| format!("unknown session {}", live.name()))?;
                let class = run.cluster.node_class(node);
                let scheduler = replay_stream(
                    scenario,
                    &self.characterizations[&class],
                    live.agent().config(),
                    &outcomes,
                    Replay {
                        time_render: true,
                        engine: None,
                    },
                    tracer,
                )?;
                if scheduler.reschedule_count() != live.agent().scheduler().reschedule_count() {
                    return Err(format!(
                        "cluster size {} node {node}: {} replayed reschedule count differs",
                        run.size,
                        live.name()
                    ));
                }
            }
        }
        Ok(())
    }

    fn check(&self) -> Result<(), String> {
        for run in &self.sizes {
            let row = run.row();
            if row.offered != self.offered || row.admitted + row.rejected != self.offered {
                return Err(format!(
                    "cluster size {}: offered {} != admitted {} + rejected {}",
                    run.size, self.offered, row.admitted, row.rejected
                ));
            }
            let frames: usize = run.cluster.sessions().iter().map(|s| s.frames).sum();
            if frames != run.outcomes.len() {
                return Err(format!(
                    "cluster size {}: sessions report {frames} frames, outcomes {}",
                    run.size,
                    run.outcomes.len()
                ));
            }
            // `run_size` replays the trace with the system seed's content, so
            // it is comparable only at the default seed; `main` checks a
            // default-seed pass whenever `--seed` differs.
            if !self.repro_inputs {
                continue;
            }
            let reference =
                cluster::run_size(&self.ctx, run.size, &self.options, &self.characterizations)
                    .map_err(|e| format!("run_size: {e}"))?;
            if reference.row != row {
                return Err(format!(
                    "cluster size {}: row differs from cluster::run_size",
                    run.size
                ));
            }
        }
        Ok(())
    }

    fn agent_inputs(&self) -> Vec<(&Characterization, ShiftConfig)> {
        self.characterizations
            .values()
            .map(|c| (c, ShiftConfig::paper_defaults()))
            .collect()
    }
}
