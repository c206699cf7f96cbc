//! Cross-crate integration tests for the extension substrates: precision
//! variants, DVFS power modes, the network link, the alternative accuracy
//! predictors, the extra baselines and the metrics exporters.

use shift_baselines::{
    AdaVpConfig, AdaVpRuntime, FrameHopperConfig, FrameHopperRuntime, OffloadConfig,
    OffloadRuntime, SingleModelRuntime,
};
use shift_core::{prediction_mae, ConfidenceGraph, PassthroughPredictor, RegressionPredictor};
use shift_experiments::workloads::paper_shift_config;
use shift_experiments::ExperimentContext;
use shift_metrics::{
    accuracy_energy_frontier, average_success, records_to_csv, records_to_json, success_curve,
    summaries_to_csv, RunSummary,
};
use shift_models::{ModelId, ModelZoo, Precision, ResponseModel};
use shift_soc::{AcceleratorId, ExecutionEngine, NetworkLink, PowerMode};
use shift_video::Scenario;

fn engine_with(zoo: ModelZoo, seed: u64) -> ExecutionEngine {
    ExecutionEngine::new(
        shift_soc::Platform::xavier_nx_with_oak(),
        zoo,
        ResponseModel::new(seed),
    )
}

#[test]
fn quantized_runs_are_deterministic_and_cheaper() {
    let scenario = Scenario::scenario_2().with_num_frames(80);
    let run = |precision: Precision| {
        let zoo = ModelZoo::standard().with_precision(precision);
        let mut runtime =
            SingleModelRuntime::new(engine_with(zoo, 3), ModelId::YoloV7, AcceleratorId::Gpu)
                .unwrap();
        runtime.run(scenario.clone().stream()).unwrap()
    };
    let fp32_a = run(Precision::Fp32);
    let fp32_b = run(Precision::Fp32);
    assert_eq!(
        fp32_a, fp32_b,
        "same precision + seed must be bit-identical"
    );

    let int8 = run(Precision::Int8);
    let energy = |rs: &[shift_metrics::FrameRecord]| rs.iter().map(|r| r.energy_j).sum::<f64>();
    let iou =
        |rs: &[shift_metrics::FrameRecord]| rs.iter().map(|r| r.iou).sum::<f64>() / rs.len() as f64;
    assert!(energy(&int8) < energy(&fp32_a));
    assert!(iou(&int8) < iou(&fp32_a), "INT8 YoloV7 loses accuracy");
}

#[test]
fn power_modes_preserve_accuracy_and_shift_the_cost() {
    let scenario = Scenario::scenario_3().with_num_frames(60);
    let run = |mode: PowerMode| {
        let engine = engine_with(ModelZoo::standard(), 5).with_power_mode(mode);
        let mut runtime =
            SingleModelRuntime::new(engine, ModelId::YoloV7, AcceleratorId::Gpu).unwrap();
        RunSummary::from_records(
            format!("{mode}"),
            &runtime.run(scenario.clone().stream()).unwrap(),
        )
    };
    let low = run(PowerMode::Mode10W);
    let mid = run(PowerMode::Mode15W);
    let high = run(PowerMode::Mode20W);
    assert!(low.mean_latency_s > mid.mean_latency_s);
    assert!(mid.mean_latency_s > high.mean_latency_s);
    assert!(low.mean_energy_j < high.mean_energy_j);
    assert!(
        (low.mean_iou - high.mean_iou).abs() < 1e-9,
        "DVFS must not change detections"
    );
}

#[test]
fn predictors_rank_consistently_on_the_shared_characterization() {
    let ctx = ExperimentContext::quick(61);
    let samples = &ctx.characterization().samples;
    let graph = ConfidenceGraph::build(samples, paper_shift_config().graph_config());
    let regression = RegressionPredictor::fit(samples);
    let passthrough = PassthroughPredictor::from_samples(samples);
    let graph_mae = prediction_mae(&graph, samples).unwrap();
    let regression_mae = prediction_mae(&regression, samples).unwrap();
    let passthrough_mae = prediction_mae(&passthrough, samples).unwrap();
    assert!(graph_mae < passthrough_mae);
    assert!(regression_mae < passthrough_mae);
    assert!(
        graph_mae < 0.35,
        "graph MAE should be a usable signal, got {graph_mae}"
    );
}

#[test]
fn all_baselines_produce_complete_comparable_records() {
    let ctx = ExperimentContext::quick(67);
    let scenario = ctx.scaled(Scenario::scenario_4());
    let frames = scenario.num_frames();

    let shift = ctx.run_shift(&scenario, paper_shift_config()).unwrap();
    let mut offload = OffloadRuntime::new(ctx.engine(), OffloadConfig::cellular()).unwrap();
    let offload_records = offload.run(scenario.stream()).unwrap();
    let mut adavp = AdaVpRuntime::new(ctx.engine(), AdaVpConfig::standard()).unwrap();
    let adavp_records = adavp.run(scenario.stream()).unwrap();
    let mut hopper = FrameHopperRuntime::new(ctx.engine(), FrameHopperConfig::standard()).unwrap();
    let hopper_records = hopper.run(scenario.stream()).unwrap();

    for (label, records) in [
        ("shift", &shift),
        ("offload", &offload_records),
        ("adavp", &adavp_records),
        ("framehopper", &hopper_records),
    ] {
        assert_eq!(records.len(), frames, "{label} dropped frames");
        for record in records.iter() {
            assert!(
                record.iou >= 0.0 && record.iou <= 1.0,
                "{label} IoU out of range"
            );
            assert!(record.latency_s > 0.0, "{label} has a zero-latency frame");
            assert!(record.energy_j >= 0.0);
        }
    }

    let summaries: Vec<_> = [
        ("SHIFT", &shift),
        ("Offload", &offload_records),
        ("AdaVP", &adavp_records),
        ("FrameHopper", &hopper_records),
    ]
    .into_iter()
    .map(|(label, records)| RunSummary::from_records(label, records))
    .collect();
    let frontier = accuracy_energy_frontier(&summaries);
    assert_eq!(frontier.len(), 4);
    assert!(
        frontier.iter().any(|p| p.pareto_optimal),
        "at least one method must be Pareto-optimal"
    );
    assert!(
        frontier
            .iter()
            .find(|p| p.label == "SHIFT")
            .unwrap()
            .pareto_optimal,
        "SHIFT should sit on the accuracy-energy frontier of this comparison"
    );
}

#[test]
fn exporters_round_trip_row_counts_and_labels() {
    let ctx = ExperimentContext::quick(71);
    let scenario = ctx.scaled(Scenario::scenario_6());
    let records = ctx.run_shift(&scenario, paper_shift_config()).unwrap();

    let csv = records_to_csv(&records);
    assert_eq!(csv.lines().count(), records.len() + 1);
    let json = records_to_json(&records);
    assert_eq!(json.matches("\"frame_index\"").count(), records.len());

    let summary = RunSummary::from_records("SHIFT / scenario 6", &records);
    let summary_csv = summaries_to_csv(std::slice::from_ref(&summary));
    assert_eq!(summary_csv.lines().count(), 2);
    assert!(summary_csv.contains("SHIFT / scenario 6"));
}

#[test]
fn success_curves_are_consistent_with_the_fixed_threshold_metric() {
    let ctx = ExperimentContext::quick(73);
    let scenario = ctx.scaled(Scenario::scenario_5());
    let records = ctx.run_shift(&scenario, paper_shift_config()).unwrap();
    let summary = RunSummary::from_records("SHIFT", &records);

    let curve = success_curve(&records, &[0.5]);
    assert!((curve[0].success_rate - summary.success_rate).abs() < 1e-12);

    let auc = average_success(&records);
    assert!((0.0..=1.0).contains(&auc));
    // The area under the success curve is bounded below by the success rate
    // at the strictest threshold and above by the loosest threshold's rate.
    let loose = success_curve(&records, &[0.05])[0].success_rate;
    let strict = success_curve(&records, &[0.95])[0].success_rate;
    assert!(auc <= loose + 1e-9);
    assert!(auc >= strict - 1e-9);
}

use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The network link never produces negative costs, never answers during
    /// an outage, and its latency always covers at least the transfer time
    /// plus the server time.
    #[test]
    fn network_link_properties(
        bandwidth in 0.5..100.0f64,
        rtt in 0.001..0.5f64,
        jitter in 0.0..1.0f64,
        payload in 0.0..5.0f64,
        server in 0.0..0.5f64,
        frame in 0usize..5000,
        period in 0usize..400,
        outage in 0usize..100,
    ) {
        let link = NetworkLink {
            bandwidth_mbps: bandwidth,
            rtt_s: rtt,
            jitter_fraction: jitter,
            tx_energy_j_per_mb: 0.3,
            idle_wait_power_w: 1.2,
            outage_period_frames: period,
            outage_len_frames: outage,
            frame_rate_hz: 30.0,
        };
        match link.round_trip(frame, payload, server) {
            Some(report) => {
                prop_assert!(!link.is_down(frame));
                prop_assert!(report.latency_s >= report.transfer_time_s + server - 1e-9);
                prop_assert!(report.energy_j >= 0.0);
                prop_assert!(report.rtt_s >= 0.0);
                // Determinism: the same frame always costs the same.
                prop_assert_eq!(Some(report), link.round_trip(frame, payload, server));
            }
            None => prop_assert!(link.is_down(frame)),
        }
    }

    /// Quantization never increases any cost dimension and keeps the accuracy
    /// response within bounds, for every model in the zoo.
    #[test]
    fn quantization_properties(precision_index in 0usize..3) {
        let precision = Precision::ALL[precision_index];
        let fp32 = ModelZoo::standard();
        let quantized = fp32.with_precision(precision);
        for spec in &fp32 {
            let q = quantized.spec(spec.id);
            prop_assert!(q.load.memory_mb <= spec.load.memory_mb + 1e-9);
            prop_assert!(q.reference_iou <= spec.reference_iou + 1e-9);
            prop_assert!(q.reference_iou >= 0.0);
            prop_assert!(q.peak_iou <= 0.96 + 1e-9);
            for target in spec.supported_targets() {
                let base = spec.perf_on(target).unwrap();
                let point = q.perf_on(target).unwrap();
                prop_assert!(point.latency_s <= base.latency_s + 1e-9);
                prop_assert!(point.energy_j() <= base.energy_j() + 1e-9);
            }
        }
    }

    /// Every power mode's energy scale is exactly the product of its latency
    /// and power scales, and the default mode is the identity.
    #[test]
    fn power_mode_scaling_properties(mode_index in 0usize..3, acc_index in 0usize..5) {
        let mode = PowerMode::ALL[mode_index];
        let accelerator = AcceleratorId::ALL[acc_index];
        let energy = mode.energy_scale(accelerator);
        let product = mode.latency_scale(accelerator) * mode.power_scale(accelerator);
        prop_assert!((energy - product).abs() < 1e-12);
        prop_assert!(mode.latency_scale(accelerator) > 0.0);
        prop_assert!(mode.power_scale(accelerator) > 0.0);
        prop_assert_eq!(PowerMode::Mode15W.energy_scale(accelerator), 1.0);
    }

    /// The CSV exporter always emits exactly one line per record plus the
    /// header, regardless of the values.
    #[test]
    fn csv_export_shape(ious in proptest::collection::vec(0.0..1.0f64, 0..40)) {
        let records: Vec<shift_metrics::FrameRecord> = ious
            .iter()
            .enumerate()
            .map(|(i, &iou)| {
                shift_metrics::FrameRecord::new(
                    i,
                    ModelId::YoloV7Tiny,
                    AcceleratorId::Dla1,
                    iou,
                    0.02,
                    0.1,
                    false,
                )
            })
            .collect();
        let csv = records_to_csv(&records);
        prop_assert_eq!(csv.lines().count(), records.len() + 1);
        let curve = success_curve(&records, &[0.25, 0.5, 0.75]);
        prop_assert!(curve.windows(2).all(|w| w[1].success_rate <= w[0].success_rate + 1e-12));
    }
}

#[test]
fn shift_remains_deterministic_with_extensions_enabled() {
    let ctx = ExperimentContext::quick(79);
    let scenario = ctx.scaled(Scenario::scenario_1());
    let run = || {
        let engine = ctx.engine().with_power_mode(PowerMode::Mode20W);
        let mut runtime =
            shift_core::ShiftRuntime::new(engine, ctx.characterization(), paper_shift_config())
                .unwrap();
        runtime
            .run(scenario.stream())
            .unwrap()
            .iter()
            .map(shift_experiments::outcome_to_record)
            .collect::<Vec<_>>()
    };
    assert_eq!(run(), run());
}
