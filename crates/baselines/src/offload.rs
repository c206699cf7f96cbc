//! Edge-server offloading baseline (Glimpse-style).
//!
//! Glimpse and its successors ship frames to a remote server that runs a
//! large detector and returns the boxes; the client only pays the radio cost
//! plus a lightweight local tracker that papers over network latency and
//! outages. The paper dismisses this class of systems because "offloading is
//! not a viable option due to the latency overhead associated with remote
//! processing" — this module lets the reproduction quantify that claim on the
//! same substrate as SHIFT: the client-observed latency includes the uplink
//! transfer and the round trip, the client energy is dominated by the radio,
//! and during outages the system degrades to tracking (or to a small local
//! model when one is configured).

use crate::tracker::{NccTracker, TRACKER_LATENCY_S, TRACKER_POWER_W};
use serde::{Deserialize, Serialize};
use shift_metrics::FrameRecord;
use shift_models::ModelId;
use shift_soc::{AcceleratorId, ExecutionEngine, NetworkLink, SocError};
use shift_video::Frame;

/// Configuration of the offloading baseline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OffloadConfig {
    /// The detector running on the edge server.
    pub server_model: ModelId,
    /// Server-side inference latency, seconds. Edge servers run discrete
    /// GPUs, so this is far below the Xavier's on-board latency.
    pub server_latency_s: f64,
    /// Compressed uplink payload per frame, megabytes.
    pub payload_mb: f64,
    /// The wireless link between the client and the server.
    pub link: NetworkLink,
    /// Optional local fallback model executed on the GPU while the link is
    /// down. When `None` the client falls back to its tracker alone.
    pub local_fallback: Option<ModelId>,
}

impl OffloadConfig {
    /// Glimpse over a good Wi-Fi link with no local fallback model.
    pub fn wifi() -> Self {
        Self {
            server_model: ModelId::YoloV7,
            server_latency_s: 0.018,
            payload_mb: 0.09,
            link: NetworkLink::wifi(),
            local_fallback: None,
        }
    }

    /// Glimpse over a cellular link with YoloV7-Tiny as the outage fallback.
    pub fn cellular() -> Self {
        Self {
            server_model: ModelId::YoloV7,
            server_latency_s: 0.018,
            payload_mb: 0.09,
            link: NetworkLink::cellular(),
            local_fallback: Some(ModelId::YoloV7Tiny),
        }
    }

    /// Glimpse over a degraded long-range link.
    pub fn degraded() -> Self {
        Self {
            link: NetworkLink::degraded(),
            local_fallback: Some(ModelId::YoloV7Tiny),
            ..Self::wifi()
        }
    }
}

impl Default for OffloadConfig {
    fn default() -> Self {
        Self::wifi()
    }
}

/// Per-run statistics of the offloading baseline.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct OffloadStats {
    /// Frames answered by the edge server.
    pub offloaded_frames: u64,
    /// Frames handled by the local tracker during outages.
    pub tracked_frames: u64,
    /// Frames handled by the local fallback model during outages.
    pub fallback_frames: u64,
    /// Frames during outages with neither tracker state nor fallback model.
    pub blind_frames: u64,
}

/// The Glimpse-style offloading runtime.
#[derive(Debug, Clone)]
pub struct OffloadRuntime {
    engine: ExecutionEngine,
    config: OffloadConfig,
    tracker: NccTracker,
    stats: OffloadStats,
    fallback_loaded: bool,
}

impl OffloadRuntime {
    /// Creates the runtime. The server model must exist in the zoo; the local
    /// fallback (when configured) is loaded lazily on the first outage.
    ///
    /// # Errors
    ///
    /// Returns an error when the server model is unknown to the engine's zoo.
    pub fn new(engine: ExecutionEngine, config: OffloadConfig) -> Result<Self, SocError> {
        engine.validate_pair(config.server_model, AcceleratorId::Gpu)?;
        Ok(Self {
            engine,
            config,
            tracker: NccTracker::new(),
            stats: OffloadStats::default(),
            fallback_loaded: false,
        })
    }

    /// The configuration in use.
    pub fn config(&self) -> &OffloadConfig {
        &self.config
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> OffloadStats {
        self.stats
    }

    /// Processes one frame: offload when the link is up, otherwise degrade to
    /// the local fallback model or the tracker.
    ///
    /// # Errors
    ///
    /// Propagates execution errors from the SoC simulator.
    pub fn process_frame(&mut self, frame: &Frame) -> Result<FrameRecord, SocError> {
        let round_trip = self.config.link.round_trip(
            frame.index,
            self.config.payload_mb,
            self.config.server_latency_s,
        );
        if let Some(transfer) = round_trip {
            // Link is up: the server runs the big detector; the client pays
            // only the radio cost. Detection quality is whatever the server
            // model produces on this frame.
            self.stats.offloaded_frames += 1;
            let report = self.engine.probe_inference(
                self.config.server_model,
                AcceleratorId::Gpu,
                &frame.label(),
            )?;
            let iou = report.result.iou_against(frame.truth.as_ref());
            if let Some(detection) = report.result.detection {
                self.tracker.initialize(frame, &detection.bbox);
            } else {
                self.tracker.reset();
            }
            return Ok(FrameRecord::new(
                frame.index,
                self.config.server_model,
                AcceleratorId::Cpu,
                iou,
                transfer.latency_s,
                transfer.energy_j,
                false,
            ));
        }

        // Outage: prefer the local fallback model, then the tracker.
        if let Some(fallback) = self.config.local_fallback {
            self.stats.fallback_frames += 1;
            if !self.fallback_loaded {
                self.engine.load_model(fallback, AcceleratorId::Gpu)?;
                self.fallback_loaded = true;
            }
            let report = self
                .engine
                .run_inference(fallback, AcceleratorId::Gpu, frame)?;
            let iou = report.result.iou_against(frame.truth.as_ref());
            return Ok(FrameRecord::new(
                frame.index,
                fallback,
                AcceleratorId::Gpu,
                iou,
                report.latency_s,
                report.energy_j,
                false,
            ));
        }

        if let Some(result) = self.tracker.track(frame) {
            self.stats.tracked_frames += 1;
            let iou = frame
                .truth
                .map(|truth| result.bbox.iou(&truth))
                .unwrap_or(0.0);
            return Ok(FrameRecord::new(
                frame.index,
                self.config.server_model,
                AcceleratorId::Cpu,
                iou,
                TRACKER_LATENCY_S,
                TRACKER_LATENCY_S * TRACKER_POWER_W,
                false,
            ));
        }

        // No connectivity, no fallback, no template: the frame is lost.
        self.stats.blind_frames += 1;
        Ok(FrameRecord::new(
            frame.index,
            self.config.server_model,
            AcceleratorId::Cpu,
            0.0,
            TRACKER_LATENCY_S,
            TRACKER_LATENCY_S * TRACKER_POWER_W,
            false,
        ))
    }

    /// Runs the baseline over a full frame stream.
    ///
    /// # Errors
    ///
    /// Propagates the first execution error.
    pub fn run<I>(&mut self, frames: I) -> Result<Vec<FrameRecord>, SocError>
    where
        I: IntoIterator<Item = Frame>,
    {
        let mut records = Vec::new();
        for frame in frames {
            records.push(self.process_frame(&frame)?);
        }
        Ok(records)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::single::SingleModelRuntime;
    use shift_models::{ModelZoo, ResponseModel};
    use shift_soc::Platform;
    use shift_video::Scenario;

    fn engine() -> ExecutionEngine {
        ExecutionEngine::new(
            Platform::xavier_nx_with_oak(),
            ModelZoo::standard(),
            ResponseModel::new(11),
        )
    }

    #[test]
    fn wifi_offload_answers_every_frame_remotely() {
        let mut rt = OffloadRuntime::new(engine(), OffloadConfig::wifi()).unwrap();
        let records = rt
            .run(Scenario::scenario_3().with_num_frames(60).stream())
            .unwrap();
        assert_eq!(records.len(), 60);
        assert_eq!(rt.stats().offloaded_frames, 60);
        assert_eq!(rt.stats().fallback_frames, 0);
        assert!(records.iter().all(|r| r.accelerator == AcceleratorId::Cpu));
    }

    #[test]
    fn offload_saves_client_energy_but_pays_latency_vs_local_gpu() {
        let scenario = Scenario::scenario_3().with_num_frames(100);
        let mut offload = OffloadRuntime::new(engine(), OffloadConfig::wifi()).unwrap();
        let offload_records = offload.run(scenario.clone().stream()).unwrap();
        let mut local =
            SingleModelRuntime::new(engine(), ModelId::YoloV7, AcceleratorId::Gpu).unwrap();
        let local_records = local.run(scenario.stream()).unwrap();

        let offload_energy: f64 = offload_records.iter().map(|r| r.energy_j).sum();
        let local_energy: f64 = local_records.iter().map(|r| r.energy_j).sum();
        assert!(
            offload_energy < local_energy,
            "client-side radio energy ({offload_energy:.2} J) should undercut local GPU \
             inference ({local_energy:.2} J)"
        );

        // The paper's argument: remote processing adds latency overhead. Over
        // the cellular link a drone would actually have in the field, the
        // offloaded frames are slower than on-board GPU inference.
        let cellular = OffloadConfig {
            link: NetworkLink::cellular(),
            local_fallback: None,
            ..OffloadConfig::wifi()
        };
        let mut remote = OffloadRuntime::new(engine(), cellular).unwrap();
        let remote_records = remote
            .run(Scenario::scenario_3().with_num_frames(100).stream())
            .unwrap();
        let offloaded: Vec<_> = remote_records
            .iter()
            .filter(|r| r.latency_s > 0.05)
            .collect();
        assert!(!offloaded.is_empty());
        let remote_mean =
            offloaded.iter().map(|r| r.latency_s).sum::<f64>() / offloaded.len() as f64;
        let local_mean = local_records
            .iter()
            .skip(1)
            .map(|r| r.latency_s)
            .sum::<f64>()
            / (local_records.len() - 1) as f64;
        assert!(
            remote_mean > local_mean,
            "cellular offloading ({remote_mean:.3} s) should pay a per-frame latency penalty \
             vs the on-board GPU ({local_mean:.3} s)"
        );
    }

    #[test]
    fn cellular_outages_fall_back_to_the_local_model() {
        let mut rt = OffloadRuntime::new(engine(), OffloadConfig::cellular()).unwrap();
        let records = rt
            .run(Scenario::scenario_1().with_num_frames(700).stream())
            .unwrap();
        assert_eq!(records.len(), 700);
        let stats = rt.stats();
        assert!(stats.offloaded_frames > 0);
        assert!(
            stats.fallback_frames > 0,
            "the cellular link has outages in the first 700 frames"
        );
        assert!(records
            .iter()
            .any(|r| r.model == ModelId::YoloV7Tiny && r.accelerator == AcceleratorId::Gpu));
    }

    #[test]
    fn outage_without_fallback_uses_the_tracker_or_goes_blind() {
        let config = OffloadConfig {
            local_fallback: None,
            link: NetworkLink::degraded(),
            ..OffloadConfig::wifi()
        };
        let mut rt = OffloadRuntime::new(engine(), config).unwrap();
        let records = rt
            .run(Scenario::scenario_2().with_num_frames(400).stream())
            .unwrap();
        assert_eq!(records.len(), 400);
        let stats = rt.stats();
        assert!(stats.tracked_frames + stats.blind_frames > 0);
        assert_eq!(stats.fallback_frames, 0);
    }

    #[test]
    fn accuracy_degrades_when_the_link_degrades() {
        let scenario = Scenario::scenario_1().with_num_frames(600);
        let mut good = OffloadRuntime::new(engine(), OffloadConfig::wifi()).unwrap();
        let good_records = good.run(scenario.clone().stream()).unwrap();
        let config = OffloadConfig {
            local_fallback: None,
            ..OffloadConfig::degraded()
        };
        let mut bad = OffloadRuntime::new(engine(), config).unwrap();
        let bad_records = bad.run(scenario.stream()).unwrap();
        let mean = |rs: &[FrameRecord]| rs.iter().map(|r| r.iou).sum::<f64>() / rs.len() as f64;
        assert!(
            mean(&good_records) > mean(&bad_records),
            "losing connectivity must cost accuracy"
        );
    }

    #[test]
    fn unknown_server_model_fails_at_construction() {
        let engine = ExecutionEngine::new(
            Platform::xavier_nx_with_oak(),
            ModelZoo::subset(&[ModelId::YoloV7Tiny]),
            ResponseModel::new(1),
        );
        let err = OffloadRuntime::new(engine, OffloadConfig::wifi()).unwrap_err();
        assert!(matches!(err, SocError::UnknownModel(_)));
    }
}
