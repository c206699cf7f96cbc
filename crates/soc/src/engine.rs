//! The execution engine: the single interface through which runtimes load
//! models and run inference on the simulated platform.

use crate::accelerator::AcceleratorId;
use crate::dvfs::PowerMode;
use crate::memory::MemoryPool;
use crate::platform::Platform;
use crate::telemetry::Telemetry;
use crate::SocError;
use serde::{Deserialize, Serialize};
use shift_models::{InferenceResult, ModelId, ModelSpec, ModelZoo, ResponseModel};
use shift_video::{Frame, FrameLabel};
use std::collections::{BTreeMap, BTreeSet};

/// Outcome of loading a model onto an accelerator.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LoadReport {
    /// Model that was loaded.
    pub model: ModelId,
    /// Accelerator it was loaded onto.
    pub accelerator: AcceleratorId,
    /// Virtual time spent loading, seconds. Zero when the model was already
    /// resident.
    pub load_time_s: f64,
    /// Energy spent loading, joules.
    pub load_energy_j: f64,
    /// Whether the model was already resident (no cost charged).
    pub already_loaded: bool,
}

/// Outcome of a single inference.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct InferenceReport {
    /// Model that executed.
    pub model: ModelId,
    /// Accelerator it executed on.
    pub accelerator: AcceleratorId,
    /// The detection result.
    pub result: InferenceResult,
    /// Inference latency, seconds.
    pub latency_s: f64,
    /// Average power during the inference, watts.
    pub power_w: f64,
    /// Energy consumed by the inference, joules.
    pub energy_j: f64,
}

/// Simulated execution engine binding a [`Platform`], a [`ModelZoo`] and a
/// [`ResponseModel`] together, with per-accelerator memory pools and
/// telemetry.
#[derive(Debug, Clone)]
pub struct ExecutionEngine {
    platform: Platform,
    zoo: ModelZoo,
    response: ResponseModel,
    pools: BTreeMap<AcceleratorId, MemoryPool>,
    telemetry: Telemetry,
    /// Multiplicative deterministic latency jitter amplitude (fraction).
    latency_jitter: f64,
    /// Active DVFS power mode (default: the paper's 15 W mode, identity
    /// scaling).
    power_mode: PowerMode,
    /// Accelerators administratively taken offline.
    offline: BTreeSet<AcceleratorId>,
    /// When `true`, telemetry recording is suspended (a fault-injected
    /// telemetry glitch: work still executes, its samples are lost).
    telemetry_suspended: bool,
}

impl ExecutionEngine {
    /// Creates an engine for `platform` with the given zoo and response
    /// model. Memory pools start empty.
    pub fn new(platform: Platform, zoo: ModelZoo, response: ResponseModel) -> Self {
        let pools = platform
            .accelerators()
            .iter()
            .map(|a| (a.id, MemoryPool::new(a.memory_capacity_mb)))
            .collect();
        Self {
            platform,
            zoo,
            response,
            pools,
            telemetry: Telemetry::new(),
            latency_jitter: 0.05,
            power_mode: PowerMode::default(),
            offline: BTreeSet::new(),
            telemetry_suspended: false,
        }
    }

    /// Returns the engine configured to run in `mode` (consuming builder
    /// form of [`set_power_mode`](Self::set_power_mode)).
    pub fn with_power_mode(mut self, mode: PowerMode) -> Self {
        self.power_mode = mode;
        self
    }

    /// The active DVFS power mode.
    pub fn power_mode(&self) -> PowerMode {
        self.power_mode
    }

    /// Switches the platform to `mode`. Subsequent inferences use the mode's
    /// latency/power scaling.
    pub fn set_power_mode(&mut self, mode: PowerMode) {
        self.power_mode = mode;
    }

    /// Whether `accelerator` is currently accepting work: it must exist on
    /// the platform and not be administratively offline.
    pub fn is_online(&self, accelerator: AcceleratorId) -> bool {
        self.platform.has(accelerator) && !self.offline.contains(&accelerator)
    }

    /// Whether `accelerator` is administratively fenced off (the flag
    /// [`set_accelerator_online`](Self::set_accelerator_online) toggles).
    /// Unlike `!is_online`, this is `false` for an accelerator the platform
    /// lacks. Fault-injection recovery restores exactly this flag, so a
    /// fence set before a dropout outlives the dropout's recovery.
    pub fn is_administratively_offline(&self, accelerator: AcceleratorId) -> bool {
        self.offline.contains(&accelerator)
    }

    /// Administratively takes `accelerator` offline (`online = false`) or
    /// returns it to service. Used by failure-injection experiments.
    pub fn set_accelerator_online(&mut self, accelerator: AcceleratorId, online: bool) {
        if online {
            self.offline.remove(&accelerator);
        } else {
            self.offline.insert(accelerator);
        }
    }

    /// The platform this engine simulates.
    pub fn platform(&self) -> &Platform {
        &self.platform
    }

    /// The model zoo attached to this engine.
    pub fn zoo(&self) -> &ModelZoo {
        &self.zoo
    }

    /// The detection response model.
    pub fn response(&self) -> &ResponseModel {
        &self.response
    }

    /// Telemetry accumulated so far.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Resets telemetry to zero (memory pools are left untouched).
    pub fn reset_telemetry(&mut self) {
        self.telemetry = Telemetry::new();
    }

    /// Suspends (or resumes) telemetry recording. While suspended, work
    /// still executes and is charged to the caller normally, but the
    /// engine-level counters record nothing — the model of a telemetry
    /// glitch injected by the fault subsystem.
    pub fn set_telemetry_suspended(&mut self, suspended: bool) {
        self.telemetry_suspended = suspended;
    }

    /// Whether telemetry recording is currently suspended.
    pub fn telemetry_suspended(&self) -> bool {
        self.telemetry_suspended
    }

    /// Withholds `reserved_mb` of `accelerator`'s memory pool from new
    /// allocations (a fault-injected capacity squeeze). Resident models are
    /// never evicted by the reservation itself; a loader that cannot fit a
    /// model into the squeezed pool sees [`SocError::OutOfMemory`] and is
    /// expected to degrade. Pass `0.0` to lift the squeeze.
    ///
    /// # Errors
    ///
    /// Returns [`SocError::UnknownAccelerator`] when the accelerator is not
    /// part of the platform.
    pub fn set_memory_reservation(
        &mut self,
        accelerator: AcceleratorId,
        reserved_mb: f64,
    ) -> Result<(), SocError> {
        let pool = self
            .pools
            .get_mut(&accelerator)
            .ok_or(SocError::UnknownAccelerator(accelerator))?;
        pool.set_reserved_mb(reserved_mb);
        Ok(())
    }

    /// The memory currently reserved away from `accelerator`'s pool, MB
    /// (0 for unknown accelerators).
    pub fn memory_reservation(&self, accelerator: AcceleratorId) -> f64 {
        self.pools
            .get(&accelerator)
            .map(|p| p.reserved_mb())
            .unwrap_or(0.0)
    }

    /// The memory pool of `accelerator`.
    ///
    /// # Errors
    ///
    /// Returns [`SocError::UnknownAccelerator`] when the accelerator is not
    /// part of the platform.
    pub fn pool(&self, accelerator: AcceleratorId) -> Result<&MemoryPool, SocError> {
        self.pools
            .get(&accelerator)
            .ok_or(SocError::UnknownAccelerator(accelerator))
    }

    /// Whether `model` is resident on `accelerator`.
    pub fn is_loaded(&self, model: ModelId, accelerator: AcceleratorId) -> bool {
        self.pools
            .get(&accelerator)
            .map(|p| p.contains(model))
            .unwrap_or(false)
    }

    /// Models currently resident on `accelerator`.
    pub fn loaded_models(&self, accelerator: AcceleratorId) -> Vec<ModelId> {
        self.pools
            .get(&accelerator)
            .map(|p| p.resident_models())
            .unwrap_or_default()
    }

    /// Checks that the (model, accelerator) pair is known and compatible and
    /// returns the model spec.
    pub fn validate_pair(
        &self,
        model: ModelId,
        accelerator: AcceleratorId,
    ) -> Result<&ModelSpec, SocError> {
        let spec = self.zoo.get(model).ok_or(SocError::UnknownModel(model))?;
        if !self.platform.has(accelerator) {
            return Err(SocError::UnknownAccelerator(accelerator));
        }
        if !spec.supports(accelerator.target()) {
            return Err(SocError::IncompatiblePair { model, accelerator });
        }
        Ok(spec)
    }

    /// Loads `model` onto `accelerator`, charging load time and energy.
    ///
    /// Loading an already-resident model is free and reported as such.
    ///
    /// # Errors
    ///
    /// Returns an error when the pair is incompatible, the accelerator is
    /// unknown, or the model cannot fit even into an empty pool. When the
    /// pool is merely full, the caller (the dynamic model loader) is expected
    /// to evict something first; this method then reports
    /// [`SocError::OutOfMemory`].
    pub fn load_model(
        &mut self,
        model: ModelId,
        accelerator: AcceleratorId,
    ) -> Result<LoadReport, SocError> {
        let spec = self.validate_pair(model, accelerator)?.clone();
        if !self.is_online(accelerator) {
            return Err(SocError::AcceleratorOffline(accelerator));
        }
        let pool = self
            .pools
            .get_mut(&accelerator)
            .ok_or(SocError::UnknownAccelerator(accelerator))?;
        if pool.contains(model) {
            return Ok(LoadReport {
                model,
                accelerator,
                load_time_s: 0.0,
                load_energy_j: 0.0,
                already_loaded: true,
            });
        }
        let size = spec.load.memory_mb;
        if !pool.try_allocate(model, size) {
            return Err(SocError::OutOfMemory {
                model,
                accelerator,
                required_mb: size,
                capacity_mb: pool.capacity_mb(),
            });
        }
        let target = accelerator.target();
        let load_time = spec.load.load_time_s(target);
        let load_energy = spec.load.load_energy_j(target);
        if !self.telemetry_suspended {
            self.telemetry
                .record_load(accelerator, load_time, load_energy);
        }
        Ok(LoadReport {
            model,
            accelerator,
            load_time_s: load_time,
            load_energy_j: load_energy,
            already_loaded: false,
        })
    }

    /// Unloads `model` from `accelerator`. Unloading a model that is not
    /// resident is a no-op returning `false`.
    pub fn unload_model(&mut self, model: ModelId, accelerator: AcceleratorId) -> bool {
        if let Some(pool) = self.pools.get_mut(&accelerator) {
            if pool.release(model).is_some() {
                if !self.telemetry_suspended {
                    self.telemetry.record_eviction();
                }
                return true;
            }
        }
        false
    }

    /// Runs inference of `model` on `accelerator` for `frame`, charging
    /// latency and energy and recording telemetry.
    ///
    /// # Errors
    ///
    /// Returns [`SocError::ModelNotLoaded`] when the model is not resident on
    /// the accelerator (callers must load it first), or a compatibility error
    /// for invalid pairs.
    pub fn run_inference(
        &mut self,
        model: ModelId,
        accelerator: AcceleratorId,
        frame: &Frame,
    ) -> Result<InferenceReport, SocError> {
        if !self.is_online(accelerator) && self.platform.has(accelerator) {
            return Err(SocError::AcceleratorOffline(accelerator));
        }
        if !self.is_loaded(model, accelerator) {
            return Err(SocError::ModelNotLoaded { model, accelerator });
        }
        let report = self.probe_inference(model, accelerator, &frame.label())?;
        if !self.telemetry_suspended {
            self.telemetry
                .record_inference(accelerator, report.latency_s, report.energy_j);
        }
        Ok(report)
    }

    /// Computes the inference a (model, accelerator) pair *would* produce on
    /// the frame `label` describes, without requiring residency and without
    /// charging telemetry.
    ///
    /// This is the hook used by the Oracle baselines (which the paper defines
    /// as having every model pre-loaded at zero cost) and by the offline
    /// characterization pass. Latency jitter and the detection depend on the
    /// label alone, so the characterization probes labels that were never
    /// rendered, and a caller holding a rendered frame passes
    /// [`Frame::label`].
    ///
    /// # Errors
    ///
    /// Returns a compatibility error for invalid pairs.
    pub fn probe_inference(
        &self,
        model: ModelId,
        accelerator: AcceleratorId,
        label: &FrameLabel,
    ) -> Result<InferenceReport, SocError> {
        let spec = self.validate_pair(model, accelerator)?;
        let perf = spec
            .perf_on(accelerator.target())
            .map_err(|_| SocError::IncompatiblePair { model, accelerator })?;
        let jitter = deterministic_jitter(label.index, model, accelerator) * self.latency_jitter;
        let latency = perf.latency_s * (1.0 + jitter) * self.power_mode.latency_scale(accelerator);
        let power = perf.power_w * self.power_mode.power_scale(accelerator);
        let energy = latency * power;
        let result = self.response.infer(spec, label);
        Ok(InferenceReport {
            model,
            accelerator,
            result,
            latency_s: latency,
            power_w: power,
            energy_j: energy,
        })
    }

    /// Convenience wrapper: ensures the model is loaded (loading it if
    /// needed), then runs inference. Returns both reports.
    ///
    /// # Errors
    ///
    /// Propagates loading and inference errors.
    pub fn load_and_run(
        &mut self,
        model: ModelId,
        accelerator: AcceleratorId,
        frame: &Frame,
    ) -> Result<(LoadReport, InferenceReport), SocError> {
        let load = self.load_model(model, accelerator)?;
        let inference = self.run_inference(model, accelerator, frame)?;
        Ok((load, inference))
    }
}

/// Deterministic latency jitter in `[-1, 1]` derived from the frame index,
/// model and accelerator. Keeps repeated experiments bit-identical while
/// avoiding perfectly constant latencies.
fn deterministic_jitter(frame_index: usize, model: ModelId, accelerator: AcceleratorId) -> f64 {
    let mut h = (frame_index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    h ^= (model.index() as u64 + 1).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h ^= (accelerator as u64 + 1).wrapping_mul(0x94D0_49BB_1331_11EB);
    h ^= h >> 29;
    h = h.wrapping_mul(0x2545_F491_4F6C_DD1D);
    h ^= h >> 32;
    (h % 2000) as f64 / 1000.0 - 1.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use shift_video::Scenario;

    fn engine() -> ExecutionEngine {
        ExecutionEngine::new(
            Platform::xavier_nx_with_oak(),
            ModelZoo::standard(),
            ResponseModel::new(3),
        )
    }

    fn frame() -> Frame {
        Scenario::scenario_3().stream().next().expect("frame")
    }

    fn label() -> FrameLabel {
        Scenario::scenario_3().label_at(0).expect("frame 0")
    }

    #[test]
    fn load_then_run_charges_costs() {
        let mut e = engine();
        let load = e.load_model(ModelId::YoloV7, AcceleratorId::Gpu).unwrap();
        assert!(!load.already_loaded);
        assert!(load.load_time_s > 0.0);
        let report = e
            .run_inference(ModelId::YoloV7, AcceleratorId::Gpu, &frame())
            .unwrap();
        assert!(report.latency_s > 0.0);
        assert!((report.energy_j - report.latency_s * report.power_w).abs() < 1e-9);
        assert_eq!(e.telemetry().inference_count, 1);
        assert_eq!(e.telemetry().load_count, 1);
    }

    #[test]
    fn inference_without_loading_is_an_error() {
        let mut e = engine();
        let err = e
            .run_inference(ModelId::YoloV7, AcceleratorId::Gpu, &frame())
            .unwrap_err();
        assert!(matches!(err, SocError::ModelNotLoaded { .. }));
    }

    #[test]
    fn double_load_is_free() {
        let mut e = engine();
        e.load_model(ModelId::YoloV7Tiny, AcceleratorId::Dla0)
            .unwrap();
        let second = e
            .load_model(ModelId::YoloV7Tiny, AcceleratorId::Dla0)
            .unwrap();
        assert!(second.already_loaded);
        assert_eq!(second.load_time_s, 0.0);
        assert_eq!(e.telemetry().load_count, 1);
    }

    #[test]
    fn incompatible_pair_is_rejected() {
        let mut e = engine();
        let err = e
            .load_model(ModelId::SsdResnet50, AcceleratorId::OakD)
            .unwrap_err();
        assert!(matches!(err, SocError::IncompatiblePair { .. }));
        let err = e
            .probe_inference(ModelId::SsdMobilenetV1, AcceleratorId::Cpu, &label())
            .unwrap_err();
        assert!(matches!(err, SocError::IncompatiblePair { .. }));
    }

    #[test]
    fn unknown_accelerator_is_rejected() {
        let zoo = ModelZoo::standard();
        let mut e = ExecutionEngine::new(Platform::gpu_only(), zoo, ResponseModel::new(1));
        let err = e
            .load_model(ModelId::YoloV7, AcceleratorId::Dla0)
            .unwrap_err();
        assert!(matches!(err, SocError::UnknownAccelerator(_)));
    }

    #[test]
    fn memory_pressure_triggers_out_of_memory() {
        let mut e = engine();
        // The OAK-D pool holds 512 MB; YoloV7 (280) + YoloV7-Tiny (60) fit,
        // but loading YoloV7 twice more is impossible after filling it with
        // other allocations. Force the situation by loading both supported
        // models and then checking there is no room to re-load a released one
        // artificially shrunk... simpler: fill the GPU pool (1536 MB) with
        // large models until an OutOfMemory is reported.
        e.load_model(ModelId::YoloV7E6E, AcceleratorId::Gpu)
            .unwrap(); // 620
        e.load_model(ModelId::YoloV7X, AcceleratorId::Gpu).unwrap(); // 480
        e.load_model(ModelId::SsdResnet50, AcceleratorId::Gpu)
            .unwrap(); // 350 -> 1450
        let err = e
            .load_model(ModelId::YoloV7, AcceleratorId::Gpu)
            .unwrap_err();
        assert!(matches!(err, SocError::OutOfMemory { .. }));
        // Evicting one model frees enough space.
        assert!(e.unload_model(ModelId::YoloV7E6E, AcceleratorId::Gpu));
        assert!(e.load_model(ModelId::YoloV7, AcceleratorId::Gpu).is_ok());
    }

    #[test]
    fn unload_missing_model_is_noop() {
        let mut e = engine();
        assert!(!e.unload_model(ModelId::YoloV7, AcceleratorId::Gpu));
        assert_eq!(e.telemetry().eviction_count, 0);
    }

    #[test]
    fn probe_does_not_touch_telemetry_or_memory() {
        let e = engine();
        let report = e
            .probe_inference(ModelId::YoloV7, AcceleratorId::Dla1, &label())
            .unwrap();
        assert!(report.latency_s > 0.0);
        assert_eq!(e.telemetry().inference_count, 0);
        assert!(e.loaded_models(AcceleratorId::Dla1).is_empty());
    }

    #[test]
    fn dla_is_slower_but_lower_power_than_gpu_for_yolov7() {
        let e = engine();
        let f = label();
        let gpu = e
            .probe_inference(ModelId::YoloV7, AcceleratorId::Gpu, &f)
            .unwrap();
        let dla = e
            .probe_inference(ModelId::YoloV7, AcceleratorId::Dla0, &f)
            .unwrap();
        assert!(dla.power_w < gpu.power_w);
        assert!(dla.energy_j < gpu.energy_j, "DLA should be more efficient");
    }

    #[test]
    fn latency_jitter_is_bounded_and_deterministic() {
        let e = engine();
        let f = label();
        let a = e
            .probe_inference(ModelId::YoloV7Tiny, AcceleratorId::Gpu, &f)
            .unwrap();
        let b = e
            .probe_inference(ModelId::YoloV7Tiny, AcceleratorId::Gpu, &f)
            .unwrap();
        assert_eq!(a, b);
        let base = 0.025;
        assert!((a.latency_s - base).abs() <= base * 0.06);
    }

    #[test]
    fn load_and_run_convenience() {
        let mut e = engine();
        let (load, inference) = e
            .load_and_run(ModelId::YoloV7Tiny, AcceleratorId::OakD, &frame())
            .unwrap();
        assert!(!load.already_loaded);
        assert_eq!(inference.accelerator, AcceleratorId::OakD);
        assert!(e.is_loaded(ModelId::YoloV7Tiny, AcceleratorId::OakD));
    }

    #[test]
    fn low_power_mode_scales_latency_up_and_power_down() {
        let f = label();
        let default_report = engine()
            .probe_inference(ModelId::YoloV7, AcceleratorId::Gpu, &f)
            .unwrap();
        let low = engine().with_power_mode(crate::PowerMode::Mode10W);
        let low_report = low
            .probe_inference(ModelId::YoloV7, AcceleratorId::Gpu, &f)
            .unwrap();
        assert!(low_report.latency_s > default_report.latency_s);
        assert!(low_report.power_w < default_report.power_w);
    }

    #[test]
    fn power_mode_can_be_switched_at_runtime() {
        let mut e = engine();
        assert_eq!(e.power_mode(), crate::PowerMode::Mode15W);
        e.set_power_mode(crate::PowerMode::Mode20W);
        assert_eq!(e.power_mode(), crate::PowerMode::Mode20W);
        let f = label();
        let fast = e
            .probe_inference(ModelId::YoloV7, AcceleratorId::Gpu, &f)
            .unwrap();
        e.set_power_mode(crate::PowerMode::Mode15W);
        let base = e
            .probe_inference(ModelId::YoloV7, AcceleratorId::Gpu, &f)
            .unwrap();
        assert!(fast.latency_s < base.latency_s);
        assert!(fast.power_w > base.power_w);
    }

    #[test]
    fn offline_accelerator_rejects_loads_and_inference() {
        let mut e = engine();
        e.load_model(ModelId::YoloV7Tiny, AcceleratorId::Dla0)
            .unwrap();
        e.set_accelerator_online(AcceleratorId::Dla0, false);
        assert!(!e.is_online(AcceleratorId::Dla0));
        let err = e
            .run_inference(ModelId::YoloV7Tiny, AcceleratorId::Dla0, &frame())
            .unwrap_err();
        assert!(matches!(err, SocError::AcceleratorOffline(_)));
        let err = e
            .load_model(ModelId::YoloV7, AcceleratorId::Dla0)
            .unwrap_err();
        assert!(matches!(err, SocError::AcceleratorOffline(_)));
        e.set_accelerator_online(AcceleratorId::Dla0, true);
        assert!(e.is_online(AcceleratorId::Dla0));
        assert!(e
            .run_inference(ModelId::YoloV7Tiny, AcceleratorId::Dla0, &frame())
            .is_ok());
    }

    #[test]
    fn missing_accelerator_is_not_online_but_reports_unknown() {
        let mut e = ExecutionEngine::new(
            Platform::gpu_only(),
            ModelZoo::standard(),
            ResponseModel::new(1),
        );
        assert!(!e.is_online(AcceleratorId::Dla0));
        let err = e
            .load_model(ModelId::YoloV7, AcceleratorId::Dla0)
            .unwrap_err();
        assert!(matches!(err, SocError::UnknownAccelerator(_)));
    }

    #[test]
    fn memory_reservation_squeezes_loads_until_lifted() {
        let mut e = engine();
        // Reserve most of the GPU pool (1536 MB): YoloV7 (280 MB) no longer
        // fits, but lifting the squeeze restores it.
        e.set_memory_reservation(AcceleratorId::Gpu, 1400.0)
            .unwrap();
        assert_eq!(e.memory_reservation(AcceleratorId::Gpu), 1400.0);
        let err = e
            .load_model(ModelId::YoloV7, AcceleratorId::Gpu)
            .unwrap_err();
        assert!(matches!(err, SocError::OutOfMemory { .. }));
        e.set_memory_reservation(AcceleratorId::Gpu, 0.0).unwrap();
        assert!(e.load_model(ModelId::YoloV7, AcceleratorId::Gpu).is_ok());
    }

    #[test]
    fn memory_reservation_on_unknown_accelerator_errors() {
        let mut e = ExecutionEngine::new(
            Platform::gpu_only(),
            ModelZoo::standard(),
            ResponseModel::new(1),
        );
        let err = e
            .set_memory_reservation(AcceleratorId::Dla0, 10.0)
            .unwrap_err();
        assert!(matches!(err, SocError::UnknownAccelerator(_)));
        assert_eq!(e.memory_reservation(AcceleratorId::Dla0), 0.0);
    }

    #[test]
    fn suspended_telemetry_loses_samples_but_work_still_runs() {
        let mut e = engine();
        e.set_telemetry_suspended(true);
        assert!(e.telemetry_suspended());
        let (load, report) = e
            .load_and_run(ModelId::YoloV7Tiny, AcceleratorId::Gpu, &frame())
            .unwrap();
        // The work happened and was charged to the caller...
        assert!(!load.already_loaded);
        assert!(report.latency_s > 0.0);
        // ...but the glitched telemetry recorded none of it.
        assert_eq!(e.telemetry().inference_count, 0);
        assert_eq!(e.telemetry().load_count, 0);
        assert!(e.unload_model(ModelId::YoloV7Tiny, AcceleratorId::Gpu));
        assert_eq!(e.telemetry().eviction_count, 0);
        e.set_telemetry_suspended(false);
        e.load_and_run(ModelId::YoloV7Tiny, AcceleratorId::Gpu, &frame())
            .unwrap();
        assert_eq!(e.telemetry().inference_count, 1);
    }

    #[test]
    fn reset_telemetry_zeroes_counters() {
        let mut e = engine();
        e.load_and_run(ModelId::YoloV7Tiny, AcceleratorId::Gpu, &frame())
            .unwrap();
        assert!(e.telemetry().inference_count > 0);
        e.reset_telemetry();
        assert_eq!(e.telemetry().inference_count, 0);
        assert!(e.is_loaded(ModelId::YoloV7Tiny, AcceleratorId::Gpu));
    }
}
