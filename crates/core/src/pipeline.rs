//! The end-to-end pipelines: the paper's secure design and its baseline.
//!
//! Both pipelines are assembled from the staged architecture in
//! [`crate::stage`]: a capture stage, a filter stage and a relay stage
//! chained behind the [`crate::stage::PipelineStage`] trait. Scenario
//! events are driven through the stages in batches of
//! [`PipelineConfig::batch_windows`] utterances; for the secure pipeline
//! every batch crosses the TEE boundary exactly once (one SMC, one
//! world-switch round trip, one batched relay record), which is the
//! transition-amortization lever the related work identifies as the key to
//! production throughput on TrustZone-class hardware.

use std::sync::Arc;

use parking_lot::Mutex;
use perisec_devices::camera::{CameraSensor, SceneKind};
use perisec_devices::codec::AudioEncoding;
use perisec_devices::mic::Microphone;
use perisec_kernel::i2s_driver::BaselineI2sDriver;
use perisec_kernel::pcm::PcmHwParams;
use perisec_kernel::trace::FunctionTracer;
use perisec_ml::classifier::{Architecture, SensitiveClassifier, TrainConfig};
use perisec_ml::int8::{QuantFrameCnn, QuantSensitiveClassifier};
use perisec_ml::quant::QuantMode;
use perisec_ml::stt::{KeywordStt, SttConfig};
use perisec_ml::vision::{FrameCnn, VisionConfig};
use perisec_optee::{
    Supplicant, TaUuid, TeeClient, TeeCore, TeeParam, TeeParams, TeeSessionHandle,
};
use perisec_relay::cloud::MockCloudService;
use perisec_relay::netsim::{FaultSpec, NetworkFabric};
use perisec_secure_driver::camera::SecureCameraDriver;
use perisec_secure_driver::camera_pta::CameraPta;
use perisec_secure_driver::driver::SecureI2sDriver;
use perisec_secure_driver::pta::I2sPta;
use perisec_telemetry::{DeviceTelemetry, PressureMonitor, SloSpec, TelemetryConfig, Tracer};
use perisec_tz::platform::Platform;
use perisec_tz::stats::TzStatsSnapshot;
use perisec_tz::time::{SimClock, SimDuration, SimInstant};
use perisec_workload::corpus::CorpusGenerator;
use perisec_workload::scenario::{CameraScenario, Scenario};
use perisec_workload::synth::SpeechSynthesizer;
use perisec_workload::vocab::Vocabulary;

use crate::batcher::AdaptiveBatcher;
use crate::cloud_channel::RelayRetryConfig;
use crate::filter_ta::{
    cmd as filter_cmd, default_cloud_host, default_psk, FilterTa, MAX_BATCH_WINDOWS,
};
use crate::ingest::{CloudLedger, IngestHook};
use crate::policy::PrivacyPolicy;
use crate::report::{CloudOutcome, PipelineReport, WorkloadSummary};
use crate::source::{SharedPlayback, SharedSceneQueue};
use crate::stage::{
    CloudRelayStage, KernelCaptureStage, PassthroughFilterStage, PipelineStage, SecureCaptureStage,
    SecureFilterStage, SecureFrameCaptureStage, SecureRelayStage,
};
use crate::vision_ta::VisionTa;
use crate::{CoreError, Result};

/// Deterministic degradation injection for health-plane experiments:
/// once the device's virtual clock passes `after`, every processed
/// window costs an extra `per_window` of virtual time inside the filter
/// stage — the crossing gets slower mid-run, exactly as a thermal
/// throttle or a noisy co-tenant would make it. Pure virtual-time
/// arithmetic, so an injected fault fires the *same* health alerts at
/// the *same* virtual instants at any executor worker count (the E19
/// gate).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DegradeSpec {
    /// Virtual time (from boot) at which the degradation sets in.
    pub after: SimDuration,
    /// Extra filter-stage cost per window from then on.
    pub per_window: SimDuration,
}

/// Configuration shared by both pipelines.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Classifier architecture hosted by the filter TA.
    pub architecture: Architecture,
    /// Privacy policy installed in the filter TA.
    pub policy: PrivacyPolicy,
    /// Capture period size in frames (10 ms at 16 kHz by default).
    pub period_frames: usize,
    /// Encoding applied by the driver before data leaves its buffers.
    pub encoding: AudioEncoding,
    /// Number of utterances used to train the classifier head.
    pub train_utterances: usize,
    /// Seed for the training corpus.
    pub corpus_seed: u64,
    /// Use the constrained IoT platform instead of the Jetson-class one.
    pub constrained_platform: bool,
    /// Override the secure carve-out size (KiB), if set.
    pub secure_ram_kib: Option<u64>,
    /// Utterances driven through the stages per batch. `1` reproduces the
    /// paper's per-utterance behaviour; larger batches amortize the TEE
    /// boundary: world switches per utterance drop by roughly this factor.
    /// The filter TA refuses batches of more than [`MAX_BATCH_WINDOWS`].
    pub batch_windows: usize,
    /// When set, an [`AdaptiveBatcher`] picks each TEE crossing's batch
    /// size from the remaining queue depth against this per-utterance
    /// latency SLO instead of the fixed `batch_windows` — the audio
    /// counterpart of the sharded vision pipeline's SLO knob.
    pub latency_slo: Option<SimDuration>,
    /// When set (and `latency_slo` is driving an adaptive batcher), a
    /// tracer-free [`PressureMonitor`] judges the per-window share of
    /// each filter crossing against this objective over fixed virtual
    /// windows (`budget ×`
    /// [`PressureMonitor::BUDGETS_PER_WINDOW`]) and feeds its verdict to
    /// the batcher: `Degraded` halves the batcher's headroom, `Critical`
    /// falls back to single-window probes. The observability→control
    /// loop of the health plane; inert without `latency_slo`.
    pub slo_pressure: Option<SloSpec>,
    /// Deterministic mid-run degradation injection (see [`DegradeSpec`]);
    /// `None` (the default) runs the undisturbed pipeline.
    pub degrade: Option<DegradeSpec>,
    /// Numeric representation of the in-TA classifier: [`QuantMode::Int8`]
    /// (the default) keeps the quantized weights resident and runs the
    /// fused integer kernels; [`QuantMode::F32`] is the accuracy baseline
    /// E16 compares against. Architectures without an int8 form
    /// (Transformer / Hybrid) fall back to f32 transparently.
    pub quant_mode: QuantMode,
    /// Telemetry plane switchboard (off by default). When enabled, the
    /// pipeline, the TEE core and the TAs record virtual-time spans into
    /// one shared tracer; spans read the *simulated* clock, so telemetry
    /// never changes a report.
    pub telemetry: TelemetryConfig,
    /// Deterministic network chaos between the device and the cloud (see
    /// [`FaultSpec`]); `None` (the default) runs a perfect network. The
    /// fault schedule is a pure function of `(seed, device, send
    /// sequence)`, so it replays identically at every worker count.
    pub faults: Option<FaultSpec>,
    /// Retry/backoff policy of the TA-side relay (and of the baseline's
    /// normal-world relay).
    pub retry: RelayRetryConfig,
    /// When set, the pipeline routes its cloud traffic through this
    /// session of a fleet-shared sharded ingest plane instead of a
    /// pipeline-local [`MockCloudService`]: the filter TA attests its
    /// measurement before data flows, and every record is epoch-fenced
    /// against shard restarts. `None` (the default) is the direct path.
    pub ingest: Option<IngestHook>,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            architecture: Architecture::Cnn,
            policy: PrivacyPolicy::block_sensitive(),
            period_frames: 160,
            encoding: AudioEncoding::PcmLe16,
            train_utterances: 160,
            corpus_seed: 0xC0FFEE,
            constrained_platform: false,
            secure_ram_kib: None,
            batch_windows: 1,
            latency_slo: None,
            slo_pressure: None,
            degrade: None,
            quant_mode: QuantMode::default(),
            telemetry: TelemetryConfig::default(),
            faults: None,
            retry: RelayRetryConfig::default(),
            ingest: None,
        }
    }
}

fn build_platform(constrained: bool, secure_ram_kib: Option<u64>) -> Platform {
    let mut builder = Platform::builder();
    if constrained {
        builder = builder
            .spec(perisec_tz::platform::PlatformSpec::constrained_mcu())
            .cost_model(perisec_tz::cost::CostModel::constrained_mcu())
            .power_model(perisec_tz::power::PowerModel::constrained_mcu());
    }
    if let Some(kib) = secure_ram_kib {
        builder = builder.secure_ram_kib(kib);
    }
    builder.build()
}

impl PipelineConfig {
    fn build_platform(&self) -> Platform {
        build_platform(self.constrained_platform, self.secure_ram_kib)
    }

    fn effective_batch(&self) -> usize {
        self.batch_windows.max(1)
    }
}

/// Configuration of the secure camera pipeline — the vision modality's
/// counterpart of [`PipelineConfig`].
#[derive(Debug, Clone)]
pub struct CameraPipelineConfig {
    /// Privacy policy installed in the vision TA.
    pub policy: PrivacyPolicy,
    /// Frames used to train the frame classifier.
    pub train_frames: usize,
    /// Seed for the synthetic training frames.
    pub corpus_seed: u64,
    /// Use the constrained IoT platform instead of the Jetson-class one.
    pub constrained_platform: bool,
    /// Override the secure carve-out size (KiB), if set.
    pub secure_ram_kib: Option<u64>,
    /// Scene events driven through the stages per batch — the same
    /// TEE-boundary amortization lever as the audio pipeline's, with the
    /// same cap of [`MAX_BATCH_WINDOWS`].
    pub batch_windows: usize,
    /// Numeric representation of the in-TA frame classifier (see
    /// [`PipelineConfig::quant_mode`]). Int8 by default.
    pub quant_mode: QuantMode,
    /// Deterministic mid-run degradation injection (see [`DegradeSpec`]).
    pub degrade: Option<DegradeSpec>,
    /// Telemetry plane switchboard (see [`PipelineConfig::telemetry`]).
    pub telemetry: TelemetryConfig,
    /// Deterministic network chaos (see [`PipelineConfig::faults`]).
    pub faults: Option<FaultSpec>,
    /// Retry/backoff policy of the vision TA's relay.
    pub retry: RelayRetryConfig,
    /// Sharded-ingest session routing (see [`PipelineConfig::ingest`]).
    pub ingest: Option<IngestHook>,
}

impl Default for CameraPipelineConfig {
    fn default() -> Self {
        CameraPipelineConfig {
            policy: PrivacyPolicy::block_sensitive(),
            train_frames: 120,
            corpus_seed: 0xCAFE,
            constrained_platform: false,
            secure_ram_kib: None,
            batch_windows: 1,
            quant_mode: QuantMode::default(),
            degrade: None,
            telemetry: TelemetryConfig::default(),
            faults: None,
            retry: RelayRetryConfig::default(),
            ingest: None,
        }
    }
}

impl CameraPipelineConfig {
    fn build_platform(&self) -> Platform {
        build_platform(self.constrained_platform, self.secure_ram_kib)
    }

    fn effective_batch(&self) -> usize {
        self.batch_windows.max(1)
    }
}

/// The trained audio-side models (speech-to-text, text classifier, and
/// the vocabulary/synthesizer they were trained against).
#[derive(Debug, Clone)]
pub struct AudioModels {
    /// The keyword speech-to-text model.
    pub stt: Arc<KeywordStt>,
    /// The sensitive-content classifier.
    pub classifier: Arc<SensitiveClassifier>,
    /// The classifier's int8 deployment form, quantized **once** right
    /// after training (present for the CNN architecture; Transformer /
    /// Hybrid stay on the f32 baseline).
    pub classifier_int8: Option<Arc<QuantSensitiveClassifier>>,
    /// The vocabulary both models were trained against.
    pub vocabulary: Vocabulary,
    /// The synthesizer rendering scenario utterances into waveforms.
    pub synth: SpeechSynthesizer,
}

/// One trained model set, shareable across any number of pipelines.
///
/// Training dominates pipeline setup cost; a fleet trains once and hands
/// every device pipeline an [`Arc`] of the same weights. Each modality's
/// models train lazily on first use, so audio-only fleets never pay for
/// the frame classifier and camera-only fleets never pay for the speech
/// models — while a mixed fleet holds **one** model set across both.
#[derive(Clone)]
pub struct SharedModels {
    audio_architecture: Architecture,
    audio_train_utterances: usize,
    audio_corpus_seed: u64,
    audio: Arc<Mutex<Option<AudioModels>>>,
    vision: Arc<Mutex<VisionState>>,
}

/// The shared vision half of a model set: the training spec and, once
/// trained, the weights. Spec and weights live behind one shared lock so
/// every clone of a [`SharedModels`] sees the same spec — there is no
/// per-handle divergence.
struct VisionState {
    train_frames: usize,
    corpus_seed: u64,
    model: Option<Arc<FrameCnn>>,
    /// The int8 deployment form, quantized once from `model` on first
    /// int8-mode use and shared by every camera TA afterwards.
    int8: Option<Arc<QuantFrameCnn>>,
}

impl std::fmt::Debug for SharedModels {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedModels")
            .field("architecture", &self.audio_architecture)
            .field("audio_trained", &self.audio.lock().is_some())
            .field("vision_trained", &self.vision.lock().model.is_some())
            .finish()
    }
}

/// Trains the frame classifier on synthetic [`SceneKind`] frames: a
/// balanced schedule over every scene kind, labelled by the threat
/// model's ground truth.
fn train_frame_cnn(train_frames: usize, seed: u64) -> Result<FrameCnn> {
    let mut camera = CameraSensor::smart_home("training-cam", seed)
        .map_err(perisec_kernel::KernelError::from)?;
    camera.start();
    let n = train_frames.max(16);
    let mut examples = Vec::with_capacity(n);
    for i in 0..n {
        let scene = SceneKind::ALL[i % SceneKind::ALL.len()];
        let frame = camera
            .capture_frame(scene)
            .map_err(perisec_kernel::KernelError::from)?;
        examples.push((frame.pixels, scene.is_sensitive()));
    }
    let mut cnn = FrameCnn::new(VisionConfig::smart_home());
    cnn.fit(&examples).map_err(CoreError::from)?;
    Ok(cnn)
}

fn train_audio_models(
    architecture: Architecture,
    train_utterances: usize,
    corpus_seed: u64,
) -> Result<AudioModels> {
    let synth = SpeechSynthesizer::smart_home();
    let vocabulary = synth.vocabulary().clone();
    let stt = KeywordStt::train(&synth.reference_renderings(), SttConfig::default())
        .map_err(CoreError::from)?;
    let mut generator = CorpusGenerator::new(vocabulary.clone(), 0.5, corpus_seed);
    let corpus = generator.generate(train_utterances.max(16));
    // Train the classifier on what it will actually see in the TA: the
    // STT's (imperfect) transcription of the rendered waveform, not the
    // clean corpus tokens. Without this train/serve match, recognition
    // noise pushes neutral utterances across the sensitive threshold
    // and the filter over-drops. Utterances the STT loses entirely
    // fall back to their clean tokens so no label is wasted.
    let examples: Vec<(Vec<usize>, bool)> = corpus
        .iter()
        .map(|utterance| {
            let audio = synth.render_tokens(&utterance.tokens);
            let decoded = stt.transcribe_to_tokens(audio.samples());
            if decoded.is_empty() {
                (utterance.tokens.clone(), utterance.sensitive)
            } else {
                (decoded, utterance.sensitive)
            }
        })
        .collect();
    let mut classifier =
        SensitiveClassifier::new(architecture, TrainConfig::small(vocabulary.len()));
    classifier.fit(&examples).map_err(CoreError::from)?;
    // Train once, quantize once: every int8-mode TA of the fleet shares
    // this one deployment form.
    let classifier_int8 = QuantSensitiveClassifier::from_trained(&classifier).map(Arc::new);
    Ok(AudioModels {
        stt: Arc::new(stt),
        classifier: Arc::new(classifier),
        classifier_int8,
        vocabulary,
        synth,
    })
}

impl SharedModels {
    /// Creates a model set that trains **nothing** until a pipeline of the
    /// matching modality first asks for its models — camera-only fleets
    /// skip speech training, audio-only fleets skip frame training.
    pub fn deferred(architecture: Architecture, train_utterances: usize, corpus_seed: u64) -> Self {
        SharedModels {
            audio_architecture: architecture,
            audio_train_utterances: train_utterances,
            audio_corpus_seed: corpus_seed,
            audio: Arc::new(Mutex::new(None)),
            vision: Arc::new(Mutex::new(VisionState {
                train_frames: 120,
                corpus_seed: corpus_seed ^ 0xF7A3E5,
                model: None,
                int8: None,
            })),
        }
    }

    /// Overrides the frame-classifier training spec (frames and seed).
    /// The spec lives in the shared state, so **every** clone of this
    /// model set sees the change — but it must land before the vision
    /// model first trains: once the weights exist they are never
    /// retrained, and a later spec change has no effect.
    pub fn with_vision_spec(self, train_frames: usize, corpus_seed: u64) -> Self {
        {
            let mut vision = self.vision.lock();
            vision.train_frames = train_frames;
            vision.corpus_seed = corpus_seed;
        }
        self
    }

    /// Trains the in-TA audio models (keyword STT + sensitive-content
    /// classifier) on the synthetic corpus, eagerly.
    ///
    /// # Errors
    ///
    /// Propagates ML training failures.
    pub fn train(
        architecture: Architecture,
        train_utterances: usize,
        corpus_seed: u64,
    ) -> Result<Self> {
        let models = SharedModels::deferred(architecture, train_utterances, corpus_seed);
        models.audio()?;
        Ok(models)
    }

    /// The shared audio models, trained on first use with the
    /// configuration this set was created with; later calls reuse the
    /// cached weights, so every audio device of a fleet shares the same
    /// [`Arc`]s.
    ///
    /// # Errors
    ///
    /// Propagates ML training failures.
    pub fn audio(&self) -> Result<AudioModels> {
        let mut slot = self.audio.lock();
        if let Some(models) = slot.as_ref() {
            return Ok(models.clone());
        }
        let models = train_audio_models(
            self.audio_architecture,
            self.audio_train_utterances,
            self.audio_corpus_seed,
        )?;
        *slot = Some(models.clone());
        Ok(models)
    }

    /// The shared frame classifier, trained on first use with the spec
    /// this set was created with (see [`SharedModels::with_vision_spec`]);
    /// later calls reuse the cached weights, so every camera device of a
    /// fleet shares the same [`Arc`].
    ///
    /// # Errors
    ///
    /// Propagates frame-classifier training failures.
    pub fn vision(&self) -> Result<Arc<FrameCnn>> {
        let mut vision = self.vision.lock();
        if let Some(model) = &vision.model {
            return Ok(Arc::clone(model));
        }
        let model = Arc::new(train_frame_cnn(vision.train_frames, vision.corpus_seed)?);
        vision.model = Some(Arc::clone(&model));
        Ok(model)
    }

    /// The int8 deployment form of the shared frame classifier, quantized
    /// **once** on first use (training the f32 model first if needed);
    /// every int8-mode camera TA of a fleet shares the same [`Arc`].
    ///
    /// # Errors
    ///
    /// Propagates frame-classifier training failures.
    pub fn vision_int8(&self) -> Result<Arc<QuantFrameCnn>> {
        let model = self.vision()?;
        let mut vision = self.vision.lock();
        if let Some(int8) = &vision.int8 {
            return Ok(Arc::clone(int8));
        }
        let int8 = Arc::new(
            QuantFrameCnn::from_trained(&model).expect("vision() returns a trained classifier"),
        );
        vision.int8 = Some(Arc::clone(&int8));
        Ok(int8)
    }

    /// Trains the models a [`PipelineConfig`] asks for.
    ///
    /// # Errors
    ///
    /// Propagates ML training failures.
    pub fn for_config(config: &PipelineConfig) -> Result<Self> {
        SharedModels::train(
            config.architecture,
            config.train_utterances,
            config.corpus_seed,
        )
    }

    /// A deferred model set for a [`PipelineConfig`] (nothing trains
    /// until first use).
    pub fn deferred_for_config(config: &PipelineConfig) -> Self {
        SharedModels::deferred(
            config.architecture,
            config.train_utterances,
            config.corpus_seed,
        )
    }
}

/// Trains the in-TA models on the synthetic corpus. Exposed so examples,
/// benches and fleets can train once and reuse the models across pipeline
/// instances.
///
/// # Errors
///
/// Propagates ML training failures.
pub fn train_models(
    architecture: Architecture,
    train_utterances: usize,
    corpus_seed: u64,
) -> Result<SharedModels> {
    SharedModels::train(architecture, train_utterances, corpus_seed)
}

/// Cursor over one scenario replay: which event the stages have consumed
/// up to, plus the stats baseline the final report diffs against. This is
/// the resumable seam the fleet executor's `DeviceTask` state machine is
/// built on — a device run is `begin`, then `step` once per TEE crossing
/// (the natural yield point), then `finish`.
#[derive(Debug)]
pub struct ScenarioProgress {
    stats_before: TzStatsSnapshot,
    next_event: usize,
    relay_backlog: bool,
}

impl ScenarioProgress {
    /// Index of the first event the next step will consume.
    pub fn next_event(&self) -> usize {
        self.next_event
    }
}

/// Starts a staged scenario run: resets the cloud ledger and snapshots
/// the TEE counters the final report diffs against.
fn begin_secure_stages(platform: &Platform, ledger: &CloudLedger) -> ScenarioProgress {
    ledger.reset();
    ScenarioProgress {
        stats_before: platform.stats().snapshot(),
        next_event: 0,
        relay_backlog: false,
    }
}

/// Drives **one** batch through a secure capture → filter → relay stage
/// chain — one TEE crossing — and advances the cursor. Shared by the
/// audio and camera pipelines so their accounting can never drift apart.
/// Returns whether events remain after this step.
#[allow(clippy::too_many_arguments)]
fn step_secure_stages<E, C>(
    events: &[E],
    fixed_batch: usize,
    batcher: Option<&mut AdaptiveBatcher>,
    pressure: Option<&mut PressureMonitor>,
    degrade: Option<DegradeSpec>,
    clock: &SimClock,
    progress: &mut ScenarioProgress,
    capture: &mut C,
    filter: &mut SecureFilterStage,
    relay: &mut SecureRelayStage,
    tracer: &Tracer,
) -> Result<bool>
where
    E: Clone,
    C: PipelineStage<Input = Vec<E>, Output = crate::stage::PreparedBatch>,
{
    if progress.next_event >= events.len() {
        return Ok(false);
    }
    let depth = events.len() - progress.next_event;
    let batch = match &batcher {
        Some(batcher) => batcher.pick_batch(depth),
        None => fixed_batch.max(1),
    }
    .min(depth);
    let chunk = events[progress.next_event..progress.next_event + batch].to_vec();
    tracer.count("pipeline.windows", batch as u64);
    // Each stage runs under a span named after it; the filter stage's span
    // encloses the whole TEE crossing (smc.call, TA inference, tee.rpc),
    // so a chrome-trace dump shows the full nesting.
    let prepared = {
        let _span = tracer.span(capture.name());
        capture.process(chunk)?
    };
    let filter_start = clock.now();
    let filtered = {
        let _span = tracer.span(filter.name());
        let filtered = filter.process(prepared)?;
        // Injected degradation lands inside the filter span, so the
        // slowdown shows exactly where the health plane's SLO watches.
        if let Some(spec) = degrade {
            if clock.now().duration_since(SimInstant::EPOCH) >= spec.after {
                clock.advance(spec.per_window * batch as u64);
            }
        }
        filtered
    };
    if let Some(batcher) = batcher {
        if !filtered.per_utterance.is_empty() {
            let mean = filtered.per_utterance.iter().copied().sum::<SimDuration>()
                / filtered.per_utterance.len() as u64;
            batcher.observe(mean);
        }
        // The pressure monitor judges the per-window share of the whole
        // crossing (TA service *and* any degradation), then its verdict
        // clips the next pick — the observability→control loop.
        if let Some(pressure) = pressure {
            let per_window = clock.now().duration_since(filter_start) / batch as u64;
            pressure.observe(per_window);
            batcher.set_pressure(pressure.advance(clock.now()));
        }
        // Relay backlog overrides any SLO verdict: the TA's bounded
        // unacked buffer is backing up, so fall to single-window probes
        // until the network drains it.
        if filtered.backlog > 0 {
            batcher.set_pressure(perisec_telemetry::HealthState::Critical);
        }
    }
    progress.relay_backlog = filtered.backlog > 0;
    {
        let _span = tracer.span(relay.name());
        relay.process(filtered)?;
    }
    progress.next_event += batch;
    Ok(progress.next_event < events.len())
}

/// Assembles the run report once every batch has been stepped.
#[allow(clippy::too_many_arguments)]
fn finish_secure_stages(
    pipeline_name: &str,
    platform: &Platform,
    ledger: &CloudLedger,
    fabric: &NetworkFabric,
    relay: &mut SecureRelayStage,
    progress: ScenarioProgress,
    workload: WorkloadSummary,
    sensitive_ids: Vec<u64>,
) -> PipelineReport {
    let latency = relay.take_breakdown();
    let stats_after = platform.stats().snapshot();
    PipelineReport {
        pipeline: pipeline_name.to_owned(),
        workload,
        latency,
        cloud: CloudOutcome {
            report: ledger.report(),
            sensitive_ids,
        },
        tz: stats_after.delta_since(&progress.stats_before),
        energy: platform.energy_report(),
        virtual_time: platform.clock().now().duration_since(SimInstant::EPOCH),
        bytes_to_cloud: fabric.stats().bytes_sent,
    }
}

/// The paper's proposed design: secure driver in the TEE, PTA bridge,
/// in-TA ML filter, relay through the supplicant to the cloud — assembled
/// as capture → filter → relay stages.
pub struct SecurePipeline {
    config: PipelineConfig,
    platform: Platform,
    client: TeeClient,
    filter_session: TeeSessionHandle,
    cloud: Arc<MockCloudService>,
    ledger: CloudLedger,
    fabric: NetworkFabric,
    core: Arc<TeeCore>,
    i2s_pta: TaUuid,
    capture: SecureCaptureStage,
    filter: SecureFilterStage,
    relay: SecureRelayStage,
    batcher: Option<AdaptiveBatcher>,
    pressure: Option<PressureMonitor>,
    tracer: Tracer,
}

impl std::fmt::Debug for SecurePipeline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SecurePipeline")
            .field("architecture", &self.config.architecture)
            .field("policy", &self.config.policy)
            .field("batch_windows", &self.config.batch_windows)
            .finish()
    }
}

impl SecurePipeline {
    /// Builds the full secure stack, training a fresh model set.
    ///
    /// # Errors
    ///
    /// Fails if the models cannot be trained or a TEE component cannot be
    /// registered (e.g. the secure carve-out is too small for the model).
    pub fn new(config: PipelineConfig) -> Result<Self> {
        let models = SharedModels::for_config(&config)?;
        SecurePipeline::with_models(config, &models)
    }

    /// Builds the full secure stack around an existing trained model set —
    /// the fleet path: the models are shared by reference, not retrained.
    ///
    /// # Errors
    ///
    /// Fails if a TEE component cannot be registered (e.g. the secure
    /// carve-out is too small for the model).
    pub fn with_models(config: PipelineConfig, models: &SharedModels) -> Result<Self> {
        let audio = models.audio()?;
        let platform = config.build_platform();

        // Normal world: supplicant + network fabric + cloud endpoint. A
        // config routed through a sharded ingest plane registers the
        // plane's session endpoint under the cloud hostname instead of a
        // local mock cloud, so the TA dials the same host either way.
        let fabric = NetworkFabric::new().with_faults(config.faults);
        let cloud = MockCloudService::new(default_psk());
        let ledger = match &config.ingest {
            Some(hook) => {
                fabric.register_service(
                    MockCloudService::HOST,
                    hook.endpoint(platform.clock().clone()),
                );
                CloudLedger::Plane(hook.clone())
            }
            None => {
                fabric.register_service(MockCloudService::HOST, cloud.clone());
                CloudLedger::Direct(Arc::clone(&cloud))
            }
        };
        let supplicant = Arc::new(Supplicant::new());
        supplicant.set_net_backend(Arc::new(fabric.clone()));

        // Secure world: TEE core, secure driver PTA, filter TA.
        let core = TeeCore::boot(platform.clone(), supplicant);
        // One tracer over the device's virtual clock, shared by the
        // pipeline stages (below) and the TEE core / TAs (via set_tracer).
        let tracer = Tracer::new(platform.clock().clone(), &config.telemetry);
        core.set_tracer(tracer.clone());
        let playback = SharedPlayback::new();
        let mic = Microphone::speech_mic("secure-i2s-mic", playback.source())
            .map_err(perisec_kernel::KernelError::from)?;
        let secure_driver = SecureI2sDriver::new(platform.clone(), mic);
        let i2s_pta = core
            .register_pta(Box::new(I2sPta::new(secure_driver)))
            .map_err(CoreError::from)?;
        let mut filter = FilterTa::new(
            i2s_pta,
            crate::filter_ta::FilterTaModels {
                stt: Arc::clone(&audio.stt),
                classifier: Arc::clone(&audio.classifier),
                classifier_int8: match config.quant_mode {
                    QuantMode::Int8 => audio.classifier_int8.clone(),
                    QuantMode::F32 => None,
                },
            },
            config.quant_mode,
            audio.vocabulary.clone(),
            config.policy,
            default_cloud_host(),
            default_psk(),
            config.encoding,
            config.period_frames,
        )
        .with_retry(config.retry);
        if config.ingest.is_some() {
            // Plane-routed relay: the TA attests its own measurement
            // before the shard will accept records.
            filter = filter.with_ingest(perisec_relay::measurement_of(
                crate::filter_ta::FILTER_TA_NAME,
            ));
        }
        core.register_ta(Box::new(filter))
            .map_err(CoreError::from)?;

        // Configure and start the secure driver through its PTA.
        let encoding_code = match config.encoding {
            AudioEncoding::PcmLe16 => 0,
            AudioEncoding::MuLaw => 1,
        };
        let mut p = TeeParams::new().with(
            0,
            TeeParam::ValueInput {
                a: config.period_frames as u64,
                b: encoding_code,
            },
        );
        core.invoke_pta(i2s_pta, perisec_secure_driver::pta::cmd::CONFIGURE, &mut p)
            .map_err(CoreError::from)?;
        core.invoke_pta(
            i2s_pta,
            perisec_secure_driver::pta::cmd::START,
            &mut TeeParams::new(),
        )
        .map_err(CoreError::from)?;

        // Normal world client session to the filter TA.
        let client = TeeClient::connect(Arc::clone(&core));
        let (filter_session, _) = client
            .open_session(
                TaUuid::from_name(crate::filter_ta::FILTER_TA_NAME),
                TeeParams::new(),
            )
            .map_err(CoreError::from)?;

        let capture = SecureCaptureStage::new(
            platform.clone(),
            playback,
            audio.synth.clone(),
            config.period_frames,
        );
        let filter_stage = SecureFilterStage::new(platform.clone(), client.clone(), filter_session);
        let batcher = config
            .latency_slo
            .map(|slo| AdaptiveBatcher::new(platform.cost(), slo, MAX_BATCH_WINDOWS));
        // Pressure without a batcher has nothing to act on; build the
        // monitor only when both knobs are set.
        let pressure = match (&batcher, config.slo_pressure) {
            (Some(_), Some(spec)) => Some(PressureMonitor::for_spec(spec)),
            _ => None,
        };

        Ok(SecurePipeline {
            config,
            platform,
            client,
            filter_session,
            cloud,
            ledger,
            fabric,
            core,
            i2s_pta,
            capture,
            filter: filter_stage,
            relay: SecureRelayStage::new(),
            batcher,
            pressure,
            tracer,
        })
    }

    /// The device's telemetry tracer — disabled (recording nothing)
    /// unless the config's [`PipelineConfig::telemetry`] enabled it.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Drains the telemetry accumulated so far — per-span histograms and
    /// counters, plus the retained span events when span capture is on.
    /// The fleet harness calls this once per completed device.
    pub fn take_telemetry(&self) -> DeviceTelemetry {
        self.tracer.take()
    }

    /// The simulated platform (for inspecting stats and energy directly).
    pub fn platform(&self) -> &Platform {
        &self.platform
    }

    /// The mock cloud (for inspecting what it received). Empty when the
    /// config routes through an ingest plane — the plane's session
    /// ledger receives the records instead, and the scenario report's
    /// cloud outcome reads from whichever of the two is live.
    pub fn cloud(&self) -> &Arc<MockCloudService> {
        &self.cloud
    }

    /// The TEE core (for footprint reports).
    pub fn tee_core(&self) -> &Arc<TeeCore> {
        &self.core
    }

    /// The UUID of the secure-driver PTA.
    pub fn i2s_pta(&self) -> TaUuid {
        self.i2s_pta
    }

    /// The configured batch size.
    pub fn batch_windows(&self) -> usize {
        self.config.effective_batch()
    }

    /// The pressure monitor's current verdict, when the config wired one
    /// ([`PipelineConfig::slo_pressure`] alongside `latency_slo`).
    pub fn pressure_state(&self) -> Option<perisec_telemetry::HealthState> {
        self.pressure.as_ref().map(PressureMonitor::state)
    }

    /// Installs a new privacy policy in the filter TA.
    ///
    /// # Errors
    ///
    /// Propagates TEE invocation failures.
    pub fn set_policy(&mut self, policy: PrivacyPolicy) -> Result<()> {
        let (mode, threshold) = policy.to_values();
        let params = TeeParams::new().with(
            0,
            TeeParam::ValueInput {
                a: mode,
                b: threshold,
            },
        );
        self.client
            .invoke(&self.filter_session, filter_cmd::SET_POLICY, params)
            .map_err(CoreError::from)?;
        self.config.policy = policy;
        Ok(())
    }

    /// Starts a resumable scenario replay (see
    /// [`SecurePipeline::step_scenario`]).
    pub fn begin_scenario(&mut self) -> ScenarioProgress {
        begin_secure_stages(&self.platform, &self.ledger)
    }

    /// Drives **one** batch — one TEE crossing — of the scenario through
    /// the capture → filter → relay stages and advances the cursor; the
    /// batch size is the fixed `batch_windows` unless the config carries a
    /// latency SLO, in which case the adaptive batcher picks it from the
    /// remaining queue depth. Returns whether events remain. This is the
    /// fleet executor's yield point: a `DeviceTask` calls it once per
    /// executor step, so thousands of devices interleave at TEE-crossing
    /// granularity on a bounded worker pool.
    ///
    /// # Errors
    ///
    /// Propagates TEE and relay failures.
    pub fn step_scenario(
        &mut self,
        scenario: &Scenario,
        progress: &mut ScenarioProgress,
    ) -> Result<bool> {
        let more = step_secure_stages(
            &scenario.events,
            self.config.effective_batch(),
            self.batcher.as_mut(),
            self.pressure.as_mut(),
            self.config.degrade,
            self.platform.clock(),
            progress,
            &mut self.capture,
            &mut self.filter,
            &mut self.relay,
            &self.tracer,
        )?;
        if !more && progress.relay_backlog {
            // The scenario ended with unacked records still buffered in
            // the TA: a blocking drain retires them, so the report never
            // misses a verdict the network delayed. Skipped on a clean
            // finish — the healthy path pays no extra TEE crossing.
            self.filter.drain_relay()?;
            progress.relay_backlog = false;
        }
        Ok(more)
    }

    /// Assembles the report of a stepped-to-completion scenario replay.
    pub fn finish_scenario(
        &mut self,
        scenario: &Scenario,
        progress: ScenarioProgress,
    ) -> PipelineReport {
        finish_secure_stages(
            "secure",
            &self.platform,
            &self.ledger,
            &self.fabric,
            &mut self.relay,
            progress,
            WorkloadSummary {
                utterances: scenario.len(),
                sensitive_utterances: scenario.sensitive_count(),
            },
            scenario.sensitive_ids(),
        )
    }

    /// Replays a scenario end to end — batch by batch through the
    /// capture → filter → relay stages — and reports on it.
    ///
    /// # Errors
    ///
    /// Propagates TEE and relay failures.
    pub fn run_scenario(&mut self, scenario: &Scenario) -> Result<PipelineReport> {
        let mut progress = self.begin_scenario();
        while self.step_scenario(scenario, &mut progress)? {}
        Ok(self.finish_scenario(scenario, progress))
    }
}

/// The secure *camera* pipeline: secure camera driver in the TEE, camera
/// PTA bridge, in-TA frame classification, verdict-only relay — the
/// vision modality assembled from the very same
/// capture → filter → relay stages as the audio pipeline.
pub struct SecureCameraPipeline {
    config: CameraPipelineConfig,
    platform: Platform,
    client: TeeClient,
    vision_session: TeeSessionHandle,
    cloud: Arc<MockCloudService>,
    ledger: CloudLedger,
    fabric: NetworkFabric,
    core: Arc<TeeCore>,
    camera_pta: TaUuid,
    capture: SecureFrameCaptureStage,
    filter: SecureFilterStage,
    relay: SecureRelayStage,
    tracer: Tracer,
}

impl std::fmt::Debug for SecureCameraPipeline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SecureCameraPipeline")
            .field("policy", &self.config.policy)
            .field("batch_windows", &self.config.batch_windows)
            .finish()
    }
}

impl SecureCameraPipeline {
    /// Builds the full secure camera stack, training a fresh model set.
    ///
    /// # Errors
    ///
    /// Fails if the frame classifier cannot be trained or a TEE component
    /// cannot be registered.
    pub fn new(config: CameraPipelineConfig) -> Result<Self> {
        let vision = Arc::new(train_frame_cnn(config.train_frames, config.corpus_seed)?);
        SecureCameraPipeline::with_vision_model(config, vision)
    }

    /// The int8 deployment form a config asks for: quantized once from
    /// the trained f32 classifier in int8 mode, absent in f32 mode.
    fn quantize_for(
        config: &CameraPipelineConfig,
        vision: &Arc<FrameCnn>,
    ) -> Option<Arc<QuantFrameCnn>> {
        match config.quant_mode {
            QuantMode::Int8 => QuantFrameCnn::from_trained(vision).map(Arc::new),
            QuantMode::F32 => None,
        }
    }

    /// Builds the camera stack around a shared model set — the mixed-fleet
    /// path: audio and camera devices hand out `Arc`s of one
    /// [`SharedModels`]. The frame classifier trains lazily inside the
    /// model set on first camera use, with the **model set's** vision
    /// spec (see [`SharedModels::with_vision_spec`]); this config's
    /// `train_frames` / `corpus_seed` only govern self-trained pipelines
    /// ([`SecureCameraPipeline::new`]).
    ///
    /// # Errors
    ///
    /// Fails if the frame classifier cannot be trained or a TEE component
    /// cannot be registered (e.g. the secure carve-out is too small for
    /// the model).
    pub fn with_models(config: CameraPipelineConfig, models: &SharedModels) -> Result<Self> {
        let vision = models.vision()?;
        // The fleet path reuses the model set's cached int8 form — the
        // "quantize once" half of train-once-quantize-once.
        let int8 = match config.quant_mode {
            QuantMode::Int8 => Some(models.vision_int8()?),
            QuantMode::F32 => None,
        };
        SecureCameraPipeline::build(config, vision, int8)
    }

    /// Builds the camera stack around an existing trained frame
    /// classifier (quantizing it on the spot when the config asks for
    /// int8 mode — self-trained pipelines have no shared cache).
    ///
    /// # Errors
    ///
    /// Fails if a TEE component cannot be registered.
    pub fn with_vision_model(config: CameraPipelineConfig, vision: Arc<FrameCnn>) -> Result<Self> {
        let int8 = SecureCameraPipeline::quantize_for(&config, &vision);
        SecureCameraPipeline::build(config, vision, int8)
    }

    fn build(
        config: CameraPipelineConfig,
        vision: Arc<FrameCnn>,
        vision_int8: Option<Arc<QuantFrameCnn>>,
    ) -> Result<Self> {
        let platform = config.build_platform();

        // Normal world: supplicant + network fabric + cloud endpoint —
        // plane-routed exactly as in [`SecurePipeline::with_models`].
        let fabric = NetworkFabric::new().with_faults(config.faults);
        let cloud = MockCloudService::new(default_psk());
        let ledger = match &config.ingest {
            Some(hook) => {
                fabric.register_service(
                    MockCloudService::HOST,
                    hook.endpoint(platform.clock().clone()),
                );
                CloudLedger::Plane(hook.clone())
            }
            None => {
                fabric.register_service(MockCloudService::HOST, cloud.clone());
                CloudLedger::Direct(Arc::clone(&cloud))
            }
        };
        let supplicant = Arc::new(Supplicant::new());
        supplicant.set_net_backend(Arc::new(fabric.clone()));

        // Secure world: TEE core, secure camera driver PTA, vision TA.
        let core = TeeCore::boot(platform.clone(), supplicant);
        let tracer = Tracer::new(platform.clock().clone(), &config.telemetry);
        core.set_tracer(tracer.clone());
        let scenes = SharedSceneQueue::new();
        let sensor = CameraSensor::smart_home("secure-camera", 0x5EC2)
            .map_err(perisec_kernel::KernelError::from)?;
        let camera_driver = SecureCameraDriver::new(platform.clone(), sensor, scenes.source());
        let camera_pta = core
            .register_pta(Box::new(CameraPta::new(camera_driver)))
            .map_err(CoreError::from)?;
        let mut vision_ta = VisionTa::new(
            camera_pta,
            vision,
            vision_int8,
            config.quant_mode,
            config.policy,
            default_cloud_host(),
            default_psk(),
        )
        .with_retry(config.retry);
        if config.ingest.is_some() {
            vision_ta = vision_ta.with_ingest(perisec_relay::measurement_of(
                crate::vision_ta::VISION_TA_NAME,
            ));
        }
        core.register_ta(Box::new(vision_ta))
            .map_err(CoreError::from)?;

        // Configure and start the secure camera driver through its PTA.
        core.invoke_pta(
            camera_pta,
            perisec_secure_driver::camera_pta::cmd::CONFIGURE,
            &mut TeeParams::new(),
        )
        .map_err(CoreError::from)?;
        core.invoke_pta(
            camera_pta,
            perisec_secure_driver::camera_pta::cmd::START,
            &mut TeeParams::new(),
        )
        .map_err(CoreError::from)?;

        // Normal world client session to the vision TA.
        let client = TeeClient::connect(Arc::clone(&core));
        let (vision_session, _) = client
            .open_session(
                TaUuid::from_name(crate::vision_ta::VISION_TA_NAME),
                TeeParams::new(),
            )
            .map_err(CoreError::from)?;

        let capture = SecureFrameCaptureStage::new(platform.clone(), scenes);
        let filter = SecureFilterStage::new(platform.clone(), client.clone(), vision_session);

        Ok(SecureCameraPipeline {
            config,
            platform,
            client,
            vision_session,
            cloud,
            ledger,
            fabric,
            core,
            camera_pta,
            capture,
            filter,
            relay: SecureRelayStage::new(),
            tracer,
        })
    }

    /// The device's telemetry tracer (see [`SecurePipeline::tracer`]).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Drains the telemetry accumulated so far (see
    /// [`SecurePipeline::take_telemetry`]).
    pub fn take_telemetry(&self) -> DeviceTelemetry {
        self.tracer.take()
    }

    /// The simulated platform.
    pub fn platform(&self) -> &Platform {
        &self.platform
    }

    /// The mock cloud (for inspecting what it received).
    pub fn cloud(&self) -> &Arc<MockCloudService> {
        &self.cloud
    }

    /// The TEE core (for footprint reports).
    pub fn tee_core(&self) -> &Arc<TeeCore> {
        &self.core
    }

    /// The UUID of the camera PTA.
    pub fn camera_pta(&self) -> TaUuid {
        self.camera_pta
    }

    /// The configured batch size.
    pub fn batch_windows(&self) -> usize {
        self.config.effective_batch()
    }

    /// Installs a new privacy policy in the vision TA.
    ///
    /// # Errors
    ///
    /// Propagates TEE invocation failures.
    pub fn set_policy(&mut self, policy: PrivacyPolicy) -> Result<()> {
        let (mode, threshold) = policy.to_values();
        let params = TeeParams::new().with(
            0,
            TeeParam::ValueInput {
                a: mode,
                b: threshold,
            },
        );
        self.client
            .invoke(
                &self.vision_session,
                crate::vision_ta::cmd::SET_POLICY,
                params,
            )
            .map_err(CoreError::from)?;
        self.config.policy = policy;
        Ok(())
    }

    /// Starts a resumable scenario replay (see
    /// [`SecureCameraPipeline::step_scenario`]).
    pub fn begin_scenario(&mut self) -> ScenarioProgress {
        begin_secure_stages(&self.platform, &self.ledger)
    }

    /// Drives **one** batch — one TEE crossing — of the camera scenario
    /// through the capture → filter → relay stages and advances the
    /// cursor. Returns whether events remain. The fleet executor's yield
    /// point for camera devices.
    ///
    /// # Errors
    ///
    /// Propagates TEE and relay failures.
    pub fn step_scenario(
        &mut self,
        scenario: &CameraScenario,
        progress: &mut ScenarioProgress,
    ) -> Result<bool> {
        let more = step_secure_stages(
            &scenario.events,
            self.config.effective_batch(),
            None,
            None,
            self.config.degrade,
            self.platform.clock(),
            progress,
            &mut self.capture,
            &mut self.filter,
            &mut self.relay,
            &self.tracer,
        )?;
        if !more && progress.relay_backlog {
            // The scenario ended with unacked records still buffered in
            // the TA: a blocking drain retires them, so the report never
            // misses a verdict the network delayed. Skipped on a clean
            // finish — the healthy path pays no extra TEE crossing.
            self.filter.drain_relay()?;
            progress.relay_backlog = false;
        }
        Ok(more)
    }

    /// Assembles the report of a stepped-to-completion scenario replay.
    /// The report counts scene events as the workload's "utterances".
    pub fn finish_scenario(
        &mut self,
        scenario: &CameraScenario,
        progress: ScenarioProgress,
    ) -> PipelineReport {
        finish_secure_stages(
            "secure-camera",
            &self.platform,
            &self.ledger,
            &self.fabric,
            &mut self.relay,
            progress,
            WorkloadSummary {
                utterances: scenario.len(),
                sensitive_utterances: scenario.sensitive_count(),
            },
            scenario.sensitive_ids(),
        )
    }

    /// Replays a camera scenario end to end — batch by batch through the
    /// capture → filter → relay stages — and reports on it. The report
    /// counts scene events as the workload's "utterances".
    ///
    /// # Errors
    ///
    /// Propagates TEE and relay failures.
    pub fn run_scenario(&mut self, scenario: &CameraScenario) -> Result<PipelineReport> {
        let mut progress = self.begin_scenario();
        while self.step_scenario(scenario, &mut progress)? {}
        Ok(self.finish_scenario(scenario, progress))
    }
}

/// The paper's baseline: the driver stays in the untrusted kernel and the
/// unfiltered capture is shipped to the cloud by a normal-world
/// application — the same three-stage shape, with a passthrough filter.
pub struct BaselinePipeline {
    config: PipelineConfig,
    platform: Platform,
    cloud: Arc<MockCloudService>,
    fabric: NetworkFabric,
    capture: KernelCaptureStage,
    filter: PassthroughFilterStage,
    relay: CloudRelayStage,
}

impl std::fmt::Debug for BaselinePipeline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BaselinePipeline")
            .field("batch_windows", &self.config.batch_windows)
            .finish()
    }
}

impl BaselinePipeline {
    /// Builds the baseline stack: kernel driver, network fabric, cloud.
    ///
    /// # Errors
    ///
    /// Propagates kernel-substrate failures.
    pub fn new(config: PipelineConfig) -> Result<Self> {
        let platform = config.build_platform();
        let fabric = NetworkFabric::new().with_faults(config.faults);
        let cloud = MockCloudService::new(default_psk());
        fabric.register_service(MockCloudService::HOST, cloud.clone());

        let playback = SharedPlayback::new();
        let mic = Microphone::speech_mic("kernel-i2s-mic", playback.source())
            .map_err(perisec_kernel::KernelError::from)?;
        let tracer = FunctionTracer::new();
        let mut driver = BaselineI2sDriver::new(platform.clone(), mic, tracer);
        driver.probe()?;
        driver.configure(PcmHwParams {
            period_frames: config.period_frames,
            ..PcmHwParams::voice_default()
        })?;
        driver.start()?;

        let capture = KernelCaptureStage::new(
            platform.clone(),
            playback,
            SpeechSynthesizer::smart_home(),
            driver,
            config.period_frames,
        );
        let relay = CloudRelayStage::new(
            platform.clone(),
            fabric.clone(),
            MockCloudService::HOST,
            default_psk(),
            config.encoding,
        )
        .with_retry(config.retry);
        Ok(BaselinePipeline {
            config,
            platform,
            cloud,
            fabric,
            capture,
            filter: PassthroughFilterStage,
            relay,
        })
    }

    /// The simulated platform.
    pub fn platform(&self) -> &Platform {
        &self.platform
    }

    /// The mock cloud.
    pub fn cloud(&self) -> &Arc<MockCloudService> {
        &self.cloud
    }

    /// Replays a scenario: every utterance is captured by the in-kernel
    /// driver and forwarded to the cloud without any filtering.
    ///
    /// # Errors
    ///
    /// Propagates kernel and relay failures.
    pub fn run_scenario(&mut self, scenario: &Scenario) -> Result<PipelineReport> {
        self.cloud.reset();
        let stats_before = self.platform.stats().snapshot();
        let batch = self.config.effective_batch();
        for chunk in scenario.events.chunks(batch) {
            let captured = self.capture.process(chunk.to_vec())?;
            let passed = self.filter.process(captured)?;
            self.relay.process(passed)?;
        }
        let latency = self.relay.take_breakdown();
        let stats_after = self.platform.stats().snapshot();
        Ok(PipelineReport {
            pipeline: "baseline".to_owned(),
            workload: WorkloadSummary {
                utterances: scenario.len(),
                sensitive_utterances: scenario.sensitive_count(),
            },
            latency,
            cloud: CloudOutcome {
                report: self.cloud.report(),
                sensitive_ids: scenario.sensitive_ids(),
            },
            tz: stats_after.delta_since(&stats_before),
            energy: self.platform.energy_report(),
            virtual_time: self
                .platform
                .clock()
                .now()
                .duration_since(SimInstant::EPOCH),
            bytes_to_cloud: self.fabric.stats().bytes_sent,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::FilterMode;
    use perisec_optee::TeeError;
    use perisec_tz::time::SimDuration;

    fn small_config() -> PipelineConfig {
        PipelineConfig {
            train_utterances: 60,
            ..PipelineConfig::default()
        }
    }

    #[test]
    fn secure_pipeline_blocks_most_sensitive_utterances() {
        let mut pipeline = SecurePipeline::new(small_config()).unwrap();
        let scenario = Scenario::mixed(12, 0.5, SimDuration::from_secs(5), 77);
        let report = pipeline.run_scenario(&scenario).unwrap();

        assert_eq!(report.workload.utterances, 12);
        assert!(report.workload.sensitive_utterances > 0);
        // The filter must stop the majority of sensitive content.
        assert!(
            report.cloud.leakage_rate() < 0.5,
            "leakage rate {:.2}",
            report.cloud.leakage_rate()
        );
        // Non-sensitive content still flows: at least one utterance reached
        // the cloud, all of it encrypted.
        assert!(report.cloud.received_utterances() >= 1);
        assert!(report.cloud.report.events.iter().all(|e| e.encrypted));
        // TEE mechanics were exercised.
        assert!(report.tz.smc_calls >= 12);
        assert!(report.tz.world_switches >= 24);
        assert!(report.tz.supplicant_rpcs > 0);
        assert!(report.latency.ml > SimDuration::ZERO);
        assert!(report.energy.total_mj > 0.0);
    }

    #[test]
    fn baseline_pipeline_leaks_everything() {
        let mut pipeline = BaselinePipeline::new(small_config()).unwrap();
        let scenario = Scenario::mixed(8, 0.5, SimDuration::from_secs(5), 78);
        let report = pipeline.run_scenario(&scenario).unwrap();
        assert_eq!(report.cloud.received_utterances(), 8);
        assert!((report.cloud.leakage_rate() - 1.0).abs() < 1e-9);
        // The baseline never enters the secure world.
        assert_eq!(report.tz.world_switches, 0);
        assert_eq!(report.tz.smc_calls, 0);
        assert!(report.latency.ml.is_zero());
    }

    #[test]
    fn secure_pipeline_is_slower_per_utterance_than_baseline() {
        let scenario = Scenario::mixed(6, 0.5, SimDuration::from_secs(5), 79);
        let mut secure = SecurePipeline::new(small_config()).unwrap();
        let mut baseline = BaselinePipeline::new(small_config()).unwrap();
        let secure_report = secure.run_scenario(&scenario).unwrap();
        let baseline_report = baseline.run_scenario(&scenario).unwrap();
        assert!(
            secure_report.latency.mean_end_to_end() > baseline_report.latency.mean_end_to_end(),
            "secure {} vs baseline {}",
            secure_report.latency.mean_end_to_end(),
            baseline_report.latency.mean_end_to_end()
        );
    }

    #[test]
    fn allow_all_policy_forwards_sensitive_content() {
        let mut pipeline = SecurePipeline::new(PipelineConfig {
            policy: PrivacyPolicy {
                mode: FilterMode::AllowAll,
                threshold: 0.5,
                lexical_guard: false,
            },
            train_utterances: 60,
            ..PipelineConfig::default()
        })
        .unwrap();
        let scenario = Scenario::mixed(8, 1.0, SimDuration::from_secs(5), 80);
        let report = pipeline.run_scenario(&scenario).unwrap();
        assert!(report.cloud.leakage_rate() > 0.5);
        // Switching the policy at runtime changes behaviour.
        pipeline
            .set_policy(PrivacyPolicy::block_sensitive())
            .unwrap();
        let report2 = pipeline.run_scenario(&scenario).unwrap();
        assert!(report2.cloud.leakage_rate() < report.cloud.leakage_rate());
    }

    /// Sends `PROCESS_BATCH` requests the TA must refuse on `session`:
    /// a zero-length window, a `u32::MAX` window, and one window more than
    /// the batch cap.
    fn assert_unbounded_batches_are_refused(client: &TeeClient, session: &TeeSessionHandle) {
        let batch = |windows: &[(u64, u32)]| {
            TeeParams::new().with(
                0,
                TeeParam::MemRefInput(crate::filter_ta::encode_batch_request(windows)),
            )
        };
        let over_long = vec![(7, 1); MAX_BATCH_WINDOWS + 1];
        for windows in [&[(1, 0)][..], &[(1, 1), (2, u32::MAX)], &over_long] {
            let refused = client.invoke(session, filter_cmd::PROCESS_BATCH, batch(windows));
            assert!(
                matches!(refused, Err(TeeError::BadParameters { .. })),
                "{} windows, longest {}: {refused:?}",
                windows.len(),
                windows.iter().map(|w| w.1).max().unwrap_or(0)
            );
        }
    }

    /// A filter TA's `GET_STATS` counters (same command id in both TAs).
    fn ta_stats(client: &TeeClient, session: &TeeSessionHandle) -> [(u64, u64); 2] {
        let out = client
            .invoke(session, filter_cmd::GET_STATS, TeeParams::new())
            .unwrap();
        [
            out.get(0).as_values().unwrap(),
            out.get(1).as_values().unwrap(),
        ]
    }

    #[test]
    fn audio_ta_refuses_unbounded_batches_and_keeps_serving() {
        let models = SharedModels::for_config(&small_config()).unwrap();
        let scenario = Scenario::mixed(6, 0.5, SimDuration::from_secs(1), 87);
        let config = PipelineConfig {
            batch_windows: 3,
            ..small_config()
        };
        let mut fresh = SecurePipeline::with_models(config.clone(), &models).unwrap();
        let mut probed = SecurePipeline::with_models(config, &models).unwrap();
        assert_unbounded_batches_are_refused(&probed.client, &probed.filter_session);
        // Nothing was processed for the refused batches.
        assert_eq!(
            ta_stats(&probed.client, &probed.filter_session),
            [(0, 0); 2]
        );
        let a = fresh.run_scenario(&scenario).unwrap();
        let b = probed.run_scenario(&scenario).unwrap();
        assert!(!b.cloud.report.events.is_empty());
        assert_eq!(a.cloud.report.events, b.cloud.report.events);
        assert_eq!(
            ta_stats(&fresh.client, &fresh.filter_session),
            ta_stats(&probed.client, &probed.filter_session)
        );
    }

    #[test]
    fn camera_ta_refuses_unbounded_batches_and_keeps_serving() {
        use perisec_workload::scenario::CameraScenario;
        let models = SharedModels::deferred_for_config(&small_config());
        let scenario = CameraScenario::mixed_scenes(6, 0.5, SimDuration::from_secs(1), 0xCA14);
        let config = CameraPipelineConfig {
            batch_windows: 3,
            ..CameraPipelineConfig::default()
        };
        let mut fresh = SecureCameraPipeline::with_models(config.clone(), &models).unwrap();
        let mut probed = SecureCameraPipeline::with_models(config, &models).unwrap();
        assert_unbounded_batches_are_refused(&probed.client, &probed.vision_session);
        assert_eq!(
            ta_stats(&probed.client, &probed.vision_session),
            [(0, 0); 2]
        );
        let a = fresh.run_scenario(&scenario).unwrap();
        let b = probed.run_scenario(&scenario).unwrap();
        assert!(!b.cloud.report.events.is_empty());
        assert_eq!(a.cloud.report.events, b.cloud.report.events);
        assert_eq!(
            ta_stats(&fresh.client, &fresh.vision_session),
            ta_stats(&probed.client, &probed.vision_session)
        );
    }

    #[test]
    fn batched_baseline_latency_excludes_scenario_spacing() {
        // Events are 5 s apart; with batching the capture stage advances
        // the clock between events of one chunk, which must not leak into
        // the reported per-utterance processing latency.
        let scenario = Scenario::mixed(6, 0.5, SimDuration::from_secs(5), 83);
        let mut batched = BaselinePipeline::new(PipelineConfig {
            train_utterances: 60,
            batch_windows: 3,
            ..PipelineConfig::default()
        })
        .unwrap();
        let report = batched.run_scenario(&scenario).unwrap();
        for (i, latency) in report.latency.per_utterance().iter().enumerate() {
            assert!(
                *latency < SimDuration::from_secs(1),
                "utterance {i} latency {latency} absorbed scenario spacing"
            );
        }
    }

    #[test]
    fn tiny_secure_ram_rejects_the_model() {
        let result = SecurePipeline::new(PipelineConfig {
            secure_ram_kib: Some(96),
            train_utterances: 30,
            ..PipelineConfig::default()
        });
        assert!(result.is_err());
    }

    #[test]
    fn shared_models_build_many_pipelines_without_retraining() {
        let config = small_config();
        let models = SharedModels::for_config(&config).unwrap();
        let scenario = Scenario::mixed(4, 0.5, SimDuration::from_secs(2), 81);
        let mut first = SecurePipeline::with_models(config.clone(), &models).unwrap();
        let mut second = SecurePipeline::with_models(config, &models).unwrap();
        let a = first.run_scenario(&scenario).unwrap();
        let b = second.run_scenario(&scenario).unwrap();
        // Same models, same scenario: identical privacy outcomes.
        assert_eq!(
            a.cloud.report.received_dialog_ids(),
            b.cloud.report.received_dialog_ids()
        );
        // The weights really are shared, not copied: the cached copy in
        // the model set plus one clone per live pipeline's filter TA.
        let audio = models.audio().unwrap();
        assert!(Arc::strong_count(&audio.classifier) >= 3);
    }

    #[test]
    fn camera_pipeline_relays_verdicts_never_pixels() {
        use perisec_workload::scenario::CameraScenario;
        let mut pipeline = SecureCameraPipeline::new(CameraPipelineConfig::default()).unwrap();
        let scenario = CameraScenario::mixed_scenes(12, 0.5, SimDuration::from_secs(4), 0xCA11);
        assert!(scenario.sensitive_count() > 0);
        let report = pipeline.run_scenario(&scenario).unwrap();

        assert_eq!(report.workload.utterances, 12);
        // No sensitive scene leaks, while non-sensitive verdicts flow.
        assert_eq!(report.cloud.leaked_sensitive_utterances(), 0);
        assert!(
            report.cloud.received_utterances()
                >= (scenario.len() - scenario.sensitive_count()) * 9 / 10
        );
        // Nothing that reached the cloud carries payload bytes: verdict
        // records only, all encrypted.
        for event in &report.cloud.report.events {
            assert_eq!(event.audio_bytes, 0);
            assert!(event.encrypted);
            assert!(event
                .text
                .as_deref()
                .unwrap_or("")
                .contains("frame-verdict"));
        }
        // TEE mechanics were exercised.
        assert!(report.tz.smc_calls >= 12);
        assert!(report.tz.secure_irqs >= 24, "two frames per scene event");
        assert!(report.latency.ml > SimDuration::ZERO);
    }

    #[test]
    fn camera_pipeline_batching_amortizes_the_boundary() {
        use perisec_workload::scenario::CameraScenario;
        // Deferred: this test runs only camera pipelines, so no speech
        // models need to train.
        let models = SharedModels::deferred_for_config(&small_config());
        let scenario = CameraScenario::mixed_scenes(8, 0.5, SimDuration::from_secs(2), 0xCA12);
        let mut unbatched =
            SecureCameraPipeline::with_models(CameraPipelineConfig::default(), &models).unwrap();
        let mut batched = SecureCameraPipeline::with_models(
            CameraPipelineConfig {
                batch_windows: 4,
                ..CameraPipelineConfig::default()
            },
            &models,
        )
        .unwrap();
        let a = unbatched.run_scenario(&scenario).unwrap();
        let b = batched.run_scenario(&scenario).unwrap();
        assert_eq!(
            a.cloud.report.received_dialog_ids(),
            b.cloud.report.received_dialog_ids()
        );
        assert_eq!(b.tz.smc_calls, 2);
        assert!(b.tz.world_switches < a.tz.world_switches);
    }

    #[test]
    fn camera_allow_all_policy_forwards_sensitive_verdicts() {
        use perisec_workload::scenario::CameraScenario;
        let mut pipeline = SecureCameraPipeline::new(CameraPipelineConfig {
            policy: PrivacyPolicy::allow_all(),
            ..CameraPipelineConfig::default()
        })
        .unwrap();
        let scenario = CameraScenario::mixed_scenes(6, 1.0, SimDuration::from_secs(2), 0xCA13);
        let report = pipeline.run_scenario(&scenario).unwrap();
        assert!(report.cloud.leakage_rate() > 0.5);
        // Even leaked verdicts carry no pixels — the leak is metadata only.
        assert!(report
            .cloud
            .report
            .events
            .iter()
            .all(|e| e.audio_bytes == 0));
        // Switching to blocking at runtime stops the verdict flow.
        pipeline
            .set_policy(PrivacyPolicy::block_sensitive())
            .unwrap();
        let report2 = pipeline.run_scenario(&scenario).unwrap();
        assert_eq!(report2.cloud.leaked_sensitive_utterances(), 0);
    }

    #[test]
    fn audio_latency_slo_drives_adaptive_batching() {
        let models = SharedModels::for_config(&small_config()).unwrap();
        let scenario = Scenario::mixed(12, 0.5, SimDuration::from_secs(1), 84);
        let mut fixed = SecurePipeline::with_models(small_config(), &models).unwrap();
        let mut adaptive = SecurePipeline::with_models(
            PipelineConfig {
                // A generous SLO: after the batch-of-one probe the
                // batcher grows the crossings well past one window.
                latency_slo: Some(SimDuration::from_secs(1)),
                ..small_config()
            },
            &models,
        )
        .unwrap();
        let a = fixed.run_scenario(&scenario).unwrap();
        let b = adaptive.run_scenario(&scenario).unwrap();
        // Same models, same scenario: identical cloud outcomes — the SLO
        // knob only changes how the work is chunked across crossings.
        assert_eq!(
            a.cloud.report.received_dialog_ids(),
            b.cloud.report.received_dialog_ids()
        );
        // The adaptive run amortized the boundary: strictly fewer SMCs
        // than one per utterance (batch 1 fixed pays one per utterance).
        assert_eq!(a.tz.smc_calls, 12);
        assert!(
            b.tz.smc_calls < a.tz.smc_calls,
            "adaptive run used {} SMCs vs {} fixed",
            b.tz.smc_calls,
            a.tz.smc_calls
        );
        // A tight SLO keeps batches at one — the probe behaviour.
        let mut tight = SecurePipeline::with_models(
            PipelineConfig {
                latency_slo: Some(SimDuration::from_nanos(1)),
                ..small_config()
            },
            &models,
        )
        .unwrap();
        let c = tight.run_scenario(&scenario).unwrap();
        assert_eq!(c.tz.smc_calls, 12);
        assert_eq!(
            c.cloud.report.received_dialog_ids(),
            a.cloud.report.received_dialog_ids()
        );
    }

    #[test]
    fn slo_pressure_shrinks_batches_without_changing_outcomes() {
        let models = SharedModels::for_config(&small_config()).unwrap();
        let scenario = Scenario::mixed(12, 0.5, SimDuration::from_secs(1), 85);
        let base = PipelineConfig {
            latency_slo: Some(SimDuration::from_secs(1)),
            ..small_config()
        };
        let mut unpressured = SecurePipeline::with_models(base.clone(), &models).unwrap();
        // An unattainable pressure objective: every crossing breaches, so
        // the monitor demotes toward Critical and the batcher falls back
        // to single-window probes.
        let mut pressured = SecurePipeline::with_models(
            PipelineConfig {
                slo_pressure: Some(perisec_telemetry::SloSpec::p95(
                    "service",
                    SimDuration::from_nanos(1),
                )),
                ..base.clone()
            },
            &models,
        )
        .unwrap();
        assert_eq!(
            pressured.pressure_state(),
            Some(perisec_telemetry::HealthState::Healthy)
        );
        let a = unpressured.run_scenario(&scenario).unwrap();
        let b = pressured.run_scenario(&scenario).unwrap();
        // Pressure only re-chunks the work — privacy outcomes match.
        assert_eq!(
            a.cloud.report.received_dialog_ids(),
            b.cloud.report.received_dialog_ids()
        );
        // The clipped batcher never pays fewer crossings than the free
        // one (Degraded halves headroom, Critical forces probes).
        assert!(
            b.tz.smc_calls >= a.tz.smc_calls,
            "pressured run used {} SMCs vs {} unpressured",
            b.tz.smc_calls,
            a.tz.smc_calls
        );
        assert_ne!(
            pressured.pressure_state(),
            Some(perisec_telemetry::HealthState::Healthy),
            "the unattainable objective must have tripped the monitor"
        );
        // Pressure without latency_slo is inert: no batcher, no monitor.
        let inert = SecurePipeline::with_models(
            PipelineConfig {
                slo_pressure: Some(perisec_telemetry::SloSpec::p95(
                    "service",
                    SimDuration::from_nanos(1),
                )),
                ..small_config()
            },
            &models,
        )
        .unwrap();
        assert_eq!(inert.pressure_state(), None);
    }

    #[test]
    fn injected_degradation_slows_the_run_deterministically() {
        let models = SharedModels::for_config(&small_config()).unwrap();
        let scenario = Scenario::mixed(8, 0.5, SimDuration::from_secs(1), 86);
        let degrade = DegradeSpec {
            after: SimDuration::from_secs(3),
            per_window: SimDuration::from_millis(10),
        };
        let mut clean = SecurePipeline::with_models(small_config(), &models).unwrap();
        let mut degraded = SecurePipeline::with_models(
            PipelineConfig {
                degrade: Some(degrade),
                ..small_config()
            },
            &models,
        )
        .unwrap();
        let a = clean.run_scenario(&scenario).unwrap();
        let b = degraded.run_scenario(&scenario).unwrap();
        // The fault is an environmental slowdown: privacy outcomes are
        // untouched, virtual time grows.
        assert_eq!(
            a.cloud.report.received_dialog_ids(),
            b.cloud.report.received_dialog_ids()
        );
        assert!(
            b.virtual_time > a.virtual_time,
            "degraded {} vs clean {}",
            b.virtual_time,
            a.virtual_time
        );
        // A far-future onset never fires: byte-identical virtual time.
        let mut dormant = SecurePipeline::with_models(
            PipelineConfig {
                degrade: Some(DegradeSpec {
                    after: SimDuration::from_secs(1_000_000),
                    per_window: SimDuration::from_millis(10),
                }),
                ..small_config()
            },
            &models,
        )
        .unwrap();
        let c = dormant.run_scenario(&scenario).unwrap();
        assert_eq!(c.virtual_time, a.virtual_time);
    }

    #[test]
    fn batched_secure_pipeline_matches_unbatched_outcomes() {
        let models = SharedModels::for_config(&small_config()).unwrap();
        let scenario = Scenario::mixed(8, 0.5, SimDuration::from_secs(2), 82);
        let mut unbatched = SecurePipeline::with_models(small_config(), &models).unwrap();
        let mut batched = SecurePipeline::with_models(
            PipelineConfig {
                batch_windows: 4,
                ..small_config()
            },
            &models,
        )
        .unwrap();
        let a = unbatched.run_scenario(&scenario).unwrap();
        let b = batched.run_scenario(&scenario).unwrap();
        assert_eq!(
            a.cloud.report.received_dialog_ids(),
            b.cloud.report.received_dialog_ids()
        );
        assert_eq!(
            a.cloud.leaked_sensitive_utterances(),
            b.cloud.leaked_sensitive_utterances()
        );
        // 8 utterances in batches of 4: two SMCs instead of eight.
        assert_eq!(b.tz.smc_calls, 2);
        assert!(b.tz.world_switches < a.tz.world_switches);
    }
}
