//! The end-to-end pipelines: the paper's secure design and its baseline.
//!
//! The paper applies one pattern to every peripheral: the driver runs in
//! the TEE, a filter TA classifies what it captures, and only permitted
//! results reach the cloud. [`SecureDevice`] is that pattern, written
//! once. A [`SensorPath`] supplies what differs between sensors: the
//! config and scenario types, the secure cores the device boots, the PTA
//! and filter TA installed on each, and the report a run produces.
//! [`SecurePipeline`] (speech, [`AudioPath`]) and [`SecureCameraPipeline`]
//! (frames, [`CameraPath`]) run on one secure core;
//! [`ShardedVisionPipeline`] ([`ShardedCameraPath`]) fans one camera out
//! across a [`TeePool`] of cores, the scale-out half of the paper's §V
//! mitigations. [`BaselinePipeline`] is the paper's untrusted baseline.
//!
//! Every pipeline is assembled from the staged architecture in
//! [`crate::stage`]: a capture stage, a filter stage and a relay stage
//! chained behind the [`crate::stage::PipelineStage`] trait. Scenario
//! events are driven through the stages in batches of
//! [`PipelineConfig::batch_windows`] events. A secure device has one
//! *lane* per secure core — the core, a session on its filter TA, and
//! that core's capture and filter stages — and a [`SessionScheduler`]
//! places each batch's events on the lanes. Every lane that receives a
//! share crosses the TEE boundary exactly once per batch (one SMC, one
//! world-switch round trip, one batched relay record), which is the
//! transition-amortization lever the related work identifies as the key to
//! production throughput on TrustZone-class hardware.

use std::cell::RefCell;
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
use perisec_ml::plan::FeaturePlan;
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
use perisec_tcb::memory::SecureRamFootprint;
use perisec_telemetry::{DeviceTelemetry, PressureMonitor, SloSpec, TelemetryConfig, Tracer};
use perisec_tz::platform::Platform;
use perisec_tz::power::{Component, ComponentEnergy, EnergyReport};
use perisec_tz::stats::TzStatsSnapshot;
use perisec_tz::time::{SimDuration, SimInstant};
use perisec_workload::corpus::{CorpusGenerator, Utterance};
use perisec_workload::scenario::{CameraScenario, CameraScenarioEvent, Scenario, ScenarioEvent};
use perisec_workload::synth::SpeechSynthesizer;
use perisec_workload::vocab::Vocabulary;

use serde::{Deserialize, Serialize};

use crate::batcher::AdaptiveBatcher;
use crate::executor;
use crate::filter_ta::{
    cmd as filter_cmd, default_cloud_host, default_psk, FilterTa, FilterTaModels, SpeechFilter,
    MAX_BATCH_WINDOWS,
};
use crate::fleet::Modality;
use crate::ingest::{CloudLedger, IngestHook};
use crate::policy::PrivacyPolicy;
use crate::pool::{TeePool, TeePoolConfig};
use crate::report::{CloudOutcome, LatencyBreakdown, PipelineReport, WorkloadSummary};
use crate::scheduler::SessionScheduler;
use crate::source::{SharedPlayback, SharedSceneQueue};
use crate::stage::{
    CloudRelayStage, FilteredBatch, KernelCaptureStage, PassthroughFilterStage, PipelineStage,
    PreparedBatch, SecureCaptureStage, SecureFilterStage, SecureFrameCaptureStage,
    SecureRelayStage,
};
use crate::vision_ta::FrameFilter;
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
            ingest: None,
        }
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

/// Renders every utterance of `corpus` with `synth` and transcribes it
/// with `stt`, returning one `(tokens, sensitive)` example per utterance,
/// in corpus order. This is what the filter TA hands its classifier at
/// run time: the STT's (imperfect) transcription of the rendered
/// waveform, not the clean corpus tokens. An utterance the STT loses
/// entirely keeps its clean tokens, so no label is wasted.
///
/// The utterances are independent, so they run on the fleet executor's
/// pool with one worker per host core; collecting in corpus order makes
/// the result the same at any worker count.
///
/// # Errors
///
/// Returns [`CoreError::Config`] if rendering or transcribing an
/// utterance panics.
pub fn transcribe_corpus(
    synth: &SpeechSynthesizer,
    stt: &KeywordStt,
    corpus: &[Utterance],
) -> Result<Vec<(Vec<usize>, bool)>> {
    transcribe_corpus_on(0, synth, stt, corpus)
}

/// [`transcribe_corpus`] on `workers` pool workers (`0` = one per host
/// core).
fn transcribe_corpus_on(
    workers: usize,
    synth: &SpeechSynthesizer,
    stt: &KeywordStt,
    corpus: &[Utterance],
) -> Result<Vec<(Vec<usize>, bool)>> {
    thread_local! {
        /// A pool worker's STT scratch, reused across the utterances it
        /// takes and freed when the worker exits.
        static PLAN: RefCell<FeaturePlan> = RefCell::default();
    }
    let (examples, _) = executor::run_devices(workers, corpus.len(), |i| {
        let utterance = &corpus[i];
        let audio = synth.render_tokens(&utterance.tokens);
        let decoded =
            PLAN.with_borrow_mut(|plan| stt.transcribe_to_tokens_with(audio.samples(), plan));
        let tokens = if decoded.is_empty() {
            utterance.tokens.clone()
        } else {
            decoded
        };
        Ok((tokens, utterance.sensitive))
    })?;
    Ok(examples)
}

/// Trains the speech models, transcribing the training corpus on
/// `workers` pool workers (`0` = one per host core). The worker count
/// changes only the host time: every token, weight and scale is the same
/// at any count.
fn train_audio_models(
    architecture: Architecture,
    train_utterances: usize,
    corpus_seed: u64,
    workers: usize,
) -> Result<AudioModels> {
    let synth = SpeechSynthesizer::smart_home();
    let vocabulary = synth.vocabulary().clone();
    let stt = KeywordStt::train(&synth.reference_renderings(), SttConfig::default())
        .map_err(CoreError::from)?;
    let mut generator = CorpusGenerator::new(vocabulary.clone(), 0.5, corpus_seed);
    let corpus = generator.generate(train_utterances.max(16));
    // Train the classifier on what it will actually see in the TA.
    // Without this train/serve match, recognition noise pushes neutral
    // utterances across the sensitive threshold and the filter
    // over-drops.
    let examples = transcribe_corpus_on(workers, &synth, &stt, &corpus)?;
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
            0,
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

/// Cursor over one scenario replay: which event the stages have consumed
/// up to, plus the marks the final report counts from. A device run is
/// `begin`, then `step` once per TEE crossing, then `finish`; between
/// steps the caller may observe the device, as a fleet's health monitor
/// does to cut its epochs.
pub struct ScenarioProgress<S: SensorPath> {
    marks: S::Marks,
    next_event: usize,
    relay_backlog: bool,
}

impl<S: SensorPath> std::fmt::Debug for ScenarioProgress<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScenarioProgress")
            .field("next_event", &self.next_event)
            .field("relay_backlog", &self.relay_backlog)
            .finish()
    }
}

impl<S: SensorPath> ScenarioProgress<S> {
    /// Index of the first event the next step will consume.
    pub fn next_event(&self) -> usize {
        self.next_event
    }
}

/// The knobs a [`SecureDevice`] reads off its kind's config: how it sizes
/// TEE crossings, how it places them on its lanes, and any injected
/// degradation. A camera config leaves the adaptive batcher's SLOs
/// `None`, and only a sharded camera steals work.
#[derive(Debug, Clone, Copy)]
pub struct DeviceKnobs {
    /// Events per TEE crossing when no latency SLO drives the batcher.
    pub batch_windows: usize,
    /// See [`PipelineConfig::latency_slo`].
    pub latency_slo: Option<SimDuration>,
    /// See [`PipelineConfig::slo_pressure`].
    pub slo_pressure: Option<SloSpec>,
    /// See [`DegradeSpec`].
    pub degrade: Option<DegradeSpec>,
    /// See [`ShardedCameraConfig::work_stealing`].
    pub work_stealing: bool,
}

/// The per-device fleet planes a config carries: its telemetry
/// switchboard, its link's fault spec and its ingest-plane session.
pub type PlaneFields<'a> = (
    &'a mut TelemetryConfig,
    &'a mut Option<FaultSpec>,
    &'a mut Option<IngestHook>,
);

/// What one kind of [`SecureDevice`] adds to the shared stack: the secure
/// cores it boots, a sensor, the PTA that drives it, the filter TA that
/// classifies what it captures, the config and scenario types that
/// describe them, and the report a run produces. The normal world, the
/// lanes, placement, batching and relay belong to the device and are the
/// same for every kind.
pub trait SensorPath: Sized + 'static {
    /// The device kind's configuration.
    type Config: Clone;
    /// One event of a scenario.
    type Event: Clone;
    /// The scenario a device of this kind replays.
    type Scenario;
    /// The normal-world stage that queues each event on a lane's sensor
    /// input and describes its capture windows.
    type Capture: PipelineStage<Input = Vec<Self::Event>, Output = PreparedBatch>;
    /// What a device keeps of its boot besides its lanes: nothing for a
    /// one-lane kind, the [`TeePool`] for a sharded one.
    type Pool;
    /// What [`SecureDevice::begin_scenario`] records for the report to
    /// count from.
    type Marks;
    /// What a run of this kind reports.
    type Report;

    /// [`PipelineReport::pipeline`] of this kind's reports.
    const PIPELINE: &'static str;
    /// The kind's fleet modality.
    const MODALITY: Modality;
    /// The filter TA the normal world opens its sessions on.
    const TA_NAME: &'static str;

    /// The shared knobs of `config`.
    fn knobs(config: &Self::Config) -> DeviceKnobs;

    /// The plane fields of `config`, which a fleet overwrites for each
    /// device it queues.
    fn planes(config: &mut Self::Config) -> PlaneFields<'_>;

    /// Boots the kind's secure cores, one lane each, in core order, every
    /// core with a supplicant from `supplicant`; returns them with what
    /// the device keeps of the boot. A kind refuses here, before any
    /// model trains, every config field it would otherwise ignore.
    ///
    /// # Errors
    ///
    /// Fails on a refused config field or a pool the SoC cannot host.
    fn boot(
        config: &Self::Config,
        supplicant: impl FnMut() -> Arc<Supplicant>,
    ) -> Result<(Self::Pool, Vec<Arc<TeeCore>>)>;

    /// Registers the sensor's PTA and the filter TA on `core`, configures
    /// and starts the PTA, and returns the capture stage that feeds it.
    ///
    /// # Errors
    ///
    /// Fails if the models cannot be trained or a TEE component cannot be
    /// registered (e.g. the secure carve-out is too small for the model).
    fn install(
        config: &Self::Config,
        models: &SharedModels,
        core: &TeeCore,
    ) -> Result<Self::Capture>;

    /// The weight the lane scheduler gives `event`. The default weighs
    /// every event alike; a one-lane device places everything on its one
    /// lane whatever the weights.
    fn weight(_event: &Self::Event) -> u64 {
        1
    }

    /// The fixed cost the steal pass adds to every event's weight (see
    /// [`window_overhead_frames`]); read only when the knobs turn
    /// `work_stealing` on.
    ///
    /// # Errors
    ///
    /// Fails if the models cannot be trained.
    fn window_overhead(_config: &Self::Config, _models: &SharedModels) -> Result<u64> {
        Ok(0)
    }

    /// Records where a run starts.
    fn mark(device: &SecureDevice<Self>) -> Self::Marks;

    /// Assembles the report of a run that started at `marks`, with the
    /// relay stage's latency breakdown.
    fn report(
        device: &SecureDevice<Self>,
        scenario: &Self::Scenario,
        marks: Self::Marks,
        latency: LatencyBreakdown,
    ) -> Self::Report;

    /// The scenario's name.
    fn scenario_name(scenario: &Self::Scenario) -> &str;

    /// The scenario's events, in order.
    fn events(scenario: &Self::Scenario) -> &[Self::Event];

    /// The ids of the scenario's ground-truth sensitive events.
    fn sensitive_ids(scenario: &Self::Scenario) -> Vec<u64>;
}

/// The speech [`SensorPath`]: an I2S microphone behind the secure
/// driver's PTA, and the filter TA's keyword STT and text classifier.
pub enum AudioPath {}

/// The image [`SensorPath`]: a camera behind the camera PTA, and the
/// vision TA's frame classifier, which relays verdicts and never pixels.
pub enum CameraPath {}

/// The camera [`SensorPath`] sharded across a [`TeePool`]: one lane per
/// secure core, each with its own camera PTA and vision-TA session.
pub enum ShardedCameraPath {}

/// The paper's proposed design for speech: secure I2S driver in the TEE,
/// PTA bridge, in-TA STT and classifier, relay through the supplicant to
/// the cloud.
pub type SecurePipeline = SecureDevice<AudioPath>;

/// The secure camera pipeline: secure camera driver in the TEE, camera
/// PTA bridge, in-TA frame classification, verdict-only relay.
pub type SecureCameraPipeline = SecureDevice<CameraPath>;

/// The secure camera pipeline fanned out across a pool of secure cores.
pub type ShardedVisionPipeline = SecureDevice<ShardedCameraPath>;

/// Boots a one-lane device: one TEE core on a platform with its own
/// secure carve-out, whose high-water mark lands in that platform's own
/// counters.
fn boot_one_core(
    constrained: bool,
    secure_ram_kib: Option<u64>,
    mut supplicant: impl FnMut() -> Arc<Supplicant>,
) -> Result<((), Vec<Arc<TeeCore>>)> {
    let platform = build_platform(constrained, secure_ram_kib);
    Ok(((), vec![TeeCore::boot(platform, supplicant())]))
}

/// A one-lane device's report: its TEE counters count from
/// `begin_scenario`, its clock, energy and cloud bytes from boot.
fn one_lane_report<S: SensorPath>(
    device: &SecureDevice<S>,
    scenario: &S::Scenario,
    stats_before: TzStatsSnapshot,
    latency: LatencyBreakdown,
) -> PipelineReport {
    let platform = device.platform();
    let (workload, cloud) = device.outcome(scenario);
    PipelineReport {
        pipeline: S::PIPELINE.to_owned(),
        workload,
        latency,
        cloud,
        tz: platform.stats().snapshot().delta_since(&stats_before),
        energy: platform.energy_report(),
        virtual_time: platform.clock().now().duration_since(SimInstant::EPOCH),
        bytes_to_cloud: device.fabric.stats().bytes_sent,
    }
}

impl SensorPath for AudioPath {
    type Config = PipelineConfig;
    type Event = ScenarioEvent;
    type Scenario = Scenario;
    type Capture = SecureCaptureStage;
    type Pool = ();
    type Marks = TzStatsSnapshot;
    type Report = PipelineReport;

    const PIPELINE: &'static str = "secure";
    const MODALITY: Modality = Modality::Audio;
    const TA_NAME: &'static str = crate::filter_ta::FILTER_TA_NAME;

    fn knobs(config: &PipelineConfig) -> DeviceKnobs {
        DeviceKnobs {
            batch_windows: config.batch_windows,
            latency_slo: config.latency_slo,
            slo_pressure: config.slo_pressure,
            degrade: config.degrade,
            work_stealing: false,
        }
    }

    fn planes(config: &mut PipelineConfig) -> PlaneFields<'_> {
        (
            &mut config.telemetry,
            &mut config.faults,
            &mut config.ingest,
        )
    }

    fn boot(
        config: &PipelineConfig,
        supplicant: impl FnMut() -> Arc<Supplicant>,
    ) -> Result<((), Vec<Arc<TeeCore>>)> {
        boot_one_core(
            config.constrained_platform,
            config.secure_ram_kib,
            supplicant,
        )
    }

    fn install(
        config: &PipelineConfig,
        models: &SharedModels,
        core: &TeeCore,
    ) -> Result<SecureCaptureStage> {
        let audio = models.audio()?;
        let platform = core.platform();
        let playback = SharedPlayback::new();
        let mic = Microphone::speech_mic("secure-i2s-mic", playback.source())
            .map_err(perisec_kernel::KernelError::from)?;
        let secure_driver = SecureI2sDriver::new(platform.clone(), mic);
        let i2s_pta = core
            .register_pta(Box::new(I2sPta::new(secure_driver)))
            .map_err(CoreError::from)?;
        let speech = SpeechFilter::new(
            FilterTaModels {
                stt: Arc::clone(&audio.stt),
                classifier: Arc::clone(&audio.classifier),
                classifier_int8: match config.quant_mode {
                    QuantMode::Int8 => audio.classifier_int8.clone(),
                    QuantMode::F32 => None,
                },
            },
            config.quant_mode,
            audio.vocabulary.clone(),
            config.encoding,
            config.period_frames,
        );
        let mut filter = FilterTa::new(
            i2s_pta,
            speech,
            config.policy,
            default_cloud_host(),
            default_psk(),
        );
        if config.ingest.is_some() {
            // Plane-routed relay: the TA attests its own measurement
            // before the shard will accept records.
            filter = filter.with_ingest(perisec_relay::measurement_of(Self::TA_NAME));
        }
        core.register_ta(Box::new(filter))
            .map_err(CoreError::from)?;

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
        Ok(SecureCaptureStage::new(
            platform.clone(),
            playback,
            audio.synth.clone(),
            config.period_frames,
        ))
    }

    fn mark(device: &SecurePipeline) -> TzStatsSnapshot {
        device.platform().stats().snapshot()
    }

    fn report(
        device: &SecurePipeline,
        scenario: &Scenario,
        stats_before: TzStatsSnapshot,
        latency: LatencyBreakdown,
    ) -> PipelineReport {
        one_lane_report(device, scenario, stats_before, latency)
    }

    fn scenario_name(scenario: &Scenario) -> &str {
        &scenario.name
    }

    fn events(scenario: &Scenario) -> &[ScenarioEvent] {
        &scenario.events
    }

    fn sensitive_ids(scenario: &Scenario) -> Vec<u64> {
        scenario.sensitive_ids()
    }
}

/// Installs a camera's PTA and vision TA on `core` and returns the
/// capture stage that feeds it. With `shared_weights` the TA's weights
/// are charged to the carve-out once per content key
/// ([`TeeCore::register_ta_shared`]), so co-resident sessions on one
/// shared carve-out pay for one copy.
fn install_camera(
    config: &CameraPipelineConfig,
    models: &SharedModels,
    core: &TeeCore,
    shared_weights: bool,
) -> Result<SecureFrameCaptureStage> {
    let vision = models.vision()?;
    // Every camera reuses the model set's cached int8 form — the
    // "quantize once" half of train-once-quantize-once.
    let vision_int8 = match config.quant_mode {
        QuantMode::Int8 => Some(models.vision_int8()?),
        QuantMode::F32 => None,
    };
    // The weights' content key: sessions holding the same `Arc` share one
    // allocation. In int8 mode the *quantized* bytes are what the sessions
    // keep resident, so they are what a shared reservation charges.
    let shared = shared_weights.then(|| match &vision_int8 {
        Some(int8) => (Arc::as_ptr(int8) as u64, int8.memory_bytes()),
        None => (Arc::as_ptr(&vision) as u64, vision.memory_bytes_f32()),
    });
    let platform = core.platform();
    let scenes = SharedSceneQueue::new();
    let sensor = CameraSensor::smart_home("secure-camera", 0x5EC2)
        .map_err(perisec_kernel::KernelError::from)?;
    let camera_driver = SecureCameraDriver::new(platform.clone(), sensor, scenes.source());
    let camera_pta = core
        .register_pta(Box::new(CameraPta::new(camera_driver)))
        .map_err(CoreError::from)?;
    let mut vision_ta = FilterTa::new(
        camera_pta,
        FrameFilter::new(vision, vision_int8, config.quant_mode),
        config.policy,
        default_cloud_host(),
        default_psk(),
    );
    if config.ingest.is_some() {
        vision_ta = vision_ta.with_ingest(perisec_relay::measurement_of(
            crate::vision_ta::VISION_TA_NAME,
        ));
    }
    let vision_ta = Box::new(vision_ta);
    match shared {
        Some((key, bytes)) => core.register_ta_shared(vision_ta, key, bytes),
        None => core.register_ta(vision_ta),
    }
    .map_err(CoreError::from)?;

    for cmd in [
        perisec_secure_driver::camera_pta::cmd::CONFIGURE,
        perisec_secure_driver::camera_pta::cmd::START,
    ] {
        core.invoke_pta(camera_pta, cmd, &mut TeeParams::new())
            .map_err(CoreError::from)?;
    }
    Ok(SecureFrameCaptureStage::new(platform.clone(), scenes))
}

impl SensorPath for CameraPath {
    type Config = CameraPipelineConfig;
    type Event = CameraScenarioEvent;
    type Scenario = CameraScenario;
    type Capture = SecureFrameCaptureStage;
    type Pool = ();
    type Marks = TzStatsSnapshot;
    type Report = PipelineReport;

    const PIPELINE: &'static str = "secure-camera";
    const MODALITY: Modality = Modality::Camera;
    const TA_NAME: &'static str = crate::vision_ta::VISION_TA_NAME;

    fn knobs(config: &CameraPipelineConfig) -> DeviceKnobs {
        DeviceKnobs {
            batch_windows: config.batch_windows,
            latency_slo: None,
            slo_pressure: None,
            degrade: config.degrade,
            work_stealing: false,
        }
    }

    fn planes(config: &mut CameraPipelineConfig) -> PlaneFields<'_> {
        (
            &mut config.telemetry,
            &mut config.faults,
            &mut config.ingest,
        )
    }

    fn boot(
        config: &CameraPipelineConfig,
        supplicant: impl FnMut() -> Arc<Supplicant>,
    ) -> Result<((), Vec<Arc<TeeCore>>)> {
        boot_one_core(
            config.constrained_platform,
            config.secure_ram_kib,
            supplicant,
        )
    }

    fn install(
        config: &CameraPipelineConfig,
        models: &SharedModels,
        core: &TeeCore,
    ) -> Result<SecureFrameCaptureStage> {
        install_camera(config, models, core, false)
    }

    fn mark(device: &SecureCameraPipeline) -> TzStatsSnapshot {
        device.platform().stats().snapshot()
    }

    fn report(
        device: &SecureCameraPipeline,
        scenario: &CameraScenario,
        stats_before: TzStatsSnapshot,
        latency: LatencyBreakdown,
    ) -> PipelineReport {
        one_lane_report(device, scenario, stats_before, latency)
    }

    fn scenario_name(scenario: &CameraScenario) -> &str {
        &scenario.name
    }

    fn events(scenario: &CameraScenario) -> &[CameraScenarioEvent] {
        &scenario.events
    }

    fn sensitive_ids(scenario: &CameraScenario) -> Vec<u64> {
        scenario.sensitive_ids()
    }
}

/// The per-window fixed cost — the window's amortized share of one TEE
/// crossing plus dispatch — expressed in frame-equivalents of
/// secure-world inference time. This is the weight correction the steal
/// pass applies so that very small window shares stop looking free: when
/// windows shrink towards a single frame (or the model towards a few
/// MACs), the crossing share dwarfs the inference and a frames-only
/// weight misjudges every steal. The crossing is paid once per batch of
/// `batch_windows` windows, so each window carries `crossing / batch`; a
/// pure function of the cost model, the classifier's MAC count and the
/// batch size.
pub fn window_overhead_frames(
    cost: &perisec_tz::cost::CostModel,
    frame_flops: u64,
    batch_windows: usize,
) -> u64 {
    let crossing = AdaptiveBatcher::crossing_overhead(cost).as_nanos() as f64;
    let per_window = crossing / batch_windows.max(1) as f64;
    let frame_ns =
        cost.compute_per_flop.as_nanos() as f64 * cost.secure_compute_penalty * frame_flops as f64;
    if frame_ns <= 0.0 {
        return 0;
    }
    (per_window / frame_ns).round() as u64
}

/// Configuration of a camera sharded across a pool of secure cores.
#[derive(Debug, Clone)]
pub struct ShardedCameraConfig {
    /// Per-shard camera pipeline parameters (policy, training spec, and
    /// the *fixed* batch size when no SLO is given). A sharded camera
    /// refuses `ingest`, `degrade`, an enabled `telemetry`,
    /// `constrained_platform` and `secure_ram_kib`: its lanes share no
    /// ingest session, degradation schedule or tracer clock, and its
    /// platform comes from [`ShardedCameraConfig::pool`] alone.
    pub camera: CameraPipelineConfig,
    /// The secure-core pool to shard across.
    pub pool: TeePoolConfig,
    /// Charge the shared frame-classifier weights to the carve-out once
    /// (`true`) or once per co-resident session (`false`, the ablation
    /// E14 measures against).
    pub dedup_models: bool,
    /// When set, an [`AdaptiveBatcher`] picks each crossing's batch size
    /// from queue depth against this per-window latency SLO instead of
    /// using the fixed `camera.batch_windows`.
    pub latency_slo: Option<SimDuration>,
    /// Close the observability loop on the sharded batcher too: when set
    /// (and `latency_slo` is — the spec is inert without a batcher), a
    /// [`PressureMonitor`] watches each crossing's per-window share of
    /// the *whole* fanned filter step and feeds its
    /// Healthy/Degraded/Critical verdict into the batcher, which clips
    /// its curve under pressure. This catches cost the batcher's own
    /// EWMA over TA-internal times misses (relay stalls, steal-pass
    /// imbalance across cores).
    pub slo_pressure: Option<SloSpec>,
    /// Let an idle session steal queued windows from a backlogged sibling
    /// (the scheduler's deterministic rebalance pass — see
    /// [`crate::scheduler::SessionScheduler::assign_with_stealing`]).
    /// Off by default: placement is then the greedy least-loaded rule
    /// alone.
    pub work_stealing: bool,
}

impl Default for ShardedCameraConfig {
    fn default() -> Self {
        ShardedCameraConfig {
            camera: CameraPipelineConfig::default(),
            pool: TeePoolConfig::default(),
            dedup_models: true,
            latency_slo: None,
            slo_pressure: None,
            work_stealing: false,
        }
    }
}

/// Per-core accounting of one sharded run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CoreUtilization {
    /// Core index within the pool.
    pub core: usize,
    /// Virtual time the core spent on the run (run-relative; setup is
    /// excluded).
    pub virtual_time: SimDuration,
    /// World switches the core performed during the run.
    pub world_switches: u64,
    /// SMCs the core served during the run.
    pub smc_calls: u64,
    /// Secure-world CPU busy time the run charged to the core.
    pub secure_busy: SimDuration,
    /// Secure busy time over the core's run time (0 when idle).
    pub utilization: f64,
}

/// The report of one sharded run: the familiar [`PipelineReport`] (with
/// pool-aggregated TEE counters; virtual time, energy and cloud bytes
/// are all **run-relative** — setup and earlier runs on the same
/// pipeline are excluded) plus the scheduler-specific extras E14 prints.
#[derive(Debug, Clone)]
pub struct ShardedRunReport {
    /// The merged pipeline report.
    pub report: PipelineReport,
    /// Per-core utilization, in core order.
    pub per_core: Vec<CoreUtilization>,
    /// The shared carve-out at the end of the run, dedup counters
    /// included.
    pub secure_ram: SecureRamFootprint,
    /// Windows moved by the scheduler's steal pass during the run (zero
    /// unless [`ShardedCameraConfig::work_stealing`] is on).
    pub stolen_windows: u64,
}

impl ShardedRunReport {
    /// Whether the device kept up with the stream: its slowest core
    /// finished within `deadline` of virtual time. Callers derive the
    /// deadline from the scenario (duration plus one event period of
    /// grace) — the frame budget of E14.
    pub fn kept_up(&self, deadline: SimDuration) -> bool {
        self.report.virtual_time <= deadline
    }
}

/// Where a sharded run starts: every core's counters, clock and energy
/// meter, and the device's cloud bytes and stolen windows so far. A
/// sharded report counts everything from here, so neither setup nor an
/// earlier run on the same device blurs the frame-budget question.
#[derive(Debug)]
pub struct ShardedRunStart {
    stats: Vec<TzStatsSnapshot>,
    clocks: Vec<(SimInstant, EnergyReport)>,
    bytes_sent: u64,
    stolen_windows: u64,
}

impl SensorPath for ShardedCameraPath {
    type Config = ShardedCameraConfig;
    type Event = CameraScenarioEvent;
    type Scenario = CameraScenario;
    type Capture = SecureFrameCaptureStage;
    type Pool = TeePool;
    type Marks = ShardedRunStart;
    type Report = ShardedRunReport;

    const PIPELINE: &'static str = "secure-camera-sharded";
    const MODALITY: Modality = Modality::Camera;
    const TA_NAME: &'static str = crate::vision_ta::VISION_TA_NAME;

    fn knobs(config: &ShardedCameraConfig) -> DeviceKnobs {
        DeviceKnobs {
            batch_windows: config.camera.batch_windows,
            latency_slo: config.latency_slo,
            slo_pressure: config.slo_pressure,
            degrade: config.camera.degrade,
            work_stealing: config.work_stealing,
        }
    }

    fn planes(config: &mut ShardedCameraConfig) -> PlaneFields<'_> {
        CameraPath::planes(&mut config.camera)
    }

    fn boot(
        config: &ShardedCameraConfig,
        mut supplicant: impl FnMut() -> Arc<Supplicant>,
    ) -> Result<(TeePool, Vec<Arc<TeeCore>>)> {
        let camera = &config.camera;
        let refused = [
            ("camera.ingest", camera.ingest.is_some()),
            ("camera.degrade", camera.degrade.is_some()),
            ("camera.telemetry", camera.telemetry.enabled),
            ("camera.constrained_platform", camera.constrained_platform),
            ("camera.secure_ram_kib", camera.secure_ram_kib.is_some()),
        ];
        if let Some((field, _)) = refused.iter().find(|(_, set)| *set) {
            return Err(CoreError::Config {
                reason: format!(
                    "a sharded camera does not support {field}: its lanes share no \
                     ingest session, degradation schedule or tracer clock, and its \
                     platform comes from ShardedCameraConfig::pool"
                ),
            });
        }
        let pool = TeePool::boot(&config.pool, |_| supplicant())?;
        let cores = pool.cores().iter().map(|c| Arc::clone(c.core())).collect();
        Ok((pool, cores))
    }

    fn install(
        config: &ShardedCameraConfig,
        models: &SharedModels,
        core: &TeeCore,
    ) -> Result<SecureFrameCaptureStage> {
        install_camera(&config.camera, models, core, config.dedup_models)
    }

    fn weight(event: &CameraScenarioEvent) -> u64 {
        event.frames.max(1) as u64
    }

    fn window_overhead(config: &ShardedCameraConfig, models: &SharedModels) -> Result<u64> {
        Ok(window_overhead_frames(
            &config.pool.cost,
            models.vision()?.flops_per_inference(),
            config.camera.batch_windows,
        ))
    }

    fn mark(device: &ShardedVisionPipeline) -> ShardedRunStart {
        ShardedRunStart {
            stats: device.pool.snapshots(),
            clocks: device
                .pool
                .cores()
                .iter()
                .map(|c| (c.platform().clock().now(), c.platform().energy_report()))
                .collect(),
            bytes_sent: device.fabric.stats().bytes_sent,
            stolen_windows: device.stolen_windows,
        }
    }

    fn report(
        device: &ShardedVisionPipeline,
        scenario: &CameraScenario,
        start: ShardedRunStart,
        latency: LatencyBreakdown,
    ) -> ShardedRunReport {
        let pool = &device.pool;
        let tz = pool.aggregate_delta(&start.stats);
        let mut per_core = Vec::with_capacity(pool.len());
        let mut energies = Vec::with_capacity(pool.len());
        let mut run_clock = SimDuration::ZERO;
        for (core, (handle, earlier)) in pool.cores().iter().zip(&start.stats).enumerate() {
            let platform = handle.platform();
            let counters = platform.stats().snapshot().delta_since(earlier);
            let (started, energy_before) = &start.clocks[core];
            let energy = diff_energy(&platform.energy_report(), energy_before);
            let elapsed = platform.clock().elapsed_since(*started);
            run_clock = run_clock.max(elapsed);
            let secure_busy = energy
                .per_component
                .get(&Component::CpuSecureWorld)
                .map(|c| c.busy)
                .unwrap_or(SimDuration::ZERO);
            let utilization = if elapsed.is_zero() {
                0.0
            } else {
                secure_busy.as_secs_f64() / elapsed.as_secs_f64()
            };
            per_core.push(CoreUtilization {
                core,
                virtual_time: elapsed,
                world_switches: counters.world_switches,
                smc_calls: counters.smc_calls,
                secure_busy,
                utilization,
            });
            energies.push(energy);
        }
        let (workload, cloud) = device.outcome(scenario);
        ShardedRunReport {
            report: PipelineReport {
                pipeline: Self::PIPELINE.to_owned(),
                workload,
                latency,
                cloud,
                tz,
                energy: merge_energy(energies),
                // Cores run concurrently: the run took as long as its
                // slowest core.
                virtual_time: run_clock,
                bytes_to_cloud: device.fabric.stats().bytes_sent - start.bytes_sent,
            },
            per_core,
            secure_ram: SecureRamFootprint::measure(pool.secure_ram()),
            stolen_windows: device.stolen_windows - start.stolen_windows,
        }
    }

    fn scenario_name(scenario: &CameraScenario) -> &str {
        &scenario.name
    }

    fn events(scenario: &CameraScenario) -> &[CameraScenarioEvent] {
        &scenario.events
    }

    fn sensitive_ids(scenario: &CameraScenario) -> Vec<u64> {
        scenario.sensitive_ids()
    }
}

/// Energy accrued between two reports of one core's meter: window, busy
/// time and energy all subtract (floats clamped at zero against rounding
/// noise), so a run's energy covers the run — not setup, not earlier
/// runs on the same device.
fn diff_energy(after: &EnergyReport, before: &EnergyReport) -> EnergyReport {
    let mut per_component = std::collections::BTreeMap::new();
    for (component, late) in &after.per_component {
        let early = before.per_component.get(component);
        per_component.insert(
            *component,
            ComponentEnergy {
                busy: late.busy - early.map(|e| e.busy).unwrap_or(SimDuration::ZERO),
                energy_mj: (late.energy_mj - early.map(|e| e.energy_mj).unwrap_or(0.0)).max(0.0),
            },
        );
    }
    EnergyReport {
        window: after.window - before.window,
        total_mj: (after.total_mj - before.total_mj).max(0.0),
        per_component,
    }
}

/// Merges per-core energy reports, in core order: cores draw power
/// concurrently, so the observation window is the longest core's, while
/// busy time and energy add up.
fn merge_energy(reports: Vec<EnergyReport>) -> EnergyReport {
    let mut merged = EnergyReport {
        window: SimDuration::ZERO,
        total_mj: 0.0,
        per_component: std::collections::BTreeMap::new(),
    };
    for report in reports {
        merged.window = merged.window.max(report.window);
        merged.total_mj += report.total_mj;
        for (component, energy) in report.per_component {
            let entry = merged
                .per_component
                .entry(component)
                .or_insert(ComponentEnergy {
                    busy: SimDuration::ZERO,
                    energy_mj: 0.0,
                });
            entry.busy += energy.busy;
            entry.energy_mj += energy.energy_mj;
        }
    }
    merged
}

/// One secure core of a device — a *lane*: the TEE core (and with it
/// the core's platform), the normal world's session on the core's filter
/// TA, and the capture and filter stages that feed and drive it.
struct Lane<C> {
    core: Arc<TeeCore>,
    client: TeeClient,
    session: TeeSessionHandle,
    capture: C,
    filter: SecureFilterStage,
}

/// One secure device: a normal world (network fabric, supplicants, cloud
/// endpoint) and one or more secure cores, each a lane with the sensor
/// path `S` installed in it, driven as capture → filter → relay stages.
///
/// Every batch of events crosses the TEE boundary once per lane that
/// received a share of it: one SMC, one world-switch round trip and one
/// batched relay record. Audio and camera devices have one lane; a
/// sharded camera has one per core of its pool, and its lanes' clocks
/// run concurrently.
pub struct SecureDevice<S: SensorPath> {
    knobs: DeviceKnobs,
    pool: S::Pool,
    lanes: Vec<Lane<S::Capture>>,
    scheduler: SessionScheduler,
    stolen_windows: u64,
    ledger: CloudLedger,
    fabric: NetworkFabric,
    relay: SecureRelayStage,
    batcher: Option<AdaptiveBatcher>,
    pressure: Option<PressureMonitor>,
    tracer: Tracer,
}

impl<S: SensorPath> std::fmt::Debug for SecureDevice<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SecureDevice")
            .field("pipeline", &S::PIPELINE)
            .field("lanes", &self.lanes.len())
            .field("knobs", &self.knobs)
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
        SecureDevice::with_models(config, &models)
    }
}

impl SecureCameraPipeline {
    /// Builds the full secure camera stack around a frame classifier
    /// trained on the config's `train_frames` and `corpus_seed`.
    ///
    /// # Errors
    ///
    /// Fails if the frame classifier cannot be trained or a TEE component
    /// cannot be registered.
    pub fn new(config: CameraPipelineConfig) -> Result<Self> {
        let models = SharedModels::deferred_for_config(&PipelineConfig::default())
            .with_vision_spec(config.train_frames, config.corpus_seed);
        SecureDevice::with_models(config, &models)
    }
}

impl ShardedVisionPipeline {
    /// Builds the sharded camera stack around a frame classifier trained
    /// on the camera config's `train_frames` and `corpus_seed`.
    ///
    /// # Errors
    ///
    /// Fails on a refused camera field, a degenerate pool, an untrainable
    /// classifier or a TEE component that cannot be registered.
    pub fn new(config: ShardedCameraConfig) -> Result<Self> {
        let models = SharedModels::deferred(Architecture::Cnn, 16, config.camera.corpus_seed)
            .with_vision_spec(config.camera.train_frames, config.camera.corpus_seed);
        SecureDevice::with_models(config, &models)
    }

    /// The secure-core pool.
    pub fn pool(&self) -> &TeePool {
        &self.pool
    }
}

impl<S: SensorPath> SecureDevice<S> {
    /// Builds the device stack around an existing model set — the fleet
    /// path: the models are shared by reference, not retrained. A camera's
    /// frame classifier trains inside the model set on first camera use,
    /// with the **model set's** vision spec (see
    /// [`SharedModels::with_vision_spec`]); a camera config's
    /// `train_frames` / `corpus_seed` only govern
    /// [`SecureCameraPipeline::new`] and [`ShardedVisionPipeline::new`].
    ///
    /// # Errors
    ///
    /// Fails on a config field the kind refuses, if the models cannot be
    /// trained, or if a TEE component cannot be registered (e.g. the
    /// secure carve-out is too small for the model).
    pub fn with_models(mut config: S::Config, models: &SharedModels) -> Result<Self> {
        let knobs = S::knobs(&config);
        let (telemetry, faults, ingest) = S::planes(&mut config);
        let (telemetry, ingest) = (*telemetry, ingest.clone());

        // Normal world: one network fabric, reached from every core
        // through its own supplicant. Every core boots before any is
        // installed on, and installs run in core order, so allocations
        // on a shared carve-out always land in the same order.
        let fabric = NetworkFabric::new().with_faults(*faults);
        let (pool, cores) = S::boot(&config, || {
            let supplicant = Arc::new(Supplicant::new());
            supplicant.set_net_backend(Arc::new(fabric.clone()));
            supplicant
        })?;
        let first = cores[0].platform();

        // A config routed through a sharded ingest plane registers the
        // plane's session endpoint under the cloud hostname instead of a
        // local mock cloud, so the TA dials the same host either way.
        let ledger = match ingest {
            Some(hook) => {
                fabric
                    .register_service(MockCloudService::HOST, hook.endpoint(first.clock().clone()));
                CloudLedger::Plane(hook)
            }
            None => {
                let cloud = MockCloudService::new(default_psk());
                fabric.register_service(MockCloudService::HOST, cloud.clone());
                CloudLedger::Direct(cloud)
            }
        };
        // One tracer over the first core's clock is shared by the stages
        // (below) and every core's TEE and TAs (via set_tracer).
        let tracer = Tracer::new(first.clock().clone(), &telemetry);
        let batcher = knobs
            .latency_slo
            .map(|slo| AdaptiveBatcher::new(first.cost(), slo, MAX_BATCH_WINDOWS));
        // Pressure without a batcher has nothing to act on; build the
        // monitor only when both knobs are set.
        let pressure = match (&batcher, knobs.slo_pressure) {
            (Some(_), Some(spec)) => Some(PressureMonitor::for_spec(spec)),
            _ => None,
        };

        let mut lanes = Vec::with_capacity(cores.len());
        for core in cores {
            core.set_tracer(tracer.clone());
            let capture = S::install(&config, models, &core)?;
            let client = TeeClient::connect(Arc::clone(&core));
            let (session, _) = client
                .open_session(TaUuid::from_name(S::TA_NAME), TeeParams::new())
                .map_err(CoreError::from)?;
            let filter = SecureFilterStage::new(core.platform().clone(), client.clone(), session);
            lanes.push(Lane {
                core,
                client,
                session,
                capture,
                filter,
            });
        }
        // Only the steal pass adds the per-window fixed cost to an
        // event's weight; greedy placement weighs events alone.
        let overhead = if knobs.work_stealing {
            S::window_overhead(&config, models)?
        } else {
            0
        };

        Ok(SecureDevice {
            knobs,
            pool,
            scheduler: SessionScheduler::with_window_overhead(lanes.len(), overhead),
            lanes,
            stolen_windows: 0,
            ledger,
            fabric,
            relay: SecureRelayStage::new(),
            batcher,
            pressure,
            tracer,
        })
    }

    /// The device's telemetry tracer — disabled (recording nothing)
    /// unless the config's `telemetry` enabled it.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Drains the telemetry accumulated so far — per-span histograms and
    /// counters, plus the retained span events when span capture is on.
    /// The fleet harness calls this once per completed device.
    pub fn take_telemetry(&self) -> DeviceTelemetry {
        self.tracer.take()
    }

    /// The first lane's simulated platform — a one-lane device's only one
    /// (for inspecting stats and energy directly).
    pub fn platform(&self) -> &Platform {
        self.lanes[0].core.platform()
    }

    /// The first lane's TEE core (for footprint reports).
    pub fn tee_core(&self) -> &Arc<TeeCore> {
        &self.lanes[0].core
    }

    /// The device's virtual "now": its lanes run concurrently, so this is
    /// the latest of their clocks.
    pub(crate) fn now(&self) -> SimInstant {
        self.lanes
            .iter()
            .map(|lane| lane.core.platform().clock().now())
            .max()
            .unwrap_or(SimInstant::EPOCH)
    }

    /// The pressure monitor's current verdict, when the config wired one
    /// (`slo_pressure` alongside `latency_slo`).
    pub fn pressure_state(&self) -> Option<perisec_telemetry::HealthState> {
        self.pressure.as_ref().map(PressureMonitor::state)
    }

    /// Installs a new privacy policy in every lane's filter TA.
    ///
    /// # Errors
    ///
    /// Propagates the first failing TEE invocation.
    pub fn set_policy(&mut self, policy: PrivacyPolicy) -> Result<()> {
        let (mode, threshold) = policy.to_values();
        for lane in &self.lanes {
            let params = TeeParams::new().with(
                0,
                TeeParam::ValueInput {
                    a: mode,
                    b: threshold,
                },
            );
            lane.client
                .invoke(&lane.session, filter_cmd::SET_POLICY, params)
                .map_err(CoreError::from)?;
        }
        Ok(())
    }

    /// Starts a resumable scenario replay (see
    /// [`SecureDevice::step_scenario`]): resets the cloud ledger and
    /// records the marks the final report counts from.
    pub fn begin_scenario(&mut self) -> ScenarioProgress<S> {
        self.ledger.reset();
        ScenarioProgress {
            marks: S::mark(self),
            next_event: 0,
            relay_backlog: false,
        }
    }

    /// Drives **one** batch of the scenario through the capture → filter
    /// → relay stages and advances the cursor; the batch size is the
    /// fixed `batch_windows` unless the config carries a latency SLO, in
    /// which case the adaptive batcher picks it from the remaining queue
    /// depth. The batch's events are placed on the lanes, and each lane
    /// that received a share crosses into its TEE core once. Returns
    /// whether events remain. A fleet device calls it in a loop until it
    /// returns `false`, and its health monitor cuts epochs at each return.
    ///
    /// # Errors
    ///
    /// Propagates TEE and relay failures.
    pub fn step_scenario(
        &mut self,
        scenario: &S::Scenario,
        progress: &mut ScenarioProgress<S>,
    ) -> Result<bool> {
        let events = S::events(scenario);
        if progress.next_event >= events.len() {
            return Ok(false);
        }
        let depth = events.len() - progress.next_event;
        let batch = match &self.batcher {
            Some(batcher) => batcher.pick_batch(depth),
            None => self.knobs.batch_windows.max(1),
        }
        .min(depth);
        self.tracer.count("pipeline.windows", batch as u64);
        let shares = self.place(&events[progress.next_event..progress.next_event + batch]);
        // Each stage runs under a span named after it; the filter stage's
        // span encloses the TEE crossings (smc.call, TA inference,
        // tee.rpc), so a chrome-trace dump shows the full nesting. Every
        // lane's capture stage runs, even on an empty share: it clears
        // the lane's sensor queue and stamps the lane's own clock.
        let prepared = {
            let _span = self.tracer.span(self.lanes[0].capture.name());
            let mut prepared = Vec::with_capacity(shares.len());
            for (lane, share) in self.lanes.iter_mut().zip(shares) {
                prepared.push(lane.capture.process(share)?);
            }
            prepared
        };
        let filter_start = self.now();
        let filtered = {
            let _span = self.tracer.span(self.lanes[0].filter.name());
            let mut merged = FilteredBatch::default();
            for (lane, share) in self.lanes.iter_mut().zip(prepared) {
                let windows = share.windows.len() as u64;
                let filtered = lane.filter.process(share)?;
                // Injected degradation lands inside the filter span, so
                // the slowdown shows exactly where the health plane's SLO
                // watches.
                if let Some(spec) = self.knobs.degrade {
                    let clock = lane.core.platform().clock();
                    if clock.now().duration_since(SimInstant::EPOCH) >= spec.after {
                        clock.advance(spec.per_window * windows);
                    }
                }
                merged.verdicts.extend(filtered.verdicts);
                merged.wire += filtered.wire;
                merged.capture_cpu += filtered.capture_cpu;
                merged.ml += filtered.ml;
                merged.relay += filtered.relay;
                merged.retries += filtered.retries;
                merged.backlog += filtered.backlog;
                merged.per_utterance.extend(filtered.per_utterance);
            }
            merged
        };
        let filter_end = self.now();
        if let Some(batcher) = &mut self.batcher {
            if !filtered.per_utterance.is_empty() {
                let mean = filtered.per_utterance.iter().copied().sum::<SimDuration>()
                    / filtered.per_utterance.len() as u64;
                batcher.observe(mean);
            }
            // The pressure monitor judges the per-window share of the whole
            // crossing, slowest lane to slowest lane (TA service, any
            // degradation, and any imbalance across lanes), then its
            // verdict clips the next pick — the observability→control loop.
            if let Some(pressure) = &mut self.pressure {
                pressure.observe(filter_end.duration_since(filter_start) / batch as u64);
                batcher.set_pressure(pressure.advance(filter_end));
            }
            // Relay backlog overrides any SLO verdict: a TA's bounded
            // unacked buffer is backing up, so fall to single-window probes
            // until the network drains it.
            if filtered.backlog > 0 {
                batcher.set_pressure(perisec_telemetry::HealthState::Critical);
            }
        }
        progress.relay_backlog = filtered.backlog > 0;
        {
            let _span = self.tracer.span(self.relay.name());
            self.relay.process(filtered)?;
        }
        progress.next_event += batch;
        let more = progress.next_event < events.len();
        if !more && progress.relay_backlog {
            // The scenario ended with unacked records still buffered in a
            // TA: a blocking drain on every lane retires them, so the
            // report never misses a verdict the network delayed. Skipped
            // on a clean finish — the healthy path pays no extra crossing.
            for lane in &mut self.lanes {
                lane.filter.drain_relay()?;
            }
            progress.relay_backlog = false;
        }
        Ok(more)
    }

    /// Places a batch's events on the lanes with the scheduler's
    /// least-loaded rule by event weight, then its steal pass when the
    /// knobs turn `work_stealing` on; returns each lane's share, in lane
    /// order. A one-lane device places everything on lane 0.
    fn place(&mut self, events: &[S::Event]) -> Vec<Vec<S::Event>> {
        let weights: Vec<u64> = events.iter().map(S::weight).collect();
        let placement = if self.knobs.work_stealing {
            let (placement, steals) = self.scheduler.assign_with_stealing(&weights);
            self.stolen_windows += steals.len() as u64;
            placement
        } else {
            self.scheduler.assign(&weights)
        };
        let mut shares = vec![Vec::new(); self.lanes.len()];
        for (event, lane) in events.iter().zip(placement) {
            shares[lane].push(event.clone());
        }
        shares
    }

    /// Assembles the report of a stepped-to-completion scenario replay. A
    /// camera's report counts scene events as the workload's
    /// "utterances".
    pub fn finish_scenario(
        &mut self,
        scenario: &S::Scenario,
        progress: ScenarioProgress<S>,
    ) -> S::Report {
        let latency = self.relay.take_breakdown();
        S::report(self, scenario, progress.marks, latency)
    }

    /// Replays a scenario end to end — batch by batch through the
    /// capture → filter → relay stages — and reports on it.
    ///
    /// # Errors
    ///
    /// Propagates TEE and relay failures.
    pub fn run_scenario(&mut self, scenario: &S::Scenario) -> Result<S::Report> {
        let mut progress = self.begin_scenario();
        while self.step_scenario(scenario, &mut progress)? {}
        Ok(self.finish_scenario(scenario, progress))
    }

    /// What every kind's report says about the workload and the cloud.
    fn outcome(&self, scenario: &S::Scenario) -> (WorkloadSummary, CloudOutcome) {
        let sensitive_ids = S::sensitive_ids(scenario);
        (
            WorkloadSummary {
                utterances: S::events(scenario).len(),
                sensitive_utterances: sensitive_ids.len(),
            },
            CloudOutcome {
                report: self.ledger.report(),
                sensitive_ids,
            },
        )
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
        let platform = build_platform(config.constrained_platform, config.secure_ram_kib);
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
        );
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

    /// Replays a scenario: every utterance is captured by the in-kernel
    /// driver and forwarded to the cloud without any filtering.
    ///
    /// # Errors
    ///
    /// Propagates kernel and relay failures.
    pub fn run_scenario(&mut self, scenario: &Scenario) -> Result<PipelineReport> {
        self.cloud.reset();
        let stats_before = self.platform.stats().snapshot();
        let batch = self.config.batch_windows.max(1);
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

    /// The serial set-up, the oracle of the pooled one: the same training
    /// steps, with every utterance rendered and transcribed on the
    /// allocating STT path, in corpus order, on the calling thread.
    fn serial_audio_models(
        architecture: Architecture,
        train_utterances: usize,
        corpus_seed: u64,
    ) -> AudioModels {
        let synth = SpeechSynthesizer::smart_home();
        let vocabulary = synth.vocabulary().clone();
        let stt = KeywordStt::train(&synth.reference_renderings(), SttConfig::default()).unwrap();
        let mut generator = CorpusGenerator::new(vocabulary.clone(), 0.5, corpus_seed);
        let examples: Vec<(Vec<usize>, bool)> = generator
            .generate(train_utterances.max(16))
            .into_iter()
            .map(|utterance| {
                let audio = synth.render_tokens(&utterance.tokens);
                let decoded = stt.transcribe_to_tokens(audio.samples());
                if decoded.is_empty() {
                    (utterance.tokens, utterance.sensitive)
                } else {
                    (decoded, utterance.sensitive)
                }
            })
            .collect();
        let mut classifier =
            SensitiveClassifier::new(architecture, TrainConfig::small(vocabulary.len()));
        classifier.fit(&examples).unwrap();
        let classifier_int8 = QuantSensitiveClassifier::from_trained(&classifier).map(Arc::new);
        AudioModels {
            stt: Arc::new(stt),
            classifier: Arc::new(classifier),
            classifier_int8,
            vocabulary,
            synth,
        }
    }

    #[test]
    fn an_utterance_the_stt_loses_keeps_its_clean_tokens() {
        // A similarity floor above any cosine: the STT recognizes nothing.
        let synth = SpeechSynthesizer::smart_home();
        let deaf = SttConfig {
            confidence_floor: 2.0,
            ..SttConfig::default()
        };
        let stt = KeywordStt::train(&synth.reference_renderings(), deaf).unwrap();
        let corpus = CorpusGenerator::new(synth.vocabulary().clone(), 0.5, 0x105E).generate(4);
        assert_eq!(
            transcribe_corpus(&synth, &stt, &corpus).unwrap(),
            perisec_workload::corpus::to_training_examples(&corpus)
        );
    }

    #[test]
    fn audio_setup_matches_the_serial_oracle_at_every_worker_count() {
        let (utterances, seed) = (24, 0x5E7);
        let oracle = serial_audio_models(Architecture::Cnn, utterances, seed);
        assert!(oracle.classifier_int8.is_some(), "a CNN quantizes");
        let json = |classifier: &SensitiveClassifier| serde_json::to_string(classifier).unwrap();
        let probe = CorpusGenerator::new(oracle.vocabulary.clone(), 0.5, seed ^ 1).generate(1);
        let probe = oracle.synth.render_tokens(&probe[0].tokens);
        let probe_tokens = oracle.stt.transcribe_to_tokens(probe.samples());
        assert!(!probe_tokens.is_empty());
        for workers in [1, 2, 8] {
            let models = train_audio_models(Architecture::Cnn, utterances, seed, workers).unwrap();
            assert_eq!(models.classifier, oracle.classifier, "{workers} workers");
            assert_eq!(
                json(&models.classifier),
                json(&oracle.classifier),
                "{workers} workers"
            );
            assert_eq!(
                models.classifier_int8, oracle.classifier_int8,
                "{workers} workers"
            );
            assert_eq!(
                models.stt.transcribe_to_tokens(probe.samples()),
                probe_tokens,
                "{workers} workers"
            );
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

    /// A filter TA's `GET_STATS` counters.
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
        assert_unbounded_batches_are_refused(&probed.lanes[0].client, &probed.lanes[0].session);
        // Nothing was processed for the refused batches.
        assert_eq!(
            ta_stats(&probed.lanes[0].client, &probed.lanes[0].session),
            [(0, 0); 2]
        );
        let a = fresh.run_scenario(&scenario).unwrap();
        let b = probed.run_scenario(&scenario).unwrap();
        assert!(!b.cloud.report.events.is_empty());
        assert_eq!(a.cloud.report.events, b.cloud.report.events);
        assert_eq!(
            ta_stats(&fresh.lanes[0].client, &fresh.lanes[0].session),
            ta_stats(&probed.lanes[0].client, &probed.lanes[0].session)
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
        assert_unbounded_batches_are_refused(&probed.lanes[0].client, &probed.lanes[0].session);
        assert_eq!(
            ta_stats(&probed.lanes[0].client, &probed.lanes[0].session),
            [(0, 0); 2]
        );
        let a = fresh.run_scenario(&scenario).unwrap();
        let b = probed.run_scenario(&scenario).unwrap();
        assert!(!b.cloud.report.events.is_empty());
        assert_eq!(a.cloud.report.events, b.cloud.report.events);
        assert_eq!(
            ta_stats(&fresh.lanes[0].client, &fresh.lanes[0].session),
            ta_stats(&probed.lanes[0].client, &probed.lanes[0].session)
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

    #[test]
    fn window_overhead_derivation_scales_with_model_and_batch() {
        let cost = perisec_tz::cost::CostModel::iot_quad_node();
        // A tiny model at batch 1: the crossing dwarfs per-frame
        // inference and the fixed cost dominates the weight.
        assert!(window_overhead_frames(&cost, 100, 1) > 10);
        // The production frame CNN at batch >= 4: the amortized crossing
        // share stays below one frame-equivalent, so frames-only
        // placements are unchanged.
        assert_eq!(window_overhead_frames(&cost, 12_000, 4), 0);
        // Bigger batches amortize the crossing further.
        assert!(window_overhead_frames(&cost, 100, 8) < window_overhead_frames(&cost, 100, 1));
        // A free cost model degenerates to frames-only weighting.
        assert_eq!(
            window_overhead_frames(&perisec_tz::cost::CostModel::free(), 100, 1),
            0
        );
    }

    fn small_sharded_config(cores: usize) -> ShardedCameraConfig {
        ShardedCameraConfig {
            camera: CameraPipelineConfig {
                batch_windows: 2,
                ..CameraPipelineConfig::default()
            },
            pool: TeePoolConfig::jetson(cores),
            ..ShardedCameraConfig::default()
        }
    }

    /// Builds a two-core sharded camera after `set` edits its camera
    /// config, and checks that the build is refused by an error naming
    /// `field`. The model set is deferred: the refusal comes before any
    /// model trains.
    fn assert_refused(field: &str, set: impl FnOnce(&mut CameraPipelineConfig)) {
        let mut config = small_sharded_config(2);
        set(&mut config.camera);
        let models = SharedModels::deferred(Architecture::Cnn, 16, 0x5EF);
        let error = ShardedVisionPipeline::with_models(config, &models)
            .expect_err("an unsupported camera field was accepted")
            .to_string();
        assert!(error.contains(field), "{error}");
    }

    #[test]
    fn refuses_an_ingest_hook() {
        #[derive(Debug)]
        struct NoPlane;
        impl perisec_relay::attest::SessionIngest for NoPlane {
            fn handle(&self, _: u64, _: u64, _: &[u8]) -> Vec<u8> {
                Vec::new()
            }
            fn session_report(&self, _: u64) -> perisec_relay::cloud::CloudReport {
                Default::default()
            }
            fn reset_session(&self, _: u64) {}
        }
        let hook = IngestHook::new(Arc::new(NoPlane), 0);
        assert_refused("camera.ingest", |camera| camera.ingest = Some(hook));
    }

    #[test]
    fn refuses_a_degrade_spec() {
        let degrade = DegradeSpec {
            after: SimDuration::ZERO,
            per_window: SimDuration::from_millis(1),
        };
        assert_refused("camera.degrade", |camera| camera.degrade = Some(degrade));
    }

    #[test]
    fn refuses_enabled_telemetry() {
        let metrics = TelemetryConfig::metrics();
        assert_refused("camera.telemetry", |camera| camera.telemetry = metrics);
    }

    #[test]
    fn refuses_the_constrained_platform() {
        assert_refused("camera.constrained_platform", |camera| {
            camera.constrained_platform = true
        });
    }

    #[test]
    fn refuses_a_secure_ram_override() {
        assert_refused("camera.secure_ram_kib", |camera| {
            camera.secure_ram_kib = Some(4096)
        });
    }

    #[test]
    fn sharded_pipeline_filters_and_keeps_cores_busy() {
        use perisec_workload::scenario::CameraScenario;
        let mut pipeline = ShardedVisionPipeline::new(small_sharded_config(2)).unwrap();
        let scenario = CameraScenario::mixed_scenes(12, 0.5, SimDuration::from_secs(2), 0x5C2D);
        assert!(scenario.sensitive_count() > 0);
        let run = pipeline.run_scenario(&scenario).unwrap();

        assert_eq!(run.report.workload.utterances, 12);
        assert_eq!(run.report.cloud.leaked_sensitive_utterances(), 0);
        assert!(run.report.cloud.received_utterances() >= 1);
        // Both cores really worked and reported coherent utilization.
        assert_eq!(run.per_core.len(), 2);
        for core in &run.per_core {
            assert!(core.smc_calls >= 1, "core {} never entered", core.core);
            assert!(core.secure_busy > SimDuration::ZERO);
            assert!(core.utilization > 0.0 && core.utilization <= 1.0);
        }
        // Wall time is the max over cores, not the sum.
        let max_core = run.per_core.iter().map(|c| c.virtual_time).max().unwrap();
        assert_eq!(run.report.virtual_time, max_core);
        // Verdict records only — no payload bytes at the cloud.
        assert!(run
            .report
            .cloud
            .report
            .events
            .iter()
            .all(|e| e.audio_bytes == 0 && e.encrypted));
    }

    #[test]
    fn dedup_charges_the_model_once_across_sessions() {
        let with_dedup = ShardedVisionPipeline::new(small_sharded_config(4)).unwrap();
        let without = ShardedVisionPipeline::new(ShardedCameraConfig {
            dedup_models: false,
            ..small_sharded_config(4)
        })
        .unwrap();
        let deduped = with_dedup.pool().secure_ram().bytes_in_use();
        let duplicated = without.pool().secure_ram().bytes_in_use();
        assert!(
            deduped < duplicated,
            "dedup {deduped} B should undercut duplicated {duplicated} B"
        );
        assert!(with_dedup.pool().secure_ram().dedup_saved_bytes() > 0);
        assert_eq!(with_dedup.pool().secure_ram().dedup_hits(), 3);
        assert_eq!(without.pool().secure_ram().dedup_hits(), 0);
    }

    #[test]
    fn adaptive_batcher_drives_the_run_within_slo() {
        use perisec_workload::scenario::CameraScenario;
        let mut pipeline = ShardedVisionPipeline::new(ShardedCameraConfig {
            latency_slo: Some(SimDuration::from_millis(5)),
            ..small_sharded_config(2)
        })
        .unwrap();
        let scenario = CameraScenario::mixed_scenes(10, 0.4, SimDuration::from_millis(10), 0xADAB);
        let run = pipeline.run_scenario(&scenario).unwrap();
        assert_eq!(run.report.cloud.leaked_sensitive_utterances(), 0);
        assert_eq!(run.report.workload.utterances, 10);
        assert!(run.report.latency.p99_end_to_end() > SimDuration::ZERO);
    }

    #[test]
    fn slo_pressure_steers_the_sharded_batcher_without_changing_outcomes() {
        use perisec_telemetry::HealthState;
        use perisec_workload::scenario::CameraScenario;

        let scenario = CameraScenario::mixed_scenes(16, 0.4, SimDuration::from_millis(10), 0x9E55);
        let base = ShardedCameraConfig {
            latency_slo: Some(SimDuration::from_millis(5)),
            ..small_sharded_config(2)
        };
        let mut plain = ShardedVisionPipeline::new(base.clone()).unwrap();
        let a = plain.run_scenario(&scenario).unwrap();
        assert_eq!(plain.pressure_state(), None);

        // An unattainable objective: every observed crossing breaches, so
        // the monitor demotes and the batcher runs clipped — same
        // verdicts at the cloud, never fewer crossings than the pure
        // curve.
        let mut pressured = ShardedVisionPipeline::new(ShardedCameraConfig {
            slo_pressure: Some(SloSpec::p95("shard.filter", SimDuration::from_nanos(1))),
            ..base.clone()
        })
        .unwrap();
        let b = pressured.run_scenario(&scenario).unwrap();
        assert_ne!(pressured.pressure_state(), Some(HealthState::Healthy));
        assert_eq!(
            a.report.cloud.received_utterances(),
            b.report.cloud.received_utterances()
        );
        assert_eq!(
            a.report.cloud.leaked_sensitive_utterances(),
            b.report.cloud.leaked_sensitive_utterances()
        );
        assert!(b.report.tz.smc_calls >= a.report.tz.smc_calls);

        // Without a latency SLO there is no batcher, so the spec is
        // inert and no monitor is built.
        let inert = ShardedVisionPipeline::new(ShardedCameraConfig {
            latency_slo: None,
            slo_pressure: Some(SloSpec::p95("shard.filter", SimDuration::from_nanos(1))),
            ..small_sharded_config(2)
        })
        .unwrap();
        assert_eq!(inert.pressure_state(), None);
    }

    #[test]
    fn repeated_runs_report_run_relative_figures() {
        use perisec_workload::scenario::CameraScenario;
        let mut pipeline = ShardedVisionPipeline::new(small_sharded_config(2)).unwrap();
        let scenario = CameraScenario::mixed_scenes(6, 0.4, SimDuration::from_millis(50), 0x2E);
        let first = pipeline.run_scenario(&scenario).unwrap();
        let second = pipeline.run_scenario(&scenario).unwrap();
        // Same scenario, same decisions: the second report must describe
        // only its own run, not accumulate the first one's traffic or
        // energy. The second run can only be cheaper — the channel
        // handshake happened in the first, and replayed (past) event
        // timestamps leave no idle gaps — never the sum of both runs.
        assert!(first.report.bytes_to_cloud > 0);
        assert!(second.report.bytes_to_cloud > 0);
        assert!(second.report.bytes_to_cloud <= first.report.bytes_to_cloud);
        assert!(second.report.energy.total_mj <= first.report.energy.total_mj);
        assert!(second.report.energy.window <= first.report.energy.window);
        assert!(second.report.virtual_time <= first.report.virtual_time);
    }

    #[test]
    fn policy_updates_reach_every_shard() {
        use perisec_workload::scenario::CameraScenario;
        let mut pipeline = ShardedVisionPipeline::new(small_sharded_config(2)).unwrap();
        let scenario = CameraScenario::mixed_scenes(8, 1.0, SimDuration::from_secs(1), 0xA11);
        pipeline.set_policy(PrivacyPolicy::allow_all()).unwrap();
        let permissive = pipeline.run_scenario(&scenario).unwrap();
        assert!(permissive.report.cloud.leakage_rate() > 0.5);
        pipeline
            .set_policy(PrivacyPolicy::block_sensitive())
            .unwrap();
        let strict = pipeline.run_scenario(&scenario).unwrap();
        assert_eq!(strict.report.cloud.leaked_sensitive_utterances(), 0);
    }
}
