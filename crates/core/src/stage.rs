//! The staged pipeline architecture.
//!
//! Both pipelines are decomposed into three stages behind one trait:
//!
//! * a **capture stage** that turns scenario events into capture work
//!   (queued waveforms plus window descriptions);
//! * a **filter stage** that moves the captured audio through the privacy
//!   filter — a TEE round trip for the secure pipeline, a no-op for the
//!   baseline;
//! * a **relay stage** that accounts for (secure) or performs (baseline)
//!   the delivery of permitted content to the cloud.
//!
//! Stages communicate through explicit batch types, and every stage is
//! batch-aware: the secure filter stage crosses the TEE boundary **once
//! per batch** (`PROCESS_BATCH` + a single batched relay record), which is
//! what drops world switches per utterance by the batch factor.

use perisec_devices::codec::AudioEncoding;
use perisec_kernel::i2s_driver::BaselineI2sDriver;
use perisec_optee::{TeeClient, TeeParam, TeeParams, TeeSessionHandle};
use perisec_relay::avs::AvsEvent;
use perisec_relay::netsim::{NetworkFabric, Transport};
use perisec_relay::tls::{seal_flops, SecureChannelClient, PSK_LEN};
use perisec_tz::platform::Platform;
use perisec_tz::time::{SimDuration, SimInstant};
use perisec_workload::scenario::{CameraScenarioEvent, ScenarioEvent};
use perisec_workload::synth::SpeechSynthesizer;

use crate::cloud_channel::{backoff_interval, HARD_ROUNDS};
use crate::filter_ta::{cmd as filter_cmd, decode_batch_verdicts, encode_batch_request};
use crate::policy::FilterDecision;
use crate::report::LatencyBreakdown;
use crate::source::{SharedPlayback, SharedSceneQueue};
use crate::{CoreError, Result};

/// One stage of a pipeline: a named transformation over batch work items.
///
/// Stages are chained `CaptureStage -> FilterStage -> RelayStage` by the
/// pipelines; the associated types make each hand-off explicit and let the
/// two pipelines share the same driving loop.
pub trait PipelineStage {
    /// What the stage consumes.
    type Input;
    /// What the stage produces.
    type Output;

    /// Short stable stage name (for traces and reports).
    fn name(&self) -> &'static str;

    /// Processes one batch.
    ///
    /// # Errors
    ///
    /// Stage-specific; see each implementation.
    fn process(&mut self, input: Self::Input) -> Result<Self::Output>;
}

/// One capture window awaiting the filter: an utterance already queued on
/// the device's signal path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowSpec {
    /// Dialog id of the utterance (the scenario event id).
    pub dialog_id: u64,
    /// Window length in capture periods.
    pub periods: usize,
}

/// Output of the secure capture stage: windows queued for the TEE.
#[derive(Debug, Clone)]
pub struct PreparedBatch {
    /// The windows, in capture order.
    pub windows: Vec<WindowSpec>,
    /// Virtual time at which the batch was handed to the filter.
    pub started: SimInstant,
}

/// The filter's verdict on one window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowVerdict {
    /// Dialog id of the utterance.
    pub dialog_id: u64,
    /// The policy decision the TA applied.
    pub decision: FilterDecision,
    /// Classifier probability in thousandths.
    pub probability_milli: u16,
}

/// Output of a filter stage: per-window verdicts plus stage accounting.
#[derive(Debug, Clone, Default)]
pub struct FilteredBatch {
    /// Verdicts in window order (empty for the baseline, which never
    /// inspects content).
    pub verdicts: Vec<WindowVerdict>,
    /// Time the batch's audio occupied the wire.
    pub wire: SimDuration,
    /// Driver CPU time spent capturing/encoding.
    pub capture_cpu: SimDuration,
    /// ML time (STT + classification); zero for the baseline.
    pub ml: SimDuration,
    /// Relay time (policy, sealing, supplicant round trips).
    pub relay: SimDuration,
    /// End-to-end processing latency of each utterance in the batch. For
    /// batched TEE crossings the batch latency is attributed evenly.
    pub per_utterance: Vec<SimDuration>,
    /// Relay retransmissions the TA performed while this batch was in
    /// flight (zero on a healthy network).
    pub retries: u64,
    /// Unacked relay records still buffered in the TA after this batch —
    /// the graceful-degradation signal that drives the batcher to
    /// `Critical` and triggers the end-of-scenario drain when non-zero.
    pub backlog: u64,
}

// ----- secure pipeline stages ---------------------------------------------

/// Normal-world half of the secure capture path: renders each utterance,
/// queues it (padded to whole periods so batched windows stay aligned) on
/// the shared playback source feeding the in-TEE driver's microphone, and
/// describes the windows for the filter TA.
pub struct SecureCaptureStage {
    platform: Platform,
    playback: SharedPlayback,
    synth: SpeechSynthesizer,
    period_frames: usize,
}

impl SecureCaptureStage {
    /// Creates the stage.
    pub fn new(
        platform: Platform,
        playback: SharedPlayback,
        synth: SpeechSynthesizer,
        period_frames: usize,
    ) -> Self {
        SecureCaptureStage {
            platform,
            playback,
            synth,
            period_frames,
        }
    }
}

impl PipelineStage for SecureCaptureStage {
    type Input = Vec<ScenarioEvent>;
    type Output = PreparedBatch;

    fn name(&self) -> &'static str {
        "secure-capture"
    }

    fn process(&mut self, events: Self::Input) -> Result<PreparedBatch> {
        self.playback.clear();
        let mut windows = Vec::with_capacity(events.len());
        for event in &events {
            // Advance virtual time to the utterance so idle power
            // integrates over the scenario duration.
            self.platform
                .clock()
                .advance_to(SimInstant::EPOCH + event.at);
            let audio = self.synth.render_tokens(&event.utterance.tokens);
            let periods = audio.frames().div_ceil(self.period_frames);
            let periods = periods.max(1);
            self.playback
                .push_padded(audio.samples(), periods * self.period_frames);
            windows.push(WindowSpec {
                dialog_id: event.id,
                periods,
            });
        }
        Ok(PreparedBatch {
            windows,
            started: self.platform.clock().now(),
        })
    }
}

/// Normal-world half of the secure *camera* capture path: schedules each
/// event's scene on the shared scene queue feeding the in-TEE camera
/// driver's sensor, and describes the frame windows for the vision TA.
/// Produces the same [`PreparedBatch`] as the audio capture stage (a
/// window's `periods` are its frames), so the downstream filter and relay
/// stages serve both modalities unchanged.
pub struct SecureFrameCaptureStage {
    platform: Platform,
    scenes: SharedSceneQueue,
}

impl SecureFrameCaptureStage {
    /// Creates the stage.
    pub fn new(platform: Platform, scenes: SharedSceneQueue) -> Self {
        SecureFrameCaptureStage { platform, scenes }
    }
}

impl PipelineStage for SecureFrameCaptureStage {
    type Input = Vec<CameraScenarioEvent>;
    type Output = PreparedBatch;

    fn name(&self) -> &'static str {
        "secure-frame-capture"
    }

    fn process(&mut self, events: Self::Input) -> Result<PreparedBatch> {
        self.scenes.clear();
        let mut windows = Vec::with_capacity(events.len());
        for event in &events {
            self.platform
                .clock()
                .advance_to(SimInstant::EPOCH + event.at);
            let frames = event.frames.max(1);
            self.scenes.push(event.scene, frames);
            windows.push(WindowSpec {
                dialog_id: event.id,
                periods: frames,
            });
        }
        Ok(PreparedBatch {
            windows,
            started: self.platform.clock().now(),
        })
    }
}

/// The secure filter stage: one `PROCESS_BATCH` invocation — a single SMC
/// and world-switch round trip — covers capture, ML, policy and the
/// batched relay for every window in the batch. Every sensor's TA is a
/// [`crate::filter_ta::FilterTa`], so this stage drives either modality:
/// hand it a session on the speech filter TA and it filters utterances,
/// hand it a session on the vision TA and it filters frame windows.
pub struct SecureFilterStage {
    platform: Platform,
    client: TeeClient,
    session: TeeSessionHandle,
}

impl SecureFilterStage {
    /// Creates the stage over an open filter-TA session.
    pub fn new(platform: Platform, client: TeeClient, session: TeeSessionHandle) -> Self {
        SecureFilterStage {
            platform,
            client,
            session,
        }
    }

    /// The platform whose clock this stage measures latency against.
    /// Multi-core schedulers use this to stamp batches in the stage's own
    /// clock domain — an instant from another core's clock would make
    /// `elapsed_since` meaningless.
    pub fn platform(&self) -> &Platform {
        &self.platform
    }

    /// Blocking drain of the TA's relay buffer: records an opportunistic
    /// flush deferred under network faults are retired here. Called once
    /// a scenario has stepped to completion — a finished device must not
    /// strand acknowledged-pending verdicts in the TA. Idempotent: with
    /// an empty buffer the invocation is a no-op.
    ///
    /// # Errors
    ///
    /// Propagates the TA's flush failure — the network stayed dead for
    /// the whole `HARD_ROUNDS` retry budget.
    pub fn drain_relay(&mut self) -> Result<()> {
        self.client
            .invoke(&self.session, filter_cmd::FLUSH_RELAY, TeeParams::new())
            .map_err(CoreError::from)?;
        Ok(())
    }
}

impl PipelineStage for SecureFilterStage {
    type Input = PreparedBatch;
    type Output = FilteredBatch;

    fn name(&self) -> &'static str {
        "tee-filter"
    }

    fn process(&mut self, prepared: Self::Input) -> Result<FilteredBatch> {
        if prepared.windows.is_empty() {
            return Ok(FilteredBatch::default());
        }
        let request = encode_batch_request(
            &prepared
                .windows
                .iter()
                .map(|w| (w.dialog_id, w.periods as u32))
                .collect::<Vec<_>>(),
        );
        let params = TeeParams::new().with(0, TeeParam::MemRefInput(request));
        let out = self
            .client
            .invoke(&self.session, filter_cmd::PROCESS_BATCH, params)
            .map_err(CoreError::from)?;

        let verdicts =
            decode_batch_verdicts(out.get(1).as_memref().ok_or(missing_verdicts_error())?)?;
        if verdicts.len() != prepared.windows.len() {
            return Err(CoreError::Tee(perisec_optee::TeeError::Communication {
                reason: format!(
                    "filter ta returned {} verdicts for a {}-window batch",
                    verdicts.len(),
                    prepared.windows.len()
                ),
            }));
        }
        let verdicts = prepared
            .windows
            .iter()
            .zip(verdicts)
            .map(|(w, (decision, probability_milli))| WindowVerdict {
                dialog_id: w.dialog_id,
                decision,
                probability_milli,
            })
            .collect::<Vec<_>>();

        let (retries, backlog) = out.get(0).as_values().unwrap_or((0, 0));
        let (wire_ns, capture_cpu_ns) = out.get(2).as_values().unwrap_or((0, 0));
        let (ml_ns, relay_ns) = out.get(3).as_values().unwrap_or((0, 0));
        let elapsed = self.platform.clock().elapsed_since(prepared.started);
        let share = elapsed / prepared.windows.len() as u64;
        Ok(FilteredBatch {
            per_utterance: vec![share; prepared.windows.len()],
            verdicts,
            wire: SimDuration::from_nanos(wire_ns),
            capture_cpu: SimDuration::from_nanos(capture_cpu_ns),
            ml: SimDuration::from_nanos(ml_ns),
            relay: SimDuration::from_nanos(relay_ns),
            retries,
            backlog,
        })
    }
}

fn missing_verdicts_error() -> CoreError {
    CoreError::Tee(perisec_optee::TeeError::Communication {
        reason: "filter ta returned no verdicts".to_owned(),
    })
}

/// The secure relay stage. The relay itself ran *inside* the TA (nothing
/// sensitive may cross back to the normal world), so this stage's job is
/// the normal-world accounting: it folds each batch's timings into the
/// run's latency breakdown. (Per-decision tallies live in the TA and are
/// queryable through its `GET_STATS` command.)
#[derive(Debug, Default)]
pub struct SecureRelayStage {
    breakdown: LatencyBreakdown,
}

impl SecureRelayStage {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        SecureRelayStage::default()
    }

    /// Takes the accumulated breakdown, resetting the stage.
    pub fn take_breakdown(&mut self) -> LatencyBreakdown {
        std::mem::take(&mut self.breakdown)
    }
}

impl PipelineStage for SecureRelayStage {
    type Input = FilteredBatch;
    type Output = ();

    fn name(&self) -> &'static str {
        "secure-relay"
    }

    fn process(&mut self, batch: Self::Input) -> Result<()> {
        self.breakdown.capture_wire += batch.wire;
        self.breakdown.capture_cpu += batch.capture_cpu;
        self.breakdown.ml += batch.ml;
        self.breakdown.relay += batch.relay;
        self.breakdown.extend_latencies(batch.per_utterance);
        Ok(())
    }
}

// ----- baseline pipeline stages -------------------------------------------

/// One captured (unfiltered) utterance of the baseline pipeline.
#[derive(Debug, Clone)]
pub struct RawCapture {
    /// Dialog id of the utterance.
    pub dialog_id: u64,
    /// The captured audio.
    pub audio: perisec_devices::audio::AudioBuffer,
    /// Wire time of the capture.
    pub wire: SimDuration,
    /// Kernel-driver CPU time of the capture.
    pub cpu: SimDuration,
    /// Virtual time the capture call itself took. Stored as a duration,
    /// not an instant: later events in the same batch advance the clock
    /// to their scenario timestamps, so an instant-based measurement in
    /// the relay stage would absorb the inter-utterance spacing.
    pub capture_elapsed: SimDuration,
}

/// The baseline capture stage: the in-kernel driver reads every utterance
/// into normal-world memory, where the whole OS can see it.
pub struct KernelCaptureStage {
    platform: Platform,
    playback: SharedPlayback,
    synth: SpeechSynthesizer,
    driver: BaselineI2sDriver,
    period_frames: usize,
}

impl KernelCaptureStage {
    /// Creates the stage around a probed, configured, started driver.
    pub fn new(
        platform: Platform,
        playback: SharedPlayback,
        synth: SpeechSynthesizer,
        driver: BaselineI2sDriver,
        period_frames: usize,
    ) -> Self {
        KernelCaptureStage {
            platform,
            playback,
            synth,
            driver,
            period_frames,
        }
    }
}

impl PipelineStage for KernelCaptureStage {
    type Input = Vec<ScenarioEvent>;
    type Output = Vec<RawCapture>;

    fn name(&self) -> &'static str {
        "kernel-capture"
    }

    fn process(&mut self, events: Self::Input) -> Result<Vec<RawCapture>> {
        let mut captures = Vec::with_capacity(events.len());
        for event in &events {
            self.platform
                .clock()
                .advance_to(SimInstant::EPOCH + event.at);
            let audio = self.synth.render_tokens(&event.utterance.tokens);
            let periods = audio.frames().div_ceil(self.period_frames);
            self.playback.clear();
            self.playback.push(audio.samples());
            let started = self.platform.clock().now();
            let outcome = self.driver.capture_periods(periods.max(1))?;
            captures.push(RawCapture {
                dialog_id: event.id,
                audio: outcome.audio,
                wire: outcome.wire_time,
                cpu: outcome.cpu_time,
                capture_elapsed: self.platform.clock().elapsed_since(started),
            });
        }
        Ok(captures)
    }
}

/// The baseline "filter": there is none. Raw captures pass through
/// untouched — precisely the leak the paper's design removes.
#[derive(Debug, Clone, Copy, Default)]
pub struct PassthroughFilterStage;

impl PassthroughFilterStage {
    /// Creates the stage (equivalent to [`Default`]; both exist so every
    /// argument-less stage follows the same construction convention).
    pub fn new() -> Self {
        PassthroughFilterStage
    }
}

impl PipelineStage for PassthroughFilterStage {
    type Input = Vec<RawCapture>;
    type Output = Vec<RawCapture>;

    fn name(&self) -> &'static str {
        "passthrough-filter"
    }

    fn process(&mut self, captures: Self::Input) -> Result<Vec<RawCapture>> {
        Ok(captures)
    }
}

/// The baseline relay stage: encodes and ships every capture to the cloud
/// over the normal-world secure channel (encryption but no filtering).
///
/// Records carry explicit sequence numbers (the same DTLS-style framing
/// the TAs use), so the stage rides out drops, duplicates and reorderings
/// with the shared capped-exponential backoff instead of desynchronizing
/// its record nonces on the first lost packet.
pub struct CloudRelayStage {
    platform: Platform,
    fabric: NetworkFabric,
    cloud_host: &'static str,
    psk: [u8; PSK_LEN],
    encoding: AudioEncoding,
    next_seq: u64,
    channel: Option<(Transport, SecureChannelClient)>,
    breakdown: LatencyBreakdown,
}

impl CloudRelayStage {
    /// Creates the stage; the channel is established lazily on first use.
    pub fn new(
        platform: Platform,
        fabric: NetworkFabric,
        cloud_host: &'static str,
        psk: [u8; PSK_LEN],
        encoding: AudioEncoding,
    ) -> Self {
        CloudRelayStage {
            platform,
            fabric,
            cloud_host,
            psk,
            encoding,
            next_seq: 0,
            channel: None,
            breakdown: LatencyBreakdown::default(),
        }
    }

    /// Takes the accumulated breakdown, resetting the stage.
    pub fn take_breakdown(&mut self) -> LatencyBreakdown {
        std::mem::take(&mut self.breakdown)
    }

    fn ensure_channel(&mut self) -> Result<()> {
        if let Some((_, client)) = &self.channel {
            if client.is_established() {
                return Ok(());
            }
        }
        if self.channel.is_none() {
            let transport = self
                .fabric
                .open_transport(self.cloud_host, 443)
                .map_err(CoreError::from)?;
            let socket = transport.socket();
            self.channel = Some((transport, SecureChannelClient::new(self.psk, socket)));
        }
        let (transport, client) = self.channel.as_mut().expect("just connected");
        for round in 0..HARD_ROUNDS {
            transport
                .send(&client.client_hello())
                .map_err(CoreError::from)?;
            let hello = transport.recv(4096).map_err(CoreError::from)?;
            if !hello.is_empty() && client.process_server_hello(&hello).is_ok() {
                return Ok(());
            }
            self.platform
                .clock()
                .advance(backoff_interval(transport.socket(), 0, round));
        }
        Err(CoreError::Relay(perisec_relay::RelayError::ChannelError {
            reason: format!(
                "baseline handshake to {} exhausted {} retry rounds",
                self.cloud_host, HARD_ROUNDS
            ),
        }))
    }

    /// Ships one sealed record and waits (on virtual time) for the ack
    /// that echoes its sequence, retransmitting the byte-identical record
    /// under capped exponential backoff until acked or out of rounds.
    fn send_acked(&mut self, event_bytes: &[u8]) -> Result<()> {
        let seq = self.next_seq;
        self.next_seq += 1;
        for attempt in 0..HARD_ROUNDS {
            let (transport, channel) = self.channel.as_mut().expect("channel ensured");
            let record = channel.seal_at(seq, event_bytes).map_err(CoreError::from)?;
            transport.send(&record).map_err(CoreError::from)?;
            let reply = transport.recv(65536).map_err(CoreError::from)?;
            if !reply.is_empty() {
                if let Ok((acked, _directive)) = channel.open_explicit(&reply) {
                    if acked == seq {
                        return Ok(());
                    }
                }
            }
            let socket = transport.socket();
            self.platform
                .clock()
                .advance(backoff_interval(socket, seq, attempt));
        }
        Err(CoreError::Relay(perisec_relay::RelayError::Transport {
            reason: format!(
                "baseline relay record {seq} exhausted {} retry rounds",
                HARD_ROUNDS
            ),
        }))
    }
}

impl PipelineStage for CloudRelayStage {
    type Input = Vec<RawCapture>;
    type Output = ();

    fn name(&self) -> &'static str {
        "cloud-relay"
    }

    fn process(&mut self, captures: Self::Input) -> Result<()> {
        self.ensure_channel()?;
        for capture in captures {
            let relay_start = self.platform.clock().now();
            let payload = self.encoding.encode(&capture.audio);
            let event_bytes = AvsEvent::Recognize {
                dialog_id: capture.dialog_id,
                audio: payload,
            }
            .encode();
            self.platform.charge_compute(
                perisec_tz::world::World::Normal,
                seal_flops(event_bytes.len()),
            );
            self.send_acked(&event_bytes)?;
            let relay_elapsed = self.platform.clock().elapsed_since(relay_start);
            self.breakdown.relay += relay_elapsed;
            self.breakdown.capture_wire += capture.wire;
            self.breakdown.capture_cpu += capture.cpu;
            // Processing latency = time spent capturing plus time spent
            // relaying; inter-utterance scenario gaps are excluded.
            self.breakdown
                .push_latency(capture.capture_elapsed + relay_elapsed);
        }
        Ok(())
    }
}
