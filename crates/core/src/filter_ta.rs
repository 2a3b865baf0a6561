//! The filter trusted application, one TA type for every sensor.
//!
//! This is the TA of the paper's Fig. 1 (steps 4–7): it pulls a batch of
//! windows from its sensor's secure driver through the PTA interface,
//! classifies each window with the in-TA model, applies the privacy
//! policy, and relays only permitted content to the cloud through the
//! TLS-like channel and the TEE supplicant.
//!
//! [`FilterTa`] is written once. A [`WindowFilter`] supplies what differs
//! per sensor: the TA's name and declared footprint, the bytes of one
//! unit of a window, and how one window is classified and decided.
//! [`SpeechFilter`] decodes audio, transcribes it with the in-TA
//! speech-to-text model and classifies the transcript;
//! [`crate::vision_ta::FrameFilter`] classifies frames.
//!
//! The raw data and the transcript never leave the secure world: the
//! normal-world caller only learns the filter decision and timing figures.

use std::sync::Arc;

use perisec_devices::audio::AudioFormat;
use perisec_devices::codec::AudioEncoding;
use perisec_ml::classifier::SensitiveClassifier;
use perisec_ml::int8::QuantSensitiveClassifier;
use perisec_ml::plan::FeaturePlan;
use perisec_ml::quant::QuantMode;
use perisec_ml::stt::KeywordStt;
use perisec_optee::{
    TaDescriptor, TaEnv, TaUuid, TeeError, TeeParam, TeeParams, TeeResult, TrustedApp,
};
use perisec_relay::avs::AvsEvent;
use perisec_relay::cloud::MockCloudService;
use perisec_relay::tls::PSK_LEN;
use perisec_secure_driver::pta::{self, decode_windows_reply, encode_windows_request};
use perisec_tz::time::SimDuration;
use perisec_workload::vocab::Vocabulary;

use crate::cloud_channel::TaCloudChannel;
use crate::policy::{FilterDecision, PrivacyPolicy};

/// Registered name of the speech filter TA (its UUID derives from this).
pub const FILTER_TA_NAME: &str = "perisec.filter-ta";

/// Command identifiers of the filter TA.
pub mod cmd {
    /// Replace the privacy policy: value param `a` = mode, `b` =
    /// threshold in thousandths.
    pub const SET_POLICY: u32 = 1;
    /// Query statistics: returns `(windows, forwarded)` and
    /// `(dropped, redacted)`.
    pub const GET_STATS: u32 = 2;
    /// Process a whole batch of capture windows in one invocation — the
    /// transition-amortized path. Param 0 is an input memref encoding the
    /// per-window `(dialog_id, units)` pairs (see
    /// [`super::encode_batch_request`]); the reply carries
    /// `(retransmissions, unacked records)` in value slot 0, the
    /// per-window verdicts in an output memref in slot 1 (see
    /// [`super::decode_batch_verdicts`]), the aggregate
    /// `(capture_wire_ns, capture_cpu_ns)` in value slot 2 and
    /// `(ml_ns, relay_ns)` in value slot 3. All permitted windows of the
    /// batch are relayed in a **single** sealed record, so the whole batch
    /// costs one send/recv supplicant round trip. The request is bounded
    /// before any capture starts: at most [`super::MAX_BATCH_WINDOWS`]
    /// windows, each at least one unit and no longer than the TA's
    /// declared data segment can hold.
    pub const PROCESS_BATCH: u32 = 3;
    /// Blocking drain of the relay's unacked buffer. Invoked once a
    /// scenario has stepped to completion, so records an opportunistic
    /// flush deferred under network faults are retired before the
    /// device's report is assembled. No parameters; errors if the
    /// network stays dead for the whole `HARD_ROUNDS` budget.
    pub const FLUSH_RELAY: u32 = 4;
}

/// The most windows one `PROCESS_BATCH` command may carry. The largest batch a pipeline sends is the adaptive batcher's
/// cap, which is this constant; a longer request from the normal world is
/// refused before any capture starts.
pub const MAX_BATCH_WINDOWS: usize = 64;

/// Encodes a batch-process request: per window, the dialog id as a
/// little-endian `u64` followed by the window length in the sensor's
/// units (periods or frames) as a little-endian `u32`.
pub fn encode_batch_request(windows: &[(u64, u32)]) -> Vec<u8> {
    let mut out = Vec::with_capacity(windows.len() * 12);
    for (dialog_id, periods) in windows {
        out.extend_from_slice(&dialog_id.to_le_bytes());
        out.extend_from_slice(&periods.to_le_bytes());
    }
    out
}

/// Decodes a batch-process request produced by [`encode_batch_request`].
///
/// # Errors
///
/// Returns [`TeeError::BadParameters`] for empty or ragged buffers, and for
/// requests of more than [`MAX_BATCH_WINDOWS`] windows.
pub fn decode_batch_request(data: &[u8]) -> TeeResult<Vec<(u64, u32)>> {
    if data.is_empty() || !data.len().is_multiple_of(12) {
        return Err(TeeError::BadParameters {
            reason: "batch request must be a non-empty multiple of 12 bytes".to_owned(),
        });
    }
    if data.len() / 12 > MAX_BATCH_WINDOWS {
        return Err(TeeError::BadParameters {
            reason: format!(
                "batch of {} windows exceeds the cap of {MAX_BATCH_WINDOWS}",
                data.len() / 12
            ),
        });
    }
    Ok(data
        .chunks_exact(12)
        .map(|chunk| {
            (
                u64::from_le_bytes(chunk[..8].try_into().expect("8 bytes")),
                u32::from_le_bytes(chunk[8..].try_into().expect("4 bytes")),
            )
        })
        .collect())
}

/// Reads the window list of a `PROCESS_BATCH` command from param 0 and
/// bounds it at the trust boundary: at most [`MAX_BATCH_WINDOWS`] windows
/// (see [`decode_batch_request`]), each `1..=max_window` `unit`s long.
fn bounded_batch_request(
    params: &TeeParams,
    max_window: u32,
    unit: &str,
) -> TeeResult<Vec<(u64, u32)>> {
    let windows =
        decode_batch_request(params.get(0).as_memref().ok_or(TeeError::BadParameters {
            reason: "process-batch expects a memref parameter".to_owned(),
        })?)?;
    if let Some(&(_, len)) = windows
        .iter()
        .find(|&&(_, len)| len == 0 || len > max_window)
    {
        return Err(TeeError::BadParameters {
            reason: format!("batch window of {len} {unit}s is outside 1..={max_window}"),
        });
    }
    Ok(windows)
}

/// The longest window, in `unit_bytes`-sized units, that a TA with a
/// declared data segment of `data_kib` KiB can hold.
fn max_window_units(data_kib: u32, unit_bytes: usize) -> u32 {
    let units = data_kib as usize * 1024 / unit_bytes.max(1);
    u32::try_from(units).unwrap_or(u32::MAX)
}

/// Encodes per-window verdicts: decision code as one byte, a padding byte,
/// then the probability in thousandths as a little-endian `u16`.
pub fn encode_batch_verdicts(verdicts: &[(FilterDecision, u16)]) -> Vec<u8> {
    let mut out = Vec::with_capacity(verdicts.len() * 4);
    for (decision, probability_milli) in verdicts {
        out.push(decision.code() as u8);
        out.push(0);
        out.extend_from_slice(&probability_milli.to_le_bytes());
    }
    out
}

/// Decodes per-window verdicts produced by [`encode_batch_verdicts`].
///
/// # Errors
///
/// Returns [`TeeError::Communication`] for ragged buffers or unknown
/// decision codes.
pub fn decode_batch_verdicts(data: &[u8]) -> TeeResult<Vec<(FilterDecision, u16)>> {
    if !data.len().is_multiple_of(4) {
        return Err(TeeError::Communication {
            reason: "verdict buffer must be a multiple of 4 bytes".to_owned(),
        });
    }
    data.chunks_exact(4)
        .map(|chunk| {
            let decision =
                FilterDecision::from_code(u64::from(chunk[0])).ok_or(TeeError::Communication {
                    reason: format!("unknown decision code {}", chunk[0]),
                })?;
            let probability_milli = u16::from_le_bytes(chunk[2..].try_into().expect("2 bytes"));
            Ok((decision, probability_milli))
        })
        .collect()
}

/// Cumulative statistics of a filter TA, as `GET_STATS` reports them.
#[derive(Debug, Clone, Copy, Default)]
struct FilterStats {
    /// Windows processed.
    windows: u64,
    /// Windows forwarded unchanged.
    forwarded: u64,
    /// Windows dropped.
    dropped: u64,
    /// Windows forwarded redacted.
    redacted: u64,
}

/// What one sensor's filter TA does that another's does not: its name and
/// declared footprint, the bytes of one unit of a window, and how one
/// window is classified and decided. Everything else — the request bound,
/// the batched PTA capture, the window length check, the statistics, the
/// batched relay and the reply contract — is [`FilterTa`]'s.
pub trait WindowFilter: Send + 'static {
    /// Registered name of the TA; its UUID and measurement derive from it.
    const NAME: &'static str;
    /// What a window's length counts, for error messages.
    const UNIT: &'static str;
    /// Declared stack, in KiB.
    const STACK_KIB: u32;
    /// Declared data segment in KiB, before the resident model.
    const DATA_KIB: u32;
    /// Working memory the windows of one `PROCESS_BATCH` share. It is
    /// created per batch, so no window-sized buffer stays resident.
    type Scratch: Default;

    /// Bytes of the model the TA keeps resident, charged to the secure
    /// carve-out through the TA's declared data segment.
    fn model_bytes(&self) -> usize;

    /// Bytes one unit of a window takes in the PTA's reply.
    fn unit_bytes(&self) -> usize;

    /// Classifies one window of `data`, charging its compute on `env`, and
    /// applies `policy`. Returns the decision, the sensitive probability in
    /// thousandths, and the event to relay when any content may leave the
    /// secure world.
    ///
    /// # Errors
    ///
    /// Returns [`TeeError::Generic`] when the model fails.
    fn filter(
        &self,
        env: &TaEnv<'_>,
        plan: &mut FeaturePlan,
        scratch: &mut Self::Scratch,
        policy: &PrivacyPolicy,
        dialog_id: u64,
        data: &[u8],
    ) -> TeeResult<(FilterDecision, u16, Option<AvsEvent>)>;
}

/// The filter TA, for the sensor `W` describes.
pub struct FilterTa<W: WindowFilter> {
    descriptor: TaDescriptor,
    pta: TaUuid,
    filter: W,
    plan: FeaturePlan,
    policy: PrivacyPolicy,
    channel: TaCloudChannel,
    stats: FilterStats,
    /// The longest window, in units, whose data fits the declared data
    /// segment.
    max_window: u32,
}

impl<W: WindowFilter> std::fmt::Debug for FilterTa<W> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FilterTa")
            .field("name", &W::NAME)
            .field("policy", &self.policy)
            .field("stats", &self.stats)
            .finish()
    }
}

impl<W: WindowFilter> FilterTa<W> {
    /// Creates the TA, which captures from the PTA `pta`. Its declared data
    /// segment — what registration reserves from the secure carve-out —
    /// holds the filter's resident model, so in [`QuantMode::Int8`] it
    /// shrinks by roughly the compression ratio.
    pub fn new(
        pta: TaUuid,
        filter: W,
        policy: PrivacyPolicy,
        cloud_host: impl Into<String>,
        psk: [u8; PSK_LEN],
    ) -> Self {
        let model_kib = (filter.model_bytes() / 1024).max(1) as u32;
        let descriptor = TaDescriptor::new(W::NAME, W::STACK_KIB, W::DATA_KIB + model_kib);
        FilterTa {
            max_window: max_window_units(descriptor.data_kib, filter.unit_bytes()),
            descriptor,
            pta,
            filter,
            plan: FeaturePlan::new(),
            policy,
            channel: TaCloudChannel::new(cloud_host, psk),
            stats: FilterStats::default(),
        }
    }

    /// Switches the relay to attested-ingest mode (builder-style): the
    /// channel performs the measurement + monotonic-counter handshake
    /// before shipping records, and every record carries the granted
    /// session epoch. Required when the pipeline routes through a
    /// sharded ingest plane instead of the direct mock cloud.
    #[must_use]
    pub fn with_ingest(mut self, measurement: [u8; perisec_relay::MEASUREMENT_LEN]) -> Self {
        self.channel.set_ingest(measurement);
        self
    }

    /// The transition-amortized batch path (`cmd::PROCESS_BATCH`): pulls
    /// every window of the batch from the secure driver in one PTA call,
    /// runs the filter per window, and relays **all** permitted content in
    /// a single sealed record — so an entire batch costs one client SMC
    /// plus one supplicant send/recv round trip, instead of one SMC and one
    /// round trip per window.
    fn process_batch(&mut self, env: &mut TaEnv<'_>, params: &mut TeeParams) -> TeeResult<()> {
        let windows = bounded_batch_request(params, self.max_window, W::UNIT)?;
        // The TA's own bookkeeping cost, once per batch.
        env.charge_cpu(SimDuration::from_micros(10));

        // 1. One batched capture through the PTA.
        let request = encode_windows_request(
            &windows
                .iter()
                .map(|&(_, units)| units as usize)
                .collect::<Vec<_>>(),
        );
        let mut capture = TeeParams::new().with(0, TeeParam::MemRefInput(request));
        env.invoke_pta(self.pta, pta::cmd::CAPTURE_BATCH, &mut capture)?;
        let replies =
            decode_windows_reply(capture.get(1).as_memref().ok_or(TeeError::Communication {
                reason: "pta returned no batched capture".to_owned(),
            })?)?;
        // Hold every window to its requested length before any ML: a short
        // or missing window must never yield a verdict for content that
        // was not classified.
        let unit_bytes = self.filter.unit_bytes();
        if replies.len() != windows.len() {
            return Err(TeeError::Communication {
                reason: format!(
                    "pta returned {} windows for a {}-window batch",
                    replies.len(),
                    windows.len()
                ),
            });
        }
        if let Some((&(_, units), reply)) = windows
            .iter()
            .zip(&replies)
            .find(|&(&(_, units), reply)| reply.data.len() != units as usize * unit_bytes)
        {
            return Err(TeeError::Communication {
                reason: format!(
                    "window of {units} {}s delivered {} bytes, not {}",
                    W::UNIT,
                    reply.data.len(),
                    units as usize * unit_bytes
                ),
            });
        }
        let (wire_ns, capture_cpu_ns) = capture.get(2).as_values().unwrap_or((0, 0));

        // 2. Per-window filter; the windows share one scratch, and
        //    permitted content accumulates into one batched relay event.
        //    The whole filter call counts as ML time: decoding and the
        //    policy charge no virtual time.
        let mut verdicts = Vec::with_capacity(windows.len());
        let mut outbound = Vec::new();
        let mut ml_ns = 0u64;
        let mut scratch = W::Scratch::default();
        for (&(dialog_id, _), reply) in windows.iter().zip(&replies) {
            let ml_start = env.platform().clock().now();
            let (decision, probability_milli, event) = self.filter.filter(
                env,
                &mut self.plan,
                &mut scratch,
                &self.policy,
                dialog_id,
                reply.data,
            )?;
            ml_ns += env.platform().clock().elapsed_since(ml_start).as_nanos();
            self.stats.windows += 1;
            match decision {
                FilterDecision::Forward => self.stats.forwarded += 1,
                FilterDecision::ForwardRedacted => self.stats.redacted += 1,
                FilterDecision::Drop => self.stats.dropped += 1,
            }
            verdicts.push((decision, probability_milli));
            outbound.extend(event);
        }

        // 3. One relay round trip for the whole batch.
        let relay_start = env.platform().clock().now();
        if !outbound.is_empty() {
            // The health plane's privacy tripwire: raw payload bytes
            // crossing the relay outward. A filtered fleet sends verdicts
            // and text only, so this counter staying zero *is* the privacy
            // claim, observable per epoch.
            let payload_bytes: u64 = outbound
                .iter()
                .map(|event| match event {
                    AvsEvent::Recognize { audio, .. } => audio.len() as u64,
                    _ => 0,
                })
                .sum();
            if payload_bytes > 0 {
                env.tracer().count("relay.payload_bytes", payload_bytes);
            }
            self.channel.send_event(env, &AvsEvent::Batch(outbound))?;
        }
        let relay_ns = env.platform().clock().elapsed_since(relay_start).as_nanos();

        // 4. The reply contract the filter stage decodes — never
        //    transcripts, audio or pixels.
        params.set(
            0,
            TeeParam::ValueOutput {
                a: self.channel.take_retries_delta(),
                b: self.channel.unacked_len() as u64,
            },
        );
        params.set(1, TeeParam::MemRefOutput(encode_batch_verdicts(&verdicts)));
        params.set(
            2,
            TeeParam::ValueOutput {
                a: wire_ns,
                b: capture_cpu_ns,
            },
        );
        params.set(
            3,
            TeeParam::ValueOutput {
                a: ml_ns,
                b: relay_ns,
            },
        );
        Ok(())
    }
}

impl<W: WindowFilter> TrustedApp for FilterTa<W> {
    fn descriptor(&self) -> TaDescriptor {
        self.descriptor.clone()
    }

    fn invoke(
        &mut self,
        env: &mut TaEnv<'_>,
        cmd_id: u32,
        params: &mut TeeParams,
    ) -> TeeResult<()> {
        match cmd_id {
            cmd::PROCESS_BATCH => self.process_batch(env, params),
            cmd::FLUSH_RELAY => self.channel.drain(env),
            cmd::SET_POLICY => {
                let (mode, threshold) =
                    params.get(0).as_values().ok_or(TeeError::BadParameters {
                        reason: "set-policy expects a value parameter".to_owned(),
                    })?;
                self.policy =
                    PrivacyPolicy::from_values(mode, threshold).ok_or(TeeError::BadParameters {
                        reason: format!("unknown policy mode {mode}"),
                    })?;
                Ok(())
            }
            cmd::GET_STATS => {
                params.set(
                    0,
                    TeeParam::ValueOutput {
                        a: self.stats.windows,
                        b: self.stats.forwarded,
                    },
                );
                params.set(
                    1,
                    TeeParam::ValueOutput {
                        a: self.stats.dropped,
                        b: self.stats.redacted,
                    },
                );
                Ok(())
            }
            other => Err(TeeError::ItemNotFound {
                what: format!("{} command {other}", W::NAME),
            }),
        }
    }

    fn close_session(&mut self, env: &mut TaEnv<'_>) {
        // Close performs a *blocking* flush of unacknowledged relay
        // records; exhausting the retry budget here means verdicts were
        // lost, which must never pass silently.
        self.channel
            .close(env)
            .expect("relay close: blocking flush failed");
    }
}

/// The trained models a [`SpeechFilter`] hosts: the speech front-end, the f32
/// classifier (the accuracy baseline and fallback), and — when available —
/// its int8 deployment form. All behind [`Arc`] so a fleet of device
/// pipelines shares one trained model set instead of retraining (or
/// copying) per device.
#[derive(Clone)]
pub struct FilterTaModels {
    /// The keyword speech-to-text model. The MFCC front end runs in f32
    /// with precomputed tables in both modes; int8 mode additionally
    /// matches segments against quantized templates on the integer
    /// kernels.
    pub stt: Arc<KeywordStt>,
    /// The f32 sensitive-content classifier.
    pub classifier: Arc<SensitiveClassifier>,
    /// The int8 deployment form, present for the CNN architecture.
    pub classifier_int8: Option<Arc<QuantSensitiveClassifier>>,
}

/// The speech sensor's [`WindowFilter`]: decodes a window of audio,
/// transcribes it with the in-TA speech-to-text model, classifies the
/// transcript, and applies the policy together with a lexicon check over
/// the recognized words. A forwarded window relays its text, redacted or
/// not.
pub struct SpeechFilter {
    models: FilterTaModels,
    quant: QuantMode,
    vocabulary: Vocabulary,
    encoding: AudioEncoding,
    /// Encoded bytes of one capture period.
    period_bytes: usize,
}

impl SpeechFilter {
    /// Creates the filter. In [`QuantMode::Int8`] (the default elsewhere)
    /// only the *quantized* classifier bytes are resident.
    ///
    /// `encoding` and `period_frames` must match the capture format the
    /// I2S PTA is configured with: the filter decodes the one, and the TA
    /// bounds and checks each window by the other.
    pub fn new(
        models: FilterTaModels,
        quant: QuantMode,
        vocabulary: Vocabulary,
        encoding: AudioEncoding,
        period_frames: usize,
    ) -> Self {
        let channels = usize::from(AudioFormat::speech_16khz_mono().channels);
        SpeechFilter {
            models,
            quant,
            vocabulary,
            encoding,
            period_bytes: period_frames * channels * encoding.bytes_per_sample(),
        }
    }

    /// Runs the in-TA ML stage over one window of decoded audio, charging
    /// its compute. Returns the recovered tokens and the sensitive
    /// probability.
    ///
    /// The STT front-end always runs over the TA's [`FeaturePlan`] (the
    /// MFCC scratch is mode-independent). The classifier dispatches on
    /// [`QuantMode`]: int8 runs the fused integer kernels over the same
    /// plan; f32 runs the baseline path. Both modes charge the same MAC
    /// count, so virtual-time accounting — and therefore every simulated
    /// latency and energy figure — is mode-independent; the int8 win is
    /// host wall-clock and secure-RAM residency.
    fn run_ml(
        &self,
        env: &TaEnv<'_>,
        plan: &mut FeaturePlan,
        samples: &[i16],
    ) -> TeeResult<(Vec<usize>, f32)> {
        let tracer = env.tracer();
        let samples_len = samples.len();
        // The STT charge is split by stage so each span covers its own
        // share of the virtual time; the split is unconditional, so the
        // charged total — and the report — is identical with telemetry
        // on, off, or absent.
        {
            let _mfcc = tracer.span("ta.mfcc");
            env.charge_compute(self.models.stt.mfcc_flops_for(samples_len));
        }
        // Both modes share segmentation and the f32 MFCC front end; in
        // int8 mode the template matching runs on the quantized kernels
        // (the cosine scales cancel, so decisions stay aligned with f32 —
        // pinned by the decision-parity tests).
        let tokens = {
            let _stt = tracer.span("ta.stt");
            env.charge_compute(self.models.stt.matching_flops_for(samples_len));
            match self.quant {
                QuantMode::Int8 => self
                    .models
                    .stt
                    .transcribe_to_tokens_int8_with(samples, plan),
                QuantMode::F32 => self.models.stt.transcribe_to_tokens_with(samples, plan),
            }
        };
        let probability = {
            let _classify = tracer.span("ta.classify");
            env.charge_compute(
                self.models
                    .classifier
                    .flops_per_inference(tokens.len().max(1)),
            );
            if tokens.is_empty() {
                0.0
            } else {
                match (&self.quant, &self.models.classifier_int8) {
                    (QuantMode::Int8, Some(int8)) => int8.predict_with(&tokens, plan),
                    _ => self.models.classifier.predict_with(&tokens, plan),
                }
                .map_err(|e| TeeError::Generic {
                    reason: e.to_string(),
                })?
            }
        };
        Ok((tokens, probability))
    }

    /// Applies the policy to one transcribed window and builds the event
    /// to relay (if any content is permitted to leave the secure world).
    fn decide(
        &self,
        policy: &PrivacyPolicy,
        dialog_id: u64,
        tokens: &[usize],
        probability: f32,
    ) -> (FilterDecision, Option<AvsEvent>) {
        // Defense in depth: the policy combines the classifier's score
        // with a lexicon check over the recognized words (the TA already
        // holds the vocabulary's privacy categories for redaction).
        let lexical_hit = tokens
            .iter()
            .filter_map(|&t| self.vocabulary.word(t))
            .any(|w| w.category.is_sensitive());
        let decision = policy.decide_with_lexicon(probability, lexical_hit);
        let words: Vec<String> = match decision {
            FilterDecision::Forward => tokens
                .iter()
                .filter_map(|&t| self.vocabulary.word(t).map(|w| w.text.clone()))
                .collect(),
            FilterDecision::ForwardRedacted => tokens
                .iter()
                .filter_map(|&t| self.vocabulary.word(t))
                .map(|w| {
                    if w.category.is_sensitive() {
                        "[redacted]".to_owned()
                    } else {
                        w.text.clone()
                    }
                })
                .collect(),
            FilterDecision::Drop => Vec::new(),
        };
        let event = (!words.is_empty()).then(|| AvsEvent::TextMessage {
            dialog_id,
            text: words.join(" "),
        });
        (decision, event)
    }
}

impl WindowFilter for SpeechFilter {
    const NAME: &'static str = FILTER_TA_NAME;
    const UNIT: &'static str = "period";
    const STACK_KIB: u32 = 64;
    const DATA_KIB: u32 = 256;
    /// The batch's decode buffer.
    type Scratch = Vec<i16>;

    fn model_bytes(&self) -> usize {
        match (&self.quant, &self.models.classifier_int8) {
            (QuantMode::Int8, Some(int8)) => int8.memory_bytes(),
            _ => self.models.classifier.memory_bytes_f32(),
        }
    }

    fn unit_bytes(&self) -> usize {
        self.period_bytes
    }

    fn filter(
        &self,
        env: &TaEnv<'_>,
        plan: &mut FeaturePlan,
        samples: &mut Vec<i16>,
        policy: &PrivacyPolicy,
        dialog_id: u64,
        data: &[u8],
    ) -> TeeResult<(FilterDecision, u16, Option<AvsEvent>)> {
        samples.clear();
        self.encoding.decode_into(data, samples);
        let (tokens, probability) = self.run_ml(env, plan, samples)?;
        let (decision, event) = self.decide(policy, dialog_id, &tokens, probability);
        Ok((decision, (probability * 1000.0) as u16, event))
    }
}

/// Convenience used by pipelines and tests: the cloud-side counterpart must
/// share this PSK with the TA.
pub fn default_psk() -> [u8; PSK_LEN] {
    [0x5a; PSK_LEN]
}

/// The default cloud hostname pipelines register the mock cloud under.
pub fn default_cloud_host() -> String {
    MockCloudService::HOST.to_owned()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::SharedModels;
    use perisec_ml::classifier::Architecture;
    use perisec_optee::{PseudoTa, PtaEnv, Supplicant, TeeClient, TeeCore};
    use perisec_tz::platform::Platform;
    use proptest::prelude::*;

    /// A PTA that answers every `CAPTURE_BATCH` window with one period
    /// less audio than was asked for.
    struct ShortWindowPta;

    impl PseudoTa for ShortWindowPta {
        fn descriptor(&self) -> TaDescriptor {
            TaDescriptor::new("perisec.short-window-pta", 16, 64)
        }

        fn invoke(
            &mut self,
            _: &mut PtaEnv<'_>,
            cmd: u32,
            params: &mut TeeParams,
        ) -> TeeResult<()> {
            assert_eq!(cmd, pta::cmd::CAPTURE_BATCH);
            let windows = pta::decode_windows_request(params.get(0).as_memref().unwrap())?;
            let mut reply = Vec::new();
            for periods in windows {
                let audio = vec![0u8; (periods - 1) * 160 * 2];
                reply.extend_from_slice(&(audio.len() as u32).to_le_bytes());
                reply.extend_from_slice(&[0; 16]);
                reply.extend_from_slice(&audio);
            }
            params.set(1, TeeParam::MemRefOutput(reply));
            params.set(2, TeeParam::ValueOutput { a: 0, b: 0 });
            Ok(())
        }
    }

    #[test]
    fn a_short_window_is_refused_before_any_ml() {
        let audio = SharedModels::deferred(Architecture::Cnn, 30, 0x5407)
            .audio()
            .unwrap();
        let platform = Platform::jetson_agx_xavier();
        let core = TeeCore::boot(platform.clone(), Arc::new(Supplicant::new()));
        let short_pta = core.register_pta(Box::new(ShortWindowPta)).unwrap();
        let speech = SpeechFilter::new(
            FilterTaModels {
                stt: audio.stt,
                classifier: audio.classifier,
                classifier_int8: audio.classifier_int8,
            },
            QuantMode::Int8,
            audio.vocabulary,
            AudioEncoding::PcmLe16,
            160,
        );
        let ta = FilterTa::new(
            short_pta,
            speech,
            PrivacyPolicy::allow_all(),
            default_cloud_host(),
            default_psk(),
        );
        core.register_ta(Box::new(ta)).unwrap();

        let client = TeeClient::connect(Arc::clone(&core));
        let (session, _) = client
            .open_session(TaUuid::from_name(FILTER_TA_NAME), TeeParams::new())
            .unwrap();
        let batch = encode_batch_request(&[(1, 3), (2, 4)]);
        let refused = client.invoke(
            &session,
            cmd::PROCESS_BATCH,
            TeeParams::new().with(0, TeeParam::MemRefInput(batch)),
        );
        assert!(
            matches!(refused, Err(TeeError::Communication { .. })),
            "{refused:?}"
        );
        assert_eq!(platform.stats().snapshot().supplicant_rpcs, 0);
        let stats = client
            .invoke(&session, cmd::GET_STATS, TeeParams::new())
            .unwrap();
        assert_eq!(stats.get(0).as_values(), Some((0, 0)));
        assert_eq!(stats.get(1).as_values(), Some((0, 0)));
    }

    proptest! {
        #[test]
        fn batch_request_decoding_is_total(
            bytes in proptest::collection::vec(any::<u8>(), 0..64),
            dialog_ids in proptest::collection::vec(any::<u64>(), 0..80),
            lengths in proptest::collection::vec(any::<u32>(), 80..81),
        ) {
            // Random bytes never panic; a non-empty whole number of
            // 12-byte windows is refused only past the cap, and anything
            // accepted re-encodes to the same bytes.
            let whole = !bytes.is_empty() && bytes.len() % 12 == 0;
            match decode_batch_request(&bytes) {
                Ok(decoded) => {
                    prop_assert!(whole);
                    prop_assert_eq!(encode_batch_request(&decoded), bytes);
                }
                Err(e) => {
                    prop_assert!(!whole);
                    prop_assert!(matches!(e, TeeError::BadParameters { .. }), "{:?}", e);
                }
            }

            // A well-formed request is accepted up to the cap and refused
            // past it; every truncation of it is ragged or empty, and refused.
            let windows: Vec<(u64, u32)> = dialog_ids.into_iter().zip(lengths).collect();
            let request = encode_batch_request(&windows);
            let decoded = decode_batch_request(&request);
            if windows.is_empty() || windows.len() > MAX_BATCH_WINDOWS {
                prop_assert!(
                    matches!(decoded, Err(TeeError::BadParameters { .. })),
                    "{} windows: {:?}",
                    windows.len(),
                    decoded
                );
            } else {
                prop_assert_eq!(decoded.unwrap(), windows.clone());
                for cut in (0..request.len()).filter(|cut| cut % 12 != 0 || *cut == 0) {
                    prop_assert!(decode_batch_request(&request[..cut]).is_err());
                }
            }
        }
    }
}
