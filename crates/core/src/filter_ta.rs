//! The filter trusted application.
//!
//! This is the TA of the paper's Fig. 1 (steps 4–7): it receives the
//! encoded audio from the secure I2S driver through the PTA interface,
//! transcribes it with the in-TA speech-to-text model, classifies the
//! transcript with the sensitive-content classifier, applies the privacy
//! policy, and relays only permitted content to the cloud through the
//! TLS-like channel and the TEE supplicant.
//!
//! The raw audio and the transcript never leave the secure world: the
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
use perisec_tz::time::SimDuration;
use perisec_workload::vocab::Vocabulary;

use serde::{Deserialize, Serialize};

use crate::cloud_channel::TaCloudChannel;
use crate::policy::{FilterDecision, PrivacyPolicy};

/// Registered name of the filter TA (its UUID derives from this).
pub const FILTER_TA_NAME: &str = "perisec.filter-ta";

/// Command identifiers of the filter TA.
pub mod cmd {
    /// Replace the privacy policy: value param `a` = mode, `b` =
    /// threshold in thousandths.
    pub const SET_POLICY: u32 = 1;
    /// Query statistics: returns `(processed, forwarded)` and
    /// `(dropped, redacted)`.
    pub const GET_STATS: u32 = 2;
    /// Process a whole batch of capture windows in one invocation — the
    /// transition-amortized path. Param 0 is an input memref encoding the
    /// per-window `(dialog_id, periods)` pairs (see
    /// [`super::encode_batch_request`]); the reply carries the
    /// per-window verdicts in an output memref (see
    /// [`super::decode_batch_verdicts`]), the aggregate
    /// `(capture_wire_ns, capture_cpu_ns)` in value slot 2 and
    /// `(ml_ns, relay_ns)` in value slot 3. All permitted utterances of the
    /// batch are relayed in a **single** sealed record, so the whole batch
    /// costs one send/recv supplicant round trip. The request is bounded
    /// before any capture starts: at most [`super::MAX_BATCH_WINDOWS`]
    /// windows, each at least one period and no longer than the TA's
    /// declared data segment can hold.
    pub const PROCESS_BATCH: u32 = 3;
    /// Blocking drain of the relay's unacked buffer. Invoked once a
    /// scenario has stepped to completion, so records an opportunistic
    /// flush deferred under network faults are retired before the
    /// device's report is assembled. No parameters; errors if the
    /// network stays dead for the whole `hard_rounds` budget.
    pub const FLUSH_RELAY: u32 = 4;
}

/// The most windows one `PROCESS_BATCH` command may carry, in either
/// filter TA. The largest batch a pipeline sends is the adaptive batcher's
/// cap, which is this constant; a longer request from the normal world is
/// refused before any capture starts.
pub const MAX_BATCH_WINDOWS: usize = 64;

/// Encodes a batch-process request: per window, the dialog id as a
/// little-endian `u64` followed by the window length in periods as a
/// little-endian `u32`.
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
/// Both filter TAs call this before they ask their PTA for any capture.
pub(crate) fn bounded_batch_request(
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
pub(crate) fn max_window_units(data_kib: u32, unit_bytes: usize) -> u32 {
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

/// Cumulative statistics of the filter TA.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FilterStats {
    /// Windows processed.
    pub processed: u64,
    /// Utterances forwarded unchanged.
    pub forwarded: u64,
    /// Utterances dropped.
    pub dropped: u64,
    /// Utterances forwarded redacted.
    pub redacted: u64,
}

/// The trained models a [`FilterTa`] hosts: the speech front-end, the f32
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

/// The filter TA.
pub struct FilterTa {
    descriptor: TaDescriptor,
    i2s_pta: TaUuid,
    models: FilterTaModels,
    quant: QuantMode,
    plan: FeaturePlan,
    vocabulary: Vocabulary,
    policy: PrivacyPolicy,
    channel: TaCloudChannel,
    stats: FilterStats,
    encoding: AudioEncoding,
    /// The longest window, in capture periods, whose encoded audio fits
    /// the declared data segment.
    max_window_periods: u32,
}

impl std::fmt::Debug for FilterTa {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FilterTa")
            .field("policy", &self.policy)
            .field("quant", &self.quant)
            .field("stats", &self.stats)
            .finish()
    }
}

impl FilterTa {
    /// Creates the TA. In [`QuantMode::Int8`] (the default elsewhere) the
    /// TA keeps only the *quantized* classifier bytes resident, so its
    /// declared data segment — what registration reserves from the secure
    /// carve-out — shrinks by roughly the compression ratio.
    ///
    /// `encoding` and `period_frames` must match the capture format the
    /// I2S PTA is configured with: the TA decodes the one, and bounds each
    /// requested window by the other.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        i2s_pta: TaUuid,
        models: FilterTaModels,
        quant: QuantMode,
        vocabulary: Vocabulary,
        policy: PrivacyPolicy,
        cloud_host: impl Into<String>,
        psk: [u8; PSK_LEN],
        encoding: AudioEncoding,
        period_frames: usize,
    ) -> Self {
        let model_bytes = match (&quant, &models.classifier_int8) {
            (QuantMode::Int8, Some(int8)) => int8.memory_bytes(),
            _ => models.classifier.memory_bytes_f32(),
        };
        let model_kib = (model_bytes / 1024).max(1) as u32;
        let descriptor = TaDescriptor::new(FILTER_TA_NAME, 64, 256 + model_kib);
        let channels = usize::from(AudioFormat::speech_16khz_mono().channels);
        let period_bytes = period_frames * channels * encoding.bytes_per_sample();
        FilterTa {
            max_window_periods: max_window_units(descriptor.data_kib, period_bytes),
            descriptor,
            i2s_pta,
            models,
            quant,
            plan: FeaturePlan::new(),
            vocabulary,
            policy,
            channel: TaCloudChannel::new(cloud_host, psk),
            stats: FilterStats::default(),
            encoding,
        }
    }

    /// Overrides the relay retry/backoff policy (builder-style).
    #[must_use]
    pub fn with_retry(mut self, retry: crate::RelayRetryConfig) -> Self {
        self.channel.set_retry(retry);
        self
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

    /// Cumulative statistics.
    pub fn stats(&self) -> FilterStats {
        self.stats
    }

    /// Runs the in-TA ML stage over one window of decoded audio, charging
    /// its compute. Returns the recovered tokens, the sensitive
    /// probability and the ML time in nanoseconds.
    ///
    /// The STT front-end always runs over the TA's [`FeaturePlan`] (the
    /// MFCC scratch is mode-independent). The classifier dispatches on
    /// [`QuantMode`]: int8 runs the fused integer kernels over the same
    /// plan; f32 runs the baseline path. Both modes charge the same MAC
    /// count, so virtual-time accounting — and therefore every simulated
    /// latency and energy figure — is mode-independent; the int8 win is
    /// host wall-clock and secure-RAM residency.
    fn run_ml(&mut self, env: &TaEnv<'_>, samples: &[i16]) -> TeeResult<(Vec<usize>, f32, u64)> {
        let tracer = env.tracer();
        let ml_start = env.platform().clock().now();
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
                    .transcribe_to_tokens_int8_with(samples, &mut self.plan),
                QuantMode::F32 => self
                    .models
                    .stt
                    .transcribe_to_tokens_with(samples, &mut self.plan),
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
                    (QuantMode::Int8, Some(int8)) => int8.predict_with(&tokens, &mut self.plan),
                    _ => self.models.classifier.predict_with(&tokens, &mut self.plan),
                }
                .map_err(|e| TeeError::Generic {
                    reason: e.to_string(),
                })?
            }
        };
        let ml_ns = env.platform().clock().elapsed_since(ml_start).as_nanos();
        Ok((tokens, probability, ml_ns))
    }

    /// Applies the policy to one transcribed window, updates the decision
    /// statistics and builds the event to relay (if any content is
    /// permitted to leave the secure world).
    fn decide(
        &mut self,
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
        let decision = self.policy.decide_with_lexicon(probability, lexical_hit);
        let event = match decision {
            FilterDecision::Forward => {
                self.stats.forwarded += 1;
                let words: Vec<String> = tokens
                    .iter()
                    .filter_map(|&t| self.vocabulary.word(t).map(|w| w.text.clone()))
                    .collect();
                (!words.is_empty()).then(|| AvsEvent::TextMessage {
                    dialog_id,
                    text: words.join(" "),
                })
            }
            FilterDecision::ForwardRedacted => {
                self.stats.redacted += 1;
                let redacted: Vec<String> = tokens
                    .iter()
                    .filter_map(|&t| self.vocabulary.word(t))
                    .map(|w| {
                        if w.category.is_sensitive() {
                            "[redacted]".to_owned()
                        } else {
                            w.text.clone()
                        }
                    })
                    .collect();
                (!redacted.is_empty()).then(|| AvsEvent::TextMessage {
                    dialog_id,
                    text: redacted.join(" "),
                })
            }
            FilterDecision::Drop => {
                self.stats.dropped += 1;
                None
            }
        };
        self.stats.processed += 1;
        (decision, event)
    }

    /// The transition-amortized batch path (`cmd::PROCESS_BATCH`): pulls
    /// every window of the batch from the secure driver in one PTA call,
    /// runs the ML stage and the policy per window, and relays **all**
    /// permitted utterances in a single sealed record — so an entire batch
    /// costs one client SMC plus one supplicant send/recv round trip,
    /// instead of one SMC and one round trip per utterance.
    fn process_batch(
        &mut self,
        env: &mut TaEnv<'_>,
        windows: &[(u64, u32)],
        params: &mut TeeParams,
    ) -> TeeResult<()> {
        // 1. One batched capture through the PTA.
        let request = perisec_secure_driver::pta::encode_windows_request(
            &windows.iter().map(|&(_, p)| p as usize).collect::<Vec<_>>(),
        );
        let mut capture = TeeParams::new().with(0, TeeParam::MemRefInput(request));
        env.invoke_pta(
            self.i2s_pta,
            perisec_secure_driver::pta::cmd::CAPTURE_BATCH,
            &mut capture,
        )?;
        let replies = perisec_secure_driver::pta::decode_windows_reply(
            capture.get(1).as_memref().ok_or(TeeError::Communication {
                reason: "pta returned no batched audio".to_owned(),
            })?,
        )?;
        if replies.len() != windows.len() {
            return Err(TeeError::Communication {
                reason: format!(
                    "pta returned {} windows for a {}-window batch",
                    replies.len(),
                    windows.len()
                ),
            });
        }
        let (wire_ns, capture_cpu_ns) = capture.get(2).as_values().unwrap_or((0, 0));

        // 2. Per-window decode, ML and policy; the windows share one
        //    decode buffer, and permitted content accumulates into one
        //    batched relay event.
        let mut verdicts = Vec::with_capacity(windows.len());
        let mut outbound = Vec::new();
        let mut ml_ns_total = 0u64;
        let mut samples = Vec::new();
        for (&(dialog_id, _), reply) in windows.iter().zip(&replies) {
            samples.clear();
            self.encoding.decode_into(reply.encoded, &mut samples);
            let (tokens, probability, ml_ns) = self.run_ml(env, &samples)?;
            ml_ns_total += ml_ns;
            let (decision, event) = self.decide(dialog_id, &tokens, probability);
            verdicts.push((decision, (probability * 1000.0) as u16));
            if let Some(event) = event {
                outbound.push(event);
            }
        }

        // 3. One relay round trip for the whole batch, then the reply
        //    contract — never transcripts or audio.
        crate::cloud_channel::relay_batch_and_pack(
            &mut self.channel,
            env,
            outbound,
            &verdicts,
            (wire_ns, capture_cpu_ns),
            ml_ns_total,
            params,
        )
    }
}

impl TrustedApp for FilterTa {
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
            cmd::PROCESS_BATCH => {
                let windows = bounded_batch_request(params, self.max_window_periods, "period")?;
                // The TA's own bookkeeping cost, once per batch.
                env.charge_cpu(SimDuration::from_micros(10));
                self.process_batch(env, &windows, params)
            }
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
                        a: self.stats.processed,
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
                what: format!("filter ta command {other}"),
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

/// Convenience used by pipelines and tests: the cloud-side counterpart must
/// share this PSK with the TA.
pub fn default_psk() -> [u8; PSK_LEN] {
    [0x5a; PSK_LEN]
}

/// The default cloud hostname pipelines register the mock cloud under.
pub fn default_cloud_host() -> String {
    MockCloudService::HOST.to_owned()
}
