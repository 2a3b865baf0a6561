//! The vision filter trusted application.
//!
//! The camera-modality sibling of [`crate::filter_ta::FilterTa`]: it pulls
//! raw grayscale frames from the secure camera driver through the camera
//! PTA, featurizes and classifies each frame with the in-TA [`FrameCnn`],
//! applies the privacy policy per window, and relays only **sealed verdict
//! records** ([`AvsEvent::FrameVerdict`]) to the cloud — a frame count and
//! a coarse probability, never pixels.
//!
//! The TA speaks the *same* batch parameter contract as the audio filter
//! TA (`PROCESS_BATCH` with `(dialog_id, frames)` windows in a memref,
//! verdicts + timing out), which is what lets the
//! [`crate::stage::SecureFilterStage`] drive either modality unchanged —
//! the `PipelineStage` abstraction proving itself across sensors.

use std::sync::Arc;

use perisec_ml::int8::QuantFrameCnn;
use perisec_ml::plan::FeaturePlan;
use perisec_ml::quant::QuantMode;
use perisec_ml::vision::FrameCnn;
use perisec_optee::{
    TaDescriptor, TaEnv, TaUuid, TeeError, TeeParam, TeeParams, TeeResult, TrustedApp,
};
use perisec_relay::avs::AvsEvent;
use perisec_relay::tls::PSK_LEN;
use perisec_tz::time::SimDuration;

use serde::{Deserialize, Serialize};

use crate::cloud_channel::TaCloudChannel;
use crate::filter_ta::{bounded_batch_request, max_window_units};
use crate::policy::{FilterDecision, PrivacyPolicy};

/// Registered name of the vision TA (its UUID derives from this).
pub const VISION_TA_NAME: &str = "perisec.vision-ta";

/// Command identifiers of the vision TA. The numeric values match the
/// audio filter TA's so batch-aware clients drive both TAs identically.
pub mod cmd {
    /// Replace the privacy policy: value param `a` = mode, `b` =
    /// threshold in thousandths.
    pub const SET_POLICY: u32 = 1;
    /// Query statistics: returns `(windows, forwarded)` and
    /// `(dropped, frames)`.
    pub const GET_STATS: u32 = 2;
    /// Process a whole batch of frame windows in one invocation. Param 0
    /// is an input memref encoding the per-window `(dialog_id, frames)`
    /// pairs (the same framing as the audio filter TA, see
    /// [`crate::filter_ta::encode_batch_request`]); the reply carries the
    /// per-window verdicts in an output memref, the aggregate
    /// `(wire_ns, capture_cpu_ns)` in value slot 2 and `(ml_ns, relay_ns)`
    /// in value slot 3. All permitted windows of the batch are relayed as
    /// verdict records in a **single** sealed record. The request is
    /// bounded before any capture starts: at most
    /// [`crate::filter_ta::MAX_BATCH_WINDOWS`] windows, each at least one
    /// frame and no longer than the TA's declared data segment can hold.
    pub const PROCESS_BATCH: u32 = 3;
    /// Blocking drain of the relay's unacked buffer. Invoked once a
    /// scenario has stepped to completion, so records an opportunistic
    /// flush deferred under network faults are retired before the
    /// device's report is assembled. No parameters; errors if the
    /// network stays dead for the whole `hard_rounds` budget.
    pub const FLUSH_RELAY: u32 = 4;
}

/// Cumulative statistics of the vision TA.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct VisionStats {
    /// Frame windows processed.
    pub windows: u64,
    /// Frames classified.
    pub frames: u64,
    /// Windows whose verdict was forwarded.
    pub forwarded: u64,
    /// Windows dropped.
    pub dropped: u64,
}

/// The vision TA.
///
/// The frame classifier is held behind [`Arc`] so a fleet of camera
/// pipelines shares one trained model instead of retraining per device.
/// In [`QuantMode::Int8`] the int8 deployment form carries the per-frame
/// hot path (fused integer kernels over the TA's [`FeaturePlan`]) and
/// only the quantized bytes are declared against the secure carve-out.
pub struct VisionTa {
    descriptor: TaDescriptor,
    camera_pta: TaUuid,
    model: Arc<FrameCnn>,
    model_int8: Option<Arc<QuantFrameCnn>>,
    quant: QuantMode,
    plan: FeaturePlan,
    policy: PrivacyPolicy,
    channel: TaCloudChannel,
    stats: VisionStats,
    /// The longest window, in frames, whose pixels fit the declared data
    /// segment.
    max_window_frames: u32,
}

impl std::fmt::Debug for VisionTa {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VisionTa")
            .field("policy", &self.policy)
            .field("quant", &self.quant)
            .field("stats", &self.stats)
            .finish()
    }
}

impl VisionTa {
    /// Creates the TA around a trained frame classifier, plus — for
    /// [`QuantMode::Int8`] — its int8 deployment form.
    pub fn new(
        camera_pta: TaUuid,
        model: Arc<FrameCnn>,
        model_int8: Option<Arc<QuantFrameCnn>>,
        quant: QuantMode,
        policy: PrivacyPolicy,
        cloud_host: impl Into<String>,
        psk: [u8; PSK_LEN],
    ) -> Self {
        let model_bytes = match (&quant, &model_int8) {
            (QuantMode::Int8, Some(int8)) => int8.memory_bytes(),
            _ => model.memory_bytes_f32(),
        };
        let model_kib = (model_bytes / 1024).max(1) as u32;
        let descriptor = TaDescriptor::new(VISION_TA_NAME, 48, 128 + model_kib);
        VisionTa {
            max_window_frames: max_window_units(descriptor.data_kib, model.frame_len()),
            descriptor,
            camera_pta,
            model,
            model_int8,
            quant,
            plan: FeaturePlan::new(),
            policy,
            channel: TaCloudChannel::new(cloud_host, psk),
            stats: VisionStats::default(),
        }
    }

    /// Overrides the relay retry/backoff policy (builder-style).
    #[must_use]
    pub fn with_retry(mut self, retry: crate::RelayRetryConfig) -> Self {
        self.channel.set_retry(retry);
        self
    }

    /// Switches the relay to attested-ingest mode (builder-style); see
    /// [`crate::filter_ta::FilterTa::with_ingest`].
    #[must_use]
    pub fn with_ingest(mut self, measurement: [u8; perisec_relay::MEASUREMENT_LEN]) -> Self {
        self.channel.set_ingest(measurement);
        self
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> VisionStats {
        self.stats
    }

    /// The transition-amortized batch path (`cmd::PROCESS_BATCH`): one
    /// batched frame capture through the camera PTA, per-frame
    /// featurization + classification, per-window policy, and a single
    /// sealed relay record of verdicts for the whole batch.
    fn process_batch(
        &mut self,
        env: &mut TaEnv<'_>,
        windows: &[(u64, u32)],
        params: &mut TeeParams,
    ) -> TeeResult<()> {
        // 1. One batched capture through the camera PTA.
        let request = perisec_secure_driver::camera_pta::encode_frames_request(
            &windows.iter().map(|&(_, f)| f as usize).collect::<Vec<_>>(),
        );
        let mut capture = TeeParams::new().with(0, TeeParam::MemRefInput(request));
        env.invoke_pta(
            self.camera_pta,
            perisec_secure_driver::camera_pta::cmd::CAPTURE_FRAME_BATCH,
            &mut capture,
        )?;
        let replies = perisec_secure_driver::camera_pta::decode_frame_windows_reply(
            capture.get(1).as_memref().ok_or(TeeError::Communication {
                reason: "camera pta returned no batched frames".to_owned(),
            })?,
        )?;
        if replies.len() != windows.len() {
            return Err(TeeError::Communication {
                reason: format!(
                    "camera pta returned {} windows for a {}-window batch",
                    replies.len(),
                    windows.len()
                ),
            });
        }
        let (wire_ns, capture_cpu_ns) = capture.get(2).as_values().unwrap_or((0, 0));

        // 2. Per-window ML + policy; permitted verdicts accumulate into
        //    one batched relay event. The sensitive probability of a
        //    window is the max over its frames (one suspicious frame taints
        //    the window).
        let frame_len = self.model.frame_len();
        let mut verdicts = Vec::with_capacity(windows.len());
        let mut outbound = Vec::new();
        let mut ml_ns_total = 0u64;
        for (&(dialog_id, frames), reply) in windows.iter().zip(&replies) {
            // Hold the reply to the *requested* window length (validated
            // >= 1 at the command boundary) rather than trusting the
            // PTA's echoed count: a short or zero-frame reply must never
            // yield a verdict for content that was not classified.
            let frames = frames as usize;
            if reply.frames != frames || reply.pixels.len() != frames * frame_len {
                return Err(TeeError::Communication {
                    reason: format!(
                        "window of {frames} requested frames delivered {} frames / {} pixel \
                         bytes (model expects {frame_len} per frame)",
                        reply.frames,
                        reply.pixels.len(),
                    ),
                });
            }
            let ml_start = env.platform().clock().now();
            let tracer = env.tracer();
            let _classify = tracer.span("ta.classify");
            let mut probability = 0.0f32;
            for frame in reply.pixels.chunks_exact(frame_len) {
                // Both modes charge the same MAC count — virtual time is
                // mode-independent; int8 wins host time and residency.
                env.charge_compute(self.model.flops_per_inference());
                let p = match (&self.quant, &self.model_int8) {
                    (QuantMode::Int8, Some(int8)) => int8.predict_with(frame, &mut self.plan),
                    _ => self.model.predict_with(frame, &mut self.plan),
                }
                .map_err(|e| TeeError::Generic {
                    reason: e.to_string(),
                })?;
                probability = probability.max(p);
                self.stats.frames += 1;
            }
            ml_ns_total += env.platform().clock().elapsed_since(ml_start).as_nanos();

            // The vision policy has no lexicon; redaction degenerates to
            // forwarding, because a verdict record already contains
            // nothing to redact.
            let probability_milli = (probability * 1000.0) as u16;
            let decision = match self.policy.decide(probability) {
                FilterDecision::ForwardRedacted => FilterDecision::Forward,
                other => other,
            };
            match decision {
                FilterDecision::Forward => {
                    self.stats.forwarded += 1;
                    outbound.push(AvsEvent::FrameVerdict {
                        dialog_id,
                        frames: frames as u32,
                        probability_milli,
                    });
                }
                FilterDecision::Drop => self.stats.dropped += 1,
                FilterDecision::ForwardRedacted => unreachable!("mapped to Forward above"),
            }
            self.stats.windows += 1;
            verdicts.push((decision, probability_milli));
        }

        // 3. One relay round trip for the whole batch, then the same
        //    reply contract as the audio filter TA — never pixels.
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

impl TrustedApp for VisionTa {
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
                let windows = bounded_batch_request(params, self.max_window_frames, "frame")?;
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
                        a: self.stats.windows,
                        b: self.stats.forwarded,
                    },
                );
                params.set(
                    1,
                    TeeParam::ValueOutput {
                        a: self.stats.dropped,
                        b: self.stats.frames,
                    },
                );
                Ok(())
            }
            other => Err(TeeError::ItemNotFound {
                what: format!("vision ta command {other}"),
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
