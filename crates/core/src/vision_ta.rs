//! The camera sensor's filter: [`FrameFilter`], the [`WindowFilter`] a
//! [`FilterTa`](crate::filter_ta::FilterTa) runs for frames.
//!
//! It classifies each frame of a window with the in-TA [`FrameCnn`],
//! applies the privacy policy per window, and relays only a **verdict
//! record** ([`AvsEvent::FrameVerdict`]) — a frame count and a coarse
//! probability, never pixels.

use std::sync::Arc;

use perisec_ml::int8::QuantFrameCnn;
use perisec_ml::plan::FeaturePlan;
use perisec_ml::quant::QuantMode;
use perisec_ml::vision::FrameCnn;
use perisec_optee::{TaEnv, TeeError, TeeResult};
use perisec_relay::avs::AvsEvent;

use crate::filter_ta::WindowFilter;
use crate::policy::{FilterDecision, PrivacyPolicy};

/// Registered name of the vision TA (its UUID derives from this).
pub const VISION_TA_NAME: &str = "perisec.vision-ta";

/// The camera sensor's [`WindowFilter`].
///
/// The frame classifier is held behind [`Arc`] so a fleet of camera
/// pipelines shares one trained model instead of retraining per device.
/// In [`QuantMode::Int8`] the int8 deployment form carries the per-frame
/// hot path (fused integer kernels over the TA's [`FeaturePlan`]) and
/// only the quantized bytes are declared against the secure carve-out.
pub struct FrameFilter {
    model: Arc<FrameCnn>,
    model_int8: Option<Arc<QuantFrameCnn>>,
    quant: QuantMode,
}

impl FrameFilter {
    /// Creates the filter around a trained frame classifier, plus — for
    /// [`QuantMode::Int8`] — its int8 deployment form.
    pub fn new(
        model: Arc<FrameCnn>,
        model_int8: Option<Arc<QuantFrameCnn>>,
        quant: QuantMode,
    ) -> Self {
        FrameFilter {
            model,
            model_int8,
            quant,
        }
    }
}

impl WindowFilter for FrameFilter {
    const NAME: &'static str = VISION_TA_NAME;
    const UNIT: &'static str = "frame";
    const STACK_KIB: u32 = 48;
    const DATA_KIB: u32 = 128;
    type Scratch = ();

    fn model_bytes(&self) -> usize {
        match (&self.quant, &self.model_int8) {
            (QuantMode::Int8, Some(int8)) => int8.memory_bytes(),
            _ => self.model.memory_bytes_f32(),
        }
    }

    fn unit_bytes(&self) -> usize {
        self.model.frame_len()
    }

    /// The sensitive probability of a window is the max over its frames:
    /// one suspicious frame taints the window. The frame policy has no
    /// lexicon, and redaction degenerates to forwarding, because a verdict
    /// record contains nothing to redact.
    fn filter(
        &self,
        env: &TaEnv<'_>,
        plan: &mut FeaturePlan,
        _scratch: &mut (),
        policy: &PrivacyPolicy,
        dialog_id: u64,
        pixels: &[u8],
    ) -> TeeResult<(FilterDecision, u16, Option<AvsEvent>)> {
        let tracer = env.tracer();
        let _classify = tracer.span("ta.classify");
        let frame_len = self.model.frame_len();
        let mut probability = 0.0f32;
        for frame in pixels.chunks_exact(frame_len) {
            // Both modes charge the same MAC count — virtual time is
            // mode-independent; int8 wins host time and residency.
            env.charge_compute(self.model.flops_per_inference());
            let p = match (&self.quant, &self.model_int8) {
                (QuantMode::Int8, Some(int8)) => int8.predict_with(frame, plan),
                _ => self.model.predict_with(frame, plan),
            }
            .map_err(|e| TeeError::Generic {
                reason: e.to_string(),
            })?;
            probability = probability.max(p);
        }

        let probability_milli = (probability * 1000.0) as u16;
        let decision = match policy.decide(probability) {
            FilterDecision::ForwardRedacted => FilterDecision::Forward,
            other => other,
        };
        let event = (decision == FilterDecision::Forward).then(|| AvsEvent::FrameVerdict {
            dialog_id,
            frames: (pixels.len() / frame_len) as u32,
            probability_milli,
        });
        Ok((decision, probability_milli, event))
    }
}
