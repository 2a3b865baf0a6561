//! The virtual-time span tracer.
//!
//! A [`Tracer`] is shared (cheaply cloned) by every layer of one device's
//! stack — pipeline stages, the TEE core's SMC path, the TAs' inference
//! stages — and timestamps spans off the device's own [`SimClock`].
//! Virtual time is deterministic, so the resulting trace is too: the
//! same scenario yields the same spans with the same durations on any
//! host, at any executor worker count.
//!
//! Every span always lands in a bounded per-name [`LogHistogram`] and a
//! per-name counter. Retaining the individual [`SpanEvent`]s (for
//! chrome-trace / flamegraph export) is opt-in via
//! [`TelemetryConfig::capture_spans`] and capped at
//! [`TelemetryConfig::max_span_events`].
//!
//! A disabled tracer is `None` inside: [`Tracer::span`] is one branch, no
//! lock, no allocation — the zero-cost-when-off contract E18 measures.

use std::collections::BTreeMap;
use std::sync::Arc;

use parking_lot::Mutex;

use perisec_tz::time::{SimClock, SimDuration, SimInstant};

use crate::fleet::DeviceTelemetry;
use crate::hist::LogHistogram;
use crate::TelemetryConfig;

/// One completed span: a named interval of virtual time, with the index
/// of its enclosing span (chrome-trace nesting and flamegraph stacks are
/// reconstructed from `parent`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanEvent {
    /// Static span name (see the span taxonomy in the README).
    pub name: &'static str,
    /// Virtual start instant.
    pub start: SimInstant,
    /// Virtual end instant.
    pub end: SimInstant,
    /// Index of the enclosing span in the same trace, if any.
    pub parent: Option<u32>,
}

impl SpanEvent {
    /// The span's virtual duration.
    pub fn duration(&self) -> SimDuration {
        self.end.duration_since(self.start)
    }
}

#[derive(Default)]
struct TraceState {
    histograms: BTreeMap<&'static str, LogHistogram>,
    counters: BTreeMap<&'static str, u64>,
    spans: Vec<SpanEvent>,
    stack: Vec<u32>,
    dropped_spans: u64,
}

struct TracerInner {
    clock: SimClock,
    capture_spans: bool,
    max_span_events: usize,
    state: Mutex<TraceState>,
}

/// The span tracer. Cheap to clone; clones share state, which is how one
/// device's pipeline, TEE core and TAs write into a single trace.
#[derive(Clone, Default)]
pub struct Tracer {
    inner: Option<Arc<TracerInner>>,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            None => f.write_str("Tracer(disabled)"),
            Some(inner) => {
                let state = inner.state.lock();
                f.debug_struct("Tracer")
                    .field("names", &state.histograms.len())
                    .field("spans", &state.spans.len())
                    .finish()
            }
        }
    }
}

impl Tracer {
    /// The disabled tracer: every operation is a no-op.
    pub fn disabled() -> Self {
        Tracer { inner: None }
    }

    /// A tracer over `clock` per `config` (disabled when
    /// `config.enabled` is false).
    pub fn new(clock: SimClock, config: &TelemetryConfig) -> Self {
        if !config.enabled {
            return Tracer::disabled();
        }
        Tracer {
            inner: Some(Arc::new(TracerInner {
                clock,
                capture_spans: config.capture_spans,
                max_span_events: config.max_span_events,
                state: Mutex::new(TraceState::default()),
            })),
        }
    }

    /// Whether this tracer records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Opens a span named `name`. The span closes (and records) when the
    /// returned guard drops. Disabled tracers return an inert guard.
    pub fn span(&self, name: &'static str) -> Span {
        let Some(inner) = &self.inner else {
            return Span {
                inner: None,
                name,
                start: SimInstant::EPOCH,
                index: None,
            };
        };
        let start = inner.clock.now();
        let mut index = None;
        if inner.capture_spans {
            let mut state = inner.state.lock();
            if state.spans.len() < inner.max_span_events {
                let parent = state.stack.last().copied();
                let i = state.spans.len() as u32;
                state.spans.push(SpanEvent {
                    name,
                    start,
                    end: start,
                    parent,
                });
                state.stack.push(i);
                index = Some(i);
            } else {
                state.dropped_spans += 1;
            }
        }
        Span {
            inner: Some(Arc::clone(inner)),
            name,
            start,
            index,
        }
    }

    /// Adds `n` to the counter `name`.
    pub fn count(&self, name: &'static str, n: u64) {
        if let Some(inner) = &self.inner {
            let mut state = inner.state.lock();
            *state.counters.entry(name).or_insert(0) += n;
        }
    }

    /// Records `duration` into the histogram `name` without opening a
    /// span (for durations measured elsewhere).
    pub fn observe(&self, name: &'static str, duration: SimDuration) {
        if let Some(inner) = &self.inner {
            let mut state = inner.state.lock();
            state.histograms.entry(name).or_default().record(duration);
        }
    }

    /// Copies out the accumulated telemetry.
    pub fn snapshot(&self) -> DeviceTelemetry {
        match &self.inner {
            None => DeviceTelemetry::default(),
            Some(inner) => {
                let state = inner.state.lock();
                DeviceTelemetry {
                    histograms: state.histograms.clone(),
                    counters: state.counters.clone(),
                    spans: state.spans.clone(),
                    dropped_spans: state.dropped_spans,
                }
            }
        }
    }

    /// Cuts an **epoch delta**: writes the metrics recorded since
    /// `baseline` into `delta`, then advances `baseline` to the current
    /// cumulative state. Both buffers are meant to be reused across cuts
    /// (reset `delta` with [`DeviceTelemetry::reset_metrics`] first):
    /// once every series name has appeared, a cut allocates nothing —
    /// histograms are plain value state and counters are `u64`s, so the
    /// diff is in-place assignment per named series.
    ///
    /// Retained span events are *not* diffed (they stay cumulative for
    /// the end-of-run [`Tracer::take`]); `delta.spans` is left untouched.
    /// Cutting does not consume: `take` still drains the full totals.
    pub fn cut_into(&self, baseline: &mut DeviceTelemetry, delta: &mut DeviceTelemetry) {
        let Some(inner) = &self.inner else {
            return;
        };
        let state = inner.state.lock();
        for (name, current) in &state.histograms {
            let base = baseline.histograms.entry(name).or_default();
            current.delta_into(base, delta.histograms.entry(name).or_default());
            *base = current.clone();
        }
        for (name, &current) in &state.counters {
            let base = baseline.counters.entry(name).or_insert(0);
            *delta.counters.entry(name).or_insert(0) = current.saturating_sub(*base);
            *base = current;
        }
        delta.dropped_spans = state.dropped_spans.saturating_sub(baseline.dropped_spans);
        baseline.dropped_spans = state.dropped_spans;
    }

    /// Drains the accumulated telemetry, leaving the tracer empty (the
    /// per-device hand-off into the fleet fold).
    pub fn take(&self) -> DeviceTelemetry {
        match &self.inner {
            None => DeviceTelemetry::default(),
            Some(inner) => {
                let mut state = inner.state.lock();
                let drained = std::mem::take(&mut *state);
                DeviceTelemetry {
                    histograms: drained.histograms,
                    counters: drained.counters,
                    spans: drained.spans,
                    dropped_spans: drained.dropped_spans,
                }
            }
        }
    }
}

/// An open span; closing happens on drop. Spans are expected to nest
/// lexically (guards drop in reverse open order), which every
/// instrumentation site in the workspace satisfies by construction.
#[must_use = "a span records on drop; binding it to _ closes it immediately"]
pub struct Span {
    inner: Option<Arc<TracerInner>>,
    name: &'static str,
    start: SimInstant,
    index: Option<u32>,
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(inner) = self.inner.take() else {
            return;
        };
        let end = inner.clock.now();
        let mut state = inner.state.lock();
        if let Some(index) = self.index {
            if let Some(event) = state.spans.get_mut(index as usize) {
                event.end = end;
            }
            // Unwind the stack through this span (tolerates a child guard
            // leaked past its parent rather than corrupting parentage).
            while let Some(top) = state.stack.pop() {
                if top == index {
                    break;
                }
            }
        }
        state
            .histograms
            .entry(self.name)
            .or_default()
            .record(end.duration_since(self.start));
        *state.counters.entry(self.name).or_insert(0) += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clock() -> SimClock {
        SimClock::new()
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::disabled();
        assert!(!tracer.is_enabled());
        {
            let _span = tracer.span("stage.capture");
            tracer.count("events", 3);
            tracer.observe("latency", SimDuration::from_micros(5));
        }
        let snapshot = tracer.snapshot();
        assert!(snapshot.histograms.is_empty());
        assert!(snapshot.counters.is_empty());
        assert!(snapshot.spans.is_empty());
        // A config with enabled=false behaves identically.
        let off = Tracer::new(clock(), &TelemetryConfig::default());
        assert!(!off.is_enabled());
    }

    #[test]
    fn spans_measure_virtual_time() {
        let clock = clock();
        let tracer = Tracer::new(clock.clone(), &TelemetryConfig::metrics());
        {
            let _span = tracer.span("stage.filter");
            clock.advance(SimDuration::from_micros(7));
        }
        let snapshot = tracer.snapshot();
        let hist = &snapshot.histograms["stage.filter"];
        assert_eq!(hist.count(), 1);
        assert_eq!(hist.max(), SimDuration::from_micros(7));
        assert_eq!(snapshot.counters["stage.filter"], 1);
        // Metrics mode retains no individual events.
        assert!(snapshot.spans.is_empty());
        assert_eq!(snapshot.dropped_spans, 0);
    }

    #[test]
    fn captured_spans_nest_via_parent_indices() {
        let clock = clock();
        let tracer = Tracer::new(clock.clone(), &TelemetryConfig::tracing());
        {
            let _outer = tracer.span("smc.call");
            clock.advance(SimDuration::from_micros(1));
            {
                let _inner = tracer.span("ta.classify");
                clock.advance(SimDuration::from_micros(2));
            }
            clock.advance(SimDuration::from_micros(1));
        }
        let snapshot = tracer.snapshot();
        assert_eq!(snapshot.spans.len(), 2);
        let outer = &snapshot.spans[0];
        let inner = &snapshot.spans[1];
        assert_eq!(outer.name, "smc.call");
        assert_eq!(outer.parent, None);
        assert_eq!(outer.duration(), SimDuration::from_micros(4));
        assert_eq!(inner.name, "ta.classify");
        assert_eq!(inner.parent, Some(0));
        assert_eq!(inner.duration(), SimDuration::from_micros(2));
    }

    #[test]
    fn span_capture_is_bounded() {
        let clock = clock();
        let config = TelemetryConfig {
            max_span_events: 3,
            ..TelemetryConfig::tracing()
        };
        let tracer = Tracer::new(clock.clone(), &config);
        for _ in 0..5 {
            let _span = tracer.span("stage.capture");
            clock.advance(SimDuration::from_nanos(10));
        }
        let snapshot = tracer.snapshot();
        assert_eq!(snapshot.spans.len(), 3);
        assert_eq!(snapshot.dropped_spans, 2);
        // Histograms still saw every span.
        assert_eq!(snapshot.histograms["stage.capture"].count(), 5);
    }

    #[test]
    fn take_drains_state() {
        let clock = clock();
        let tracer = Tracer::new(clock.clone(), &TelemetryConfig::metrics());
        tracer.count("windows", 4);
        let first = tracer.take();
        assert_eq!(first.counters["windows"], 4);
        assert!(tracer.take().counters.is_empty());
    }

    #[test]
    fn epoch_cuts_diff_without_consuming() {
        let clock = clock();
        let tracer = Tracer::new(clock.clone(), &TelemetryConfig::metrics());
        let mut baseline = DeviceTelemetry::default();
        let mut delta = DeviceTelemetry::default();
        {
            let _span = tracer.span("stage.filter");
            clock.advance(SimDuration::from_micros(2));
        }
        tracer.count("pipeline.windows", 3);
        tracer.cut_into(&mut baseline, &mut delta);
        assert_eq!(delta.histograms["stage.filter"].count(), 1);
        assert_eq!(delta.counters["pipeline.windows"], 3);

        // Second epoch: reset the scratch, record more, cut again — the
        // delta holds only the new recordings.
        delta.reset_metrics();
        {
            let _span = tracer.span("stage.filter");
            clock.advance(SimDuration::from_micros(4));
        }
        tracer.cut_into(&mut baseline, &mut delta);
        assert_eq!(delta.histograms["stage.filter"].count(), 1);
        assert_eq!(
            delta.histograms["stage.filter"].mean(),
            SimDuration::from_micros(4)
        );
        assert_eq!(delta.counters["pipeline.windows"], 0);
        assert!(!delta.is_quiet());

        // An idle epoch cuts to all-zero values (quiet, not empty).
        delta.reset_metrics();
        tracer.cut_into(&mut baseline, &mut delta);
        assert!(delta.is_quiet());
        assert!(!delta.is_empty());

        // Cuts never consume: take() still drains the full totals.
        let total = tracer.take();
        assert_eq!(total.histograms["stage.filter"].count(), 2);
        assert_eq!(total.counters["pipeline.windows"], 3);
    }

    #[test]
    fn clones_share_state() {
        let clock = clock();
        let tracer = Tracer::new(clock.clone(), &TelemetryConfig::metrics());
        let clone = tracer.clone();
        clone.count("shared", 1);
        assert_eq!(tracer.snapshot().counters["shared"], 1);
    }
}
