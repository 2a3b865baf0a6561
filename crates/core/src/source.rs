//! Shared "physical world" sources feeding the secure drivers.
//!
//! The secure drivers own their sensors, but scenario runners need to feed
//! the outside world into those sensors from outside the TEE simulation:
//!
//! * [`SharedPlayback`] is a [`SignalSource`] backed by a sample queue the
//!   runner refills between utterances; the microphone's bus copies each
//!   FIFO chunk out of it as slices and reads silence for whatever the
//!   queue cannot supply.
//! * [`SharedSceneQueue`] is its camera counterpart: a [`SceneSource`]
//!   backed by a scene queue; the camera sensor pops one scene per frame
//!   and sees an empty room when the queue runs dry.

use std::collections::VecDeque;
use std::sync::Arc;

use parking_lot::Mutex;

use perisec_devices::camera::{SceneKind, SceneSource};
use perisec_devices::signal::SignalSource;

/// Shared handle used to refill the queue.
#[derive(Debug, Clone, Default)]
pub struct SharedPlayback {
    queue: Arc<Mutex<VecDeque<i16>>>,
}

impl SharedPlayback {
    /// Creates an empty shared playback queue.
    pub fn new() -> Self {
        SharedPlayback::default()
    }

    /// Appends samples to be played next.
    pub fn push(&self, samples: &[i16]) {
        self.queue.lock().extend(samples);
    }

    /// Appends samples padded with trailing silence up to `total_samples`.
    ///
    /// Batched capture queues several utterances back to back; padding each
    /// to its whole-period window keeps later windows aligned to period
    /// boundaries (the unbatched path gets the same effect from clearing
    /// the queue between utterances).
    pub fn push_padded(&self, samples: &[i16], total_samples: usize) {
        let mut queue = self.queue.lock();
        let padded = queue.len() + samples.len().max(total_samples);
        queue.extend(samples);
        queue.resize(padded, 0);
    }

    /// Number of queued samples not yet consumed.
    pub fn remaining(&self) -> usize {
        self.queue.lock().len()
    }

    /// Discards everything still queued.
    pub fn clear(&self) {
        self.queue.lock().clear();
    }

    /// Creates the [`SignalSource`] half to hand to a microphone.
    pub fn source(&self) -> Box<dyn SignalSource> {
        Box::new(SharedPlaybackSource {
            queue: Arc::clone(&self.queue),
        })
    }
}

struct SharedPlaybackSource {
    queue: Arc<Mutex<VecDeque<i16>>>,
}

impl SignalSource for SharedPlaybackSource {
    fn fill(&mut self, out: &mut [i16]) {
        let mut queue = self.queue.lock();
        let (front, back) = queue.as_slices();
        let from_front = out.len().min(front.len());
        let from_back = (out.len() - from_front).min(back.len());
        out[..from_front].copy_from_slice(&front[..from_front]);
        out[from_front..from_front + from_back].copy_from_slice(&back[..from_back]);
        out[from_front + from_back..].fill(0);
        queue.drain(..from_front + from_back);
    }

    fn describe(&self) -> String {
        format!(
            "shared playback ({} samples queued)",
            self.queue.lock().len()
        )
    }
}

/// Shared handle used to schedule scenes in front of a camera.
#[derive(Debug, Clone, Default)]
pub struct SharedSceneQueue {
    queue: Arc<Mutex<VecDeque<SceneKind>>>,
}

impl SharedSceneQueue {
    /// Creates an empty scene queue.
    pub fn new() -> Self {
        SharedSceneQueue::default()
    }

    /// Appends `frames` frames of `scene`.
    pub fn push(&self, scene: SceneKind, frames: usize) {
        let mut queue = self.queue.lock();
        for _ in 0..frames {
            queue.push_back(scene);
        }
    }

    /// Number of queued frames not yet consumed.
    pub fn remaining(&self) -> usize {
        self.queue.lock().len()
    }

    /// Discards everything still queued.
    pub fn clear(&self) {
        self.queue.lock().clear();
    }

    /// Creates the [`SceneSource`] half to hand to a camera driver.
    pub fn source(&self) -> Box<dyn SceneSource> {
        Box::new(SharedSceneSource {
            queue: Arc::clone(&self.queue),
        })
    }
}

struct SharedSceneSource {
    queue: Arc<Mutex<VecDeque<SceneKind>>>,
}

impl SceneSource for SharedSceneSource {
    fn next_scene(&mut self) -> SceneKind {
        self.queue
            .lock()
            .pop_front()
            .unwrap_or(SceneKind::EmptyRoom)
    }

    fn describe(&self) -> String {
        format!(
            "shared scene queue ({} frames queued)",
            self.queue.lock().len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The next `count` samples of `source`, in one fresh buffer.
    fn take(source: &mut dyn SignalSource, count: usize) -> Vec<i16> {
        let mut out = vec![i16::MIN; count];
        source.fill(&mut out);
        out
    }

    /// The per-call `next_samples` body the slice fill replaced, kept as
    /// the stream oracle.
    fn next_samples_ref(queue: &Mutex<VecDeque<i16>>, count: usize) -> Vec<i16> {
        let mut queue = queue.lock();
        let n = count.min(queue.len());
        let mut out: Vec<i16> = queue.drain(..n).collect();
        out.resize(count, 0);
        out
    }

    /// The per-sample `push_padded` the bulk one replaced.
    fn push_padded_ref(queue: &Mutex<VecDeque<i16>>, samples: &[i16], total_samples: usize) {
        let mut queue = queue.lock();
        queue.extend(samples.iter().copied());
        for _ in samples.len()..total_samples {
            queue.push_back(0);
        }
    }

    proptest! {
        #[test]
        fn playback_matches_the_per_call_oracle_under_any_chunking(
            pushes in proptest::collection::vec(proptest::collection::vec(any::<i16>(), 0..200), 1..8),
            pads in proptest::collection::vec(0usize..300, 8..9),
            chunks in proptest::collection::vec(0usize..100, 1..8),
        ) {
            let playback = SharedPlayback::new();
            let mut source = playback.source();
            let oracle = Mutex::new(VecDeque::new());
            for (round, (samples, &pad)) in pushes.iter().zip(&pads).enumerate() {
                playback.push_padded(samples, pad);
                push_padded_ref(&oracle, samples, pad);
                prop_assert_eq!(playback.remaining(), oracle.lock().len());
                // Some rounds draw less than was queued, so later pushes
                // wrap round the ring; others run the queue dry mid-chunk.
                for &count in &chunks {
                    prop_assert_eq!(
                        take(source.as_mut(), count),
                        next_samples_ref(&oracle, count),
                        "round {} chunk {}", round, count
                    );
                }
                prop_assert_eq!(playback.remaining(), oracle.lock().len());
            }
        }
    }

    #[test]
    fn scene_queue_is_shared_between_handle_and_source() {
        let scenes = SharedSceneQueue::new();
        let mut source = scenes.source();
        assert_eq!(source.next_scene(), SceneKind::EmptyRoom);
        scenes.push(SceneKind::Person, 2);
        scenes.push(SceneKind::Document, 1);
        assert_eq!(scenes.remaining(), 3);
        assert_eq!(source.next_scene(), SceneKind::Person);
        assert_eq!(source.next_scene(), SceneKind::Person);
        assert_eq!(source.next_scene(), SceneKind::Document);
        assert_eq!(source.next_scene(), SceneKind::EmptyRoom);
        scenes.push(SceneKind::Pet, 5);
        scenes.clear();
        assert_eq!(source.next_scene(), SceneKind::EmptyRoom);
        assert!(source.describe().contains("scene queue"));
    }

    #[test]
    fn queue_is_shared_between_handle_and_source() {
        let playback = SharedPlayback::new();
        let mut source = playback.source();
        assert_eq!(take(source.as_mut(), 4), vec![0, 0, 0, 0]);
        playback.push(&[1, 2, 3]);
        assert_eq!(playback.remaining(), 3);
        assert_eq!(take(source.as_mut(), 2), vec![1, 2]);
        assert_eq!(take(source.as_mut(), 4), vec![3, 0, 0, 0]);
        assert_eq!(playback.remaining(), 0);
        playback.push(&[9; 10]);
        playback.clear();
        assert_eq!(take(source.as_mut(), 1), vec![0]);
        assert!(source.describe().contains("shared playback"));
    }
}
