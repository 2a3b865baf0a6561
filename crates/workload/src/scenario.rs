//! Timed end-to-end scenarios.
//!
//! A scenario is what the full pipeline experiments replay: a sequence of
//! utterances spoken at known (virtual) times, with ground-truth labels, so
//! that latency, energy and privacy leakage can all be attributed.

use serde::{Deserialize, Serialize};

use perisec_devices::camera::SceneKind;
use perisec_tz::time::SimDuration;

use crate::corpus::{CorpusGenerator, Utterance};
use crate::vocab::Vocabulary;

/// One event of a scenario.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioEvent {
    /// Index of the event (doubles as the AVS dialog id).
    pub id: u64,
    /// Time offset from the start of the scenario at which the utterance
    /// begins.
    pub at: SimDuration,
    /// The utterance spoken.
    pub utterance: Utterance,
}

/// A named, timed sequence of utterances.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Scenario {
    /// Human-readable scenario name.
    pub name: String,
    /// Events in chronological order.
    pub events: Vec<ScenarioEvent>,
}

impl Scenario {
    /// Builds a scenario from utterances spaced `spacing` apart.
    pub fn from_utterances(
        name: impl Into<String>,
        utterances: Vec<Utterance>,
        spacing: SimDuration,
    ) -> Self {
        let events = utterances
            .into_iter()
            .enumerate()
            .map(|(i, utterance)| ScenarioEvent {
                id: i as u64,
                at: spacing * i as u64,
                utterance,
            })
            .collect();
        Scenario {
            name: name.into(),
            events,
        }
    }

    /// A morning at home: `n` mixed utterances (roughly 40 % sensitive),
    /// one every 20 seconds.
    pub fn smart_speaker_morning(n: usize) -> Self {
        let mut generator = CorpusGenerator::new(Vocabulary::smart_home(), 0.4, 0xA110);
        Scenario::from_utterances(
            "smart-speaker-morning",
            generator.generate(n),
            SimDuration::from_secs(20),
        )
    }

    /// A fully parameterized mix, for sweeps.
    pub fn mixed(n: usize, sensitive_fraction: f64, spacing: SimDuration, seed: u64) -> Self {
        let mut generator =
            CorpusGenerator::new(Vocabulary::smart_home(), sensitive_fraction, seed);
        Scenario::from_utterances(
            format!("mixed-{n}x{:.0}pct", sensitive_fraction * 100.0),
            generator.generate(n),
            spacing,
        )
    }

    /// Fan-out for a device fleet: `devices` scenarios of `n` utterances
    /// each, with per-device corpora derived from `seed` so every device
    /// replays distinct (but reproducible) traffic.
    pub fn fleet(
        devices: usize,
        n: usize,
        sensitive_fraction: f64,
        spacing: SimDuration,
        seed: u64,
    ) -> Vec<Scenario> {
        (0..devices)
            .map(|device| {
                let mut generator = CorpusGenerator::new(
                    Vocabulary::smart_home(),
                    sensitive_fraction,
                    device_seed(seed, device),
                );
                Scenario::from_utterances(
                    format!("fleet-device-{device}"),
                    generator.generate(n),
                    spacing,
                )
            })
            .collect()
    }

    /// Fan-out for a **mega** fleet: like [`Scenario::fleet`], but built
    /// for the 10k-device scale the bounded fleet executor runs at — one
    /// vocabulary and one corpus generator are shared across all devices
    /// (building a fresh vocabulary per device dominates generation cost
    /// at that scale), with each device's traffic drawn sequentially from
    /// the seeded stream, so the fan-out stays distinct-but-reproducible.
    pub fn mega_fleet(
        devices: usize,
        n: usize,
        sensitive_fraction: f64,
        spacing: SimDuration,
        seed: u64,
    ) -> Vec<Scenario> {
        let mut generator =
            CorpusGenerator::new(Vocabulary::smart_home(), sensitive_fraction, seed);
        (0..devices)
            .map(|device| {
                Scenario::from_utterances(
                    format!("mega-device-{device}"),
                    generator.generate(n),
                    spacing,
                )
            })
            .collect()
    }

    /// A command-heavy, privacy-light evening (10 % sensitive).
    pub fn home_automation_evening(n: usize) -> Self {
        let mut generator = CorpusGenerator::new(Vocabulary::smart_home(), 0.1, 0xEE11);
        Scenario::from_utterances(
            "home-automation-evening",
            generator.generate(n),
            SimDuration::from_secs(12),
        )
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the scenario has no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of ground-truth sensitive utterances.
    pub fn sensitive_count(&self) -> usize {
        self.events.iter().filter(|e| e.utterance.sensitive).count()
    }

    /// Ids of the ground-truth sensitive events.
    pub fn sensitive_ids(&self) -> Vec<u64> {
        self.events
            .iter()
            .filter(|e| e.utterance.sensitive)
            .map(|e| e.id)
            .collect()
    }

    /// Total scenario duration (time of the last event).
    pub fn duration(&self) -> SimDuration {
        self.events
            .last()
            .map(|e| e.at)
            .unwrap_or(SimDuration::ZERO)
    }
}

/// One event of a camera scenario: a scene appearing in front of the
/// camera for a number of frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CameraScenarioEvent {
    /// Index of the event (doubles as the AVS dialog id).
    pub id: u64,
    /// Time offset from the start of the scenario at which the scene
    /// appears.
    pub at: SimDuration,
    /// What the camera sees.
    pub scene: SceneKind,
    /// How many frames the pipeline captures of this scene.
    pub frames: usize,
}

/// A named, timed scene schedule — the camera modality's counterpart of
/// [`Scenario`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CameraScenario {
    /// Human-readable scenario name.
    pub name: String,
    /// Events in chronological order.
    pub events: Vec<CameraScenarioEvent>,
}

impl CameraScenario {
    /// Builds a scenario from scenes spaced `spacing` apart, `frames`
    /// frames each.
    pub fn from_scenes(
        name: impl Into<String>,
        scenes: Vec<SceneKind>,
        frames: usize,
        spacing: SimDuration,
    ) -> Self {
        let events = scenes
            .into_iter()
            .enumerate()
            .map(|(i, scene)| CameraScenarioEvent {
                id: i as u64,
                at: spacing * i as u64,
                scene,
                frames: frames.max(1),
            })
            .collect();
        CameraScenario {
            name: name.into(),
            events,
        }
    }

    /// A fully parameterized scene mix, for sweeps: roughly
    /// `sensitive_fraction` of the events show a person or a document.
    pub fn mixed_scenes(
        n: usize,
        sensitive_fraction: f64,
        spacing: SimDuration,
        seed: u64,
    ) -> Self {
        CameraScenario::seeded_scenes(
            format!("scenes-{n}x{:.0}pct", sensitive_fraction * 100.0),
            n,
            sensitive_fraction,
            2,
            spacing,
            seed,
        )
    }

    /// The scene mix of [`CameraScenario::mixed_scenes`] for `seed`, with
    /// `frames` frames per event, built under its final `name`: the
    /// fan-outs format one name per device rather than three.
    fn seeded_scenes(
        name: String,
        n: usize,
        sensitive_fraction: f64,
        frames: usize,
        spacing: SimDuration,
        seed: u64,
    ) -> Self {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(seed);
        let scenes = (0..n)
            .map(|_| {
                if rng.gen_bool(sensitive_fraction.clamp(0.0, 1.0)) {
                    if rng.gen_bool(0.5) {
                        SceneKind::Person
                    } else {
                        SceneKind::Document
                    }
                } else if rng.gen_bool(0.5) {
                    SceneKind::EmptyRoom
                } else {
                    SceneKind::Pet
                }
            })
            .collect();
        CameraScenario::from_scenes(name, scenes, frames, spacing)
    }

    /// A high-fps capture stream: the camera delivers `frames_per_event`
    /// frames per window at a sustained `fps`, so consecutive windows
    /// arrive `frames_per_event / fps` apart. The sensor's frame interval
    /// **is** the pipeline's frame budget: a vision TA keeps up only if it
    /// classifies a window faster than the next one arrives. High-speed
    /// sensors (slow-motion capture, machine-vision line cameras) outrun
    /// a single TA session long before microphones do — the workload the
    /// multi-core TEE scheduler shards across sessions.
    ///
    /// The scene mix matches [`CameraScenario::mixed_scenes`] for the same
    /// seed, so sharded and unsharded runs of a high-fps scenario face
    /// identical content.
    pub fn high_fps(
        n: usize,
        frames_per_event: usize,
        fps: u32,
        sensitive_fraction: f64,
        seed: u64,
    ) -> Self {
        let (frames_per_event, fps, spacing) = high_fps_cadence(frames_per_event, fps);
        CameraScenario::seeded_scenes(
            format!("high-fps-{fps}x{frames_per_event}"),
            n,
            sensitive_fraction,
            frames_per_event,
            spacing,
            seed,
        )
    }

    /// Fan-out for a high-fps camera fleet: `devices` schedules derived
    /// from `seed`, each distinct but reproducible, all at the same rate.
    /// Device `d` gets [`CameraScenario::high_fps`] of its own seed, named
    /// with a `-device-{d}` suffix.
    pub fn fleet_high_fps(
        devices: usize,
        n: usize,
        frames_per_event: usize,
        fps: u32,
        sensitive_fraction: f64,
        seed: u64,
    ) -> Vec<CameraScenario> {
        let (frames_per_event, fps, spacing) = high_fps_cadence(frames_per_event, fps);
        (0..devices)
            .map(|device| {
                CameraScenario::seeded_scenes(
                    format!("high-fps-{fps}x{frames_per_event}-device-{device}"),
                    n,
                    sensitive_fraction,
                    frames_per_event,
                    spacing,
                    device_seed(seed, device),
                )
            })
            .collect()
    }

    /// A **ragged** high-fps stream: windows arrive at a sustained
    /// average rate like [`CameraScenario::high_fps`], but each window
    /// carries a seeded-random frame count in `[min_frames, max_frames]`
    /// — bursty sensors (motion-triggered capture, variable-rate
    /// encoders) rather than a fixed cadence. Ragged mixes are what
    /// defeat greedy least-loaded placement: one heavy window lands on an
    /// already-loaded session and the tail latency blows up, which is
    /// precisely the workload the scheduler's work-stealing pass exists
    /// for.
    pub fn ragged_high_fps(
        n: usize,
        min_frames: usize,
        max_frames: usize,
        fps: u32,
        sensitive_fraction: f64,
        seed: u64,
    ) -> Self {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let min_frames = min_frames.max(1);
        let max_frames = max_frames.max(min_frames);
        let fps = fps.max(1);
        let mean_frames = (min_frames + max_frames).div_ceil(2);
        let spacing = SimDuration::from_nanos(mean_frames as u64 * 1_000_000_000 / u64::from(fps));
        let mut scenario = CameraScenario::mixed_scenes(n, sensitive_fraction, spacing, seed);
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x4A66_ED00);
        for event in &mut scenario.events {
            event.frames = rng.gen_range(min_frames..=max_frames);
        }
        scenario.name = format!("ragged-fps-{fps}x{min_frames}-{max_frames}");
        scenario
    }

    /// Spacing between consecutive events (zero for fewer than two
    /// events). For uniformly spaced scenarios this is the per-event frame
    /// budget the capture source imposes.
    pub fn event_spacing(&self) -> SimDuration {
        match self.events.as_slice() {
            [first, second, ..] => second.at - first.at,
            _ => SimDuration::ZERO,
        }
    }

    /// Fan-out for a camera fleet: `devices` scene schedules derived from
    /// `seed`, each distinct but reproducible. Device `d` gets
    /// [`CameraScenario::mixed_scenes`] of its own seed, named
    /// `camera-device-{d}`.
    pub fn fleet_cameras(
        devices: usize,
        n: usize,
        sensitive_fraction: f64,
        spacing: SimDuration,
        seed: u64,
    ) -> Vec<CameraScenario> {
        (0..devices)
            .map(|device| {
                CameraScenario::seeded_scenes(
                    format!("camera-device-{device}"),
                    n,
                    sensitive_fraction,
                    2,
                    spacing,
                    device_seed(seed, device),
                )
            })
            .collect()
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the scenario has no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Total frames across all events.
    pub fn total_frames(&self) -> usize {
        self.events.iter().map(|e| e.frames).sum()
    }

    /// Number of ground-truth sensitive scenes.
    pub fn sensitive_count(&self) -> usize {
        self.events
            .iter()
            .filter(|e| e.scene.is_sensitive())
            .count()
    }

    /// Ids of the ground-truth sensitive events.
    pub fn sensitive_ids(&self) -> Vec<u64> {
        self.events
            .iter()
            .filter(|e| e.scene.is_sensitive())
            .map(|e| e.id)
            .collect()
    }

    /// Total scenario duration (time of the last event).
    pub fn duration(&self) -> SimDuration {
        self.events
            .last()
            .map(|e| e.at)
            .unwrap_or(SimDuration::ZERO)
    }
}

/// The seed of device `device` in a fleet fan-out derived from `seed`.
fn device_seed(seed: u64, device: usize) -> u64 {
    seed ^ (device as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// A high-fps stream's frames per window, rate (each at least 1) and
/// window spacing: `frames_per_event` frames at `fps`.
fn high_fps_cadence(frames_per_event: usize, fps: u32) -> (usize, u32, SimDuration) {
    let frames_per_event = frames_per_event.max(1);
    let fps = fps.max(1);
    let spacing = SimDuration::from_nanos(frames_per_event as u64 * 1_000_000_000 / u64::from(fps));
    (frames_per_event, fps, spacing)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenarios_are_deterministic_and_timed() {
        let a = Scenario::smart_speaker_morning(10);
        let b = Scenario::smart_speaker_morning(10);
        assert_eq!(a, b);
        assert_eq!(a.len(), 10);
        assert_eq!(a.events[3].at, SimDuration::from_secs(60));
        assert_eq!(a.events[3].id, 3);
        assert_eq!(a.duration(), SimDuration::from_secs(180));
    }

    #[test]
    fn sensitive_accounting_matches_ground_truth() {
        let s = Scenario::mixed(40, 0.5, SimDuration::from_secs(5), 3);
        assert_eq!(s.sensitive_count(), s.sensitive_ids().len());
        for id in s.sensitive_ids() {
            assert!(s.events[id as usize].utterance.sensitive);
        }
        let none = Scenario::mixed(10, 0.0, SimDuration::from_secs(1), 3);
        assert_eq!(none.sensitive_count(), 0);
    }

    #[test]
    fn camera_scenarios_are_deterministic_and_labelled() {
        let a = CameraScenario::mixed_scenes(20, 0.5, SimDuration::from_secs(4), 7);
        let b = CameraScenario::mixed_scenes(20, 0.5, SimDuration::from_secs(4), 7);
        assert_eq!(a, b);
        assert_eq!(a.len(), 20);
        assert_eq!(a.events[5].at, SimDuration::from_secs(20));
        assert_eq!(a.total_frames(), 40);
        assert_eq!(a.sensitive_count(), a.sensitive_ids().len());
        for id in a.sensitive_ids() {
            assert!(a.events[id as usize].scene.is_sensitive());
        }
        let none = CameraScenario::mixed_scenes(10, 0.0, SimDuration::from_secs(1), 7);
        assert_eq!(none.sensitive_count(), 0);
        assert!(!none.is_empty());
    }

    #[test]
    fn camera_fleet_fanout_gives_each_device_distinct_scenes() {
        let scenarios = CameraScenario::fleet_cameras(3, 8, 0.5, SimDuration::from_secs(2), 99);
        assert_eq!(scenarios.len(), 3);
        assert_eq!(scenarios[0].name, "camera-device-0");
        assert_ne!(scenarios[0].events, scenarios[1].events);
        assert_eq!(scenarios[2].len(), 8);
    }

    #[test]
    fn high_fps_scenarios_pin_frames_and_spacing_to_the_rate() {
        let s = CameraScenario::high_fps(12, 4, 2_000, 0.5, 0xFA57);
        assert_eq!(s.len(), 12);
        assert!(s.events.iter().all(|e| e.frames == 4));
        // 4 frames at 2000 fps: windows arrive every 2 ms.
        assert_eq!(s.event_spacing(), SimDuration::from_millis(2));
        assert_eq!(s.total_frames(), 48);
        assert!(s.name.contains("2000"));
        // Same seed, same scene content as the mixed generator: sharded
        // and unsharded runs compare like for like.
        let mixed = CameraScenario::mixed_scenes(12, 0.5, SimDuration::from_millis(2), 0xFA57);
        let scenes: Vec<_> = s.events.iter().map(|e| e.scene).collect();
        let mixed_scenes: Vec<_> = mixed.events.iter().map(|e| e.scene).collect();
        assert_eq!(scenes, mixed_scenes);
        // Degenerate inputs clamp instead of panicking.
        let tiny = CameraScenario::high_fps(1, 0, 0, 0.0, 1);
        assert_eq!(tiny.events[0].frames, 1);
        assert_eq!(tiny.event_spacing(), SimDuration::ZERO);
    }

    #[test]
    fn high_fps_fleet_fanout_gives_each_device_distinct_scenes() {
        let schedules = CameraScenario::fleet_high_fps(3, 8, 2, 960, 0.4, 0xF1);
        assert_eq!(schedules.len(), 3);
        assert!(schedules[0].name.ends_with("device-0"));
        assert_ne!(schedules[0].events, schedules[1].events);
        for s in &schedules {
            assert_eq!(s.event_spacing(), schedules[0].event_spacing());
        }
    }

    #[test]
    fn camera_fanouts_equal_the_public_constructors_renamed() {
        let spacing = SimDuration::from_millis(250);
        for (devices, seed) in [(1, 0), (3, 0xF1), (5, 0x5EED_CAFE), (9, u64::MAX)] {
            let renamed = |mut scenario: CameraScenario, name: String| {
                scenario.name = name;
                scenario
            };
            let fleet = CameraScenario::fleet_high_fps(devices, 6, 2, 30, 0.4, seed);
            let cameras = CameraScenario::fleet_cameras(devices, 6, 0.4, spacing, seed);
            assert_eq!(fleet.len(), devices);
            assert_eq!(cameras.len(), devices);
            for device in 0..devices {
                let device_seed = seed ^ (device as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                let high_fps = CameraScenario::high_fps(6, 2, 30, 0.4, device_seed);
                let name = format!("{}-device-{device}", high_fps.name);
                assert_eq!(fleet[device], renamed(high_fps, name));
                let mixed = CameraScenario::mixed_scenes(6, 0.4, spacing, device_seed);
                assert_eq!(
                    cameras[device],
                    renamed(mixed, format!("camera-device-{device}"))
                );
            }
        }
    }

    #[test]
    fn mega_fleet_fanout_is_distinct_and_reproducible() {
        let a = Scenario::mega_fleet(4, 3, 0.5, SimDuration::from_secs(1), 0x3E6A);
        let b = Scenario::mega_fleet(4, 3, 0.5, SimDuration::from_secs(1), 0x3E6A);
        assert_eq!(a, b);
        assert_eq!(a.len(), 4);
        assert_eq!(a[0].name, "mega-device-0");
        assert_eq!(a[3].len(), 3);
        // Devices draw from one sequential stream: traffic differs.
        assert_ne!(a[0].events, a[1].events);
        // A different seed reshuffles everything.
        let c = Scenario::mega_fleet(4, 3, 0.5, SimDuration::from_secs(1), 0x3E6B);
        assert_ne!(a[0].events, c[0].events);
    }

    #[test]
    fn ragged_high_fps_varies_frames_within_bounds() {
        let s = CameraScenario::ragged_high_fps(32, 1, 24, 960, 0.4, 0x4A66);
        assert_eq!(s.len(), 32);
        assert!(s.events.iter().all(|e| (1..=24).contains(&e.frames)));
        // Really ragged: not every window carries the same frame count.
        let first = s.events[0].frames;
        assert!(s.events.iter().any(|e| e.frames != first));
        // Spacing follows the mean frame count at the requested rate:
        // ceil((1+24)/2) = 13 frames at 960 fps.
        assert_eq!(
            s.event_spacing(),
            SimDuration::from_nanos(13 * 1_000_000_000 / 960)
        );
        // Deterministic, and distinct from the uniform high-fps stream.
        assert_eq!(
            s,
            CameraScenario::ragged_high_fps(32, 1, 24, 960, 0.4, 0x4A66)
        );
        // Degenerate bounds clamp instead of panicking.
        let tiny = CameraScenario::ragged_high_fps(2, 0, 0, 0, 0.0, 1);
        assert!(tiny.events.iter().all(|e| e.frames == 1));
    }

    #[test]
    fn preset_scenarios_have_expected_privacy_profiles() {
        let morning = Scenario::smart_speaker_morning(50);
        let evening = Scenario::home_automation_evening(50);
        assert!(morning.sensitive_count() > evening.sensitive_count());
        assert!(!morning.is_empty());
    }
}
