//! Camera sensor model.
//!
//! The paper names cameras alongside microphones as the peripherals whose
//! data can leak sensitive information (images of people, documents). The
//! camera model is intentionally lighter than the audio path — the paper's
//! proof of concept focuses on I2S audio — but it produces frames with
//! enough structure for the image-side classifier and for the scalability
//! experiment (E9): every frame carries a small grayscale pixel block whose
//! statistics differ between "scene kinds".
//!
//! # Render order
//!
//! A frame is a pure function of the sensor's RNG stream, drawn in a fixed
//! order: first the scene's centre (`Person`: `cx` then `cy`; `Pet`: `cx`),
//! then one background draw per pixel in row-major order. The renderer
//! draws a whole row's backgrounds, writing each as its pixel, before it
//! computes the row's disc pixels, so the disc arithmetic runs in a loop
//! with no RNG in it and vectorises; the stream, and so every pixel, is
//! the same as drawing pixel by pixel.
//!
//! `Person` and `Pet` darken a disc: a pixel at distance `r` from the
//! centre gets `base - depth * (1 - d)` with `d = r / radius` when
//! `d < 1`, and its background draw `base` otherwise. `dx²` is computed
//! once per column and `dy²` once per row, and each pixel evaluates
//! `(dx² + dy²).sqrt() / radius` exactly as written, in that order.
//! Only pixels inside the disc's bounding box widened by one pixel,
//! `|x - cx| <= radius + 1` and `|y - cy| <= radius + 1`, take that
//! expression. Outside the box the true distance exceeds `radius + 1`;
//! every operation on the way to `d` is correctly rounded and so
//! monotone, and its rounding errs by far less than `1 / radius`, so the
//! computed `d` is strictly greater than 1 and the pixel is its background
//! draw alone, as the full expression would make it.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use perisec_tz::time::SimDuration;

use crate::{DeviceError, Result};

/// What a synthetic frame depicts. Determines the pixel statistics and the
/// ground-truth sensitivity label used in experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SceneKind {
    /// An empty room: low-variance, mid-gray pixels. Not sensitive.
    EmptyRoom,
    /// A person present: high-contrast blob in the frame. Sensitive.
    Person,
    /// A document / screen in view: regular high-frequency stripes. Sensitive.
    Document,
    /// A pet moving through the frame: medium-contrast blob. Not sensitive.
    Pet,
}

impl SceneKind {
    /// Ground-truth sensitivity of the scene, per the paper's threat model
    /// (people and readable documents are private; empty rooms and pets are
    /// not).
    pub fn is_sensitive(self) -> bool {
        matches!(self, SceneKind::Person | SceneKind::Document)
    }

    /// All scene kinds.
    pub const ALL: [SceneKind; 4] = [
        SceneKind::EmptyRoom,
        SceneKind::Person,
        SceneKind::Document,
        SceneKind::Pet,
    ];
}

/// A captured frame: grayscale pixels plus capture metadata.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ImageFrame {
    /// Frame width in pixels.
    pub width: u32,
    /// Frame height in pixels.
    pub height: u32,
    /// Row-major grayscale pixels (one byte per pixel).
    pub pixels: Vec<u8>,
    /// The scene the synthetic generator rendered (ground truth for
    /// experiments; a real frame would not carry this).
    pub scene: SceneKind,
    /// Frame sequence number.
    pub sequence: u64,
}

impl ImageFrame {
    /// Size of the pixel payload in bytes.
    pub fn byte_len(&self) -> usize {
        self.pixels.len()
    }

    /// Mean pixel intensity in `[0, 255]`.
    pub fn mean_intensity(&self) -> f64 {
        if self.pixels.is_empty() {
            return 0.0;
        }
        self.pixels.iter().map(|&p| p as f64).sum::<f64>() / self.pixels.len() as f64
    }

    /// Pixel intensity variance.
    pub fn intensity_variance(&self) -> f64 {
        if self.pixels.is_empty() {
            return 0.0;
        }
        let mean = self.mean_intensity();
        self.pixels
            .iter()
            .map(|&p| {
                let d = p as f64 - mean;
                d * d
            })
            .sum::<f64>()
            / self.pixels.len() as f64
    }
}

/// Where the scenes in front of a camera come from.
///
/// This mirrors [`crate::signal::SignalSource`] on the audio side: the
/// "physical world" in front of the sensor is modelled outside the sensor
/// itself, so scenario runners can schedule what the camera sees while the
/// driver that owns the sensor stays oblivious to the ground truth.
pub trait SceneSource: Send {
    /// The scene in front of the camera for the next frame.
    fn next_scene(&mut self) -> SceneKind;

    /// Human-readable description (for traces).
    fn describe(&self) -> String {
        "scene source".to_owned()
    }
}

/// A scene source that always shows the same scene.
#[derive(Debug, Clone, Copy)]
pub struct FixedScene(pub SceneKind);

impl SceneSource for FixedScene {
    fn next_scene(&mut self) -> SceneKind {
        self.0
    }

    fn describe(&self) -> String {
        format!("fixed scene {:?}", self.0)
    }
}

/// A camera sensor producing synthetic frames.
#[derive(Debug)]
pub struct CameraSensor {
    name: String,
    width: u32,
    height: u32,
    fps: u32,
    rng: SmallRng,
    sequence: u64,
    streaming: bool,
    /// One row's background draws (sized on the first disc frame).
    row: Vec<f64>,
    /// `dx²` per column for the current frame's disc.
    dx2: Vec<f64>,
}

/// The darkened disc of a `Person` or `Pet` frame.
#[derive(Debug, Clone, Copy)]
struct Disc {
    cx: f64,
    cy: f64,
    radius: f64,
    /// Mean background level; each pixel draws `base ± noise`.
    base: f64,
    noise: f64,
    /// How much darker the disc's centre is than its background.
    depth: f64,
}

impl CameraSensor {
    /// Creates a camera named `name` with the given geometry and frame rate.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::UnsupportedConfig`] for a width or height
    /// below 2 (a `Person` scene places its centre in the middle half of
    /// each axis, which is empty on a 1-pixel axis) or a zero frame rate.
    pub fn new(
        name: impl Into<String>,
        width: u32,
        height: u32,
        fps: u32,
        seed: u64,
    ) -> Result<Self> {
        if width < 2 || height < 2 || fps == 0 {
            return Err(DeviceError::UnsupportedConfig {
                reason: "camera dimensions must be at least 2 and the frame rate non-zero"
                    .to_owned(),
            });
        }
        Ok(CameraSensor {
            name: name.into(),
            width,
            height,
            fps,
            rng: SmallRng::seed_from_u64(seed),
            sequence: 0,
            streaming: false,
            row: Vec::new(),
            dx2: Vec::new(),
        })
    }

    /// A small smart-home style camera (64x48 @ 15 fps) — kept tiny so the
    /// in-TEE image classifier stays within secure-memory budgets, matching
    /// the paper's "smaller ML models" mitigation.
    ///
    /// # Errors
    ///
    /// Never fails for the fixed parameters; the `Result` mirrors
    /// [`CameraSensor::new`].
    pub fn smart_home(name: impl Into<String>, seed: u64) -> Result<Self> {
        CameraSensor::new(name, 64, 48, 15, seed)
    }

    /// Device name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Frame width in pixels.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Frame height in pixels.
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Configured frame rate.
    pub fn fps(&self) -> u32 {
        self.fps
    }

    /// Time between consecutive frames.
    pub fn frame_interval(&self) -> SimDuration {
        SimDuration::from_secs_f64(1.0 / self.fps as f64)
    }

    /// Starts streaming.
    pub fn start(&mut self) {
        self.streaming = true;
    }

    /// Stops streaming.
    pub fn stop(&mut self) {
        self.streaming = false;
    }

    /// Whether the sensor is streaming.
    pub fn is_streaming(&self) -> bool {
        self.streaming
    }

    /// Captures one frame of the given scene.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::InvalidState`] if the camera is not streaming.
    pub fn capture_frame(&mut self, scene: SceneKind) -> Result<ImageFrame> {
        let mut pixels = vec![0u8; self.width as usize * self.height as usize];
        let sequence = self.render(scene, &mut pixels)?;
        Ok(ImageFrame {
            width: self.width,
            height: self.height,
            pixels,
            scene,
            sequence,
        })
    }

    /// Captures one frame of the given scene into `pixels`, row-major,
    /// without allocating: the same pixels [`CameraSensor::capture_frame`]
    /// returns.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::InvalidState`] if the camera is not streaming.
    ///
    /// # Panics
    ///
    /// Panics if `pixels` does not hold exactly `width * height` bytes.
    pub fn capture_into(&mut self, scene: SceneKind, pixels: &mut [u8]) -> Result<()> {
        assert_eq!(
            pixels.len(),
            self.width as usize * self.height as usize,
            "frame buffer must hold exactly one frame"
        );
        self.render(scene, pixels).map(|_| ())
    }

    /// Captures one frame of whatever scene the source presents into
    /// `pixels`, as [`CameraSensor::capture_into`].
    ///
    /// # Errors
    ///
    /// Same as [`CameraSensor::capture_into`].
    ///
    /// # Panics
    ///
    /// Same as [`CameraSensor::capture_into`].
    pub fn capture_from_into(
        &mut self,
        source: &mut dyn SceneSource,
        pixels: &mut [u8],
    ) -> Result<()> {
        let scene = source.next_scene();
        self.capture_into(scene, pixels)
    }

    /// Renders one frame of `scene` into `pixels` (`width * height` bytes)
    /// in the order the module docs set out, and returns its sequence
    /// number.
    fn render(&mut self, scene: SceneKind, pixels: &mut [u8]) -> Result<u64> {
        if !self.streaming {
            return Err(DeviceError::InvalidState {
                operation: "capture frame".to_owned(),
                state: "stopped".to_owned(),
            });
        }
        let (w, h) = (self.width as usize, self.height as usize);
        match scene {
            SceneKind::EmptyRoom => {
                for p in pixels.iter_mut() {
                    *p = 120u8.saturating_add(self.rng.gen_range(0..8));
                }
            }
            SceneKind::Person => {
                // Background plus a dark high-contrast blob roughly centred.
                let cx = self.rng.gen_range(w / 4..3 * w / 4) as f64;
                let cy = self.rng.gen_range(h / 4..3 * h / 4) as f64;
                let disc = Disc {
                    cx,
                    cy,
                    radius: (w.min(h) as f64) / 3.0,
                    base: 130.0,
                    noise: 6.0,
                    depth: 90.0,
                };
                self.render_disc(disc, pixels);
            }
            SceneKind::Document => {
                // High-frequency horizontal stripes (text lines on a bright page).
                for (y, row) in pixels.chunks_exact_mut(w).enumerate() {
                    let stripe: i16 = if y % 4 < 2 { 230 } else { 40 };
                    for p in row {
                        let noise: i16 = self.rng.gen_range(-10..10);
                        *p = (stripe + noise).clamp(0, 255) as u8;
                    }
                }
            }
            SceneKind::Pet => {
                let cx = self.rng.gen_range(0..w) as f64;
                let disc = Disc {
                    cx,
                    cy: (h as f64) * 0.8,
                    radius: (w.min(h) as f64) / 6.0,
                    base: 125.0,
                    noise: 5.0,
                    depth: 40.0,
                };
                self.render_disc(disc, pixels);
            }
        }
        let sequence = self.sequence;
        self.sequence += 1;
        Ok(sequence)
    }

    /// Background draws plus `disc`, row by row (see the module docs for
    /// the order and the bounding box).
    fn render_disc(&mut self, disc: Disc, pixels: &mut [u8]) {
        let Disc {
            cx,
            cy,
            radius,
            base,
            noise,
            depth,
        } = disc;
        let w = self.width as usize;
        self.row.resize(w, 0.0);
        self.dx2.resize(w, 0.0);
        for (x, dx2) in self.dx2.iter_mut().enumerate() {
            *dx2 = (x as f64 - cx).powi(2);
        }
        // Columns x0..x1 are those with |x - cx| <= reach.
        let reach = radius + 1.0;
        let x0 = (cx - reach).ceil().max(0.0) as usize;
        let x1 = ((cx + reach).floor() as usize + 1).min(w);
        for (y, pixel_row) in pixels.chunks_exact_mut(w).enumerate() {
            for (p, bg) in pixel_row.iter_mut().zip(self.row.iter_mut()) {
                *bg = base + self.rng.gen_range(-noise..noise);
                *p = bg.clamp(0.0, 255.0) as u8;
            }
            let dy = y as f64 - cy;
            if dy.abs() > reach {
                continue;
            }
            let dy2 = dy.powi(2);
            let in_box = pixel_row[x0..x1]
                .iter_mut()
                .zip(&self.row[x0..x1])
                .zip(&self.dx2[x0..x1]);
            for ((p, &bg), &dx2) in in_box {
                let d = (dx2 + dy2).sqrt() / radius;
                let v = if d < 1.0 { bg - depth * (1.0 - d) } else { bg };
                *p = v.clamp(0.0, 255.0) as u8;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngCore;

    fn camera() -> CameraSensor {
        let mut cam = CameraSensor::smart_home("cam0", 42).unwrap();
        cam.start();
        cam
    }

    /// The per-pixel renderer the row-wise one replaced, kept as the
    /// oracle it must match pixel for pixel and draw for draw.
    fn oracle_pixels(cam: &mut CameraSensor, scene: SceneKind) -> Vec<u8> {
        let (w, h) = (cam.width as usize, cam.height as usize);
        let mut pixels = vec![0u8; w * h];
        match scene {
            SceneKind::EmptyRoom => {
                for p in pixels.iter_mut() {
                    *p = 120u8.saturating_add(cam.rng.gen_range(0..8));
                }
            }
            SceneKind::Person => {
                let cx = cam.rng.gen_range(w / 4..3 * w / 4) as f64;
                let cy = cam.rng.gen_range(h / 4..3 * h / 4) as f64;
                let radius = (w.min(h) as f64) / 3.0;
                for y in 0..h {
                    for x in 0..w {
                        let d =
                            (((x as f64 - cx).powi(2) + (y as f64 - cy).powi(2)).sqrt()) / radius;
                        let base = 130.0 + cam.rng.gen_range(-6.0f64..6.0);
                        let v = if d < 1.0 {
                            base - 90.0 * (1.0 - d)
                        } else {
                            base
                        };
                        pixels[y * w + x] = v.clamp(0.0, 255.0) as u8;
                    }
                }
            }
            SceneKind::Document => {
                for y in 0..h {
                    for x in 0..w {
                        let stripe = if y % 4 < 2 { 230 } else { 40 };
                        let noise: i16 = cam.rng.gen_range(-10..10);
                        pixels[y * w + x] = (stripe as i16 + noise).clamp(0, 255) as u8;
                    }
                }
            }
            SceneKind::Pet => {
                let cx = cam.rng.gen_range(0..w) as f64;
                let radius = (w.min(h) as f64) / 6.0;
                for y in 0..h {
                    for x in 0..w {
                        let d = (((x as f64 - cx).powi(2) + (y as f64 - (h as f64) * 0.8).powi(2))
                            .sqrt())
                            / radius;
                        let base = 125.0 + cam.rng.gen_range(-5.0f64..5.0);
                        let v = if d < 1.0 {
                            base - 40.0 * (1.0 - d)
                        } else {
                            base
                        };
                        pixels[y * w + x] = v.clamp(0.0, 255.0) as u8;
                    }
                }
            }
        }
        pixels
    }

    fn streaming(width: u32, height: u32, seed: u64) -> CameraSensor {
        let mut cam = CameraSensor::new("cam", width, height, 15, seed).unwrap();
        cam.start();
        cam
    }

    /// Renders `scenes` through `capture_frame`, `capture_into` and the
    /// oracle on three sensors of one seed, and checks every frame and the
    /// draw each stream is at afterwards.
    fn check_against_oracle(
        width: u32,
        height: u32,
        seed: u64,
        scenes: &[SceneKind],
    ) -> std::result::Result<(), String> {
        let mut fast = streaming(width, height, seed);
        let mut into = streaming(width, height, seed);
        let mut oracle = streaming(width, height, seed);
        let mut buf = vec![0xA5u8; width as usize * height as usize];
        for (i, &scene) in scenes.iter().enumerate() {
            let expected = oracle_pixels(&mut oracle, scene);
            let frame = fast.capture_frame(scene).map_err(|e| e.to_string())?;
            into.capture_into(scene, &mut buf)
                .map_err(|e| e.to_string())?;
            if frame.pixels != expected || buf != expected {
                return Err(format!(
                    "{width}x{height} seed {seed}: frame {i} ({scene:?}) differs from the oracle"
                ));
            }
            if frame.sequence != i as u64 {
                return Err(format!("frame {i} has sequence {}", frame.sequence));
            }
        }
        let next = oracle.rng.next_u64();
        if fast.rng.next_u64() != next || into.rng.next_u64() != next {
            return Err(format!(
                "{width}x{height} seed {seed}: RNG stream position differs after {scenes:?}"
            ));
        }
        Ok(())
    }

    proptest::proptest! {
        #[test]
        fn renderer_matches_the_per_pixel_oracle(
            seed in proptest::prelude::any::<u64>(),
            width in 2u32..=160,
            height in 2u32..=120,
            kinds in proptest::collection::vec(0usize..4, 1..9),
        ) {
            let scenes: Vec<SceneKind> = kinds.iter().map(|&k| SceneKind::ALL[k]).collect();
            check_against_oracle(width, height, seed, &scenes)?;
        }
    }

    #[test]
    fn renderer_matches_the_oracle_on_edge_geometries() {
        // Smallest frames, radii that are not integers (sides not divisible
        // by 3 or 6), tall and wide frames and the deployed 64x48.
        let geometries = [
            (2, 2),
            (3, 2),
            (2, 3),
            (7, 5),
            (33, 100),
            (100, 7),
            (64, 48),
            (160, 120),
        ];
        for (width, height) in geometries {
            for seed in 0..6 {
                check_against_oracle(width, height, seed, &SceneKind::ALL).unwrap();
                check_against_oracle(width, height, seed, &[SceneKind::Pet; 4]).unwrap();
                check_against_oracle(width, height, seed, &[SceneKind::Person; 4]).unwrap();
            }
        }
    }

    #[test]
    #[should_panic(expected = "exactly one frame")]
    fn capture_into_refuses_a_buffer_of_the_wrong_size() {
        let mut cam = camera();
        let _ = cam.capture_into(SceneKind::EmptyRoom, &mut [0u8; 10]);
    }

    #[test]
    fn rejects_degenerate_configs() {
        assert!(CameraSensor::new("bad", 0, 10, 10, 0).is_err());
        assert!(CameraSensor::new("bad", 10, 10, 0, 0).is_err());
    }

    #[test]
    fn rejects_one_pixel_axes_that_a_person_scene_cannot_fill() {
        for (width, height) in [(1, 48), (64, 1), (3, 1), (1, 1)] {
            assert!(
                matches!(
                    CameraSensor::new("thin", width, height, 15, 0),
                    Err(DeviceError::UnsupportedConfig { .. })
                ),
                "{width}x{height} must be refused"
            );
        }
        let mut cam = streaming(2, 2, 0);
        for scene in SceneKind::ALL {
            assert_eq!(cam.capture_frame(scene).unwrap().byte_len(), 4);
        }
    }

    #[test]
    fn capture_requires_streaming() {
        let mut cam = CameraSensor::smart_home("cam0", 1).unwrap();
        assert!(cam.capture_frame(SceneKind::EmptyRoom).is_err());
        cam.start();
        assert!(cam.capture_frame(SceneKind::EmptyRoom).is_ok());
        cam.stop();
        assert!(cam.capture_frame(SceneKind::EmptyRoom).is_err());
    }

    #[test]
    fn frames_have_expected_geometry_and_sequence() {
        let mut cam = camera();
        let a = cam.capture_frame(SceneKind::EmptyRoom).unwrap();
        let b = cam.capture_frame(SceneKind::Person).unwrap();
        assert_eq!(a.byte_len(), 64 * 48);
        assert_eq!(a.sequence, 0);
        assert_eq!(b.sequence, 1);
        assert_eq!(cam.frame_interval(), SimDuration::from_secs_f64(1.0 / 15.0));
    }

    #[test]
    fn scene_kinds_have_distinguishable_statistics() {
        let mut cam = camera();
        let empty = cam.capture_frame(SceneKind::EmptyRoom).unwrap();
        let person = cam.capture_frame(SceneKind::Person).unwrap();
        let document = cam.capture_frame(SceneKind::Document).unwrap();
        // The empty room is the flattest; documents have by far the most variance.
        assert!(person.intensity_variance() > empty.intensity_variance() * 2.0);
        assert!(document.intensity_variance() > person.intensity_variance());
    }

    #[test]
    fn capture_from_draws_scenes_off_the_source() {
        let (mut cam, mut twin) = (camera(), camera());
        let mut source = FixedScene(SceneKind::Document);
        let mut pixels = vec![0u8; 64 * 48];
        cam.capture_from_into(&mut source, &mut pixels).unwrap();
        let frame = twin.capture_frame(SceneKind::Document).unwrap();
        assert_eq!(pixels, frame.pixels);
        assert!(source.describe().contains("Document"));
        cam.stop();
        assert!(cam.capture_from_into(&mut source, &mut pixels).is_err());
    }

    #[test]
    fn sensitivity_ground_truth_follows_threat_model() {
        assert!(SceneKind::Person.is_sensitive());
        assert!(SceneKind::Document.is_sensitive());
        assert!(!SceneKind::EmptyRoom.is_sensitive());
        assert!(!SceneKind::Pet.is_sensitive());
    }
}
