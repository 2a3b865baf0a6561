//! Golden digest of the secure audio capture path.
//!
//! `tests/device_golden.rs` pins what whole devices report; this test
//! pins the layer under it: the bytes and the accounting of the I2S
//! PTA's `CAPTURE_BATCH` on a booted TEE core. It drives ragged window
//! lists (`[1]`, then `[3, 272, 7, 40]`) under both encodings, from a
//! shared playback queue filled with `push_padded` and `push` that runs
//! dry in the middle of the long window, so the silence fill runs. It
//! does so on two platforms whose secure compute penalties differ
//! (Jetson 1.35, `constrained_mcu` 1.8), for two capture formats:
//!
//! * the speech microphone (16 kHz mono) with 160-frame periods, the
//!   devices' own format, whose per-period costs are whole nanoseconds;
//! * a 48 kHz stereo microphone with 161-frame periods, whose per-chunk
//!   wire times and per-period encode compute both round, so a driver
//!   that folded either into one rounding per window would move the
//!   digest.
//!
//! The digest covers the reply bytes and value slot 2, the driver's and
//! the microphone's statistics, the platform's TrustZone counters,
//! every component's busy time and the total energy bits, and the
//! virtual clock. The constant was recorded before the capture chain
//! moved to slice copies and per-window charges; a mismatch means the
//! capture path computes something different.

use std::sync::{Arc, Mutex};

use perisec::core::SharedPlayback;
use perisec::devices::audio::AudioFormat;
use perisec::devices::i2s::I2sConfig;
use perisec::devices::mic::Microphone;
use perisec::optee::{
    PseudoTa, PtaEnv, Supplicant, TaDescriptor, TeeCore, TeeParam, TeeParams, TeeResult,
};
use perisec::secure_driver::pta::{cmd, encode_windows_request};
use perisec::secure_driver::{I2sPta, SecureI2sDriver};
use perisec::tz::platform::Platform;
use perisec::tz::time::SimInstant;

/// Digest recorded before the rewrite; see the module docs.
const CAPTURE_GOLDEN_DIGEST: u64 = 0x9915_baa7_8f6e_77d9;

/// FNV-1a over length-prefixed byte strings.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, data: &[u8]) {
        for byte in (data.len() as u64).to_le_bytes().iter().chain(data) {
            self.0 ^= u64::from(*byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u64s(&mut self, values: &[u64]) {
        for value in values {
            self.bytes(&value.to_le_bytes());
        }
    }
}

/// Registers the PTA while keeping a handle to it, so the test can read
/// the driver's and the microphone's statistics after the core owns it.
struct SharedPta(Arc<Mutex<I2sPta>>);

impl PseudoTa for SharedPta {
    fn descriptor(&self) -> TaDescriptor {
        self.0.lock().unwrap().descriptor()
    }

    fn invoke(&mut self, env: &mut PtaEnv<'_>, cmd: u32, params: &mut TeeParams) -> TeeResult<()> {
        self.0.lock().unwrap().invoke(env, cmd, params)
    }
}

/// A deterministic waveform spanning the whole 16-bit range, so µ-law
/// sees every segment.
fn wave(len: usize, seed: u32) -> Vec<i16> {
    (0..len as u32)
        .map(|i| (i.wrapping_add(seed).wrapping_mul(0x9E37_79B1) >> 16) as u16 as i16)
        .collect()
}

/// The capture formats and their period lengths in frames; see the
/// module docs.
fn formats() -> [(I2sConfig, u64); 2] {
    let speech = I2sConfig::microphone_default();
    let hifi = I2sConfig {
        format: AudioFormat::hifi_48khz_stereo(),
        ..speech
    };
    [(speech, 160), (hifi, 161)]
}

/// Runs the two capture batches on `platform` and folds everything they
/// produce into `digest`.
fn capture_on(
    platform: Platform,
    (config, period_frames): (I2sConfig, u64),
    encoding: u64,
    digest: &mut Fnv,
) {
    let core = TeeCore::boot(platform.clone(), Arc::new(Supplicant::new()));
    let playback = SharedPlayback::new();
    let mic = Microphone::new("golden-mic", config, playback.source()).unwrap();
    let pta = Arc::new(Mutex::new(I2sPta::new(SecureI2sDriver::new(
        platform.clone(),
        mic,
    ))));
    let uuid = core
        .register_pta(Box::new(SharedPta(Arc::clone(&pta))))
        .unwrap();
    let mut configure = TeeParams::new().with(
        0,
        TeeParam::ValueInput {
            a: period_frames,
            b: encoding,
        },
    );
    core.invoke_pta(uuid, cmd::CONFIGURE, &mut configure)
        .unwrap();
    core.invoke_pta(uuid, cmd::START, &mut TeeParams::new())
        .unwrap();

    let capture = |windows: &[usize], digest: &mut Fnv| {
        let mut params =
            TeeParams::new().with(0, TeeParam::MemRefInput(encode_windows_request(windows)));
        core.invoke_pta(uuid, cmd::CAPTURE_BATCH, &mut params)
            .unwrap();
        digest.bytes(params.get(1).as_memref().unwrap());
        let (wire_ns, cpu_ns) = params.get(2).as_values().unwrap();
        digest.u64s(&[wire_ns, cpu_ns]);
    };
    // 500 samples, longer than their 160-sample pad: no padding.
    playback.push_padded(&wave(500, 1), 160);
    capture(&[1], digest);
    // 1,000 samples padded to 8,000, then 20,000 more: the queue holds
    // at most 28,340 samples, against the 51,520 the speech batch reads,
    // so it runs dry inside the 272-period window, mid-chunk.
    playback.push_padded(&wave(1_000, 2), 8_000);
    playback.push(&wave(20_000, 3));
    capture(&[3, 272, 7, 40], digest);
    assert_eq!(playback.remaining(), 0, "the long window ran the queue dry");

    let mut pta = pta.lock().unwrap();
    let driver = pta.driver().stats();
    digest.u64s(&[
        driver.frames_captured,
        driver.periods,
        driver.secure_irqs,
        driver.bytes_delivered,
    ]);
    let mic = pta.driver_mut().mic_mut().stats();
    digest.u64s(&[mic.frames_captured, mic.overrun_samples, mic.chunks]);
    let tz = platform.stats().snapshot();
    digest.u64s(&[
        tz.smc_calls,
        tz.world_switches,
        tz.bytes_to_secure,
        tz.bytes_to_normal,
        tz.supplicant_rpcs,
        tz.irqs,
        tz.secure_irqs,
        tz.secure_ram_peak_bytes,
        tz.permission_faults,
    ]);
    let energy = platform.energy_report();
    for (component, share) in &energy.per_component {
        digest.bytes(format!("{component:?}").as_bytes());
        digest.u64s(&[share.busy.as_nanos()]);
    }
    digest.u64s(&[
        energy.total_mj.to_bits(),
        platform
            .clock()
            .now()
            .duration_since(SimInstant::EPOCH)
            .as_nanos(),
    ]);
}

#[test]
fn capture_batches_match_the_golden_digest() {
    let mut digest = Fnv::new();
    for platform in [Platform::jetson_agx_xavier, Platform::constrained_mcu] {
        for format in formats() {
            for encoding in [0, 1] {
                capture_on(platform(), format, encoding, &mut digest);
            }
        }
    }
    assert_eq!(
        digest.0, CAPTURE_GOLDEN_DIGEST,
        "capture digest moved: {:#018x}",
        digest.0
    );
}
