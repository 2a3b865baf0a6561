//! Property-based tests over cross-crate invariants.

use proptest::prelude::*;

use std::sync::OnceLock;

use perisec::core::scheduler::SessionScheduler;
use perisec::devices::codec::{bytes_to_pcm, mulaw_decode, mulaw_encode, pcm_to_bytes};
use perisec::ml::classifier::{Architecture, TrainConfig};
use perisec::ml::int8::{QuantFrameCnn, QuantSensitiveClassifier};
use perisec::ml::plan::FeaturePlan;
use perisec::ml::vision::{FrameCnn, VisionConfig};
use perisec::ml::SensitiveClassifier;
use perisec::optee::crypto::{aead_open, aead_seal, nonce_from_sequence};
use perisec::relay::avs::AvsEvent;
use perisec::relay::netsim::NetworkService;
use perisec::relay::{MockCloudService, SecureChannelClient, PSK_LEN};
use perisec::tz::secure_mem::SecureRam;
use perisec::tz::stats::TzStats;
use perisec::tz::time::SimDuration;
use perisec::workload::corpus::CorpusGenerator;
use perisec::workload::vocab::Vocabulary;

/// One trained CNN classifier plus its int8 deployment form, shared by
/// every proptest case (training once keeps the property fast).
fn quant_pair() -> &'static (SensitiveClassifier, QuantSensitiveClassifier) {
    static PAIR: OnceLock<(SensitiveClassifier, QuantSensitiveClassifier)> = OnceLock::new();
    PAIR.get_or_init(|| {
        let vocabulary = Vocabulary::smart_home();
        let mut generator = CorpusGenerator::new(vocabulary.clone(), 0.5, 0x18A7);
        let corpus = generator.generate(200);
        let examples: Vec<(Vec<usize>, bool)> = corpus
            .iter()
            .map(|u| (u.tokens.clone(), u.sensitive))
            .collect();
        let mut classifier =
            SensitiveClassifier::new(Architecture::Cnn, TrainConfig::small(vocabulary.len()));
        classifier.fit(&examples).expect("classifier trains");
        let int8 = QuantSensitiveClassifier::from_trained(&classifier).expect("cnn quantizes");
        (classifier, int8)
    })
}

/// One trained frame classifier plus its int8 form.
fn vision_quant_pair() -> &'static (FrameCnn, QuantFrameCnn) {
    static PAIR: OnceLock<(FrameCnn, QuantFrameCnn)> = OnceLock::new();
    PAIR.get_or_init(|| {
        let config = VisionConfig::smart_home();
        let examples: Vec<(Vec<u8>, bool)> = (0..80)
            .map(|i| {
                let sensitive = i % 2 == 0;
                let pixels: Vec<u8> = (0..config.width * config.height)
                    .map(|idx| {
                        let y = idx / config.width;
                        if sensitive {
                            if (y + i) % 4 < 2 {
                                225
                            } else {
                                45
                            }
                        } else {
                            115 + ((idx * 11 + i) % 12) as u8
                        }
                    })
                    .collect();
                (pixels, sensitive)
            })
            .collect();
        let mut cnn = FrameCnn::new(config);
        cnn.fit(&examples).expect("frame cnn trains");
        let int8 = QuantFrameCnn::from_trained(&cnn).expect("frame cnn quantizes");
        (cnn, int8)
    })
}

proptest! {
    /// PCM <-> little-endian byte encoding is lossless for any sample set.
    #[test]
    fn pcm_byte_round_trip(samples in proptest::collection::vec(any::<i16>(), 0..2048)) {
        prop_assert_eq!(bytes_to_pcm(&pcm_to_bytes(&samples)), samples);
    }

    /// µ-law companding bounds the relative error for every sample value.
    #[test]
    fn mulaw_error_is_bounded(samples in proptest::collection::vec(any::<i16>(), 1..512)) {
        let decoded = mulaw_decode(&mulaw_encode(&samples));
        for (&original, &restored) in samples.iter().zip(decoded.iter()) {
            let err = (original as i32 - restored as i32).abs();
            prop_assert!(err <= original.unsigned_abs() as i32 / 8 + 132,
                "sample {original} decoded to {restored}");
        }
    }

    /// The AEAD used by secure storage and the relay round-trips any
    /// payload and any associated data.
    #[test]
    fn aead_round_trip(
        payload in proptest::collection::vec(any::<u8>(), 0..1024),
        aad in proptest::collection::vec(any::<u8>(), 0..64),
        key_byte in any::<u8>(),
        sequence in any::<u64>(),
    ) {
        let key = [key_byte; 32];
        let nonce = nonce_from_sequence(sequence);
        let sealed = aead_seal(&key, &nonce, &aad, &payload);
        prop_assert_eq!(aead_open(&key, &nonce, &aad, &sealed).unwrap(), payload);
    }

    /// The secure-RAM allocator never leaks: after dropping every buffer the
    /// pool is back to empty, and it never hands out overlapping addresses.
    #[test]
    fn secure_ram_alloc_free_invariants(sizes in proptest::collection::vec(1usize..8192, 1..32)) {
        let ram = SecureRam::new(0xF000_0000, 1 << 20, TzStats::new());
        let mut buffers = Vec::new();
        for &size in &sizes {
            if let Ok(buf) = ram.alloc(size) {
                buffers.push(buf);
            }
        }
        // No two live buffers overlap.
        for (i, a) in buffers.iter().enumerate() {
            for b in buffers.iter().skip(i + 1) {
                let a_end = a.addr() + a.len() as u64;
                let b_end = b.addr() + b.len() as u64;
                prop_assert!(a_end <= b.addr() || b_end <= a.addr(),
                    "buffers overlap: {:#x}+{} and {:#x}+{}", a.addr(), a.len(), b.addr(), b.len());
            }
        }
        drop(buffers);
        prop_assert_eq!(ram.bytes_in_use(), 0);
    }

    /// Corpus labels always agree with the vocabulary's notion of
    /// sensitivity, for any seed and sensitive fraction.
    #[test]
    fn corpus_labels_are_consistent(seed in any::<u64>(), fraction in 0.0f64..1.0) {
        let vocabulary = Vocabulary::smart_home();
        let mut generator = CorpusGenerator::new(vocabulary.clone(), fraction, seed);
        for utterance in generator.generate(20) {
            prop_assert_eq!(utterance.sensitive, vocabulary.contains_sensitive(&utterance.tokens));
        }
    }

    /// Depth-limited decoding of batched image AVS events: a frame-verdict
    /// record wrapped in up to `MAX_BATCH_DEPTH` batch layers round-trips,
    /// while any crafted nesting beyond the cap is rejected with a codec
    /// error instead of recursing — the same guard the audio batch records
    /// rely on, so untrusted input can never choose the recursion depth.
    #[test]
    fn image_batch_nesting_is_depth_limited(
        dialog_id in any::<u64>(),
        frames in 1u32..64,
        probability_milli in 0u16..=1000,
        depth in 0usize..40,
    ) {
        let leaf = AvsEvent::FrameVerdict { dialog_id, frames, probability_milli };
        let mut event = leaf.clone();
        for _ in 0..depth {
            event = AvsEvent::Batch(vec![event]);
        }
        let decoded = AvsEvent::decode(&event.encode());
        if depth <= AvsEvent::MAX_BATCH_DEPTH {
            // In-cap nesting round-trips exactly, leaf intact.
            let mut inner = decoded.expect("in-cap nesting decodes");
            prop_assert_eq!(&inner, &event);
            for _ in 0..depth {
                inner = match inner {
                    AvsEvent::Batch(mut events) => {
                        prop_assert_eq!(events.len(), 1);
                        events.remove(0)
                    }
                    other => other,
                };
            }
            prop_assert_eq!(inner, leaf);
        } else {
            prop_assert!(decoded.is_err(), "nesting depth {} must be rejected", depth);
        }
    }

    /// Any strict prefix of an encoded batched AVS event fails to decode —
    /// a record truncated in flight can never mis-decode into a shorter
    /// but plausible decision stream (the length-prefixed entries make
    /// every cut detectable).
    #[test]
    fn truncated_batch_records_never_misdecode(
        dialog_ids in proptest::collection::vec(any::<u64>(), 1..8),
        cut in any::<u64>(),
    ) {
        let events: Vec<AvsEvent> = dialog_ids
            .iter()
            .map(|&id| AvsEvent::FrameVerdict {
                dialog_id: id,
                frames: 1 + (id % 16) as u32,
                probability_milli: (id % 1001) as u16,
            })
            .collect();
        let encoded = AvsEvent::Batch(events).encode();
        let cut = (cut as usize) % encoded.len();
        prop_assert!(
            AvsEvent::decode(&encoded[..cut]).is_err(),
            "a {cut}-byte prefix of a {}-byte batch record decoded",
            encoded.len()
        );
    }

    /// A single bit flipped *anywhere* in a sealed explicit-sequence
    /// record — length header, record type, sequence, ciphertext or tag —
    /// makes the cloud reject it loudly (counted, never committed), and
    /// the intact record still commits afterwards.
    #[test]
    fn bitflipped_sealed_records_are_rejected_and_counted(
        dialog_id in any::<u64>(),
        flip in any::<u64>(),
    ) {
        let psk = [0x42u8; PSK_LEN];
        let cloud = MockCloudService::new(psk);
        let mut client = SecureChannelClient::new(psk, 7);
        let server_hello = cloud.handle(1, &client.client_hello());
        client.process_server_hello(&server_hello).unwrap();
        let batch = AvsEvent::Batch(vec![AvsEvent::FrameVerdict {
            dialog_id,
            frames: 3,
            probability_milli: 500,
        }]);
        let record = client.seal_at(0, &batch.encode()).unwrap();
        let mut tampered = record.clone();
        let bit = (flip as usize) % (tampered.len() * 8);
        tampered[bit / 8] ^= 1 << (bit % 8);
        let response = cloud.handle(1, &tampered);
        prop_assert!(response.is_empty(), "tampered record was acknowledged");
        let report = cloud.report();
        prop_assert!(report.events.is_empty(), "tampered record committed a decision");
        prop_assert_eq!(report.rejected_records, 1);
        prop_assert_eq!(report.committed_records, 0);
        // Rejection is per-record: the intact original still commits.
        let ack = cloud.handle(1, &record);
        prop_assert!(!ack.is_empty());
        let report = cloud.report();
        prop_assert_eq!(report.events.len(), 1);
        prop_assert_eq!(report.committed_records, 1);
    }

    /// Virtual durations add up associatively and never go negative.
    #[test]
    fn sim_duration_arithmetic(a in 0u64..1u64 << 40, b in 0u64..1u64 << 40) {
        let da = SimDuration::from_nanos(a);
        let db = SimDuration::from_nanos(b);
        prop_assert_eq!((da + db).as_nanos(), a + b);
        prop_assert_eq!((da - db).as_nanos(), a.saturating_sub(b));
        prop_assert_eq!(da + SimDuration::ZERO, da);
    }

    /// The scheduler's steal pass never drops or duplicates a window, its
    /// load account stays an exact tally of the assignment, the cumulative
    /// makespan never exceeds the greedy scheduler's, and mirrored
    /// schedulers make identical steal decisions — for any batch split of
    /// any ragged weight sequence on any session count, and for any
    /// per-window fixed cost (the crossing + dispatch overhead the steal
    /// weights model on top of frames).
    #[test]
    fn work_stealing_scheduler_invariants(
        weight_seeds in proptest::collection::vec(any::<u64>(), 1..48),
        shape in any::<u64>(),
    ) {
        let sessions = (shape % 7 + 1) as usize;
        let batch = (shape >> 8) as usize % 9 + 1;
        let overhead = (shape >> 16) % 24;
        let weights: Vec<u64> = weight_seeds.iter().map(|s| s % 32).collect();
        let mut stealing = SessionScheduler::with_window_overhead(sessions, overhead);
        let mut mirror = SessionScheduler::with_window_overhead(sessions, overhead);
        for chunk in weights.chunks(batch) {
            // The makespan guarantee is per batch, against the same
            // prior state: stealing never places this batch worse than
            // plain greedy would have from here.
            let mut greedy = stealing.clone();
            greedy.assign(chunk);
            let (assignment, steals) = stealing.assign_with_stealing(chunk);
            let greedy_makespan = greedy.loads().iter().map(|l| l.weight).max().unwrap_or(0);
            let stealing_makespan =
                stealing.loads().iter().map(|l| l.weight).max().unwrap_or(0);
            prop_assert!(
                stealing_makespan <= greedy_makespan,
                "stealing makespan {} exceeds greedy {} on the same batch",
                stealing_makespan,
                greedy_makespan
            );
            // Mirrored schedulers agree on placement *and* steals.
            prop_assert_eq!(
                mirror.assign_with_stealing(chunk),
                (assignment.clone(), steals.clone())
            );
            // Every window placed exactly once, on a real session.
            prop_assert_eq!(assignment.len(), chunk.len());
            for &session in &assignment {
                prop_assert!(session < sessions);
            }
            // Steal records describe the final placement, in effective
            // (overhead-inclusive) weights.
            for steal in &steals {
                prop_assert_eq!(assignment[steal.window], steal.to);
                prop_assert!(steal.from != steal.to);
                prop_assert_eq!(steal.weight, chunk[steal.window].max(1) + overhead);
            }
        }
        // The load account tallies the full sequence: nothing dropped,
        // nothing duplicated.
        let total_windows: u64 = weights.len() as u64;
        let total_weight: u64 = weights.iter().map(|w| (*w).max(1) + overhead).sum();
        prop_assert_eq!(
            stealing.loads().iter().map(|l| l.windows).sum::<u64>(),
            total_windows
        );
        prop_assert_eq!(
            stealing.loads().iter().map(|l| l.weight).sum::<u64>(),
            total_weight
        );
    }

    /// The int8 and f32 forward passes agree within a bounded tolerance
    /// on *random* token sequences — including token ids outside the
    /// vocabulary and degenerate lengths — and the int8 path is
    /// deterministic across independent scratch plans.
    #[test]
    fn int8_and_f32_classifiers_agree_within_tolerance(
        token_seeds in proptest::collection::vec(any::<u64>(), 0..16),
    ) {
        let (f32_model, int8_model) = quant_pair();
        let tokens: Vec<usize> = token_seeds.iter().map(|s| (s % 96) as usize).collect();
        let p_f32 = f32_model.predict(&tokens).expect("f32 predicts");
        let mut plan = FeaturePlan::new();
        let p_int8 = int8_model.predict_with(&tokens, &mut plan).expect("int8 predicts");
        prop_assert!(
            (p_f32 - p_int8).abs() <= 0.2,
            "probability drift {} vs {} on {:?}",
            p_f32, p_int8, tokens
        );
        let mut fresh = FeaturePlan::new();
        prop_assert_eq!(
            int8_model.predict_with(&tokens, &mut fresh).expect("int8 repeats"),
            p_int8
        );
    }

    /// The int8 and f32 frame classifiers agree within a bounded
    /// tolerance on random frames.
    #[test]
    fn int8_and_f32_frame_cnns_agree_within_tolerance(pixel_seed in any::<u64>()) {
        let (f32_model, int8_model) = vision_quant_pair();
        let len = f32_model.frame_len();
        let pixels: Vec<u8> = (0..len)
            .map(|i| {
                let mixed = pixel_seed
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add((i as u64).wrapping_mul(1442695040888963407));
                (mixed >> 33) as u8
            })
            .collect();
        let p_f32 = f32_model.predict(&pixels).expect("f32 predicts");
        let mut plan = FeaturePlan::new();
        let p_int8 = int8_model.predict_with(&pixels, &mut plan).expect("int8 predicts");
        prop_assert!(
            (p_f32 - p_int8).abs() <= 0.25,
            "frame probability drift {} vs {}",
            p_f32, p_int8
        );
    }

    /// The fleet executor never drops or duplicates a device task, for
    /// any fleet size, worker count, steal seed and yield pattern —
    /// every queued device reports exactly once, in device order.
    #[test]
    fn fleet_executor_never_drops_or_duplicates_tasks(
        shape in any::<u64>(),
        yield_seeds in proptest::collection::vec(any::<u64>(), 1..40),
    ) {
        use perisec::core::executor::{
            DeviceTask, ExecutorConfig, FleetExecutor, QueuedDevice, StepOutcome,
        };
        use perisec::core::fleet::{DeviceReport, Modality};
        use perisec::core::report::{CloudOutcome, LatencyBreakdown, PipelineReport, WorkloadSummary};

        struct SyntheticTask {
            device: usize,
            yields: usize,
        }
        impl DeviceTask for SyntheticTask {
            fn step(&mut self) -> perisec::core::Result<StepOutcome> {
                if self.yields == 0 {
                    return Ok(StepOutcome::Complete(Box::new(DeviceReport {
                        device: self.device,
                        modality: Modality::Audio,
                        scenario: format!("prop-{}", self.device),
                        report: PipelineReport {
                            pipeline: "synthetic".to_owned(),
                            workload: WorkloadSummary::default(),
                            latency: LatencyBreakdown::default(),
                            cloud: CloudOutcome::default(),
                            tz: Default::default(),
                            energy: perisec::tz::power::EnergyReport {
                                window: SimDuration::ZERO,
                                total_mj: 0.0,
                                per_component: Default::default(),
                            },
                            virtual_time: SimDuration::ZERO,
                            bytes_to_cloud: 0,
                        },
                    })));
                }
                self.yields -= 1;
                Ok(StepOutcome::Yielded)
            }
        }

        let workers = (shape % 6 + 1) as usize;
        let steal_seed = shape >> 8;
        let tasks: Vec<QueuedDevice> = yield_seeds
            .iter()
            .enumerate()
            .map(|(device, &seed)| {
                let yields = (seed % 7) as usize;
                QueuedDevice::new(device, move || {
                    Ok(Box::new(SyntheticTask { device, yields }) as Box<dyn DeviceTask>)
                })
            })
            .collect();
        let devices = tasks.len();
        let executor = FleetExecutor::new(ExecutorConfig {
            workers,
            steal_seed,
            ..ExecutorConfig::default()
        });
        let (reports, stats) = executor.run(tasks).unwrap();
        prop_assert_eq!(reports.len(), devices);
        for (index, report) in reports.iter().enumerate() {
            prop_assert_eq!(report.device, index);
            prop_assert_eq!(&report.scenario, &format!("prop-{}", index));
        }
        prop_assert_eq!(stats.completed, devices);
        prop_assert!(stats.peak_resident <= stats.workers);
    }
}

/// Decodes one drawn `u64` into a device telemetry snapshot: a few
/// histogram recordings and counters over a fixed name set, all derived
/// from independent bit ranges of the draw.
fn device_telemetry_from_seed(seed: u64) -> perisec::telemetry::DeviceTelemetry {
    use perisec::telemetry::{DeviceTelemetry, LogHistogram};
    const NAMES: [&str; 4] = ["stage.filter", "smc.call", "ta.classify", "tee.rpc"];
    let mut telemetry = DeviceTelemetry::default();
    for (i, name) in NAMES.iter().enumerate() {
        let bits = seed >> (i * 16) & 0xFFFF;
        if bits == 0 {
            continue;
        }
        let mut histogram = LogHistogram::new();
        for n in 0..bits % 5 + 1 {
            histogram.record(SimDuration::from_nanos(bits * 37 + n * 13 + 1));
        }
        telemetry.histograms.insert(name, histogram);
        telemetry.counters.insert(name, bits % 5 + 1);
    }
    telemetry.dropped_spans = seed % 3;
    telemetry
}

proptest! {
    /// The fleet telemetry fold is order-invariant and merge is
    /// commutative/associative: absorbing devices in any order, or
    /// folding any partition of them into partial folds and merging
    /// those in any order, yields the same `FleetTelemetry`. This is the
    /// structural property that keeps fleet telemetry deterministic
    /// under work stealing at any worker count.
    #[test]
    fn telemetry_fold_is_order_invariant(
        device_seeds in proptest::collection::vec(any::<u64>(), 1..24),
        split_seed in any::<u64>(),
    ) {
        use perisec::telemetry::FleetTelemetry;
        let devices: Vec<_> = device_seeds
            .iter()
            .map(|&seed| device_telemetry_from_seed(seed))
            .collect();

        let mut forward = FleetTelemetry::new();
        for (i, d) in devices.iter().enumerate() {
            forward.absorb(i, d.clone());
        }
        let mut backward = FleetTelemetry::new();
        for (i, d) in devices.iter().enumerate().rev() {
            backward.absorb(i, d.clone());
        }
        prop_assert_eq!(&forward, &backward);

        // Partition by one seed bit per device, fold each side, merge in
        // both orders: both equal the flat fold (associativity plus
        // commutativity over an arbitrary partition).
        let mut left = FleetTelemetry::new();
        let mut right = FleetTelemetry::new();
        for (i, d) in devices.iter().enumerate() {
            if split_seed >> (i % 64) & 1 == 0 {
                left.absorb(i, d.clone());
            } else {
                right.absorb(i, d.clone());
            }
        }
        let mut lr = left.clone();
        lr.merge(&right);
        let mut rl = right.clone();
        rl.merge(&left);
        prop_assert_eq!(&lr, &forward);
        prop_assert_eq!(&rl, &forward);
        prop_assert_eq!(forward.devices, devices.len() as u64);
    }
}
