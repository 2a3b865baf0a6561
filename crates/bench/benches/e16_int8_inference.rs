//! Criterion bench behind experiment E16: the int8 fast path against the
//! f32 baseline for the two TA-side classifiers, plus the planned
//! (allocation-free) MFCC front-end against the allocating one and the
//! VAD energies on their own — the microbenchmark view of the
//! fused-kernel and scratch-plan wins.

use criterion::{criterion_group, criterion_main, Criterion};

use perisec_ml::classifier::{Architecture, SensitiveClassifier, TrainConfig};
use perisec_ml::int8::{QuantFrameCnn, QuantSensitiveClassifier};
use perisec_ml::mfcc::{MfccConfig, MfccExtractor};
use perisec_ml::plan::FeaturePlan;
use perisec_ml::quant::{dot_i8, dot_i8_ref, quantize_activations, QuantizedMatrix};
use perisec_ml::tensor::Matrix;
use perisec_ml::vision::{FrameCnn, VisionConfig};
use perisec_workload::corpus::{to_training_examples, CorpusGenerator};
use perisec_workload::synth::SpeechSynthesizer;
use perisec_workload::vocab::Vocabulary;

fn bench_window_inference(c: &mut Criterion) {
    let vocabulary = Vocabulary::smart_home();
    let mut generator = CorpusGenerator::new(vocabulary.clone(), 0.5, 16);
    let train = to_training_examples(&generator.generate(160));
    let mut classifier =
        SensitiveClassifier::new(Architecture::Cnn, TrainConfig::small(vocabulary.len()));
    classifier.fit(&train).unwrap();
    let int8 = QuantSensitiveClassifier::from_trained(&classifier).unwrap();
    let tokens: Vec<usize> = train[0].0.clone();
    let mut plan = FeaturePlan::new();

    let mut group = c.benchmark_group("e16_window_inference");
    group.sample_size(40);
    group.bench_function("f32_predict", |b| {
        b.iter(|| classifier.predict(&tokens).unwrap());
    });
    group.bench_function("int8_predict", |b| {
        b.iter(|| int8.predict_with(&tokens, &mut plan).unwrap());
    });
    group.finish();
}

fn bench_frame_inference(c: &mut Criterion) {
    let config = VisionConfig::smart_home();
    let corpus: Vec<(Vec<u8>, bool)> = (0..60)
        .map(|i| {
            let sensitive = i % 2 == 0;
            let pixels: Vec<u8> = (0..config.width * config.height)
                .map(|idx| {
                    let y = idx / config.width;
                    if sensitive {
                        if y % 4 < 2 {
                            225
                        } else {
                            45
                        }
                    } else {
                        120 + ((idx * 7 + i) % 9) as u8
                    }
                })
                .collect();
            (pixels, sensitive)
        })
        .collect();
    let mut cnn = FrameCnn::new(config);
    cnn.fit(&corpus).unwrap();
    let int8 = QuantFrameCnn::from_trained(&cnn).unwrap();
    let frame = &corpus[0].0;
    let mut plan = FeaturePlan::new();

    let mut group = c.benchmark_group("e16_frame_inference");
    group.sample_size(40);
    group.bench_function("f32_predict", |b| {
        b.iter(|| cnn.predict(frame).unwrap());
    });
    group.bench_function("int8_predict", |b| {
        b.iter(|| int8.predict_with(frame, &mut plan).unwrap());
    });
    group.finish();
}

fn bench_mfcc_plan(c: &mut Criterion) {
    let synth = SpeechSynthesizer::smart_home();
    let audio = synth.render_tokens(&[3, 17, 42, 9]);
    let extractor = MfccExtractor::new(MfccConfig::speech_16khz());
    let mut plan = FeaturePlan::new();

    let mut group = c.benchmark_group("e16_mfcc_frontend");
    group.sample_size(20);
    group.bench_function("extract_allocating", |b| {
        b.iter(|| extractor.extract(audio.samples()));
    });
    group.bench_function("extract_planned", |b| {
        b.iter(|| extractor.extract_into(audio.samples(), &mut plan));
    });
    let mut energies = Vec::new();
    group.bench_function("frame_energies_planned", |b| {
        b.iter(|| extractor.frame_energies_into(audio.samples(), &mut energies));
    });
    group.finish();
}

fn bench_kernel_variants(c: &mut Criterion) {
    // Spans mirror the conv-column widths the token CNN actually runs
    // (kernel widths 2..=5 over a 48-wide embedding), so the dispatched /
    // scalar ratio here is the one the window metric inherits.
    let span = 192usize;
    let a: Vec<i8> = (0..span).map(|i| ((i * 37 + 11) % 255) as i8).collect();
    let b: Vec<i8> = (0..span).map(|i| ((i * 73 + 5) % 255) as i8).collect();

    let mut group = c.benchmark_group("e16_dot_i8_kernel");
    group.sample_size(40);
    group.bench_function("scalar_ref", |bch| {
        bch.iter(|| dot_i8_ref(&a, &b));
    });
    group.bench_function("dispatched", |bch| {
        bch.iter(|| dot_i8(&a, &b));
    });
    group.finish();

    // Dense head shape from the window classifier (feature 96 -> 32),
    // per-channel quantized so the fused epilogue is exercised too.
    let m = Matrix::random(96, 32, 1.2, 0xE17);
    let q = QuantizedMatrix::quantize_per_col(&m);
    let x: Vec<f32> = (0..96).map(|i| ((i % 19) as f32 - 9.0) / 7.0).collect();
    let mut x_q = Vec::new();
    let x_scale = quantize_activations(&x, &mut x_q);
    let (mut acc, mut out) = (Vec::new(), Vec::new());

    let mut group = c.benchmark_group("e16_matmul_i8_kernel");
    group.sample_size(40);
    group.bench_function("scalar_ref", |bch| {
        bch.iter(|| q.matmul_i8_ref(&x_q, x_scale, &mut acc, &mut out).unwrap());
    });
    group.bench_function("dispatched", |bch| {
        bch.iter(|| q.matmul_i8(&x_q, x_scale, &mut acc, &mut out).unwrap());
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_window_inference,
    bench_frame_inference,
    bench_mfcc_plan,
    bench_kernel_variants
);
criterion_main!(benches);
