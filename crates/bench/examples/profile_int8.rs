//! Stage-level profiling behind experiment E16: where the window and
//! frame budgets actually go, which eval windows the int8 path decides
//! differently from f32, and the raw kernel throughputs. Run with
//! `cargo run --release -p perisec-bench --example profile_int8` while
//! tuning the integer kernels; `experiments e16` remains the record of truth.
//!
//! This harness times *host* nanoseconds with ad-hoc loops. For
//! *virtual-time* stage/TA/TEE breakdowns — where the simulated budget
//! goes rather than where the host CPU goes — use the telemetry plane
//! instead: `TelemetryConfig::tracing()` on a pipeline, or `experiments e18`
//! for the fleet-scale fold and chrome-trace export.

use std::time::Instant;

use perisec_core::pipeline::{transcribe_corpus, SharedModels};
use perisec_devices::camera::{CameraSensor, SceneKind};
use perisec_ml::classifier::Architecture;
use perisec_ml::plan::FeaturePlan;
use perisec_ml::quant::{dot_i8, dot_i8_ref, quantize_activations, QuantizedMatrix};
use perisec_ml::tensor::Matrix;
use perisec_workload::corpus::CorpusGenerator;
use perisec_workload::vocab::Vocabulary;

fn time(label: &str, iters: usize, mut f: impl FnMut()) -> f64 {
    for _ in 0..iters / 10 + 1 {
        f();
    }
    let started = Instant::now();
    for _ in 0..iters {
        f();
    }
    let ns = started.elapsed().as_nanos() as f64 / iters as f64;
    println!("{label:<42} {ns:>10.1} ns");
    ns
}

fn main() {
    let models = SharedModels::train(Architecture::Cnn, 160, 0xE16).expect("train");
    let audio = models.audio().expect("audio models");
    let classifier = &audio.classifier;
    let int8 = audio.classifier_int8.as_ref().expect("quantizes");
    let vision = models.vision().expect("frame classifier");
    let vision_int8 = models.vision_int8().expect("quantizes");

    // Same eval set as E16 Part 1/3.
    let vocabulary = Vocabulary::smart_home();
    let mut generator = CorpusGenerator::new(vocabulary.clone(), 0.5, 0x16E6);
    let (eval, _) = generator.train_test_split(192, 1);
    let eval = transcribe_corpus(&audio.synth, &audio.stt, &eval).expect("decode eval corpus");
    let windows: Vec<&[usize]> = eval.iter().map(|(t, _)| t.as_slice()).collect();
    let mut plan = FeaturePlan::new();

    println!("== window path ==");
    let n = windows.len() as f64;
    let f32_ns = time("f32 predict (allocating)", 40, || {
        for t in &windows {
            std::hint::black_box(classifier.predict(t).expect("f32"));
        }
    }) / n;
    let int8_ns = time("int8 predict_with", 40, || {
        for t in &windows {
            std::hint::black_box(int8.predict_with(t, &mut plan).expect("int8"));
        }
    }) / n;
    println!(
        "per-window f32 {f32_ns:.0} ns, int8 {int8_ns:.0} ns, speedup ~{:.2}x",
        f32_ns / int8_ns
    );

    println!("== frame path ==");
    let mut camera = CameraSensor::smart_home("prof-cam", 0xE16).expect("camera");
    camera.start();
    let frames: Vec<Vec<u8>> = (0..96)
        .map(|i| {
            camera
                .capture_frame(SceneKind::ALL[i % SceneKind::ALL.len()])
                .expect("frame")
                .pixels
        })
        .collect();
    let nf = frames.len() as f64;
    let f32_frame = time("f32 frame predict (allocating)", 40, || {
        for f in &frames {
            std::hint::black_box(vision.predict(f).expect("f32 frame"));
        }
    }) / nf;
    let int8_frame = time("int8 frame predict_with", 40, || {
        for f in &frames {
            std::hint::black_box(vision_int8.predict_with(f, &mut plan).expect("int8 frame"));
        }
    }) / nf;
    println!(
        "per-frame f32 {f32_frame:.0} ns, int8 {int8_frame:.0} ns, speedup ~{:.2}x",
        f32_frame / int8_frame
    );

    println!("== frame stages ==");
    let vcfg = perisec_ml::vision::VisionConfig::smart_home();
    let (mut means, mut stds) = (Vec::new(), Vec::new());
    time("pool_patches_into (per frame)", 40, || {
        for f in &frames {
            perisec_ml::vision::pool_patches_into(f, &vcfg, &mut means, &mut stds);
            std::hint::black_box(&means);
        }
    });

    println!("== kernels ==");
    let span = 192usize;
    let a: Vec<i8> = (0..span).map(|i| ((i * 37 + 11) % 255) as i8).collect();
    let b: Vec<i8> = (0..span).map(|i| ((i * 73 + 5) % 255) as i8).collect();
    time("dot_i8_ref span 192", 200_000, || {
        std::hint::black_box(dot_i8_ref(
            std::hint::black_box(&a),
            std::hint::black_box(&b),
        ));
    });
    time("dot_i8 span 192", 200_000, || {
        std::hint::black_box(dot_i8(std::hint::black_box(&a), std::hint::black_box(&b)));
    });
    let m = Matrix::random(96, 32, 1.2, 0xE17);
    let q = QuantizedMatrix::quantize_per_col(&m);
    let x: Vec<f32> = (0..96).map(|i| ((i % 19) as f32 - 9.0) / 7.0).collect();
    let mut x_q = Vec::new();
    let x_scale = quantize_activations(&x, &mut x_q);
    let (mut acc, mut out) = (Vec::new(), Vec::new());
    time("matmul_i8_ref 96x32", 50_000, || {
        q.matmul_i8_ref(&x_q, x_scale, &mut acc, &mut out).unwrap();
        std::hint::black_box(&out);
    });
    time("matmul_i8 96x32", 50_000, || {
        q.matmul_i8(&x_q, x_scale, &mut acc, &mut out).unwrap();
        std::hint::black_box(&out);
    });

    println!("== accuracy (same eval as E16 Part 3) ==");
    let acc_f32 = classifier.evaluate(&eval).expect("eval").accuracy();
    let mut int8_correct = 0usize;
    let mut disagreements = Vec::new();
    for (i, (tokens, label)) in eval.iter().enumerate() {
        let p_f32 = classifier.predict(tokens).expect("f32");
        let p_int8 = int8.predict_with(tokens, &mut plan).expect("int8");
        let d_f32 = p_f32 >= int8.threshold();
        let d_int8 = p_int8 >= int8.threshold();
        if d_int8 == *label {
            int8_correct += 1;
        }
        if d_f32 != d_int8 {
            disagreements.push((i, p_f32, p_int8));
        }
    }
    let acc_int8 = int8_correct as f64 / eval.len() as f64;
    println!(
        "f32 {acc_f32:.4}  int8 {acc_int8:.4}  delta {:.2} pt",
        (acc_f32 - acc_int8).abs() * 100.0
    );
    for (i, p_f, p_q) in &disagreements {
        println!("  window {i}: f32 prob {p_f:.5} vs int8 prob {p_q:.5}");
    }
    if disagreements.is_empty() {
        println!("  no decision disagreements");
    }
}
