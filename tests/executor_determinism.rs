//! The fleet executor's determinism contract — the executor's mirror of
//! `tests/shard_parity.rs`.
//!
//! Scheduling is a host-side concern: device runs are hermetic (each
//! device owns its platform, virtual clock, TEE core and cloud), so the
//! merged [`FleetReport`] must be **byte-identical** for
//!
//! * any worker count (1, 2, 8),
//! * and whichever worker runs whichever device,
//!
//! while the executor's host telemetry (peak residency, wall-clock) is
//! free to vary. Peak residency itself is pinned: never more than one built
//! device stack per worker — the bounded-memory half of the contract.

use std::collections::BTreeSet;

use perisec::core::fleet::{FleetConfig, PipelineFleet};
use perisec::core::pipeline::{CameraPipelineConfig, DegradeSpec, PipelineConfig, SharedModels};
use perisec::ml::classifier::Architecture;
use perisec::telemetry::{HealthConfig, SloSpec, TelemetryConfig};
use perisec::tz::time::SimDuration;
use perisec::workload::scenario::{CameraScenario, Scenario};

fn fleet_with_workers(workers: usize, models: &SharedModels) -> PipelineFleet {
    PipelineFleet::with_models(
        FleetConfig {
            devices: 2,
            pipeline: PipelineConfig {
                train_utterances: 60,
                batch_windows: 4,
                ..PipelineConfig::default()
            },
            camera_devices: 5,
            camera_pipeline: CameraPipelineConfig {
                batch_windows: 4,
                ..CameraPipelineConfig::default()
            },
            workers,
            ..FleetConfig::of(0)
        },
        models.clone(),
    )
}

#[test]
fn same_seed_reproduces_byte_identical_reports_across_worker_counts() {
    let models =
        SharedModels::deferred(Architecture::Cnn, 60, 0xDE7E).with_vision_spec(120, 0xDE7E);
    let audio = Scenario::fleet(2, 4, 0.5, SimDuration::from_secs(1), 0xDE7E);
    let cameras = CameraScenario::fleet_cameras(5, 4, 0.4, SimDuration::from_secs(1), 0xDE7E);

    let mut jsons = Vec::new();
    for workers in [1usize, 2, 8] {
        let fleet = fleet_with_workers(workers, &models);
        let (report, stats) = fleet.run_mixed_stats(&audio, &cameras).unwrap();
        // The memory contract: at most one resident stack per worker.
        assert!(
            stats.peak_resident <= stats.workers,
            "{workers} workers: peak resident {} exceeded pool {}",
            stats.peak_resident,
            stats.workers
        );
        assert_eq!(stats.completed, 7);
        assert_eq!(report.device_count(), 7);
        jsons.push(report.to_json());
    }
    assert_eq!(jsons[0], jsons[1], "1 vs 2 workers diverged");
    assert_eq!(jsons[1], jsons[2], "2 vs 8 workers diverged");
}

#[test]
fn executor_reports_are_stable_across_repeated_runs() {
    // Same fleet, run twice on the same worker count: which worker takes
    // which device differs run to run, the report must not.
    let models =
        SharedModels::deferred(Architecture::Cnn, 60, 0x2EAD).with_vision_spec(120, 0x2EAD);
    let cameras = CameraScenario::fleet_cameras(6, 4, 0.4, SimDuration::from_secs(1), 0x2EAD);
    let fleet = PipelineFleet::with_models(
        FleetConfig {
            workers: 3,
            camera_pipeline: CameraPipelineConfig {
                batch_windows: 2,
                ..CameraPipelineConfig::default()
            },
            ..FleetConfig::mixed(0, 6)
        },
        models,
    );
    let first = fleet.run_mixed(&[], &cameras).unwrap().to_json();
    let second = fleet.run_mixed(&[], &cameras).unwrap().to_json();
    assert_eq!(first, second);
}

fn observed_fleet(
    workers: usize,
    telemetry: TelemetryConfig,
    models: &SharedModels,
) -> PipelineFleet {
    PipelineFleet::with_models(
        FleetConfig {
            devices: 2,
            pipeline: PipelineConfig {
                train_utterances: 60,
                batch_windows: 4,
                ..PipelineConfig::default()
            },
            camera_devices: 5,
            camera_pipeline: CameraPipelineConfig {
                batch_windows: 4,
                ..CameraPipelineConfig::default()
            },
            workers,
            telemetry,
            // A trace set needs the telemetry plane on: the silent fleet
            // traces nothing.
            trace_devices: if telemetry.enabled {
                BTreeSet::from([3])
            } else {
                BTreeSet::new()
            },
            ..FleetConfig::of(0)
        },
        models.clone(),
    )
}

#[test]
fn telemetry_plane_never_perturbs_the_report() {
    // The zero-perturbation half of the telemetry contract: with the
    // telemetry plane recording in every device (metrics everywhere,
    // full span capture on device 3), the functional `FleetReport` is
    // byte-for-byte the report of a silent run — at every worker count.
    // The other half is the fold's own determinism: the merged
    // `FleetTelemetry` must not notice worker counts or which worker
    // ran which device either, because histogram/counter merging is
    // commutative and traces key on device ids.
    let models =
        SharedModels::deferred(Architecture::Cnn, 60, 0x7E1E).with_vision_spec(120, 0x7E1E);
    let audio = Scenario::fleet(2, 4, 0.5, SimDuration::from_secs(1), 0x7E1E);
    let cameras = CameraScenario::fleet_cameras(5, 4, 0.4, SimDuration::from_secs(1), 0x7E1E);

    let mut reference_fold = None;
    for workers in [1usize, 2, 8] {
        let silent = observed_fleet(workers, TelemetryConfig::default(), &models)
            .run_mixed(&audio, &cameras)
            .unwrap();
        let (observed, _, fold) = observed_fleet(workers, TelemetryConfig::metrics(), &models)
            .run_mixed_telemetry(&audio, &cameras)
            .unwrap();
        assert_eq!(
            silent.to_json(),
            observed.to_json(),
            "telemetry perturbed the report at {workers} workers"
        );
        // Every layer contributed to the fold, and only the designated
        // device retained spans.
        assert_eq!(fold.devices, 7);
        assert!(fold.histograms.contains_key("smc.call"));
        assert!(fold.histograms.contains_key("ta.classify"));
        assert!(fold.trace(3).is_some());
        assert!(fold.trace(0).is_none());
        match &reference_fold {
            None => reference_fold = Some(fold),
            Some(reference) => assert_eq!(
                &fold, reference,
                "telemetry fold diverged at {workers} workers"
            ),
        }
    }

    // Repeated runs at an uneven worker count: interleavings differ, the
    // fold must not.
    let fleet = observed_fleet(3, TelemetryConfig::metrics(), &models);
    let (_, _, first) = fleet.run_mixed_telemetry(&audio, &cameras).unwrap();
    let (_, _, second) = fleet.run_mixed_telemetry(&audio, &cameras).unwrap();
    assert_eq!(first, second, "fold varies across steal interleavings");
    assert_eq!(Some(first), reference_fold);
}

fn health_fleet(
    workers: usize,
    degrade: Option<DegradeSpec>,
    budget: SimDuration,
    models: &SharedModels,
) -> PipelineFleet {
    PipelineFleet::with_models(
        FleetConfig {
            devices: 3,
            pipeline: PipelineConfig {
                train_utterances: 60,
                batch_windows: 4,
                degrade,
                ..PipelineConfig::default()
            },
            workers,
            health: Some(HealthConfig {
                slos: vec![SloSpec::p95("tee-filter", budget)],
                stall_epochs: 8,
                ..HealthConfig::with_window(SimDuration::from_secs(1))
            }),
            ..FleetConfig::of(0)
        },
        models.clone(),
    )
}

#[test]
fn health_alert_journal_is_byte_identical_across_worker_counts() {
    // The health plane lives in virtual time: every alert carries the
    // epoch boundary that produced it, every journal sorts on
    // `(epoch, device)` — so injected degradation fires the *same*
    // alerts at the *same* virtual timestamps no matter how many host
    // workers interleave the devices.
    let models = SharedModels::deferred(Architecture::Cnn, 60, 0xA1E7);
    models.audio().unwrap();
    let audio = Scenario::fleet(3, 6, 0.5, SimDuration::from_secs(1), 0xA1E7);
    let degrade = Some(DegradeSpec {
        after: SimDuration::from_secs(2),
        per_window: SimDuration::from_millis(10),
    });

    let mut journals = Vec::new();
    for workers in [1usize, 2, 8] {
        let fleet = health_fleet(workers, degrade, SimDuration::from_millis(5), &models);
        let (_, _, _, health) = fleet.run_mixed_health(&audio, &[]).unwrap();
        assert!(
            !health.alerts.is_empty(),
            "injected degradation fired no alerts at {workers} workers"
        );
        assert_eq!(health.healthy, 0, "{}", health.to_table());
        journals.push(health.alert_journal_json());
    }
    assert_eq!(journals[0], journals[1], "1 vs 2 workers diverged");
    assert_eq!(journals[1], journals[2], "2 vs 8 workers diverged");
}

#[test]
fn health_plane_never_perturbs_the_report() {
    // Pure observation: the functional report with the health plane on
    // is byte-for-byte the report of a run with no health (and no
    // telemetry) at all — even though health forces the metrics plane on
    // under the hood.
    let models = SharedModels::deferred(Architecture::Cnn, 60, 0x8EA7);
    models.audio().unwrap();
    let audio = Scenario::fleet(3, 5, 0.5, SimDuration::from_secs(1), 0x8EA7);

    let observed = health_fleet(2, None, SimDuration::from_secs(5), &models);
    let (report, _, _, health) = observed.run_mixed_health(&audio, &[]).unwrap();
    assert_eq!(health.devices, 3);
    assert!(health.alerts.is_empty(), "{}", health.to_table());

    let mut silent_config = observed.config().clone();
    silent_config.health = None;
    let silent = PipelineFleet::with_models(silent_config, models.clone());
    assert_eq!(
        silent.run_mixed(&audio, &[]).unwrap().to_json(),
        report.to_json(),
        "health plane perturbed the functional report"
    );
}
