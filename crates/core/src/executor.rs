//! The fleet executor: a fixed pool of worker threads over a fleet's
//! devices.
//!
//! One OS thread per simulated device would make a fleet's host cost grow
//! with its device count twice over: once in scheduler pressure
//! (thousands of runnable threads) and once in memory (every device's
//! full pipeline stack resident at the same time). [`run_devices`]
//! instead runs a fixed pool of workers. Each takes the next device index
//! off one shared counter and runs that device to the end — build its
//! stack, step it through its scenario, drop it — before it takes
//! another, so a 10k-device fleet holds at most `workers` device stacks
//! at once: fleet scale is a function of work, not thread count.
//!
//! A device's waits are virtual-time arithmetic on its own `SimClock`,
//! so its host time is compute: no device sleeps, and a worker running
//! one device to the end holds back no other device. One shared counter
//! therefore keeps every worker busy until the last device has been
//! taken; nothing smarter is needed.
//!
//! Nothing here looks inside a device's result, so the same pool also
//! runs other independent indexed work: model set-up transcribes its
//! training corpus on it, one utterance per index.
//!
//! **Determinism contract.** Every device builds its own hermetic stack
//! (platform, virtual clock, TEE core, cloud) and no report field depends
//! on host time, so a given fleet seed reproduces a byte-identical
//! [`FleetReport`](crate::fleet::FleetReport) for *any* worker count and
//! whichever worker runs whichever device — pinned by
//! `tests/executor_determinism.rs` at 1, 2 and 8 workers. Peak residency
//! and wall-clock are host-side telemetry and live in [`ExecutorStats`],
//! which is deliberately **not** part of the fleet report.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;
use std::time::Instant;

use crate::{CoreError, Result};

/// Host-side telemetry of one executor run. Timing-dependent (the
/// wall-clock, and which worker ran which device), which is exactly why
/// it is kept out of the deterministic
/// [`FleetReport`](crate::fleet::FleetReport).
#[derive(Debug, Clone, Default)]
pub struct ExecutorStats {
    /// Worker threads used.
    pub workers: usize,
    /// Devices run.
    pub completed: usize,
    /// Peak number of simultaneously-built device stacks, counted around
    /// each device's run — bounded by `workers`, the executor's memory
    /// contract (one per worker).
    pub peak_resident: usize,
    /// Host wall-clock of the run, in milliseconds.
    pub host_millis: f64,
    /// Uninterrupted runs of a device on a worker: one per device, since
    /// a worker runs each device from build to report without switching
    /// to another. Kept because the benchmark reports it as
    /// `executor.step_slices`, which on every benchmark workload already
    /// read one slice per device.
    pub step_slices: u64,
    /// Times a worker waited for work while devices were still running
    /// elsewhere: always 0, since a worker that finds no device left to
    /// take exits. Kept because the benchmark reports it as
    /// `executor.idle_parks`.
    pub idle_parks: u64,
}

impl ExecutorStats {
    /// Pending devices moved between workers: always 0, since workers
    /// share one counter instead of owning queues. Kept because the
    /// benchmark reports it as `executor.steals`.
    pub fn tasks_stolen(&self) -> usize {
        0
    }
}

/// Runs devices `0..devices` on `workers` threads and returns their
/// results **in device order** (scheduling can never reorder a fleet
/// report) plus the run's telemetry. `workers == 0` means one per host
/// core; any value is capped by the device count. `run(device)` runs one
/// device to the end — for a fleet: build its stack, step it through its
/// scenario and report; the stack is dropped before the worker takes its
/// next device.
///
/// # Errors
///
/// Returns the lowest-indexed device's failure after every device has
/// run. A panicking device is translated into a [`CoreError::Config`]
/// carrying the device index and the panic message.
pub fn run_devices<T: Send>(
    workers: usize,
    devices: usize,
    run: impl Fn(usize) -> Result<T> + Sync,
) -> Result<(Vec<T>, ExecutorStats)> {
    let workers = match workers {
        0 => thread::available_parallelism().map_or(1, |n| n.get()),
        workers => workers,
    }
    .min(devices);
    let started = Instant::now();
    // `fetch_add` hands each device index to exactly one worker. The
    // counters publish no other data — outcomes come back through
    // `join` — so relaxed ordering is enough.
    let next = AtomicUsize::new(0);
    let resident = AtomicUsize::new(0);
    let peak_resident = AtomicUsize::new(0);
    let worker = || {
        let mut outcomes = Vec::new();
        loop {
            let device = next.fetch_add(1, Ordering::Relaxed);
            if device >= devices {
                return outcomes;
            }
            let now = resident.fetch_add(1, Ordering::Relaxed) + 1;
            peak_resident.fetch_max(now, Ordering::Relaxed);
            let outcome = catch_unwind(AssertUnwindSafe(|| run(device)))
                .unwrap_or_else(|payload| Err(device_panic_error(device, &panic_message(payload))));
            resident.fetch_sub(1, Ordering::Relaxed);
            outcomes.push((device, outcome));
        }
    };
    let mut outcomes: Vec<(usize, Result<T>)> = thread::scope(|scope| {
        let handles: Vec<_> = (0..workers).map(|_| scope.spawn(worker)).collect();
        handles
            .into_iter()
            .flat_map(|handle| handle.join().expect("executor workers do not panic"))
            .collect()
    });
    // Device order, regardless of which worker finished what when.
    outcomes.sort_by_key(|(device, _)| *device);
    let stats = ExecutorStats {
        workers,
        completed: outcomes.len(),
        peak_resident: peak_resident.into_inner(),
        host_millis: started.elapsed().as_secs_f64() * 1000.0,
        step_slices: outcomes.len() as u64,
        idle_parks: 0,
    };
    let results = outcomes
        .into_iter()
        .map(|(_, outcome)| outcome)
        .collect::<Result<Vec<_>>>()?;
    Ok((results, stats))
}

/// Extracts the human-readable message of a panic payload.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_owned())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "unknown panic payload".to_owned())
}

fn device_panic_error(device: usize, message: &str) -> CoreError {
    CoreError::Config {
        reason: format!("device {device} pipeline thread panicked: {message}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::{DeviceReport, Modality};
    use crate::report::{CloudOutcome, LatencyBreakdown, PipelineReport, WorkloadSummary};
    use std::sync::mpsc;
    use std::sync::Mutex;
    use std::time::Duration;

    fn marker_report(device: usize) -> DeviceReport {
        DeviceReport {
            device,
            modality: Modality::Audio,
            scenario: format!("synthetic-{device}"),
            report: PipelineReport {
                pipeline: "synthetic".to_owned(),
                workload: WorkloadSummary::default(),
                latency: LatencyBreakdown::default(),
                cloud: CloudOutcome::default(),
                tz: Default::default(),
                energy: perisec_tz::power::EnergyReport {
                    window: perisec_tz::time::SimDuration::ZERO,
                    total_mj: 0.0,
                    per_component: Default::default(),
                },
                virtual_time: perisec_tz::time::SimDuration::ZERO,
                bytes_to_cloud: 0,
            },
        }
    }

    #[test]
    fn executor_runs_every_device_once_in_order() {
        for workers in [1usize, 2, 3, 8, 64] {
            let (reports, stats) = run_devices(workers, 37, |device| Ok(marker_report(device)))
                .expect("synthetic fleet");
            assert_eq!(reports.len(), 37);
            for (i, report) in reports.iter().enumerate() {
                assert_eq!(report.device, i, "{workers} workers reordered devices");
                assert_eq!(report.scenario, format!("synthetic-{i}"));
            }
            assert_eq!(stats.completed, 37);
            assert_eq!(stats.step_slices, 37);
            assert_eq!(stats.workers, workers.min(37));
            assert!(stats.peak_resident <= stats.workers, "residency unbounded");
        }
    }

    #[test]
    fn empty_fleet_is_a_no_op() {
        let (reports, stats) = run_devices(0, 0, |_| -> Result<DeviceReport> {
            unreachable!("no device to run")
        })
        .expect("empty fleet");
        assert!(reports.is_empty());
        assert_eq!(stats.completed, 0);
    }

    #[test]
    fn build_errors_surface_as_the_device_failure() {
        // Devices 2 to 5 fail; the lowest-indexed failure is returned.
        let error = run_devices(2, 6, |device| {
            if device >= 2 {
                Err(CoreError::Config {
                    reason: format!("synthetic failure of device {device}"),
                })
            } else {
                Ok(marker_report(device))
            }
        })
        .unwrap_err();
        assert!(
            error.to_string().contains("synthetic failure of device 2"),
            "{error}"
        );
    }

    #[test]
    fn panicking_tasks_are_translated_not_propagated() {
        let error = run_devices(2, 3, |device| {
            if device == 1 {
                panic!("synthetic device panic");
            }
            Ok(marker_report(device))
        })
        .unwrap_err();
        assert!(
            error.to_string().contains("synthetic device panic"),
            "{error}"
        );
        // The error carries the device index.
        assert!(error.to_string().contains("device 1"), "{error}");
    }

    #[test]
    fn idle_workers_take_the_devices_a_busy_worker_has_not_reached() {
        // Device 0 runs until every other device has run, so the run
        // completes only if the other worker takes all of them while
        // device 0's worker is busy.
        let (sender, receiver) = mpsc::channel();
        let receiver = Mutex::new(receiver);
        let (reports, stats) = run_devices(2, 16, |device| {
            if device == 0 {
                let receiver = receiver.lock().expect("only device 0 receives");
                for _ in 1..16 {
                    receiver
                        .recv_timeout(Duration::from_secs(30))
                        .expect("another worker runs the remaining devices");
                }
            } else {
                sender.send(device).expect("device 0 is still receiving");
            }
            Ok(marker_report(device))
        })
        .expect("synthetic fleet");
        assert_eq!(reports.len(), 16);
        assert!(stats.peak_resident <= stats.workers);
    }
}
