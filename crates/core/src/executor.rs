//! The bounded work-stealing fleet executor.
//!
//! One OS thread per simulated device would make a fleet's host cost grow
//! with its device count twice over: once in scheduler pressure
//! (thousands of runnable threads) and once in memory (every device's
//! full pipeline stack resident at the same time). The executor instead
//! runs a fixed pool of worker threads over resumable [`DeviceTask`]
//! state machines:
//!
//! * a device run is decomposed into *steps* over the staged pipeline
//!   architecture — each step is one batch through
//!   capture → filter → relay, i.e. one TEE crossing, the natural yield
//!   point named by the ROADMAP;
//! * each worker owns a run queue of pending devices and **builds at most
//!   one device stack at a time**, so a 10k-device fleet holds `workers`
//!   pipelines in memory instead of 10k — fleet scale is a function of
//!   work, not thread count;
//! * an idle worker **steals** pending devices from the back of a
//!   sibling's queue, victims probed in a deterministic seeded order, and
//!   every steal is recorded in the [`ExecutorStats`] seam.
//!
//! **Determinism contract.** Every device builds its own hermetic stack
//! (platform, virtual clock, TEE core, cloud) and no report field depends
//! on host time, so a given fleet seed reproduces a byte-identical
//! [`FleetReport`](crate::fleet::FleetReport) for *any* worker count and
//! *any* steal interleaving — the executor analogue of the sharding
//! scheduler's determinism contract, pinned by
//! `tests/executor_determinism.rs` at 1, 2 and 8 workers. Steal decisions
//! and peak residency are host-side telemetry and live in
//! [`ExecutorStats`], which is deliberately **not** part of the fleet
//! report.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;

use parking_lot::Mutex;

use crate::fleet::DeviceReport;
use crate::{CoreError, Result};

/// One step of a device task. The completed report is boxed: yields
/// outnumber completions by the batch count, and a yield should cost a
/// discriminant, not a report-sized move.
#[derive(Debug)]
pub enum StepOutcome {
    /// The task did one unit of work (one TEE crossing) and has more.
    Yielded,
    /// The task finished and produced its device report.
    Complete(Box<DeviceReport>),
}

/// A resumable device run: the capture → filter → relay state machine the
/// executor schedules. Implementations wrap a built pipeline plus a
/// scenario cursor; each [`DeviceTask::step`] drives one batch through
/// the stages.
pub trait DeviceTask {
    /// Performs one step.
    ///
    /// # Errors
    ///
    /// Propagates pipeline failures; the executor records the error as
    /// the device's outcome.
    fn step(&mut self) -> Result<StepOutcome>;
}

/// Builds a device task on first schedule. Deferred so that a fleet of
/// thousands of devices materializes only `workers` pipeline stacks at a
/// time — the bounded-memory half of the executor's contract.
type TaskBuilder = Box<dyn FnOnce() -> Result<Box<dyn DeviceTask>> + Send>;

/// A device waiting in a run queue: its index plus the deferred builder
/// of its pipeline stack.
pub struct QueuedDevice {
    device: usize,
    build: TaskBuilder,
}

impl QueuedDevice {
    /// Queues device `device` behind a deferred task builder.
    pub fn new(
        device: usize,
        build: impl FnOnce() -> Result<Box<dyn DeviceTask>> + Send + 'static,
    ) -> Self {
        QueuedDevice {
            device,
            build: Box::new(build),
        }
    }

    /// The device index the task reports as.
    pub fn device(&self) -> usize {
        self.device
    }
}

impl std::fmt::Debug for QueuedDevice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueuedDevice")
            .field("device", &self.device)
            .finish()
    }
}

/// Executor configuration.
#[derive(Debug, Clone)]
pub struct ExecutorConfig {
    /// Worker threads. `0` means auto: one per host core, capped by the
    /// task count.
    pub workers: usize,
    /// Seed of the deterministic victim-probe order used when stealing.
    pub steal_seed: u64,
    /// Task steps (TEE crossings) a worker runs before re-checking its
    /// bookkeeping — the slice length of the cooperative schedule.
    pub slice_steps: usize,
}

impl Default for ExecutorConfig {
    fn default() -> Self {
        ExecutorConfig {
            workers: 0,
            steal_seed: 0x57EA_15EED,
            slice_steps: 4,
        }
    }
}

impl ExecutorConfig {
    /// A config with an explicit worker count.
    pub fn with_workers(workers: usize) -> Self {
        ExecutorConfig {
            workers,
            ..ExecutorConfig::default()
        }
    }

    fn effective_workers(&self, tasks: usize) -> usize {
        let auto = if self.workers == 0 {
            thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            self.workers
        };
        auto.min(tasks).max(1)
    }
}

/// One recorded steal: `thief` took `tasks` pending devices from
/// `victim`'s queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StealRecord {
    /// Worker that ran out of local work.
    pub thief: usize,
    /// Worker whose queue was raided.
    pub victim: usize,
    /// Pending devices moved.
    pub tasks: usize,
}

/// Host-side telemetry of one executor run. Timing-dependent (steal
/// interleavings vary run to run), which is exactly why it is kept out of
/// the deterministic [`FleetReport`](crate::fleet::FleetReport).
#[derive(Debug, Clone, Default)]
pub struct ExecutorStats {
    /// Worker threads used.
    pub workers: usize,
    /// Devices completed.
    pub completed: usize,
    /// Every steal, grouped by thief worker (each worker logs its own
    /// steals; the groups concatenate at join time).
    pub steals: Vec<StealRecord>,
    /// Peak number of simultaneously-built device stacks — bounded by
    /// `workers`, the executor's memory contract (one per worker).
    pub peak_resident: usize,
    /// Host wall-clock of the run, in milliseconds.
    pub host_millis: f64,
    /// Step slices executed across all workers (each drives one device
    /// for up to `slice_steps` TEE crossings).
    pub step_slices: u64,
    /// Times a worker found nothing runnable and parked (all remaining
    /// devices were mid-run elsewhere).
    pub idle_parks: u64,
}

impl ExecutorStats {
    /// Total pending devices moved by steals.
    pub fn tasks_stolen(&self) -> usize {
        self.steals.iter().map(|s| s.tasks).sum()
    }
}

/// Shared state of one executor run. Only the run queues sit behind
/// locks — completions and steal records accumulate in per-worker
/// buffers and merge after the pool joins, so the hot path never
/// contends on a global mutex.
struct ExecutorShared {
    queues: Vec<Mutex<VecDeque<QueuedDevice>>>,
    /// Devices not yet finished (pending, building, or mid-run).
    remaining: AtomicUsize,
    /// Currently-built device stacks, and the high-water mark.
    resident: AtomicUsize,
    peak_resident: AtomicUsize,
}

impl ExecutorShared {
    fn enter_resident(&self) {
        let now = self.resident.fetch_add(1, Ordering::Relaxed) + 1;
        self.peak_resident.fetch_max(now, Ordering::Relaxed);
    }

    fn leave_resident(&self) {
        self.resident.fetch_sub(1, Ordering::Relaxed);
    }
}

/// What one worker accumulated over the run.
#[derive(Default)]
struct WorkerOutcome {
    completions: Vec<(usize, Result<DeviceReport>)>,
    steals: Vec<StealRecord>,
    step_slices: u64,
    idle_parks: u64,
}

impl WorkerOutcome {
    fn record(&mut self, shared: &ExecutorShared, device: usize, outcome: Result<DeviceReport>) {
        self.completions.push((device, outcome));
        shared.remaining.fetch_sub(1, Ordering::Release);
    }
}

/// The bounded work-stealing executor.
#[derive(Debug, Clone, Default)]
pub struct FleetExecutor {
    config: ExecutorConfig,
}

impl FleetExecutor {
    /// Creates an executor.
    pub fn new(config: ExecutorConfig) -> Self {
        FleetExecutor { config }
    }

    /// Runs every queued device to completion on the worker pool and
    /// returns the device reports **in device order** (scheduling can
    /// never reorder a fleet report) plus the run's telemetry.
    ///
    /// # Errors
    ///
    /// Returns the lowest-indexed device's failure after every device has
    /// been driven. A panicking device task is translated into a
    /// [`CoreError::Config`] carrying the device index and the panic
    /// message.
    pub fn run(&self, tasks: Vec<QueuedDevice>) -> Result<(Vec<DeviceReport>, ExecutorStats)> {
        let total = tasks.len();
        if total == 0 {
            return Ok((Vec::new(), ExecutorStats::default()));
        }
        let workers = self.config.effective_workers(total);
        let slice = self.config.slice_steps.max(1);
        let started = std::time::Instant::now();

        // Highest device index bounds the results table; device indices
        // need not be dense, but must be unique.
        let queues: Vec<Mutex<VecDeque<QueuedDevice>>> =
            (0..workers).map(|_| Mutex::new(VecDeque::new())).collect();
        // Deal pending devices round-robin, in device order: worker w
        // starts with devices w, w+workers, ...
        for (i, task) in tasks.into_iter().enumerate() {
            queues[i % workers].lock().push_back(task);
        }
        let shared = ExecutorShared {
            queues,
            remaining: AtomicUsize::new(total),
            resident: AtomicUsize::new(0),
            peak_resident: AtomicUsize::new(0),
        };

        let outcomes: Vec<WorkerOutcome> = thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|worker| {
                    let shared = &shared;
                    let seed = self.config.steal_seed;
                    scope.spawn(move || worker_loop(shared, worker, workers, seed, slice))
                })
                .collect();
            handles
                .into_iter()
                .map(|handle| handle.join().expect("executor workers do not panic"))
                .collect()
        });

        let mut steals = Vec::new();
        let mut completions: Vec<(usize, Result<DeviceReport>)> = Vec::with_capacity(total);
        let mut step_slices = 0u64;
        let mut idle_parks = 0u64;
        for outcome in outcomes {
            steals.extend(outcome.steals);
            completions.extend(outcome.completions);
            step_slices += outcome.step_slices;
            idle_parks += outcome.idle_parks;
        }
        let stats = ExecutorStats {
            workers,
            completed: completions.len(),
            steals,
            peak_resident: shared.peak_resident.load(Ordering::Relaxed),
            host_millis: started.elapsed().as_secs_f64() * 1000.0,
            step_slices,
            idle_parks,
        };
        // Device order, regardless of which worker finished what when.
        completions.sort_by_key(|(device, _)| *device);
        let mut reports = Vec::with_capacity(total);
        for (_, outcome) in completions {
            reports.push(outcome?);
        }
        debug_assert_eq!(reports.len(), total, "every device reported once");
        Ok((reports, stats))
    }
}

/// One worker: drain the local queue, steal when idle, run each acquired
/// device to completion in `slice`-step slices. At most one device stack
/// is resident per worker at any time.
fn worker_loop(
    shared: &ExecutorShared,
    worker: usize,
    workers: usize,
    seed: u64,
    slice: usize,
) -> WorkerOutcome {
    let mut rng = seed ^ (worker as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let mut outcome = WorkerOutcome::default();
    let mut current: Option<(usize, Box<dyn DeviceTask>)> = None;
    loop {
        if current.is_none() {
            let pending = pop_local(shared, worker)
                .or_else(|| steal(shared, worker, workers, &mut rng, &mut outcome.steals))
                .or_else(|| pop_any(shared));
            match pending {
                Some(task) => {
                    let device = task.device;
                    shared.enter_resident();
                    match build_task(task) {
                        Ok(built) => current = Some((device, built)),
                        Err(error) => {
                            shared.leave_resident();
                            outcome.record(shared, device, Err(error));
                        }
                    }
                }
                None => {
                    if shared.remaining.load(Ordering::Acquire) == 0 {
                        return outcome;
                    }
                    // Devices are still mid-run on other workers; nothing
                    // to steal (only pending devices are stealable).
                    // Sleep rather than yield: a yield spin starves the
                    // workers that still hold tasks on oversubscribed
                    // hosts and burns system time in sched_yield.
                    outcome.idle_parks += 1;
                    thread::sleep(std::time::Duration::from_micros(200));
                    continue;
                }
            }
        }
        if let Some((device, mut task)) = current.take() {
            outcome.step_slices += 1;
            match step_slice(device, &mut task, slice) {
                Ok(None) => current = Some((device, task)),
                Ok(Some(report)) => {
                    drop(task);
                    shared.leave_resident();
                    outcome.record(shared, device, Ok(report));
                }
                Err(error) => {
                    drop(task);
                    shared.leave_resident();
                    outcome.record(shared, device, Err(error));
                }
            }
        }
    }
}

fn pop_local(shared: &ExecutorShared, worker: usize) -> Option<QueuedDevice> {
    shared.queues[worker].lock().pop_front()
}

/// Probes the other workers' queues in a seeded pseudo-random order and
/// steals the back half of the first non-empty one.
fn steal(
    shared: &ExecutorShared,
    worker: usize,
    workers: usize,
    rng: &mut u64,
    log: &mut Vec<StealRecord>,
) -> Option<QueuedDevice> {
    if workers <= 1 {
        return None;
    }
    // Deterministic victim order: a fixed xorshift walk over the sibling
    // indices, seeded per worker. (Which probe *succeeds* still depends
    // on queue timing; the seam makes the probe sequence, and therefore
    // any replayed steal log, reproducible.)
    for _ in 0..workers * 2 {
        *rng ^= *rng << 13;
        *rng ^= *rng >> 7;
        *rng ^= *rng << 17;
        let victim = (*rng % workers as u64) as usize;
        if victim == worker {
            continue;
        }
        let mut queue = shared.queues[victim].lock();
        let available = queue.len();
        if available == 0 {
            continue;
        }
        // Take the back half (at least one): the classic stealing split —
        // the victim keeps the work it is about to reach.
        let take = available.div_ceil(2);
        let stolen: Vec<QueuedDevice> = (0..take).filter_map(|_| queue.pop_back()).collect();
        drop(queue);
        log.push(StealRecord {
            thief: worker,
            victim,
            tasks: stolen.len(),
        });
        let mut local = shared.queues[worker].lock();
        // Stolen tasks came off the back in reverse; restore device order
        // locally so lower-indexed devices still run first.
        for task in stolen.into_iter().rev() {
            local.push_back(task);
        }
        return local.pop_front();
    }
    None
}

/// Fallback sweep over every queue in index order, for the tail of a run
/// where the seeded probe may keep missing the one non-empty queue.
fn pop_any(shared: &ExecutorShared) -> Option<QueuedDevice> {
    for queue in &shared.queues {
        if let Some(task) = queue.lock().pop_front() {
            return Some(task);
        }
    }
    None
}

/// Builds a pending device's stack, translating panics.
fn build_task(task: QueuedDevice) -> Result<Box<dyn DeviceTask>> {
    let device = task.device;
    catch_unwind(AssertUnwindSafe(move || (task.build)()))
        .unwrap_or_else(|payload| Err(device_panic_error(device, &panic_message(payload))))
}

/// Steps a built task up to `slice` times, translating panics. Returns
/// the report when the task completes within the slice.
fn step_slice(
    device: usize,
    task: &mut Box<dyn DeviceTask>,
    slice: usize,
) -> Result<Option<DeviceReport>> {
    for _ in 0..slice {
        let outcome = catch_unwind(AssertUnwindSafe(|| task.step()))
            .unwrap_or_else(|payload| Err(device_panic_error(device, &panic_message(payload))))?;
        if let StepOutcome::Complete(report) = outcome {
            return Ok(Some(*report));
        }
    }
    Ok(None)
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
    use crate::fleet::Modality;
    use crate::report::{CloudOutcome, LatencyBreakdown, PipelineReport, WorkloadSummary};

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

    /// A synthetic task: yields `yields` times, then completes.
    struct CountdownTask {
        device: usize,
        yields: usize,
    }

    impl DeviceTask for CountdownTask {
        fn step(&mut self) -> Result<StepOutcome> {
            if self.yields == 0 {
                Ok(StepOutcome::Complete(Box::new(marker_report(self.device))))
            } else {
                self.yields -= 1;
                Ok(StepOutcome::Yielded)
            }
        }
    }

    fn countdown_fleet(devices: usize) -> Vec<QueuedDevice> {
        (0..devices)
            .map(|device| {
                QueuedDevice::new(device, move || {
                    Ok(Box::new(CountdownTask {
                        device,
                        yields: device % 5,
                    }) as Box<dyn DeviceTask>)
                })
            })
            .collect()
    }

    #[test]
    fn executor_runs_every_device_once_in_order() {
        for workers in [1usize, 2, 3, 8, 64] {
            let executor = FleetExecutor::new(ExecutorConfig::with_workers(workers));
            let (reports, stats) = executor.run(countdown_fleet(37)).unwrap();
            assert_eq!(reports.len(), 37);
            for (i, report) in reports.iter().enumerate() {
                assert_eq!(report.device, i, "{workers} workers reordered devices");
                assert_eq!(report.scenario, format!("synthetic-{i}"));
            }
            assert_eq!(stats.completed, 37);
            assert_eq!(stats.workers, workers.min(37));
            assert!(stats.peak_resident <= stats.workers, "residency unbounded");
        }
    }

    #[test]
    fn empty_fleet_is_a_no_op() {
        let (reports, stats) = FleetExecutor::default().run(Vec::new()).unwrap();
        assert!(reports.is_empty());
        assert_eq!(stats.completed, 0);
    }

    #[test]
    fn build_errors_surface_as_the_device_failure() {
        let mut tasks = countdown_fleet(4);
        tasks[2] = QueuedDevice::new(2, || {
            Err(CoreError::Config {
                reason: "synthetic build failure".to_owned(),
            })
        });
        let error = FleetExecutor::new(ExecutorConfig::with_workers(2))
            .run(tasks)
            .unwrap_err();
        assert!(error.to_string().contains("synthetic build failure"));
    }

    #[test]
    fn panicking_tasks_are_translated_not_propagated() {
        struct PanickingTask;
        impl DeviceTask for PanickingTask {
            fn step(&mut self) -> Result<StepOutcome> {
                panic!("synthetic step panic");
            }
        }
        let mut tasks = countdown_fleet(3);
        tasks[1] = QueuedDevice::new(1, || Ok(Box::new(PanickingTask) as Box<dyn DeviceTask>));
        let error = FleetExecutor::new(ExecutorConfig::with_workers(2))
            .run(tasks)
            .unwrap_err();
        assert!(
            error.to_string().contains("synthetic step panic"),
            "{error}"
        );
        // Step-time panics carry the device index.
        assert!(error.to_string().contains("device 1"), "{error}");
        // Build-time panics carry it too.
        let tasks = vec![QueuedDevice::new(0, || panic!("synthetic build panic"))];
        let error = FleetExecutor::default().run(tasks).unwrap_err();
        assert!(error.to_string().contains("device 0"), "{error}");
    }

    #[test]
    fn starved_workers_steal_pending_devices() {
        // One worker hoards a long queue while the others start empty:
        // give worker 0 a slow head-of-line task so siblings must steal
        // to finish the backlog.
        struct SlowTask {
            device: usize,
            spins: usize,
        }
        impl DeviceTask for SlowTask {
            fn step(&mut self) -> Result<StepOutcome> {
                if self.spins == 0 {
                    return Ok(StepOutcome::Complete(Box::new(marker_report(self.device))));
                }
                self.spins -= 1;
                std::thread::sleep(std::time::Duration::from_micros(200));
                Ok(StepOutcome::Yielded)
            }
        }
        // 4 workers, 64 devices dealt round-robin; device 0 (worker 0's
        // head) is slow, so workers 1..3 drain their queues and then raid
        // worker 0's remaining pending devices.
        let tasks: Vec<QueuedDevice> = (0..64)
            .map(|device| {
                QueuedDevice::new(device, move || {
                    let spins = if device == 0 { 100 } else { 0 };
                    Ok(Box::new(SlowTask { device, spins }) as Box<dyn DeviceTask>)
                })
            })
            .collect();
        let (reports, stats) = FleetExecutor::new(ExecutorConfig::with_workers(4))
            .run(tasks)
            .unwrap();
        assert_eq!(reports.len(), 64);
        assert!(
            !stats.steals.is_empty(),
            "idle workers never stole from the backlogged sibling"
        );
        assert_eq!(
            stats.tasks_stolen(),
            stats.steals.iter().map(|s| s.tasks).sum::<usize>()
        );
        for steal in &stats.steals {
            assert_ne!(steal.thief, steal.victim);
            assert!(steal.tasks >= 1);
        }
    }
}
