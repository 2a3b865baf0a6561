//! The perisec benchmark: four workloads, host- and virtual-time
//! end-to-end metrics, and a traced run that breaks host time down by
//! layer. See `perfbench/README.md` for why each workload exists and
//! which layer metric should move which end-to-end metric.
//!
//! One run is a parent process that spawns a fresh child process per
//! measured fleet (or wire) run — memory a fleet run allocates per
//! device is not released until its process exits, so a second
//! in-process run would measure a different, bigger heap. The parent checks every child's
//! outputs, keeps spawning until `--seconds` have passed, and prints
//! medians.

pub mod check;
mod fleet;
mod host;
pub mod report;
pub mod spans;
mod wire;

use std::io::Read as _;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use crate::check::Verdict;
use crate::fleet::{FleetKind, FleetSize};
use crate::report::ChildReport;
use crate::spans::SpanLog;
use crate::wire::WireSize;

/// What a child process is for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// The run the measured fleet runs are checked against: the same
    /// fleet on one worker, fault-free and on the direct path.
    Reference,
    /// A measured run with every tracer off.
    Measure,
    /// A run with the program's virtual-time tracer on, followed by the
    /// benchmark's own span replay of sampled devices.
    Traced,
}

impl Role {
    fn name(self) -> &'static str {
        match self {
            Role::Reference => "reference",
            Role::Measure => "measure",
            Role::Traced => "traced",
        }
    }

    fn parse(s: &str) -> Option<Self> {
        [Role::Reference, Role::Measure, Role::Traced]
            .into_iter()
            .find(|r| r.name() == s)
    }
}

/// The workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Fleet of audio devices (render and STT dominate).
    AudioFleet,
    /// Fleet of camera devices (the device-stack build dominates).
    CameraFleet,
    /// The camera fleet through a crashing ingest plane on a lossy link.
    CameraPlaneChaos,
    /// Wire-level sessions against the ingest plane (seal and commit).
    IngestWire,
}

/// Every workload, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [Workload; 4] = [
    Workload::AudioFleet,
    Workload::CameraFleet,
    Workload::CameraPlaneChaos,
    Workload::IngestWire,
];

impl Workload {
    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::AudioFleet => "audio_fleet",
            Workload::CameraFleet => "camera_fleet",
            Workload::CameraPlaneChaos => "camera_plane_chaos",
            Workload::IngestWire => "ingest_wire",
        }
    }

    /// Parses a workload name.
    pub fn parse(s: &str) -> Option<Self> {
        WORKLOADS.into_iter().find(|w| w.name() == s)
    }

    fn fleet(self) -> Option<FleetKind> {
        match self {
            Workload::AudioFleet => Some(FleetKind::Audio),
            Workload::CameraFleet => Some(FleetKind::Camera),
            Workload::CameraPlaneChaos => Some(FleetKind::CameraPlaneChaos),
            Workload::IngestWire => None,
        }
    }
}

/// Run size: `Full` is the benchmark; `Tiny` is the smoke-test size the
/// benchmark's own tests run through the same code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The measured size.
    Full,
    /// A few devices or sessions.
    Tiny,
}

impl Scale {
    fn name(self) -> &'static str {
        match self {
            Scale::Full => "full",
            Scale::Tiny => "tiny",
        }
    }

    fn fleet(self, kind: FleetKind) -> FleetSize {
        match (self, kind) {
            (Scale::Full, FleetKind::Audio) => FleetSize {
                devices: 64,
                events: 8,
                sample: 8,
            },
            (Scale::Full, _) => FleetSize {
                devices: 8192,
                events: 2,
                sample: 512,
            },
            (Scale::Tiny, FleetKind::Audio) => FleetSize {
                devices: 4,
                events: 4,
                sample: 2,
            },
            (Scale::Tiny, _) => FleetSize {
                devices: 64,
                events: 2,
                sample: 8,
            },
        }
    }

    fn wire(self) -> WireSize {
        match self {
            Scale::Full => WireSize {
                sessions: 20_000,
                records: 8,
                sample: 256,
            },
            Scale::Tiny => WireSize {
                sessions: 200,
                records: 4,
                sample: 8,
            },
        }
    }
}

/// End-to-end metrics (`--trace 0`): name and unit.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("events_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("sim_latency_mean_ms", "ms"),
];

/// Per-layer metrics (`--trace 1`): name and unit. A metric of a layer
/// the workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 60] = [
    ("workload.render_us", "us"),
    ("ml.stt_us", "us"),
    ("ml.classify_us", "us"),
    ("ml.frame_classify_us", "us"),
    ("devices.frame_capture_us", "us"),
    ("core.build_us", "us"),
    ("core.step_us", "us"),
    ("core.finish_us", "us"),
    ("core.step_residual_us", "us"),
    ("self.workload_pct", "%"),
    ("self.ml_pct", "%"),
    ("self.devices_pct", "%"),
    ("self.core_pct", "%"),
    ("self.relay_pct", "%"),
    ("self.ingest_pct", "%"),
    ("executor.cpu_busy_share", "ratio"),
    ("executor.idle_parks", "count"),
    ("executor.steals", "count"),
    ("executor.step_slices", "count"),
    ("executor.peak_resident", "count"),
    ("tz.smc_calls_per_event", "count"),
    ("tz.supplicant_rpcs_per_event", "count"),
    ("tz.world_switches_per_event", "count"),
    ("tz.energy_mj_per_event", "mJ"),
    ("optee.batched_commands_per_crossing", "count"),
    ("sim.latency_p50_ms", "ms"),
    ("sim.latency_p99_ms", "ms"),
    ("sim.secure-capture_us", "us"),
    ("sim.secure-frame-capture_us", "us"),
    ("sim.tee-filter_us", "us"),
    ("sim.secure-relay_us", "us"),
    ("sim.smc.call_us", "us"),
    ("sim.tee.invoke_batch_us", "us"),
    ("sim.tee.rpc_us", "us"),
    ("sim.ta.mfcc_us", "us"),
    ("sim.ta.stt_us", "us"),
    ("sim.ta.classify_us", "us"),
    ("sim.relay.retry_us", "us"),
    ("relay.seal_us", "us"),
    ("relay.open_us", "us"),
    ("relay.retries_per_record", "ratio"),
    ("relay.redelivered", "count"),
    ("relay.rejected", "count"),
    ("ingest.handle_hello_us_p50", "us"),
    ("ingest.handle_hello_us_p99", "us"),
    ("ingest.handle_attest_us_p50", "us"),
    ("ingest.handle_attest_us_p99", "us"),
    ("ingest.handle_record_us_p50", "us"),
    ("ingest.handle_record_us_p99", "us"),
    ("ingest.commit_us_p50", "us"),
    ("ingest.commit_us_p99", "us"),
    ("ingest.commit_ratio", "ratio"),
    ("ingest.stale_epoch_rejects", "count"),
    ("ingest.backpressure_rejects", "count"),
    ("ingest.attest_grants", "count"),
    ("ingest.shard_skew", "ratio"),
    ("telemetry.overhead_pct", "%"),
    ("check.leaked_sensitive", "count"),
    ("check.cloud_payload_bytes", "B"),
    ("memory.rss_kb_per_device", "KB"),
];

/// Parsed command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Args {
    /// The workload to run.
    pub workload: Workload,
    /// Seed every input is generated from.
    pub seed: u64,
    /// How long to keep spawning measured runs.
    pub seconds: u64,
    /// Per-layer (`true`) or end-to-end (`false`) metrics.
    pub trace: bool,
    /// Run size.
    pub scale: Scale,
    /// Set in a child process: its role and index.
    pub child: Option<(Role, u32)>,
}

impl Args {
    /// Parses `--workload <name> --seed <n> --seconds <n> --trace <0|1>`
    /// plus the internal `--scale` and `--child <role> --index <k>`.
    ///
    /// # Errors
    ///
    /// Describes the first bad or missing argument.
    pub fn parse(args: &[String]) -> Result<Self, String> {
        let mut workload = None;
        let (mut seed, mut seconds, mut trace) = (None, None, None);
        let (mut scale, mut role, mut index) = (Scale::Full, None, 0u32);
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = || format!("bad value {value:?} for {flag}");
            match flag.as_str() {
                "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
                "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
                "--seconds" => seconds = Some(value.parse().map_err(|_| bad())?),
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    })
                }
                "--scale" => {
                    scale = match value.as_str() {
                        "full" => Scale::Full,
                        "tiny" => Scale::Tiny,
                        _ => return Err(bad()),
                    }
                }
                "--child" => role = Some(Role::parse(value).ok_or_else(bad)?),
                "--index" => index = value.parse().map_err(|_| bad())?,
                _ => return Err(format!("unknown argument {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("missing --workload")?,
            seed: seed.ok_or("missing --seed")?,
            seconds: seconds.ok_or("missing --seconds")?,
            trace: trace.ok_or("missing --trace")?,
            scale,
            child: role.map(|r| (r, index)),
        })
    }
}

/// Where traced children write their span dumps, relative to the
/// directory the benchmark runs in.
const OUT_DIR: &str = ".perfbench_out";

/// Runs one child in this process and returns its report — the code path
/// every child process takes, callable directly from tests.
///
/// # Errors
///
/// Fails when the workload's set-up fails.
pub fn run_child(
    workload: Workload,
    scale: Scale,
    seed: u64,
    role: Role,
    log: &mut SpanLog,
) -> Result<ChildReport, String> {
    match workload.fleet() {
        Some(kind) => fleet::run(kind, scale.fleet(kind), seed, role, log),
        None => wire::run(scale.wire(), seed, role, log),
    }
}

/// The child process entry: runs, writes the span dump of a traced run,
/// and prints the report on standard output.
pub fn child_main(args: &Args, role: Role, index: u32) -> i32 {
    let mut log = SpanLog::new();
    match run_child(args.workload, args.scale, args.seed, role, &mut log) {
        Ok(report) => {
            if role == Role::Traced {
                let path = span_dump_path(args, index);
                let written = std::fs::create_dir_all(OUT_DIR)
                    .and_then(|()| std::fs::write(&path, log.to_json()));
                if let Err(e) = written {
                    eprintln!("cannot write {}: {e}", path.display());
                    return 1;
                }
            }
            print!("{}", report.encode());
            0
        }
        Err(e) => {
            eprintln!("{} set-up failed: {e}", args.workload.name());
            1
        }
    }
}

fn span_dump_path(args: &Args, index: u32) -> PathBuf {
    PathBuf::from(OUT_DIR).join(format!(
        "{}-seed{}-child{index}.spans.json",
        args.workload.name(),
        args.seed
    ))
}

/// A child gets this long before it is killed.
const CHILD_TIMEOUT: Duration = Duration::from_secs(60);
/// No new child starts after this much of a run, whatever `--seconds`
/// says, so a run (at most this plus one child timeout) ends inside
/// 180 seconds.
const SPAWN_DEADLINE: Duration = Duration::from_secs(90);
/// Fewest measured children per run, so medians have something to work
/// with even for a short `--seconds`.
const MIN_CHILDREN: usize = 3;

fn spawn_child(args: &Args, role: Role, index: u32) -> Result<ChildReport, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut child = Command::new(exe)
        .args([
            "--workload",
            args.workload.name(),
            "--seed",
            &args.seed.to_string(),
            "--seconds",
            &args.seconds.to_string(),
            "--trace",
            if args.trace { "1" } else { "0" },
            "--scale",
            args.scale.name(),
            "--child",
            role.name(),
            "--index",
            &index.to_string(),
        ])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("cannot start a child: {e}"))?;
    let mut stdout = child.stdout.take().expect("stdout is piped");
    let reader = std::thread::spawn(move || {
        let mut text = String::new();
        stdout.read_to_string(&mut text).map(|_| text)
    });
    let deadline = Instant::now() + CHILD_TIMEOUT;
    let status = loop {
        match child.try_wait().map_err(|e| e.to_string())? {
            Some(status) => break status,
            None if Instant::now() > deadline => {
                let _ = child.kill();
                let _ = child.wait();
                let _ = reader.join();
                return Err(format!("{} child timed out", role.name()));
            }
            None => std::thread::sleep(Duration::from_millis(5)),
        }
    };
    let text = reader
        .join()
        .map_err(|_| "child reader panicked".to_owned())?
        .map_err(|e| e.to_string())?;
    if !status.success() {
        return Err(format!("{} child exited with {status}", role.name()));
    }
    ChildReport::decode(&text)
}

/// Everything a run measured, before it is reduced to the result line.
#[derive(Debug, Default)]
struct RunSummary {
    /// Checked measured children, untraced.
    measured: Vec<ChildReport>,
    /// Checked traced children.
    traced: Vec<ChildReport>,
    /// Set-up times of every child, the reference included.
    setup_s: Vec<f64>,
    /// Summed checks.
    verdict: Verdict,
}

impl RunSummary {
    /// Checks a child and files it.
    fn add(
        &mut self,
        workload: Workload,
        reference: Option<&ChildReport>,
        role: Role,
        report: ChildReport,
    ) {
        // Fleets always run against a reference; the wire workload's
        // expected output is known from its inputs.
        let verdict = match reference {
            Some(reference) => {
                let mut verdict = check::check_fleet(reference, &report);
                if workload == Workload::CameraPlaneChaos {
                    check::check_crash_fired(&report, &mut verdict);
                }
                verdict
            }
            None => check::check_wire(&report),
        };
        for problem in &verdict.problems {
            eprintln!("check failed ({}): {problem}", role.name());
        }
        self.verdict.attempted += verdict.attempted;
        self.verdict.failed += verdict.failed;
        self.verdict.problems.extend(verdict.problems);
        self.setup_s.push(report.get("setup_s"));
        match role {
            Role::Traced => self.traced.push(report),
            _ => self.measured.push(report),
        }
    }

    /// A child that did not report at all.
    fn lost(&mut self, problem: String) {
        eprintln!("check failed: {problem}");
        self.verdict.attempted += 1;
        self.verdict.failed += 1;
        self.verdict.problems.push(problem);
    }

    fn median_of(reports: &[ChildReport], name: &str) -> f64 {
        host::median(&reports.iter().map(|r| r.get(name)).collect::<Vec<_>>())
    }

    /// The fastest set-up of the run. Set-up is deterministic
    /// single-threaded work, so interference only ever adds to it; on the
    /// reference host the median of a run's set-ups jumped between two
    /// speed modes (up to 1.6× apart) from run to run, the fastest did not.
    fn setup_s(&self) -> f64 {
        self.setup_s.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// The end-to-end metrics: the fastest set-up, and medians over the
    /// measured children.
    fn end_to_end(&self) -> Vec<(&'static str, &'static str, f64)> {
        END_TO_END
            .iter()
            .map(|&(name, unit)| {
                let value = match name {
                    "setup_s" => self.setup_s(),
                    _ => Self::median_of(&self.measured, name),
                };
                (name, unit, value)
            })
            .collect()
    }

    /// The per-layer metrics, medians over the traced children.
    fn per_layer(&self) -> Vec<(&'static str, &'static str, f64)> {
        let untraced = Self::median_of(&self.measured, "events_per_s");
        let traced = Self::median_of(&self.traced, "events_per_s");
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let value = match name {
                    "telemetry.overhead_pct" if untraced > 0.0 => {
                        100.0 * (untraced - traced) / untraced
                    }
                    "telemetry.overhead_pct" => 0.0,
                    _ => Self::median_of(&self.traced, name),
                };
                (name, unit, value)
            })
            .collect()
    }
}

/// How long both host cores are kept busy before the first measured
/// run.
const WARM_UP: Duration = Duration::from_secs(1);

/// Keeps one thread per worker busy for `WARM_UP`. On a virtual machine
/// an idle virtual core can take a while to be scheduled again; without
/// this, the first measured run after the single-threaded reference run
/// can see only one working core.
fn warm_up_cores() {
    std::thread::scope(|scope| {
        for _ in 0..fleet::WORKERS {
            scope.spawn(|| {
                let started = Instant::now();
                let mut x = 0u64;
                while started.elapsed() < WARM_UP {
                    x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
                }
            });
        }
    });
}

/// The parent process: spawns the children, checks them, prints a table
/// and the result line. Returns the exit code.
pub fn parent_main(args: &Args) -> i32 {
    let started = Instant::now();
    let mut summary = RunSummary::default();
    let mut index = 0u32;
    let reference = match args.workload.fleet() {
        Some(_) => match spawn_child(args, Role::Reference, index) {
            Ok(reference) => {
                summary.setup_s.push(reference.get("setup_s"));
                Some(reference)
            }
            Err(e) => {
                eprintln!("reference run failed: {e}");
                return 1;
            }
        },
        None => None,
    };
    warm_up_cores();
    let measuring = Instant::now();
    let (mut measured, mut traced) = (0usize, 0usize);
    loop {
        index += 1;
        let role = if args.trace && measured > traced {
            Role::Traced
        } else {
            Role::Measure
        };
        match spawn_child(args, role, index) {
            Ok(report) => {
                eprintln!(
                    "child {index} {}: events_per_s {:.1} setup_s {:.4} cpu_busy_share {:.3}",
                    role.name(),
                    report.get("events_per_s"),
                    report.get("setup_s"),
                    report.get("executor.cpu_busy_share"),
                );
                summary.add(args.workload, reference.as_ref(), role, report)
            }
            Err(e) => summary.lost(e),
        }
        match role {
            Role::Traced => traced += 1,
            _ => measured += 1,
        }
        let enough = measured >= MIN_CHILDREN && (!args.trace || traced >= MIN_CHILDREN);
        let timed_out = measuring.elapsed() >= Duration::from_secs(args.seconds);
        if (enough && timed_out) || started.elapsed() >= SPAWN_DEADLINE {
            break;
        }
    }
    print_table(args, &summary, reference.as_ref());
    let metrics = if args.trace {
        summary.per_layer()
    } else {
        summary.end_to_end()
    };
    let correct = summary.verdict.ok() && !summary.measured.is_empty();
    println!(
        "{}",
        result_line(
            correct,
            summary.verdict.attempted.max(1),
            summary.verdict.failed,
            &metrics
        )
    );
    if correct {
        0
    } else {
        1
    }
}

/// The last line of standard output.
fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, &str, f64)],
) -> String {
    let body = metrics
        .iter()
        .map(|(name, unit, value)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect::<Vec<_>>()
        .join(", ");
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{body}}}}}"
    )
}

/// The human-readable report: every end-to-end metric the workload
/// defines, including the ones that are checks rather than bounded
/// metrics, and the ones only some workloads have.
fn print_table(args: &Args, summary: &RunSummary, reference: Option<&ChildReport>) {
    let m = |name: &str| RunSummary::median_of(&summary.measured, name);
    let fleet = args.workload.fleet().is_some();
    let wire = !fleet;
    let na = "n/a".to_owned();
    let num = |v: f64| format!("{v:.4}");
    let failed_fraction = summary.verdict.failed as f64 / summary.verdict.attempted.max(1) as f64;
    let commit_samples: f64 = summary
        .measured
        .iter()
        .map(|r| r.get("ingest.commit_samples"))
        .sum();
    let rows: Vec<(&str, String, &str)> = vec![
        ("setup_s", num(summary.setup_s()), "s (fastest set-up)"),
        ("events_per_s", num(m("events_per_s")), "1/s"),
        (
            "commit_us_p50",
            if wire {
                num(m("ingest.commit_us_p50"))
            } else {
                na.clone()
            },
            "us",
        ),
        (
            "commit_us_p99",
            if wire {
                num(m("ingest.commit_us_p99"))
            } else {
                na.clone()
            },
            "us",
        ),
        (
            "sim_latency_mean_ms",
            num(m("sim_latency_mean_ms")),
            "ms (virtual)",
        ),
        (
            "sim_latency_p50_ms",
            if fleet {
                num(m("sim.latency_p50_ms"))
            } else {
                na.clone()
            },
            "ms (virtual)",
        ),
        (
            "sim_latency_p99_ms",
            if fleet {
                num(m("sim.latency_p99_ms"))
            } else {
                na.clone()
            },
            "ms (virtual)",
        ),
        (
            "world_switches_per_event",
            if fleet {
                num(m("tz.world_switches_per_event"))
            } else {
                na.clone()
            },
            "count",
        ),
        (
            "energy_mj_per_event",
            if fleet {
                num(m("tz.energy_mj_per_event"))
            } else {
                na.clone()
            },
            "mJ (virtual)",
        ),
        (
            "leaked_sensitive",
            if fleet {
                num(m("check.leaked_sensitive"))
            } else {
                na.clone()
            },
            "count, must be 0",
        ),
        (
            "cloud_payload_bytes",
            if fleet {
                num(m("check.cloud_payload_bytes"))
            } else {
                na.clone()
            },
            "B, must be 0",
        ),
        (
            "failed_fraction",
            num(failed_fraction),
            "failed / attempted",
        ),
        ("peak_rss_mb", num(m("peak_rss_mb")), "MB (VmHWM)"),
    ];
    println!(
        "# perfbench {} seed={} scale={} children: {} measured, {} traced{}",
        args.workload.name(),
        args.seed,
        args.scale.name(),
        summary.measured.len(),
        summary.traced.len(),
        if reference.is_some() {
            ", checked against a 1-worker fault-free direct reference run"
        } else {
            ""
        }
    );
    for (name, value, unit) in rows {
        println!("# {name:<26} {value:>16} {unit}");
    }
    if wire {
        println!("# commit_us samples: {commit_samples} records");
    }
    if args.trace {
        println!(
            "# span dumps: {OUT_DIR}/{}-seed{}-child*.spans.json",
            args.workload.name(),
            args.seed
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn parses_the_command_line() {
        let args = Args::parse(&strings(&[
            "--workload",
            "ingest_wire",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(args.workload, Workload::IngestWire);
        assert_eq!((args.seed, args.seconds, args.trace), (7, 10, true));
        assert_eq!(args.child, None);
        assert!(Args::parse(&strings(&["--workload", "nope"])).is_err());
        assert!(Args::parse(&strings(&["--seed", "1"])).is_err());
    }

    #[test]
    fn result_line_lists_every_metric_with_its_unit() {
        let line = result_line(
            true,
            10,
            0,
            &[("setup_s", "s", 0.5), ("events_per_s", "1/s", 12.25)],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}, \
             \"events_per_s\": {\"value\": 12.25, \"unit\": \"1/s\"}}}"
        );
    }

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|(n, _)| *n)
            .collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(before, names.len());
    }
}
