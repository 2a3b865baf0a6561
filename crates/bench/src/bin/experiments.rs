//! Runs the experiments E1–E21 (E17 prints inside E16): `experiments e11
//! e14` runs those two, no id runs them all.
//!
//! Each experiment's markdown goes to stdout, its files (`BENCH_E16.json`,
//! `TRACE_E18.json`) to the working directory, and each gate it failed to
//! stderr. The exit status is 1 if any gate failed, and 2, before anything
//! runs, if an id is unknown.
//!
//! `experiments loc` runs no experiment: it prints one JSON object mapping
//! each crate under `crates/` to its non-test lines ([`loc`]).

use std::path::Path;
use std::process::ExitCode;

use perisec_bench::*;

/// The id of the line-count record, which is not an experiment.
const LOC: &str = "loc";

type Experiment = (&'static str, fn() -> Outcome);

const EXPERIMENTS: [Experiment; 20] = [
    ("e1", run_e1_tcb),
    ("e2", run_e2_throughput),
    ("e3", run_e3_latency),
    ("e4", run_e4_accuracy),
    ("e5", run_e5_model_memory),
    ("e6", run_e6_power),
    ("e7", run_e7_worldswitch),
    ("e8", run_e8_leakage),
    ("e9", run_e9_scalability),
    ("e10", run_e10_footprint),
    ("e11", run_e11_batch_sweep),
    ("e12", run_e12_fleet),
    ("e13", run_e13_vision),
    ("e14", run_e14_shard_sweep),
    ("e15", run_e15_fleet_executor),
    ("e16", run_e16_int8_inference),
    ("e18", run_e18_telemetry),
    ("e19", run_e19_health_plane),
    ("e20", run_e20_fault_tolerance),
    ("e21", run_e21_ingest_plane),
];

fn main() -> ExitCode {
    let ids: Vec<String> = std::env::args().skip(1).map(|a| a.to_lowercase()).collect();
    let known = |id: &String| id == LOC || EXPERIMENTS.iter().any(|(name, _)| name == id);
    if let Some(unknown) = ids.iter().find(|id| !known(id)) {
        let names: Vec<&str> = EXPERIMENTS.iter().map(|(name, _)| *name).collect();
        eprintln!(
            "unknown experiment {unknown}; known: {} {LOC}",
            names.join(" ")
        );
        return ExitCode::from(2);
    }
    if ids.iter().any(|id| id == LOC) {
        let crates_dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .expect("the bench crate sits in the crates directory");
        match loc::crate_lines(crates_dir) {
            Ok(counts) => println!(
                "{}",
                serde_json::to_string(&counts).expect("a map of counts serializes")
            ),
            Err(e) => {
                eprintln!("{LOC}: reading {}: {e}", crates_dir.display());
                return ExitCode::FAILURE;
            }
        }
    }
    let mut any_failed = false;
    for (name, run) in EXPERIMENTS {
        if !ids.is_empty() && !ids.iter().any(|id| id == name) {
            continue;
        }
        let outcome = run();
        println!("{}", outcome.markdown);
        for (file, contents) in &outcome.files {
            std::fs::write(file, contents).unwrap_or_else(|e| panic!("write {file}: {e}"));
            eprintln!("wrote {file}");
        }
        for failure in &outcome.failed {
            eprintln!("{name} gate failed: {failure}");
        }
        any_failed |= !outcome.failed.is_empty();
    }
    if any_failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::EXPERIMENTS;

    #[test]
    fn every_experiment_is_listed_once_in_order() {
        let listed: Vec<&str> = EXPERIMENTS.iter().map(|(name, _)| *name).collect();
        let expected: Vec<String> = (1..=21)
            .filter(|n| *n != 17)
            .map(|n| format!("e{n}"))
            .collect();
        assert_eq!(listed, expected);
    }
}
