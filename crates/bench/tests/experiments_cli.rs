//! The `experiments` binary's command line.

use std::process::Command;

#[test]
fn an_unknown_id_runs_nothing_and_fails() {
    let output = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["e1", "e99"])
        .output()
        .expect("run the experiments binary");
    assert_eq!(output.status.code(), Some(2));
    assert!(output.stdout.is_empty(), "an experiment ran");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("e99") && stderr.contains("e21"), "{stderr}");
}

#[test]
fn loc_prints_each_crates_non_test_lines_as_json() {
    let output = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .arg("loc")
        .output()
        .expect("run the experiments binary");
    assert_eq!(output.status.code(), Some(0));
    let stdout = String::from_utf8(output.stdout).expect("utf-8 stdout");
    assert_eq!(stdout.lines().count(), 1, "{stdout}");
    let counts: std::collections::BTreeMap<String, usize> =
        serde_json::from_str(stdout.trim()).expect("one JSON object of counts");
    for name in ["bench", "core", "ml", "workload"] {
        assert!(counts.get(name).is_some_and(|&n| n > 0), "{name}: {stdout}");
    }
}
