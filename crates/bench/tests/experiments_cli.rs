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
