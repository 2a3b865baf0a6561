//! The correctness checker. Every check counts into `failed`; nothing is
//! dropped on the way to the result line.

use crate::report::ChildReport;

/// The checked outcome of one measured run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Verdict {
    /// Operations attempted: utterances or camera windows for a fleet,
    /// records for the wire workload.
    pub attempted: u64,
    /// Operations that failed a check.
    pub failed: u64,
    /// One line per failed check.
    pub problems: Vec<String>,
}

impl Verdict {
    /// Whether every check passed.
    pub fn ok(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    fn fail(&mut self, operations: u64, problem: String) {
        self.failed += operations;
        self.problems.push(problem);
    }
}

/// Checks a fleet run against the reference run of the same fleet and
/// seed: no sensitive event and no raw payload may reach the cloud, and
/// every device's committed decisions, and the whole decision artifact,
/// must equal the reference. A device that differs in any way counts all
/// of its events as failed; a run that errored counts every event.
pub fn check_fleet(reference: &ChildReport, run: &ChildReport) -> Verdict {
    let expected: u64 = reference.devices.iter().map(|d| d.events).sum();
    let mut verdict = Verdict {
        attempted: (run.get("events") as u64).max(expected).max(1),
        ..Verdict::default()
    };
    if run.get("error") > 0.0 {
        let attempted = verdict.attempted;
        verdict.fail(attempted, "the fleet run returned an error".to_owned());
        return verdict;
    }
    let devices = reference.devices.len().max(run.devices.len());
    for i in 0..devices {
        let (want, got) = (reference.devices.get(i), run.devices.get(i));
        let events = want
            .map_or(0, |d| d.events)
            .max(got.map_or(0, |d| d.events));
        let Some(got) = got else {
            verdict.fail(events.max(1), format!("device {i} is missing from the run"));
            continue;
        };
        if got.leaked > 0 {
            verdict.fail(
                events.max(1),
                format!("device {i} leaked {} sensitive events", got.leaked),
            );
        } else if got.payload_bytes > 0 {
            verdict.fail(
                events.max(1),
                format!("device {i} sent {} payload bytes", got.payload_bytes),
            );
        } else if want != Some(got) {
            verdict.fail(
                events.max(1),
                format!("device {i} decisions differ from the reference"),
            );
        }
    }
    if verdict.problems.is_empty() && run.digest != reference.digest {
        let attempted = verdict.attempted;
        verdict.fail(
            attempted,
            "cloud_decisions_json digest differs from the reference".to_owned(),
        );
    }
    let refused = run.get("attest_rejects") as u64;
    if refused > 0 {
        verdict.fail(refused, format!("{refused} attestation requests refused"));
    }
    verdict.failed = verdict.failed.min(verdict.attempted);
    verdict
}

/// Checks a wire run: every record committed exactly once with the
/// payload sent (the run counts violations into `failed`), no request
/// refused, and the crash schedule actually fired.
pub fn check_wire(run: &ChildReport) -> Verdict {
    let mut verdict = Verdict {
        attempted: (run.get("events") as u64).max(1),
        ..Verdict::default()
    };
    let failed = run.get("failed") as u64;
    if failed > 0 {
        verdict.fail(
            failed,
            format!("{failed} records not committed exactly once or refused"),
        );
    }
    check_crash_fired(run, &mut verdict);
    verdict
}

/// A run through a crashing ingest plane must have had records refused
/// for a stale epoch: otherwise the crash schedule missed the traffic
/// and the recovery path went untested.
pub fn check_crash_fired(run: &ChildReport, verdict: &mut Verdict) {
    if run.get("ingest.stale_epoch_rejects") <= 0.0 {
        verdict.fail(1, "the crash schedule never fired".to_owned());
    }
    verdict.failed = verdict.failed.min(verdict.attempted);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::DeviceOutcome;

    fn fleet(leaked: u64, device_digest: &str, digest: &str) -> ChildReport {
        let mut report = ChildReport {
            digest: digest.to_owned(),
            ..ChildReport::default()
        };
        report.set("events", 4.0);
        for i in 0..2 {
            report.devices.push(DeviceOutcome {
                events: 2,
                digest: if i == 1 { device_digest } else { "d0" }.to_owned(),
                leaked: if i == 1 { leaked } else { 0 },
                payload_bytes: 0,
            });
        }
        report
    }

    #[test]
    fn identical_runs_pass() {
        let reference = fleet(0, "d1", "all");
        let verdict = check_fleet(&reference, &reference.clone());
        assert!(verdict.ok(), "{verdict:?}");
        assert_eq!(verdict.attempted, 4);
    }

    #[test]
    fn a_leak_fails_the_run() {
        let reference = fleet(0, "d1", "all");
        let verdict = check_fleet(&reference, &fleet(1, "d1", "all"));
        assert!(!verdict.ok());
        assert_eq!(verdict.failed, 2);
    }

    #[test]
    fn a_mismatched_decision_digest_fails_the_run() {
        let reference = fleet(0, "d1", "all");
        // One device's decisions differ.
        let verdict = check_fleet(&reference, &fleet(0, "other", "changed"));
        assert!(!verdict.ok());
        assert_eq!(verdict.failed, 2);
        // Only the whole artifact differs: every event counts.
        let verdict = check_fleet(&reference, &fleet(0, "d1", "changed"));
        assert_eq!(verdict.failed, 4);
    }

    #[test]
    fn an_errored_or_short_run_fails() {
        let reference = fleet(0, "d1", "all");
        let mut errored = fleet(0, "d1", "all");
        errored.set("error", 1.0);
        assert_eq!(check_fleet(&reference, &errored).failed, 4);
        let mut short = fleet(0, "d1", "all");
        short.devices.pop();
        assert!(!check_fleet(&reference, &short).ok());
    }

    #[test]
    fn wire_checks_need_exactly_once_and_a_fired_crash() {
        let mut run = ChildReport::default();
        run.set("events", 100.0);
        run.set("ingest.stale_epoch_rejects", 3.0);
        assert!(check_wire(&run).ok());
        run.set("failed", 2.0);
        assert_eq!(check_wire(&run).failed, 2);
        run.set("failed", 0.0);
        run.set("ingest.stale_epoch_rejects", 0.0);
        assert!(!check_wire(&run).ok());
    }
}
