//! The checker against real tiny runs: a clean run passes, and a run with
//! a leak, a changed decision or a different seed's decisions fails.

use perisec_perfbench::check::{check_fleet, check_wire};
use perisec_perfbench::spans::SpanLog;
use perisec_perfbench::{run_child, Role, Scale, Workload};

fn child(workload: Workload, seed: u64, role: Role) -> perisec_perfbench::report::ChildReport {
    run_child(workload, Scale::Tiny, seed, role, &mut SpanLog::new()).expect("tiny run")
}

#[test]
fn camera_fleet_runs_check_against_their_reference() {
    let reference = child(Workload::CameraFleet, 3, Role::Reference);
    let run = child(Workload::CameraFleet, 3, Role::Measure);
    let verdict = check_fleet(&reference, &run);
    assert!(verdict.ok(), "{verdict:?}");
    assert!(verdict.attempted > 0);

    let mut leaked = run.clone();
    leaked.devices[5].leaked = 1;
    let verdict = check_fleet(&reference, &leaked);
    assert!(!verdict.ok());
    assert_eq!(verdict.failed, leaked.devices[5].events.max(1));

    let mut tampered = run.clone();
    tampered.devices[9].digest = "0000000000000000".to_owned();
    assert!(!check_fleet(&reference, &tampered).ok());

    let mut whole = run.clone();
    whole.digest = "0000000000000000".to_owned();
    let verdict = check_fleet(&reference, &whole);
    assert_eq!(verdict.failed, verdict.attempted);

    // Another seed's fleet makes other decisions.
    let other = child(Workload::CameraFleet, 4, Role::Measure);
    assert!(!check_fleet(&reference, &other).ok());
}

#[test]
fn chaos_runs_match_the_fault_free_direct_reference() {
    let reference = child(Workload::CameraPlaneChaos, 5, Role::Reference);
    let run = child(Workload::CameraPlaneChaos, 5, Role::Measure);
    assert!(check_fleet(&reference, &run).ok());
    assert!(run.get("ingest.stale_epoch_rejects") > 0.0);
}

#[test]
fn wire_runs_commit_every_record_exactly_once_through_a_crash() {
    let run = child(Workload::IngestWire, 6, Role::Measure);
    let verdict = check_wire(&run);
    assert!(verdict.ok(), "{verdict:?}");
    assert!(run.get("ingest.stale_epoch_rejects") > 0.0);
}
