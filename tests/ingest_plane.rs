//! Integration tests of the sharded attested ingest plane: the
//! attestation/epoch lifecycle on the wire, crash recovery from the
//! journal, backpressure surfacing, the end-of-scenario drain under a
//! shard outage, per-tenant accounting, and the byte-identity of cloud
//! decisions between the plane-routed and direct paths.

use std::sync::{Arc, OnceLock};

use proptest::prelude::*;

use perisec::core::fleet::{FleetConfig, PipelineFleet};
use perisec::core::pipeline::{PipelineConfig, SharedModels};
use perisec::core::FILTER_TA_NAME;
use perisec::ingest::{IngestPlane, IngestPlaneConfig, ShardFaultSpec};
use perisec::relay::attest::{
    encode_attest_request, encode_ingest_record, SessionIngest, ATTEST_SEQ_BASE,
};
use perisec::relay::avs::{AvsDirective, AvsEvent};
use perisec::relay::cloud::{CloudReport, MockCloudService, ReceivedEvent};
use perisec::relay::netsim::NetworkService;
use perisec::relay::{measurement_of, IngestReply, SecureChannelClient, MEASUREMENT_LEN, PSK_LEN};
use perisec::telemetry::{HealthConfig, TelemetryConfig};
use perisec::tz::time::SimDuration;
use perisec::workload::scenario::Scenario;

/// The plane's default PSK (matches the pipelines' `default_psk`).
const PSK: [u8; PSK_LEN] = [0x5a; PSK_LEN];

/// A hand-rolled device speaking the plane's wire protocol directly —
/// full control over sequence numbers, epochs, counters and virtual
/// time, which the in-pipeline channel deliberately hides.
struct WireSession {
    plane: Arc<IngestPlane>,
    session: u64,
    client: SecureChannelClient,
    now_ns: u64,
}

impl WireSession {
    fn connect(plane: &Arc<IngestPlane>, session: u64, now_ns: u64) -> Self {
        let mut client = SecureChannelClient::new(PSK, session + 1000);
        let hello = client.client_hello();
        let reply = plane.handle(session, now_ns, &hello);
        assert!(!reply.is_empty(), "handshake refused");
        client
            .process_server_hello(&reply)
            .expect("server hello authenticates");
        WireSession {
            plane: Arc::clone(plane),
            session,
            client,
            now_ns,
        }
    }

    fn attest(&mut self, measurement: [u8; MEASUREMENT_LEN], counter: u64) -> IngestReply {
        let seq = ATTEST_SEQ_BASE + counter;
        let wire = self
            .client
            .seal_at(seq, &encode_attest_request(&measurement, counter))
            .expect("seal");
        let reply = self.plane.handle(self.session, self.now_ns, &wire);
        assert!(!reply.is_empty(), "attest got no reply");
        let (reply_seq, plain) = self.client.open_explicit(&reply).expect("reply seals");
        assert_eq!(reply_seq, seq);
        IngestReply::decode(&plain).expect("typed reply")
    }

    /// Sends one record; `None` means the shard was down (empty reply).
    fn send(&mut self, seq: u64, epoch: u64, event: &AvsEvent) -> Option<IngestReply> {
        self.send_bytes(seq, epoch, &event.encode())
    }

    /// Sends one record that must be acked; returns the ack's directive.
    fn ack(&mut self, seq: u64, epoch: u64, event: &AvsEvent) -> AvsDirective {
        match self.send(seq, epoch, event) {
            Some(IngestReply::Ack(bytes)) => AvsDirective::decode(&bytes).expect("directive"),
            other => panic!("seq {seq} got {other:?}, not an ack"),
        }
    }

    /// Sends one record carrying `event_bytes` verbatim; `None` means an
    /// empty reply (shard down, or the record was rejected).
    fn send_bytes(&mut self, seq: u64, epoch: u64, event_bytes: &[u8]) -> Option<IngestReply> {
        let wire = self
            .client
            .seal_at(seq, &encode_ingest_record(epoch, event_bytes))
            .expect("seal");
        let reply = self.plane.handle(self.session, self.now_ns, &wire);
        if reply.is_empty() {
            return None;
        }
        let (_, plain) = self.client.open_explicit(&reply).expect("reply seals");
        IngestReply::decode(&plain)
    }
}

/// Authenticated, correctly framed record bytes that decode to no AVS
/// event.
const GARBAGE: &[u8] = &[0xff, 0x00, 0x13];

fn event(dialog_id: u64) -> AvsEvent {
    AvsEvent::TextMessage {
        dialog_id,
        text: format!("event {dialog_id}"),
    }
}

#[test]
fn attestation_gates_and_epoch_fences_records() {
    let ta = measurement_of("test-ta");
    let plane = IngestPlane::new(IngestPlaneConfig::new(1, 1).accepting(vec![ta]));
    let mut wire = WireSession::connect(&plane, 0, 0);

    // No attestation yet: records are refused with a typed NeedAttest.
    assert!(matches!(
        wire.send(0, 0, &event(1)),
        Some(IngestReply::NeedAttest)
    ));
    assert_eq!(plane.counters().stale_epoch_rejects, 1);

    // Wrong measurement and a zero counter are both rejected.
    let impostor = measurement_of("impostor-ta");
    assert!(matches!(
        wire.attest(impostor, 1),
        IngestReply::AttestReject
    ));
    assert!(matches!(wire.attest(ta, 0), IngestReply::AttestReject));

    // A valid attestation grants epoch 1 and opens the gate.
    assert!(matches!(
        wire.attest(ta, 1),
        IngestReply::AttestGrant { epoch: 1 }
    ));
    assert!(matches!(
        wire.send(0, 1, &event(1)),
        Some(IngestReply::Ack(_))
    ));
    assert_eq!(plane.session_report(0).committed_records, 1);

    // A record under a superseded epoch names the granted one.
    assert!(matches!(
        wire.send(1, 0, &event(2)),
        Some(IngestReply::StaleEpoch { granted: 1 })
    ));

    // Retrying the exact last counter re-issues the same epoch (a lost
    // grant being retried), while a fresh counter bumps it.
    assert!(matches!(
        wire.attest(ta, 1),
        IngestReply::AttestGrant { epoch: 1 }
    ));
    assert!(matches!(
        wire.attest(ta, 2),
        IngestReply::AttestGrant { epoch: 2 }
    ));
    assert!(matches!(
        wire.send(1, 2, &event(2)),
        Some(IngestReply::Ack(_))
    ));
    assert_eq!(plane.session_report(0).committed_records, 2);

    // Redelivery of a committed sequence re-acks without re-recording,
    // even under a stale epoch — the promise was already made.
    assert!(matches!(
        wire.send(0, 1, &event(1)),
        Some(IngestReply::Ack(_))
    ));
    let report = plane.session_report(0);
    assert_eq!(report.committed_records, 2);
    assert_eq!(report.redelivered_records, 1);
    assert_eq!(report.events.len(), 2);
}

#[test]
fn backpressure_is_typed_and_surfaces_in_shard_health() {
    let ta = measurement_of("test-ta");
    let plane = IngestPlane::new(
        IngestPlaneConfig::new(1, 1)
            .accepting(vec![ta])
            .with_queue_cap(1),
    );
    let mut wire = WireSession::connect(&plane, 0, 0);
    assert!(matches!(
        wire.attest(ta, 1),
        IngestReply::AttestGrant { epoch: 1 }
    ));

    // One out-of-order record fits the stash; the next gapped one is
    // refused with a typed depth instead of being dropped silently.
    assert!(matches!(
        wire.send(2, 1, &event(2)),
        Some(IngestReply::Ack(_))
    ));
    assert!(matches!(
        wire.send(3, 1, &event(3)),
        Some(IngestReply::Backpressure { depth: 1 })
    ));
    assert_eq!(plane.counters().backpressure_rejects, 1);

    // Filling the gap drains the stash in order.
    assert!(matches!(
        wire.send(0, 1, &event(0)),
        Some(IngestReply::Ack(_))
    ));
    assert!(matches!(
        wire.send(1, 1, &event(1)),
        Some(IngestReply::Ack(_))
    ));
    assert_eq!(plane.session_report(0).committed_records, 3);

    // The rejection rides the telemetry fold under its billing key and
    // trips the health detector.
    let telemetry = plane.shard_telemetry(0);
    assert_eq!(telemetry.counters.get("ingest.backpressure"), Some(&1));
    assert!(telemetry.counters.contains_key("ingest.committed"));
    let config = HealthConfig {
        backpressure_threshold: 1,
        ..HealthConfig::with_window(SimDuration::from_secs(1))
    };
    let health = plane.shard_health(0, &config);
    assert!(
        health.alerts_of("backpressure") > 0,
        "{}",
        health.to_table()
    );
}

#[test]
fn undecodable_records_are_rejected_before_they_are_counted_or_queued() {
    let ta = measurement_of("test-ta");
    let plane = IngestPlane::new(
        IngestPlaneConfig::new(1, 1)
            .accepting(vec![ta])
            .with_queue_cap(1),
    );
    let mut wire = WireSession::connect(&plane, 0, 0);
    assert!(matches!(
        wire.attest(ta, 1),
        IngestReply::AttestGrant { epoch: 1 }
    ));

    // Ahead of the commit point (0): a rejection, not an out-of-order
    // arrival — the direct cloud's count for the same record.
    assert!(wire.send_bytes(1, 1, GARBAGE).is_none());
    let report = plane.session_report(0);
    assert_eq!(report.rejected_records, 1);
    assert_eq!(report.out_of_order_records, 0);

    // With the one-record queue full, a gapped undecodable record is
    // still a rejection, not a typed backpressure reply.
    assert!(matches!(
        wire.send(2, 1, &event(2)),
        Some(IngestReply::Ack(_))
    ));
    assert!(wire.send_bytes(3, 1, GARBAGE).is_none());
    let report = plane.session_report(0);
    assert_eq!(report.rejected_records, 2);
    assert_eq!(report.out_of_order_records, 1);
    assert_eq!(plane.counters().backpressure_rejects, 0);

    // At the already-accepted seq 2, under a superseded epoch, and on a
    // session that never attested, it is the same silent rejection: no
    // re-ack, no StaleEpoch or NeedAttest reply, and no fence reject.
    assert!(wire.send_bytes(2, 1, GARBAGE).is_none());
    assert!(wire.send_bytes(4, 0, GARBAGE).is_none());
    let mut unattested = WireSession::connect(&plane, 1, 0);
    assert!(unattested.send_bytes(0, 0, GARBAGE).is_none());
    let report = plane.session_report(0);
    assert_eq!(report.rejected_records, 4);
    assert_eq!(report.redelivered_records, 0);
    assert_eq!(plane.session_report(1).rejected_records, 1);
    assert_eq!(plane.counters().stale_epoch_rejects, 0);

    // The direct cloud counts the first record the same way.
    let cloud = MockCloudService::new(PSK);
    let mut client = SecureChannelClient::new(PSK, 1000);
    let hello = cloud.handle(0, &client.client_hello());
    client
        .process_server_hello(&hello)
        .expect("server hello authenticates");
    assert!(cloud
        .handle(0, &client.seal_at(1, GARBAGE).expect("seal"))
        .is_empty());
    let direct = cloud.report();
    assert_eq!(
        (direct.rejected_records, direct.out_of_order_records),
        (1, 0)
    );
}

#[test]
fn a_rebuilt_shard_resumes_its_window_from_the_journal() {
    let ta = measurement_of("test-ta");
    let plane = IngestPlane::new(
        IngestPlaneConfig::new(1, 1)
            .accepting(vec![ta])
            .with_faults(ShardFaultSpec::single(5, 1_000, 1_000)),
    );
    let mut wire = WireSession::connect(&plane, 0, 0);
    assert!(matches!(
        wire.attest(ta, 1),
        IngestReply::AttestGrant { epoch: 1 }
    ));
    // Before the crash: seq 0 commits, seq 2 waits for seq 1.
    let first_acks: Vec<AvsDirective> = [0, 2]
        .into_iter()
        .map(|seq| wire.ack(seq, 1, &event(seq)))
        .collect();
    assert_eq!(
        first_acks,
        [0, 2].map(|dialog_id| AvsDirective::Ack { dialog_id })
    );
    // After the restart the session re-attests; the waiting seq 2 is a
    // redelivery, and seq 1 commits it in order.
    wire.now_ns = 3_000;
    assert!(matches!(
        wire.attest(ta, 2),
        IngestReply::AttestGrant { epoch: 2 }
    ));
    // A redelivery is re-acked with its seq's first ack, read back from
    // the stash (seq 2) or the journal (seq 0), whatever it carries now.
    let stashed_reack = wire.ack(2, 2, &event(12));
    assert_eq!(
        wire.ack(1, 2, &event(1)),
        AvsDirective::Ack { dialog_id: 1 }
    );
    let committed_reack = wire.ack(0, 2, &event(10));
    assert_eq!(stashed_reack, first_acks[1]);
    assert_eq!(committed_reack, first_acks[0]);
    let report = plane.session_report(0);
    assert_eq!(report.committed_records, 3);
    assert_eq!(report.out_of_order_records, 1);
    assert_eq!(report.redelivered_records, 2);
    let order: Vec<u64> = report.events.iter().map(|e| e.dialog_id).collect();
    assert_eq!(order, vec![0, 1, 2]);
    // Commits at depths 0 (seq 0), then 1 and 0 (seq 1 with seq 2 still
    // stashed, then seq 2) price 20, 40 and 20 µs; the journal holds the
    // hello, two grants, three arrivals and three commits.
    let telemetry = plane.shard_telemetry(0);
    let commits = &telemetry.histograms["ingest.commit"];
    assert_eq!(commits.count(), 3);
    assert_eq!(commits.mean(), SimDuration::from_nanos(26_666));
    assert_eq!(commits.max(), SimDuration::from_micros(40));
    assert_eq!(telemetry.counters["ingest.journal"], 9);
}

#[test]
fn shard_health_journals_crash_windows() {
    let ta = measurement_of("test-ta");
    let plane = IngestPlane::new(
        IngestPlaneConfig::new(1, 1)
            .accepting(vec![ta])
            .with_faults(ShardFaultSpec::single(3, 1_000_000, 500_000)),
    );
    // Session traffic entirely before the crash window.
    let mut wire = WireSession::connect(&plane, 0, 0);
    assert!(matches!(
        wire.attest(ta, 1),
        IngestReply::AttestGrant { epoch: 1 }
    ));
    assert!(matches!(
        wire.send(0, 1, &event(0)),
        Some(IngestReply::Ack(_))
    ));
    let health = plane.shard_health(0, &HealthConfig::with_window(SimDuration::from_secs(1)));
    assert_eq!(health.alerts_of("shard_down"), 1);
    assert_eq!(health.alerts_of("shard_recovered"), 1);
}

proptest! {
    /// Satellite 3a: attestation replay and downgrade attempts — a
    /// reused or lower counter, a tampered measurement, a record sealed
    /// under a superseded epoch — are rejected for every seed, and a
    /// rejection never moves the session's epoch or commit stream.
    #[test]
    fn replayed_or_downgraded_attestations_never_accepted(seed in any::<u64>()) {
        let ta = measurement_of("prop-ta");
        let plane = IngestPlane::new(IngestPlaneConfig::new(1, 1).accepting(vec![ta]));
        let mut wire = WireSession::connect(&plane, 0, 0);

        // A grant at some counter > 1.
        let counter = 2 + seed % 64;
        prop_assert!(matches!(
            wire.attest(ta, counter),
            IngestReply::AttestGrant { epoch: 1 }
        ));
        prop_assert!(matches!(
            wire.send(0, 1, &event(0)),
            Some(IngestReply::Ack(_))
        ));

        // Replay fence: any strictly lower counter is refused.
        let lower = seed % counter; // in [0, counter)
        prop_assert!(matches!(
            wire.attest(ta, lower),
            IngestReply::AttestReject
        ));

        // Tamper fence: a corrupted measurement is refused at any
        // counter, and the session's epoch does not move.
        let mut tampered = ta;
        tampered[(seed % MEASUREMENT_LEN as u64) as usize] ^= 1 + (seed >> 32) as u8;
        prop_assert!(matches!(
            wire.attest(tampered, counter + 1),
            IngestReply::AttestReject
        ));
        prop_assert!(matches!(
            wire.send(1, 1, &event(1)),
            Some(IngestReply::Ack(_))
        ));

        // Downgrade fence: after a fresh grant bumps the epoch, records
        // sealed under any previous epoch are refused.
        prop_assert!(matches!(
            wire.attest(ta, counter + 2),
            IngestReply::AttestGrant { epoch: 2 }
        ));
        prop_assert!(matches!(
            wire.send(2, 1, &event(2)), // epoch 1, the superseded grant
            Some(IngestReply::StaleEpoch { granted: 2 })
        ));
        prop_assert_eq!(plane.counters().attest_rejects, 2);
        prop_assert_eq!(plane.session_report(0).committed_records, 2);
    }

    /// Satellite 3b: a shard crash beginning at any virtual instant,
    /// with any downtime, never loses or duplicates a committed record
    /// — the surviving stream is identical to the fault-free run.
    #[test]
    fn crash_at_any_virtual_instant_never_loses_or_duplicates_commits(seed in any::<u64>()) {
        const RECORDS: u64 = 12;
        const SPACING_NS: u64 = 10_000;
        let ta = measurement_of("prop-ta");
        let reference = fault_free_reference(ta, RECORDS);

        // A crash beginning at an arbitrary instant within the run.
        let crash_at = 1 + seed % (RECORDS * SPACING_NS);
        let downtime = 1 + (seed >> 32) % (4 * SPACING_NS);
        let plane = IngestPlane::new(
            IngestPlaneConfig::new(1, 1)
                .accepting(vec![ta])
                .with_faults(ShardFaultSpec::single(seed, crash_at, downtime)),
        );
        let mut wire = WireSession::connect(&plane, 0, 0);
        let mut counter = 1u64;
        let mut epoch = match wire.attest(ta, counter) {
            IngestReply::AttestGrant { epoch } => epoch,
            other => panic!("initial attest refused: {other:?}"),
        };
        for seq in 0..RECORDS {
            wire.now_ns = seq * SPACING_NS;
            // The device loop: retry through downtime, re-attest on a
            // fenced epoch, resend until acked. Redeliveries of records
            // whose ack was made while we were retrying are re-acked.
            let mut rounds = 0;
            loop {
                rounds += 1;
                prop_assert!(rounds < 64, "no ack after {rounds} rounds");
                match wire.send(seq, epoch, &event(seq)) {
                    Some(IngestReply::Ack(_)) => break,
                    Some(IngestReply::NeedAttest) | Some(IngestReply::StaleEpoch { .. }) => {
                        counter += 1;
                        match wire.attest(ta, counter) {
                            IngestReply::AttestGrant { epoch: granted } => epoch = granted,
                            other => panic!("re-attest refused: {other:?}"),
                        }
                    }
                    Some(other) => panic!("unexpected reply: {other:?}"),
                    // Shard down: wait out some virtual time and retry.
                    None => wire.now_ns += SPACING_NS,
                }
            }
        }
        // Exactly-once: the committed stream matches the fault-free
        // reference — nothing lost, nothing double-recorded.
        let report = plane.session_report(0);
        prop_assert_eq!(report.committed_records, RECORDS);
        prop_assert_eq!(&report.events, &reference);
    }
}

/// The decision stream of a fault-free single-session run, used as the
/// exactly-once reference by the crash property test.
fn fault_free_reference(ta: [u8; MEASUREMENT_LEN], records: u64) -> Vec<ReceivedEvent> {
    let plane = IngestPlane::new(IngestPlaneConfig::new(1, 1).accepting(vec![ta]));
    let mut wire = WireSession::connect(&plane, 0, 0);
    assert!(matches!(
        wire.attest(ta, 1),
        IngestReply::AttestGrant { .. }
    ));
    for seq in 0..records {
        assert!(matches!(
            wire.send(seq, 1, &event(seq)),
            Some(IngestReply::Ack(_))
        ));
    }
    plane.session_report(0).events
}

// ----- the direct cloud and a 1-shard plane, arrival for arrival ----------

/// What an engine answered to one arrival: the AVS directive of an
/// accepted or redelivered record, or a refusal (silence from the
/// direct cloud; from a shard, a typed `Backpressure` for a well-formed
/// record and silence for an undecodable one).
#[derive(Debug, PartialEq)]
enum Answer {
    Directive(AvsDirective),
    Refused,
}

/// The event sealed at `seq`: every kind the commit path records
/// differently, and the same bytes on every redelivery of `seq`.
fn parity_event(seq: u64) -> AvsEvent {
    match seq % 5 {
        0 => event(seq),
        1 => AvsEvent::Recognize {
            dialog_id: seq,
            audio: vec![seq as u8; 1 + (seq % 7) as usize],
        },
        2 => AvsEvent::FrameVerdict {
            dialog_id: seq,
            frames: 4,
            probability_milli: (seq * 37 % 1000) as u16,
        },
        3 => AvsEvent::Batch(vec![event(seq), AvsEvent::Ping, event(seq + 1000)]),
        _ => AvsEvent::Ping,
    }
}

/// One arrival: a sequence number, and whether it carries [`GARBAGE`]
/// in place of `parity_event(seq)`.
type Arrival = (u64, bool);

fn arrival_bytes(&(seq, garbage): &Arrival) -> Vec<u8> {
    if garbage {
        GARBAGE.to_vec()
    } else {
        parity_event(seq).encode()
    }
}

/// Feeds `schedule` to a direct `MockCloudService`.
fn direct_answers(schedule: &[Arrival]) -> (Vec<Answer>, CloudReport) {
    let cloud = MockCloudService::new(PSK);
    let mut client = SecureChannelClient::new(PSK, 1000);
    let hello = cloud.handle(0, &client.client_hello());
    client
        .process_server_hello(&hello)
        .expect("server hello authenticates");
    let answers = schedule
        .iter()
        .map(|arrival| {
            let seq = arrival.0;
            let wire = client.seal_at(seq, &arrival_bytes(arrival)).expect("seal");
            let reply = cloud.handle(0, &wire);
            if reply.is_empty() {
                return Answer::Refused;
            }
            let (acked, plain) = client.open_explicit(&reply).expect("reply seals");
            assert_eq!(acked, seq);
            Answer::Directive(AvsDirective::decode(&plain).expect("directive"))
        })
        .collect();
    (answers, cloud.report())
}

/// Feeds `schedule` to an attested session of a fault-free 1-shard plane
/// at the default queue cap.
fn plane_answers(schedule: &[Arrival]) -> (Vec<Answer>, CloudReport) {
    let ta = measurement_of("parity-ta");
    let plane = IngestPlane::new(IngestPlaneConfig::new(1, 1).accepting(vec![ta]));
    let mut wire = WireSession::connect(&plane, 0, 0);
    assert!(matches!(
        wire.attest(ta, 1),
        IngestReply::AttestGrant { epoch: 1 }
    ));
    let answers = schedule
        .iter()
        .map(
            |arrival| match wire.send_bytes(arrival.0, 1, &arrival_bytes(arrival)) {
                Some(IngestReply::Ack(directive)) => {
                    Answer::Directive(AvsDirective::decode(&directive).expect("directive"))
                }
                // A well-formed record is refused only with a typed
                // Backpressure, an undecodable one only with silence.
                Some(IngestReply::Backpressure { .. }) if !arrival.1 => Answer::Refused,
                None if arrival.1 => Answer::Refused,
                other => panic!("unexpected reply to {arrival:?}: {other:?}"),
            },
        )
        .collect();
    (answers, plane.session_report(0))
}

/// A splitmix64 stream for building arrival schedules from one seed.
struct Splitmix(u64);

impl Splitmix {
    fn below(&mut self, bound: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) % bound
    }

    fn shuffled(&mut self, seqs: impl Iterator<Item = u64>) -> Vec<u64> {
        let mut seqs: Vec<u64> = seqs.collect();
        for i in (1..seqs.len()).rev() {
            seqs.swap(i, self.below(i as u64 + 1) as usize);
        }
        seqs
    }
}

proptest! {
    /// The two exactly-once engines agree under any reordering: a
    /// permutation of `0..n` with duplicates and undecodable records
    /// spliced in gets the same answer at every arrival and the same
    /// committed report. Only the undecodable arrivals are refused,
    /// including those at an already-accepted seq.
    #[test]
    fn direct_cloud_and_plane_agree_under_any_arrival_order(seed in any::<u64>()) {
        let mut rng = Splitmix(seed);
        let n = 1 + rng.below(40);
        let mut schedule: Vec<Arrival> =
            rng.shuffled(0..n).into_iter().map(|seq| (seq, false)).collect();
        for garbage in [false, true] {
            for _ in 0..rng.below(n + 1) {
                let at = rng.below(schedule.len() as u64 + 1) as usize;
                let seq = rng.below(n);
                schedule.insert(at, (seq, garbage));
            }
        }
        let (direct, direct_report) = direct_answers(&schedule);
        let (plane, plane_report) = plane_answers(&schedule);
        prop_assert!(direct
            .iter()
            .zip(&schedule)
            .all(|(answer, &(_, garbage))| (*answer == Answer::Refused) == garbage));
        prop_assert_eq!(&direct, &plane, "answers differ for {:?}", schedule);
        prop_assert_eq!(direct_report.committed_records, n);
        prop_assert_eq!(&direct_report, &plane_report, "reports differ for {:?}", schedule);
    }

    /// Past the stash bound the two engines refuse the same arrivals:
    /// more than 256 records arrive ahead of the commit point, then the
    /// gap fills and every sequence is sent again.
    #[test]
    fn direct_cloud_and_plane_refuse_the_same_arrivals_past_the_stash_bound(
        seed in any::<u64>()
    ) {
        let mut rng = Splitmix(seed);
        let ahead = 257 + rng.below(40);
        let mut schedule = rng.shuffled(1..=ahead);
        schedule.push(0);
        schedule.extend(rng.shuffled(1..=ahead));
        schedule.extend(0..=ahead);
        let schedule: Vec<Arrival> = schedule.into_iter().map(|seq| (seq, false)).collect();
        let (direct, direct_report) = direct_answers(&schedule);
        let (plane, plane_report) = plane_answers(&schedule);
        let refused = direct.iter().filter(|a| **a == Answer::Refused).count() as u64;
        prop_assert!(refused >= ahead - 256, "{} refusals of {} ahead", refused, ahead);
        prop_assert_eq!(&direct, &plane);
        prop_assert_eq!(direct_report.committed_records, ahead + 1);
        prop_assert_eq!(&direct_report, &plane_report);
    }
}

#[test]
fn sessions_are_placed_round_robin() {
    // Sessions past the configured count take the same rule.
    for shards in 1..=8usize {
        let plane = IngestPlane::new(IngestPlaneConfig::new(shards, 2 * shards + 1));
        for session in 0..(3 * shards + 2) as u64 {
            assert_eq!(
                plane.shard_of(session),
                session as usize % shards,
                "session {session} of a {shards}-shard plane"
            );
        }
    }
}

/// A plane scales with its shard count only as far as placement spreads
/// the committed records: the busiest shard's commits bound the makespan.
/// At 4 shards, busiest / mean committed per shard must stay at or below
/// 2.0, which is 4 shards modelling at least twice the throughput of one.
#[test]
fn throughput_scales_with_shard_count() {
    let ta = measurement_of("scale-ta");
    const SHARDS: usize = 4;
    const SESSIONS: u64 = 8;
    const RECORDS: u64 = 50;
    let plane =
        IngestPlane::new(IngestPlaneConfig::new(SHARDS, SESSIONS as usize).accepting(vec![ta]));
    for session in 0..SESSIONS {
        let mut wire = WireSession::connect(&plane, session, 0);
        assert!(matches!(
            wire.attest(ta, 1),
            IngestReply::AttestGrant { .. }
        ));
        for seq in 0..RECORDS {
            assert!(matches!(
                wire.send(seq, 1, &event(seq)),
                Some(IngestReply::Ack(_))
            ));
        }
    }
    let per_shard = plane.committed_per_shard();
    let total = plane.total_committed();
    assert_eq!(total, SESSIONS * RECORDS);
    let busiest = per_shard.iter().copied().max().unwrap();
    let ratio = busiest as f64 * SHARDS as f64 / total as f64;
    assert!(
        ratio <= 2.0,
        "busiest shard commits {ratio:.2}x the mean: {per_shard:?}"
    );
}

// ----- fleet-level (pipeline-routed) tests ---------------------------------

fn shared_models() -> &'static (PipelineConfig, SharedModels, Vec<Scenario>) {
    static SHARED: OnceLock<(PipelineConfig, SharedModels, Vec<Scenario>)> = OnceLock::new();
    SHARED.get_or_init(|| {
        let pipeline = PipelineConfig {
            train_utterances: 60,
            batch_windows: 2,
            ..PipelineConfig::default()
        };
        let models = SharedModels::for_config(&pipeline).expect("models train");
        let scenarios = Scenario::fleet(4, 5, 0.5, SimDuration::from_secs(1), 0xE21);
        (pipeline, models, scenarios)
    })
}

fn routed_config(plane: &Arc<IngestPlane>, workers: usize) -> FleetConfig {
    let (pipeline, _, _) = shared_models();
    FleetConfig {
        devices: 4,
        pipeline: pipeline.clone(),
        workers,
        ingest: Some(Arc::clone(plane) as _),
        ..FleetConfig::of(0)
    }
}

fn filter_plane(shards: usize, faults: ShardFaultSpec) -> Arc<IngestPlane> {
    IngestPlane::new(
        IngestPlaneConfig::new(shards, 4)
            .accepting(vec![measurement_of(FILTER_TA_NAME)])
            .with_faults(faults),
    )
}

#[test]
fn fleet_decisions_identical_through_crashing_plane() {
    let (pipeline, models, scenarios) = shared_models();
    let direct = PipelineFleet::with_models(
        FleetConfig {
            devices: 4,
            pipeline: pipeline.clone(),
            ..FleetConfig::of(0)
        },
        models.clone(),
    )
    .run(scenarios)
    .unwrap();

    // Two shards crash mid-run; the fleet re-attests and recovers, and
    // the decision stream is byte-identical at every worker count.
    let mut jsons = Vec::new();
    for workers in [1usize, 2, 8] {
        let plane = filter_plane(2, ShardFaultSpec::single(7, 1_500_000_000, 150_000_000));
        let routed = PipelineFleet::with_models(routed_config(&plane, workers), models.clone())
            .run(scenarios)
            .unwrap();
        let counters = plane.counters();
        assert!(
            counters.stale_epoch_rejects > 0,
            "crash did not fence any record: {counters:?}"
        );
        assert!(
            counters.attest_grants > 4,
            "no session re-attested: {counters:?}"
        );
        jsons.push(routed.cloud_decisions_json());
    }
    assert_eq!(direct.cloud_decisions_json(), jsons[0]);
    assert_eq!(jsons[0], jsons[1]);
    assert_eq!(jsons[1], jsons[2]);
}

#[test]
fn drain_during_shard_outage_strands_nothing() {
    let (pipeline, models, scenarios) = shared_models();
    let direct = PipelineFleet::with_models(
        FleetConfig {
            devices: 4,
            pipeline: pipeline.clone(),
            ..FleetConfig::of(0)
        },
        models.clone(),
    )
    .run(scenarios)
    .unwrap();

    // The outage covers the scenarios' tail (devices finish ~4.0s of
    // virtual time), so the end-of-scenario FLUSH_RELAY drain begins
    // against a dead shard and must ride retries through the restart.
    let plane = filter_plane(1, ShardFaultSpec::single(11, 3_850_000_000, 400_000_000));
    let fleet = PipelineFleet::with_models(
        FleetConfig {
            telemetry: TelemetryConfig::metrics(),
            ..routed_config(&plane, 2)
        },
        models.clone(),
    );
    let (routed, _, telemetry) = fleet.run_mixed_telemetry(scenarios, &[]).unwrap();

    // The drain really engaged: flushes deferred into retries while the
    // shard was down, and sessions re-attested to the new incarnation.
    assert!(
        telemetry.counters.get("relay.retries").copied() > Some(0),
        "outage injected no retries"
    );
    assert!(plane.counters().stale_epoch_rejects > 0);
    // Zero stranded records: every verdict converged after recovery.
    assert_eq!(direct.cloud_decisions_json(), routed.cloud_decisions_json());
}

#[test]
fn accounting_rows_itemize_tenants() {
    let (_, models, scenarios) = shared_models();
    let plane = filter_plane(2, ShardFaultSpec::none(0));
    let fleet = PipelineFleet::with_models(
        FleetConfig {
            telemetry: TelemetryConfig::metrics(),
            ..routed_config(&plane, 2)
        },
        models.clone(),
    );
    let (report, _, telemetry) = fleet.run_mixed_telemetry(scenarios, &[]).unwrap();
    let json = report.to_json_with_telemetry(&telemetry);
    assert!(json.contains("\"accounting\""));
    assert!(json.contains("\"billing_keys\""));
    assert!(json.contains("\"tenants\""));
    assert!(json.contains("\"session\""));
    assert!(json.contains("\"committed\""));
    assert!(json.contains("\"redelivered\""));
    // Span names double as billing keys.
    assert!(json.contains("tee-filter") || json.contains("smc.call"));
    // One row per device session.
    assert_eq!(json.matches("\"session\"").count(), 4);
}
