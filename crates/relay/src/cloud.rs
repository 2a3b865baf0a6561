//! The mock cloud service and the exactly-once commit core.
//!
//! [`MockCloudService`] plays the role of the untrusted cloud provider
//! (Amazon/Google in the paper): terminates the relay's secure channel,
//! decodes AVS events, and — crucially for the privacy experiments —
//! records exactly what it received. Whatever appears in [`CloudReport`]
//! is, by definition, what has been exposed to the untrusted party.
//!
//! [`CommitWindow`] is the one commit discipline every cloud-side engine
//! runs: `(session, seq)` dedup, a bounded stash of decoded events, and
//! in-order commit into the session's report. The direct cloud runs one
//! window per connection; each session of an ingest shard runs one too,
//! with its epoch fence, journal and typed replies around it.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

use crate::avs::{AvsDirective, AvsEvent};
use crate::netsim::NetworkService;
use crate::tls::{peek_record_type, SecureChannelServer, CLIENT_HELLO, EXPLICIT_RECORD, PSK_LEN};

/// Most explicit-sequence records a session may stash ahead of the
/// commit point before the cloud answers with silence (backpressure) —
/// the device's bounded unacked window is far smaller than this.
const STASH_CAP: usize = 256;

/// One event as received (and understood) by the cloud.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReceivedEvent {
    /// Dialog the event belongs to.
    pub dialog_id: u64,
    /// Transcript text, if the event carried text.
    pub text: Option<String>,
    /// Audio payload size, if the event carried audio.
    pub audio_bytes: usize,
    /// Whether the event arrived over the encrypted channel.
    pub encrypted: bool,
}

/// Everything the cloud has observed.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CloudReport {
    /// Events the cloud decoded, in arrival order.
    pub events: Vec<ReceivedEvent>,
    /// Number of records that failed channel authentication.
    pub rejected_records: u64,
    /// Total application bytes received (after decryption).
    pub application_bytes: u64,
    /// Explicit-sequence records that arrived again after already being
    /// accepted — at-least-once delivery observed, deduplicated away.
    pub redelivered_records: u64,
    /// Explicit-sequence records that arrived ahead of the commit point
    /// and had to be stashed until the gap filled.
    pub out_of_order_records: u64,
    /// Explicit-sequence records committed exactly once, in sequence
    /// order.
    pub committed_records: u64,
}

impl CloudReport {
    /// Dialog ids for which the cloud received any content.
    pub fn received_dialog_ids(&self) -> Vec<u64> {
        let mut ids: Vec<u64> = self.events.iter().map(|e| e.dialog_id).collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// Number of Recognize (audio) events received.
    pub fn recognize_count(&self) -> usize {
        self.events.iter().filter(|e| e.audio_bytes > 0).count()
    }

    /// Concatenated text received for one dialog.
    pub fn text_of(&self, dialog_id: u64) -> String {
        self.events
            .iter()
            .filter(|e| e.dialog_id == dialog_id)
            .filter_map(|e| e.text.clone())
            .collect::<Vec<_>>()
            .join(" ")
    }
}

/// The exactly-once, in-order commit state of one session.
///
/// Every sequence below the commit point has been recorded exactly once;
/// decoded events that arrived ahead of it wait in a bounded stash until
/// the gap fills, so the decision log is in send order however the
/// network reordered arrivals. An arrival *at* the commit point commits
/// without entering the stash. The window counts what it sees into the
/// session's [`CloudReport`]: `redelivered_records`,
/// `out_of_order_records` and `committed_records`.
#[derive(Debug, Default)]
pub struct CommitWindow {
    next_commit: u64,
    stash: BTreeMap<u64, AvsEvent>,
}

impl CommitWindow {
    /// A window resumed from a journal: every sequence below
    /// `next_commit` committed, and `waiting` — the accepted arrivals
    /// beyond it — stashed.
    pub fn resume(next_commit: u64, waiting: impl IntoIterator<Item = (u64, AvsEvent)>) -> Self {
        CommitWindow {
            next_commit,
            stash: waiting.into_iter().collect(),
        }
    }

    /// Whether `seq` was accepted before — committed, or stashed until
    /// its gap fills — and so only needs re-acking. A redelivery is
    /// counted in `report`.
    pub fn redelivered(&self, seq: u64, report: &mut CloudReport) -> bool {
        let again = seq < self.next_commit || self.stash.contains_key(&seq);
        report.redelivered_records += u64::from(again);
        again
    }

    /// The stashed event at `seq`, if it waits for a gap to fill.
    pub fn stashed(&self, seq: u64) -> Option<&AvsEvent> {
        self.stash.get(&seq)
    }

    /// Records waiting in the stash.
    pub fn depth(&self) -> usize {
        self.stash.len()
    }

    /// Whether accepting `seq` would stash it past `cap` waiting
    /// records. An arrival at the commit point never waits.
    pub fn is_full(&self, seq: u64, cap: usize) -> bool {
        seq != self.next_commit && self.stash.len() >= cap
    }

    /// Accepts a fresh arrival (neither a redelivery nor refused by
    /// [`CommitWindow::is_full`]). One ahead of the commit point is
    /// stashed and counted out of order; one at it commits, followed by
    /// every stashed successor it unblocks. Each commit is recorded in
    /// `report` and then passed to `on_commit` as `(seq, event, depth)`,
    /// `depth` being the records still stashed after it.
    pub fn accept(
        &mut self,
        seq: u64,
        event: AvsEvent,
        report: &mut CloudReport,
        mut on_commit: impl FnMut(u64, &AvsEvent, usize),
    ) {
        if seq != self.next_commit {
            report.out_of_order_records += 1;
            self.stash.insert(seq, event);
            return;
        }
        let mut ready = event;
        loop {
            record_event_into(report, &ready, true);
            report.committed_records += 1;
            on_commit(self.next_commit, &ready, self.stash.len());
            self.next_commit += 1;
            match self.stash.remove(&self.next_commit) {
                Some(next) => ready = next,
                None => break,
            }
        }
    }
}

struct ConnectionState {
    channel: SecureChannelServer,
    window: CommitWindow,
}

/// The mock cloud service. Register it on a [`crate::NetworkFabric`] under
/// the cloud hostname.
///
/// Before the handshake it accepts plaintext events (the baseline's
/// unprotected relay). After it, only explicit-sequence records
/// ([`crate::SecureChannelClient::seal_at`]) carry events, committed
/// through one [`CommitWindow`] per connection; any other record is
/// rejected and counted.
pub struct MockCloudService {
    psk: [u8; PSK_LEN],
    connections: Mutex<HashMap<u64, ConnectionState>>,
    report: Mutex<CloudReport>,
}

impl std::fmt::Debug for MockCloudService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MockCloudService")
            .field("events", &self.report.lock().events.len())
            .finish()
    }
}

impl MockCloudService {
    /// Default hostname the cloud registers under.
    pub const HOST: &'static str = "avs.cloud.example";

    /// Creates the service with the device-provisioned PSK.
    pub fn new(psk: [u8; PSK_LEN]) -> Arc<Self> {
        Arc::new(MockCloudService {
            psk,
            connections: Mutex::new(HashMap::new()),
            report: Mutex::new(CloudReport::default()),
        })
    }

    /// A snapshot of everything received so far.
    pub fn report(&self) -> CloudReport {
        self.report.lock().clone()
    }

    /// Clears the recorded events (between experiment runs).
    pub fn reset(&self) {
        *self.report.lock() = CloudReport::default();
    }
}

/// Records one decoded event into a report — the single definition of
/// "what the cloud learns" from a committed record or a plaintext event.
fn record_event_into(report: &mut CloudReport, event: &AvsEvent, encrypted: bool) {
    match event {
        AvsEvent::Recognize { dialog_id, audio } => {
            report.application_bytes += audio.len() as u64;
            report.events.push(ReceivedEvent {
                dialog_id: *dialog_id,
                text: None,
                audio_bytes: audio.len(),
                encrypted,
            });
        }
        AvsEvent::TextMessage { dialog_id, text } => {
            report.application_bytes += text.len() as u64;
            report.events.push(ReceivedEvent {
                dialog_id: *dialog_id,
                text: Some(text.clone()),
                audio_bytes: 0,
                encrypted,
            });
        }
        AvsEvent::FrameVerdict {
            dialog_id,
            frames,
            probability_milli,
        } => {
            // The camera modality's whole point: the cloud learns a
            // frame count and a coarse score, never pixels.
            report.events.push(ReceivedEvent {
                dialog_id: *dialog_id,
                text: Some(format!(
                    "frame-verdict frames={frames} p={probability_milli}"
                )),
                audio_bytes: 0,
                encrypted,
            });
        }
        AvsEvent::Ping => {}
        AvsEvent::Batch(events) => {
            for inner in events {
                record_event_into(report, inner, encrypted);
            }
        }
    }
}

/// Dialog ids named by an event, in order (batch entries flattened).
pub fn dialog_ids_of(event: &AvsEvent) -> Vec<u64> {
    match event {
        AvsEvent::Recognize { dialog_id, .. }
        | AvsEvent::TextMessage { dialog_id, .. }
        | AvsEvent::FrameVerdict { dialog_id, .. } => {
            vec![*dialog_id]
        }
        AvsEvent::Ping => Vec::new(),
        AvsEvent::Batch(events) => events.iter().flat_map(dialog_ids_of).collect(),
    }
}

/// The acknowledgement directive for one event — shared by the direct
/// cloud and the ingest plane so acks are byte-identical on both paths.
pub fn ack_for_event(event: &AvsEvent) -> AvsDirective {
    match event {
        AvsEvent::Recognize { dialog_id, .. }
        | AvsEvent::TextMessage { dialog_id, .. }
        | AvsEvent::FrameVerdict { dialog_id, .. } => AvsDirective::Ack {
            dialog_id: *dialog_id,
        },
        AvsEvent::Ping => AvsDirective::Ack {
            dialog_id: u64::MAX,
        },
        AvsEvent::Batch(_) => AvsDirective::BatchAck {
            dialog_ids: dialog_ids_of(event),
        },
    }
}

impl MockCloudService {
    /// Exactly-once, in-order ingest of one explicit-sequence record
    /// through the connection's [`CommitWindow`].
    ///
    /// Already-accepted sequences are re-acked without recording (the
    /// first ack evidently got lost — at-least-once delivery becomes
    /// exactly-once decisions). A record that would overfill the stash
    /// gets silence, so the device retries once the gap has filled.
    fn ingest_explicit(&self, state: &mut ConnectionState, request: &[u8]) -> Vec<u8> {
        let mut report = self.report.lock();
        let (seq, plaintext) = match state.channel.open_explicit(request) {
            Ok(opened) => opened,
            Err(_) => {
                report.rejected_records += 1;
                return Vec::new();
            }
        };
        let Ok(event) = AvsEvent::decode(&plaintext) else {
            report.rejected_records += 1;
            return Vec::new();
        };
        // seal_at reproduces a redelivery's ack exactly.
        let ack = ack_for_event(&event).encode();
        if !state.window.redelivered(seq, &mut report) {
            if state.window.is_full(seq, STASH_CAP) {
                return Vec::new();
            }
            state.window.accept(seq, event, &mut report, |_, _, _| {});
        }
        state.channel.seal_at(seq, &ack).unwrap_or_default()
    }
}

impl NetworkService for MockCloudService {
    fn handle(&self, conn: u64, request: &[u8]) -> Vec<u8> {
        let mut connections = self.connections.lock();
        let state = connections.entry(conn).or_insert_with(|| ConnectionState {
            channel: SecureChannelServer::new(self.psk, conn),
            window: CommitWindow::default(),
        });
        if state.channel.is_established() && peek_record_type(request) == Some(CLIENT_HELLO) {
            // A retransmitted hello (the device lost our ServerHello, or
            // suspects a corrupted handshake). Both randoms are
            // deterministic, so reprocessing derives the same keys —
            // replaying the handshake is idempotent, and the dedup state
            // survives it.
            return match state.channel.process_client_hello(request) {
                Ok(server_hello) => server_hello,
                Err(_) => {
                    self.report.lock().rejected_records += 1;
                    Vec::new()
                }
            };
        }
        if !state.channel.is_established() {
            // Either a handshake, or a plaintext (baseline / ablation) event.
            if let Ok(server_hello) = state.channel.process_client_hello(request) {
                return server_hello;
            }
            let mut report = self.report.lock();
            return match AvsEvent::decode(request) {
                Ok(event) => {
                    record_event_into(&mut report, &event, false);
                    ack_for_event(&event).encode()
                }
                Err(_) => {
                    report.rejected_records += 1;
                    Vec::new()
                }
            };
        }
        if peek_record_type(request) == Some(EXPLICIT_RECORD) {
            return self.ingest_explicit(state, request);
        }
        // Established channel, anything but an explicit-sequence record:
        // every sender seals with `seal_at`, so a legacy implicit record
        // is a protocol error, exactly as at an ingest shard.
        self.report.lock().rejected_records += 1;
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netsim::NetworkFabric;
    use crate::tls::SecureChannelClient;

    const PSK: [u8; PSK_LEN] = [7u8; PSK_LEN];

    fn fabric_with_cloud() -> (NetworkFabric, Arc<MockCloudService>) {
        let fabric = NetworkFabric::new();
        let cloud = MockCloudService::new(PSK);
        fabric.register_service(MockCloudService::HOST, cloud.clone());
        (fabric, cloud)
    }

    #[test]
    fn encrypted_events_reach_the_cloud_and_are_acked() {
        let (fabric, cloud) = fabric_with_cloud();
        let transport = fabric.open_transport(MockCloudService::HOST, 443).unwrap();
        let mut client = SecureChannelClient::new(PSK, 99);
        transport.send(&client.client_hello()).unwrap();
        let server_hello = transport.recv(1024).unwrap();
        client.process_server_hello(&server_hello).unwrap();

        let event = AvsEvent::TextMessage {
            dialog_id: 5,
            text: "play music".to_owned(),
        };
        transport
            .send(&client.seal_at(0, &event.encode()).unwrap())
            .unwrap();
        let reply = transport.recv(4096).unwrap();
        let (seq, ack) = client.open_explicit(&reply).unwrap();
        assert_eq!(seq, 0);
        let directive = AvsDirective::decode(&ack).unwrap();
        assert_eq!(directive, AvsDirective::Ack { dialog_id: 5 });

        let report = cloud.report();
        assert_eq!(report.events.len(), 1);
        assert_eq!(report.events[0].text.as_deref(), Some("play music"));
        assert!(report.events[0].encrypted);
        assert_eq!(report.received_dialog_ids(), vec![5]);
        assert_eq!(report.text_of(5), "play music");
    }

    #[test]
    fn plaintext_events_are_accepted_and_marked_unencrypted() {
        let (fabric, cloud) = fabric_with_cloud();
        let transport = fabric.open_transport(MockCloudService::HOST, 443).unwrap();
        let event = AvsEvent::Recognize {
            dialog_id: 2,
            audio: vec![0u8; 320],
        };
        transport.send(&event.encode()).unwrap();
        let ack = AvsDirective::decode(&transport.recv(64).unwrap()).unwrap();
        assert_eq!(ack, AvsDirective::Ack { dialog_id: 2 });
        let report = cloud.report();
        assert_eq!(report.recognize_count(), 1);
        assert!(!report.events[0].encrypted);
        assert_eq!(report.application_bytes, 320);
    }

    #[test]
    fn garbage_is_rejected_and_counted() {
        let (fabric, cloud) = fabric_with_cloud();
        let transport = fabric.open_transport(MockCloudService::HOST, 443).unwrap();
        transport.send(&[0xde, 0xad, 0xbe, 0xef]).unwrap();
        assert!(transport.recv(64).unwrap().is_empty());
        assert_eq!(cloud.report().rejected_records, 1);
        assert!(cloud.report().events.is_empty());
    }

    #[test]
    fn reset_clears_the_report() {
        let (fabric, cloud) = fabric_with_cloud();
        let transport = fabric.open_transport(MockCloudService::HOST, 443).unwrap();
        transport
            .send(
                &AvsEvent::TextMessage {
                    dialog_id: 1,
                    text: "x".into(),
                }
                .encode(),
            )
            .unwrap();
        assert_eq!(cloud.report().events.len(), 1);
        cloud.reset();
        assert!(cloud.report().events.is_empty());
    }

    #[test]
    fn batched_events_are_unpacked_and_batch_acked() {
        let (fabric, cloud) = fabric_with_cloud();
        let transport = fabric.open_transport(MockCloudService::HOST, 443).unwrap();
        let mut client = SecureChannelClient::new(PSK, 41);
        transport.send(&client.client_hello()).unwrap();
        let server_hello = transport.recv(1024).unwrap();
        client.process_server_hello(&server_hello).unwrap();

        let batch = AvsEvent::Batch(vec![
            AvsEvent::TextMessage {
                dialog_id: 4,
                text: "play music".to_owned(),
            },
            AvsEvent::TextMessage {
                dialog_id: 6,
                text: "lights off".to_owned(),
            },
        ]);
        transport
            .send(&client.seal_at(0, &batch.encode()).unwrap())
            .unwrap();
        let reply = transport.recv(4096).unwrap();
        let (seq, ack) = client.open_explicit(&reply).unwrap();
        assert_eq!(seq, 0);
        let directive = AvsDirective::decode(&ack).unwrap();
        assert_eq!(
            directive,
            AvsDirective::BatchAck {
                dialog_ids: vec![4, 6]
            }
        );

        let report = cloud.report();
        assert_eq!(report.received_dialog_ids(), vec![4, 6]);
        assert!(report.events.iter().all(|e| e.encrypted));
        assert_eq!(report.text_of(6), "lights off");
    }

    #[test]
    fn frame_verdicts_carry_no_payload_bytes() {
        let (fabric, cloud) = fabric_with_cloud();
        let transport = fabric.open_transport(MockCloudService::HOST, 443).unwrap();
        let event = AvsEvent::FrameVerdict {
            dialog_id: 8,
            frames: 4,
            probability_milli: 90,
        };
        transport.send(&event.encode()).unwrap();
        let ack = AvsDirective::decode(&transport.recv(64).unwrap()).unwrap();
        assert_eq!(ack, AvsDirective::Ack { dialog_id: 8 });
        let report = cloud.report();
        assert_eq!(report.received_dialog_ids(), vec![8]);
        assert_eq!(report.events[0].audio_bytes, 0);
        assert!(report.text_of(8).contains("frame-verdict"));
    }

    fn established_client(
        fabric: &NetworkFabric,
        nonce: u64,
    ) -> (crate::netsim::Transport, SecureChannelClient) {
        let transport = fabric.open_transport(MockCloudService::HOST, 443).unwrap();
        let mut client = SecureChannelClient::new(PSK, nonce);
        transport.send(&client.client_hello()).unwrap();
        let server_hello = transport.recv(1024).unwrap();
        client.process_server_hello(&server_hello).unwrap();
        (transport, client)
    }

    #[test]
    fn explicit_records_commit_exactly_once_in_send_order() {
        let (fabric, cloud) = fabric_with_cloud();
        let (transport, client) = established_client(&fabric, 99);
        let event = |id: u64| AvsEvent::TextMessage {
            dialog_id: id,
            text: format!("m{id}"),
        };
        let records: Vec<Vec<u8>> = (0..3)
            .map(|i| client.seal_at(i, &event(i).encode()).unwrap())
            .collect();

        // Out-of-order arrival: seq 1 first. It is acked (the cloud has
        // it durably) but not committed until seq 0 fills the gap.
        transport.send(&records[1]).unwrap();
        let ack = transport.recv(4096).unwrap();
        assert_eq!(client.open_explicit(&ack).unwrap().0, 1);
        assert!(cloud.report().events.is_empty());
        assert_eq!(cloud.report().out_of_order_records, 1);

        transport.send(&records[0]).unwrap();
        transport.recv(4096).unwrap();
        assert_eq!(cloud.report().received_dialog_ids(), vec![0, 1]);
        assert_eq!(
            cloud
                .report()
                .events
                .iter()
                .map(|e| e.dialog_id)
                .collect::<Vec<_>>(),
            vec![0, 1],
            "commits happen in sequence order"
        );

        // Redelivery is re-acked without recording.
        transport.send(&records[0]).unwrap();
        let ack = transport.recv(4096).unwrap();
        assert_eq!(client.open_explicit(&ack).unwrap().0, 0);
        assert_eq!(cloud.report().redelivered_records, 1);
        assert_eq!(cloud.report().events.len(), 2);

        transport.send(&records[2]).unwrap();
        transport.recv(4096).unwrap();
        assert_eq!(cloud.report().committed_records, 3);
        assert_eq!(cloud.report().events.len(), 3);
    }

    #[test]
    fn hello_replay_is_idempotent_and_preserves_dedup_state() {
        let (fabric, cloud) = fabric_with_cloud();
        let (transport, client) = established_client(&fabric, 7);
        let record = client
            .seal_at(
                0,
                &AvsEvent::TextMessage {
                    dialog_id: 1,
                    text: "once".into(),
                }
                .encode(),
            )
            .unwrap();
        transport.send(&record).unwrap();
        transport.recv(4096).unwrap();
        assert_eq!(cloud.report().events.len(), 1);

        // Replay the hello mid-stream, as a device recovering from a
        // suspected bad handshake would.
        transport.send(&client.client_hello()).unwrap();
        let hello = transport.recv(1024).unwrap();
        assert!(!hello.is_empty());

        // The rebuilt keys still open our records, and the session still
        // remembers what it committed.
        transport.send(&record).unwrap();
        let ack = transport.recv(4096).unwrap();
        assert_eq!(client.open_explicit(&ack).unwrap().0, 0);
        assert_eq!(cloud.report().redelivered_records, 1);
        assert_eq!(cloud.report().events.len(), 1);
    }

    #[test]
    fn corrupted_explicit_records_are_rejected_loudly() {
        let (fabric, cloud) = fabric_with_cloud();
        let (transport, client) = established_client(&fabric, 13);
        let mut record = client
            .seal_at(
                0,
                &AvsEvent::TextMessage {
                    dialog_id: 2,
                    text: "tamper".into(),
                }
                .encode(),
            )
            .unwrap();
        let len = record.len();
        record[len - 3] ^= 0x10;
        transport.send(&record).unwrap();
        assert!(transport.recv(4096).unwrap().is_empty());
        assert_eq!(cloud.report().rejected_records, 1);
        assert!(cloud.report().events.is_empty());
    }

    #[test]
    fn implicit_records_are_rejected_on_an_established_channel() {
        let (fabric, cloud) = fabric_with_cloud();
        let (transport, client) = established_client(&fabric, 21);
        let event = AvsEvent::TextMessage {
            dialog_id: 3,
            text: "implicit".into(),
        };
        transport
            .send(&client.legacy_implicit_record(&event.encode()))
            .unwrap();
        assert!(transport.recv(4096).unwrap().is_empty());
        assert_eq!(cloud.report().rejected_records, 1);
        assert!(cloud.report().events.is_empty());
    }

    #[test]
    fn pings_are_acked_but_not_recorded() {
        let (fabric, cloud) = fabric_with_cloud();
        let transport = fabric.open_transport(MockCloudService::HOST, 443).unwrap();
        transport.send(&AvsEvent::Ping.encode()).unwrap();
        assert!(!transport.recv(64).unwrap().is_empty());
        assert!(cloud.report().events.is_empty());
    }
}
