//! The mock cloud service.
//!
//! Plays the role of the untrusted cloud provider (Amazon/Google in the
//! paper): terminates the relay's secure channel, decodes AVS events, and
//! — crucially for the privacy experiments — records exactly what it
//! received. Whatever appears in [`CloudReport`] is, by definition, what
//! has been exposed to the untrusted party.

use std::collections::BTreeMap;
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

struct ConnectionState {
    channel: SecureChannelServer,
    /// The next explicit sequence this session will commit. Everything
    /// below it has been recorded exactly once.
    next_commit: u64,
    /// Records that arrived ahead of `next_commit`, held until the gap
    /// fills so commits (and therefore cloud decisions) happen in send
    /// order regardless of network reordering.
    stash: BTreeMap<u64, Vec<u8>>,
}

/// The mock cloud service. Register it on a [`crate::NetworkFabric`] under
/// the cloud hostname.
///
/// Before the handshake it accepts plaintext events (the baseline's
/// unprotected relay). After it, only explicit-sequence records
/// ([`crate::SecureChannelClient::seal_at`]) carry events; any other
/// record is rejected and counted.
pub struct MockCloudService {
    psk: [u8; PSK_LEN],
    connections: Mutex<std::collections::HashMap<u64, ConnectionState>>,
    report: Mutex<CloudReport>,
    response_text: String,
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
            connections: Mutex::new(std::collections::HashMap::new()),
            report: Mutex::new(CloudReport::default()),
            response_text: "okay".to_owned(),
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

    fn record_event(&self, event: &AvsEvent, encrypted: bool) {
        record_event_into(&mut self.report.lock(), event, encrypted);
    }

    fn ack_for(event: &AvsEvent) -> AvsDirective {
        ack_for_event(event)
    }

    fn speak_for(&self, event: &AvsEvent) -> AvsDirective {
        match event {
            AvsEvent::Recognize { dialog_id, .. } | AvsEvent::TextMessage { dialog_id, .. } => {
                AvsDirective::Speak {
                    dialog_id: *dialog_id,
                    text: self.response_text.clone(),
                }
            }
            AvsEvent::FrameVerdict { dialog_id, .. } => AvsDirective::Ack {
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
}

/// Records one decoded event into a report — the single definition of
/// "what the cloud learns" from a committed record, shared by the direct
/// mock cloud and the sharded ingest plane so their decision logs cannot
/// drift apart.
pub fn record_event_into(report: &mut CloudReport, event: &AvsEvent, encrypted: bool) {
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
    /// Exactly-once, in-order ingest of one explicit-sequence record.
    ///
    /// Already-accepted sequences are re-acked without recording (the
    /// first ack evidently got lost — at-least-once delivery becomes
    /// exactly-once decisions). Records ahead of the commit point are
    /// stashed until the gap fills, so the decision log is in send order
    /// no matter how the network reordered arrivals.
    fn ingest_explicit(&self, state: &mut ConnectionState, request: &[u8]) -> Vec<u8> {
        let (seq, plaintext) = match state.channel.open_explicit(request) {
            Ok(opened) => opened,
            Err(_) => {
                self.report.lock().rejected_records += 1;
                return Vec::new();
            }
        };
        let Ok(event) = AvsEvent::decode(&plaintext) else {
            self.report.lock().rejected_records += 1;
            return Vec::new();
        };
        let ack = Self::ack_for(&event).encode();
        if seq < state.next_commit || state.stash.contains_key(&seq) {
            // Redelivery: the record is already durable here; only the
            // ack needs retransmitting. seal_at reproduces it exactly.
            self.report.lock().redelivered_records += 1;
            return state.channel.seal_at(seq, &ack).unwrap_or_default();
        }
        if seq != state.next_commit {
            if state.stash.len() >= STASH_CAP {
                // Refuse to stash further ahead; silence makes the
                // device retry once the gap has been filled.
                return Vec::new();
            }
            self.report.lock().out_of_order_records += 1;
        }
        state.stash.insert(seq, plaintext);
        while let Some(ready) = state.stash.remove(&state.next_commit) {
            if let Ok(ready_event) = AvsEvent::decode(&ready) {
                self.record_event(&ready_event, true);
                self.report.lock().committed_records += 1;
            }
            state.next_commit += 1;
        }
        state.channel.seal_at(seq, &ack).unwrap_or_default()
    }
}

impl NetworkService for MockCloudService {
    fn handle(&self, conn: u64, request: &[u8]) -> Vec<u8> {
        let mut connections = self.connections.lock();
        let state = connections.entry(conn).or_insert_with(|| ConnectionState {
            channel: SecureChannelServer::new(self.psk, conn),
            next_commit: 0,
            stash: BTreeMap::new(),
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
            return match AvsEvent::decode(request) {
                Ok(event) => {
                    self.record_event(&event, false);
                    let _ = self.speak_for(&event);
                    Self::ack_for(&event).encode()
                }
                Err(_) => {
                    self.report.lock().rejected_records += 1;
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
