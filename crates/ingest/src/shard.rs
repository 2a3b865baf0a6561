//! One ingest shard: journaled, crash-recoverable, attestation-gated
//! session state.
//!
//! A shard splits every session's state into two tiers, mirroring what a
//! real enclave-hosted ingest node can and cannot keep through a crash:
//!
//! * **volatile** — the secure-channel server, the session's
//!   [`CommitWindow`] (commit point and stash of decoded events), and
//!   the "has this session attested to *this* incarnation" bit. Lost on
//!   every crash.
//! * **durable** — the append-only journal (hello, attestation grants,
//!   accepted arrivals, commits), the committed-decision report, and the
//!   rollback-protected monotonic counter / epoch pair. Survives
//!   crashes; the journal is the single source the volatile tier is
//!   rebuilt from.
//!
//! Dedup, stash and in-order commit are the direct `MockCloudService`'s
//! own [`CommitWindow`]. Around it a shard adds only what is its own:
//! acceptance is gated on the session's epoch, every accepted arrival is
//! journaled *before* it is acked — so an ack is a durable promise that
//! survives the shard, and redelivered records are re-acked from their
//! stashed or journaled event without re-recording — and refusals are
//! typed replies. The durable tier keeps each accepted record once, in
//! the journal: a re-ack is [`ack_for_event`] of it, and the
//! `ingest.commit` series is folded from the commits' journaled depths.

use std::collections::HashMap;
use std::sync::Arc;

use perisec_relay::attest::{
    decode_attest_request, decode_ingest_record, IngestReply, ATTEST_SEQ_BASE,
};
use perisec_relay::avs::AvsEvent;
use perisec_relay::cloud::{ack_for_event, CloudReport, CommitWindow};
use perisec_relay::tls::{peek_record_type, SecureChannelServer, CLIENT_HELLO, EXPLICIT_RECORD};
use perisec_telemetry::{DeviceTelemetry, LogHistogram};
use perisec_tz::time::SimDuration;

use crate::plane::IngestPlaneConfig;

/// Modeled service cost of one commit, for the commit-latency series: a
/// commit that still has `d` records stashed behind it is recorded as
/// `(d + 1)` of these.
const SERVICE_COST_NS: u64 = 20_000;

/// One durable journal entry. Replaying the journal in order rebuilds
/// every volatile structure a crash destroys.
#[derive(Debug, Clone)]
enum JournalEntry {
    /// The session's client hello (both randoms are deterministic, so
    /// replaying it re-derives the same channel keys).
    Hello(Vec<u8>),
    /// An attestation grant: the monotonic counter accepted and the
    /// epoch issued for it.
    Attest { counter: u64, epoch: u64 },
    /// An accepted arrival's event bytes (acked; committed at once or
    /// stashed). A redelivery of `seq` is re-acked from them.
    Stashed { seq: u64, event: Vec<u8> },
    /// A commit: the sequence retired and the records still stashed
    /// behind it, which price it in the commit-latency series.
    Committed { seq: u64, depth: usize },
}

/// Per-session state. See the module docs for the volatile/durable
/// split; `rebuild` is the crash-recovery path.
struct SessionState {
    // Volatile tier.
    channel: Option<SecureChannelServer>,
    window: CommitWindow,
    attested: bool,
    built_incarnation: u64,
    // Durable tier.
    journal: Vec<JournalEntry>,
    last_counter: u64,
    epoch: u64,
    report: CloudReport,
    // Durable observability.
    stale_epoch_rejects: u64,
    backpressure_rejects: u64,
    attest_grants: u64,
    attest_rejects: u64,
}

// Every slot of a shard's session map holds one of these inline, so a
// fixed-size array here costs every slot, used or not.
const _: () = assert!(std::mem::size_of::<SessionState>() <= 512);

impl SessionState {
    fn new(incarnation: u64) -> Self {
        SessionState {
            channel: None,
            window: CommitWindow::default(),
            attested: false,
            built_incarnation: incarnation,
            journal: Vec::new(),
            last_counter: 0,
            epoch: 0,
            report: CloudReport::default(),
            stale_epoch_rejects: 0,
            backpressure_rejects: 0,
            attest_grants: 0,
            attest_rejects: 0,
        }
    }

    /// Crash recovery: drops the volatile tier and replays the journal.
    /// The channel comes back from the journaled hello (same
    /// deterministic keys), and the window resumes past the last
    /// `Committed` entry with the `Stashed` arrivals still waiting beyond
    /// it. The attested bit is *not* restored — that is the rollback
    /// fence: the session must re-prove itself to the new incarnation
    /// before any new record is accepted.
    fn rebuild(&mut self, config: &IngestPlaneConfig, session: u64, incarnation: u64) {
        self.channel = None;
        self.attested = false;
        self.built_incarnation = incarnation;
        let mut next_commit = 0;
        for entry in &self.journal {
            match entry {
                JournalEntry::Hello(hello) => {
                    let mut server = SecureChannelServer::new(config.psk, session);
                    if server.process_client_hello(hello).is_ok() {
                        self.channel = Some(server);
                    }
                }
                JournalEntry::Attest { counter, epoch } => {
                    // The counter/epoch pair lives in rollback-protected
                    // storage and survives on its own; replaying the
                    // grants keeps the journal self-contained.
                    self.last_counter = self.last_counter.max(*counter);
                    self.epoch = self.epoch.max(*epoch);
                }
                JournalEntry::Stashed { .. } => {}
                JournalEntry::Committed { seq, .. } => {
                    next_commit = next_commit.max(seq + 1);
                }
            }
        }
        // Only arrivals still waiting for their gap are decoded again.
        let waiting = self.journal.iter().filter_map(|entry| match entry {
            JournalEntry::Stashed { seq, event } if *seq >= next_commit => {
                let event = AvsEvent::decode(event).expect("journaled events decoded on arrival");
                Some((*seq, event))
            }
            _ => None,
        });
        self.window = CommitWindow::resume(next_commit, waiting);
    }

    /// The event of a committed `seq`, decoded from its journaled
    /// arrival.
    fn journaled_event(&self, seq: u64) -> AvsEvent {
        let event = self.journal.iter().rev().find_map(|entry| match entry {
            JournalEntry::Stashed { seq: at, event } if *at == seq => Some(event),
            _ => None,
        });
        AvsEvent::decode(event.expect("accepted arrivals are journaled"))
            .expect("journaled events decoded on arrival")
    }
}

/// One shard of the ingest plane.
pub(crate) struct IngestShard {
    /// This shard's index in the plane.
    index: usize,
    /// The plane's configuration, shared by all its shards.
    config: Arc<IngestPlaneConfig>,
    sessions: parking_lot::Mutex<HashMap<u64, SessionState>>,
}

impl IngestShard {
    pub(crate) fn new(index: usize, config: Arc<IngestPlaneConfig>) -> Self {
        IngestShard {
            index,
            config,
            sessions: parking_lot::Mutex::new(HashMap::new()),
        }
    }

    /// Handles one wire request from `session` at `now_ns` on the
    /// session's virtual clock. An empty reply means the shard is down
    /// or the record failed authentication — in either case the device
    /// backs off and retries.
    pub(crate) fn handle(&self, session: u64, now_ns: u64, request: &[u8]) -> Vec<u8> {
        if self.config.faults.is_down(self.index, now_ns) {
            return Vec::new();
        }
        let incarnation = self.config.faults.incarnation(self.index, now_ns);
        let mut sessions = self.sessions.lock();
        let state = sessions
            .entry(session)
            .or_insert_with(|| SessionState::new(incarnation));
        if state.built_incarnation < incarnation {
            state.rebuild(&self.config, session, incarnation);
        }

        if peek_record_type(request) == Some(CLIENT_HELLO) {
            return self.handle_hello(session, state, request);
        }
        if peek_record_type(request) != Some(EXPLICIT_RECORD) {
            // The plane speaks only the explicit-sequence protocol; a
            // legacy implicit or plaintext record is a protocol error.
            state.report.rejected_records += 1;
            return Vec::new();
        }
        let Some(channel) = state.channel.as_ref() else {
            // No handshake on record: nothing to authenticate with.
            state.report.rejected_records += 1;
            return Vec::new();
        };
        let (seq, plaintext) = match channel.open_explicit(request) {
            Ok(opened) => opened,
            Err(_) => {
                state.report.rejected_records += 1;
                return Vec::new();
            }
        };
        if seq >= ATTEST_SEQ_BASE {
            self.handle_attest(state, seq, &plaintext)
        } else {
            self.handle_record(state, seq, &plaintext)
        }
    }

    fn handle_hello(&self, session: u64, state: &mut SessionState, request: &[u8]) -> Vec<u8> {
        // First hello journals; replays (device recovering, or the
        // journal replay on rebuild already restored the channel) are
        // idempotent because both randoms are deterministic.
        let fresh = state.channel.is_none();
        let mut server = SecureChannelServer::new(self.config.psk, session);
        match server.process_client_hello(request) {
            Ok(server_hello) => {
                state.channel = Some(server);
                if fresh
                    && !state
                        .journal
                        .iter()
                        .any(|e| matches!(e, JournalEntry::Hello(_)))
                {
                    state.journal.push(JournalEntry::Hello(request.to_vec()));
                }
                server_hello
            }
            Err(_) => {
                state.report.rejected_records += 1;
                Vec::new()
            }
        }
    }

    /// The attestation handshake. The monotonic counter is the replay
    /// fence: a grant is issued only for a counter strictly above every
    /// previously granted one (bumping the epoch), re-issued verbatim
    /// for the exact last counter (a lost grant being retried), and
    /// refused for anything below (a replayed or rolled-back request).
    fn handle_attest(&self, state: &mut SessionState, seq: u64, plaintext: &[u8]) -> Vec<u8> {
        let reply = match decode_attest_request(plaintext) {
            Some((measurement, counter)) => {
                if !self.config.accept.contains(&measurement)
                    || counter == 0
                    || counter < state.last_counter
                {
                    state.attest_rejects += 1;
                    IngestReply::AttestReject
                } else {
                    if counter > state.last_counter {
                        state.last_counter = counter;
                        state.epoch += 1;
                        state.journal.push(JournalEntry::Attest {
                            counter,
                            epoch: state.epoch,
                        });
                    }
                    state.attested = true;
                    state.attest_grants += 1;
                    IngestReply::AttestGrant { epoch: state.epoch }
                }
            }
            None => {
                state.attest_rejects += 1;
                IngestReply::AttestReject
            }
        };
        seal(state, seq, &reply.encode())
    }

    /// The session's [`CommitWindow`] behind the epoch fence, with every
    /// accepted arrival and every commit journaled.
    fn handle_record(&self, state: &mut SessionState, seq: u64, plaintext: &[u8]) -> Vec<u8> {
        let Some((epoch, event_bytes)) = decode_ingest_record(plaintext) else {
            state.report.rejected_records += 1;
            return Vec::new();
        };
        // An event that does not decode is rejected at any seq, as the
        // direct cloud rejects it: never re-acked as a redelivery.
        let Ok(event) = AvsEvent::decode(event_bytes) else {
            state.report.rejected_records += 1;
            return Vec::new();
        };
        // Redelivery of something already durable: re-ack from the
        // journal (committed) or from the stash (accepted but not yet
        // committed). Deliberately epoch-agnostic — the promise was
        // already made; only the ack needs retransmitting.
        if state.window.redelivered(seq, &mut state.report) {
            let ack = match state.window.stashed(seq) {
                Some(stashed) => ingest_ack(stashed),
                None => ingest_ack(&state.journaled_event(seq)),
            };
            return seal(state, seq, &ack);
        }
        // The rollback fence: no new promise without a live attestation
        // for this incarnation, and none for a superseded epoch.
        if !state.attested || epoch != state.epoch {
            state.stale_epoch_rejects += 1;
            let reply = if state.attested {
                IngestReply::StaleEpoch {
                    granted: state.epoch,
                }
            } else {
                IngestReply::NeedAttest
            };
            return seal(state, seq, &reply.encode());
        }
        if state.window.is_full(seq, self.config.queue_cap) {
            state.backpressure_rejects += 1;
            let reply = IngestReply::Backpressure {
                depth: state.window.depth() as u64,
            };
            return seal(state, seq, &reply.encode());
        }
        let ack = ingest_ack(&event);
        // Journal the arrival before acking it: the ack below is a
        // durable promise, so redelivery after a crash must find it.
        state.journal.push(JournalEntry::Stashed {
            seq,
            event: event_bytes.to_vec(),
        });
        state
            .window
            .accept(seq, event, &mut state.report, |seq, _, depth| {
                state.journal.push(JournalEntry::Committed { seq, depth });
            });
        seal(state, seq, &ack)
    }

    /// The committed report of one session.
    pub(crate) fn session_report(&self, session: u64) -> CloudReport {
        self.sessions
            .lock()
            .get(&session)
            .map(|s| s.report.clone())
            .unwrap_or_default()
    }

    /// Clears one session's report (between experiment runs); journal,
    /// dedup window and attestation state survive, mirroring the direct
    /// cloud's `reset`.
    pub(crate) fn reset_session(&self, session: u64) {
        if let Some(state) = self.sessions.lock().get_mut(&session) {
            state.report = CloudReport::default();
        }
    }

    /// Committed records across every session of this shard.
    pub(crate) fn committed(&self) -> u64 {
        self.sessions
            .lock()
            .values()
            .map(|s| s.report.committed_records)
            .sum()
    }

    /// Sums one durable counter across sessions.
    pub(crate) fn counter_totals(&self) -> ShardCounters {
        let sessions = self.sessions.lock();
        let mut totals = ShardCounters::default();
        for state in sessions.values() {
            totals.stale_epoch_rejects += state.stale_epoch_rejects;
            totals.backpressure_rejects += state.backpressure_rejects;
            totals.attest_grants += state.attest_grants;
            totals.attest_rejects += state.attest_rejects;
            totals.redelivered += state.report.redelivered_records;
            totals.rejected += state.report.rejected_records;
        }
        totals
    }

    /// The per-tenant telemetry fold of this shard: one
    /// [`DeviceTelemetry`] per session, keyed by session id, with the
    /// span names the billing/accounting plane reuses as keys.
    pub(crate) fn session_telemetry(&self) -> Vec<(u64, DeviceTelemetry)> {
        let sessions = self.sessions.lock();
        let mut out: Vec<(u64, DeviceTelemetry)> = sessions
            .iter()
            .map(|(&session, state)| {
                let mut telemetry = DeviceTelemetry::default();
                let mut count = |name: &'static str, value: u64| {
                    if value > 0 {
                        telemetry.counters.insert(name, value);
                    }
                };
                count("ingest.committed", state.report.committed_records);
                count("ingest.redelivered", state.report.redelivered_records);
                count("ingest.rejected", state.report.rejected_records);
                count("ingest.stale_epoch", state.stale_epoch_rejects);
                count("ingest.backpressure", state.backpressure_rejects);
                count("ingest.attest", state.attest_grants);
                count("ingest.journal", state.journal.len() as u64);
                let mut commits = LogHistogram::new();
                for entry in &state.journal {
                    if let JournalEntry::Committed { depth, .. } = entry {
                        commits.record(SimDuration::from_nanos(
                            SERVICE_COST_NS * (*depth as u64 + 1),
                        ));
                    }
                }
                if !commits.is_empty() {
                    telemetry.histograms.insert("ingest.commit", commits);
                }
                (session, telemetry)
            })
            .collect();
        out.sort_by_key(|(session, _)| *session);
        out
    }
}

/// Durable counters of one shard, summed across its sessions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardCounters {
    /// Records refused for a superseded epoch (including records that
    /// arrived before the session re-attested to a new incarnation).
    pub stale_epoch_rejects: u64,
    /// Records refused because the session's ingest queue was full.
    pub backpressure_rejects: u64,
    /// Attestation grants issued.
    pub attest_grants: u64,
    /// Attestation requests refused (bad measurement, replayed or
    /// rolled-back counter).
    pub attest_rejects: u64,
    /// Redeliveries re-acked without re-recording.
    pub redelivered: u64,
    /// Records that failed authentication or decoding.
    pub rejected: u64,
}

/// The reply plaintext acknowledging `event`.
fn ingest_ack(event: &AvsEvent) -> Vec<u8> {
    IngestReply::Ack(ack_for_event(event).encode()).encode()
}

/// Seals a reply plaintext at `seq` on the session's channel.
fn seal(state: &SessionState, seq: u64, reply: &[u8]) -> Vec<u8> {
    state
        .channel
        .as_ref()
        .and_then(|c| c.seal_at(seq, reply).ok())
        .unwrap_or_default()
}
