//! The TA-side cloud channel of the filter TA.
//!
//! The filter TA relays permitted content to the cloud over a PSK
//! handshake on a supplicant socket, then sealed records.
//!
//! # Fault tolerance
//!
//! The network between the supplicant and the cloud may drop, duplicate,
//! reorder or corrupt records (see `perisec_relay::netsim::FaultSpec`), so
//! the channel runs a retry state machine over DTLS-style
//! explicit-sequence records:
//!
//! * every record carries a per-channel monotonic sequence number, sealed
//!   with `seal_at` so a retransmission is byte-identical;
//! * a record stays in a **bounded** in-TA unacked buffer until the cloud
//!   echoes its sequence back in a protected ack;
//! * silence is a timeout: the TA waits out a capped exponential backoff
//!   with deterministic jitter on the virtual [`SimClock`], then
//!   retransmits — all on simulated time, so retry schedules are identical
//!   at every worker count;
//! * an opportunistic flush that cannot drain within its round budget
//!   *defers* — the device keeps classifying, the deferral is journaled
//!   (`relay.deferred`), and the adaptive batcher is driven to `Critical`
//!   pressure — instead of panicking; `close` runs a blocking flush so an
//!   orderly shutdown never strands a verdict;
//! * persistent ack failure triggers a recovery handshake (the cloud
//!   reprocesses ClientHello idempotently), healing a corrupted-handshake
//!   key mismatch.

use std::collections::VecDeque;

use perisec_optee::{TaEnv, TeeError, TeeResult};
use perisec_relay::attest::{
    encode_attest_request, encode_ingest_record, IngestReply, ATTEST_SEQ_BASE, MEASUREMENT_LEN,
};
use perisec_relay::avs::AvsEvent;
use perisec_relay::tls::{seal_flops, SecureChannelClient, PSK_LEN};
use perisec_tz::time::SimDuration;

/// Base ack timeout — the wait before the first retransmission.
const ACK_TIMEOUT: SimDuration = SimDuration::from_millis(2);
/// Cap of the exponential backoff between retransmission rounds.
const MAX_BACKOFF: SimDuration = SimDuration::from_millis(64);
/// Transmission rounds an opportunistic flush may spend before it
/// defers the leftovers to the next batch.
const FLUSH_ROUNDS: u32 = 4;
/// Bound on the in-TA unacked buffer; a send into a full buffer first
/// drains it with a blocking flush.
const UNACKED_CAPACITY: usize = 8;
/// Transmission rounds a *blocking* flush (buffer full, or `close`) may
/// spend before erroring loudly — the give-up point on a dead network.
/// The baseline relay stage gives up after as many.
pub(crate) const HARD_ROUNDS: u32 = 512;
/// After this many consecutive fruitless rounds, replay the handshake
/// to heal a corrupted-hello key mismatch.
const REKEY_AFTER: u32 = 8;

/// Deterministic retry jitter: a splitmix64-style hash of the retry
/// coordinates, so no two records (or rounds) back off in lockstep yet
/// every run reproduces the same schedule.
fn jitter_hash(socket: u64, seq: u64, attempt: u64) -> u64 {
    let mut z = socket
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(seq.wrapping_mul(0xD1B5_4A32_D192_ED03))
        .wrapping_add(attempt);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The backoff interval before retransmission `attempt` of `seq` on
/// `socket`: `min(ACK_TIMEOUT · 2^attempt, MAX_BACKOFF)` plus
/// deterministic jitter of up to a quarter of the interval. Shared with
/// the baseline relay stage so both paths back off identically.
pub(crate) fn backoff_interval(socket: u64, seq: u64, attempt: u32) -> SimDuration {
    let exp = attempt.min(16);
    let backoff = (ACK_TIMEOUT * (1u64 << exp)).min(MAX_BACKOFF);
    let jitter = SimDuration::from_nanos(
        jitter_hash(socket, seq, u64::from(attempt)) % (backoff.as_nanos() / 4 + 1),
    );
    backoff + jitter
}

struct UnackedRecord {
    seq: u64,
    plaintext: Vec<u8>,
    attempts: u32,
}

/// Device-side state of the attested-ingest handshake (present only
/// when the channel targets the sharded ingest plane).
struct IngestSession {
    /// The TA's measurement, proven on every attestation.
    measurement: [u8; MEASUREMENT_LEN],
    /// The monotonic attestation counter: bumped once per *new*
    /// attestation attempt, never reused — the plane's replay fence.
    counter: u64,
    /// The epoch the plane granted; every data record is sealed under
    /// it, so a restarted shard can tell fresh records from stale ones.
    epoch: u64,
    /// Whether the current epoch grant is still believed live. Cleared
    /// when the plane answers `NeedAttest`/`StaleEpoch` (a shard
    /// restart), which makes the next flush round re-attest first.
    attested: bool,
}

/// A lazily-established secure channel from a TA to the cloud host.
pub(crate) struct TaCloudChannel {
    cloud_host: String,
    psk: [u8; PSK_LEN],
    channel: Option<(u64, SecureChannelClient)>,
    next_seq: u64,
    unacked: VecDeque<UnackedRecord>,
    retries: u64,
    reported_retries: u64,
    ingest: Option<IngestSession>,
}

impl TaCloudChannel {
    /// Creates the (not yet connected) channel.
    pub(crate) fn new(cloud_host: impl Into<String>, psk: [u8; PSK_LEN]) -> Self {
        TaCloudChannel {
            cloud_host: cloud_host.into(),
            psk,
            channel: None,
            next_seq: 0,
            unacked: VecDeque::new(),
            retries: 0,
            reported_retries: 0,
            ingest: None,
        }
    }

    /// Switches the channel into attested-ingest mode (builder style,
    /// used by the TAs' `with_ingest` constructors): before data flows,
    /// the channel attests `measurement` to the plane, and every record
    /// is sealed under the granted session epoch.
    pub(crate) fn set_ingest(&mut self, measurement: [u8; MEASUREMENT_LEN]) {
        self.ingest = Some(IngestSession {
            measurement,
            counter: 0,
            epoch: 0,
            attested: false,
        });
    }

    /// The retransmissions accrued since the last call — what the filter
    /// TA's `PROCESS_BATCH` reports back to the stage.
    pub(crate) fn take_retries_delta(&mut self) -> u64 {
        let retries = self.retries - self.reported_retries;
        self.reported_retries = self.retries;
        retries
    }

    /// Records currently sitting unacknowledged in the bounded buffer —
    /// the live backlog the filter TA's `PROCESS_BATCH` reports back to
    /// the normal world, which drives the batcher to `Critical` and triggers
    /// the end-of-scenario drain when non-zero.
    pub(crate) fn unacked_len(&self) -> usize {
        self.unacked.len()
    }

    /// Waits out one backoff interval on the virtual clock.
    fn backoff_wait(env: &TaEnv<'_>, socket: u64, seq: u64, attempt: u32) {
        env.platform()
            .clock()
            .advance(backoff_interval(socket, seq, attempt));
    }

    /// Establishes the channel (and, in ingest mode, a live attestation
    /// grant), retrying both under the same virtual-time backoff.
    fn ensure(&mut self, env: &TaEnv<'_>) -> TeeResult<()> {
        self.ensure_channel(env)?;
        self.ensure_attested(env)
    }

    /// Establishes the channel, retrying the handshake itself under the
    /// same virtual-time backoff — hellos cross the faulty network too.
    fn ensure_channel(&mut self, env: &TaEnv<'_>) -> TeeResult<()> {
        if let Some((_, client)) = &self.channel {
            if client.is_established() {
                return Ok(());
            }
        }
        if self.channel.is_none() {
            let socket = env.net_connect(&self.cloud_host, 443)?;
            self.channel = Some((socket, SecureChannelClient::new(self.psk, socket)));
        }
        let (socket, client) = self.channel.as_mut().expect("just connected");
        let socket = *socket;
        for round in 0..HARD_ROUNDS {
            env.net_send(socket, &client.client_hello())?;
            let reply = env.net_recv(socket, 4096)?;
            if !reply.is_empty() && client.process_server_hello(&reply).is_ok() {
                return Ok(());
            }
            self.retries += 1;
            env.tracer().count("relay.retries", 1);
            let _span = env.tracer().span("relay.retry");
            Self::backoff_wait(env, socket, 0, round);
        }
        Err(TeeError::Communication {
            reason: format!(
                "relay handshake to {} exhausted {} retry rounds",
                self.cloud_host, HARD_ROUNDS
            ),
        })
    }

    /// In ingest mode, runs the attestation handshake until the plane
    /// grants an epoch — a new attempt bumps the monotonic counter once,
    /// then retries the *same* counter under backoff so a lost grant is
    /// re-issued idempotently. A no-op on a direct channel or while the
    /// current grant is live.
    fn ensure_attested(&mut self, env: &TaEnv<'_>) -> TeeResult<()> {
        let Some(ingest) = self.ingest.as_mut() else {
            return Ok(());
        };
        if ingest.attested {
            return Ok(());
        }
        ingest.counter += 1;
        for round in 0..HARD_ROUNDS {
            let (socket, client) = self.channel.as_mut().expect("channel ensured");
            let socket = *socket;
            let seq = ATTEST_SEQ_BASE + ingest.counter;
            let request = encode_attest_request(&ingest.measurement, ingest.counter);
            let wire = client
                .seal_at(seq, &request)
                .map_err(|e| TeeError::Communication {
                    reason: e.to_string(),
                })?;
            env.charge_compute(seal_flops(request.len()));
            env.net_send(socket, &wire)?;
            let reply = env.net_recv(socket, 4096)?;
            if !reply.is_empty() {
                if let Ok((reply_seq, plaintext)) = client.open_explicit(&reply) {
                    if reply_seq == seq {
                        match IngestReply::decode(&plaintext) {
                            Some(IngestReply::AttestGrant { epoch }) => {
                                ingest.epoch = epoch;
                                ingest.attested = true;
                                env.tracer().count("ingest.attest", 1);
                                return Ok(());
                            }
                            Some(IngestReply::AttestReject) => {
                                // The plane holds a higher counter than
                                // we believe (a lost grant from a past
                                // life): move strictly past it.
                                env.tracer().count("ingest.attest_reject", 1);
                                ingest.counter += 1;
                            }
                            _ => {}
                        }
                    }
                }
            }
            self.retries += 1;
            env.tracer().count("relay.retries", 1);
            let _span = env.tracer().span("relay.retry");
            Self::backoff_wait(env, socket, seq, round);
        }
        Err(TeeError::Communication {
            reason: format!("ingest attestation exhausted {} retry rounds", HARD_ROUNDS),
        })
    }

    /// One transmission round: every unacked record is (re)sent oldest
    /// first, and each reply that authenticates as an explicit ack
    /// retires the sequence it names.
    fn transmit_round(&mut self, env: &TaEnv<'_>) -> TeeResult<()> {
        let sequences: Vec<u64> = self.unacked.iter().map(|record| record.seq).collect();
        for seq in sequences {
            // An earlier ack in this round may already have retired it.
            let Some(pos) = self.unacked.iter().position(|record| record.seq == seq) else {
                continue;
            };
            let (socket, client) = self.channel.as_mut().expect("channel ensured");
            let record = &mut self.unacked[pos];
            // In ingest mode the wire plaintext carries the granted
            // epoch; the buffer keeps the raw event, so a record resent
            // after a re-attestation is automatically re-sealed under
            // the new epoch.
            let plaintext = match self.ingest.as_ref() {
                Some(ingest) => encode_ingest_record(ingest.epoch, &record.plaintext),
                None => record.plaintext.clone(),
            };
            let wire =
                client
                    .seal_at(record.seq, &plaintext)
                    .map_err(|e| TeeError::Communication {
                        reason: e.to_string(),
                    })?;
            env.charge_compute(seal_flops(plaintext.len()));
            if record.attempts > 0 {
                self.retries += 1;
                env.tracer().count("relay.retries", 1);
            }
            record.attempts += 1;
            let socket = *socket;
            env.net_send(socket, &wire)?;
            let reply = env.net_recv(socket, 65536)?;
            if reply.is_empty() {
                continue;
            }
            let (_, client) = self.channel.as_ref().expect("channel ensured");
            if let Ok((acked, directive)) = client.open_explicit(&reply) {
                match self.ingest.as_mut() {
                    None => {
                        self.unacked.retain(|record| record.seq != acked);
                    }
                    Some(ingest) => match IngestReply::decode(&directive) {
                        Some(IngestReply::Ack(_)) => {
                            self.unacked.retain(|record| record.seq != acked);
                        }
                        Some(IngestReply::NeedAttest) | Some(IngestReply::StaleEpoch { .. }) => {
                            // A shard restart superseded our grant: the
                            // record stays buffered, and the next flush
                            // round re-attests before retransmitting.
                            ingest.attested = false;
                            env.tracer().count("ingest.stale_epoch", 1);
                        }
                        Some(IngestReply::Backpressure { .. }) => {
                            // Typed queue saturation: keep the record,
                            // let the backoff pace us, and surface the
                            // rejection to the health plane.
                            env.tracer().count("ingest.backpressure", 1);
                        }
                        _ => {}
                    },
                }
            }
        }
        Ok(())
    }

    /// Drains the unacked buffer. Opportunistic (`blocking == false`)
    /// flushes spend at most `FLUSH_ROUNDS` rounds and then defer the
    /// leftovers; blocking flushes spend up to `HARD_ROUNDS` and then
    /// fail loudly.
    fn flush(&mut self, env: &TaEnv<'_>, blocking: bool) -> TeeResult<()> {
        if self.unacked.is_empty() {
            return Ok(());
        }
        self.ensure(env)?;
        let rounds = if blocking { HARD_ROUNDS } else { FLUSH_ROUNDS };
        let mut fruitless = 0u32;
        for round in 0..rounds {
            let before = self.unacked.len();
            if round == 0 {
                self.transmit_round(env)?;
            } else {
                // A retry round: backoff, optional handshake recovery,
                // retransmit — all under the relay.retry span so the
                // telemetry plane sees exactly where virtual time went.
                let _span = env.tracer().span("relay.retry");
                let head = self.unacked.front().expect("checked non-empty");
                let (socket, _) = self.channel.as_ref().expect("channel ensured");
                let socket = *socket;
                Self::backoff_wait(env, socket, head.seq, head.attempts);
                if fruitless > 0 && fruitless.is_multiple_of(REKEY_AFTER) {
                    // Nothing has been acked for a while: suspect a
                    // corrupted handshake and replay it (the cloud
                    // re-derives the same keys idempotently).
                    let (socket, client) = self.channel.as_mut().expect("channel ensured");
                    let socket = *socket;
                    env.net_send(socket, &client.client_hello())?;
                    let reply = env.net_recv(socket, 4096)?;
                    if !reply.is_empty() {
                        let _ = client.process_server_hello(&reply);
                    }
                }
                // A restarted shard invalidated our epoch grant mid-
                // round: re-attest (bumping the monotonic counter)
                // before retransmitting, so the resent records go out
                // under the fresh epoch.
                self.ensure_attested(env)?;
                self.transmit_round(env)?;
            }
            if self.unacked.is_empty() {
                return Ok(());
            }
            fruitless = if self.unacked.len() == before {
                fruitless + 1
            } else {
                0
            };
        }
        if blocking {
            Err(TeeError::Communication {
                reason: format!(
                    "relay flush exhausted {} rounds with {} unacked records",
                    rounds,
                    self.unacked.len()
                ),
            })
        } else {
            env.tracer()
                .count("relay.deferred", self.unacked.len() as u64);
            Ok(())
        }
    }

    /// Queues one event at the next sequence and flushes
    /// opportunistically. A full unacked buffer degrades gracefully: the
    /// send first drains it with a blocking flush (paying virtual time,
    /// which the health plane and batcher observe) rather than dropping
    /// a verdict or growing without bound.
    pub(crate) fn send_event(&mut self, env: &TaEnv<'_>, event: &AvsEvent) -> TeeResult<()> {
        self.ensure(env)?;
        if self.unacked.len() >= UNACKED_CAPACITY {
            self.flush(env, true)?;
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.unacked.push_back(UnackedRecord {
            seq,
            plaintext: event.encode(),
            attempts: 0,
        });
        self.flush(env, false)
    }

    /// Blocking drain of the unacked buffer — the end-of-scenario flush.
    /// Records an *opportunistic* flush deferred are retired here before
    /// a device's report is assembled; a finished run must not strand a
    /// verdict in the bounded buffer.
    ///
    /// # Errors
    ///
    /// Returns the blocking flush's error if the network stayed dead for
    /// `HARD_ROUNDS` rounds.
    pub(crate) fn drain(&mut self, env: &TaEnv<'_>) -> TeeResult<()> {
        self.flush(env, true)
    }

    /// Closes the supplicant socket after a blocking flush — an orderly
    /// shutdown never strands an unacked verdict.
    ///
    /// # Errors
    ///
    /// Returns the blocking flush's error if the network stayed dead for
    /// `HARD_ROUNDS` rounds.
    pub(crate) fn close(&mut self, env: &TaEnv<'_>) -> TeeResult<()> {
        let result = self.flush(env, true);
        if let Some((socket, _)) = self.channel.take() {
            let _ = env.net_close(socket);
        }
        result
    }
}
