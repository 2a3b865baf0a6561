//! The `ingest_wire` workload: wire-level sessions from `THREADS` client
//! threads against a multi-shard `IngestPlane` whose shards crash. Each
//! session does a handshake, an attestation and `records` sealed
//! records, re-attesting whenever a restarted shard fences its epoch.
//! Closed loop: each client waits for every reply before sending on.

use std::sync::Arc;
use std::time::Instant;

use perisec::core::FILTER_TA_NAME;
use perisec::ingest::{IngestPlane, IngestPlaneConfig, ShardFaultSpec};
use perisec::relay::attest::{encode_attest_request, encode_ingest_record};
use perisec::relay::{
    measurement_of, AvsEvent, IngestReply, SecureChannelClient, SessionIngest, ATTEST_SEQ_BASE,
    MEASUREMENT_LEN, PSK_LEN,
};

use crate::host;
use crate::report::ChildReport;
use crate::spans::SpanLog;
use crate::Role;

/// Client threads: one per core of the 2-core reference host.
pub const THREADS: usize = 2;
/// Shards of the plane.
const SHARDS: usize = 4;
/// Virtual time between a session's records.
const SPACING_NS: u64 = 10_000;
/// Longest virtual backoff between retries into a dark shard.
const MAX_BACKOFF_NS: u64 = 4_000_000;
/// The PSK the plane's configuration provisions by default.
const PSK: [u8; PSK_LEN] = [0x5a; PSK_LEN];

/// How big one run of the wire workload is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireSize {
    /// Sessions, each with its own handshake and attestation.
    pub sessions: u64,
    /// Sealed records per session.
    pub records: u64,
    /// Sessions replayed one by one under spans in the traced run.
    pub sample: u64,
}

/// Verdict texts the generated records carry (lengths vary, as the
/// relayed transcripts do).
const TEXTS: [&str; 8] = [
    "ok",
    "turn on the kitchen lights",
    "frame-verdict frames=1 p=12",
    "set a timer for ten minutes",
    "what is the weather",
    "play music",
    "frame-verdict frames=1 p=874",
    "lock the front door and arm the alarm",
];

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One generated record: the dialog id and text the cloud must commit.
struct Record {
    dialog_id: u64,
    text: &'static str,
    encoded: Vec<u8>,
}

fn generate(size: WireSize, seed: u64) -> Vec<Vec<Record>> {
    (0..size.sessions)
        .map(|session| {
            (0..size.records)
                .map(|seq| {
                    let draw = splitmix(seed ^ splitmix(session << 20 | seq));
                    let dialog_id = session * size.records + seq;
                    let text = TEXTS[(draw % TEXTS.len() as u64) as usize];
                    let encoded = AvsEvent::TextMessage {
                        dialog_id,
                        text: text.to_owned(),
                    }
                    .encode();
                    Record {
                        dialog_id,
                        text,
                        encoded,
                    }
                })
                .collect()
        })
        .collect()
}

/// When every shard goes dark, and for how long. Each session starts at
/// a seeded offset below `SPACING_NS` and sends a record every
/// `SPACING_NS`, so one record of every session falls into the window
/// after the session attested: every session must re-attest once,
/// whatever the seed. The window is longer than the spacing, so how
/// long that record waits depends on the session's offset.
const CRASH_AT_NS: u64 = 3 * SPACING_NS;
const CRASH_DOWNTIME_NS: u64 = SPACING_NS + SPACING_NS / 2;

fn plane(size: WireSize, seed: u64) -> Arc<IngestPlane> {
    IngestPlane::new(
        IngestPlaneConfig::new(SHARDS, size.sessions as usize)
            .accepting(vec![measurement_of(FILTER_TA_NAME)])
            .with_faults(ShardFaultSpec::single(seed, CRASH_AT_NS, CRASH_DOWNTIME_NS)),
    )
}

/// Virtual start of a session: its devices boot together, a seeded few
/// µs apart.
fn start_ns(seed: u64, session: u64) -> u64 {
    splitmix(seed ^ splitmix(session)) % SPACING_NS
}

/// What the client saw of one run.
#[derive(Debug, Default)]
struct ClientLog {
    /// Host ns per record, first seal to the open of its ack.
    commit_ns: Vec<f64>,
    /// Host ns of `IngestPlane::handle` per request kind (traced only).
    hello_ns: Vec<f64>,
    attest_ns: Vec<f64>,
    record_ns: Vec<f64>,
    /// Host ns of sealing and opening (traced only).
    seal_ns: Vec<f64>,
    open_ns: Vec<f64>,
    /// Record requests sent, retries included.
    record_requests: u64,
    /// Virtual ns records waited between first send and ack.
    wait_ns: u64,
    /// Requests the plane refused outright.
    refused: u64,
}

/// Where the per-call timings of a session go.
enum Timing<'a> {
    /// End-to-end only: one clock read per record.
    Off,
    /// Every seal, handle and open timed into the client log.
    Calls,
    /// Every call recorded as a span in a log owned by this session.
    Spans(&'a mut SpanLog),
}

/// One client session's state machine over the wire.
struct Session<'a> {
    plane: &'a IngestPlane,
    ta: [u8; MEASUREMENT_LEN],
    session: u64,
    client: SecureChannelClient,
    now_ns: u64,
    counter: u64,
    log: &'a mut ClientLog,
    timing: Timing<'a>,
}

impl Session<'_> {
    fn timed<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        match self.timing {
            Timing::Off => f(self),
            Timing::Calls => {
                let started = Instant::now();
                let value = f(self);
                let ns = started.elapsed().as_nanos() as f64;
                let sink = match name {
                    "relay.seal" => &mut self.log.seal_ns,
                    "relay.open" => &mut self.log.open_ns,
                    "ingest.handle_hello" => &mut self.log.hello_ns,
                    "ingest.handle_attest" => &mut self.log.attest_ns,
                    _ => &mut self.log.record_ns,
                };
                sink.push(ns);
                value
            }
            Timing::Spans(_) => {
                let started = Instant::now();
                let value = f(self);
                let ns = started.elapsed().as_nanos() as u64;
                if let Timing::Spans(log) = &mut self.timing {
                    log.record(name, self.session, ns);
                }
                value
            }
        }
    }

    fn handle(&mut self, kind: &'static str, request: &[u8]) -> Vec<u8> {
        let (session, now_ns) = (self.session, self.now_ns);
        self.timed(kind, |s| s.plane.handle(session, now_ns, request))
    }

    fn backoff(&mut self, backoff: &mut u64) {
        self.now_ns += *backoff;
        *backoff = (*backoff * 2).min(MAX_BACKOFF_NS);
    }

    fn open(&mut self, reply: &[u8]) -> Result<IngestReply, String> {
        let (_, plain) = self
            .timed("relay.open", |s| s.client.open_explicit(reply))
            .map_err(|e| e.to_string())?;
        IngestReply::decode(&plain).ok_or_else(|| "undecodable ingest reply".to_owned())
    }

    fn handshake(&mut self) -> Result<(), String> {
        let mut backoff = SPACING_NS;
        loop {
            let hello = self.client.client_hello();
            let reply = self.handle("ingest.handle_hello", &hello);
            if !reply.is_empty() {
                return self
                    .client
                    .process_server_hello(&reply)
                    .map_err(|e| e.to_string());
            }
            self.backoff(&mut backoff);
        }
    }

    /// Attests under a fresh monotonic counter, retrying the same counter
    /// through a dark shard; returns the granted epoch.
    fn attest(&mut self) -> Result<u64, String> {
        self.counter += 1;
        let mut backoff = SPACING_NS;
        loop {
            let request = encode_attest_request(&self.ta, self.counter);
            let seq = ATTEST_SEQ_BASE + self.counter;
            let wire = self
                .timed("relay.seal", |s| s.client.seal_at(seq, &request))
                .map_err(|e| e.to_string())?;
            let reply = self.handle("ingest.handle_attest", &wire);
            if reply.is_empty() {
                self.backoff(&mut backoff);
                continue;
            }
            return match self.open(&reply)? {
                IngestReply::AttestGrant { epoch } => Ok(epoch),
                other => {
                    self.log.refused += 1;
                    Err(format!("attestation refused: {other:?}"))
                }
            };
        }
    }

    /// Sends one record until it is acked or refused (counted in the
    /// log).
    fn send(&mut self, seq: u64, event: &[u8], epoch: &mut u64) -> Result<(), String> {
        let started = Instant::now();
        let first_send_ns = self.now_ns;
        let mut backoff = SPACING_NS;
        loop {
            let body = encode_ingest_record(*epoch, event);
            let wire = self
                .timed("relay.seal", |s| s.client.seal_at(seq, &body))
                .map_err(|e| e.to_string())?;
            self.log.record_requests += 1;
            let reply = self.handle("ingest.handle_record", &wire);
            if reply.is_empty() {
                self.backoff(&mut backoff);
                continue;
            }
            match self.open(&reply)? {
                IngestReply::Ack(_) => break,
                IngestReply::NeedAttest | IngestReply::StaleEpoch { .. } => {
                    *epoch = self.attest()?;
                }
                other => {
                    self.log.refused += 1;
                    eprintln!("session {}: record {seq} refused: {other:?}", self.session);
                    return Ok(());
                }
            }
        }
        self.log.commit_ns.push(started.elapsed().as_nanos() as f64);
        self.log.wait_ns += self.now_ns - first_send_ns;
        Ok(())
    }

    fn run(&mut self, records: &[Record]) -> Result<(), String> {
        self.handshake()?;
        let mut epoch = self.attest()?;
        for (seq, record) in records.iter().enumerate() {
            self.send(seq as u64, &record.encoded, &mut epoch)?;
            self.now_ns += SPACING_NS;
        }
        Ok(())
    }
}

fn drive(
    plane: &IngestPlane,
    seed: u64,
    session: u64,
    records: &[Record],
    log: &mut ClientLog,
    timing: Timing<'_>,
) {
    let mut state = Session {
        plane,
        ta: measurement_of(FILTER_TA_NAME),
        session,
        client: SecureChannelClient::new(PSK, session + 1),
        now_ns: start_ns(seed, session),
        counter: 0,
        log,
        timing,
    };
    if let Err(e) = state.run(records) {
        eprintln!("session {session} failed: {e}");
        state.log.refused += 1;
    }
}

/// Records of one session the plane did not commit exactly once, in
/// order, with the payload sent.
fn uncommitted(plane: &IngestPlane, session: u64, records: &[Record]) -> u64 {
    let report = plane.session_report(session);
    let matching = report
        .events
        .iter()
        .zip(records)
        .filter(|(got, want)| {
            got.dialog_id == want.dialog_id && got.text.as_deref() == Some(want.text)
        })
        .count() as u64;
    let extra = report.events.len().saturating_sub(records.len()) as u64;
    (records.len() as u64 - matching) + extra
}

/// Runs one child of the wire workload.
///
/// # Errors
///
/// Infallible today; the signature matches the fleet children.
pub fn run(
    size: WireSize,
    seed: u64,
    role: Role,
    log: &mut SpanLog,
) -> Result<ChildReport, String> {
    let ((inputs, plane), setup_s) =
        host::repeat_setup(|| Ok::<_, String>((generate(size, seed), plane(size, seed))))?;
    let mut out = ChildReport::default();
    out.set("setup_s", setup_s);

    let traced = role == Role::Traced;
    let rss_before = host::rss_mb();
    let cpu_before = host::cpu_seconds();
    let started = Instant::now();
    let logs: Vec<ClientLog> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|thread| {
                let (plane, inputs) = (&plane, &inputs);
                scope.spawn(move || {
                    let mut log = ClientLog::default();
                    for session in (thread as u64..size.sessions).step_by(THREADS) {
                        let timing = if traced { Timing::Calls } else { Timing::Off };
                        drive(
                            plane,
                            seed,
                            session,
                            &inputs[session as usize],
                            &mut log,
                            timing,
                        );
                    }
                    log
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let round_s = started.elapsed().as_secs_f64();
    let cpu_s = host::cpu_seconds() - cpu_before;
    out.set("peak_rss_mb", host::peak_rss_mb());
    out.set(
        "memory.rss_kb_per_device",
        (host::peak_rss_mb() - rss_before) * 1024.0 / size.sessions as f64,
    );

    let mut all = ClientLog::default();
    for mut l in logs {
        all.commit_ns.append(&mut l.commit_ns);
        all.hello_ns.append(&mut l.hello_ns);
        all.attest_ns.append(&mut l.attest_ns);
        all.record_ns.append(&mut l.record_ns);
        all.seal_ns.append(&mut l.seal_ns);
        all.open_ns.append(&mut l.open_ns);
        all.record_requests += l.record_requests;
        all.wait_ns += l.wait_ns;
        all.refused += l.refused;
    }
    let attempted = size.sessions * size.records;
    let failed: u64 = (0..size.sessions)
        .map(|s| uncommitted(&plane, s, &inputs[s as usize]))
        .sum::<u64>()
        + all.refused;
    out.set("events", attempted as f64);
    out.set("failed", failed as f64);
    out.set("round_s", round_s);
    out.set("events_per_s", attempted as f64 / round_s);
    out.set(
        "executor.cpu_busy_share",
        cpu_s / (round_s * THREADS as f64),
    );
    let (p50, p99) = quantiles_us(&mut all.commit_ns);
    out.set("ingest.commit_us_p50", p50);
    out.set("ingest.commit_us_p99", p99);
    out.set("ingest.commit_samples", all.commit_ns.len() as f64);

    let committed = plane.total_committed();
    out.set(
        "ingest.commit_ratio",
        committed as f64 / all.record_requests.max(1) as f64,
    );
    let counters = plane.counters();
    out.set(
        "ingest.stale_epoch_rejects",
        counters.stale_epoch_rejects as f64,
    );
    out.set(
        "ingest.backpressure_rejects",
        counters.backpressure_rejects as f64,
    );
    out.set("ingest.attest_grants", counters.attest_grants as f64);
    out.set("attest_rejects", counters.attest_rejects as f64);
    out.set("relay.redelivered", counters.redelivered as f64);
    out.set("relay.rejected", counters.rejected as f64);
    out.set(
        "ingest.shard_skew",
        crate::fleet::shard_skew(&plane.committed_per_shard()),
    );
    // Virtual end-to-end latency of a record: the wait the client saw
    // (backoff through dark shards, re-attestation) plus the commit
    // latency the plane models.
    let modeled_commit_ns = plane
        .telemetry()
        .histograms
        .get("ingest.commit")
        .map_or(0.0, |h| h.mean().as_nanos() as f64);
    out.set(
        "sim_latency_mean_ms",
        (all.wait_ns as f64 / attempted.max(1) as f64 + modeled_commit_ns) / 1e6,
    );

    if traced {
        for (name, sample) in [
            ("ingest.handle_hello", &mut all.hello_ns),
            ("ingest.handle_attest", &mut all.attest_ns),
            ("ingest.handle_record", &mut all.record_ns),
        ] {
            let (p50, p99) = quantiles_us(sample);
            out.set(&format!("{name}_us_p50"), p50);
            out.set(&format!("{name}_us_p99"), p99);
        }
        out.set("relay.seal_us", host::mean(&all.seal_ns) / 1e3);
        out.set("relay.open_us", host::mean(&all.open_ns) / 1e3);
        out.set(
            "relay.retries_per_record",
            (all.record_requests - attempted.min(all.record_requests)) as f64
                / attempted.max(1) as f64,
        );
        drop(plane);
        replay_sample(size, seed, &inputs, log);
        record_spans(&mut out, log);
    }
    Ok(out)
}

/// Nearest-rank p50 and p99 of a host-ns sample, in µs.
fn quantiles_us(sample: &mut [f64]) -> (f64, f64) {
    sample.sort_by(f64::total_cmp);
    (
        host::quantile_sorted(sample, 0.50) / 1e3,
        host::quantile_sorted(sample, 0.99) / 1e3,
    )
}

/// Drives `size.sample` sessions one by one against a fresh plane, each
/// call under a span.
fn replay_sample(size: WireSize, seed: u64, inputs: &[Vec<Record>], log: &mut SpanLog) {
    let plane = plane(size, seed);
    let sample = size.sample.clamp(1, size.sessions);
    for k in 0..sample {
        let session = k * size.sessions / sample;
        let root = log.enter("session", session);
        let mut client = ClientLog::default();
        drive(
            &plane,
            seed,
            session,
            &inputs[session as usize],
            &mut client,
            Timing::Spans(&mut *log),
        );
        log.exit(root);
    }
}

fn record_spans(out: &mut ChildReport, log: &SpanLog) {
    let totals = log.totals();
    let ns = |name: &str| totals.get(name).map_or(0.0, |t| t.total_ns as f64);
    let session = ns("session");
    let relay = ns("relay.seal") + ns("relay.open");
    let ingest =
        ns("ingest.handle_hello") + ns("ingest.handle_attest") + ns("ingest.handle_record");
    out.set("self.relay_pct", 100.0 * relay / session.max(1.0));
    out.set("self.ingest_pct", 100.0 * ingest / session.max(1.0));
}
