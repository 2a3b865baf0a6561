//! The sharded ingest plane: deterministic session placement over N
//! journaled shards, plus the per-shard observability fold.

use std::sync::Arc;

use perisec_relay::attest::SessionIngest;
use perisec_relay::attest::MEASUREMENT_LEN;
use perisec_relay::cloud::CloudReport;
use perisec_relay::tls::PSK_LEN;
use perisec_telemetry::{
    Alert, AlertKind, FleetHealth, FleetHealthReport, FleetTelemetry, HealthConfig, HealthState,
};
use perisec_tz::time::{SimDuration, SimInstant};

use crate::fault::ShardFaultSpec;
use crate::shard::{IngestShard, ShardCounters};

/// Configuration of an [`IngestPlane`].
#[derive(Debug, Clone)]
pub struct IngestPlaneConfig {
    /// Number of shards (at least one).
    pub shards: usize,
    /// Number of sessions the plane will serve.
    pub sessions: usize,
    /// The device-provisioned PSK (the same one the direct cloud uses).
    pub psk: [u8; PSK_LEN],
    /// TA measurements the plane attests.
    pub accept: Vec<[u8; MEASUREMENT_LEN]>,
    /// Per-session bounded stash depth; beyond it the shard answers
    /// with a typed backpressure rejection instead of stashing further.
    pub queue_cap: usize,
    /// The shard crash schedule.
    pub faults: ShardFaultSpec,
}

impl IngestPlaneConfig {
    /// A fault-free plane over `shards` shards and `sessions` sessions
    /// with the workspace-default PSK.
    pub fn new(shards: usize, sessions: usize) -> Self {
        IngestPlaneConfig {
            shards,
            sessions,
            psk: [0x5a; PSK_LEN],
            accept: Vec::new(),
            queue_cap: 256,
            faults: ShardFaultSpec::none(0),
        }
    }

    /// Sets the accepted TA measurements.
    pub fn accepting(mut self, accept: Vec<[u8; MEASUREMENT_LEN]>) -> Self {
        self.accept = accept;
        self
    }

    /// Sets the crash schedule.
    pub fn with_faults(mut self, faults: ShardFaultSpec) -> Self {
        self.faults = faults;
        self
    }

    /// Sets the PSK.
    pub fn with_psk(mut self, psk: [u8; PSK_LEN]) -> Self {
        self.psk = psk;
        self
    }

    /// Sets the bounded per-session stash depth.
    pub fn with_queue_cap(mut self, queue_cap: usize) -> Self {
        self.queue_cap = queue_cap;
        self
    }
}

/// The sharded attested ingest plane. Sessions are placed onto shards
/// round robin (`session % shards`), so any observer — any worker count,
/// any replay — agrees which shard owns which session, and a shard's
/// crash schedule affects exactly the sessions placed on it.
pub struct IngestPlane {
    config: Arc<IngestPlaneConfig>,
    shards: Vec<IngestShard>,
}

impl std::fmt::Debug for IngestPlane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IngestPlane")
            .field("shards", &self.shards.len())
            .field("sessions", &self.config.sessions)
            .finish()
    }
}

impl IngestPlane {
    /// Builds the plane.
    ///
    /// # Panics
    ///
    /// Panics on zero shards or zero sessions — a plane with nowhere to
    /// place work is a construction bug.
    pub fn new(config: IngestPlaneConfig) -> Arc<Self> {
        assert!(config.shards > 0, "ingest plane needs at least one shard");
        assert!(
            config.sessions > 0,
            "ingest plane needs at least one session"
        );
        let config = Arc::new(config);
        let shards = (0..config.shards)
            .map(|index| IngestShard::new(index, Arc::clone(&config)))
            .collect();
        Arc::new(IngestPlane { config, shards })
    }

    /// The shard a session is placed on.
    pub fn shard_of(&self, session: u64) -> usize {
        session as usize % self.shards.len()
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Committed records per shard, in shard order.
    pub fn committed_per_shard(&self) -> Vec<u64> {
        self.shards.iter().map(|s| s.committed()).collect()
    }

    /// Committed records across the plane.
    pub fn total_committed(&self) -> u64 {
        self.committed_per_shard().iter().sum()
    }

    /// Durable counters summed across one shard's sessions.
    pub fn shard_counters(&self, shard: usize) -> ShardCounters {
        self.shards[shard].counter_totals()
    }

    /// Durable counters summed across the plane.
    pub fn counters(&self) -> ShardCounters {
        let mut totals = ShardCounters::default();
        for shard in &self.shards {
            let c = shard.counter_totals();
            totals.stale_epoch_rejects += c.stale_epoch_rejects;
            totals.backpressure_rejects += c.backpressure_rejects;
            totals.attest_grants += c.attest_grants;
            totals.attest_rejects += c.attest_rejects;
            totals.redelivered += c.redelivered;
            totals.rejected += c.rejected;
        }
        totals
    }

    /// One shard's telemetry fold: per-tenant histograms and counters,
    /// absorbed under the owning session ids (commutative merges, so
    /// folding order cannot show).
    pub fn shard_telemetry(&self, shard: usize) -> FleetTelemetry {
        let mut fleet = FleetTelemetry::new();
        for (session, telemetry) in self.shards[shard].session_telemetry() {
            fleet.absorb(session as usize, telemetry);
        }
        fleet
    }

    /// The whole plane's telemetry fold.
    pub fn telemetry(&self) -> FleetTelemetry {
        let mut fleet = FleetTelemetry::new();
        for shard in 0..self.shards.len() {
            fleet.merge(&self.shard_telemetry(shard));
        }
        fleet
    }

    /// One shard's health report: each session judged by the fleet
    /// plane's detectors (SLOs over the commit-latency series, the
    /// backpressure threshold) as one epoch at virtual time zero, plus
    /// shard-down/recovered journal entries derived from the crash
    /// schedule. Deterministic — it reads only durable session state and
    /// the pure crash schedule.
    pub fn shard_health(&self, shard: usize, config: &HealthConfig) -> FleetHealthReport {
        let mut health = FleetHealth::new(config.window);
        for (session, telemetry) in self.shards[shard].session_telemetry() {
            health.judge_run(config, session as usize, &telemetry);
        }
        // The shard itself journals its crash windows under a pseudo
        // device id just past the session space, so downtime is part of
        // the same sorted alert journal the fleet plane uses.
        let shard_device = self.config.sessions + shard;
        let mut shard_alerts = Vec::new();
        for (k, (start, end)) in self.config.faults.windows(shard).into_iter().enumerate() {
            shard_alerts.push(Alert {
                device: shard_device,
                epoch: k as u64,
                at: SimInstant::EPOCH + SimDuration::from_nanos(start),
                kind: AlertKind::ShardDown,
                span: None,
                detail: format!("shard {shard} crash window {k} began"),
            });
            shard_alerts.push(Alert {
                device: shard_device,
                epoch: k as u64,
                at: SimInstant::EPOCH + SimDuration::from_nanos(end),
                kind: AlertKind::ShardRecovered,
                span: None,
                detail: format!("shard {shard} crash window {k} ended; sessions must re-attest"),
            });
        }
        health.finish_device(shard_device, HealthState::Healthy, shard_alerts);
        health.report()
    }
}

impl SessionIngest for IngestPlane {
    fn handle(&self, session: u64, now_ns: u64, request: &[u8]) -> Vec<u8> {
        self.shards[self.shard_of(session)].handle(session, now_ns, request)
    }

    fn session_report(&self, session: u64) -> CloudReport {
        self.shards[self.shard_of(session)].session_report(session)
    }

    fn reset_session(&self, session: u64) {
        self.shards[self.shard_of(session)].reset_session(session);
    }
}
