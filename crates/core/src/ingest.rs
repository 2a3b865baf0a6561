//! Device-side wiring of the sharded attested ingest plane.
//!
//! The plane itself lives in `perisec-ingest` (which depends on this
//! crate's lower layers, not the other way round); the pipeline only
//! sees the [`SessionIngest`] trait object. An [`IngestHook`] is one
//! device's handle onto a shared plane — the plane plus the device's
//! session id — and `IngestEndpoint` adapts it to the network fabric:
//! registered under the cloud hostname, it forwards every wire request
//! to the plane together with the device's *virtual* clock reading, so
//! the plane can evaluate its crash schedule against the same timeline
//! the device retries on.

use std::sync::Arc;

use perisec_relay::attest::SessionIngest;
use perisec_relay::cloud::CloudReport;
use perisec_relay::netsim::NetworkService;
use perisec_tz::time::SimClock;

/// One device's handle onto a shared ingest plane.
#[derive(Clone)]
pub struct IngestHook {
    plane: Arc<dyn SessionIngest>,
    session: u64,
}

impl std::fmt::Debug for IngestHook {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IngestHook")
            .field("session", &self.session)
            .finish()
    }
}

impl IngestHook {
    /// Binds `session` of `plane` to a device.
    pub fn new(plane: Arc<dyn SessionIngest>, session: u64) -> Self {
        IngestHook { plane, session }
    }

    /// The session id this device ingests under.
    pub fn session(&self) -> u64 {
        self.session
    }

    /// The session's committed-decision report — the plane-side
    /// equivalent of `MockCloudService::report`.
    pub fn report(&self) -> CloudReport {
        self.plane.session_report(self.session)
    }

    /// Clears the session's report between experiment runs, mirroring
    /// `MockCloudService::reset`.
    pub fn reset(&self) {
        self.plane.reset_session(self.session);
    }

    /// The fabric-facing endpoint for this hook, reading request times
    /// off the device's virtual clock.
    pub(crate) fn endpoint(&self, clock: SimClock) -> Arc<IngestEndpoint> {
        Arc::new(IngestEndpoint {
            hook: self.clone(),
            clock,
        })
    }
}

/// [`NetworkService`] adapter: what the pipeline registers under the
/// cloud hostname instead of a local `MockCloudService` when a fleet
/// routes through the plane.
pub(crate) struct IngestEndpoint {
    hook: IngestHook,
    clock: SimClock,
}

impl NetworkService for IngestEndpoint {
    fn handle(&self, _conn: u64, request: &[u8]) -> Vec<u8> {
        self.hook
            .plane
            .handle(self.hook.session, self.clock.now().as_nanos(), request)
    }
}

/// Where a pipeline's cloud decisions land: the in-process mock cloud
/// (the direct path) or a session of the shared ingest plane. Both
/// reset and report the same way, so the pipeline helpers stay
/// path-agnostic.
#[derive(Debug, Clone)]
pub(crate) enum CloudLedger {
    /// The paper's single trusted endpoint, owned by this pipeline.
    Direct(Arc<perisec_relay::MockCloudService>),
    /// One session of a fleet-shared sharded plane.
    Plane(IngestHook),
}

impl CloudLedger {
    pub(crate) fn reset(&self) {
        match self {
            CloudLedger::Direct(cloud) => cloud.reset(),
            CloudLedger::Plane(hook) => hook.reset(),
        }
    }

    pub(crate) fn report(&self) -> CloudReport {
        match self {
            CloudLedger::Direct(cloud) => cloud.report(),
            CloudLedger::Plane(hook) => hook.report(),
        }
    }
}
