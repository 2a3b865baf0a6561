//! The TEE core: registries, sessions, dispatch and RPC.
//!
//! This is the OP-TEE kernel of the simulation. It owns the TA and PTA
//! registries, tracks sessions, reserves each application's declared memory
//! from the TrustZone secure carve-out, dispatches commands (charging the
//! calibrated dispatch costs), and services TA requests that need the
//! normal world by issuing supplicant RPCs (charging world switches).
//!
//! Entry from the normal world arrives through the secure monitor: the
//! core installs itself as the handler of the `STD_CALL_WITH_ARG` SMC and
//! picks up the client message from a shared mailbox, mirroring OP-TEE's
//! shared-memory message passing.
//!
//! The core owns its [`Platform`], and so the monitor that holds the
//! handler. The handler therefore points back at the core through a
//! [`Weak`] reference: a strong one would close a cycle, and no device's
//! TEE stack (core, TAs, PTAs, drivers, carve-out reservations) would ever
//! be freed. When the last strong handle to the core drops, the whole
//! stack drops with it. A raw SMC that reaches the monitor after that gets
//! [`SMC_RETURN_ENOTAVAIL`] back instead of a dispatch. The core does not
//! unregister its handler on drop: the monitor keeps one handler per
//! function id, so a dropped core could remove the handler of a core
//! booted after it on the same platform.
//!
//! Registration reserves each application's declared footprint as a bare
//! [`SecureReservation`]: the span counts against the carve-out, but the
//! simulation never touches its bytes, so none are allocated on the host.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};

use parking_lot::{Mutex, RwLock};

use perisec_telemetry::Tracer;
use perisec_tz::monitor::{smc_func, SmcCall, SmcHandler, SmcResult};
use perisec_tz::platform::Platform;
use perisec_tz::secure_mem::{SecureReservation, SharedReservation};
use perisec_tz::world::World;

use crate::param::TeeParams;
use crate::pta::{PseudoTa, PtaEnv};
use crate::storage::SecureStorage;
use crate::supplicant::{RpcReply, RpcRequest, Supplicant};
use crate::ta::{TaDescriptor, TaEnv, TrustedApp};
use crate::uuid::TaUuid;
use crate::{TeeError, TeeResult};

/// Identifier of an open session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SessionId(u64);

impl SessionId {
    /// The raw session number.
    pub fn as_u64(self) -> u64 {
        self.0
    }
}

impl std::fmt::Display for SessionId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "session#{}", self.0)
    }
}

/// The SMC result a dropped core's handler returns, in place of a
/// dispatch (OP-TEE's `OPTEE_SMC_RETURN_ENOTAVAIL`). A live core returns 0.
pub const SMC_RETURN_ENOTAVAIL: u64 = 7;

struct TaEntry {
    descriptor: TaDescriptor,
    instance: Mutex<Box<dyn TrustedApp>>,
    _reserved: Option<SecureReservation>,
    /// Content-keyed reservation for the TA's model weights, when the TA
    /// was registered through [`TeeCore::register_ta_shared`]: co-resident
    /// TAs on the same carve-out holding the same weights charge them once.
    _shared_model: Option<SharedReservation>,
}

struct PtaEntry {
    descriptor: TaDescriptor,
    instance: Mutex<Box<dyn PseudoTa>>,
    _reserved: SecureReservation,
}

/// A message submitted by the normal-world client through the mailbox.
#[derive(Debug)]
pub(crate) enum ClientMessage {
    /// Open a session to the given application.
    OpenSession {
        /// Target application.
        uuid: TaUuid,
        /// Open-session parameters.
        params: TeeParams,
    },
    /// Invoke a command on an open session.
    Invoke {
        /// Session to invoke on.
        session: SessionId,
        /// Command identifier.
        cmd: u32,
        /// Command parameters.
        params: TeeParams,
    },
    /// Invoke several commands on an open session with a single SMC — the
    /// transition-amortized path: one world-switch round trip covers the
    /// whole batch.
    InvokeBatch {
        /// Session to invoke on.
        session: SessionId,
        /// The `(command, parameters)` pairs, dispatched in order.
        calls: Vec<(u32, TeeParams)>,
    },
    /// Close a session.
    CloseSession {
        /// Session to close.
        session: SessionId,
    },
}

/// The core's reply to a client message.
#[derive(Debug)]
pub(crate) enum ClientReply {
    /// Session opened.
    SessionOpened {
        /// The new session.
        session: SessionId,
        /// Updated parameters.
        params: TeeParams,
    },
    /// Command completed.
    Invoked {
        /// Updated parameters.
        params: TeeParams,
    },
    /// Batched commands completed.
    InvokedBatch {
        /// Updated parameters of every call, in submission order.
        results: Vec<TeeParams>,
    },
    /// Session closed.
    Closed,
    /// The operation failed.
    Failed(TeeError),
}

/// The OP-TEE core.
pub struct TeeCore {
    platform: Platform,
    supplicant: Arc<Supplicant>,
    storage: SecureStorage,
    tas: RwLock<HashMap<TaUuid, Arc<TaEntry>>>,
    ptas: RwLock<HashMap<TaUuid, Arc<PtaEntry>>>,
    sessions: Mutex<HashMap<SessionId, TaUuid>>,
    next_session: AtomicU64,
    mailbox: Mutex<Option<ClientMessage>>,
    replybox: Mutex<Option<ClientReply>>,
    call_lock: Mutex<()>,
    /// The device's telemetry tracer (disabled by default; see
    /// [`TeeCore::set_tracer`]). Spans record in *virtual* time, so they
    /// never perturb the deterministic report contract.
    tracer: Mutex<Tracer>,
}

impl std::fmt::Debug for TeeCore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TeeCore")
            .field("tas", &self.tas.read().len())
            .field("ptas", &self.ptas.read().len())
            .field("sessions", &self.sessions.lock().len())
            .finish()
    }
}

impl TeeCore {
    /// Boots a TEE core on `platform` with the given supplicant, and
    /// installs its SMC handler in the secure monitor. The handler holds
    /// the core weakly (see the module docs), so dropping the returned
    /// handle and its clones frees the core.
    pub fn boot(platform: Platform, supplicant: Arc<Supplicant>) -> Arc<Self> {
        let storage = SecureStorage::for_platform(&platform);
        let core = Arc::new(TeeCore {
            platform,
            supplicant,
            storage,
            tas: RwLock::new(HashMap::new()),
            ptas: RwLock::new(HashMap::new()),
            sessions: Mutex::new(HashMap::new()),
            next_session: AtomicU64::new(1),
            mailbox: Mutex::new(None),
            replybox: Mutex::new(None),
            call_lock: Mutex::new(()),
            tracer: Mutex::new(Tracer::disabled()),
        });
        let handler: Arc<dyn SmcHandler> = Arc::new(TeeSmcHandler {
            core: Arc::downgrade(&core),
        });
        core.platform
            .monitor()
            .register_handler(smc_func::STD_CALL_WITH_ARG, handler);
        core
    }

    /// The platform this core runs on.
    pub fn platform(&self) -> &Platform {
        &self.platform
    }

    /// The supplicant serving this core's RPCs.
    pub fn supplicant(&self) -> &Arc<Supplicant> {
        &self.supplicant
    }

    /// Installs the telemetry tracer the core records SMC-boundary spans
    /// into (`smc.call`, `tee.invoke_batch`, `tee.rpc`). Pass a clone of
    /// the device pipeline's tracer so TEE crossings land in the same
    /// trace as the pipeline stages and TA inference spans.
    pub fn set_tracer(&self, tracer: Tracer) {
        *self.tracer.lock() = tracer;
    }

    /// A clone of the installed tracer (disabled unless
    /// [`TeeCore::set_tracer`] was called). TAs use this to trace their
    /// own inference stages without threading a tracer through the TA
    /// registration API.
    pub fn tracer(&self) -> Tracer {
        self.tracer.lock().clone()
    }

    /// The secure-storage service.
    pub fn storage(&self) -> &SecureStorage {
        &self.storage
    }

    /// Registers a trusted application, reserving its declared footprint
    /// from secure RAM.
    ///
    /// # Errors
    ///
    /// * [`TeeError::BadParameters`] if a TA with the same UUID exists.
    /// * [`TeeError::OutOfMemory`] if the footprint does not fit in the
    ///   secure carve-out.
    pub fn register_ta(&self, ta: Box<dyn TrustedApp>) -> TeeResult<TaUuid> {
        self.register_ta_inner(ta, None)
    }

    /// Registers a trusted application whose declared footprint includes
    /// `model_bytes` of read-only model weights identified by the content
    /// key `model_key`. The non-model part of the footprint is reserved
    /// privately, as in [`TeeCore::register_ta`]; the model part goes
    /// through [`perisec_tz::secure_mem::SecureRam::reserve_shared`], so
    /// co-resident TAs on the same carve-out (including TAs on sibling
    /// secure cores sharing the carve-out) that host the **same** weights
    /// charge them **once** — the multi-core scheduler's secure-RAM model
    /// dedup.
    ///
    /// # Errors
    ///
    /// Same as [`TeeCore::register_ta`], plus [`TeeError::BadParameters`]
    /// if `model_bytes` exceeds the TA's declared footprint (the
    /// descriptor must account for the weights it claims to share).
    pub fn register_ta_shared(
        &self,
        ta: Box<dyn TrustedApp>,
        model_key: u64,
        model_bytes: usize,
    ) -> TeeResult<TaUuid> {
        if model_bytes > ta.descriptor().footprint_bytes() {
            return Err(TeeError::BadParameters {
                reason: format!(
                    "shared model ({model_bytes} B) exceeds the ta's declared footprint ({} B)",
                    ta.descriptor().footprint_bytes()
                ),
            });
        }
        self.register_ta_inner(ta, Some((model_key, model_bytes)))
    }

    fn register_ta_inner(
        &self,
        ta: Box<dyn TrustedApp>,
        shared_model: Option<(u64, usize)>,
    ) -> TeeResult<TaUuid> {
        let descriptor = ta.descriptor();
        let uuid = descriptor.uuid;
        if self.tas.read().contains_key(&uuid) {
            return Err(TeeError::BadParameters {
                reason: format!("ta {uuid} already registered"),
            });
        }
        let ram = self.platform.secure_ram();
        let (reserved, shared) = match shared_model {
            None => (
                Some(
                    ram.reserve(descriptor.footprint_bytes())
                        .map_err(TeeError::from)?,
                ),
                None,
            ),
            Some((key, model_bytes)) => {
                let private = descriptor.footprint_bytes() - model_bytes;
                let reserved = if private > 0 {
                    Some(ram.reserve(private).map_err(TeeError::from)?)
                } else {
                    None
                };
                let shared = ram
                    .reserve_shared(key, model_bytes)
                    .map_err(TeeError::from)?;
                (reserved, Some(shared))
            }
        };
        self.tas.write().insert(
            uuid,
            Arc::new(TaEntry {
                descriptor,
                instance: Mutex::new(ta),
                _reserved: reserved,
                _shared_model: shared,
            }),
        );
        Ok(uuid)
    }

    /// Registers a pseudo TA, reserving its declared footprint from secure
    /// RAM.
    ///
    /// # Errors
    ///
    /// Same as [`TeeCore::register_ta`].
    pub fn register_pta(&self, pta: Box<dyn PseudoTa>) -> TeeResult<TaUuid> {
        let descriptor = pta.descriptor();
        let uuid = descriptor.uuid;
        if self.ptas.read().contains_key(&uuid) {
            return Err(TeeError::BadParameters {
                reason: format!("pta {uuid} already registered"),
            });
        }
        let reserved = self
            .platform
            .secure_ram()
            .reserve(descriptor.footprint_bytes())
            .map_err(TeeError::from)?;
        self.ptas.write().insert(
            uuid,
            Arc::new(PtaEntry {
                descriptor,
                instance: Mutex::new(pta),
                _reserved: reserved,
            }),
        );
        Ok(uuid)
    }

    /// Unregisters a TA, releasing its reserved memory.
    ///
    /// # Errors
    ///
    /// * [`TeeError::ItemNotFound`] if the TA is unknown.
    /// * [`TeeError::AccessDenied`] if it still has open sessions.
    pub fn unregister_ta(&self, uuid: TaUuid) -> TeeResult<()> {
        if self.sessions.lock().values().any(|u| *u == uuid) {
            return Err(TeeError::AccessDenied {
                reason: format!("ta {uuid} still has open sessions"),
            });
        }
        self.tas
            .write()
            .remove(&uuid)
            .map(|_| ())
            .ok_or(TeeError::ItemNotFound {
                what: format!("ta {uuid}"),
            })
    }

    /// Number of registered TAs.
    pub fn ta_count(&self) -> usize {
        self.tas.read().len()
    }

    /// Number of registered PTAs.
    pub fn pta_count(&self) -> usize {
        self.ptas.read().len()
    }

    /// Number of open sessions.
    pub fn session_count(&self) -> usize {
        self.sessions.lock().len()
    }

    /// Descriptors of every registered TA and PTA (used by footprint
    /// reports).
    pub fn descriptors(&self) -> Vec<TaDescriptor> {
        let mut out: Vec<TaDescriptor> = self
            .tas
            .read()
            .values()
            .map(|e| e.descriptor.clone())
            .collect();
        out.extend(self.ptas.read().values().map(|e| e.descriptor.clone()));
        out.sort_by(|a, b| a.name.cmp(&b.name));
        out
    }

    // ----- secure-world entry points -------------------------------------

    /// Opens a session to a TA or PTA (secure-world path; the normal world
    /// goes through [`crate::client::TeeClient`]).
    ///
    /// # Errors
    ///
    /// Returns [`TeeError::ItemNotFound`] for unknown UUIDs or the
    /// application's own rejection.
    pub fn open_session(&self, uuid: TaUuid, params: &mut TeeParams) -> TeeResult<SessionId> {
        let cost = self.platform.cost().clone();
        self.platform.charge_cpu(World::Secure, cost.session_open);
        let session = SessionId(self.next_session.fetch_add(1, Ordering::SeqCst));
        if let Some(entry) = self.tas.read().get(&uuid).cloned() {
            self.platform.charge_cpu(World::Secure, cost.ta_dispatch);
            let mut env = TaEnv::new(self, uuid, session);
            entry.instance.lock().open_session(&mut env, params)?;
            self.sessions.lock().insert(session, uuid);
            return Ok(session);
        }
        if self.ptas.read().contains_key(&uuid) {
            self.platform.charge_cpu(World::Secure, cost.pta_dispatch);
            self.sessions.lock().insert(session, uuid);
            return Ok(session);
        }
        Err(TeeError::ItemNotFound {
            what: format!("trusted application {uuid}"),
        })
    }

    /// Invokes a command on an open session from the secure side. A PTA
    /// sees the call as [`World::Secure`]; the normal world's commands
    /// arrive through [`crate::client::TeeClient`] instead.
    ///
    /// # Errors
    ///
    /// Returns [`TeeError::ItemNotFound`] for unknown sessions, or the
    /// application's own error.
    pub fn invoke_command(
        &self,
        session: SessionId,
        cmd: u32,
        params: &mut TeeParams,
    ) -> TeeResult<()> {
        self.invoke_command_from(World::Secure, session, cmd, params)
    }

    /// [`TeeCore::invoke_command`] on behalf of `caller`, which a PTA sees
    /// as [`PtaEnv::caller`].
    fn invoke_command_from(
        &self,
        caller: World,
        session: SessionId,
        cmd: u32,
        params: &mut TeeParams,
    ) -> TeeResult<()> {
        let uuid = *self
            .sessions
            .lock()
            .get(&session)
            .ok_or(TeeError::ItemNotFound {
                what: session.to_string(),
            })?;
        let cost = self.platform.cost().clone();
        if let Some(entry) = self.tas.read().get(&uuid).cloned() {
            self.platform.charge_cpu(World::Secure, cost.ta_dispatch);
            let mut env = TaEnv::new(self, uuid, session);
            return entry.instance.lock().invoke(&mut env, cmd, params);
        }
        if self.ptas.read().get(&uuid).is_some() {
            return self.invoke_pta_from(caller, uuid, cmd, params);
        }
        Err(TeeError::TargetDead)
    }

    /// Invokes a batch of commands on an open session from the secure side,
    /// dispatching them in order. Each call still pays its dispatch cost,
    /// but — when entered through [`crate::client::TeeClient`] — the whole
    /// batch shares a single SMC and world-switch round trip, which is the
    /// point: world switches per command drop by the batch factor.
    ///
    /// This is the *generic* transition-amortization surface: any client
    /// can batch arbitrary commands to any TA. TAs may additionally expose
    /// their own batch commands (the filter TA's `PROCESS_BATCH`) when
    /// they can amortize work *behind* the boundary too — e.g. coalescing
    /// supplicant round trips — which a generic command batch cannot.
    ///
    /// The batch is not transactional: dispatch stops at the first failing
    /// call and its error is returned.
    ///
    /// # Errors
    ///
    /// Returns [`TeeError::ItemNotFound`] for unknown sessions, or the
    /// first failing call's error.
    pub fn invoke_command_batched(
        &self,
        session: SessionId,
        calls: Vec<(u32, TeeParams)>,
    ) -> TeeResult<Vec<TeeParams>> {
        self.invoke_command_batched_from(World::Secure, session, calls)
    }

    /// [`TeeCore::invoke_command_batched`] on behalf of `caller`.
    fn invoke_command_batched_from(
        &self,
        caller: World,
        session: SessionId,
        calls: Vec<(u32, TeeParams)>,
    ) -> TeeResult<Vec<TeeParams>> {
        // Borrow the installed tracer under its lock just long enough to
        // open the span; the guard must not be held across the command
        // loop (TAs re-enter the tracer through `TaEnv::tracer`).
        let _span = {
            let tracer = self.tracer.lock();
            tracer.count("tee.batched_commands", calls.len() as u64);
            tracer.span("tee.invoke_batch")
        };
        let mut results = Vec::with_capacity(calls.len());
        for (cmd, mut params) in calls {
            self.invoke_command_from(caller, session, cmd, &mut params)?;
            results.push(params);
        }
        Ok(results)
    }

    /// Closes a session.
    ///
    /// # Errors
    ///
    /// Returns [`TeeError::ItemNotFound`] for unknown sessions.
    pub fn close_session(&self, session: SessionId) -> TeeResult<()> {
        let uuid = self
            .sessions
            .lock()
            .remove(&session)
            .ok_or(TeeError::ItemNotFound {
                what: session.to_string(),
            })?;
        if let Some(entry) = self.tas.read().get(&uuid).cloned() {
            let mut env = TaEnv::new(self, uuid, session);
            entry.instance.lock().close_session(&mut env);
        }
        Ok(())
    }

    /// Invokes a command on a pseudo TA directly (used by TAs through
    /// [`TaEnv::invoke_pta`] and by the secure world itself); the PTA sees
    /// a [`World::Secure`] caller.
    ///
    /// # Errors
    ///
    /// Returns [`TeeError::ItemNotFound`] for unknown PTAs or the PTA's own
    /// error.
    pub fn invoke_pta(&self, uuid: TaUuid, cmd: u32, params: &mut TeeParams) -> TeeResult<()> {
        self.invoke_pta_from(World::Secure, uuid, cmd, params)
    }

    fn invoke_pta_from(
        &self,
        caller: World,
        uuid: TaUuid,
        cmd: u32,
        params: &mut TeeParams,
    ) -> TeeResult<()> {
        let entry = self
            .ptas
            .read()
            .get(&uuid)
            .cloned()
            .ok_or(TeeError::ItemNotFound {
                what: format!("pseudo ta {uuid}"),
            })?;
        self.platform
            .charge_cpu(World::Secure, self.platform.cost().pta_dispatch);
        let mut env = PtaEnv::new(&self.platform, caller);
        let result = entry.instance.lock().invoke(&mut env, cmd, params);
        result
    }

    /// Issues a supplicant RPC on behalf of the secure world, charging the
    /// world switches, the RPC cost and the cross-world copies.
    ///
    /// # Errors
    ///
    /// Propagates the supplicant's error.
    pub fn supplicant_rpc(&self, request: RpcRequest) -> TeeResult<RpcReply> {
        let _span = self.tracer.lock().span("tee.rpc");
        let monitor = self.platform.monitor().clone();
        let out_bytes = request.payload_bytes();
        monitor.charge_cross_world_copy(out_bytes, World::Normal);
        let from = monitor.world_switch(World::Normal);
        self.platform
            .charge_cpu(World::Normal, self.platform.cost().supplicant_rpc);
        self.platform.stats().record_supplicant_rpc();
        let reply = self.supplicant.handle(request);
        // Return to whatever world we were in before the RPC (normally the
        // secure world, since RPCs originate from TAs).
        monitor.world_switch(from);
        let reply = reply?;
        monitor.charge_cross_world_copy(reply.payload_bytes(), World::Secure);
        Ok(reply)
    }

    // ----- normal-world message path --------------------------------------

    /// Submits a client message and runs it through the SMC path, returning
    /// the reply. Called by [`crate::client::TeeClient`].
    pub(crate) fn client_call(&self, message: ClientMessage) -> TeeResult<ClientReply> {
        // The span covers the whole SMC round trip: world entry, secure
        // dispatch (including any nested TA / RPC spans) and world exit.
        let _span = self.tracer.lock().span("smc.call");
        let _guard = self.call_lock.lock();
        *self.mailbox.lock() = Some(message);
        let monitor = self.platform.monitor().clone();
        monitor
            .smc(SmcCall::new(smc_func::STD_CALL_WITH_ARG))
            .map_err(|e| TeeError::Communication {
                reason: format!("smc failed: {e}"),
            })?;
        self.replybox.lock().take().ok_or(TeeError::Communication {
            reason: "tee core produced no reply".to_owned(),
        })
    }

    fn process_mailbox(&self) {
        let message = self.mailbox.lock().take();
        let reply = match message {
            None => ClientReply::Failed(TeeError::Communication {
                reason: "empty mailbox".to_owned(),
            }),
            Some(ClientMessage::OpenSession { uuid, mut params }) => {
                match self.open_session(uuid, &mut params) {
                    Ok(session) => ClientReply::SessionOpened { session, params },
                    Err(e) => ClientReply::Failed(e),
                }
            }
            Some(ClientMessage::Invoke {
                session,
                cmd,
                mut params,
            }) => match self.invoke_command_from(World::Normal, session, cmd, &mut params) {
                Ok(()) => ClientReply::Invoked { params },
                Err(e) => ClientReply::Failed(e),
            },
            Some(ClientMessage::InvokeBatch { session, calls }) => {
                match self.invoke_command_batched_from(World::Normal, session, calls) {
                    Ok(results) => ClientReply::InvokedBatch { results },
                    Err(e) => ClientReply::Failed(e),
                }
            }
            Some(ClientMessage::CloseSession { session }) => match self.close_session(session) {
                Ok(()) => ClientReply::Closed,
                Err(e) => ClientReply::Failed(e),
            },
        };
        *self.replybox.lock() = Some(reply);
    }
}

struct TeeSmcHandler {
    core: Weak<TeeCore>,
}

impl SmcHandler for TeeSmcHandler {
    fn handle(&self, _call: &SmcCall) -> SmcResult {
        match self.core.upgrade() {
            Some(core) => {
                core.process_mailbox();
                SmcResult::value(0)
            }
            None => SmcResult::value(SMC_RETURN_ENOTAVAIL),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::param::TeeParam;

    struct EchoTa {
        descriptor: TaDescriptor,
        invocations: u32,
    }

    impl EchoTa {
        fn new() -> Self {
            EchoTa {
                descriptor: TaDescriptor::new("perisec.echo-ta", 16, 64),
                invocations: 0,
            }
        }
    }

    impl TrustedApp for EchoTa {
        fn descriptor(&self) -> TaDescriptor {
            self.descriptor.clone()
        }
        fn invoke(
            &mut self,
            env: &mut TaEnv<'_>,
            cmd: u32,
            params: &mut TeeParams,
        ) -> TeeResult<()> {
            self.invocations += 1;
            env.charge_compute(1_000);
            match cmd {
                1 => {
                    // Reverse the input buffer into the output slot.
                    let input = params.get(0).as_memref().unwrap_or(&[]).to_vec();
                    let reversed: Vec<u8> = input.iter().rev().copied().collect();
                    params.set(1, TeeParam::MemRefOutput(reversed));
                    Ok(())
                }
                2 => Err(TeeError::BadParameters {
                    reason: "command 2 always fails".to_owned(),
                }),
                _ => Err(TeeError::ItemNotFound {
                    what: format!("command {cmd}"),
                }),
            }
        }
    }

    struct CounterPta {
        descriptor: TaDescriptor,
        count: u64,
    }

    impl CounterPta {
        fn new() -> Self {
            CounterPta {
                descriptor: TaDescriptor::new("perisec.counter-pta", 8, 8),
                count: 0,
            }
        }
    }

    impl PseudoTa for CounterPta {
        fn descriptor(&self) -> TaDescriptor {
            self.descriptor.clone()
        }
        fn invoke(
            &mut self,
            _env: &mut PtaEnv<'_>,
            _cmd: u32,
            params: &mut TeeParams,
        ) -> TeeResult<()> {
            self.count += 1;
            params.set(
                0,
                TeeParam::ValueOutput {
                    a: self.count,
                    b: 0,
                },
            );
            Ok(())
        }
    }

    fn booted_core() -> Arc<TeeCore> {
        TeeCore::boot(Platform::jetson_agx_xavier(), Arc::new(Supplicant::new()))
    }

    #[test]
    fn register_and_invoke_a_ta_through_sessions() {
        let core = booted_core();
        let uuid = core.register_ta(Box::new(EchoTa::new())).unwrap();
        assert_eq!(core.ta_count(), 1);

        let mut params = TeeParams::new();
        let session = core.open_session(uuid, &mut params).unwrap();
        assert_eq!(core.session_count(), 1);

        let mut params = TeeParams::new().with(0, TeeParam::MemRefInput(vec![1, 2, 3]));
        core.invoke_command(session, 1, &mut params).unwrap();
        assert_eq!(params.get(1).as_memref().unwrap(), &[3, 2, 1]);

        assert!(core
            .invoke_command(session, 2, &mut TeeParams::new())
            .is_err());
        core.close_session(session).unwrap();
        assert_eq!(core.session_count(), 0);
        assert!(core
            .invoke_command(session, 1, &mut TeeParams::new())
            .is_err());
    }

    #[test]
    fn duplicate_registration_and_unknown_uuid_are_rejected() {
        let core = booted_core();
        core.register_ta(Box::new(EchoTa::new())).unwrap();
        assert!(core.register_ta(Box::new(EchoTa::new())).is_err());
        let unknown = TaUuid::from_name("perisec.unknown");
        assert!(matches!(
            core.open_session(unknown, &mut TeeParams::new()),
            Err(TeeError::ItemNotFound { .. })
        ));
    }

    #[test]
    fn ta_registration_reserves_secure_memory() {
        let core = booted_core();
        let before = core.platform().secure_ram().bytes_in_use();
        core.register_ta(Box::new(EchoTa::new())).unwrap();
        let after = core.platform().secure_ram().bytes_in_use();
        assert_eq!(after - before, (16 + 64) * 1024);
        // A TA that does not fit is rejected with OutOfMemory.
        struct HugeTa;
        impl TrustedApp for HugeTa {
            fn descriptor(&self) -> TaDescriptor {
                TaDescriptor::new("perisec.huge-ta", 1024, 64 * 1024)
            }
            fn invoke(&mut self, _: &mut TaEnv<'_>, _: u32, _: &mut TeeParams) -> TeeResult<()> {
                Ok(())
            }
        }
        assert!(matches!(
            core.register_ta(Box::new(HugeTa)),
            Err(TeeError::OutOfMemory { .. })
        ));
    }

    #[test]
    fn shared_model_registration_charges_weights_once() {
        struct ModelTa(&'static str);
        impl TrustedApp for ModelTa {
            fn descriptor(&self) -> TaDescriptor {
                // 16 KiB stack + 64 KiB private data + 256 KiB of model.
                TaDescriptor::new(self.0, 16, 64 + 256)
            }
            fn invoke(&mut self, _: &mut TaEnv<'_>, _: u32, _: &mut TeeParams) -> TeeResult<()> {
                Ok(())
            }
        }
        const MODEL_BYTES: usize = 256 * 1024;
        const MODEL_KEY: u64 = 0x5EED;
        let core = booted_core();
        let ram = core.platform().secure_ram().clone();
        let before = ram.bytes_in_use();
        let a = core
            .register_ta_shared(Box::new(ModelTa("perisec.model-a")), MODEL_KEY, MODEL_BYTES)
            .unwrap();
        let after_first = ram.bytes_in_use();
        assert!(after_first - before >= (16 + 64 + 256) * 1024);
        // A second TA with the same weights: only its private part is new.
        let b = core
            .register_ta_shared(Box::new(ModelTa("perisec.model-b")), MODEL_KEY, MODEL_BYTES)
            .unwrap();
        let after_second = ram.bytes_in_use();
        assert_eq!(after_second - after_first, (16 + 64) * 1024);
        assert!(ram.dedup_saved_bytes() >= MODEL_BYTES as u64);
        assert_eq!(ram.dedup_hits(), 1);
        // Unregistering one TA keeps the shared weights; the last frees.
        core.unregister_ta(a).unwrap();
        assert!(ram.bytes_in_use() >= (16 + 64 + 256) * 1024);
        core.unregister_ta(b).unwrap();
        assert_eq!(ram.bytes_in_use(), before);
        // A model larger than the declared footprint is rejected loudly.
        assert!(matches!(
            core.register_ta_shared(
                Box::new(ModelTa("perisec.model-c")),
                MODEL_KEY,
                (16 + 64 + 256) * 1024 + 1
            ),
            Err(TeeError::BadParameters { .. })
        ));
    }

    #[test]
    fn unregister_fails_while_sessions_open_then_succeeds() {
        let core = booted_core();
        let uuid = core.register_ta(Box::new(EchoTa::new())).unwrap();
        let session = core.open_session(uuid, &mut TeeParams::new()).unwrap();
        assert!(core.unregister_ta(uuid).is_err());
        core.close_session(session).unwrap();
        core.unregister_ta(uuid).unwrap();
        assert_eq!(core.ta_count(), 0);
        assert!(core.unregister_ta(uuid).is_err());
    }

    #[test]
    fn pta_invocation_from_secure_world_has_no_world_switch() {
        let core = booted_core();
        let uuid = core.register_pta(Box::new(CounterPta::new())).unwrap();
        let switches_before = core.platform().stats().world_switches();
        let mut params = TeeParams::new();
        core.invoke_pta(uuid, 0, &mut params).unwrap();
        core.invoke_pta(uuid, 0, &mut params).unwrap();
        assert_eq!(params.get(0).as_values().unwrap().0, 2);
        assert_eq!(core.platform().stats().world_switches(), switches_before);
    }

    #[test]
    fn sessions_can_target_ptas() {
        let core = booted_core();
        let uuid = core.register_pta(Box::new(CounterPta::new())).unwrap();
        let session = core.open_session(uuid, &mut TeeParams::new()).unwrap();
        let mut params = TeeParams::new();
        core.invoke_command(session, 0, &mut params).unwrap();
        assert_eq!(params.get(0).as_values().unwrap().0, 1);
        core.close_session(session).unwrap();
    }

    #[test]
    fn supplicant_rpc_charges_switches_and_counts() {
        let core = booted_core();
        let stats_before = core.platform().stats().snapshot();
        core.supplicant_rpc(RpcRequest::FsWrite {
            path: "obj".into(),
            data: vec![0u8; 256],
        })
        .unwrap();
        let stats_after = core.platform().stats().snapshot();
        let delta = stats_after.delta_since(&stats_before);
        assert_eq!(delta.supplicant_rpcs, 1);
        assert!(delta.bytes_to_normal >= 256);
        // The RPC switched out of and back into the current world.
        assert_eq!(core.platform().monitor().current_world(), World::Normal);
    }

    #[test]
    fn a_dropped_core_frees_its_stack_and_refuses_raw_smcs() {
        let platform = Platform::jetson_agx_xavier();
        let ram = platform.secure_ram().clone();
        let core = TeeCore::boot(platform.clone(), Arc::new(Supplicant::new()));
        core.register_ta(Box::new(EchoTa::new())).unwrap();
        core.register_pta(Box::new(CounterPta::new())).unwrap();
        assert!(ram.bytes_in_use() > 0);
        let weak = Arc::downgrade(&core);
        drop(core);
        assert!(weak.upgrade().is_none(), "the monitor kept the core alive");
        assert_eq!(ram.bytes_in_use(), 0);
        // The handler outlives the core in the monitor; an SMC that still
        // reaches it gets an error result, not a panic.
        let result = platform
            .monitor()
            .smc(SmcCall::new(smc_func::STD_CALL_WITH_ARG))
            .unwrap();
        assert_eq!(result.regs[0], SMC_RETURN_ENOTAVAIL);
        assert_eq!(platform.monitor().current_world(), World::Normal);
    }

    #[test]
    fn descriptors_lists_tas_and_ptas() {
        let core = booted_core();
        core.register_ta(Box::new(EchoTa::new())).unwrap();
        core.register_pta(Box::new(CounterPta::new())).unwrap();
        let names: Vec<String> = core.descriptors().iter().map(|d| d.name.clone()).collect();
        assert_eq!(names, vec!["perisec.counter-pta", "perisec.echo-ta"]);
    }
}
