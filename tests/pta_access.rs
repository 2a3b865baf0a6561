//! The normal world cannot read raw sensor data through the PTAs.
//!
//! The I2S and camera PTAs sit in the secure world next to the TAs that
//! filter their data. A normal-world client on a device's TEE core can
//! still open a session on either PTA, so each PTA must look at who
//! called: a normal-world caller gets `STATS` and nothing else. These
//! tests drive a running device's PTAs through `TeeClient::invoke` and
//! `TeeClient::invoke_batched` and check that:
//!
//! * the capture command is refused with `AccessDenied` and no memref
//!   comes back;
//! * the driver's statistics do not move, and `STATS` still answers;
//! * the device's next scenario report is byte-identical to a twin
//!   device's that sent `STATS` where the attacker sent the capture (a
//!   refused call costs what a `STATS` call costs: one SMC, one PTA
//!   dispatch and the same cross-world copies).

use std::sync::{Arc, OnceLock};

use perisec::core::pipeline::{
    CameraPipelineConfig, PipelineConfig, SecureCameraPipeline, SecurePipeline, SharedModels,
};
use perisec::ml::classifier::Architecture;
use perisec::optee::{TaUuid, TeeClient, TeeCore, TeeError, TeeParam, TeeParams};
use perisec::secure_driver::{camera_pta, pta, CAMERA_PTA_NAME, I2S_PTA_NAME};
use perisec::tz::time::SimDuration;
use perisec::workload::scenario::{CameraScenario, Scenario};

const SEED: u64 = 0x00AC_CE55;

/// `STATS` has the same id on both PTAs.
const STATS: u32 = pta::cmd::STATS;
const _: () = assert!(STATS == camera_pta::cmd::STATS);

fn models() -> &'static SharedModels {
    static MODELS: OnceLock<SharedModels> = OnceLock::new();
    MODELS.get_or_init(|| {
        let camera = CameraPipelineConfig::default();
        let models = SharedModels::deferred(Architecture::Cnn, 30, SEED)
            .with_vision_spec(camera.train_frames, camera.corpus_seed);
        models.audio().expect("speech models train");
        models.vision_int8().expect("frame classifier trains");
        models
    })
}

/// How a normal-world client reaches the PTA.
#[derive(Debug, Clone, Copy)]
enum Path {
    Invoke,
    Batched,
}

/// Sends one command through `path` and returns the reply's parameters.
fn call(
    client: &TeeClient,
    session: &perisec::optee::TeeSessionHandle,
    path: Path,
    cmd: u32,
    params: TeeParams,
) -> Result<TeeParams, TeeError> {
    match path {
        Path::Invoke => client.invoke(session, cmd, params),
        Path::Batched => client
            .invoke_batched(session, vec![(cmd, params)])
            .map(|mut results| results.remove(0)),
    }
}

/// `STATS` as the normal world sees it.
fn stats(
    client: &TeeClient,
    session: &perisec::optee::TeeSessionHandle,
    path: Path,
) -> [(u64, u64); 2] {
    let reply = call(client, session, path, STATS, TeeParams::new()).expect("STATS answers");
    [
        reply.get(0).as_values().unwrap(),
        reply.get(1).as_values().unwrap(),
    ]
}

/// Attacks `attacked`'s PTA with `capture`, checks the refusal, and has
/// `twin` send `STATS` in its place with the same parameters.
fn refuse_capture(
    attacked: &Arc<TeeCore>,
    twin: &Arc<TeeCore>,
    pta_name: &str,
    capture: u32,
    request: &dyn Fn() -> TeeParams,
    path: Path,
) {
    let uuid = TaUuid::from_name(pta_name);
    let client = TeeClient::connect(Arc::clone(attacked));
    let (session, _) = client
        .open_session(uuid, TeeParams::new())
        .expect("the normal world may open a session on the PTA");
    let before = stats(&client, &session, path);

    let reply = call(&client, &session, path, capture, request());
    let leaked = reply
        .as_ref()
        .ok()
        .and_then(|params| params.get(1).as_memref().map(<[u8]>::len));
    assert_eq!(
        leaked, None,
        "{pta_name} via {path:?}: the normal world received raw sensor bytes"
    );
    assert!(
        matches!(reply, Err(TeeError::AccessDenied { .. })),
        "{pta_name} via {path:?}: expected AccessDenied, got {reply:?}"
    );
    assert_eq!(
        stats(&client, &session, path),
        before,
        "{pta_name} via {path:?}: a refused capture moved the driver's statistics"
    );

    let twin_client = TeeClient::connect(Arc::clone(twin));
    let (twin_session, _) = twin_client.open_session(uuid, TeeParams::new()).unwrap();
    stats(&twin_client, &twin_session, path);
    call(&twin_client, &twin_session, path, STATS, request()).expect("STATS answers");
    stats(&twin_client, &twin_session, path);
}

#[test]
fn normal_world_cannot_capture_audio() {
    let config = PipelineConfig {
        batch_windows: 2,
        ..PipelineConfig::default()
    };
    let scenario = Scenario::mixed(4, 0.5, SimDuration::from_millis(500), SEED);
    for path in [Path::Invoke, Path::Batched] {
        let mut attacked = SecurePipeline::with_models(config.clone(), models()).unwrap();
        let mut twin = SecurePipeline::with_models(config.clone(), models()).unwrap();
        refuse_capture(
            attacked.tee_core(),
            twin.tee_core(),
            I2S_PTA_NAME,
            pta::cmd::CAPTURE_BATCH,
            &|| TeeParams::new().with(0, TeeParam::MemRefInput(pta::encode_windows_request(&[5]))),
            path,
        );
        let attacked = attacked.run_scenario(&scenario).unwrap();
        let twin = twin.run_scenario(&scenario).unwrap();
        assert_eq!(attacked.to_json(), twin.to_json(), "via {path:?}");
    }
}

#[test]
fn normal_world_cannot_capture_frames() {
    let config = CameraPipelineConfig {
        batch_windows: 2,
        ..CameraPipelineConfig::default()
    };
    let scenario = CameraScenario::mixed_scenes(4, 0.5, SimDuration::from_millis(100), SEED);
    for path in [Path::Invoke, Path::Batched] {
        let mut attacked = SecureCameraPipeline::with_models(config.clone(), models()).unwrap();
        let mut twin = SecureCameraPipeline::with_models(config.clone(), models()).unwrap();
        refuse_capture(
            attacked.tee_core(),
            twin.tee_core(),
            CAMERA_PTA_NAME,
            camera_pta::cmd::CAPTURE_FRAME_BATCH,
            &|| TeeParams::new().with(0, TeeParam::MemRefInput(pta::encode_windows_request(&[2]))),
            path,
        );
        let attacked = attacked.run_scenario(&scenario).unwrap();
        let twin = twin.run_scenario(&scenario).unwrap();
        assert_eq!(attacked.to_json(), twin.to_json(), "via {path:?}");
    }
}
