//! TA secure storage.
//!
//! OP-TEE's REE-FS secure storage keeps trusted-application objects in the
//! normal-world filesystem, encrypted and authenticated with keys derived
//! from a device-unique secret, so the untrusted OS can store but not read
//! or forge them. The simulator reproduces that design: objects are sealed
//! with ChaCha20-Poly1305 under a per-TA key derived via HKDF from a
//! device key, and persisted through the supplicant's filesystem RPC.
//!
//! The paper's filter TA uses this to persist its model parameters and the
//! privacy policy across reboots without trusting the OS.
//!
//! The device key is derived on first use, by the first `write` or `read`,
//! not when the TEE core boots: most cores never touch storage, and the
//! derivation charges no virtual time, so deferring it changes nothing a
//! core reports.

use crate::crypto::{
    aead_open, aead_seal_into, hkdf, nonce_from_sequence, sha256, AEAD_KEY_LEN, AEAD_TAG_LEN,
};
use crate::supplicant::{RpcReply, RpcRequest};
use crate::tee::TeeCore;
use crate::uuid::TaUuid;
use crate::{TeeError, TeeResult};

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// The secure-storage service owned by the TEE core.
#[derive(Debug)]
pub struct SecureStorage {
    /// The platform identity the device key is derived from.
    platform_name: String,
    device_key: OnceLock<[u8; AEAD_KEY_LEN]>,
    nonce_counter: AtomicU64,
}

impl SecureStorage {
    /// The storage service for a platform (the device key is derived from
    /// the platform identity, standing in for a fused hardware-unique key,
    /// on first use).
    pub fn for_platform(platform: &perisec_tz::platform::Platform) -> Self {
        SecureStorage {
            platform_name: platform.spec().name.clone(),
            device_key: OnceLock::new(),
            nonce_counter: AtomicU64::new(1),
        }
    }

    fn device_key(&self) -> &[u8; AEAD_KEY_LEN] {
        self.device_key.get_or_init(|| {
            let material = sha256(self.platform_name.as_bytes());
            let mut device_key = [0u8; AEAD_KEY_LEN];
            device_key.copy_from_slice(&hkdf(
                b"perisec-huk",
                &material,
                b"ree-fs-storage",
                AEAD_KEY_LEN,
            ));
            device_key
        })
    }

    fn ta_key(&self, ta: TaUuid) -> [u8; AEAD_KEY_LEN] {
        let mut key = [0u8; AEAD_KEY_LEN];
        key.copy_from_slice(&hkdf(
            self.device_key(),
            ta.as_bytes(),
            b"ta-storage-key",
            AEAD_KEY_LEN,
        ));
        key
    }

    fn object_path(ta: TaUuid, name: &str) -> String {
        format!("tee/{ta}/{name}")
    }

    /// Writes (creates or replaces) an object for `ta`.
    ///
    /// # Errors
    ///
    /// Propagates supplicant filesystem failures.
    pub fn write(&self, core: &TeeCore, ta: TaUuid, name: &str, data: &[u8]) -> TeeResult<()> {
        let key = self.ta_key(ta);
        let sequence = self.nonce_counter.fetch_add(1, Ordering::SeqCst);
        let nonce = nonce_from_sequence(sequence);
        let aad = Self::object_path(ta, name);
        let mut blob = Vec::with_capacity(8 + data.len() + AEAD_TAG_LEN);
        blob.extend_from_slice(&sequence.to_be_bytes());
        aead_seal_into(&key, &nonce, aad.as_bytes(), data, &mut blob);
        match core.supplicant_rpc(RpcRequest::FsWrite {
            path: aad,
            data: blob,
        })? {
            RpcReply::Ok => Ok(()),
            other => Err(TeeError::Communication {
                reason: format!("unexpected reply {other:?} to storage write"),
            }),
        }
    }

    /// Reads an object back, verifying its authenticity.
    ///
    /// # Errors
    ///
    /// * [`TeeError::ItemNotFound`] if the object does not exist.
    /// * [`TeeError::SecurityViolation`] if the blob was tampered with.
    pub fn read(&self, core: &TeeCore, ta: TaUuid, name: &str) -> TeeResult<Vec<u8>> {
        let path = Self::object_path(ta, name);
        let blob = match core.supplicant_rpc(RpcRequest::FsRead { path: path.clone() })? {
            RpcReply::Data(d) => d,
            other => {
                return Err(TeeError::Communication {
                    reason: format!("unexpected reply {other:?} to storage read"),
                })
            }
        };
        if blob.len() < 8 {
            return Err(TeeError::SecurityViolation {
                reason: "storage blob truncated".to_owned(),
            });
        }
        let sequence = u64::from_be_bytes(blob[..8].try_into().expect("8 bytes"));
        let nonce = nonce_from_sequence(sequence);
        let key = self.ta_key(ta);
        aead_open(&key, &nonce, path.as_bytes(), &blob[8..]).map_err(|_| {
            TeeError::SecurityViolation {
                reason: format!("authentication of storage object '{name}' failed"),
            }
        })
    }

    /// Deletes an object.
    ///
    /// # Errors
    ///
    /// Returns [`TeeError::ItemNotFound`] if the object does not exist.
    pub fn delete(&self, core: &TeeCore, ta: TaUuid, name: &str) -> TeeResult<()> {
        core.supplicant_rpc(RpcRequest::FsRemove {
            path: Self::object_path(ta, name),
        })
        .map(|_| ())
    }

    /// Lists the object names stored for `ta`.
    ///
    /// # Errors
    ///
    /// Propagates supplicant failures.
    pub fn list(&self, core: &TeeCore, ta: TaUuid) -> TeeResult<Vec<String>> {
        let prefix = format!("tee/{ta}/");
        match core.supplicant_rpc(RpcRequest::FsList {
            prefix: prefix.clone(),
        })? {
            RpcReply::Names(names) => Ok(names
                .into_iter()
                .map(|n| n.trim_start_matches(&prefix).to_owned())
                .collect()),
            other => Err(TeeError::Communication {
                reason: format!("unexpected reply {other:?} to storage list"),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::supplicant::Supplicant;
    use perisec_tz::platform::Platform;
    use std::sync::Arc;

    fn core() -> Arc<TeeCore> {
        TeeCore::boot(Platform::jetson_agx_xavier(), Arc::new(Supplicant::new()))
    }

    #[test]
    fn write_read_round_trip_per_ta() {
        let core = core();
        let ta = TaUuid::from_name("perisec.filter-ta");
        core.storage()
            .write(&core, ta, "policy", b"block:health,finance")
            .unwrap();
        let data = core.storage().read(&core, ta, "policy").unwrap();
        assert_eq!(data, b"block:health,finance");
        let names = core.storage().list(&core, ta).unwrap();
        assert_eq!(names, vec!["policy"]);
    }

    #[test]
    fn device_key_is_derived_on_first_use_from_the_platform_name() {
        let core = core();
        assert!(core.storage().device_key.get().is_none());
        let ta = TaUuid::from_name("perisec.filter-ta");
        core.storage().write(&core, ta, "policy", b"x").unwrap();
        let material = sha256(core.platform().spec().name.as_bytes());
        let expected = hkdf(b"perisec-huk", &material, b"ree-fs-storage", AEAD_KEY_LEN);
        assert_eq!(
            core.storage().device_key.get().map(|k| k.to_vec()),
            Some(expected)
        );
    }

    #[test]
    fn objects_are_encrypted_at_rest() {
        let core = core();
        let ta = TaUuid::from_name("perisec.filter-ta");
        let secret = b"the wake word is heliotrope";
        core.storage().write(&core, ta, "secret", secret).unwrap();
        // Inspect what actually landed in the normal-world filesystem.
        let path = format!("tee/{ta}/secret");
        let raw = match core
            .supplicant()
            .handle(RpcRequest::FsRead { path })
            .unwrap()
        {
            RpcReply::Data(d) => d,
            _ => panic!("expected data"),
        };
        // The plaintext must not appear in the stored blob.
        assert!(!raw.windows(secret.len()).any(|w| w == secret.as_slice()));
    }

    #[test]
    fn tampering_is_detected() {
        let core = core();
        let ta = TaUuid::from_name("perisec.filter-ta");
        core.storage()
            .write(&core, ta, "model", &[7u8; 128])
            .unwrap();
        // Corrupt the stored blob through the normal world.
        let path = format!("tee/{ta}/model");
        let mut raw = match core
            .supplicant()
            .handle(RpcRequest::FsRead { path: path.clone() })
            .unwrap()
        {
            RpcReply::Data(d) => d,
            _ => panic!("expected data"),
        };
        let last = raw.len() - 1;
        raw[last] ^= 0xff;
        core.supplicant()
            .handle(RpcRequest::FsWrite { path, data: raw })
            .unwrap();
        assert!(matches!(
            core.storage().read(&core, ta, "model"),
            Err(TeeError::SecurityViolation { .. })
        ));
    }

    #[test]
    fn objects_are_isolated_between_tas() {
        let core = core();
        let ta_a = TaUuid::from_name("perisec.ta-a");
        let ta_b = TaUuid::from_name("perisec.ta-b");
        core.storage()
            .write(&core, ta_a, "obj", b"belongs to a")
            .unwrap();
        assert!(matches!(
            core.storage().read(&core, ta_b, "obj"),
            Err(TeeError::ItemNotFound { .. })
        ));
        assert!(core.storage().list(&core, ta_b).unwrap().is_empty());
    }

    #[test]
    fn delete_removes_objects() {
        let core = core();
        let ta = TaUuid::from_name("perisec.filter-ta");
        core.storage().write(&core, ta, "tmp", b"x").unwrap();
        core.storage().delete(&core, ta, "tmp").unwrap();
        assert!(core.storage().read(&core, ta, "tmp").is_err());
        assert!(core.storage().delete(&core, ta, "tmp").is_err());
    }
}
