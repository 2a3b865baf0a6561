//! The TLS-like secure channel.
//!
//! A TLS-1.3-flavoured pre-shared-key channel: an explicit two-message
//! handshake derives directional traffic keys with HKDF, then application
//! data flows in ChaCha20-Poly1305-protected records with explicit
//! sequence numbers. This reproduces the structure (and the compute cost
//! profile) of the relay's TLS endpoint without an X.509/ECDH stack; the
//! device is provisioned with the cloud PSK the way real AVS devices are
//! provisioned with client credentials.
//!
//! Handshake messages are unencrypted `u32 length || CLIENT_HELLO ||
//! 32-byte random` and `u32 length || SERVER_HELLO || 32-byte random`.
//!
//! Application records are DTLS-style *explicit-sequence* records: `u32
//! length || EXPLICIT_RECORD || u64 sequence || ciphertext+tag`, sealed
//! with [`SecureChannelClient::seal_at`] / [`SecureChannelServer::seal_at`]
//! and opened with the `open_explicit` of the other half. Paths drop,
//! duplicate and reorder records, so the nonce is bound to the carried
//! sequence rather than to arrival order, and sealing at a sequence is
//! non-mutating, so a retransmission reproduces the exact record bytes.

use perisec_optee::crypto::{
    aead_open, aead_seal_into, hkdf, nonce_from_sequence, AEAD_KEY_LEN, AEAD_TAG_LEN,
};

use crate::{RelayError, Result};

/// Length of the pre-shared key.
pub const PSK_LEN: usize = 32;

/// First payload byte of a ClientHello (exposed so the cloud can spot a
/// retransmitted hello on an already-established connection).
pub const CLIENT_HELLO: u8 = 0x01;
const SERVER_HELLO: u8 = 0x02;
/// First payload byte of an explicit-sequence application record.
pub const EXPLICIT_RECORD: u8 = 0x17;
const RANDOM_LEN: usize = 32;
/// The associated data every application record is sealed under.
const RECORD_AAD: &[u8] = b"perisec-record";
/// An explicit record's type byte and carried sequence.
const EXPLICIT_HEADER_LEN: usize = 1 + 8;

/// The first payload byte of a framed message, without consuming it —
/// how a receiver dispatches between handshake and explicit-sequence
/// records.
pub fn peek_record_type(data: &[u8]) -> Option<u8> {
    if data.len() < 5 {
        return None;
    }
    Some(data[4])
}

fn derive_keys(
    psk: &[u8; PSK_LEN],
    client_random: &[u8],
    server_random: &[u8],
) -> ([u8; 32], [u8; 32]) {
    let mut salt = Vec::with_capacity(RANDOM_LEN * 2);
    salt.extend_from_slice(client_random);
    salt.extend_from_slice(server_random);
    let material = hkdf(&salt, psk, b"perisec-relay-channel", AEAD_KEY_LEN * 2);
    let mut c2s = [0u8; 32];
    let mut s2c = [0u8; 32];
    c2s.copy_from_slice(&material[..32]);
    s2c.copy_from_slice(&material[32..]);
    (c2s, s2c)
}

fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    out.extend_from_slice(payload);
    out
}

fn seal_explicit(key: &[u8; 32], seq: u64, plaintext: &[u8]) -> Vec<u8> {
    let payload_len = EXPLICIT_HEADER_LEN + plaintext.len() + AEAD_TAG_LEN;
    let mut record = Vec::with_capacity(4 + payload_len);
    record.extend_from_slice(&(payload_len as u32).to_be_bytes());
    record.push(EXPLICIT_RECORD);
    record.extend_from_slice(&seq.to_be_bytes());
    aead_seal_into(
        key,
        &nonce_from_sequence(seq),
        RECORD_AAD,
        plaintext,
        &mut record,
    );
    record
}

fn open_explicit_with(key: &[u8; 32], record: &[u8]) -> Result<(u64, Vec<u8>)> {
    let payload = unframe(record)?;
    if payload.len() < EXPLICIT_HEADER_LEN + AEAD_TAG_LEN || payload[0] != EXPLICIT_RECORD {
        return Err(RelayError::ChannelError {
            reason: "not an explicit-sequence record".to_owned(),
        });
    }
    let seq = u64::from_be_bytes(payload[1..9].try_into().expect("8 bytes"));
    let nonce = nonce_from_sequence(seq);
    let plaintext =
        aead_open(key, &nonce, RECORD_AAD, &payload[EXPLICIT_HEADER_LEN..]).map_err(|_| {
            RelayError::ChannelError {
                reason: "explicit record authentication failed".to_owned(),
            }
        })?;
    Ok((seq, plaintext))
}

/// The payload of a framed message.
fn unframe(data: &[u8]) -> Result<&[u8]> {
    if data.len() < 4 {
        return Err(RelayError::ChannelError {
            reason: "record too short for its header".to_owned(),
        });
    }
    let len = u32::from_be_bytes(data[..4].try_into().expect("4 bytes")) as usize;
    if data.len() < 4 + len {
        return Err(RelayError::ChannelError {
            reason: format!(
                "record truncated: header says {len}, got {}",
                data.len() - 4
            ),
        });
    }
    Ok(&data[4..4 + len])
}

/// Client side of the secure channel (runs in the TA, or in the baseline's
/// normal-world app).
#[derive(Debug, Clone)]
pub struct SecureChannelClient {
    psk: [u8; PSK_LEN],
    client_random: [u8; RANDOM_LEN],
    send_key: Option<[u8; 32]>,
    recv_key: Option<[u8; 32]>,
}

impl SecureChannelClient {
    /// Creates a client provisioned with `psk`. The client random is
    /// derived deterministically from `session_nonce` so simulated runs are
    /// reproducible.
    pub fn new(psk: [u8; PSK_LEN], session_nonce: u64) -> Self {
        let mut client_random = [0u8; RANDOM_LEN];
        let seed = hkdf(
            &session_nonce.to_be_bytes(),
            &psk,
            b"client-random",
            RANDOM_LEN,
        );
        client_random.copy_from_slice(&seed);
        SecureChannelClient {
            psk,
            client_random,
            send_key: None,
            recv_key: None,
        }
    }

    /// Whether the handshake has completed.
    pub fn is_established(&self) -> bool {
        self.send_key.is_some()
    }

    /// Produces the ClientHello message to send to the server.
    pub fn client_hello(&self) -> Vec<u8> {
        let mut hello = vec![CLIENT_HELLO];
        hello.extend_from_slice(&self.client_random);
        frame(&hello)
    }

    /// Processes the ServerHello and derives the traffic keys.
    ///
    /// # Errors
    ///
    /// Returns [`RelayError::ChannelError`] on malformed messages.
    pub fn process_server_hello(&mut self, data: &[u8]) -> Result<()> {
        let payload = unframe(data)?;
        if payload.len() != 1 + RANDOM_LEN || payload[0] != SERVER_HELLO {
            return Err(RelayError::ChannelError {
                reason: "malformed server hello".to_owned(),
            });
        }
        let (c2s, s2c) = derive_keys(&self.psk, &self.client_random, &payload[1..]);
        self.send_key = Some(c2s);
        self.recv_key = Some(s2c);
        Ok(())
    }

    /// Protects one application record at an *explicit* sequence number.
    /// Retransmitting the same `(seq, plaintext)` reproduces byte-identical
    /// record bytes.
    ///
    /// # Errors
    ///
    /// Returns [`RelayError::ChannelError`] before the handshake completes.
    pub fn seal_at(&self, seq: u64, plaintext: &[u8]) -> Result<Vec<u8>> {
        let key = self.send_key.ok_or(RelayError::ChannelError {
            reason: "channel not established".to_owned(),
        })?;
        Ok(seal_explicit(&key, seq, plaintext))
    }

    /// Opens one explicit-sequence record from the server, returning the
    /// sequence it carries alongside the plaintext.
    ///
    /// # Errors
    ///
    /// Returns [`RelayError::ChannelError`] on authentication failure or a
    /// not-yet-established channel.
    pub fn open_explicit(&self, record: &[u8]) -> Result<(u64, Vec<u8>)> {
        let key = self.recv_key.ok_or(RelayError::ChannelError {
            reason: "channel not established".to_owned(),
        })?;
        open_explicit_with(&key, record)
    }
}

/// Server side of the secure channel (runs in the mock cloud).
#[derive(Debug, Clone)]
pub struct SecureChannelServer {
    psk: [u8; PSK_LEN],
    server_random: [u8; RANDOM_LEN],
    send_key: Option<[u8; 32]>,
    recv_key: Option<[u8; 32]>,
}

impl SecureChannelServer {
    /// Creates a server provisioned with the same PSK.
    pub fn new(psk: [u8; PSK_LEN], server_nonce: u64) -> Self {
        let mut server_random = [0u8; RANDOM_LEN];
        let seed = hkdf(
            &server_nonce.to_be_bytes(),
            &psk,
            b"server-random",
            RANDOM_LEN,
        );
        server_random.copy_from_slice(&seed);
        SecureChannelServer {
            psk,
            server_random,
            send_key: None,
            recv_key: None,
        }
    }

    /// Whether the handshake has completed.
    pub fn is_established(&self) -> bool {
        self.recv_key.is_some()
    }

    /// Processes a ClientHello and returns the ServerHello to send back.
    ///
    /// # Errors
    ///
    /// Returns [`RelayError::ChannelError`] on malformed messages.
    pub fn process_client_hello(&mut self, data: &[u8]) -> Result<Vec<u8>> {
        let payload = unframe(data)?;
        if payload.len() != 1 + RANDOM_LEN || payload[0] != CLIENT_HELLO {
            return Err(RelayError::ChannelError {
                reason: "malformed client hello".to_owned(),
            });
        }
        let (c2s, s2c) = derive_keys(&self.psk, &payload[1..], &self.server_random);
        self.recv_key = Some(c2s);
        self.send_key = Some(s2c);
        let mut hello = vec![SERVER_HELLO];
        hello.extend_from_slice(&self.server_random);
        Ok(frame(&hello))
    }

    /// Opens one explicit-sequence record from the client, returning the
    /// carried sequence alongside the plaintext.
    ///
    /// # Errors
    ///
    /// Returns [`RelayError::ChannelError`] on authentication failure or a
    /// not-yet-established channel.
    pub fn open_explicit(&self, record: &[u8]) -> Result<(u64, Vec<u8>)> {
        let key = self.recv_key.ok_or(RelayError::ChannelError {
            reason: "channel not established".to_owned(),
        })?;
        open_explicit_with(&key, record)
    }

    /// Protects one record towards the client at an explicit sequence —
    /// the ack to an explicit-sequence record echoes that record's
    /// sequence, so a retransmitted ack is byte-identical.
    ///
    /// # Errors
    ///
    /// Returns [`RelayError::ChannelError`] before the handshake completes.
    pub fn seal_at(&self, seq: u64, plaintext: &[u8]) -> Result<Vec<u8>> {
        let key = self.send_key.ok_or(RelayError::ChannelError {
            reason: "channel not established".to_owned(),
        })?;
        Ok(seal_explicit(&key, seq, plaintext))
    }
}

/// Approximate multiply-accumulate cost of protecting `bytes` of
/// application data (ChaCha20 + Poly1305 are roughly 10 operations per
/// byte); used when charging the TA's relay work to the platform.
pub fn seal_flops(bytes: usize) -> u64 {
    (bytes as u64) * 10 + 2_000
}

#[cfg(test)]
impl SecureChannelClient {
    /// The first record of a channel in the implicit-sequence format it
    /// no longer speaks: `u32 length || aead_seal(..)` at sequence 0, with
    /// neither type byte nor carried sequence. The tests use it to check
    /// that receivers refuse such records.
    pub(crate) fn legacy_implicit_record(&self, plaintext: &[u8]) -> Vec<u8> {
        use perisec_optee::crypto::aead_seal;
        let key = self.send_key.expect("channel established");
        frame(&aead_seal(
            &key,
            &nonce_from_sequence(0),
            RECORD_AAD,
            plaintext,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn establish() -> (SecureChannelClient, SecureChannelServer) {
        let psk = [0x42u8; PSK_LEN];
        let mut client = SecureChannelClient::new(psk, 1);
        let mut server = SecureChannelServer::new(psk, 2);
        let server_hello = server.process_client_hello(&client.client_hello()).unwrap();
        client.process_server_hello(&server_hello).unwrap();
        (client, server)
    }

    #[test]
    fn handshake_establishes_both_sides() {
        let (client, server) = establish();
        assert!(client.is_established());
        assert!(server.is_established());
    }

    #[test]
    fn records_round_trip_in_both_directions() {
        let (client, server) = establish();
        for i in 0..5u8 {
            let seq = u64::from(i);
            let record = client.seal_at(seq, &[i; 100]).unwrap();
            assert_eq!(server.open_explicit(&record).unwrap(), (seq, vec![i; 100]));
            let reply = server.seal_at(seq, &[i ^ 0xff; 32]).unwrap();
            assert_eq!(
                client.open_explicit(&reply).unwrap(),
                (seq, vec![i ^ 0xff; 32])
            );
        }
    }

    #[test]
    fn ciphertext_hides_plaintext_and_tampering_is_detected() {
        let (client, server) = establish();
        let secret = b"my pin code is four two four two";
        let record = client.seal_at(0, secret).unwrap();
        assert!(!record.windows(secret.len()).any(|w| w == secret.as_slice()));
        let mut tampered = record.clone();
        let len = tampered.len();
        tampered[len - 1] ^= 1;
        assert!(server.open_explicit(&tampered).is_err());
        // The failed open left the server as it was: the genuine record
        // still opens.
        assert_eq!(server.open_explicit(&record).unwrap(), (0, secret.to_vec()));
    }

    #[test]
    fn wrong_psk_fails_record_authentication() {
        let mut client = SecureChannelClient::new([1u8; PSK_LEN], 1);
        let mut server = SecureChannelServer::new([2u8; PSK_LEN], 2);
        let server_hello = server.process_client_hello(&client.client_hello()).unwrap();
        client.process_server_hello(&server_hello).unwrap();
        let record = client.seal_at(0, b"hello").unwrap();
        assert!(server.open_explicit(&record).is_err());
        let reply = server.seal_at(0, b"ack").unwrap();
        assert!(client.open_explicit(&reply).is_err());
    }

    #[test]
    fn usage_before_handshake_is_rejected() {
        let psk = [3u8; PSK_LEN];
        let mut client = SecureChannelClient::new(psk, 1);
        assert!(client.seal_at(0, b"x").is_err());
        assert!(client.open_explicit(b"x").is_err());
        let mut server = SecureChannelServer::new(psk, 1);
        assert!(server.seal_at(0, b"x").is_err());
        assert!(server.open_explicit(b"x").is_err());
        // Malformed hellos.
        assert!(server.process_client_hello(&[0, 0, 0, 1, 9]).is_err());
        assert!(client.process_server_hello(&[1, 2]).is_err());
    }

    #[test]
    fn seal_flops_scale_with_payload() {
        assert!(seal_flops(10_000) > seal_flops(100));
    }

    #[test]
    fn explicit_records_survive_reordering_and_retransmission() {
        let (client, server) = establish();
        let a = client.seal_at(0, b"first").unwrap();
        let b = client.seal_at(1, b"second").unwrap();
        // Retransmission reproduces the record byte for byte.
        assert_eq!(a, client.seal_at(0, b"first").unwrap());
        // Out-of-order arrival still opens, and the carried sequence
        // identifies each record.
        assert_eq!(server.open_explicit(&b).unwrap(), (1, b"second".to_vec()));
        assert_eq!(server.open_explicit(&a).unwrap(), (0, b"first".to_vec()));
        // The ack path mirrors it.
        let ack = server.seal_at(1, b"ok").unwrap();
        assert_eq!(client.open_explicit(&ack).unwrap(), (1, b"ok".to_vec()));
    }

    #[test]
    fn explicit_records_reject_tampering_and_wrong_kinds() {
        let (client, server) = establish();
        let record = client.seal_at(7, b"payload").unwrap();
        let mut tampered = record.clone();
        let len = tampered.len();
        tampered[len - 1] ^= 1;
        assert!(server.open_explicit(&tampered).is_err());
        // Flipping the carried sequence breaks the nonce binding.
        let mut reseq = record.clone();
        reseq[12] ^= 1;
        assert!(server.open_explicit(&reseq).is_err());
        // Implicit records are not explicit records.
        let implicit = client.legacy_implicit_record(b"payload");
        assert!(server.open_explicit(&implicit).is_err());
        assert_eq!(peek_record_type(&record), Some(EXPLICIT_RECORD));
        assert_eq!(
            peek_record_type(&SecureChannelClient::new([9; PSK_LEN], 1).client_hello()),
            Some(CLIENT_HELLO)
        );
        assert_eq!(peek_record_type(&[0, 0]), None);
    }
}
