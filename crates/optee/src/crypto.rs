//! Cryptographic primitives used by the TEE services and the relay.
//!
//! OP-TEE exposes a cryptographic API to trusted applications (hashing,
//! MACs, authenticated encryption, key derivation); the paper's relay
//! module additionally needs a TLS-style secure channel to the cloud. This
//! module implements the required primitives from scratch — SHA-256,
//! HMAC-SHA-256, HKDF, ChaCha20, Poly1305 and the ChaCha20-Poly1305 AEAD —
//! so the repository has no external cryptography dependencies.
//!
//! The implementations follow the published specifications (FIPS 180-4,
//! RFC 2104, RFC 5869, RFC 8439) and are validated against their test
//! vectors in the unit tests below. They are *reference implementations*
//! for a simulator: correctness and clarity over side-channel hardening.
//!
//! Every secure-channel handshake runs four HKDFs, so the hash path does
//! no heap work. [`Sha256`] buffers a partial block in a fixed 64-byte
//! array, pads in at most two stack blocks, and runs its compression eight
//! rounds per step with the roles of `a..h` rotated instead of shuffled.
//! An HMAC key is kept as two hasher states with the key's inner and outer
//! pad blocks already absorbed (its "midstate"), so a MAC under it costs
//! its message blocks plus one outer block. [`hkdf`] builds the PRK's
//! midstate once and expands block by block with no allocation beyond its
//! output: with a short `info`, an `L`-block expansion takes `2L + 2`
//! compressions rather than `4L`.

/// Output size of SHA-256 in bytes.
pub const SHA256_LEN: usize = 32;
/// Key size of ChaCha20-Poly1305 in bytes.
pub const AEAD_KEY_LEN: usize = 32;
/// Nonce size of ChaCha20-Poly1305 in bytes.
pub const AEAD_NONCE_LEN: usize = 12;
/// Tag size of Poly1305 in bytes.
pub const AEAD_TAG_LEN: usize = 16;

// ---------------------------------------------------------------------------
// SHA-256 (FIPS 180-4)
// ---------------------------------------------------------------------------

const SHA256_K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// SHA-256's initial hash value (FIPS 180-4 §5.3.3).
const SHA256_H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Incremental SHA-256 hasher.
#[derive(Debug, Clone)]
pub struct Sha256 {
    state: [u32; 8],
    /// The partial block; its first `buffered` bytes are pending input.
    block: [u8; 64],
    buffered: usize,
    length_bits: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Sha256::new()
    }
}

impl Sha256 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Sha256 {
            state: SHA256_H0,
            block: [0; 64],
            buffered: 0,
            length_bits: 0,
        }
    }

    /// Feeds `data` into the hash.
    pub fn update(&mut self, mut data: &[u8]) {
        self.length_bits = self.length_bits.wrapping_add((data.len() as u64) * 8);
        if self.buffered > 0 {
            let take = data.len().min(64 - self.buffered);
            self.block[self.buffered..self.buffered + take].copy_from_slice(&data[..take]);
            self.buffered += take;
            data = &data[take..];
            if self.buffered < 64 {
                return;
            }
            sha256_compress(&mut self.state, &self.block);
            self.buffered = 0;
        }
        let (blocks, rest) = data.as_chunks::<64>();
        for block in blocks {
            sha256_compress(&mut self.state, block);
        }
        self.block[..rest.len()].copy_from_slice(rest);
        self.buffered = rest.len();
    }

    /// Finishes the hash and returns the digest.
    pub fn finalize(mut self) -> [u8; SHA256_LEN] {
        // Padding: 0x80, zeros, then the 64-bit length in the last 8 bytes
        // of a block, which takes a second block when fewer than 9 bytes
        // are free.
        let n = self.buffered;
        self.block[n] = 0x80;
        self.block[n + 1..].fill(0);
        if n + 1 > 56 {
            sha256_compress(&mut self.state, &self.block);
            self.block = [0; 64];
        }
        self.block[56..].copy_from_slice(&self.length_bits.to_be_bytes());
        sha256_compress(&mut self.state, &self.block);
        let mut out = [0u8; SHA256_LEN];
        for (bytes, word) in out.as_chunks_mut::<4>().0.iter_mut().zip(self.state) {
            *bytes = word.to_be_bytes();
        }
        out
    }
}

/// One SHA-256 compression of `block` into `state` (FIPS 180-4 §6.2.2).
fn sha256_compress(state: &mut [u32; 8], block: &[u8; 64]) {
    let mut w = [0u32; 64];
    for (word, bytes) in w.iter_mut().zip(block.as_chunks::<4>().0) {
        *word = u32::from_be_bytes(*bytes);
    }
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16]
            .wrapping_add(s0)
            .wrapping_add(w[i - 7])
            .wrapping_add(s1);
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    // One round with the working variables named by role. A round's new
    // `a` is written over `h` and its new `e` over `d`; every other value
    // keeps its variable, so the next round takes the same variables with
    // the roles rotated by one, and eight rounds bring them back.
    macro_rules! round {
        ($a:ident, $b:ident, $c:ident, $d:ident, $e:ident, $f:ident, $g:ident, $h:ident, $i:expr) => {
            let s1 = $e.rotate_right(6) ^ $e.rotate_right(11) ^ $e.rotate_right(25);
            let ch = ($e & $f) ^ (!$e & $g);
            let temp1 = $h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(SHA256_K[$i])
                .wrapping_add(w[$i]);
            let s0 = $a.rotate_right(2) ^ $a.rotate_right(13) ^ $a.rotate_right(22);
            let maj = ($a & $b) ^ ($a & $c) ^ ($b & $c);
            $d = $d.wrapping_add(temp1);
            $h = temp1.wrapping_add(s0.wrapping_add(maj));
        };
    }
    for i in (0..64).step_by(8) {
        round!(a, b, c, d, e, f, g, h, i);
        round!(h, a, b, c, d, e, f, g, i + 1);
        round!(g, h, a, b, c, d, e, f, i + 2);
        round!(f, g, h, a, b, c, d, e, i + 3);
        round!(e, f, g, h, a, b, c, d, i + 4);
        round!(d, e, f, g, h, a, b, c, i + 5);
        round!(c, d, e, f, g, h, a, b, i + 6);
        round!(b, c, d, e, f, g, h, a, i + 7);
    }
    for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
        *s = s.wrapping_add(v);
    }
}

/// One-shot SHA-256.
pub fn sha256(data: &[u8]) -> [u8; SHA256_LEN] {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

// ---------------------------------------------------------------------------
// HMAC-SHA-256 (RFC 2104) and HKDF (RFC 5869)
// ---------------------------------------------------------------------------

/// An HMAC-SHA-256 key with its inner and outer pad blocks already
/// absorbed, so each MAC under it hashes only its message and one outer
/// block.
#[derive(Debug, Clone)]
struct HmacKey {
    inner: Sha256,
    outer: Sha256,
}

impl HmacKey {
    fn new(key: &[u8]) -> Self {
        let mut key_block = [0u8; 64];
        if key.len() > 64 {
            key_block[..SHA256_LEN].copy_from_slice(&sha256(key));
        } else {
            key_block[..key.len()].copy_from_slice(key);
        }
        let mut inner = Sha256::new();
        inner.update(&key_block.map(|k| k ^ 0x36));
        let mut outer = Sha256::new();
        outer.update(&key_block.map(|k| k ^ 0x5c));
        HmacKey { inner, outer }
    }

    /// The MAC of the concatenation of `parts`.
    fn mac(&self, parts: &[&[u8]]) -> [u8; SHA256_LEN] {
        let mut inner = self.inner.clone();
        for part in parts {
            inner.update(part);
        }
        let mut outer = self.outer.clone();
        outer.update(&inner.finalize());
        outer.finalize()
    }
}

/// HMAC-SHA-256 of `data` under `key`.
pub fn hmac_sha256(key: &[u8], data: &[u8]) -> [u8; SHA256_LEN] {
    HmacKey::new(key).mac(&[data])
}

/// HKDF-Extract then HKDF-Expand, returning `length` bytes of key material.
///
/// # Panics
///
/// Panics if `length > 255 * 32` (the RFC 5869 limit).
pub fn hkdf(salt: &[u8], ikm: &[u8], info: &[u8], length: usize) -> Vec<u8> {
    assert!(length <= 255 * SHA256_LEN, "hkdf output too long");
    let prk = HmacKey::new(&hmac_sha256(salt, ikm));
    let mut okm = vec![0u8; length];
    // T(i) = HMAC(PRK, T(i-1) || info || i), with T(0) empty.
    let mut t = [0u8; SHA256_LEN];
    for (i, chunk) in okm.chunks_mut(SHA256_LEN).enumerate() {
        let previous: &[u8] = if i == 0 { &[] } else { &t };
        t = prk.mac(&[previous, info, &[i as u8 + 1]]);
        chunk.copy_from_slice(&t[..chunk.len()]);
    }
    okm
}

// ---------------------------------------------------------------------------
// ChaCha20 (RFC 8439 §2.3) and Poly1305 (§2.5)
// ---------------------------------------------------------------------------

fn chacha20_quarter_round(state: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(16);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(12);
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(8);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(7);
}

fn chacha20_block(key: &[u8; 32], counter: u32, nonce: &[u8; 12]) -> [u8; 64] {
    let mut state = [0u32; 16];
    state[0] = 0x61707865;
    state[1] = 0x3320646e;
    state[2] = 0x79622d32;
    state[3] = 0x6b206574;
    for i in 0..8 {
        state[4 + i] = u32::from_le_bytes(key[4 * i..4 * i + 4].try_into().expect("key chunk"));
    }
    state[12] = counter;
    for i in 0..3 {
        state[13 + i] =
            u32::from_le_bytes(nonce[4 * i..4 * i + 4].try_into().expect("nonce chunk"));
    }
    let mut working = state;
    for _ in 0..10 {
        chacha20_quarter_round(&mut working, 0, 4, 8, 12);
        chacha20_quarter_round(&mut working, 1, 5, 9, 13);
        chacha20_quarter_round(&mut working, 2, 6, 10, 14);
        chacha20_quarter_round(&mut working, 3, 7, 11, 15);
        chacha20_quarter_round(&mut working, 0, 5, 10, 15);
        chacha20_quarter_round(&mut working, 1, 6, 11, 12);
        chacha20_quarter_round(&mut working, 2, 7, 8, 13);
        chacha20_quarter_round(&mut working, 3, 4, 9, 14);
    }
    let mut out = [0u8; 64];
    for i in 0..16 {
        let word = working[i].wrapping_add(state[i]);
        out[4 * i..4 * i + 4].copy_from_slice(&word.to_le_bytes());
    }
    out
}

/// Encrypts or decrypts `data` with the ChaCha20 stream cipher.
pub fn chacha20_xor(key: &[u8; 32], nonce: &[u8; 12], initial_counter: u32, data: &mut [u8]) {
    for (i, chunk) in data.chunks_mut(64).enumerate() {
        let keystream = chacha20_block(key, initial_counter.wrapping_add(i as u32), nonce);
        for (b, k) in chunk.iter_mut().zip(keystream.iter()) {
            *b ^= k;
        }
    }
}

fn poly1305_mac(key: &[u8; 32], message: &[u8]) -> [u8; 16] {
    // r and s per RFC 8439 §2.5; arithmetic over 2^130 - 5 using u128 limbs.
    let mut r_bytes = [0u8; 16];
    r_bytes.copy_from_slice(&key[..16]);
    // Clamp r.
    r_bytes[3] &= 15;
    r_bytes[7] &= 15;
    r_bytes[11] &= 15;
    r_bytes[15] &= 15;
    r_bytes[4] &= 252;
    r_bytes[8] &= 252;
    r_bytes[12] &= 252;

    let r = u128::from_le_bytes(r_bytes);
    let s = u128::from_le_bytes(key[16..32].try_into().expect("16 bytes"));

    // Split r and accumulator into 26-bit limbs to avoid overflow.
    let r0 = (r & 0x3ffffff) as u64;
    let r1 = ((r >> 26) & 0x3ffffff) as u64;
    let r2 = ((r >> 52) & 0x3ffffff) as u64;
    let r3 = ((r >> 78) & 0x3ffffff) as u64;
    let r4 = ((r >> 104) & 0x3ffffff) as u64;
    let s1 = r1 * 5;
    let s2 = r2 * 5;
    let s3 = r3 * 5;
    let s4 = r4 * 5;

    let (mut h0, mut h1, mut h2, mut h3, mut h4) = (0u64, 0u64, 0u64, 0u64, 0u64);

    for chunk in message.chunks(16) {
        let mut block = [0u8; 17];
        block[..chunk.len()].copy_from_slice(chunk);
        block[chunk.len()] = 1;
        let t0 = u32::from_le_bytes(block[0..4].try_into().expect("4")) as u64;
        let t1 = u32::from_le_bytes(block[4..8].try_into().expect("4")) as u64;
        let t2 = u32::from_le_bytes(block[8..12].try_into().expect("4")) as u64;
        let t3 = u32::from_le_bytes(block[12..16].try_into().expect("4")) as u64;
        let t4 = block[16] as u64;

        h0 += t0 & 0x3ffffff;
        h1 += ((t1 << 6) | (t0 >> 26)) & 0x3ffffff;
        h2 += ((t2 << 12) | (t1 >> 20)) & 0x3ffffff;
        h3 += ((t3 << 18) | (t2 >> 14)) & 0x3ffffff;
        h4 += (t4 << 24) | (t3 >> 8);

        let d0 = h0 as u128 * r0 as u128
            + h1 as u128 * s4 as u128
            + h2 as u128 * s3 as u128
            + h3 as u128 * s2 as u128
            + h4 as u128 * s1 as u128;
        let d1 = h0 as u128 * r1 as u128
            + h1 as u128 * r0 as u128
            + h2 as u128 * s4 as u128
            + h3 as u128 * s3 as u128
            + h4 as u128 * s2 as u128;
        let d2 = h0 as u128 * r2 as u128
            + h1 as u128 * r1 as u128
            + h2 as u128 * r0 as u128
            + h3 as u128 * s4 as u128
            + h4 as u128 * s3 as u128;
        let d3 = h0 as u128 * r3 as u128
            + h1 as u128 * r2 as u128
            + h2 as u128 * r1 as u128
            + h3 as u128 * r0 as u128
            + h4 as u128 * s4 as u128;
        let d4 = h0 as u128 * r4 as u128
            + h1 as u128 * r3 as u128
            + h2 as u128 * r2 as u128
            + h3 as u128 * r1 as u128
            + h4 as u128 * r0 as u128;

        let mut carry = (d0 >> 26) as u64;
        h0 = (d0 as u64) & 0x3ffffff;
        let d1 = d1 + carry as u128;
        carry = (d1 >> 26) as u64;
        h1 = (d1 as u64) & 0x3ffffff;
        let d2 = d2 + carry as u128;
        carry = (d2 >> 26) as u64;
        h2 = (d2 as u64) & 0x3ffffff;
        let d3 = d3 + carry as u128;
        carry = (d3 >> 26) as u64;
        h3 = (d3 as u64) & 0x3ffffff;
        let d4 = d4 + carry as u128;
        carry = (d4 >> 26) as u64;
        h4 = (d4 as u64) & 0x3ffffff;
        h0 += carry * 5;
        let carry = h0 >> 26;
        h0 &= 0x3ffffff;
        h1 += carry;
    }

    // Final reduction modulo 2^130 - 5.
    let mut carry = h1 >> 26;
    h1 &= 0x3ffffff;
    h2 += carry;
    carry = h2 >> 26;
    h2 &= 0x3ffffff;
    h3 += carry;
    carry = h3 >> 26;
    h3 &= 0x3ffffff;
    h4 += carry;
    carry = h4 >> 26;
    h4 &= 0x3ffffff;
    h0 += carry * 5;
    carry = h0 >> 26;
    h0 &= 0x3ffffff;
    h1 += carry;

    // Compute h + -p to check if h >= p.
    let mut g0 = h0.wrapping_add(5);
    carry = g0 >> 26;
    g0 &= 0x3ffffff;
    let mut g1 = h1.wrapping_add(carry);
    carry = g1 >> 26;
    g1 &= 0x3ffffff;
    let mut g2 = h2.wrapping_add(carry);
    carry = g2 >> 26;
    g2 &= 0x3ffffff;
    let mut g3 = h3.wrapping_add(carry);
    carry = g3 >> 26;
    g3 &= 0x3ffffff;
    let g4 = h4.wrapping_add(carry).wrapping_sub(1 << 26);

    if g4 >> 63 == 0 {
        h0 = g0;
        h1 = g1;
        h2 = g2;
        h3 = g3;
        h4 = g4 & 0x3ffffff;
    }

    let h = (h0 as u128)
        | ((h1 as u128) << 26)
        | ((h2 as u128) << 52)
        | ((h3 as u128) << 78)
        | ((h4 as u128) << 104);
    let tag = h.wrapping_add(s);
    tag.to_le_bytes()
}

/// Errors from authenticated decryption.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AeadError;

impl std::fmt::Display for AeadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "authenticated decryption failed: tag mismatch")
    }
}

impl std::error::Error for AeadError {}

fn poly1305_key_gen(key: &[u8; 32], nonce: &[u8; 12]) -> [u8; 32] {
    let block = chacha20_block(key, 0, nonce);
    block[..32].try_into().expect("32 bytes")
}

fn aead_mac_data(aad: &[u8], ciphertext: &[u8]) -> Vec<u8> {
    let mut data = Vec::with_capacity(aad.len() + ciphertext.len() + 32);
    data.extend_from_slice(aad);
    data.resize(data.len().div_ceil(16) * 16, 0);
    data.extend_from_slice(ciphertext);
    data.resize(data.len().div_ceil(16) * 16, 0);
    data.extend_from_slice(&(aad.len() as u64).to_le_bytes());
    data.extend_from_slice(&(ciphertext.len() as u64).to_le_bytes());
    data
}

/// ChaCha20-Poly1305 authenticated encryption (RFC 8439 §2.8).
///
/// Returns `ciphertext || tag`.
pub fn aead_seal(key: &[u8; 32], nonce: &[u8; 12], aad: &[u8], plaintext: &[u8]) -> Vec<u8> {
    let mut ciphertext = plaintext.to_vec();
    chacha20_xor(key, nonce, 1, &mut ciphertext);
    let mac_key = poly1305_key_gen(key, nonce);
    let tag = poly1305_mac(&mac_key, &aead_mac_data(aad, &ciphertext));
    ciphertext.extend_from_slice(&tag);
    ciphertext
}

/// ChaCha20-Poly1305 authenticated decryption.
///
/// # Errors
///
/// Returns [`AeadError`] if the input is too short or the tag does not
/// verify; no plaintext is returned in that case.
pub fn aead_open(
    key: &[u8; 32],
    nonce: &[u8; 12],
    aad: &[u8],
    sealed: &[u8],
) -> Result<Vec<u8>, AeadError> {
    if sealed.len() < AEAD_TAG_LEN {
        return Err(AeadError);
    }
    let (ciphertext, tag) = sealed.split_at(sealed.len() - AEAD_TAG_LEN);
    let mac_key = poly1305_key_gen(key, nonce);
    let expected = poly1305_mac(&mac_key, &aead_mac_data(aad, ciphertext));
    // Constant-time-ish comparison (good enough for the simulator).
    let mut diff = 0u8;
    for (a, b) in expected.iter().zip(tag.iter()) {
        diff |= a ^ b;
    }
    if diff != 0 {
        return Err(AeadError);
    }
    let mut plaintext = ciphertext.to_vec();
    chacha20_xor(key, nonce, 1, &mut plaintext);
    Ok(plaintext)
}

/// Builds a 12-byte nonce from a 64-bit sequence number (TLS 1.3 style:
/// left-padded, XORed into an IV by the caller if desired).
pub fn nonce_from_sequence(sequence: u64) -> [u8; AEAD_NONCE_LEN] {
    let mut nonce = [0u8; AEAD_NONCE_LEN];
    nonce[4..].copy_from_slice(&sequence.to_be_bytes());
    nonce
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn sha256_matches_known_vectors() {
        assert_eq!(
            hex(&sha256(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
        assert_eq!(
            hex(&sha256(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
        assert_eq!(
            hex(&sha256(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn sha256_incremental_equals_oneshot() {
        let data = vec![0xabu8; 1000];
        let mut h = Sha256::new();
        for chunk in data.chunks(7) {
            h.update(chunk);
        }
        assert_eq!(h.finalize(), sha256(&data));
    }

    /// The hasher [`Sha256`] replaced: a growable buffer drained block by
    /// block, padding built in a `Vec`, and a compression that shuffles
    /// `a..h` every round. Kept as the oracle for the block buffer, the
    /// padding and the unrolled rounds.
    struct VecSha256 {
        state: [u32; 8],
        buffer: Vec<u8>,
        length_bits: u64,
    }

    impl VecSha256 {
        fn new() -> Self {
            VecSha256 {
                state: SHA256_H0,
                buffer: Vec::with_capacity(64),
                length_bits: 0,
            }
        }

        fn update(&mut self, data: &[u8]) {
            self.length_bits = self.length_bits.wrapping_add((data.len() as u64) * 8);
            self.buffer.extend_from_slice(data);
            while self.buffer.len() >= 64 {
                let block: [u8; 64] = self.buffer[..64].try_into().expect("len checked");
                self.compress(&block);
                self.buffer.drain(..64);
            }
        }

        fn finalize(mut self) -> [u8; SHA256_LEN] {
            let length_bits = self.length_bits;
            self.buffer.push(0x80);
            while self.buffer.len() % 64 != 56 {
                self.buffer.push(0);
            }
            self.buffer.extend_from_slice(&length_bits.to_be_bytes());
            let blocks: Vec<[u8; 64]> = self
                .buffer
                .chunks_exact(64)
                .map(|c| c.try_into().expect("chunk of 64"))
                .collect();
            for block in blocks {
                self.compress(&block);
            }
            let mut out = [0u8; SHA256_LEN];
            for (i, word) in self.state.iter().enumerate() {
                out[4 * i..4 * i + 4].copy_from_slice(&word.to_be_bytes());
            }
            out
        }

        fn compress(&mut self, block: &[u8; 64]) {
            let mut w = [0u32; 64];
            for i in 0..16 {
                w[i] = u32::from_be_bytes([
                    block[4 * i],
                    block[4 * i + 1],
                    block[4 * i + 2],
                    block[4 * i + 3],
                ]);
            }
            for i in 16..64 {
                let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
                let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
                w[i] = w[i - 16]
                    .wrapping_add(s0)
                    .wrapping_add(w[i - 7])
                    .wrapping_add(s1);
            }
            let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = self.state;
            for i in 0..64 {
                let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
                let ch = (e & f) ^ ((!e) & g);
                let temp1 = h
                    .wrapping_add(s1)
                    .wrapping_add(ch)
                    .wrapping_add(SHA256_K[i])
                    .wrapping_add(w[i]);
                let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
                let maj = (a & b) ^ (a & c) ^ (b & c);
                let temp2 = s0.wrapping_add(maj);
                h = g;
                g = f;
                f = e;
                e = d.wrapping_add(temp1);
                d = c;
                c = b;
                b = a;
                a = temp1.wrapping_add(temp2);
            }
            for (s, v) in self.state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
                *s = s.wrapping_add(v);
            }
        }
    }

    proptest::proptest! {
        #[test]
        fn sha256_matches_the_vec_hasher_in_any_chunking(
            message in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..301),
            cuts in proptest::collection::vec(0usize..301, 0..8),
        ) {
            let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(message.len())).collect();
            cuts.sort_unstable();
            let mut fast = Sha256::new();
            let mut oracle = VecSha256::new();
            let mut from = 0;
            for to in cuts.into_iter().chain([message.len()]) {
                fast.update(&message[from..to]);
                oracle.update(&message[from..to]);
                from = to;
            }
            let expected = oracle.finalize();
            proptest::prop_assert_eq!(fast.finalize(), expected);
            proptest::prop_assert_eq!(sha256(&message), expected);
        }
    }

    #[test]
    fn sha256_pads_every_tail_length_like_the_vec_hasher() {
        // Tails of 55, 56 and 63 bytes are where padding takes one block or
        // two; cover every tail length over two blocks.
        let data: Vec<u8> = (0..=255u8).cycle().take(200).collect();
        for len in 0..data.len() {
            let mut oracle = VecSha256::new();
            oracle.update(&data[..len]);
            assert_eq!(sha256(&data[..len]), oracle.finalize(), "{len} bytes");
        }
    }

    #[test]
    fn hmac_matches_rfc4231_vectors() {
        // RFC 4231 test case 1.
        let key = [0x0bu8; 20];
        let tag = hmac_sha256(&key, b"Hi There");
        assert_eq!(
            hex(&tag),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
        // RFC 4231 test case 2.
        let tag = hmac_sha256(b"Jefe", b"what do ya want for nothing?");
        assert_eq!(
            hex(&tag),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
        // RFC 4231 test cases 6 and 7: a 131-byte key, longer than a block,
        // is hashed first.
        let key = [0xaau8; 131];
        let tag = hmac_sha256(
            &key,
            b"Test Using Larger Than Block-Size Key - Hash Key First",
        );
        assert_eq!(
            hex(&tag),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
        let tag = hmac_sha256(
            &key,
            b"This is a test using a larger than block-size key and a larger than \
              block-size data. The key needs to be hashed before being used by \
              the HMAC algorithm.",
        );
        assert_eq!(
            hex(&tag),
            "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2"
        );
    }

    #[test]
    fn hkdf_matches_rfc5869_case1() {
        let ikm = [0x0bu8; 22];
        let salt: Vec<u8> = (0x00..=0x0c).collect();
        let info: Vec<u8> = (0xf0..=0xf9).collect();
        let okm = hkdf(&salt, &ikm, &info, 42);
        assert_eq!(
            hex(&okm),
            "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf34007208d5b887185865"
        );
    }

    #[test]
    fn hkdf_matches_rfc5869_case2_three_blocks_of_long_inputs() {
        let ikm: Vec<u8> = (0x00..=0x4f).collect();
        let salt: Vec<u8> = (0x60..=0xaf).collect();
        let info: Vec<u8> = (0xb0..=0xff).collect();
        let okm = hkdf(&salt, &ikm, &info, 82);
        assert_eq!(
            hex(&okm),
            "b11e398dc80327a1c8e7f78c596a49344f012eda2d4efad8a050cc4c19afa97c\
             59045a99cac7827271cb41c65e590e09da3275600c2f09b8367793a9aca3db71\
             cc30c58179ec3e87c14c01d5c1f3434f1d87"
        );
    }

    #[test]
    fn hkdf_matches_rfc5869_case3_empty_salt_and_info() {
        let okm = hkdf(&[], &[0x0bu8; 22], &[], 42);
        assert_eq!(
            hex(&okm),
            "8da4e775a563c18f715f802a063c5a31b8a11f5c5ee1879ec3454e5f3c738d2d9d201395faa4b61a96c8"
        );
    }

    #[test]
    fn chacha20_matches_rfc8439_vector() {
        // RFC 8439 §2.4.2.
        let key: [u8; 32] = (0u8..32).collect::<Vec<_>>().try_into().unwrap();
        let nonce: [u8; 12] = [0, 0, 0, 0, 0, 0, 0, 0x4a, 0, 0, 0, 0];
        let plaintext = b"Ladies and Gentlemen of the class of '99: If I could offer you only one tip for the future, sunscreen would be it.";
        let mut data = plaintext.to_vec();
        chacha20_xor(&key, &nonce, 1, &mut data);
        assert_eq!(hex(&data[..16]), "6e2e359a2568f98041ba0728dd0d6981");
        // Decrypt round trip.
        chacha20_xor(&key, &nonce, 1, &mut data);
        assert_eq!(&data, plaintext);
    }

    #[test]
    fn aead_matches_rfc8439_vector() {
        let key: [u8; 32] = (0x80u8..0xa0).collect::<Vec<_>>().try_into().unwrap();
        let nonce: [u8; 12] = [
            0x07, 0, 0, 0, 0x40, 0x41, 0x42, 0x43, 0x44, 0x45, 0x46, 0x47,
        ];
        let aad: [u8; 12] = [
            0x50, 0x51, 0x52, 0x53, 0xc0, 0xc1, 0xc2, 0xc3, 0xc4, 0xc5, 0xc6, 0xc7,
        ];
        let plaintext = b"Ladies and Gentlemen of the class of '99: If I could offer you only one tip for the future, sunscreen would be it.";
        let sealed = aead_seal(&key, &nonce, &aad, plaintext);
        // Tag from RFC 8439 §2.8.2.
        assert_eq!(
            hex(&sealed[sealed.len() - 16..]),
            "1ae10b594f09e26a7e902ecbd0600691"
        );
        let opened = aead_open(&key, &nonce, &aad, &sealed).unwrap();
        assert_eq!(&opened, plaintext);
    }

    #[test]
    fn aead_rejects_tampering() {
        let key = [7u8; 32];
        let nonce = nonce_from_sequence(1);
        let sealed = aead_seal(&key, &nonce, b"hdr", b"secret payload");
        // Flip a ciphertext bit.
        let mut bad = sealed.clone();
        bad[0] ^= 1;
        assert_eq!(aead_open(&key, &nonce, b"hdr", &bad), Err(AeadError));
        // Wrong AAD.
        assert_eq!(aead_open(&key, &nonce, b"other", &sealed), Err(AeadError));
        // Wrong nonce.
        assert_eq!(
            aead_open(&key, &nonce_from_sequence(2), b"hdr", &sealed),
            Err(AeadError)
        );
        // Too short.
        assert_eq!(
            aead_open(&key, &nonce, b"hdr", &sealed[..8]),
            Err(AeadError)
        );
        // Untampered opens fine.
        assert!(aead_open(&key, &nonce, b"hdr", &sealed).is_ok());
    }

    #[test]
    fn nonce_from_sequence_is_unique_per_sequence() {
        assert_ne!(nonce_from_sequence(1), nonce_from_sequence(2));
        assert_eq!(nonce_from_sequence(7), nonce_from_sequence(7));
    }

    #[test]
    fn aead_round_trips_empty_and_large_payloads() {
        let key = [9u8; 32];
        for size in [0usize, 1, 15, 16, 17, 63, 64, 65, 1000, 16 * 1024] {
            let payload = vec![0x5au8; size];
            let nonce = nonce_from_sequence(size as u64);
            let sealed = aead_seal(&key, &nonce, &[], &payload);
            assert_eq!(sealed.len(), size + AEAD_TAG_LEN);
            assert_eq!(aead_open(&key, &nonce, &[], &sealed).unwrap(), payload);
        }
    }
}
