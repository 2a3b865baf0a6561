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
//! array and pads in at most two stack blocks. An HMAC key is kept as two
//! hasher states with the key's inner and outer pad blocks already
//! absorbed (its "midstate"), so a MAC under it costs its message blocks
//! plus one outer block. [`hkdf`] builds the PRK's midstate once and
//! expands block by block with no allocation beyond its output: with a
//! short `info`, an `L`-block expansion takes `2L + 2` compressions rather
//! than `4L`.
//!
//! # Kernels and their dispatch
//!
//! Two primitives run on the host's crypto instructions where it has
//! them, chosen at run time on every call; nothing else selects a path:
//!
//! * the SHA-256 compression runs on the SHA extensions (`sha` with
//!   `sse4.1`), and otherwise on the portable body, which runs eight
//!   rounds per step with the roles of `a..h` rotated instead of
//!   shuffled;
//! * ChaCha20 makes two blocks per call, `n` and `n + 1`, side by side in
//!   one AVX2 pass, and otherwise as two scalar blocks. For the AEAD, the
//!   first call yields block 0, whose first half is the Poly1305 key, and
//!   block 1, the keystream of the first 64 data bytes: one call covers a
//!   record of up to 64 bytes.
//!
//! Poly1305 has no hardware form. It computes in three limbs of 44, 44 and
//! 42 bits, nine multiplies a block, and streams over the AAD, the
//! padding, the ciphertext and the lengths without assembling them, so
//! [`aead_seal`] and [`aead_open`] allocate only their output, and
//! [`aead_seal_into`] appends to the caller's buffer.
//!
//! Every form computes the same bytes. The unit tests compare the SHA
//! kernel with the portable body, the two-block ChaCha20 with two scalar
//! `chacha20_block`s and the 44-bit Poly1305 with the 26-bit one it
//! replaced (kept in the tests as the oracle), on random and edge inputs.
//! On a host without the instructions, the hardware comparison cannot run
//! and only the portable arm is checked.
//!
//! # Unsafe code
//!
//! The crate denies `unsafe_code`. Each kernel is a safe
//! `#[target_feature]` function without raw pointers: words enter its
//! registers through `_mm_setr_epi32` / `_mm256_setr_epi32` and leave
//! through `_mm_extract_epi32` / `_mm_cvtsi128_si64`. The only `unsafe`
//! code is each kernel's call, right after its `is_x86_feature_detected!`
//! check: two sites, each allowed on its own. Targets other than x86_64
//! compile only the portable bodies.

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

/// One SHA-256 compression of `block` into `state`, on the SHA
/// extensions where the host has them.
fn sha256_compress(state: &mut [u32; 8], block: &[u8; 64]) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("sha") && std::arch::is_x86_feature_detected!("sse4.1") {
        // SAFETY: the kernel needs SHA and SSE4.1, both detected just above.
        #[allow(unsafe_code)]
        unsafe {
            x86::sha256_compress(state, block);
        }
        return;
    }
    sha256_compress_portable(state, block);
}

/// One SHA-256 compression of `block` into `state` (FIPS 180-4 §6.2.2) in
/// portable code.
fn sha256_compress_portable(state: &mut [u32; 8], block: &[u8; 64]) {
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

/// ChaCha20's first state row, "expand 32-byte k".
const CHACHA20_CONSTANTS: [u32; 4] = [0x61707865, 0x3320646e, 0x79622d32, 0x6b206574];

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

/// One ChaCha20 block in portable code.
fn chacha20_block(key: &[u8; 32], counter: u32, nonce: &[u8; 12]) -> [u8; 64] {
    let mut state = [0u32; 16];
    state[..4].copy_from_slice(&CHACHA20_CONSTANTS);
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

/// ChaCha20 blocks `counter` and `counter + 1` (wrapping), one after the
/// other, in one AVX2 pass where the host has AVX2.
fn chacha20_block_pair(key: &[u8; 32], counter: u32, nonce: &[u8; 12]) -> [u8; 128] {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: the kernel needs AVX2, detected just above.
        #[allow(unsafe_code)]
        return unsafe { x86::chacha20_block_pair(key, counter, nonce) };
    }
    let mut out = [0u8; 128];
    out[..64].copy_from_slice(&chacha20_block(key, counter, nonce));
    out[64..].copy_from_slice(&chacha20_block(key, counter.wrapping_add(1), nonce));
    out
}

fn xor_in_place(data: &mut [u8], keystream: &[u8]) {
    for (byte, key) in data.iter_mut().zip(keystream) {
        *byte ^= key;
    }
}

/// Encrypts or decrypts `data` with the ChaCha20 stream cipher.
pub fn chacha20_xor(key: &[u8; 32], nonce: &[u8; 12], initial_counter: u32, data: &mut [u8]) {
    for (i, chunk) in data.chunks_mut(128).enumerate() {
        let counter = initial_counter.wrapping_add((i as u32).wrapping_mul(2));
        xor_in_place(chunk, &chacha20_block_pair(key, counter, nonce));
    }
}

const MASK44: u64 = (1 << 44) - 1;
const MASK42: u64 = (1 << 42) - 1;

/// Poly1305 (RFC 8439 §2.5) in three limbs of 44, 44 and 42 bits.
struct Poly1305 {
    /// The clamped `r`, limb by limb.
    r: [u64; 3],
    /// `r[1]` and `r[2]` times 20: a product that reaches 2^132 folds back
    /// as 4 × 5 times its part above, since 2^130 ≡ 5 (mod 2^130 - 5).
    r20: [u64; 2],
    /// The accumulator, limb by limb and partly carried.
    h: [u64; 3],
    /// `s`, added to the accumulator at the end, as two words.
    s: [u64; 2],
}

impl Poly1305 {
    /// A MAC under the one-time `key` (`r || s`, RFC 8439 §2.5).
    fn new(key: &[u8; 32]) -> Self {
        let word =
            |i: usize| u64::from_le_bytes(key[8 * i..8 * i + 8].try_into().expect("8 bytes"));
        let (t0, t1) = (word(0), word(1));
        // Split r into limbs, clamping it on the way (RFC 8439 §2.5.1).
        let r = [
            t0 & 0xffc_0fff_ffff,
            ((t0 >> 44) | (t1 << 20)) & 0xfff_ffc0_ffff,
            (t1 >> 24) & 0x00f_ffff_fc0f,
        ];
        Poly1305 {
            r,
            r20: [r[1] * 20, r[2] * 20],
            h: [0; 3],
            s: [word(2), word(3)],
        }
    }

    /// Absorbs `data` as 16-byte blocks, the last one zero-padded to 16
    /// bytes as the AEAD pads its AAD and ciphertext (RFC 8439 §2.8).
    fn update_padded(&mut self, data: &[u8]) {
        let (blocks, tail) = data.as_chunks::<16>();
        for block in blocks {
            let word =
                |i: usize| u64::from_le_bytes(block[8 * i..8 * i + 8].try_into().expect("8 bytes"));
            self.block(word(0), word(1));
        }
        if !tail.is_empty() {
            // The padded block's words are built in registers: copying the
            // tail into a stack block and loading it back as words stalls
            // on store forwarding.
            let mut words = [0u64; 2];
            for (i, &byte) in tail.iter().enumerate() {
                words[i / 8] |= u64::from(byte) << (8 * (i % 8));
            }
            self.block(words[0], words[1]);
        }
    }

    /// `h = (h + t + 2^128) × r`, partly reduced, for the block whose
    /// little-endian words are `t0` and `t1`.
    fn block(&mut self, t0: u64, t1: u64) {
        let [r0, r1, r2] = self.r;
        let [r1_20, r2_20] = self.r20;
        let [mut h0, mut h1, mut h2] = self.h;
        h0 += t0 & MASK44;
        h1 += ((t0 >> 44) | (t1 << 20)) & MASK44;
        h2 += (t1 >> 24) | (1 << 40);
        let mul = |a: u64, b: u64| u128::from(a) * u128::from(b);
        let d0 = mul(h0, r0) + mul(h1, r2_20) + mul(h2, r1_20);
        let d1 = mul(h0, r1) + mul(h1, r0) + mul(h2, r2_20);
        let d2 = mul(h0, r2) + mul(h1, r1) + mul(h2, r0);
        h0 = d0 as u64 & MASK44;
        let d1 = d1 + (d0 >> 44);
        h1 = d1 as u64 & MASK44;
        let d2 = d2 + (d1 >> 44);
        h2 = d2 as u64 & MASK42;
        h0 += (d2 >> 42) as u64 * 5;
        h1 += h0 >> 44;
        h0 &= MASK44;
        self.h = [h0, h1, h2];
    }

    /// The tag: `h` fully reduced modulo 2^130 - 5, plus `s`, modulo 2^128.
    fn finish(self) -> [u8; 16] {
        let [mut h0, mut h1, mut h2] = self.h;
        // One carry pass leaves h0 and h2 within their limbs and h1 at
        // most 2^44, so h < 2^130 + 2^44 < 2p, and subtracting p once
        // reduces it.
        h2 += h1 >> 44;
        h1 &= MASK44;
        h0 += (h2 >> 42) * 5;
        h2 &= MASK42;
        h1 += h0 >> 44;
        h0 &= MASK44;
        // g = h - p = h + 5 - 2^130, carried through h1's top bit; keep it
        // unless it borrows (h < p).
        let g0 = h0 + 5;
        let g1 = h1 + (g0 >> 44);
        let g2 = (h2 + (g1 >> 44)).wrapping_sub(1 << 42);
        if g2 >> 63 == 0 {
            h0 = g0 & MASK44;
            h1 = g1 & MASK44;
            h2 = g2;
        }
        let [s0, s1] = self.s;
        h0 += s0 & MASK44;
        h1 += (((s0 >> 44) | (s1 << 20)) & MASK44) + (h0 >> 44);
        h2 += (s1 >> 24) + (h1 >> 44);
        let lo = (h0 & MASK44) | (h1 << 44);
        let hi = ((h1 & MASK44) >> 20) | (h2 << 24);
        let mut tag = [0u8; 16];
        tag[..8].copy_from_slice(&lo.to_le_bytes());
        tag[8..].copy_from_slice(&hi.to_le_bytes());
        tag
    }
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

/// The AEAD's tag over `aad` and `ciphertext` (RFC 8439 §2.8) under the
/// one-time Poly1305 key, the first half of keystream block 0.
fn aead_tag(poly_key: &[u8; 32], aad: &[u8], ciphertext: &[u8]) -> [u8; 16] {
    let mut mac = Poly1305::new(poly_key);
    mac.update_padded(aad);
    mac.update_padded(ciphertext);
    mac.block(aad.len() as u64, ciphertext.len() as u64);
    mac.finish()
}

/// XORs the AEAD's keystream, from block 1 on, into `data`; `first` holds
/// blocks 0 and 1.
fn aead_xor(key: &[u8; 32], nonce: &[u8; 12], first: &[u8; 128], data: &mut [u8]) {
    let (head, rest) = data.split_at_mut(data.len().min(64));
    xor_in_place(head, &first[64..]);
    chacha20_xor(key, nonce, 2, rest);
}

/// ChaCha20-Poly1305 authenticated encryption (RFC 8439 §2.8), appending
/// `ciphertext || tag` to `out`.
pub fn aead_seal_into(
    key: &[u8; 32],
    nonce: &[u8; 12],
    aad: &[u8],
    plaintext: &[u8],
    out: &mut Vec<u8>,
) {
    let start = out.len();
    out.reserve(plaintext.len() + AEAD_TAG_LEN);
    out.extend_from_slice(plaintext);
    let first = chacha20_block_pair(key, 0, nonce);
    let ciphertext = &mut out[start..];
    aead_xor(key, nonce, &first, ciphertext);
    let tag = aead_tag(first[..32].try_into().expect("32 bytes"), aad, ciphertext);
    out.extend_from_slice(&tag);
}

/// ChaCha20-Poly1305 authenticated encryption (RFC 8439 §2.8).
///
/// Returns `ciphertext || tag`.
pub fn aead_seal(key: &[u8; 32], nonce: &[u8; 12], aad: &[u8], plaintext: &[u8]) -> Vec<u8> {
    let mut sealed = Vec::with_capacity(plaintext.len() + AEAD_TAG_LEN);
    aead_seal_into(key, nonce, aad, plaintext, &mut sealed);
    sealed
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
    let first = chacha20_block_pair(key, 0, nonce);
    let expected = aead_tag(first[..32].try_into().expect("32 bytes"), aad, ciphertext);
    // Constant-time-ish comparison (good enough for the simulator).
    let mut diff = 0u8;
    for (a, b) in expected.iter().zip(tag.iter()) {
        diff |= a ^ b;
    }
    if diff != 0 {
        return Err(AeadError);
    }
    let mut plaintext = ciphertext.to_vec();
    aead_xor(key, nonce, &first, &mut plaintext);
    Ok(plaintext)
}

/// Builds a 12-byte nonce from a 64-bit sequence number (TLS 1.3 style:
/// left-padded, XORed into an IV by the caller if desired).
pub fn nonce_from_sequence(sequence: u64) -> [u8; AEAD_NONCE_LEN] {
    let mut nonce = [0u8; AEAD_NONCE_LEN];
    nonce[4..].copy_from_slice(&sequence.to_be_bytes());
    nonce
}

/// The kernels for the host's crypto instructions, each a safe
/// `#[target_feature]` function without raw pointers (see the module
/// docs).
#[cfg(target_arch = "x86_64")]
mod x86 {
    use std::arch::x86_64::*;

    use super::{CHACHA20_CONSTANTS, SHA256_K};

    /// One SHA-256 compression on the SHA extensions. They keep the state
    /// as two registers, `ABEF` and `CDGH` (highest lane first), and run
    /// two rounds per `sha256rnds2`.
    #[target_feature(enable = "sha,sse4.1")]
    pub(super) fn sha256_compress(state: &mut [u32; 8], block: &[u8; 64]) {
        let [a, b, c, d, e, f, g, h] = state.map(|word| word as i32);
        let mut abef = _mm_setr_epi32(f, e, b, a);
        let mut cdgh = _mm_setr_epi32(h, g, d, c);
        let (abef_in, cdgh_in) = (abef, cdgh);
        let words = block.as_chunks::<4>().0;
        let w = |i: usize| u32::from_be_bytes(words[i]) as i32;
        let mut w0 = _mm_setr_epi32(w(0), w(1), w(2), w(3));
        let mut w1 = _mm_setr_epi32(w(4), w(5), w(6), w(7));
        let mut w2 = _mm_setr_epi32(w(8), w(9), w(10), w(11));
        let mut w3 = _mm_setr_epi32(w(12), w(13), w(14), w(15));
        // Rounds 4i .. 4i + 4 on the schedule words in `$w`.
        macro_rules! rounds4 {
            ($w:expr, $i:expr) => {
                let k = |j: usize| SHA256_K[4 * $i + j] as i32;
                let wk = _mm_add_epi32($w, _mm_setr_epi32(k(0), k(1), k(2), k(3)));
                cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
                abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32::<0x0e>(wk));
            };
        }
        // The next four schedule words, written over the oldest four in
        // `$w0`, then their rounds.
        macro_rules! schedule_rounds4 {
            ($w0:ident, $w1:ident, $w2:ident, $w3:ident, $i:expr) => {
                let sum = _mm_add_epi32(
                    _mm_sha256msg1_epu32($w0, $w1),
                    _mm_alignr_epi8::<4>($w3, $w2),
                );
                $w0 = _mm_sha256msg2_epu32(sum, $w3);
                rounds4!($w0, $i);
            };
        }
        rounds4!(w0, 0);
        rounds4!(w1, 1);
        rounds4!(w2, 2);
        rounds4!(w3, 3);
        schedule_rounds4!(w0, w1, w2, w3, 4);
        schedule_rounds4!(w1, w2, w3, w0, 5);
        schedule_rounds4!(w2, w3, w0, w1, 6);
        schedule_rounds4!(w3, w0, w1, w2, 7);
        schedule_rounds4!(w0, w1, w2, w3, 8);
        schedule_rounds4!(w1, w2, w3, w0, 9);
        schedule_rounds4!(w2, w3, w0, w1, 10);
        schedule_rounds4!(w3, w0, w1, w2, 11);
        schedule_rounds4!(w0, w1, w2, w3, 12);
        schedule_rounds4!(w1, w2, w3, w0, 13);
        schedule_rounds4!(w2, w3, w0, w1, 14);
        schedule_rounds4!(w3, w0, w1, w2, 15);
        let abef = _mm_add_epi32(abef, abef_in);
        let cdgh = _mm_add_epi32(cdgh, cdgh_in);
        *state = [
            _mm_extract_epi32::<3>(abef),
            _mm_extract_epi32::<2>(abef),
            _mm_extract_epi32::<3>(cdgh),
            _mm_extract_epi32::<2>(cdgh),
            _mm_extract_epi32::<1>(abef),
            _mm_extract_epi32::<0>(abef),
            _mm_extract_epi32::<1>(cdgh),
            _mm_extract_epi32::<0>(cdgh),
        ]
        .map(|word| word as u32);
    }

    /// ChaCha20 blocks `counter` and `counter + 1` (wrapping) in one pass:
    /// each register holds one state row, block `counter` in its low half
    /// and block `counter + 1` in its high half.
    #[target_feature(enable = "avx2")]
    pub(super) fn chacha20_block_pair(key: &[u8; 32], counter: u32, nonce: &[u8; 12]) -> [u8; 128] {
        let [c0, c1, c2, c3] = CHACHA20_CONSTANTS.map(|word| word as i32);
        let word = |bytes: &[u8], i: usize| {
            u32::from_le_bytes(bytes[4 * i..4 * i + 4].try_into().expect("4 bytes")) as i32
        };
        let k: [i32; 8] = std::array::from_fn(|i| word(key, i));
        let n: [i32; 3] = std::array::from_fn(|i| word(nonce, i));
        let (next, counter) = (counter.wrapping_add(1) as i32, counter as i32);
        let rows = [
            _mm256_setr_epi32(c0, c1, c2, c3, c0, c1, c2, c3),
            _mm256_setr_epi32(k[0], k[1], k[2], k[3], k[0], k[1], k[2], k[3]),
            _mm256_setr_epi32(k[4], k[5], k[6], k[7], k[4], k[5], k[6], k[7]),
            _mm256_setr_epi32(counter, n[0], n[1], n[2], next, n[0], n[1], n[2]),
        ];
        // Byte shuffles that rotate every 32-bit lane left by 16 and 8.
        let rotl16 = _mm256_setr_epi8(
            2, 3, 0, 1, 6, 7, 4, 5, 10, 11, 8, 9, 14, 15, 12, 13, 2, 3, 0, 1, 6, 7, 4, 5, 10, 11,
            8, 9, 14, 15, 12, 13,
        );
        let rotl8 = _mm256_setr_epi8(
            3, 0, 1, 2, 7, 4, 5, 6, 11, 8, 9, 10, 15, 12, 13, 14, 3, 0, 1, 2, 7, 4, 5, 6, 11, 8, 9,
            10, 15, 12, 13, 14,
        );
        let [mut a, mut b, mut c, mut d] = rows;
        // Four quarter rounds at once, one per column of the rows.
        macro_rules! quarter_rounds {
            () => {
                a = _mm256_add_epi32(a, b);
                d = _mm256_shuffle_epi8(_mm256_xor_si256(d, a), rotl16);
                c = _mm256_add_epi32(c, d);
                b = _mm256_xor_si256(b, c);
                b = _mm256_or_si256(_mm256_slli_epi32::<12>(b), _mm256_srli_epi32::<20>(b));
                a = _mm256_add_epi32(a, b);
                d = _mm256_shuffle_epi8(_mm256_xor_si256(d, a), rotl8);
                c = _mm256_add_epi32(c, d);
                b = _mm256_xor_si256(b, c);
                b = _mm256_or_si256(_mm256_slli_epi32::<7>(b), _mm256_srli_epi32::<25>(b));
            };
        }
        for _ in 0..10 {
            quarter_rounds!();
            // Rotate rows 1, 2 and 3 left by one, two and three lanes, so
            // each column holds a diagonal, run the diagonal round, and
            // rotate them back.
            b = _mm256_shuffle_epi32::<0x39>(b);
            c = _mm256_shuffle_epi32::<0x4e>(c);
            d = _mm256_shuffle_epi32::<0x93>(d);
            quarter_rounds!();
            b = _mm256_shuffle_epi32::<0x93>(b);
            c = _mm256_shuffle_epi32::<0x4e>(c);
            d = _mm256_shuffle_epi32::<0x39>(d);
        }
        let mut out = [0u8; 128];
        for (i, (row, input)) in [a, b, c, d].into_iter().zip(rows).enumerate() {
            let row = _mm256_add_epi32(row, input);
            let halves = [
                (16 * i, _mm256_castsi256_si128(row)),
                (64 + 16 * i, _mm256_extracti128_si256::<1>(row)),
            ];
            for (at, half) in halves {
                out[at..at + 8].copy_from_slice(&_mm_cvtsi128_si64(half).to_le_bytes());
                out[at + 8..at + 16].copy_from_slice(&_mm_extract_epi64::<1>(half).to_le_bytes());
            }
        }
        out
    }
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
    /// block, and padding built in a `Vec`. Kept as the oracle for the
    /// block buffer and the padding, with either compression: the old one
    /// ([`shuffled_compress`]) or the portable body.
    struct VecSha256 {
        state: [u32; 8],
        buffer: Vec<u8>,
        length_bits: u64,
        compress: fn(&mut [u32; 8], &[u8; 64]),
    }

    impl VecSha256 {
        fn new(compress: fn(&mut [u32; 8], &[u8; 64])) -> Self {
            VecSha256 {
                state: SHA256_H0,
                buffer: Vec::with_capacity(64),
                length_bits: 0,
                compress,
            }
        }

        fn update(&mut self, data: &[u8]) {
            self.length_bits = self.length_bits.wrapping_add((data.len() as u64) * 8);
            self.buffer.extend_from_slice(data);
            while self.buffer.len() >= 64 {
                let block: [u8; 64] = self.buffer[..64].try_into().expect("len checked");
                (self.compress)(&mut self.state, &block);
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
                (self.compress)(&mut self.state, &block);
            }
            let mut out = [0u8; SHA256_LEN];
            for (i, word) in self.state.iter().enumerate() {
                out[4 * i..4 * i + 4].copy_from_slice(&word.to_be_bytes());
            }
            out
        }
    }

    /// The compression the unrolled portable body replaced, which
    /// shuffles `a..h` every round.
    fn shuffled_compress(state: &mut [u32; 8], block: &[u8; 64]) {
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
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
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
        for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *s = s.wrapping_add(v);
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
            let mut oracle = VecSha256::new(shuffled_compress);
            let mut portable = VecSha256::new(sha256_compress_portable);
            let mut from = 0;
            for to in cuts.into_iter().chain([message.len()]) {
                fast.update(&message[from..to]);
                oracle.update(&message[from..to]);
                portable.update(&message[from..to]);
                from = to;
            }
            let expected = oracle.finalize();
            proptest::prop_assert_eq!(portable.finalize(), expected);
            proptest::prop_assert_eq!(fast.finalize(), expected);
            proptest::prop_assert_eq!(sha256(&message), expected);
        }

        /// The dispatched compression, on SHA-NI where the host has SHA
        /// and SSE4.1, against the portable body, on random states and
        /// blocks. On a host without them both sides run the portable
        /// body: the SHA-NI comparison cannot run there.
        #[test]
        fn sha256_compression_matches_the_portable_body(
            state in proptest::collection::vec(proptest::prelude::any::<u32>(), 8..9),
            block in proptest::collection::vec(proptest::prelude::any::<u8>(), 64..65),
        ) {
            let state: [u32; 8] = state.try_into().expect("8 words");
            let block: [u8; 64] = block.try_into().expect("64 bytes");
            let (mut fast, mut portable) = (state, state);
            sha256_compress(&mut fast, &block);
            sha256_compress_portable(&mut portable, &block);
            proptest::prop_assert_eq!(fast, portable);
        }
    }

    #[test]
    fn sha256_pads_every_tail_length_like_the_vec_hasher() {
        // Tails of 55, 56 and 63 bytes are where padding takes one block or
        // two; cover every tail length over two blocks.
        let data: Vec<u8> = (0..=255u8).cycle().take(200).collect();
        for len in 0..data.len() {
            let mut oracle = VecSha256::new(shuffled_compress);
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

    /// The 26-bit Poly1305 that [`Poly1305`] replaced, kept as its oracle.
    /// It MACs a whole message, its last partial block ended by a 1 byte
    /// (RFC 8439 §2.5).
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

    /// The AEAD's MAC input built whole, as the AEAD built it before it
    /// streamed: AAD, zero padding, ciphertext, zero padding, lengths.
    fn oracle_mac_data(aad: &[u8], ciphertext: &[u8]) -> Vec<u8> {
        let mut data = aad.to_vec();
        data.resize(data.len().div_ceil(16) * 16, 0);
        data.extend_from_slice(ciphertext);
        data.resize(data.len().div_ceil(16) * 16, 0);
        data.extend_from_slice(&(aad.len() as u64).to_le_bytes());
        data.extend_from_slice(&(ciphertext.len() as u64).to_le_bytes());
        data
    }

    /// ChaCha20-Poly1305 composed from the oracles: one scalar block per
    /// 64 data bytes from counter 1, the Poly1305 key from block 0, and
    /// the 26-bit MAC over [`oracle_mac_data`].
    fn oracle_seal(key: &[u8; 32], nonce: &[u8; 12], aad: &[u8], plaintext: &[u8]) -> Vec<u8> {
        let mut sealed = plaintext.to_vec();
        for (i, chunk) in sealed.chunks_mut(64).enumerate() {
            xor_in_place(chunk, &chacha20_block(key, 1 + i as u32, nonce));
        }
        let poly_key = chacha20_block(key, 0, nonce)[..32]
            .try_into()
            .expect("32 bytes");
        let tag = poly1305_mac(&poly_key, &oracle_mac_data(aad, &sealed));
        sealed.extend_from_slice(&tag);
        sealed
    }

    fn bytes<const N: usize>(values: Vec<u8>) -> [u8; N] {
        values.try_into().expect("strategy draws N bytes")
    }

    proptest::proptest! {
        /// The two-block ChaCha20, in one AVX2 pass where the host has
        /// AVX2, against two scalar blocks, at a random counter and at one
        /// within four blocks of `u32::MAX`, where the second block wraps
        /// to 0. On a host without AVX2 both sides run the scalar block:
        /// the AVX2 comparison cannot run there.
        #[test]
        fn chacha20_block_pair_matches_two_scalar_blocks(
            key in proptest::collection::vec(proptest::prelude::any::<u8>(), 32..33),
            nonce in proptest::collection::vec(proptest::prelude::any::<u8>(), 12..13),
            counter in proptest::prelude::any::<u32>(),
        ) {
            let (key, nonce) = (bytes::<32>(key), bytes::<12>(nonce));
            for counter in [counter, u32::MAX - counter % 4] {
                let pair = chacha20_block_pair(&key, counter, &nonce);
                proptest::prop_assert_eq!(&pair[..64], &chacha20_block(&key, counter, &nonce)[..]);
                let second = chacha20_block(&key, counter.wrapping_add(1), &nonce);
                proptest::prop_assert_eq!(&pair[64..], &second[..]);
            }
        }

        /// The streamed 44-bit Poly1305 against the 26-bit oracle over an
        /// AEAD's MAC input. `edge` biases the cases: odd ones take the
        /// all-`0xff` key, which clamps `r` to its maximum and makes `s`
        /// its maximum; from 2 up, the AAD and message are all `0xff`.
        #[test]
        fn poly1305_streams_like_the_26_bit_oracle(
            key in proptest::collection::vec(proptest::prelude::any::<u8>(), 32..33),
            aad in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..301),
            message in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..301),
            edge in 0u8..4,
        ) {
            let key = if edge % 2 == 1 { [0xff; 32] } else { bytes::<32>(key) };
            let (mut aad, mut message) = (aad, message);
            if edge >= 2 {
                aad.fill(0xff);
                message.fill(0xff);
            }
            let expected = poly1305_mac(&key, &oracle_mac_data(&aad, &message));
            proptest::prop_assert_eq!(aead_tag(&key, &aad, &message), expected);
        }

        /// `aead_seal`, `aead_seal_into` and `aead_open` against the oracle
        /// composition at lengths from 0 to 300, every case also cut at 63,
        /// 64, 65, 127, 128 and 129 bytes; a flipped tag, ciphertext or
        /// AAD bit is refused. On a host without AVX2 the AEAD's keystream
        /// comes from the scalar block, so only the portable arm is
        /// compared there.
        #[test]
        fn aead_matches_the_oracle_composition(
            key in proptest::collection::vec(proptest::prelude::any::<u8>(), 32..33),
            nonce in proptest::collection::vec(proptest::prelude::any::<u8>(), 12..13),
            aad in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..65),
            message in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..301),
        ) {
            let (key, nonce) = (bytes::<32>(key), bytes::<12>(nonce));
            for len in [message.len(), 63, 64, 65, 127, 128, 129] {
                let plaintext = &message[..len.min(message.len())];
                let sealed = aead_seal(&key, &nonce, &aad, plaintext);
                proptest::prop_assert_eq!(&sealed, &oracle_seal(&key, &nonce, &aad, plaintext));
                let mut appended = b"header".to_vec();
                aead_seal_into(&key, &nonce, &aad, plaintext, &mut appended);
                proptest::prop_assert_eq!(&appended[6..], &sealed[..]);
                let opened = aead_open(&key, &nonce, &aad, &sealed);
                proptest::prop_assert_eq!(opened.as_deref(), Ok(plaintext));

                let mut bad_tag = sealed.clone();
                bad_tag[plaintext.len() + len % AEAD_TAG_LEN] ^= 1;
                proptest::prop_assert_eq!(aead_open(&key, &nonce, &aad, &bad_tag), Err(AeadError));
                if !plaintext.is_empty() {
                    let mut bad_ciphertext = sealed.clone();
                    bad_ciphertext[len % plaintext.len()] ^= 0x80;
                    let opened = aead_open(&key, &nonce, &aad, &bad_ciphertext);
                    proptest::prop_assert_eq!(opened, Err(AeadError));
                }
                let mut bad_aad = aad.clone();
                match bad_aad.first_mut() {
                    Some(byte) => *byte ^= 1,
                    None => bad_aad.push(0),
                }
                proptest::prop_assert_eq!(aead_open(&key, &nonce, &bad_aad, &sealed), Err(AeadError));
            }
        }
    }

    #[test]
    fn poly1305_subtracts_p_from_an_accumulator_at_or_above_it() {
        // With r = 1 the accumulator is the sum of the blocks plus 2^128
        // each: (2^129 - 1) + 2^128 + 2^128 = 2^130 - 1, which is p + 4.
        // The tag is then 4 + s (mod 2^128).
        let message: Vec<u8> = [[0xff; 16], [0; 16], [0; 16]].concat();
        for (s, tag) in [(0u128, 4u128), (u128::MAX, 3)] {
            let mut key = [0u8; 32];
            key[0] = 1;
            key[16..].copy_from_slice(&s.to_le_bytes());
            let mut mac = Poly1305::new(&key);
            mac.update_padded(&message);
            assert_eq!(mac.finish(), tag.to_le_bytes());
            assert_eq!(poly1305_mac(&key, &message), tag.to_le_bytes());
        }
    }
}
