//! Criterion bench for the relay's cryptographic path (supports E3's relay
//! stage and the secure-storage cost model): AEAD sealing, hashing and the
//! secure-channel record path.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use perisec_optee::crypto::{aead_seal, hkdf, nonce_from_sequence, sha256};
use perisec_relay::tls::{SecureChannelClient, SecureChannelServer, PSK_LEN};

fn bench_primitives(c: &mut Criterion) {
    let mut group = c.benchmark_group("relay_crypto_primitives");
    group.sample_size(30);
    for &size in &[256usize, 4096, 65536] {
        let data = vec![0xa5u8; size];
        group.throughput(Throughput::Bytes(size as u64));
        group.bench_with_input(BenchmarkId::new("sha256", size), &data, |b, data| {
            b.iter(|| sha256(data));
        });
        let key = [7u8; 32];
        group.bench_with_input(
            BenchmarkId::new("chacha20poly1305_seal", size),
            &data,
            |b, data| {
                b.iter(|| aead_seal(&key, &nonce_from_sequence(1), b"aad", data));
            },
        );
    }
    group.bench_function("hkdf_64_bytes", |b| {
        b.iter(|| hkdf(b"salt", b"input keying material", b"info", 64));
    });
    group.finish();
}

fn bench_channel(c: &mut Criterion) {
    let mut group = c.benchmark_group("relay_secure_channel");
    group.sample_size(30);
    let psk = [9u8; PSK_LEN];
    group.bench_function("handshake", |b| {
        b.iter(|| {
            let mut client = SecureChannelClient::new(psk, 1);
            let mut server = SecureChannelServer::new(psk, 2);
            let hello = server.process_client_hello(&client.client_hello()).unwrap();
            client.process_server_hello(&hello).unwrap();
        });
    });
    let mut client = SecureChannelClient::new(psk, 1);
    let mut server = SecureChannelServer::new(psk, 2);
    let client_hello = client.client_hello();
    let server_hello = server.process_client_hello(&client_hello).unwrap();
    client.process_server_hello(&server_hello).unwrap();
    // Each half of the handshake alone: the device's and the cloud's side.
    group.bench_function("handshake_client_half", |b| {
        b.iter(|| {
            let mut client = SecureChannelClient::new(psk, 1);
            client.process_server_hello(&server_hello).unwrap();
            client
        });
    });
    group.bench_function("handshake_server_half", |b| {
        b.iter(|| {
            let mut server = SecureChannelServer::new(psk, 2);
            server.process_client_hello(&client_hello).unwrap()
        });
    });
    // Records of the sizes the ingest plane carries: verdict records,
    // attestation requests and acks are tens of bytes.
    for size in [41usize, 50, 64] {
        let payload = vec![0x42u8; size];
        let record = client.seal_at(7, &payload).unwrap();
        group.bench_with_input(BenchmarkId::new("seal_at", size), &payload, |b, payload| {
            b.iter(|| client.seal_at(7, payload).unwrap());
        });
        group.bench_with_input(
            BenchmarkId::new("open_explicit", size),
            &record,
            |b, record| {
                b.iter(|| server.open_explicit(record).unwrap());
            },
        );
    }
    let payload = vec![0x42u8; 8 * 1024];
    group.throughput(Throughput::Bytes(payload.len() as u64));
    group.bench_function("seal_8kib_record", |b| {
        b.iter(|| client.seal_at(0, &payload).unwrap());
    });
    group.finish();
}

criterion_group!(benches, bench_primitives, bench_channel);
criterion_main!(benches);
