//! Crypto microbenchmarks: the data plane's per-hop primitives (hop-field
//! MAC, AES-CMAC) and the control plane's (SHA-256 at the sizes it hashes,
//! HMAC over a 32-byte digest with a prepared key and from the raw one).

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use scion_crypto::cmac::Cmac;
use scion_crypto::hmac::{hmac_sha256, HmacKey};
use scion_crypto::mac::{HopKey, HopMacInput};
use scion_crypto::sha256::sha256;

fn bench_crypto(c: &mut Criterion) {
    let mut g = c.benchmark_group("crypto");
    let cmac = Cmac::new(&[7u8; 16]);
    let hop_key = HopKey::derive(b"as-secret", 1);
    let input = HopMacInput {
        beta: 0x1234,
        timestamp: 1_700_000_000,
        exp_time: 63,
        cons_ingress: 3,
        cons_egress: 7,
    };
    let mac = hop_key.mac(&input);
    g.throughput(Throughput::Elements(1));
    g.bench_function("hop_mac_verify", |b| {
        b.iter(|| assert!(hop_key.verify(&input, &mac)))
    });
    g.bench_function("aes_cmac_16B", |b| b.iter(|| cmac.tag(&[0u8; 16])));
    // A signature is an HMAC over an entry's 32-byte digest.
    let (secret, digest) = ([7u8; 32], [9u8; 32]);
    let keyed = HmacKey::new(&secret);
    g.bench_function("hmac_keyed_32B", |b| {
        b.iter(|| keyed.mac(black_box(&digest)))
    });
    g.bench_function("hmac_oneshot_32B", |b| {
        b.iter(|| hmac_sha256(black_box(&secret), black_box(&digest)))
    });
    // 12 bytes a hop: the fingerprint inputs of a 7- and a 10-hop path.
    g.throughput(Throughput::Bytes(84));
    g.bench_function("sha256_84B", |b| b.iter(|| sha256(black_box(&[0u8; 84]))));
    g.throughput(Throughput::Bytes(120));
    g.bench_function("sha256_120B", |b| b.iter(|| sha256(black_box(&[0u8; 120]))));
    g.throughput(Throughput::Bytes(1500));
    g.bench_function("sha256_1500B", |b| b.iter(|| sha256(&[0u8; 1500])));
    g.finish();
}

criterion_group!(benches, bench_crypto);
criterion_main!(benches);
