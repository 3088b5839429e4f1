//! Listener overhead: the same inference measured three ways — directly on
//! `TopicServer`, over HTTP on a persistent (keep-alive) connection, and
//! over HTTP with a fresh connection per request — plus a `/healthz` round
//! trip as the pure-transport floor. The deltas between the columns are the
//! wire-protocol cost (parse + JSON encode) and the TCP setup cost.

use std::net::SocketAddr;
use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use saber_core::model::LdaModel;
use saber_serve::client::HttpClient;
use saber_serve::http::{HttpConfig, HttpServer};
use saber_serve::{wire, HttpTransportConfig, ServeConfig, TopicServer};
use std::hint::black_box;

const VOCAB: usize = 2_000;
const K: usize = 64;
const DOC_LEN: usize = 32;

fn bench_model() -> LdaModel {
    let mut model = LdaModel::new(VOCAB, K, 50.0 / K as f32, 0.01).unwrap();
    let mut rng = StdRng::seed_from_u64(42);
    for v in 0..VOCAB {
        for _ in 0..4 {
            let k = rng.gen_range(0..K);
            model.word_topic_mut()[(v, k)] += rng.gen_range(1u32..20);
        }
    }
    model.refresh_probabilities();
    model
}

fn doc() -> Vec<u32> {
    let mut rng = StdRng::seed_from_u64(7);
    (0..DOC_LEN)
        .map(|_| rng.gen_range(0..VOCAB) as u32)
        .collect()
}

fn client(addr: SocketAddr) -> HttpClient {
    HttpClient::new(addr, &HttpTransportConfig::default())
}

/// One request over `client`, returning the body length as a liveness
/// check.
fn send(client: &mut HttpClient, method: &str, path: &str, body: &[u8]) -> usize {
    let (status, body) = client.send(method, path, &[], body).unwrap();
    assert_eq!(status, 200, "unexpected response status");
    body.len()
}

fn bench_http_overhead(c: &mut Criterion) {
    let model = bench_model();
    let server = Arc::new(TopicServer::from_model(&model, ServeConfig::default()).unwrap());
    let front = HttpServer::bind(
        "127.0.0.1:0",
        Arc::clone(&server),
        None,
        HttpConfig::default(),
    )
    .unwrap();
    let addr = front.local_addr();
    let words = doc();

    let mut group = c.benchmark_group("http_overhead");
    group.sample_size(15);

    // Baseline: the same request straight into the worker pool.
    group.bench_function("direct_infer_32_tokens", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed = seed.wrapping_add(1);
            black_box(server.infer_topics(words.clone(), seed).unwrap())
        });
    });

    // The same request over one persistent HTTP connection.
    group.bench_function("http_keep_alive_infer_32_tokens", |b| {
        let mut client = client(addr);
        let mut seed = 0u64;
        b.iter(|| {
            seed = seed.wrapping_add(1);
            let payload = wire::encode_infer_request(&words, seed).to_string();
            black_box(send(&mut client, "POST", "/infer", payload.as_bytes()))
        });
    });

    // Fresh TCP connection per request: adds connect + teardown + a spawn.
    group.bench_function("http_fresh_connection_infer_32_tokens", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed = seed.wrapping_add(1);
            let payload = wire::encode_infer_request(&words, seed).to_string();
            black_box(send(
                &mut client(addr),
                "POST",
                "/infer",
                payload.as_bytes(),
            ))
        });
    });

    // Transport floor: no inference at all.
    group.bench_function("http_keep_alive_healthz", |b| {
        let mut client = client(addr);
        b.iter(|| black_box(send(&mut client, "GET", "/healthz", &[])));
    });

    group.finish();
    front.shutdown();
    Arc::try_unwrap(server).unwrap().shutdown();
}

criterion_group!(benches, bench_http_overhead);
criterion_main!(benches);
