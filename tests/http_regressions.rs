//! Regression tests for the HTTP front-end's request paths over real
//! localhost TCP, driven through the crate's own keep-alive client:
//!
//! * a raw-token `POST /infer` takes the same traced path as a word-id
//!   one, so its trace (and the `/stats` queue-wait/handler split built
//!   from it) covers the worker queue;
//! * a shard listener on the default configuration accepts a publication
//!   of its whole slice, even when that slice encodes to more than the
//!   default 1 MiB body cap.

use std::sync::Arc;

use saberlda::serve::client::HttpClient;
use saberlda::serve::{
    wire, HttpConfig, HttpServer, HttpTransport, HttpTransportConfig, InferenceSnapshot,
    ServeConfig, ShardPlan, ShardRouter, SnapshotSampler, TopicServer,
};
use saberlda::{LdaModel, Vocabulary};

/// A model whose word `v` belongs to topic `v % k`.
fn planted_model(vocab: usize, k: usize, weight: u32) -> LdaModel {
    let mut model = LdaModel::new(vocab, k, 0.1, 0.01).unwrap();
    for v in 0..vocab {
        model.word_topic_mut()[(v, v % k)] = weight;
    }
    model.refresh_probabilities();
    model
}

#[test]
fn raw_token_requests_trace_queue_wait_and_handler_spans() {
    const V: usize = 12;
    let server = Arc::new(
        TopicServer::from_model(&planted_model(V, 3, 20), ServeConfig::default()).unwrap(),
    );
    let http = HttpServer::bind(
        "127.0.0.1:0",
        server,
        Some(Vocabulary::synthetic(V)),
        HttpConfig::default(),
    )
    .unwrap();
    let mut client = HttpClient::new(http.local_addr(), &HttpTransportConfig::default());
    let body = r#"{"tokens":["w00000","w00003","nope"],"oov":"skip","seed":5}"#;
    let (status, reply) = client.send("POST", "/infer", &[], body.as_bytes()).unwrap();
    assert_eq!(status, 200, "{}", String::from_utf8_lossy(&reply));

    let (status, recent) = client.send("GET", "/trace/recent", &[], &[]).unwrap();
    assert_eq!(status, 200);
    let traces = wire::decode_trace_recent(std::str::from_utf8(&recent).unwrap()).unwrap();
    let trace = traces.first().expect("the request left a trace");
    let names: Vec<&str> = trace.spans.iter().map(|s| s.name.as_str()).collect();
    for expected in ["ingress", "parse", "queue-wait", "handler", "encode"] {
        assert!(names.contains(&expected), "missing {expected}: {names:?}");
    }
    drop(client);
    http.shutdown();
}

#[test]
fn default_config_shard_accepts_a_slice_above_one_mebibyte() {
    // 2048 words × 160 topics × 4 bytes ≈ 1.3 MB: over the 1 MiB default
    // body cap, yet exactly the shape the shard serves.
    const V: usize = 2048;
    const K: usize = 160;
    let config = ServeConfig {
        n_workers: 1,
        ..ServeConfig::default()
    };
    let snapshot = InferenceSnapshot::from_model(&planted_model(V, K, 20), config.sampler);
    let server = Arc::new(TopicServer::start(snapshot, config).unwrap());
    let http = HttpServer::bind("127.0.0.1:0", server, None, HttpConfig::default()).unwrap();
    let transport = HttpTransport::connect(http.local_addr()).unwrap();
    let router =
        ShardRouter::with_transports(ShardPlan::uniform(V, 1).unwrap(), vec![transport], config)
            .unwrap();

    let next = InferenceSnapshot::from_model(&planted_model(V, K, 40), SnapshotSampler::WaryTree);
    let slice_bytes = saberlda::core::model_io::snapshot_encoded_bytes(V as u64, K as u64).unwrap();
    assert!(slice_bytes > HttpConfig::default().max_body_bytes as u64);
    assert_eq!(router.publish(next).unwrap(), 2);
    assert_eq!(
        router
            .infer_topics(vec![0, K as u32], 1)
            .unwrap()
            .snapshot_version,
        2
    );

    router.shutdown();
    http.shutdown();
}
