//! HTTP serving demo: train a model, stand up the HTTP/1.1 front-end, and
//! exercise every endpoint over real TCP — including deterministic replay
//! via the `X-Saber-Seed` header and the `/stats` latency percentiles.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example http_serve
//! ```
//!
//! By default the example binds an OS-assigned port, drives a short demo
//! workload against itself, prints the equivalent `curl` commands, and
//! exits. To keep the server up for interactive `curl`ing:
//!
//! ```text
//! SABER_HTTP_HOLD=1 SABER_HTTP_ADDR=127.0.0.1:8080 \
//!     cargo run --release --example http_serve
//! ```

use std::sync::Arc;

use saberlda::corpus::synthetic::SyntheticSpec;
use saberlda::serve::client::HttpClient;
use saberlda::serve::http::{HttpConfig, HttpServer};
use saberlda::serve::{wire, HttpTransportConfig, ServeConfig, SnapshotSampler, TopicServer};
use saberlda::{SaberLda, SaberLdaConfig};

/// One request over the demo's keep-alive connection; returns the body.
fn http(
    client: &mut HttpClient,
    method: &str,
    target: &str,
    headers: &[(&str, &str)],
    body: &str,
) -> Result<String, Box<dyn std::error::Error>> {
    let (_, body) = client.send(method, target, headers, body.as_bytes())?;
    Ok(String::from_utf8(body)?)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    const K: usize = 8;

    // 1. Train a model on a synthetic corpus with an attached vocabulary so
    //    the raw-token `/infer` path and named `/top-words` work.
    let corpus = SyntheticSpec {
        n_docs: 400,
        vocab_size: 800,
        mean_doc_len: 60.0,
        n_topics: K,
        attach_vocabulary: true,
        ..SyntheticSpec::default()
    }
    .generate(11);
    let config = SaberLdaConfig::builder()
        .n_topics(K)
        .n_iterations(10)
        .seed(3)
        .build()?;
    let mut lda = SaberLda::new(config, &corpus)?;
    lda.train();
    println!(
        "trained: {} docs, {} tokens, K = {K}",
        corpus.n_docs(),
        corpus.n_tokens()
    );

    // 2. Publish to a TopicServer and put the HTTP listener in front of it.
    let server = Arc::new(TopicServer::from_model(
        lda.model(),
        ServeConfig {
            n_workers: 4,
            max_batch: 16,
            sampler: SnapshotSampler::WaryTree,
            ..ServeConfig::default()
        },
    )?);
    let addr = std::env::var("SABER_HTTP_ADDR").unwrap_or_else(|_| "127.0.0.1:0".into());
    let http_server = HttpServer::bind(
        &addr,
        Arc::clone(&server),
        corpus.vocabulary().cloned(),
        HttpConfig::default(),
    )?;
    let addr = http_server.local_addr();
    println!("listening on http://{addr}\n");
    println!("try it with curl:");
    println!("  curl http://{addr}/healthz");
    println!("  curl -X POST http://{addr}/infer -d '{{\"words\": [0, 8, 16], \"seed\": 7}}'");
    println!("  curl -X POST http://{addr}/infer -H 'X-Saber-Seed: 7' -d '{{\"tokens\": [\"w00000\", \"w00008\"], \"oov\": \"skip\"}}'");
    println!("  curl 'http://{addr}/top-words?topic=0&n=6'");
    println!("  curl 'http://{addr}/similar?a=0,8,16&b=1,9,17&seed=5'");
    println!("  curl http://{addr}/stats\n");

    if std::env::var("SABER_HTTP_HOLD").is_ok() {
        println!("SABER_HTTP_HOLD set: serving until killed (ctrl-c)");
        loop {
            std::thread::sleep(std::time::Duration::from_secs(3600));
        }
    }

    // 3. Demo workload over real TCP. Health first:
    let mut client = HttpClient::new(addr, &HttpTransportConfig::default());
    let health = http(&mut client, "GET", "/healthz", &[], "")?;
    println!("GET /healthz -> {health}");

    // Word-id inference with a seed in the body.
    let doc = corpus.document(0).words();
    let payload = wire::encode_infer_request(doc, 42).to_string();
    let first = http(&mut client, "POST", "/infer", &[], &payload)?;
    println!("POST /infer (doc 0, seed 42) -> {first}");

    // Deterministic replay: the same request again is bit-identical.
    let replay = http(&mut client, "POST", "/infer", &[], &payload)?;
    assert_eq!(first, replay, "equal seeds must replay bit-identically");
    println!("replay: second POST with seed 42 returned an identical body");

    // Raw tokens with the seed supplied via header instead of body.
    let payload = r#"{"tokens":["w00000","w00001","definitely-not-a-word"],"oov":"skip"}"#;
    let raw = http(
        &mut client,
        "POST",
        "/infer",
        &[("X-Saber-Seed", "7")],
        payload,
    )?;
    println!("POST /infer (raw tokens) -> {raw}");

    // A little traffic so /stats has percentiles to report.
    for seed in 0..32u64 {
        let payload = wire::encode_infer_request(&[0, 8, 16, 24], seed).to_string();
        http(&mut client, "POST", "/infer", &[], &payload)?;
    }
    let top = http(&mut client, "GET", "/top-words?topic=0&n=6", &[], "")?;
    println!("GET /top-words?topic=0&n=6 -> {top}");
    let similar = http(
        &mut client,
        "GET",
        "/similar?a=0,8,16&b=1,9,17&seed=5",
        &[],
        "",
    )?;
    println!("GET /similar -> {similar}");
    let stats = http(&mut client, "GET", "/stats", &[], "")?;
    println!("GET /stats -> {stats}");

    // Close the keep-alive connection so the listener drains at once.
    drop(client);
    http_server.shutdown();
    Arc::try_unwrap(server)
        .expect("http server released its handle")
        .shutdown();
    println!("\nlistener and worker pool drained; bye");
    Ok(())
}
