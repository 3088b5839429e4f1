//! The serving side of `serve-train`: inputs, the served model,
//! fleet set-up, the θ check against an in-process fleet, and the traced
//! decomposition of a request into the layers it crosses.
//!
//! The served model (V = 20k, K = 256, PubMed-like corpus) is trained by
//! the benchmark before set-up timing starts. Requests are documents of
//! about 332 tokens from the same generator, each with its own sampling
//! seed. The traced run replays a sample of requests one at a time and
//! splits each into HTTP ingress, `ShardPlan::split`, the transport legs,
//! the shard server, the partial fold-in, the wire codecs and the router's
//! merge.

use std::time::{Duration, Instant};

use saber_core::infer::{esca_theta, PartialFoldIn};
use saber_core::json::{self, JsonValue};
use saber_core::{HeldOutEvaluator, LdaModel, SaberLda, SaberLdaConfig};
use saber_corpus::presets::DatasetPreset;
use saber_corpus::split::train_test_split;
use saber_corpus::synthetic::SyntheticSpec;
use saber_corpus::Corpus;
use saber_serve::transport::PendingPartial;
use saber_serve::{
    derive_shard_seed, wire, PartialRequest, ServeConfig, ShardPlan, ShardRouter, ShardTransport,
};
use saber_trace::TraceContext;

use crate::fleet::Fleet;
use crate::load::Client;
use crate::stats::Samples;
use crate::trace::Tracer;
use crate::Outcome;

/// The fixed read rate: 15–45 % of what two closed-loop connections sustain
/// against this fleet on the 2-vCPU reference host (230–610 req/s as the
/// host's load varies).
pub const READ_QPS: f64 = 100.0;

const VOCAB: usize = 20_000;
const TOPICS: usize = 256;
/// Documents generated for the served model; a tenth are held out.
const N_DOCS: usize = 4_000;
/// Distinct request documents.
const REQUEST_DOCS: usize = 4_000;
/// Mean request length, in tokens: NYTimes-length documents against the
/// PubMed-like model. At PubMed's 90 tokens a request is mostly hand-offs
/// between threads, whose latency on a shared 2-vCPU VM swings with the
/// host's load; at 332 the fold-in dominates it.
const REQUEST_DOC_LEN: f64 = 332.0;
const TRAIN_ITERATIONS: usize = 10;
/// Fleet boots whose median is `setup_s`.
const SETUP_REPEATS: usize = 15;
/// Requests the traced run decomposes.
const TRACED_REQUESTS: usize = 300;
/// Deadline for in-process calls of the traced run.
const DEADLINE: Duration = Duration::from_secs(2);

/// One request: a document and its sampling seed.
#[derive(Debug, Clone)]
pub struct Request {
    /// Word ids.
    pub words: Vec<u32>,
    /// Sampling seed.
    pub seed: u64,
}

/// Everything `serve-train` generates from its seed.
pub struct ServeInputs {
    /// The served model's training corpus.
    pub corpus: Corpus,
    /// Documents held out for `heldout_nll`.
    pub held_out: Corpus,
    /// The request trace, cycled by index.
    pub requests: Vec<Request>,
    /// Documents streamed to a training pipeline, drawn from the same
    /// planted topics.
    pub feed: Vec<Vec<u32>>,
}

/// One SplitMix64 step, for per-request seeds.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The serving inputs for `seed`, with `feed_docs` extra documents to
/// stream.
pub fn inputs(seed: u64, feed_docs: usize) -> Result<ServeInputs, String> {
    let spec = SyntheticSpec {
        n_docs: N_DOCS + feed_docs,
        vocab_size: VOCAB,
        ..DatasetPreset::PubMed.synthetic_spec(10_000)
    };
    let all = spec.generate(seed);
    let words = |corpus: &Corpus, range: std::ops::Range<usize>| {
        corpus.documents()[range]
            .iter()
            .filter(|d| !d.is_empty())
            .map(|d| d.words().to_vec())
            .collect::<Vec<_>>()
    };
    let request_docs = SyntheticSpec {
        n_docs: REQUEST_DOCS,
        mean_doc_len: REQUEST_DOC_LEN,
        ..spec.clone()
    }
    .generate(seed);
    let requests = words(&request_docs, 0..REQUEST_DOCS)
        .into_iter()
        .enumerate()
        .map(|(i, words)| Request {
            words,
            seed: splitmix64(seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
        })
        .collect();
    let feed = words(&all, N_DOCS..all.n_docs());
    let split =
        train_test_split(&all.select_documents(0..N_DOCS), 0.1, seed).map_err(|e| e.to_string())?;
    Ok(ServeInputs {
        corpus: split.train,
        held_out: split.test,
        requests,
        feed,
    })
}

/// Trains the served model (not timed).
pub fn train_model(inputs: &ServeInputs, seed: u64) -> Result<SaberLda, String> {
    let config = SaberLdaConfig::builder()
        .n_topics(TOPICS)
        .n_chunks(2)
        .seed(seed)
        .build()
        .map_err(|e| e.to_string())?;
    let mut lda = SaberLda::new(config, &inputs.corpus).map_err(|e| e.to_string())?;
    for _ in 0..TRAIN_ITERATIONS {
        lda.iterate();
    }
    Ok(lda)
}

/// Held-out negative log-likelihood per token of `model`.
pub fn heldout_nll(inputs: &ServeInputs, model: &LdaModel, seed: u64) -> Result<f64, String> {
    let evaluator = HeldOutEvaluator::new(&inputs.held_out, seed).map_err(|e| e.to_string())?;
    let ll = evaluator.log_likelihood(model.word_topic_prob(), model.alpha());
    if ll.is_finite() {
        Ok(-ll)
    } else {
        Err(format!("held-out log-likelihood is {ll}"))
    }
}

/// The θ of an `/infer` response body, as f32 bit patterns.
pub fn theta_bits(body: &[u8]) -> Result<Vec<u32>, String> {
    let text = std::str::from_utf8(body).map_err(|_| "response is not UTF-8")?;
    let value = json::parse(text).map_err(|e| e.to_string())?;
    value
        .get("theta")
        .and_then(JsonValue::as_array)
        .ok_or("response has no theta")?
        .iter()
        .map(|x| {
            x.as_f64()
                .map(|v| (v as f32).to_bits())
                .ok_or_else(|| "theta holds a non-number".to_string())
        })
        .collect()
}

/// Boots the fleet `SETUP_REPEATS` times, keeping the last; returns it and
/// the boot times.
pub fn boot_fleet(model: &LdaModel) -> Result<(Fleet, Samples), String> {
    let mut setups = Samples::new();
    let mut fleet: Option<Fleet> = None;
    for _ in 0..SETUP_REPEATS {
        if let Some(f) = fleet.take() {
            f.shutdown();
        }
        let t = Instant::now();
        fleet = Some(Fleet::boot(model, ServeConfig::default())?);
        setups.push(t.elapsed().as_secs_f64());
    }
    Ok((fleet.expect("at least one boot"), setups))
}

/// Checks captured `(request index, θ bits)` pairs against an in-process
/// 2-shard router over the same model and seeds.
pub fn check_thetas(
    model: &LdaModel,
    requests: &[Request],
    captured: &[(usize, Vec<u32>)],
    out: &mut Outcome,
) -> Result<(), String> {
    let plan = ShardPlan::uniform(model.vocab_size(), crate::fleet::N_SHARDS)
        .map_err(|e| e.to_string())?;
    let reference =
        ShardRouter::from_model(model, plan, ServeConfig::default()).map_err(|e| e.to_string())?;
    for (i, bits) in captured {
        let r = &requests[i % requests.len()];
        let want = reference
            .infer_topics(r.words.clone(), r.seed)
            .map_err(|e| e.to_string())?;
        let want: Vec<u32> = want.theta.iter().map(|x| x.to_bits()).collect();
        if &want != bits {
            out.fail(format!("request {i}: θ differs from the in-process fleet"));
        }
    }
    reference.shutdown();
    if captured.is_empty() {
        out.fail("no θ was captured to check".to_string());
    }
    Ok(())
}

/// Traces `TRACED_REQUESTS` requests one at a time: each over HTTP, then
/// through the same router in process, then call by call through the
/// fan-out, the shard servers, the fold-in and the wire codecs. Records the
/// request-path layer metrics and returns the spans.
pub fn decompose(fleet: &Fleet, requests: &[Request], out: &mut Outcome) -> Result<Tracer, String> {
    let router = &fleet.router;
    let config = *router.config();
    let mut client = Client::new(fleet.addr());
    let mut tracer = Tracer::new();
    let (mut rtt_s, mut router_s, mut unexplained_s) = (0.0, 0.0, 0.0);
    for (n, r) in requests.iter().take(TRACED_REQUESTS).enumerate() {
        let id = n as u64;
        let t = Instant::now();
        let (status, body) =
            tracer.leaf("serve.http.request", id, || client.infer(&r.words, r.seed))?;
        let rtt = t.elapsed().as_secs_f64();
        if status != 200 {
            return Err(format!("traced request answered {status}"));
        }
        let t = Instant::now();
        let direct = tracer
            .leaf("serve.router.infer", id, || {
                router.infer_with_deadline(r.words.clone(), r.seed, DEADLINE)
            })
            .map_err(|e| e.to_string())?;
        let routed = t.elapsed().as_secs_f64();

        // The router's fan-out, call by call.
        let root = tracer.begin("serve.router.decomposed", id);
        let t = Instant::now();
        let split = tracer
            .leaf("serve.shard.split", id, || router.plan().split(&r.words))
            .map_err(|e| e.to_string())?;
        let split_s = t.elapsed().as_secs_f64();
        let mut legs = Vec::new();
        for (s, words) in split.iter().enumerate() {
            if words.is_empty() {
                continue;
            }
            let start = tracer.now_ns();
            let pending = router.replica_sets()[s].replicas()[0]
                .submit_partial(
                    words.clone(),
                    PartialRequest::FoldIn {
                        seed: derive_shard_seed(r.seed, s),
                    },
                    Some(Instant::now() + DEADLINE),
                    TraceContext::disabled(),
                )
                .map_err(|e| e.to_string())?;
            legs.push((start, pending));
        }
        let mut merged = PartialFoldIn::empty(router.n_topics());
        let mut max_leg_s: f64 = 0.0;
        for (start, pending) in legs {
            let response = pending.wait(None).map_err(|e| e.to_string())?;
            let end = tracer.now_ns();
            tracer.record("serve.transport.leg", id, start, end);
            max_leg_s = max_leg_s.max((end - start) as f64 * 1e-9);
            merged.merge(&response.partial);
        }
        let t = Instant::now();
        let theta = tracer.leaf("serve.router.merge", id, || {
            esca_theta(
                merged.counts,
                merged.n_words,
                config.fold_in.samples,
                router.alpha(),
            )
        });
        let merge_s = t.elapsed().as_secs_f64();
        tracer.end(root);

        // Inside each leg: the shard server in process, its fold-in, and
        // the wire codecs the leg crosses.
        for (s, words) in split.iter().enumerate() {
            if words.is_empty() {
                continue;
            }
            let request = PartialRequest::FoldIn {
                seed: derive_shard_seed(r.seed, s),
            };
            let server = &fleet.shards[s].server;
            let response = tracer
                .leaf("serve.server.partial", id, || {
                    server.infer_partial_with_deadline(words.clone(), request.clone(), DEADLINE)
                })
                .map_err(|e| e.to_string())?;
            let snapshot = server.snapshot();
            tracer.leaf("core.infer.partial_fold_in", id, || {
                snapshot.partial_fold_in(words, derive_shard_seed(r.seed, s), config.fold_in)
            });
            let range = router.plan().range(s);
            tracer
                .leaf("serve.wire.codec", id, || {
                    let body = wire::encode_partial_request(words, &request).to_string();
                    wire::decode_partial_request(&body)?;
                    let body = wire::encode_partial_response(&response, (range.start, range.end))
                        .to_string();
                    wire::decode_partial_response(&body).map(|_| ())
                })
                .map_err(|e| e.to_string())?;
        }

        let http_bits = theta_bits(&body)?;
        let direct_bits: Vec<u32> = direct.theta.iter().map(|x| x.to_bits()).collect();
        let decomposed_bits: Vec<u32> = theta.iter().map(|&x| (x as f32).to_bits()).collect();
        if http_bits != direct_bits || http_bits != decomposed_bits {
            out.fail(format!(
                "traced request {n}: HTTP, in-process and decomposed θ differ"
            ));
        }
        rtt_s += rtt;
        router_s += routed;
        unexplained_s += routed - split_s - max_leg_s - merge_s;
    }
    let layers = tracer.layer_times();
    let mean_us = |name: &str| {
        layers
            .get(name)
            .map_or(0.0, |l| l.self_s * 1e6 / l.count as f64)
    };
    let n = TRACED_REQUESTS.min(requests.len()) as f64;
    out.metric("serve.http.ingress_us", "us", (rtt_s - router_s) * 1e6 / n);
    out.metric("serve.shard.split_us", "us", mean_us("serve.shard.split"));
    out.metric(
        "serve.transport.leg_us",
        "us",
        mean_us("serve.transport.leg"),
    );
    out.metric(
        "serve.server.partial_us",
        "us",
        mean_us("serve.server.partial"),
    );
    out.metric(
        "core.infer.partial_fold_in_us",
        "us",
        mean_us("core.infer.partial_fold_in"),
    );
    out.metric("serve.wire.codec_us", "us", mean_us("serve.wire.codec"));
    out.metric(
        "serve.transport.overhead_us",
        "us",
        mean_us("serve.transport.leg") - mean_us("serve.server.partial"),
    );
    out.metric("serve.router.merge_us", "us", mean_us("serve.router.merge"));
    out.metric("serve.unexplained_frac", "ratio", unexplained_s / rtt_s);
    out.attempted += 2 * n as u64;
    Ok(tracer)
}
