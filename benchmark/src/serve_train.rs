//! `serve-train`: continuous training that publishes delta epochs to the
//! remote 2-shard fleet while one client reads from it.
//!
//! A `TrainingPipeline` with the daemon's default cadence is warmed on the
//! served model's corpus and driven for [`TICKS`] ticks of 32 documents.
//! Its own publish cadence is set never to fire; an explicit `push_epoch()`
//! follows every `tick()`, which does the work of `publish_every = 1` but
//! lets ticks and publications be timed apart. Publications cross
//! `/publish-delta` and `/commit-epoch` on the shard listeners while the
//! reader sends `POST /infer` at the fixed read rate. After the traced
//! pipeline run, the traced run also decomposes requests on the same fleet
//! ([`serving::decompose`]).

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use saber_core::model_io::{save_delta, snapshot_encoded_bytes};
use saber_pipeline::{PipelineConfig, TrainingPipeline};
use saber_serve::{HttpTransport, InferenceSnapshot};
use saber_sparse::DenseMatrix;

use crate::fleet::Fleet;
use crate::load::{open_loop, Client, PhaseOutcome, Schedule};
use crate::serving::{
    self, boot_fleet, check_thetas, heldout_nll, inputs, theta_bits, train_model, ServeInputs,
    READ_QPS,
};
use crate::stats::Samples;
use crate::trace::Tracer;
use crate::{ms, Outcome};

/// Ticks per run; fixed, because tick cost grows with every tick.
pub const TICKS: usize = 48;
/// Requests checked against a cold boot after the run.
const CHECK_REQUESTS: usize = 64;

/// One pipeline run beside a reader.
struct PipelineRun {
    setups: Samples,
    /// Held-out negative log-likelihood of the final model.
    nll: f64,
    tick_ms: Samples,
    publish_ms: Samples,
    tokens_ingested: u64,
    reads: PhaseOutcome,
    /// Failed ticks and publications.
    errors: Vec<String>,
    /// Present for the traced run.
    trace: Option<TraceParts>,
}

/// What the traced run measured beyond the timed one.
struct TraceParts {
    tracer: Tracer,
    /// Spans of the request decomposition after the pipeline run.
    requests: Tracer,
    tokens_resampled: u64,
    rows_rebuilt: u64,
    router_publish_ms: f64,
    delta_bytes: u64,
    full_bytes: u64,
}

fn drive(
    inputs: &ServeInputs,
    seed: u64,
    traced: bool,
    out: &mut Outcome,
) -> Result<PipelineRun, String> {
    let trainer = train_model(inputs, seed)?;
    let (fleet, boots) = boot_fleet(trainer.model())?;
    let t = Instant::now();
    let config = PipelineConfig {
        publish_every: usize::MAX,
        ..PipelineConfig::default()
    };
    let batch = config.batch_docs;
    let mut pipeline =
        TrainingPipeline::new(trainer, fleet.router.clone(), config).map_err(|e| e.to_string())?;
    // Bootstrap = a fleet boot plus the pipeline over it.
    let new_s = t.elapsed().as_secs_f64();
    let setups = boots.iter().map(|b| b + new_s).collect();

    let stop = AtomicBool::new(false);
    let mut reader = Client::new(fleet.addr());
    let requests = &inputs.requests;
    let mut run = PipelineRun {
        setups,
        nll: 0.0,
        tick_ms: Samples::new(),
        publish_ms: Samples::new(),
        tokens_ingested: 0,
        reads: PhaseOutcome::default(),
        errors: Vec::new(),
        trace: None,
    };
    let mut parts = traced.then(|| TraceParts {
        tracer: Tracer::new(),
        requests: Tracer::new(),
        tokens_resampled: 0,
        rows_rebuilt: 0,
        router_publish_ms: 0.0,
        delta_bytes: 0,
        full_bytes: 0,
    });
    std::thread::scope(|scope| {
        let reads = scope.spawn(|| {
            open_loop(
                &mut reader,
                Schedule { rate: READ_QPS },
                &stop,
                |client, i| {
                    let r = &requests[i % requests.len()];
                    matches!(client.infer(&r.words, r.seed), Ok((200, _)))
                },
            )
        });
        let mut prev_bhat: Option<DenseMatrix<f32>> = None;
        for (t, docs) in inputs.feed.chunks(batch).take(TICKS).enumerate() {
            let id = t as u64;
            let started = Instant::now();
            let tick = match parts.as_mut() {
                Some(p) => p
                    .tracer
                    .leaf("pipeline.tick", id, || pipeline.tick(docs.to_vec())),
                None => pipeline.tick(docs.to_vec()),
            };
            run.tick_ms.push(ms(started.elapsed()));
            match tick {
                Ok(report) => {
                    run.tokens_ingested += report.tokens_ingested;
                    if let Some(p) = parts.as_mut() {
                        p.tokens_resampled += report.tokens_resampled;
                    }
                }
                Err(e) => run.errors.push(format!("tick {t}: {e}")),
            }
            let started = Instant::now();
            let pushed = match parts.as_mut() {
                Some(p) => p
                    .tracer
                    .leaf("pipeline.push_epoch", id, || pipeline.push_epoch()),
                None => pipeline.push_epoch(),
            };
            run.publish_ms.push(ms(started.elapsed()));
            if let Err(e) = pushed {
                run.errors.push(format!("publication {t}: {e}"));
            }
            if let Some(p) = parts.as_mut() {
                publication_layers(p, &pipeline, &fleet, id, &mut prev_bhat);
            }
        }
        stop.store(true, Ordering::Relaxed);
        run.reads = reads.join().expect("reader thread panicked");
    });

    // Every publication lands and no read drops; then the fleet must
    // answer like a cold boot of the trainer's final model.
    if let Some(first) = run.errors.first() {
        out.fail(format!(
            "{} pipeline operations failed, first {first}",
            run.errors.len()
        ));
    }
    if run.reads.failed > 0 {
        out.fail(format!(
            "{} of {} reads failed while epochs published",
            run.reads.failed, run.reads.attempted
        ));
    }
    let mut client = Client::new(fleet.addr());
    let mut captured = Vec::new();
    for (i, r) in requests.iter().take(CHECK_REQUESTS).enumerate() {
        let (status, body) = client.infer(&r.words, r.seed)?;
        if status != 200 {
            return Err(format!("check request answered {status}"));
        }
        captured.push((i, theta_bits(&body)?));
    }
    check_thetas(pipeline.trainer().model(), requests, &captured, out)?;
    if pipeline.served_epoch() != fleet.router.epoch() {
        out.fail("the fleet does not serve the pipeline's last epoch".to_string());
    }
    // Quality of what the trainer learned: its final counts with B̂
    // refreshed in full (the lazily refreshed rows it serves use stale
    // per-topic denominators and are not a normalised model).
    let mut learned = pipeline.trainer().model().clone();
    learned.refresh_probabilities();
    run.nll = heldout_nll(inputs, &learned, seed)?;

    if let Some(mut p) = parts {
        p.rows_rebuilt = pipeline.trainer().rows_rebuilt();
        fleet_counters(&fleet, &mut p, out);
        p.requests = serving::decompose(&fleet, requests, out)?;
        run.trace = Some(p);
    }
    drop(pipeline);
    fleet.shutdown();
    Ok(run)
}

/// The publication's layers, called again beside the real `push_epoch`:
/// export, per-shard delta build, `SABRDELTA` encode and apply.
fn publication_layers(
    p: &mut TraceParts,
    pipeline: &TrainingPipeline<HttpTransport>,
    fleet: &Fleet,
    id: u64,
    prev_bhat: &mut Option<DenseMatrix<f32>>,
) {
    let model = pipeline.trainer().model();
    let router = &fleet.router;
    let snapshot = p.tracer.leaf("serve.snapshot.export", id, || {
        InferenceSnapshot::from_model(model, router.config().sampler)
    });
    let bhat = model.word_topic_prob();
    // Rows whose B̂ changed since the previous publication.
    let changed: Vec<u32> = (0..bhat.rows())
        .filter(|&v| {
            prev_bhat.as_ref().is_none_or(|prev| {
                prev.row(v)
                    .iter()
                    .zip(bhat.row(v))
                    .any(|(a, b)| a.to_bits() != b.to_bits())
            })
        })
        .map(|v| v as u32)
        .collect();
    *prev_bhat = Some(bhat.clone());
    let epoch = pipeline.served_epoch();
    for (s, shard) in fleet.shards.iter().enumerate() {
        let range = router.plan().range(s);
        let delta = p.tracer.leaf("serve.snapshot.shard_delta", id, || {
            snapshot.shard_delta(range.clone(), &changed, epoch.saturating_sub(1), epoch)
        });
        let mut bytes = Vec::new();
        p.tracer
            .leaf("core.model_io.delta_encode", id, || {
                save_delta(&delta, &mut bytes)
            })
            .expect("encoding a delta into memory cannot fail");
        p.delta_bytes += bytes.len() as u64;
        p.full_bytes += snapshot_encoded_bytes(
            u64::from(range.end - range.start),
            snapshot.n_topics() as u64,
        )
        .unwrap_or(0);
        let served = shard.server.snapshot();
        p.tracer
            .leaf("serve.snapshot.apply_delta", id, || {
                served.apply_delta(&delta)
            })
            .expect("a delta cut from the served shape applies");
    }
}

/// Publication and serving counters from the fleet's public stats after
/// the pipeline run (the log₂ histogram values are coarse).
fn fleet_counters(fleet: &Fleet, p: &mut TraceParts, out: &mut Outcome) {
    let stats = fleet.router.stats();
    let router = fleet.router.router_stats();
    out.metric(
        "serve.server.swaps_observed",
        "count",
        stats.swaps_observed as f64,
    );
    out.metric("serve.server.mean_batch", "count", stats.mean_batch_size());
    out.metric(
        "serve.server.queue_wait_p99_us",
        "us_log2",
        stats.queue_wait.p99().unwrap_or(0.0),
    );
    out.metric(
        "serve.server.handler_p99_us",
        "us_log2",
        stats.handler.p99().unwrap_or(0.0),
    );
    out.metric(
        "serve.router.shard_requests",
        "count",
        router.shard_requests.iter().sum::<u64>() as f64,
    );
    out.metric(
        "serve.router.transport_retries",
        "count",
        router.transport_retries as f64,
    );
    out.metric(
        "serve.router.skew_retries",
        "count",
        router.skew_retries as f64,
    );
    out.metric("serve.http.errors", "count", fleet.front_errors() as f64);
    if let Some(pl) = router.pipeline {
        p.router_publish_ms = pl.publish_micros_total as f64 / 1e3;
        out.metric(
            "serve.router.publish_ms",
            "ms",
            p.router_publish_ms / pl.epochs_published.max(1) as f64,
        );
        out.metric(
            "serve.router.rows_shipped_frac",
            "ratio",
            pl.rows_shipped as f64 / pl.rows_total.max(1) as f64,
        );
        out.metric("serve.router.fallbacks", "count", pl.fallbacks as f64);
        out.metric(
            "serve.router.delta_epochs_frac",
            "ratio",
            pl.delta_epochs as f64 / pl.epochs_published.max(1) as f64,
        );
    }
}

pub fn run(seed: u64, traced: bool) -> Result<Outcome, String> {
    let inputs = inputs(seed, TICKS * PipelineConfig::default().batch_docs)?;
    let mut out = Outcome::default();
    let timed = drive(&inputs, seed, false, &mut out)?;
    let wall_s = (timed.tick_ms.sum() + timed.publish_ms.sum()) / 1e3;
    out.attempted = timed.reads.attempted + 2 * timed.tick_ms.len() as u64;
    out.failed = timed.reads.failed + timed.errors.len() as u64;
    out.setup(&timed.setups);
    out.metric("heldout_nll", "nats/token", timed.nll);
    out.metric("throughput", "1/s", timed.tokens_ingested as f64 / wall_s);
    out.latency("op", &timed.publish_ms)?;
    out.latency("read", &timed.reads.latency_ms)?;
    out.latency("publish", &timed.publish_ms)?;
    out.metric(
        "ingest.tok_per_s",
        "tokens/s",
        timed.tokens_ingested as f64 / wall_s,
    );
    out.latency("serve_train", &timed.reads.latency_ms)?;

    if traced {
        let run = drive(&inputs, seed, true, &mut out)?;
        out.attempted += run.reads.attempted + 2 * run.tick_ms.len() as u64;
        out.failed += run.reads.failed + run.errors.len() as u64;
        let p = run.trace.expect("traced drive keeps its trace");
        crate::write_spans("serve-train", &[&p.tracer, &p.requests])?;
        out.metric(
            "bench.gen_late_p99_ms",
            "ms",
            run.reads.late_ms.percentile(99.0).unwrap_or(0.0),
        );
        let layers = p.tracer.layer_times();
        let mean_ms = |name: &str| {
            layers
                .get(name)
                .map_or(0.0, |l| l.self_s * 1e3 / l.count as f64)
        };
        let ticks = run.tick_ms.len() as f64;
        let traced_wall_s = (run.tick_ms.sum() + run.publish_ms.sum()) / 1e3;
        out.metric("pipeline.tick_ms", "ms", mean_ms("pipeline.tick"));
        out.metric(
            "core.trainer.tokens_resampled_per_tick",
            "count",
            p.tokens_resampled as f64 / ticks,
        );
        out.metric("core.trainer.rows_rebuilt", "count", p.rows_rebuilt as f64);
        out.metric(
            "serve.snapshot.export_ms",
            "ms",
            mean_ms("serve.snapshot.export"),
        );
        out.metric(
            "serve.snapshot.shard_delta_ms",
            "ms",
            mean_ms("serve.snapshot.shard_delta"),
        );
        out.metric(
            "core.model_io.delta_encode_ms",
            "ms",
            mean_ms("core.model_io.delta_encode"),
        );
        out.metric(
            "core.model_io.delta_bytes",
            "bytes",
            p.delta_bytes as f64 / ticks,
        );
        out.metric(
            "core.model_io.full_bytes",
            "bytes",
            p.full_bytes as f64 / ticks,
        );
        out.metric(
            "serve.snapshot.apply_delta_ms",
            "ms",
            mean_ms("serve.snapshot.apply_delta"),
        );
        let export_s = layers
            .get("serve.snapshot.export")
            .map_or(0.0, |l| l.self_s);
        let push_s = run.publish_ms.sum() / 1e3;
        out.metric(
            "pipeline.unexplained_frac",
            "ratio",
            (push_s - export_s - p.router_publish_ms / 1e3) / traced_wall_s,
        );
        out.metric("trace.overhead_frac", "ratio", traced_wall_s / wall_s - 1.0);
    }
    Ok(out)
}
