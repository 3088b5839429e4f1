//! `train-k1000`: batch training at the ledger's pinned configuration.
//!
//! `SaberLda::new`, untimed burn-in iterations, then a fixed number of
//! timed `iterate()` calls at a fixed seed, each followed by fold-in reads
//! of held-out documents: V = 20k, K = 1000, about 600k NYTimes-like
//! tokens (332 per document) in 4 chunks. The traced run replays the
//! trainer's layer calls
//! (`build_chunks`, `sample_chunk`, `rebuild_doc_topic`,
//! `accumulate_word_topic`, `refresh_probabilities`, `WordSampler::build`)
//! in the trainer's order from the same seed, with a span around each, and
//! reports whether its final `word_topic` matches the trainer's.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use saber_core::count::{accumulate_word_topic, rebuild_doc_topic};
use saber_core::infer::fold_in_em;
use saber_core::kernel::sample_chunk;
use saber_core::layout::{build_chunks, Chunk};
use saber_core::trees::WordSampler;
use saber_core::{HeldOutEvaluator, LdaModel, SaberLda, SaberLdaConfig};
use saber_corpus::presets::DatasetPreset;
use saber_corpus::split::train_test_split;
use saber_corpus::synthetic::SyntheticSpec;
use saber_corpus::Corpus;
use saber_gpu_sim::MemoryTracker;
use saber_sparse::{CsrMatrix, DenseMatrix};

use crate::stats::Samples;
use crate::trace::Tracer;
use crate::{ms, Outcome};

/// Documents generated; a tenth is held out.
const N_DOCS: usize = 2_000;
const VOCAB: usize = 20_000;
const TOPICS: usize = 1_000;
const CHUNKS: usize = 4;
/// `SaberLda::new` calls whose median is `setup_s`.
const SETUP_REPEATS: usize = 5;
/// Fold-in EM iterations per held-out read (the evaluator's default).
const FOLD_IN_ITERATIONS: usize = 10;

struct Inputs {
    corpus: Corpus,
    held_out: Corpus,
    config: SaberLdaConfig,
}

fn inputs(seed: u64) -> Result<Inputs, String> {
    let spec = SyntheticSpec {
        n_docs: N_DOCS,
        vocab_size: VOCAB,
        ..DatasetPreset::NyTimes.synthetic_spec(1_000)
    };
    let split = train_test_split(&spec.generate(seed), 0.1, seed).map_err(|e| e.to_string())?;
    let config = SaberLdaConfig::builder()
        .n_topics(TOPICS)
        .n_chunks(CHUNKS)
        .seed(seed)
        .build()
        .map_err(|e| e.to_string())?;
    Ok(Inputs {
        corpus: split.train,
        held_out: split.test,
        config,
    })
}

/// Untimed iterations after set-up: the first sweeps of a chain started
/// from random topics are the slowest and their cost falls steeply as the
/// document–topic rows sparsify, so timing starts once that has settled.
const BURN_IN: usize = 10;

/// Timed iterations per run: one per requested second, at least 20 so the
/// iteration-time tail has ten samples beyond it. A count, not a deadline,
/// because each iteration costs a little less than the one before.
fn iterations(seconds: u64) -> usize {
    usize::try_from(seconds).map_or(usize::MAX, |s| s.max(20))
}

/// FNV-1a over the counts, to compare two `word_topic` matrices without
/// keeping both.
fn fingerprint(m: &DenseMatrix<u32>) -> u64 {
    m.as_slice().iter().fold(0xcbf2_9ce4_8422_2325, |h, &x| {
        (h ^ u64::from(x)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// What the timed run leaves for the traced run to compare against.
struct Timed {
    iterate_s: f64,
    fingerprint: u64,
    dram_bytes: f64,
    sim_iter_s: f64,
}

pub fn run(seed: u64, seconds: u64, traced: bool) -> Result<Outcome, String> {
    let inputs = inputs(seed)?;
    let n_iter = iterations(seconds);
    let mut out = Outcome::default();

    // ---- Set-up: SaberLda::new, several times. ----
    let mut setup = Samples::new();
    let mut trainer = None;
    for _ in 0..SETUP_REPEATS {
        drop(trainer.take());
        let t = Instant::now();
        trainer =
            Some(SaberLda::new(inputs.config.clone(), &inputs.corpus).map_err(|e| e.to_string())?);
        setup.push(t.elapsed().as_secs_f64());
    }
    let mut lda = trainer.expect("at least one set-up");
    for _ in 0..BURN_IN {
        lda.iterate();
    }

    // ---- Timed iterations, each followed by its share of the reads:
    // fold-in of held-out documents against B̂ (interleaved, so a slow
    // stretch of the machine does not land on the reads alone). ----
    let evaluator = HeldOutEvaluator::new(&inputs.held_out, seed).map_err(|e| e.to_string())?;
    let docs = inputs.held_out.documents();
    let reads_per_iter = docs.len().div_ceil(n_iter);
    let mut iter_ms = Samples::new();
    let mut read_ms = Samples::new();
    let (mut tokens, mut dram, mut sim) = (0u64, 0u64, 0.0f64);
    for it in 0..n_iter {
        let t = Instant::now();
        let stats = lda.iterate();
        iter_ms.push(ms(t.elapsed()));
        tokens += stats.tokens;
        dram += stats.sampling_dram_bytes;
        sim += stats.phases.total();
        for doc in docs.iter().skip(it * reads_per_iter).take(reads_per_iter) {
            let t = Instant::now();
            let theta = fold_in_em(
                doc.words(),
                lda.model().word_topic_prob(),
                inputs.config.alpha,
                FOLD_IN_ITERATIONS,
            );
            read_ms.push(ms(t.elapsed()));
            let mass: f64 = theta.iter().sum();
            if (mass - 1.0).abs() > 1e-6 {
                out.fail(format!("held-out fold-in θ sums to {mass}"));
            }
        }
    }
    let iterate_s = iter_ms.sum() / 1e3;
    out.attempted = n_iter as u64;

    // ---- Correctness: every token counted once, finite likelihood. ----
    let counted = lda.model().word_topic().total();
    if counted != lda.n_tokens() || tokens != n_iter as u64 * lda.n_tokens() {
        out.fail(format!(
            "word_topic sums to {counted} over {} tokens; {tokens} sampled in {n_iter} iterations",
            lda.n_tokens()
        ));
    }
    let ll = evaluator.log_likelihood(lda.model().word_topic_prob(), inputs.config.alpha);
    if !ll.is_finite() {
        out.fail(format!("held-out log-likelihood is {ll}"));
    }

    out.setup(&setup);
    out.metric("throughput", "1/s", tokens as f64 / iterate_s);
    out.metric("heldout_nll", "nats/token", -ll);
    out.latency("op", &iter_ms)?;
    out.latency("read", &read_ms)?;
    out.metric("train.tok_per_s", "tokens/s", tokens as f64 / iterate_s);
    out.metric("train.heldout_ll", "nats/token", ll);
    out.metric("train.iterations", "count", n_iter as f64);

    if traced {
        let timed = Timed {
            iterate_s,
            fingerprint: fingerprint(lda.model().word_topic()),
            dram_bytes: dram as f64 / n_iter as f64,
            sim_iter_s: sim / n_iter as f64,
        };
        drop(lda);
        mirror(&inputs, n_iter, &timed, &mut out)?;
    }
    Ok(out)
}

/// One M-step through the public layer functions, as the trainer runs it.
fn m_step(
    tracer: &mut Tracer,
    request: u64,
    inputs: &Inputs,
    chunks: &[Chunk],
    model: &mut LdaModel,
    tracker: &mut MemoryTracker,
) -> (Vec<CsrMatrix<u32>>, Vec<WordSampler>) {
    let config = &inputs.config;
    model.word_topic_mut().clear();
    let mut doc_topics = Vec::with_capacity(chunks.len());
    for chunk in chunks {
        doc_topics.push(tracer.leaf("core.count.rebuild", request, || {
            rebuild_doc_topic(chunk, config.n_topics, config.count_rebuild, tracker)
        }));
        tracer.leaf("core.count.accumulate", request, || {
            accumulate_word_topic(chunk, model.word_topic_mut(), tracker)
        });
    }
    tracer.leaf("core.model.refresh", request, || {
        model.refresh_probabilities()
    });
    let samplers = tracer.leaf("core.trees.build", request, || {
        (0..model.vocab_size())
            .map(|v| WordSampler::build(config.preprocess, model.word_topic_prob().row(v)))
            .collect()
    });
    (doc_topics, samplers)
}

/// The traced replay of `SaberLda::new` + `iterate()`.
fn mirror(inputs: &Inputs, n_iter: usize, timed: &Timed, out: &mut Outcome) -> Result<(), String> {
    let config = &inputs.config;
    let l2 = config.device.l2_cache_bytes;
    let mut setup_tracer = Tracer::new();
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut chunks = setup_tracer.leaf("core.layout.build", 0, || {
        build_chunks(
            &inputs.corpus,
            config.n_chunks,
            config.token_order,
            config.sort_words_by_frequency,
        )
    });
    for c in &mut chunks {
        c.randomize_topics(config.n_topics, &mut rng);
    }
    let mut model = LdaModel::new(
        inputs.corpus.vocab_size(),
        config.n_topics,
        config.alpha,
        config.beta,
    )
    .map_err(|e| e.to_string())?;
    let mut tracker = MemoryTracker::new(l2);
    let (mut doc_topics, mut samplers) = m_step(
        &mut setup_tracer,
        0,
        inputs,
        &chunks,
        &mut model,
        &mut tracker,
    );

    // The burn-in iterations run through the same calls into a tracer that
    // is thrown away; the timed ones into the one that is reported.
    let (mut burn_tracer, mut tracer) = (Tracer::new(), Tracer::new());
    let (mut tokens, mut kd_sum) = (0u64, 0.0f64);
    for it in 0..BURN_IN + n_iter {
        let timed_iteration = it >= BURN_IN;
        let t = if timed_iteration {
            &mut tracer
        } else {
            &mut burn_tracer
        };
        let id = it as u64;
        let root = t.begin("train.iterate", id);
        let mut sampled = 0;
        for (ci, chunk) in chunks.iter_mut().enumerate() {
            let mut tracker = MemoryTracker::new(l2);
            sampled += t.leaf("core.kernel.sample", id, || {
                sample_chunk(
                    chunk,
                    &doc_topics[ci],
                    &model,
                    &samplers,
                    config,
                    &mut tracker,
                    &mut rng,
                )
            });
        }
        let mut tracker = MemoryTracker::new(l2);
        (doc_topics, samplers) = m_step(t, id, inputs, &chunks, &mut model, &mut tracker);
        t.end(root);
        if timed_iteration {
            let (nnz, rows) = doc_topics
                .iter()
                .fold((0, 0), |(n, r), a| (n + a.nnz(), r + a.rows()));
            kd_sum += nnz as f64 / rows as f64;
            tokens += sampled;
        }
    }
    crate::write_spans("train-k1000", &[&setup_tracer, &tracer])?;

    let layers = tracer.layer_times();
    let per_iter = |name: &str| layers.get(name).map_or(0.0, |l| l.self_s) / n_iter as f64;
    let mirror_s: f64 = tracer
        .spans()
        .iter()
        .filter(|s| s.name == "train.iterate")
        .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
        .sum();
    let explained: f64 = [
        "core.kernel.sample",
        "core.count.rebuild",
        "core.count.accumulate",
        "core.model.refresh",
        "core.trees.build",
    ]
    .iter()
    .map(|n| per_iter(n) * n_iter as f64)
    .sum();
    let matches = fingerprint(model.word_topic()) == timed.fingerprint;

    out.metric(
        "core.layout.build_s",
        "s",
        setup_tracer.layer_times()["core.layout.build"].self_s,
    );
    out.metric("core.kernel.sample_s", "s", per_iter("core.kernel.sample"));
    out.metric(
        "core.kernel.ns_per_token",
        "ns",
        per_iter("core.kernel.sample") * n_iter as f64 * 1e9 / tokens as f64,
    );
    out.metric("core.count.rebuild_s", "s", per_iter("core.count.rebuild"));
    out.metric(
        "core.count.accumulate_s",
        "s",
        per_iter("core.count.accumulate"),
    );
    out.metric("core.model.refresh_s", "s", per_iter("core.model.refresh"));
    out.metric("core.trees.build_s", "s", per_iter("core.trees.build"));
    out.metric("core.doc_topic.mean_kd", "count", kd_sum / n_iter as f64);
    out.metric("gpu-sim.sampling_dram_bytes", "bytes", timed.dram_bytes);
    out.metric("gpu-sim.sim_iter_s", "s", timed.sim_iter_s);
    // Coverage within the replay: the share of its own `train.iterate`
    // spans that no layer span covers. The gap to the timed `iterate()`
    // calls, which also do the GPU cost accounting the replay skips, is
    // `trace.overhead_frac`.
    out.metric(
        "train.unexplained_frac",
        "ratio",
        1.0 - explained / mirror_s,
    );
    out.metric("core.mirror_match", "count", f64::from(u8::from(matches)));
    out.metric(
        "trace.overhead_frac",
        "ratio",
        mirror_s / timed.iterate_s - 1.0,
    );
    Ok(())
}
