//! Ablation bench: the E-step sampling kernel — warp-based vs. thread-based
//! mapping and scalar vs. warp-vectorised prefix search (§3.2).
//!
//! The `resample_*` rows time the CPU sampling loop alone, once per token
//! order (the thread mapping does not change what is sampled); the
//! `account_*` rows time the simulated GPU cost of each kernel, which is
//! where the mappings differ.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use saber_core::accounting::account_sampling;
use saber_core::config::{KernelKind, SaberLdaConfig, TokenOrder};
use saber_core::count::rebuild_reference;
use saber_core::kernel::{resample_chunk, warp_find_prefix_position};
use saber_core::layout::build_chunks;
use saber_core::model::LdaModel;
use saber_core::trees::WordSampler;
use saber_core::PreprocessKind;
use saber_corpus::synthetic::SyntheticSpec;
use saber_gpu_sim::MemoryTracker;
use saber_sparse::prefix::{find_in_prefix_sum, inclusive_prefix_sum};
use std::hint::black_box;

fn bench_kernel(c: &mut Criterion) {
    let corpus = SyntheticSpec {
        n_docs: 300,
        vocab_size: 800,
        mean_doc_len: 60.0,
        n_topics: 16,
        ..SyntheticSpec::default()
    }
    .generate(5);
    let k = 256usize;

    let mut group = c.benchmark_group("sampling_kernel");
    group.sample_size(10);
    for (label, kernel, order) in [
        (
            "warp_word_major",
            KernelKind::WarpBased,
            TokenOrder::WordMajor,
        ),
        (
            "thread_word_major",
            KernelKind::ThreadBased,
            TokenOrder::WordMajor,
        ),
        (
            "warp_doc_major",
            KernelKind::WarpBased,
            TokenOrder::DocMajor,
        ),
    ] {
        let config = SaberLdaConfig::builder()
            .n_topics(k)
            .n_iterations(1)
            .kernel(kernel)
            .token_order(order)
            .build()
            .unwrap();
        let mut chunks = build_chunks(&corpus, 1, order, true);
        let mut rng = StdRng::seed_from_u64(1);
        chunks[0].randomize_topics(k, &mut rng);
        let mut model = LdaModel::new(corpus.vocab_size(), k, config.alpha, config.beta).unwrap();
        model.rebuild_from_assignments(
            chunks[0]
                .iter_tokens()
                .map(|(w, _, t)| (w, t))
                .collect::<Vec<_>>(),
        );
        let samplers: Vec<WordSampler> = (0..corpus.vocab_size())
            .map(|v| WordSampler::build(PreprocessKind::WaryTree, model.word_topic_prob().row(v)))
            .collect();
        let a = rebuild_reference(&chunks[0], k);
        if kernel == KernelKind::WarpBased {
            let order_label = label.trim_start_matches("warp_");
            group.bench_function(format!("resample_{order_label}"), |b| {
                b.iter(|| {
                    let mut chunk = chunks[0].clone();
                    let mut rng = StdRng::seed_from_u64(2);
                    let bhat = model.word_topic_prob();
                    black_box(resample_chunk(
                        &mut chunk,
                        &a,
                        bhat,
                        &samplers,
                        config.alpha,
                        &mut rng,
                    ))
                })
            });
        }
        group.bench_function(format!("account_{label}"), |b| {
            b.iter(|| {
                let mut tracker = MemoryTracker::new(1 << 21);
                account_sampling(&chunks[0], &a, &samplers, kernel, k, &mut tracker);
                black_box(tracker.stats().dram_bytes())
            })
        });
    }
    group.finish();
}

fn bench_prefix_search(c: &mut Criterion) {
    let probs: Vec<f32> = (0..128).map(|i| ((i * 13) % 31) as f32 + 0.5).collect();
    let prefix = inclusive_prefix_sum(&probs);
    let total: f32 = probs.iter().sum();
    let xs: Vec<f32> = (0..256).map(|i| total * (i as f32 + 0.5) / 256.0).collect();

    let mut group = c.benchmark_group("prefix_search");
    group.bench_function("warp_vectorised", |b| {
        b.iter(|| {
            xs.iter()
                .map(|&x| warp_find_prefix_position(&probs, x))
                .sum::<usize>()
        })
    });
    group.bench_function("scalar_binary_search", |b| {
        b.iter(|| {
            xs.iter()
                .map(|&x| find_in_prefix_sum(&prefix, x))
                .sum::<usize>()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_kernel, bench_prefix_search);
criterion_main!(benches);
