//! Ablation bench: building the PDOW layout vs. the doc-major layout, and the
//! DRAM traffic each induces in the sampling kernel (the G0→G1 step).
//!
//! For each layout, `resample_*` times the CPU sampling loop alone and
//! `account_*` the simulated GPU traffic of the same pass.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use saber_core::accounting::account_sampling;
use saber_core::config::{SaberLdaConfig, TokenOrder};
use saber_core::count::rebuild_reference;
use saber_core::kernel::resample_chunk;
use saber_core::layout::build_chunks;
use saber_core::model::LdaModel;
use saber_core::trees::WordSampler;
use saber_core::PreprocessKind;
use saber_corpus::synthetic::SyntheticSpec;
use saber_gpu_sim::MemoryTracker;
use std::hint::black_box;

fn corpus() -> saber_corpus::Corpus {
    SyntheticSpec {
        n_docs: 400,
        vocab_size: 1000,
        mean_doc_len: 70.0,
        n_topics: 16,
        ..SyntheticSpec::default()
    }
    .generate(8)
}

fn bench_layout_build(c: &mut Criterion) {
    let corpus = corpus();
    let mut group = c.benchmark_group("layout_build");
    group.sample_size(20);
    group.bench_function("pdow_word_major", |b| {
        b.iter(|| black_box(build_chunks(&corpus, 3, TokenOrder::WordMajor, true)))
    });
    group.bench_function("doc_major", |b| {
        b.iter(|| black_box(build_chunks(&corpus, 3, TokenOrder::DocMajor, false)))
    });
    group.finish();
}

fn bench_kernel_traffic(c: &mut Criterion) {
    let corpus = corpus();
    let k = 128usize;
    let mut group = c.benchmark_group("layout_kernel");
    group.sample_size(10);
    for (label, order) in [
        ("pdow", TokenOrder::WordMajor),
        ("doc_major", TokenOrder::DocMajor),
    ] {
        let config = SaberLdaConfig::builder()
            .n_topics(k)
            .token_order(order)
            .build()
            .unwrap();
        let mut chunks = build_chunks(&corpus, 1, order, true);
        chunks[0].randomize_topics(k, &mut StdRng::seed_from_u64(3));
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
        group.bench_function(format!("resample_{label}"), |b| {
            b.iter(|| {
                let mut chunk = chunks[0].clone();
                let mut rng = StdRng::seed_from_u64(4);
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
        group.bench_function(format!("account_{label}"), |b| {
            b.iter(|| {
                let mut tracker = MemoryTracker::new(1 << 21);
                account_sampling(&chunks[0], &a, &samplers, config.kernel, k, &mut tracker);
                black_box(tracker.stats().dram_bytes())
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_layout_build, bench_kernel_traffic);
criterion_main!(benches);
