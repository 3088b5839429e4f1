//! The E-step sampling kernel (§3.2, Fig. 5).
//!
//! [`resample_chunk`] re-samples every token of a chunk in storage order.
//! That is also the paper's processing order for both token orders:
//! [`crate::layout::build_chunks`] stores each segment — a word's tokens in
//! word-major order, a document's in doc-major order — contiguously and in
//! segment order, so the one loop serves every configuration.
//!
//! The paper's two thread mappings (warp-based and thread-based) and two
//! token orders differ in efficiency, not in statistics (§3.2): all of them
//! draw from [`crate::sampling::sample_token`]. What they cost on the GPU is
//! simulated separately, by [`crate::accounting::account_sampling`];
//! [`sample_chunk`] runs the two in turn.

use rand::rngs::StdRng;
use saber_gpu_sim::warp::{
    warp_inclusive_prefix_sum, warp_iterations, warp_vote_first_active, WARP_SIZE,
};
use saber_gpu_sim::MemoryTracker;
use saber_sparse::{CsrMatrix, DenseMatrix};

use crate::accounting::account_sampling;
use crate::config::SaberLdaConfig;
use crate::layout::Chunk;
use crate::model::LdaModel;
use crate::sampling::{sample_token, SampleScratch};
use crate::trees::WordSampler;

/// Runs the E-step over one chunk: re-samples every token's topic in place,
/// in storage order.
///
/// * `doc_topic` — the chunk's document–topic matrix from the previous M-step
///   (row `d` corresponds to local document `d`);
/// * `bhat` — the word–topic probabilities `B̂`;
/// * `samplers` — one pre-processed structure per word id.
///
/// Returns the number of tokens processed.
///
/// # Panics
///
/// Panics if `doc_topic` has fewer rows than the chunk has documents, or if a
/// word id has no sampler.
pub fn resample_chunk(
    chunk: &mut Chunk,
    doc_topic: &CsrMatrix<u32>,
    bhat: &DenseMatrix<f32>,
    samplers: &[WordSampler],
    alpha: f32,
    rng: &mut StdRng,
) -> u64 {
    assert!(
        doc_topic.rows() >= chunk.n_docs,
        "document-topic matrix has {} rows but the chunk has {} documents",
        doc_topic.rows(),
        chunk.n_docs
    );
    let mut scratch = SampleScratch::new();
    for t in 0..chunk.n_tokens() {
        let word = chunk.word_ids[t] as usize;
        let doc_row = doc_topic.row(chunk.local_doc_ids[t] as usize);
        let sampler = &samplers[word];
        chunk.topics[t] = sample_token(doc_row, bhat.row(word), alpha, sampler, &mut scratch, rng);
    }
    chunk.n_tokens() as u64
}

/// [`resample_chunk`] against `model`'s `B̂`, then the simulated cost of the
/// configured kernel charged to `tracker` ([`account_sampling`]).
///
/// # Panics
///
/// As [`resample_chunk`].
pub fn sample_chunk(
    chunk: &mut Chunk,
    doc_topic: &CsrMatrix<u32>,
    model: &LdaModel,
    samplers: &[WordSampler],
    config: &SaberLdaConfig,
    tracker: &mut MemoryTracker,
    rng: &mut StdRng,
) -> u64 {
    let (bhat, k) = (model.word_topic_prob(), model.n_topics());
    let tokens = resample_chunk(chunk, doc_topic, bhat, samplers, config.alpha, rng);
    account_sampling(chunk, doc_topic, samplers, config.kernel, k, tracker);
    tokens
}

/// Warp-vectorised search for the position of `x` in the prefix sums of
/// `probs` (the inner loop of Fig. 5): processes 32 values at a time with a
/// warp prefix sum, a ballot vote and a broadcast of the running total.
///
/// Returns the index of the first position whose inclusive prefix sum is
/// `>= x`, or `probs.len() - 1` if `x` exceeds the total (round-off).
///
/// # Panics
///
/// Panics if `probs` is empty.
pub fn warp_find_prefix_position(probs: &[f32], x: f32) -> usize {
    assert!(!probs.is_empty(), "probability vector must not be empty");
    let mut running = 0.0f32;
    for (start, lanes) in warp_iterations(probs.len()) {
        let mut lane_vals = [0.0f32; WARP_SIZE];
        lane_vals[..lanes].copy_from_slice(&probs[start..start + lanes]);
        warp_inclusive_prefix_sum(&mut lane_vals[..lanes]);
        if let Some(lane) = warp_vote_first_active(lanes, |l| running + lane_vals[l] >= x) {
            return start + lane;
        }
        running += lane_vals[lanes - 1];
    }
    probs.len() - 1
}

// The tests build chunks of every token order and kernel kind.
#[cfg(test)]
use crate::config::{KernelKind, TokenOrder};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CountRebuild, PreprocessKind, SaberLdaConfig};
    use crate::count::rebuild_reference;
    use crate::layout::build_chunks;
    use rand::SeedableRng;
    use saber_corpus::synthetic::SyntheticSpec;
    use saber_sparse::prefix::{find_in_prefix_sum_linear, inclusive_prefix_sum};

    fn setup(
        order: TokenOrder,
        kernel: KernelKind,
    ) -> (Vec<Chunk>, LdaModel, Vec<WordSampler>, SaberLdaConfig) {
        let corpus = SyntheticSpec::small_test().generate(11);
        let k = 8usize;
        let config = SaberLdaConfig::builder()
            .n_topics(k)
            .alpha(0.1)
            .n_iterations(1)
            .token_order(order)
            .kernel(kernel)
            .count_rebuild(CountRebuild::Ssc)
            .build()
            .unwrap();
        let mut chunks = build_chunks(&corpus, 2, order, true);
        let mut rng = StdRng::seed_from_u64(1);
        for c in &mut chunks {
            c.randomize_topics(k, &mut rng);
        }
        let mut model = LdaModel::new(corpus.vocab_size(), k, config.alpha, config.beta).unwrap();
        model.rebuild_from_assignments(
            chunks
                .iter()
                .flat_map(|c| c.iter_tokens().map(|(w, _, t)| (w, t)))
                .collect::<Vec<_>>(),
        );
        let samplers: Vec<WordSampler> = (0..corpus.vocab_size())
            .map(|v| WordSampler::build(PreprocessKind::WaryTree, model.word_topic_prob().row(v)))
            .collect();
        (chunks, model, samplers, config)
    }

    #[test]
    fn sampling_keeps_topics_in_range_and_processes_every_token() {
        for (order, kernel) in [
            (TokenOrder::WordMajor, KernelKind::WarpBased),
            (TokenOrder::WordMajor, KernelKind::ThreadBased),
            (TokenOrder::DocMajor, KernelKind::WarpBased),
            (TokenOrder::DocMajor, KernelKind::ThreadBased),
        ] {
            let (mut chunks, model, samplers, config) = setup(order, kernel);
            let mut rng = StdRng::seed_from_u64(2);
            let mut total = 0u64;
            for chunk in &mut chunks {
                let a = rebuild_reference(chunk, model.n_topics());
                let mut tracker = MemoryTracker::new(1 << 20);
                total += sample_chunk(
                    chunk,
                    &a,
                    &model,
                    &samplers,
                    &config,
                    &mut tracker,
                    &mut rng,
                );
                assert!(chunk
                    .topics
                    .iter()
                    .all(|&t| (t as usize) < model.n_topics()));
                assert!(tracker.stats().dram_bytes() > 0);
            }
            let expected: u64 = chunks.iter().map(|c| c.n_tokens() as u64).sum();
            assert_eq!(total, expected);
        }
    }

    #[test]
    fn word_major_moves_less_dram_than_doc_major() {
        // The PDOW advantage (Fig. 9 G0→G1): staging B̂_v in shared memory
        // beats gathering random elements of B̂ from global memory.
        let (mut wm_chunks, model, samplers, wm_config) =
            setup(TokenOrder::WordMajor, KernelKind::WarpBased);
        let (mut dm_chunks, dm_model, dm_samplers, dm_config) =
            setup(TokenOrder::DocMajor, KernelKind::WarpBased);

        let mut rng = StdRng::seed_from_u64(3);
        let mut wm_tracker = MemoryTracker::new(1 << 21);
        for chunk in &mut wm_chunks {
            let a = rebuild_reference(chunk, model.n_topics());
            sample_chunk(
                chunk,
                &a,
                &model,
                &samplers,
                &wm_config,
                &mut wm_tracker,
                &mut rng,
            );
        }
        let mut dm_tracker = MemoryTracker::new(1 << 21);
        for chunk in &mut dm_chunks {
            let a = rebuild_reference(chunk, dm_model.n_topics());
            sample_chunk(
                chunk,
                &a,
                &dm_model,
                &dm_samplers,
                &dm_config,
                &mut dm_tracker,
                &mut rng,
            );
        }
        let wm = wm_tracker.stats().dram_bytes() + wm_tracker.stats().l2_hit_bytes;
        let dm = dm_tracker.stats().dram_bytes() + dm_tracker.stats().l2_hit_bytes;
        assert!(
            (wm as f64) < 0.9 * dm as f64,
            "word-major traffic {wm} not clearly below doc-major {dm}"
        );
    }

    #[test]
    fn thread_based_kernel_pays_waiting_and_divergence() {
        let (mut chunks, model, samplers, config) =
            setup(TokenOrder::WordMajor, KernelKind::ThreadBased);
        let mut rng = StdRng::seed_from_u64(4);
        let mut tracker = MemoryTracker::new(1 << 20);
        for chunk in &mut chunks {
            let a = rebuild_reference(chunk, model.n_topics());
            sample_chunk(
                chunk,
                &a,
                &model,
                &samplers,
                &config,
                &mut tracker,
                &mut rng,
            );
        }
        assert!(tracker.stats().wait_iterations > 0);
        assert!(tracker.stats().divergent_branches > 0);

        // The warp-based kernel pays neither.
        let (mut chunks, model, samplers, config) =
            setup(TokenOrder::WordMajor, KernelKind::WarpBased);
        let mut tracker = MemoryTracker::new(1 << 20);
        for chunk in &mut chunks {
            let a = rebuild_reference(chunk, model.n_topics());
            sample_chunk(
                chunk,
                &a,
                &model,
                &samplers,
                &config,
                &mut tracker,
                &mut rng,
            );
        }
        assert_eq!(tracker.stats().wait_iterations, 0);
        assert_eq!(tracker.stats().divergent_branches, 0);
    }

    #[test]
    fn sampling_moves_distribution_towards_cooccurrence() {
        // After a few E/M rounds on a tiny planted corpus the fraction of
        // tokens agreeing with their document's majority topic should rise
        // (the sampler is pulling topics together within documents).
        let (mut chunks, mut model, _, config) =
            setup(TokenOrder::WordMajor, KernelKind::WarpBased);
        let mut rng = StdRng::seed_from_u64(9);
        let n_topics = model.n_topics();
        let purity = move |chunks: &[Chunk]| -> f64 {
            let mut agree = 0usize;
            let mut total = 0usize;
            for c in chunks {
                let mut per_doc: Vec<Vec<u32>> = vec![Vec::new(); c.n_docs];
                for (_, d, t) in c.iter_tokens() {
                    per_doc[d as usize].push(t);
                }
                for topics in per_doc {
                    if topics.is_empty() {
                        continue;
                    }
                    let mut hist = vec![0usize; n_topics];
                    for &t in &topics {
                        hist[t as usize] += 1;
                    }
                    agree += hist.iter().max().copied().unwrap_or(0);
                    total += topics.len();
                }
            }
            agree as f64 / total as f64
        };
        let before = purity(&chunks);
        for _ in 0..5 {
            let samplers: Vec<WordSampler> = (0..model.vocab_size())
                .map(|v| {
                    WordSampler::build(PreprocessKind::WaryTree, model.word_topic_prob().row(v))
                })
                .collect();
            for chunk in &mut chunks {
                let a = rebuild_reference(chunk, model.n_topics());
                let mut tracker = MemoryTracker::new(1 << 20);
                sample_chunk(
                    chunk,
                    &a,
                    &model,
                    &samplers,
                    &config,
                    &mut tracker,
                    &mut rng,
                );
            }
            model.rebuild_from_assignments(
                chunks
                    .iter()
                    .flat_map(|c| c.iter_tokens().map(|(w, _, t)| (w, t)))
                    .collect::<Vec<_>>(),
            );
        }
        let after = purity(&chunks);
        assert!(
            after > before + 0.05,
            "document topic purity did not improve: before {before:.3}, after {after:.3}"
        );
    }

    #[test]
    fn warp_prefix_search_matches_scalar_search() {
        let probs = vec![
            0.3f32, 0.0, 1.2, 0.7, 2.0, 0.1, 0.9, 0.4, 1.5, 0.6, 0.05, 3.0,
        ];
        let prefix = inclusive_prefix_sum(&probs);
        let total: f32 = probs.iter().sum();
        for i in 0..200 {
            let x = total * (i as f32 + 0.5) / 200.0;
            assert_eq!(
                warp_find_prefix_position(&probs, x),
                find_in_prefix_sum_linear(&prefix, x),
                "x = {x}"
            );
        }
        // Long vector spanning several warp iterations.
        let probs: Vec<f32> = (0..100).map(|i| ((i * 7) % 13) as f32 + 0.1).collect();
        let prefix = inclusive_prefix_sum(&probs);
        let total: f32 = probs.iter().sum();
        for i in 0..50 {
            let x = total * (i as f32 + 0.5) / 50.0;
            let got = warp_find_prefix_position(&probs, x);
            let expected = find_in_prefix_sum_linear(&prefix, x);
            // Floating-point summation order differs between the two; accept
            // an off-by-one at exact boundaries.
            assert!(
                got == expected || got + 1 == expected || expected + 1 == got,
                "x = {x}: warp {got} vs scalar {expected}"
            );
        }
    }
}
