//! GPU cost accounting of the training kernels (§3, Fig. 9/10).
//!
//! The CPU computation of an iteration ([`crate::kernel`], [`crate::count`])
//! produces the trained state; this module replays the same work against
//! the `saber-gpu-sim` device model to estimate what it would cost on the
//! GPU. Each pass reads only what the computation leaves behind — the chunk
//! layout, the document–topic rows and the samplers — so the two never
//! interleave, and a caller that does not report simulated time (the
//! incremental trainer path) skips the simulator entirely.
//!
//! * [`account_sampling`] — the E-step kernel's memory traffic,
//!   instructions, waiting and divergence under either thread mapping;
//! * [`account_rebuild`] / [`account_accumulate`] — the M-step's
//!   document–topic rebuild and word–topic atomic adds;
//! * [`iteration_times`] — the roofline conversion of those counters to
//!   simulated device seconds, with block-level load balance and the
//!   streaming-pipeline model of transfer overlap.
//!
//! The token order determines the access pattern (Fig. 4): with word-major
//! order the current `B̂_v` row is staged in shared memory and reused; with
//! doc-major order every token gathers scattered elements of `B̂` from
//! global memory. The thread mapping (§3.2) determines the efficiency: a
//! warp-based kernel has all 32 lanes collaborate on one token, with no
//! waiting and no divergence; a thread-based kernel gives each lane its own
//! token, so lanes wait for the longest row in their warp and the branch
//! between the two sub-problems diverges. Both draw from the same
//! distribution, which is why only the accounting tells them apart.

use saber_gpu_sim::cost::CostModel;
use saber_gpu_sim::memory::AddressMap;
use saber_gpu_sim::scheduler::dynamic_schedule;
use saber_gpu_sim::shared::sampling_kernel_working_set;
use saber_gpu_sim::stream::{simulate_pipeline, ChunkCost};
use saber_gpu_sim::warp::{
    PREFIX_SUM_INSTRUCTIONS, REDUCE_INSTRUCTIONS, VOTE_INSTRUCTIONS, WARP_SIZE,
};
use saber_gpu_sim::{KernelStats, MemoryTracker};
use saber_sparse::CsrMatrix;

use crate::config::{CountRebuild, KernelKind, SaberLdaConfig, TokenOrder};
use crate::layout::Chunk;
use crate::report::PhaseTimes;
use crate::trees::{TopicSampler, WordSampler};

/// Instructions charged per 32-lane element-wise-product iteration
/// (load index, load value, multiply, accumulate).
const PRODUCT_INSTRUCTIONS: u64 = 4;

/// Instructions charged for the branch selection (RNG + compare).
const BRANCH_INSTRUCTIONS: u64 = 2;

/// Charges one E-step kernel launch over `chunk` to `tracker`: one block per
/// segment (a word in word-major order, a document in doc-major order),
/// with the segment's key row staged in shared memory and every token's
/// topic written back at the end of its segment.
///
/// `doc_topic` and `samplers` are the ones the tokens were sampled against.
pub fn account_sampling(
    chunk: &Chunk,
    doc_topic: &CsrMatrix<u32>,
    samplers: &[WordSampler],
    kernel: KernelKind,
    n_topics: usize,
    tracker: &mut MemoryTracker,
) {
    let map = AddressMap::default();
    let k = n_topics;
    let row_addr = |d: usize| map.doc_topic + (doc_topic.row_ptr()[d] * 8) as u64;
    let thread_based = kernel == KernelKind::ThreadBased;
    let mut group_nnz: Vec<u64> = Vec::with_capacity(WARP_SIZE);
    for seg in &chunk.segments {
        // Stage B̂_v (word-major) or A_d (doc-major) in shared memory.
        let key = seg.key as usize;
        let (addr, bytes) = match chunk.order {
            TokenOrder::WordMajor => (map.word_topic_prob + (key * k * 4) as u64, k * 4),
            TokenOrder::DocMajor => (row_addr(key), doc_topic.row_nnz(key) * 8),
        };
        tracker.global_read(addr, bytes as u64);
        tracker.shared_write(bytes as u64);
        let mut pending_waits = 0u64;
        for t in seg.start..seg.end {
            let word = chunk.word_ids[t] as usize;
            let d = chunk.local_doc_ids[t] as usize;
            let doc_row = doc_topic.row(d);
            let nnz = doc_row.nnz() as u64;
            let (sampler, tree_addr) = (&samplers[word], map.trees + (word * 64) as u64);
            match chunk.order {
                // The document's sparse row, read coalesced from global memory
                // (contiguous and 128-byte aligned per §3.4), times the staged
                // B̂_v.
                TokenOrder::WordMajor => {
                    tracker.global_read(row_addr(d), nnz * 8);
                    tracker.shared_read(nnz * 4);
                }
                // B̂[word][k] gathered for every non-zero topic of the staged
                // document: random single-element accesses, each pulling a
                // 128-byte line.
                TokenOrder::DocMajor => {
                    let row_base = map.word_topic_prob + (word * k * 4) as u64;
                    for &topic in doc_row.indices() {
                        tracker.global_read(row_base + (topic as u64) * 4, 4);
                    }
                    tracker.shared_read(nnz * 8);
                }
            }
            let product_iters = nnz.div_ceil(WARP_SIZE as u64).max(1);
            tracker.instructions(
                product_iters * PRODUCT_INSTRUCTIONS + REDUCE_INSTRUCTIONS + BRANCH_INSTRUCTIONS,
            );
            // Searching the prefix sums of P (sparse branch) is charged when
            // the row is non-empty, and the query of the pre-processed
            // structure (dense branch) always, keeping the model
            // deterministic. Without per-word staging (doc-major order) the
            // structure is read from global memory.
            if nnz > 0 {
                tracker.instructions(product_iters * (PREFIX_SUM_INSTRUCTIONS + VOTE_INSTRUCTIONS));
            }
            match chunk.order {
                TokenOrder::WordMajor => tracker.shared_read(sampler.query_shared_bytes()),
                TokenOrder::DocMajor => {
                    tracker.global_read(tree_addr, sampler.query_shared_bytes())
                }
            }
            tracker.instructions(sampler.query_instructions());
            if thread_based {
                group_nnz.push(nnz);
                if group_nnz.len() == WARP_SIZE {
                    pending_waits += waiting_penalty(&group_nnz);
                    tracker.divergence(1);
                    group_nnz.clear();
                }
            }
        }
        if thread_based {
            pending_waits += waiting_penalty(&group_nnz);
            group_nnz.clear();
            tracker.wait(pending_waits);
        }
        // Write the segment's updated topics back (contiguous, coalesced).
        tracker.global_write(map.token_list + 4 * seg.start as u64, 4 * seg.len() as u64);
    }
}

/// Extra warp-iterations wasted when 32 threads process rows of differing
/// lengths: every lane waits for the longest row in its group (§3.2).
fn waiting_penalty(group_nnz: &[u64]) -> u64 {
    let max = group_nnz.iter().copied().max().unwrap_or(0);
    group_nnz.iter().map(|&n| max - n).sum()
}

/// Charges the rebuild of `chunk`'s document–topic matrix `a` by `method`.
pub fn account_rebuild(
    chunk: &Chunk,
    a: &CsrMatrix<u32>,
    method: CountRebuild,
    tracker: &mut MemoryTracker,
) {
    let map = AddressMap::default();
    let n = chunk.n_tokens() as u64;
    match method {
        CountRebuild::Ssc => {
            // Shuffle: one streaming read of the topic array and one
            // (scattered but line-amortised, because destinations within a
            // document are contiguous) write per token.
            tracker.global_read(map.token_list, 4 * n);
            tracker.global_write(map.token_list + 4 * n, 4 * n);
            // Segmented count: a radix sort, adjacent difference and scatter
            // in shared memory — ~4 passes over the segment (Fig. 8), 4 bytes
            // per token per pass — then the row is written back.
            let offsets = chunk.doc_offsets();
            for d in 0..chunk.n_docs {
                let len = (offsets[d + 1] - offsets[d]) as u64;
                tracker.shared_read(4 * 4 * len);
                tracker.shared_write(4 * 4 * len);
                tracker.instructions(6 * len.div_ceil(32) * 4);
                let row_addr = map.doc_topic + (offsets[d] * 8) as u64;
                tracker.global_write(row_addr, 8 * a.row_nnz(d) as u64);
            }
        }
        CountRebuild::NaiveSort => {
            // The global radix sort makes 4 passes (8-bit digits over the
            // 32-bit combined key), each reading and writing the full 8-byte
            // (doc, topic) pair array in global memory — this is what makes
            // it expensive. A linear scan then produces the rows.
            for p in 0..4 {
                tracker.global_read(map.token_list + p * 8 * n, 8 * n);
                tracker.global_write(map.token_list + (p + 1) * 8 * n, 8 * n);
            }
            tracker.instructions(8 * n);
            tracker.global_read(map.token_list, 8 * n);
            for d in 0..chunk.n_docs {
                tracker.global_write(map.doc_topic, 8 * a.row_nnz(d) as u64);
            }
        }
    }
}

/// Charges the atomic adds that accumulate `chunk`'s topics into the
/// `V × n_topics` word–topic count matrix.
pub fn account_accumulate(chunk: &Chunk, n_topics: usize, tracker: &mut MemoryTracker) {
    let map = AddressMap::default();
    let k = n_topics as u64;
    for (word, _, topic) in chunk.iter_tokens() {
        tracker.atomic_add(map.word_topic + (word as u64 * k + topic as u64) * 4, 4);
    }
}

/// The E-step counters of an iteration: one kernel launch per chunk, each
/// with a cold L2. `doc_topics` and `samplers` are the ones the tokens were
/// sampled against.
pub fn sampling_stats(
    config: &SaberLdaConfig,
    chunks: &[Chunk],
    doc_topics: &[CsrMatrix<u32>],
    samplers: &[WordSampler],
) -> Vec<KernelStats> {
    let (kernel, k) = (config.kernel, config.n_topics);
    let mut stats = Vec::with_capacity(chunks.len());
    for (chunk, a) in chunks.iter().zip(doc_topics) {
        let mut tracker = MemoryTracker::new(config.device.l2_cache_bytes);
        account_sampling(chunk, a, samplers, kernel, k, &mut tracker);
        stats.push(tracker.take_stats());
    }
    stats
}

/// Converts an iteration's counters to simulated device time: roofline
/// times per phase, scaled by block-level load balance, with the transfer
/// time the streaming pipeline leaves exposed. `sampling` is the E-step's
/// [`sampling_stats`]; the M-step is charged here — every chunk's rebuild of
/// `doc_topics`, then its accumulation into `B`, into one tracker — and
/// `samplers` are the ones it built. Returns the phase times and the
/// E-step's DRAM bytes.
pub fn iteration_times(
    config: &SaberLdaConfig,
    chunks: &[Chunk],
    doc_topics: &[CsrMatrix<u32>],
    samplers: &[WordSampler],
    sampling: &[KernelStats],
) -> (PhaseTimes, u64) {
    let mut tracker = MemoryTracker::new(config.device.l2_cache_bytes);
    for (chunk, a) in chunks.iter().zip(doc_topics) {
        account_rebuild(chunk, a, config.count_rebuild, &mut tracker);
        account_accumulate(chunk, config.n_topics, &mut tracker);
    }
    let cost = CostModel::new(config.device.clone());
    let balance = block_balance_factor(config, chunks);
    let per_chunk_sampling: Vec<f64> = sampling
        .iter()
        .map(|s| cost.kernel_time(s).total_seconds * balance)
        .collect();
    let a_update_time = cost.kernel_time(tracker.stats()).total_seconds;
    // Pre-processing: recomputing `B̂` (one read of `B` and one write of
    // `B̂`) plus building the per-word sampling structures.
    let (v, k) = (samplers.len() as u64, config.n_topics as u64);
    let preprocessing = KernelStats {
        global_read_bytes: v * k * 4,
        global_write_bytes: v * k * 4,
        warp_instructions: v * k / 8 + samplers.iter().map(|s| s.build_instructions()).sum::<u64>(),
        ..KernelStats::default()
    };
    let preprocessing_time = cost.kernel_time(&preprocessing).total_seconds;

    // Streaming pipeline: how much transfer is exposed?
    let workers = if config.async_streams {
        config.n_workers
    } else {
        1
    };
    let chunk_costs: Vec<ChunkCost> = chunks
        .iter()
        .zip(per_chunk_sampling.iter())
        .map(|(c, &compute)| {
            let a_bytes = 8 * c.n_tokens() as u64 / 4; // CSR rows ≈ K_d per doc
            ChunkCost {
                h2d_seconds: cost.transfer_time(c.token_bytes() + a_bytes),
                compute_seconds: compute + a_update_time / chunks.len() as f64,
                d2h_seconds: cost.transfer_time(c.token_bytes() / 2 + a_bytes),
            }
        })
        .collect();
    let pipeline = simulate_pipeline(&chunk_costs, workers.max(1));

    let phases = PhaseTimes {
        sampling: per_chunk_sampling.iter().sum(),
        a_update: a_update_time,
        preprocessing: preprocessing_time,
        transfer: (pipeline.elapsed_seconds - pipeline.compute_seconds).max(0.0),
    };
    (phases, sampling.iter().map(|s| s.dram_bytes()).sum())
}

/// Block-level efficiency factor for the configured `threads_per_block`
/// (Fig. 10c): dynamic scheduling of words onto concurrently-resident
/// blocks, in-block synchronisation overhead, and an occupancy term for
/// latency hiding. Returns a multiplier ≥ 1 applied to the roofline time.
fn block_balance_factor(config: &SaberLdaConfig, chunks: &[Chunk]) -> f64 {
    let t = config.threads_per_block as u64;
    let warps_per_block = (t / 32).max(1);
    let device = &config.device;

    // Occupancy: how many blocks fit per SM, limited by threads and by the
    // kernel's shared-memory working set.
    let max_threads_per_sm = 2048u64;
    let shared_per_sm = 2 * device.shared_mem_per_block as u64;
    let working_set = sampling_kernel_working_set(config.n_topics).max(1);
    let blocks_by_threads = (max_threads_per_sm / t).max(1);
    let blocks_by_shared = (shared_per_sm / working_set).max(1);
    let blocks_per_sm = blocks_by_threads.min(blocks_by_shared).min(16);
    let concurrent_blocks = (device.sm_count as u64 * blocks_per_sm).max(1) as usize;

    // Latency hiding: resident warps per SM relative to a full complement.
    let resident_warps = blocks_per_sm * warps_per_block;
    let occupancy = (resident_warps as f64 / 48.0).min(1.0);
    let latency_factor = 1.0 + 0.35 * (1.0 - occupancy);

    // Load balance: schedule the words of the largest chunk onto the
    // concurrent blocks; per-word work is its warp-iterations plus an
    // in-block synchronisation term that grows with the warp count. The
    // efficiency is floored at 0.4 because warp-level dynamic token
    // fetching inside a block (§3.4) smooths most of the tail that a pure
    // one-word-per-block makespan would show; without the floor, scaled
    // test corpora (whose distinct-word count is comparable to the number
    // of concurrent blocks) exaggerate an imbalance that the paper's
    // corpora, with V ≈ 100k ≫ resident blocks, do not exhibit.
    let sync = (warps_per_block as f64).log2().ceil() as u64 + 1;
    let balance_eff = chunks
        .iter()
        .map(|chunk| {
            let work: Vec<u64> = chunk
                .segments
                .iter()
                .map(|s| (s.len() as u64).div_ceil(warps_per_block) + sync)
                .collect();
            dynamic_schedule(&work, concurrent_blocks).efficiency()
        })
        .fold(1.0f64, f64::min)
        .max(0.4);

    latency_factor / balance_eff
}
