//! Golden values of the simulated GPU accounting.
//!
//! Training is deterministic given the seed, and so is the cost model that
//! turns the kernels' memory and instruction counters into simulated device
//! time. This test pins, bit for bit, what two iterations report under every
//! ablation level and both thread mappings, plus the trained counts, so that
//! a refactor of the kernels or of the accounting cannot move a simulated
//! figure or a trained bit unnoticed. It also pins the incremental
//! (ingest → re-sample → refresh) path, which shares the sampling kernel.
//!
//! On a mismatch the assertion prints the whole table as Rust source.

use saberlda::core::config::{KernelKind, PreprocessKind};
use saberlda::corpus::synthetic::SyntheticSpec;
use saberlda::sparse::DenseMatrix;
use saberlda::{Corpus, OptLevel, SaberLda, SaberLdaConfig};

/// FNV-1a over a sequence of 64-bit words.
fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, x| {
        (h ^ x).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn counts_fingerprint(m: &DenseMatrix<u32>) -> u64 {
    fnv(m.as_slice().iter().map(|&x| u64::from(x)))
}

fn probs_fingerprint(m: &DenseMatrix<f32>) -> u64 {
    fnv(m.as_slice().iter().map(|&x| u64::from(x.to_bits())))
}

fn corpus() -> Corpus {
    SyntheticSpec {
        n_docs: 120,
        vocab_size: 300,
        mean_doc_len: 40.0,
        n_topics: 8,
        ..SyntheticSpec::default()
    }
    .generate(21)
}

fn base_config() -> SaberLdaConfig {
    SaberLdaConfig::builder()
        .n_topics(32)
        .n_iterations(2)
        .n_chunks(3)
        .seed(5)
        .build()
        .unwrap()
}

/// Every configuration under test, with its label.
fn configurations() -> Vec<(String, SaberLdaConfig)> {
    let mut out = Vec::new();
    for level in OptLevel::ALL {
        for kernel in [KernelKind::WarpBased, KernelKind::ThreadBased] {
            let mut config = base_config().with_opt_level(level);
            config.kernel = kernel;
            out.push((format!("{level}/{kernel:?}"), config));
        }
    }
    for preprocess in [PreprocessKind::AliasTable, PreprocessKind::FenwickTree] {
        let mut config = base_config().with_opt_level(OptLevel::G4);
        config.preprocess = preprocess;
        out.push((format!("G4/{preprocess:?}"), config));
    }
    out
}

/// One row per (configuration, iteration): the `f64::to_bits` of the four
/// simulated phase times, then `sampling_dram_bytes`, `tokens` and the
/// fingerprint of `word_topic` after the iteration.
type Row = (&'static str, usize, [u64; 7]);

const GOLDEN: &[Row] = &[
    (
        "G0/WarpBased",
        0,
        [
            0x3f00062508223864,
            0x3ebc5f87e1c038eb,
            0x3f0ca64f002d7f8e,
            0x3eda98f46f1420e0,
            0x000000000001e200,
            0x0000000000001294,
            0x52d18270653c887f,
        ],
    ),
    (
        "G0/WarpBased",
        1,
        [
            0x3efe49707b2c0a0e,
            0x3ebc5f87e1c038eb,
            0x3f0ca64f002d7f8e,
            0x3eda98f46f1420e0,
            0x000000000001dd80,
            0x0000000000001294,
            0xb628b69bf81a08ad,
        ],
    ),
    (
        "G0/ThreadBased",
        0,
        [
            0x3f00062508223864,
            0x3ebc5f87e1c038eb,
            0x3f0ca64f002d7f8e,
            0x3eda98f46f1420e0,
            0x000000000001e200,
            0x0000000000001294,
            0x52d18270653c887f,
        ],
    ),
    (
        "G0/ThreadBased",
        1,
        [
            0x3efe49707b2c0a0e,
            0x3ebc5f87e1c038eb,
            0x3f0ca64f002d7f8e,
            0x3eda98f46f1420e0,
            0x000000000001dd80,
            0x0000000000001294,
            0xb628b69bf81a08ad,
        ],
    ),
    (
        "G1/WarpBased",
        0,
        [
            0x3ee1bbb4ed182393,
            0x3ebc5f87e1c038eb,
            0x3f0ca64f002d7f8e,
            0x3eda98f46f1420e0,
            0x000000000001cc00,
            0x0000000000001294,
            0x5b72065a38439f2b,
        ],
    ),
    (
        "G1/WarpBased",
        1,
        [
            0x3ee1bbb4ed182393,
            0x3ebc5f87e1c038eb,
            0x3f0ca64f002d7f8e,
            0x3eda98f46f1420e0,
            0x000000000001c780,
            0x0000000000001294,
            0xe820c058939731fd,
        ],
    ),
    (
        "G1/ThreadBased",
        0,
        [
            0x3ee3ec662142b2b8,
            0x3ebc5f87e1c038eb,
            0x3f0ca64f002d7f8e,
            0x3eda98f46f1420dc,
            0x000000000001cc00,
            0x0000000000001294,
            0x5b72065a38439f2b,
        ],
    ),
    (
        "G1/ThreadBased",
        1,
        [
            0x3ee42679c3d45664,
            0x3ebc5f87e1c038eb,
            0x3f0ca64f002d7f8e,
            0x3eda98f46f1420e0,
            0x000000000001c780,
            0x0000000000001294,
            0xe820c058939731fd,
        ],
    ),
    (
        "G2/WarpBased",
        0,
        [
            0x3ee1bbb4ed182393,
            0x3ebc5f87e1c038eb,
            0x3e9d48ab91880509,
            0x3eda98f46f1420e0,
            0x000000000001cc00,
            0x0000000000001294,
            0x6a2d7410d5f9c0ad,
        ],
    ),
    (
        "G2/WarpBased",
        1,
        [
            0x3ee1bbb4ed182393,
            0x3ebc5f87e1c038eb,
            0x3e9d48ab91880509,
            0x3eda98f46f1420e0,
            0x000000000001c800,
            0x0000000000001294,
            0x0e9a7da3a2e40c61,
        ],
    ),
    (
        "G2/ThreadBased",
        0,
        [
            0x3ee3ec662142b2b8,
            0x3ebc5f87e1c038eb,
            0x3e9d48ab91880509,
            0x3eda98f46f1420dc,
            0x000000000001cc00,
            0x0000000000001294,
            0x6a2d7410d5f9c0ad,
        ],
    ),
    (
        "G2/ThreadBased",
        1,
        [
            0x3ee3bf90f5058cbb,
            0x3ebc5f87e1c038eb,
            0x3e9d48ab91880509,
            0x3eda98f46f1420e0,
            0x000000000001c800,
            0x0000000000001294,
            0x0e9a7da3a2e40c61,
        ],
    ),
    (
        "G3/WarpBased",
        0,
        [
            0x3ee1bbb4ed182393,
            0x3eb010d830c1830e,
            0x3e9d48ab91880509,
            0x3eda98f46f1420de,
            0x000000000001cc00,
            0x0000000000001294,
            0x6a2d7410d5f9c0ad,
        ],
    ),
    (
        "G3/WarpBased",
        1,
        [
            0x3ee1bbb4ed182393,
            0x3eb010d830c1830e,
            0x3e9d48ab91880509,
            0x3eda98f46f1420de,
            0x000000000001c800,
            0x0000000000001294,
            0x0e9a7da3a2e40c61,
        ],
    ),
    (
        "G3/ThreadBased",
        0,
        [
            0x3ee3ec662142b2b8,
            0x3eb010d830c1830e,
            0x3e9d48ab91880509,
            0x3eda98f46f1420e0,
            0x000000000001cc00,
            0x0000000000001294,
            0x6a2d7410d5f9c0ad,
        ],
    ),
    (
        "G3/ThreadBased",
        1,
        [
            0x3ee3bf90f5058cbb,
            0x3eb010d830c1830e,
            0x3e9d48ab91880509,
            0x3eda98f46f1420de,
            0x000000000001c800,
            0x0000000000001294,
            0x0e9a7da3a2e40c61,
        ],
    ),
    (
        "G4/WarpBased",
        0,
        [
            0x3ee1bbb4ed182393,
            0x3eb010d830c1830e,
            0x3e9d48ab91880509,
            0x3ec1a64e3b7fe670,
            0x000000000001cc00,
            0x0000000000001294,
            0x6a2d7410d5f9c0ad,
        ],
    ),
    (
        "G4/WarpBased",
        1,
        [
            0x3ee1bbb4ed182393,
            0x3eb010d830c1830e,
            0x3e9d48ab91880509,
            0x3ec1a64e3b7fe670,
            0x000000000001c800,
            0x0000000000001294,
            0x0e9a7da3a2e40c61,
        ],
    ),
    (
        "G4/ThreadBased",
        0,
        [
            0x3ee3ec662142b2b8,
            0x3eb010d830c1830e,
            0x3e9d48ab91880509,
            0x3ec1a64e3b7fe674,
            0x000000000001cc00,
            0x0000000000001294,
            0x6a2d7410d5f9c0ad,
        ],
    ),
    (
        "G4/ThreadBased",
        1,
        [
            0x3ee3bf90f5058cbb,
            0x3eb010d830c1830e,
            0x3e9d48ab91880509,
            0x3ec1a64e3b7fe674,
            0x000000000001c800,
            0x0000000000001294,
            0x0e9a7da3a2e40c61,
        ],
    ),
    (
        "G4/AliasTable",
        0,
        [
            0x3ee1bbb4ed182393,
            0x3eb010d830c1830e,
            0x3f0ca64f002d7f8e,
            0x3ec1a64e3b7fe670,
            0x000000000001cc00,
            0x0000000000001294,
            0x5b72065a38439f2b,
        ],
    ),
    (
        "G4/AliasTable",
        1,
        [
            0x3ee1bbb4ed182393,
            0x3eb010d830c1830e,
            0x3f0ca64f002d7f8e,
            0x3ec1a64e3b7fe670,
            0x000000000001c780,
            0x0000000000001294,
            0xe820c058939731fd,
        ],
    ),
    (
        "G4/FenwickTree",
        0,
        [
            0x3ee62aa2285e2c78,
            0x3eb010d830c1830e,
            0x3edcbf5d63813ce6,
            0x3ec1a64e3b7fe678,
            0x000000000001cc00,
            0x0000000000001294,
            0x6a2d7410d5f9c0ad,
        ],
    ),
    (
        "G4/FenwickTree",
        1,
        [
            0x3ee62aa2285e2c78,
            0x3eb010d830c1830e,
            0x3edcbf5d63813ce6,
            0x3ec1a64e3b7fe678,
            0x000000000001c800,
            0x0000000000001294,
            0x0e9a7da3a2e40c61,
        ],
    ),
];

fn render(rows: &[(String, usize, [u64; 7])]) -> String {
    let mut s = String::from("const GOLDEN: &[Row] = &[\n");
    for (label, it, v) in rows {
        s.push_str(&format!("    (\"{label}\", {it}, [\n"));
        for x in v {
            s.push_str(&format!("        {x:#018x},\n"));
        }
        s.push_str("    ]),\n");
    }
    s.push_str("];\n");
    s
}

#[test]
fn simulated_iteration_stats_are_bit_identical_to_the_golden_table() {
    let corpus = corpus();
    let mut actual = Vec::new();
    for (label, config) in configurations() {
        let mut lda = SaberLda::new(config, &corpus).unwrap();
        for it in 0..2 {
            let stats = lda.iterate();
            let p = stats.phases;
            actual.push((
                label.clone(),
                it,
                [
                    p.sampling.to_bits(),
                    p.a_update.to_bits(),
                    p.preprocessing.to_bits(),
                    p.transfer.to_bits(),
                    stats.sampling_dram_bytes,
                    stats.tokens,
                    counts_fingerprint(lda.model().word_topic()),
                ],
            ));
        }
    }
    let expected: Vec<(String, usize, [u64; 7])> = GOLDEN
        .iter()
        .map(|&(label, it, v)| (label.to_string(), it, v))
        .collect();
    assert!(
        actual == expected,
        "simulated stats moved; actual table:\n{}",
        render(&actual)
    );
}

/// `word_topic` and `B̂` fingerprints and the touched rows of the
/// incremental path: ingest, two incremental passes, a full refresh.
const INCREMENTAL_TOUCHED: &[u32] = &[0, 1, 2, 3, 8, 17, 42, 99, 120, 250, 299];
const INCREMENTAL_WORD_TOPIC: u64 = 0x3f1dd90678bbe6bb;
const INCREMENTAL_BHAT: u64 = 0x3a603c8238d35d91;
const REFRESHED_BHAT: u64 = 0xf5445ba824e2a49c;

#[test]
fn incremental_path_is_bit_identical_to_the_golden_values() {
    let corpus = corpus();
    let mut lda = SaberLda::new(base_config(), &corpus).unwrap();
    lda.iterate();
    lda.take_touched_rows();
    lda.ingest(vec![
        vec![3, 17, 17, 42, 99, 3, 250],
        vec![17, 8, 8, 8, 120, 42],
        vec![299, 0, 1, 2, 3],
    ])
    .unwrap();
    lda.iterate_incremental();
    lda.iterate_incremental();
    let touched = lda.take_touched_rows();
    let word_topic = counts_fingerprint(lda.model().word_topic());
    let bhat = probs_fingerprint(lda.model().word_topic_prob());
    lda.full_refresh();
    let refreshed = probs_fingerprint(lda.model().word_topic_prob());
    let all_rows = lda.take_touched_rows();
    assert!(
        (touched.as_slice(), word_topic, bhat, refreshed)
            == (
                INCREMENTAL_TOUCHED,
                INCREMENTAL_WORD_TOPIC,
                INCREMENTAL_BHAT,
                REFRESHED_BHAT
            ),
        "incremental path moved: touched {touched:?}, word_topic {word_topic:#018x}, \
         B̂ {bhat:#018x}, refreshed B̂ {refreshed:#018x}"
    );
    assert_eq!(all_rows.len(), corpus.vocab_size());
}
