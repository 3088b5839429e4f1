//! The SaberLDA benchmark: one command per workload.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload train-k1000|serve-train --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` is the timed run: no instrumentation, the end-to-end
//! metrics. `--trace 1` repeats the timed run and then the traced run,
//! which wraps each call into a layer in a span and reports the per-layer
//! metrics. See `benchmark/README.md`.

mod fleet;
mod load;
mod result;
mod serve_train;
mod serving;
mod stats;
mod trace;
mod train;

use std::process::ExitCode;
use std::time::Duration;

use result::{EnvStamp, Metric, RunRecord};
use stats::{percentile_label, Samples};
use trace::Tracer;

/// The end-to-end metrics every workload reports in its summary line;
/// `BENCHMARK.json` lists the same names and units. What each means per
/// workload is in the README. The tails (`op.tail_ms`, `read.tail_ms`) are
/// measured and recorded too, but left out here: on a shared 2-vCPU host
/// their run-to-run spread is far wider than any bound that would still
/// catch a regression.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("throughput", "1/s"),
    ("heldout_nll", "nats/token"),
    ("op.p50_ms", "ms"),
    ("read.p50_ms", "ms"),
];

/// The per-layer metrics of the traced run, over all workloads. A layer a
/// workload never calls reports 0 there.
pub const PER_LAYER: [(&str, &str); 45] = [
    // train-k1000
    ("core.layout.build_s", "s"),
    ("core.kernel.sample_s", "s"),
    ("core.kernel.ns_per_token", "ns"),
    ("core.count.rebuild_s", "s"),
    ("core.count.accumulate_s", "s"),
    ("core.model.refresh_s", "s"),
    ("core.trees.build_s", "s"),
    ("core.doc_topic.mean_kd", "count"),
    ("gpu-sim.sampling_dram_bytes", "bytes"),
    ("gpu-sim.sim_iter_s", "s"),
    ("train.unexplained_frac", "ratio"),
    ("core.mirror_match", "count"),
    // serve-train: the request path
    ("serve.http.ingress_us", "us"),
    ("serve.shard.split_us", "us"),
    ("serve.transport.leg_us", "us"),
    ("serve.server.partial_us", "us"),
    ("core.infer.partial_fold_in_us", "us"),
    ("serve.wire.codec_us", "us"),
    ("serve.transport.overhead_us", "us"),
    ("serve.router.merge_us", "us"),
    ("serve.server.mean_batch", "count"),
    ("serve.server.queue_wait_p99_us", "us_log2"),
    ("serve.server.handler_p99_us", "us_log2"),
    ("serve.router.shard_requests", "count"),
    ("serve.router.transport_retries", "count"),
    ("serve.router.skew_retries", "count"),
    ("serve.http.errors", "count"),
    ("bench.gen_late_p99_ms", "ms"),
    ("serve.unexplained_frac", "ratio"),
    // serve-train: the pipeline
    ("pipeline.tick_ms", "ms"),
    ("core.trainer.tokens_resampled_per_tick", "count"),
    ("core.trainer.rows_rebuilt", "count"),
    ("serve.snapshot.export_ms", "ms"),
    ("serve.snapshot.shard_delta_ms", "ms"),
    ("core.model_io.delta_encode_ms", "ms"),
    ("core.model_io.delta_bytes", "bytes"),
    ("core.model_io.full_bytes", "bytes"),
    ("serve.snapshot.apply_delta_ms", "ms"),
    ("serve.router.rows_shipped_frac", "ratio"),
    ("serve.router.publish_ms", "ms"),
    ("serve.router.fallbacks", "count"),
    ("serve.router.delta_epochs_frac", "ratio"),
    ("serve.server.swaps_observed", "count"),
    ("pipeline.unexplained_frac", "ratio"),
    // every workload
    ("trace.overhead_frac", "ratio"),
];

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 2] = ["train-k1000", "serve-train"];

/// What a workload measured and whether its outputs were right.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Correctness failures; empty when every gate passed.
    pub failures: Vec<String>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed or refused.
    pub failed: u64,
    /// Every metric measured.
    pub metrics: Vec<Metric>,
    /// Notes, such as the percentile each tail resolved to.
    pub notes: Vec<(String, String)>,
}

impl Outcome {
    /// Records a correctness failure.
    pub fn fail(&mut self, why: String) {
        self.failures.push(why);
    }

    /// Records a metric.
    pub fn metric(&mut self, name: &str, unit: &str, value: f64) {
        self.metrics.push(Metric::new(name, unit, value));
    }

    /// Records `setup_s` as the median of repeated set-ups.
    pub fn setup(&mut self, setups: &Samples) {
        self.metric("setup_s", "s", setups.median().unwrap_or(f64::NAN));
        self.note("setup_s.repeats", setups.len().to_string());
    }

    /// Records `<prefix>.p50_ms` and `<prefix>.tail_ms`, the median and
    /// the tail ([`Samples::tail`]) of every sample; notes the tail's
    /// percentile and the sample count.
    pub fn latency(&mut self, prefix: &str, samples: &Samples) -> Result<(), String> {
        let tail = samples
            .tail()
            .ok_or_else(|| format!("{prefix}: {} samples are too few for a tail", samples.len()))?;
        self.metric(
            &format!("{prefix}.p50_ms"),
            "ms",
            samples.median().unwrap_or(f64::NAN),
        );
        self.metric(&format!("{prefix}.tail_ms"), "ms", tail.value);
        self.note(&format!("{prefix}.tail"), percentile_label(tail.percentile));
        self.note(&format!("{prefix}.samples"), samples.len().to_string());
        Ok(())
    }

    /// Records a note.
    pub fn note(&mut self, key: &str, value: String) {
        self.notes.push((key.to_string(), value));
    }
}

/// Milliseconds in `d`.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Peak resident set of this process, MiB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Directory the traced run writes its spans to.
const SPAN_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/out");

/// Writes the spans of `tracers` to `out/spans-<workload>.json` in the
/// benchmark's directory.
pub fn write_spans(workload: &str, tracers: &[&Tracer]) -> Result<(), String> {
    let spans: Vec<_> = tracers.iter().map(|t| t.to_json()).collect();
    std::fs::create_dir_all(SPAN_DIR).map_err(|e| format!("{SPAN_DIR}: {e}"))?;
    let path = format!("{SPAN_DIR}/spans-{workload}.json");
    std::fs::write(&path, saber_core::json::JsonValue::Array(spans).to_string())
        .map_err(|e| format!("{path}: {e}"))
}

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    traced: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        traced: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: std::num::ParseIntError| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => parsed.workload = value.clone(),
            "--seed" => parsed.seed = value.parse().map_err(bad)?,
            "--seconds" => parsed.seconds = value.parse().map_err(bad)?,
            "--trace" => {
                parsed.traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&parsed.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    if parsed.seconds == 0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(parsed)
}

fn run(args: &Args) -> Result<ExitCode, String> {
    let env = EnvStamp::detect();
    let mut outcome = match args.workload.as_str() {
        "train-k1000" => train::run(args.seed, args.seconds, args.traced),
        _ => serve_train::run(args.seed, args.traced),
    }?;
    outcome.metric("peak_rss_mb", "MiB", peak_rss_mb()?);
    let mut names: Vec<(&str, &str)> = END_TO_END.to_vec();
    if args.traced {
        names = PER_LAYER.to_vec();
        for (name, unit) in &names {
            if !outcome.metrics.iter().any(|m| m.name == *name) {
                outcome.metric(name, unit, 0.0);
            }
        }
    }
    let record = RunRecord {
        workload: args.workload.clone(),
        seed: args.seed,
        seconds: args.seconds,
        traced: args.traced,
        env,
        correct: outcome.failures.is_empty(),
        attempted: outcome.attempted.max(1),
        failed: outcome.failed,
        metrics: outcome.metrics,
        notes: outcome.notes,
    };
    for m in &record.metrics {
        println!("{} = {} {}", m.name, m.value, m.unit);
    }
    for (k, v) in &record.notes {
        println!("# {k}: {v}");
    }
    for why in &outcome.failures {
        eprintln!("INCORRECT: {why}");
    }
    let text = record.to_json().to_string();
    if RunRecord::parse(&text)? != record {
        return Err("the run record does not read back as written".to_string());
    }
    println!("RECORD {text}");
    println!("{}", record.summary_line(&names)?);
    Ok(if record.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&args).and_then(|a| run(&a)) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("benchmark error: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use saber_core::json::{self, JsonValue};

    fn names_and_units(spec: &JsonValue, key: &str) -> Vec<(String, String)> {
        spec.get(key)
            .and_then(JsonValue::as_array)
            .unwrap()
            .iter()
            .map(|m| {
                (
                    m.get("name")
                        .and_then(JsonValue::as_str)
                        .unwrap()
                        .to_string(),
                    m.get("unit")
                        .and_then(JsonValue::as_str)
                        .unwrap()
                        .to_string(),
                )
            })
            .collect()
    }

    fn owned(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_reported_metrics() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .unwrap();
        let spec = json::parse(&text).unwrap();
        assert_eq!(names_and_units(&spec, "end_to_end"), owned(&END_TO_END));
        assert_eq!(names_and_units(&spec, "per_layer"), owned(&PER_LAYER));
        let workloads: Vec<&str> = spec
            .get("workloads")
            .and_then(JsonValue::as_array)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(JsonValue::as_str).unwrap())
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn args_parse_the_contract_flags() {
        let args: Vec<String> = "--workload serve-train --seed 7 --seconds 12 --trace 1"
            .split(' ')
            .map(String::from)
            .collect();
        let a = parse_args(&args).unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.traced),
            ("serve-train", 7, 12, true)
        );
        let bad: Vec<String> = ["--workload", "nope"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert!(parse_args(&bad).is_err());
        let bad: Vec<String> = ["--workload", "serve-train", "--trace", "2"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert!(parse_args(&bad).is_err());
    }
}
