//! The run record: environment stamp, correctness verdict and metrics.
//!
//! A run prints every metric as a `name = value unit` line, then the full
//! record as one JSON line (`RECORD {...}`), then — last — the summary
//! line the benchmark contract asks for:
//! `{"correct", "attempted", "failed", "metrics"}` with exactly the metrics
//! `BENCHMARK.json` lists for the run's mode.

use std::process::Command;

use saber_core::json::{self, JsonValue};

/// Version tag of the record layout.
pub const SCHEMA: &str = "saber-benchmark/1";

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, e.g. `serve.lo.p50_ms`.
    pub name: String,
    /// Unit, e.g. `ms`.
    pub unit: String,
    /// The value as measured.
    pub value: f64,
}

impl Metric {
    /// A metric from its parts.
    pub fn new(name: &str, unit: &str, value: f64) -> Self {
        Metric {
            name: name.to_string(),
            unit: unit.to_string(),
            value,
        }
    }
}

/// Where and with what a run was made, so results can be keyed by machine.
#[derive(Debug, Clone, PartialEq)]
pub struct EnvStamp {
    /// Logical CPUs available to the process.
    pub nproc: usize,
    /// CPU model name from `/proc/cpuinfo`.
    pub cpu_model: String,
    /// `rustc -V`.
    pub rustc: String,
    /// `git rev-parse HEAD` of the checkout, or `unknown` if it is not a
    /// git repository.
    pub git_commit: String,
    /// Hardware class: architecture, core count and CPU model, slugged.
    pub hw_class: String,
}

impl EnvStamp {
    /// Stamps the current machine.
    pub fn detect() -> Self {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|info| {
                info.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        let hw_class = hardware_class(std::env::consts::ARCH, nproc, &cpu_model);
        EnvStamp {
            nproc,
            rustc: command_line(Command::new("rustc").arg("-V")),
            git_commit: git_commit(),
            cpu_model,
            hw_class,
        }
    }

    fn to_json(&self) -> JsonValue {
        JsonValue::object([
            ("nproc", JsonValue::from(self.nproc)),
            ("cpu_model", JsonValue::from(self.cpu_model.as_str())),
            ("rustc", JsonValue::from(self.rustc.as_str())),
            ("git_commit", JsonValue::from(self.git_commit.as_str())),
            ("hw_class", JsonValue::from(self.hw_class.as_str())),
        ])
    }

    fn from_json(v: &JsonValue) -> Result<Self, String> {
        Ok(EnvStamp {
            nproc: field(v, "nproc")?
                .as_u64()
                .ok_or("nproc is not an integer")? as usize,
            cpu_model: string_field(v, "cpu_model")?,
            rustc: string_field(v, "rustc")?,
            git_commit: string_field(v, "git_commit")?,
            hw_class: string_field(v, "hw_class")?,
        })
    }
}

/// `x86_64-2c-intel-r-xeon-r-processor` style tag: architecture, core
/// count and the CPU model reduced to lowercase alphanumeric words.
pub fn hardware_class(arch: &str, nproc: usize, cpu_model: &str) -> String {
    let slug: Vec<String> = cpu_model
        .split(|c: char| !c.is_ascii_alphanumeric())
        .filter(|w| !w.is_empty())
        .map(str::to_ascii_lowercase)
        .collect();
    format!("{arch}-{nproc}c-{}", slug.join("-"))
}

/// `git rev-parse HEAD` in the checkout the benchmark was built from,
/// looking no further up the directory tree than the checkout itself.
fn git_commit() -> String {
    let Ok(root) = std::fs::canonicalize(concat!(env!("CARGO_MANIFEST_DIR"), "/..")) else {
        return "unknown".to_string();
    };
    let mut git = Command::new("git");
    git.args(["rev-parse", "HEAD"]).current_dir(&root);
    if let Some(parent) = root.parent() {
        git.env("GIT_CEILING_DIRECTORIES", parent);
    }
    command_line(&mut git)
}

/// First line of a command's standard output, or `unknown` if it fails.
fn command_line(command: &mut Command) -> String {
    command
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8(o.stdout)
                .ok()
                .and_then(|s| s.lines().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Everything one run produced.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRecord {
    /// Workload name.
    pub workload: String,
    /// Workload seed.
    pub seed: u64,
    /// Requested measuring time, seconds.
    pub seconds: u64,
    /// Whether this was the traced run.
    pub traced: bool,
    /// Machine stamp.
    pub env: EnvStamp,
    /// Whether every correctness gate passed.
    pub correct: bool,
    /// Operations attempted (requests, publications, iterations).
    pub attempted: u64,
    /// Operations that failed or were refused.
    pub failed: u64,
    /// Every metric the run measured.
    pub metrics: Vec<Metric>,
    /// Notes such as the percentile a tail resolved to.
    pub notes: Vec<(String, String)>,
}

impl RunRecord {
    /// The record as JSON.
    pub fn to_json(&self) -> JsonValue {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                JsonValue::object([
                    ("name", JsonValue::from(m.name.as_str())),
                    ("unit", JsonValue::from(m.unit.as_str())),
                    ("value", JsonValue::Number(m.value)),
                ])
            })
            .collect();
        let notes = self
            .notes
            .iter()
            .map(|(k, v)| (k.clone(), JsonValue::from(v.as_str())))
            .collect();
        JsonValue::object([
            ("schema", JsonValue::from(SCHEMA)),
            ("workload", JsonValue::from(self.workload.as_str())),
            ("seed", JsonValue::from(self.seed)),
            ("seconds", JsonValue::from(self.seconds)),
            ("traced", JsonValue::Bool(self.traced)),
            ("env", self.env.to_json()),
            ("correct", JsonValue::Bool(self.correct)),
            ("attempted", JsonValue::from(self.attempted)),
            ("failed", JsonValue::from(self.failed)),
            ("metrics", JsonValue::Array(metrics)),
            ("notes", JsonValue::Object(notes)),
        ])
    }

    /// Parses a record written by [`RunRecord::to_json`].
    pub fn from_json(v: &JsonValue) -> Result<Self, String> {
        let schema = string_field(v, "schema")?;
        if schema != SCHEMA {
            return Err(format!("unknown schema {schema}"));
        }
        let metrics = field(v, "metrics")?
            .as_array()
            .ok_or("metrics is not an array")?
            .iter()
            .map(|m| {
                Ok(Metric {
                    name: string_field(m, "name")?,
                    unit: string_field(m, "unit")?,
                    value: field(m, "value")?.as_f64().ok_or("value is not a number")?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        let notes = match field(v, "notes")? {
            JsonValue::Object(pairs) => pairs
                .iter()
                .map(|(k, v)| {
                    v.as_str()
                        .map(|s| (k.clone(), s.to_string()))
                        .ok_or_else(|| format!("note {k} is not a string"))
                })
                .collect::<Result<Vec<_>, String>>()?,
            _ => return Err("notes is not an object".to_string()),
        };
        Ok(RunRecord {
            workload: string_field(v, "workload")?,
            seed: u64_field(v, "seed")?,
            seconds: u64_field(v, "seconds")?,
            traced: field(v, "traced")?
                .as_bool()
                .ok_or("traced is not a bool")?,
            env: EnvStamp::from_json(field(v, "env")?)?,
            correct: field(v, "correct")?
                .as_bool()
                .ok_or("correct is not a bool")?,
            attempted: u64_field(v, "attempted")?,
            failed: u64_field(v, "failed")?,
            metrics,
            notes,
        })
    }

    /// Parses a record from its JSON text.
    pub fn parse(text: &str) -> Result<Self, String> {
        RunRecord::from_json(&json::parse(text).map_err(|e| e.to_string())?)
    }

    /// The contract's summary line, carrying exactly the metrics `names`
    /// (in that order). Fails if the run did not measure one of them.
    pub fn summary_line(&self, names: &[(&str, &str)]) -> Result<String, String> {
        let metrics = names
            .iter()
            .map(|(name, unit)| {
                let m = self
                    .metrics
                    .iter()
                    .find(|m| m.name == *name)
                    .ok_or_else(|| format!("metric {name} was not measured"))?;
                if m.unit != *unit {
                    return Err(format!("metric {name} has unit {}, not {unit}", m.unit));
                }
                if !m.value.is_finite() {
                    return Err(format!("metric {name} is not finite: {}", m.value));
                }
                Ok((
                    name.to_string(),
                    JsonValue::object([
                        ("value", JsonValue::Number(m.value)),
                        ("unit", JsonValue::from(*unit)),
                    ]),
                ))
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(JsonValue::object([
            ("correct", JsonValue::Bool(self.correct)),
            ("attempted", JsonValue::from(self.attempted)),
            ("failed", JsonValue::from(self.failed)),
            ("metrics", JsonValue::Object(metrics)),
        ])
        .to_string())
    }
}

fn field<'a>(v: &'a JsonValue, key: &str) -> Result<&'a JsonValue, String> {
    v.get(key).ok_or_else(|| format!("missing member {key}"))
}

fn string_field(v: &JsonValue, key: &str) -> Result<String, String> {
    field(v, key)?
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| format!("{key} is not a string"))
}

fn u64_field(v: &JsonValue, key: &str) -> Result<u64, String> {
    field(v, key)?
        .as_u64()
        .ok_or_else(|| format!("{key} is not an unsigned integer"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record() -> RunRecord {
        RunRecord {
            workload: "serve-train".to_string(),
            seed: u64::MAX,
            seconds: 12,
            traced: false,
            env: EnvStamp {
                nproc: 2,
                cpu_model: "Intel(R) Xeon(R) \"Processor\"".to_string(),
                rustc: "rustc 1.0.0 (abc 2020-01-01)".to_string(),
                git_commit: "unknown".to_string(),
                hw_class: hardware_class("x86_64", 2, "Intel(R) Xeon(R) Processor"),
            },
            correct: true,
            attempted: 1234,
            failed: 0,
            metrics: vec![
                Metric::new("serve.lo.p50_ms", "ms", 1.234_567_890_123),
                Metric::new("setup_s", "s", 0.1 + 0.2),
                Metric::new("heldout_nll", "nats/token", 7.5e-300),
            ],
            notes: vec![("serve.lo.tail".to_string(), "p99".to_string())],
        }
    }

    #[test]
    fn record_round_trips_through_its_json_text() {
        let r = record();
        let text = r.to_json().to_string();
        let back = RunRecord::parse(&text).unwrap();
        assert_eq!(back, r);
        for (a, b) in back.metrics.iter().zip(&r.metrics) {
            assert_eq!(a.value.to_bits(), b.value.to_bits());
        }
    }

    #[test]
    fn record_rejects_a_foreign_schema() {
        let text = record().to_json().to_string().replace(SCHEMA, "other/9");
        assert!(RunRecord::parse(&text).unwrap_err().contains("schema"));
    }

    #[test]
    fn summary_line_has_exactly_the_contract_keys() {
        let line = record()
            .summary_line(&[("setup_s", "s"), ("serve.lo.p50_ms", "ms")])
            .unwrap();
        let v = json::parse(&line).unwrap();
        let JsonValue::Object(pairs) = &v else {
            panic!("not an object: {line}");
        };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let setup = v.get("metrics").and_then(|m| m.get("setup_s")).unwrap();
        assert_eq!(setup.get("unit").and_then(JsonValue::as_str), Some("s"));
        assert_eq!(
            setup.get("value").and_then(JsonValue::as_f64),
            Some(0.1 + 0.2)
        );
        assert!(record().summary_line(&[("missing", "s")]).is_err());
        assert!(record().summary_line(&[("setup_s", "ms")]).is_err());
    }

    #[test]
    fn hardware_class_is_a_slug() {
        assert_eq!(
            hardware_class("x86_64", 2, "Intel(R) Xeon(R) Processor"),
            "x86_64-2c-intel-r-xeon-r-processor"
        );
    }
}
