//! What every workload shares: the metric catalogue, the outcome a run
//! reports, summary statistics, memory readings and the run stamp.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use fp_core::template::Template;
use fp_telemetry::FingerprintChain;

/// End-to-end metrics, printed by every untraced run. Must match the
/// `end_to_end` list of `BENCHMARK.json` (the self-tests check it).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by every traced run. A layer the workload
/// never enters reads 0 (see README.md, "Per-layer metrics"). Must match
/// the `per_layer` list of `BENCHMARK.json`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("fp-sensor.dataset_s", "s"),
    ("fp-match.prepare_us", "us"),
    ("fp-match.genuine_compare_us", "us"),
    ("fp-match.impostor_compare_us", "us"),
    ("fp-match.table_entries", "count"),
    ("fp-match.associations", "count"),
    ("fp-match.cluster_size", "count"),
    ("fp-match.cluster_ratio", "ratio"),
    ("fp-study.parallel_efficiency", "ratio"),
    ("fp-stats.tables_ms", "ms"),
    ("fp-index.enroll_s", "s"),
    ("fp-index.stage1_ms", "ms"),
    ("fp-index.cylinder_ms", "ms"),
    ("fp-index.votes_ms", "ms"),
    ("fp-index.fuse_ms", "ms"),
    ("fp-index.rerank_ms_live", "ms"),
    ("fp-index.rerank_ms_card", "ms"),
    ("fp-index.hamming_word_ops", "count"),
    ("fp-index.bucket_hits", "count"),
    ("fp-index.rerank_comparisons", "count"),
    ("fp-index.rank1_recall", "ratio"),
    ("fp-store.save_s", "s"),
    ("fp-store.bytes", "bytes"),
    ("fp-serve.shard_start_s", "s"),
    ("fp-serve.rpc_stage1_ms", "ms"),
    ("fp-serve.rpc_rerank_ms", "ms"),
    ("fp-serve.transport_ms", "ms"),
    ("fp-serve.shard_skew_ms", "ms"),
    ("fp-serve.bytes_per_search", "bytes"),
    ("fp-serve.retries", "count"),
    ("fp-serve.shed", "count"),
    ("fp-serve.timeouts", "count"),
    ("fp-serve.gen_lag_ms", "ms"),
    ("fp-serve.max_rate_qps", "1/s"),
    ("host.calibration_us", "us"),
    ("trace.residual_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
];

/// How a run is invoked.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// The `study` binary, spawned as `serve-shard` children.
    pub study_exe: PathBuf,
    /// Self-test sizes: tiny galleries and cohorts, same code paths.
    pub tiny: bool,
    /// Self-test fault: flip one bit of one output before it is checked.
    pub corrupt: bool,
}

/// Everything one run reports.
#[derive(Default)]
pub struct Outcome {
    /// Operations performed plus output checks made.
    pub attempted: u64,
    /// Failed operations plus failed checks.
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Human-readable lines printed above the metric table.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records a metric; `name` must be in the catalogue.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "metric {name} is not in the catalogue"
        );
        self.metrics.insert(name, value);
    }

    /// Counts one output check; a failing one is a failure and is named
    /// on stderr.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: check failed: {}", what());
        }
    }

    /// Counts `n` operations, `failed` of which failed.
    pub fn operations(&mut self, n: u64, failed: u64) {
        self.attempted += n;
        self.failed += failed;
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// A figure printed with the metrics but not bounded: a statistic with
    /// too few samples, or one only some workloads have.
    pub fn report(&mut self, name: &str, value: f64, unit: &str, detail: &str) {
        self.note(format!("{name:<30} {value:>16.4} {unit}   ({detail})"));
    }

    /// Sets every end-to-end metric from the run's raw measurements, its
    /// times scaled to the host's reference speed, and notes the raw
    /// figures and the unbounded `p99_ms`.
    pub fn end_to_end(
        &mut self,
        speed: &HostSpeed,
        setups_s: &[f64],
        throughput_per_s: f64,
        latencies_ms: &[f64],
        peak_rss_mb: f64,
    ) {
        let f = speed.factor();
        let (setup, p50, p90, p99) = (
            median(setups_s),
            median(latencies_ms),
            quantile(latencies_ms, 0.9),
            quantile(latencies_ms, 0.99),
        );
        self.note(format!(
            "raw (unscaled): setup {setup:.4} s, throughput {throughput_per_s:.4}/s, \
             p50 {p50:.4} ms, p90 {p90:.4} ms; calibration {:.1} us, factor {f:.4}",
            speed.calibration_us()
        ));
        self.report(
            "p99_ms",
            p99 * f,
            "ms",
            &format!("n = {}", latencies_ms.len()),
        );
        self.set("setup_s", setup * f);
        self.set("throughput_per_s", throughput_per_s / f);
        self.set("p50_ms", p50 * f);
        self.set("p90_ms", p90 * f);
        self.set("peak_rss_mb", peak_rss_mb);
    }
}

pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Calibration time, in µs, of the host the benchmark was tuned on when
/// quiet: a run whose calibration reads this reports its times unscaled.
const CALIBRATION_REFERENCE_US: f64 = 800.0;

/// The speed of the host, sampled during a run with a fixed piece of work
/// that does not depend on the repository's code.
///
/// The shared 2-vCPU host's clock speed drifts by 20% and more over tens
/// of seconds, in step on both vCPUs and in CPU time as much as in wall
/// time. No amount of work inside one run averages that out, so every
/// bounded time is scaled by `factor`: what it would read on the host at
/// its reference speed. A change to the repository's code moves a scaled
/// time in the same proportion as the raw one. Contention for caches and
/// memory bandwidth is not tracked and stays in the figures as noise. The
/// raw figures and the factor are printed with the report.
#[derive(Default)]
pub struct HostSpeed {
    samples_us: Vec<f64>,
}

impl HostSpeed {
    /// Times the calibration work: the fastest of three repetitions, so a
    /// preemption in one of them does not count. About 2.5 ms.
    pub fn sample(&mut self) {
        let fastest = (0..3)
            .map(|_| {
                let start = Instant::now();
                std::hint::black_box(calibration_work());
                secs(start.elapsed()) * 1e6
            })
            .fold(f64::INFINITY, f64::min);
        self.samples_us.push(fastest);
    }

    /// Samples the host speed once every `every` calls.
    pub fn sample_every(&mut self, every: usize, call: usize) {
        if call % every == 0 {
            self.sample();
        }
    }

    /// Median calibration time of the run, in µs.
    pub fn calibration_us(&self) -> f64 {
        median(&self.samples_us)
    }

    /// Multiplies a duration measured in this run into reference-speed
    /// time (divides a rate).
    pub fn factor(&self) -> f64 {
        assert!(!self.samples_us.is_empty(), "the host speed was never sampled");
        CALIBRATION_REFERENCE_US / self.calibration_us()
    }
}

/// A fixed chain of xorshift steps: pure integer work with no memory
/// traffic, so its time follows the core's clock speed alone. (A sort of
/// the same words read up to 18% apart between runs at one clock speed.)
fn calibration_work() -> u64 {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut sum = 0u64;
    for _ in 0..CALIBRATION_STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        sum = sum.wrapping_add(x);
    }
    sum
}

const CALIBRATION_STEPS: usize = 400_000;


/// Linear-interpolation quantile of an unsorted sample (0 when empty).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Peak resident set (`VmHWM`) of a process in MB, from `/proc`.
pub fn peak_rss_mb(pid: Option<u32>) -> f64 {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/status"),
        None => "/proc/self/status".to_string(),
    };
    std::fs::read_to_string(path)
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                line.strip_prefix("VmHWM:").and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Folds a template's minutiae (positions, directions, kinds and
/// reliabilities as raw bits) into `chain`: the dataset part of the stamp.
pub fn fold_template(chain: &mut FingerprintChain, template: &Template) {
    chain.fold_u64(template.len() as u64);
    for m in template.minutiae() {
        chain.fold_f64(m.pos.x);
        chain.fold_f64(m.pos.y);
        chain.fold_f64(m.direction.radians());
        chain.fold_u64(m.kind as u64);
        chain.fold_f64(m.reliability);
    }
}

/// The code part of the stamp: a chain over the bytes of the benchmark
/// and `study` executables that produced the result.
pub fn code_stamp(study_exe: &Path) -> String {
    let mut chain = FingerprintChain::new(0);
    for path in [std::env::current_exe().ok(), Some(study_exe.to_path_buf())]
        .into_iter()
        .flatten()
    {
        let bytes = std::fs::read(&path).unwrap_or_default();
        for word in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..word.len()].copy_from_slice(word);
            chain.fold_u64(u64::from_le_bytes(buf));
        }
    }
    format!("{:016x}", chain.value())
}

/// A scratch directory inside the checkout, removed on drop.
pub struct WorkDir(pub PathBuf);

impl WorkDir {
    pub fn new(label: &str) -> std::io::Result<WorkDir> {
        let dir = PathBuf::from(".bench_work").join(format!("{label}-{}", std::process::id()));
        if dir.exists() {
            std::fs::remove_dir_all(&dir)?;
        }
        std::fs::create_dir_all(&dir)?;
        Ok(WorkDir(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Remove the parent too once the last run's directory is gone.
        let _ = std::fs::remove_dir(".bench_work");
    }
}
