//! `paper_scores`: the paper's score generation on a scaled cohort.
//!
//! Set-up is `Dataset::generate`. One timed operation ("pass") is
//! `ScoreMatrix::compute` over all 25 gallery x probe device cells followed
//! by the Table 4/5/6 statistics. Pair-table `compare_prepared` is nearly
//! all of a pass, and `fp-index`/`fp-serve`/`fp-store` are never entered,
//! so a matcher change shows here at full strength while a stage-1 or wire
//! change must read "no change".

use std::hint::black_box;
use std::time::Instant;

use fp_core::ids::{DeviceId, SubjectId};
use fp_core::rng::SeedTree;
use fp_core::Matcher;
use fp_match::{PairTableMatcher, PreparableMatcher};
use fp_study::config::DEVICE_COUNT;
use fp_study::experiments::{table4, table5, table6};
use fp_study::{Dataset, ScoreMatrix, StudyConfig, StudyData};
use fp_telemetry::{FingerprintChain, Telemetry};
use rand::Rng;

use crate::common::{
    code_stamp, fold_template, median, peak_rss_mb, secs, threads, Args, HostSpeed, Outcome,
};

/// Cohort size and impostor pairs sampled per device cell.
const SUBJECTS: usize = 240;
const IMPOSTORS_PER_CELL: usize = 250;
const TINY_SUBJECTS: usize = 6;
const TINY_IMPOSTORS_PER_CELL: usize = 30;
const SETUP_REPEATS: usize = 7;
/// Passes always run, even past `--seconds`: the second is the first one
/// the digest check can compare.
const MIN_PASSES: usize = 2;
/// Untraced passes in the traced run.
const UNTRACED_PASSES: usize = 3;
/// Impostor comparisons replayed twice, bare and instrumented, to measure
/// what the per-call timers cost.
const OVERHEAD_SAMPLE: usize = 1500;

const CELLS: usize = DEVICE_COUNT * DEVICE_COUNT;

fn cell_devices(cell: usize) -> (DeviceId, DeviceId) {
    (
        DeviceId((cell / DEVICE_COUNT) as u8),
        DeviceId((cell % DEVICE_COUNT) as u8),
    )
}

/// The impostor pairs `ScoreMatrix::compute` samples for one cell, in
/// order: `(gallery subject, probe subject)`.
fn impostor_pairs(config: &StudyConfig, n: usize, cell: usize) -> Vec<(usize, usize)> {
    if n < 2 {
        return Vec::new();
    }
    let (g, p) = cell_devices(cell);
    let mut rng = SeedTree::new(config.seed)
        .child(&[0x1A, u64::from(g.0), u64::from(p.0)])
        .rng();
    (0..config.impostors_per_cell)
        .map(|_| {
            let a = rng.gen_range(0..n);
            let mut b = rng.gen_range(0..n - 1);
            if b >= a {
                b += 1;
            }
            (a, b)
        })
        .collect()
}

/// One timed operation's result.
struct Pass {
    data: StudyData,
    compute_s: f64,
    tables_s: f64,
    tables: String,
}

fn tables(data: &StudyData) -> String {
    [table4::run(data), table5::run(data), table6::run(data)]
        .iter()
        .map(|r| r.render())
        .collect()
}

fn pass(dataset: Dataset, matcher: &PairTableMatcher) -> Pass {
    let start = Instant::now();
    let scores = ScoreMatrix::compute(&dataset, matcher);
    let compute_s = secs(start.elapsed());
    let data = StudyData { dataset, scores };
    let start = Instant::now();
    let tables = tables(&data);
    Pass {
        data,
        compute_s,
        tables_s: secs(start.elapsed()),
        tables,
    }
}

/// Digest of every `(cell, index, score bits)` plus the rendered tables.
/// `flip` corrupts the first score's lowest bit (self-test fault).
fn digest(seed: u64, scores: &ScoreMatrix, tables: &str, flip: bool) -> u64 {
    let mut chain = FingerprintChain::new(seed);
    for cell in 0..CELLS {
        let (g, p) = cell_devices(cell);
        for (i, s) in scores.genuine_cell(g, p).iter().enumerate() {
            chain.fold_u64(cell as u64);
            chain.fold_u64(i as u64);
            chain.fold_u64(s.score.to_bits() ^ u64::from(flip && cell == 0 && i == 0));
        }
        for (i, s) in scores.impostor_cell(g, p).iter().enumerate() {
            chain.fold_u64((CELLS + cell) as u64);
            chain.fold_u64(i as u64);
            chain.fold_f64(*s);
        }
    }
    chain.fold_str(tables);
    chain.value()
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let (subjects, impostors) = if args.tiny {
        (TINY_SUBJECTS, TINY_IMPOSTORS_PER_CELL)
    } else {
        (SUBJECTS, IMPOSTORS_PER_CELL)
    };
    let config = StudyConfig::builder()
        .subjects(subjects)
        .impostors_per_cell(impostors)
        .seed(args.seed)
        .build();
    let mut out = Outcome::default();
    let repeats = if args.trace { 1 } else { SETUP_REPEATS };
    let mut setups = Vec::new();
    let mut speed = HostSpeed::default();
    let mut dataset = None;
    for _ in 0..repeats {
        drop(dataset.take());
        speed.sample();
        let start = Instant::now();
        dataset = Some(Dataset::generate(&config));
        setups.push(secs(start.elapsed()));
    }
    let dataset = dataset.expect("at least one set-up");

    let mut data_chain = FingerprintChain::new(0);
    for (_, _, c) in dataset.iter() {
        fold_template(&mut data_chain, c.gallery.template());
        fold_template(&mut data_chain, c.probe.template());
    }
    let mut config_chain = FingerprintChain::new(0);
    config_chain.fold_u64(subjects as u64);
    config_chain.fold_u64(config.impostors_per_cell as u64);
    out.note(format!(
        "stamp: code {} config {:016x} dataset {:016x} (subjects {subjects}, impostors/cell {})",
        code_stamp(&args.study_exe),
        config_chain.value(),
        data_chain.value(),
        config.impostors_per_cell
    ));
    out.set("host.calibration_us", speed.calibration_us());
    if args.trace {
        traced(args, &config, dataset, setups[0], out)
    } else {
        untraced(args, &config, dataset, &setups, speed, out)
    }
}

fn comparisons(config: &StudyConfig) -> u64 {
    let impostors = if config.subjects >= 2 {
        config.impostors_per_cell
    } else {
        0
    };
    (CELLS * (config.subjects + impostors)) as u64
}

fn untraced(
    args: &Args,
    config: &StudyConfig,
    mut dataset: Dataset,
    setups: &[f64],
    mut speed: HostSpeed,
    mut out: Outcome,
) -> Result<Outcome, String> {
    let matcher = PairTableMatcher::default();
    let per_pass = comparisons(config);
    let mut latencies = Vec::new();
    let mut reference = None;
    let mut last_scores = None;
    let start = Instant::now();
    while latencies.len() < MIN_PASSES || secs(start.elapsed()) < args.seconds {
        let p = pass(dataset, &matcher);
        latencies.push(p.compute_s + p.tables_s);
        let flip = args.corrupt && latencies.len() == 2;
        let d = digest(config.seed, &p.data.scores, &p.tables, flip);
        let ok = *reference.get_or_insert(d) == d;
        out.operations(per_pass, if ok { 0 } else { per_pass });
        if !ok {
            eprintln!(
                "perfbench: check failed: pass {} digest {d:016x} differs from pass 1",
                latencies.len()
            );
        }
        dataset = p.data.dataset;
        last_scores = Some(p.data.scores);
        speed.sample();
    }
    let scores = last_scores.expect("at least one pass");
    oracle(config, &dataset, &scores, &mut out);

    let total: f64 = latencies.iter().sum();
    let ms: Vec<f64> = latencies.iter().map(|s| s * 1e3).collect();
    out.note(format!(
        "digest {:016x}; {} passes of {per_pass} comparisons",
        reference.expect("at least one pass"),
        latencies.len()
    ));
    out.end_to_end(
        &speed,
        setups,
        (per_pass * latencies.len() as u64) as f64 / total,
        &ms,
        peak_rss_mb(None),
    );
    Ok(out)
}

/// One genuine and two impostor scores per cell must equal the unprepared
/// `Matcher::compare` oracle bit for bit.
fn oracle(config: &StudyConfig, dataset: &Dataset, scores: &ScoreMatrix, out: &mut Outcome) {
    let matcher = PairTableMatcher::default();
    let n = dataset.len();
    let score = |a: usize, g: DeviceId, b: usize, p: DeviceId| {
        let gallery = &dataset.captures(SubjectId(a as u32), g).gallery;
        let probe = &dataset.captures(SubjectId(b as u32), p).probe;
        config
            .calibration
            .apply(matcher.compare(gallery.template(), probe.template()))
            .value()
    };
    for cell in 0..CELLS {
        let (g, p) = cell_devices(cell);
        let s = cell % n;
        let want = score(s, g, s, p);
        let got = scores.genuine_cell(g, p)[s].score;
        out.check(want.to_bits() == got.to_bits(), || {
            format!("genuine cell {cell} subject {s}: matrix {got} vs oracle {want}")
        });
        for (k, &(a, b)) in impostor_pairs(config, n, cell).iter().take(2).enumerate() {
            let want = score(a, g, b, p);
            let got = scores.impostor_cell(g, p)[k];
            out.check(want.to_bits() == got.to_bits(), || {
                format!("impostor cell {cell} pair {k}: matrix {got} vs oracle {want}")
            });
        }
    }
}

/// The per-layer run: one untraced pass, then a single-thread replay of
/// the very same pairs with a timer around every `prepare` and
/// `compare_prepared`, whose scores must equal the pass's bit for bit.
fn traced(
    args: &Args,
    config: &StudyConfig,
    dataset: Dataset,
    dataset_s: f64,
    mut out: Outcome,
) -> Result<Outcome, String> {
    let matcher = PairTableMatcher::default();
    // The median of a few untraced passes is the end-to-end reference; the
    // last pass's scores are what the replay must reproduce.
    let mut dataset = dataset;
    let (mut compute, mut tabulate, mut digests) = (Vec::new(), Vec::new(), Vec::new());
    let untraced = loop {
        let p = pass(dataset, &matcher);
        compute.push(p.compute_s);
        tabulate.push(p.tables_s);
        digests.push(digest(config.seed, &p.data.scores, &p.tables, false));
        if compute.len() == UNTRACED_PASSES {
            break p;
        }
        dataset = p.data.dataset;
    };
    out.check(digests.iter().all(|d| *d == digests[0]), || {
        "untraced passes produced different digests".to_string()
    });
    let compute_s = median(&compute);
    let end_to_end = compute_s + median(&tabulate);
    let data = &untraced.data;
    let n = data.dataset.len();

    let telemetry = Telemetry::enabled();
    let counted = PairTableMatcher::default().with_telemetry(&telemetry);
    let mut prepare_s = 0.0;
    let prepared: Vec<[_; DEVICE_COUNT]> = (0..n)
        .map(|s| {
            std::array::from_fn(|d| {
                let c = data
                    .dataset
                    .captures(SubjectId(s as u32), DeviceId(d as u8));
                let start = Instant::now();
                let pair = (
                    counted.prepare(c.gallery.template()),
                    counted.prepare(c.probe.template()),
                );
                prepare_s += secs(start.elapsed());
                pair
            })
        })
        .collect();

    let calibrated = |raw| config.calibration.apply(raw).value();
    let mut mismatches = 0u64;
    let mut genuine_s = 0.0;
    let mut impostor_s = 0.0;
    let mut impostor_count = 0usize;
    let mut sample = Vec::new();
    for cell in 0..CELLS {
        let (g, p) = cell_devices(cell);
        let (gi, pi) = (g.0 as usize, p.0 as usize);
        for (s, want) in data.scores.genuine_cell(g, p).iter().enumerate() {
            let start = Instant::now();
            let raw = counted.compare_prepared(&prepared[s][gi].0, &prepared[s][pi].1);
            genuine_s += secs(start.elapsed());
            let flip = u64::from(args.corrupt && cell == 0 && s == 0);
            mismatches += u64::from(calibrated(raw).to_bits() ^ flip != want.score.to_bits());
        }
        let wanted = data.scores.impostor_cell(g, p);
        for (k, (a, b)) in impostor_pairs(config, n, cell).into_iter().enumerate() {
            let start = Instant::now();
            let raw = counted.compare_prepared(&prepared[a][gi].0, &prepared[b][pi].1);
            impostor_s += secs(start.elapsed());
            mismatches += u64::from(calibrated(raw).to_bits() != wanted[k].to_bits());
            impostor_count += 1;
            if sample.len() < OVERHEAD_SAMPLE {
                sample.push((&prepared[a][gi].0, &prepared[b][pi].1));
            }
        }
    }
    let replayed = comparisons(config);
    out.operations(replayed, mismatches);
    if mismatches > 0 {
        eprintln!("perfbench: check failed: {mismatches} replayed scores differ from the pass");
    }

    // Timer cost: the same comparisons bare and with a timer per call.
    let bare = PairTableMatcher::default();
    let instrumented = PairTableMatcher::default().with_telemetry(&Telemetry::enabled());
    let (mut bare_s, mut timed_s) = (0.0, 0.0);
    for _ in 0..2 {
        let start = Instant::now();
        for (g, p) in &sample {
            black_box(bare.compare_prepared(g, p));
        }
        bare_s += secs(start.elapsed());
        let start = Instant::now();
        let mut inner = 0.0;
        for (g, p) in &sample {
            let call = Instant::now();
            black_box(instrumented.compare_prepared(g, p));
            inner += secs(call.elapsed());
        }
        black_box(inner);
        timed_s += secs(start.elapsed());
    }

    let start = Instant::now();
    let rendered = tables(data);
    let tables_s = secs(start.elapsed());
    out.check(rendered == untraced.tables, || {
        "tables rendered in the traced run differ from the pass".to_string()
    });

    // Exact work counts from the matcher's own instruments: (sum, count).
    let snapshot = telemetry.snapshot();
    let work = |name: &str| {
        snapshot
            .values
            .get(name)
            .map_or((0.0, 1.0), |h| (h.sum as f64, h.count.max(1) as f64))
    };
    let (assoc_sum, assoc_n) = work("match.pairtable.associations");
    let (cluster_sum, cluster_n) = work("match.pairtable.cluster_size");
    let (entries_sum, entries_n) = work("match.pairtable.table_entries");

    let compute_cpu_s = prepare_s + genuine_s + impostor_s;
    let cores = threads() as f64;
    out.set("fp-sensor.dataset_s", dataset_s);
    out.set(
        "fp-match.prepare_us",
        prepare_s / (2 * n * DEVICE_COUNT) as f64 * 1e6,
    );
    out.set(
        "fp-match.genuine_compare_us",
        genuine_s / (CELLS * n) as f64 * 1e6,
    );
    out.set(
        "fp-match.impostor_compare_us",
        impostor_s / impostor_count.max(1) as f64 * 1e6,
    );
    out.set("fp-match.table_entries", entries_sum / entries_n);
    out.set("fp-match.associations", assoc_sum / assoc_n);
    out.set("fp-match.cluster_size", cluster_sum / cluster_n);
    out.set("fp-match.cluster_ratio", cluster_sum / assoc_sum.max(1.0));
    out.set(
        "fp-study.parallel_efficiency",
        compute_cpu_s / (compute_s * cores),
    );
    out.set("fp-stats.tables_ms", tables_s * 1e3);
    out.set(
        "trace.residual_frac",
        1.0 - (compute_cpu_s / cores + tables_s) / end_to_end,
    );
    out.set("trace.overhead_frac", timed_s / bare_s - 1.0);
    out.note(format!(
        "pass {:.3} s (median of {UNTRACED_PASSES}; score matrix {:.3} s on {} threads); \
         replay {:.3} s on 1 thread",
        end_to_end, compute_s, cores, compute_cpu_s
    ));
    Ok(out)
}
