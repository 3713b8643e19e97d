//! `search_10k`: in-process 1:N identification, a closed loop with one
//! client calling `CandidateIndex::search`.
//!
//! Set-up captures a 10k live-scan (D0) session-0 gallery and enrolls it;
//! probes are session-1 captures spread evenly over D0..D4, so one in five
//! is an ink card. Stage 1 (cylinder kernel + votes) and the pair-table
//! re-rank split a search's time, so an `fp-index` stage-1 or vote change
//! shows here, and enrollment in set-up exposes cost moved into `prepare`.

use std::time::Instant;

use fp_core::Matcher;
use fp_index::shard::{globalize_and_sort, merge_sorted_parts, select_per_shard};
use fp_index::{search_backends, CandidateIndex, IndexConfig, SearchResult, ShardBackend};
use fp_match::PairTableMatcher;
use fp_telemetry::FingerprintChain;

use crate::common::{code_stamp, mean, peak_rss_mb, secs, Args, HostSpeed, Outcome};
use crate::inputs::{per_probe_mean, Inputs};

const GALLERY: usize = 10_000;
const PROBES: usize = 200;
const TINY_GALLERY: usize = 300;
const TINY_PROBES: usize = 10;
const SETUP_REPEATS: usize = 3;
/// Probes searched again on every set-up replica: independently built
/// indexes must answer them identically.
const REPLICA_PROBES: usize = 5;
/// Searches between two samples of the host speed (about 0.7 s).
pub const CALIBRATE_EVERY: usize = 8;

pub type Index = CandidateIndex<PairTableMatcher>;

/// The per-search output check: a chain over the merged candidate list.
pub fn result_chain(seed: u64, result: &SearchResult) -> u64 {
    let mut chain = FingerprintChain::new(seed);
    chain.fold(result);
    chain.value()
}

pub fn sizes(args: &Args, gallery: usize, probes: usize) -> (usize, usize) {
    if args.tiny {
        (TINY_GALLERY.min(gallery), TINY_PROBES)
    } else {
        (gallery, probes)
    }
}

fn enroll(seed: u64, gallery: &[fp_core::template::Template]) -> Index {
    let mut index = CandidateIndex::with_config(
        PairTableMatcher::default(),
        IndexConfig::scaled(gallery.len()),
    )
    .with_run_seed(seed);
    index.enroll_all(gallery);
    index
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let (gallery_len, probe_count) = sizes(args, GALLERY, PROBES);
    let mut out = Outcome::default();
    let repeats = if args.trace { 1 } else { SETUP_REPEATS };
    let mut setups = Vec::new();
    let mut speed = HostSpeed::default();
    let (mut gen_s, mut enroll_s) = (0.0, 0.0);
    let mut replica_chains: Option<Vec<u64>> = None;
    let mut built = None;
    for _ in 0..repeats {
        // Drop the previous replica first: one gallery in memory at a time.
        drop(built.take());
        speed.sample();
        let start = Instant::now();
        let inputs = Inputs::generate(args.seed, gallery_len, probe_count);
        gen_s = secs(start.elapsed());
        let index = enroll(args.seed, &inputs.gallery);
        setups.push(secs(start.elapsed()));
        enroll_s = setups[setups.len() - 1] - gen_s;
        // Not timed: replicas must agree on a few probes, one per device.
        let chains: Vec<u64> = inputs.probes[..REPLICA_PROBES.min(probe_count)]
            .iter()
            .map(|p| result_chain(args.seed, &index.search(&p.template)))
            .collect();
        let first = replica_chains.get_or_insert_with(|| chains.clone());
        out.check(*first == chains, || {
            "a set-up replica answered the replica probes differently".to_string()
        });
        built = Some((inputs, index));
    }
    let (inputs, index) = built.expect("at least one set-up");
    out.note(format!(
        "stamp: code {} config {} dataset {} (gallery {gallery_len}, probes {probe_count}, shortlist {})",
        code_stamp(&args.study_exe),
        config_stamp(index.config(), gallery_len, probe_count),
        inputs.stamp(),
        index.config().shortlist
    ));
    out.set("host.calibration_us", speed.calibration_us());
    if args.trace {
        traced(args, &inputs, &index, gen_s, enroll_s, out)
    } else {
        untraced(args, &inputs, &index, &setups, speed, out)
    }
}

pub fn config_stamp(config: &IndexConfig, gallery: usize, probes: usize) -> String {
    let mut chain = config.fingerprint_base(0);
    chain.fold_u64(gallery as u64);
    chain.fold_u64(probes as u64);
    format!("{:016x}", chain.value())
}

fn untraced(
    args: &Args,
    inputs: &Inputs,
    index: &Index,
    setups: &[f64],
    mut speed: HostSpeed,
    mut out: Outcome,
) -> Result<Outcome, String> {
    let probes = &inputs.probes;
    let mut first: Vec<Option<u64>> = vec![None; probes.len()];
    let mut latencies = Vec::new();
    let mut hits = 0usize;
    let mut mismatches = 0u64;
    let start = Instant::now();
    // A full cycle over the probe pool always runs (the recall figure and
    // the reference checks need it), plus one search that repeats a probe.
    while latencies.len() <= probes.len() || secs(start.elapsed()) < args.seconds {
        let i = latencies.len();
        speed.sample_every(CALIBRATE_EVERY, i);
        let probe = &probes[i % probes.len()];
        let t = Instant::now();
        let result = index.search(&probe.template);
        latencies.push(secs(t.elapsed()) * 1e3);
        let flip = u64::from(args.corrupt && i == probes.len());
        let chain = result_chain(args.seed, &result) ^ flip;
        if i < probes.len() {
            hits += usize::from(result.best().map(|c| c.id) == Some(probe.mate));
        }
        let want = *first[i % probes.len()].get_or_insert(chain);
        if want != chain {
            mismatches += 1;
            eprintln!(
                "perfbench: check failed: search {i} (probe {}) changed its candidates",
                i % probes.len()
            );
        }
    }
    let timed_s = secs(start.elapsed());
    let search_s = latencies.iter().sum::<f64>() / 1e3;
    out.operations(latencies.len() as u64, mismatches);

    // Reference driver and unprepared-matcher oracle, one probe per device.
    let matcher = PairTableMatcher::default();
    for (k, probe) in probes.iter().enumerate().take(REPLICA_PROBES) {
        let reference = search_backends(
            std::slice::from_ref(index),
            &probe.template,
            index.config().shortlist,
        )
        .map_err(|e| format!("reference driver: {e}"))?;
        out.check(
            first[k] == Some(result_chain(args.seed, &reference)),
            || format!("probe {k}: search differs from the search_backends reference"),
        );
        if let Some(best) = reference.best() {
            let want = matcher.compare(&inputs.gallery[best.id as usize], &probe.template);
            out.check(
                want.value().to_bits() == best.score.value().to_bits(),
                || format!("probe {k}: top score differs from the unprepared matcher"),
            );
        }
    }

    out.note(format!(
        "{} searches in {timed_s:.2} s; rank-1 recall {:.4} over {} probes; run fingerprint {}",
        latencies.len(),
        hits as f64 / probes.len() as f64,
        probes.len(),
        index.run_fingerprint().hex()
    ));
    out.end_to_end(
        &speed,
        setups,
        latencies.len() as f64 / search_s,
        &latencies,
        peak_rss_mb(None),
    );
    Ok(out)
}

/// Per-search layer timings of one traced search.
#[derive(Default)]
struct Layers {
    /// Wall time of the whole traced search.
    total_ms: f64,
    stage1_ms: f64,
    cylinder_ms: f64,
    fuse_ms: f64,
    rerank_ms: f64,
    hamming_word_ops: u64,
    bucket_hits: u64,
    rerank_comparisons: u64,
}

/// One search driven layer by layer through the public stage seam, exactly
/// as `search_backends` sequences it, with a timer around every call. Also
/// returns stage 1's cylinder scores, for the separate kernel timing.
fn traced_search(
    index: &Index,
    probe: &fp_core::template::Template,
) -> (SearchResult, Layers, Vec<f64>) {
    let mut layers = Layers::default();
    let start = Instant::now();
    let t = Instant::now();
    let stage1 = index
        .stage_one(probe)
        .expect("in-process shards cannot fail");
    layers.stage1_ms = secs(t.elapsed()) * 1e3;
    let t = Instant::now();
    let selected = select_per_shard(
        &stage1.vote_scores,
        &stage1.cyl_scores,
        index.config().shortlist,
        1,
    );
    layers.fuse_ms = secs(t.elapsed()) * 1e3;
    let t = Instant::now();
    let mut part = index
        .stage_two(probe, &selected[0])
        .expect("in-process shards cannot fail");
    layers.rerank_ms = secs(t.elapsed()) * 1e3;
    layers.hamming_word_ops = stage1.hamming_word_ops;
    layers.bucket_hits = stage1.bucket_hits;
    layers.rerank_comparisons = part.len() as u64;
    globalize_and_sort(&mut part, 0, 1);
    let result = SearchResult::from_parts(merge_sorted_parts(&[part]), index.len());
    layers.total_ms = secs(start.elapsed()) * 1e3;
    (result, layers, stage1.cyl_scores)
}

fn traced(
    args: &Args,
    inputs: &Inputs,
    index: &Index,
    gen_s: f64,
    enroll_s: f64,
    mut out: Outcome,
) -> Result<Outcome, String> {
    let probes = &inputs.probes;
    // Each probe is searched untraced (the end-to-end reference) and
    // traced back to back, in alternating order, so drift in the host's
    // speed and cache warm-up fall on both sides alike.
    let mut untraced_ms = Vec::new();
    let mut traced_ms = Vec::new();
    let mut layers = Vec::new();
    let mut hits = 0usize;
    let mut cylinder_scores = Vec::new();
    for (i, probe) in probes.iter().enumerate() {
        let untraced = || {
            let t = Instant::now();
            let result = index.search(&probe.template);
            (result, secs(t.elapsed()) * 1e3)
        };
        let ((want, ms), (result, l, cyl)) = if i % 2 == 0 {
            (untraced(), traced_search(index, &probe.template))
        } else {
            let traced = traced_search(index, &probe.template);
            (untraced(), traced)
        };
        untraced_ms.push(ms);
        traced_ms.push(l.total_ms);
        hits += usize::from(result.best().map(|c| c.id) == Some(probe.mate));
        let flip = u64::from(args.corrupt && i == 0);
        out.check(
            result_chain(args.seed, &result) ^ flip == result_chain(args.seed, &want),
            || format!("probe {i}: traced search differs from the untraced one"),
        );
        layers.push((probe.device, l));
        cylinder_scores.push(cyl);
    }
    out.operations(probes.len() as u64, 0);
    // The cylinder kernel alone, in a pass of its own so the extra scan
    // does not disturb the traced searches' caches.
    for (i, probe) in probes.iter().enumerate() {
        let t = Instant::now();
        let (cylinder, _) = index.stage1_cylinder_scores(&probe.template);
        layers[i].1.cylinder_ms = secs(t.elapsed()) * 1e3;
        let same = cylinder.len() == cylinder_scores[i].len()
            && cylinder
                .iter()
                .zip(&cylinder_scores[i])
                .all(|(a, b)| a.to_bits() == b.to_bits());
        out.check(same, || {
            format!("probe {i}: stage1_cylinder_scores differs from stage_one")
        });
    }

    let prepare_us = inputs.prepare_us();
    let avg = |f: &dyn Fn(&Layers) -> f64, card: Option<bool>| per_probe_mean(&layers, f, card);
    let stage1 = avg(&|l| l.stage1_ms, None);
    let cylinder = avg(&|l| l.cylinder_ms, None);
    let fuse = avg(&|l| l.fuse_ms, None);
    let rerank = avg(&|l| l.rerank_ms, None);
    let end_to_end = mean(&untraced_ms);
    out.set("fp-sensor.dataset_s", gen_s);
    out.set("fp-match.prepare_us", prepare_us);
    out.set("fp-index.enroll_s", enroll_s);
    out.set("fp-index.stage1_ms", stage1);
    out.set("fp-index.cylinder_ms", cylinder);
    out.set("fp-index.votes_ms", stage1 - cylinder);
    out.set("fp-index.fuse_ms", fuse);
    out.set(
        "fp-index.rerank_ms_live",
        avg(&|l| l.rerank_ms, Some(false)),
    );
    out.set("fp-index.rerank_ms_card", avg(&|l| l.rerank_ms, Some(true)));
    out.set(
        "fp-index.hamming_word_ops",
        avg(&|l| l.hamming_word_ops as f64, None),
    );
    out.set("fp-index.bucket_hits", avg(&|l| l.bucket_hits as f64, None));
    out.set(
        "fp-index.rerank_comparisons",
        avg(&|l| l.rerank_comparisons as f64, None),
    );
    out.set("fp-index.rank1_recall", hits as f64 / probes.len() as f64);
    out.set(
        "trace.residual_frac",
        1.0 - (stage1 + fuse + rerank) / end_to_end,
    );
    out.set("trace.overhead_frac", mean(&traced_ms) / end_to_end - 1.0);
    out.note(format!(
        "search {end_to_end:.3} ms untraced; votes_ms is derived (stage1_ms - cylinder_ms, \
         includes probe feature extraction)"
    ));
    Ok(out)
}
